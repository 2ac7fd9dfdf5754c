//! Figure 2: simulation speeds of the eight 802.11g rates.
//!
//! Two columns are produced: the *hybrid platform model* (the paper's
//! system — FPGA pipeline + software channel over the FSB, bottlenecked by
//! noise generation) and an optional *native* measurement of this
//! repository's pure-software pipeline, which plays the role of the
//! paper's "software simulation achieves only a few kilobits per second"
//! comparison point (§1).

use wilis_cosim::native::{measure_native, NativeDecoder, NativeSpeed};
use wilis_cosim::{SpeedModel, SpeedRow};
use wilis_phy::PhyRate;

/// One rendered row of the Figure 2 table.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// The modeled hybrid-platform row.
    pub model: SpeedRow,
    /// The measured native row, when requested.
    pub native: Option<NativeSpeed>,
}

/// Runs the Figure 2 experiment.
///
/// `native_packets > 0` also measures this repository's software pipeline
/// at each rate (Viterbi receiver, matching the paper's baseline 802.11
/// system) with that many packets.
pub fn run(native_packets: u32) -> Vec<Fig2Row> {
    let model = SpeedModel::paper();
    // The model rows are closed-form, a few flops each; the native
    // wall-clock measurement stays serial — concurrent trials would time
    // contention, not the pipeline.
    PhyRate::all()
        .into_iter()
        .map(|rate| Fig2Row {
            model: model.row(rate),
            native: (native_packets > 0).then(|| {
                measure_native(
                    rate,
                    NativeDecoder::Viterbi,
                    native_packets,
                    1500 * 8,
                    0xF16,
                )
            }),
        })
        .collect()
}

/// Renders the table in the paper's layout.
pub fn render(rows: &[Fig2Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 2: simulation speeds (paper: 2.033-22.244 Mb/s, 32.8%-41.3% of line rate)\n",
    );
    out.push_str(&format!(
        "{:<22} {:>12} {:>9} {:>14} {:>16}\n",
        "Modulation", "Model Mb/s", "% line", "Link MB/s", "Native Mb/s"
    ));
    for row in rows {
        let native = match &row.native {
            Some(n) => format!(
                "{:.3} ({:.1}%)",
                n.sim_mbps,
                100.0 * n.fraction_of_line_rate
            ),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<22} {:>12.3} {:>8.1}% {:>14.1} {:>16}\n",
            row.model.rate.to_string(),
            row.model.sim_mbps,
            100.0 * row.model.fraction_of_line_rate,
            row.model.link_bytes_per_sec / 1e6,
            native,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_only_table_has_eight_rows() {
        let rows = run(0);
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.native.is_none()));
        // Monotone in line rate: faster rates simulate faster (the
        // bottleneck is per-sample, bits per symbol grow).
        for w in rows.windows(2) {
            assert!(w[1].model.sim_mbps > w[0].model.sim_mbps);
        }
    }

    #[test]
    fn render_contains_all_rates() {
        let table = render(&run(0));
        for rate in PhyRate::all() {
            assert!(table.contains(&rate.to_string()), "{rate} missing");
        }
    }

    #[test]
    fn native_measurement_attaches() {
        let rows = run(1);
        assert!(rows.iter().all(|r| r.native.is_some()));
    }
}
