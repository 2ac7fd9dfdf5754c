//! Figure 5: BER versus SoftPHY hints, per decoder.
//!
//! The paper plots three curves per decoder — QAM-16 at 6 dB, QPSK at
//! 6 dB, QAM-16 at 8 dB — each showing the log-linear hint→BER
//! relationship. Our receiver is more ideal than the paper's (no
//! synchronization or implementation losses), so its BER waterfalls sit a
//! few dB lower; the reproduction therefore anchors each curve at the
//! *same operating point relative to the waterfall* rather than the same
//! absolute SNR. Each curve runs at an offset from its modulation's
//! waterfall midpoint ([`ScalingFactors::mid_snr`]), as `configurations()`
//! lists them:
//!
//! | Paper curve | Reproduction |
//! |---|---|
//! | QAM-16 at 6 dB | QAM-16 1/2 at its midpoint, 7.25 dB |
//! | QPSK at 6 dB | QPSK 1/2 at its midpoint, 2.5 dB |
//! | QAM-16 at 8 dB | QAM-16 1/2 at midpoint + 1 dB, 8.25 dB |
//!
//! The bench that regenerates the figure is listed in the README,
//! "Reproducing the paper's figures".

use wilis_channel::SnrDb;
use wilis_phy::{Modulation, PhyRate};
use wilis_softphy::{CalibrationConfig, DecoderKind, HintCalibration, ScalingFactors};

use crate::scenario::{ScenarioResult, SweepGrid};
use crate::service::SweepService;

/// One Figure 5 curve: a labeled calibration run.
#[derive(Debug, Clone)]
pub struct Fig5Curve {
    /// Legend label in the paper's format.
    pub label: String,
    /// The binned hint→BER measurement.
    pub calibration: HintCalibration,
}

/// The three paper configurations, as (rate, SNR offset from the
/// modulation's waterfall midpoint, paper label).
fn configurations() -> [(PhyRate, f64, &'static str); 3] {
    [
        (PhyRate::Qam16Half, 0.0, "QAM16, AWGN SNR 6dB"),
        (PhyRate::QpskHalf, 0.0, "QPSK, AWGN SNR 6dB"),
        (PhyRate::Qam16Half, 1.0, "QAM16, AWGN SNR 8dB"),
    ]
}

/// Packet size each curve's bit budget is split into.
const PACKET_BITS: usize = 1704;

/// Rebuilds a [`HintCalibration`] from a scenario result — the engine
/// already bins every payload bit by hint; the canonical Figure 5 fit
/// rule lives in [`HintCalibration::from_bins`].
fn calibration_from(cfg: CalibrationConfig, r: &ScenarioResult) -> HintCalibration {
    HintCalibration::from_bins(
        cfg,
        r.hint_bins.to_vec(),
        r.packets,
        r.packet_errors,
        r.ber(),
    )
}

/// Runs the three curves for one decoder, spending `bits_per_curve`
/// payload bits on each — all three grid points execute concurrently on
/// the scenario engine, through `service`, so figure drivers sharing one
/// service (and one store) serve overlapping grid points from cache.
pub fn run(
    service: &mut SweepService,
    decoder: DecoderKind,
    bits_per_curve: u64,
    seed: u64,
) -> Vec<Fig5Curve> {
    let packets = bits_per_curve.div_ceil(PACKET_BITS as u64).max(1) as u32;
    let configs: Vec<(PhyRate, SnrDb, &str)> = configurations()
        .into_iter()
        .map(|(rate, offset_db, label)| {
            let snr = SnrDb::new(ScalingFactors::mid_snr(rate.modulation()).db() + offset_db);
            (rate, snr, label)
        })
        .collect();
    let scenarios: Vec<_> = configs
        .iter()
        .enumerate()
        .flat_map(|(i, &(rate, snr, _))| {
            SweepGrid::new()
                .rates(&[rate])
                .decoders(&[decoder.registry_name()])
                .snrs_db(&[snr.db()])
                .seeds(&[seed ^ (i as u64) << 8])
                .packets(packets)
                .payload_bits(PACKET_BITS)
                .scenarios()
        })
        .collect();
    let results = service
        .run(&scenarios)
        .expect("stock decoder and channel names"); // lint: allow(panic-policy) — experiment driver sweeps the stock registry over a known-good grid
    configs
        .iter()
        .enumerate()
        .zip(&results)
        .map(|((i, &(rate, snr, label)), r)| {
            let cfg = CalibrationConfig {
                seed: seed ^ (i as u64) << 8,
                packet_bits: PACKET_BITS,
                ..CalibrationConfig::new(rate, decoder, snr, bits_per_curve)
            };
            Fig5Curve {
                label: format!("{label} [ours: {} @ {snr}]", rate.label()),
                calibration: calibration_from(cfg, r),
            }
        })
        .collect()
}

/// Renders the curves as aligned `(hint, BER)` columns plus the fitted
/// slope — everything needed to re-plot Figure 5.
pub fn render(decoder: DecoderKind, curves: &[Fig5Curve]) -> String {
    let mut out = format!("Figure 5 ({decoder}): BER vs SoftPHY hint\n");
    for curve in curves {
        out.push_str(&format!("-- {}\n", curve.label));
        match curve.calibration.fit {
            Some(fit) => out.push_str(&format!(
                "   log10(BER) = {:.3} + {:.4} x hint   (overall BER {:.2e}, {} packets)\n",
                fit.intercept, fit.slope, curve.calibration.overall_ber, curve.calibration.packets
            )),
            None => out.push_str(&format!(
                "   too few errors to fit (overall BER {:.2e}); raise WILIS_BITS\n",
                curve.calibration.overall_ber
            )),
        }
        for (hint, ber) in curve.calibration.curve() {
            out.push_str(&format!("   hint {hint:>2}  BER {ber:.3e}\n"));
        }
    }
    out
}

/// The modulations Figure 5 covers (used by tests and docs).
pub fn modulations() -> [Modulation; 2] {
    [Modulation::Qam16, Modulation::Qpsk]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SweepRunner;

    fn service() -> SweepService {
        SweepService::from_env(SweepRunner::auto())
    }

    #[test]
    fn three_curves_per_decoder() {
        // Tiny budget: structure only, no statistical assertions.
        let curves = run(&mut service(), DecoderKind::Sova, 5_000, 1);
        assert_eq!(curves.len(), 3);
        assert!(curves[0].label.contains("QAM16"));
        assert!(curves[1].label.contains("QPSK"));
        let txt = render(DecoderKind::Sova, &curves);
        assert!(txt.contains("Figure 5"));
    }

    #[test]
    fn log_linear_relationship_emerges_with_budget() {
        // Moderate budget on the noisiest configuration: the fitted slope
        // must be negative (BER falls with hint) and the curve must span
        // at least two decades - the qualitative content of Figure 5.
        let curves = run(&mut service(), DecoderKind::Bcjr, 120_000, 2);
        let qam16_mid = &curves[0].calibration;
        let fit = qam16_mid.fit.expect("fit at waterfall midpoint");
        assert!(fit.slope < -0.02, "slope {}", fit.slope);
        let bers: Vec<f64> = qam16_mid.curve().map(|(_, b)| b).collect();
        let max = bers.iter().cloned().fold(0.0, f64::max);
        let min = bers.iter().cloned().fold(1.0, f64::min);
        // At this test budget a decade of separation is expected; the
        // fig5 bench with its full budget spans 4+ decades.
        assert!(
            max / min > 10.0,
            "curve should span a decade: {min:.2e}..{max:.2e}"
        );
    }
}
