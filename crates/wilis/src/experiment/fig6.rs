//! Figure 6: predicted versus actual per-packet BER.
//!
//! QAM-16 rate 1/2, AWGN with varying SNR, 1704-bit packets. Every packet
//! contributes one `(predicted PBER, actual PBER)` point; points are
//! binned by predicted value (quarter-decade bins, matching the figure's
//! log axes) and summarized as mean ± standard deviation of the actual
//! PBER — the cross-with-error-bar format of the paper's plot.
//!
//! The [`run_links`] companion runs the same grid with the `"arq"` and
//! `"ppr"` link policies: what the per-bit confidence behind this figure
//! *buys* — partial packet recovery repairing corrupted packets for a
//! fraction of whole-packet ARQ's retransmission cost.

use wilis_channel::SnrDb;
use wilis_lis::stats::Running;
use wilis_mac::LinkMetrics;
use wilis_phy::PhyRate;
use wilis_softphy::{DecoderKind, ScalingFactors};

use crate::scenario::{PacketStat, SweepGrid};
use crate::service::SweepService;

/// Configuration of the scatter experiment.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// The PHY rate (paper: QAM-16 1/2).
    pub rate: PhyRate,
    /// Which decoder produces the hints.
    pub decoder: DecoderKind,
    /// SNR sweep; the paper varies SNR so predicted PBER covers 10⁻³..1.
    pub snrs: Vec<SnrDb>,
    /// Packets per SNR point.
    pub packets_per_snr: u32,
    /// Payload bits per packet (paper: 1704).
    pub payload_bits: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Fig6Config {
    /// The paper's configuration, sweeping around the QAM-16 waterfall.
    pub fn paper(decoder: DecoderKind, packets_per_snr: u32) -> Self {
        let mid = ScalingFactors::mid_snr(wilis_phy::Modulation::Qam16).db();
        Self {
            rate: PhyRate::Qam16Half,
            decoder,
            snrs: (-5..=3).map(|k| SnrDb::new(mid + 0.5 * k as f64)).collect(),
            packets_per_snr,
            payload_bits: 1704,
            seed: 0xF166,
        }
    }
}

/// Quarter-decade summary bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Bin {
    /// Bin lower edge (predicted PBER).
    pub lo: f64,
    /// Bin upper edge.
    pub hi: f64,
    /// Packets in the bin.
    pub count: u64,
    /// Mean actual PBER.
    pub mean_actual: f64,
    /// Standard deviation of actual PBER.
    pub std_actual: f64,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Raw per-packet points: each packet's predicted and actual PBER.
    pub points: Vec<PacketStat>,
    /// Quarter-decade bins over predicted PBER.
    pub bins: Vec<Fig6Bin>,
}

/// Runs the scatter experiment through `service`: one scenario per SNR
/// point, all executed concurrently on the scenario engine with
/// per-packet stats recorded. Recording is forced on for the duration
/// (it is part of the cache key, so these points never alias a
/// stats-free record) and restored afterwards.
pub fn run(service: &mut SweepService, cfg: &Fig6Config) -> Fig6Result {
    let scenarios: Vec<_> = cfg
        .snrs
        .iter()
        .enumerate()
        .flat_map(|(si, &snr)| {
            SweepGrid::new()
                .rates(&[cfg.rate])
                .decoders(&[cfg.decoder.registry_name()])
                .snrs_db(&[snr.db()])
                .seeds(&[cfg.seed ^ ((si as u64) << 16)])
                .packets(cfg.packets_per_snr)
                .payload_bits(cfg.payload_bits)
                .scenarios()
        })
        .collect();
    let prior = service.runner().records_packet_stats();
    service.set_record_packet_stats(true);
    let results = service.run(&scenarios);
    service.set_record_packet_stats(prior);
    let results = results.expect("stock decoder and channel names"); // lint: allow(panic-policy) — experiment driver sweeps the stock registry over a known-good grid
    let points: Vec<PacketStat> = results.into_iter().flat_map(|r| r.packet_stats).collect();
    let bins = bin_points(&points);
    Fig6Result { points, bins }
}

/// Bins points by `log10(predicted)` in quarter-decade steps over the
/// figure's 10⁻³..10⁰ range.
fn bin_points(points: &[PacketStat]) -> Vec<Fig6Bin> {
    const DECADES: f64 = 3.0;
    const PER_DECADE: usize = 4;
    let n_bins = (DECADES * PER_DECADE as f64) as usize;
    let mut acc = vec![Running::new(); n_bins];
    for p in points {
        if p.predicted <= 0.0 {
            continue;
        }
        let pos = (p.predicted.log10() + DECADES) * PER_DECADE as f64;
        if pos < 0.0 {
            continue;
        }
        let idx = (pos as usize).min(n_bins - 1);
        acc[idx].push(p.actual);
    }
    acc.into_iter()
        .enumerate()
        .filter(|(_, r)| r.count() > 0)
        .map(|(i, r)| Fig6Bin {
            lo: 10f64.powf(-DECADES + i as f64 / PER_DECADE as f64),
            hi: 10f64.powf(-DECADES + (i + 1) as f64 / PER_DECADE as f64),
            count: r.count(),
            mean_actual: r.mean(),
            std_actual: r.std_dev(),
        })
        .collect()
}

/// One (SNR, link) point of the link-layer companion sweep.
#[derive(Debug, Clone)]
pub struct Fig6LinkPoint {
    /// Operating SNR in dB.
    pub snr_db: f64,
    /// Link policy name (`"arq"` or `"ppr"`).
    pub link: String,
    /// The accumulated link metrics at this point.
    pub metrics: LinkMetrics,
}

/// Runs the Figure 6 grid with ARQ and PPR link policies through
/// `service`: the same packets, now closed by the link layer.
pub fn run_links(service: &mut SweepService, cfg: &Fig6Config) -> Vec<Fig6LinkPoint> {
    let snrs: Vec<f64> = cfg.snrs.iter().map(|s| s.db()).collect();
    let grid = SweepGrid::new()
        .rates(&[cfg.rate])
        .decoders(&[cfg.decoder.registry_name()])
        .links(&["arq", "ppr"])
        .snrs_db(&snrs)
        .seeds(&[cfg.seed])
        .packets(cfg.packets_per_snr)
        .payload_bits(cfg.payload_bits);
    let scenarios = grid.scenarios();
    let results = service
        .run(&scenarios)
        .expect("stock decoder, channel, and link names"); // lint: allow(panic-policy) — experiment driver sweeps the stock registry over a known-good grid
    scenarios
        .iter()
        .zip(&results)
        .map(|(sc, r)| Fig6LinkPoint {
            snr_db: sc.snr_db,
            link: sc.link.clone(),
            metrics: r.link.expect("link-enabled scenario"), // lint: allow(panic-policy) — the grid above sets a link policy on every scenario
        })
        .collect()
}

/// Renders the link companion sweep as an aligned table.
pub fn render_links(points: &[Fig6LinkPoint]) -> String {
    let mut out = String::from("Link layer on the Figure 6 grid: ARQ vs partial packet recovery\n");
    out.push_str(&format!(
        "{:>8} {:>6} {:>9} {:>8} {:>10} {:>9}\n",
        "SNR dB", "link", "goodput", "retx %", "delivered", "gave up"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>8.2} {:>6} {:>9.3} {:>7.1}% {:>10} {:>9}\n",
            p.snr_db,
            p.link,
            p.metrics.goodput(),
            100.0 * p.metrics.retransmit_fraction(),
            p.metrics.delivered,
            p.metrics.gave_up
        ));
    }
    out
}

/// Renders the binned scatter in the paper's format.
pub fn render(cfg: &Fig6Config, result: &Fig6Result) -> String {
    let mut out = format!(
        "Figure 6 ({}): predicted vs actual PBER (rate {}, {} packets)\n",
        cfg.decoder,
        cfg.rate,
        result.points.len()
    );
    out.push_str(&format!(
        "{:>22} {:>12} {:>12} {:>8}\n",
        "predicted bin", "mean actual", "std", "packets"
    ));
    for b in &result.bins {
        out.push_str(&format!(
            "{:>10.2e}-{:<10.2e} {:>12.3e} {:>12.3e} {:>8}\n",
            b.lo, b.hi, b.mean_actual, b.std_actual, b.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SweepRunner;

    fn service() -> SweepService {
        SweepService::from_env(SweepRunner::auto())
    }

    fn small() -> Fig6Config {
        Fig6Config {
            packets_per_snr: 6,
            payload_bits: 600,
            ..Fig6Config::paper(DecoderKind::Bcjr, 6)
        }
    }

    #[test]
    fn produces_points_and_bins() {
        let result = run(&mut service(), &small());
        assert_eq!(result.points.len(), 6 * 9);
        assert!(!result.bins.is_empty());
        let txt = render(&small(), &result);
        assert!(txt.contains("Figure 6"));
    }

    #[test]
    fn predictions_track_actuals_in_rank() {
        // The qualitative content of Figure 6: packets predicted worse are
        // actually worse. Compare mean actual PBER between the cleanest
        // and dirtiest thirds by prediction.
        let mut result = run(
            &mut service(),
            &Fig6Config {
                packets_per_snr: 12,
                payload_bits: 600,
                ..Fig6Config::paper(DecoderKind::Bcjr, 12)
            },
        );
        result
            .points
            .sort_by(|a, b| a.predicted.partial_cmp(&b.predicted).unwrap());
        let n = result.points.len();
        let clean: f64 =
            result.points[..n / 3].iter().map(|p| p.actual).sum::<f64>() / (n / 3) as f64;
        let dirty: f64 = result.points[2 * n / 3..]
            .iter()
            .map(|p| p.actual)
            .sum::<f64>()
            / (n - 2 * n / 3) as f64;
        assert!(
            dirty > clean,
            "dirty-predicted packets should be worse: {clean:.2e} vs {dirty:.2e}"
        );
    }

    #[test]
    fn link_companion_covers_the_grid() {
        let cfg = small();
        let points = run_links(&mut service(), &cfg);
        assert_eq!(points.len(), cfg.snrs.len() * 2, "(SNR x {{arq, ppr}})");
        for p in &points {
            let g = p.metrics.goodput();
            assert!((0.0..=1.0).contains(&g), "{} goodput {g}", p.link);
            assert_eq!(p.metrics.packets, u64::from(cfg.packets_per_snr));
        }
        // At the top of the sweep (cleanest SNR) nearly everything lands.
        let best = points
            .iter()
            .filter(|p| p.link == "ppr")
            .max_by(|a, b| a.snr_db.partial_cmp(&b.snr_db).unwrap())
            .unwrap();
        assert!(best.metrics.delivery_rate() > 0.5);
        let txt = render_links(&points);
        assert!(txt.contains("arq") && txt.contains("ppr"));
    }

    #[test]
    fn binning_respects_edges() {
        let points = vec![
            PacketStat {
                predicted: 0.5,
                actual: 0.4,
            },
            PacketStat {
                predicted: 0.5,
                actual: 0.6,
            },
            PacketStat {
                predicted: 1e-9,
                actual: 0.0,
            }, // below range: dropped
            PacketStat {
                predicted: 0.0,
                actual: 0.0,
            }, // non-positive: dropped
        ];
        let bins = bin_points(&points);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].count, 2);
        assert!((bins[0].mean_actual - 0.5).abs() < 1e-12);
        assert!(bins[0].lo <= 0.5 && 0.5 <= bins[0].hi);
    }
}
