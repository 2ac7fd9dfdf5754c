//! Figure 7: SoftRate rate selection under a 20 Hz fading channel with
//! 10 dB AWGN — run entirely on the scenario engine's link dimension.
//!
//! The transmitter MAC observes each packet's predicted PBER (as it would
//! arrive on an ARQ acknowledgement) and adjusts the rate of future
//! packets. A rate is *over-selected* when it exceeds the highest rate at
//! which the packet would have been received error-free, *under-selected*
//! when below it (§4.4.2). Establishing that oracle is exactly what the
//! paper's "pseudo-random noise model" exists for: every candidate rate is
//! replayed against the identical noise-and-fading-versus-time
//! realization.
//!
//! Since the link-layer sweep integration, all of that machinery lives in
//! the engine itself: the `"trace"` channel model walks one replayed
//! fading realization packet by packet (with genie equalization — the
//! receiver has no channel estimation, as documented in DESIGN.md), the
//! `"softrate"` link policy steers the transmit rate and asks the engine
//! for the per-packet oracle replay, and the under/accurate/over
//! tallies come back as [`wilis_mac::LinkMetrics`]. This driver is just a
//! [`Scenario`] description plus a result mapping.

use wilis_channel::SnrDb;
use wilis_lis::registry::Params;
use wilis_mac::SelectionStats;
use wilis_phy::PhyRate;
use wilis_softphy::DecoderKind;

use crate::scenario::{Scenario, ScenarioResult};
use crate::service::SweepService;

/// Configuration of the SoftRate trial.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Config {
    /// Mean channel SNR (paper: 10 dB).
    pub snr: SnrDb,
    /// Doppler of the Rayleigh fading process (paper: 20 Hz).
    pub doppler_hz: f64,
    /// Number of packet slots to simulate.
    pub packets: u32,
    /// Payload bits per packet.
    pub payload_bits: usize,
    /// Idle gap between packets in seconds (lets the channel evolve).
    pub gap_secs: f64,
    /// RNG seed for payloads and the channel realization.
    pub seed: u64,
}

impl Fig7Config {
    /// The paper's channel with a given packet budget.
    pub fn paper(packets: u32) -> Self {
        Self {
            snr: SnrDb::new(10.0),
            doppler_hz: 20.0,
            packets,
            payload_bits: 800,
            gap_secs: 0.5e-3,
            seed: 0xF17,
        }
    }

    /// The grid point this trial is, in engine form: the Figure 7 channel
    /// as a `"trace"` walk and SoftRate as the `"softrate"` link policy
    /// starting from QAM-16 1/2.
    pub fn scenario(&self, decoder: DecoderKind) -> Scenario {
        let mut channel_params = Params::new();
        channel_params.set("doppler_hz", &format!("{}", self.doppler_hz));
        channel_params.set("base_seed", &format!("{}", self.seed));
        channel_params.set("gap_secs", &format!("{}", self.gap_secs));
        Scenario {
            rate: PhyRate::Qam16Half,
            decoder: decoder.registry_name().to_string(),
            channel: "trace".to_string(),
            channel_params,
            link: "softrate".to_string(),
            link_params: Params::new(),
            contention: "p2p".to_string(),
            contention_params: Params::new(),
            nodes: 1,
            snr_db: self.snr.db(),
            seed: self.seed,
            packets: self.packets,
            payload_bits: self.payload_bits,
        }
    }
}

/// The outcome of one trial.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Which decoder drove the PBER estimates.
    pub decoder: DecoderKind,
    /// Under/accurate/over tallies — the Figure 7 bars.
    pub stats: SelectionStats,
    /// Mean selected rate across the trial, Mbps.
    pub mean_rate_mbps: f64,
    /// Fraction of packets delivered error-free at the selected rate.
    pub delivery_rate: f64,
}

fn result_from(decoder: DecoderKind, r: &ScenarioResult) -> Fig7Result {
    let m = r.link.expect("softrate scenario carries link metrics"); // lint: allow(panic-policy) — cfg.scenario() always sets the softrate link policy
    Fig7Result {
        decoder,
        stats: SelectionStats {
            under: m.under,
            accurate: m.accurate,
            over: m.over,
        },
        mean_rate_mbps: m.mean_selected_mbps(),
        delivery_rate: m.delivery_rate(),
    }
}

/// Runs the Figure 7 trial for one decoder through `service`.
pub fn run(service: &mut SweepService, cfg: &Fig7Config, decoder: DecoderKind) -> Fig7Result {
    let results = service
        .run(&[cfg.scenario(decoder)])
        .expect("stock decoder, channel, and link names"); // lint: allow(panic-policy) — experiment driver sweeps the stock registry over a known-good grid
    result_from(decoder, &results[0])
}

/// Runs both decoders' trials concurrently through `service` — two grid
/// points of the same sweep (each is internally sequential: rate
/// adaptation carries state from packet to packet, which is exactly
/// what the link policy models).
pub fn run_both(service: &mut SweepService, cfg: &Fig7Config) -> Vec<Fig7Result> {
    let decoders = [DecoderKind::Bcjr, DecoderKind::Sova];
    let scenarios: Vec<Scenario> = decoders.iter().map(|&d| cfg.scenario(d)).collect();
    let results = service
        .run(&scenarios)
        .expect("stock decoder, channel, and link names"); // lint: allow(panic-policy) — experiment driver sweeps the stock registry over a known-good grid
    decoders
        .iter()
        .zip(&results)
        .map(|(&d, r)| result_from(d, r))
        .collect()
}

/// Renders both decoders' bars in the paper's format.
pub fn render(results: &[Fig7Result]) -> String {
    let mut out = String::from(
        "Figure 7: SoftRate under 20 Hz fading + 10 dB AWGN\n\
         (paper: both decoders >80% accurate; SOVA underselects ~4% more; both overselect ~2%)\n",
    );
    out.push_str(&format!(
        "{:<8} {:>9} {:>10} {:>8} {:>12} {:>10}\n",
        "Decoder", "Under %", "Accurate %", "Over %", "Mean Mbps", "Delivery"
    ));
    for r in results {
        let (u, a, o) = r.stats.percentages();
        out.push_str(&format!(
            "{:<8} {:>9.1} {:>10.1} {:>8.1} {:>12.2} {:>9.1}%\n",
            r.decoder.to_string(),
            u,
            a,
            o,
            r.mean_rate_mbps,
            100.0 * r.delivery_rate
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SweepRunner;

    fn service() -> SweepService {
        SweepService::from_env(SweepRunner::new(1))
    }

    #[test]
    fn trial_runs_and_tallies() {
        let cfg = Fig7Config {
            packets: 12,
            payload_bits: 256,
            ..Fig7Config::paper(12)
        };
        let r = run(&mut service(), &cfg, DecoderKind::Sova);
        assert_eq!(r.stats.total(), 12);
        assert!(r.mean_rate_mbps >= 6.0 && r.mean_rate_mbps <= 54.0);
        let txt = render(&[r]);
        assert!(txt.contains("SOVA"));
    }

    #[test]
    fn identical_seeds_identical_outcomes() {
        let cfg = Fig7Config {
            packets: 8,
            payload_bits: 256,
            ..Fig7Config::paper(8)
        };
        let a = run(&mut service(), &cfg, DecoderKind::Bcjr);
        let b = run(&mut service(), &cfg, DecoderKind::Bcjr);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.mean_rate_mbps, b.mean_rate_mbps);
    }

    #[test]
    fn run_both_matches_individual_runs() {
        // The engine executes both decoders' trials as grid points; each
        // must be bit-identical to its standalone run.
        let cfg = Fig7Config {
            packets: 6,
            payload_bits: 256,
            ..Fig7Config::paper(6)
        };
        let both = run_both(&mut SweepService::from_env(SweepRunner::auto()), &cfg);
        let solo = run(&mut service(), &cfg, DecoderKind::Bcjr);
        assert_eq!(both[0].stats, solo.stats);
        assert_eq!(both[0].mean_rate_mbps, solo.mean_rate_mbps);
    }

    #[test]
    fn adaptation_beats_fixed_worst_choice() {
        // With a fading channel at 10 dB, always sending at 54 Mbps loses
        // most packets; SoftRate should deliver materially more.
        let cfg = Fig7Config {
            packets: 30,
            payload_bits: 256,
            ..Fig7Config::paper(30)
        };
        let adaptive = run(&mut service(), &cfg, DecoderKind::Bcjr);
        assert!(
            adaptive.delivery_rate > 0.4,
            "delivery {:.2}",
            adaptive.delivery_rate
        );
    }
}
