//! Seed-addressed channel models — the uniform interface the scenario
//! engine sweeps over.
//!
//! The stateful channels ([`AwgnChannel`],
//! [`FadingAwgnChannel`](crate::FadingAwgnChannel), [`ReplayChannel`])
//! model a *continuing* realization: successive calls consume channel
//! time, which is right for protocol traces (Figure 7) but wrong for
//! embarrassingly parallel Monte-Carlo grids, where every packet must be
//! reproducible in isolation. [`ChannelModel`] is the grid-friendly
//! contract: one call distorts one packet buffer under a realization that
//! is a pure function of the `seed` argument, so results are bit-identical
//! no matter which worker, in which order, processes the packet.

use wilis_fxp::rng::mix_seed;
use wilis_fxp::Cplx;

use crate::{AwgnChannel, RayleighFading, ReplayChannel, SnrDb};

/// Baseband sample rate used by the fading models: 80 samples per 4 µs
/// OFDM symbol.
pub const MODEL_SAMPLE_RATE_HZ: f64 = 20e6;

/// A packet-granular, seed-addressed channel transformation.
///
/// Implementations should make the output a pure function of
/// `(model parameters, samples, seed)` — the determinism contract the
/// sweep runner's thread-count invariance rests on (the same contract
/// [`crate::parallel::apply_awgn_parallel`] proves at the sample level).
/// The one sanctioned exception is cursor-based traces ([`TraceModel`]):
/// their output is a deterministic function of the *call sequence*
/// instead, which preserves thread-count invariance as long as each
/// sweep scenario owns its model instance — but they must document their
/// sequencing rules precisely.
pub trait ChannelModel: Send {
    /// Distorts `samples` in place under the realization selected by
    /// `seed`.
    fn apply(&mut self, samples: &mut [Cplx], seed: u64);

    /// A short identifier (`"awgn"`, `"fading"`, `"replay"`), used by the
    /// plug-n-play registry and result labels.
    fn id(&self) -> &'static str;

    /// The configured mean SNR, when the model has one.
    fn snr(&self) -> Option<SnrDb> {
        None
    }

    /// The linear signal-power gain a packet sent under `seed` arrives
    /// with: `|h|²` at the packet start for fading models, `1.0` for AWGN.
    ///
    /// Cell-level capture resolution ([`crate::resolve_slot`]) compares
    /// these across simultaneous transmitters, so the contract is
    /// consistency with [`ChannelModel::apply`]: for the same seed,
    /// `packet_gain` must describe the same realization `apply` would
    /// draw, and probing it must not disturb any model state. Models
    /// without a seed-pure notion of gain (cursor-based traces) report
    /// `1.0`.
    fn packet_gain(&mut self, _seed: u64) -> f64 {
        1.0
    }
}

/// Genie equalization: divide the packet by the (known) fading gain at
/// its first sample — the receiver has no channel estimation (§4.4.4), so
/// every fading model applies this before handing samples on.
fn equalize(samples: &mut [Cplx], gain: Cplx) {
    let inv = Cplx::ONE / gain;
    for s in samples {
        *s *= inv;
    }
}

/// Pure AWGN at a fixed SNR — the Figure 5/6 channel.
#[derive(Debug, Clone)]
pub struct AwgnModel {
    snr: SnrDb,
}

impl AwgnModel {
    /// An AWGN model at `snr`.
    pub fn new(snr: SnrDb) -> Self {
        Self { snr }
    }
}

impl ChannelModel for AwgnModel {
    fn apply(&mut self, samples: &mut [Cplx], seed: u64) {
        let mut ch = AwgnChannel::new(self.snr, seed);
        ch.apply(samples);
    }

    fn id(&self) -> &'static str {
        "awgn"
    }

    fn snr(&self) -> Option<SnrDb> {
        Some(self.snr)
    }
}

/// Rayleigh fading plus AWGN with genie equalization — each seed draws an
/// independent fading realization, so a seed sweep Monte-Carlos over
/// channel states.
///
/// As everywhere in this reproduction, the receiver has no channel
/// estimation (§4.4.4), so the packet is genie-equalized by the gain at
/// its first sample; the residual impairment is the effective SNR
/// `|h|² × SNR` plus intra-packet gain drift.
///
/// The model remembers the realization it drew last: its path table,
/// re-seeded in place, and the per-sample gains computed so far. Every
/// apply of one seed — a transmission, then the SoftRate oracle replaying
/// it at other rates — reads that prefix and only computes gains past its
/// end. The output is the one a fresh
/// [`FadingAwgnChannel`](crate::FadingAwgnChannel) produces.
#[derive(Debug, Clone)]
pub struct FadingModel {
    snr: SnrDb,
    doppler_hz: f64,
    /// Built on first use, so an invalid Doppler panics where the channel
    /// runs, not where it is configured.
    realization: Option<Realization>,
}

/// One seed's fading realization: the Jakes path table and the prefix of
/// its gain stream at [`MODEL_SAMPLE_RATE_HZ`], from sample 0.
#[derive(Debug, Clone)]
struct Realization {
    seed: u64,
    fading: RayleighFading,
    gains: Vec<Cplx>,
}

impl FadingModel {
    /// A fading model at mean `snr` with the given Doppler (the paper's
    /// Figure 7 channel is 10 dB / 20 Hz).
    pub fn new(snr: SnrDb, doppler_hz: f64) -> Self {
        Self {
            snr,
            doppler_hz,
            realization: None,
        }
    }

    /// The first `len` gains of `seed`'s realization (at least one, the
    /// packet-start gain), extending the remembered prefix as needed.
    fn gains(&mut self, seed: u64, len: usize) -> &[Cplx] {
        let doppler_hz = self.doppler_hz;
        let r = self.realization.get_or_insert_with(|| Realization {
            seed,
            fading: RayleighFading::new(doppler_hz, seed),
            gains: Vec::new(),
        });
        if r.seed != seed {
            r.seed = seed;
            r.fading.reseed(seed);
            r.gains.clear();
        }
        let len = len.max(1);
        let known = r.gains.len();
        if known < len {
            r.gains.resize(len, Cplx::ZERO);
            r.fading
                .fill_gains(known as u64, MODEL_SAMPLE_RATE_HZ, &mut r.gains[known..]);
        }
        &r.gains[..len]
    }
}

impl ChannelModel for FadingModel {
    fn apply(&mut self, samples: &mut [Cplx], seed: u64) {
        // `FadingAwgnChannel`'s order: fade every sample, then add the
        // noise of the seed's AWGN stream, then equalize.
        let snr = self.snr;
        let gains = self.gains(seed, samples.len());
        for (s, &g) in samples.iter_mut().zip(gains) {
            *s *= g;
        }
        let gain = gains[0];
        AwgnChannel::new(snr, seed.wrapping_add(1)).apply(samples);
        equalize(samples, gain);
    }

    fn id(&self) -> &'static str {
        "fading"
    }

    fn snr(&self) -> Option<SnrDb> {
        Some(self.snr)
    }

    fn packet_gain(&mut self, seed: u64) -> f64 {
        // The gain `apply` equalizes by, so the post-equalization
        // effective SNR is `|h|² × SNR`.
        self.gains(seed, 1)[0].norm_sq()
    }
}

/// The replay channel sampled at a seed-derived instant — fading plus
/// time-indexed noise with genie equalization.
///
/// Each seed lands the packet at a different absolute position of the
/// replayed realization (within [`ReplayModel::WINDOW_SECS`] of channel
/// time), so a seed sweep samples the same long realization the SoftRate
/// oracle replays, instead of drawing fresh Jakes angles per packet.
#[derive(Debug, Clone)]
pub struct ReplayModel {
    snr: SnrDb,
    doppler_hz: f64,
    base_seed: u64,
    /// The one realization every packet samples, built on first use.
    channel: Option<ReplayChannel>,
}

impl ReplayModel {
    /// Channel time window the seed-derived packet positions span.
    pub const WINDOW_SECS: f64 = 10.0;

    /// A replay model at mean `snr` and the given Doppler; `base_seed`
    /// fixes the long realization being sampled.
    pub fn new(snr: SnrDb, doppler_hz: f64, base_seed: u64) -> Self {
        Self {
            snr,
            doppler_hz,
            base_seed,
            channel: None,
        }
    }

    /// The realization, positioned at `seed`'s packet start.
    fn seek(&mut self, seed: u64) -> &mut ReplayChannel {
        let (snr, doppler_hz, base_seed) = (self.snr, self.doppler_hz, self.base_seed);
        let ch = self.channel.get_or_insert_with(|| {
            ReplayChannel::fading(snr, doppler_hz, MODEL_SAMPLE_RATE_HZ, base_seed)
        });
        let span = (Self::WINDOW_SECS * MODEL_SAMPLE_RATE_HZ) as u64;
        ch.seek(mix_seed(base_seed, seed) % span);
        ch
    }
}

impl ChannelModel for ReplayModel {
    fn apply(&mut self, samples: &mut [Cplx], seed: u64) {
        let ch = self.seek(seed);
        let gain = ch.current_gain();
        ch.apply(samples);
        equalize(samples, gain);
    }

    fn id(&self) -> &'static str {
        "replay"
    }

    fn snr(&self) -> Option<SnrDb> {
        Some(self.snr)
    }

    fn packet_gain(&mut self, seed: u64) -> f64 {
        self.seek(seed).current_gain().norm_sq()
    }
}

/// A *time-coherent* fading trace for protocol experiments on the sweep
/// engine: successive packets of a scenario walk forward through one long
/// replayed realization (fading plus time-indexed noise, genie-equalized),
/// exactly like the Figure 7 protocol loop.
///
/// Unlike the seed-pure models above, `TraceModel` keeps a cursor: channel
/// time advances by the packet's airtime plus a configurable gap whenever
/// the seed *changes from the previous call*. **Consecutive** applies with
/// the same seed — the SoftRate oracle replaying other rates against the
/// identical channel, immediately after the protocol transmission —
/// revisit the same span of the realization, which is the paper's
/// "pseudo-random noise model" contract (§4.4.2). Re-presenting an older
/// seed after an intervening packet starts a *new* slot (the cursor only
/// remembers the last seed), so interleave packets' applies and the
/// replay guarantee is gone — the scenario engine never does. The output
/// is a deterministic function of the *sequence* of calls; each grid
/// point owns its model instance and observes its packets in order, so
/// the sweep runner's thread-count invariance still holds.
#[derive(Debug, Clone)]
pub struct TraceModel {
    channel: ReplayChannel,
    gap_samples: u64,
    position: u64,
    next_position: u64,
    last_seed: Option<u64>,
}

impl TraceModel {
    /// A trace at mean `snr` with the given Doppler, walking `base_seed`'s
    /// realization with `gap_secs` of idle channel time between packets
    /// (the Figure 7 configuration is 10 dB, 20 Hz, 0.5 ms).
    pub fn new(snr: SnrDb, doppler_hz: f64, base_seed: u64, gap_secs: f64) -> Self {
        Self {
            channel: ReplayChannel::fading(snr, doppler_hz, MODEL_SAMPLE_RATE_HZ, base_seed),
            gap_samples: (gap_secs * MODEL_SAMPLE_RATE_HZ) as u64,
            position: 0,
            next_position: 0,
            last_seed: None,
        }
    }

    /// The absolute sample index the next new packet starts at.
    pub fn next_packet_position(&self) -> u64 {
        self.next_position
    }
}

impl ChannelModel for TraceModel {
    fn apply(&mut self, samples: &mut [Cplx], seed: u64) {
        if self.last_seed != Some(seed) {
            // A new packet: advance to the next slot of the trace. The
            // first apply per packet (the protocol-path transmission)
            // defines the airtime; same-seed replays revisit this slot.
            self.position = self.next_position;
            self.next_position = self.position + samples.len() as u64 + self.gap_samples;
            self.last_seed = Some(seed);
        }
        self.channel.seek(self.position);
        let gain = self.channel.current_gain();
        self.channel.apply(samples);
        equalize(samples, gain);
    }

    fn id(&self) -> &'static str {
        "trace"
    }

    fn snr(&self) -> Option<SnrDb> {
        self.channel.snr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> Vec<Box<dyn ChannelModel>> {
        vec![
            Box::new(AwgnModel::new(SnrDb::new(10.0))),
            Box::new(FadingModel::new(SnrDb::new(10.0), 20.0)),
            Box::new(ReplayModel::new(SnrDb::new(10.0), 20.0, 7)),
        ]
    }

    #[test]
    fn same_seed_same_realization() {
        for mut m in models() {
            let mut a = vec![Cplx::ONE; 400];
            let mut b = vec![Cplx::ONE; 400];
            m.apply(&mut a, 42);
            m.apply(&mut b, 42);
            assert_eq!(a, b, "{} not seed-pure", m.id());
        }
    }

    #[test]
    fn different_seeds_differ() {
        for mut m in models() {
            let mut a = vec![Cplx::ONE; 400];
            let mut b = vec![Cplx::ONE; 400];
            m.apply(&mut a, 1);
            m.apply(&mut b, 2);
            assert_ne!(a, b, "{} ignores its seed", m.id());
        }
    }

    #[test]
    fn awgn_model_matches_awgn_channel() {
        let mut model = AwgnModel::new(SnrDb::new(8.0));
        let mut via_model = vec![Cplx::ONE; 256];
        model.apply(&mut via_model, 99);
        let mut via_channel = vec![Cplx::ONE; 256];
        AwgnChannel::new(SnrDb::new(8.0), 99).apply(&mut via_channel);
        assert_eq!(via_model, via_channel);
    }

    #[test]
    fn genie_equalization_keeps_mean_power_sane() {
        // Post-equalization, the signal term has unit gain at the packet
        // start; average power should stay within an order of magnitude of
        // the AWGN case even across deep fades (the equalizer amplifies
        // noise in a fade, but over many seeds the mean stays bounded).
        let mut m = FadingModel::new(SnrDb::new(10.0), 20.0);
        let mut total = 0.0;
        let n_seeds = 50;
        for seed in 0..n_seeds {
            let mut buf = vec![Cplx::ONE; 200];
            m.apply(&mut buf, seed);
            total += buf.iter().map(|s| s.norm_sq()).sum::<f64>() / buf.len() as f64;
        }
        let mean = total / n_seeds as f64;
        assert!(mean > 0.5 && mean < 20.0, "mean packet power {mean}");
    }

    #[test]
    fn packet_gain_is_seed_pure_and_consistent() {
        for mut m in models() {
            let a = m.packet_gain(42);
            let b = m.packet_gain(42);
            assert_eq!(a.to_bits(), b.to_bits(), "{} gain not seed-pure", m.id());
            assert!(a >= 0.0, "{} negative gain", m.id());
        }
        // AWGN has no fading: unit gain for every seed.
        let mut awgn = AwgnModel::new(SnrDb::new(10.0));
        assert_eq!(awgn.packet_gain(1), 1.0);
        assert_eq!(awgn.packet_gain(2), 1.0);
        // Fading gains vary with the seed (that is what makes capture
        // possible), and probing the gain must not disturb `apply`.
        let mut fading = FadingModel::new(SnrDb::new(10.0), 20.0);
        assert_ne!(
            fading.packet_gain(1).to_bits(),
            fading.packet_gain(2).to_bits()
        );
        let mut before = vec![Cplx::ONE; 128];
        fading.apply(&mut before, 5);
        let _ = fading.packet_gain(7);
        let mut after = vec![Cplx::ONE; 128];
        fading.apply(&mut after, 5);
        assert_eq!(before, after, "packet_gain probe disturbed the model");
    }

    /// The reference `FadingModel::apply` must equal bit for bit: a fresh
    /// composite channel per packet, then the genie equalizer.
    fn fresh_fading(samples: &mut [Cplx], seed: u64) {
        let mut ch =
            crate::FadingAwgnChannel::new(SnrDb::new(10.0), 20.0, MODEL_SAMPLE_RATE_HZ, seed);
        let gain = ch.current_gain();
        ch.apply(samples);
        equalize(samples, gain);
    }

    fn ramp(len: usize) -> Vec<Cplx> {
        (0..len)
            .map(|i| Cplx::new(1.0 - i as f64 * 1e-3, 0.5 + i as f64 * 2e-3))
            .collect()
    }

    #[test]
    fn fading_reuse_matches_a_fresh_channel() {
        // Short then long of one seed extends the remembered prefix; the
        // later short of that seed reads inside it; b and back to a redraw.
        let sequence = [
            (11, 80),
            (11, 720),
            (11, 240),
            (12, 400),
            (11, 160),
            (11, 0),
        ];
        let mut model = FadingModel::new(SnrDb::new(10.0), 20.0);
        for (seed, len) in sequence {
            let mut cached = ramp(len);
            model.apply(&mut cached, seed);
            let mut fresh = ramp(len);
            fresh_fading(&mut fresh, seed);
            let bits = |v: &[Cplx]| {
                v.iter()
                    .map(|s| (s.re.to_bits(), s.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&cached), bits(&fresh), "seed {seed}, {len} samples");
        }
    }

    #[test]
    fn fading_reseed_equals_new() {
        let mut fading = RayleighFading::new(20.0, 1);
        for seed in [2, 1, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            fading.reseed(seed);
            assert_eq!(fading, RayleighFading::new(20.0, seed));
        }
    }

    #[test]
    fn fading_gain_probes_match_and_leave_apply_alone() {
        let fresh_gain = |seed| {
            crate::FadingAwgnChannel::new(SnrDb::new(10.0), 20.0, MODEL_SAMPLE_RATE_HZ, seed)
                .current_gain()
                .norm_sq()
        };
        let mut probed = FadingModel::new(SnrDb::new(10.0), 20.0);
        let mut plain = FadingModel::new(SnrDb::new(10.0), 20.0);
        for (seed, probe) in [(21, 21), (21, 22), (22, 21), (23, 23), (23, 24)] {
            assert_eq!(
                probed.packet_gain(seed).to_bits(),
                fresh_gain(seed).to_bits()
            );
            let mut a = ramp(320);
            probed.apply(&mut a, seed);
            assert_eq!(
                probed.packet_gain(probe).to_bits(),
                fresh_gain(probe).to_bits()
            );
            let mut b = ramp(480);
            probed.apply(&mut b, seed);
            let (mut want_a, mut want_b) = (ramp(320), ramp(480));
            plain.apply(&mut want_a, seed);
            plain.apply(&mut want_b, seed);
            assert_eq!(
                (a, b),
                (want_a, want_b),
                "probe of {probe} moved seed {seed}"
            );
        }
    }

    #[test]
    fn replay_model_matches_a_fresh_channel_per_packet() {
        let fresh = |samples: &mut [Cplx], seed: u64| {
            let mut ch = ReplayChannel::fading(SnrDb::new(10.0), 20.0, MODEL_SAMPLE_RATE_HZ, 7);
            let span = (ReplayModel::WINDOW_SECS * MODEL_SAMPLE_RATE_HZ) as u64;
            ch.seek(mix_seed(7, seed) % span);
            let gain = ch.current_gain();
            ch.apply(samples);
            equalize(samples, gain);
            gain.norm_sq()
        };
        let mut model = ReplayModel::new(SnrDb::new(10.0), 20.0, 7);
        for (seed, len) in [(1, 80), (1, 400), (2, 160), (1, 80)] {
            let mut got = ramp(len);
            model.apply(&mut got, seed);
            let mut want = ramp(len);
            let gain = fresh(&mut want, seed);
            assert_eq!(got, want, "seed {seed}, {len} samples");
            assert_eq!(model.packet_gain(seed).to_bits(), gain.to_bits());
        }
    }

    #[test]
    fn ids_are_distinct() {
        let ids: Vec<&str> = models().iter().map(|m| m.id()).collect();
        assert_eq!(ids, vec!["awgn", "fading", "replay"]);
    }

    #[test]
    fn trace_replays_same_seed_and_advances_on_new_seed() {
        let mut m = TraceModel::new(SnrDb::new(10.0), 20.0, 7, 0.5e-3);
        let mut a = vec![Cplx::ONE; 160];
        let mut b = vec![Cplx::ONE; 160];
        m.apply(&mut a, 1);
        m.apply(&mut b, 1); // oracle-style replay: identical channel span
        assert_eq!(a, b, "same seed must revisit the same trace slot");
        let mut c = vec![Cplx::ONE; 160];
        m.apply(&mut c, 2); // next packet: channel time moved on
        assert_ne!(a, c, "a new seed must advance the trace");
    }

    #[test]
    fn trace_oracle_replay_is_length_agnostic() {
        // A slower-rate oracle attempt (more samples) must share its prefix
        // with the protocol packet: same slot, same realization.
        let mut m = TraceModel::new(SnrDb::new(10.0), 20.0, 9, 0.5e-3);
        let mut short = vec![Cplx::ONE; 80];
        let mut long = vec![Cplx::ONE; 240];
        m.apply(&mut short, 5);
        m.apply(&mut long, 5);
        assert_eq!(&long[..80], &short[..]);
    }

    #[test]
    fn trace_cursor_counts_airtime_plus_gap() {
        let gap_secs = 0.5e-3;
        let mut m = TraceModel::new(SnrDb::new(10.0), 20.0, 3, gap_secs);
        let mut buf = vec![Cplx::ONE; 160];
        m.apply(&mut buf, 1);
        let gap = (gap_secs * MODEL_SAMPLE_RATE_HZ) as u64;
        assert_eq!(m.next_packet_position(), 160 + gap);
        // Oracle replays do not consume channel time.
        let mut replay = vec![Cplx::ONE; 400];
        m.apply(&mut replay, 1);
        assert_eq!(m.next_packet_position(), 160 + gap);
    }
}
