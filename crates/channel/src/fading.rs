//! Flat Rayleigh fading (Jakes sum-of-sinusoids) and the composite
//! fading + AWGN channel of the paper's Figure 7.
//!
//! Every fading channel reads its gains from one stream,
//! [`RayleighFading::fill_gains`]: each Jakes path is a phasor rotated by
//! one complex multiply per sample and re-anchored exactly every
//! `ANCHOR_INTERVAL` (64) samples. [`RayleighFading::gain_at`], which
//! evaluates every path's phase with trig, is the exact reference the
//! stream is tested against: anchor gains are bit-equal to it and every
//! other gain is within 1e-12 of it over the replay window.

use std::f64::consts::PI;

use wilis_fxp::Cplx;

use crate::gaussian::GaussianSource;
use crate::{AwgnChannel, SnrDb};

/// Number of sinusoids in the Jakes model. Eight is the textbook minimum
/// for Rayleigh-like first- and second-order statistics; we use more for a
/// smoother Doppler spectrum.
const JAKES_PATHS: usize = 16;

/// Samples between exact re-anchors of the gain stream: every absolute
/// sample index that is a multiple of this is an anchor. Rotation error
/// grows with the distance from the last anchor, so this bounds it.
const ANCHOR_INTERVAL: usize = 64;

/// A flat (frequency-nonselective) Rayleigh fading process.
///
/// The complex channel gain is a sum of `JAKES_PATHS` Doppler-shifted
/// phasors with random angles of arrival and phases; its envelope is
/// Rayleigh distributed with unit mean-square, and its autocorrelation
/// follows the classic Clarke/Jakes `J0(2 pi fd tau)` shape. The paper's
/// Figure 7 uses a 20 Hz Doppler — slow fading relative to a packet but
/// fast relative to a rate-adaptation window.
///
/// Channels sample the process at absolute sample indices through
/// [`RayleighFading::fill_gains`], which rotates each path phasor by one
/// complex multiply per sample and recomputes it exactly at every
/// multiple of a fixed 64-sample anchor interval. [`RayleighFading::gain_at`]
/// is the exact per-sample-trig reference: anchor gains equal it bit for
/// bit, and the rotation drifts from it by at most 1e-12 over
/// [`crate::ReplayModel::WINDOW_SECS`] of channel time at 20 MHz.
///
/// # Example
///
/// ```
/// use wilis_channel::RayleighFading;
///
/// let fading = RayleighFading::new(20.0, 42);
/// let g0 = fading.gain_at(0.0);
/// let g1 = fading.gain_at(0.001); // 1 ms later: nearly unchanged at 20 Hz
/// assert!((g0 - g1).norm() < 0.1);
/// let far = fading.gain_at(10.0); // many coherence times later
/// assert!((g0 - far).norm() > 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RayleighFading {
    doppler_hz: f64,
    /// Per-path (cos(angle of arrival), phase) pairs.
    paths: Vec<(f64, f64)>,
}

impl RayleighFading {
    /// A fading process with maximum Doppler shift `doppler_hz`, seeded
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `doppler_hz` is not strictly positive.
    pub fn new(doppler_hz: f64, seed: u64) -> Self {
        assert!(doppler_hz > 0.0, "Doppler must be positive");
        let mut fading = Self {
            doppler_hz,
            paths: vec![(0.0, 0.0); JAKES_PATHS],
        };
        fading.reseed(seed);
        fading
    }

    /// Redraws the path table in place for `seed`: afterwards `self`
    /// equals `RayleighFading::new(self.doppler_hz(), seed)`, without
    /// allocating.
    pub fn reseed(&mut self, seed: u64) {
        let mut g = GaussianSource::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let rng = g.rng_mut();
        for path in &mut self.paths {
            let aoa: f64 = rng.gen_range(0.0..2.0 * PI);
            let phase: f64 = rng.gen_range(0.0..2.0 * PI);
            *path = (aoa.cos(), phase);
        }
    }

    /// The configured maximum Doppler shift in hertz.
    pub fn doppler_hz(&self) -> f64 {
        self.doppler_hz
    }

    /// The complex channel gain at absolute time `t` seconds, evaluated
    /// with two trig calls per path: the exact reference for
    /// [`RayleighFading::fill_gains`].
    pub fn gain_at(&self, t: f64) -> Cplx {
        let w = 2.0 * PI * self.doppler_hz;
        let scale = (1.0 / self.paths.len() as f64).sqrt();
        self.paths
            .iter()
            .map(|&(cos_aoa, phase)| Cplx::from_polar(1.0, w * t * cos_aoa + phase))
            .sum::<Cplx>()
            .scale(scale)
    }

    /// Writes the gains of absolute samples `first_index..` at
    /// `sample_rate_hz` into `out`: the stream every fading channel reads.
    ///
    /// Gains are a pure function of the sample index (given the seed), so
    /// any split of an index range into calls yields the same bits; that
    /// is what lets [`crate::ReplayChannel`] expose identical fading to
    /// packets sent at different bit rates. At an anchor index (a
    /// multiple of 64) the gain is `gain_at(index / sample_rate_hz)` bit
    /// for bit; in between, each path phasor is the anchor's rotated by
    /// its per-sample phasor, within 1e-12 of `gain_at`.
    ///
    /// # Example
    ///
    /// ```
    /// use wilis_channel::RayleighFading;
    /// use wilis_fxp::Cplx;
    ///
    /// let fading = RayleighFading::new(20.0, 42);
    /// let mut gains = [Cplx::ZERO; 100];
    /// fading.fill_gains(0, 1e6, &mut gains);
    /// assert_eq!(gains[64], fading.gain_at(64.0 / 1e6)); // an anchor
    /// assert!((gains[99] - fading.gain_at(99.0 / 1e6)).norm() < 1e-12);
    /// ```
    // lint: no_alloc
    pub fn fill_gains(&self, first_index: u64, sample_rate_hz: f64, out: &mut [Cplx]) {
        self.stream_gains(first_index, sample_rate_hz, out.len(), |at, gains| {
            out[at..at + gains.len()].copy_from_slice(gains);
        });
    }

    /// Multiplies `samples` by the gains of absolute samples
    /// `first_index..` of [`RayleighFading::fill_gains`], in place.
    // lint: no_alloc
    pub(crate) fn fade(&self, first_index: u64, sample_rate_hz: f64, samples: &mut [Cplx]) {
        self.stream_gains(first_index, sample_rate_hz, samples.len(), |at, gains| {
            for (s, &g) in samples[at..].iter_mut().zip(gains) {
                *s *= g;
            }
        });
    }

    /// The gain of absolute sample `index` at `sample_rate_hz`: one sample
    /// of [`RayleighFading::fill_gains`].
    pub(crate) fn gain_at_index(&self, index: u64, sample_rate_hz: f64) -> Cplx {
        let mut gain = [Cplx::ZERO];
        self.fill_gains(index, sample_rate_hz, &mut gain);
        gain[0]
    }

    /// The gain stream of [`RayleighFading::fill_gains`] over `len`
    /// samples from `first_index`, handed to `sink(offset, gains)` one
    /// anchor span at a time from a stack buffer: `gains[k]` is the gain
    /// of sample `first_index + offset + k`.
    // lint: no_alloc
    fn stream_gains(
        &self,
        first_index: u64,
        sample_rate_hz: f64,
        len: usize,
        mut sink: impl FnMut(usize, &[Cplx]),
    ) {
        let w = 2.0 * PI * self.doppler_hz;
        let scale = (1.0 / self.paths.len() as f64).sqrt();
        // Per path: the phasor, and its rotation over one sample period.
        let (mut re, mut im) = ([0.0; JAKES_PATHS], [0.0; JAKES_PATHS]);
        let (mut step_re, mut step_im) = ([0.0; JAKES_PATHS], [0.0; JAKES_PATHS]);
        for (k, &(cos_aoa, _)) in self.paths.iter().enumerate() {
            let step = Cplx::from_polar(1.0, w * cos_aoa / sample_rate_hz);
            (step_re[k], step_im[k]) = (step.re, step.im);
        }
        let rotate = |re: &mut [f64; JAKES_PATHS], im: &mut [f64; JAKES_PATHS]| {
            for k in 0..JAKES_PATHS {
                let (r, i) = (re[k], im[k]);
                re[k] = r * step_re[k] - i * step_im[k];
                im[k] = r * step_im[k] + i * step_re[k];
            }
        };
        // `gain_at`'s summation order, so anchor gains match it exactly.
        let sum = |parts: &[f64; JAKES_PATHS]| parts.iter().fold(0.0, |a, &b| a + b);
        let mut span = [Cplx::ZERO; ANCHOR_INTERVAL];
        let mut done = 0;
        while done < len {
            let index = first_index + done as u64;
            let offset = (index % ANCHOR_INTERVAL as u64) as usize;
            // Exactly `gain_at`'s phasors at the anchor at or before `index`.
            let t = (index - offset as u64) as f64 / sample_rate_hz;
            for (k, &(cos_aoa, phase)) in self.paths.iter().enumerate() {
                let p = Cplx::from_polar(1.0, w * t * cos_aoa + phase);
                (re[k], im[k]) = (p.re, p.im);
            }
            for _ in 0..offset {
                rotate(&mut re, &mut im);
            }
            let n = (ANCHOR_INTERVAL - offset).min(len - done);
            for gain in &mut span[..n] {
                *gain = Cplx::new(sum(&re), sum(&im)).scale(scale);
                rotate(&mut re, &mut im);
            }
            sink(done, &span[..n]);
            done += n;
        }
    }

    /// Mean-square gain over `n` evenly spaced samples of a window — used
    /// by tests and the calibration harness to confirm unit average power.
    pub fn mean_square_gain(&self, window_secs: f64, n: usize) -> f64 {
        (0..n)
            .map(|i| self.gain_at(i as f64 * window_secs / n as f64).norm_sq())
            .sum::<f64>()
            / n as f64
    }
}

/// Rayleigh fading followed by AWGN: the paper's "20 Hz fading channel with
/// 10 dB AWGN" (Figure 7).
///
/// Samples are multiplied by the fading gain at their absolute sample
/// index (the [`RayleighFading::fill_gains`] stream), then perturbed by
/// AWGN at the configured SNR. The receiver model is assumed to have
/// perfect automatic gain control per OFDM symbol (the paper's
/// pipeline omits channel estimation; §4.4.4), so the *effective* SNR seen
/// by the demapper varies as `|h(t)|^2 * snr`.
#[derive(Debug, Clone)]
pub struct FadingAwgnChannel {
    fading: RayleighFading,
    awgn: AwgnChannel,
    sample_rate_hz: f64,
    /// Samples already consumed; defines the absolute time of the next one.
    consumed: u64,
}

impl FadingAwgnChannel {
    /// A composite channel at `snr` with the given Doppler, advancing
    /// `sample_rate_hz` samples per second of channel time.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate_hz` is not strictly positive.
    pub fn new(snr: SnrDb, doppler_hz: f64, sample_rate_hz: f64, seed: u64) -> Self {
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        Self {
            fading: RayleighFading::new(doppler_hz, seed),
            awgn: AwgnChannel::new(snr, seed.wrapping_add(1)),
            sample_rate_hz,
            consumed: 0,
        }
    }

    /// The fading gain that will apply to the next sample.
    pub fn current_gain(&self) -> Cplx {
        self.fading
            .gain_at_index(self.consumed, self.sample_rate_hz)
    }

    /// Absolute channel time of the next sample, in seconds.
    pub fn now_secs(&self) -> f64 {
        self.consumed as f64 / self.sample_rate_hz
    }

    /// Skips channel time forward without transmitting (inter-packet gap).
    pub fn advance(&mut self, samples: u64) {
        self.consumed += samples;
    }

    /// Fades `samples` and adds noise in place, advancing channel time by
    /// `samples.len()` sample periods.
    pub fn apply(&mut self, samples: &mut [Cplx]) {
        self.fading
            .fade(self.consumed, self.sample_rate_hz, samples);
        self.consumed += samples.len() as u64;
        self.awgn.apply(samples);
    }

    /// Restarts the fading and noise realizations with a new seed, at
    /// channel time 0.
    pub fn reset(&mut self, seed: u64) {
        self.fading.reseed(seed);
        self.awgn.reset(seed.wrapping_add(1));
        self.consumed = 0;
    }

    /// The configured mean SNR.
    pub fn snr(&self) -> Option<SnrDb> {
        self.awgn.snr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_unit_mean_square() {
        let fading = RayleighFading::new(20.0, 9);
        // Average over many coherence times.
        let ms = fading.mean_square_gain(1000.0, 50_000);
        assert!((ms - 1.0).abs() < 0.15, "mean-square gain {ms}");
    }

    #[test]
    fn coherence_time_scales_with_doppler() {
        // At 20 Hz Doppler the coherence time is ~1/(2*pi*20) ~ 8 ms; the
        // gain should decorrelate far more over 50 ms than over 0.5 ms.
        let fading = RayleighFading::new(20.0, 4);
        let mut near = 0.0;
        let mut far = 0.0;
        let n = 2000;
        for i in 0..n {
            let t = i as f64 * 0.037; // sample widely across realizations
            let g0 = fading.gain_at(t);
            near += (fading.gain_at(t + 0.0005) - g0).norm_sq();
            far += (fading.gain_at(t + 0.050) - g0).norm_sq();
        }
        assert!(
            far / near > 20.0,
            "decorrelation: near {near:.4}, far {far:.4}"
        );
    }

    #[test]
    fn gain_is_pure_function_of_time() {
        let fading = RayleighFading::new(20.0, 77);
        assert_eq!(fading.gain_at(1.25), fading.gain_at(1.25));
        let other = RayleighFading::new(20.0, 77);
        assert_eq!(fading.gain_at(0.5), other.gain_at(0.5));
    }

    #[test]
    fn composite_channel_advances_time() {
        let mut ch = FadingAwgnChannel::new(SnrDb::new(10.0), 20.0, 1e6, 13);
        assert_eq!(ch.now_secs(), 0.0);
        let mut buf = vec![Cplx::ONE; 1000];
        ch.apply(&mut buf);
        assert!((ch.now_secs() - 1e-3).abs() < 1e-12);
        ch.advance(9000);
        assert!((ch.now_secs() - 1e-2).abs() < 1e-12);
    }

    #[test]
    fn deep_fades_occur() {
        // Rayleigh envelopes dip below -10 dB (power < 0.1) about 10% of
        // the time; make sure the model actually fades.
        let fading = RayleighFading::new(20.0, 3);
        let n = 20_000;
        let deep = (0..n)
            .filter(|&i| fading.gain_at(i as f64 * 0.013).norm_sq() < 0.1)
            .count();
        let frac = deep as f64 / n as f64;
        assert!(frac > 0.03 && frac < 0.25, "deep-fade fraction {frac}");
    }

    #[test]
    fn reset_restarts_realization() {
        let mut ch = FadingAwgnChannel::new(SnrDb::new(10.0), 20.0, 1e6, 5);
        let mut a = vec![Cplx::ONE; 256];
        ch.apply(&mut a);
        ch.reset(5);
        let mut b = vec![Cplx::ONE; 256];
        ch.apply(&mut b);
        assert_eq!(a, b);
    }

    const FS: f64 = crate::MODEL_SAMPLE_RATE_HZ;
    /// The last seed-derived packet start of `ReplayModel` (2e8 at 20 MHz).
    const REPLAY_SPAN: u64 = (crate::ReplayModel::WINDOW_SECS * FS) as u64;
    const WINDOW: usize = 4096;

    fn bits(gains: &[Cplx]) -> Vec<(u64, u64)> {
        gains
            .iter()
            .map(|g| (g.re.to_bits(), g.im.to_bits()))
            .collect()
    }

    #[test]
    fn stream_anchors_equal_gain_at_bit_for_bit() {
        for seed in 0..24 {
            let fading = RayleighFading::new(20.0, seed);
            for start in [0, REPLAY_SPAN / 2 + 37, REPLAY_SPAN - 100, REPLAY_SPAN] {
                let mut gains = vec![Cplx::ZERO; 600];
                fading.fill_gains(start, FS, &mut gains);
                let mut anchors = 0;
                for (i, g) in gains.iter().enumerate() {
                    let index = start + i as u64;
                    if index % ANCHOR_INTERVAL as u64 == 0 {
                        let want = fading.gain_at(index as f64 / FS);
                        assert_eq!(bits(&[*g]), bits(&[want]), "seed {seed}, index {index}");
                        anchors += 1;
                    }
                }
                assert!(anchors >= 9, "seed {seed}: {anchors} anchors from {start}");
            }
        }
        // Every FadingModel packet starts at index 0, an anchor.
        let fading = RayleighFading::new(20.0, 3);
        assert_eq!(fading.gain_at_index(0, FS), fading.gain_at(0.0));
    }

    #[test]
    fn stream_stays_within_1e12_of_gain_at_over_the_replay_window() {
        let mut worst = 0.0f64;
        for seed in 0..20 {
            let fading = RayleighFading::new(20.0, seed);
            for start in [0, REPLAY_SPAN / 2 + 37, REPLAY_SPAN] {
                let mut gains = vec![Cplx::ZERO; WINDOW];
                fading.fill_gains(start, FS, &mut gains);
                for (i, g) in gains.iter().enumerate() {
                    let want = fading.gain_at((start + i as u64) as f64 / FS);
                    worst = worst.max((*g - want).norm());
                }
            }
        }
        assert!(worst <= 1e-12, "max |dh| {worst:e}");
    }

    #[test]
    fn any_split_of_a_range_gives_identical_bits() {
        let mut rng = wilis_fxp::rng::SmallRng::seed_from_u64(0xF1_6A15);
        for seed in 0..20 {
            let fading = RayleighFading::new(20.0, seed);
            let start = match seed % 3 {
                0 => rng.gen_i64(0, 1000) as u64,
                1 => REPLAY_SPAN / 2 + rng.gen_i64(0, 1000) as u64,
                _ => REPLAY_SPAN + rng.gen_i64(0, 1000) as u64,
            };
            let len = rng.gen_i64(1, 1200) as usize;
            let mut whole = vec![Cplx::ZERO; len];
            fading.fill_gains(start, FS, &mut whole);
            let mut pieces = vec![Cplx::ZERO; len];
            let mut at = 0;
            while at < len {
                let n = (rng.gen_i64(0, 200) as usize).min(len - at);
                fading.fill_gains(start + at as u64, FS, &mut pieces[at..at + n]);
                at += n;
            }
            assert_eq!(
                bits(&pieces),
                bits(&whole),
                "seed {seed}, {len} from {start}"
            );
            // One gain at a time, and the channels' in-place fade, agree too.
            let single: Vec<Cplx> = (0..len)
                .map(|i| fading.gain_at_index(start + i as u64, FS))
                .collect();
            assert_eq!(bits(&single), bits(&whole), "seed {seed}: single gains");
            let mut faded = vec![Cplx::ONE; len];
            fading.fade(start, FS, &mut faded);
            assert_eq!(bits(&faded), bits(&whole), "seed {seed}: fade");
        }
    }
}
