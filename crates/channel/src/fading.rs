//! Flat Rayleigh fading (Jakes sum-of-sinusoids) and the composite
//! fading + AWGN channel of the paper's Figure 7.

use std::f64::consts::PI;

use wilis_fxp::Cplx;

use crate::gaussian::GaussianSource;
use crate::{AwgnChannel, Channel, SnrDb};

/// Number of sinusoids in the Jakes model. Eight is the textbook minimum
/// for Rayleigh-like first- and second-order statistics; we use more for a
/// smoother Doppler spectrum.
const JAKES_PATHS: usize = 16;

/// A flat (frequency-nonselective) Rayleigh fading process.
///
/// The complex channel gain is a sum of `JAKES_PATHS` Doppler-shifted
/// phasors with random angles of arrival and phases; its envelope is
/// Rayleigh distributed with unit mean-square, and its autocorrelation
/// follows the classic Clarke/Jakes `J0(2 pi fd tau)` shape. The paper's
/// Figure 7 uses a 20 Hz Doppler — slow fading relative to a packet but
/// fast relative to a rate-adaptation window.
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

    /// The complex channel gain at absolute time `t` seconds.
    ///
    /// Gains are a pure function of time (given the seed), which is what
    /// lets [`crate::ReplayChannel`] expose identical fading to packets
    /// sent at different bit rates.
    pub fn gain_at(&self, t: f64) -> Cplx {
        let w = 2.0 * PI * self.doppler_hz;
        let scale = (1.0 / self.paths.len() as f64).sqrt();
        self.paths
            .iter()
            .map(|&(cos_aoa, phase)| Cplx::from_polar(1.0, w * t * cos_aoa + phase))
            .sum::<Cplx>()
            .scale(scale)
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
/// Samples are multiplied by the fading gain at their absolute time, then
/// perturbed by AWGN at the configured SNR. The receiver model is assumed
/// to have perfect automatic gain control per OFDM symbol (the paper's
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
            .gain_at(self.consumed as f64 / self.sample_rate_hz)
    }

    /// Absolute channel time of the next sample, in seconds.
    pub fn now_secs(&self) -> f64 {
        self.consumed as f64 / self.sample_rate_hz
    }

    /// Skips channel time forward without transmitting (inter-packet gap).
    pub fn advance(&mut self, samples: u64) {
        self.consumed += samples;
    }
}

impl Channel for FadingAwgnChannel {
    fn apply(&mut self, samples: &mut [Cplx]) {
        for s in samples.iter_mut() {
            let t = self.consumed as f64 / self.sample_rate_hz;
            *s *= self.fading.gain_at(t);
            self.consumed += 1;
        }
        self.awgn.apply(samples);
    }

    fn reset(&mut self, seed: u64) {
        self.fading.reseed(seed);
        self.awgn.reset(seed.wrapping_add(1));
        self.consumed = 0;
    }

    fn snr(&self) -> Option<SnrDb> {
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
}
