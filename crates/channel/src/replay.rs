//! Time-indexed reproducible channel — the paper's "pseudo-random noise
//! model" (§4.4.2).
//!
//! To evaluate SoftRate fairly, the paper replays *the same noise and
//! fading across time* to packet transmissions at different bit rates: the
//! question "what was the highest rate that would have succeeded?" is only
//! meaningful when every candidate rate faces the identical channel.
//!
//! [`ReplayChannel`] achieves this by making channel randomness a pure
//! function of `(seed, absolute sample index)` instead of a stateful
//! stream: any trial that seeks to the same position observes the same
//! realization, regardless of how many samples other trials consumed.

use std::f64::consts::PI;

use wilis_fxp::Cplx;

use crate::{Channel, RayleighFading, SnrDb};

/// SplitMix64: a tiny, high-quality mixing function. Used to derive
/// per-sample noise from `(seed, index)` with no sequential state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in (0, 1], never exactly zero (safe for `ln`).
fn to_unit(bits: u64) -> f64 {
    ((bits >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// A standard complex-normal sample that is a pure function of
/// `(seed, index)`, via Box–Muller over hashed uniforms.
fn noise_at(seed: u64, index: u64) -> Cplx {
    let a = splitmix64(seed ^ index.wrapping_mul(0xd134_2543_de82_ef95));
    let b = splitmix64(a ^ 0x2545_f491_4f6c_dd1d);
    let u = to_unit(a);
    let v = to_unit(b);
    let r = (-2.0 * u.ln()).sqrt();
    Cplx::new(r * (2.0 * PI * v).cos(), r * (2.0 * PI * v).sin())
}

/// A reproducible, seekable channel: optional Rayleigh fading plus AWGN,
/// both indexed by absolute time.
///
/// # Example
///
/// ```
/// use wilis_channel::{Channel, ReplayChannel, SnrDb};
/// use wilis_fxp::Cplx;
///
/// let mut trial_a = ReplayChannel::awgn_only(SnrDb::new(10.0), 1e6, 7);
/// let mut trial_b = ReplayChannel::awgn_only(SnrDb::new(10.0), 1e6, 7);
///
/// // Trial A consumes 100 samples, then both trials observe index 100.
/// let mut skip = vec![Cplx::ZERO; 100];
/// trial_a.apply(&mut skip);
/// trial_b.seek(100);
///
/// let (mut xa, mut xb) = ([Cplx::ONE], [Cplx::ONE]);
/// trial_a.apply(&mut xa);
/// trial_b.apply(&mut xb);
/// assert_eq!(xa, xb, "same absolute position, same channel");
/// ```
#[derive(Debug, Clone)]
pub struct ReplayChannel {
    seed: u64,
    snr: SnrDb,
    sigma: f64,
    fading: Option<RayleighFading>,
    sample_rate_hz: f64,
    position: u64,
}

impl ReplayChannel {
    /// A reproducible AWGN-only channel.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate_hz` is not strictly positive.
    pub fn awgn_only(snr: SnrDb, sample_rate_hz: f64, seed: u64) -> Self {
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        Self {
            seed,
            snr,
            sigma: (snr.noise_power() / 2.0).sqrt(),
            fading: None,
            sample_rate_hz,
            position: 0,
        }
    }

    /// A reproducible fading + AWGN channel (the Figure 7 configuration is
    /// `doppler_hz = 20.0`, `snr = 10 dB`).
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate_hz` or `doppler_hz` is not strictly positive.
    pub fn fading(snr: SnrDb, doppler_hz: f64, sample_rate_hz: f64, seed: u64) -> Self {
        let mut ch = Self::awgn_only(snr, sample_rate_hz, seed);
        ch.fading = Some(RayleighFading::new(doppler_hz, seed));
        ch
    }

    /// Moves the channel to an absolute sample index.
    pub fn seek(&mut self, sample_index: u64) {
        self.position = sample_index;
    }

    /// The absolute index of the next sample.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Absolute channel time of the next sample, in seconds.
    pub fn now_secs(&self) -> f64 {
        self.position as f64 / self.sample_rate_hz
    }

    /// The fading gain at the current position (unity when fading is off).
    pub fn current_gain(&self) -> Cplx {
        match &self.fading {
            Some(f) => f.gain_at_index(self.position, self.sample_rate_hz),
            None => Cplx::ONE,
        }
    }
}

impl Channel for ReplayChannel {
    fn apply(&mut self, samples: &mut [Cplx]) {
        if let Some(f) = &self.fading {
            f.fade(self.position, self.sample_rate_hz, samples);
        }
        for s in samples.iter_mut() {
            *s += noise_at(self.seed, self.position).scale(self.sigma);
            self.position += 1;
        }
    }

    fn reset(&mut self, seed: u64) {
        self.seed = seed;
        if let Some(f) = &mut self.fading {
            f.reseed(seed);
        }
        self.position = 0;
    }

    fn snr(&self) -> Option<SnrDb> {
        Some(self.snr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_pure_function_of_seed_and_index() {
        assert_eq!(noise_at(1, 99), noise_at(1, 99));
        assert_ne!(noise_at(1, 99), noise_at(1, 100));
        assert_ne!(noise_at(1, 99), noise_at(2, 99));
    }

    #[test]
    fn hashed_noise_is_standard_complex_normal() {
        let n = 100_000u64;
        let mut power = 0.0;
        let mut mean = Cplx::ZERO;
        for i in 0..n {
            let z = noise_at(42, i);
            power += z.norm_sq();
            mean += z;
        }
        power /= n as f64;
        mean = mean.scale(1.0 / n as f64);
        assert!((power - 2.0).abs() < 0.05, "complex power {power} (2 dims)");
        assert!(mean.norm() < 0.02, "mean {mean}");
    }

    #[test]
    fn different_consumption_patterns_see_same_channel() {
        let make = || ReplayChannel::fading(SnrDb::new(10.0), 20.0, 1e6, 3);
        // Trial A: one large block. Trial B: many small blocks.
        let mut a = make();
        let mut buf_a = vec![Cplx::ONE; 300];
        a.apply(&mut buf_a);
        let mut b = make();
        let mut buf_b = Vec::new();
        for chunk in 0..30 {
            let mut block = vec![Cplx::ONE; 10];
            b.seek(chunk * 10);
            b.apply(&mut block);
            buf_b.extend(block);
        }
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn awgn_only_has_unit_gain() {
        let ch = ReplayChannel::awgn_only(SnrDb::new(10.0), 1e6, 8);
        assert_eq!(ch.current_gain(), Cplx::ONE);
    }

    #[test]
    fn measured_noise_power_matches_snr() {
        let mut ch = ReplayChannel::awgn_only(SnrDb::new(6.0), 1e6, 19);
        let n = 50_000;
        let mut buf = vec![Cplx::ZERO; n];
        ch.apply(&mut buf);
        let p: f64 = buf.iter().map(|s| s.norm_sq()).sum::<f64>() / n as f64;
        let expect = SnrDb::new(6.0).noise_power();
        assert!((p / expect - 1.0).abs() < 0.05, "{p} vs {expect}");
    }
}
