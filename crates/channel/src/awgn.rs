//! Additive white Gaussian noise.

use wilis_fxp::Cplx;

use crate::gaussian::GaussianSource;
use crate::SnrDb;

/// A flat AWGN channel with a configurable signal-to-noise ratio.
///
/// Complex Gaussian noise with per-dimension variance `N0/2` is added to
/// every sample, where `N0 = Es / snr` and the signal energy `Es` is taken
/// as 1.0 — the convention used by the paper's constellation normalization
/// (every modulation is scaled to unit average symbol energy, §4.1).
///
/// # Example
///
/// ```
/// use wilis_channel::{AwgnChannel, SnrDb};
/// use wilis_fxp::Cplx;
///
/// let mut ch = AwgnChannel::new(SnrDb::new(6.0), 1);
/// let mut s = [Cplx::ONE];
/// ch.apply(&mut s);
/// assert_ne!(s[0], Cplx::ONE);
/// assert_eq!(ch.snr(), Some(SnrDb::new(6.0)));
/// ```
#[derive(Debug, Clone)]
pub struct AwgnChannel {
    snr: SnrDb,
    /// Per-dimension noise standard deviation, `sqrt(N0/2)`.
    sigma: f64,
    noise: GaussianSource,
}

impl AwgnChannel {
    /// An AWGN channel at `snr`, with a deterministic noise stream seeded
    /// by `seed`.
    pub fn new(snr: SnrDb, seed: u64) -> Self {
        Self {
            snr,
            sigma: (snr.noise_power() / 2.0).sqrt(),
            noise: GaussianSource::new(seed),
        }
    }

    /// Changes the operating SNR without restarting the noise stream —
    /// the "mid-packet SNR step" failure-injection hook.
    pub fn set_snr(&mut self, snr: SnrDb) {
        self.snr = snr;
        self.sigma = (snr.noise_power() / 2.0).sqrt();
    }

    /// Adds noise to `samples` in place, continuing the noise stream.
    pub fn apply(&mut self, samples: &mut [Cplx]) {
        for s in samples {
            let (nr, ni) = self.noise.next_pair();
            s.re += nr * self.sigma;
            s.im += ni * self.sigma;
        }
    }

    /// Restarts the noise stream with a new seed.
    pub fn reset(&mut self, seed: u64) {
        self.noise = GaussianSource::new(seed);
    }

    /// The configured SNR.
    pub fn snr(&self) -> Option<SnrDb> {
        Some(self.snr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_power_matches_snr() {
        let snr = SnrDb::new(10.0);
        let mut ch = AwgnChannel::new(snr, 3);
        let n = 100_000;
        let mut samples = vec![Cplx::ONE; n];
        ch.apply(&mut samples);
        let measured: f64 = samples
            .iter()
            .map(|s| (*s - Cplx::ONE).norm_sq())
            .sum::<f64>()
            / n as f64;
        let expected = snr.noise_power();
        assert!(
            (measured / expected - 1.0).abs() < 0.03,
            "noise power {measured:.4} vs expected {expected:.4}"
        );
    }

    #[test]
    fn reset_reproduces_realization() {
        let mut ch = AwgnChannel::new(SnrDb::new(5.0), 11);
        let mut a = vec![Cplx::ZERO; 64];
        ch.apply(&mut a);
        ch.reset(11);
        let mut b = vec![Cplx::ZERO; 64];
        ch.apply(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn set_snr_scales_noise() {
        let mut quiet = AwgnChannel::new(SnrDb::new(40.0), 7);
        let mut buf = vec![Cplx::ZERO; 10_000];
        quiet.apply(&mut buf);
        let p_quiet: f64 = buf.iter().map(|s| s.norm_sq()).sum::<f64>() / buf.len() as f64;
        quiet.set_snr(SnrDb::new(0.0));
        let mut buf2 = vec![Cplx::ZERO; 10_000];
        quiet.apply(&mut buf2);
        let p_loud: f64 = buf2.iter().map(|s| s.norm_sq()).sum::<f64>() / buf2.len() as f64;
        assert!(p_loud / p_quiet > 1000.0, "{p_loud} vs {p_quiet}");
    }

    #[test]
    fn noise_is_zero_mean_complex() {
        let mut ch = AwgnChannel::new(SnrDb::new(0.0), 23);
        let mut buf = vec![Cplx::ZERO; 100_000];
        ch.apply(&mut buf);
        let mean: Cplx = buf
            .iter()
            .copied()
            .sum::<Cplx>()
            .scale(1.0 / buf.len() as f64);
        assert!(mean.norm() < 0.02, "mean {mean}");
    }
}
