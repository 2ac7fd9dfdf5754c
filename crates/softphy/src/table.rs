//! The hint→BER lookup table (second level of the paper's two-level
//! lookup) and the log-linear fit used to build it from measurements.

use wilis_fec::MAX_HINT;

use crate::scaling::ScalingFactors;

/// Floor applied to table entries: the paper needs predictions "accurate up
/// to the order of 10⁻⁷" (§4.2), so the table bottoms out below that.
pub const BER_FLOOR: f64 = 1e-9;
/// Ceiling: a hint of zero means a coin-flip bit.
pub const BER_CEIL: f64 = 0.5;

/// A `hint → BER` lookup table for one (modulation, decoder) pair.
///
/// # Example
///
/// ```
/// use wilis_softphy::{BerTable, ScalingFactors};
/// use wilis_phy::Modulation;
///
/// let t = BerTable::from_scaling(&ScalingFactors::with_constant_snr(Modulation::Qpsk, 0.5));
/// assert_eq!(t.lookup(0), 0.5);
/// assert!(t.lookup(30) < t.lookup(10));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BerTable {
    /// Inline, so building a table (a rate change rebuilds the SoftPHY
    /// estimator) never allocates.
    entries: [f64; MAX_HINT as usize + 1],
}

impl BerTable {
    /// Builds the table analytically from equation 4 + 5:
    /// `BER(h) = 1 / (1 + exp(scale × h))`.
    pub fn from_scaling(factors: &ScalingFactors) -> Self {
        let entries = std::array::from_fn(|h| {
            let llr = factors.true_llr(h as u16);
            (1.0 / (1.0 + llr.exp())).clamp(BER_FLOOR, BER_CEIL)
        });
        Self { entries }
    }

    /// Builds the table from a measured log-linear fit (the Figure 5
    /// procedure: simulate, bin by hint, fit, tabulate).
    pub fn from_fit(fit: &LogLinearFit) -> Self {
        let entries = std::array::from_fn(|h| fit.ber_at(h as u16).clamp(BER_FLOOR, BER_CEIL));
        Self { entries }
    }

    /// The BER estimate for a hint.
    ///
    /// # Panics
    ///
    /// Panics if `hint` exceeds [`MAX_HINT`] — hints are 6-bit by
    /// construction ([`wilis_fec::DecodeOutput::hint`] clamps).
    pub fn lookup(&self, hint: u16) -> f64 {
        self.entries[usize::from(hint)]
    }

    /// All 64 entries, index = hint.
    pub fn entries(&self) -> &[f64] {
        &self.entries
    }
}

/// A least-squares fit of `log10(BER) = intercept + slope × hint`.
///
/// The paper's Figure 5 shows exactly this relationship ("Both BCJR and
/// SOVA are able to produce LLRs showing the log-linear relationship with
/// BERs as suggested by equation 4"), with slope varying by SNR, modulation
/// and decoder — which is what validates the three scaling factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogLinearFit {
    /// `log10(BER)` at hint 0.
    pub intercept: f64,
    /// Change in `log10(BER)` per hint step (negative: more confidence,
    /// fewer errors).
    pub slope: f64,
}

impl LogLinearFit {
    /// Weighted least squares over `(hint, observed_ber, weight)` samples.
    ///
    /// Returns `None` with fewer than two usable samples or zero total
    /// weight. Samples with `observed_ber <= 0` are skipped (empty bins).
    pub fn fit(samples: &[(u16, f64, f64)]) -> Option<Self> {
        let usable: Vec<(f64, f64, f64)> = samples
            .iter()
            .filter(|&&(_, ber, w)| ber > 0.0 && w > 0.0)
            .map(|&(h, ber, w)| (f64::from(h), ber.log10(), w))
            .collect();
        if usable.len() < 2 {
            return None;
        }
        let sw: f64 = usable.iter().map(|&(_, _, w)| w).sum();
        let mx = usable.iter().map(|&(x, _, w)| w * x).sum::<f64>() / sw;
        let my = usable.iter().map(|&(_, y, w)| w * y).sum::<f64>() / sw;
        let sxx: f64 = usable
            .iter()
            .map(|&(x, _, w)| w * (x - mx) * (x - mx))
            .sum();
        if sxx == 0.0 {
            return None;
        }
        let sxy: f64 = usable
            .iter()
            .map(|&(x, y, w)| w * (x - mx) * (y - my))
            .sum();
        let slope = sxy / sxx;
        Some(Self {
            intercept: my - slope * mx,
            slope,
        })
    }

    /// The fitted BER at a hint value.
    pub fn ber_at(&self, hint: u16) -> f64 {
        10f64.powf(self.intercept + self.slope * f64::from(hint))
    }

    /// The implied `S_dec × S_mod × Es/N0` product: from equations 4 and 5,
    /// for `LLR_true >> 1`, `log10 BER ≈ −LLR_true × log10(e)`, so the
    /// combined scale is `−slope / log10(e)` per hint step.
    pub fn implied_combined_scale(&self) -> f64 {
        -self.slope / std::f64::consts::LOG10_E
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wilis_phy::Modulation;

    #[test]
    fn analytic_table_is_monotone_decreasing() {
        let t = BerTable::from_scaling(&ScalingFactors::with_constant_snr(Modulation::Qam16, 0.5));
        for w in t.entries().windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(t.lookup(0), BER_CEIL);
    }

    #[test]
    fn table_reaches_below_1e7() {
        // §4.2: predictions must be usable down to ~1e-7 (QAM-16 with the
        // calibrated BCJR scale, the Figure 5/6 configuration).
        let t = BerTable::from_scaling(&ScalingFactors::with_constant_snr(Modulation::Qam16, 0.49));
        assert!(t.lookup(63) < 1e-7, "floor entry {}", t.lookup(63));
    }

    #[test]
    fn fit_recovers_known_line() {
        // Synthesize samples from log10(ber) = -0.5 - 0.1 h.
        let samples: Vec<(u16, f64, f64)> = (0..40)
            .map(|h| (h as u16, 10f64.powf(-0.5 - 0.1 * h as f64), 1.0))
            .collect();
        let fit = LogLinearFit::fit(&samples).unwrap();
        assert!((fit.intercept + 0.5).abs() < 1e-9);
        assert!((fit.slope + 0.1).abs() < 1e-9);
        assert!((fit.ber_at(10) - 10f64.powf(-1.5)).abs() < 1e-10);
    }

    #[test]
    fn fit_ignores_empty_bins() {
        let samples = vec![
            (0u16, 0.1, 100.0),
            (10, 0.0, 0.0), // empty bin
            (20, 0.001, 100.0),
        ];
        let fit = LogLinearFit::fit(&samples).unwrap();
        assert!((fit.slope + 0.1).abs() < 1e-9);
    }

    #[test]
    fn fit_requires_two_points() {
        assert!(LogLinearFit::fit(&[(5, 0.1, 1.0)]).is_none());
        assert!(LogLinearFit::fit(&[]).is_none());
        // Two samples at the same hint: no slope.
        assert!(LogLinearFit::fit(&[(5, 0.1, 1.0), (5, 0.2, 1.0)]).is_none());
    }

    #[test]
    fn table_from_fit_clamps() {
        let fit = LogLinearFit {
            intercept: 0.5, // > 0.5 BER at hint 0 — must clamp to ceiling
            slope: -0.5,
        };
        let t = BerTable::from_fit(&fit);
        assert_eq!(t.lookup(0), BER_CEIL);
        assert_eq!(t.lookup(63), BER_FLOOR);
    }

    #[test]
    fn implied_scale_positive_for_falling_curve() {
        let fit = LogLinearFit {
            intercept: -0.3,
            slope: -0.12,
        };
        assert!(fit.implied_combined_scale() > 0.0);
    }
}
