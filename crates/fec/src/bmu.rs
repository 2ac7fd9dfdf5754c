//! Branch metric unit — identical in Viterbi, SOVA and BCJR (§4.3).
//!
//! "At each time step, the BMU produces a branch metric for each possible
//! transition by calculating the distance between the observed received
//! output and the expected output of that transition." With LLR inputs the
//! natural (max-log) metric is a *correlation*: expected bit 1 contributes
//! `+llr`, expected bit 0 contributes `-llr`. Larger is better; erased
//! (depunctured) positions carry `llr = 0` and are metric-neutral.

use crate::llr::Llr;

/// Computes the branch metrics for one trellis step.
///
/// `step_llrs` holds the `n_out` soft inputs of this step; the result is
/// indexed by the transition's output bitmask (so `metrics[0b10]` is the
/// metric of a branch expected to emit bit1=1, bit0=0). `n_out` of up to 8
/// output bits is supported, matching [`crate::Trellis`]'s `u8` masks.
///
/// # Panics
///
/// Panics if `step_llrs` is empty or longer than 8.
///
/// # Example
///
/// ```
/// use wilis_fec::bmu::branch_metrics;
///
/// // Strong 1 on the first coded bit, weak 0 on the second.
/// let m = branch_metrics(&[9, -2]);
/// assert_eq!(m[0b00], -9 + 2);
/// assert_eq!(m[0b01], 9 + 2);   // expects bit0=1, bit1=0
/// assert_eq!(m[0b10], -9 - 2);
/// assert_eq!(m[0b11], 9 - 2);
/// ```
/// This form allocates a fresh table per call and is kept for tests and
/// one-shot inspection only; per-step metric computation on decode hot
/// paths goes through the reusable [`Bmu`] state, or the lane kernels'
/// own branch unit (or [`branch_metrics_into`] when a caller owns the
/// buffer).
pub fn branch_metrics(step_llrs: &[Llr]) -> Vec<i64> {
    let mut metrics = Vec::new();
    branch_metrics_into(step_llrs, &mut metrics);
    metrics
}

/// Computes one step's branch metrics into `out` (resized to `2^n_out`),
/// the allocation-free form of [`branch_metrics`].
///
/// # Panics
///
/// Panics if `step_llrs` is empty or longer than 8.
pub fn branch_metrics_into(step_llrs: &[Llr], out: &mut Vec<i64>) {
    assert!(
        !step_llrs.is_empty() && step_llrs.len() <= 8,
        "1..=8 coded bits per step supported"
    );
    let patterns = 1usize << step_llrs.len();
    out.clear();
    out.resize(patterns, 0);
    for (pattern, slot) in out.iter_mut().enumerate() {
        let mut m = 0i64;
        for (j, &llr) in step_llrs.iter().enumerate() {
            if (pattern >> j) & 1 == 1 {
                m += i64::from(llr);
            } else {
                m -= i64::from(llr);
            }
        }
        *slot = m;
    }
}

/// A reusable BMU that avoids reallocating the metric table per step — the
/// form the hot decode loops use.
#[derive(Debug, Clone)]
pub struct Bmu {
    n_out: usize,
    metrics: Vec<i64>,
}

impl Bmu {
    /// A BMU for `n_out` coded bits per step.
    ///
    /// # Panics
    ///
    /// Panics if `n_out` is 0 or greater than 8.
    pub fn new(n_out: usize) -> Self {
        assert!((1..=8).contains(&n_out), "1..=8 coded bits per step");
        Self {
            n_out,
            metrics: vec![0; 1 << n_out],
        }
    }

    /// Computes this step's metrics in place and returns them.
    ///
    /// # Panics
    ///
    /// Panics if `step_llrs.len()` differs from the configured `n_out`.
    pub fn compute(&mut self, step_llrs: &[Llr]) -> &[i64] {
        assert_eq!(step_llrs.len(), self.n_out, "wrong number of soft inputs");
        // Gray-order enumeration would save adds in hardware; here clarity
        // wins and the compiler vectorizes the small fixed loop anyway.
        for (pattern, slot) in self.metrics.iter_mut().enumerate() {
            let mut m = 0i64;
            for (j, &llr) in step_llrs.iter().enumerate() {
                if (pattern >> j) & 1 == 1 {
                    m += i64::from(llr);
                } else {
                    m -= i64::from(llr);
                }
            }
            *slot = m;
        }
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_erasure_does_not_discriminate() {
        let m = branch_metrics(&[0, 5]);
        // bit0 erased: patterns differing only in bit0 have equal metrics.
        assert_eq!(m[0b00], m[0b01]);
        assert_eq!(m[0b10], m[0b11]);
        assert!(m[0b10] > m[0b00]);
    }

    #[test]
    fn best_pattern_matches_signs() {
        let m = branch_metrics(&[7, -3]);
        let best = (0..4).max_by_key(|&p| m[p]).unwrap();
        assert_eq!(best, 0b01, "bit0 = 1 (llr +7), bit1 = 0 (llr -3)");
    }

    #[test]
    fn metric_is_antisymmetric_under_complement() {
        let m = branch_metrics(&[4, 9, -2]);
        for p in 0..8usize {
            assert_eq!(m[p], -m[p ^ 0b111]);
        }
    }

    #[test]
    fn into_form_reuses_the_buffer() {
        let mut buf = Vec::new();
        branch_metrics_into(&[3, -8], &mut buf);
        assert_eq!(buf, branch_metrics(&[3, -8]));
        let cap = buf.capacity();
        branch_metrics_into(&[1, 2], &mut buf);
        assert!(buf.capacity() >= cap, "buffer must be reused, not dropped");
    }

    #[test]
    fn reusable_bmu_matches_free_function() {
        let mut bmu = Bmu::new(2);
        assert_eq!(bmu.compute(&[3, -8]), branch_metrics(&[3, -8]).as_slice());
    }

    #[test]
    #[should_panic(expected = "wrong number")]
    fn bmu_checks_arity() {
        let mut bmu = Bmu::new(2);
        let _ = bmu.compute(&[1, 2, 3]);
    }
}
