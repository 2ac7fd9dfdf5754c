//! Soft-Output Viterbi (SOVA) in the two-traceback-unit microarchitecture
//! of Figure 3.
//!
//! The hardware pipeline is `BMU → PMU → delay buffer → traceback unit 1 →
//! traceback unit 2`, where TU1 (window `l`) finds a reliable state for TU2
//! to start from, and TU2 (window `k`) performs *two simultaneous
//! tracebacks* — the best and the second-best path — updating a soft
//! decision whenever the two paths disagree on a bit and the path-metric
//! difference is smaller than the current soft value (§4.3.1).
//!
//! This model decodes block-exactly (the ML path is recovered from the
//! terminated trellis, which is what TU1's window converges to) and applies
//! the Hagenauer-rule reliability update with update window `k`: at every
//! step of the ML path, the *competing* path into that state is traced for
//! up to `k` steps, and every bit where it disagrees with the ML decision
//! has its reliability lowered to the ACS margin if smaller. This is the
//! functional content of TU2's dual traceback.
//!
//! The forward pass runs on the kernels of [`crate::batch`]: branchless
//! `i16` butterflies, lane-mask survivors and `i16` margins, SIMD across
//! lanes in a batch and across states in a solo decode. Both are
//! bit-identical to the `i64` reference path, which decodes soft inputs
//! beyond the narrow gate; the decoders' shared shell picks between them.
//!
//! TU2 does not trace one competitor at a time, as the reference does.
//! Each reliability ends as the smallest margin of any competitor that
//! disagrees with the ML path there within the window. That is a `min`, so
//! the order of the updates is free. A competitor also agrees with the ML
//! path everywhere past the point where the two merge. Two bodies use this:
//!
//! * A solo decode with `k ≤ 64` uses *register exchange*. One pass over
//!   the stored survivors keeps each state's last 64 survivor input bits in
//!   a `u64`. At step `t` the competitor's disagreements are then the set
//!   bits of `R[loser] ^ R[ml_state]` below `min(k, t)`.
//! * A batch, or a window over 64, uses *lockstep traces*. At each step,
//!   every lane traces its competitor back, all lanes one step at a time
//!   together, until every lane's competitor has merged.
//!
//! Latency: `l + k + 12` cycles (1 BMU + 1 PMU + 5 two-entry FIFOs at 2
//! cycles each + the two windows); see [`SovaDecoder::latency_cycles`] and
//! the `latency` bench, which measures the same number on the
//! latency-insensitive engine.

use std::sync::Arc;

use crate::compiled::CompiledTrellis;
use crate::llr::{DecodeOutput, Llr, SoftDecoder};
use crate::shell::{DecoderShell, SOVA};
use crate::ConvCode;

/// A SOVA decoder with traceback windows `l` (TU1) and `k` (TU2).
///
/// The decoders' shared shell picks the datapath (lane kernels or
/// reference kernels, see [`crate::ViterbiDecoder`]); this type adds the
/// two windows and the pipeline latency.
///
/// # Example
///
/// ```
/// use wilis_fec::{ConvCode, ConvEncoder, SoftDecoder, SovaDecoder, hard_llr};
///
/// let code = ConvCode::ieee80211();
/// let data = [1u8, 1, 0, 1, 0, 0, 1, 0];
/// let coded = ConvEncoder::new(&code).encode_terminated(&data);
/// let llrs: Vec<i32> = coded.iter().map(|&b| hard_llr(b, 7)).collect();
/// let mut dec = SovaDecoder::new(&code, 64, 64);
/// let out = dec.decode_terminated(&llrs);
/// assert_eq!(out.bits, data);
/// assert_eq!(dec.latency_cycles(), 64 + 64 + 12);
/// ```
#[derive(Debug, Clone)]
pub struct SovaDecoder {
    /// The shell; its window is TU2's `k` (reliability update depth).
    shell: DecoderShell<SOVA>,
    /// TU1 window (hard-decision convergence).
    l: usize,
}

impl SovaDecoder {
    /// A SOVA decoder over `code` with TU1 window `l` and TU2 window `k`.
    /// The paper's configuration is `l = k = 64`.
    ///
    /// # Panics
    ///
    /// Panics if either window is zero.
    pub fn new(code: &ConvCode, l: usize, k: usize) -> Self {
        Self::with_shared_trellis(Arc::new(CompiledTrellis::new(code)), l, k)
    }

    /// A SOVA decoder sharing an already-compiled trellis (see
    /// [`CompiledTrellis`]), with TU1 window `l` and TU2 window `k`.
    ///
    /// # Panics
    ///
    /// Panics if either window is zero.
    pub fn with_shared_trellis(trellis: Arc<CompiledTrellis>, l: usize, k: usize) -> Self {
        assert!(l > 0 && k > 0, "traceback windows must be positive");
        Self {
            shell: DecoderShell::new(trellis, k),
            l,
        }
    }

    /// Pipeline latency in decoder-clock cycles: `l + k + 12` (§4.3.1 —
    /// one cycle each for BMU and PMU, plus five 2-entry FIFOs at up to 2
    /// cycles each).
    pub fn latency_cycles(&self) -> u64 {
        (self.l + self.shell.window + 12) as u64
    }

    /// Decodes through the frozen `i64` reference kernels (see
    /// [`ViterbiDecoder::decode_terminated_reference_into`][crate::ViterbiDecoder::decode_terminated_reference_into]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`SoftDecoder::decode_terminated_into`].
    pub fn decode_terminated_reference_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.shell.decode_reference(llrs, out);
    }
}

impl SoftDecoder for SovaDecoder {
    fn decode_terminated_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.shell.decode(llrs, 1, std::slice::from_mut(out));
    }

    fn decode_terminated_batch_into(
        &mut self,
        llrs: &[Llr],
        lanes: usize,
        outs: &mut [DecodeOutput],
    ) {
        self.shell.decode(llrs, lanes, outs);
    }

    fn id(&self) -> &'static str {
        "sova"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hard_llr;
    use crate::{ConvEncoder, ViterbiDecoder};

    fn encode(code: &ConvCode, data: &[u8], mag: Llr) -> Vec<Llr> {
        ConvEncoder::new(code)
            .encode_terminated(data)
            .iter()
            .map(|&b| hard_llr(b, mag))
            .collect()
    }

    #[test]
    fn clean_roundtrip() {
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..150).map(|i| ((i * 11) % 3 == 0) as u8).collect();
        let llrs = encode(&code, &data, 7);
        let out = SovaDecoder::new(&code, 64, 64).decode_terminated(&llrs);
        assert_eq!(out.bits, data);
    }

    #[test]
    fn hard_decisions_match_viterbi() {
        // SOVA's hard output is by construction the ML path - identical to
        // Viterbi's on any input, noisy or not.
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..80).map(|i| (i % 5 < 2) as u8).collect();
        let mut llrs = encode(&code, &data, 7);
        // Heavy corruption.
        for (i, l) in llrs.iter_mut().enumerate() {
            if i % 7 == 0 {
                *l = -*l;
            }
            if i % 11 == 0 {
                *l = 0;
            }
        }
        let sova = SovaDecoder::new(&code, 64, 64).decode_terminated(&llrs);
        let viterbi = ViterbiDecoder::new(&code).decode_terminated(&llrs);
        assert_eq!(sova.bits, viterbi.bits);
    }

    #[test]
    fn corrupted_bits_get_low_confidence() {
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..120).map(|i| (i % 2) as u8).collect();
        let mut llrs = encode(&code, &data, 7);
        // Concentrate damage around info bit 60: flip both coded bits of
        // steps 58..=62.
        for step in 58..=62 {
            llrs[step * 2] = -llrs[step * 2];
            llrs[step * 2 + 1] = -llrs[step * 2 + 1];
        }
        let out = SovaDecoder::new(&code, 64, 64).decode_terminated(&llrs);
        // Mean confidence near the damage must be well below the clean
        // region's (the decoded bits may or may not be in error, but SOVA
        // must flag reduced reliability either way).
        let near: f64 = (50..70)
            .map(|i| out.soft[i].unsigned_abs() as f64)
            .sum::<f64>()
            / 20.0;
        let far: f64 = (5..25)
            .map(|i| out.soft[i].unsigned_abs() as f64)
            .sum::<f64>()
            / 20.0;
        assert!(
            near < far / 2.0,
            "damaged region confidence {near} vs clean {far}"
        );
    }

    #[test]
    fn update_window_bounds_effect() {
        // With k=1 the reliability update barely propagates; soft values
        // should be (weakly) larger than with k=64 on the same noisy input.
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..100).map(|i| (i % 3 == 1) as u8).collect();
        let mut llrs = encode(&code, &data, 7);
        for i in (0..llrs.len()).step_by(9) {
            llrs[i] = -llrs[i];
        }
        let wide = SovaDecoder::new(&code, 64, 64).decode_terminated(&llrs);
        let narrow = SovaDecoder::new(&code, 64, 1).decode_terminated(&llrs);
        let sum_wide: i64 = wide
            .soft
            .iter()
            .map(|&s| i64::from(s.unsigned_abs() as i32))
            .sum();
        let sum_narrow: i64 = narrow
            .soft
            .iter()
            .map(|&s| i64::from(s.unsigned_abs() as i32))
            .sum();
        assert!(
            sum_narrow >= sum_wide,
            "narrow window {sum_narrow} must not reduce confidence below wide {sum_wide}"
        );
        assert_eq!(wide.bits, narrow.bits, "windows affect soft values only");
    }

    #[test]
    fn latency_formula() {
        let code = ConvCode::ieee80211();
        assert_eq!(SovaDecoder::new(&code, 64, 64).latency_cycles(), 140);
        assert_eq!(SovaDecoder::new(&code, 32, 16).latency_cycles(), 60);
    }

    #[test]
    fn confidence_scales_with_input_magnitude() {
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..60).map(|i| (i % 2) as u8).collect();
        let soft_sum = |mag: Llr| -> i64 {
            let llrs = encode(&code, &data, mag);
            SovaDecoder::new(&code, 64, 64)
                .decode_terminated(&llrs)
                .soft
                .iter()
                .map(|&s| i64::from(s.unsigned_abs() as i32))
                .sum()
        };
        assert!(soft_sum(14) > soft_sum(7), "LLR scale must carry through");
    }
}
