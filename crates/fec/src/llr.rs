//! Soft-value conventions shared by the demapper, decoders and estimator.

/// A soft bit value: `log P(bit = 1) / P(bit = 0)`, scaled and quantized.
///
/// Positive means `1` is more likely; the magnitude is confidence. The
/// demapper decides the scale (§4.1: hardware drops the `Es/N0` and
/// modulation factors, which is exactly why the SoftPHY estimator has to
/// reintroduce them — equation 5 of the paper).
pub type Llr = i32;

/// Number of bits in a SoftPHY hint; hints range over `0..=MAX_HINT`.
///
/// The paper's Figure 5 plots hints on a 0–60 axis, i.e. 6-bit quantized
/// confidence values.
pub const HINT_BITS: u32 = 6;

/// Largest SoftPHY hint value.
pub const MAX_HINT: u16 = (1 << HINT_BITS) - 1;

/// A full-confidence LLR for a known bit, at `magnitude`.
///
/// # Example
///
/// ```
/// use wilis_fec::hard_llr;
/// assert_eq!(hard_llr(1, 15), 15);
/// assert_eq!(hard_llr(0, 15), -15);
/// ```
///
/// # Panics
///
/// Panics if `bit` is not 0 or 1 or `magnitude` is negative.
pub fn hard_llr(bit: u8, magnitude: Llr) -> Llr {
    assert!(bit < 2, "binary bit expected");
    assert!(magnitude >= 0, "magnitude must be non-negative");
    if bit == 1 {
        magnitude
    } else {
        -magnitude
    }
}

/// The result of decoding one terminated block.
///
/// The buffers are reusable: passing the same `DecodeOutput` to
/// [`SoftDecoder::decode_terminated_into`] repeatedly retains their
/// capacity, so the steady-state decode path performs no heap allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodeOutput {
    /// Hard decisions for the information bits (tail excluded), values 0/1.
    pub bits: Vec<u8>,
    /// Per-bit signed soft outputs aligned with `bits`: sign matches the
    /// decision, magnitude is the decoder's confidence. All zeros for
    /// hard-output decoders.
    pub soft: Vec<Llr>,
}

impl DecodeOutput {
    /// The SoftPHY hint for bit `i`: the soft magnitude clamped to the
    /// 6-bit hint range (`0..=63`), which is what crosses the PHY/MAC
    /// interface in the paper's hardware.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn hint(&self, i: usize) -> u16 {
        (self.soft[i].unsigned_abs().min(u32::from(MAX_HINT))) as u16
    }

    /// Iterates `(bit, hint)` pairs.
    pub fn iter_hints(&self) -> impl Iterator<Item = (u8, u16)> + '_ {
        (0..self.bits.len()).map(|i| (self.bits[i], self.hint(i)))
    }
}

/// A soft-decision decoder for terminated convolutional blocks.
///
/// `llrs` must contain `n_out` soft values per trellis step, including the
/// tail steps, in transmission order; the block is assumed tail-terminated
/// in state zero (802.11a convention). Implementations return only the
/// information bits.
pub trait SoftDecoder {
    /// Decodes one terminated block into `out`, reusing its buffers.
    ///
    /// This is the hot-path entry point: together with the decoder's
    /// internal [`crate::TrellisScratch`], repeated calls on same-sized
    /// blocks perform no heap allocation after the first.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a multiple of the code's `n_out`, or
    /// the block is shorter than the tail.
    fn decode_terminated_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput);

    /// Decodes one terminated block into a freshly allocated output — the
    /// convenience form of [`SoftDecoder::decode_terminated_into`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`SoftDecoder::decode_terminated_into`].
    fn decode_terminated(&mut self, llrs: &[Llr]) -> DecodeOutput {
        let mut out = DecodeOutput::default();
        self.decode_terminated_into(llrs, &mut out);
        out
    }

    /// Decodes `lanes` equal-length terminated blocks presented lane-major
    /// (soft value `i` of lane `l` at `llrs[i * lanes + l]`), one
    /// [`DecodeOutput`] per lane.
    ///
    /// Per-lane results are bit-identical to `lanes` separate
    /// [`SoftDecoder::decode_terminated_into`] calls — batching is purely
    /// a throughput lever. The default implementation de-interlaces and
    /// decodes each lane through the solo path; the workspace decoders
    /// override it with the lockstep structure-of-arrays kernels of
    /// `wilis_fec::batch` for lane counts up to
    /// [`crate::batch::MAX_LANES`].
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero, `outs.len() != lanes`, `llrs.len()` is
    /// not a multiple of `lanes`, or any lane violates the conditions of
    /// [`SoftDecoder::decode_terminated_into`].
    fn decode_terminated_batch_into(
        &mut self,
        llrs: &[Llr],
        lanes: usize,
        outs: &mut [DecodeOutput],
    ) {
        assert!(lanes > 0, "at least one lane");
        assert_eq!(outs.len(), lanes, "one DecodeOutput per lane");
        assert!(
            llrs.len() % lanes == 0,
            "lane-major input length {} not a multiple of lane count {lanes}",
            llrs.len()
        );
        let mut lane_buf = Vec::with_capacity(llrs.len() / lanes);
        for (l, out) in outs.iter_mut().enumerate() {
            crate::batch::gather_lane(llrs, lanes, l, &mut lane_buf);
            self.decode_terminated_into(&lane_buf, out);
        }
    }

    /// A short identifier (`"viterbi"`, `"sova"`, `"bcjr"`), used by the
    /// plug-n-play registry and result labels.
    fn id(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_clamps_to_six_bits() {
        let out = DecodeOutput {
            bits: vec![1, 0, 1],
            soft: vec![1000, -3, 63],
        };
        assert_eq!(out.hint(0), 63);
        assert_eq!(out.hint(1), 3);
        assert_eq!(out.hint(2), 63);
    }

    #[test]
    fn iter_hints_pairs_bits_with_confidence() {
        let out = DecodeOutput {
            bits: vec![1, 0],
            soft: vec![10, -20],
        };
        let v: Vec<(u8, u16)> = out.iter_hints().collect();
        assert_eq!(v, vec![(1, 10), (0, 20)]);
    }

    #[test]
    #[should_panic(expected = "binary bit")]
    fn hard_llr_rejects_non_binary() {
        let _ = hard_llr(3, 1);
    }

    #[test]
    fn max_hint_is_63() {
        assert_eq!(MAX_HINT, 63);
    }
}
