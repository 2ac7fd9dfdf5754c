//! Hard-output Viterbi — the baseline decoder "typically used in commodity
//! 802.11a/g baseband pipelines" (§4.4.3).

use std::sync::Arc;

use crate::compiled::CompiledTrellis;
use crate::llr::{DecodeOutput, Llr, SoftDecoder};
use crate::shell::{DecoderShell, VITERBI};
use crate::ConvCode;

/// A block Viterbi decoder for tail-terminated frames.
///
/// The decoders' shared shell picks the datapath: the lane kernels of
/// [`crate::batch`] (one lane for a solo decode), branchless butterfly ACS
/// steps over `i16` metrics with lane-mask survivors, or the `i64`
/// reference kernels for soft inputs beyond the narrow gate
/// ([`CompiledTrellis::narrow_llr_limit`]). Produces hard decisions only;
/// the `soft` outputs are all zero (this is precisely what SoftPHY adds on
/// top).
///
/// # Example
///
/// ```
/// use wilis_fec::{ConvCode, ConvEncoder, SoftDecoder, ViterbiDecoder, hard_llr};
///
/// let code = ConvCode::ieee80211();
/// let data = [0u8, 1, 1, 0, 1];
/// let coded = ConvEncoder::new(&code).encode_terminated(&data);
/// let llrs: Vec<i32> = coded.iter().map(|&b| hard_llr(b, 7)).collect();
/// let out = ViterbiDecoder::new(&code).decode_terminated(&llrs);
/// assert_eq!(out.bits, data);
/// ```
#[derive(Debug, Clone)]
pub struct ViterbiDecoder {
    shell: DecoderShell<VITERBI>,
}

impl ViterbiDecoder {
    /// A decoder for `code`.
    pub fn new(code: &ConvCode) -> Self {
        Self::with_shared_trellis(Arc::new(CompiledTrellis::new(code)))
    }

    /// A decoder sharing an already-compiled trellis — the construction
    /// the scenario engine's receive chains and oracle use so one table
    /// build serves every decoder of a code.
    pub fn with_shared_trellis(trellis: Arc<CompiledTrellis>) -> Self {
        Self {
            shell: DecoderShell::new(trellis, 0),
        }
    }

    /// Decodes through the frozen `i64` reference kernels — the fallback
    /// beyond the narrow gate, kept callable for differential tests and as
    /// the baseline the `perf_ratios` bench times the lane kernels against.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`SoftDecoder::decode_terminated_into`].
    pub fn decode_terminated_reference_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.shell.decode_reference(llrs, out);
    }
}

impl SoftDecoder for ViterbiDecoder {
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
        "viterbi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hard_llr;
    use crate::ConvEncoder;

    fn roundtrip(code: &ConvCode, data: &[u8]) -> Vec<u8> {
        let coded = ConvEncoder::new(code).encode_terminated(data);
        let llrs: Vec<Llr> = coded.iter().map(|&b| hard_llr(b, 7)).collect();
        ViterbiDecoder::new(code).decode_terminated(&llrs).bits
    }

    #[test]
    fn clean_roundtrip_80211() {
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..200).map(|i| ((i * 7 + 3) % 5 % 2) as u8).collect();
        assert_eq!(roundtrip(&code, &data), data);
    }

    #[test]
    fn clean_roundtrip_k3() {
        let code = ConvCode::k3();
        let data = [1u8, 1, 0, 1, 0, 0, 1];
        assert_eq!(roundtrip(&code, &data), data);
    }

    #[test]
    fn corrects_isolated_errors() {
        // K=7 rate 1/2 has free distance 10: a few well-separated flipped
        // coded bits must be corrected.
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..100).map(|i| (i % 3 == 0) as u8).collect();
        let coded = ConvEncoder::new(&code).encode_terminated(&data);
        let mut llrs: Vec<Llr> = coded.iter().map(|&b| hard_llr(b, 7)).collect();
        for &pos in &[10, 50, 90, 130, 170] {
            llrs[pos] = -llrs[pos];
        }
        let out = ViterbiDecoder::new(&code).decode_terminated(&llrs);
        assert_eq!(out.bits, data);
    }

    #[test]
    fn survives_erasures() {
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
        let coded = ConvEncoder::new(&code).encode_terminated(&data);
        let mut llrs: Vec<Llr> = coded.iter().map(|&b| hard_llr(b, 7)).collect();
        // Erase every 4th soft value (as 3/4 puncturing would).
        for l in llrs.iter_mut().step_by(4) {
            *l = 0;
        }
        let out = ViterbiDecoder::new(&code).decode_terminated(&llrs);
        assert_eq!(out.bits, data);
    }

    #[test]
    fn soft_outputs_are_zero() {
        let code = ConvCode::k3();
        let coded = ConvEncoder::new(&code).encode_terminated(&[1, 0, 1]);
        let llrs: Vec<Llr> = coded.iter().map(|&b| hard_llr(b, 7)).collect();
        let out = ViterbiDecoder::new(&code).decode_terminated(&llrs);
        assert!(out.soft.iter().all(|&s| s == 0));
        assert_eq!(out.bits.len(), out.soft.len());
    }

    #[test]
    fn oversized_llrs_fall_back_to_the_reference_path() {
        // Inputs beyond the narrow gate decode through the i64 kernels
        // and still invert the encoder.
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..40).map(|i| (i % 3 == 1) as u8).collect();
        let coded = ConvEncoder::new(&code).encode_terminated(&data);
        let llrs: Vec<Llr> = coded.iter().map(|&b| hard_llr(b, i32::MAX / 2)).collect();
        let out = ViterbiDecoder::new(&code).decode_terminated(&llrs);
        assert_eq!(out.bits, data);
    }

    #[test]
    fn shared_trellis_decoder_matches_owned() {
        let code = ConvCode::ieee80211();
        let shared = Arc::new(CompiledTrellis::new(&code));
        let data: Vec<u8> = (0..60).map(|i| (i % 4 == 2) as u8).collect();
        let coded = ConvEncoder::new(&code).encode_terminated(&data);
        let llrs: Vec<Llr> = coded.iter().map(|&b| hard_llr(b, 7)).collect();
        let a = ViterbiDecoder::new(&code).decode_terminated(&llrs);
        let b = ViterbiDecoder::with_shared_trellis(shared).decode_terminated(&llrs);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_input_panics() {
        let code = ConvCode::ieee80211();
        let _ = ViterbiDecoder::new(&code).decode_terminated(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "shorter than the code tail")]
    fn too_short_block_panics() {
        let code = ConvCode::ieee80211();
        let _ = ViterbiDecoder::new(&code).decode_terminated(&[1, 1]);
    }
}
