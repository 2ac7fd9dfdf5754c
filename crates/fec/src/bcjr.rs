//! Sliding-window BCJR (SW-BCJR) in the Figure 4 microarchitecture.
//!
//! Full BCJR needs the entire frame before the backward recursion can
//! start, which is "unacceptable, both in terms of the latency of
//! processing and in terms of storage requirements" (§4.3.2). The paper
//! therefore blocks the stream into windows of `n` steps: the backward
//! path metrics of block `p` are seeded by a *provisional* backward pass
//! over block `p+1` that itself starts from an "uncertain" (uniform)
//! metric. The hardware realizes this with three path-metric units (one
//! forward, one backward, one provisional backward) and a pair of reversal
//! buffers that re-orient each block for the backward walk.
//!
//! SoftPHY support costs one subtracter: the decision unit picks both the
//! most likely input-1 and input-0 transitions and subtracts their path
//! metrics (max-log LLR).
//!
//! Both recursions run on the `i16` lane kernels of [`crate::batch`] (one
//! lane for a solo decode) with per-step normalization — the reference
//! decoder's normalization points, so outputs stay bit-identical. Soft
//! inputs beyond the narrow gate decode on the reference kernels; the
//! decoders' shared shell picks between them.
//!
//! Latency: `2n + 7` cycles, dominated by the two reversal buffers; see
//! [`BcjrDecoder::latency_cycles`].

use std::sync::Arc;

use crate::compiled::CompiledTrellis;
use crate::llr::{DecodeOutput, Llr, SoftDecoder};
use crate::shell::{DecoderShell, BCJR};
use crate::ConvCode;

/// A sliding-window max-log BCJR decoder with block length `n`.
///
/// The decoders' shared shell picks the datapath (lane kernels or
/// reference kernels, see [`crate::ViterbiDecoder`]); this type adds the
/// block length and the pipeline latency.
///
/// # Example
///
/// ```
/// use wilis_fec::{BcjrDecoder, ConvCode, ConvEncoder, SoftDecoder, hard_llr};
///
/// let code = ConvCode::ieee80211();
/// let data = [1u8, 0, 0, 1, 1, 0, 1, 0];
/// let coded = ConvEncoder::new(&code).encode_terminated(&data);
/// let llrs: Vec<i32> = coded.iter().map(|&b| hard_llr(b, 7)).collect();
/// let mut dec = BcjrDecoder::new(&code, 64);
/// let out = dec.decode_terminated(&llrs);
/// assert_eq!(out.bits, data);
/// assert_eq!(dec.latency_cycles(), 2 * 64 + 7);
/// ```
#[derive(Debug, Clone)]
pub struct BcjrDecoder {
    /// The shell; its window is the sliding-window block length. The
    /// paper uses 64 and notes blocks smaller than 32 degrade accuracy.
    shell: DecoderShell<BCJR>,
}

impl BcjrDecoder {
    /// A decoder over `code` with sliding-window block length `block_len`
    /// (the paper's configuration is 64).
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero.
    pub fn new(code: &ConvCode, block_len: usize) -> Self {
        Self::with_shared_trellis(Arc::new(CompiledTrellis::new(code)), block_len)
    }

    /// A decoder sharing an already-compiled trellis (see
    /// [`CompiledTrellis`]), with sliding-window block length `block_len`.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero.
    pub fn with_shared_trellis(trellis: Arc<CompiledTrellis>, block_len: usize) -> Self {
        assert!(block_len > 0, "block length must be positive");
        Self {
            shell: DecoderShell::new(trellis, block_len),
        }
    }

    /// Pipeline latency in decoder-clock cycles: `2n + 7` (§4.3.2 — two
    /// reversal buffers of `n` plus pipeline and FIFO overhead).
    pub fn latency_cycles(&self) -> u64 {
        (2 * self.shell.window + 7) as u64
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

impl SoftDecoder for BcjrDecoder {
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
        "bcjr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hard_llr;
    use crate::{ConvEncoder, SovaDecoder, ViterbiDecoder};

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
        let data: Vec<u8> = (0..200).map(|i| ((i * 13) % 7 < 3) as u8).collect();
        let llrs = encode(&code, &data, 7);
        let out = BcjrDecoder::new(&code, 64).decode_terminated(&llrs);
        assert_eq!(out.bits, data);
        assert!(out.soft.iter().all(|&s| s != 0));
    }

    #[test]
    fn clean_roundtrip_small_blocks() {
        // Even a pathologically small window decodes a clean channel.
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..100).map(|i| (i % 4 == 1) as u8).collect();
        let llrs = encode(&code, &data, 7);
        for block in [8, 32, 64, 256] {
            let out = BcjrDecoder::new(&code, block).decode_terminated(&llrs);
            assert_eq!(out.bits, data, "block {block}");
        }
    }

    #[test]
    fn agrees_with_viterbi_under_noise() {
        // Max-log BCJR's MAP-per-bit decisions overwhelmingly agree with the
        // ML sequence; allow a small disagreement budget on damaged input.
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..300).map(|i| (i % 3 == 0) as u8).collect();
        let mut llrs = encode(&code, &data, 7);
        for i in (0..llrs.len()).step_by(13) {
            llrs[i] = -llrs[i] / 2;
        }
        let bcjr = BcjrDecoder::new(&code, 64).decode_terminated(&llrs);
        let viterbi = ViterbiDecoder::new(&code).decode_terminated(&llrs);
        let diff = bcjr
            .bits
            .iter()
            .zip(&viterbi.bits)
            .filter(|(a, b)| a != b)
            .count();
        assert!(diff <= 6, "{diff} disagreements between BCJR and Viterbi");
    }

    #[test]
    fn corrupted_bits_get_low_confidence() {
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..120).map(|i| (i % 2) as u8).collect();
        let mut llrs = encode(&code, &data, 7);
        for step in 58..=62 {
            llrs[step * 2] = -llrs[step * 2];
            llrs[step * 2 + 1] = -llrs[step * 2 + 1];
        }
        let out = BcjrDecoder::new(&code, 64).decode_terminated(&llrs);
        let near: f64 = (55..66)
            .map(|i| out.soft[i].unsigned_abs() as f64)
            .sum::<f64>()
            / 11.0;
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
    fn window_64_matches_full_frame() {
        // The paper: "increasing these values provides no performance
        // improvement" beyond 64. Full-frame BCJR (block >= frame) and
        // block-64 must produce identical decisions on moderately noisy
        // input.
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..256).map(|i| ((i * 7) % 5 < 2) as u8).collect();
        let mut llrs = encode(&code, &data, 7);
        for i in (0..llrs.len()).step_by(17) {
            llrs[i] = -llrs[i];
        }
        let windowed = BcjrDecoder::new(&code, 64).decode_terminated(&llrs);
        let full = BcjrDecoder::new(&code, 4096).decode_terminated(&llrs);
        assert_eq!(windowed.bits, full.bits);
    }

    #[test]
    fn latency_formula() {
        let code = ConvCode::ieee80211();
        assert_eq!(BcjrDecoder::new(&code, 64).latency_cycles(), 135);
        assert_eq!(BcjrDecoder::new(&code, 32).latency_cycles(), 71);
    }

    #[test]
    fn soft_sign_matches_bits() {
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..90).map(|i| (i % 5 == 0) as u8).collect();
        let mut llrs = encode(&code, &data, 7);
        for i in (0..llrs.len()).step_by(11) {
            llrs[i] = 0;
        }
        let out = BcjrDecoder::new(&code, 64).decode_terminated(&llrs);
        for (i, (&bit, &s)) in out.bits.iter().zip(&out.soft).enumerate() {
            if s > 0 {
                assert_eq!(bit, 1, "bit {i}");
            } else if s < 0 {
                assert_eq!(bit, 0, "bit {i}");
            }
        }
    }

    #[test]
    fn bcjr_confidence_correlates_with_sova() {
        let code = ConvCode::ieee80211();
        let data: Vec<u8> = (0..100).map(|i| (i % 3 == 1) as u8).collect();
        let mut llrs = encode(&code, &data, 7);
        for i in (0..llrs.len()).step_by(9) {
            llrs[i] = -llrs[i];
        }
        let bcjr = BcjrDecoder::new(&code, 64).decode_terminated(&llrs);
        let sova = SovaDecoder::new(&code, 64, 64).decode_terminated(&llrs);
        // Rank correlation proxy: bits SOVA flags as weakest should also be
        // below-median for BCJR more often than not.
        let med_b = {
            let mut v: Vec<u32> = bcjr.soft.iter().map(|s| s.unsigned_abs()).collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        let mut sova_idx: Vec<usize> = (0..sova.soft.len()).collect();
        sova_idx.sort_by_key(|&i| sova.soft[i].unsigned_abs());
        let weak_match = sova_idx[..10]
            .iter()
            .filter(|&&i| bcjr.soft[i].unsigned_abs() <= med_b)
            .count();
        assert!(weak_match >= 6, "only {weak_match}/10 weak bits agree");
    }
}
