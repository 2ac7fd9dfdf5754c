//! Old-vs-new kernel equivalence: the `i16` lane kernels must reproduce
//! the frozen `i64` reference path **bit for bit** — identical hard
//! decisions *and* identical saturated soft outputs — for every decoder,
//! code, lane count and soft-input distribution. These tests are the
//! enforcement arm of the contract documented in [`crate::compiled`].

use wilis_fxp::rng::SmallRng;

use crate::{
    hard_llr, BcjrDecoder, ConvCode, ConvEncoder, DecodeOutput, Llr, SoftDecoder, SovaDecoder,
    ViterbiDecoder,
};

/// Codes the differential suite sweeps: the paper's 802.11 code, the tiny
/// exhaustible K=3 code, a K=5 rate-1/3 code (n_out ≠ 2 exercises the
/// generic branch unit), and a K=9 code of 256 states, which the lane-mask
/// survivors serve in lockstep like any other.
fn codes() -> Vec<ConvCode> {
    vec![
        ConvCode::ieee80211(),
        ConvCode::k3(),
        ConvCode::new(5, &[0o23, 0o35, 0o31]),
        ConvCode::new(9, &[0o561, 0o753]),
    ]
}

/// A random soft-input block of `steps` trellis steps with magnitudes up
/// to `mag`, with a sprinkling of exact erasures (depunctured positions).
fn random_llrs(rng: &mut SmallRng, code: &ConvCode, steps: usize, mag: i64) -> Vec<Llr> {
    (0..steps * code.n_out())
        .map(|_| {
            if rng.gen_i64(0, 3) == 0 {
                0 // erased / depunctured position
            } else {
                rng.gen_i64(-mag, mag) as Llr
            }
        })
        .collect()
}

fn assert_equiv(code: &ConvCode, llrs: &[Llr], ctx: &str) {
    let mut fast = DecodeOutput::default();
    let mut slow = DecodeOutput::default();

    let mut v = ViterbiDecoder::new(code);
    v.decode_terminated_into(llrs, &mut fast);
    v.decode_terminated_reference_into(llrs, &mut slow);
    assert_eq!(fast.bits, slow.bits, "viterbi bits diverged: {ctx}");
    assert_eq!(fast.soft, slow.soft, "viterbi soft diverged: {ctx}");

    let mut s = SovaDecoder::new(code, 64, 64);
    s.decode_terminated_into(llrs, &mut fast);
    s.decode_terminated_reference_into(llrs, &mut slow);
    assert_eq!(fast.bits, slow.bits, "sova bits diverged: {ctx}");
    assert_eq!(fast.soft, slow.soft, "sova soft diverged: {ctx}");

    let mut b = BcjrDecoder::new(code, 64);
    b.decode_terminated_into(llrs, &mut fast);
    b.decode_terminated_reference_into(llrs, &mut slow);
    assert_eq!(fast.bits, slow.bits, "bcjr bits diverged: {ctx}");
    assert_eq!(fast.soft, slow.soft, "bcjr soft diverged: {ctx}");
}

/// Random noisy blocks at demapper-realistic magnitudes, every code.
#[test]
fn compiled_kernels_match_reference_on_random_blocks() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0001);
    for code in codes() {
        for round in 0..24 {
            let steps = code.tail_len() + rng.gen_i64(1, 150) as usize;
            let llrs = random_llrs(&mut rng, &code, steps, 31);
            assert_equiv(&code, &llrs, &format!("{code} round {round}"));
        }
    }
}

/// Clean encoded frames (the all-margins-huge corner: every ACS decision
/// is unanimous, so SOVA reliabilities ride the sentinel-margin path).
#[test]
fn compiled_kernels_match_reference_on_clean_frames() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0002);
    for code in codes() {
        for _ in 0..8 {
            let n = rng.gen_i64(8, 96) as usize;
            let data: Vec<u8> = (0..n).map(|_| rng.gen_bit()).collect();
            let coded = ConvEncoder::new(&code).encode_terminated(&data);
            let llrs: Vec<Llr> = coded.iter().map(|&b| hard_llr(b, 15)).collect();
            assert_equiv(&code, &llrs, &format!("{code} clean"));
            // And the decoded bits are the transmitted ones.
            let out = ViterbiDecoder::new(&code).decode_terminated(&llrs);
            assert_eq!(out.bits, data);
        }
    }
}

/// Solo decodes straddling the narrow gate, for every code and decoder:
/// a block reaching the gate takes the lane kernels, one reaching gate + 1
/// (or far beyond) takes the reference path. Both must agree with the
/// reference output.
#[test]
fn compiled_kernels_match_reference_at_the_fast_path_boundary() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0003);
    for code in codes() {
        let ct = crate::CompiledTrellis::new(&code);
        let gate = ct.narrow_llr_limit() as Llr;
        for (mag, lane_kernels) in [
            (gate - 1, true),
            (gate, true),
            (gate + 1, false),
            (i32::MAX / 2, false),
        ] {
            let steps = code.tail_len() + 80;
            let mut llrs = random_llrs(&mut rng, &code, steps, i64::from(mag));
            llrs[steps / 2] = -mag;
            assert_eq!(
                ct.narrow_path_ok(&llrs),
                lane_kernels,
                "{code} magnitude {mag}"
            );
            assert_equiv(&code, &llrs, &format!("{code} magnitude {mag}"));
        }
    }
}

/// Heavy puncturing patterns: long runs of erased positions interleaved
/// with strong disagreeing evidence.
#[test]
fn compiled_kernels_match_reference_under_puncturing() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0004);
    for code in [ConvCode::ieee80211(), ConvCode::k3()] {
        for _ in 0..12 {
            let steps = code.tail_len() + rng.gen_i64(20, 120) as usize;
            let mut llrs = random_llrs(&mut rng, &code, steps, 31);
            // Erase a run covering several constraint lengths.
            let start = rng.gen_i64(0, (llrs.len() / 2) as i64) as usize;
            let len = rng.gen_i64(4, 40) as usize;
            for l in llrs.iter_mut().skip(start).take(len) {
                *l = 0;
            }
            assert_equiv(&code, &llrs, &format!("{code} punctured"));
        }
    }
}

/// The long-frame regression for the normalization invariant: a frame
/// tens of thousands of steps long with LLRs at the narrow gate. The
/// unnormalized drift would wrap an `i16` within about fifty steps; per-step
/// normalization must keep the solo lane kernels exact all the way out.
#[test]
fn long_frame_renormalization_regression() {
    let code = ConvCode::ieee80211();
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0005);
    let info = 20_000usize;
    let data: Vec<u8> = (0..info).map(|_| rng.gen_bit()).collect();
    let coded = ConvEncoder::new(&code).encode_terminated(&data);
    let limit = i64::from(narrow_gate(&code));
    // Max-magnitude evidence with some corruption keeps metric growth at
    // the theoretical worst case while still being decodable.
    let llrs: Vec<Llr> = coded
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let l = hard_llr(b, limit as Llr);
            if i % 97 == 0 {
                -l
            } else {
                l
            }
        })
        .collect();
    let mut v = ViterbiDecoder::new(&code);
    let out = v.decode_terminated(&llrs);
    assert_eq!(out.bits, data, "long-frame Viterbi decode must stay exact");
    let mut reference = DecodeOutput::default();
    v.decode_terminated_reference_into(&llrs, &mut reference);
    assert_eq!(out.bits, reference.bits);

    // The soft decoders survive the same frame bit-identically.
    let mut s = SovaDecoder::new(&code, 64, 64);
    let sova_fast = s.decode_terminated(&llrs);
    s.decode_terminated_reference_into(&llrs, &mut reference);
    assert_eq!(sova_fast.bits, reference.bits);
    assert_eq!(sova_fast.soft, reference.soft);

    let mut b = BcjrDecoder::new(&code, 64);
    let bcjr_fast = b.decode_terminated(&llrs);
    b.decode_terminated_reference_into(&llrs, &mut reference);
    assert_eq!(bcjr_fast.bits, reference.bits);
    assert_eq!(bcjr_fast.soft, reference.soft);
}

/// Repeated decodes through one decoder instance (scratch reuse across
/// different block sizes) stay equivalent — the steady-state shape the
/// scenario engine runs.
#[test]
fn scratch_reuse_across_blocks_stays_equivalent() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_0006);
    let code = ConvCode::ieee80211();
    let mut v = ViterbiDecoder::new(&code);
    let mut s = SovaDecoder::new(&code, 64, 64);
    let mut b = BcjrDecoder::new(&code, 64);
    let mut fast = DecodeOutput::default();
    let mut slow = DecodeOutput::default();
    for round in 0..16 {
        let steps = code.tail_len() + rng.gen_i64(1, 400) as usize;
        let llrs = random_llrs(&mut rng, &code, steps, 31);
        for (name, dec) in [
            ("viterbi", &mut v as &mut dyn ReferenceDecode),
            ("sova", &mut s),
            ("bcjr", &mut b),
        ] {
            dec.fast_into(&llrs, &mut fast);
            dec.reference_into(&llrs, &mut slow);
            assert_eq!(fast, slow, "{name} round {round}");
        }
    }
}

/// Interlaces equal-length per-lane blocks into the lane-major SoA layout
/// the batched entry points consume.
fn interleave_lanes(lanes: &[Vec<Llr>]) -> Vec<Llr> {
    let n = lanes.len();
    let per = lanes[0].len();
    assert!(lanes.iter().all(|l| l.len() == per));
    let mut soa = vec![0; per * n];
    for (l, lane) in lanes.iter().enumerate() {
        for (i, &v) in lane.iter().enumerate() {
            soa[i * n + l] = v;
        }
    }
    soa
}

/// Every decoder's batched decode must be bit-identical, lane for lane, to
/// solo decodes of the same blocks.
fn assert_batch_matches_solo(code: &ConvCode, lanes_llrs: &[Vec<Llr>], ctx: &str) {
    let lanes = lanes_llrs.len();
    let soa = interleave_lanes(lanes_llrs);
    let mut outs = vec![DecodeOutput::default(); lanes];
    let mut solo = DecodeOutput::default();

    let mut v = ViterbiDecoder::new(code);
    v.decode_terminated_batch_into(&soa, lanes, &mut outs);
    for (l, lane) in lanes_llrs.iter().enumerate() {
        v.decode_terminated_into(lane, &mut solo);
        assert_eq!(outs[l], solo, "viterbi lane {l}/{lanes}: {ctx}");
    }

    let mut s = SovaDecoder::new(code, 64, 64);
    s.decode_terminated_batch_into(&soa, lanes, &mut outs);
    for (l, lane) in lanes_llrs.iter().enumerate() {
        s.decode_terminated_into(lane, &mut solo);
        assert_eq!(outs[l], solo, "sova lane {l}/{lanes}: {ctx}");
    }

    let mut b = BcjrDecoder::new(code, 64);
    b.decode_terminated_batch_into(&soa, lanes, &mut outs);
    for (l, lane) in lanes_llrs.iter().enumerate() {
        b.decode_terminated_into(lane, &mut solo);
        assert_eq!(outs[l], solo, "bcjr lane {l}/{lanes}: {ctx}");
    }
}

/// Lockstep batches of every width the engine uses (1, 2, 4, 8) decode
/// each lane bit-identically to solo execution, for every code — including
/// the 256-state K=9 code.
#[test]
fn batched_decodes_match_solo_for_every_lane_count() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C_0001);
    for code in codes() {
        for lanes in [1usize, 2, 4, 8] {
            let steps = code.tail_len() + rng.gen_i64(20, 120) as usize;
            let blocks: Vec<Vec<Llr>> = (0..lanes)
                .map(|_| random_llrs(&mut rng, &code, steps, 31))
                .collect();
            assert_batch_matches_solo(&code, &blocks, &format!("{code}"));
        }
    }
}

/// Ragged widths — the tail of a packet group that doesn't fill the batch
/// — and oversized batches beyond `MAX_LANES` (which must take the
/// lane-by-lane path) both stay lane-identical to solo.
#[test]
fn ragged_and_oversized_batches_match_solo() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C_0002);
    let code = ConvCode::ieee80211();
    for lanes in [3usize, 5, 7, 9, 11] {
        let steps = code.tail_len() + rng.gen_i64(20, 90) as usize;
        let blocks: Vec<Vec<Llr>> = (0..lanes)
            .map(|_| random_llrs(&mut rng, &code, steps, 31))
            .collect();
        assert_batch_matches_solo(&code, &blocks, "ragged");
    }
}

/// Mixed batches: clean full-confidence lanes in lockstep with heavily
/// corrupted ones (the sentinel-margin corner next to the noisy-margin
/// corner, in the same batch), plus a lane past the narrow gate that
/// pushes the whole batch through the lane-by-lane fallback.
#[test]
fn mixed_noisy_and_clean_lanes_match_solo() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C_0003);
    let code = ConvCode::ieee80211();
    let steps = code.tail_len() + 64;
    let info = steps - code.tail_len();
    let clean = |rng: &mut SmallRng| -> Vec<Llr> {
        let data: Vec<u8> = (0..info).map(|_| rng.gen_bit()).collect();
        ConvEncoder::new(&code)
            .encode_terminated(&data)
            .iter()
            .map(|&b| hard_llr(b, 15))
            .collect()
    };
    let blocks: Vec<Vec<Llr>> = (0..8)
        .map(|l| {
            if l % 2 == 0 {
                clean(&mut rng)
            } else {
                random_llrs(&mut rng, &code, steps, 31)
            }
        })
        .collect();
    assert_batch_matches_solo(&code, &blocks, "mixed clean/noisy");

    // One lane beyond the narrow gate: the batch gate must reject the
    // whole group and the lane-by-lane path (reference for that lane)
    // must still match solo execution exactly.
    let mut spiked = blocks;
    let mid = spiked[3].len() / 2;
    spiked[3][mid] = narrow_gate(&code) + 1;
    assert_batch_matches_solo(&code, &spiked, "narrow-gate spike");
}

/// The batched entry points inherit the solo panics on malformed shapes.
#[test]
#[should_panic(expected = "not a multiple of lane count")]
fn misaligned_batch_input_panics() {
    let code = ConvCode::ieee80211();
    let mut outs = vec![DecodeOutput::default(); 3];
    ViterbiDecoder::new(&code).decode_terminated_batch_into(&[1, 2, 3, 4], 3, &mut outs);
}

/// Small helper trait so the reuse test can drive all three decoders
/// through both paths uniformly.
trait ReferenceDecode {
    fn fast_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput);
    fn reference_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput);
}

impl ReferenceDecode for ViterbiDecoder {
    fn fast_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.decode_terminated_into(llrs, out);
    }
    fn reference_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.decode_terminated_reference_into(llrs, out);
    }
}

impl ReferenceDecode for SovaDecoder {
    fn fast_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.decode_terminated_into(llrs, out);
    }
    fn reference_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.decode_terminated_reference_into(llrs, out);
    }
}

impl ReferenceDecode for BcjrDecoder {
    fn fast_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.decode_terminated_into(llrs, out);
    }
    fn reference_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.decode_terminated_reference_into(llrs, out);
    }
}

// ---------------------------------------------------------------------------
// The narrow `i16` gate of the batched kernels.
//
// Tier-1 runs these tests in a debug build, where every plain
// (non-saturating) `i16` add, subtract and negation in the batched kernels
// is overflow-checked: a block inside the gate that wrapped a metric would
// panic there instead of silently decoding wrong. CI runs them again at
// release optimisation, where the equality assertions alone catch a
// wrapped or saturated metric.

/// The narrow gate of `code`, as a soft value.
fn narrow_gate(code: &ConvCode) -> Llr {
    crate::CompiledTrellis::new(code).narrow_llr_limit() as Llr
}

/// A worst-case block at magnitude `mag`: every soft value is exactly
/// `±mag`. Odd-salted blocks take random signs (large metrics in every
/// direction); even ones follow a random codeword with one sign in 11
/// flipped, which drives the survivor metrics to their widest spread.
fn worst_case_llrs(
    rng: &mut SmallRng,
    code: &ConvCode,
    steps: usize,
    mag: Llr,
    salt: usize,
) -> Vec<Llr> {
    if salt % 2 == 1 {
        return (0..steps * code.n_out())
            .map(|_| if rng.gen_bit() == 1 { mag } else { -mag })
            .collect();
    }
    let data: Vec<u8> = (0..steps - code.tail_len())
        .map(|_| rng.gen_bit())
        .collect();
    ConvEncoder::new(code)
        .encode_terminated(&data)
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let l = hard_llr(b, mag);
            if i % 11 == salt % 11 {
                -l
            } else {
                l
            }
        })
        .collect()
}

/// The 802.11 code's gate admits the 8-bit Viterbi demap (|LLR| ≤ 127)
/// and so the 4/5-bit hint path, and it is the documented formula.
#[test]
fn narrow_gate_admits_every_8_bit_llr_on_the_80211_code() {
    let gate = crate::CompiledTrellis::new(&ConvCode::ieee80211()).narrow_llr_limit();
    assert!(gate >= 127, "802.11 narrow gate {gate} is below 127");
    assert_eq!(gate, crate::compiled::narrow_llr_limit_for(6, 2));
    for code in codes() {
        assert_eq!(
            narrow_gate(&code) as u32,
            crate::compiled::narrow_llr_limit_for(code.memory(), code.n_out()),
            "{code}"
        );
    }
}

/// Every decoder, every lane count 1..=8 and every test code, on blocks
/// exactly at the narrow gate: all-±gate worst cases and uniform random
/// values up to ±gate. The batched `i16` kernels must match solo decodes
/// lane for lane, and the solo decodes must match the `i64` reference.
#[test]
fn batched_decodes_at_the_narrow_gate_match_solo_and_reference() {
    let mut rng = SmallRng::seed_from_u64(0x6A7E_0001);
    for code in codes() {
        let gate = narrow_gate(&code);
        for lanes in 1..=crate::MAX_BATCH_LANES {
            let steps = code.tail_len() + rng.gen_i64(8, 48) as usize;
            let worst: Vec<Vec<Llr>> = (0..lanes)
                .map(|l| worst_case_llrs(&mut rng, &code, steps, gate, l))
                .collect();
            assert!(worst.iter().flatten().all(|v| v.abs() == gate));
            assert_batch_matches_solo(&code, &worst, &format!("{code} worst case at gate {gate}"));
            assert_equiv(
                &code,
                &worst[lanes - 1],
                &format!("{code} worst case at gate {gate}"),
            );

            let random: Vec<Vec<Llr>> = (0..lanes)
                .map(|_| random_llrs(&mut rng, &code, steps, i64::from(gate)))
                .collect();
            assert_batch_matches_solo(&code, &random, &format!("{code} random at gate {gate}"));
            assert_equiv(&code, &random[0], &format!("{code} random at gate {gate}"));
        }
    }
}

/// One soft value at gate + 1 in any lane sends the whole batch down the
/// lane-by-lane path, which must still match solo decodes (and so the
/// reference) for every decoder, lane count and code.
#[test]
fn batches_one_past_the_narrow_gate_fall_back_and_match() {
    let mut rng = SmallRng::seed_from_u64(0x6A7E_0002);
    for code in codes() {
        let gate = narrow_gate(&code);
        for lanes in 1..=crate::MAX_BATCH_LANES {
            let steps = code.tail_len() + rng.gen_i64(8, 48) as usize;
            let mut blocks: Vec<Vec<Llr>> = (0..lanes)
                .map(|l| worst_case_llrs(&mut rng, &code, steps, gate, l))
                .collect();
            let lane = rng.gen_i64(0, lanes as i64 - 1) as usize;
            let at = rng.gen_i64(0, blocks[lane].len() as i64 - 1) as usize;
            blocks[lane][at] = if blocks[lane][at] < 0 {
                -(gate + 1)
            } else {
                gate + 1
            };
            assert_batch_matches_solo(&code, &blocks, &format!("{code} gate + 1 in lane {lane}"));
            assert_equiv(&code, &blocks[lane], &format!("{code} gate + 1"));
        }
    }
}

/// A 20 000-step frame at the gate on the 802.11 code: the batched kernels
/// normalize every column through shifted branch metrics, and that must
/// hold a long frame at the worst-case metric growth exactly, with no
/// drift and no `i16` overflow.
#[test]
fn long_frame_at_the_narrow_gate_stays_exact() {
    let code = ConvCode::ieee80211();
    let gate = narrow_gate(&code);
    let mut rng = SmallRng::seed_from_u64(0x6A7E_0003);
    let info = 20_000usize;
    let steps = info + code.tail_len();
    let blocks: Vec<Vec<Llr>> = (0..2)
        .map(|l| {
            let data: Vec<u8> = (0..info).map(|_| rng.gen_bit()).collect();
            let coded = ConvEncoder::new(&code).encode_terminated(&data);
            let llrs: Vec<Llr> = coded
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let v = hard_llr(b, gate);
                    if i % (97 - 44 * l) == 0 {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            assert_eq!(llrs.len(), steps * code.n_out());
            llrs
        })
        .collect();
    assert_batch_matches_solo(&code, &blocks, "20k-step frame at the gate");
}

/// HARQ-combined planes: four attempts of hint-width LLRs (|LLR| ≤ 15,
/// with erasures) summed through `combine_llrs_into` reach |LLR| ≤ 60, well
/// inside every test code's gate, and decode batched exactly as solo.
#[test]
fn harq_combined_hint_planes_decode_batched_like_solo() {
    let mut rng = SmallRng::seed_from_u64(0x6A7E_0004);
    for code in codes() {
        for lanes in 1..=crate::MAX_BATCH_LANES {
            let info = rng.gen_i64(16, 64) as usize;
            let blocks: Vec<Vec<Llr>> = (0..lanes)
                .map(|_| {
                    let data: Vec<u8> = (0..info).map(|_| rng.gen_bit()).collect();
                    let coded = ConvEncoder::new(&code).encode_terminated(&data);
                    let mut acc = vec![0 as Llr; coded.len()];
                    for _ in 0..4 {
                        let fresh: Vec<Llr> = coded
                            .iter()
                            .map(|&b| {
                                if rng.gen_i64(0, 4) == 0 {
                                    0
                                } else {
                                    (hard_llr(b, 9) + rng.gen_i64(-14, 14) as Llr).clamp(-15, 15)
                                }
                            })
                            .collect();
                        crate::combine_llrs_into(&mut acc, &fresh);
                    }
                    acc
                })
                .collect();
            assert!(blocks.iter().flatten().all(|v| v.abs() <= 60));
            assert_batch_matches_solo(&code, &blocks, &format!("{code} HARQ x4"));
        }
    }
}

/// SOVA with a reliability window shorter than the code memory, on short
/// frames: the traceback windows then cover the warmup steps, whose
/// margins against unreachable competitors no output reads, and many soft
/// outputs saturate at `±Llr::MAX`. Batched decodes must match solo ones.
#[test]
fn short_window_sova_batches_match_solo() {
    let mut rng = SmallRng::seed_from_u64(0x6A7E_0005);
    for code in codes() {
        let mut saturated = 0usize;
        for k in 1..=3usize {
            for lanes in 1..=crate::MAX_BATCH_LANES {
                let steps = code.tail_len() + rng.gen_i64(1, 8) as usize;
                let blocks: Vec<Vec<Llr>> = (0..lanes)
                    .map(|_| random_llrs(&mut rng, &code, steps, 7))
                    .collect();
                let soa = interleave_lanes(&blocks);
                let mut outs = vec![DecodeOutput::default(); lanes];
                let mut solo = DecodeOutput::default();
                let mut dec = SovaDecoder::new(&code, 64, k);
                dec.decode_terminated_batch_into(&soa, lanes, &mut outs);
                for (l, lane) in blocks.iter().enumerate() {
                    dec.decode_terminated_into(lane, &mut solo);
                    assert_eq!(outs[l], solo, "{code} k = {k} lane {l}/{lanes}");
                    saturated += solo
                        .soft
                        .iter()
                        .filter(|v| v.unsigned_abs() == Llr::MAX as u32)
                        .count();
                }
            }
        }
        if code.memory() > 3 {
            assert!(
                saturated > 0,
                "{code}: no sentinel margin reached an output"
            );
        }
    }
}

/// SOVA's TU2 windows against the frozen reference, lane by lane: windows
/// either side of the one-lane register exchange's 64-bit limit (`k ≤ 64`
/// runs it, `k > 64` and every batch run the lockstep traces), on every
/// lane count and code. The blocks are long, noisy and a quarter erased, so
/// competitor paths often stay apart from the ML path for the whole window
/// and the window edge decides which bits a margin reaches.
#[test]
fn tu2_windows_match_reference_for_every_lane_count() {
    let mut rng = SmallRng::seed_from_u64(0x7B02_0001);
    for code in codes() {
        for k in [1usize, 2, 3, 8, 16, 63, 64, 65, 100] {
            let steps = code.tail_len() + rng.gen_i64(300, 340) as usize;
            let blocks: Vec<Vec<Llr>> = (0..crate::MAX_BATCH_LANES)
                .map(|_| random_llrs(&mut rng, &code, steps, 9))
                .collect();
            let mut dec = SovaDecoder::new(&code, 64, k);
            let reference: Vec<DecodeOutput> = blocks
                .iter()
                .map(|block| {
                    let mut out = DecodeOutput::default();
                    dec.decode_terminated_reference_into(block, &mut out);
                    out
                })
                .collect();
            for lanes in 1..=crate::MAX_BATCH_LANES {
                let soa = interleave_lanes(&blocks[..lanes]);
                let mut outs = vec![DecodeOutput::default(); lanes];
                dec.decode_terminated_batch_into(&soa, lanes, &mut outs);
                for (l, (out, want)) in outs.iter().zip(&reference).enumerate() {
                    assert_eq!(out, want, "{code} k = {k} lane {l}/{lanes}");
                }
            }
        }
    }
}

/// A registration that implements only the solo decode, so its batches
/// run the trait's default lane-by-lane `decode_terminated_batch_into`.
struct SoloOnly(Box<dyn SoftDecoder>);

impl SoftDecoder for SoloOnly {
    fn decode_terminated_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.0.decode_terminated_into(llrs, out);
    }

    fn id(&self) -> &'static str {
        self.0.id()
    }
}

/// The trait's default batch decode, around each stock decoder, equals
/// per-lane solo decodes for lane counts 1..=9 (one past the widest
/// lockstep batch) on noisy blocks with one lane past the narrow gate.
#[test]
fn default_batch_path_matches_solo_decodes() {
    let stock = |code: &ConvCode| -> Vec<Box<dyn SoftDecoder>> {
        vec![
            Box::new(ViterbiDecoder::new(code)),
            Box::new(SovaDecoder::new(code, 64, 64)),
            Box::new(BcjrDecoder::new(code, 64)),
        ]
    };
    let mut rng = SmallRng::seed_from_u64(0xDEFA_0001);
    for code in codes() {
        let gate = narrow_gate(&code);
        for lanes in 1..=crate::MAX_BATCH_LANES + 1 {
            let steps = code.tail_len() + rng.gen_i64(20, 90) as usize;
            let mut blocks: Vec<Vec<Llr>> = (0..lanes)
                .map(|_| random_llrs(&mut rng, &code, steps, 31))
                .collect();
            let lane = rng.gen_i64(0, lanes as i64 - 1) as usize;
            let at = rng.gen_i64(0, blocks[lane].len() as i64 - 1) as usize;
            blocks[lane][at] = gate + 1;
            let soa = interleave_lanes(&blocks);
            for (mut solo, wrapped) in stock(&code).into_iter().zip(stock(&code)) {
                let mut wrapped = SoloOnly(wrapped);
                let mut outs = vec![DecodeOutput::default(); lanes];
                wrapped.decode_terminated_batch_into(&soa, lanes, &mut outs);
                for (l, (out, block)) in outs.iter().zip(&blocks).enumerate() {
                    let want = solo.decode_terminated(block);
                    assert_eq!(out, &want, "{} {code} lane {l}/{lanes}", solo.id());
                }
            }
        }
    }
}
