//! The lane kernels: every in-gate decode, solo or batched, walks the
//! trellis here, on `i16` metrics laid out structure-of-arrays. Which axis
//! is SIMD depends on the lane count: at `L ≥ 2` lanes it is the lane
//! axis, and at one lane the Viterbi and SOVA forward pass makes it the
//! state axis instead.
//!
//! The butterfly tables of [`crate::compiled`] remove every per-edge
//! branch from a decode; what remains is instruction-level parallelism a
//! single recurrence cannot expose — each ACS step depends on the previous
//! column. Packets, however, are independent. This module decodes up to
//! [`MAX_LANES`] equal-length blocks *in lockstep*: one pass
//! over the trellis where every intermediate quantity carries one value
//! per lane, stored lane-innermost so each per-state inner loop is
//! straight-line arithmetic over one `[i16; L]` row — at 8 lanes, exactly
//! one 128-bit register, with saturating add and `max` in the baseline
//! x86-64 instruction set.
//!
//! **One lane: SIMD across states.** A `[i16; 1]` row is scalar code, so
//! the one-lane Viterbi and SOVA forward pass (`acs_step_one`) vectorizes
//! across destination states instead. Its branch metrics come from the
//! per-state sign masks of [`CompiledTrellis`]: one pass over the states
//! per coded bit (`branch_metrics_one`), where the lane kernels gather a
//! pattern row per state. It splits each source column into its even and
//! odd states, so each destination half is one loop over equal-length
//! slices. Its survivors and margins have the lane kernels' layout at
//! `L = 1`, so both tracebacks read them unchanged. BCJR runs the lane
//! kernels at one lane.
//!
//! **SOVA's TU2.** The Hagenauer update lowers each reliability to the
//! smallest margin of any competitor that disagrees with the ML path there
//! within the window `k`. It is a `min`, so the order in which the
//! competitors are visited changes nothing, and a competitor agrees with
//! the ML path everywhere past the point where the two merge. Two bodies
//! use that freedom:
//!
//! * at one lane with `k ≤ 64`, *register exchange*
//!   (`tu2_register_exchange`): one pass over the stored survivors keeps
//!   each state's last 64 survivor input bits in a `u64`, so a step's
//!   disagreements are one XOR of two registers, where a trace walks up to
//!   `k` dependent loads;
//! * for every batch, and for `k > 64`, *lockstep traces*
//!   (`tu2_lockstep`): at each step every lane traces its competitor back,
//!   all lanes one step at a time together, until every lane's competitor
//!   has merged. Register exchange at 8 lanes costs eight times the
//!   one-lane pass on every block, which outweighs the traces on clean
//!   ones.
//!
//! Layouts (`L` = lane count, `l` = lane index):
//!
//! * soft inputs — lane-major SoA: soft value `i` of lane `l` at
//!   `llrs[i * L + l]`;
//! * path-metric columns — `[state][lane]` `i16`: `pm[s * L + l]`;
//! * branch metrics — one step's, `[pattern][lane]` `i16`:
//!   `bm[p * L + l]`, recomputed from the soft inputs wherever a pass
//!   needs them (cheaper than storing them: `2^n_out` rows per step);
//! * SOVA margins — `[step][state][lane]` `i16`:
//!   `margins[(t * n_states + s) * L + l]`;
//! * one-lane branch metrics — one step's, `[edge][state]` `i16`:
//!   `bm[e * n_states + s]` for incoming edge `e` of state `s`;
//! * survivors — one lane-mask byte per `(step, state)`, bit `l` holding
//!   lane `l`'s decision: `surv[t * n_states + s]`. The ACS step builds the
//!   byte from the row of lane compares in one go; each lane's traceback
//!   reads bit `l`;
//! * SOVA ML paths and reliabilities — `[step][lane]`, so the lockstep
//!   tracebacks read one row per step.
//!
//! **Bit-identity contract.** Each lane computes the same path-metric
//! *differences*, decisions and soft outputs as the frozen `i64` reference
//! kernels, and lanes never interact. Per-lane outputs are therefore
//! bit-identical to solo [`crate::SoftDecoder::decode_terminated_into`]
//! calls and to the reference, which the equivalence suite checks for
//! every lane count. Only absolute metric values differ:
//!
//! * **Normalization** happens every step, on the branch metrics: each
//!   step reads the previous column through metrics shifted down by that
//!   column's per-lane maximum (`branch_rows`), which the step that wrote
//!   the column returned. `p + (b - max)` is `(p - max) + b`, so every
//!   column comes out as if its predecessor had been normalized first, at
//!   `2^n_out` rows of work instead of `n_states`. A uniform shift changes
//!   no decision and no margin, so the cadence is invisible.
//! * **Sentinels** are the `i16` images `NEG_INF16` / `UNREACHABLE16`, and
//!   they shift with everything else. They stay below `UNREACHABLE16`
//!   under the gate, so every test against it answers as the reference
//!   kernels' sentinel tests do. The BCJR decision unit's outputs in the
//!   tail region, where the terminated backward metrics still carry
//!   sentinels, differ from the reference ones; they are truncated with
//!   the tail and never leave the decoder.
//!
//! **Gate and fallback.** The narrow arithmetic is exact only for soft
//! inputs within [`CompiledTrellis::narrow_llr_limit`] (315 for the 802.11
//! code, so both the 8-bit Viterbi demap and the 4/5-bit hint path pass;
//! the derivation is on that method), for codes of any state count. The
//! decoders' one shell (`crate::shell`) routes every decode, and
//! `decode_lanes` is its only way in. A solo decode within the gate runs
//! here at one lane: a contiguous block is already lane-major for one lane,
//! and the one-lane forward pass computes exactly the lane kernels' values
//! at `L = 1`. A solo block with any larger soft value decodes on the
//! reference kernels, and a batch with one, or with more than
//! [`MAX_LANES`] lanes, decodes lane by lane through the solo route.
//! Nothing else selects a width: the lane kernels are `i16` only.
//!
//! **Lane loops are branch-free.** Every per-lane computation below is
//! straight-line arithmetic on whole rows: selects are bitmask blends
//! (`(m & keep) | (NEG_INF16 & !keep)`), `max` is a lane-wise `max`, and a
//! survivor byte is an OR of shifted compares. The reason is the
//! autovectorizer: a data-dependent `if` or `match` on a lane value, or a
//! conditional update of a lane, compiles to one compare-and-branch (or
//! `cmov`) per lane, and the loop stays scalar at any metric width, so the
//! narrow type buys nothing. Compile-time `const` parameters (the lane
//! count and the margin variant) are not data-dependent and fold away.
//! Rows are read by value (`row`) and stored whole: element-wise updates
//! through borrowed rows let LLVM's loop vectorizer vectorize across
//! *rows* instead, with eight strided scalar loads per vector. Every state
//! loop reads its branch-metric rows through the trellis output masks,
//! which keeps the loop vectorizer out and leaves each row to one SIMD
//! instruction per operation.
//!
//! **Butterfly order.** The kernels walk the trellis butterfly by
//! butterfly: destination pair `(j, j + half)` reads source pair
//! `(2j, 2j + 1)`, so the metric rows stream sequentially with no index
//! tables (see `CompiledTrellis::butterfly`; every trellis this repository
//! builds has that shape, and one without it decodes on the reference
//! kernels).
//!
//! Debug builds check every plain (non-saturating) `i16` add for overflow,
//! so the debug equivalence tests at the gate also check the gate's
//! derivation.

use crate::compiled::{CompiledTrellis, NEG_INF16, UNREACHABLE16};
use crate::llr::{DecodeOutput, Llr};
use crate::shell::{SOVA, VITERBI};

/// Widest lockstep batch the kernels are monomorphized for. Matches the
/// scenario engine's packet-block width: fused shared-channel jobs hand
/// the receivers up to this many packets per batched decode, and ragged
/// tails simply instantiate a narrower lane count. A survivor lane mask is
/// one byte, so this cannot exceed 8.
pub const MAX_LANES: usize = 8;

/// Working buffers for one decoder's lane-kernel decodes, solo and batched
/// (the reference kernels keep theirs in [`crate::TrellisScratch`]), grown
/// on first use and reused verbatim.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchScratch {
    /// Path-metric column, `[state][lane]` (current step).
    pm: Vec<i16>,
    /// Path-metric column, `[state][lane]` (next step).
    next: Vec<i16>,
    /// Survivor lane masks, one byte per `(step, state)`.
    surv: Vec<u8>,
    /// One step's shifted branch metrics: `[pattern][lane]` in the lane
    /// kernels, `[edge][state]` in the one-lane forward pass.
    bm: Vec<i16>,
    /// The one-lane forward pass's source column split into its even and
    /// odd states, `[even | odd]`.
    split: Vec<i16>,
    /// ACS margins, `[step][state][lane]` (SOVA).
    margins: Vec<i16>,
    /// Per-step reliabilities along every lane's ML path, `[step][lane]`
    /// (SOVA). Both TU2 bodies lower them with a `min`, in whatever order
    /// they meet the competitors (see the module docs).
    reliability: Vec<i32>,
    /// Every lane's ML state sequence, `[step][lane]` over `steps + 1`
    /// steps (SOVA; TU1 traces all lanes in lockstep, and the lockstep TU2
    /// reads one row per step).
    ml_states: Vec<u16>,
    /// Every lane's ML input bits, `[step][lane]` (SOVA).
    ml_bits: Vec<u8>,
    /// Survivor registers of the one-lane register-exchange TU2, one `u64`
    /// per state: the last 64 input bits of the survivor path into that
    /// state, newest in bit 0 (current step).
    regs: Vec<u64>,
    /// Survivor registers, one `u64` per state (next step).
    regs_next: Vec<u64>,
    /// Backward metric columns for the current block, `[local][state][lane]`
    /// (BCJR).
    betas: Vec<i16>,
    /// Beta boundary column, `[state][lane]` (BCJR).
    boundary: Vec<i16>,
    /// Spare column for the provisional backward walk (BCJR).
    col: Vec<i16>,
    /// One lane's gathered soft inputs for the lane-by-lane fallback.
    pub(crate) lane_llrs: Vec<Llr>,
}

/// Shape checks shared by every batched entry point: `lanes` lanes of
/// equal length, one output slot per lane, each lane a whole number of
/// trellis steps longer than the tail.
pub(crate) fn validate_batch(
    n_out: usize,
    tail_len: usize,
    llrs: &[Llr],
    lanes: usize,
    n_outputs: usize,
) -> usize {
    assert!(lanes > 0, "at least one lane");
    assert_eq!(n_outputs, lanes, "one DecodeOutput per lane");
    assert!(
        llrs.len() % lanes == 0,
        "lane-major input length {} not a multiple of lane count {lanes}",
        llrs.len()
    );
    let per_lane = llrs.len() / lanes;
    assert!(
        per_lane % n_out == 0,
        "soft input length {per_lane} not a multiple of n_out {n_out}"
    );
    let steps = per_lane / n_out;
    assert!(steps > tail_len, "block shorter than the code tail");
    steps
}

/// Copies lane `l` of a lane-major block into a contiguous buffer — the
/// de-interlacing step of the lane-by-lane fallback.
pub(crate) fn gather_lane(soa: &[Llr], lanes: usize, l: usize, out: &mut Vec<Llr>) {
    out.clear();
    out.extend(soa.chunks_exact(lanes).map(|row| row[l]));
}

/// A lane row of a `[index][lane]` buffer as a fixed-size array. Inlined
/// always: an outlined call would put a function boundary inside loops run
/// `steps × n_states` times.
#[inline(always)]
fn lane<const L: usize, T>(buf: &[T], idx: usize) -> &[T; L] {
    buf[idx * L..idx * L + L].try_into().unwrap() // lint: allow(panic-policy) — the slice is exactly L long by the index arithmetic
}

/// Mutable form of [`lane`].
#[inline(always)]
fn lane_mut<const L: usize, T>(buf: &mut [T], idx: usize) -> &mut [T; L] {
    (&mut buf[idx * L..idx * L + L]).try_into().unwrap() // lint: allow(panic-policy) — the slice is exactly L long by the index arithmetic
}

/// A lane row copied out by value: kernels compute on row values and store
/// whole rows back (see the module docs).
#[inline(always)]
fn row<const L: usize>(buf: &[i16], idx: usize) -> [i16; L] {
    *lane::<L, _>(buf, idx)
}

/// Lane-wise `max` of two rows.
#[inline(always)]
fn max_rows<const L: usize>(a: [i16; L], b: [i16; L]) -> [i16; L] {
    std::array::from_fn(|l| a[l].max(b[l]))
}

/// A compare result as an all-ones / all-zeros `i16` blend mask.
#[inline(always)]
fn mask(keep: bool) -> i16 {
    -i16::from(keep)
}

/// One step's branch metrics for all lanes, `[pattern][lane]`, shifted
/// down by each lane's `shift` (see the module docs): per lane the values
/// of [`crate::bmu::branch_metrics`], with a rate-1/2 special case, narrowed
/// to `i16` (exact under the narrow gate, where every metric is below 2¹³
/// in magnitude). Inlined always: its generic-`n_out` arm keeps LLVM from
/// inlining it on its own, and outlined it costs more per step than the
/// ACS step it feeds.
#[inline(always)]
pub(crate) fn branch_rows<const L: usize>(
    llrs: &[Llr],
    step: usize,
    n_out: usize,
    shift: [i16; L],
    rows: &mut [i16],
) {
    let step_llrs = &llrs[step * n_out * L..(step + 1) * n_out * L];
    if n_out == 2 {
        let (l0, l1) = (lane::<L, _>(step_llrs, 0), lane::<L, _>(step_llrs, 1));
        for l in 0..L {
            // Rate-1/2 special case: the four correlations are ±sum, ±diff.
            let sum = (l0[l] + l1[l]) as i16;
            let diff = (l0[l] - l1[l]) as i16;
            rows[l] = -sum;
            rows[L + l] = diff;
            rows[2 * L + l] = -diff;
            rows[3 * L + l] = sum;
        }
    } else {
        for (pattern, slot) in rows.chunks_exact_mut(L).enumerate() {
            for (l, m) in slot.iter_mut().enumerate() {
                *m = (0..n_out)
                    .map(|j| {
                        let llr = step_llrs[j * L + l];
                        if (pattern >> j) & 1 == 1 {
                            llr
                        } else {
                            -llr
                        }
                    })
                    .sum::<i32>() as i16;
            }
        }
    }
    for p in 0..rows.len() / L {
        let r = row::<L>(rows, p);
        *lane_mut::<L, _>(rows, p) = std::array::from_fn(|l| r[l] - shift[l]);
    }
}

/// The saturating max-log recursion for all lanes:
/// `max(a + b0, b + b1)` per lane, sentinels saturating.
#[inline(always)]
fn max_log<const L: usize>(a: [i16; L], b: [i16; L], b0: &[i16; L], b1: &[i16; L]) -> [i16; L] {
    std::array::from_fn(|l| a[l].saturating_add(b0[l]).max(b[l].saturating_add(b1[l])))
}

/// The butterfly tables of a destination-indexed step, split into the
/// destination halves `[0, half)` and `[half, n)`: output masks of the
/// edges from source `2j` (`omask0`) and `2j + 1` (`omask1`).
#[inline(always)]
fn forward_masks(ct: &CompiledTrellis, half: usize) -> ([&[u8]; 2], [&[u8]; 2]) {
    let (m0lo, m0hi) = ct.omask0[..2 * half].split_at(half);
    let (m1lo, m1hi) = ct.omask1[..2 * half].split_at(half);
    ([m0lo, m0hi], [m1lo, m1hi])
}

/// One forward ACS step for all lanes in butterfly order: destinations `j`
/// and `j + half` both read the source pair `(2j, 2j + 1)`. Survivors are
/// one lane-mask byte per state (bit `l` set where lane `l` takes the
/// `2j + 1` edge) and, when `MARGINS` (SOVA), margins `|c1 - c0|` one row
/// per state. Returns the new column's per-lane maxima, the next step's
/// branch-metric shift.
///
/// The two destination halves run as two loops with one ACS per
/// iteration: with both in one iteration, LLVM packs the two survivor
/// compares into one vector and unpacks the bytes bit by bit.
///
/// The first `memory` steps of a frame, while some states are still
/// unreachable, need no special case: a sentinel-derived candidate is
/// always below a genuine one, so `max` and `c1 > c0` already let an
/// unreachable competitor lose, as in the reference kernels. Its margin is
/// recorded plainly, where the reference records a sentinel-sized one, and
/// no output reads it. The competitor into a state of the ML path at such a
/// step differs from the ML predecessor only in its oldest bit, an input
/// from before step 0. Both edges into one state carry the same input bit,
/// and the competitor's traceback reproduces the ML bits of every step
/// from 0 on, so the TU2 update with that margin changes no reliability.
#[inline]
fn acs_step_batch<const L: usize, const MARGINS: bool>(
    ct: &CompiledTrellis,
    bm: &[i16],
    prev: &[i16],
    out: &mut [i16],
    surv: &mut [u8],
    margins: &mut [i16],
) -> [i16; L] {
    let half = out.len() / (2 * L);
    let prev = &prev[..2 * half * L];
    let ([m0lo, m0hi], [m1lo, m1hi]) = forward_masks(ct, half);
    let mut maxs = [i16::MIN; L];
    for (h, (m0, m1)) in [(m0lo, m1lo), (m0hi, m1hi)].into_iter().enumerate() {
        let out = &mut out[h * half * L..(h + 1) * half * L];
        let surv = &mut surv[h * half..(h + 1) * half];
        for j in 0..half {
            let (p0, p1) = (row::<L>(prev, 2 * j), row::<L>(prev, 2 * j + 1));
            let b0 = row::<L>(bm, usize::from(m0[j]));
            let b1 = row::<L>(bm, usize::from(m1[j]));
            let c0: [i16; L] = std::array::from_fn(|l| p0[l] + b0[l]);
            let c1: [i16; L] = std::array::from_fn(|l| p1[l] + b1[l]);
            let r = max_rows(c0, c1);
            *lane_mut::<L, _>(out, j) = r;
            maxs = max_rows(maxs, r);
            surv[j] = (0..L).fold(0u8, |byte, l| byte | (u8::from(c1[l] > c0[l]) << l));
            if MARGINS {
                *lane_mut::<L, _>(margins, h * half + j) =
                    std::array::from_fn(|l| (c1[l] - c0[l]).abs());
            }
        }
    }
    maxs
}

/// One step's branch metrics at one lane for every edge, `[edge][state]`
/// (`bm[e * n_states + s]` for incoming edge `e` of state `s`), shifted
/// down by `shift`: the values [`acs_step_batch`] reads through the output
/// masks at `L = 1`, built from the per-state sign masks of
/// [`CompiledTrellis`] in one straight-line pass over the states per coded
/// bit.
// lint: no_alloc
#[inline(always)]
pub(crate) fn branch_metrics_one(signs: &[i16], step_llrs: &[Llr], shift: i16, bm: &mut [i16]) {
    bm.fill(-shift);
    for (&x, masks) in step_llrs.iter().zip(signs.chunks_exact(bm.len())) {
        // Exact: a soft value within the narrow gate fits an `i16`.
        let x = x as i16;
        for (b, &m) in bm.iter_mut().zip(masks) {
            *b += (x ^ m) - m;
        }
    }
}

/// One forward ACS step at one lane, SIMD across destination states: the
/// arithmetic of [`acs_step_batch`] at `L = 1`, on the branch metrics of
/// [`branch_metrics_one`]. Destinations `j` and `j + half` both read the
/// source pair `(2j, 2j + 1)`, so the step first splits the source column
/// into its even and odd rows (`split`, `[even | odd]`), once for both
/// halves; each destination half is then one loop over equal-length
/// slices, with no index arithmetic for LLVM to bounds-check (indexing
/// `prev[2 * j]` kept these loops scalar). Survivors (`0` or `1`) and
/// margins land where the lane kernels put lane 0's. Returns the new
/// column's maximum.
// lint: no_alloc
#[inline(always)]
pub(crate) fn acs_step_one<const MARGINS: bool>(
    bm: &[i16],
    prev: &[i16],
    split: &mut [i16],
    out: &mut [i16],
    surv: &mut [u8],
    margins: &mut [i16],
) -> i16 {
    let n = out.len();
    let half = n / 2;
    let (even, odd) = split[..n].split_at_mut(half);
    for ((e, o), p) in even
        .iter_mut()
        .zip(odd.iter_mut())
        .zip(prev[..n].chunks_exact(2))
    {
        *e = p[0];
        *o = p[1];
    }
    let (bm0, bm1) = bm.split_at(n);
    let mut max = i16::MIN;
    for (lo, hi) in [(0, half), (half, n)] {
        let candidates = even
            .iter()
            .zip(odd.iter())
            .zip(bm0[lo..hi].iter().zip(&bm1[lo..hi]))
            .map(|((&p0, &p1), (&b0, &b1))| (p0 + b0, p1 + b1));
        let cells = out[lo..hi].iter_mut().zip(&mut surv[lo..hi]);
        if MARGINS {
            for (((o, sv), m), (c0, c1)) in cells.zip(&mut margins[lo..hi]).zip(candidates) {
                *o = c0.max(c1);
                max = max.max(*o);
                *sv = u8::from(c1 > c0);
                *m = (c1 - c0).abs();
            }
        } else {
            for ((o, sv), (c0, c1)) in cells.zip(candidates) {
                *o = c0.max(c1);
                max = max.max(*o);
                *sv = u8::from(c1 > c0);
            }
        }
    }
    max
}

/// One BCJR α step for all lanes (saturating, sentinel-carrying), in the
/// butterfly order of [`acs_step_batch`]. Returns the new column's
/// per-lane maxima.
#[inline]
fn alpha_step_batch<const L: usize>(
    ct: &CompiledTrellis,
    bm: &[i16],
    prev: &[i16],
    out: &mut [i16],
) -> [i16; L] {
    let half = out.len() / (2 * L);
    let prev = &prev[..2 * half * L];
    let (out_lo, out_hi) = out.split_at_mut(half * L);
    let ([m0lo, m0hi], [m1lo, m1hi]) = forward_masks(ct, half);
    let mut maxs = [i16::MIN; L];
    for j in 0..half {
        let (a, b) = (row::<L>(prev, 2 * j), row::<L>(prev, 2 * j + 1));
        let lo = max_log(
            a,
            b,
            &row(bm, usize::from(m0lo[j])),
            &row(bm, usize::from(m1lo[j])),
        );
        let hi = max_log(
            a,
            b,
            &row(bm, usize::from(m0hi[j])),
            &row(bm, usize::from(m1hi[j])),
        );
        *lane_mut::<L, _>(out_lo, j) = lo;
        *lane_mut::<L, _>(out_hi, j) = hi;
        maxs = max_rows(maxs, max_rows(lo, hi));
    }
    maxs
}

/// One BCJR β step for all lanes in butterfly order: source pair
/// `(2j, 2j + 1)` reads the destination pair `(j, j + half)` through the
/// source-indexed output masks. Returns the new column's per-lane maxima.
#[inline]
fn beta_step_batch<const L: usize>(
    ct: &CompiledTrellis,
    bm: &[i16],
    next: &[i16],
    out: &mut [i16],
) -> [i16; L] {
    let half = out.len() / (2 * L);
    let (next_lo, next_hi) = next[..2 * half * L].split_at(half * L);
    let out = &mut out[..2 * half * L];
    let (fout0, fout1) = (&ct.fout0[..2 * half], &ct.fout1[..2 * half]);
    let mut maxs = [i16::MIN; L];
    for j in 0..half {
        let (x, y) = (row::<L>(next_lo, j), row::<L>(next_hi, j));
        for s in [2 * j, 2 * j + 1] {
            let r = max_log(
                x,
                y,
                &row(bm, usize::from(fout0[s])),
                &row(bm, usize::from(fout1[s])),
            );
            *lane_mut::<L, _>(out, s) = r;
            maxs = max_rows(maxs, r);
        }
    }
    maxs
}

/// The BCJR decision maxima for one step, all lanes at once: best
/// `α + branch + β` over input-0 and input-1 transitions, skipping
/// forward-unreachable states per lane exactly as the reference decision
/// unit does. The skip is a blend: an unreachable state contributes the
/// maxima's floor `NEG_INF16` instead of its (saturating) sums.
#[inline]
fn decision_best_batch<const L: usize>(
    ct: &CompiledTrellis,
    bm: &[i16],
    alpha: &[i16],
    beta_after: &[i16],
) -> ([i16; L], [i16; L]) {
    let half = alpha.len() / (2 * L);
    let alpha = &alpha[..2 * half * L];
    let (beta_lo, beta_hi) = beta_after[..2 * half * L].split_at(half * L);
    let (fout0, fout1) = (&ct.fout0[..2 * half], &ct.fout1[..2 * half]);
    let mut best0 = [NEG_INF16; L];
    let mut best1 = [NEG_INF16; L];
    for j in 0..half {
        let (x, y) = (row::<L>(beta_lo, j), row::<L>(beta_hi, j));
        for s in [2 * j, 2 * j + 1] {
            let a = row::<L>(alpha, s);
            let (b0, b1) = (
                row::<L>(bm, usize::from(fout0[s])),
                row::<L>(bm, usize::from(fout1[s])),
            );
            let keep: [i16; L] = std::array::from_fn(|l| mask(a[l] > UNREACHABLE16));
            let m0: [i16; L] = std::array::from_fn(|l| {
                let m = a[l].saturating_add(b0[l]).saturating_add(x[l]);
                (m & keep[l]) | (NEG_INF16 & !keep[l])
            });
            let m1: [i16; L] = std::array::from_fn(|l| {
                let m = a[l].saturating_add(b1[l]).saturating_add(y[l]);
                (m & keep[l]) | (NEG_INF16 & !keep[l])
            });
            best0 = max_rows(best0, m0);
            best1 = max_rows(best1, m1);
        }
    }
    (best0, best1)
}

/// Resets the path-metric columns to the known-state-zero start, one
/// sentinel column per lane.
fn init_columns_batch<const L: usize>(s: &mut BatchScratch, n_states: usize) {
    s.pm.clear();
    s.pm.resize(n_states * L, NEG_INF16);
    s.pm[..L].fill(0);
    s.next.clear();
    s.next.resize(n_states * L, 0);
}

/// Lane `l`'s survivor decision for `state` at step `t` of the lane-mask
/// matrix.
#[inline]
fn winner(surv: &[u8], n_states: usize, t: usize, state: usize, l: usize) -> u8 {
    (surv[t * n_states + state] >> l) & 1
}

/// The shared forward pass of the Viterbi and SOVA kernels: ACS steps,
/// each on branch metrics shifted by the previous column's maxima, SIMD
/// across lanes, or across states at one lane (`acs_step_one`). Fills
/// `s.surv` (and `s.margins` when `MARGINS`); returns the step count.
fn forward_pass_batch<const L: usize, const MARGINS: bool>(
    ct: &CompiledTrellis,
    llrs: &[Llr],
    s: &mut BatchScratch,
) -> usize {
    let n_out = ct.n_out();
    let n_states = ct.n_states();
    let steps = llrs.len() / (n_out * L);

    init_columns_batch::<L>(s, n_states);
    s.surv.clear();
    s.surv.resize(steps * n_states, 0);
    let margin_row = if MARGINS { n_states * L } else { 0 };
    s.margins.clear();
    s.margins.resize(steps * margin_row, 0);
    s.bm.clear();
    if L == 1 {
        s.bm.resize(2 * n_states, 0);
        s.split.clear();
        s.split.resize(n_states, 0);
        let mut shift = 0i16;
        for (step, step_llrs) in llrs.chunks_exact(n_out).enumerate() {
            branch_metrics_one(&ct.signs, step_llrs, shift, &mut s.bm);
            let surv = &mut s.surv[step * n_states..(step + 1) * n_states];
            let margins = &mut s.margins[step * margin_row..(step + 1) * margin_row];
            shift = acs_step_one::<MARGINS>(&s.bm, &s.pm, &mut s.split, &mut s.next, surv, margins);
            std::mem::swap(&mut s.pm, &mut s.next);
        }
        return steps;
    }
    s.bm.resize((1 << n_out) * L, 0);
    // The start column's maximum (state zero's 0).
    let mut shift = [0i16; L];
    for step in 0..steps {
        branch_rows::<L>(llrs, step, n_out, shift, &mut s.bm);
        let surv = &mut s.surv[step * n_states..(step + 1) * n_states];
        let margins = &mut s.margins[step * margin_row..(step + 1) * margin_row];
        shift = acs_step_batch::<L, MARGINS>(ct, &s.bm, &s.pm, &mut s.next, surv, margins);
        std::mem::swap(&mut s.pm, &mut s.next);
    }
    steps
}

/// Lockstep Viterbi over `L` lanes: shared forward pass, per-lane
/// traceback from state zero (the frame is terminated).
// lint: no_alloc
fn viterbi_kernel<const L: usize>(
    ct: &CompiledTrellis,
    tail_len: usize,
    llrs: &[Llr],
    s: &mut BatchScratch,
    outs: &mut [DecodeOutput],
) {
    let steps = forward_pass_batch::<L, false>(ct, llrs, s);
    let n_states = ct.n_states();
    let info = steps - tail_len;
    for (l, out) in outs.iter_mut().enumerate() {
        out.bits.clear();
        out.bits.resize(steps, 0);
        let mut state = 0usize;
        for t in (0..steps).rev() {
            let (bit, prev) = ct.traceback_edge(state, winner(&s.surv, n_states, t, state, l));
            out.bits[t] = bit;
            state = prev;
        }
        out.bits.truncate(info);
        out.soft.clear();
        out.soft.resize(info, 0);
    }
}

/// Lockstep SOVA over `L` lanes: the shared forward pass with lane-major
/// margins, TU1 for every lane in lockstep, then TU2's Hagenauer update:
/// by register exchange at one lane with `k ≤ 64`, by lockstep competitor
/// traces otherwise (see the module docs for why both equal the
/// reference's serial traces).
// lint: no_alloc
fn sova_kernel<const L: usize>(
    ct: &CompiledTrellis,
    tail_len: usize,
    k: usize,
    llrs: &[Llr],
    s: &mut BatchScratch,
    outs: &mut [DecodeOutput],
) {
    let steps = forward_pass_batch::<L, true>(ct, llrs, s);
    ml_paths::<L>(ct, steps, s);
    s.reliability.clear();
    s.reliability.resize(steps * L, i32::MAX);
    if L == 1 && k <= 64 {
        tu2_register_exchange(ct, k, steps, s);
    } else {
        tu2_lockstep::<L>(ct, k, steps, s);
    }

    let info = steps - tail_len;
    let (ml_bits, reliability) = (&s.ml_bits, &s.reliability);
    for (l, out) in outs.iter_mut().enumerate() {
        out.bits.clear();
        out.bits.extend((0..info).map(|t| ml_bits[t * L + l]));
        out.soft.clear();
        out.soft.extend((0..info).map(|t| {
            let mag = reliability[t * L + l];
            if ml_bits[t * L + l] == 1 {
                mag
            } else {
                -mag
            }
        }));
    }
}

/// TU1 for every lane in lockstep: each lane's ML state sequence and input
/// bits off the lane-mask survivors, `[step][lane]`. The frame is
/// terminated, so every lane's path ends in state zero; `ml_states` row
/// `t` is the state entering step `t`.
// lint: no_alloc
fn ml_paths<const L: usize>(ct: &CompiledTrellis, steps: usize, s: &mut BatchScratch) {
    let n_states = ct.n_states();
    s.ml_states.clear();
    s.ml_states.resize((steps + 1) * L, 0);
    s.ml_bits.clear();
    s.ml_bits.resize(steps * L, 0);
    let BatchScratch {
        surv,
        ml_states,
        ml_bits,
        ..
    } = s;
    for t in (0..steps).rev() {
        for l in 0..L {
            let state = usize::from(ml_states[(t + 1) * L + l]);
            let (bit, prev) = ct.traceback_edge(state, winner(surv, n_states, t, state, l));
            ml_bits[t * L + l] = bit;
            ml_states[t * L + l] = prev as u16;
        }
    }
}

/// TU2 at one lane for a window `k ≤ 64`, by register exchange: one
/// forward pass over the stored survivors keeps, per state, the last 64
/// input bits of the survivor path into it. At step `t` the competitor
/// into the ML state is the loser edge from `loser_prev` followed by the
/// survivor path into `loser_prev`, and the ML path's earlier bits are the
/// survivor path into `ml_states[t]`, so their disagreements over the
/// window are the set bits of `R[loser_prev] ^ R[ml_states[t]]` below
/// `min(k, t)`: bit `j` is step `t - 1 - j`. Past the point where the two
/// paths merge they follow the same survivors, so those bits are zero,
/// which is where the reference's trace stops. Every step costs one
/// SIMD pass over the states and one `min` per disagreement, where the
/// serial trace walks up to `k` dependent loads.
// lint: no_alloc
fn tu2_register_exchange(ct: &CompiledTrellis, k: usize, steps: usize, s: &mut BatchScratch) {
    let n_states = ct.n_states();
    let half = n_states / 2;
    let BatchScratch {
        surv,
        margins,
        ml_states,
        reliability,
        regs,
        regs_next,
        ..
    } = s;
    regs.clear();
    regs.resize(n_states, 0);
    regs_next.clear();
    regs_next.resize(n_states, 0);
    // The `k` newest bits; `k ≥ 1` (the decoder's windows are positive).
    let window = u64::MAX >> (64 - k);
    for t in 0..steps {
        let s_next = usize::from(ml_states[t + 1]);
        let w = usize::from(surv[t * n_states + s_next]);
        let margin = i32::from(margins[t * n_states + s_next]);
        // The loser edge's source; both edges into `s_next` carry its input
        // bit, so the loser never disagrees at step `t` itself.
        let loser_prev = ((s_next << 1) & (n_states - 1)) | (1 - w);
        // Steps before 0 hold no bits: `t < k ≤ 64` keeps the shift in range.
        let in_window = if t >= k { window } else { (1u64 << t) - 1 };
        let mut diff = (regs[loser_prev] ^ regs[usize::from(ml_states[t])]) & in_window;
        while diff != 0 {
            let r = &mut reliability[t - 1 - diff.trailing_zeros() as usize];
            *r = (*r).min(margin);
            diff &= diff - 1;
        }

        // Advance every register one step: destinations `j` and `j + half`
        // both read the source pair `(2j, 2j + 1)` (the butterfly shape),
        // each takes the source its survivor names, and `j + half` is
        // entered on input 1.
        let (next_lo, next_hi) = regs_next.split_at_mut(half);
        let (d_lo, d_hi) = surv[t * n_states..(t + 1) * n_states].split_at(half);
        for (((lo, hi), (&w_lo, &w_hi)), pair) in next_lo
            .iter_mut()
            .zip(next_hi)
            .zip(d_lo.iter().zip(d_hi))
            .zip(regs.chunks_exact(2))
        {
            let (even, odd) = (pair[0] << 1, pair[1] << 1);
            let flip = even ^ odd;
            *lo = even ^ (flip & 0u64.wrapping_sub(u64::from(w_lo)));
            *hi = (even ^ (flip & 0u64.wrapping_sub(u64::from(w_hi)))) | 1;
        }
        std::mem::swap(regs, regs_next);
    }
}

/// TU2 for every lane in lockstep, for batches and for windows `k > 64`:
/// at step `t` each lane starts its competitor trace at its loser edge,
/// and all lanes walk back one step at a time together, branch-free, until
/// every lane's competitor has merged with its ML path or the window ends.
///
/// The walk uses the butterfly shape instead of the edge table: the
/// survivor `w` into `state` comes from `2·(state mod half) + w`, and the
/// edge's input bit is `state`'s top bit, so a competitor disagrees with
/// the ML path at step `i` where its state after `i` and `ml_states[i + 1]`
/// differ in the top bit. A lane whose competitor has merged walks on
/// along its ML path, where no state differs, so it lowers nothing more:
/// exactly where the reference's serial trace stops. Every lane reads the
/// same row of survivor bytes, and all other per-lane work is lane-wise
/// arithmetic on `[_; L]` rows.
// lint: no_alloc
fn tu2_lockstep<const L: usize>(
    ct: &CompiledTrellis,
    k: usize,
    steps: usize,
    s: &mut BatchScratch,
) {
    let n_states = ct.n_states();
    // Both fit: a code has at most 2¹⁵ states.
    let (low, top) = ((n_states - 1) as u16, (n_states / 2) as u16);
    let BatchScratch {
        surv,
        margins,
        ml_states,
        reliability,
        ..
    } = s;
    let ml = |i: usize| -> [u16; L] { *lane::<L, _>(ml_states, i) };
    for t in 0..steps {
        let decisions = &surv[t * n_states..(t + 1) * n_states];
        let s_next = ml(t + 1);
        let margin: [i32; L] = std::array::from_fn(|l| {
            i32::from(margins[(t * n_states + usize::from(s_next[l])) * L + l])
        });
        // Each lane's competitor state after step `t - 1`: the loser edge's
        // source. Both edges into a state carry its input bit, so the loser
        // never disagrees at step `t` itself.
        let mut state: [u16; L] = std::array::from_fn(|l| {
            let w = u16::from((decisions[usize::from(s_next[l])] >> l) & 1);
            ((s_next[l] << 1) & low) | (1 - w)
        });
        let mut ml_after = ml(t);
        for i in (t.saturating_sub(k)..t).rev() {
            let decisions = &surv[i * n_states..(i + 1) * n_states];
            let w: [u16; L] =
                std::array::from_fn(|l| u16::from((decisions[usize::from(state[l])] >> l) & 1));
            let rel = lane_mut::<L, _>(reliability, i);
            *rel = std::array::from_fn(|l| {
                let differs = (state[l] ^ ml_after[l]) & top != 0;
                rel[l].min(if differs { margin[l] } else { i32::MAX })
            });
            state = std::array::from_fn(|l| ((state[l] << 1) & low) | w[l]);
            ml_after = ml(i);
            if state == ml_after {
                break;
            }
        }
    }
}

/// Lockstep sliding-window BCJR over `L` lanes: both recursions, the
/// provisional backward pass, and the decision unit all carry one value
/// per lane. Every α and β column is normalized where the reference kernel
/// normalizes it, through the shifted branch metrics of the step that
/// reads it; the stored columns are one step past normalized, which changes
/// no `best1 - best0` difference. Each step's metrics are recomputed from
/// the soft inputs for each of the three passes that read them, which
/// costs less than storing a window of them.
// lint: no_alloc
fn bcjr_kernel<const L: usize>(
    ct: &CompiledTrellis,
    tail_len: usize,
    block_len: usize,
    llrs: &[Llr],
    s: &mut BatchScratch,
    outs: &mut [DecodeOutput],
) {
    let n_out = ct.n_out();
    let n_states = ct.n_states();
    let steps = llrs.len() / (n_out * L);

    init_columns_batch::<L>(s, n_states);
    let BatchScratch {
        pm: alpha,
        next: next_alpha,
        bm,
        betas,
        boundary,
        col,
        ..
    } = s;
    for out in outs.iter_mut() {
        out.bits.clear();
        out.soft.clear();
    }

    let row_len = n_states * L;
    bm.clear();
    bm.resize((1 << n_out) * L, 0);
    // The start column's maximum (state zero's 0).
    let mut alpha_shift = [0i16; L];
    let mut t0 = 0usize;
    while t0 < steps {
        let t1 = (t0 + block_len).min(steps);
        let mut boundary_shift = [0i16; L];
        if t1 == steps {
            // Terminated frame: every lane's path ends in state zero.
            boundary.clear();
            boundary.resize(row_len, NEG_INF16);
            boundary[..L].fill(0);
        } else {
            // Provisional backward pass over the next block from the
            // uniform "uncertain" column, keeping only the column at t1.
            let t2 = (t1 + block_len).min(steps);
            boundary.clear();
            boundary.resize(row_len, 0);
            col.clear();
            col.resize(row_len, 0);
            for t in (t1..t2).rev() {
                branch_rows::<L>(llrs, t, n_out, boundary_shift, bm);
                boundary_shift = beta_step_batch::<L>(ct, bm, boundary, col);
                std::mem::swap(boundary, col);
            }
        }
        betas.clear();
        betas.resize((t1 - t0) * row_len, 0);
        let len = t1 - t0;
        let mut after_shift = boundary_shift;
        for local in (0..len).rev() {
            branch_rows::<L>(llrs, t0 + local, n_out, after_shift, bm);
            let (head, tail) = betas.split_at_mut((local + 1) * row_len);
            let after: &[i16] = if local + 1 < len {
                &tail[..row_len]
            } else {
                boundary
            };
            after_shift = beta_step_batch::<L>(ct, bm, after, &mut head[local * row_len..]);
        }

        for t in t0..t1 {
            let beta_after: &[i16] = if t + 1 < t1 {
                &betas[(t + 1 - t0) * row_len..(t + 2 - t0) * row_len]
            } else {
                boundary
            };
            // The decision unit and the α step both read α through the
            // same shifted metrics.
            branch_rows::<L>(llrs, t, n_out, alpha_shift, bm);
            let (best0, best1) = decision_best_batch::<L>(ct, bm, alpha, beta_after);
            for (l, out) in outs.iter_mut().enumerate() {
                // Widened before the subtraction, so the difference of two
                // narrow maxima is exact.
                let llr = i32::from(best1[l]) - i32::from(best0[l]);
                out.bits.push(u8::from(llr > 0));
                out.soft.push(llr);
            }
            alpha_shift = alpha_step_batch::<L>(ct, bm, alpha, next_alpha);
            std::mem::swap(alpha, next_alpha);
        }
        t0 = t1;
    }

    let info = steps - tail_len;
    for out in outs.iter_mut() {
        out.bits.truncate(info);
        out.soft.truncate(info);
    }
}

/// Dispatches a runtime lane count onto the monomorphized kernels.
macro_rules! dispatch_lanes {
    ($lanes:expr, $kernel:ident ( $($arg:expr),* $(,)? )) => {
        match $lanes {
            1 => $kernel::<1>($($arg),*),
            2 => $kernel::<2>($($arg),*),
            3 => $kernel::<3>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            5 => $kernel::<5>($($arg),*),
            6 => $kernel::<6>($($arg),*),
            7 => $kernel::<7>($($arg),*),
            8 => $kernel::<8>($($arg),*),
            n => unreachable!("lane count {n} exceeds MAX_LANES"),
        }
    };
}
pub(crate) use dispatch_lanes;

/// The lane kernels' one entry: the decoder's `KIND` (see
/// `crate::shell`) picks the kernel, and the runtime lane count picks its
/// monomorphized width. `window` is the kernel's window parameter.
pub(crate) fn decode_lanes<const KIND: u8>(
    ct: &CompiledTrellis,
    tail_len: usize,
    window: usize,
    llrs: &[Llr],
    lanes: usize,
    s: &mut BatchScratch,
    outs: &mut [DecodeOutput],
) {
    match KIND {
        VITERBI => dispatch_lanes!(lanes, viterbi_kernel(ct, tail_len, llrs, s, outs)),
        SOVA => dispatch_lanes!(lanes, sova_kernel(ct, tail_len, window, llrs, s, outs)),
        _ => dispatch_lanes!(lanes, bcjr_kernel(ct, tail_len, window, llrs, s, outs)),
    }
}
