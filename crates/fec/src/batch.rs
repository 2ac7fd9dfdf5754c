//! The lane kernels: every in-gate decode, solo or batched, walks the
//! trellis here, on `i16` metrics laid out structure-of-arrays so the lane
//! axis becomes SIMD.
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
//! * survivors — one lane-mask byte per `(step, state)`, bit `l` holding
//!   lane `l`'s decision: `surv[t * n_states + s]`. The ACS step builds the
//!   byte from the row of lane compares in one go; each lane's traceback
//!   reads bit `l`.
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
//! the derivation is on that method), for codes of any state count. A solo
//! decode within the gate runs here at one lane: a contiguous block is
//! already lane-major for one lane. A solo block with any larger soft
//! value decodes on the reference kernels, and a batch with one, or with
//! more than [`MAX_LANES`] lanes, decodes lane by lane through the solo
//! path. Nothing else selects a width: the lane kernels are `i16` only.
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
    /// One step's shifted branch metrics, `[pattern][lane]`.
    bm: Vec<i16>,
    /// ACS margins, `[step][state][lane]` (SOVA).
    margins: Vec<i16>,
    /// Per-step reliabilities along one lane's ML path (SOVA; lanes trace
    /// back serially, so one column is reused across lanes).
    reliability: Vec<i32>,
    /// One lane's ML state sequence, `steps + 1` entries (SOVA).
    ml_states: Vec<u32>,
    /// One lane's ML input bits (SOVA).
    ml_bits: Vec<u8>,
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
pub(crate) fn acs_step_batch<const L: usize, const MARGINS: bool>(
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

/// The shared forward pass of the batched Viterbi and SOVA kernels: ACS
/// steps, each on branch metrics shifted by the previous column's maxima.
/// Fills `s.surv` (and `s.margins` when `MARGINS`); returns the step count.
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

/// Lockstep SOVA over `L` lanes: shared forward pass with lane-major
/// margins, then the two serial traceback units per lane (TU1 ML path,
/// TU2 Hagenauer reliability update).
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
    let n_states = ct.n_states();
    let surv = &s.surv;
    let margins = &s.margins;
    let info = steps - tail_len;
    for (l, out) in outs.iter_mut().enumerate() {
        // TU1: this lane's ML state sequence off the lane-mask survivors.
        s.ml_states.clear();
        s.ml_states.resize(steps + 1, 0);
        s.ml_bits.clear();
        s.ml_bits.resize(steps, 0);
        let (ml_states, ml_bits) = (&mut s.ml_states, &mut s.ml_bits);
        for t in (0..steps).rev() {
            let state = ml_states[t + 1] as usize;
            let (bit, prev) = ct.traceback_edge(state, winner(surv, n_states, t, state, l));
            ml_bits[t] = bit;
            ml_states[t] = prev as u32;
        }

        // TU2: Hagenauer-rule reliability update, the reference kernel's
        // control flow with lane-strided survivor/margin reads.
        s.reliability.clear();
        s.reliability.resize(steps, i32::MAX);
        let reliability = &mut s.reliability;
        for t in 0..steps {
            let s_next = ml_states[t + 1] as usize;
            let w = winner(surv, n_states, t, s_next, l);
            let margin = i32::from(margins[(t * n_states + s_next) * L + l]);
            let (loser_bit, loser_prev) = ct.traceback_edge(s_next, 1 - w);
            if loser_bit != ml_bits[t] && margin < reliability[t] {
                reliability[t] = margin;
            }
            let mut state = loser_prev;
            let window_start = t.saturating_sub(k);
            for i in (window_start..t).rev() {
                let (bit, prev) = ct.traceback_edge(state, winner(surv, n_states, i, state, l));
                if bit != ml_bits[i] && margin < reliability[i] {
                    reliability[i] = margin;
                }
                state = prev;
                if state == ml_states[i] as usize {
                    break;
                }
            }
        }

        out.bits.clear();
        out.bits.extend_from_slice(&ml_bits[..info]);
        out.soft.clear();
        out.soft.extend((0..info).map(|t| {
            let mag = reliability[t];
            if ml_bits[t] == 1 {
                mag
            } else {
                -mag
            }
        }));
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

/// Batched Viterbi entry point (lane-count dispatch).
pub(crate) fn viterbi_batch(
    ct: &CompiledTrellis,
    tail_len: usize,
    llrs: &[Llr],
    lanes: usize,
    s: &mut BatchScratch,
    outs: &mut [DecodeOutput],
) {
    dispatch_lanes!(lanes, viterbi_kernel(ct, tail_len, llrs, s, outs));
}

/// Batched SOVA entry point (lane-count dispatch).
pub(crate) fn sova_batch(
    ct: &CompiledTrellis,
    tail_len: usize,
    k: usize,
    llrs: &[Llr],
    lanes: usize,
    s: &mut BatchScratch,
    outs: &mut [DecodeOutput],
) {
    dispatch_lanes!(lanes, sova_kernel(ct, tail_len, k, llrs, s, outs));
}

/// Batched BCJR entry point (lane-count dispatch).
pub(crate) fn bcjr_batch(
    ct: &CompiledTrellis,
    tail_len: usize,
    block_len: usize,
    llrs: &[Llr],
    lanes: usize,
    s: &mut BatchScratch,
    outs: &mut [DecodeOutput],
) {
    dispatch_lanes!(lanes, bcjr_kernel(ct, tail_len, block_len, llrs, s, outs));
}
