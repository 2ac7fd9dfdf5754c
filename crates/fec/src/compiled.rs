//! The compiled trellis: flat structure-of-arrays butterfly tables and the
//! branchless `i32` step kernels every decoder's hot path runs on.
//!
//! [`crate::Trellis`] is the *specification* of the transition graph —
//! per-state edge structs, convenient to inspect, slow to walk. At decoder
//! construction it is lowered once into a [`CompiledTrellis`]: flat
//! arrays of source states and output masks indexed by destination state,
//! a packed edge table for branchless traceback, plus the mirrored
//! source-indexed arrays for the backward recursion. The hot
//! Add-Compare-Select kernels then run over plain
//! `u32`/`u8` tables in butterfly order — no struct field chasing, no
//! `Option` plumbing, no per-edge branches — on `i32` path metrics with
//! periodic renormalization instead of the reference kernels' wide `i64`
//! saturating arithmetic.
//!
//! **Bit-identity contract.** For any input whose soft values satisfy
//! [`fast_path_ok`] (|LLR| ≤ [`FAST_LLR_LIMIT`], which covers every
//! demapper in this workspace by orders of magnitude), the compiled
//! kernels produce *exactly* the hard bits, survivor decisions, ACS
//! margins, and saturated soft outputs of the `i64` reference kernels in
//! [`crate::pmu`]. Three facts make this exact rather than approximate:
//!
//! 1. Every decoder decision is a function of *differences* of path
//!    metrics within one column, never of absolute values, so the uniform
//!    column shifts of [`renormalize_uniform`] are invisible.
//! 2. Unreachable-state sentinels only exist for the first `K-1` steps of
//!    a terminated frame (the trellis fully connects after `memory`
//!    steps); those warmup steps run a sentinel-aware variant that
//!    reproduces the reference kernel's sentinel arithmetic — including
//!    its effectively infinite margins, which map to [`HUGE_MARGIN`] and
//!    saturate to the same `i32::MAX` soft output.
//! 3. With |LLR| ≤ 2¹⁶ and at most 8 coded bits per step, branch metrics
//!    are below 2¹⁹ and the renormalized metric spread stays below 2²⁶,
//!    so no `i32` ever wraps between renormalizations. On the narrow path,
//!    the `i16` batched kernels of [`crate::batch`], the same holds behind
//!    a per-code gate, [`CompiledTrellis::narrow_llr_limit`] (its docs
//!    carry the derivation). At or below it no `i16` wraps and no genuine
//!    metric saturates, sentinels stay apart from genuine metrics, and
//!    every genuine margin stays below the `i16` image of
//!    [`HUGE_MARGIN`]. The narrow kernels therefore compute the same
//!    differences, decisions and margins as the `i32` ones.
//!
//! Inputs outside [`fast_path_ok`] take the frozen reference path
//! (each decoder's `decode_terminated_reference_into`), preserving exact
//! behavior for pathological LLRs.

use crate::llr::Llr;
use crate::pmu::NEG_INF32;
use crate::trellis::Trellis;
use crate::ConvCode;

/// Largest soft-input magnitude the compiled `i32` kernels accept; larger
/// inputs fall back to the `i64` reference kernels. Every demapper in this
/// workspace emits ≤ 8-bit LLRs, so real traffic always takes the fast
/// path.
pub const FAST_LLR_LIMIT: u32 = 1 << 16;

/// Renormalization cadence of the compiled forward kernels, in trellis
/// steps. With branch metrics bounded by `8 * FAST_LLR_LIMIT` the metric
/// drift over one interval stays below 2²⁶ — far from `i32` saturation.
pub const NORM_INTERVAL: usize = 64;

/// The margin recorded when an ACS decision beats an unreachable-state
/// competitor: the `i32` image of the reference kernels' astronomically
/// large sentinel margins. Both saturate to the same `Llr::MAX` soft
/// output, and both lose every `min` against a genuine margin.
pub const HUGE_MARGIN: i32 = i32::MAX;

/// Threshold separating genuine path metrics from unreachable-state
/// sentinels in the warmup steps (mirrors `pmu::NEG_INF / 2` in `i32`).
const UNREACHABLE32: i32 = NEG_INF32 / 2;

/// The `i16` image of [`NEG_INF32`]: the unreachable-state sentinel of the
/// narrow batched kernels ([`crate::batch`]).
pub(crate) const NEG_INF16: i16 = -(1 << 14);

/// Threshold separating genuine narrow metrics from sentinel-derived ones
/// (the `i16` image of `NEG_INF32 / 2`).
pub(crate) const UNREACHABLE16: i16 = NEG_INF16 / 2;

/// The `i16` image of [`HUGE_MARGIN`]. Under the narrow gate every genuine
/// margin is below it, so [`widen_margin`] maps it back to `HUGE_MARGIN`
/// and every other margin to itself.
pub(crate) const HUGE_MARGIN16: i16 = i16::MAX;

/// An `i16` margin of the narrow kernels read back as the `i32` margin the
/// compiled kernels record.
#[inline]
pub(crate) fn widen_margin(m: i16) -> i32 {
    if m == HUGE_MARGIN16 {
        HUGE_MARGIN
    } else {
        i32::from(m)
    }
}

/// The narrow gate of a code of `memory` delay elements and `n_out` coded
/// bits per step; see [`CompiledTrellis::narrow_llr_limit`].
pub(crate) const fn narrow_llr_limit_for(memory: u32, n_out: usize) -> u32 {
    let per_g = (2 * memory as usize + 1) * n_out;
    (((1 << 13) - 1) / per_g) as u32
}

// The 8-bit Viterbi demap (|LLR| ≤ 127) and the 4/5-bit hint path must
// both take the narrow kernels on the 802.11 code.
const _: () = assert!(narrow_llr_limit_for(6, 2) >= 127);

/// Whether a soft-input block is eligible for the compiled `i32` kernels.
///
/// # Example
///
/// ```
/// use wilis_fec::compiled::{fast_path_ok, FAST_LLR_LIMIT};
///
/// assert!(fast_path_ok(&[7, -31, 0]));
/// assert!(!fast_path_ok(&[7, FAST_LLR_LIMIT as i32 + 1]));
/// ```
pub fn fast_path_ok(llrs: &[Llr]) -> bool {
    llrs.iter().all(|l| l.unsigned_abs() <= FAST_LLR_LIMIT)
}

/// Subtracts the column maximum from **every** entry — the uniform-shift
/// renormalization of the compiled forward kernels. Unlike
/// [`crate::pmu::normalize`] this shifts unconditionally, which is exact
/// for the post-warmup columns (no sentinels remain) and preserves every
/// within-column difference bit-for-bit.
pub fn renormalize_uniform(column: &mut [i32]) {
    let max = column.iter().copied().max().unwrap_or(0);
    for m in column {
        *m -= max;
    }
}

/// A [`Trellis`] lowered into flat structure-of-arrays butterfly tables.
///
/// Shared across decoders via `Arc`: the scenario engine builds one
/// compiled trellis per code and hands clones of the handle to every
/// decoder instance (all rates, the oracle's receiver bank, …) instead of
/// rebuilding the tables per decoder.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use wilis_fec::{CompiledTrellis, ConvCode, ViterbiDecoder};
///
/// let shared = Arc::new(CompiledTrellis::new(&ConvCode::ieee80211()));
/// assert_eq!(shared.n_states(), 64);
/// assert_eq!(shared.words_per_step(), 1); // survivors pack into one u64
/// let _dec = ViterbiDecoder::with_shared_trellis(Arc::clone(&shared));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledTrellis {
    code: ConvCode,
    trellis: Trellis,
    /// Source state of incoming edge 0/1, indexed by destination state.
    /// Edge order matches [`Trellis::incoming`] exactly, so survivor
    /// indices recorded by the kernels mean the same thing in both worlds.
    pub(crate) prev0: Vec<u32>,
    pub(crate) prev1: Vec<u32>,
    /// Output bitmask of incoming edge 0/1, indexed by destination state.
    pub(crate) omask0: Vec<u8>,
    pub(crate) omask1: Vec<u8>,
    /// Incoming edges packed for branchless traceback, indexed
    /// `state * 2 + winner`: source state in the low 16 bits, input bit in
    /// bit 16. One indexed load per traceback step — no data-dependent
    /// branching on the survivor bit.
    pub(crate) edges: Vec<u32>,
    /// Destination state on input 0/1, indexed by source state (the
    /// backward recursion's tables).
    pub(crate) next0: Vec<u32>,
    pub(crate) next1: Vec<u32>,
    /// Output bitmask on input 0/1, indexed by source state.
    pub(crate) fout0: Vec<u8>,
    pub(crate) fout1: Vec<u8>,
    /// Whether the tables have the shift-register butterfly shape
    /// (`prev0[s] = 2·(s mod half)`, `prev1 = prev0 + 1`,
    /// `next0[s] = s/2`, `next1[s] = half + s/2`): destination pair
    /// `(j, j + half)` reads the *sequential* source pair `(2j, 2j+1)`,
    /// so the hot kernels stream both metric columns with no
    /// data-dependent gathers at all. True for every [`Trellis`] this
    /// repository builds; the generic kernels remain as the fallback.
    pub(crate) butterfly: bool,
    /// See [`CompiledTrellis::narrow_llr_limit`].
    narrow_llr_limit: u32,
}

impl CompiledTrellis {
    /// Lowers `code`'s trellis into butterfly tables.
    pub fn new(code: &ConvCode) -> Self {
        let trellis = Trellis::new(code);
        let n = trellis.n_states();
        let mut prev0 = Vec::with_capacity(n);
        let mut prev1 = Vec::with_capacity(n);
        let mut omask0 = Vec::with_capacity(n);
        let mut omask1 = Vec::with_capacity(n);
        let mut next0 = Vec::with_capacity(n);
        let mut next1 = Vec::with_capacity(n);
        let mut fout0 = Vec::with_capacity(n);
        let mut fout1 = Vec::with_capacity(n);
        let mut edges = Vec::with_capacity(n * 2);
        for s in 0..n {
            let [e0, e1] = trellis.incoming(s);
            prev0.push(u32::from(e0.prev));
            prev1.push(u32::from(e1.prev));
            omask0.push(e0.output);
            omask1.push(e1.output);
            edges.push(u32::from(e0.prev) | (u32::from(e0.input) << 16));
            edges.push(u32::from(e1.prev) | (u32::from(e1.input) << 16));
            let t0 = trellis.next(s, 0);
            let t1 = trellis.next(s, 1);
            next0.push(u32::from(t0.next));
            next1.push(u32::from(t1.next));
            fout0.push(t0.output);
            fout1.push(t1.output);
        }
        let half = n / 2;
        let butterfly = half > 0
            && (0..n).all(|s| {
                prev0[s] as usize == 2 * (s % half)
                    && prev1[s] == prev0[s] + 1
                    && next0[s] as usize == s / 2
                    && next1[s] as usize == half + s / 2
            });
        let narrow_llr_limit = narrow_llr_limit_for(code.memory(), code.n_out());
        Self {
            code: code.clone(),
            trellis,
            prev0,
            prev1,
            omask0,
            omask1,
            edges,
            next0,
            next1,
            fout0,
            fout1,
            butterfly,
            narrow_llr_limit,
        }
    }

    /// Largest |LLR| the narrow `i16` batched kernels accept for this code,
    /// computed once from its memory and `n_out`. A batch with any larger
    /// soft value decodes lane by lane on the scalar kernels instead.
    ///
    /// Let `m = memory`, `G` the gate, `B = n_out · G` the largest branch
    /// metric magnitude and `S = 2·m·B`. The batched kernels normalize every
    /// step by shifting the branch metrics down by the previous column's
    /// per-lane maximum (see [`crate::batch`]), so every stored column is one
    /// step past a normalized one.
    ///
    /// * **Metric spread.** Every state reaches every other in exactly `m`
    ///   steps, so each genuine metric of a column is within `m·B` of the best
    ///   metric `m` steps earlier (or of the start, within the first `m`
    ///   steps): two genuine metrics of one column differ by at most `S`. A
    ///   normalized column lies in `[-S, 0]`; a stored column and every ACS
    ///   candidate in `[-(S + B), B]`; a stored column's maximum in `[-B, B]`,
    ///   so shifted branch metrics lie in `[-2B, 2B]`.
    /// * **Decision sums.** Normalized `α`, plus a branch metric, plus a
    ///   stored `β` lies in `[-(2S + 2B), 2B]`.
    /// * **Sentinel headroom.** Sentinels start at `NEG_INF16 = -2¹⁴` and move
    ///   by a shifted branch metric per step for at most `m` steps, after which
    ///   every state is reachable: they stay within `[-2¹⁴ - 2m·B, -2¹⁴ + 2m·B]`.
    ///
    /// The gate is the largest `G` with `S + B < 2¹³`, i.e.
    /// `(2m + 1) · n_out · G ≤ 2¹³ - 1`. Then genuine metrics stay above
    /// `UNREACHABLE16 = -2¹³` and sentinel-derived ones below it; decision sums
    /// stay above `NEG_INF16`, the decision unit's floor; no plain `i16` add
    /// wraps, including the warmup margin between a genuine and a sentinel
    /// candidate (below `2¹⁴ + 2¹³`); and every genuine ACS margin (at most
    /// `S + 2B < 2¹⁴`) stays below `HUGE_MARGIN16`.
    ///
    /// # Example
    ///
    /// ```
    /// use wilis_fec::{CompiledTrellis, ConvCode};
    ///
    /// // The 802.11 code (m = 6, n_out = 2) admits every 8-bit demapper LLR.
    /// let ct = CompiledTrellis::new(&ConvCode::ieee80211());
    /// assert_eq!(ct.narrow_llr_limit(), 315);
    /// ```
    pub fn narrow_llr_limit(&self) -> u32 {
        self.narrow_llr_limit
    }

    /// Whether a lane-major block may take the narrow batched kernels:
    /// every soft value within [`CompiledTrellis::narrow_llr_limit`], on
    /// tables of the butterfly shape those kernels walk (every trellis this
    /// repository builds has it).
    pub(crate) fn narrow_path_ok(&self, llrs: &[Llr]) -> bool {
        self.butterfly
            && llrs
                .iter()
                .all(|l| l.unsigned_abs() <= self.narrow_llr_limit)
    }

    /// The incoming edge `(input_bit, source_state)` selected by `winner`
    /// into `state` — the branchless traceback load.
    #[inline]
    pub(crate) fn traceback_edge(&self, state: usize, winner: u8) -> (u8, usize) {
        let e = self.edges[state * 2 + usize::from(winner)];
        ((e >> 16) as u8, (e & 0xFFFF) as usize)
    }

    /// The code these tables were compiled from.
    pub fn code(&self) -> &ConvCode {
        &self.code
    }

    /// The specification-form trellis (used by the reference kernels).
    pub fn trellis(&self) -> &Trellis {
        &self.trellis
    }

    /// Number of trellis states per column.
    pub fn n_states(&self) -> usize {
        self.trellis.n_states()
    }

    /// Coded bits per trellis step.
    pub fn n_out(&self) -> usize {
        self.trellis.n_out()
    }

    /// `u64` words per step of the bit-packed survivor matrix: 1 for every
    /// code up to 64 states (the 802.11 `K = 7` case), `⌈n_states / 64⌉`
    /// beyond.
    pub fn words_per_step(&self) -> usize {
        self.n_states().div_ceil(64)
    }

    /// The survivor decision recorded for `state` at step `t` of a packed
    /// matrix with [`CompiledTrellis::words_per_step`] words per step.
    #[inline]
    pub(crate) fn survivor_bit(&self, words: &[u64], wps: usize, t: usize, state: usize) -> u8 {
        ((words[t * wps + (state >> 6)] >> (state & 63)) & 1) as u8
    }

    /// One branchless forward ACS step: path metrics only, survivors
    /// bit-packed into `surv` (one bit per state, `words_per_step` words).
    /// Valid only once every state is reachable (post-warmup).
    #[inline]
    pub(crate) fn forward_step_viterbi(
        &self,
        bm: &[i32],
        prev: &[i32],
        out: &mut [i32],
        surv: &mut [u64],
    ) {
        debug_assert_eq!(out.len(), self.n_states());
        debug_assert_eq!(surv.len(), self.words_per_step());
        let n = self.n_states();
        if self.butterfly && n <= 64 {
            // Streaming butterfly form: destination pair (j, j + half)
            // consumes the sequential source pair (2j, 2j+1) — no
            // gathers, one register-resident survivor word.
            let half = n / 2;
            let (lo, hi) = out.split_at_mut(half);
            let (m0lo, m0hi) = self.omask0.split_at(half);
            let (m1lo, m1hi) = self.omask1.split_at(half);
            let sel = bm.len() - 1;
            let mut word = 0u64;
            for (j, pair) in prev.chunks_exact(2).enumerate() {
                let (a, b) = (pair[0], pair[1]);
                let c0 = a + bm[usize::from(m0lo[j]) & sel];
                let c1 = b + bm[usize::from(m1lo[j]) & sel];
                let take_lo = c1 > c0;
                lo[j] = if take_lo { c1 } else { c0 };
                let d0 = a + bm[usize::from(m0hi[j]) & sel];
                let d1 = b + bm[usize::from(m1hi[j]) & sel];
                let take_hi = d1 > d0;
                hi[j] = if take_hi { d1 } else { d0 };
                word |= (u64::from(take_lo) << j) | (u64::from(take_hi) << (j + half));
            }
            surv[0] = word;
        } else {
            self.forward_step_viterbi_generic(bm, prev, out, surv);
        }
    }

    fn forward_step_viterbi_generic(
        &self,
        bm: &[i32],
        prev: &[i32],
        out: &mut [i32],
        surv: &mut [u64],
    ) {
        let mut word = 0u64;
        let mut wi = 0usize;
        for (s, slot) in out.iter_mut().enumerate() {
            let c0 = prev[self.prev0[s] as usize] + bm[self.omask0[s] as usize];
            let c1 = prev[self.prev1[s] as usize] + bm[self.omask1[s] as usize];
            let take1 = c1 > c0;
            *slot = if take1 { c1 } else { c0 };
            word |= u64::from(take1) << (s & 63);
            if s & 63 == 63 {
                surv[wi] = word;
                wi += 1;
                word = 0;
            }
        }
        if self.n_states() & 63 != 0 {
            surv[wi] = word;
        }
    }

    /// Forward ACS step recording both packed survivors and per-state ACS
    /// margins (`|c0 - c1|`) — the SOVA variant. Post-warmup only.
    #[inline]
    pub(crate) fn forward_step_sova(
        &self,
        bm: &[i32],
        prev: &[i32],
        out: &mut [i32],
        surv: &mut [u64],
        margins: &mut [i32],
    ) {
        debug_assert_eq!(out.len(), self.n_states());
        debug_assert_eq!(margins.len(), self.n_states());
        let n = self.n_states();
        if self.butterfly && n <= 64 {
            let half = n / 2;
            let (lo, hi) = out.split_at_mut(half);
            let (mg_lo, mg_hi) = margins.split_at_mut(half);
            let (m0lo, m0hi) = self.omask0.split_at(half);
            let (m1lo, m1hi) = self.omask1.split_at(half);
            let sel = bm.len() - 1;
            let mut word = 0u64;
            for (j, pair) in prev.chunks_exact(2).enumerate() {
                let (a, b) = (pair[0], pair[1]);
                let c0 = a + bm[usize::from(m0lo[j]) & sel];
                let c1 = b + bm[usize::from(m1lo[j]) & sel];
                let take_lo = c1 > c0;
                lo[j] = if take_lo { c1 } else { c0 };
                mg_lo[j] = (c1 - c0).abs();
                let d0 = a + bm[usize::from(m0hi[j]) & sel];
                let d1 = b + bm[usize::from(m1hi[j]) & sel];
                let take_hi = d1 > d0;
                hi[j] = if take_hi { d1 } else { d0 };
                mg_hi[j] = (d1 - d0).abs();
                word |= (u64::from(take_lo) << j) | (u64::from(take_hi) << (j + half));
            }
            surv[0] = word;
        } else {
            self.forward_step_sova_generic(bm, prev, out, surv, margins);
        }
    }

    fn forward_step_sova_generic(
        &self,
        bm: &[i32],
        prev: &[i32],
        out: &mut [i32],
        surv: &mut [u64],
        margins: &mut [i32],
    ) {
        let mut word = 0u64;
        let mut wi = 0usize;
        for (s, (slot, margin)) in out.iter_mut().zip(margins.iter_mut()).enumerate() {
            let c0 = prev[self.prev0[s] as usize] + bm[self.omask0[s] as usize];
            let c1 = prev[self.prev1[s] as usize] + bm[self.omask1[s] as usize];
            let take1 = c1 > c0;
            *slot = if take1 { c1 } else { c0 };
            *margin = (c1 - c0).abs();
            word |= u64::from(take1) << (s & 63);
            if s & 63 == 63 {
                surv[wi] = word;
                wi += 1;
                word = 0;
            }
        }
        if self.n_states() & 63 != 0 {
            surv[wi] = word;
        }
    }

    /// The sentinel-aware forward step used for the first `K-1` steps of a
    /// frame, while some states are still unreachable. Reproduces the
    /// reference kernel's behavior exactly: an unreachable competitor
    /// always loses, and the margin it concedes is recorded as
    /// [`HUGE_MARGIN`] (the `i32` image of the reference's ~2⁶¹ sentinel
    /// margins — identical after output saturation).
    pub(crate) fn forward_step_warmup(
        &self,
        bm: &[i32],
        prev: &[i32],
        out: &mut [i32],
        surv: &mut [u64],
        mut margins: Option<&mut [i32]>,
    ) {
        debug_assert_eq!(out.len(), self.n_states());
        let mut word = 0u64;
        let mut wi = 0usize;
        for (s, slot) in out.iter_mut().enumerate() {
            let c0 = prev[self.prev0[s] as usize] + bm[self.omask0[s] as usize];
            let c1 = prev[self.prev1[s] as usize] + bm[self.omask1[s] as usize];
            let r0 = c0 > UNREACHABLE32;
            let r1 = c1 > UNREACHABLE32;
            let (take1, metric, margin) = match (r0, r1) {
                (true, false) => (false, c0, HUGE_MARGIN),
                (false, true) => (true, c1, HUGE_MARGIN),
                // Both reachable, or both unreachable (where the sentinel
                // base cancels): the plain comparison the reference makes.
                _ => {
                    let take1 = c1 > c0;
                    (take1, if take1 { c1 } else { c0 }, (c1 - c0).abs())
                }
            };
            *slot = metric;
            if let Some(m) = margins.as_deref_mut() {
                m[s] = margin;
            }
            word |= u64::from(take1) << (s & 63);
            if s & 63 == 63 {
                surv[wi] = word;
                wi += 1;
                word = 0;
            }
        }
        if self.n_states() & 63 != 0 {
            surv[wi] = word;
        }
    }

    /// One forward ACS step for the BCJR α recursion: metrics only, with
    /// the reference kernel's saturating arithmetic (sentinels survive the
    /// whole frame here, kept in check by `pmu::normalize32` exactly as
    /// the `i64` path keeps them in check with `pmu::normalize`).
    #[inline]
    pub(crate) fn alpha_step(&self, bm: &[i32], prev: &[i32], out: &mut [i32]) {
        debug_assert_eq!(out.len(), self.n_states());
        let n = self.n_states();
        if self.butterfly {
            let half = n / 2;
            let (lo, hi) = out.split_at_mut(half);
            let (m0lo, m0hi) = self.omask0.split_at(half);
            let (m1lo, m1hi) = self.omask1.split_at(half);
            let sel = bm.len() - 1;
            for (j, pair) in prev.chunks_exact(2).enumerate() {
                let (a, b) = (pair[0], pair[1]);
                let c0 = a.saturating_add(bm[usize::from(m0lo[j]) & sel]);
                let c1 = b.saturating_add(bm[usize::from(m1lo[j]) & sel]);
                lo[j] = c0.max(c1);
                let d0 = a.saturating_add(bm[usize::from(m0hi[j]) & sel]);
                let d1 = b.saturating_add(bm[usize::from(m1hi[j]) & sel]);
                hi[j] = d0.max(d1);
            }
        } else {
            for (s, slot) in out.iter_mut().enumerate() {
                let c0 = prev[self.prev0[s] as usize].saturating_add(bm[self.omask0[s] as usize]);
                let c1 = prev[self.prev1[s] as usize].saturating_add(bm[self.omask1[s] as usize]);
                *slot = c0.max(c1);
            }
        }
    }

    /// One backward ACS step (the BCJR β recursion) over the
    /// source-indexed tables.
    #[inline]
    pub(crate) fn beta_step(&self, bm: &[i32], next: &[i32], out: &mut [i32]) {
        debug_assert_eq!(out.len(), self.n_states());
        let n = self.n_states();
        if self.butterfly {
            // Sources (2j, 2j+1) both branch to destinations (j, j+half):
            // sequential writes, two shared sequential reads.
            let half = n / 2;
            let (blo, bhi) = next.split_at(half);
            let sel = bm.len() - 1;
            for (((pair, f0), f1), (j, _)) in out
                .chunks_exact_mut(2)
                .zip(self.fout0.chunks_exact(2))
                .zip(self.fout1.chunks_exact(2))
                .zip(blo.iter().enumerate())
            {
                let b0 = blo[j];
                let b1 = bhi[j];
                pair[0] = b0
                    .saturating_add(bm[usize::from(f0[0]) & sel])
                    .max(b1.saturating_add(bm[usize::from(f1[0]) & sel]));
                pair[1] = b0
                    .saturating_add(bm[usize::from(f0[1]) & sel])
                    .max(b1.saturating_add(bm[usize::from(f1[1]) & sel]));
            }
        } else {
            for (s, slot) in out.iter_mut().enumerate() {
                let c0 = next[self.next0[s] as usize].saturating_add(bm[self.fout0[s] as usize]);
                let c1 = next[self.next1[s] as usize].saturating_add(bm[self.fout1[s] as usize]);
                *slot = c0.max(c1);
            }
        }
    }

    /// The BCJR decision unit's maxima for one step: the best
    /// `α + branch + β` over all transitions with input 0 and input 1
    /// respectively, skipping forward-unreachable states — exactly the
    /// reference decision loop, in butterfly order.
    #[inline]
    pub(crate) fn decision_best(&self, bm: &[i32], alpha: &[i32], beta_after: &[i32]) -> [i32; 2] {
        use crate::pmu::NEG_INF32 as N32;
        let n = self.n_states();
        let mut best = [N32; 2];
        if self.butterfly {
            let half = n / 2;
            let (blo, bhi) = beta_after.split_at(half);
            let sel = bm.len() - 1;
            for (((pair, f0), f1), (j, _)) in alpha
                .chunks_exact(2)
                .zip(self.fout0.chunks_exact(2))
                .zip(self.fout1.chunks_exact(2))
                .zip(blo.iter().enumerate())
            {
                let b0 = blo[j];
                let b1 = bhi[j];
                for t in 0..2 {
                    let a = pair[t];
                    if a <= N32 / 2 {
                        continue;
                    }
                    let m0 = a
                        .saturating_add(bm[usize::from(f0[t]) & sel])
                        .saturating_add(b0);
                    let m1 = a
                        .saturating_add(bm[usize::from(f1[t]) & sel])
                        .saturating_add(b1);
                    best[0] = best[0].max(m0);
                    best[1] = best[1].max(m1);
                }
            }
        } else {
            for (s, &a) in alpha.iter().enumerate() {
                if a <= N32 / 2 {
                    continue;
                }
                let m0 = a
                    .saturating_add(bm[self.fout0[s] as usize])
                    .saturating_add(beta_after[self.next0[s] as usize]);
                let m1 = a
                    .saturating_add(bm[self.fout1[s] as usize])
                    .saturating_add(beta_after[self.next1[s] as usize]);
                best[0] = best[0].max(m0);
                best[1] = best[1].max(m1);
            }
        }
        best
    }
}

/// The compiled branch-metric unit: `i32` metrics into a reusable table,
/// with the `n_out = 2` case (802.11's mother code) specialized to two
/// adds and four negations instead of the generic `2^n · n` pattern loop.
#[derive(Debug, Clone)]
pub struct CompiledBmu {
    n_out: usize,
    metrics: Vec<i32>,
}

impl CompiledBmu {
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

    /// Computes this step's metrics in place and returns them, indexed by
    /// output bitmask (same convention as [`crate::bmu::branch_metrics`]).
    ///
    /// # Panics
    ///
    /// Panics if `step_llrs.len()` differs from the configured `n_out`.
    #[inline]
    pub fn compute(&mut self, step_llrs: &[Llr]) -> &[i32] {
        assert_eq!(step_llrs.len(), self.n_out, "wrong number of soft inputs");
        if let [l0, l1] = *step_llrs {
            // Rate-1/2 special case: the four correlations are ±sum, ±diff.
            let s = l0 + l1;
            let d = l0 - l1;
            self.metrics[0b00] = -s;
            self.metrics[0b01] = d;
            self.metrics[0b10] = -d;
            self.metrics[0b11] = s;
        } else {
            for (pattern, slot) in self.metrics.iter_mut().enumerate() {
                let mut m = 0i32;
                for (j, &llr) in step_llrs.iter().enumerate() {
                    if (pattern >> j) & 1 == 1 {
                        m += llr;
                    } else {
                        m -= llr;
                    }
                }
                *slot = m;
            }
        }
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmu::branch_metrics;
    use crate::pmu::{forward_acs, NEG_INF};

    #[test]
    fn tables_agree_with_trellis() {
        for code in [ConvCode::ieee80211(), ConvCode::k3()] {
            let ct = CompiledTrellis::new(&code);
            let t = ct.trellis();
            for s in 0..ct.n_states() {
                let [e0, e1] = t.incoming(s);
                assert_eq!(ct.prev0[s], u32::from(e0.prev));
                assert_eq!(ct.prev1[s], u32::from(e1.prev));
                assert_eq!(ct.traceback_edge(s, 0), (e0.input, usize::from(e0.prev)));
                assert_eq!(ct.traceback_edge(s, 1), (e1.input, usize::from(e1.prev)));
                assert_eq!(ct.omask0[s], e0.output);
                assert_eq!(ct.omask1[s], e1.output);
                assert_eq!(ct.next0[s] as usize, t.next(s, 0).next as usize);
                assert_eq!(ct.next1[s] as usize, t.next(s, 1).next as usize);
                assert_eq!(ct.fout0[s], t.next(s, 0).output);
                assert_eq!(ct.fout1[s], t.next(s, 1).output);
            }
        }
    }

    #[test]
    fn survivor_packing_is_one_word_for_80211() {
        let ct = CompiledTrellis::new(&ConvCode::ieee80211());
        assert_eq!(ct.words_per_step(), 1);
        let ct3 = CompiledTrellis::new(&ConvCode::k3());
        assert_eq!(ct3.words_per_step(), 1);
        // A K=8 code still fits one word; K=9 (256 states) needs four.
        let big = CompiledTrellis::new(&ConvCode::new(9, &[0o561, 0o753]));
        assert_eq!(big.n_states(), 256);
        assert_eq!(big.words_per_step(), 4);
    }

    #[test]
    fn compiled_bmu_matches_reference_for_every_width() {
        for n_out in 1..=4usize {
            let mut cb = CompiledBmu::new(n_out);
            let llrs: Vec<Llr> = (0..n_out as i32).map(|i| 7 - 5 * i).collect();
            let fast = cb.compute(&llrs).to_vec();
            let slow = branch_metrics(&llrs);
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(i64::from(*f), *s, "n_out {n_out}");
            }
        }
    }

    #[test]
    fn hot_step_matches_reference_acs_post_warmup() {
        // Start from an all-reachable column and compare one compiled step
        // against the i64 reference kernel: identical survivors, margins,
        // and metric differences.
        let code = ConvCode::ieee80211();
        let ct = CompiledTrellis::new(&code);
        let n = ct.n_states();
        let prev32: Vec<i32> = (0..n as i32).map(|i| -(i * 3 % 17)).collect();
        let prev64: Vec<i64> = prev32.iter().map(|&v| i64::from(v) + 1000).collect();
        let llrs = [9, -4];
        let mut cb = CompiledBmu::new(2);
        let bm32 = cb.compute(&llrs).to_vec();
        let bm64 = branch_metrics(&llrs);

        let mut out32 = vec![0i32; n];
        let mut surv = vec![0u64; 1];
        let mut margins32 = vec![0i32; n];
        ct.forward_step_sova(&bm32, &prev32, &mut out32, &mut surv, &mut margins32);

        let mut out64 = vec![0i64; n];
        let mut surv64 = vec![0u8; n];
        let mut margins64 = vec![0i64; n];
        forward_acs(
            ct.trellis(),
            &bm64,
            &prev64,
            &mut out64,
            Some(&mut surv64),
            Some(&mut margins64),
        );
        for s in 0..n {
            assert_eq!(ct.survivor_bit(&surv, 1, 0, s), surv64[s], "state {s}");
            assert_eq!(i64::from(margins32[s]), margins64[s], "state {s}");
            // Metrics agree up to the uniform 1000 offset.
            assert_eq!(i64::from(out32[s]) + 1000, out64[s], "state {s}");
        }
    }

    #[test]
    fn warmup_step_mirrors_sentinel_reference() {
        let code = ConvCode::k3();
        let ct = CompiledTrellis::new(&code);
        let n = ct.n_states();
        let mut prev32 = vec![NEG_INF32; n];
        prev32[0] = 0;
        let mut prev64 = vec![NEG_INF; n];
        prev64[0] = 0;
        let llrs = [5, -3];
        let mut cb = CompiledBmu::new(2);
        let bm32 = cb.compute(&llrs).to_vec();
        let bm64 = branch_metrics(&llrs);

        let mut out32 = vec![0i32; n];
        let mut surv = vec![0u64; 1];
        let mut margins32 = vec![0i32; n];
        ct.forward_step_warmup(&bm32, &prev32, &mut out32, &mut surv, Some(&mut margins32));

        let mut out64 = vec![0i64; n];
        let mut surv64 = vec![0u8; n];
        let mut margins64 = vec![0i64; n];
        forward_acs(
            ct.trellis(),
            &bm64,
            &prev64,
            &mut out64,
            Some(&mut surv64),
            Some(&mut margins64),
        );
        for s in 0..n {
            assert_eq!(ct.survivor_bit(&surv, 1, 0, s), surv64[s], "state {s}");
            let m64 = margins64[s];
            if m64 > i64::from(i32::MAX) {
                assert_eq!(margins32[s], HUGE_MARGIN, "state {s}");
            } else {
                assert_eq!(i64::from(margins32[s]), m64, "state {s}");
            }
        }
    }

    #[test]
    fn renormalize_uniform_preserves_differences() {
        let mut col = vec![40, -3, 17, 0];
        let orig = col.clone();
        renormalize_uniform(&mut col);
        assert_eq!(*col.iter().max().unwrap(), 0);
        for (a, b) in col.iter().zip(&orig) {
            assert_eq!(a - col[0], b - orig[0]);
        }
    }

    #[test]
    fn fast_path_gate() {
        assert!(fast_path_ok(&[]));
        assert!(fast_path_ok(&[
            FAST_LLR_LIMIT as i32,
            -(FAST_LLR_LIMIT as i32)
        ]));
        assert!(!fast_path_ok(&[0, i32::MIN]));
    }

    #[test]
    #[should_panic(expected = "wrong number")]
    fn compiled_bmu_checks_arity() {
        let mut cb = CompiledBmu::new(2);
        let _ = cb.compute(&[1, 2, 3]);
    }
}
