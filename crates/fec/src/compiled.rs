//! The compiled trellis: flat structure-of-arrays butterfly tables and the
//! narrow gate that decides which datapath a block decodes on.
//!
//! [`crate::Trellis`] is the *specification* of the transition graph —
//! per-state edge structs, convenient to inspect, slow to walk. At decoder
//! construction it is lowered once into a [`CompiledTrellis`]: output
//! masks indexed by destination state for the forward recursions, the same
//! outputs as per-state sign masks for the one-lane forward pass, output
//! masks indexed by source state for the backward one, and a packed edge
//! table for branchless traceback. The lane kernels of [`crate::batch`]
//! walk these plain `u8`/`u32` tables in butterfly order — no struct field
//! chasing, no `Option` plumbing, no per-edge branches — on `i16` path
//! metrics instead of the reference kernels' wide `i64` saturating
//! arithmetic.
//!
//! **Bit-identity contract.** The decoders' one shell picks between two
//! datapaths for every decode. A block whose soft values all lie within
//! [`CompiledTrellis::narrow_llr_limit`] decodes on the `i16` lane
//! kernels — a solo decode at one lane, a batch in lockstep at up to
//! [`crate::batch::MAX_LANES`]. Any other block decodes on the frozen
//! `i64` reference kernels of `crate::reference` (each decoder's
//! `decode_terminated_reference_into`). The two paths produce
//! *exactly* the same hard bits and saturated soft outputs. Three facts
//! make this exact rather than approximate:
//!
//! 1. Every decoder decision, ACS margin and BCJR soft output is a function
//!    of *differences* of path metrics within one column, never of
//!    absolute values, so the lane kernels' per-step normalization (a
//!    uniform shift of each column, applied through the branch metrics) is
//!    invisible.
//! 2. Unreachable-state sentinels are the `i16` images `NEG_INF16` and
//!    `UNREACHABLE16`. A sentinel-derived candidate always loses to a
//!    genuine one, as in the reference kernels, so every survivor decision
//!    matches. The only value that differs is the SOVA margin recorded
//!    where a genuine candidate beats a sentinel one (the reference's is
//!    astronomically large, the lane kernels' a plain difference), and
//!    that margin never reaches an output (see the forward ACS step in
//!    [`crate::batch`]).
//! 3. At or below the gate no `i16` add wraps and no genuine metric
//!    saturates, and sentinels stay apart from genuine metrics;
//!    [`CompiledTrellis::narrow_llr_limit`] carries the derivation.

use crate::llr::Llr;
use crate::trellis::Trellis;
use crate::ConvCode;

/// The unreachable-state sentinel of the `i16` lane kernels
/// ([`crate::batch`]).
pub(crate) const NEG_INF16: i16 = -(1 << 14);

/// Threshold separating genuine narrow metrics from sentinel-derived ones.
pub(crate) const UNREACHABLE16: i16 = NEG_INF16 / 2;

/// The narrow gate of a code of `memory` delay elements and `n_out` coded
/// bits per step; see [`CompiledTrellis::narrow_llr_limit`].
pub(crate) const fn narrow_llr_limit_for(memory: u32, n_out: usize) -> u32 {
    let per_g = (2 * memory as usize + 1) * n_out;
    (((1 << 13) - 1) / per_g) as u32
}

// The 8-bit Viterbi demap (|LLR| ≤ 127) and the 4/5-bit hint path must
// both take the narrow kernels on the 802.11 code.
const _: () = assert!(narrow_llr_limit_for(6, 2) >= 127);

/// A [`Trellis`] lowered into flat structure-of-arrays butterfly tables.
///
/// Shared across decoders via `Arc`: the scenario engine builds one
/// compiled trellis per code and hands clones of the handle to every
/// decoder instance (every receive chain, the oracle's receiver, …) instead of
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
/// assert_eq!(shared.n_out(), 2);
/// let _dec = ViterbiDecoder::with_shared_trellis(Arc::clone(&shared));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledTrellis {
    code: ConvCode,
    trellis: Trellis,
    /// Output bitmask of incoming edge 0/1, indexed by destination state.
    /// Edge order matches [`Trellis::incoming`] exactly, so survivor
    /// decisions recorded by the kernels mean the same thing in both worlds.
    pub(crate) omask0: Vec<u8>,
    pub(crate) omask1: Vec<u8>,
    /// Incoming edges packed for branchless traceback, indexed
    /// `state * 2 + winner`: source state in the low 16 bits, input bit in
    /// bit 16. One indexed load per traceback step — no data-dependent
    /// branching on the survivor bit.
    pub(crate) edges: Vec<u32>,
    /// Output bitmask on input 0/1, indexed by source state (the
    /// backward recursion's tables).
    pub(crate) fout0: Vec<u8>,
    pub(crate) fout1: Vec<u8>,
    /// Per-state sign masks of the one-lane forward pass, `[bit][edge][state]`:
    /// entry `(j * 2 + e) * n_states + s` is `-1` where bit `j` of incoming
    /// edge `e`'s output (`omask0`/`omask1`) is 0 and `0` where it is 1, so
    /// that edge's branch metric is `Σ_j (x_j ^ m) - m` over the step's soft
    /// values `x_j`: one straight-line pass per coded bit over every state,
    /// where the lane kernels gather a pattern row per state.
    pub(crate) signs: Vec<i16>,
    /// Whether the transitions have the shift-register butterfly shape
    /// (incoming edges of `s` from `2·(s mod half)` and that plus one,
    /// outgoing edges of `s` to `s/2` and `half + s/2`): destination pair
    /// `(j, j + half)` reads the *sequential* source pair `(2j, 2j+1)`, so
    /// the kernels stream both metric columns with no data-dependent
    /// gathers at all. True for every [`Trellis`] this repository builds;
    /// a trellis without it decodes on the reference kernels.
    pub(crate) butterfly: bool,
    /// See [`CompiledTrellis::narrow_llr_limit`].
    narrow_llr_limit: u32,
}

impl CompiledTrellis {
    /// Lowers `code`'s trellis into butterfly tables.
    pub fn new(code: &ConvCode) -> Self {
        let trellis = Trellis::new(code);
        let n = trellis.n_states();
        let half = n / 2;
        let mut omask0 = Vec::with_capacity(n);
        let mut omask1 = Vec::with_capacity(n);
        let mut fout0 = Vec::with_capacity(n);
        let mut fout1 = Vec::with_capacity(n);
        let mut edges = Vec::with_capacity(n * 2);
        let mut butterfly = half > 0;
        for s in 0..n {
            let [e0, e1] = trellis.incoming(s);
            omask0.push(e0.output);
            omask1.push(e1.output);
            edges.push(u32::from(e0.prev) | (u32::from(e0.input) << 16));
            edges.push(u32::from(e1.prev) | (u32::from(e1.input) << 16));
            let t0 = trellis.next(s, 0);
            let t1 = trellis.next(s, 1);
            fout0.push(t0.output);
            fout1.push(t1.output);
            butterfly &= half > 0
                && usize::from(e0.prev) == 2 * (s % half)
                && usize::from(e1.prev) == usize::from(e0.prev) + 1
                && usize::from(t0.next) == s / 2
                && usize::from(t1.next) == half + s / 2;
        }
        let mut signs = Vec::with_capacity(2 * trellis.n_out() * n);
        for j in 0..trellis.n_out() {
            for masks in [&omask0, &omask1] {
                signs.extend(masks.iter().map(|&m| i16::from((m >> j) & 1) - 1));
            }
        }
        let narrow_llr_limit = narrow_llr_limit_for(code.memory(), code.n_out());
        Self {
            code: code.clone(),
            trellis,
            omask0,
            omask1,
            edges,
            fout0,
            fout1,
            signs,
            butterfly,
            narrow_llr_limit,
        }
    }

    /// Largest |LLR| the `i16` lane kernels accept for this code, computed
    /// once from its memory and `n_out`. A block with any larger soft value
    /// decodes on the `i64` reference kernels instead.
    ///
    /// Let `m = memory`, `G` the gate, `B = n_out · G` the largest branch
    /// metric magnitude and `S = 2·m·B`. The lane kernels normalize every
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
    /// stay above `NEG_INF16`, the decision unit's floor; and no plain `i16`
    /// add wraps, including the warmup margin between a genuine and a
    /// sentinel candidate (below `2¹⁴ + 2¹³`).
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

    /// Whether a block may take the `i16` lane kernels: every soft value
    /// within [`CompiledTrellis::narrow_llr_limit`], on tables of the
    /// butterfly shape those kernels walk (every trellis this repository
    /// builds has it).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{acs_step_one, branch_metrics_one, branch_rows};
    use crate::bmu::branch_metrics;
    use crate::pmu::{forward_acs, NEG_INF};

    #[test]
    fn tables_agree_with_trellis() {
        for code in [
            ConvCode::ieee80211(),
            ConvCode::k3(),
            ConvCode::new(5, &[0o23, 0o35, 0o31]),
        ] {
            let ct = CompiledTrellis::new(&code);
            let t = ct.trellis();
            let n = ct.n_states();
            let half = n / 2;
            assert!(ct.butterfly, "{code}");
            assert_eq!(ct.signs.len(), 2 * ct.n_out() * n, "{code}");
            for s in 0..n {
                let [e0, e1] = t.incoming(s);
                assert_eq!(ct.traceback_edge(s, 0), (e0.input, usize::from(e0.prev)));
                assert_eq!(ct.traceback_edge(s, 1), (e1.input, usize::from(e1.prev)));
                assert_eq!(ct.omask0[s], e0.output);
                assert_eq!(ct.omask1[s], e1.output);
                assert_eq!(usize::from(e0.prev), 2 * (s % half));
                assert_eq!(usize::from(t.next(s, 0).next), s / 2);
                assert_eq!(usize::from(t.next(s, 1).next), half + s / 2);
                assert_eq!(ct.fout0[s], t.next(s, 0).output);
                assert_eq!(ct.fout1[s], t.next(s, 1).output);
                // Sign mask of bit `j` of edge `e`: -1 where the output bit
                // is 0 (the soft value enters negated), 0 where it is 1.
                for j in 0..ct.n_out() {
                    for (e, masks) in [&ct.omask0, &ct.omask1].into_iter().enumerate() {
                        let want = if (masks[s] >> j) & 1 == 1 { 0 } else { -1 };
                        assert_eq!(ct.signs[(j * 2 + e) * n + s], want, "{code} bit {j}");
                    }
                }
            }
        }
    }

    /// One step's branch metrics of every edge through the one-lane forward
    /// pass's sign masks, `[edge][state]`, unshifted.
    fn one_lane_branch_metrics(ct: &CompiledTrellis, llrs: &[Llr]) -> Vec<i16> {
        let mut bm = vec![0i16; 2 * ct.n_states()];
        branch_metrics_one(&ct.signs, llrs, 0, &mut bm);
        bm
    }

    #[test]
    fn compiled_bmu_matches_reference_for_every_width() {
        // The one-lane forward pass, on a code of every width a `ConvCode`
        // admits up to 4: each edge's metric is the reference metric of its
        // output pattern.
        for gens in [&[0o7, 0o5][..], &[0o7, 0o5, 0o3], &[0o7, 0o5, 0o3, 0o6]] {
            let ct = CompiledTrellis::new(&ConvCode::new(3, gens));
            let n = ct.n_states();
            let llrs: Vec<Llr> = (0..gens.len() as i32).map(|i| 7 - 5 * i).collect();
            let fast = one_lane_branch_metrics(&ct, &llrs);
            let slow = branch_metrics(&llrs);
            for s in 0..n {
                assert_eq!(i64::from(fast[s]), slow[usize::from(ct.omask0[s])]);
                assert_eq!(i64::from(fast[n + s]), slow[usize::from(ct.omask1[s])]);
            }
        }
        // The lane kernels' pattern rows at one lane, which BCJR's solo
        // decode still reads, for every width down to 1.
        for n_out in 1..=4usize {
            let llrs: Vec<Llr> = (0..n_out as i32).map(|i| 7 - 5 * i).collect();
            let mut rows = vec![0i16; 1 << n_out];
            branch_rows::<1>(&llrs, 0, n_out, [0], &mut rows);
            for (f, s) in rows.iter().zip(&branch_metrics(&llrs)) {
                assert_eq!(i64::from(*f), *s, "n_out {n_out}");
            }
        }
    }

    /// One step of the one-lane forward pass against the `i64` reference
    /// step from `prev16`, whose genuine entries the reference column
    /// carries `offset` higher. Asserts equal survivors and genuine
    /// metrics; returns each state's `(lane, reference)` margin pair.
    fn compare_step(
        ct: &CompiledTrellis,
        prev16: &[i16],
        offset: i64,
        llrs: &[Llr],
    ) -> Vec<(i16, i64)> {
        let n = ct.n_states();
        let prev64: Vec<i64> = prev16
            .iter()
            .map(|&v| {
                if v == NEG_INF16 {
                    NEG_INF
                } else {
                    i64::from(v) + offset
                }
            })
            .collect();
        let bm16 = one_lane_branch_metrics(ct, llrs);
        let mut split = vec![0i16; n];
        let mut out16 = vec![0i16; n];
        let mut surv = vec![0u8; n];
        let mut margins16 = vec![0i16; n];
        acs_step_one::<true>(
            &bm16,
            prev16,
            &mut split,
            &mut out16,
            &mut surv,
            &mut margins16,
        );

        let mut out64 = vec![0i64; n];
        let mut surv64 = vec![0u8; n];
        let mut margins64 = vec![0i64; n];
        forward_acs(
            ct.trellis(),
            &branch_metrics(llrs),
            &prev64,
            &mut out64,
            Some(&mut surv64),
            Some(&mut margins64),
        );
        for s in 0..n {
            assert_eq!(surv[s], surv64[s], "state {s}");
            if out16[s] > UNREACHABLE16 {
                assert_eq!(i64::from(out16[s]) + offset, out64[s], "state {s}");
            }
        }
        margins16.into_iter().zip(margins64).collect()
    }

    #[test]
    fn hot_step_matches_reference_acs_post_warmup() {
        // From an all-reachable column, one step of the one-lane forward
        // pass agrees with the i64 reference step on survivors, margins, and
        // metrics up to the uniform offset.
        let ct = CompiledTrellis::new(&ConvCode::ieee80211());
        let prev16: Vec<i16> = (0..ct.n_states() as i16).map(|i| -(i * 3 % 17)).collect();
        for (s, (m16, m64)) in compare_step(&ct, &prev16, 1000, &[9, -4])
            .into_iter()
            .enumerate()
        {
            assert_eq!(i64::from(m16), m64, "state {s}");
        }
    }

    #[test]
    fn warmup_step_mirrors_sentinel_reference() {
        // From the known-state start column, an unreachable competitor loses
        // exactly as in the reference. Margins agree wherever the reference
        // margin is genuine; where it concedes a sentinel margin the one-lane
        // pass records a plain difference, which no output reads.
        let ct = CompiledTrellis::new(&ConvCode::k3());
        let mut prev16 = vec![NEG_INF16; ct.n_states()];
        prev16[0] = 0;
        for (s, (m16, m64)) in compare_step(&ct, &prev16, 0, &[5, -3])
            .into_iter()
            .enumerate()
        {
            if m64 < i64::from(i16::MAX) {
                assert_eq!(i64::from(m16), m64, "state {s}");
            } else {
                assert!(m16 > -UNREACHABLE16, "state {s}: margin {m16}");
            }
        }
    }

    #[test]
    fn fast_path_gate() {
        let ct = CompiledTrellis::new(&ConvCode::ieee80211());
        let gate = ct.narrow_llr_limit() as Llr;
        assert!(ct.narrow_path_ok(&[]));
        assert!(ct.narrow_path_ok(&[gate, -gate]));
        assert!(!ct.narrow_path_ok(&[0, gate + 1]));
        assert!(!ct.narrow_path_ok(&[0, -(gate + 1)]));
        assert!(!ct.narrow_path_ok(&[0, i32::MIN]));
    }
}
