//! The frozen `i64` reference decode paths.
//!
//! These are the pre-compiled-trellis decoder bodies, preserved verbatim
//! for three jobs:
//!
//! 1. **Fallback** — soft inputs beyond the lane kernels' narrow gate
//!    ([`crate::CompiledTrellis::narrow_llr_limit`]) decode here, so the
//!    public decoders behave identically for *any* `i32` input.
//! 2. **Differential oracle** — the equivalence property tests assert the
//!    lane kernels reproduce these outputs bit-for-bit.
//! 3. **Perf baseline** — the `perf_ratios` bench times this path as the
//!    B side of its gated `decode.<decoder>.compiled/reference` ratios.
//!
//! Do not optimize this module; its value is that it does not change.

use crate::bmu::Bmu;
use crate::llr::{DecodeOutput, Llr};
use crate::pmu::{backward_acs, forward_acs, normalize, saturate_llr, NEG_INF};
use crate::scratch::TrellisScratch;
use crate::trellis::Trellis;

/// Block-exact hard-output Viterbi over the per-state edge structs — the
/// original `ViterbiDecoder` body.
pub(crate) fn viterbi_decode(
    trellis: &Trellis,
    tail_len: usize,
    bmu: &mut Bmu,
    scratch: &mut TrellisScratch,
    llrs: &[Llr],
    out: &mut DecodeOutput,
) {
    let n_out = trellis.n_out();
    let steps = llrs.len() / n_out;
    let n_states = trellis.n_states();

    // Forward ACS, survivors recorded into the flattened scratch.
    scratch.init_columns(n_states, 0);
    scratch.init_survivors(steps, n_states);
    for step in 0..steps {
        let bm = bmu.compute(&llrs[step * n_out..(step + 1) * n_out]);
        let surv = &mut scratch.survivors[step * n_states..(step + 1) * n_states];
        forward_acs(
            trellis,
            bm,
            &scratch.pm,
            &mut scratch.next,
            Some(surv),
            None,
        );
        std::mem::swap(&mut scratch.pm, &mut scratch.next);
    }

    // Terminated frame: the true path ends in state zero.
    out.bits.clear();
    out.bits.resize(steps, 0);
    let mut state = 0usize;
    for t in (0..steps).rev() {
        let winner = scratch.survivors[t * n_states + state];
        let edge = trellis.incoming(state)[winner as usize];
        out.bits[t] = edge.input;
        state = edge.prev as usize;
    }
    let info = steps - tail_len;
    out.bits.truncate(info);
    out.soft.clear();
    out.soft.resize(info, 0);
}

/// Block-exact SOVA with the Hagenauer-rule reliability update — the
/// original `SovaDecoder` body (`k` is the TU2 update window).
pub(crate) fn sova_decode(
    trellis: &Trellis,
    tail_len: usize,
    k: usize,
    bmu: &mut Bmu,
    scratch: &mut TrellisScratch,
    llrs: &[Llr],
    out: &mut DecodeOutput,
) {
    let n_out = trellis.n_out();
    let steps = llrs.len() / n_out;
    let n_states = trellis.n_states();

    // Forward pass, keeping survivors and ACS margins per step in the
    // flattened scratch matrices.
    scratch.init_columns(n_states, 0);
    scratch.init_survivors(steps, n_states);
    scratch.margins.clear();
    scratch.margins.resize(steps * n_states, 0);
    for step in 0..steps {
        let bm = bmu.compute(&llrs[step * n_out..(step + 1) * n_out]);
        let row = step * n_states..(step + 1) * n_states;
        forward_acs(
            trellis,
            bm,
            &scratch.pm,
            &mut scratch.next,
            Some(&mut scratch.survivors[row.clone()]), // lint: allow(no-alloc) — Range<usize> clone is a stack copy, no heap allocation
            Some(&mut scratch.margins[row]),
        );
        std::mem::swap(&mut scratch.pm, &mut scratch.next);
    }
    let s = scratch;
    let survivors = &s.survivors;
    let margins = &s.margins;

    // TU1: maximum-likelihood state sequence. Terminated frame ends in
    // state zero; ml_states[t] is the state entering step t.
    s.ml_states.clear();
    s.ml_states.resize(steps + 1, 0);
    s.ml_bits.clear();
    s.ml_bits.resize(steps, 0);
    let (ml_states, ml_bits) = (&mut s.ml_states, &mut s.ml_bits);
    for t in (0..steps).rev() {
        let state = ml_states[t + 1] as usize;
        let edge = trellis.incoming(state)[survivors[t * n_states + state] as usize];
        ml_bits[t] = edge.input;
        ml_states[t] = edge.prev as u32;
    }

    // TU2: Hagenauer-rule reliability update. For each ML step t, the
    // competing (second-best) path into ml_states[t+1] diverges
    // backwards; everywhere its decisions differ within the window, the
    // reliability drops to the ACS margin if smaller.
    s.reliability.clear();
    s.reliability.resize(steps, i64::MAX);
    let reliability = &mut s.reliability;
    for t in 0..steps {
        let s_next = ml_states[t + 1] as usize;
        let winner = survivors[t * n_states + s_next] as usize;
        let margin = margins[t * n_states + s_next];
        let loser_edge = trellis.incoming(s_next)[1 - winner];
        // The competing hypothesis for bit t itself.
        if loser_edge.input != ml_bits[t] && margin < reliability[t] {
            reliability[t] = margin;
        }
        // Trace the competing path backwards up to k steps, comparing
        // decisions against the ML path.
        let mut state = loser_edge.prev as usize;
        let window_start = t.saturating_sub(k);
        for i in (window_start..t).rev() {
            let edge = trellis.incoming(state)[survivors[i * n_states + state] as usize];
            if edge.input != ml_bits[i] && margin < reliability[i] {
                reliability[i] = margin;
            }
            state = edge.prev as usize;
            if state == ml_states[i] as usize {
                // Paths have remerged; earlier decisions coincide.
                break;
            }
        }
    }

    let info = steps - tail_len;
    out.bits.clear();
    out.bits.extend_from_slice(&ml_bits[..info]);
    out.soft.clear();
    out.soft.extend((0..info).map(|t| {
        let mag = saturate_llr(reliability[t]);
        if ml_bits[t] == 1 {
            mag
        } else {
            -mag
        }
    }));
}

/// The `beta` column applying *before* step `t` of `range`, for every
/// `t`, written into `betas` (flattened, `range.len() × n_states`,
/// indexed relative to the range start). `boundary` is the column just
/// *after* the last step of the range.
fn backward_block_flat(
    trellis: &Trellis,
    bms: &[i64],
    n_patterns: usize,
    range: std::ops::Range<usize>,
    boundary: &[i64],
    betas: &mut [i64],
) {
    let n_states = trellis.n_states();
    let len = range.len();
    debug_assert_eq!(betas.len(), len * n_states);
    // lint: allow(no-alloc) — Range<usize> clone is a stack copy, no heap allocation
    for (local, t) in range.clone().enumerate().rev() {
        let bm = &bms[t * n_patterns..(t + 1) * n_patterns];
        let (head, tail) = betas.split_at_mut((local + 1) * n_states);
        let after: &[i64] = if local + 1 < len {
            &tail[..n_states]
        } else {
            boundary
        };
        let row = &mut head[local * n_states..];
        backward_acs(trellis, bm, after, row);
        normalize(row);
    }
}

/// Sliding-window max-log BCJR — the original `BcjrDecoder` body.
pub(crate) fn bcjr_decode(
    trellis: &Trellis,
    tail_len: usize,
    block_len: usize,
    bmu: &mut Bmu,
    scratch: &mut TrellisScratch,
    llrs: &[Llr],
    out: &mut DecodeOutput,
) {
    let n_out = trellis.n_out();
    let steps = llrs.len() / n_out;
    let n_states = trellis.n_states();
    let n_patterns = 1usize << n_out;

    // Branch metrics for every step (the hardware streams these through
    // the reversal buffers; we precompute per-frame into the scratch).
    scratch.bms.clear();
    scratch.bms.resize(steps * n_patterns, 0);
    for t in 0..steps {
        let bm = bmu.compute(&llrs[t * n_out..(t + 1) * n_out]);
        scratch.bms[t * n_patterns..(t + 1) * n_patterns].copy_from_slice(bm);
    }

    scratch.init_columns(n_states, 0);
    let TrellisScratch {
        pm: alpha,
        next: next_alpha,
        bms,
        betas,
        boundary,
        col,
        ..
    } = scratch;
    out.bits.clear();
    out.soft.clear();

    let mut t0 = 0usize;
    while t0 < steps {
        let t1 = (t0 + block_len).min(steps);
        // Beta boundary for the end of this block.
        if t1 == steps {
            // Terminated frame: the path ends in state zero.
            boundary.clear();
            boundary.resize(n_states, NEG_INF);
            boundary[0] = 0;
        } else {
            // Provisional backward pass over the *next* block, started
            // from the "uncertain" uniform column (§4.3.2), keeping
            // only the column that lands on t1.
            let t2 = (t1 + block_len).min(steps);
            boundary.clear();
            boundary.resize(n_states, 0);
            col.clear();
            col.resize(n_states, 0);
            for t in (t1..t2).rev() {
                let bm = &bms[t * n_patterns..(t + 1) * n_patterns];
                backward_acs(trellis, bm, boundary, col);
                normalize(col);
                std::mem::swap(boundary, col);
            }
        }
        betas.clear();
        betas.resize((t1 - t0) * n_states, 0);
        backward_block_flat(trellis, bms, n_patterns, t0..t1, boundary, betas);

        // Forward pass + decision unit over this block.
        for t in t0..t1 {
            let bm = &bms[t * n_patterns..(t + 1) * n_patterns];
            // beta that applies after consuming step t:
            let beta_after: &[i64] = if t + 1 < t1 {
                &betas[(t + 1 - t0) * n_states..(t + 2 - t0) * n_states]
            } else {
                boundary
            };
            let mut best = [NEG_INF; 2];
            for (s, &a) in alpha.iter().enumerate() {
                if a <= NEG_INF / 2 {
                    continue;
                }
                for (b, best_b) in best.iter_mut().enumerate() {
                    let tr = trellis.next(s, b as u8);
                    let m = a
                        .saturating_add(bm[tr.output as usize])
                        .saturating_add(beta_after[tr.next as usize]);
                    if m > *best_b {
                        *best_b = m;
                    }
                }
            }
            // The decision unit: most-likely-1 minus most-likely-0
            // path metrics — the single added subtracter of §4.3.2.
            let llr = best[1].saturating_sub(best[0]);
            out.bits.push(u8::from(llr > 0));
            out.soft.push(saturate_llr(llr));

            forward_acs(trellis, bm, alpha, next_alpha, None, None);
            normalize(next_alpha);
            std::mem::swap(alpha, next_alpha);
        }
        t0 = t1;
    }

    let info = steps - tail_len;
    out.bits.truncate(info);
    out.soft.truncate(info);
}
