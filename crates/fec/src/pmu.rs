//! Path metric unit — shared by all decoders, "parameterized in terms of
//! path permutation, which differs between the forward and backward trellis
//! paths of BCJR, and the Add-Compare-Select units" (§4.3).
//!
//! Metrics are max-log: larger is more likely. The unreachable-state
//! sentinel is a large negative value far from overflow.

use crate::llr::Llr;
use crate::trellis::Trellis;

/// Metric of an unreachable state. Far enough from `i64::MIN` that adding
/// branch metrics can never wrap.
pub const NEG_INF: i64 = i64::MIN / 4;

/// One forward Add-Compare-Select step.
///
/// For every destination state, adds each incoming edge's branch metric to
/// its source path metric, compares, and selects the larger. Optionally
/// records the surviving edge index and the decision margin `|difference|`
/// — the quantities SOVA's traceback units consume.
///
/// `bm` is indexed by output bitmask (see [`crate::bmu`]); `prev` and `out`
/// are path-metric columns of `trellis.n_states()` entries.
///
/// # Panics
///
/// Panics (in debug builds) if column sizes disagree with the trellis.
pub fn forward_acs(
    trellis: &Trellis,
    bm: &[i64],
    prev: &[i64],
    out: &mut [i64],
    mut survivors: Option<&mut [u8]>,
    mut deltas: Option<&mut [i64]>,
) {
    debug_assert_eq!(prev.len(), trellis.n_states());
    debug_assert_eq!(out.len(), trellis.n_states());
    for state in 0..trellis.n_states() {
        let [e0, e1] = trellis.incoming(state);
        let c0 = prev[e0.prev as usize].saturating_add(bm[e0.output as usize]);
        let c1 = prev[e1.prev as usize].saturating_add(bm[e1.output as usize]);
        let (winner, metric, margin) = if c0 >= c1 {
            (0u8, c0, c0 - c1)
        } else {
            (1u8, c1, c1 - c0)
        };
        out[state] = metric;
        if let Some(s) = survivors.as_deref_mut() {
            s[state] = winner;
        }
        if let Some(d) = deltas.as_deref_mut() {
            d[state] = margin;
        }
    }
}

/// One backward ACS step (BCJR's reverse path): for every source state,
/// combines each outgoing edge's branch metric with the *destination*'s
/// backward metric — the "path permutation" that distinguishes the
/// backward PMU from the forward one.
pub fn backward_acs(trellis: &Trellis, bm: &[i64], next: &[i64], out: &mut [i64]) {
    debug_assert_eq!(next.len(), trellis.n_states());
    debug_assert_eq!(out.len(), trellis.n_states());
    for (state, slot) in out.iter_mut().enumerate() {
        let t0 = trellis.next(state, 0);
        let t1 = trellis.next(state, 1);
        let c0 = next[t0.next as usize].saturating_add(bm[t0.output as usize]);
        let c1 = next[t1.next as usize].saturating_add(bm[t1.output as usize]);
        *slot = c0.max(c1);
    }
}

/// Rescales a metric column so its maximum is zero — the modulo/subtract
/// normalization hardware PMUs apply to keep register widths bounded.
pub fn normalize(column: &mut [i64]) {
    let max = column.iter().copied().max().unwrap_or(0);
    if max > NEG_INF / 2 {
        for m in column {
            if *m > NEG_INF / 2 {
                *m -= max;
            }
        }
    }
}

/// A metric column initialized for a path known to start in `state`.
pub fn known_state_column(n_states: usize, state: usize) -> Vec<i64> {
    let mut col = vec![NEG_INF; n_states];
    col[state] = 0;
    col
}

/// A metric column for a completely unknown ("uncertain") state — the
/// initialization the paper uses for the provisional backward pass (§4.3.2).
pub fn uncertain_column(n_states: usize) -> Vec<i64> {
    vec![0; n_states]
}

/// Saturates a wide internal metric to an [`Llr`]-width soft output, the
/// final quantization before a soft value leaves the decoder.
pub fn saturate_llr(metric: i64) -> Llr {
    metric.clamp(i64::from(Llr::MIN), i64::from(Llr::MAX)) as Llr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmu::branch_metrics;
    use crate::{ConvCode, ConvEncoder};

    fn trellis() -> Trellis {
        Trellis::new(&ConvCode::k3())
    }

    #[test]
    fn forward_tracks_clean_path() {
        // Encode a short sequence; with full-confidence LLRs the true path
        // must be the unique maximum at every step.
        let code = ConvCode::k3();
        let t = Trellis::new(&code);
        let bits = [1u8, 0, 1, 1];
        let mut enc = ConvEncoder::new(&code);
        let coded = enc.encode(&bits);

        let mut pm = known_state_column(t.n_states(), 0);
        let mut next = vec![0i64; t.n_states()];
        let mut state = 0usize;
        for (step, pair) in coded.chunks(2).enumerate() {
            let llrs: Vec<i32> = pair.iter().map(|&b| if b == 1 { 8 } else { -8 }).collect();
            let bm = branch_metrics(&llrs);
            forward_acs(&t, &bm, &pm, &mut next, None, None);
            state = t.next(state, bits[step]).next as usize;
            let best = (0..t.n_states()).max_by_key(|&s| next[s]).unwrap();
            assert_eq!(best, state, "true path lost at step {step}");
            std::mem::swap(&mut pm, &mut next);
        }
    }

    #[test]
    fn margins_are_nonnegative() {
        let t = trellis();
        let bm = branch_metrics(&[3, -5]);
        let prev = uncertain_column(t.n_states());
        let mut out = vec![0i64; t.n_states()];
        let mut surv = vec![0u8; t.n_states()];
        let mut delta = vec![0i64; t.n_states()];
        forward_acs(&t, &bm, &prev, &mut out, Some(&mut surv), Some(&mut delta));
        assert!(delta.iter().all(|&d| d >= 0));
    }

    #[test]
    fn backward_mirrors_forward_on_symmetric_input() {
        // With an uncertain start and a single step, the backward metric of
        // a state is the max over its outgoing branch metrics; check against
        // a hand computation.
        let t = trellis();
        let bm = branch_metrics(&[2, 6]);
        let next = uncertain_column(t.n_states());
        let mut out = vec![0i64; t.n_states()];
        backward_acs(&t, &bm, &next, &mut out);
        for s in 0..t.n_states() {
            let m0 = bm[t.next(s, 0).output as usize];
            let m1 = bm[t.next(s, 1).output as usize];
            assert_eq!(out[s], m0.max(m1));
        }
    }

    #[test]
    fn normalize_zeroes_the_max() {
        let mut col = vec![100, 50, NEG_INF, 75];
        normalize(&mut col);
        assert_eq!(col[0], 0);
        assert_eq!(col[1], -50);
        assert_eq!(col[2], NEG_INF, "unreachable stays unreachable");
    }

    #[test]
    fn saturate_llr_clamps() {
        assert_eq!(saturate_llr(i64::MAX / 2), i32::MAX);
        assert_eq!(saturate_llr(-(i64::MAX / 2)), i32::MIN);
        assert_eq!(saturate_llr(-5), -5);
    }

    #[test]
    fn unreachable_states_do_not_win() {
        let t = trellis();
        let bm = branch_metrics(&[1, 1]);
        let prev = known_state_column(t.n_states(), 2);
        let mut out = vec![0i64; t.n_states()];
        forward_acs(&t, &bm, &prev, &mut out, None, None);
        // Only successors of state 2 should be reachable.
        let reachable: Vec<usize> = (0..t.n_states())
            .filter(|&s| out[s] > NEG_INF / 2)
            .collect();
        let expect: Vec<usize> = (0..2u8).map(|b| t.next(2, b).next as usize).collect();
        let mut expect_sorted = expect;
        expect_sorted.sort_unstable();
        assert_eq!(reachable, expect_sorted);
    }
}
