//! Reusable decode working memory.
//!
//! The three decoders share one BMU/PMU substrate (§4.3); they also share
//! one working-memory layout. [`TrellisScratch`] owns every intermediate
//! buffer a block decode needs — path-metric columns, flattened survivor
//! and margin matrices, branch-metric and backward-metric stores — sized
//! on first use and retained across calls, so the steady-state decode path
//! of the scenario engine allocates nothing per packet.

use crate::pmu::NEG_INF;

/// Working buffers for one decoder instance: the `i64` reference kernels'
/// buffers, and the lane kernels' in `batch`.
///
/// Matrices are flattened row-major: step `t`, state `s` lives at
/// `t * n_states + s`. Buffers grow monotonically to the largest block
/// seen and are reused verbatim afterwards.
#[derive(Debug, Clone, Default)]
pub struct TrellisScratch {
    /// Forward path-metric column (current step).
    pub(crate) pm: Vec<i64>,
    /// Forward path-metric column (next step).
    pub(crate) next: Vec<i64>,
    /// Survivor edge indices, `steps × n_states`.
    pub(crate) survivors: Vec<u8>,
    /// ACS decision margins, `steps × n_states` (SOVA).
    pub(crate) margins: Vec<i64>,
    /// Per-step reliabilities along the ML path (SOVA).
    pub(crate) reliability: Vec<i64>,
    /// ML state sequence, `steps + 1` entries (SOVA).
    pub(crate) ml_states: Vec<u32>,
    /// ML input bits, one per step (SOVA).
    pub(crate) ml_bits: Vec<u8>,
    /// Branch metrics, `steps × 2^n_out` (BCJR).
    pub(crate) bms: Vec<i64>,
    /// Backward metric columns for the current block, `block × n_states`
    /// (BCJR).
    pub(crate) betas: Vec<i64>,
    /// Beta boundary column at the end of the current block (BCJR).
    pub(crate) boundary: Vec<i64>,
    /// Spare column for the provisional backward walk (BCJR).
    pub(crate) col: Vec<i64>,
    /// Lane-major buffers for the lane kernels ([`crate::batch`]), which
    /// run every in-gate decode; empty until the first one.
    pub(crate) batch: crate::batch::BatchScratch,
}

impl TrellisScratch {
    /// An empty scratch; buffers are sized lazily on first decode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets `pm` to the known-state column (state `state` certain) and
    /// sizes `next` to match.
    pub(crate) fn init_columns(&mut self, n_states: usize, state: usize) {
        self.pm.clear();
        self.pm.resize(n_states, NEG_INF);
        self.pm[state] = 0;
        self.next.clear();
        self.next.resize(n_states, 0);
    }

    /// Sizes the flattened survivor matrix for `steps` trellis steps.
    pub(crate) fn init_survivors(&mut self, steps: usize, n_states: usize) {
        self.survivors.clear();
        self.survivors.resize(steps * n_states, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_initialize_to_known_state() {
        let mut s = TrellisScratch::new();
        s.init_columns(4, 2);
        assert_eq!(s.pm, vec![NEG_INF, NEG_INF, 0, NEG_INF]);
        assert_eq!(s.next.len(), 4);
    }

    #[test]
    fn buffers_retain_capacity_across_reuse() {
        let mut s = TrellisScratch::new();
        s.init_survivors(100, 64);
        let cap = s.survivors.capacity();
        s.init_survivors(50, 64);
        assert!(s.survivors.capacity() >= cap, "shrank a reusable buffer");
    }
}
