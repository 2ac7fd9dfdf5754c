//! Shared helpers for the WiLIS benchmark harness.
//!
//! Every table and figure of the paper has a bench target in `benches/`,
//! and one more target gates the speed of the kernels behind them:
//!
//! | Target | Regenerates |
//! |---|---|
//! | `fig2_sim_speed` | Figure 2 — simulation speed per 802.11g rate |
//! | `fig5_llr_ber` | Figure 5 — BER vs SoftPHY hints (BCJR and SOVA) |
//! | `fig6_pber` | Figure 6 — predicted vs actual per-packet BER |
//! | `fig7_softrate` | Figure 7 — SoftRate selection accuracy |
//! | `fig8_area` | Figure 8 — decoder synthesis results |
//! | `channel_throughput` | §3 — noise generation saturates the host |
//! | `latency` | §4.3 — decoder pipeline latency formulas |
//! | `decoupling` | §2 — decoupled vs lock-step transfer throughput |
//! | `ablation_bitwidth` | §4.1 — demapper width 3..8 bits |
//! | `ablation_window` | §4.3/§4.4.3 — traceback/block length sweeps |
//! | `perf_ratios` | kernel and service speed ratios — `BENCH_ratios.json` |
//!
//! Run them all with `cargo bench --workspace`; scale the Monte-Carlo
//! budgets with `WILIS_BITS=<bits>`.
//!
//! The targets are plain `harness = false` binaries timed with
//! [`harness`] — a deliberately small measurement loop, because this
//! repository builds offline with no external crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

/// Standard header printed by each figure bench.
pub fn banner(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}
