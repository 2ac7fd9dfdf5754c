//! The engine's golden digest: one small canonical grid that walks every
//! execution path of the sweep engine, folded into a single FNV-1a hash.
//!
//! The grid covers every stock channel (`awgn`, `fading`, `replay`,
//! `trace`) and decoder (`viterbi`, `sova`, `bcjr`); the links `none`,
//! `arq`, `ppr`, `softrate` with its oracle on and off, `harq-cc` and
//! `harq-ir`; the contentions `aloha`, `csma` and `tdma`, one cell running
//! `harq-ir`; BER and PER stopping rules, packet statistics, and an
//! injected worker panic. It is built from valid sub-grids, because
//! SoftRate and HARQ reject hard decoders.
//!
//! The expected value was recorded from the engine before its packet
//! loops were merged into one. An engine change that moves any bit of any
//! result — a count, a float, a link or cell metric, a quarantine — moves
//! the digest; a refactor that claims to change nothing must leave it
//! untouched, at any thread count.

#![forbid(unsafe_code)]

use wilis::phy::PhyRate;
use wilis::scenario::{Scenario, StoppingRule, SweepGrid, SweepRunner};
use wilis::FaultInjector;

/// The digest of [`canonical_grid`] under the three runs of [`digest`].
const GOLDEN: u64 = 0xdabe_7815_f99e_d9dc;

/// Grid indices whose worker job panics by injection.
const PANIC_SPEC: &str = "targeted:worker_panic=4+40+46";

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn canonical_grid() -> Vec<Scenario> {
    // PHY-only and observer links over every channel and decoder: these
    // fuse per channel coordinate and decode in batched lanes.
    let observers = SweepGrid::new()
        .rates(&[PhyRate::QpskHalf])
        .decoders(&["viterbi", "sova", "bcjr"])
        .channels(&["awgn", "fading", "replay", "trace"])
        .links(&["none", "arq", "ppr"])
        .snrs_db(&[3.0])
        .packets(6)
        .payload_bits(200);
    // Rate adaptation, with and without the all-rates oracle.
    let softrate = |oracle: &str| {
        SweepGrid::new()
            .rates(&[PhyRate::Qam16Half])
            .decoders(&["sova", "bcjr"])
            .channels(&["awgn", "trace"])
            .links(&["softrate"])
            .link_param("oracle", oracle)
            .snrs_db(&[9.0])
            .packets(6)
            .payload_bits(200)
    };
    // Soft combining at a punctured rate, so IR cycles its phases.
    let harq = SweepGrid::new()
        .rates(&[PhyRate::Qam16ThreeQuarters])
        .decoders(&["sova", "bcjr"])
        .channels(&["awgn", "fading"])
        .links(&["harq-cc", "harq-ir"])
        .snrs_db(&[10.0])
        .packets(5)
        .payload_bits(200);
    let cells = SweepGrid::new()
        .rates(&[PhyRate::QpskHalf])
        .decoders(&["sova"])
        .links(&["none", "arq"])
        .contentions(&["aloha", "csma", "tdma"])
        .contention_param("p", "0.4")
        .nodes(3)
        .snrs_db(&[8.0])
        .packets(12)
        .payload_bits(200);
    let harq_cell = SweepGrid::new()
        .rates(&[PhyRate::Qam16ThreeQuarters])
        .decoders(&["bcjr"])
        .channels(&["fading"])
        .links(&["harq-ir"])
        .contentions(&["csma"])
        .nodes(3)
        .snrs_db(&[12.0])
        .packets(12)
        .payload_bits(200);
    [
        observers,
        softrate("true"),
        softrate("false"),
        harq,
        cells,
        harq_cell,
    ]
    .iter()
    .flat_map(SweepGrid::scenarios)
    .collect()
}

/// Runs the canonical grid three times on `threads` workers — fixed
/// budgets with packet statistics and the injected panics, then under a
/// BER and a PER stopping rule — and hashes every outcome and report.
fn digest(threads: usize) -> u64 {
    let scenarios = canonical_grid();
    let faults = FaultInjector::from_spec(PANIC_SPEC).expect("valid fault spec");
    let runs = [
        SweepRunner::new(threads)
            .record_packet_stats(true)
            .with_faults(Some(faults)),
        SweepRunner::new(threads).with_stopping(Some(StoppingRule::ber(0.02).with_chunk(2))),
        SweepRunner::new(threads).with_stopping(Some(StoppingRule::per(0.25).with_chunk(2))),
    ];
    let mut hash = Fnv1a::new();
    for runner in &runs {
        let sweep = runner.run_supervised(&scenarios).expect("valid grid");
        // Debug renders every float in its shortest round-trip form, so
        // the text pins each result bit for bit.
        hash.write(format!("{:?}", sweep.outcomes).as_bytes());
        hash.write(format!("{:?}", sweep.report).as_bytes());
    }
    hash.0
}

#[test]
fn canonical_grid_covers_every_path() {
    let scenarios = canonical_grid();
    for name in ["awgn", "fading", "replay", "trace"] {
        assert!(scenarios.iter().any(|s| s.channel == name), "{name}");
    }
    for name in ["viterbi", "sova", "bcjr"] {
        assert!(scenarios.iter().any(|s| s.decoder == name), "{name}");
    }
    for name in ["none", "arq", "ppr", "softrate", "harq-cc", "harq-ir"] {
        assert!(scenarios.iter().any(|s| s.link == name), "{name}");
    }
    for name in ["aloha", "csma", "tdma"] {
        assert!(scenarios.iter().any(|s| s.contention == name), "{name}");
    }
    assert!(scenarios
        .iter()
        .any(|s| s.contention != "p2p" && s.link == "harq-ir"));
}

#[test]
fn golden_digest_is_unchanged_at_1_and_2_threads() {
    for threads in [1, 2] {
        let got = digest(threads);
        assert_eq!(
            got, GOLDEN,
            "{threads}-thread digest {got:#018x} moved from the golden {GOLDEN:#018x}: \
             if the change is meant to move result bits, bump the epoch of the layer \
             you changed, regenerate, and record both values in CHANGES.md \
             (`RESULT_EPOCHS` in crates/wilis/src/service/store.rs)"
        );
    }
}
