//! The scenario engine's headline contract: a sweep grid produces
//! bit-identical results for any worker count — the whole-stack analog of
//! the `apply_awgn_parallel` doctest at the channel layer.

use wilis::phy::PhyRate;
use wilis::scenario::{SweepGrid, SweepRunner};

/// A Figure-5-style grid: the three paper configurations (QAM-16 at the
/// waterfall midpoint, QPSK at its midpoint, QAM-16 one dB up), both soft
/// decoders, a couple of seeds.
fn fig5_style_grid() -> SweepGrid {
    SweepGrid::new()
        .rates(&[PhyRate::Qam16Half, PhyRate::QpskHalf])
        .decoders(&["sova", "bcjr"])
        .snrs_db(&[6.0, 8.0])
        .seeds(&[1, 2])
        .packets(3)
        .payload_bits(600)
}

#[test]
fn grid_results_identical_at_1_2_and_8_threads() {
    let scenarios = fig5_style_grid().scenarios();
    assert_eq!(scenarios.len(), 16);
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    for threads in [2, 8] {
        let got = SweepRunner::new(threads).run(&scenarios).unwrap();
        assert_eq!(
            got, reference,
            "{threads}-thread sweep diverged from the serial reference"
        );
    }
}

#[test]
fn ber_is_bit_identical_not_just_close() {
    // Spell the contract out: identical error *counts* and identical hint
    // bins, not merely matching floating-point BER.
    let scenarios = fig5_style_grid().scenarios();
    let a = SweepRunner::new(1).run(&scenarios).unwrap();
    let b = SweepRunner::new(8).run(&scenarios).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.bit_errors, y.bit_errors, "{}", x.label);
        assert_eq!(x.packet_errors, y.packet_errors, "{}", x.label);
        assert_eq!(x.hint_bins, y.hint_bins, "{}", x.label);
        assert_eq!(
            x.predicted_pber_sum.to_bits(),
            y.predicted_pber_sum.to_bits(),
            "{}",
            x.label
        );
    }
}

/// The acceptance grid of the link-layer integration: (rate × SNR × link)
/// with every stock policy plus the PHY-only baseline on the link axis.
fn link_grid() -> SweepGrid {
    SweepGrid::new()
        .rates(&[PhyRate::Qam16Half, PhyRate::QpskHalf])
        .decoders(&["bcjr"])
        .links(&["none", "arq", "ppr", "softrate"])
        .snrs_db(&[6.0, 9.0])
        .packets(3)
        .payload_bits(400)
}

#[test]
fn link_grid_results_identical_at_1_2_and_8_threads() {
    let scenarios = link_grid().scenarios();
    assert_eq!(scenarios.len(), 16);
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    for threads in [2, 8] {
        let got = SweepRunner::new(threads).run(&scenarios).unwrap();
        assert_eq!(
            got, reference,
            "{threads}-thread link sweep diverged from the serial reference"
        );
    }
}

#[test]
fn link_metrics_are_bit_identical_not_just_close() {
    // The link dimension inherits the engine's contract: identical
    // counters and bit-identical floating-point summaries, including the
    // SoftRate policy whose oracle replays each packet at other rates.
    let scenarios = link_grid().scenarios();
    let a = SweepRunner::new(1).run(&scenarios).unwrap();
    let b = SweepRunner::new(8).run(&scenarios).unwrap();
    let mut linked = 0;
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.link.is_some(), y.link.is_some(), "{}", x.label);
        let (Some(mx), Some(my)) = (&x.link, &y.link) else {
            continue;
        };
        linked += 1;
        assert_eq!(mx.packets, my.packets, "{}", x.label);
        assert_eq!(mx.delivered, my.delivered, "{}", x.label);
        assert_eq!(mx.gave_up, my.gave_up, "{}", x.label);
        assert_eq!(mx.bits_transmitted, my.bits_transmitted, "{}", x.label);
        assert_eq!(mx.bits_retransmitted, my.bits_retransmitted, "{}", x.label);
        assert_eq!(
            (mx.under, mx.accurate, mx.over),
            (my.under, my.accurate, my.over),
            "{}",
            x.label
        );
        assert_eq!(
            mx.selected_mbps_sum.to_bits(),
            my.selected_mbps_sum.to_bits(),
            "{}",
            x.label
        );
    }
    assert_eq!(linked, 12, "three link policies across four grid corners");
}

#[test]
fn non_adapting_links_leave_the_phy_results_untouched() {
    // ARQ and PPR observe packets but never steer the transmitter, so at
    // the same grid point every PHY-side field must match the PHY-only
    // ("none") scenario byte for byte — the link layer is a pure observer
    // there. (SoftRate intentionally breaks this: it retunes the rate.)
    let runner = SweepRunner::new(2);
    let grid = |link: &str| {
        SweepGrid::new()
            .links(&[link])
            .snrs_db(&[6.0])
            .packets(4)
            .payload_bits(400)
            .scenarios()
    };
    let phy_only = runner.run(&grid("none")).unwrap();
    for link in ["arq", "ppr"] {
        let linked = runner.run(&grid(link)).unwrap();
        for (a, b) in phy_only.iter().zip(&linked) {
            assert_eq!(a.bit_errors, b.bit_errors, "{link}");
            assert_eq!(a.packet_errors, b.packet_errors, "{link}");
            assert_eq!(a.hint_bins, b.hint_bins, "{link}");
            assert_eq!(
                a.predicted_pber_sum.to_bits(),
                b.predicted_pber_sum.to_bits(),
                "{link}"
            );
            assert!(a.link.is_none() && b.link.is_some());
        }
    }
}

/// A grid built to maximize shared-channel job fusion: three decoders and
/// three non-adapting links over one (rate, channel, SNR, seed)
/// coordinate — nine scenarios, one channel realization.
fn fused_grid() -> SweepGrid {
    SweepGrid::new()
        .rates(&[PhyRate::Qam16Half])
        .decoders(&["viterbi", "sova", "bcjr"])
        .links(&["none", "arq", "ppr"])
        .snrs_db(&[6.5])
        .packets(4)
        .payload_bits(300)
}

#[test]
fn shared_channel_groups_match_solo_execution() {
    // The engine fuses grid points differing only in decoder/link into
    // one shared transmit+channel job. Every per-scenario field must be
    // byte-identical to running that scenario through a grid of its own.
    let scenarios = fused_grid().scenarios();
    let fused = SweepRunner::new(2).run(&scenarios).unwrap();
    let solo_runner = SweepRunner::new(1);
    for (i, sc) in scenarios.iter().enumerate() {
        let solo = &solo_runner.run(std::slice::from_ref(sc)).unwrap()[0];
        assert_eq!(solo.label, fused[i].label);
        assert_eq!(solo.bit_errors, fused[i].bit_errors, "{}", solo.label);
        assert_eq!(solo.packet_errors, fused[i].packet_errors, "{}", solo.label);
        assert_eq!(solo.hint_bins, fused[i].hint_bins, "{}", solo.label);
        assert_eq!(
            solo.predicted_pber_sum.to_bits(),
            fused[i].predicted_pber_sum.to_bits(),
            "{}",
            solo.label
        );
        assert_eq!(solo.link, fused[i].link, "{}", solo.label);
    }
}

#[test]
fn batched_group_blocks_match_solo_for_every_width() {
    // The fused path decodes packet blocks of up to MAX_BATCH_LANES (8)
    // in lockstep. Sweep packet budgets that exercise every batch width:
    // full blocks of 1, 2, 4, and 8 lanes plus a ragged budget of 11,
    // which the balanced partition runs as 6 + 5 (never 8 + 3). At this
    // waterfall SNR blocks mix clean and errored lanes, and every worker
    // count must reproduce the packet-at-a-time solo path byte for byte.
    for packets in [1u32, 2, 4, 8, 11] {
        let scenarios = SweepGrid::new()
            .rates(&[PhyRate::Qam16Half])
            .decoders(&["viterbi", "sova", "bcjr"])
            .links(&["none", "arq"])
            .snrs_db(&[6.5])
            .packets(packets)
            .payload_bits(300)
            .scenarios();
        let solo_runner = SweepRunner::new(1);
        let solo: Vec<_> = scenarios
            .iter()
            .map(|sc| solo_runner.run(std::slice::from_ref(sc)).unwrap().remove(0))
            .collect();
        for threads in [1, 2, 8] {
            let fused = SweepRunner::new(threads).run(&scenarios).unwrap();
            for (s, f) in solo.iter().zip(&fused) {
                let at = format!("{}: {packets} packets, {threads} threads", s.label);
                assert_eq!(s.label, f.label, "{at}");
                assert_eq!(s.bit_errors, f.bit_errors, "{at}");
                assert_eq!(s.packet_errors, f.packet_errors, "{at}");
                assert_eq!(s.hint_bins, f.hint_bins, "{at}");
                assert_eq!(
                    s.predicted_pber_sum.to_bits(),
                    f.predicted_pber_sum.to_bits(),
                    "{at}"
                );
                assert_eq!(s.link, f.link, "{at}");
            }
        }
    }
}

#[test]
fn fused_grid_results_identical_at_1_2_and_8_threads() {
    // The thread-count contract holds with job fusion on the hot path.
    let scenarios = fused_grid().scenarios();
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    for threads in [2, 8] {
        let got = SweepRunner::new(threads).run(&scenarios).unwrap();
        assert_eq!(
            got, reference,
            "{threads}-thread fused sweep diverged from the serial reference"
        );
    }
}

/// The cell-dimension acceptance grid: point-to-point plus all three
/// contention policies, with and without a link layer, across two SNRs.
fn cell_grid() -> SweepGrid {
    SweepGrid::new()
        .rates(&[PhyRate::Qam16Half])
        .decoders(&["bcjr"])
        .links(&["none", "arq"])
        .contentions(&["p2p", "aloha", "csma", "tdma"])
        .nodes(3)
        .snrs_db(&[6.0, 9.0])
        .packets(6)
        .payload_bits(300)
}

#[test]
fn cell_grid_results_identical_at_1_2_and_8_threads() {
    let scenarios = cell_grid().scenarios();
    assert_eq!(scenarios.len(), 16);
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    for threads in [2, 8] {
        let got = SweepRunner::new(threads).run(&scenarios).unwrap();
        assert_eq!(
            got, reference,
            "{threads}-thread cell sweep diverged from the serial reference"
        );
    }
}

#[test]
fn cell_metrics_are_bit_identical_not_just_close() {
    // The cell dimension inherits the engine's contract: identical slot
    // classifications, per-node counters, and bit-identical derived
    // figures (goodput, Jain index) for any worker count.
    let scenarios = cell_grid().scenarios();
    let a = SweepRunner::new(1).run(&scenarios).unwrap();
    let b = SweepRunner::new(8).run(&scenarios).unwrap();
    let mut cells = 0;
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cell.is_some(), y.cell.is_some(), "{}", x.label);
        let (Some(cx), Some(cy)) = (&x.cell, &y.cell) else {
            continue;
        };
        cells += 1;
        assert_eq!(cx, cy, "{}", x.label);
        assert_eq!(
            cx.aggregate_goodput().to_bits(),
            cy.aggregate_goodput().to_bits(),
            "{}",
            x.label
        );
        assert_eq!(
            cx.jain_index().to_bits(),
            cy.jain_index().to_bits(),
            "{}",
            x.label
        );
    }
    assert_eq!(cells, 12, "three contention policies across four corners");
}

/// The HARQ acceptance grid: both soft-combining modes and the ARQ
/// baseline over a punctured and an unpunctured rate, straddling the
/// waterfall so retransmissions actually happen — solo attempt loops on
/// the point-to-point points and the HARQ cell path on the aloha points.
fn harq_grid() -> SweepGrid {
    SweepGrid::new()
        .rates(&[PhyRate::Qam16Half, PhyRate::Qam16ThreeQuarters])
        .decoders(&["bcjr"])
        .links(&["arq", "harq-cc", "harq-ir"])
        .contentions(&["p2p", "aloha"])
        .nodes(3)
        .snrs_db(&[6.0, 11.0])
        .packets(8)
        .payload_bits(400)
}

#[test]
fn harq_grid_results_identical_at_1_2_and_8_threads() {
    let scenarios = harq_grid().scenarios();
    assert_eq!(scenarios.len(), 24);
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    for threads in [2, 8] {
        let got = SweepRunner::new(threads).run(&scenarios).unwrap();
        assert_eq!(
            got, reference,
            "{threads}-thread HARQ sweep diverged from the serial reference"
        );
    }
}

#[test]
fn harq_metrics_are_bit_identical_not_just_close() {
    // The stateful retry loop inherits the engine's contract: identical
    // attempt histograms and bit-identical effective-rate sums for any
    // worker count.
    let scenarios = harq_grid().scenarios();
    let a = SweepRunner::new(1).run(&scenarios).unwrap();
    let b = SweepRunner::new(8).run(&scenarios).unwrap();
    let mut combined = 0;
    for (x, y) in a.iter().zip(&b) {
        let (Some(mx), Some(my)) = (&x.link, &y.link) else {
            continue;
        };
        assert_eq!(mx.packets, my.packets, "{}", x.label);
        assert_eq!(mx.recovered, my.recovered, "{}", x.label);
        assert_eq!(mx.attempts_hist, my.attempts_hist, "{}", x.label);
        assert_eq!(
            mx.effective_rate_sum.to_bits(),
            my.effective_rate_sum.to_bits(),
            "{}",
            x.label
        );
        if mx.attempts_hist.iter().sum::<u64>() > 0 {
            combined += 1;
        }
    }
    assert!(
        combined >= 8,
        "the grid must exercise the combining paths, got {combined}"
    );
}

#[test]
fn repeated_runs_are_reproducible() {
    // Same grid, same runner, different invocation: still identical —
    // nothing depends on wall time, thread ids, or allocator state.
    let scenarios = fig5_style_grid().scenarios();
    let runner = SweepRunner::new(4);
    assert_eq!(
        runner.run(&scenarios).unwrap(),
        runner.run(&scenarios).unwrap()
    );
}

#[test]
fn noisier_points_of_the_grid_have_higher_ber() {
    // Sanity on the physics while we are here: for each (rate, decoder),
    // the 6 dB point should be no better than the 8 dB point.
    let scenarios = SweepGrid::new()
        .rates(&[PhyRate::Qam16Half])
        .decoders(&["bcjr"])
        .snrs_db(&[5.0, 9.0])
        .packets(20)
        .payload_bits(600)
        .scenarios();
    let results = SweepRunner::new(4).run(&scenarios).unwrap();
    assert!(
        results[0].ber() >= results[1].ber(),
        "5 dB BER {:.3e} < 9 dB BER {:.3e}",
        results[0].ber(),
        results[1].ber()
    );
}
