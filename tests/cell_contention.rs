//! Contention-cell acceptance properties: the cell dimension must be a
//! *strict generalization* of the point-to-point engine (a 1-node CSMA
//! cell reproduces the `"arq"` path, a disarmed `HarqLink`, bit for
//! bit), and the TDMA oracle must bound every contending policy from
//! above with zero collisions.

use wilis::phy::PhyRate;
use wilis::scenario::{ScenarioResult, SweepGrid, SweepRunner};

/// Runs a single-scenario grid and returns its result.
fn run_one(grid: SweepGrid) -> ScenarioResult {
    let scenarios = grid.scenarios();
    assert_eq!(scenarios.len(), 1);
    SweepRunner::new(1).run(&scenarios).unwrap().remove(0)
}

/// The strict-generalization property, as a self-seeded property test
/// over operating points: a 1-node CSMA cell has nothing to contend with,
/// so its attempt `a` draws exactly the seeds point-to-point packet `a`
/// draws — every PHY statistic and every ARQ counter must be
/// bit-identical to a p2p run of the same length.
#[test]
fn one_node_csma_cell_reproduces_p2p_arq_bit_for_bit() {
    // Span clean, waterfall, and lossy operating points and several
    // Monte-Carlo replicas: the equivalence must hold everywhere,
    // including where decode failures drive ARQ retransmissions and CSMA
    // backoff (which only changes *when* attempts happen, never what any
    // attempt contains).
    for &(snr_db, seed) in &[(30.0, 1u64), (9.0, 2), (6.5, 3), (5.5, 7), (9.0, 99)] {
        let slots = 12u32;
        let cell = run_one(
            SweepGrid::new()
                .decoders(&["bcjr"])
                .links(&["arq"])
                .contentions(&["csma"])
                .nodes(1)
                .snrs_db(&[snr_db])
                .seeds(&[seed])
                .packets(slots)
                .payload_bits(300),
        );
        let c = cell.cell.as_ref().expect("cell metrics");
        assert_eq!(c.collision_slots, 0, "a lone node cannot collide");
        let attempts = c.attempts();
        assert!(attempts >= 1, "a saturated lone node must transmit");
        assert_eq!(
            cell.packets, attempts,
            "every lone-node attempt reaches the receiver"
        );

        // The p2p reference run, one packet per cell attempt.
        let p2p = run_one(
            SweepGrid::new()
                .decoders(&["bcjr"])
                .links(&["arq"])
                .snrs_db(&[snr_db])
                .seeds(&[seed])
                .packets(attempts as u32)
                .payload_bits(300),
        );

        let point = format!("@{snr_db}dB seed{seed}");
        assert_eq!(cell.packets, p2p.packets, "{point}");
        assert_eq!(cell.bits, p2p.bits, "{point}");
        assert_eq!(cell.bit_errors, p2p.bit_errors, "{point}");
        assert_eq!(cell.packet_errors, p2p.packet_errors, "{point}");
        assert_eq!(cell.hint_bins, p2p.hint_bins, "{point}");
        assert_eq!(
            cell.predicted_pber_sum.to_bits(),
            p2p.predicted_pber_sum.to_bits(),
            "{point}"
        );
        assert_eq!(
            cell.link.expect("cell arq metrics"),
            p2p.link.expect("p2p arq metrics"),
            "{point}: the contention layer must be a strict generalization"
        );
    }
}

/// Saturated contention shoot-out at one operating point, all three
/// policies on the identical cell.
fn shootout(contention: &str, snr_db: f64) -> ScenarioResult {
    run_one(
        SweepGrid::new()
            .rates(&[PhyRate::Qam16Half])
            .decoders(&["bcjr"])
            .contentions(&[contention])
            .nodes(4)
            .snrs_db(&[snr_db])
            .packets(80)
            .payload_bits(256),
    )
}

#[test]
fn tdma_oracle_never_collides_and_bounds_contending_goodput() {
    for &snr_db in &[9.0, 12.0] {
        let tdma = shootout("tdma", snr_db);
        let t = tdma.cell.as_ref().expect("tdma cell");
        assert_eq!(
            t.collision_slots, 0,
            "TDMA is collision-free by construction"
        );
        assert_eq!(t.capture_slots, 0);
        assert_eq!(t.idle_slots, 0, "saturated TDMA uses every slot");
        let per_node_collisions: u64 = t.per_node.iter().map(|n| n.collisions).sum();
        assert_eq!(per_node_collisions, 0);

        for contending in ["aloha", "csma"] {
            let r = shootout(contending, snr_db);
            let c = r.cell.as_ref().expect("contending cell");
            assert!(
                t.aggregate_goodput() >= c.aggregate_goodput(),
                "@{snr_db}dB: TDMA {:.3} must bound {contending} {:.3}",
                t.aggregate_goodput(),
                c.aggregate_goodput()
            );
        }
    }
}

#[test]
fn tdma_round_robin_is_perfectly_fair() {
    // 80 slots over 4 nodes: 20 each, identical delivery odds per node at
    // a clean SNR — Jain's index must be exactly 1.
    let tdma = shootout("tdma", 30.0);
    let c = tdma.cell.as_ref().expect("cell metrics");
    assert!((c.jain_index() - 1.0).abs() < 1e-12);
    assert!((c.aggregate_goodput() - 1.0).abs() < 1e-12);
}

#[test]
fn contention_costs_goodput_but_carrier_sense_recovers_some() {
    // The classic ordering on a saturated cell at a clean SNR: ALOHA
    // burns slots on collisions, CSMA defers around them, TDMA wastes
    // nothing.
    let aloha = shootout("aloha", 12.0);
    let csma = shootout("csma", 12.0);
    let tdma = shootout("tdma", 12.0);
    let (a, c, t) = (
        aloha.cell.as_ref().unwrap().aggregate_goodput(),
        csma.cell.as_ref().unwrap().aggregate_goodput(),
        tdma.cell.as_ref().unwrap().aggregate_goodput(),
    );
    assert!(
        a < c && c <= t,
        "expected ALOHA {a:.3} < CSMA {c:.3} <= TDMA {t:.3}"
    );
    assert!(
        aloha.cell.as_ref().unwrap().collision_fraction()
            > csma.cell.as_ref().unwrap().collision_fraction(),
        "carrier sense must cut the collision fraction"
    );
}

#[test]
fn cell_results_are_reproducible_across_runs() {
    let grid = || {
        SweepGrid::new()
            .contentions(&["csma"])
            .links(&["arq"])
            .nodes(3)
            .snrs_db(&[8.0])
            .packets(30)
            .payload_bits(256)
            .scenarios()
    };
    let a = SweepRunner::new(2).run(&grid()).unwrap();
    let b = SweepRunner::new(2).run(&grid()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn every_policy_reports_cell_metrics_in_range() {
    for policy in ["aloha", "csma", "tdma"] {
        let r = run_one(
            SweepGrid::new()
                .rates(&[PhyRate::Qam16Half])
                .decoders(&["viterbi"])
                .contentions(&[policy])
                .nodes(4)
                .snrs_db(&[10.0])
                .packets(66)
                .payload_bits(600),
        );
        let c = r.cell.as_ref().expect("cell metrics");
        let goodput = c.aggregate_goodput();
        assert!(
            goodput > 0.0 && goodput <= 1.0,
            "{policy}: goodput {goodput}"
        );
        for (what, f) in [
            ("collision", c.collision_fraction()),
            ("idle", c.idle_fraction()),
        ] {
            assert!((0.0..1.0).contains(&f), "{policy}: {what} fraction {f}");
        }
        let jain = c.jain_index();
        assert!(jain > 0.0 && jain <= 1.0, "{policy}: Jain index {jain}");
        assert!(c.attempts() > 0, "{policy}: a saturated cell must transmit");
    }
}
