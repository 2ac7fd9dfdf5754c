//! Fault-injection smoke for the supervised runner — the CI-facing half
//! of the robustness contract:
//!
//! * a scheduled worker panic quarantines exactly its grid point, every
//!   survivor is bit-identical to the unfaulted reference, and the whole
//!   [`wilis::SupervisedSweep`] is identical at 1, 2, and 8 workers;
//! * with faults disabled (or no injector wired at all) the supervised
//!   path is bit-identical to the legacy runner — strict generalization;
//! * the legacy `run` API surfaces a quarantine as a typed error, and the
//!   supervised view returns survivors and quarantines as typed outcomes.
//!
//! Runner-level `worker_panic` occurrence indices address the submitted
//! grid directly (index `i` fails scenario `i`), unlike the service
//! layer, which addresses its deduplicated rep grid.

#![forbid(unsafe_code)]

use wilis::phy::PhyRate;
use wilis::scenario::{Scenario, SweepGrid, SweepRunner};
use wilis::{FaultInjector, PointOutcome};

/// A Figure-5-shaped grid mixing solo and fused-capable coordinates.
fn grid() -> Vec<Scenario> {
    SweepGrid::new()
        .rates(&[PhyRate::Qam16Half, PhyRate::QpskHalf])
        .decoders(&["sova", "bcjr"])
        .snrs_db(&[6.0, 8.0])
        .packets(3)
        .payload_bits(400)
        .scenarios()
}

#[test]
fn injected_panics_quarantine_their_points_identically_at_1_2_and_8_threads() {
    let scenarios = grid();
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    let inj = FaultInjector::from_spec("targeted:worker_panic=2+5").unwrap();
    let mut baseline = None;
    for threads in [1, 2, 8] {
        let sweep = SweepRunner::new(threads)
            .with_faults(Some(inj.clone()))
            .run_supervised(&scenarios)
            .unwrap();
        assert_eq!(sweep.outcomes.len(), scenarios.len());
        let failed: Vec<usize> = sweep
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_failed())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failed, vec![2, 5], "{threads} threads");
        for i in &failed {
            match &sweep.outcomes[*i] {
                PointOutcome::Failed { job, message } => {
                    assert_eq!(job, i);
                    assert_eq!(message, &format!("injected worker panic at grid point {i}"));
                }
                PointOutcome::Completed(_) => unreachable!("filtered to failures"),
            }
        }
        assert_eq!(sweep.report.quarantined.len(), 2);
        assert_eq!(sweep.report.injected_panics, 2);
        for (i, r) in sweep.completed() {
            assert_eq!(
                r, &reference[i],
                "survivor {i} diverged at {threads} threads"
            );
        }
        match &baseline {
            None => baseline = Some(sweep),
            Some(b) => assert_eq!(&sweep, b, "{threads}-thread faulted sweep diverged"),
        }
    }
}

#[test]
fn zero_fault_supervised_run_is_bit_identical_to_the_legacy_runner() {
    // Strict generalization: a disabled injector and no injector at all
    // must both reproduce the legacy runner's bits with a clean report.
    let scenarios = grid();
    let reference = SweepRunner::new(2).run(&scenarios).unwrap();
    for faults in [None, Some(FaultInjector::disabled())] {
        let sweep = SweepRunner::new(2)
            .with_faults(faults)
            .run_supervised(&scenarios)
            .unwrap();
        assert!(sweep.report.is_clean(), "{:?}", sweep.report);
        let results: Vec<_> = sweep
            .outcomes
            .iter()
            .map(|o| o.result().expect("no faults, no failures").clone())
            .collect();
        assert_eq!(results, reference);
    }
    // The legacy entry points run over the supervised core; a disabled
    // injector must be invisible there too.
    let legacy = SweepRunner::new(2)
        .with_faults(Some(FaultInjector::disabled()))
        .run(&scenarios)
        .unwrap();
    assert_eq!(legacy, reference);
}

#[test]
fn legacy_api_surfaces_the_lowest_quarantined_index_as_an_error() {
    let scenarios = grid();
    let runner = SweepRunner::new(2).with_faults(Some(
        FaultInjector::from_spec("targeted:worker_panic=3+6").unwrap(),
    ));
    let err = runner.run(&scenarios).unwrap_err();
    let text = format!("{err}");
    assert!(
        text.contains("grid point 3 was quarantined"),
        "lowest index wins: {text}"
    );
    assert!(text.contains("injected worker panic"), "{text}");

    // The supervised view returns every survivor as Completed and each
    // quarantined point as Failed.
    let (mut completed, mut failed) = (Vec::new(), Vec::new());
    let sweep = runner.run_supervised(&scenarios).unwrap();
    for (i, outcome) in sweep.outcomes.iter().enumerate() {
        match outcome {
            PointOutcome::Completed(_) => completed.push(i),
            PointOutcome::Failed { .. } => failed.push(i),
        }
    }
    assert_eq!(
        failed,
        vec![3, 6],
        "the quarantined points come back as Failed"
    );
    assert_eq!(
        completed,
        (0..scenarios.len())
            .filter(|i| ![3, 6].contains(i))
            .collect::<Vec<_>>(),
        "every survivor comes back as Completed"
    );
}

#[test]
fn forced_solo_quarantine_spares_fused_siblings() {
    // Three decoders share one channel coordinate and normally fuse into
    // one job; scheduling a panic on the middle member must force it
    // solo so its quarantine cannot take the siblings down — and the
    // siblings' bits must still equal the fully fused reference.
    let scenarios = SweepGrid::new()
        .rates(&[PhyRate::Qam16Half])
        .decoders(&["viterbi", "sova", "bcjr"])
        .snrs_db(&[6.5])
        .packets(4)
        .payload_bits(300)
        .scenarios();
    assert_eq!(scenarios.len(), 3);
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    let sweep = SweepRunner::new(2)
        .with_faults(Some(
            FaultInjector::from_spec("targeted:worker_panic=1").unwrap(),
        ))
        .run_supervised(&scenarios)
        .unwrap();
    assert!(sweep.outcomes[1].is_failed(), "the scheduled member fails");
    for i in [0, 2] {
        assert_eq!(
            sweep.outcomes[i].result().expect("siblings must survive"),
            &reference[i],
            "fused sibling {i} diverged"
        );
    }
    assert_eq!(sweep.report.quarantined.len(), 1);
    assert_eq!(sweep.report.injected_panics, 1);
}

#[test]
fn bernoulli_panic_plan_is_deterministic_across_thread_counts() {
    // A seeded random plan (not a targeted list) must still quarantine
    // the same set at any worker count: the decision is a pure function
    // of (fault seed, site, grid index).
    let scenarios = grid();
    let inj = FaultInjector::from_spec("bernoulli:seed=11,worker_panic=0.4").unwrap();
    let reference = SweepRunner::new(1)
        .with_faults(Some(inj.clone()))
        .run_supervised(&scenarios)
        .unwrap();
    let quarantined = reference.report.quarantined.len();
    assert!(
        quarantined > 0 && quarantined < scenarios.len(),
        "p=0.4 over {} points should fail some and spare some, got {quarantined}",
        scenarios.len()
    );
    for threads in [2, 8] {
        let got = SweepRunner::new(threads)
            .with_faults(Some(inj.clone()))
            .run_supervised(&scenarios)
            .unwrap();
        assert_eq!(got, reference, "{threads}-thread Bernoulli plan diverged");
    }
}
