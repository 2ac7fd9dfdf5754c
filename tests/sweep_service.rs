//! Acceptance contracts of the sweep service: the memoized result store
//! serves repeated grid points without simulating a packet, warm results
//! are bit-identical to cold ones across any thread count and any
//! cold/warm split (via the JSON-lines disk store), and the
//! confidence-driven stopping rule is a pure function of the seed
//! schedule — same decisions for any worker count, same bits as a
//! fixed-budget run truncated at the stopping point.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use wilis::channel::SnrDb;
use wilis::experiment::{fig6, fig7};
use wilis::lis::registry::Registry;
use wilis::phy::PhyRate;
use wilis::scenario::{
    channel_registry, contention_registry, link_registry, Scenario, StoppingRule, SweepGrid,
    SweepRunner,
};
use wilis::service::{ResultStore, ServiceMetrics, SweepService};
use wilis::softphy::DecoderKind;
use wilis::{FaultInjector, PointOutcome, WilisSystem};

/// A per-test temp store path that parallel test threads cannot collide
/// on (process id x test-chosen tag).
fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "wilis_sweep_service_{}_{tag}.jsonl",
        std::process::id()
    ))
}

/// A small Figure-5-shaped grid covering solo and fused execution paths.
fn phy_grid() -> Vec<Scenario> {
    SweepGrid::new()
        .rates(&[PhyRate::Qam16Half, PhyRate::QpskHalf])
        .decoders(&["sova", "bcjr"])
        .snrs_db(&[6.0, 8.0])
        .seeds(&[1, 2])
        .packets(3)
        .payload_bits(600)
        .scenarios()
}

/// A grid that carries link- and cell-dimension metrics, so the disk
/// round trip is exercised on every optional result section.
fn link_cell_grid() -> Vec<Scenario> {
    SweepGrid::new()
        .rates(&[PhyRate::Qam16Half])
        .decoders(&["bcjr"])
        .links(&["none", "arq", "harq-cc"])
        .contentions(&["p2p", "aloha"])
        .nodes(3)
        .snrs_db(&[6.0, 9.0])
        .packets(4)
        .payload_bits(300)
        .scenarios()
}

#[test]
fn overlapping_fig6_fig7_warm_rerun_simulates_nothing() {
    // The tentpole acceptance check: run the fig6 and fig7 drivers
    // against ONE service, then run them again — the second pass must be
    // served entirely from the store, simulating zero packets, and
    // reproduce the first pass exactly.
    let mut service = SweepService::new(SweepRunner::new(2));
    let cfg6 = fig6::Fig6Config {
        snrs: vec![SnrDb::new(6.0), SnrDb::new(7.0)],
        packets_per_snr: 4,
        payload_bits: 400,
        ..fig6::Fig6Config::paper(DecoderKind::Bcjr, 4)
    };
    let cfg7 = fig7::Fig7Config {
        packets: 6,
        payload_bits: 256,
        ..fig7::Fig7Config::paper(6)
    };
    let r6_cold = fig6::run(&mut service, &cfg6);
    let r7_cold = fig7::run_both(&mut service, &cfg7);
    let cold = service.metrics();
    assert_eq!(cold.misses, 4, "2 fig6 SNRs + 2 fig7 decoders");
    assert_eq!(cold.hits, 0);
    assert!(cold.packets_simulated > 0);

    service.reset_metrics();
    let r6_warm = fig6::run(&mut service, &cfg6);
    let r7_warm = fig7::run_both(&mut service, &cfg7);
    let warm = service.metrics();
    assert_eq!(
        warm.packets_simulated, 0,
        "a warm re-run must not simulate a single packet"
    );
    assert_eq!(warm.misses, 0);
    assert_eq!(warm.hits, 4);
    assert_eq!(r6_cold.points, r6_warm.points);
    for (a, b) in r7_cold.iter().zip(&r7_warm) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.mean_rate_mbps.to_bits(), b.mean_rate_mbps.to_bits());
        assert_eq!(a.delivery_rate.to_bits(), b.delivery_rate.to_bits());
    }
}

#[test]
fn disk_store_warm_runs_bit_identical_at_1_2_and_8_threads() {
    // Grid cold once (writing the JSON-lines store), then re-run warm
    // from that file in fresh processes-worth of state: every thread
    // count must reproduce the cold results bit for bit with zero
    // simulation.
    let path = temp_store("warm_threads");
    let _ = std::fs::remove_file(&path);
    let scenarios = link_cell_grid();

    let mut cold = SweepService::with_store(SweepRunner::new(1), ResultStore::at_path(&path));
    let reference = cold.run(&scenarios).unwrap();
    assert_eq!(cold.metrics().misses, scenarios.len() as u64);
    let budget = cold.metrics().packets_simulated;
    drop(cold);

    for threads in [1, 2, 8] {
        let mut warm =
            SweepService::with_store(SweepRunner::new(threads), ResultStore::at_path(&path));
        assert_eq!(
            warm.metrics().store_entries_loaded,
            scenarios.len() as u64,
            "every cold record must load back"
        );
        let got = warm.run(&scenarios).unwrap();
        assert_eq!(
            got, reference,
            "{threads}-thread warm run diverged from the cold run"
        );
        assert_eq!(warm.metrics().packets_simulated, 0);
        assert_eq!(warm.metrics().hits, scenarios.len() as u64);
        assert_eq!(
            warm.metrics().packets_saved,
            budget,
            "a warm run saves every packet the cold run simulated"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mixed_cold_warm_split_matches_all_cold_run() {
    // Seed the store with only half the grid; a full-grid run then mixes
    // cache hits with fresh simulation and must still equal the all-cold
    // reference for every thread count.
    let scenarios = phy_grid();
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    for threads in [1, 2, 8] {
        let path = temp_store(&format!("split_t{threads}"));
        let _ = std::fs::remove_file(&path);
        let half = scenarios.len() / 2;
        let mut seeder =
            SweepService::with_store(SweepRunner::new(threads), ResultStore::at_path(&path));
        seeder.run(&scenarios[..half]).unwrap();
        drop(seeder);

        let mut mixed =
            SweepService::with_store(SweepRunner::new(threads), ResultStore::at_path(&path));
        let got = mixed.run(&scenarios).unwrap();
        assert_eq!(
            got, reference,
            "{threads}-thread cold/warm split diverged from all-cold"
        );
        assert_eq!(mixed.metrics().hits, half as u64);
        assert_eq!(mixed.metrics().misses, (scenarios.len() - half) as u64);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn streaming_callback_sees_every_point_once_in_any_split() {
    let scenarios = phy_grid();
    let mut service = SweepService::new(SweepRunner::new(2));
    service.run(&scenarios[..4]).unwrap();
    let mut seen = vec![0u32; scenarios.len()];
    let sweep = service
        .run_streaming_supervised(&scenarios, |i, outcome| {
            seen[i] += 1;
            let r = outcome.result().expect("no faults: every point completes");
            assert_eq!(r.scenario, i, "streamed result carries its grid index");
        })
        .unwrap();
    assert!(
        seen.iter().all(|&n| n == 1),
        "per-point callback cardinality"
    );
    assert_eq!(sweep.outcomes.len(), scenarios.len());
}

#[test]
fn duplicate_grid_points_simulate_once() {
    let mut scenarios = phy_grid();
    let dup = scenarios[0].clone();
    scenarios.push(dup);
    let mut service = SweepService::new(SweepRunner::new(2));
    let results = service.run(&scenarios).unwrap();
    assert_eq!(service.metrics().misses, (scenarios.len() - 1) as u64);
    assert_eq!(
        service.metrics().hits,
        1,
        "the duplicate coordinate is a hit"
    );
    let last = results.last().unwrap();
    assert_eq!(last.bit_errors, results[0].bit_errors);
    assert_eq!(last.hint_bins, results[0].hint_bins);
    assert_eq!(
        last.scenario,
        scenarios.len() - 1,
        "index rewritten per slot"
    );
}

#[test]
fn stopped_and_fixed_budget_results_never_alias_in_the_store() {
    // The stopping rule is part of the cache key: a confidence-stopped
    // record must not be served for a fixed-budget request or vice versa.
    let sc = &phy_grid()[0];
    let mut service = SweepService::new(SweepRunner::new(1));
    service.run(std::slice::from_ref(sc)).unwrap();
    service.set_stopping(Some(StoppingRule::ber(1e-3).with_chunk(1)));
    service.run(std::slice::from_ref(sc)).unwrap();
    assert_eq!(
        service.metrics().misses,
        2,
        "same coordinate under a different stopping rule is a different record"
    );
    assert_eq!(service.metrics().hits, 0);
}

// ---- stopping-rule properties --------------------------------------------

#[test]
fn chunked_stopping_equals_fixed_budget_truncated_at_the_stopping_point() {
    // The estimator property behind the determinism claim: a stopped run
    // IS the fixed-budget run truncated at the first closed chunk
    // boundary — same packets, same bits, same errors, same hint bins.
    let grid = SweepGrid::new()
        .rates(&[PhyRate::Qam16Half, PhyRate::QpskHalf])
        .decoders(&["bcjr"])
        .snrs_db(&[5.5, 8.0])
        .packets(24)
        .payload_bits(400)
        .scenarios();
    let rule = StoppingRule::ber(2e-3).with_chunk(4);
    let stopping_runner = SweepRunner::new(1).with_stopping(Some(rule));
    let mut saw_early_stop = false;
    for sc in &grid {
        let stopped = &stopping_runner.run(std::slice::from_ref(sc)).unwrap()[0];
        assert!(
            stopped.packets <= u64::from(sc.packets),
            "cap: {}",
            sc.label()
        );
        saw_early_stop |= stopped.packets < u64::from(sc.packets);
        let mut truncated = sc.clone();
        truncated.packets = stopped.packets as u32;
        let fixed = &SweepRunner::new(1)
            .run(std::slice::from_ref(&truncated))
            .unwrap()[0];
        assert_eq!(stopped.packets, fixed.packets, "{}", sc.label());
        assert_eq!(stopped.bits, fixed.bits, "{}", sc.label());
        assert_eq!(stopped.bit_errors, fixed.bit_errors, "{}", sc.label());
        assert_eq!(stopped.packet_errors, fixed.packet_errors, "{}", sc.label());
        assert_eq!(stopped.hint_bins, fixed.hint_bins, "{}", sc.label());
        assert_eq!(
            stopped.predicted_pber_sum.to_bits(),
            fixed.predicted_pber_sum.to_bits(),
            "{}",
            sc.label()
        );
    }
    assert!(
        saw_early_stop,
        "the grid must contain at least one point where the interval closes early"
    );
}

#[test]
fn stopping_decisions_identical_for_any_thread_count() {
    // The chunk schedule is a pure function of the seed schedule, so the
    // per-point stopping decision — and therefore every downstream bit —
    // cannot depend on the worker count, including on the fused path
    // (three decoders share one channel realization below).
    let scenarios = SweepGrid::new()
        .rates(&[PhyRate::Qam16Half])
        .decoders(&["viterbi", "sova", "bcjr"])
        .links(&["none", "arq"])
        .snrs_db(&[5.5, 8.0])
        .packets(16)
        .payload_bits(400)
        .scenarios();
    let rule = StoppingRule::ber(2e-3).with_chunk(4);
    let reference = SweepRunner::new(1)
        .with_stopping(Some(rule))
        .run(&scenarios)
        .unwrap();
    assert!(
        reference.iter().any(|r| r.packets < 16),
        "the rule must actually stop something for this to test anything"
    );
    for threads in [2, 8] {
        let got = SweepRunner::new(threads)
            .with_stopping(Some(rule))
            .run(&scenarios)
            .unwrap();
        assert_eq!(
            got, reference,
            "{threads}-thread confidence-stopped sweep diverged"
        );
    }
}

#[test]
fn fused_groups_stop_each_member_exactly_like_solo_execution() {
    // Members of a fused shared-channel group freeze their own tallies at
    // their own boundaries; a clean decoder stopping early must not
    // change a noisy sibling's bits, and every member must match its
    // standalone run.
    let scenarios = SweepGrid::new()
        .rates(&[PhyRate::Qam16Half])
        .decoders(&["viterbi", "sova", "bcjr"])
        .snrs_db(&[6.5])
        .packets(12)
        .payload_bits(300)
        .scenarios();
    let rule = StoppingRule::ber(5e-3).with_chunk(2);
    let fused = SweepRunner::new(2)
        .with_stopping(Some(rule))
        .run(&scenarios)
        .unwrap();
    let solo_runner = SweepRunner::new(1).with_stopping(Some(rule));
    for (sc, f) in scenarios.iter().zip(&fused) {
        let solo = &solo_runner.run(std::slice::from_ref(sc)).unwrap()[0];
        assert_eq!(solo.packets, f.packets, "{}", sc.label());
        assert_eq!(solo.bit_errors, f.bit_errors, "{}", sc.label());
        assert_eq!(solo.hint_bins, f.hint_bins, "{}", sc.label());
        assert_eq!(
            solo.predicted_pber_sum.to_bits(),
            f.predicted_pber_sum.to_bits(),
            "{}",
            sc.label()
        );
    }
}

#[test]
fn packet_cap_honored_where_the_interval_never_closes() {
    // Deep in the waterfall with an absurdly tight target the interval
    // cannot close; the point must spend exactly its configured budget.
    let scenarios = SweepGrid::new()
        .rates(&[PhyRate::Qam16Half])
        .decoders(&["bcjr"])
        .snrs_db(&[4.0])
        .packets(6)
        .payload_bits(400)
        .scenarios();
    for rule in [
        StoppingRule::ber(1e-9).with_chunk(1),
        StoppingRule::per(1e-9).with_chunk(2),
    ] {
        let r = &SweepRunner::new(1)
            .with_stopping(Some(rule))
            .run(&scenarios)
            .unwrap()[0];
        assert_eq!(r.packets, 6, "hard cap must bound the spend");
        let uncapped = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        assert_eq!(r.bit_errors, uncapped.bit_errors, "cap run == plain run");
    }
}

// ---- fault injection & crash-safe recovery -------------------------------

#[test]
fn injected_worker_panic_quarantines_one_point_at_any_thread_count() {
    // A scheduled panic at one grid point must quarantine exactly that
    // point — every other coordinate completes with its reference bits,
    // the store holds every survivor, and the whole SupervisedSweep
    // (outcomes + report) is identical at 1, 2, and 8 workers. Note the
    // targeted occurrence index addresses the service's deduplicated
    // rep grid (StoreKey order), not the submission order.
    let scenarios = phy_grid();
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    let inj = FaultInjector::from_spec("targeted:worker_panic=5").unwrap();
    let mut baseline = None;
    for threads in [1, 2, 8] {
        let mut service = SweepService::new(SweepRunner::new(threads));
        service.set_faults(Some(inj.clone()));
        let sweep = service.run_supervised(&scenarios).unwrap();
        assert_eq!(sweep.outcomes.len(), scenarios.len());
        assert_eq!(sweep.report.quarantined.len(), 1, "{threads} threads");
        assert_eq!(sweep.report.injected_panics, 1, "{threads} threads");
        assert!(
            sweep.report.quarantined[0]
                .message
                .contains("injected worker panic"),
            "{:?}",
            sweep.report
        );
        assert_eq!(
            sweep.completed().count(),
            scenarios.len() - 1,
            "every non-quarantined point must deliver a result"
        );
        for (i, r) in sweep.completed() {
            assert_eq!(
                r, &reference[i],
                "survivor {i} diverged at {threads} threads"
            );
        }
        assert_eq!(
            service.store().len(),
            scenarios.len() - 1,
            "only survivors are memoized"
        );
        match &baseline {
            None => baseline = Some(sweep),
            Some(b) => assert_eq!(&sweep, b, "{threads}-thread faulted sweep diverged"),
        }
    }
}

#[test]
fn legacy_service_api_reports_a_quarantine_as_an_error() {
    let scenarios = phy_grid();
    let mut service = SweepService::new(SweepRunner::new(2));
    service.set_faults(Some(
        FaultInjector::from_spec("targeted:worker_panic=3").unwrap(),
    ));
    let err = service.run(&scenarios).unwrap_err();
    assert!(
        format!("{err}").contains("quarantined"),
        "legacy run must surface the quarantine: {err}"
    );
}

#[test]
fn torn_final_line_loses_one_record_and_repairs_on_the_next_append() {
    // Simulate a crash mid-append by truncating the file inside its last
    // line: recovery loads every healthy record, counts the torn one as
    // skipped, and the next append must not merge with the torn tail.
    let path = temp_store("torn_tail");
    let _ = std::fs::remove_file(&path);
    let scenarios = &phy_grid()[..3];

    let mut cold = SweepService::with_store(SweepRunner::new(1), ResultStore::at_path(&path));
    cold.run(scenarios).unwrap();
    drop(cold);

    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 3);
    let keep = text.len() - text.lines().last().unwrap().len() / 2;
    std::fs::write(&path, &text.as_bytes()[..keep]).unwrap();

    let recovered = ResultStore::at_path(&path);
    assert!(recovered.tail_torn(), "a truncated tail must be detected");
    assert_eq!(
        recovered.counters().loaded,
        2,
        "healthy records survive the tear"
    );
    assert_eq!(
        recovered.counters().skipped,
        1,
        "the torn record is skipped, not fatal"
    );

    // Re-running the grid re-simulates only the lost point; its append
    // must first terminate the torn half-line.
    let mut repaired = SweepService::with_store(SweepRunner::new(1), recovered);
    let reference = SweepRunner::new(1).run(scenarios).unwrap();
    let got = repaired.run(scenarios).unwrap();
    assert_eq!(got, reference);
    assert_eq!(repaired.metrics().hits, 2);
    assert_eq!(repaired.metrics().misses, 1);
    drop(repaired);

    let reloaded = ResultStore::at_path(&path);
    assert_eq!(
        reloaded.counters().loaded,
        3,
        "the repaired file carries all records"
    );
    assert_eq!(
        reloaded.counters().skipped,
        1,
        "the torn half-line stays inert"
    );
    assert!(!reloaded.tail_torn());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_record_injection_is_counted_and_skipped_at_reload() {
    let path = temp_store("corrupt");
    let _ = std::fs::remove_file(&path);
    let scenarios = &phy_grid()[..4];
    let store = ResultStore::at_path_with(
        &path,
        Some(FaultInjector::from_spec("bernoulli:corrupt_record=1.0").unwrap()),
    );
    let mut service = SweepService::with_store(SweepRunner::new(1), store);
    let sweep = service.run_supervised(scenarios).unwrap();
    assert_eq!(sweep.completed().count(), scenarios.len());
    assert_eq!(
        sweep.report.corrupt_records,
        scenarios.len() as u64,
        "every append was mangled: {:?}",
        sweep.report
    );
    drop(service);

    let reloaded = ResultStore::at_path(&path);
    assert_eq!(
        reloaded.counters().loaded,
        0,
        "mangled records must not parse"
    );
    assert_eq!(reloaded.counters().skipped, scenarios.len() as u64);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_write_injection_leaves_only_skippable_half_lines() {
    let path = temp_store("torn_all");
    let _ = std::fs::remove_file(&path);
    let scenarios = &phy_grid()[..4];
    let store = ResultStore::at_path_with(
        &path,
        Some(FaultInjector::from_spec("bernoulli:torn_write=1.0").unwrap()),
    );
    let mut service = SweepService::with_store(SweepRunner::new(1), store);
    let sweep = service.run_supervised(scenarios).unwrap();
    assert_eq!(sweep.report.torn_writes, scenarios.len() as u64);
    assert!(service.store().tail_torn());
    drop(service);

    let reloaded = ResultStore::at_path(&path);
    assert_eq!(reloaded.counters().loaded, 0, "half-lines must not parse");
    assert_eq!(reloaded.counters().skipped, scenarios.len() as u64);
    assert!(reloaded.tail_torn(), "the last half-line has no newline");
    let _ = std::fs::remove_file(&path);
}

/// A version-1 store record, as the previous record writer produced it
/// for [`v1_point`] (with a hand-made four-bin result). It carries no
/// result epochs, so it must never be served.
const V1_RECORD: &str = r#"{"key":{"channel":"awgn","channel_params":{},"contention":"p2p","contention_params":{},"decoder":"viterbi","link":"none","link_params":{},"nodes":1,"packets":1,"payload_bits":64,"rate":2,"record_stats":false,"seed":5,"snr_bits":4621256167635550208,"stopping":null},"result":{"bit_errors":0,"bits":64,"cell":null,"hint_bins":[{"bits":64,"errors":0},{"bits":0,"errors":0},{"bits":0,"errors":0},{"bits":0,"errors":0}],"label":"QPSK 1/2 viterbi awgn @9.00dB seed5","link":null,"packet_errors":0,"packet_stats":[],"packets":1,"predicted_pber_sum":0},"v":1}"#;

/// The grid point [`V1_RECORD`] names.
fn v1_point() -> Scenario {
    SweepGrid::new()
        .rates(&[PhyRate::QpskHalf])
        .decoders(&["viterbi"])
        .snrs_db(&[9.0])
        .seeds(&[5])
        .packets(1)
        .payload_bits(64)
        .scenarios()
        .remove(0)
}

#[test]
fn version_1_records_are_stale_not_skipped_and_never_served() {
    let path = temp_store("v1");
    std::fs::write(&path, format!("{V1_RECORD}\n")).unwrap();
    let store = ResultStore::at_path(&path);
    let c = store.counters();
    assert_eq!((c.loaded, c.stale, c.skipped), (0, 1, 0));
    assert!(store.is_empty());

    let mut service = SweepService::with_store(SweepRunner::new(1), store);
    let got = service.run(&[v1_point()]).unwrap();
    assert_eq!(got, SweepRunner::new(1).run(&[v1_point()]).unwrap());
    let m = service.metrics();
    assert_eq!((m.hits, m.misses, m.store_stale), (0, 1, 1));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mixed_v1_current_and_corrupt_lines_count_one_each() {
    let path = temp_store("mixed");
    let _ = std::fs::remove_file(&path);
    let mut seeder = SweepService::with_store(SweepRunner::new(1), ResultStore::at_path(&path));
    let cold = seeder.run(&[v1_point()]).unwrap();
    drop(seeder);
    let current = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, format!("{V1_RECORD}\n{current}{{not json\n")).unwrap();

    let c = ResultStore::at_path(&path).counters();
    assert_eq!((c.loaded, c.stale, c.skipped), (1, 1, 1));
    let mut service = SweepService::with_store(SweepRunner::new(1), ResultStore::at_path(&path));
    assert_eq!(service.run(&[v1_point()]).unwrap(), cold);
    assert_eq!(service.metrics().hits, 1, "the current record is served");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_lines_outlive_reloads_and_appends_and_are_never_served() {
    let path = temp_store("stale_kept");
    let _ = std::fs::remove_file(&path);
    let cold = SweepRunner::new(1).run(&[v1_point()]).unwrap();
    let mut seeder = SweepService::with_store(SweepRunner::new(1), ResultStore::at_path(&path));
    seeder.run(&[v1_point()]).unwrap();
    drop(seeder);
    // The current record under epoch 0 of every layer, which no engine
    // was ever built under, after the version-1 record of the same point.
    let current = std::fs::read_to_string(&path).unwrap();
    let open = current.find("\"epochs\":{").unwrap();
    let close = open + current[open..].find('}').unwrap();
    let stale = format!(
        "{}\"epochs\":{{\"channel\":0,\"phy\":0,\"fec\":0,\"mac\":0,\"engine\":0{}",
        &current[..open],
        &current[close..]
    );
    let kept = format!("{V1_RECORD}\n{stale}");
    std::fs::write(&path, &kept).unwrap();

    let mut other = v1_point();
    other.seed += 1;
    let runs = [vec![v1_point()], vec![v1_point(), other]];
    for (loaded, points) in runs.iter().enumerate() {
        let store = ResultStore::at_path(&path);
        let c = store.counters();
        assert_eq!((c.loaded, c.stale, c.skipped), (loaded as u64, 2, 0));
        let mut service = SweepService::with_store(SweepRunner::new(1), store);
        assert_eq!(service.run(points).unwrap()[0], cold[0]);
        // The first run misses the stale point; the second hits the
        // record the first appended and misses only the new point.
        assert_eq!(service.metrics().misses, 1, "run {loaded}");
        drop(service);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&kept), "run {loaded} kept the stale lines");
    }
    let c = ResultStore::at_path(&path).counters();
    assert_eq!((c.loaded, c.stale, c.skipped), (2, 2, 0));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_truncation_of_a_record_is_skipped_never_fatal() {
    let path = temp_store("prefixes");
    let _ = std::fs::remove_file(&path);
    let grid = link_cell_grid();
    let point = grid
        .iter()
        .find(|s| s.link == "arq" && s.contention == "aloha");
    let mut seeder = SweepService::with_store(SweepRunner::new(1), ResultStore::at_path(&path));
    seeder.run(std::slice::from_ref(point.unwrap())).unwrap();
    drop(seeder);
    let record = std::fs::read_to_string(&path).unwrap();
    let record = record.trim_end();
    let prefixes: Vec<&str> = (1..record.len())
        .filter(|&n| record.is_char_boundary(n))
        .map(|n| &record[..n])
        .collect();
    std::fs::write(&path, prefixes.join("\n") + "\n").unwrap();
    let c = ResultStore::at_path(&path).counters();
    assert_eq!(
        (c.loaded, c.stale, c.skipped),
        (0, 0, prefixes.len() as u64)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn transient_write_faults_retry_and_the_file_stays_complete() {
    // `targeted:store_write=0` fails the FIRST attempt of every append;
    // the bounded retry policy must absorb it without losing a record.
    let path = temp_store("write_retry");
    let _ = std::fs::remove_file(&path);
    let scenarios = &phy_grid()[..4];
    let store = ResultStore::at_path_with(
        &path,
        Some(FaultInjector::from_spec("targeted:store_write=0").unwrap()),
    );
    let mut service = SweepService::with_store(SweepRunner::new(1), store);
    let sweep = service.run_supervised(scenarios).unwrap();
    assert_eq!(sweep.report.store_write_faults, scenarios.len() as u64);
    assert_eq!(sweep.report.store_retries, scenarios.len() as u64);
    assert_eq!(sweep.report.store_io_errors, 0);
    drop(service);
    assert_eq!(
        ResultStore::at_path(&path).counters().loaded,
        scenarios.len() as u64
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exhausted_write_retries_degrade_to_counted_io_errors() {
    // All three attempts of every append fail: the run must still return
    // correct results — persistence degrades, computation does not.
    let path = temp_store("write_exhaust");
    let _ = std::fs::remove_file(&path);
    let scenarios = &phy_grid()[..4];
    let store = ResultStore::at_path_with(
        &path,
        Some(FaultInjector::from_spec("targeted:store_write=0+1+2").unwrap()),
    );
    let mut service = SweepService::with_store(SweepRunner::new(1), store);
    let sweep = service.run_supervised(scenarios).unwrap();
    assert_eq!(sweep.report.store_io_errors, scenarios.len() as u64);
    let reference = SweepRunner::new(1).run(scenarios).unwrap();
    for (i, r) in sweep.completed() {
        assert_eq!(r, &reference[i], "results survive a dead store");
    }
    drop(service);
    assert_eq!(
        ResultStore::at_path(&path).counters().loaded,
        0,
        "nothing ever reached the disk"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn transient_and_exhausted_read_faults_at_load() {
    let path = temp_store("read_retry");
    let _ = std::fs::remove_file(&path);
    let scenarios = &phy_grid()[..3];
    let mut seeder = SweepService::with_store(SweepRunner::new(1), ResultStore::at_path(&path));
    seeder.run(scenarios).unwrap();
    drop(seeder);

    // One transient fault: the retry recovers every record.
    let transient = ResultStore::at_path_with(
        &path,
        Some(FaultInjector::from_spec("targeted:store_read=0").unwrap()),
    );
    assert_eq!(transient.counters().loaded, scenarios.len() as u64);
    assert_eq!(transient.counters().read_faults, 1);
    assert_eq!(transient.counters().retries, 1);
    assert_eq!(transient.io_errors(), 0);

    // Exhausted retries: the store starts empty and counts the IO error
    // instead of failing construction.
    let dead = ResultStore::at_path_with(
        &path,
        Some(FaultInjector::from_spec("targeted:store_read=0+1+2").unwrap()),
    );
    assert_eq!(dead.counters().loaded, 0);
    assert_eq!(dead.io_errors(), 1);
    assert_eq!(dead.counters().read_faults, 3);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn metrics_summary_carries_the_store_health_counters() {
    let path = temp_store("summary");
    let _ = std::fs::remove_file(&path);
    let scenarios = &phy_grid()[..2];
    let store = ResultStore::at_path_with(
        &path,
        Some(FaultInjector::from_spec("targeted:store_write=0").unwrap()),
    );
    let mut service = SweepService::with_store(SweepRunner::new(1), store);
    service.run_supervised(scenarios).unwrap();
    let metrics = service.metrics();
    assert_eq!(metrics.store_retries, service.store().counters().retries);
    assert_eq!(
        metrics.store_write_faults,
        service.store().counters().write_faults
    );
    // Every store field of the metrics is the store's own counter, after
    // the run and after a reset alike.
    let store_fields = |m: ServiceMetrics| {
        [
            m.store_entries_loaded,
            m.store_lines_skipped,
            m.store_stale,
            m.store_io_errors,
            m.store_retries,
            m.store_write_faults,
            m.store_read_faults,
            m.store_torn_writes,
            m.store_corrupt_records,
        ]
    };
    let c = service.store().counters();
    let counters = [
        c.loaded,
        c.skipped,
        c.stale,
        c.io_errors,
        c.retries,
        c.write_faults,
        c.read_faults,
        c.torn_writes,
        c.corrupt_records,
    ];
    service.reset_metrics();
    assert_eq!(
        (store_fields(metrics), store_fields(service.metrics())),
        (counters, counters)
    );
    let summary = metrics.summary();
    assert!(summary.contains("store:"), "{summary}");
    assert!(summary.contains("retries"), "{summary}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn disabled_injector_leaves_the_service_bit_identical() {
    // Strict generalization at the service layer: a wired-but-disabled
    // injector must not perturb a single bit or count a single event.
    let scenarios = phy_grid();
    let mut plain = SweepService::new(SweepRunner::new(2));
    let reference = plain.run(&scenarios).unwrap();

    let mut wired = SweepService::new(SweepRunner::new(2));
    wired.set_faults(Some(FaultInjector::disabled()));
    let sweep = wired.run_supervised(&scenarios).unwrap();
    assert!(sweep.report.is_clean(), "{:?}", sweep.report);
    let results: Vec<_> = sweep
        .outcomes
        .iter()
        .map(|o| o.result().expect("no faults, no failures").clone())
        .collect();
    assert_eq!(results, reference);
}

#[test]
fn streaming_supervised_delivers_every_outcome_once() {
    let scenarios = phy_grid();
    let mut service = SweepService::new(SweepRunner::new(2));
    service.set_faults(Some(
        FaultInjector::from_spec("targeted:worker_panic=2").unwrap(),
    ));
    let mut seen = vec![0u32; scenarios.len()];
    let mut failed = 0u32;
    let sweep = service
        .run_streaming_supervised(&scenarios, |i, outcome| {
            seen[i] += 1;
            if let PointOutcome::Failed { .. } = outcome {
                failed += 1;
            }
        })
        .unwrap();
    assert!(seen.iter().all(|&n| n == 1), "cardinality: {seen:?}");
    assert_eq!(failed, 1);
    assert_eq!(sweep.report.quarantined.len(), 1);
}

#[test]
fn runner_callback_runs_on_the_calling_thread() {
    // The callback captures an `Rc`, so it is not `Send`: the runner must
    // call it on this thread, once per grid point, at any worker count.
    let scenarios = phy_grid();
    let caller = std::thread::current().id();
    for threads in [1, 4] {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        SweepService::new(SweepRunner::new(threads))
            .run_streaming_supervised(&scenarios, move |i, _| {
                assert_eq!(std::thread::current().id(), caller);
                sink.borrow_mut().push(i);
            })
            .unwrap();
        let mut seen = seen.take();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..scenarios.len()).collect::<Vec<_>>(),
            "{threads} threads"
        );
    }
}

#[test]
fn failed_run_keeps_the_points_completed_before_the_error() {
    // One worker, two points with distinct seeds: two jobs, run in order
    // (a full block of packets each, so the two streams do not pack into
    // one job). The environment factory is called for the compile step,
    // job 0 and job 1; the third call has no decoders, so job 1 fails.
    let scenarios = SweepGrid::new()
        .seeds(&[1, 2])
        .packets(8)
        .payload_bits(200)
        .scenarios();
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let runner = SweepRunner::new(1).with_env(move || {
        let mut system = WilisSystem::new();
        if counter.fetch_add(1, Ordering::SeqCst) == 2 {
            *system.decoders_mut() = Registry::new("decoder");
        }
        (
            system,
            channel_registry(),
            link_registry(),
            contention_registry(),
        )
    });
    let mut service = SweepService::new(runner);
    let err = service.run(&scenarios).unwrap_err();
    assert!(err.to_string().contains("bcjr"), "{err}");
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    assert_eq!(service.store().len(), 1);
    assert!(service
        .store()
        .get(&service.key_for(&scenarios[0]))
        .is_some());
}

#[test]
fn wilson_half_width_sanity() {
    // Open interval at zero trials; tightens monotonically with trials;
    // widens with error count at fixed n.
    assert!(StoppingRule::wilson_half_width(0, 0, 1.96).is_infinite());
    let mut prev = f64::INFINITY;
    for n in [10u64, 100, 1_000, 10_000] {
        let hw = StoppingRule::wilson_half_width(n / 10, n, 1.96);
        assert!(hw < prev, "half-width must shrink with trials");
        prev = hw;
    }
    assert!(
        StoppingRule::wilson_half_width(50, 100, 1.96)
            > StoppingRule::wilson_half_width(1, 100, 1.96)
    );
}
