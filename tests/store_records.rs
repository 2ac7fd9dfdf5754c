//! Pinned store records: the exact bytes the JSON-lines result store
//! writes for four representative records, and the results it reads
//! back from them.
//!
//! The in-crate round-trip test proves the reader inverts the writer; it
//! cannot catch a writer and a reader that drift together. These lines
//! were written by the store and committed, so any change to the record
//! encoding, to a key's field order on disk, to the label rule or to the
//! simulated result bits fails here first:
//!
//! * a hard-decoder point (one non-empty hint bin, label omitted);
//! * a SOVA point with many non-empty hint bins;
//! * a HARQ-link CSMA-cell point (link and cell metrics);
//! * a record whose result label differs from its key's.
//!
//! The service group-commits: a finished job's records go out in one
//! write. The rest of the file pins what that must not change: a torn
//! write costs at most its own records, and injected damage hits the
//! same records at any thread count.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use wilis::phy::PhyRate;
use wilis::scenario::{Scenario, ScenarioResult, SweepGrid, SweepRunner};
use wilis::service::{ResultStore, StoreKey, SweepService};
use wilis::FaultInjector;

/// A per-test store path that parallel test threads cannot collide on.
fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "wilis_store_records_{}_{tag}.jsonl",
        std::process::id()
    ))
}

/// The single point of `grid`.
fn only(grid: SweepGrid) -> Scenario {
    let mut points = grid.scenarios();
    assert_eq!(points.len(), 1, "a one-point grid");
    points.remove(0)
}

fn hard_point() -> Scenario {
    only(
        SweepGrid::new()
            .rates(&[PhyRate::BpskHalf])
            .decoders(&["viterbi"])
            .snrs_db(&[20.0])
            .seeds(&[11])
            .packets(1)
            .payload_bits(64),
    )
}

fn sova_point() -> Scenario {
    only(
        SweepGrid::new()
            .rates(&[PhyRate::Qam16Half])
            .decoders(&["sova"])
            .snrs_db(&[7.0])
            .seeds(&[3])
            .packets(4)
            .payload_bits(300),
    )
}

fn harq_cell_point() -> Scenario {
    only(
        SweepGrid::new()
            .rates(&[PhyRate::Qam16Half])
            .decoders(&["bcjr"])
            .links(&["harq-cc"])
            .contentions(&["csma"])
            .nodes(3)
            .snrs_db(&[9.0])
            .seeds(&[5])
            .packets(4)
            .payload_bits(300),
    )
}

/// The key of `sc` as a plain service stores it, and its result with the
/// neutral submission index the store writes.
fn record(sc: &Scenario) -> (StoreKey, ScenarioResult) {
    let mut result = SweepRunner::new(1)
        .run(std::slice::from_ref(sc))
        .unwrap()
        .remove(0);
    result.scenario = 0;
    (StoreKey::new(sc, false, None), result)
}

/// A hard-decoder record whose result carries a label of its own, as a
/// record written under an older label rule would.
fn relabeled_record() -> (StoreKey, ScenarioResult) {
    let mut sc = hard_point();
    sc.seed = 12;
    let (key, mut result) = record(&sc);
    result.label = "resumed \"grid\" point".to_string();
    (key, result)
}

const HARD_LINE: &str = concat!(
    r#"{"v":2,"epochs":{"channel":2,"phy":1,"fec":1,"mac":1,"engine":1},"#,
    r#""key":{"rate_index":0,"decoder":"viterbi","channel":"awgn","link":"none","#,
    r#""contention":"p2p","nodes":4,"snr_bits":4626322717216342016,"seed":11,"packets":1,"#,
    r#""payload_bits":64},"result":{"packets":1,"packet_errors":0,"bits":64,"bit_errors":0,"#,
    r#""bin_count":64,"hint_bins":[[0,64,0]],"predicted_pber_sum":0}}"#,
);

const SOVA_LINE: &str = concat!(
    r#"{"v":2,"epochs":{"channel":2,"phy":1,"fec":1,"mac":1,"engine":1},"#,
    r#""key":{"rate_index":4,"decoder":"sova","channel":"awgn","link":"none","#,
    r#""contention":"p2p","nodes":4,"snr_bits":4619567317775286272,"seed":3,"packets":4,"#,
    r#""payload_bits":300},"result":{"packets":4,"packet_errors":0,"bits":1200,"#,
    r#""bit_errors":0,"bin_count":64,"hint_bins":[[6,4,0],[16,8,0],[20,12,0],[22,15,0],[24,"#,
    r#"12,0],[26,9,0],[28,42,0],[30,21,0],[32,36,0],[34,59,0],[36,50,0],[38,57,0],[40,45,"#,
    r#"0],[42,64,0],[44,80,0],[46,54,0],[48,63,0],[50,115,0],[52,77,0],[54,42,0],[56,60,0],"#,
    r#"[58,46,0],[60,43,0],[62,38,0],[63,148,0]],"predicted_pber_sum":4568299265489030387}}"#,
);

const HARQ_CELL_LINE: &str = concat!(
    r#"{"v":2,"epochs":{"channel":2,"phy":1,"fec":1,"mac":1,"engine":1},"#,
    r#""key":{"rate_index":4,"decoder":"bcjr","channel":"awgn","link":"harq-cc","#,
    r#""contention":"csma","nodes":3,"snr_bits":4621256167635550208,"seed":5,"packets":4,"#,
    r#""payload_bits":300},"result":{"packets":5,"packet_errors":5,"bits":1500,"#,
    r#""bit_errors":761,"bin_count":64,"hint_bins":[[0,166,82],[2,130,71],[4,101,65],[6,"#,
    r#"224,119],[8,120,47],[10,124,62],[12,84,42],[14,63,31],[16,67,34],[18,80,37],[20,51,"#,
    r#"26],[22,27,18],[24,31,17],[26,29,12],[28,19,5],[30,17,9],[32,38,19],[34,41,24],[36,"#,
    r#"8,3],[38,26,10],[40,20,10],[42,10,5],[44,11,3],[46,4,4],[50,3,2],[54,1,0],[56,1,0],"#,
    r#"[58,1,1],[62,3,3]],"predicted_pber_sum":4604140516672402338,"link":{"packets":5,"#,
    r#""delivered":0,"gave_up":0,"bits_delivered":0,"bits_transmitted":1500,"#,
    r#""bits_retransmitted":600,"under":0,"accurate":0,"over":0,"selected_mbps_sum":0,"#,
    r#""recovered":0,"attempts_hist":[0,0,0,0,0,0,0,0],"effective_rate_sum":0},"#,
    r#""cell":{"nodes":3,"slots":4,"payload_bits":300,"idle_slots":2,"clean_slots":0,"#,
    r#""capture_slots":0,"collision_slots":2,"per_node":[{"attempts":2,"collisions":2,"#,
    r#""delivered":0,"bits_delivered":0,"bits_transmitted":600},{"attempts":2,"#,
    r#""collisions":2,"delivered":0,"bits_delivered":0,"bits_transmitted":600},"#,
    r#"{"attempts":1,"collisions":1,"delivered":0,"bits_delivered":0,"#,
    r#""bits_transmitted":300}]}}}"#,
);

const RELABELED_LINE: &str = concat!(
    r#"{"v":2,"epochs":{"channel":2,"phy":1,"fec":1,"mac":1,"engine":1},"#,
    r#""key":{"rate_index":0,"decoder":"viterbi","channel":"awgn","link":"none","#,
    r#""contention":"p2p","nodes":4,"snr_bits":4626322717216342016,"seed":12,"packets":1,"#,
    r#""payload_bits":64},"result":{"label":"resumed \"grid\" point","packets":1,"#,
    r#""packet_errors":0,"bits":64,"bit_errors":0,"bin_count":64,"hint_bins":[[0,64,0]],"#,
    r#""predicted_pber_sum":0}}"#,
);

/// Each pinned line beside the record it encodes.
fn pinned() -> [(&'static str, StoreKey, ScenarioResult); 4] {
    let [(hk, hr), (sk, sr), (ck, cr)] =
        [hard_point(), sova_point(), harq_cell_point()].map(|sc| record(&sc));
    let (rk, rr) = relabeled_record();
    [
        (HARD_LINE, hk, hr),
        (SOVA_LINE, sk, sr),
        (HARQ_CELL_LINE, ck, cr),
        (RELABELED_LINE, rk, rr),
    ]
}

#[test]
fn the_pinned_records_cover_what_they_claim() {
    let [(_, _, hard), (_, _, sova), (_, _, cell), (_, key, relabeled)] = pinned();
    assert_eq!(hard.hint_bins.iter().filter(|b| b.bits > 0).count(), 1);
    assert!(sova.hint_bins.iter().filter(|b| b.bits > 0).count() >= 8);
    assert!(cell.link.is_some() && cell.cell.is_some());
    assert_ne!(relabeled.label, hard_point().label());
    assert_eq!(key.seed, 12);
}

#[test]
fn the_encoder_writes_each_pinned_line_byte_for_byte() {
    for (n, (line, key, result)) in pinned().into_iter().enumerate() {
        let path = temp_store(&format!("encode{n}"));
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::at_path(&path);
        store.insert(key, result);
        assert_eq!(store.io_errors(), 0);
        drop(store);
        let written = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(written, format!("{line}\n"), "record {n}");
    }
}

#[test]
fn the_loader_reads_each_pinned_line_back_to_an_equal_result() {
    for (n, (line, key, result)) in pinned().into_iter().enumerate() {
        let path = temp_store(&format!("decode{n}"));
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let store = ResultStore::at_path(&path);
        let _ = std::fs::remove_file(&path);
        let c = store.counters();
        assert_eq!((c.loaded, c.stale, c.skipped), (1, 0, 0), "record {n}");
        assert_eq!(store.get(&key), Some(&result), "record {n}");
    }
}

/// `n` one-packet points over seeds `0..n`: they pack into jobs of up to
/// eight, so a service run commits several records per write.
fn one_packet_points(n: u64) -> Vec<Scenario> {
    SweepGrid::new()
        .rates(&[PhyRate::BpskHalf])
        .decoders(&["viterbi"])
        .snrs_db(&[3.0])
        .seeds(&(0..n).collect::<Vec<_>>())
        .packets(1)
        .payload_bits(64)
        .scenarios()
}

fn key(sc: &Scenario) -> StoreKey {
    StoreKey::new(sc, false, None)
}

/// `result` as the store holds it: with a neutral submission index.
fn stored(result: &ScenarioResult) -> ScenarioResult {
    ScenarioResult {
        scenario: 0,
        ..result.clone()
    }
}

#[test]
fn a_torn_job_write_loses_only_its_records_and_the_next_append_repairs_it() {
    let path = temp_store("torn_job");
    let _ = std::fs::remove_file(&path);
    let scenarios = one_packet_points(16);
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();

    // One worker, two jobs of eight: each outcome callback sees the file
    // as the previous job's commit left it.
    let mut service = SweepService::with_store(SweepRunner::new(1), ResultStore::at_path(&path));
    let mut sizes = Vec::new();
    service
        .run_streaming_supervised(&scenarios, |_, _| {
            sizes.push(std::fs::metadata(&path).map_or(0, |m| m.len()));
        })
        .unwrap();
    drop(service);
    sizes.dedup();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(sizes.len(), 2, "one write per job: {sizes:?}");
    let first_write = usize::try_from(sizes[1]).unwrap();
    assert_eq!(text[..first_write].lines().count(), 8);
    assert_eq!(text.lines().count(), 16);

    // A crash midway through the second job's write.
    let cut = (first_write + text.len()) / 2;
    std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
    let recovered = ResultStore::at_path(&path);
    let whole = text[..cut].matches('\n').count() as u64;
    let c = recovered.counters();
    assert!(recovered.tail_torn());
    assert_eq!((c.loaded, c.skipped), (whole, 1));
    assert!((8..16).contains(&whole), "only the torn write lost records");

    let mut repaired = SweepService::with_store(SweepRunner::new(1), recovered);
    assert_eq!(repaired.run(&scenarios).unwrap(), reference);
    assert_eq!(repaired.metrics().misses, 16 - whole);
    drop(repaired);
    let reloaded = ResultStore::at_path(&path);
    let _ = std::fs::remove_file(&path);
    let c = reloaded.counters();
    assert_eq!((c.loaded, c.skipped), (16, 1));
    assert!(!reloaded.tail_torn());
}

#[test]
fn torn_and_corrupt_injections_hit_the_same_records_at_1_2_and_8_threads() {
    let scenarios = one_packet_points(24);
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    let plan = "bernoulli:seed=5,torn_write=0.25,corrupt_record=0.25";
    let mut baseline = None;
    for threads in [1, 2, 8] {
        let path = temp_store(&format!("damage{threads}"));
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::at_path_with(&path, Some(FaultInjector::from_spec(plan).unwrap()));
        let mut service = SweepService::with_store(SweepRunner::new(threads), store);
        let sweep = service.run_supervised(&scenarios).unwrap();
        drop(service);
        let reloaded = ResultStore::at_path(&path);
        let _ = std::fs::remove_file(&path);
        let survivors: Vec<bool> = scenarios
            .iter()
            .map(|sc| reloaded.get(&key(sc)).is_some())
            .collect();
        for (sc, want) in scenarios.iter().zip(&reference) {
            if let Some(got) = reloaded.get(&key(sc)) {
                assert_eq!(got, &stored(want), "{}", sc.label());
            }
        }
        // Every damaged record is one skipped line of its own.
        let c = reloaded.counters();
        assert_eq!(c.loaded + c.skipped, scenarios.len() as u64);
        let damage = (sweep.report.torn_writes, sweep.report.corrupt_records);
        assert!(damage.0 > 0 && damage.1 > 0 && c.loaded > 0, "{damage:?}");
        match &baseline {
            None => baseline = Some((survivors, damage)),
            Some(b) => assert_eq!(&(survivors, damage), b, "{threads} threads"),
        }
    }
}

#[test]
fn a_torn_write_cuts_a_multibyte_record_at_half_its_bytes() {
    // Half a record's bytes can end inside a multi-byte character; the
    // torn write must still happen, byte-exact, and load as one skipped
    // line.
    let path = temp_store("torn_multibyte");
    let _ = std::fs::remove_file(&path);
    let (mut key, result) = relabeled_record();
    key.decoder = "λ".repeat(201);
    let mut whole = ResultStore::at_path(&path);
    whole.insert(key.clone(), result.clone());
    drop(whole);
    let line = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let record = line.trim_end();
    assert!(
        !record.is_char_boundary(record.len() / 2),
        "the cut splits a λ"
    );
    let record = record.as_bytes();

    let mut torn = ResultStore::at_path_with(
        &path,
        Some(FaultInjector::from_spec("bernoulli:torn_write=1.0").unwrap()),
    );
    torn.insert(key, result);
    assert_eq!(torn.counters().torn_writes, 1);
    drop(torn);
    let written = std::fs::read(&path).unwrap();
    let reloaded = ResultStore::at_path(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(written, &record[..record.len() / 2]);
    let c = reloaded.counters();
    assert_eq!((c.loaded, c.skipped), (0, 1));
    assert!(reloaded.tail_torn());
}
