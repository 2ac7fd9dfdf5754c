//! The three benchmark workloads: the grids they submit, the store they
//! resume from, and one timed repetition of a workload's sweep.
//!
//! Every input is generated from the benchmark seed; the engine only ever
//! sees the resulting scenario list. Shapes follow measurements on a
//! 2-vCPU host: many light points rather than few heavy ones, because jobs
//! are dealt round-robin and statically, so a handful of heavy points
//! leaves one worker idle while the other finishes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use wilis::fxp::rng::mix_seed;
use wilis::phy::PhyRate;
use wilis::scenario::{Scenario, ScenarioResult, SweepGrid, SweepRunner};
use wilis::service::{ResultStore, ServiceMetrics, StoreKey, SweepService};

use crate::stages::StagePoint;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["awgn_fused", "fading_links", "store_resume"];

/// Payload of the PHY workloads: the paper's Figure 6 packet.
const PACKET_BITS: usize = 1704;

/// `awgn_fused`: per rate, four SNRs two dB apart across its waterfall.
/// Two-dB steps keep the BER ordering check clear of Monte-Carlo noise.
const AWGN_SWEEPS: [(PhyRate, [f64; 4]); 2] = [
    (PhyRate::QpskHalf, [0.0, 2.0, 4.0, 6.0]),
    (PhyRate::Qam16Half, [5.0, 7.0, 9.0, 11.0]),
];
const AWGN_DECODERS: [&str; 3] = ["viterbi", "sova", "bcjr"];
const AWGN_SEEDS: u64 = 6;
/// One full batch of `MAX_BATCH_LANES` blocks per point.
const AWGN_PACKETS: u32 = 8;

/// `fading_links`: the SoftRate/HARQ operating range at QAM-16 1/2.
const FADING_SNRS: [f64; 3] = [12.0, 16.0, 20.0];
const FADING_SEEDS: u64 = 8;
const FADING_PACKETS: u32 = 5;
const CELL_NODES: u32 = 4;

/// `store_resume`: tiny points, so store and per-job costs dominate.
const RESUME_POINTS: u64 = 20_000;
const RESUME_BITS: usize = 64;
const RESUME_SNR_DB: f64 = 20.0;

/// Set-up samples per repetition, unless they exceed the time budget.
const SETUP_SAMPLES: usize = 16;
const SETUP_BUDGET_S: f64 = 0.02;

/// One workload, ready to run repeatedly.
pub struct Workload {
    pub name: &'static str,
    grids: Vec<SweepGrid>,
    /// The on-disk store `store_resume` restores before every repetition.
    store: Option<StoreFixture>,
    /// Where the stage replay times the PHY: the workload's rates, SNRs
    /// and channel.
    pub stages: Vec<StagePoint>,
}

/// A pristine JSONL store holding every other point of the grid, the
/// working copy each repetition loads, and the cold reference results.
struct StoreFixture {
    pristine: PathBuf,
    working: PathBuf,
    cold: Vec<ScenarioResult>,
    stored: usize,
}

impl Drop for StoreFixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.pristine);
        let _ = std::fs::remove_file(&self.working);
    }
}

/// What one repetition measured and returned.
pub struct Rep {
    /// Grid, runner, registries and service ready (store load included).
    pub setup_s: f64,
    /// The `ResultStore::at_path` load alone (0 for in-memory stores).
    pub load_s: f64,
    /// The sweep call.
    pub run_s: f64,
    pub points: usize,
    pub failed: usize,
    pub packets: u64,
    pub digest: u64,
    pub results: Vec<ScenarioResult>,
    pub service: ServiceMetrics,
    pub store_bytes: u64,
    /// Heap high-water mark over set-up and sweep, in MiB.
    pub peak_heap_mb: f64,
}

fn seeds(seed: u64, stream: u64, n: u64) -> Vec<u64> {
    (0..n).map(|i| mix_seed(seed ^ stream, i)).collect()
}

impl Workload {
    /// Builds the named workload from `seed`; `None` for an unknown name.
    /// `store_resume` also computes its cold reference and writes its
    /// pristine store here, outside any timed region.
    pub fn new(name: &str, seed: u64, threads: usize) -> Option<Self> {
        match name {
            "awgn_fused" => Some(Self::awgn_fused(seed)),
            "fading_links" => Some(Self::fading_links(seed)),
            "store_resume" => Some(Self::store_resume(seed, threads)),
            _ => None,
        }
    }

    fn awgn_fused(seed: u64) -> Self {
        let seeds = seeds(seed, 0xA3, AWGN_SEEDS);
        let grids = AWGN_SWEEPS
            .iter()
            .map(|(rate, snrs)| {
                SweepGrid::new()
                    .rates(&[*rate])
                    .decoders(&AWGN_DECODERS)
                    .channels(&["awgn"])
                    .snrs_db(snrs)
                    .seeds(&seeds)
                    .packets(AWGN_PACKETS)
                    .payload_bits(PACKET_BITS)
            })
            .collect();
        let stages = AWGN_SWEEPS
            .iter()
            .flat_map(|(rate, snrs)| {
                snrs.iter().map(|&snr_db| StagePoint {
                    rate: *rate,
                    decoder: "sova",
                    channel: "awgn",
                    snr_db,
                    payload_bits: PACKET_BITS,
                })
            })
            .collect();
        Self {
            name: "awgn_fused",
            grids,
            store: None,
            stages,
        }
    }

    fn fading_links(seed: u64) -> Self {
        let seeds = seeds(seed, 0xFA, FADING_SEEDS);
        let base = || {
            SweepGrid::new()
                .rates(&[PhyRate::Qam16Half])
                .decoders(&["sova"])
                .channels(&["fading"])
                .snrs_db(&FADING_SNRS)
                .seeds(&seeds)
                .packets(FADING_PACKETS)
                .payload_bits(PACKET_BITS)
        };
        let grids = vec![
            base().links(&["softrate"]).link_param("oracle", "true"),
            base().links(&["harq-ir"]),
            base()
                .links(&["harq-ir"])
                .contentions(&["csma"])
                .nodes(CELL_NODES),
        ];
        let stages = FADING_SNRS
            .iter()
            .map(|&snr_db| StagePoint {
                rate: PhyRate::Qam16Half,
                decoder: "sova",
                channel: "fading",
                snr_db,
                payload_bits: PACKET_BITS,
            })
            .collect();
        Self {
            name: "fading_links",
            grids,
            store: None,
            stages,
        }
    }

    fn store_resume(seed: u64, threads: usize) -> Self {
        let grid = SweepGrid::new()
            .rates(&[PhyRate::BpskHalf])
            .decoders(&["viterbi"])
            .channels(&["awgn"])
            .snrs_db(&[RESUME_SNR_DB])
            .seeds(&seeds(seed, 0x5E, RESUME_POINTS))
            .packets(1)
            .payload_bits(RESUME_BITS);
        let store = StoreFixture::new(&grid.scenarios(), seed, threads);
        Self {
            name: "store_resume",
            grids: vec![grid],
            store: Some(store),
            stages: vec![StagePoint {
                rate: PhyRate::BpskHalf,
                decoder: "viterbi",
                channel: "awgn",
                snr_db: RESUME_SNR_DB,
                payload_bits: RESUME_BITS,
            }],
        }
    }

    /// The scenario list one repetition submits.
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.grids.iter().flat_map(SweepGrid::scenarios).collect()
    }

    /// The store records this workload's sweep appends, for the append
    /// replay (empty for the in-memory workloads).
    pub fn appended_records(&self) -> Vec<(StoreKey, ScenarioResult)> {
        let Some(store) = &self.store else {
            return Vec::new();
        };
        self.scenarios()
            .iter()
            .zip(&store.cold)
            .skip(1)
            .step_by(2)
            .map(|(sc, res)| (StoreKey::new(sc, false, None), canonical(res)))
            .collect()
    }

    /// One repetition: set up a service over `make_runner()` (restoring
    /// and loading the store first for `store_resume`), then run the grid
    /// through it once.
    pub fn rep(&self, make_runner: &dyn Fn() -> SweepRunner) -> Rep {
        if let Some(store) = &self.store {
            std::fs::copy(&store.pristine, &store.working).expect("restore the pristine store");
        }
        crate::reset_peak_heap();
        // Set up several times (within a small time budget) and keep the
        // last service: a single microsecond-scale sample is too noisy.
        let (mut setup, mut load) = (Vec::new(), Vec::new());
        let (scenarios, mut service) = loop {
            let t0 = Instant::now();
            let scenarios = self.scenarios();
            let runner = make_runner();
            let (service, load_s) = match &self.store {
                Some(store) => {
                    let t = Instant::now();
                    let loaded = ResultStore::at_path(&store.working);
                    let load_s = t.elapsed().as_secs_f64();
                    (SweepService::with_store(runner, loaded), load_s)
                }
                None => (SweepService::new(runner), 0.0),
            };
            setup.push(t0.elapsed().as_secs_f64());
            load.push(load_s);
            if setup.len() == SETUP_SAMPLES || setup.iter().sum::<f64>() >= SETUP_BUDGET_S {
                break (scenarios, service);
            }
        };
        let store_bytes = service.store().bytes_on_disk();
        let t1 = Instant::now();
        let outcome = service.run_supervised(&scenarios);
        let t2 = Instant::now();
        let peak_heap_mb = crate::peak_heap_mb();
        let (failed, results) = match outcome {
            Ok(sweep) => {
                let results: Vec<ScenarioResult> =
                    sweep.completed().map(|(_, r)| r.clone()).collect();
                (scenarios.len() - results.len(), results)
            }
            Err(e) => {
                eprintln!("{}: sweep failed: {e}", self.name);
                (scenarios.len(), Vec::new())
            }
        };
        Rep {
            setup_s: crate::median(&mut setup),
            load_s: crate::median(&mut load),
            run_s: (t2 - t1).as_secs_f64(),
            points: scenarios.len(),
            failed,
            packets: service.metrics().packets_simulated,
            digest: digest(&results),
            results,
            service: service.metrics(),
            store_bytes,
            peak_heap_mb,
        }
    }

    /// The workload's own correctness checks on one repetition's results;
    /// each returned string is a failed check.
    pub fn check(&self, rep: &Rep) -> Vec<String> {
        let mut failures = Vec::new();
        if rep.failed != 0 {
            failures.push(format!("{} of {} points failed", rep.failed, rep.points));
        }
        match self.name {
            "awgn_fused" => failures.extend(check_waterfall(&self.scenarios(), &rep.results)),
            "store_resume" => {
                let store = self.store.as_ref().expect("store_resume has a store");
                if rep.results != store.cold {
                    failures.push("resumed results differ from the cold reference".into());
                }
                if rep.service.hits != store.stored as u64 {
                    failures.push(format!(
                        "{} store hits, expected {}",
                        rep.service.hits, store.stored
                    ));
                }
            }
            _ => {}
        }
        failures
    }
}

impl StoreFixture {
    fn new(scenarios: &[Scenario], seed: u64, threads: usize) -> Self {
        let dir = crate::out_dir();
        let tag = format!("store_resume-{seed}-{}", std::process::id());
        let pristine = dir.join(format!("{tag}.pristine.jsonl"));
        let working = dir.join(format!("{tag}.working.jsonl"));
        let cold = SweepService::new(SweepRunner::new(threads))
            .run(scenarios)
            .expect("cold reference sweep");
        let _ = std::fs::remove_file(&pristine);
        let mut store = ResultStore::at_path(&pristine);
        for (sc, res) in scenarios.iter().zip(&cold).step_by(2) {
            store.insert(StoreKey::new(sc, false, None), canonical(res));
        }
        assert_eq!(store.io_errors(), 0, "writing the pristine store");
        Self {
            pristine,
            working,
            cold,
            stored: store.len(),
        }
    }
}

/// A result as the service stores it: with a neutral submission index.
fn canonical(res: &ScenarioResult) -> ScenarioResult {
    ScenarioResult {
        scenario: 0,
        ..res.clone()
    }
}

/// FNV-1a over the results' debug form, which prints every float with
/// round-trip precision: equal digests mean bit-equal results.
pub fn digest(results: &[ScenarioResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        for b in format!("{r:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// BER must not increase with SNR for any (rate, decoder), pooled over
/// seeds.
fn check_waterfall(scenarios: &[Scenario], results: &[ScenarioResult]) -> Vec<String> {
    let mut curves: BTreeMap<(String, String), BTreeMap<u64, (u64, u64)>> = BTreeMap::new();
    for (sc, r) in scenarios.iter().zip(results) {
        // Non-negative floats order like their bit patterns.
        let point = curves
            .entry((sc.rate.label(), sc.decoder.clone()))
            .or_default()
            .entry(sc.snr_db.to_bits())
            .or_default();
        point.0 += r.bit_errors;
        point.1 += r.bits;
    }
    let mut failures = Vec::new();
    for ((rate, decoder), curve) in curves {
        let bers: Vec<f64> = curve.values().map(|&(e, b)| e as f64 / b as f64).collect();
        if bers.windows(2).any(|w| w[1] > w[0]) {
            failures.push(format!("{rate} {decoder}: BER rises with SNR: {bers:?}"));
        }
    }
    failures
}
