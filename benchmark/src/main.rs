//! The repository benchmark: one workload of the sweep engine per process.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <awgn_fused|fading_links|store_resume> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each repetition sets up a `SweepService` over `SweepRunner::new(nproc)`
//! and runs the workload's grid through it once; repetitions repeat until
//! `--seconds` have passed, and every figure is a median over them.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced repetitions and reports the per-layer metrics. The
//! last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 1 when a
//! correctness check fails and 2 for bad arguments.

mod stages;
mod trace;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use wilis::scenario::SweepRunner;
use wilis::service::ResultStore;

use trace::{traced_env, Counts, Probe};
use workloads::{Rep, Workload};

/// Repetitions measured at least, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Stage-replay passes; the median pass is reported.
const STAGE_PASSES: usize = 5;
/// Packets per stage-replay pass, spread over the workload's points.
const STAGE_PACKETS: u64 = 128;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(&flag[2..], value);
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |key: &str| flags.get(key).copied().ok_or(format!("missing --{key}"));
    let parse_err = |key: &str| format!("--{key} is not a valid value");
    let args = Args {
        workload: get("workload")?.to_string(),
        seed: get("seed")?.parse().map_err(|_| parse_err("seed"))?,
        seconds: get("seconds")?.parse().map_err(|_| parse_err("seconds"))?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            _ => return Err(parse_err("trace")),
        },
    };
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(parse_err("seconds"));
    }
    if let Some(extra) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

/// The median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&mut items.iter().map(f).collect::<Vec<_>>())
}

/// Scratch space for store files and span logs, inside the benchmark's
/// own directory.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// Counts live heap bytes and their high-water mark. The process RSS
/// high-water mark drifts by about a tenth between identical runs (the
/// allocator's per-thread arenas grow differently each time), and a
/// high-water mark over a whole run grows with the number of repetitions
/// (rare coincidences of two workers' peaks), so the benchmark reports the
/// median over repetitions of each repetition's heap peak and prints the
/// RSS peak beside it.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// are plain statistics.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            let live = LIVE.fetch_add(new_size, Relaxed) + new_size;
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Restarts the heap high-water mark from the bytes live now.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The heap high-water mark since the last reset, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Outcome {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Runs the workload until `seconds` have passed (and at least
/// `MIN_REPS` times) after one warm-up repetition, checking every
/// repetition, and reports the medians.
fn end_to_end(w: &Workload, seconds: f64, threads: usize) -> Outcome {
    let plain = || SweepRunner::new(threads);
    let warm = w.rep(&plain);
    let mut failures = w.check(&warm);
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let mut r = w.rep(&plain);
        failures.extend(w.check(&r));
        if r.digest != warm.digest {
            failures.push(format!(
                "repetition {} digest differs from the first",
                reps.len()
            ));
        }
        r.results = Vec::new();
        reps.push(r);
    }
    let attempted: usize = reps.iter().map(|r| r.points).sum();
    let failed: usize = reps.iter().map(|r| r.failed).sum();
    println!(
        "{}: {} repetitions of {} points on {threads} workers",
        w.name,
        reps.len(),
        reps[0].points,
    );
    println!(
        "{} failed_frac = {} ratio",
        w.name,
        failed as f64 / attempted as f64
    );
    println!("{} peak_rss_mb = {} MiB", w.name, peak_rss_mb());
    Outcome {
        failures,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: vec![
            Metric {
                name: "packets_per_s",
                value: median_of(&reps, |r| r.packets as f64 / r.run_s),
                unit: "1/s",
            },
            Metric {
                name: "points_per_s",
                value: median_of(&reps, |r| (r.points - r.failed) as f64 / r.run_s),
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: median_of(&reps, |r| r.setup_s),
                unit: "s",
            },
            Metric {
                name: "peak_heap_mb",
                value: median_of(&reps, |r| r.peak_heap_mb),
                unit: "MiB",
            },
        ],
    }
}

/// One traced repetition's per-layer figures, named as in `BENCHMARK.json`.
fn layer_values(rep: &Rep, c: &Counts, threads: usize) -> Vec<Metric> {
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let jobs = c.spans.iter().filter(|s| s.seq > 0);
    let busy_s: f64 = jobs.clone().map(|s| (s.end - s.start).as_secs_f64()).sum();
    let child_ns = c.apply_ns + c.gain_ns + c.decode_ns + c.batch_ns + c.observe_ns;
    let decode_ns = (c.decode_ns + c.batch_ns) as f64;
    let closed: u64 = rep
        .results
        .iter()
        .filter_map(|r| r.link.as_ref())
        .map(|l| l.delivered + l.gave_up)
        .sum();
    let (collisions, slots) = rep
        .results
        .iter()
        .filter_map(|r| r.cell.as_ref())
        .fold((0, 0), |(c, s), m| (c + m.collision_slots, s + m.slots));
    let svc = &rep.service;
    let loaded = svc.store_entries_loaded as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("scenario.jobs", jobs.count() as f64, "count"),
        m("scenario.env_build_s", c.env_ns as f64 / 1e9, "s"),
        m("scenario.worker_busy_s", busy_s, "s"),
        m(
            "scenario.worker_idle_frac",
            1.0 - busy_s / (threads as f64 * rep.run_s),
            "ratio",
        ),
        m("scenario.self_s", busy_s - child_ns as f64 / 1e9, "s"),
        m("channel.apply_calls", c.apply_calls as f64, "count"),
        m(
            "channel.applies_per_packet",
            ratio(c.apply_calls as f64, svc.packets_simulated as f64),
            "1/packet",
        ),
        m("channel.apply_s", c.apply_ns as f64 / 1e9, "s"),
        m(
            "channel.ns_per_sample",
            ratio(c.apply_ns as f64, c.samples as f64),
            "ns",
        ),
        m("channel.packet_gain_calls", c.gain_calls as f64, "count"),
        m("fec.decode_calls", c.decode_calls as f64, "count"),
        m("fec.batch_calls", c.batch_calls as f64, "count"),
        m(
            "fec.lanes_per_batch",
            ratio(c.lanes as f64, c.batch_calls as f64),
            "lanes",
        ),
        m("fec.decode_s", decode_ns / 1e9, "s"),
        m(
            "fec.ns_per_info_bit",
            ratio(decode_ns, c.info_bits as f64),
            "ns",
        ),
        m("mac.observe_calls", c.observe_calls as f64, "count"),
        m("mac.observe_s", c.observe_ns as f64 / 1e9, "s"),
        m(
            "mac.attempts_per_packet",
            ratio(c.observe_calls as f64, closed as f64),
            "1/packet",
        ),
        m(
            "mac.collision_frac",
            ratio(collisions as f64, slots as f64),
            "ratio",
        ),
        m("service.hits", svc.hits as f64, "count"),
        m("service.misses", svc.misses as f64, "count"),
        m(
            "service.packets_simulated",
            svc.packets_simulated as f64,
            "count",
        ),
        m("service.packets_saved", svc.packets_saved as f64, "count"),
        m("store.load_s", rep.load_s, "s"),
        m("store.records_loaded", loaded, "count"),
        m(
            "store.load_mb_per_s",
            ratio(rep.store_bytes as f64 / 1e6, rep.load_s),
            "MB/s",
        ),
        m(
            "store.bytes_per_record",
            ratio(rep.store_bytes as f64, loaded),
            "B",
        ),
        m(
            "store.lines_skipped",
            svc.store_lines_skipped as f64,
            "count",
        ),
        m("store.io_errors", svc.store_io_errors as f64, "count"),
        m("store.retries", svc.store_retries as f64, "count"),
    ]
}

/// Times `ResultStore::insert` of the records the workload's sweep
/// appends, into a fresh file store, in microseconds per record (median
/// of three replays; 0 for the in-memory workloads).
fn append_us_per_record(w: &Workload) -> f64 {
    let records = w.appended_records();
    if records.is_empty() {
        return 0.0;
    }
    let path = out_dir().join(format!("{}-{}.append.jsonl", w.name, std::process::id()));
    let mut samples = Vec::new();
    for _ in 0..3 {
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::at_path(&path);
        let batch = records.clone();
        let t = Instant::now();
        for (key, result) in batch {
            store.insert(key, result);
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / records.len() as f64);
    }
    let _ = std::fs::remove_file(&path);
    median(&mut samples)
}

/// Writes every traced repetition's job spans as JSON lines: seconds from
/// the repetition's first factory call, worker index by first appearance.
fn write_spans(w: &Workload, seed: u64, traced: &[Counts]) -> PathBuf {
    let path = out_dir().join(format!("{}-{seed}.spans.jsonl", w.name));
    let mut out = String::new();
    for (rep, c) in traced.iter().enumerate() {
        let Some(t0) = c.spans.iter().map(|s| s.start).min() else {
            continue;
        };
        let mut workers = Vec::new();
        for s in &c.spans {
            let worker = match workers.iter().position(|t| *t == s.thread) {
                Some(i) => i,
                None => {
                    workers.push(s.thread);
                    workers.len() - 1
                }
            };
            out.push_str(&format!(
                "{{\"rep\":{rep},\"seq\":{},\"kind\":\"{}\",\"thread\":{worker},\"start_s\":{},\"end_s\":{}}}\n",
                s.seq,
                if s.seq == 0 { "preflight" } else { "job" },
                (s.start - t0).as_secs_f64(),
                (s.end - t0).as_secs_f64()
            ));
        }
    }
    std::fs::write(&path, out).expect("write the span log");
    path
}

/// Alternates untraced and traced repetitions until `seconds` have passed
/// (at least `MIN_REPS` pairs), so host drift lands on both sides, and
/// reports the median of every per-layer figure plus the stage replay,
/// the store append replay and the tracing overhead.
fn per_layer(w: &Workload, seed: u64, seconds: f64, threads: usize) -> Outcome {
    let probe = Arc::new(Probe::default());
    let plain = || SweepRunner::new(threads);
    let traced = || SweepRunner::new(threads).with_env(traced_env(Arc::clone(&probe)));
    let warm = w.rep(&plain);
    let mut failures = w.check(&warm);
    w.rep(&traced);
    probe.take();
    let (mut attempted, mut failed) = (0, 0);
    let (mut plain_pps, mut traced_pps) = (Vec::new(), Vec::new());
    let mut layers: Vec<Vec<Metric>> = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let start = Instant::now();
    while layers.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let p = w.rep(&plain);
        let t = w.rep(&traced);
        let c = probe.take();
        for r in [&p, &t] {
            failures.extend(w.check(r));
            attempted += r.points as u64;
            failed += r.failed as u64;
        }
        if p.digest != warm.digest || t.digest != warm.digest {
            failures.push("a repetition's results differ from the first's".into());
        }
        if t.service != p.service {
            failures.push("traced service counts differ from untraced".into());
        }
        if counts
            .first()
            .is_some_and(|first| first.spans.len() != c.spans.len())
        {
            failures.push("traced job count differs between repetitions".into());
        }
        plain_pps.push(p.packets as f64 / p.run_s);
        traced_pps.push(t.packets as f64 / t.run_s);
        layers.push(layer_values(&t, &c, threads));
        counts.push(c);
    }
    let mut metrics: Vec<Metric> = (0..layers[0].len())
        .map(|i| Metric {
            name: layers[0][i].name,
            value: median_of(&layers, |l| l[i].value),
            unit: layers[0][i].unit,
        })
        .collect();
    let per_point = (STAGE_PACKETS / w.stages.len() as u64).max(8);
    let (tx_ns, front_end_ns) = stages::phy_ns_per_packet(&w.stages, seed, per_point, STAGE_PASSES);
    let overhead = 1.0 - median(&mut traced_pps) / median(&mut plain_pps);
    metrics.extend([
        Metric {
            name: "phy.tx_ns_per_packet",
            value: tx_ns,
            unit: "ns",
        },
        Metric {
            name: "phy.front_end_ns_per_packet",
            value: front_end_ns,
            unit: "ns",
        },
        Metric {
            name: "store.append_us_per_record",
            value: append_us_per_record(w),
            unit: "us",
        },
        Metric {
            name: "trace.overhead_frac",
            value: overhead,
            unit: "ratio",
        },
    ]);
    let spans = write_spans(w, seed, &counts);
    println!(
        "{}: {} traced + {} untraced repetitions on {threads} workers; spans in {}",
        w.name,
        layers.len(),
        layers.len(),
        spans.display()
    );
    Outcome {
        failures,
        attempted,
        failed,
        metrics,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let setup = Instant::now();
    let Some(w) = Workload::new(&args.workload, args.seed, threads) else {
        eprintln!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            workloads::NAMES
        );
        std::process::exit(2);
    };
    eprintln!(
        "{}: inputs ready in {:.2} s",
        w.name,
        setup.elapsed().as_secs_f64()
    );
    let mut outcome = if args.trace {
        per_layer(&w, args.seed, args.seconds, threads)
    } else {
        end_to_end(&w, args.seconds, threads)
    };
    for m in outcome.metrics.iter().filter(|m| !m.value.is_finite()) {
        outcome.failures.push(format!("{} is not finite", m.name));
    }
    for f in &outcome.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        println!("{} {} = {} {}", w.name, m.name, m.value, m.unit);
        // JSON has no NaN or infinity; such a metric already failed above.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        json.push_str(&format!(
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        ));
    }
    json.push_str("}}");
    println!("{json}");
    let _ = std::io::stdout().flush();
    // `exit` skips destructors, and the store fixture deletes its files in
    // its own.
    drop(w);
    std::process::exit(if outcome.failures.is_empty() { 0 } else { 1 });
}
