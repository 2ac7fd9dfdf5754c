//! The memoized result store: a typed key over the full scenario
//! coordinate, an in-memory map, and an optional JSON-lines disk store
//! so repeated grid points are served from cache across calls *and*
//! across processes.
//!
//! # Disk format (`WILIS_STORE`)
//!
//! One record per line: `{"v":1,"key":{…},"result":{…}}`. Every `f64`
//! (the SNR in the key; PBER sums and scatter points in the result) is
//! stored as the `u64` bit pattern of its IEEE-754 encoding, so a value
//! read back is **bit-equal** to the value written — warm results
//! reproduce cold results exactly, which is what lets the service keep
//! the engine's bit-identity contract across a cold/warm split. Corrupt
//! or foreign lines are skipped (and counted), never fatal: a store file
//! is a cache, not a database.
//!
//! # Crash safety and degradation
//!
//! The store survives its own failure modes and counts every one:
//!
//! - a **torn final line** (a crash mid-append, or
//!   [`crate::faults::FaultSite::TornWrite`] injection) is skipped at
//!   load like any corrupt line, and the next successful append first
//!   writes a newline so the torn tail can never merge with a healthy
//!   record;
//! - **transient IO errors** (organic or injected) get a bounded
//!   deterministic retry — the backoff is expressed in attempt count
//!   ([`STORE_ATTEMPTS`]), never in wall-clock, so a faulted run stays
//!   bit-identical at any thread count;
//! - a [`StoreBudget`] caps the record count and/or the mirrored file
//!   size; over-budget records are evicted oldest-first and the file is
//!   rewritten by **atomic compaction** (write a sibling temp file, then
//!   rename), so a crash during compaction leaves the previous file
//!   intact.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use wilis_lis::registry::Params;
use wilis_mac::cell::{CellMetrics, NodeCellMetrics};
use wilis_mac::link::LinkMetrics;
use wilis_phy::PhyRate;
use wilis_softphy::HintBin;

use super::json::Json;
use crate::faults::{occurrence_of, FaultInjector, FaultSite};
use crate::scenario::{PacketStat, Scenario, ScenarioResult, StopMetric, StoppingRule};

/// The bounded retry budget of one store operation: an append or load
/// may fail (organically or by injection) at most `STORE_ATTEMPTS - 1`
/// times before the store absorbs it as an IO error and degrades to
/// in-memory for that record. The backoff between attempts is the
/// attempt count itself — never a sleep — keeping faulted runs
/// bit-identical at any thread count.
pub const STORE_ATTEMPTS: u64 = 3;

/// The execution-relevant identity of a stopping rule, with floats as
/// bits so the key stays `Eq + Ord + Hash`. Two rules that differ in any
/// knob may stop a point at different depths, so they key different
/// cache entries.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoppingKey {
    /// The watched metric.
    pub metric: StopMetric,
    /// `target_half_width` as IEEE-754 bits.
    pub target_bits: u64,
    /// `z` as IEEE-754 bits.
    pub z_bits: u64,
    /// The chunk size in packets.
    pub chunk_packets: u32,
}

impl From<StoppingRule> for StoppingKey {
    fn from(rule: StoppingRule) -> Self {
        Self {
            metric: rule.metric,
            target_bits: rule.target_half_width.to_bits(),
            z_bits: rule.z.to_bits(),
            chunk_packets: rule.chunk_packets,
        }
    }
}

/// The typed cache key of one grid point: every [`Scenario`] field (SNR
/// as bits — NaN-safe exact identity, like the engine's own
/// shared-channel `GroupKey`) plus the two runner knobs that change what
/// a result *contains* — packet-stats recording and the stopping rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey {
    /// Index of the rate in [`PhyRate::all`] — a stable small integer.
    pub rate_index: u8,
    /// Decoder registry name.
    pub decoder: String,
    /// Channel registry name.
    pub channel: String,
    /// Channel parameters.
    pub channel_params: Params,
    /// Link-policy registry name.
    pub link: String,
    /// Link-policy parameters.
    pub link_params: Params,
    /// Contention-policy registry name.
    pub contention: String,
    /// Contention parameters.
    pub contention_params: Params,
    /// Cell node count.
    pub nodes: u32,
    /// Operating SNR as IEEE-754 bits.
    pub snr_bits: u64,
    /// Scenario seed.
    pub seed: u64,
    /// Packet (or slot) budget.
    pub packets: u32,
    /// Payload bits per packet.
    pub payload_bits: u64,
    /// Whether per-packet scatter stats were recorded into the result.
    pub record_packet_stats: bool,
    /// The stopping rule in force, if any.
    pub stopping: Option<StoppingKey>,
}

impl StoreKey {
    /// The key of `sc` under the given runner configuration.
    pub fn new(sc: &Scenario, record_packet_stats: bool, stopping: Option<StoppingRule>) -> Self {
        Self {
            rate_index: rate_index(sc.rate),
            decoder: sc.decoder.clone(),
            channel: sc.channel.clone(),
            channel_params: sc.channel_params.clone(),
            link: sc.link.clone(),
            link_params: sc.link_params.clone(),
            contention: sc.contention.clone(),
            contention_params: sc.contention_params.clone(),
            nodes: sc.nodes,
            snr_bits: sc.snr_db.to_bits(),
            seed: sc.seed,
            packets: sc.packets,
            payload_bits: sc.payload_bits as u64,
            record_packet_stats,
            stopping: stopping.map(StoppingKey::from),
        }
    }
}

fn rate_index(rate: PhyRate) -> u8 {
    PhyRate::all()
        .iter()
        .position(|&r| r == rate)
        .expect("PhyRate::all() contains every variant") as u8 // lint: allow(panic-policy) — all() enumerates the whole enum
}

fn f64_bits(v: f64) -> Json {
    Json::Num(v.to_bits())
}

fn params_to_json(p: &Params) -> Json {
    Json::Obj(
        p.iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v.to_string())))
            .collect(),
    )
}

fn params_from_json(v: &Json) -> Option<Params> {
    let Json::Obj(map) = v else { return None };
    let mut p = Params::new();
    for (k, val) in map {
        p.set(k, val.as_str()?);
    }
    Some(p)
}

fn key_to_json(key: &StoreKey) -> Json {
    Json::obj([
        ("rate", Json::Num(u64::from(key.rate_index))),
        ("decoder", Json::Str(key.decoder.clone())),
        ("channel", Json::Str(key.channel.clone())),
        ("channel_params", params_to_json(&key.channel_params)),
        ("link", Json::Str(key.link.clone())),
        ("link_params", params_to_json(&key.link_params)),
        ("contention", Json::Str(key.contention.clone())),
        ("contention_params", params_to_json(&key.contention_params)),
        ("nodes", Json::Num(u64::from(key.nodes))),
        ("snr_bits", Json::Num(key.snr_bits)),
        ("seed", Json::Num(key.seed)),
        ("packets", Json::Num(u64::from(key.packets))),
        ("payload_bits", Json::Num(key.payload_bits)),
        ("record_stats", Json::Bool(key.record_packet_stats)),
        (
            "stopping",
            match &key.stopping {
                None => Json::Null,
                Some(s) => Json::obj([
                    (
                        "metric",
                        Json::Str(
                            match s.metric {
                                StopMetric::Ber => "ber",
                                StopMetric::Per => "per",
                            }
                            .to_string(),
                        ),
                    ),
                    ("target_bits", Json::Num(s.target_bits)),
                    ("z_bits", Json::Num(s.z_bits)),
                    ("chunk_packets", Json::Num(u64::from(s.chunk_packets))),
                ]),
            },
        ),
    ])
}

fn key_from_json(v: &Json) -> Option<StoreKey> {
    let stopping = match v.get("stopping")? {
        Json::Null => None,
        s => Some(StoppingKey {
            metric: match s.get("metric")?.as_str()? {
                "ber" => StopMetric::Ber,
                "per" => StopMetric::Per,
                _ => return None,
            },
            target_bits: s.get("target_bits")?.as_u64()?,
            z_bits: s.get("z_bits")?.as_u64()?,
            chunk_packets: u32::try_from(s.get("chunk_packets")?.as_u64()?).ok()?,
        }),
    };
    Some(StoreKey {
        rate_index: u8::try_from(v.get("rate")?.as_u64()?).ok()?,
        decoder: v.get("decoder")?.as_str()?.to_string(),
        channel: v.get("channel")?.as_str()?.to_string(),
        channel_params: params_from_json(v.get("channel_params")?)?,
        link: v.get("link")?.as_str()?.to_string(),
        link_params: params_from_json(v.get("link_params")?)?,
        contention: v.get("contention")?.as_str()?.to_string(),
        contention_params: params_from_json(v.get("contention_params")?)?,
        nodes: u32::try_from(v.get("nodes")?.as_u64()?).ok()?,
        snr_bits: v.get("snr_bits")?.as_u64()?,
        seed: v.get("seed")?.as_u64()?,
        packets: u32::try_from(v.get("packets")?.as_u64()?).ok()?,
        payload_bits: v.get("payload_bits")?.as_u64()?,
        record_packet_stats: v.get("record_stats")?.as_bool()?,
        stopping,
    })
}

fn link_to_json(m: &LinkMetrics) -> Json {
    Json::obj([
        ("packets", Json::Num(m.packets)),
        ("delivered", Json::Num(m.delivered)),
        ("gave_up", Json::Num(m.gave_up)),
        ("bits_delivered", Json::Num(m.bits_delivered)),
        ("bits_transmitted", Json::Num(m.bits_transmitted)),
        ("bits_retransmitted", Json::Num(m.bits_retransmitted)),
        ("under", Json::Num(m.under)),
        ("accurate", Json::Num(m.accurate)),
        ("over", Json::Num(m.over)),
        ("selected_mbps_sum", f64_bits(m.selected_mbps_sum)),
        ("recovered", Json::Num(m.recovered)),
        (
            "attempts_hist",
            Json::Arr(m.attempts_hist.iter().map(|&n| Json::Num(n)).collect()),
        ),
        ("effective_rate_sum", f64_bits(m.effective_rate_sum)),
    ])
}

fn link_from_json(v: &Json) -> Option<LinkMetrics> {
    let mut attempts_hist = LinkMetrics::default().attempts_hist;
    let hist = v.get("attempts_hist")?.as_arr()?;
    if hist.len() != attempts_hist.len() {
        return None;
    }
    for (slot, item) in attempts_hist.iter_mut().zip(hist) {
        *slot = item.as_u64()?;
    }
    Some(LinkMetrics {
        packets: v.get("packets")?.as_u64()?,
        delivered: v.get("delivered")?.as_u64()?,
        gave_up: v.get("gave_up")?.as_u64()?,
        bits_delivered: v.get("bits_delivered")?.as_u64()?,
        bits_transmitted: v.get("bits_transmitted")?.as_u64()?,
        bits_retransmitted: v.get("bits_retransmitted")?.as_u64()?,
        under: v.get("under")?.as_u64()?,
        accurate: v.get("accurate")?.as_u64()?,
        over: v.get("over")?.as_u64()?,
        selected_mbps_sum: f64::from_bits(v.get("selected_mbps_sum")?.as_u64()?),
        recovered: v.get("recovered")?.as_u64()?,
        attempts_hist,
        effective_rate_sum: f64::from_bits(v.get("effective_rate_sum")?.as_u64()?),
    })
}

fn cell_to_json(c: &CellMetrics) -> Json {
    Json::obj([
        ("nodes", Json::Num(u64::from(c.nodes))),
        ("slots", Json::Num(c.slots)),
        ("payload_bits", Json::Num(c.payload_bits)),
        ("idle_slots", Json::Num(c.idle_slots)),
        ("clean_slots", Json::Num(c.clean_slots)),
        ("capture_slots", Json::Num(c.capture_slots)),
        ("collision_slots", Json::Num(c.collision_slots)),
        (
            "per_node",
            Json::Arr(
                c.per_node
                    .iter()
                    .map(|n| {
                        Json::obj([
                            ("attempts", Json::Num(n.attempts)),
                            ("collisions", Json::Num(n.collisions)),
                            ("delivered", Json::Num(n.delivered)),
                            ("bits_delivered", Json::Num(n.bits_delivered)),
                            ("bits_transmitted", Json::Num(n.bits_transmitted)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn cell_from_json(v: &Json) -> Option<CellMetrics> {
    let mut per_node = Vec::new();
    for item in v.get("per_node")?.as_arr()? {
        per_node.push(NodeCellMetrics {
            attempts: item.get("attempts")?.as_u64()?,
            collisions: item.get("collisions")?.as_u64()?,
            delivered: item.get("delivered")?.as_u64()?,
            bits_delivered: item.get("bits_delivered")?.as_u64()?,
            bits_transmitted: item.get("bits_transmitted")?.as_u64()?,
        });
    }
    Some(CellMetrics {
        nodes: u32::try_from(v.get("nodes")?.as_u64()?).ok()?,
        slots: v.get("slots")?.as_u64()?,
        payload_bits: v.get("payload_bits")?.as_u64()?,
        idle_slots: v.get("idle_slots")?.as_u64()?,
        clean_slots: v.get("clean_slots")?.as_u64()?,
        capture_slots: v.get("capture_slots")?.as_u64()?,
        collision_slots: v.get("collision_slots")?.as_u64()?,
        per_node,
    })
}

fn result_to_json(r: &ScenarioResult) -> Json {
    Json::obj([
        ("label", Json::Str(r.label.clone())),
        ("packets", Json::Num(r.packets)),
        ("packet_errors", Json::Num(r.packet_errors)),
        ("bits", Json::Num(r.bits)),
        ("bit_errors", Json::Num(r.bit_errors)),
        (
            "hint_bins",
            Json::Arr(
                r.hint_bins
                    .iter()
                    .map(|b| {
                        Json::obj([("bits", Json::Num(b.bits)), ("errors", Json::Num(b.errors))])
                    })
                    .collect(),
            ),
        ),
        ("predicted_pber_sum", f64_bits(r.predicted_pber_sum)),
        (
            "packet_stats",
            Json::Arr(
                r.packet_stats
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("predicted", f64_bits(s.predicted)),
                            ("actual", f64_bits(s.actual)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("link", r.link.as_ref().map_or(Json::Null, link_to_json)),
        ("cell", r.cell.as_ref().map_or(Json::Null, cell_to_json)),
    ])
}

fn result_from_json(v: &Json) -> Option<ScenarioResult> {
    let mut hint_bins = Vec::new();
    for item in v.get("hint_bins")?.as_arr()? {
        hint_bins.push(HintBin {
            bits: item.get("bits")?.as_u64()?,
            errors: item.get("errors")?.as_u64()?,
        });
    }
    let mut packet_stats = Vec::new();
    for item in v.get("packet_stats")?.as_arr()? {
        packet_stats.push(PacketStat {
            predicted: f64::from_bits(item.get("predicted")?.as_u64()?),
            actual: f64::from_bits(item.get("actual")?.as_u64()?),
        });
    }
    Some(ScenarioResult {
        // The submission index is call-local, not part of the point's
        // identity; the service rewrites it on every hit.
        scenario: 0,
        label: v.get("label")?.as_str()?.to_string(),
        packets: v.get("packets")?.as_u64()?,
        packet_errors: v.get("packet_errors")?.as_u64()?,
        bits: v.get("bits")?.as_u64()?,
        bit_errors: v.get("bit_errors")?.as_u64()?,
        hint_bins,
        predicted_pber_sum: f64::from_bits(v.get("predicted_pber_sum")?.as_u64()?),
        packet_stats,
        link: match v.get("link")? {
            Json::Null => None,
            m => Some(link_from_json(m)?),
        },
        cell: match v.get("cell")? {
            Json::Null => None,
            c => Some(cell_from_json(c)?),
        },
    })
}

/// One store record as a JSON line; version-tagged so a future format
/// can coexist in one file.
fn record_to_line(key: &StoreKey, result: &ScenarioResult) -> String {
    Json::obj([
        ("v", Json::Num(1)),
        ("key", key_to_json(key)),
        ("result", result_to_json(result)),
    ])
    .to_line()
}

fn record_from_line(line: &str) -> Option<(StoreKey, ScenarioResult)> {
    let v = Json::parse(line)?;
    if v.get("v")?.as_u64()? != 1 {
        return None;
    }
    Some((
        key_from_json(v.get("key")?)?,
        result_from_json(v.get("result")?)?,
    ))
}

/// The eviction policy of a [`ResultStore`]: optional caps on the
/// record count and on the mirrored file's size. `Default` is
/// unbounded — the store never evicts, matching the pre-budget
/// behavior bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreBudget {
    /// Maximum records held (in memory and on disk); the oldest records
    /// by insertion order are evicted first.
    pub max_records: Option<u64>,
    /// Maximum mirrored-file size in bytes; when an append pushes the
    /// file past it, the store compacts and evicts oldest-first until
    /// the rewritten file fits (the newest record is never evicted).
    pub max_bytes: Option<u64>,
}

impl StoreBudget {
    /// No limits — the store never evicts.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Caps the record count.
    #[must_use]
    pub fn with_max_records(mut self, n: u64) -> Self {
        self.max_records = Some(n);
        self
    }

    /// Caps the mirrored file size in bytes.
    #[must_use]
    pub fn with_max_bytes(mut self, n: u64) -> Self {
        self.max_bytes = Some(n);
        self
    }
}

/// The cumulative load and degradation counters of a [`ResultStore`]
/// (see [`ResultStore::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Records loaded from disk at construction.
    pub loaded: u64,
    /// Corrupt/foreign lines skipped while loading (a torn final line
    /// counts here).
    pub skipped: u64,
    /// IO failures absorbed after the retry budget (load, append or
    /// compaction).
    pub io_errors: u64,
    /// Deterministic retry attempts performed after a failed store
    /// operation.
    pub retries: u64,
    /// Append attempts failed by injection ([`FaultSite::StoreWrite`]).
    pub write_faults: u64,
    /// Load attempts failed by injection ([`FaultSite::StoreRead`]).
    pub read_faults: u64,
    /// Records written torn by injection ([`FaultSite::TornWrite`]).
    pub torn_writes: u64,
    /// Records written mangled by injection
    /// ([`FaultSite::CorruptRecord`]).
    pub corrupt_records: u64,
    /// Records evicted by the [`StoreBudget`].
    pub evictions: u64,
    /// Atomic file compactions performed.
    pub compactions: u64,
}

/// One memoized record plus its insertion stamp — the FIFO coordinate
/// the eviction policy orders by.
#[derive(Debug)]
struct StoreEntry {
    stamp: u64,
    result: ScenarioResult,
}

/// The memoized result map, optionally mirrored to a JSON-lines file.
///
/// Inserts append one line; loads replay the file (later records win, so
/// an interrupted append at worst loses its own record). IO failures are
/// counted, never fatal — a broken disk degrades the store to in-memory.
/// See the module docs for the crash-safety and eviction behavior; every
/// degradation event (skipped lines, IO errors, retries, injected
/// faults, evictions, compactions) is counted in [`StoreCounters`].
#[derive(Debug, Default)]
pub struct ResultStore {
    map: BTreeMap<StoreKey, StoreEntry>,
    path: Option<PathBuf>,
    budget: StoreBudget,
    faults: Option<FaultInjector>,
    next_stamp: u64,
    bytes_on_disk: u64,
    tail_torn: bool,
    counters: StoreCounters,
}

impl ResultStore {
    /// A purely in-memory store.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A store mirrored at `path`: existing records are loaded now and
    /// every insert appends a line. A missing file is an empty store; an
    /// unreadable one counts an IO error and starts empty. Unbounded,
    /// fault-free — see [`ResultStore::at_path_with`] for the knobs.
    pub fn at_path(path: impl Into<PathBuf>) -> Self {
        Self::at_path_with(path, StoreBudget::unbounded(), None)
    }

    /// A mirrored store with an eviction [`StoreBudget`] and an optional
    /// [`FaultInjector`] consulted at every store fault site. The load
    /// itself runs under the bounded retry policy ([`STORE_ATTEMPTS`]);
    /// a file whose final line is torn (no trailing newline) loads every
    /// healthy record and arms the tail repair for the next append.
    pub fn at_path_with(
        path: impl Into<PathBuf>,
        budget: StoreBudget,
        faults: Option<FaultInjector>,
    ) -> Self {
        let path = path.into();
        let mut store = Self {
            path: Some(path.clone()),
            budget,
            faults,
            ..Self::default()
        };
        let mut attempt: u64 = 0;
        let text = loop {
            let injected = matches!(&store.faults,
                Some(f) if f.fires(FaultSite::StoreRead, attempt));
            let outcome = if injected {
                store.counters.read_faults += 1;
                Err(std::io::Error::other("injected store read fault"))
            } else {
                std::fs::read_to_string(&path)
            };
            match outcome {
                Ok(text) => break text,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break String::new(),
                Err(_) => {
                    attempt += 1;
                    if attempt >= STORE_ATTEMPTS {
                        store.counters.io_errors += 1;
                        break String::new();
                    }
                    store.counters.retries += 1;
                }
            }
        };
        store.bytes_on_disk = text.len() as u64;
        store.tail_torn = !text.is_empty() && !text.ends_with('\n');
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match record_from_line(line) {
                Some((key, result)) => {
                    let stamp = store.next_stamp;
                    store.next_stamp += 1;
                    store.map.insert(key, StoreEntry { stamp, result });
                    store.counters.loaded += 1;
                }
                None => store.counters.skipped += 1,
            }
        }
        store.enforce_budget();
        store
    }

    /// The mirrored file path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The eviction budget in force.
    pub fn budget(&self) -> StoreBudget {
        self.budget
    }

    /// Installs (or clears) the fault injector consulted at the store's
    /// fault sites. Loads already performed are unaffected.
    pub fn set_faults(&mut self, faults: Option<FaultInjector>) {
        self.faults = faults;
    }

    /// Replaces the eviction budget and enforces it immediately.
    pub fn set_budget(&mut self, budget: StoreBudget) {
        self.budget = budget;
        self.enforce_budget();
    }

    /// Records in the store.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every load and degradation counter at this instant; subtract two
    /// snapshots to get the events of the interval between them.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Shorthand for `counters().io_errors`.
    pub fn io_errors(&self) -> u64 {
        self.counters.io_errors
    }

    /// True when the mirrored file currently ends in a torn (unterminated)
    /// line; the next successful append repairs it.
    pub fn tail_torn(&self) -> bool {
        self.tail_torn
    }

    /// The mirrored file's size in bytes as the store accounts it.
    pub fn bytes_on_disk(&self) -> u64 {
        self.bytes_on_disk
    }

    /// Looks up the memoized result for `key`.
    pub fn get(&self, key: &StoreKey) -> Option<&ScenarioResult> {
        self.map.get(key).map(|e| &e.result)
    }

    /// Inserts (and, when mirrored, appends) one result, then enforces
    /// the eviction budget.
    pub fn insert(&mut self, key: StoreKey, result: ScenarioResult) {
        if let Some(path) = self.path.clone() {
            let line = record_to_line(&key, &result);
            self.append_line(&path, &line);
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.map.insert(key, StoreEntry { stamp, result });
        self.enforce_budget();
    }

    /// Appends one record line under the fault plan and the bounded
    /// retry policy. Torn and corrupt injections are content-addressed
    /// (the occurrence index is the line's [`occurrence_of`] hash), so
    /// the decision never depends on completion order.
    fn append_line(&mut self, path: &Path, line: &str) {
        let occ = occurrence_of(line.as_bytes());
        let corrupt = matches!(&self.faults,
            Some(f) if f.fires(FaultSite::CorruptRecord, occ));
        let torn = matches!(&self.faults,
            Some(f) if f.fires(FaultSite::TornWrite, occ));
        let mut payload = line.as_bytes().to_vec();
        if corrupt {
            // Same length, unparsable: the mangled record must be
            // skipped (and counted) at the next load.
            self.counters.corrupt_records += 1;
            payload[0] = b'!';
        }
        let terminated = !torn;
        if torn {
            self.counters.torn_writes += 1;
            payload.truncate(payload.len() / 2);
        }
        let mut attempt: u64 = 0;
        loop {
            let injected = matches!(&self.faults,
                Some(f) if f.fires(FaultSite::StoreWrite, attempt));
            let outcome = if injected {
                self.counters.write_faults += 1;
                Err(std::io::Error::other("injected store write fault"))
            } else {
                let lead = self.tail_torn;
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| {
                        if lead {
                            // Repair the torn tail: a newline first, so
                            // this record cannot merge with the torn
                            // half-line before it.
                            f.write_all(b"\n")?;
                        }
                        f.write_all(&payload)?;
                        if terminated {
                            f.write_all(b"\n")?;
                        }
                        Ok(())
                    })
            };
            match outcome {
                Ok(()) => {
                    self.bytes_on_disk +=
                        u64::from(self.tail_torn) + payload.len() as u64 + u64::from(terminated);
                    self.tail_torn = !terminated;
                    break;
                }
                Err(_) => {
                    attempt += 1;
                    if attempt >= STORE_ATTEMPTS {
                        self.counters.io_errors += 1;
                        break;
                    }
                    self.counters.retries += 1;
                }
            }
        }
    }

    /// Evicts past the record budget and compacts the mirrored file when
    /// eviction or the byte budget requires it.
    fn enforce_budget(&mut self) {
        let mut evicted = false;
        if let Some(max) = self.budget.max_records {
            while self.map.len() as u64 > max {
                self.evict_oldest();
                evicted = true;
            }
        }
        let over_bytes = self
            .budget
            .max_bytes
            .is_some_and(|max| self.bytes_on_disk > max);
        if self.path.is_some() && (evicted || over_bytes) {
            self.compact();
        }
    }

    /// Removes the oldest record by insertion stamp.
    fn evict_oldest(&mut self) {
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| k.clone());
        if let Some(key) = oldest {
            self.map.remove(&key);
            self.counters.evictions += 1;
        }
    }

    /// Rewrites the mirrored file to exactly the live records, oldest
    /// first, **atomically**: the new contents go to a sibling temp file
    /// which is then renamed over the store — a crash mid-compaction
    /// leaves the previous file intact. Under a byte budget, oldest
    /// records are evicted until the rewritten file fits (the newest
    /// record is never evicted). A no-op for in-memory stores.
    pub fn compact(&mut self) {
        let Some(path) = self.path.clone() else {
            return;
        };
        let mut lines: Vec<(StoreKey, String, u64)> = self
            .map
            .iter()
            .map(|(k, e)| (k.clone(), record_to_line(k, &e.result), e.stamp))
            .collect();
        lines.sort_by_key(|(_, _, stamp)| *stamp);
        if let Some(max) = self.budget.max_bytes {
            let mut total: u64 = lines.iter().map(|(_, l, _)| l.len() as u64 + 1).sum();
            while total > max && lines.len() > 1 {
                let (key, line, _) = lines.remove(0);
                total -= line.len() as u64 + 1;
                self.map.remove(&key);
                self.counters.evictions += 1;
            }
        }
        let mut buf = String::new();
        for (_, line, _) in &lines {
            buf.push_str(line);
            buf.push('\n');
        }
        let tmp = {
            let mut os = path.clone().into_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let written =
            std::fs::write(&tmp, buf.as_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
        match written {
            Ok(()) => {
                self.bytes_on_disk = buf.len() as u64;
                self.tail_torn = false;
                self.counters.compactions += 1;
            }
            Err(_) => {
                self.counters.io_errors += 1;
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_key(seed: u64) -> StoreKey {
        let mut link_params = Params::new();
        link_params.set("max_retries", "3");
        let sc = Scenario {
            rate: PhyRate::QpskHalf,
            decoder: "bcjr".to_string(),
            channel: "awgn".to_string(),
            channel_params: Params::new(),
            link: "arq".to_string(),
            link_params,
            contention: "p2p".to_string(),
            contention_params: Params::new(),
            nodes: 1,
            snr_db: 9.0,
            seed,
            packets: 64,
            payload_bits: 100,
        };
        StoreKey::new(&sc, true, Some(StoppingRule::ber(1e-3).with_chunk(16)))
    }

    fn sample_result() -> ScenarioResult {
        let mut link = LinkMetrics {
            packets: 7,
            selected_mbps_sum: 1.25e-3,
            ..LinkMetrics::default()
        };
        link.attempts_hist[2] = 5;
        ScenarioResult {
            scenario: 3,
            label: "qpsk 1/2 · bcjr · 9.0 dB".to_string(),
            packets: 7,
            packet_errors: 2,
            bits: 700,
            bit_errors: 13,
            hint_bins: vec![HintBin { bits: 5, errors: 1 }, HintBin::default()],
            predicted_pber_sum: 0.123456789,
            packet_stats: vec![PacketStat {
                predicted: 0.25,
                actual: f64::from_bits(0x3FB9_9999_9999_999A),
            }],
            link: Some(link),
            cell: Some(CellMetrics {
                nodes: 2,
                slots: 10,
                payload_bits: 100,
                idle_slots: 3,
                clean_slots: 5,
                capture_slots: 1,
                collision_slots: 1,
                per_node: vec![NodeCellMetrics {
                    attempts: 4,
                    collisions: 1,
                    delivered: 3,
                    bits_delivered: 300,
                    bits_transmitted: 400,
                }],
            }),
        }
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let key = sample_key(42);
        let result = sample_result();
        let line = record_to_line(&key, &result);
        let (key2, result2) = record_from_line(&line).expect("line parses");
        assert_eq!(key, key2);
        // `scenario` is call-local and reset on read; everything else is
        // bit-identical (PartialEq on f64 fields is exact).
        let mut expect = result.clone();
        expect.scenario = 0;
        assert_eq!(expect, result2);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wilis_store_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut store = ResultStore::at_path(&path);
            store.insert(sample_key(1), sample_result());
            store.insert(sample_key(2), sample_result());
        }
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{{not json"))
            .expect("append corrupt line");
        let reloaded = ResultStore::at_path(&path);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.counters().loaded, 2);
        assert_eq!(reloaded.counters().skipped, 1);
        assert!(reloaded.get(&sample_key(1)).is_some());
        assert!(reloaded.get(&sample_key(3)).is_none());
        let _ = std::fs::remove_file(&path);
    }
}
