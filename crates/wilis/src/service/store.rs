//! The memoized result store: a typed key over the full scenario
//! coordinate, an in-memory map, and an optional JSON-lines disk store
//! so repeated grid points are served from cache across calls *and*
//! across processes.
//!
//! # Disk format (`WILIS_STORE`)
//!
//! One record per line, members in one fixed order, no whitespace
//! (wrapped here):
//!
//! ```text
//! {"v":2,"epochs":{"channel":2,"phy":1,"fec":1,"mac":1,"engine":1},
//!  "key":{"rate_index":0,"decoder":"viterbi","channel":"awgn","link":"none",
//!   "contention":"p2p","nodes":1,"snr_bits":…,"seed":…,"packets":1,"payload_bits":64},
//!  "result":{"packets":1,"packet_errors":0,"bits":64,"bit_errors":0,
//!   "bin_count":64,"hint_bins":[[0,64,0]],"predicted_pber_sum":0}}
//! ```
//!
//! Every `f64` is stored as the `u64` bit pattern of its IEEE-754
//! encoding, so warm results are **bit-equal** to cold ones and the
//! service keeps the engine's bit-identity contract across any cold/warm
//! split. Hint bins are sparse: the bin count, then the non-zero bins as
//! `[index, bits, errors]` triples. Members at an empty default are
//! omitted (empty parameter sets, a false `record_packet_stats`, absent
//! stopping rule, packet stats, link and cell metrics), and so is the
//! result's `label` when it equals the [`Scenario::label`] of its key.
//! Records are encoded straight into one reused `String` and parsed
//! straight into a [`StoreKey`] and a [`ScenarioResult`]: no value tree.
//! The codec allocates nothing per record: the label comparison writes
//! the key's label into a reused buffer, integers go through a digit
//! writer, and a decoded record allocates only the values it owns.
//!
//! # Group commit
//!
//! The store is append-only, and its commit is its one write: every byte
//! written after the load goes out through the commit's single
//! `write_all`. [`ResultStore::insert`] stages one record and commits it
//! at once; the service instead stages each record of a finished worker
//! job and commits them together. Staging decides everything per record,
//! exactly as a lone append would: the torn-tail repair newline, the
//! content-addressed torn and corrupt injections, and the injected
//! append attempts (a record whose every attempt fails is left out and
//! counted as an IO error). So the file holds the bytes a run of lone
//! appends would have written, and a crash inside a commit costs at most
//! that commit's records. The commit retries organic write errors under
//! the same budget.
//!
//! # Result epochs
//!
//! `epochs` is the [`RESULT_EPOCHS`] table a record was computed under;
//! a change that moves result bits bumps the epoch of the layer it
//! touches. At load, each line counts as exactly one of:
//!
//! - **loaded** — a whole version-2 record of the current epochs;
//! - **stale** — a whole version-2 record of other epochs, or any
//!   version-1 record. Never served, and counted in
//!   [`StoreCounters::stale`] at every load: the line stays in the file
//!   until the file is deleted, which reclaims it;
//! - **skipped** — anything else (torn, corrupt or foreign lines, and
//!   lines that are not UTF-8, as a torn write can leave). Never fatal: a
//!   store file is a cache, not a database.
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
//! - the file is never rewritten, only appended to, so no crash can cost
//!   a record an earlier commit wrote. A point stored twice (a lone
//!   insert of a key already on disk) leaves two lines, and the later
//!   one wins at load.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use wilis_lis::registry::Params;
use wilis_mac::cell::{CellMetrics, NodeCellMetrics};
use wilis_mac::link::LinkMetrics;
use wilis_phy::PhyRate;
use wilis_softphy::HintBin;

use super::json::{self, Cursor};
use crate::faults::{occurrence_of, FaultInjector, FaultSite};
use crate::scenario::{
    write_label, HintBins, LabelParts, PacketStat, Scenario, ScenarioResult, StopMetric,
    StoppingRule,
};

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
///
/// The field order is the comparison order: the derived `Ord` compares
/// fields as they are declared. `seed` leads, then `snr_bits` and the
/// other scalars, and the names and parameter maps come last, because a
/// sweep's points mostly differ in their seed and SNR and share every
/// name: a store lookup then settles on one integer compare instead of
/// walking four strings and three maps first. The disk record lists its
/// members by name in its own fixed order, so this order moves no byte.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey {
    /// Scenario seed.
    pub seed: u64,
    /// Operating SNR as IEEE-754 bits.
    pub snr_bits: u64,
    /// Index of the rate in [`PhyRate::all`] — a stable small integer.
    pub rate_index: u8,
    /// Packet (or slot) budget.
    pub packets: u32,
    /// Payload bits per packet.
    pub payload_bits: u64,
    /// Cell node count.
    pub nodes: u32,
    /// Whether per-packet scatter stats were recorded into the result.
    pub record_packet_stats: bool,
    /// The stopping rule in force, if any.
    pub stopping: Option<StoppingKey>,
    /// Decoder registry name.
    pub decoder: String,
    /// Channel registry name.
    pub channel: String,
    /// Link-policy registry name.
    pub link: String,
    /// Contention-policy registry name.
    pub contention: String,
    /// Channel parameters.
    pub channel_params: Params,
    /// Link-policy parameters.
    pub link_params: Params,
    /// Contention parameters.
    pub contention_params: Params,
}

impl StoreKey {
    /// The key of `sc` under the given runner configuration.
    pub fn new(sc: &Scenario, record_packet_stats: bool, stopping: Option<StoppingRule>) -> Self {
        // Every field named, no `..`: a field added to `Scenario` fails
        // to compile here until the key covers it, so two points that
        // differ only in that field can never share one record.
        let Scenario {
            rate,
            decoder,
            channel,
            channel_params,
            link,
            link_params,
            contention,
            contention_params,
            nodes,
            snr_db,
            seed,
            packets,
            payload_bits,
        } = sc;
        Self {
            seed: *seed,
            snr_bits: snr_db.to_bits(),
            rate_index: rate_index(*rate),
            packets: *packets,
            payload_bits: *payload_bits as u64,
            nodes: *nodes,
            record_packet_stats,
            stopping: stopping.map(StoppingKey::from),
            decoder: decoder.clone(),
            channel: channel.clone(),
            link: link.clone(),
            contention: contention.clone(),
            channel_params: channel_params.clone(),
            link_params: link_params.clone(),
            contention_params: contention_params.clone(),
        }
    }

    /// Appends the label [`Scenario::label`] gives the point this key
    /// names; `None` for a key no scenario has (a corrupt rate index).
    fn write_label(&self, out: &mut String) -> Option<()> {
        let parts = LabelParts {
            rate: *PhyRate::all().get(usize::from(self.rate_index))?,
            decoder: &self.decoder,
            channel: &self.channel,
            link: &self.link,
            contention: &self.contention,
            nodes: self.nodes,
            snr_db: f64::from_bits(self.snr_bits),
            seed: self.seed,
        };
        write_label(out, &parts);
        Some(())
    }
}

fn rate_index(rate: PhyRate) -> u8 {
    PhyRate::all()
        .iter()
        .position(|&r| r == rate)
        .expect("PhyRate::all() contains every variant") as u8 // lint: allow(panic-policy) — all() enumerates the whole enum
}

/// The result epoch of each engine layer: the version of the semantics
/// that layer's results were computed under. A change that moves any
/// result bit bumps the epoch of the layer it touches, and every stored
/// record of an older epoch turns stale (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ResultEpochs {
    /// Channel models and their PRNG streams.
    channel: u32,
    /// Transmitter, OFDM front end, mapping and demapping.
    phy: u32,
    /// Decoders and their soft outputs.
    fec: u32,
    /// Link and contention policies.
    mac: u32,
    /// The packet loop, fusion, stopping and result accounting.
    engine: u32,
}

/// The epochs of the engine as built: what every record is written under
/// and the only epochs the store serves.
const RESULT_EPOCHS: ResultEpochs = ResultEpochs {
    // 2: fading gains come from the phasor-recurrence stream, which moves
    // channel samples off anchor indices at the 1e-15 level.
    channel: 2,
    phy: 1,
    fec: 1,
    mac: 1,
    engine: 1,
};

impl Default for ResultEpochs {
    fn default() -> Self {
        RESULT_EPOCHS
    }
}

/// The format version of a record line. Version-1 records (sorted
/// members, dense hint bins) carry no epochs and are always stale.
const RECORD_VERSION: u64 = 2;

/// A hint is a `u8` in the engine, so real results have at most 256 hint
/// bins; the cap keeps a corrupt record's bin indices from allocating
/// without bound.
const MAX_HINT_BINS: usize = 1 << 16;

/// The codec's reused buffers: encoding a record allocates nothing, and
/// decoding one allocates only the values the decoded record owns.
#[derive(Debug, Default)]
struct Scratch {
    /// One encoded record.
    line: String,
    /// The label a key determines, compared against a result's label.
    label: String,
    /// A decoded record's hint bins, up to its last listed bin.
    bins: Vec<HintBin>,
}

/// A value with one encoding in a record line, written straight into the
/// line and read straight back by a [`Cursor`].
trait Member: Sized + PartialEq {
    fn put(&self, out: &mut String);
    fn read(c: &mut Cursor) -> Option<Self>;
    /// The empty default a member is omitted at, if it has one; `None`
    /// where a member is always written.
    fn empty() -> Option<Self> {
        None
    }
}

fn put_member<T: Member>(out: &mut String, name: &str, value: &T) {
    if T::empty().as_ref() != Some(value) {
        json::put_name(out, name);
        value.put(out);
    }
}

fn read_member<T: Member>(c: &mut Cursor, name: &str) -> Option<T> {
    if c.has(name) {
        T::read(c)
    } else {
        T::empty()
    }
}

/// Implements [`Member`] for the value types, one row each: the type and
/// its generic parameters, if any, how a value `v` is put, how it is read back,
/// and the empty default it is omitted at, if any. Narrow integers are
/// range-checked on read, a float travels as its IEEE-754 bit pattern so
/// it reads back bit-equal, and parameters are `[name, value]` pairs.
macro_rules! encodings {
    ($($ty:ty $(where [$($gen:tt)*])?: |$v:ident, $out:ident| $put:expr, |$c:ident| $read:expr
        $(, empty $empty:expr)?;)*) => {$(
        impl<$($($gen)*)?> Member for $ty {
            fn put(&self, $out: &mut String) {
                let $v = self;
                $put;
            }
            fn read($c: &mut Cursor) -> Option<Self> {
                $read
            }
            $(fn empty() -> Option<Self> {
                Some($empty)
            })?
        }
    )*};
}

encodings! {
    u8: |v, out| json::put_u64(out, u64::from(*v)), |c| c.u64()?.try_into().ok();
    u32: |v, out| json::put_u64(out, u64::from(*v)), |c| c.u64()?.try_into().ok();
    u64: |v, out| json::put_u64(out, *v), |c| c.u64();
    f64: |v, out| json::put_u64(out, v.to_bits()), |c| c.u64().map(f64::from_bits);
    String: |v, out| json::put_str(out, v), |c| c.string();
    bool: |v, out| out.push_str(if *v { "true" } else { "false" }),
        |c| c.lit("true").map(|()| true), empty false;
    StopMetric: |v, out| json::put_str(out, if *v == StopMetric::Ber { "ber" } else { "per" }),
        |c| match c.string()?.as_str() {
            "ber" => Some(StopMetric::Ber),
            "per" => Some(StopMetric::Per),
            _ => None,
        };
    Params: |v, out| json::put_list(out, v.iter(), |out, (k, v)| {
            json::put_list(out, [k, v], json::put_str);
        }),
        |c| {
            let mut p = Params::new();
            c.list(|c| {
                c.lit("[")?;
                let k = c.string()?;
                c.lit(",")?;
                p.set(&k, &c.string()?);
                c.lit("]")
            })?;
            Some(p)
        }, empty Params::new();
    Option<T> where [T: Member]: |v, out| if let Some(v) = v { v.put(out) },
        |c| T::read(c).map(Some), empty None;
    Vec<T> where [T: Member]: |v, out| json::put_list(out, v, |out, v| v.put(out)),
        |c| {
            let mut items = Vec::new();
            c.list(|c| T::read(c).map(|v| items.push(v)))?;
            Some(items)
        }, empty Vec::new();
    [u64; N] where [const N: usize]: |v, out| json::put_list(out, v, |out, &n| json::put_u64(out, n)),
        |c| {
            let (mut values, mut n) = ([0; N], 0);
            c.list(|c| {
                *values.get_mut(n)? = c.u64()?;
                n += 1;
                Some(())
            })?;
            (n == N).then_some(values)
        };
}

/// Implements [`Member`] for each struct as an object of the listed
/// fields, each named after its field, in the listed order — the one
/// field order the writer and the reader share. The struct literal in
/// `read` names every field, so a field added to one of these types
/// fails to compile until it is listed here.
macro_rules! object {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Member for $ty {
            fn put(&self, out: &mut String) {
                out.push('{');
                $(put_member(out, stringify!($field), &self.$field);)*
                out.push('}');
            }
            fn read(c: &mut Cursor) -> Option<Self> {
                c.lit("{")?;
                let value = Self { $($field: read_member(c, stringify!($field))?,)* };
                c.lit("}")?;
                Some(value)
            }
        }
    )*};
}

object! {
    ResultEpochs { channel, phy, fec, mac, engine }
    StoppingKey { metric, target_bits, z_bits, chunk_packets }
    StoreKey {
        rate_index, decoder, channel, channel_params, link, link_params, contention,
        contention_params, nodes, snr_bits, seed, packets, payload_bits, record_packet_stats,
        stopping,
    }
    PacketStat { predicted, actual }
    LinkMetrics {
        packets, delivered, gave_up, bits_delivered, bits_transmitted, bits_retransmitted,
        under, accurate, over, selected_mbps_sum, recovered, attempts_hist, effective_rate_sum,
    }
    NodeCellMetrics { attempts, collisions, delivered, bits_delivered, bits_transmitted }
    CellMetrics {
        nodes, slots, payload_bits, idle_slots, clean_slots, capture_slots, collision_slots,
        per_node,
    }
}

/// The result object. `label` is written only when it differs from the
/// label `key` determines (written into `label`, a reused buffer), and
/// hint bins go as their count plus the non-zero bins as
/// `[index, bits, errors]` triples.
fn put_result(out: &mut String, label: &mut String, key: &StoreKey, r: &ScenarioResult) {
    out.push('{');
    label.clear();
    if key.write_label(label).is_none() || *label != r.label {
        put_member(out, "label", &r.label);
    }
    put_member(out, "packets", &r.packets);
    put_member(out, "packet_errors", &r.packet_errors);
    put_member(out, "bits", &r.bits);
    put_member(out, "bit_errors", &r.bit_errors);
    put_member(out, "bin_count", &(r.hint_bins.len() as u64));
    json::put_name(out, "hint_bins");
    let bins = r
        .hint_bins
        .prefix()
        .iter()
        .enumerate()
        .filter(|(_, b)| **b != HintBin::default());
    json::put_list(out, bins, |out, (i, b)| {
        [i as u64, b.bits, b.errors].put(out)
    });
    put_member(out, "predicted_pber_sum", &r.predicted_pber_sum);
    put_member(out, "packet_stats", &r.packet_stats);
    put_member(out, "link", &r.link);
    put_member(out, "cell", &r.cell);
    out.push('}');
}

fn read_result(c: &mut Cursor, scratch: &mut Scratch, key: &StoreKey) -> Option<ScenarioResult> {
    c.lit("{")?;
    let label = if c.has("label") {
        let mut label = c.string()?;
        label.shrink_to_fit();
        label
    } else {
        scratch.label.clear();
        key.write_label(&mut scratch.label)?;
        scratch.label.as_str().to_owned()
    };
    let result = ScenarioResult {
        // The submission index is call-local, not part of the point's
        // identity; the service rewrites it on every hit.
        scenario: 0,
        label,
        packets: read_member(c, "packets")?,
        packet_errors: read_member(c, "packet_errors")?,
        bits: read_member(c, "bits")?,
        bit_errors: read_member(c, "bit_errors")?,
        hint_bins: read_hint_bins(c, &mut scratch.bins)?,
        predicted_pber_sum: read_member(c, "predicted_pber_sum")?,
        packet_stats: read_member(c, "packet_stats")?,
        link: read_member(c, "link")?,
        cell: read_member(c, "cell")?,
    };
    c.lit("}")?;
    Some(result)
}

/// Reads the bin count and the sparse bins, collecting the bins up to
/// the last listed one in `bins`.
fn read_hint_bins(c: &mut Cursor, bins: &mut Vec<HintBin>) -> Option<HintBins> {
    let count: u64 = read_member(c, "bin_count")?;
    let count = usize::try_from(count)
        .ok()
        .filter(|&n| n <= MAX_HINT_BINS)?;
    c.name("hint_bins")?;
    // Indices strictly increase, so one result has one encoding.
    bins.clear();
    c.list(|c| {
        let [i, bits, errors] = <[u64; 3]>::read(c)?;
        let i = usize::try_from(i)
            .ok()
            .filter(|&i| i >= bins.len() && i < count)?;
        bins.resize(i, HintBin::default());
        bins.push(HintBin { bits, errors });
        Some(())
    })?;
    Some(HintBins::from_prefix(count, bins))
}

/// Appends one record, without a newline, written under `epochs`; `label`
/// is the reused label buffer.
fn write_record(
    out: &mut String,
    label: &mut String,
    epochs: &ResultEpochs,
    key: &StoreKey,
    result: &ScenarioResult,
) {
    out.push('{');
    put_member(out, "v", &RECORD_VERSION);
    put_member(out, "epochs", epochs);
    put_member(out, "key", key);
    json::put_name(out, "result");
    put_result(out, label, key, result);
    out.push('}');
}

/// Parses one record line into the epochs it was written under, its key
/// and its result; `None` for anything but a whole version-2 record.
fn read_record(
    line: &str,
    scratch: &mut Scratch,
) -> Option<(ResultEpochs, StoreKey, ScenarioResult)> {
    let mut c = Cursor::new(line);
    c.lit("{")?;
    (read_member::<u64>(&mut c, "v")? == RECORD_VERSION).then_some(())?;
    let epochs = read_member(&mut c, "epochs")?;
    let key = read_member(&mut c, "key")?;
    c.name("result")?;
    let result = read_result(&mut c, scratch, &key)?;
    c.lit("}")?;
    c.done()?;
    Some((epochs, key, result))
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
    /// Records skipped while loading because they were computed under
    /// other result epochs (see the module docs), version-1 records
    /// included.
    pub stale: u64,
    /// IO failures absorbed after the retry budget (load or commit).
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
}

/// The memoized result map, optionally mirrored to a JSON-lines file.
///
/// [`ResultStore::insert`] appends one line through a file handle the
/// store keeps open. The service group-commits instead: it stages each
/// record of a finished job and writes them all in one `write_all`.
/// The file is only ever appended to. Loads replay it (later records
/// win, so an interrupted append at worst loses its own records). IO
/// failures are counted, never fatal — a broken disk degrades the store
/// to in-memory. See the module docs for the crash-safety behavior;
/// every load and degradation event is counted in [`StoreCounters`].
#[derive(Debug, Default)]
pub struct ResultStore {
    map: BTreeMap<StoreKey, ScenarioResult>,
    path: Option<PathBuf>,
    faults: Option<FaultInjector>,
    bytes_on_disk: u64,
    tail_torn: bool,
    counters: StoreCounters,
    /// The epochs records are written under and served from.
    epochs: ResultEpochs,
    /// The append handle: opened by a commit, dropped by a failed write.
    file: Option<File>,
    /// The staged records' bytes, written by the next commit; the buffer
    /// is reused across commits.
    pending: Vec<u8>,
    /// Whether the file ends torn once `pending` is written.
    pending_torn: bool,
    /// The codec's reused buffers.
    scratch: Scratch,
}

impl ResultStore {
    /// A purely in-memory store.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A store mirrored at `path`: existing records are loaded now and
    /// every insert appends a line. A missing file is an empty store; an
    /// unreadable one counts an IO error and starts empty. Fault-free —
    /// see [`ResultStore::at_path_with`] for the injector.
    pub fn at_path(path: impl Into<PathBuf>) -> Self {
        Self::at_path_with(path, None)
    }

    /// A mirrored store with an optional [`FaultInjector`] consulted at
    /// every store fault site. The load itself runs under the bounded
    /// retry policy ([`STORE_ATTEMPTS`]); a file whose final line is torn
    /// (no trailing newline) loads every healthy record and arms the tail
    /// repair for the next append.
    pub fn at_path_with(path: impl Into<PathBuf>, faults: Option<FaultInjector>) -> Self {
        Self::load(path.into(), faults, RESULT_EPOCHS)
    }

    /// [`ResultStore::at_path_with`] serving only records written under
    /// `epochs`.
    fn load(path: PathBuf, faults: Option<FaultInjector>, epochs: ResultEpochs) -> Self {
        let mut store = Self {
            path: Some(path.clone()),
            faults,
            epochs,
            ..Self::default()
        };
        let bytes = store
            .attempt(Some(FaultSite::StoreRead), |_| match std::fs::read(&path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
                read => read,
            })
            .unwrap_or_default();
        store.bytes_on_disk = bytes.len() as u64;
        store.tail_torn = !bytes.is_empty() && !bytes.ends_with(b"\n");
        // Line by line: a torn write can end inside a multi-byte
        // character, and that line alone is skipped.
        for line in bytes.split(|&b| b == b'\n') {
            let Ok(line) = std::str::from_utf8(line) else {
                store.counters.skipped += 1;
                continue;
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match read_record(line, &mut store.scratch) {
                Some((written, key, result)) if written == epochs => {
                    store.map.insert(key, result);
                    store.counters.loaded += 1;
                }
                Some(_) => store.counters.stale += 1,
                // Version 1 sorted members: a whole record opens with its
                // key and closes with its version tag.
                None if line.starts_with("{\"key\":{") && line.ends_with(",\"v\":1}") => {
                    store.counters.stale += 1;
                }
                None => store.counters.skipped += 1,
            }
        }
        store
    }

    /// The mirrored file path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Installs (or clears) the fault injector consulted at the store's
    /// fault sites. Loads already performed are unaffected.
    pub fn set_faults(&mut self, faults: Option<FaultInjector>) {
        self.faults = faults;
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
        self.map.get(key)
    }

    /// Inserts (and, when mirrored, appends) one result.
    pub fn insert(&mut self, key: StoreKey, result: ScenarioResult) {
        self.stage(key, result);
        self.commit();
    }

    /// Inserts one result and, when mirrored, stages its record for the
    /// next [`ResultStore::commit`]. The record is served at once; it
    /// reaches the disk with the commit.
    pub(crate) fn stage(&mut self, key: StoreKey, result: ScenarioResult) {
        if self.path.is_some() {
            self.stage_record(&key, &result);
        }
        self.map.insert(key, result);
    }

    /// Encodes one record into the staged bytes under the fault plan:
    /// the torn-tail repair newline when the bytes before it end torn,
    /// the record and its terminator. Torn and corrupt injections are
    /// content-addressed (the occurrence index is the record bytes'
    /// [`occurrence_of`] hash), so the decision never depends on
    /// completion order or on which records share a commit. A record
    /// whose every injected append attempt fails is dropped from the
    /// commit and counted as an IO error.
    fn stage_record(&mut self, key: &StoreKey, result: &ScenarioResult) {
        let Scratch { line, label, .. } = &mut self.scratch;
        line.clear();
        write_record(line, label, &self.epochs, key, result);
        let occ = occurrence_of(line.as_bytes());
        let fires = |site| matches!(&self.faults, Some(f) if f.fires(site, occ));
        let (corrupt, torn) = (fires(FaultSite::CorruptRecord), fires(FaultSite::TornWrite));
        self.counters.corrupt_records += u64::from(corrupt);
        self.counters.torn_writes += u64::from(torn);
        if self
            .attempt(Some(FaultSite::StoreWrite), |_| Ok(()))
            .is_none()
        {
            return;
        }
        let pending = &mut self.pending;
        let torn_tail = if pending.is_empty() {
            self.tail_torn
        } else {
            self.pending_torn
        };
        // The repair slot, so this record cannot merge with a torn tail.
        if torn_tail {
            pending.push(b'\n');
        }
        let at = pending.len();
        let record = self.scratch.line.as_bytes();
        if torn {
            // Half the bytes and no terminator: a crash mid-append.
            pending.extend_from_slice(&record[..record.len() / 2]);
        } else {
            pending.extend_from_slice(record);
            pending.push(b'\n');
        }
        if let Some(first) = pending.get_mut(at).filter(|_| corrupt) {
            // Same length, unparsable: the mangled record must be
            // skipped (and counted) at the next load.
            *first = b'!';
        }
        self.pending_torn = torn;
    }

    /// Writes the staged records in one `write_all` under the bounded
    /// retry policy — the store's one write; if every attempt fails they
    /// stay off the disk and count one IO error.
    pub(crate) fn commit(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        if self
            .attempt(None, |store| store.write_out(&pending))
            .is_some()
        {
            self.bytes_on_disk += pending.len() as u64;
            self.tail_torn = self.pending_torn;
        }
        self.pending = pending;
        self.pending.clear();
    }

    /// Runs one store operation under the bounded retry policy: an
    /// attempt fails when `op` does, or by injection when `site` fires at
    /// its attempt index, and after [`STORE_ATTEMPTS`] failed attempts the
    /// store counts an IO error and gives up with `None`.
    fn attempt<T>(
        &mut self,
        site: Option<FaultSite>,
        mut op: impl FnMut(&mut Self) -> std::io::Result<T>,
    ) -> Option<T> {
        for attempt in 0..STORE_ATTEMPTS {
            if attempt > 0 {
                self.counters.retries += 1;
            }
            let injected =
                site.filter(|&site| matches!(&self.faults, Some(f) if f.fires(site, attempt)));
            match injected {
                Some(FaultSite::StoreRead) => self.counters.read_faults += 1,
                Some(_) => self.counters.write_faults += 1,
                None => {
                    if let Ok(value) = op(self) {
                        return Some(value);
                    }
                }
            }
        }
        self.counters.io_errors += 1;
        None
    }

    /// Writes `bytes` through the append handle, opening it first if
    /// needed; a failed write drops the handle, so the next attempt
    /// reopens the file.
    fn write_out(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = match self.file.take() {
            Some(file) => file,
            None => match &self.path {
                Some(path) => OpenOptions::new().create(true).append(true).open(path)?,
                None => return Ok(()),
            },
        };
        file.write_all(bytes)?;
        self.file = Some(file);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_to_line(key: &StoreKey, result: &ScenarioResult) -> String {
        let mut line = String::new();
        write_record(&mut line, &mut String::new(), &RESULT_EPOCHS, key, result);
        line
    }

    fn record_from_line(line: &str) -> Option<(StoreKey, ScenarioResult)> {
        read_record(line, &mut Scratch::default()).map(|(_, key, result)| (key, result))
    }

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
            hint_bins: HintBins::from_dense(&[HintBin { bits: 5, errors: 1 }, HintBin::default()]),
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

    #[test]
    fn records_of_another_epoch_are_stale() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wilis_store_epochs_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::at_path(&path);
        for seed in 0..5 {
            store.insert(sample_key(seed), sample_result());
        }
        drop(store);
        let layers: [fn(&mut ResultEpochs) -> &mut u32; 5] = [
            |e| &mut e.channel,
            |e| &mut e.phy,
            |e| &mut e.fec,
            |e| &mut e.mac,
            |e| &mut e.engine,
        ];
        for layer in layers {
            let mut epochs = RESULT_EPOCHS;
            *layer(&mut epochs) += 1;
            let stale = ResultStore::load(path.clone(), None, epochs);
            let c = stale.counters();
            assert_eq!((c.loaded, c.stale, c.skipped), (0, 5, 0), "{epochs:?}");
            assert!((0..5).all(|seed| stale.get(&sample_key(seed)).is_none()));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A record written before the fading gain stream, under channel
    /// epoch 1: a whole version-2 fading-channel record, byte for byte.
    const CHANNEL_EPOCH_1_RECORD: &str = concat!(
        r#"{"v":2,"epochs":{"channel":1,"phy":1,"fec":1,"mac":1,"engine":1},"#,
        r#""key":{"rate_index":2,"decoder":"viterbi","channel":"fading","link":"none","#,
        r#""contention":"p2p","nodes":1,"snr_bits":4622945017495814144,"seed":7,"#,
        r#""packets":1,"payload_bits":64},"result":{"packets":1,"packet_errors":0,"#,
        r#""bits":64,"bit_errors":0,"bin_count":64,"hint_bins":[[0,64,0]],"#,
        r#""predicted_pber_sum":0}}"#
    );

    #[test]
    fn channel_epoch_1_records_are_stale_and_never_served() {
        let path = std::env::temp_dir().join(format!(
            "wilis_store_channel_epoch_{}.jsonl",
            std::process::id()
        ));
        let (_, key, result) =
            read_record(CHANNEL_EPOCH_1_RECORD, &mut Scratch::default()).expect("a whole record");
        std::fs::write(&path, format!("{CHANNEL_EPOCH_1_RECORD}\n")).expect("write store");
        let store = ResultStore::at_path(&path);
        let c = store.counters();
        assert_eq!((c.loaded, c.stale, c.skipped), (0, 1, 0));
        assert!(
            store.get(&key).is_none(),
            "a channel-epoch-1 record was served"
        );
        drop(store);
        // The epoch alone makes it stale: under the current channel epoch
        // the same line loads and is served.
        let current = format!("\"channel\":{}", RESULT_EPOCHS.channel);
        let line = CHANNEL_EPOCH_1_RECORD.replacen("\"channel\":1", &current, 1);
        std::fs::write(&path, format!("{line}\n")).expect("write store");
        let store = ResultStore::at_path(&path);
        assert_eq!(store.counters().loaded, 1);
        assert_eq!(store.get(&key), Some(&result));
        let _ = std::fs::remove_file(&path);
    }
}
