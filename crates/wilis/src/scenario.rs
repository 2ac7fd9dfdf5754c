//! The batched scenario engine: Monte-Carlo grids over
//! (rate × decoder × channel × link × SNR × seed), executed across a
//! worker pool with chunk-seeded determinism.
//!
//! Every figure of the paper's evaluation is, at bottom, a grid of
//! independent transmit→channel→receive→decode trials. The paper spent
//! 10¹² FPGA bits on Figure 5 alone; this module is the software analog of
//! that throughput story: one [`Scenario`] describes one grid point, a
//! [`SweepGrid`] enumerates a whole grid, and a [`SweepRunner`] executes it
//! across threads — with results **bit-identical for any thread count**,
//! because every packet's randomness is a pure function of its scenario
//! seed and packet index (the same contract
//! [`wilis_channel::parallel::apply_awgn_parallel`] proves at the sample
//! level).
//!
//! The hot path is allocation-free in the steady state: each job owns
//! its [`PhyScratch`](wilis_phy::PhyScratch)es and reusable
//! [`RxResult`](wilis_phy::RxResult)s, reused across all of its packets,
//! the decoders reuse their trellis scratch, and channels are
//! seed-addressed [`ChannelModel`]s — so Monte-Carlo depth (packets per
//! point) costs arithmetic, not the allocator. Decoder construction
//! shares one compiled trellis per system
//! ([`WilisSystem::compiled_ieee80211`]), and a rate change re-aims a
//! receive chain in place: neither a rate-adapting point nor the
//! all-rates oracle builds decoder state per rate.
//!
//! Redundant per-packet work is amortized *across* grid points too:
//! scenarios that share `(rate, channel, params, SNR, seed, packets,
//! payload)` and differ only in decoder or in a non-rate-adapting link
//! policy (see [`LinkPolicy::adapts_rate`]) are fused into one
//! shared-channel stream — each packet is built, transmitted, and pushed
//! through the channel **once**, then received and decoded per member.
//! Because every member would have seen the identical realization solo
//! (randomness is a pure function of the scenario seed and packet index),
//! the fused results are bit-identical to the unfused ones, and the
//! determinism contract is untouched. Light streams share a job too:
//! streams of the same rate, payload and stock-decoder member list whose
//! packets fit one lockstep block between them — a seed axis of
//! one-packet points, say — pack into one job, one environment and one
//! batched decode per decoder, each stream keeping its own channel and
//! seeds. Fusion never starves the worker pool: when a grid collapses
//! into fewer jobs than workers, the largest jobs are split until every
//! worker has work.
//!
//! That group loop is the engine's **one packet loop**. A point whose
//! transmission changes after every packet — a rate-adapting policy, a
//! soft-combining HARQ packet open for another attempt — or that is
//! scheduled to panic runs as a stream of one in a job of its own, one
//! packet per block; a contention cell runs its own slot loop but
//! receives and accounts through the same two steps. Before any packet
//! runs, one compile step resolves every name, validates every pairing,
//! probes each link configuration once, resolves each distinct channel
//! and link parameter set once, and partitions the grid into these jobs.
//!
//! Execution is one worker pool behind one job core, shared by the
//! runner and the [`SweepService`](crate::service::SweepService). Jobs
//! are dealt round-robin to scoped workers, every job runs under the
//! supervisor's unwind boundary (a panicking job re-runs each of its
//! points alone, and a point that panics alone is quarantined, not
//! fatal), and each finished job's outcomes travel back over one channel
//! to the calling thread, which files them while the remaining jobs run;
//! one assembler turns the filled slots into a [`SupervisedSweep`].
//!
//! The **link dimension** puts the MAC layer on the grid: a scenario names
//! a [`LinkPolicy`] (resolved through [`link_registry`]; `"none"` keeps
//! the PHY-only behavior) that observes every packet — decisions, SoftPHY
//! hints, the CRC-equivalent ground truth — and accumulates
//! [`LinkMetrics`] per grid point. Rate-adapting policies (SoftRate)
//! steer the transmit rate through their verdicts, and policies that ask
//! for it get the Figure 7 oracle: the packet replayed against the
//! identical channel realization, fastest rate first down to the first
//! that decodes error-free, which the seed-addressed [`ChannelModel`]
//! contract provides for free.
//!
//! The **cell dimension** makes the shared medium itself a grid axis: a
//! scenario names a [`ContentionPolicy`] (resolved through
//! [`contention_registry`]; `"p2p"` keeps today's point-to-point
//! behavior) and a node count, and the grid point becomes a *contention
//! cell* — N nodes running independent link sessions over one slotted
//! medium, with carrier sense, collisions, and physical-layer capture
//! ([`wilis_channel::resolve_slot`]). All N nodes execute inside one
//! fused worker job, so the shared realization of every slot is drawn
//! exactly once, and every draw is a pure function of
//! `(scenario seed, node, attempt)` through the same seed-addressed
//! [`ChannelModel`] registry — cell sweeps are bit-identical for any
//! thread count, like everything else on the grid. Cell scenarios
//! accumulate [`CellMetrics`] (aggregate goodput, Jain fairness index,
//! collision and idle fractions) alongside the per-node-merged link
//! metrics, and a 1-node cell is a *strict generalization*: it reproduces
//! the point-to-point path attempt for attempt, bit for bit.
//!
//! # Example
//!
//! ```
//! use wilis::scenario::{SweepGrid, SweepRunner};
//! use wilis::phy::PhyRate;
//!
//! let grid = SweepGrid::new()
//!     .rates(&[PhyRate::QpskHalf])
//!     .decoders(&["viterbi", "bcjr"])
//!     .snrs_db(&[6.0, 8.0])
//!     .packets(2)
//!     .payload_bits(400);
//! let results = SweepRunner::new(2).run(&grid.scenarios()).unwrap();
//! assert_eq!(results.len(), 4);
//! // Same grid, different thread count: bit-identical results.
//! let serial = SweepRunner::new(1).run(&grid.scenarios()).unwrap();
//! assert_eq!(results, serial);
//! ```

use std::sync::{mpsc, Arc};

use wilis_channel::{AwgnModel, ChannelModel, FadingModel, ReplayModel, SnrDb, TraceModel};
use wilis_lis::registry::{Params, Registry, RegistryError};
use wilis_mac::cell::{CellMetrics, ContentionPolicy, CsmaBackoff, SlottedAloha, TdmaOracle};
use wilis_mac::link::{LinkMetrics, LinkPolicy};
use wilis_mac::ppr::PprConfig;
use wilis_mac::{HarqConfig, HarqLink, PprLink, SoftRate, SoftRateLink};
use wilis_phy::PhyRate;
use wilis_softphy::HintBin;

use crate::faults::{FaultInjector, FaultReport, FaultSite, PointOutcome, Quarantine};
use crate::supervisor;
use crate::WilisSystem;

mod cell;
mod engine;
mod plan;
mod render;
mod stopping;

use cell::run_cell;
use engine::run_group;
use plan::{Job, SweepPlan};
pub use render::{render_cell_table, render_link_table, render_table};
pub use stopping::{StopMetric, StoppingRule};

/// A factory slot for seed-addressed channel models.
pub type ChannelSlot = Registry<Box<dyn ChannelModel>>;

/// A factory slot for link-layer policies.
pub type LinkSlot = Registry<Box<dyn LinkPolicy>>;

/// A factory slot for cell contention policies.
pub type ContentionSlot = Registry<Box<dyn ContentionPolicy>>;

/// The stock channel registry: `"awgn"` (param: `snr_db`), `"fading"`
/// (params: `snr_db`, `doppler_hz`), `"replay"` (params: `snr_db`,
/// `doppler_hz`, `base_seed`), and `"trace"` (params: `snr_db`,
/// `doppler_hz`, `base_seed`, `gap_secs`) — the time-coherent fading walk
/// protocol experiments like Figure 7 run on.
pub fn channel_registry() -> ChannelSlot {
    let mut reg: ChannelSlot = Registry::new("channel");
    reg.register("awgn", |p| {
        let snr = SnrDb::new(p.get_f64("snr_db").unwrap_or(10.0));
        Box::new(AwgnModel::new(snr))
    });
    reg.register("fading", |p| {
        let snr = SnrDb::new(p.get_f64("snr_db").unwrap_or(10.0));
        let doppler = p.get_f64("doppler_hz").unwrap_or(20.0);
        Box::new(FadingModel::new(snr, doppler))
    });
    reg.register("replay", |p| {
        let snr = SnrDb::new(p.get_f64("snr_db").unwrap_or(10.0));
        let doppler = p.get_f64("doppler_hz").unwrap_or(20.0);
        let base = p.get_u64("base_seed").unwrap_or(0xF17);
        Box::new(ReplayModel::new(snr, doppler, base))
    });
    reg.register("trace", |p| {
        let snr = SnrDb::new(p.get_f64("snr_db").unwrap_or(10.0));
        let doppler = p.get_f64("doppler_hz").unwrap_or(20.0);
        let base = p.get_u64("base_seed").unwrap_or(0xF17);
        let gap = p.get_f64("gap_secs").unwrap_or(0.5e-3);
        Box::new(TraceModel::new(snr, doppler, base, gap))
    });
    reg
}

/// The rate a link policy starts at, resolved from the engine-filled
/// `initial_rate_mbps` parameter (QAM-16 1/2 when absent or unknown).
fn link_param_initial_rate(p: &Params) -> PhyRate {
    p.get_f64("initial_rate_mbps")
        .and_then(|m| PhyRate::all().iter().copied().find(|r| r.mbps() == m))
        .unwrap_or(PhyRate::Qam16Half)
}

/// The stock link-policy registry, mirroring [`channel_registry`]:
///
/// * `"arq"` — whole-packet stop-and-wait ARQ (param: `max_retries`): a
///   [`HarqLink`] with `max_retries + 1` attempts and its combiner
///   disarmed,
/// * `"harq-cc"` — HARQ with Chase combining (params: `attempts`, the
///   total transmission budget per packet, and `combining` to disarm the
///   combiner — disarmed it is the policy `"arq"` builds, with
///   `attempts - 1` retries),
/// * `"harq-ir"` — HARQ with incremental redundancy (params: `attempts`,
///   `combining`, and `ir_phases`, a comma-separated puncture-phase
///   schedule that must start at 0; defaults to the rate's
///   fastest-covering schedule),
/// * `"ppr"` — partial packet recovery (params: `chunk_bits`,
///   `hint_threshold`),
/// * `"softrate"` — PBER-threshold rate adaptation (params: `pber_lo` /
///   `pber_hi` to override the packet-size-derived band, `oracle` to
///   toggle the per-packet all-rates replay behind the Figure 7 tallies).
///
/// The engine fills in `payload_bits` and `initial_rate_mbps` from the
/// scenario at run time, exactly as it fills `snr_db` for channels. The
/// name `"none"` is reserved: it never reaches the registry and keeps a
/// scenario PHY-only.
///
/// Factories are infallible, so the HARQ factories never reject a bad
/// configuration themselves: [`HarqLink`] stores the problem and the
/// runner's preflight surfaces it as
/// [`RegistryError::invalid_config`] through
/// [`LinkPolicy::config_error`].
pub fn link_registry() -> LinkSlot {
    let mut reg: LinkSlot = Registry::new("link");
    reg.register("arq", |p| {
        let bits = p.get_u64("payload_bits").unwrap_or(1704).max(1);
        let retries = p.get_u64("max_retries").unwrap_or(4) as u32;
        let rate = link_param_initial_rate(p).code_rate();
        let config = HarqConfig::chase(retries.saturating_add(1)).with_combining(false);
        Box::new(HarqLink::new(bits, config, rate))
    });
    reg.register("harq-cc", |p| {
        let bits = p.get_u64("payload_bits").unwrap_or(1704);
        let attempts = p.get_u64("attempts").unwrap_or(4) as u32;
        let combining = p.get_bool("combining").unwrap_or(true);
        let rate = link_param_initial_rate(p).code_rate();
        let config = HarqConfig::chase(attempts).with_combining(combining);
        Box::new(HarqLink::new(bits, config, rate))
    });
    reg.register("harq-ir", |p| {
        let bits = p.get_u64("payload_bits").unwrap_or(1704);
        let attempts = p.get_u64("attempts").unwrap_or(4) as u32;
        let combining = p.get_bool("combining").unwrap_or(true);
        let rate = link_param_initial_rate(p).code_rate();
        let schedule = match p.get("ir_phases") {
            None => HarqConfig::default_ir_schedule(rate),
            // An unparsable phase becomes usize::MAX — outside every mask
            // period, so validation rejects the schedule instead of the
            // factory panicking on user input.
            Some(s) => s
                .split(',')
                .map(|t| t.trim().parse::<usize>().unwrap_or(usize::MAX))
                .collect(),
        };
        let config = HarqConfig::incremental(attempts, schedule).with_combining(combining);
        Box::new(HarqLink::new(bits, config, rate))
    });
    reg.register("ppr", |p| {
        let chunk = p.get_u64("chunk_bits").unwrap_or(71).max(1) as usize;
        let threshold = p.get_u64("hint_threshold").unwrap_or(8) as u16;
        Box::new(PprLink::new(PprConfig::new(chunk, threshold)))
    });
    reg.register("softrate", |p| {
        let bits = p.get_u64("payload_bits").unwrap_or(1704).max(1) as usize;
        let initial = link_param_initial_rate(p);
        let controller = match (p.get_f64("pber_lo"), p.get_f64("pber_hi")) {
            (Some(lo), Some(hi)) => SoftRate::with_thresholds(initial, lo, hi),
            _ => SoftRate::for_packet_bits(initial, bits),
        };
        let oracle = p.get_bool("oracle").unwrap_or(true);
        Box::new(SoftRateLink::new(controller, oracle))
    });
    reg
}

/// Default capture margin (dB) for contention cells: the strongest of
/// several overlapping arrivals survives iff its SINR clears this.
pub const DEFAULT_CAPTURE_DB: f64 = 10.0;

/// The stock contention-policy registry, third of the family after
/// [`channel_registry`] and [`link_registry`]:
///
/// * `"aloha"` — slotted ALOHA (param: `p`, per-slot transmit probability,
///   default 0.25 — set it near `1/nodes`),
/// * `"csma"` — carrier sense with binary exponential backoff (params:
///   `cw_min` default 2, `cw_max` default 64),
/// * `"tdma"` — the collision-free round-robin oracle (no params).
///
/// Two further parameters are consumed by the cell *engine* rather than
/// the policy factories: `load` (per-node packet-arrival probability per
/// slot; ≥ 1.0 — the default — means saturated queues) and `capture_db`
/// (the capture margin, default [`DEFAULT_CAPTURE_DB`]); the compile step
/// rejects a value of either that is not a finite number, and a negative
/// `load`. The name `"p2p"` is reserved: it never reaches the registry
/// and keeps a scenario point-to-point.
pub fn contention_registry() -> ContentionSlot {
    let mut reg: ContentionSlot = Registry::new("contention");
    reg.register("aloha", |p| {
        // Clamp like the csma factory clamps its windows: registries take
        // user strings, so out-of-range values degrade to the nearest
        // sane configuration instead of panicking mid-run.
        let prob = p
            .get_f64("p")
            .filter(|v| v.is_finite())
            .unwrap_or(0.25)
            .clamp(1e-6, 1.0);
        Box::new(SlottedAloha::new(prob))
    });
    reg.register("csma", |p| {
        let cw_min = p.get_u64("cw_min").unwrap_or(2).clamp(1, 1 << 20) as u32;
        let cw_max = p
            .get_u64("cw_max")
            .unwrap_or(64)
            .clamp(u64::from(cw_min), 1 << 20) as u32;
        Box::new(CsmaBackoff::new(cw_min, cw_max))
    });
    reg.register("tdma", |_| Box::new(TdmaOracle));
    reg
}

/// One point of a (rate × decoder × channel × link × SNR × seed) grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The PHY rate under test (the *initial* rate when a rate-adapting
    /// link policy is in force).
    pub rate: PhyRate,
    /// Decoder implementation name (resolved via [`WilisSystem`]'s
    /// registry: `"viterbi"`, `"sova"`, `"bcjr"`, or a user registration).
    pub decoder: String,
    /// Channel model name (resolved via [`channel_registry`]).
    pub channel: String,
    /// Extra channel parameters (`doppler_hz`, `base_seed`, …); `snr_db`
    /// is filled in from [`Scenario::snr_db`] at run time.
    pub channel_params: Params,
    /// Link policy name (resolved via [`link_registry`]); `"none"` keeps
    /// the scenario PHY-only.
    pub link: String,
    /// Extra link-policy parameters (`max_retries`, `hint_threshold`, …);
    /// `payload_bits` and `initial_rate_mbps` are filled in at run time.
    pub link_params: Params,
    /// Contention policy name (resolved via [`contention_registry`]);
    /// `"p2p"` keeps the scenario point-to-point.
    pub contention: String,
    /// Extra contention parameters (`p`, `cw_min`, plus the engine-level
    /// `load` and `capture_db`).
    pub contention_params: Params,
    /// Contending nodes when this scenario is a cell (`contention !=
    /// "p2p"`); ignored for point-to-point scenarios.
    pub nodes: u32,
    /// Operating SNR in dB.
    pub snr_db: f64,
    /// Scenario seed: all packet payloads and channel realizations derive
    /// from it deterministically.
    pub seed: u64,
    /// Monte-Carlo depth in packets.
    pub packets: u32,
    /// Payload bits per packet.
    pub payload_bits: usize,
}

impl Scenario {
    /// A human-readable grid-point label.
    pub fn label(&self) -> String {
        let mut label = String::new();
        write_label(
            &mut label,
            &LabelParts {
                rate: self.rate,
                decoder: &self.decoder,
                channel: &self.channel,
                link: &self.link,
                contention: &self.contention,
                nodes: self.nodes,
                snr_db: self.snr_db,
                seed: self.seed,
            },
        );
        label
    }
}

/// The coordinates a grid-point label shows: every [`Scenario`] field but
/// the parameter sets, the packet budget and the payload size.
pub(crate) struct LabelParts<'a> {
    pub(crate) rate: PhyRate,
    pub(crate) decoder: &'a str,
    pub(crate) channel: &'a str,
    pub(crate) link: &'a str,
    pub(crate) contention: &'a str,
    pub(crate) nodes: u32,
    pub(crate) snr_db: f64,
    pub(crate) seed: u64,
}

/// Appends the label of the point `parts` names to `out`: the one label
/// writer behind [`Scenario::label`] and the store's label elision, which
/// writes into a reused buffer.
pub(crate) fn write_label(out: &mut String, parts: &LabelParts) {
    use std::fmt::Write as _;
    let rate = parts.rate;
    let _ = write!(out, "{} {} ", rate.modulation(), rate.code_rate());
    out.push_str(parts.decoder);
    out.push(' ');
    out.push_str(parts.channel);
    if parts.link != "none" {
        out.push(' ');
        out.push_str(parts.link);
    }
    if parts.contention != "p2p" {
        let _ = write!(out, " {} x{}", parts.contention, parts.nodes);
    }
    let _ = write!(out, " @{:.2}dB seed{}", parts.snr_db, parts.seed);
}

/// Per-packet coordinates recorded when
/// [`SweepRunner::record_packet_stats`] is on (the Figure 6 scatter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketStat {
    /// PBER predicted from the SoftPHY hints (0 for hard decoders).
    pub predicted: f64,
    /// Ground-truth PBER (bit errors / payload bits).
    pub actual: f64,
}

/// The Monte-Carlo outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Index of the scenario within the submitted grid.
    pub scenario: usize,
    /// The grid-point label (see [`Scenario::label`]).
    pub label: String,
    /// Packets simulated.
    pub packets: u64,
    /// Packets with at least one payload bit error.
    pub packet_errors: u64,
    /// Payload bits simulated.
    pub bits: u64,
    /// Payload bits decoded incorrectly.
    pub bit_errors: u64,
    /// Per-hint statistics, index = hint value (0..=63) — the Figure 5
    /// binning, held compactly (see [`HintBins`]).
    pub hint_bins: HintBins,
    /// Sum of predicted per-packet BERs (mean = `/ packets`); 0 for hard
    /// decoders.
    pub predicted_pber_sum: f64,
    /// Per-packet scatter points, populated only when the runner records
    /// packet stats.
    pub packet_stats: Vec<PacketStat>,
    /// Link-layer metrics accumulated by the scenario's [`LinkPolicy`];
    /// `None` for PHY-only (`link == "none"`) scenarios. For a cell, the
    /// per-node sessions merged.
    pub link: Option<LinkMetrics>,
    /// Shared-medium metrics of a contention cell; `None` for
    /// point-to-point (`contention == "p2p"`) scenarios. For cells, the
    /// PHY-level fields above (`packets`, `bits`, `hint_bins`, …) cover
    /// only the transmissions that survived the medium and reached the
    /// receiver — collided attempts are accounted here.
    pub cell: Option<CellMetrics>,
}

impl ScenarioResult {
    /// Overall payload bit error rate.
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits as f64
        }
    }

    /// Packet error (loss) rate.
    pub fn per(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.packet_errors as f64 / self.packets as f64
        }
    }

    /// Mean predicted per-packet BER across the run.
    pub fn mean_predicted_pber(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.predicted_pber_sum / self.packets as f64
        }
    }
}

/// The per-hint statistics of a result: a dense list of bins indexed by
/// hint value, held compactly. A hard decoder puts every bit in bin 0, so
/// a list whose bins past the first are all empty keeps that one bin (and
/// an all-empty list keeps none); any other list is kept whole. Trimming
/// at the exact last non-empty bin would make a result's size depend on
/// whether some packet reached a rare high hint, so two runs that differ
/// only in packet budget would allocate different bytes. The form is
/// canonical (equal lists compare equal), and [`HintBins::iter`],
/// [`HintBins::get`], [`HintBins::len`] and `Debug` all show the dense
/// list, so a result prints exactly as it did with a dense `Vec`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct HintBins {
    /// The dense list's length.
    len: usize,
    /// A prefix of the dense list past which every bin is empty.
    bins: Box<[HintBin]>,
}

/// The bin every index past the kept prefix holds.
static EMPTY_BIN: HintBin = HintBin { bits: 0, errors: 0 };

impl HintBins {
    /// The compact form of the dense list `dense`.
    pub fn from_dense(dense: &[HintBin]) -> Self {
        Self::from_prefix(dense.len(), dense)
    }

    /// The compact form of a dense list of `len` bins that starts with
    /// `prefix` (no longer than `len`) and is empty past it.
    pub(crate) fn from_prefix(len: usize, prefix: &[HintBin]) -> Self {
        let kept = match prefix.iter().rposition(|b| *b != HintBin::default()) {
            None => 0,
            Some(0) => 1,
            Some(_) => len,
        };
        Self {
            len,
            bins: (0..kept)
                .map(|hint| prefix.get(hint).copied().unwrap_or_default())
                .collect(),
        }
    }

    /// The number of bins in the dense list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the dense list has no bins.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bin `hint`, or `None` past the dense list's end.
    pub fn get(&self, hint: usize) -> Option<&HintBin> {
        match self.bins.get(hint) {
            Some(bin) => Some(bin),
            None => (hint < self.len).then_some(&EMPTY_BIN),
        }
    }

    /// Every bin of the dense list, in hint order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &HintBin> + '_ {
        (0..self.len).map(|hint| self.bins.get(hint).unwrap_or(&EMPTY_BIN))
    }

    /// The dense list.
    pub fn to_vec(&self) -> Vec<HintBin> {
        self.iter().copied().collect()
    }

    /// The kept prefix: every bin past it is empty.
    pub(crate) fn prefix(&self) -> &[HintBin] {
        &self.bins
    }
}

impl std::fmt::Debug for HintBins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A builder enumerating the cartesian product of a sweep's axes.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    rates: Vec<PhyRate>,
    decoders: Vec<String>,
    channels: Vec<String>,
    links: Vec<String>,
    contentions: Vec<String>,
    nodes: u32,
    snrs_db: Vec<f64>,
    seeds: Vec<u64>,
    packets: u32,
    payload_bits: usize,
    channel_params: Params,
    link_params: Params,
    contention_params: Params,
}

impl SweepGrid {
    /// A single-point grid at the paper's Figure 6 operating point
    /// (QAM-16 1/2, BCJR, AWGN, 8 dB, 1704-bit packets); every axis can be
    /// widened from here.
    pub fn new() -> Self {
        Self {
            rates: vec![PhyRate::Qam16Half],
            decoders: vec!["bcjr".to_string()],
            channels: vec!["awgn".to_string()],
            links: vec!["none".to_string()],
            contentions: vec!["p2p".to_string()],
            nodes: 4,
            snrs_db: vec![8.0],
            seeds: vec![1],
            packets: 8,
            payload_bits: 1704,
            channel_params: Params::new(),
            link_params: Params::new(),
            contention_params: Params::new(),
        }
    }

    /// Sets the PHY-rate axis.
    pub fn rates(mut self, rates: &[PhyRate]) -> Self {
        self.rates = rates.to_vec();
        self
    }

    /// Sets the decoder axis (registry names).
    pub fn decoders(mut self, names: &[&str]) -> Self {
        self.decoders = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the channel-model axis (registry names).
    pub fn channels(mut self, names: &[&str]) -> Self {
        self.channels = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the link-policy axis (registry names plus the reserved
    /// `"none"` for PHY-only points).
    pub fn links(mut self, names: &[&str]) -> Self {
        self.links = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the contention axis (registry names plus the reserved
    /// `"p2p"` for point-to-point points). Non-`"p2p"` entries turn the
    /// grid point into an N-node cell — see [`SweepGrid::nodes`].
    pub fn contentions(mut self, names: &[&str]) -> Self {
        self.contentions = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the number of contending nodes for cell grid points.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets the SNR axis in dB.
    pub fn snrs_db(mut self, snrs: &[f64]) -> Self {
        self.snrs_db = snrs.to_vec();
        self
    }

    /// Sets the seed axis (independent Monte-Carlo replicas).
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Sets the Monte-Carlo depth per grid point, in packets.
    pub fn packets(mut self, packets: u32) -> Self {
        self.packets = packets;
        self
    }

    /// Sets the payload size per packet, in bits.
    pub fn payload_bits(mut self, bits: usize) -> Self {
        self.payload_bits = bits;
        self
    }

    /// Sets an extra channel parameter forwarded to the model factory
    /// (e.g. `doppler_hz`).
    pub fn channel_param(mut self, key: &str, value: &str) -> Self {
        self.channel_params.set(key, value);
        self
    }

    /// Sets an extra link-policy parameter forwarded to the policy factory
    /// (e.g. `hint_threshold`); policies ignore keys they do not use.
    pub fn link_param(mut self, key: &str, value: &str) -> Self {
        self.link_params.set(key, value);
        self
    }

    /// Sets an extra contention parameter (`p`, `cw_min`, `load`,
    /// `capture_db`, …); policies and the cell engine ignore keys they do
    /// not use.
    pub fn contention_param(mut self, key: &str, value: &str) -> Self {
        self.contention_params.set(key, value);
        self
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.rates.len()
            * self.decoders.len()
            * self.channels.len()
            * self.links.len()
            * self.contentions.len()
            * self.snrs_db.len()
            * self.seeds.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the grid points (rate-major, seed-minor).
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for &rate in &self.rates {
            for decoder in &self.decoders {
                for channel in &self.channels {
                    for link in &self.links {
                        for contention in &self.contentions {
                            for &snr_db in &self.snrs_db {
                                for &seed in &self.seeds {
                                    out.push(Scenario {
                                        rate,
                                        decoder: decoder.clone(),
                                        channel: channel.clone(),
                                        channel_params: self.channel_params.clone(),
                                        link: link.clone(),
                                        link_params: self.link_params.clone(),
                                        contention: contention.clone(),
                                        contention_params: self.contention_params.clone(),
                                        nodes: self.nodes,
                                        snr_db,
                                        seed,
                                        packets: self.packets,
                                        payload_bits: self.payload_bits,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything a worker needs to execute scenarios: the system (decoder
/// registry) plus the three sweep-axis registries.
pub type SweepEnv = (WilisSystem, ChannelSlot, LinkSlot, ContentionSlot);

type EnvFactory = dyn Fn() -> SweepEnv + Send + Sync;

/// Executes scenario grids across a worker pool.
///
/// Determinism contract: scenario `i` of a grid always produces the same
/// [`ScenarioResult`], regardless of `threads`, because all of its
/// randomness derives from `(scenario.seed, packet index)` and workers
/// never share mutable state. Scenarios are dealt round-robin so long and
/// short points interleave across workers.
#[derive(Clone)]
pub struct SweepRunner {
    threads: usize,
    record_packet_stats: bool,
    stopping: Option<StoppingRule>,
    env: Arc<EnvFactory>,
    faults: Option<FaultInjector>,
}

/// The return value of [`SweepRunner::run_supervised`]: one typed
/// outcome per grid point (in submission order) plus the run's
/// [`FaultReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedSweep {
    /// One outcome per submitted scenario, in submission order.
    pub outcomes: Vec<PointOutcome>,
    /// What the fault layer observed (quarantines, injected panics).
    pub report: FaultReport,
}

impl SupervisedSweep {
    /// The one outcome assembler, the runner's and the service's:
    /// `slots[i]` is grid point `i`'s outcome, an empty slot is an
    /// `InvalidConfig` error, and the report quarantines the `Failed`
    /// outcomes in grid order. The caller counts `injected_panics`.
    pub(crate) fn assemble(
        slots: Vec<Option<PointOutcome>>,
        injected_panics: u64,
    ) -> Result<Self, RegistryError> {
        let outcomes = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.ok_or(i))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|i| RegistryError::invalid_config(format!("grid point {i} got no outcome")))?;
        let quarantined = outcomes
            .iter()
            .enumerate()
            .filter_map(|(point, outcome)| match outcome {
                PointOutcome::Failed { message, .. } => Some(Quarantine {
                    point,
                    message: message.clone(),
                }),
                PointOutcome::Completed(_) => None,
            })
            .collect();
        let report = FaultReport {
            quarantined,
            injected_panics,
            ..FaultReport::default()
        };
        Ok(Self { outcomes, report })
    }

    /// The completed results, paired with their grid indices — the
    /// partial-result view over a faulted run.
    pub fn completed(&self) -> impl Iterator<Item = (usize, &ScenarioResult)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.result().map(|r| (i, r)))
    }

    /// Every result in grid order, or an `InvalidConfig` error naming the
    /// lowest quarantined grid index — the all-or-nothing view behind
    /// [`SweepRunner::run`] and [`crate::service::SweepService::run`].
    pub(crate) fn into_results(self) -> Result<Vec<ScenarioResult>, RegistryError> {
        self.outcomes
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| match outcome {
                PointOutcome::Completed(res) => Ok(res),
                PointOutcome::Failed { message, .. } => Err(RegistryError::invalid_config(
                    format!("grid point {i} was quarantined: {message}"),
                )),
            })
            .collect()
    }
}

impl SweepRunner {
    /// A runner with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        Self {
            threads,
            record_packet_stats: false,
            stopping: None,
            env: Arc::new(|| {
                (
                    WilisSystem::new(),
                    channel_registry(),
                    link_registry(),
                    contention_registry(),
                )
            }),
            faults: None,
        }
    }

    /// A runner sized to the host's available parallelism.
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(threads)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Record per-packet (predicted, actual) PBER pairs in the results —
    /// the Figure 6 scatter data.
    pub fn record_packet_stats(mut self, on: bool) -> Self {
        self.record_packet_stats = on;
        self
    }

    /// Whether per-packet statistics recording is on.
    pub fn records_packet_stats(&self) -> bool {
        self.record_packet_stats
    }

    /// Installs a confidence-driven [`StoppingRule`]: every
    /// point-to-point grid point stops at the first chunk boundary where
    /// the watched interval closes, capped at the scenario's `packets`
    /// budget. `None` restores fixed-budget execution. Contention cells
    /// ignore the rule (their slot budget defines the workload).
    pub fn with_stopping(mut self, rule: Option<StoppingRule>) -> Self {
        self.stopping = rule;
        self
    }

    /// The installed stopping rule, if any.
    pub fn stopping(&self) -> Option<StoppingRule> {
        self.stopping
    }

    /// Installs (or clears) a deterministic [`FaultInjector`]. With an
    /// injector in place, [`FaultSite::WorkerPanic`] decisions are
    /// consulted per grid point (occurrence index = grid index), and a
    /// scheduled point panics inside the supervised unwind boundary —
    /// quarantined, never aborting the rest of the grid. `None` (the
    /// default) disables injection entirely; the zero-fault path is
    /// bit-identical with or without an idle injector.
    pub fn with_faults(mut self, faults: Option<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the environment factory, for sweeps over user decoder,
    /// channel, link-policy, or contention-policy registrations. The
    /// factory runs once for the compile step and once per *job* — a
    /// contention cell, or one or more shared-channel streams of
    /// scenarios that differ only in decoder/link (up to eight light
    /// streams packed together, or a point alone) — plus once per point
    /// a panicking job re-runs alone. Each job is self-contained — that is
    /// what makes the determinism contract trivial — so keep the factory
    /// cheap relative to a job's packets: register implementations inside
    /// it, load big assets outside and share them via `Arc`.
    ///
    /// A decoder registered under a stock name (`"viterbi"`, `"sova"`,
    /// `"bcjr"`) takes the stock decoder's place: the engine shares one of
    /// its instances among every point decoding with it, across packed
    /// streams too, so it must be a pure function of its input, like the
    /// decoder it replaces. Register a stateful decoder under a new name.
    pub fn with_env(mut self, env: impl Fn() -> SweepEnv + Send + Sync + 'static) -> Self {
        self.env = Arc::new(env);
        self
    }

    /// Runs every scenario and returns results in submission order.
    ///
    /// # Errors
    ///
    /// Returns the first [`RegistryError`] of the compile step if a
    /// scenario names an unregistered decoder, channel, link or
    /// contention policy, misconfigures a link policy, pairs a PBER-driven
    /// or soft-combining link policy with a decoder that exports no soft
    /// output, pairs a rate-adapting link policy with a contention cell
    /// (cells pin every node to the scenario rate), puts zero nodes in
    /// a cell, or sets a cell's `load` or `capture_db` to anything but a
    /// finite number (or `load` below 0). The grid compiles *before* any Monte-Carlo work starts, so
    /// a typo in one grid point fails the run in microseconds instead of
    /// after the other points' budgets burn. A quarantined grid point (a
    /// worker-job panic — injected or organic) is reported after the grid
    /// drains, as an `InvalidConfig` error naming the lowest quarantined
    /// grid index; callers that want the partial results instead use
    /// [`SweepRunner::run_supervised`].
    pub fn run(&self, scenarios: &[Scenario]) -> Result<Vec<ScenarioResult>, RegistryError> {
        self.run_supervised(scenarios)?.into_results()
    }

    /// Supervised variant of [`SweepRunner::run`]: every worker job runs
    /// under an unwind boundary, a panicking grid point — injected by
    /// the installed [`FaultInjector`] or organic — is quarantined as
    /// [`PointOutcome::Failed`] while every other point completes, and
    /// the partial results come back with a [`FaultReport`]. With no
    /// faults fired the outcomes are exactly [`SweepRunner::run`]'s
    /// results wrapped in [`PointOutcome::Completed`], bit for bit.
    ///
    /// Determinism extends to failure: equal grids under equal injectors
    /// produce equal outcome vectors and equal reports at any thread
    /// count — an injected panic is keyed by the point's grid index,
    /// never by scheduling, and a job that panics re-runs each of its
    /// points alone, so only a point that panics alone is quarantined,
    /// whatever job the thread count put it in.
    ///
    /// # Errors
    ///
    /// As [`SweepRunner::run`] — configuration errors are still errors;
    /// only panics are quarantined.
    pub fn run_supervised(&self, scenarios: &[Scenario]) -> Result<SupervisedSweep, RegistryError> {
        let points: Vec<&Scenario> = scenarios.iter().collect();
        let mut slots = vec![None; scenarios.len()];
        let mut injected_panics = 0;
        self.run_jobs(&points, |outcomes| {
            for (i, outcome) in outcomes {
                injected_panics += u64::from(outcome.is_failed() && self.panics_at(i));
                slots[i] = Some(outcome);
            }
        })?;
        SupervisedSweep::assemble(slots, injected_panics)
    }

    /// Whether the installed injector schedules a worker panic on point
    /// `i` of the executed grid.
    pub(crate) fn panics_at(&self, i: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.fires(FaultSite::WorkerPanic, i as u64))
    }

    /// The job core, the runner's and the service's: compiles `points`
    /// (read in place), runs the jobs, and calls `on_job` on the calling
    /// thread once per finished job, with the job's `(grid index,
    /// outcome)` pairs in member order, while the remaining jobs run — so
    /// `on_job` needs no `Send` bound, and the service commits a job's
    /// records in one write.
    ///
    /// # Errors
    ///
    /// As [`SweepRunner::run`], minus quarantines (delivered as
    /// [`PointOutcome::Failed`]). An error past the compile step is
    /// returned after the grid drains, the lowest job index's first.
    pub(crate) fn run_jobs<F>(
        &self,
        points: &[&Scenario],
        mut on_job: F,
    ) -> Result<(), RegistryError>
    where
        F: FnMut(std::vec::Drain<'_, (usize, PointOutcome)>),
    {
        if let Some(rule) = self.stopping {
            rule.validate()?;
        }
        // The compile step resolves names against a throwaway
        // environment; every job then builds its own.
        let plan = SweepPlan::compile(points, &(self.env)(), self.faults.as_ref(), self.threads)?;

        // Errors are not delivered to the callback; the one from the
        // lowest job index (first member within it) is kept, so the
        // reported error is a pure function of the scenario list.
        let mut first_err: Option<(usize, RegistryError)> = None;
        // Each point's outcome: its result or error, or the panic message
        // of the job that unwound. The unwind boundary wraps the whole
        // job — environment construction included — so any worker panic
        // becomes a quarantine instead of a pool abort.
        let execute = |job: &Job| {
            let computed = supervisor::run_quarantined(|| {
                let env = (self.env)();
                for i in job.members() {
                    if self.panics_at(i) {
                        supervisor::inject_panic(i);
                    }
                }
                match job {
                    Job::Group(streams) => run_group(
                        &env,
                        &plan,
                        streams,
                        points,
                        self.record_packet_stats,
                        self.stopping,
                    ),
                    Job::Cell(i) => vec![(
                        *i,
                        run_cell(
                            &env,
                            *i,
                            points[*i],
                            &plan.points[*i],
                            self.record_packet_stats,
                        ),
                    )],
                }
            });
            match computed {
                Ok(computed) => computed.into_iter().map(|(i, r)| (i, Ok(r))).collect(),
                Err(message) => job.members().map(|i| (i, Err(message.clone()))).collect(),
            }
        };
        // A job of several points that unwinds re-runs each point alone,
        // each under its own boundary, so only a point that panics alone
        // is quarantined — whatever the job's co-members, and so whatever
        // the thread count's split.
        let run_job = |j: usize| {
            let job = &plan.jobs[j];
            let outcomes: Vec<_> = execute(job);
            if job.members().nth(1).is_some() && outcomes.iter().any(|(_, o)| o.is_err()) {
                return job
                    .members()
                    .flat_map(|i| execute(&Job::Group(vec![vec![i]])))
                    .collect();
            }
            outcomes
        };
        let mut delivered = Vec::new();
        self.fan_out(plan.jobs.len(), run_job, |j, outcomes| {
            for (i, outcome) in outcomes {
                match outcome {
                    Ok(Ok(res)) => delivered.push((i, PointOutcome::Completed(res))),
                    Ok(Err(e)) if first_err.as_ref().map_or(true, |(held, _)| j < *held) => {
                        first_err = Some((j, e));
                    }
                    Ok(Err(_)) => {}
                    Err(message) => delivered.push((i, PointOutcome::Failed { job: i, message })),
                }
            }
            on_job(delivered.drain(..));
        });
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// The worker pool under every run: deals `0..n` round-robin to
    /// scoped workers, exactly like the parallel channel deals chunks, so
    /// work assignment is static. Each worker sends `(i, f(i))` over one
    /// channel and the calling thread drains it into `sink` in completion
    /// order; nothing but delivery order depends on scheduling.
    fn fan_out<T, F>(&self, n: usize, f: F, mut sink: impl FnMut(usize, T))
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = self.threads.min(n.max(1));
        let f = &f;
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for worker in 0..threads {
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in (worker..n).step_by(threads) {
                        // A send fails only when the receiver is gone,
                        // i.e. the calling thread is already unwinding.
                        if tx.send((i, f(i))).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(tx);
            for (i, value) in rx {
                sink(i, value);
            }
        });
    }
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SweepRunner({} threads, packet stats {}, stopping {})",
            self.threads,
            if self.record_packet_stats {
                "on"
            } else {
                "off"
            },
            if self.stopping.is_some() { "on" } else { "off" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        SweepGrid::new()
            .rates(&[PhyRate::QpskHalf, PhyRate::Qam16Half])
            .decoders(&["viterbi", "bcjr"])
            .snrs_db(&[6.0, 10.0])
            .packets(3)
            .payload_bits(300)
    }

    #[test]
    fn grid_enumerates_cartesian_product() {
        let grid = small_grid();
        assert_eq!(grid.len(), 8);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 8);
        // Every grid point is distinct.
        for (i, a) in scenarios.iter().enumerate() {
            for b in &scenarios[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let scenarios = small_grid().scenarios();
        let serial = SweepRunner::new(1).run(&scenarios).unwrap();
        let parallel = SweepRunner::new(4).run(&scenarios).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn high_snr_scenarios_deliver() {
        let scenarios = SweepGrid::new()
            .snrs_db(&[30.0])
            .packets(2)
            .payload_bits(200)
            .scenarios();
        let results = SweepRunner::new(2).run(&scenarios).unwrap();
        assert_eq!(results[0].bit_errors, 0);
        assert_eq!(results[0].per(), 0.0);
    }

    #[test]
    fn unknown_decoder_is_an_error() {
        let scenarios = SweepGrid::new().decoders(&["turbo"]).scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("turbo"));
    }

    #[test]
    fn unknown_channel_is_an_error() {
        let scenarios = SweepGrid::new().channels(&["vacuum"]).scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("vacuum"));
    }

    #[test]
    fn hint_bins_conserve_bits() {
        let scenarios = SweepGrid::new()
            .snrs_db(&[7.0])
            .packets(4)
            .payload_bits(512)
            .scenarios();
        let r = &SweepRunner::new(2).run(&scenarios).unwrap()[0];
        let binned: u64 = r.hint_bins.iter().map(|b| b.bits).sum();
        assert_eq!(binned, r.bits);
    }

    #[test]
    fn packet_stats_recorded_on_demand() {
        let scenarios = SweepGrid::new().packets(3).payload_bits(200).scenarios();
        let without = SweepRunner::new(1).run(&scenarios).unwrap();
        assert!(without[0].packet_stats.is_empty());
        let with = SweepRunner::new(1)
            .record_packet_stats(true)
            .run(&scenarios)
            .unwrap();
        assert_eq!(with[0].packet_stats.len(), 3);
    }

    #[test]
    fn all_channel_models_run() {
        let scenarios = SweepGrid::new()
            .channels(&["awgn", "fading", "replay"])
            .snrs_db(&[12.0])
            .packets(2)
            .payload_bits(200)
            .scenarios();
        let results = SweepRunner::new(3).run(&scenarios).unwrap();
        assert_eq!(results.len(), 3);
        let table = render_table(&results);
        assert!(table.contains("awgn") && table.contains("fading") && table.contains("replay"));
    }

    #[test]
    fn link_registry_stock_names() {
        let reg = link_registry();
        assert_eq!(
            reg.names(),
            vec!["arq", "harq-cc", "harq-ir", "ppr", "softrate"]
        );
        assert!(!reg.contains("none"), "\"none\" never reaches the registry");
    }

    #[test]
    fn unknown_link_is_an_error() {
        let scenarios = SweepGrid::new().links(&["harq"]).scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("harq"));
    }

    #[test]
    fn none_link_stays_phy_only() {
        let scenarios = SweepGrid::new().packets(2).payload_bits(200).scenarios();
        let results = SweepRunner::new(1).run(&scenarios).unwrap();
        assert!(results[0].link.is_none());
        assert!(
            render_link_table(&results).lines().count() == 1,
            "header only"
        );
    }

    #[test]
    fn link_grid_multiplies_the_axes() {
        let grid = SweepGrid::new()
            .links(&["none", "arq", "ppr"])
            .snrs_db(&[6.0, 8.0]);
        assert_eq!(grid.len(), 6);
        let labels: Vec<String> = grid.scenarios().iter().map(|s| s.label()).collect();
        assert!(labels.iter().any(|l| l.contains(" arq ")));
        assert!(labels.iter().any(|l| l.contains(" ppr ")));
    }

    #[test]
    fn arq_link_accounts_every_packet() {
        let scenarios = SweepGrid::new()
            .links(&["arq"])
            .snrs_db(&[7.0])
            .packets(12)
            .payload_bits(400)
            .scenarios();
        let r = &SweepRunner::new(2).run(&scenarios).unwrap()[0];
        let m = r.link.expect("arq metrics");
        assert_eq!(m.packets, 12, "one attempt per simulated packet");
        assert_eq!(m.bits_transmitted, 12 * 400);
        assert!(m.goodput() >= 0.0 && m.goodput() <= 1.0);
        assert!(m.bits_retransmitted <= m.bits_transmitted);
    }

    #[test]
    fn ppr_beats_arq_goodput_in_the_waterfall() {
        // Where packets are lossy but hints are informative, chunked
        // retransmission must beat whole-packet ARQ on goodput.
        let grid = SweepGrid::new()
            .links(&["arq", "ppr"])
            .snrs_db(&[6.0])
            .packets(30)
            .payload_bits(710);
        let results = SweepRunner::new(2).run(&grid.scenarios()).unwrap();
        let arq = results[0].link.expect("arq");
        let ppr = results[1].link.expect("ppr");
        assert!(results[0].per() > 0.1, "needs a lossy operating point");
        assert!(
            ppr.goodput() > arq.goodput(),
            "PPR {:.3} should beat ARQ {:.3}",
            ppr.goodput(),
            arq.goodput()
        );
        assert!(ppr.retransmit_fraction() <= 1.0);
    }

    #[test]
    fn harq_with_hard_decoder_is_rejected() {
        // The combiner feeds soft LLR planes back into the decoder; a
        // hard decoder would throw the retained information away.
        for link in ["harq-cc", "harq-ir"] {
            let scenarios = SweepGrid::new()
                .decoders(&["viterbi"])
                .links(&[link])
                .scenarios();
            let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
            assert!(err.to_string().contains("hard decisions"), "{link}: {err}");
        }
    }

    #[test]
    fn harq_zero_attempt_budget_is_rejected() {
        let scenarios = SweepGrid::new()
            .links(&["harq-cc"])
            .link_param("attempts", "0")
            .scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("attempt budget"), "{err}");
    }

    #[test]
    fn harq_ir_phase_outside_the_mask_is_rejected() {
        // The default grid rate is QAM-16 1/2 whose puncture period is 2,
        // so phase 3 can never be transmitted.
        let scenarios = SweepGrid::new()
            .links(&["harq-ir"])
            .link_param("ir_phases", "0,3")
            .scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
        // An unparsable schedule is rejected the same way, not panicked.
        let scenarios = SweepGrid::new()
            .links(&["harq-ir"])
            .link_param("ir_phases", "0,banana")
            .scenarios();
        assert!(SweepRunner::new(1).run(&scenarios).is_err());
    }

    #[test]
    fn harq_combining_disabled_is_bit_identical_to_arq() {
        // The strict-generalization diagnostic at the Figure 6 operating
        // point (the SweepGrid default): a HARQ policy with the combiner
        // disarmed is exactly ARQ with attempts - 1 retries — same PHY
        // stream, same accounting, bit for bit.
        for snr in [6.0, 8.0] {
            let grid = SweepGrid::new()
                .links(&["arq", "harq-cc"])
                .link_param("max_retries", "3")
                .link_param("attempts", "4")
                .link_param("combining", "false")
                .snrs_db(&[snr])
                .packets(25)
                .payload_bits(710);
            let results = SweepRunner::new(2).run(&grid.scenarios()).unwrap();
            let (a, h) = (&results[0], &results[1]);
            assert_eq!(a.packets, h.packets);
            assert_eq!(a.packet_errors, h.packet_errors);
            assert_eq!(a.bit_errors, h.bit_errors);
            assert_eq!(a.hint_bins, h.hint_bins);
            assert_eq!(a.predicted_pber_sum, h.predicted_pber_sum);
            assert_eq!(a.link, h.link, "identical link accounting at {snr} dB");
        }
    }

    #[test]
    fn harq_cc_goodput_beats_arq_when_lossy() {
        let grid = SweepGrid::new()
            .links(&["arq", "harq-cc"])
            .link_param("max_retries", "3")
            .link_param("attempts", "4")
            .snrs_db(&[6.0])
            .packets(30)
            .payload_bits(710);
        let results = SweepRunner::new(2).run(&grid.scenarios()).unwrap();
        let arq = results[0].link.expect("arq");
        let harq = results[1].link.expect("harq");
        assert!(results[0].per() > 0.1, "needs a lossy operating point");
        assert!(
            harq.goodput() > arq.goodput(),
            "Chase combining {:.3} should beat ARQ {:.3}",
            harq.goodput(),
            arq.goodput()
        );
        assert!(harq.recovered > 0, "some deliveries needed the combiner");
        assert!(harq.mean_attempts() >= 1.0);
    }

    #[test]
    fn harq_ir_lowers_the_effective_rate() {
        // At a punctured rate, IR retransmissions reveal stolen mother
        // bits: the mean effective rate of closed packets must drop below
        // the nominal 3/4 whenever any packet needed a retransmission.
        let grid = SweepGrid::new()
            .rates(&[PhyRate::Qam16ThreeQuarters])
            .links(&["harq-ir"])
            .snrs_db(&[11.0])
            .packets(30)
            .payload_bits(710);
        let r = &SweepRunner::new(2).run(&grid.scenarios()).unwrap()[0];
        let m = r.link.expect("harq-ir metrics");
        assert!(m.mean_attempts() > 1.0, "needs at least one retransmission");
        assert!(
            m.mean_effective_rate() < 0.75,
            "IR must lower the effective rate, got {:.3}",
            m.mean_effective_rate()
        );
        assert!(m.mean_effective_rate() >= 0.5, "mother code is the floor");
    }

    #[test]
    fn harq_cell_observes_every_attempt() {
        // HARQ under collisions: destroyed attempts still reach the
        // combiner (and the link session), so the per-attempt accounting
        // closes exactly over the cell's attempts.
        let scenarios = SweepGrid::new()
            .contentions(&["aloha"])
            .contention_param("p", "0.5")
            .links(&["harq-cc"])
            .nodes(3)
            .snrs_db(&[8.0])
            .packets(40)
            .payload_bits(300)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let c = r.cell.as_ref().expect("cell metrics");
        let m = r.link.expect("merged link metrics");
        assert!(c.attempts() > 0);
        assert_eq!(
            m.packets,
            c.attempts(),
            "every attempt — survivor or destroyed — is observed"
        );
        assert_eq!(
            r.packets,
            c.attempts(),
            "every attempt decodes the combined plane"
        );
        let collided: u64 = c.per_node.iter().map(|n| n.collisions).sum();
        assert!(collided > 0, "three p=0.5 nodes must overlap");
        assert!(
            m.delivered > 0,
            "the cell still delivers through collisions"
        );
    }

    #[test]
    fn softrate_link_adapts_and_tallies() {
        let scenarios = SweepGrid::new()
            .links(&["softrate"])
            .channels(&["trace"])
            .snrs_db(&[10.0])
            .packets(10)
            .payload_bits(400)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let m = r.link.expect("softrate metrics");
        assert_eq!(m.packets, 10);
        assert_eq!(
            m.under + m.accurate + m.over,
            10,
            "oracle judged each packet"
        );
        assert!(m.mean_selected_mbps() >= 6.0 && m.mean_selected_mbps() <= 54.0);
    }

    #[test]
    fn softrate_with_hard_decoder_is_rejected() {
        // Hard Viterbi exports no BER estimator; adapting on a constant
        // 0.0 would be plausible-looking garbage, so the runner refuses.
        let scenarios = SweepGrid::new()
            .decoders(&["viterbi"])
            .links(&["softrate"])
            .scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("no SoftPHY BER estimate"), "{err}");
    }

    #[test]
    fn softrate_without_oracle_skips_the_tallies() {
        let scenarios = SweepGrid::new()
            .links(&["softrate"])
            .link_param("oracle", "false")
            .packets(4)
            .payload_bits(300)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let m = r.link.expect("softrate metrics");
        assert_eq!(m.under + m.accurate + m.over, 0);
        assert_eq!(m.packets, 4);
    }

    #[test]
    fn contention_registry_stock_names() {
        let reg = contention_registry();
        assert_eq!(reg.names(), vec!["aloha", "csma", "tdma"]);
        assert!(!reg.contains("p2p"), "\"p2p\" never reaches the registry");
    }

    #[test]
    fn contention_factories_clamp_bad_params() {
        // Registries take user strings; out-of-range values degrade to
        // the nearest sane configuration instead of panicking mid-run.
        let reg = contention_registry();
        for (key, value) in [("p", "1.5"), ("p", "0"), ("p", "nan")] {
            let mut params = Params::new();
            params.set(key, value);
            let _ = reg.build("aloha", &params).expect("clamped, not panicked");
        }
        let mut params = Params::new();
        params.set("cw_min", "0");
        params.set("cw_max", "0");
        let _ = reg.build("csma", &params).expect("clamped, not panicked");
    }

    #[test]
    fn unknown_contention_is_an_error() {
        let scenarios = SweepGrid::new()
            .contentions(&["token-ring"])
            .packets(2)
            .scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("token-ring"));
    }

    #[test]
    fn cell_grid_multiplies_the_axes_and_labels() {
        let grid = SweepGrid::new()
            .contentions(&["p2p", "csma"])
            .nodes(3)
            .snrs_db(&[6.0, 8.0]);
        assert_eq!(grid.len(), 4);
        let labels: Vec<String> = grid.scenarios().iter().map(|s| s.label()).collect();
        assert!(labels
            .iter()
            .any(|l| l.contains(" csma") && l.contains("x3")));
        assert!(labels.iter().filter(|l| !l.contains("csma")).count() == 2);
    }

    #[test]
    fn p2p_scenarios_have_no_cell_metrics() {
        let scenarios = SweepGrid::new().packets(2).payload_bits(200).scenarios();
        let results = SweepRunner::new(1).run(&scenarios).unwrap();
        assert!(results[0].cell.is_none());
        assert_eq!(
            render_cell_table(&results).lines().count(),
            1,
            "header only"
        );
    }

    #[test]
    fn saturated_tdma_cell_uses_every_slot_cleanly() {
        let scenarios = SweepGrid::new()
            .contentions(&["tdma"])
            .nodes(2)
            .snrs_db(&[30.0])
            .packets(8)
            .payload_bits(200)
            .scenarios();
        let r = &SweepRunner::new(2).run(&scenarios).unwrap()[0];
        let c = r.cell.as_ref().expect("cell metrics");
        assert_eq!(c.slots, 8);
        assert_eq!(c.idle_slots, 0, "saturated TDMA never idles");
        assert_eq!(c.collision_slots, 0, "TDMA never collides");
        assert_eq!(c.clean_slots, 8);
        assert_eq!(c.attempts(), 8);
        // 30 dB: every packet decodes; each node delivered its 4 slots.
        assert!((c.aggregate_goodput() - 1.0).abs() < 1e-12);
        assert!((c.jain_index() - 1.0).abs() < 1e-12);
        assert_eq!(r.packets, 8, "every attempt reached the receiver");
        assert_eq!(r.bit_errors, 0);
    }

    #[test]
    fn cell_slot_accounting_is_conserved() {
        for contention in ["aloha", "csma", "tdma"] {
            let scenarios = SweepGrid::new()
                .contentions(&[contention])
                .nodes(3)
                .snrs_db(&[10.0])
                .packets(20)
                .payload_bits(200)
                .scenarios();
            let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
            let c = r.cell.as_ref().expect("cell metrics");
            assert_eq!(
                c.idle_slots + c.clean_slots + c.capture_slots + c.collision_slots,
                c.slots,
                "{contention}: every slot classified exactly once"
            );
            let collided: u64 = c.per_node.iter().map(|n| n.collisions).sum();
            assert_eq!(
                r.packets + collided,
                c.attempts(),
                "{contention}: attempts = decoded + destroyed"
            );
        }
    }

    #[test]
    fn contending_aloha_nodes_collide_on_awgn() {
        // Equal-power AWGN links cannot capture: any overlap is a full
        // collision — the classic slotted-ALOHA regime.
        let scenarios = SweepGrid::new()
            .contentions(&["aloha"])
            .contention_param("p", "0.5")
            .nodes(4)
            .snrs_db(&[30.0])
            .packets(40)
            .payload_bits(200)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let c = r.cell.as_ref().expect("cell metrics");
        assert!(c.collision_slots > 0, "four p=0.5 nodes must overlap");
        assert_eq!(c.capture_slots, 0, "equal-power arrivals cannot capture");
        assert!(c.aggregate_goodput() < 1.0);
    }

    #[test]
    fn fading_cells_capture() {
        // On fading links, one node in a strong fade-up wins slots the
        // AWGN cell would lose outright.
        let scenarios = SweepGrid::new()
            .contentions(&["aloha"])
            .contention_param("p", "0.6")
            .contention_param("capture_db", "3")
            .channels(&["fading"])
            .nodes(3)
            .snrs_db(&[14.0])
            .packets(60)
            .payload_bits(200)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let c = r.cell.as_ref().expect("cell metrics");
        assert!(
            c.capture_slots > 0,
            "fading links at a 3 dB margin must capture sometimes"
        );
    }

    #[test]
    fn offered_load_controls_idle_fraction() {
        let cell = |load: &str| {
            let scenarios = SweepGrid::new()
                .contentions(&["csma"])
                .contention_param("load", load)
                .nodes(2)
                .snrs_db(&[12.0])
                .packets(50)
                .payload_bits(200)
                .scenarios();
            SweepRunner::new(1).run(&scenarios).unwrap()[0]
                .cell
                .clone()
                .expect("cell metrics")
        };
        let light = cell("0.05");
        let heavy = cell("1.0");
        assert!(
            light.idle_fraction() > heavy.idle_fraction(),
            "light load {:.2} should idle more than saturation {:.2}",
            light.idle_fraction(),
            heavy.idle_fraction()
        );
        // Saturated CSMA still idles a little (every busy slot forces the
        // other node to defer one slot), but the medium must be mostly
        // occupied.
        assert!(
            heavy.idle_fraction() < 0.5,
            "saturation should keep the medium mostly busy, idle {:.2}",
            heavy.idle_fraction()
        );
        assert!(heavy.attempts() > light.attempts());
    }

    #[test]
    fn cell_link_sessions_merge_into_the_result() {
        let scenarios = SweepGrid::new()
            .contentions(&["tdma"])
            .links(&["arq"])
            .nodes(2)
            .snrs_db(&[30.0])
            .packets(6)
            .payload_bits(200)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let m = r.link.expect("merged link metrics");
        assert_eq!(m.packets, 6, "one ARQ attempt per used slot");
        assert_eq!(m.delivered, 6);
        let c = r.cell.as_ref().expect("cell metrics");
        assert_eq!(c.bits_delivered(), 6 * 200);
    }

    #[test]
    fn cells_reject_rate_adapting_link_policies() {
        let scenarios = SweepGrid::new()
            .contentions(&["csma"])
            .links(&["softrate"])
            .scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(
            err.to_string().contains("steers the transmit rate"),
            "{err}"
        );
    }

    #[test]
    fn cells_reject_zero_nodes() {
        let scenarios = SweepGrid::new().contentions(&["csma"]).nodes(0).scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("at least one node"), "{err}");
    }

    #[test]
    fn cells_reject_bad_engine_params_before_any_job_runs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let bad = [
            ("load", "NaN"),
            ("load", "-0.5"),
            ("load", "half"),
            ("load", "inf"),
            ("capture_db", "NaN"),
            ("capture_db", "10 dB"),
        ];
        for (name, value) in bad {
            // The compile step builds one environment; every job builds
            // another. The p2p point 0 reads neither parameter.
            let envs = Arc::new(AtomicUsize::new(0));
            let count = Arc::clone(&envs);
            let runner = SweepRunner::new(1).with_env(move || {
                count.fetch_add(1, Ordering::Relaxed);
                (
                    WilisSystem::new(),
                    channel_registry(),
                    link_registry(),
                    contention_registry(),
                )
            });
            let scenarios = SweepGrid::new()
                .contentions(&["p2p", "aloha"])
                .nodes(2)
                .packets(4)
                .contention_param(name, value)
                .scenarios();
            let err = runner.run(&scenarios).unwrap_err();
            let named = format!("scenario 1 sets contention parameter {name:?} to {value:?}");
            assert!(
                matches!(&err, RegistryError::InvalidConfig { message } if message.contains(&named)),
                "{name}={value}: {err}"
            );
            assert_eq!(envs.load(Ordering::Relaxed), 1, "{name}={value}");
        }
    }

    #[test]
    fn fading_scenarios_lose_more_than_awgn_at_the_waterfall() {
        // Physics check: at the same mean SNR near the QAM-16 waterfall,
        // Rayleigh fading's deep fades must lose more packets than AWGN.
        let grid = SweepGrid::new()
            .channels(&["awgn", "fading"])
            .snrs_db(&[8.0])
            .packets(40)
            .payload_bits(400);
        let results = SweepRunner::auto().run(&grid.scenarios()).unwrap();
        assert!(
            results[1].per() > results[0].per(),
            "fading PER {:.2} should exceed AWGN PER {:.2}",
            results[1].per(),
            results[0].per()
        );
    }

    #[test]
    fn every_channel_build_sees_the_scenario_snr() {
        // Records the `snr_db` each `"awgn"` build receives: the compile
        // probes, the p2p group job and the cell job.
        let seen: Arc<std::sync::Mutex<Vec<Option<f64>>>> = Arc::default();
        let log = Arc::clone(&seen);
        let runner = SweepRunner::new(2).with_env(move || {
            let mut channels = channel_registry();
            let log = Arc::clone(&log);
            channels.register("awgn", move |p| {
                let snr = p.get_f64("snr_db");
                log.lock().unwrap().push(snr);
                Box::new(AwgnModel::new(SnrDb::new(snr.unwrap_or(10.0))))
            });
            let system = WilisSystem::new();
            (system, channels, link_registry(), contention_registry())
        });
        let scenarios = SweepGrid::new()
            .contentions(&["p2p", "tdma"])
            .nodes(2)
            .snrs_db(&[13.5])
            .packets(2)
            .payload_bits(64)
            .scenarios();
        runner.run(&scenarios).unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4, "two probes, one group, one cell: {seen:?}");
        assert!(seen.iter().all(|&snr| snr == Some(13.5)), "{seen:?}");
    }
}
