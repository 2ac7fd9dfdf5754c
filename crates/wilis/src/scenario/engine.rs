//! The packet engine: the one point-to-point packet loop, [`run_group`],
//! and the receive and accounting steps it shares with the cell loop.
//!
//! Every point-to-point grid point runs as an accounting member of a
//! group job, which receives through one chain per decoder (see
//! [`run_group`]). A group job runs one or more shared-channel streams;
//! each block takes its lanes from every stream, up to
//! [`MAX_BATCH_LANES`] packets in lockstep, so light streams the plan
//! packed together decode in one batch. A member whose transmission
//! changes after every packet — SoftRate steering the rate, a HARQ packet
//! that stays open for another attempt — is alone in its job (the plan
//! sees to it), which then runs blocks of one packet. The receive step
//! ([`front_end`], [`decode`]) and the accounting step ([`account`]) are
//! written once and called by both [`run_group`] and
//! [`super::cell::run_cell`].

use std::sync::Arc;

use wilis_channel::ChannelModel;
use wilis_fec::{CompiledTrellis, Llr, MAX_BATCH_LANES, MAX_HINT};
use wilis_fxp::rng::{mix_seed, SmallRng};
use wilis_fxp::Cplx;
use wilis_lis::registry::RegistryError;
use wilis_mac::cell::CellMetrics;
use wilis_mac::harq::HarqCore;
use wilis_mac::link::{LinkContext, LinkMetrics, LinkPolicy, LinkStatus, LinkVerdict, Oracle};
use wilis_phy::{PhyRate, PhyScratch, Receiver, RxResult, Transmitter};
use wilis_softphy::{BerEstimator, DecoderKind, HintBin, ScalingFactors};

use super::plan::{LinkCaps, PointPlan, SweepPlan};
use super::{HintBins, PacketStat, Scenario, ScenarioResult, StoppingRule, SweepEnv};
use crate::system::is_stock_decoder;
use crate::{SystemConfig, WilisSystem};

/// A receiver for `rate` on the hint-width demapper, with the analytic
/// SoftPHY BER estimator when `decoder` is a builtin soft decoder.
pub(super) fn build_receiver(
    system: &WilisSystem,
    decoder: &str,
    rate: PhyRate,
) -> Result<(Receiver, Option<BerEstimator>), RegistryError> {
    let mut config = SystemConfig::new(rate, decoder);
    config.demapper_bits = ScalingFactors::hint_demapper_bits(rate.modulation());
    let estimator =
        DecoderKind::from_registry_name(decoder).map(|k| BerEstimator::analytic_for_rate(rate, k));
    Ok((system.receiver(&config)?, estimator))
}

/// The Figure 7 oracle's working memory: one Viterbi receiver on the
/// system's compiled trellis, re-aimed at each rate it tries
/// ([`Receiver::set_rate`]), so one decoder scratch serves all eight
/// rates. Hard decisions suffice for ground truth.
///
/// The scan runs fastest rate first and stops at the first error-free
/// decode, so a packet costs only the rates from the fastest down to its
/// answer (all eight when no rate decodes it). The fastest rates are also
/// the shortest packets.
struct OracleBank {
    rx: Receiver,
    scratch: PhyScratch,
    samples: Vec<Cplx>,
    got: RxResult,
}

impl OracleBank {
    fn new(trellis: Arc<CompiledTrellis>) -> Self {
        Self {
            rx: Receiver::viterbi_shared(PhyRate::all()[0], trellis),
            scratch: PhyScratch::new(),
            samples: Vec::new(),
            got: RxResult::default(),
        }
    }

    /// Replays the packet against the identical channel realization (same
    /// channel seed), fastest rate first, and returns the first rate that
    /// decodes error-free — the oracle grounded on the seed-addressed
    /// [`ChannelModel`] contract.
    fn replay(
        &mut self,
        channel: &mut dyn ChannelModel,
        chan_seed: u64,
        payload: &[u8],
        scramble_seed: u8,
    ) -> Oracle {
        for (i, &rate) in PhyRate::all().iter().enumerate().rev() {
            if self.decodes_clean(i, channel, chan_seed, payload, scramble_seed) {
                return Oracle::Best(rate);
            }
        }
        Oracle::NoRate
    }

    /// Whether `payload` sent at rate `PhyRate::all()[i]` through
    /// `chan_seed`'s realization decodes without a bit error.
    fn decodes_clean(
        &mut self,
        i: usize,
        channel: &mut dyn ChannelModel,
        chan_seed: u64,
        payload: &[u8],
        scramble_seed: u8,
    ) -> bool {
        let rate = PhyRate::all()[i];
        // The 8-bit demapper `Receiver::viterbi_shared` built.
        self.rx.set_rate(rate, 8);
        Transmitter::new(rate).tx_into(
            payload,
            scramble_seed,
            &mut self.scratch,
            &mut self.samples,
        );
        channel.apply(&mut self.samples, chan_seed);
        self.rx.rx_from(
            &self.samples,
            payload.len(),
            scramble_seed,
            &mut self.scratch,
            &mut self.got,
        );
        self.got.bit_errors(payload) == 0
    }
}

/// The Monte-Carlo accumulators of one grid point. Groups and cells tally
/// through [`account`], the one caller of [`PacketTally::observe`], so the
/// fused==solo bit-identity contract cannot be broken by editing one
/// path's statistics and forgetting another's.
pub(super) struct PacketTally {
    hint_bins: Vec<HintBin>,
    pub(super) packet_errors: u64,
    pub(super) bit_errors: u64,
    predicted_pber_sum: f64,
    packet_stats: Vec<PacketStat>,
}

impl PacketTally {
    pub(super) fn new() -> Self {
        Self {
            hint_bins: vec![HintBin::default(); usize::from(MAX_HINT) + 1],
            packet_errors: 0,
            bit_errors: 0,
            predicted_pber_sum: 0.0,
            packet_stats: Vec::new(),
        }
    }

    /// Accounts one received packet against the transmitted payload:
    /// hint-binned bit errors, packet errors, the SoftPHY PBER estimate,
    /// and (when `record` is on) the Figure 6 scatter point. Returns the
    /// packet's bit-error count and predicted PBER for the link layer.
    pub(super) fn observe(
        &mut self,
        sent: &[u8],
        got: &RxResult,
        estimator: Option<&BerEstimator>,
        record: bool,
    ) -> (u64, f64) {
        let mut errs_this_packet = 0u64;
        for ((&sent_bit, &got_bit), &hint) in sent.iter().zip(&got.payload).zip(&got.hints) {
            let bin = &mut self.hint_bins[usize::from(hint)];
            bin.bits += 1;
            if sent_bit != got_bit {
                bin.errors += 1;
                errs_this_packet += 1;
            }
        }
        self.bit_errors += errs_this_packet;
        if errs_this_packet > 0 {
            self.packet_errors += 1;
        }
        let predicted = estimator
            .map(|est| est.per_packet(&got.hints))
            .unwrap_or(0.0);
        self.predicted_pber_sum += predicted;
        if record {
            self.packet_stats.push(PacketStat {
                predicted,
                actual: errs_this_packet as f64 / sent.len().max(1) as f64,
            });
        }
        (errs_this_packet, predicted)
    }

    /// Folds the tally into the final per-scenario result. `packets` is
    /// the number of receives tallied: packets (attempts under HARQ) for
    /// point-to-point scenarios, the decoded transmissions for cells.
    pub(super) fn into_result(
        self,
        index: usize,
        sc: &Scenario,
        packets: u64,
        link: Option<LinkMetrics>,
        cell: Option<CellMetrics>,
    ) -> ScenarioResult {
        ScenarioResult {
            scenario: index,
            label: sc.label(),
            packets,
            packet_errors: self.packet_errors,
            bits: packets * sc.payload_bits as u64,
            bit_errors: self.bit_errors,
            hint_bins: HintBins::from_dense(&self.hint_bins),
            predicted_pber_sum: self.predicted_pber_sum,
            packet_stats: self.packet_stats,
            link,
            cell,
        }
    }
}

/// Seed-stream tag for HARQ retransmission attempts, in the family of
/// the cell's backoff and arrival streams: attempt 0 of a packet draws
/// exactly the seeds a non-HARQ packet draws (the strict-generalization
/// anchor), and attempt `a > 0` of packet seed `s` draws from
/// `mix_seed(s, HARQ_ATTEMPT_STREAM | a)` — fresh channel noise per
/// retransmission, pure in `(scenario seed, packet, attempt)`.
const HARQ_ATTEMPT_STREAM: u64 = 0x4A59_0000_0000_0000;

/// The channel seed of HARQ attempt `attempt` of the packet with seed
/// `packet_seed` — used identically by groups and cells (through
/// [`PacketDraw`]), so the two can never drift apart.
fn harq_attempt_seed(packet_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        packet_seed
    } else {
        mix_seed(packet_seed, HARQ_ATTEMPT_STREAM | u64::from(attempt))
    }
}

/// The draws of one transmission, derived identically by groups and cells
/// (the same reason as [`harq_attempt_seed`]): the payload from the packet
/// seed, the scrambler seed from the logical packet, and the channel seed
/// from the attempt.
#[derive(Clone, Copy)]
pub(super) struct PacketDraw {
    packet_seed: u64,
    /// The scrambler seed. It follows the logical packet `ident`: a
    /// retransmission is the same packet on the air.
    pub(super) scramble_seed: u8,
    /// The attempt's seed (see [`harq_attempt_seed`]).
    pub(super) attempt_seed: u64,
    /// The seed of the attempt's channel realization.
    pub(super) chan_seed: u64,
}

impl PacketDraw {
    /// Attempt `attempt` of logical packet `ident`, whose seed is
    /// `packet_seed`.
    pub(super) fn new(packet_seed: u64, ident: u64, attempt: u32) -> Self {
        let attempt_seed = harq_attempt_seed(packet_seed, attempt);
        Self {
            packet_seed,
            scramble_seed: (ident % 127 + 1) as u8,
            attempt_seed,
            chan_seed: mix_seed(attempt_seed, 1),
        }
    }

    /// The packet's `bits` payload bits, into `payload`.
    pub(super) fn payload_into(&self, bits: usize, payload: &mut Vec<u8>) {
        let mut rng = SmallRng::seed_from_u64(self.packet_seed);
        payload.clear();
        payload.extend((0..bits).map(|_| rng.gen_bit()));
    }
}

/// The front half of the receive step: demodulates, demaps and
/// depunctures `lane_samples` (one lane per packet) at the puncture
/// `phase` they were sent with, into the lane-major mother plane.
pub(super) fn front_end<S: AsRef<[Cplx]>>(
    rx: &mut Receiver,
    phase: usize,
    lane_samples: &[S],
    payload_bits: usize,
    scratch: &mut PhyScratch,
    mother: &mut Vec<Llr>,
) {
    rx.set_puncture_phase(phase);
    rx.rx_batch_front_end_into(lane_samples, payload_bits, scratch, mother);
}

/// The back half of the receive step: decodes the fresh mother plane into
/// `outs`, one result per lane — or, for a HARQ packet, lets the core
/// absorb the plane (the first attempt retains, retransmissions
/// saturating-add) and decodes the combined plane, so a retransmission
/// decodes with everything earlier attempts learned.
pub(super) fn decode(
    rx: &mut Receiver,
    mother: &[Llr],
    harq: Option<&mut HarqCore>,
    payload_bits: usize,
    scramble_seeds: &[u8],
    scratch: &mut PhyScratch,
    outs: &mut [RxResult],
) {
    let plane = match harq {
        Some(core) => {
            debug_assert_eq!(outs.len(), 1, "a HARQ packet decodes alone");
            core.absorb(mother);
            core.plane()
        }
        None => mother,
    };
    rx.rx_batch_decode_from(
        plane,
        outs.len(),
        payload_bits,
        scramble_seeds,
        scratch,
        outs,
    );
}

/// The accounting step: tallies one receive against the payload sent and
/// lets the link policy observe it. `tally` is `None` for a transmission
/// the medium destroyed: it never reached the receiver, so it is not
/// tallied and the policy sees every bit wrong at zero predicted PBER.
/// Returns the bit errors and the policy's verdict.
///
/// # Panics
///
/// Panics when a policy that declared `adapts_rate() == false` asks to
/// steer the rate — a broken capability contract, not user input.
#[allow(clippy::too_many_arguments)]
pub(super) fn account(
    tally: Option<&mut PacketTally>,
    estimator: Option<&BerEstimator>,
    policy: Option<&mut Box<dyn LinkPolicy>>,
    caps: LinkCaps,
    sent: &[u8],
    got: &RxResult,
    rate: PhyRate,
    oracle: Oracle,
    record: bool,
) -> (u64, Option<LinkVerdict>) {
    let (bit_errors, predicted_pber) = match tally {
        Some(tally) => tally.observe(sent, got, estimator, record),
        None => (sent.len() as u64, 0.0),
    };
    let verdict = policy.map(|policy| {
        let ctx = LinkContext {
            sent,
            bit_errors,
            predicted_pber,
            rate,
            oracle: if caps.needs_oracle {
                oracle
            } else {
                Oracle::Unavailable
            },
        };
        let verdict = policy.observe(got, &got.hints, &ctx);
        assert!(
            caps.adapts_rate || verdict.next_rate.is_none() || verdict.next_rate == Some(rate),
            "link policy {:?} declared adapts_rate() == false but asked to \
             steer the transmit rate",
            policy.name()
        );
        verdict
    });
    (bit_errors, verdict)
}

/// One receive chain of a group: a decoder's receiver at the group's
/// rate, its SoftPHY estimator, its decode scratch, and its results for
/// the current block. Members running the same stock decoder share a
/// chain, whatever their stream; every other decoder gets one chain per
/// member.
struct Chain {
    rx: Receiver,
    estimator: Option<BerEstimator>,
    scratch: PhyScratch,
    /// One receive result per lane of the current block.
    got_lanes: Vec<RxResult>,
}

impl Chain {
    fn build(system: &WilisSystem, decoder: &str, rate: PhyRate) -> Result<Self, RegistryError> {
        let (rx, estimator) = build_receiver(system, decoder, rate)?;
        Ok(Self {
            rx,
            estimator,
            scratch: PhyScratch::new(),
            got_lanes: Vec::new(),
        })
    }

    /// Re-aims the chain at `rate` in place, allocation-free: the
    /// receiver's demapper moves to the rate's hint width and the
    /// estimator to the rate's table — exactly the chain
    /// [`Chain::build`] would build for `rate`.
    fn set_rate(&mut self, rate: PhyRate) {
        self.rx
            .set_rate(rate, ScalingFactors::hint_demapper_bits(rate.modulation()));
        if let Some(estimator) = &mut self.estimator {
            *estimator = BerEstimator::analytic_for_rate(rate, estimator.decoder());
        }
    }
}

/// One shared-channel stream of a group job: the lead scenario whose seed
/// and channel every member of the stream shares, the stream's own
/// channel instance, and where the stream stands in the current block.
struct Stream<'a> {
    lead: &'a Scenario,
    channel: Box<dyn ChannelModel>,
    /// The stream's first packet in the current block.
    first: u32,
    /// The stream's packets in the current block, its lanes.
    block: u32,
}

/// One grid point of a group job: only its accounting — link policy,
/// tally and counters. It reads its stream's lanes from one of the
/// group's chains.
struct GroupMember<'a> {
    index: usize,
    scenario: &'a Scenario,
    caps: LinkCaps,
    /// Index of the stream this member accounts.
    stream: usize,
    /// Index of the chain this member receives through.
    chain: usize,
    policy: Option<Box<dyn LinkPolicy>>,
    tally: PacketTally,
    /// Receives tallied: packets, or attempts under HARQ.
    receives: u64,
    /// Logical packets closed — the axis stopping boundaries walk.
    closed: u64,
    /// Set once the member's own stopping rule fires: the member freezes
    /// its tally and policy at exactly the packet where its solo run
    /// would have stopped, so fused results stay bit-identical to solo
    /// results even when co-members keep running.
    stopped: bool,
}

impl<'a> GroupMember<'a> {
    /// Builds the member onto `chains`. Members that run the same stock
    /// decoder produce bit-identical `RxResult`s lane for lane, so a
    /// member joins the chain of an earlier one: this is what makes
    /// link-policy grid axes nearly free — `none` and `arq` variants of
    /// one decoder differ only in accounting — and lets packed streams
    /// decode in one batch. Stock decoders are pure functions of (name,
    /// rate); a user registration under another name could be stateful,
    /// so it never shares.
    fn join(
        (system, _, links, _): &SweepEnv,
        plan: &PointPlan,
        index: usize,
        stream: usize,
        sc: &'a Scenario,
        members: &[GroupMember],
        chains: &mut Vec<Chain>,
    ) -> Result<Self, RegistryError> {
        let shared = is_stock_decoder(&sc.decoder)
            .then(|| members.iter().find(|m| m.scenario.decoder == sc.decoder))
            .flatten()
            .map(|m| m.chain);
        let new_chain = match shared {
            Some(_) => None,
            None => Some(Chain::build(system, &sc.decoder, sc.rate)?),
        };
        let policy = match &plan.link_params {
            None => None,
            Some(params) => Some(links.build(&sc.link, params)?),
        };
        let chain = shared.unwrap_or(chains.len());
        chains.extend(new_chain);
        Ok(Self {
            index,
            scenario: sc,
            caps: plan.caps,
            stream,
            chain,
            policy,
            tally: PacketTally::new(),
            receives: 0,
            closed: 0,
            stopped: false,
        })
    }

    /// Accounts lane `k` of the block, received through `chain`, and
    /// applies the verdict: a new rate re-aims the chain, the stopping
    /// rule runs once the logical packet closes. Returns whether the
    /// member's HARQ packet stays open for another attempt.
    fn account_lane(
        &mut self,
        chain: &mut Chain,
        k: usize,
        sent: &[u8],
        oracle: Oracle,
        record: bool,
        stopping: Option<StoppingRule>,
    ) -> bool {
        let rate = chain.rx.rate();
        let (_, verdict) = account(
            Some(&mut self.tally),
            chain.estimator.as_ref(),
            self.policy.as_mut(),
            self.caps,
            sent,
            &chain.got_lanes[k],
            rate,
            oracle,
            record,
        );
        self.receives += 1;
        if self.caps.harq && verdict.is_some_and(|v| v.status == LinkStatus::Retransmit) {
            return true;
        }
        self.closed += 1;
        // A rate-steering member is alone in its group, so its chain is
        // its own.
        let steer = verdict.and_then(|v| v.next_rate);
        if let Some(next) = steer.filter(|&r| self.caps.adapts_rate && r != rate) {
            chain.set_rate(next);
        }
        // The boundary walks the logical packet axis — the seed schedule —
        // while the interval watches the receive-level tally, the same
        // accounting `ScenarioResult::packets` reports.
        if let Some(rule) = stopping {
            if rule.is_boundary(self.closed)
                && rule.closed(&self.tally, self.receives, self.scenario.payload_bits)
            {
                self.stopped = true;
            }
        }
        false
    }

    fn finish(self) -> ScenarioResult {
        let link = self.policy.map(|p| p.metrics());
        self.tally
            .into_result(self.index, self.scenario, self.receives, link, None)
    }
}

/// Block `b` of a packet budget partitioned into contiguous blocks of at
/// most `max_lanes` whose sizes differ by at most one, or 0 past the last
/// block — the batch width alignment of the group loop. A greedy split
/// would run 9 packets as 8 + 1 and strand the remainder on a single-lane
/// decode; the balanced split runs them as 5 + 4 so every block keeps
/// enough lanes for the lockstep kernels to pay off.
pub(super) fn batch_block(packets: u32, max_lanes: u32, b: u32) -> u32 {
    let n_blocks = packets.div_ceil(max_lanes);
    if b >= n_blocks {
        return 0;
    }
    packets / n_blocks + u32::from(b < packets % n_blocks)
}

/// Executes one group job of `streams` (each a list of grid points, see
/// [`super::plan::Job::Group`]): the payload, transmit chain, and channel
/// realization of each packet are computed once per stream and every
/// member of the stream receives from the identical noisy samples.
/// Bit-identical to running each member alone — the shared inputs are
/// exactly the inputs each member would have derived from its own (equal)
/// seed, each stream keeps its own channel instance, and a batched decode
/// equals a solo one lane by lane.
///
/// Packets run in blocks: block `b` takes each stream's `b`-th
/// [`batch_block`] as its lanes, stream-major (a packed job's streams fit
/// one block between them, so it runs exactly one). Each block transmits
/// and corrupts its packets first, then runs one front end into the
/// group's mother plane — every member receives at the group's rate on
/// the hint-width demapper, so every chain's front end agrees — and one
/// decode per chain that still serves a running member, then the
/// accounting replays each stream's lanes in packet order, so tallies and
/// link policies observe the exact sequence a lone run produces. While a
/// HARQ packet stays open the block repeats as its next attempt: the same
/// payload at the attempt's puncture phase, through fresh channel noise
/// from [`harq_attempt_seed`].
pub(super) fn run_group(
    env: &SweepEnv,
    plan: &SweepPlan,
    job: &[Vec<usize>],
    scenarios: &[&Scenario],
    record: bool,
    stopping: Option<StoppingRule>,
) -> Vec<(usize, Result<ScenarioResult, RegistryError>)> {
    let (system, channels, _, _) = env;
    let mut out = Vec::new();
    let mut group: Vec<GroupMember> = Vec::with_capacity(job.iter().map(Vec::len).sum());
    let mut chains: Vec<Chain> = Vec::new();
    let mut streams: Vec<Stream> = Vec::with_capacity(job.len());
    for members in job {
        let joined = group.len();
        for &i in members {
            match GroupMember::join(
                env,
                &plan.points[i],
                i,
                streams.len(),
                scenarios[i],
                &group,
                &mut chains,
            ) {
                Ok(m) => group.push(m),
                Err(e) => out.push((i, Err(e))),
            }
        }
        let lead = scenarios[members[0]];
        match channels.build(&lead.channel, &plan.points[members[0]].channel_params) {
            Ok(channel) => streams.push(Stream {
                lead,
                channel,
                first: 0,
                block: 0,
            }),
            Err(e) => out.extend(group.drain(joined..).map(|m| (m.index, Err(e.clone())))),
        }
    }
    if group.is_empty() {
        return out;
    }

    let mut oracle = group
        .iter()
        .any(|m| m.caps.needs_oracle)
        .then(|| OracleBank::new(system.compiled_ieee80211()));
    let payload_bits = streams[0].lead.payload_bits;
    // Serves the transmit chain and the one front end of each block.
    let mut scratch = PhyScratch::new();
    let mut mother: Vec<Llr> = Vec::new();
    let mut lane_samples: Vec<Vec<Cplx>> = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut scramble_seeds: Vec<u8> = Vec::new();
    let mut oracles: Vec<Oracle> = Vec::new();

    // A member that changes its transmission after every packet is alone
    // in its job (the plan sees to it) and runs one packet per block.
    let max_lanes = if group.iter().any(|m| m.caps.adapts_rate || m.caps.harq) {
        1
    } else {
        MAX_BATCH_LANES as u32
    };
    for b in 0.. {
        for stream in &mut streams {
            stream.first += stream.block;
            stream.block = batch_block(stream.lead.packets, max_lanes, b);
        }
        let lanes = streams.iter().map(|s| s.block as usize).sum();
        if lanes == 0 {
            break;
        }
        if lane_samples.len() < lanes {
            lane_samples.resize_with(lanes, Vec::new);
            payloads.resize_with(lanes, Vec::new);
        }
        loop {
            // Fixed-rate members all transmit at the rate every chain is
            // aimed at; a member that steers its own transmission is
            // alone, so the group transmits whatever its first member
            // asks for.
            let harq = group[0].policy.as_mut().and_then(|p| p.harq());
            let (phase, attempt) = harq.map_or((0, 0), |core| (core.tx_phase(), core.attempt()));
            let transmitter = Transmitter::with_phase(chains[0].rx.rate(), phase);
            scramble_seeds.clear();
            oracles.clear();

            // Stage 1 — the shared part, stream-major and in packet order
            // within each stream: one transmit and one channel realization
            // per packet, through the stream's own channel.
            let mut k = 0;
            for stream in &mut streams {
                for p in stream.first..stream.first + stream.block {
                    let packet_seed = mix_seed(stream.lead.seed, u64::from(p));
                    let draw = PacketDraw::new(packet_seed, u64::from(p), attempt);
                    let (scramble_seed, chan_seed) = (draw.scramble_seed, draw.chan_seed);
                    let payload = &mut payloads[k];
                    // A retransmission resends the open packet's payload.
                    if attempt == 0 {
                        draw.payload_into(payload_bits, payload);
                    }
                    let samples = &mut lane_samples[k];
                    let channel = stream.channel.as_mut();
                    transmitter.tx_into(payload, scramble_seed, &mut scratch, samples);
                    channel.apply(samples, chan_seed);
                    oracles.push(match oracle.as_mut() {
                        Some(bank) => bank.replay(channel, chan_seed, payload, scramble_seed),
                        None => Oracle::Unavailable,
                    });
                    scramble_seeds.push(scramble_seed);
                    k += 1;
                }
            }

            // Stage 2 — the receive step: one front end, then one decode
            // per chain over every lane; a chain whose members have all
            // stopped is read by no one, so it stops decoding. A HARQ
            // member is alone, so its chain decodes with its core.
            front_end(
                &mut chains[0].rx,
                phase,
                &lane_samples[..lanes],
                payload_bits,
                &mut scratch,
                &mut mother,
            );
            for (c, chain) in chains.iter_mut().enumerate() {
                let Some(member) = group.iter_mut().find(|m| m.chain == c && !m.stopped) else {
                    continue;
                };
                chain.got_lanes.resize_with(lanes, RxResult::default);
                decode(
                    &mut chain.rx,
                    &mother,
                    member.policy.as_mut().and_then(|p| p.harq()),
                    payload_bits,
                    &scramble_seeds,
                    &mut chain.scratch,
                    &mut chain.got_lanes[..lanes],
                );
            }

            // Stage 3 — accounting: each stream's lanes in packet order,
            // each lane member by member, so every member's tally and
            // link policy observe packets in the order a lone run
            // delivers them.
            let mut open = false;
            let mut k = 0;
            for (s, stream) in streams.iter().enumerate() {
                for _ in 0..stream.block {
                    let (sent, lane_oracle) = (&payloads[k], oracles[k]);
                    for member in group.iter_mut().filter(|m| m.stream == s && !m.stopped) {
                        let chain = &mut chains[member.chain];
                        open |= member.account_lane(chain, k, sent, lane_oracle, record, stopping);
                    }
                    k += 1;
                }
            }
            if !open {
                break;
            }
        }
        if group.iter().all(|m| m.stopped) {
            break;
        }
    }

    out.extend(group.into_iter().map(|m| (m.index, Ok(m.finish()))));
    out
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use wilis_channel::{AwgnModel, FadingModel, ReplayModel, SnrDb, TraceModel};
    use wilis_fec::{BcjrDecoder, ConvCode, DecodeOutput, SoftDecoder, ViterbiDecoder};

    use super::*;
    use crate::scenario::{
        channel_registry, contention_registry, link_registry, SweepGrid, SweepRunner,
    };

    impl OracleBank {
        /// The scan the early exit replaced, kept as the reference: every
        /// rate, slowest first, keeping the last one that decodes clean.
        fn replay_exhaustive(
            &mut self,
            channel: &mut dyn ChannelModel,
            chan_seed: u64,
            payload: &[u8],
            scramble_seed: u8,
        ) -> Oracle {
            let mut best = Oracle::NoRate;
            for (i, &rate) in PhyRate::all().iter().enumerate() {
                if self.decodes_clean(i, channel, chan_seed, payload, scramble_seed) {
                    best = Oracle::Best(rate);
                }
            }
            best
        }
    }

    /// Both scans of one packet, each on its own twin of the channel and
    /// after the protocol transmission `run_group` sends first.
    struct Twins {
        fast: OracleBank,
        exhaustive: OracleBank,
        tx_scratch: PhyScratch,
        samples: Vec<Cplx>,
    }

    impl Twins {
        fn scan(
            &mut self,
            fast_channel: &mut dyn ChannelModel,
            exhaustive_channel: &mut dyn ChannelModel,
            seed: u64,
        ) -> Oracle {
            let mut rng = SmallRng::seed_from_u64(seed);
            let payload: Vec<u8> = (0..32).map(|_| rng.gen_bit()).collect();
            let scramble_seed = (seed % 127 + 1) as u8;
            let chan_seed = mix_seed(seed, 1);
            Transmitter::new(PhyRate::Qam16Half).tx_into(
                &payload,
                scramble_seed,
                &mut self.tx_scratch,
                &mut self.samples,
            );
            let mut twin_samples = self.samples.clone();
            fast_channel.apply(&mut self.samples, chan_seed);
            exhaustive_channel.apply(&mut twin_samples, chan_seed);
            let got = self
                .fast
                .replay(fast_channel, chan_seed, &payload, scramble_seed);
            let want = self.exhaustive.replay_exhaustive(
                exhaustive_channel,
                chan_seed,
                &payload,
                scramble_seed,
            );
            assert_eq!(
                got,
                want,
                "{} channel at {:?}, seed {seed}: the fastest-first scan disagrees",
                fast_channel.id(),
                fast_channel.snr()
            );
            got
        }
    }

    /// Runs both scans over 50 packets at each SNR on twin channels from
    /// `make`, calling `check` on the twins after every packet, and
    /// returns the verdicts. The fast scan must exit both at the fastest
    /// rate and below it.
    fn assert_scans_agree<M: ChannelModel>(
        make: impl Fn(SnrDb) -> M,
        check: impl Fn(&M, &M),
    ) -> Vec<Oracle> {
        let system = WilisSystem::new();
        let mut twins = Twins {
            fast: OracleBank::new(system.compiled_ieee80211()),
            exhaustive: OracleBank::new(system.compiled_ieee80211()),
            tx_scratch: PhyScratch::new(),
            samples: Vec::new(),
        };
        let mut verdicts = Vec::new();
        for snr_db in [0.0, 5.0, 10.0, 15.0, 20.0, 25.0] {
            let (mut fast, mut exhaustive) = (make(SnrDb::new(snr_db)), make(SnrDb::new(snr_db)));
            for seed in 0..50 {
                verdicts.push(twins.scan(&mut fast, &mut exhaustive, seed));
                check(&fast, &exhaustive);
            }
        }
        let fastest = Oracle::Best(PhyRate::Qam64ThreeQuarters);
        assert!(verdicts.contains(&fastest), "the scan never exits at once");
        assert!(
            verdicts
                .iter()
                .any(|&v| v != fastest && v != Oracle::NoRate),
            "the scan never exits below the fastest rate"
        );
        verdicts
    }

    #[test]
    fn fastest_first_oracle_matches_the_exhaustive_scan_on_awgn() {
        assert_scans_agree(AwgnModel::new, |_, _| {});
    }

    #[test]
    fn fastest_first_oracle_matches_the_exhaustive_scan_on_fading() {
        let verdicts = assert_scans_agree(|snr| FadingModel::new(snr, 20.0), |_, _| {});
        assert!(
            verdicts.contains(&Oracle::NoRate),
            "deep fades lose packets"
        );
    }

    #[test]
    fn fastest_first_oracle_matches_the_exhaustive_scan_on_replay() {
        let verdicts = assert_scans_agree(|snr| ReplayModel::new(snr, 20.0, 7), |_, _| {});
        assert!(
            verdicts.contains(&Oracle::NoRate),
            "deep fades lose packets"
        );
    }

    #[test]
    fn fastest_first_oracle_matches_the_exhaustive_scan_on_trace() {
        let verdicts = assert_scans_agree(
            |snr| TraceModel::new(snr, 20.0, 7, 0.5e-3),
            |fast, exhaustive| {
                assert_eq!(
                    fast.next_packet_position(),
                    exhaustive.next_packet_position(),
                    "the fastest-first scan moved the trace cursor"
                );
            },
        );
        assert!(
            verdicts.contains(&Oracle::NoRate),
            "deep fades lose packets"
        );
    }

    /// A user registration that counts its decode calls, solo and
    /// batched alike, and otherwise is the decoder it wraps.
    struct Counting {
        inner: Box<dyn SoftDecoder>,
        calls: Arc<AtomicUsize>,
    }

    impl SoftDecoder for Counting {
        fn decode_terminated_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.decode_terminated_into(llrs, out);
        }

        fn decode_terminated_batch_into(
            &mut self,
            llrs: &[Llr],
            lanes: usize,
            outs: &mut [DecodeOutput],
        ) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.decode_terminated_batch_into(llrs, lanes, outs);
        }

        fn id(&self) -> &'static str {
            self.inner.id()
        }
    }

    /// A one-thread runner (so a fused group is never split) whose
    /// system also registers two user decoders: `"my-viterbi"`, a
    /// [`Counting`] Viterbi adding to `calls`, and `"bcjr-w4"`, BCJR on a
    /// 4-step window — far weaker than the stock 64-step one, so it needs
    /// more packets to close a stopping interval.
    fn user_runner(calls: &Arc<AtomicUsize>, stopping: Option<StoppingRule>) -> SweepRunner {
        let calls = Arc::clone(calls);
        SweepRunner::new(1)
            .with_stopping(stopping)
            .with_env(move || {
                let mut system = WilisSystem::new();
                let calls = Arc::clone(&calls);
                system.decoders_mut().register("my-viterbi", move |_| {
                    Box::new(Counting {
                        inner: Box::new(ViterbiDecoder::new(&ConvCode::ieee80211())),
                        calls: Arc::clone(&calls),
                    })
                });
                system.decoders_mut().register("bcjr-w4", |_| {
                    Box::new(BcjrDecoder::new(&ConvCode::ieee80211(), 4))
                });
                (
                    system,
                    channel_registry(),
                    link_registry(),
                    contention_registry(),
                )
            })
    }

    /// Runs `scenarios` as one fused job and each point alone, asserting
    /// every result of the fused run equals its solo run, and returns the
    /// fused results with the decode calls `"my-viterbi"` made in the
    /// fused run.
    fn fused_matches_solo(
        runner: &SweepRunner,
        calls: &AtomicUsize,
        scenarios: &[Scenario],
    ) -> (Vec<ScenarioResult>, usize) {
        let fused = runner.run(scenarios).unwrap();
        let fused_calls = calls.load(Ordering::Relaxed);
        for (sc, f) in scenarios.iter().zip(&fused) {
            let mut solo = runner.run(std::slice::from_ref(sc)).unwrap().remove(0);
            solo.scenario = f.scenario;
            assert_eq!(&solo, f, "{}", sc.label());
        }
        (fused, fused_calls)
    }

    #[test]
    fn user_registrations_in_fused_groups_match_solo() {
        let calls = Arc::new(AtomicUsize::new(0));
        let scenarios = SweepGrid::new()
            .decoders(&["my-viterbi", "viterbi", "sova"])
            .links(&["none", "arq"])
            .snrs_db(&[6.5])
            .packets(11)
            .payload_bits(300)
            .scenarios();
        let (fused, fused_calls) =
            fused_matches_solo(&user_runner(&calls, None), &calls, &scenarios);
        // One group of two blocks (6 + 5 packets); a user registration
        // never shares, so each of its two points decodes every block.
        assert_eq!(fused_calls, 2 * 2);
        for link in ["none", "arq"] {
            let of = |decoder: &str| {
                let i = scenarios
                    .iter()
                    .position(|sc| sc.decoder == decoder && sc.link == link)
                    .unwrap();
                &fused[i]
            };
            let (user, builtin) = (of("my-viterbi"), of("viterbi"));
            assert!(
                builtin.bit_errors > 0,
                "{link}: the waterfall decodes clean"
            );
            assert_eq!(user.packets, builtin.packets, "{link}");
            assert_eq!(user.packet_errors, builtin.packet_errors, "{link}");
            assert_eq!(user.bit_errors, builtin.bit_errors, "{link}");
            assert_eq!(user.hint_bins, builtin.hint_bins, "{link}");
            assert_eq!(
                user.predicted_pber_sum.to_bits(),
                builtin.predicted_pber_sum.to_bits(),
                "{link}"
            );
            assert_eq!(user.link, builtin.link, "{link}");
        }
    }

    #[test]
    fn a_chain_whose_members_all_stopped_stops_decoding() {
        let calls = Arc::new(AtomicUsize::new(0));
        let scenarios = SweepGrid::new()
            .decoders(&["my-viterbi", "bcjr-w4"])
            .snrs_db(&[7.0])
            .packets(24)
            .payload_bits(300)
            .scenarios();
        let rule = StoppingRule::ber(5e-3).with_chunk(2);
        let (fused, fused_calls) =
            fused_matches_solo(&user_runner(&calls, Some(rule)), &calls, &scenarios);
        let (user, co) = (&fused[0], &fused[1]);
        // The group runs blocks of 8 packets; the co-member keeps it
        // going for blocks after `"my-viterbi"` stopped.
        assert!(
            user.packets <= 8 && co.packets > 16,
            "{} then {} packets",
            user.packets,
            co.packets
        );
        let blocks = (0..).map(|b| batch_block(24, 8, b)).take_while(|&n| n > 0);
        let starts = blocks.scan(0u64, |start, block| {
            let at = *start;
            *start += u64::from(block);
            Some(at)
        });
        let blocks_run = starts.filter(|&at| at < user.packets).count();
        assert_eq!(fused_calls, blocks_run);
    }
}
