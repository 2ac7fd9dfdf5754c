//! The packet engine: the one point-to-point packet loop, [`run_group`],
//! and the receive and accounting steps it shares with the cell loop.
//!
//! Every point-to-point grid point runs as a member of a group job. A
//! fixed-rate member decodes in lockstep blocks of up to
//! [`MAX_BATCH_LANES`] packets; a member whose transmission changes after
//! every packet — SoftRate steering the rate, a HARQ packet that stays
//! open for another attempt — is alone in its group (the plan sees to it),
//! which then runs blocks of one packet. The receive step ([`front_end`],
//! [`decode`]) and the accounting step ([`account`]) are written once and
//! called by both [`run_group`] and [`super::cell::run_cell`].

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

use super::plan::{runtime_channel_params, runtime_link_params, LinkCaps};
use super::{LinkSlot, PacketStat, Scenario, ScenarioResult, StoppingRule, SweepEnv};
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
        self.rx.set_rate(rate);
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
            hint_bins: self.hint_bins,
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
/// `packet_seed` — used identically by groups and cells, so the two can
/// never drift apart.
pub(super) fn harq_attempt_seed(packet_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        packet_seed
    } else {
        mix_seed(packet_seed, HARQ_ATTEMPT_STREAM | u64::from(attempt))
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

/// One grid point of a group job: everything that is *not* shared —
/// receiver, estimator, scratch, link policy, and its own tally.
struct GroupMember<'a> {
    index: usize,
    scenario: &'a Scenario,
    caps: LinkCaps,
    /// The rate the member transmits and receives at; only a
    /// rate-steering member ever moves it.
    rate: PhyRate,
    rx: Receiver,
    estimator: Option<BerEstimator>,
    /// Receivers for the other rates a rate-steering member has used.
    parked: Vec<(PhyRate, Receiver, Option<BerEstimator>)>,
    scratch: PhyScratch,
    /// One receive result per lane of the current block.
    got_lanes: Vec<RxResult>,
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
    /// A receiver the member failed to build mid-run; it stops and
    /// reports the error.
    failed: Option<RegistryError>,
}

impl<'a> GroupMember<'a> {
    fn build(
        system: &WilisSystem,
        links: &LinkSlot,
        caps: LinkCaps,
        index: usize,
        sc: &'a Scenario,
    ) -> Result<Self, RegistryError> {
        let (rx, estimator) = build_receiver(system, &sc.decoder, sc.rate)?;
        let policy = match sc.link.as_str() {
            "none" => None,
            link => Some(links.build(link, &runtime_link_params(sc))?),
        };
        Ok(Self {
            index,
            scenario: sc,
            caps,
            rate: sc.rate,
            rx,
            estimator,
            parked: Vec::new(),
            scratch: PhyScratch::new(),
            got_lanes: Vec::new(),
            policy,
            tally: PacketTally::new(),
            receives: 0,
            closed: 0,
            stopped: false,
            failed: None,
        })
    }

    /// The member's next transmission: its rate, plus the puncture phase
    /// and attempt index of its HARQ packet (phase and attempt 0 without
    /// one).
    fn next_tx(&mut self) -> (PhyRate, usize, u32) {
        match self.policy.as_mut().and_then(|p| p.harq()) {
            Some(core) => (self.rate, core.tx_phase(), core.attempt()),
            None => (self.rate, 0, 0),
        }
    }

    /// Moves a rate-steering member onto `rate`, parking the receiver of
    /// the rate it leaves; each rate's receiver is built on first use.
    fn switch_rate(&mut self, system: &WilisSystem, rate: PhyRate) -> Result<(), RegistryError> {
        let (rx, estimator) = match self.parked.iter().position(|(r, ..)| *r == rate) {
            Some(i) => {
                let (_, rx, estimator) = self.parked.swap_remove(i);
                (rx, estimator)
            }
            None => build_receiver(system, &self.scenario.decoder, rate)?,
        };
        let left_rx = std::mem::replace(&mut self.rx, rx);
        let left_estimator = std::mem::replace(&mut self.estimator, estimator);
        self.parked.push((self.rate, left_rx, left_estimator));
        self.rate = rate;
        Ok(())
    }

    /// Accounts lane `k` of the block and applies the verdict: a new rate,
    /// the stopping rule once the logical packet closes. Returns whether
    /// the member's HARQ packet stays open for another attempt.
    fn account_lane(
        &mut self,
        system: &WilisSystem,
        k: usize,
        sent: &[u8],
        oracle: Oracle,
        record: bool,
        stopping: Option<StoppingRule>,
    ) -> bool {
        let (_, verdict) = account(
            Some(&mut self.tally),
            self.estimator.as_ref(),
            self.policy.as_mut(),
            self.caps,
            sent,
            &self.got_lanes[k],
            self.rate,
            oracle,
            record,
        );
        self.receives += 1;
        if self.caps.harq && verdict.is_some_and(|v| v.status == LinkStatus::Retransmit) {
            return true;
        }
        self.closed += 1;
        let steer = verdict.and_then(|v| v.next_rate);
        if let Some(next) = steer.filter(|&r| self.caps.adapts_rate && r != self.rate) {
            if let Err(e) = self.switch_rate(system, next) {
                self.failed = Some(e);
                self.stopped = true;
                return false;
            }
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

    fn finish(self) -> Result<ScenarioResult, RegistryError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let link = self.policy.map(|p| p.metrics());
        Ok(self
            .tally
            .into_result(self.index, self.scenario, self.receives, link, None))
    }
}

/// Partitions a packet budget into contiguous blocks of at most
/// `max_lanes` whose sizes differ by at most one — the batch width
/// alignment of the group loop. A greedy split would run 9 packets as
/// 8 + 1 and strand the remainder on a single-lane decode; the balanced
/// split runs them as 5 + 4 so every block keeps enough lanes for the
/// lockstep kernels to pay off.
fn batch_blocks(packets: u32, max_lanes: u32) -> impl Iterator<Item = u32> {
    let n_blocks = packets.div_ceil(max_lanes);
    let base = packets.checked_div(n_blocks).unwrap_or(0);
    let bumped = packets.checked_rem(n_blocks).unwrap_or(0);
    (0..n_blocks).map(move |i| base + u32::from(i < bumped))
}

/// Executes one group job: the payload, transmit chain, and channel
/// realization of each packet are computed once and every member
/// receives from the identical noisy samples. Bit-identical to running
/// each member alone — the shared inputs are exactly the inputs each
/// member would have derived from its own (equal) seed.
///
/// Packets run in blocks (see [`batch_blocks`]): each block transmits and
/// corrupts its packets first, then every member decodes the whole block
/// with one receive step, then the accounting replays in packet order so
/// tallies and link policies observe the exact sequence a lone run
/// produces. Members whose receive chains coincide share work inside a
/// block — one front end per demapper class, one decode per (rate,
/// builtin decoder) class — because equal configurations produce
/// bit-identical intermediate streams. While a HARQ packet stays open the
/// block repeats as its next attempt: the same payload at the attempt's
/// puncture phase, through fresh channel noise from
/// [`harq_attempt_seed`].
pub(super) fn run_group(
    env: &SweepEnv,
    caps: &[LinkCaps],
    members: &[usize],
    scenarios: &[Scenario],
    record: bool,
    stopping: Option<StoppingRule>,
) -> Vec<(usize, Result<ScenarioResult, RegistryError>)> {
    let (system, channels, links, _) = env;
    let lead = &scenarios[members[0]];
    let mut out = Vec::with_capacity(members.len());
    let mut group: Vec<GroupMember> = Vec::with_capacity(members.len());
    for &i in members {
        match GroupMember::build(system, links, caps[i], i, &scenarios[i]) {
            Ok(m) => group.push(m),
            Err(e) => out.push((i, Err(e))),
        }
    }

    let mut channel = match channels.build(&lead.channel, &runtime_channel_params(lead)) {
        Ok(c) => c,
        Err(e) => {
            for m in group {
                out.push((m.index, Err(e.clone())));
            }
            return out;
        }
    };
    if group.is_empty() {
        return out;
    }

    let mut oracle = group
        .iter()
        .any(|m| m.caps.needs_oracle)
        .then(|| OracleBank::new(system.compiled_ieee80211()));
    let payload_bits = lead.payload_bits;
    let mut tx_scratch = PhyScratch::new();
    let mut lane_samples: Vec<Vec<Cplx>> = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut scramble_seeds: Vec<u8> = Vec::new();
    let mut oracles: Vec<Oracle> = Vec::new();

    // Front-end classes: members whose receive front ends agree (same
    // rate, same demapper configuration) produce bit-identical mother LLR
    // streams, so each class runs demod/demap/deinterleave/depuncture
    // once per block and every member decodes the shared stream. In a
    // typical grid group the two hint decoders (SOVA, BCJR) share one
    // class while Viterbi's full-width demapper forms another.
    let mut class_reps: Vec<usize> = Vec::new();
    let mut class_of: Vec<usize> = Vec::with_capacity(group.len());
    for i in 0..group.len() {
        let c = class_reps
            .iter()
            .position(|&r| group[r].rx.front_end_matches(&group[i].rx))
            .unwrap_or_else(|| {
                class_reps.push(i);
                class_reps.len() - 1
            });
        class_of.push(c);
    }
    let mut class_mothers: Vec<Vec<Llr>> = class_reps.iter().map(|_| Vec::new()).collect();

    // Full-receiver classes: members that also run the same decoder
    // produce bit-identical `RxResult`s lane for lane, so only the class
    // representative decodes and the rest copy its results. This is what
    // makes link-policy grid axes nearly free — `none` and `arq` variants
    // of one decoder differ only in accounting. Restricted to the builtin
    // decoders, which are known-pure functions of (name, rate); a user
    // registration could be stateful, so it never shares.
    let mut rx_reps: Vec<usize> = Vec::new();
    let mut rx_of: Vec<usize> = Vec::with_capacity(group.len());
    for i in 0..group.len() {
        let sc = group[i].scenario;
        let builtin = DecoderKind::from_registry_name(&sc.decoder).is_some();
        let c = rx_reps
            .iter()
            .position(|&r| {
                builtin
                    && group[r].scenario.rate == sc.rate
                    && group[r].scenario.decoder == sc.decoder
            })
            .unwrap_or_else(|| {
                rx_reps.push(i);
                rx_reps.len() - 1
            });
        rx_of.push(c);
    }

    // A member that changes its transmission after every packet is alone
    // in its group (the plan sees to it) and runs one packet per block.
    let max_lanes = if group.iter().any(|m| m.caps.adapts_rate || m.caps.harq) {
        1
    } else {
        MAX_BATCH_LANES as u32
    };
    let mut first = 0u32;
    for block in batch_blocks(lead.packets, max_lanes) {
        let lanes = block as usize;
        if lane_samples.len() < lanes {
            lane_samples.resize_with(lanes, Vec::new);
            payloads.resize_with(lanes, Vec::new);
        }
        loop {
            // Fixed-rate members all transmit the lead's stream; a member
            // that steers its own transmission is alone, so the group
            // transmits whatever its first member asks for.
            let (rate, phase, attempt) = group[0].next_tx();
            let transmitter = Transmitter::with_phase(rate, phase);
            scramble_seeds.clear();
            oracles.clear();

            // Stage 1 — the shared part, in packet order: one transmit and
            // one channel realization per packet.
            for k in 0..lanes {
                let p = first + k as u32;
                let packet_seed = mix_seed(lead.seed, u64::from(p));
                let payload = &mut payloads[k];
                // A retransmission resends the open packet's payload.
                if attempt == 0 {
                    let mut rng = SmallRng::seed_from_u64(packet_seed);
                    payload.clear();
                    payload.extend((0..payload_bits).map(|_| rng.gen_bit()));
                }
                // Scramble identity follows the logical packet: a
                // retransmission is the same packet on the air.
                let scramble_seed = (p % 127 + 1) as u8;
                let chan_seed = mix_seed(harq_attempt_seed(packet_seed, attempt), 1);
                let samples = &mut lane_samples[k];
                transmitter.tx_into(payload, scramble_seed, &mut tx_scratch, samples);
                channel.apply(samples, chan_seed);
                oracles.push(match oracle.as_mut() {
                    Some(bank) => bank.replay(channel.as_mut(), chan_seed, payload, scramble_seed),
                    None => Oracle::Unavailable,
                });
                scramble_seeds.push(scramble_seed);
            }

            // Stage 2 — the receive step: one front end per class, then
            // each decoder class representative decodes its class's plane.
            for (c, &r) in class_reps.iter().enumerate() {
                let rep = &mut group[r];
                front_end(
                    &mut rep.rx,
                    phase,
                    &lane_samples[..lanes],
                    payload_bits,
                    &mut rep.scratch,
                    &mut class_mothers[c],
                );
            }
            for &r in &rx_reps {
                let rep = &mut group[r];
                rep.got_lanes.resize_with(lanes, RxResult::default);
                decode(
                    &mut rep.rx,
                    &class_mothers[class_of[r]],
                    rep.policy.as_mut().and_then(|p| p.harq()),
                    payload_bits,
                    &scramble_seeds,
                    &mut rep.scratch,
                    &mut rep.got_lanes[..lanes],
                );
            }
            for i in 0..group.len() {
                let r = rx_reps[rx_of[i]];
                if r == i {
                    continue;
                }
                // The representative always precedes its class members, so
                // a split at `i` puts it in the head. Field-wise
                // `clone_from` keeps the copy allocation-free in the steady
                // state.
                let (head, tail) = group.split_at_mut(i);
                let dst_member = &mut tail[0];
                dst_member.got_lanes.resize_with(lanes, RxResult::default);
                let src_lanes = &head[r].got_lanes[..lanes];
                for (dst, src) in dst_member.got_lanes[..lanes].iter_mut().zip(src_lanes) {
                    dst.payload.clone_from(&src.payload);
                    dst.hints.clone_from(&src.hints);
                    dst.soft_magnitudes.clone_from(&src.soft_magnitudes);
                    dst.decoder_id = src.decoder_id;
                }
            }

            // Stage 3 — accounting, packet-major then member, so each
            // member's tally and link policy observe packets in the order
            // a lone run delivers them.
            let mut open = false;
            for (k, payload) in payloads[..lanes].iter().enumerate() {
                for member in group.iter_mut().filter(|m| !m.stopped) {
                    open |= member.account_lane(system, k, payload, oracles[k], record, stopping);
                }
            }
            if !open {
                break;
            }
        }
        first += block;
        if group.iter().all(|m| m.stopped) {
            break;
        }
    }

    out.extend(group.into_iter().map(|m| (m.index, m.finish())));
    out
}

#[cfg(test)]
mod tests {
    use wilis_channel::{AwgnModel, FadingModel, ReplayModel, SnrDb, TraceModel};

    use super::*;

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
}
