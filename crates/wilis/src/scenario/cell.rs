//! Contention cells: N nodes sharing one slotted medium inside one job,
//! received and accounted through the group engine's receive and
//! accounting steps.

use wilis_channel::{resolve_slot, AwgnChannel, SlotOutcome, SnrDb, TxPower};
use wilis_fec::Llr;
use wilis_fxp::rng::{mix_seed, SmallRng};
use wilis_fxp::Cplx;
use wilis_lis::registry::RegistryError;
use wilis_mac::cell::{BackoffState, CellMetrics, ContentionPolicy, SlotView, TxDecision};
use wilis_mac::link::{LinkMetrics, LinkPolicy, LinkStatus, Oracle};
use wilis_phy::{PhyScratch, RxResult, Transmitter};

use super::engine::{account, build_receiver, decode, front_end, PacketDraw, PacketTally};
use super::plan::PointPlan;
use super::{Scenario, ScenarioResult, SweepEnv};

/// Per-node state of one contention cell: the MAC decision machinery,
/// the node's own link session, and its seeded randomness streams.
struct CellNode {
    policy: Box<dyn ContentionPolicy>,
    backoff: BackoffState,
    link: Option<Box<dyn LinkPolicy>>,
    arrivals: SmallRng,
    /// Transmissions made so far — the node's packet-seed index. Node 0's
    /// attempt `a` draws exactly the seeds point-to-point packet `a`
    /// draws, which is what makes a 1-node cell a strict generalization.
    attempts: u64,
    /// Logical packets *started* — the packet-seed index of a
    /// soft-combining HARQ node, whose retransmissions keep the payload
    /// (and seed) of the open packet and draw per-attempt channel noise
    /// through [`PacketDraw`] instead.
    logical: u64,
    /// Packets queued at this node (head-of-queue is retransmitted until
    /// its link session closes it).
    queue: u64,
    transmitted_last_slot: bool,
}

/// Seed-stream tags for the per-node randomness of a cell, chosen far
/// outside the `attempt | node << 32` packet-seed index space.
const BACKOFF_STREAM: u64 = 0xBAC0_FF00_0000_0000;
const ARRIVAL_STREAM: u64 = 0xA221_0000_0000_0000;

/// Executes one contention-cell scenario: N nodes contending for a
/// slotted shared medium, all inside this one job.
///
/// Each slot: packets arrive (Bernoulli `load` per node, or saturated),
/// every backlogged node's [`ContentionPolicy`] decides on the slot from
/// carrier sense (some *other* node transmitted last slot) and its
/// backoff state, and the overlapping transmissions resolve through the
/// capture model ([`resolve_slot`]) — per-node link gains come from the
/// scenario's seed-addressed [`ChannelModel`], so the whole cell is a
/// pure function of `(scenario seed, node, attempt)`. The surviving
/// transmission (if any) runs the full PHY chain — transmit, per-node
/// channel realization, residual interference as noise, then the group
/// engine's receive step — and the accounting step lets that node's own
/// [`LinkPolicy`] session observe it; destroyed transmissions are
/// observed as total corruption with zero-confidence hints (HARQ nodes
/// receive them as noise-buried attempts instead). Node 0 of a 1-node cell
/// draws exactly the seeds the point-to-point path draws, attempt for
/// attempt.
pub(super) fn run_cell(
    env: &SweepEnv,
    index: usize,
    sc: &Scenario,
    plan: &PointPlan,
    record: bool,
) -> Result<ScenarioResult, RegistryError> {
    let (system, channels, links, contentions) = env;
    let nodes = sc.nodes as usize;
    let slots = u64::from(sc.packets);
    // Every node transmits at the scenario rate toward one receiver, so a
    // single receiver (and estimator) serves the whole cell.
    let (mut rx, estimator) = build_receiver(system, &sc.decoder, sc.rate)?;

    let mut channel = channels.build(&sc.channel, &plan.channel_params)?;
    let noise_power = SnrDb::new(sc.snr_db).noise_power();

    let mut cell_nodes: Vec<CellNode> = Vec::with_capacity(nodes);
    for n in 0..nodes {
        cell_nodes.push(CellNode {
            policy: contentions.build(&sc.contention, &sc.contention_params)?,
            backoff: BackoffState::new(mix_seed(sc.seed, BACKOFF_STREAM | n as u64)),
            link: match &plan.link_params {
                None => None,
                Some(params) => Some(links.build(&sc.link, params)?),
            },
            arrivals: SmallRng::seed_from_u64(mix_seed(sc.seed, ARRIVAL_STREAM | n as u64)),
            attempts: 0,
            logical: 0,
            queue: 0,
            transmitted_last_slot: false,
        });
    }

    let mut scratch = PhyScratch::new();
    let mut samples: Vec<Cplx> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut mother: Vec<Llr> = Vec::new();
    let mut got = RxResult::default();
    let mut collided = RxResult {
        decoder_id: "collided",
        ..RxResult::default()
    };
    let mut tally = PacketTally::new();
    let mut metrics = CellMetrics::new(sc.nodes, slots, sc.payload_bits as u64);
    let mut decoded: u64 = 0;
    let mut last_tx_count = 0usize;
    let mut txs: Vec<usize> = Vec::with_capacity(nodes);
    let mut slot_txs: Vec<(usize, PacketDraw)> = Vec::with_capacity(nodes);
    let mut powers: Vec<TxPower> = Vec::with_capacity(nodes);

    for slot in 0..slots {
        // Arrivals: saturated queues by default, Bernoulli otherwise.
        for node in &mut cell_nodes {
            if plan.load >= 1.0 {
                node.queue = node.queue.max(1);
            } else if node.arrivals.gen_bool(plan.load) {
                node.queue += 1;
            }
        }

        txs.clear();
        for (n, node) in cell_nodes.iter_mut().enumerate() {
            if node.queue == 0 {
                continue;
            }
            // Carrier sense reads *last* slot's air: busy iff some other
            // node transmitted (a node never defers to its own
            // transmission), i.e. last slot had more transmitters than
            // this node contributed.
            let view = SlotView {
                slot,
                node: n,
                nodes,
                carrier_busy: last_tx_count > usize::from(node.transmitted_last_slot),
            };
            if node.policy.decide(&view, &mut node.backoff) == TxDecision::Transmit {
                txs.push(n);
            }
        }
        for node in cell_nodes.iter_mut() {
            node.transmitted_last_slot = false;
        }
        for &n in &txs {
            cell_nodes[n].transmitted_last_slot = true;
        }
        last_tx_count = txs.len();
        if txs.is_empty() {
            metrics.idle_slots += 1;
            continue;
        }

        // Per-transmission seeds and link gains, then capture resolution.
        slot_txs.clear();
        powers.clear();
        for &n in &txs {
            let node = &mut cell_nodes[n];
            let attempt = node.attempts;
            node.attempts += 1;
            let harq_attempt = node
                .link
                .as_mut()
                .and_then(|l| l.harq())
                .map(|c| c.attempt());
            // A soft-combining node keys payload identity to its open
            // logical packet; retransmissions draw fresh noise from the
            // HARQ attempt stream while attempt 0 matches the plain draw
            // exactly. Any other node sends a new packet every attempt.
            let (ident, a) = harq_attempt.map_or((attempt, 0), |a| (node.logical, a));
            let draw = PacketDraw::new(mix_seed(sc.seed, ident | ((n as u64) << 32)), ident, a);
            powers.push(TxPower {
                node: n,
                gain: channel.packet_gain(draw.chan_seed),
            });
            slot_txs.push((n, draw));
        }
        let outcome = resolve_slot(&powers, noise_power, plan.capture_db);
        match outcome {
            SlotOutcome::Idle => unreachable!("txs is non-empty"),
            SlotOutcome::Clean { .. } => metrics.clean_slots += 1,
            SlotOutcome::Captured { .. } => metrics.capture_slots += 1,
            SlotOutcome::Collision => metrics.collision_slots += 1,
        }
        let survivor = outcome.survivor();

        for &(n, draw) in &slot_txs {
            draw.payload_into(sc.payload_bits, &mut payload);
            let PacketDraw {
                scramble_seed,
                attempt_seed,
                chan_seed,
                ..
            } = draw;
            let bits = sc.payload_bits as u64;
            metrics.per_node[n].attempts += 1;
            metrics.per_node[n].bits_transmitted += bits;

            let survived = survivor == Some(n);
            if !survived {
                metrics.per_node[n].collisions += 1;
            }
            let node = &mut cell_nodes[n];
            // A survivor runs the full PHY. So does every HARQ attempt,
            // destroyed or not: the combiner absorbs a destroyed attempt's
            // plane, corrupted by the other arrivals as interference noise
            // rather than discarded, and the node decodes the combined
            // plane either way.
            let received = survived || plan.caps.harq;
            if received {
                let phase = node
                    .link
                    .as_mut()
                    .and_then(|l| l.harq())
                    .map_or(0, |core| core.tx_phase());
                Transmitter::with_phase(sc.rate, phase).tx_into(
                    &payload,
                    scramble_seed,
                    &mut scratch,
                    &mut samples,
                );
                channel.apply(&mut samples, chan_seed);
                // The node's channel genie-equalized the signal to unit
                // power, so the other arrivals degrade it as extra
                // Gaussian noise: a captured survivor at `interference /
                // gain`, a destroyed attempt buried at its slot SINR.
                let sinr = if survived {
                    match outcome {
                        SlotOutcome::Captured {
                            gain, interference, ..
                        } if interference > 0.0 => Some(gain / interference),
                        _ => None,
                    }
                } else {
                    let own = powers
                        .iter()
                        .find(|t| t.node == n)
                        .map(|t| t.gain)
                        .unwrap_or(0.0);
                    let others: f64 = powers.iter().filter(|t| t.node != n).map(|t| t.gain).sum();
                    (others > 0.0).then(|| own / others)
                };
                if let Some(sinr) = sinr {
                    AwgnChannel::new(SnrDb::from_linear(sinr), mix_seed(attempt_seed, 2))
                        .apply(&mut samples);
                }
                front_end(
                    &mut rx,
                    phase,
                    &[samples.as_slice()],
                    sc.payload_bits,
                    &mut scratch,
                    &mut mother,
                );
                decode(
                    &mut rx,
                    &mother,
                    node.link.as_mut().and_then(|l| l.harq()),
                    sc.payload_bits,
                    &[scramble_seed],
                    &mut scratch,
                    std::slice::from_mut(&mut got),
                );
                decoded += 1;
            } else {
                // Destroyed by the medium: every bit wrong, zero
                // confidence — the receiver never locked onto it.
                collided.payload.clear();
                collided.payload.extend(payload.iter().map(|b| b ^ 1));
                collided.hints.clear();
                collided.hints.resize(payload.len(), 0);
                collided.soft_magnitudes.clear();
                collided.soft_magnitudes.resize(payload.len(), 0);
            }
            let (errs, verdict) = account(
                received.then_some(&mut tally),
                estimator.as_ref(),
                node.link.as_mut(),
                plan.caps,
                &payload,
                if received { &got } else { &collided },
                sc.rate,
                Oracle::Unavailable,
                record,
            );
            let (closes, delivered) = match verdict.map(|v| v.status) {
                None => (true, errs == 0),
                Some(LinkStatus::Delivered) => (true, true),
                Some(LinkStatus::GaveUp) => (true, false),
                Some(LinkStatus::Retransmit) => (false, false),
            };
            if closes {
                node.queue = node.queue.saturating_sub(1);
                node.logical += 1;
                if delivered {
                    metrics.per_node[n].delivered += 1;
                    metrics.per_node[n].bits_delivered += bits;
                }
            }
            node.policy.acked(survived && errs == 0, &mut node.backoff);
        }
    }

    let link_metrics = (sc.link != "none").then(|| {
        let mut merged = LinkMetrics::default();
        for link in cell_nodes.iter().filter_map(|node| node.link.as_ref()) {
            merged.merge(&link.metrics());
        }
        merged
    });
    Ok(tally.into_result(index, sc, decoded, link_metrics, Some(metrics)))
}
