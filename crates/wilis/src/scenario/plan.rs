//! The compile step: one pass over a grid that resolves every name,
//! probes each link configuration once, and partitions the points into
//! worker jobs.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use wilis_fec::MAX_BATCH_LANES;
use wilis_lis::registry::{Params, RegistryError};
use wilis_phy::PhyRate;
use wilis_softphy::DecoderKind;

use super::engine::batch_block;
use super::{LinkSlot, Scenario, SweepEnv};
use crate::faults::{FaultInjector, FaultSite};
use crate::system::is_stock_decoder;
use crate::SystemConfig;

/// What a link configuration does to the packet loop, learned by building
/// one probe policy per distinct (rate, payload, link, parameters). The
/// default is the PHY-only `"none"` link.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct LinkCaps {
    /// The policy steers the transmit rate ([`LinkPolicy::adapts_rate`]).
    ///
    /// [`LinkPolicy::adapts_rate`]: wilis_mac::link::LinkPolicy::adapts_rate
    pub(super) adapts_rate: bool,
    /// The policy combines retransmissions through a HARQ core.
    pub(super) harq: bool,
    /// The policy asks for the all-rates oracle on every packet.
    pub(super) needs_oracle: bool,
    /// The policy adapts on the predicted PBER.
    needs_pber: bool,
}

/// One unit of worker-pool work.
#[derive(Debug, Clone)]
pub(super) enum Job {
    /// One or more shared-channel streams. A stream is the points sharing
    /// `(rate, channel, params, snr, seed, packets, payload)`: one transmit
    /// and channel realization per packet serves every member. A point
    /// whose link steers the rate or combines retransmissions, or that is
    /// scheduled to panic, is a stream of one in a job of its own. Light
    /// streams pack into one job whose block takes its lanes from all of
    /// them (see [`SweepPlan::compile`]).
    Group(Vec<Vec<usize>>),
    /// One contention cell.
    Cell(usize),
}

impl Job {
    /// The grid points this job computes, stream by stream.
    pub(super) fn members(&self) -> impl Iterator<Item = usize> + '_ {
        let (streams, cell) = match self {
            Job::Group(streams) => (streams.as_slice(), None),
            Job::Cell(i) => (&[][..], Some(*i)),
        };
        streams.iter().flatten().copied().chain(cell)
    }
}

/// The typed shared-channel coordinate two scenarios must agree on, field
/// for field, to share one stream: rate, channel name and parameters, SNR
/// (as bits — NaN-safe exact equality), seed, packet budget, payload
/// size. A structured tuple rather than a formatted string, so free-form
/// registry names can never collide into one key.
type GroupKey<'a> = (PhyRate, &'a str, &'a Params, u64, u64, u32, usize);

/// A distinct link configuration: rate, payload size, link name and
/// parameters — everything its run-time parameters and capabilities
/// depend on.
type LinkKey<'a> = (PhyRate, usize, &'a str, &'a Params);

/// What streams must agree on to pack into one job: the rate and payload
/// size every chain is built for, and the sorted `(decoder, link)` list of
/// their members, so every chain serves every lane.
type PackKey<'a> = (PhyRate, usize, &'a [(&'a str, &'a str)]);

/// What the compile step resolved for one grid point: its link
/// capabilities, and its run-time channel and link parameters, built once
/// per distinct configuration and shared by every point and job that
/// uses them.
#[derive(Debug, Clone)]
pub(super) struct PointPlan {
    pub(super) caps: LinkCaps,
    pub(super) channel_params: Arc<Params>,
    /// `None` for the PHY-only `"none"` link, which builds no policy.
    pub(super) link_params: Option<Arc<Params>>,
}

/// A grid compiled for execution: every name resolved, every pairing
/// validated, every link configuration probed once, and the points
/// partitioned into jobs.
#[derive(Debug)]
pub(super) struct SweepPlan {
    /// The jobs, in the order the worker pool deals them.
    pub(super) jobs: Vec<Job>,
    /// What was resolved for each grid point, by grid index.
    pub(super) points: Vec<PointPlan>,
}

impl SweepPlan {
    /// Compiles `scenarios` against `env`: a configuration error in any
    /// point fails here, before any Monte-Carlo work starts.
    ///
    /// Points fuse into shared-channel streams unless their link steers
    /// the rate or combines retransmissions (their transmit stream
    /// diverges from a shared one), or `faults` schedules a worker panic
    /// on them (run alone, the panic unwinds no co-member's work).
    /// Streams of the same rate, payload size and member
    /// `(decoder, link)` list, every member a stock decoder, pack into one
    /// job while their packets fit one block of [`MAX_BATCH_LANES`]: a
    /// one-packet point decodes in a full batch instead of alone. Packing
    /// is a pure function of the grid and the fault plan. When the grid
    /// collapses into fewer jobs than `threads`, the largest jobs are
    /// split — by streams, then by members — until every worker has work.
    pub(super) fn compile(
        scenarios: &[&Scenario],
        env: &SweepEnv,
        faults: Option<&FaultInjector>,
        threads: usize,
    ) -> Result<Self, RegistryError> {
        let (system, channels, links, contentions) = env;
        // The rate joins both keys because link-policy validity can depend
        // on it: an IR phase schedule legal at one puncture period is out
        // of range at another.
        let mut checked: BTreeSet<(PhyRate, &str, &str, &str, &str)> = BTreeSet::new();
        let mut probed: BTreeMap<LinkKey, (LinkCaps, Arc<Params>)> = BTreeMap::new();
        let mut channel_sets: BTreeMap<(&str, &Params, u64), Arc<Params>> = BTreeMap::new();
        let mut points = Vec::with_capacity(scenarios.len());
        for (i, sc) in scenarios.iter().enumerate() {
            let cell = sc.contention != "p2p";
            if cell && sc.nodes < 1 {
                return Err(RegistryError::invalid_config(format!(
                    "scenario {i} puts zero nodes in contention cell {:?}: a cell \
                     needs at least one node",
                    sc.contention
                )));
            }
            let channel_params = channel_sets
                .entry((&sc.channel, &sc.channel_params, sc.snr_db.to_bits()))
                .or_insert_with(|| Arc::new(runtime_channel_params(sc)))
                .clone();
            let fresh =
                checked.insert((sc.rate, &sc.decoder, &sc.channel, &sc.link, &sc.contention));
            if fresh {
                system.receiver(&SystemConfig::new(sc.rate, &sc.decoder))?;
                channels.build(&sc.channel, &channel_params)?;
            }
            let (caps, link_params) = if sc.link == "none" {
                (LinkCaps::default(), None)
            } else {
                let (caps, params) =
                    match probed.entry((sc.rate, sc.payload_bits, &sc.link, &sc.link_params)) {
                        Entry::Occupied(slot) => slot.get().clone(),
                        Entry::Vacant(slot) => {
                            let params = runtime_link_params(sc);
                            let caps = probe(links, &sc.link, &params)?;
                            slot.insert((caps, Arc::new(params))).clone()
                        }
                    };
                (caps, Some(params))
            };
            if fresh {
                check_pairing(sc, caps)?;
                if cell {
                    contentions.build(&sc.contention, &sc.contention_params)?;
                    if caps.adapts_rate {
                        return Err(RegistryError::invalid_config(format!(
                            "link policy {:?} steers the transmit rate, which a \
                             contention cell does not support: every node of a \
                             cell transmits at the scenario rate",
                            sc.link
                        )));
                    }
                }
            }
            points.push(PointPlan {
                caps,
                channel_params,
                link_params,
            });
        }

        let fuses = |i: usize| {
            let caps = points[i].caps;
            !(caps.adapts_rate
                || caps.harq
                || faults.is_some_and(|f| f.fires(FaultSite::WorkerPanic, i as u64)))
        };
        // Each stream's members, in first-member order. A cell, and a
        // point that does not fuse, is a stream of one. BTreeMap, not
        // HashMap: job order must be a pure function of the scenario list,
        // never of hasher state, for results to stay bit-identical across
        // runs and thread counts by construction.
        let mut streams: Vec<Vec<usize>> = Vec::new();
        let mut stream_of: BTreeMap<GroupKey, usize> = BTreeMap::new();
        for (i, sc) in scenarios.iter().enumerate() {
            if sc.contention == "p2p" && fuses(i) {
                let key: GroupKey = (
                    sc.rate,
                    &sc.channel,
                    &sc.channel_params,
                    sc.snr_db.to_bits(),
                    sc.seed,
                    sc.packets,
                    sc.payload_bits,
                );
                match stream_of.entry(key) {
                    Entry::Occupied(slot) => {
                        streams[*slot.get()].push(i);
                        continue;
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(streams.len());
                    }
                }
            }
            streams.push(vec![i]);
        }
        let mut jobs = pack(streams, scenarios, &fuses);

        // Fusion trades per-packet redundancy for scheduling granularity:
        // split the largest jobs until the pool is fed — a packed job by
        // its streams, a lone stream by its members (a split stream redoes
        // tx+channel once per piece, keeping the sharing within each
        // piece). Any partition yields bit-identical results, since group
        // execution equals solo execution member by member and a batched
        // decode equals a solo one lane by lane.
        while jobs.len() < threads {
            let Some(idx) = jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.members().nth(1).is_some())
                .max_by_key(|(_, j)| j.members().count())
                .map(|(i, _)| i)
            else {
                break;
            };
            if let Job::Group(streams) = &mut jobs[idx] {
                let tail = match streams.as_mut_slice() {
                    [stream] => vec![stream.split_off(stream.len() / 2)],
                    _ => streams.split_off(streams.len() / 2),
                };
                jobs.push(Job::Group(tail));
            }
        }
        Ok(Self { jobs, points })
    }
}

/// Packs streams into jobs. A light stream has fusing, stock-decoder
/// members and at most [`MAX_BATCH_LANES`] packets; the light streams of
/// one [`PackKey`], in stream order, split into the balanced jobs of
/// [`balance`], each job sitting where its first stream does. Every other
/// stream is a job of its own, and a cell's is a [`Job::Cell`].
fn pack(streams: Vec<Vec<usize>>, points: &[&Scenario], fuses: &dyn Fn(usize) -> bool) -> Vec<Job> {
    let max_lanes = MAX_BATCH_LANES as u32;
    let lead = |s: usize| points[streams[s][0]];
    // Each light stream's `(decoder, link)` members, sorted, side by side
    // in one buffer; a stream that is not light spans nothing.
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    let mut spans = Vec::with_capacity(streams.len());
    for (s, stream) in streams.iter().enumerate() {
        let (lead, start) = (lead(s), pairs.len());
        if lead.contention == "p2p"
            && lead.packets <= max_lanes
            && fuses(stream[0])
            && stream.iter().all(|&i| is_stock_decoder(&points[i].decoder))
        {
            let members = stream.iter().map(|&i| &points[i]);
            pairs.extend(members.map(|sc| (sc.decoder.as_str(), sc.link.as_str())));
            pairs[start..].sort_unstable();
        }
        spans.push(start..pairs.len());
    }
    // Each key's light streams, by stream index, in stream order.
    let mut groups: BTreeMap<PackKey, Vec<usize>> = BTreeMap::new();
    for (s, span) in spans.into_iter().enumerate() {
        if !span.is_empty() {
            let key = (lead(s).rate, lead(s).payload_bits, &pairs[span]);
            groups.entry(key).or_default().push(s);
        }
    }
    // Each stream's job: the stream it opens at, and its stream count.
    let mut job_of: Vec<(usize, usize)> = (0..streams.len()).map(|s| (s, 1)).collect();
    for members in groups.values() {
        let packets: Vec<u32> = members.iter().map(|&s| lead(s).packets).collect();
        let mut rest = members.as_slice();
        for count in balance(&packets, max_lanes) {
            let (job, tail) = rest.split_at(count);
            job.iter().for_each(|&s| job_of[s] = (job[0], count));
            rest = tail;
        }
    }
    // By opening stream: where its job sits in `jobs`.
    let mut at = vec![0; streams.len()];
    let mut jobs = Vec::new();
    for (s, stream) in streams.into_iter().enumerate() {
        let ((first, count), i) = (job_of[s], stream[0]);
        if first != s {
            if let Job::Group(into) = &mut jobs[at[first]] {
                into.push(stream);
            }
        } else if points[i].contention == "p2p" {
            at[s] = jobs.len();
            let mut into = Vec::with_capacity(count);
            into.push(stream);
            jobs.push(Job::Group(into));
        } else {
            jobs.push(Job::Cell(i));
        }
    }
    jobs
}

/// Splits streams of `packets[s]` packets each, in order, into
/// contiguous jobs of at most `max_lanes` packets, as evenly as
/// [`batch_block`] splits one stream's packets into blocks: job `b`
/// closes once it holds its balanced share of the total, or before a
/// stream that would overflow it. Seventeen one-packet streams split as
/// 6 + 6 + 5, not 8 + 8 + 1, so no job decodes a lone lane. Returns each
/// job's stream count.
fn balance(packets: &[u32], max_lanes: u32) -> Vec<usize> {
    let total: u32 = packets.iter().sum();
    let mut jobs = Vec::new();
    let (mut lanes, mut streams) = (0, 0);
    for &p in packets {
        let share = match batch_block(total, max_lanes, jobs.len() as u32) {
            0 => max_lanes,
            share => share,
        };
        if streams > 0 && (lanes >= share || lanes + p > max_lanes) {
            jobs.push(streams);
            (lanes, streams) = (0, 0);
        }
        lanes += p;
        streams += 1;
    }
    if streams > 0 {
        jobs.push(streams);
    }
    jobs
}

/// Builds one probe policy for `link` with its run-time parameters, so
/// rate-dependent validity checks see what the jobs will build.
fn probe(links: &LinkSlot, link: &str, params: &Params) -> Result<LinkCaps, RegistryError> {
    let mut policy = links.build(link, params)?;
    // Factories are infallible; a policy that swallowed a bad
    // configuration reports it here instead.
    if let Some(problem) = policy.config_error() {
        return Err(RegistryError::invalid_config(format!(
            "link policy {link:?} is misconfigured: {problem}"
        )));
    }
    Ok(LinkCaps {
        adapts_rate: policy.adapts_rate(),
        harq: policy.harq().is_some(),
        needs_oracle: policy.needs_oracle(),
        needs_pber: policy.needs_pber(),
    })
}

/// Every name resolved, but the decoder and link may still be an invalid
/// pairing: both halves come straight from user configuration, so these
/// are errors, not panics.
fn check_pairing(sc: &Scenario, link: LinkCaps) -> Result<(), RegistryError> {
    let soft = DecoderKind::from_registry_name(&sc.decoder).is_some();
    if link.needs_pber && !soft {
        return Err(RegistryError::invalid_config(format!(
            "link policy {:?} adapts on predicted PBER, but decoder \
             {:?} exports no SoftPHY BER estimate (its estimate \
             would be a constant 0.0); pair it with a soft decoder \
             such as \"sova\" or \"bcjr\"",
            sc.link, sc.decoder
        )));
    }
    if link.harq && !soft {
        return Err(RegistryError::invalid_config(format!(
            "link policy {:?} combines soft LLR planes across \
             retransmissions, but decoder {:?} makes hard decisions \
             and would discard them; pair it with a soft decoder \
             such as \"sova\" or \"bcjr\"",
            sc.link, sc.decoder
        )));
    }
    Ok(())
}

/// The channel parameters as the engine fills them in at run time: the
/// grid's own parameters plus `snr_db` from the scenario. Resolved once
/// per distinct configuration, for the compile probe and every job.
fn runtime_channel_params(sc: &Scenario) -> Params {
    let mut channel_params = sc.channel_params.clone();
    channel_params.set("snr_db", &format!("{}", sc.snr_db));
    channel_params
}

/// The link-policy parameters as the engine fills them in at run time:
/// the grid's own parameters plus `payload_bits` and `initial_rate_mbps`
/// from the scenario. Resolved once per distinct configuration and shared
/// by the probe and the jobs, so a future run-time parameter cannot reach
/// one and miss the other.
fn runtime_link_params(sc: &Scenario) -> Params {
    let mut link_params = sc.link_params.clone();
    link_params.set("payload_bits", &format!("{}", sc.payload_bits.max(1)));
    link_params.set("initial_rate_mbps", &format!("{}", sc.rate.mbps()));
    link_params
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SweepGrid, SweepRunner};

    /// The lanes of each job `compile` makes of `n` one-packet points.
    fn job_lanes(n: u64) -> Vec<usize> {
        let scenarios = SweepGrid::new()
            .rates(&[PhyRate::BpskHalf])
            .decoders(&["viterbi"])
            .seeds(&(0..n).collect::<Vec<_>>())
            .packets(1)
            .payload_bits(64)
            .scenarios();
        let env = (SweepRunner::new(1).env)();
        let points: Vec<&Scenario> = scenarios.iter().collect();
        let plan = SweepPlan::compile(&points, &env, None, 1).unwrap();
        plan.jobs.iter().map(|job| job.members().count()).collect()
    }

    #[test]
    fn light_streams_pack_into_balanced_jobs() {
        assert_eq!(job_lanes(9), [5, 4]);
        assert_eq!(job_lanes(16), [8, 8]);
        assert_eq!(job_lanes(17), [6, 6, 5]);
    }

    #[test]
    fn a_stream_that_would_overflow_its_share_starts_the_next_job() {
        assert_eq!(balance(&[1; 17], 8), [6, 6, 5]);
        assert_eq!(balance(&[5, 5, 5], 8), [1, 1, 1]);
        assert_eq!(balance(&[3, 3, 2, 4, 4], 8), [3, 2]);
        assert_eq!(balance(&[], 8), Vec::<usize>::new());
    }
}
