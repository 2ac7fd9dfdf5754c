//! The compile step: one pass over a grid that resolves every name,
//! probes each link configuration once, and partitions the points into
//! worker jobs.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use wilis_lis::registry::{Params, RegistryError};
use wilis_phy::PhyRate;
use wilis_softphy::DecoderKind;

use super::{LinkSlot, Scenario, SweepEnv};
use crate::faults::{FaultInjector, FaultSite};
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
    /// Point-to-point scenarios sharing `(rate, channel, params, snr,
    /// seed, packets, payload)`: one transmit and channel realization per
    /// packet serves every member. A point whose link steers the rate or
    /// combines retransmissions, or that is scheduled to panic, is a group
    /// of one.
    Group(Vec<usize>),
    /// One contention cell.
    Cell(usize),
}

impl Job {
    /// The grid points this job computes.
    pub(super) fn members(&self) -> &[usize] {
        match self {
            Job::Group(members) => members,
            Job::Cell(i) => std::slice::from_ref(i),
        }
    }
}

/// The typed shared-channel coordinate two scenarios must agree on, field
/// for field, to fuse into one [`Job::Group`]: rate, channel name and
/// parameters, SNR (as bits — NaN-safe exact equality), seed, packet
/// budget, payload size. A structured tuple rather than a formatted
/// string, so free-form registry names can never collide into one key.
type GroupKey<'a> = (PhyRate, &'a str, &'a Params, u64, u64, u32, usize);

/// A grid compiled for execution: every name resolved, every pairing
/// validated, every link configuration probed once, and the points
/// partitioned into jobs.
#[derive(Debug)]
pub(super) struct SweepPlan {
    /// The jobs, in the order the worker pool deals them.
    pub(super) jobs: Vec<Job>,
    /// The link capabilities of each grid point, by grid index.
    pub(super) caps: Vec<LinkCaps>,
}

impl SweepPlan {
    /// Compiles `scenarios` against `env`: a configuration error in any
    /// point fails here, before any Monte-Carlo work starts.
    ///
    /// Points fuse into shared-channel groups unless their link steers the
    /// rate or combines retransmissions (their transmit stream diverges
    /// from a shared one), or `faults` schedules a worker panic on them (a
    /// quarantine must not take fused co-members down with it, so the
    /// quarantine set stays a pure function of the grid and the fault
    /// plan). When the grid collapses into fewer jobs than `threads`, the
    /// largest groups are split until every worker has work.
    pub(super) fn compile(
        scenarios: &[Scenario],
        env: &SweepEnv,
        faults: Option<&FaultInjector>,
        threads: usize,
    ) -> Result<Self, RegistryError> {
        let (system, channels, links, contentions) = env;
        // The rate joins both keys because link-policy validity can depend
        // on it: an IR phase schedule legal at one puncture period is out
        // of range at another.
        let mut checked: BTreeSet<(PhyRate, &str, &str, &str, &str)> = BTreeSet::new();
        let mut probed: BTreeMap<(PhyRate, usize, &str, &Params), LinkCaps> = BTreeMap::new();
        let mut caps = Vec::with_capacity(scenarios.len());
        for (i, sc) in scenarios.iter().enumerate() {
            let cell = sc.contention != "p2p";
            if cell && sc.nodes < 1 {
                return Err(RegistryError::invalid_config(format!(
                    "scenario {i} puts zero nodes in contention cell {:?}: a cell \
                     needs at least one node",
                    sc.contention
                )));
            }
            let fresh =
                checked.insert((sc.rate, &sc.decoder, &sc.channel, &sc.link, &sc.contention));
            if fresh {
                system.receiver(&SystemConfig::new(sc.rate, &sc.decoder))?;
                channels.build(&sc.channel, &runtime_channel_params(sc))?;
            }
            let link = if sc.link == "none" {
                LinkCaps::default()
            } else {
                match probed.entry((sc.rate, sc.payload_bits, &sc.link, &sc.link_params)) {
                    Entry::Occupied(slot) => *slot.get(),
                    Entry::Vacant(slot) => *slot.insert(probe(links, sc)?),
                }
            };
            if fresh {
                check_pairing(sc, link)?;
                if cell {
                    contentions.build(&sc.contention, &sc.contention_params)?;
                    if link.adapts_rate {
                        return Err(RegistryError::invalid_config(format!(
                            "link policy {:?} steers the transmit rate, which a \
                             contention cell does not support: every node of a \
                             cell transmits at the scenario rate",
                            sc.link
                        )));
                    }
                }
            }
            caps.push(link);
        }

        // BTreeMap, not HashMap: job order must be a pure function of the
        // scenario list, never of hasher state, for results to stay
        // bit-identical across runs and thread counts by construction.
        let mut jobs: Vec<Job> = Vec::new();
        let mut groups: BTreeMap<GroupKey, usize> = BTreeMap::new();
        for (i, sc) in scenarios.iter().enumerate() {
            if sc.contention != "p2p" {
                jobs.push(Job::Cell(i));
                continue;
            }
            let alone = caps[i].adapts_rate
                || caps[i].harq
                || faults.is_some_and(|f| f.fires(FaultSite::WorkerPanic, i as u64));
            if alone {
                jobs.push(Job::Group(vec![i]));
                continue;
            }
            let key: GroupKey = (
                sc.rate,
                &sc.channel,
                &sc.channel_params,
                sc.snr_db.to_bits(),
                sc.seed,
                sc.packets,
                sc.payload_bits,
            );
            match groups.entry(key) {
                Entry::Occupied(slot) => {
                    if let Job::Group(members) = &mut jobs[*slot.get()] {
                        members.push(i);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(jobs.len());
                    jobs.push(Job::Group(vec![i]));
                }
            }
        }

        // Fusion trades per-packet redundancy for scheduling granularity:
        // split the largest groups until the pool is fed (a split group
        // redoes tx+channel once per piece, keeping the sharing within
        // each piece). Any partition yields bit-identical results, since
        // group execution equals solo execution member by member, and
        // splitting on the member axis leaves every piece's packet-axis
        // batch width unchanged.
        while jobs.len() < threads {
            let Some(idx) = jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| matches!(j, Job::Group(m) if m.len() >= 2))
                .max_by_key(|(_, j)| j.members().len())
                .map(|(i, _)| i)
            else {
                break;
            };
            if let Job::Group(members) = &mut jobs[idx] {
                let tail = members.split_off(members.len() / 2);
                jobs.push(Job::Group(tail));
            }
        }
        Ok(Self { jobs, caps })
    }
}

/// Builds one probe policy for `sc`'s link with the run-time parameters,
/// so rate-dependent validity checks see what the jobs will build.
fn probe(links: &LinkSlot, sc: &Scenario) -> Result<LinkCaps, RegistryError> {
    let mut policy = links.build(&sc.link, &runtime_link_params(sc))?;
    // Factories are infallible; a policy that swallowed a bad
    // configuration reports it here instead.
    if let Some(problem) = policy.config_error() {
        return Err(RegistryError::invalid_config(format!(
            "link policy {:?} is misconfigured: {problem}",
            sc.link
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
/// grid's own parameters plus `snr_db` from the scenario. Shared by the
/// compile probe, fused groups and cells, like [`runtime_link_params`].
pub(super) fn runtime_channel_params(sc: &Scenario) -> Params {
    let mut channel_params = sc.channel_params.clone();
    channel_params.set("snr_db", &format!("{}", sc.snr_db));
    channel_params
}

/// The link-policy parameters as the engine fills them in at run time:
/// the grid's own parameters plus `payload_bits` and `initial_rate_mbps`
/// from the scenario. One definition shared by the probe and the jobs, so
/// a future run-time parameter cannot be added to one and missed in the
/// other.
pub(super) fn runtime_link_params(sc: &Scenario) -> Params {
    let mut link_params = sc.link_params.clone();
    link_params.set("payload_bits", &format!("{}", sc.payload_bits.max(1)));
    link_params.set("initial_rate_mbps", &format!("{}", sc.rate.mbps()));
    link_params
}
