//! Deterministic fault injection: seed-addressed failures for the sweep
//! stack.
//!
//! A production-scale sweep service has to survive partial failure — a
//! panicking worker job, a store append that hits a full disk, a crash
//! that tears the final JSON line — and this repository's central
//! contract says even *failures* must be reproducible: a faulted run is
//! bit-identical at 1, 2, and 8 threads, exactly like a healthy one.
//! This module supplies the fault side of that contract. Every injected
//! failure is a pure function of `(fault_seed, site, occurrence_index)`:
//! no wall clock, no global counters shared across threads, no
//! scheduling dependence. A fault plan is configuration, not code: one
//! spec line names one of three closed plans — `none`, `bernoulli`
//! (per-site probabilities under a seed) or `targeted` (exact per-site
//! occurrence lists) — and [`FaultInjector::from_spec`] builds it. The
//! set is closed on purpose; nothing outside this module adds a plan.
//!
//! The occurrence index is defined per site so decisions stay
//! thread-invariant:
//!
//! | site | occurrence index |
//! |------|------------------|
//! | [`FaultSite::WorkerPanic`] | grid index of the point in the executed grid |
//! | [`FaultSite::StoreWrite`]  | retry attempt number within one append (0, 1, …) |
//! | [`FaultSite::StoreRead`]   | retry attempt number within one load |
//! | [`FaultSite::TornWrite`]   | content hash of the record line ([`occurrence_of`]) |
//! | [`FaultSite::CorruptRecord`] | content hash of the record line ([`occurrence_of`]) |
//!
//! Supervised execution ([`crate::scenario::SweepRunner::run_supervised`])
//! quarantines a panicking grid point as a typed
//! [`PointOutcome::Failed`] while every other point completes, and
//! returns a [`FaultReport`] tallying what fired.

use std::fmt;
use std::sync::Arc;

use wilis_fxp::rng::{mix_seed, SmallRng};
use wilis_lis::registry::{Params, RegistryError};

use crate::scenario::ScenarioResult;

/// A place in the sweep stack where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Panic inside a worker job, before the point's Monte-Carlo work.
    WorkerPanic,
    /// A store append attempt fails with a (simulated) IO error.
    StoreWrite,
    /// A store load attempt fails with a (simulated) IO error.
    StoreRead,
    /// The record's final line is written torn (no newline, half the
    /// bytes) — a crash mid-append.
    TornWrite,
    /// The record line is written whole but mangled — bit rot on disk.
    CorruptRecord,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::WorkerPanic,
        FaultSite::StoreWrite,
        FaultSite::StoreRead,
        FaultSite::TornWrite,
        FaultSite::CorruptRecord,
    ];

    /// The parameter name of this site in fault-plan [`Params`].
    pub fn key(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::StoreWrite => "store_write",
            FaultSite::StoreRead => "store_read",
            FaultSite::TornWrite => "torn_write",
            FaultSite::CorruptRecord => "corrupt_record",
        }
    }

    /// The seed-stream tag of this site: a high-bit constant in the same
    /// style as the engine's HARQ/backoff/arrival stream tags, so fault
    /// draws can never collide with Monte-Carlo draws.
    pub fn tag(self) -> u64 {
        match self {
            FaultSite::WorkerPanic => 0xFA01_7AC0_0000_0000,
            FaultSite::StoreWrite => 0xFA02_7AC0_0000_0000,
            FaultSite::StoreRead => 0xFA03_7AC0_0000_0000,
            FaultSite::TornWrite => 0xFA04_7AC0_0000_0000,
            FaultSite::CorruptRecord => 0xFA05_7AC0_0000_0000,
        }
    }
}

/// The closed set of fault plans a [`FaultInjector`] can hold. Every
/// decision is a pure function of the plan and the `(site, occurrence)`
/// pair, so the runner's workers and the store may consult one plan
/// from any thread and get the same answer.
#[derive(Debug)]
enum FaultPlan {
    /// `"none"`: never fires — the explicit way to run the supervised
    /// path with zero faults.
    Never,
    /// `"bernoulli"`: each site fires independently with the probability
    /// named by its [`FaultSite::key`] parameter (absent ⇒ 0), drawn
    /// under `seed`.
    Bernoulli {
        seed: u64,
        p: [f64; FaultSite::ALL.len()],
    },
    /// `"targeted"`: each site fires precisely at the occurrence indices
    /// listed (as `+`-separated integers) under its [`FaultSite::key`]
    /// parameter — the surgical plan tests use to quarantine one chosen
    /// grid point or fail one chosen retry attempt.
    Targeted {
        at: [Vec<u64>; FaultSite::ALL.len()],
    },
}

impl FaultPlan {
    /// The plan names, sorted, as an unknown-name error lists them.
    const NAMES: [&'static str; 3] = ["bernoulli", "none", "targeted"];

    fn new(name: &str, params: &Params) -> Result<Self, RegistryError> {
        match name {
            "none" => Ok(FaultPlan::Never),
            "bernoulli" => Ok(FaultPlan::Bernoulli {
                seed: params.get_u64("seed").unwrap_or(0),
                p: FaultSite::ALL.map(|site| params.get_f64(site.key()).unwrap_or(0.0)),
            }),
            "targeted" => Ok(FaultPlan::Targeted {
                at: FaultSite::ALL.map(|site| match params.get(site.key()) {
                    Some(list) => list
                        .split('+')
                        .filter_map(|tok| tok.trim().parse().ok())
                        .collect(),
                    None => Vec::new(),
                }),
            }),
            _ => Err(RegistryError::UnknownName {
                slot: "fault".to_string(),
                requested: name.to_string(),
                available: Self::NAMES.map(String::from).to_vec(),
            }),
        }
    }

    fn fires(&self, site: FaultSite, occurrence: u64) -> bool {
        match self {
            FaultPlan::Never => false,
            FaultPlan::Bernoulli { seed, p } => {
                let p = p[site as usize];
                if p <= 0.0 {
                    return false;
                }
                if p >= 1.0 {
                    return true;
                }
                let draw_seed = mix_seed(mix_seed(*seed, site.tag()), occurrence);
                SmallRng::seed_from_u64(draw_seed).next_f64() < p
            }
            FaultPlan::Targeted { at } => at[site as usize].contains(&occurrence),
        }
    }
}

/// A shareable handle on a fault plan — the object the runner and the
/// store consult at every fault site. Cloning shares the plan.
#[derive(Clone)]
pub struct FaultInjector {
    plan: Arc<FaultPlan>,
    spec: String,
}

impl FaultInjector {
    /// Builds the plan named `name` — `"none"`, `"bernoulli"` or
    /// `"targeted"` — with `params`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownName`] (slot `"fault"`) when
    /// `name` is none of the three.
    pub fn new(name: &str, params: &Params) -> Result<Self, RegistryError> {
        let plan = FaultPlan::new(name, params)?;
        let rendered: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let spec = if rendered.is_empty() {
            name.to_string()
        } else {
            format!("{name}:{}", rendered.join(","))
        };
        Ok(Self {
            plan: Arc::new(plan),
            spec,
        })
    }

    /// Parses a one-line spec — `"name"` or `"name:key=val,key=val"`,
    /// e.g. `"bernoulli:seed=7,worker_panic=0.05"` or
    /// `"targeted:worker_panic=2+5"` — and builds the injector. This is
    /// the format the `WILIS_FAULTS` environment variable takes (see
    /// [`crate::service::SweepService::from_env`]).
    ///
    /// # Errors
    ///
    /// As [`FaultInjector::new`], plus a config error for a malformed
    /// parameter list.
    ///
    /// # Example
    ///
    /// ```
    /// use wilis::lis::registry::RegistryError;
    /// use wilis::{FaultInjector, FaultSite};
    ///
    /// let inj = FaultInjector::from_spec("targeted:worker_panic=2+5").unwrap();
    /// assert!(inj.fires(FaultSite::WorkerPanic, 5));
    /// match FaultInjector::from_spec("chaos") {
    ///     Err(RegistryError::UnknownName { slot, available, .. }) => {
    ///         assert_eq!(slot, "fault");
    ///         assert_eq!(available, ["bernoulli", "none", "targeted"]);
    ///     }
    ///     other => panic!("expected an unknown-name error, got {other:?}"),
    /// }
    /// ```
    pub fn from_spec(spec: &str) -> Result<Self, RegistryError> {
        let (name, rest) = match spec.split_once(':') {
            Some((name, rest)) => (name.trim(), rest),
            None => (spec.trim(), ""),
        };
        let params = Params::from_spec(rest).ok_or_else(|| {
            RegistryError::invalid_config(format!(
                "malformed fault spec {spec:?}: expected name:key=val,key=val"
            ))
        })?;
        Self::new(name, &params)
    }

    /// An injector that never fires — the supervised path with the fault
    /// layer wired in but idle.
    pub fn disabled() -> Self {
        Self {
            plan: Arc::new(FaultPlan::Never),
            spec: "none".to_string(),
        }
    }

    /// Whether the fault at `site` fires on its `occurrence`-th
    /// opportunity — a pure function of the injector's configuration and
    /// the arguments.
    pub fn fires(&self, site: FaultSite, occurrence: u64) -> bool {
        self.plan.fires(site, occurrence)
    }

    /// The spec string this injector was built from (for diagnostics).
    pub fn spec(&self) -> &str {
        &self.spec
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FaultInjector({})", self.spec)
    }
}

/// The stable occurrence index of a content-addressed fault site
/// (FNV-1a over the record bytes): two threads appending the same record
/// compute the same index, so torn-write and corrupt-record decisions
/// never depend on completion order.
pub fn occurrence_of(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The outcome of one supervised grid point: its result, or the typed
/// quarantine record of its worker-job panic.
///
/// The variants are deliberately unboxed: an outcome moves exactly once
/// per grid point on the cold path, and indirection would buy that move
/// nothing while costing an allocation per point.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point ran to completion; the result keeps the full
    /// bit-identity contract.
    Completed(ScenarioResult),
    /// The point's worker job unwound and was quarantined; every other
    /// point of the grid still completed.
    Failed {
        /// Grid index of the quarantined point (its submission index in
        /// the executed grid).
        job: usize,
        /// The panic payload, rendered to text.
        message: String,
    },
}

impl PointOutcome {
    /// The completed result, if the point was not quarantined.
    pub fn result(&self) -> Option<&ScenarioResult> {
        match self {
            PointOutcome::Completed(r) => Some(r),
            PointOutcome::Failed { .. } => None,
        }
    }

    /// Consumes the outcome into its completed result, if any.
    pub fn into_result(self) -> Option<ScenarioResult> {
        match self {
            PointOutcome::Completed(r) => Some(r),
            PointOutcome::Failed { .. } => None,
        }
    }

    /// True when the point was quarantined.
    pub fn is_failed(&self) -> bool {
        matches!(self, PointOutcome::Failed { .. })
    }
}

/// One quarantined grid point inside a [`FaultReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Grid index of the quarantined point.
    pub point: usize,
    /// The panic payload, rendered to text.
    pub message: String,
}

/// What the fault layer observed over one supervised run: quarantined
/// points plus every store degradation event, all deterministic — equal
/// grids under equal injectors produce equal reports at any thread
/// count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Quarantined grid points, sorted by grid index.
    pub quarantined: Vec<Quarantine>,
    /// How many quarantines were injected by the fault plan (the rest,
    /// if any, unwound organically).
    pub injected_panics: u64,
    /// Store append attempts failed by injection.
    pub store_write_faults: u64,
    /// Store load attempts failed by injection.
    pub store_read_faults: u64,
    /// Records written torn (crash-mid-append simulation).
    pub torn_writes: u64,
    /// Records written mangled (bit-rot simulation).
    pub corrupt_records: u64,
    /// Store operations that succeeded only after deterministic retry
    /// (backoff is counted in attempts, never in wall-clock).
    pub store_retries: u64,
    /// Store operations absorbed as IO errors after the retry budget.
    pub store_io_errors: u64,
    /// Always 0: the result store is append-only and evicts nothing. The
    /// field stays because the golden digest hashes this report's `Debug`
    /// text, which a removed field would change.
    pub store_evictions: u64,
}

impl FaultReport {
    /// True when nothing fired and nothing degraded.
    pub fn is_clean(&self) -> bool {
        *self == FaultReport::default()
    }

    /// One line of human-readable fault accounting for driver output.
    pub fn summary(&self) -> String {
        format!(
            "faults: {} quarantined ({} injected), {} write faults, {} read faults, \
             {} torn, {} corrupt, {} retries, {} io errors",
            self.quarantined.len(),
            self.injected_panics,
            self.store_write_faults,
            self.store_read_faults,
            self.torn_writes,
            self.corrupt_records,
            self.store_retries,
            self.store_io_errors,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_addressed() {
        let mut p = Params::new();
        p.set("seed", "9").set("worker_panic", "0.5");
        let a = FaultInjector::new("bernoulli", &p).unwrap();
        let b = FaultInjector::new("bernoulli", &p).unwrap();
        let mut fired = 0u32;
        for occ in 0..256 {
            let hit = a.fires(FaultSite::WorkerPanic, occ);
            assert_eq!(hit, b.fires(FaultSite::WorkerPanic, occ), "purity");
            assert!(!a.fires(FaultSite::StoreWrite, occ), "p absent = never");
            fired += u32::from(hit);
        }
        assert!(
            (64..192).contains(&fired),
            "p=0.5 fires about half: {fired}"
        );

        let mut q = Params::new();
        q.set("seed", "10").set("worker_panic", "0.5");
        let c = FaultInjector::new("bernoulli", &q).unwrap();
        assert!(
            (0..256)
                .any(|occ| a.fires(FaultSite::WorkerPanic, occ)
                    != c.fires(FaultSite::WorkerPanic, occ)),
            "different seeds give different plans"
        );
    }

    #[test]
    fn targeted_fires_exactly_where_told() {
        let inj = FaultInjector::from_spec("targeted:worker_panic=2+5,store_write=0").unwrap();
        for occ in 0..8 {
            assert_eq!(inj.fires(FaultSite::WorkerPanic, occ), occ == 2 || occ == 5);
            assert_eq!(inj.fires(FaultSite::StoreWrite, occ), occ == 0);
            assert!(!inj.fires(FaultSite::TornWrite, occ));
        }
    }

    #[test]
    fn spec_round_trip_and_errors() {
        assert!(FaultInjector::from_spec("none").is_ok());
        assert!(FaultInjector::from_spec("bernoulli:seed=1,torn_write=1.0").is_ok());
        assert!(FaultInjector::from_spec("no-such-model").is_err());
        assert!(FaultInjector::from_spec("bernoulli:not-a-pair").is_err());
        let inj = FaultInjector::from_spec("targeted:worker_panic=3").unwrap();
        assert_eq!(inj.spec(), "targeted:worker_panic=3");
        assert!(!FaultInjector::disabled().fires(FaultSite::WorkerPanic, 0));
    }

    #[test]
    fn occurrence_hash_is_stable_and_content_addressed() {
        let a = occurrence_of(b"{\"v\":1}");
        assert_eq!(a, occurrence_of(b"{\"v\":1}"));
        assert_ne!(a, occurrence_of(b"{\"v\":2}"));
    }
}
