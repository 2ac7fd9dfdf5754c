//! The sweep service: the scenario engine as a long-running, memoizing
//! server instead of a batch runner.
//!
//! A [`SweepService`] wraps a [`SweepRunner`] with a [`ResultStore`]:
//! every grid point is keyed by its full typed coordinate
//! ([`StoreKey`] — all [`Scenario`] fields plus the runner knobs that
//! change what a result contains), repeated points are served from the
//! store without simulating a single packet, and fresh points stream
//! back through [`SweepService::run_streaming_supervised`]'s per-point
//! callback as their worker jobs finish. The misses run, read in place,
//! through the runner's job core and outcome assembler: each finished
//! job's points reach the calling thread over one channel, and the
//! service calls the callback and stores each point there, while the
//! remaining jobs run. Each point's key is built once and moved into the
//! store with its result, and the store *group-commits*: the records of
//! one finished job go out in one `write_all`, with torn and corrupt
//! injections still decided per record by content. The store file is
//! append-only: that commit is the only write after the load. Results
//! carry their hint bins as a compact
//! [`HintBins`](crate::scenario::HintBins), so a hard decoder's result
//! holds one bin instead of 64. The store counts
//! every load and degradation event in one [`StoreCounters`] record,
//! which [`SweepService::metrics`] and each run's
//! [`FaultReport`](crate::FaultReport) read.
//!
//! With `WILIS_STORE=path` (see [`SweepService::from_env`]) the store is
//! mirrored to a JSON-lines file, so the cache survives across
//! *processes* — figure drivers, benches, and tests all become thin
//! clients of one store.
//!
//! Because a cached result is bit-equal to a fresh one (floats travel
//! through the disk store as IEEE-754 bit patterns), the engine's
//! determinism contract extends across the cache: any cold/warm split,
//! any thread count, same bits. Pair the service with a
//! [`StoppingRule`] (see [`SweepRunner::with_stopping`]) and points
//! also stop as soon as their Wilson interval closes — the rule joins
//! the cache key, so fixed-budget and confidence-stopped results never
//! alias.
//!
//! # Example
//!
//! ```
//! use wilis::scenario::{SweepGrid, SweepRunner};
//! use wilis::service::SweepService;
//! use wilis::phy::PhyRate;
//!
//! let grid = SweepGrid::new()
//!     .rates(&[PhyRate::QpskHalf])
//!     .decoders(&["viterbi"])
//!     .snrs_db(&[6.0, 8.0])
//!     .packets(2)
//!     .payload_bits(400);
//! let mut service = SweepService::new(SweepRunner::new(2));
//! let cold = service.run(&grid.scenarios()).unwrap();
//! let warm = service.run(&grid.scenarios()).unwrap();
//! assert_eq!(cold, warm);
//! assert_eq!(service.metrics().hits, 2); // warm run simulated nothing
//! ```

mod json;
mod store;

pub use store::{ResultStore, StoppingKey, StoreCounters, StoreKey, STORE_ATTEMPTS};

use std::collections::BTreeMap;

use wilis_lis::registry::RegistryError;

use crate::faults::{FaultInjector, PointOutcome};
use crate::scenario::{Scenario, ScenarioResult, StoppingRule, SupervisedSweep, SweepRunner};

/// Cache-effectiveness and store-degradation counters of a
/// [`SweepService`], cumulative since construction (or the last
/// [`SweepService::reset_metrics`]). The `store_*` counters are the
/// backing [`ResultStore`]'s [`StoreCounters`], read when
/// [`SweepService::metrics`] is called, so a driver that only holds the
/// service still sees every degradation event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Grid points served from the store.
    pub hits: u64,
    /// Grid points that had to simulate.
    pub misses: u64,
    /// Packets actually simulated by misses.
    pub packets_simulated: u64,
    /// Packets *not* simulated thanks to hits — the sum of cached
    /// results' packet counts (for duplicate points within one call,
    /// every copy beyond the first counts as saved).
    pub packets_saved: u64,
    /// Records loaded from the disk store at construction.
    pub store_entries_loaded: u64,
    /// Corrupt/foreign store lines skipped at load (a torn final line
    /// counts here).
    pub store_lines_skipped: u64,
    /// Store records of other result epochs skipped at load: never
    /// served, and not counted as skipped.
    pub store_stale: u64,
    /// Store IO failures absorbed after the retry budget (the service
    /// degrades to in-memory).
    pub store_io_errors: u64,
    /// Deterministic store retry attempts performed.
    pub store_retries: u64,
    /// Store append attempts failed by fault injection.
    pub store_write_faults: u64,
    /// Store load attempts failed by fault injection.
    pub store_read_faults: u64,
    /// Records written torn by fault injection.
    pub store_torn_writes: u64,
    /// Records written mangled by fault injection.
    pub store_corrupt_records: u64,
}

impl ServiceMetrics {
    /// One line of human-readable cache and store-degradation accounting
    /// for driver output.
    pub fn summary(&self) -> String {
        format!(
            "cache: {} hits, {} misses, {} packets simulated, {} packets saved; \
             store: {} loaded, {} skipped, {} stale, {} io errors, {} retries",
            self.hits,
            self.misses,
            self.packets_simulated,
            self.packets_saved,
            self.store_entries_loaded,
            self.store_lines_skipped,
            self.store_stale,
            self.store_io_errors,
            self.store_retries,
        )
    }
}

/// A memoizing, streaming front end over [`SweepRunner`] — see the
/// [module docs](self).
#[derive(Debug)]
pub struct SweepService {
    runner: SweepRunner,
    store: ResultStore,
    metrics: ServiceMetrics,
}

impl SweepService {
    /// A service over `runner` with a fresh in-memory store.
    pub fn new(runner: SweepRunner) -> Self {
        Self::with_store(runner, ResultStore::in_memory())
    }

    /// A service over `runner` backed by an explicit store.
    pub fn with_store(runner: SweepRunner, store: ResultStore) -> Self {
        Self {
            runner,
            store,
            metrics: ServiceMetrics::default(),
        }
    }

    /// A service whose store location follows the `WILIS_STORE`
    /// environment variable: set (and non-empty), results are mirrored
    /// to that JSON-lines file and any records already there are served
    /// as cache hits; unset, the store is in-memory only.
    ///
    /// `WILIS_FAULTS` (a [`FaultInjector::from_spec`] spec, e.g.
    /// `targeted:worker_panic=2` or `bernoulli:seed=7,store_write=0.1`)
    /// installs a fault injector on both the runner and the store; an
    /// unparsable spec is ignored — fault injection is a test/debug
    /// knob, never worth failing a real sweep over.
    pub fn from_env(runner: SweepRunner) -> Self {
        let mut service = match std::env::var("WILIS_STORE") {
            Ok(path) if !path.is_empty() => Self::with_store(runner, ResultStore::at_path(path)),
            _ => Self::new(runner),
        };
        if let Ok(spec) = std::env::var("WILIS_FAULTS") {
            if !spec.is_empty() {
                if let Ok(injector) = FaultInjector::from_spec(&spec) {
                    service.set_faults(Some(injector));
                }
            }
        }
        service
    }

    /// Installs (or clears) a fault injector on both the runner (worker
    /// panics) and the store (IO, torn-write, corrupt-record sites).
    pub fn set_faults(&mut self, faults: Option<FaultInjector>) {
        self.runner = self.runner.clone().with_faults(faults.clone());
        self.store.set_faults(faults);
    }

    /// The underlying runner.
    pub fn runner(&self) -> &SweepRunner {
        &self.runner
    }

    /// The backing store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Cumulative cache metrics, with the `store_*` fields read from the
    /// backing store's [`ResultStore::counters`] at the time of the call.
    pub fn metrics(&self) -> ServiceMetrics {
        let c = self.store.counters();
        ServiceMetrics {
            store_entries_loaded: c.loaded,
            store_lines_skipped: c.skipped,
            store_stale: c.stale,
            store_io_errors: c.io_errors,
            store_retries: c.retries,
            store_write_faults: c.write_faults,
            store_read_faults: c.read_faults,
            store_torn_writes: c.torn_writes,
            store_corrupt_records: c.corrupt_records,
            ..self.metrics
        }
    }

    /// Zeroes the per-run counters (hits, misses, packet counts); the
    /// store-describing counters persist, since they are the backing
    /// store's cumulative state.
    pub fn reset_metrics(&mut self) {
        self.metrics = ServiceMetrics::default();
    }

    /// Installs (or clears) the runner's confidence-driven stopping
    /// rule. The rule is part of the cache key: results computed under
    /// different rules never alias.
    pub fn set_stopping(&mut self, rule: Option<StoppingRule>) {
        self.runner = self.runner.clone().with_stopping(rule);
    }

    /// Toggles per-packet scatter recording on the runner. Also part of
    /// the cache key — a result with scatter data is a different record
    /// than one without.
    pub fn set_record_packet_stats(&mut self, on: bool) {
        self.runner = self.runner.clone().record_packet_stats(on);
    }

    /// The cache key of `sc` under the service's current configuration.
    pub fn key_for(&self, sc: &Scenario) -> StoreKey {
        StoreKey::new(
            sc,
            self.runner.records_packet_stats(),
            self.runner.stopping(),
        )
    }

    /// Runs a grid through the cache: hits are served from the store,
    /// misses are simulated (deduplicated — a coordinate that appears
    /// twice in `scenarios` simulates once) and inserted. Results come
    /// back in submission order, bit-identical to what [`SweepRunner::run`]
    /// would have produced for the whole grid.
    ///
    /// # Errors
    ///
    /// As [`SweepRunner::run`]; on error the store keeps any points
    /// that completed before the failure. A quarantined grid point is
    /// reported after the grid drains, as an `InvalidConfig` error
    /// naming the lowest quarantined submission index — use
    /// [`SweepService::run_supervised`] to get the partial results.
    pub fn run(&mut self, scenarios: &[Scenario]) -> Result<Vec<ScenarioResult>, RegistryError> {
        self.run_supervised(scenarios)?.into_results()
    }

    /// Supervised variant of [`SweepService::run`]: quarantined grid
    /// points come back as typed [`PointOutcome::Failed`] entries beside
    /// every completed point, with a [`FaultReport`](crate::FaultReport)
    /// tallying the run's quarantines and store degradation (the store
    /// counters are deltas across this run). With no faults fired the
    /// outcomes are exactly [`SweepService::run`]'s results, bit for bit,
    /// and the report is clean.
    ///
    /// # Errors
    ///
    /// As [`SweepRunner::run`] — configuration errors are still errors;
    /// only panics are quarantined.
    pub fn run_supervised(
        &mut self,
        scenarios: &[Scenario],
    ) -> Result<SupervisedSweep, RegistryError> {
        self.run_streaming_supervised(scenarios, |_, _| {})
    }

    /// Streaming variant of [`SweepService::run_supervised`], and the core
    /// under every service run: `on_outcome(i, &outcome)` fires on the
    /// calling thread for each grid point as it becomes available —
    /// immediately for cache hits, then in completion order as fresh
    /// points finish simulating, quarantined points included.
    ///
    /// The run dedups the grid against the store, simulates the misses in
    /// [`StoreKey`] order, fans each outcome out to every submission index
    /// that asked for it, and adds the store counters to the report as
    /// deltas across the run.
    ///
    /// # Errors
    ///
    /// As [`SweepService::run_supervised`].
    pub fn run_streaming_supervised<F>(
        &mut self,
        scenarios: &[Scenario],
        mut on_outcome: F,
    ) -> Result<SupervisedSweep, RegistryError>
    where
        F: FnMut(usize, &PointOutcome),
    {
        let before = self.store.counters();
        let mut slots = vec![None; scenarios.len()];
        // Misses, deduplicated by coordinate: each unique key simulates
        // once and fans out to every submission index that asked for it,
        // from its first asker to its last along `next_asker`.
        let mut pending: BTreeMap<StoreKey, (usize, usize)> = BTreeMap::new();
        let mut next_asker = vec![None; scenarios.len()];
        for (i, sc) in scenarios.iter().enumerate() {
            let key = self.key_for(sc);
            if let Some(hit) = self.store.get(&key) {
                let mut result = hit.clone();
                result.scenario = i;
                self.metrics.hits += 1;
                self.metrics.packets_saved += result.packets;
                let outcome = PointOutcome::Completed(result);
                on_outcome(i, &outcome);
                slots[i] = Some(outcome);
            } else {
                match pending.entry(key) {
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        // A duplicate coordinate within one call: the
                        // second copy is a hit-in-waiting, not a miss.
                        self.metrics.hits += 1;
                        let last = &mut e.get_mut().1;
                        next_asker[*last] = Some(i);
                        *last = i;
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        self.metrics.misses += 1;
                        e.insert((i, i));
                    }
                }
            }
        }

        let mut injected_panics = 0;
        if !pending.is_empty() {
            // The misses in key order: miss `j` keeps its key until the key
            // moves into the store with its result.
            let mut misses: Vec<_> = pending
                .into_iter()
                .map(|(key, (first, _))| (Some(key), first))
                .collect();
            let points: Vec<&Scenario> = misses.iter().map(|&(_, i)| &scenarios[i]).collect();
            let askers = |first| std::iter::successors(Some(first), |&i| next_asker[i]);
            let runner = &self.runner;
            let store = &mut self.store;
            let metrics = &mut self.metrics;
            runner.run_jobs(&points, |outcomes| {
                for (j, outcome) in outcomes {
                    let (key, first) = &mut misses[j];
                    match outcome {
                        PointOutcome::Completed(result) => {
                            metrics.packets_simulated += result.packets;
                            for i in askers(*first) {
                                if i != *first {
                                    metrics.packets_saved += result.packets;
                                }
                                let mut copy = result.clone();
                                copy.scenario = i;
                                let delivered = PointOutcome::Completed(copy);
                                on_outcome(i, &delivered);
                                slots[i] = Some(delivered);
                            }
                            // Stored with a neutral submission index, so
                            // the disk record is independent of this
                            // call's grid layout (hits rewrite the index
                            // anyway).
                            let mut canonical = result;
                            canonical.scenario = 0;
                            if let Some(key) = key.take() {
                                store.stage(key, canonical);
                            }
                        }
                        PointOutcome::Failed { message, .. } => {
                            // Quarantines fan out too — every submission
                            // index that asked for the failed coordinate
                            // gets the typed failure, and an injected
                            // panic counts once per copy. Nothing is
                            // stored.
                            for i in askers(*first) {
                                injected_panics += u64::from(runner.panics_at(j));
                                let delivered = PointOutcome::Failed {
                                    job: i,
                                    message: message.clone(),
                                };
                                on_outcome(i, &delivered);
                                slots[i] = Some(delivered);
                            }
                        }
                    }
                }
                // Group commit: the job's records go out in one write.
                store.commit();
            })?;
        }

        let mut sweep = SupervisedSweep::assemble(slots, injected_panics)?;
        let after = self.store.counters();
        let report = &mut sweep.report;
        report.store_write_faults = after.write_faults - before.write_faults;
        report.store_read_faults = after.read_faults - before.read_faults;
        report.torn_writes = after.torn_writes - before.torn_writes;
        report.corrupt_records = after.corrupt_records - before.corrupt_records;
        report.store_retries = after.retries - before.retries;
        report.store_io_errors = after.io_errors - before.io_errors;
        Ok(sweep)
    }
}
