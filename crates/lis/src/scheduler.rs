//! System assembly and the exact multi-rate scheduler.

use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::clock::{lcm, ClockHandle, ClockState};
use crate::fifo::{Fifo, LinkSpec, Sink, Source};
use crate::module::{Module, ModuleId};
use crate::Freq;

/// Object-safe probe into a link, type-erased so the scheduler can observe
/// every FIFO in the system regardless of element type.
trait LinkProbe {
    fn occupancy(&self) -> usize;
    fn label(&self) -> &str;
}

struct TypedProbe<T> {
    source: Source<T>,
    label: String,
}

impl<T> LinkProbe for TypedProbe<T> {
    fn occupancy(&self) -> usize {
        // `can_deq` is about visibility; for quiescence we need raw length,
        // which deq_count/enq_count difference gives us exactly.
        (self.source_len()) as usize
    }
    fn label(&self) -> &str {
        &self.label
    }
}

impl<T> TypedProbe<T> {
    fn source_len(&self) -> u64 {
        // enq_count is only on Sink; track via counts stored on Source side.
        self.source.pending_len()
    }
}

/// Module storage with `Any` access for post-simulation result extraction.
trait AnyModule: Module {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M: Module + 'static> AnyModule for M {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Domain {
    clock: Rc<ClockState>,
    modules: Vec<Box<dyn AnyModule>>,
    /// Absolute time (base units) of this domain's next rising edge.
    next_edge: u64,
}

/// Incrementally assembles a [`System`]: clock domains, modules, and links.
///
/// This plays the role of the paper's extended SoftConnections compiler
/// (§2): links are typed, carry the clock information of both endpoints,
/// and a clock-domain crossing is inserted automatically whenever the two
/// endpoints live in different domains.
pub struct SystemBuilder {
    domains: Vec<Domain>,
    probes: Vec<Box<dyn LinkProbe>>,
    named: BTreeMap<String, NamedConnection>,
}

struct NamedConnection {
    sink: Option<Box<dyn Any>>,
    source: Option<Box<dyn Any>>,
}

impl SystemBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            domains: Vec::new(),
            probes: Vec::new(),
            named: BTreeMap::new(),
        }
    }

    /// Declares a clock domain running at `freq`.
    pub fn clock(&mut self, name: &str, freq: Freq) -> ClockHandle {
        let state = Rc::new(ClockState {
            name: name.to_string(),
            freq,
            edges: Cell::new(0),
            period_units: Cell::new(0),
        });
        let index = self.domains.len();
        self.domains.push(Domain {
            clock: Rc::clone(&state),
            modules: Vec::new(),
            next_edge: 0,
        });
        ClockHandle { state, index }
    }

    /// Creates a typed link from a module in domain `from` to a module in
    /// domain `to`, returning the producer and consumer ports.
    ///
    /// If the endpoints are in different domains the visibility delay is
    /// raised to at least 2 consumer edges, modeling the two-flop
    /// synchronizer a clock-domain crossing requires. Same-domain links use
    /// the spec as given.
    pub fn link<T: 'static>(
        &mut self,
        from: &ClockHandle,
        to: &ClockHandle,
        spec: LinkSpec,
    ) -> (Sink<T>, Source<T>) {
        let spec = if from.index != to.index && spec.visibility_delay() < 2 {
            spec.delay(2)
        } else {
            spec
        };
        let fifo = Fifo::new(spec, Rc::clone(&to.state));
        let (sink, source) = fifo.ports();
        let (probe_sink, probe_source) = fifo.ports();
        let _ = probe_sink; // the probe only observes
        self.probes.push(Box::new(TypedProbe {
            source: probe_source,
            label: format!("{}->{}", from.name(), to.name()),
        }));
        (sink, source)
    }

    /// Declares a *named* connection (SoftConnections style): the topology
    /// is described once, and modules fetch their port halves by name with
    /// [`SystemBuilder::take_sink`] / [`SystemBuilder::take_source`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is already declared.
    pub fn connection<T: 'static>(
        &mut self,
        name: &str,
        from: &ClockHandle,
        to: &ClockHandle,
        spec: LinkSpec,
    ) {
        assert!(
            !self.named.contains_key(name),
            "connection {name:?} declared twice"
        );
        let (sink, source) = self.link::<T>(from, to, spec);
        self.named.insert(
            name.to_string(),
            NamedConnection {
                sink: Some(Box::new(sink)),
                source: Some(Box::new(source)),
            },
        );
    }

    /// Claims the producer half of a named connection.
    ///
    /// # Panics
    ///
    /// Panics if the connection does not exist, was declared with a
    /// different element type, or its sink was already taken.
    pub fn take_sink<T: 'static>(&mut self, name: &str) -> Sink<T> {
        let conn = self
            .named
            .get_mut(name)
            .unwrap_or_else(|| panic!("no connection named {name:?}")); // lint: allow(panic-policy) — documented panicking API (`# Panics`): misnaming a connection is a programmer error
        let boxed = conn
            .sink
            .take()
            .unwrap_or_else(|| panic!("sink of {name:?} already taken")); // lint: allow(panic-policy) — documented panicking API (`# Panics`): double-claiming an endpoint is a programmer error
        *boxed
            .downcast::<Sink<T>>()
            // lint: allow(panic-policy) — documented panicking API (`# Panics`): a type mismatch is a programmer error
            .unwrap_or_else(|_| panic!("connection {name:?} has a different element type"))
    }

    /// Claims the consumer half of a named connection.
    ///
    /// # Panics
    ///
    /// Panics if the connection does not exist, was declared with a
    /// different element type, or its source was already taken.
    pub fn take_source<T: 'static>(&mut self, name: &str) -> Source<T> {
        let conn = self
            .named
            .get_mut(name)
            .unwrap_or_else(|| panic!("no connection named {name:?}")); // lint: allow(panic-policy) — documented panicking API (`# Panics`): misnaming a connection is a programmer error
        let boxed = conn
            .source
            .take()
            .unwrap_or_else(|| panic!("source of {name:?} already taken")); // lint: allow(panic-policy) — documented panicking API (`# Panics`): double-claiming an endpoint is a programmer error
        *boxed
            .downcast::<Source<T>>()
            // lint: allow(panic-policy) — documented panicking API (`# Panics`): a type mismatch is a programmer error
            .unwrap_or_else(|_| panic!("connection {name:?} has a different element type"))
    }

    /// Adds a module to a clock domain. Modules in a domain are ticked in
    /// the order they were added.
    pub fn add_module<M: Module + 'static>(&mut self, clk: &ClockHandle, module: M) -> ModuleId {
        let domain = &mut self.domains[clk.index];
        domain.modules.push(Box::new(module));
        ModuleId {
            domain: clk.index,
            slot: domain.modules.len() - 1,
        }
    }

    /// Finalizes the system, computing the exact multi-rate schedule.
    ///
    /// # Panics
    ///
    /// Panics if no clock domain was declared, or if a named connection has
    /// an unclaimed endpoint (a dangling SoftConnection is a build error on
    /// the real platform too).
    pub fn build(self) -> System {
        assert!(
            !self.domains.is_empty(),
            "a system needs at least one clock domain"
        );
        let dangling: Vec<&String> = self
            .named
            .iter()
            .filter(|(_, c)| c.sink.is_some() || c.source.is_some())
            .map(|(n, _)| n)
            .collect();
        assert!(
            dangling.is_empty(),
            "dangling named connections (unclaimed endpoints): {dangling:?}"
        );

        let base = self
            .domains
            .iter()
            .map(|d| d.clock.freq.in_khz())
            .fold(1, lcm);
        for d in &self.domains {
            d.clock.period_units.set(base / d.clock.freq.in_khz());
        }
        System {
            domains: self.domains,
            probes: self.probes,
            base_khz: base,
            now_units: 0,
            instants: 0,
        }
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SystemBuilder({} domains, {} links)",
            self.domains.len(),
            self.probes.len()
        )
    }
}

/// A built simulation: clock domains, their modules, and the links between
/// them, advanced by an exact integer-time multi-rate scheduler.
pub struct System {
    domains: Vec<Domain>,
    probes: Vec<Box<dyn LinkProbe>>,
    /// The base schedule rate: least common multiple of all domain
    /// frequencies, in kHz. One base unit of time is `1 / (base_khz * 1000)`
    /// seconds.
    base_khz: u64,
    now_units: u64,
    instants: u64,
}

impl System {
    /// Advances simulation to the next instant at which any clock has a
    /// rising edge, ticking every module in every domain with an edge there.
    ///
    /// Domains sharing an instant are processed in declaration order, and
    /// modules within a domain in insertion order, so runs are fully
    /// deterministic.
    pub fn step(&mut self) {
        let t = self
            .domains
            .iter()
            .map(|d| d.next_edge)
            .min()
            .expect("at least one domain"); // lint: allow(panic-policy) — build() rejects systems with zero clock domains
        for d in &mut self.domains {
            if d.next_edge == t {
                d.clock.edges.set(d.clock.edges.get() + 1);
                for m in &mut d.modules {
                    m.tick();
                }
                d.next_edge += d.clock.period_units.get();
            }
        }
        self.now_units = t;
        self.instants += 1;
    }

    /// Runs until `clk` has seen `edges` more rising edges.
    pub fn run_edges(&mut self, clk: &ClockHandle, edges: u64) {
        let target = clk.edges() + edges;
        while clk.edges() < target {
            self.step();
        }
    }

    /// Runs until `pred` returns true, checking after every instant.
    ///
    /// Returns the number of instants executed.
    ///
    /// # Panics
    ///
    /// Panics if `pred` is still false after `max_instants` instants —
    /// surfacing deadlocks instead of spinning forever.
    pub fn run_until(&mut self, max_instants: u64, mut pred: impl FnMut(&System) -> bool) -> u64 {
        let mut n = 0;
        while !pred(self) {
            assert!(
                n < max_instants,
                "run_until: condition not reached within {max_instants} instants"
            );
            self.step();
            n += 1;
        }
        n
    }

    /// Runs until every module reports idle and every link is empty.
    ///
    /// # Panics
    ///
    /// Panics if the system is not quiescent after `max_instants` instants.
    pub fn run_until_quiescent(&mut self, max_instants: u64) {
        let mut n = 0;
        loop {
            // Two consecutive quiescent observations guard against modules
            // that toggle state on the observation edge itself.
            if self.is_quiescent() {
                self.step();
                if self.is_quiescent() {
                    return;
                }
            }
            assert!(
                n < max_instants,
                "run_until_quiescent: still active after {max_instants} instants; \
                 busiest link: {:?}",
                self.busiest_link()
            );
            self.step();
            n += 1;
        }
    }

    fn is_quiescent(&self) -> bool {
        self.probes.iter().all(|p| p.occupancy() == 0)
            && self
                .domains
                .iter()
                .all(|d| d.modules.iter().all(|m| m.is_idle()))
    }

    fn busiest_link(&self) -> Option<(&str, usize)> {
        self.probes
            .iter()
            .map(|p| (p.label(), p.occupancy()))
            .max_by_key(|&(_, occ)| occ)
    }

    /// Simulated time elapsed, in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.now_units as f64 / (self.base_khz as f64 * 1000.0)
    }

    /// Number of scheduler instants executed so far.
    pub fn instants(&self) -> u64 {
        self.instants
    }

    /// Borrows a module by id with its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale or `M` is not the module's actual type.
    pub fn module<M: Module + 'static>(&self, id: ModuleId) -> &M {
        self.domains[id.domain].modules[id.slot]
            .as_any()
            .downcast_ref::<M>()
            .expect("module type mismatch") // lint: allow(panic-policy) — documented panicking API (`# Panics`): a stale or mistyped id is a programmer error
    }

    /// Mutably borrows a module by id with its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale or `M` is not the module's actual type.
    pub fn module_mut<M: Module + 'static>(&mut self, id: ModuleId) -> &mut M {
        self.domains[id.domain].modules[id.slot]
            .as_any_mut()
            .downcast_mut::<M>()
            .expect("module type mismatch") // lint: allow(panic-policy) — documented panicking API (`# Panics`): a stale or mistyped id is a programmer error
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "System({} domains, {} links, t = {:.3e} s)",
            self.domains.len(),
            self.probes.len(),
            self.elapsed_secs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        out: Sink<u64>,
        n: u64,
        limit: u64,
    }
    impl Module for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn tick(&mut self) {
            if self.n < self.limit && self.out.can_enq() {
                self.out.enq(self.n);
                self.n += 1;
            }
        }
        fn is_idle(&self) -> bool {
            self.n >= self.limit
        }
    }

    struct Collector {
        inp: Source<u64>,
        got: Vec<u64>,
    }
    impl Module for Collector {
        fn name(&self) -> &str {
            "collector"
        }
        fn tick(&mut self) {
            if let Some(v) = self.inp.deq() {
                self.got.push(v);
            }
        }
    }

    #[test]
    fn same_domain_pipeline_delivers_in_order() {
        let mut b = SystemBuilder::new();
        let clk = b.clock("main", Freq::mhz(10));
        let (tx, rx) = b.link::<u64>(&clk, &clk, LinkSpec::new(2));
        b.add_module(
            &clk,
            Counter {
                out: tx,
                n: 0,
                limit: 50,
            },
        );
        let c = b.add_module(
            &clk,
            Collector {
                inp: rx,
                got: vec![],
            },
        );
        let mut sys = b.build();
        sys.run_until_quiescent(10_000);
        let got = &sys.module::<Collector>(c).got;
        assert_eq!(*got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn cross_domain_ratio_is_exact() {
        // 35 MHz and 60 MHz: hyperperiod 420 MHz base. In any window the
        // edge counts must maintain a 7:12 ratio exactly.
        let mut b = SystemBuilder::new();
        let bb = b.clock("baseband", Freq::mhz(35));
        let ber = b.clock("ber", Freq::mhz(60));
        let mut sys = b.build();
        sys.run_edges(&bb, 3500);
        let e_ber = ber.edges();
        // After 3500 edges of 35 MHz, exactly 6000 edges of 60 MHz have
        // occurred (3500/35 us * 60 per us), +/- 1 for instant alignment.
        assert!(
            (e_ber as i64 - 6000).abs() <= 1,
            "60 MHz domain saw {e_ber} edges"
        );
    }

    #[test]
    fn elapsed_time_is_exact() {
        let mut b = SystemBuilder::new();
        let clk = b.clock("c", Freq::mhz(35));
        let mut sys = b.build();
        sys.run_edges(&clk, 35_000_000);
        // 35e6 edges at 35 MHz = 1 second. First edge at t=0, so elapsed
        // time is (n-1) periods.
        let expect = (35_000_000f64 - 1.0) / 35e6;
        assert!((sys.elapsed_secs() - expect).abs() < 1e-12);
    }

    #[test]
    fn cross_domain_link_gets_sync_delay() {
        let mut b = SystemBuilder::new();
        let a = b.clock("a", Freq::mhz(10));
        let z = b.clock("z", Freq::mhz(20));
        // delay 1 requested, but CDC must raise it to 2.
        let (tx, rx) = b.link::<u8>(&a, &z, LinkSpec::new(4));
        b.add_module(
            &a,
            Counter2 {
                out: tx,
                fired: false,
            },
        );
        let c = b.add_module(
            &z,
            Latch {
                inp: rx,
                clk: z.clone(),
                at: None,
            },
        );
        let mut sys = b.build();
        sys.run_edges(&z, 10);
        let at = sys.module::<Latch>(c).at.expect("token arrived");
        // The token launches at the shared t=0 instant, before z's first
        // edge is processed; the two-flop synchronizer makes it visible two
        // z edges later, i.e. during z edge 2 at the earliest. Delivery at
        // edge 1 would mean the CDC delay was not applied.
        assert!(at >= 2, "CDC delivered at z edge {at}, too early");
    }

    struct Counter2 {
        out: Sink<u8>,
        fired: bool,
    }
    impl Module for Counter2 {
        fn name(&self) -> &str {
            "one-shot"
        }
        fn tick(&mut self) {
            if !self.fired && self.out.can_enq() {
                self.out.enq(42);
                self.fired = true;
            }
        }
    }

    struct Latch {
        inp: Source<u8>,
        clk: ClockHandle,
        at: Option<u64>,
    }
    impl Module for Latch {
        fn name(&self) -> &str {
            "latch"
        }
        fn tick(&mut self) {
            if self.at.is_none() && self.inp.deq().is_some() {
                self.at = Some(self.clk.edges());
            }
        }
    }

    #[test]
    fn named_connections_roundtrip() {
        let mut b = SystemBuilder::new();
        let clk = b.clock("main", Freq::mhz(1));
        b.connection::<u64>("pipe", &clk, &clk, LinkSpec::new(2));
        let tx = b.take_sink::<u64>("pipe");
        let rx = b.take_source::<u64>("pipe");
        b.add_module(
            &clk,
            Counter {
                out: tx,
                n: 0,
                limit: 3,
            },
        );
        let c = b.add_module(
            &clk,
            Collector {
                inp: rx,
                got: vec![],
            },
        );
        let mut sys = b.build();
        sys.run_until_quiescent(1000);
        assert_eq!(sys.module::<Collector>(c).got, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn unclaimed_named_connection_fails_build() {
        let mut b = SystemBuilder::new();
        let clk = b.clock("main", Freq::mhz(1));
        b.connection::<u64>("pipe", &clk, &clk, LinkSpec::new(2));
        let _ = b.take_sink::<u64>("pipe");
        // source never taken
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "different element type")]
    fn named_connection_type_mismatch_panics() {
        let mut b = SystemBuilder::new();
        let clk = b.clock("main", Freq::mhz(1));
        b.connection::<u64>("pipe", &clk, &clk, LinkSpec::new(2));
        let _ = b.take_sink::<u32>("pipe");
    }

    #[test]
    #[should_panic(expected = "not reached")]
    fn run_until_reports_deadlock() {
        let mut b = SystemBuilder::new();
        let _clk = b.clock("main", Freq::mhz(1));
        let mut sys = b.build();
        sys.run_until(10, |_| false);
    }

    #[test]
    fn module_downcast_roundtrip() {
        let mut b = SystemBuilder::new();
        let clk = b.clock("main", Freq::mhz(1));
        let (tx, rx) = b.link::<u64>(&clk, &clk, LinkSpec::new(2));
        let id = b.add_module(
            &clk,
            Counter {
                out: tx,
                n: 0,
                limit: 0,
            },
        );
        let cid = b.add_module(
            &clk,
            Collector {
                inp: rx,
                got: vec![],
            },
        );
        let mut sys = b.build();
        sys.step();
        assert_eq!(sys.module::<Counter>(id).n, 0);
        sys.module_mut::<Collector>(cid).got.push(9);
        assert_eq!(sys.module::<Collector>(cid).got, vec![9]);
    }
}
