//! Multi-node contention cells: MAC policies for a shared medium.
//!
//! PR 2 put *one* link session on the scenario grid; this module models
//! the step the ROADMAP left open — several sessions sharing one channel,
//! in the modeling lineage of *Modelling MAC-Layer Communications in
//! Wireless Systems* (Cerone/Hennessy/Merro): the unit of evaluation is
//! the **cell**, a slotted shared medium where N nodes contend, collide,
//! and capture.
//!
//! The protocol surface is one trait, [`ContentionPolicy`]: per slot, a
//! node with a pending packet decides [`TxDecision::Transmit`] or
//! [`TxDecision::Defer`] from what it can sense (the carrier) and its own
//! [`BackoffState`]; after transmitting it learns whether the attempt was
//! acknowledged and adapts. Three stock policies span the classic design
//! space:
//!
//! * [`SlottedAloha`] — transmit with probability `p`, sense nothing: the
//!   lower anchor every textbook starts from.
//! * [`CsmaBackoff`] — carrier sense with binary exponential backoff, the
//!   DCF-shaped middle ground.
//! * [`TdmaOracle`] — a genie scheduler that hands each node its own slot:
//!   zero collisions by construction, the upper bound contending policies
//!   are judged against.
//!
//! Policies are engine-agnostic: the cell engine in `wilis::scenario`
//! owns the slot loop, the capture model, and the per-node
//! [`LinkPolicy`](crate::LinkPolicy) sessions; this module owns the
//! decisions and the cell-level accounting ([`CellMetrics`]: aggregate
//! goodput, Jain fairness, collision and idle fractions).

use wilis_fxp::rng::SmallRng;

/// A node's decision for one slot of the shared medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxDecision {
    /// Put the head-of-queue packet on the air this slot.
    Transmit,
    /// Stay silent this slot.
    Defer,
}

/// Per-node backoff machinery, owned by the cell engine and threaded
/// through every [`ContentionPolicy`] call.
///
/// Keeping the counter, stage, and RNG outside the policy keeps policies
/// trivially resettable and makes the randomness audit easy: a node's
/// entire decision stream is a pure function of the seed its state was
/// built from.
#[derive(Debug, Clone)]
pub struct BackoffState {
    /// Slots this node must still defer before it may transmit (CSMA).
    pub counter: u32,
    /// Current backoff stage (doubles the contention window per
    /// collision).
    pub stage: u32,
    /// The node's private decision RNG — a pure function of the cell seed
    /// and node index.
    pub rng: SmallRng,
}

impl BackoffState {
    /// Fresh backoff state seeded for one node.
    pub fn new(seed: u64) -> Self {
        Self {
            counter: 0,
            stage: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

/// What a node can see at the start of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView {
    /// The slot index within the cell run.
    pub slot: u64,
    /// This node's index within the cell.
    pub node: usize,
    /// Number of nodes in the cell.
    pub nodes: usize,
    /// Whether carrier sense reads the medium busy: some *other* node
    /// transmitted in the previous slot (a node never defers to its own
    /// transmission).
    pub carrier_busy: bool,
}

/// A slot-level medium-access policy for one node of a contention cell.
///
/// One instance drives one node (the engine never shares instances across
/// nodes or threads). [`ContentionPolicy::decide`] is called only when
/// the node has a packet pending; [`ContentionPolicy::acked`] is called
/// after each of the node's own transmissions with the link-layer truth —
/// `true` iff the packet survived the medium *and* decoded clean (the
/// acknowledgement a real MAC would wait for).
pub trait ContentionPolicy {
    /// The registry name of this policy (`"aloha"`, `"csma"`, `"tdma"`).
    fn name(&self) -> &'static str;

    /// Decides this slot's action for a node with a pending packet.
    fn decide(&mut self, view: &SlotView, backoff: &mut BackoffState) -> TxDecision;

    /// Feedback after this node transmitted: `true` iff the attempt was
    /// acknowledged (survived the medium and decoded error-free).
    fn acked(&mut self, _acked: bool, _backoff: &mut BackoffState) {}

    /// Clears policy and backoff state for a fresh cell run.
    fn reset(&mut self, backoff: &mut BackoffState) {
        backoff.counter = 0;
        backoff.stage = 0;
    }
}

/// Slotted ALOHA: transmit each slot with probability `p`, never sense
/// the carrier. Peak channel utilization is the textbook `1/e` at
/// `p ≈ 1/N` under saturation — the baseline CSMA improves on.
#[derive(Debug, Clone)]
pub struct SlottedAloha {
    p: f64,
}

impl SlottedAloha {
    /// An ALOHA policy transmitting with per-slot probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < p <= 1.0` — a node that can never transmit is
    /// a configuration bug, not a policy.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "transmit probability must be in (0, 1]"
        );
        Self { p }
    }

    /// The configured per-slot transmit probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl ContentionPolicy for SlottedAloha {
    fn name(&self) -> &'static str {
        "aloha"
    }

    fn decide(&mut self, _view: &SlotView, backoff: &mut BackoffState) -> TxDecision {
        if backoff.rng.gen_bool(self.p) {
            TxDecision::Transmit
        } else {
            TxDecision::Defer
        }
    }
}

/// Carrier-sense multiple access with binary exponential backoff, DCF
/// style: defer while the medium is busy (the counter freezes), count the
/// backoff down over idle slots, transmit at zero. A missing
/// acknowledgement doubles the contention window up to `cw_max` and draws
/// a fresh uniform backoff; an acknowledgement resets both.
///
/// A solo node (nothing to collide with, no busy carrier) transmits every
/// slot while its packets keep decoding — which is exactly what makes a
/// 1-node CSMA cell a strict generalization of the point-to-point link
/// path, attempt for attempt.
///
/// Like plain BEB (and unlike full DCF, which draws a post-success
/// backoff), this policy exhibits the textbook **channel capture
/// effect** under saturation: the node that wins a round resets its
/// window to zero and occupies every following slot, while the losers'
/// frozen counters never drain. Aggregate goodput approaches the TDMA
/// bound but Jain's fairness index collapses toward `1/N` — visible
/// directly in [`CellMetrics::jain_index`], which is exactly the kind of
/// pathology the cell metrics exist to expose.
#[derive(Debug, Clone)]
pub struct CsmaBackoff {
    cw_min: u32,
    cw_max: u32,
}

impl CsmaBackoff {
    /// A CSMA policy with contention windows growing from `cw_min` to
    /// `cw_max` slots.
    ///
    /// # Panics
    ///
    /// Panics if `cw_min` is zero or the windows are reversed.
    pub fn new(cw_min: u32, cw_max: u32) -> Self {
        assert!(cw_min > 0, "contention window needs at least one slot");
        assert!(cw_min <= cw_max, "reversed contention windows");
        Self { cw_min, cw_max }
    }

    /// The contention window at a given backoff stage (computed in u64 so
    /// deep stages saturate at `cw_max` instead of wrapping).
    fn window(&self, stage: u32) -> u32 {
        (u64::from(self.cw_min) << stage.min(32)).min(u64::from(self.cw_max)) as u32
    }
}

impl ContentionPolicy for CsmaBackoff {
    fn name(&self) -> &'static str {
        "csma"
    }

    fn decide(&mut self, view: &SlotView, backoff: &mut BackoffState) -> TxDecision {
        if view.carrier_busy {
            // Freeze: the counter does not advance while the medium is
            // occupied.
            return TxDecision::Defer;
        }
        if backoff.counter > 0 {
            backoff.counter -= 1;
            return TxDecision::Defer;
        }
        TxDecision::Transmit
    }

    fn acked(&mut self, acked: bool, backoff: &mut BackoffState) {
        if acked {
            backoff.stage = 0;
            backoff.counter = 0;
        } else {
            backoff.stage = backoff.stage.saturating_add(1);
            let cw = self.window(backoff.stage);
            backoff.counter = (backoff.rng.next_u64() % u64::from(cw)) as u32;
        }
    }
}

/// The TDMA genie: slot `t` belongs to node `t mod N`, nobody else
/// speaks. Collision-free by construction, so its goodput at a given SNR
/// upper-bounds every *contending* policy on the same cell — the oracle
/// the scenario tests pin.
#[derive(Debug, Clone, Default)]
pub struct TdmaOracle;

impl ContentionPolicy for TdmaOracle {
    fn name(&self) -> &'static str {
        "tdma"
    }

    fn decide(&mut self, view: &SlotView, _backoff: &mut BackoffState) -> TxDecision {
        if view.slot % view.nodes as u64 == view.node as u64 {
            TxDecision::Transmit
        } else {
            TxDecision::Defer
        }
    }
}

/// Per-node counters of one cell run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeCellMetrics {
    /// Transmissions this node put on the air.
    pub attempts: u64,
    /// Attempts destroyed by the medium (collision, or losing a capture).
    pub collisions: u64,
    /// Packets this node's link layer closed as delivered.
    pub delivered: u64,
    /// Useful payload bits delivered.
    pub bits_delivered: u64,
    /// Payload bits put on the air (including collided attempts).
    pub bits_transmitted: u64,
}

/// Cell-level metrics of one contention scenario — the shared-medium
/// counters the point-to-point [`LinkMetrics`](crate::LinkMetrics) has no
/// vocabulary for.
///
/// All derived figures are pure functions of integer counters, so cell
/// sweeps inherit the engine's bit-identical determinism contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellMetrics {
    /// Contending nodes in the cell.
    pub nodes: u32,
    /// Slots simulated.
    pub slots: u64,
    /// Payload bits per packet (one packet fits one slot).
    pub payload_bits: u64,
    /// Slots in which nobody transmitted.
    pub idle_slots: u64,
    /// Slots with exactly one transmitter.
    pub clean_slots: u64,
    /// Contended slots resolved by capture (strongest arrival survived).
    pub capture_slots: u64,
    /// Contended slots in which every transmission was destroyed.
    pub collision_slots: u64,
    /// Per-node counters, indexed by node.
    pub per_node: Vec<NodeCellMetrics>,
}

impl CellMetrics {
    /// Fresh metrics for a cell of `nodes` nodes running `slots` slots.
    pub fn new(nodes: u32, slots: u64, payload_bits: u64) -> Self {
        Self {
            nodes,
            slots,
            payload_bits,
            per_node: vec![NodeCellMetrics::default(); nodes as usize],
            ..Self::default()
        }
    }

    /// Total transmissions across nodes.
    pub fn attempts(&self) -> u64 {
        self.per_node.iter().map(|n| n.attempts).sum()
    }

    /// Total useful payload bits delivered across nodes.
    pub fn bits_delivered(&self) -> u64 {
        self.per_node.iter().map(|n| n.bits_delivered).sum()
    }

    /// Total payload bits put on the air across nodes.
    pub fn bits_transmitted(&self) -> u64 {
        self.per_node.iter().map(|n| n.bits_transmitted).sum()
    }

    /// Aggregate goodput: useful bits delivered per bit of channel
    /// capacity (`slots × payload_bits`) — the utilization figure slotted
    /// MAC analysis normalizes everything to (ALOHA peaks at `1/e`, the
    /// TDMA genie approaches its clean delivery rate).
    pub fn aggregate_goodput(&self) -> f64 {
        let capacity = self.slots * self.payload_bits;
        if capacity == 0 {
            0.0
        } else {
            self.bits_delivered() as f64 / capacity as f64
        }
    }

    /// Jain's fairness index over per-node delivered bits:
    /// `(Σx)² / (N·Σx²)`, 1.0 for a perfectly even split, `1/N` when one
    /// node starves all others. An idle cell (nothing delivered anywhere)
    /// is vacuously fair: 1.0.
    pub fn jain_index(&self) -> f64 {
        let n = self.per_node.len();
        if n == 0 {
            return 1.0;
        }
        let sum: f64 = self.per_node.iter().map(|m| m.bits_delivered as f64).sum();
        if sum == 0.0 {
            return 1.0;
        }
        let sum_sq: f64 = self
            .per_node
            .iter()
            .map(|m| {
                let x = m.bits_delivered as f64;
                x * x
            })
            .sum();
        (sum * sum) / (n as f64 * sum_sq)
    }

    /// Fraction of slots lost to full collisions.
    pub fn collision_fraction(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.collision_slots as f64 / self.slots as f64
        }
    }

    /// Fraction of slots the channel sat idle.
    pub fn idle_fraction(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.idle_slots as f64 / self.slots as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(slot: u64, node: usize, nodes: usize, busy: bool) -> SlotView {
        SlotView {
            slot,
            node,
            nodes,
            carrier_busy: busy,
        }
    }

    #[test]
    fn aloha_is_a_coin_flip_at_the_configured_rate() {
        let mut aloha = SlottedAloha::new(0.3);
        let mut backoff = BackoffState::new(7);
        let n = 10_000;
        let tx = (0..n)
            .filter(|&s| aloha.decide(&view(s, 0, 4, false), &mut backoff) == TxDecision::Transmit)
            .count();
        let rate = tx as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn aloha_ignores_the_carrier() {
        let mut aloha = SlottedAloha::new(1.0);
        let mut backoff = BackoffState::new(1);
        assert_eq!(
            aloha.decide(&view(0, 0, 2, true), &mut backoff),
            TxDecision::Transmit,
            "p=1 ALOHA transmits even into a busy medium"
        );
    }

    #[test]
    #[should_panic(expected = "transmit probability")]
    fn aloha_rejects_zero_probability() {
        let _ = SlottedAloha::new(0.0);
    }

    #[test]
    fn csma_defers_while_busy_and_counts_down_when_idle() {
        let mut csma = CsmaBackoff::new(2, 8);
        let mut backoff = BackoffState::new(3);
        backoff.counter = 2;
        // Busy: freeze (counter untouched).
        assert_eq!(
            csma.decide(&view(0, 0, 2, true), &mut backoff),
            TxDecision::Defer
        );
        assert_eq!(backoff.counter, 2);
        // Idle: count down, still deferring.
        assert_eq!(
            csma.decide(&view(1, 0, 2, false), &mut backoff),
            TxDecision::Defer
        );
        assert_eq!(
            csma.decide(&view(2, 0, 2, false), &mut backoff),
            TxDecision::Defer
        );
        assert_eq!(backoff.counter, 0);
        // Counter exhausted: transmit.
        assert_eq!(
            csma.decide(&view(3, 0, 2, false), &mut backoff),
            TxDecision::Transmit
        );
    }

    #[test]
    fn csma_backoff_doubles_on_loss_and_resets_on_ack() {
        let mut csma = CsmaBackoff::new(4, 64);
        let mut backoff = BackoffState::new(9);
        for expected_cap in [8, 16, 32, 64, 64] {
            csma.acked(false, &mut backoff);
            assert!(
                backoff.counter < expected_cap,
                "counter {} outside stage window {}",
                backoff.counter,
                expected_cap
            );
        }
        assert_eq!(backoff.stage, 5);
        csma.acked(true, &mut backoff);
        assert_eq!(backoff.stage, 0);
        assert_eq!(backoff.counter, 0);
    }

    #[test]
    fn solo_csma_transmits_every_slot_while_acked() {
        // The strict-generalization precondition: an unopposed CSMA node
        // whose packets keep decoding behaves exactly like the
        // point-to-point loop — one transmission per slot.
        let mut csma = CsmaBackoff::new(2, 64);
        let mut backoff = BackoffState::new(11);
        for slot in 0..100 {
            assert_eq!(
                csma.decide(&view(slot, 0, 1, false), &mut backoff),
                TxDecision::Transmit
            );
            csma.acked(true, &mut backoff);
        }
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn csma_rejects_reversed_windows() {
        let _ = CsmaBackoff::new(16, 4);
    }

    #[test]
    fn tdma_owns_every_nth_slot_and_never_overlaps() {
        let nodes = 3usize;
        let mut policies: Vec<TdmaOracle> = (0..nodes).map(|_| TdmaOracle).collect();
        let mut backoffs: Vec<BackoffState> =
            (0..nodes).map(|n| BackoffState::new(n as u64)).collect();
        for slot in 0..30u64 {
            let txs: Vec<usize> = (0..nodes)
                .filter(|&n| {
                    policies[n].decide(&view(slot, n, nodes, false), &mut backoffs[n])
                        == TxDecision::Transmit
                })
                .collect();
            assert_eq!(txs, vec![(slot % nodes as u64) as usize]);
        }
    }

    #[test]
    fn backoff_state_is_seed_pure() {
        let mut a = BackoffState::new(42);
        let mut b = BackoffState::new(42);
        assert_eq!(a.rng.next_u64(), b.rng.next_u64());
    }

    #[test]
    fn reset_clears_backoff() {
        let mut csma = CsmaBackoff::new(4, 64);
        let mut backoff = BackoffState::new(1);
        csma.acked(false, &mut backoff);
        csma.reset(&mut backoff);
        assert_eq!((backoff.counter, backoff.stage), (0, 0));
    }

    #[test]
    fn cell_metrics_goodput_and_fractions() {
        let mut m = CellMetrics::new(2, 10, 100);
        m.idle_slots = 2;
        m.clean_slots = 5;
        m.capture_slots = 1;
        m.collision_slots = 2;
        m.per_node[0].bits_delivered = 400;
        m.per_node[1].bits_delivered = 200;
        m.per_node[0].attempts = 6;
        m.per_node[1].attempts = 4;
        assert!((m.aggregate_goodput() - 0.6).abs() < 1e-12);
        assert!((m.collision_fraction() - 0.2).abs() < 1e-12);
        assert!((m.idle_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(m.attempts(), 10);
        assert_eq!(m.bits_delivered(), 600);
    }

    #[test]
    fn jain_index_bounds() {
        let mut m = CellMetrics::new(4, 10, 100);
        // Idle cell: vacuously fair.
        assert_eq!(m.jain_index(), 1.0);
        // Perfectly even split.
        for node in &mut m.per_node {
            node.bits_delivered = 250;
        }
        assert!((m.jain_index() - 1.0).abs() < 1e-12);
        // One node hogs everything: 1/N.
        for (i, node) in m.per_node.iter_mut().enumerate() {
            node.bits_delivered = if i == 0 { 1000 } else { 0 };
        }
        assert!((m.jain_index() - 0.25).abs() < 1e-12);
    }
}
