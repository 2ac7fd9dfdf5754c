//! Registry-addressed link policies — the MAC layer as a scenario-engine
//! dimension.
//!
//! The paper's headline results above the PHY (Figure 6's partial-packet
//! recovery, Figure 7's SoftRate selection) all share one shape: a policy
//! observes each received packet — its decisions, its SoftPHY hints, the
//! feedback an acknowledgement would carry — and reacts (retransmit, give
//! up, change rate). [`LinkPolicy`] is that shape as a trait, so the
//! `wilis::scenario` engine can sweep MAC behavior the same way it sweeps
//! decoders and channels: resolved by name, one instance per grid point,
//! metrics accumulated per point.
//!
//! Three stock policies mirror the paper's §4 consumers:
//!
//! * [`HarqLink`] — stop-and-wait retransmission: whole-packet ARQ (the
//!   baseline) with the combiner disarmed, HARQ soft-combining with it
//!   armed,
//! * [`PprLink`] — partial packet recovery from per-bit hints,
//! * [`SoftRateLink`] — PBER-threshold rate adaptation, optionally judged
//!   against the replayed-channel oracle of Figure 7.
//!
//! Each accounts every verdict through one step, [`LinkMetrics::record`],
//! and adds only its own extras. Policies keep their own reusable scratch
//! (error masks, chunk plans), so the engine's steady state stays
//! allocation-free.
//!
//! [`HarqLink`]: crate::HarqLink

use wilis_phy::{PhyRate, RxResult};

use crate::ppr::{evaluate, PprConfig};
use crate::{Selection, SoftRate};

/// What the simulator knows about one packet alongside the receive result
/// — the feedback a real link layer would read off the acknowledgement,
/// plus the ground truth that stands in for a CRC.
#[derive(Debug, Clone, Copy)]
pub struct LinkContext<'a> {
    /// The transmitted payload bits (ground truth).
    pub sent: &'a [u8],
    /// Payload bit errors in the receive result (the simulator's CRC).
    pub bit_errors: u64,
    /// SoftPHY per-packet BER estimate (0 for hard decoders).
    pub predicted_pber: f64,
    /// The PHY rate this packet was actually sent at.
    pub rate: PhyRate,
    /// The oracle replay's verdict, when the engine ran one.
    pub oracle: Oracle,
}

/// The outcome of replaying a packet against the identical channel
/// realization — the paper's "pseudo-random noise model" applied per
/// packet (§4.4.2). The engine replays the fastest rate first and stops
/// at the first one that decodes error-free, so `Best` is the same rate
/// an exhaustive scan of all eight would find; `NoRate` means all eight
/// were tried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// The engine did not run the oracle (the policy did not ask for it).
    Unavailable,
    /// No rate delivered the packet error-free.
    NoRate,
    /// The fastest rate that delivered the packet error-free.
    Best(PhyRate),
}

impl Oracle {
    /// The oracle-optimal rate in [`SoftRate::classify`] form: `None` when
    /// the oracle did not run, `Some(None)` when no rate succeeded,
    /// `Some(Some(rate))` otherwise.
    pub fn optimal(self) -> Option<Option<PhyRate>> {
        match self {
            Oracle::Unavailable => None,
            Oracle::NoRate => Some(None),
            Oracle::Best(r) => Some(Some(r)),
        }
    }
}

/// How the link layer closed (or kept open) one observed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkStatus {
    /// The packet was delivered clean (possibly after the policy's repair
    /// action, e.g. a PPR chunk retransmission).
    Delivered,
    /// The policy requested a retransmission; the packet is still open.
    Retransmit,
    /// The policy abandoned the packet.
    GaveUp,
}

/// A link policy's verdict on one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkVerdict {
    /// Whether the packet closed, and how.
    pub status: LinkStatus,
    /// The rate the policy wants the *next* packet sent at (rate-adapting
    /// policies); `None` leaves the current rate alone.
    pub next_rate: Option<PhyRate>,
}

impl LinkVerdict {
    /// A verdict that closes or continues the packet without touching the
    /// rate.
    pub fn status(status: LinkStatus) -> Self {
        Self {
            status,
            next_rate: None,
        }
    }
}

/// Link-layer counters accumulated across one scenario (grid point).
///
/// All f64-valued summaries are derived from the integer counters (plus
/// one exact sum of integral Mbps values), so two runs of the same
/// scenario compare bit-identically — the property the sweep engine's
/// determinism contract extends to the link dimension.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkMetrics {
    /// Packets observed. For stop-and-wait policies each observation is
    /// one transmission attempt.
    pub packets: u64,
    /// Packets delivered clean (after any repair the policy models).
    pub delivered: u64,
    /// Packets abandoned.
    pub gave_up: u64,
    /// Useful payload bits delivered.
    pub bits_delivered: u64,
    /// Payload bits put on the air, including retransmissions.
    pub bits_transmitted: u64,
    /// The subset of [`LinkMetrics::bits_transmitted`] that were
    /// retransmissions.
    pub bits_retransmitted: u64,
    /// Packets sent below the oracle-optimal rate (SoftRate only).
    pub under: u64,
    /// Packets sent at the oracle-optimal rate (SoftRate only).
    pub accurate: u64,
    /// Packets sent above the oracle-optimal rate (SoftRate only).
    pub over: u64,
    /// Sum of selected-rate Mbps across packets (integral per packet), for
    /// the mean selected rate.
    pub selected_mbps_sum: f64,
    /// Packets delivered only thanks to soft-combining — clean on attempt
    /// ≥ 2 of a combining HARQ session (HARQ only).
    pub recovered: u64,
    /// Histogram of attempts used per closed packet: bin `i` counts
    /// packets that closed after `i + 1` attempts, last bin saturating
    /// (HARQ only).
    pub attempts_hist: [u64; crate::harq::ATTEMPTS_HIST_BINS],
    /// Sum of the post-IR effective code rate over closed packets (HARQ
    /// only; see [`crate::harq::HarqConfig::effective_rate`]).
    pub effective_rate_sum: f64,
}

impl LinkMetrics {
    /// Accounts one observed packet of `bits` payload bits: counts it and
    /// its transmitted bits, then counts it delivered with its bits or
    /// given up, by `status` (a retransmit leaves the packet open).
    pub fn record(&mut self, bits: u64, status: LinkStatus) {
        self.packets += 1;
        self.bits_transmitted += bits;
        match status {
            LinkStatus::Delivered => {
                self.delivered += 1;
                self.bits_delivered += bits;
            }
            LinkStatus::GaveUp => self.gave_up += 1,
            LinkStatus::Retransmit => {}
        }
    }

    /// Useful bits delivered per bit transmitted — the figure-of-merit PPR
    /// improves over ARQ.
    pub fn goodput(&self) -> f64 {
        if self.bits_transmitted == 0 {
            0.0
        } else {
            self.bits_delivered as f64 / self.bits_transmitted as f64
        }
    }

    /// Fraction of transmitted bits that were retransmissions
    /// (conventional ARQ pays whole packets here; PPR pays chunks).
    pub fn retransmit_fraction(&self) -> f64 {
        if self.bits_transmitted == 0 {
            0.0
        } else {
            self.bits_retransmitted as f64 / self.bits_transmitted as f64
        }
    }

    /// Fraction of closed packets that were delivered.
    pub fn delivery_rate(&self) -> f64 {
        let closed = self.delivered + self.gave_up;
        if closed == 0 {
            0.0
        } else {
            self.delivered as f64 / closed as f64
        }
    }

    /// Mean selected rate in Mbps across observed packets.
    pub fn mean_selected_mbps(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.selected_mbps_sum / self.packets as f64
        }
    }

    /// Fraction of deliveries that needed the combiner (clean only on
    /// attempt ≥ 2) — the combining gain in delivery terms.
    pub fn recovered_fraction(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.recovered as f64 / self.delivered as f64
        }
    }

    /// Mean attempts per closed packet from the attempts histogram (the
    /// saturating last bin makes this a lower bound for pathological
    /// budgets beyond the bin count).
    pub fn mean_attempts(&self) -> f64 {
        let closed: u64 = self.attempts_hist.iter().sum();
        if closed == 0 {
            0.0
        } else {
            let weighted: u64 = self
                .attempts_hist
                .iter()
                .enumerate()
                .map(|(i, &c)| (i as u64 + 1) * c)
                .sum();
            weighted as f64 / closed as f64
        }
    }

    /// Mean post-IR effective code rate per closed packet.
    pub fn mean_effective_rate(&self) -> f64 {
        let closed = self.delivered + self.gave_up;
        if closed == 0 {
            0.0
        } else {
            self.effective_rate_sum / closed as f64
        }
    }

    /// Folds another metrics block into this one (cross-seed aggregation).
    pub fn merge(&mut self, other: &LinkMetrics) {
        self.packets += other.packets;
        self.delivered += other.delivered;
        self.gave_up += other.gave_up;
        self.bits_delivered += other.bits_delivered;
        self.bits_transmitted += other.bits_transmitted;
        self.bits_retransmitted += other.bits_retransmitted;
        self.under += other.under;
        self.accurate += other.accurate;
        self.over += other.over;
        self.selected_mbps_sum += other.selected_mbps_sum;
        self.recovered += other.recovered;
        for (a, b) in self.attempts_hist.iter_mut().zip(&other.attempts_hist) {
            *a += b;
        }
        self.effective_rate_sum += other.effective_rate_sum;
    }
}

/// A per-packet link-layer policy the scenario engine can sweep by name.
///
/// One instance observes one grid point's packets *in order* (the engine
/// never shares a policy across scenarios or threads), so implementations
/// are free to carry protocol state — ARQ retry counters, a SoftRate
/// controller — and reusable scratch buffers.
pub trait LinkPolicy {
    /// The registry name of this policy (`"arq"`, `"ppr"`, `"softrate"`).
    fn name(&self) -> &'static str;

    /// Whether the engine should replay the packet against the identical
    /// channel realization and report the oracle-optimal rate in
    /// [`LinkContext::oracle`]. Costs one extra receive per rate tried,
    /// fastest first down to the first clean decode (all eight when none
    /// is); only [`SoftRateLink`] asks for it by default.
    fn needs_oracle(&self) -> bool {
        false
    }

    /// Whether the policy is driven by [`LinkContext::predicted_pber`].
    /// Hosts must reject pairing such a policy with a decoder that has no
    /// SoftPHY BER estimator (e.g. hard Viterbi): the estimate would be a
    /// constant 0.0 and the policy's output plausible-looking garbage.
    fn needs_pber(&self) -> bool {
        false
    }

    /// Whether this policy may ever steer the transmit rate through
    /// [`LinkVerdict::next_rate`]. Policies answering `false` here are
    /// pure observers of the PHY stream, which lets the scenario engine
    /// share one transmit+channel realization across every grid point
    /// that differs only in decoder or link policy. A policy that
    /// declares `false` and then returns a `next_rate` is a contract
    /// violation (the engine asserts against it).
    ///
    /// Defaults to `true` — the fail-safe answer: a policy that does not
    /// opt in merely runs solo and loses the sharing optimization,
    /// instead of tripping the engine's contract assert if it does steer
    /// the rate. Pure observers ([`crate::HarqLink`], [`PprLink`])
    /// override this to `false`.
    fn adapts_rate(&self) -> bool {
        true
    }

    /// The policy's HARQ combiner core, when it has one *and* combining
    /// is armed. A `Some` answer changes the engine's contract with the
    /// policy: each logical packet becomes an attempt loop — the engine
    /// transmits at [`crate::harq::HarqCore::tx_phase`], folds every
    /// attempt's mother-LLR plane through
    /// [`crate::harq::HarqCore::absorb`], and decodes the combined
    /// [`crate::harq::HarqCore::plane`] — so such policies are never
    /// fused into shared-channel groups (a retransmission reshapes the
    /// transmit stream). Defaults to `None`: ordinary policies observe
    /// independent single transmissions.
    fn harq(&mut self) -> Option<&mut crate::harq::HarqCore> {
        None
    }

    /// A configuration problem detected at construction. Registry
    /// factories are infallible, so a policy built from contradictory
    /// parameters carries the complaint here and hosts surface it as an
    /// `InvalidConfig` error before running anything. Defaults to `None`.
    fn config_error(&self) -> Option<String> {
        None
    }

    /// Observes one received packet and returns the link-layer verdict.
    fn observe(&mut self, rx: &RxResult, hints: &[u16], ctx: &LinkContext<'_>) -> LinkVerdict;

    /// The metrics accumulated so far.
    fn metrics(&self) -> LinkMetrics;

    /// Clears all protocol state and metrics for a fresh trial.
    fn reset(&mut self);
}

/// Partial packet recovery as a sweep policy: on a corrupted packet,
/// retransmit only the chunks whose hints look suspect, and count the
/// packet delivered when every true error fell in a retransmitted chunk.
#[derive(Debug, Clone)]
pub struct PprLink {
    config: PprConfig,
    metrics: LinkMetrics,
    // Reusable per-packet scratch: the true-error mask and the chunk plan.
    errors: Vec<bool>,
    plan: Vec<bool>,
}

impl PprLink {
    /// A PPR policy with the given chunk geometry and hint threshold.
    pub fn new(config: PprConfig) -> Self {
        Self {
            config,
            metrics: LinkMetrics::default(),
            errors: Vec::new(),
            plan: Vec::new(),
        }
    }
}

impl LinkPolicy for PprLink {
    fn name(&self) -> &'static str {
        "ppr"
    }

    fn adapts_rate(&self) -> bool {
        false
    }

    fn observe(&mut self, rx: &RxResult, hints: &[u16], ctx: &LinkContext<'_>) -> LinkVerdict {
        let status = if ctx.bit_errors == 0 {
            LinkStatus::Delivered
        } else {
            self.errors.clear();
            self.errors
                .extend(ctx.sent.iter().zip(&rx.payload).map(|(a, b)| a != b));
            self.config.plan_into(hints, &mut self.plan);
            let outcome = evaluate(&self.config, &self.plan, &self.errors);
            let repair = outcome.retransmitted_bits as u64;
            self.metrics.bits_transmitted += repair;
            self.metrics.bits_retransmitted += repair;
            if outcome.recovered() {
                LinkStatus::Delivered
            } else {
                LinkStatus::GaveUp
            }
        };
        self.metrics.record(ctx.sent.len() as u64, status);
        LinkVerdict::status(status)
    }

    fn metrics(&self) -> LinkMetrics {
        self.metrics
    }

    fn reset(&mut self) {
        self.metrics = LinkMetrics::default();
    }
}

/// SoftRate rate adaptation as a sweep policy: observes each packet's
/// predicted PBER, steers the engine's transmit rate through
/// [`LinkVerdict::next_rate`], and (when the oracle runs) tallies the
/// Figure 7 under/accurate/over selection statistics.
#[derive(Debug, Clone)]
pub struct SoftRateLink {
    controller: SoftRate,
    initial: SoftRate,
    metrics: LinkMetrics,
    oracle: bool,
}

impl SoftRateLink {
    /// A rate-adaptation policy driven by `controller`; `oracle` asks the
    /// engine for the per-packet all-rates replay that grounds the
    /// selection-accuracy tallies.
    pub fn new(controller: SoftRate, oracle: bool) -> Self {
        Self {
            controller,
            initial: controller,
            metrics: LinkMetrics::default(),
            oracle,
        }
    }
}

impl LinkPolicy for SoftRateLink {
    fn name(&self) -> &'static str {
        "softrate"
    }

    fn needs_oracle(&self) -> bool {
        self.oracle
    }

    fn needs_pber(&self) -> bool {
        true
    }

    fn adapts_rate(&self) -> bool {
        true
    }

    fn observe(&mut self, _rx: &RxResult, _hints: &[u16], ctx: &LinkContext<'_>) -> LinkVerdict {
        let status = if ctx.bit_errors == 0 {
            LinkStatus::Delivered
        } else {
            LinkStatus::GaveUp
        };
        self.metrics.record(ctx.sent.len() as u64, status);
        self.metrics.selected_mbps_sum += ctx.rate.mbps();
        if let Some(optimal) = ctx.oracle.optimal() {
            match SoftRate::classify(ctx.rate, optimal) {
                Selection::Under => self.metrics.under += 1,
                Selection::Accurate => self.metrics.accurate += 1,
                Selection::Over => self.metrics.over += 1,
            }
        }
        self.controller.observe(ctx.predicted_pber);
        LinkVerdict {
            status,
            next_rate: Some(self.controller.current()),
        }
    }

    fn metrics(&self) -> LinkMetrics {
        self.metrics
    }

    fn reset(&mut self) {
        self.controller = self.initial;
        self.metrics = LinkMetrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HarqConfig, HarqLink};
    use wilis_fec::CodeRate;

    /// Whole-packet ARQ: the stop-and-wait policy with its combiner
    /// disarmed, as the `"arq"` registry name builds it.
    fn arq(bits: u64, max_retries: u32) -> HarqLink {
        let config = HarqConfig::chase(max_retries + 1).with_combining(false);
        HarqLink::new(bits, config, CodeRate::Half)
    }

    fn rx_for(sent: &[u8], flips: &[usize]) -> RxResult {
        let mut payload = sent.to_vec();
        for &i in flips {
            payload[i] ^= 1;
        }
        RxResult {
            hints: vec![60; sent.len()],
            soft_magnitudes: vec![0; sent.len()],
            decoder_id: "test",
            payload,
        }
    }

    fn ctx<'a>(sent: &'a [u8], bit_errors: u64, pber: f64) -> LinkContext<'a> {
        LinkContext {
            sent,
            bit_errors,
            predicted_pber: pber,
            rate: PhyRate::Qam16Half,
            oracle: Oracle::Unavailable,
        }
    }

    #[test]
    fn arq_link_counts_attempts_and_retransmissions() {
        let sent = vec![0u8; 100];
        let clean = rx_for(&sent, &[]);
        let dirty = rx_for(&sent, &[3]);
        let mut arq = arq(100, 3);
        assert_eq!(
            arq.observe(&dirty, &dirty.hints, &ctx(&sent, 1, 0.0))
                .status,
            LinkStatus::Retransmit
        );
        assert_eq!(
            arq.observe(&clean, &clean.hints, &ctx(&sent, 0, 0.0))
                .status,
            LinkStatus::Delivered
        );
        let m = arq.metrics();
        assert_eq!(m.packets, 2);
        assert_eq!(m.delivered, 1);
        assert_eq!(m.bits_transmitted, 200);
        assert_eq!(m.bits_retransmitted, 100);
        assert!((m.goodput() - 0.5).abs() < 1e-12);
        assert!((m.retransmit_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arq_link_gives_up_after_retries() {
        let sent = vec![0u8; 10];
        let dirty = rx_for(&sent, &[0]);
        let mut arq = arq(10, 1);
        assert_eq!(
            arq.observe(&dirty, &dirty.hints, &ctx(&sent, 1, 0.0))
                .status,
            LinkStatus::Retransmit
        );
        assert_eq!(
            arq.observe(&dirty, &dirty.hints, &ctx(&sent, 1, 0.0))
                .status,
            LinkStatus::GaveUp
        );
        assert_eq!(arq.metrics().gave_up, 1);
        assert_eq!(arq.metrics().goodput(), 0.0);
    }

    #[test]
    fn ppr_link_repairs_flagged_errors_cheaply() {
        let sent = vec![0u8; 32];
        let mut rx = rx_for(&sent, &[5]);
        rx.hints[5] = 1; // the error is flagged suspect
        let mut ppr = PprLink::new(PprConfig::new(8, 10));
        let v = ppr.observe(&rx, &rx.hints.clone(), &ctx(&sent, 1, 0.0));
        assert_eq!(v.status, LinkStatus::Delivered);
        let m = ppr.metrics();
        assert_eq!(m.bits_retransmitted, 8, "one chunk of eight");
        assert_eq!(m.bits_transmitted, 40);
        assert!((m.goodput() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn ppr_link_gives_up_on_unflagged_errors() {
        let sent = vec![0u8; 32];
        let rx = rx_for(&sent, &[5]); // high-confidence hints everywhere
        let mut ppr = PprLink::new(PprConfig::new(8, 10));
        let v = ppr.observe(&rx, &rx.hints.clone(), &ctx(&sent, 1, 0.0));
        assert_eq!(v.status, LinkStatus::GaveUp);
        assert_eq!(ppr.metrics().bits_retransmitted, 0);
        assert_eq!(ppr.metrics().delivery_rate(), 0.0);
    }

    #[test]
    fn softrate_link_steers_the_rate_and_tallies_with_oracle() {
        let sent = vec![0u8; 50];
        let clean = rx_for(&sent, &[]);
        let mut sr = SoftRateLink::new(SoftRate::new(PhyRate::Qam16Half), true);
        assert!(sr.needs_oracle());
        let mut c = ctx(&sent, 0, 1e-9); // very clean: step up
        c.oracle = Oracle::Best(PhyRate::Qam16Half);
        let v = sr.observe(&clean, &clean.hints, &c);
        assert_eq!(v.next_rate, Some(PhyRate::Qam16ThreeQuarters));
        let m = sr.metrics();
        assert_eq!(m.accurate, 1, "sent at the oracle's rate");
        assert_eq!(m.delivered, 1);
        assert!((m.mean_selected_mbps() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn only_pure_observers_opt_out_of_rate_adaptation() {
        assert!(!arq(100, 3).adapts_rate());
        assert!(!PprLink::new(PprConfig::new(8, 10)).adapts_rate());
        assert!(SoftRateLink::new(SoftRate::new(PhyRate::Qam16Half), false).adapts_rate());
        // The default is the fail-safe answer: a policy that does not opt
        // in is treated as rate-adapting and runs solo.
        struct Opaque;
        impl LinkPolicy for Opaque {
            fn name(&self) -> &'static str {
                "opaque"
            }
            fn observe(
                &mut self,
                _rx: &RxResult,
                _hints: &[u16],
                _ctx: &LinkContext<'_>,
            ) -> LinkVerdict {
                LinkVerdict::status(LinkStatus::Delivered)
            }
            fn metrics(&self) -> LinkMetrics {
                LinkMetrics::default()
            }
            fn reset(&mut self) {}
        }
        assert!(Opaque.adapts_rate());
    }

    #[test]
    fn reset_clears_state_and_metrics() {
        let sent = vec![0u8; 10];
        let dirty = rx_for(&sent, &[0]);
        let mut arq = arq(10, 2);
        let _ = arq.observe(&dirty, &dirty.hints, &ctx(&sent, 1, 0.0));
        arq.reset();
        assert_eq!(arq.metrics(), LinkMetrics::default());
        let mut sr = SoftRateLink::new(SoftRate::new(PhyRate::Qam16Half), false);
        let _ = sr.observe(&dirty, &dirty.hints, &ctx(&sent, 1, 0.5));
        sr.reset();
        assert_eq!(sr.metrics().packets, 0);
    }

    #[test]
    fn metrics_merge_adds_counters() {
        let mut a = LinkMetrics {
            packets: 2,
            delivered: 1,
            bits_delivered: 100,
            bits_transmitted: 200,
            ..LinkMetrics::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.packets, 4);
        assert!((a.goodput() - 0.5).abs() < 1e-12);
    }
}
