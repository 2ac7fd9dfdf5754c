//! Stop-and-wait retransmission, with or without soft-combining: the
//! one link policy behind `"arq"`, `"harq-cc"` and `"harq-ir"`.
//!
//! Plain ARQ throws away the soft information of a failed attempt and
//! starts over. HARQ retains the attempt's post-depuncture mother-code
//! LLR plane and **combines** it with each retransmission before
//! re-entering the decoder:
//!
//! * **Chase combining** ([`HarqMode::Chase`]) — every retransmission is
//!   the identical punctured block; planes add coherently
//!   ([`wilis_fec::combine_llrs_into`], saturating), so the combined
//!   block decodes as if received at a higher SNR.
//! * **Incremental redundancy** ([`HarqMode::IncrementalRedundancy`]) —
//!   each retransmission cycles a different puncture-mask *phase*
//!   ([`wilis_fec::Puncturer::with_phase`]) through an explicit schedule,
//!   so successive attempts reveal previously-stolen mother bits and the
//!   combined block sees a monotonically lower effective code rate.
//!
//! Both are one session with the combiner armed: disarmed
//! ([`HarqConfig::with_combining`]), [`HarqLink`] is conventional
//! whole-packet ARQ, the policy the `"arq"` registry name builds.
//!
//! The policy splits in two so the scenario engine can drive the PHY:
//! [`HarqCore`] is the per-policy scratch (the retained plane, the
//! attempt counter, the phase schedule) the engine reaches through
//! [`crate::LinkPolicy::harq`] while the combiner is armed; [`HarqLink`]
//! wraps it in the attempt budget and the metrics — delivered on the
//! first attempt, *recovered* by combining, or exhausted are distinct
//! outcomes, with an attempts histogram and the post-IR effective code
//! rate accumulated per closed packet.
//!
//! Configuration mistakes (zero attempt budget, a phase outside the
//! rate's mask period, a schedule that does not start at phase 0) are
//! *stored*, not panicked: registry factories are infallible, so
//! [`HarqLink`] carries the error string and the engine's preflight
//! surfaces it as `InvalidConfig` through
//! [`crate::LinkPolicy::config_error`].

use wilis_fec::{combine_llrs_into, CodeRate, Llr};
use wilis_phy::RxResult;

use crate::link::{LinkContext, LinkMetrics, LinkPolicy, LinkStatus, LinkVerdict};

/// How retransmissions relate to the first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarqMode {
    /// Every attempt repeats the identical phase-0 punctured block.
    Chase,
    /// Each attempt cycles the next puncture phase from the schedule.
    IncrementalRedundancy,
}

/// The HARQ knobs: mode, total attempt budget, whether the combiner is
/// armed, and the IR phase schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarqConfig {
    mode: HarqMode,
    attempts: u32,
    combining: bool,
    schedule: Vec<usize>,
}

impl HarqConfig {
    /// Chase combining with a total budget of `attempts` transmissions
    /// (first attempt included).
    pub fn chase(attempts: u32) -> Self {
        Self {
            mode: HarqMode::Chase,
            attempts,
            combining: true,
            schedule: vec![0],
        }
    }

    /// Incremental redundancy cycling `schedule` (attempt `i` transmits
    /// puncture phase `schedule[i % schedule.len()]`).
    pub fn incremental(attempts: u32, schedule: Vec<usize>) -> Self {
        Self {
            mode: HarqMode::IncrementalRedundancy,
            attempts,
            combining: true,
            schedule,
        }
    }

    /// Arms or disarms the combiner. Disarmed, the policy is
    /// conventional whole-packet ARQ with `attempts - 1` retries: the
    /// policy the `"arq"` registry name builds.
    pub fn with_combining(mut self, combining: bool) -> Self {
        self.combining = combining;
        self
    }

    /// The default IR phase schedule for `rate`: phases whose union
    /// covers the whole mask period in as few attempts as possible, so
    /// the effective rate reaches the 1/2 mother code fastest.
    pub fn default_ir_schedule(rate: CodeRate) -> Vec<usize> {
        match rate {
            // Rate 1/2 transmits every mother bit already; retransmission
            // can only repeat it (IR degenerates to Chase).
            CodeRate::Half => vec![0],
            // Mask 1110 rotated by 3 is 0111: union covers all four.
            CodeRate::TwoThirds => vec![0, 3],
            // Mask 110001... (110 001) rotated by 3 is 001111: union
            // covers all six.
            CodeRate::ThreeQuarters => vec![0, 3],
        }
    }

    /// The mode.
    pub fn mode(&self) -> HarqMode {
        self.mode
    }

    /// Total attempt budget (first transmission included).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Whether the combiner is armed.
    pub fn combining(&self) -> bool {
        self.combining
    }

    /// The IR phase schedule.
    pub fn schedule(&self) -> &[usize] {
        &self.schedule
    }

    /// Checks the configuration against the code rate it will run at.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found:
    /// a zero attempt budget, an empty schedule, a schedule that does
    /// not start with phase 0 (the receiver of the *first* attempt must
    /// see the standard mask), or a phase outside the rate's mask
    /// period.
    pub fn validate(&self, rate: CodeRate) -> Result<(), String> {
        if self.attempts == 0 {
            return Err("HARQ attempt budget is zero: no packet could ever be sent".into());
        }
        if self.schedule.is_empty() {
            return Err("HARQ phase schedule is empty".into());
        }
        if self.schedule[0] != 0 {
            return Err(format!(
                "HARQ phase schedule must start at phase 0 (got {})",
                self.schedule[0]
            ));
        }
        let period = rate.mask().len();
        for &ph in &self.schedule {
            if ph >= period {
                return Err(format!(
                    "HARQ phase {ph} is outside the rate-{rate} mask period ({period})"
                ));
            }
        }
        Ok(())
    }

    /// The puncture phase attempt `attempt` (0-based) transmits.
    fn phase_for(&self, attempt: u32) -> usize {
        if self.combining && self.mode == HarqMode::IncrementalRedundancy {
            self.schedule[attempt as usize % self.schedule.len()]
        } else {
            0
        }
    }

    /// The effective code rate after `attempts_used` combined attempts:
    /// data bits per *distinct* mother-code position transmitted. Chase
    /// repeats one phase so this stays at `rate.value()`; IR unions the
    /// scheduled phases and drives it toward the 1/2 mother code.
    // lint: no_alloc
    pub fn effective_rate(&self, rate: CodeRate, attempts_used: u32) -> f64 {
        let mask = rate.mask();
        let period = mask.len();
        let mut cover: u32 = 0;
        for a in 0..attempts_used {
            let ph = self.phase_for(a);
            for (i, _) in mask.iter().enumerate() {
                if mask[(i + ph) % period] == 1 {
                    cover |= 1 << i;
                }
            }
        }
        let distinct = cover.count_ones();
        if distinct == 0 {
            rate.value()
        } else {
            (period as f64 / 2.0) / f64::from(distinct)
        }
    }
}

/// The per-policy scratch the scenario engine drives: the retained
/// mother-code LLR plane, the attempt counter of the open packet, and
/// the phase schedule. Reached through [`crate::LinkPolicy::harq`].
#[derive(Debug, Clone)]
pub struct HarqCore {
    config: HarqConfig,
    retained: Vec<Llr>,
    attempt: u32,
}

impl HarqCore {
    fn new(config: HarqConfig) -> Self {
        Self {
            config,
            retained: Vec::new(),
            attempt: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HarqConfig {
        &self.config
    }

    /// 0-based index of the attempt currently in flight.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The puncture phase the in-flight attempt must be transmitted (and
    /// front-end-received) at.
    pub fn tx_phase(&self) -> usize {
        self.config.phase_for(self.attempt)
    }

    /// Folds the in-flight attempt's fresh mother-code LLR plane into the
    /// retained one: the first attempt replaces, every retransmission
    /// saturating-adds ([`wilis_fec::combine_llrs_into`]). The combined
    /// plane is then read back through [`HarqCore::plane`] and re-entered
    /// into the decoder.
    ///
    /// # Panics
    ///
    /// Panics if a retransmission's plane length disagrees with the
    /// retained one (the packet geometry changed mid-session).
    // lint: no_alloc
    pub fn absorb(&mut self, fresh: &[Llr]) {
        if self.attempt == 0 {
            self.retained.clear();
            self.retained.extend_from_slice(fresh);
        } else {
            combine_llrs_into(&mut self.retained, fresh);
        }
    }

    /// The combined mother-code LLR plane of the open packet.
    pub fn plane(&self) -> &[Llr] {
        &self.retained
    }

    fn advance(&mut self) {
        self.attempt += 1;
    }

    fn close(&mut self) {
        self.attempt = 0;
    }
}

/// Number of attempts-histogram bins in [`LinkMetrics::attempts_hist`];
/// the last bin saturates.
pub const ATTEMPTS_HIST_BINS: usize = 8;

/// The one stop-and-wait link policy: each packet has a budget of
/// attempts, and a corrupted attempt keeps it open for a retransmission.
/// Successive packets of a grid point stand in for the attempts (the
/// channel is independent per packet, which is exactly the ARQ model's
/// assumption). Armed, a failed attempt's LLR plane is retained in the
/// embedded [`HarqCore`] and combined with each retransmission before
/// re-decoding; disarmed, the policy is conventional ARQ.
#[derive(Debug, Clone)]
pub struct HarqLink {
    core: HarqCore,
    rate: CodeRate,
    bits_per_packet: u64,
    metrics: LinkMetrics,
    config_error: Option<String>,
}

impl HarqLink {
    /// A stop-and-wait policy for `bits_per_packet`-bit packets running
    /// `config` at code rate `rate`.
    ///
    /// Never panics on a bad configuration: the error is stored and
    /// surfaced through [`crate::LinkPolicy::config_error`] so the
    /// scenario engine's preflight can reject it as `InvalidConfig`.
    pub fn new(bits_per_packet: u64, config: HarqConfig, rate: CodeRate) -> Self {
        let mut config_error = config.validate(rate).err();
        if bits_per_packet == 0 && config_error.is_none() {
            config_error = Some("HARQ packets must carry bits".into());
        }
        Self {
            core: HarqCore::new(config),
            rate,
            // A rejected zero-bit configuration still accounts one bit per
            // packet, as every bit-denominated ratio needs a carrier.
            bits_per_packet: bits_per_packet.max(1),
            metrics: LinkMetrics::default(),
            config_error,
        }
    }
}

impl LinkPolicy for HarqLink {
    fn name(&self) -> &'static str {
        match (self.core.config.combining, self.core.config.mode) {
            (false, _) => "arq",
            (true, HarqMode::Chase) => "harq-cc",
            (true, HarqMode::IncrementalRedundancy) => "harq-ir",
        }
    }

    fn adapts_rate(&self) -> bool {
        false
    }

    fn harq(&mut self) -> Option<&mut HarqCore> {
        if self.core.config.combining && self.config_error.is_none() {
            Some(&mut self.core)
        } else {
            None
        }
    }

    fn config_error(&self) -> Option<String> {
        self.config_error.clone()
    }

    fn observe(&mut self, _rx: &RxResult, _hints: &[u16], ctx: &LinkContext<'_>) -> LinkVerdict {
        let bits = self.bits_per_packet;
        let used = self.core.attempt + 1;
        if used > 1 {
            self.metrics.bits_retransmitted += bits;
        }
        let clean = ctx.bit_errors == 0;
        let status = if clean {
            LinkStatus::Delivered
        } else if used < self.core.config.attempts {
            LinkStatus::Retransmit
        } else {
            LinkStatus::GaveUp
        };
        self.metrics.record(bits, status);
        if status == LinkStatus::Retransmit {
            self.core.advance();
            return LinkVerdict::status(status);
        }
        if self.core.config.combining {
            self.metrics.attempts_hist[(used as usize - 1).min(ATTEMPTS_HIST_BINS - 1)] += 1;
            self.metrics.effective_rate_sum += self.core.config.effective_rate(self.rate, used);
            if clean && used > 1 {
                self.metrics.recovered += 1;
            }
        }
        self.core.close();
        LinkVerdict::status(status)
    }

    fn metrics(&self) -> LinkMetrics {
        self.metrics
    }

    fn reset(&mut self) {
        self.core.retained.clear();
        self.core.close();
        self.metrics = LinkMetrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wilis_phy::{PhyRate, PhyScratch, Receiver, Transmitter};

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

    fn ctx<'a>(sent: &'a [u8], bit_errors: u64) -> LinkContext<'a> {
        LinkContext {
            sent,
            bit_errors,
            predicted_pber: 0.0,
            rate: PhyRate::Qam16Half,
            oracle: crate::link::Oracle::Unavailable,
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let rate = CodeRate::ThreeQuarters;
        assert!(HarqConfig::chase(0).validate(rate).is_err(), "zero budget");
        assert!(
            HarqConfig::incremental(4, vec![]).validate(rate).is_err(),
            "empty schedule"
        );
        assert!(
            HarqConfig::incremental(4, vec![3, 0])
                .validate(rate)
                .is_err(),
            "first attempt must be phase 0"
        );
        assert!(
            HarqConfig::incremental(4, vec![0, 6])
                .validate(rate)
                .is_err(),
            "phase 6 outside the 6-long 3/4 mask"
        );
        assert!(HarqConfig::incremental(4, vec![0, 3])
            .validate(rate)
            .is_ok());
        // The same schedule is invalid at rate 1/2 (period 2).
        assert!(HarqConfig::incremental(4, vec![0, 3])
            .validate(CodeRate::Half)
            .is_err());
        // Bad configs build a policy that reports, not panics.
        let link = HarqLink::new(600, HarqConfig::chase(0), rate);
        assert!(link.config_error().is_some());
        let zero_bits = HarqLink::new(0, HarqConfig::chase(4).with_combining(false), rate);
        assert!(
            zero_bits.config_error().is_some(),
            "packets must carry bits"
        );
    }

    #[test]
    fn chase_combining_k_identical_attempts_scales_llrs_by_k() {
        // The Chase property, on real PHY planes: absorbing K identical
        // clean retransmissions leaves exactly the single-attempt plane
        // scaled by K (saturating).
        let rate = PhyRate::QpskThreeQuarters;
        let payload: Vec<u8> = (0..600).map(|i| ((i * 13 + 1) % 2) as u8).collect();
        let tx = Transmitter::new(rate).transmit(&payload, 0x5D);
        let mut rx = Receiver::sova(rate);
        let mut scratch = PhyScratch::new();
        let mut plane = Vec::new();
        rx.rx_front_end_into(&tx.samples, payload.len(), &mut scratch, &mut plane);

        for k in [1u32, 2, 3, 7] {
            let mut core = HarqCore::new(HarqConfig::chase(8));
            for _ in 0..k {
                core.absorb(&plane);
                core.advance();
            }
            let expect: Vec<Llr> = plane.iter().map(|&l| l.saturating_mul(k as Llr)).collect();
            assert_eq!(core.plane(), &expect[..], "K = {k}");
        }
    }

    #[test]
    fn ir_schedule_cycles_phases_and_lowers_effective_rate() {
        let rate = CodeRate::ThreeQuarters;
        let cfg = HarqConfig::incremental(4, vec![0, 3]);
        let mut core = HarqCore::new(cfg.clone());
        assert_eq!(core.tx_phase(), 0);
        core.advance();
        assert_eq!(core.tx_phase(), 3);
        core.advance();
        assert_eq!(core.tx_phase(), 0, "schedule cycles");
        assert!((cfg.effective_rate(rate, 1) - 0.75).abs() < 1e-12);
        assert!(
            (cfg.effective_rate(rate, 2) - 0.5).abs() < 1e-12,
            "phases 0+3 cover the mask"
        );
        assert!(
            (cfg.effective_rate(rate, 4) - 0.5).abs() < 1e-12,
            "mother code is the floor"
        );
        // Chase never lowers the effective rate.
        let cc = HarqConfig::chase(4);
        assert!((cc.effective_rate(rate, 3) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn delivered_recovered_exhausted_are_distinct_outcomes() {
        let sent = vec![0u8; 50];
        let clean = rx_for(&sent, &[]);
        let dirty = rx_for(&sent, &[1]);
        let mut harq = HarqLink::new(50, HarqConfig::chase(3), CodeRate::Half);
        // Packet 1: first-attempt delivery.
        assert_eq!(
            harq.observe(&clean, &clean.hints, &ctx(&sent, 0)).status,
            LinkStatus::Delivered
        );
        // Packet 2: recovered on attempt 2.
        assert_eq!(
            harq.observe(&dirty, &dirty.hints, &ctx(&sent, 1)).status,
            LinkStatus::Retransmit
        );
        assert_eq!(
            harq.observe(&clean, &clean.hints, &ctx(&sent, 0)).status,
            LinkStatus::Delivered
        );
        // Packet 3: budget exhausted.
        for _ in 0..2 {
            assert_eq!(
                harq.observe(&dirty, &dirty.hints, &ctx(&sent, 1)).status,
                LinkStatus::Retransmit
            );
        }
        assert_eq!(
            harq.observe(&dirty, &dirty.hints, &ctx(&sent, 1)).status,
            LinkStatus::GaveUp
        );
        let m = harq.metrics();
        assert_eq!(m.delivered, 2);
        assert_eq!(m.recovered, 1, "one delivery needed the combiner");
        assert_eq!(m.gave_up, 1);
        assert_eq!(m.attempts_hist[0], 1, "one packet closed in 1 attempt");
        assert_eq!(m.attempts_hist[1], 1, "one packet closed in 2 attempts");
        assert_eq!(m.attempts_hist[2], 1, "one packet exhausted 3 attempts");
        assert!((m.recovered_fraction() - 0.5).abs() < 1e-12);
        assert!((m.mean_attempts() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_combiner_and_metrics() {
        let sent = vec![0u8; 50];
        let dirty = rx_for(&sent, &[1]);
        let mut harq = HarqLink::new(50, HarqConfig::chase(3), CodeRate::Half);
        harq.harq().expect("armed").absorb(&[1, 2, 3]);
        let _ = harq.observe(&dirty, &dirty.hints, &ctx(&sent, 1));
        harq.reset();
        assert_eq!(harq.metrics(), LinkMetrics::default());
        assert_eq!(harq.harq().expect("armed").attempt(), 0);
    }
}
