//! Confidence-driven sequential stopping for Monte-Carlo grid points.

use wilis_lis::registry::RegistryError;

use super::engine::PacketTally;

/// Which Monte-Carlo estimate a [`StoppingRule`] watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StopMetric {
    /// The payload bit-error rate — trials are received payload bits.
    Ber,
    /// The packet-error rate — trials are received packets.
    Per,
}

/// Confidence-driven sequential stopping for Monte-Carlo grid points.
///
/// A point runs packets in chunks of `chunk_packets`; at each chunk
/// boundary the Wilson score interval of the watched error rate is
/// evaluated, and the point stops as soon as the interval half-width
/// closes below `target_half_width` — or at the scenario's `packets`
/// budget, whichever comes first. The budget is the hard cap: a point
/// whose interval never closes (e.g. BER pinned near 0.5 deep in the
/// waterfall) runs exactly the packets it would have run without a rule.
///
/// Determinism: the decision at a boundary is a pure function of the
/// integer error/trial counters accumulated so far, which are themselves
/// pure functions of `(scenario seed, packet index)`. The chunk schedule
/// therefore never depends on thread count, on co-scheduled grid points,
/// or on whether earlier points came from a warm cache — the bit-identity
/// contract of [`SweepRunner`](super::SweepRunner) survives intact. In a fused shared-channel
/// job each member applies its *own* rule to its *own* tally and simply
/// stops observing at its stop point, so fused results remain
/// bit-identical to solo runs.
///
/// HARQ scenarios evaluate the boundary on *logical* packets (the seed
/// schedule axis) while the interval uses the attempt-level tally that
/// [`ScenarioResult::packets`](super::ScenarioResult::packets) reports. Contention cells ignore stopping
/// rules: a cell's slot budget is the workload definition, not a
/// Monte-Carlo depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    /// The estimate whose confidence interval drives stopping.
    pub metric: StopMetric,
    /// Stop once the Wilson half-width is at or below this.
    pub target_half_width: f64,
    /// The normal quantile of the interval (1.96 ≈ 95% confidence).
    pub z: f64,
    /// Packets per chunk between boundary checks.
    pub chunk_packets: u32,
}

impl StoppingRule {
    /// A BER-watching rule at 95% confidence with the default chunk size.
    pub fn ber(target_half_width: f64) -> Self {
        Self {
            metric: StopMetric::Ber,
            target_half_width,
            z: 1.96,
            chunk_packets: 32,
        }
    }

    /// A PER-watching rule at 95% confidence with the default chunk size.
    pub fn per(target_half_width: f64) -> Self {
        Self {
            metric: StopMetric::Per,
            ..Self::ber(target_half_width)
        }
    }

    /// Replaces the confidence quantile.
    pub fn with_z(mut self, z: f64) -> Self {
        self.z = z;
        self
    }

    /// Replaces the chunk size.
    pub fn with_chunk(mut self, packets: u32) -> Self {
        self.chunk_packets = packets;
        self
    }

    /// The Wilson score interval half-width for `errors` successes in
    /// `trials` Bernoulli trials at quantile `z`. Returns `f64::INFINITY`
    /// for zero trials, so a rule can never stop before observing data.
    pub fn wilson_half_width(errors: u64, trials: u64, z: f64) -> f64 {
        if trials == 0 {
            return f64::INFINITY;
        }
        let n = trials as f64;
        let p = errors as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt()
    }

    pub(super) fn validate(&self) -> Result<(), RegistryError> {
        // is_finite() also rejects NaN, which every comparison below
        // would otherwise wave through.
        if !self.target_half_width.is_finite() || self.target_half_width <= 0.0 {
            return Err(RegistryError::invalid_config(format!(
                "stopping rule target_half_width must be positive and finite, got {}",
                self.target_half_width
            )));
        }
        if !self.z.is_finite() || self.z <= 0.0 {
            return Err(RegistryError::invalid_config(format!(
                "stopping rule z must be positive and finite, got {}",
                self.z
            )));
        }
        if self.chunk_packets == 0 {
            return Err(RegistryError::invalid_config(
                "stopping rule chunk_packets must be at least 1",
            ));
        }
        Ok(())
    }

    /// True when `packets_done` received packets land on a chunk
    /// boundary — the only points where a stop decision may be taken.
    pub(super) fn is_boundary(&self, packets_done: u64) -> bool {
        packets_done > 0 && packets_done % u64::from(self.chunk_packets) == 0
    }

    /// True when the watched interval has closed, given the tally after
    /// `receives` received packets of `payload_bits` each.
    pub(super) fn closed(&self, tally: &PacketTally, receives: u64, payload_bits: usize) -> bool {
        let (errors, trials) = match self.metric {
            StopMetric::Ber => (tally.bit_errors, receives * payload_bits as u64),
            StopMetric::Per => (tally.packet_errors, receives),
        };
        Self::wilson_half_width(errors, trials, self.z) <= self.target_half_width
    }
}
