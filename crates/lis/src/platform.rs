//! Platform virtualization (LEAP analog).
//!
//! WiLIS runs on any FPGA board for which LEAP provides device drivers; the
//! user design sees a uniform link interface regardless of whether the
//! physical transport is a front-side bus, PCIe, or USB (§2 "FPGA
//! Virtualization"). This module models that layer: a [`LinkModel`]
//! describes a physical host↔accelerator transport by bandwidth, latency
//! and per-message overhead, and a [`Multiplexer`] shares one physical link
//! among logical channels the way LEAP multiplexes services.
//!
//! The co-simulation performance model (`wilis-cosim`) uses these to
//! reproduce the paper's Figure 2 platform: an FSB link with >700 MB/s of
//! bandwidth of which the simulation consumes only ~55 MB/s.

use std::fmt;

/// A physical host↔accelerator transport, described by the three numbers
/// that matter for batched streaming: sustained bandwidth, one-way latency,
/// and fixed per-message overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    name: &'static str,
    bandwidth_bytes_per_sec: f64,
    latency_secs: f64,
    per_message_overhead_secs: f64,
}

impl LinkModel {
    /// Builds a custom link model.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not strictly positive or either time is
    /// negative.
    pub fn new(
        name: &'static str,
        bandwidth_bytes_per_sec: f64,
        latency_secs: f64,
        per_message_overhead_secs: f64,
    ) -> Self {
        assert!(bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        assert!(latency_secs >= 0.0 && per_message_overhead_secs >= 0.0);
        Self {
            name,
            bandwidth_bytes_per_sec,
            latency_secs,
            per_message_overhead_secs,
        }
    }

    /// The paper's platform: Nallatech ACP module on a 1066 MHz front-side
    /// bus, measured at >700 MB/s FIFO bandwidth with ~1 µs latency.
    pub fn fsb() -> Self {
        Self::new("FSB (ACP)", 700.0e6, 1.0e-6, 0.5e-6)
    }

    /// A PCIe Gen2 x8 DMA engine, a common alternative FPGA attachment.
    pub fn pcie() -> Self {
        Self::new("PCIe Gen2 x8", 3.2e9, 2.0e-6, 2.0e-6)
    }

    /// A USB 2.0 bridge, the classic low-cost dev-board link.
    pub fn usb2() -> Self {
        Self::new("USB 2.0", 35.0e6, 125.0e-6, 50.0e-6)
    }

    /// Human-readable transport name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sustained bandwidth in bytes/second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.bandwidth_bytes_per_sec
    }

    /// One-way message latency in seconds.
    pub fn latency_secs(&self) -> f64 {
        self.latency_secs
    }

    /// Effective throughput (bytes/second) when streaming messages of
    /// `batch_bytes` each, pipelined so that latency overlaps transfer but
    /// per-message overhead does not.
    ///
    /// This captures the paper's key co-simulation optimization: large
    /// pipelined transfers amortize overhead (§2 reports roughly an order
    /// of magnitude gain from batching).
    pub fn streaming_bytes_per_sec(&self, batch_bytes: u64) -> f64 {
        assert!(batch_bytes > 0, "batch size must be positive");
        let per_batch =
            self.per_message_overhead_secs + batch_bytes as f64 / self.bandwidth_bytes_per_sec;
        batch_bytes as f64 / per_batch
    }

    /// Effective throughput under a *lock-step* (cycle-synchronized)
    /// protocol, where every exchange of `batch_bytes` must complete a full
    /// round trip before the next begins — the SCE-MI-style alternative the
    /// paper contrasts with (§5).
    pub fn lockstep_bytes_per_sec(&self, batch_bytes: u64) -> f64 {
        assert!(batch_bytes > 0, "batch size must be positive");
        let per_round = 2.0 * self.latency_secs
            + 2.0 * self.per_message_overhead_secs
            + batch_bytes as f64 / self.bandwidth_bytes_per_sec;
        batch_bytes as f64 / per_round
    }
}

impl fmt::Display for LinkModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.0} MB/s, {:.1} us latency)",
            self.name,
            self.bandwidth_bytes_per_sec / 1e6,
            self.latency_secs * 1e6
        )
    }
}

/// Round-robin multiplexing of logical channels over one physical link,
/// modeling LEAP's service multiplexing: user modules each see a private
/// channel and are insulated from one another's traffic except through
/// bandwidth sharing.
#[derive(Debug, Clone)]
pub struct Multiplexer {
    link: LinkModel,
    channels: Vec<ChannelUse>,
}

#[derive(Debug, Clone, PartialEq)]
struct ChannelUse {
    name: String,
    offered_bytes_per_sec: f64,
}

impl Multiplexer {
    /// A multiplexer over the given physical link.
    pub fn new(link: LinkModel) -> Self {
        Self {
            link,
            channels: Vec::new(),
        }
    }

    /// Registers a logical channel offering `bytes_per_sec` of traffic.
    pub fn add_channel(&mut self, name: &str, offered_bytes_per_sec: f64) -> &mut Self {
        assert!(offered_bytes_per_sec >= 0.0);
        self.channels.push(ChannelUse {
            name: name.to_string(),
            offered_bytes_per_sec,
        });
        self
    }

    /// Total traffic offered by all channels, bytes/second.
    pub fn offered_load_bytes_per_sec(&self) -> f64 {
        self.channels.iter().map(|c| c.offered_bytes_per_sec).sum()
    }

    /// Link utilization in `[0, ...)`; above 1.0 the link is oversubscribed.
    pub fn utilization(&self) -> f64 {
        self.offered_load_bytes_per_sec() / self.link.bandwidth_bytes_per_sec()
    }

    /// The throughput each channel actually achieves, in registration
    /// order. Under oversubscription, capacity is divided by max-min
    /// fairness (round-robin arbitration gives each channel an equal share,
    /// and channels offering less than their share donate the remainder).
    pub fn achieved_bytes_per_sec(&self) -> Vec<(String, f64)> {
        let capacity = self.link.bandwidth_bytes_per_sec();
        let mut remaining_capacity = capacity;
        let mut unsated: Vec<usize> = (0..self.channels.len()).collect();
        let mut achieved = vec![0.0f64; self.channels.len()];
        // Max-min fairness via progressive filling.
        loop {
            if unsated.is_empty() || remaining_capacity <= 0.0 {
                break;
            }
            let share = remaining_capacity / unsated.len() as f64;
            let mut sated_this_round = Vec::new();
            for &i in &unsated {
                let want = self.channels[i].offered_bytes_per_sec - achieved[i];
                if want <= share {
                    achieved[i] += want;
                    remaining_capacity -= want;
                    sated_this_round.push(i);
                }
            }
            if sated_this_round.is_empty() {
                // Everyone wants at least the fair share: split evenly, done.
                for &i in &unsated {
                    achieved[i] += share;
                }
                break;
            }
            unsated.retain(|i| !sated_this_round.contains(i));
        }
        self.channels
            .iter()
            .zip(achieved)
            .map(|(c, a)| (c.name.clone(), a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsb_matches_paper_envelope() {
        let fsb = LinkModel::fsb();
        assert!(fsb.bandwidth_bytes_per_sec() >= 700e6);
        // The simulation's ~55 MB/s fits with huge headroom.
        assert!(55e6 / fsb.bandwidth_bytes_per_sec() < 0.1);
    }

    #[test]
    fn batching_amortizes_overhead() {
        let fsb = LinkModel::fsb();
        let small = fsb.streaming_bytes_per_sec(64);
        let large = fsb.streaming_bytes_per_sec(64 * 1024);
        assert!(
            large > 5.0 * small,
            "batched transfers should dominate: {small:.0} vs {large:.0}"
        );
    }

    #[test]
    fn decoupled_beats_lockstep_by_an_order_of_magnitude() {
        // The paper (§2) credits decoupling + large pipelined batches with
        // roughly 10x over precise hardware/software synchronization. The
        // honest comparison is decoupled large batches versus lock-step
        // fine-grained exchanges (a lock-step protocol cannot batch, that
        // is the point of gating the clock per §5).
        let fsb = LinkModel::fsb();
        let decoupled = fsb.streaming_bytes_per_sec(64 * 1024);
        let lockstep = fsb.lockstep_bytes_per_sec(256);
        let ratio = decoupled / lockstep;
        assert!(
            ratio > 8.0,
            "decoupling should win by ~an order of magnitude, got {ratio:.2}"
        );
        // Even at equal batch size, decoupling wins (no round-trip stalls).
        let same_batch = fsb.streaming_bytes_per_sec(4096) / fsb.lockstep_bytes_per_sec(4096);
        assert!(same_batch > 1.2, "got {same_batch:.2}");
    }

    #[test]
    fn multiplexer_fair_share_under_oversubscription() {
        let link = LinkModel::new("t", 100.0, 0.0, 0.0);
        let mut mux = Multiplexer::new(link);
        mux.add_channel("greedy", 200.0)
            .add_channel("modest", 10.0)
            .add_channel("greedy2", 200.0);
        assert!(mux.utilization() > 1.0);
        let achieved = mux.achieved_bytes_per_sec();
        // modest gets its 10; the two greedy channels split the remaining 90.
        assert_eq!(achieved[1], ("modest".to_string(), 10.0));
        assert!((achieved[0].1 - 45.0).abs() < 1e-9);
        assert!((achieved[2].1 - 45.0).abs() < 1e-9);
    }

    #[test]
    fn multiplexer_undersubscribed_passes_through() {
        let link = LinkModel::fsb();
        let mut mux = Multiplexer::new(link);
        mux.add_channel("sim", 55e6);
        let achieved = mux.achieved_bytes_per_sec();
        assert!((achieved[0].1 - 55e6).abs() < 1.0);
        assert!(mux.utilization() < 0.1);
    }

    #[test]
    fn usb_is_much_slower_than_fsb() {
        assert!(
            LinkModel::usb2().streaming_bytes_per_sec(4096)
                < LinkModel::fsb().streaming_bytes_per_sec(4096) / 10.0
        );
    }
}
