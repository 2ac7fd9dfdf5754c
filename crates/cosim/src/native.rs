//! Measured throughput of this repository's software pipeline.
//!
//! The paper contrasts its 20+ Mb/s co-simulation against software
//! simulators that manage "only a few kilobits per second" for detailed
//! models (§1), and against optimized software radios that need a full
//! core for Viterbi alone (§5). This module measures what *our* pure
//! software pipeline achieves, so the Figure 2 regeneration can report
//! model-vs-native side by side — and so the §5 comparison ("pure software
//! is orders of magnitude below line rate for soft-output decoders") can
//! be checked rather than asserted.

use std::time::Instant; // lint: allow(wall-clock) — this module *is* the native-speed measurement harness

use wilis_channel::{AwgnChannel, SnrDb};
use wilis_fxp::rng::SmallRng;
use wilis_fxp::Cplx;
use wilis_phy::{PhyRate, PhyScratch, Receiver, RxResult, Transmitter};

/// Which decoder the native measurement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeDecoder {
    /// Hard-output Viterbi (the commodity baseline).
    Viterbi,
    /// SOVA with the paper's `l = k = 64`.
    Sova,
    /// Sliding-window BCJR with block 64.
    Bcjr,
}

/// A native throughput measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NativeSpeed {
    /// The rate measured.
    pub rate: PhyRate,
    /// Payload bits pushed through TX → channel → RX.
    pub bits: u64,
    /// Wall-clock seconds consumed.
    pub wall_secs: f64,
    /// Achieved simulation speed in Mb/s.
    pub sim_mbps: f64,
    /// Fraction of the 802.11g line rate.
    pub fraction_of_line_rate: f64,
}

/// Runs `packets` packets of `packet_bits` payload bits end-to-end and
/// measures wall-clock throughput.
///
/// # Panics
///
/// Panics if `packets` or `packet_bits` is zero.
pub fn measure_native(
    rate: PhyRate,
    decoder: NativeDecoder,
    packets: u32,
    packet_bits: usize,
    seed: u64,
) -> NativeSpeed {
    assert!(packets > 0 && packet_bits > 0, "measure something");
    let tx = Transmitter::new(rate);
    let mut rx = match decoder {
        NativeDecoder::Viterbi => Receiver::viterbi(rate),
        NativeDecoder::Sova => Receiver::sova(rate),
        NativeDecoder::Bcjr => Receiver::bcjr(rate),
    };
    let mut channel = AwgnChannel::new(SnrDb::new(20.0), seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let payloads: Vec<Vec<u8>> = (0..packets)
        .map(|_| (0..packet_bits).map(|_| rng.gen_bit()).collect())
        .collect();

    // The steady-state scratch path: what the measurement times is
    // arithmetic, not the allocator.
    let mut scratch = PhyScratch::new();
    let mut samples: Vec<Cplx> = Vec::new();
    let mut got = RxResult::default();
    let start = Instant::now(); // lint: allow(wall-clock) — measuring host decode speed is this function's purpose
    let mut delivered = 0u64;
    for (i, payload) in payloads.iter().enumerate() {
        let scramble_seed = (i % 127 + 1) as u8;
        tx.tx_into(payload, scramble_seed, &mut scratch, &mut samples);
        channel.apply(&mut samples);
        rx.rx_from(
            &samples,
            payload.len(),
            scramble_seed,
            &mut scratch,
            &mut got,
        );
        delivered += (got.bit_errors(payload) == 0) as u64;
    }
    let wall = start.elapsed().as_secs_f64();
    assert!(delivered > 0, "high-SNR run should deliver packets");

    let bits = u64::from(packets) * packet_bits as u64;
    let sim_bps = bits as f64 / wall;
    NativeSpeed {
        rate,
        bits,
        wall_secs: wall,
        sim_mbps: sim_bps / 1e6,
        fraction_of_line_rate: sim_bps / rate.bps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_measurement_is_positive_and_consistent() {
        let m = measure_native(PhyRate::QpskHalf, NativeDecoder::Viterbi, 4, 400, 1);
        assert_eq!(m.bits, 1600);
        assert!(m.wall_secs > 0.0);
        assert!(m.sim_mbps > 0.0);
        let recomputed = m.bits as f64 / m.wall_secs / 1e6;
        assert!((m.sim_mbps - recomputed).abs() < 1e-9);
    }

    #[test]
    fn soft_decoders_cost_more_than_viterbi() {
        // §5: soft-output algorithms are 3-4x the complexity of Viterbi.
        // Wall-clock noise makes exact ratios flaky; just require SOVA and
        // BCJR not to be dramatically faster than the hard decoder.
        let packets = 6;
        let v = measure_native(PhyRate::QpskHalf, NativeDecoder::Viterbi, packets, 600, 2);
        let b = measure_native(PhyRate::QpskHalf, NativeDecoder::Bcjr, packets, 600, 2);
        assert!(b.sim_mbps < v.sim_mbps * 2.0);
    }
}
