//! Stage replay: the PHY stages no registry reaches, timed one packet at a
//! time through the public `Transmitter::tx_into`,
//! `Receiver::rx_front_end_into` and `Receiver::rx_decode_from` at a
//! workload's rates, SNRs and channel.

use std::time::Instant;

use wilis::channel::ChannelModel;
use wilis::fxp::rng::{mix_seed, SmallRng};
use wilis::fxp::Cplx;
use wilis::lis::registry::Params;
use wilis::phy::{PhyRate, PhyScratch, Receiver, RxResult, Transmitter};
use wilis::scenario::channel_registry;
use wilis::softphy::ScalingFactors;
use wilis::{SystemConfig, WilisSystem};

/// One operating point of a workload's PHY.
#[derive(Debug, Clone, Copy)]
pub struct StagePoint {
    pub rate: PhyRate,
    pub decoder: &'static str,
    pub channel: &'static str,
    pub snr_db: f64,
    pub payload_bits: usize,
}

/// Nanoseconds spent per stage over `packets` packets.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimes {
    pub packets: u64,
    pub tx_ns: u64,
    pub front_end_ns: u64,
    pub decode_ns: u64,
}

impl StageTimes {
    fn add(&mut self, other: StageTimes) {
        self.packets += other.packets;
        self.tx_ns += other.tx_ns;
        self.front_end_ns += other.front_end_ns;
        self.decode_ns += other.decode_ns;
    }
}

/// The receiver the engine builds for `point`: its decoder from the stock
/// registry, on the SoftPHY hint-path demapper.
pub fn receiver(system: &WilisSystem, point: &StagePoint) -> Receiver {
    let mut config = SystemConfig::new(point.rate, point.decoder);
    config.demapper_bits = ScalingFactors::hint_demapper_bits(point.rate.modulation());
    system.receiver(&config).expect("stock decoder")
}

fn channel(point: &StagePoint) -> Box<dyn ChannelModel> {
    let mut params = Params::new();
    params.set("snr_db", &format!("{}", point.snr_db));
    channel_registry()
        .build(point.channel, &params)
        .expect("stock channel")
}

/// Sends `packets` seeded packets of `point` through tx, the channel, the
/// front end and the decoder, timing each stage. `on_packet` sees each
/// packet's channel output and its staged receive result.
pub fn replay(
    system: &WilisSystem,
    point: &StagePoint,
    seed: u64,
    packets: u64,
    mut on_packet: impl FnMut(&[Cplx], u8, &RxResult),
) -> StageTimes {
    let tx = Transmitter::new(point.rate);
    let mut rx = receiver(system, point);
    let mut channel = channel(point);
    let mut scratch = PhyScratch::new();
    let (mut samples, mut mother, mut got) = (Vec::new(), Vec::new(), RxResult::default());
    let mut times = StageTimes {
        packets,
        ..StageTimes::default()
    };
    for p in 0..packets {
        let mut bits = SmallRng::seed_from_u64(mix_seed(seed, p));
        let payload: Vec<u8> = (0..point.payload_bits).map(|_| bits.gen_bit()).collect();
        let scramble_seed = (p % 127 + 1) as u8;

        let t = Instant::now();
        tx.tx_into(&payload, scramble_seed, &mut scratch, &mut samples);
        times.tx_ns += t.elapsed().as_nanos() as u64;
        channel.apply(&mut samples, mix_seed(seed, p ^ 0xC4A0));
        let t = Instant::now();
        rx.rx_front_end_into(&samples, point.payload_bits, &mut scratch, &mut mother);
        times.front_end_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        rx.rx_decode_from(
            &mother,
            point.payload_bits,
            scramble_seed,
            &mut scratch,
            &mut got,
        );
        times.decode_ns += t.elapsed().as_nanos() as u64;
        on_packet(&samples, scramble_seed, &got);
    }
    times
}

/// Replays every point `packets` times per pass and returns the median
/// pass's (tx, front end) nanoseconds per packet.
pub fn phy_ns_per_packet(
    points: &[StagePoint],
    seed: u64,
    packets: u64,
    passes: usize,
) -> (f64, f64) {
    let system = WilisSystem::new();
    let mut tx = Vec::with_capacity(passes);
    let mut front = Vec::with_capacity(passes);
    for pass in 0..passes {
        let mut total = StageTimes::default();
        for (i, point) in points.iter().enumerate() {
            let s = mix_seed(seed, (pass * points.len() + i) as u64);
            total.add(replay(&system, point, s, packets, |_, _, _| {}));
        }
        tx.push(total.tx_ns as f64 / total.packets as f64);
        front.push(total.front_end_ns as f64 / total.packets as f64);
    }
    (crate::median(&mut tx), crate::median(&mut front))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The split stages decode exactly what the one-call receive does on
    /// the same channel output, so the replay times the engine's work.
    #[test]
    fn staged_receive_equals_rx_from() {
        let system = WilisSystem::new();
        let points = [
            StagePoint {
                rate: PhyRate::Qam16Half,
                decoder: "sova",
                channel: "fading",
                snr_db: 12.0,
                payload_bits: 1704,
            },
            StagePoint {
                rate: PhyRate::QpskHalf,
                decoder: "bcjr",
                channel: "awgn",
                snr_db: 2.0,
                payload_bits: 1704,
            },
            StagePoint {
                rate: PhyRate::BpskHalf,
                decoder: "viterbi",
                channel: "awgn",
                snr_db: 20.0,
                payload_bits: 64,
            },
        ];
        for point in &points {
            let mut whole = receiver(&system, point);
            let mut scratch = PhyScratch::new();
            let mut expected = RxResult::default();
            let mut compared = 0;
            let times = replay(&system, point, 7, 6, |samples, scramble_seed, staged| {
                whole.rx_from(
                    samples,
                    point.payload_bits,
                    scramble_seed,
                    &mut scratch,
                    &mut expected,
                );
                assert_eq!(staged.payload, expected.payload, "{point:?}");
                assert_eq!(staged.hints, expected.hints, "{point:?}");
                compared += 1;
            });
            assert_eq!(compared, 6);
            assert_eq!(times.packets, 6);
            assert!(times.tx_ns > 0 && times.front_end_ns > 0 && times.decode_ns > 0);
        }
    }
}
