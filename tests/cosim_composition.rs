//! Integration: the Figure 1 system composed as latency-insensitive
//! modules on the engine — transmitter and receiver in the "FPGA" clock
//! domains, the channel in a "software" domain, joined across
//! automatically inserted clock-domain crossings.
//!
//! This is the composition the WiLIS platform exists for: each box of the
//! paper's Figure 1 is an LI module that makes no latency assumptions
//! about its neighbours, so the same modules run correctly whether the
//! channel takes one cycle or thousands (§2's modular-refinement
//! property, checked here by sweeping the channel's processing delay).

use wilis::channel::{ReplayChannel, SnrDb};
use wilis::fxp::Cplx;
use wilis::lis::{Freq, LinkSpec, Module, Sink, Source, SystemBuilder};
use wilis::phy::{PhyRate, Receiver, Transmitter, SYMBOL_LEN};

/// A packet travelling through the co-simulation.
#[derive(Clone)]
struct Frame {
    id: u32,
    payload: Vec<u8>,
    samples: Vec<Cplx>,
}

/// The baseband transmitter as an LI module: one packet per tick when
/// downstream has space.
struct TxModule {
    rate: PhyRate,
    out: Sink<Frame>,
    next_id: u32,
    limit: u32,
}

impl Module for TxModule {
    fn name(&self) -> &str {
        "transmitter"
    }
    fn tick(&mut self) {
        if self.next_id < self.limit && self.out.can_enq() {
            let payload: Vec<u8> = (0..400)
                .map(|i| ((i as u32 * 31 + self.next_id * 7 + 1) % 2) as u8)
                .collect();
            let seed = (self.next_id % 127 + 1) as u8;
            let tx = Transmitter::new(self.rate).transmit(&payload, seed);
            self.out.enq(Frame {
                id: self.next_id,
                payload,
                samples: tx.samples,
            });
            self.next_id += 1;
        }
    }
    fn is_idle(&self) -> bool {
        self.next_id >= self.limit
    }
}

/// The software channel as an LI module, with a configurable processing
/// delay (modeling host scheduling jitter): a frame dequeued at tick `t`
/// is forwarded at tick `t + delay`.
struct ChannelModule {
    channel: ReplayChannel,
    inp: Source<Frame>,
    out: Sink<Frame>,
    delay: u64,
    in_flight: Option<(Frame, u64)>,
    ticks: u64,
}

impl Module for ChannelModule {
    fn name(&self) -> &str {
        "software-channel"
    }
    fn tick(&mut self) {
        self.ticks += 1;
        if let Some((frame, ready_at)) = self.in_flight.take() {
            if self.ticks >= ready_at && self.out.can_enq() {
                self.out.enq(frame);
            } else {
                self.in_flight = Some((frame, ready_at));
                return;
            }
        }
        if self.in_flight.is_none() {
            if let Some(mut frame) = self.inp.deq() {
                self.channel.apply(&mut frame.samples);
                self.in_flight = Some((frame, self.ticks + self.delay));
            }
        }
    }
    fn is_idle(&self) -> bool {
        self.in_flight.is_none()
    }
}

/// The receiver as an LI module, collecting decoded results.
struct RxModule {
    rate: PhyRate,
    inp: Source<Frame>,
    results: Vec<(u32, usize)>,
}

impl Module for RxModule {
    fn name(&self) -> &str {
        "receiver"
    }
    fn tick(&mut self) {
        if let Some(frame) = self.inp.deq() {
            let seed = (frame.id % 127 + 1) as u8;
            let mut rx = Receiver::bcjr(self.rate);
            let got = rx.receive(&frame.samples, frame.payload.len(), seed);
            self.results
                .push((frame.id, got.bit_errors(&frame.payload)));
        }
    }
}

/// Builds and runs the composition with a given channel processing delay;
/// returns the per-packet error counts in arrival order.
fn run_composition(channel_delay: u64, packets: u32, snr_db: f64) -> Vec<(u32, usize)> {
    let rate = PhyRate::Qam16Half;
    let mut b = SystemBuilder::new();
    // The paper's clocks: baseband at 35 MHz; the software side modeled as
    // a (much slower) 1 MHz service domain, as in a real co-simulation the
    // host services the FIFO far less often than the pipeline clocks.
    let baseband = b.clock("baseband", Freq::mhz(35));
    let host = b.clock("host", Freq::mhz(1));

    let (tx_out, ch_in) = b.link::<Frame>(&baseband, &host, LinkSpec::new(4));
    let (ch_out, rx_in) = b.link::<Frame>(&host, &baseband, LinkSpec::new(4));
    b.add_module(
        &baseband,
        TxModule {
            rate,
            out: tx_out,
            next_id: 0,
            limit: packets,
        },
    );
    b.add_module(
        &host,
        ChannelModule {
            channel: ReplayChannel::awgn_only(SnrDb::new(snr_db), 20e6, 0xC0),
            inp: ch_in,
            out: ch_out,
            delay: channel_delay,
            in_flight: None,
            ticks: 0,
        },
    );
    let rx_id = b.add_module(
        &baseband,
        RxModule {
            rate,
            inp: rx_in,
            results: Vec::new(),
        },
    );
    let mut sys = b.build();
    sys.run_until_quiescent(50_000_000);
    sys.module::<RxModule>(rx_id).results.clone()
}

#[test]
fn figure1_composition_delivers_all_packets_cleanly() {
    let results = run_composition(1, 8, 30.0);
    assert_eq!(results.len(), 8, "every packet arrives");
    for (id, errors) in &results {
        assert_eq!(*errors, 0, "packet {id} corrupted at 30 dB");
    }
    // In order: latency-insensitive FIFOs preserve sequence.
    for (i, (id, _)) in results.iter().enumerate() {
        assert_eq!(*id, i as u32);
    }
}

#[test]
fn latency_insensitivity_channel_delay_never_changes_results() {
    // §2: "the latency insensitive property ... gives us the flexibility
    // to refine or swap the design of any module in the system without
    // affecting the correctness of the whole system." Sweep the channel
    // module's internal latency; the decoded results must be identical
    // because the channel realization is position-indexed, not
    // timing-dependent.
    let reference = run_composition(1, 6, 9.0);
    for delay in [2u64, 7, 50, 400] {
        let other = run_composition(delay, 6, 9.0);
        assert_eq!(
            reference, other,
            "channel delay {delay} changed functional results"
        );
    }
}

#[test]
fn composition_carries_noise_effects_end_to_end() {
    // At a noisy operating point the composed system shows errors -
    // confirming the channel module really is in the loop.
    let noisy = run_composition(1, 10, 6.0);
    let total: usize = noisy.iter().map(|(_, e)| e).sum();
    assert!(total > 0, "6 dB QAM-16 should show errors");
    let clean = run_composition(1, 10, 30.0);
    let total_clean: usize = clean.iter().map(|(_, e)| e).sum();
    assert_eq!(total_clean, 0);
}

/// Sanity on sample accounting: the composition moves whole OFDM symbols.
#[test]
fn frames_carry_whole_symbols() {
    let rate = PhyRate::Qam16Half;
    let tx = Transmitter::new(rate).transmit(&vec![1u8; 400], 1);
    assert_eq!(tx.samples.len() % SYMBOL_LEN, 0);
}
