//! 802.11a/g-like OFDM baseband — the pipeline of the paper's Figure 1.
//!
//! The transmit chain is `scramble → convolutional encode → puncture →
//! interleave → map → OFDM modulate`; the receive chain is its mirror with
//! a *soft* demapper feeding the soft-decision decoder, which is where
//! SoftPHY hints originate. Synchronization and channel estimation are
//! deliberately absent, exactly as in the paper (§1: "with only
//! synchronization and channel estimation absent"); fading experiments use
//! genie equalization instead (see `wilis-channel`).
//!
//! # Example: one packet through a clean channel
//!
//! ```
//! use wilis_phy::{PhyRate, Receiver, Transmitter};
//!
//! let rate = PhyRate::Qam16Half;
//! let payload: Vec<u8> = (0..512).map(|i| (i % 2) as u8).collect();
//! let tx = Transmitter::new(rate).transmit(&payload, 1);
//! let rx = Receiver::viterbi(rate).receive(&tx.samples, tx.payload_bits, 1);
//! assert_eq!(rx.payload, payload);
//! ```
//!
//! # One receive front end
//!
//! Every receive, solo or batched, runs one lane-major body per front-end
//! stage — OFDM demodulation (with its FFT), demapping, deinterleaving
//! and `wilis_fec`'s depuncturing — monomorphized for a lane count of
//! `1..=`[`wilis_fec::MAX_BATCH_LANES`] and picked by one `match`, as the
//! decoders' lane kernels are. A solo receive
//! ([`Receiver::rx_from`]) is that body at one lane; a batched receive
//! ([`Receiver::rx_batch_from`]) runs the same code over many packets in
//! lockstep. The frozen per-symbol bodies of `reference.rs` are what
//! both are checked against, bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Runs `$body` with the runtime lane count `$lanes` bound to the `const`
/// `$L`, one arm per lane count the front-end bodies are monomorphized
/// for (the same `1..=MAX_BATCH_LANES` as `wilis_fec`'s lane kernels).
///
/// # Panics
///
/// Panics when `$lanes` is outside `1..=wilis_fec::MAX_BATCH_LANES`.
macro_rules! dispatch_lanes {
    ($lanes:expr, $L:ident => $body:expr) => {
        match $lanes {
            1 => { const $L: usize = 1; $body }
            2 => { const $L: usize = 2; $body }
            3 => { const $L: usize = 3; $body }
            4 => { const $L: usize = 4; $body }
            5 => { const $L: usize = 5; $body }
            6 => { const $L: usize = 6; $body }
            7 => { const $L: usize = 7; $body }
            8 => { const $L: usize = 8; $body }
            // lint: allow(panic-policy) — a lane count outside the monomorphized range is a caller bug the entry points document
            n => panic!("lane count {n} outside 1..={}", wilis_fec::MAX_BATCH_LANES),
        }
    };
}

const _: () = assert!(
    wilis_fec::MAX_BATCH_LANES == 8,
    "dispatch_lanes! has one arm per lane count up to 8"
);

mod demapper;
mod fft;
mod interleave;
mod mapper;
mod ofdm;
mod packet;
mod pipeline;
mod plan;
mod rate;
mod reference;
mod scrambler;

pub use demapper::{Demapper, SnrScaling};
pub use fft::{fft, ifft};
pub use interleave::{Deinterleaver, Interleaver};
pub use mapper::{Mapper, Modulation};
pub use ofdm::{OfdmDemodulator, OfdmModulator, CP_LEN, DATA_CARRIERS, FFT_LEN, SYMBOL_LEN};
pub use packet::{PacketBuilder, PacketFields, SERVICE_BITS, TAIL_BITS};
pub use pipeline::{PhyScratch, Receiver, RxResult, Transmitter, TxResult};
pub use plan::{fft_with, ifft_with, FftPlan, OfdmPlan};
pub use rate::PhyRate;
pub use scrambler::Scrambler;

#[cfg(test)]
mod equiv_tests;
#[cfg(test)]
mod prop_tests;
