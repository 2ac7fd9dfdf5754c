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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
