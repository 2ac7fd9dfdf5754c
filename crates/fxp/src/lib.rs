//! Complex samples and the seeded PRNG every WiLIS layer shares.
//!
//! [`Cplx`] is the `f64` baseband sample of the mapper, FFT and channels;
//! [`rng`] is the xoshiro256++ generator behind every Monte-Carlo stream.
//! The paper's fixed-point approximation of the floating-point decoder
//! (§4.1) is modelled where it happens: the demapper's output width and
//! clamp (`wilis-phy`), and the decoders' integer trellis metrics and
//! `HINT_BITS`-wide SoftPHY hints (`wilis-fec`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cplx;
pub mod rng;

pub use cplx::Cplx;
