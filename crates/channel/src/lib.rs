//! Software wireless channel models.
//!
//! WiLIS is a *co-simulation*: the transceiver pipelines run in hardware
//! models while the channel stays in software, because channel synthesis is
//! floating-point heavy and, as the paper measures in §3, noise generation
//! alone saturates a quad-core host. This crate is that software half:
//!
//! * [`AwgnChannel`] — additive white Gaussian noise at a configurable
//!   [`SnrDb`], the channel used for the paper's Figure 5 and 6 experiments.
//! * [`RayleighFading`] — flat Rayleigh fading with configurable Doppler
//!   (the 20 Hz fading channel of Figure 7), via the Jakes sum-of-sinusoids
//!   model.
//! * [`FadingAwgnChannel`] — the composite fading + noise channel.
//! * [`ReplayChannel`] — the paper's "pseudo-random noise model": channel
//!   randomness is indexed by *absolute time*, so packets sent at different
//!   bit rates experience the identical channel realization — the mechanism
//!   that makes the SoftRate rate-selection comparison fair.
//! * [`parallel`] — a multithreaded noise generator mirroring the paper's
//!   multithreaded software channel implementation.
//! * [`resolve_slot`] — the shared-medium capture model: overlapping
//!   transmissions in a contention cell resolve into per-node SINR
//!   (strongest wins if above margin, else all collide).
//!
//! # Example
//!
//! ```
//! use wilis_channel::{AwgnChannel, SnrDb};
//! use wilis_fxp::Cplx;
//!
//! let mut ch = AwgnChannel::new(SnrDb::new(10.0), 42);
//! let mut symbols = vec![Cplx::ONE; 1000];
//! ch.apply(&mut symbols);
//! // Signal power 1.0, noise power 10^-1: samples perturbed but close.
//! let mean_err: f64 = symbols.iter().map(|s| (*s - Cplx::ONE).norm_sq()).sum::<f64>() / 1000.0;
//! assert!((mean_err - 0.1).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod awgn;
mod collision;
mod fading;
mod gaussian;
mod model;
pub mod parallel;
mod replay;
mod snr;

pub use awgn::AwgnChannel;
pub use collision::{resolve_slot, SlotOutcome, TxPower};
pub use fading::{FadingAwgnChannel, RayleighFading};
pub use gaussian::GaussianSource;
pub use model::{
    AwgnModel, ChannelModel, FadingModel, ReplayModel, TraceModel, MODEL_SAMPLE_RATE_HZ,
};
pub use replay::ReplayChannel;
pub use snr::SnrDb;

#[cfg(test)]
mod prop_tests;
