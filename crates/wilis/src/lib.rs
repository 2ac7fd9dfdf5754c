//! WiLIS: architectural modeling of wireless systems.
//!
//! This is the top-level crate of a from-scratch reproduction of
//! *"WiLIS: Architectural Modeling of Wireless Systems"* (Fleming, Ng,
//! Gross, Arvind — ISPASS 2011): a latency-insensitive co-simulation
//! platform for wireless protocol development, demonstrated by showing
//! that the SoftPHY abstraction (per-bit confidence exported from the
//! channel decoder) can be implemented efficiently in hardware.
//!
//! # Crate map
//!
//! | Layer | Crate | What it models |
//! |---|---|---|
//! | Platform | [`lis`] | latency-insensitive multi-clock engine, plug-n-play registry, link models |
//! | Numerics | [`fxp`] | complex baseband samples, the seeded PRNG |
//! | Channel | [`channel`] | AWGN, Rayleigh fading, reproducible replay noise |
//! | FEC | [`fec`] | encoder, Viterbi, SOVA, sliding-window BCJR |
//! | Baseband | [`phy`] | scrambler, interleaver, mapper, soft demapper, FFT, OFDM, framing |
//! | SoftPHY | [`softphy`] | hint→BER estimation, scaling factors, calibration |
//! | Link layer | [`mac`] | SoftRate, ARQ, partial packet recovery; registry-addressed link policies |
//! | Platform model | [`cosim`] | Figure 2 simulation-speed model |
//! | Cost model | [`area`] | Figure 8 LUT/FF synthesis model |
//!
//! The [`experiment`] module drives every table and figure of the paper's
//! evaluation; the `wilis-bench` crate regenerates them from the command
//! line (README, "Reproducing the paper's figures").
//!
//! # Quickstart
//!
//! ```
//! use wilis::prelude::*;
//!
//! // Send one packet through an AWGN channel and read its SoftPHY hints.
//! let rate = PhyRate::Qam16Half;
//! let payload: Vec<u8> = (0..256).map(|i| (i % 2) as u8).collect();
//! let tx = Transmitter::new(rate).transmit(&payload, 0x5D);
//!
//! let mut samples = tx.samples.clone();
//! AwgnChannel::new(SnrDb::new(12.0), 7).apply(&mut samples);
//!
//! let mut rx = Receiver::bcjr(rate);
//! let got = rx.receive(&samples, payload.len(), 0x5D);
//! let est = BerEstimator::analytic(rate.modulation(), DecoderKind::Bcjr);
//! let pber = est.per_packet(&got.hints);
//! assert!(pber < 0.01, "clean-ish channel, low predicted error rate");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod faults;
pub mod scenario;
pub mod service;
mod supervisor;
mod system;

pub use faults::{FaultInjector, FaultReport, FaultSite, PointOutcome};
pub use scenario::{
    Scenario, ScenarioResult, StopMetric, StoppingRule, SupervisedSweep, SweepGrid, SweepRunner,
};
pub use service::{ResultStore, ServiceMetrics, SweepService};
pub use system::{DecoderSlot, SystemConfig, WilisSystem};

/// The platform substrate (re-export of `wilis-lis`).
pub use wilis_lis as lis;

/// Complex samples and the seeded PRNG (re-export of `wilis-fxp`).
pub use wilis_fxp as fxp;

/// Channel models (re-export of `wilis-channel`).
pub use wilis_channel as channel;

/// Convolutional FEC (re-export of `wilis-fec`).
pub use wilis_fec as fec;

/// OFDM baseband (re-export of `wilis-phy`).
pub use wilis_phy as phy;

/// SoftPHY estimation (re-export of `wilis-softphy`).
pub use wilis_softphy as softphy;

/// Link layer (re-export of `wilis-mac`).
pub use wilis_mac as mac;

/// Co-simulation performance model (re-export of `wilis-cosim`).
pub use wilis_cosim as cosim;

/// Area model (re-export of `wilis-area`).
pub use wilis_area as area;

/// The names most programs want in scope.
pub mod prelude {
    pub use wilis_channel::{AwgnChannel, FadingAwgnChannel, ReplayChannel, SnrDb};
    pub use wilis_fec::{
        BcjrDecoder, ConvCode, ConvEncoder, SoftDecoder, SovaDecoder, ViterbiDecoder,
    };
    pub use wilis_fxp::Cplx;
    pub use wilis_mac::{
        CellMetrics, ContentionPolicy, LinkMetrics, LinkPolicy, SelectionStats, SoftRate,
    };
    pub use wilis_phy::{Modulation, PhyRate, Receiver, Transmitter};
    pub use wilis_softphy::{BerEstimator, DecoderKind};

    pub use crate::{
        FaultInjector, FaultReport, PointOutcome, Scenario, ScenarioResult, ServiceMetrics,
        StoppingRule, SweepGrid, SweepRunner, SweepService, SystemConfig, WilisSystem,
    };
}
