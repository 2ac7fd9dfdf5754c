//! Link layer: the protocols that consume SoftPHY estimates.
//!
//! The paper motivates SoftPHY with two cross-layer consumers (§4):
//!
//! * [`SoftRate`] — bit-rate adaptation from per-packet BER estimates
//!   (Vutukuru et al., the paper's reference \[31\]); evaluated in Figure 7.
//! * [`ppr`] — Partial Packet Recovery from per-bit BER estimates
//!   (Jamieson & Balakrishnan, reference \[17\]): retransmit only the chunks
//!   whose bits carry low confidence.
//! * [`arq`] — the delivery odds of the conventional whole-packet ARQ
//!   baseline both improve on.
//! * [`link`] — the three policies behind one [`link::LinkPolicy`] trait,
//!   so the scenario engine can sweep MAC behavior by registry name, and
//!   the one accounting step ([`LinkMetrics::record`]) each verdict goes
//!   through.
//! * [`cell`] — multi-node contention on a shared medium: slotted ALOHA,
//!   CSMA with binary exponential backoff, and a TDMA oracle behind one
//!   [`cell::ContentionPolicy`] trait, plus the cell-level metrics
//!   (aggregate goodput, Jain fairness, collision/idle fractions).
//! * [`harq`] — the one stop-and-wait policy, [`HarqLink`]: whole-packet
//!   ARQ with its combiner disarmed, and hybrid ARQ with it armed (Chase
//!   combining or incremental redundancy over retained mother-code LLR
//!   planes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arq;
pub mod cell;
pub mod harq;
pub mod link;
pub mod ppr;
mod softrate;

pub use cell::{
    BackoffState, CellMetrics, ContentionPolicy, CsmaBackoff, NodeCellMetrics, SlotView,
    SlottedAloha, TdmaOracle, TxDecision,
};
pub use harq::{HarqConfig, HarqCore, HarqLink, HarqMode};
pub use link::{LinkMetrics, LinkPolicy, LinkVerdict, PprLink, SoftRateLink};
pub use softrate::{RateDecision, Selection, SelectionStats, SoftRate};

#[cfg(test)]
mod prop_tests;
