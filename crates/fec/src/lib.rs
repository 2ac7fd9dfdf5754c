//! Convolutional FEC: the encoder and the three decoder microarchitectures
//! the WiLIS paper evaluates.
//!
//! The paper's case study (§4) asks whether SoftPHY — exporting a per-bit
//! confidence (log-likelihood ratio, LLR) from the channel decoder up the
//! network stack — can be implemented in hardware at 802.11a/g rates. It
//! answers by building and characterizing two soft-output decoders on a
//! shared substrate:
//!
//! * [`ViterbiDecoder`] — the hard-output baseline used in commodity
//!   802.11 basebands (the Figure 8 area reference).
//! * [`SovaDecoder`] — the Soft-Output Viterbi Algorithm in the
//!   two-traceback-unit microarchitecture of Berrou et al. (Figure 3);
//!   latency `l + k + 12` cycles.
//! * [`BcjrDecoder`] — sliding-window max-log BCJR (Benedetto et al.'s
//!   SW-BCJR, Figure 4) with a provisional backward path-metric unit and
//!   block reversal buffers; latency `2n + 7` cycles.
//!
//! All three share one [`Trellis`], one branch-metric unit ([`bmu`]) and
//! one parameterized path-metric unit ([`pmu`]) — mirroring the paper's
//! observation (§4.3) that "as both SOVA and BCJR use BMU and PMU, the
//! designs of these two components are shared."
//!
//! At construction each decoder lowers its trellis into a
//! [`CompiledTrellis`] — flat structure-of-arrays butterfly tables. The
//! three decoders share one decoder shell, which checks each block and
//! picks its datapath; a decoder adds only its kernel choice, its windows
//! and its latency. Soft inputs within the code's narrow gate
//! ([`CompiledTrellis::narrow_llr_limit`], 315 for the 802.11 code) decode
//! on the branchless `i16` lane kernels of [`batch`]: a solo decode at one
//! lane, a batched decode (`decode_terminated_batch_into`) of up to eight
//! same-length blocks in lockstep. Any other input decodes on the original
//! `i64` kernels, preserved verbatim as the reference path (each decoder's
//! `decode_terminated_reference_into`). The two paths are bit-identical.
//! Compiled trellises are `Arc`-shared: one table build can serve every
//! decoder instance of a code (see `with_shared_trellis` on each decoder).
//!
//! Soft inputs and outputs use the [`Llr`] convention: positive means the
//! bit is more likely a `1`, and magnitude is confidence.
//!
//! # Example: round-trip through encoder and SOVA
//!
//! ```
//! use wilis_fec::{ConvCode, ConvEncoder, SovaDecoder, SoftDecoder, hard_llr};
//!
//! let code = ConvCode::ieee80211();
//! let data = [1u8, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0];
//! let coded = ConvEncoder::new(&code).encode_terminated(&data);
//!
//! // Perfect channel: full-confidence LLRs.
//! let llrs: Vec<i32> = coded.iter().map(|&b| hard_llr(b, 15)).collect();
//! let mut dec = SovaDecoder::new(&code, 64, 64);
//! let out = dec.decode_terminated(&llrs);
//! assert_eq!(out.bits, data);
//! assert!(out.soft.iter().all(|&s| s != 0), "clean bits carry confidence");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod bcjr;
pub mod bmu;
mod code;
pub mod compiled;
mod encoder;
mod llr;
pub mod pipeline;
pub mod pmu;
mod puncture;
mod reference;
mod scratch;
mod shell;
mod sova;
mod trellis;
mod viterbi;

pub use batch::MAX_LANES as MAX_BATCH_LANES;
pub use bcjr::BcjrDecoder;
pub use code::ConvCode;
pub use compiled::CompiledTrellis;
pub use encoder::ConvEncoder;
pub use llr::{hard_llr, DecodeOutput, Llr, SoftDecoder, HINT_BITS, MAX_HINT};
pub use puncture::{combine_llrs_into, CodeRate, Depuncturer, Puncturer};
pub use scratch::TrellisScratch;
pub use sova::SovaDecoder;
pub use trellis::Trellis;
pub use viterbi::ViterbiDecoder;

#[cfg(test)]
mod equiv_tests;
#[cfg(test)]
mod prop_tests;
