//! The one decoder shell: the routing every public decoder shares.
//!
//! [`crate::ViterbiDecoder`], [`crate::SovaDecoder`] and
//! [`crate::BcjrDecoder`] differ only in their kernels and window
//! parameters. Each holds a [`DecoderShell`], which owns the compiled
//! trellis, the reference kernels' branch-metric unit and the working
//! buffers, checks the block's shape, and picks the datapath: the `i16`
//! lane kernels of [`crate::batch`] for a block of up to
//! [`batch::MAX_LANES`] lanes within the narrow gate
//! ([`CompiledTrellis::narrow_llr_limit`]), the frozen `i64` reference
//! kernels for a solo block beyond it, and lane by lane through the solo
//! route for any other batch.

use std::sync::Arc;

use crate::batch;
use crate::bmu::Bmu;
use crate::compiled::CompiledTrellis;
use crate::llr::{DecodeOutput, Llr};
use crate::reference;
use crate::scratch::TrellisScratch;

/// The shell's `KIND` for [`crate::ViterbiDecoder`], which reads no window.
pub(crate) const VITERBI: u8 = 0;
/// The shell's `KIND` for [`crate::SovaDecoder`]: the window is TU2's `k`.
pub(crate) const SOVA: u8 = 1;
/// The shell's `KIND` for [`crate::BcjrDecoder`], and for any `KIND` not
/// above: the window is the sliding-window block length.
pub(crate) const BCJR: u8 = 2;

/// A decoder's trellis, buffers and datapath routing; `KIND` picks the
/// kernels.
///
/// The kind is a `const` parameter, so each decoder's route compiles to a
/// copy of its own that calls its kernels directly. One route shared by
/// all three through a runtime `match` on the kind decoded bit-identically,
/// but it changed the compiled kernel bodies and ran 8-lane BCJR half
/// again as slow.
#[derive(Debug, Clone)]
pub(crate) struct DecoderShell<const KIND: u8> {
    /// The window the kernels read (see [`SOVA`] and [`BCJR`]).
    pub(crate) window: usize,
    compiled: Arc<CompiledTrellis>,
    bmu: Bmu,
    scratch: TrellisScratch,
}

impl<const KIND: u8> DecoderShell<KIND> {
    pub(crate) fn new(compiled: Arc<CompiledTrellis>, window: usize) -> Self {
        Self {
            window,
            bmu: Bmu::new(compiled.n_out()),
            compiled,
            scratch: TrellisScratch::new(),
        }
    }

    /// Decodes `lanes` lane-major blocks, one output per lane: in lockstep
    /// on the lane kernels when the batch fits and every soft value is
    /// within the gate, on the reference kernels for a solo block that is
    /// not, and otherwise lane by lane through this same route.
    // lint: no_alloc
    pub(crate) fn decode(&mut self, llrs: &[Llr], lanes: usize, outs: &mut [DecodeOutput]) {
        let (ct, window) = (&self.compiled, self.window);
        let tail_len = ct.code().tail_len();
        batch::validate_batch(ct.n_out(), tail_len, llrs, lanes, outs.len());
        if lanes <= batch::MAX_LANES && ct.narrow_path_ok(llrs) {
            let s = &mut self.scratch.batch;
            batch::decode_lanes::<KIND>(ct, tail_len, window, llrs, lanes, s, outs);
        } else if lanes == 1 {
            self.decode_reference(llrs, &mut outs[0]);
        } else {
            let mut lane_buf = std::mem::take(&mut self.scratch.batch.lane_llrs);
            for (l, out) in outs.iter_mut().enumerate() {
                batch::gather_lane(llrs, lanes, l, &mut lane_buf);
                self.decode(&lane_buf, 1, std::slice::from_mut(out));
            }
            self.scratch.batch.lane_llrs = lane_buf;
        }
    }

    /// Decodes one block on the frozen `i64` reference kernels.
    // lint: no_alloc
    pub(crate) fn decode_reference(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        let (t, w) = (self.compiled.trellis(), self.window);
        let tail_len = self.compiled.code().tail_len();
        batch::validate_batch(self.compiled.n_out(), tail_len, llrs, 1, 1);
        let (bmu, scratch) = (&mut self.bmu, &mut self.scratch);
        match KIND {
            VITERBI => reference::viterbi_decode(t, tail_len, bmu, scratch, llrs, out),
            SOVA => reference::sova_decode(t, tail_len, w, bmu, scratch, llrs, out),
            _ => reference::bcjr_decode(t, tail_len, w, bmu, scratch, llrs, out),
        }
    }
}
