//! Soft demapper (Tosato–Bisaglia simplified LLRs) with configurable SNR
//! scaling and output quantization.
//!
//! This module is where the paper's central approximation story lives
//! (§4.1): the exact per-bit LLR under AWGN is
//!
//! ```text
//! LLR(i) = (Es/N0) × S_modulation × R_dist(i)        (paper eq. 3)
//! ```
//!
//! but hardware demappers (a) replace `R_dist` with Tosato & Bisaglia's
//! multiplier-free piecewise-linear approximations, and (b) drop the
//! `Es/N0 × S_modulation` prefactor entirely, because Viterbi decisions
//! depend only on the *relative ordering* of metrics. That reduces the
//! required soft bit-width from 23–28 bits to 3–8 bits — and destroys the
//! *magnitude* information BER estimation needs, which is exactly what the
//! SoftPHY estimator's scaling factors (paper eq. 5) must reintroduce.
//! [`SnrScaling`] selects which behaviour to model.

use wilis_fec::Llr;
use wilis_fxp::Cplx;

use crate::mapper::Modulation;

/// How the demapper treats the `Es/N0 × S_mod` prefactor of equation 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnrScaling {
    /// Hardware mode: the prefactor is dropped (§4.1). Decoding quality is
    /// unaffected; absolute LLR magnitudes become SNR-independent.
    Off,
    /// The estimator's compromise (§4.2): scale by a pre-computed constant
    /// SNR (linear `Es/N0`) chosen per modulation, avoiding a run-time SNR
    /// estimator at the cost of slight BER over/under-estimation.
    ConstantLinear(f64),
    /// Oracle mode: scale by the true per-packet linear `Es/N0` — the
    /// upper bound a perfect SNR estimator would achieve.
    TrueLinear(f64),
}

/// A soft demapper for one modulation, quantizing LLRs to `output_bits`.
///
/// # Example
///
/// ```
/// use wilis_phy::{Demapper, Mapper, Modulation, SnrScaling};
///
/// let m = Mapper::new(Modulation::Qam16);
/// let d = Demapper::new(Modulation::Qam16, 8, SnrScaling::Off);
/// let bits = [1u8, 0, 0, 1];
/// let syms = m.map(&bits);
/// let llrs = d.demap(&syms);
/// // Sign of each LLR recovers the transmitted bit on a clean channel.
/// for (b, l) in bits.iter().zip(&llrs) {
///     assert_eq!(*b == 1, *l > 0, "bit {b} got llr {l}");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Demapper {
    pub(crate) modulation: Modulation,
    output_bits: u32,
    scaling: SnrScaling,
    /// Float-to-integer gain mapping the useful analog range onto the
    /// quantizer's full scale.
    pub(crate) gain: f64,
    /// `Es/N0 × S_mod` prefactor, hoisted out of the per-symbol loop (the
    /// frozen reference body recomputes it per call — same value).
    factor: f64,
    /// `1 / K_mod`: received coordinates → grid units, hoisted likewise.
    inv_k: f64,
}

impl Demapper {
    /// A demapper emitting `output_bits`-wide soft values.
    ///
    /// The paper's "exact" configuration is 23–28 bits; its hardware
    /// configuration is 3–8 bits. The quantizer full-scale is set to 1.5×
    /// the constellation's largest axis coordinate (head-room for noise)
    /// under [`SnrScaling::Off`], and widened by the scale factor
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `output_bits` is not in `2..=28`.
    pub fn new(modulation: Modulation, output_bits: u32, scaling: SnrScaling) -> Self {
        assert!(
            (2..=28).contains(&output_bits),
            "output width {output_bits} outside the paper's 2..=28 range"
        );
        let full_scale = (1i64 << (output_bits - 1)) - 1;
        // Analog range: grid units (coordinates normalized by kmod). The
        // gain maps that range onto the quantizer, but never drops below
        // the level where the weakest clean constellation point (one grid
        // unit from its decision boundary) still rounds to at least one
        // LSB — hardware demappers clip the range rather than lose clean
        // decisions.
        let analog_range = modulation.grid_max() * 1.5;
        let factor = Self::scale_factor(modulation, scaling);
        let gain = (full_scale as f64 / (analog_range * factor)).max(0.75 / factor);
        Self {
            modulation,
            output_bits,
            scaling,
            gain,
            factor,
            inv_k: 1.0 / modulation.kmod(),
        }
    }

    pub(crate) fn scale_factor(modulation: Modulation, scaling: SnrScaling) -> f64 {
        match scaling {
            SnrScaling::Off => 1.0,
            // S_mod folds the constellation geometry into the exact LLR:
            // 4 * kmod^2 is the standard AWGN factor for square QAM.
            SnrScaling::ConstantLinear(snr) | SnrScaling::TrueLinear(snr) => {
                4.0 * modulation.kmod() * modulation.kmod() * snr
            }
        }
    }

    /// The configured output width in bits.
    pub fn output_bits(&self) -> u32 {
        self.output_bits
    }

    /// The configured scaling mode.
    pub fn scaling(&self) -> SnrScaling {
        self.scaling
    }

    /// Largest representable output magnitude.
    pub fn full_scale(&self) -> Llr {
        ((1i64 << (self.output_bits - 1)) - 1) as Llr
    }

    /// Demaps received symbols to per-bit soft values
    /// (`bits_per_symbol` LLRs per symbol, same bit order as the mapper).
    pub fn demap(&self, symbols: &[Cplx]) -> Vec<Llr> {
        let mut out = Vec::new();
        self.demap_into(symbols, &mut out);
        out
    }

    /// Demaps received symbols into `out`, reusing its capacity (the
    /// allocation-free form): [`Demapper::demap_batch_into`] at one lane.
    pub fn demap_into(&self, symbols: &[Cplx], out: &mut Vec<Llr>) {
        self.demap_batch_into(symbols, 1, out);
    }

    /// Demaps `lanes` interlaced carrier streams in lockstep: symbol `i`
    /// of lane `l` is `symbols[i * lanes + l]` (the layout
    /// [`crate::OfdmDemodulator::demodulate_packet_batch_into`] emits),
    /// and soft bit `j` of lane `l` lands at `out[j * lanes + l]`. One
    /// lane is a plain symbol stream.
    ///
    /// This is the compiled path: one match on the modulation selects a
    /// monomorphic per-modulation kernel, compiled per lane count, whose
    /// inner loop is branchless (the Tosato–Bisaglia piecewise pieces run
    /// on `abs`, the quantizer on `clamp`) with the lane index innermost.
    /// Every lane is bit-identical to the interpreted reference body
    /// frozen as [`Demapper::demap_into_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=wilis_fec::MAX_BATCH_LANES` or
    /// `symbols.len()` is not a multiple of `lanes`.
    pub fn demap_batch_into(&self, symbols: &[Cplx], lanes: usize, out: &mut Vec<Llr>) {
        dispatch_lanes!(lanes, L => self.demap_lanes::<L>(symbols, out));
    }

    /// The one demap body, at `L` lanes: one symbol row of lanes in,
    /// `bits_per_symbol` LLR rows of lanes out.
    fn demap_lanes<const L: usize>(&self, symbols: &[Cplx], out: &mut Vec<Llr>) {
        assert!(
            symbols.len() % L == 0,
            "lane-major input length {} not a multiple of lane count {L}",
            symbols.len()
        );
        let bps = self.modulation.bits_per_symbol();
        // No `clear()` first: every slot is overwritten below, so resizing
        // in place zero-fills only newly grown tail elements (a no-op in
        // the steady state) instead of re-zeroing the whole buffer.
        out.resize(symbols.len() * bps, 0);
        let inv_k = self.inv_k;
        let factor = self.factor;
        let gain = self.gain;
        let fs = self.full_scale();
        // Work in grid units: constellation points at odd integers. Each
        // arm writes a fixed-width group of LLR rows per symbol row, so the
        // output is filled by indexed stores instead of length-checked
        // pushes.
        match self.modulation {
            Modulation::Bpsk => {
                for (row, dst) in symbols.chunks_exact(L).zip(out.chunks_exact_mut(L)) {
                    for (s, d) in row.iter().zip(dst.iter_mut()) {
                        let ui = s.re * inv_k;
                        *d = quantize(ui * factor, gain, fs);
                    }
                }
            }
            Modulation::Qpsk => {
                for (row, dst) in symbols.chunks_exact(L).zip(out.chunks_exact_mut(2 * L)) {
                    for (l, s) in row.iter().enumerate() {
                        let ui = s.re * inv_k;
                        let uq = s.im * inv_k;
                        dst[l] = quantize(ui * factor, gain, fs);
                        dst[L + l] = quantize(uq * factor, gain, fs);
                    }
                }
            }
            Modulation::Qam16 => {
                for (row, dst) in symbols.chunks_exact(L).zip(out.chunks_exact_mut(4 * L)) {
                    for (l, s) in row.iter().enumerate() {
                        let ui = s.re * inv_k;
                        let uq = s.im * inv_k;
                        // Tosato–Bisaglia: Λ(b_high) = u, Λ(b_low) = 2 − |u|.
                        dst[l] = quantize(ui * factor, gain, fs);
                        dst[L + l] = quantize((2.0 - ui.abs()) * factor, gain, fs);
                        dst[2 * L + l] = quantize(uq * factor, gain, fs);
                        dst[3 * L + l] = quantize((2.0 - uq.abs()) * factor, gain, fs);
                    }
                }
            }
            Modulation::Qam64 => {
                for (row, dst) in symbols.chunks_exact(L).zip(out.chunks_exact_mut(6 * L)) {
                    for (l, s) in row.iter().enumerate() {
                        let ui = s.re * inv_k;
                        let uq = s.im * inv_k;
                        dst[l] = quantize(ui * factor, gain, fs);
                        dst[L + l] = quantize((4.0 - ui.abs()) * factor, gain, fs);
                        dst[2 * L + l] =
                            quantize((2.0 - (ui.abs() - 4.0).abs()) * factor, gain, fs);
                        dst[3 * L + l] = quantize(uq * factor, gain, fs);
                        dst[4 * L + l] = quantize((4.0 - uq.abs()) * factor, gain, fs);
                        dst[5 * L + l] =
                            quantize((2.0 - (uq.abs() - 4.0).abs()) * factor, gain, fs);
                    }
                }
            }
        }
    }
}

/// Quantizes one analog LLR to the demapper's output width. The clamp is
/// value-equivalent to the reference body's saturate branches for every
/// input (including the `q == ±fs` edges and the NaN-to-0 cast).
#[inline(always)]
fn quantize(analog: f64, gain: f64, fs: Llr) -> Llr {
    let q = (analog * gain).round();
    q.clamp(-(fs as f64), fs as f64) as Llr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::Mapper;

    fn all_bit_patterns(bps: usize) -> Vec<Vec<u8>> {
        (0..1usize << bps)
            .map(|v| (0..bps).map(|j| ((v >> (bps - 1 - j)) & 1) as u8).collect())
            .collect()
    }

    #[test]
    fn clean_signs_correct_for_all_modulations_and_points() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let mapper = Mapper::new(m);
            let demapper = Demapper::new(m, 8, SnrScaling::Off);
            for bits in all_bit_patterns(m.bits_per_symbol()) {
                let sym = mapper.map(&bits);
                let llrs = demapper.demap(&sym);
                for (i, (&b, &l)) in bits.iter().zip(&llrs).enumerate() {
                    assert_eq!(b == 1, l > 0, "{m}: bit {i} of {bits:?} demapped to {l}");
                }
            }
        }
    }

    #[test]
    fn narrow_width_still_decodes_clean_points() {
        // The hardware 3-bit configuration must keep clean signs intact.
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let mapper = Mapper::new(m);
            let demapper = Demapper::new(m, 3, SnrScaling::Off);
            for bits in all_bit_patterns(m.bits_per_symbol()) {
                let sym = mapper.map(&bits);
                let llrs = demapper.demap(&sym);
                for (&b, &l) in bits.iter().zip(&llrs) {
                    assert_eq!(b == 1, l > 0, "{m}: {bits:?} -> {llrs:?}");
                }
            }
        }
    }

    #[test]
    fn confidence_decreases_toward_decision_boundary() {
        let d = Demapper::new(Modulation::Qam16, 8, SnrScaling::Off);
        let k = Modulation::Qam16.kmod();
        // b_high at u = 3 is farther from the boundary (u = 0) than u = 1.
        let far = d.demap(&[Cplx::new(3.0 * k, k)])[0];
        let near = d.demap(&[Cplx::new(1.0 * k, k)])[0];
        assert!(far > near && near > 0, "far {far} near {near}");
    }

    #[test]
    fn snr_scaling_amplifies_magnitude() {
        let sym = [Cplx::new(
            Modulation::Qam16.kmod(),
            Modulation::Qam16.kmod(),
        )];
        let off = Demapper::new(Modulation::Qam16, 12, SnrScaling::Off).demap(&sym);
        let hi = Demapper::new(Modulation::Qam16, 12, SnrScaling::TrueLinear(10.0)).demap(&sym);
        let lo = Demapper::new(Modulation::Qam16, 12, SnrScaling::TrueLinear(1.0)).demap(&sym);
        // Same sign everywhere; scaled outputs ordered by SNR once the
        // quantizer gain is accounted for. Saturation must not hit at these
        // small magnitudes.
        for i in 0..off.len() {
            assert_eq!(off[i] > 0, hi[i] > 0);
        }
        // The quantizer normalizes full-scale, so equal *analog* inputs at
        // different SNRs give equal quantized outputs; what differs is the
        // noise headroom. Verify gain bookkeeping kept values unsaturated.
        let fs = Demapper::new(Modulation::Qam16, 12, SnrScaling::TrueLinear(10.0)).full_scale();
        assert!(hi.iter().all(|&l| l.abs() < fs));
        assert!(lo.iter().all(|&l| l.abs() < fs));
    }

    #[test]
    fn quantizer_saturates_outliers() {
        let d = Demapper::new(Modulation::Bpsk, 4, SnrScaling::Off);
        let llr = d.demap(&[Cplx::new(100.0, 0.0)])[0];
        assert_eq!(llr, d.full_scale());
        let llr = d.demap(&[Cplx::new(-100.0, 0.0)])[0];
        assert_eq!(llr, -d.full_scale());
    }

    #[test]
    fn output_count_matches_bits_per_symbol() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let d = Demapper::new(m, 6, SnrScaling::Off);
            let n = d.demap(&[Cplx::ONE; 5]).len();
            assert_eq!(n, 5 * m.bits_per_symbol());
        }
    }

    #[test]
    #[should_panic(expected = "outside the paper")]
    fn absurd_width_rejected() {
        let _ = Demapper::new(Modulation::Bpsk, 40, SnrScaling::Off);
    }
}
