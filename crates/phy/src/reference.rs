//! The frozen PHY front-end reference paths.
//!
//! These are the pre-plan bodies of the OFDM modulator/demodulator, the
//! Gray mapper, and the soft demapper — the interpreted per-symbol loops
//! that recompute twiddles by recurrence, walk the subcarrier filter
//! iterator with a modulo per carrier, and branch on the modulation per
//! point. They are preserved verbatim (modulo two output-invariant
//! cleanups: the per-symbol `clear`/`resize` buffer wipe became a fixed
//! 64-slot buffer reuse, and the demodulator's pilot-phase diagnostic,
//! which never fed the data output, is gone) for the same three jobs
//! `wilis_fec::reference` serves for the trellis kernels:
//!
//! 1. **Differential oracle** — the equivalence suites
//!    (`crates/phy/src/equiv_tests.rs`, `tests/phy_frontend_equiv.rs`)
//!    assert the planned kernels reproduce these outputs bit for bit, on
//!    every modulation and all eight `PhyRate`s.
//! 2. **Perf baseline** — the `perf_ratios` bench times this path as the
//!    B side of its gated `planned/reference` front-end ratios.
//! 3. **Spec readability** — the reference bodies still read like the
//!    802.11 clauses they implement, while the planned kernels read like
//!    table walks.
//!
//! Do not optimize this module; its value is that it does not change.

use wilis_fec::Llr;
use wilis_fxp::Cplx;

use crate::demapper::Demapper;
use crate::fft::{fft, ifft};
use crate::mapper::{gray_axis, Mapper, Modulation};
use crate::ofdm::{
    bin_of, data_subcarriers, OfdmDemodulator, OfdmModulator, CP_LEN, DATA_CARRIERS, FFT_LEN,
    PILOT_BASE, PILOT_CARRIERS, SYMBOL_LEN,
};

impl OfdmModulator {
    /// The frozen pre-plan body of [`OfdmModulator::modulate_into`]:
    /// per-call subcarrier iterator, per-call scale computation, and the
    /// recurrence-driven [`ifft`]. Differential oracle and perf baseline
    /// for the planned path; outputs are bit-identical by contract.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != DATA_CARRIERS` or `out.len() != SYMBOL_LEN`.
    pub fn modulate_into_reference(&mut self, data: &[Cplx], out: &mut [Cplx]) {
        assert_eq!(data.len(), DATA_CARRIERS, "one symbol of data carriers");
        assert_eq!(out.len(), SYMBOL_LEN, "one OFDM symbol of samples");
        let freq = &mut self.freq;
        freq.fill(Cplx::ZERO);
        for (value, k) in data.iter().zip(data_subcarriers()) {
            freq[bin_of(k)] = *value;
        }
        let p = self.polarity.next();
        for (i, &k) in PILOT_CARRIERS.iter().enumerate() {
            freq[bin_of(k)] = Cplx::new(PILOT_BASE[i] * p, 0.0);
        }
        ifft(freq);
        // The IFFT's 1/N normalization spreads unit subcarrier energy
        // across N samples; rescale so average time-sample power equals
        // average subcarrier power (unit for unit-energy constellations).
        let scale = (FFT_LEN as f64 / (DATA_CARRIERS + PILOT_CARRIERS.len()) as f64).sqrt()
            * (FFT_LEN as f64).sqrt();
        for v in freq.iter_mut() {
            *v = v.scale(scale);
        }
        out[..CP_LEN].copy_from_slice(&freq[FFT_LEN - CP_LEN..]);
        out[CP_LEN..].copy_from_slice(freq);
    }
}

impl OfdmDemodulator {
    /// The frozen pre-plan body of one symbol of
    /// [`OfdmDemodulator::demodulate_packet_batch_into`]. Differential
    /// oracle and perf baseline for the lane body; outputs are
    /// bit-identical by contract.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != SYMBOL_LEN`.
    pub fn demodulate_into_reference(&mut self, samples: &[Cplx], out: &mut Vec<Cplx>) {
        assert_eq!(samples.len(), SYMBOL_LEN, "one OFDM symbol of samples");
        let freq = &mut self.freq;
        freq.copy_from_slice(&samples[CP_LEN..]);
        fft(freq);
        let scale = 1.0
            / ((FFT_LEN as f64 / (DATA_CARRIERS + PILOT_CARRIERS.len()) as f64).sqrt()
                * (FFT_LEN as f64).sqrt());
        out.clear();
        out.extend(data_subcarriers().map(|k| freq[bin_of(k)].scale(scale)));
    }
}

impl Mapper {
    /// The frozen pre-table body of [`Mapper::map_into`]: the interpreted
    /// per-point Gray mapping. Differential oracle and perf baseline for
    /// the table-driven path; outputs are bit-identical by contract.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `bits_per_symbol`.
    pub fn map_into_reference(&self, bits: &[u8], out: &mut Vec<Cplx>) {
        let modulation = self.modulation();
        let bps = modulation.bits_per_symbol();
        assert!(
            bits.len() % bps == 0,
            "bit count {} not a multiple of {bps}",
            bits.len()
        );
        let k = modulation.kmod();
        let per_axis = modulation.bits_per_axis();
        out.clear();
        out.reserve(bits.len() / bps);
        for chunk in bits.chunks(bps) {
            out.push(if modulation == Modulation::Bpsk {
                Cplx::new(gray_axis(&chunk[..1]) * k, 0.0)
            } else {
                let i = gray_axis(&chunk[..per_axis]) * k;
                let q = gray_axis(&chunk[per_axis..]) * k;
                Cplx::new(i, q)
            });
        }
    }
}

impl Demapper {
    /// The frozen pre-kernel body of [`Demapper::demap_batch_into`] at
    /// one lane: the interpreted per-point modulation match with the
    /// branchy saturating quantizer. Differential oracle and perf baseline
    /// for the lane kernels; outputs are bit-identical by contract.
    pub fn demap_into_reference(&self, symbols: &[Cplx], out: &mut Vec<Llr>) {
        out.clear();
        out.reserve(symbols.len() * self.modulation.bits_per_symbol());
        let inv_k = 1.0 / self.modulation.kmod();
        let factor = Self::scale_factor(self.modulation, self.scaling());
        for s in symbols {
            // Work in grid units: constellation points at odd integers.
            let ui = s.re * inv_k;
            let uq = s.im * inv_k;
            match self.modulation {
                Modulation::Bpsk => {
                    self.push_reference(out, ui * factor);
                }
                Modulation::Qpsk => {
                    self.push_reference(out, ui * factor);
                    self.push_reference(out, uq * factor);
                }
                Modulation::Qam16 => {
                    for u in [ui, uq] {
                        // Tosato–Bisaglia: Λ(b_high) = u, Λ(b_low) = 2 − |u|.
                        self.push_reference(out, u * factor);
                        self.push_reference(out, (2.0 - u.abs()) * factor);
                    }
                }
                Modulation::Qam64 => {
                    for u in [ui, uq] {
                        self.push_reference(out, u * factor);
                        self.push_reference(out, (4.0 - u.abs()) * factor);
                        self.push_reference(out, (2.0 - (u.abs() - 4.0).abs()) * factor);
                    }
                }
            }
        }
    }

    fn push_reference(&self, out: &mut Vec<Llr>, analog: f64) {
        let fs = self.full_scale();
        let q = (analog * self.gain).round();
        out.push(if q >= fs as f64 {
            fs
        } else if q <= -(fs as f64) {
            -fs
        } else {
            q as Llr
        });
    }
}
