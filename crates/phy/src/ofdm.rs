//! OFDM symbol assembly: 64-point FFT, 48 data + 4 pilot subcarriers,
//! 16-sample cyclic prefix (802.11-2007 §17.3.5.9).
//!
//! Both directions run against a shared [`OfdmPlan`] (precomputed bin
//! tables, cached twiddles, hoisted scale constants). The modulator
//! streams one symbol at a time; the demodulator has one lane-major body,
//! monomorphized per lane count, that a solo receive runs at one lane and
//! a batched receive at up to `wilis_fec::MAX_BATCH_LANES`. Both are
//! **bit-identical** to the frozen per-symbol reference bodies in
//! [`crate::reference`], reachable as `*_into_reference` — the
//! differential oracle the equivalence suite decodes against.

use std::sync::Arc;

use wilis_fxp::Cplx;

use crate::plan::OfdmPlan;
use crate::scrambler::Scrambler;

/// FFT length (subcarrier count including guards and DC).
pub const FFT_LEN: usize = 64;
/// Cyclic-prefix length in samples.
pub const CP_LEN: usize = 16;
/// Total time-domain samples per OFDM symbol.
pub const SYMBOL_LEN: usize = FFT_LEN + CP_LEN;
/// Data subcarriers per symbol.
pub const DATA_CARRIERS: usize = 48;

/// Logical subcarrier indices (−26..=26 excluding 0 and pilots) of the 48
/// data carriers, in the order coded bits fill them.
///
/// The planned path never iterates this at runtime — [`OfdmPlan`] lowers
/// it to a flat bin table at construction; the frozen reference path
/// still walks it per symbol.
pub(crate) fn data_subcarriers() -> impl Iterator<Item = i32> {
    (-26..=26).filter(|&k| k != 0 && !PILOT_CARRIERS.contains(&k))
}

/// Pilot subcarrier positions.
pub(crate) const PILOT_CARRIERS: [i32; 4] = [-21, -7, 7, 21];

/// Base pilot polarities (before the per-symbol polarity sequence).
pub(crate) const PILOT_BASE: [f64; 4] = [1.0, 1.0, 1.0, -1.0];

pub(crate) fn bin_of(k: i32) -> usize {
    ((k + FFT_LEN as i32) % FFT_LEN as i32) as usize
}

/// Per-symbol pilot polarity: the 127-periodic scrambler sequence with
/// all-ones seed, mapped 0 → +1, 1 → −1 (802.11-2007 §17.3.5.9).
#[derive(Debug, Clone)]
pub(crate) struct PilotPolarity {
    scrambler: Scrambler,
}

impl PilotPolarity {
    pub(crate) fn new() -> Self {
        Self {
            scrambler: Scrambler::new(0x7F),
        }
    }
    pub(crate) fn next(&mut self) -> f64 {
        if self.scrambler.next_bit() == 1 {
            -1.0
        } else {
            1.0
        }
    }
}

/// Assembles frequency-domain symbols into time-domain OFDM samples.
///
/// # Example
///
/// ```
/// use wilis_fxp::Cplx;
/// use wilis_phy::{OfdmDemodulator, OfdmModulator, DATA_CARRIERS, SYMBOL_LEN};
///
/// let data = vec![Cplx::new(0.5, -0.5); DATA_CARRIERS];
/// let mut tx = OfdmModulator::new();
/// let samples = tx.modulate(&data);
/// assert_eq!(samples.len(), SYMBOL_LEN);
///
/// let mut rx = OfdmDemodulator::new();
/// let mut back = Vec::new();
/// rx.demodulate_packet_batch_into(&[&samples], &mut back);
/// for (a, b) in data.iter().zip(&back) {
///     assert!((*a - *b).norm() < 1e-10);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct OfdmModulator {
    pub(crate) polarity: PilotPolarity,
    /// The shared symbol-layout plan.
    pub(crate) plan: Arc<OfdmPlan>,
    /// Reusable frequency-domain working buffer, always `FFT_LEN` long.
    pub(crate) freq: Vec<Cplx>,
}

impl OfdmModulator {
    /// A modulator at the start of a frame (pilot polarity index 0).
    pub fn new() -> Self {
        Self {
            polarity: PilotPolarity::new(),
            plan: OfdmPlan::shared(),
            freq: vec![Cplx::ZERO; FFT_LEN],
        }
    }

    /// Rewinds to the start of a frame (pilot polarity index 0) without
    /// reallocating — the per-packet reset of the scenario engine.
    pub fn reset(&mut self) {
        self.polarity = PilotPolarity::new();
    }

    /// Modulates one symbol of 48 data-subcarrier values into 80 time
    /// samples (64-point IFFT plus 16-sample cyclic prefix).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != DATA_CARRIERS`.
    pub fn modulate(&mut self, data: &[Cplx]) -> Vec<Cplx> {
        let mut out = vec![Cplx::ZERO; SYMBOL_LEN];
        self.modulate_into(data, &mut out);
        out
    }

    /// Modulates one symbol directly into an 80-sample slice of the packet
    /// buffer (the allocation-free hot-path form).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != DATA_CARRIERS` or `out.len() != SYMBOL_LEN`.
    pub fn modulate_into(&mut self, data: &[Cplx], out: &mut [Cplx]) {
        assert_eq!(data.len(), DATA_CARRIERS, "one symbol of data carriers");
        assert_eq!(out.len(), SYMBOL_LEN, "one OFDM symbol of samples");
        let plan = &self.plan;
        let freq = &mut self.freq;
        // The symbol is assembled directly in bit-reversed order (the
        // `_rev` tables fold the FFT's permutation into the bin lookup),
        // so the transform runs its butterfly stages with no swap pass.
        // Only the guard bins need zeroing: the data and pilot bins are
        // overwritten below, so the reference's full-buffer wipe is
        // redundant work the plan's partition makes skippable.
        for &b in plan.guard_bins_rev() {
            freq[b] = Cplx::ZERO;
        }
        for (value, &b) in data.iter().zip(plan.data_bins_rev().iter()) {
            freq[b] = *value;
        }
        let p = self.polarity.next();
        for (i, &b) in plan.pilot_bins_rev().iter().enumerate() {
            freq[b] = Cplx::new(PILOT_BASE[i] * p, 0.0);
        }
        plan.fft().ifft_stages(freq);
        // The IFFT's 1/N normalization spreads unit subcarrier energy
        // across N samples; rescale so average time-sample power equals
        // average subcarrier power (unit for unit-energy constellations).
        let scale = plan.tx_scale();
        for v in freq.iter_mut() {
            *v = v.scale(scale);
        }
        out[..CP_LEN].copy_from_slice(&freq[FFT_LEN - CP_LEN..]);
        out[CP_LEN..].copy_from_slice(freq);
    }

    /// Modulates a whole packet of data-carrier values (one 48-carrier
    /// symbol after another) into its full sample buffer, streaming every
    /// symbol through the shared plan with no per-symbol buffer churn.
    ///
    /// # Panics
    ///
    /// Panics if `carriers.len()` is not a multiple of `DATA_CARRIERS` or
    /// `out.len()` is not the matching number of `SYMBOL_LEN` blocks.
    pub fn modulate_packet_into(&mut self, carriers: &[Cplx], out: &mut [Cplx]) {
        assert_eq!(
            carriers.len() % DATA_CARRIERS,
            0,
            "whole symbols of data carriers"
        );
        let n_symbols = carriers.len() / DATA_CARRIERS;
        assert_eq!(
            out.len(),
            n_symbols * SYMBOL_LEN,
            "output must hold exactly the packet's samples"
        );
        for (data, samples) in carriers
            .chunks_exact(DATA_CARRIERS)
            .zip(out.chunks_exact_mut(SYMBOL_LEN))
        {
            self.modulate_into(data, samples);
        }
    }
}

impl Default for OfdmModulator {
    fn default() -> Self {
        Self::new()
    }
}

/// Recovers data-subcarrier values from time-domain OFDM samples.
///
/// The paper's pipeline omits synchronization (§4.4.4), so every packet
/// is assumed sample-aligned, and it applies no channel estimation, so
/// the pilots are never read.
#[derive(Debug, Clone)]
pub struct OfdmDemodulator {
    /// The shared symbol-layout plan.
    plan: Arc<OfdmPlan>,
    /// One symbol's frequency-domain buffer for the frozen reference
    /// body, always `FFT_LEN` long.
    pub(crate) freq: Vec<Cplx>,
    /// Lane-major frequency-domain buffer, `FFT_LEN` rows of lanes.
    freq_lanes: Vec<Cplx>,
}

impl OfdmDemodulator {
    /// A demodulator on the shared plan.
    pub fn new() -> Self {
        Self {
            plan: OfdmPlan::shared(),
            freq: vec![Cplx::ZERO; FFT_LEN],
            freq_lanes: Vec::new(),
        }
    }

    /// Demodulates `lane_samples.len()` equal-length packets in lockstep
    /// into one lane-major carrier stream: carrier `c` of symbol `s` for
    /// lane `l` lands at `out[(s * DATA_CARRIERS + c) * lanes + l]`. One
    /// lane is a solo packet, whose carriers come out in plain symbol
    /// order.
    ///
    /// Each lane's carriers are bit-identical to the frozen per-symbol
    /// [`OfdmDemodulator::demodulate_into_reference`] of that lane: the
    /// per-lane FFT is the reference operation sequence run with the lane
    /// axis innermost (see [`crate::FftPlan`]).
    ///
    /// # Panics
    ///
    /// Panics if the lane count is outside `1..=wilis_fec::MAX_BATCH_LANES`,
    /// the lanes differ in length, or the common length is not a multiple
    /// of `SYMBOL_LEN`.
    pub fn demodulate_packet_batch_into<S: AsRef<[Cplx]>>(
        &mut self,
        lane_samples: &[S],
        out: &mut Vec<Cplx>,
    ) {
        let len = lane_samples.first().map_or(0, |s| s.as_ref().len());
        assert!(
            lane_samples.iter().all(|s| s.as_ref().len() == len),
            "all lanes must hold the same number of samples"
        );
        assert_eq!(len % SYMBOL_LEN, 0, "whole OFDM symbols of samples");
        dispatch_lanes!(lane_samples.len(), L => self.demodulate_lanes::<L, S>(lane_samples, out));
    }

    /// The one demodulation body, at `L` lanes: per symbol, a fused
    /// prefix-strip and bit-reversal gather, the lockstep FFT, then the
    /// scaled data bins.
    fn demodulate_lanes<const L: usize, S: AsRef<[Cplx]>>(
        &mut self,
        lane_samples: &[S],
        out: &mut Vec<Cplx>,
    ) {
        let n_symbols = lane_samples[0].as_ref().len() / SYMBOL_LEN;
        let (plan, freq) = (&self.plan, &mut self.freq_lanes);
        let (fft, scale) = (plan.fft(), plan.rx_scale());
        freq.resize(FFT_LEN * L, Cplx::ZERO);
        out.resize(n_symbols * DATA_CARRIERS * L, Cplx::ZERO);
        for (s, carriers) in out.chunks_exact_mut(DATA_CARRIERS * L).enumerate() {
            let start = s * SYMBOL_LEN + CP_LEN;
            let window: [&[Cplx]; L] =
                std::array::from_fn(|l| &lane_samples[l].as_ref()[start..start + FFT_LEN]);
            fft.gather(window, freq);
            fft.fft_stages::<L>(freq);
            for (dst, &b) in carriers.chunks_exact_mut(L).zip(plan.data_bins()) {
                for (d, v) in dst.iter_mut().zip(&freq[b * L..(b + 1) * L]) {
                    *d = v.scale(scale);
                }
            }
        }
    }
}

impl Default for OfdmDemodulator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcarrier_layout() {
        let carriers: Vec<i32> = data_subcarriers().collect();
        assert_eq!(carriers.len(), DATA_CARRIERS);
        assert!(!carriers.contains(&0), "DC is never a data carrier");
        for p in PILOT_CARRIERS {
            assert!(!carriers.contains(&p), "pilot {p} not a data carrier");
        }
        assert!(carriers.iter().all(|&k| (-26..=26).contains(&k)));
    }

    #[test]
    fn modulate_demodulate_roundtrip() {
        let data: Vec<Cplx> = (0..DATA_CARRIERS)
            .map(|i| Cplx::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()).scale(0.5))
            .collect();
        let mut tx = OfdmModulator::new();
        let mut rx = OfdmDemodulator::new();
        let mut back = Vec::new();
        for _ in 0..5 {
            let samples = tx.modulate(&data);
            rx.demodulate_packet_batch_into(&[&samples], &mut back);
            for (i, (a, b)) in data.iter().zip(&back).enumerate() {
                assert!((*a - *b).norm() < 1e-10, "carrier {i}: {a} vs {b}");
            }
        }
    }

    /// The modulator's packet form equals its symbol form, and the
    /// demodulator's lane body equals the frozen per-symbol reference in
    /// every lane at every lane count.
    #[test]
    fn packet_forms_match_symbol_forms() {
        let n_sym = 7;
        let carriers: Vec<Cplx> = (0..n_sym * DATA_CARRIERS)
            .map(|i| Cplx::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
            .collect();
        let mut tx_packet = OfdmModulator::new();
        let mut tx_symbol = OfdmModulator::new();
        let mut packet = vec![Cplx::ZERO; n_sym * SYMBOL_LEN];
        tx_packet.modulate_packet_into(&carriers, &mut packet);
        for (s, data) in carriers.chunks_exact(DATA_CARRIERS).enumerate() {
            let sym = tx_symbol.modulate(data);
            assert_eq!(&packet[s * SYMBOL_LEN..(s + 1) * SYMBOL_LEN], &sym[..]);
        }

        let mut rx_reference = OfdmDemodulator::new();
        let mut rx = OfdmDemodulator::new();
        let mut symbol = Vec::new();
        let mut got = Vec::new();
        for lanes in 1..=wilis_fec::MAX_BATCH_LANES {
            // Lane `l` carries the packet scaled by `l + 1`, so a lane
            // mix-up shows.
            let lane_samples: Vec<Vec<Cplx>> = (0..lanes)
                .map(|l| packet.iter().map(|v| v.scale((l + 1) as f64)).collect())
                .collect();
            rx.demodulate_packet_batch_into(&lane_samples, &mut got);
            assert_eq!(got.len(), n_sym * DATA_CARRIERS * lanes);
            for (l, lane) in lane_samples.iter().enumerate() {
                let mut want = Vec::new();
                for sym in lane.chunks_exact(SYMBOL_LEN) {
                    rx_reference.demodulate_into_reference(sym, &mut symbol);
                    want.extend_from_slice(&symbol);
                }
                let lane_got: Vec<Cplx> = got.chunks_exact(lanes).map(|row| row[l]).collect();
                assert_eq!(lane_got, want, "lane {l} of {lanes}");
            }
        }
    }

    #[test]
    fn cyclic_prefix_is_a_copy_of_the_tail() {
        let data = vec![Cplx::new(0.3, 0.1); DATA_CARRIERS];
        let samples = OfdmModulator::new().modulate(&data);
        assert_eq!(&samples[..CP_LEN], &samples[FFT_LEN..]);
    }

    #[test]
    fn average_sample_power_is_near_unity_for_unit_constellations() {
        // With unit-energy data carriers, the chosen scaling gives average
        // time-domain sample power ~1, so channel SNR definitions line up.
        let data = vec![Cplx::new(1.0, 0.0); DATA_CARRIERS];
        let samples = OfdmModulator::new().modulate(&data);
        let p: f64 = samples.iter().map(|s| s.norm_sq()).sum::<f64>() / samples.len() as f64;
        assert!((p - 1.0).abs() < 0.3, "sample power {p}");
    }

    #[test]
    fn pilot_polarity_sequence_starts_plus() {
        // First scrambler bits with all-ones seed are 0,0,0,0,1,...
        // so polarities begin +1,+1,+1,+1,−1.
        let mut p = PilotPolarity::new();
        let seq: Vec<f64> = (0..5).map(|_| p.next()).collect();
        assert_eq!(seq, vec![1.0, 1.0, 1.0, 1.0, -1.0]);
    }
}
