//! The three scaling factors of the paper's equation 5.

use wilis_channel::SnrDb;
use wilis_fec::CodeRate;
use wilis_phy::{Modulation, Receiver};

/// The factors converting a hardware LLR hint into a true LLR:
/// `LLR_true = es_n0 × s_mod × s_dec × hint`.
///
/// * `es_n0` — linear SNR. The paper's estimator uses a pre-computed
///   constant per modulation (§4.2): the middle of the SNR range over
///   which that modulation's BER falls from 10⁻¹ to 10⁻⁷ is only a few dB
///   wide, so a midpoint costs little accuracy and saves a run-time SNR
///   estimator.
/// * `s_mod` — the modulation geometry factor (distances between
///   constellation points after K_mod normalization).
/// * `s_dec` — the decoder's input-interpretation scale, different for
///   SOVA and BCJR (§4.2: "the input values are interpreted using
///   different scales by the hardware BCJR and SOVA").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingFactors {
    /// Linear `Es/N0`.
    pub es_n0: f64,
    /// Modulation scale factor.
    pub s_mod: f64,
    /// Decoder scale factor.
    pub s_dec: f64,
}

impl ScalingFactors {
    /// Factors using the constant mid-range SNR for `modulation` (the
    /// paper's recommended configuration).
    pub fn with_constant_snr(modulation: Modulation, s_dec: f64) -> Self {
        Self {
            es_n0: Self::mid_snr(modulation).linear(),
            s_mod: Self::s_mod(modulation),
            s_dec,
        }
    }

    /// The pre-computed constant SNR for each modulation: the midpoint of
    /// the waterfall region where coded BER falls 10⁻¹ → 10⁻⁷, measured on
    /// this repository's pipeline (the paper takes the same midpoints from
    /// its reference \[8\], Doufexi et al.; ours sit ~1–3 dB lower because
    /// the modeled receiver has ideal synchronization and no implementation
    /// losses).
    pub fn mid_snr(modulation: Modulation) -> SnrDb {
        match modulation {
            Modulation::Bpsk => SnrDb::new(-0.5),
            Modulation::Qpsk => SnrDb::new(2.5),
            Modulation::Qam16 => SnrDb::new(7.25),
            Modulation::Qam64 => SnrDb::new(14.5),
        }
    }

    /// The modulation scale factor: the true-LLR change per *hint step*.
    ///
    /// Two pieces multiply here: the AWGN LLR slope per constellation grid
    /// unit (`4 K_mod²`, from equation 3), and the hardware demapper's
    /// quantizer gain — the hint-path demapper maps its analog range
    /// (1.5 × the largest grid coordinate) onto the signed range of
    /// [`Self::hint_demapper_bits`] bits, so one hint step corresponds to
    /// `analog_range / full_scale` grid units. Folding the quantizer in
    /// keeps `S_dec` close to modulation-independent (measured 0.35–0.55
    /// across all four modulations), which is what lets the paper treat
    /// it as a per-decoder constant.
    pub fn s_mod(modulation: Modulation) -> f64 {
        let bits = Self::hint_demapper_bits(modulation);
        let full_scale = f64::from((1u32 << (bits - 1)) - 1);
        let analog_range = modulation.grid_max() * 1.5;
        4.0 * modulation.kmod() * modulation.kmod() * analog_range / full_scale
    }

    /// The demapper soft-output width of the SoftPHY hint path, per
    /// modulation: [`Receiver::hint_demapper_bits`], which defines it.
    pub fn hint_demapper_bits(modulation: Modulation) -> u32 {
        Receiver::hint_demapper_bits(modulation)
    }

    /// The puncturing correction to the hint scale. Punctured rates erase
    /// mother-code bits, which shortens minimum error events (free
    /// distance 10 → 6 → 5) and caps decoder margins at proportionally
    /// smaller hint values; the same true LLR therefore corresponds to a
    /// *smaller* hint, so the per-hint scale grows. The constants follow
    /// the free-distance ratio and were validated with the Figure 5
    /// calibration procedure at each punctured rate's waterfall.
    pub fn code_rate_correction(code_rate: CodeRate) -> f64 {
        match code_rate {
            CodeRate::Half => 1.0,
            CodeRate::TwoThirds => 10.0 / 6.0,
            CodeRate::ThreeQuarters => 10.0 / 5.0,
        }
    }

    /// The combined multiplier applied to a hardware hint.
    pub fn combined(&self) -> f64 {
        self.es_n0 * self.s_mod * self.s_dec
    }

    /// The true LLR implied by a hardware hint (equation 5).
    pub fn true_llr(&self, hint: u16) -> f64 {
        self.combined() * f64::from(hint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mid_snr_ordering_follows_constellation_density() {
        let order = [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ];
        for w in order.windows(2) {
            assert!(
                ScalingFactors::mid_snr(w[0]).db() < ScalingFactors::mid_snr(w[1]).db(),
                "denser constellations need more SNR"
            );
        }
    }

    #[test]
    fn s_mod_matches_kmod_and_quantizer() {
        // 4 kmod^2 * (analog_range / full_scale); 4-bit for BPSK/QPSK,
        // 5-bit for the QAM constellations.
        assert!((ScalingFactors::s_mod(Modulation::Bpsk) - 4.0 * 1.5 / 7.0).abs() < 1e-12);
        assert!((ScalingFactors::s_mod(Modulation::Qpsk) - 2.0 * 1.5 / 7.0).abs() < 1e-12);
        assert!((ScalingFactors::s_mod(Modulation::Qam16) - 0.4 * 4.5 / 15.0).abs() < 1e-12);
        assert!(
            (ScalingFactors::s_mod(Modulation::Qam64) - (4.0 / 42.0) * 10.5 / 15.0).abs() < 1e-12
        );
    }

    #[test]
    fn true_llr_is_linear_in_hint() {
        let f = ScalingFactors::with_constant_snr(Modulation::Qam16, 0.5);
        assert_eq!(f.true_llr(0), 0.0);
        assert!((f.true_llr(40) - 2.0 * f.true_llr(20)).abs() < 1e-12);
    }

    #[test]
    fn constant_vs_true_snr_differ_off_midpoint() {
        let c = ScalingFactors::with_constant_snr(Modulation::Qam16, 1.0);
        let t = ScalingFactors {
            es_n0: SnrDb::new(10.0).linear(),
            ..c
        };
        assert!(t.combined() > c.combined(), "10 dB is above the midpoint");
    }
}
