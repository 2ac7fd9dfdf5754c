//! Monte-Carlo calibration: the procedure behind the paper's Figure 5.
//!
//! "To determine the relationship between these LLR values and the BERs,
//! we simulated the transmission of trillions (10¹²) of bits on the FPGA"
//! (§4.4.1). This module runs the same experiment on the software pipeline:
//! transmit packets through an AWGN channel, decode with SOVA or BCJR, bin
//! every payload bit by its hint value, and record whether it was actually
//! in error. The per-bin BER against hint value is the Figure 5 curve; a
//! log-linear fit of it yields the lookup table for [`crate::BerEstimator`].
//!
//! We cannot afford 10¹² bits in software — the bit budget is configurable
//! and the reproduced curves simply stop at a higher BER floor (about
//! 10⁻⁵–10⁻⁶ at the default budgets; raise the budget to dig deeper).

use wilis_channel::{AwgnChannel, SnrDb};
use wilis_fec::{BcjrDecoder, ConvCode, SovaDecoder, MAX_HINT};
use wilis_fxp::rng::SmallRng;
use wilis_phy::{Demapper, PhyRate, Receiver, SnrScaling, Transmitter};

use crate::estimator::DecoderKind;
use crate::table::LogLinearFit;
use wilis_fxp::Cplx;
use wilis_phy::{PhyScratch, RxResult};

/// Configuration of one calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// PHY rate (fixes modulation and code rate).
    pub rate: PhyRate,
    /// Which soft decoder to characterize.
    pub decoder: DecoderKind,
    /// Channel SNR.
    pub snr: SnrDb,
    /// Total payload bits to simulate (rounded up to whole packets).
    pub min_bits: u64,
    /// Payload size per packet in bits (the paper's Figure 6 uses 1704).
    pub packet_bits: usize,
    /// Demapper soft-output width in bits.
    pub demapper_bits: u32,
    /// RNG seed (payloads and noise derive from it deterministically).
    pub seed: u64,
}

impl CalibrationConfig {
    /// A sensible default: 1704-bit packets, with the hint-path demapper
    /// width for the rate's modulation (see
    /// `ScalingFactors::hint_demapper_bits`).
    pub fn new(rate: PhyRate, decoder: DecoderKind, snr: SnrDb, min_bits: u64) -> Self {
        Self {
            rate,
            decoder,
            snr,
            min_bits,
            packet_bits: 1704,
            demapper_bits: crate::ScalingFactors::hint_demapper_bits(rate.modulation()),
            seed: 0x5EED,
        }
    }
}

/// One hint bin: how many payload bits carried this hint, and how many of
/// them were wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HintBin {
    /// Bits observed with this hint.
    pub bits: u64,
    /// Of those, bits decoded incorrectly.
    pub errors: u64,
}

impl HintBin {
    /// Observed BER of this bin, `None` if empty.
    pub fn ber(&self) -> Option<f64> {
        (self.bits > 0).then(|| self.errors as f64 / self.bits as f64)
    }
}

/// The result of a calibration run.
#[derive(Debug, Clone)]
pub struct HintCalibration {
    /// The configuration that produced this calibration.
    pub config: CalibrationConfig,
    /// Per-hint statistics, index = hint value (0..=63).
    pub bins: Vec<HintBin>,
    /// Packets simulated.
    pub packets: u64,
    /// Packets with at least one payload bit error.
    pub packet_errors: u64,
    /// Overall payload BER across the run.
    pub overall_ber: f64,
    /// Log-linear fit of BER vs hint (the Figure 5 line), when enough
    /// error mass exists to fit one.
    pub fit: Option<LogLinearFit>,
}

impl HintCalibration {
    /// Builds a calibration from accumulated hint bins, applying the
    /// canonical Figure 5 fit rule (bins with ≥ 16 observations and ≥ 1
    /// error, weighted by error count). Shared by [`calibrate_hints`] and
    /// the scenario-engine Figure 5 driver so the two paths can never
    /// diverge.
    pub fn from_bins(
        config: CalibrationConfig,
        bins: Vec<HintBin>,
        packets: u64,
        packet_errors: u64,
        overall_ber: f64,
    ) -> Self {
        let samples: Vec<(u16, f64, f64)> = bins
            .iter()
            .enumerate()
            .filter(|(_, b)| b.bits >= 16 && b.errors >= 1)
            .map(|(h, b)| (h as u16, b.errors as f64 / b.bits as f64, b.errors as f64))
            .collect();
        let fit = LogLinearFit::fit(&samples);
        Self {
            config,
            bins,
            packets,
            packet_errors,
            overall_ber,
            fit,
        }
    }

    /// Iterates `(hint, ber)` over non-empty bins with at least one error
    /// — the plotted points of Figure 5.
    pub fn curve(&self) -> impl Iterator<Item = (u16, f64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter_map(|(h, b)| b.ber().filter(|&ber| ber > 0.0).map(|ber| (h as u16, ber)))
    }
}

/// Builds the receiver for a decoder kind (shared with the experiment
/// drivers in the `wilis` facade).
pub fn receiver_for(rate: PhyRate, decoder: DecoderKind, demapper_bits: u32) -> Receiver {
    let code = ConvCode::ieee80211();
    let demapper = Demapper::new(rate.modulation(), demapper_bits, SnrScaling::Off);
    match decoder {
        DecoderKind::Sova => {
            Receiver::new(rate, demapper, Box::new(SovaDecoder::new(&code, 64, 64)))
        }
        DecoderKind::Bcjr => Receiver::new(rate, demapper, Box::new(BcjrDecoder::new(&code, 64))),
    }
}

/// Runs the calibration experiment.
///
/// # Panics
///
/// Panics if `packet_bits` is zero.
pub fn calibrate_hints(cfg: &CalibrationConfig) -> HintCalibration {
    assert!(cfg.packet_bits > 0, "packets must carry payload");
    let tx = Transmitter::new(cfg.rate);
    let mut rx = receiver_for(cfg.rate, cfg.decoder, cfg.demapper_bits);
    let mut channel = AwgnChannel::new(cfg.snr, cfg.seed ^ 0xC0FFEE);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let mut bins = vec![HintBin::default(); usize::from(MAX_HINT) + 1];
    let mut packets = 0u64;
    let mut packet_errors = 0u64;
    let mut total_bits = 0u64;
    let mut total_errors = 0u64;

    // Steady-state working memory, reused across the whole run.
    let mut scratch = PhyScratch::new();
    let mut samples: Vec<Cplx> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut got = RxResult::default();

    while total_bits < cfg.min_bits {
        payload.clear();
        payload.extend((0..cfg.packet_bits).map(|_| rng.gen_bit()));
        let scramble_seed = (packets % 127 + 1) as u8;
        tx.tx_into(&payload, scramble_seed, &mut scratch, &mut samples);
        channel.apply(&mut samples);
        rx.rx_from(
            &samples,
            payload.len(),
            scramble_seed,
            &mut scratch,
            &mut got,
        );

        let mut errs_this_packet = 0u64;
        for ((sent_bit, got_bit), &hint) in payload.iter().zip(&got.payload).zip(&got.hints) {
            let bin = &mut bins[usize::from(hint)];
            bin.bits += 1;
            if sent_bit != got_bit {
                bin.errors += 1;
                errs_this_packet += 1;
            }
        }
        packets += 1;
        total_bits += cfg.packet_bits as u64;
        total_errors += errs_this_packet;
        if errs_this_packet > 0 {
            packet_errors += 1;
        }
    }

    HintCalibration::from_bins(
        *cfg,
        bins,
        packets,
        packet_errors,
        total_errors as f64 / total_bits as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(rate: PhyRate, decoder: DecoderKind, snr_db: f64, bits: u64) -> HintCalibration {
        calibrate_hints(&CalibrationConfig {
            packet_bits: 600,
            ..CalibrationConfig::new(rate, decoder, SnrDb::new(snr_db), bits)
        })
    }

    #[test]
    fn clean_channel_pegs_high_hints() {
        let cal = quick(PhyRate::QpskHalf, DecoderKind::Sova, 30.0, 3_000);
        assert_eq!(cal.overall_ber, 0.0);
        // Essentially all mass in the top hint bins.
        let top: u64 = cal.bins[32..].iter().map(|b| b.bits).sum();
        let all: u64 = cal.bins.iter().map(|b| b.bits).sum();
        assert!(top * 10 >= all * 9, "top-bin mass {top}/{all}");
        assert!(cal.fit.is_none(), "no errors, nothing to fit");
    }

    #[test]
    fn noisy_channel_produces_falling_curve() {
        let cal = quick(PhyRate::QpskHalf, DecoderKind::Bcjr, 1.0, 30_000);
        assert!(cal.overall_ber > 5e-4, "ber {}", cal.overall_ber);
        let fit = cal.fit.expect("enough errors to fit");
        assert!(
            fit.slope < 0.0,
            "BER must fall with hint, slope {}",
            fit.slope
        );
        // Low-hint bins should show materially higher BER than high-hint.
        let low: Vec<f64> = cal
            .curve()
            .filter(|&(h, _)| h <= 8)
            .map(|(_, b)| b)
            .collect();
        let high: Vec<f64> = cal
            .curve()
            .filter(|&(h, _)| h >= 24)
            .map(|(_, b)| b)
            .collect();
        if let (Some(&l), Some(&h)) = (low.first(), high.last()) {
            assert!(l > h, "low-hint {l} vs high-hint {h}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(PhyRate::BpskHalf, DecoderKind::Sova, 4.0, 5_000);
        let b = quick(PhyRate::BpskHalf, DecoderKind::Sova, 4.0, 5_000);
        assert_eq!(a.bins, b.bins);
        assert_eq!(a.overall_ber, b.overall_ber);
    }

    #[test]
    fn bin_accounting_conserves_bits() {
        let cal = quick(PhyRate::Qam16Half, DecoderKind::Bcjr, 8.0, 6_000);
        let binned: u64 = cal.bins.iter().map(|b| b.bits).sum();
        assert_eq!(binned, cal.packets * 600);
    }
}
