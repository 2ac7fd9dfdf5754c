//! Conventional Automatic Repeat-reQuest — the baseline link layer.
//!
//! "Conventional ARQ requires the retransmission of the entire packet in
//! the event of any bit error" (§4). The policy itself is
//! [`crate::HarqLink`] with its combiner disarmed, which the `"arq"`
//! registry name builds. This module derives the PBER thresholds SoftRate
//! uses: for packets around 10⁴ bits, a per-packet BER of 10⁻⁵ still
//! delivers ~90% of packets while 10⁻⁷ delivers ~99.9%, which is why the
//! paper's target band is (10⁻⁷, 10⁻⁵).

/// Expected probability that a packet of `bits` decodes error-free at a
/// uniform per-bit error rate `ber`.
///
/// Uses `powf` rather than `powi`: the exponent is a `u64`, and a cast to
/// `i32` would wrap negative for `bits >= 2^31`, yielding garbage
/// "probabilities" above 1. `powf` handles the whole range (jumbo frames,
/// aggregate airtime budgets) with ample precision.
///
/// # Example
///
/// ```
/// use wilis_mac::arq::packet_success_probability;
/// let p = packet_success_probability(10_000, 1e-5);
/// assert!((p - 0.905).abs() < 0.01);
/// ```
pub fn packet_success_probability(bits: u64, ber: f64) -> f64 {
    (1.0 - ber).powf(bits as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkContext, LinkStatus, Oracle};
    use crate::{HarqConfig, HarqLink, LinkPolicy};
    use wilis_fec::CodeRate;
    use wilis_phy::{PhyRate, RxResult};

    /// Whole-packet ARQ: the stop-and-wait policy with its combiner
    /// disarmed, as the `"arq"` registry name builds it.
    fn arq(bits: u64, max_retries: u32) -> HarqLink {
        let config = HarqConfig::chase(max_retries + 1).with_combining(false);
        HarqLink::new(bits, config, CodeRate::Half)
    }

    /// Sends one attempt that decodes clean or not and returns the verdict.
    fn send(link: &mut HarqLink, clean: bool) -> LinkStatus {
        let rx = RxResult {
            hints: Vec::new(),
            soft_magnitudes: Vec::new(),
            decoder_id: "test",
            payload: Vec::new(),
        };
        let ctx = LinkContext {
            sent: &[],
            bit_errors: u64::from(!clean),
            predicted_pber: 0.0,
            rate: PhyRate::Qam16Half,
            oracle: Oracle::Unavailable,
        };
        link.observe(&rx, &[], &ctx).status
    }

    #[test]
    fn paper_threshold_band_is_sensible() {
        // The (1e-7, 1e-5) band on ~1e4-bit packets spans roughly
        // 90%..99.9% delivery - the "extra margin" §4.2 describes.
        let hi = packet_success_probability(10_000, 1e-5);
        let lo = packet_success_probability(10_000, 1e-7);
        assert!(hi > 0.88 && hi < 0.92, "at 1e-5: {hi}");
        assert!(lo > 0.998, "at 1e-7: {lo}");
    }

    #[test]
    fn success_probability_edges() {
        assert_eq!(packet_success_probability(100, 0.0), 1.0);
        assert!(packet_success_probability(100, 1.0) < 1e-30);
    }

    #[test]
    fn success_probability_survives_giant_packets() {
        // Regression: `powi(bits as i32)` wrapped negative past 2^31 and
        // produced "probabilities" above 1.
        let bits = u32::MAX as u64 + 1;
        let p = packet_success_probability(bits, 1e-10);
        assert!(p > 0.0 && p <= 1.0, "p = {p}");
        // 2^32 bits at 1e-10 BER: ~0.65 expected delivery.
        assert!((p - (-(bits as f64 * 1e-10)).exp()).abs() < 1e-3);
        // More bits can only hurt.
        assert!(p < packet_success_probability(10_000, 1e-10));
    }

    #[test]
    fn session_counts_retransmissions() {
        let mut s = arq(1000, 3);
        assert_eq!(send(&mut s, false), LinkStatus::Retransmit);
        assert_eq!(send(&mut s, false), LinkStatus::Retransmit);
        assert_eq!(send(&mut s, true), LinkStatus::Delivered);
        let m = s.metrics();
        assert_eq!(m.delivered, 1);
        assert_eq!(m.packets, 3);
        assert!((m.goodput() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn session_gives_up_after_max_retries() {
        let mut s = arq(1000, 2);
        assert_eq!(send(&mut s, false), LinkStatus::Retransmit); // try 1 fails
        assert_eq!(send(&mut s, false), LinkStatus::Retransmit); // retry 1 fails
        assert_eq!(send(&mut s, false), LinkStatus::GaveUp); // retry 2 fails -> abandoned
        assert_eq!(s.metrics().gave_up, 1);
        assert_eq!(s.metrics().delivered, 0);
        // Next packet starts fresh.
        assert_eq!(send(&mut s, true), LinkStatus::Delivered);
        assert_eq!(s.metrics().delivered, 1);
    }

    #[test]
    fn empty_session_efficiency_zero() {
        assert_eq!(arq(100, 1).metrics().goodput(), 0.0);
    }

    #[test]
    #[should_panic(expected = "carry bits")]
    fn zero_bit_packets_rejected() {
        // Registry factories are infallible, so the policy stores the
        // error; whoever builds it must surface that error before running.
        if let Some(err) = arq(0, 3).config_error() {
            panic!("{err}");
        }
    }

    #[test]
    fn bit_accounting_tracks_attempts() {
        let mut s = arq(500, 3);
        assert_eq!(send(&mut s, false), LinkStatus::Retransmit);
        assert_eq!(send(&mut s, true), LinkStatus::Delivered);
        let m = s.metrics();
        assert_eq!(m.bits_delivered, 500);
        assert_eq!(m.bits_transmitted, 1000);
        assert_eq!(m.bits_retransmitted, 500);
        assert!((m.goodput() - 0.5).abs() < 1e-12);
    }
}
