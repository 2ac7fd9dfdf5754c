//! Randomized property tests on the link layer (deterministic,
//! self-seeded — the offline analog of a proptest suite, following
//! `wilis_channel`'s style).

use wilis_fec::CodeRate;
use wilis_fxp::rng::SmallRng;
use wilis_phy::{PhyRate, RxResult};

use crate::arq::packet_success_probability;
use crate::link::{LinkContext, LinkStatus, Oracle};
use crate::ppr::{evaluate, PprConfig};
use crate::{HarqConfig, HarqLink, LinkPolicy};

/// The stop-and-wait reference the link policy must follow: a packet
/// closes on a clean attempt or once its `attempts` budget is spent.
fn stop_and_wait(attempts: u32, clean: &[bool]) -> Vec<LinkStatus> {
    let mut used = 0;
    let mut verdicts = Vec::new();
    for &ok in clean {
        used += 1;
        let status = match (ok, used < attempts) {
            (true, _) => LinkStatus::Delivered,
            (false, true) => LinkStatus::Retransmit,
            (false, false) => LinkStatus::GaveUp,
        };
        if status != LinkStatus::Retransmit {
            used = 0;
        }
        verdicts.push(status);
    }
    verdicts
}

/// The one stop-and-wait policy, armed (HARQ) or disarmed (ARQ), closes
/// packets exactly as the reference does under any budget and any
/// clean/dirty sequence, and its accounting adds up: one packet per
/// observation, every attempt's bits transmitted, every closed packet
/// delivered or given up, and every attempt after a packet's first
/// retransmitted.
#[test]
fn stop_and_wait_policy_matches_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0x3AC1);
    let rx = RxResult {
        hints: Vec::new(),
        soft_magnitudes: Vec::new(),
        decoder_id: "test",
        payload: Vec::new(),
    };
    for _ in 0..128 {
        let bits = rng.gen_i64(1, 10_000) as u64;
        let attempts = rng.gen_i64(1, 7) as u32;
        let armed = rng.gen_bit() == 1;
        let config = if rng.gen_bit() == 1 {
            HarqConfig::incremental(attempts, vec![0, 3])
        } else {
            HarqConfig::chase(attempts)
        };
        let mut link = HarqLink::new(bits, config.with_combining(armed), CodeRate::ThreeQuarters);
        assert_eq!(link.harq().is_some(), armed);
        let clean: Vec<bool> = (0..rng.gen_i64(1, 200))
            .map(|_| rng.gen_bit() == 1)
            .collect();
        let verdicts: Vec<LinkStatus> = clean
            .iter()
            .map(|&ok| {
                let ctx = LinkContext {
                    sent: &[],
                    bit_errors: u64::from(!ok),
                    predicted_pber: 0.0,
                    rate: PhyRate::QpskThreeQuarters,
                    oracle: Oracle::Unavailable,
                };
                link.observe(&rx, &[], &ctx).status
            })
            .collect();
        assert_eq!(verdicts, stop_and_wait(attempts, &clean));

        let m = link.metrics();
        let packets = clean.len() as u64;
        let closed = verdicts
            .iter()
            .filter(|&&v| v != LinkStatus::Retransmit)
            .count() as u64;
        let started = 1 + verdicts[..verdicts.len() - 1]
            .iter()
            .filter(|&&v| v != LinkStatus::Retransmit)
            .count() as u64;
        assert_eq!(m.packets, packets);
        assert_eq!(m.bits_transmitted, packets * bits);
        assert_eq!(m.delivered + m.gave_up, closed);
        assert_eq!(m.bits_retransmitted, bits * (packets - started));
        assert_eq!(m.bits_delivered, m.delivered * bits);
        // Disarmed, nothing HARQ-only is accounted.
        let hist: u64 = m.attempts_hist.iter().sum();
        assert_eq!(hist, if armed { closed } else { 0 });
        assert!(armed || (m.recovered == 0 && m.effective_rate_sum == 0.0));
    }
}

/// Disarmed (whole-packet ARQ), the policy's goodput is a ratio and every
/// attempt puts the packet's bits on the air.
#[test]
fn arq_efficiency_is_a_ratio() {
    let mut rng = SmallRng::seed_from_u64(0x3AC4);
    let rx = RxResult {
        hints: Vec::new(),
        soft_magnitudes: Vec::new(),
        decoder_id: "test",
        payload: Vec::new(),
    };
    for _ in 0..64 {
        let bits = rng.gen_i64(1, 10_000) as u64;
        let retries = rng.gen_i64(0, 6) as u32;
        let config = HarqConfig::chase(retries + 1).with_combining(false);
        let mut s = HarqLink::new(bits, config, CodeRate::Half);
        for _ in 0..rng.gen_i64(1, 200) {
            let ctx = LinkContext {
                sent: &[],
                bit_errors: u64::from(rng.gen_bit()),
                predicted_pber: 0.0,
                rate: PhyRate::Qam16Half,
                oracle: Oracle::Unavailable,
            };
            let _ = s.observe(&rx, &[], &ctx);
        }
        let m = s.metrics();
        let e = m.goodput();
        assert!((0.0..=1.0).contains(&e), "efficiency {e}");
        assert_eq!(m.bits_transmitted, m.packets * bits);
        assert!(m.bits_delivered <= m.bits_transmitted);
    }
}

/// Packet success probability is monotone decreasing in both the packet
/// size and the bit error rate, and always a probability — including for
/// packet sizes past the `i32` range that used to wrap `powi`.
#[test]
fn success_probability_monotone_and_bounded() {
    let mut rng = SmallRng::seed_from_u64(0x3AC2);
    for _ in 0..64 {
        let bits_a = rng.gen_i64(1, 1 << 20) as u64;
        let bits_b = bits_a + rng.gen_i64(1, 1 << 34) as u64; // may exceed 2^31
        let ber_a = 10f64.powf(rng.gen_range(-9.0..-1.0));
        let ber_b = (ber_a * rng.gen_range(1.5..100.0)).min(1.0);
        let p = packet_success_probability(bits_a, ber_a);
        assert!((0.0..=1.0).contains(&p), "p {p}");
        assert!(
            packet_success_probability(bits_b, ber_a) <= p,
            "more bits cannot help ({bits_a} vs {bits_b} at {ber_a})"
        );
        assert!(
            packet_success_probability(bits_a, ber_b) <= p,
            "worse BER cannot help ({ber_a} vs {ber_b} at {bits_a})"
        );
    }
}

/// PPR's retransmit fraction is a ratio in [0, 1], and `recovered()` holds
/// exactly when every true error lies in a retransmitted chunk.
#[test]
fn ppr_outcome_consistent_with_plan() {
    let mut rng = SmallRng::seed_from_u64(0x3AC3);
    for _ in 0..64 {
        let n = rng.gen_i64(1, 600) as usize;
        let chunk = rng.gen_i64(1, 80) as usize;
        let threshold = rng.gen_i64(0, 64) as u16;
        let cfg = PprConfig::new(chunk, threshold);
        // Random hints; errors correlate with low hints only sometimes, so
        // both recovery and miss cases are exercised.
        let hints: Vec<u16> = (0..n).map(|_| rng.gen_i64(0, 63) as u16).collect();
        let errors: Vec<bool> = hints
            .iter()
            .map(|&h| {
                let p = if h < 16 { 0.4 } else { 0.02 };
                rng.gen_range(0.0..1.0) < p
            })
            .collect();
        let plan = cfg.plan(&hints);
        let out = evaluate(&cfg, &plan, &errors);
        let f = out.retransmit_fraction();
        assert!((0.0..=1.0).contains(&f), "fraction {f}");
        assert_eq!(out.total_bits, n);
        let every_error_covered = errors
            .chunks(chunk)
            .zip(&plan)
            .all(|(errs, &sent)| sent || errs.iter().all(|&e| !e));
        assert_eq!(
            out.recovered(),
            every_error_covered,
            "recovered() must mean every true error fell in a retransmitted chunk"
        );
        assert_eq!(
            out.repaired_errors + out.missed_errors,
            errors.iter().filter(|&&e| e).count()
        );
    }
}
