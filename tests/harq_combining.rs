//! HARQ soft-combining acceptance: across the QAM-16 3/4 waterfall,
//! with four attempts per packet for every policy, Chase combining beats
//! plain ARQ on goodput and incremental redundancy never loses to Chase,
//! pulling ahead where the channel is worst.

use wilis::mac::LinkMetrics;
use wilis::phy::PhyRate;
use wilis::scenario::{SweepGrid, SweepRunner};

const SNRS_DB: [f64; 4] = [6.5, 7.5, 8.5, 9.5];
const PACKETS: u32 = 56;

/// Link metrics per swept SNR for one policy; ARQ's budget is phrased
/// as retries after the first attempt, the HARQ policies' as attempts.
fn sweep(link: &str, key: &str, value: &str) -> Vec<LinkMetrics> {
    let scenarios = SweepGrid::new()
        .rates(&[PhyRate::Qam16ThreeQuarters])
        .decoders(&["sova"])
        .links(&[link])
        .link_param(key, value)
        .snrs_db(&SNRS_DB)
        .packets(PACKETS)
        .payload_bits(710)
        .scenarios();
    SweepRunner::new(2)
        .run(&scenarios)
        .unwrap()
        .into_iter()
        .map(|r| r.link.expect("link metrics"))
        .collect()
}

#[test]
fn soft_combining_dominates_arq_and_ir_dominates_chase() {
    let arq = sweep("arq", "max_retries", "3");
    let cc = sweep("harq-cc", "attempts", "4");
    let ir = sweep("harq-ir", "attempts", "4");

    for (name, points) in [("arq", &arq), ("harq-cc", &cc), ("harq-ir", &ir)] {
        for (snr, m) in SNRS_DB.iter().zip(points) {
            assert!((0.0..=1.0).contains(&m.goodput()), "{name}@{snr}dB goodput");
            assert!(
                (0.0..=1.0).contains(&m.delivery_rate()),
                "{name}@{snr}dB delivery rate"
            );
        }
    }
    for (name, points) in [("harq-cc", &cc), ("harq-ir", &ir)] {
        for (snr, m) in SNRS_DB.iter().zip(points) {
            assert_eq!(
                m.attempts_hist.iter().sum::<u64>(),
                u64::from(PACKETS),
                "{name}@{snr}dB: every packet closes in one histogram bin"
            );
            assert!(m.mean_attempts() >= 1.0, "{name}@{snr}dB mean attempts");
            assert!(
                m.mean_effective_rate() > 0.0,
                "{name}@{snr}dB effective rate"
            );
        }
    }
    for (i, snr) in SNRS_DB.iter().enumerate() {
        let (a, c, r) = (&arq[i], &cc[i], &ir[i]);
        assert!(
            c.goodput() > a.goodput(),
            "@{snr}dB: Chase {:.3} must beat ARQ {:.3}",
            c.goodput(),
            a.goodput()
        );
        assert!(
            r.goodput() >= c.goodput(),
            "@{snr}dB: IR {:.3} must never lose to Chase {:.3}",
            r.goodput(),
            c.goodput()
        );
        assert!(
            r.mean_effective_rate() <= c.mean_effective_rate(),
            "@{snr}dB: IR retransmissions must not raise the effective code rate"
        );
    }
    assert!(
        ir[0].goodput() > cc[0].goodput(),
        "IR must beat Chase at the lowest SNR"
    );
    assert!(
        ir[0].mean_effective_rate() < cc[0].mean_effective_rate(),
        "IR must actually lower the code rate where it retransmits"
    );
    assert!(
        cc[0].recovered_fraction() > 0.0,
        "combining never decided a packet"
    );
}
