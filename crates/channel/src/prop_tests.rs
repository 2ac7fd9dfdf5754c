//! Randomized property tests on channel models (deterministic,
//! self-seeded — the offline analog of a proptest suite).

use wilis_fxp::rng::SmallRng;
use wilis_fxp::Cplx;

use crate::parallel::apply_awgn_parallel;
use crate::{AwgnChannel, RayleighFading, ReplayChannel, SnrDb};

/// AWGN is exactly reproducible from its seed for any SNR.
#[test]
fn awgn_reproducible() {
    let mut rng = SmallRng::seed_from_u64(0xC4A1);
    for _ in 0..32 {
        let seed = rng.next_u64();
        let snr_db = rng.gen_range(-5.0..30.0);
        let n = rng.gen_i64(1, 500) as usize;
        let mut a = AwgnChannel::new(SnrDb::new(snr_db), seed);
        let mut b = AwgnChannel::new(SnrDb::new(snr_db), seed);
        let mut xa = vec![Cplx::ONE; n];
        let mut xb = vec![Cplx::ONE; n];
        a.apply(&mut xa);
        b.apply(&mut xb);
        assert_eq!(xa, xb);
    }
}

/// Replay channels agree for any split of the sample stream.
#[test]
fn replay_split_invariance() {
    let mut rng = SmallRng::seed_from_u64(0xC4A2);
    for _ in 0..32 {
        let seed = rng.next_u64();
        let split = rng.gen_i64(1, 199) as usize;
        let total = 200usize;
        let mut whole = ReplayChannel::awgn_only(SnrDb::new(8.0), 1e6, seed);
        let mut buf = vec![Cplx::ONE; total];
        whole.apply(&mut buf);

        let mut parts = ReplayChannel::awgn_only(SnrDb::new(8.0), 1e6, seed);
        let mut first = vec![Cplx::ONE; split];
        let mut second = vec![Cplx::ONE; total - split];
        parts.apply(&mut first);
        parts.apply(&mut second);
        first.extend(second);
        assert_eq!(buf, first);
    }
}

/// Fading gain magnitude is finite and non-degenerate everywhere.
#[test]
fn fading_gain_well_behaved() {
    let mut rng = SmallRng::seed_from_u64(0xC4A3);
    for _ in 0..32 {
        let fading = RayleighFading::new(20.0, rng.next_u64());
        let t = rng.gen_range(0.0..1000.0);
        let g = fading.gain_at(t);
        assert!(g.re.is_finite() && g.im.is_finite());
        assert!(g.norm() < 10.0, "gain too large: {}", g.norm());
    }
}

/// Thread count never changes the parallel-AWGN realization.
#[test]
fn parallel_thread_invariance() {
    let mut rng = SmallRng::seed_from_u64(0xC4A4);
    for _ in 0..16 {
        let seed = rng.next_u64();
        let threads = rng.gen_i64(1, 8) as usize;
        let n = rng.gen_i64(1, 5000) as usize;
        let mut reference = vec![Cplx::ONE; n];
        let mut other = vec![Cplx::ONE; n];
        apply_awgn_parallel(&mut reference, SnrDb::new(10.0), seed, 1);
        apply_awgn_parallel(&mut other, SnrDb::new(10.0), seed, threads);
        assert_eq!(reference, other);
    }
}

/// Higher SNR always means less measured distortion (on average).
#[test]
fn snr_ordering_holds() {
    let mut rng = SmallRng::seed_from_u64(0xC4A5);
    for _ in 0..8 {
        let seed = rng.next_u64();
        let n = 20_000;
        let measure = |db: f64| {
            let mut ch = AwgnChannel::new(SnrDb::new(db), seed);
            let mut buf = vec![Cplx::ONE; n];
            ch.apply(&mut buf);
            buf.iter().map(|s| (*s - Cplx::ONE).norm_sq()).sum::<f64>() / n as f64
        };
        let noisy = measure(0.0);
        let clean = measure(20.0);
        assert!(noisy > 5.0 * clean, "0 dB {noisy} vs 20 dB {clean}");
    }
}
