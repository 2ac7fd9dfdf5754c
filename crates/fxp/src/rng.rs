//! Deterministic pseudo-random number generation.
//!
//! Every Monte-Carlo experiment in this repository must be reproducible
//! from a single `u64` seed — the scenario engine's bit-identical-results
//! contract depends on it — so randomness comes from this self-contained
//! xoshiro256++ generator rather than an external crate. Streams are a
//! pure function of the seed; there is no global or thread-local state.

/// SplitMix64 step: the standard seeding mix for xoshiro-family state.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes a seed and a stream index into an independent sub-seed — the
/// chunk-seeding helper used by the parallel channel and the sweep runner
/// so that work item `i` draws from the same stream no matter which worker
/// executes it.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut s = seed ^ index.wrapping_mul(0xd134_2543_de82_ef95);
    splitmix64(&mut s)
}

/// A small, fast, seedable PRNG (xoshiro256++).
///
/// Equal seeds give equal streams; the API mirrors the subset of `rand`
/// this repository needs.
///
/// # Example
///
/// ```
/// use wilis_fxp::rng::SmallRng;
///
/// let mut a = SmallRng::seed_from_u64(7);
/// let mut b = SmallRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// A generator seeded from a single `u64` via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in the half-open interval `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or reversed.
    pub fn gen_range(&mut self, range: std::ops::Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_f64() * (range.end - range.start)
    }

    /// Uniform integer in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn gen_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "reversed range");
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// A uniform random bit, as `0u8` or `1u8` (payload generation).
    pub fn gen_bit(&mut self) -> u8 {
        (self.next_u64() >> 63) as u8
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_answers_for_two_seeds_and_mix_seed() {
        let moved = "every seeded stream moved: bump RESULT_EPOCHS in wilis service/store.rs";
        for (seed, word, unit, bits) in [
            (0, 0x5317_5d61_490b_23df, 0.38223929651167343, 0b0000_1100),
            (7, 0x0e2c_1a00_2aae_913d, 0.17211585444811772, 0b1010_1010),
        ] {
            let mut r = SmallRng::seed_from_u64(seed);
            assert_eq!(r.next_u64(), word, "{moved}");
            assert_eq!(r.next_f64(), unit, "{moved}");
            let got = (0..8).fold(0u8, |acc, _| acc << 1 | r.gen_bit());
            assert_eq!(got, bits, "{moved}");
        }
        assert_eq!(mix_seed(0, 0), 0xe220_a839_7b1d_cdaf, "{moved}");
        assert_eq!(mix_seed(7, 9), 0xa65d_c082_83ce_7109, "{moved}");
        assert_eq!(mix_seed(u64::MAX, 3), 0x3081_596f_455a_fdc4, "{moved}");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..256).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_uniform_moments() {
        let mut r = SmallRng::seed_from_u64(9);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "variance {var}");
    }

    #[test]
    fn integer_range_covers_all_values() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut seen = [false; 15];
        for _ in 0..10_000 {
            let v = r.gen_i64(-7, 7);
            assert!((-7..=7).contains(&v));
            seen[(v + 7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bits_are_balanced() {
        let mut r = SmallRng::seed_from_u64(5);
        let ones: u32 = (0..10_000).map(|_| u32::from(r.gen_bit())).sum();
        assert!((4500..5500).contains(&ones), "{ones} ones in 10k bits");
    }

    #[test]
    fn mix_seed_decorrelates_indices() {
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
    }
}
