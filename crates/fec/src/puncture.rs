//! Puncturing: deriving the 802.11a code rates from the rate-1/2 mother
//! code by deleting coded bits on a fixed pattern, and re-inserting
//! metric-neutral erasures at the receiver.
//!
//! The receiver's depuncturing has one lane-major body, compiled per lane
//! count like the decoders' lane kernels: a solo receive runs it at one
//! lane, a batched receive at up to [`crate::MAX_BATCH_LANES`].

use std::fmt;

use crate::batch::{dispatch_lanes, MAX_LANES};
use crate::llr::Llr;

/// The three 802.11a code rates.
///
/// Patterns follow IEEE 802.11-2007 §17.3.5.6: over each period the mask
/// selects which mother-code bits (in `A1 B1 A2 B2 ...` order) are
/// transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2: no puncturing.
    Half,
    /// Rate 2/3: one of every four mother bits removed.
    TwoThirds,
    /// Rate 3/4: two of every six mother bits removed.
    ThreeQuarters,
}

impl CodeRate {
    /// The keep-mask over one puncturing period of mother-coded bits.
    pub fn mask(self) -> &'static [u8] {
        match self {
            CodeRate::Half => &[1, 1],
            CodeRate::TwoThirds => &[1, 1, 1, 0],
            CodeRate::ThreeQuarters => &[1, 1, 1, 0, 0, 1],
        }
    }

    /// The rate as `(numerator, denominator)`.
    pub fn fraction(self) -> (u32, u32) {
        match self {
            CodeRate::Half => (1, 2),
            CodeRate::TwoThirds => (2, 3),
            CodeRate::ThreeQuarters => (3, 4),
        }
    }

    /// The rate as a float (data bits per coded bit).
    pub fn value(self) -> f64 {
        let (n, d) = self.fraction();
        f64::from(n) / f64::from(d)
    }
}

impl fmt::Display for CodeRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (n, d) = self.fraction();
        write!(f, "{n}/{d}")
    }
}

/// Saturating element-wise LLR combination: `acc[i] += fresh[i]`.
///
/// This is the Chase/IR combiner core: soft planes from repeated
/// transmissions of the same mother block add coherently (independent
/// noise adds incoherently), so the combined block decodes as if it had
/// been received at a higher SNR. Addition saturates at the `i32` rails
/// so a long retry run cannot wrap a confident bit into the opposite
/// sign.
///
/// # Panics
///
/// Panics if the planes disagree on length — combining is only defined
/// over the same mother-code geometry.
// lint: no_alloc
pub fn combine_llrs_into(acc: &mut [Llr], fresh: &[Llr]) {
    assert_eq!(
        acc.len(),
        fresh.len(),
        "LLR planes must share the mother-code geometry"
    );
    for (a, &f) in acc.iter_mut().zip(fresh) {
        *a = a.saturating_add(f);
    }
}

/// Deletes coded bits according to a [`CodeRate`] mask.
///
/// # Example
///
/// ```
/// use wilis_fec::{CodeRate, Depuncturer, Puncturer};
///
/// let p = Puncturer::new(CodeRate::ThreeQuarters);
/// let coded: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
/// let tx = p.puncture(&coded);
/// assert_eq!(tx.len(), 8, "3/4 keeps 4 of every 6");
///
/// let d = Depuncturer::new(CodeRate::ThreeQuarters);
/// let llrs: Vec<i32> = tx.iter().map(|&b| if b == 1 { 5 } else { -5 }).collect();
/// let rx = d.depuncture(&llrs, 12);
/// assert_eq!(rx.len(), 12);
/// assert_eq!(rx.iter().filter(|&&l| l == 0).count(), 4, "erasures are neutral");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Puncturer {
    rate: CodeRate,
    phase: usize,
}

impl Puncturer {
    /// A puncturer for `rate` at phase 0 (the standard 802.11a pattern).
    pub fn new(rate: CodeRate) -> Self {
        Self::with_phase(rate, 0)
    }

    /// A puncturer whose keep-mask is rotated left by `phase` positions:
    /// mother bit `i` is kept iff `mask[(i + phase) % period] == 1`.
    ///
    /// Phase rotation is the incremental-redundancy mechanism: each HARQ
    /// retransmission sends a *different* subset of the mother-code bits,
    /// so the union across attempts covers more of the mother block and
    /// the combined effective code rate drops. Over whole mask periods a
    /// rotation keeps exactly as many bits as phase 0, so the transmitted
    /// symbol geometry is phase-invariant.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is not within the mask period.
    pub fn with_phase(rate: CodeRate, phase: usize) -> Self {
        assert!(
            phase < rate.mask().len(),
            "phase {phase} outside the {rate} mask period ({})",
            rate.mask().len()
        );
        Self { rate, phase }
    }

    /// The mask phase this puncturer applies.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Removes masked-out bits from a mother-coded stream, appending the
    /// survivors to `out` (the allocation-free hot-path form).
    pub fn puncture_into<T: Copy>(&self, coded: &[T], out: &mut Vec<T>) {
        let mask = self.rate.mask();
        out.reserve(self.punctured_len(coded.len()));
        for (i, &b) in coded.iter().enumerate() {
            if mask[(i + self.phase) % mask.len()] == 1 {
                out.push(b);
            }
        }
    }

    /// Removes masked-out bits from a mother-coded stream.
    pub fn puncture<T: Copy>(&self, coded: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        self.puncture_into(coded, &mut out);
        out
    }

    /// Number of transmitted bits for `mother_len` mother-coded bits.
    pub fn punctured_len(&self, mother_len: usize) -> usize {
        let mask = self.rate.mask();
        let kept_per_period: usize = mask.iter().map(|&m| m as usize).sum();
        let full = mother_len / mask.len();
        let rem = mother_len % mask.len();
        let tail: usize = (0..rem)
            .map(|i| mask[(i + self.phase) % mask.len()] as usize)
            .sum();
        full * kept_per_period + tail
    }
}

/// Restores the mother-code geometry by inserting zero-LLR erasures where
/// bits were punctured. An erased position is metric-neutral in the BMU,
/// which is exactly how the hardware treats stolen bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Depuncturer {
    rate: CodeRate,
    phase: usize,
}

impl Depuncturer {
    /// A depuncturer for `rate` at phase 0 (the standard 802.11a pattern).
    pub fn new(rate: CodeRate) -> Self {
        Self::with_phase(rate, 0)
    }

    /// A depuncturer matching [`Puncturer::with_phase`]: erasures land on
    /// the positions the rotated mask stole.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is not within the mask period.
    pub fn with_phase(rate: CodeRate, phase: usize) -> Self {
        assert!(
            phase < rate.mask().len(),
            "phase {phase} outside the {rate} mask period ({})",
            rate.mask().len()
        );
        Self { rate, phase }
    }

    /// The mask phase this depuncturer expects.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Expands received soft values back to `mother_len` positions.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` does not match the number of transmitted bits
    /// implied by `mother_len`.
    pub fn depuncture(&self, llrs: &[Llr], mother_len: usize) -> Vec<Llr> {
        let mut out = Vec::with_capacity(mother_len);
        self.depuncture_into(llrs, mother_len, &mut out);
        out
    }

    /// Expands received soft values back to `mother_len` positions,
    /// appending to `out` (the allocation-free form):
    /// [`Depuncturer::depuncture_lanes_into`] at one lane.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` does not match the number of transmitted bits
    /// implied by `mother_len`.
    pub fn depuncture_into(&self, llrs: &[Llr], mother_len: usize, out: &mut Vec<Llr>) {
        self.depuncture_lanes_into(llrs, 1, mother_len, out);
    }

    /// Expands `lanes` interlaced punctured streams (soft value `i` of
    /// lane `l` at `llrs[i * lanes + l]`) to the `mother_len`-row
    /// lane-major mother stream, appended to `out`. The puncturing
    /// pattern depends on position, not value, so every lane shares the
    /// same erasure rows and whole rows copy at once.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=`[`crate::MAX_BATCH_LANES`] or `llrs.len()`
    /// does not match the transmitted-bit count implied by `mother_len`
    /// times `lanes`.
    pub fn depuncture_lanes_into(
        &self,
        llrs: &[Llr],
        lanes: usize,
        mother_len: usize,
        out: &mut Vec<Llr>,
    ) {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane count {lanes} outside 1..={MAX_LANES}"
        );
        let expect = Puncturer::with_phase(self.rate, self.phase).punctured_len(mother_len);
        assert_eq!(
            llrs.len(),
            expect * lanes,
            "received {} soft values, expected {expect} x {lanes} lanes for \
             {mother_len} mother bits",
            llrs.len()
        );
        let start = out.len();
        // Fresh rows are zero: every erasure row is already in place.
        out.resize(start + mother_len * lanes, 0);
        let (mask, mother) = (self.rate.mask(), &mut out[start..]);
        dispatch_lanes!(lanes, depuncture_lanes(mask, self.phase, llrs, mother));
    }
}

/// The one depuncture body, at `L` lanes: copies each kept row of `llrs`
/// into its place in the zeroed lane-major `mother` plane.
fn depuncture_lanes<const L: usize>(mask: &[u8], phase: usize, llrs: &[Llr], mother: &mut [Llr]) {
    let kept = mother
        .chunks_exact_mut(L)
        .zip(mask.iter().cycle().skip(phase))
        .filter(|&(_, &keep)| keep == 1);
    for ((dst, _), src) in kept.zip(llrs.chunks_exact(L)) {
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_rate_is_identity() {
        let p = Puncturer::new(CodeRate::Half);
        let bits = [1u8, 0, 1, 1, 0];
        assert_eq!(p.puncture(&bits), bits);
        let d = Depuncturer::new(CodeRate::Half);
        let llrs = [5, -5, 5, 5, -5];
        assert_eq!(d.depuncture(&llrs, 5), llrs);
    }

    #[test]
    fn two_thirds_drops_every_fourth() {
        let p = Puncturer::new(CodeRate::TwoThirds);
        let bits: Vec<u8> = (0..8).map(|i| i as u8 % 2).collect();
        // indices kept: 0 1 2, 4 5 6
        assert_eq!(p.puncture(&bits), vec![0, 1, 0, 0, 1, 0]);
        assert_eq!(p.punctured_len(8), 6);
    }

    #[test]
    fn roundtrip_restores_geometry() {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let p = Puncturer::new(rate);
            let d = Depuncturer::new(rate);
            let mother: Vec<Llr> = (1..=24).collect();
            let tx = p.puncture(&mother);
            let rx = d.depuncture(&tx, mother.len());
            assert_eq!(rx.len(), mother.len());
            for (i, (&orig, &got)) in mother.iter().zip(&rx).enumerate() {
                let kept = rate.mask()[i % rate.mask().len()] == 1;
                if kept {
                    assert_eq!(got, orig, "kept bit {i} altered");
                } else {
                    assert_eq!(got, 0, "stolen bit {i} must be erased");
                }
            }
        }
    }

    /// The lane body against the expansion written out: each lane's kept
    /// mother values in place, zero where the rotated mask stole a bit,
    /// appended after what `out` already held.
    #[test]
    fn lane_major_depuncture_matches_per_lane_scalar() {
        let mother_len = 24;
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let period = rate.mask().len();
            for phase in 0..period {
                let p = Puncturer::with_phase(rate, phase);
                let d = Depuncturer::with_phase(rate, phase);
                for lanes in 1..=crate::MAX_BATCH_LANES {
                    let mothers: Vec<Vec<Llr>> = (0..lanes)
                        .map(|l| {
                            (0..mother_len)
                                .map(|i| (i as Llr + 1) * (l as Llr + 1))
                                .collect()
                        })
                        .collect();
                    let lane_tx: Vec<Vec<Llr>> = mothers.iter().map(|m| p.puncture(m)).collect();
                    let mut soa = Vec::new();
                    for i in 0..lane_tx[0].len() {
                        for lane in &lane_tx {
                            soa.push(lane[i]);
                        }
                    }
                    let mut got = vec![-9];
                    d.depuncture_lanes_into(&soa, lanes, mother_len, &mut got);
                    assert_eq!(got.len(), 1 + mother_len * lanes);
                    assert_eq!(got[0], -9, "the call appends");
                    for (l, mother) in mothers.iter().enumerate() {
                        let want: Vec<Llr> = mother
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| {
                                if rate.mask()[(i + phase) % period] == 1 {
                                    v
                                } else {
                                    0
                                }
                            })
                            .collect();
                        let gathered: Vec<Llr> =
                            got[1..].chunks_exact(lanes).map(|row| row[l]).collect();
                        assert_eq!(gathered, want, "{rate} phase {phase} lane {l} of {lanes}");
                    }
                }
            }
        }
    }

    #[test]
    fn punctured_len_handles_partial_periods() {
        let p = Puncturer::new(CodeRate::ThreeQuarters);
        for len in 0..30 {
            let bits = vec![0u8; len];
            assert_eq!(p.puncture(&bits).len(), p.punctured_len(len), "len {len}");
        }
    }

    #[test]
    fn rates_have_correct_values() {
        assert_eq!(CodeRate::Half.value(), 0.5);
        assert!((CodeRate::TwoThirds.value() - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(CodeRate::ThreeQuarters.value(), 0.75);
        assert_eq!(CodeRate::ThreeQuarters.to_string(), "3/4");
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn wrong_length_panics() {
        let d = Depuncturer::new(CodeRate::TwoThirds);
        let _ = d.depuncture(&[1, 2, 3], 8);
    }

    #[test]
    fn phase_zero_matches_unphased() {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let mother: Vec<Llr> = (1..=24).collect();
            assert_eq!(
                Puncturer::with_phase(rate, 0).puncture(&mother),
                Puncturer::new(rate).puncture(&mother),
            );
        }
    }

    #[test]
    fn rotation_preserves_kept_count_over_whole_periods() {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let period = rate.mask().len();
            for phase in 0..period {
                let p = Puncturer::with_phase(rate, phase);
                for periods in [1usize, 3, 7] {
                    assert_eq!(
                        p.punctured_len(periods * period),
                        Puncturer::new(rate).punctured_len(periods * period),
                        "{rate} phase {phase}"
                    );
                }
            }
        }
    }

    #[test]
    fn rotated_roundtrip_restores_geometry() {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let period = rate.mask().len();
            for phase in 0..period {
                let p = Puncturer::with_phase(rate, phase);
                let d = Depuncturer::with_phase(rate, phase);
                let mother: Vec<Llr> = (1..=24).collect();
                let tx = p.puncture(&mother);
                let rx = d.depuncture(&tx, mother.len());
                for (i, (&orig, &got)) in mother.iter().zip(&rx).enumerate() {
                    let kept = rate.mask()[(i + phase) % period] == 1;
                    if kept {
                        assert_eq!(got, orig, "{rate} phase {phase} kept bit {i}");
                    } else {
                        assert_eq!(got, 0, "{rate} phase {phase} stolen bit {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn rotated_punctured_len_handles_partial_periods() {
        for rate in [CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            for phase in 0..rate.mask().len() {
                let p = Puncturer::with_phase(rate, phase);
                for len in 0..30 {
                    let bits = vec![0u8; len];
                    assert_eq!(
                        p.puncture(&bits).len(),
                        p.punctured_len(len),
                        "{rate} phase {phase} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn ir_phase_union_lowers_effective_rate() {
        // The default 3/4 IR schedule {0, 3} covers every mother position:
        // mask 1 1 1 0 0 1 rotated by 3 is 0 0 1 1 1 1 — together rate 1/2.
        let rate = CodeRate::ThreeQuarters;
        let period = rate.mask().len();
        let covered: Vec<bool> = (0..period)
            .map(|i| {
                [0usize, 3]
                    .iter()
                    .any(|&ph| rate.mask()[(i + ph) % period] == 1)
            })
            .collect();
        assert!(
            covered.iter().all(|&c| c),
            "phases 0+3 cover all of the 3/4 mask"
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn phase_beyond_period_panics() {
        let _ = Puncturer::with_phase(CodeRate::TwoThirds, 4);
    }

    #[test]
    fn combine_llrs_saturates_at_the_rails() {
        let mut acc = vec![i32::MAX - 1, i32::MIN + 1, 10, -10];
        combine_llrs_into(&mut acc, &[5, -5, 7, -7]);
        assert_eq!(acc, vec![i32::MAX, i32::MIN, 17, -17]);
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn combine_llrs_rejects_mismatched_planes() {
        let mut acc = vec![1, 2, 3];
        combine_llrs_into(&mut acc, &[1, 2]);
    }
}
