//! Precomputed front-end plans: the PHY analogue of
//! `wilis_fec::CompiledTrellis`.
//!
//! The OFDM front-end runs once per symbol per packet on every grid
//! point, so its per-call setup — trig for the twiddle recurrence,
//! bit-reversal index math, the data-subcarrier filter iterator and its
//! modulo per carrier — is pure overhead in the steady state. A plan
//! hoists all of it to construction time:
//!
//! * [`FftPlan`] — a bit-reversal permutation table plus per-stage
//!   twiddle tables, consumed by [`fft_with`]/[`ifft_with`]. The cached
//!   twiddles are generated by running the **exact same** `w *= wlen`
//!   recurrence [`crate::fft`]'s transform uses, so the planned butterflies
//!   reproduce the reference recurrence's rounding bit for bit.
//! * [`OfdmPlan`] — the 64-point layout of the 802.11 symbol lowered to
//!   flat index tables (data-carrier → FFT bin, pilot bins, guard bins)
//!   and precomputed scale constants, shared by every modulator and
//!   demodulator in the process.
//!
//! **Equivalence contract:** everything driven by a plan is bit-identical
//! to the frozen reference path (`crate::reference`); the differential
//! suite in `crates/phy/src/equiv_tests.rs` and the all-rates sweep in
//! `tests/phy_frontend_equiv.rs` are the enforcement arm, exactly as
//! `crates/fec/src/equiv_tests.rs` is for the trellis kernels.

use std::f64::consts::PI;
use std::sync::{Arc, OnceLock};

use wilis_fxp::Cplx;

use crate::ofdm::{bin_of, data_subcarriers, DATA_CARRIERS, FFT_LEN, PILOT_CARRIERS};

/// A compiled radix-2 FFT: bit-reversal table plus per-stage twiddle
/// tables for both transform directions.
///
/// One plan serves any number of concurrent callers (all methods take
/// `&self`); sweep workers share it via `Arc` the same way decoders share
/// a `CompiledTrellis`.
///
/// # Example
///
/// ```
/// use wilis_fxp::Cplx;
/// use wilis_phy::{fft, fft_with, FftPlan};
///
/// let plan = FftPlan::new(64);
/// let x: Vec<Cplx> = (0..64).map(|i| Cplx::new((i as f64).sin(), 0.0)).collect();
/// let mut planned = x.clone();
/// let mut reference = x;
/// fft_with(&plan, &mut planned);
/// fft(&mut reference);
/// assert_eq!(planned, reference); // bit-identical, not merely close
/// ```
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// `bitrev[i]` = bit-reversed index of `i`; the permutation pass swaps
    /// `(i, bitrev[i])` for `bitrev[i] > i`, exactly as the reference loop
    /// does with its per-call index math.
    bitrev: Vec<u32>,
    /// Forward (sign = −1) twiddles, stage-major: stage `len` contributes
    /// `len/2` entries, `len = 2, 4, …, n`, `n − 1` entries total.
    fwd: Vec<Cplx>,
    /// Inverse (sign = +1) twiddles, same layout.
    inv: Vec<Cplx>,
    /// The inverse transform's `1/N` normalization.
    inv_scale: f64,
}

impl FftPlan {
    /// Compiles the plan for an `n`-point transform.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let bits = n.trailing_zeros();
        // `bits == 0` (the 1-point identity transform) would shift by the
        // full word width; its permutation is trivially the identity.
        let bitrev = (0..n)
            .map(|i| {
                if bits == 0 {
                    i as u32
                } else {
                    ((i.reverse_bits() >> (usize::BITS - bits)) & (n - 1)) as u32
                }
            })
            .collect();
        Self {
            n,
            bitrev,
            fwd: Self::twiddles(n, -1.0),
            inv: Self::twiddles(n, 1.0),
            inv_scale: 1.0 / n as f64,
        }
    }

    /// Runs the reference transform's twiddle recurrence once per stage
    /// and caches every intermediate `w`. This loop is kept textually
    /// identical to the recurrence in `crate::fft` — the cached values
    /// must reproduce its accumulated rounding bit for bit, so resist the
    /// temptation to compute `w` from `from_polar` directly.
    fn twiddles(n: usize, sign: f64) -> Vec<Cplx> {
        let mut table = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * PI / len as f64;
            let wlen = Cplx::from_polar(1.0, ang);
            let mut w = Cplx::ONE;
            for _ in 0..len / 2 {
                table.push(w);
                w *= wlen;
            }
            len <<= 1;
        }
        table
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plan is for the degenerate 1-point transform.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// The butterfly passes over a cached twiddle table: the same
    /// operation sequence as the reference transform with the per-call
    /// index math and `w *= wlen` recurrence replaced by table reads.
    fn butterflies(&self, data: &mut [Cplx], twiddles: &[Cplx]) {
        assert_eq!(data.len(), self.n, "buffer length must match the plan");
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        self.stages::<1>(data, twiddles);
    }

    /// The butterfly stages over `L` transforms in lockstep, on input
    /// already in bit-reversed order (assembled at
    /// [`FftPlan::bitrev_of`] positions, or by [`FftPlan::gather`]), which
    /// is how the OFDM paths skip the swap pass. `data` is lane-major —
    /// `data[i * L + l]` is element `i` of lane `l` — so each butterfly
    /// touches one contiguous row per operand and the lane loop is the
    /// innermost, unit-stride axis the autovectorizer sees; at `L = 1` it
    /// is the plain in-place transform.
    ///
    /// Per lane this is the reference transform's exact operation
    /// sequence: stages in order, butterflies `k` ascending within each
    /// block and blocks ascending, the same cached twiddles. Every lane is
    /// therefore bit-identical to [`crate::fft`] of that lane. The
    /// split-slice iteration proves every access in range, so the loops
    /// compile without bounds checks.
    fn stages<const L: usize>(&self, data: &mut [Cplx], twiddles: &[Cplx]) {
        let n = self.n;
        assert_eq!(data.len(), n * L, "buffer length must match the plan");
        let mut half = 1;
        let mut offset = 0;
        while half < n {
            let stage = &twiddles[offset..offset + half];
            for block in data.chunks_exact_mut(2 * half * L) {
                let (lo, hi) = block.split_at_mut(half * L);
                for ((a_row, b_row), &w) in lo
                    .chunks_exact_mut(L)
                    .zip(hi.chunks_exact_mut(L))
                    .zip(stage)
                {
                    for (a_slot, b_slot) in a_row.iter_mut().zip(b_row.iter_mut()) {
                        let a = *a_slot;
                        let b = *b_slot * w;
                        *a_slot = a + b;
                        *b_slot = a - b;
                    }
                }
            }
            offset += half;
            half <<= 1;
        }
    }

    /// The bit-reversed position of index `i` — where a value must be
    /// assembled for the stage-only transforms to see it at `i`.
    pub(crate) fn bitrev_of(&self, i: usize) -> usize {
        self.bitrev[i] as usize
    }

    /// Fused copy + permutation of `L` lanes into one lane-major buffer:
    /// `dst[i * L + l] = src[l][bitrev(i)]`, exactly the arrangement the
    /// in-place swap pass produces, in one gather.
    pub(crate) fn gather<const L: usize>(&self, src: [&[Cplx]; L], dst: &mut [Cplx]) {
        assert!(
            src.iter().all(|lane| lane.len() == self.n),
            "source length must match the plan"
        );
        assert_eq!(dst.len(), self.n * L, "buffer length must match the plan");
        for (row, &j) in dst.chunks_exact_mut(L).zip(self.bitrev.iter()) {
            for (slot, lane) in row.iter_mut().zip(src) {
                *slot = lane[j as usize];
            }
        }
    }

    /// Forward transform of `L` already-bit-reversed lane-major buffers
    /// in lockstep (see [`FftPlan::stages`]).
    pub(crate) fn fft_stages<const L: usize>(&self, data: &mut [Cplx]) {
        self.stages::<L>(data, &self.fwd);
    }

    /// Inverse transform (with `1/N` normalization) of
    /// already-bit-reversed data.
    pub(crate) fn ifft_stages(&self, data: &mut [Cplx]) {
        self.stages::<1>(data, &self.inv);
        let scale = self.inv_scale;
        for v in data {
            *v = v.scale(scale);
        }
    }
}

/// Plan-driven forward DFT — bit-identical to [`crate::fft`].
///
/// # Panics
///
/// Panics if `data.len()` differs from the plan's length.
pub fn fft_with(plan: &FftPlan, data: &mut [Cplx]) {
    plan.butterflies(data, &plan.fwd);
}

/// Plan-driven inverse DFT with `1/N` normalization — bit-identical to
/// [`crate::ifft`].
///
/// # Panics
///
/// Panics if `data.len()` differs from the plan's length.
pub fn ifft_with(plan: &FftPlan, data: &mut [Cplx]) {
    plan.butterflies(data, &plan.inv);
    let scale = plan.inv_scale;
    for v in data {
        *v = v.scale(scale);
    }
}

/// The 802.11 OFDM symbol layout compiled to flat tables: which FFT bin
/// each data carrier and pilot occupies, which bins stay zero, and the
/// TX/RX scale constants — everything the per-symbol hot loops would
/// otherwise recompute per call.
#[derive(Debug)]
pub struct OfdmPlan {
    /// The shared 64-point FFT plan.
    fft: Arc<FftPlan>,
    /// FFT bin of each data carrier, in coded-bit fill order.
    data_bins: [usize; DATA_CARRIERS],
    /// The data and pilot bins composed with the FFT's bit-reversal: the
    /// modulator assembles the symbol directly in bit-reversed order and
    /// skips the transform's permutation pass outright. `guard_bins_rev`
    /// covers the bins that carry neither data nor pilots (DC and the
    /// guard band) — the modulator zeroes exactly those instead of
    /// wiping the buffer.
    data_bins_rev: [usize; DATA_CARRIERS],
    pilot_bins_rev: [usize; PILOT_CARRIERS.len()],
    guard_bins_rev: [usize; FFT_LEN - DATA_CARRIERS - PILOT_CARRIERS.len()],
    /// TX scaling applied to every time sample after the IFFT.
    tx_scale: f64,
    /// RX scaling applied to every recovered carrier after the FFT.
    rx_scale: f64,
}

impl OfdmPlan {
    /// Compiles the 64-point 802.11 symbol layout.
    pub fn new() -> Self {
        let mut data_bins = [0usize; DATA_CARRIERS];
        for (slot, k) in data_bins.iter_mut().zip(data_subcarriers()) {
            *slot = bin_of(k);
        }
        let mut pilot_bins = [0usize; PILOT_CARRIERS.len()];
        for (slot, &k) in pilot_bins.iter_mut().zip(PILOT_CARRIERS.iter()) {
            *slot = bin_of(k);
        }
        let mut used = [false; FFT_LEN];
        for &b in data_bins.iter().chain(pilot_bins.iter()) {
            used[b] = true;
        }
        let mut guard_bins = [0usize; FFT_LEN - DATA_CARRIERS - PILOT_CARRIERS.len()];
        let mut g = 0;
        for (b, &u) in used.iter().enumerate() {
            if !u {
                guard_bins[g] = b;
                g += 1;
            }
        }
        debug_assert_eq!(g, guard_bins.len());
        // The scale expressions are kept textually identical to the frozen
        // reference bodies so the constants are the same f64s.
        let tx_scale = (FFT_LEN as f64 / (DATA_CARRIERS + PILOT_CARRIERS.len()) as f64).sqrt()
            * (FFT_LEN as f64).sqrt();
        let rx_scale = 1.0
            / ((FFT_LEN as f64 / (DATA_CARRIERS + PILOT_CARRIERS.len()) as f64).sqrt()
                * (FFT_LEN as f64).sqrt());
        let fft = shared_fft();
        let mut data_bins_rev = data_bins;
        let mut pilot_bins_rev = pilot_bins;
        let mut guard_bins_rev = guard_bins;
        for b in data_bins_rev
            .iter_mut()
            .chain(pilot_bins_rev.iter_mut())
            .chain(guard_bins_rev.iter_mut())
        {
            *b = fft.bitrev_of(*b);
        }
        Self {
            fft,
            data_bins,
            data_bins_rev,
            pilot_bins_rev,
            guard_bins_rev,
            tx_scale,
            rx_scale,
        }
    }

    /// The process-wide shared plan: built once, `Arc`-cloned by every
    /// [`crate::OfdmModulator`]/[`crate::OfdmDemodulator`] — one table
    /// build serves all sweep workers, like the `CompiledTrellis` a
    /// `WilisSystem` shares across its decoder factories.
    pub fn shared() -> Arc<OfdmPlan> {
        static SHARED: OnceLock<Arc<OfdmPlan>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(OfdmPlan::new())))
    }

    /// The underlying 64-point FFT plan.
    pub fn fft(&self) -> &FftPlan {
        &self.fft
    }

    pub(crate) fn data_bins(&self) -> &[usize; DATA_CARRIERS] {
        &self.data_bins
    }

    pub(crate) fn data_bins_rev(&self) -> &[usize; DATA_CARRIERS] {
        &self.data_bins_rev
    }

    pub(crate) fn pilot_bins_rev(&self) -> &[usize; PILOT_CARRIERS.len()] {
        &self.pilot_bins_rev
    }

    pub(crate) fn guard_bins_rev(&self) -> &[usize] {
        &self.guard_bins_rev
    }

    pub(crate) fn tx_scale(&self) -> f64 {
        self.tx_scale
    }

    pub(crate) fn rx_scale(&self) -> f64 {
        self.rx_scale
    }
}

impl Default for OfdmPlan {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide 64-point FFT plan shared by every [`OfdmPlan`].
fn shared_fft() -> Arc<FftPlan> {
    static SHARED: OnceLock<Arc<FftPlan>> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| Arc::new(FftPlan::new(FFT_LEN))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twiddle_tables_have_stage_major_layout() {
        let plan = FftPlan::new(16);
        // Stages len = 2, 4, 8, 16 contribute 1 + 2 + 4 + 8 = 15 entries.
        assert_eq!(plan.fwd.len(), 15);
        assert_eq!(plan.inv.len(), 15);
        // Every stage starts at w = 1 exactly.
        for offset in [0usize, 1, 3, 7] {
            assert_eq!(plan.fwd[offset], Cplx::ONE);
            assert_eq!(plan.inv[offset], Cplx::ONE);
        }
    }

    #[test]
    fn one_point_plan_is_the_identity() {
        let plan = FftPlan::new(1);
        assert!(plan.is_empty());
        let mut x = vec![Cplx::new(2.5, -1.0)];
        fft_with(&plan, &mut x);
        assert_eq!(x[0], Cplx::new(2.5, -1.0));
        ifft_with(&plan, &mut x);
        assert_eq!(x[0], Cplx::new(2.5, -1.0));
    }

    #[test]
    fn bitrev_table_is_an_involution() {
        let plan = FftPlan::new(64);
        for i in 0..64usize {
            let j = plan.bitrev[i] as usize;
            assert_eq!(plan.bitrev[j] as usize, i);
        }
    }

    #[test]
    fn ofdm_plan_partitions_all_bins() {
        let plan = OfdmPlan::new();
        // Map the pilot and guard bins back through the (involutory)
        // bit-reversal so all three tables speak natural bin order.
        let natural = |rev: &[usize]| -> Vec<usize> {
            rev.iter().map(|&b| plan.fft().bitrev_of(b)).collect()
        };
        let pilot_bins = natural(plan.pilot_bins_rev());
        let guard_bins = natural(plan.guard_bins_rev());
        let mut seen = [0u32; FFT_LEN];
        for &b in plan.data_bins().iter() {
            seen[b] += 1;
        }
        for &b in &pilot_bins {
            seen[b] += 1;
        }
        for &b in &guard_bins {
            seen[b] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "bins must partition 0..64");
        // DC never carries data.
        assert!(guard_bins.contains(&0));
    }

    #[test]
    fn rev_tables_compose_bin_and_bit_reversal() {
        let plan = OfdmPlan::new();
        for (&b, &r) in plan.data_bins().iter().zip(plan.data_bins_rev().iter()) {
            assert_eq!(plan.fft().bitrev_of(b), r);
        }
        for (&k, &r) in PILOT_CARRIERS.iter().zip(plan.pilot_bins_rev().iter()) {
            assert_eq!(plan.fft().bitrev_of(bin_of(k)), r);
        }
    }

    #[test]
    fn shared_plan_is_one_allocation() {
        let a = OfdmPlan::shared();
        let b = OfdmPlan::shared();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_plan_panics() {
        let _ = FftPlan::new(48);
    }

    #[test]
    #[should_panic(expected = "must match the plan")]
    fn wrong_buffer_length_panics() {
        let plan = FftPlan::new(16);
        let mut x = vec![Cplx::ZERO; 8];
        fft_with(&plan, &mut x);
    }
}
