//! The 802.11a two-permutation block interleaver (per OFDM symbol).
//!
//! This is the paper's "avoidance of bursty errors by shuffling bits" (§1):
//! the first permutation spreads adjacent coded bits across non-adjacent
//! subcarriers; the second alternates them between more- and
//! less-significant constellation bit positions so that runs of low
//! reliability do not land on one codeword neighborhood.
//!
//! The receiver deinterleaves a whole packet in one lane-major body,
//! compiled per lane count, which solo receives run at one lane. The
//! per-symbol [`Deinterleaver::deinterleave_append`] is what the frozen
//! reference receive path accumulates with, and what the lane body is
//! checked against.

use std::sync::OnceLock;

use wilis_fec::Llr;

use crate::rate::PhyRate;

/// The permutation of one symbol at `rate`, built once per process. It
/// depends only on the modulation, so four tables serve all eight rates,
/// shared by every interleaver and deinterleaver (and sweep worker).
fn permutation(rate: PhyRate) -> &'static [usize] {
    static TABLES: [OnceLock<Vec<usize>>; 4] = [const { OnceLock::new() }; 4];
    TABLES[rate.modulation() as usize].get_or_init(|| {
        let n_cbps = rate.coded_bits_per_symbol();
        let bpsc = rate.modulation().bits_per_symbol();
        let s = (bpsc / 2).max(1);
        (0..n_cbps)
            .map(|k| {
                // IEEE 802.11-2007 §17.3.5.6, interleaver permutations.
                let i = (n_cbps / 16) * (k % 16) + k / 16;
                (s * (i / s)) + (i + n_cbps - (16 * i / n_cbps)) % s
            })
            .collect()
    })
}

/// Interleaves the coded bits of one OFDM symbol.
///
/// # Example
///
/// ```
/// use wilis_phy::{Deinterleaver, Interleaver, PhyRate};
///
/// let rate = PhyRate::Qam16Half;
/// let bits: Vec<u8> = (0..rate.coded_bits_per_symbol()).map(|i| (i % 2) as u8).collect();
/// let tx = Interleaver::new(rate).interleave(&bits);
/// let llrs: Vec<i32> = tx.iter().map(|&b| if b == 1 { 3 } else { -3 }).collect();
/// let rx = Deinterleaver::new(rate).deinterleave(&llrs);
/// for (orig, soft) in bits.iter().zip(&rx) {
///     assert_eq!(*orig == 1, *soft > 0);
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Interleaver {
    rate: PhyRate,
    /// `perm[k]` = position after interleaving of input bit `k`.
    perm: &'static [usize],
}

impl Interleaver {
    /// An interleaver for one symbol of `rate`; allocation-free once the
    /// process has built the rate's shared permutation.
    pub fn new(rate: PhyRate) -> Self {
        Self {
            rate,
            perm: permutation(rate),
        }
    }

    /// Permutes exactly one symbol's worth of coded bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not the rate's coded bits per symbol.
    pub fn interleave<T: Copy + Default>(&self, bits: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        self.interleave_into(bits, &mut out);
        out
    }

    /// Permutes one symbol's worth of coded bits into `out`, reusing its
    /// capacity (the allocation-free hot-path form).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not the rate's coded bits per symbol.
    pub fn interleave_into<T: Copy + Default>(&self, bits: &[T], out: &mut Vec<T>) {
        assert_eq!(
            bits.len(),
            self.rate.coded_bits_per_symbol(),
            "interleaver operates on exactly one OFDM symbol"
        );
        out.clear();
        out.resize(bits.len(), T::default());
        for (k, &b) in bits.iter().enumerate() {
            out[self.perm[k]] = b;
        }
    }
}

/// Inverts the per-symbol interleaver (operating on soft values at the
/// receiver).
#[derive(Debug, Clone, Copy)]
pub struct Deinterleaver {
    rate: PhyRate,
    perm: &'static [usize],
}

impl Deinterleaver {
    /// A deinterleaver for one symbol of `rate`; allocation-free once the
    /// process has built the rate's shared permutation.
    pub fn new(rate: PhyRate) -> Self {
        Self {
            rate,
            perm: permutation(rate),
        }
    }

    /// Restores transmission order for one symbol of soft values.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not the rate's coded bits per symbol.
    pub fn deinterleave(&self, llrs: &[Llr]) -> Vec<Llr> {
        let mut out = Vec::new();
        self.deinterleave_append(llrs, &mut out);
        out
    }

    /// Restores transmission order for one symbol of soft values,
    /// *appending* to `out` — packets deinterleave symbol by symbol into
    /// one stream, so the hot path accumulates rather than replaces.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not the rate's coded bits per symbol.
    pub fn deinterleave_append(&self, llrs: &[Llr], out: &mut Vec<Llr>) {
        assert_eq!(
            llrs.len(),
            self.rate.coded_bits_per_symbol(),
            "deinterleaver operates on exactly one OFDM symbol"
        );
        out.reserve(llrs.len());
        for &p in self.perm.iter() {
            out.push(llrs[p]);
        }
    }

    /// Restores transmission order for `lanes` interlaced packets of soft
    /// values in lockstep: soft bit `i` of lane `l` is `llrs[i * lanes + l]`,
    /// and the output keeps the same interlacing. One lane is a plain
    /// packet stream. The permutation is position-driven, so all lanes
    /// share each gather index and whole lane rows move at once — per
    /// lane this is exactly the symbol-by-symbol
    /// [`Deinterleaver::deinterleave_append`] accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=wilis_fec::MAX_BATCH_LANES` or
    /// `llrs.len()` is not a whole number of symbols times `lanes`.
    pub fn deinterleave_packet_lanes_into(&self, llrs: &[Llr], lanes: usize, out: &mut Vec<Llr>) {
        dispatch_lanes!(lanes, L => self.deinterleave_lanes::<L>(llrs, out));
    }

    /// The one deinterleave body, at `L` lanes.
    fn deinterleave_lanes<const L: usize>(&self, llrs: &[Llr], out: &mut Vec<Llr>) {
        let rows = self.rate.coded_bits_per_symbol() * L;
        assert_eq!(
            llrs.len() % rows,
            0,
            "deinterleaver operates on whole OFDM symbols in every lane"
        );
        out.resize(llrs.len(), 0);
        for (sym, dst) in llrs.chunks_exact(rows).zip(out.chunks_exact_mut(rows)) {
            for (row, &p) in dst.chunks_exact_mut(L).zip(self.perm.iter()) {
                row.copy_from_slice(&sym[p * L..(p + 1) * L]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_bijective_for_all_rates() {
        for rate in PhyRate::all() {
            let perm = permutation(rate);
            let mut seen = vec![false; perm.len()];
            for &p in perm {
                assert!(!seen[p], "{rate}: position {p} hit twice");
                seen[p] = true;
            }
        }
    }

    #[test]
    fn roundtrip_identity_for_all_rates() {
        for rate in PhyRate::all() {
            let n = rate.coded_bits_per_symbol();
            let bits: Vec<u8> = (0..n).map(|i| ((i * 31 + 7) % 2) as u8).collect();
            let inter = Interleaver::new(rate).interleave(&bits);
            let llrs: Vec<Llr> = inter.iter().map(|&b| if b == 1 { 1 } else { -1 }).collect();
            let deinter = Deinterleaver::new(rate).deinterleave(&llrs);
            let recovered: Vec<u8> = deinter.iter().map(|&l| u8::from(l > 0)).collect();
            assert_eq!(recovered, bits, "{rate}");
        }
    }

    /// The lane body equals the symbol-by-symbol accumulation of the
    /// reference path in every lane at every lane count.
    #[test]
    fn packet_forms_match_symbol_accumulation() {
        for rate in PhyRate::all() {
            let cbps = rate.coded_bits_per_symbol();
            let n_sym = 5;
            let llrs: Vec<Llr> = (0..n_sym * cbps).map(|i| i as Llr - 37).collect();
            let d = Deinterleaver::new(rate);
            let mut symbolwise = Vec::new();
            for sym in llrs.chunks_exact(cbps) {
                d.deinterleave_append(sym, &mut symbolwise);
            }
            for lanes in 1..=wilis_fec::MAX_BATCH_LANES {
                // Interlace `lanes` shifted copies, deinterleave in
                // lockstep, and expect each lane to match its own
                // accumulation.
                let mut soa = Vec::with_capacity(llrs.len() * lanes);
                for &v in &llrs {
                    for l in 0..lanes {
                        soa.push(v + 1000 * l as Llr);
                    }
                }
                let mut got = Vec::new();
                d.deinterleave_packet_lanes_into(&soa, lanes, &mut got);
                for l in 0..lanes {
                    let gathered: Vec<Llr> = got.chunks_exact(lanes).map(|row| row[l]).collect();
                    let want: Vec<Llr> = symbolwise.iter().map(|&v| v + 1000 * l as Llr).collect();
                    assert_eq!(gathered, want, "{rate}: lane {l} of {lanes}");
                }
            }
        }
    }

    #[test]
    fn adjacent_bits_spread_apart() {
        // The point of the first permutation: adjacent coded bits map to
        // distant interleaved positions (different subcarriers).
        let rate = PhyRate::Qam16Half;
        let perm = permutation(rate);
        let min_gap = perm
            .windows(2)
            .map(|w| (w[1] as i64 - w[0] as i64).unsigned_abs())
            .min()
            .unwrap();
        assert!(min_gap >= 4, "adjacent coded bits too close: gap {min_gap}");
    }

    #[test]
    fn known_bpsk_mapping() {
        // For BPSK (s=1) the second permutation is the identity, so
        // perm[k] = (NCBPS/16)(k mod 16) + floor(k/16) = 3*(k%16) + k/16.
        let perm = permutation(PhyRate::BpskHalf);
        for (k, &p) in perm.iter().enumerate() {
            assert_eq!(p, 3 * (k % 16) + k / 16);
        }
    }

    #[test]
    #[should_panic(expected = "exactly one OFDM symbol")]
    fn wrong_length_panics() {
        let _ = Interleaver::new(PhyRate::BpskHalf).interleave(&[0u8; 10]);
    }
}
