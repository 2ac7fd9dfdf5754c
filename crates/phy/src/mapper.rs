//! Gray-coded constellation mapping (802.11-2007 §17.3.5.7).
//!
//! The hot-path [`Mapper::map_into`] runs against a per-modulation
//! Gray-map lookup table (bit group → constellation point, built once per
//! process), bit-identical to the interpreted per-point reference body
//! frozen in [`crate::reference`] as `map_into_reference`.

use std::fmt;
use std::sync::OnceLock;

use wilis_fxp::Cplx;

/// A subcarrier modulation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Modulation {
    /// 1 bit per subcarrier.
    Bpsk,
    /// 2 bits per subcarrier.
    Qpsk,
    /// 4 bits per subcarrier.
    Qam16,
    /// 6 bits per subcarrier.
    Qam64,
}

impl Modulation {
    /// Coded bits carried per subcarrier (N_BPSC).
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// The normalization factor K_mod that gives unit average symbol
    /// energy: 1, 1/√2, 1/√10, 1/√42.
    pub fn kmod(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        }
    }

    /// Largest |coordinate| on the unnormalized (±1, ±3, …) grid.
    pub fn grid_max(self) -> f64 {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => 1.0,
            Modulation::Qam16 => 3.0,
            Modulation::Qam64 => 7.0,
        }
    }

    /// Bits per I/Q axis (0 for BPSK's imaginary axis).
    pub(crate) fn bits_per_axis(self) -> usize {
        match self {
            Modulation::Bpsk => 1, // all on I
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
        }
    }
}

impl fmt::Display for Modulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "QAM-16",
            Modulation::Qam64 => "QAM-64",
        };
        f.write_str(s)
    }
}

/// Gray map of one axis: `bits` (MSB first) to an odd-integer coordinate.
///
/// Table (802.11a): 1 bit: 0→−1, 1→+1; 2 bits: 00→−3, 01→−1, 11→+1,
/// 10→+3; 3 bits: 000→−7, 001→−5, 011→−3, 010→−1, 110→+1, 111→+3,
/// 101→+5, 100→+7.
pub(crate) fn gray_axis(bits: &[u8]) -> f64 {
    match bits {
        [b] => {
            if *b == 1 {
                1.0
            } else {
                -1.0
            }
        }
        [b0, b1] => {
            let mag = if *b1 == 1 { 1.0 } else { 3.0 };
            if *b0 == 1 {
                mag
            } else {
                -mag
            }
        }
        [b0, b1, b2] => {
            let mag = match (b1, b2) {
                (1, 0) => 1.0,
                (1, 1) => 3.0,
                (0, 1) => 5.0,
                (0, 0) => 7.0,
                _ => unreachable!("bits are 0/1"),
            };
            if *b0 == 1 {
                mag
            } else {
                -mag
            }
        }
        _ => unreachable!("1..=3 bits per axis"),
    }
}

/// The per-modulation Gray-map lookup table: entry `v` is the
/// constellation point for the `bits_per_symbol`-bit group whose MSB-first
/// value is `v`. Built once per process by running the frozen per-point
/// mapping over every bit pattern, so table entries are the reference
/// values bit for bit; shared by every `Mapper` (and sweep worker) for
/// that modulation.
pub(crate) fn map_table(modulation: Modulation) -> &'static [Cplx] {
    static TABLES: [OnceLock<Vec<Cplx>>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let slot = match modulation {
        Modulation::Bpsk => 0,
        Modulation::Qpsk => 1,
        Modulation::Qam16 => 2,
        Modulation::Qam64 => 3,
    };
    TABLES[slot].get_or_init(|| {
        let bps = modulation.bits_per_symbol();
        let k = modulation.kmod();
        let per_axis = modulation.bits_per_axis();
        (0..1usize << bps)
            .map(|v| {
                // lint: allow(no-alloc) — cold: the constellation table is built once per modulation under OnceLock
                let bits: Vec<u8> = (0..bps).map(|j| ((v >> (bps - 1 - j)) & 1) as u8).collect();
                if modulation == Modulation::Bpsk {
                    Cplx::new(gray_axis(&bits[..1]) * k, 0.0)
                } else {
                    let i = gray_axis(&bits[..per_axis]) * k;
                    let q = gray_axis(&bits[per_axis..]) * k;
                    Cplx::new(i, q)
                }
            })
            .collect() // lint: allow(no-alloc) — cold: the constellation table is built once per modulation under OnceLock
    })
}

/// Maps interleaved coded bits onto constellation points.
///
/// # Example
///
/// ```
/// use wilis_phy::{Mapper, Modulation};
///
/// let m = Mapper::new(Modulation::Qpsk);
/// let syms = m.map(&[1, 0, 0, 1]);
/// assert_eq!(syms.len(), 2);
/// // First symbol: I from bit 1 (+), Q from bit 0 (−).
/// assert!(syms[0].re > 0.0 && syms[0].im < 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapper {
    modulation: Modulation,
}

impl Mapper {
    /// A mapper for `modulation`.
    pub fn new(modulation: Modulation) -> Self {
        Self { modulation }
    }

    /// The modulation in use.
    pub fn modulation(self) -> Modulation {
        self.modulation
    }

    /// Maps a bit slice to symbols, `bits_per_symbol` bits each, I-axis
    /// bits first (MSB first per axis), then Q-axis bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `bits_per_symbol`.
    pub fn map(&self, bits: &[u8]) -> Vec<Cplx> {
        let mut out = Vec::new();
        self.map_into(bits, &mut out);
        out
    }

    /// Maps a bit slice to symbols into `out`, reusing its capacity (the
    /// allocation-free hot-path form). Table-driven; bit-identical to the
    /// frozen [`Mapper::map_into_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `bits_per_symbol`.
    pub fn map_into(&self, bits: &[u8], out: &mut Vec<Cplx>) {
        out.clear();
        self.map_append(bits, out);
    }

    /// [`Mapper::map_into`] without the clear — packets map symbol by
    /// symbol into one constellation stream, so the hot path accumulates.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `bits_per_symbol`.
    pub fn map_append(&self, bits: &[u8], out: &mut Vec<Cplx>) {
        let bps = self.modulation.bits_per_symbol();
        assert!(
            bits.len() % bps == 0,
            "bit count {} not a multiple of {bps}",
            bits.len()
        );
        debug_assert!(bits.iter().all(|&b| b <= 1), "inputs are bit slices");
        let table = map_table(self.modulation);
        // `extend` over exact-size iterators reserves once and skips the
        // per-push capacity checks. The bit-identity contract with the
        // reference body covers genuine 0/1 bit slices (debug-asserted
        // above); `b == 1` mirrors the reference's single-bit reading.
        if bps == 1 {
            out.extend(bits.iter().map(|&b| table[usize::from(b == 1)]));
        } else {
            out.extend(bits.chunks_exact(bps).map(|chunk| {
                let mut idx = 0usize;
                for &b in chunk {
                    idx = (idx << 1) | usize::from(b == 1);
                }
                table[idx]
            }));
        }
    }

    /// Average symbol energy of the full constellation — exactly 1.0 after
    /// K_mod normalization (used by tests and the SNR bookkeeping).
    pub fn average_energy(&self) -> f64 {
        let bps = self.modulation.bits_per_symbol();
        let count = 1usize << bps;
        (0..count)
            .map(|v| {
                let bits: Vec<u8> = (0..bps).map(|j| ((v >> (bps - 1 - j)) & 1) as u8).collect();
                self.map(&bits)[0].norm_sq()
            })
            .sum::<f64>()
            / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_constellations_have_unit_energy() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let e = Mapper::new(m).average_energy();
            assert!((e - 1.0).abs() < 1e-12, "{m}: energy {e}");
        }
    }

    #[test]
    fn gray_neighbors_differ_by_one_bit() {
        // Walk the 8 coordinates of the 64-QAM axis in spatial order; the
        // bit labels of adjacent points must differ in exactly one bit.
        let labels: [(u8, u8, u8); 8] = [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 1),
            (0, 1, 0),
            (1, 1, 0),
            (1, 1, 1),
            (1, 0, 1),
            (1, 0, 0),
        ];
        let coords: Vec<f64> = labels
            .iter()
            .map(|&(a, b, c)| gray_axis(&[a, b, c]))
            .collect();
        // Spatially ordered -7..=7:
        for (i, &c) in coords.iter().enumerate() {
            assert_eq!(c, -7.0 + 2.0 * i as f64);
        }
        for w in labels.windows(2) {
            let d = (w[0].0 ^ w[1].0) as u32 + (w[0].1 ^ w[1].1) as u32 + (w[0].2 ^ w[1].2) as u32;
            assert_eq!(d, 1, "not Gray: {:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn bpsk_is_real_axis_only() {
        let m = Mapper::new(Modulation::Bpsk);
        let syms = m.map(&[0, 1]);
        assert_eq!(syms[0], Cplx::new(-1.0, 0.0));
        assert_eq!(syms[1], Cplx::new(1.0, 0.0));
    }

    #[test]
    fn qam16_known_points() {
        let m = Mapper::new(Modulation::Qam16);
        let k = Modulation::Qam16.kmod();
        // bits (I: 1,0 Q: 0,1) -> I=+3k, Q=-1k
        let s = m.map(&[1, 0, 0, 1])[0];
        assert!((s.re - 3.0 * k).abs() < 1e-12);
        assert!((s.im + k).abs() < 1e-12);
    }

    #[test]
    fn distinct_inputs_distinct_points() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let mapper = Mapper::new(m);
            let bps = m.bits_per_symbol();
            let mut points = Vec::new();
            for v in 0..(1usize << bps) {
                let bits: Vec<u8> = (0..bps).map(|j| ((v >> (bps - 1 - j)) & 1) as u8).collect();
                points.push(mapper.map(&bits)[0]);
            }
            for i in 0..points.len() {
                for j in (i + 1)..points.len() {
                    assert!(
                        (points[i] - points[j]).norm() > 1e-9,
                        "{m}: duplicate constellation point"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_bits_panic() {
        let _ = Mapper::new(Modulation::Qam16).map(&[1, 0, 1]);
    }
}
