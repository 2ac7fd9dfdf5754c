//! PPDU framing: field layout, scrambling, padding and termination.
//!
//! Layout note: 802.11a orders the DATA field `SERVICE | PSDU | TAIL |
//! PAD`. We place the pad *before* the tail (`SERVICE | PSDU | PAD |
//! TAIL`) so that the convolutional code of the whole field terminates in
//! state zero, which is the invariant the decoders' terminated mode needs.
//! The pad carries no information either way; the reordering is recorded
//! here and in DESIGN.md and has no effect on any reproduced experiment.

use crate::rate::PhyRate;
use crate::scrambler::Scrambler;

/// Number of SERVICE bits prepended to the payload (all zero; they give
/// the receiver's descrambler its reference).
pub const SERVICE_BITS: usize = 16;
/// Number of tail bits that flush the convolutional encoder.
pub const TAIL_BITS: usize = 6;

/// The computed layout of one packet's DATA field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketFields {
    /// PHY rate the packet is sent at.
    pub rate: PhyRate,
    /// Payload (PSDU) length in bits.
    pub payload_bits: usize,
    /// Pad bits inserted to fill the last OFDM symbol.
    pub pad_bits: usize,
    /// OFDM symbols in the DATA portion.
    pub n_symbols: usize,
}

impl PacketFields {
    /// Computes the layout for a payload of `payload_bits` at `rate`.
    pub fn for_payload(rate: PhyRate, payload_bits: usize) -> Self {
        let dbps = rate.data_bits_per_symbol();
        let raw = SERVICE_BITS + payload_bits + TAIL_BITS;
        let n_symbols = raw.div_ceil(dbps);
        let pad_bits = n_symbols * dbps - raw;
        Self {
            rate,
            payload_bits,
            pad_bits,
            n_symbols,
        }
    }

    /// Total data-field bits: service + payload + pad + tail.
    pub fn data_bits(&self) -> usize {
        SERVICE_BITS + self.payload_bits + self.pad_bits + TAIL_BITS
    }

    /// Scrambled bits (everything except the tail).
    pub fn scrambled_bits(&self) -> usize {
        self.data_bits() - TAIL_BITS
    }

    /// Coded (post-puncturing) bits across the whole packet.
    pub fn coded_bits(&self) -> usize {
        self.n_symbols * self.rate.coded_bits_per_symbol()
    }
}

/// Assembles the bit-level DATA field: service, payload, pad, scrambling,
/// and tail insertion.
///
/// # Example
///
/// ```
/// use wilis_phy::{PacketBuilder, PhyRate};
///
/// let builder = PacketBuilder::new(PhyRate::QpskHalf);
/// let payload = vec![1u8; 100];
/// let (bits, fields) = builder.assemble(&payload, 0x5D);
/// assert_eq!(bits.len(), fields.data_bits());
/// assert_eq!(fields.n_symbols, (16 + 100 + 6 + 47) / 48);
/// // The last six bits are the (unscrambled) tail.
/// assert!(bits[bits.len() - 6..].iter().all(|&b| b == 0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PacketBuilder {
    rate: PhyRate,
}

impl PacketBuilder {
    /// A builder for packets at `rate`.
    pub fn new(rate: PhyRate) -> Self {
        Self { rate }
    }

    /// Builds the scrambled DATA-field bits for `payload`, returning the
    /// bits and the computed layout.
    ///
    /// # Panics
    ///
    /// Panics if any payload value is not 0 or 1, or the scramble seed is
    /// invalid (see [`Scrambler::new`]).
    pub fn assemble(&self, payload: &[u8], scramble_seed: u8) -> (Vec<u8>, PacketFields) {
        let mut bits = Vec::new();
        let fields = self.assemble_into(payload, scramble_seed, &mut bits);
        (bits, fields)
    }

    /// Builds the scrambled DATA-field bits into `bits`, reusing its
    /// capacity (the allocation-free hot-path form), and returns the
    /// computed layout.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PacketBuilder::assemble`].
    pub fn assemble_into(
        &self,
        payload: &[u8],
        scramble_seed: u8,
        bits: &mut Vec<u8>,
    ) -> PacketFields {
        assert!(
            payload.iter().all(|&b| b < 2),
            "payload must be a bit slice"
        );
        let fields = PacketFields::for_payload(self.rate, payload.len());
        bits.clear();
        bits.reserve(fields.data_bits());
        bits.extend(std::iter::repeat(0u8).take(SERVICE_BITS));
        bits.extend_from_slice(payload);
        bits.extend(std::iter::repeat(0u8).take(fields.pad_bits));
        Scrambler::new(scramble_seed).scramble_in_place(bits);
        bits.extend(std::iter::repeat(0u8).take(TAIL_BITS));
        fields
    }

    /// Recovers the payload from decoded (still scrambled) data-field bits
    /// into `payload`, reusing its capacity.
    ///
    /// # Panics
    ///
    /// Panics if `decoded.len()` does not match the layout's scrambled
    /// region (the decoder strips the tail already).
    pub fn disassemble_into(
        &self,
        decoded: &[u8],
        fields: &PacketFields,
        scramble_seed: u8,
        payload: &mut Vec<u8>,
    ) {
        assert_eq!(
            decoded.len(),
            fields.scrambled_bits(),
            "decoded length mismatch"
        );
        // Descramble only what reaches the payload: the scrambler stream
        // must still be advanced over the SERVICE region to stay aligned.
        let mut scrambler = Scrambler::new(scramble_seed);
        payload.clear();
        payload.reserve(fields.payload_bits);
        for (i, &b) in decoded[..SERVICE_BITS + fields.payload_bits]
            .iter()
            .enumerate()
        {
            let clear = b ^ scrambler.next_bit();
            if i >= SERVICE_BITS {
                payload.push(clear);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_fills_symbols_exactly() {
        for rate in PhyRate::all() {
            for payload in [0usize, 1, 100, 1704, 12000] {
                let f = PacketFields::for_payload(rate, payload);
                assert_eq!(
                    f.data_bits() % rate.data_bits_per_symbol(),
                    0,
                    "{rate} payload {payload}"
                );
                assert!(f.pad_bits < rate.data_bits_per_symbol());
                assert_eq!(f.coded_bits(), f.n_symbols * rate.coded_bits_per_symbol());
            }
        }
    }

    #[test]
    fn paper_packet_size_1704_bits() {
        // Figure 6 uses 1704-bit packets at QAM-16 1/2 (96 data bits per
        // symbol): (16 + 1704 + 6) / 96 -> 18 symbols.
        let f = PacketFields::for_payload(PhyRate::Qam16Half, 1704);
        assert_eq!(f.n_symbols, 18);
    }

    #[test]
    fn assemble_disassemble_roundtrip() {
        let b = PacketBuilder::new(PhyRate::Qam16Half);
        let payload: Vec<u8> = (0..777).map(|i| ((i * 13) % 2) as u8).collect();
        let (bits, fields) = b.assemble(&payload, 0x2A);
        // Simulate a perfect decode: strip the tail, descramble.
        let decoded = &bits[..bits.len() - TAIL_BITS];
        let mut back = Vec::new();
        b.disassemble_into(decoded, &fields, 0x2A, &mut back);
        assert_eq!(back, payload);
    }

    #[test]
    fn tail_bits_are_zero_and_unscrambled() {
        let b = PacketBuilder::new(PhyRate::BpskHalf);
        let (bits, _) = b.assemble(&[1, 0, 1], 0x7F);
        assert!(bits[bits.len() - TAIL_BITS..].iter().all(|&x| x == 0));
    }

    #[test]
    fn different_seeds_scramble_differently() {
        let b = PacketBuilder::new(PhyRate::BpskHalf);
        let payload = vec![0u8; 64];
        let (a, _) = b.assemble(&payload, 0x01);
        let (c, _) = b.assemble(&payload, 0x55);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "bit slice")]
    fn byte_payload_rejected() {
        let b = PacketBuilder::new(PhyRate::BpskHalf);
        let _ = b.assemble(&[0xFF], 1);
    }
}
