//! Randomized property tests across the baseband (deterministic,
//! self-seeded — the offline analog of a proptest suite).

use wilis_channel::{AwgnChannel, SnrDb};
use wilis_fxp::rng::SmallRng;

use crate::{PhyRate, Receiver, Transmitter};

fn rate_at(rng: &mut SmallRng) -> PhyRate {
    PhyRate::all()[rng.gen_i64(0, 7) as usize]
}

/// TX→RX is the identity on a clean channel for arbitrary payloads,
/// rates and scramble seeds.
#[test]
fn clean_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xB41);
    for _ in 0..24 {
        let rate = rate_at(&mut rng);
        let n = rng.gen_i64(1, 799) as usize;
        let payload: Vec<u8> = (0..n).map(|_| rng.gen_bit()).collect();
        let seed = rng.gen_i64(1, 0x7F) as u8;
        let tx = Transmitter::new(rate).transmit(&payload, seed);
        let got = Receiver::viterbi(rate).receive(&tx.samples, payload.len(), seed);
        assert_eq!(got.bit_errors(&payload), 0);
    }
}

/// At generously high SNR every decoder still delivers the payload.
#[test]
fn high_snr_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xB42);
    for _ in 0..8 {
        let rate = rate_at(&mut rng);
        let chan_seed = rng.next_u64();
        let payload: Vec<u8> = (0..500).map(|i| ((i * 7) % 2) as u8).collect();
        let tx = Transmitter::new(rate).transmit(&payload, 0x5D);
        let mut samples = tx.samples.clone();
        AwgnChannel::new(SnrDb::new(35.0), chan_seed).apply(&mut samples);
        for mut rx in [
            Receiver::viterbi(rate),
            Receiver::sova(rate),
            Receiver::bcjr(rate),
        ] {
            let got = rx.receive(&samples, payload.len(), 0x5D);
            assert_eq!(
                got.bit_errors(&payload),
                0,
                "{} at {}",
                got.decoder_id,
                rate
            );
        }
    }
}

/// The number of transmitted samples is exactly 80 per symbol and the
/// layout is consistent for any payload size.
#[test]
fn sample_accounting() {
    let mut rng = SmallRng::seed_from_u64(0xB43);
    for _ in 0..24 {
        let rate = rate_at(&mut rng);
        let n = rng.gen_i64(0, 4000) as usize;
        let payload: Vec<u8> = vec![1; n];
        let tx = Transmitter::new(rate).transmit(&payload, 0x5D);
        assert_eq!(tx.samples.len(), tx.fields.n_symbols * crate::SYMBOL_LEN);
        assert!(tx.fields.pad_bits < rate.data_bits_per_symbol());
        assert_eq!(tx.fields.data_bits() % rate.data_bits_per_symbol(), 0);
    }
}

/// Average transmitted sample power is near unity regardless of rate
/// (so the channel's SNR definition is rate-independent).
#[test]
fn unit_sample_power() {
    for rate in PhyRate::all() {
        let payload: Vec<u8> = (0..2000).map(|i| ((i * 31 + 1) % 2) as u8).collect();
        let tx = Transmitter::new(rate).transmit(&payload, 0x5D);
        let p: f64 = tx.samples.iter().map(|s| s.norm_sq()).sum::<f64>() / tx.samples.len() as f64;
        assert!((0.6..1.4).contains(&p), "{rate}: sample power {p}");
    }
}
