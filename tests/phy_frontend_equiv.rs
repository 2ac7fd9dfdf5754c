//! Packet-level front-end equivalence: the planned TX/RX chains
//! (`tx_into`/`rx_from` over `FftPlan`/`OfdmPlan` and the compiled
//! map/demap kernels) must reproduce the frozen reference chains
//! (`tx_into_reference`/`rx_from_reference`) **bit for bit** on all eight
//! `PhyRate`s — identical baseband samples on the air, identical LLR
//! streams into the decoder, identical `RxResult`s out of it. This is the
//! front-end analogue of `crates/fec/src/equiv_tests.rs`' packet sweep.

use wilis::channel::{AwgnChannel, SnrDb};
use wilis::fxp::rng::SmallRng;
use wilis::fxp::Cplx;
use wilis::phy::{
    Demapper, OfdmDemodulator, PhyRate, PhyScratch, Receiver, RxResult, SnrScaling, Transmitter,
    SYMBOL_LEN,
};

fn assert_samples_bit_identical(a: &[Cplx], b: &[Cplx], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: sample count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{ctx}: sample {i}: {x} vs {y}"
        );
    }
}

/// TX: planned samples equal reference samples bit for bit on every rate,
/// payload size, and scramble seed tried.
#[test]
fn tx_samples_bit_identical_on_all_rates() {
    let mut rng = SmallRng::seed_from_u64(0xFE_0001);
    for rate in PhyRate::all() {
        for round in 0..3 {
            let n = rng.gen_i64(1, 1800) as usize;
            let payload: Vec<u8> = (0..n).map(|_| rng.gen_bit()).collect();
            let seed = rng.gen_i64(1, 0x7F) as u8;
            let tx = Transmitter::new(rate);

            let mut planned_scratch = PhyScratch::new();
            let mut reference_scratch = PhyScratch::new();
            let mut planned = Vec::new();
            let mut reference = Vec::new();
            let pf = tx.tx_into(&payload, seed, &mut planned_scratch, &mut planned);
            let rf = tx.tx_into_reference(&payload, seed, &mut reference_scratch, &mut reference);
            assert_eq!(pf, rf, "{rate} round {round}: packet fields");
            assert_samples_bit_identical(&planned, &reference, &format!("{rate} round {round}"));
        }
    }
}

/// RX LLRs: on noisy samples, the planned demod→demap front-end produces
/// the exact LLR stream of the reference front-end on every rate — the
/// quantity the decoders consume.
#[test]
fn rx_llrs_bit_identical_on_all_rates() {
    let mut rng = SmallRng::seed_from_u64(0xFE_0002);
    for rate in PhyRate::all() {
        let payload: Vec<u8> = (0..600).map(|_| rng.gen_bit()).collect();
        let tx = Transmitter::new(rate).transmit(&payload, 0x5D);
        let mut samples = tx.samples.clone();
        // Noisy enough that LLRs take non-trivial values near every
        // piecewise boundary of the demapper.
        AwgnChannel::new(SnrDb::new(7.0), rng.next_u64()).apply(&mut samples);

        for demap_bits in [Receiver::hint_demapper_bits(rate.modulation()), 8] {
            let demapper = Demapper::new(rate.modulation(), demap_bits, SnrScaling::Off);
            let mut planned_demod = OfdmDemodulator::new();
            let mut reference_demod = OfdmDemodulator::new();
            let mut planned_carriers = Vec::new();
            let mut reference_carriers = Vec::new();
            let mut planned_llrs = Vec::new();
            let mut reference_llrs = Vec::new();
            let mut reference_all = Vec::new();

            planned_demod.demodulate_packet_batch_into(&[&samples], &mut planned_carriers);
            demapper.demap_into(&planned_carriers, &mut planned_llrs);
            for sym in samples.chunks_exact(SYMBOL_LEN) {
                reference_demod.demodulate_into_reference(sym, &mut reference_carriers);
                demapper.demap_into_reference(&reference_carriers, &mut reference_llrs);
                reference_all.extend_from_slice(&reference_llrs);
            }
            assert_eq!(
                planned_llrs, reference_all,
                "{rate} with {demap_bits}-bit demapper: LLR stream diverged"
            );
        }
    }
}

/// End to end: `rx_from` equals `rx_from_reference` — payload decisions,
/// SoftPHY hints, and soft magnitudes — for every rate and every stock
/// decoder, on noisy packets with real bit errors in play.
#[test]
fn rx_results_bit_identical_on_all_rates_and_decoders() {
    let mut rng = SmallRng::seed_from_u64(0xFE_0003);
    for rate in PhyRate::all() {
        let payload: Vec<u8> = (0..500).map(|_| rng.gen_bit()).collect();
        let tx = Transmitter::new(rate).transmit(&payload, 0x5D);
        let mut samples = tx.samples.clone();
        AwgnChannel::new(SnrDb::new(9.0), rng.next_u64()).apply(&mut samples);

        for mut rx in [
            Receiver::viterbi(rate),
            Receiver::sova(rate),
            Receiver::bcjr(rate),
        ] {
            let mut planned_scratch = PhyScratch::new();
            let mut reference_scratch = PhyScratch::new();
            let mut planned = RxResult::default();
            let mut reference = RxResult::default();
            rx.rx_from(
                &samples,
                payload.len(),
                0x5D,
                &mut planned_scratch,
                &mut planned,
            );
            rx.rx_from_reference(
                &samples,
                payload.len(),
                0x5D,
                &mut reference_scratch,
                &mut reference,
            );
            assert_eq!(planned.payload, reference.payload, "{rate}: payload");
            assert_eq!(planned.hints, reference.hints, "{rate}: hints");
            assert_eq!(
                planned.soft_magnitudes, reference.soft_magnitudes,
                "{rate}: soft magnitudes"
            );
            assert_eq!(planned.decoder_id, reference.decoder_id);
        }
    }
}

/// Scratch reuse across packets and rates (the scenario engine's steady
/// state) keeps the two paths in lockstep: one scratch per path, rates
/// interleaved, packets back to back.
#[test]
fn scratch_reuse_across_rates_stays_equivalent() {
    let mut rng = SmallRng::seed_from_u64(0xFE_0004);
    let mut planned_scratch = PhyScratch::new();
    let mut reference_scratch = PhyScratch::new();
    let mut planned = Vec::new();
    let mut reference = Vec::new();
    for round in 0..12 {
        let rate = PhyRate::all()[rng.gen_i64(0, 7) as usize];
        let n = rng.gen_i64(1, 900) as usize;
        let payload: Vec<u8> = (0..n).map(|_| rng.gen_bit()).collect();
        let seed = rng.gen_i64(1, 0x7F) as u8;
        let tx = Transmitter::new(rate);
        tx.tx_into(&payload, seed, &mut planned_scratch, &mut planned);
        tx.tx_into_reference(&payload, seed, &mut reference_scratch, &mut reference);
        assert_samples_bit_identical(
            &planned,
            &reference,
            &format!("round {round} {rate} ({n} bits)"),
        );
    }
}
