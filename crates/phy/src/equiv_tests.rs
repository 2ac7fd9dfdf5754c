//! Planned-vs-reference front-end equivalence: the plan-driven FFT, the
//! table-driven OFDM paths, and the compiled map/demap kernels must
//! reproduce the frozen reference bodies (`crate::reference`) **bit for
//! bit** — identical `f64` sample bits, identical quantized LLRs — for
//! every modulation, width, and scaling mode. These tests are the
//! enforcement arm of the contract documented in [`crate::plan`], exactly
//! as `crates/fec/src/equiv_tests.rs` is for the trellis kernels. The
//! all-eight-`PhyRate` packet-level sweep lives in
//! `tests/phy_frontend_equiv.rs`.

use std::f64::consts::PI;

use wilis_fec::{BcjrDecoder, ConvCode, SoftDecoder, SovaDecoder, ViterbiDecoder, MAX_BATCH_LANES};
use wilis_fxp::rng::SmallRng;
use wilis_fxp::Cplx;

use crate::demapper::{Demapper, SnrScaling};
use crate::mapper::{Mapper, Modulation};
use crate::ofdm::{OfdmDemodulator, OfdmModulator, DATA_CARRIERS, SYMBOL_LEN};
use crate::pipeline::{PhyScratch, Receiver, RxResult, Transmitter};
use crate::plan::{fft_with, ifft_with, FftPlan};
use crate::rate::PhyRate;
use crate::{fft, ifft};

const MODULATIONS: [Modulation; 4] = [
    Modulation::Bpsk,
    Modulation::Qpsk,
    Modulation::Qam16,
    Modulation::Qam64,
];

fn random_cplx(rng: &mut SmallRng, mag: f64) -> Cplx {
    // Uniform box noise is all the differential tests need: any bit
    // pattern through both paths must agree, realistic or not.
    let re = rng.gen_i64(-1_000_000, 1_000_000) as f64 / 1_000_000.0 * mag;
    let im = rng.gen_i64(-1_000_000, 1_000_000) as f64 / 1_000_000.0 * mag;
    Cplx::new(re, im)
}

/// Exact f64-bit equality, with an index for diagnosis. `assert_eq!` on
/// `Cplx` would accept `-0.0 == 0.0`; the kernels must not even flip a
/// zero sign.
fn assert_bits_eq(a: &[Cplx], b: &[Cplx], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{ctx}: index {i}: {x} vs {y}"
        );
    }
}

/// The planned FFT reproduces the reference recurrence bit for bit, at
/// every size the OFDM path and the property sizes use.
#[test]
fn planned_fft_matches_reference_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_0001);
    for n in [16usize, 64, 256] {
        let plan = FftPlan::new(n);
        for round in 0..16 {
            let x: Vec<Cplx> = (0..n).map(|_| random_cplx(&mut rng, 4.0)).collect();
            let mut planned = x.clone();
            let mut reference = x;
            fft_with(&plan, &mut planned);
            fft(&mut reference);
            assert_bits_eq(&planned, &reference, &format!("fft n={n} round={round}"));

            ifft_with(&plan, &mut planned);
            ifft(&mut reference);
            assert_bits_eq(&planned, &reference, &format!("ifft n={n} round={round}"));
        }
    }
}

/// A naive O(N²) DFT pins the planned FFT to the transform definition
/// (not merely to the reference implementation) at N ∈ {16, 64, 256}.
#[test]
fn planned_fft_matches_naive_dft() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_0002);
    for n in [16usize, 64, 256] {
        let plan = FftPlan::new(n);
        let x: Vec<Cplx> = (0..n).map(|_| random_cplx(&mut rng, 2.0)).collect();

        // X[k] = Σ_t x[t] e^(−j2πkt/N)
        let naive: Vec<Cplx> = (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| x[t] * Cplx::from_polar(1.0, -2.0 * PI * (k * t) as f64 / n as f64))
                    .sum()
            })
            .collect();

        let mut planned = x.clone();
        fft_with(&plan, &mut planned);
        for (k, (p, d)) in planned.iter().zip(&naive).enumerate() {
            assert!(
                (*p - *d).norm() < 1e-8 * (n as f64),
                "n={n} bin {k}: planned {p} vs naive {d}"
            );
        }

        // And the inverse undoes it (definition check for ifft_with).
        let mut back = planned;
        ifft_with(&plan, &mut back);
        for (t, (a, b)) in back.iter().zip(&x).enumerate() {
            assert!((*a - *b).norm() < 1e-9, "n={n} sample {t}: {a} vs {b}");
        }
    }
}

/// Planned OFDM modulation reproduces the reference body bit for bit
/// across multi-symbol frames (pilot polarity advancing), including the
/// whole-packet streaming form.
#[test]
fn planned_ofdm_modulator_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_0003);
    for round in 0..8 {
        let n_sym = 1 + rng.gen_i64(0, 11) as usize;
        let carriers: Vec<Cplx> = (0..n_sym * DATA_CARRIERS)
            .map(|_| random_cplx(&mut rng, 1.5))
            .collect();

        let mut planned_mod = OfdmModulator::new();
        let mut packet_mod = OfdmModulator::new();
        let mut reference_mod = OfdmModulator::new();

        let mut planned = vec![Cplx::ZERO; n_sym * SYMBOL_LEN];
        let mut packet = vec![Cplx::ZERO; n_sym * SYMBOL_LEN];
        let mut reference = vec![Cplx::ZERO; n_sym * SYMBOL_LEN];

        packet_mod.modulate_packet_into(&carriers, &mut packet);
        for (s, data) in carriers.chunks_exact(DATA_CARRIERS).enumerate() {
            planned_mod.modulate_into(data, &mut planned[s * SYMBOL_LEN..(s + 1) * SYMBOL_LEN]);
            reference_mod.modulate_into_reference(
                data,
                &mut reference[s * SYMBOL_LEN..(s + 1) * SYMBOL_LEN],
            );
        }
        assert_bits_eq(&planned, &reference, &format!("modulate round={round}"));
        assert_bits_eq(
            &packet,
            &reference,
            &format!("modulate_packet round={round}"),
        );
    }
}

/// Planned OFDM demodulation of one packet (the lane body at one lane)
/// reproduces the reference body bit for bit, symbol by symbol.
#[test]
fn planned_ofdm_demodulator_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_0004);
    for round in 0..8 {
        let n_sym = 1 + rng.gen_i64(0, 11) as usize;
        // Arbitrary (even non-OFDM) sample buffers must agree too.
        let samples: Vec<Cplx> = (0..n_sym * SYMBOL_LEN)
            .map(|_| random_cplx(&mut rng, 2.0))
            .collect();

        let mut packet_demod = OfdmDemodulator::new();
        let mut reference_demod = OfdmDemodulator::new();

        let mut packet = Vec::new();
        packet_demod.demodulate_packet_batch_into(&[&samples], &mut packet);
        assert_eq!(packet.len(), n_sym * DATA_CARRIERS);

        let mut reference_sym = Vec::new();
        for (s, sym) in samples.chunks_exact(SYMBOL_LEN).enumerate() {
            reference_demod.demodulate_into_reference(sym, &mut reference_sym);
            assert_bits_eq(
                &packet[s * DATA_CARRIERS..(s + 1) * DATA_CARRIERS],
                &reference_sym,
                &format!("demodulate round={round} symbol={s}"),
            );
        }
    }
}

/// The Gray-map lookup table reproduces the interpreted mapper on every
/// bit pattern of every modulation — exhaustively, since the input space
/// is only 2^bits_per_symbol.
#[test]
fn table_mapper_matches_reference_exhaustively() {
    for m in MODULATIONS {
        let mapper = Mapper::new(m);
        let bps = m.bits_per_symbol();
        let mut planned = Vec::new();
        let mut reference = Vec::new();
        for v in 0..1usize << bps {
            let bits: Vec<u8> = (0..bps).map(|j| ((v >> (bps - 1 - j)) & 1) as u8).collect();
            mapper.map_into(&bits, &mut planned);
            mapper.map_into_reference(&bits, &mut reference);
            assert_bits_eq(&planned, &reference, &format!("{m} pattern {v:06b}"));
        }
    }
}

/// Multi-symbol bit streams through `map_append` equal the reference
/// chunk loop (the whole-packet TX streaming shape).
#[test]
fn map_append_streams_match_reference() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_0005);
    for m in MODULATIONS {
        let mapper = Mapper::new(m);
        let bps = m.bits_per_symbol();
        let bits: Vec<u8> = (0..bps * 257).map(|_| rng.gen_bit()).collect();
        let mut planned = Vec::new();
        for chunk in bits.chunks(bps * 16) {
            mapper.map_append(chunk, &mut planned);
        }
        let mut reference = Vec::new();
        mapper.map_into_reference(&bits, &mut reference);
        assert_bits_eq(&planned, &reference, &format!("{m} stream"));
    }
}

/// Interlaces per-lane streams into the lane-major layout the batch
/// kernels consume.
fn interleave_lanes<T: Copy>(lanes: &[Vec<T>]) -> Vec<T> {
    let n = lanes.len();
    let len = lanes[0].len();
    assert!(lanes.iter().all(|l| l.len() == len));
    let mut soa = Vec::with_capacity(n * len);
    for i in 0..len {
        for lane in lanes {
            soa.push(lane[i]);
        }
    }
    soa
}

/// The lane-major OFDM demodulator reproduces the frozen per-symbol
/// reference bit for bit in every lane, at every lane count it is
/// compiled for.
#[test]
fn batched_ofdm_demodulator_matches_scalar_per_lane() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_0007);
    for lanes in 1..=MAX_BATCH_LANES {
        let n_sym = 1 + rng.gen_i64(0, 7) as usize;
        let lane_samples: Vec<Vec<Cplx>> = (0..lanes)
            .map(|_| {
                (0..n_sym * SYMBOL_LEN)
                    .map(|_| random_cplx(&mut rng, 2.0))
                    .collect()
            })
            .collect();
        let refs: Vec<&[Cplx]> = lane_samples.iter().map(|v| v.as_slice()).collect();

        let mut batch_demod = OfdmDemodulator::new();
        let mut batch = Vec::new();
        batch_demod.demodulate_packet_batch_into(&refs, &mut batch);
        assert_eq!(batch.len(), n_sym * DATA_CARRIERS * lanes);

        let mut reference_demod = OfdmDemodulator::new();
        let mut reference_sym = Vec::new();
        for (l, lane) in lane_samples.iter().enumerate() {
            let mut reference = Vec::new();
            for sym in lane.chunks_exact(SYMBOL_LEN) {
                reference_demod.demodulate_into_reference(sym, &mut reference_sym);
                reference.extend_from_slice(&reference_sym);
            }
            let gathered: Vec<Cplx> = batch.chunks_exact(lanes).map(|row| row[l]).collect();
            assert_bits_eq(&gathered, &reference, &format!("lanes={lanes} lane={l}"));
        }
    }
}

/// The lane-major demap kernels reproduce the interpreted reference bit
/// for bit in every lane, for every modulation and lane count.
#[test]
fn batched_demap_matches_scalar_per_lane() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_0008);
    for m in MODULATIONS {
        let d = Demapper::new(m, 5, SnrScaling::Off);
        for lanes in 1..=MAX_BATCH_LANES {
            let lane_syms: Vec<Vec<Cplx>> = (0..lanes)
                .map(|_| (0..96).map(|_| random_cplx(&mut rng, 2.0)).collect())
                .collect();
            let soa = interleave_lanes(&lane_syms);
            let mut batch = Vec::new();
            d.demap_batch_into(&soa, lanes, &mut batch);
            for (l, lane) in lane_syms.iter().enumerate() {
                let mut reference = Vec::new();
                d.demap_into_reference(lane, &mut reference);
                let gathered: Vec<_> = batch.chunks_exact(lanes).map(|row| row[l]).collect();
                assert_eq!(gathered, reference, "{m} lanes={lanes} lane={l}");
            }
        }
    }
}

/// Noisy packets at `rate`, one per lane: per-lane payloads, seeds, and
/// noise all differ, and the noise is strong enough to flip decisions in
/// some lanes.
fn noisy_lanes(
    rng: &mut SmallRng,
    rate: PhyRate,
    lanes: usize,
    payload_bits: usize,
) -> (Vec<Vec<Cplx>>, Vec<u8>) {
    let mut lane_samples = Vec::with_capacity(lanes);
    let mut seeds = Vec::with_capacity(lanes);
    for l in 0..lanes {
        let payload: Vec<u8> = (0..payload_bits).map(|_| rng.gen_bit()).collect();
        let seed = (l % 127 + 1) as u8;
        let mut samples = Transmitter::new(rate).transmit(&payload, seed).samples;
        for s in samples.iter_mut() {
            *s += random_cplx(rng, 0.4);
        }
        lane_samples.push(samples);
        seeds.push(seed);
    }
    (lane_samples, seeds)
}

/// The full lane-major receive pipeline — OFDM, demap, deinterleave,
/// depuncture, and the decoders' lane kernels — reproduces the frozen
/// reference receive [`Receiver::rx_from_reference`] bit for bit in every
/// lane: payloads, hints, and soft magnitudes, on all eight rates, every
/// decoder, and every lane count the front end is compiled for.
#[test]
fn batched_rx_pipeline_matches_scalar_per_lane() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_000A);
    for rate in PhyRate::all() {
        for make_rx in [
            Receiver::viterbi as fn(PhyRate) -> Receiver,
            Receiver::sova,
            Receiver::bcjr,
        ] {
            for lanes in 1..=MAX_BATCH_LANES {
                let payload_bits = 3 + rng.gen_i64(0, 400) as usize;
                let (lane_samples, seeds) = noisy_lanes(&mut rng, rate, lanes, payload_bits);

                let mut batch_rx = make_rx(rate);
                let mut scratch = PhyScratch::new();
                let mut outs: Vec<RxResult> = vec![RxResult::default(); lanes];
                batch_rx.rx_batch_from(
                    &lane_samples,
                    payload_bits,
                    &seeds,
                    &mut scratch,
                    &mut outs,
                );

                let mut reference_rx = make_rx(rate);
                let mut reference_scratch = PhyScratch::new();
                let mut reference = RxResult::default();
                for l in 0..lanes {
                    reference_rx.rx_from_reference(
                        &lane_samples[l],
                        payload_bits,
                        seeds[l],
                        &mut reference_scratch,
                        &mut reference,
                    );
                    let ctx = format!("{rate} {} lanes={lanes} lane={l}", reference.decoder_id);
                    assert_eq!(outs[l].payload, reference.payload, "{ctx}: payload");
                    assert_eq!(outs[l].hints, reference.hints, "{ctx}: hints");
                    assert_eq!(
                        outs[l].soft_magnitudes, reference.soft_magnitudes,
                        "{ctx}: soft magnitudes"
                    );
                    assert_eq!(
                        outs[l].decoder_id, reference.decoder_id,
                        "{ctx}: decoder id"
                    );
                }
            }
        }
    }
}

/// [`Receiver::set_rate`] re-aims one receiver, decoder scratch and all,
/// at any rate: walked across all eight rates slowest first and fastest
/// first, at the 8-bit width and at each modulation's hint width, every
/// receive of noisy packets (solo and at three lanes) equals the receive
/// of a receiver built fresh for that rate, with a fresh scratch.
#[test]
fn set_rate_matches_a_fresh_receiver_at_every_rate() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_000C);
    let decoders: [fn() -> Box<dyn SoftDecoder>; 3] = [
        || Box::new(ViterbiDecoder::new(&ConvCode::ieee80211())),
        || Box::new(SovaDecoder::new(&ConvCode::ieee80211(), 64, 64)),
        || Box::new(BcjrDecoder::new(&ConvCode::ieee80211(), 64)),
    ];
    let widths: [fn(PhyRate) -> u32; 2] = [
        |_| 8,
        |rate| Receiver::hint_demapper_bits(rate.modulation()),
    ];
    let fresh = |rate: PhyRate, width: u32, decoder: fn() -> Box<dyn SoftDecoder>| {
        let demapper = Demapper::new(rate.modulation(), width, SnrScaling::Off);
        Receiver::new(rate, demapper, decoder())
    };
    let slowest_first = PhyRate::all();
    let mut fastest_first = PhyRate::all();
    fastest_first.reverse();
    for decoder in decoders {
        for width in widths {
            for walk in [slowest_first, fastest_first] {
                let mut walker = fresh(walk[0], width(walk[0]), decoder);
                let mut scratch = PhyScratch::new();
                for rate in walk {
                    walker.set_rate(rate, width(rate));
                    for lanes in [1, 3] {
                        let payload_bits = 3 + rng.gen_i64(0, 300) as usize;
                        let (lane_samples, seeds) =
                            noisy_lanes(&mut rng, rate, lanes, payload_bits);
                        let mut walked = vec![RxResult::default(); lanes];
                        let mut want = vec![RxResult::default(); lanes];
                        walker.rx_batch_from(
                            &lane_samples,
                            payload_bits,
                            &seeds,
                            &mut scratch,
                            &mut walked,
                        );
                        fresh(rate, width(rate), decoder).rx_batch_from(
                            &lane_samples,
                            payload_bits,
                            &seeds,
                            &mut PhyScratch::new(),
                            &mut want,
                        );
                        for (l, (got, want)) in walked.iter().zip(&want).enumerate() {
                            let ctx = format!("{rate} {} lane {l} of {lanes}", want.decoder_id);
                            assert_eq!(got.payload, want.payload, "{ctx}: payload");
                            assert_eq!(got.hints, want.hints, "{ctx}: hints");
                            assert_eq!(
                                got.soft_magnitudes, want.soft_magnitudes,
                                "{ctx}: soft magnitudes"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The front end is compiled for `1..=MAX_BATCH_LANES` lanes only; a
/// wider receive is refused rather than split.
#[test]
#[should_panic(expected = "lane count 9 outside 1..=8")]
fn batched_rx_pipeline_refuses_more_than_max_batch_lanes() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_000B);
    let rate = PhyRate::QpskHalf;
    let (lane_samples, seeds) = noisy_lanes(&mut rng, rate, MAX_BATCH_LANES + 1, 40);
    let mut outs = vec![RxResult::default(); MAX_BATCH_LANES + 1];
    Receiver::viterbi(rate).rx_batch_from(
        &lane_samples,
        40,
        &seeds,
        &mut PhyScratch::new(),
        &mut outs,
    );
}

/// The specialized demap kernels reproduce the interpreted reference for
/// every modulation, output width, and scaling mode, on noisy symbols
/// spanning clean points, boundary cases, and saturating outliers.
#[test]
fn specialized_demap_kernels_match_reference() {
    let mut rng = SmallRng::seed_from_u64(0x0FD1_0006);
    let scalings = [
        SnrScaling::Off,
        SnrScaling::ConstantLinear(4.0),
        SnrScaling::TrueLinear(12.5),
    ];
    for m in MODULATIONS {
        for bits in [3u32, 5, 8, 12, 28] {
            for scaling in scalings {
                let d = Demapper::new(m, bits, scaling);
                let mut symbols: Vec<Cplx> = (0..512).map(|_| random_cplx(&mut rng, 2.0)).collect();
                // Exact constellation points and outliers join the noise.
                let mapper = Mapper::new(m);
                let bps = m.bits_per_symbol();
                for v in 0..1usize << bps {
                    let pat: Vec<u8> = (0..bps).map(|j| ((v >> (bps - 1 - j)) & 1) as u8).collect();
                    symbols.extend(mapper.map(&pat));
                }
                symbols.push(Cplx::new(100.0, -100.0));
                symbols.push(Cplx::new(-0.0, 0.0));

                let mut planned = Vec::new();
                let mut reference = Vec::new();
                d.demap_into(&symbols, &mut planned);
                d.demap_into_reference(&symbols, &mut reference);
                assert_eq!(planned, reference, "{m} bits={bits} scaling={scaling:?}");
            }
        }
    }
}
