//! Speed ratios measured inside one binary: the gated perf record.
//!
//! Absolute throughput moves with the host; a ratio of two code paths
//! timed back to back in one process on identical inputs does not. Each
//! ratio is named `<stage>.<variant>.<A>/<B>` and is B's cost over A's
//! cost, so a value above 1 means side A is that many times cheaper:
//!
//! * `decode.<decoder>.compiled/reference` — a solo
//!   `decode_terminated_into`, which runs the `i16` kernels at one lane,
//!   against the frozen `decode_terminated_reference_into`;
//! * `decode.sova.noisy.compiled/reference` — the same pair for SOVA on a
//!   deep-fade-like block (weak soft values, 40% erased), where TU2's
//!   competitor paths stay apart longest;
//! * `decode.<decoder>.batched/scalar` — one 8-lane lockstep
//!   `decode_terminated_batch_into` against eight solo decodes. At one
//!   lane the Viterbi and SOVA forward pass vectorizes across states and
//!   SOVA's TU2 uses register exchange, so the scalar side runs different
//!   bodies from the batch: the ratio measures what a batch adds over the
//!   best one-lane decode;
//! * `decode.<decoder>.batched/reference` — the same 8-lane batch against
//!   eight frozen `decode_terminated_reference_into` calls. Its B side
//!   never changes, so its floor can sit near its measured value and
//!   catch a slower batch kernel; a floor that high on `batched/scalar`
//!   would block a faster one-lane decode, its live B side;
//! * `rx.<decoder>.batched/scalar` — the receive pipeline `rx_batch_from`
//!   over 8 lanes against eight solo `rx_from` calls, which run the same
//!   front-end bodies at one lane and the one-lane decode, so it measures
//!   what a batch adds;
//! * `ofdm.<op>.planned/reference` and `<map|demap>.<modulation>.planned/reference`
//!   — the planned front-end kernels against the frozen per-symbol
//!   `*_reference` bodies; the demodulator and demapper sides are the
//!   receive front end's lane bodies at one lane;
//! * `channel.fading.stream/reference` — the fading gain stream
//!   `RayleighFading::fill_gains` against per-sample `gain_at` over one
//!   2000-sample packet span at a large sample index;
//! * `service.time.warm/cold` — a grid served from the memoized store
//!   against the same grid simulated by a fresh service;
//! * `stopping.packets.adaptive/fixed` — packets a fixed budget spends
//!   over packets the Wilson stopping rule spends (deterministic);
//! * `sweep.one_packet/full_block` — the packets/s of 64 one-packet points
//!   (a Monte-Carlo seed axis of short points, which the plan packs eight
//!   streams to a job) over the packets/s of 8 eight-packet points, each
//!   one full block: how close packing brings light points to full
//!   batches.
//!
//! Every pair is asserted bit-identical before it is timed, except two.
//! `channel.fading.stream/reference` rotates phasors between exact
//! anchors, so it is asserted to stay within 1e-12 of the reference
//! instead. The two sides of `sweep.one_packet/full_block` send different
//! packets, so its packed side is asserted equal to each point's solo
//! run instead. A timed
//! ratio is the median, with its MAD, over the trials; inside each trial
//! the two sides run back to back. `WILIS_FAST=1` (the CI
//! configuration) runs 15 trials, otherwise 31; `WILIS_BITS` scales the
//! work per trial.
//!
//! The report goes to stdout and to `target/BENCH_ratios.json`, or to
//! the path `WILIS_BENCH_OUT` names; `tools/check_bench.py` gates every
//! median against its floor. Schema:
//!
//! ```json
//! {
//!   "bench": "perf_ratios",
//!   "ratios": [
//!     {"name": "decode.viterbi.compiled/reference", "trials": 5,
//!      "median": 0.0, "mad": 0.0, "values": [0.0]}
//!   ]
//! }
//! ```

use wilis::channel::{AwgnChannel, RayleighFading, ReplayModel, SnrDb, MODEL_SAMPLE_RATE_HZ};
use wilis::experiment::bits_budget;
use wilis::fec::{
    hard_llr, BcjrDecoder, ConvCode, ConvEncoder, DecodeOutput, Llr, SoftDecoder, SovaDecoder,
    ViterbiDecoder, MAX_BATCH_LANES,
};
use wilis::fxp::rng::SmallRng;
use wilis::fxp::Cplx;
use wilis::phy::{
    Demapper, Mapper, Modulation, OfdmDemodulator, OfdmModulator, PhyRate, PhyScratch, Receiver,
    RxResult, SnrScaling, Transmitter, DATA_CARRIERS, SYMBOL_LEN,
};
use wilis::scenario::{StoppingRule, SweepGrid, SweepRunner};
use wilis::service::SweepService;
use wilis_bench::banner;
use wilis_bench::harness::{time, time_ratio, Ratio};

/// A reproducible noisy coded block at a Figure-5-like operating point:
/// random payload, hard-decision LLRs at demapper scale, a sprinkling of
/// flips and erasures so the decoders do real work.
fn noisy_block(code: &ConvCode, info_bits: usize, seed: u64) -> Vec<Llr> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data: Vec<u8> = (0..info_bits).map(|_| rng.gen_bit()).collect();
    ConvEncoder::new(code)
        .encode_terminated(&data)
        .iter()
        .map(|&b| {
            let l = hard_llr(b, 20);
            match rng.gen_i64(0, 12) {
                0 => -l / 2, // soft flip
                1 => 0,      // erasure
                _ => l,
            }
        })
        .collect()
}

/// A reproducible deep-fade-like coded block: weak soft values (the
/// transmitted sign at magnitude 4 plus up to ±3 of noise), a fifth of them
/// pointing the wrong way, and 40% erasures. Competitor paths then stay
/// apart from the ML path for most of SOVA's 64-step update window, which
/// is where TU2 costs the most.
fn faded_block(code: &ConvCode, info_bits: usize, seed: u64) -> Vec<Llr> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data: Vec<u8> = (0..info_bits).map(|_| rng.gen_bit()).collect();
    ConvEncoder::new(code)
        .encode_terminated(&data)
        .iter()
        .map(|&b| {
            let l = hard_llr(b, 4) + rng.gen_i64(-3, 3) as Llr;
            match rng.gen_i64(0, 9) {
                0..=3 => 0, // erasure
                4..=5 => -l,
                _ => l,
            }
        })
        .collect()
}

/// `decode.sova.noisy.compiled/reference`: a solo SOVA decode of one
/// deep-fade-like 1704-bit block (the Figure 6 packet) against the
/// reference, `bits` coded bits per trial side.
fn noisy_sova_ratio(code: &ConvCode, bits: u64, trials: u32, ratios: &mut Vec<Ratio>) {
    let block = faded_block(code, 1704, 0xFADE);
    let reps = (bits / block.len() as u64).max(1) as u32;
    let erased = block.iter().filter(|&&l| l == 0).count();
    assert!(
        10 * erased >= 3 * block.len(),
        "a deep-fade block erases at least 30% of its soft values"
    );
    let (mut fast, mut slow) = (
        SovaDecoder::new(code, 64, 64),
        SovaDecoder::new(code, 64, 64),
    );
    let (mut out, mut ref_out) = (DecodeOutput::default(), DecodeOutput::default());
    fast.decode_terminated_into(&block, &mut out);
    slow.decode_terminated_reference_into(&block, &mut ref_out);
    assert_eq!(
        out, ref_out,
        "sova: lane and reference kernels must stay bit-identical on a faded block"
    );
    ratios.push(time_ratio(
        "decode.sova.noisy.compiled/reference",
        trials,
        || {
            for _ in 0..reps {
                fast.decode_terminated_into(&block, &mut out);
            }
        },
        || {
            for _ in 0..reps {
                slow.decode_terminated_reference_into(&block, &mut ref_out);
            }
        },
    ));
}

/// `decode.<name>.compiled/reference` on one block (one-lane kernels
/// against the reference), and on a full lane-major batch
/// `decode.<name>.batched/scalar` (eight lanes against eight one-lane
/// decodes) and `decode.<name>.batched/reference` (eight lanes against
/// eight reference decodes).
#[allow(clippy::too_many_arguments)]
fn decode_ratios<D: SoftDecoder>(
    name: &str,
    mut make: impl FnMut() -> D,
    reference: fn(&mut D, &[Llr], &mut DecodeOutput),
    blocks: &[Vec<Llr>],
    soa: &[Llr],
    reps: u32,
    trials: u32,
    ratios: &mut Vec<Ratio>,
) {
    let (mut fast, mut slow) = (make(), make());
    let (mut out, mut ref_out) = (DecodeOutput::default(), DecodeOutput::default());
    fast.decode_terminated_into(&blocks[0], &mut out);
    reference(&mut slow, &blocks[0], &mut ref_out);
    assert_eq!(
        out, ref_out,
        "{name}: lane and reference kernels must stay bit-identical"
    );
    ratios.push(time_ratio(
        &format!("decode.{name}.compiled/reference"),
        trials,
        || {
            for _ in 0..reps {
                fast.decode_terminated_into(&blocks[0], &mut out);
            }
        },
        || {
            for _ in 0..reps {
                reference(&mut slow, &blocks[0], &mut ref_out);
            }
        },
    ));

    let lanes = blocks.len();
    let (mut batched, mut scalar) = (make(), make());
    let mut batch_outs = vec![DecodeOutput::default(); lanes];
    let mut scalar_outs = vec![DecodeOutput::default(); lanes];
    batched.decode_terminated_batch_into(soa, lanes, &mut batch_outs);
    for (block, o) in blocks.iter().zip(scalar_outs.iter_mut()) {
        scalar.decode_terminated_into(block, o);
    }
    assert_eq!(
        batch_outs, scalar_outs,
        "{name}: batched and solo decodes must stay bit-identical per lane"
    );
    let batch_reps = (reps as usize).div_ceil(lanes) as u32;
    ratios.push(time_ratio(
        &format!("decode.{name}.batched/scalar"),
        trials,
        || {
            for _ in 0..batch_reps {
                batched.decode_terminated_batch_into(soa, lanes, &mut batch_outs);
            }
        },
        || {
            for _ in 0..batch_reps {
                for (block, o) in blocks.iter().zip(scalar_outs.iter_mut()) {
                    scalar.decode_terminated_into(block, o);
                }
            }
        },
    ));

    let mut ref_outs = vec![DecodeOutput::default(); lanes];
    for (block, o) in blocks.iter().zip(ref_outs.iter_mut()) {
        reference(&mut slow, block, o);
    }
    assert_eq!(
        batch_outs, ref_outs,
        "{name}: batched and reference decodes must stay bit-identical per lane"
    );
    ratios.push(time_ratio(
        &format!("decode.{name}.batched/reference"),
        trials,
        || {
            for _ in 0..batch_reps {
                batched.decode_terminated_batch_into(soa, lanes, &mut batch_outs);
            }
        },
        || {
            for _ in 0..batch_reps {
                for (block, o) in blocks.iter().zip(ref_outs.iter_mut()) {
                    reference(&mut slow, block, o);
                }
            }
        },
    ));
}

/// `rx.<decoder>.batched/scalar`: one corrupted QAM-16 packet per lane
/// through the whole receive pipeline.
fn rx_ratios(reps: u32, trials: u32, ratios: &mut Vec<Ratio>) {
    let rate = PhyRate::Qam16Half;
    let payload_bits = 1704usize;
    let transmitter = Transmitter::new(rate);
    let mut tx_scratch = PhyScratch::new();
    let mut lane_samples: Vec<Vec<Cplx>> = Vec::new();
    let mut seeds: Vec<u8> = Vec::new();
    for l in 0..MAX_BATCH_LANES {
        let mut rng = SmallRng::seed_from_u64(0xF00D + l as u64);
        let payload: Vec<u8> = (0..payload_bits).map(|_| rng.gen_bit()).collect();
        let seed = (l % 127 + 1) as u8;
        let mut samples = Vec::new();
        transmitter.tx_into(&payload, seed, &mut tx_scratch, &mut samples);
        AwgnChannel::new(SnrDb::new(7.0), 0x51ED + l as u64).apply(&mut samples);
        lane_samples.push(samples);
        seeds.push(seed);
    }
    for (name, make) in [
        ("viterbi", Receiver::viterbi as fn(PhyRate) -> Receiver),
        ("sova", Receiver::sova),
        ("bcjr", Receiver::bcjr),
    ] {
        let (mut batched, mut scalar) = (make(rate), make(rate));
        let (mut batch_scratch, mut scalar_scratch) = (PhyScratch::new(), PhyScratch::new());
        let mut batch_outs = vec![RxResult::default(); MAX_BATCH_LANES];
        let mut scalar_outs = vec![RxResult::default(); MAX_BATCH_LANES];
        batched.rx_batch_from(
            &lane_samples,
            payload_bits,
            &seeds,
            &mut batch_scratch,
            &mut batch_outs,
        );
        for (l, (b, s)) in batch_outs.iter().zip(scalar_outs.iter_mut()).enumerate() {
            scalar.rx_from(
                &lane_samples[l],
                payload_bits,
                seeds[l],
                &mut scalar_scratch,
                s,
            );
            assert_eq!(
                s.payload, b.payload,
                "{name}: batched lane {l} payload diverged from scalar"
            );
            assert_eq!(
                s.hints, b.hints,
                "{name}: batched lane {l} hints diverged from scalar"
            );
        }
        ratios.push(time_ratio(
            &format!("rx.{name}.batched/scalar"),
            trials,
            || {
                for _ in 0..reps {
                    batched.rx_batch_from(
                        &lane_samples,
                        payload_bits,
                        &seeds,
                        &mut batch_scratch,
                        &mut batch_outs,
                    );
                }
            },
            || {
                for _ in 0..reps {
                    for (l, s) in scalar_outs.iter_mut().enumerate() {
                        scalar.rx_from(
                            &lane_samples[l],
                            payload_bits,
                            seeds[l],
                            &mut scalar_scratch,
                            s,
                        );
                    }
                }
            },
        ));
    }
}

/// `ofdm.modulate.planned/reference` and `ofdm.demodulate.planned/reference`
/// on one multi-symbol frame of random carriers.
fn ofdm_ratios(n_sym: usize, reps: u32, trials: u32, rng: &mut SmallRng, ratios: &mut Vec<Ratio>) {
    let carriers: Vec<Cplx> = (0..n_sym * DATA_CARRIERS)
        .map(|_| {
            Cplx::new(
                rng.gen_i64(-1000, 1000) as f64 / 1000.0,
                rng.gen_i64(-1000, 1000) as f64 / 1000.0,
            )
        })
        .collect();
    let mut planned_tx = OfdmModulator::new();
    let mut reference_tx = OfdmModulator::new();
    let mut samples = vec![Cplx::ZERO; n_sym * SYMBOL_LEN];
    let mut reference_samples = vec![Cplx::ZERO; n_sym * SYMBOL_LEN];
    let mut modulate_reference = |out: &mut [Cplx]| {
        reference_tx.reset();
        for (data, sym) in carriers
            .chunks_exact(DATA_CARRIERS)
            .zip(out.chunks_exact_mut(SYMBOL_LEN))
        {
            reference_tx.modulate_into_reference(data, sym);
        }
    };
    planned_tx.modulate_packet_into(&carriers, &mut samples);
    modulate_reference(&mut reference_samples);
    assert_eq!(
        samples, reference_samples,
        "planned and reference modulators must stay bit-identical"
    );
    ratios.push(time_ratio(
        "ofdm.modulate.planned/reference",
        trials,
        || {
            for _ in 0..reps {
                planned_tx.reset();
                planned_tx.modulate_packet_into(&carriers, &mut samples);
            }
            std::hint::black_box(&samples);
        },
        || {
            for _ in 0..reps {
                modulate_reference(&mut reference_samples);
            }
            std::hint::black_box(&reference_samples);
        },
    ));

    let mut planned_rx = OfdmDemodulator::new();
    let mut reference_rx = OfdmDemodulator::new();
    let mut recovered = Vec::new();
    let mut reference_sym = Vec::new();
    planned_rx.demodulate_packet_batch_into(&[&samples], &mut recovered);
    let mut reference_recovered = Vec::new();
    for sym in samples.chunks_exact(SYMBOL_LEN) {
        reference_rx.demodulate_into_reference(sym, &mut reference_sym);
        reference_recovered.extend_from_slice(&reference_sym);
    }
    assert_eq!(
        recovered, reference_recovered,
        "planned and reference demodulators must stay bit-identical"
    );
    ratios.push(time_ratio(
        "ofdm.demodulate.planned/reference",
        trials,
        || {
            for _ in 0..reps {
                planned_rx.demodulate_packet_batch_into(&[&samples], &mut recovered);
            }
            std::hint::black_box(&recovered);
        },
        || {
            for _ in 0..reps {
                for sym in samples.chunks_exact(SYMBOL_LEN) {
                    reference_rx.demodulate_into_reference(sym, &mut reference_sym);
                }
            }
            std::hint::black_box(&reference_sym);
        },
    ));
}

/// `map.<name>.planned/reference` and `demap.<name>.planned/reference`
/// over 64 OFDM symbols of coded bits.
fn map_ratios(
    modulation: Modulation,
    name: &str,
    bits_per_trial: u64,
    trials: u32,
    rng: &mut SmallRng,
    ratios: &mut Vec<Ratio>,
) {
    let n_bits = DATA_CARRIERS * modulation.bits_per_symbol() * 64;
    let reps = (bits_per_trial / n_bits as u64).max(1);
    let bits: Vec<u8> = (0..n_bits).map(|_| rng.gen_bit()).collect();
    let mapper = Mapper::new(modulation);
    let demapper = Demapper::new(modulation, 8, SnrScaling::Off);

    let mut points = Vec::new();
    let mut reference_points = Vec::new();
    mapper.map_into(&bits, &mut points);
    mapper.map_into_reference(&bits, &mut reference_points);
    assert_eq!(points, reference_points, "{name}: map kernels diverged");
    ratios.push(time_ratio(
        &format!("map.{name}.planned/reference"),
        trials,
        || {
            for _ in 0..reps {
                mapper.map_into(&bits, &mut points);
            }
            std::hint::black_box(&points);
        },
        || {
            for _ in 0..reps {
                mapper.map_into_reference(&bits, &mut reference_points);
            }
            std::hint::black_box(&reference_points);
        },
    ));

    // Noisy received points exercise the full piecewise LLR range.
    let symbols: Vec<Cplx> = points
        .iter()
        .map(|p| {
            *p + Cplx::new(
                rng.gen_i64(-300, 300) as f64 / 1000.0,
                rng.gen_i64(-300, 300) as f64 / 1000.0,
            )
        })
        .collect();
    let mut llrs = Vec::new();
    let mut reference_llrs = Vec::new();
    demapper.demap_into(&symbols, &mut llrs);
    demapper.demap_into_reference(&symbols, &mut reference_llrs);
    assert_eq!(llrs, reference_llrs, "{name}: demap kernels diverged");
    ratios.push(time_ratio(
        &format!("demap.{name}.planned/reference"),
        trials,
        || {
            for _ in 0..reps {
                demapper.demap_into(&symbols, &mut llrs);
            }
            std::hint::black_box(&llrs);
        },
        || {
            for _ in 0..reps {
                demapper.demap_into_reference(&symbols, &mut reference_llrs);
            }
            std::hint::black_box(&reference_llrs);
        },
    ));
}

/// `channel.fading.stream/reference`: one 2000-sample packet span of
/// fading gains near the end of the replay window, where the stream's
/// drift from the reference is largest.
fn channel_ratios(reps: u32, trials: u32, ratios: &mut Vec<Ratio>) {
    let fading = RayleighFading::new(20.0, 0xFAD3);
    let first = (ReplayModel::WINDOW_SECS * MODEL_SAMPLE_RATE_HZ) as u64 - 2_037;
    let reference_gains = |out: &mut [Cplx]| {
        for (i, g) in out.iter_mut().enumerate() {
            *g = fading.gain_at((first + i as u64) as f64 / MODEL_SAMPLE_RATE_HZ);
        }
    };
    let mut stream = vec![Cplx::ZERO; 2000];
    let mut reference = vec![Cplx::ZERO; 2000];
    fading.fill_gains(first, MODEL_SAMPLE_RATE_HZ, &mut stream);
    reference_gains(&mut reference);
    let drift = stream
        .iter()
        .zip(&reference)
        .map(|(a, b)| (*a - *b).norm())
        .fold(0.0, f64::max);
    assert!(
        drift <= 1e-12,
        "fading gain stream drifted {drift:e} from gain_at"
    );
    ratios.push(time_ratio(
        "channel.fading.stream/reference",
        trials,
        || {
            for _ in 0..reps {
                fading.fill_gains(first, MODEL_SAMPLE_RATE_HZ, &mut stream);
            }
            std::hint::black_box(&stream);
        },
        || {
            for _ in 0..reps {
                reference_gains(&mut reference);
            }
            std::hint::black_box(&reference);
        },
    ));
}

/// `service.time.warm/cold` and `stopping.packets.adaptive/fixed` on a
/// Figure-5-shaped grid. Each trial runs it cold (a fresh service, fixed
/// budget), warm (a pre-populated service) and adaptive (a fresh service
/// under the stopping rule).
fn service_ratios(packets: u32, trials: u32, ratios: &mut Vec<Ratio>) {
    let payload_bits = 1704usize;
    let scenarios = SweepGrid::new()
        .rates(&[PhyRate::Qam16Half, PhyRate::QpskHalf])
        .decoders(&["sova", "bcjr"])
        .snrs_db(&[6.0, 7.0, 8.0])
        .packets(packets)
        .payload_bits(payload_bits)
        .scenarios();
    let points = scenarios.len() as u64;
    let budget = points * u64::from(packets);
    // A 1e-3 BER half-width: at these SNRs the clean points close after
    // one chunk and only the noisy QAM-16 points spend real budget.
    let rule = StoppingRule::ber(1e-3).with_chunk(8);

    let mut warm = SweepService::new(SweepRunner::auto());
    let reference = warm.run(&scenarios).unwrap();
    let adaptive_reference = {
        let mut serial = SweepService::new(SweepRunner::new(1));
        serial.set_stopping(Some(rule));
        serial.run(&scenarios).unwrap()
    };

    let mut warm_cold = Vec::new();
    let mut adaptive_fixed = Vec::new();
    let mut got = Vec::new();
    for _ in 0..trials {
        let mut cold = SweepService::new(SweepRunner::auto());
        let cold_secs = time(&mut || got = cold.run(&scenarios).unwrap());
        assert_eq!(got, reference, "cold run diverged");
        assert_eq!(
            cold.metrics().packets_simulated,
            budget,
            "fixed mode spends the budget"
        );

        warm.reset_metrics();
        let warm_secs = time(&mut || got = warm.run(&scenarios).unwrap());
        assert_eq!(got, reference, "warm results diverged from cold");
        let wm = warm.metrics();
        assert_eq!(wm.packets_simulated, 0, "warm runs must be pure cache hits");
        assert_eq!(wm.hits, points, "every warm point must be a hit");
        assert_eq!(
            wm.packets_saved, budget,
            "warm runs must save the whole budget"
        );
        warm_cold.push(cold_secs / warm_secs);

        // Determinism: the auto-threaded adaptive run reproduces the
        // single-thread stopped results bit for bit.
        let mut adaptive = SweepService::new(SweepRunner::auto());
        adaptive.set_stopping(Some(rule));
        assert_eq!(
            adaptive.run(&scenarios).unwrap(),
            adaptive_reference,
            "adaptive stopping must be thread-invariant"
        );
        let spent = adaptive.metrics().packets_simulated;
        assert!(
            0 < spent && spent <= budget,
            "adaptive stopping simulated {spent} packets against a fixed budget of {budget}"
        );
        adaptive_fixed.push(budget as f64 / spent as f64);
    }
    ratios.push(Ratio {
        name: "service.time.warm/cold".into(),
        values: warm_cold,
    });
    ratios.push(Ratio {
        name: "stopping.packets.adaptive/fixed".into(),
        values: adaptive_fixed,
    });
}

/// `sweep.one_packet/full_block`: 64 one-packet points against 8
/// eight-packet points — the same 64 packets of `store_resume`-shaped work
/// (BPSK 1/2 Viterbi, 64-bit payloads, AWGN at 20 dB) on one worker, so
/// the ratio sees the engine's per-point and per-job cost, not the pool.
fn sweep_ratios(reps: u32, trials: u32, ratios: &mut Vec<Ratio>) {
    let grid = |points: u64, packets: u32| {
        SweepGrid::new()
            .rates(&[PhyRate::BpskHalf])
            .decoders(&["viterbi"])
            .snrs_db(&[20.0])
            .seeds(&(0..points).collect::<Vec<_>>())
            .packets(packets)
            .payload_bits(64)
            .scenarios()
    };
    let (one_packet, full_block) = (grid(64, 1), grid(8, 8));
    let runner = SweepRunner::new(1);
    let packed = runner.run(&one_packet).unwrap();
    for (sc, got) in one_packet.iter().zip(&packed) {
        let mut solo = runner.run(std::slice::from_ref(sc)).unwrap().remove(0);
        solo.scenario = got.scenario;
        assert_eq!(
            &solo, got,
            "packed one-packet points must equal their solo runs"
        );
    }
    ratios.push(time_ratio(
        "sweep.one_packet/full_block",
        trials,
        || {
            for _ in 0..reps {
                runner.run(&one_packet).unwrap();
            }
        },
        || {
            for _ in 0..reps {
                runner.run(&full_block).unwrap();
            }
        },
    ));
}

fn main() {
    // Fifteen trials: on a shared 2-vCPU host the median of five or
    // nine still moved between runs by enough to straddle a floor of 1.0.
    let trials = if std::env::var("WILIS_FAST").is_ok() {
        15
    } else {
        31
    };
    // WILIS_BITS is the coded-bit decode budget per trial side; every
    // other section scales with it.
    let bits = bits_budget(400_000);
    banner(&format!(
        "perf_ratios: {trials} trials, {bits} coded bits per decode side (WILIS_BITS to scale)"
    ));

    let code = ConvCode::ieee80211();
    let blocks: Vec<Vec<Llr>> = (0..MAX_BATCH_LANES)
        .map(|l| noisy_block(&code, 4096, 0xBA7C + l as u64))
        .collect();
    let coded_bits = blocks[0].len();
    // Lane-major interlace: soft bit `i` of lane `l` at `soa[i * lanes + l]`.
    let mut soa = vec![0 as Llr; coded_bits * MAX_BATCH_LANES];
    for (l, block) in blocks.iter().enumerate() {
        for (i, &v) in block.iter().enumerate() {
            soa[i * MAX_BATCH_LANES + l] = v;
        }
    }
    let reps = (bits / coded_bits as u64).max(1) as u32;

    let mut ratios = Vec::new();
    decode_ratios(
        "viterbi",
        || ViterbiDecoder::new(&code),
        ViterbiDecoder::decode_terminated_reference_into,
        &blocks,
        &soa,
        reps,
        trials,
        &mut ratios,
    );
    decode_ratios(
        "sova",
        || SovaDecoder::new(&code, 64, 64),
        SovaDecoder::decode_terminated_reference_into,
        &blocks,
        &soa,
        reps,
        trials,
        &mut ratios,
    );
    noisy_sova_ratio(&code, bits, trials, &mut ratios);
    decode_ratios(
        "bcjr",
        || BcjrDecoder::new(&code, 64),
        BcjrDecoder::decode_terminated_reference_into,
        &blocks,
        &soa,
        reps,
        trials,
        &mut ratios,
    );
    rx_ratios((bits / 200_000).max(1) as u32, trials, &mut ratios);

    let mut rng = SmallRng::seed_from_u64(0x0FD1_BE9C);
    let n_sym = 256;
    let ofdm_reps = (bits / (n_sym * SYMBOL_LEN) as u64).max(1) as u32;
    ofdm_ratios(n_sym, ofdm_reps, trials, &mut rng, &mut ratios);
    for (modulation, name) in [
        (Modulation::Bpsk, "bpsk"),
        (Modulation::Qpsk, "qpsk"),
        (Modulation::Qam16, "qam16"),
        (Modulation::Qam64, "qam64"),
    ] {
        map_ratios(modulation, name, 8 * bits, trials, &mut rng, &mut ratios);
    }
    channel_ratios((bits / 40_000).max(1) as u32, trials, &mut ratios);
    service_ratios((bits / 25_000).max(8) as u32, trials, &mut ratios);
    sweep_ratios((bits / 4_000).max(1) as u32, trials, &mut ratios);

    println!(
        "\n{:<36} {:>9} {:>8} {:>8}",
        "ratio", "median", "MAD", "min"
    );
    for r in &ratios {
        let (median, mad) = r.median_mad();
        let min = r.values.iter().cloned().fold(f64::INFINITY, f64::min);
        println!("{:<36} {median:>9.3} {mad:>8.3} {min:>8.3}", r.name);
    }
    let objs: Vec<String> = ratios.iter().map(Ratio::to_json).collect();
    let json = format!(
        "{{\"bench\":\"perf_ratios\",\"ratios\":[\n{}\n]}}\n",
        objs.join(",\n")
    );
    // Never the committed file by default: that one is regenerated only
    // by naming it in WILIS_BENCH_OUT.
    let out_path = std::env::var("WILIS_BENCH_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_ratios.json"
        )
        .to_string()
    });
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("could not create {dir:?}: {e}"));
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("could not write {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
