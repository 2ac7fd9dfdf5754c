//! Lane-packed group jobs: light shared-channel streams — one-packet
//! points over a seed axis — pack into one job whose single block takes
//! its lanes from several points and decodes in one batch per stock
//! decoder.
//!
//! * packed results equal each point's solo run, at 1, 2 and 8 workers;
//! * a registration under a stock name sees full batches, never a solo
//!   decode;
//! * an organic panic inside a packed job quarantines exactly the point
//!   that panics alone, and every other point completes as it would solo.

#![forbid(unsafe_code)]

use std::sync::{Arc, Mutex};

use wilis::fec::{ConvCode, DecodeOutput, Llr, SoftDecoder, ViterbiDecoder};
use wilis::phy::PhyRate;
use wilis::scenario::{
    channel_registry, contention_registry, link_registry, Scenario, ScenarioResult, SweepGrid,
    SweepRunner,
};
use wilis::{PointOutcome, WilisSystem};

/// Seeds × 2 SNRs streams of one packet each, every stream carrying the
/// three stock decoders under two link policies.
fn grid(seeds: u64) -> Vec<Scenario> {
    SweepGrid::new()
        .rates(&[PhyRate::QpskHalf])
        .decoders(&["viterbi", "sova", "bcjr"])
        .links(&["none", "arq"])
        .snrs_db(&[0.0, 2.0])
        .seeds(&(1..=seeds).collect::<Vec<_>>())
        .packets(1)
        .payload_bits(200)
        .scenarios()
}

/// Point `sc` run alone on a stock one-worker runner, renumbered as grid
/// point `index`.
fn solo(sc: &Scenario, index: usize) -> ScenarioResult {
    let mut result = SweepRunner::new(1)
        .run(std::slice::from_ref(sc))
        .unwrap()
        .remove(0);
    result.scenario = index;
    result
}

/// A runner whose `"viterbi"` registration is `wrap` around the stock
/// Viterbi decoder.
fn runner_with_viterbi<D: SoftDecoder + 'static>(
    threads: usize,
    wrap: impl Fn(Box<dyn SoftDecoder>) -> D + Send + Sync + Clone + 'static,
) -> SweepRunner {
    SweepRunner::new(threads).with_env(move || {
        let mut system = WilisSystem::new();
        let wrap = wrap.clone();
        system.decoders_mut().register("viterbi", move |_| {
            Box::new(wrap(Box::new(ViterbiDecoder::new(&ConvCode::ieee80211()))))
        });
        (
            system,
            channel_registry(),
            link_registry(),
            contention_registry(),
        )
    })
}

/// The decode calls a [`Counting`] decoder saw: one entry per call, the
/// lane count of a batch call or 0 for a solo decode.
type Calls = Arc<Mutex<Vec<usize>>>;

/// Forwards to the decoder it wraps and logs every call's lane count.
struct Counting {
    inner: Box<dyn SoftDecoder>,
    calls: Calls,
}

impl SoftDecoder for Counting {
    fn decode_terminated_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.calls.lock().unwrap().push(0);
        self.inner.decode_terminated_into(llrs, out);
    }

    fn decode_terminated_batch_into(
        &mut self,
        llrs: &[Llr],
        lanes: usize,
        outs: &mut [DecodeOutput],
    ) {
        self.calls.lock().unwrap().push(lanes);
        self.inner.decode_terminated_batch_into(llrs, lanes, outs);
    }

    fn id(&self) -> &'static str {
        self.inner.id()
    }
}

#[test]
fn packed_results_match_solo_at_1_2_and_8_threads() {
    let scenarios = grid(6);
    let reference = SweepRunner::new(1).run(&scenarios).unwrap();
    assert!(
        reference.iter().any(|r| r.bit_errors > 0),
        "the grid decodes clean, so equality shows nothing"
    );
    for threads in [2, 8] {
        assert_eq!(
            SweepRunner::new(threads).run(&scenarios).unwrap(),
            reference,
            "{threads} threads"
        );
    }
    for (i, (sc, packed)) in scenarios.iter().zip(&reference).enumerate() {
        assert_eq!(packed, &solo(sc, i), "{}", sc.label());
    }
}

#[test]
fn a_stock_name_registration_decodes_packed_streams_in_full_batches() {
    // 12 seeds × 2 SNRs = 24 one-packet streams: three jobs of eight.
    let scenarios = grid(12);
    let calls: Calls = Arc::default();
    let log = Arc::clone(&calls);
    let runner = runner_with_viterbi(1, move |inner| Counting {
        inner,
        calls: Arc::clone(&log),
    });
    let counted = runner.run(&scenarios).unwrap();
    assert_eq!(counted, SweepRunner::new(1).run(&scenarios).unwrap());
    // The `none` and `arq` variants share one chain, so each job decodes
    // its eight lanes once, and no point decodes alone.
    assert_eq!(*calls.lock().unwrap(), vec![8, 8, 8]);
}

/// Forwards to the decoder it wraps, then panics when any lane decoded to
/// the poisoned bits.
struct Poisoned {
    inner: Box<dyn SoftDecoder>,
    poison: Arc<Vec<u8>>,
}

impl Poisoned {
    fn check(&self, out: &DecodeOutput) {
        assert!(out.bits != *self.poison, "decoded the poisoned packet");
    }
}

impl SoftDecoder for Poisoned {
    fn decode_terminated_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.inner.decode_terminated_into(llrs, out);
        self.check(out);
    }

    fn decode_terminated_batch_into(
        &mut self,
        llrs: &[Llr],
        lanes: usize,
        outs: &mut [DecodeOutput],
    ) {
        self.inner.decode_terminated_batch_into(llrs, lanes, outs);
        outs.iter().for_each(|out| self.check(out));
    }

    fn id(&self) -> &'static str {
        self.inner.id()
    }
}

/// Forwards to the decoder it wraps and keeps the bits of its last solo
/// decode.
struct Recording {
    inner: Box<dyn SoftDecoder>,
    bits: Arc<Mutex<Vec<u8>>>,
}

impl SoftDecoder for Recording {
    fn decode_terminated_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        self.inner.decode_terminated_into(llrs, out);
        self.bits.lock().unwrap().clone_from(&out.bits);
    }

    fn id(&self) -> &'static str {
        self.inner.id()
    }
}

#[test]
fn an_organic_panic_in_a_packed_job_quarantines_only_its_point() {
    // 12 one-packet Viterbi points at a clean SNR: packed jobs of 8 + 4.
    let scenarios = SweepGrid::new()
        .rates(&[PhyRate::BpskHalf])
        .decoders(&["viterbi"])
        .snrs_db(&[20.0])
        .seeds(&(100..112).collect::<Vec<_>>())
        .packets(1)
        .payload_bits(64)
        .scenarios();
    let poisoned = 5;

    // The decoded bits of the poisoned point's one packet, from its solo
    // run: a one-packet point alone decodes solo.
    let bits: Arc<Mutex<Vec<u8>>> = Arc::default();
    let log = Arc::clone(&bits);
    let recorder = runner_with_viterbi(1, move |inner| Recording {
        inner,
        bits: Arc::clone(&log),
    });
    recorder
        .run(std::slice::from_ref(&scenarios[poisoned]))
        .unwrap();
    let poison = Arc::new(bits.lock().unwrap().clone());
    assert!(poison.len() > 64, "the payload and its framing");

    let mut baseline = None;
    for threads in [1, 2, 8] {
        let poison = Arc::clone(&poison);
        let runner = runner_with_viterbi(threads, move |inner| Poisoned {
            inner,
            poison: Arc::clone(&poison),
        });
        let sweep = runner.run_supervised(&scenarios).unwrap();
        let points: Vec<usize> = sweep.report.quarantined.iter().map(|q| q.point).collect();
        assert_eq!(points, vec![poisoned], "{threads} threads");
        assert_eq!(
            sweep.report.quarantined[0].message,
            "decoded the poisoned packet"
        );
        assert_eq!(sweep.report.injected_panics, 0);
        for (i, (sc, outcome)) in scenarios.iter().zip(&sweep.outcomes).enumerate() {
            match outcome {
                PointOutcome::Failed { job, .. } => assert_eq!(*job, poisoned),
                PointOutcome::Completed(result) => assert_eq!(result, &solo(sc, i)),
            }
        }
        match &baseline {
            None => baseline = Some(sweep),
            Some(first) => assert_eq!(&sweep, first, "{threads} threads"),
        }
    }
}

#[test]
fn seventeen_one_packet_streams_pack_balanced_and_match_solo() {
    // 17 seeds at one SNR: 17 one-packet streams of one pack key, which
    // pack as 6 + 6 + 5 lanes rather than 8 + 8 + 1, so no job is left
    // with a lone lane to decode solo.
    let scenarios: Vec<Scenario> = grid(17).into_iter().filter(|sc| sc.snr_db == 0.0).collect();
    let calls: Calls = Arc::default();
    let log = Arc::clone(&calls);
    let runner = runner_with_viterbi(1, move |inner| Counting {
        inner,
        calls: Arc::clone(&log),
    });
    let reference = runner.run(&scenarios).unwrap();
    assert_eq!(*calls.lock().unwrap(), vec![6, 6, 5]);
    for threads in [1, 2, 8] {
        assert_eq!(
            SweepRunner::new(threads).run(&scenarios).unwrap(),
            reference,
            "{threads} threads"
        );
    }
    for (i, (sc, packed)) in scenarios.iter().zip(&reference).enumerate() {
        assert_eq!(packed, &solo(sc, i), "{}", sc.label());
    }
}
