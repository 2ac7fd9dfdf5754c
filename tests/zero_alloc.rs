//! Zero-allocation steady-state tests, the runtime half of `wilis-lint`'s
//! static `no-alloc` rule: the lexical rule proves no allocating call is
//! *written* on a `// lint: no_alloc` path, these tests prove none is
//! *executed* once the scratch buffers are warm. Measured with a counting
//! global allocator (`tests/support/alloc_count.rs`).
//!
//! Warm-up is part of the contract: the first packet may allocate freely
//! (decoder scratch and output vectors grow to capacity); every packet
//! after it must allocate nothing.
//!
//! No `#![forbid(unsafe_code)]` here: the included allocator module is
//! the one deliberate `unsafe` in the tree.

#[path = "support/alloc_count.rs"]
mod alloc_count;

use alloc_count::{global_alloc_bytes, global_allocs, thread_alloc_bytes, thread_allocs};
use wilis::channel::{AwgnChannel, Channel, SnrDb};
use wilis::fxp::rng::SmallRng;
use wilis::mac::link::{LinkContext, Oracle};
use wilis::mac::{HarqConfig, HarqLink, LinkPolicy};
use wilis::phy::{PhyRate, PhyScratch, Receiver, RxResult, Transmitter};
use wilis::scenario::{Scenario, ScenarioResult, SweepGrid, SweepRunner};
use wilis::service::{ResultStore, StoreKey, SweepService};
use wilis::FaultInjector;

#[global_allocator]
static COUNTER: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

const RATE: PhyRate = PhyRate::QpskThreeQuarters;
const PAYLOAD_BITS: usize = 600;
const STEADY_ITERS: usize = 50;

fn payload(rng: &mut SmallRng) -> Vec<u8> {
    (0..PAYLOAD_BITS).map(|_| rng.gen_bit()).collect()
}

/// Solo path: `tx_into` + `rx_from` with reused scratch must not allocate
/// after the first packet.
#[test]
fn solo_tx_rx_steady_state_allocates_nothing() {
    let _serial = alloc_count::lock();
    let mut rng = SmallRng::seed_from_u64(0x2A_0001);
    let payload = payload(&mut rng);
    let tx = Transmitter::new(RATE);
    let mut rx = Receiver::sova(RATE);
    let mut scratch = PhyScratch::new();
    let mut samples = Vec::new();
    let mut noisy = Vec::new();
    let mut out = RxResult::default();
    let mut channel = AwgnChannel::new(SnrDb::new(12.0), 7);

    let one_packet = |scratch: &mut PhyScratch,
                      rx: &mut Receiver,
                      channel: &mut AwgnChannel,
                      samples: &mut Vec<_>,
                      noisy: &mut Vec<_>,
                      out: &mut RxResult| {
        tx.tx_into(&payload, 0x5D, scratch, samples);
        noisy.clear();
        noisy.extend_from_slice(samples);
        channel.apply(noisy);
        rx.rx_from(noisy, PAYLOAD_BITS, 0x5D, scratch, out);
    };

    // Warm-up: machinery construction and buffer growth may allocate.
    one_packet(
        &mut scratch,
        &mut rx,
        &mut channel,
        &mut samples,
        &mut noisy,
        &mut out,
    );

    let before = thread_allocs();
    for _ in 0..STEADY_ITERS {
        one_packet(
            &mut scratch,
            &mut rx,
            &mut channel,
            &mut samples,
            &mut noisy,
            &mut out,
        );
    }
    let delta = thread_allocs() - before;
    assert_eq!(
        delta, 0,
        "solo tx/rx steady state allocated {delta} times over {STEADY_ITERS} packets"
    );
    assert!(!out.payload.is_empty(), "the loop actually decoded packets");
}

/// Batched path: `rx_batch_from` over four lanes with reused scratch must
/// not allocate after the first batch.
#[test]
fn batched_rx_steady_state_allocates_nothing() {
    let _serial = alloc_count::lock();
    let mut rng = SmallRng::seed_from_u64(0x2A_0002);
    let payload = payload(&mut rng);
    let tx = Transmitter::new(RATE);
    let mut rx = Receiver::bcjr(RATE);
    let mut scratch = PhyScratch::new();

    const LANES: usize = 4;
    let seeds = [0x11u8, 0x22, 0x33, 0x44];
    let mut lane_bufs: Vec<Vec<_>> = Vec::new();
    for seed in seeds {
        let mut buf = Vec::new();
        tx.tx_into(&payload, seed, &mut scratch, &mut buf);
        AwgnChannel::new(SnrDb::new(12.0), u64::from(seed)).apply(&mut buf);
        lane_bufs.push(buf);
    }
    let lanes: [&[_]; LANES] = [&lane_bufs[0], &lane_bufs[1], &lane_bufs[2], &lane_bufs[3]];
    let mut outs: Vec<RxResult> = (0..LANES).map(|_| RxResult::default()).collect();

    // Warm-up batch.
    rx.rx_batch_from(&lanes, PAYLOAD_BITS, &seeds, &mut scratch, &mut outs);

    let before = thread_allocs();
    for _ in 0..STEADY_ITERS {
        rx.rx_batch_from(&lanes, PAYLOAD_BITS, &seeds, &mut scratch, &mut outs);
    }
    let delta = thread_allocs() - before;
    assert_eq!(
        delta, 0,
        "batched rx steady state allocated {delta} times over {STEADY_ITERS} batches"
    );
    assert!(outs.iter().all(|o| !o.payload.is_empty()));
}

/// Fused shared-channel jobs: doubling the packet budget must not change
/// the total allocation count — every per-packet step of the fused inner
/// loop (generate, transmit, fade once; receive per member) runs out of
/// reused buffers. The sweep spawns worker threads, so this uses the
/// process-global counter under the serialization lock, and proves
/// per-packet zero by delta equality rather than delta zero.
#[test]
fn fused_sweep_inner_loop_allocates_nothing_per_packet() {
    let _serial = alloc_count::lock();
    let grid = |packets: u32| {
        SweepGrid::new()
            .rates(&[RATE])
            .decoders(&["viterbi", "sova", "bcjr"])
            .snrs_db(&[10.0])
            .seeds(&[9])
            .packets(packets)
            .payload_bits(PAYLOAD_BITS)
            .scenarios()
    };
    let runner = SweepRunner::new(1);

    // Warm-up run: one-time statics (constellation tables, registries).
    runner.run(&grid(4)).expect("stock names");

    let before_small = global_allocs();
    let before_small_bytes = global_alloc_bytes();
    let small = runner.run(&grid(40)).expect("stock names");
    let delta_small = global_allocs() - before_small;
    let bytes_small = global_alloc_bytes() - before_small_bytes;

    let before_large = global_allocs();
    let before_large_bytes = global_alloc_bytes();
    let large = runner.run(&grid(80)).expect("stock names");
    let delta_large = global_allocs() - before_large;
    let bytes_large = global_alloc_bytes() - before_large_bytes;

    assert_eq!(small.len(), 3, "three decoders fused over one channel");
    assert!(large.iter().all(|r| r.packets == 80));
    assert_eq!(
        delta_small, delta_large,
        "doubling the packet budget changed the allocation count \
         ({delta_small} vs {delta_large}): the fused inner loop allocates \
         per packet"
    );
    assert_eq!(
        bytes_small, bytes_large,
        "doubling the packet budget changed the bytes requested \
         ({bytes_small} vs {bytes_large}): the fused inner loop allocates \
         per packet"
    );
}

/// Runs `grid(40)` and `grid(80)` on one warm worker and asserts the two
/// runs made the same number of allocations and requested the same bytes:
/// the per-packet delta-equality proof of
/// `fused_sweep_inner_loop_allocates_nothing_per_packet`, for any grid.
fn assert_sweep_allocates_nothing_per_packet(path: &str, grid: impl Fn(u32) -> Vec<Scenario>) {
    let _serial = alloc_count::lock();
    let runner = SweepRunner::new(1);

    // Warm-up run: one-time statics (constellation tables, registries).
    // As long as the measured runs, so the test harness has finished
    // reporting the previous test before the global counters are read.
    runner.run(&grid(40)).expect("stock names");

    let before_small = global_allocs();
    let before_small_bytes = global_alloc_bytes();
    let small = runner.run(&grid(40)).expect("stock names");
    let delta_small = global_allocs() - before_small;
    let bytes_small = global_alloc_bytes() - before_small_bytes;

    let before_large = global_allocs();
    let before_large_bytes = global_alloc_bytes();
    let large = runner.run(&grid(80)).expect("stock names");
    let delta_large = global_allocs() - before_large;
    let bytes_large = global_alloc_bytes() - before_large_bytes;

    assert!(
        large.iter().map(|r| r.packets).sum::<u64>() > small.iter().map(|r| r.packets).sum(),
        "{path}: the larger budget must receive more packets"
    );
    assert_eq!(
        delta_small, delta_large,
        "{path}: doubling the packet budget changed the allocation count \
         ({delta_small} vs {delta_large}): the loop allocates per packet"
    );
    assert_eq!(
        bytes_small, bytes_large,
        "{path}: doubling the packet budget changed the bytes requested \
         ({bytes_small} vs {bytes_large}): the loop allocates per packet"
    );
}

/// SoftRate with its oracle: the transmit rate moves packet by packet and
/// every packet is replayed fastest rate first until one decodes clean,
/// out of reused buffers.
#[test]
fn softrate_oracle_sweep_allocates_nothing_per_packet() {
    assert_sweep_allocates_nothing_per_packet("softrate", |packets| {
        SweepGrid::new()
            .rates(&[PhyRate::Qam16Half])
            .decoders(&["bcjr"])
            .links(&["softrate"])
            .link_param("oracle", "true")
            .snrs_db(&[12.0])
            .seeds(&[9])
            .packets(packets)
            .payload_bits(PAYLOAD_BITS)
            .scenarios()
    });
}

/// HARQ-IR: every attempt transmits at its scheduled phase, absorbs into
/// the retained plane and decodes the combined plane.
#[test]
fn harq_ir_sweep_allocates_nothing_per_packet() {
    assert_sweep_allocates_nothing_per_packet("harq-ir", |packets| {
        SweepGrid::new()
            .rates(&[RATE])
            .decoders(&["sova"])
            .links(&["harq-ir"])
            .snrs_db(&[7.0])
            .seeds(&[9])
            .packets(packets)
            .payload_bits(PAYLOAD_BITS)
            .scenarios()
    });
}

/// A fixed-rate point on the fading channel: the model re-seeds its one
/// path table in place and reuses its gain buffer for every packet.
#[test]
fn fading_sweep_allocates_nothing_per_packet() {
    assert_sweep_allocates_nothing_per_packet("fading", |packets| {
        SweepGrid::new()
            .rates(&[RATE])
            .decoders(&["viterbi"])
            .channels(&["fading"])
            .snrs_db(&[12.0])
            .seeds(&[9])
            .packets(packets)
            .payload_bits(PAYLOAD_BITS)
            .scenarios()
    });
}

/// HARQ-IR on the fading channel: every attempt draws a fresh channel
/// seed, so every attempt re-seeds the fading realization.
#[test]
fn harq_ir_fading_sweep_allocates_nothing_per_packet() {
    assert_sweep_allocates_nothing_per_packet("harq-ir fading", |packets| {
        SweepGrid::new()
            .rates(&[RATE])
            .decoders(&["sova"])
            .links(&["harq-ir"])
            .channels(&["fading"])
            .snrs_db(&[7.0])
            .seeds(&[9])
            .packets(packets)
            .payload_bits(PAYLOAD_BITS)
            .scenarios()
    });
}

/// The replay channel: one long realization, sought to each packet's
/// seed-derived position.
#[test]
fn replay_sweep_allocates_nothing_per_packet() {
    assert_sweep_allocates_nothing_per_packet("replay", |packets| {
        SweepGrid::new()
            .rates(&[RATE])
            .decoders(&["viterbi"])
            .channels(&["replay"])
            .snrs_db(&[12.0])
            .seeds(&[9])
            .packets(packets)
            .payload_bits(PAYLOAD_BITS)
            .scenarios()
    });
}

/// The trace channel: successive packets walk one long realization
/// through the fading gain stream, at a fixed rate.
#[test]
fn trace_sweep_allocates_nothing_per_packet() {
    assert_sweep_allocates_nothing_per_packet("trace", |packets| {
        SweepGrid::new()
            .rates(&[RATE])
            .decoders(&["viterbi"])
            .channels(&["trace"])
            .snrs_db(&[12.0])
            .seeds(&[9])
            .packets(packets)
            .payload_bits(PAYLOAD_BITS)
            .scenarios()
    });
}

/// SoftRate with its oracle on the trace channel: the walk through deep
/// fades steers the transmit rate to rates a shorter run never reaches,
/// and a rate change re-aims the chain in place, so reaching a new rate
/// late costs nothing either.
#[test]
fn softrate_oracle_trace_sweep_allocates_nothing_per_packet() {
    assert_sweep_allocates_nothing_per_packet("softrate trace", |packets| {
        SweepGrid::new()
            .rates(&[PhyRate::Qam16Half])
            .decoders(&["bcjr"])
            .links(&["softrate"])
            .link_param("oracle", "true")
            .channels(&["trace"])
            .snrs_db(&[12.0])
            .seeds(&[9])
            .packets(packets)
            .payload_bits(PAYLOAD_BITS)
            .scenarios()
    });
}

/// A 4-node CSMA cell whose nodes run HARQ-IR: contention, capture and
/// the combined decode of every attempt, survivor or destroyed.
#[test]
fn harq_ir_csma_cell_allocates_nothing_per_packet() {
    assert_sweep_allocates_nothing_per_packet("csma cell", |packets| {
        SweepGrid::new()
            .rates(&[RATE])
            .decoders(&["sova"])
            .links(&["harq-ir"])
            .contentions(&["csma"])
            .nodes(4)
            .snrs_db(&[7.0])
            .seeds(&[9])
            .packets(packets)
            .payload_bits(PAYLOAD_BITS)
            .scenarios()
    });
}

/// The supervised happy path — the `catch_unwind` boundary, the fault
/// checks, the outcome slots, and the report — must cost only per-job
/// overhead, never per-packet: doubling the packet budget through
/// `run_supervised` with a wired-but-disabled injector must not change
/// the allocation count or the bytes requested. Delta equality, like the
/// fused-sweep proof above, because the sweep spawns worker threads.
#[test]
fn supervised_sweep_happy_path_allocates_nothing_per_packet() {
    let _serial = alloc_count::lock();
    let grid = |packets: u32| {
        SweepGrid::new()
            .rates(&[RATE])
            .decoders(&["viterbi", "sova", "bcjr"])
            .snrs_db(&[10.0])
            .seeds(&[9])
            .packets(packets)
            .payload_bits(PAYLOAD_BITS)
            .scenarios()
    };
    let runner = SweepRunner::new(1).with_faults(Some(FaultInjector::disabled()));

    // Warm-up run: one-time statics (constellation tables, registries).
    runner.run_supervised(&grid(4)).expect("stock names");

    let before_small = global_allocs();
    let before_small_bytes = global_alloc_bytes();
    let small = runner.run_supervised(&grid(40)).expect("stock names");
    let delta_small = global_allocs() - before_small;
    let bytes_small = global_alloc_bytes() - before_small_bytes;

    let before_large = global_allocs();
    let before_large_bytes = global_alloc_bytes();
    let large = runner.run_supervised(&grid(80)).expect("stock names");
    let delta_large = global_allocs() - before_large;
    let bytes_large = global_alloc_bytes() - before_large_bytes;

    assert!(small.report.is_clean() && large.report.is_clean());
    assert_eq!(small.completed().count(), 3);
    assert!(large.completed().all(|(_, r)| r.packets == 80));
    assert_eq!(
        delta_small, delta_large,
        "doubling the packet budget changed the supervised allocation \
         count ({delta_small} vs {delta_large}): the supervisor allocates \
         per packet"
    );
    assert_eq!(
        bytes_small, bytes_large,
        "doubling the packet budget changed the supervised bytes requested \
         ({bytes_small} vs {bytes_large}): the supervisor allocates per \
         packet"
    );
}

/// The warm HARQ retry path — retransmit at a scheduled phase, front-end
/// into the mother plane, combine into the retained plane, re-decode the
/// combined plane — must allocate nothing (zero events *and* zero bytes)
/// once the combiner and scratch are warm. This is the runtime proof
/// behind the `// lint: no_alloc` annotations on
/// `HarqCore::absorb`, `combine_llrs_into`, `rx_front_end_into`, and
/// `rx_decode_from`.
#[test]
fn harq_retry_path_steady_state_allocates_nothing() {
    let _serial = alloc_count::lock();
    let mut rng = SmallRng::seed_from_u64(0x2A_0003);
    let payload = payload(&mut rng);
    // A punctured rate (3/4) so the IR schedule actually cycles phases.
    let mut rx = Receiver::sova(RATE);
    let mut scratch = PhyScratch::new();
    let mut samples = Vec::new();
    let mut mother = Vec::new();
    let mut out = RxResult::default();
    let mut channel = AwgnChannel::new(SnrDb::new(9.0), 11);
    let schedule = HarqConfig::default_ir_schedule(RATE.code_rate());
    let config = HarqConfig::incremental(8, schedule);
    let mut link = HarqLink::new(PAYLOAD_BITS as u64, config, RATE.code_rate());

    let one_round = |link: &mut HarqLink,
                     rx: &mut Receiver,
                     scratch: &mut PhyScratch,
                     samples: &mut Vec<_>,
                     mother: &mut Vec<_>,
                     out: &mut RxResult,
                     channel: &mut AwgnChannel| {
        // One logical packet driven the way the engine drives it: the
        // first attempt retains, the forced retry combines and
        // re-decodes, then the packet closes clean.
        for attempt in 0..2u64 {
            let phase = {
                let core = link.harq().expect("combining armed");
                let phase = core.tx_phase();
                Transmitter::with_phase(RATE, phase).tx_into(&payload, 0x5D, scratch, samples);
                channel.apply(samples);
                phase
            };
            rx.set_puncture_phase(phase);
            rx.rx_front_end_into(samples, PAYLOAD_BITS, scratch, mother);
            {
                let core = link.harq().expect("combining armed");
                core.absorb(mother);
                rx.rx_decode_from(core.plane(), PAYLOAD_BITS, 0x5D, scratch, out);
            }
            let ctx = LinkContext {
                sent: &payload,
                // Report a failure on the first attempt so the policy
                // walks the retain -> combine -> re-decode cycle.
                bit_errors: 1 - attempt,
                predicted_pber: 0.0,
                rate: RATE,
                oracle: Oracle::Unavailable,
            };
            let _ = link.observe(out, &out.hints, &ctx);
        }
    };

    // Warm-up: machinery construction and buffer growth may allocate.
    one_round(
        &mut link,
        &mut rx,
        &mut scratch,
        &mut samples,
        &mut mother,
        &mut out,
        &mut channel,
    );

    let before_events = thread_allocs();
    let before_bytes = thread_alloc_bytes();
    for _ in 0..STEADY_ITERS {
        one_round(
            &mut link,
            &mut rx,
            &mut scratch,
            &mut samples,
            &mut mother,
            &mut out,
            &mut channel,
        );
    }
    let events = thread_allocs() - before_events;
    let bytes = thread_alloc_bytes() - before_bytes;
    assert_eq!(
        events, 0,
        "warm HARQ retry path allocated {events} times over {STEADY_ITERS} rounds"
    );
    assert_eq!(
        bytes, 0,
        "warm HARQ retry path requested {bytes} bytes over {STEADY_ITERS} rounds"
    );
    assert!(!out.payload.is_empty(), "the loop actually decoded packets");
}

/// `n` store records of one-packet hard-decoder points over seeds
/// `0..n`, built before any measurement: keys, and results whose label is
/// the one their key determines.
fn store_records(n: u64) -> Vec<(StoreKey, ScenarioResult)> {
    let point = SweepGrid::new()
        .rates(&[wilis::phy::PhyRate::BpskHalf])
        .decoders(&["viterbi"])
        .snrs_db(&[20.0])
        .packets(1)
        .payload_bits(64)
        .scenarios()
        .remove(0);
    let mut result = SweepRunner::new(1)
        .run(std::slice::from_ref(&point))
        .expect("stock names")
        .remove(0);
    result.scenario = 0;
    (0..n)
        .map(|seed| {
            let sc = Scenario {
                seed,
                ..point.clone()
            };
            let result = ScenarioResult {
                label: sc.label(),
                ..result.clone()
            };
            (StoreKey::new(&sc, false, None), result)
        })
        .collect()
}

/// Warm inserts into a file-backed store encode each record into reused
/// buffers and append it through the open handle: only the map's nodes
/// may allocate, so N inserts allocate fewer than N times.
#[test]
fn warm_file_store_inserts_allocate_only_map_nodes() {
    const WARM: usize = 8;
    const N: u64 = 256;
    let _serial = alloc_count::lock();
    let path = std::env::temp_dir().join(format!(
        "wilis_zero_alloc_store_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut records = store_records(N + WARM as u64).into_iter();
    let mut store = ResultStore::at_path(&path);
    // Warm-up: opens the append handle and grows the codec's buffers.
    for (key, result) in records.by_ref().take(WARM) {
        store.insert(key, result);
    }
    let before = thread_allocs();
    for (key, result) in records {
        store.insert(key, result);
    }
    let delta = thread_allocs() - before;
    let written = store.counters();
    drop(store);
    let _ = std::fs::remove_file(&path);
    assert_eq!(written.io_errors, 0);
    assert!(
        delta < N,
        "{N} warm file-store inserts allocated {delta} times: the record \
         codec allocates per record"
    );
}

/// A warm hit costs one copy of a compact result: a hard decoder's
/// result holds its label and a single hint bin, not 64.
#[test]
fn a_warm_store_hit_allocates_one_compact_result() {
    const N: u64 = 64;
    let _serial = alloc_count::lock();
    let records = store_records(N);
    let keys: Vec<StoreKey> = records.iter().map(|(key, _)| key.clone()).collect();
    let label_bytes: usize = records.iter().map(|(_, r)| r.label.len()).sum();
    let mut store = ResultStore::in_memory();
    for (key, result) in records {
        store.insert(key, result);
    }
    let before = thread_allocs();
    let before_bytes = thread_alloc_bytes();
    for key in &keys {
        std::hint::black_box(store.get(key).cloned().expect("a stored key"));
    }
    let delta = thread_allocs() - before;
    let bytes = thread_alloc_bytes() - before_bytes;
    let one_bin = std::mem::size_of::<wilis::softphy::HintBin>() as u64;
    assert!(delta <= 2 * N, "{N} hits allocated {delta} times");
    assert!(
        bytes <= label_bytes as u64 + N * one_bin,
        "{N} hits allocated {bytes} bytes: a hit copies more than its \
         label and one hint bin"
    );
}

/// Allocations the calling thread may make per cold miss of a service
/// sweep: the miss's `StoreKey` (four names), the result copy it
/// delivers (a label and one hint bin), its stream's member list, and
/// its share of the compile step's job lists and of the map and vector
/// growth. The job core reads each miss's `Scenario` in place; cloning
/// it would add four names per miss. Measured at 7.64 (1955 allocations
/// for 256 extra misses); 10.88 with a fan-out list per miss and two job
/// lists per point before packing, 14.88 with the clone besides. The
/// bound rounds up to a whole allocation, because a channel receive that
/// blocks may grow a waker list once per sweep.
const CALLING_THREAD_ALLOCS_PER_MISS: u64 = 8;

/// A cold in-memory service sweep of `store_resume`-shaped misses
/// (distinct one-packet BPSK 1/2 Viterbi points) on one worker: the
/// calling thread's allocation count grows by a fixed number per miss.
/// Measured as the delta between N and 2N misses, so the per-sweep
/// set-up cancels out.
#[test]
fn a_cold_service_miss_costs_the_calling_thread_a_fixed_allocation_count() {
    const N: u64 = 256;
    let _serial = alloc_count::lock();
    let points = |n: u64| {
        SweepGrid::new()
            .rates(&[wilis::phy::PhyRate::BpskHalf])
            .decoders(&["viterbi"])
            .snrs_db(&[20.0])
            .seeds(&(0..n).collect::<Vec<_>>())
            .packets(1)
            .payload_bits(64)
            .scenarios()
    };
    let calling_thread_allocs = |scenarios: &[Scenario]| {
        let mut service = SweepService::new(SweepRunner::new(1));
        let before = thread_allocs();
        let sweep = service.run_supervised(scenarios).expect("stock names");
        let delta = thread_allocs() - before;
        assert!(sweep.report.is_clean());
        assert_eq!(service.metrics().misses, scenarios.len() as u64);
        delta
    };
    // Warm-up: one-time statics (constellation tables, registries).
    calling_thread_allocs(&points(8));
    let (small, large) = (points(N), points(2 * N));
    let extra = calling_thread_allocs(&large) - calling_thread_allocs(&small);
    assert!(
        extra <= CALLING_THREAD_ALLOCS_PER_MISS * N,
        "{N} extra cold misses cost the calling thread {extra} allocations, \
         more than {CALLING_THREAD_ALLOCS_PER_MISS} each: the service copies \
         each miss"
    );
}

/// The counter itself must catch an injected allocation — guards against
/// the measurement silently going dead (e.g. the global allocator not
/// being installed). Checks the byte probe alongside the event probe.
#[test]
fn canary_detects_injected_allocations() {
    let _serial = alloc_count::lock();
    let before = thread_allocs();
    let before_bytes = thread_alloc_bytes();
    let mut sink = 0u8;
    for i in 0..STEADY_ITERS {
        // The allocation a no_alloc path must never contain.
        let v = vec![0u8; 64 + i];
        sink = sink.wrapping_add(v[i]);
    }
    let delta = thread_allocs() - before;
    let bytes = thread_alloc_bytes() - before_bytes;
    assert!(
        delta >= STEADY_ITERS as u64,
        "counter missed injected allocations: {delta} < {STEADY_ITERS}"
    );
    assert!(
        bytes >= (64 * STEADY_ITERS) as u64,
        "byte probe missed injected allocations: {bytes}"
    );
    assert_eq!(sink, 0);
}
