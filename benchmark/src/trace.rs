//! The traced sweep environment.
//!
//! [`traced_env`] is a `SweepRunner::with_env` factory returning the stock
//! registries with every channel model, decoder and link policy
//! re-registered under its stock name as a forwarding wrapper. Each wrapper
//! counts and times its calls into a shared [`Probe`]; the factory call
//! itself counts jobs and times environment builds, and a guard shared by
//! the job's registries records the job's span when the job drops them.
//!
//! Every trait method is forwarded, the batch decode and the capability
//! probes (`harq`, `adapts_rate`, `needs_oracle`) included: a wrapper that
//! fell back to a default would silently move points off the batched or
//! fused paths and change what is measured.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use wilis::channel::{ChannelModel, SnrDb};
use wilis::fec::{DecodeOutput, Llr, SoftDecoder};
use wilis::fxp::Cplx;
use wilis::lis::registry::Registry;
use wilis::mac::harq::HarqCore;
use wilis::mac::link::{LinkContext, LinkMetrics, LinkPolicy, LinkVerdict};
use wilis::phy::RxResult;
use wilis::scenario::{channel_registry, contention_registry, link_registry, SweepEnv};
use wilis::WilisSystem;

/// Calls made and nanoseconds spent inside them.
#[derive(Default)]
struct Timer {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Timer {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }

    fn take(&self) -> (u64, u64) {
        (self.calls.swap(0, Relaxed), self.ns.swap(0, Relaxed))
    }
}

/// The wall-clock extent of one worker job: from the environment factory
/// call to the drop of the job's registries.
#[derive(Debug, Clone, Copy)]
pub struct JobSpan {
    /// Factory call order within the sweep; 0 is the runner's preflight.
    pub seq: u64,
    pub thread: ThreadId,
    pub start: Instant,
    pub end: Instant,
}

/// Counters shared by every wrapper of every job. The atomics are pure
/// statistics, read after the sweep's worker threads have been joined.
#[derive(Default)]
pub struct Probe {
    env: Timer,
    apply: Timer,
    samples: AtomicU64,
    gain: Timer,
    decode: Timer,
    batch: Timer,
    lanes: AtomicU64,
    info_bits: AtomicU64,
    observe: Timer,
    spans: Mutex<Vec<JobSpan>>,
}

/// A snapshot of a [`Probe`], taken (and the probe zeroed) between sweeps.
#[derive(Debug, Default)]
pub struct Counts {
    pub env_ns: u64,
    pub apply_calls: u64,
    pub apply_ns: u64,
    pub samples: u64,
    pub gain_calls: u64,
    pub gain_ns: u64,
    pub decode_calls: u64,
    pub decode_ns: u64,
    pub batch_calls: u64,
    pub batch_ns: u64,
    pub lanes: u64,
    pub info_bits: u64,
    pub observe_calls: u64,
    pub observe_ns: u64,
    pub spans: Vec<JobSpan>,
}

impl Probe {
    /// Returns everything recorded since the last call and zeroes the probe.
    pub fn take(&self) -> Counts {
        let (_, env_ns) = self.env.take();
        let (apply_calls, apply_ns) = self.apply.take();
        let (gain_calls, gain_ns) = self.gain.take();
        let (decode_calls, decode_ns) = self.decode.take();
        let (batch_calls, batch_ns) = self.batch.take();
        let (observe_calls, observe_ns) = self.observe.take();
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span log poisoned"));
        spans.sort_by_key(|s| s.seq);
        Counts {
            env_ns,
            apply_calls,
            apply_ns,
            samples: self.samples.swap(0, Relaxed),
            gain_calls,
            gain_ns,
            decode_calls,
            decode_ns,
            batch_calls,
            batch_ns,
            lanes: self.lanes.swap(0, Relaxed),
            info_bits: self.info_bits.swap(0, Relaxed),
            observe_calls,
            observe_ns,
            spans,
        }
    }
}

/// Records the job span when the last registry of a job lets go of it.
struct JobGuard {
    probe: Arc<Probe>,
    seq: u64,
    start: Instant,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        let span = JobSpan {
            seq: self.seq,
            thread: std::thread::current().id(),
            start: self.start,
            end: Instant::now(),
        };
        // A poisoned log only loses this span; Drop must not panic.
        if let Ok(mut spans) = self.probe.spans.lock() {
            spans.push(span);
        }
    }
}

/// Re-registers every stock implementation of `stock` under its own name,
/// wrapped by `wrap`. Each factory holds the job guard, so the job's span
/// ends when the engine drops the registries.
fn rewrap<I: 'static>(
    stock: Registry<I>,
    guard: &Rc<JobGuard>,
    wrap: impl Fn(I) -> I + Clone + 'static,
) -> Registry<I> {
    let mut traced = Registry::new(stock.slot());
    let stock = Rc::new(stock);
    for name in stock.names() {
        let (stock, guard, wrap) = (Rc::clone(&stock), Rc::clone(guard), wrap.clone());
        traced.register(&name.clone(), move |params| {
            let _job = &guard;
            wrap(
                stock
                    .build(&name, params)
                    .expect("stock name is registered"),
            )
        });
    }
    traced
}

/// The traced `SweepRunner::with_env` factory, reporting into `probe`.
pub fn traced_env(probe: Arc<Probe>) -> impl Fn() -> SweepEnv + Send + Sync + 'static {
    move || {
        let start = Instant::now();
        let guard = Rc::new(JobGuard {
            probe: Arc::clone(&probe),
            seq: probe.env.calls.fetch_add(1, Relaxed),
            start,
        });
        let mut system = WilisSystem::new();
        let stock = std::mem::replace(system.decoders_mut(), Registry::new("decoder"));
        let p = Arc::clone(&probe);
        *system.decoders_mut() = rewrap(stock, &guard, move |inner| {
            Box::new(TracedDecoder {
                inner,
                probe: Arc::clone(&p),
            }) as Box<dyn SoftDecoder>
        });
        let p = Arc::clone(&probe);
        let channels = rewrap(channel_registry(), &guard, move |inner| {
            Box::new(TracedChannel {
                inner,
                probe: Arc::clone(&p),
            }) as Box<dyn ChannelModel>
        });
        let p = Arc::clone(&probe);
        let links = rewrap(link_registry(), &guard, move |inner| {
            Box::new(TracedLink {
                inner,
                probe: Arc::clone(&p),
            }) as Box<dyn LinkPolicy>
        });
        probe
            .env
            .ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        (system, channels, links, contention_registry())
    }
}

struct TracedChannel {
    inner: Box<dyn ChannelModel>,
    probe: Arc<Probe>,
}

impl ChannelModel for TracedChannel {
    fn apply(&mut self, samples: &mut [Cplx], seed: u64) {
        self.probe.samples.fetch_add(samples.len() as u64, Relaxed);
        let inner = &mut self.inner;
        self.probe.apply.time(|| inner.apply(samples, seed));
    }

    fn id(&self) -> &'static str {
        self.inner.id()
    }

    fn snr(&self) -> Option<SnrDb> {
        self.inner.snr()
    }

    fn packet_gain(&mut self, seed: u64) -> f64 {
        let inner = &mut self.inner;
        self.probe.gain.time(|| inner.packet_gain(seed))
    }
}

struct TracedDecoder {
    inner: Box<dyn SoftDecoder>,
    probe: Arc<Probe>,
}

impl SoftDecoder for TracedDecoder {
    fn decode_terminated_into(&mut self, llrs: &[Llr], out: &mut DecodeOutput) {
        let inner = &mut self.inner;
        self.probe
            .decode
            .time(|| inner.decode_terminated_into(llrs, out));
        self.probe
            .info_bits
            .fetch_add(out.bits.len() as u64, Relaxed);
    }

    fn decode_terminated(&mut self, llrs: &[Llr]) -> DecodeOutput {
        let inner = &mut self.inner;
        let out = self.probe.decode.time(|| inner.decode_terminated(llrs));
        self.probe
            .info_bits
            .fetch_add(out.bits.len() as u64, Relaxed);
        out
    }

    fn decode_terminated_batch_into(
        &mut self,
        llrs: &[Llr],
        lanes: usize,
        outs: &mut [DecodeOutput],
    ) {
        let inner = &mut self.inner;
        self.probe
            .batch
            .time(|| inner.decode_terminated_batch_into(llrs, lanes, outs));
        self.probe.lanes.fetch_add(lanes as u64, Relaxed);
        let bits: usize = outs.iter().map(|o| o.bits.len()).sum();
        self.probe.info_bits.fetch_add(bits as u64, Relaxed);
    }

    fn id(&self) -> &'static str {
        self.inner.id()
    }
}

struct TracedLink {
    inner: Box<dyn LinkPolicy>,
    probe: Arc<Probe>,
}

impl LinkPolicy for TracedLink {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs_oracle(&self) -> bool {
        self.inner.needs_oracle()
    }

    fn needs_pber(&self) -> bool {
        self.inner.needs_pber()
    }

    fn adapts_rate(&self) -> bool {
        self.inner.adapts_rate()
    }

    fn harq(&mut self) -> Option<&mut HarqCore> {
        self.inner.harq()
    }

    fn config_error(&self) -> Option<String> {
        self.inner.config_error()
    }

    fn observe(&mut self, rx: &RxResult, hints: &[u16], ctx: &LinkContext<'_>) -> LinkVerdict {
        let inner = &mut self.inner;
        self.probe.observe.time(|| inner.observe(rx, hints, ctx))
    }

    fn metrics(&self) -> LinkMetrics {
        self.inner.metrics()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    use wilis::fxp::rng::SmallRng;
    use wilis::lis::registry::Params;
    use wilis::phy::PhyRate;
    use wilis::scenario::{Scenario, SweepGrid, SweepRunner};
    use wilis::service::SweepService;
    use wilis::SystemConfig;

    /// Every sweep path: a fused AWGN group decoding in batched lanes,
    /// observer links that fuse, SoftRate with its oracle, both HARQ
    /// policies and a contention cell.
    fn mixed_grid() -> Vec<Scenario> {
        let awgn = SweepGrid::new()
            .rates(&[PhyRate::QpskHalf])
            .decoders(&["viterbi", "sova", "bcjr"])
            .links(&["none", "arq", "ppr"])
            .snrs_db(&[3.0])
            .seeds(&[1, 2])
            .packets(8)
            .payload_bits(400);
        let fading = SweepGrid::new()
            .rates(&[PhyRate::Qam16Half])
            .decoders(&["sova"])
            .channels(&["fading"])
            .links(&["softrate", "harq-ir", "harq-cc"])
            .snrs_db(&[12.0])
            .seeds(&[3, 4])
            .packets(3)
            .payload_bits(400);
        let cells = SweepGrid::new()
            .rates(&[PhyRate::Qam16Half])
            .decoders(&["sova"])
            .channels(&["fading"])
            .links(&["harq-ir"])
            .contentions(&["csma"])
            .nodes(3)
            .snrs_db(&[14.0])
            .seeds(&[5])
            .packets(6)
            .payload_bits(400);
        [awgn, fading, cells]
            .iter()
            .flat_map(SweepGrid::scenarios)
            .collect()
    }

    /// The traced run returns the untraced results bit for bit, with the
    /// same service counts, the same job partition as a stock environment,
    /// and the batched decode path still taken.
    #[test]
    fn traced_sweep_is_transparent() {
        let grid = mixed_grid();
        let mut plain = SweepService::new(SweepRunner::new(2));
        let expected = plain.run(&grid).unwrap();

        let factory_calls = Arc::new(AtomicUsize::new(0));
        let calls = Arc::clone(&factory_calls);
        let counted = SweepRunner::new(2).with_env(move || {
            calls.fetch_add(1, Relaxed);
            (
                WilisSystem::new(),
                channel_registry(),
                link_registry(),
                contention_registry(),
            )
        });
        assert_eq!(counted.run(&grid).unwrap(), expected);

        let probe = Arc::new(Probe::default());
        let mut traced =
            SweepService::new(SweepRunner::new(2).with_env(traced_env(Arc::clone(&probe))));
        assert_eq!(traced.run(&grid).unwrap(), expected);
        assert_eq!(traced.metrics(), plain.metrics());

        let c = probe.take();
        let jobs = c.spans.iter().filter(|s| s.seq > 0).count();
        // One factory call is the runner's preflight, the rest are jobs.
        assert_eq!(jobs + 1, factory_calls.load(Relaxed));
        assert_eq!(c.spans.len(), jobs + 1);
        assert!(c.batch_calls > 0, "fused AWGN points left the batched path");
        assert!(c.decode_calls > 0 && c.apply_calls > 0 && c.observe_calls > 0);
        assert!(c.gain_calls > 0, "the cell never probed packet gains");
        for s in &c.spans {
            assert!(s.end >= s.start);
        }
    }

    fn runtime_params(rate: PhyRate) -> Params {
        let mut p = Params::new();
        p.set("payload_bits", "400")
            .set("initial_rate_mbps", &format!("{}", rate.mbps()));
        p
    }

    /// Each wrapper answers every trait method exactly as the stock
    /// implementation it wraps.
    #[test]
    fn wrappers_forward_every_method() {
        let probe = Arc::new(Probe::default());
        let (system, channels, links, _) = traced_env(Arc::clone(&probe))();
        let stock_links = link_registry();
        assert_eq!(links.names(), stock_links.names());
        for name in stock_links.names() {
            let params = runtime_params(PhyRate::Qam16Half);
            let mut stock = stock_links.build(&name, &params).unwrap();
            let mut traced = links.build(&name, &params).unwrap();
            assert_eq!(traced.name(), stock.name());
            assert_eq!(traced.needs_oracle(), stock.needs_oracle(), "{name}");
            assert_eq!(traced.needs_pber(), stock.needs_pber(), "{name}");
            assert_eq!(traced.adapts_rate(), stock.adapts_rate(), "{name}");
            assert_eq!(traced.harq().is_some(), stock.harq().is_some(), "{name}");
            assert_eq!(traced.config_error(), stock.config_error(), "{name}");
            assert_eq!(traced.metrics(), stock.metrics(), "{name}");
        }

        let stock_channels = channel_registry();
        assert_eq!(channels.names(), stock_channels.names());
        let mut rng = SmallRng::seed_from_u64(9);
        let input: Vec<Cplx> = (0..160)
            .map(|_| Cplx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        for name in stock_channels.names() {
            let mut params = Params::new();
            params.set("snr_db", "9");
            let mut stock = stock_channels.build(&name, &params).unwrap();
            let mut traced = channels.build(&name, &params).unwrap();
            assert_eq!(traced.id(), stock.id());
            assert_eq!(traced.snr().map(|s| s.db()), stock.snr().map(|s| s.db()));
            assert_eq!(
                traced.packet_gain(77).to_bits(),
                stock.packet_gain(77).to_bits()
            );
            let (mut a, mut b) = (input.clone(), input.clone());
            stock.apply(&mut a, 5);
            traced.apply(&mut b, 5);
            assert_eq!(a, b, "{name}");
        }

        let stock_system = WilisSystem::new();
        assert_eq!(system.decoder_names(), stock_system.decoder_names());
        for name in stock_system.decoder_names() {
            let config = SystemConfig::new(PhyRate::QpskHalf, &name);
            let payload: Vec<u8> = (0..400).map(|_| rng.gen_bit()).collect();
            let tx = system.transmitter(&config).transmit(&payload, 0x2B);
            let mut stock = stock_system.receiver(&config).unwrap();
            let mut traced = system.receiver(&config).unwrap();
            let lanes = [&tx.samples, &tx.samples, &tx.samples];
            let seeds = [0x2B; 3];
            let mut scratch = wilis::phy::PhyScratch::new();
            let mut want = vec![RxResult::default(); 3];
            let mut got = vec![RxResult::default(); 3];
            stock.rx_batch_from(&lanes, 400, &seeds, &mut scratch, &mut want);
            traced.rx_batch_from(&lanes, 400, &seeds, &mut scratch, &mut got);
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.payload, g.payload, "{name}");
                assert_eq!(w.hints, g.hints, "{name}");
                assert_eq!(w.decoder_id, g.decoder_id, "{name}");
            }
            let single = traced.receive(&tx.samples, 400, 0x2B);
            assert_eq!(single.payload, want[0].payload, "{name}");
        }
        let c = probe.take();
        assert_eq!(c.batch_calls, 3, "one batched decode per decoder");
        assert_eq!(c.lanes, 9);
        assert_eq!(c.decode_calls, 3, "one scalar decode per decoder");
    }
}
