//! §3: the software channel is the co-simulation bottleneck.
//!
//! Microbenchmarks of the pieces whose relative cost justifies the hybrid
//! split: Gaussian noise generation (the measured hot spot), parallel AWGN
//! application, and the baseband TX chain for scale.

use wilis::channel::parallel::apply_awgn_parallel;
use wilis::channel::{AwgnChannel, GaussianSource, SnrDb};
use wilis::fxp::Cplx;
use wilis::phy::{PhyRate, Transmitter};
use wilis_bench::banner;
use wilis_bench::harness::{bench, report};

fn main() {
    banner("Channel throughput (section 3: noise generation saturates the host)");
    let n = 65_536usize;
    let iters = if std::env::var("WILIS_FAST").is_ok() {
        3
    } else {
        20
    };

    let mut g = GaussianSource::new(1);
    let mut buf = vec![0.0f64; n];
    let m = bench("noise/gaussian_fill_64k", iters, || {
        g.fill(&mut buf);
        std::hint::black_box(buf[0]);
    });
    report(&m);
    println!("  -> {:.1} Msamples/s", m.throughput(n as u64) / 1e6);

    let mut ch = AwgnChannel::new(SnrDb::new(10.0), 2);
    let mut cbuf = vec![Cplx::ONE; n];
    let m = bench("awgn/serial_64k", iters, || {
        ch.apply(&mut cbuf);
        std::hint::black_box(cbuf[0]);
    });
    report(&m);
    let serial = m.median_secs;

    for threads in [2usize, 4, 8] {
        let mut pbuf = vec![Cplx::ONE; n];
        let mut seed = 0u64;
        let m = bench(&format!("awgn/parallel_64k/t{threads}"), iters, || {
            seed += 1;
            apply_awgn_parallel(&mut pbuf, SnrDb::new(10.0), seed, threads);
            std::hint::black_box(pbuf[0]);
        });
        report(&m);
        println!("  -> speedup over serial: {:.2}x", serial / m.median_secs);
    }

    let payload: Vec<u8> = (0..1704).map(|i| (i % 2) as u8).collect();
    let tx = Transmitter::new(PhyRate::Qam16Half);
    let m = bench("baseband/tx_qam16_1704b", iters, || {
        std::hint::black_box(tx.transmit(&payload, 0x5D).samples.len());
    });
    report(&m);
}
