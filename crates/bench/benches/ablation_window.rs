//! §4.3 / §4.4.3 ablation: traceback and block lengths.
//!
//! The paper: "In our current implementation, we use a backward path
//! length of 64 for SOVA and a block length of 64 for BCJR. We find that
//! increasing these values provides no performance improvement." And for
//! BCJR's provisional initialization: "reasonable performance if block
//! size n is sufficiently large (larger than 32)." This sweep measures
//! decode BER, latency, and area across the design space.

use wilis::area::{synthesize, DecoderChoice, DecoderParams};
use wilis::channel::SnrDb;
use wilis::experiment::bits_budget;
use wilis::fec::pipeline::{bcjr_pipeline_latency, sova_pipeline_latency};
use wilis::fec::{BcjrDecoder, ConvCode, SovaDecoder};
use wilis::fxp::Cplx;
use wilis::phy::{Demapper, PhyRate, PhyScratch, Receiver, RxResult, SnrScaling, Transmitter};
use wilis::prelude::AwgnChannel;
use wilis_bench::banner;

fn ber_with(rx: &mut Receiver, bits: u64) -> f64 {
    let tx = Transmitter::new(PhyRate::Qam16Half);
    let mut channel = AwgnChannel::new(SnrDb::new(7.0), 0xAB);
    let mut errors = 0u64;
    let mut total = 0u64;
    let packet = 1704usize;
    let mut scratch = PhyScratch::new();
    let mut samples: Vec<Cplx> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut got = RxResult::default();
    while total < bits {
        payload.clear();
        payload.extend((0..packet).map(|i| ((i * 7 + total as usize) % 2) as u8));
        let seed = (total / packet as u64 % 127 + 1) as u8;
        tx.tx_into(&payload, seed, &mut scratch, &mut samples);
        channel.apply(&mut samples);
        rx.rx_from(&samples, payload.len(), seed, &mut scratch, &mut got);
        errors += got.bit_errors(&payload) as u64;
        total += packet as u64;
    }
    errors as f64 / total as f64
}

fn main() {
    let bits = bits_budget(80_000);
    let code = ConvCode::ieee80211();
    banner(&format!(
        "Ablation: window/block length (QAM-16 1/2 @ 7.0 dB, {bits} bits/point)"
    ));

    println!("SOVA traceback window (l = k):");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "l=k", "BER", "latency", "LUTs"
    );
    for w in [8usize, 16, 32, 64, 128] {
        let mut rx = Receiver::new(
            PhyRate::Qam16Half,
            Demapper::new(wilis::phy::Modulation::Qam16, 5, SnrScaling::Off),
            Box::new(SovaDecoder::new(&code, w, w)),
        );
        let ber = ber_with(&mut rx, bits);
        let params = DecoderParams {
            window: w,
            ..DecoderParams::paper_default()
        };
        println!(
            "{:>6} {:>12.3e} {:>12} {:>12}",
            w,
            ber,
            sova_pipeline_latency(w as u64, w as u64),
            synthesize(DecoderChoice::Sova, &params).total.luts
        );
    }

    println!("\nBCJR block length (n):");
    println!("{:>6} {:>12} {:>12} {:>12}", "n", "BER", "latency", "LUTs");
    for n in [8usize, 16, 32, 64, 128] {
        let mut rx = Receiver::new(
            PhyRate::Qam16Half,
            Demapper::new(wilis::phy::Modulation::Qam16, 5, SnrScaling::Off),
            Box::new(BcjrDecoder::new(&code, n)),
        );
        let ber = ber_with(&mut rx, bits);
        let params = DecoderParams {
            window: n,
            ..DecoderParams::paper_default()
        };
        println!(
            "{:>6} {:>12.3e} {:>12} {:>12}",
            n,
            ber,
            bcjr_pipeline_latency(n as u64),
            synthesize(DecoderChoice::Bcjr, &params).total.luts
        );
    }

    println!(
        "\nPaper reference: no decode improvement beyond 64; BCJR needs n > 32 for\n\
         the provisional 'uncertain' initialization to converge; latency and area\n\
         scale linearly with the window, which is the recovery lever for area."
    );
}
