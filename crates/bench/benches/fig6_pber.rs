//! Figure 6: predicted vs actual per-packet BER, plus the link-layer
//! payoff (ARQ vs PPR) on the same grid.

use wilis::experiment::bits_budget;
use wilis::experiment::fig6;
use wilis::scenario::SweepRunner;
use wilis::service::SweepService;
use wilis::softphy::DecoderKind;
use wilis_bench::banner;

fn main() {
    let packets_per_snr = (bits_budget(700_000) / (1704 * 9)).max(4) as u32;
    banner(&format!(
        "Figure 6: predicted vs actual PBER (QAM-16 1/2, 1704-bit packets, {packets_per_snr} packets/SNR)"
    ));
    for decoder in [DecoderKind::Bcjr, DecoderKind::Sova] {
        let cfg = fig6::Fig6Config::paper(decoder, packets_per_snr);
        let result = fig6::run(&mut SweepService::from_env(SweepRunner::auto()), &cfg);
        print!("{}", fig6::render(&cfg, &result));
        println!();
    }
    println!(
        "Paper reference: points cluster on the predicted=actual line, with slight\n\
         underestimation above 1e-1 (the constant-SNR adjustment, paper section 4.2).\n"
    );

    // What the hints buy: the same grid closed by the link layer.
    let cfg = fig6::Fig6Config::paper(DecoderKind::Bcjr, packets_per_snr);
    let points = fig6::run_links(&mut SweepService::from_env(SweepRunner::auto()), &cfg);
    print!("{}", fig6::render_links(&points));
    println!(
        "\nPPR turns the per-bit confidence of this figure into goodput: corrupted\n\
         packets are repaired by retransmitting suspect chunks instead of the whole\n\
         packet (ARQ), so the retransmitted fraction collapses."
    );
}
