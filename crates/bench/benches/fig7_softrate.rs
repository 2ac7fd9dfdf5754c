//! Figure 7: SoftRate selection accuracy under fading — both decoders'
//! trials run as grid points of one link-enabled sweep (the `"trace"`
//! channel walk plus the `"softrate"` policy with its oracle replay).

use wilis::experiment::bits_budget;
use wilis::experiment::fig7;
use wilis::scenario::SweepRunner;
use wilis::service::SweepService;
use wilis_bench::banner;

fn main() {
    let packets = (bits_budget(1_000_000) / (800 * 9)).max(10) as u32;
    banner(&format!(
        "Figure 7: SoftRate under 20 Hz fading + 10 dB AWGN ({packets} packet slots)"
    ));
    let cfg = fig7::Fig7Config::paper(packets);
    let results = fig7::run_both(&mut SweepService::from_env(SweepRunner::auto()), &cfg);
    print!("{}", fig7::render(&results));
    println!(
        "\nPaper reference: both implementations pick the optimal rate >80% of the\n\
         time; SOVA underselects ~4% more than BCJR; both overselect ~2%."
    );
}
