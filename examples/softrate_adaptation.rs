//! SoftRate adapting to a fading channel, swept on the scenario engine.
//!
//! ```text
//! cargo run --release --example softrate_adaptation [-- packets]
//! ```
//!
//! Replays the Figure 7 scenario (20 Hz Rayleigh fading over the
//! `"trace"` channel walk) at several mean SNRs with the `"softrate"`
//! link policy steering the rate. For every point, the engine replays
//! each packet against the identical channel realization (the paper's
//! pseudo-random noise model), fastest rate first down to the first that
//! decodes error-free, so the under/accurate/over columns are judged
//! against a true oracle.

use wilis::phy::PhyRate;
use wilis::scenario::{SweepGrid, SweepRunner};

fn main() {
    let packets: u32 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);

    let snrs = [6.0, 8.0, 10.0, 12.0, 14.0];
    let grid = SweepGrid::new()
        .rates(&[PhyRate::Qam16Half]) // the initial rate; SoftRate takes over
        .links(&["softrate"])
        .channels(&["trace"])
        .channel_param("doppler_hz", "20")
        .channel_param("base_seed", "64222") // 0xFADE
        .snrs_db(&snrs)
        .packets(packets)
        .payload_bits(800);
    let scenarios = grid.scenarios();
    let results = SweepRunner::auto()
        .run(&scenarios)
        .expect("stock registry names");

    println!("SoftRate on a 20 Hz fading trace ({packets} packet slots per SNR)\n");
    println!(
        "{:>8} {:>8} {:>10} {:>8} {:>10} {:>9} {:>9}",
        "SNR dB", "under %", "accurate %", "over %", "mean Mbps", "goodput", "delivery"
    );
    for (sc, r) in scenarios.iter().zip(&results) {
        let m = r.link.expect("softrate metrics");
        let total = (m.under + m.accurate + m.over).max(1) as f64;
        println!(
            "{:>8.1} {:>8.1} {:>10.1} {:>8.1} {:>10.2} {:>9.3} {:>8.1}%",
            sc.snr_db,
            100.0 * m.under as f64 / total,
            100.0 * m.accurate as f64 / total,
            100.0 * m.over as f64 / total,
            m.mean_selected_mbps(),
            m.goodput(),
            100.0 * m.delivery_rate()
        );
    }

    println!(
        "\nHigher SNR pulls the mean selected rate up; the accurate column is the\n\
         Figure 7 story - SoftPHY-driven adaptation tracks the oracle's choice."
    );
}
