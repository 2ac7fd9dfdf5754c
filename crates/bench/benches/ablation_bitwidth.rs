//! §4.1 ablation: demapper soft-output width.
//!
//! The paper's headline approximation: dropping the SNR/modulation factors
//! lets the demapper emit 3-8 bit soft values instead of 23-28 bits,
//! shrinking the decoder "significantly" while preserving decode
//! performance. This sweep measures what each width costs in decode BER
//! and hint quality, alongside its area.

use wilis::area::{synthesize, DecoderChoice, DecoderParams};
use wilis::channel::SnrDb;
use wilis::experiment::bits_budget;
use wilis::phy::PhyRate;
use wilis::softphy::{calibrate_hints, CalibrationConfig, DecoderKind};
use wilis_bench::banner;

fn main() {
    let bits = bits_budget(120_000);
    banner(&format!(
        "Ablation: demapper output width (QAM-16 1/2 @ 7.25 dB, BCJR, {bits} bits/point)"
    ));
    println!(
        "{:>6} {:>12} {:>14} {:>10} {:>12}",
        "width", "decode BER", "hint slope", "BMU LUTs", "decoder LUTs"
    );
    let mut previous_ber = None;
    for width in [3u32, 4, 5, 6, 8, 12, 23] {
        let cal = calibrate_hints(&CalibrationConfig {
            demapper_bits: width,
            ..CalibrationConfig::new(
                PhyRate::Qam16Half,
                DecoderKind::Bcjr,
                SnrDb::new(7.25),
                bits,
            )
        });
        let slope = cal
            .fit
            .map(|f| format!("{:+.4}", f.slope))
            .unwrap_or_else(|| "-".into());
        let params = DecoderParams {
            input_bits: width.min(28),
            metric_bits: (width + 4).min(28),
            ..DecoderParams::paper_default()
        };
        let area = synthesize(DecoderChoice::Bcjr, &params);
        let bmu = area
            .units
            .iter()
            .find(|u| u.name == "Branch Metric Unit")
            .unwrap();
        println!(
            "{:>6} {:>12.3e} {:>14} {:>10} {:>12}",
            width, cal.overall_ber, slope, bmu.area.luts, area.total.luts
        );
        previous_ber = Some(cal.overall_ber);
    }
    let _ = previous_ber;
    println!(
        "\nPaper reference: 3-8 bit inputs decode as well as the 23-28 bit exact\n\
         form (relative ordering preserved), while the area shrinks - but the\n\
         magnitude information that BER estimation needs degrades at the narrow end."
    );
}
