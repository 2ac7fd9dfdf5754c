//! Figure 8: synthesis results of BCJR, SOVA and Viterbi.
//!
//! Produced by the calibrated structural area model (`wilis-area`); see
//! that crate's documentation for what is calibrated versus predicted.

use wilis_area::SynthesisTable;

/// Runs the synthesis table at the paper's default parameters.
pub fn run() -> Vec<SynthesisTable> {
    SynthesisTable::paper_table()
}

/// Renders the table in the paper's layout.
pub fn render(tables: &[SynthesisTable]) -> String {
    let mut out = String::from(
        "Figure 8: synthesis results (paper: BCJR 32936/38420, SOVA 15114/15168, Viterbi 7569/4538)\n",
    );
    out.push_str(&format!(
        "{:<22} {:>8} {:>10}\n",
        "Module", "LUTs", "Registers"
    ));
    for t in tables {
        out.push_str(&t.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wilis_area::{synthesize, DecoderChoice, DecoderParams};

    #[test]
    fn default_table_matches_paper() {
        let tables = run();
        let txt = render(&tables);
        for expected in ["32936", "38420", "15114", "15168", "7569", "4538"] {
            assert!(txt.contains(expected), "missing {expected} in:\n{txt}");
        }
    }

    #[test]
    fn custom_params_change_areas() {
        let mut p = DecoderParams::paper_default();
        p.window = 16;
        let small = synthesize(DecoderChoice::Bcjr, &p);
        let full = run();
        assert!(small.total.registers < full[0].total.registers);
    }
}
