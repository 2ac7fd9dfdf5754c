//! Aligned text tables over result sets.

use super::ScenarioResult;

/// Renders the cell-level metrics of a result set as an aligned table;
/// point-to-point scenarios are skipped.
pub fn render_cell_table(results: &[ScenarioResult]) -> String {
    let mut out = format!(
        "{:<52} {:>8} {:>6} {:>7} {:>7} {:>8} {:>9}\n",
        "scenario", "goodput", "jain", "coll%", "idle%", "attempts", "delivered"
    );
    for r in results {
        let Some(c) = &r.cell else { continue };
        out.push_str(&format!(
            "{:<52} {:>8.3} {:>6.3} {:>6.1}% {:>6.1}% {:>8} {:>9}\n",
            r.label,
            c.aggregate_goodput(),
            c.jain_index(),
            100.0 * c.collision_fraction(),
            100.0 * c.idle_fraction(),
            c.attempts(),
            c.per_node.iter().map(|n| n.delivered).sum::<u64>(),
        ));
    }
    out
}

/// Renders the link-layer metrics of a result set as an aligned table;
/// PHY-only scenarios are skipped.
pub fn render_link_table(results: &[ScenarioResult]) -> String {
    let mut out = format!(
        "{:<50} {:>8} {:>7} {:>9} {:>8} {:>8} {:>17}\n",
        "scenario", "goodput", "retx", "delivered", "gave up", "Mbps", "under/acc/over"
    );
    for r in results {
        let Some(m) = &r.link else { continue };
        out.push_str(&format!(
            "{:<50} {:>8.3} {:>6.1}% {:>9} {:>8} {:>8.1} {:>5}/{:>5}/{:>5}\n",
            r.label,
            m.goodput(),
            100.0 * m.retransmit_fraction(),
            m.delivered,
            m.gave_up,
            m.mean_selected_mbps(),
            m.under,
            m.accurate,
            m.over
        ));
    }
    out
}

/// Renders a result set as an aligned table (label, BER, PER, predicted).
pub fn render_table(results: &[ScenarioResult]) -> String {
    let mut out = format!(
        "{:<44} {:>12} {:>9} {:>12}\n",
        "scenario", "BER", "PER", "pred. PBER"
    );
    for r in results {
        out.push_str(&format!(
            "{:<44} {:>12.3e} {:>8.1}% {:>12.3e}\n",
            r.label,
            r.ber(),
            100.0 * r.per(),
            r.mean_predicted_pber()
        ));
    }
    out
}
