//! **§4 worked example — Gnutella-scale sizing** as a runnable report.

use pgrid_core::GridSizing;

use crate::{fmt_f, Table};

/// Renders the §4 worked example (and any other sizing) as a table.
pub fn run(sizing: &GridSizing) -> Table {
    let report = sizing.evaluate();
    let mut table = Table::new(
        format!(
            "S4 sizing: d_global={}, r={}B, s_peer={}B, refmax={}, p={}",
            sizing.d_global, sizing.ref_bytes, sizing.s_peer_bytes, sizing.refmax, sizing.p_online
        ),
        &["quantity", "value"],
    );
    table.push_row(vec![
        "i_peer (refs storable)".into(),
        report.i_peer.to_string(),
    ]);
    table.push_row(vec!["key length k".into(), report.key_length.to_string()]);
    table.push_row(vec!["entries used".into(), report.entries_used.to_string()]);
    table.push_row(vec!["fits budget".into(), report.fits_budget.to_string()]);
    table.push_row(vec![
        "search success probability".into(),
        fmt_f(report.success_probability, 4),
    ]);
    table.push_row(vec![
        "minimal community size".into(),
        report.min_peers.to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnutella_table_matches_paper() {
        let table = run(&GridSizing::gnutella_example());
        let text = table.render();
        assert!(text.contains("10"), "k = 10");
        assert!(text.contains("20409"), "N ≥ 20409");
        assert!(text.contains("true"), "storage budget fits");
        assert_eq!(table.rows.len(), 6);
    }
}
