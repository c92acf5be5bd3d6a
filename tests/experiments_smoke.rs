//! Smoke test of the complete experiment suite through the public facade:
//! every experiment runs at its small preset, produces a well-formed table,
//! and renders in all output formats. This is the test CI would run to
//! guarantee `pgrid exp all --small` cannot break silently.

use pgrid::sim::experiments::*;
use pgrid::sim::Table;

fn check_table(table: &Table, min_rows: usize) {
    assert!(!table.title.is_empty());
    assert!(
        table.rows.len() >= min_rows,
        "{}: too few rows",
        table.title
    );
    for row in &table.rows {
        assert_eq!(
            row.len(),
            table.headers.len(),
            "{}: ragged row",
            table.title
        );
        assert!(row.iter().all(|c| !c.is_empty() || row.len() > 3));
    }
    // All renderings must succeed and contain the data.
    let text = table.render();
    let csv = table.to_csv();
    let md = table.to_markdown();
    let json = table.to_json();
    let probe = &table.rows[0][0];
    assert!(text.contains(probe.trim()));
    assert!(csv.contains(probe.trim()));
    assert!(md.contains(probe.trim()));
    assert!(json.contains(probe.trim()));
}

#[test]
fn construction_tables_smoke() {
    check_table(&t1::run(&t1::Config::small()).1, 4);
    check_table(&t2::run(&t2::Config::small()).1, 6);
    check_table(&t3::run(&t3::Config::small()).1, 4);
    check_table(&t4t5::run(&t4t5::Config::small()).1, 6);
}

#[test]
fn evaluation_figures_smoke() {
    let (_, table, built) = f4::run(&f4::Config::small());
    check_table(&table, 3);
    built.grid.check_invariants().unwrap();
    check_table(&s52_search::run(&s52_search::Config::small()).1, 4);
    check_table(&f5::run(&f5::Config::small()).1, 9);
}

#[test]
fn tradeoff_and_scaling_smoke() {
    check_table(&t6::run(&t6::Config::small()).1, 4);
    check_table(&s6_scaling::run(&s6_scaling::Config::small()).1, 3);
    check_table(&flooding::run(&flooding::Config::small()).1, 2);
}

#[test]
fn extension_experiments_smoke() {
    check_table(&skew::run(&skew::Config::small()).1, 3);
    check_table(&repair::run(&repair::Config::small()).1, 3);
    check_table(&selfstab::run(&selfstab::Config::small()).1, 2);
    check_table(&timeline::run(&timeline::Config::small()).1, 3);
    check_table(&caching::run(&caching::Config::small()).1, 3);
    check_table(&latency::run(&latency::Config::small()).1, 3);
    check_table(&ablation::run(&ablation::Config::small()).1, 3);
    check_table(&mixed::run(&mixed::Config::small()).1, 8);
}

#[test]
fn sizing_smoke() {
    let table = sizing::run(&pgrid::core::GridSizing::gnutella_example());
    check_table(&table, 6);
}

#[test]
fn experiments_are_deterministic_through_the_facade() {
    let a = t1::run(&t1::Config::small()).1.to_csv();
    let b = t1::run(&t1::Config::small()).1.to_csv();
    assert_eq!(a, b);
    let a = f5::run(&f5::Config::small()).1.to_csv();
    let b = f5::run(&f5::Config::small()).1.to_csv();
    assert_eq!(a, b);
}
