//! Keeps the README's "Execution strategies" table honest: parse the table, execute
//! one expression per algebra operator on the scalable engine, and classify the
//! observed dispatch from the engine's counters (shuffles, fallbacks, deferred
//! transposes). A README row that disagrees with the engine fails here.

use std::collections::BTreeMap;

use df_core::algebra::{
    AggFunc, Aggregation, AlgebraExpr, CmpOp, ColumnSelector, JoinOn, JoinType, MapFunc, Predicate,
    SortSpec, WindowFunc,
};
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_types::cell::{cell, Cell};

fn readme_strategies() -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let readme = std::fs::read_to_string(path).expect("README.md is readable");
    let mut rows = BTreeMap::new();
    let mut in_table = false;
    for line in readme.lines() {
        let line = line.trim();
        if line.starts_with("| Operator |") {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        if !line.starts_with('|') {
            if !rows.is_empty() {
                break;
            }
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() == 2 && !cells[0].starts_with("---") {
            rows.insert(cells[0].to_string(), cells[1].to_string());
        }
    }
    rows
}

fn sample_frame(rows: usize) -> DataFrame {
    let vendor: Vec<Cell> = (0..rows)
        .map(|i| cell(if i % 2 == 0 { "CMT" } else { "VTS" }))
        .collect();
    let fare: Vec<Cell> = (0..rows).map(|i| cell(5.0 + (i % 20) as f64)).collect();
    let count: Vec<Cell> = (0..rows).map(|i| cell((i % 4) as i64)).collect();
    DataFrame::from_columns(vec!["vendor", "fare", "count"], vec![vendor, fare, count]).unwrap()
}

/// One representative expression per algebra operator (plus LIMIT).
fn operator_expressions() -> Vec<(&'static str, AlgebraExpr)> {
    let base = || AlgebraExpr::literal(sample_frame(64));
    let other = || AlgebraExpr::literal(sample_frame(24));
    vec![
        (
            "SELECTION",
            base().select(Predicate::ColCmp {
                column: cell("fare"),
                op: CmpOp::Gt,
                value: cell(10.0),
            }),
        ),
        (
            "PROJECTION",
            base().project(ColumnSelector::ByLabels(vec![cell("fare")])),
        ),
        ("UNION", base().union(other())),
        ("DIFFERENCE", base().difference(other())),
        (
            "CROSS_PRODUCT",
            base().limit(4, false).cross(other().limit(4, false)),
        ),
        (
            "JOIN",
            base().join(
                other(),
                JoinOn::Columns(vec![cell("vendor")]),
                JoinType::Inner,
            ),
        ),
        ("DROP_DUPLICATES", base().drop_duplicates()),
        (
            "GROUPBY",
            base().group_by(
                vec![cell("vendor")],
                vec![
                    Aggregation::count_rows(),
                    Aggregation::of("fare", AggFunc::Mean).with_alias("mean_fare"),
                ],
                false,
            ),
        ),
        ("SORT", base().sort(SortSpec::ascending(vec![cell("fare")]))),
        (
            "RENAME",
            base().rename(vec![(cell("vendor"), cell("vendor_id"))]),
        ),
        (
            "WINDOW",
            base().window(
                ColumnSelector::ByLabels(vec![cell("fare")]),
                WindowFunc::CumSum,
            ),
        ),
        ("TRANSPOSE", base().transpose()),
        ("MAP", base().map(MapFunc::IsNullMask)),
        ("TOLABELS", base().to_labels("vendor")),
        ("FROMLABELS", base().from_labels("row_id")),
        ("LIMIT", base().limit(7, false)),
    ]
}

#[test]
fn readme_table_matches_observed_dispatch() {
    let documented = readme_strategies();
    assert!(
        documented.len() >= 16,
        "README execution-strategies table not found or incomplete: {documented:?}"
    );
    for (name, expr) in operator_expressions() {
        let engine = ModinEngine::with_config(ModinConfig::sequential().with_partition_size(16, 2));
        let grid = engine.execute_partitioned(&expr).unwrap();
        let observed = if engine.fallbacks_dispatched() > 0 {
            "reference-fallback"
        } else if name == "TRANSPOSE" && grid.deferred_transposes() > 0 {
            "metadata-only"
        } else {
            "partition-parallel"
        };
        let expected = documented
            .get(name)
            .unwrap_or_else(|| panic!("operator {name} missing from the README table"));
        assert_eq!(
            expected,
            observed,
            "README documents {name} as {expected:?} but the engine dispatched it as \
             {observed:?} (shuffles={}, fallbacks={})",
            engine.shuffles_dispatched(),
            engine.fallbacks_dispatched()
        );
    }
}

#[test]
fn retired_fallback_edge_cases_stay_partition_parallel() {
    // A stable order is a valid answer to a non-stable SORT: no assembly.
    let engine = ModinEngine::with_config(ModinConfig::sequential().with_partition_size(16, 2));
    engine
        .execute(&AlgebraExpr::literal(sample_frame(40)).sort(SortSpec {
            by: vec![cell("vendor")],
            ascending: vec![true],
            stable: false,
        }))
        .unwrap();
    assert_eq!(engine.fallbacks_dispatched(), 0);
    assert!(engine.shuffles_dispatched() > 0);

    // Every aggregate merges, `Std` included.
    let engine = ModinEngine::with_config(ModinConfig::sequential().with_partition_size(16, 2));
    engine
        .execute(&AlgebraExpr::literal(sample_frame(40)).group_by(
            vec![cell("vendor")],
            vec![Aggregation::of("fare", AggFunc::Std).with_alias("std")],
            false,
        ))
        .unwrap();
    assert_eq!(engine.fallbacks_dispatched(), 0);
}
