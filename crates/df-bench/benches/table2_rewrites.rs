//! Table 2: pandas operators that rewrite one-to-one into algebra operators, plus the
//! §4.4 compositions.
//!
//! The target prints the rewrite catalogue (the paper's table) and then *verifies* each
//! one-to-one rewrite empirically: the pandas-style method and the hand-built algebra
//! expression are executed on both engines and compared cell-for-cell, with timings.

use df_baseline::BaselineEngine;
use df_bench::{render_table, time_once, BenchRecord};
use df_core::algebra::{AlgebraExpr, MapFunc};
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;
use df_engine::engine::ModinEngine;
use df_pandas::{extended_rewrites, render_catalogue, table2_rewrites, PandasFrame, Session};
use df_types::cell::Cell;
use df_workloads::{generate_typed, TaxiConfig};

/// The expression the pandas-style API builds for a Table 2 operator (the rewrite under
/// test). Each engine executes this expression *and* the hand-built algebra expression,
/// so the equivalence check is per engine and independent of how eagerly that engine
/// types its inputs.
fn pandas_side(frame: &PandasFrame, op: &str) -> AlgebraExpr {
    match op {
        "fillna" => frame.fillna(0).expr().clone(),
        "isnull" => frame.isnull().expr().clone(),
        "transpose" => frame.transpose().expr().clone(),
        "set_index" => frame.set_index("vendor_id").expr().clone(),
        "reset_index" => frame.reset_index("row_id").expr().clone(),
        other => panic!("unknown table-2 operator {other}"),
    }
}

fn algebra_side(base: &AlgebraExpr, op: &str, engine: &dyn Engine) -> DataFrame {
    let expr = match op {
        "fillna" => base.clone().map(MapFunc::FillNull(Cell::Int(0))),
        "isnull" => base.clone().map(MapFunc::IsNullMask),
        "transpose" => base.clone().transpose(),
        "set_index" => base.clone().to_labels("vendor_id"),
        "reset_index" => base.clone().from_labels("row_id"),
        other => panic!("unknown table-2 operator {other}"),
    };
    engine
        .execute_collect(&expr)
        .expect("algebra-side rewrite executes")
}

fn main() {
    println!("== Table 2: one-to-one rewrites ==");
    print!("{}", render_catalogue(&table2_rewrites()));
    println!();
    println!("== Section 4.4: composite rewrites ==");
    print!("{}", render_catalogue(&extended_rewrites()));
    println!();

    let taxi = generate_typed(&TaxiConfig {
        base_rows: df_bench::env_usize("DF_BENCH_TABLE2_ROWS", df_bench::smoke_scaled(4_000, 300)),
        ..TaxiConfig::default()
    })
    .expect("workload generation");
    let session = Session::modin();
    let frame = PandasFrame::from_dataframe(&session, taxi.clone());
    let base = AlgebraExpr::literal(taxi);
    let modin = ModinEngine::new();
    let baseline = BaselineEngine::new();

    let mut records = Vec::new();
    for rewrite in table2_rewrites() {
        let api_expr = pandas_side(&frame, rewrite.pandas_op);
        for (system, engine) in [
            ("modin-engine", &modin as &dyn Engine),
            ("pandas-baseline", &baseline as &dyn Engine),
        ] {
            let via_api = engine
                .execute_collect(&api_expr)
                .expect("API-built expression executes");
            let (result, elapsed) = time_once(|| algebra_side(&base, rewrite.pandas_op, engine));
            let equivalent = result.same_data(&via_api);
            records.push(BenchRecord {
                experiment: "tab2-rewrite".to_string(),
                system: system.to_string(),
                parameter: rewrite.pandas_op.to_string(),
                seconds: Some(elapsed.as_secs_f64()),
                note: format!(
                    "algebra={}, equivalent_to_api={}",
                    match rewrite.kind {
                        df_pandas::RewriteKind::OneToOne { algebra_op } => algebra_op,
                        _ => "composition",
                    },
                    equivalent
                ),
            });
        }
    }
    println!(
        "{}",
        render_table("Table 2: rewrite equivalence and cost per engine", &records)
    );
    assert!(
        records
            .iter()
            .all(|r| r.note.contains("equivalent_to_api=true")),
        "every Table 2 rewrite must be equivalent to the pandas-style API result"
    );
}
