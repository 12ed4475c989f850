//! Ablation (§5.1): the cost of schema induction and the value of deferring it.
//!
//! The workload ingests the *raw* (untyped string) taxi trace and runs a pipeline
//! whose operators are type-agnostic (null-mask map, positional selection, groupby
//! count). Three arms are measured:
//!
//! * modin, which always defers induction — `S` never runs for this pipeline;
//! * baseline, eager induction (pandas behaviour) — `S` + parsing re-run per operator;
//! * baseline, induction disabled — isolates how much of the baseline's cost is
//!   schema work versus copies.
//!
//! The per-arm schema-induction scan counter (from `df-types`) is reported alongside
//! wall-clock time.

use df_baseline::{BaselineConfig, BaselineEngine};
use df_bench::{render_table, time_once, BenchRecord};
use df_core::algebra::{Aggregation, AlgebraExpr, MapFunc, Predicate};
use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_types::cell::cell;
use df_types::{induction_scan_count, reset_induction_scan_count};
use df_workloads::{generate_raw, TaxiConfig};

fn pipeline(taxi: &df_core::dataframe::DataFrame) -> AlgebraExpr {
    AlgebraExpr::literal(taxi.clone())
        .map(MapFunc::FillNull(cell("0")))
        .select(Predicate::PositionRange {
            start: 0,
            end: taxi.n_rows(),
        })
        .group_by(
            vec![cell("passenger_count")],
            vec![Aggregation::count_rows()],
            false,
        )
}

fn main() {
    let rows = df_bench::env_usize("DF_BENCH_SCHEMA_ROWS", df_bench::smoke_scaled(20_000, 500));
    let taxi = generate_raw(&TaxiConfig {
        base_rows: rows,
        ..TaxiConfig::default()
    })
    .expect("workload generation");
    let expr = pipeline(&taxi);

    let arms: Vec<(&str, Box<dyn Engine>)> = vec![
        (
            "modin (deferred S)",
            Box::new(ModinEngine::with_config(
                ModinConfig::default().with_partition_size(8_192, 8),
            )),
        ),
        (
            "baseline (eager S)",
            Box::new(BaselineEngine::with_config(BaselineConfig::default())),
        ),
        (
            "baseline (no S)",
            Box::new(BaselineEngine::with_config(BaselineConfig {
                eager_schema_induction: false,
                ..BaselineConfig::default()
            })),
        ),
    ];

    let mut records = Vec::new();
    for (name, engine) in &arms {
        reset_induction_scan_count();
        let (result, elapsed) = time_once(|| engine.execute_collect(&expr));
        let scans = induction_scan_count();
        let shape = result.expect("pipeline executes").shape();
        records.push(BenchRecord {
            experiment: "abl-schema".to_string(),
            system: (*name).to_string(),
            parameter: format!("{rows} raw rows"),
            seconds: Some(elapsed.as_secs_f64()),
            note: format!("induction scans={scans}, out={shape:?}"),
        });
    }
    println!(
        "{}",
        render_table(
            "Ablation: schema induction deferral on an untyped pipeline (paper §5.1)",
            &records
        )
    );
}
