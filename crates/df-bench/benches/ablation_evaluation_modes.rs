//! Ablation (§6.1): eager vs lazy vs opportunistic evaluation, and prefix-prioritised
//! inspection.
//!
//! The scripted workload mimics the paper's interactive session: a chain of statements
//! is "typed" with think-time between them, most intermediate results are only ever
//! inspected through `head()`, and one intermediate is revisited at the end. Eager
//! evaluation pays for every statement in full; lazy defers everything to the
//! inspection points; opportunistic overlaps computation with think time and serves
//! revisits from the materialisation cache.

use std::time::Duration;

use df_bench::{render_table, time_once, BenchRecord};
use df_core::algebra::{Aggregation, AlgebraExpr, CmpOp, MapFunc, Predicate};
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::session::{EvalMode, QuerySession};
use df_engine::{PlanKey, ResultCache};
use df_types::cell::cell;
use df_workloads::{generate_typed, TaxiConfig};

fn scripted_session(
    mode: EvalMode,
    taxi: &df_core::dataframe::DataFrame,
    think_ms: u64,
) -> (f64, String) {
    let engine = std::sync::Arc::new(ModinEngine::with_config(
        ModinConfig::default().with_partition_size(8_192, 8),
    ));
    let cache = std::sync::Arc::new(ResultCache::with_budget(None));
    let session =
        QuerySession::with_shared_state(engine, mode, std::sync::Arc::clone(&cache), None, None);
    let think = Duration::from_millis(think_ms);
    let base = AlgebraExpr::literal(taxi.clone());
    let cleaned = base.clone().map(MapFunc::FillNull(cell(0)));
    let filtered = cleaned.clone().select(Predicate::ColCmp {
        column: cell("fare_amount"),
        op: CmpOp::Gt,
        value: cell(20.0),
    });
    let grouped = filtered.clone().group_by(
        vec![cell("passenger_count")],
        vec![Aggregation::count_rows()],
        false,
    );
    let ((), elapsed) = time_once(|| {
        // Statement 1: clean, glance at the first rows, think.
        session.submit(&PlanKey::of(&cleaned)).unwrap();
        session.head(&PlanKey::of(&cleaned), 5).unwrap();
        std::thread::sleep(think);
        // Statement 2: filter, glance, think.
        session.submit(&PlanKey::of(&filtered)).unwrap();
        session.head(&PlanKey::of(&filtered), 5).unwrap();
        std::thread::sleep(think);
        // Statement 3: aggregate and actually inspect the full result.
        session.submit(&PlanKey::of(&grouped)).unwrap();
        session.collect(&PlanKey::of(&grouped)).unwrap();
        // Revisit an earlier intermediate (trial-and-error loop).
        session.collect(&PlanKey::of(&filtered)).unwrap();
    });
    let stats = session.stats();
    (
        elapsed.as_secs_f64(),
        format!(
            "executions={}, cache_hits={}, background={}, single_flight_waits={}",
            stats.executions,
            stats.cache_hits,
            stats.background_started,
            cache.stats().single_flight_waits
        ),
    )
}

fn main() {
    let rows = df_bench::env_usize("DF_BENCH_SESSION_ROWS", df_bench::smoke_scaled(40_000, 500));
    let think_ms = df_bench::env_usize("DF_BENCH_THINK_MS", df_bench::smoke_scaled(150, 5)) as u64;
    let taxi = generate_typed(&TaxiConfig {
        base_rows: rows,
        ..TaxiConfig::default()
    })
    .expect("workload generation");
    let mut records = Vec::new();
    for mode in [EvalMode::Eager, EvalMode::Lazy, EvalMode::Opportunistic] {
        let (seconds, note) = scripted_session(mode, &taxi, think_ms);
        records.push(BenchRecord {
            experiment: "abl-eval-mode".to_string(),
            system: format!("{mode:?}"),
            parameter: format!("{rows} rows, think {think_ms}ms"),
            seconds: Some(seconds),
            note,
        });
    }
    println!(
        "{}",
        render_table(
            "Ablation: evaluation modes over an interactive session (paper §6.1)",
            &records
        )
    );
    println!(
        "wall-clock includes the scripted think time; opportunistic evaluation overlaps \
         background execution with it and serves the revisited statement from cache."
    );
}
