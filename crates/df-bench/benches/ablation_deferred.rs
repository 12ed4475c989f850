//! Ablation (§6.1): deferred execution across statement boundaries under the
//! handle-based narrow waist.
//!
//! A four-statement chained pipeline (filter → join → groupby → sort, typed as
//! separate `PandasFrame` statements) runs under eager and lazy scheduling, each at
//! memory budgets {∞, ws/4}. Eager sessions execute every statement on submit but
//! cross each boundary as a partitioned handle (no assembly, no re-partitioning of
//! the prefix); lazy sessions defer the whole chain to the final collect and execute
//! it as one plan. Each arm's result is asserted cell-for-cell identical to the
//! eager/unlimited ground truth, and the notes report the session and engine
//! counters (executions, handle reuses, assemblies, spill-outs).

use std::sync::Arc;

use df_bench::{render_table, time_once, BenchRecord};
use df_core::algebra::{AggFunc, Aggregation, JoinType};
use df_core::dataframe::DataFrame;
use df_engine::engine::ModinConfig;
use df_engine::session::EvalMode;
use df_pandas::{PandasFrame, Session};
use df_types::cell::cell;
use df_workloads::{generate_typed, TaxiConfig};

fn lookup() -> DataFrame {
    let keys: Vec<df_types::cell::Cell> = (0..8).map(|i| cell(i as i64)).collect();
    let names: Vec<df_types::cell::Cell> = (0..8).map(|i| cell(format!("group-{i}"))).collect();
    DataFrame::from_columns(vec!["passenger_count", "group_name"], vec![keys, names]).unwrap()
}

/// The chained pipeline, one `PandasFrame` statement per step; returns the final
/// statement's materialised result.
fn run_pipeline(session: &Arc<Session>, taxi: &DataFrame) -> DataFrame {
    let trips = PandasFrame::from_dataframe(session, taxi.clone());
    let dims = PandasFrame::from_dataframe(session, lookup());
    let filtered = trips.filter_gt("fare_amount", 12.0).expect("filter");
    let joined = filtered.merge_on(&dims, &["passenger_count"], JoinType::Inner);
    let grouped = joined.groupby_agg(
        &["group_name"],
        vec![
            Aggregation::count_rows(),
            Aggregation::of("fare_amount", AggFunc::Sum).with_alias("fare_sum"),
        ],
        false,
    );
    let sorted = grouped.sort_values(&["group_name"], true);
    sorted.collect().expect("pipeline collects")
}

fn main() {
    let rows = df_bench::env_usize(
        "DF_BENCH_DEFERRED_ROWS",
        df_bench::smoke_scaled(20_000, 400),
    );
    let threads = df_bench::env_usize(
        "DF_BENCH_DEFERRED_THREADS",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    let taxi = generate_typed(&TaxiConfig {
        base_rows: rows,
        ..TaxiConfig::default()
    })
    .expect("workload generation");
    let working_set = taxi.approx_size_bytes();
    let budgets: Vec<(&str, Option<usize>)> = vec![("inf", None), ("ws/4", Some(working_set / 4))];

    let mut records = Vec::new();
    let mut ground_truth: Option<DataFrame> = None;
    for (label, budget) in &budgets {
        for mode in [EvalMode::Eager, EvalMode::Lazy] {
            let mut config = ModinConfig::default()
                .with_threads(threads)
                .with_partition_size((rows / 16).max(256), 8);
            if let Some(bytes) = budget {
                config = config.with_memory_budget(*bytes);
            }
            let session = Session::modin_with(config, mode);
            let (result, elapsed) = time_once(|| run_pipeline(&session, &taxi));
            // Every arm must agree with the eager/unlimited ground truth.
            match &ground_truth {
                None => ground_truth = Some(result.clone()),
                Some(expected) => assert!(
                    result.same_data(expected),
                    "{mode:?}/budget={label} diverged from the eager in-memory run"
                ),
            }
            let stats = session.stats();
            let engine = session.modin_engine().expect("modin session");
            let spill = session.spill_stats().unwrap_or_default();
            records.push(BenchRecord {
                experiment: "abl-deferred/pipeline".to_string(),
                system: format!("{mode:?}"),
                parameter: format!("budget={label}"),
                seconds: Some(elapsed.as_secs_f64()),
                note: format!(
                    "rows={rows}, out={:?}, execs={}, handle_reuses={}, assemblies={}, spill_outs={}",
                    result.shape(),
                    stats.executions,
                    engine.handles_reused(),
                    engine.assemblies_dispatched(),
                    spill.spill_outs,
                ),
            });
        }
    }
    println!(
        "{}",
        render_table(
            "Ablation: deferred execution across statement boundaries (paper §6.1)",
            &records
        )
    );
    println!(
        "eager sessions execute per statement but cross each boundary as a partitioned \
         handle; lazy sessions run the whole chain as one plan at collect. Both agree \
         cell-for-cell with the eager in-memory run at every budget."
    );
    df_bench::emit_json_env(&records);
}
