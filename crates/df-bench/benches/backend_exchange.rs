//! Executor-backend ablation: threads vs spawned worker processes.
//!
//! The distribution-ready `ExecBackend` seam places the same band tasks either on
//! the in-process thread pool or on worker processes that receive their inputs as
//! checksummed block frames over pipes. This target runs the shuffle-dispatched
//! operator suite (JOIN, SORT, DROP_DUPLICATES, DIFFERENCE, GROUPBY) over the cross
//! of the two backends and two memory budgets (unbounded vs ws/4), asserting every
//! arm cell-for-cell identical to the threads/unbounded ground truth before its
//! record is emitted. Each procs record reports the pool's health counters
//! (workers spawned, tasks shipped remotely) next to the time, so the wire-protocol
//! overhead is attributable. When the worker binary is not built (`cargo bench`
//! without a prior workspace build), the procs arms are recorded as skipped
//! (`seconds: null`) instead of failing the target.

use df_bench::{render_table, time_once, BenchRecord};
use df_core::algebra::{AggFunc, Aggregation, AlgebraExpr, JoinOn, JoinType, SortSpec};
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_types::backend::BackendKind;
use df_types::cell::cell;
use df_workloads::taxi::{generate_typed, TaxiConfig};

fn queries(taxi: &DataFrame, lookup: &DataFrame) -> Vec<(&'static str, AlgebraExpr)> {
    let rows = taxi.n_rows();
    let base = || AlgebraExpr::literal(taxi.clone());
    vec![
        (
            "sort",
            base().sort(SortSpec::ascending(vec![cell("fare_amount")])),
        ),
        (
            "join",
            base().join(
                AlgebraExpr::literal(lookup.clone()),
                JoinOn::Columns(vec![cell("passenger_count")]),
                JoinType::Inner,
            ),
        ),
        (
            "drop_duplicates",
            base()
                .union(base().limit(rows / 4, false))
                .drop_duplicates(),
        ),
        (
            "difference",
            base().difference(base().limit(rows / 2, false)),
        ),
        (
            "groupby",
            base().group_by(
                vec![cell("passenger_count")],
                vec![
                    Aggregation::count_rows(),
                    Aggregation::of("fare_amount", AggFunc::Mean).with_alias("fare_mean"),
                ],
                false,
            ),
        ),
    ]
}

fn main() {
    let rows = df_bench::env_usize("DF_BENCH_BACKEND_ROWS", df_bench::smoke_scaled(20_000, 400));
    let threads = df_bench::env_usize(
        "DF_BENCH_BACKEND_THREADS",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    let taxi = generate_typed(&TaxiConfig {
        base_rows: rows,
        ..TaxiConfig::default()
    })
    .expect("workload generation");
    let lookup = {
        let keys: Vec<df_types::cell::Cell> = (0..8).map(|i| cell(i as i64)).collect();
        let names: Vec<df_types::cell::Cell> = (0..8).map(|i| cell(format!("group-{i}"))).collect();
        DataFrame::from_columns(vec!["passenger_count", "group_name"], vec![keys, names]).unwrap()
    };
    let working_set = taxi.approx_size_bytes();
    let budgets: Vec<(&str, Option<usize>)> = vec![("inf", None), ("ws/4", Some(working_set / 4))];

    let mut records = Vec::new();
    // Ground truth per query: the threads/unbounded run (the first arm).
    let mut ground_truth: std::collections::HashMap<&'static str, DataFrame> =
        std::collections::HashMap::new();
    for (system, kind) in [
        ("threads", BackendKind::Threads),
        ("procs", BackendKind::Procs),
    ] {
        for (label, budget) in &budgets {
            let mut config = ModinConfig::default()
                .with_threads(threads)
                .with_partition_size((rows / 16).max(256), 8)
                .with_backend(kind);
            if let Some(bytes) = budget {
                config = config.with_memory_budget(*bytes);
            }
            for (name, expr) in queries(&taxi, &lookup) {
                // A fresh engine per query keeps pool and spill stats attributable.
                let engine = match ModinEngine::try_with_config(config.clone()) {
                    Ok(engine) => engine,
                    Err(err) => {
                        records.push(BenchRecord {
                            experiment: format!("backend-exchange/{name}"),
                            system: system.to_string(),
                            parameter: format!("budget={label}"),
                            seconds: None,
                            note: format!("skipped: {err}"),
                        });
                        continue;
                    }
                };
                let (outcome, elapsed) = time_once(|| engine.execute_collect(&expr));
                let result = outcome.expect("query executes");
                // Every arm must agree with the threads/unbounded run. GROUPBY
                // means may re-associate float partials across band placements,
                // so it gets an epsilon; everything else moves cells verbatim.
                match ground_truth.get(name) {
                    None => {
                        ground_truth.insert(name, result.clone());
                    }
                    Some(expected) => {
                        let agrees = if name == "groupby" {
                            result.approx_same_data(expected, 1e-9)
                        } else {
                            result.same_data(expected)
                        };
                        assert!(
                            agrees,
                            "{name} ({system}, budget={label}) diverged from the \
                             threads/unbounded run"
                        );
                    }
                }
                let health = engine.backend_health();
                records.push(BenchRecord {
                    experiment: format!("backend-exchange/{name}"),
                    system: system.to_string(),
                    parameter: format!("budget={label}"),
                    seconds: Some(elapsed.as_secs_f64()),
                    note: format!(
                        "rows={rows}, out={:?}, ws={working_set}B, workers={}, remote_tasks={}, local_tasks={}, equivalence=asserted",
                        result.shape(),
                        health.workers_spawned,
                        health.tasks_remote,
                        health.tasks_local,
                    ),
                });
            }
        }
    }
    println!(
        "{}",
        render_table(
            "Ablation: executor backend (threads vs worker processes) vs operator cost",
            &records
        )
    );
    df_bench::emit_json_env(&records);
}
