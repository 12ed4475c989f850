//! Ablation (§3.3): out-of-core execution under a memory budget.
//!
//! The paper's storage layer lets "intermediate dataframes exceed main-memory
//! limitations while not throwing memory errors, unlike pandas". This target runs the
//! shuffle-dispatched operator suite (JOIN, SORT, DROP_DUPLICATES, DIFFERENCE) plus
//! GROUPBY under two budgets — unbounded vs `memory_budget_bytes` capped at 1/4 of
//! the working set. The capped run is verified cell-for-cell identical to the
//! unbounded run before its record is emitted, and each record reports the spill
//! store's own statistics (spill-outs, load-backs, resident peak) next to the time.

use df_bench::{render_table, time_once, BenchRecord};
use df_core::algebra::{AggFunc, Aggregation, AlgebraExpr, JoinOn, JoinType, SortSpec};
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
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
    let rows = df_bench::env_usize("DF_BENCH_SPILL_ROWS", df_bench::smoke_scaled(20_000, 400));
    let threads = df_bench::env_usize(
        "DF_BENCH_SPILL_THREADS",
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
    // The two ablation arms: effectively-infinite budget vs a quarter of the input.
    let budgets: Vec<(&str, Option<usize>)> = vec![("inf", None), ("ws/4", Some(working_set / 4))];

    let mut records = Vec::new();
    // Ground truth per query: the unbounded run (the first arm).
    let mut ground_truth: std::collections::HashMap<&'static str, DataFrame> =
        std::collections::HashMap::new();
    for (label, budget) in &budgets {
        let mut config = ModinConfig::default()
            .with_threads(threads)
            .with_partition_size((rows / 16).max(256), 8);
        if let Some(bytes) = budget {
            config = config.with_memory_budget(*bytes);
        }
        for (name, expr) in queries(&taxi, &lookup) {
            // A fresh engine per query keeps the spill statistics attributable.
            let engine = ModinEngine::with_config(config.clone());
            let (outcome, elapsed) = time_once(|| engine.execute_collect(&expr));
            let result = outcome.expect("query executes");
            let stats = engine.spill_stats();
            match ground_truth.get(name) {
                None => {
                    ground_truth.insert(name, result.clone());
                }
                Some(expected) => assert!(
                    result.same_data(expected),
                    "{name} (budget={label}) diverged from the unbounded run"
                ),
            }
            records.push(BenchRecord {
                experiment: format!("abl-spill/{name}"),
                // The label these records have carried since typed column blocks
                // became the layout; kept so the snapshot's history stays comparable.
                system: "column-block".to_string(),
                parameter: format!("budget={label}"),
                seconds: Some(elapsed.as_secs_f64()),
                note: format!(
                    "rows={rows}, out={:?}, ws={working_set}B, spill_outs={}, load_backs={}, peak={}B, equivalence=asserted",
                    result.shape(),
                    stats.spill_outs,
                    stats.load_backs,
                    stats.peak_memory_bytes,
                ),
            });
        }
    }
    println!(
        "{}",
        render_table(
            "Ablation: out-of-core memory budget vs operator cost (paper §3.3)",
            &records
        )
    );
    df_bench::emit_json_env(&records);
}
