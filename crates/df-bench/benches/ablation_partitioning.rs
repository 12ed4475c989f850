//! Ablation (§3.1): row vs column vs block partitioning.
//!
//! The paper motivates flexible partitioning by noting that some operators are
//! embarrassingly parallel over rows (map, selection) while others (transpose,
//! column-wise work) prefer column or block partitioning. This target runs a per-cell
//! map, a groupby and a transpose-then-map query under each partitioning scheme and
//! reports the cost, plus how many blocks the metadata transpose deferred.

use df_bench::{render_table, time_once, BenchRecord};
use df_core::algebra::{Aggregation, AlgebraExpr, MapFunc};
use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::partition::PartitionScheme;
use df_types::cell::cell;
use df_workloads::{generate_typed, TaxiConfig};

fn main() {
    let rows = df_bench::env_usize(
        "DF_BENCH_ABLATION_ROWS",
        df_bench::smoke_scaled(30_000, 500),
    );
    let threads = df_bench::env_usize(
        "DF_BENCH_ABLATION_THREADS",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    let taxi = generate_typed(&TaxiConfig {
        base_rows: rows,
        ..TaxiConfig::default()
    })
    .expect("workload generation");
    let queries: Vec<(&str, AlgebraExpr)> = vec![
        (
            "map",
            AlgebraExpr::literal(taxi.clone()).map(MapFunc::IsNullMask),
        ),
        (
            "groupby_n",
            AlgebraExpr::literal(taxi.clone()).group_by(
                vec![cell("passenger_count")],
                vec![Aggregation::count_rows()],
                false,
            ),
        ),
        (
            "transpose+map",
            AlgebraExpr::literal(taxi.clone())
                .transpose()
                .map(MapFunc::IsNullMask),
        ),
    ];
    let mut records = Vec::new();
    for scheme in [
        PartitionScheme::Row,
        PartitionScheme::Column,
        PartitionScheme::Block,
    ] {
        let engine = ModinEngine::with_config(
            ModinConfig::default()
                .with_threads(threads)
                .with_scheme(scheme)
                .with_partition_size((rows / 8).max(1024), 4),
        );
        for (name, expr) in &queries {
            let shuffles_before = engine.shuffles_dispatched();
            let (result, elapsed) = time_once(|| engine.execute_collect(expr));
            let shape = result.expect("query executes").shape();
            let shuffles = engine.shuffles_dispatched() - shuffles_before;
            records.push(BenchRecord {
                experiment: format!("abl-partition/{name}"),
                system: format!("{scheme:?}"),
                parameter: format!("{rows} rows"),
                seconds: Some(elapsed.as_secs_f64()),
                note: format!("out={shape:?}, threads={threads}, shuffles={shuffles}"),
            });
        }
        // Show that TRANSPOSE itself stays metadata-only regardless of scheme.
        let grid = engine
            .execute_partitioned(&AlgebraExpr::literal(taxi.clone()).transpose())
            .expect("partitioned transpose");
        records.push(BenchRecord {
            experiment: "abl-partition/transpose-meta".to_string(),
            system: format!("{scheme:?}"),
            parameter: format!("{} partitions", grid.n_partitions()),
            seconds: Some(0.0),
            note: format!("deferred block transposes: {}", grid.deferred_transposes()),
        });
    }
    println!(
        "{}",
        render_table(
            "Ablation: partitioning scheme vs operator cost (paper §3.1)",
            &records
        )
    );
    df_bench::emit_json_env(&records);
}
