//! Table 1: the 14-operator dataframe algebra.
//!
//! The paper's Table 1 is a definition table rather than a measurement, so this target
//! does three things: (1) it prints the operator roster with its properties as a
//! conformance check, (2) it wall-clock-times every operator once at a
//! configurable scale (`DF_BENCH_TABLE1_ROWS`, default 30k; `DF_BENCH_TABLE1_THREADS`,
//! default 4) and emits the records to the `DF_BENCH_JSON` snapshot so the perf
//! trajectory is tracked per PR, and (3) it micro-benchmarks every operator on the
//! scalable engine with Criterion over a small fixed workload.

use criterion::Criterion;

use df_bench::{render_table, time_once, BenchRecord};
use df_core::algebra::{
    AggFunc, Aggregation, AlgebraExpr, CmpOp, ColumnSelector, JoinOn, JoinType, MapFunc, Predicate,
    SortSpec, WindowFunc,
};
use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_types::cell::cell;
use df_workloads::{generate_typed, TaxiConfig};

fn operator_expressions(rows: usize) -> Vec<(&'static str, AlgebraExpr)> {
    let taxi = generate_typed(&TaxiConfig {
        base_rows: rows,
        ..TaxiConfig::default()
    })
    .expect("workload generation");
    let small = taxi.head(200);
    let base = AlgebraExpr::literal(taxi);
    let small_base = AlgebraExpr::literal(small);
    vec![
        (
            "SELECTION",
            base.clone().select(Predicate::ColCmp {
                column: cell("fare_amount"),
                op: CmpOp::Gt,
                value: cell(20.0),
            }),
        ),
        (
            "PROJECTION",
            base.clone().project(ColumnSelector::ByLabels(vec![
                cell("vendor_id"),
                cell("fare_amount"),
            ])),
        ),
        ("UNION", base.clone().union(small_base.clone())),
        ("DIFFERENCE", base.clone().difference(small_base.clone())),
        (
            "CROSS_PRODUCT",
            small_base
                .clone()
                .limit(40, false)
                .cross(small_base.clone().limit(40, false)),
        ),
        (
            "JOIN",
            base.clone().join(
                small_base.clone(),
                JoinOn::Columns(vec![cell("vendor_id")]),
                JoinType::Inner,
            ),
        ),
        ("DROP_DUPLICATES", base.clone().drop_duplicates()),
        (
            "GROUPBY",
            base.clone().group_by(
                vec![cell("passenger_count")],
                vec![
                    Aggregation::count_rows(),
                    Aggregation::of("fare_amount", AggFunc::Mean).with_alias("mean_fare"),
                ],
                false,
            ),
        ),
        (
            "SORT",
            base.clone()
                .sort(SortSpec::ascending(vec![cell("fare_amount")])),
        ),
        (
            "RENAME",
            base.clone()
                .rename(vec![(cell("vendor_id"), cell("vendor"))]),
        ),
        (
            "WINDOW",
            base.clone().window(
                ColumnSelector::ByLabels(vec![cell("fare_amount")]),
                WindowFunc::CumSum,
            ),
        ),
        ("TRANSPOSE", base.clone().transpose()),
        ("MAP", base.clone().map(MapFunc::IsNullMask)),
        ("TOLABELS", base.clone().to_labels("vendor_id")),
        ("FROMLABELS", base.from_labels("trip_id")),
    ]
}

fn print_table1() {
    println!("== Table 1: dataframe algebra operators ==");
    println!(
        "{:<16} {:<10} {:<8} {:<8}",
        "operator", "schema", "origin", "order"
    );
    let rows = [
        ("SELECTION", "static", "REL", "parent"),
        ("PROJECTION", "static", "REL", "parent"),
        ("UNION", "static", "REL", "parent"),
        ("DIFFERENCE", "static", "REL", "parent"),
        ("CROSS/JOIN", "static", "REL", "parent"),
        ("DROP_DUPLICATES", "static", "REL", "parent"),
        ("GROUPBY", "static", "REL", "new"),
        ("SORT", "static", "REL", "new"),
        ("RENAME", "static", "REL", "parent"),
        ("WINDOW", "static", "SQL", "parent"),
        ("TRANSPOSE", "dynamic", "DF", "parent"),
        ("MAP", "dynamic", "DF", "parent"),
        ("TOLABELS", "dynamic", "DF", "parent"),
        ("FROMLABELS", "dynamic", "DF", "parent"),
    ];
    for (op, schema, origin, order) in rows {
        println!("{op:<16} {schema:<10} {origin:<8} {order:<8}");
    }
    println!();
}

/// Wall-clock one execution of every operator at measurement scale. The records keep
/// the `column-block` system label they have carried since typed column blocks became
/// the engine's layout, so the snapshot's history stays comparable.
fn timing_pass() -> Vec<BenchRecord> {
    let rows = df_bench::env_usize("DF_BENCH_TABLE1_ROWS", df_bench::smoke_scaled(30_000, 500));
    let threads = df_bench::env_usize("DF_BENCH_TABLE1_THREADS", 4);
    let mut records = Vec::new();
    for (name, expr) in operator_expressions(rows) {
        let engine = ModinEngine::with_config(
            ModinConfig::default()
                .with_threads(threads)
                .with_partition_size((rows / 8).max(512), 8),
        );
        let (result, elapsed) = time_once(|| engine.execute_collect(&expr));
        let result = result.expect("operator executes");
        records.push(BenchRecord {
            experiment: format!("table1/{name}"),
            system: "column-block".to_string(),
            parameter: format!("{rows} rows"),
            seconds: Some(elapsed.as_secs_f64()),
            note: format!(
                "out={:?}, threads={threads}, shuffles={}, fallbacks={}",
                result.shape(),
                engine.shuffles_dispatched(),
                engine.fallbacks_dispatched()
            ),
        });
    }
    records
}

fn bench_operators(c: &mut Criterion) {
    let engine = ModinEngine::with_config(ModinConfig::default().with_partition_size(512, 8));
    let mut group = c.benchmark_group("table1_operators");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800));
    for (name, expr) in operator_expressions(2_000) {
        group.bench_function(name, |b| {
            b.iter(|| {
                engine
                    .execute_collect(std::hint::black_box(&expr))
                    .expect("operator executes")
            })
        });
    }
    group.finish();
}

fn main() {
    print_table1();
    let records = timing_pass();
    println!(
        "{}",
        render_table("Table 1 operators: wall-clock per execution", &records)
    );
    df_bench::emit_json_env(&records);
    let mut criterion = Criterion::default().configure_from_args();
    bench_operators(&mut criterion);
}
