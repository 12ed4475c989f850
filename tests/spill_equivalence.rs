//! Out-of-core equivalence suite (paper §3.3): the full shuffle operator suite and
//! GROUPBY must produce cell-for-cell identical results when the engine's
//! `memory_budget_bytes` is capped at ~1/4 of the working set versus unlimited — with
//! the spill store demonstrably engaging under the tight budget — and the store's
//! resident high-water mark must never exceed the budget by more than one band
//! (`peak <= budget + max_insert`). A concurrent-access test hammers one `SpillStore`
//! from multiple executor threads.

mod common;

use std::sync::Arc;

use df_core::algebra::{AggFunc, Aggregation, AlgebraExpr, JoinOn, JoinType, SortSpec};
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::executor::{CheckIn, ParallelExecutor};
use df_storage::spill::SpillStore;
use df_types::cell::{cell, Cell};

/// A mixed-domain frame with nulls, duplicate keys and string payload.
fn working_frame(rows: usize) -> DataFrame {
    let k: Vec<Cell> = (0..rows)
        .map(|i| {
            if i % 13 == 0 {
                Cell::Null
            } else {
                cell((i % 6) as i64)
            }
        })
        .collect();
    let v: Vec<Cell> = (0..rows).map(|i| cell((i as f64) * 0.25)).collect();
    let s: Vec<Cell> = (0..rows)
        .map(|i| cell(format!("payload-{}-{}", i % 4, i)))
        .collect();
    DataFrame::from_columns(vec!["k", "v", "s"], vec![k, v, s]).unwrap()
}

fn join_side(rows: usize) -> DataFrame {
    let k: Vec<Cell> = (0..rows).map(|i| cell((i % 9) as i64)).collect();
    let w: Vec<Cell> = (0..rows).map(|i| cell(i as i64 * 3)).collect();
    DataFrame::from_columns(vec!["k", "w"], vec![k, w]).unwrap()
}

/// The operator suite under test: every shuffle-dispatched operator plus GROUPBY.
fn suite(base: &DataFrame, other: &DataFrame) -> Vec<(&'static str, AlgebraExpr)> {
    let lit = || AlgebraExpr::literal(base.clone());
    let rhs = || AlgebraExpr::literal(other.clone());
    vec![
        (
            "SORT",
            lit().sort(SortSpec::ascending(vec![cell("k"), cell("v")])),
        ),
        (
            "DROP_DUPLICATES",
            lit().union(lit().limit(40, false)).drop_duplicates(),
        ),
        ("DIFFERENCE", lit().difference(lit().limit(70, false))),
        (
            "JOIN",
            lit().join(rhs(), JoinOn::Columns(vec![cell("k")]), JoinType::Outer),
        ),
        (
            "GROUPBY",
            lit().group_by(
                vec![cell("k")],
                vec![
                    Aggregation::count_rows(),
                    Aggregation::of("v", AggFunc::Sum).with_alias("v_sum"),
                    Aggregation::of("v", AggFunc::Mean).with_alias("v_mean"),
                    Aggregation::of("s", AggFunc::Min).with_alias("s_min"),
                ],
                false,
            ),
        ),
    ]
}

fn config(threads: usize) -> ModinConfig {
    ModinConfig::default()
        .with_threads(threads)
        .with_partition_size(32, 8)
        // Force the full shuffle machinery for the binary operators.
        .with_broadcast_threshold(0)
}

#[test]
fn capped_budget_matches_unlimited_and_spills() {
    let base = working_frame(320);
    let other = join_side(96);
    // The working set of these queries is dominated by the base literal; a quarter of
    // it forces the store to spill aggressively.
    let budget = base.approx_size_bytes() / 4;
    for threads in [1, 4] {
        for (name, expr) in suite(&base, &other) {
            let unlimited = ModinEngine::with_config(config(threads));
            let expected = unlimited.execute_collect(&expr).unwrap();

            let bounded = ModinEngine::with_config(config(threads).with_memory_budget(budget));
            let got = bounded.execute_collect(&expr).unwrap();
            assert!(
                got.same_data(&expected),
                "{name} (threads={threads}) diverged under the capped budget"
            );

            let stats = bounded.spill_stats();
            assert!(
                stats.spill_outs > 0,
                "{name} (threads={threads}) never spilled: {stats:?}"
            );
            assert!(
                stats.load_backs > 0,
                "{name} (threads={threads}) never loaded back: {stats:?}"
            );
            // The acceptance bound: resident bytes may exceed the budget only by the
            // band(s) currently being inserted — one per worker thread, exactly one
            // in the sequential case — never by unbounded accumulation.
            assert!(
                stats.peak_memory_bytes <= budget + threads * stats.max_insert_bytes,
                "{name} (threads={threads}) peak {} exceeds budget {budget} + {threads} bands of {}",
                stats.peak_memory_bytes,
                stats.max_insert_bytes
            );
            // Unlimited engines report zeroed spill stats.
            assert_eq!(unlimited.spill_stats().spill_outs, 0);
        }
    }
}

/// The four operators that used to assemble their whole input (unstable SORT, GROUPBY
/// with `Std`, TOLABELS, FROMLABELS) now hold the budget like everything else: on a
/// frame four times the budget they never fall back, their peak stays within one
/// band per worker of the budget, and they still equal the reference — `Std`
/// bit for bit.
#[test]
fn operators_that_left_the_fallback_hold_the_budget() {
    let base = working_frame(320);
    let budget = base.approx_size_bytes() / 4;
    let lit = || AlgebraExpr::literal(base.clone());
    let retired: Vec<(&str, AlgebraExpr)> = vec![
        (
            "SORT[unstable request]",
            lit().sort(SortSpec {
                by: vec![cell("k")],
                ascending: vec![true],
                stable: false,
            }),
        ),
        (
            "GROUPBY[std]",
            lit().group_by(
                vec![cell("k")],
                vec![Aggregation::of("v", AggFunc::Std).with_alias("v_std")],
                false,
            ),
        ),
        ("TOLABELS", lit().to_labels("s")),
        ("FROMLABELS", lit().to_labels("s").from_labels("s")),
    ];
    for threads in [1, 4] {
        for (name, expr) in &retired {
            let expected = df_core::engine::ReferenceEngine
                .execute_collect(expr)
                .unwrap();
            let bounded = ModinEngine::with_config(config(threads).with_memory_budget(budget));
            let got = bounded.execute_collect(expr).unwrap();
            assert!(
                common::identical(&got, &expected),
                "{name} (threads={threads}) diverged from the reference"
            );
            assert_eq!(
                bounded.fallbacks_dispatched(),
                0,
                "{name} (threads={threads}) assembled its input"
            );
            let stats = bounded.spill_stats();
            assert!(stats.spill_outs > 0, "{name} never spilled: {stats:?}");
            assert!(
                stats.peak_memory_bytes <= budget + threads * stats.max_insert_bytes,
                "{name} (threads={threads}) peak {} exceeds budget {budget} + {threads} bands of {}",
                stats.peak_memory_bytes,
                stats.max_insert_bytes
            );
        }
    }
}

#[test]
fn engine_frees_spilled_partitions_when_results_are_consumed() {
    let base = working_frame(200);
    let budget = base.approx_size_bytes() / 4;
    let engine = ModinEngine::with_config(config(2).with_memory_budget(budget));
    let expr = AlgebraExpr::literal(base).sort(SortSpec::ascending(vec![cell("v")]));
    let result = engine.execute_collect(&expr).unwrap();
    assert_eq!(result.n_rows(), 200);
    // `execute` consumes the result grid, so every store entry created along the way
    // has been dropped again: the session store holds nothing between statements.
    let stats = engine.spill_stats();
    assert_eq!(
        stats.in_memory + stats.spilled,
        0,
        "store leaked partitions: {stats:?}"
    );
}

#[test]
fn spill_store_survives_concurrent_executor_access() {
    // Many executor threads hammer one tight store with interleaved put/get/take
    // cycles; every frame must round-trip intact and the store must end empty.
    let store = Arc::new(SpillStore::new(512).unwrap());
    let executor = ParallelExecutor::new(8);
    // 64 zero-input, zero-output driver-local items of the executor's one entry point.
    let items = (0..64).map(|_| Vec::new()).collect();
    let results = executor
        .run_stage("test.store_cycle", CheckIn::Frame, items, |tag, _| {
            let frame = DataFrame::from_columns(
                vec!["id", "name"],
                vec![
                    (0..20).map(|i| cell((tag * 1000 + i) as i64)).collect(),
                    (0..20).map(|i| cell(format!("row-{tag}-{i}"))).collect(),
                ],
            )
            .unwrap();
            let id = store.put(frame.clone()).unwrap();
            // Read it back twice (forcing load-backs under contention), then consume.
            let first = store.get(id).unwrap();
            assert!(first.same_data(&frame), "concurrent get corrupted a frame");
            let second = store.take(id).unwrap();
            assert!(
                second.same_data(&frame),
                "concurrent take corrupted a frame"
            );
            assert!(store.get(id).is_err(), "taken id still resolves");
            Ok((Vec::new(), tag))
        })
        .unwrap();
    assert_eq!(results.len(), 64);
    let stats = store.stats();
    assert_eq!(stats.in_memory + stats.spilled, 0, "store not drained");
    assert!(
        stats.spill_outs > 0,
        "tight concurrent store never spilled: {stats:?}"
    );
    // Eight writers → up to eight in-flight insertions above the budget.
    assert!(stats.peak_memory_bytes <= 512 + 8 * stats.max_insert_bytes);
}
