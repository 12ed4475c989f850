//! Differential suite for the shuffle subsystem: the partition-parallel JOIN,
//! GROUPBY (every aggregate, `Std` included), SORT (whatever stability is requested),
//! DROP_DUPLICATES and DIFFERENCE must match the baseline engine
//! cell-for-cell on random mixed-domain frames, across thread counts {1, 4}, all
//! three partition schemes, and both the broadcast and the forced-shuffle join paths.

mod common;

use proptest::prelude::*;

use common::identical;

use df_baseline::BaselineEngine;
use df_core::algebra::{AggFunc, Aggregation, AlgebraExpr, JoinOn, JoinType, SortSpec};
use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::partition::PartitionScheme;
use df_engine::session::EvalMode;
use df_pandas::{PandasFrame, Session};
use df_types::cell::{cell, Cell};
use df_workloads::{random_frame, RandomFrameConfig};

/// The shuffle-dispatched pipelines, parameterised by a small integer.
fn pipeline(choice: u8, base: AlgebraExpr, other: AlgebraExpr) -> AlgebraExpr {
    match choice % 10 {
        0 => base.join(other, JoinOn::Columns(vec![cell("cat_0")]), JoinType::Inner),
        1 => base.join(other, JoinOn::Columns(vec![cell("cat_0")]), JoinType::Left),
        2 => base.join(other, JoinOn::Columns(vec![cell("cat_0")]), JoinType::Outer),
        3 => base.sort(SortSpec::ascending(vec![cell("cat_0"), cell("float_0")])),
        4 => base.sort(SortSpec {
            by: vec![cell("int_0"), cell("cat_0")],
            ascending: vec![false, true],
            stable: true,
        }),
        // UNION against a prefix of itself manufactures duplicate rows to drop.
        5 => base.clone().union(base.limit(13, false)).drop_duplicates(),
        6 => base.clone().difference(other),
        // A request that does not need stability gets the stable order all the same.
        8 => base.sort(SortSpec {
            by: vec![cell("cat_0")],
            ascending: vec![true],
            stable: false,
        }),
        // Std merges from collected values: bit-identical to the single-pass kernel.
        9 => base.group_by(
            vec![cell("cat_0")],
            vec![
                Aggregation::of("float_0", AggFunc::Std).with_alias("std"),
                Aggregation::of("int_0", AggFunc::Collect).with_alias("all"),
            ],
            false,
        ),
        _ => base.group_by(
            vec![cell("cat_0")],
            vec![
                Aggregation::count_rows(),
                Aggregation::of("float_0", AggFunc::Sum).with_alias("sum"),
                Aggregation::of("int_0", AggFunc::Mean).with_alias("mean"),
                Aggregation::of("float_1", AggFunc::Min).with_alias("min"),
            ],
            false,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shuffled_operators_match_the_baseline_engine(
        rows in 0usize..90,
        other_rows in 0usize..40,
        seed in 0u64..10_000,
        null_fraction in 0.0f64..0.4,
        choice in 0u8..10,
    ) {
        let frame = random_frame(&RandomFrameConfig {
            rows,
            null_fraction,
            seed,
            ..RandomFrameConfig::default()
        })
        .unwrap();
        let other = random_frame(&RandomFrameConfig {
            rows: other_rows,
            null_fraction,
            seed: seed.wrapping_add(1),
            ..RandomFrameConfig::default()
        })
        .unwrap();
        let expr = pipeline(
            choice,
            AlgebraExpr::literal(frame),
            AlgebraExpr::literal(other),
        );
        let expected = BaselineEngine::new().execute_collect(&expr).unwrap();
        for threads in [1usize, 4] {
            for scheme in [
                PartitionScheme::Row,
                PartitionScheme::Column,
                PartitionScheme::Block,
            ] {
                // Broadcast threshold 0 forces the co-partitioning shuffle for the
                // binary operators; the default keeps the broadcast fast path.
                for broadcast in [0usize, 4096] {
                    let engine = ModinEngine::with_config(
                        ModinConfig::default()
                            .with_threads(threads)
                            .with_scheme(scheme)
                            .with_partition_size(16, 3)
                            .with_broadcast_threshold(broadcast),
                    );
                    let result = engine.execute_collect(&expr).unwrap();
                    // GROUPBY partial sums may re-associate floats across bands;
                    // everything else moves cells verbatim and must be bit-exact.
                    let agrees = if choice % 10 == 7 {
                        result.approx_same_data(&expected, 1e-9)
                    } else {
                        result.same_data(&expected)
                    };
                    prop_assert!(
                        agrees,
                        "pipeline {choice} diverged (threads={threads}, scheme={scheme:?}, \
                         broadcast={broadcast})\nexpected:\n{expected}\ngot:\n{result}"
                    );
                    prop_assert!(
                        engine.fallbacks_dispatched() == 0,
                        "pipeline {choice} used the fallback path"
                    );
                }
            }
        }
    }
}

/// SORT and GROUPBY order their keys with `Cell::sort_cmp`; under `total_cmp` a NaN
/// compared `Equal` to every number, which is no total order — `sort_by` may panic
/// on it, and range splitters chosen under it send equal keys to different buckets.
#[test]
fn nan_bearing_float_keys_sort_and_group_like_the_reference() {
    let rows = 240usize;
    let key: Vec<Cell> = (0..rows)
        .map(|i| match i % 7 {
            0 => cell(f64::NAN),
            1 => Cell::Null,
            2 => cell(-0.0),
            _ => cell(((i * 37) % 23) as f64 - 11.0),
        })
        .collect();
    let id: Vec<Cell> = (0..rows).map(|i| cell(i as i64)).collect();
    let frame =
        df_core::dataframe::DataFrame::from_columns(vec!["key", "id"], vec![key, id]).unwrap();
    let statements = |session: &std::sync::Arc<Session>| {
        let base = PandasFrame::from_dataframe(session, frame.clone());
        let aggs = vec![
            Aggregation::count_rows(),
            Aggregation::of("id", AggFunc::Sum).with_alias("ids"),
        ];
        [
            base.sort_values(&["key"], true).collect().unwrap(),
            base.sort_values(&["key"], false).collect().unwrap(),
            base.groupby_agg(&["key"], aggs, false).collect().unwrap(),
        ]
    };
    let expected = statements(&Session::reference());
    // Ascending: every number, then the NaNs, then the nulls — ties in input order.
    let sorted_keys = expected[0].columns()[0].cells();
    let first_nan = sorted_keys
        .iter()
        .position(|c| c.as_f64().is_some_and(f64::is_nan));
    let first_null = sorted_keys.iter().position(Cell::is_null);
    assert_eq!((first_nan, first_null), (Some(rows - 70), Some(rows - 35)));
    assert!(sorted_keys[..rows - 70]
        .windows(2)
        .all(|w| w[0].as_f64() <= w[1].as_f64()));
    for threads in [1usize, 4] {
        let config = ModinConfig::default()
            .with_threads(threads)
            .with_partition_size(16, 3);
        let got = statements(&Session::modin_with(config, EvalMode::Lazy));
        for (statement, (got, expected)) in got.iter().zip(&expected).enumerate() {
            assert!(
                identical(got, expected),
                "statement {statement} diverged at threads={threads}\nexpected:\n{expected}\ngot:\n{got}"
            );
        }
    }
}
