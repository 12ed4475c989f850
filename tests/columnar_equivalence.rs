//! Columnar differential suite: the typed column-block layout must be invisible.
//!
//! Typed column blocks are the engine's only block layout, and predicate evaluation,
//! groupby accumulation, sort comparison and shuffle hashing all run off typed
//! buffers. Two things keep that honest on randomly generated mixed-type frames:
//!
//! * **Engine vs reference**: every Table 1 operator produces the reference
//!   executor's result on `ModinEngine`, across thread counts {1, 4} and memory
//!   budgets {unlimited, working-set/4}.
//! * **Kernel vs oracle**: `ReferenceEngine` calls the same `df_core::ops` kernels, so
//!   it cannot catch a kernel that is wrong everywhere. Each typed kernel is therefore
//!   also checked against a row-at-a-time oracle that shares no scan code with it —
//!   `group_by_rowwise` / `drop_duplicates_rowwise`, `Predicate::matches` over
//!   materialised rows, a sort by `Cell::sort_cmp`, and bucket assignment by
//!   `Cell::hash_key`.
//!
//! The byte-level properties of the block frame live in `tests/block_codec.rs`.

mod common;

use std::hash::Hasher;

use proptest::prelude::*;

use common::identical;

use df_core::algebra::{
    AggFunc, Aggregation, AlgebraExpr, CmpOp, ColumnSelector, JoinOn, JoinType, MapFunc, Predicate,
    RowView, SortSpec, WindowFunc,
};
use df_core::dataframe::DataFrame;
use df_core::engine::{Engine, ReferenceEngine};
use df_core::ops;
use df_engine::backend::BandTask;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::shuffle::ShuffleKey;
use df_types::cell::{cell, Cell, StableHasher};
use df_types::domain::Domain;
use df_workloads::{random_frame, RandomFrameConfig};

/// Every Table 1 operator, each as one pipeline over the same base literal.
fn table1_suite(base: &DataFrame, other: &DataFrame) -> Vec<(&'static str, AlgebraExpr)> {
    let lit = || AlgebraExpr::literal(base.clone());
    let rhs = || AlgebraExpr::literal(other.clone());
    vec![
        (
            "SELECTION",
            lit().select(Predicate::ColCmp {
                column: cell("int_0"),
                op: CmpOp::Gt,
                value: cell(0),
            }),
        ),
        (
            "PROJECTION",
            lit().project(ColumnSelector::ByLabels(vec![cell("int_0"), cell("cat_0")])),
        ),
        ("UNION", lit().union(lit().limit(23, false))),
        ("DIFFERENCE", lit().difference(lit().limit(31, false))),
        (
            "JOIN",
            lit().join(rhs(), JoinOn::Columns(vec![cell("int_0")]), JoinType::Outer),
        ),
        ("DROP_DUPLICATES", lit().union(lit()).drop_duplicates()),
        (
            "GROUPBY",
            lit().group_by(
                vec![cell("cat_0")],
                vec![
                    Aggregation::count_rows(),
                    Aggregation::of("int_0", AggFunc::Sum).with_alias("i_sum"),
                    Aggregation::of("float_0", AggFunc::Mean).with_alias("f_mean"),
                    Aggregation::of("float_0", AggFunc::Min).with_alias("f_min"),
                    Aggregation::of("int_0", AggFunc::Max).with_alias("i_max"),
                ],
                false,
            ),
        ),
        (
            "SORT",
            lit().sort(SortSpec::ascending(vec![cell("cat_0"), cell("float_0")])),
        ),
        (
            "RENAME",
            lit().rename(vec![(cell("int_0"), cell("renamed"))]),
        ),
        ("MAP", lit().map(MapFunc::FillNull(cell(-1)))),
        (
            "WINDOW",
            lit().window(
                ColumnSelector::ByLabels(vec![cell("int_0")]),
                WindowFunc::CumSum,
            ),
        ),
        ("TRANSPOSE", lit().transpose().map(MapFunc::IsNullMask)),
        (
            "TO/FROM_LABELS",
            lit().to_labels("cat_0").from_labels("cat_back"),
        ),
        ("LIMIT", lit().limit(17, true)),
    ]
}

fn config(threads: usize, budget: Option<usize>) -> ModinConfig {
    let config = ModinConfig::default()
        .with_threads(threads)
        .with_partition_size(24, 4)
        // Force the full shuffle machinery for the binary operators.
        .with_broadcast_threshold(0);
    match budget {
        Some(bytes) => config.with_memory_budget(bytes),
        None => config,
    }
}

/// A random frame dressed up so every typed layout and its edge values occur: a
/// declared `category` column (dictionary codes), a boolean column, a column mixing
/// ints with strings (no typed layout), and `-0.0` / `0.0` / NaN among the floats
/// (`Cell::sort_cmp` orders NaN after every number, so it rides in sort keys too).
fn kernel_frame(rows: usize, seed: u64, null_fraction: f64) -> DataFrame {
    let base = random_frame(&RandomFrameConfig {
        rows,
        int_cols: 2,
        float_cols: 2,
        category_cols: 2,
        null_fraction,
        seed,
    })
    .unwrap();
    let mut labels: Vec<Cell> = base.col_labels().as_slice().to_vec();
    let mut columns: Vec<Vec<Cell>> = base.columns().iter().map(|c| c.cells().to_vec()).collect();
    for (i, slot) in columns[2].iter_mut().enumerate() {
        match (i + seed as usize) % 11 {
            0 => *slot = cell(f64::NAN),
            1 => *slot = cell(-0.0),
            2 => *slot = cell(0.0),
            _ => {}
        }
    }
    labels.push(cell("flag"));
    columns.push(
        columns[0]
            .iter()
            .map(|c| c.as_i64().map_or(Cell::Null, |v| cell(v % 2 == 0)))
            .collect(),
    );
    labels.push(cell("mixed"));
    columns.push(
        (0..rows)
            .map(|i| {
                if i % 3 == 0 {
                    cell("x")
                } else {
                    cell((i % 5) as i64)
                }
            })
            .collect(),
    );
    let mut frame = DataFrame::from_columns(labels, columns).unwrap();
    frame.columns_mut()[5].declare_domain(Domain::Category);
    frame
}

/// The key sets the kernel properties group, sort and hash on: each typed layout on
/// its own, the untyped fallbacks, and combinations.
const KEY_SETS: &[&[&str]] = &[
    &["int_0"],
    &["float_0"],
    &["cat_0"],
    &["cat_1"],
    &["flag"],
    &["mixed"],
    &["cat_1", "int_1"],
    &["float_0", "flag", "mixed"],
    &[],
];

fn keys(names: &[&str]) -> Vec<Cell> {
    names.iter().map(|name| cell(*name)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Engine vs reference: random frames, every Table 1 operator, threads {1, 4} ×
    // budgets {unlimited, working-set/4}.
    #[test]
    fn table1_operators_match_the_reference_engine(
        rows in 40usize..140,
        seed in 0u64..10_000,
        null_fraction in 0.0f64..0.35,
    ) {
        let base = random_frame(&RandomFrameConfig {
            rows,
            int_cols: 2,
            float_cols: 2,
            category_cols: 1,
            null_fraction,
            seed,
        }).unwrap();
        let other = random_frame(&RandomFrameConfig {
            rows: rows / 2,
            int_cols: 2,
            float_cols: 1,
            category_cols: 1,
            null_fraction,
            seed: seed.wrapping_add(1),
        }).unwrap();
        let budget = base.approx_size_bytes() / 4;
        for (name, expr) in table1_suite(&base, &other) {
            let expected = ReferenceEngine.execute_collect(&expr).unwrap();
            for threads in [1usize, 4] {
                for budget in [None, Some(budget)] {
                    let got = ModinEngine::with_config(config(threads, budget))
                        .execute_collect(&expr)
                        .unwrap();
                    // GROUPBY partial sums may re-associate floats across bands;
                    // everything else moves cells verbatim and must be bit-exact.
                    let agrees = if name == "GROUPBY" {
                        got.approx_same_data(&expected, 1e-9)
                    } else {
                        got.same_data(&expected)
                    };
                    prop_assert!(
                        agrees,
                        "{name} diverged from the reference (threads={threads}, \
                         budget={budget:?}, rows={rows}, seed={seed})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn typed_group_by_matches_the_rowwise_oracle(
        rows in 0usize..120,
        seed in 0u64..10_000,
        null_fraction in 0.0f64..0.5,
    ) {
        let frame = kernel_frame(rows, seed, null_fraction);
        let aggs = vec![
            Aggregation::count_rows(),
            Aggregation::of("int_0", AggFunc::Sum).with_alias("sum"),
            Aggregation::of("float_1", AggFunc::Mean).with_alias("mean"),
            Aggregation::of("float_0", AggFunc::Std).with_alias("std"),
            Aggregation::of("float_0", AggFunc::Min).with_alias("min"),
            Aggregation::of("cat_1", AggFunc::Max).with_alias("max"),
            Aggregation::of("flag", AggFunc::CountNonNull).with_alias("nn"),
            Aggregation::of("mixed", AggFunc::First).with_alias("first"),
            Aggregation::of("int_1", AggFunc::Collect).with_alias("all"),
        ];
        for names in KEY_SETS {
            for keys_as_labels in [false, true] {
                let typed = ops::group::group_by(&frame, &keys(names), &aggs, keys_as_labels).unwrap();
                let oracle =
                    ops::group::group_by_rowwise(&frame, &keys(names), &aggs, keys_as_labels).unwrap();
                prop_assert!(
                    identical(&typed, &oracle),
                    "group_by on {names:?} diverged (rows={rows}, seed={seed})\n{typed}\nvs\n{oracle}"
                );
            }
        }
    }

    #[test]
    fn typed_drop_duplicates_matches_the_rowwise_oracle(
        rows in 0usize..120,
        seed in 0u64..10_000,
        null_fraction in 0.0f64..0.5,
    ) {
        let frame = kernel_frame(rows, seed, null_fraction);
        for names in KEY_SETS.iter().filter(|names| !names.is_empty()) {
            // Narrow projections make duplicate rows common.
            let narrow = ops::rowwise::projection(&frame, &ColumnSelector::ByLabels(keys(names))).unwrap();
            let typed = ops::group::drop_duplicates(&narrow).unwrap();
            let oracle = ops::group::drop_duplicates_rowwise(&narrow).unwrap();
            prop_assert!(
                identical(&typed, &oracle),
                "drop_duplicates on {names:?} diverged (rows={rows}, seed={seed})"
            );
        }
    }

    #[test]
    fn typed_sort_matches_a_sort_cmp_sort(
        rows in 0usize..120,
        seed in 0u64..10_000,
        null_fraction in 0.0f64..0.5,
    ) {
        let frame = kernel_frame(rows, seed, null_fraction);
        for names in KEY_SETS.iter().filter(|names| !names.is_empty()) {
            let ascending: Vec<bool> = (0..names.len()).map(|k| (k + seed as usize) % 2 == 0).collect();
            let spec = SortSpec { by: keys(names), ascending: ascending.clone(), stable: true };
            let positions: Vec<usize> =
                spec.by.iter().map(|k| frame.col_position(k).unwrap()).collect();
            let mut order: Vec<usize> = (0..rows).collect();
            order.sort_by(|&a, &b| {
                positions
                    .iter()
                    .zip(&ascending)
                    .map(|(&j, &asc)| {
                        let cells = frame.columns()[j].cells();
                        let ord = cells[a].sort_cmp(&cells[b]);
                        if asc { ord } else { ord.reverse() }
                    })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let typed = ops::group::sort(&frame, &spec).unwrap();
            prop_assert!(
                identical(&typed, &frame.take_rows(&order).unwrap()),
                "sort by {names:?} diverged (rows={rows}, seed={seed})"
            );
        }
    }

    #[test]
    fn predicate_masks_match_row_at_a_time_evaluation(
        rows in 0usize..120,
        seed in 0u64..10_000,
        null_fraction in 0.0f64..0.5,
    ) {
        let frame = kernel_frame(rows, seed, null_fraction);
        let cmp = |column: &str, op: CmpOp, value: Cell| Predicate::ColCmp {
            column: cell(column),
            op,
            value,
        };
        let predicates = vec![
            cmp("int_0", CmpOp::Gt, cell(0)),
            cmp("int_1", CmpOp::Le, cell(12.5)),
            cmp("float_0", CmpOp::Eq, cell(0.0)),
            cmp("float_0", CmpOp::Ne, cell(f64::NAN)),
            cmp("cat_1", CmpOp::Ge, cell("beta")),
            cmp("flag", CmpOp::Eq, cell(true)),
            cmp("mixed", CmpOp::Lt, cell(3)),
            cmp("mixed", CmpOp::Eq, cell("x")),
            cmp("int_0", CmpOp::Eq, Cell::Null),
            cmp("no_such_column", CmpOp::Eq, cell(1)),
            Predicate::IsNull { column: cell("float_1") },
            Predicate::Not(Box::new(Predicate::NotNull { column: cell("cat_0") })),
            Predicate::And(
                Box::new(cmp("int_0", CmpOp::Lt, cell(50))),
                Box::new(Predicate::Or(
                    Box::new(cmp("flag", CmpOp::Eq, cell(false))),
                    Box::new(Predicate::PositionRange { start: 3, end: 40 }),
                )),
            ),
        ];
        for predicate in &predicates {
            let keep: Vec<usize> = (0..rows)
                .filter(|&i| {
                    let row = frame.row(i).unwrap();
                    predicate.matches(i, RowView {
                        col_labels: frame.col_labels().as_slice(),
                        row_label: frame.row_labels().get(i).unwrap_or(&Cell::Null),
                        cells: &row,
                    })
                })
                .collect();
            let masked = ops::rowwise::selection(&frame, predicate).unwrap();
            prop_assert!(
                identical(&masked, &frame.take_rows(&keep).unwrap()),
                "selection by {predicate:?} diverged (rows={rows}, seed={seed})"
            );
        }
    }

    #[test]
    fn shuffle_buckets_follow_cell_hash_key(
        rows in 0usize..120,
        seed in 0u64..10_000,
        null_fraction in 0.0f64..0.5,
        parts in 2usize..7,
    ) {
        let frame = kernel_frame(rows, seed, null_fraction);
        for names in KEY_SETS.iter().filter(|names| !names.is_empty()) {
            let positions: Vec<usize> =
                keys(names).iter().map(|k| frame.col_position(k).unwrap()).collect();
            let mut expected: Vec<Vec<usize>> = vec![Vec::new(); parts];
            for i in 0..rows {
                let mut hasher = StableHasher::default();
                for &j in &positions {
                    frame.columns()[j].cells()[i].hash_key(&mut hasher);
                }
                expected[(hasher.finish() % parts as u64) as usize].push(i);
            }
            let split = BandTask::HashSplit { key: ShuffleKey::Positions(positions), parts };
            let buckets = split.run(vec![frame.clone()]).unwrap();
            prop_assert_eq!(buckets.len(), parts);
            for (bucket, rows_of) in buckets.iter().zip(&expected) {
                prop_assert!(
                    identical(bucket, &frame.take_rows(rows_of).unwrap()),
                    "bucket assignment on {names:?} diverged (rows={rows}, seed={seed})"
                );
            }
        }
    }
}
