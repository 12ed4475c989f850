//! Differential testing: the pandas-like baseline and the MODIN-like engine must agree
//! with the reference executor cell-for-cell on randomly generated frames and
//! pipelines. This is the workspace's core correctness argument: the scalable engine
//! may partition, parallelise, defer and rewrite however it likes, but the visible
//! semantics are pinned by `df-core::ops`.
//!
//! The second half is the **holey-grid matrix**: every operator downstream of a filter
//! that empties whole row bands (the first, a middle and the last; or all of them),
//! and positional predicates anywhere in a predicate tree — the two shapes a stage
//! that rolled its own band lifecycle used to get wrong.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::identical;

use df_baseline::BaselineEngine;
use df_core::algebra::{
    AggFunc, Aggregation, AlgebraExpr, CmpOp, ColumnSelector, JoinOn, JoinType, MapFunc, Predicate,
    SortSpec, WindowFunc,
};
use df_core::dataframe::DataFrame;
use df_core::engine::{Engine, ReferenceEngine};
use df_core::{ScanCsv, ScanOptions};
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::partition::PartitionScheme;
use df_engine::session::EvalMode;
use df_pandas::{PandasFrame, Session};
use df_types::backend::BackendKind;
use df_types::cell::{cell, Cell};
use df_workloads::{random_frame, RandomFrameConfig};

/// The pipelines exercised by the differential test, parameterised by a small integer.
fn pipeline(choice: u8, base: AlgebraExpr) -> AlgebraExpr {
    match choice % 8 {
        0 => base.map(MapFunc::IsNullMask),
        1 => base.select(Predicate::ColCmp {
            column: cell("int_0"),
            op: CmpOp::Gt,
            value: cell(0),
        }),
        2 => base.group_by(
            vec![cell("cat_0")],
            vec![
                Aggregation::count_rows(),
                Aggregation::of("float_0", AggFunc::Sum).with_alias("sum"),
                Aggregation::of("float_0", AggFunc::Mean).with_alias("mean"),
            ],
            false,
        ),
        3 => base.transpose().map(MapFunc::FillNull(cell(0))),
        4 => base.sort(SortSpec::ascending(vec![cell("int_0"), cell("float_0")])),
        5 => base
            .clone()
            .select(Predicate::NotNull {
                column: cell("int_0"),
            })
            .window(
                ColumnSelector::ByLabels(vec![cell("int_0")]),
                WindowFunc::CumSum,
            ),
        6 => base
            .to_labels("cat_0")
            .from_labels("cat_0_restored")
            .drop_duplicates(),
        _ => base.map(MapFunc::FillNull(cell(1))).limit(7, false),
    }
}

fn engines() -> (BaselineEngine, ModinEngine, ModinEngine) {
    (
        BaselineEngine::new(),
        ModinEngine::with_config(ModinConfig::sequential().with_partition_size(16, 3)),
        ModinEngine::with_config(
            ModinConfig::default()
                .with_threads(3)
                .with_partition_size(16, 3),
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_pipelines(
        rows in 0usize..120,
        seed in 0u64..10_000,
        null_fraction in 0.0f64..0.4,
        choice in 0u8..8,
    ) {
        let frame = random_frame(&RandomFrameConfig {
            rows,
            int_cols: 2,
            float_cols: 2,
            category_cols: 1,
            null_fraction,
            seed,
        })
        .unwrap();
        let expr = pipeline(choice, AlgebraExpr::literal(frame));
        let reference = ReferenceEngine.execute_collect(&expr).unwrap();
        let (baseline, modin_seq, modin_par) = engines();
        let baseline_result = baseline.execute_collect(&expr).unwrap();
        let modin_seq_result = modin_seq.execute_collect(&expr).unwrap();
        let modin_par_result = modin_par.execute_collect(&expr).unwrap();
        // Float aggregates may be re-associated across partitions, so the comparison
        // allows a tiny relative tolerance on numeric cells.
        prop_assert!(baseline_result.approx_same_data(&reference, 1e-9),
            "baseline disagrees with reference for pipeline {choice}");
        prop_assert!(modin_seq_result.approx_same_data(&reference, 1e-9),
            "sequential modin disagrees with reference for pipeline {choice}");
        prop_assert!(modin_par_result.approx_same_data(&reference, 1e-9),
            "parallel modin disagrees with reference for pipeline {choice}");
    }

    #[test]
    fn prefix_execution_agrees_with_full_execution(
        rows in 1usize..150,
        seed in 0u64..10_000,
        k in 1usize..20,
    ) {
        let frame = random_frame(&RandomFrameConfig {
            rows,
            seed,
            ..RandomFrameConfig::default()
        })
        .unwrap();
        let expr = AlgebraExpr::literal(frame).map(MapFunc::IsNullMask);
        let engine = ModinEngine::with_config(ModinConfig::sequential().with_partition_size(16, 3));
        let full = engine.execute_collect(&expr).unwrap();
        let prefix = engine.execute_prefix(&expr, k).unwrap();
        let suffix = engine.execute_suffix(&expr, k).unwrap();
        prop_assert!(prefix.same_data(&full.head(k)));
        prop_assert!(suffix.same_data(&full.tail(k)));
    }
}

#[test]
fn engines_agree_on_joins_and_unions() {
    let left = random_frame(&RandomFrameConfig {
        rows: 40,
        seed: 1,
        ..RandomFrameConfig::default()
    })
    .unwrap();
    let right = random_frame(&RandomFrameConfig {
        rows: 25,
        seed: 2,
        ..RandomFrameConfig::default()
    })
    .unwrap();
    let (baseline, modin_seq, modin_par) = engines();
    for expr in [
        AlgebraExpr::literal(left.clone()).union(AlgebraExpr::literal(right.clone())),
        AlgebraExpr::literal(left.clone()).difference(AlgebraExpr::literal(right.clone())),
        AlgebraExpr::literal(left.clone()).join(
            AlgebraExpr::literal(right.clone()),
            df_core::algebra::JoinOn::Columns(vec![cell("cat_0")]),
            df_core::algebra::JoinType::Inner,
        ),
        AlgebraExpr::literal(left.head(6)).cross(AlgebraExpr::literal(right.head(4))),
    ] {
        let reference = ReferenceEngine.execute_collect(&expr).unwrap();
        assert!(baseline
            .execute_collect(&expr)
            .unwrap()
            .same_data(&reference));
        assert!(modin_seq
            .execute_collect(&expr)
            .unwrap()
            .same_data(&reference));
        assert!(modin_par
            .execute_collect(&expr)
            .unwrap()
            .same_data(&reference));
    }
}

// ---------------------------------------------------------------------------
// Holey grids and positional predicates
// ---------------------------------------------------------------------------

/// 96 rows in 16-row bands: `id` = row number (what the hole filters cut on), a
/// null-bearing low-cardinality key, an integer-valued float (so partial sums cannot
/// re-associate into different bits) and a mixed-case string with nulls.
fn holey_base() -> DataFrame {
    let rows = 96usize;
    let id: Vec<Cell> = (0..rows).map(|i| cell(i as i64)).collect();
    let k: Vec<Cell> = (0..rows)
        .map(|i| match i % 11 {
            0 => Cell::Null,
            _ => cell((i % 5) as i64),
        })
        .collect();
    let v: Vec<Cell> = (0..rows).map(|i| cell(((i * 7) % 40) as f64)).collect();
    let s: Vec<Cell> = (0..rows)
        .map(|i| match i % 9 {
            0 => Cell::Null,
            _ => cell(format!("Row-{}", i % 6)),
        })
        .collect();
    DataFrame::from_columns(vec!["id", "k", "v", "s"], vec![id, k, v, s]).unwrap()
}

fn id_cmp(op: CmpOp, value: i64) -> Predicate {
    Predicate::ColCmp {
        column: cell("id"),
        op,
        value: cell(value),
    }
}

fn and(a: Predicate, b: Predicate) -> Predicate {
    Predicate::And(Box::new(a), Box::new(b))
}

fn or(a: Predicate, b: Predicate) -> Predicate {
    Predicate::Or(Box::new(a), Box::new(b))
}

/// The hole filters: `(name, predicate)`. In 16-row bands the first keeps ids
/// 16..48 and 64..80 — emptying the first band, a middle one and the last — and the
/// second keeps nothing at all.
fn holes() -> Vec<(&'static str, Predicate)> {
    vec![
        (
            "first+middle+last",
            or(
                and(id_cmp(CmpOp::Ge, 16), id_cmp(CmpOp::Lt, 48)),
                and(id_cmp(CmpOp::Ge, 64), id_cmp(CmpOp::Lt, 80)),
            ),
        ),
        ("all", id_cmp(CmpOp::Lt, 0)),
    ]
}

/// Every Table-1 operator (plus `head`/`tail`/`iloc`-style slices, UNION, RENAME and
/// `T → isna → T`) over `holey`, a frame some of whose bands are empty.
fn downstream(holey: &AlgebraExpr, other: &AlgebraExpr) -> Vec<(&'static str, AlgebraExpr)> {
    let h = || holey.clone();
    let o = || other.clone();
    let std = || Aggregation::of("v", AggFunc::Std).with_alias("v_std");
    let collect = || Aggregation::of("v", AggFunc::Collect).with_alias("v_all");
    let on_k = || JoinOn::Columns(vec![cell("k")]);
    let per_cell = MapFunc::PerCell {
        name: "tag".into(),
        func: Arc::new(|c| match c {
            Cell::Null => cell("∅"),
            other => other.clone(),
        }),
    };
    vec![
        ("SELECTION", h().select(id_cmp(CmpOp::Ge, 30))),
        (
            "SELECTION[slice]",
            h().select(Predicate::PositionRange { start: 5, end: 25 }),
        ),
        (
            "SELECTION[pos∧val]",
            h().select(and(
                Predicate::PositionRange { start: 5, end: 25 },
                id_cmp(CmpOp::Lt, 70),
            )),
        ),
        (
            "PROJECTION",
            h().project(ColumnSelector::ByLabels(vec![cell("v"), cell("id")])),
        ),
        ("UNION", h().union(o())),
        ("UNION[reversed]", o().union(h())),
        ("DIFFERENCE", h().difference(o())),
        ("DIFFERENCE[reversed]", o().difference(h())),
        ("CROSS_PRODUCT", h().cross(o().limit(3, false))),
        ("JOIN[inner]", h().join(o(), on_k(), JoinType::Inner)),
        ("JOIN[left]", h().join(o(), on_k(), JoinType::Left)),
        ("JOIN[outer]", h().join(o(), on_k(), JoinType::Outer)),
        (
            "JOIN[outer,reversed]",
            o().join(h(), on_k(), JoinType::Outer),
        ),
        (
            "JOIN[labels]",
            h().to_labels("id")
                .join(o().to_labels("id"), JoinOn::RowLabels, JoinType::Outer),
        ),
        (
            "DROP_DUPLICATES",
            h().project(ColumnSelector::ByLabels(vec![cell("k"), cell("s")]))
                .drop_duplicates(),
        ),
        (
            "GROUPBY",
            h().group_by(
                vec![cell("k")],
                vec![
                    Aggregation::count_rows(),
                    Aggregation::of("v", AggFunc::Sum).with_alias("v_sum"),
                    Aggregation::of("v", AggFunc::Mean).with_alias("v_mean"),
                    Aggregation::of("s", AggFunc::Min).with_alias("s_min"),
                    Aggregation::of("id", AggFunc::Last).with_alias("id_last"),
                ],
                false,
            ),
        ),
        (
            "GROUPBY[std]",
            h().group_by(vec![cell("k")], vec![std()], false),
        ),
        (
            "GROUPBY[std+collect]",
            h().group_by(vec![cell("k")], vec![collect(), std()], false),
        ),
        (
            "GROUPBY[std,no keys]",
            h().group_by(vec![], vec![std(), collect()], false),
        ),
        (
            "GROUPBY[std,keys as labels]",
            h().group_by(vec![cell("k"), cell("s")], vec![std()], true),
        ),
        (
            "SORT",
            h().sort(SortSpec::ascending(vec![cell("k"), cell("v")])),
        ),
        (
            "SORT[unstable request]",
            h().sort(SortSpec {
                by: vec![cell("k")],
                ascending: vec![false],
                stable: false,
            }),
        ),
        ("RENAME", h().rename(vec![(cell("v"), cell("value"))])),
        (
            "WINDOW",
            h().window(
                ColumnSelector::ByLabels(vec![cell("v")]),
                WindowFunc::CumSum,
            ),
        ),
        ("TRANSPOSE", h().transpose()),
        ("MAP[isna]", h().map(MapFunc::IsNullMask)),
        ("MAP[fillna]", h().map(MapFunc::FillNull(cell(0)))),
        ("MAP[upper]", h().map(MapFunc::StrUpper)),
        ("MAP[lower]", h().map(MapFunc::StrLower)),
        ("MAP[+c]", h().map(MapFunc::NumericAdd(1.5))),
        ("MAP[*c]", h().map(MapFunc::NumericMul(-2.0))),
        ("MAP[per cell]", h().map(per_cell)),
        (
            "T→isna→T",
            h().transpose().map(MapFunc::IsNullMask).transpose(),
        ),
        ("TOLABELS", h().to_labels("s")),
        ("FROMLABELS", h().from_labels("old_label")),
        (
            "set_index→reset_index",
            h().to_labels("id").from_labels("id"),
        ),
        (
            "reset_index→set_index",
            h().from_labels("old_label").to_labels("old_label"),
        ),
        ("LIMIT[head]", h().limit(20, false)),
        ("LIMIT[tail]", h().limit(20, true)),
        ("LIMIT[head 0]", h().limit(0, false)),
    ]
}

fn assert_holey_matrix(label: &str, make_engine: impl Fn() -> ModinEngine) {
    let base = AlgebraExpr::literal(holey_base());
    let other = AlgebraExpr::literal(holey_base().slice_rows(40, 75));
    for (hole, predicate) in holes() {
        let holey = base.clone().select(predicate);
        for (name, expr) in downstream(&holey, &other) {
            let expected = ReferenceEngine.execute_collect(&expr).unwrap();
            let got = make_engine()
                .execute_collect(&expr)
                .unwrap_or_else(|err| panic!("{name} over hole `{hole}` failed on {label}: {err}"));
            // Cells, row labels and column labels, floats by bit pattern.
            assert!(
                identical(&got, &expected),
                "{name} over hole `{hole}` diverged on {label}\nexpected:\n{expected}\ngot:\n{got}"
            );
        }
    }
}

#[test]
fn every_operator_matches_the_reference_downstream_of_emptied_bands() {
    let ws = holey_base().approx_size_bytes();
    for threads in [1usize, 4] {
        for budget in [None, Some(ws / 4)] {
            for scheme in [
                PartitionScheme::Row,
                PartitionScheme::Block,
                PartitionScheme::Column,
            ] {
                assert_holey_matrix(
                    &format!("threads={threads} budget={budget:?} scheme={scheme:?}"),
                    || {
                        let mut config = ModinConfig::default()
                            .with_threads(threads)
                            .with_scheme(scheme)
                            .with_partition_size(16, 2)
                            // Half the matrix's binary operators shuffle, half broadcast.
                            .with_broadcast_threshold(if threads == 1 { 0 } else { 4096 });
                        if let Some(bytes) = budget {
                            config = config.with_memory_budget(bytes);
                        }
                        ModinEngine::with_config(config)
                    },
                );
            }
        }
    }
}

#[test]
fn every_operator_matches_the_reference_downstream_of_emptied_bands_on_procs() {
    std::env::set_var("DF_WORKER_BIN", env!("CARGO_BIN_EXE_df-band-worker"));
    assert_holey_matrix("procs threads=2", || {
        ModinEngine::try_with_config(
            ModinConfig::default()
                .with_threads(2)
                .with_partition_size(16, 2)
                .with_broadcast_threshold(0)
                .with_backend(BackendKind::Procs),
        )
        .expect("process backend engine")
    });
}

/// The sessions a pandas-level statement is checked under: every evaluation mode, on
/// both backends, at threads {1, 4} and budgets {∞, 2 KiB}.
fn pandas_sessions() -> Vec<(String, Arc<Session>)> {
    std::env::set_var("DF_WORKER_BIN", env!("CARGO_BIN_EXE_df-band-worker"));
    let mut sessions = Vec::new();
    for backend in [BackendKind::Threads, BackendKind::Procs] {
        for mode in [EvalMode::Eager, EvalMode::Lazy, EvalMode::Opportunistic] {
            for threads in [1usize, 4] {
                for budget in [None, Some(2048usize)] {
                    let mut config = ModinConfig::default()
                        .with_threads(threads)
                        .with_partition_size(16, 4)
                        .with_backend(backend);
                    if let Some(bytes) = budget {
                        config = config.with_memory_budget(bytes);
                    }
                    sessions.push((
                        format!("{backend:?} {mode:?} threads={threads} budget={budget:?}"),
                        Session::modin_with(config, mode),
                    ));
                }
            }
        }
    }
    sessions
}

fn ids(rows: usize) -> DataFrame {
    DataFrame::from_columns(
        vec!["id"],
        vec![(0..rows).map(|i| cell(i as i64)).collect()],
    )
    .unwrap()
}

/// Regression: a per-cell MAP regrouped its output blocks by `row_offset`, and a band
/// a filter emptied shares its offset with its successor — `shape mismatch: expected 0
/// rows, found 8 rows`.
#[test]
fn per_cell_maps_over_a_grid_with_emptied_bands_match_the_reference() {
    let reference =
        PandasFrame::from_dataframe(&Session::reference(), ids(96)).filter(id_cmp(CmpOp::Ge, 40));
    let expected_isna = reference.isna().collect().unwrap();
    assert_eq!(expected_isna.shape(), (56, 1));
    let expected_fillna = reference.fillna(0).collect().unwrap();
    let expected_upper = reference.str_upper().collect().unwrap();
    for (label, session) in pandas_sessions() {
        let filtered = PandasFrame::from_dataframe(&session, ids(96)).filter(id_cmp(CmpOp::Ge, 40));
        for (name, frame, expected) in [
            ("isna", filtered.isna(), &expected_isna),
            ("fillna", filtered.fillna(0), &expected_fillna),
            ("str.upper", filtered.str_upper(), &expected_upper),
        ] {
            let got = frame
                .collect()
                .unwrap_or_else(|err| panic!("filter → {name} failed under {label}: {err}"));
            assert!(
                identical(&got, expected),
                "filter → {name} diverged under {label}"
            );
        }
    }
}

/// The same grid shape out of a scan: a chunk the statistics cannot prune (33 lies
/// inside its min/max) whose residual predicate then keeps none of its rows.
#[test]
fn per_cell_map_over_a_scan_whose_residual_predicate_empties_a_chunk() {
    let mut content = String::from("id,even\n");
    for i in 0..96 {
        content.push_str(&format!("{i},{}\n", 2 * i));
    }
    let dir = std::env::temp_dir().join(format!("engine_equiv_suite_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("emptied_chunk.csv");
    std::fs::write(&path, &content).unwrap();
    let even = |op, value: i64| Predicate::ColCmp {
        column: cell("even"),
        op,
        value: cell(value),
    };
    let predicate = or(even(CmpOp::Eq, 33), even(CmpOp::Ge, 150));
    let options = df_storage::csv::CsvOptions {
        infer_schema: true,
        ..Default::default()
    };
    let serial = df_storage::csv::read_csv_str(&content, &options).unwrap();
    let expected = ReferenceEngine
        .execute_collect(
            &AlgebraExpr::literal(serial)
                .select(predicate.clone())
                .map(MapFunc::IsNullMask),
        )
        .unwrap();
    assert_eq!(expected.n_rows(), 21);
    for threads in [1usize, 4] {
        let engine = ModinEngine::with_config(
            ModinConfig::default()
                .with_threads(threads)
                .with_partition_size(16, 4),
        );
        let scan = ScanCsv::new(
            &path,
            ScanOptions {
                infer_schema: true,
                ..ScanOptions::default()
            },
            format!("emptied-chunk-{threads}"),
        );
        let filtered = AlgebraExpr::scan_csv(scan).select(predicate.clone());
        let grid = engine.execute_partitioned(&filtered).unwrap();
        assert!(
            grid.band_row_counts().contains(&0) && grid.n_row_bands() > 1,
            "the scan should leave an emptied band beside non-empty ones: {:?}",
            grid.band_row_counts()
        );
        let got = engine
            .execute_collect(&filtered.map(MapFunc::IsNullMask))
            .unwrap();
        assert!(identical(&got, &expected), "threads={threads} diverged");
    }
    std::fs::remove_file(path).ok();
}

/// Regression: `fuse_selections` ANDed a positional SELECTION onto the value SELECTION
/// below it (renumbering the rows it reads), and only a top-level `PositionRange` was
/// evaluated against global positions.
#[test]
fn a_slice_of_a_filter_is_the_same_rows_in_every_eval_mode() {
    let statement = |session: &Arc<Session>| {
        PandasFrame::from_dataframe(session, ids(96))
            .filter(id_cmp(CmpOp::Ge, 40))
            .slice(5, 25)
    };
    let expected = statement(&Session::reference()).collect().unwrap();
    let expected_ids: Vec<Cell> = (45..65).map(|i| cell(i as i64)).collect();
    assert_eq!(expected.columns()[0].cells(), expected_ids.as_slice());
    for (label, session) in pandas_sessions() {
        let got = statement(&session).collect().unwrap();
        assert!(
            identical(&got, &expected),
            "filter → slice diverged under {label}\nexpected:\n{expected}\ngot:\n{got}"
        );
    }
    // The optimizer declines the unsound fusion and still takes the sound one.
    let lazy = Session::modin_with(
        ModinConfig::sequential().with_partition_size(16, 4),
        EvalMode::Lazy,
    );
    let plan = statement(&lazy).explain();
    assert!(plan.contains("selections fused: 0"), "{plan}");
    let plan = PandasFrame::from_dataframe(&lazy, ids(96))
        .filter(id_cmp(CmpOp::Ge, 40))
        .filter(id_cmp(CmpOp::Lt, 90))
        .explain();
    assert!(plan.contains("selections fused: 1"), "{plan}");
}

/// A random predicate tree over `id` drawn from `state` (a SplitMix64 stream — the
/// vendored proptest samples numbers, not trees): value and positional leaves, the
/// positional ones wider than a 16-row band, under And / Or / Not.
fn predicate_tree(state: &mut u64, depth: usize) -> Predicate {
    let mut next = |bound: u64| {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    };
    match (depth, next(6)) {
        (0, 0..=2) | (_, 0) => {
            let start = next(80) as usize;
            Predicate::PositionRange {
                start,
                end: start + 17 + next(43) as usize,
            }
        }
        (0, _) | (_, 1) => id_cmp(CmpOp::Ge, next(96) as i64),
        (_, 2) => id_cmp(CmpOp::Lt, next(96) as i64),
        (_, 3) => and(
            predicate_tree(state, depth - 1),
            predicate_tree(state, depth - 1),
        ),
        (_, 4) => or(
            predicate_tree(state, depth - 1),
            predicate_tree(state, depth - 1),
        ),
        _ => Predicate::Not(Box::new(predicate_tree(state, depth - 1))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn positional_predicates_read_global_positions(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let inner = predicate_tree(&mut state, 3);
        let outer = predicate_tree(&mut state, 3);
        let expr = AlgebraExpr::literal(ids(96)).select(inner).select(outer);
        let expected = ReferenceEngine.execute_collect(&expr).unwrap();
        for threads in [1usize, 4] {
            for optimizer in [true, false] {
                let engine = ModinEngine::with_config(ModinConfig {
                    optimizer,
                    ..ModinConfig::default().with_threads(threads).with_partition_size(16, 4)
                });
                let got = engine.execute_collect(&expr).unwrap();
                prop_assert!(
                    identical(&got, &expected),
                    "threads={threads} optimizer={optimizer} diverged"
                );
            }
        }
    }
}

/// `infer_types` induces each column's domain over the whole column, as the reference
/// does: not per band (a band of `"1"`s would parse to ints beside a band of `"x"`s),
/// and not over the rows a `head` happens to need (LIMIT stays above `ParseRaw`).
#[test]
fn infer_types_answers_do_not_depend_on_bands_or_limits() {
    let columns = || {
        vec![
            vec![cell("1"), cell("2"), cell("x"), cell("y")],
            vec![cell("10"), cell("20"), cell("30"), cell("40")],
            vec![cell(1), cell(2), cell(3), cell(4)],
        ]
    };
    let typed = |session: &Arc<Session>| {
        PandasFrame::from_columns(session, vec!["mixed", "numeric", "int"], columns())
            .unwrap()
            .infer_types()
    };
    let reference = typed(&Session::reference());
    let expected = reference.collect().unwrap();
    let expected_head = reference.head(2).unwrap();
    assert_eq!(expected.columns()[0].cells(), columns()[0].as_slice());
    for band_rows in [1usize, 2, 4096] {
        for threads in [1usize, 4] {
            for mode in [EvalMode::Eager, EvalMode::Lazy] {
                let label = format!("band_rows={band_rows} threads={threads} {mode:?}");
                let config = ModinConfig::default()
                    .with_threads(threads)
                    .with_partition_size(band_rows, 4);
                let head = typed(&Session::modin_with(config.clone(), mode))
                    .head(2)
                    .unwrap();
                assert!(identical(&head, &expected_head), "{label}: head\n{head}");
                assert_eq!(head.schema(), expected_head.schema(), "{label}: head");
                let got = typed(&Session::modin_with(config, mode)).collect().unwrap();
                assert!(identical(&got, &expected), "{label}\n{got}");
                assert_eq!(got.schema(), expected.schema(), "{label}");
            }
        }
    }
}

/// A rewrite copies only the nodes on the path to what it changed, and a derived
/// frame's plan holds its parent's plan itself, not a copy.
#[test]
fn rewrites_and_derived_frames_share_what_they_do_not_change() {
    let literal = AlgebraExpr::literal(ids(64));
    let chain = (0..800).fold(literal.clone(), |plan, i| {
        plan.map(MapFunc::FillNull(cell(i as i64)))
    });
    let right = literal
        .select(id_cmp(CmpOp::Ge, 8))
        .select(id_cmp(CmpOp::Lt, 40));
    let plan = chain.join(right, JoinOn::Columns(vec![cell("id")]), JoinType::Inner);
    let (optimized, stats) = df_engine::optimize(&plan);
    assert_eq!(stats.selections_fused, 1);
    assert!(Arc::ptr_eq(plan.children()[0], optimized.children()[0]));

    let session = Session::modin_with(ModinConfig::sequential(), EvalMode::Lazy);
    let parent = PandasFrame::from_dataframe(&session, ids(64)).fillna(0);
    let child = parent.fillna(1);
    assert!(std::ptr::eq(
        child.expr().children()[0].as_ref(),
        parent.expr()
    ));
    let joined = child.merge_on(&parent, &["id"], JoinType::Inner);
    assert!(std::ptr::eq(
        joined.expr().children()[0].as_ref(),
        child.expr()
    ));
    assert!(std::ptr::eq(
        joined.expr().children()[1].as_ref(),
        parent.expr()
    ));
}
