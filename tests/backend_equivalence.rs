//! Differential suite for the executor backends: every Table 1 operator the engine
//! dispatches — rowwise maps/selections/projections/renames, GROUPBY, and the
//! shuffle-based JOIN / SORT / DROP_DUPLICATES / DIFFERENCE — plus CSV ingest must
//! be cell-for-cell identical whether band tasks run on the in-process thread pool
//! or on spawned worker processes exchanging block frames over pipes. Arms:
//! backends {threads, procs} × threads {1, 4} × memory budgets {∞, ws/4}.

use std::sync::Arc;

use proptest::prelude::*;

use df_baseline::BaselineEngine;
use df_core::algebra::{
    AggFunc, Aggregation, AlgebraExpr, CmpOp, ColumnSelector, JoinOn, JoinType, MapFunc, Predicate,
    SortSpec,
};
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;
use df_engine::backend::{BandTask, ExecBackend, ProcBackend, ThreadsBackend};
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::executor::{CheckIn, ParallelExecutor};
use df_engine::partition::{Partition, PartitionConfig, PartitionGrid, PartitionScheme};
use df_storage::spill::SpillStore;
use df_types::backend::BackendKind;
use df_types::cell::cell;
use df_types::error::DfError;
use df_workloads::{random_frame, RandomFrameConfig};

/// Point the process backend at the worker binary Cargo built for this test run.
/// `CARGO_BIN_EXE_*` is only set for the root package's own tests, which is where
/// this suite lives.
fn ensure_worker_bin() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("DF_WORKER_BIN", env!("CARGO_BIN_EXE_df-band-worker"));
    });
}

/// An engine on the given backend/threads/budget arm.
fn engine(backend: BackendKind, threads: usize, budget: Option<usize>) -> ModinEngine {
    ensure_worker_bin();
    let mut config = ModinConfig::default()
        .with_threads(threads)
        .with_partition_size(16, 3)
        .with_backend(backend);
    if let Some(bytes) = budget {
        config = config.with_memory_budget(bytes);
    }
    ModinEngine::try_with_config(config).expect("engine construction")
}

/// The operator pipelines under test, parameterised by a small integer: the
/// shuffle-dispatched operators (mirroring `shuffle_equivalence.rs`) plus the
/// embarrassingly parallel rowwise ones.
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
        7 => base.group_by(
            vec![cell("cat_0")],
            vec![
                Aggregation::count_rows(),
                Aggregation::of("float_0", AggFunc::Sum).with_alias("sum"),
                Aggregation::of("int_0", AggFunc::Mean).with_alias("mean"),
                Aggregation::of("float_1", AggFunc::Min).with_alias("min"),
            ],
            false,
        ),
        // Rowwise chain: SELECTION → PROJECTION → RENAME, all shipped as tasks.
        8 => base
            .select(Predicate::ColCmp {
                column: cell("float_0"),
                op: CmpOp::Gt,
                value: cell(0.0),
            })
            .project(ColumnSelector::ByLabels(vec![
                cell("float_0"),
                cell("cat_0"),
            ]))
            .rename(vec![(cell("cat_0"), cell("category"))]),
        // Per-cell MAP (block-parallel path) over a null-filled frame.
        _ => base.map(MapFunc::IsNullMask),
    }
}

/// One differential case: `pipeline(choice)` over random frames must equal the
/// baseline engine on every backend × threads × budget arm, and the procs arm must
/// actually ship work whenever the pipeline shuffles.
fn assert_identical_across_backends(
    rows: usize,
    other_rows: usize,
    seed: u64,
    null_fraction: f64,
    choice: u8,
) -> Result<(), TestCaseError> {
    let frame = random_frame(&RandomFrameConfig {
        rows,
        null_fraction,
        seed,
        ..RandomFrameConfig::default()
    })
    .unwrap();
    let working_set = frame.approx_size_bytes();
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
    for backend in [BackendKind::Threads, BackendKind::Procs] {
        for threads in [1usize, 4] {
            for budget in [None, Some((working_set / 4).max(1))] {
                let engine = engine(backend, threads, budget);
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
                    "pipeline {choice} diverged (backend={backend}, threads={threads}, \
                     budget={budget:?})\nexpected:\n{expected}\ngot:\n{result}"
                );
                // The procs arm must actually ship work: every shuffle split and
                // every serialisable rowwise task crosses the pipe protocol.
                if backend == BackendKind::Procs && engine.shuffles_dispatched() > 0 {
                    let health = engine.backend_health();
                    prop_assert!(
                        health.tasks_remote > 0,
                        "procs backend ran a shuffle without remote tasks: {health:?}"
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn operators_are_identical_across_backends(
        rows in 0usize..90,
        other_rows in 0usize..40,
        seed in 0u64..10_000,
        null_fraction in 0.0f64..0.4,
        choice in 0u8..10,
    ) {
        assert_identical_across_backends(rows, other_rows, seed, null_fraction, choice)?;
    }
}

/// With the default seed the six draws above never pick an inner join,
/// DROP_DUPLICATES or GROUPBY; pin one mid-sized case of each so every shuffle-suite operator is checked on both
/// backends at both budgets.
#[test]
fn operators_the_random_draws_miss_are_identical_across_backends() {
    for choice in [0u8, 5, 7] {
        assert_identical_across_backends(72, 24, 4_242, 0.2, choice).unwrap();
    }
}

#[test]
fn csv_ingest_is_identical_across_backends() {
    ensure_worker_bin();
    let mut content = String::from("id,name,score,tag\n");
    for i in 0..60 {
        content.push_str(&format!("{i},row-{i},{}.5,t{}\n", i % 7, i % 3));
    }
    let dir = std::env::temp_dir().join(format!("df_backend_equiv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ingest.csv");
    std::fs::write(&path, &content).unwrap();
    for infer in [false, true] {
        let options = df_storage::csv::CsvOptions {
            infer_schema: infer,
            ..df_storage::csv::CsvOptions::default()
        };
        let serial = df_storage::csv::read_csv_str(&content, &options).unwrap();
        for backend in [BackendKind::Threads, BackendKind::Procs] {
            for threads in [1usize, 4] {
                for budget in [None, Some(content.len() / 4)] {
                    let engine = engine(backend, threads, budget);
                    let grid = engine.ingest_csv(&path, &options).unwrap();
                    let assembled = grid.into_dataframe().unwrap();
                    assert!(
                        assembled.same_data(&serial),
                        "ingest diverged (backend={backend}, threads={threads}, \
                         budget={budget:?}, infer={infer})"
                    );
                    assert_eq!(assembled.schema(), serial.schema());
                    if backend == BackendKind::Procs {
                        let health = engine.backend_health();
                        assert!(
                            health.tasks_remote > 0,
                            "procs ingest parsed no chunks remotely: {health:?}"
                        );
                    }
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

/// Resource invariants of the executor's one entry point (ROADMAP needle 3): whichever
/// way a stage fails at item 7 of 12 — a typed error, a panic, a cancellation in
/// mid-flight — dropping the returned error leaves the session store empty, and the
/// pool runs the next stage as if nothing had happened. On both backends, sequential
/// and parallel.
#[test]
fn a_failed_stage_leaves_the_store_empty_and_the_pool_usable() {
    ensure_worker_bin();
    let frame = DataFrame::from_columns(
        vec!["id", "payload"],
        vec![
            (0..240).map(|i| cell(i as i64)).collect(),
            (0..240).map(|i| cell(format!("payload-{i}"))).collect(),
        ],
    )
    .unwrap();
    for backend in [BackendKind::Threads, BackendKind::Procs] {
        for threads in [1usize, 4] {
            let store = Arc::new(SpillStore::new(frame.approx_size_bytes() / 4).unwrap());
            let placement: Arc<dyn ExecBackend> = match backend {
                BackendKind::Threads => Arc::new(ThreadsBackend::new(threads)),
                BackendKind::Procs => Arc::new(ProcBackend::new(threads).unwrap()),
            };
            let executor = ParallelExecutor::new(threads)
                .with_store(Some(Arc::clone(&store)))
                .with_backend(placement);
            let bands = || -> Vec<Vec<Partition>> {
                let config = PartitionConfig {
                    target_rows: 20,
                    target_cols: 8,
                };
                PartitionGrid::from_dataframe_in(&frame, PartitionScheme::Row, config, Some(&store))
                    .unwrap()
                    .into_blocks()
            };
            let held = || {
                let stats = store.stats();
                stats.in_memory + stats.spilled
            };
            let task = BandTask::Map(MapFunc::IsNullMask);
            let place = executor.placed(&task);
            for failure in ["typed error", "panic", "cancellation"] {
                let err = executor
                    .run_stage("test.failing", CheckIn::Frame, bands(), |i, inputs| {
                        match (i, failure) {
                            (7, "typed error") => {
                                return Err(DfError::unsupported("item 7 refuses"))
                            }
                            (7, "panic") => panic!("item 7 panics"),
                            (7, _) => executor.cancel_token().cancel(),
                            _ => {}
                        }
                        place(i, inputs)
                    })
                    .unwrap_err();
                let arm = format!("backend={backend} threads={threads} failure={failure}");
                match failure {
                    "typed error" => {
                        assert!(matches!(err, DfError::Unsupported(_)), "{arm}: {err}")
                    }
                    "panic" => assert!(matches!(err, DfError::WorkerPanic(_)), "{arm}: {err}"),
                    _ => assert!(err.is_cancelled(), "{arm}: {err}"),
                }
                drop(err);
                executor.cancel_token().reset();
                assert_eq!(held(), 0, "{arm}: the failed stage left partitions behind");
            }
            let ok = executor
                .run_stage("test.healthy", CheckIn::Frame, bands(), &place)
                .unwrap();
            assert_eq!(ok.len(), 12, "backend={backend} threads={threads}");
            assert_eq!(held(), 12);
            drop(ok);
            assert_eq!(held(), 0);
        }
    }
}
