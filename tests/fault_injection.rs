//! Chaos acceptance suite for the fault-tolerance layer.
//!
//! The contract under test: with failpoints armed at every spill / ingest /
//! shuffle site, across thread counts and memory budgets, a statement either
//! **retries or recomputes to a bit-exact result** (transient I/O, corruption,
//! missing blocks — anything the retry policy or the lineage-based recovery can
//! absorb) or surfaces a **typed `DfError`** — never an escaped panic, never a
//! poisoned lock — and the session stays reusable once the faults clear.
//!
//! The failpoint registry is process-global, so every armed scenario in this
//! file serialises on one mutex and disarms on drop (even when the test
//! panics). Unit tests in the library crates never arm failpoints.

use std::sync::{Arc, Mutex, MutexGuard};

use proptest::prelude::*;

use df_core::dataframe::DataFrame;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::session::EvalMode;
use df_pandas::{PandasFrame, Session};
use df_storage::csv::{read_csv_str, CsvOptions};
use df_types::cell::cell;
use df_types::error::DfError;
use df_types::fail;

/// Serialises armed-failpoint scenarios and guarantees disarm-on-drop, so one
/// failing test cannot leak injected faults into the next.
struct Armed {
    _guard: MutexGuard<'static, ()>,
}

static FAIL_LOCK: Mutex<()> = Mutex::new(());

impl Armed {
    fn new(spec: &str) -> Armed {
        let guard = FAIL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        fail::configure_seeded(spec, 7).expect("valid failpoint spec");
        Armed { _guard: guard }
    }

    fn rearm(&self, spec: &str) {
        fail::configure_seeded(spec, 7).expect("valid failpoint spec");
    }

    fn disarm(&self) {
        fail::clear();
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        fail::clear();
    }
}

fn fleet_frame(rows: usize) -> DataFrame {
    DataFrame::from_columns(
        vec!["a", "b"],
        vec![
            (0..rows).map(|i| cell(i as i64)).collect(),
            (0..rows).map(|i| cell(((i * 7) % 13) as i64)).collect(),
        ],
    )
    .unwrap()
}

fn lazy_session(threads: usize, budget: Option<usize>) -> Arc<Session> {
    let mut config = ModinConfig::default()
        .with_threads(threads)
        .with_partition_size(16, 4);
    if let Some(bytes) = budget {
        config = config.with_memory_budget(bytes);
    }
    Session::modin_with(config, EvalMode::Lazy)
}

#[test]
fn spill_read_corruption_recovers_to_bit_exact_results() {
    let armed = Armed::new("");
    let df = fleet_frame(240);
    for threads in [1usize, 4] {
        for budget in [None, Some(df.approx_size_bytes() / 4)] {
            let budgeted = budget.is_some();
            let s = lazy_session(threads, budget);
            let frame = PandasFrame::try_from_dataframe(&s, df.clone())
                .unwrap()
                .isna();
            armed.disarm();
            let baseline = frame.collect().unwrap();
            // Corrupt the first load-back: the checksum catches it, the poisoned
            // entry is quarantined, and the statement recomputes from its plan.
            armed.rearm("spill.read=corrupt@1");
            let out = frame.collect().unwrap();
            assert!(
                out.same_data(&baseline),
                "threads={threads} budgeted={budgeted}: recovery diverged"
            );
            if budgeted {
                assert!(
                    s.stats().recoveries >= 1,
                    "no recovery recorded: {:?}",
                    s.stats()
                );
            }
            armed.disarm();
            assert!(frame.collect().unwrap().same_data(&baseline));
        }
    }
}

#[test]
fn missing_spill_blocks_are_recomputed_from_lineage() {
    let armed = Armed::new("");
    let df = fleet_frame(240);
    let s = lazy_session(2, Some(df.approx_size_bytes() / 4));
    let base = PandasFrame::try_from_dataframe(&s, df).unwrap();
    let frame = base.isna();
    let baseline = frame.collect().unwrap();
    // The `missing` action really deletes a spill file on disk, so re-reading the
    // same handle fails too; the session evicts the statement and its cached
    // sub-plans and replays the logical plan.
    armed.rearm("spill.read=missing@1");
    let out = frame.collect().unwrap();
    assert!(out.same_data(&baseline), "lineage recompute diverged");
    assert!(
        s.stats().recoveries >= 1,
        "no recovery recorded: {:?}",
        s.stats()
    );
}

#[test]
fn a_csv_rooted_frame_recovers_from_a_corrupted_spill() {
    let _armed = Armed::new("");
    let mut csv = String::from("id,v\n");
    for i in 0..400 {
        csv.push_str(&format!("{i},{}\n", i * 2));
    }
    let path = std::env::temp_dir().join(format!("fault-scan-{}.csv", std::process::id()));
    std::fs::write(&path, &csv).unwrap();
    let options = CsvOptions {
        infer_schema: true,
        ..CsvOptions::default()
    };
    let serial = read_csv_str(&csv, &options).unwrap();
    let s = Session::modin_with(
        ModinConfig::default()
            .with_memory_budget(1)
            .with_partition_size(32, 8),
        EvalMode::Eager,
    );
    let read = PandasFrame::read_csv_path(&s, &path, &options).unwrap();
    // Append bytes to every spill file behind the scan's cached grid.
    let dir = s.modin_engine().unwrap().store().unwrap().directory();
    let mut tampered = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let file = entry.unwrap().path();
        if file.is_file() {
            let mut content = std::fs::read(&file).unwrap();
            content.extend_from_slice(b"tampered");
            std::fs::write(&file, content).unwrap();
            tampered += 1;
        }
    }
    assert!(tampered > 0, "a 1-byte budget spills every band");
    // The scan is its own lineage: the file is read again.
    assert!(read.collect().unwrap().same_data(&serial));
    let filtered = read.filter_gt("id", 10).unwrap().collect().unwrap();
    assert_eq!(filtered.n_rows(), 389);
    assert!(s.stats().recoveries >= 1, "{:?}", s.stats());
    std::fs::remove_file(&path).ok();
}

#[test]
fn transient_spill_write_failures_are_retried_invisibly() {
    let _armed = Armed::new("spill.write=io_transient@1");
    let df = fleet_frame(240);
    let s = lazy_session(2, Some(df.approx_size_bytes() / 4));
    let frame = PandasFrame::try_from_dataframe(&s, df).unwrap().isna();
    let out = frame.collect().unwrap();
    assert_eq!(out.shape(), (240, 2));
    let stats = s.spill_stats().expect("budgeted engine");
    assert!(
        stats.retries >= 1,
        "transient write fault was not retried: {stats:?}"
    );
}

#[test]
fn ingest_chunk_faults_retry_transient_and_surface_permanent() {
    let armed = Armed::new("");
    let mut csv = String::from("a,b\n");
    for i in 0..500 {
        csv.push_str(&format!("{i},{}\n", i * 3));
    }
    let options = CsvOptions::default();
    let serial = read_csv_str(&csv, &options).unwrap();
    let path = std::env::temp_dir().join(format!("fault-ingest-{}.csv", std::process::id()));
    std::fs::write(&path, &csv).unwrap();

    for threads in [1usize, 4] {
        let engine = ModinEngine::with_config(
            ModinConfig::default()
                .with_threads(threads)
                .with_partition_size(64, 8),
        );
        // Transient chunk-read fault: absorbed by the ingest retry policy.
        armed.rearm("ingest.read=io_transient@1");
        let grid = engine.ingest_csv(&path, &options).unwrap();
        assert!(
            grid.assemble().unwrap().same_data(&serial),
            "threads={threads}: retried ingest diverged from serial"
        );
        // Permanent fault: a typed non-transient error, not a panic.
        armed.rearm("ingest.read=io_full@1");
        let err = engine.ingest_csv(&path, &options).unwrap_err();
        assert!(
            matches!(
                err,
                DfError::SpillIo {
                    transient: false,
                    ..
                }
            ),
            "threads={threads}: expected permanent SpillIo, got {err}"
        );
        // The engine survives the failed ingest.
        armed.disarm();
        let clean = engine.ingest_csv(&path, &options).unwrap();
        assert!(clean.assemble().unwrap().same_data(&serial));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn shuffle_faults_and_panics_surface_typed_and_leave_the_session_reusable() {
    let armed = Armed::new("");
    for threads in [1usize, 4] {
        let s = lazy_session(threads, None);
        let df = fleet_frame(200);
        let grouped = PandasFrame::try_from_dataframe(&s, df)
            .unwrap()
            .drop_duplicates();
        armed.disarm();
        let baseline = grouped.collect().unwrap();
        s.query().clear_cache();

        // An exchange-task fault is a typed error...
        armed.rearm("shuffle.exchange=io_full@1");
        let err = grouped.collect().unwrap_err();
        assert!(
            matches!(err, DfError::SpillIo { .. }),
            "threads={threads}: expected typed SpillIo, got {err}"
        );

        // ...and an exchange-task *panic* is caught at the worker boundary,
        // siblings are cancelled, and no lock is poisoned.
        armed.rearm("shuffle.exchange=panic@1");
        let err = grouped.collect().unwrap_err();
        assert!(
            matches!(err, DfError::WorkerPanic(_)),
            "threads={threads}: expected WorkerPanic, got {err}"
        );

        // Faults cleared: the very same session computes the correct result.
        armed.disarm();
        let out = grouped.collect().unwrap();
        assert!(
            out.same_data(&baseline),
            "threads={threads}: session unusable after faults"
        );
    }
}

/// A process-backend engine pointed at the worker binary Cargo built for this
/// test run.
fn proc_engine(threads: usize) -> ModinEngine {
    std::env::set_var("DF_WORKER_BIN", env!("CARGO_BIN_EXE_df-band-worker"));
    ModinEngine::try_with_config(
        ModinConfig::default()
            .with_threads(threads)
            .with_partition_size(16, 4)
            .with_backend(df_types::backend::BackendKind::Procs),
    )
    .expect("process backend engine")
}

#[test]
fn proc_worker_death_mid_exchange_recovers_or_surfaces_typed() {
    use df_core::algebra::AlgebraExpr;
    use df_core::engine::Engine;

    let armed = Armed::new("");
    let expr = AlgebraExpr::literal(fleet_frame(200)).drop_duplicates();
    let engine = proc_engine(1);
    armed.disarm();
    let baseline = engine.execute_collect(&expr).unwrap();

    // Kill the checked-out worker once, right before a band exchange (`@1` fires
    // on exactly the first evaluation). The dead pipe surfaces as a lost worker,
    // the backend discards it, spawns a replacement and replays the task — the
    // result is bit-exact and the restart is accounted.
    armed.rearm("backend.exchange=missing@1");
    let recovered = engine.execute_collect(&expr).unwrap();
    assert!(
        recovered.same_data(&baseline),
        "recovery after a worker death diverged"
    );
    let health = engine.backend_health();
    assert!(
        health.restarts >= 1,
        "worker death did not record a restart: {health:?}"
    );

    // A worker that dies on *every* attempt (probability form: fires always) is a
    // typed `WorkerLost` — no hang, no panic — once the retry allowance is spent.
    armed.rearm("backend.exchange=missing@1.0");
    let err = engine.execute_collect(&expr).unwrap_err();
    assert!(
        matches!(err, DfError::WorkerLost { .. }),
        "expected WorkerLost, got {err}"
    );

    // Bit-rot on the wire: the response frame's payload is mangled in flight, the
    // spill-v4 checksum catches it, and the retry replays the exchange cleanly.
    armed.rearm("backend.exchange=corrupt@1");
    let recovered = engine.execute_collect(&expr).unwrap();
    assert!(
        recovered.same_data(&baseline),
        "recovery after wire corruption diverged"
    );

    // Faults cleared: the very same engine (and its respawned pool) still answers.
    armed.disarm();
    let healed = engine.execute_collect(&expr).unwrap();
    assert!(
        healed.same_data(&baseline),
        "engine unusable after backend faults cleared"
    );
}

#[test]
fn spill_dir_is_removed_on_drop_even_after_worker_panics() {
    let armed = Armed::new("");
    let df = fleet_frame(240);
    let engine = ModinEngine::with_config(
        ModinConfig::default()
            .with_threads(4)
            .with_memory_budget(df.approx_size_bytes() / 4)
            .with_partition_size(16, 4),
    );
    let dir = engine
        .store()
        .expect("budgeted engine")
        .directory()
        .to_path_buf();
    let s = Session::with_engine(Arc::new(engine), EvalMode::Lazy);
    let frame = PandasFrame::try_from_dataframe(&s, df).unwrap().isna();
    frame.collect().unwrap();
    assert!(dir.exists(), "budgeted engine created no spill dir");
    armed.rearm("shuffle.exchange=panic@1");
    let grouped = frame.drop_duplicates();
    let _ = grouped.collect(); // panic isolated; error or recovery both fine here
    armed.disarm();
    drop(frame);
    drop(grouped);
    drop(s);
    assert!(
        !dir.exists(),
        "spill dir survived engine drop after a worker panic"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Randomised corruption rates: whatever fires, the outcome is either a
    // bit-exact result (recovery absorbed it) or a typed error — and once the
    // faults clear, the same session produces the exact baseline.
    #[test]
    fn random_corruption_rates_never_escape_the_taxonomy(
        permille in 0u64..300,
        threads in 1usize..3,
    ) {
        let armed = Armed::new("");
        let df = fleet_frame(160);
        let s = lazy_session(if threads == 1 { 1 } else { 4 }, Some(df.approx_size_bytes() / 4));
        let frame = PandasFrame::try_from_dataframe(&s, df).unwrap().isna();
        let baseline = frame.collect().unwrap();
        armed.rearm(&format!("spill.read=corrupt@0.{permille:03}"));
        match frame.collect() {
            Ok(out) => prop_assert!(out.same_data(&baseline), "recovered result diverged"),
            Err(err) => prop_assert!(
                err.is_spill_corruption(),
                "expected SpillCorruption, got {err}"
            ),
        }
        armed.disarm();
        let healed = frame.collect();
        match healed {
            Ok(out) => prop_assert!(out.same_data(&baseline)),
            Err(err) => return Err(TestCaseError::fail(format!("session unusable: {err}"))),
        }
    }
}
