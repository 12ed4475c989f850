//! The handle-based narrow waist across statement boundaries (§3.3, §6.1).
//!
//! Two suites:
//!
//! * **Evaluation-mode matrix** — Eager / Lazy / Opportunistic × {modin, baseline} on
//!   a four-statement chained pipeline (filter → join → groupby → sort typed as
//!   separate `PandasFrame` statements), asserting the `SessionStats` counters each
//!   mode promises (lazy executes once at the materialisation point; re-submitted
//!   plan keys hit the cache) and cell-for-cell equality with the reference
//!   engine.
//! * **Out-of-core handle boundaries** — the PR's acceptance criterion: the same
//!   chained pipeline at `memory_budget_bytes = ws/4` runs with every intermediate
//!   crossing the statement boundary as a partitioned handle (spill stats engage, the
//!   dispatch counters show handle reuse and no full-frame assembly between
//!   statements) and produces results identical to the unlimited-budget eager run.
//!
//! A third group pins the single-flight contract of opportunistic runs: a
//! background run claims its statement's slot in the (possibly shared) result cache,
//! so it executes once however many sessions ask, its finished result is a budgeted
//! cache entry, and a failed run is retried rather than replayed.
//!
//! A fourth pins what the cache key promises: plans that differ only in a value's
//! type, a closure or a category list are different statements, a cache entry keeps
//! no ancestor alive, and a lazy scan frame is found under its expression's key.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

use df_baseline::BaselineEngine;
use df_core::algebra::{AggFunc, Aggregation, AlgebraExpr, JoinType, MapFunc, SortSpec};
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::session::{EvalMode, QuerySession, StatementGate};
use df_engine::{PlanKey, ResultCache};
use df_pandas::{PandasFrame, Session};
use df_service::{QueryService, ServiceConfig};
use df_storage::csv::CsvOptions;
use df_types::cell::{cell, Cell};
use df_types::error::DfResult;

/// The fact side of the workload: duplicate join keys, integer-valued floats (so
/// aggregation order cannot introduce rounding differences across engines).
fn facts(rows: usize) -> DataFrame {
    let k: Vec<Cell> = (0..rows).map(|i| cell((i % 9) as i64)).collect();
    let v: Vec<Cell> = (0..rows).map(|i| cell((i % 40) as f64)).collect();
    let s: Vec<Cell> = (0..rows)
        .map(|i| cell(format!("payload-{}-{i}", i % 5)))
        .collect();
    DataFrame::from_columns(vec!["k", "v", "s"], vec![k, v, s]).unwrap()
}

/// The dimension side of the join.
fn dims() -> DataFrame {
    let k: Vec<Cell> = (0..9).map(|i| cell(i as i64)).collect();
    let name: Vec<Cell> = (0..9).map(|i| cell(format!("dim-{i}"))).collect();
    DataFrame::from_columns(vec!["k", "name"], vec![k, name]).unwrap()
}

/// The four-statement pipeline, each step a separate `PandasFrame` statement the way
/// a notebook user would type them. Returns every intermediate so tests can re-submit
/// or inspect specific statements.
fn pipeline(session: &Arc<Session>, rows: usize) -> [PandasFrame; 6] {
    let base = PandasFrame::from_dataframe(session, facts(rows));
    let side = PandasFrame::from_dataframe(session, dims());
    let filtered = base.filter_gt("v", 10.0).unwrap();
    let joined = filtered.merge_on(&side, &["k"], JoinType::Inner);
    let grouped = joined.groupby_agg(
        &["name"],
        vec![
            Aggregation::count_rows(),
            Aggregation::of("v", AggFunc::Sum).with_alias("v_sum"),
        ],
        false,
    );
    let sorted = grouped.sort_values(&["name"], true);
    [base, side, filtered, joined, grouped, sorted]
}

fn modin_session(mode: EvalMode) -> Arc<Session> {
    Session::modin_with(ModinConfig::sequential().with_partition_size(32, 8), mode)
}

fn baseline_session(mode: EvalMode) -> Arc<Session> {
    Session::with_engine(Arc::new(BaselineEngine::new()), mode)
}

#[test]
fn eval_mode_matrix_agrees_with_the_reference_engine() {
    const ROWS: usize = 240;
    let reference_frames = pipeline(&Session::reference(), ROWS);
    let expected = reference_frames[5].collect().unwrap();
    assert_eq!(expected.n_cols(), 3);
    assert!(expected.n_rows() > 0);

    for mode in [EvalMode::Eager, EvalMode::Lazy, EvalMode::Opportunistic] {
        for session in [modin_session(mode), baseline_session(mode)] {
            let kind = session.engine_kind();
            let frames = pipeline(&session, ROWS);
            let out = frames[5].collect().unwrap();
            assert!(
                out.same_data(&expected),
                "{kind:?}/{mode:?} diverged from the reference:\n{out}\nexpected\n{expected}"
            );
            let stats = session.stats();
            assert_eq!(stats.statements, 6, "{kind:?}/{mode:?} statement count");
            assert_eq!(stats.submit_errors, 0, "{kind:?}/{mode:?} submit errors");
        }
    }
}

#[test]
fn lazy_mode_executes_once_at_the_materialisation_point() {
    for session in [
        modin_session(EvalMode::Lazy),
        baseline_session(EvalMode::Lazy),
    ] {
        let kind = session.engine_kind();
        let frames = pipeline(&session, 160);
        let sorted = &frames[5];
        assert_eq!(
            session.stats().executions,
            0,
            "{kind:?}: lazy statements must not execute on submit"
        );
        sorted.collect().unwrap();
        assert_eq!(
            session.stats().executions,
            1,
            "{kind:?}: the whole lazy pipeline is one plan, executed once at collect"
        );
        // A second collect is a cache hit, not a re-execution.
        sorted.collect().unwrap();
        assert_eq!(session.stats().executions, 1, "{kind:?}");
        assert!(session.stats().cache_hits >= 1, "{kind:?}");
    }
}

#[test]
fn eager_mode_hits_the_cache_on_resubmitted_fingerprints() {
    for session in [
        modin_session(EvalMode::Eager),
        baseline_session(EvalMode::Eager),
    ] {
        let kind = session.engine_kind();
        let [_, side, filtered, ..] = pipeline(&session, 160);
        let executions_after_chain = session.stats().executions;
        assert_eq!(executions_after_chain, 6, "{kind:?}");
        let hits_before = session.stats().cache_hits;
        // Re-deriving the same statement from the same parents produces the same
        // logical plan key: the session serves it from the cache.
        let rejoined = filtered.merge_on(&side, &["k"], JoinType::Inner);
        assert_eq!(
            session.stats().executions,
            executions_after_chain,
            "{kind:?}: re-submitted statement re-executed"
        );
        assert_eq!(session.stats().cache_hits, hits_before + 1, "{kind:?}");
        // And collecting it is another hit on the same handle.
        assert!(rejoined.collect().unwrap().n_rows() > 0);
        assert_eq!(
            session.stats().executions,
            executions_after_chain,
            "{kind:?}"
        );
    }
}

#[test]
fn lazy_chains_resume_from_intermediates_collected_later() {
    // The derivation happens BEFORE the intermediate is collected; the later
    // materialisation must still rebase onto the intermediate's cached handle
    // instead of re-executing its subtree.
    let session = modin_session(EvalMode::Lazy);
    let frames = pipeline(&session, 160);
    let (joined, sorted) = (&frames[3], &frames[5]);
    joined.collect().unwrap();
    assert_eq!(session.stats().executions, 1);
    let engine = session.modin_engine().unwrap();
    let reuses_before = engine.handles_reused();
    sorted.collect().unwrap();
    // One more plan executed (groupby+sort), resumed from the joined handle.
    assert_eq!(session.stats().executions, 2);
    assert!(
        engine.handles_reused() > reuses_before,
        "derived statement re-executed the collected intermediate's subtree"
    );
}

#[test]
fn opportunistic_mode_overlaps_background_execution() {
    let session = modin_session(EvalMode::Opportunistic);
    let frames = pipeline(&session, 200);
    let sorted = &frames[5];
    let stats = session.stats();
    assert!(
        stats.background_started >= 1,
        "no background work started: {stats:?}"
    );
    let out = sorted.collect().unwrap();
    assert!(out.n_rows() > 0);
    // Collected results land in the cache like any other handle.
    sorted.collect().unwrap();
    assert!(session.stats().cache_hits >= 1);
}

#[test]
fn out_of_core_pipeline_crosses_statement_boundaries_as_handles() {
    const ROWS: usize = 420;
    let working_set = facts(ROWS).approx_size_bytes();
    let budget = working_set / 4;

    // Unlimited-budget eager run: the ground truth.
    let unlimited = modin_session(EvalMode::Eager);
    let unlimited_frames = pipeline(&unlimited, ROWS);
    let expected = unlimited_frames[5].collect().unwrap();

    // Budgeted run of the same four chained statements.
    let bounded = Session::modin_with(
        ModinConfig::sequential()
            .with_partition_size(32, 8)
            .with_memory_budget(budget),
        EvalMode::Eager,
    );
    let engine = Arc::clone(bounded.modin_engine().expect("modin-backed session"));
    let bounded_frames = pipeline(&bounded, ROWS);
    let sorted = &bounded_frames[5];

    // Every derived statement resumed from its input's partitioned handle…
    assert!(
        engine.handles_reused() >= 5,
        "statements did not cross the waist as handles: {} reuses",
        engine.handles_reused()
    );
    // …and nothing was assembled while the chain was built: the only full-frame
    // assembly is the final collect below.
    assert_eq!(
        engine.assemblies_dispatched(),
        0,
        "a statement boundary assembled a full frame"
    );
    let out = sorted.collect().unwrap();
    assert_eq!(engine.assemblies_dispatched(), 1);
    assert_eq!(engine.fallbacks_dispatched(), 0, "pipeline fell back");

    // The tight budget forced intermediates (held as cached handles) to spill.
    let stats = bounded.spill_stats().expect("budgeted session has stats");
    assert!(
        stats.spill_outs > 0 && stats.load_backs > 0,
        "budget ws/4 never engaged the spill store: {stats:?}"
    );
    assert!(
        stats.peak_memory_bytes <= budget + stats.max_insert_bytes,
        "peak residency {} exceeded budget {} + one in-flight band {}",
        stats.peak_memory_bytes,
        budget,
        stats.max_insert_bytes
    );

    // Identical results to the unlimited-budget eager run.
    assert!(
        out.same_data(&expected),
        "bounded run diverged:\n{out}\nexpected\n{expected}"
    );
}

/// One thread, 16-row bands: a SORT over it runs exactly one range shuffle.
fn sort_engine() -> Arc<ModinEngine> {
    Arc::new(ModinEngine::with_config(
        ModinConfig::sequential().with_partition_size(16, 4),
    ))
}

fn sort_statement(rows: usize) -> AlgebraExpr {
    AlgebraExpr::literal(facts(rows)).sort(SortSpec::ascending(vec![cell("v")]))
}

fn tenant_session(
    engine: &Arc<ModinEngine>,
    cache: &Arc<ResultCache>,
    tenant: &str,
    mode: EvalMode,
) -> QuerySession {
    QuerySession::with_shared_state(
        Arc::clone(engine) as Arc<dyn Engine>,
        mode,
        Arc::clone(cache),
        Some(tenant.to_string()),
        None,
    )
}

#[test]
fn opportunistic_runs_single_flight_across_sessions_sharing_a_cache() {
    let expr = sort_statement(200);
    let reference = sort_engine();
    let expected = QuerySession::new(Arc::clone(&reference) as Arc<dyn Engine>, EvalMode::Lazy)
        .collect(&PlanKey::of(&expr))
        .unwrap();
    let one_execution = reference.shuffles_dispatched();
    assert!(one_execution > 0, "a SORT over 13 bands must shuffle");

    let engine = sort_engine();
    let cache = Arc::new(ResultCache::with_budget(None));
    let a = tenant_session(&engine, &cache, "a", EvalMode::Opportunistic);
    let b = tenant_session(&engine, &cache, "b", EvalMode::Opportunistic);
    let lazy = tenant_session(&engine, &cache, "lazy", EvalMode::Lazy);
    a.submit(&PlanKey::of(&expr)).unwrap();
    b.submit(&PlanKey::of(&expr)).unwrap();
    // A lazy tenant collecting while the background run is in flight waits on it.
    for session in [&lazy, &a, &b] {
        assert!(session
            .collect(&PlanKey::of(&expr))
            .unwrap()
            .same_data(&expected));
    }
    assert_eq!(
        engine.shuffles_dispatched(),
        one_execution,
        "the statement ran more than once"
    );
    let started: u64 = [&a, &b].iter().map(|s| s.stats().background_started).sum();
    assert_eq!(started, 1, "only the first submit claims the run");
    let executions: u64 = [&a, &b, &lazy].iter().map(|s| s.stats().executions).sum();
    assert_eq!(executions, 1);
}

#[test]
fn a_finished_background_run_is_a_budgeted_cache_entry() {
    let expr = sort_statement(200);
    let engine = sort_engine();
    let cache = Arc::new(ResultCache::with_budget(None));
    let submitter = tenant_session(&engine, &cache, "submitter", EvalMode::Opportunistic);
    let reader = tenant_session(&engine, &cache, "reader", EvalMode::Lazy);
    submitter.submit(&PlanKey::of(&expr)).unwrap();
    // Blocks until the background run has published (or, failing that, runs it).
    reader.handle(&PlanKey::of(&expr)).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.entries, 1, "{stats:?}");
    assert!(stats.bytes > 0, "{stats:?}");
    // The result is retained against the submitting tenant before it ever asked.
    let produced_by: Vec<_> = stats
        .tenants
        .iter()
        .filter(|(_, t)| t.produced > 0)
        .map(|(name, t)| (name.as_str(), t.retained_bytes))
        .collect();
    assert_eq!(produced_by, vec![("submitter", stats.bytes)], "{stats:?}");
    assert_eq!(reader.stats().executions, 0, "{:?}", reader.stats());
    submitter.collect(&PlanKey::of(&expr)).unwrap();
    assert_eq!(submitter.stats().executions, 1);
    assert_eq!(submitter.stats().cache_hits, 1);
}

/// An always-open gate that reports each release: a gated execution has ended.
struct ReleaseSignal(Sender<()>);

impl StatementGate for ReleaseSignal {
    fn admit(&self, _tenant: Option<&str>) -> DfResult<()> {
        Ok(())
    }

    fn release(&self) {
        self.0.send(()).ok();
    }
}

#[test]
fn a_cancelled_background_run_is_retried_after_reset() {
    let expr = sort_statement(200);
    let (released, ended) = channel();
    let session = QuerySession::with_shared_state(
        sort_engine() as Arc<dyn Engine>,
        EvalMode::Opportunistic,
        Arc::new(ResultCache::with_budget(None)),
        None,
        Some(Arc::new(ReleaseSignal(released))),
    );
    session.cancel();
    session.submit(&PlanKey::of(&expr)).unwrap();
    // The background run has failed under the fired token before the reset; the
    // collect after it must not be served that stale failure.
    ended.recv_timeout(Duration::from_secs(60)).unwrap();
    session.reset_cancel();
    let out = session
        .collect(&PlanKey::of(&expr))
        .expect("collect after reset_cancel retries the failed run");
    let expected = Session::reference()
        .query()
        .collect(&PlanKey::of(&expr))
        .unwrap();
    assert!(out.same_data(&expected));
}

// ---------------------------------------------------------------------------
// A statement is never served another statement's answer
// ---------------------------------------------------------------------------

/// `v = 0..8`, with row 1 null.
fn holey() -> DataFrame {
    let v: Vec<Cell> = (0..8)
        .map(|i| if i == 1 { Cell::Null } else { cell(i as i64) })
        .collect();
    DataFrame::from_columns(vec!["v"], vec![v]).unwrap()
}

/// Collect `first` and then `second`, both derived from one base frame over `data`,
/// in one eager session; `second` must equal what a fresh session computes for it
/// alone. If the two plans shared a cache key, `second` would be served `first`'s
/// answer.
fn assert_second_is_its_own_answer(
    data: DataFrame,
    first: impl Fn(&PandasFrame) -> PandasFrame,
    second: impl Fn(&PandasFrame) -> PandasFrame,
) {
    let session = modin_session(EvalMode::Eager);
    let base = PandasFrame::from_dataframe(&session, data.clone());
    let first_out = first(&base).collect().unwrap();
    let second_out = second(&base).collect().unwrap();
    let fresh = modin_session(EvalMode::Eager);
    let expected = second(&PandasFrame::from_dataframe(&fresh, data))
        .collect()
        .unwrap();
    assert!(
        !first_out.same_data(&expected),
        "the two statements must have different answers for this test to mean anything"
    );
    assert!(
        second_out.same_data(&expected),
        "served another statement's answer:\n{second_out:?}\nexpected:\n{expected:?}"
    );
}

#[test]
fn fill_values_of_different_types_are_different_statements() {
    assert_second_is_its_own_answer(holey(), |f| f.fillna(cell(0)), |f| f.fillna(cell("0")));
}

#[test]
fn filter_constants_of_different_types_are_different_statements() {
    // An integer constant matches every numeric spelling of 1; a string only "1".
    let spellings = vec![cell("1"), cell("01"), cell("x")];
    assert_second_is_its_own_answer(
        DataFrame::from_columns(vec!["v"], vec![spellings]).unwrap(),
        |f| f.filter_eq("v", 1).unwrap(),
        |f| f.filter_eq("v", "1").unwrap(),
    );
}

#[test]
fn closures_with_one_name_are_different_statements() {
    assert_second_is_its_own_answer(
        holey(),
        |f| f.transform_cells("f", |_| cell("first")),
        |f| f.transform_cells("f", |_| cell("second")),
    );
}

#[test]
fn one_hot_category_lists_of_equal_length_are_different_statements() {
    let session = modin_session(EvalMode::Eager);
    let letters = DataFrame::from_columns(vec!["c"], vec![vec![cell("x"), cell("p")]]).unwrap();
    let base = AlgebraExpr::literal(letters);
    let one_hot = |categories: [&str; 2]| {
        base.clone().map(MapFunc::OneHot {
            column: cell("c"),
            categories: categories.iter().map(|c| cell(*c)).collect(),
        })
    };
    let (xy, pq) = (one_hot(["x", "y"]), one_hot(["p", "q"]));
    session.query().collect(&PlanKey::of(&xy)).unwrap();
    let out = session.query().collect(&PlanKey::of(&pq)).unwrap();
    assert_eq!(out.col_labels().as_slice(), &[cell("c_p"), cell("c_q")]);
}

#[test]
fn tenants_sharing_a_cache_are_never_served_each_others_answers() {
    let service = QueryService::start(
        ServiceConfig::default().with_engine(ModinConfig::sequential().with_partition_size(4, 8)),
    )
    .unwrap();
    let base = AlgebraExpr::literal(holey());
    let zeros = base.clone().map(MapFunc::FillNull(cell(0)));
    let texts = base.map(MapFunc::FillNull(cell("0")));
    let alpha = service.tenant("alpha");
    let beta = service.tenant("beta");
    let filled = alpha.query().collect(&PlanKey::of(&zeros)).unwrap();
    assert_eq!(filled.cell(1, 0).unwrap(), &cell(0));
    let filled = beta.query().collect(&PlanKey::of(&texts)).unwrap();
    assert_eq!(filled.cell(1, 0).unwrap(), &cell("0"));
    // The same statement from the other tenant is still a shared hit.
    beta.query().collect(&PlanKey::of(&zeros)).unwrap();
    let stats = service.stats();
    let executions: u64 = stats.tenants.iter().map(|(_, s)| s.executions).sum();
    assert_eq!(executions, 2, "{stats:?}");
}

#[test]
fn evicting_an_ancestor_frees_its_partitions_while_a_derived_statement_stays_cached() {
    let data = facts(512);
    let budget = data.approx_size_bytes() / 4;
    let session = Session::modin_with(
        ModinConfig::sequential()
            .with_partition_size(8, 8)
            .with_memory_budget(budget),
        EvalMode::Eager,
    );
    let engine = Arc::clone(session.modin_engine().unwrap());
    let partitions = || {
        let stats = engine.spill_stats();
        stats.in_memory + stats.spilled
    };
    let a = PandasFrame::from_dataframe(&session, data);
    let a_partitions = partitions();
    let b = a.filter_gt("v", 10.0).unwrap();
    let b_partitions = partitions() - a_partitions;
    assert!(a_partitions > 0 && b_partitions > 0);
    session.query().evict(&PlanKey::of(a.expr()));
    assert_eq!(
        partitions(),
        b_partitions,
        "the evicted ancestor's {a_partitions} partitions must be freed"
    );
    // `b` is still cached: fetching it executes nothing.
    let executions = session.stats().executions;
    b.collect().unwrap();
    assert_eq!(session.stats().executions, executions);
}

#[test]
fn a_lazy_scan_frame_and_its_expression_share_one_key() {
    let path = std::env::temp_dir().join(format!("lazy_scan_key_{}.csv", std::process::id()));
    std::fs::write(&path, "k,v\na,1\nb,2\nc,3\n").unwrap();
    let session = modin_session(EvalMode::Lazy);
    let frame = PandasFrame::read_csv_path(&session, &path, &CsvOptions::default()).unwrap();
    let collected = frame.collect().unwrap();
    assert_eq!(session.stats().executions, 1);
    let again = session.query().collect(&PlanKey::of(frame.expr())).unwrap();
    assert!(again.same_data(&collected));
    assert_eq!(session.stats().executions, 1, "{:?}", session.stats());
    std::fs::remove_file(path).ok();
}
