//! Analysis sessions: an engine choice plus an evaluation mode.
//!
//! Mirrors the paper's architecture (§3.3): the user-facing API (here
//! [`crate::frame::PandasFrame`]) is engine-agnostic; a [`Session`] decides which
//! backend executes the rewritten algebra expressions (the MODIN-like engine, the
//! pandas-like baseline, or the reference executor) and how statements are scheduled
//! (eager, lazy or opportunistic — §6.1.1).

use std::sync::Arc;

use df_core::engine::{Engine, EngineKind, ReferenceEngine};
use df_types::error::DfError;

use df_baseline::{BaselineConfig, BaselineEngine};
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::session::{EvalMode, QuerySession, SessionStats};
use df_storage::spill::SpillStats;

/// A configured analysis session.
///
/// ```
/// use df_pandas::{PandasFrame, Session};
/// use df_types::cell::cell;
///
/// // The drop-in configuration the paper targets: scalable engine, eager mode.
/// let session = Session::modin();
/// let df = PandasFrame::from_columns(
///     &session,
///     vec!["v", "w"],
///     vec![vec![cell(1), cell(2)], vec![cell(10), cell(20)]],
/// )?;
/// let filtered = df.filter_gt("v", 1)?;
/// assert_eq!(filtered.collect()?.n_rows(), 1);
/// // Statement scheduling and caching are observable through the session stats.
/// assert!(session.stats().statements >= 2);
/// # Ok::<(), df_types::error::DfError>(())
/// ```
pub struct Session {
    query: QuerySession,
    kind: EngineKind,
    /// The typed engine handle, retained when the session is MODIN-backed so callers
    /// can reach engine-specific surfaces (spill statistics, dispatch counters).
    modin: Option<Arc<ModinEngine>>,
}

impl Session {
    /// A session backed by the scalable (MODIN-like) engine with eager evaluation —
    /// the drop-in-replacement configuration the paper targets.
    pub fn modin() -> Arc<Session> {
        Session::modin_with(ModinConfig::default(), EvalMode::Eager)
    }

    /// A MODIN-backed session with an explicit engine configuration and mode.
    pub fn modin_with(config: ModinConfig, mode: EvalMode) -> Arc<Session> {
        let engine = Arc::new(ModinEngine::with_config(config));
        let modin = Some(Arc::clone(&engine));
        let kind = engine.kind();
        Arc::new(Session {
            query: QuerySession::new(engine, mode),
            kind,
            modin,
        })
    }

    /// An out-of-core MODIN session (paper §3.3): partitions live in a session-scoped
    /// spill store with `memory_budget_bytes` of in-memory budget; least-recently-used
    /// bands spill to disk instead of exhausting memory, and the spill directory is
    /// freed when the session drops. Inspect behaviour via [`Session::spill_stats`].
    ///
    /// Metadata questions stay cheap even when everything is spilled: `shape`,
    /// `schema` and `dtypes` answer from the domains each band cached at check-in,
    /// never loading a spilled band back.
    ///
    /// ```
    /// use df_pandas::{PandasFrame, Session};
    /// use df_storage::csv::CsvOptions;
    /// use df_types::domain::Domain;
    ///
    /// let dir = std::env::temp_dir().join(format!("df_session_doc_{}", std::process::id()));
    /// std::fs::create_dir_all(&dir)?;
    /// let path = dir.join("trips.csv");
    /// std::fs::write(&path, "trip_id,fare\n1,5.5\n2,7.25\n3,12.0\n")?;
    ///
    /// // A 1-byte budget spills every ingested band immediately.
    /// let session = Session::modin_out_of_core(1);
    /// let options = CsvOptions { infer_schema: true, ..CsvOptions::default() };
    /// let trips = PandasFrame::read_csv_path(&session, &path, &options)?;
    ///
    /// let loads_before = session.spill_stats().unwrap().load_backs;
    /// assert_eq!(trips.shape()?, (3, 2));
    /// let dtypes = trips.dtypes()?; // answered from band metadata…
    /// assert_eq!(dtypes[0].1, Domain::Int);
    /// assert_eq!(dtypes[1].1, Domain::Float);
    /// // …so nothing was loaded back from disk to answer.
    /// assert_eq!(session.spill_stats().unwrap().load_backs, loads_before);
    /// std::fs::remove_file(&path)?;
    /// # Ok::<(), df_types::error::DfError>(())
    /// ```
    pub fn modin_out_of_core(memory_budget_bytes: usize) -> Arc<Session> {
        Session::modin_with(
            ModinConfig::default().with_memory_budget(memory_budget_bytes),
            EvalMode::Eager,
        )
    }

    /// A session backed by the pandas-like baseline engine (always eager).
    pub fn baseline() -> Arc<Session> {
        Session::with_engine(Arc::new(BaselineEngine::new()), EvalMode::Eager)
    }

    /// A baseline-backed session with an explicit configuration.
    pub fn baseline_with(config: BaselineConfig) -> Arc<Session> {
        Session::with_engine(
            Arc::new(BaselineEngine::with_config(config)),
            EvalMode::Eager,
        )
    }

    /// A session backed by the reference executor (semantics ground truth).
    pub fn reference() -> Arc<Session> {
        Session::with_engine(Arc::new(ReferenceEngine), EvalMode::Eager)
    }

    /// A session over an arbitrary engine and evaluation mode.
    pub fn with_engine(engine: Arc<dyn Engine>, mode: EvalMode) -> Arc<Session> {
        let kind = engine.kind();
        Arc::new(Session {
            query: QuerySession::new(engine, mode),
            kind,
            modin: None,
        })
    }

    /// Wrap an already-configured [`QuerySession`] — the multi-tenant front end.
    /// `df-service` builds the query session with shared cache/gate state and a
    /// tenant label, then wraps it here so every [`crate::frame::PandasFrame`]
    /// call a tenant makes flows through the service's admission control and
    /// shared cache unchanged. Pass the typed engine handle when the session is
    /// MODIN-backed so [`Session::spill_stats`] keeps answering.
    pub fn from_query(query: QuerySession, modin: Option<Arc<ModinEngine>>) -> Arc<Session> {
        let kind = query.engine().kind();
        Arc::new(Session { query, kind, modin })
    }

    /// Which engine backs this session.
    pub fn engine_kind(&self) -> EngineKind {
        self.kind
    }

    /// The evaluation mode in force.
    pub fn mode(&self) -> EvalMode {
        self.query.mode()
    }

    /// The underlying query session (statement scheduling, caching, prefix execution).
    pub fn query(&self) -> &QuerySession {
        &self.query
    }

    /// Scheduling / caching counters for this session.
    pub fn stats(&self) -> SessionStats {
        self.query.stats()
    }

    /// The most recent submit-time error recorded by an infallible builder method
    /// (e.g. [`crate::frame::PandasFrame::from_dataframe`] under an eager session),
    /// clearing the slot. The same error also resurfaces at the statement's next
    /// materialisation point; this accessor exists so callers can check earlier.
    pub fn take_last_submit_error(&self) -> Option<DfError> {
        self.query.take_last_submit_error()
    }

    /// The typed MODIN engine behind this session. Populated by the `modin*`
    /// constructors; [`Session::with_engine`] erases the engine type and therefore
    /// returns `None` here even for a hand-built `ModinEngine`.
    pub fn modin_engine(&self) -> Option<&Arc<ModinEngine>> {
        self.modin.as_ref()
    }

    /// Out-of-core statistics of the session's spill store. `Some` only for sessions
    /// built through the `modin*` constructors (all-zero when the engine runs without
    /// a memory budget); `None` for baseline/reference sessions and for engines
    /// passed through the type-erasing [`Session::with_engine`].
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.modin.as_ref().map(|engine| engine.spill_stats())
    }

    /// Parallel-ingest counters (`bands_parsed`, `ingest_bytes`) of the session's
    /// engine. Availability follows the same rule as [`Session::spill_stats`].
    pub fn ingest_stats(&self) -> Option<df_engine::IngestStats> {
        self.modin.as_ref().map(|engine| engine.ingest_stats())
    }

    /// Cooperatively cancel whatever statement is currently executing on the
    /// engine's workers (no-op for engines without a cancel token). Queued band
    /// tasks are abandoned with a typed `Cancelled` error at the next task
    /// boundary; call [`Session::reset_cancel`] before the next statement.
    pub fn cancel(&self) {
        self.query.cancel();
    }

    /// Re-arm the engine after [`Session::cancel`] or a timed-out statement.
    pub fn reset_cancel(&self) {
        self.query.reset_cancel();
    }

    /// Run `statement` under a wall-clock deadline — the per-statement timeout
    /// entry point of [`df_engine::session::QuerySession::with_timeout`], exposed
    /// at the pandas layer: `session.with_timeout(d, || frame.collect())`.
    pub fn with_timeout<T>(
        &self,
        timeout: std::time::Duration,
        statement: impl FnOnce() -> df_types::error::DfResult<T>,
    ) -> df_types::error::DfResult<T> {
        self.query.with_timeout(timeout, statement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::PlanKey;

    #[test]
    fn constructors_pick_the_right_engines() {
        assert_eq!(Session::modin().engine_kind(), EngineKind::Modin);
        assert_eq!(Session::baseline().engine_kind(), EngineKind::Baseline);
        assert_eq!(Session::reference().engine_kind(), EngineKind::Reference);
        assert_eq!(Session::modin().mode(), EvalMode::Eager);
        let lazy = Session::modin_with(ModinConfig::sequential(), EvalMode::Lazy);
        assert_eq!(lazy.mode(), EvalMode::Lazy);
        let constrained = Session::baseline_with(BaselineConfig::unconstrained());
        assert_eq!(constrained.engine_kind(), EngineKind::Baseline);
    }

    #[test]
    fn stats_start_at_zero() {
        let session = Session::modin();
        assert_eq!(session.stats().statements, 0);
        assert_eq!(session.stats().executions, 0);
    }

    #[test]
    fn out_of_core_sessions_spill_and_match_in_memory_results() {
        use df_core::algebra::{Aggregation, AlgebraExpr};
        use df_core::dataframe::DataFrame;
        use df_types::cell::{cell, Cell};

        let rows = 400usize;
        let k: Vec<Cell> = (0..rows).map(|i| cell((i % 7) as i64)).collect();
        let v: Vec<Cell> = (0..rows).map(|i| cell(format!("value-{i}"))).collect();
        let frame = DataFrame::from_columns(vec!["k", "v"], vec![k, v]).unwrap();
        let budget = frame.approx_size_bytes() / 4;
        let expr = AlgebraExpr::literal(frame).group_by(
            vec![cell("k")],
            vec![Aggregation::count_rows()],
            false,
        );

        let out_of_core = Session::modin_with(
            ModinConfig::default()
                .with_memory_budget(budget)
                .with_partition_size(32, 8),
            EvalMode::Eager,
        );
        let in_memory = Session::modin_with(
            ModinConfig::sequential().with_partition_size(32, 8),
            EvalMode::Eager,
        );
        let bounded = out_of_core.query().collect(&PlanKey::of(&expr)).unwrap();
        let unbounded = in_memory.query().collect(&PlanKey::of(&expr)).unwrap();
        assert!(bounded.same_data(&unbounded));

        let stats = out_of_core.spill_stats().expect("modin session has stats");
        assert!(
            stats.spill_outs > 0,
            "tight budget never spilled: {stats:?}"
        );
        assert!(out_of_core.modin_engine().is_some());
        // Non-MODIN sessions expose no spill surface; budget-less MODIN ones report
        // all-zero stats.
        assert!(Session::baseline().spill_stats().is_none());
        assert_eq!(in_memory.spill_stats().unwrap().spill_outs, 0);
    }
}
