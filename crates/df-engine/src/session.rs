//! Evaluation modes and the materialisation/reuse cache.
//!
//! Paper §6.1.1 contrasts three ways a dataframe system can schedule the statements a
//! user types one at a time:
//!
//! * **eager** — pandas' behaviour: evaluate each statement fully before returning
//!   control (users wait even for results they never inspect);
//! * **lazy** — defer everything until a result is explicitly requested (better plans,
//!   but bugs surface late);
//! * **opportunistic** — return control immediately *and* start computing in the
//!   background during the user's think time, prioritising whatever the user actually
//!   asks to see.
//!
//! [`QuerySession`] implements all three over any [`Engine`], together with the
//! §6.2.2 materialisation cache. The two are one mechanism: a statement's result is
//! produced once under the cache's single-flight slot for its [`PlanKey`] and served
//! to whoever asks for it. An opportunistic submit claims that slot and runs the
//! statement on a background thread; a later request waits on the unfinished run,
//! hits the finished one, or retries after a failed one, exactly as it would for
//! another session's execution. Cached results are [`FrameHandle`]s, not resident
//! dataframes: for the scalable engine a cached result is a partition grid whose
//! blocks live under the engine's memory budget (spilling to disk like any other
//! partition), so remembering results across statements does not defeat the
//! out-of-core store.
//!
//! Every entry point takes only the statement's [`PlanKey`], which owns the logical
//! plan it names. On a miss the session runs that plan *rebased*: each proper
//! sub-plan whose result is cached becomes a handle leaf, so a chain of statements
//! resumes from its latest cached intermediate whichever frames built it. The
//! logical plan is also the lineage record: a spill-corruption failure while serving
//! a statement evicts it and every cached sub-plan, then serves it once more.
//!
//! The session is also the unit of *tenancy*: its cache is an
//! [`Arc<ResultCache>`](crate::cache::ResultCache) that several sessions may share
//! (identical statements from different tenants then execute once), its hot
//! counters are MRV-style striped atomics so concurrent tenants do not serialize on
//! stats bumps, and every engine execution passes through an optional
//! [`StatementGate`] — the admission-control hook `df-service` implements with a
//! bounded, tenant-fair run queue. A standalone session (the `new` constructor) has
//! a private cache and no gate.

use std::sync::mpsc::channel;
use std::sync::Arc;

use parking_lot::Mutex;

use df_types::error::{DfError, DfResult};
use df_types::StripedU64;

use df_core::algebra::AlgebraExpr;
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;
use df_core::handle::FrameHandle;

use crate::cache::{FlightGuard, Lookup, ResultCache};
use crate::optimizer::map_children;
use crate::PlanKey;

/// How statements are scheduled (paper §6.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalMode {
    /// Evaluate fully as soon as a statement is issued.
    Eager,
    /// Defer evaluation until the result is explicitly requested.
    Lazy,
    /// Return immediately and compute in the background during think time.
    Opportunistic,
}

/// Counters describing a session's behaviour: its own scheduling and cache counters
/// plus live mirrors of the engine's pushdown and the cache's eviction counters (see
/// [`QuerySession::stats`]). `df-service` reports one per tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Statements submitted.
    pub statements: u64,
    /// Full executions performed by the engine.
    pub executions: u64,
    /// Results served from the materialisation cache.
    pub cache_hits: u64,
    /// Background (opportunistic) executions started: submits that claimed their
    /// statement's single-flight slot.
    pub background_started: u64,
    /// Submit-time errors recorded (rather than silently discarded) by API layers
    /// that cannot propagate them from an infallible builder method. The error itself
    /// is retrievable once via [`QuerySession::take_last_submit_error`] and will
    /// surface again at the next materialisation point of the same statement.
    pub submit_errors: u64,
    /// Corruption recoveries: serving a statement met a spilled partition that failed
    /// its checksum (its own cached result's or a cached sub-plan's), so those entries
    /// were evicted and the statement served once more from its logical plan.
    pub recoveries: u64,
    /// Scan chunks proven row-free by their min/max statistics and never parsed
    /// (mirrors the engine's pushdown counters; zero for engines without scans).
    pub chunks_skipped: u64,
    /// File columns scans never materialised thanks to pushed projections.
    pub columns_pruned: u64,
    /// Predicates the optimizer folded into scan leaves.
    pub predicates_pushed: u64,
    /// Projections the optimizer folded into scan leaves.
    pub projections_pushed: u64,
    /// Joins that broadcast their build side instead of shuffling both inputs.
    pub joins_broadcast: u64,
    /// Joins that hash-shuffled both inputs.
    pub joins_shuffled: u64,
    /// Cache entries evicted by byte-budget or tenant-quota pressure (mirrors the
    /// result cache's counter; explicit `evict`/`clear_cache` calls don't count).
    pub evictions: u64,
}

/// The session's hot counters, shared behind an `Arc` and split MRV-style over
/// striped atomic cells ([`StripedU64`]): tenant threads bumping `statements` or
/// `cache_hits` concurrently land on different cache lines instead of serializing
/// on one `Mutex<SessionStats>`. Merged into the public [`SessionStats`] snapshot
/// on read.
#[derive(Default)]
struct SharedSessionStats {
    statements: StripedU64,
    executions: StripedU64,
    cache_hits: StripedU64,
    background_started: StripedU64,
    submit_errors: StripedU64,
    recoveries: StripedU64,
}

impl SharedSessionStats {
    fn snapshot(&self) -> SessionStats {
        SessionStats {
            statements: self.statements.get(),
            executions: self.executions.get(),
            cache_hits: self.cache_hits.get(),
            background_started: self.background_started.get(),
            submit_errors: self.submit_errors.get(),
            recoveries: self.recoveries.get(),
            ..SessionStats::default()
        }
    }
}

/// Admission-control hook applied around every engine execution this session
/// performs (foreground and background alike). `df-service` implements it
/// with a bounded run queue that is fair *across tenants*; a standalone session has
/// none and executes immediately.
///
/// Contract: a successful [`StatementGate::admit`] grants one execution slot that
/// the session releases via [`StatementGate::release`] once the execution's result
/// is published or has failed (the session pairs the calls RAII-style, so a
/// panicking engine still releases).
/// Refusals surface typed — [`DfError::Admission`] when turned away at the door
/// (queue full, service draining), [`DfError::Cancelled`] when a queue wait times
/// out. Cache hits and single-flight waits do not pass through the gate: served
/// results consume no execution slot, which is also what makes waiting on another
/// tenant's pending execution deadlock-free.
pub trait StatementGate: Send + Sync {
    /// Block until an execution slot is granted (or refuse typed).
    fn admit(&self, tenant: Option<&str>) -> DfResult<()>;
    /// Return the slot granted by the matching [`StatementGate::admit`].
    fn release(&self);
}

/// RAII pairing of `admit`/`release` around one engine execution.
struct GatePermit {
    gate: Option<Arc<dyn StatementGate>>,
}

impl GatePermit {
    fn acquire(
        gate: &Option<Arc<dyn StatementGate>>,
        tenant: Option<&str>,
    ) -> DfResult<GatePermit> {
        match gate {
            Some(g) => {
                g.admit(tenant)?;
                Ok(GatePermit {
                    gate: Some(Arc::clone(g)),
                })
            }
            None => Ok(GatePermit { gate: None }),
        }
    }
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        if let Some(gate) = &self.gate {
            gate.release();
        }
    }
}

/// The one produce step behind every claimed flight — a foreground miss and a
/// background run alike: one counted execution, then publication under the claimed
/// key. Callers hold an admission permit across it until the result is published, so
/// an idle gate means every admitted run is in the cache or failed. On error the
/// guard drops: the claim is withdrawn and the next request retries.
fn produce(
    flight: FlightGuard,
    stats: &SharedSessionStats,
    run: impl FnOnce() -> DfResult<FrameHandle>,
) -> DfResult<FrameHandle> {
    stats.executions.incr();
    let handle = run()?;
    flight.complete(handle.clone())?;
    Ok(handle)
}

/// A stateful analysis session in front of an [`Engine`].
pub struct QuerySession {
    engine: Arc<dyn Engine>,
    mode: EvalMode,
    cache: Arc<ResultCache>,
    stats: Arc<SharedSessionStats>,
    last_submit_error: Mutex<Option<DfError>>,
    /// The tenant this session acts for inside a shared service (`None` for a
    /// standalone session). Used for cache attribution and gate fairness.
    tenant: Option<String>,
    gate: Option<Arc<dyn StatementGate>>,
}

impl QuerySession {
    /// A session over `engine` using the given evaluation mode, with a private
    /// unbounded cache and no admission gate (the single-user configuration).
    pub fn new(engine: Arc<dyn Engine>, mode: EvalMode) -> Self {
        QuerySession::with_shared_state(engine, mode, Arc::new(ResultCache::new()), None, None)
    }

    /// The multi-tenant constructor: a session over a (typically shared) engine
    /// whose result cache is shared with other sessions, whose executions pass
    /// through `gate`, and whose cache activity is attributed to `tenant`.
    /// `df-service` builds one of these per [`TenantSession`]; each keeps its own
    /// stats counters, so per-tenant statement/hit/execution numbers come free.
    ///
    /// [`TenantSession`]: https://docs.rs/df-service
    pub fn with_shared_state(
        engine: Arc<dyn Engine>,
        mode: EvalMode,
        cache: Arc<ResultCache>,
        tenant: Option<String>,
        gate: Option<Arc<dyn StatementGate>>,
    ) -> Self {
        QuerySession {
            engine,
            mode,
            cache,
            stats: Arc::new(SharedSessionStats::default()),
            last_submit_error: Mutex::new(None),
            tenant,
            gate,
        }
    }

    /// The evaluation mode this session uses.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// The engine behind this session.
    pub fn engine(&self) -> &Arc<dyn Engine> {
        &self.engine
    }

    /// The tenant label this session attributes its cache activity to.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Counters accumulated so far. The pushdown fields are read live from the
    /// engine's own counters, so they reflect every execution this session ran
    /// (including background runs that have already finished); `evictions`
    /// mirrors the result cache's counter the same way. Both are *shared-state*
    /// reads: behind a shared engine or cache they count every tenant's activity,
    /// while the remaining fields are this session's own.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.stats.snapshot();
        let pushdown = self.engine.pushdown_stats();
        stats.chunks_skipped = pushdown.chunks_skipped;
        stats.columns_pruned = pushdown.columns_pruned;
        stats.predicates_pushed = pushdown.predicates_pushed;
        stats.projections_pushed = pushdown.projections_pushed;
        stats.joins_broadcast = pushdown.joins_broadcast;
        stats.joins_shuffled = pushdown.joins_shuffled;
        stats.evictions = self.cache.stats().evictions;
        stats
    }

    /// Render the engine's optimizer report for a statement — logical and optimized
    /// plans with per-node estimates, which pushdowns fired, and the planned join
    /// strategies — plus one session line saying whether this statement's result is
    /// already cached. Purely observational: nothing executes, no statistics
    /// counters move.
    pub fn explain(&self, key: &PlanKey) -> String {
        let mut out = self.engine.explain(key.plan());
        let status = if self.handle_for(key).is_some() {
            "result cached (next fetch is a cache hit)"
        } else {
            "result not cached (next fetch executes)"
        };
        out.push_str("== session ==\n");
        out.push_str(status);
        out.push('\n');
        out
    }

    /// Submit a statement. Under eager evaluation this blocks and computes a handle
    /// (or serves a cache hit for a re-submitted statement); under lazy evaluation
    /// it records nothing (the key's plan itself is the pending work); under
    /// opportunistic evaluation it claims the key's single-flight slot and computes
    /// the statement on a background thread (nothing starts when the result is
    /// already cached or being produced).
    pub fn submit(&self, key: &PlanKey) -> DfResult<()> {
        self.stats.statements.incr();
        match self.mode {
            EvalMode::Eager => self.handle(key).map(|_| ()),
            EvalMode::Lazy => Ok(()),
            EvalMode::Opportunistic => {
                self.spawn_background(key);
                Ok(())
            }
        }
    }

    /// Record a statement without a plan — what a lazy submit amounts to. API layers
    /// use this to skip keying a plan the lazy scheduler would discard anyway.
    pub fn note_statement(&self) {
        self.stats.statements.incr();
    }

    /// Record a submit-time error an infallible API layer could not propagate: it is
    /// counted in [`SessionStats::submit_errors`], kept for
    /// [`QuerySession::take_last_submit_error`], and will surface again when the
    /// statement reaches a materialisation point.
    pub fn record_submit_error(&self, err: DfError) {
        self.stats.submit_errors.incr();
        *self.last_submit_error.lock() = Some(err);
    }

    /// The most recent recorded submit error, if any (clears the slot).
    pub fn take_last_submit_error(&self) -> Option<DfError> {
        self.last_submit_error.lock().take()
    }

    /// Execute (or look up) a statement to an engine-owned [`FrameHandle`]: a
    /// cached result, an in-flight run of it (waited for), or a fresh execution of
    /// its rebased plan. This is the statement-boundary entry point: the caller can
    /// feed the returned handle into the next statement's plan via
    /// `AlgebraExpr::handle`. Single-flight: a request for an in-flight key — another
    /// tenant's execution or this session's own background run — blocks on it and is
    /// served its handle, so a statement executes once however many sessions ask.
    pub fn handle(&self, key: &PlanKey) -> DfResult<FrameHandle> {
        self.serve(key, || self.fetch(key))
    }

    /// One cache lookup for `key`: a hit, a wait on its in-flight producer, or — as
    /// the producer — one gated execution of its rebased plan.
    fn fetch(&self, key: &PlanKey) -> DfResult<FrameHandle> {
        match self.cache.begin(key, self.tenant.as_deref()) {
            Lookup::Hit(handle) => {
                self.stats.cache_hits.incr();
                Ok(handle)
            }
            Lookup::Miss(flight) => {
                let _permit = GatePermit::acquire(&self.gate, self.tenant.as_deref())?;
                produce(flight, &self.stats, || {
                    self.engine.execute(&rebase(&self.cache, key))
                })
            }
        }
    }

    /// Serve `key` through `op`, recovering once from spill corruption: the key and
    /// every cached sub-plan of its plan are evicted — any of their spilled partitions
    /// may be the poisoned one — and `op` runs again, now from the logical plan.
    /// Another session can have repopulated a key since the eviction: its fresh
    /// result is as good as one of our own. If the second run fails too, the
    /// corruption is below every cached result and surfaces typed.
    fn serve<T>(&self, key: &PlanKey, op: impl Fn() -> DfResult<T>) -> DfResult<T> {
        match op() {
            Err(err) if err.is_spill_corruption() => {
                self.stats.recoveries.incr();
                for (bytes, _) in key.sub_plans() {
                    self.cache.evict(bytes);
                }
                op()
            }
            other => other,
        }
    }

    /// A non-executing peek: the cached handle for a key, if one exists (no
    /// statistics are counted).
    fn handle_for(&self, key: &PlanKey) -> Option<FrameHandle> {
        self.cache.peek(key.bytes())
    }

    /// Materialisation point: fetch the full result of a statement as a dataframe.
    pub fn collect(&self, key: &PlanKey) -> DfResult<DataFrame> {
        self.serve(key, || self.engine.collect(&self.fetch(key)?))
    }

    /// Materialisation point: only the first `k` rows of a statement — the
    /// tabular-view inspection of §6.1.2. A finished result (cached, or published by
    /// a background run) serves it; otherwise the engine's prefix-prioritised path
    /// runs — it does *not* wait for an unfinished run of the full statement,
    /// because the prefix path is usually faster than finishing it.
    pub fn head(&self, key: &PlanKey, k: usize) -> DfResult<DataFrame> {
        self.serve(key, || {
            self.inspect(
                key,
                |h| self.engine.head_of(h, k),
                |plan| self.engine.execute_prefix(plan, k),
            )
        })
    }

    /// Materialisation point: only the last `k` rows of a statement, served like
    /// [`QuerySession::head`] through the engine's suffix path.
    pub fn tail(&self, key: &PlanKey, k: usize) -> DfResult<DataFrame> {
        self.serve(key, || {
            self.inspect(
                key,
                |h| self.engine.tail_of(h, k),
                |plan| self.engine.execute_suffix(plan, k),
            )
        })
    }

    /// The body of `head`/`tail`: read a finished result through `of`, else run the
    /// gated `partial` execution of the rebased plan. The handle is cloned out of the
    /// cache before the engine is touched: materialising a spilled handle can hit
    /// the disk, and holding the cache lock across it would serialise every other
    /// session call.
    fn inspect(
        &self,
        key: &PlanKey,
        of: impl FnOnce(&FrameHandle) -> DfResult<DataFrame>,
        partial: impl FnOnce(&AlgebraExpr) -> DfResult<DataFrame>,
    ) -> DfResult<DataFrame> {
        if let Some(handle) = self.cache.lookup(key, self.tenant.as_deref()) {
            self.stats.cache_hits.incr();
            return of(&handle);
        }
        let _permit = GatePermit::acquire(&self.gate, self.tenant.as_deref())?;
        self.stats.executions.incr();
        partial(&rebase(&self.cache, key))
    }

    /// Number of results currently held by the materialisation cache.
    pub fn cached_results(&self) -> usize {
        self.cache.len()
    }

    /// Drop every cached handle (models the §6.2.2 eviction discussion in its
    /// simplest form; for the scalable engine this also releases the underlying
    /// partitions' spill-store entries). On a *shared* cache this is a whole-cache
    /// administrative operation — it drops other tenants' entries too.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Drop one cached result: the next materialisation of `key` re-executes, and
    /// the result's partitions are freed once nothing else holds its handle.
    pub fn evict(&self, key: &PlanKey) {
        self.cache.evict(key.bytes());
    }

    /// Request cooperative cancellation of whatever statement is currently
    /// executing on the engine's workers. Tasks already running finish their
    /// current partition; queued tasks are abandoned with
    /// [`DfError::Cancelled`]. No-op for engines without a cancel token.
    pub fn cancel(&self) {
        if let Some(token) = self.engine.cancel_token() {
            token.cancel();
        }
    }

    /// Re-arm the engine after a [`QuerySession::cancel`] (or a timeout) so the
    /// session can run further statements.
    pub fn reset_cancel(&self) {
        if let Some(token) = self.engine.cancel_token() {
            token.reset();
        }
    }

    /// Per-statement timeout entry point: run `statement` (any combination of
    /// this session's submit/collect/inspect calls) under a wall-clock deadline.
    /// A watchdog thread fires the engine's cancel token when the deadline
    /// passes; workers then abandon queued tasks at the next task boundary and
    /// the statement surfaces as [`DfError::Cancelled`] describing the timeout.
    /// The token is reset on the way out, so the session stays usable. Engines
    /// without a cancel token run the statement unbounded.
    pub fn with_timeout<T>(
        &self,
        timeout: std::time::Duration,
        statement: impl FnOnce() -> DfResult<T>,
    ) -> DfResult<T> {
        let Some(token) = self.engine.cancel_token() else {
            return statement();
        };
        token.reset();
        let (done_tx, done_rx) = channel::<()>();
        let watchdog_token = token.clone();
        let watchdog = std::thread::spawn(move || {
            // Timeout => fire the token; Disconnected => statement finished first.
            if matches!(
                done_rx.recv_timeout(timeout),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout)
            ) {
                watchdog_token.cancel();
            }
        });
        let result = statement();
        drop(done_tx);
        let _ = watchdog.join();
        let timed_out = token.is_cancelled();
        token.reset();
        match result {
            Err(err) if err.is_cancelled() && timed_out => Err(DfError::Cancelled(format!(
                "statement exceeded its {timeout:?} timeout"
            ))),
            other => other,
        }
    }

    fn spawn_background(&self, key: &PlanKey) {
        // A result someone has produced, or is producing, needs no second run.
        let Some(flight) = self.cache.claim(key, self.tenant.as_deref()) else {
            return;
        };
        self.stats.background_started.incr();
        let engine = Arc::clone(&self.engine);
        let (gate, tenant) = (self.gate.clone(), self.tenant.clone());
        let (stats, cache) = (Arc::clone(&self.stats), Arc::clone(&self.cache));
        let key = key.clone();
        // Admission and rebasing happen on the worker, so submit() never blocks. The
        // thread is detached: a published result is a cache entry, and a failure or
        // panic withdraws the claim, so the next request for the key runs the
        // statement itself and meets the error there.
        std::thread::spawn(move || {
            let Ok(_permit) = GatePermit::acquire(&gate, tenant.as_deref()) else {
                return;
            };
            // This run's copy of the result drops before the permit: once the gate is
            // idle, the cache holds the only copy.
            let _ = produce(flight, &stats, || engine.execute(&rebase(&cache, &key)));
        });
    }
}

/// The plan a statement runs as: its logical plan with every proper sub-plan whose
/// result is cached replaced by that result's handle, found top-down so the largest
/// cached sub-plan wins. Sub-plans are looked up by their runs of the key's bytes, and
/// peeks count nothing; the statement's own key is never a proper sub-plan, so a
/// producer is never served its own in-flight slot.
fn rebase(cache: &ResultCache, key: &PlanKey) -> Arc<AlgebraExpr> {
    fn under(
        cache: &ResultCache,
        plan: &Arc<AlgebraExpr>,
        sub_plans: &[(&[u8], usize)],
        next: &mut usize,
    ) -> Arc<AlgebraExpr> {
        map_children(plan, &mut |child| {
            let (bytes, size) = sub_plans[*next];
            match cache.peek(bytes) {
                Some(handle) => {
                    *next += size;
                    Arc::new(AlgebraExpr::handle(handle))
                }
                None => {
                    *next += 1;
                    under(cache, child, sub_plans, next)
                }
            }
        })
    }
    under(cache, key.plan(), &key.sub_plans(), &mut 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ModinConfig, ModinEngine};
    use df_core::algebra::{MapFunc, Predicate};
    use df_types::cell::cell;

    fn engine() -> Arc<dyn Engine> {
        Arc::new(ModinEngine::with_config(
            ModinConfig::sequential().with_partition_size(8, 4),
        ))
    }

    fn frame(rows: usize) -> DataFrame {
        DataFrame::from_columns(
            vec!["v", "w"],
            vec![
                (0..rows).map(|i| cell(i as i64)).collect(),
                (0..rows).map(|i| cell((i * 2) as i64)).collect(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn eager_mode_computes_on_submit_and_caches_handles() {
        let session = QuerySession::new(engine(), EvalMode::Eager);
        let expr = AlgebraExpr::literal(frame(30)).map(MapFunc::IsNullMask);
        session.submit(&PlanKey::of(&expr)).unwrap();
        assert_eq!(session.stats().executions, 1);
        // What the cache holds is a handle, not a resident dataframe.
        let cached = session.handle_for(&PlanKey::of(&expr)).unwrap();
        assert!(cached.is_partitioned());
        let out = session.collect(&PlanKey::of(&expr)).unwrap();
        assert_eq!(out.shape(), (30, 2));
        // Fetches and re-submissions are cache hits, not re-executions.
        session.collect(&PlanKey::of(&expr)).unwrap();
        session.submit(&PlanKey::of(&expr)).unwrap();
        assert_eq!(session.stats().executions, 1);
        assert_eq!(session.stats().cache_hits, 3);
        assert_eq!(session.stats().statements, 2);
        assert_eq!(session.cached_results(), 1);
    }

    #[test]
    fn lazy_mode_defers_until_collect() {
        let session = QuerySession::new(engine(), EvalMode::Lazy);
        let expr = AlgebraExpr::literal(frame(10)).select(Predicate::True);
        session.submit(&PlanKey::of(&expr)).unwrap();
        assert_eq!(session.stats().executions, 0);
        session.collect(&PlanKey::of(&expr)).unwrap();
        assert_eq!(session.stats().executions, 1);
    }

    #[test]
    fn opportunistic_mode_computes_in_background() {
        let session = QuerySession::new(engine(), EvalMode::Opportunistic);
        let expr = AlgebraExpr::literal(frame(50)).map(MapFunc::IsNullMask);
        session.submit(&PlanKey::of(&expr)).unwrap();
        assert_eq!(session.stats().background_started, 1);
        // Re-submitting the same statement does not spawn a duplicate worker.
        session.submit(&PlanKey::of(&expr)).unwrap();
        assert_eq!(session.stats().background_started, 1);
        let out = session.collect(&PlanKey::of(&expr)).unwrap();
        assert_eq!(out.shape(), (50, 2));
        // Once collected the result is cached.
        session.collect(&PlanKey::of(&expr)).unwrap();
        assert!(session.stats().cache_hits >= 1);
    }

    #[test]
    fn finished_background_runs_serve_tail_without_reexecution() {
        let session = QuerySession::new(engine(), EvalMode::Opportunistic);
        let expr = AlgebraExpr::literal(frame(60)).map(MapFunc::IsNullMask);
        session.submit(&PlanKey::of(&expr)).unwrap();
        // Blocks until the background run has published its result.
        session.handle(&PlanKey::of(&expr)).unwrap();
        let tail = session.tail(&PlanKey::of(&expr), 3).unwrap();
        assert_eq!(tail.shape(), (3, 2));
        let stats = session.stats();
        assert_eq!(
            stats.executions, 1,
            "tail re-executed despite a finished background result: {stats:?}"
        );
        assert_eq!(stats.cache_hits, 2, "{stats:?}");
        session.collect(&PlanKey::of(&expr)).unwrap();
        assert_eq!(session.stats().cache_hits, 3);
        assert_eq!(session.stats().executions, 1);
    }

    #[test]
    fn handles_cross_statement_boundaries_without_reexecution() {
        let session = QuerySession::new(engine(), EvalMode::Eager);
        let first = AlgebraExpr::literal(frame(40)).select(Predicate::True);
        session.submit(&PlanKey::of(&first)).unwrap();
        let handle = session.handle(&PlanKey::of(&first)).unwrap();
        // Next statement consumes the previous statement's handle as a plan leaf.
        let second = AlgebraExpr::handle(handle).map(MapFunc::IsNullMask);
        session.submit(&PlanKey::of(&second)).unwrap();
        let out = session.collect(&PlanKey::of(&second)).unwrap();
        assert_eq!(out.shape(), (40, 2));
        assert_eq!(out.cell(0, 0).unwrap(), &cell(false));
        assert_eq!(session.stats().executions, 2);
    }

    #[test]
    fn a_miss_runs_rebased_onto_cached_sub_plans() {
        let modin = Arc::new(ModinEngine::with_config(
            ModinConfig::sequential().with_partition_size(8, 4),
        ));
        let session = QuerySession::new(Arc::clone(&modin) as Arc<dyn Engine>, EvalMode::Lazy);
        let first = AlgebraExpr::literal(frame(40)).select(Predicate::True);
        session.collect(&PlanKey::of(&first)).unwrap();
        let reused = modin.handles_reused();
        // The statement is keyed by its logical plan; its cached input still serves.
        let second = first.map(MapFunc::IsNullMask);
        let out = session.collect(&PlanKey::of(&second)).unwrap();
        assert_eq!(out.shape(), (40, 2));
        assert!(
            modin.handles_reused() > reused,
            "the cached input re-executed"
        );
        assert_eq!(session.stats().executions, 2);
    }

    #[test]
    fn rebasing_finds_cached_sub_plans_on_both_sides_of_a_binary_node() {
        let modin = Arc::new(ModinEngine::with_config(
            ModinConfig::sequential().with_partition_size(8, 4),
        ));
        let session = QuerySession::new(Arc::clone(&modin) as Arc<dyn Engine>, EvalMode::Lazy);
        let left = AlgebraExpr::literal(frame(20)).select(Predicate::True);
        let right = AlgebraExpr::literal(frame(12)).map(MapFunc::IsNullMask);
        session.collect(&PlanKey::of(&left)).unwrap();
        session.collect(&PlanKey::of(&right)).unwrap();
        let reused = modin.handles_reused();
        // The left input's cached sub-plan sits below an uncached node, so the walk
        // skips its subtree there and must still find the right input's entry.
        let plan = left.map(MapFunc::IsNullMask).union(right);
        let out = session.collect(&PlanKey::of(&plan)).unwrap();
        assert_eq!(out.shape(), (32, 2));
        assert_eq!(modin.handles_reused() - reused, 2, "both inputs served");
    }

    #[test]
    fn head_uses_prefix_execution_when_nothing_is_cached() {
        let session = QuerySession::new(engine(), EvalMode::Lazy);
        let expr = AlgebraExpr::literal(frame(100)).map(MapFunc::IsNullMask);
        let head = session.head(&PlanKey::of(&expr), 5).unwrap();
        assert_eq!(head.shape(), (5, 2));
        let tail = session.tail(&PlanKey::of(&expr), 3).unwrap();
        assert_eq!(tail.shape(), (3, 2));
        assert_eq!(tail.cell(2, 0).unwrap(), &cell(false));
    }

    #[test]
    fn opportunistic_sessions_work_over_an_out_of_core_engine() {
        // The spill store is session-scoped and shared (via Arc) with background
        // workers: an opportunistic session over a budgeted engine must produce the
        // same results as an in-memory one, with the store actually engaging.
        let df = frame(300);
        let budget = df.approx_size_bytes() / 4;
        let modin = Arc::new(ModinEngine::with_config(
            ModinConfig::default()
                .with_memory_budget(budget)
                .with_partition_size(16, 4),
        ));
        let session = QuerySession::new(
            Arc::clone(&modin) as Arc<dyn Engine>,
            EvalMode::Opportunistic,
        );
        let expr = AlgebraExpr::literal(df).map(MapFunc::IsNullMask);
        session.submit(&PlanKey::of(&expr)).unwrap();
        let out = session.collect(&PlanKey::of(&expr)).unwrap();
        assert_eq!(out.shape(), (300, 2));
        let reference = QuerySession::new(engine(), EvalMode::Eager)
            .collect(&PlanKey::of(&expr))
            .unwrap();
        assert!(out.same_data(&reference));
        assert!(
            modin.spill_stats().spill_outs > 0,
            "budgeted engine never spilled: {:?}",
            modin.spill_stats()
        );
    }

    #[test]
    fn cached_handles_stay_budget_accounted_until_evicted() {
        // A cached result over a budgeted engine is held as spilled/stored
        // partitions, not a resident dataframe — and clearing the cache releases its
        // store entries.
        let df = frame(300);
        let budget = df.approx_size_bytes() / 4;
        let modin = Arc::new(ModinEngine::with_config(
            ModinConfig::default()
                .with_memory_budget(budget)
                .with_partition_size(16, 4),
        ));
        let session = QuerySession::new(Arc::clone(&modin) as Arc<dyn Engine>, EvalMode::Eager);
        let expr = AlgebraExpr::literal(df).map(MapFunc::IsNullMask);
        session.submit(&PlanKey::of(&expr)).unwrap();
        let stats = modin.spill_stats();
        assert!(
            stats.in_memory + stats.spilled > 0,
            "cached handle holds no partitions: {stats:?}"
        );
        assert!(
            stats.memory_bytes <= budget + stats.max_insert_bytes,
            "cached handle blew the budget: {stats:?}"
        );
        session.clear_cache();
        let drained = modin.spill_stats();
        assert_eq!(
            drained.in_memory + drained.spilled,
            0,
            "evicted cache leaked store entries: {drained:?}"
        );
    }

    #[test]
    fn cache_entries_pin_literal_identities_against_address_reuse() {
        // Keys identify literals by Arc address. If the cache did not keep
        // the keyed plan alive, this loop would routinely allocate a new literal at
        // a just-freed address and hit the previous statement's stale entry. With
        // pinning, every distinct frame executes and returns its own data.
        let session = QuerySession::new(engine(), EvalMode::Eager);
        for i in 0..32u64 {
            let df = DataFrame::from_columns(
                vec!["v"],
                vec![(0..8).map(|j| cell((i * 100 + j) as i64)).collect()],
            )
            .unwrap();
            let expr = AlgebraExpr::literal(df).select(Predicate::True);
            session.submit(&PlanKey::of(&expr)).unwrap();
            let out = session.collect(&PlanKey::of(&expr)).unwrap();
            assert_eq!(
                out.cell(0, 0).unwrap(),
                &cell((i * 100) as i64),
                "statement {i} was served a stale cached result"
            );
            // The statement (and its literal) drop here; its cache entry's key must
            // keep the literal's allocation alive.
        }
        assert_eq!(session.stats().executions, 32);
    }

    #[test]
    fn bounded_cache_evicts_lru_with_a_counter() {
        // Measure one result's cached footprint, then bound a session to ~2.5 of it.
        let probe = QuerySession::new(engine(), EvalMode::Eager);
        let sample = AlgebraExpr::literal(frame(40)).map(MapFunc::IsNullMask);
        probe.submit(&PlanKey::of(&sample)).unwrap();
        let unit = probe
            .handle_for(&PlanKey::of(&sample))
            .unwrap()
            .approx_size_bytes();
        assert!(unit > 0);
        let session = QuerySession::with_shared_state(
            engine(),
            EvalMode::Eager,
            Arc::new(ResultCache::with_budget(Some(unit * 2 + unit / 2))),
            None,
            None,
        );
        let exprs: Vec<AlgebraExpr> = (0..4)
            .map(|_| AlgebraExpr::literal(frame(40)).map(MapFunc::IsNullMask))
            .collect();
        for expr in &exprs {
            session.submit(&PlanKey::of(expr)).unwrap();
        }
        // Same-sized results: two fit, the two oldest were evicted.
        assert_eq!(session.cached_results(), 2);
        assert_eq!(session.stats().evictions, 2);
        assert!(session.handle_for(&PlanKey::of(&exprs[0])).is_none());
        assert!(session.handle_for(&PlanKey::of(&exprs[3])).is_some());
        // An evicted statement recomputes correctly on the next fetch.
        let out = session.collect(&PlanKey::of(&exprs[0])).unwrap();
        assert_eq!(out.shape(), (40, 2));
        assert_eq!(session.stats().executions, 5);
    }

    #[test]
    fn shared_cache_single_flights_identical_statements_across_sessions() {
        let shared_engine = engine();
        let cache = Arc::new(crate::cache::ResultCache::new());
        let expr = Arc::new(AlgebraExpr::literal(frame(80)).map(MapFunc::IsNullMask));
        let sessions: Vec<Arc<QuerySession>> = (0..4)
            .map(|i| {
                Arc::new(QuerySession::with_shared_state(
                    Arc::clone(&shared_engine),
                    EvalMode::Eager,
                    Arc::clone(&cache),
                    Some(format!("tenant-{i}")),
                    None,
                ))
            })
            .collect();
        let reference = expr.as_ref().clone();
        let expected = QuerySession::new(engine(), EvalMode::Eager)
            .collect(&PlanKey::of(&reference))
            .unwrap();
        std::thread::scope(|scope| {
            for session in &sessions {
                let session = Arc::clone(session);
                let expr = Arc::clone(&expr);
                let expected = &expected;
                scope.spawn(move || {
                    let out = session.collect(&PlanKey::of(&expr)).unwrap();
                    assert!(out.same_data(expected));
                });
            }
        });
        let total_executions: u64 = sessions.iter().map(|s| s.stats().executions).sum();
        assert_eq!(
            total_executions, 1,
            "identical statements must execute exactly once across sessions"
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 3, "the three non-producers must hit: {stats:?}");
        assert_eq!(stats.shared_hits, 3, "{stats:?}");
    }

    #[test]
    fn submit_errors_are_recorded_and_retrievable() {
        let session = QuerySession::new(engine(), EvalMode::Eager);
        assert!(session.take_last_submit_error().is_none());
        session.record_submit_error(DfError::column_not_found("missing"));
        assert_eq!(session.stats().submit_errors, 1);
        let err = session.take_last_submit_error().unwrap();
        assert!(matches!(err, DfError::ColumnNotFound(_)));
        // The slot is consumed.
        assert!(session.take_last_submit_error().is_none());
    }

    #[test]
    fn cache_can_be_cleared() {
        let expr = AlgebraExpr::literal(frame(10)).select(Predicate::True);
        let cached = QuerySession::new(engine(), EvalMode::Eager);
        cached.submit(&PlanKey::of(&expr)).unwrap();
        assert_eq!(cached.cached_results(), 1);
        cached.clear_cache();
        assert_eq!(cached.cached_results(), 0);
        assert_eq!(cached.mode(), EvalMode::Eager);
        assert!(cached.engine().capabilities().lazy_execution);
    }

    #[test]
    fn corrupted_spill_state_is_quarantined_and_recomputed() {
        let df = frame(200);
        let budget = df.approx_size_bytes() / 4;
        let modin = Arc::new(ModinEngine::with_config(
            ModinConfig::sequential()
                .with_memory_budget(budget)
                .with_partition_size(16, 4),
        ));
        let spill_dir = modin
            .store()
            .expect("budgeted engine")
            .directory()
            .to_path_buf();
        let session = QuerySession::new(modin, EvalMode::Eager);
        let expr = AlgebraExpr::literal(df).map(MapFunc::IsNullMask);
        session.submit(&PlanKey::of(&expr)).unwrap();
        // Corrupt every spill file behind the cached result: appended bytes break
        // the frame's declared length, so the next load-back reports SpillCorruption.
        let mut tampered = 0;
        for entry in std::fs::read_dir(&spill_dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                let mut content = std::fs::read(&path).unwrap();
                content.extend_from_slice(b"tampered");
                std::fs::write(&path, content).unwrap();
                tampered += 1;
            }
        }
        assert!(
            tampered > 0,
            "budgeted engine should have spilled partitions"
        );
        // collect() quarantines the poisoned entry and recomputes from the plan.
        let out = session.collect(&PlanKey::of(&expr)).unwrap();
        assert_eq!(out.shape(), (200, 2));
        assert_eq!(out.cell(0, 0).unwrap(), &cell(false));
        assert_eq!(session.stats().recoveries, 1);
        // The recomputed result is cached again and healthy.
        session.collect(&PlanKey::of(&expr)).unwrap();
        assert_eq!(session.stats().recoveries, 1);
    }

    #[test]
    fn stats_merge_pushdown_counters_and_explain_is_observational() {
        let dir = std::env::temp_dir().join(format!("df_session_scan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.csv");
        let mut content = String::from("id,v\n");
        for i in 0..40 {
            content.push_str(&format!("{i},{}\n", i * 2));
        }
        std::fs::write(&path, content).unwrap();
        let session = QuerySession::new(engine(), EvalMode::Lazy);
        let expr = AlgebraExpr::scan_csv(df_core::ScanCsv::new(
            &path,
            df_core::ScanOptions {
                infer_schema: true,
                ..df_core::ScanOptions::default()
            },
            "session-scan",
        ))
        .select(Predicate::ColCmp {
            column: cell("id"),
            op: df_core::algebra::CmpOp::Lt,
            value: cell(4),
        });
        let rendered = session.explain(&PlanKey::of(&expr));
        assert!(rendered.contains("result not cached"), "{rendered}");
        assert!(
            rendered.contains("predicates pushed into scans: 1"),
            "{rendered}"
        );
        assert_eq!(session.stats().executions, 0, "explain must not execute");
        let out = session.collect(&PlanKey::of(&expr)).unwrap();
        assert_eq!(out.shape().0, 4);
        let stats = session.stats();
        assert_eq!(stats.predicates_pushed, 1, "{stats:?}");
        assert!(stats.chunks_skipped > 0, "{stats:?}");
        let rendered = session.explain(&PlanKey::of(&expr));
        assert!(rendered.contains("result cached"), "{rendered}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cached_scan_statistics_over_an_edited_file_fail_as_io() {
        // The identity promises one on-disk state. A caller that edits the file
        // under an identity it keeps using meets the cached chunk plan: that is an
        // environmental fault, reported as `Io` — never a panic, never `Internal`.
        let dir = std::env::temp_dir().join(format!("df_session_stale_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.csv");
        let rows = |n: usize| {
            (0..n).fold(String::from("id,v\n"), |mut content, i| {
                content.push_str(&format!("{i},{}\n", i * 2));
                content
            })
        };
        std::fs::write(&path, rows(40)).unwrap();
        let session = QuerySession::new(engine(), EvalMode::Lazy);
        let scan = || {
            AlgebraExpr::scan_csv(df_core::ScanCsv::new(
                &path,
                df_core::ScanOptions::default(),
                "stale-scan",
            ))
        };
        let look = |scan: AlgebraExpr| session.head(&PlanKey::of(&scan), 3);
        assert_eq!(look(scan()).unwrap().shape(), (3, 2));
        // Truncated: the cached plan's later chunks are gone.
        std::fs::write(&path, rows(12)).unwrap();
        let whole = scan();
        let err = session.collect(&PlanKey::of(&whole)).unwrap_err();
        assert!(matches!(err, DfError::Io(_)), "truncated: {err}");
        // Grown in place: the first chunk's byte range now holds one record more.
        std::fs::write(&path, rows(40).replacen("0,0\n", ",\n,\n", 1)).unwrap();
        let err = look(scan()).unwrap_err();
        assert!(matches!(err, DfError::Io(_)), "grown: {err}");
        // A fresh identity sees the file as it is.
        let fresh = AlgebraExpr::scan_csv(df_core::ScanCsv::new(
            &path,
            df_core::ScanOptions::default(),
            "stale-scan-refreshed",
        ));
        assert_eq!(
            session.collect(&PlanKey::of(&fresh)).unwrap().shape(),
            (41, 2)
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cancel_fails_statements_typed_and_reset_rearms_the_session() {
        let session = QuerySession::new(engine(), EvalMode::Lazy);
        let expr = AlgebraExpr::literal(frame(64)).map(MapFunc::IsNullMask);
        session.cancel();
        let err = session.collect(&PlanKey::of(&expr)).unwrap_err();
        assert!(err.is_cancelled(), "expected a cancelled error, got {err}");
        session.reset_cancel();
        assert_eq!(
            session.collect(&PlanKey::of(&expr)).unwrap().shape(),
            (64, 2)
        );
    }

    #[test]
    fn with_timeout_cancels_overrunning_statements_and_resets_the_token() {
        let session = QuerySession::new(engine(), EvalMode::Lazy);
        let expr = AlgebraExpr::literal(frame(64)).map(MapFunc::IsNullMask);
        let err = session
            .with_timeout(std::time::Duration::from_millis(5), || {
                // Outlive the deadline before touching the engine, so the watchdog
                // has deterministically fired by the time workers check the token.
                std::thread::sleep(std::time::Duration::from_millis(100));
                session.collect(&PlanKey::of(&expr))
            })
            .unwrap_err();
        assert!(err.is_cancelled(), "expected a timeout error, got {err}");
        assert!(err.to_string().contains("timeout"), "{err}");
        // The token was reset on the way out: the session stays usable.
        let out = session
            .with_timeout(std::time::Duration::from_secs(30), || {
                session.collect(&PlanKey::of(&expr))
            })
            .unwrap();
        assert_eq!(out.shape(), (64, 2));
    }
}
