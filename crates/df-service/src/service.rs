//! The service owner: one engine, one budget, many tenants.
//!
//! [`QueryService::start`] builds the single shared [`ModinEngine`] (and with it the
//! single [`SpillStore`] budget every tenant draws from), the shared
//! [`ResultCache`], and the [`FairGate`] run queue. [`QueryService::tenant`] then
//! hands out [`TenantSession`]s — cheap handles whose every execution passes
//! through the gate and whose results land in (and are served from) the shared
//! cache with per-tenant attribution.
//!
//! [`SpillStore`]: df_storage::spill::SpillStore
//! [`ResultCache`]: df_engine::ResultCache

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::session::{EvalMode, QuerySession, SessionStats, StatementGate};
use df_engine::{CacheStats, ResultCache};
use df_pandas::Session;
use df_storage::spill::SpillStats;
use df_types::error::DfResult;

use crate::admission::{AdmissionStats, FairGate};
use crate::tenant::TenantSession;

/// How a [`QueryService`] is provisioned.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Configuration of the single shared engine (thread pool, partition shape,
    /// memory budget — the budget is global across tenants).
    pub engine: ModinConfig,
    /// Evaluation mode every tenant session runs under.
    pub mode: EvalMode,
    /// Execution slots: at most this many statements run on the engine at once.
    pub max_concurrent: usize,
    /// Statements allowed to wait for a slot before arrivals are refused with
    /// [`df_types::error::DfError::Admission`].
    pub queue_capacity: usize,
    /// Longest a queued statement waits before failing with
    /// [`df_types::error::DfError::Cancelled`].
    pub queue_timeout: Duration,
    /// Byte budget of the result cache every tenant shares (`None` = unbounded).
    pub cache_budget_bytes: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            engine: ModinConfig::default(),
            mode: EvalMode::Eager,
            max_concurrent: 4,
            queue_capacity: 64,
            queue_timeout: Duration::from_secs(30),
            cache_budget_bytes: None,
        }
    }
}

impl ServiceConfig {
    /// Replace the engine configuration.
    pub fn with_engine(mut self, engine: ModinConfig) -> ServiceConfig {
        self.engine = engine;
        self
    }

    /// Select the executor backend the shared engine places band tasks on —
    /// in-process threads or spawned worker processes. Shorthand for rebuilding
    /// [`ServiceConfig::engine`] with
    /// [`ModinConfig::with_backend`](df_engine::engine::ModinConfig::with_backend);
    /// every tenant of the service shares the selected backend's worker pool.
    pub fn with_backend(mut self, backend: df_types::backend::BackendKind) -> ServiceConfig {
        self.engine = self.engine.with_backend(backend);
        self
    }

    /// Set the evaluation mode tenant sessions run under.
    pub fn with_mode(mut self, mode: EvalMode) -> ServiceConfig {
        self.mode = mode;
        self
    }

    /// Set the concurrent-execution slot count.
    pub fn with_max_concurrent(mut self, slots: usize) -> ServiceConfig {
        self.max_concurrent = slots;
        self
    }

    /// Bound the run queue and the time a statement may wait in it.
    pub fn with_queue(mut self, capacity: usize, timeout: Duration) -> ServiceConfig {
        self.queue_capacity = capacity;
        self.queue_timeout = timeout;
        self
    }

    /// Bound the result cache to `bytes`.
    pub fn with_cache_budget(mut self, bytes: usize) -> ServiceConfig {
        self.cache_budget_bytes = Some(bytes);
        self
    }
}

/// One service-wide stats snapshot: admission, cache, and per-tenant counters.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Run-queue counters (grants, refusals, timeouts, peaks).
    pub admission: AdmissionStats,
    /// Shared result-cache counters (always `Some`; the `Option` keeps the field's
    /// type stable for readers that unwrap it).
    pub cache: Option<CacheStats>,
    /// Per-tenant session counters, in the order sessions were opened.
    pub tenants: Vec<(String, SessionStats)>,
}

/// What [`QueryService::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Every in-flight statement finished within the grace period on its own.
    pub drained_cleanly: bool,
    /// The engine's cancel token was fired to abort statements that outlived the
    /// grace period.
    pub cancelled_stragglers: bool,
    /// The gate was fully idle (no active or queued statements) when `shutdown`
    /// returned.
    pub idle: bool,
}

struct TenantEntry {
    name: String,
    session: Arc<Session>,
}

/// The in-process multi-tenant query service (see the crate docs for the model
/// and a walkthrough).
pub struct QueryService {
    engine: Arc<ModinEngine>,
    mode: EvalMode,
    gate: Arc<FairGate>,
    cache: Arc<ResultCache>,
    tenants: Mutex<Vec<TenantEntry>>,
}

impl QueryService {
    /// Provision the shared engine and start the service. Fails if the engine's
    /// spill store cannot be created (e.g. an unusable spill directory).
    pub fn start(config: ServiceConfig) -> DfResult<Arc<QueryService>> {
        let engine = Arc::new(ModinEngine::try_with_config(config.engine)?);
        let gate = Arc::new(FairGate::new(
            config.max_concurrent,
            config.queue_capacity,
            config.queue_timeout,
        ));
        Ok(Arc::new(QueryService {
            engine,
            mode: config.mode,
            gate,
            cache: Arc::new(ResultCache::with_budget(config.cache_budget_bytes)),
            tenants: Mutex::new(Vec::new()),
        }))
    }

    /// Open a session for `tenant`. Each call opens an independent session handle;
    /// a tenant reconnecting gets fresh session counters but the same shared cache
    /// attribution. The tenant's retained-cache-bytes quota is left as it is:
    /// unbounded for a new tenant, and whatever the last
    /// [`QueryService::tenant_with_quota`] set for a returning one.
    pub fn tenant(self: &Arc<QueryService>, tenant: &str) -> TenantSession {
        let engine: Arc<dyn Engine> = Arc::clone(&self.engine) as Arc<dyn Engine>;
        let gate: Arc<dyn StatementGate> = Arc::clone(&self.gate) as Arc<dyn StatementGate>;
        let query = QuerySession::with_shared_state(
            engine,
            self.mode,
            Arc::clone(&self.cache),
            Some(tenant.to_string()),
            Some(gate),
        );
        let session = Session::from_query(query, Some(Arc::clone(&self.engine)));
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(TenantEntry {
                name: tenant.to_string(),
                session: Arc::clone(&session),
            });
        TenantSession::new(tenant.to_string(), session)
    }

    /// Set `tenant`'s retained-cache-bytes quota (`None` = unbounded), then open a
    /// session for it as [`QueryService::tenant`] does. The quota outlives the
    /// session: later `tenant` calls for the same name keep it.
    pub fn tenant_with_quota(
        self: &Arc<QueryService>,
        tenant: &str,
        quota: Option<usize>,
    ) -> TenantSession {
        self.cache.set_tenant_quota(tenant, quota);
        self.tenant(tenant)
    }

    /// The shared engine (one thread pool, one spill budget, service-wide).
    pub fn engine(&self) -> &Arc<ModinEngine> {
        &self.engine
    }

    /// Out-of-core counters of the shared spill store.
    pub fn spill_stats(&self) -> SpillStats {
        self.engine.spill_stats()
    }

    /// Run-queue counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.gate.stats()
    }

    /// True once [`QueryService::shutdown`] has begun: every new statement is
    /// refused with a typed `Admission` error.
    pub fn is_draining(&self) -> bool {
        self.gate.is_draining()
    }

    /// One service-wide snapshot: admission, cache, and per-tenant counters.
    pub fn stats(&self) -> ServiceStats {
        let tenants = self
            .tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|entry| (entry.name.clone(), entry.session.stats()))
            .collect();
        ServiceStats {
            admission: self.gate.stats(),
            cache: Some(self.cache.stats()),
            tenants,
        }
    }

    /// Graceful shutdown: stop admitting (queued waiters fail with typed
    /// `Admission` errors), give in-flight statements `grace` to finish, and fire
    /// the engine's cancel token at whatever outlives the deadline (waiting up to
    /// `grace` again for the cancellations to land, then re-arming the token so
    /// the report reflects a reusable engine). The shared cache is cleared so the
    /// spill budget is released. Idempotent; later statements on any tenant
    /// session fail admission.
    pub fn shutdown(&self, grace: Duration) -> ShutdownReport {
        self.gate.begin_drain();
        let drained = self.gate.wait_idle(grace);
        let mut cancelled = false;
        let mut idle = drained;
        if !drained {
            if let Some(token) = self.engine.cancel_token() {
                token.cancel();
                cancelled = true;
            }
            idle = self.gate.wait_idle(grace);
            if let Some(token) = self.engine.cancel_token() {
                token.reset();
            }
        }
        self.cache.clear();
        ShutdownReport {
            drained_cleanly: drained,
            cancelled_stragglers: cancelled,
            idle,
        }
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("mode", &self.mode)
            .field("gate", &self.gate)
            .field(
                "tenants",
                &self
                    .tenants
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::algebra::{Aggregation, AlgebraExpr};
    use df_core::dataframe::DataFrame;
    use df_engine::PlanKey;
    use df_types::cell::{cell, Cell};

    fn service(config: ServiceConfig) -> Arc<QueryService> {
        QueryService::start(
            config.with_engine(ModinConfig::sequential().with_partition_size(16, 2)),
        )
        .expect("service starts")
    }

    fn group_expr(rows: usize) -> AlgebraExpr {
        let k: Vec<Cell> = (0..rows).map(|i| cell((i % 5) as i64)).collect();
        let v: Vec<Cell> = (0..rows).map(|i| cell(i as i64)).collect();
        let frame = DataFrame::from_columns(vec!["k", "v"], vec![k, v]).expect("frame");
        AlgebraExpr::literal(frame).group_by(
            vec![cell("k")],
            vec![Aggregation::count_rows()],
            false,
        )
    }

    #[test]
    fn identical_statements_across_tenants_execute_once() {
        let service = service(ServiceConfig::default());
        let alpha = service.tenant("alpha");
        let beta = service.tenant("beta");
        let expr = group_expr(64);
        let first = alpha
            .query()
            .collect(&PlanKey::of(&expr))
            .expect("alpha collects");
        let second = beta
            .query()
            .collect(&PlanKey::of(&expr))
            .expect("beta collects");
        assert!(first.same_data(&second));
        let stats = service.stats();
        let executions: u64 = stats.tenants.iter().map(|(_, s)| s.executions).sum();
        assert_eq!(executions, 1, "{stats:?}");
        let cache = stats.cache.expect("shared cache on by default");
        assert_eq!(cache.shared_hits, 1, "{cache:?}");
        // Attribution: alpha produced the entry, beta hit it.
        let beta_cache = cache
            .tenants
            .iter()
            .find(|(name, _)| name == "beta")
            .map(|(_, t)| *t)
            .expect("beta attributed");
        assert_eq!(beta_cache.hits, 1);
        assert_eq!(service.admission_stats().admitted, 1);
    }

    #[test]
    fn backend_selection_reaches_the_shared_engine() {
        use df_types::backend::BackendKind;
        let config = ServiceConfig::default().with_backend(BackendKind::Threads);
        assert_eq!(config.engine.backend, BackendKind::Threads);
        // A service provisioned with an explicit backend still serves queries
        // (the procs arm of the same path runs in the backend equivalence suite,
        // which can build the worker binary).
        let service = QueryService::start(
            config.with_engine(
                ModinConfig::sequential()
                    .with_partition_size(16, 2)
                    .with_backend(BackendKind::Threads),
            ),
        )
        .expect("service starts");
        let tenant = service.tenant("solo");
        let expr = group_expr(48);
        let result = tenant
            .query()
            .collect(&PlanKey::of(&expr))
            .expect("collects");
        assert_eq!(result.shape().0, 5);
    }

    #[test]
    fn tenant_quota_violations_surface_typed_and_stay_contained() {
        let service = service(ServiceConfig::default());
        // A 1-byte quota: no result fits, so the statement fails typed and
        // nothing is retained for the tenant.
        let thrifty = service.tenant_with_quota("thrifty", Some(1));
        let expr = group_expr(64);
        let err = thrifty.query().collect(&PlanKey::of(&expr)).unwrap_err();
        assert!(
            matches!(err, df_types::error::DfError::ResourceExhausted(_)),
            "{err}"
        );
        let cache = service.stats().cache.expect("shared cache");
        assert!(cache.quota_rejections > 0, "{cache:?}");
        let retained = cache
            .tenants
            .iter()
            .find(|(name, _)| name == "thrifty")
            .map(|(_, t)| t.retained_bytes)
            .expect("thrifty attributed");
        assert_eq!(retained, 0);
        // Another tenant is untouched by the neighbour's quota trouble.
        let roomy = service.tenant("roomy");
        let expr = group_expr(64);
        assert!(roomy.query().collect(&PlanKey::of(&expr)).is_ok());
    }

    #[test]
    fn reopening_a_tenant_keeps_its_quota() {
        let service = service(ServiceConfig::default());
        service.tenant_with_quota("thrifty", Some(1));
        // A second connection from the same tenant must not lift the cap.
        let again = service.tenant("thrifty");
        let expr = group_expr(64);
        let err = again.query().collect(&PlanKey::of(&expr)).unwrap_err();
        assert!(
            matches!(err, df_types::error::DfError::ResourceExhausted(_)),
            "{err}"
        );
    }

    #[test]
    fn shutdown_drains_and_refuses_later_statements() {
        let service = service(ServiceConfig::default());
        let tenant = service.tenant("solo");
        let expr = group_expr(64);
        tenant
            .query()
            .collect(&PlanKey::of(&expr))
            .expect("collect before shutdown");
        let report = service.shutdown(Duration::from_secs(5));
        assert!(report.drained_cleanly && report.idle && !report.cancelled_stragglers);
        assert!(service.is_draining());
        // The shared cache was cleared, and new statements are refused typed.
        assert_eq!(service.stats().cache.expect("cache").entries, 0);
        let late = group_expr(32);
        let err = tenant.query().collect(&PlanKey::of(&late)).unwrap_err();
        assert!(err.is_admission(), "{err}");
    }
}
