//! # df-service — in-process multi-tenant query service
//!
//! The paper's §3.3 architecture separates the dataframe API from the execution
//! engine behind a narrow algebra waist. This crate adds the serving layer that
//! separation enables: **one** shared [`df_engine::engine::ModinEngine`] — one
//! thread pool, one spill-store memory budget — serving **many** concurrent
//! tenant sessions, in the owner/worker style: the [`QueryService`] owns the
//! engine, the cache and the run queue; each [`TenantSession`] is a cheap handle
//! a client thread drives.
//!
//! Three mechanisms make sharing safe:
//!
//! * **Admission control** ([`FairGate`]): at most `max_concurrent` statements
//!   execute at once; excess statements wait in a bounded run queue whose slots
//!   are granted *round-robin across tenants* (FIFO within a tenant), so one
//!   bursty tenant cannot starve the rest. Refusals are typed — queue full or
//!   draining is [`df_types::error::DfError::Admission`], a queue-wait timeout is
//!   [`df_types::error::DfError::Cancelled`].
//! * **A shared, single-flight result cache**
//!   ([`df_engine::ResultCache`]): identical statements — same
//!   [`df_engine::PlanKey`] — from *different* tenants execute once; the second tenant
//!   blocks on the first's in-flight production and is served the published
//!   handle as a shared hit. Entries are byte-budgeted with LRU eviction, and
//!   every hit/production is attributed per tenant.
//! * **Per-tenant quotas and graceful shutdown**: a tenant's retained cache
//!   bytes can be capped (violations surface as typed
//!   [`df_types::error::DfError::ResourceExhausted`] errors, contained to that
//!   tenant), and [`QueryService::shutdown`] drains in-flight statements under a
//!   grace period before firing the engine's cancel token at stragglers.
//!
//! ```
//! use df_core::algebra::{Aggregation, AlgebraExpr};
//! use df_core::dataframe::DataFrame;
//! use df_engine::engine::ModinConfig;
//! use df_engine::PlanKey;
//! use df_service::{QueryService, ServiceConfig};
//! use df_types::cell::cell;
//! use std::time::Duration;
//!
//! let service = QueryService::start(
//!     ServiceConfig::default()
//!         .with_engine(ModinConfig::sequential().with_partition_size(16, 2))
//!         .with_max_concurrent(2),
//! )?;
//! let alpha = service.tenant("alpha");
//! let beta = service.tenant("beta");
//!
//! // The same statement (same plan key) from two tenants…
//! let frame = DataFrame::from_columns(
//!     vec!["k", "v"],
//!     vec![vec![cell(1), cell(1), cell(2)], vec![cell(10), cell(20), cell(30)]],
//! )?;
//! let expr = AlgebraExpr::literal(frame).group_by(
//!     vec![cell("k")],
//!     vec![Aggregation::count_rows()],
//!     false,
//! );
//! let key = PlanKey::of(&expr);
//! let first = alpha.query().collect(&key)?;
//! let second = beta.query().collect(&key)?;
//! assert!(first.same_data(&second));
//!
//! // …executed once: beta was served alpha's result as a shared cache hit.
//! let stats = service.stats();
//! let executions: u64 = stats.tenants.iter().map(|(_, s)| s.executions).sum();
//! assert_eq!(executions, 1);
//! assert_eq!(stats.cache.expect("shared cache").shared_hits, 1);
//!
//! // Drain and stop; later statements are refused with a typed error.
//! let report = service.shutdown(Duration::from_secs(5));
//! assert!(report.drained_cleanly);
//! # Ok::<(), df_types::error::DfError>(())
//! ```
//!
//! This is ROADMAP item 1 (multi-tenant serving) built on the PR-7 cancellation
//! and fault-tolerance machinery and the PR-9 shared cache/gate hooks in
//! [`df_engine::session::QuerySession`].

mod admission;
mod service;
mod tenant;

pub use admission::{AdmissionStats, FairGate};
pub use service::{QueryService, ServiceConfig, ServiceStats, ShutdownReport};
pub use tenant::TenantSession;
