//! # df-engine
//!
//! The MODIN-like scalable dataframe engine of paper §3, rebuilt in Rust:
//!
//! * [`partition`] — row / column / block partitioning of dataframes and the
//!   metadata-only TRANSPOSE (paper §3.1).
//! * [`shuffle`] — hash/range exchanges and the partition-parallel JOIN, SORT,
//!   DROP_DUPLICATES and DIFFERENCE kernels built on them (paper §3.1's expensive
//!   operators).
//! * [`executor`] — the task-parallel execution layer (the paper's Ray/Dask slot),
//!   here an in-process scoped thread pool.
//! * [`ModinEngine::ingest_csv`] — partition-parallel, budget-aware CSV ingest: files
//!   are parsed chunk-by-chunk on the worker pool straight into a spill-backed
//!   partition grid, with cross-band schema reconciliation (the paper's parallel-I/O
//!   headline).
//! * [`optimize`] — logical rewrite rules: transpose cancellation, selection fusion,
//!   limit push-down, scan pushdown and the Figure 8 pivot-axis
//!   choice (paper §5–6).
//! * [`engine`] — [`ModinEngine`], the partitioned parallel implementation of
//!   the dataframe algebra behind the shared [`df_core::Engine`] trait.
//! * [`session`] — eager / lazy / opportunistic evaluation, query futures, prefix
//!   (head/tail) prioritised inspection and the materialisation/reuse cache (paper §6).
//! * [`ResultCache`] — the shareable, budget-accounted result cache behind the session:
//!   single-flight execution per [`PlanKey`] (a plan's typed byte encoding), LRU
//!   eviction under a byte budget, and per-tenant quotas/attribution for the
//!   multi-tenant service (`df-service`).

// The engine sits above the fault-tolerant storage layer: every storage or worker
// fault must stay a typed `DfError` on its way through, so production code may not
// reintroduce unwrap/expect panic sites. Tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
mod cache;
pub mod engine;
pub mod executor;
mod file_state;
mod ingest;
mod key;
mod optimizer;
pub mod partition;
pub mod session;
pub mod shuffle;

pub use backend::{BackendHealth, BandTask, ExecBackend, ProcBackend, ThreadsBackend};
pub use cache::{CacheStats, ResultCache, TenantCacheStats};
pub use df_storage::spill::{SpillStats, SpillStore};
pub use engine::{GridResult, ModinConfig, ModinEngine};
pub use executor::{default_threads, ParallelExecutor};
pub use file_state::file_scan;
pub use ingest::IngestStats;
pub use key::PlanKey;
pub use optimizer::{choose_pivot_plan, optimize, PivotPlan, RewriteStats};
pub use partition::{Partition, PartitionConfig, PartitionGrid, PartitionHandle, PartitionScheme};
pub use session::{EvalMode, QuerySession, SessionStats, StatementGate};
pub use shuffle::{ShuffleKey, ShuffleOptions};
