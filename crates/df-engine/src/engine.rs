//! The MODIN-like scalable engine.
//!
//! This is the paper's §3 system rebuilt in Rust: pandas-semantics dataframe queries
//! executed over a partitioned representation with task-parallel per-partition work,
//! a metadata-only TRANSPOSE, deferred schema induction and a logical-rewrite pass in
//! front of execution. The engine keeps intermediate results partitioned between
//! operators *and between statements*: `execute` returns a [`GridResult`] behind a
//! [`FrameHandle`], later plans resume from it through [`AlgebraExpr::Handle`]
//! leaves, and a full [`DataFrame`] only exists at the explicit materialisation
//! points (`collect` / `execute_collect` / `head_of` / `tail_of`).
//!
//! Operator strategies (paper §3.1 "different internal mechanisms for exploiting
//! parallelism depending on the data dimensions and operations"). Every one of them
//! fans out through the same call,
//! [`ParallelExecutor::run_stage`](crate::executor::ParallelExecutor::run_stage),
//! which owns the load → run → store lifecycle of each item; the strategies differ
//! only in what an item is and what runs on it:
//!
//! * *Row-wise operators* (SELECTION, row-generic MAP, PROJECTION, RENAME, TOLABELS,
//!   FROMLABELS) run one item per row band. Those that are a pure function of the
//!   band are placed on the backend as [`BandTask`]s; those that read *global* row
//!   positions (positional predicates, FROMLABELS' positional labels) run
//!   driver-local with the band's row offset, which is grid metadata.
//! * *Per-cell MAPs* commute with TRANSPOSE, so they run one item per *block*, in
//!   stored orientation, and every output takes over its input's slot in the grid.
//! * *GROUPBY* runs as partial aggregation per row band followed by a driver-side
//!   merge of the (group-sized) partial states — the map/combine structure that gives
//!   the paper's groupby speedups. Every aggregate merges: Mean as sum/count, Std as
//!   the group's collected values fed to the reference's two-pass formula at finalize.
//! * *TRANSPOSE* is metadata-only: the partition grid swaps its axes and each block
//!   flips an orientation flag (paper §3.1), deferring any physical block transposes
//!   to the operators that actually read the data. *LIMIT* and *UNION* are metadata
//!   plus at most the bands the limit reads.
//! * *JOIN, SORT, DROP_DUPLICATES and DIFFERENCE* run partition-parallel through the
//!   [`crate::shuffle`] subsystem: hash (or sampled range) exchanges co-locate keys,
//!   the per-bucket kernels run in parallel, and the ordered semantics are restored
//!   from position tags. Small join/difference build sides are broadcast instead of
//!   shuffled.
//! * *WINDOW and CROSS_PRODUCT* (and JOIN / DIFFERENCE / DROP_DUPLICATES over
//!   zero-column inputs, which cannot carry a position tag) assemble their input and
//!   reuse the reference semantics; the engine counts those assemblies in
//!   [`ModinEngine::fallbacks_dispatched`] so tests and the README's
//!   execution-strategy table stay honest.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use df_storage::csv::CsvOptions;
use df_storage::spill::{SpillStats, SpillStore};
use df_types::backend::BackendKind;
use df_types::cell::Cell;
use df_types::error::DfResult;
use df_types::labels::Labels;

use df_core::algebra::{AggFunc, Aggregation, AlgebraExpr, MapFunc, Predicate, SortSpec};
use df_core::dataframe::{Column, DataFrame};
use df_core::engine::{Capabilities, Engine, EngineKind, PushdownSnapshot};
use df_core::handle::{FrameHandle, PartitionedResult};
use df_core::ops;
use df_core::{estimate, render_plan, ScanCsv, ScanOptions, ScanStats, DEFAULT_CELL_BYTES};

use crate::backend::{BackendHealth, BandTask, ExecBackend, ProcBackend, ThreadsBackend};
use crate::executor::{default_threads, outputs, CheckIn, ParallelExecutor, StageResults};
use crate::ingest::{self, IngestStats};
use crate::optimizer::{optimize, RewriteStats};
use crate::partition::{hstack_all, PartitionConfig, PartitionGrid, PartitionScheme};
use crate::shuffle;

/// Configuration of the scalable engine.
#[derive(Debug, Clone)]
pub struct ModinConfig {
    /// Worker threads for per-partition fan-out. Defaults to `DF_THREADS` when set,
    /// otherwise the machine's parallelism.
    pub threads: usize,
    /// Partition sizing.
    pub partitioning: PartitionConfig,
    /// Default partitioning scheme for literals.
    pub scheme: PartitionScheme,
    /// Whether the logical rewrite rules run before execution. Differential tests
    /// turn them off for the unoptimised reference plan.
    pub optimizer: bool,
    /// JOIN / DIFFERENCE build sides with at most this many rows are broadcast to
    /// every partition instead of hash-shuffling both inputs. Set to 0 to force the
    /// shuffle path (differential tests do this).
    pub broadcast_threshold_rows: usize,
    /// Out-of-core memory budget (paper §3.3): when set, the engine creates a
    /// session-scoped [`SpillStore`] with this many bytes of in-memory budget and
    /// every operator keeps its partitions in the store — least-recently-used bands
    /// spill to disk instead of exhausting memory, and are freed when the engine
    /// drops. `None` (the default) keeps all partitions resident.
    pub memory_budget_bytes: Option<usize>,
    /// Where band tasks execute: the in-process thread pool
    /// ([`BackendKind::Threads`]) or a pool of spawned worker processes exchanging
    /// checksummed block frames over pipes ([`BackendKind::Procs`]). Defaults to
    /// the `DF_BACKEND` environment variable, falling back to threads.
    pub backend: BackendKind,
}

impl Default for ModinConfig {
    fn default() -> Self {
        ModinConfig {
            threads: default_threads(),
            partitioning: PartitionConfig::default(),
            scheme: PartitionScheme::Row,
            optimizer: true,
            broadcast_threshold_rows: 4096,
            memory_budget_bytes: None,
            backend: BackendKind::from_env(),
        }
    }
}

impl ModinConfig {
    /// A deterministic single-threaded configuration used by differential tests.
    pub fn sequential() -> Self {
        ModinConfig {
            threads: 1,
            ..ModinConfig::default()
        }
    }

    /// Small partitions, useful for exercising multi-partition paths on small test
    /// frames.
    pub fn with_partition_size(mut self, rows: usize, cols: usize) -> Self {
        self.partitioning = PartitionConfig {
            target_rows: rows,
            target_cols: cols,
        };
        self
    }

    /// Override the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the default partitioning scheme.
    pub fn with_scheme(mut self, scheme: PartitionScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Override the broadcast threshold for JOIN / DIFFERENCE build sides.
    pub fn with_broadcast_threshold(mut self, rows: usize) -> Self {
        self.broadcast_threshold_rows = rows;
        self
    }

    /// Enable out-of-core execution with the given in-memory byte budget.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Select the executor backend explicitly (overriding `DF_BACKEND`).
    ///
    /// [`BackendKind::Threads`] runs band tasks on the in-process pool;
    /// [`BackendKind::Procs`] ships them to spawned `df-band-worker` processes
    /// over the block-frame pipe protocol. Results are identical either way.
    ///
    /// ```
    /// use df_engine::engine::{ModinConfig, ModinEngine};
    /// use df_types::backend::BackendKind;
    ///
    /// let engine = ModinEngine::try_with_config(
    ///     ModinConfig::default()
    ///         .with_threads(2)
    ///         .with_backend(BackendKind::Threads),
    /// )?;
    /// assert_eq!(engine.backend_health().workers_spawned, 0); // no worker processes
    /// # Ok::<(), df_types::error::DfError>(())
    /// ```
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

/// The engine's partitioned query result behind a [`FrameHandle`]: an owned
/// [`PartitionGrid`] (resident or spilled) that assembles lazily. The scalable engine
/// recognises its own `GridResult`s inside [`AlgebraExpr::Handle`] plan leaves and
/// resumes from the grid without re-assembly or re-partitioning; other engines fall
/// back to [`PartitionedResult::assemble`].
#[derive(Debug)]
pub struct GridResult {
    grid: PartitionGrid,
}

impl GridResult {
    /// Wrap a partitioned result.
    pub fn new(grid: PartitionGrid) -> Self {
        GridResult { grid }
    }

    /// The partitioned representation this result owns.
    pub fn grid(&self) -> &PartitionGrid {
        &self.grid
    }
}

impl PartitionedResult for GridResult {
    fn shape(&self) -> (usize, usize) {
        self.grid.shape()
    }

    fn schema(&self) -> Option<df_core::handle::FrameSchema> {
        // Metadata only, like shape(): a fully spilled grid answers from the domains
        // its handles cached at check-in, with zero load-backs.
        self.grid.schema()
    }

    fn assemble(&self) -> DfResult<DataFrame> {
        self.grid.assemble()
    }

    fn prefix(&self, k: usize) -> DfResult<DataFrame> {
        // Partition-aware §6.1.2 inspection: only the leading bands are touched.
        self.grid.prefix(k)
    }

    fn suffix(&self, k: usize) -> DfResult<DataFrame> {
        self.grid.suffix(k)
    }

    fn approx_size_bytes(&self) -> Option<usize> {
        // Metadata only: stored blocks report the size cached at check-in, so a
        // fully spilled result is costed without a single load-back.
        Some(self.grid.approx_size_bytes())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The scalable, partitioned, parallel dataframe engine.
pub struct ModinEngine {
    config: ModinConfig,
    executor: ParallelExecutor,
    /// The session-scoped spill store, present when the configuration sets a memory
    /// budget. Shared with the executor so every fan-out layer stores through it; its
    /// spill directory is removed when the engine (and all outstanding partition
    /// handles) drop — the paper's "freed once a session ends".
    store: Option<Arc<SpillStore>>,
    /// How many operators assembled their whole input and delegated to the reference
    /// semantics (the "fallback" strategy). Partition-parallel operators never touch
    /// this; tests assert on it to keep the dispatch table honest.
    fallbacks: AtomicU64,
    /// How many full-frame assemblies the engine performed at materialisation points
    /// (`collect` / `execute_collect`). Statements whose results only ever cross the
    /// waist as handles never touch this — the acceptance tests assert on it.
    assemblies: AtomicU64,
    /// How many [`AlgebraExpr::Handle`] leaves were resumed from their partitioned
    /// grid (no assembly, no re-partitioning).
    handle_reuses: AtomicU64,
    /// Files ingested through the parallel CSV path.
    ingest_files: AtomicU64,
    /// Bands parsed by ingest worker tasks.
    ingest_bands: AtomicU64,
    /// Bytes scanned by ingest plans.
    ingest_bytes: AtomicU64,
    /// Cost-based pushdown counters (chunks skipped, columns pruned, rewrites
    /// applied, join strategies taken), surfaced through [`Engine::pushdown_stats`].
    pushdown: PushdownCounters,
    /// Per-file scan statistics, cached by scan state (path, parse options, file
    /// identity) so repeated statements over the same file collect them once.
    scan_stats: Mutex<ScanStatsCache>,
}

/// How many files' scan statistics an engine keeps. A scan state names one on-disk
/// state of one file, so every refresh of a table mints a new one; without a bound a
/// long-lived engine would keep every state it ever scanned.
const SCAN_STATS_CAPACITY: usize = 64;

/// The [`SCAN_STATS_CAPACITY`] most recently used scan statistics, by scan state.
#[derive(Debug, Default)]
struct ScanStatsCache {
    /// Bumped on every access; an entry's stamp is the tick of its last use.
    tick: u64,
    entries: HashMap<Vec<u8>, (u64, Arc<ScanStats>)>,
}

impl ScanStatsCache {
    fn get(&mut self, state: &[u8]) -> Option<Arc<ScanStats>> {
        self.tick += 1;
        let (used, stats) = self.entries.get_mut(state)?;
        *used = self.tick;
        Some(Arc::clone(stats))
    }

    fn insert(&mut self, state: Vec<u8>, stats: Arc<ScanStats>) {
        self.tick += 1;
        self.entries.insert(state, (self.tick, stats));
        if self.entries.len() > SCAN_STATS_CAPACITY {
            let stalest = self.entries.iter().min_by_key(|(_, (used, _))| *used);
            if let Some(state) = stalest.map(|(state, _)| state.clone()) {
                self.entries.remove(&state);
            }
        }
    }
}

/// The engine-side accumulators behind [`PushdownSnapshot`].
#[derive(Debug, Default)]
struct PushdownCounters {
    chunks_skipped: AtomicU64,
    columns_pruned: AtomicU64,
    predicates_pushed: AtomicU64,
    projections_pushed: AtomicU64,
    joins_broadcast: AtomicU64,
    joins_shuffled: AtomicU64,
}

impl ModinEngine {
    /// An engine with the default configuration.
    pub fn new() -> Self {
        ModinEngine::with_config(ModinConfig::default())
    }

    /// An engine with an explicit configuration.
    ///
    /// # Panics
    /// Panics if the session's spill directory cannot be created under the
    /// system temp dir, or if the process backend's worker binary cannot be
    /// resolved — use [`ModinEngine::try_with_config`] to handle those errors
    /// instead.
    pub fn with_config(config: ModinConfig) -> Self {
        match ModinEngine::try_with_config(config) {
            Ok(engine) => engine,
            Err(err) => panic!("cannot construct engine: {err}"),
        }
    }

    /// The fallible form of [`ModinEngine::with_config`]: creating an out-of-core
    /// engine touches the filesystem (the session's spill directory) and, for the
    /// process backend, resolves the worker binary; this constructor propagates
    /// those errors as typed [`df_types::error::DfError`]s instead of panicking.
    pub fn try_with_config(config: ModinConfig) -> DfResult<Self> {
        let store = match config.memory_budget_bytes {
            Some(budget) => Some(Arc::new(SpillStore::new(budget)?)),
            None => None,
        };
        let backend: Arc<dyn ExecBackend> = match config.backend {
            BackendKind::Threads => Arc::new(ThreadsBackend::new(config.threads)),
            BackendKind::Procs => Arc::new(ProcBackend::new(config.threads)?),
        };
        let executor = ParallelExecutor::new(config.threads)
            .with_store(store.clone())
            .with_backend(backend);
        Ok(ModinEngine {
            config,
            executor,
            store,
            fallbacks: AtomicU64::new(0),
            assemblies: AtomicU64::new(0),
            handle_reuses: AtomicU64::new(0),
            ingest_files: AtomicU64::new(0),
            ingest_bands: AtomicU64::new(0),
            ingest_bytes: AtomicU64::new(0),
            pushdown: PushdownCounters::default(),
            scan_stats: Mutex::new(ScanStatsCache::default()),
        })
    }

    /// The session's spill store, when a memory budget is configured.
    pub fn store(&self) -> Option<&Arc<SpillStore>> {
        self.store.as_ref()
    }

    /// Out-of-core statistics of the session's spill store (all zero when the engine
    /// runs without a memory budget). Reported next to
    /// [`ModinEngine::shuffles_dispatched`] by the benches and asserted by the spill
    /// equivalence suite.
    pub fn spill_stats(&self) -> SpillStats {
        self.store.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// A snapshot of the backend's worker pool: workers spawned/live, restarts after
    /// worker loss, and how many band tasks ran remotely vs. inline. The threads
    /// backend reports everything as local; the equivalence suite asserts the procs
    /// backend actually ships work.
    pub fn backend_health(&self) -> BackendHealth {
        self.executor.backend().health()
    }

    /// Number of shuffles (hash/range exchanges) the engine has dispatched so far.
    pub fn shuffles_dispatched(&self) -> u64 {
        self.executor.shuffles_run()
    }

    /// Number of operators that fell back to assemble-and-delegate execution.
    pub fn fallbacks_dispatched(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Number of full-frame assemblies performed at materialisation points
    /// ([`Engine::collect`] / [`Engine::execute_collect`]). Results that cross
    /// statement boundaries as handles do not assemble and do not count here.
    pub fn assemblies_dispatched(&self) -> u64 {
        self.assemblies.load(Ordering::Relaxed)
    }

    /// Number of [`AlgebraExpr::Handle`] plan leaves resumed directly from their
    /// partitioned grid — i.e. statement boundaries crossed without assembly or
    /// re-partitioning.
    pub fn handles_reused(&self) -> u64 {
        self.handle_reuses.load(Ordering::Relaxed)
    }

    fn note_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    fn note_assembly(&self) {
        self.assemblies.fetch_add(1, Ordering::Relaxed);
    }

    /// Buckets for a shuffle: at least the worker count, and enough to keep several
    /// buckets per existing band on small test grids.
    fn bucket_count(&self, grid: &PartitionGrid) -> usize {
        self.executor
            .threads()
            .max(grid.n_row_bands().min(8))
            .max(1)
    }

    /// Shuffle tuning for one operator, derived from the engine configuration.
    fn shuffle_options(&self, grid: &PartitionGrid) -> shuffle::ShuffleOptions {
        shuffle::ShuffleOptions {
            buckets: self.bucket_count(grid),
            band_rows: self.config.partitioning.target_rows,
            broadcast_rows: self.config.broadcast_threshold_rows,
        }
    }

    /// Partition a frame (a literal, a foreign handle's result, an assembled
    /// fallback result) under the engine's configuration.
    fn repartition(&self, frame: &DataFrame) -> DfResult<PartitionGrid> {
        PartitionGrid::from_dataframe_in(
            frame,
            self.config.scheme,
            self.config.partitioning,
            self.store.as_ref(),
        )
    }

    /// Wrap a single assembled result, keeping it under the memory budget.
    fn single(&self, frame: DataFrame) -> DfResult<PartitionGrid> {
        PartitionGrid::single_in(frame, self.store.as_ref())
    }

    /// The plan this engine runs for `expr`, and the rewrites that made it; benches
    /// call it alone to report rewrite statistics.
    pub fn optimize_only(&self, expr: &AlgebraExpr) -> (AlgebraExpr, RewriteStats) {
        if self.config.optimizer {
            optimize(expr)
        } else {
            (expr.clone(), RewriteStats::default())
        }
    }

    /// Parallel, budget-aware CSV ingest straight into a partition grid: chunks are
    /// parsed on the worker pool and each finished band is stored through the
    /// session's spill store, so ingesting a file larger than the memory budget
    /// keeps peak residency within *budget + one band per worker* — the full frame
    /// never exists in memory. The grid is cell-for-cell identical to serially
    /// reading the file (see `crate::ingest`).
    pub fn ingest_csv(
        &self,
        path: impl AsRef<std::path::Path>,
        options: &CsvOptions,
    ) -> DfResult<PartitionGrid> {
        let (grid, report) = ingest::ingest_csv_grid(
            &self.executor,
            self.config.partitioning,
            path.as_ref(),
            options,
        )?;
        self.ingest_files.fetch_add(1, Ordering::Relaxed);
        self.ingest_bands.fetch_add(report.bands, Ordering::Relaxed);
        self.ingest_bytes.fetch_add(report.bytes, Ordering::Relaxed);
        Ok(grid)
    }

    /// Cumulative parallel-ingest counters (`bands_parsed`, `ingest_bytes`), reported
    /// next to [`ModinEngine::spill_stats`] by the benches and the ingest suite.
    pub fn ingest_stats(&self) -> IngestStats {
        IngestStats {
            files_ingested: self.ingest_files.load(Ordering::Relaxed),
            bands_parsed: self.ingest_bands.load(Ordering::Relaxed),
            ingest_bytes: self.ingest_bytes.load(Ordering::Relaxed),
        }
    }

    /// Execute an expression and keep the result partitioned.
    pub fn execute_partitioned(&self, expr: &AlgebraExpr) -> DfResult<PartitionGrid> {
        let (optimized, stats) = self.optimize_only(expr);
        self.note_rewrites(&stats);
        self.eval(&optimized)
    }

    fn note_rewrites(&self, stats: &RewriteStats) {
        self.pushdown
            .predicates_pushed
            .fetch_add(stats.predicates_pushed as u64, Ordering::Relaxed);
        self.pushdown
            .projections_pushed
            .fetch_add(stats.projections_pushed as u64, Ordering::Relaxed);
    }

    /// Evaluate a SCAN_CSV leaf: look up (or collect and cache) the file's chunk
    /// statistics, publish them onto the scan node so cost estimation and
    /// `explain()` can see them, then run the pushdown-aware parallel parse. A bare
    /// scan of raw text whose statistics are not cached is one ingest pass instead:
    /// statistics would prune nothing and type nothing, and collecting them is a pass
    /// over the file of its own.
    fn eval_scan(&self, scan: &ScanCsv) -> DfResult<PartitionGrid> {
        let options = csv_options(scan.options);
        let bare = scan.projection.is_none() && scan.predicate.is_none() && scan.limit.is_none();
        if bare && !options.infer_schema && self.cached_scan_stats(scan)?.is_none() {
            return self.ingest_csv(&scan.path, &options);
        }
        let stats = self.scan_stats_for(scan, &options)?;
        scan.set_stats(Arc::clone(&stats));
        let (grid, report) = ingest::scan_csv_grid(&self.executor, scan, &options, &stats)?;
        self.ingest_files.fetch_add(1, Ordering::Relaxed);
        self.ingest_bands.fetch_add(report.bands, Ordering::Relaxed);
        self.ingest_bytes.fetch_add(report.bytes, Ordering::Relaxed);
        self.pushdown
            .chunks_skipped
            .fetch_add(report.chunks_skipped, Ordering::Relaxed);
        self.pushdown
            .columns_pruned
            .fetch_add(report.columns_pruned, Ordering::Relaxed);
        Ok(grid)
    }

    /// The statistics for a scan's file, collected on first contact and cached by
    /// scan state (projection and predicate do not affect the statistics, so
    /// every pushed variant of the same file shares one entry).
    fn scan_stats_for(&self, scan: &ScanCsv, options: &CsvOptions) -> DfResult<Arc<ScanStats>> {
        if let Some(cached) = self.cached_scan_stats(scan)? {
            return Ok(cached);
        }
        let stats = Arc::new(ingest::collect_scan_stats(
            &self.executor,
            self.config.partitioning,
            self.config.memory_budget_bytes,
            &scan.path,
            options,
        )?);
        let state = crate::backend::scan_state(scan);
        self.scan_stats.lock().insert(state, Arc::clone(&stats));
        Ok(stats)
    }

    /// The cached statistics for a scan's file state, if any. A leaf naming a file
    /// state the file has left fails here, before any statistics or bytes are read.
    fn cached_scan_stats(&self, scan: &ScanCsv) -> DfResult<Option<Arc<ScanStats>>> {
        crate::file_state::check_file_state(scan)?;
        let state = crate::backend::scan_state(scan);
        Ok(self.scan_stats.lock().get(&state))
    }

    /// Ensure every scan leaf under `expr` carries statistics, collecting (and
    /// caching) them when missing. A scan whose file cannot be read is left bare —
    /// `explain()` then renders it without estimates rather than failing.
    fn prime_scan_stats(&self, expr: &AlgebraExpr) {
        if let AlgebraExpr::ScanCsv(scan) = expr {
            if scan.stats().is_none() {
                let options = csv_options(scan.options);
                if let Ok(stats) = self.scan_stats_for(scan, &options) {
                    scan.set_stats(stats);
                }
            }
        }
        for child in expr.children() {
            self.prime_scan_stats(child);
        }
    }

    /// Statistics-driven broadcast sizing: the configured row threshold is really a
    /// proxy for a byte budget (`threshold × 16 bytes × build-side width`). When the
    /// build side's estimated per-row footprint is known, re-denominate the
    /// threshold for it — heavy rows lower the row allowance, light rows raise it
    /// (bounded to ¼–4× the configured threshold so estimates stay advisory).
    /// Without an estimate the configured row count stands, and a zero threshold
    /// always forces the shuffle path (differential tests rely on that).
    fn adaptive_broadcast_rows(&self, build: &AlgebraExpr, configured: usize) -> usize {
        if configured == 0 {
            return 0;
        }
        let Some(est) = estimate(build) else {
            return configured;
        };
        if est.rows < 1.0 || est.bytes <= 0.0 {
            return configured;
        }
        let per_row = est.bytes / est.rows;
        let assumed = DEFAULT_CELL_BYTES * est.cols.max(1.0);
        let adjusted = (configured as f64 * assumed / per_row) as usize;
        adjusted.clamp(configured / 4 + 1, configured.saturating_mul(4))
    }

    /// Render the logical and optimized plans with per-node cardinality/byte
    /// estimates, which rewrite rules fired, and the planned join strategies. Scans
    /// without cached statistics get a statistics pass first (cached, so the
    /// execution that typically follows pays nothing extra).
    pub(crate) fn explain_plan(&self, expr: &AlgebraExpr) -> String {
        self.prime_scan_stats(expr);
        let (optimized, stats) = self.optimize_only(expr);
        let mut out = String::from("== logical plan ==\n");
        out.push_str(&render_plan(expr));
        out.push_str("== optimized plan ==\n");
        out.push_str(&render_plan(&optimized));
        out.push_str("== rewrites ==\n");
        let _ = writeln!(
            out,
            "predicates pushed into scans: {}\nprojections pushed into scans: {}\nselections fused: {}\ntranspose pairs eliminated: {}\nlimits pushed: {}",
            stats.predicates_pushed,
            stats.projections_pushed,
            stats.selections_fused,
            stats.transpose_pairs_eliminated,
            stats.limits_pushed,
        );
        let mut strategies = Vec::new();
        self.join_strategies(&optimized, &mut strategies);
        if !strategies.is_empty() {
            out.push_str("== join strategy ==\n");
            for line in strategies {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// One line per JOIN node: broadcast or shuffle, from the build side's estimated
    /// cardinality against the (statistics-adjusted) broadcast threshold.
    fn join_strategies(&self, expr: &AlgebraExpr, out: &mut Vec<String>) {
        if let AlgebraExpr::Join { right, .. } = expr {
            let threshold =
                self.adaptive_broadcast_rows(right, self.config.broadcast_threshold_rows);
            let line = match estimate(right) {
                Some(est) if (est.rows.round() as usize) <= threshold => format!(
                    "JOIN: broadcast build side (~{} rows <= threshold {threshold})",
                    est.rows.round()
                ),
                Some(est) => format!(
                    "JOIN: hash-shuffle both sides (build ~{} rows > threshold {threshold})",
                    est.rows.round()
                ),
                None => format!(
                    "JOIN: hash-shuffle unless build side <= {threshold} rows (no statistics)"
                ),
            };
            out.push(line);
        }
        for child in expr.children() {
            self.join_strategies(child, out);
        }
    }

    /// Resume a handle leaf: the engine's own grids are cloned by reference count —
    /// both stored and resident blocks are `Arc`-backed, so crossing a statement
    /// boundary is O(bands), with data copied only if a later consuming operator
    /// finds a block still shared (copy-on-write). Foreign handles are materialised
    /// and partitioned once.
    fn resume_handle(&self, handle: &FrameHandle) -> DfResult<PartitionGrid> {
        if let FrameHandle::Partitioned(result) = handle {
            if let Some(grid_result) = result.as_any().downcast_ref::<GridResult>() {
                self.handle_reuses.fetch_add(1, Ordering::Relaxed);
                return Ok(grid_result.grid().clone());
            }
        }
        self.repartition(&handle.to_dataframe()?)
    }

    fn eval(&self, expr: &AlgebraExpr) -> DfResult<PartitionGrid> {
        match expr {
            // Schema induction stays deferred (paper §5.1.1): the shared literal is
            // partitioned as is, and untyped columns stay untyped until an operator
            // needs their domains.
            AlgebraExpr::Literal(df) => self.repartition(df),
            AlgebraExpr::Handle(handle) => self.resume_handle(handle),
            AlgebraExpr::ScanCsv(scan) => self.eval_scan(scan),
            AlgebraExpr::Transpose { input } => Ok(self.eval(input)?.transpose()),
            AlgebraExpr::Map { input, func } => self.eval_map(input, func),
            AlgebraExpr::Selection { input, predicate } => self.eval_selection(input, predicate),
            AlgebraExpr::Projection { input, columns } => {
                let grid = self.eval(input)?;
                self.band_task(
                    "kernel.projection",
                    grid,
                    BandTask::Projection(columns.clone()),
                )
            }
            AlgebraExpr::Rename { input, mapping } => {
                let grid = self.eval(input)?;
                self.band_task("kernel.rename", grid, BandTask::Rename(mapping.clone()))
            }
            AlgebraExpr::ToLabels { input, column } => {
                let grid = self.eval(input)?;
                self.band_kernel("kernel.to_labels", grid, |band, _| {
                    ops::reshape::to_labels(&band, column)
                })
            }
            AlgebraExpr::FromLabels { input, new_column } => {
                // Band-local but for the positional labels the result carries, which
                // continue across bands from the band's global row offset.
                let grid = self.eval(input)?;
                self.band_kernel("kernel.from_labels", grid, |band, offset| {
                    let positions = (offset..offset + band.n_rows()).map(|i| Cell::Int(i as i64));
                    ops::reshape::from_labels(&band, new_column)?
                        .with_row_labels(positions.collect::<Labels>())
                })
            }
            AlgebraExpr::Limit { input, k, from_end } => self.eval_limit(input, *k, *from_end),
            AlgebraExpr::GroupBy {
                input,
                keys,
                aggs,
                keys_as_labels,
            } => self.eval_group_by(input, keys, aggs, *keys_as_labels),
            AlgebraExpr::Union { left, right } => {
                // Ordered concatenation: keep both sides partitioned and stack their
                // band *handles* — no band is loaded, so a union of two
                // larger-than-memory grids stays larger than memory.
                let left = self.eval(left)?;
                let right = self.eval(right)?;
                let mut parts = left.into_band_partitions(self.store.as_ref())?;
                parts.extend(right.into_band_partitions(self.store.as_ref())?);
                Ok(PartitionGrid::from_band_partitions(parts))
            }
            AlgebraExpr::Sort { input, spec } => self.eval_sort(input, spec),
            AlgebraExpr::DropDuplicates { input } => self.eval_drop_duplicates(input),
            AlgebraExpr::Difference { left, right } => self.eval_difference(left, right),
            AlgebraExpr::Join {
                left,
                right,
                on,
                how,
            } => self.eval_join(left, right, on, *how),
            // The two operators without a partitioned strategy (each needs a genuinely
            // new one: a banded left × broadcast-right product, a halo of neighbouring
            // rows per band): assemble the inputs, delegate to the reference
            // semantics, and re-partition the result.
            other @ (AlgebraExpr::CrossProduct { .. } | AlgebraExpr::Window { .. }) => {
                self.note_fallback();
                let inputs = other.children().into_iter().map(|child| {
                    let value = self.eval(child)?.into_dataframe()?;
                    Ok(Arc::new(AlgebraExpr::literal(value)))
                });
                let rewritten = other.with_children(inputs.collect::<DfResult<Vec<_>>>()?);
                self.repartition(&ops::execute_reference(&rewritten)?)
            }
        }
    }

    /// Partition-parallel SORT via range shuffle. The sort is always stable — a
    /// stable order is a valid answer to an unstable request — so `spec.stable` is
    /// advisory.
    fn eval_sort(&self, input: &AlgebraExpr, spec: &SortSpec) -> DfResult<PartitionGrid> {
        let grid = self.eval(input)?;
        let buckets = self.bucket_count(&grid);
        shuffle::parallel_sort(&self.executor, grid, spec, buckets)
    }

    /// Partition-parallel DROP_DUPLICATES via full-row hash shuffle.
    fn eval_drop_duplicates(&self, input: &AlgebraExpr) -> DfResult<PartitionGrid> {
        let grid = self.eval(input)?;
        if grid.shape().1 == 0 {
            self.note_fallback();
            let result = ops::group::drop_duplicates(&grid.into_dataframe()?)?;
            return self.repartition(&result);
        }
        let options = self.shuffle_options(&grid);
        shuffle::parallel_drop_duplicates(&self.executor, grid, options)
    }

    /// Partition-parallel DIFFERENCE via broadcast or full-row hash shuffle.
    fn eval_difference(&self, left: &AlgebraExpr, right: &AlgebraExpr) -> DfResult<PartitionGrid> {
        let left = self.eval(left)?;
        let right = self.eval(right)?;
        let (_, left_cols) = left.shape();
        let (_, right_cols) = right.shape();
        if left_cols == 0 || right_cols == 0 || left_cols != right_cols {
            // Degenerate arities (and their error cases) follow reference semantics.
            self.note_fallback();
            let result =
                ops::setops::difference(&left.into_dataframe()?, &right.into_dataframe()?)?;
            return self.repartition(&result);
        }
        let options = self.shuffle_options(&left);
        shuffle::parallel_difference(&self.executor, left, right, options)
    }

    /// Partition-parallel JOIN via broadcast or co-partitioning hash shuffle.
    fn eval_join(
        &self,
        left: &AlgebraExpr,
        right: &AlgebraExpr,
        on: &df_core::algebra::JoinOn,
        how: df_core::algebra::JoinType,
    ) -> DfResult<PartitionGrid> {
        let left_grid = self.eval(left)?;
        let right_grid = self.eval(right)?;
        if left_grid.shape().1 == 0 || right_grid.shape().1 == 0 {
            // Zero-column inputs cannot carry the position tags the shuffle needs;
            // these degenerate joins follow reference semantics directly.
            self.note_fallback();
            let result = ops::setops::join(
                &left_grid.into_dataframe()?,
                &right_grid.into_dataframe()?,
                on,
                how,
            )?;
            return self.repartition(&result);
        }
        let mut options = self.shuffle_options(&left_grid);
        // Statistics-driven strategy choice: re-denominate the broadcast threshold
        // for the build side's estimated row weight (scan leaves evaluated above
        // have populated their statistics, so the estimate sees them).
        options.broadcast_rows = self.adaptive_broadcast_rows(right, options.broadcast_rows);
        if right_grid.shape().0 <= options.broadcast_rows {
            self.pushdown
                .joins_broadcast
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.pushdown.joins_shuffled.fetch_add(1, Ordering::Relaxed);
        }
        shuffle::parallel_join(&self.executor, left_grid, right_grid, on, how, options)
    }

    /// Run `work` once per full-width row band of `grid`: a band's blocks are one
    /// item, loaded and stitched side by side inside the item's worker.
    fn run_bands<B: Send>(
        &self,
        stage: &'static str,
        grid: PartitionGrid,
        work: impl Fn(usize, DataFrame) -> DfResult<(Vec<DataFrame>, B)> + Send + Sync,
    ) -> DfResult<StageResults<B>> {
        self.executor
            .run_stage(stage, CheckIn::Frame, grid.into_blocks(), |i, blocks| {
                work(i, hstack_all(blocks)?)
            })
    }

    /// One [`BandTask`] per row band, placed on the configured backend; the outputs
    /// are the next grid's bands.
    fn band_task(
        &self,
        stage: &'static str,
        grid: PartitionGrid,
        task: BandTask,
    ) -> DfResult<PartitionGrid> {
        let place = self.executor.placed(&task);
        let results = self.run_bands(stage, grid, |i, band| place(i, vec![band]))?;
        Ok(PartitionGrid::from_band_partitions(outputs(results)))
    }

    /// One driver-local kernel per row band, handed the band and its *global* row
    /// offset. The offset is grid metadata, not a property of the band alone, so
    /// there is no self-contained task to ship.
    fn band_kernel(
        &self,
        stage: &'static str,
        grid: PartitionGrid,
        kernel: impl Fn(DataFrame, usize) -> DfResult<DataFrame> + Send + Sync,
    ) -> DfResult<PartitionGrid> {
        let offsets = grid.band_row_offsets();
        let results = self.run_bands(stage, grid, |i, band| {
            Ok((vec![kernel(band, offsets[i])?], ()))
        })?;
        Ok(PartitionGrid::from_band_partitions(outputs(results)))
    }

    fn eval_map(&self, input: &AlgebraExpr, func: &MapFunc) -> DfResult<PartitionGrid> {
        let grid = self.eval(input)?;
        let task = BandTask::Map(func.clone());
        // Per-cell maps are orientation- and band-agnostic: one item per block, in
        // stored orientation, without resolving deferred transposes or gathering
        // whole rows.
        if per_cell_safe(func) {
            return grid.replace_blocks(|blocks| {
                let items = blocks.into_iter().map(|block| vec![block]).collect();
                let place = self.executor.placed(&task);
                let results =
                    self.executor
                        .run_stage("kernel.map", CheckIn::Frame, items, place)?;
                Ok(outputs(results))
            });
        }
        if matches!(func, MapFunc::ParseRaw) {
            return ingest::parse_raw(&self.executor, grid);
        }
        // Row-generic maps need whole rows: work per row band.
        self.band_task("kernel.map", grid, task)
    }

    fn eval_selection(
        &self,
        input: &AlgebraExpr,
        predicate: &Predicate,
    ) -> DfResult<PartitionGrid> {
        let grid = self.eval(input)?;
        if predicate.reads_position() {
            // Positions in predicates are global: evaluate row `i` of a band at
            // position `offset + i`, wherever in the predicate tree the position is
            // read.
            return self.band_kernel("kernel.selection", grid, |band, offset| {
                ops::rowwise::selection_at(&band, predicate, offset)
            });
        }
        self.band_task(
            "kernel.selection",
            grid,
            BandTask::Selection(predicate.clone()),
        )
    }

    fn eval_limit(&self, input: &AlgebraExpr, k: usize, from_end: bool) -> DfResult<PartitionGrid> {
        // Only the leading (`from_end`: trailing) bands are materialised.
        self.eval(input)?.limit_in(k, from_end, self.store.as_ref())
    }

    fn eval_group_by(
        &self,
        input: &AlgebraExpr,
        keys: &[Cell],
        aggs: &[Aggregation],
        keys_as_labels: bool,
    ) -> DfResult<PartitionGrid> {
        let grid = self.eval(input)?;
        // Phase 1 (map): partial aggregation per row band, keys kept as data columns —
        // a self-contained task, placed on the configured backend. The partial states
        // are group-sized, not band-sized, and the driver merges them at once, so
        // they ride back beside the (empty) output list instead of being checked in.
        let task = BandTask::GroupPartial {
            keys: keys.to_vec(),
            aggs: aggs.iter().flat_map(partial_plan).collect(),
        };
        let place = self.executor.placed(&task);
        let partials = self.run_bands("kernel.groupby", grid, |i, band| {
            Ok((Vec::new(), place(i, vec![band])?.0))
        })?;
        // Phase 2 (reduce): concatenate partials and merge per key.
        let combined =
            ops::setops::union_all(partials.into_iter().flat_map(|(_, state)| state).collect())?;
        let merge_aggs: Vec<Aggregation> = aggs.iter().flat_map(merge_plans).collect();
        let merged = ops::group::group_by(&combined, keys, &merge_aggs, keys_as_labels)?;
        self.single(finalize_merged(merged, keys, aggs, keys_as_labels)?)
    }
}

impl Default for ModinEngine {
    fn default() -> Self {
        ModinEngine::new()
    }
}

impl Engine for ModinEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Modin
    }

    fn cancel_token(&self) -> Option<df_types::CancelToken> {
        Some(self.executor.cancel_token().clone())
    }

    fn execute(&self, expr: &AlgebraExpr) -> DfResult<FrameHandle> {
        // The result stays partitioned (resident or spilled, under the session's
        // memory budget); nothing is assembled until a materialisation point.
        Ok(FrameHandle::from_partitioned(Arc::new(GridResult::new(
            self.execute_partitioned(expr)?,
        ))))
    }

    fn collect(&self, handle: &FrameHandle) -> DfResult<DataFrame> {
        self.note_assembly();
        handle.to_dataframe()
    }

    fn execute_collect(&self, expr: &AlgebraExpr) -> DfResult<DataFrame> {
        // One-shot execution owns its grid, so assembly can consume the partitions
        // (moving blocks and draining their store entries) instead of copying them.
        self.note_assembly();
        self.execute_partitioned(expr)?.into_dataframe()
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            lazy_execution: true,
            ..Capabilities::full_dataframe()
        }
    }

    fn execute_prefix(&self, expr: &AlgebraExpr, k: usize) -> DfResult<DataFrame> {
        // Wrap in a LIMIT so the optimizer can push the prefix down through row-wise
        // operators (§6.1.2), then let the partition-aware prefix path finish the job.
        let limited = expr.clone().limit(k, false);
        let (optimized, stats) = self.optimize_only(&limited);
        self.note_rewrites(&stats);
        self.eval(&optimized)?.into_dataframe()
    }

    fn execute_suffix(&self, expr: &AlgebraExpr, k: usize) -> DfResult<DataFrame> {
        let limited = expr.clone().limit(k, true);
        let (optimized, stats) = self.optimize_only(&limited);
        self.note_rewrites(&stats);
        self.eval(&optimized)?.into_dataframe()
    }

    fn pushdown_stats(&self) -> PushdownSnapshot {
        PushdownSnapshot {
            chunks_skipped: self.pushdown.chunks_skipped.load(Ordering::Relaxed),
            columns_pruned: self.pushdown.columns_pruned.load(Ordering::Relaxed),
            predicates_pushed: self.pushdown.predicates_pushed.load(Ordering::Relaxed),
            projections_pushed: self.pushdown.projections_pushed.load(Ordering::Relaxed),
            joins_broadcast: self.pushdown.joins_broadcast.load(Ordering::Relaxed),
            joins_shuffled: self.pushdown.joins_shuffled.load(Ordering::Relaxed),
        }
    }

    fn explain(&self, expr: &AlgebraExpr) -> String {
        self.explain_plan(expr)
    }
}

/// The storage-layer reader options for a scan leaf's engine-agnostic options.
pub(crate) fn csv_options(options: ScanOptions) -> CsvOptions {
    CsvOptions {
        delimiter: options.delimiter,
        has_header: options.has_header,
        infer_schema: options.infer_schema,
    }
}

/// True when a map function operates strictly cell-by-cell, making it safe to apply to
/// blocks in either orientation.
fn per_cell_safe(func: &MapFunc) -> bool {
    matches!(
        func,
        MapFunc::IsNullMask
            | MapFunc::FillNull(_)
            | MapFunc::StrUpper
            | MapFunc::StrLower
            | MapFunc::NumericAdd(_)
            | MapFunc::NumericMul(_)
            | MapFunc::PerCell { .. }
    )
}

/// The label a partial state of `agg` travels under between the phases of GROUPBY.
fn partial_label(agg: &Aggregation, part: &str) -> Cell {
    let label = agg.output_label().to_raw_string();
    Cell::Str(format!("__partial_{label}_{part}"))
}

/// How one logical aggregation splits into mergeable parts: per part, its name, the
/// function folding a band into the partial state, and the function merging partial
/// states. Mean travels as sum and count; Std as the group's values themselves, in
/// row order — the reference's two-pass formula needs them all at finalize.
fn merge_parts(func: &AggFunc) -> Vec<(&'static str, AggFunc, AggFunc)> {
    match func {
        AggFunc::Mean => vec![
            ("sum", AggFunc::Sum, AggFunc::Sum),
            ("count", AggFunc::CountNonNull, AggFunc::Sum),
        ],
        AggFunc::Count | AggFunc::CountNonNull | AggFunc::Sum => {
            vec![("value", func.clone(), AggFunc::Sum)]
        }
        AggFunc::Std => vec![("value", AggFunc::Collect, AggFunc::Collect)],
        // Min, Max, First, Last and Collect merge with themselves.
        same => vec![("value", same.clone(), same.clone())],
    }
}

/// The partial (per-band) aggregations needed to later merge one logical aggregation.
fn partial_plan(agg: &Aggregation) -> Vec<Aggregation> {
    let part = |(part, fold, _): (&str, AggFunc, AggFunc)| Aggregation {
        column: agg.column.clone(),
        func: fold,
        alias: Some(partial_label(agg, part)),
    };
    merge_parts(&agg.func).into_iter().map(part).collect()
}

/// The merge-phase aggregations for one logical aggregation (applied to the partials).
fn merge_plans(agg: &Aggregation) -> Vec<Aggregation> {
    let part = |(part, _, merge): (&str, AggFunc, AggFunc)| Aggregation {
        column: Some(partial_label(agg, part)),
        func: merge,
        alias: Some(partial_label(agg, part)),
    };
    merge_parts(&agg.func).into_iter().map(part).collect()
}

/// Finalize merged aggregates into the requested columns: Mean from its sum and count,
/// counts back to ints, Collect-of-Collect nesting flattened — and Std's collected
/// values folded through the reference formula.
fn finalize_merged(
    merged: DataFrame,
    keys: &[Cell],
    aggs: &[Aggregation],
    keys_as_labels: bool,
) -> DfResult<DataFrame> {
    let mut labels: Vec<Cell> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    if !keys_as_labels {
        for key in keys {
            labels.push(key.clone());
            columns.push(Column::new(merged.column_by_label(key)?.cells().to_vec()));
        }
    }
    for agg in aggs {
        let part = |part: &str| -> DfResult<&[Cell]> {
            Ok(merged.column_by_label(&partial_label(agg, part))?.cells())
        };
        let cells: Vec<Cell> = match agg.func {
            AggFunc::Mean => (part("sum")?.iter().zip(part("count")?))
                .map(|(s, c)| match (s.as_f64(), c.as_f64()) {
                    (Some(s), Some(c)) if c > 0.0 => Cell::Float(s / c),
                    _ => Cell::Null,
                })
                .collect(),
            AggFunc::Count | AggFunc::CountNonNull => (part("value")?.iter())
                .map(|c| c.as_f64().map_or(Cell::Null, |v| Cell::Int(v as i64)))
                .collect(),
            AggFunc::Collect | AggFunc::Std => (part("value")?.iter())
                .map(|c| {
                    let Cell::List(per_band) = c else {
                        return c.clone();
                    };
                    let mut flat = Vec::new();
                    for item in per_band {
                        match item {
                            Cell::List(inner) => flat.extend(inner.iter().cloned()),
                            other => flat.push(other.clone()),
                        }
                    }
                    if agg.func == AggFunc::Collect {
                        return Cell::List(flat);
                    }
                    let values: Vec<f64> = flat.iter().filter_map(Cell::as_f64).collect();
                    ops::group::sample_std(&values)
                })
                .collect(),
            _ => part("value")?.to_vec(),
        };
        labels.push(agg.output_label());
        columns.push(Column::new(cells));
    }
    DataFrame::from_parts(columns, merged.row_labels().clone(), Labels::new(labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::algebra::{CmpOp, ColumnSelector, JoinOn, JoinType, SortSpec, WindowFunc};
    use df_core::engine::ReferenceEngine;
    use df_types::cell::cell;

    fn trips(rows: usize) -> DataFrame {
        let passenger: Vec<Cell> = (0..rows)
            .map(|i| {
                if i % 7 == 0 {
                    Cell::Null
                } else {
                    cell((i % 4 + 1) as i64)
                }
            })
            .collect();
        let fare: Vec<Cell> = (0..rows).map(|i| cell(5.0 + (i % 20) as f64)).collect();
        let vendor: Vec<Cell> = (0..rows)
            .map(|i| cell(if i % 2 == 0 { "CMT" } else { "VTS" }))
            .collect();
        DataFrame::from_columns(
            vec!["passenger_count", "fare", "vendor"],
            vec![passenger, fare, vendor],
        )
        .unwrap()
    }

    fn small_engine() -> ModinEngine {
        ModinEngine::with_config(ModinConfig::sequential().with_partition_size(16, 2))
    }

    fn assert_matches_reference(expr: &AlgebraExpr) {
        let reference = ReferenceEngine.execute_collect(expr).unwrap();
        let modin = small_engine().execute_collect(expr).unwrap();
        assert!(
            modin.same_data(&reference),
            "engine disagrees with reference\nreference:\n{reference}\nmodin:\n{modin}"
        );
    }

    #[test]
    fn map_selection_projection_match_reference() {
        let base = AlgebraExpr::literal(trips(100));
        assert_matches_reference(&base.clone().map(MapFunc::IsNullMask));
        assert_matches_reference(&base.clone().select(Predicate::ColCmp {
            column: cell("fare"),
            op: CmpOp::Gt,
            value: cell(15.0),
        }));
        assert_matches_reference(
            &base
                .clone()
                .project(ColumnSelector::ByLabels(vec![cell("fare"), cell("vendor")])),
        );
        assert_matches_reference(
            &base
                .clone()
                .select(Predicate::PositionRange { start: 37, end: 61 }),
        );
        assert_matches_reference(&base.rename(vec![(cell("vendor"), cell("vendor_id"))]));
    }

    #[test]
    fn groupby_partial_merge_matches_reference() {
        let base = AlgebraExpr::literal(trips(200));
        let aggs = vec![
            Aggregation::count_rows(),
            Aggregation::of("fare", AggFunc::Sum).with_alias("fare_sum"),
            Aggregation::of("fare", AggFunc::Mean).with_alias("fare_mean"),
            Aggregation::of("fare", AggFunc::Min).with_alias("fare_min"),
            Aggregation::of("fare", AggFunc::Max).with_alias("fare_max"),
            Aggregation::of("fare", AggFunc::CountNonNull).with_alias("fare_n"),
        ];
        assert_matches_reference(&base.clone().group_by(
            vec![cell("passenger_count")],
            aggs.clone(),
            false,
        ));
        // Global (single-group) aggregation — the Figure 2 groupby(1) query.
        assert_matches_reference(&base.group_by(vec![], aggs, false));
    }

    #[test]
    fn groupby_with_collect_and_std_merges_correctly() {
        let base = AlgebraExpr::literal(trips(60));
        assert_matches_reference(&base.clone().group_by(
            vec![cell("vendor")],
            vec![Aggregation::of("fare", AggFunc::Collect)],
            true,
        ));
        assert_matches_reference(&base.group_by(
            vec![cell("vendor")],
            vec![Aggregation::of("fare", AggFunc::Std).with_alias("fare_std")],
            false,
        ));
    }

    #[test]
    fn transpose_is_metadata_only_until_assembled() {
        let engine = small_engine();
        let expr = AlgebraExpr::literal(trips(64)).transpose();
        let grid = engine.execute_partitioned(&expr).unwrap();
        assert!(grid.deferred_transposes() > 0);
        let reference = ReferenceEngine.execute_collect(&expr).unwrap();
        assert!(grid.assemble().unwrap().same_data(&reference));
    }

    #[test]
    fn transpose_then_map_matches_reference() {
        let expr = AlgebraExpr::literal(trips(48))
            .transpose()
            .map(MapFunc::IsNullMask);
        assert_matches_reference(&expr);
    }

    #[test]
    fn fallback_operators_match_reference() {
        let base = AlgebraExpr::literal(trips(50));
        assert_matches_reference(&base.clone().sort(SortSpec::ascending(vec![cell("fare")])));
        assert_matches_reference(&base.clone().drop_duplicates());
        assert_matches_reference(&base.clone().window(
            ColumnSelector::ByLabels(vec![cell("fare")]),
            WindowFunc::CumSum,
        ));
        assert_matches_reference(&base.clone().to_labels("vendor"));
        assert_matches_reference(&base.clone().from_labels("row_id"));
        let other = AlgebraExpr::literal(trips(20));
        assert_matches_reference(&base.clone().union(other.clone()));
        assert_matches_reference(&base.clone().difference(other.clone()));
        assert_matches_reference(&base.join(
            other,
            df_core::algebra::JoinOn::Columns(vec![cell("vendor")]),
            df_core::algebra::JoinType::Inner,
        ));
    }

    #[test]
    fn shuffle_operators_never_fall_back() {
        // The acceptance criterion of the shuffle subsystem: JOIN, SORT,
        // DROP_DUPLICATES and DIFFERENCE run partition-parallel, not through the
        // assemble-and-delegate path. Each operator gets a fresh engine so the
        // counters are attributable.
        let base = || AlgebraExpr::literal(trips(120));
        let other = || AlgebraExpr::literal(trips(40));
        let shuffled: Vec<(&str, AlgebraExpr)> = vec![
            ("SORT", base().sort(SortSpec::ascending(vec![cell("fare")]))),
            ("DROP_DUPLICATES", base().drop_duplicates()),
            ("DIFFERENCE", base().difference(other())),
            (
                "JOIN",
                base().join(
                    other(),
                    df_core::algebra::JoinOn::Columns(vec![cell("vendor")]),
                    df_core::algebra::JoinType::Inner,
                ),
            ),
        ];
        for (name, expr) in shuffled {
            // Broadcast threshold 0 forces the full shuffle machinery for the binary
            // operators; unary ones shuffle regardless.
            let engine = ModinEngine::with_config(
                ModinConfig::sequential()
                    .with_partition_size(16, 2)
                    .with_broadcast_threshold(0),
            );
            let result = engine.execute_collect(&expr).unwrap();
            let reference = ReferenceEngine.execute_collect(&expr).unwrap();
            assert!(result.same_data(&reference), "{name} diverged");
            assert_eq!(engine.fallbacks_dispatched(), 0, "{name} fell back");
            assert!(engine.shuffles_dispatched() > 0, "{name} did not shuffle");
        }
        // And the remaining fallback operators do count their assembly.
        let engine = ModinEngine::with_config(ModinConfig::sequential().with_partition_size(16, 2));
        engine
            .execute_collect(&base().window(
                ColumnSelector::ByLabels(vec![cell("fare")]),
                WindowFunc::CumSum,
            ))
            .unwrap();
        assert_eq!(engine.fallbacks_dispatched(), 1);
        assert_eq!(engine.shuffles_dispatched(), 0);
    }

    #[test]
    fn handles_resume_from_the_grid_without_assembly_or_repartitioning() {
        let engine = small_engine();
        let expr = AlgebraExpr::literal(trips(100)).map(MapFunc::IsNullMask);
        let handle = engine.execute(&expr).unwrap();
        assert!(handle.is_partitioned());
        assert_eq!(handle.shape(), (100, 3));
        // Nothing assembled yet; executing over the handle resumes from the grid.
        assert_eq!(engine.assemblies_dispatched(), 0);
        let chained = AlgebraExpr::handle(handle.clone()).select(Predicate::ColCmp {
            column: cell("fare"),
            op: CmpOp::Eq,
            value: cell(false),
        });
        let grid = engine.execute_partitioned(&chained).unwrap();
        assert_eq!(engine.handles_reused(), 1);
        assert!(grid.n_row_bands() > 1, "handle reuse lost the partitioning");
        // Materialisation points count assemblies; prefix inspection does not.
        assert_eq!(engine.head_of(&handle, 5).unwrap().n_rows(), 5);
        assert_eq!(engine.assemblies_dispatched(), 0);
        let collected = engine.collect(&handle).unwrap();
        assert_eq!(collected.shape(), (100, 3));
        assert_eq!(engine.assemblies_dispatched(), 1);
        // A foreign (materialised) handle is repartitioned, not reused.
        let foreign = AlgebraExpr::handle(FrameHandle::from_dataframe(trips(30)));
        assert_eq!(engine.execute_collect(&foreign).unwrap().shape(), (30, 3));
        assert_eq!(engine.handles_reused(), 1);
    }

    #[test]
    fn limits_and_prefix_execution() {
        let engine = small_engine();
        let expr = AlgebraExpr::literal(trips(100)).map(MapFunc::IsNullMask);
        let head = engine.execute_prefix(&expr, 7).unwrap();
        assert_eq!(head.shape(), (7, 3));
        let reference = ReferenceEngine.execute_collect(&expr).unwrap().head(7);
        assert!(head.same_data(&reference));
        let tail = engine.execute_suffix(&expr, 4).unwrap();
        assert!(tail.same_data(&ReferenceEngine.execute_collect(&expr).unwrap().tail(4)));
        assert_matches_reference(&expr.limit(5, false));
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let expr = AlgebraExpr::literal(trips(300)).group_by(
            vec![cell("passenger_count")],
            vec![Aggregation::count_rows()],
            false,
        );
        let sequential =
            ModinEngine::with_config(ModinConfig::sequential().with_partition_size(32, 8))
                .execute_collect(&expr)
                .unwrap();
        let parallel = ModinEngine::with_config(
            ModinConfig::default()
                .with_threads(4)
                .with_partition_size(32, 8),
        )
        .execute_collect(&expr)
        .unwrap();
        assert!(sequential.same_data(&parallel));
    }

    #[test]
    fn engine_reports_kind_capabilities_and_tasks() {
        let engine = small_engine();
        assert_eq!(engine.kind(), EngineKind::Modin);
        assert!(engine.capabilities().lazy_execution);
        let expr = AlgebraExpr::literal(trips(64)).map(MapFunc::IsNullMask);
        engine.execute_collect(&expr).unwrap();
        assert_eq!(engine.config.threads, 1);
        let (optimized, stats) = engine.optimize_only(&expr.clone().transpose().transpose());
        assert_eq!(stats.transpose_pairs_eliminated, 1);
        assert_eq!(optimized.transpose_count(), 0);
        // With the optimizer off the plan runs as written.
        let off = ModinEngine::with_config(ModinConfig {
            optimizer: false,
            ..ModinConfig::sequential()
        });
        let (plain, stats) = off.optimize_only(&expr.transpose().transpose());
        assert_eq!(stats.total(), 0);
        assert_eq!(plain.transpose_count(), 2);
    }

    #[test]
    fn deferred_schema_induction_leaves_raw_columns_untyped() {
        let raw = DataFrame::from_columns(
            vec!["price"],
            vec![vec![cell("10"), cell("20"), cell("30")]],
        )
        .unwrap();
        let deferred = small_engine()
            .execute_collect(&AlgebraExpr::literal(raw))
            .unwrap();
        assert_eq!(deferred.schema(), vec![None]);
        assert_eq!(deferred.cell(0, 0).unwrap(), &cell("10"));
    }

    fn scan_csv_file(name: &str) -> (std::path::PathBuf, String) {
        let mut content = String::from("id,name,score,tag\n");
        for i in 0..60 {
            content.push_str(&format!("{i},row-{i},{}.5,t{}\n", i % 7, i % 3));
        }
        let dir = std::env::temp_dir().join(format!("df_engine_scan_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, &content).unwrap();
        (path, content)
    }

    fn scan_expr(path: &std::path::Path, identity: &str) -> AlgebraExpr {
        AlgebraExpr::scan_csv(df_core::ScanCsv::new(
            path,
            df_core::ScanOptions {
                infer_schema: true,
                ..df_core::ScanOptions::default()
            },
            identity,
        ))
    }

    fn id_lt(value: i64) -> Predicate {
        Predicate::ColCmp {
            column: cell("id"),
            op: CmpOp::Lt,
            value: cell(value),
        }
    }

    #[test]
    fn scan_pushdown_matches_unoptimized_plan_and_counts() {
        let (path, content) = scan_csv_file("pushdown.csv");
        let expr = scan_expr(&path, "engine-pushdown")
            .select(id_lt(7))
            .project(ColumnSelector::ByLabels(vec![cell("score"), cell("id")]));
        let pushed_engine = small_engine();
        let pushed = pushed_engine.execute_collect(&expr).unwrap();
        let stats = pushed_engine.pushdown_stats();
        assert_eq!(stats.predicates_pushed, 1);
        assert_eq!(stats.projections_pushed, 1);
        assert_eq!(
            stats.chunks_skipped, 3,
            "ids 0..60 in 4 bands of 16, id < 7"
        );
        assert_eq!(stats.columns_pruned, 2, "name and tag never parse");
        // The same plan with every rewrite disabled parses the whole file and
        // filters afterwards — results must be cell-for-cell identical.
        let plain_config = ModinConfig {
            optimizer: false,
            ..ModinConfig::sequential().with_partition_size(16, 2)
        };
        let plain_engine = ModinEngine::with_config(plain_config);
        let plain = plain_engine.execute_collect(&expr).unwrap();
        let plain_stats = plain_engine.pushdown_stats();
        assert_eq!(plain_stats.predicates_pushed, 0);
        assert_eq!(plain_stats.chunks_skipped, 0);
        assert!(pushed.same_data(&plain), "pushdown changed the answer");
        assert_eq!(pushed.schema(), plain.schema());
        drop(content);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_bare_raw_scan_without_statistics_is_one_ingest_pass() {
        let (path, content) = scan_csv_file("bare_raw.csv");
        let engine = small_engine();
        let raw = df_core::ScanCsv::new(&path, df_core::ScanOptions::default(), "bare");
        let serial = df_storage::csv::read_csv_str(&content, &CsvOptions::default()).unwrap();
        let out = engine
            .execute_collect(&AlgebraExpr::scan_csv(raw.clone()))
            .unwrap();
        assert!(out.same_data(&serial));
        assert_eq!(
            engine.scan_stats.lock().entries.len(),
            0,
            "no statistics pass"
        );
        assert_eq!(engine.ingest_stats().files_ingested, 1);
        // Typing the parse, or pushing anything into the scan, is what statistics
        // are for.
        engine.execute_collect(&scan_expr(&path, "bare")).unwrap();
        assert_eq!(engine.scan_stats.lock().entries.len(), 1);
        let limited = AlgebraExpr::scan_csv(raw.with_limit(3, false));
        assert_eq!(engine.execute_collect(&limited).unwrap().n_rows(), 3);
        assert_eq!(engine.scan_stats.lock().entries.len(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_statistics_are_cached_per_identity() {
        let (path, _content) = scan_csv_file("cached.csv");
        let engine = small_engine();
        let expr = scan_expr(&path, "cache-test");
        engine.execute_collect(&expr).unwrap();
        // Delete the file: a second evaluation must still plan from the cached
        // statistics (the parse phase re-reads, so only run explain here).
        let rendered = engine.explain_plan(&scan_expr(&path, "cache-test").select(id_lt(7)));
        assert!(
            rendered.contains("SCAN_CSV"),
            "explain lost the scan leaf:\n{rendered}"
        );
        assert_eq!(
            engine.scan_stats.lock().entries.len(),
            1,
            "one entry per identity"
        );
        // An identity names a file state, not a file: another file with the same
        // identity string has statistics of its own.
        let (other, _content) = scan_csv_file("cached_other.csv");
        engine
            .execute_collect(&scan_expr(&other, "cache-test"))
            .unwrap();
        assert_eq!(engine.scan_stats.lock().entries.len(), 2);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(other).ok();
    }

    #[test]
    fn scan_statistics_cache_keeps_the_most_recently_used_identities() {
        // Every refresh of a table is a new identity; the engine must not keep them all.
        let (path, _content) = scan_csv_file("stats_cache_bound.csv");
        let engine = small_engine();
        let scan_of = |n: usize| match scan_expr(&path, &format!("refresh-{n}")) {
            AlgebraExpr::ScanCsv(scan) => scan,
            _ => unreachable!("scan_expr builds a scan leaf"),
        };
        let stats_of = |n: usize| {
            let scan = scan_of(n);
            engine
                .scan_stats_for(&scan, &csv_options(scan.options))
                .unwrap()
        };
        let cached = |n: usize| {
            let state = crate::backend::scan_state(&scan_of(n));
            engine.scan_stats.lock().entries.contains_key(&state)
        };
        let first = stats_of(0);
        for n in 1..SCAN_STATS_CAPACITY {
            stats_of(n);
        }
        assert!(
            Arc::ptr_eq(&first, &stats_of(0)),
            "still cached, now freshest"
        );
        for n in SCAN_STATS_CAPACITY..SCAN_STATS_CAPACITY + 8 {
            stats_of(n);
        }
        assert_eq!(engine.scan_stats.lock().entries.len(), SCAN_STATS_CAPACITY);
        assert!(cached(0), "recently used survives");
        assert!(!cached(1), "stalest went first");
        assert!(!cached(8));
        assert!(cached(9));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn explain_names_pushdowns_and_join_strategy() {
        let (path, _content) = scan_csv_file("explain.csv");
        let dim = DataFrame::from_columns(
            vec!["tag", "label"],
            vec![
                vec![cell("t0"), cell("t1"), cell("t2")],
                vec![cell("small"), cell("medium"), cell("large")],
            ],
        )
        .unwrap();
        let expr = scan_expr(&path, "explain-test")
            .select(id_lt(7))
            .project(ColumnSelector::ByLabels(vec![cell("tag"), cell("id")]))
            .join(
                AlgebraExpr::literal(dim),
                JoinOn::Columns(vec![cell("tag")]),
                JoinType::Inner,
            );
        let engine = small_engine();
        let rendered = engine.explain_plan(&expr);
        assert!(rendered.contains("== logical plan =="), "{rendered}");
        assert!(rendered.contains("== optimized plan =="), "{rendered}");
        assert!(
            rendered.contains("predicates pushed into scans: 1"),
            "{rendered}"
        );
        assert!(
            rendered.contains("projections pushed into scans: 1"),
            "{rendered}"
        );
        assert!(
            rendered.contains("JOIN: broadcast build side"),
            "3-row dim table must broadcast:\n{rendered}"
        );
        // Executing the join bumps the strategy counters the same way.
        engine.execute_collect(&expr).unwrap();
        assert_eq!(engine.pushdown_stats().joins_broadcast, 1);
        assert_eq!(engine.pushdown_stats().joins_shuffled, 0);
        // Threshold 0 forces the shuffle path and the counter follows.
        let shuffle_engine = ModinEngine::with_config(
            ModinConfig::sequential()
                .with_partition_size(16, 2)
                .with_broadcast_threshold(0),
        );
        shuffle_engine.execute_collect(&expr).unwrap();
        assert_eq!(shuffle_engine.pushdown_stats().joins_shuffled, 1);
        std::fs::remove_file(path).ok();
    }
}
