//! The task-parallel execution layer.
//!
//! Paper §3.3: MODIN schedules dataframe partitions on a task-parallel asynchronous
//! execution engine (Ray or Dask in the Python implementation), and §3.1's point is
//! that every operator strategy is "fan a task over partitions". Here that layer is
//! one function, [`ParallelExecutor::run_stage`]: every partition-parallel stage of
//! every operator — a per-band kernel, a per-block map, a shuffle's split or concat
//! hop, a per-bucket join, a CSV chunk parse — hands it a list of *items* (each item
//! is the partitions one unit of work reads: a band, one block, a bucket's slices, a
//! left/right bucket pair, or nothing for a CSV chunk) and the work to run per item,
//! and the executor owns the whole band lifecycle:
//!
//! 1. **cancel check** — the cooperative [`CancelToken`] (shared with the session's
//!    timeout/cancel entry points) is polled before every item, so a cancelled
//!    statement stops between items, never mid-write;
//! 2. **load** — the item's input partitions are materialised *inside* the worker
//!    that runs it, so at most `threads` items' inputs are resident at once and
//!    consumed store entries are freed as workers drain them;
//! 3. **run** — the work is either [`ParallelExecutor::placed`] (a serialisable
//!    [`BandTask`] placed on the configured backend: inline on threads, over the pipe
//!    protocol on worker processes) or a driver-local closure that may borrow driver
//!    state (a broadcast side, splitters, band offsets);
//! 4. **store** — every output frame is checked into the session's [`SpillStore`]
//!    (when the engine runs under a memory budget) in the stage's [`CheckIn`] form;
//!    small by-products the driver consumes immediately ride back beside the
//!    output partitions instead.
//!
//! A `threads = 1` configuration runs the items in place, in order, which the tests
//! use for determinism.
//!
//! ## Fault isolation
//!
//! Every item runs under `catch_unwind`: a panicking worker surfaces as a typed
//! [`DfError::WorkerPanic`] instead of unwinding through the pool, sibling items are
//! abandoned via a fail-fast flag, and — because the queue and result slots use
//! non-poisoning `parking_lot` locks — the executor, its store and the session remain
//! fully usable afterwards. A failed batch drops the partitions it had produced, and
//! dropping a partition frees its store entry, so an error leaves nothing behind.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use df_core::columnar::ColumnBlock;
use df_core::dataframe::DataFrame;
use df_storage::spill::SpillStore;
use df_types::error::{DfError, DfResult};
use df_types::CancelToken;

use crate::backend::{BandTask, ExecBackend};
use crate::partition::Partition;

/// The default worker count: the `DF_THREADS` environment variable when set (CI runs
/// the test suite as a matrix over it), otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    threads_from_env(std::env::var("DF_THREADS").ok().as_deref())
}

/// Resolve a `DF_THREADS`-style override against the machine's parallelism. Split out
/// of [`default_threads`] so the precedence is unit-testable without touching the
/// process environment.
fn threads_from_env(raw: Option<&str>) -> usize {
    if let Some(threads) = raw.and_then(|v| v.trim().parse::<usize>().ok()) {
        if threads >= 1 {
            return threads;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Render a caught panic payload for [`DfError::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one task with panic isolation: a panic in `f` becomes a typed
/// [`DfError::WorkerPanic`] at this boundary instead of unwinding into the pool.
/// `AssertUnwindSafe` is sound here because a failed task's result is never
/// observed — the whole batch errors out, discarding any state `f` touched.
fn run_isolated<T, U, F>(f: &F, index: usize, item: T) -> DfResult<U>
where
    F: Fn(usize, T) -> DfResult<U>,
{
    catch_unwind(AssertUnwindSafe(|| f(index, item)))
        .unwrap_or_else(|payload| Err(DfError::WorkerPanic(panic_message(payload))))
}

/// The form a stage checks its output frames into the session store in. It is an
/// argument of the stage, not a setting: ingest's two parse stages check in typed
/// column blocks (each band is encoded once, and the store accounts and spills the
/// compact typed buffers), every other stage checks in row-addressable frames rather
/// than paying an encode/decode round trip per operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckIn {
    /// Row-addressable [`DataFrame`]s.
    Frame,
    /// Typed [`ColumnBlock`]s.
    Columnar,
}

impl CheckIn {
    fn store(self, frame: DataFrame, store: Option<&Arc<SpillStore>>) -> DfResult<Partition> {
        match self {
            CheckIn::Frame => Partition::new_in(frame, store),
            CheckIn::Columnar => Partition::new_columnar_in(ColumnBlock::from_frame(&frame), store),
        }
    }
}

/// What a stage returns: per item, in item order, its checked-in output partitions
/// and its by-product.
pub(crate) type StageResults<B> = Vec<(Vec<Partition>, B)>;

/// A stage's output partitions in item order, by-products dropped.
pub(crate) fn outputs<B>(results: StageResults<B>) -> Vec<Partition> {
    results.into_iter().flat_map(|(parts, _)| parts).collect()
}

/// A scoped thread-pool executor for per-partition work.
pub struct ParallelExecutor {
    threads: usize,
    store: Option<Arc<SpillStore>>,
    cancel: CancelToken,
    backend: Arc<dyn ExecBackend>,
    shuffles_run: AtomicU64,
}

impl ParallelExecutor {
    /// An executor with an explicit worker count (clamped to at least 1), placing
    /// band tasks on the in-process [`crate::backend::ThreadsBackend`] by default.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        ParallelExecutor {
            threads,
            store: None,
            cancel: CancelToken::new(),
            backend: Arc::new(crate::backend::ThreadsBackend::new(threads)),
            shuffles_run: AtomicU64::new(0),
        }
    }

    /// An executor sized to the machine's available parallelism (or `DF_THREADS`).
    pub(crate) fn default_parallelism() -> Self {
        ParallelExecutor::new(default_threads())
    }

    /// Attach the session's spill store: every stage run on this executor checks its
    /// outputs into the store (and therefore keeps them under its memory budget).
    pub fn with_store(mut self, store: Option<Arc<SpillStore>>) -> Self {
        self.store = store;
        self
    }

    /// The session's spill store, when the engine runs with a memory budget.
    pub(crate) fn store(&self) -> Option<&Arc<SpillStore>> {
        self.store.as_ref()
    }

    /// The executor's cooperative cancel token: `cancel()` makes in-flight batches
    /// stop at the next task boundary with [`DfError::Cancelled`].
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Replace the task-placement backend (builder style). Fan-out stays on this
    /// executor's thread pool either way; the backend decides where each
    /// [`BandTask`] actually runs.
    pub fn with_backend(mut self, backend: Arc<dyn ExecBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The executor's task-placement backend.
    pub fn backend(&self) -> &Arc<dyn ExecBackend> {
        &self.backend
    }

    /// Place one band task on the backend, outside any stage. Operators never call
    /// this: their tasks reach the backend through [`ParallelExecutor::placed`] work
    /// handed to [`ParallelExecutor::run_stage`].
    pub fn run_task(&self, task: &BandTask, inputs: Vec<DataFrame>) -> DfResult<Vec<DataFrame>> {
        self.backend.run_task(task, inputs)
    }

    /// The stage work that places `task` on the configured backend — the one way a
    /// [`BandTask`] is scheduled. The backend's answer is held to the task's declared
    /// output arity, so a worker process that answers with the wrong number of frames
    /// is a typed error here rather than a silently misshapen grid downstream.
    pub fn placed<'a>(
        &'a self,
        task: &'a BandTask,
    ) -> impl Fn(usize, Vec<DataFrame>) -> DfResult<(Vec<DataFrame>, ())> + Send + Sync + 'a {
        move |_, inputs| {
            let frames = self.run_task(task, inputs)?;
            if frames.len() != task.output_arity() {
                return Err(DfError::internal(format!(
                    "band task returned {} frames where {} were expected",
                    frames.len(),
                    task.output_arity()
                )));
            }
            Ok((frames, ()))
        }
    }

    /// Run one partition-parallel stage: for every item, in parallel across the pool,
    /// load the item's input partitions inside its worker, run `work` on them, and
    /// check every output frame into the session store in the `check_in` form.
    /// Results come back in item order as `(output partitions, by-product)`.
    ///
    /// `work` receives the item's index and its loaded inputs. It is either
    /// [`ParallelExecutor::placed`] or a driver-local closure; by-products (`B`) are
    /// for small values the driver consumes immediately — splitter samples, a matched
    /// bitmap, induction summaries — and are never checked into the store. `stage`
    /// names the stage (`"kernel.join_probe"`, `"shuffle.split"`, …) in cancellation
    /// errors.
    ///
    /// The first error by item index is returned if any item fails with a typed
    /// error; a panicking item yields [`DfError::WorkerPanic`] only when nothing typed
    /// failed; items abandoned by fail-fast or cancellation surface as
    /// [`DfError::Cancelled`]. Partitions produced before a failure are dropped with
    /// the batch, which frees their store entries.
    pub fn run_stage<B, W>(
        &self,
        stage: &'static str,
        check_in: CheckIn,
        items: Vec<Vec<Partition>>,
        work: W,
    ) -> DfResult<StageResults<B>>
    where
        B: Send,
        W: Fn(usize, Vec<DataFrame>) -> DfResult<(Vec<DataFrame>, B)> + Send + Sync,
    {
        self.par_map(stage, items, |index, inputs| {
            let frames = inputs
                .into_iter()
                .map(Partition::into_materialized)
                .collect::<DfResult<Vec<_>>>()?;
            let (frames, by_product) = work(index, frames)?;
            let parts = frames
                .into_iter()
                .map(|frame| check_in.store(frame, self.store.as_ref()))
                .collect::<DfResult<Vec<_>>>()?;
            Ok((parts, by_product))
        })
    }

    /// Number of worker threads used for fan-out.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Total number of shuffles (hash or range exchanges) executed so far. Recorded by
    /// the shuffle subsystem so ablations can report shuffle counts per query.
    pub(crate) fn shuffles_run(&self) -> u64 {
        self.shuffles_run.load(Ordering::Relaxed)
    }

    /// Record one shuffle (called by the shuffle subsystem per exchange).
    pub(crate) fn record_shuffle(&self) {
        self.shuffles_run.fetch_add(1, Ordering::Relaxed);
    }

    /// Apply `f` to every item, in parallel across the pool, returning results in input
    /// order: the fan-out, cancellation and panic-isolation half of
    /// [`ParallelExecutor::run_stage`].
    fn par_map<T, U, F>(&self, stage: &'static str, items: Vec<T>, f: F) -> DfResult<Vec<U>>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> DfResult<U> + Send + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        if self.threads == 1 || n == 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| {
                    self.cancel.check(stage)?;
                    run_isolated(&f, i, item)
                })
                .collect();
        }
        // Work-stealing-free static assignment: a shared queue of indexed items that
        // each worker drains. Results are written into pre-allocated slots so order is
        // preserved without sorting. A worker panic sets the abort flag so siblings
        // stop picking up work; ordinary task errors still let the batch drain, which
        // keeps "lowest-index error wins" deterministic.
        let queue = Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
        let results: Vec<Mutex<Option<DfResult<U>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let abort = AtomicBool::new(false);
        let workers = self.threads.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if abort.load(Ordering::SeqCst) || self.cancel.is_cancelled() {
                        break;
                    }
                    let next = queue.lock().pop();
                    match next {
                        Some((index, item)) => {
                            let outcome = run_isolated(&f, index, item);
                            if matches!(outcome, Err(DfError::WorkerPanic(_))) {
                                abort.store(true, Ordering::SeqCst);
                            }
                            *results[index].lock() = Some(outcome);
                        }
                        None => break,
                    }
                });
            }
        });
        let slots: Vec<Option<DfResult<U>>> = results.into_iter().map(Mutex::into_inner).collect();
        // Error precedence: the lowest-index *typed* failure wins outright — a
        // sibling that panics (possibly at a lower index, possibly racing the
        // fail-fast flag) must not mask the error that actually explains the
        // batch. Panics only surface when no typed error exists, and slots left
        // empty by fail-fast or cancellation only surface (as Cancelled) when
        // nothing failed at all.
        if let Some(err) = slots.iter().find_map(|slot| match slot {
            Some(Err(err)) if !err.is_cancelled() && !matches!(err, DfError::WorkerPanic(_)) => {
                Some(err.clone())
            }
            _ => None,
        }) {
            return Err(err);
        }
        if let Some(err) = slots.iter().find_map(|slot| match slot {
            Some(Err(err @ DfError::WorkerPanic(_))) => Some(err.clone()),
            _ => None,
        }) {
            return Err(err);
        }
        let mut output = Vec::with_capacity(n);
        for slot in slots {
            match slot {
                Some(Ok(value)) => output.push(value),
                Some(Err(err)) => return Err(err),
                None => {
                    return Err(DfError::Cancelled(format!(
                        "{stage} abandoned after cancellation"
                    )))
                }
            }
        }
        Ok(output)
    }
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::default_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionConfig, PartitionGrid, PartitionHandle, PartitionScheme};
    use df_types::cell::cell;
    use std::sync::atomic::AtomicUsize;

    /// `rows` rows of an `id` column and a string payload, as 10-row bands in `store`.
    fn stored_bands(rows: usize, store: &Arc<SpillStore>) -> Vec<Vec<Partition>> {
        let frame = DataFrame::from_columns(
            vec!["id", "payload"],
            vec![
                (0..rows).map(|i| cell(i as i64)).collect(),
                (0..rows).map(|i| cell(format!("payload-{i}"))).collect(),
            ],
        )
        .unwrap();
        let config = PartitionConfig {
            target_rows: 10,
            target_cols: 8,
        };
        PartitionGrid::from_dataframe_in(&frame, PartitionScheme::Row, config, Some(store))
            .unwrap()
            .into_blocks()
    }

    #[test]
    fn run_stage_loads_inside_workers_and_checks_every_output_in() {
        for threads in [1usize, 3] {
            let store = Arc::new(SpillStore::new(1).unwrap()); // spill everything
            let executor = ParallelExecutor::new(threads).with_store(Some(Arc::clone(&store)));
            let items = stored_bands(120, &store);
            let (loaded, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let results = executor
                .run_stage("test.heads", CheckIn::Frame, items, |i, inputs| {
                    // Items whose inputs are loaded right now: one per busy worker.
                    peak.fetch_max(loaded.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    std::thread::yield_now();
                    let band = &inputs[0];
                    let first_id = band.cell(0, 0)?.as_i64();
                    let out = (vec![band.head(5)], (i, first_id));
                    loaded.fetch_sub(1, Ordering::SeqCst);
                    Ok(out)
                })
                .unwrap();
            assert!(
                peak.load(Ordering::SeqCst) <= threads,
                "threads={threads}: {} items had their inputs resident at once",
                peak.load(Ordering::SeqCst)
            );
            // Results and by-products come back in item order, one task per item.
            assert_eq!(results.len(), 12);
            for (i, (parts, by_product)) in results.iter().enumerate() {
                assert_eq!(*by_product, (i, Some(10 * i as i64)));
                assert_eq!(parts.len(), 1);
                assert!(parts[0].handle().is_stored());
                assert_eq!(parts[0].n_rows(), 5);
            }
            // Every input was consumed and every output checked in — under the budget
            // plus at most one insertion per worker.
            let stats = store.stats();
            assert_eq!(stats.in_memory + stats.spilled, 12);
            assert!(stats.peak_memory_bytes <= 1 + threads * stats.max_insert_bytes);
            drop(results);
            let stats = store.stats();
            assert_eq!(stats.in_memory + stats.spilled, 0, "outputs leaked");
        }
    }

    #[test]
    fn check_in_form_is_the_stage_s_choice_and_placed_tasks_keep_their_arity() {
        let executor = ParallelExecutor::new(2);
        let frame = || DataFrame::from_columns(vec!["a"], vec![vec![cell(1), cell(2)]]).unwrap();
        let zero_input = || vec![Vec::new()];
        for (check_in, columnar) in [(CheckIn::Frame, false), (CheckIn::Columnar, true)] {
            let results = executor
                .run_stage("test.form", check_in, zero_input(), |_, _| {
                    Ok((vec![frame()], ()))
                })
                .unwrap();
            let parts = outputs(results);
            assert_eq!(
                matches!(parts[0].handle(), PartitionHandle::Columnar(_)),
                columnar
            );
            assert!(parts[0].materialize().unwrap().same_data(&frame()));
        }
        // A placed task runs on the backend and must answer with its declared arity.
        let split = BandTask::HashSplit {
            key: crate::shuffle::ShuffleKey::Positions(vec![0]),
            parts: 3,
        };
        let items = vec![vec![Partition::new_in(frame(), None).unwrap()]];
        let results = executor
            .run_stage("test.split", CheckIn::Frame, items, executor.placed(&split))
            .unwrap();
        assert_eq!(outputs(results).len(), 3);
    }

    #[test]
    fn par_map_preserves_order() {
        let executor = ParallelExecutor::new(4);
        let items: Vec<u64> = (0..100).collect();
        let out = executor.par_map("test", items, |_, v| Ok(v * 2)).unwrap();
        assert_eq!(out[0], 0);
        assert_eq!(out[99], 198);
        assert_eq!(out.len(), 100);
        assert_eq!(executor.shuffles_run(), 0);
        executor.record_shuffle();
        assert_eq!(executor.shuffles_run(), 1);
    }

    #[test]
    fn sequential_mode_runs_in_place() {
        let executor = ParallelExecutor::new(1);
        assert_eq!(executor.threads(), 1);
        let out = executor
            .par_map("test", vec![1, 2, 3], |i, v| Ok(v + i as i32))
            .unwrap();
        assert_eq!(out, vec![1, 3, 5]);
    }

    #[test]
    fn errors_are_propagated_by_lowest_index() {
        let executor = ParallelExecutor::new(4);
        let err = executor
            .par_map("test", (0..10).collect::<Vec<u32>>(), |_, v| {
                if v >= 3 {
                    Err(DfError::internal(format!("task {v} failed")))
                } else {
                    Ok(v)
                }
            })
            .unwrap_err();
        assert!(matches!(err, DfError::Internal(msg) if msg.contains("task 3")));
    }

    #[test]
    fn a_late_panic_does_not_mask_an_earlier_typed_error() {
        // Regression: one item panics while a sibling returns a typed error. The
        // panic may land at the *lower* index, but the typed error is the one
        // that explains the failure and must win. The barrier guarantees both
        // items are mid-flight simultaneously (2 workers each pop one item
        // before blocking), so the fail-fast flag cannot serialise them.
        let barrier = std::sync::Barrier::new(2);
        let executor = ParallelExecutor::new(2);
        let err = executor
            .par_map("test", vec![0u32, 1u32], |_, v| {
                barrier.wait();
                if v == 0 {
                    panic!("panic on item 0");
                }
                Err::<u32, _>(DfError::spill_corruption(
                    "test.site",
                    "typed failure on item 1",
                ))
            })
            .unwrap_err();
        assert!(
            matches!(&err, DfError::SpillCorruption { .. }),
            "typed error must beat the panic, got {err:?}"
        );
        // Both orderings: typed error at the lower index also wins.
        let barrier = std::sync::Barrier::new(2);
        let err = executor
            .par_map("test", vec![0u32, 1u32], |_, v| {
                barrier.wait();
                if v == 1 {
                    panic!("panic on item 1");
                }
                Err::<u32, _>(DfError::spill_corruption(
                    "test.site",
                    "typed failure on item 0",
                ))
            })
            .unwrap_err();
        assert!(
            matches!(&err, DfError::SpillCorruption { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn worker_panics_become_typed_errors_and_the_pool_survives() {
        for threads in [1, 4] {
            let executor = ParallelExecutor::new(threads);
            let err = executor
                .par_map("test", (0..16).collect::<Vec<u32>>(), |_, v| {
                    if v == 5 {
                        panic!("kaboom at {v}");
                    }
                    Ok(v)
                })
                .unwrap_err();
            assert!(
                matches!(&err, DfError::WorkerPanic(msg) if msg.contains("kaboom")),
                "threads={threads}: expected WorkerPanic, got {err:?}"
            );
            // No poisoned lock, no wedged state: the same executor keeps working.
            let out = executor
                .par_map("test", (0..16).collect::<Vec<u32>>(), |_, v| Ok(v * 2))
                .unwrap();
            assert_eq!(out.len(), 16);
            assert_eq!(out[15], 30);
        }
    }

    #[test]
    fn cancellation_stops_batches_at_task_boundaries() {
        for threads in [1, 4] {
            let executor = ParallelExecutor::new(threads);
            executor.cancel_token().cancel();
            let err = executor
                .par_map("test", (0..8).collect::<Vec<u32>>(), |_, v| Ok(v))
                .unwrap_err();
            assert!(err.is_cancelled(), "threads={threads}: got {err:?}");
            // Reset re-arms the executor for the next statement.
            executor.cancel_token().reset();
            let out = executor
                .par_map("test", (0..8).collect::<Vec<u32>>(), |_, v| Ok(v))
                .unwrap();
            assert_eq!(out.len(), 8);
        }
    }

    #[test]
    fn empty_input_is_fine_and_zero_threads_clamp() {
        let executor = ParallelExecutor::new(0);
        assert_eq!(executor.threads(), 1);
        let out: Vec<u32> = executor
            .par_map("test", Vec::<u32>::new(), |_, v| Ok(v))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn default_parallelism_reports_at_least_one_thread() {
        assert!(ParallelExecutor::default().threads() >= 1);
    }

    #[test]
    fn df_threads_override_wins_when_valid() {
        assert_eq!(threads_from_env(Some("4")), 4);
        assert_eq!(threads_from_env(Some(" 2 ")), 2);
        let auto = threads_from_env(None);
        assert!(auto >= 1);
        // Zero and garbage fall back to the machine's parallelism.
        assert_eq!(threads_from_env(Some("0")), auto);
        assert_eq!(threads_from_env(Some("not-a-number")), auto);
    }

    #[test]
    fn store_attaches_and_detaches() {
        let executor = ParallelExecutor::new(2);
        assert!(executor.store().is_none());
        let store = Arc::new(SpillStore::unbounded().unwrap());
        let executor = executor.with_store(Some(Arc::clone(&store)));
        assert!(Arc::ptr_eq(executor.store().unwrap(), &store));
    }
}
