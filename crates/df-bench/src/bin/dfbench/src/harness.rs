//! What every workload shares: the run context, the untraced measurement loop, the
//! output checks and the result record.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use df_core::dataframe::DataFrame;
use df_engine::engine::ModinConfig;
use df_engine::session::EvalMode;
use df_pandas::Session;
use df_storage::csv::{write_csv_string, CsvOptions};
use df_types::backend::BackendKind;
use df_types::error::DfError;

use crate::json::Json;
use crate::spec::Sizes;
use crate::stats::{percentile, Summary};

/// One invocation: which workload, on which seed, for how long.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub sizes: Sizes,
    /// `threads = workers = min(nproc, 4)`, always passed explicitly — never read
    /// from `DF_THREADS`.
    pub threads: usize,
    /// Scratch directory of this invocation (inside the build's target directory);
    /// inputs, outputs and spill files all live under it.
    pub work: PathBuf,
}

impl Ctx {
    /// The engine configuration every workload starts from.
    pub fn config(&self, band_rows: usize) -> ModinConfig {
        ModinConfig::default()
            .with_threads(self.threads)
            .with_backend(BackendKind::Threads)
            .with_partition_size(band_rows, 32)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// The same invocation with another measurement window.
    pub fn with_seconds(&self, seconds: f64) -> Ctx {
        Ctx {
            seconds,
            ..self.clone()
        }
    }
}

pub type Res<T> = Result<T, String>;

/// Typed engine errors become the failure text the run reports.
pub fn df<T>(result: Result<T, DfError>) -> Res<T> {
    result.map_err(|err| format!("unexpected DfError: {err}"))
}

pub fn io<T>(result: std::io::Result<T>) -> Res<T> {
    result.map_err(|err| format!("I/O error: {err}"))
}

pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A fresh lazy session: the optimizer sees whole statements, and no result cache
/// carries over from the previous iteration.
pub fn open(config: ModinConfig) -> Arc<Session> {
    Session::modin_with(config, EvalMode::Lazy)
}

pub const CSV: CsvOptions = CsvOptions {
    delimiter: ',',
    has_header: true,
    infer_schema: true,
};

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// FNV-1a 64 over a result's emitted CSV bytes, chained across a statement's
/// outputs, plus the data rows seen — the `result_digest` two commits can diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub rows: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            rows: 0,
        }
    }
}

impl Digest {
    /// Fold in one CSV document (header + records).
    pub fn csv_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        self.rows += lines.saturating_sub(1);
    }

    pub fn csv_file(&mut self, path: &Path) -> Res<()> {
        self.csv_bytes(&io(std::fs::read(path))?);
        Ok(())
    }

    pub fn frame(&mut self, frame: &DataFrame) -> Res<()> {
        self.csv_bytes(df(write_csv_string(frame, &CsvOptions::default()))?.as_bytes());
        Ok(())
    }

    pub fn render(&self) -> String {
        format!("rows={} fnv64={:016x}", self.rows, self.hash)
    }
}

/// The differential check: the scalable engine's result against the reference
/// engine's on the same (sampled) input. Float aggregates may re-associate across
/// band boundaries, hence the relative tolerance; everything else is exact.
pub fn require_same(what: &str, scalable: &DataFrame, reference: &DataFrame) -> Res<()> {
    if scalable.approx_same_data(reference, 1e-9) {
        Ok(())
    } else {
        Err(format!(
            "{what}: scalable engine result {:?} differs from the reference engine's {:?}",
            scalable.shape(),
            reference.shape()
        ))
    }
}

// ---------------------------------------------------------------------------
// Counters read from the public stats surfaces after an iteration
// ---------------------------------------------------------------------------

/// Exact counts of one iteration (a fresh session, so they start at zero).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub ingest_bands: u64,
    pub ingest_bytes: u64,
    pub chunks_skipped: u64,
    pub columns_pruned: u64,
    pub shuffles: u64,
    pub spill_outs: u64,
    pub load_backs: u64,
    pub spill_retries: u64,
    pub spill_peak_bytes: u64,
    pub tasks_remote: u64,
    pub tasks_local: u64,
    pub restarts: u64,
    pub executions: u64,
    pub cache_hits: u64,
}

impl Counters {
    pub fn of(session: &Session) -> Counters {
        let stats = session.stats();
        let mut counters = Counters {
            chunks_skipped: stats.chunks_skipped,
            columns_pruned: stats.columns_pruned,
            executions: stats.executions,
            cache_hits: stats.cache_hits,
            ..Counters::default()
        };
        if let Some(engine) = session.modin_engine() {
            let ingest = engine.ingest_stats();
            let spill = engine.spill_stats();
            let health = engine.backend_health();
            counters.ingest_bands = ingest.bands_parsed;
            counters.ingest_bytes = ingest.ingest_bytes;
            counters.shuffles = engine.shuffles_dispatched();
            counters.spill_outs = spill.spill_outs;
            counters.load_backs = spill.load_backs;
            counters.spill_retries = spill.retries;
            counters.spill_peak_bytes = spill.peak_memory_bytes as u64;
            counters.tasks_remote = health.tasks_remote;
            counters.tasks_local = health.tasks_local;
            counters.restarts = health.restarts;
        }
        counters
    }
}

// ---------------------------------------------------------------------------
// The batch measurement loop
// ---------------------------------------------------------------------------

/// One iteration of a batch workload: a fresh session, a first look, then the
/// workload's two statements.
#[derive(Debug, Clone, Copy)]
pub struct IterOut {
    /// Fresh session → first `head(10)` (or the workload's stand-in, see README).
    pub head_s: f64,
    /// The multi-operator pipeline statement.
    pub chain_s: f64,
    /// The shuffle-bound (or reduce-bound) statement.
    pub shuffle_s: f64,
    pub digest: Digest,
    pub counters: Counters,
}

impl IterOut {
    pub fn total_s(&self) -> f64 {
        self.head_s + self.chain_s + self.shuffle_s
    }
}

/// A batch workload: closed loop of one client.
pub trait Batch {
    type Inputs;
    /// Generate inputs from the seed, write files, start (and drop) an engine.
    /// Timed as `setup_s`.
    fn setup(ctx: &Ctx) -> Res<Self::Inputs>;
    /// Scalable engine vs reference engine on the 1/16 sample.
    fn check(ctx: &Ctx, inputs: &Self::Inputs) -> Res<()>;
    /// One full-size iteration on a fresh session.
    fn iterate(ctx: &Ctx, inputs: &Self::Inputs) -> Res<IterOut>;
    /// Assertions on an iteration's counters (`spill.outs == 0`, …).
    fn assert_counters(_ctx: &Ctx, _counters: &Counters) -> Res<()> {
        Ok(())
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub metrics: Vec<(String, Summary)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub digest: String,
    /// First failure, when there was one.
    pub error: Option<String>,
    /// Extra facts for the result file (counters, budgets).
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    /// Run `measure`, which fills the outcome in as it goes; an `Err` — a failed
    /// output check, an unexpected `DfError` — makes the run incorrect and is kept as
    /// its first failure.
    pub fn from_run(measure: impl FnOnce(&mut Outcome) -> Res<()>) -> Outcome {
        let mut outcome = Outcome::default();
        match measure(&mut outcome) {
            Ok(()) => outcome.correct = outcome.failed == 0,
            Err(err) => {
                outcome.failed += 1;
                outcome.attempted = outcome.attempted.max(outcome.failed);
                outcome.error = Some(err);
            }
        }
        outcome
    }
}

/// Statements per iteration of every batch workload (head, chain, shuffle).
const BATCH_STATEMENTS: u64 = 3;

/// Run set-up once untimed (first-touch page faults and lazy statics belong to the
/// process, not to set-up) and then `reps` times timed; the inputs of the last
/// repetition are the ones the run uses. Every repetition does the same work, so the
/// median is `setup_s`.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> Res<T>) -> Res<(T, Summary)> {
    let mut last = setup()?;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        drop(last);
        let (inputs, seconds) = time(&mut setup);
        samples.push(seconds);
        last = inputs?;
    }
    Ok((last, Summary::of(&samples)))
}

/// True while the timed loop should start another iteration.
pub fn keep_going(ctx: &Ctx, started: Instant, done: usize) -> bool {
    match ctx.sizes.fixed_iters {
        Some(n) => done < n,
        None => done < ctx.sizes.min_iters || started.elapsed().as_secs_f64() < ctx.seconds,
    }
}

pub fn run_batch<B: Batch>(ctx: &Ctx) -> Outcome {
    Outcome::from_run(|outcome| run_batch_inner::<B>(ctx, outcome))
}

fn run_batch_inner<B: Batch>(ctx: &Ctx, outcome: &mut Outcome) -> Res<()> {
    let (inputs, setup) = timed_setup(ctx.sizes.setup_reps, || B::setup(ctx))?;
    B::check(ctx, &inputs)?;

    let mut expected: Option<Digest> = None;
    let mut verify = |out: &IterOut| -> Res<()> {
        B::assert_counters(ctx, &out.counters)?;
        match expected {
            None => expected = Some(out.digest),
            Some(first) if first != out.digest => {
                return Err(format!(
                    "result digest changed between iterations: {} then {}",
                    first.render(),
                    out.digest.render()
                ))
            }
            Some(_) => {}
        }
        Ok(())
    };
    for _ in 0..ctx.sizes.warmups {
        verify(&B::iterate(ctx, &inputs)?)?;
    }

    // Peak memory is read on iterations of its own, checked but not timed: restarting
    // the high-water mark hands the allocator's free pages back to the kernel, and
    // the next statement pays the page faults to get them back (17 % of
    // `shuffle_skew`'s `head_s` when the timed iterations did both). They come before
    // the timed ones: after a window of untrimmed iterations the heap is fragmented
    // differently in every process, and the readings spread three times as wide.
    let mut peaks_mib: Vec<f64> = Vec::new();
    for _ in 0..ctx.sizes.rss_iters {
        reset_peak_rss();
        let out = B::iterate(ctx, &inputs)?;
        peaks_mib.push(peak_rss_mib()?);
        verify(&out)?;
    }

    let mut iters: Vec<IterOut> = Vec::new();
    let started = Instant::now();
    while keep_going(ctx, started, iters.len()) {
        outcome.attempted += BATCH_STATEMENTS;
        let out = B::iterate(ctx, &inputs)?;
        verify(&out)?;
        iters.push(out);
    }
    let column = |f: fn(&IterOut) -> f64| -> Vec<f64> { iters.iter().map(f).collect() };
    let totals = column(IterOut::total_s);
    let statements: Vec<f64> = iters
        .iter()
        .flat_map(|it| [it.head_s, it.chain_s, it.shuffle_s])
        .collect();
    let busy: f64 = totals.iter().sum();
    outcome.metrics = vec![
        ("setup_s".into(), setup),
        ("stmt_s".into(), Summary::of(&totals)),
        ("head_s".into(), Summary::of(&column(|it| it.head_s))),
        ("chain_s".into(), Summary::of(&column(|it| it.chain_s))),
        ("shuffle_s".into(), Summary::of(&column(|it| it.shuffle_s))),
        ("peak_rss_mb".into(), Summary::of(&peaks_mib)),
        (
            "stmts_per_s".into(),
            Summary::single(statements.len() as f64 / busy),
        ),
        (
            "stmt_p50_ms".into(),
            Summary::single(percentile(&statements, 0.5) * 1e3),
        ),
        (
            "stmt_p95_ms".into(),
            Summary::single(percentile(&statements, 0.95) * 1e3),
        ),
        (
            "ok_share".into(),
            Summary::single(1.0 - outcome.failed as f64 / outcome.attempted as f64),
        ),
    ];
    outcome.digest = expected.map(|d| d.render()).unwrap_or_default();
    if let Some(last) = iters.last() {
        outcome
            .notes
            .push(("counters".into(), counters_json(&last.counters)));
    }
    outcome
        .notes
        .push(("timed_iterations".into(), Json::Num(iters.len() as f64)));
    Ok(())
}

pub fn counters_json(c: &Counters) -> Json {
    let n = |v: u64| Json::Num(v as f64);
    Json::obj(vec![
        ("ingest_bands", n(c.ingest_bands)),
        ("ingest_bytes", n(c.ingest_bytes)),
        ("chunks_skipped", n(c.chunks_skipped)),
        ("columns_pruned", n(c.columns_pruned)),
        ("shuffles", n(c.shuffles)),
        ("spill_outs", n(c.spill_outs)),
        ("load_backs", n(c.load_backs)),
        ("spill_peak_bytes", n(c.spill_peak_bytes)),
        ("tasks_remote", n(c.tasks_remote)),
        ("tasks_local", n(c.tasks_local)),
        ("executions", n(c.executions)),
        ("cache_hits", n(c.cache_hits)),
    ])
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: return free heap pages (of every arena) to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Start a peak-memory reading: hand the allocator's free pages back to the kernel
/// and restart this process's resident-set high-water mark (`VmHWM`) from what is
/// left, so the next [`peak_rss_mib`] is the peak of what runs in between — one
/// iteration's working memory, not the heap the allocator happened to retain from
/// earlier ones (glibc keeps freed memory, and how much depends on which threads
/// overlapped early in the run: up to ±20 % between identical runs). Best effort:
/// without glibc or where the kernel refuses the write, readings are cumulative.
pub fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and may be called at any time from any
    // thread; it only releases memory the allocator holds as free.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// This process's peak resident set (`VmHWM`) in MiB since the last reset.
pub fn peak_rss_mib() -> Res<f64> {
    let status = io(std::fs::read_to_string("/proc/self/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_counts_data_rows_and_depends_on_every_byte() {
        let mut a = Digest::default();
        a.csv_bytes(b"h1,h2\n1,2\n3,4\n");
        assert_eq!(a.rows, 2);
        let mut b = Digest::default();
        b.csv_bytes(b"h1,h2\n1,2\n3,5\n");
        assert_ne!(a.hash, b.hash);
        // FNV-1a 64 of "a" is a published test vector.
        let mut single = Digest::default();
        single.csv_bytes(b"a");
        assert_eq!(single.hash, 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mib().unwrap() > 1.0);
        reset_peak_rss();
        assert!(peak_rss_mib().unwrap() > 1.0);
    }
}
