//! Executor backends: where per-band tasks actually run.
//!
//! The paper's architectural waist (§3.3) is that the dataframe algebra decouples
//! the API from execution — the Python implementation swaps Ray for Dask without
//! touching the operators. [`ExecBackend`] is that waist in this codebase: the
//! engine's operator kernels describe per-band work as serialisable
//! [`BandTask`]s, and the one stage entry point,
//! [`ParallelExecutor::run_stage`](crate::executor::ParallelExecutor::run_stage),
//! hands each to the session's backend for *placement* (through
//! [`ParallelExecutor::placed`](crate::executor::ParallelExecutor::placed)) while
//! keeping *fan-out* — the thread pool, the cancellation token, panic isolation,
//! loading inputs and checking outputs into the store — to itself, shared by every
//! backend. A backend therefore sees loaded frames in and frames out, nothing else.
//!
//! Two placements ship:
//!
//! * [`ThreadsBackend`] — run the task in-process on the calling worker thread
//!   (the pre-existing behaviour, bit-for-bit).
//! * [`proc::ProcBackend`] — serialise the task and its input bands, ship them to
//!   a spawned `df-band-worker` process over a pipe protocol whose payload is the
//!   spill store's checksummed block frame ([`df_storage::wire`]), and decode the
//!   results.
//!   Worker death or a corrupted frame surfaces as a typed
//!   [`df_types::DfError`] and the pool respawns — a lost worker never hangs a
//!   statement.
//!
//! Selection is configuration, not code: `ModinConfig::with_backend` /
//! `DF_BACKEND=threads|procs` pick the implementation per engine, and every
//! operator runs unchanged on either.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use df_core::dataframe::DataFrame;
use df_storage::spill::StoredPart;
use df_storage::wire;
use df_types::backend::BackendKind;
use df_types::{DfError, DfResult};

mod proc;
mod task;

pub use proc::ProcBackend;
pub use task::BandTask;
pub(crate) use task::{enc_node, enc_plan, enc_scan_source, enc_scan_state, one, scan_state};

/// A snapshot of a backend's worker-pool health and task placement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendHealth {
    /// Worker processes spawned over the backend's lifetime (0 for threads).
    pub workers_spawned: u64,
    /// Worker processes currently alive (0 for threads).
    pub workers_live: u64,
    /// Workers respawned after being lost or discarded mid-exchange.
    pub restarts: u64,
    /// Tasks executed in another process via the wire protocol.
    pub tasks_remote: u64,
    /// Tasks executed in the driver process (all of them, for threads; the
    /// closure-bearing remainder, for procs). Stage work that never was a task — a
    /// driver-local closure — is not counted by either backend.
    pub tasks_local: u64,
}

/// Task placement: run a [`BandTask`] somewhere and return its outputs.
///
/// Implementations must be shareable across the executor's worker threads
/// (`Send + Sync`) and must never panic on worker failure — death, corruption
/// and protocol faults are typed [`DfError`]s. Cancellation stays cooperative at
/// the executor layer: a stage checks its [`df_types::CancelToken`] before every
/// item, so a cancelled statement stops submitting tasks to the backend rather
/// than interrupting one mid-flight.
pub trait ExecBackend: Send + Sync {
    /// Which backend this is (mirrors `ModinConfig::backend`).
    fn kind(&self) -> BackendKind;

    /// The worker parallelism the backend was sized for.
    fn workers(&self) -> usize;

    /// Execute one task on its input bands.
    fn run_task(&self, task: &BandTask, inputs: Vec<DataFrame>) -> DfResult<Vec<DataFrame>>;

    /// Current pool health and placement counters.
    fn health(&self) -> BackendHealth;

    /// Release pool resources (kill idle workers). Dropping the backend does the
    /// same; this exists for explicit teardown in services.
    fn shutdown(&self) {}
}

/// The in-process backend: tasks run inline on the calling thread, exactly as the
/// engine computed them before backends existed.
pub struct ThreadsBackend {
    threads: usize,
    tasks_local: AtomicU64,
}

impl ThreadsBackend {
    /// A threads backend reporting the given worker parallelism.
    pub fn new(threads: usize) -> Self {
        ThreadsBackend {
            threads: threads.max(1),
            tasks_local: AtomicU64::new(0),
        }
    }
}

impl ExecBackend for ThreadsBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Threads
    }

    fn workers(&self) -> usize {
        self.threads
    }

    fn run_task(&self, task: &BandTask, inputs: Vec<DataFrame>) -> DfResult<Vec<DataFrame>> {
        self.tasks_local.fetch_add(1, Ordering::Relaxed);
        task.run(inputs)
    }

    fn health(&self) -> BackendHealth {
        BackendHealth {
            tasks_local: self.tasks_local.load(Ordering::Relaxed),
            ..BackendHealth::default()
        }
    }
}

/// Locate the `df-band-worker` binary the process backend spawns.
///
/// Resolution order: the `DF_WORKER_BIN` environment variable (tests set it from
/// `CARGO_BIN_EXE_df-band-worker`), then next to the current executable (test
/// binaries live in `target/<profile>/deps/`, the worker one level up), then
/// `target/{debug,release}` under the current directory and each of its
/// ancestors (doctest executables run from the crate's own directory, with the
/// workspace `target/` two levels up). A missing binary is a
/// typed [`DfError::Unsupported`] — never a silent fallback to threads, because
/// a test matrix arm that asked for procs must fail loudly if it cannot get them.
pub(crate) fn resolve_worker_bin() -> DfResult<PathBuf> {
    if let Ok(explicit) = std::env::var("DF_WORKER_BIN") {
        let path = PathBuf::from(explicit);
        if path.is_file() {
            return Ok(path);
        }
        return Err(DfError::unsupported(format!(
            "DF_WORKER_BIN points at {}, which does not exist",
            path.display()
        )));
    }
    let name = format!("df-band-worker{}", std::env::consts::EXE_SUFFIX);
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            candidates.push(dir.join(&name));
            if let Some(parent) = dir.parent() {
                candidates.push(parent.join(&name));
            }
        }
    }
    if let Ok(cwd) = std::env::current_dir() {
        for dir in cwd.ancestors() {
            candidates.push(dir.join("target").join("debug").join(&name));
            candidates.push(dir.join("target").join("release").join(&name));
        }
    }
    candidates.into_iter().find(|p| p.is_file()).ok_or_else(|| {
        DfError::unsupported(
            "process backend requires the df-band-worker binary; \
                 build it with `cargo build --workspace` or set DF_WORKER_BIN",
        )
    })
}

/// The failure site every wire-protocol error is tagged with.
pub(crate) const EXCHANGE_SITE: &str = "backend.exchange";

/// The worker process's protocol loop; the `df-band-worker` binary is a thin
/// wrapper around this. Returns the process exit code.
///
/// Requests arrive on stdin as `T {n_inputs} {task_len}\n`, the task descriptor's
/// bytes, then `n_inputs` block frames; responses leave on stdout as
/// `O {n_outputs}\n` plus that many block frames, or `E {err_len}\n` plus a
/// wire-encoded [`DfError`]. The failure model keeps the driver in charge:
///
/// * clean EOF at a request boundary → exit 0 (the driver closed the pipe);
/// * any malformed or truncated request → exit 2 (stream sync is unknowable, so
///   the driver sees a lost worker and respawns);
/// * a task that returns an error or panics → an `E` response (the worker stays
///   healthy — task failure is the *driver's* error to handle, not the pool's).
pub fn worker_main() -> i32 {
    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    let stdout = std::io::stdout();
    let mut writer = stdout.lock();
    loop {
        match serve_one(&mut reader, &mut writer) {
            Ok(true) => {}
            Ok(false) => return 0,
            Err(code) => return code,
        }
    }
}

/// Serve one request. `Ok(false)` = clean EOF, `Err(code)` = protocol fault.
fn serve_one<R: std::io::BufRead, W: std::io::Write>(
    reader: &mut R,
    writer: &mut W,
) -> Result<bool, i32> {
    use std::io::Read;

    let mut header = String::new();
    match reader.read_line(&mut header) {
        Ok(0) => return Ok(false),
        Ok(_) => {}
        Err(_) => return Err(2),
    }
    let mut fields = header.trim_end().split(' ');
    let (n_inputs, task_len) = match (fields.next(), fields.next(), fields.next(), fields.next()) {
        (Some("T"), Some(n), Some(len), None) => match (n.parse::<usize>(), len.parse::<usize>()) {
            (Ok(n), Ok(len)) => (n, len),
            _ => return Err(2),
        },
        _ => return Err(2),
    };
    let mut task_raw = Vec::new();
    if reader
        .take(task_len as u64)
        .read_to_end(&mut task_raw)
        .is_err()
        || task_raw.len() < task_len
    {
        return Err(2);
    }
    let mut inputs = Vec::new();
    for _ in 0..n_inputs {
        match wire::read_framed_part(reader, EXCHANGE_SITE) {
            Ok(Some(part)) => inputs.push(part.into_frame()),
            // EOF mid-request or a frame we cannot trust our position after:
            // bail out and let the driver respawn a clean worker.
            Ok(None) | Err(_) => return Err(2),
        }
    }
    let outcome = match BandTask::decode(&task_raw) {
        Ok(task) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.run(inputs)))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(DfError::WorkerPanic(msg))
            }),
        Err(err) => Err(err),
    };
    let wrote = match outcome {
        Ok(outputs) => write_ok(writer, outputs),
        Err(err) => write_err(writer, &err),
    };
    if wrote.is_err() || writer.flush().is_err() {
        return Err(1);
    }
    Ok(true)
}

fn write_ok<W: std::io::Write>(writer: &mut W, outputs: Vec<DataFrame>) -> DfResult<()> {
    writeln!(writer, "O {}", outputs.len()).map_err(DfError::from)?;
    for frame in outputs {
        wire::write_framed_part(writer, &StoredPart::Frame(frame), EXCHANGE_SITE)?;
    }
    Ok(())
}

fn write_err<W: std::io::Write>(writer: &mut W, err: &DfError) -> DfResult<()> {
    let encoded = err.encode_wire();
    writeln!(writer, "E {}", encoded.len()).map_err(DfError::from)?;
    writer
        .write_all(encoded.as_bytes())
        .map_err(DfError::from)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell;
    use std::io::Write;

    fn frame() -> DataFrame {
        DataFrame::from_rows(
            vec![cell("a"), cell("b")],
            vec![
                vec![cell(1), cell("x")],
                vec![cell(2), cell("y")],
                vec![cell(3), cell("z")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn threads_backend_runs_tasks_inline_and_counts_them() {
        let backend = ThreadsBackend::new(2);
        assert_eq!(backend.kind(), BackendKind::Threads);
        assert_eq!(backend.workers(), 2);
        let task =
            BandTask::Projection(df_core::algebra::ColumnSelector::ByLabels(vec![cell("a")]));
        let out = backend.run_task(&task, vec![frame()]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].n_cols(), 1);
        let health = backend.health();
        assert_eq!(health.tasks_local, 1);
        assert_eq!(health.tasks_remote, 0);
        assert_eq!(health.workers_live, 0);
    }

    #[test]
    fn worker_loop_serves_requests_over_in_memory_pipes() {
        // Drive the exact protocol the driver speaks, against in-memory buffers.
        let task = BandTask::Selection(df_core::algebra::Predicate::ColCmp {
            column: cell("a"),
            op: df_core::algebra::CmpOp::Ge,
            value: cell(2),
        });
        let encoded = task.encode().unwrap();
        let mut request = Vec::new();
        writeln!(request, "T 1 {}", encoded.len()).unwrap();
        request.extend_from_slice(&encoded);
        wire::write_framed_part(&mut request, &StoredPart::Frame(frame()), EXCHANGE_SITE).unwrap();

        let mut reader = std::io::Cursor::new(request);
        let mut response = Vec::new();
        assert_eq!(serve_one(&mut reader, &mut response), Ok(true));
        // Next call sees the clean EOF.
        assert_eq!(serve_one(&mut reader, &mut response), Ok(false));

        let mut resp_reader = std::io::Cursor::new(response);
        let mut header = String::new();
        std::io::BufRead::read_line(&mut resp_reader, &mut header).unwrap();
        assert_eq!(header.trim_end(), "O 1");
        let part = wire::read_framed_part(&mut resp_reader, EXCHANGE_SITE)
            .unwrap()
            .unwrap();
        assert_eq!(part.to_frame().n_rows(), 2);
    }

    #[test]
    fn worker_loop_reports_task_errors_without_dying() {
        // A task-level failure (unknown column) must produce an E response and
        // leave the loop ready for the next request.
        let task = BandTask::Projection(df_core::algebra::ColumnSelector::ByLabels(vec![cell(
            "no-such-column",
        )]));
        let encoded = task.encode().unwrap();
        let mut request = Vec::new();
        writeln!(request, "T 1 {}", encoded.len()).unwrap();
        request.extend_from_slice(&encoded);
        wire::write_framed_part(&mut request, &StoredPart::Frame(frame()), EXCHANGE_SITE).unwrap();

        let mut reader = std::io::Cursor::new(request);
        let mut response = Vec::new();
        assert_eq!(serve_one(&mut reader, &mut response), Ok(true));

        let text = String::from_utf8(response).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        let len: usize = header.strip_prefix("E ").unwrap().parse().unwrap();
        assert_eq!(body.len(), len);
        assert!(matches!(
            DfError::decode_wire(body),
            DfError::ColumnNotFound(_)
        ));
    }

    #[test]
    fn worker_loop_rejects_malformed_requests_with_a_protocol_exit() {
        for garbage in ["X 1 4\n", "T one 4\n", "T 1\n", "T 1 999\nshort"] {
            let mut reader = std::io::Cursor::new(garbage.as_bytes().to_vec());
            let mut response = Vec::new();
            assert_eq!(serve_one(&mut reader, &mut response), Err(2), "{garbage:?}");
            assert!(response.is_empty());
        }
    }

    #[test]
    fn missing_worker_bin_is_a_typed_error() {
        // resolve_worker_bin with an explicit bogus path must not fall back.
        // (Set/unset of the env var is test-order sensitive, so use the explicit
        // branch only.)
        std::env::set_var("DF_WORKER_BIN", "/no/such/binary");
        let err = resolve_worker_bin().unwrap_err();
        std::env::remove_var("DF_WORKER_BIN");
        assert!(matches!(err, DfError::Unsupported(_)));
    }
}
