//! The process-parallel worker backend.
//!
//! [`ProcBackend`] keeps a lazily-grown pool of up to N spawned `df-band-worker`
//! processes and ships [`BandTask`]s to them over stdin/stdout pipes. The wire
//! payload for every band is the spill store's block frame
//! ([`df_storage::wire`]), so cross-process exchange inherits the spill format's
//! corruption detection verbatim — a flipped bit in transit fails the FNV-64
//! checksum exactly as a flipped bit on disk does.
//!
//! ## Failure model
//!
//! Faults split into two planes, distinguished by the exchange's nested result:
//!
//! * **Transport faults** (the pipe broke, the worker died, a frame failed its
//!   checksum): the worker is discarded (killed, waited, slot freed) and — since
//!   band tasks are pure functions of their inputs — the exchange is retried
//!   once on a fresh worker. A second transport fault surfaces as the typed
//!   error ([`DfError::WorkerLost`] / [`DfError::SpillCorruption`]); the engine's
//!   retry/recompute layer above can still recover the statement. Never a hang.
//! * **Task faults** (the task itself returned an error, or panicked in the
//!   worker): the worker stays healthy and is returned to the pool; the decoded
//!   error is returned without retry, exactly as the thread backend would.
//!
//! The `backend.exchange` failpoint makes both planes chaos-testable with the
//! deterministic df-types registry: `missing` kills the checked-out worker before
//! the exchange (exercising real death detection), `corrupt` mangles the received
//! response frame before decode (exercising the real checksum), `panic` panics in
//! the driver's task (exercising the executor's panic isolation), and the I/O kinds
//! surface as typed spill errors.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use df_core::dataframe::DataFrame;
use df_storage::spill::{self, StoredPart};
use df_storage::wire;
use df_types::backend::BackendKind;
use df_types::fail::{self, FailAction};
use df_types::{DfError, DfResult};

use super::{BackendHealth, BandTask, ExecBackend, EXCHANGE_SITE};

/// One pooled worker process with its pipe endpoints.
struct Worker {
    id: usize,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Kill the process and reap it. Best-effort: a worker that already exited
    /// is fine.
    fn destroy(mut self) {
        drop(self.stdin);
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pool bookkeeping behind the mutex: parked idle workers plus the live count
/// (idle + checked out), which bounds spawning.
#[derive(Default)]
struct PoolState {
    idle: Vec<Worker>,
    live: usize,
}

/// The process-parallel backend (see the module docs for the protocol and the
/// failure model).
pub struct ProcBackend {
    workers: usize,
    bin: PathBuf,
    state: Mutex<PoolState>,
    available: Condvar,
    next_id: AtomicU64,
    workers_spawned: AtomicU64,
    restarts: AtomicU64,
    tasks_remote: AtomicU64,
    tasks_local: AtomicU64,
}

impl ProcBackend {
    /// A process backend with `workers` worker processes, spawning the
    /// `df-band-worker` binary found by `super::resolve_worker_bin`. Fails with
    /// a typed [`DfError::Unsupported`] when the binary cannot be located — a
    /// configuration that asked for process parallelism must never silently run
    /// on threads instead.
    pub fn new(workers: usize) -> DfResult<Self> {
        let bin = super::resolve_worker_bin()?;
        Ok(ProcBackend {
            workers: workers.max(1),
            bin,
            state: Mutex::new(PoolState::default()),
            available: Condvar::new(),
            next_id: AtomicU64::new(0),
            workers_spawned: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            tasks_remote: AtomicU64::new(0),
            tasks_local: AtomicU64::new(0),
        })
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, PoolState> {
        // Pool state holds no invariant a panicking holder could half-apply that
        // later holders cannot tolerate; recover from poisoning.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take an idle worker, spawn a fresh one while under capacity, or wait for a
    /// checkin. `was_restart` marks respawns after a discard (health accounting).
    fn checkout(&self) -> DfResult<Worker> {
        let mut state = self.lock_state();
        loop {
            if let Some(worker) = state.idle.pop() {
                return Ok(worker);
            }
            if state.live < self.workers {
                state.live += 1;
                drop(state);
                return self.spawn().map_err(|err| {
                    self.lock_state().live -= 1;
                    self.available.notify_one();
                    err
                });
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn checkin(&self, worker: Worker) {
        self.lock_state().idle.push(worker);
        self.available.notify_one();
    }

    /// Kill a faulted worker and free its pool slot.
    fn discard(&self, worker: Worker) {
        worker.destroy();
        self.lock_state().live -= 1;
        self.available.notify_one();
    }

    fn spawn(&self) -> DfResult<Worker> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) as usize;
        let mut child = Command::new(&self.bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|err| {
                DfError::unsupported(format!(
                    "failed to spawn df-band-worker at {}: {err}",
                    self.bin.display()
                ))
            })?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let (stdin, stdout) = match (stdin, stdout) {
            (Some(stdin), Some(stdout)) => (stdin, stdout),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(DfError::internal("worker spawned without pipes"));
            }
        };
        let spawned_before = self.workers_spawned.fetch_add(1, Ordering::Relaxed);
        if spawned_before >= self.workers as u64 {
            // Spawns beyond the initial pool size are replacements for lost workers.
            self.restarts.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Worker {
            id,
            child,
            stdin,
            stdout: BufReader::new(stdout),
        })
    }

    /// One request/response round trip with `worker`. The nested result separates
    /// the planes: the outer `Err` is a transport fault (worker unusable), the
    /// inner `DfResult` is the task's own outcome (worker healthy either way).
    fn exchange(
        &self,
        worker: &mut Worker,
        task_raw: &[u8],
        parts: &[StoredPart],
        mangle_response: bool,
    ) -> Result<DfResult<Vec<DataFrame>>, DfError> {
        let lost = |worker: &Worker, detail: String| DfError::worker_lost(worker.id, detail);
        writeln!(worker.stdin, "T {} {}", parts.len(), task_raw.len())
            .and_then(|_| worker.stdin.write_all(task_raw))
            .map_err(|err| lost(worker, format!("request header write failed: {err}")))?;
        for part in parts {
            wire::write_framed_part(&mut worker.stdin, part, EXCHANGE_SITE)
                .map_err(|err| lost(worker, format!("request frame write failed: {err}")))?;
        }
        worker
            .stdin
            .flush()
            .map_err(|err| lost(worker, format!("request flush failed: {err}")))?;

        let mut header = String::new();
        match worker.stdout.read_line(&mut header) {
            Ok(0) => {
                return Err(lost(
                    worker,
                    "worker closed its pipe before responding".into(),
                ))
            }
            Ok(_) => {}
            Err(err) => return Err(lost(worker, format!("response read failed: {err}"))),
        }
        let mut fields = header.trim_end().split(' ');
        match (fields.next(), fields.next(), fields.next()) {
            (Some("O"), Some(n), None) => {
                let n: usize = n
                    .parse()
                    .map_err(|_| lost(worker, format!("garbled response header {header:?}")))?;
                let mut outputs = Vec::with_capacity(n);
                for _ in 0..n {
                    let mut frame = wire::read_frame_bytes(&mut worker.stdout, EXCHANGE_SITE)?
                        .ok_or_else(|| {
                            lost(worker, "worker closed its pipe mid-response".into())
                        })?;
                    if mangle_response {
                        // The `corrupt` failpoint models bit-rot on the wire: the
                        // mangled bytes go through the real checksum verification.
                        spill::mangle_payload(&mut frame);
                    }
                    let part = spill::decode_part(&frame, EXCHANGE_SITE)?;
                    outputs.push(part.into_frame());
                }
                Ok(Ok(outputs))
            }
            (Some("E"), Some(len), None) => {
                let len: usize = len
                    .parse()
                    .map_err(|_| lost(worker, format!("garbled response header {header:?}")))?;
                let mut bytes = Vec::new();
                use std::io::Read;
                (&mut worker.stdout)
                    .take(len as u64)
                    .read_to_end(&mut bytes)
                    .map_err(|err| lost(worker, format!("error response read failed: {err}")))?;
                if bytes.len() < len {
                    return Err(lost(worker, "error response truncated".into()));
                }
                let raw = String::from_utf8_lossy(&bytes);
                Ok(Err(DfError::decode_wire(&raw)))
            }
            _ => Err(lost(worker, format!("garbled response header {header:?}"))),
        }
    }
}

impl ExecBackend for ProcBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Procs
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn run_task(&self, task: &BandTask, inputs: Vec<DataFrame>) -> DfResult<Vec<DataFrame>> {
        let encoded = match task.encode() {
            Some(encoded) => encoded,
            None => {
                // Closure-bearing tasks cannot cross the process boundary; run
                // them in the driver, visibly counted as local placements.
                self.tasks_local.fetch_add(1, Ordering::Relaxed);
                return task.run(inputs);
            }
        };
        let parts: Vec<StoredPart> = inputs.into_iter().map(StoredPart::Frame).collect();
        let mut attempt = 0;
        loop {
            attempt += 1;
            let injected = fail::failpoint(EXCHANGE_SITE);
            match injected {
                // The I/O and panic kinds model driver-side faults around the
                // exchange; `into_error` panics for Panic (caught by the
                // executor's isolation boundary) and types the rest.
                Some(action @ (FailAction::IoFull | FailAction::Panic)) => {
                    return Err(action.into_error(EXCHANGE_SITE));
                }
                Some(action @ FailAction::IoTransient) if attempt > 1 => {
                    return Err(action.into_error(EXCHANGE_SITE));
                }
                Some(FailAction::IoTransient) => continue,
                _ => {}
            }
            let mut worker = self.checkout()?;
            if injected == Some(FailAction::Missing) {
                // Kill the worker under us so the exchange exercises the *real*
                // death-detection path (broken pipe / EOF), not a synthetic error.
                let _ = worker.child.kill();
                let _ = worker.child.wait();
            }
            let mangle = injected == Some(FailAction::Corrupt);
            match self.exchange(&mut worker, &encoded, &parts, mangle) {
                Ok(outcome) => {
                    self.checkin(worker);
                    self.tasks_remote.fetch_add(1, Ordering::Relaxed);
                    return outcome;
                }
                Err(transport) => {
                    self.discard(worker);
                    if attempt == 1 {
                        // Band tasks are pure: a fresh worker recomputes the same
                        // outputs, so one lost worker never fails a statement.
                        continue;
                    }
                    return Err(transport);
                }
            }
        }
    }

    fn health(&self) -> BackendHealth {
        let live = self.lock_state().live as u64;
        BackendHealth {
            workers_spawned: self.workers_spawned.load(Ordering::Relaxed),
            workers_live: live,
            restarts: self.restarts.load(Ordering::Relaxed),
            tasks_remote: self.tasks_remote.load(Ordering::Relaxed),
            tasks_local: self.tasks_local.load(Ordering::Relaxed),
        }
    }

    fn shutdown(&self) {
        let mut state = self.lock_state();
        let idle = std::mem::take(&mut state.idle);
        state.live -= idle.len();
        drop(state);
        for worker in idle {
            worker.destroy();
        }
        self.available.notify_all();
    }
}

impl Drop for ProcBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}
