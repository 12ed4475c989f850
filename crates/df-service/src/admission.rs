//! Bounded, tenant-fair admission control for the shared engine.
//!
//! [`FairGate`] implements [`StatementGate`]: every engine execution any tenant
//! session performs first takes one of `max_concurrent` slots. When the slots are
//! busy the statement waits in a *per-tenant* queue, and freed slots are granted
//! **round-robin across tenants** — a tenant that bursts fifty statements cannot
//! starve a tenant that submitted one, because each rotation turn takes exactly one
//! ticket from the next tenant with queued work (FIFO within the tenant, fair
//! across tenants). This is the queueing half of Helland's owner/worker split: the
//! gate owns who runs, the executor pool owns how.
//!
//! Refusals are typed, and the distinction matters to clients:
//!
//! * queue full or service draining → [`DfError::Admission`] — nothing was started,
//!   back off and retry (or reconnect elsewhere);
//! * queue wait exceeded the configured timeout → [`DfError::Cancelled`] — the
//!   statement was accepted and then abandoned, like any other cancellation.
//!
//! Like the result cache, blocking uses `std::sync::{Mutex, Condvar}` (the vendored
//! `parking_lot` shim has no `Condvar`); poisoning is recovered, not propagated.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use df_engine::session::StatementGate;
use df_types::error::{DfError, DfResult};

/// Queue key for sessions without a tenant label.
const UNTENANTED: &str = "(untenanted)";

struct GateState {
    /// Statements currently holding an execution slot.
    active: usize,
    /// Tickets currently waiting across all tenant queues.
    queued: usize,
    /// Draining for shutdown: all new admissions (and queued waiters) refuse.
    draining: bool,
    next_ticket: u64,
    /// FIFO of waiting tickets per tenant.
    queues: HashMap<String, VecDeque<u64>>,
    /// Round-robin rotation over tenants with queued work.
    rotation: VecDeque<String>,
    /// Tickets granted a slot, awaiting pickup by their parked waiter.
    granted: HashSet<u64>,
    admitted: u64,
    queued_grants: u64,
    rejected_full: u64,
    rejected_draining: u64,
    timed_out: u64,
    peak_active: usize,
    max_queue_depth: usize,
}

impl GateState {
    /// Grant freed slots to queued tickets, one tenant per rotation turn.
    fn pump(&mut self, slots: usize) {
        while self.active < slots && self.queued > 0 {
            let Some(tenant) = self.rotation.pop_front() else {
                break;
            };
            let Some(queue) = self.queues.get_mut(&tenant) else {
                continue;
            };
            let Some(ticket) = queue.pop_front() else {
                self.queues.remove(&tenant);
                continue;
            };
            if queue.is_empty() {
                self.queues.remove(&tenant);
            } else {
                // The tenant goes to the back of the rotation: one grant per turn.
                self.rotation.push_back(tenant);
            }
            self.queued -= 1;
            self.granted.insert(ticket);
            self.queued_grants += 1;
            self.take_slot();
        }
    }

    fn take_slot(&mut self) {
        self.active += 1;
        self.admitted += 1;
        self.peak_active = self.peak_active.max(self.active);
    }

    /// Remove `ticket` from `tenant`'s queue (timeout / drain abandonment).
    fn abandon(&mut self, tenant: &str, ticket: u64) {
        if let Some(queue) = self.queues.get_mut(tenant) {
            if let Some(position) = queue.iter().position(|&t| t == ticket) {
                queue.remove(position);
                self.queued -= 1;
                if queue.is_empty() {
                    self.queues.remove(tenant);
                }
            }
        }
    }
}

/// Point-in-time admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Execution slots granted (fast path and queued grants alike).
    pub admitted: u64,
    /// Of [`AdmissionStats::admitted`], how many had to wait in the queue first.
    pub queued_grants: u64,
    /// Statements refused because the run queue was full.
    pub rejected_full: u64,
    /// Statements refused because the service was draining.
    pub rejected_draining: u64,
    /// Queued statements abandoned after exceeding the queue-wait timeout.
    pub timed_out: u64,
    /// Highest concurrent slot occupancy observed.
    pub peak_active: usize,
    /// Deepest total queue observed.
    pub max_queue_depth: usize,
    /// Slots held right now.
    pub active_now: usize,
    /// Tickets waiting right now.
    pub queued_now: usize,
}

/// The bounded, tenant-fair run queue (see the module docs).
pub struct FairGate {
    state: Mutex<GateState>,
    /// Wakes queued waiters (on grant, drain, or producer release) and the
    /// shutdown path waiting for idleness.
    turnstile: Condvar,
    slots: usize,
    queue_capacity: usize,
    queue_timeout: Duration,
}

impl FairGate {
    /// A gate with `slots` concurrent executions, at most `queue_capacity` queued
    /// statements, and `queue_timeout` as the longest any statement waits queued.
    pub(crate) fn new(slots: usize, queue_capacity: usize, queue_timeout: Duration) -> FairGate {
        FairGate {
            state: Mutex::new(GateState {
                active: 0,
                queued: 0,
                draining: false,
                next_ticket: 0,
                queues: HashMap::new(),
                rotation: VecDeque::new(),
                granted: HashSet::new(),
                admitted: 0,
                queued_grants: 0,
                rejected_full: 0,
                rejected_draining: 0,
                timed_out: 0,
                peak_active: 0,
                max_queue_depth: 0,
            }),
            turnstile: Condvar::new(),
            slots: slots.max(1),
            queue_capacity,
            queue_timeout,
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Refuse all future admissions (typed [`DfError::Admission`]) and fail every
    /// currently queued waiter the same way. Already-admitted statements keep
    /// their slots and drain normally.
    pub(crate) fn begin_drain(&self) {
        self.lock_state().draining = true;
        self.turnstile.notify_all();
    }

    /// True once [`FairGate::begin_drain`] was called.
    pub(crate) fn is_draining(&self) -> bool {
        self.lock_state().draining
    }

    /// Block until no statement holds a slot or waits queued, or until `grace`
    /// passes. Returns whether the gate is idle.
    pub(crate) fn wait_idle(&self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        let mut state = self.lock_state();
        while state.active > 0 || state.queued > 0 {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (next, _timeout) = self
                .turnstile
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
        true
    }

    /// Point-in-time counters.
    pub(crate) fn stats(&self) -> AdmissionStats {
        let state = self.lock_state();
        AdmissionStats {
            admitted: state.admitted,
            queued_grants: state.queued_grants,
            rejected_full: state.rejected_full,
            rejected_draining: state.rejected_draining,
            timed_out: state.timed_out,
            peak_active: state.peak_active,
            max_queue_depth: state.max_queue_depth,
            active_now: state.active,
            queued_now: state.queued,
        }
    }
}

impl StatementGate for FairGate {
    fn admit(&self, tenant: Option<&str>) -> DfResult<()> {
        let tenant = tenant.unwrap_or(UNTENANTED).to_string();
        let mut state = self.lock_state();
        if state.draining {
            state.rejected_draining += 1;
            return Err(DfError::Admission(
                "service is draining for shutdown".to_string(),
            ));
        }
        // Fast path only when nobody is queued — queued tickets may not be barged.
        if state.active < self.slots && state.queued == 0 {
            state.take_slot();
            return Ok(());
        }
        if state.queued >= self.queue_capacity {
            state.rejected_full += 1;
            return Err(DfError::Admission(format!(
                "run queue full ({} queued, capacity {})",
                state.queued, self.queue_capacity
            )));
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queued += 1;
        state.max_queue_depth = state.max_queue_depth.max(state.queued);
        if !state.queues.contains_key(&tenant) {
            state.rotation.push_back(tenant.clone());
        }
        state
            .queues
            .entry(tenant.clone())
            .or_default()
            .push_back(ticket);
        state.pump(self.slots);
        let deadline = Instant::now() + self.queue_timeout;
        loop {
            if state.granted.remove(&ticket) {
                // The slot was already taken on our behalf by pump().
                return Ok(());
            }
            if state.draining {
                state.abandon(&tenant, ticket);
                state.rejected_draining += 1;
                drop(state);
                self.turnstile.notify_all();
                return Err(DfError::Admission(
                    "service is draining for shutdown".to_string(),
                ));
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                state.abandon(&tenant, ticket);
                state.timed_out += 1;
                drop(state);
                self.turnstile.notify_all();
                return Err(DfError::Cancelled(format!(
                    "queue wait exceeded {:?} (tenant {tenant:?})",
                    self.queue_timeout
                )));
            };
            let (next, _timeout) = self
                .turnstile
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
    }

    fn release(&self) {
        let mut state = self.lock_state();
        state.active = state.active.saturating_sub(1);
        state.pump(self.slots);
        drop(state);
        self.turnstile.notify_all();
    }
}

impl std::fmt::Debug for FairGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("FairGate")
            .field("slots", &self.slots)
            .field("queue_capacity", &self.queue_capacity)
            .field("active", &stats.active_now)
            .field("queued", &stats.queued_now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn wait_for_queued(gate: &FairGate, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while gate.stats().queued_now < n {
            assert!(Instant::now() < deadline, "queue never reached depth {n}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn fast_path_admits_up_to_slots() {
        let gate = FairGate::new(2, 4, Duration::from_secs(5));
        gate.admit(Some("a")).unwrap();
        gate.admit(Some("b")).unwrap();
        assert_eq!(gate.stats().active_now, 2);
        gate.release();
        gate.release();
        assert_eq!(gate.stats().active_now, 0);
        assert_eq!(gate.stats().admitted, 2);
        assert_eq!(gate.stats().peak_active, 2);
    }

    #[test]
    fn queue_full_refuses_typed_without_queueing() {
        let gate = Arc::new(FairGate::new(1, 1, Duration::from_secs(30)));
        gate.admit(Some("holder")).unwrap();
        let queued = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.admit(Some("queued")))
        };
        wait_for_queued(&gate, 1);
        // The queue (capacity 1) is now full: the next arrival is turned away.
        let err = gate.admit(Some("late")).unwrap_err();
        assert!(err.is_admission(), "{err}");
        assert!(err.to_string().contains("queue full"), "{err}");
        gate.release();
        queued.join().unwrap().unwrap();
        gate.release();
        assert_eq!(gate.stats().rejected_full, 1);
    }

    #[test]
    fn queue_wait_timeout_surfaces_cancelled() {
        let gate = Arc::new(FairGate::new(1, 4, Duration::from_millis(50)));
        gate.admit(Some("holder")).unwrap();
        let err = gate.admit(Some("impatient")).unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert!(err.to_string().contains("queue wait"), "{err}");
        assert_eq!(gate.stats().timed_out, 1);
        gate.release();
        // The gate stays healthy after a timeout.
        gate.admit(Some("next")).unwrap();
        gate.release();
    }

    #[test]
    fn grants_rotate_round_robin_across_tenants_not_fifo() {
        let gate = Arc::new(FairGate::new(1, 16, Duration::from_secs(30)));
        gate.admit(Some("holder")).unwrap();
        let order = Arc::new(Mutex::new(Vec::<String>::new()));
        let mut waiters = Vec::new();
        // Three tickets for tenant "burst" enqueue first, then one for "light":
        // strict FIFO would run light last; round-robin runs it second.
        for (i, tenant) in [(0, "burst"), (1, "burst"), (2, "burst"), (3, "light")] {
            let worker_gate = Arc::clone(&gate);
            let order = Arc::clone(&order);
            let name = tenant.to_string();
            waiters.push(std::thread::spawn(move || {
                worker_gate.admit(Some(&name)).unwrap();
                order
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(format!("{name}-{i}"));
                worker_gate.release();
            }));
            wait_for_queued(&gate, i + 1);
        }
        gate.release();
        for waiter in waiters {
            waiter.join().unwrap();
        }
        let order = order.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], "burst-0", "{order:?}");
        assert_eq!(
            order[1], "light-3",
            "round-robin must serve the light tenant before the burst backlog: {order:?}"
        );
        assert!(gate.wait_idle(Duration::from_secs(5)));
    }

    #[test]
    fn draining_refuses_new_and_queued_statements() {
        let gate = Arc::new(FairGate::new(1, 8, Duration::from_secs(30)));
        gate.admit(Some("running")).unwrap();
        let queued = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.admit(Some("queued")))
        };
        wait_for_queued(&gate, 1);
        gate.begin_drain();
        // The queued waiter fails typed; the running statement keeps its slot.
        let err = queued.join().unwrap().unwrap_err();
        assert!(err.is_admission(), "{err}");
        let err = gate.admit(Some("new")).unwrap_err();
        assert!(err.is_admission(), "{err}");
        assert!(!gate.wait_idle(Duration::from_millis(50)), "still running");
        gate.release();
        assert!(gate.wait_idle(Duration::from_secs(5)));
        assert_eq!(gate.stats().rejected_draining, 2);
    }
}
