//! Shared, budget-accounted result cache with single-flight execution.
//!
//! The §6.2.2 materialisation cache started life as one session's private map from
//! statement to handle. A multi-tenant service wants the opposite: *one*
//! cache in front of the shared engine so identical statements from different
//! tenants execute once and everybody hits. [`ResultCache`] is that cache, designed
//! around three invariants the service stress suite pins:
//!
//! * **Single-flight** — the first session to miss a [`PlanKey`], or to submit it
//!   opportunistically, becomes its *producer* (the key is marked in-flight); any
//!   other request for the same key blocks on the pending execution instead
//!   of re-executing, and is served the producer's handle when it lands. The
//!   in-flight marker is the only record of a running statement. If the producer
//!   fails or is cancelled, its marker is withdrawn and the waiters race to become
//!   the new producer — an error never wedges a key.
//! * **Budget accounting** — every entry is costed via
//!   [`FrameHandle::approx_size_bytes`] (metadata only, spilled grids are costed
//!   from check-in sizes without load-backs) and the cache evicts
//!   least-recently-used entries past its byte budget. In-flight markers hold no
//!   bytes and are never evicted — a pending run always survives to completion.
//! * **Per-tenant attribution and quotas** — hits, productions and retained bytes
//!   are attributed to the tenant that caused them, and a tenant's retained bytes
//!   can be capped: past the quota its own least-recently-used entries are evicted
//!   first, and a single result too large for the quota is rejected with a typed
//!   [`DfError::ResourceExhausted`] so one tenant's appetite cannot crowd the
//!   shared budget.
//!
//! A key names literal, handle and closure leaves by address and holds the plan that
//! owns them, so an entry keeps exactly the allocations its key names alive, and
//! eviction drops key and result together. An entry never holds the plan that
//! *produced* it (which may rest on an ancestor's cached handle), so evicting that
//! ancestor frees its partitions.
//!
//! Blocking uses `std::sync` primitives (the workspace's vendored `parking_lot`
//! shim deliberately has no `Condvar`); lock poisoning is impossible in practice —
//! no user code runs under the lock — and is recovered with
//! [`PoisonError::into_inner`] rather than propagated.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use df_core::handle::FrameHandle;
use df_types::error::{DfError, DfResult};

use crate::PlanKey;

/// One ready entry: the computed handle and the accounting the budget/quota
/// policies run on.
struct ReadyEntry {
    handle: FrameHandle,
    bytes: usize,
    last_used: u64,
    /// The tenant whose execution produced this entry (`None` for an untenanted
    /// session). Hits from any *other* tenant count as shared hits.
    producer: Option<String>,
}

/// A key's state: computed, or being computed by exactly one producer.
enum Slot {
    Ready(ReadyEntry),
    InFlight,
}

/// Per-tenant attribution and quota state.
#[derive(Default)]
struct TenantState {
    hits: u64,
    produced: u64,
    retained_bytes: usize,
    quota: Option<usize>,
}

struct CacheInner {
    slots: HashMap<PlanKey, Slot>,
    budget: Option<usize>,
    /// Total bytes across Ready entries (in-flight markers are weightless).
    bytes: usize,
    /// LRU clock; bumped on every insert and hit.
    tick: u64,
    evictions: u64,
    hits: u64,
    shared_hits: u64,
    single_flight_waits: u64,
    quota_rejections: u64,
    tenants: HashMap<String, TenantState>,
}

impl CacheInner {
    /// Bump the clock and return the fresh tick.
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Remove a Ready entry (leaving in-flight markers untouched), releasing its
    /// byte accounting. Returns whether an entry was removed.
    fn remove_ready(&mut self, key: &[u8]) -> bool {
        if !matches!(self.slots.get(key), Some(Slot::Ready(_))) {
            return false;
        }
        if let Some(Slot::Ready(entry)) = self.slots.remove(key) {
            self.bytes = self.bytes.saturating_sub(entry.bytes);
            if let Some(producer) = &entry.producer {
                if let Some(tenant) = self.tenants.get_mut(producer) {
                    tenant.retained_bytes = tenant.retained_bytes.saturating_sub(entry.bytes);
                }
            }
            return true;
        }
        false
    }

    /// The least-recently-used Ready key, optionally restricted to one producing
    /// tenant, excluding `exclude` (the entry being inserted).
    fn lru_victim(&self, exclude: &PlanKey, tenant_only: Option<&str>) -> Option<PlanKey> {
        self.slots
            .iter()
            .filter_map(|(key, slot)| match slot {
                Slot::Ready(entry) if key != exclude => match tenant_only {
                    Some(t) => (entry.producer.as_deref() == Some(t))
                        .then(|| (entry.last_used, key.clone())),
                    None => Some((entry.last_used, key.clone())),
                },
                _ => None,
            })
            .min_by_key(|(last_used, _)| *last_used)
            .map(|(_, key)| key)
    }

    /// Evict LRU entries until the global budget holds again. The entry just
    /// inserted under `keep_longest` is the last resort: a single result larger
    /// than the whole budget is returned to its caller but not retained.
    fn enforce_budget(&mut self, keep_longest: &PlanKey) {
        let Some(budget) = self.budget else { return };
        while self.bytes > budget {
            match self.lru_victim(keep_longest, None) {
                Some(victim) => {
                    self.remove_ready(victim.bytes());
                    self.evictions += 1;
                }
                None => {
                    if self.remove_ready(keep_longest.bytes()) {
                        self.evictions += 1;
                    }
                    break;
                }
            }
        }
    }

    /// Retained bytes currently attributed to `tenant`.
    fn retained(&self, tenant: &str) -> usize {
        self.tenants
            .get(tenant)
            .map(|t| t.retained_bytes)
            .unwrap_or(0)
    }

    /// Insert a Ready entry under `key`, enforcing the producing tenant's quota
    /// (own-LRU eviction first, typed rejection when the single result cannot fit)
    /// and then the global budget.
    fn insert_ready(
        &mut self,
        key: &PlanKey,
        handle: FrameHandle,
        producer: Option<&str>,
    ) -> DfResult<()> {
        let bytes = handle.approx_size_bytes();
        self.remove_ready(key.bytes());
        if let Some(tenant) = producer {
            let quota = self.tenants.get(tenant).and_then(|t| t.quota);
            if let Some(quota) = quota {
                // A tenant over its own quota evicts *its own* least-recently-used
                // entries first — never another tenant's.
                while self.retained(tenant) + bytes > quota {
                    let Some(victim) = self.lru_victim(key, Some(tenant)) else {
                        break;
                    };
                    self.remove_ready(victim.bytes());
                    self.evictions += 1;
                }
                if self.retained(tenant) + bytes > quota {
                    self.quota_rejections += 1;
                    return Err(DfError::ResourceExhausted(format!(
                        "tenant {tenant:?} memory quota exceeded: \
                         {bytes} byte result against a {quota} byte quota"
                    )));
                }
            }
        }
        let last_used = self.next_tick();
        self.bytes += bytes;
        if let Some(tenant) = producer {
            let state = self.tenants.entry(tenant.to_string()).or_default();
            state.retained_bytes += bytes;
            state.produced += 1;
        }
        self.slots.insert(
            key.clone(),
            Slot::Ready(ReadyEntry {
                handle,
                bytes,
                last_used,
                producer: producer.map(String::from),
            }),
        );
        self.enforce_budget(key);
        Ok(())
    }

    /// Record a hit by `tenant` on a Ready entry (bumps recency and attribution).
    fn note_hit(&mut self, key: &PlanKey, tenant: Option<&str>) -> Option<FrameHandle> {
        let tick = self.next_tick();
        let Some(Slot::Ready(entry)) = self.slots.get_mut(key) else {
            return None;
        };
        entry.last_used = tick;
        let handle = entry.handle.clone();
        let shared = entry.producer.as_deref() != tenant;
        self.hits += 1;
        if shared {
            self.shared_hits += 1;
        }
        if let Some(tenant) = tenant {
            self.tenants.entry(tenant.to_string()).or_default().hits += 1;
        }
        Some(handle)
    }
}

/// Result of [`ResultCache::begin`]: either a ready handle, or this caller is the
/// key's producer and must execute (then [`FlightGuard::complete`] or drop).
pub(crate) enum Lookup {
    /// The key was cached (possibly after waiting out another tenant's pending
    /// execution of it).
    Hit(FrameHandle),
    /// The key was absent: the caller is now its single-flight producer.
    Miss(FlightGuard),
}

/// The producer's claim on an in-flight key. [`FlightGuard::complete`] publishes
/// the computed handle and wakes every waiter; dropping the guard without
/// completing (execution failed or was cancelled) withdraws the claim and wakes
/// the waiters to race for a retry — so a failed producer never wedges a key.
pub(crate) struct FlightGuard {
    cache: Arc<ResultCache>,
    key: PlanKey,
    tenant: Option<String>,
    completed: bool,
}

impl FlightGuard {
    /// Publish the produced handle under the claimed key. Fails typed when the
    /// producing tenant's quota cannot fit the result — the handle is then *not*
    /// retained and the statement surfaces the quota error. A scan key names its
    /// file's state, so a published bare CSV scan supersedes every scan of the same
    /// file and parse options at another state, pushdowns or not: those entries are
    /// evicted, and re-reading a regenerated file leaves no stale grid pinned. Scans
    /// of the published file state stay cached.
    pub(crate) fn complete(mut self, handle: FrameHandle) -> DfResult<()> {
        self.completed = true;
        let cache = Arc::clone(&self.cache);
        let mut inner = cache.lock_inner();
        if matches!(inner.slots.get(&self.key), Some(Slot::InFlight)) {
            inner.slots.remove(&self.key);
        }
        let result = inner.insert_ready(&self.key, handle, self.tenant.as_deref());
        drop(inner);
        cache.ready.notify_all();
        if let (Ok(()), Some((source, state))) = (&result, self.key.scan_prefixes()) {
            cache.evict_where(|key| key.starts_with(&source) && !key.starts_with(&state));
        }
        result
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        let mut inner = self.cache.lock_inner();
        if matches!(inner.slots.get(&self.key), Some(Slot::InFlight)) {
            inner.slots.remove(&self.key);
        }
        drop(inner);
        // Waiters re-check the key: one becomes the new producer.
        self.cache.ready.notify_all();
    }
}

/// Point-in-time cache counters (global plus per-tenant attribution).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ready entries currently held.
    pub entries: usize,
    /// Bytes currently retained across entries.
    pub bytes: usize,
    /// The byte budget, when bounded.
    pub budget: Option<usize>,
    /// Entries evicted by budget or quota pressure (not explicit `evict` calls).
    pub evictions: u64,
    /// Hits served (first-try and after a single-flight wait alike).
    pub hits: u64,
    /// Hits where the hitting tenant differs from the producing tenant — the
    /// cross-session sharing the service exists for.
    pub shared_hits: u64,
    /// Times a caller blocked on another caller's pending execution instead of
    /// re-executing.
    pub single_flight_waits: u64,
    /// Results rejected because the producing tenant's quota could not fit them.
    pub quota_rejections: u64,
    /// Per-tenant attribution, sorted by tenant name.
    pub tenants: Vec<(String, TenantCacheStats)>,
}

/// One tenant's slice of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCacheStats {
    /// Hits this tenant was served.
    pub hits: u64,
    /// Entries this tenant's executions produced.
    pub produced: u64,
    /// Bytes currently retained for entries this tenant produced.
    pub retained_bytes: usize,
    /// This tenant's retained-bytes quota, when capped.
    pub quota: Option<usize>,
}

/// The shared [`PlanKey`]-keyed result cache (see the module docs for the
/// single-flight / budget / quota invariants).
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    ready: Condvar,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new()
    }
}

impl ResultCache {
    /// An unbounded cache (the single-session default — same retention behaviour
    /// the private per-session map had).
    pub(crate) fn new() -> Self {
        ResultCache::with_budget(None)
    }

    /// A cache bounded to `budget` bytes (`None` = unbounded), costed via
    /// [`FrameHandle::approx_size_bytes`] and evicted LRU-first.
    pub fn with_budget(budget: Option<usize>) -> Self {
        ResultCache {
            inner: Mutex::new(CacheInner {
                slots: HashMap::new(),
                budget,
                bytes: 0,
                tick: 0,
                evictions: 0,
                hits: 0,
                shared_hits: 0,
                single_flight_waits: 0,
                quota_rejections: 0,
                tenants: HashMap::new(),
            }),
            ready: Condvar::new(),
        }
    }

    fn lock_inner(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cap (or uncap) the retained bytes attributed to `tenant`. Applies to
    /// future insertions; existing entries are not retroactively evicted.
    pub fn set_tenant_quota(&self, tenant: &str, quota: Option<usize>) {
        self.lock_inner()
            .tenants
            .entry(tenant.to_string())
            .or_default()
            .quota = quota;
    }

    /// Serve-or-claim `key` for `tenant`: a Ready entry is a [`Lookup::Hit`]; an
    /// in-flight entry blocks until its producer publishes or withdraws (counted
    /// as a single-flight wait); an absent entry makes this caller the producer
    /// and returns a [`Lookup::Miss`] guard.
    pub(crate) fn begin(self: &Arc<Self>, key: &PlanKey, tenant: Option<&str>) -> Lookup {
        let mut inner = self.lock_inner();
        loop {
            if let Some(handle) = inner.note_hit(key, tenant) {
                return Lookup::Hit(handle);
            }
            if let Some(flight) = self.claim_in(&mut inner, key, tenant) {
                return Lookup::Miss(flight);
            }
            inner.single_flight_waits += 1;
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Claim `key`'s flight without blocking and without counting anything:
    /// `None` when the key is Ready or already in flight. An opportunistic submit
    /// uses this to start a background run only when nobody has produced, or is
    /// producing, the result.
    pub(crate) fn claim(
        self: &Arc<Self>,
        key: &PlanKey,
        tenant: Option<&str>,
    ) -> Option<FlightGuard> {
        self.claim_in(&mut self.lock_inner(), key, tenant)
    }

    fn claim_in(
        self: &Arc<Self>,
        inner: &mut CacheInner,
        key: &PlanKey,
        tenant: Option<&str>,
    ) -> Option<FlightGuard> {
        if inner.slots.contains_key(key) {
            return None;
        }
        inner.slots.insert(key.clone(), Slot::InFlight);
        Some(FlightGuard {
            cache: Arc::clone(self),
            key: key.clone(),
            tenant: tenant.map(String::from),
            completed: false,
        })
    }

    /// Non-blocking hit: serve a Ready entry (counting the hit), or `None` —
    /// including for in-flight keys, which callers on inspection paths (head/
    /// tail) deliberately do not wait on.
    pub(crate) fn lookup(&self, key: &PlanKey, tenant: Option<&str>) -> Option<FrameHandle> {
        self.lock_inner().note_hit(key, tenant)
    }

    /// Observational peek: the cached handle without touching any counter or
    /// recency state (plan rebasing and `explain` use this). Takes a key's bytes, so
    /// a sub-plan is looked up without building its key.
    pub(crate) fn peek(&self, key: &[u8]) -> Option<FrameHandle> {
        match self.lock_inner().slots.get(key) {
            Some(Slot::Ready(entry)) => Some(entry.handle.clone()),
            _ => None,
        }
    }

    /// Drop one Ready entry (quarantine / invalidation). In-flight markers are
    /// owned by their producer's guard and never removed here.
    pub(crate) fn evict(&self, key: &[u8]) {
        self.lock_inner().remove_ready(key);
    }

    /// Drop every Ready entry (in-flight markers survive to completion).
    pub fn clear(&self) {
        self.evict_where(|_| true);
    }

    fn evict_where(&self, stale: impl Fn(&PlanKey) -> bool) {
        let mut inner = self.lock_inner();
        let keys: Vec<PlanKey> = inner
            .slots
            .iter()
            .filter_map(|(key, slot)| match slot {
                Slot::Ready(_) if stale(key) => Some(key.clone()),
                _ => None,
            })
            .collect();
        for key in keys {
            inner.remove_ready(key.bytes());
        }
    }

    /// Number of Ready entries.
    pub(crate) fn len(&self) -> usize {
        self.lock_inner()
            .slots
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// Point-in-time counters, per-tenant attribution sorted by name.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock_inner();
        let mut tenants: Vec<(String, TenantCacheStats)> = inner
            .tenants
            .iter()
            .map(|(name, state)| {
                (
                    name.clone(),
                    TenantCacheStats {
                        hits: state.hits,
                        produced: state.produced,
                        retained_bytes: state.retained_bytes,
                        quota: state.quota,
                    },
                )
            })
            .collect();
        tenants.sort_by(|a, b| a.0.cmp(&b.0));
        CacheStats {
            entries: inner
                .slots
                .values()
                .filter(|slot| matches!(slot, Slot::Ready(_)))
                .count(),
            bytes: inner.bytes,
            budget: inner.budget,
            evictions: inner.evictions,
            hits: inner.hits,
            shared_hits: inner.shared_hits,
            single_flight_waits: inner.single_flight_waits,
            quota_rejections: inner.quota_rejections,
            tenants,
        }
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResultCache")
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .field("budget", &stats.budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::algebra::AlgebraExpr;
    use df_core::dataframe::DataFrame;
    use df_core::{ScanCsv, ScanOptions};
    use df_types::cell::cell;

    /// A key with no addresses in it: equal for equal names.
    fn k(name: &str) -> PlanKey {
        PlanKey::of(&AlgebraExpr::scan_csv(ScanCsv::new(
            name,
            ScanOptions::default(),
            name,
        )))
    }

    fn handle(rows: usize) -> FrameHandle {
        FrameHandle::from_dataframe(
            DataFrame::from_columns(vec!["v"], vec![(0..rows).map(|i| cell(i as i64)).collect()])
                .unwrap(),
        )
    }

    #[test]
    fn begin_miss_then_hit_round_trips() {
        let cache = Arc::new(ResultCache::new());
        let Lookup::Miss(guard) = cache.begin(&k("k"), Some("a")) else {
            panic!("empty cache must miss");
        };
        let produced = handle(4);
        guard.complete(produced.clone()).unwrap();
        let Lookup::Hit(hit) = cache.begin(&k("k"), Some("b")) else {
            panic!("completed key must hit");
        };
        assert_eq!(hit.identity(), produced.identity());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.shared_hits, 1, "b hit a's entry");
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn waiters_block_on_the_flight_and_share_one_execution() {
        let cache = Arc::new(ResultCache::new());
        let Lookup::Miss(guard) = cache.begin(&k("k"), Some("producer")) else {
            panic!("first caller must be the producer");
        };
        let produced = handle(8);
        let waiters: Vec<_> = (0..4)
            .map(|i| {
                let cache = Arc::clone(&cache);
                let name = format!("waiter-{i}");
                std::thread::spawn(move || match cache.begin(&k("k"), Some(&name)) {
                    Lookup::Hit(h) => h.identity() as usize,
                    Lookup::Miss(_) => panic!("waiter must not become a producer"),
                })
            })
            .collect();
        // Give the waiters real time to park on the in-flight key.
        std::thread::sleep(std::time::Duration::from_millis(100));
        guard.complete(produced.clone()).unwrap();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), produced.identity() as usize);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.shared_hits, 4);
        assert!(stats.single_flight_waits >= 4, "{stats:?}");
    }

    #[test]
    fn claims_never_block_or_count_and_begin_waits_on_them() {
        let cache = Arc::new(ResultCache::new());
        let flight = cache
            .claim(&k("k"), Some("bg"))
            .expect("absent key is claimable");
        assert!(
            cache.claim(&k("k"), Some("other")).is_none(),
            "already in flight"
        );
        assert_eq!(cache.stats().single_flight_waits, 0, "claims count nothing");
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.begin(&k("k"), Some("fg")) {
                Lookup::Hit(h) => h.identity() as usize,
                Lookup::Miss(_) => panic!("a claimed key must be waited on"),
            })
        };
        // Publish only once the waiter is parked on the claimed key.
        while cache.stats().single_flight_waits == 0 {
            std::thread::yield_now();
        }
        let produced = handle(4);
        flight.complete(produced.clone()).unwrap();
        assert_eq!(waiter.join().unwrap(), produced.identity() as usize);
        assert!(
            cache.claim(&k("k"), None).is_none(),
            "a Ready key is not claimable"
        );
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits), (1, 1), "{stats:?}");
        assert_eq!(stats.tenants[0].0, "bg");
        assert_eq!(stats.tenants[0].1.produced, 1);
    }

    #[test]
    fn abandoned_flights_hand_the_key_to_a_waiter() {
        let cache = Arc::new(ResultCache::new());
        let Lookup::Miss(guard) = cache.begin(&k("k"), None) else {
            panic!("first caller must be the producer");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.begin(&k("k"), None) {
                Lookup::Miss(guard) => {
                    guard.complete(handle(2)).unwrap();
                    true
                }
                Lookup::Hit(_) => false,
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        drop(guard); // producer failed: the claim is withdrawn
        assert!(
            waiter.join().unwrap(),
            "the waiter must inherit the producer role"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_the_budget_and_counts() {
        let unit = handle(16).approx_size_bytes();
        let cache = Arc::new(ResultCache::with_budget(Some(unit * 2 + unit / 2)));
        for key in ["a", "b", "c"] {
            let Lookup::Miss(guard) = cache.begin(&k(key), None) else {
                panic!("fresh key must miss");
            };
            guard.complete(handle(16)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "{stats:?}");
        assert_eq!(stats.evictions, 1, "{stats:?}");
        assert!(stats.bytes <= unit * 2 + unit / 2);
        // "a" was least recently used.
        assert!(cache.peek(k("a").bytes()).is_none());
        assert!(cache.peek(k("b").bytes()).is_some() && cache.peek(k("c").bytes()).is_some());
        // A hit on "b" refreshes it, so the next insert evicts "c".
        assert!(cache.lookup(&k("b"), None).is_some());
        let Lookup::Miss(guard) = cache.begin(&k("d"), None) else {
            panic!("fresh key must miss");
        };
        guard.complete(handle(16)).unwrap();
        assert!(cache.peek(k("b").bytes()).is_some());
        assert!(cache.peek(k("c").bytes()).is_none());
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_returned_but_not_retained() {
        let unit = handle(64).approx_size_bytes();
        let cache = Arc::new(ResultCache::with_budget(Some(unit / 2)));
        let Lookup::Miss(guard) = cache.begin(&k("big"), None) else {
            panic!("fresh key must miss");
        };
        guard.complete(handle(64)).unwrap();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn tenant_quotas_evict_own_entries_first_then_reject_typed() {
        let unit = handle(16).approx_size_bytes();
        let cache = Arc::new(ResultCache::new());
        cache.set_tenant_quota("greedy", Some(unit + unit / 2));
        // Another tenant's entry must never be a quota victim.
        let Lookup::Miss(guard) = cache.begin(&k("other"), Some("modest")) else {
            panic!("fresh key must miss");
        };
        guard.complete(handle(16)).unwrap();
        for key in ["g1", "g2"] {
            let Lookup::Miss(guard) = cache.begin(&k(key), Some("greedy")) else {
                panic!("fresh key must miss");
            };
            guard.complete(handle(16)).unwrap();
        }
        // g1 was evicted to make room for g2; modest's entry survived.
        assert!(cache.peek(k("g1").bytes()).is_none());
        assert!(cache.peek(k("g2").bytes()).is_some());
        assert!(cache.peek(k("other").bytes()).is_some());
        // A single result over the whole quota rejects typed.
        cache.set_tenant_quota("greedy", Some(unit / 4));
        let Lookup::Miss(guard) = cache.begin(&k("g3"), Some("greedy")) else {
            panic!("fresh key must miss");
        };
        let err = guard.complete(handle(16)).unwrap_err();
        assert!(err.is_resource_exhausted(), "{err}");
        assert!(err.to_string().contains("quota"), "{err}");
        let stats = cache.stats();
        assert_eq!(stats.quota_rejections, 1, "{stats:?}");
        // Raising the quota restores service.
        cache.set_tenant_quota("greedy", Some(unit * 4));
        let Lookup::Miss(guard) = cache.begin(&k("g4"), Some("greedy")) else {
            panic!("fresh key must miss");
        };
        guard.complete(handle(16)).unwrap();
        assert!(cache.peek(k("g4").bytes()).is_some());
    }

    #[test]
    fn attribution_tracks_producers_and_hitters() {
        let cache = Arc::new(ResultCache::new());
        let Lookup::Miss(guard) = cache.begin(&k("k"), Some("a")) else {
            panic!("fresh key must miss");
        };
        guard.complete(handle(8)).unwrap();
        cache.lookup(&k("k"), Some("a"));
        cache.lookup(&k("k"), Some("b"));
        let stats = cache.stats();
        assert_eq!(stats.tenants.len(), 2);
        let (ref a_name, a) = stats.tenants[0];
        let (ref b_name, b) = stats.tenants[1];
        assert_eq!((a_name.as_str(), b_name.as_str()), ("a", "b"));
        assert_eq!((a.produced, a.hits), (1, 1));
        assert!(a.retained_bytes > 0);
        assert_eq!((b.produced, b.hits), (0, 1));
        assert_eq!(stats.shared_hits, 1);
    }

    #[test]
    fn publishing_a_scan_evicts_its_superseded_file_states() {
        let cache = Arc::new(ResultCache::new());
        let scan = |path: &str, state: &str| ScanCsv::new(path, ScanOptions::default(), state);
        let key = |scan: ScanCsv| PlanKey::of(&AlgebraExpr::scan_csv(scan));
        let publish = |key: &PlanKey, rows: usize| {
            let Lookup::Miss(flight) = cache.begin(key, None) else {
                panic!("fresh key must miss");
            };
            flight.complete(handle(rows)).unwrap();
        };
        let v1 = key(scan("/tmp/x.csv", "mtime=1"));
        publish(&v1, 5);
        // Re-reading the unchanged "file" is a hit on the same handle.
        let first = cache.peek(v1.bytes()).unwrap();
        let Lookup::Hit(again) = cache.begin(&v1, None) else {
            panic!("an unchanged file state must hit");
        };
        assert_eq!(first.identity(), again.identity());
        // Pushed-down scans of the old and the new file state, cached by other callers.
        let v1_head = key(scan("/tmp/x.csv", "mtime=1").with_limit(2, false));
        let v2_head = key(scan("/tmp/x.csv", "mtime=2").with_limit(2, false));
        publish(&v1_head, 2);
        publish(&v2_head, 2);
        assert_eq!(cache.len(), 3, "a pushed-down scan supersedes nothing");
        // A new state of the same file evicts every scan of the superseded state,
        // pushed down or not, and keeps the scans of the new state…
        let v2 = key(scan("/tmp/x.csv", "mtime=2"));
        publish(&v2, 6);
        assert_eq!(cache.len(), 2, "superseded version leaked");
        assert!(cache.peek(v1.bytes()).is_none());
        assert!(cache.peek(v1_head.bytes()).is_none());
        assert!(cache.peek(v2.bytes()).is_some());
        assert!(
            cache.peek(v2_head.bytes()).is_some(),
            "current state evicted"
        );
        // …while entries for other files survive.
        publish(&key(scan("/tmp/x.csv.bak", "mtime=1")), 3);
        assert_eq!(cache.len(), 3);
        assert!(cache.peek(v2.bytes()).is_some());
    }

    #[test]
    fn clear_and_evict_leave_inflight_markers_alone() {
        let cache = Arc::new(ResultCache::new());
        let Lookup::Miss(flight) = cache.begin(&k("pending"), None) else {
            panic!("fresh key must miss");
        };
        let Lookup::Miss(done) = cache.begin(&k("done"), None) else {
            panic!("fresh key must miss");
        };
        done.complete(handle(4)).unwrap();
        cache.evict(k("pending").bytes()); // no-op: in flight
        cache.clear(); // drops "done", keeps the marker
        assert!(cache.claim(&k("pending"), None).is_none());
        assert_eq!(cache.len(), 0);
        flight.complete(handle(4)).unwrap();
        assert_eq!(cache.len(), 1);
    }
}
