//! Deterministic failpoint injection for fault-tolerance testing.
//!
//! Storage faults at scale are routine events to be recovered from, not crashes —
//! but they are rare and non-deterministic in the wild, so the recovery paths they
//! exercise rot unless they can be forced on demand. This module is a process-global
//! registry of *named failpoints*: fixed sites in the spill store, the CSV ingest
//! chunk reader and the shuffle exchange call [`failpoint`] with their site name, and
//! an armed registry answers with the fault to inject ([`FailAction`]) or `None`.
//!
//! Configuration comes from the `DF_FAILPOINTS` environment variable (read once, on
//! first use) or programmatically via [`configure_seeded`] (tests):
//!
//! ```text
//! DF_FAILPOINTS="spill.write=io_full@0.05;spill.read=corrupt@3"
//! ```
//!
//! Each clause is `<site>=<kind>@<trigger>`. Kinds: `io_full` (non-transient I/O
//! error), `io` / `io_transient` (transient I/O error — the retry policy's food),
//! `corrupt` (payload corruption, detected by the spill checksum), `missing` (the
//! backing file vanishes), `panic` (the worker panics — exercises panic isolation).
//! Triggers: a probability (`0.05`, drawn from a deterministic SplitMix64 stream
//! seeded by `DF_FAILPOINT_SEED`, default `0`) or a 1-based hit ordinal (`3` fires on
//! exactly the third evaluation of that site, so a retry succeeds).
//!
//! When nothing is configured the registry never arms: [`failpoint`] is a single
//! relaxed atomic load, so production paths pay no measurable cost.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::error::{DfError, DfResult};

/// The fault a tripped failpoint injects at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// A non-transient I/O failure (disk full): retrying does not help.
    IoFull,
    /// A transient I/O failure: eligible for retry with backoff.
    IoTransient,
    /// Payload corruption. Spill sites mangle the actual bytes so the checksum
    /// machinery is exercised end to end; sites without a payload surface
    /// [`DfError::SpillCorruption`] directly.
    Corrupt,
    /// The backing file disappears before the access.
    Missing,
    /// The worker panics (exercises `catch_unwind` isolation).
    Panic,
}

impl FailAction {
    /// Convert the action into the typed error it models at `site` — panicking for
    /// [`FailAction::Panic`], which is the point of that kind.
    pub fn into_error(self, site: &str) -> DfError {
        match self {
            FailAction::IoFull => {
                DfError::spill_io(site, "injected disk-full write failure", false)
            }
            FailAction::IoTransient => {
                DfError::spill_io(site, "injected transient i/o error", true)
            }
            FailAction::Missing => DfError::spill_io(site, "injected missing file", false),
            FailAction::Corrupt => DfError::spill_corruption(site, "injected corruption"),
            FailAction::Panic => panic!("failpoint {site}: injected panic"),
        }
    }
}

/// When a rule fires.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// Fire with this probability per evaluation (deterministic seeded stream).
    Probability(f64),
    /// Fire on exactly the n-th evaluation of the site (1-based).
    Nth(u64),
}

#[derive(Debug)]
struct SiteRule {
    action: FailAction,
    trigger: Trigger,
    hits: u64,
}

#[derive(Debug, Default)]
struct Registry {
    rules: HashMap<String, SiteRule>,
    rng_state: u64,
}

impl Registry {
    fn evaluate(&mut self, site: &str) -> Option<FailAction> {
        let rule = self.rules.get_mut(site)?;
        rule.hits += 1;
        let fire = match rule.trigger {
            Trigger::Nth(n) => rule.hits == n,
            Trigger::Probability(p) => {
                // SplitMix64: deterministic given the seed and evaluation order.
                self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.rng_state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let unit = ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                unit < p
            }
        };
        fire.then_some(rule.action)
    }
}

/// Fast-path flag: true only while at least one rule is installed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Whether the one-time environment scan has run.
static ENV_SCANNED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn lock_registry() -> std::sync::MutexGuard<'static, Option<Registry>> {
    // The registry holds no invariants a panicked holder could break mid-update
    // that later readers cannot tolerate; recover the guard instead of poisoning
    // every subsequent failpoint evaluation.
    match REGISTRY.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn env_seed() -> u64 {
    std::env::var("DF_FAILPOINT_SEED")
        .ok()
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

fn scan_env() {
    if ENV_SCANNED.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Ok(spec) = std::env::var("DF_FAILPOINTS") {
        if !spec.trim().is_empty() {
            // A malformed env spec is a test-harness bug; surface it loudly rather
            // than silently running without fault injection.
            if let Err(err) = configure_seeded(&spec, env_seed()) {
                panic!("invalid DF_FAILPOINTS: {err}");
            }
        }
    }
}

/// Evaluate the failpoint named `site`. Returns the fault to inject, or `None` —
/// always `None` (one relaxed load) when no registry is configured.
pub fn failpoint(site: &str) -> Option<FailAction> {
    if !ENV_SCANNED.load(Ordering::Relaxed) {
        scan_env();
    }
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    lock_registry().as_mut().and_then(|r| r.evaluate(site))
}

/// Evaluate `site` and convert any injected fault into a typed error (panicking for
/// the `panic` kind). The one-liner for sites without a payload to corrupt:
/// `fail::check("shuffle.exchange")?;`
pub fn check(site: &str) -> DfResult<()> {
    match failpoint(site) {
        Some(action) => Err(action.into_error(site)),
        None => Ok(()),
    }
}

/// Install a failpoint configuration programmatically (replacing any existing one),
/// with an explicit probability-stream seed. Spec syntax as in the module docs.
pub fn configure_seeded(spec: &str, seed: u64) -> Result<(), String> {
    let mut rules = HashMap::new();
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (site, rest) = clause
            .split_once('=')
            .ok_or_else(|| format!("clause {clause:?}: expected <site>=<kind>@<trigger>"))?;
        let (kind, trigger_raw) = rest
            .split_once('@')
            .ok_or_else(|| format!("clause {clause:?}: expected <kind>@<trigger>"))?;
        let action = match kind.trim() {
            "io_full" => FailAction::IoFull,
            "io" | "io_transient" => FailAction::IoTransient,
            "corrupt" => FailAction::Corrupt,
            "missing" => FailAction::Missing,
            "panic" => FailAction::Panic,
            other => return Err(format!("clause {clause:?}: unknown kind {other:?}")),
        };
        let trigger_raw = trigger_raw.trim();
        let trigger = if trigger_raw.contains('.') {
            let p: f64 = trigger_raw
                .parse()
                .map_err(|_| format!("clause {clause:?}: bad probability {trigger_raw:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("clause {clause:?}: probability out of [0,1]"));
            }
            Trigger::Probability(p)
        } else {
            let n: u64 = trigger_raw
                .parse()
                .map_err(|_| format!("clause {clause:?}: bad trigger {trigger_raw:?}"))?;
            if n == 0 {
                return Err(format!("clause {clause:?}: hit ordinals are 1-based"));
            }
            Trigger::Nth(n)
        };
        rules.insert(
            site.trim().to_string(),
            SiteRule {
                action,
                trigger,
                hits: 0,
            },
        );
    }
    ENV_SCANNED.store(true, Ordering::SeqCst);
    let armed = !rules.is_empty();
    *lock_registry() = armed.then_some(Registry {
        rules,
        // Mix the seed so seed 0 still produces a non-degenerate stream.
        rng_state: seed ^ 0x51ed_5eed_0bad_f00d,
    });
    ARMED.store(armed, Ordering::SeqCst);
    Ok(())
}

/// Disarm every failpoint (tests call this after each chaos scenario).
pub fn clear() {
    ENV_SCANNED.store(true, Ordering::SeqCst);
    *lock_registry() = None;
    ARMED.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; these tests serialise on a local lock so they
    // cannot observe each other's configurations.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn unarmed_registry_is_silent() {
        let _g = guard();
        clear();
        assert!(!ARMED.load(Ordering::Relaxed));
        assert_eq!(failpoint("spill.read"), None);
        assert!(check("spill.read").is_ok());
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _g = guard();
        configure_seeded("spill.read=corrupt@3", 0).unwrap();
        assert!(ARMED.load(Ordering::Relaxed));
        assert_eq!(failpoint("spill.read"), None);
        assert_eq!(failpoint("spill.read"), None);
        assert_eq!(failpoint("spill.read"), Some(FailAction::Corrupt));
        assert_eq!(failpoint("spill.read"), None);
        // Unregistered sites never fire.
        assert_eq!(failpoint("spill.write"), None);
        clear();
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let _g = guard();
        let sample = |seed: u64| -> Vec<bool> {
            configure_seeded("spill.write=io@0.5", seed).unwrap();
            (0..64)
                .map(|_| failpoint("spill.write").is_some())
                .collect()
        };
        let a = sample(7);
        let b = sample(7);
        let c = sample(8);
        assert_eq!(a, b, "same seed must replay the same fault schedule");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.iter().any(|f| *f) && !a.iter().all(|f| *f));
        clear();
    }

    #[test]
    fn actions_map_to_the_typed_taxonomy() {
        let _g = guard();
        clear();
        assert!(matches!(
            FailAction::IoFull.into_error("s"),
            DfError::SpillIo {
                transient: false,
                ..
            }
        ));
        assert!(matches!(
            FailAction::IoTransient.into_error("s"),
            DfError::SpillIo {
                transient: true,
                ..
            }
        ));
        assert!(matches!(
            FailAction::Missing.into_error("s"),
            DfError::SpillIo { .. }
        ));
        assert!(matches!(
            FailAction::Corrupt.into_error("s"),
            DfError::SpillCorruption { .. }
        ));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _g = guard();
        for bad in [
            "spill.read",
            "spill.read=corrupt",
            "spill.read=frobnicate@1",
            "spill.read=corrupt@0",
            "spill.read=corrupt@1.5",
            "spill.read=corrupt@x",
        ] {
            assert!(
                configure_seeded(bad, 0).is_err(),
                "accepted malformed spec {bad:?}"
            );
        }
        // A rejected configuration leaves the registry disarmed.
        assert!(!ARMED.load(Ordering::Relaxed));
        // Empty clauses are tolerated (trailing semicolons).
        configure_seeded("spill.read=corrupt@1;;", 0).unwrap();
        assert!(ARMED.load(Ordering::Relaxed));
        clear();
    }
}
