//! Acceptance suite for the multi-tenant query service (`df-service`).
//!
//! The contract under test: N client threads driving tenant sessions against
//! **one** shared engine and spill budget get exactly the answers a serial
//! single-tenant run produces — cell for cell — while the service guarantees:
//!
//! * **single-flight deduplication** — identical plan keys from different
//!   tenants execute once, everyone else is served the published handle;
//! * **admission control** — never more than `max_concurrent` statements on the
//!   engine, bounded queue, typed refusals;
//! * **quota containment** — one tenant's quota violations (typed
//!   `ResourceExhausted`) never disturb a neighbour;
//! * **clean shutdown** — draining refuses new work typed while in-flight
//!   statements finish;
//! * **fault isolation** (chaos arm, PR-7 failpoints) — a spill fault absorbed
//!   or surfaced in one tenant's statement never poisons another tenant.
//!
//! The failpoint registry is process-global, so every test in this file takes
//! the same `FAIL_LOCK` (even non-chaos ones: an armed fault must never leak
//! into a concurrently running clean test) and disarms on drop.

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use df_core::algebra::{AggFunc, Aggregation, AlgebraExpr, SortSpec};
use df_core::dataframe::DataFrame;
use df_engine::engine::ModinConfig;
use df_engine::session::EvalMode;
use df_engine::PlanKey;
use df_pandas::{PandasFrame, Session};
use df_service::{QueryService, ServiceConfig};
use df_types::cell::{cell, Cell};
use df_types::error::DfError;
use df_types::fail;

/// Serialises the tests (armed or not) on the process-global failpoint registry
/// and guarantees disarm-on-drop. Same idiom as `tests/fault_injection.rs`.
struct Armed {
    _guard: MutexGuard<'static, ()>,
}

static FAIL_LOCK: Mutex<()> = Mutex::new(());

impl Armed {
    fn new(spec: &str) -> Armed {
        let guard = FAIL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        fail::configure_seeded(spec, 7).expect("valid failpoint spec");
        Armed { _guard: guard }
    }

    fn rearm(&self, spec: &str) {
        fail::configure_seeded(spec, 7).expect("valid failpoint spec");
    }

    fn disarm(&self) {
        fail::clear();
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        fail::clear();
    }
}

const TENANTS: usize = 8;

fn salted_frame(rows: usize, salt: i64) -> DataFrame {
    DataFrame::from_columns(
        vec!["k", "v"],
        vec![
            (0..rows)
                .map(|i| cell((i as i64 * 7 + salt) % 11))
                .collect::<Vec<Cell>>(),
            (0..rows).map(|i| cell(i as i64 + salt)).collect(),
        ],
    )
    .unwrap()
}

/// The shared statement mix every tenant runs: all four expressions read the
/// *same* literal leaf (`Arc` identity), so their plan keys are identical
/// across tenants and the shared cache can deduplicate them service-wide.
fn shared_statements(base: &Arc<DataFrame>) -> Vec<Arc<AlgebraExpr>> {
    let leaf = || AlgebraExpr::literal_arc(Arc::clone(base));
    vec![
        Arc::new(leaf().group_by(vec![cell("k")], vec![Aggregation::count_rows()], false)),
        Arc::new(leaf().group_by(
            vec![cell("k")],
            vec![Aggregation::of("v", AggFunc::Sum)],
            false,
        )),
        Arc::new(leaf().drop_duplicates()),
        Arc::new(leaf().sort(SortSpec::ascending(vec![cell("v")]))),
    ]
}

/// A statement only tenant `t` runs (its own literal leaf → its own plan key).
fn unique_statement(rows: usize, t: usize) -> Arc<AlgebraExpr> {
    Arc::new(
        AlgebraExpr::literal(salted_frame(rows, 1 + t as i64)).group_by(
            vec![cell("k")],
            vec![Aggregation::of("v", AggFunc::Mean)],
            false,
        ),
    )
}

fn serial_reference() -> Arc<Session> {
    Session::modin_with(
        ModinConfig::sequential().with_partition_size(16, 4),
        EvalMode::Eager,
    )
}

fn engine_config(threads: usize, budget: Option<usize>) -> ModinConfig {
    let mut config = ModinConfig::default()
        .with_threads(threads)
        .with_partition_size(16, 4);
    if let Some(bytes) = budget {
        config = config.with_memory_budget(bytes);
    }
    config
}

/// The tentpole scenario: 8 tenant threads over mixed cached / uncached /
/// spilling statements, across thread counts and memory budgets. Every result
/// must match the serial single-tenant reference cell for cell, each unique
/// plan key must execute exactly once service-wide, and the gate must never
/// exceed its slot count.
#[test]
fn eight_tenants_mixed_statements_match_serial_and_dedup() {
    let _armed = Armed::new("");
    const ROWS: usize = 240;
    const REPS: usize = 2;
    let base = Arc::new(salted_frame(ROWS, 0));
    let working_set = base.approx_size_bytes();

    let shared = shared_statements(&base);
    let uniques: Vec<Arc<AlgebraExpr>> = (0..TENANTS).map(|t| unique_statement(ROWS, t)).collect();
    let reference = serial_reference();
    let shared_expected: Vec<Arc<DataFrame>> = shared
        .iter()
        .map(|e| Arc::new(reference.query().collect(&PlanKey::of(e)).unwrap()))
        .collect();
    let unique_expected: Vec<Arc<DataFrame>> = uniques
        .iter()
        .map(|e| Arc::new(reference.query().collect(&PlanKey::of(e)).unwrap()))
        .collect();

    for threads in [1usize, 4] {
        for budget in [None, Some(working_set / 4)] {
            let budgeted = budget.is_some();
            let service = QueryService::start(
                ServiceConfig::default()
                    .with_engine(engine_config(threads, budget))
                    .with_max_concurrent(3)
                    .with_queue(64, Duration::from_secs(60)),
            )
            .expect("service starts");
            let barrier = Arc::new(Barrier::new(TENANTS));

            let workers: Vec<_> = (0..TENANTS)
                .map(|t| {
                    let service = Arc::clone(&service);
                    let barrier = Arc::clone(&barrier);
                    let shared = shared.clone();
                    let shared_expected = shared_expected.clone();
                    let unique = Arc::clone(&uniques[t]);
                    let unique_expected = Arc::clone(&unique_expected[t]);
                    std::thread::spawn(move || {
                        let tenant = service.tenant(&format!("tenant-{t}"));
                        barrier.wait();
                        for rep in 0..REPS {
                            for (i, expr) in shared.iter().enumerate() {
                                let out =
                                    tenant.query().collect(&PlanKey::of(expr)).unwrap_or_else(
                                        |e| panic!("tenant-{t} rep {rep} shared {i}: {e}"),
                                    );
                                assert!(
                                    out.same_data(&shared_expected[i]),
                                    "tenant-{t} rep {rep}: shared statement {i} diverged"
                                );
                            }
                        }
                        let out = tenant
                            .query()
                            .collect(&PlanKey::of(&unique))
                            .unwrap_or_else(|e| panic!("tenant-{t} unique: {e}"));
                        assert!(
                            out.same_data(&unique_expected),
                            "tenant-{t}: unique statement diverged"
                        );
                    })
                })
                .collect();
            for worker in workers {
                worker.join().expect("tenant thread panicked");
            }

            let stats = service.stats();
            let executions: u64 = stats.tenants.iter().map(|(_, s)| s.executions).sum();
            let unique_keys = (shared.len() + TENANTS) as u64;
            assert_eq!(
                executions, unique_keys,
                "threads={threads} budgeted={budgeted}: every unique plan key must \
                 execute exactly once: {stats:?}"
            );
            let cache = stats.cache.expect("shared cache");
            // 8 tenants × 2 reps × 4 shared statements = 64 accesses, 4 of which
            // produced; at least the rest were hits (single-flight waiters that
            // woke to a published entry count here too).
            assert!(
                cache.hits >= (TENANTS * REPS * shared.len() - shared.len()) as u64,
                "threads={threads} budgeted={budgeted}: {cache:?}"
            );
            assert!(
                cache.shared_hits > 0,
                "no cross-tenant reuse observed: {cache:?}"
            );
            assert!(
                stats.admission.peak_active <= 3,
                "gate exceeded its slots: {:?}",
                stats.admission
            );
            assert_eq!(stats.admission.rejected_full, 0);
            assert_eq!(stats.admission.timed_out, 0);
            if budgeted {
                assert!(
                    service.spill_stats().spill_outs > 0,
                    "ws/4 budget never spilled: {:?}",
                    service.spill_stats()
                );
            }
        }
    }
}

/// The headline acceptance criterion: 8 tenants racing the *same* plan key
/// cause exactly one engine execution — one gate admission, seven cache hits.
#[test]
fn same_fingerprint_from_eight_tenants_executes_once() {
    let _armed = Armed::new("");
    let base = Arc::new(salted_frame(160, 0));
    let expr = Arc::new(AlgebraExpr::literal_arc(Arc::clone(&base)).group_by(
        vec![cell("k")],
        vec![Aggregation::of("v", AggFunc::Max)],
        false,
    ));
    let expected = Arc::new(
        serial_reference()
            .query()
            .collect(&PlanKey::of(&expr))
            .unwrap(),
    );

    let service = QueryService::start(
        ServiceConfig::default()
            .with_engine(engine_config(2, None))
            .with_max_concurrent(2)
            .with_queue(32, Duration::from_secs(60)),
    )
    .expect("service starts");
    let barrier = Arc::new(Barrier::new(TENANTS));
    let workers: Vec<_> = (0..TENANTS)
        .map(|t| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let expr = Arc::clone(&expr);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let tenant = service.tenant(&format!("tenant-{t}"));
                barrier.wait();
                let out = tenant
                    .query()
                    .collect(&PlanKey::of(&expr))
                    .expect("collect succeeds");
                assert!(out.same_data(&expected), "tenant-{t} diverged");
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("tenant thread panicked");
    }

    let stats = service.stats();
    let executions: u64 = stats.tenants.iter().map(|(_, s)| s.executions).sum();
    assert_eq!(executions, 1, "{stats:?}");
    assert_eq!(stats.admission.admitted, 1, "{:?}", stats.admission);
    let cache = stats.cache.expect("shared cache");
    assert_eq!(cache.hits, (TENANTS - 1) as u64, "{cache:?}");
    assert_eq!(cache.shared_hits, (TENANTS - 1) as u64, "{cache:?}");
}

/// One tenant's quota violations are typed and contained: the greedy tenant's
/// own productions fail `ResourceExhausted`, while its neighbours (and its own
/// *reads* of entries others produced) are untouched.
#[test]
fn quota_violations_are_typed_and_never_disturb_neighbours() {
    let _armed = Armed::new("");
    let base = Arc::new(salted_frame(160, 0));
    let shared = Arc::new(AlgebraExpr::literal_arc(Arc::clone(&base)).group_by(
        vec![cell("k")],
        vec![Aggregation::count_rows()],
        false,
    ));
    let expected = Arc::new(
        serial_reference()
            .query()
            .collect(&PlanKey::of(&shared))
            .unwrap(),
    );

    let service = QueryService::start(ServiceConfig::default().with_engine(engine_config(2, None)))
        .expect("service starts");
    let greedy = service.tenant_with_quota("greedy", Some(1));
    let normal = service.tenant("normal");

    // The greedy tenant cannot *produce*: no result fits a 1-byte quota.
    let unique = unique_statement(160, 99);
    let err = greedy.query().collect(&PlanKey::of(&unique)).unwrap_err();
    assert!(matches!(err, DfError::ResourceExhausted(_)), "{err}");

    // Its neighbour is untouched — produces and caches the shared statement.
    let out = normal
        .query()
        .collect(&PlanKey::of(&shared))
        .expect("neighbour unaffected");
    assert!(out.same_data(&expected));

    // And the greedy tenant can still *read* what others produced (a hit
    // retains nothing, so no quota applies).
    let out = greedy
        .query()
        .collect(&PlanKey::of(&shared))
        .expect("hits bypass quota");
    assert!(out.same_data(&expected));

    let cache = service.stats().cache.expect("shared cache");
    assert!(cache.quota_rejections >= 1, "{cache:?}");
    let greedy_slice = cache
        .tenants
        .iter()
        .find(|(name, _)| name == "greedy")
        .map(|(_, t)| *t)
        .expect("greedy attributed");
    assert_eq!(greedy_slice.retained_bytes, 0, "{cache:?}");
    assert_eq!(greedy_slice.hits, 1, "{cache:?}");
}

/// Graceful shutdown under load: in-flight statements drain, late arrivals are
/// refused with typed admission errors, and the service ends idle.
#[test]
fn shutdown_drains_in_flight_work_and_refuses_late_arrivals() {
    let _armed = Armed::new("");
    let service = QueryService::start(
        ServiceConfig::default()
            .with_engine(engine_config(2, None))
            .with_max_concurrent(2)
            .with_queue(32, Duration::from_secs(60)),
    )
    .expect("service starts");

    let workers: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let tenant = service.tenant(&format!("tenant-{t}"));
                let mut completed = 0u64;
                // Every iteration builds a fresh frame → fresh plan key →
                // a real execution, until the drain refuses us.
                for round in 0..10_000u64 {
                    let expr =
                        AlgebraExpr::literal(salted_frame(96, (t as i64) * 100_000 + round as i64))
                            .drop_duplicates();
                    match tenant.query().collect(&PlanKey::of(&expr)) {
                        Ok(out) => {
                            assert_eq!(out.n_rows(), 96, "tenant-{t} round {round}");
                            completed += 1;
                        }
                        Err(err) => {
                            assert!(
                                err.is_admission() || err.is_cancelled(),
                                "tenant-{t} round {round}: untyped shutdown error {err}"
                            );
                            return completed;
                        }
                    }
                }
                completed
            })
        })
        .collect();

    // Let the tenants get some statements in flight, then drain.
    std::thread::sleep(Duration::from_millis(100));
    let report = service.shutdown(Duration::from_secs(30));
    assert!(report.idle, "{report:?}");
    assert!(!report.cancelled_stragglers, "{report:?}");

    let completed: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("tenant thread panicked"))
        .sum();
    assert!(completed > 0, "nobody finished anything before the drain");
    assert!(service.is_draining());
    let late = unique_statement(32, 7);
    let err = service
        .tenant("latecomer")
        .query()
        .collect(&PlanKey::of(&late))
        .unwrap_err();
    assert!(err.is_admission(), "{err}");
}

/// A background run's result lives in the shared cache, so shutdown's cache clear
/// releases every partition it holds.
#[test]
fn shutdown_releases_finished_background_results() {
    let _armed = Armed::new("");
    let service = QueryService::start(
        ServiceConfig::default()
            .with_engine(engine_config(1, Some(1 << 30)))
            .with_mode(EvalMode::Opportunistic),
    )
    .expect("service starts");
    let expr =
        AlgebraExpr::literal(salted_frame(400, 0)).sort(SortSpec::ascending(vec![cell("v")]));
    service
        .tenant("submitter")
        .query()
        .submit(&PlanKey::of(&expr))
        .unwrap();
    // Blocks until the background run has published its result.
    service
        .tenant("reader")
        .query()
        .handle(&PlanKey::of(&expr))
        .unwrap();
    let report = service.shutdown(Duration::from_secs(30));
    assert!(report.idle, "{report:?}");
    let stats = service.spill_stats();
    assert_eq!(
        stats.in_memory + stats.spilled,
        0,
        "partitions outlived shutdown: {stats:?}"
    );
}

/// Chaos arm (PR-7 failpoints, seed pinned to 7): a spill-read corruption hit by
/// one tenant's statement is either absorbed by recovery (bit-exact result) or
/// surfaced as a typed error to *that tenant only* — the other tenant's
/// statements keep answering exactly, and once the fault clears the first
/// tenant's session heals on the same service.
#[test]
fn one_tenants_spill_fault_never_poisons_another_tenant() {
    let armed = Armed::new("");
    // A 1-byte budget spills every band, so materialisation always reads back
    // from disk — the armed fault is guaranteed to fire on the first statement
    // that runs, which we make tenant A's.
    let service = QueryService::start(
        ServiceConfig::default()
            .with_engine(
                ModinConfig::default()
                    .with_threads(2)
                    .with_partition_size(16, 4)
                    .with_memory_budget(1),
            )
            .with_mode(EvalMode::Lazy),
    )
    .expect("service starts");
    let alpha = service.tenant("alpha");
    let beta = service.tenant("beta");

    let frame_a = PandasFrame::try_from_dataframe(alpha.session(), salted_frame(240, 1))
        .expect("alpha frame")
        .isna();
    let frame_b = PandasFrame::try_from_dataframe(beta.session(), salted_frame(240, 2))
        .expect("beta frame")
        .isna();
    let baseline_a = frame_a.collect().expect("alpha baseline");
    let baseline_b = frame_b.collect().expect("beta baseline");

    // Corrupt the next spill read; alpha runs first and takes the fault.
    armed.rearm("spill.read=corrupt@1");
    match frame_a.collect() {
        Ok(out) => assert!(out.same_data(&baseline_a), "alpha recovery diverged"),
        Err(err) => assert!(
            err.is_spill_corruption(),
            "alpha surfaced an untyped fault: {err}"
        ),
    }
    // Beta is a different tenant on the same engine, store and cache — its
    // statement must still answer exactly.
    let out = frame_b.collect().expect("beta must be unaffected");
    assert!(
        out.same_data(&baseline_b),
        "beta was poisoned by alpha's fault"
    );

    // Fault cleared: alpha heals on the very same service.
    armed.disarm();
    let healed = frame_a.collect().expect("alpha heals after disarm");
    assert!(healed.same_data(&baseline_a));
}
