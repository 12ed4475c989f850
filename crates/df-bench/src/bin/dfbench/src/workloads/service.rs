//! `service_mix`: tenants of one `df-service::QueryService` — the only workload where
//! admission, the shared result cache and session bookkeeping are on the path.
//!
//! Closed loop of `min(nproc, 4)` client threads multiplexing 8 tenants. Each client
//! draws its statements from a seeded stream: *repeat* (one of 8 dashboard
//! statements — a cache hit or a single-flight wait once warm), *unique* (a
//! parameterised range predicate — always executes, parses one chunk), *export*
//! (`write_csv_path` of a parameterised whole-table summary) and *refresh* (a new
//! version of a base table appears under a new path; the tenant takes a first look
//! at it, and the table's dashboards miss once).
//! Exports and refreshes are the writes beside the reads; the cache budget holds
//! about half of what a round touches, so evictions happen throughout.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use df_core::algebra::{AggFunc, Aggregation, CmpOp, Predicate};
use df_core::dataframe::DataFrame;
use df_engine::engine::ModinConfig;
use df_engine::session::EvalMode;
use df_pandas::{PandasFrame, Session};
use df_service::{QueryService, ServiceConfig, TenantSession};
use df_types::cell::cell;

use crate::gen::{self, SplitMix64};
use crate::harness::{
    df, io, keep_going, peak_rss_mib, require_same, reset_peak_rss, time, timed_setup, Ctx, Digest,
    Outcome, Res, CSV,
};
use crate::json::Json;
use crate::probes;
use crate::stats::{percentile, Summary};
use crate::trace::Tracer;

pub const TENANTS: usize = 8;
pub const TABLES: usize = 4;
const VARIANTS: usize = 2;
const DASHBOARDS: usize = 2;
/// Rows a *unique* statement returns.
const UNIQUE_ROWS: usize = 512;
/// Distinct (`group`, `bucket`) pairs of a base table: the rows of a dashboard result
/// and the most an export can write.
const GROUPS: usize = 64 * 12;

/// Statement classes and their shares of the mix, in percent. Chosen against the
/// measured class latencies (hit ≪ unique ≪ export ≈ dashboard miss ≈ refresh) so
/// that the median statement is a cache hit and the 95th percentile a whole-table
/// execution — both well inside their class, never on a boundary between two
/// classes, where the value would jump between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Repeat,
    Unique,
    Export,
    Refresh,
}

const SHARES: [(Class, u64); 4] = [
    (Class::Repeat, 66),
    (Class::Unique, 24),
    (Class::Export, 9),
    (Class::Refresh, 1),
];

/// Statements one client issues per round: every class exactly at its share.
pub const ROUND: usize = 100;

/// One round's statement classes: each class exactly `share` times, in a seeded
/// shuffled order. Stratifying the mix this way keeps a round's cost from depending
/// on how many refreshes or exports the dice happened to put into it.
fn round_script(rng: &mut SplitMix64) -> Vec<Class> {
    let mut script = Vec::with_capacity(ROUND);
    for (class, share) in SHARES {
        script.extend(std::iter::repeat_n(class, share as usize));
    }
    for i in (1..script.len()).rev() {
        script.swap(i, rng.below(i as u64 + 1) as usize);
    }
    script
}

fn id_range(start: usize, len: usize) -> Predicate {
    Predicate::And(
        Box::new(Predicate::ColCmp {
            column: cell("id"),
            op: CmpOp::Ge,
            value: cell(start as i64),
        }),
        Box::new(Predicate::ColCmp {
            column: cell("id"),
            op: CmpOp::Lt,
            value: cell((start + len) as i64),
        }),
    )
}

/// The two dashboard statements every base table has. Both return one row per
/// (`group`, `bucket`) pair, so a cache hit costs about the same whichever it is and
/// the hit class has one mode.
pub fn dashboard(base: &PandasFrame, which: usize) -> PandasFrame {
    match which {
        0 => base.groupby_agg(
            &["group", "bucket"],
            vec![
                Aggregation::of("value", AggFunc::Sum).with_alias("value_sum"),
                Aggregation::of("score", AggFunc::Mean).with_alias("score_mean"),
                Aggregation::count_rows(),
            ],
            false,
        ),
        _ => base
            .filter(Predicate::ColCmp {
                column: cell("score"),
                op: CmpOp::Ge,
                value: cell(500),
            })
            .groupby_agg(
                &["group", "bucket"],
                vec![
                    Aggregation::of("value", AggFunc::Sum).with_alias("value_sum"),
                    Aggregation::of("tag", AggFunc::Min).with_alias("first_tag"),
                    Aggregation::count_rows(),
                ],
                false,
            )
            .sort_values(&["value_sum"], false),
    }
}

pub fn unique(base: &PandasFrame, start: usize) -> PandasFrame {
    base.filter(id_range(start, UNIQUE_ROWS))
        .select(&["id", "group", "value", "score"])
}

/// A parameterised summary a tenant writes to CSV: it reads the whole table (neither
/// predicate lets the scan skip a chunk), so it costs what a dashboard miss costs —
/// together they form one thick slowest class for the 95th percentile to sit in —
/// while its result stays dashboard-sized, so exports churn the cache without
/// flushing it.
pub fn export(base: &PandasFrame, min_score: usize, min_id: usize) -> PandasFrame {
    base.filter(Predicate::And(
        Box::new(Predicate::ColCmp {
            column: cell("score"),
            op: CmpOp::Ge,
            value: cell(min_score as i64),
        }),
        Box::new(Predicate::ColCmp {
            column: cell("id"),
            op: CmpOp::Ge,
            value: cell(min_id as i64),
        }),
    ))
    .groupby_agg(
        &["group", "bucket"],
        vec![
            Aggregation::of("value", AggFunc::Sum).with_alias("value_sum"),
            Aggregation::count_rows(),
        ],
        false,
    )
}

pub struct ServiceInputs {
    pub service: Arc<QueryService>,
    tenants: Vec<TenantSession>,
    /// `variants[table][variant]`: the two generated contents a table alternates
    /// between across refreshes.
    variants: Vec<Vec<PathBuf>>,
    /// Version each table is currently published at; version `v` holds variant
    /// `v % 2` under its own path.
    current: Vec<AtomicUsize>,
    next: Vec<AtomicUsize>,
    sample: PathBuf,
    pub rows: usize,
    pub cache_budget: usize,
    config: ModinConfig,
}

impl ServiceInputs {
    fn version_path(&self, ctx: &Ctx, table: usize, version: usize) -> PathBuf {
        ctx.path(&format!("svc-t{table}-v{version}.csv"))
    }

    pub fn table_zero(&self) -> &PathBuf {
        &self.variants[0][0]
    }
}

fn setup(ctx: &Ctx) -> Res<ServiceInputs> {
    let rows = ctx.sizes.service_rows;
    if ctx.sizes.service_band_rows < UNIQUE_ROWS || rows < ctx.sizes.service_band_rows {
        return Err(format!(
            "service_mix needs bands of at least {UNIQUE_ROWS} rows and a table of at least one band"
        ));
    }
    let config = ctx.config(ctx.sizes.service_band_rows);
    let mut variants = Vec::with_capacity(TABLES);
    for table in 0..TABLES {
        let mut paths = Vec::with_capacity(VARIANTS);
        for variant in 0..VARIANTS {
            let path = ctx.path(&format!("svc-t{table}-variant{variant}.csv"));
            let content = gen::service_csv(ctx.seed, rows, table as u64, variant as u64);
            io(std::fs::write(&path, &content))?;
            paths.push(path);
        }
        variants.push(paths);
    }
    let sample = ctx.path("svc-sample.csv");
    io(std::fs::write(
        &sample,
        gen::service_csv(ctx.seed, rows / 16, 0, 0),
    ))?;

    // Size the cache from what the dashboards actually produce: twice the eight
    // dashboard results. A round also touches ~24 unique and ~9 export results of
    // about that size each, so the cache holds roughly half of a round's distinct
    // result bytes.
    let scratch = Session::modin_with(config.clone(), EvalMode::Lazy);
    let base = df(PandasFrame::read_csv_path(&scratch, &variants[0][0], &CSV))?;
    let mut dashboard_bytes = 0;
    for which in 0..DASHBOARDS {
        dashboard_bytes += df(dashboard(&base, which).handle())?.approx_size_bytes();
    }
    let cache_budget = 2 * TABLES * dashboard_bytes;
    drop(base);
    drop(scratch);

    let service = df(QueryService::start(
        ServiceConfig::default()
            .with_engine(config.clone())
            .with_mode(EvalMode::Lazy)
            .with_max_concurrent(ctx.threads)
            .with_queue(256, Duration::from_secs(30))
            .with_cache_budget(cache_budget),
    ))?;
    let tenants = (0..TENANTS)
        .map(|t| service.tenant(&format!("tenant-{t}")))
        .collect();
    let inputs = ServiceInputs {
        service,
        tenants,
        variants,
        current: (0..TABLES).map(|_| AtomicUsize::new(0)).collect(),
        next: (0..TABLES).map(|_| AtomicUsize::new(1)).collect(),
        sample,
        rows,
        cache_budget,
        config,
    };
    for table in 0..TABLES {
        io(std::fs::copy(
            &inputs.variants[table][0],
            inputs.version_path(ctx, table, 0),
        ))?;
    }
    Ok(inputs)
}

/// What every repeat statement must return, per table, variant and dashboard —
/// computed once on a standalone session over the same files.
struct Expected {
    dashboards: Vec<Vec<Vec<DataFrame>>>,
    digest: Digest,
}

fn check(ctx: &Ctx, inputs: &ServiceInputs) -> Res<Expected> {
    let reference = Session::reference();
    let scalable = Session::modin_with(inputs.config.clone(), EvalMode::Lazy);
    let ref_base = df(PandasFrame::read_csv_path(&reference, &inputs.sample, &CSV))?;
    let base = df(PandasFrame::read_csv_path(&scalable, &inputs.sample, &CSV))?;
    for which in 0..DASHBOARDS {
        require_same(
            "dashboard",
            &df(dashboard(&base, which).collect())?,
            &df(dashboard(&ref_base, which).collect())?,
        )?;
    }
    let start = (ctx.sizes.service_rows / 16).saturating_sub(UNIQUE_ROWS) / 2;
    require_same(
        "unique",
        &df(unique(&base, start).collect())?,
        &df(unique(&ref_base, start).collect())?,
    )?;
    require_same(
        "export",
        &df(export(&base, 250, 32).collect())?,
        &df(export(&ref_base, 250, 32).collect())?,
    )?;

    let mut digest = Digest::default();
    let mut dashboards = Vec::with_capacity(TABLES);
    for table in &inputs.variants {
        let mut per_variant = Vec::with_capacity(VARIANTS);
        for path in table {
            let base = df(PandasFrame::read_csv_path(&scalable, path, &CSV))?;
            let mut results = Vec::with_capacity(DASHBOARDS);
            for which in 0..DASHBOARDS {
                let result = df(dashboard(&base, which).collect())?;
                digest.frame(&result)?;
                results.push(result);
            }
            per_variant.push(results);
        }
        dashboards.push(per_variant);
    }
    Ok(Expected { dashboards, digest })
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    class: Class,
    seconds: f64,
}

/// What one client thread brings back.
struct ClientLog {
    samples: Vec<Sample>,
    /// Summed statement latency of each completed round.
    rounds: Vec<f64>,
    /// The process's peak resident set during each round of client 0 (the one
    /// client that restarts the high-water mark, so readings do not interleave).
    peaks_mib: Vec<f64>,
    failures: Vec<String>,
    tracer: Tracer,
}

struct Client<'a> {
    ctx: &'a Ctx,
    inputs: &'a ServiceInputs,
    expected: &'a Expected,
    index: usize,
    clients: usize,
    rng: SplitMix64,
}

impl Client<'_> {
    /// Where a `len`-row id range starts: anywhere inside one whole band of the
    /// table, so every range statement parses exactly one chunk. (A range that
    /// sometimes straddled two chunks would make its class bimodal, and a median on
    /// the boundary between two modes is not a steady number.)
    fn range_start(&mut self, len: usize) -> usize {
        let band = self.ctx.sizes.service_band_rows;
        let whole_bands = (self.inputs.rows / band) as u64;
        self.rng.below(whole_bands) as usize * band
            + self.rng.below((band - len + 1) as u64) as usize
    }

    /// Issue one statement of `class` with seeded parameters; returns its latency
    /// and, when it failed or returned the wrong result, why.
    fn statement(&mut self, class: Class, tracer: &mut Tracer) -> (Sample, Option<String>) {
        let table = self.rng.below(TABLES as u64) as usize;
        let mine = (TENANTS - self.index).div_ceil(self.clients);
        let tenant =
            &self.inputs.tenants[self.index + self.clients * self.rng.below(mine as u64) as usize];
        let session = tenant.session();
        let which = self.rng.below(DASHBOARDS as u64) as usize;
        let unique_start = self.range_start(UNIQUE_ROWS);
        // 500 × 64 parameter pairs per table version: an export almost never repeats.
        let (min_score, min_id) = (self.rng.below(500) as usize, self.rng.below(64) as usize);

        let version = self.inputs.current[table].load(Ordering::SeqCst);
        let path = self.inputs.version_path(self.ctx, table, version);
        let read = |tracer: &mut Tracer, path: &PathBuf| {
            tracer.span("pandas.build", |_| {
                PandasFrame::read_csv_path(session, path, &CSV)
            })
        };
        let (verdict, seconds) = match class {
            Class::Repeat => {
                let (result, seconds) = time(|| {
                    tracer.span("stmt.repeat", |tracer| {
                        let base = read(tracer, &path)?;
                        let statement = tracer.span("pandas.build", |_| dashboard(&base, which));
                        tracer.span("service.collect", |_| statement.collect())
                    })
                });
                let want = &self.expected.dashboards[table][version % VARIANTS][which];
                let verdict = df(result).and_then(|got| require_same("repeat", &got, want));
                (verdict, seconds)
            }
            Class::Unique => {
                let (result, seconds) = time(|| {
                    tracer.span("stmt.unique", |tracer| {
                        let base = read(tracer, &path)?;
                        let statement =
                            tracer.span("pandas.build", |_| unique(&base, unique_start));
                        tracer.span("service.collect", |_| statement.collect())
                    })
                });
                let verdict = df(result).and_then(|got| {
                    let first = got.cell(0, 0).ok().and_then(|c| c.as_i64());
                    if got.n_rows() == UNIQUE_ROWS && first == Some(unique_start as i64) {
                        Ok(())
                    } else {
                        Err(format!(
                            "unique statement from id {unique_start} returned {} rows starting at {first:?}",
                            got.n_rows()
                        ))
                    }
                });
                (verdict, seconds)
            }
            Class::Export => {
                let out = self.ctx.path(&format!("svc-export-{}.csv", self.index));
                let (result, seconds) = time(|| {
                    tracer.span("stmt.export", |tracer| {
                        let base = read(tracer, &path)?;
                        let statement =
                            tracer.span("pandas.build", |_| export(&base, min_score, min_id));
                        tracer.span("service.export", |_| statement.write_csv_path(&out))
                    })
                });
                let verdict = df(result).and_then(|()| {
                    let mut written = Digest::default();
                    written.csv_file(&out)?;
                    // One row per surviving group: at least one, at most all.
                    if written.rows >= 1 && written.rows <= GROUPS as u64 {
                        Ok(())
                    } else {
                        Err(format!("export wrote {} rows", written.rows))
                    }
                });
                (verdict, seconds)
            }
            Class::Refresh => {
                // The data producer drops a new version under a new path (untimed);
                // the tenant's statement is its first look at it.
                let version = self.inputs.next[table].fetch_add(1, Ordering::SeqCst);
                let fresh = self.inputs.version_path(self.ctx, table, version);
                let copied = io(std::fs::copy(
                    &self.inputs.variants[table][version % VARIANTS],
                    &fresh,
                ));
                let (result, seconds) = time(|| {
                    tracer.span("stmt.refresh", |tracer| {
                        let base = read(tracer, &fresh)?;
                        tracer.span("service.collect", |_| base.head(10))
                    })
                });
                let verdict = copied.and_then(|_| df(result)).and_then(|head| {
                    if head.n_rows() == 10 {
                        self.inputs.current[table].fetch_max(version, Ordering::SeqCst);
                        Ok(())
                    } else {
                        Err(format!("refresh head(10) returned {} rows", head.n_rows()))
                    }
                });
                (verdict, seconds)
            }
        };
        (Sample { class, seconds }, verdict.err())
    }

    fn run(mut self, traced: bool, epoch: Instant) -> ClientLog {
        let mut log = ClientLog {
            samples: Vec::new(),
            rounds: Vec::new(),
            peaks_mib: Vec::new(),
            failures: Vec::new(),
            tracer: if traced {
                Tracer::new(epoch)
            } else {
                Tracer::disabled()
            },
        };
        // Warm-up rounds fill the cache and bring the mix to its steady state;
        // their statements are checked but not reported.
        for _ in 0..self.ctx.sizes.warmups {
            for class in round_script(&mut self.rng) {
                let (_, failure) = self.statement(class, &mut Tracer::disabled());
                log.failures.extend(failure);
            }
        }
        let started = Instant::now();
        while keep_going(self.ctx, started, log.rounds.len()) {
            let mut busy = 0.0;
            if self.index == 0 {
                reset_peak_rss();
            }
            for class in round_script(&mut self.rng) {
                log.tracer.set_iter(log.samples.len() as u64);
                let (sample, failure) = self.statement(class, &mut log.tracer);
                busy += sample.seconds;
                log.samples.push(sample);
                log.failures.extend(failure);
            }
            log.rounds.push(busy);
            if self.index == 0 {
                log.peaks_mib.extend(peak_rss_mib().ok());
            }
        }
        log
    }
}

struct MixRun {
    samples: Vec<Sample>,
    rounds: Vec<f64>,
    peaks_mib: Vec<f64>,
    failures: Vec<String>,
    wall_s: f64,
    tracer: Tracer,
}

fn drive(ctx: &Ctx, inputs: &ServiceInputs, expected: &Expected, traced: bool) -> MixRun {
    let clients = ctx.threads;
    let epoch = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                let client = Client {
                    ctx,
                    inputs,
                    expected,
                    index,
                    clients,
                    rng: SplitMix64::new(ctx.seed).fork(100 + index as u64),
                };
                scope.spawn(move || client.run(traced, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let mut run = MixRun {
        samples: Vec::new(),
        rounds: Vec::new(),
        peaks_mib: Vec::new(),
        failures: Vec::new(),
        // Clients run concurrently for the whole window, so the mix's throughput is
        // statements over the longest client's busy time.
        wall_s: 0.0,
        tracer: Tracer::new(epoch),
    };
    for log in logs {
        run.wall_s = run.wall_s.max(log.rounds.iter().sum());
        run.samples.extend(log.samples);
        run.rounds.extend(log.rounds);
        run.peaks_mib.extend(log.peaks_mib);
        run.failures.extend(log.failures);
        run.tracer.absorb(log.tracer);
    }
    run
}

fn class_latencies(samples: &[Sample], classes: &[Class]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| classes.contains(&s.class))
        .map(|s| s.seconds)
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    Outcome::from_run(|outcome| measure(ctx, false, outcome))
}

pub fn run_traced(ctx: &Ctx) -> Outcome {
    Outcome::from_run(|outcome| measure(ctx, true, outcome))
}

fn measure(ctx: &Ctx, traced: bool, outcome: &mut Outcome) -> Res<()> {
    let (inputs, setup) = timed_setup(ctx.sizes.setup_reps, || setup(ctx))?;
    let expected = check(ctx, &inputs)?;
    // A traced run drives the mix twice (traced, then untraced for the overhead),
    // each for half the window.
    let window = ctx.with_seconds(if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let mix = drive(&window, &inputs, &expected, traced);
    outcome.attempted = mix.samples.len() as u64;
    outcome.failed = mix.failures.len() as u64;
    outcome.error = mix.failures.first().cloned();
    outcome.digest = expected.digest.render();

    let stats = inputs.service.stats();
    let cache = stats.cache.clone().unwrap_or_default();
    let executions: u64 = stats.tenants.iter().map(|(_, s)| s.executions).sum();
    outcome.notes = vec![
        ("statements".into(), Json::Num(mix.samples.len() as f64)),
        ("rounds".into(), Json::Num(mix.rounds.len() as f64)),
        (
            "cache_budget_bytes".into(),
            Json::Num(inputs.cache_budget as f64),
        ),
        ("cache_hits".into(), Json::Num(cache.hits as f64)),
        ("cache_evictions".into(), Json::Num(cache.evictions as f64)),
        ("executions".into(), Json::Num(executions as f64)),
    ];
    outcome.metrics = if traced {
        let untraced = drive(&window, &inputs, &expected, false);
        layer_metrics(ctx, &inputs, &stats, mix, &untraced)?
    } else {
        end_to_end_metrics(setup, &mix, outcome)
    };
    Ok(())
}

fn end_to_end_metrics(setup: Summary, mix: &MixRun, outcome: &Outcome) -> Vec<(String, Summary)> {
    let all: Vec<f64> = mix.samples.iter().map(|s| s.seconds).collect();
    // Thousands of samples per statistic: report each over the whole run, with its
    // steadiness over eight consecutive blocks as the quartiles.
    let steady =
        |samples: &[f64], p: f64| Summary::blocked(samples, 8, |block| percentile(block, p));
    let class_median = |classes: &[Class]| steady(&class_latencies(&mix.samples, classes), 0.5);
    vec![
        ("setup_s".into(), setup),
        (
            "stmt_s".into(),
            Summary::blocked(&mix.rounds, 4, crate::stats::median),
        ),
        ("head_s".into(), class_median(&[Class::Repeat])),
        ("chain_s".into(), class_median(&[Class::Unique])),
        (
            "shuffle_s".into(),
            class_median(&[Class::Export, Class::Refresh]),
        ),
        ("peak_rss_mb".into(), Summary::of(&mix.peaks_mib)),
        (
            "stmts_per_s".into(),
            Summary::single(all.len() as f64 / mix.wall_s.max(f64::MIN_POSITIVE)),
        ),
        ("stmt_p50_ms".into(), steady(&all, 0.5).scaled(1e3)),
        ("stmt_p95_ms".into(), steady(&all, 0.95).scaled(1e3)),
        (
            "ok_share".into(),
            Summary::single(1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
    ]
}

/// The traced run's metrics: the service-level counters, the mix's spans, and the
/// layers below the service probed on one of its base tables.
fn layer_metrics(
    ctx: &Ctx,
    inputs: &ServiceInputs,
    stats: &df_service::ServiceStats,
    mix: MixRun,
    untraced: &MixRun,
) -> Res<Vec<(String, Summary)>> {
    let mut layers = probes::Layers::default();
    let admission = stats.admission;
    let cache = stats.cache.clone().unwrap_or_default();
    let executions: u64 = stats.tenants.iter().map(|(_, s)| s.executions).sum();
    let lookups = (cache.hits + executions).max(1);
    layers.set("cache.hit_ratio", cache.hits as f64 / lookups as f64);
    layers.set("cache.shared_hits", cache.shared_hits as f64);
    layers.set(
        "cache.single_flight_waits",
        cache.single_flight_waits as f64,
    );
    layers.set("cache.evictions", cache.evictions as f64);
    layers.set("session.executions", executions as f64);
    layers.set(
        "admission.queued_share",
        admission.queued_grants as f64 / admission.admitted.max(1) as f64,
    );
    layers.set(
        "admission.max_queue_depth",
        admission.max_queue_depth as f64,
    );
    layers.set(
        "admission.rejected",
        (admission.rejected_full + admission.rejected_draining) as f64,
    );
    layers.set("admission.timed_out", admission.timed_out as f64);

    let engine = inputs.service.engine();
    let spill = engine.spill_stats();
    layers.set("spill.outs", spill.spill_outs as f64);
    layers.set("spill.load_backs", spill.load_backs as f64);
    let health = engine.backend_health();
    layers.set("backend.tasks_local", health.tasks_local as f64);
    layers.set("backend.tasks_remote", health.tasks_remote as f64);
    let ingest = engine.ingest_stats();
    layers.set("ingest.bands", ingest.bands_parsed as f64);
    layers.set("ingest.bytes_parsed", ingest.ingest_bytes as f64);
    layers.set("shuffle.count", engine.shuffles_dispatched() as f64);
    let pushdown = inputs.tenants[0].stats();
    layers.set("scan.chunks_skipped", pushdown.chunks_skipped as f64);
    layers.set("scan.columns_pruned", pushdown.columns_pruned as f64);
    layers.set(
        "scan.chunks_total",
        (ingest.bands_parsed + pushdown.chunks_skipped) as f64,
    );
    let base = df(PandasFrame::read_csv_path(
        inputs.tenants[0].session(),
        inputs.table_zero(),
        &CSV,
    ))?;
    let rewrites = engine.optimize_only(dashboard(&base, 1).expr()).1.total();
    layers.set("pandas.rewrites", rewrites as f64);

    // The layers below the service, probed on the workload's own base table (this
    // also derives `pandas.build_s` from the mix's spans).
    let mut tracer = mix.tracer;
    probes::probe_table(
        ctx,
        &mut tracer,
        &mut layers,
        inputs.table_zero(),
        ctx.sizes.service_band_rows,
    )?;

    // Coverage: how much of a statement's latency the spans attribute. Overhead:
    // the traced mix's mean statement against an untraced mix's on the same service.
    let mean_s = |samples: &[Sample]| {
        samples.iter().map(|s| s.seconds).sum::<f64>() / samples.len().max(1) as f64
    };
    let attributed: f64 = ["pandas.build", "service.collect", "service.export"]
        .iter()
        .map(|name| tracer.work_and_self_s(name).1)
        .sum();
    let traced_mean = mean_s(&mix.samples).max(f64::MIN_POSITIVE);
    layers.set(
        "trace.coverage",
        attributed / mix.samples.len().max(1) as f64 / traced_mean,
    );
    layers.set(
        "trace.overhead",
        traced_mean / mean_s(&untraced.samples).max(f64::MIN_POSITIVE),
    );
    probes::write_trace(ctx, &tracer)?;
    Ok(layers.into_metrics())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_holds_each_class_exactly_at_its_share() {
        assert_eq!(
            SHARES.iter().map(|(_, share)| share).sum::<u64>(),
            ROUND as u64
        );
        let mut rng = SplitMix64::new(9);
        let first = round_script(&mut rng);
        let second = round_script(&mut rng);
        assert_ne!(first, second, "rounds are shuffled independently");
        for script in [first, second] {
            assert_eq!(script.len(), ROUND);
            for (class, share) in SHARES {
                assert_eq!(script.iter().filter(|&&c| c == class).count() as u64, share);
            }
        }
    }

    #[test]
    fn every_tenant_belongs_to_exactly_one_client() {
        for clients in 1..=4 {
            let mut owners = [0usize; TENANTS];
            for index in 0..clients {
                let mine = (TENANTS - index).div_ceil(clients);
                for k in 0..mine {
                    owners[index + clients * k] += 1;
                }
            }
            assert!(
                owners.iter().all(|&n| n == 1),
                "{clients} clients: {owners:?}"
            );
        }
    }
}
