//! The traced run: an outside-in, per-layer account of where a workload's time goes.
//!
//! Every span is recorded here, in the benchmark's own files, around calls into the
//! layers' *public* functions — nothing inside the program is instrumented. One
//! traced iteration has two roots:
//!
//! * `stmt` re-executes the workload's statements stage by stage: ingest by hand
//!   through `df-storage::csv` and the schema functions, then one
//!   `execute_partitioned` call per operator on the previous operator's grid, then
//!   assembly and egress. Its self times are what `trace.coverage` sums.
//! * `probe` prices the layers that are invisible from outside an operator — spill
//!   codec and file I/O, the wire frame, the shuffle's split/concat hops, the
//!   process backend's round trip, the typed block encode — with one pass over the
//!   workload's own bands: unit costs a later change to that layer must move.
//!
//! How much of an operator's time those hidden layers take is *measured*, not
//! modelled: a workload that runs under a budget or on worker processes stages its
//! statements a second time per iteration on a plain engine (no budget, threads) —
//! the `twin` root — and the difference, operator by operator, is what spill or
//! wire + pipe + process backend cost inside it.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use df_core::algebra::{AlgebraExpr, SortSpec};
use df_core::columnar::ColumnBlock;
use df_core::dataframe::DataFrame;
use df_core::handle::FrameHandle;
use df_engine::backend::{BandTask, ProcBackend};
use df_engine::engine::{GridResult, ModinEngine};
use df_engine::executor::ParallelExecutor;
use df_engine::partition::PartitionGrid;
use df_engine::shuffle::ShuffleKey;
use df_pandas::{PandasFrame, Session};
use df_storage::csv::{
    apply_domains, band_induction_summaries, plan_csv_chunks, read_csv_chunk, reconcile_domains,
    CsvOptions,
};
use df_storage::spill::{SpillStore, StoredPart};
use df_storage::wire::{read_framed_part, write_framed_part};

use crate::harness::{df, io, keep_going, time, Batch, Counters, Ctx, Outcome, Res, CSV};
use crate::json::Json;
use crate::spec::PER_LAYER;
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// The per-layer metric values of one traced run, keyed by `PER_LAYER` name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, Summary>,
}

impl Layers {
    fn slot(name: &str) -> &'static str {
        PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|known| *known == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values
            .insert(Layers::slot(name), Summary::single(value));
    }

    #[cfg(test)]
    fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |s| s.median)
    }

    /// Derive every time and throughput metric whose layer has spans: `x.y_s` is the
    /// median over iterations of the self time of the spans called `x.y`, and
    /// `x.y_mb_per_s` is the work those spans counted (bytes) over their self time.
    pub fn fill_from_spans(&mut self, tracer: &Tracer) {
        for metric in PER_LAYER {
            if let Some(span) = metric.name.strip_suffix("_mb_per_s") {
                let (bytes, seconds) = tracer.work_and_self_s(span);
                if seconds > 0.0 {
                    self.set(metric.name, bytes as f64 / 1e6 / seconds);
                }
            } else if let Some(span) = metric.name.strip_suffix("_s") {
                let samples = tracer.self_s_per_iter(span);
                if !samples.is_empty() {
                    self.values.insert(metric.name, Summary::of(&samples));
                }
            }
        }
    }

    /// Every per-layer metric in table order; a layer off the workload's path is 0.
    pub fn into_metrics(self) -> Vec<(String, Summary)> {
        PER_LAYER
            .iter()
            .map(|m| {
                let summary = self.values.get(m.name).cloned();
                (m.name.to_string(), summary.unwrap_or(Summary::single(0.0)))
            })
            .collect()
    }
}

/// `pandas.rewrites`: how many rewrites the optimizer applies to the workload's
/// statements, built on `session`.
pub fn set_rewrites(layers: &mut Layers, session: &Session, statements: &[PandasFrame]) -> Res<()> {
    let engine = session
        .modin_engine()
        .ok_or("modin session without engine")?;
    let rewrites: usize = statements
        .iter()
        .map(|statement| engine.optimize_only(statement.expr()).1.total())
        .sum();
    layers.set("pandas.rewrites", rewrites as f64);
    Ok(())
}

/// A grid as the leaf of the next one-operator statement.
pub fn leaf(grid: PartitionGrid) -> AlgebraExpr {
    AlgebraExpr::handle(FrameHandle::from_partitioned(Arc::new(GridResult::new(
        grid,
    ))))
}

/// Run one operator as its own statement on `engine`, under a `kernel.*` span.
pub fn op(
    tracer: &mut Tracer,
    engine: &ModinEngine,
    span: &'static str,
    statement: AlgebraExpr,
) -> Res<PartitionGrid> {
    df(tracer.span(span, |_| engine.execute_partitioned(&statement)))
}

/// Ingest a CSV file by hand, stage by stage: boundary scan, per-chunk parse, schema
/// reconciliation. Returns the typed bands.
pub fn staged_ingest(tracer: &mut Tracer, path: &Path, band_rows: usize) -> Res<Vec<DataFrame>> {
    let raw_options = CsvOptions {
        infer_schema: false,
        ..CSV
    };
    let plan = df(tracer.span("csv.plan", |_| {
        plan_csv_chunks(path, &raw_options, band_rows)
    }))?;
    let raw: Vec<DataFrame> = df(tracer.span("csv.parse", |tracer| {
        tracer.add_work(plan.total_bytes);
        plan.chunks
            .iter()
            .map(|chunk| read_csv_chunk(path, &raw_options, &plan, chunk))
            .collect()
    }))?;
    df(tracer.span("types.infer", |_| {
        let summaries: Vec<_> = raw.iter().map(band_induction_summaries).collect();
        let domains = reconcile_domains(&summaries);
        raw.into_iter()
            .map(|band| apply_domains(band, &domains))
            .collect()
    }))
}

/// What the shuffle-hop probe saw: rows per bucket over all bands.
#[derive(Debug, Default, Clone)]
pub struct SplitStats {
    pub bucket_rows: Vec<usize>,
}

/// What one pass of [`storage_probes`] reports besides its spans.
#[derive(Debug, Default, Clone)]
pub struct ProbePass {
    pub split: SplitStats,
    /// One band task's round trip on worker processes minus the same task on
    /// threads.
    pub rtt_s: f64,
}

impl SplitStats {
    /// Largest bucket over the mean bucket: the straggler factor a shuffle pays.
    pub fn max_over_mean(&self) -> f64 {
        let total: usize = self.bucket_rows.iter().sum();
        let max = self.bucket_rows.iter().copied().max().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            max as f64 * self.bucket_rows.len() as f64 / total as f64
        }
    }
}

/// Long-lived pieces of the probe set: the two executors whose round trips are
/// compared, created once so worker spawn is paid (and measured) once.
pub struct ProbeKit {
    threads: ParallelExecutor,
    procs: ParallelExecutor,
    /// Cold first round trip minus a warm one: what spawning a worker costs.
    pub spawn_s: f64,
}

impl ProbeKit {
    pub fn new(ctx: &Ctx, band: &DataFrame, sort: &SortSpec) -> Res<ProbeKit> {
        let procs = ParallelExecutor::new(ctx.threads)
            .with_backend(Arc::new(df(ProcBackend::new(ctx.threads))?));
        let task = BandTask::SortBand(sort.clone());
        let (cold, cold_s) = time(|| procs.run_task(&task, vec![band.clone()]));
        df(cold)?;
        let (warm, warm_s) = time(|| procs.run_task(&task, vec![band.clone()]));
        df(warm)?;
        Ok(ProbeKit {
            threads: ParallelExecutor::new(ctx.threads),
            procs,
            spawn_s: (cold_s - warm_s).max(0.0),
        })
    }
}

/// At most this many bands go through the unit-cost probes per iteration; unit costs
/// do not need the whole input, and the probes must not crowd out the statements.
const PROBE_BANDS: usize = 6;

/// One pass of the hidden layers over the workload's own bands, each under its span:
/// typed block encode, spill write/read at a one-band budget, wire encode/decode,
/// the shuffle's split and concat hops on column `key`, and one band task's round
/// trip on the process backend and on threads.
pub fn storage_probes(
    ctx: &Ctx,
    tracer: &mut Tracer,
    layers: &mut Layers,
    kit: &ProbeKit,
    bands: &[DataFrame],
    key: usize,
    sort: &SortSpec,
) -> Res<ProbePass> {
    let bands = &bands[..bands.len().min(PROBE_BANDS)];
    let Some(first) = bands.first() else {
        return Ok(ProbePass::default());
    };
    let mem_bytes: usize = bands.iter().map(DataFrame::approx_size_bytes).sum();

    tracer.span("types.encode", |tracer| {
        for band in bands {
            tracer.add_work(band.approx_size_bytes() as u64);
            std::hint::black_box(ColumnBlock::from_frame(band));
        }
    });

    // A budget of one band: the first put stays resident, every later put evicts
    // its predecessor to disk, so n puts cost n − 1 writes and n takes n − 1 reads.
    // The probed calls consume their input; copy it outside the spans.
    let copies = || bands.to_vec();
    let store = df(SpillStore::new(first.approx_size_bytes()))?;
    let to_put = copies();
    let ids = df(tracer.span("spill.write", |tracer| {
        to_put
            .into_iter()
            .map(|band| {
                tracer.add_work(band.approx_size_bytes() as u64);
                store.put(band)
            })
            .collect::<Result<Vec<_>, _>>()
    }))?;
    let disk_bytes: u64 = io(std::fs::read_dir(store.directory()))?
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    let spilled_bytes: usize = bands[..bands.len() - 1]
        .iter()
        .map(DataFrame::approx_size_bytes)
        .sum();
    if spilled_bytes > 0 {
        layers.set(
            "spill.disk_bytes_per_mem_byte",
            disk_bytes as f64 / spilled_bytes as f64,
        );
    }
    df(tracer.span("spill.read", |tracer| {
        ids.iter().try_for_each(|&id| {
            let frame = store.take(id)?;
            tracer.add_work(frame.approx_size_bytes() as u64);
            Ok(())
        })
    }))?;
    drop(store);

    let mut framed: Vec<u8> = Vec::new();
    let parts: Vec<StoredPart> = copies().into_iter().map(StoredPart::Frame).collect();
    df(tracer.span("wire.encode", |_| {
        parts
            .iter()
            .try_for_each(|part| write_framed_part(&mut framed, part, "dfbench.wire"))
    }))?;
    drop(parts);
    layers.set(
        "wire.bytes_per_mem_byte",
        framed.len() as f64 / mem_bytes.max(1) as f64,
    );
    df(tracer.span("wire.decode", |_| {
        let mut reader = framed.as_slice();
        bands.iter().try_for_each(|_| {
            read_framed_part(&mut reader, "dfbench.wire").map(|part| {
                std::hint::black_box(part);
            })
        })
    }))?;

    let parts = ctx.threads.max(bands.len().min(8));
    let split = BandTask::HashSplit {
        key: ShuffleKey::Positions(vec![key]),
        parts,
    };
    let to_split = copies();
    let slices: Vec<Vec<DataFrame>> = df(tracer.span("shuffle.split", |_| {
        to_split
            .into_iter()
            .map(|band| split.run(vec![band]))
            .collect()
    }))?;
    let mut split_stats = SplitStats {
        bucket_rows: vec![0; parts],
    };
    let mut buckets: Vec<Vec<DataFrame>> = (0..parts).map(|_| Vec::new()).collect();
    for band_slices in slices {
        for (bucket, slice) in band_slices.into_iter().enumerate() {
            split_stats.bucket_rows[bucket] += slice.n_rows();
            buckets[bucket].push(slice);
        }
    }
    df(tracer.span("shuffle.concat", |_| {
        buckets.into_iter().try_for_each(|bucket| {
            BandTask::Concat.run(bucket).map(|out| {
                std::hint::black_box(out);
            })
        })
    }))?;

    let task = BandTask::SortBand(sort.clone());
    let (remote, remote_s) = time(|| kit.procs.run_task(&task, vec![first.clone()]));
    df(remote)?;
    let (local, local_s) = time(|| kit.threads.run_task(&task, vec![first.clone()]));
    df(local)?;
    Ok(ProbePass {
        split: split_stats,
        rtt_s: (remote_s - local_s).max(0.0),
    })
}

/// What the probe passes of one run add up to, beyond their spans.
#[derive(Debug, Default)]
pub struct ProbeLog {
    last: ProbePass,
    rtt_ms: Vec<f64>,
}

impl ProbeLog {
    pub fn push(&mut self, pass: ProbePass) {
        self.rtt_ms.push(pass.rtt_s * 1e3);
        self.last = pass;
    }

    /// Write the span-derived metrics and the probe-only ones into `layers`.
    pub fn finish(&self, tracer: &Tracer, kit: Option<&ProbeKit>, layers: &mut Layers) {
        layers.fill_from_spans(tracer);
        if !self.rtt_ms.is_empty() {
            layers
                .values
                .insert("backend.task_rtt_ms", Summary::of(&self.rtt_ms));
        }
        if let Some(kit) = kit {
            layers.set("backend.spawn_s", kit.spawn_s);
        }
        layers.set(
            "shuffle.max_over_mean_rows",
            self.last.split.max_over_mean(),
        );
    }
}

/// What a batch workload adds for the traced run.
pub trait Staged: Batch {
    /// Re-execute one iteration's statements stage by stage under spans (the root
    /// span is already open), on the workload's own engine configuration or — with
    /// `plain` — on one without budget and on threads. Returns the workload's own
    /// typed bands for the unit-cost probes.
    fn staged(
        ctx: &Ctx,
        inputs: &Self::Inputs,
        tracer: &mut Tracer,
        plain: bool,
    ) -> Res<Vec<DataFrame>>;
    /// True when the workload's configuration differs from the plain one, i.e. when
    /// a twin pass has something to subtract.
    const HAS_TWIN: bool = false;
    /// Column position (in those bands) the workload's shuffles hash on, and the
    /// sort the backend round-trip probe runs.
    fn probe_keys(inputs: &Self::Inputs) -> (usize, SortSpec);
    /// Numbers measured once per run: ingest scaling, skew penalty, rewrites.
    fn once(_ctx: &Ctx, _inputs: &Self::Inputs, _layers: &mut Layers) -> Res<()> {
        Ok(())
    }
    /// Bytes of CSV input one iteration reads (0 for in-memory workloads).
    fn file_bytes(_inputs: &Self::Inputs) -> u64 {
        0
    }
    /// The memory budget the workload runs under, when it has one.
    fn budget(_inputs: &Self::Inputs) -> Option<usize> {
        None
    }
}

/// True when span `index` is called `root` or has an ancestor that is.
fn under(tracer: &Tracer, index: usize, root: &str) -> bool {
    let mut at = Some(index);
    while let Some(i) = at {
        if tracer.spans()[i].name == root {
            return true;
        }
        at = tracer.spans()[i].parent;
    }
    false
}

/// Per iteration, the summed self time of every span under a `root` span.
fn tree_self_s_per_iter(tracer: &Tracer, root: &str) -> Vec<f64> {
    let own = tracer.self_ns();
    let mut per_iter: BTreeMap<u64, u64> = BTreeMap::new();
    for (index, span) in tracer.spans().iter().enumerate() {
        if span.name != root && under(tracer, index, root) {
            *per_iter.entry(span.iter).or_default() += own[index];
        }
    }
    per_iter.values().map(|&ns| ns as f64 / 1e9).collect()
}

pub fn write_trace(ctx: &Ctx, tracer: &Tracer) -> Res<()> {
    let results = ctx
        .work
        .parent()
        .map(|root| root.join("results"))
        .ok_or("scratch directory has no parent")?;
    io(std::fs::create_dir_all(&results))?;
    let path = results.join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    io(tracer.write_jsonl(&path, &ctx.workload))?;
    println!(
        "trace: {} spans -> {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

pub fn run_traced<B: Staged>(ctx: &Ctx) -> Outcome {
    Outcome::from_run(|outcome| trace_batch::<B>(ctx, outcome))
}

fn trace_batch<B: Staged>(ctx: &Ctx, outcome: &mut Outcome) -> Res<()> {
    let inputs = B::setup(ctx)?;
    let mut layers = Layers::default();

    // The untraced reference: what one iteration costs and counts with tracing off.
    let mut untraced = Vec::new();
    let mut counters = Counters::default();
    for i in 0..=3 {
        let out = B::iterate(ctx, &inputs)?;
        B::assert_counters(ctx, &out.counters)?;
        if i > 0 {
            untraced.push(out.total_s());
        }
        counters = out.counters;
        outcome.digest = out.digest.render();
    }
    let untraced_s = median(&untraced);
    set_counters(
        &mut layers,
        &counters,
        B::file_bytes(&inputs),
        B::budget(&inputs),
    );

    // Traced iterations: half the window, so the one-off probes fit in the rest.
    let (key, sort) = B::probe_keys(&inputs);
    let mut tracer = Tracer::new(Instant::now());
    let mut kit: Option<ProbeKit> = None;
    let mut probe_log = ProbeLog::default();
    let mut staged_totals = Vec::new();
    // The twin pass records into its own tracer so that its spans — same names,
    // other engine — never leak into the per-layer metrics.
    let mut twin = Tracer::new(Instant::now());
    let traced_ctx = ctx.with_seconds(ctx.seconds / 2.0);
    let started = Instant::now();
    while keep_going(&traced_ctx, started, staged_totals.len()) {
        tracer.set_iter(staged_totals.len() as u64);
        outcome.attempted += 1;
        let (bands, seconds) = time(|| tracer.span("stmt", |t| B::staged(ctx, &inputs, t, false)));
        let bands = bands?;
        staged_totals.push(seconds);
        if B::HAS_TWIN {
            twin.set_iter(staged_totals.len() as u64 - 1);
            twin.span("twin", |t| B::staged(ctx, &inputs, t, true))?;
        }
        if kit.is_none() {
            if let Some(first) = bands.first() {
                kit = Some(ProbeKit::new(ctx, first, &sort)?);
            }
        }
        if let Some(kit) = &kit {
            probe_log.push(tracer.span("probe", |t| {
                storage_probes(ctx, t, &mut layers, kit, &bands, key, &sort)
            })?);
        }
    }
    B::once(ctx, &inputs, &mut layers)?;

    probe_log.finish(&tracer, kit.as_ref(), &mut layers);
    layers.set(
        "trace.coverage",
        median(&tree_self_s_per_iter(&tracer, "stmt")) / untraced_s,
    );
    layers.set("trace.overhead", median(&staged_totals) / untraced_s);

    let stmt_rows = mean_self_s_by_name(&tracer, "stmt");
    let twin_rows = mean_self_s_by_name(&twin, "twin");
    let hidden_s = print_shares(ctx, &stmt_rows, &twin_rows, untraced_s);
    outcome.notes = vec![
        ("untraced_stmt_s".into(), Json::Num(untraced_s)),
        (
            "traced_iterations".into(),
            Json::Num(staged_totals.len() as f64),
        ),
        ("hidden_s".into(), Json::Num(hidden_s)),
        ("layer_self_s".into(), rows_json(&stmt_rows)),
        ("plain_twin_self_s".into(), rows_json(&twin_rows)),
    ];
    tracer.absorb(twin);
    write_trace(ctx, &tracer)?;
    outcome.metrics = layers.into_metrics();
    Ok(())
}

fn set_counters(layers: &mut Layers, c: &Counters, file_bytes: u64, budget: Option<usize>) {
    layers.set("ingest.bands", c.ingest_bands as f64);
    layers.set("ingest.bytes_parsed", c.ingest_bytes as f64);
    layers.set("scan.chunks_skipped", c.chunks_skipped as f64);
    layers.set(
        "scan.chunks_total",
        (c.chunks_skipped + c.ingest_bands) as f64,
    );
    layers.set("scan.columns_pruned", c.columns_pruned as f64);
    if file_bytes > 0 {
        layers.set(
            "scan.parsed_bytes_per_file_byte",
            c.ingest_bytes as f64 / file_bytes as f64,
        );
    }
    layers.set("shuffle.count", c.shuffles as f64);
    layers.set("spill.outs", c.spill_outs as f64);
    layers.set("spill.load_backs", c.load_backs as f64);
    layers.set("spill.retries", c.spill_retries as f64);
    if let Some(budget) = budget {
        layers.set(
            "spill.peak_over_budget",
            c.spill_peak_bytes as f64 / budget.max(1) as f64,
        );
    }
    layers.set("backend.tasks_remote", c.tasks_remote as f64);
    layers.set("backend.tasks_local", c.tasks_local as f64);
    layers.set("backend.restarts", c.restarts as f64);
    layers.set("session.executions", c.executions as f64);
    let lookups = c.cache_hits + c.executions;
    if lookups > 0 {
        layers.set("cache.hit_ratio", c.cache_hits as f64 / lookups as f64);
    }
}

/// Mean self time per iteration of every span name under `root`, largest first.
fn mean_self_s_by_name(tracer: &Tracer, root: &str) -> Vec<(&'static str, f64)> {
    let own = tracer.self_ns();
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut iters = std::collections::BTreeSet::new();
    for (index, span) in tracer.spans().iter().enumerate() {
        if span.name != root && under(tracer, index, root) {
            *by_name.entry(span.name).or_default() += own[index];
            iters.insert(span.iter);
        }
    }
    let n = iters.len().max(1) as f64;
    let mut rows: Vec<(&str, f64)> = by_name
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e9 / n))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

fn rows_json(rows: &[(&'static str, f64)]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(name, seconds)| (name.to_string(), Json::Num(*seconds)))
            .collect(),
    )
}

/// Print each layer's share of the staged statements' self time and, when a plain
/// twin ran, what every layer costs less there. Returns that total difference: the
/// seconds per iteration hidden inside operators (spill, or wire + backend).
fn print_shares(
    ctx: &Ctx,
    stmt: &[(&'static str, f64)],
    twin: &[(&'static str, f64)],
    untraced_s: f64,
) -> f64 {
    let total: f64 = stmt.iter().map(|(_, s)| s).sum();
    println!(
        "-- {}: staged self time per iteration by layer (untraced stmt_s {untraced_s:.4} s) --",
        ctx.workload
    );
    println!(
        "{:<22} {:>10} {:>11} {:>11} {:>12} {:>10}",
        "layer", "self s", "% of staged", "% of stmt_s", "plain twin s", "hidden s"
    );
    let mut hidden = 0.0;
    for (name, seconds) in stmt {
        let plain = twin.iter().find(|(twin_name, _)| twin_name == name);
        let (plain_text, diff_text) = match plain {
            Some((_, plain_s)) => {
                hidden += seconds - plain_s;
                (format!("{plain_s:.4}"), format!("{:.4}", seconds - plain_s))
            }
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:<22} {:>10.4} {:>10.1}% {:>10.1}% {:>12} {:>10}",
            name,
            seconds,
            100.0 * seconds / total,
            100.0 * seconds / untraced_s,
            plain_text,
            diff_text
        );
    }
    if !twin.is_empty() {
        println!(
            "hidden inside operators (workload engine minus plain twin): {hidden:.4} s = {:.1} % of staged, {:.1} % of stmt_s",
            100.0 * hidden / total,
            100.0 * hidden / untraced_s
        );
    }
    hidden
}

/// The service workload's share of the probe set: ingest one of its base tables by
/// hand and price the hidden layers on those bands, for a few iterations.
pub fn probe_table(
    ctx: &Ctx,
    tracer: &mut Tracer,
    layers: &mut Layers,
    path: &Path,
    band_rows: usize,
) -> Res<()> {
    let mut kit: Option<ProbeKit> = None;
    let mut log = ProbeLog::default();
    for i in 0..3 {
        // Keep these iterations apart from the statement ids the mix used.
        tracer.set_iter(u64::MAX / 2 + i);
        let pass = tracer.span("probe", |tracer| -> Res<Option<ProbePass>> {
            let bands = staged_ingest(tracer, path, band_rows)?;
            let Some(first) = bands.first() else {
                return Ok(None);
            };
            // `id` is the column the service's statements range over.
            let sort = SortSpec::ascending(vec![df_types::cell::cell("id")]);
            if kit.is_none() {
                kit = Some(ProbeKit::new(ctx, first, &sort)?);
            }
            let kit = kit.as_ref().expect("created above");
            storage_probes(ctx, tracer, layers, kit, &bands, 0, &sort).map(Some)
        })?;
        if let Some(pass) = pass {
            log.push(pass);
        }
    }
    log.finish(tracer, kit.as_ref(), layers);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_is_reported_even_when_unset() {
        let mut layers = Layers::default();
        layers.set("csv.plan_s", 0.25);
        let metrics = layers.into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics[0],
            ("csv.plan_s".to_string(), Summary::single(0.25))
        );
        assert!(metrics[1..].iter().all(|(_, s)| s.median == 0.0));
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_layer_names_are_refused() {
        Layers::default().set("csv.plam_s", 1.0);
    }

    #[test]
    fn span_names_map_onto_time_and_throughput_metrics() {
        let mut tracer = Tracer::new(Instant::now());
        for iter in 0..3 {
            tracer.set_iter(iter);
            tracer.span("csv.parse", |t| {
                t.add_work(2_000_000);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        }
        let mut layers = Layers::default();
        layers.fill_from_spans(&tracer);
        assert!(layers.get("csv.parse_s") >= 0.002);
        assert!(layers.get("csv.parse_mb_per_s") > 0.0);
        assert!(layers.get("csv.parse_mb_per_s") <= 1000.0);
        assert_eq!(layers.get("csv.write_s"), 0.0);
    }

    #[test]
    fn skew_shows_as_max_over_mean() {
        let even = SplitStats {
            bucket_rows: vec![10, 10, 10, 10],
        };
        assert_eq!(even.max_over_mean(), 1.0);
        let hot = SplitStats {
            bucket_rows: vec![70, 10, 10, 10],
        };
        assert_eq!(hot.max_over_mean(), 2.8);
        assert_eq!(SplitStats::default().max_over_mean(), 0.0);
    }
}
