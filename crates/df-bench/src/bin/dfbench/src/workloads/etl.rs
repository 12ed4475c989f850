//! `csv_etl` and `ooc_etl`: the paper's canonical pipeline over a generated CSV, run
//! through `df-pandas` on a lazy session so the optimizer can push the filters and
//! the projection into the scan. The two workloads share every line of code and
//! every input byte; `ooc_etl` only adds a memory budget of a quarter of the
//! ingested working set, which puts `df-storage::spill` on the path.

use std::path::PathBuf;
use std::sync::Arc;

use df_core::algebra::{
    AggFunc, Aggregation, CmpOp, ColumnSelector, JoinOn, JoinType, Predicate, SortSpec,
};
use df_core::dataframe::DataFrame;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::partition::PartitionGrid;
use df_pandas::{PandasFrame, Session};
use df_storage::csv::{write_csv_path, CsvOptions};
use df_types::cell::{cell, Cell};

use crate::gen;
use crate::harness::{
    df, io, open, require_same, time, Batch, Counters, Ctx, Digest, IterOut, Res, CSV,
};
use crate::probes::{leaf, op, set_rewrites, staged_ingest, Layers, Staged};
use crate::stats::median;
use crate::trace::Tracer;

pub struct EtlInputs {
    pub events: PathBuf,
    pub dim: PathBuf,
    pub rows: usize,
    pub file_bytes: u64,
    /// The 1/16 prefix of the same generator stream, for the reference engine.
    sample_events: PathBuf,
    sample_rows: usize,
    /// `Some(ws / 4)` for `ooc_etl`, where `ws` is the ingested in-memory size.
    pub budget: Option<usize>,
    /// Ingested in-memory bytes (0 when not measured).
    pub working_set: usize,
}

impl EtlInputs {
    pub fn config(&self, ctx: &Ctx) -> ModinConfig {
        let config = ctx.config(ctx.sizes.etl_band_rows);
        match self.budget {
            Some(bytes) => config.with_memory_budget(bytes),
            None => config,
        }
    }
}

// The statements' parts, shared by the `df-pandas` form the end-to-end run executes
// and the operator-by-operator form the traced run stages.

fn above_median() -> Predicate {
    Predicate::ColCmp {
        column: cell("x"),
        op: CmpOp::Gt,
        value: cell(gen::EVENT_X_MEDIAN),
    }
}

fn first_nine_tenths(rows: usize) -> Predicate {
    Predicate::ColCmp {
        column: cell("id"),
        op: CmpOp::Lt,
        value: cell((rows * 9 / 10) as i64),
    }
}

const CHAIN_COLUMNS: [&str; 5] = ["key", "cat", "x", "y", "qty"];
const CHAIN_GROUP: [&str; 2] = ["region", "cat"];
const SHUFFLE_COLUMNS: [&str; 6] = ["key", "ts", "cat", "flag", "x", "qty"];
const SHUFFLE_ORDER: [&str; 2] = ["key", "ts"];

fn chain_aggs() -> Vec<Aggregation> {
    vec![
        Aggregation::of("x", AggFunc::Sum).with_alias("x_sum"),
        Aggregation::of("y", AggFunc::Mean).with_alias("y_mean"),
        Aggregation::count_rows(),
    ]
}

/// The chain statement: `filter(x > median) → filter(id < 0.9·n) → select 5 cols →
/// merge_on(dim, key) → groupby_agg([region, cat]; sum, mean, count) → sort_values`.
pub fn chain(events: &PandasFrame, dim: &PandasFrame, rows: usize) -> PandasFrame {
    events
        .filter(above_median())
        .filter(first_nine_tenths(rows))
        .select(&CHAIN_COLUMNS)
        .merge_on(dim, &["key"], JoinType::Inner)
        .groupby_agg(&CHAIN_GROUP, chain_aggs(), false)
        .sort_values(&CHAIN_GROUP, true)
}

/// The shuffle statement: `select 6 cols → sort_values([key, ts]) → drop_duplicates`.
pub fn shuffle(events: &PandasFrame) -> PandasFrame {
    events
        .select(&SHUFFLE_COLUMNS)
        .sort_values(&SHUFFLE_ORDER, true)
        .drop_duplicates()
}

fn cells(names: &[&str]) -> Vec<Cell> {
    names.iter().map(|name| cell(*name)).collect()
}

/// What `PandasFrame::sort_values(by, true)` builds.
fn ascending(by: &[&str]) -> SortSpec {
    SortSpec {
        by: cells(by),
        ascending: vec![true],
        stable: true,
    }
}

fn setup(ctx: &Ctx, budgeted: bool) -> Res<EtlInputs> {
    let rows = ctx.sizes.etl_rows;
    let sample_rows = (rows / 16).max(32);
    let mut inputs = EtlInputs {
        events: ctx.path("events.csv"),
        dim: ctx.path("dim.csv"),
        rows,
        file_bytes: 0,
        sample_events: ctx.path("events-sample.csv"),
        sample_rows,
        budget: None,
        working_set: 0,
    };
    let content = gen::events_csv(ctx.seed, rows);
    inputs.file_bytes = content.len() as u64;
    io(std::fs::write(&inputs.events, &content))?;
    io(std::fs::write(&inputs.dim, gen::dim_csv(ctx.seed)))?;
    io(std::fs::write(
        &inputs.sample_events,
        gen::events_csv(ctx.seed, sample_rows),
    ))?;
    if budgeted {
        // Measure the ingested working set without ever holding it: under a one-byte
        // budget every band spills as it is parsed, and the grid still reports its
        // size from the metadata cached at check-in.
        let probe = df(ModinEngine::try_with_config(
            inputs.config(ctx).with_memory_budget(1),
        ))?;
        inputs.working_set = df(probe.ingest_csv(&inputs.events, &CSV))?.approx_size_bytes();
        inputs.budget = Some(inputs.working_set / 4);
    }
    // Engine start (thread pool, spill directory) belongs to set-up.
    drop(df(ModinEngine::try_with_config(inputs.config(ctx)))?);
    Ok(inputs)
}

fn check(ctx: &Ctx, inputs: &EtlInputs) -> Res<()> {
    let reference = Session::reference();
    let scalable = open(inputs.config(ctx));
    let frames = |session: &Arc<Session>| -> Res<(PandasFrame, PandasFrame)> {
        Ok((
            df(PandasFrame::read_csv_path(
                session,
                &inputs.sample_events,
                &CSV,
            ))?,
            df(PandasFrame::read_csv_path(session, &inputs.dim, &CSV))?,
        ))
    };
    let (ref_events, ref_dim) = frames(&reference)?;
    let (events, dim) = frames(&scalable)?;
    require_same("head(10)", &df(events.head(10))?, &df(ref_events.head(10))?)?;
    require_same(
        "chain",
        &df(chain(&events, &dim, inputs.sample_rows).collect())?,
        &df(chain(&ref_events, &ref_dim, inputs.sample_rows).collect())?,
    )?;
    require_same(
        "shuffle",
        &df(shuffle(&events).collect())?,
        &df(shuffle(&ref_events).collect())?,
    )
}

fn iterate(ctx: &Ctx, inputs: &EtlInputs) -> Res<IterOut> {
    let chain_out = ctx.path("chain-out.csv");
    let shuffle_out = ctx.path("shuffle-out.csv");
    let config = inputs.config(ctx);

    let (first_look, head_s) = time(|| {
        let session = open(config);
        let events = PandasFrame::read_csv_path(&session, &inputs.events, &CSV)?;
        let head = events.head(10)?;
        Ok((session, events, head))
    });
    let (session, events, head) = df(first_look)?;
    if head.n_rows() != 10 {
        return Err(format!("head(10) returned {} rows", head.n_rows()));
    }
    let dim = df(PandasFrame::read_csv_path(&session, &inputs.dim, &CSV))?;

    let (written, chain_s) = time(|| chain(&events, &dim, inputs.rows).write_csv_path(&chain_out));
    df(written)?;
    let (written, shuffle_s) = time(|| shuffle(&events).write_csv_path(&shuffle_out));
    df(written)?;

    let mut digest = Digest::default();
    digest.csv_file(&chain_out)?;
    digest.csv_file(&shuffle_out)?;
    Ok(IterOut {
        head_s,
        chain_s,
        shuffle_s,
        digest,
        counters: Counters::of(&session),
    })
}

/// `Etl<false>` is `csv_etl`, `Etl<true>` is `ooc_etl`: one workload, with and
/// without the budget.
pub struct Etl<const BUDGETED: bool>;
pub type CsvEtl = Etl<false>;
pub type OocEtl = Etl<true>;

impl<const BUDGETED: bool> Batch for Etl<BUDGETED> {
    type Inputs = EtlInputs;

    fn setup(ctx: &Ctx) -> Res<EtlInputs> {
        setup(ctx, BUDGETED)
    }

    fn check(ctx: &Ctx, inputs: &EtlInputs) -> Res<()> {
        check(ctx, inputs)
    }

    fn iterate(ctx: &Ctx, inputs: &EtlInputs) -> Res<IterOut> {
        iterate(ctx, inputs)
    }

    fn assert_counters(_ctx: &Ctx, counters: &Counters) -> Res<()> {
        if BUDGETED && counters.spill_outs == 0 {
            return Err("ooc_etl ran under budget ws/4 without a single spill-out".to_string());
        }
        if !BUDGETED && (counters.spill_outs != 0 || counters.tasks_remote != 0) {
            return Err(format!(
                "csv_etl must neither spill nor leave the process: spill.outs={} tasks_remote={}",
                counters.spill_outs, counters.tasks_remote
            ));
        }
        Ok(())
    }
}

/// Assemble a statement's result and write it out, each under its span.
fn egress(tracer: &mut Tracer, grid: &PartitionGrid, path: &std::path::Path) -> Res<()> {
    let frame: DataFrame = df(tracer.span("partition.assemble", |_| grid.assemble()))?;
    df(tracer.span("csv.write", |tracer| {
        write_csv_path(&frame, path, &CsvOptions::default())?;
        tracer.add_work(std::fs::metadata(path).map_or(0, |meta| meta.len()));
        Ok(())
    }))
}

/// Both statements, stage by stage: ingest by hand, then one operator at a time on
/// an engine configured like the workload's (budget included).
fn staged(ctx: &Ctx, inputs: &EtlInputs, tracer: &mut Tracer, plain: bool) -> Res<Vec<DataFrame>> {
    let config = if plain {
        ctx.config(ctx.sizes.etl_band_rows)
    } else {
        inputs.config(ctx)
    };
    let engine = df(ModinEngine::try_with_config(config.clone()))?;
    let session = open(config);
    let statements = df(tracer.span("pandas.build", |_| {
        let events = PandasFrame::read_csv_path(&session, &inputs.events, &CSV)?;
        let dim = PandasFrame::read_csv_path(&session, &inputs.dim, &CSV)?;
        Ok((chain(&events, &dim, inputs.rows), shuffle(&events)))
    }))?;
    tracer.span("optimizer.plan", |_| {
        std::hint::black_box(engine.optimize_only(statements.0.expr()));
        std::hint::black_box(engine.optimize_only(statements.1.expr()));
    });

    let bands = staged_ingest(tracer, &inputs.events, ctx.sizes.etl_band_rows)?;
    let probe_bands = bands.clone();
    let events = df(tracer.span("partition.split", |_| {
        PartitionGrid::from_row_bands_in(bands, engine.store())
    }))?;
    let dim = df(tracer.span("ingest.dim", |_| engine.ingest_csv(&inputs.dim, &CSV)))?;

    let grid = op(
        tracer,
        &engine,
        "kernel.selection",
        leaf(events.clone()).select(above_median()),
    )?;
    let grid = op(
        tracer,
        &engine,
        "kernel.selection",
        leaf(grid).select(first_nine_tenths(inputs.rows)),
    )?;
    let grid = op(
        tracer,
        &engine,
        "kernel.projection",
        leaf(grid).project(ColumnSelector::ByLabels(cells(&CHAIN_COLUMNS))),
    )?;
    let grid = op(
        tracer,
        &engine,
        "kernel.join",
        leaf(grid).join(leaf(dim), JoinOn::Columns(cells(&["key"])), JoinType::Inner),
    )?;
    let grid = op(
        tracer,
        &engine,
        "kernel.groupby",
        leaf(grid).group_by(cells(&CHAIN_GROUP), chain_aggs(), false),
    )?;
    let grid = op(
        tracer,
        &engine,
        "kernel.sort",
        leaf(grid).sort(ascending(&CHAIN_GROUP)),
    )?;
    egress(tracer, &grid, &ctx.path("staged-chain-out.csv"))?;

    let grid = op(
        tracer,
        &engine,
        "kernel.projection",
        leaf(events).project(ColumnSelector::ByLabels(cells(&SHUFFLE_COLUMNS))),
    )?;
    let grid = op(
        tracer,
        &engine,
        "kernel.sort",
        leaf(grid).sort(ascending(&SHUFFLE_ORDER)),
    )?;
    let grid = op(
        tracer,
        &engine,
        "kernel.dedup",
        leaf(grid).drop_duplicates(),
    )?;
    egress(tracer, &grid, &ctx.path("staged-shuffle-out.csv"))?;
    Ok(probe_bands)
}

/// Once per run: ingest scaling (`ModinEngine::ingest_csv` at one thread over the
/// same call at `threads`), the rewrite count and the input's shape.
fn once(ctx: &Ctx, inputs: &EtlInputs, layers: &mut Layers) -> Res<()> {
    let ingest_s = |threads: usize| -> Res<f64> {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let engine = df(ModinEngine::try_with_config(
                inputs.config(ctx).with_threads(threads),
            ))?;
            let (grid, seconds) = time(|| engine.ingest_csv(&inputs.events, &CSV));
            df(grid)?;
            samples.push(seconds);
        }
        Ok(median(&samples))
    };
    let parallel = ingest_s(ctx.threads)?;
    let serial = ingest_s(1)?;
    layers.set("ingest.grid_s", parallel);
    layers.set("ingest.parallel_speedup", serial / parallel);
    layers.set("csv.parse_rows", inputs.rows as f64);
    layers.set(
        "partition.count",
        inputs.rows.div_ceil(ctx.sizes.etl_band_rows) as f64,
    );

    let session = open(inputs.config(ctx));
    let events = df(PandasFrame::read_csv_path(&session, &inputs.events, &CSV))?;
    let dim = df(PandasFrame::read_csv_path(&session, &inputs.dim, &CSV))?;
    set_rewrites(
        layers,
        &session,
        &[chain(&events, &dim, inputs.rows), shuffle(&events)],
    )
}

impl<const BUDGETED: bool> Staged for Etl<BUDGETED> {
    const HAS_TWIN: bool = BUDGETED;

    fn staged(
        ctx: &Ctx,
        inputs: &EtlInputs,
        tracer: &mut Tracer,
        plain: bool,
    ) -> Res<Vec<DataFrame>> {
        staged(ctx, inputs, tracer, plain)
    }

    fn probe_keys(_inputs: &EtlInputs) -> (usize, SortSpec) {
        // `key` is the third column of events.csv; the shuffle statement orders by it.
        (2, ascending(&SHUFFLE_ORDER))
    }

    fn once(ctx: &Ctx, inputs: &EtlInputs, layers: &mut Layers) -> Res<()> {
        once(ctx, inputs, layers)
    }

    fn file_bytes(inputs: &EtlInputs) -> u64 {
        inputs.file_bytes
    }

    fn budget(inputs: &EtlInputs) -> Option<usize> {
        inputs.budget
    }
}
