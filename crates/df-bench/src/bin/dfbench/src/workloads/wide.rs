//! `wide_frame`: the paper's row/column equivalence and the Fig. 2 transpose panel.
//! A short, very wide float frame under a budget of a quarter of its size, so the
//! per-column overheads — labels, domains, block headers, a thousand short lanes per
//! spilled block — dominate instead of the per-row work of the ETL workloads.

use df_core::algebra::{AggFunc, Aggregation, ColumnSelector, MapFunc, SortSpec};
use df_core::dataframe::DataFrame;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::partition::{PartitionGrid, PartitionScheme};
use df_pandas::{PandasFrame, Session};
use df_storage::csv::{write_csv_string, CsvOptions};
use df_types::cell::cell;

use crate::gen;
use crate::harness::{df, open, require_same, time, Batch, Counters, Ctx, Digest, IterOut, Res};
use crate::probes::{leaf, op, set_rewrites, Layers, Staged};
use crate::trace::Tracer;

pub struct WideInputs {
    pub wide: DataFrame,
    sample: DataFrame,
    /// A quarter of the frame's in-memory size.
    pub budget: usize,
    /// Ten column labels spread over the frame's width.
    pub ten: Vec<String>,
    pub all: Vec<String>,
}

impl WideInputs {
    pub fn config(&self, ctx: &Ctx) -> ModinConfig {
        ctx.config(ctx.sizes.wide_band_rows)
            .with_memory_budget(self.budget)
    }

    pub fn ten(&self) -> Vec<&str> {
        self.ten.iter().map(String::as_str).collect()
    }
}

/// The chain statement: `transpose → map(IsNullMask) → transpose`.
pub fn mask(frame: &PandasFrame) -> PandasFrame {
    frame.transpose().isna().transpose()
}

fn sum_every(columns: &[String]) -> Vec<Aggregation> {
    columns
        .iter()
        .map(|c| Aggregation::of(c.as_str(), AggFunc::Sum))
        .collect()
}

/// The reduce statement: a keyless `group_by` summing every column.
pub fn column_sums(frame: &PandasFrame, columns: &[String]) -> PandasFrame {
    frame.groupby_agg(&[], sum_every(columns), false)
}

fn setup(ctx: &Ctx) -> Res<WideInputs> {
    let (rows, cols) = (ctx.sizes.wide_rows, ctx.sizes.wide_cols);
    let wide = gen::wide_frame(ctx.seed, rows, cols);
    let label = |j: usize| format!("w{j:04}");
    let inputs = WideInputs {
        sample: gen::sample_rows(&wide, 16),
        budget: wide.approx_size_bytes() / 4,
        wide,
        ten: (0..10).map(|k| label(k * cols / 10)).collect(),
        all: (0..cols).map(label).collect(),
    };
    // Engine start (thread pool, spill directory) belongs to set-up.
    drop(df(ModinEngine::try_with_config(inputs.config(ctx)))?);
    Ok(inputs)
}

fn check(ctx: &Ctx, inputs: &WideInputs) -> Res<()> {
    let reference = Session::reference();
    let scalable = open(inputs.config(ctx));
    let ref_frame = PandasFrame::from_dataframe(&reference, inputs.sample.clone());
    let frame = PandasFrame::from_dataframe(&scalable, inputs.sample.clone());
    require_same(
        "select(10)",
        &df(frame.select(&inputs.ten()).collect())?,
        &df(ref_frame.select(&inputs.ten()).collect())?,
    )?;
    require_same(
        "transpose.isna.transpose",
        &df(mask(&frame).collect())?,
        &df(mask(&ref_frame).collect())?,
    )?;
    require_same(
        "keyless group_by",
        &df(column_sums(&frame, &inputs.all).collect())?,
        &df(column_sums(&ref_frame, &inputs.all).collect())?,
    )
}

fn iterate(ctx: &Ctx, inputs: &WideInputs) -> Res<IterOut> {
    let config = inputs.config(ctx);
    let copy = inputs.wide.clone();

    let (first_look, head_s) = time(|| {
        let session = open(config);
        let frame = PandasFrame::from_dataframe(&session, copy);
        let csv = frame.select(&inputs.ten()).to_csv_string();
        (session, frame, csv)
    });
    let (session, frame, csv) = first_look;
    let csv = df(csv)?;

    let masked = mask(&frame);
    let (handle, chain_s) = time(|| masked.handle());
    let shape = df(handle)?.shape();
    if shape != inputs.wide.shape() {
        return Err(format!("mask has shape {shape:?}"));
    }
    let (sums, shuffle_s) = time(|| column_sums(&frame, &inputs.all).collect());
    let sums = df(sums)?;

    let mut digest = Digest::default();
    digest.csv_bytes(csv.as_bytes());
    // The mask stays a partitioned handle; ten of its columns stand in for it in the
    // digest (the sampled check compares it whole).
    digest.frame(&df(masked.select(&inputs.ten()).collect())?)?;
    digest.frame(&sums)?;
    Ok(IterOut {
        head_s,
        chain_s,
        shuffle_s,
        digest,
        counters: Counters::of(&session),
    })
}

pub struct Wide;

impl Batch for Wide {
    type Inputs = WideInputs;

    fn setup(ctx: &Ctx) -> Res<WideInputs> {
        setup(ctx)
    }

    fn check(ctx: &Ctx, inputs: &WideInputs) -> Res<()> {
        check(ctx, inputs)
    }

    fn iterate(ctx: &Ctx, inputs: &WideInputs) -> Res<IterOut> {
        iterate(ctx, inputs)
    }

    fn assert_counters(_ctx: &Ctx, counters: &Counters) -> Res<()> {
        if counters.spill_outs == 0 {
            return Err("wide_frame ran under budget ws/4 without a single spill-out".to_string());
        }
        Ok(())
    }
}

/// The iteration's three statements, one operator at a time under the workload's
/// budget: project ten columns and serialise them, transpose–map–transpose, and the
/// keyless reduction.
fn staged(ctx: &Ctx, inputs: &WideInputs, tracer: &mut Tracer, plain: bool) -> Res<Vec<DataFrame>> {
    let config = if plain {
        ctx.config(ctx.sizes.wide_band_rows)
    } else {
        inputs.config(ctx)
    };
    let engine = df(ModinEngine::try_with_config(config.clone()))?;
    let session = open(config);
    let copy = inputs.wide.clone();
    let statements = tracer.span("pandas.build", |_| {
        let frame = PandasFrame::from_dataframe(&session, copy);
        (
            frame.select(&inputs.ten()),
            mask(&frame),
            column_sums(&frame, &inputs.all),
        )
    });
    tracer.span("optimizer.plan", |_| {
        std::hint::black_box(engine.optimize_only(statements.0.expr()));
        std::hint::black_box(engine.optimize_only(statements.1.expr()));
        std::hint::black_box(engine.optimize_only(statements.2.expr()));
    });

    // A lazy session partitions its literal anew for every statement; so does this.
    let partitioning = ctx.config(ctx.sizes.wide_band_rows).partitioning;
    let split = |tracer: &mut Tracer| {
        df(tracer.span("partition.split", |_| {
            PartitionGrid::from_dataframe_in(
                &inputs.wide,
                PartitionScheme::Row,
                partitioning,
                engine.store(),
            )
        }))
    };

    let ten = inputs.ten.iter().map(|c| cell(c.as_str())).collect();
    let wide = split(tracer)?;
    let grid = op(
        tracer,
        &engine,
        "kernel.projection",
        leaf(wide).project(ColumnSelector::ByLabels(ten)),
    )?;
    let narrow = df(tracer.span("partition.assemble", |_| grid.assemble()))?;
    df(tracer.span("csv.write", |tracer| {
        let csv = write_csv_string(&narrow, &CsvOptions::default())?;
        tracer.add_work(csv.len() as u64);
        Ok(())
    }))?;

    let wide = split(tracer)?;
    let grid = op(tracer, &engine, "kernel.transpose", leaf(wide).transpose())?;
    let grid = op(
        tracer,
        &engine,
        "kernel.map",
        leaf(grid).map(MapFunc::IsNullMask),
    )?;
    drop(op(
        tracer,
        &engine,
        "kernel.transpose",
        leaf(grid).transpose(),
    )?);

    let wide = split(tracer)?;
    let grid = op(
        tracer,
        &engine,
        "kernel.groupby",
        leaf(wide.clone()).group_by(vec![], sum_every(&inputs.all), false),
    )?;
    df(tracer.span("partition.assemble", |_| grid.assemble()))?;

    (0..wide.n_row_bands()).map(|i| df(wide.band(i))).collect()
}

fn once(ctx: &Ctx, inputs: &WideInputs, layers: &mut Layers) -> Res<()> {
    layers.set(
        "partition.count",
        ctx.sizes.wide_rows.div_ceil(ctx.sizes.wide_band_rows) as f64,
    );
    let session = open(inputs.config(ctx));
    let frame = PandasFrame::from_dataframe(&session, inputs.wide.clone());
    set_rewrites(layers, &session, &[mask(&frame)])
}

impl Staged for Wide {
    const HAS_TWIN: bool = true;

    fn staged(
        ctx: &Ctx,
        inputs: &WideInputs,
        tracer: &mut Tracer,
        plain: bool,
    ) -> Res<Vec<DataFrame>> {
        staged(ctx, inputs, tracer, plain)
    }

    fn probe_keys(inputs: &WideInputs) -> (usize, SortSpec) {
        (0, SortSpec::ascending(vec![cell(inputs.all[0].as_str())]))
    }

    fn once(ctx: &Ctx, inputs: &WideInputs, layers: &mut Layers) -> Res<()> {
        once(ctx, inputs, layers)
    }

    fn budget(inputs: &WideInputs) -> Option<usize> {
        Some(inputs.budget)
    }
}
