//! `shuffle_skew` and `shuffle_procs`: typed in-memory frames (no CSV, no spill), a
//! zipf-keyed fact table joined to a dimension table too large to broadcast, then
//! grouped, sorted and de-duplicated. The two workloads run byte-identical data and
//! statements; `shuffle_procs` only switches the executor backend to worker
//! processes, so the gap between them is wire encode/decode + pipe + process
//! backend.

use std::sync::Arc;

use df_core::algebra::{AggFunc, Aggregation, AlgebraExpr, JoinOn, JoinType, SortSpec};
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::partition::{PartitionGrid, PartitionScheme};
use df_pandas::{PandasFrame, Session};
use df_types::backend::BackendKind;
use df_types::cell::cell;

use crate::gen::{self, KeyDist};
use crate::harness::{df, open, require_same, time, Batch, Counters, Ctx, Digest, IterOut, Res};
use crate::probes::{leaf, op, set_rewrites, Layers, Staged};
use crate::stats::median;
use crate::trace::Tracer;

/// The skew every shuffle workload runs at.
pub const ZIPF_S: f64 = 1.1;

pub struct ShuffleInputs {
    pub fact: DataFrame,
    pub dim: DataFrame,
    sample_fact: DataFrame,
    pub backend: BackendKind,
}

impl ShuffleInputs {
    pub fn config(&self, ctx: &Ctx) -> ModinConfig {
        ctx.config(ctx.sizes.shuffle_band_rows)
            .with_backend(self.backend)
    }
}

pub fn joined(fact: &PandasFrame, dim: &PandasFrame) -> PandasFrame {
    fact.merge_on(dim, &["key"], JoinType::Inner)
}

fn chain_aggs() -> Vec<Aggregation> {
    vec![
        Aggregation::of("amount", AggFunc::Sum).with_alias("amount_sum"),
        Aggregation::count_rows(),
    ]
}

/// The chain statement: `join(dim, key) → group_by(key; sum, count) → sort(sum desc)`.
pub fn chain(fact: &PandasFrame, dim: &PandasFrame) -> PandasFrame {
    joined(fact, dim)
        .groupby_agg(&["key"], chain_aggs(), false)
        .sort_values(&["amount_sum"], false)
}

fn setup(ctx: &Ctx, backend: BackendKind) -> Res<ShuffleInputs> {
    let sizes = &ctx.sizes;
    let fact = gen::fact_frame(
        ctx.seed,
        sizes.fact_rows,
        sizes.fact_keys,
        KeyDist::Zipf(ZIPF_S),
    );
    let inputs = ShuffleInputs {
        sample_fact: gen::sample_rows(&fact, 16),
        fact,
        dim: gen::shuffle_dim_frame(ctx.seed, sizes.fact_keys),
        backend,
    };
    // Engine start and worker spawn belong to set-up: a small sort forces the
    // process backend to bring its workers up.
    let engine = df(ModinEngine::try_with_config(inputs.config(ctx)))?;
    let warm =
        AlgebraExpr::literal(inputs.dim.head(64)).sort(SortSpec::ascending(vec![cell("key")]));
    df(engine.execute_collect(&warm))?;
    Ok(inputs)
}

fn check(ctx: &Ctx, inputs: &ShuffleInputs) -> Res<()> {
    let reference = Session::reference();
    let scalable = open(inputs.config(ctx));
    let frames = |session: &Arc<Session>| {
        (
            PandasFrame::from_dataframe(session, inputs.sample_fact.clone()),
            PandasFrame::from_dataframe(session, inputs.dim.clone()),
        )
    };
    let (ref_fact, ref_dim) = frames(&reference);
    let (fact, dim) = frames(&scalable);
    require_same(
        "join.head(10)",
        &df(joined(&fact, &dim).head(10))?,
        &df(joined(&ref_fact, &ref_dim).head(10))?,
    )?;
    require_same(
        "chain",
        &df(chain(&fact, &dim).collect())?,
        &df(chain(&ref_fact, &ref_dim).collect())?,
    )?;
    require_same(
        "drop_duplicates",
        &df(fact.drop_duplicates().collect())?,
        &df(ref_fact.drop_duplicates().collect())?,
    )
}

fn iterate(ctx: &Ctx, inputs: &ShuffleInputs) -> Res<IterOut> {
    let config = inputs.config(ctx);
    // The analyst already holds both frames; copying them is not the engine's work.
    let (fact_copy, dim_copy) = (inputs.fact.clone(), inputs.dim.clone());

    let (first_look, head_s) = time(|| {
        let session = open(config);
        let fact = PandasFrame::from_dataframe(&session, fact_copy);
        let dim = PandasFrame::from_dataframe(&session, dim_copy);
        let head = joined(&fact, &dim).head(10);
        (session, fact, dim, head)
    });
    let (session, fact, dim, head) = first_look;
    let head = df(head)?;
    if head.n_rows() != 10 {
        return Err(format!("join.head(10) returned {} rows", head.n_rows()));
    }

    let (ranked, chain_s) = time(|| chain(&fact, &dim).collect());
    let ranked = df(ranked)?;
    let (distinct, shuffle_s) = time(|| fact.drop_duplicates().collect());
    let distinct = df(distinct)?;

    let mut digest = Digest::default();
    digest.frame(&ranked)?;
    digest.frame(&distinct)?;
    Ok(IterOut {
        head_s,
        chain_s,
        shuffle_s,
        digest,
        counters: Counters::of(&session),
    })
}

/// `Shuffle<false>` is `shuffle_skew` (threads), `Shuffle<true>` is `shuffle_procs`
/// (worker processes): one workload on two backends.
pub struct Shuffle<const PROCS: bool>;
pub type Skew = Shuffle<false>;
pub type Procs = Shuffle<true>;

impl<const PROCS: bool> Batch for Shuffle<PROCS> {
    type Inputs = ShuffleInputs;

    fn setup(ctx: &Ctx) -> Res<ShuffleInputs> {
        let backend = if PROCS {
            BackendKind::Procs
        } else {
            BackendKind::Threads
        };
        setup(ctx, backend)
    }

    fn check(ctx: &Ctx, inputs: &ShuffleInputs) -> Res<()> {
        check(ctx, inputs)
    }

    fn iterate(ctx: &Ctx, inputs: &ShuffleInputs) -> Res<IterOut> {
        iterate(ctx, inputs)
    }

    fn assert_counters(_ctx: &Ctx, counters: &Counters) -> Res<()> {
        if PROCS && counters.tasks_remote == 0 {
            return Err("shuffle_procs shipped no band task to a worker process".to_string());
        }
        if !PROCS && (counters.spill_outs != 0 || counters.tasks_remote != 0) {
            return Err(format!(
                "shuffle_skew must neither spill nor leave the process: spill.outs={} tasks_remote={}",
                counters.spill_outs, counters.tasks_remote
            ));
        }
        Ok(())
    }
}

/// Literal → grid, the way the engine partitions an in-memory frame.
fn split(
    ctx: &Ctx,
    tracer: &mut Tracer,
    engine: &ModinEngine,
    frame: &DataFrame,
) -> Res<PartitionGrid> {
    let partitioning = ctx.config(ctx.sizes.shuffle_band_rows).partitioning;
    df(tracer.span("partition.split", |_| {
        PartitionGrid::from_dataframe_in(frame, PartitionScheme::Row, partitioning, engine.store())
    }))
}

/// The iteration's three statements, one operator at a time on the workload's
/// backend: the first look joins and takes a prefix, the chain joins again (a lazy
/// session re-executes it), groups and sorts, and the last statement de-duplicates.
fn staged(
    ctx: &Ctx,
    inputs: &ShuffleInputs,
    tracer: &mut Tracer,
    plain: bool,
) -> Res<Vec<DataFrame>> {
    let config = if plain {
        ctx.config(ctx.sizes.shuffle_band_rows)
    } else {
        inputs.config(ctx)
    };
    let engine = df(ModinEngine::try_with_config(config.clone()))?;
    let session = open(config);
    let (fact_copy, dim_copy) = (inputs.fact.clone(), inputs.dim.clone());
    let statements = tracer.span("pandas.build", |_| {
        let fact = PandasFrame::from_dataframe(&session, fact_copy);
        let dim = PandasFrame::from_dataframe(&session, dim_copy);
        (chain(&fact, &dim), fact.drop_duplicates())
    });
    tracer.span("optimizer.plan", |_| {
        std::hint::black_box(engine.optimize_only(statements.0.expr()));
        std::hint::black_box(engine.optimize_only(statements.1.expr()));
    });

    // A lazy session partitions its literals anew for every statement; so does this.
    let join = |tracer: &mut Tracer| -> Res<PartitionGrid> {
        let fact = split(ctx, tracer, &engine, &inputs.fact)?;
        let dim = split(ctx, tracer, &engine, &inputs.dim)?;
        let on = JoinOn::Columns(vec![cell("key")]);
        op(
            tracer,
            &engine,
            "kernel.join",
            leaf(fact).join(leaf(dim), on, JoinType::Inner),
        )
    };

    let first_look = join(tracer)?;
    df(tracer.span("partition.assemble", |_| first_look.prefix(10)))?;
    drop(first_look);

    let grid = join(tracer)?;
    let grid = op(
        tracer,
        &engine,
        "kernel.groupby",
        leaf(grid).group_by(vec![cell("key")], chain_aggs(), false),
    )?;
    let grid = op(
        tracer,
        &engine,
        "kernel.sort",
        leaf(grid).sort(SortSpec {
            by: vec![cell("amount_sum")],
            ascending: vec![false],
            stable: true,
        }),
    )?;
    df(tracer.span("partition.assemble", |_| grid.assemble()))?;

    let fact = split(ctx, tracer, &engine, &inputs.fact)?;
    let grid = op(
        tracer,
        &engine,
        "kernel.dedup",
        leaf(fact.clone()).drop_duplicates(),
    )?;
    df(tracer.span("partition.assemble", |_| grid.assemble()))?;

    (0..fact.n_row_bands()).map(|i| df(fact.band(i))).collect()
}

/// Once per run: what the skew costs. The chain statement on the zipf-keyed fact
/// table over the same statement on a uniform-keyed one of the same shape.
fn once(ctx: &Ctx, inputs: &ShuffleInputs, layers: &mut Layers) -> Res<()> {
    let sizes = &ctx.sizes;
    let uniform = gen::fact_frame(ctx.seed, sizes.fact_rows, sizes.fact_keys, KeyDist::Uniform);
    let chain_s = |fact: &DataFrame| -> Res<f64> {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let session = open(inputs.config(ctx));
            let fact = PandasFrame::from_dataframe(&session, fact.clone());
            let dim = PandasFrame::from_dataframe(&session, inputs.dim.clone());
            let (result, seconds) = time(|| chain(&fact, &dim).collect());
            df(result)?;
            samples.push(seconds);
        }
        Ok(median(&samples))
    };
    let skewed = chain_s(&inputs.fact)?;
    let flat = chain_s(&uniform)?;
    layers.set("shuffle.skew_penalty", skewed / flat);
    layers.set(
        "partition.count",
        (sizes.fact_rows.div_ceil(sizes.shuffle_band_rows)
            + sizes.fact_keys.div_ceil(sizes.shuffle_band_rows)) as f64,
    );

    let session = open(inputs.config(ctx));
    let fact = PandasFrame::from_dataframe(&session, inputs.fact.clone());
    let dim = PandasFrame::from_dataframe(&session, inputs.dim.clone());
    set_rewrites(layers, &session, &[chain(&fact, &dim)])
}

impl<const PROCS: bool> Staged for Shuffle<PROCS> {
    const HAS_TWIN: bool = PROCS;

    fn staged(
        ctx: &Ctx,
        inputs: &ShuffleInputs,
        tracer: &mut Tracer,
        plain: bool,
    ) -> Res<Vec<DataFrame>> {
        staged(ctx, inputs, tracer, plain)
    }

    fn probe_keys(_inputs: &ShuffleInputs) -> (usize, SortSpec) {
        (0, SortSpec::ascending(vec![cell("key")]))
    }

    fn once(ctx: &Ctx, inputs: &ShuffleInputs, layers: &mut Layers) -> Res<()> {
        once(ctx, inputs, layers)
    }
}
