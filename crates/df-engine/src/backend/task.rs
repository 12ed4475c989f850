//! Serialisable per-band tasks — the unit of work a backend places.
//!
//! [`BandTask`] names every embarrassingly-parallel stage the engine fans out over
//! bands: the rowwise operators, the GROUPBY partial phase, the shuffle's
//! split/concat hops (the band exchange itself), the per-band sort, the CSV chunk
//! parse and the ingest domain-reconciliation pass. A task is *data*, not a
//! closure: it can be encoded to a flat byte string and shipped to a worker process
//! that shares no address space with the driver, which is what lets one plan run
//! unchanged on the thread backend or the process backend (paper §3.3's
//! API/execution decoupling).
//!
//! The descriptor is written with the block frame's own primitives
//! ([`df_storage::spill::ByteWriter`] / [`ByteReader`]): variant tags as
//! length-prefixed strings, counts as little-endian integers, floats by bit pattern,
//! and cell literals (predicate constants, fill values, rename pairs, group keys) in
//! the frame's tagged-cell encoding — so the wire speaks one value language end to
//! end. Decoding is as strict as the frame's: every length is checked against the
//! bytes that remain, and malformed input is a typed
//! [`DfError::SpillCorruption`] at the `backend.exchange` site. The same value
//! encoders also write [`crate::PlanKey`], the result cache's key, so each algebra
//! value has one byte encoding whether it names a task or a statement.
//!
//! A task reaches a backend one way: as
//! [`ParallelExecutor::placed`](crate::executor::ParallelExecutor::placed) work inside
//! a [`run_stage`](crate::executor::ParallelExecutor::run_stage) call, which has
//! already loaded the task's inputs and will check its outputs into the store.
//! "Driver-local" is what is left over, and it is two cases. Tasks built from opaque
//! closures (`Predicate::Custom`, `MapFunc::Custom`, `MapFunc::PerCell`) cannot cross a
//! process boundary; [`BandTask::encode`] returns `None` for them and the process
//! backend runs them in-place on the driver instead (counted as local tasks in
//! [`super::BackendHealth`]). And stage work that depends on more than its inputs — a
//! band's global row offset, a broadcast build side, range splitters — is not a task
//! at all: it is a closure handed to `run_stage` that borrows that state from the
//! driver's stack, and it runs on the driver's pool under every backend.

use std::sync::Arc;

use df_core::algebra::{
    AggFunc, Aggregation, AlgebraExpr, CmpOp, ColumnSelector, JoinOn, JoinType, MapFunc, Predicate,
    SortSpec, WindowFunc,
};
use df_core::dataframe::DataFrame;
use df_core::ops;
use df_core::ScanCsv;
use df_storage::csv::{self, CsvChunk, CsvIngestPlan, CsvOptions};
use df_storage::spill::{ByteReader, ByteWriter};
use df_types::{Cell, DfError, DfResult, Domain};

use super::EXCHANGE_SITE;
use crate::engine::csv_options;
use crate::shuffle::{self, ShuffleKey};

/// The most buckets a decoded [`BandTask::HashSplit`] may ask for. The engine asks
/// for `max(threads, min(bands, 8))`, so a larger count is a corrupt descriptor, not
/// a request.
const MAX_SPLIT_PARTS: usize = 1 << 16;

/// One unit of per-band work, serialisable for cross-process placement.
#[derive(Debug, Clone)]
pub enum BandTask {
    /// SELECTION: keep the band's rows matching the predicate (1 input → 1 output).
    Selection(Predicate),
    /// PROJECTION: keep/reorder the selected columns (1 → 1).
    Projection(ColumnSelector),
    /// RENAME: relabel columns by the given `(old, new)` pairs (1 → 1).
    Rename(Vec<(Cell, Cell)>),
    /// MAP: apply a row function uniformly (1 → 1).
    Map(MapFunc),
    /// The GROUPBY partial phase: per-band partial aggregation, keys kept as
    /// leading data columns (1 → 1).
    GroupPartial {
        /// Group-key column labels.
        keys: Vec<Cell>,
        /// The partial-plan aggregations to fold per band.
        aggs: Vec<Aggregation>,
    },
    /// The shuffle's scatter hop: split one band into `parts` key-hashed bucket
    /// slices (1 input → `parts` outputs).
    HashSplit {
        /// What to hash rows on.
        key: ShuffleKey,
        /// Number of output buckets.
        parts: usize,
    },
    /// The shuffle's gather hop: concatenate one bucket's slices from every band
    /// into a single output band (n inputs → 1 output).
    Concat,
    /// The parallel sort's per-band phase: sort one band by the spec (1 → 1).
    SortBand(SortSpec),
    /// Parse one planned CSV chunk into a raw band (0 inputs → 1 output). The
    /// worker re-reads the chunk's byte range from the file itself, so only plan
    /// metadata crosses the wire, never file content.
    CsvChunk {
        /// Path of the CSV file (workers share the driver's filesystem).
        path: String,
        /// Parse options.
        options: CsvOptions,
        /// The plan's split header fields, if the file has a header.
        header: Option<Vec<String>>,
        /// Record arity from the plan.
        n_cols: usize,
        /// Total data records from the plan.
        total_rows: usize,
        /// File length from the plan.
        total_bytes: u64,
        /// The chunk to parse.
        chunk: CsvChunk,
    },
    /// The ingest reconcile pass: parse a raw band's columns into the reconciled
    /// per-column domains (1 → 1).
    ApplyDomains(Vec<Domain>),
}

impl BandTask {
    /// Execute the task on its inputs. This is the single definition of what each
    /// task *means*: the thread backend calls it in-process and the worker binary
    /// calls it on decoded inputs, so both backends compute the identical function.
    pub fn run(&self, inputs: Vec<DataFrame>) -> DfResult<Vec<DataFrame>> {
        match self {
            BandTask::Selection(predicate) => {
                Ok(vec![ops::rowwise::selection(&one(inputs)?, predicate)?])
            }
            BandTask::Projection(columns) => {
                Ok(vec![ops::rowwise::projection(&one(inputs)?, columns)?])
            }
            BandTask::Rename(mapping) => Ok(vec![ops::rowwise::rename(&one(inputs)?, mapping)?]),
            BandTask::Map(func) => Ok(vec![ops::rowwise::map(&one(inputs)?, func)?]),
            BandTask::GroupPartial { keys, aggs } => Ok(vec![ops::group::group_by(
                &one(inputs)?,
                keys,
                aggs,
                false,
            )?]),
            BandTask::HashSplit { key, parts } => shuffle::split_band(one(inputs)?, key, *parts),
            BandTask::Concat => Ok(vec![ops::setops::union_all(inputs)?]),
            BandTask::SortBand(spec) => Ok(vec![ops::group::sort(&one(inputs)?, spec)?]),
            BandTask::CsvChunk {
                path,
                options,
                header,
                n_cols,
                total_rows,
                total_bytes,
                chunk,
            } => {
                if !inputs.is_empty() {
                    return Err(DfError::internal("CsvChunk task takes no inputs"));
                }
                // `read_csv_chunk` only consults the plan's arity and labels; the
                // chunk list stays with the driver.
                let plan = CsvIngestPlan {
                    header: header.clone(),
                    n_cols: *n_cols,
                    total_rows: *total_rows,
                    total_bytes: *total_bytes,
                    chunks: Vec::new(),
                };
                Ok(vec![csv::read_csv_chunk(path, options, &plan, chunk)?])
            }
            BandTask::ApplyDomains(domains) => Ok(vec![csv::apply_domains(one(inputs)?, domains)?]),
        }
    }

    /// How many output frames [`BandTask::run`] yields: `parts` bucket slices for the
    /// shuffle's scatter hop, one frame for everything else.
    pub(crate) fn output_arity(&self) -> usize {
        match self {
            BandTask::HashSplit { parts, .. } => *parts,
            _ => 1,
        }
    }

    /// Encode the task for the wire, or `None` when it carries opaque closures, which
    /// the process backend runs in-place.
    pub fn encode(&self) -> Option<Vec<u8>> {
        let mut e = ByteWriter::default();
        let mut portable = true;
        match self {
            BandTask::Selection(p) => {
                e.str("sel");
                portable = enc_predicate(&mut e, p);
            }
            BandTask::Projection(sel) => {
                e.str("proj");
                enc_selector(&mut e, sel);
            }
            BandTask::Rename(mapping) => {
                e.str("ren");
                enc_mapping(&mut e, mapping);
            }
            BandTask::Map(f) => {
                e.str("map");
                portable = enc_map(&mut e, f);
            }
            BandTask::GroupPartial { keys, aggs } => {
                e.str("grp");
                e.cells(keys);
                e.list(aggs, enc_aggregation);
            }
            BandTask::HashSplit { key, parts } => {
                e.str("split");
                enc_key(&mut e, key);
                e.count(*parts);
            }
            BandTask::Concat => e.str("concat"),
            BandTask::SortBand(spec) => {
                e.str("sort");
                enc_sort(&mut e, spec);
            }
            BandTask::CsvChunk {
                path,
                options,
                header,
                n_cols,
                total_rows,
                total_bytes,
                chunk,
            } => {
                e.str("csv");
                e.str(path);
                enc_csv_options(&mut e, options);
                enc_opt(&mut e, header, |e, names| {
                    e.list(names, |e, name| e.str(name))
                });
                e.count(*n_cols);
                e.count(*total_rows);
                e.u64(*total_bytes);
                e.u64(chunk.start_byte);
                e.u64(chunk.end_byte);
                e.count(chunk.rows);
                e.count(chunk.start_row);
            }
            BandTask::ApplyDomains(domains) => {
                e.str("domains");
                e.list(domains, |e, d| e.str(d.name()));
            }
        }
        portable.then(|| e.finish())
    }

    /// Decode a task encoded by [`BandTask::encode`]. Malformed input is a typed
    /// [`DfError::SpillCorruption`] (the worker reports it like any task error) —
    /// never a panic, and never an allocation the input's own length does not cover.
    pub fn decode(raw: &[u8]) -> DfResult<BandTask> {
        let mut d = ByteReader::new(raw, EXCHANGE_SITE);
        let task = match d.str()? {
            "sel" => BandTask::Selection(dec_predicate(&mut d)?),
            "proj" => BandTask::Projection(dec_selector(&mut d)?),
            "ren" => BandTask::Rename(d.list(2, |d| Ok((d.cell()?, d.cell()?)))?),
            "map" => BandTask::Map(dec_map(&mut d)?),
            "grp" => {
                let keys = d.cells()?;
                let aggs = d.list(1, dec_aggregation)?;
                BandTask::GroupPartial { keys, aggs }
            }
            "split" => {
                let key = dec_key(&mut d)?;
                let parts = d.count()?;
                // Zero buckets would divide by zero in the split, and a count no
                // executor asks for would have the worker allocate a bucket per unit.
                if !(1..=MAX_SPLIT_PARTS).contains(&parts) {
                    return Err(d.corrupt(format!("band task: {parts} split buckets")));
                }
                BandTask::HashSplit { key, parts }
            }
            "concat" => BandTask::Concat,
            "sort" => {
                let by = d.cells()?;
                let ascending = d.list(1, ByteReader::bool)?;
                let stable = d.bool()?;
                BandTask::SortBand(SortSpec {
                    by,
                    ascending,
                    stable,
                })
            }
            "csv" => {
                let path = d.str()?.to_string();
                let mut delim_chars = d.str()?.chars();
                let delimiter = match (delim_chars.next(), delim_chars.next()) {
                    (Some(c), None) => c,
                    _ => return Err(d.corrupt("band task: bad CSV delimiter")),
                };
                let has_header = d.bool()?;
                let infer_schema = d.bool()?;
                let header = match d.bool()? {
                    true => Some(d.list(8, |d| d.str().map(str::to_string))?),
                    false => None,
                };
                let n_cols = d.count()?;
                let total_rows = d.count()?;
                let total_bytes = d.u64()?;
                let chunk = CsvChunk {
                    start_byte: d.u64()?,
                    end_byte: d.u64()?,
                    rows: d.count()?,
                    start_row: d.count()?,
                };
                // A planned chunk lies inside its plan, and every record in it has
                // `n_cols` fields: a header fixes the arity, a headerless one is
                // bounded by the chunk's length. The parse allocates by these counts.
                let bytes_fit = chunk.start_byte <= chunk.end_byte && chunk.end_byte <= total_bytes;
                let rows_fit = chunk
                    .start_row
                    .checked_add(chunk.rows)
                    .is_some_and(|end| end <= total_rows);
                let arity_fits = match &header {
                    Some(fields) => fields.len() == n_cols,
                    None => {
                        bytes_fit
                            && (n_cols as u64).saturating_sub(1)
                                <= chunk.end_byte - chunk.start_byte
                    }
                };
                if !(bytes_fit && rows_fit && arity_fits) {
                    return Err(d.corrupt("band task: CSV chunk outside its plan"));
                }
                BandTask::CsvChunk {
                    path,
                    options: CsvOptions {
                        delimiter,
                        has_header,
                        infer_schema,
                    },
                    header,
                    n_cols,
                    total_rows,
                    total_bytes,
                    chunk,
                }
            }
            "domains" => BandTask::ApplyDomains(d.list(8, dec_domain)?),
            other => return Err(d.corrupt(format!("band task: unknown tag {other:?}"))),
        };
        d.end()?;
        Ok(task)
    }
}

/// Extract the single input a 1-ary task (or a one-partition stage item) expects.
pub(crate) fn one(inputs: Vec<DataFrame>) -> DfResult<DataFrame> {
    let mut inputs = inputs;
    match (inputs.pop(), inputs.pop()) {
        (Some(band), None) => Ok(band),
        _ => Err(DfError::internal("band task expects exactly one input")),
    }
}

// ---------------------------------------------------------------------------
// Algebra-type codecs
// ---------------------------------------------------------------------------

/// Write a predicate. Returns whether the bytes describe it completely: `false` once
/// a `Custom` closure was written, by name and address, which no decoder can rebuild.
fn enc_predicate(e: &mut ByteWriter, p: &Predicate) -> bool {
    match p {
        Predicate::True => e.str("t"),
        Predicate::ColCmp { column, op, value } => {
            e.str("cmp");
            e.cell(column);
            e.str(cmp_name(*op));
            e.cell(value);
        }
        Predicate::IsNull { column } => {
            e.str("isnull");
            e.cell(column);
        }
        Predicate::NotNull { column } => {
            e.str("notnull");
            e.cell(column);
        }
        Predicate::PositionRange { start, end } => {
            e.str("range");
            e.count(*start);
            e.count(*end);
        }
        Predicate::Not(inner) => {
            e.str("not");
            return enc_predicate(e, inner);
        }
        Predicate::And(a, b) => {
            e.str("and");
            // `&`, not `&&`: the right side is written even after a closure.
            return enc_predicate(e, a) & enc_predicate(e, b);
        }
        Predicate::Or(a, b) => {
            e.str("or");
            return enc_predicate(e, a) & enc_predicate(e, b);
        }
        Predicate::Custom { name, func } => {
            e.str("custom");
            return enc_closure(e, name, func);
        }
    }
    true
}

/// A closure is written as its name and its allocation's address, which equal no
/// other closure's while it lives; the answer is `false`, as for every value that
/// carries one.
fn enc_closure<F: ?Sized>(e: &mut ByteWriter, name: &str, func: &Arc<F>) -> bool {
    e.str(name);
    e.u64(Arc::as_ptr(func).cast::<()>() as usize as u64);
    false
}

fn dec_predicate(d: &mut ByteReader<'_>) -> DfResult<Predicate> {
    Ok(match d.str()? {
        "t" => Predicate::True,
        "cmp" => {
            let column = d.cell()?;
            let op = dec_cmp(d)?;
            let value = d.cell()?;
            Predicate::ColCmp { column, op, value }
        }
        "isnull" => Predicate::IsNull { column: d.cell()? },
        "notnull" => Predicate::NotNull { column: d.cell()? },
        "range" => Predicate::PositionRange {
            start: d.count()?,
            end: d.count()?,
        },
        "not" => Predicate::Not(Box::new(dec_predicate(d)?)),
        "and" => Predicate::And(Box::new(dec_predicate(d)?), Box::new(dec_predicate(d)?)),
        "or" => Predicate::Or(Box::new(dec_predicate(d)?), Box::new(dec_predicate(d)?)),
        other => return Err(d.corrupt(format!("band task: unknown predicate tag {other:?}"))),
    })
}

fn cmp_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn dec_cmp(d: &mut ByteReader<'_>) -> DfResult<CmpOp> {
    Ok(match d.str()? {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        other => return Err(d.corrupt(format!("band task: unknown comparison {other:?}"))),
    })
}

fn enc_selector(e: &mut ByteWriter, sel: &ColumnSelector) {
    match sel {
        ColumnSelector::All => e.str("all"),
        ColumnSelector::ByLabels(labels) => {
            e.str("labels");
            e.cells(labels);
        }
        ColumnSelector::ByPositions(positions) => {
            e.str("pos");
            e.list(positions, |e, &p| e.count(p));
        }
        ColumnSelector::Numeric => e.str("numeric"),
        ColumnSelector::Excluding(labels) => {
            e.str("excl");
            e.cells(labels);
        }
    }
}

fn dec_selector(d: &mut ByteReader<'_>) -> DfResult<ColumnSelector> {
    Ok(match d.str()? {
        "all" => ColumnSelector::All,
        "labels" => ColumnSelector::ByLabels(d.cells()?),
        "pos" => ColumnSelector::ByPositions(d.list(8, ByteReader::count)?),
        "numeric" => ColumnSelector::Numeric,
        "excl" => ColumnSelector::Excluding(d.cells()?),
        other => return Err(d.corrupt(format!("band task: unknown selector tag {other:?}"))),
    })
}

/// Write a map function; `false` when it is a closure (see [`enc_predicate`]).
fn enc_map(e: &mut ByteWriter, f: &MapFunc) -> bool {
    match f {
        MapFunc::IsNullMask => e.str("isnullmask"),
        MapFunc::FillNull(v) => {
            e.str("fill");
            e.cell(v);
        }
        MapFunc::StrUpper => e.str("upper"),
        MapFunc::StrLower => e.str("lower"),
        MapFunc::NumericAdd(v) => {
            e.str("add");
            e.f64(*v);
        }
        MapFunc::NumericMul(v) => {
            e.str("mul");
            e.f64(*v);
        }
        MapFunc::Cast(cols) => {
            e.str("cast");
            e.list(cols, |e, (label, domain)| {
                e.cell(label);
                e.str(domain.name());
            });
        }
        MapFunc::ParseRaw => e.str("parseraw"),
        MapFunc::NormalizeNumeric => e.str("norm"),
        MapFunc::OneHot { column, categories } => {
            e.str("onehot");
            e.cell(column);
            e.cells(categories);
        }
        MapFunc::PivotFlatten {
            label_source,
            value_source,
            output_labels,
        } => {
            e.str("pivot");
            e.cell(label_source);
            e.cell(value_source);
            e.cells(output_labels);
        }
        MapFunc::ProjectValues(sel) => {
            e.str("projvals");
            enc_selector(e, sel);
        }
        MapFunc::Custom {
            name,
            output_labels,
            output_domains,
            func,
        } => {
            e.str("custom");
            e.cells(output_labels);
            enc_opt(e, output_domains, |e, domains| {
                e.list(domains, |e, d| e.str(d.name()))
            });
            return enc_closure(e, name, func);
        }
        MapFunc::PerCell { name, func } => {
            e.str("percell");
            return enc_closure(e, name, func);
        }
    }
    true
}

fn dec_map(d: &mut ByteReader<'_>) -> DfResult<MapFunc> {
    Ok(match d.str()? {
        "isnullmask" => MapFunc::IsNullMask,
        "fill" => MapFunc::FillNull(d.cell()?),
        "upper" => MapFunc::StrUpper,
        "lower" => MapFunc::StrLower,
        "add" => MapFunc::NumericAdd(d.f64()?),
        "mul" => MapFunc::NumericMul(d.f64()?),
        "cast" => MapFunc::Cast(d.list(9, |d| Ok((d.cell()?, dec_domain(d)?)))?),
        "parseraw" => MapFunc::ParseRaw,
        "norm" => MapFunc::NormalizeNumeric,
        "onehot" => {
            let column = d.cell()?;
            let categories = d.cells()?;
            MapFunc::OneHot { column, categories }
        }
        "pivot" => {
            let label_source = d.cell()?;
            let value_source = d.cell()?;
            let output_labels = d.cells()?;
            MapFunc::PivotFlatten {
                label_source,
                value_source,
                output_labels,
            }
        }
        "projvals" => MapFunc::ProjectValues(dec_selector(d)?),
        other => return Err(d.corrupt(format!("band task: unknown map tag {other:?}"))),
    })
}

fn dec_domain(d: &mut ByteReader<'_>) -> DfResult<Domain> {
    let name = d.str()?;
    Domain::from_name(name).ok_or_else(|| d.corrupt(format!("band task: unknown domain {name:?}")))
}

fn agg_name(func: &AggFunc) -> &'static str {
    match func {
        AggFunc::Count => "count",
        AggFunc::CountNonNull => "countnn",
        AggFunc::Sum => "sum",
        AggFunc::Mean => "mean",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
        AggFunc::Std => "std",
        AggFunc::First => "first",
        AggFunc::Last => "last",
        AggFunc::Collect => "collect",
    }
}

fn dec_agg_func(d: &mut ByteReader<'_>) -> DfResult<AggFunc> {
    Ok(match d.str()? {
        "count" => AggFunc::Count,
        "countnn" => AggFunc::CountNonNull,
        "sum" => AggFunc::Sum,
        "mean" => AggFunc::Mean,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "std" => AggFunc::Std,
        "first" => AggFunc::First,
        "last" => AggFunc::Last,
        "collect" => AggFunc::Collect,
        other => return Err(d.corrupt(format!("band task: unknown aggregate {other:?}"))),
    })
}

fn enc_aggregation(e: &mut ByteWriter, agg: &Aggregation) {
    enc_opt(e, &agg.column, ByteWriter::cell);
    e.str(agg_name(&agg.func));
    enc_opt(e, &agg.alias, ByteWriter::cell);
}

fn dec_aggregation(d: &mut ByteReader<'_>) -> DfResult<Aggregation> {
    let column = if d.bool()? { Some(d.cell()?) } else { None };
    let func = dec_agg_func(d)?;
    let alias = if d.bool()? { Some(d.cell()?) } else { None };
    Ok(Aggregation {
        column,
        func,
        alias,
    })
}

fn enc_key(e: &mut ByteWriter, key: &ShuffleKey) {
    match key {
        ShuffleKey::Positions(positions) => {
            e.str("pos");
            e.list(positions, |e, &p| e.count(p));
        }
        ShuffleKey::RowLabels => e.str("rowlabels"),
    }
}

fn dec_key(d: &mut ByteReader<'_>) -> DfResult<ShuffleKey> {
    Ok(match d.str()? {
        "pos" => ShuffleKey::Positions(d.list(8, ByteReader::count)?),
        "rowlabels" => ShuffleKey::RowLabels,
        other => return Err(d.corrupt(format!("band task: unknown shuffle key tag {other:?}"))),
    })
}

fn enc_opt<T>(e: &mut ByteWriter, value: &Option<T>, some: impl FnOnce(&mut ByteWriter, &T)) {
    match value {
        Some(v) => {
            e.bool(true);
            some(e, v);
        }
        None => e.bool(false),
    }
}

fn enc_mapping(e: &mut ByteWriter, mapping: &[(Cell, Cell)]) {
    e.list(mapping, |e, (old, new)| {
        e.cell(old);
        e.cell(new);
    });
}

fn enc_sort(e: &mut ByteWriter, spec: &SortSpec) {
    e.cells(&spec.by);
    e.list(&spec.ascending, |e, &asc| e.bool(asc));
    e.bool(spec.stable);
}

fn enc_csv_options(e: &mut ByteWriter, options: &CsvOptions) {
    e.str(&options.delimiter.to_string());
    e.bool(options.has_header);
    e.bool(options.infer_schema);
}

fn enc_window(e: &mut ByteWriter, func: &WindowFunc) {
    match func {
        WindowFunc::CumSum => e.str("cumsum"),
        WindowFunc::CumMax => e.str("cummax"),
        WindowFunc::CumMin => e.str("cummin"),
        WindowFunc::Diff { lag } => {
            e.str("diff");
            e.count(*lag);
        }
        WindowFunc::Shift { offset } => {
            e.str("shift");
            e.u64(*offset as u64);
        }
        WindowFunc::RollingMean { size } => {
            e.str("rollmean");
            e.count(*size);
        }
        WindowFunc::RollingSum { size } => {
            e.str("rollsum");
            e.count(*size);
        }
    }
}

/// Write a logical plan: each node ([`enc_node`]), then its children in order, so
/// every sub-plan's encoding is a run of its ancestors'. Nothing decodes a plan, so
/// closures are written like any value and portability is not asked.
pub(crate) fn enc_plan(e: &mut ByteWriter, expr: &AlgebraExpr) {
    enc_node(e, expr);
    for child in expr.children() {
        enc_plan(e, child);
    }
}

/// Write one plan node without its children: its [`AlgebraExpr::name`] and
/// parameters. Literal and handle leaves are written by address; a scan leaf by its
/// source, its file-state identity and its pushdowns.
pub(crate) fn enc_node(e: &mut ByteWriter, expr: &AlgebraExpr) {
    e.str(expr.name());
    match expr {
        AlgebraExpr::Literal(df) => e.u64(Arc::as_ptr(df) as usize as u64),
        AlgebraExpr::Handle(handle) => e.u64(handle.identity() as usize as u64),
        AlgebraExpr::ScanCsv(scan) => {
            enc_scan_state(e, scan);
            enc_opt(e, &scan.projection, |e, columns| e.cells(columns));
            enc_opt(e, &scan.predicate, |e, p| {
                enc_predicate(e, p);
            });
            enc_opt(e, &scan.limit, |e, &(k, from_end)| {
                e.count(k);
                e.bool(from_end);
            });
        }
        AlgebraExpr::Selection { predicate, .. } => {
            enc_predicate(e, predicate);
        }
        AlgebraExpr::Projection { columns, .. } => enc_selector(e, columns),
        AlgebraExpr::Union { .. }
        | AlgebraExpr::Difference { .. }
        | AlgebraExpr::CrossProduct { .. }
        | AlgebraExpr::DropDuplicates { .. }
        | AlgebraExpr::Transpose { .. } => {}
        AlgebraExpr::Join { on, how, .. } => {
            match on {
                JoinOn::Columns(columns) => {
                    e.str("columns");
                    e.cells(columns);
                }
                JoinOn::RowLabels => e.str("rowlabels"),
            }
            e.str(match how {
                JoinType::Inner => "inner",
                JoinType::Left => "left",
                JoinType::Outer => "outer",
            });
        }
        AlgebraExpr::GroupBy {
            keys,
            aggs,
            keys_as_labels,
            ..
        } => {
            e.cells(keys);
            e.list(aggs, enc_aggregation);
            e.bool(*keys_as_labels);
        }
        AlgebraExpr::Sort { spec, .. } => enc_sort(e, spec),
        AlgebraExpr::Rename { mapping, .. } => enc_mapping(e, mapping),
        AlgebraExpr::Window { columns, func, .. } => {
            enc_selector(e, columns);
            enc_window(e, func);
        }
        AlgebraExpr::Map { func, .. } => {
            enc_map(e, func);
        }
        AlgebraExpr::ToLabels { column, .. } => e.cell(column),
        AlgebraExpr::FromLabels { new_column, .. } => e.cell(new_column),
        AlgebraExpr::Limit { k, from_end, .. } => {
            e.count(*k);
            e.bool(*from_end);
        }
    }
}

/// The part of a scan leaf's encoding that names its file and parse options and not
/// the file's state: what every version of one CSV statement shares.
pub(crate) fn enc_scan_source(e: &mut ByteWriter, scan: &ScanCsv) {
    // `Debug` escapes a path's non-UTF-8 bytes, so unlike a lossy conversion it never
    // gives two paths one string.
    e.str(&format!("{:?}", scan.path));
    enc_csv_options(e, &csv_options(scan.options));
}

/// The part of a scan leaf's encoding that names one state of its file: the source,
/// then the identity of the file's state, without the pushdowns.
pub(crate) fn enc_scan_state(e: &mut ByteWriter, scan: &ScanCsv) {
    enc_scan_source(e, scan);
    e.str(scan.identity());
}

/// The bytes of [`enc_scan_state`] alone: the engine caches scan statistics by them,
/// which every pushed-down variant of one file state shares.
pub(crate) fn scan_state(scan: &ScanCsv) -> Vec<u8> {
    let mut e = ByteWriter::default();
    enc_scan_state(&mut e, scan);
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell;

    fn sample_tasks() -> Vec<BandTask> {
        vec![
            BandTask::Selection(Predicate::And(
                Box::new(Predicate::ColCmp {
                    column: cell("a"),
                    op: CmpOp::Gt,
                    value: cell(1.5f64),
                }),
                Box::new(Predicate::Not(Box::new(Predicate::Or(
                    Box::new(Predicate::IsNull { column: cell("b") }),
                    Box::new(Predicate::PositionRange { start: 2, end: 9 }),
                )))),
            )),
            BandTask::Selection(Predicate::True),
            BandTask::Projection(ColumnSelector::ByLabels(vec![cell("x"), cell(3)])),
            BandTask::Projection(ColumnSelector::ByPositions(vec![2, 0, 1])),
            BandTask::Projection(ColumnSelector::Excluding(vec![cell("weird\ncol")])),
            BandTask::Rename(vec![(cell("old"), cell("new")), (cell(1), cell("one"))]),
            BandTask::Map(MapFunc::FillNull(cell("∅"))),
            BandTask::Map(MapFunc::NumericMul(f64::from_bits(0x7ff8_0000_dead_beef))),
            BandTask::Map(MapFunc::Cast(vec![
                (cell("a"), Domain::Int),
                (cell("b"), Domain::Float),
            ])),
            BandTask::Map(MapFunc::OneHot {
                column: cell("city"),
                categories: vec![cell("oslo"), cell("lima")],
            }),
            BandTask::Map(MapFunc::ProjectValues(ColumnSelector::Numeric)),
            BandTask::GroupPartial {
                keys: vec![cell("k")],
                aggs: vec![
                    Aggregation::count_rows(),
                    Aggregation::of("v", AggFunc::Sum).with_alias("total"),
                    Aggregation::of("v", AggFunc::CountNonNull),
                ],
            },
            BandTask::HashSplit {
                key: ShuffleKey::Positions(vec![0, 2]),
                parts: 7,
            },
            BandTask::HashSplit {
                key: ShuffleKey::RowLabels,
                parts: 1,
            },
            BandTask::Concat,
            BandTask::SortBand(SortSpec {
                by: vec![cell("a"), cell("b")],
                ascending: vec![true, false],
                stable: true,
            }),
            BandTask::CsvChunk {
                path: "/tmp/with spaces:and colons.csv".into(),
                options: CsvOptions {
                    delimiter: ';',
                    has_header: true,
                    infer_schema: false,
                },
                header: Some(vec!["a".into(), "b c".into()]),
                n_cols: 2,
                total_rows: 100,
                total_bytes: 4096,
                chunk: CsvChunk {
                    start_byte: 17,
                    end_byte: 201,
                    rows: 9,
                    start_row: 4,
                },
            },
            BandTask::CsvChunk {
                path: "plain.csv".into(),
                options: CsvOptions::default(),
                header: None,
                n_cols: 3,
                total_rows: 4,
                total_bytes: 24,
                chunk: CsvChunk {
                    start_byte: 0,
                    end_byte: 24,
                    rows: 4,
                    start_row: 0,
                },
            },
            BandTask::ApplyDomains(vec![Domain::Int, Domain::Str, Domain::Bool]),
        ]
    }

    #[test]
    fn every_serialisable_task_round_trips() {
        for task in sample_tasks() {
            let encoded = task.encode().expect("sample tasks are remote-safe");
            let decoded = BandTask::decode(&encoded)
                .unwrap_or_else(|err| panic!("decode failed for {task:?}: {err}"));
            // BandTask cannot derive PartialEq (MapFunc/Predicate carry closures in
            // other variants), so equality is pinned by re-encoding.
            assert_eq!(
                decoded.encode().expect("decoded task stays remote-safe"),
                encoded,
                "re-encode mismatch for {task:?}"
            );
        }
    }

    #[test]
    fn closure_tasks_are_not_remote_safe() {
        let custom_pred = BandTask::Selection(Predicate::Custom {
            name: "udf".into(),
            func: Arc::new(|_| true),
        });
        let custom_map = BandTask::Map(MapFunc::PerCell {
            name: "udf".into(),
            func: Arc::new(|c| c.clone()),
        });
        for task in [custom_pred, custom_map] {
            assert!(task.encode().is_none());
        }
        // Closures nested inside combinators are caught too.
        let nested = BandTask::Selection(Predicate::Not(Box::new(Predicate::Custom {
            name: "udf".into(),
            func: Arc::new(|_| false),
        })));
        assert!(nested.encode().is_none());
    }

    #[test]
    fn decoding_garbage_is_typed_corruption() {
        let concat = BandTask::Concat.encode().unwrap();
        let sort = BandTask::SortBand(SortSpec::ascending(vec![cell("a"), cell(2)]))
            .encode()
            .unwrap();
        let mut cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"zzz".to_vec(),
            [&3u64.to_le_bytes()[..], b"zzz"].concat(), // unknown tag
            [&u64::MAX.to_le_bytes()[..], b"sel"].concat(), // lying tag length
            [&concat[..], b"trailing!"].concat(),
        ];
        // Every proper prefix of a valid descriptor is malformed too.
        cases.extend((0..sort.len()).map(|cut| sort[..cut].to_vec()));
        for raw in cases {
            match BandTask::decode(&raw) {
                Err(DfError::SpillCorruption { site, .. }) => assert_eq!(site, EXCHANGE_SITE),
                other => panic!("raw {raw:?} should be corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn decoded_tasks_compute_the_same_function() {
        let frame = DataFrame::from_rows(
            vec![cell("k"), cell("v")],
            vec![
                vec![cell("a"), cell(1)],
                vec![cell("b"), cell(2)],
                vec![cell("a"), cell(3)],
            ],
        )
        .unwrap();
        let task = BandTask::GroupPartial {
            keys: vec![cell("k")],
            aggs: vec![Aggregation::of("v", AggFunc::Sum)],
        };
        let direct = task.run(vec![frame.clone()]).unwrap();
        let decoded = BandTask::decode(&task.encode().unwrap()).unwrap();
        let via_wire = decoded.run(vec![frame]).unwrap();
        assert_eq!(direct.len(), via_wire.len());
        assert!(direct[0].same_data(&via_wire[0]));
    }
}
