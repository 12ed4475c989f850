//! The pandas-style user API.
//!
//! Paper §3.1/§3.3: MODIN keeps the pandas surface ("users can simply invoke `import
//! modin.pandas`") but *rewrites every API call into a sequence of operators in the
//! compact dataframe algebra*, so that only the small operator kernel needs to be
//! optimised. [`PandasFrame`] does exactly that: each method builds an
//! [`AlgebraExpr`]; the session's engine (scalable, baseline or reference) executes it.
//!
//! The frame is *genuinely lazy* (§6.1): methods only build the expression DAG and
//! (depending on the session's evaluation mode) schedule it. Real dataframes exist
//! only at the materialisation points — [`PandasFrame::collect`],
//! [`PandasFrame::head`] / [`PandasFrame::tail`], and the CSV writes — where the
//! optimizer pass runs once over the whole pipeline. A frame is nothing but its
//! logical plan and that plan's memoised [`PlanKey`], so the plan is encoded once per
//! statement however often it is submitted, collected or inspected. How the plan runs
//! is the session's business: on a miss it rebases the plan onto whatever sub-plans
//! are cached by then (a chain of statements crosses each boundary as an engine-owned
//! partitioned [`FrameHandle`] — no assembly, no re-execution of the prefix), and it
//! recovers a statement whose spilled state is corrupt from the same plan.
//!
//! Methods deliberately mirror familiar pandas names (`fillna`, `isna`, `get_dummies`,
//! `merge`, `groupby`, `pivot`, `set_index`, `reset_index`, `sort_values`, `cov`, …)
//! and the Table 2 / §4.4 rewrites are encoded in their bodies; `crate::rewrite`
//! documents the mapping in data form for the Table 2 experiment.

use std::sync::{Arc, OnceLock};

use df_types::cell::{Cell, CellKey};
use df_types::domain::Domain;
use df_types::error::{DfError, DfResult};

use df_core::algebra::{
    AggFunc, Aggregation, AlgebraExpr, CmpOp, ColumnSelector, JoinOn, JoinType, MapFunc, Predicate,
    RowView, SortSpec, WindowFunc,
};
use df_core::dataframe::DataFrame;
use df_core::handle::FrameHandle;
use df_core::{correlation, covariance};
use df_storage::csv::{read_csv_path, read_csv_str, write_csv_path, write_csv_string, CsvOptions};

use df_engine::session::EvalMode;
use df_engine::{PivotPlan, PlanKey};

use crate::session::Session;

/// A lazily described dataframe bound to a [`Session`].
#[derive(Clone)]
pub struct PandasFrame {
    session: Arc<Session>,
    /// The logical plan. A derived frame's plan holds its parent's by pointer.
    expr: Arc<AlgebraExpr>,
    /// Memoised key of `expr`. Shared across clones so the (potentially deep) plan is
    /// encoded at most once per statement.
    key: Arc<OnceLock<PlanKey>>,
}

impl PandasFrame {
    // ------------------------------------------------------------------ construction

    fn from_expr(session: Arc<Session>, expr: impl Into<Arc<AlgebraExpr>>) -> PandasFrame {
        PandasFrame {
            session,
            expr: expr.into(),
            key: Arc::new(OnceLock::new()),
        }
    }

    /// Wrap an existing dataframe value. A submit-time failure (e.g. spill-store
    /// I/O under an eager out-of-core session) is *recorded* on the session
    /// ([`SessionStats::submit_errors`](df_engine::session::SessionStats), \
    /// [`df_engine::session::QuerySession::take_last_submit_error`]) and surfaces
    /// again at the frame's next materialisation point; use
    /// [`PandasFrame::try_from_dataframe`] to propagate it immediately.
    pub fn from_dataframe(session: &Arc<Session>, df: DataFrame) -> PandasFrame {
        PandasFrame::from_expr(Arc::clone(session), AlgebraExpr::literal(df)).submitted()
    }

    /// Wrap an existing dataframe value, propagating any submit-time error.
    pub fn try_from_dataframe(session: &Arc<Session>, df: DataFrame) -> DfResult<PandasFrame> {
        let frame = PandasFrame::from_expr(Arc::clone(session), AlgebraExpr::literal(df));
        frame.submit()?;
        Ok(frame)
    }

    /// Build a frame from column labels and row-major data (like `pd.DataFrame(...)`).
    pub fn from_rows(
        session: &Arc<Session>,
        columns: Vec<&str>,
        rows: Vec<Vec<Cell>>,
    ) -> DfResult<PandasFrame> {
        PandasFrame::try_from_dataframe(session, DataFrame::from_rows(columns, rows)?)
    }

    /// Build a frame from column labels and per-column cell vectors.
    pub fn from_columns(
        session: &Arc<Session>,
        columns: Vec<&str>,
        data: Vec<Vec<Cell>>,
    ) -> DfResult<PandasFrame> {
        PandasFrame::try_from_dataframe(session, DataFrame::from_columns(columns, data)?)
    }

    /// `pd.read_csv` over an in-memory document. The result is untyped (raw `Σ*`)
    /// unless `options.infer_schema` is set; the engine induces domains on demand.
    pub fn read_csv_str(
        session: &Arc<Session>,
        content: &str,
        options: &CsvOptions,
    ) -> DfResult<PandasFrame> {
        PandasFrame::try_from_dataframe(session, read_csv_str(content, options)?)
    }

    /// `pd.read_csv` over a file on disk.
    ///
    /// On a MODIN-backed session the statement is a `SCAN_CSV` algebra leaf, submitted
    /// like any other: an eager session parses the file now, chunk-by-chunk on the
    /// engine's worker pool into a partitioned [`FrameHandle`] (under a memory budget
    /// each finished band goes through the spill store) and propagates any error; a
    /// lazy session keeps the read *symbolic*, so the optimizer can fold later
    /// SELECTIONs, PROJECTIONs and LIMITs into the scan — skipping chunks via min/max
    /// statistics and parsing only the referenced columns. The leaf names the file's
    /// state — `path + options + file identity (mtime, length, inode/ctime on Unix)` —
    /// so re-reading an unchanged file is a cache hit, derived statements rebase onto
    /// the cached scan result, and a regenerated file is a new key whose result, once
    /// published, evicts every cached scan of the superseded version, pushed down or
    /// not. A statement built on a frame read before the file changed is served while
    /// its results are cached; once it has to read the file again it fails with
    /// [`DfError::Io`] instead of reading the new contents. Non-MODIN sessions fall
    /// back to the serial reader (the results are cell-for-cell identical either way).
    ///
    /// ```
    /// use df_pandas::{PandasFrame, Session};
    /// use df_storage::csv::CsvOptions;
    ///
    /// let dir = std::env::temp_dir().join(format!("df_pandas_doc_{}", std::process::id()));
    /// std::fs::create_dir_all(&dir)?;
    /// let path = dir.join("sales.csv");
    /// std::fs::write(&path, "region,amount\nnorth,12\nsouth,30\nnorth,5\n")?;
    ///
    /// let session = Session::modin();
    /// let sales = PandasFrame::read_csv_path(&session, &path, &CsvOptions::default())?;
    /// assert_eq!(sales.shape()?, (3, 2));
    /// // Re-reading the unchanged file is served from the session cache.
    /// let again = PandasFrame::read_csv_path(&session, &path, &CsvOptions::default())?;
    /// assert_eq!(again.collect()?.n_rows(), 3);
    /// assert!(session.stats().cache_hits >= 1);
    /// std::fs::remove_file(&path)?;
    /// # Ok::<(), df_types::error::DfError>(())
    /// ```
    pub fn read_csv_path(
        session: &Arc<Session>,
        path: impl AsRef<std::path::Path>,
        options: &CsvOptions,
    ) -> DfResult<PandasFrame> {
        let path = path.as_ref();
        if session.modin_engine().is_none() {
            return PandasFrame::try_from_dataframe(session, read_csv_path(path, options)?);
        }
        let scan = AlgebraExpr::scan_csv(df_engine::file_scan(path, options)?);
        let frame = PandasFrame::from_expr(Arc::clone(session), scan);
        frame.submit()?;
        Ok(frame)
    }

    /// Derive a new statement by applying `build` to this frame's logical plan. The
    /// new plan holds this one by pointer: `build` runs over a stand-in leaf, which
    /// [`splice`] then swaps for this plan, so no node below the new ones is copied.
    /// Submit-time errors are recorded on the session and resurface at the next
    /// materialisation point.
    fn derive(&self, build: impl FnOnce(AlgebraExpr) -> AlgebraExpr) -> Self {
        let stand_in = Arc::new(DataFrame::empty());
        let built = Arc::new(build(AlgebraExpr::literal_arc(Arc::clone(&stand_in))));
        let plan = splice(&built, &stand_in, &self.expr);
        PandasFrame::from_expr(Arc::clone(&self.session), plan).submitted()
    }

    /// Schedule this statement. A lazy submit records nothing but the statement
    /// itself, so it skips keying a plan the scheduler would discard.
    fn submit(&self) -> DfResult<()> {
        if self.session.mode() == EvalMode::Lazy {
            self.session.query().note_statement();
            return Ok(());
        }
        self.session.query().submit(self.key())
    }

    /// [`PandasFrame::submit`], recording a failure on the session.
    fn submitted(self) -> Self {
        if let Err(err) = self.submit() {
            self.session.query().record_submit_error(err);
        }
        self
    }

    // ------------------------------------------------------------------ inspection

    /// The algebra expression this frame denotes (exposed for tests and plan display):
    /// always the full logical pipeline, however the session executes it.
    pub fn expr(&self) -> &AlgebraExpr {
        &self.expr
    }

    fn key(&self) -> &PlanKey {
        self.key.get_or_init(|| PlanKey::of(&self.expr))
    }

    /// The session this frame is bound to.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// The engine-owned result handle for this frame — executing it now if the
    /// session has not already. The handle stays partitioned (and spill-backed under
    /// a memory budget) until a materialisation point consumes it.
    pub fn handle(&self) -> DfResult<FrameHandle> {
        self.session.query().handle(self.key())
    }

    /// Materialisation point: the full result as a dataframe.
    pub fn collect(&self) -> DfResult<DataFrame> {
        self.session.query().collect(self.key())
    }

    /// `(rows, columns)` of the result — from handle metadata when the statement
    /// already executed (no assembly), otherwise via the engine.
    pub fn shape(&self) -> DfResult<(usize, usize)> {
        Ok(self.handle()?.shape())
    }

    /// The first `k` rows, using the engine's prefix-prioritised path (§6.1.2).
    pub fn head(&self, k: usize) -> DfResult<DataFrame> {
        self.session.query().head(self.key(), k)
    }

    /// The last `k` rows.
    pub fn tail(&self, k: usize) -> DfResult<DataFrame> {
        self.session.query().tail(self.key(), k)
    }

    /// The tabular view (prefix and suffix) the paper's Figure 1 shows after each step.
    pub fn display(&self, peek: usize) -> DfResult<String> {
        Ok(self.collect()?.display_with(peek))
    }

    /// The engine's optimizer report for this statement: the logical and optimized
    /// plans annotated with estimated rows/bytes per node, which pushdowns fired
    /// (predicates/projections into scans, fused selections, eliminated transpose
    /// pairs, pushed limits), the planned join strategies, and whether the result is
    /// already cached. Purely observational — nothing executes and no counters move.
    ///
    /// ```
    /// use df_pandas::{PandasFrame, Session};
    /// use df_engine::engine::ModinConfig;
    /// use df_engine::session::EvalMode;
    /// use df_engine::PlanKey;
    /// use df_storage::csv::CsvOptions;
    ///
    /// let dir = std::env::temp_dir().join(format!("df_explain_doc_{}", std::process::id()));
    /// std::fs::create_dir_all(&dir)?;
    /// let path = dir.join("trips.csv");
    /// let mut content = String::from("trip_id,fare,vendor,tip\n");
    /// for i in 0..64 {
    ///     content.push_str(&format!("{i},{}.5,v{},{}\n", i % 20, i % 3, i % 4));
    /// }
    /// std::fs::write(&path, content)?;
    ///
    /// // Lazy MODIN session: the read stays a SCAN_CSV leaf the optimizer can fold
    /// // later operators into.
    /// let session = Session::modin_with(
    ///     ModinConfig::default().with_partition_size(16, 8),
    ///     EvalMode::Lazy,
    /// );
    /// let options = CsvOptions { infer_schema: true, ..CsvOptions::default() };
    /// let trips = PandasFrame::read_csv_path(&session, &path, &options)?;
    /// let narrow = trips.filter_gt("trip_id", 55)?.select(&["fare", "trip_id"]);
    ///
    /// let report = narrow.explain();
    /// assert!(report.contains("== logical plan =="));
    /// assert!(report.contains("== optimized plan =="));
    /// assert!(report.contains("SCAN_CSV"));
    /// assert!(report.contains("predicates pushed into scans: 1"));
    /// assert!(report.contains("projections pushed into scans: 1"));
    /// assert!(report.contains("result not cached"));
    /// // The first look at the file — the plan `trips.head(10)` runs — folds its LIMIT
    /// // into the scan leaf too, so only the chunks ten rows come from are parsed.
    /// let first_look_plan = trips.expr().clone().limit(10, false);
    /// let first_look = session.query().explain(&PlanKey::of(&first_look_plan));
    /// assert!(first_look.contains(
    ///     "SCAN_CSV trips.csv limit⇩[first 10] (1/4 chunks)  [~10 rows × 4 cols, ~127 B]"
    /// ));
    /// assert!(first_look.contains("limits pushed: 1"));
    /// // explain() executed nothing…
    /// assert_eq!(session.stats().executions, 0);
    /// // …and the pushed plan really skips chunks and prunes columns when it runs.
    /// assert_eq!(narrow.collect()?.shape(), (8, 2));
    /// let stats = session.stats();
    /// assert!(stats.chunks_skipped > 0);
    /// assert!(stats.columns_pruned > 0);
    /// assert!(narrow.explain().contains("result cached"));
    /// std::fs::remove_file(&path)?;
    /// # Ok::<(), df_types::error::DfError>(())
    /// ```
    pub fn explain(&self) -> String {
        self.session.query().explain(self.key())
    }

    /// Column label → known domain for every column, from handle metadata only —
    /// like [`PandasFrame::shape`], nothing is loaded or assembled, even when the
    /// result is a fully spilled partition grid. `None` per slot for a column whose
    /// schema induction is still deferred, or `None` overall when the handle's
    /// metadata cannot answer (a deferred transpose); use [`PandasFrame::dtypes`]
    /// when every domain must be resolved.
    pub fn schema(&self) -> DfResult<Option<df_core::FrameSchema>> {
        Ok(self.handle()?.schema())
    }

    /// Column label → domain for every column whose domain is known or inducible
    /// (pandas `dtypes`). Answered from handle metadata when every column's domain
    /// is already known — a spill-backed ingest reports its dtypes without loading
    /// a single band back — and by inducing on the materialised frame otherwise.
    pub fn dtypes(&self) -> DfResult<Vec<(Cell, Domain)>> {
        if let Some(schema) = self.handle()?.schema() {
            let known: Option<Vec<_>> = schema.into_iter().map(|(l, d)| Some((l, d?))).collect();
            if let Some(known) = known {
                return Ok(known);
            }
        }
        // Some column's domain is still unknown (raw Σ* data, or a handle without
        // schema metadata): induce on the materialised frame.
        let mut df = self.collect()?;
        let domains = df.resolve_schema();
        Ok(df
            .col_labels()
            .as_slice()
            .iter()
            .cloned()
            .zip(domains)
            .collect())
    }

    /// Positional single-cell read (`df.iloc[i, j]`).
    pub fn iloc(&self, row: usize, col: usize) -> DfResult<Cell> {
        Ok(self.collect()?.cell(row, col)?.clone())
    }

    /// Positional point update (`df.iloc[i, j] = value`) — workflow step C1. Eager by
    /// necessity: the frame is materialised, patched, and becomes a new literal.
    pub fn iloc_set(
        &self,
        row: usize,
        col: usize,
        value: impl Into<Cell>,
    ) -> DfResult<PandasFrame> {
        let mut df = self.collect()?;
        df.set_cell(row, col, value.into())?;
        PandasFrame::try_from_dataframe(&self.session, df)
    }

    /// Materialisation point: serialise the frame as CSV.
    pub fn to_csv_string(&self) -> DfResult<String> {
        write_csv_string(&self.collect()?, &CsvOptions::default())
    }

    /// Materialisation point: write the frame to a CSV file on disk.
    ///
    /// A partitioned result (a MODIN session's handle) is streamed *band by band* —
    /// each band is materialised, written, and dropped before the next is touched —
    /// so a larger-than-memory result is written without ever being assembled.
    /// Materialised handles fall back to a plain whole-frame write.
    pub fn write_csv_path(&self, path: impl AsRef<std::path::Path>) -> DfResult<()> {
        let options = CsvOptions::default();
        let handle = self.handle()?;
        if let FrameHandle::Partitioned(result) = &handle {
            if let Some(grid_result) = result.as_any().downcast_ref::<df_engine::GridResult>() {
                return write_grid_csv(grid_result.grid(), path.as_ref(), &options);
            }
        }
        write_csv_path(&handle.into_dataframe()?, path, &options)
    }

    // ------------------------------------------------------------------ selection

    /// SELECTION with an arbitrary predicate.
    pub fn filter(&self, predicate: Predicate) -> PandasFrame {
        self.derive(|base| base.select(predicate))
    }

    /// Keep rows where `column > value`.
    pub fn filter_gt(&self, column: &str, value: impl Into<Cell>) -> DfResult<PandasFrame> {
        Ok(self.filter(Predicate::ColCmp {
            column: Cell::Str(column.into()),
            op: CmpOp::Gt,
            value: value.into(),
        }))
    }

    /// Keep rows where `column == value`.
    pub fn filter_eq(&self, column: &str, value: impl Into<Cell>) -> DfResult<PandasFrame> {
        Ok(self.filter(Predicate::ColCmp {
            column: Cell::Str(column.into()),
            op: CmpOp::Eq,
            value: value.into(),
        }))
    }

    /// Drop rows with a null in any of the given columns (pandas `dropna(subset=...)`),
    /// or in any column at all when `subset` is empty.
    pub fn dropna(&self, subset: &[&str]) -> DfResult<PandasFrame> {
        let columns: Vec<Cell> = if subset.is_empty() {
            self.collect()?.col_labels().as_slice().to_vec()
        } else {
            subset.iter().map(|s| Cell::Str((*s).into())).collect()
        };
        let mut predicate = Predicate::True;
        for column in columns {
            predicate =
                Predicate::And(Box::new(predicate), Box::new(Predicate::NotNull { column }));
        }
        Ok(self.filter(predicate))
    }

    /// Rows `start..end` by position.
    pub fn slice(&self, start: usize, end: usize) -> PandasFrame {
        self.filter(Predicate::PositionRange { start, end })
    }

    /// PROJECTION onto the named columns (`df[["a", "b"]]`).
    pub fn select(&self, columns: &[&str]) -> PandasFrame {
        let labels: Vec<Cell> = columns.iter().map(|c| Cell::Str((*c).into())).collect();
        self.derive(|base| base.project(ColumnSelector::ByLabels(labels)))
    }

    /// A single column as a one-column frame (`df["a"]`).
    pub fn column(&self, column: &str) -> PandasFrame {
        self.select(&[column])
    }

    /// Drop the named columns (pandas `drop(columns=...)`).
    pub fn drop_columns(&self, columns: &[&str]) -> PandasFrame {
        let labels: Vec<Cell> = columns.iter().map(|c| Cell::Str((*c).into())).collect();
        self.derive(|base| base.project(ColumnSelector::Excluding(labels)))
    }

    /// Keep only numeric columns (what `cov`, `corr` and `describe` operate on).
    pub fn select_numeric(&self) -> PandasFrame {
        self.derive(|base| base.project(ColumnSelector::Numeric))
    }

    // ------------------------------------------------------------------ transformation

    /// Replace nulls (pandas `fillna`) — Table 2: a MAP.
    pub fn fillna(&self, value: impl Into<Cell>) -> PandasFrame {
        let value = value.into();
        self.derive(|base| base.map(MapFunc::FillNull(value)))
    }

    /// Null-indicator mask (pandas `isna`) — Table 2: a MAP.
    pub fn isna(&self) -> PandasFrame {
        self.derive(|base| base.map(MapFunc::IsNullMask))
    }

    /// Alias of [`PandasFrame::isna`] (pandas `isnull`).
    pub fn isnull(&self) -> PandasFrame {
        self.isna()
    }

    /// Upper-case every string cell (pandas `str.upper` applied frame-wide).
    pub fn str_upper(&self) -> PandasFrame {
        self.derive(|base| base.map(MapFunc::StrUpper))
    }

    /// Cast a column to a domain (pandas `astype`).
    pub fn astype(&self, column: &str, domain: Domain) -> PandasFrame {
        let cast = MapFunc::Cast(vec![(Cell::Str(column.into()), domain)]);
        self.derive(|base| base.map(cast))
    }

    /// Parse raw string columns into their induced domains (explicit schema induction).
    pub fn infer_types(&self) -> PandasFrame {
        self.derive(|base| base.map(MapFunc::ParseRaw))
    }

    /// Apply a per-cell function to one column, leaving the others untouched — the
    /// workflow step C3 `map` (e.g. Yes/No → 1/0).
    pub fn map_column(
        &self,
        column: &str,
        name: &str,
        f: impl Fn(&Cell) -> Cell + Send + Sync + 'static,
    ) -> DfResult<PandasFrame> {
        let labels = self.collect()?.col_labels().as_slice().to_vec();
        let target = Cell::Str(column.into());
        let target_key = target.group_key();
        if !labels.iter().any(|l| l.group_key() == target_key) {
            return Err(DfError::column_not_found(column));
        }
        let func = MapFunc::Custom {
            name: format!("map_column({column}, {name})"),
            output_labels: labels,
            output_domains: None,
            func: Arc::new(move |row: RowView<'_>| {
                row.col_labels
                    .iter()
                    .zip(row.cells.iter())
                    .map(|(label, value)| {
                        if label.group_key() == target_key {
                            f(value)
                        } else {
                            (*value).clone()
                        }
                    })
                    .collect()
            }),
        };
        Ok(self.derive(|base| base.map(func)))
    }

    /// Apply an arbitrary row function producing named output columns (pandas `apply`).
    pub fn apply_rows(
        &self,
        name: &str,
        output_columns: Vec<&str>,
        f: impl Fn(RowView<'_>) -> Vec<Cell> + Send + Sync + 'static,
    ) -> PandasFrame {
        let output_labels: Vec<Cell> = output_columns
            .into_iter()
            .map(|c| Cell::Str(c.into()))
            .collect();
        let func = MapFunc::Custom {
            name: name.to_string(),
            output_labels,
            output_domains: None,
            func: Arc::new(f),
        };
        self.derive(|base| base.map(func))
    }

    /// Apply a per-cell function to every cell (pandas `applymap` / `transform`).
    pub fn transform_cells(
        &self,
        name: &str,
        f: impl Fn(&Cell) -> Cell + Send + Sync + 'static,
    ) -> PandasFrame {
        let func = MapFunc::PerCell {
            name: name.to_string(),
            func: Arc::new(f),
        };
        self.derive(|base| base.map(func))
    }

    /// Rename columns (pandas `rename(columns=...)`).
    pub fn rename(&self, mapping: &[(&str, &str)]) -> PandasFrame {
        let mapping: Vec<(Cell, Cell)> = mapping
            .iter()
            .map(|(old, new)| (Cell::Str((*old).into()), Cell::Str((*new).into())))
            .collect();
        self.derive(|base| base.rename(mapping))
    }

    /// One-hot encode the given columns (pandas `get_dummies`); with an empty list,
    /// every non-numeric column is encoded. §5.2.3 notes the output arity is
    /// data-dependent: the categories are discovered with a DISTINCT sub-query first.
    pub fn get_dummies(&self, columns: &[&str]) -> DfResult<PandasFrame> {
        let materialised = self.collect()?;
        let targets: Vec<Cell> = if columns.is_empty() {
            materialised
                .col_labels()
                .as_slice()
                .iter()
                .enumerate()
                .filter(|(j, _)| !materialised.columns()[*j].peek_domain().is_numeric())
                .map(|(_, l)| l.clone())
                .collect()
        } else {
            columns.iter().map(|c| Cell::Str((*c).into())).collect()
        };
        let mut encodings: Vec<MapFunc> = Vec::with_capacity(targets.len());
        for target in targets {
            let categories = self.distinct_values_of(&target)?;
            encodings.push(MapFunc::OneHot {
                column: target,
                categories,
            });
        }
        Ok(self.derive(|base| encodings.into_iter().fold(base, AlgebraExpr::map)))
    }

    // ------------------------------------------------------------------ reshaping

    /// TRANSPOSE (pandas `.T`) — workflow step C2.
    pub fn transpose(&self) -> PandasFrame {
        self.derive(|base| base.transpose())
    }

    /// Alias of [`PandasFrame::transpose`] matching pandas' `.T` property.
    pub fn t(&self) -> PandasFrame {
        self.transpose()
    }

    /// Promote a column to the row labels (pandas `set_index`) — Table 2: TOLABELS.
    pub fn set_index(&self, column: &str) -> PandasFrame {
        let column = Cell::Str(column.into());
        self.derive(|base| base.to_labels(column))
    }

    /// Demote the row labels to a data column (pandas `reset_index`) — Table 2:
    /// FROMLABELS.
    pub fn reset_index(&self, name: &str) -> PandasFrame {
        let name = Cell::Str(name.into());
        self.derive(|base| base.from_labels(name))
    }

    /// Stable sort by columns (pandas `sort_values`).
    pub fn sort_values(&self, by: &[&str], ascending: bool) -> PandasFrame {
        let spec = SortSpec {
            by: by.iter().map(|c| Cell::Str((*c).into())).collect(),
            ascending: vec![ascending],
            stable: true,
        };
        self.derive(|base| base.sort(spec))
    }

    /// Remove duplicate rows (pandas `drop_duplicates`).
    pub fn drop_duplicates(&self) -> PandasFrame {
        self.derive(|base| base.drop_duplicates())
    }

    /// The pivot of §4.4 / Figure 6: rows labelled by `index` values, one column per
    /// distinct `columns` value, cells from `values`.
    pub fn pivot(&self, index: &str, columns: &str, values: &str) -> DfResult<PandasFrame> {
        self.pivot_with_plan(index, columns, values, PivotPlan::Direct)
    }

    /// Pivot with an explicit Figure 8 plan choice: either group directly by `index`,
    /// or group by `columns` (the other axis) and TRANSPOSE the result.
    pub fn pivot_with_plan(
        &self,
        index: &str,
        columns: &str,
        values: &str,
        plan: PivotPlan,
    ) -> DfResult<PandasFrame> {
        let (index, columns) = (Cell::Str(index.into()), Cell::Str(columns.into()));
        let values = Cell::Str(values.into());
        // Group by one axis and spread the other into columns: `index` and `columns`
        // directly, or the reverse and then a TRANSPOSE of the smaller result, whose
        // columns are re-projected into the first-occurrence order the direct plan
        // produces so both plans are interchangeable.
        let (key, spread) = match plan {
            PivotPlan::Direct => (index, columns.clone()),
            PivotPlan::PivotOtherAxisThenTranspose => (columns.clone(), index),
        };
        let output_labels = self.distinct_values_of(&spread)?;
        let column_order = match plan {
            PivotPlan::Direct => None,
            PivotPlan::PivotOtherAxisThenTranspose => Some(self.distinct_values_of(&columns)?),
        };
        Ok(self.derive(|base| {
            let collect = |column: &Cell| Aggregation::of(column.clone(), AggFunc::Collect);
            let pivoted = base
                .group_by(vec![key], vec![collect(&spread), collect(&values)], true)
                .map(MapFunc::PivotFlatten {
                    label_source: spread,
                    value_source: values,
                    output_labels,
                });
            match column_order {
                None => pivoted,
                Some(order) => pivoted.transpose().project(ColumnSelector::ByLabels(order)),
            }
        }))
    }

    // ------------------------------------------------------------------ combining

    /// Ordered concatenation (pandas `append` / `pd.concat`).
    pub fn append(&self, other: &PandasFrame) -> PandasFrame {
        self.derive(|left| left.union(Arc::clone(&other.expr)))
    }

    /// Equi-join on shared columns (pandas `merge(on=...)`).
    pub fn merge_on(&self, other: &PandasFrame, on: &[&str], how: JoinType) -> PandasFrame {
        let keys: Vec<Cell> = on.iter().map(|c| Cell::Str((*c).into())).collect();
        self.derive(|left| left.join(Arc::clone(&other.expr), JoinOn::Columns(keys), how))
    }

    /// Join on row labels (pandas `merge(left_index=True, right_index=True)`) —
    /// workflow step A2.
    pub fn merge_index(&self, other: &PandasFrame, how: JoinType) -> PandasFrame {
        self.derive(|left| left.join(Arc::clone(&other.expr), JoinOn::RowLabels, how))
    }

    // ------------------------------------------------------------------ group & aggregate

    /// GROUPBY with explicit aggregations.
    pub fn groupby_agg(
        &self,
        keys: &[&str],
        aggs: Vec<Aggregation>,
        keys_as_labels: bool,
    ) -> PandasFrame {
        let keys: Vec<Cell> = keys.iter().map(|c| Cell::Str((*c).into())).collect();
        self.derive(|base| base.group_by(keys, aggs, keys_as_labels))
    }

    /// Count rows per group — the Figure 2 "groupby (n)" query.
    pub fn groupby_count(&self, keys: &[&str]) -> PandasFrame {
        self.groupby_agg(keys, vec![Aggregation::count_rows()], false)
    }

    /// Number of non-null values per column of interest, as a single-row frame — the
    /// Figure 2 "groupby (1)" query.
    pub fn count_non_null(&self, column: &str) -> PandasFrame {
        self.groupby_agg(
            &[],
            vec![Aggregation::of(column, AggFunc::CountNonNull)
                .with_alias(format!("{column}_non_null"))],
            false,
        )
    }

    /// Frequency of each distinct value of a column, most frequent first (pandas
    /// `value_counts`).
    pub fn value_counts(&self, column: &str) -> PandasFrame {
        let counted = self.groupby_agg(&[column], vec![Aggregation::count_rows()], false);
        counted.sort_values(&["count"], false)
    }

    /// Global numeric aggregate over one column.
    fn global_agg(&self, column: &str, func: AggFunc, alias: &str) -> DfResult<Cell> {
        let frame = self
            .groupby_agg(
                &[],
                vec![Aggregation::of(column, func).with_alias(alias)],
                false,
            )
            .collect()?;
        Ok(frame.cell(0, 0)?.clone())
    }

    /// Sum of a column (pandas `df["c"].sum()`).
    pub fn sum(&self, column: &str) -> DfResult<Cell> {
        self.global_agg(column, AggFunc::Sum, "sum")
    }

    /// Mean of a column.
    pub fn mean(&self, column: &str) -> DfResult<Cell> {
        self.global_agg(column, AggFunc::Mean, "mean")
    }

    /// Minimum of a column.
    pub fn min(&self, column: &str) -> DfResult<Cell> {
        self.global_agg(column, AggFunc::Min, "min")
    }

    /// Maximum of a column.
    pub fn max(&self, column: &str) -> DfResult<Cell> {
        self.global_agg(column, AggFunc::Max, "max")
    }

    /// Summary statistics of every numeric column (pandas `describe`): one row per
    /// statistic, one column per numeric column.
    pub fn describe(&self) -> DfResult<DataFrame> {
        let df = self.collect()?;
        let numeric: Vec<(Cell, Vec<f64>)> = (0..df.n_cols())
            .filter(|&j| df.columns()[j].peek_domain().is_numeric())
            .map(|j| {
                let values: Vec<f64> = df.columns()[j]
                    .cells()
                    .iter()
                    .filter_map(Cell::as_f64)
                    .collect();
                (
                    df.col_labels().get(j).cloned().unwrap_or(Cell::Null),
                    values,
                )
            })
            .collect();
        if numeric.is_empty() {
            return Err(DfError::EmptyInput(
                "describe() needs numeric columns".into(),
            ));
        }
        let stats = ["count", "mean", "std", "min", "max"];
        let mut columns: Vec<Vec<Cell>> = Vec::with_capacity(numeric.len());
        for (_, values) in &numeric {
            let count = values.len() as f64;
            let mean = if values.is_empty() {
                f64::NAN
            } else {
                values.iter().sum::<f64>() / count
            };
            let std = if values.len() > 1 {
                (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1.0)).sqrt()
            } else {
                f64::NAN
            };
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let to_cell = |v: f64| {
                if v.is_finite() {
                    Cell::Float(v)
                } else {
                    Cell::Null
                }
            };
            columns.push(vec![
                Cell::Float(count),
                to_cell(mean),
                to_cell(std),
                to_cell(min),
                to_cell(max),
            ]);
        }
        let labels: Vec<Cell> = numeric.iter().map(|(l, _)| l.clone()).collect();
        DataFrame::from_parts(
            columns
                .into_iter()
                .map(df_core::dataframe::Column::new)
                .collect(),
            df_types::labels::Labels::from_iter(stats.to_vec()),
            df_types::labels::Labels::new(labels),
        )
    }

    // ------------------------------------------------------------------ window

    /// Cumulative sum over the given columns (pandas `cumsum`).
    pub fn cumsum(&self, columns: &[&str]) -> PandasFrame {
        self.window_op(columns, WindowFunc::CumSum)
    }

    /// Cumulative max (pandas `cummax`).
    pub fn cummax(&self, columns: &[&str]) -> PandasFrame {
        self.window_op(columns, WindowFunc::CumMax)
    }

    /// Row-to-row difference (pandas `diff`).
    pub fn diff(&self, columns: &[&str], lag: usize) -> PandasFrame {
        self.window_op(columns, WindowFunc::Diff { lag })
    }

    /// Shift rows down (pandas `shift`).
    pub fn shift(&self, columns: &[&str], offset: i64) -> PandasFrame {
        self.window_op(columns, WindowFunc::Shift { offset })
    }

    /// Trailing rolling mean (pandas `rolling(n).mean()`).
    pub fn rolling_mean(&self, columns: &[&str], size: usize) -> PandasFrame {
        self.window_op(columns, WindowFunc::RollingMean { size })
    }

    fn window_op(&self, columns: &[&str], func: WindowFunc) -> PandasFrame {
        let selector = if columns.is_empty() {
            ColumnSelector::Numeric
        } else {
            ColumnSelector::ByLabels(columns.iter().map(|c| Cell::Str((*c).into())).collect())
        };
        self.derive(|base| base.window(selector, func))
    }

    // ------------------------------------------------------------------ linear algebra

    /// Pairwise covariance of the numeric columns (pandas `cov`) — workflow step A3.
    pub fn cov(&self) -> DfResult<DataFrame> {
        covariance(&self.collect()?)
    }

    /// Pearson correlation of the numeric columns (pandas `corr`).
    pub fn corr(&self) -> DfResult<DataFrame> {
        correlation(&self.collect()?)
    }

    // ------------------------------------------------------------------ helpers

    /// Distinct values of a column, in first-occurrence order (a PROJECTION +
    /// DROP DUPLICATES sub-query executed through the session, which resumes from
    /// cached handles when any exist).
    pub fn distinct_values_of(&self, column: &Cell) -> DfResult<Vec<Cell>> {
        let expr = AlgebraExpr::clone(&self.expr)
            .project(ColumnSelector::ByLabels(vec![column.clone()]))
            .drop_duplicates();
        let frame = self.session.query().collect(&PlanKey::of(&expr))?;
        let mut seen: Vec<CellKey> = Vec::new();
        let mut out = Vec::new();
        for cell in frame.columns()[0].cells() {
            let key = cell.group_key();
            if !seen.contains(&key) && !cell.is_null() {
                seen.push(key);
                out.push(cell.clone());
            }
        }
        Ok(out)
    }
}

/// `node` with the `stand_in` literal replaced by `plan`. Only nodes a builder just
/// made are rebuilt: a node shared with another plan (a frame's) holds no stand-in.
fn splice(
    node: &Arc<AlgebraExpr>,
    stand_in: &Arc<DataFrame>,
    plan: &Arc<AlgebraExpr>,
) -> Arc<AlgebraExpr> {
    match node.as_ref() {
        AlgebraExpr::Literal(df) if Arc::ptr_eq(df, stand_in) => Arc::clone(plan),
        _ if Arc::strong_count(node) > 1 => Arc::clone(node),
        _ => {
            let spliced = node
                .children()
                .into_iter()
                .map(|c| splice(c, stand_in, plan));
            Arc::new(node.with_children(spliced))
        }
    }
}

/// Stream a partition grid to a CSV file band by band: the header once, then each
/// band's records, with at most one band materialised at any moment.
fn write_grid_csv(
    grid: &df_engine::partition::PartitionGrid,
    path: &std::path::Path,
    options: &CsvOptions,
) -> DfResult<()> {
    use std::io::Write as _;
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    for index in 0..grid.n_row_bands() {
        let band = grid.band(index)?;
        if index == 0 {
            df_storage::csv::write_csv_header(&mut writer, band.col_labels(), options)?;
        }
        df_storage::csv::append_csv_records(&mut writer, &band, options)?;
    }
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn session() -> Arc<Session> {
        Session::modin_with(
            df_engine::engine::ModinConfig::sequential().with_partition_size(8, 4),
            df_engine::session::EvalMode::Eager,
        )
    }

    fn products(session: &Arc<Session>) -> PandasFrame {
        PandasFrame::from_rows(
            session,
            vec!["name", "price", "rating", "wireless"],
            vec![
                vec![cell("iPhone 11"), cell(699), cell(4.6), cell("Yes")],
                vec![cell("iPhone 11 Pro"), cell(999), cell(4.8), cell("Yes")],
                vec![cell("iPhone 8"), cell(449), Cell::Null, cell("No")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_inspection() {
        let s = session();
        let df = products(&s);
        assert_eq!(df.shape().unwrap(), (3, 4));
        assert_eq!(df.head(2).unwrap().n_rows(), 2);
        assert_eq!(df.tail(1).unwrap().cell(0, 0).unwrap(), &cell("iPhone 8"));
        assert!(df.display(2).unwrap().contains("iPhone 11"));
        let dtypes = df.dtypes().unwrap();
        assert_eq!(dtypes[1].1, Domain::Int);
        assert!(df.to_csv_string().unwrap().starts_with("name,price"));
    }

    #[test]
    fn filtering_and_projection() {
        let s = session();
        let df = products(&s);
        assert_eq!(df.filter_gt("price", 500).unwrap().shape().unwrap(), (2, 4));
        assert_eq!(
            df.filter_eq("wireless", "No").unwrap().shape().unwrap(),
            (1, 4)
        );
        assert_eq!(df.dropna(&["rating"]).unwrap().shape().unwrap(), (2, 4));
        assert_eq!(df.dropna(&[]).unwrap().shape().unwrap(), (2, 4));
        assert_eq!(df.slice(1, 3).shape().unwrap(), (2, 4));
        assert_eq!(df.select(&["name", "price"]).shape().unwrap(), (3, 2));
        assert_eq!(df.drop_columns(&["name"]).shape().unwrap(), (3, 3));
        assert_eq!(df.column("price").shape().unwrap(), (3, 1));
        assert_eq!(df.select_numeric().shape().unwrap(), (3, 2));
    }

    #[test]
    fn point_update_and_map_column_match_figure1_cleaning_steps() {
        let s = session();
        let df = products(&s);
        // C1: fix an anomalous value.
        let fixed = df.iloc_set(0, 1, 650).unwrap();
        assert_eq!(fixed.iloc(0, 1).unwrap(), cell(650));
        // C3: Yes/No → 1/0 on one column.
        let binary = fixed
            .map_column("wireless", "yes_no_to_binary", |c| match c.as_str() {
                Some("Yes") => cell(1),
                Some("No") => cell(0),
                _ => Cell::Null,
            })
            .unwrap();
        let collected = binary.collect().unwrap();
        assert_eq!(collected.cell(0, 3).unwrap(), &cell(1));
        assert_eq!(collected.cell(2, 3).unwrap(), &cell(0));
        assert!(binary.map_column("missing", "noop", |c| c.clone()).is_err());
    }

    #[test]
    fn fillna_isna_astype_and_transforms() {
        let s = session();
        let df = products(&s);
        assert_eq!(
            df.fillna(0).collect().unwrap().cell(2, 2).unwrap(),
            &cell(0)
        );
        assert_eq!(
            df.isna().collect().unwrap().cell(2, 2).unwrap(),
            &cell(true)
        );
        assert_eq!(
            df.isnull().collect().unwrap().cell(0, 2).unwrap(),
            &cell(false)
        );
        assert_eq!(
            df.astype("price", Domain::Float)
                .collect()
                .unwrap()
                .cell(0, 1)
                .unwrap(),
            &cell(699.0)
        );
        assert_eq!(
            df.str_upper().collect().unwrap().cell(0, 0).unwrap(),
            &cell("IPHONE 11")
        );
        let doubled = df.transform_cells("double_ints", |c| match c {
            Cell::Int(v) => Cell::Int(v * 2),
            other => other.clone(),
        });
        assert_eq!(doubled.collect().unwrap().cell(0, 1).unwrap(), &cell(1398));
        let applied = df.apply_rows("price_rating", vec!["price_per_rating"], |row| {
            let price = row.get(&cell("price")).and_then(Cell::as_f64);
            let rating = row.get(&cell("rating")).and_then(Cell::as_f64);
            vec![match (price, rating) {
                (Some(p), Some(r)) => Cell::Float(p / r),
                _ => Cell::Null,
            }]
        });
        assert_eq!(applied.shape().unwrap(), (3, 1));
    }

    #[test]
    fn schema_and_dtypes_of_a_spilled_ingest_are_metadata_only() {
        let dir = std::env::temp_dir().join(format!("df_pandas_schema_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("typed.csv");
        let mut content = String::from("id,fare,tag\n");
        for i in 0..200 {
            content.push_str(&format!("{i},{i}.5,t{}\n", i % 3));
        }
        std::fs::write(&path, &content).unwrap();

        // A 1-byte budget spills every ingested band immediately.
        let session = Session::modin_with(
            df_engine::engine::ModinConfig::default()
                .with_memory_budget(1)
                .with_partition_size(32, 8),
            df_engine::session::EvalMode::Eager,
        );
        let options = CsvOptions {
            infer_schema: true,
            ..CsvOptions::default()
        };
        let df = PandasFrame::read_csv_path(&session, &path, &options).unwrap();
        let before = session.spill_stats().unwrap();
        assert!(before.spilled > 0, "budget of 1 byte must spill all bands");

        let schema = df.schema().unwrap().expect("row-banded grids answer");
        let dtypes = df.dtypes().unwrap();

        let after = session.spill_stats().unwrap();
        assert_eq!(
            after.load_backs, before.load_backs,
            "schema()/dtypes() must answer from metadata, not load spilled bands"
        );
        assert_eq!(
            schema,
            vec![
                (cell("id"), Some(Domain::Int)),
                (cell("fare"), Some(Domain::Float)),
                (cell("tag"), Some(Domain::Category)),
            ]
        );
        assert_eq!(
            dtypes,
            vec![
                (cell("id"), Domain::Int),
                (cell("fare"), Domain::Float),
                (cell("tag"), Domain::Category),
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn astype_casts_banded_under_a_spill_budget() {
        let dir = std::env::temp_dir().join(format!("df_pandas_astype_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prices.csv");
        let mut content = String::from("item,price\n");
        for i in 0..160 {
            content.push_str(&format!("item-{i},{}\n", i * 3));
        }
        std::fs::write(&path, &content).unwrap();

        let session = Session::modin_with(
            df_engine::engine::ModinConfig::default()
                .with_memory_budget(1)
                .with_partition_size(32, 8),
            df_engine::session::EvalMode::Eager,
        );
        let options = CsvOptions {
            infer_schema: true,
            ..CsvOptions::default()
        };
        let df = PandasFrame::read_csv_path(&session, &path, &options).unwrap();
        let cast = df.astype("price", Domain::Float);
        // The cast is a banded MAP: its result is itself spill-backed, and its
        // domain metadata answers without materialising.
        assert_eq!(cast.dtypes().unwrap()[1], (cell("price"), Domain::Float));
        let collected = cast.collect().unwrap();
        assert_eq!(collected.cell(0, 1).unwrap(), &cell(0.0));
        assert_eq!(collected.cell(159, 1).unwrap(), &cell(477.0));
        assert!(session.spill_stats().unwrap().spill_outs > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn one_hot_encoding_discovers_categories() {
        let s = session();
        let df = products(&s).select(&["wireless", "price"]);
        let encoded = df.get_dummies(&["wireless"]).unwrap().collect().unwrap();
        assert_eq!(encoded.shape(), (3, 3));
        assert_eq!(
            encoded.col_labels().as_slice(),
            &[cell("wireless_Yes"), cell("wireless_No"), cell("price")]
        );
        assert_eq!(encoded.cell(2, 1).unwrap(), &cell(1));
        // Empty list auto-selects non-numeric columns.
        let auto = products(&s)
            .select(&["wireless", "price"])
            .get_dummies(&[])
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(auto.shape(), (3, 3));
    }

    #[test]
    fn reshaping_set_reset_index_and_transpose() {
        let s = session();
        let df = products(&s);
        let indexed = df.set_index("name");
        let collected = indexed.collect().unwrap();
        assert_eq!(collected.shape(), (3, 3));
        assert_eq!(collected.row_labels().as_slice()[1], cell("iPhone 11 Pro"));
        let restored = indexed.reset_index("name").collect().unwrap();
        assert_eq!(restored.shape(), (3, 4));
        assert_eq!(restored.cell(0, 0).unwrap(), &cell("iPhone 11"));
        let transposed = df.t().collect().unwrap();
        assert_eq!(transposed.shape(), (4, 3));
        assert_eq!(df.transpose().transpose().shape().unwrap(), (3, 4));
    }

    #[test]
    fn sorting_dedup_and_value_counts() {
        let s = session();
        let df = products(&s);
        let sorted = df.sort_values(&["price"], true).collect().unwrap();
        assert_eq!(sorted.cell(0, 0).unwrap(), &cell("iPhone 8"));
        let appended = df.append(&df);
        assert_eq!(appended.shape().unwrap(), (6, 4));
        assert_eq!(appended.drop_duplicates().shape().unwrap(), (3, 4));
        let counts = appended.value_counts("wireless").collect().unwrap();
        assert_eq!(counts.cell(0, 0).unwrap(), &cell("Yes"));
        assert_eq!(counts.cell(0, 1).unwrap(), &cell(4));
    }

    #[test]
    fn merging_on_columns_and_on_index() {
        let s = session();
        let features = products(&s).select(&["name", "price"]);
        let ratings = PandasFrame::from_rows(
            &s,
            vec!["name", "stars"],
            vec![
                vec![cell("iPhone 11"), cell(5)],
                vec![cell("iPhone 8"), cell(4)],
            ],
        )
        .unwrap();
        let joined = features.merge_on(&ratings, &["name"], JoinType::Inner);
        assert_eq!(joined.shape().unwrap(), (2, 3));
        let left = features
            .merge_on(&ratings, &["name"], JoinType::Left)
            .collect()
            .unwrap();
        assert_eq!(left.shape(), (3, 3));
        assert_eq!(left.cell(1, 2).unwrap(), &Cell::Null);
        // Index join, as in workflow step A2.
        let by_index = features
            .set_index("name")
            .merge_index(&ratings.set_index("name"), JoinType::Inner)
            .collect()
            .unwrap();
        assert_eq!(by_index.shape(), (2, 2));
    }

    #[test]
    fn groupby_aggregates_and_global_reductions() {
        let s = session();
        let df = products(&s);
        let by_wireless = df.groupby_count(&["wireless"]).collect().unwrap();
        assert_eq!(by_wireless.shape(), (2, 2));
        assert_eq!(by_wireless.cell(1, 1).unwrap(), &cell(2));
        let non_null = df.count_non_null("rating").collect().unwrap();
        assert_eq!(non_null.cell(0, 0).unwrap(), &cell(2));
        assert_eq!(df.sum("price").unwrap(), cell(2147.0));
        assert_eq!(df.max("price").unwrap(), cell(999));
        assert_eq!(df.min("price").unwrap(), cell(449));
        let mean = df.mean("price").unwrap().as_f64().unwrap();
        assert!((mean - 715.666).abs() < 0.01);
        let described = df.describe().unwrap();
        assert_eq!(described.shape(), (5, 2));
        assert_eq!(described.cell(0, 0).unwrap(), &cell(3.0));
    }

    #[test]
    fn window_operations() {
        let s = session();
        let df = products(&s);
        let cumsum = df.cumsum(&["price"]).collect().unwrap();
        assert_eq!(cumsum.cell(2, 1).unwrap(), &cell(2147.0));
        let diff = df.diff(&["price"], 1).collect().unwrap();
        assert_eq!(diff.cell(1, 1).unwrap(), &cell(300.0));
        let shifted = df.shift(&["price"], 1).collect().unwrap();
        assert_eq!(shifted.cell(0, 1).unwrap(), &Cell::Null);
        let cummax = df.cummax(&[]).collect().unwrap();
        assert_eq!(cummax.cell(2, 1).unwrap(), &cell(999.0));
        let rolling = df.rolling_mean(&["price"], 2).collect().unwrap();
        assert_eq!(rolling.cell(1, 1).unwrap(), &cell(849.0));
    }

    #[test]
    fn covariance_and_correlation() {
        let s = session();
        let df = products(&s).dropna(&["rating"]).unwrap();
        let cov = df.cov().unwrap();
        assert_eq!(cov.shape(), (2, 2));
        let corr = df.corr().unwrap();
        let r = corr.cell(0, 1).unwrap().as_f64().unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pivot_reproduces_figure5_with_both_plans() {
        let s = session();
        let sales = PandasFrame::from_dataframe(&s, df_workloads::figure5_narrow_table());
        let expected = df_workloads::figure5_wide_by_year();
        for plan in [PivotPlan::Direct, PivotPlan::PivotOtherAxisThenTranspose] {
            let wide = sales
                .pivot_with_plan("Year", "Month", "Sales", plan)
                .unwrap()
                .collect()
                .unwrap();
            assert!(
                wide.same_data(&expected),
                "plan {plan:?} gave\n{wide}\nexpected\n{expected}"
            );
        }
        // The direct plan uses GROUPBY + MAP; the alternative adds a TRANSPOSE.
        let direct = sales.pivot("Year", "Month", "Sales").unwrap();
        assert_eq!(direct.expr().transpose_count(), 0);
        let alt = sales
            .pivot_with_plan(
                "Year",
                "Month",
                "Sales",
                PivotPlan::PivotOtherAxisThenTranspose,
            )
            .unwrap();
        assert_eq!(alt.expr().transpose_count(), 1);
    }

    #[test]
    fn baseline_and_modin_sessions_agree_through_the_api() {
        let modin = session();
        let baseline = Session::baseline();
        for s in [&modin, &baseline] {
            let df = products(s);
            let out = df
                .fillna(0)
                .filter_gt("price", 500)
                .unwrap()
                .groupby_count(&["wireless"])
                .collect()
                .unwrap();
            assert_eq!(out.shape(), (1, 2));
            assert_eq!(out.cell(0, 1).unwrap(), &cell(2));
        }
    }

    #[test]
    fn eager_statements_cross_boundaries_as_handles() {
        let s = session();
        let df = products(&s);
        // Each derived statement rebases its execution plan onto the previous
        // statement's cached handle: the engine resumes from the partitioned grid
        // instead of re-executing (or re-partitioning) the prefix.
        let cleaned = df.fillna(0);
        let filtered = cleaned.filter_gt("price", 500).unwrap();
        let counted = filtered.groupby_count(&["wireless"]);
        let engine = s.modin_engine().expect("modin session");
        assert!(engine.handles_reused() >= 3);
        // Nothing was assembled while the chain was built…
        assert_eq!(engine.assemblies_dispatched(), 0);
        // …and the logical expression still shows the whole pipeline.
        assert_eq!(counted.expr().operator_count(), 3);
        let out = counted.collect().unwrap();
        assert_eq!(out.cell(0, 1).unwrap(), &cell(2));
        assert_eq!(engine.assemblies_dispatched(), 1);
        // shape() answers from handle metadata without another assembly.
        assert_eq!(counted.shape().unwrap(), (1, 2));
        assert_eq!(engine.assemblies_dispatched(), 1);
    }

    #[test]
    fn lazy_sessions_execute_one_plan_per_materialisation_point() {
        let s = Session::modin_with(
            df_engine::engine::ModinConfig::sequential().with_partition_size(8, 4),
            df_engine::session::EvalMode::Lazy,
        );
        let chained = products(&s)
            .fillna(0)
            .filter_gt("price", 500)
            .unwrap()
            .groupby_count(&["wireless"]);
        assert_eq!(s.stats().executions, 0, "lazy statements must not execute");
        let out = chained.collect().unwrap();
        assert_eq!(out.cell(0, 1).unwrap(), &cell(2));
        assert_eq!(
            s.stats().executions,
            1,
            "one plan per materialisation point"
        );
        // The whole pipeline was one plan: no handles crossed the waist.
        assert_eq!(s.modin_engine().unwrap().handles_reused(), 0);
    }

    #[test]
    fn submit_errors_are_recorded_not_swallowed() {
        let s = session();
        assert!(s.take_last_submit_error().is_none());
        // Projecting onto an unknown column makes the eager submit fail; the error
        // is recorded on the session and the statement's materialisation point
        // re-raises it.
        let bad = products(&s).select(&["no_such_column"]);
        assert_eq!(s.stats().submit_errors, 1);
        let recorded = s.take_last_submit_error().expect("error recorded");
        assert!(matches!(recorded, DfError::ColumnNotFound(_)));
        assert!(bad.collect().is_err());
    }

    #[test]
    fn distinct_values_preserve_first_occurrence_order() {
        let s = session();
        let df = products(&s);
        let values = df.distinct_values_of(&cell("wireless")).unwrap();
        assert_eq!(values, vec![cell("Yes"), cell("No")]);
    }

    #[test]
    fn corrupted_ancestor_handles_are_recomputed_from_lineage() {
        let raw: Vec<Vec<Cell>> = (0..200)
            .map(|i| vec![cell(i as i64), cell((i * 3) as i64)])
            .collect();
        let base_df = DataFrame::from_rows(vec!["a", "b"], raw).unwrap();
        // Budgeted engine: the intermediate's partitions spill to disk.
        let budget = base_df.approx_size_bytes() / 4;
        let s = Session::modin_with(
            df_engine::engine::ModinConfig::sequential()
                .with_memory_budget(budget)
                .with_partition_size(16, 4),
            df_engine::session::EvalMode::Eager,
        );
        let base = PandasFrame::try_from_dataframe(&s, base_df).unwrap();
        let mid = base.filter_gt("a", 9).unwrap();
        mid.collect().unwrap(); // materialise → mid's handle is cached + spilled
        let tip = mid.isna(); // rebases onto mid's (about to be poisoned) handle
        let expected_rows = 190;

        // Corrupt every spill file behind the cached intermediate.
        let dir = s
            .modin_engine()
            .unwrap()
            .store()
            .expect("budgeted engine")
            .directory()
            .to_path_buf();
        let mut tampered = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                let mut content = std::fs::read(&path).unwrap();
                content.extend_from_slice(b"tampered");
                std::fs::write(&path, content).unwrap();
                tampered += 1;
            }
        }
        assert!(tampered > 0, "budgeted engine should have spilled");

        // Serving the statement meets a poisoned partition, so the session evicts
        // it and every cached sub-plan and recomputes the whole logical pipeline.
        let out = tip.collect().unwrap();
        assert_eq!(out.shape(), (expected_rows, 2));
        assert_eq!(out.cell(0, 0).unwrap(), &cell(false));
        assert!(
            s.stats().recoveries >= 1,
            "recovery counter: {:?}",
            s.stats()
        );
    }
}
