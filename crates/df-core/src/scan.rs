//! The first-class CSV scan leaf and its per-chunk statistics.
//!
//! Nearly every pipeline in the paper's workloads (§2, Figure 2) starts with
//! `read_csv`, so the single highest-leverage place for a cost-based optimizer to act
//! is *before* any byte is parsed. [`ScanCsv`] promotes CSV ingest from an engine
//! side-door into an algebra leaf the optimizer can rewrite: it carries the file's
//! chunk plan plus per-chunk column statistics ([`ScanStats`]), a pushed-down
//! *projection* (only referenced columns are parsed and encoded), a pushed-down
//! sargable *predicate* (whole chunks whose min/max bounds cannot satisfy the
//! predicate are skipped; the survivors evaluate the predicate during the parse loop,
//! before bands are checked into the spill store) and a pushed-down *limit* (the
//! `head`/`tail` first look of §6.1.2 parses only the chunks its rows come from).
//!
//! The statistics follow the PEXESO shape — block, filter with cheap per-partition
//! summaries, verify only survivors — applied to dataframe ingest: a
//! [`ColumnChunkStats`] is a handful of scalars per column per chunk (null count,
//! numeric min/max, lexical min/max, a capped distinct count), collected during the
//! same pass that already parses the chunk for schema induction, and cached on the
//! scan so repeated statements over the same file pay for them once.
//!
//! Pruning is deliberately conservative: [`chunk_may_match`] returns `false` only
//! when the algebra's `SELECTION` semantics *prove* no row of the chunk can pass.
//! Every uncertain case — NaN literals (the total cell ordering compares NaN equal to
//! every numeric), `Custom` predicates, domains whose cast can manufacture nulls —
//! answers `true` and falls through to row-level evaluation, so pushdown never
//! changes a result, only skips work.
//!
//! ```
//! use df_core::{ScanCsv, ScanOptions};
//! use df_core::algebra::{AlgebraExpr, CmpOp, Predicate};
//! use df_types::cell::cell;
//!
//! let scan = ScanCsv::new("trips.csv", ScanOptions::default(), "csv@trips.csv");
//! let expr = AlgebraExpr::scan_csv(scan).select(Predicate::ColCmp {
//!     column: cell("fare"),
//!     op: CmpOp::Gt,
//!     value: cell(10.0),
//! });
//! assert_eq!(expr.name(), "SELECTION");
//! assert_eq!(expr.children()[0].name(), "SCAN_CSV");
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use df_types::cell::Cell;
use df_types::domain::Domain;

use crate::algebra::{CmpOp, Predicate};

/// CSV parsing options carried by a [`ScanCsv`] leaf.
///
/// This mirrors `df-storage`'s `CsvOptions` field-for-field; df-core cannot depend on
/// df-storage (the dependency points the other way), so the scan leaf carries its own
/// copy and the engine translates when it actually opens the file.
///
/// ```
/// use df_core::ScanOptions;
/// let options = ScanOptions::default();
/// assert_eq!(options.delimiter, ',');
/// assert!(options.has_header);
/// assert!(!options.infer_schema);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Field delimiter.
    pub delimiter: char,
    /// Whether the first record is a header row.
    pub has_header: bool,
    /// Whether to run schema induction and cast columns to their induced domains.
    pub infer_schema: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            delimiter: ',',
            has_header: true,
            infer_schema: false,
        }
    }
}

/// Per-column summary statistics for one chunk of a CSV file.
///
/// Collected from the chunk's *parsed* cells (after null-token conversion, before any
/// domain cast): `numeric` bounds cover every non-null cell whose text parses as a
/// finite-or-infinite `f64`; `lexical` bounds cover every string cell. A cell can
/// contribute to both views (the raw text `"5"` is a string *and* parses numerically),
/// which is exactly what makes pruning sound whether or not schema inference later
/// casts the column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnChunkStats {
    /// Number of null cells (including recognised null tokens such as `"NaN"`).
    pub nulls: usize,
    /// `(min, max)` over cells that parse as non-NaN `f64`; `None` when none do.
    pub numeric: Option<(f64, f64)>,
    /// How many cells parse as non-NaN `f64`.
    pub numeric_count: usize,
    /// `(min, max)` over string cells; `None` when the chunk column has none.
    pub lexical: Option<(String, String)>,
    /// Distinct values seen, capped at `DISTINCT_CAP` (a saturated count means "at
    /// least this many").
    pub distinct: usize,
}

/// Cap on the per-chunk distinct-value counter: beyond this a column is treated as
/// effectively unique and the exact count stops mattering for costing.
pub(crate) const DISTINCT_CAP: usize = 256;

/// One chunk column's distinct-value scratch, kept outside [`ColumnChunkStats`] so
/// the stats struct stays plain data. Text is looked up by slice, so a repeated value
/// costs a hash probe and no allocation.
#[derive(Debug, Default)]
pub struct DistinctSeen {
    text: std::collections::HashSet<String>,
    typed: Vec<Cell>,
}

impl ColumnChunkStats {
    /// Fold one parsed cell into the summary.
    pub fn observe(&mut self, cell: &Cell, seen: &mut DistinctSeen) {
        match cell {
            Cell::Null => self.nulls += 1,
            Cell::Str(text) => self.observe_text(text, text.trim().parse().ok(), seen),
            typed => {
                self.observe_numeric(typed.as_f64());
                if self.distinct < DISTINCT_CAP && !seen.typed.contains(typed) {
                    seen.typed.push(typed.clone());
                    self.distinct += 1;
                }
            }
        }
    }

    /// Fold one raw field in place: what [`ColumnChunkStats::observe`] does for
    /// `Cell::Null` when the field is a null spelling and for `Cell::Str(text)`
    /// otherwise, without building the cell. `numeric` is the `f64` the trimmed text
    /// parses to, if any — the caller has usually parsed it already for induction.
    pub fn observe_field(&mut self, text: &str, numeric: Option<f64>, seen: &mut DistinctSeen) {
        if df_types::domain::is_null_token(text) {
            self.nulls += 1;
        } else {
            self.observe_text(text, numeric, seen);
        }
    }

    fn observe_text(&mut self, text: &str, numeric: Option<f64>, seen: &mut DistinctSeen) {
        match &mut self.lexical {
            None => self.lexical = Some((text.to_string(), text.to_string())),
            Some((lo, hi)) => {
                if text < lo.as_str() {
                    text.clone_into(lo);
                } else if text > hi.as_str() {
                    text.clone_into(hi);
                }
            }
        }
        self.observe_numeric(numeric);
        if self.distinct < DISTINCT_CAP && !seen.text.contains(text) {
            seen.text.insert(text.to_string());
            self.distinct += 1;
        }
    }

    fn observe_numeric(&mut self, value: Option<f64>) {
        let Some(v) = value.filter(|v| !v.is_nan()) else {
            return;
        };
        self.numeric_count += 1;
        self.numeric = Some(match self.numeric {
            None => (v, v),
            Some((lo, hi)) => (lo.min(v), hi.max(v)),
        });
    }
}

/// Statistics and plan for one chunk of the file: the byte range and row range (the
/// chunk plan, so the engine can re-seek without re-planning) plus one
/// [`ColumnChunkStats`] per file column.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkStats {
    /// First byte of the chunk's data records.
    pub start_byte: u64,
    /// One past the last byte of the chunk.
    pub end_byte: u64,
    /// Global rank of the chunk's first data row.
    pub start_row: usize,
    /// Number of data rows in the chunk.
    pub rows: usize,
    /// Per-column summaries, aligned with the file's column order.
    pub columns: Vec<ColumnChunkStats>,
}

/// Whole-file scan statistics: the induction-time facts the cost model and the
/// pruning pass consume (row counts, per-column min/max, distinct caps, null counts —
/// the "per-band `InductionSummary`" of the paper's metadata-driven rewrites, §5.1).
///
/// ```
/// use df_core::{ChunkStats, ColumnChunkStats, ScanStats};
/// use df_types::cell::cell;
///
/// let stats = ScanStats {
///     labels: vec![cell("a")],
///     n_cols: 1,
///     total_rows: 10,
///     total_bytes: 80,
///     domains: None,
///     chunks: vec![ChunkStats {
///         start_byte: 2,
///         end_byte: 82,
///         start_row: 0,
///         rows: 10,
///         columns: vec![ColumnChunkStats::default()],
///     }],
/// };
/// assert_eq!(stats.chunks.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScanStats {
    /// Column labels of the file, in file order.
    pub labels: Vec<Cell>,
    /// Number of file columns.
    pub n_cols: usize,
    /// Total data rows.
    pub total_rows: usize,
    /// Total data bytes (excluding the header record).
    pub total_bytes: u64,
    /// Reconciled per-column domains when the scan ran schema induction; `None` when
    /// inference is off (every data cell is then a string or a null token).
    pub domains: Option<Vec<Domain>>,
    /// Per-chunk plans and summaries, in file order.
    pub chunks: Vec<ChunkStats>,
}

impl ScanStats {
    /// Average encoded bytes per data row (for sizing estimates).
    pub(crate) fn bytes_per_row(&self) -> f64 {
        if self.total_rows == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.total_rows as f64
        }
    }

    /// Position of a label in the file's column order.
    pub fn col_position(&self, label: &Cell) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    /// Which chunks could contain a row matching `pred` (all of them for `None`),
    /// with the survivor count paired with the total.
    pub fn surviving_chunks(&self, pred: Option<&Predicate>) -> Vec<&ChunkStats> {
        match pred {
            None => self.chunks.iter().collect(),
            Some(pred) => self
                .chunks
                .iter()
                .filter(|chunk| chunk_may_match(pred, chunk, &self.labels, self.domains.as_deref()))
                .collect(),
        }
    }

    /// How many chunks a scan with these pushdowns parses, and whether that count is
    /// exact. Without a limit every survivor is parsed; a limit with no predicate
    /// parses exactly the chunks its `k` rows span (the plan's row counts say so); a
    /// limit behind a predicate stops at the chunk where the `k`-th row passes, which
    /// only the parse can tell — the survivor count is then an upper bound.
    pub fn chunks_to_parse(
        &self,
        pred: Option<&Predicate>,
        limit: Option<(usize, bool)>,
    ) -> (usize, bool) {
        let mut survivors = self.surviving_chunks(pred);
        match (limit, pred) {
            (None, _) => (survivors.len(), true),
            (Some((0, _)), _) => (0, true),
            (Some(_), Some(_)) => (survivors.len(), false),
            (Some((k, from_end)), None) => {
                if from_end {
                    survivors.reverse();
                }
                let mut covered = 0usize;
                let spanned = survivors.iter().take_while(|chunk| {
                    let needed = covered < k;
                    covered = covered.saturating_add(chunk.rows);
                    needed
                });
                (spanned.count(), true)
            }
        }
    }
}

/// The CSV scan leaf: a path, parse options, and the pushdowns the optimizer has
/// folded into it. Cloning shares the cached statistics (they live behind
/// `Arc<OnceLock<..>>`), so a rewritten plan reuses the stats collected for the
/// original leaf.
#[derive(Clone)]
pub struct ScanCsv {
    /// File to scan.
    pub path: PathBuf,
    /// Parse options.
    pub options: ScanOptions,
    /// Pushed-down projection: output columns, in output order. `None` scans every
    /// column.
    pub projection: Option<Vec<Cell>>,
    /// Pushed-down predicate, evaluated during the parse loop (after chunk pruning).
    pub predicate: Option<Predicate>,
    /// Pushed-down LIMIT `(k, from_end)`: the scan emits only the first (or, from the
    /// end, last) `k` rows that pass the predicate, and parses only as many chunks
    /// as it takes to find them.
    pub limit: Option<(usize, bool)>,
    /// Names one on-disk state of `path`: plan keys write it after the path and
    /// options and before the pushdowns, so two scans of the same state share cache
    /// entries and two different states do not, and the engine caches scan
    /// statistics by path, options and it.
    identity: String,
    stats: Arc<OnceLock<Arc<ScanStats>>>,
}

impl ScanCsv {
    /// A scan of every column of `path` with no predicate.
    pub fn new(path: impl AsRef<Path>, options: ScanOptions, identity: impl Into<String>) -> Self {
        ScanCsv {
            path: path.as_ref().to_path_buf(),
            options,
            projection: None,
            predicate: None,
            limit: None,
            identity: identity.into(),
            stats: Arc::new(OnceLock::new()),
        }
    }

    /// The scan's stable identity (used in plan keys and stats caches).
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// This scan with a projection pushed into it (stats still shared).
    pub fn with_projection(&self, columns: Vec<Cell>) -> Self {
        let mut scan = self.clone();
        scan.projection = Some(columns);
        scan
    }

    /// This scan with a predicate pushed into it (stats still shared).
    pub fn with_predicate(&self, predicate: Predicate) -> Self {
        let mut scan = self.clone();
        scan.predicate = Some(predicate);
        scan
    }

    /// This scan with a LIMIT pushed into it (stats still shared).
    pub fn with_limit(&self, k: usize, from_end: bool) -> Self {
        let mut scan = self.clone();
        scan.limit = Some((k, from_end));
        scan
    }

    /// The cached file statistics, if an engine has collected them.
    pub fn stats(&self) -> Option<Arc<ScanStats>> {
        self.stats.get().cloned()
    }

    /// Cache file statistics on the leaf (first write wins; clones share them).
    pub fn set_stats(&self, stats: Arc<ScanStats>) {
        let _ = self.stats.set(stats);
    }
}

impl fmt::Debug for ScanCsv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScanCsv")
            .field("path", &self.path)
            .field("options", &self.options)
            .field("projection", &self.projection)
            .field("predicate", &self.predicate)
            .field("limit", &self.limit)
            .field("has_stats", &self.stats.get().is_some())
            .finish()
    }
}

/// Could any row of `chunk` satisfy `pred`? `false` is a *proof* of emptiness under
/// the algebra's SELECTION semantics (null comparisons are false, missing columns are
/// false); `true` means "cannot rule it out — parse and evaluate row-by-row".
///
/// `domains` are the reconciled induction domains when the scan casts columns
/// (inference on), `None` when every data cell stays a string/null.
///
/// ```
/// use df_core::{chunk_may_match, ChunkStats, ColumnChunkStats};
/// use df_core::algebra::{CmpOp, Predicate};
/// use df_types::cell::cell;
/// use df_types::domain::Domain;
///
/// let chunk = ChunkStats {
///     start_byte: 0,
///     end_byte: 100,
///     start_row: 0,
///     rows: 4,
///     columns: vec![ColumnChunkStats {
///         nulls: 0,
///         numeric: Some((10.0, 20.0)),
///         numeric_count: 4,
///         lexical: Some(("10".into(), "20".into())),
///         distinct: 4,
///     }],
/// };
/// let labels = [cell("x")];
/// let gt = |v: f64| Predicate::ColCmp { column: cell("x"), op: CmpOp::Gt, value: cell(v) };
/// // max is 20, so `x > 25` provably matches nothing…
/// assert!(!chunk_may_match(&gt(25.0), &chunk, &labels, Some(&[Domain::Int])));
/// // …while `x > 15` might.
/// assert!(chunk_may_match(&gt(15.0), &chunk, &labels, Some(&[Domain::Int])));
/// ```
pub fn chunk_may_match(
    pred: &Predicate,
    chunk: &ChunkStats,
    labels: &[Cell],
    domains: Option<&[Domain]>,
) -> bool {
    match pred {
        Predicate::True => true,
        Predicate::And(a, b) => {
            chunk_may_match(a, chunk, labels, domains) && chunk_may_match(b, chunk, labels, domains)
        }
        Predicate::Or(a, b) => {
            chunk_may_match(a, chunk, labels, domains) || chunk_may_match(b, chunk, labels, domains)
        }
        Predicate::ColCmp { column, op, value } => {
            let Some(idx) = labels.iter().position(|l| l == column) else {
                // SELECTION on a missing column matches nothing.
                return false;
            };
            let Some(col) = chunk.columns.get(idx) else {
                return true;
            };
            if value.is_null() {
                // Comparisons against null are false for every row.
                return false;
            }
            if col.nulls >= chunk.rows {
                // Every cell is null; null comparisons are false.
                return false;
            }
            match domains.and_then(|d| d.get(idx)) {
                Some(Domain::Int) | Some(Domain::Float) => {
                    // After the cast, every non-null cell is numeric. Only a non-NaN
                    // numeric literal admits interval reasoning (the total ordering
                    // treats a NaN literal as *equal* to every numeric, so NaN must
                    // stay conservative).
                    let literal = match value {
                        Cell::Int(v) => Some(*v as f64),
                        Cell::Float(v) if !v.is_nan() => Some(*v),
                        _ => None,
                    };
                    match literal {
                        Some(v) => {
                            if col.numeric_count == 0 {
                                // Every non-null raw cell fails even the f64 parse, so
                                // the cast nulls them all and the comparison is false.
                                return false;
                            }
                            match col.numeric {
                                Some((lo, hi)) => interval_may_match(*op, lo, hi, v),
                                None => true,
                            }
                        }
                        None => true,
                    }
                }
                // Uninferred scans keep every cell a string, so lexical bounds are
                // complete; an induced Str domain is the same situation.
                None | Some(Domain::Str) => match value.as_str() {
                    Some(text) => match &col.lexical {
                        Some((lo, hi)) => {
                            lexical_interval_may_match(*op, lo.as_str(), hi.as_str(), text)
                        }
                        None => true,
                    },
                    None => true,
                },
                // Bool / DateTime / Category / Composite casts: stay conservative.
                _ => true,
            }
        }
        Predicate::IsNull { column } => {
            let Some(idx) = labels.iter().position(|l| l == column) else {
                return false;
            };
            let Some(col) = chunk.columns.get(idx) else {
                return true;
            };
            if col.nulls > 0 {
                return true;
            }
            // No raw nulls. Without a cast no null can appear; a Str "cast" keeps
            // cells verbatim. Any other cast can null unparseable cells, so those
            // stay conservative.
            !matches!(domains.and_then(|d| d.get(idx)), None | Some(Domain::Str))
        }
        Predicate::NotNull { column } => {
            let Some(idx) = labels.iter().position(|l| l == column) else {
                return false;
            };
            let Some(col) = chunk.columns.get(idx) else {
                return true;
            };
            if col.nulls >= chunk.rows {
                return false;
            }
            match domains.and_then(|d| d.get(idx)) {
                // If nothing parses even as f64, the stricter Int/Float casts null
                // every cell: NotNull matches nothing.
                Some(Domain::Int) | Some(Domain::Float) if col.numeric_count == 0 => false,
                _ => true,
            }
        }
        // Positional predicates, negation and opaque UDFs: never prune.
        Predicate::PositionRange { .. } | Predicate::Not(_) | Predicate::Custom { .. } => true,
    }
}

/// Interval test: can a value in `[lo, hi]` satisfy `op` against `v`?
fn interval_may_match(op: CmpOp, lo: f64, hi: f64, v: f64) -> bool {
    match op {
        CmpOp::Eq => lo <= v && v <= hi,
        // Ne is unsatisfiable only when every value equals the literal.
        CmpOp::Ne => !(lo == hi && lo == v),
        CmpOp::Lt => lo < v,
        CmpOp::Le => lo <= v,
        CmpOp::Gt => hi > v,
        CmpOp::Ge => hi >= v,
    }
}

/// The lexicographic mirror of [`interval_may_match`].
fn lexical_interval_may_match(op: CmpOp, lo: &str, hi: &str, v: &str) -> bool {
    match op {
        CmpOp::Eq => lo <= v && v <= hi,
        CmpOp::Ne => !(lo == hi && lo == v),
        CmpOp::Lt => lo < v,
        CmpOp::Le => lo <= v,
        CmpOp::Gt => hi > v,
        CmpOp::Ge => hi >= v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn chunk(columns: Vec<ColumnChunkStats>, rows: usize) -> ChunkStats {
        ChunkStats {
            start_byte: 0,
            end_byte: 1,
            start_row: 0,
            rows,
            columns,
        }
    }

    fn numeric_col(lo: f64, hi: f64, count: usize, nulls: usize) -> ColumnChunkStats {
        ColumnChunkStats {
            nulls,
            numeric: Some((lo, hi)),
            numeric_count: count,
            lexical: Some((format!("{lo}"), format!("{hi}"))),
            distinct: count.min(DISTINCT_CAP),
        }
    }

    fn cmp(op: CmpOp, value: Cell) -> Predicate {
        Predicate::ColCmp {
            column: cell("x"),
            op,
            value,
        }
    }

    #[test]
    fn observe_tracks_bounds_nulls_and_distincts() {
        let mut stats = ColumnChunkStats::default();
        let mut seen = DistinctSeen::default();
        for raw in ["5", "12", "5", "zebra"] {
            stats.observe(&cell(raw), &mut seen);
        }
        stats.observe(&Cell::Null, &mut seen);
        // The in-place form folds a raw field exactly like its cell.
        let mut streamed = ColumnChunkStats::default();
        let mut seen = DistinctSeen::default();
        for raw in ["5", "12", "5", "zebra", "NA"] {
            streamed.observe_field(raw, raw.trim().parse().ok(), &mut seen);
        }
        assert_eq!(streamed, stats);
        assert_eq!(stats.nulls, 1);
        assert_eq!(stats.numeric, Some((5.0, 12.0)));
        assert_eq!(stats.numeric_count, 3);
        assert_eq!(stats.lexical, Some(("12".to_string(), "zebra".to_string())));
        assert_eq!(stats.distinct, 3);
    }

    #[test]
    fn numeric_interval_pruning_is_exact_on_the_boundaries() {
        let labels = [cell("x")];
        let domains = [Domain::Float];
        let c = chunk(vec![numeric_col(10.0, 20.0, 4, 0)], 4);
        let may = |p: &Predicate| chunk_may_match(p, &c, &labels, Some(&domains));
        assert!(may(&cmp(CmpOp::Eq, cell(10.0))));
        assert!(may(&cmp(CmpOp::Eq, cell(20.0))));
        assert!(!may(&cmp(CmpOp::Eq, cell(9.999))));
        assert!(!may(&cmp(CmpOp::Eq, cell(20.001))));
        assert!(!may(&cmp(CmpOp::Lt, cell(10.0))));
        assert!(may(&cmp(CmpOp::Le, cell(10.0))));
        assert!(!may(&cmp(CmpOp::Gt, cell(20.0))));
        assert!(may(&cmp(CmpOp::Ge, cell(20.0))));
        assert!(may(&cmp(CmpOp::Ne, cell(15.0))));
        let constant = chunk(vec![numeric_col(7.0, 7.0, 3, 0)], 3);
        assert!(!chunk_may_match(
            &cmp(CmpOp::Ne, cell(7.0)),
            &constant,
            &labels,
            Some(&domains)
        ));
    }

    #[test]
    fn nan_literals_and_null_literals_stay_conservative_or_false() {
        let labels = [cell("x")];
        let domains = [Domain::Float];
        let c = chunk(vec![numeric_col(10.0, 20.0, 4, 0)], 4);
        // NaN compares Equal to every numeric under the total ordering: never prune.
        assert!(chunk_may_match(
            &cmp(CmpOp::Eq, cell(f64::NAN)),
            &c,
            &labels,
            Some(&domains)
        ));
        // Comparisons against a null literal match no row at all.
        assert!(!chunk_may_match(
            &cmp(CmpOp::Eq, Cell::Null),
            &c,
            &labels,
            None
        ));
    }

    #[test]
    fn missing_columns_and_all_null_chunks_prune_to_false() {
        let labels = [cell("x")];
        let missing = Predicate::ColCmp {
            column: cell("nope"),
            op: CmpOp::Eq,
            value: cell(1),
        };
        let c = chunk(vec![numeric_col(0.0, 1.0, 2, 0)], 2);
        assert!(!chunk_may_match(&missing, &c, &labels, None));
        assert!(!chunk_may_match(
            &Predicate::IsNull {
                column: cell("nope")
            },
            &c,
            &labels,
            None
        ));
        let all_null = chunk(
            vec![ColumnChunkStats {
                nulls: 3,
                ..ColumnChunkStats::default()
            }],
            3,
        );
        assert!(!chunk_may_match(
            &cmp(CmpOp::Eq, cell(1)),
            &all_null,
            &labels,
            None
        ));
        assert!(!chunk_may_match(
            &Predicate::NotNull { column: cell("x") },
            &all_null,
            &labels,
            None
        ));
    }

    #[test]
    fn null_predicates_respect_cast_produced_nulls() {
        let labels = [cell("x")];
        let clean = chunk(vec![numeric_col(1.0, 2.0, 2, 0)], 2);
        let is_null = Predicate::IsNull { column: cell("x") };
        // No raw nulls + no cast (or a Str cast): provably no null.
        assert!(!chunk_may_match(&is_null, &clean, &labels, None));
        assert!(!chunk_may_match(
            &is_null,
            &clean,
            &labels,
            Some(&[Domain::Str])
        ));
        // An Int cast can null unparseable cells: conservative.
        assert!(chunk_may_match(
            &is_null,
            &clean,
            &labels,
            Some(&[Domain::Int])
        ));
        // A column where nothing parses numerically under a numeric cast: NotNull
        // provably matches nothing.
        let words = chunk(
            vec![ColumnChunkStats {
                nulls: 0,
                numeric: None,
                numeric_count: 0,
                lexical: Some(("a".into(), "z".into())),
                distinct: 2,
            }],
            2,
        );
        assert!(!chunk_may_match(
            &Predicate::NotNull { column: cell("x") },
            &words,
            &labels,
            Some(&[Domain::Float])
        ));
        assert!(!chunk_may_match(
            &cmp(CmpOp::Gt, cell(0)),
            &words,
            &labels,
            Some(&[Domain::Float])
        ));
    }

    #[test]
    fn lexical_pruning_only_fires_for_string_literals_on_string_domains() {
        let labels = [cell("x")];
        let c = chunk(
            vec![ColumnChunkStats {
                nulls: 0,
                numeric: None,
                numeric_count: 0,
                lexical: Some(("apple".into(), "mango".into())),
                distinct: 5,
            }],
            5,
        );
        let eq_z = cmp(CmpOp::Eq, cell("zebra"));
        assert!(!chunk_may_match(&eq_z, &c, &labels, None));
        assert!(!chunk_may_match(&eq_z, &c, &labels, Some(&[Domain::Str])));
        assert!(chunk_may_match(
            &cmp(CmpOp::Eq, cell("banana")),
            &c,
            &labels,
            None
        ));
        // Category/DateTime casts stay conservative even for string literals.
        assert!(chunk_may_match(
            &eq_z,
            &c,
            &labels,
            Some(&[Domain::Category])
        ));
        // Numeric literal against a string domain: conservative.
        assert!(chunk_may_match(&cmp(CmpOp::Eq, cell(3)), &c, &labels, None));
    }

    #[test]
    fn boolean_combinators_compose_and_opaque_predicates_never_prune() {
        let labels = [cell("x")];
        let domains = [Domain::Int];
        let c = chunk(vec![numeric_col(0.0, 9.0, 10, 0)], 10);
        let hit = cmp(CmpOp::Lt, cell(5));
        let miss = cmp(CmpOp::Gt, cell(100));
        let and_miss = Predicate::And(Box::new(hit.clone()), Box::new(miss.clone()));
        assert!(!chunk_may_match(&and_miss, &c, &labels, Some(&domains)));
        let or_hit = Predicate::Or(Box::new(miss.clone()), Box::new(hit));
        assert!(chunk_may_match(&or_hit, &c, &labels, Some(&domains)));
        assert!(chunk_may_match(
            &Predicate::Not(Box::new(miss.clone())),
            &c,
            &labels,
            Some(&domains)
        ));
        assert!(chunk_may_match(
            &Predicate::PositionRange { start: 0, end: 0 },
            &c,
            &labels,
            Some(&domains)
        ));
        assert!(chunk_may_match(
            &Predicate::Custom {
                name: "opaque".into(),
                func: std::sync::Arc::new(|_| false),
            },
            &c,
            &labels,
            Some(&domains)
        ));
    }

    #[test]
    fn scan_clones_share_cached_stats() {
        let scan = ScanCsv::new("f.csv", ScanOptions::default(), "csv@f");
        let filtered = scan.with_predicate(Predicate::True);
        assert!(filtered.stats().is_none());
        scan.set_stats(Arc::new(ScanStats {
            labels: vec![cell("a")],
            n_cols: 1,
            total_rows: 3,
            total_bytes: 12,
            domains: None,
            chunks: vec![],
        }));
        assert_eq!(filtered.stats().unwrap().total_rows, 3);
        let projected = scan.with_projection(vec![cell("a")]);
        assert_eq!(projected.projection.as_deref(), Some(&[cell("a")][..]));
        assert_eq!(scan.with_limit(10, false).limit, Some((10, false)));
    }

    #[test]
    fn surviving_chunks_counts_skips() {
        let stats = ScanStats {
            labels: vec![cell("x")],
            n_cols: 1,
            total_rows: 8,
            total_bytes: 64,
            domains: Some(vec![Domain::Int]),
            chunks: vec![
                chunk(vec![numeric_col(0.0, 3.0, 4, 0)], 4),
                chunk(vec![numeric_col(4.0, 7.0, 4, 0)], 4),
            ],
        };
        assert_eq!(stats.surviving_chunks(None).len(), 2);
        let pred = cmp(CmpOp::Ge, cell(6));
        assert_eq!(stats.surviving_chunks(Some(&pred)).len(), 1);
        // A limit with no predicate reads the chunks its rows span; behind a
        // predicate the survivor count is only an upper bound.
        assert_eq!(stats.chunks_to_parse(None, None), (2, true));
        assert_eq!(stats.chunks_to_parse(None, Some((4, false))), (1, true));
        assert_eq!(stats.chunks_to_parse(None, Some((5, true))), (2, true));
        assert_eq!(stats.chunks_to_parse(None, Some((0, true))), (0, true));
        assert_eq!(
            stats.chunks_to_parse(Some(&pred), Some((1, false))),
            (1, false)
        );
        assert_eq!(stats.bytes_per_row(), 8.0);
        assert_eq!(stats.col_position(&cell("x")), Some(0));
        assert_eq!(stats.col_position(&cell("y")), None);
    }
}
