//! The dataframe algebra of paper §4.3 (Table 1), represented as an expression tree.
//!
//! The algebra has ordered analogues of the extended relational operators (SELECTION,
//! PROJECTION, UNION, DIFFERENCE, CROSS PRODUCT / JOIN, DROP DUPLICATES, GROUPBY, SORT,
//! RENAME), the SQL WINDOW operator, and four operators unique to dataframes:
//! TRANSPOSE, MAP, TOLABELS and FROMLABELS. Expressions are plain data: the pandas API
//! layer *builds* them, the optimizer *rewrites* them, and each engine *interprets*
//! them. That is the "narrow waist" of the MODIN architecture (paper §3.3, Figure 3).
//!
//! All function-valued parameters (predicates, map functions, aggregates, window
//! functions) are enums of named built-ins with an escape hatch for user-defined
//! closures, so that rewrite rules can reason about the common cases (e.g. "this MAP
//! has a statically known output type", §5.1.1) while still supporting arbitrary UDFs.

use std::fmt;
use std::sync::Arc;

use df_types::cell::Cell;
use df_types::domain::Domain;
use df_types::error::{Axis, DfError, DfResult};

use crate::dataframe::DataFrame;
use crate::handle::FrameHandle;

/// A lightweight view of one logical row handed to user-defined functions.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    /// Column labels, aligned with `cells`.
    pub col_labels: &'a [Cell],
    /// The row's label.
    pub row_label: &'a Cell,
    /// The row's cells.
    pub cells: &'a [Cell],
}

impl<'a> RowView<'a> {
    /// The cell under the given column label, if present.
    pub fn get(&self, label: &Cell) -> Option<&'a Cell> {
        let key = label.group_key();
        self.col_labels
            .iter()
            .position(|l| l.group_key() == key)
            .map(|j| &self.cells[j])
    }
}

/// Selects a subset of columns for PROJECTION, WINDOW and aggregation arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSelector {
    /// Every column.
    All,
    /// Columns by label, in the given order.
    ByLabels(Vec<Cell>),
    /// Columns by position, in the given order.
    ByPositions(Vec<usize>),
    /// Every column whose (peeked) domain is numeric — used by `cov`, `get_dummies`
    /// complement, and the MAP normalisation example in §4.3.
    Numeric,
    /// Every column except the named ones.
    Excluding(Vec<Cell>),
}

impl ColumnSelector {
    /// Resolve the selector to concrete column positions for a frame.
    pub(crate) fn resolve(&self, df: &DataFrame) -> DfResult<Vec<usize>> {
        match self {
            ColumnSelector::All => Ok((0..df.n_cols()).collect()),
            ColumnSelector::ByPositions(positions) => {
                for &p in positions {
                    if p >= df.n_cols() {
                        return Err(DfError::IndexOutOfBounds {
                            axis: Axis::Column,
                            index: p,
                            len: df.n_cols(),
                        });
                    }
                }
                Ok(positions.clone())
            }
            ColumnSelector::ByLabels(labels) => labels.iter().map(|l| df.col_position(l)).collect(),
            ColumnSelector::Numeric => Ok((0..df.n_cols())
                .filter(|&j| df.columns()[j].peek_domain().is_numeric())
                .collect()),
            ColumnSelector::Excluding(labels) => {
                let excluded: Vec<usize> = labels
                    .iter()
                    .map(|l| df.col_position(l))
                    .collect::<DfResult<_>>()?;
                Ok((0..df.n_cols()).filter(|j| !excluded.contains(j)).collect())
            }
        }
    }
}

/// Comparison operators for simple column predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison between two cells using the total cell ordering.
    pub(crate) fn eval(&self, left: &Cell, right: &Cell) -> bool {
        if left.is_null() || right.is_null() {
            return false;
        }
        self.eval_ord(left.total_cmp(right))
    }

    /// Decide the comparison from an already-computed ordering. The vectorized
    /// predicate kernel computes orderings straight off typed values and funnels
    /// them through here so both paths share one decision table.
    #[inline]
    pub(crate) fn eval_ord(&self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Ne => ord != std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Le => ord != std::cmp::Ordering::Greater,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
            CmpOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }
}

/// Row predicate for SELECTION.
#[derive(Clone)]
pub enum Predicate {
    /// Always true (identity selection).
    True,
    /// Compare a named column's value against a constant.
    ColCmp {
        /// Column label.
        column: Cell,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare with.
        value: Cell,
    },
    /// True when the named column is null in this row.
    IsNull {
        /// Column label.
        column: Cell,
    },
    /// True when the named column is non-null in this row.
    NotNull {
        /// Column label.
        column: Cell,
    },
    /// Select rows by position `start..end` (ordered positional selection — dataframes
    /// support SELECTION on row position, §5.2.1).
    PositionRange {
        /// First position included.
        start: usize,
        /// First position excluded.
        end: usize,
    },
    /// Logical negation.
    Not(Box<Predicate>),
    /// Logical conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Logical disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Arbitrary user predicate over the whole row.
    Custom {
        /// Name used in plan displays and cache keys.
        name: String,
        /// The predicate body.
        func: Arc<dyn Fn(RowView<'_>) -> bool + Send + Sync>,
    },
}

impl Predicate {
    /// True when the predicate is *sargable* for scan pushdown: built only from
    /// column/constant comparisons, null tests and boolean combinators — no
    /// positional selection (row positions change once a scan filters during the
    /// parse loop) and no opaque UDFs (which may read columns the planner cannot
    /// see).
    ///
    /// ```
    /// use df_core::algebra::{CmpOp, Predicate};
    /// use df_types::cell::cell;
    ///
    /// let sargable = Predicate::And(
    ///     Box::new(Predicate::ColCmp { column: cell("a"), op: CmpOp::Gt, value: cell(1) }),
    ///     Box::new(Predicate::NotNull { column: cell("b") }),
    /// );
    /// assert!(sargable.scan_pushable());
    /// assert!(!Predicate::PositionRange { start: 0, end: 5 }.scan_pushable());
    /// ```
    pub fn scan_pushable(&self) -> bool {
        match self {
            Predicate::True
            | Predicate::ColCmp { .. }
            | Predicate::IsNull { .. }
            | Predicate::NotNull { .. } => true,
            Predicate::Not(inner) => inner.scan_pushable(),
            Predicate::And(a, b) | Predicate::Or(a, b) => a.scan_pushable() && b.scan_pushable(),
            Predicate::PositionRange { .. } | Predicate::Custom { .. } => false,
        }
    }

    /// Every column label the predicate reads, or `None` when it may read columns the
    /// planner cannot enumerate (opaque UDFs). Duplicates are removed, first
    /// occurrence order kept.
    pub fn referenced_columns(&self) -> Option<Vec<Cell>> {
        fn walk(pred: &Predicate, out: &mut Vec<Cell>) -> bool {
            match pred {
                Predicate::True | Predicate::PositionRange { .. } => true,
                Predicate::ColCmp { column, .. }
                | Predicate::IsNull { column }
                | Predicate::NotNull { column } => {
                    if !out.contains(column) {
                        out.push(column.clone());
                    }
                    true
                }
                Predicate::Not(inner) => walk(inner, out),
                Predicate::And(a, b) | Predicate::Or(a, b) => walk(a, out) && walk(b, out),
                Predicate::Custom { .. } => false,
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out).then_some(out)
    }
}

impl Predicate {
    /// Evaluate the predicate for the row at `position`.
    pub fn matches(&self, position: usize, row: RowView<'_>) -> bool {
        match self {
            Predicate::True => true,
            Predicate::ColCmp { column, op, value } => row
                .get(column)
                .map(|cell| op.eval(cell, value))
                .unwrap_or(false),
            Predicate::IsNull { column } => row.get(column).map(Cell::is_null).unwrap_or(false),
            Predicate::NotNull { column } => row.get(column).map(|c| !c.is_null()).unwrap_or(false),
            Predicate::PositionRange { start, end } => position >= *start && position < *end,
            Predicate::Not(inner) => !inner.matches(position, row),
            Predicate::And(a, b) => a.matches(position, row) && b.matches(position, row),
            Predicate::Or(a, b) => a.matches(position, row) || b.matches(position, row),
            Predicate::Custom { func, .. } => func(row),
        }
    }

    /// True when the predicate reads row *positions* anywhere in its tree. Positions
    /// are global — row `i` of the whole frame, not of whichever band is being
    /// filtered — so an engine must evaluate such a predicate with each band's row
    /// offset, and an optimizer must not move it across anything that renumbers rows
    /// (`σ_pos(σ_val(x)) ≠ σ_{val ∧ pos}(x)`).
    pub fn reads_position(&self) -> bool {
        match self {
            Predicate::PositionRange { .. } => true,
            Predicate::Not(inner) => inner.reads_position(),
            Predicate::And(a, b) | Predicate::Or(a, b) => a.reads_position() || b.reads_position(),
            _ => false,
        }
    }
}

impl fmt::Debug for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "True"),
            Predicate::ColCmp { column, op, value } => {
                write!(f, "{column} {op:?} {value}")
            }
            Predicate::IsNull { column } => write!(f, "IsNull({column})"),
            Predicate::NotNull { column } => write!(f, "NotNull({column})"),
            Predicate::PositionRange { start, end } => write!(f, "Position[{start}..{end})"),
            Predicate::Not(p) => write!(f, "Not({p:?})"),
            Predicate::And(a, b) => write!(f, "({a:?} AND {b:?})"),
            Predicate::Or(a, b) => write!(f, "({a:?} OR {b:?})"),
            Predicate::Custom { name, .. } => write!(f, "Custom({name})"),
        }
    }
}

/// MAP functions: applied uniformly to every row, producing a row of fixed arity
/// (paper §4.3). Built-ins cover the rewrites of Table 2 and the workloads of Figure 2;
/// `Custom` covers arbitrary UDFs.
#[derive(Clone)]
pub enum MapFunc {
    /// Replace every cell with a boolean null indicator (pandas `isna` — the Figure 2
    /// "map" query: "check if each value in the dataframe is null").
    IsNullMask,
    /// Replace nulls with the given value (pandas `fillna`).
    FillNull(Cell),
    /// Upper-case every string cell (pandas `str.upper`).
    StrUpper,
    /// Lower-case every string cell.
    StrLower,
    /// Add a constant to every numeric cell.
    NumericAdd(f64),
    /// Multiply every numeric cell by a constant.
    NumericMul(f64),
    /// Cast the named columns to the given domains (pandas `astype`).
    Cast(Vec<(Cell, Domain)>),
    /// Parse raw string cells using each column's induced domain (explicit `S` + `p_i`).
    ParseRaw,
    /// Normalise the numeric cells of each row so they sum to 1.0 — the paper's example
    /// of a generic MAP that cannot be expressed schema-independently in SQL (§4.3).
    NormalizeNumeric,
    /// One-hot encode the named column against the provided category list, replacing it
    /// with one indicator column per category (pandas `get_dummies` on one column).
    OneHot {
        /// Column to encode.
        column: Cell,
        /// The full category list (defines the new columns, in order).
        categories: Vec<Cell>,
    },
    /// Flatten GROUPBY `collect` output into a pivoted row (one output column per entry
    /// of `output_labels`, values drawn from `value_source` aligned by `label_source`).
    PivotFlatten {
        /// Collected column whose values name the output columns.
        label_source: Cell,
        /// Collected column whose values fill the output cells.
        value_source: Cell,
        /// Full ordered list of output column labels.
        output_labels: Vec<Cell>,
    },
    /// Keep only the cells of the selected columns (a value-preserving projection used
    /// in MAP form by `reindex_like`, §4.4).
    ProjectValues(ColumnSelector),
    /// Arbitrary per-row function with explicit output arity.
    Custom {
        /// Name used in plan displays and cache keys.
        name: String,
        /// Output column labels (fixed arity, per the MAP definition).
        output_labels: Vec<Cell>,
        /// Optional statically known output domains, declared on the result, not induced.
        output_domains: Option<Vec<Domain>>,
        /// The row function.
        func: Arc<dyn Fn(RowView<'_>) -> Vec<Cell> + Send + Sync>,
    },
    /// Arbitrary per-cell function applied to every cell (pandas `transform`/`applymap`).
    PerCell {
        /// Name used in plan displays and cache keys.
        name: String,
        /// The cell function.
        func: Arc<dyn Fn(&Cell) -> Cell + Send + Sync>,
    },
}

impl MapFunc {
    /// True when the map keeps the input arity and column labels unchanged.
    pub fn preserves_arity(&self) -> bool {
        !matches!(
            self,
            MapFunc::OneHot { .. }
                | MapFunc::PivotFlatten { .. }
                | MapFunc::Custom { .. }
                | MapFunc::ProjectValues(_)
        )
    }
}

impl fmt::Debug for MapFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapFunc::IsNullMask => write!(f, "IsNullMask"),
            MapFunc::FillNull(v) => write!(f, "FillNull({v})"),
            MapFunc::StrUpper => write!(f, "StrUpper"),
            MapFunc::StrLower => write!(f, "StrLower"),
            MapFunc::NumericAdd(v) => write!(f, "NumericAdd({v})"),
            MapFunc::NumericMul(v) => write!(f, "NumericMul({v})"),
            MapFunc::Cast(cols) => write!(f, "Cast({cols:?})"),
            MapFunc::ParseRaw => write!(f, "ParseRaw"),
            MapFunc::NormalizeNumeric => write!(f, "NormalizeNumeric"),
            MapFunc::OneHot { column, categories } => {
                write!(f, "OneHot({column}, {} categories)", categories.len())
            }
            MapFunc::PivotFlatten {
                label_source,
                value_source,
                output_labels,
            } => write!(
                f,
                "PivotFlatten({label_source} -> {value_source}, {} labels)",
                output_labels.len()
            ),
            MapFunc::ProjectValues(selector) => write!(f, "ProjectValues({selector:?})"),
            MapFunc::Custom { name, .. } => write!(f, "Custom({name})"),
            MapFunc::PerCell { name, .. } => write!(f, "PerCell({name})"),
        }
    }
}

/// Aggregate functions for GROUPBY.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// Number of rows in the group.
    Count,
    /// Number of non-null values of the aggregated column in the group.
    CountNonNull,
    /// Sum of numeric values.
    Sum,
    /// Arithmetic mean of numeric values.
    Mean,
    /// Minimum by the total cell ordering.
    Min,
    /// Maximum by the total cell ordering.
    Max,
    /// Sample standard deviation.
    Std,
    /// First value in group order.
    First,
    /// Last value in group order.
    Last,
    /// The paper's `collect`: gather the group's values into a composite cell, enabling
    /// pivot and other reshaping macros (§4.3).
    Collect,
}

/// One aggregation: which column to aggregate, how, and what to call the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregation {
    /// Input column; `None` aggregates over the whole row (only meaningful for Count).
    pub column: Option<Cell>,
    /// The aggregate function.
    pub func: AggFunc,
    /// Output column label; defaults to the input label.
    pub alias: Option<Cell>,
}

impl Aggregation {
    /// Aggregate a named column.
    pub fn of(column: impl Into<Cell>, func: AggFunc) -> Self {
        Aggregation {
            column: Some(column.into()),
            func,
            alias: None,
        }
    }

    /// Count rows per group.
    pub fn count_rows() -> Self {
        Aggregation {
            column: None,
            func: AggFunc::Count,
            alias: Some(Cell::Str("count".into())),
        }
    }

    /// Rename the output column.
    pub fn with_alias(mut self, alias: impl Into<Cell>) -> Self {
        self.alias = Some(alias.into());
        self
    }

    /// The output label of the aggregation.
    pub fn output_label(&self) -> Cell {
        if let Some(alias) = &self.alias {
            return alias.clone();
        }
        match &self.column {
            Some(c) => c.clone(),
            None => Cell::Str("count".into()),
        }
    }
}

/// WINDOW functions (paper §4.3: "largely analogous to SQL window extensions", except
/// that the dataframe's inherent order makes ORDER BY optional).
#[derive(Debug, Clone, PartialEq)]
pub enum WindowFunc {
    /// Cumulative sum.
    CumSum,
    /// Cumulative maximum (pandas `cummax`).
    CumMax,
    /// Cumulative minimum.
    CumMin,
    /// Difference with the value `lag` rows earlier (pandas `diff`).
    Diff {
        /// Lag distance in rows.
        lag: usize,
    },
    /// Shift values down by `offset` rows, filling vacated cells with null (pandas
    /// `shift`).
    Shift {
        /// Shift distance in rows (positive shifts down).
        offset: i64,
    },
    /// Rolling mean over a trailing window of `size` rows.
    RollingMean {
        /// Window size in rows.
        size: usize,
    },
    /// Rolling sum over a trailing window of `size` rows.
    RollingSum {
        /// Window size in rows.
        size: usize,
    },
}

/// How a JOIN matches rows.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinOn {
    /// Join on one or more data columns present in both inputs.
    Columns(Vec<Cell>),
    /// Join on the row labels of both inputs (pandas `merge(left_index=True,
    /// right_index=True)`, used in workflow step A2).
    RowLabels,
}

/// Join variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Keep only matching rows.
    Inner,
    /// Keep all left rows, null-extending unmatched ones.
    Left,
    /// Keep all rows from both sides.
    Outer,
}

/// Sort specification for SORT.
#[derive(Debug, Clone, PartialEq)]
pub struct SortSpec {
    /// Columns to sort by, in priority order.
    pub by: Vec<Cell>,
    /// Per-column ascending flag (recycled if shorter than `by`).
    pub ascending: Vec<bool>,
    /// Advisory: every engine sorts stably (dataframe users rely on stability to
    /// preserve the prior order of ties — the logical order is part of the data model —
    /// and a stable order is a valid answer to a request that does not need one), so
    /// `false` asks for nothing different. The field still rides the task wire.
    pub stable: bool,
}

impl SortSpec {
    /// Ascending stable sort by the given columns.
    pub fn ascending(by: Vec<Cell>) -> Self {
        SortSpec {
            by,
            ascending: vec![true],
            stable: true,
        }
    }

    /// Whether column `i` in `by` sorts ascending.
    pub fn is_ascending(&self, i: usize) -> bool {
        self.ascending
            .get(i)
            .or_else(|| self.ascending.last())
            .copied()
            .unwrap_or(true)
    }
}

/// An expression in the dataframe algebra. Executing an expression yields a
/// [`DataFrame`]. Children are held by `Arc`, so plans share subtrees: building on a
/// plan, keying it or rewriting it copies only the nodes that change.
#[derive(Debug, Clone)]
pub enum AlgebraExpr {
    /// A literal (already materialised) dataframe. Stored behind `Arc` so expression
    /// trees do not copy large frames.
    Literal(Arc<DataFrame>),
    /// An engine-owned result handle from an earlier statement (§6.1): the leaf that
    /// lets one statement's output feed the next statement's plan without assembling
    /// or re-partitioning it. Engines that recognise the handle resume from their own
    /// partitioned representation; others fall back to materialising it.
    Handle(FrameHandle),
    /// A first-class CSV scan leaf (the tentpole of the cost-based optimizer): a
    /// file path plus parse options, per-chunk statistics cached after the first
    /// plan/parse pass, and the projection/predicate the optimizer has pushed into
    /// it. Engines with a storage layer evaluate it with chunk skipping and
    /// column-pruned parsing; the reference executor (which has none) rejects it.
    ScanCsv(Arc<crate::scan::ScanCsv>),
    /// SELECTION: keep the rows satisfying the predicate, preserving their order.
    Selection {
        /// Input expression.
        input: Arc<AlgebraExpr>,
        /// Row predicate.
        predicate: Predicate,
    },
    /// PROJECTION: keep (and reorder) the selected columns.
    Projection {
        /// Input expression.
        input: Arc<AlgebraExpr>,
        /// Column selector.
        columns: ColumnSelector,
    },
    /// UNION: ordered concatenation, left argument first (paper Table 1 footnote †).
    Union {
        /// Left input (its rows come first).
        left: Arc<AlgebraExpr>,
        /// Right input.
        right: Arc<AlgebraExpr>,
    },
    /// DIFFERENCE: rows of the left input not present in the right, in left order.
    Difference {
        /// Left input.
        left: Arc<AlgebraExpr>,
        /// Right input.
        right: Arc<AlgebraExpr>,
    },
    /// CROSS PRODUCT: nested-order pairing of left and right rows.
    CrossProduct {
        /// Left input (outer order).
        left: Arc<AlgebraExpr>,
        /// Right input (inner order).
        right: Arc<AlgebraExpr>,
    },
    /// JOIN: equi-join on columns or on row labels, ordered by the left argument.
    Join {
        /// Left input.
        left: Arc<AlgebraExpr>,
        /// Right input.
        right: Arc<AlgebraExpr>,
        /// Join keys.
        on: JoinOn,
        /// Join variant.
        how: JoinType,
    },
    /// DROP DUPLICATES: remove duplicate rows, keeping the first occurrence.
    DropDuplicates {
        /// Input expression.
        input: Arc<AlgebraExpr>,
    },
    /// GROUPBY: group on key columns (empty = one global group) and aggregate.
    GroupBy {
        /// Input expression.
        input: Arc<AlgebraExpr>,
        /// Grouping key columns (may be empty).
        keys: Vec<Cell>,
        /// Aggregations to compute per group.
        aggs: Vec<Aggregation>,
        /// Whether group keys become the result's row labels (pandas' implicit
        /// TOLABELS on groupby, §4.3).
        keys_as_labels: bool,
    },
    /// SORT: lexicographic stable sort producing a new order.
    Sort {
        /// Input expression.
        input: Arc<AlgebraExpr>,
        /// Sort specification.
        spec: SortSpec,
    },
    /// RENAME: change column labels.
    Rename {
        /// Input expression.
        input: Arc<AlgebraExpr>,
        /// `(old label, new label)` pairs.
        mapping: Vec<(Cell, Cell)>,
    },
    /// WINDOW: apply a sliding-window function to the selected columns.
    Window {
        /// Input expression.
        input: Arc<AlgebraExpr>,
        /// Columns to apply the window function to.
        columns: ColumnSelector,
        /// The window function.
        func: WindowFunc,
    },
    /// TRANSPOSE: swap rows and columns (data and metadata).
    Transpose {
        /// Input expression.
        input: Arc<AlgebraExpr>,
    },
    /// MAP: apply a function uniformly to every row.
    Map {
        /// Input expression.
        input: Arc<AlgebraExpr>,
        /// The row function.
        func: MapFunc,
    },
    /// TOLABELS: promote a data column to the row labels, removing it from the data.
    ToLabels {
        /// Input expression.
        input: Arc<AlgebraExpr>,
        /// The column to promote.
        column: Cell,
    },
    /// FROMLABELS: demote the row labels into a new data column at position 0 and reset
    /// the row labels to positional ranks.
    FromLabels {
        /// Input expression.
        input: Arc<AlgebraExpr>,
        /// Label for the new column.
        new_column: Cell,
    },
    /// LIMIT: keep the first (or last) `k` rows. Not one of the 14 algebra operators —
    /// it is expressible as a positional SELECTION — but kept as an explicit node so
    /// engines can prioritise prefix/suffix execution (§6.1.2).
    Limit {
        /// Input expression.
        input: Arc<AlgebraExpr>,
        /// Number of rows to keep.
        k: usize,
        /// Keep the suffix instead of the prefix.
        from_end: bool,
    },
}

impl AlgebraExpr {
    /// Wrap a dataframe as a literal expression.
    pub fn literal(df: DataFrame) -> Self {
        AlgebraExpr::Literal(Arc::new(df))
    }

    /// Wrap an already-shared dataframe as a literal expression.
    pub fn literal_arc(df: Arc<DataFrame>) -> Self {
        AlgebraExpr::Literal(df)
    }

    /// Wrap an engine-owned result handle as a plan leaf.
    pub fn handle(handle: FrameHandle) -> Self {
        AlgebraExpr::Handle(handle)
    }

    /// Wrap a CSV scan as a plan leaf.
    pub fn scan_csv(scan: crate::scan::ScanCsv) -> Self {
        AlgebraExpr::ScanCsv(Arc::new(scan))
    }

    /// The operator name (used in plan displays and cache keys).
    pub fn name(&self) -> &'static str {
        match self {
            AlgebraExpr::Literal(_) => "LITERAL",
            AlgebraExpr::Handle(_) => "HANDLE",
            AlgebraExpr::ScanCsv(_) => "SCAN_CSV",
            AlgebraExpr::Selection { .. } => "SELECTION",
            AlgebraExpr::Projection { .. } => "PROJECTION",
            AlgebraExpr::Union { .. } => "UNION",
            AlgebraExpr::Difference { .. } => "DIFFERENCE",
            AlgebraExpr::CrossProduct { .. } => "CROSS_PRODUCT",
            AlgebraExpr::Join { .. } => "JOIN",
            AlgebraExpr::DropDuplicates { .. } => "DROP_DUPLICATES",
            AlgebraExpr::GroupBy { .. } => "GROUPBY",
            AlgebraExpr::Sort { .. } => "SORT",
            AlgebraExpr::Rename { .. } => "RENAME",
            AlgebraExpr::Window { .. } => "WINDOW",
            AlgebraExpr::Transpose { .. } => "TRANSPOSE",
            AlgebraExpr::Map { .. } => "MAP",
            AlgebraExpr::ToLabels { .. } => "TOLABELS",
            AlgebraExpr::FromLabels { .. } => "FROMLABELS",
            AlgebraExpr::Limit { .. } => "LIMIT",
        }
    }

    /// Child expressions (0 for literals, 1 for unary, 2 for binary operators).
    pub fn children(&self) -> Vec<&Arc<AlgebraExpr>> {
        match self {
            AlgebraExpr::Literal(_) | AlgebraExpr::Handle(_) | AlgebraExpr::ScanCsv(_) => vec![],
            AlgebraExpr::Selection { input, .. }
            | AlgebraExpr::Projection { input, .. }
            | AlgebraExpr::DropDuplicates { input }
            | AlgebraExpr::GroupBy { input, .. }
            | AlgebraExpr::Sort { input, .. }
            | AlgebraExpr::Rename { input, .. }
            | AlgebraExpr::Window { input, .. }
            | AlgebraExpr::Transpose { input }
            | AlgebraExpr::Map { input, .. }
            | AlgebraExpr::ToLabels { input, .. }
            | AlgebraExpr::FromLabels { input, .. }
            | AlgebraExpr::Limit { input, .. } => vec![input],
            AlgebraExpr::Union { left, right }
            | AlgebraExpr::Difference { left, right }
            | AlgebraExpr::CrossProduct { left, right }
            | AlgebraExpr::Join { left, right, .. } => vec![left, right],
        }
    }

    /// This operator over new inputs, given in [`AlgebraExpr::children`] order: the
    /// node is copied, and every subtree below it is shared, not copied. The inputs are
    /// drawn before the copy, so it holds no extra reference to the old ones meanwhile.
    pub fn with_children(&self, children: impl IntoIterator<Item = Arc<AlgebraExpr>>) -> Self {
        let children: Vec<_> = children.into_iter().collect();
        let mut out = self.clone();
        let mut children = children.into_iter();
        let mut next = |slot: &mut Arc<AlgebraExpr>| {
            *slot = children.next().expect("one new child per input");
        };
        match &mut out {
            AlgebraExpr::Literal(_) | AlgebraExpr::Handle(_) | AlgebraExpr::ScanCsv(_) => {}
            AlgebraExpr::Selection { input, .. }
            | AlgebraExpr::Projection { input, .. }
            | AlgebraExpr::DropDuplicates { input }
            | AlgebraExpr::GroupBy { input, .. }
            | AlgebraExpr::Sort { input, .. }
            | AlgebraExpr::Rename { input, .. }
            | AlgebraExpr::Window { input, .. }
            | AlgebraExpr::Transpose { input }
            | AlgebraExpr::Map { input, .. }
            | AlgebraExpr::ToLabels { input, .. }
            | AlgebraExpr::FromLabels { input, .. }
            | AlgebraExpr::Limit { input, .. } => next(input),
            AlgebraExpr::Union { left, right }
            | AlgebraExpr::Difference { left, right }
            | AlgebraExpr::CrossProduct { left, right }
            | AlgebraExpr::Join { left, right, .. } => {
                next(left);
                next(right);
            }
        }
        out
    }

    /// Total number of operator nodes in the expression tree (excluding the literal
    /// and handle leaves).
    pub fn operator_count(&self) -> usize {
        let own = usize::from(!matches!(
            self,
            AlgebraExpr::Literal(_) | AlgebraExpr::Handle(_) | AlgebraExpr::ScanCsv(_)
        ));
        own + self
            .children()
            .iter()
            .map(|c| c.operator_count())
            .sum::<usize>()
    }

    /// Depth of the expression tree.
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Count how many TRANSPOSE nodes occur in the tree — the optimizer reports this
    /// before/after rewriting (transpose is the operator the paper singles out as most
    /// expensive to materialise).
    pub fn transpose_count(&self) -> usize {
        let own = usize::from(matches!(self, AlgebraExpr::Transpose { .. }));
        own + self
            .children()
            .iter()
            .map(|c| c.transpose_count())
            .sum::<usize>()
    }

    // --- Builder helpers (fluent construction used by df-pandas and tests) ---

    /// SELECTION on this expression.
    pub fn select(self, predicate: Predicate) -> Self {
        AlgebraExpr::Selection {
            input: Arc::new(self),
            predicate,
        }
    }

    /// PROJECTION on this expression.
    pub fn project(self, columns: ColumnSelector) -> Self {
        AlgebraExpr::Projection {
            input: Arc::new(self),
            columns,
        }
    }

    /// UNION with another expression.
    pub fn union(self, right: impl Into<Arc<AlgebraExpr>>) -> Self {
        AlgebraExpr::Union {
            left: Arc::new(self),
            right: right.into(),
        }
    }

    /// DIFFERENCE with another expression.
    pub fn difference(self, right: impl Into<Arc<AlgebraExpr>>) -> Self {
        AlgebraExpr::Difference {
            left: Arc::new(self),
            right: right.into(),
        }
    }

    /// CROSS PRODUCT with another expression.
    pub fn cross(self, right: impl Into<Arc<AlgebraExpr>>) -> Self {
        AlgebraExpr::CrossProduct {
            left: Arc::new(self),
            right: right.into(),
        }
    }

    /// JOIN with another expression.
    pub fn join(self, right: impl Into<Arc<AlgebraExpr>>, on: JoinOn, how: JoinType) -> Self {
        AlgebraExpr::Join {
            left: Arc::new(self),
            right: right.into(),
            on,
            how,
        }
    }

    /// DROP DUPLICATES on this expression.
    pub fn drop_duplicates(self) -> Self {
        AlgebraExpr::DropDuplicates {
            input: Arc::new(self),
        }
    }

    /// GROUPBY on this expression.
    pub fn group_by(self, keys: Vec<Cell>, aggs: Vec<Aggregation>, keys_as_labels: bool) -> Self {
        AlgebraExpr::GroupBy {
            input: Arc::new(self),
            keys,
            aggs,
            keys_as_labels,
        }
    }

    /// SORT on this expression.
    pub fn sort(self, spec: SortSpec) -> Self {
        AlgebraExpr::Sort {
            input: Arc::new(self),
            spec,
        }
    }

    /// RENAME on this expression.
    pub fn rename(self, mapping: Vec<(Cell, Cell)>) -> Self {
        AlgebraExpr::Rename {
            input: Arc::new(self),
            mapping,
        }
    }

    /// WINDOW on this expression.
    pub fn window(self, columns: ColumnSelector, func: WindowFunc) -> Self {
        AlgebraExpr::Window {
            input: Arc::new(self),
            columns,
            func,
        }
    }

    /// TRANSPOSE of this expression.
    pub fn transpose(self) -> Self {
        AlgebraExpr::Transpose {
            input: Arc::new(self),
        }
    }

    /// MAP on this expression.
    pub fn map(self, func: MapFunc) -> Self {
        AlgebraExpr::Map {
            input: Arc::new(self),
            func,
        }
    }

    /// TOLABELS on this expression.
    pub fn to_labels(self, column: impl Into<Cell>) -> Self {
        AlgebraExpr::ToLabels {
            input: Arc::new(self),
            column: column.into(),
        }
    }

    /// FROMLABELS on this expression.
    pub fn from_labels(self, new_column: impl Into<Cell>) -> Self {
        AlgebraExpr::FromLabels {
            input: Arc::new(self),
            new_column: new_column.into(),
        }
    }

    /// LIMIT (head/tail) on this expression.
    pub fn limit(self, k: usize, from_end: bool) -> Self {
        AlgebraExpr::Limit {
            input: Arc::new(self),
            k,
            from_end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn frame() -> DataFrame {
        DataFrame::from_rows(
            vec!["a", "b"],
            vec![vec![cell(1), cell("x")], vec![cell(2), cell("y")]],
        )
        .unwrap()
    }

    #[test]
    fn column_selector_resolution() {
        let df = frame();
        assert_eq!(ColumnSelector::All.resolve(&df).unwrap(), vec![0, 1]);
        assert_eq!(
            ColumnSelector::ByLabels(vec![cell("b")])
                .resolve(&df)
                .unwrap(),
            vec![1]
        );
        assert_eq!(
            ColumnSelector::ByPositions(vec![1, 0])
                .resolve(&df)
                .unwrap(),
            vec![1, 0]
        );
        assert_eq!(ColumnSelector::Numeric.resolve(&df).unwrap(), vec![0]);
        assert_eq!(
            ColumnSelector::Excluding(vec![cell("a")])
                .resolve(&df)
                .unwrap(),
            vec![1]
        );
        assert!(ColumnSelector::ByLabels(vec![cell("z")])
            .resolve(&df)
            .is_err());
        assert!(ColumnSelector::ByPositions(vec![9]).resolve(&df).is_err());
    }

    #[test]
    fn cmp_op_semantics_and_null_handling() {
        assert!(CmpOp::Eq.eval(&cell(2), &cell(2.0)));
        assert!(CmpOp::Lt.eval(&cell(1), &cell(2)));
        assert!(CmpOp::Ge.eval(&cell("b"), &cell("a")));
        assert!(!CmpOp::Eq.eval(&Cell::Null, &Cell::Null));
        assert!(!CmpOp::Gt.eval(&cell(1), &Cell::Null));
    }

    #[test]
    fn predicate_matching_and_position_only_detection() {
        let df = frame();
        let row = RowView {
            col_labels: df.col_labels().as_slice(),
            row_label: &cell(0),
            cells: &[cell(1), cell("x")],
        };
        let pred = Predicate::ColCmp {
            column: cell("a"),
            op: CmpOp::Gt,
            value: cell(0),
        };
        assert!(pred.matches(0, row));
        let positional = Predicate::And(
            Box::new(Predicate::PositionRange { start: 0, end: 5 }),
            Box::new(Predicate::True),
        );
        assert!(positional.matches(3, row));
        let negated = Predicate::Not(Box::new(Predicate::IsNull { column: cell("a") }));
        assert!(negated.matches(0, row));
        let custom = Predicate::Custom {
            name: "has_x".into(),
            func: Arc::new(|r: RowView<'_>| {
                r.get(&cell("b")).map(|c| c == &cell("x")).unwrap_or(false)
            }),
        };
        assert!(custom.matches(0, row));
        assert!(format!("{custom:?}").contains("has_x"));
    }

    #[test]
    fn map_func_arity() {
        assert!(MapFunc::FillNull(Cell::Null).preserves_arity());
        assert!(!MapFunc::OneHot {
            column: cell("a"),
            categories: vec![cell("x")]
        }
        .preserves_arity());
    }

    #[test]
    fn aggregation_output_labels() {
        assert_eq!(
            Aggregation::of("fare", AggFunc::Sum).output_label(),
            cell("fare")
        );
        assert_eq!(
            Aggregation::of("fare", AggFunc::Sum)
                .with_alias("total")
                .output_label(),
            cell("total")
        );
        assert_eq!(Aggregation::count_rows().output_label(), cell("count"));
    }

    #[test]
    fn sort_spec_recycles_ascending() {
        let spec = SortSpec {
            by: vec![cell("a"), cell("b")],
            ascending: vec![false],
            stable: true,
        };
        assert!(!spec.is_ascending(0));
        assert!(!spec.is_ascending(1));
        assert!(SortSpec::ascending(vec![cell("a")]).is_ascending(0));
    }

    #[test]
    fn expr_builders_and_introspection() {
        let base = AlgebraExpr::literal(frame());
        let expr = base
            .clone()
            .select(Predicate::True)
            .project(ColumnSelector::All)
            .transpose()
            .map(MapFunc::IsNullMask)
            .limit(5, false);
        assert_eq!(expr.operator_count(), 5);
        assert_eq!(expr.depth(), 6);
        assert_eq!(expr.transpose_count(), 1);
        assert_eq!(expr.name(), "LIMIT");
        let join = base
            .clone()
            .join(base.clone(), JoinOn::RowLabels, JoinType::Inner);
        assert_eq!(join.children().len(), 2);
        assert_eq!(join.name(), "JOIN");
    }

    #[test]
    fn handle_leaves_behave_like_literals_in_plans() {
        let handle = FrameHandle::from_dataframe(frame());
        let expr = AlgebraExpr::handle(handle).select(Predicate::True);
        assert_eq!(expr.name(), "SELECTION");
        assert_eq!(expr.operator_count(), 1);
        assert_eq!(expr.children()[0].name(), "HANDLE");
    }
}
