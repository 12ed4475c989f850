//! The dataframe data model of paper §4.2.
//!
//! A dataframe is the tuple `(A_mn, R_m, C_n, D_n)`: an `m × n` array of entries, a
//! vector of `m` row labels, a vector of `n` column labels, and a vector of `n` domains
//! ("the schema"), any entry of which may be left unspecified and induced later by the
//! schema induction function `S`.
//!
//! The concrete representation here is columnar: a [`DataFrame`] owns one [`Column`]
//! per column label, each holding its cells plus a [`SchemaSlot`] implementing the lazy
//! schema. Rows are reconstructed on demand. This is only the *reference*
//! representation — the baseline engine deliberately converts to a row-major layout and
//! the scalable engine partitions frames into blocks — but all engines produce plain
//! `DataFrame` values as results so they can be compared cell-for-cell.

use std::fmt;

use df_types::cell::Cell;
use df_types::domain::Domain;
use df_types::error::{Axis, DfError, DfResult};
use df_types::labels::Labels;
use df_types::{induce_domain, induce_from_strings, SchemaSlot};

/// One column of a dataframe: its cells plus the (possibly lazy) domain slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Column {
    cells: Vec<Cell>,
    schema: SchemaSlot,
}

impl Column {
    /// A column from typed cells with an unknown (to-be-induced) domain.
    pub fn new(cells: Vec<Cell>) -> Self {
        Column {
            cells,
            schema: SchemaSlot::unknown(),
        }
    }

    /// A column from typed cells with a declared domain.
    pub fn with_domain(cells: Vec<Cell>, domain: Domain) -> Self {
        Column {
            cells,
            schema: SchemaSlot::declared(domain),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Borrow the cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Mutably borrow the cells (the schema cache is invalidated).
    pub fn cells_mut(&mut self) -> &mut Vec<Cell> {
        self.schema.invalidate();
        &mut self.cells
    }

    /// Consume the column, returning its cells.
    pub(crate) fn into_cells(self) -> Vec<Cell> {
        self.cells
    }

    /// The cell at `index`, if in bounds.
    pub(crate) fn get(&self, index: usize) -> Option<&Cell> {
        self.cells.get(index)
    }

    /// Replace the cell at `index`, invalidating any induced domain.
    pub(crate) fn set(&mut self, index: usize, value: Cell) -> DfResult<()> {
        let len = self.cells.len();
        match self.cells.get_mut(index) {
            Some(slot) => {
                *slot = value;
                self.schema.invalidate();
                Ok(())
            }
            None => Err(DfError::IndexOutOfBounds {
                axis: Axis::Row,
                index,
                len,
            }),
        }
    }

    /// The domain if already known (declared or cached), without inducing.
    pub fn known_domain(&self) -> Option<Domain> {
        self.schema.known()
    }

    /// Resolve the domain, running the schema induction function `S` if needed and
    /// caching the result.
    pub(crate) fn resolve_domain(&mut self) -> Domain {
        let cells = &self.cells;
        self.schema.resolve_with(|| {
            // Raw (string) columns are induced through the string-based S so numeric
            // text such as "42" is recognised; typed columns widen their natural
            // domains.
            if cells.iter().any(|c| matches!(c, Cell::Str(_)))
                && cells.iter().all(|c| matches!(c, Cell::Str(_) | Cell::Null))
            {
                induce_from_strings(cells.iter().filter_map(|c| c.as_str()))
            } else {
                induce_domain(cells.iter())
            }
        })
    }

    /// Induce the domain without mutating the slot (used by read-only views).
    pub fn peek_domain(&self) -> Domain {
        if let Some(domain) = self.schema.known() {
            return domain;
        }
        if self
            .cells
            .iter()
            .all(|c| matches!(c, Cell::Str(_) | Cell::Null))
            && self.cells.iter().any(|c| matches!(c, Cell::Str(_)))
        {
            induce_from_strings(self.cells.iter().filter_map(|c| c.as_str()))
        } else {
            induce_domain(self.cells.iter())
        }
    }

    /// Declare the column's domain explicitly (no induction will run).
    pub fn declare_domain(&mut self, domain: Domain) {
        self.schema.declare(domain);
    }

    /// Cache an externally computed induction result (see
    /// [`SchemaSlot::note_induced`]): unlike [`Column::declare_domain`], the cached
    /// domain is forgotten again if the cells are later mutated.
    pub fn note_induced_domain(&mut self, domain: Domain) {
        self.schema.note_induced(domain);
    }

    /// Parse every raw string cell with the column's (resolved) domain's parsing
    /// function `p_i`, converting the column from the `Σ*` state to typed cells.
    /// Unparseable entries become null rather than failing, matching pandas' lenient
    /// `to_numeric(errors="coerce")` behaviour used during exploration.
    pub(crate) fn parse_in_place(&mut self) -> Domain {
        let domain = self.resolve_domain();
        if matches!(domain, Domain::Str | Domain::Composite) {
            return domain;
        }
        for cell in &mut self.cells {
            if let Cell::Str(s) = cell {
                *cell = domain.parse(s).unwrap_or(Cell::Null);
            }
        }
        self.schema.declare(domain);
        domain
    }

    /// Number of non-null cells.
    pub fn count_non_null(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_null()).count()
    }

    /// Approximate memory footprint in bytes.
    pub(crate) fn approx_size_bytes(&self) -> usize {
        self.cells.iter().map(Cell::approx_size_bytes).sum()
    }
}

/// A dataframe: the paper's `(A_mn, R_m, C_n, D_n)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataFrame {
    columns: Vec<Column>,
    row_labels: Labels,
    col_labels: Labels,
}

impl DataFrame {
    /// The empty dataframe (0 × 0).
    pub fn empty() -> Self {
        DataFrame::default()
    }

    /// Build a dataframe from column labels and per-column cell vectors. Row labels
    /// default to positional ranks.
    pub fn from_columns(col_labels: impl Into<Labels>, columns: Vec<Vec<Cell>>) -> DfResult<Self> {
        let col_labels = col_labels.into();
        if col_labels.len() != columns.len() {
            return Err(DfError::shape(
                format!("{} column labels", columns.len()),
                format!("{} labels", col_labels.len()),
            ));
        }
        let n_rows = columns.first().map(Vec::len).unwrap_or(0);
        if let Some(bad) = columns.iter().find(|c| c.len() != n_rows) {
            return Err(DfError::shape(
                format!("columns of length {n_rows}"),
                format!("a column of length {}", bad.len()),
            ));
        }
        Ok(DataFrame {
            columns: columns.into_iter().map(Column::new).collect(),
            row_labels: Labels::positional(n_rows),
            col_labels,
        })
    }

    /// Build a dataframe from column labels and row-major data. Row labels default to
    /// positional ranks.
    pub fn from_rows(col_labels: impl Into<Labels>, rows: Vec<Vec<Cell>>) -> DfResult<Self> {
        let col_labels = col_labels.into();
        let n_cols = col_labels.len();
        if let Some(bad) = rows.iter().find(|r| r.len() != n_cols) {
            return Err(DfError::shape(
                format!("rows of width {n_cols}"),
                format!("a row of width {}", bad.len()),
            ));
        }
        let n_rows = rows.len();
        let mut columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(n_rows); n_cols];
        for row in rows {
            for (j, cell) in row.into_iter().enumerate() {
                columns[j].push(cell);
            }
        }
        Ok(DataFrame {
            columns: columns.into_iter().map(Column::new).collect(),
            row_labels: Labels::positional(n_rows),
            col_labels,
        })
    }

    /// Build a dataframe from pre-constructed [`Column`]s (preserving their schema
    /// slots) plus explicit labels for both axes.
    pub fn from_parts(
        columns: Vec<Column>,
        row_labels: Labels,
        col_labels: Labels,
    ) -> DfResult<Self> {
        if col_labels.len() != columns.len() {
            return Err(DfError::shape(
                format!("{} column labels", columns.len()),
                format!("{} labels", col_labels.len()),
            ));
        }
        let n_rows = row_labels.len();
        if let Some(bad) = columns.iter().find(|c| c.len() != n_rows) {
            return Err(DfError::shape(
                format!("columns of length {n_rows}"),
                format!("a column of length {}", bad.len()),
            ));
        }
        Ok(DataFrame {
            columns,
            row_labels,
            col_labels,
        })
    }

    /// Consume the dataframe, returning its columns and both label vectors. The
    /// multi-way concatenation helpers use this to move cell buffers instead of
    /// cloning them.
    pub fn into_parts(self) -> (Vec<Column>, Labels, Labels) {
        (self.columns, self.row_labels, self.col_labels)
    }

    /// Replace the row labels (must match the row count).
    pub fn with_row_labels(mut self, labels: impl Into<Labels>) -> DfResult<Self> {
        let labels = labels.into();
        if labels.len() != self.n_rows() {
            return Err(DfError::shape(
                format!("{} row labels", self.n_rows()),
                format!("{} labels", labels.len()),
            ));
        }
        self.row_labels = labels;
        Ok(self)
    }

    /// Number of rows (`m`).
    pub fn n_rows(&self) -> usize {
        self.row_labels.len()
    }

    /// Number of columns (`n`).
    pub fn n_cols(&self) -> usize {
        self.col_labels.len()
    }

    /// `(rows, columns)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_rows(), self.n_cols())
    }

    /// Total number of cells (`m · n`), used for memory caps and benchmarks.
    pub fn n_cells(&self) -> usize {
        self.n_rows() * self.n_cols()
    }

    /// The row labels `R_m`.
    pub fn row_labels(&self) -> &Labels {
        &self.row_labels
    }

    /// The column labels `C_n`.
    pub fn col_labels(&self) -> &Labels {
        &self.col_labels
    }

    /// Borrow all columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Mutably borrow all columns.
    pub fn columns_mut(&mut self) -> &mut [Column] {
        &mut self.columns
    }

    /// The column at position `j`.
    pub fn column(&self, j: usize) -> DfResult<&Column> {
        self.columns.get(j).ok_or(DfError::IndexOutOfBounds {
            axis: Axis::Column,
            index: j,
            len: self.columns.len(),
        })
    }

    /// The position of the column with the given label (first match).
    pub fn col_position(&self, label: &Cell) -> DfResult<usize> {
        self.col_labels.position_of(label, "column")
    }

    /// The column with the given label (first match).
    pub fn column_by_label(&self, label: &Cell) -> DfResult<&Column> {
        let j = self.col_position(label)?;
        self.column(j)
    }

    /// The cell at `(row i, column j)` — positional notation (`iloc`).
    pub fn cell(&self, i: usize, j: usize) -> DfResult<&Cell> {
        let column = self.column(j)?;
        column.get(i).ok_or(DfError::IndexOutOfBounds {
            axis: Axis::Row,
            index: i,
            len: column.len(),
        })
    }

    /// Overwrite the cell at `(row i, column j)` — the paper's "ordered point update"
    /// (workflow step C1).
    pub fn set_cell(&mut self, i: usize, j: usize, value: Cell) -> DfResult<()> {
        let len = self.columns.len();
        let column = self.columns.get_mut(j).ok_or(DfError::IndexOutOfBounds {
            axis: Axis::Column,
            index: j,
            len,
        })?;
        column.set(i, value)
    }

    /// Materialise row `i` as an owned vector of cells.
    pub fn row(&self, i: usize) -> DfResult<Vec<Cell>> {
        if i >= self.n_rows() {
            return Err(DfError::IndexOutOfBounds {
                axis: Axis::Row,
                index: i,
                len: self.n_rows(),
            });
        }
        Ok(self.columns.iter().map(|c| c.cells()[i].clone()).collect())
    }

    /// Iterate rows as owned vectors (reference-executor convenience; engines avoid
    /// this when they can stay columnar).
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Cell>> + '_ {
        (0..self.n_rows()).map(move |i| self.columns.iter().map(|c| c.cells()[i].clone()).collect())
    }

    /// The current schema `D_n`, with `None` for entries not yet declared or induced.
    pub fn schema(&self) -> Vec<Option<Domain>> {
        self.columns.iter().map(Column::known_domain).collect()
    }

    /// Resolve (inducing and caching where necessary) the schema of every column.
    pub fn resolve_schema(&mut self) -> Vec<Domain> {
        self.columns
            .iter_mut()
            .map(Column::resolve_domain)
            .collect()
    }

    /// Resolve the schema and parse all raw string cells into their domains.
    pub fn parse_all(&mut self) -> Vec<Domain> {
        self.columns
            .iter_mut()
            .map(Column::parse_in_place)
            .collect()
    }

    /// First `k` rows, preserving labels and schema slots (the `head` inspection the
    /// paper's §6.1.2 prefix-execution discussion revolves around).
    pub fn head(&self, k: usize) -> DataFrame {
        self.slice_rows(0, k.min(self.n_rows()))
    }

    /// Last `k` rows, preserving order.
    pub fn tail(&self, k: usize) -> DataFrame {
        let n = self.n_rows();
        let start = n.saturating_sub(k);
        self.slice_rows(start, n)
    }

    /// Rows `start..end` (clamped), preserving labels and schema slots.
    pub fn slice_rows(&self, start: usize, end: usize) -> DataFrame {
        let end = end.min(self.n_rows());
        let start = start.min(end);
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let mut col = Column::new(c.cells()[start..end].to_vec());
                if let Some(domain) = c.known_domain() {
                    col.declare_domain(domain);
                }
                col
            })
            .collect();
        let row_labels = Labels::new(self.row_labels.as_slice()[start..end].to_vec());
        DataFrame {
            columns,
            row_labels,
            col_labels: self.col_labels.clone(),
        }
    }

    /// Select rows by position (used by SELECTION and SORT), preserving schema slots.
    pub fn take_rows(&self, positions: &[usize]) -> DfResult<DataFrame> {
        for &p in positions {
            if p >= self.n_rows() {
                return Err(DfError::IndexOutOfBounds {
                    axis: Axis::Row,
                    index: p,
                    len: self.n_rows(),
                });
            }
        }
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let cells = positions.iter().map(|&p| c.cells()[p].clone()).collect();
                let mut col = Column::new(cells);
                if let Some(domain) = c.known_domain() {
                    col.declare_domain(domain);
                }
                col
            })
            .collect();
        Ok(DataFrame {
            columns,
            row_labels: self.row_labels.select(positions)?,
            col_labels: self.col_labels.clone(),
        })
    }

    /// Select columns by position (used by PROJECTION), preserving schema slots.
    pub fn take_columns(&self, positions: &[usize]) -> DfResult<DataFrame> {
        let mut columns = Vec::with_capacity(positions.len());
        for &p in positions {
            columns.push(
                self.columns
                    .get(p)
                    .cloned()
                    .ok_or(DfError::IndexOutOfBounds {
                        axis: Axis::Column,
                        index: p,
                        len: self.columns.len(),
                    })?,
            );
        }
        Ok(DataFrame {
            columns,
            row_labels: self.row_labels.clone(),
            col_labels: self.col_labels.select(positions)?,
        })
    }

    /// Append a column at the end of the frame.
    pub fn push_column(&mut self, label: Cell, column: Column) -> DfResult<()> {
        if column.len() != self.n_rows() && self.n_cols() != 0 {
            return Err(DfError::shape(
                format!("a column of length {}", self.n_rows()),
                format!("length {}", column.len()),
            ));
        }
        if self.n_cols() == 0 {
            self.row_labels = Labels::positional(column.len());
        }
        self.col_labels.push(label);
        self.columns.push(column);
        Ok(())
    }

    /// Approximate memory footprint of the frame in bytes: the data array plus both
    /// label vectors. This drives the storage layer's spill budget, so it must track
    /// real sizes — a frame with heavyweight string labels costs what it costs.
    pub fn approx_size_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(Column::approx_size_bytes)
            .sum::<usize>()
            + self.row_labels.approx_size_bytes()
            + self.col_labels.approx_size_bytes()
    }

    /// Cell-for-cell equality that also compares labels but ignores schema slots.
    /// Engines may differ in how much schema they have induced; results should still
    /// count as equal if the visible data agrees.
    pub fn same_data(&self, other: &DataFrame) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        if self.row_labels != other.row_labels || self.col_labels != other.col_labels {
            return false;
        }
        self.columns
            .iter()
            .zip(other.columns.iter())
            .all(|(a, b)| a.cells() == b.cells())
    }

    /// Like [`DataFrame::same_data`], but float cells are compared with a relative
    /// tolerance. Distributed engines may sum partitions in a different order than a
    /// single-pass executor, so differential tests compare aggregated results with
    /// this method rather than bit-exact equality.
    pub fn approx_same_data(&self, other: &DataFrame, rel_tol: f64) -> bool {
        if self.shape() != other.shape()
            || self.row_labels != other.row_labels
            || self.col_labels != other.col_labels
        {
            return false;
        }
        fn cell_close(a: &Cell, b: &Cell, rel_tol: f64) -> bool {
            match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= rel_tol * scale
                }
                _ => a == b,
            }
        }
        self.columns.iter().zip(other.columns.iter()).all(|(a, b)| {
            a.cells()
                .iter()
                .zip(b.cells())
                .all(|(x, y)| cell_close(x, y, rel_tol))
        })
    }

    /// Render the paper's tabular view: the first and last `peek` rows with labels,
    /// plus the (known) schema line. This is the "display output containing a prefix or
    /// suffix of rows" of §6.1.
    pub fn display_with(&self, peek: usize) -> String {
        let mut out = String::new();
        let (m, n) = self.shape();
        out.push_str(&format!("shape: {m} x {n}\n"));
        let header: Vec<String> = std::iter::once(String::new())
            .chain(self.col_labels.display_strings())
            .collect();
        out.push_str(&header.join("\t"));
        out.push('\n');
        let schema_line: Vec<String> = std::iter::once("dtype".to_string())
            .chain(self.columns.iter().map(|c| {
                c.known_domain()
                    .map(|d| d.name().to_string())
                    .unwrap_or_else(|| "?".to_string())
            }))
            .collect();
        out.push_str(&schema_line.join("\t"));
        out.push('\n');
        let write_row = |i: usize, out: &mut String| {
            let mut parts = vec![self
                .row_labels
                .get(i)
                .map(Cell::to_string)
                .unwrap_or_default()];
            for column in &self.columns {
                parts.push(column.cells()[i].to_string());
            }
            out.push_str(&parts.join("\t"));
            out.push('\n');
        };
        if m <= peek * 2 {
            for i in 0..m {
                write_row(i, &mut out);
            }
        } else {
            for i in 0..peek {
                write_row(i, &mut out);
            }
            out.push_str("...\n");
            for i in (m - peek)..m {
                write_row(i, &mut out);
            }
        }
        out
    }
}

impl fmt::Display for DataFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_with(5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn sample() -> DataFrame {
        DataFrame::from_rows(
            vec!["name", "price", "rating"],
            vec![
                vec![cell("iPhone 11"), cell(699), cell(4.6)],
                vec![cell("iPhone 11 Pro"), cell(999), cell(4.8)],
                vec![cell("iPhone SE"), cell(399), cell(4.5)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_and_columns_agree() {
        let by_rows = sample();
        let by_cols = DataFrame::from_columns(
            vec!["name", "price", "rating"],
            vec![
                vec![cell("iPhone 11"), cell("iPhone 11 Pro"), cell("iPhone SE")],
                vec![cell(699), cell(999), cell(399)],
                vec![cell(4.6), cell(4.8), cell(4.5)],
            ],
        )
        .unwrap();
        assert!(by_rows.same_data(&by_cols));
        assert_eq!(by_rows.shape(), (3, 3));
        assert_eq!(by_rows.n_cells(), 9);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        assert!(DataFrame::from_rows(vec!["a"], vec![vec![cell(1), cell(2)]]).is_err());
        assert!(DataFrame::from_columns(
            vec!["a", "b"],
            vec![vec![cell(1)], vec![cell(1), cell(2)]]
        )
        .is_err());
        assert!(DataFrame::from_columns(vec!["a"], vec![]).is_err());
    }

    #[test]
    fn positional_and_named_access() {
        let df = sample();
        assert_eq!(df.cell(1, 1).unwrap(), &cell(999));
        assert_eq!(df.col_position(&cell("rating")).unwrap(), 2);
        assert_eq!(
            df.column_by_label(&cell("price")).unwrap().cells()[0],
            cell(699)
        );
        assert!(df.cell(9, 0).is_err());
        assert!(df.col_position(&cell("missing")).is_err());
        assert_eq!(df.row(2).unwrap()[0], cell("iPhone SE"));
    }

    #[test]
    fn point_update_via_set_cell() {
        let mut df = sample();
        df.set_cell(0, 1, cell(650)).unwrap();
        assert_eq!(df.cell(0, 1).unwrap(), &cell(650));
        assert!(df.set_cell(0, 9, cell(1)).is_err());
        assert!(df.set_cell(9, 0, cell(1)).is_err());
    }

    #[test]
    fn default_row_labels_are_positional() {
        let df = sample();
        assert_eq!(df.row_labels().as_slice(), &[cell(0), cell(1), cell(2)]);
        let relabelled = df.with_row_labels(vec!["a", "b", "c"]).unwrap();
        assert_eq!(
            relabelled
                .row_labels()
                .position_of(&cell("b"), "row")
                .unwrap(),
            1
        );
        assert!(relabelled.clone().with_row_labels(vec!["x"]).is_err());
    }

    #[test]
    fn schema_is_lazy_then_induced() {
        let mut df = sample();
        assert_eq!(df.schema(), vec![None, None, None]);
        let resolved = df.resolve_schema();
        assert_eq!(resolved, vec![Domain::Str, Domain::Int, Domain::Float]);
        assert_eq!(
            df.schema(),
            vec![Some(Domain::Str), Some(Domain::Int), Some(Domain::Float)]
        );
    }

    #[test]
    fn raw_string_columns_parse_in_place() {
        let mut df = DataFrame::from_columns(
            vec!["price"],
            vec![vec![cell("699"), cell("999"), Cell::Null]],
        )
        .unwrap();
        let domains = df.parse_all();
        assert_eq!(domains, vec![Domain::Int]);
        assert_eq!(df.cell(0, 0).unwrap(), &cell(699));
        assert_eq!(df.cell(2, 0).unwrap(), &Cell::Null);
    }

    #[test]
    fn head_tail_and_slice_preserve_labels() {
        let df = sample().with_row_labels(vec!["r0", "r1", "r2"]).unwrap();
        let head = df.head(2);
        assert_eq!(head.shape(), (2, 3));
        assert_eq!(head.row_labels().as_slice(), &[cell("r0"), cell("r1")]);
        let tail = df.tail(1);
        assert_eq!(tail.row_labels().as_slice(), &[cell("r2")]);
        let slice = df.slice_rows(1, 99);
        assert_eq!(slice.shape(), (2, 3));
        assert_eq!(df.head(99).shape(), (3, 3));
    }

    #[test]
    fn take_rows_and_columns_reorder() {
        let df = sample();
        let picked = df.take_rows(&[2, 0]).unwrap();
        assert_eq!(picked.cell(0, 0).unwrap(), &cell("iPhone SE"));
        assert_eq!(picked.row_labels().as_slice(), &[cell(2), cell(0)]);
        let cols = df.take_columns(&[1]).unwrap();
        assert_eq!(cols.shape(), (3, 1));
        assert_eq!(cols.col_labels().as_slice(), &[cell("price")]);
        assert!(df.take_rows(&[7]).is_err());
        assert!(df.take_columns(&[7]).is_err());
    }

    #[test]
    fn push_column_grows_the_frame() {
        let mut df = sample();
        df.push_column(cell("stock"), Column::new(vec![cell(1), cell(0), cell(3)]))
            .unwrap();
        assert_eq!(df.shape(), (3, 4));
        assert!(df
            .push_column(cell("bad"), Column::new(vec![cell(1)]))
            .is_err());
        let mut empty = DataFrame::empty();
        empty
            .push_column(cell("only"), Column::new(vec![cell(1), cell(2)]))
            .unwrap();
        assert_eq!(empty.shape(), (2, 1));
    }

    #[test]
    fn display_shows_prefix_and_suffix() {
        let df =
            DataFrame::from_columns(vec!["v"], vec![(0..20).map(|i| cell(i as i64)).collect()])
                .unwrap();
        let view = df.display_with(2);
        assert!(view.contains("shape: 20 x 1"));
        assert!(view.contains("...\n"));
        assert!(view.contains("dtype"));
        let small = sample().to_string();
        assert!(small.contains("iPhone SE"));
    }

    #[test]
    fn same_data_ignores_schema_cache() {
        let mut a = sample();
        let b = sample();
        a.resolve_schema();
        assert!(a.same_data(&b));
        assert_ne!(a, b); // schema slots differ, PartialEq notices
        let c = sample().with_row_labels(vec!["x", "y", "z"]).unwrap();
        assert!(!a.same_data(&c));
    }

    #[test]
    fn approx_same_data_tolerates_float_reassociation() {
        let a =
            DataFrame::from_rows(vec!["v"], vec![vec![cell(0.1 + 0.2)], vec![cell(1.0)]]).unwrap();
        let b = DataFrame::from_rows(vec!["v"], vec![vec![cell(0.3)], vec![cell(1.0)]]).unwrap();
        assert!(!a.same_data(&b));
        assert!(a.approx_same_data(&b, 1e-12));
        let c = DataFrame::from_rows(vec!["v"], vec![vec![cell(0.4)], vec![cell(1.0)]]).unwrap();
        assert!(!a.approx_same_data(&c, 1e-12));
        let d = DataFrame::from_rows(vec!["w"], vec![vec![cell(0.3)], vec![cell(1.0)]]).unwrap();
        assert!(!b.approx_same_data(&d, 1e-12));
    }

    #[test]
    fn column_raw_ingest_and_counting() {
        let col = Column::new(vec![cell("1"), Cell::Null, cell("3")]);
        assert_eq!(col.count_non_null(), 2);
        assert_eq!(col.peek_domain(), Domain::Int);
        assert!(col.approx_size_bytes() > 0);
    }
}
