//! The baseline's internal row-major representation.
//!
//! Pandas keeps data in a small number of 2-D blocks and pays repeated consolidation
//! and copy costs as operators run eagerly one after another (paper §1, §3.2). The
//! baseline models that cost profile with an explicit row-major table: every operator
//! converts the columnar [`DataFrame`] into a [`RowTable`] (one `Vec<Cell>` per row),
//! works on the rows, and converts back — paying the same order of data movement that
//! makes the real pandas slow on wide or large frames.

use df_types::cell::Cell;
use df_types::error::DfResult;
use df_types::labels::Labels;

use df_core::dataframe::{Column, DataFrame};

/// A row-major copy of a dataframe.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowTable {
    /// Column labels.
    pub col_labels: Vec<Cell>,
    /// Row labels, aligned with `rows`.
    pub row_labels: Vec<Cell>,
    /// Row-major cells.
    pub rows: Vec<Vec<Cell>>,
}

impl RowTable {
    /// Copy a columnar dataframe into row-major form (an O(m·n) clone).
    pub(crate) fn from_dataframe(df: &DataFrame) -> RowTable {
        let rows = df.iter_rows().collect();
        RowTable {
            col_labels: df.col_labels().as_slice().to_vec(),
            row_labels: df.row_labels().as_slice().to_vec(),
            rows,
        }
    }

    /// Number of columns.
    pub(crate) fn n_cols(&self) -> usize {
        self.col_labels.len()
    }

    /// Copy the row-major table back into a columnar dataframe (another O(m·n) clone).
    pub(crate) fn into_dataframe(self) -> DfResult<DataFrame> {
        let n_cols = self.n_cols();
        let mut columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(self.rows.len()); n_cols];
        for row in self.rows {
            for (j, cell) in row.into_iter().enumerate() {
                columns[j].push(cell);
            }
        }
        DataFrame::from_parts(
            columns.into_iter().map(Column::new).collect(),
            Labels::new(self.row_labels),
            Labels::new(self.col_labels),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn sample() -> DataFrame {
        DataFrame::from_rows(
            vec!["a", "b"],
            vec![vec![cell(1), cell("x")], vec![cell(2), cell("y")]],
        )
        .unwrap()
        .with_row_labels(vec!["r0", "r1"])
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_data_and_labels() {
        let df = sample();
        let table = RowTable::from_dataframe(&df);
        assert_eq!((table.rows.len(), table.n_cols()), (2, 2));
        assert_eq!(table.rows[1], vec![cell(2), cell("y")]);
        let back = table.into_dataframe().unwrap();
        assert!(back.same_data(&df));
    }

    #[test]
    fn empty_frame_round_trips() {
        let df = DataFrame::empty();
        let back = RowTable::from_dataframe(&df).into_dataframe().unwrap();
        assert_eq!(back.shape(), (0, 0));
    }
}
