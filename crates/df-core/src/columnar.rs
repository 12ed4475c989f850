//! Typed column blocks: the columnar physical form of one partition.
//!
//! A [`ColumnBlock`] is a [`DataFrame`] re-encoded column-by-column into
//! [`ColumnData`] typed buffers (see `df_types::ColumnData` for the layout). It is the
//! unit the engine's `PartitionHandle` holds when a freshly parsed ingest band is
//! checked in columnar, and the unit the block frame (`df-storage::spill`)
//! serialises for spill files and worker pipes. The block is
//! intentionally *behind* the narrow waist: `PartitionGrid`, `SpillStore` and
//! `FrameHandle` callers keep exchanging `DataFrame`s, and a block decodes back to
//! an identical frame ([`ColumnBlock::to_frame`]) the first time an operator needs
//! row access.
//!
//! Besides the data, a block carries its per-column domains as *metadata*, which is
//! what lets `FrameHandle::schema()` answer dtype questions without loading or
//! assembling anything — the same trick `shape()` already plays.

use df_types::domain::Domain;
use df_types::error::{DfError, DfResult};
use df_types::labels::Labels;
use df_types::ColumnData;

use crate::dataframe::{Column, DataFrame};

/// One partition's worth of typed columns plus both label vectors and the
/// per-column domain metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBlock {
    columns: Vec<ColumnData>,
    domains: Vec<Option<Domain>>,
    row_labels: Labels,
    col_labels: Labels,
}

impl ColumnBlock {
    /// Encode a dataframe into typed columns. Lossless for every frame: columns a
    /// typed layout cannot represent exactly fall back to tagged cells. Known
    /// domains are kept as metadata and guide the encoding (`category` columns
    /// dictionary-encode).
    pub fn from_frame(frame: &DataFrame) -> ColumnBlock {
        let domains: Vec<Option<Domain>> = frame.schema();
        let columns = frame
            .columns()
            .iter()
            .zip(&domains)
            .map(|(col, domain)| ColumnData::from_cells(col.cells(), domain.as_ref()))
            .collect();
        ColumnBlock {
            columns,
            domains,
            row_labels: frame.row_labels().clone(),
            col_labels: frame.col_labels().clone(),
        }
    }

    /// Assemble a block from already-encoded parts (the block-frame decoder uses this).
    /// Validates that every column matches the row-label length and that the domain
    /// and column-label vectors match the column count.
    pub fn from_parts(
        columns: Vec<ColumnData>,
        domains: Vec<Option<Domain>>,
        row_labels: Labels,
        col_labels: Labels,
    ) -> DfResult<ColumnBlock> {
        if columns.len() != col_labels.len() || domains.len() != columns.len() {
            return Err(DfError::shape(
                format!("{} columns", col_labels.len()),
                format!("{} buffers / {} domains", columns.len(), domains.len()),
            ));
        }
        if let Some(bad) = columns.iter().find(|c| c.len() != row_labels.len()) {
            return Err(DfError::shape(
                format!("{} rows", row_labels.len()),
                format!("{} rows", bad.len()),
            ));
        }
        Ok(ColumnBlock {
            columns,
            domains,
            row_labels,
            col_labels,
        })
    }

    /// Decode back into the row-addressable frame form, restoring domain metadata.
    /// `to_frame(from_frame(f))` is cell-for-cell identical to `f`.
    pub fn to_frame(&self) -> DataFrame {
        let columns = self
            .columns
            .iter()
            .zip(&self.domains)
            .map(|(data, domain)| match domain {
                Some(d) => Column::with_domain(data.to_cells(), *d),
                None => Column::new(data.to_cells()),
            })
            .collect();
        DataFrame::from_parts(columns, self.row_labels.clone(), self.col_labels.clone())
            .expect("column block dimensions are consistent by construction")
    }

    /// Number of rows.
    pub(crate) fn n_rows(&self) -> usize {
        self.row_labels.len()
    }

    /// Number of columns.
    pub(crate) fn n_cols(&self) -> usize {
        self.col_labels.len()
    }

    /// `(rows, columns)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_rows(), self.n_cols())
    }

    /// The typed columns.
    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// Per-column domain metadata (declared/induced at encode time).
    pub fn domains(&self) -> &[Option<Domain>] {
        &self.domains
    }

    /// The row labels.
    pub fn row_labels(&self) -> &Labels {
        &self.row_labels
    }

    /// The column labels.
    pub fn col_labels(&self) -> &Labels {
        &self.col_labels
    }

    /// Honest memory footprint: typed buffers + validity bitmaps + dictionaries +
    /// both label vectors. For typed columns this is substantially smaller than the
    /// tagged-cell frame it encodes, which is exactly why a spill budget holds more
    /// columnar bands resident.
    pub fn approx_size_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(ColumnData::approx_size_bytes)
            .sum::<usize>()
            + self.row_labels.approx_size_bytes()
            + self.col_labels.approx_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::{cell, Cell};

    fn sample() -> DataFrame {
        let mut df = DataFrame::from_columns(
            vec!["id", "fare", "tag", "mixed"],
            vec![
                vec![cell(1), cell(2), Cell::Null],
                vec![cell(1.5), Cell::Null, cell(-0.0)],
                vec![cell("a"), cell("b"), cell("a")],
                vec![cell(1), cell("x"), Cell::Null],
            ],
        )
        .unwrap();
        df.columns_mut()[2].declare_domain(Domain::Category);
        df
    }

    #[test]
    fn encode_decode_round_trips_cells_labels_and_domains() {
        let df = sample();
        let block = ColumnBlock::from_frame(&df);
        assert_eq!(block.shape(), df.shape());
        let back = block.to_frame();
        assert!(back.same_data(&df));
        // The declared category domain survives the round trip as metadata.
        assert_eq!(back.schema()[2], Some(Domain::Category));
    }

    #[test]
    fn typed_columns_are_chosen_where_lossless() {
        let block = ColumnBlock::from_frame(&sample());
        assert!(block.columns()[0].is_typed()); // ints
        assert!(block.columns()[1].is_typed()); // floats
        assert!(matches!(block.columns()[2], ColumnData::Dict { .. }));
        assert!(!block.columns()[3].is_typed()); // mixed → tagged fallback
    }

    #[test]
    fn columnar_accounting_is_smaller_than_tagged_cells() {
        let n = 512;
        let df = DataFrame::from_columns(vec!["v"], vec![(0..n).map(|i| cell(i as i64)).collect()])
            .unwrap();
        let block = ColumnBlock::from_frame(&df);
        // Pin the accounting: 512 i64 values + one 8-word validity bitmap + labels.
        let labels = df.row_labels().approx_size_bytes() + df.col_labels().approx_size_bytes();
        assert_eq!(block.approx_size_bytes(), 512 * 8 + 8 * 8 + labels);
        assert!(block.approx_size_bytes() < df.approx_size_bytes());
    }
}
