//! Helpers shared by the integration suites (`mod common;`).

use df_core::dataframe::DataFrame;
use df_types::cell::Cell;

/// Bit-exact frame equality: `DataFrame::same_data` with floats compared by bit
/// pattern, so NaN equals itself and `-0.0` differs from `0.0`. For results that
/// must reproduce their input (a codec round trip) or fold the same rows in the same
/// order (a kernel and its oracle), nothing looser is needed.
pub fn identical(a: &DataFrame, b: &DataFrame) -> bool {
    fn same(a: &Cell, b: &Cell) -> bool {
        match (a, b) {
            (Cell::Float(x), Cell::Float(y)) => x.to_bits() == y.to_bits(),
            (Cell::List(x), Cell::List(y)) => all_same(x, y),
            _ => a == b,
        }
    }
    fn all_same(x: &[Cell], y: &[Cell]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y))
    }
    a.shape() == b.shape()
        && all_same(a.row_labels().as_slice(), b.row_labels().as_slice())
        && all_same(a.col_labels().as_slice(), b.col_labels().as_slice())
        && a.columns()
            .iter()
            .zip(b.columns())
            .all(|(x, y)| all_same(x.cells(), y.cells()))
}
