//! Ordered set operators: UNION, DIFFERENCE, CROSS PRODUCT and JOIN.
//!
//! All four are *ordered analogues* of their relational counterparts (paper Table 1):
//! the result order is inherited from the left argument first, then the right.

use std::collections::{HashMap, HashSet};

use df_types::cell::{Cell, CellKey};
use df_types::domain::Domain;
use df_types::error::{DfError, DfResult};
use df_types::labels::Labels;

use crate::algebra::{JoinOn, JoinType};
use crate::dataframe::{Column, DataFrame};

/// UNION: ordered concatenation of two dataframes with the same arity. Column labels
/// and schema are taken from the left argument; rows of the left come first.
pub fn union(left: &DataFrame, right: &DataFrame) -> DfResult<DataFrame> {
    if left.n_cols() == 0 {
        return Ok(right.clone());
    }
    if right.n_cols() == 0 {
        return Ok(left.clone());
    }
    if left.n_cols() != right.n_cols() {
        return Err(DfError::shape(
            format!("{} columns", left.n_cols()),
            format!("{} columns", right.n_cols()),
        ));
    }
    let columns = left
        .columns()
        .iter()
        .zip(right.columns().iter())
        .map(|(l, r)| {
            let mut cells = l.cells().to_vec();
            cells.extend(r.cells().iter().cloned());
            Column::new(cells)
        })
        .collect();
    DataFrame::from_parts(
        columns,
        left.row_labels().concat(right.row_labels()),
        left.col_labels().clone(),
    )
}

/// Multi-way ordered UNION: concatenate every frame in order with one pre-sized
/// allocation per column, moving cell buffers instead of cloning them.
///
/// Semantically equivalent to folding [`union`] left-to-right (zero-column frames act
/// as identity, arity mismatches error), but O(total) instead of O(frames · total):
/// the fold re-copies the accumulator for every additional frame, which made
/// band-by-band assembly of a partitioned dataframe quadratic in the band count.
pub fn union_all(frames: Vec<DataFrame>) -> DfResult<DataFrame> {
    let mut frames = frames;
    if frames.len() <= 1 {
        return Ok(frames.pop().unwrap_or_else(DataFrame::empty));
    }
    // Zero-column frames are the identity element of ordered UNION; a fold over only
    // such frames yields the last one.
    if frames.iter().all(|f| f.n_cols() == 0) {
        return Ok(frames.pop().unwrap_or_else(DataFrame::empty));
    }
    frames.retain(|f| f.n_cols() > 0);
    let n_cols = frames[0].n_cols();
    if let Some(bad) = frames.iter().find(|f| f.n_cols() != n_cols) {
        return Err(DfError::shape(
            format!("{n_cols} columns"),
            format!("{} columns", bad.n_cols()),
        ));
    }
    let total_rows: usize = frames.iter().map(DataFrame::n_rows).sum();
    let col_labels = frames[0].col_labels().clone();
    // A column's domain survives concatenation only when every input agrees on it.
    let mut domains: Vec<Option<Domain>> = frames[0].schema();
    for frame in frames.iter().skip(1) {
        for (slot, domain) in domains.iter_mut().zip(frame.schema()) {
            if *slot != domain {
                *slot = None;
            }
        }
    }
    let mut cells: Vec<Vec<Cell>> = (0..n_cols)
        .map(|_| Vec::with_capacity(total_rows))
        .collect();
    let mut row_labels: Vec<Cell> = Vec::with_capacity(total_rows);
    for frame in frames {
        let (columns, labels, _) = frame.into_parts();
        for (slot, column) in cells.iter_mut().zip(columns) {
            slot.append(&mut column.into_cells());
        }
        row_labels.append(&mut labels.into_vec());
    }
    let columns = cells
        .into_iter()
        .zip(domains)
        .map(|(cells, domain)| match domain {
            Some(domain) => Column::with_domain(cells, domain),
            None => Column::new(cells),
        })
        .collect();
    DataFrame::from_parts(columns, Labels::new(row_labels), col_labels)
}

/// DIFFERENCE: rows of the left dataframe whose full-row value does not appear in the
/// right dataframe, in left order.
pub fn difference(left: &DataFrame, right: &DataFrame) -> DfResult<DataFrame> {
    if left.n_cols() != right.n_cols() && right.n_cols() != 0 {
        return Err(DfError::shape(
            format!("{} columns", left.n_cols()),
            format!("{} columns", right.n_cols()),
        ));
    }
    let right_rows: HashSet<Vec<CellKey>> =
        (0..right.n_rows()).map(|i| row_key(right, i)).collect();
    let keep: Vec<usize> = (0..left.n_rows())
        .filter(|&i| !right_rows.contains(&row_key(left, i)))
        .collect();
    left.take_rows(&keep)
}

/// CROSS PRODUCT: every left row paired with every right row, nested order (left outer,
/// right inner). Row labels are reset to positional ranks; column labels concatenate.
pub(crate) fn cross_product(left: &DataFrame, right: &DataFrame) -> DfResult<DataFrame> {
    let n = left.n_rows() * right.n_rows();
    let mut columns: Vec<Vec<Cell>> = Vec::with_capacity(left.n_cols() + right.n_cols());
    for col in left.columns() {
        let mut cells = Vec::with_capacity(n);
        for value in col.cells() {
            for _ in 0..right.n_rows() {
                cells.push(value.clone());
            }
        }
        columns.push(cells);
    }
    for col in right.columns() {
        let mut cells = Vec::with_capacity(n);
        for _ in 0..left.n_rows() {
            cells.extend(col.cells().iter().cloned());
        }
        columns.push(cells);
    }
    let col_labels = left.col_labels().concat(right.col_labels());
    DataFrame::from_parts(
        columns.into_iter().map(Column::new).collect(),
        Labels::positional(n),
        col_labels,
    )
}

/// JOIN: equi-join on shared columns or on row labels, ordered by the left argument
/// (ties broken by right order), with inner / left / outer variants.
pub fn join(
    left: &DataFrame,
    right: &DataFrame,
    on: &JoinOn,
    how: JoinType,
) -> DfResult<DataFrame> {
    match on {
        JoinOn::RowLabels => join_on_labels(left, right, how),
        JoinOn::Columns(keys) => join_on_columns(left, right, keys, how),
    }
}

fn join_on_labels(left: &DataFrame, right: &DataFrame, how: JoinType) -> DfResult<DataFrame> {
    let right_index = right.row_labels().index();
    let mut rows: Vec<(Cell, Vec<Cell>)> = Vec::new();
    let mut matched_right: HashSet<usize> = HashSet::new();
    for i in 0..left.n_rows() {
        let label = left.row_labels().get(i).cloned().unwrap_or(Cell::Null);
        let left_row = left.row(i)?;
        match right_index.get(&label.group_key()) {
            Some(positions) => {
                for &rp in positions {
                    matched_right.insert(rp);
                    let mut cells = left_row.clone();
                    cells.extend(right.row(rp)?);
                    rows.push((label.clone(), cells));
                }
            }
            None => {
                if matches!(how, JoinType::Left | JoinType::Outer) {
                    let mut cells = left_row.clone();
                    cells.extend(std::iter::repeat(Cell::Null).take(right.n_cols()));
                    rows.push((label.clone(), cells));
                }
            }
        }
    }
    if matches!(how, JoinType::Outer) {
        for rp in 0..right.n_rows() {
            if !matched_right.contains(&rp) {
                let label = right.row_labels().get(rp).cloned().unwrap_or(Cell::Null);
                let mut cells = vec![Cell::Null; left.n_cols()];
                cells.extend(right.row(rp)?);
                rows.push((label, cells));
            }
        }
    }
    let col_labels = left.col_labels().concat(right.col_labels());
    assemble(rows, col_labels)
}

fn join_on_columns(
    left: &DataFrame,
    right: &DataFrame,
    keys: &[Cell],
    how: JoinType,
) -> DfResult<DataFrame> {
    let left_key_positions: Vec<usize> = keys
        .iter()
        .map(|k| left.col_position(k))
        .collect::<DfResult<_>>()?;
    let right_key_positions: Vec<usize> = keys
        .iter()
        .map(|k| right.col_position(k))
        .collect::<DfResult<_>>()?;
    // Hash the right side by key tuple.
    let mut right_index: HashMap<Vec<CellKey>, Vec<usize>> = HashMap::new();
    for i in 0..right.n_rows() {
        let key: Vec<CellKey> = right_key_positions
            .iter()
            .map(|&j| right.columns()[j].cells()[i].group_key())
            .collect();
        right_index.entry(key).or_default().push(i);
    }
    // Right output columns exclude the (duplicated) key columns.
    let right_value_positions: Vec<usize> = (0..right.n_cols())
        .filter(|j| !right_key_positions.contains(j))
        .collect();
    let mut rows: Vec<(Cell, Vec<Cell>)> = Vec::new();
    let mut matched_right: HashSet<usize> = HashSet::new();
    for i in 0..left.n_rows() {
        let key: Vec<CellKey> = left_key_positions
            .iter()
            .map(|&j| left.columns()[j].cells()[i].group_key())
            .collect();
        let left_row = left.row(i)?;
        let label = left.row_labels().get(i).cloned().unwrap_or(Cell::Null);
        match right_index.get(&key) {
            Some(positions) => {
                for &rp in positions {
                    matched_right.insert(rp);
                    let mut cells = left_row.clone();
                    for &j in &right_value_positions {
                        cells.push(right.columns()[j].cells()[rp].clone());
                    }
                    rows.push((label.clone(), cells));
                }
            }
            None => {
                if matches!(how, JoinType::Left | JoinType::Outer) {
                    let mut cells = left_row.clone();
                    cells.extend(std::iter::repeat(Cell::Null).take(right_value_positions.len()));
                    rows.push((label.clone(), cells));
                }
            }
        }
    }
    if matches!(how, JoinType::Outer) {
        for rp in 0..right.n_rows() {
            if matched_right.contains(&rp) {
                continue;
            }
            let mut cells = vec![Cell::Null; left.n_cols()];
            // Put the right row's key values into the left key columns so the key is
            // not lost in the outer join.
            for (kp, &lkp) in left_key_positions.iter().enumerate() {
                cells[lkp] = right.columns()[right_key_positions[kp]].cells()[rp].clone();
            }
            for &j in &right_value_positions {
                cells.push(right.columns()[j].cells()[rp].clone());
            }
            rows.push((
                right.row_labels().get(rp).cloned().unwrap_or(Cell::Null),
                cells,
            ));
        }
    }
    let right_value_labels = Labels::new(
        right_value_positions
            .iter()
            .map(|&j| right.col_labels().get(j).cloned().unwrap_or(Cell::Null))
            .collect(),
    );
    let col_labels = left.col_labels().concat(&right_value_labels);
    assemble(rows, col_labels)
}

/// Build a dataframe out of `(row label, row cells)` pairs.
fn assemble(rows: Vec<(Cell, Vec<Cell>)>, col_labels: Labels) -> DfResult<DataFrame> {
    let n_cols = col_labels.len();
    let mut columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(rows.len()); n_cols];
    let mut labels = Vec::with_capacity(rows.len());
    for (label, cells) in rows {
        if cells.len() != n_cols {
            return Err(DfError::shape(
                format!("rows of width {n_cols}"),
                format!("a row of width {}", cells.len()),
            ));
        }
        labels.push(label);
        for (j, cell) in cells.into_iter().enumerate() {
            columns[j].push(cell);
        }
    }
    DataFrame::from_parts(
        columns.into_iter().map(Column::new).collect(),
        Labels::new(labels),
        col_labels,
    )
}

fn row_key(df: &DataFrame, i: usize) -> Vec<CellKey> {
    df.columns()
        .iter()
        .map(|c| c.cells()[i].group_key())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn frame(values: Vec<Vec<Cell>>) -> DataFrame {
        DataFrame::from_rows(vec!["k", "v"], values).unwrap()
    }

    #[test]
    fn union_concatenates_in_order() {
        let left = frame(vec![vec![cell(1), cell("a")], vec![cell(2), cell("b")]]);
        let right = frame(vec![vec![cell(3), cell("c")]]);
        let out = union(&left, &right).unwrap();
        assert_eq!(out.shape(), (3, 2));
        assert_eq!(out.cell(2, 1).unwrap(), &cell("c"));
        assert_eq!(out.row_labels().as_slice(), &[cell(0), cell(1), cell(0)]);
        assert!(union(&left, &DataFrame::from_rows(vec!["x"], vec![]).unwrap()).is_err());
        // Union with an empty frame returns the other side.
        assert!(union(&left, &DataFrame::empty()).unwrap().same_data(&left));
        assert!(union(&DataFrame::empty(), &right)
            .unwrap()
            .same_data(&right));
    }

    #[test]
    fn union_all_matches_the_pairwise_fold() {
        let a = frame(vec![vec![cell(1), cell("a")], vec![cell(2), cell("b")]]);
        let b = frame(vec![vec![cell(3), cell("c")]]);
        let c = frame(vec![vec![cell(4), cell("d")], vec![cell(5), cell("e")]]);
        let folded = union(&union(&a, &b).unwrap(), &c).unwrap();
        let multi = union_all(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        assert!(multi.same_data(&folded));
        // Identity and edge cases.
        assert!(union_all(vec![]).unwrap().same_data(&DataFrame::empty()));
        assert!(union_all(vec![a.clone()]).unwrap().same_data(&a));
        assert!(
            union_all(vec![DataFrame::empty(), b.clone(), DataFrame::empty()])
                .unwrap()
                .same_data(&b)
        );
        let mismatched = DataFrame::from_rows(vec!["x"], vec![vec![cell(1)]]).unwrap();
        assert!(union_all(vec![a.clone(), mismatched]).is_err());
        // Consistent known domains survive; conflicting ones reset to unknown.
        let mut typed_a = a.clone();
        typed_a.resolve_schema();
        let mut typed_b = b.clone();
        typed_b.resolve_schema();
        let merged = union_all(vec![typed_a, typed_b]).unwrap();
        assert_eq!(merged.schema()[0], Some(df_types::domain::Domain::Int));
        let merged_mixed = union_all(vec![a.clone(), b]).unwrap();
        assert_eq!(merged_mixed.schema(), vec![None, None]);
    }

    #[test]
    fn difference_removes_matching_rows_keeping_order() {
        let left = frame(vec![
            vec![cell(1), cell("a")],
            vec![cell(2), cell("b")],
            vec![cell(1), cell("a")],
        ]);
        let right = frame(vec![vec![cell(1), cell("a")]]);
        let out = difference(&left, &right).unwrap();
        assert_eq!(out.shape(), (1, 2));
        assert_eq!(out.cell(0, 1).unwrap(), &cell("b"));
        let all = difference(&left, &DataFrame::empty()).unwrap();
        assert_eq!(all.shape(), (3, 2));
    }

    #[test]
    fn cross_product_preserves_nested_order() {
        let left = DataFrame::from_rows(vec!["l"], vec![vec![cell(1)], vec![cell(2)]]).unwrap();
        let right =
            DataFrame::from_rows(vec!["r"], vec![vec![cell("x")], vec![cell("y")]]).unwrap();
        let out = cross_product(&left, &right).unwrap();
        assert_eq!(out.shape(), (4, 2));
        assert_eq!(out.cell(0, 0).unwrap(), &cell(1));
        assert_eq!(out.cell(0, 1).unwrap(), &cell("x"));
        assert_eq!(out.cell(1, 1).unwrap(), &cell("y"));
        assert_eq!(out.cell(2, 0).unwrap(), &cell(2));
    }

    #[test]
    fn inner_join_on_columns_drops_duplicate_keys() {
        let left = DataFrame::from_rows(
            vec!["id", "name"],
            vec![vec![cell(1), cell("a")], vec![cell(2), cell("b")]],
        )
        .unwrap();
        let right = DataFrame::from_rows(
            vec!["id", "score"],
            vec![vec![cell(2), cell(20)], vec![cell(3), cell(30)]],
        )
        .unwrap();
        let out = join(
            &left,
            &right,
            &JoinOn::Columns(vec![cell("id")]),
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.shape(), (1, 3));
        assert_eq!(
            out.col_labels().as_slice(),
            &[cell("id"), cell("name"), cell("score")]
        );
        assert_eq!(out.cell(0, 2).unwrap(), &cell(20));
    }

    #[test]
    fn left_and_outer_joins_null_extend() {
        let left = DataFrame::from_rows(
            vec!["id", "name"],
            vec![vec![cell(1), cell("a")], vec![cell(2), cell("b")]],
        )
        .unwrap();
        let right = DataFrame::from_rows(
            vec!["id", "score"],
            vec![vec![cell(2), cell(20)], vec![cell(3), cell(30)]],
        )
        .unwrap();
        let left_join = join(
            &left,
            &right,
            &JoinOn::Columns(vec![cell("id")]),
            JoinType::Left,
        )
        .unwrap();
        assert_eq!(left_join.shape(), (2, 3));
        assert_eq!(left_join.cell(0, 2).unwrap(), &Cell::Null);
        let outer = join(
            &left,
            &right,
            &JoinOn::Columns(vec![cell("id")]),
            JoinType::Outer,
        )
        .unwrap();
        assert_eq!(outer.shape(), (3, 3));
        assert_eq!(outer.cell(2, 0).unwrap(), &cell(3));
        assert_eq!(outer.cell(2, 1).unwrap(), &Cell::Null);
        assert_eq!(outer.cell(2, 2).unwrap(), &cell(30));
    }

    #[test]
    fn join_on_row_labels_matches_merge_with_index() {
        let prices = DataFrame::from_rows(vec!["price"], vec![vec![cell(699)], vec![cell(999)]])
            .unwrap()
            .with_row_labels(vec!["iPhone 11", "iPhone 11 Pro"])
            .unwrap();
        let ratings = DataFrame::from_rows(vec!["rating"], vec![vec![cell(4.8)], vec![cell(4.6)]])
            .unwrap()
            .with_row_labels(vec!["iPhone 11 Pro", "iPhone 11"])
            .unwrap();
        let out = join(&prices, &ratings, &JoinOn::RowLabels, JoinType::Inner).unwrap();
        assert_eq!(out.shape(), (2, 2));
        assert_eq!(out.row_labels().as_slice()[0], cell("iPhone 11"));
        assert_eq!(out.cell(0, 1).unwrap(), &cell(4.6));
        assert_eq!(out.cell(1, 1).unwrap(), &cell(4.8));
    }

    #[test]
    fn join_on_missing_key_errors() {
        let left = frame(vec![vec![cell(1), cell("a")]]);
        let right = frame(vec![vec![cell(1), cell("b")]]);
        assert!(join(
            &left,
            &right,
            &JoinOn::Columns(vec![cell("zz")]),
            JoinType::Inner
        )
        .is_err());
    }
}
