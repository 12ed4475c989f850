//! Linear-algebra helpers for *matrix dataframes*.
//!
//! Paper §4.2: a homogeneous dataframe over a numeric domain "has the algebraic
//! properties required of a matrix, and can participate in linear algebra operations
//! simply by parsing its values and ignoring its labels". The workflow of Figure 1
//! ends with a covariance computation (step A3, pandas `cov`); this module provides
//! that and its normalised form, correlation.

use df_types::cell::Cell;
use df_types::domain::Domain;
use df_types::error::{DfError, DfResult};
use df_types::labels::Labels;

use crate::dataframe::{Column, DataFrame};

/// Extract the named (or all) numeric columns as dense `f64` vectors, skipping the
/// frame's labels. Null cells become `NaN`.
pub(crate) fn to_dense(df: &DataFrame) -> DfResult<(Vec<Cell>, Vec<Vec<f64>>)> {
    let numeric: Vec<usize> = (0..df.n_cols())
        .filter(|&j| df.columns()[j].peek_domain().is_numeric())
        .collect();
    if numeric.is_empty() {
        return Err(DfError::EmptyInput(
            "no numeric columns for linear algebra".into(),
        ));
    }
    let labels = numeric
        .iter()
        .map(|&j| df.col_labels().get(j).cloned().unwrap_or(Cell::Null))
        .collect();
    let data = numeric
        .iter()
        .map(|&j| {
            df.columns()[j]
                .cells()
                .iter()
                .map(|c| c.as_f64().unwrap_or(f64::NAN))
                .collect()
        })
        .collect();
    Ok((labels, data))
}

/// Pairwise sample covariance of the numeric columns (pandas `DataFrame.cov`): the
/// result is a square matrix dataframe labelled by column on both axes. Pairs with
/// fewer than two jointly non-null observations get a null covariance.
pub fn covariance(df: &DataFrame) -> DfResult<DataFrame> {
    let (labels, data) = to_dense(df)?;
    let k = data.len();
    let mut columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(k); k];
    for (j, col_j) in data.iter().enumerate() {
        for col_i in data.iter() {
            columns[j].push(pairwise_cov(col_i, col_j));
        }
    }
    let columns = columns
        .into_iter()
        .map(|cells| Column::with_domain(cells, Domain::Float))
        .collect();
    DataFrame::from_parts(columns, Labels::new(labels.clone()), Labels::new(labels))
}

/// Pearson correlation matrix of the numeric columns (pandas `DataFrame.corr`).
pub fn correlation(df: &DataFrame) -> DfResult<DataFrame> {
    let (labels, data) = to_dense(df)?;
    let k = data.len();
    let mut columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(k); k];
    for (j, col_j) in data.iter().enumerate() {
        for col_i in data.iter() {
            let cov = pairwise_cov(col_i, col_j);
            let var_i = pairwise_cov(col_i, col_i);
            let var_j = pairwise_cov(col_j, col_j);
            let corr = match (cov.as_f64(), var_i.as_f64(), var_j.as_f64()) {
                (Some(c), Some(vi), Some(vj)) if vi > 0.0 && vj > 0.0 => {
                    Cell::Float(c / (vi.sqrt() * vj.sqrt()))
                }
                _ => Cell::Null,
            };
            columns[j].push(corr);
        }
    }
    let columns = columns
        .into_iter()
        .map(|cells| Column::with_domain(cells, Domain::Float))
        .collect();
    DataFrame::from_parts(columns, Labels::new(labels.clone()), Labels::new(labels))
}

fn pairwise_cov(a: &[f64], b: &[f64]) -> Cell {
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .zip(b.iter())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .collect();
    if pairs.len() < 2 {
        return Cell::Null;
    }
    let n = pairs.len() as f64;
    let mean_a = pairs.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_b = pairs.iter().map(|(_, y)| y).sum::<f64>() / n;
    let cov = pairs
        .iter()
        .map(|(x, y)| (x - mean_a) * (y - mean_b))
        .sum::<f64>()
        / (n - 1.0);
    Cell::Float(cov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn numeric_frame() -> DataFrame {
        DataFrame::from_rows(
            vec!["x", "y", "name"],
            vec![
                vec![cell(1.0), cell(2.0), cell("a")],
                vec![cell(2.0), cell(4.0), cell("b")],
                vec![cell(3.0), cell(6.0), cell("c")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn covariance_is_symmetric_and_ignores_text_columns() {
        let cov = covariance(&numeric_frame()).unwrap();
        assert_eq!(cov.shape(), (2, 2));
        assert_eq!(cov.col_labels().as_slice(), &[cell("x"), cell("y")]);
        let var_x = cov.cell(0, 0).unwrap().as_f64().unwrap();
        let cov_xy = cov.cell(0, 1).unwrap().as_f64().unwrap();
        let cov_yx = cov.cell(1, 0).unwrap().as_f64().unwrap();
        assert!((var_x - 1.0).abs() < 1e-9);
        assert!((cov_xy - 2.0).abs() < 1e-9);
        assert_eq!(cov_xy, cov_yx);
    }

    #[test]
    fn correlation_of_perfectly_linear_columns_is_one() {
        let corr = correlation(&numeric_frame()).unwrap();
        let r = corr.cell(0, 1).unwrap().as_f64().unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn covariance_requires_numeric_columns_and_enough_rows() {
        let text = DataFrame::from_rows(vec!["s"], vec![vec![cell("a")]]).unwrap();
        assert!(covariance(&text).is_err());
        let single = DataFrame::from_rows(vec!["x"], vec![vec![cell(1.0)]]).unwrap();
        let cov = covariance(&single).unwrap();
        assert_eq!(cov.cell(0, 0).unwrap(), &Cell::Null);
    }

    #[test]
    fn covariance_skips_null_pairs() {
        let df = DataFrame::from_rows(
            vec!["x", "y"],
            vec![
                vec![cell(1.0), cell(1.0)],
                vec![Cell::Null, cell(2.0)],
                vec![cell(3.0), cell(5.0)],
            ],
        )
        .unwrap();
        let cov = covariance(&df).unwrap();
        let cov_xy = cov.cell(0, 1).unwrap().as_f64().unwrap();
        assert!((cov_xy - 4.0).abs() < 1e-9);
    }
}
