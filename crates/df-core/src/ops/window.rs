//! WINDOW: sliding-window functions over the dataframe's inherent order.
//!
//! Paper §4.3: windowing in dataframes differs from SQL in that the inherent row order
//! makes an ORDER BY clause unnecessary. Pandas operators such as `cummax`, `diff` and
//! `shift` are WINDOW with specific functions (§4.4).

use df_types::cell::Cell;
use df_types::error::DfResult;

use crate::algebra::{ColumnSelector, WindowFunc};
use crate::dataframe::{Column, DataFrame};

/// Apply `func` to each selected column, leaving the other columns untouched.
pub(crate) fn window(
    df: &DataFrame,
    columns: &ColumnSelector,
    func: &WindowFunc,
) -> DfResult<DataFrame> {
    let targets = columns.resolve(df)?;
    let mut out = df.clone();
    for &j in &targets {
        let cells = apply(df.columns()[j].cells(), func);
        out.columns_mut()[j] = Column::new(cells);
    }
    Ok(out)
}

fn apply(cells: &[Cell], func: &WindowFunc) -> Vec<Cell> {
    match func {
        WindowFunc::CumSum => cumulative(cells, |acc, v| acc + v),
        WindowFunc::CumMax => cumulative(cells, f64::max),
        WindowFunc::CumMin => cumulative(cells, f64::min),
        WindowFunc::Diff { lag } => diff(cells, *lag),
        WindowFunc::Shift { offset } => shift(cells, *offset),
        WindowFunc::RollingMean { size } => rolling(cells, *size, true),
        WindowFunc::RollingSum { size } => rolling(cells, *size, false),
    }
}

/// Cumulative fold over numeric cells; nulls and non-numeric values propagate null at
/// their own position but do not reset the accumulator.
fn cumulative(cells: &[Cell], fold: impl Fn(f64, f64) -> f64) -> Vec<Cell> {
    let mut acc: Option<f64> = None;
    cells
        .iter()
        .map(|c| match c.as_f64() {
            Some(v) => {
                acc = Some(match acc {
                    None => v,
                    Some(prev) => fold(prev, v),
                });
                Cell::Float(acc.unwrap())
            }
            None => Cell::Null,
        })
        .collect()
}

fn diff(cells: &[Cell], lag: usize) -> Vec<Cell> {
    (0..cells.len())
        .map(|i| {
            if i < lag {
                return Cell::Null;
            }
            match (cells[i].as_f64(), cells[i - lag].as_f64()) {
                (Some(a), Some(b)) => Cell::Float(a - b),
                _ => Cell::Null,
            }
        })
        .collect()
}

fn shift(cells: &[Cell], offset: i64) -> Vec<Cell> {
    let n = cells.len() as i64;
    (0..n)
        .map(|i| {
            let source = i - offset;
            if source < 0 || source >= n {
                Cell::Null
            } else {
                cells[source as usize].clone()
            }
        })
        .collect()
}

fn rolling(cells: &[Cell], size: usize, mean: bool) -> Vec<Cell> {
    if size == 0 {
        return vec![Cell::Null; cells.len()];
    }
    (0..cells.len())
        .map(|i| {
            if i + 1 < size {
                return Cell::Null;
            }
            let window = &cells[i + 1 - size..=i];
            let values: Vec<f64> = window.iter().filter_map(Cell::as_f64).collect();
            if values.len() != size {
                return Cell::Null;
            }
            let sum: f64 = values.iter().sum();
            Cell::Float(if mean { sum / size as f64 } else { sum })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    fn series(values: Vec<Cell>) -> DataFrame {
        DataFrame::from_columns(vec!["v"], vec![values]).unwrap()
    }

    fn col(df: &DataFrame) -> Vec<Cell> {
        df.columns()[0].cells().to_vec()
    }

    #[test]
    fn cumsum_and_cummax() {
        let df = series(vec![cell(1), cell(3), Cell::Null, cell(2)]);
        let sum = window(&df, &ColumnSelector::All, &WindowFunc::CumSum).unwrap();
        assert_eq!(col(&sum), vec![cell(1.0), cell(4.0), Cell::Null, cell(6.0)]);
        let max = window(&df, &ColumnSelector::All, &WindowFunc::CumMax).unwrap();
        assert_eq!(col(&max), vec![cell(1.0), cell(3.0), Cell::Null, cell(3.0)]);
        let min = window(&df, &ColumnSelector::All, &WindowFunc::CumMin).unwrap();
        assert_eq!(col(&min), vec![cell(1.0), cell(1.0), Cell::Null, cell(1.0)]);
    }

    #[test]
    fn diff_uses_lag_and_null_padding() {
        let df = series(vec![cell(10), cell(13), cell(20)]);
        let out = window(&df, &ColumnSelector::All, &WindowFunc::Diff { lag: 1 }).unwrap();
        assert_eq!(col(&out), vec![Cell::Null, cell(3.0), cell(7.0)]);
        let lag2 = window(&df, &ColumnSelector::All, &WindowFunc::Diff { lag: 2 }).unwrap();
        assert_eq!(col(&lag2), vec![Cell::Null, Cell::Null, cell(10.0)]);
    }

    #[test]
    fn shift_down_and_up() {
        let df = series(vec![cell(1), cell(2), cell(3)]);
        let down = window(&df, &ColumnSelector::All, &WindowFunc::Shift { offset: 1 }).unwrap();
        assert_eq!(col(&down), vec![Cell::Null, cell(1), cell(2)]);
        let up = window(&df, &ColumnSelector::All, &WindowFunc::Shift { offset: -1 }).unwrap();
        assert_eq!(col(&up), vec![cell(2), cell(3), Cell::Null]);
    }

    #[test]
    fn rolling_mean_and_sum_need_full_windows() {
        let df = series(vec![cell(2), cell(4), cell(6), Cell::Null, cell(8)]);
        let mean = window(
            &df,
            &ColumnSelector::All,
            &WindowFunc::RollingMean { size: 2 },
        )
        .unwrap();
        assert_eq!(
            col(&mean),
            vec![Cell::Null, cell(3.0), cell(5.0), Cell::Null, Cell::Null]
        );
        let sum = window(
            &df,
            &ColumnSelector::All,
            &WindowFunc::RollingSum { size: 2 },
        )
        .unwrap();
        assert_eq!(col(&sum)[1], cell(6.0));
        let degenerate = window(
            &df,
            &ColumnSelector::All,
            &WindowFunc::RollingSum { size: 0 },
        )
        .unwrap();
        assert_eq!(col(&degenerate), vec![Cell::Null; 5]);
    }

    #[test]
    fn window_only_touches_selected_columns() {
        let df = DataFrame::from_rows(
            vec!["a", "b"],
            vec![vec![cell(1), cell(10)], vec![cell(2), cell(20)]],
        )
        .unwrap();
        let out = window(
            &df,
            &ColumnSelector::ByLabels(vec![cell("a")]),
            &WindowFunc::CumSum,
        )
        .unwrap();
        assert_eq!(out.cell(1, 0).unwrap(), &cell(3.0));
        assert_eq!(out.cell(1, 1).unwrap(), &cell(20));
    }
}
