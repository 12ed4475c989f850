//! Row-wise operators: SELECTION, PROJECTION, MAP and RENAME.

use df_types::cell::Cell;
use df_types::domain::Domain;
use df_types::error::{DfError, DfResult};
use df_types::labels::Labels;

use crate::algebra::{ColumnSelector, MapFunc, Predicate, RowView};
use crate::dataframe::{Column, DataFrame};

/// SELECTION: keep the rows satisfying `predicate`, preserving their relative order
/// and their row labels (Table 1: order comes from the parent).
pub fn selection(df: &DataFrame, predicate: &Predicate) -> DfResult<DataFrame> {
    selection_at(df, predicate, 0)
}

/// SELECTION over one band of a larger frame: row `i` of `df` sits at global position
/// `offset + i`, and that is the position every positional part of `predicate` sees.
pub fn selection_at(df: &DataFrame, predicate: &Predicate, offset: usize) -> DfResult<DataFrame> {
    // Position-only predicates never look at values, so we can avoid materialising rows.
    if let Predicate::PositionRange { start, end } = predicate {
        let local = |position: usize| position.saturating_sub(offset).min(df.n_rows());
        let positions: Vec<usize> = (local(*start)..local(*end)).collect();
        return df.take_rows(&positions);
    }
    // Vectorized path: evaluate the predicate column-at-a-time into a mask instead
    // of cloning every row into a `RowView`. `Custom` predicates (which receive the
    // whole row) fall through to the row loop below.
    if let Some(mask) = super::columnar::predicate_mask_at(df, predicate, offset) {
        let keep: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &hit)| hit.then_some(i))
            .collect();
        return df.take_rows(&keep);
    }
    let col_labels = df.col_labels().as_slice();
    let mut keep = Vec::new();
    for i in 0..df.n_rows() {
        let row = df.row(i)?;
        let view = RowView {
            col_labels,
            row_label: df.row_labels().get(i).unwrap_or(&Cell::Null),
            cells: &row,
        };
        if predicate.matches(offset + i, view) {
            keep.push(i);
        }
    }
    df.take_rows(&keep)
}

/// PROJECTION: keep (and reorder) the selected columns, preserving row order.
pub fn projection(df: &DataFrame, columns: &ColumnSelector) -> DfResult<DataFrame> {
    let positions = columns.resolve(df)?;
    df.take_columns(&positions)
}

/// RENAME: change column labels according to `(old, new)` pairs.
pub fn rename(df: &DataFrame, mapping: &[(Cell, Cell)]) -> DfResult<DataFrame> {
    let mut labels = df.col_labels().clone();
    for (old, new) in mapping {
        let position = df.col_position(old)?;
        labels.set(position, new.clone())?;
    }
    DataFrame::from_parts(df.columns().to_vec(), df.row_labels().clone(), labels)
}

/// MAP: apply `func` uniformly to every row (paper §4.3). Built-in cell-wise functions
/// take a columnar fast path; row-reshaping functions (one-hot, pivot flatten, custom)
/// materialise row views.
pub fn map(df: &DataFrame, func: &MapFunc) -> DfResult<DataFrame> {
    match func {
        MapFunc::IsNullMask => Ok(cellwise(
            df,
            |c| Cell::Bool(c.is_null()),
            Some(Domain::Bool),
        )),
        MapFunc::FillNull(value) => Ok(cellwise(
            df,
            |c| {
                if c.is_null() {
                    value.clone()
                } else {
                    c.clone()
                }
            },
            None,
        )),
        MapFunc::StrUpper => Ok(cellwise(
            df,
            |c| match c {
                Cell::Str(s) => Cell::Str(s.to_uppercase()),
                other => other.clone(),
            },
            None,
        )),
        MapFunc::StrLower => Ok(cellwise(
            df,
            |c| match c {
                Cell::Str(s) => Cell::Str(s.to_lowercase()),
                other => other.clone(),
            },
            None,
        )),
        MapFunc::NumericAdd(delta) => Ok(cellwise(
            df,
            |c| match c.as_f64() {
                Some(v) => Cell::Float(v + delta),
                None => c.clone(),
            },
            None,
        )),
        MapFunc::NumericMul(factor) => Ok(cellwise(
            df,
            |c| match c.as_f64() {
                Some(v) => Cell::Float(v * factor),
                None => c.clone(),
            },
            None,
        )),
        MapFunc::PerCell { func, .. } => Ok(cellwise(df, |c| func(c), None)),
        MapFunc::Cast(targets) => cast(df, targets),
        MapFunc::ParseRaw => {
            let mut out = df.clone();
            out.parse_all();
            Ok(out)
        }
        MapFunc::NormalizeNumeric => normalize_numeric(df),
        MapFunc::OneHot { column, categories } => one_hot(df, column, categories),
        MapFunc::PivotFlatten {
            label_source,
            value_source,
            output_labels,
        } => pivot_flatten(df, label_source, value_source, output_labels),
        MapFunc::ProjectValues(selector) => projection(df, selector),
        MapFunc::Custom {
            output_labels,
            output_domains,
            func,
            ..
        } => custom_map(df, output_labels, output_domains.as_deref(), func.as_ref()),
    }
}

/// Apply a per-cell function to every cell, keeping shape, labels and (optionally)
/// declaring a statically known output domain.
fn cellwise(df: &DataFrame, f: impl Fn(&Cell) -> Cell, out_domain: Option<Domain>) -> DataFrame {
    let columns = df
        .columns()
        .iter()
        .map(|column| {
            let cells = column.cells().iter().map(&f).collect();
            match out_domain {
                Some(domain) => Column::with_domain(cells, domain),
                None => Column::new(cells),
            }
        })
        .collect();
    DataFrame::from_parts(columns, df.row_labels().clone(), df.col_labels().clone())
        .expect("cellwise map preserves shape")
}

fn cast(df: &DataFrame, targets: &[(Cell, Domain)]) -> DfResult<DataFrame> {
    let mut out = df.clone();
    for (label, domain) in targets {
        let j = out.col_position(label)?;
        let column = &df.columns()[j];
        let cells: DfResult<Vec<Cell>> = column.cells().iter().map(|c| domain.coerce(c)).collect();
        out.columns_mut()[j] = Column::with_domain(cells?, *domain);
    }
    Ok(out)
}

fn normalize_numeric(df: &DataFrame) -> DfResult<DataFrame> {
    let numeric: Vec<usize> = (0..df.n_cols())
        .filter(|&j| df.columns()[j].peek_domain().is_numeric())
        .collect();
    let mut out = df.clone();
    for i in 0..df.n_rows() {
        let sum: f64 = numeric
            .iter()
            .filter_map(|&j| df.columns()[j].cells()[i].as_f64())
            .sum();
        if sum == 0.0 {
            continue;
        }
        for &j in &numeric {
            if let Some(v) = df.columns()[j].cells()[i].as_f64() {
                out.set_cell(i, j, Cell::Float(v / sum))?;
            }
        }
    }
    Ok(out)
}

fn one_hot(df: &DataFrame, column: &Cell, categories: &[Cell]) -> DfResult<DataFrame> {
    let encoded = df.col_position(column)?;
    let n_rows = df.n_rows();
    let mut columns = Vec::new();
    let mut labels = Vec::new();
    for (j, col) in df.columns().iter().enumerate() {
        if j != encoded {
            columns.push(col.clone());
            labels.push(df.col_labels().get(j).cloned().unwrap_or(Cell::Null));
        } else {
            for category in categories {
                let cells: Vec<Cell> = (0..n_rows)
                    .map(|i| {
                        let matches = col.cells()[i].group_key() == category.group_key();
                        Cell::Int(i64::from(matches))
                    })
                    .collect();
                columns.push(Column::with_domain(cells, Domain::Int));
                labels.push(Cell::Str(format!("{column}_{category}")));
            }
        }
    }
    DataFrame::from_parts(columns, df.row_labels().clone(), Labels::new(labels))
}

fn pivot_flatten(
    df: &DataFrame,
    label_source: &Cell,
    value_source: &Cell,
    output_labels: &[Cell],
) -> DfResult<DataFrame> {
    let label_col = df.col_position(label_source)?;
    let value_col = df.col_position(value_source)?;
    let n_rows = df.n_rows();
    let mut columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(n_rows); output_labels.len()];
    for i in 0..n_rows {
        let labels_cell = &df.columns()[label_col].cells()[i];
        let values_cell = &df.columns()[value_col].cells()[i];
        let (labels, values) = match (labels_cell.as_list(), values_cell.as_list()) {
            (Some(l), Some(v)) => (l, v),
            _ => {
                return Err(DfError::type_mismatch(
                    "composite (collect) cells",
                    format!("{labels_cell} / {values_cell}"),
                ))
            }
        };
        for (slot, out_label) in columns.iter_mut().zip(output_labels) {
            let key = out_label.group_key();
            let found = labels
                .iter()
                .position(|l| l.group_key() == key)
                .and_then(|p| values.get(p).cloned())
                .unwrap_or(Cell::Null);
            slot.push(found);
        }
    }
    let columns = columns.into_iter().map(Column::new).collect();
    DataFrame::from_parts(
        columns,
        df.row_labels().clone(),
        Labels::new(output_labels.to_vec()),
    )
}

fn custom_map(
    df: &DataFrame,
    output_labels: &[Cell],
    output_domains: Option<&[Domain]>,
    func: &(dyn Fn(RowView<'_>) -> Vec<Cell> + Send + Sync),
) -> DfResult<DataFrame> {
    let col_labels = df.col_labels().as_slice();
    let mut columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(df.n_rows()); output_labels.len()];
    for i in 0..df.n_rows() {
        let row = df.row(i)?;
        let view = RowView {
            col_labels,
            row_label: df.row_labels().get(i).unwrap_or(&Cell::Null),
            cells: &row,
        };
        let produced = func(view);
        if produced.len() != output_labels.len() {
            return Err(DfError::shape(
                format!("{} output cells per row", output_labels.len()),
                format!("{} cells", produced.len()),
            ));
        }
        for (slot, cell) in columns.iter_mut().zip(produced) {
            slot.push(cell);
        }
    }
    let columns: Vec<Column> = columns
        .into_iter()
        .enumerate()
        .map(|(j, cells)| match output_domains.and_then(|d| d.get(j)) {
            Some(domain) => Column::with_domain(cells, *domain),
            None => Column::new(cells),
        })
        .collect();
    DataFrame::from_parts(
        columns,
        df.row_labels().clone(),
        Labels::new(output_labels.to_vec()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::CmpOp;
    use df_types::cell::cell;
    use std::sync::Arc;

    fn products() -> DataFrame {
        DataFrame::from_rows(
            vec!["name", "price", "wireless"],
            vec![
                vec![cell("iPhone 11"), cell(699), cell("Yes")],
                vec![cell("iPhone 11 Pro"), cell(999), cell("Yes")],
                vec![cell("iPhone 8"), Cell::Null, cell("No")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn selection_keeps_matching_rows_in_order() {
        let df = products();
        let out = selection(
            &df,
            &Predicate::ColCmp {
                column: cell("price"),
                op: CmpOp::Ge,
                value: cell(700),
            },
        )
        .unwrap();
        assert_eq!(out.shape(), (1, 3));
        assert_eq!(out.cell(0, 0).unwrap(), &cell("iPhone 11 Pro"));
        assert_eq!(out.row_labels().as_slice(), &[cell(1)]);
    }

    #[test]
    fn selection_by_position_range_skips_value_access() {
        let df = products();
        let out = selection(&df, &Predicate::PositionRange { start: 1, end: 5 }).unwrap();
        assert_eq!(out.shape(), (2, 3));
        assert_eq!(out.cell(0, 0).unwrap(), &cell("iPhone 11 Pro"));
    }

    #[test]
    fn selection_null_predicates() {
        let df = products();
        let nulls = selection(
            &df,
            &Predicate::IsNull {
                column: cell("price"),
            },
        )
        .unwrap();
        assert_eq!(nulls.shape(), (1, 3));
        let non_null = selection(
            &df,
            &Predicate::NotNull {
                column: cell("price"),
            },
        )
        .unwrap();
        assert_eq!(non_null.shape(), (2, 3));
    }

    #[test]
    fn projection_selects_and_reorders() {
        let df = products();
        let out = projection(
            &df,
            &ColumnSelector::ByLabels(vec![cell("price"), cell("name")]),
        )
        .unwrap();
        assert_eq!(out.col_labels().as_slice(), &[cell("price"), cell("name")]);
        assert_eq!(out.cell(0, 1).unwrap(), &cell("iPhone 11"));
        assert!(projection(&df, &ColumnSelector::ByLabels(vec![cell("zz")])).is_err());
    }

    #[test]
    fn rename_changes_one_label() {
        let df = products();
        let out = rename(&df, &[(cell("wireless"), cell("wireless_charging"))]).unwrap();
        assert!(out.col_position(&cell("wireless_charging")).is_ok());
        assert!(out.col_position(&cell("wireless")).is_err());
        assert!(rename(&df, &[(cell("missing"), cell("x"))]).is_err());
    }

    #[test]
    fn map_is_null_mask_matches_figure2_map_query() {
        let df = products();
        let out = map(&df, &MapFunc::IsNullMask).unwrap();
        assert_eq!(out.cell(2, 1).unwrap(), &cell(true));
        assert_eq!(out.cell(0, 1).unwrap(), &cell(false));
        assert_eq!(out.schema()[1], Some(Domain::Bool));
    }

    #[test]
    fn map_fill_null_and_string_case() {
        let df = products();
        let filled = map(&df, &MapFunc::FillNull(cell(0))).unwrap();
        assert_eq!(filled.cell(2, 1).unwrap(), &cell(0));
        let upper = map(&df, &MapFunc::StrUpper).unwrap();
        assert_eq!(upper.cell(0, 0).unwrap(), &cell("IPHONE 11"));
        let lower = map(&upper, &MapFunc::StrLower).unwrap();
        assert_eq!(lower.cell(0, 0).unwrap(), &cell("iphone 11"));
    }

    #[test]
    fn map_numeric_add_and_mul_ignore_non_numeric() {
        let df = products();
        let out = map(&df, &MapFunc::NumericAdd(1.0)).unwrap();
        assert_eq!(out.cell(0, 1).unwrap(), &cell(700.0));
        assert_eq!(out.cell(0, 0).unwrap(), &cell("iPhone 11"));
        let scaled = map(&df, &MapFunc::NumericMul(2.0)).unwrap();
        assert_eq!(scaled.cell(1, 1).unwrap(), &cell(1998.0));
    }

    #[test]
    fn map_cast_changes_domains() {
        let df = products();
        let out = map(&df, &MapFunc::Cast(vec![(cell("price"), Domain::Float)])).unwrap();
        assert_eq!(out.cell(0, 1).unwrap(), &cell(699.0));
        assert_eq!(out.schema()[1], Some(Domain::Float));
        assert!(map(&df, &MapFunc::Cast(vec![(cell("name"), Domain::Int)])).is_err());
    }

    #[test]
    fn map_parse_raw_types_string_columns() {
        let df =
            DataFrame::from_columns(vec!["price"], vec![vec![cell("10"), cell("20")]]).unwrap();
        let out = map(&df, &MapFunc::ParseRaw).unwrap();
        assert_eq!(out.cell(0, 0).unwrap(), &cell(10));
    }

    #[test]
    fn map_normalize_numeric_rows_sum_to_one() {
        let df = DataFrame::from_rows(
            vec!["a", "b", "name"],
            vec![
                vec![cell(1.0), cell(3.0), cell("r0")],
                vec![cell(0.0), cell(0.0), cell("r1")],
            ],
        )
        .unwrap();
        let out = map(&df, &MapFunc::NormalizeNumeric).unwrap();
        assert_eq!(out.cell(0, 0).unwrap(), &cell(0.25));
        assert_eq!(out.cell(0, 1).unwrap(), &cell(0.75));
        // zero-sum rows are left untouched
        assert_eq!(out.cell(1, 0).unwrap(), &cell(0.0));
        assert_eq!(out.cell(0, 2).unwrap(), &cell("r0"));
    }

    #[test]
    fn map_one_hot_expands_categories() {
        let df = products();
        let out = map(
            &df,
            &MapFunc::OneHot {
                column: cell("wireless"),
                categories: vec![cell("Yes"), cell("No")],
            },
        )
        .unwrap();
        assert_eq!(out.shape(), (3, 4));
        assert_eq!(
            out.col_labels().as_slice()[2..],
            [cell("wireless_Yes"), cell("wireless_No")]
        );
        assert_eq!(out.cell(0, 2).unwrap(), &cell(1));
        assert_eq!(out.cell(2, 2).unwrap(), &cell(0));
        assert_eq!(out.cell(2, 3).unwrap(), &cell(1));
    }

    #[test]
    fn map_custom_checks_arity() {
        let df = products();
        let ok = map(
            &df,
            &MapFunc::Custom {
                name: "price_only".into(),
                output_labels: vec![cell("price_doubled")],
                output_domains: Some(vec![Domain::Float]),
                func: Arc::new(|row: RowView<'_>| {
                    vec![row
                        .get(&cell("price"))
                        .and_then(Cell::as_f64)
                        .map(|v| Cell::Float(v * 2.0))
                        .unwrap_or(Cell::Null)]
                }),
            },
        )
        .unwrap();
        assert_eq!(ok.shape(), (3, 1));
        assert_eq!(ok.cell(0, 0).unwrap(), &cell(1398.0));
        assert_eq!(ok.cell(2, 0).unwrap(), &Cell::Null);
        let bad = map(
            &df,
            &MapFunc::Custom {
                name: "wrong_arity".into(),
                output_labels: vec![cell("a"), cell("b")],
                output_domains: None,
                func: Arc::new(|_| vec![Cell::Null]),
            },
        );
        assert!(bad.is_err());
    }

    #[test]
    fn map_per_cell_applies_everywhere() {
        let df = products();
        let out = map(
            &df,
            &MapFunc::PerCell {
                name: "nullify_strings".into(),
                func: Arc::new(|c: &Cell| match c {
                    Cell::Str(_) => Cell::Null,
                    other => other.clone(),
                }),
            },
        )
        .unwrap();
        assert_eq!(out.cell(0, 0).unwrap(), &Cell::Null);
        assert_eq!(out.cell(0, 1).unwrap(), &cell(699));
    }

    #[test]
    fn map_project_values_behaves_like_projection() {
        let df = products();
        // Only "price" is numeric: "wireless" holds Yes/No strings, which S keeps in
        // the string domains (they only become booleans under an explicit cast).
        let out = map(&df, &MapFunc::ProjectValues(ColumnSelector::Numeric)).unwrap();
        assert_eq!(out.shape(), (3, 1));
        assert_eq!(out.col_labels().as_slice(), &[cell("price")]);
    }

    #[test]
    fn pivot_flatten_aligns_by_label_and_fills_nulls() {
        let df = DataFrame::from_rows(
            vec!["Month", "Sales"],
            vec![
                vec![
                    Cell::List(vec![cell("Jan"), cell("Feb")]),
                    Cell::List(vec![cell(100), cell(110)]),
                ],
                vec![Cell::List(vec![cell("Jan")]), Cell::List(vec![cell(300)])],
            ],
        )
        .unwrap();
        let out = map(
            &df,
            &MapFunc::PivotFlatten {
                label_source: cell("Month"),
                value_source: cell("Sales"),
                output_labels: vec![cell("Jan"), cell("Feb"), cell("Mar")],
            },
        )
        .unwrap();
        assert_eq!(out.shape(), (2, 3));
        assert_eq!(out.cell(0, 1).unwrap(), &cell(110));
        assert_eq!(out.cell(1, 1).unwrap(), &Cell::Null);
        assert_eq!(out.cell(1, 2).unwrap(), &Cell::Null);
        // Non-composite inputs are rejected.
        let bad = map(
            &products(),
            &MapFunc::PivotFlatten {
                label_source: cell("name"),
                value_source: cell("price"),
                output_labels: vec![cell("x")],
            },
        );
        assert!(bad.is_err());
    }
}
