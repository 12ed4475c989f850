//! TRANSPOSE, TOLABELS, FROMLABELS and LIMIT — the operators that move values between
//! data and metadata or reorient the frame (paper §4.3).

use df_types::cell::Cell;
use df_types::error::DfResult;
use df_types::labels::Labels;

use crate::dataframe::{Column, DataFrame};

/// TRANSPOSE: interchange rows and columns.
///
/// Given `DF = (A_mn, R_m, C_n, D_n)`, returns `(Aᵀ_nm, C_n, R_m, null)`: the old
/// column labels become the row labels, the old row labels become the column labels,
/// and the schema is left unspecified (to be re-induced by `S` — paper §4.3 notes the
/// output schema may not resemble the input's).
pub fn transpose(df: &DataFrame) -> DfResult<DataFrame> {
    let (m, n) = df.shape();
    let mut columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(n); m];
    for j in 0..n {
        for (i, slot) in columns.iter_mut().enumerate() {
            slot.push(df.columns()[j].cells()[i].clone());
        }
    }
    DataFrame::from_parts(
        columns.into_iter().map(Column::new).collect(),
        df.col_labels().clone(),
        df.row_labels().clone(),
    )
}

/// TOLABELS: project the named column out of the data and use its values as the new
/// row labels, replacing the old labels (paper §4.3: "converts data into metadata").
pub fn to_labels(df: &DataFrame, column: &Cell) -> DfResult<DataFrame> {
    let j = df.col_position(column)?;
    let new_labels = Labels::new(df.columns()[j].cells().to_vec());
    let keep: Vec<usize> = (0..df.n_cols()).filter(|&p| p != j).collect();
    let projected = df.take_columns(&keep)?;
    DataFrame::from_parts(
        projected.columns().to_vec(),
        new_labels,
        projected.col_labels().clone(),
    )
}

/// FROMLABELS: insert the row labels as a new data column at position 0 with the given
/// label, and reset the row labels to positional ranks (paper §4.3). The new column's
/// domain starts unspecified, to be induced by `S`.
pub fn from_labels(df: &DataFrame, new_column: &Cell) -> DfResult<DataFrame> {
    let mut columns = Vec::with_capacity(df.n_cols() + 1);
    columns.push(Column::new(df.row_labels().as_slice().to_vec()));
    columns.extend(df.columns().iter().cloned());
    let mut labels = vec![new_column.clone()];
    labels.extend(df.col_labels().as_slice().iter().cloned());
    DataFrame::from_parts(
        columns,
        Labels::positional(df.n_rows()),
        Labels::new(labels),
    )
}

/// LIMIT: the first (or last) `k` rows. Expressible as a positional SELECTION; kept as
/// its own operator so engines can prioritise prefix/suffix production (§6.1.2).
pub(crate) fn limit(df: &DataFrame, k: usize, from_end: bool) -> DataFrame {
    if from_end {
        df.tail(k)
    } else {
        df.head(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;
    use df_types::domain::Domain;

    fn crosstab() -> DataFrame {
        // The Figure 1 products table: features as rows, products as columns.
        DataFrame::from_rows(
            vec!["iPhone 11", "iPhone 11 Pro"],
            vec![
                vec![cell("6.1-inch"), cell("5.8-inch")],
                vec![cell("12MP"), cell("12MP")],
                vec![cell("No"), cell("Yes")],
            ],
        )
        .unwrap()
        .with_row_labels(vec!["Display", "Camera", "Wireless Charging"])
        .unwrap()
    }

    #[test]
    fn transpose_swaps_data_and_labels() {
        let df = crosstab();
        let t = transpose(&df).unwrap();
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(
            t.row_labels().as_slice(),
            &[cell("iPhone 11"), cell("iPhone 11 Pro")]
        );
        assert_eq!(
            t.col_labels().as_slice(),
            &[cell("Display"), cell("Camera"), cell("Wireless Charging")]
        );
        assert_eq!(t.cell(1, 2).unwrap(), &cell("Yes"));
        // Schema of the transpose is unspecified until induced.
        assert_eq!(t.schema(), vec![None, None, None]);
    }

    #[test]
    fn double_transpose_restores_data() {
        let df = crosstab();
        let round_trip = transpose(&transpose(&df).unwrap()).unwrap();
        assert!(round_trip.same_data(&df));
    }

    #[test]
    fn transpose_of_empty_and_single_cell_frames() {
        let empty = DataFrame::empty();
        assert_eq!(transpose(&empty).unwrap().shape(), (0, 0));
        let single = DataFrame::from_rows(vec!["a"], vec![vec![cell(1)]]).unwrap();
        let t = transpose(&single).unwrap();
        assert_eq!(t.shape(), (1, 1));
        assert_eq!(t.cell(0, 0).unwrap(), &cell(1));
        assert_eq!(t.row_labels().as_slice(), &[cell("a")]);
    }

    #[test]
    fn transpose_schema_can_be_reinduced_after_round_trip() {
        // Python-style behaviour (paper §4.3): runtime-typed cells let S recover the
        // original schema after two transposes even though each transpose clears D_n.
        let df = DataFrame::from_rows(
            vec!["int_col", "str_col"],
            vec![vec![cell(1), cell("a")], vec![cell(2), cell("b")]],
        )
        .unwrap();
        let mut round_trip = transpose(&transpose(&df).unwrap()).unwrap();
        assert_eq!(round_trip.resolve_schema(), vec![Domain::Int, Domain::Str]);
    }

    #[test]
    fn to_labels_moves_column_into_metadata() {
        let df = DataFrame::from_rows(
            vec!["Year", "Sales"],
            vec![vec![cell(2001), cell(100)], vec![cell(2002), cell(150)]],
        )
        .unwrap();
        let out = to_labels(&df, &cell("Year")).unwrap();
        assert_eq!(out.shape(), (2, 1));
        assert_eq!(out.row_labels().as_slice(), &[cell(2001), cell(2002)]);
        assert_eq!(out.col_labels().as_slice(), &[cell("Sales")]);
        assert!(to_labels(&df, &cell("missing")).is_err());
    }

    #[test]
    fn from_labels_moves_metadata_into_data() {
        let df = DataFrame::from_rows(vec!["Sales"], vec![vec![cell(100)], vec![cell(150)]])
            .unwrap()
            .with_row_labels(vec![cell(2001), cell(2002)])
            .unwrap();
        let out = from_labels(&df, &cell("Year")).unwrap();
        assert_eq!(out.shape(), (2, 2));
        assert_eq!(out.col_labels().as_slice(), &[cell("Year"), cell("Sales")]);
        assert_eq!(out.cell(0, 0).unwrap(), &cell(2001));
        assert_eq!(out.row_labels().as_slice(), &[cell(0), cell(1)]);
    }

    #[test]
    fn tolabels_then_fromlabels_round_trips_data() {
        let df = DataFrame::from_rows(
            vec!["Year", "Sales"],
            vec![vec![cell(2001), cell(100)], vec![cell(2002), cell(150)]],
        )
        .unwrap();
        let promoted = to_labels(&df, &cell("Year")).unwrap();
        let back = from_labels(&promoted, &cell("Year")).unwrap();
        assert!(back.same_data(&df));
    }

    #[test]
    fn limit_takes_prefix_or_suffix() {
        let df =
            DataFrame::from_columns(vec!["v"], vec![(0..10).map(|i| cell(i as i64)).collect()])
                .unwrap();
        assert_eq!(limit(&df, 3, false).cell(2, 0).unwrap(), &cell(2));
        assert_eq!(limit(&df, 3, true).cell(0, 0).unwrap(), &cell(7));
        assert_eq!(limit(&df, 99, false).shape(), (10, 1));
    }
}
