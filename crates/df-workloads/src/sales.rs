//! The sales pivot example of Figure 5, plus a scalable generator used by the
//! Figure 8 pivot-plan benchmark.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use df_types::cell::{cell, Cell};
use df_types::error::DfResult;

use df_core::dataframe::DataFrame;

/// Month labels used by the example and the generator.
pub(crate) const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// The exact narrow table of Figure 5: `(Year, Month, Sales)` with eight rows (2003 has
/// no March entry).
pub fn figure5_narrow_table() -> DataFrame {
    DataFrame::from_rows(
        vec!["Year", "Month", "Sales"],
        vec![
            vec![cell(2001), cell("Jan"), cell(100)],
            vec![cell(2001), cell("Feb"), cell(110)],
            vec![cell(2001), cell("Mar"), cell(120)],
            vec![cell(2002), cell("Jan"), cell(150)],
            vec![cell(2002), cell("Feb"), cell(200)],
            vec![cell(2002), cell("Mar"), cell(250)],
            vec![cell(2003), cell("Jan"), cell(300)],
            vec![cell(2003), cell("Feb"), cell(310)],
        ],
    )
    .expect("static figure 5 table is well formed")
}

/// The "Wide Table of YEARs" of Figure 5 (years as rows, months as columns), used to
/// check pivot output.
pub fn figure5_wide_by_year() -> DataFrame {
    DataFrame::from_rows(
        vec!["Jan", "Feb", "Mar"],
        vec![
            vec![cell(100), cell(110), cell(120)],
            vec![cell(150), cell(200), cell(250)],
            vec![cell(300), cell(310), Cell::Null],
        ],
    )
    .expect("static figure 5 table is well formed")
    .with_row_labels(vec![cell(2001), cell(2002), cell(2003)])
    .expect("three row labels for three rows")
}

/// Configuration for the scalable sales generator.
#[derive(Debug, Clone, Copy)]
pub struct SalesConfig {
    /// Number of distinct years (one wide column per year when pivoting by year).
    pub years: usize,
    /// Number of distinct months used (≤ 12).
    pub months: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SalesConfig {
    fn default() -> Self {
        SalesConfig {
            years: 50,
            months: 12,
            seed: 11,
        }
    }
}

/// Generate a narrow `(Year, Month, Sales)` table with one row per (year, month) pair,
/// in year-major order (so the Year column is sorted, which is what the Figure 8
/// optimized plan exploits).
pub fn generate_sales(config: &SalesConfig) -> DfResult<DataFrame> {
    let months = config.months.min(MONTHS.len()).max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rows = Vec::with_capacity(config.years * months);
    for year in 0..config.years {
        for month in MONTHS.iter().take(months) {
            rows.push(vec![
                cell(2000 + year as i64),
                cell(*month),
                cell(rng.gen_range(50..500) as i64),
            ]);
        }
    }
    DataFrame::from_rows(vec!["Year", "Month", "Sales"], rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_tables_have_paper_shapes() {
        let narrow = figure5_narrow_table();
        assert_eq!(narrow.shape(), (8, 3));
        let wide = figure5_wide_by_year();
        assert_eq!(wide.shape(), (3, 3));
        assert_eq!(wide.cell(2, 2).unwrap(), &Cell::Null);
        assert_eq!(wide.row_labels().as_slice()[0], cell(2001));
    }

    #[test]
    fn generator_produces_year_major_sorted_rows() {
        let df = generate_sales(&SalesConfig {
            years: 3,
            months: 2,
            seed: 1,
        })
        .unwrap();
        assert_eq!(df.shape(), (6, 3));
        assert_eq!(df.cell(0, 0).unwrap(), &cell(2000));
        assert_eq!(df.cell(5, 0).unwrap(), &cell(2002));
        assert_eq!(df.cell(1, 1).unwrap(), &cell("Feb"));
    }

    #[test]
    fn generator_clamps_month_count() {
        let df = generate_sales(&SalesConfig {
            years: 1,
            months: 99,
            seed: 1,
        })
        .unwrap();
        assert_eq!(df.shape(), (12, 3));
    }
}
