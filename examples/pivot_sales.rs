//! Pivot in the dataframe algebra: the paper's Figure 5 example and the Figure 6 / 8
//! query plans.
//!
//! Shows (1) the exact Figure 5 narrow→wide pivot, (2) the algebra expression the API
//! builds for it (GROUPBY(collect) → MAP(flatten) → [TOLABELS] → [TRANSPOSE]),
//! (3) that the alternative Figure 8 plan produces the identical table, and (4) the
//! unpivot (round trip back to the narrow table) composed from FROMLABELS + MAP.
//!
//! Run with: `cargo run --example pivot_sales`

use scalable_dataframes::engine::{choose_pivot_plan, PivotPlan};
use scalable_dataframes::pandas::{PandasFrame, Session};
use scalable_dataframes::workloads::{figure5_narrow_table, figure5_wide_by_year};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::modin();
    let narrow = PandasFrame::from_dataframe(&session, figure5_narrow_table());
    println!("Figure 5 narrow table (SALES)\n{}", narrow.display(8)?);

    // Direct plan: group by Year, flatten the collected months, years become labels.
    let wide_by_year = narrow.pivot("Year", "Month", "Sales")?;
    println!(
        "pivot(index=Year, columns=Month) — wide table of years\n{}",
        wide_by_year.display(8)?
    );
    println!(
        "logical plan: {} operators, {} transposes, expression = {}",
        wide_by_year.expr().operator_count(),
        wide_by_year.expr().transpose_count(),
        wide_by_year.expr().name()
    );
    assert!(wide_by_year.collect()?.same_data(&figure5_wide_by_year()));

    // The Figure 8 alternative: pivot over the other axis and transpose the result.
    let alternative = narrow.pivot_with_plan(
        "Year",
        "Month",
        "Sales",
        PivotPlan::PivotOtherAxisThenTranspose,
    )?;
    assert!(alternative.collect()?.same_data(&figure5_wide_by_year()));
    println!(
        "alternative plan produces the identical table using {} transpose(s)",
        alternative.expr().transpose_count()
    );
    println!(
        "cost-based choice for pivoting by Year (3 years vs 3 months here): {:?}",
        choose_pivot_plan(3, 3)
    );

    // The transpose of the wide-by-year table is the paper's "Wide Table of MONTHs".
    let wide_by_month = wide_by_year.t();
    println!(
        "transposed: wide table of months\n{}",
        wide_by_month.display(8)?
    );

    // Unpivot: back from the wide table to the narrow table via FROMLABELS + apply.
    let restored = wide_by_year
        .reset_index("Year")
        .apply_rows("unpivot", vec!["Year", "Jan", "Feb", "Mar"], |row| {
            row.cells.to_vec()
        })
        .collect()?;
    println!(
        "unpivot scaffolding (year column restored)\n{}",
        restored.display_with(4)
    );

    Ok(())
}
