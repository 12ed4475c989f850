//! Figure 8: alternative pivot plans.
//!
//! Plan (a) pivots directly on the requested column; plan (b) pivots on the other axis
//! and finishes with a TRANSPOSE, which is nearly free under the engine's
//! metadata-only transpose. The paper argues the optimizer should pick the axis with
//! the friendlier grouping; this target measures both plans over a sales table whose
//! axes have very different distinct-value counts, and reports which plan the
//! cost-based chooser (`choose_pivot_plan`) would pick.

use df_bench::{render_table, time_once, BenchRecord};
use df_engine::{choose_pivot_plan, PivotPlan};
use df_pandas::{PandasFrame, Session};
use df_workloads::{generate_sales, SalesConfig};

fn main() {
    let years = df_bench::env_usize("DF_BENCH_PIVOT_YEARS", df_bench::smoke_scaled(200, 20));
    let months = 12;
    let sales = generate_sales(&SalesConfig {
        years,
        months,
        seed: 11,
    })
    .expect("sales generation");
    let session = Session::modin();
    let frame = PandasFrame::from_dataframe(&session, sales);

    let mut records = Vec::new();
    let mut results = Vec::new();
    // "Pivot around Month": Month values become the column labels, Year values the
    // rows. Plan (a) groups directly by Year; plan (b) groups by Month (far fewer
    // groups) and transposes the small result.
    for (label, index, columns, plan) in [
        (
            "group by Year, direct (fig 8a)",
            "Year",
            "Month",
            PivotPlan::Direct,
        ),
        (
            "group by Month + transpose (fig 8b)",
            "Year",
            "Month",
            PivotPlan::PivotOtherAxisThenTranspose,
        ),
    ] {
        let (result, elapsed) = time_once(|| {
            frame
                .pivot_with_plan(index, columns, "Sales", plan)
                .expect("pivot plan builds")
                .collect()
                .expect("pivot executes")
        });
        records.push(BenchRecord {
            experiment: "fig8-pivot".to_string(),
            system: "modin-engine".to_string(),
            parameter: label.to_string(),
            seconds: Some(elapsed.as_secs_f64()),
            note: format!("output shape {:?}", result.shape()),
        });
        results.push(result);
    }
    assert!(
        results[0].same_data(&results[1]),
        "both Figure 8 plans must produce the same pivoted table"
    );
    println!(
        "{}",
        render_table("Figure 8: alternative pivot plans", &records)
    );
    let chosen = choose_pivot_plan(years, months);
    println!(
        "cost-based chooser: grouping directly needs {years} distinct Year groups, the other \
         axis only {months} distinct Month groups -> {chosen:?}"
    );
}
