//! Workspace-level smoke test: the pandas-like baseline and the MODIN-like engine must
//! produce identical results for the paper's signature workload — pivoting a narrow
//! `(Year, Month, Sales)` table into the wide-by-year form (Figure 5 / Figure 8). The
//! §6 ablations compare the two engines' run times, which is only meaningful while
//! their visible semantics stay equal; this test guards that contract end to end
//! through the umbrella crate's public API.

use scalable_dataframes::prelude::*;
use scalable_dataframes::workloads::{generate_sales, SalesConfig};

#[test]
fn baseline_and_modin_agree_on_a_small_sales_pivot() {
    let narrow = generate_sales(&SalesConfig {
        years: 12,
        months: 12,
        seed: 3,
    })
    .unwrap();

    let baseline_session = Session::baseline();
    let modin_session = Session::modin();
    let baseline_wide = PandasFrame::from_dataframe(&baseline_session, narrow.clone())
        .pivot("Year", "Month", "Sales")
        .unwrap()
        .collect()
        .unwrap();
    let modin_wide = PandasFrame::from_dataframe(&modin_session, narrow)
        .pivot("Year", "Month", "Sales")
        .unwrap()
        .collect()
        .unwrap();

    assert_eq!(baseline_wide.shape(), (12, 12));
    assert!(
        baseline_wide.same_data(&modin_wide),
        "baseline pivot:\n{baseline_wide}\nmodin pivot:\n{modin_wide}"
    );
}

#[test]
fn quickstart_prelude_covers_both_engines() {
    for session in [Session::baseline(), Session::modin()] {
        let df = PandasFrame::from_rows(
            &session,
            vec!["product", "price"],
            vec![
                vec![cell("iPhone 11"), cell(699)],
                vec![cell("iPhone 11 Pro"), cell(999)],
            ],
        )
        .unwrap();
        let expensive = df.filter_gt("price", 700.0).unwrap();
        assert_eq!(expensive.shape().unwrap(), (1, 2));
    }
}
