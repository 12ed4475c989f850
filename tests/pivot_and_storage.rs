//! Integration tests for the pivot plans (Figures 5, 6 and 8), CSV ingest through the
//! full stack, and the out-of-core spill store feeding the engines.

use df_core::engine::Engine;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::PivotPlan;
use df_pandas::{PandasFrame, Session};
use df_storage::csv::{read_csv_str, write_csv_string, CsvOptions};
use df_storage::spill::SpillStore;
use df_types::cell::cell;
use df_workloads::{figure5_narrow_table, figure5_wide_by_year, generate_sales, SalesConfig};

#[test]
fn figure5_pivot_matches_the_paper_table_on_every_engine() {
    for session in [Session::modin(), Session::baseline(), Session::reference()] {
        let narrow = PandasFrame::from_dataframe(&session, figure5_narrow_table());
        let wide = narrow
            .pivot("Year", "Month", "Sales")
            .unwrap()
            .collect()
            .unwrap();
        assert!(
            wide.same_data(&figure5_wide_by_year()),
            "engine {:?} produced\n{wide}",
            session.engine_kind()
        );
    }
}

#[test]
fn figure8_plans_agree_on_generated_sales_data() {
    let sales = generate_sales(&SalesConfig {
        years: 30,
        months: 12,
        seed: 4,
    })
    .unwrap();
    let session = Session::modin();
    let frame = PandasFrame::from_dataframe(&session, sales);
    let direct = frame
        .pivot_with_plan("Year", "Month", "Sales", PivotPlan::Direct)
        .unwrap()
        .collect()
        .unwrap();
    let alternative = frame
        .pivot_with_plan(
            "Year",
            "Month",
            "Sales",
            PivotPlan::PivotOtherAxisThenTranspose,
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(direct.shape(), (30, 12));
    assert!(direct.same_data(&alternative));
    // Every (year, month) pair exists in the generated data, so no nulls appear.
    assert!(direct
        .columns()
        .iter()
        .all(|c| c.count_non_null() == c.len()));
}

#[test]
fn unpivot_round_trip_restores_the_narrow_table_contents() {
    // Pivot then melt back (via FROMLABELS + per-row expansion) and compare the
    // multiset of (Year, Month, Sales) triples with the original narrow table.
    let session = Session::modin();
    let narrow = figure5_narrow_table();
    let frame = PandasFrame::from_dataframe(&session, narrow.clone());
    let wide = frame
        .pivot("Year", "Month", "Sales")
        .unwrap()
        .collect()
        .unwrap();
    let mut triples: Vec<(String, String, String)> = Vec::new();
    for (i, year) in wide.row_labels().as_slice().iter().enumerate() {
        for (j, month) in wide.col_labels().as_slice().iter().enumerate() {
            let value = wide.cell(i, j).unwrap();
            if !value.is_null() {
                triples.push((
                    year.to_raw_string(),
                    month.to_raw_string(),
                    value.to_raw_string(),
                ));
            }
        }
    }
    let mut expected: Vec<(String, String, String)> = (0..narrow.n_rows())
        .map(|i| {
            (
                narrow.cell(i, 0).unwrap().to_raw_string(),
                narrow.cell(i, 1).unwrap().to_raw_string(),
                narrow.cell(i, 2).unwrap().to_raw_string(),
            )
        })
        .collect();
    triples.sort();
    expected.sort();
    assert_eq!(triples, expected);
}

#[test]
fn csv_ingest_through_the_api_defers_typing_until_needed() {
    let csv = "passenger_count,fare\n1,10.5\n2,20.0\n,5.0\n1,7.5\n";
    let session = Session::modin();
    let trips = PandasFrame::read_csv_str(&session, csv, &CsvOptions::default()).unwrap();
    // Raw ingest: no schema yet.
    assert_eq!(trips.collect().unwrap().schema(), vec![None, None]);
    // Queries still work on the raw representation.
    let by_count = trips.groupby_count(&["passenger_count"]).collect().unwrap();
    assert_eq!(by_count.shape(), (3, 2));
    // Explicit typing works when asked for.
    let typed = trips.infer_types();
    let dtypes = typed.dtypes().unwrap();
    assert_eq!(dtypes[0].1, df_types::domain::Domain::Int);
    assert_eq!(dtypes[1].1, df_types::domain::Domain::Float);
    assert_eq!(typed.sum("fare").unwrap(), cell(43.0));
    // Round trip back to CSV.
    let written = typed.to_csv_string().unwrap();
    let reread = read_csv_str(&written, &CsvOptions::default()).unwrap();
    assert_eq!(reread.shape(), (4, 2));
}

#[test]
fn spill_store_round_trips_engine_results() {
    // An engine result spilled to disk and loaded back must survive another round of
    // query processing (the storage layer of §3.3).
    let sales = generate_sales(&SalesConfig {
        years: 20,
        months: 6,
        seed: 9,
    })
    .unwrap();
    let engine = ModinEngine::with_config(ModinConfig::sequential().with_partition_size(16, 4));
    let grouped = engine
        .execute_collect(&df_core::algebra::AlgebraExpr::literal(sales).group_by(
            vec![cell("Year")],
            vec![df_core::algebra::Aggregation::of(
                    "Sales",
                    df_core::algebra::AggFunc::Sum,
                )
                .with_alias("total")],
            false,
        ))
        .unwrap();
    let store = SpillStore::new(1).unwrap(); // spill everything immediately
    let id = store.put(grouped.clone()).unwrap();
    let restored = store.get(id).unwrap();
    assert_eq!(restored.shape(), grouped.shape());
    // Continue the analysis on the restored partition.
    let top = engine
        .execute_collect(
            &df_core::algebra::AlgebraExpr::literal(restored)
                .sort(df_core::algebra::SortSpec {
                    by: vec![cell("total")],
                    ascending: vec![false],
                    stable: true,
                })
                .limit(3, false),
        )
        .unwrap();
    assert_eq!(top.shape(), (3, 2));
    assert!(store.stats().spill_outs >= 1);
    // CSV writer handles the grouped result too.
    let text = write_csv_string(&grouped, &CsvOptions::default()).unwrap();
    assert!(text.lines().count() > 3);
}
