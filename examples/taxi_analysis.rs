//! Taxi-trip analysis: the workload behind the paper's Figure 2 case study, expressed
//! through the pandas-style API.
//!
//! Generates the synthetic NYC-taxi-like trace (untyped, as if read from CSV), then
//! runs the four paper queries plus a few realistic follow-ups (value counts, revenue
//! by passenger count, rolling fares) on both the scalable engine and the pandas-like
//! baseline, printing timings so the speedup shape of Figure 2 is visible from a
//! plain `cargo run --example taxi_analysis`.

use std::time::Instant;

use scalable_dataframes::core::algebra::{AggFunc, Aggregation};
use scalable_dataframes::pandas::{PandasFrame, Session};
use scalable_dataframes::workloads::{generate_raw, TaxiConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows: usize = std::env::var("TAXI_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let taxi = generate_raw(&TaxiConfig {
        base_rows: rows,
        replication: 1,
        ..TaxiConfig::default()
    })?;
    println!(
        "generated {} taxi trips x {} columns (untyped CSV-style cells)",
        rows,
        taxi.n_cols()
    );

    for (name, session) in [
        ("modin-engine", Session::modin()),
        ("pandas-baseline", Session::baseline()),
    ] {
        println!("\n=== {name} ===");
        let trips = PandasFrame::from_dataframe(&session, taxi.clone());

        let start = Instant::now();
        let mask = trips.isna();
        let (null_rows, _) = mask.shape()?;
        println!(
            "map (null mask) over {null_rows} rows: {:?}",
            start.elapsed()
        );

        let start = Instant::now();
        let by_passengers = trips.groupby_count(&["passenger_count"]).collect()?;
        println!(
            "groupby(n) -> {} groups: {:?}",
            by_passengers.n_rows(),
            start.elapsed()
        );

        let start = Instant::now();
        let non_null = trips.count_non_null("passenger_count").collect()?;
        println!(
            "groupby(1) -> {} non-null rows: {:?}",
            non_null.cell(0, 0)?,
            start.elapsed()
        );

        let start = Instant::now();
        let transposed = trips.t().isna();
        let shape = transposed.shape()?;
        println!("transpose + map -> {shape:?}: {:?}", start.elapsed());

        // Follow-up analysis an analyst would actually run.
        let start = Instant::now();
        let revenue = trips
            .infer_types()
            .groupby_agg(
                &["passenger_count"],
                vec![
                    Aggregation::of("total_amount", AggFunc::Sum).with_alias("revenue"),
                    Aggregation::of("total_amount", AggFunc::Mean).with_alias("avg_fare"),
                    Aggregation::count_rows(),
                ],
                false,
            )
            .sort_values(&["revenue"], false)
            .collect()?;
        println!(
            "revenue by passenger count ({} rows): {:?}\n{}",
            revenue.n_rows(),
            start.elapsed(),
            revenue.display_with(4)
        );

        let payment_mix = trips.value_counts("payment_type").head(4)?;
        println!("payment mix (top 4)\n{}", payment_mix.display_with(4));

        println!(
            "session stats: statements={}, executions={}, cache_hits={}",
            session.stats().statements,
            session.stats().executions,
            session.stats().cache_hits
        );
    }
    Ok(())
}
