//! Notebook-corpus usage statistics: the paper's §4.6 / Figure 7 analysis.
//!
//! Generates the synthetic notebook corpus, extracts pandas method invocations, loads
//! the per-function statistics *into a dataframe*, and then uses the library's own API
//! to answer the paper's three questions: which functions dominate overall, which
//! appear in the most notebooks, and how usage splits between inspection, aggregation
//! and relational operators.
//!
//! Run with: `cargo run --example usage_stats`

use scalable_dataframes::pandas::{PandasFrame, Session};
use scalable_dataframes::prelude::*;
use scalable_dataframes::workloads::{
    analyze_corpus, generate_corpus, usage_dataframe, CorpusConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CorpusConfig {
        notebooks: 2_000,
        ..CorpusConfig::default()
    };
    let corpus = generate_corpus(&config);
    let stats = analyze_corpus(&corpus);
    println!(
        "analysed {} notebooks; {} ({:.0}%) use pandas (the paper found ~40%)",
        stats.total_notebooks,
        stats.pandas_notebooks,
        100.0 * stats.pandas_notebooks as f64 / stats.total_notebooks as f64
    );

    let session = Session::modin();
    let usage = PandasFrame::from_dataframe(&session, usage_dataframe(&stats)?);

    println!("\nFigure 7 — most frequently invoked functions:");
    println!("{}", usage.head(10)?.display_with(10));

    println!("functions appearing in the most notebooks:");
    let by_files = usage.sort_values(&["notebooks"], false);
    println!("{}", by_files.head(10)?.display_with(10));

    // Classify functions into the paper's buckets and aggregate with the library.
    let classified = usage.map_column("function", "bucket", |cell_value| {
        let name = cell_value.as_str().unwrap_or("");
        let bucket = match name {
            "head" | "shape" | "plot" | "describe" | "values" | "index" | "columns" => "inspection",
            "mean" | "sum" | "max" | "kurtosis" => "aggregation",
            "groupby" | "merge" | "pivot" | "append" | "drop" => "relational/reshaping",
            "loc" | "iloc" => "point access",
            "read_csv" => "ingest",
            _ => "other",
        };
        cell(bucket)
    })?;
    let by_bucket = classified
        .rename(&[("function", "bucket")])
        .groupby_agg(
            &["bucket"],
            vec![
                df_core::algebra::Aggregation::of("occurrences", df_core::algebra::AggFunc::Sum)
                    .with_alias("total_calls"),
            ],
            false,
        )
        .sort_values(&["total_calls"], false);
    println!(
        "usage by category:\n{}",
        by_bucket.collect()?.display_with(8)
    );

    Ok(())
}
