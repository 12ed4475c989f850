//! Figure 7: pandas usage statistics over a notebook corpus.
//!
//! The paper analyses 1M GitHub notebooks; this target generates the synthetic corpus
//! (whose popularity ranking follows the paper's findings), extracts per-function
//! occurrence counts and per-notebook counts, and prints the Figure 7 histogram rows —
//! also timing how long corpus analysis takes at increasing corpus sizes.

use df_bench::{render_table, time_once, BenchRecord};
use df_workloads::{analyze_corpus, generate_corpus, usage_dataframe, CorpusConfig};

fn main() {
    let notebooks = df_bench::env_usize("DF_BENCH_NOTEBOOKS", df_bench::smoke_scaled(2_000, 200));
    let mut records = Vec::new();
    for scale in [notebooks / 4, notebooks / 2, notebooks] {
        let config = CorpusConfig {
            notebooks: scale.max(1),
            ..CorpusConfig::default()
        };
        let corpus = generate_corpus(&config);
        let (stats, elapsed) = time_once(|| analyze_corpus(&corpus));
        records.push(BenchRecord {
            experiment: "fig7-analysis".to_string(),
            system: "call-extractor".to_string(),
            parameter: format!("{} notebooks", scale),
            seconds: Some(elapsed.as_secs_f64()),
            note: format!(
                "pandas notebooks: {} ({:.0}%)",
                stats.pandas_notebooks,
                100.0 * stats.pandas_notebooks as f64 / stats.total_notebooks as f64
            ),
        });
        if scale == notebooks {
            let table = usage_dataframe(&stats).expect("usage dataframe");
            println!("== Figure 7: pandas function usage (top 15) ==");
            println!("{}", table.head(15).display_with(15));
        }
    }
    println!(
        "{}",
        render_table("Figure 7: corpus analysis cost", &records)
    );
}
