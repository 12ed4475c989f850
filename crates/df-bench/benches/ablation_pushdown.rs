//! Ablation: cost-based scan pushdown on vs off.
//!
//! A selective pipeline — `SCAN_CSV → SELECTION (id < rows/16) → PROJECTION
//! (2 of 8 columns) [→ JOIN small dim]` — over a clustered file (sorted `id`,
//! so chunk min/max statistics make the filter sargable). The "on" arm runs the
//! default optimizer (predicate + projection pushdown, statistics-driven join
//! strategy); the "off" arm runs the same plan with every rewrite disabled.
//! Both arms are asserted cell-for-cell identical, and the pushdown counters
//! (chunks skipped, columns pruned, join strategy) land in the notes column.
//!
//! The `first-look` experiment is the statement an analyst runs first: a cold
//! session's `read_csv → head(10)`, with the LIMIT folded into the scan leaf
//! (`push_limits` on) vs left above it (off). Both arms pay the one statistics pass
//! of first contact; the on arm then parses one band, the off arm all of them.

use df_bench::{render_table, time_once, BenchRecord};
use df_core::algebra::{AlgebraExpr, CmpOp, ColumnSelector, JoinOn, JoinType, Predicate};
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;
use df_core::scan::{ScanCsv, ScanOptions};
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::optimizer::OptimizerConfig;
use df_types::cell::cell;

fn main() {
    let rows = df_bench::env_usize(
        "DF_BENCH_PUSHDOWN_ROWS",
        df_bench::smoke_scaled(100_000, 2_000),
    );
    // Eight columns; `id` is sorted so the range filter is clustered into the
    // leading chunks, `tag` keys the dim join, the rest is payload the
    // projection should never parse.
    let mut content = String::with_capacity(rows * 48);
    content.push_str("id,tag,c2,c3,c4,c5,c6,c7\n");
    for i in 0..rows {
        content.push_str(&format!(
            "{i},t{},{}.5,x{},y{},z{},w{},p{}\n",
            i % 3,
            i % 9,
            i % 4,
            i % 5,
            i % 6,
            i % 7,
            i % 11
        ));
    }
    let dir = std::env::temp_dir().join(format!("df-bench-pushdown-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("clustered.csv");
    std::fs::write(&path, &content).expect("write workload file");
    let file_bytes = content.len() as u64;

    let dim = DataFrame::from_columns(
        vec!["tag", "bucket"],
        vec![
            vec![cell("t0"), cell("t1"), cell("t2")],
            vec![cell("small"), cell("medium"), cell("large")],
        ],
    )
    .expect("dim table");

    // Filter keeps < 10% of the file; projection keeps 2 of 8 columns.
    let cutoff = (rows / 16).max(1) as i64;
    let predicate = Predicate::ColCmp {
        column: cell("id"),
        op: CmpOp::Lt,
        value: cell(cutoff),
    };
    let scan = |identity: &str| {
        AlgebraExpr::scan_csv(ScanCsv::new(
            &path,
            ScanOptions {
                infer_schema: true,
                ..ScanOptions::default()
            },
            identity,
        ))
    };
    let plans: Vec<(&str, AlgebraExpr)> = vec![
        (
            "scan+filter+project",
            scan("abl-pushdown-project")
                .select(predicate.clone())
                .project(ColumnSelector::ByLabels(vec![cell("c2"), cell("id")])),
        ),
        (
            "scan+filter+join",
            scan("abl-pushdown-join")
                .select(predicate.clone())
                .project(ColumnSelector::ByLabels(vec![cell("tag"), cell("id")]))
                .join(
                    AlgebraExpr::literal(dim.clone()),
                    JoinOn::Columns(vec![cell("tag")]),
                    JoinType::Inner,
                ),
        ),
    ];

    let budgets = [("inf", None), ("ws/4", Some((file_bytes as usize) / 4))];
    let config_for = |budget: Option<usize>| {
        let config = ModinConfig::default().with_partition_size((rows / 16).max(256), 32);
        match budget {
            Some(bytes) => config.with_memory_budget(bytes),
            None => config,
        }
    };
    let mut records = Vec::new();
    for (experiment, expr) in &plans {
        let mut results: Vec<DataFrame> = Vec::new();
        for (label, budget) in budgets {
            for pushdown in [true, false] {
                let mut config = config_for(budget);
                if !pushdown {
                    config.optimizer = OptimizerConfig::disabled();
                }
                // Fresh engine per arm: statistics caches and counters stay
                // attributable, and no arm warms another's scan.
                let engine = ModinEngine::with_config(config);
                let (outcome, elapsed) = time_once(|| engine.execute_collect(expr));
                let result = outcome.expect("pipeline evaluation");
                let stats = engine.pushdown_stats();
                let spill = engine.spill_stats();
                let ingest = engine.ingest_stats();
                results.push(result.clone());
                records.push(BenchRecord {
                    experiment: format!("abl-pushdown/{experiment}"),
                    system: if pushdown {
                        "pushdown-on"
                    } else {
                        "pushdown-off"
                    }
                    .to_string(),
                    parameter: format!("budget={label}"),
                    seconds: Some(elapsed.as_secs_f64()),
                    note: format!(
                        "rows={rows}, out={:?}, chunks_skipped={}, columns_pruned={}, \
                         predicates_pushed={}, joins_broadcast={}, joins_shuffled={}, \
                         parsed={}B, peak={}B, equivalence=asserted",
                        result.shape(),
                        stats.chunks_skipped,
                        stats.columns_pruned,
                        stats.predicates_pushed,
                        stats.joins_broadcast,
                        stats.joins_shuffled,
                        ingest.ingest_bytes,
                        spill.peak_memory_bytes,
                    ),
                });
                if pushdown {
                    assert!(
                        stats.chunks_skipped > 0,
                        "{experiment}: clustered filter skipped no chunks"
                    );
                    assert!(
                        stats.columns_pruned > 0,
                        "{experiment}: 2-of-8 projection pruned no columns"
                    );
                } else {
                    assert_eq!(
                        stats.chunks_skipped, 0,
                        "{experiment}: off arm skipped chunks"
                    );
                }
            }
        }
        // Every arm of the experiment is cell-for-cell identical.
        let reference = &results[0];
        for (i, other) in results.iter().enumerate().skip(1) {
            assert!(
                reference.same_data(other),
                "abl-pushdown/{experiment}: arm {i} diverged from arm 0"
            );
        }
    }

    // First look: every arm is a cold engine (no cached statistics), so the timing is
    // first contact with the file — plan pass + statistics pass + the limited parse.
    let mut looks: Vec<DataFrame> = Vec::new();
    for (label, budget) in budgets {
        for fold_limit in [true, false] {
            let mut config = config_for(budget);
            config.optimizer.push_limits = fold_limit;
            let engine = ModinEngine::with_config(config);
            let first_look = scan(&format!("abl-pushdown-first-look-{label}-{fold_limit}"));
            let (outcome, elapsed) = time_once(|| engine.execute_prefix(&first_look, 10));
            let head = outcome.expect("first look");
            let ingest = engine.ingest_stats();
            if fold_limit {
                assert_eq!(ingest.bands_parsed, 1, "head(10) parses one band");
            } else {
                assert!(ingest.bands_parsed > 1, "the off arm parses every band");
            }
            records.push(BenchRecord {
                experiment: "abl-pushdown/first-look".to_string(),
                system: if fold_limit { "limit-on" } else { "limit-off" }.to_string(),
                parameter: format!("budget={label}"),
                seconds: Some(elapsed.as_secs_f64()),
                note: format!(
                    "rows={rows}, out={:?}, bands_parsed={}, parsed={}B, peak={}B, \
                     equivalence=asserted",
                    head.shape(),
                    ingest.bands_parsed,
                    ingest.ingest_bytes,
                    engine.spill_stats().peak_memory_bytes,
                ),
            });
            looks.push(head);
        }
    }
    for (i, other) in looks.iter().enumerate().skip(1) {
        assert!(
            looks[0].same_data(other),
            "abl-pushdown/first-look: arm {i} diverged from arm 0"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    println!(
        "{}",
        render_table(
            "Ablation: cost-based scan pushdown on vs off (selective scan + join)",
            &records
        )
    );
    df_bench::emit_json_env(&records);
}
