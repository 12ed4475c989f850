//! Differential acceptance suite for cost-based scan pushdown.
//!
//! The contract under test: plans whose predicates and projections are pushed
//! into the `SCAN_CSV` leaf are **cell-for-cell identical** to (a) the same
//! plan with every rewrite disabled and (b) the serial reference
//! (`read_csv_str` + row-wise selection/projection) — across
//! threads {1, 4} × memory budgets {∞, working-set/4} × schema inference
//! {off, on} — including NaN/null boundary values and predicates that
//! reference columns the projection prunes away.
//!
//! Plans that join the pushed scan to a small dimension table (the optimizer then
//! also picks the join strategy from the scan's statistics) are held to the same
//! contract.
//!
//! The same contract holds for a LIMIT folded into the leaf: `head(k)` /
//! `tail(k)` of a scan is cell-for-cell (labels and dtypes included) the
//! prefix / suffix of the unlimited scan and of the serial reference, while
//! parsing only the chunks its rows come from.

use proptest::prelude::*;

use df_core::algebra::{AlgebraExpr, CmpOp, ColumnSelector, JoinOn, JoinType, Predicate};
use df_core::dataframe::DataFrame;
use df_core::engine::{Engine, ReferenceEngine};
use df_core::ops;
use df_core::{ScanCsv, ScanOptions};
use df_engine::engine::{ModinConfig, ModinEngine};
use df_storage::csv::{read_csv_str, CsvOptions};
use df_types::cell::{cell, Cell};

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pushdown_equiv_suite_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = temp_dir().join(name);
    std::fs::write(&path, content).unwrap();
    path
}

fn scan_expr(path: &std::path::Path, infer_schema: bool, identity: &str) -> AlgebraExpr {
    AlgebraExpr::scan_csv(ScanCsv::new(
        path,
        ScanOptions {
            infer_schema,
            ..ScanOptions::default()
        },
        identity,
    ))
}

fn col_cmp(column: &str, op: CmpOp, value: Cell) -> Predicate {
    Predicate::ColCmp {
        column: cell(column),
        op,
        value,
    }
}

/// Inner-join `expr` to `dim` on `dim`'s first column.
fn join_dim(expr: AlgebraExpr, dim: &DataFrame) -> AlgebraExpr {
    let key = dim.col_labels().get(0).unwrap().clone();
    expr.join(
        AlgebraExpr::literal(dim.clone()),
        JoinOn::Columns(vec![key]),
        JoinType::Inner,
    )
}

/// Evaluate `scan → [select] → [project] [→ join dim]` on a pushdown engine and
/// on an optimizer-disabled engine, across the full configuration matrix, and
/// require both to agree cell-for-cell with the serial reference.
fn assert_pushdown_equivalence(
    name: &str,
    content: &str,
    predicate: Option<Predicate>,
    projection: Option<&[&str]>,
    dim: Option<&DataFrame>,
    band_rows: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    for infer_schema in [false, true] {
        let csv_options = CsvOptions {
            infer_schema,
            ..CsvOptions::default()
        };
        let serial = read_csv_str(content, &csv_options).unwrap();
        let mut expected = match &predicate {
            Some(pred) => ops::rowwise::selection(&serial, pred).unwrap(),
            None => serial.clone(),
        };
        if let Some(labels) = projection {
            let selector =
                ColumnSelector::ByLabels(labels.iter().map(|label| cell(*label)).collect());
            expected = ops::rowwise::projection(&expected, &selector).unwrap();
        }
        if let Some(dim) = dim {
            expected = ReferenceEngine
                .execute_collect(&join_dim(AlgebraExpr::literal(expected), dim))
                .unwrap();
        }

        let path = write_temp(&format!("{name}-{infer_schema}.csv"), content);
        let budgets = [None, Some((serial.approx_size_bytes() / 4).max(1))];
        for threads in [1usize, 4] {
            for budget in budgets {
                let mut config = ModinConfig::default()
                    .with_threads(threads)
                    .with_partition_size(band_rows, 32);
                if let Some(bytes) = budget {
                    config = config.with_memory_budget(bytes);
                }
                let plain_config = ModinConfig {
                    optimizer: false,
                    ..config.clone()
                };

                let identity = format!("{name}-{infer_schema}-{threads}-{budget:?}");
                let mut expr = scan_expr(&path, infer_schema, &identity);
                if let Some(pred) = &predicate {
                    expr = expr.select(pred.clone());
                }
                if let Some(labels) = projection {
                    expr = expr.project(ColumnSelector::ByLabels(
                        labels.iter().map(|label| cell(*label)).collect(),
                    ));
                }
                if let Some(dim) = dim {
                    expr = join_dim(expr, dim);
                }

                let pushed_engine = ModinEngine::with_config(config);
                let pushed = pushed_engine.execute_collect(&expr).unwrap();
                let plain_engine = ModinEngine::with_config(plain_config);
                let plain = plain_engine.execute_collect(&expr).unwrap();

                prop_assert!(
                    pushed.same_data(&expected),
                    "{name}: pushed plan diverged from serial reference \
                     (threads={threads}, budget={budget:?}, infer={infer_schema})\n\
                     expected:\n{expected}\npushed:\n{pushed}"
                );
                prop_assert!(
                    plain.same_data(&expected),
                    "{name}: unpushed plan diverged from serial reference \
                     (threads={threads}, budget={budget:?}, infer={infer_schema})\n\
                     expected:\n{expected}\nplain:\n{plain}"
                );
                prop_assert!(
                    pushed.schema() == plain.schema(),
                    "{name}: schema diverged (threads={threads}, budget={budget:?}, infer={infer_schema})"
                );
                // The disabled-optimizer arm must genuinely be the unpushed
                // plan, or the differential proves nothing.
                let plain_stats = plain_engine.pushdown_stats();
                prop_assert_eq!(plain_stats.predicates_pushed, 0);
                prop_assert_eq!(plain_stats.projections_pushed, 0);
                prop_assert_eq!(plain_stats.chunks_skipped, 0);
            }
        }
        std::fs::remove_file(path).ok();
    }
    Ok(())
}

/// Cell vocabulary for the value columns: numeric-looking strings, null
/// spellings, NaN renderings and signed zero — every boundary the chunk
/// statistics must stay conservative about.
const BOUNDARY: [&str; 12] = [
    "0", "-1", "7", "42", "-0.0", "2.5", "NaN", "nan", "", "NA", "null", "1e2",
];

/// Deterministic adversarial CSV from a seed: column `id` is numeric and
/// loosely clustered (so min/max pruning has something to bite on), `v` mixes
/// numeric values with nulls and NaN, `pad`/`tag` are string payload columns
/// that projection pushdown should prune.
fn generate_csv(rows: usize, seed: u64) -> String {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    let mut content = String::from("id,v,pad,tag\n");
    for i in 0..rows {
        let id: String = if next() % 10 == 0 {
            BOUNDARY[next() % BOUNDARY.len()].to_string()
        } else {
            format!("{i}")
        };
        let v = BOUNDARY[next() % BOUNDARY.len()];
        content.push_str(&format!("{id},{v},pad-{},t{}\n", next() % 100, next() % 3));
    }
    content
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn proptest_pushdown_plans_match_unpushed_and_serial(
        rows in 0usize..48,
        seed in 0u64..10_000,
        band_rows in 3usize..17,
        threshold in -4i64..52,
        shape in 0u8..4,
    ) {
        let content = generate_csv(rows, seed);
        // Rotate through the plan shapes: bare filter, bare projection,
        // filter + projection keeping the filter column, and filter +
        // projection that prunes the filter column away.
        let predicate = match shape {
            1 => None,
            _ => Some(col_cmp("id", CmpOp::Lt, cell(threshold))),
        };
        let projection: Option<&[&str]> = match shape {
            0 => None,
            1 | 2 => Some(&["v", "id"]),
            _ => Some(&["tag", "v"]), // predicate column pruned by projection
        };
        assert_pushdown_equivalence(
            &format!("prop-{rows}-{seed}-{band_rows}-{threshold}-{shape}"),
            &content,
            predicate,
            projection,
            None,
            band_rows,
        )?;
    }
}

#[test]
fn nan_and_null_boundaries_survive_pushdown() {
    // Every row of `v` is a boundary value; the predicate literal itself walks
    // across NaN, signed zero and a value below every cell.
    let mut content = String::from("v,id,w\n");
    for (i, token) in BOUNDARY.iter().enumerate() {
        content.push_str(&format!("{token},{i},w{i}\n"));
    }
    for (case, value) in [
        ("nan-lit", cell(f64::NAN)),
        ("negzero-lit", cell(-0.0_f64)),
        ("below-all", cell(-1_000_000)),
        ("str-lit", cell("42")),
    ] {
        assert_pushdown_equivalence(
            &format!("boundary-{case}"),
            &content,
            Some(col_cmp("v", CmpOp::Le, value)),
            Some(&["w", "v"]),
            None,
            4,
        )
        .unwrap();
    }
}

#[test]
fn predicate_on_pruned_column_still_filters_before_projection() {
    // Selection references `id`; the projection drops it. Pushdown must parse
    // `id` for the filter, then exclude it from the output — exactly like the
    // unpushed SELECTION → PROJECTION pipeline.
    let mut content = String::from("id,a,b,c\n");
    for i in 0..40 {
        content.push_str(&format!("{i},a{i},b{},c{}\n", i % 5, i % 3));
    }
    assert_pushdown_equivalence(
        "pruned-filter-col",
        &content,
        Some(col_cmp("id", CmpOp::Lt, cell(9))),
        Some(&["c", "a"]),
        None,
        8,
    )
    .unwrap();

    // And when the projection asks for a column that does not exist, both
    // plans must fail identically rather than one succeeding.
    let path = write_temp("missing-col.csv", &content);
    let expr = scan_expr(&path, true, "missing-col").project(ColumnSelector::ByLabels(vec![
        cell("a"),
        cell("no_such_column"),
    ]));
    let pushed = ModinEngine::with_config(ModinConfig::sequential().with_partition_size(8, 32))
        .execute_collect(&expr);
    let plain = ModinEngine::with_config(ModinConfig {
        optimizer: false,
        ..ModinConfig::sequential().with_partition_size(8, 32)
    })
    .execute_collect(&expr);
    assert_eq!(
        pushed.is_err(),
        plain.is_err(),
        "pushed and unpushed plans disagree on a missing projection column"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn selective_scan_prunes_chunks_and_columns_with_identical_results() {
    // The acceptance scenario from the issue: a filter matching < 10% of the
    // chunks plus a 2-of-8 projection must actually skip chunks and prune
    // columns — while staying cell-for-cell identical to the unpushed plan.
    let mut content = String::from("id,c1,c2,c3,c4,c5,c6,c7\n");
    for i in 0..256 {
        content.push_str(&format!(
            "{i},{},{}.5,x{},y{},z{},w{},t{}\n",
            i * 2,
            i % 9,
            i % 4,
            i % 5,
            i % 6,
            i % 7,
            i % 3
        ));
    }
    let predicate = col_cmp("id", CmpOp::Lt, cell(8));
    let projection: &[&str] = &["c2", "id"];
    assert_pushdown_equivalence(
        "selective",
        &content,
        Some(predicate.clone()),
        Some(projection),
        None,
        16,
    )
    .unwrap();
    // The same selective scan feeding a join against a small dimension table.
    let dim = DataFrame::from_columns(
        vec!["c7", "bucket"],
        vec![
            vec![cell("t0"), cell("t1"), cell("t2")],
            vec![cell("small"), cell("medium"), cell("large")],
        ],
    )
    .unwrap();
    assert_pushdown_equivalence(
        "selective-join",
        &content,
        Some(predicate.clone()),
        Some(&["c7", "id"]),
        Some(&dim),
        16,
    )
    .unwrap();

    // Counter-level acceptance on one representative engine.
    let path = write_temp("selective-counters.csv", &content);
    let expr = scan_expr(&path, true, "selective-counters")
        .select(predicate)
        .project(ColumnSelector::ByLabels(vec![cell("c2"), cell("id")]));
    let engine = ModinEngine::with_config(
        ModinConfig::default()
            .with_threads(4)
            .with_partition_size(16, 32),
    );
    let result = engine.execute_collect(&expr).unwrap();
    assert_eq!(result.shape(), (8, 2));
    let stats = engine.pushdown_stats();
    assert!(
        stats.chunks_skipped >= 14,
        "sorted ids in 16 bands, only the first survives id < 8: {stats:?}"
    );
    assert_eq!(stats.columns_pruned, 6, "8 columns, 2 referenced");
    assert_eq!(stats.predicates_pushed, 1);
    assert_eq!(stats.projections_pushed, 1);
    std::fs::remove_file(path).ok();
}

// ---------------------------------------------------------------------------
// LIMIT folded into the scan leaf
// ---------------------------------------------------------------------------

/// `rows` records of `id,late,v,tag`: `id` is sorted (so a range predicate on it is
/// chunk-prunable), `late` is integer-looking everywhere except one float at
/// `float_row` — so its file-wide domain is decided by whichever chunk holds that
/// row, usually not the one a limited scan parses — and `v` walks the boundary
/// vocabulary.
fn limited_csv(rows: usize, float_row: usize) -> String {
    let mut content = String::from("id,late,v,tag\n");
    for i in 0..rows {
        let late = if i == float_row {
            "2.5".to_string()
        } else {
            format!("{}", i * 3)
        };
        let v = BOUNDARY[(i * 7) % BOUNDARY.len()];
        content.push_str(&format!("{i},{late},{v},t{}\n", i % 3));
    }
    content
}

/// One cell of the limited-scan matrix: `head(k)` / `tail(k)` with the limit folded
/// into the leaf must equal the same statement with the optimizer off (LIMIT above
/// the unlimited scan) and the serial reference — cells, labels and dtypes. Returns
/// the folded run's `bands_parsed`.
#[allow(clippy::too_many_arguments)]
fn assert_limited_scan_equivalence(
    name: &str,
    content: &str,
    predicate: Option<&Predicate>,
    (k, from_end): (usize, bool),
    infer_schema: bool,
    threads: usize,
    budgeted: bool,
    band_rows: usize,
) -> Result<u64, proptest::test_runner::TestCaseError> {
    let csv_options = CsvOptions {
        infer_schema,
        ..CsvOptions::default()
    };
    let serial = read_csv_str(content, &csv_options).unwrap();
    let filtered = match predicate {
        Some(pred) => ops::rowwise::selection(&serial, pred).unwrap(),
        None => serial.clone(),
    };
    let mut expected = if from_end {
        filtered.tail(k)
    } else {
        filtered.head(k)
    };

    let path = write_temp(&format!("{name}.csv"), content);
    let mut config = ModinConfig::default()
        .with_threads(threads)
        .with_partition_size(band_rows, 32);
    if budgeted {
        config = config.with_memory_budget((serial.approx_size_bytes() / 4).max(1));
    }
    let unfolded_config = ModinConfig {
        optimizer: false,
        ..config.clone()
    };
    let unlimited_engine = ModinEngine::with_config(config.clone());
    let mut expr = scan_expr(&path, infer_schema, name);
    if let Some(pred) = predicate {
        expr = expr.select(pred.clone());
    }
    let run = |engine: &ModinEngine| {
        if from_end {
            engine.execute_suffix(&expr, k)
        } else {
            engine.execute_prefix(&expr, k)
        }
    };
    let folded_engine = ModinEngine::with_config(config);
    let mut folded = run(&folded_engine).unwrap();
    let unfolded_engine = ModinEngine::with_config(unfolded_config);
    let mut unfolded = run(&unfolded_engine).unwrap();
    unlimited_engine.execute_collect(&expr).unwrap();
    std::fs::remove_file(path).ok();

    let context = format!(
        "{name}: k={k} from_end={from_end} infer={infer_schema} threads={threads} budgeted={budgeted}"
    );
    prop_assert!(
        folded.same_data(&expected),
        "{context}: folded limit diverged from the serial reference\nexpected:\n{expected}\nfolded:\n{folded}"
    );
    prop_assert!(
        unfolded.same_data(&expected),
        "{context}: LIMIT above the scan diverged from the serial reference\nexpected:\n{expected}\nunfolded:\n{unfolded}"
    );
    prop_assert!(
        folded.schema() == unfolded.schema(),
        "{context}: schema slots diverged"
    );
    prop_assert!(
        folded.schema() == expected.schema(),
        "{context}: schema slots diverged from serial: {:?} vs {:?}",
        folded.schema(),
        expected.schema()
    );
    prop_assert!(
        folded.resolve_schema() == expected.resolve_schema(),
        "{context}: dtypes diverged from serial"
    );
    prop_assert!(unfolded.resolve_schema() == expected.resolve_schema());
    // A limit never proves a chunk row-free: skipped chunks are the predicate's alone,
    // so the count is the unlimited scan's.
    prop_assert_eq!(
        folded_engine.pushdown_stats().chunks_skipped,
        unlimited_engine.pushdown_stats().chunks_skipped
    );
    Ok(folded_engine.ingest_stats().bands_parsed)
}

/// The three predicate classes of the matrix over `limited_csv(rows, _)`.
fn limit_predicates(rows: usize) -> [Option<Predicate>; 3] {
    [
        None,
        Some(col_cmp("id", CmpOp::Ge, cell((rows / 3) as i64))),
        Some(col_cmp("id", CmpOp::Lt, cell(-1))),
    ]
}

#[test]
fn limited_scans_match_the_unlimited_prefix_across_the_matrix() {
    let rows = 60;
    let content = limited_csv(rows, rows - 2);
    for (p, predicate) in limit_predicates(rows).iter().enumerate() {
        for k in [0, 1, 10, rows, rows + 1] {
            for from_end in [false, true] {
                for infer_schema in [false, true] {
                    for threads in [1usize, 4] {
                        for budgeted in [false, true] {
                            assert_limited_scan_equivalence(
                                &format!("limit-matrix-{p}-{k}-{from_end}-{infer_schema}-{threads}-{budgeted}"),
                                &content,
                                predicate.as_ref(),
                                (k, from_end),
                                infer_schema,
                                threads,
                                budgeted,
                                10,
                            )
                            .unwrap();
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn first_look_parses_only_the_chunks_its_rows_come_from() {
    // 60 rows in six 10-row chunks; the float that decides `late` sits in the last.
    let content = limited_csv(60, 58);
    let bands =
        |predicate: Option<Predicate>, limit: (usize, bool), infer: bool, threads: usize| {
            assert_limited_scan_equivalence(
                &format!(
                    "first-look-{limit:?}-{infer}-{threads}-{}",
                    predicate.is_some()
                ),
                &content,
                predicate.as_ref(),
                limit,
                infer,
                threads,
                false,
                10,
            )
            .unwrap()
        };
    for infer in [false, true] {
        for threads in [1usize, 4] {
            assert_eq!(
                bands(None, (10, false), infer, threads),
                1,
                "head(10): one band"
            );
            assert_eq!(
                bands(None, (10, true), infer, threads),
                1,
                "tail(10): one band"
            );
            assert_eq!(bands(None, (11, false), infer, threads), 2);
            assert_eq!(
                bands(None, (0, false), infer, threads),
                0,
                "head(0) parses nothing"
            );
            assert_eq!(bands(None, (61, true), infer, threads), 6);
        }
    }
    // Behind a predicate the scan parses survivors in waves of one chunk per worker
    // until k rows have passed: `id >= 25` prunes chunks 0–1 (inferred scans only),
    // and the first surviving chunk already holds five matches.
    let ge_25 = || Some(col_cmp("id", CmpOp::Ge, cell(25)));
    assert_eq!(bands(ge_25(), (5, false), true, 1), 1);
    assert_eq!(bands(ge_25(), (6, false), true, 1), 2);
    assert_eq!(
        bands(ge_25(), (5, false), true, 4),
        4,
        "one wave of four survivors"
    );
    assert_eq!(
        bands(ge_25(), (3, true), true, 1),
        1,
        "tail reads from the last chunk"
    );
    // A predicate matching nothing: statistics prove it on an inferred scan (nothing
    // parses); an uninferred one has to look at every chunk to learn the same.
    let none = || Some(col_cmp("id", CmpOp::Lt, cell(-1)));
    assert_eq!(bands(none(), (5, false), true, 4), 0);
    assert_eq!(bands(none(), (5, false), false, 4), 6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Each case draws a document and one cell of the matrix k × predicate class ×
    // head/tail × infer × threads × budget.
    #[test]
    fn proptest_limited_scans_match_unlimited_prefix_and_serial(
        rows in 0usize..48,
        float_row in 0usize..48,
        band_rows in 3usize..17,
        k_class in 0u8..5,
        k_free in 0usize..50,
        cell_of_matrix in 0u8..48,
    ) {
        let content = limited_csv(rows, float_row);
        let k = match k_class {
            0 => 0,
            1 => 1,
            2 => rows,
            3 => rows + 1,
            _ => k_free,
        };
        let predicate = limit_predicates(rows)[(cell_of_matrix % 3) as usize].clone();
        let bit = |n: u8| (cell_of_matrix / 3) >> n & 1 == 1;
        assert_limited_scan_equivalence(
            &format!("limit-prop-{rows}-{float_row}-{band_rows}-{k}-{cell_of_matrix}"),
            &content,
            predicate.as_ref(),
            (k, bit(0)),
            bit(1),
            if bit(2) { 4 } else { 1 },
            bit(3),
            band_rows,
        )?;
    }
}
