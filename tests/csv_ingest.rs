//! Acceptance suite for parallel out-of-core CSV ingest.
//!
//! The contract under test: the chunk-parallel reader
//! (`ModinEngine::ingest_csv` / `PandasFrame::read_csv_path`) is **cell-for-cell
//! identical to the serial reader** — on every workload generator, on adversarial
//! proptest inputs (quotes, delimiters, embedded newlines, CRLF, NaN/-0.0, untyped
//! numeric-looking strings), across thread counts and chunk sizes, with and without
//! schema inference — while a memory-budgeted session ingests files larger than its
//! budget within the documented peak-residency bound.

use std::sync::Arc;

use proptest::prelude::*;

use df_core::dataframe::DataFrame;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_pandas::{PandasFrame, Session};
use df_storage::csv::{read_csv_str, write_csv_string, CsvOptions};
use df_types::cell::cell;
use df_types::cell::Cell;
use df_workloads::{generate_raw, TaxiConfig};
use df_workloads::{generate_sales, SalesConfig};
use df_workloads::{random_frame, RandomFrameConfig};

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("csv_ingest_suite_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = temp_dir().join(name);
    std::fs::write(&path, content).unwrap();
    path
}

/// Assert the parallel reader agrees with the serial reader on this document, across
/// thread counts, chunk granularities and both schema modes.
fn assert_parallel_matches_serial(name: &str, content: &str) {
    for infer_schema in [false, true] {
        let options = CsvOptions {
            infer_schema,
            ..CsvOptions::default()
        };
        let serial = read_csv_str(content, &options).unwrap();
        let path = write_temp(&format!("{name}-{infer_schema}.csv"), content);
        for threads in [1usize, 4] {
            for band_rows in [7usize, 64, 16_384] {
                let engine = ModinEngine::with_config(
                    ModinConfig::default()
                        .with_threads(threads)
                        .with_partition_size(band_rows, 32),
                );
                let grid = engine.ingest_csv(&path, &options).unwrap();
                assert_eq!(
                    grid.band_row_counts().iter().sum::<usize>(),
                    serial.n_rows()
                );
                let parallel = grid.assemble().unwrap();
                assert!(
                    parallel.same_data(&serial),
                    "{name}: threads={threads} band_rows={band_rows} infer={infer_schema} \
                     diverged from serial\nserial:\n{serial}\nparallel:\n{parallel}"
                );
                assert_eq!(
                    parallel.schema(),
                    serial.schema(),
                    "{name}: schema diverged (threads={threads}, band_rows={band_rows}, infer={infer_schema})"
                );
                let stats = engine.ingest_stats();
                assert_eq!(stats.files_ingested, 1);
                assert_eq!(stats.ingest_bytes, content.len() as u64);
            }
        }
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn workload_generators_ingest_identically() {
    let sales = generate_sales(&SalesConfig {
        years: 30,
        months: 12,
        seed: 7,
    })
    .unwrap();
    assert_parallel_matches_serial(
        "sales",
        &write_csv_string(&sales, &CsvOptions::default()).unwrap(),
    );

    let taxi = generate_raw(&TaxiConfig {
        base_rows: 150,
        ..TaxiConfig::default()
    })
    .unwrap();
    assert_parallel_matches_serial(
        "taxi",
        &write_csv_string(&taxi, &CsvOptions::default()).unwrap(),
    );

    let random = random_frame(&RandomFrameConfig {
        rows: 90,
        null_fraction: 0.25,
        seed: 11,
        ..RandomFrameConfig::default()
    })
    .unwrap();
    assert_parallel_matches_serial(
        "random",
        &write_csv_string(&random, &CsvOptions::default()).unwrap(),
    );
}

#[test]
fn engine_default_threads_follow_df_threads_matrix() {
    // CI runs the whole suite under DF_THREADS ∈ {1, 4}; the default engine picks
    // that up, so this case exercises the ingest path at whatever the matrix says.
    let sales = generate_sales(&SalesConfig {
        years: 20,
        months: 6,
        seed: 3,
    })
    .unwrap();
    let content = write_csv_string(&sales, &CsvOptions::default()).unwrap();
    let serial = read_csv_str(&content, &CsvOptions::default()).unwrap();
    let path = write_temp("df-threads.csv", &content);
    let engine = ModinEngine::with_config(ModinConfig::default().with_partition_size(16, 32));
    let parallel = engine
        .ingest_csv(&path, &CsvOptions::default())
        .unwrap()
        .assemble()
        .unwrap();
    assert!(parallel.same_data(&serial));
    assert!(engine.ingest_stats().bands_parsed > 1);
    std::fs::remove_file(path).ok();
}

#[test]
fn budgeted_ingest_of_a_file_larger_than_the_budget() {
    // A file whose parsed working set is ~4x the session's memory budget must ingest
    // completely, spill during ingest, respect the peak-residency bound, and still be
    // cell-for-cell identical to the serial read — sequentially and in parallel.
    let mut content = String::from("k,payload,score\n");
    for i in 0..2_000 {
        content.push_str(&format!(
            "{},{}-{},{}.25\n",
            i % 13,
            "x".repeat(40),
            i,
            i % 97
        ));
    }
    let serial = read_csv_str(&content, &CsvOptions::default()).unwrap();
    let working_set = serial.approx_size_bytes();
    let budget = working_set / 4;
    let path = write_temp("bigger-than-budget.csv", &content);

    for threads in [1usize, 4] {
        let engine = ModinEngine::with_config(
            ModinConfig::default()
                .with_threads(threads)
                .with_partition_size(128, 32)
                .with_memory_budget(budget),
        );
        let grid = engine.ingest_csv(&path, &CsvOptions::default()).unwrap();
        let spill = engine.spill_stats();
        assert!(
            spill.spill_outs > 0,
            "ingest at ws/4 budget never spilled: {spill:?}"
        );
        assert!(
            spill.peak_memory_bytes <= budget + threads * spill.max_insert_bytes,
            "ingest peak exceeded budget + threads x band: {spill:?} (budget {budget})"
        );
        let ingest = engine.ingest_stats();
        assert!(ingest.bands_parsed >= 4, "too few bands: {ingest:?}");
        assert_eq!(ingest.ingest_bytes, content.len() as u64);
        // The grid stays partitioned and spill-backed until a materialisation point.
        assert_eq!(
            grid.band_row_counts().iter().sum::<usize>(),
            serial.n_rows()
        );
        assert!(grid.assemble().unwrap().same_data(&serial));
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn pandas_read_csv_is_lazy_cached_and_invalidated_by_file_changes() {
    let mut content = String::from("region,amount\n");
    for i in 0..200 {
        content.push_str(&format!("r{},{}\n", i % 5, i));
    }
    let path = write_temp("cached.csv", &content);
    let session = Session::modin();
    let frame = PandasFrame::read_csv_path(&session, &path, &CsvOptions::default()).unwrap();
    // The eager read executed the scan: shape comes from its cached handle's metadata.
    assert_eq!(frame.shape().unwrap(), (200, 2));
    let executions_after_first = session.stats().executions;

    // Re-reading the unchanged file is a cache hit on the same underlying handle.
    let again = PandasFrame::read_csv_path(&session, &path, &CsvOptions::default()).unwrap();
    assert_eq!(
        frame.handle().unwrap().identity(),
        again.handle().unwrap().identity(),
        "unchanged file re-read did not reuse the cached scan"
    );
    assert_eq!(session.stats().executions, executions_after_first);
    assert!(session.stats().cache_hits >= 1);

    // Different parse options are a different statement.
    let typed_options = CsvOptions {
        infer_schema: true,
        ..CsvOptions::default()
    };
    let typed = PandasFrame::read_csv_path(&session, &path, &typed_options).unwrap();
    assert_ne!(
        typed.handle().unwrap().identity(),
        frame.handle().unwrap().identity()
    );

    // Rewriting the file invalidates the key (length/mtime/ctime change), and the
    // superseded version's cache entry is evicted rather than pinning its grid for
    // the rest of the session: one entry per live (path, options) statement.
    std::fs::write(&path, "region,amount\nonly,1\n").unwrap();
    let changed = PandasFrame::read_csv_path(&session, &path, &CsvOptions::default()).unwrap();
    assert_eq!(changed.shape().unwrap(), (1, 2));
    assert_eq!(
        session.query().cached_results(),
        2,
        "expected exactly the raw (current) and typed scan entries"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn pandas_pipeline_over_ingested_file_matches_serial_session_and_writes_bandwise() {
    // The end-to-end scenario: open a file under a tight budget, run
    // filter → groupby → sort, write the result band-wise — and agree with the same
    // pipeline over the serially read frame on an unbudgeted session.
    let mut content = String::from("region,amount\n");
    for i in 0..600 {
        content.push_str(&format!("r{},{}\n", i % 7, i % 50));
    }
    let path = write_temp("pipeline.csv", &content);
    let options = CsvOptions {
        infer_schema: true,
        ..CsvOptions::default()
    };
    let serial = read_csv_str(&content, &options).unwrap();
    let budget = serial.approx_size_bytes() / 4;

    let run = |session: &Arc<Session>, frame: PandasFrame| -> DataFrame {
        let filtered = frame.filter_gt("amount", 10).unwrap();
        let grouped = filtered.groupby_agg(
            &["region"],
            vec![
                df_core::algebra::Aggregation::of("amount", df_core::algebra::AggFunc::Sum)
                    .with_alias("total"),
            ],
            false,
        );
        let sorted = grouped.sort_values(&["region"], true);
        let _ = session;
        sorted.collect().unwrap()
    };

    let budgeted = Session::modin_with(
        ModinConfig::default()
            .with_partition_size(64, 32)
            .with_memory_budget(budget),
        df_engine::session::EvalMode::Eager,
    );
    let ingested = PandasFrame::read_csv_path(&budgeted, &path, &options).unwrap();
    let out_of_core_result = run(&budgeted, ingested.clone());

    let reference = Session::modin();
    let serial_frame = PandasFrame::try_from_dataframe(&reference, serial.clone()).unwrap();
    let reference_result = run(&reference, serial_frame);
    assert!(
        out_of_core_result.same_data(&reference_result),
        "budgeted ingest pipeline diverged\nbudgeted:\n{out_of_core_result}\nreference:\n{reference_result}"
    );
    assert!(budgeted.spill_stats().unwrap().spill_outs > 0);
    assert!(budgeted.ingest_stats().unwrap().bands_parsed > 1);

    // Band-wise write of the (partitioned) ingest result round-trips.
    let out_path = temp_dir().join("pipeline-out.csv");
    ingested.write_csv_path(&out_path).unwrap();
    let reread = read_csv_str(
        &std::fs::read_to_string(&out_path).unwrap(),
        &CsvOptions::default(),
    )
    .unwrap();
    let serial_raw = read_csv_str(&content, &CsvOptions::default()).unwrap();
    // The ingest was typed (infer_schema), so the written file renders typed cells;
    // compare against writing the serially read typed frame.
    let serial_written = write_csv_string(&serial, &CsvOptions::default()).unwrap();
    let serial_reread = read_csv_str(&serial_written, &CsvOptions::default()).unwrap();
    assert!(reread.same_data(&serial_reread));
    assert_eq!(reread.shape(), serial_raw.shape());

    // Non-MODIN sessions fall back to the serial reader and still agree.
    let baseline = Session::baseline();
    let fallback = PandasFrame::read_csv_path(&baseline, &path, &options).unwrap();
    assert!(fallback.collect().unwrap().same_data(&serial));
    std::fs::remove_file(path).ok();
    std::fs::remove_file(out_path).ok();
}

/// Adversarial cell vocabulary: quoting, delimiters, newlines (LF and CRLF), quotes,
/// null spellings, numeric-looking strings with leading zeros, NaN/-0.0 renderings.
const ADVERSARIAL: [&str; 18] = [
    "plain",
    "a,b",
    "say \"hi\"",
    "line\nbreak",
    "cr\r\nlf",
    "trailing\r",
    " padded ",
    "",
    "NA",
    "null",
    "007",
    "42",
    "-0.0",
    "2.5",
    "NaN",
    "1e3",
    "true",
    "2020-01-01",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn proptest_round_trip_serial_equals_parallel(
        rows in 0usize..40,
        cols in 2usize..5,
        seed in 0u64..10_000,
        band_rows in 1usize..12,
        infer_choice in 0u8..2,
    ) {
        let infer_schema = infer_choice == 1;
        // Deterministic adversarial frame from the seed.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let labels: Vec<String> = (0..cols).map(|j| format!("c{j}")).collect();
        let columns: Vec<Vec<Cell>> = (0..cols)
            .map(|_| {
                (0..rows)
                    .map(|_| Cell::Str(ADVERSARIAL[next() % ADVERSARIAL.len()].to_string()))
                    .collect()
            })
            .collect();
        let original = DataFrame::from_columns(labels, columns).unwrap();
        let content = write_csv_string(&original, &CsvOptions::default()).unwrap();
        let options = CsvOptions { infer_schema, ..CsvOptions::default() };

        // Serial read is the ground truth; the parallel read must match it exactly.
        let serial = read_csv_str(&content, &options).unwrap();
        let path = write_temp(&format!("prop-{seed}-{rows}-{cols}-{infer_schema}.csv"), &content);
        for threads in [1usize, 4] {
            let engine = ModinEngine::with_config(
                ModinConfig::default()
                    .with_threads(threads)
                    .with_partition_size(band_rows, 32),
            );
            let parallel = engine
                .ingest_csv(&path, &options)
                .unwrap()
                .assemble()
                .unwrap();
            prop_assert!(
                parallel.same_data(&serial),
                "adversarial ingest diverged (threads={}, band_rows={}, infer={})\nserial:\n{}\nparallel:\n{}",
                threads, band_rows, infer_schema, serial, parallel
            );
            prop_assert_eq!(parallel.schema(), serial.schema());
        }
        std::fs::remove_file(&path).ok();

        // Raw reads reproduce the original cells exactly, modulo the defined null
        // normalisation (null-token strings ingest as nulls).
        if !infer_schema {
            let expected_columns: Vec<Vec<Cell>> = original
                .columns()
                .iter()
                .map(|c| {
                    c.cells()
                        .iter()
                        .map(|cell| match cell {
                            Cell::Str(s) if df_types::domain::is_null_token(s) => Cell::Null,
                            other => other.clone(),
                        })
                        .collect()
                })
                .collect();
            let expected = DataFrame::from_columns(
                (0..cols).map(|j| format!("c{j}")).collect::<Vec<_>>(),
                expected_columns,
            )
            .unwrap();
            prop_assert!(
                serial.same_data(&expected),
                "round trip lost cells\nexpected:\n{}\ngot:\n{}",
                expected, serial
            );
        }
    }
}

#[test]
fn ingested_handles_chain_into_later_statements() {
    // A derived statement's plan rebases onto the cached scan handle: the engine
    // resumes from the partitioned grid instead of re-reading or re-partitioning.
    let mut content = String::from("v,w\n");
    for i in 0..120 {
        content.push_str(&format!("{i},{}\n", i * 2));
    }
    let path = write_temp("chained.csv", &content);
    let session = Session::modin_with(
        ModinConfig::default().with_partition_size(16, 32),
        df_engine::session::EvalMode::Eager,
    );
    let frame = PandasFrame::read_csv_path(
        &session,
        &path,
        &CsvOptions {
            infer_schema: true,
            ..CsvOptions::default()
        },
    )
    .unwrap();
    let engine = session.modin_engine().unwrap();
    let reuses_before = engine.handles_reused();
    let filtered = frame.filter_gt("v", 100).unwrap();
    assert_eq!(filtered.collect().unwrap().n_rows(), 19);
    assert!(
        engine.handles_reused() > reuses_before,
        "derived statement did not resume from the ingest handle"
    );
    std::fs::remove_file(path).ok();
}

/// `n` rows of `id,v` with `v = id * scale`; a different `scale` rewrites the file
/// at a different length, so its state gets a new key.
fn id_rows(n: usize, scale: usize) -> String {
    (0..n).fold(String::from("id,v\n"), |mut content, i| {
        content.push_str(&format!("{i},{}\n", i * scale));
        content
    })
}

#[test]
fn a_superseded_csv_grid_is_freed_while_a_derived_statement_stays_cached() {
    let path = write_temp("superseded.csv", &id_rows(400, 2));
    let session = Session::modin_with(
        ModinConfig::default()
            .with_memory_budget(1 << 30)
            .with_partition_size(32, 8),
        df_engine::session::EvalMode::Eager,
    );
    let typed = CsvOptions {
        infer_schema: true,
        ..CsvOptions::default()
    };
    let stored = || {
        let stats = session.spill_stats().unwrap();
        stats.in_memory + stats.spilled
    };
    let read = PandasFrame::read_csv_path(&session, &path, &typed).unwrap();
    let filtered = read.filter_gt("id", 10).unwrap();
    assert_eq!(filtered.collect().unwrap().n_rows(), 389);
    drop(read);
    std::fs::write(&path, id_rows(400, 20)).unwrap();
    let reread = PandasFrame::read_csv_path(&session, &path, &typed).unwrap();
    assert_eq!(reread.shape().unwrap(), (400, 2));
    // 13 bands of 32 rows each for the new scan and for the filter; the superseded
    // scan's 13 are gone although the filter was derived from them.
    assert_eq!(stored(), 26, "{:?}", session.spill_stats());
    assert_eq!(session.query().cached_results(), 2);
    // The filter is still served from the cache.
    let executions = session.stats().executions;
    assert_eq!(filtered.collect().unwrap().n_rows(), 389);
    assert_eq!(session.stats().executions, executions);
    std::fs::remove_file(path).ok();
}

#[test]
fn a_lazy_session_evicts_a_superseded_scan() {
    let path = write_temp("lazy-superseded.csv", &id_rows(400, 2));
    let session = Session::modin_with(
        ModinConfig::default().with_partition_size(32, 8),
        df_engine::session::EvalMode::Lazy,
    );
    let read = PandasFrame::read_csv_path(&session, &path, &CsvOptions::default()).unwrap();
    assert_eq!(read.collect().unwrap().n_rows(), 400);
    std::fs::write(&path, id_rows(400, 20)).unwrap();
    let reread = PandasFrame::read_csv_path(&session, &path, &CsvOptions::default()).unwrap();
    assert_eq!(reread.collect().unwrap().cell(1, 1).unwrap(), &cell("20"));
    assert_eq!(session.query().cached_results(), 1);
    std::fs::remove_file(path).ok();
}

#[test]
fn a_frame_read_before_its_file_changed_never_serves_the_new_rows() {
    for mode in [
        df_engine::session::EvalMode::Eager,
        df_engine::session::EvalMode::Lazy,
    ] {
        for infer_schema in [true, false] {
            let path = write_temp(
                &format!("stale-{mode:?}-{infer_schema}.csv"),
                &id_rows(400, 2),
            );
            let session =
                Session::modin_with(ModinConfig::default().with_partition_size(32, 8), mode);
            let options = CsvOptions {
                infer_schema,
                ..CsvOptions::default()
            };
            let v12 =
                |frame: &PandasFrame| frame.collect().unwrap().cell(12, 1).unwrap().to_string();
            let old = PandasFrame::read_csv_path(&session, &path, &options).unwrap();
            assert_eq!(v12(&old), "24");
            // Rewritten at the same length and with the same line breaks, so the old
            // state's chunk plan still fits the new bytes; the explicit mtime makes the
            // new state tell apart from the old on file systems with coarse timestamps.
            std::fs::write(&path, id_rows(400, 2).replace('4', "5")).unwrap();
            std::fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30))
                .unwrap();
            let new = PandasFrame::read_csv_path(&session, &path, &options).unwrap();
            assert_eq!(v12(&new), "25");
            // The re-read superseded the old scan's cached result, so a statement over
            // the old frame has to read the file again: it fails typed, and caches
            // nothing, rather than read the new rows under the old file state's key.
            let cached = session.query().cached_results();
            for err in [
                old.filter_gt("id", 10).unwrap().collect().unwrap_err(),
                old.collect().unwrap_err(),
            ] {
                assert!(
                    matches!(&err, df_types::error::DfError::Io(m) if m.contains("changed")),
                    "{mode:?} infer={infer_schema}: {err}"
                );
            }
            assert_eq!(session.query().cached_results(), cached, "{mode:?}");
            assert_eq!(v12(&new), "25");
            std::fs::remove_file(path).ok();
        }
    }
}

#[test]
fn cell_helper_is_linked() {
    // Keep the `cell` import earning its place (used across ignored-on-failure
    // diagnostics); also a cheap smoke of the raw ingest cell state.
    let df = read_csv_str("a\n7\n", &CsvOptions::default()).unwrap();
    assert_eq!(df.cell(0, 0).unwrap(), &cell("7"));
}
