//! Partition-parallel, budget-aware CSV ingest.
//!
//! The paper's flagship end-user win is parallelised dataframe I/O: `read_csv` is the
//! first statement of nearly every workflow, yet a serial reader that materialises
//! the whole frame before partitioning blows a memory-budgeted session on line one
//! and leaves the worker pool idle. This module drives the chunked reader of
//! `df-storage` (see [`df_storage::csv`]) over the engine's [`ParallelExecutor`]:
//!
//! 1. **Plan** — one streaming, quote-aware pass cuts the file's byte range into
//!    band-sized chunks at record boundaries, counting rows per chunk
//!    ([`df_storage::csv::plan_csv_chunks`]). No cells are allocated.
//! 2. **Parse** — one zero-input stage item per chunk
//!    ([`ParallelExecutor::run_stage`]): each worker seeks to its chunk, parses it into
//!    a raw (`Σ*`) band, and the executor checks the band straight into the session's
//!    [`SpillStore`](df_storage::spill::SpillStore) (when a memory budget is set) as a
//!    typed column block. Peak residency therefore stays within *budget + one band per
//!    worker thread* — the same bound every other operator obeys — no matter how much
//!    larger than memory the file is.
//! 3. **Reconcile** — for `infer_schema` ingests, each worker also returns its band's
//!    composable induction summaries; the summaries are joined across bands and a
//!    second banded pass re-casts every band with the reconciled per-column domains,
//!    so the result is cell-for-cell identical to the serial reader.
//!
//! The produced [`PartitionGrid`] goes straight behind a `FrameHandle` — the file is
//! never resident as one `DataFrame` at any point of the ingest.
//!
//! A `SCAN_CSV` leaf takes a shorter road. Its first contact with a file is the plan
//! pass plus **one** statistics pass ([`collect_scan_stats`]: every chunk folded
//! straight into column statistics and induction summaries, no band built), cached
//! per file; every evaluation after that ([`scan_csv_grid`]) parses only the chunks
//! its pushed predicate and limit leave, only the columns its pushed projection
//! keeps, each field straight into its file-wide reconciled domain.

use std::path::Path;

use df_core::algebra::ColumnSelector;
use df_core::ops;
use df_core::{ChunkStats, ScanCsv, ScanStats};
use df_storage::csv::{self, CsvChunk, CsvIngestPlan, CsvOptions};
use df_types::cell::Cell;
use df_types::error::DfResult;
use df_types::InductionSummary;

use crate::backend::BandTask;
use crate::executor::{outputs, CheckIn, ParallelExecutor};
use crate::partition::{hstack_all, Partition, PartitionConfig, PartitionGrid};

/// Cumulative ingest counters, surfaced by `ModinEngine::ingest_stats` next to the
/// spill and dispatch statistics (and asserted by the ingest equivalence suite).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Files ingested through the parallel path.
    pub files_ingested: u64,
    /// Bands parsed by worker tasks (one per planned chunk).
    pub bands_parsed: u64,
    /// Total bytes scanned by ingest plans.
    pub ingest_bytes: u64,
}

/// What one ingest run did — merged into the engine's [`IngestStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IngestReport {
    /// Bands parsed (0 for an empty file, which produces a single empty band).
    pub bands: u64,
    /// Bytes scanned (the file length).
    pub bytes: u64,
    /// Data rows ingested.
    pub rows: u64,
}

/// Ingest a CSV file into a row-banded [`PartitionGrid`], parsing chunks on the
/// executor's worker pool and storing each finished band through the executor's store
/// (when the session runs under a memory budget). The grid is cell-for-cell identical
/// to serially reading the file and partitioning the result — without the full frame
/// ever existing in memory.
pub(crate) fn ingest_csv_grid(
    executor: &ParallelExecutor,
    partitioning: PartitionConfig,
    path: &Path,
    options: &CsvOptions,
) -> DfResult<(PartitionGrid, IngestReport)> {
    let plan = csv::plan_csv_chunks(path, options, partitioning.target_rows)?;
    let report = IngestReport {
        bands: plan.chunks.len() as u64,
        bytes: plan.total_bytes,
        rows: plan.total_rows as u64,
    };
    if plan.chunks.is_empty() {
        // No data records: a single (possibly zero-column) empty band carrying the
        // plan's column labels, exactly what the serial reader returns.
        let mut empty = plan.empty_frame()?;
        if options.infer_schema {
            empty.parse_all();
        }
        return Ok((PartitionGrid::single_in(empty, executor.store())?, report));
    }
    // Parse phase: one zero-input item per chunk, each worker seeking to its own byte
    // range. The parse itself is a self-contained [`BandTask::CsvChunk`] placed on the
    // executor's backend (worker processes parse from their own file descriptors on
    // the procs backend); the failpoint (`ingest.read`) and the retry policy stay
    // driver-side, so a transient fault costs a backoff, not the statement. Bands
    // check in columnar — encoded once, here — and each band's induction summaries
    // ride back beside it, so reconciliation never re-loads a band.
    let retry = df_types::RetryPolicy::default();
    let parsed = executor.run_stage(
        "ingest.parse",
        CheckIn::Columnar,
        no_inputs(plan.chunks.len()),
        |i, _| {
            let task = BandTask::CsvChunk {
                path: path.to_string_lossy().into_owned(),
                options: options.clone(),
                header: plan.header.clone(),
                n_cols: plan.n_cols,
                total_rows: plan.total_rows,
                total_bytes: plan.total_bytes,
                chunk: plan.chunks[i],
            };
            let place = executor.placed(&task);
            let (band, ()) = retry.run(|_| {
                df_types::fail::check("ingest.read")?;
                place(i, Vec::new())
            })?;
            let summaries = options.infer_schema.then(|| {
                band.iter()
                    .flat_map(csv::band_induction_summaries)
                    .collect()
            });
            Ok((band, summaries))
        },
    )?;
    let (bands, summaries): (Vec<Vec<Partition>>, Vec<Option<Vec<InductionSummary>>>) =
        parsed.into_iter().unzip();
    if options.infer_schema {
        // Reconcile phase: join the per-band induction summaries in band order and
        // re-cast every band (load → cast → store) with the final domains — the
        // re-cast is a [`BandTask::ApplyDomains`] placed on the backend.
        let band_summaries: Vec<Vec<InductionSummary>> = summaries.into_iter().flatten().collect();
        let task = BandTask::ApplyDomains(csv::reconcile_domains(&band_summaries));
        let recast = executor.run_stage(
            "ingest.reconcile",
            CheckIn::Frame,
            bands,
            executor.placed(&task),
        )?;
        return Ok((PartitionGrid::from_band_partitions(outputs(recast)), report));
    }
    let bands = bands.into_iter().flatten().collect();
    Ok((PartitionGrid::from_band_partitions(bands), report))
}

/// `MAP ParseRaw` over a grid, in ingest's two reconcile stages, so that no band
/// induces a domain from its own rows alone. Stage one folds each band's columns into
/// their schema slots and [`InductionSummary`] by-products; the driver merges them in
/// band order into the domain `Column::parse_in_place` resolves for the whole column
/// (the slot every band knows alike, else the merged induction); stage two re-casts
/// every band with those domains as a [`BandTask::ApplyDomains`] on the backend.
pub(crate) fn parse_raw(
    executor: &ParallelExecutor,
    grid: PartitionGrid,
) -> DfResult<PartitionGrid> {
    let folded = executor.run_stage(
        "kernel.parse_raw",
        CheckIn::Frame,
        grid.clone().into_blocks(),
        |_, blocks| {
            let band = hstack_all(blocks)?;
            let columns = band.columns().iter();
            let summaries: Vec<_> = columns
                .map(|c| InductionSummary::of_cells(c.cells()))
                .collect();
            Ok((Vec::new(), (band.schema(), summaries)))
        },
    )?;
    let mut states = folded.into_iter().map(|(_, state)| state);
    let Some((mut known, mut summaries)) = states.next() else {
        return Ok(grid);
    };
    for (schema, band) in states {
        for (slot, domain) in known.iter_mut().zip(schema) {
            if *slot != domain {
                *slot = None;
            }
        }
        for (summary, later) in summaries.iter_mut().zip(&band) {
            summary.merge(later);
        }
    }
    let domains = known.into_iter().zip(&summaries);
    let task = BandTask::ApplyDomains(
        domains
            .map(|(k, s)| k.unwrap_or_else(|| s.finish()))
            .collect(),
    );
    let place = executor.placed(&task);
    let recast = executor.run_stage(
        "kernel.parse_raw",
        CheckIn::Frame,
        grid.into_blocks(),
        |i, blocks| place(i, vec![hstack_all(blocks)?]),
    )?;
    Ok(PartitionGrid::from_band_partitions(outputs(recast)))
}

/// `n` stage items that read no partition: a CSV chunk's worker reads its byte range
/// from the file itself.
fn no_inputs(n: usize) -> Vec<Vec<Partition>> {
    (0..n).map(|_| Vec::new()).collect()
}

/// What one pushdown-aware scan did — merged into the engine's ingest and pushdown
/// counters, and asserted by the pushdown equivalence suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScanReport {
    /// Bands parsed: surviving chunks, and of those only the ones a pushed limit reached.
    pub bands: u64,
    /// Bytes actually read by the parse phase (unparsed chunks read nothing).
    pub bytes: u64,
    /// Data rows emitted after the pushed predicate and limit.
    pub rows: u64,
    /// Chunks proven row-free by their min/max statistics and never parsed. Chunks a
    /// pushed limit never reached are not counted here — they were not proven
    /// anything, just not needed.
    pub chunks_skipped: u64,
    /// File columns the parse loop never materialised (outside the pushed
    /// projection and the pushed predicate's reads).
    pub columns_pruned: u64,
}

/// Floor for the budget-tuned chunk size: below this, per-chunk overhead dominates.
const MIN_SCAN_BAND_ROWS: usize = 16;

/// Budget-aware band sizing (the scan's auto-tune): keep roughly one raw band per
/// worker — with 2× headroom for the parsed form — inside the session budget, so the
/// parse fan-out itself respects the budget even before any band reaches the store.
/// Returns `Some(rows)` only when the tuning *shrinks* the configured band size;
/// growing it would trade away parallelism for nothing.
fn tuned_band_rows(
    plan: &CsvIngestPlan,
    memory_budget: Option<usize>,
    threads: usize,
    configured: usize,
) -> Option<usize> {
    let budget = memory_budget?;
    if plan.total_rows == 0 || plan.total_bytes == 0 {
        return None;
    }
    let bytes_per_row = (plan.total_bytes as f64 / plan.total_rows as f64).max(1.0);
    let per_band_bytes = (budget as f64 / (2.0 * threads.max(1) as f64)).max(1.0);
    let tuned = ((per_band_bytes / bytes_per_row) as usize).max(MIN_SCAN_BAND_ROWS);
    (tuned < configured).then_some(tuned)
}

/// Collect per-chunk column statistics (and, for inferring scans, the reconciled
/// per-column domains) for a CSV file: plan the chunks — re-planning with a smaller
/// band when the memory budget and worker count call for it — then fold each chunk
/// on the worker pool straight into [`df_core::ColumnChunkStats`] and induction
/// summaries ([`csv::csv_chunk_stats`]; no band is ever built). Nothing is retained
/// beyond the statistics; the engine caches the result per scan identity so later
/// statements pay nothing.
pub(crate) fn collect_scan_stats(
    executor: &ParallelExecutor,
    partitioning: PartitionConfig,
    memory_budget: Option<usize>,
    path: &Path,
    options: &CsvOptions,
) -> DfResult<ScanStats> {
    let mut plan = csv::plan_csv_chunks(path, options, partitioning.target_rows)?;
    if let Some(tuned) = tuned_band_rows(
        &plan,
        memory_budget,
        executor.threads(),
        partitioning.target_rows,
    ) {
        plan = csv::plan_csv_chunks(path, options, tuned)?;
    }
    // One zero-input, zero-output item per chunk: the statistics are the by-product.
    let per_chunk = executor.run_stage(
        "ingest.stats",
        CheckIn::Frame,
        no_inputs(plan.chunks.len()),
        |i, _| {
            let stats = csv::csv_chunk_stats(path, options, &plan, &plan.chunks[i])?;
            Ok((Vec::new(), stats))
        },
    )?;
    let mut chunks = Vec::with_capacity(per_chunk.len());
    let mut band_summaries: Vec<Vec<InductionSummary>> = Vec::new();
    for (chunk, (_, (columns, summaries))) in plan.chunks.iter().zip(per_chunk) {
        chunks.push(ChunkStats {
            start_byte: chunk.start_byte,
            end_byte: chunk.end_byte,
            start_row: chunk.start_row,
            rows: chunk.rows,
            columns,
        });
        band_summaries.extend(summaries);
    }
    let domains = (options.infer_schema && !band_summaries.is_empty())
        .then(|| csv::reconcile_domains(&band_summaries));
    Ok(ScanStats {
        labels: plan.col_labels().as_slice().to_vec(),
        n_cols: plan.n_cols,
        total_rows: plan.total_rows,
        total_bytes: plan.total_bytes,
        domains,
        chunks,
    })
}

/// The planned chunk a chunk's statistics describe.
fn planned_chunk(stats: &ChunkStats) -> CsvChunk {
    CsvChunk {
        start_byte: stats.start_byte,
        end_byte: stats.end_byte,
        rows: stats.rows,
        start_row: stats.start_row,
    }
}

/// Rebuild the chunk plan a statistics pass ran under, so the parse phase seeks the
/// exact byte ranges the statistics describe without re-planning the file.
fn rebuild_plan(stats: &ScanStats, options: &CsvOptions) -> CsvIngestPlan {
    CsvIngestPlan {
        header: options
            .has_header
            .then(|| stats.labels.iter().map(Cell::to_raw_string).collect()),
        n_cols: stats.n_cols,
        total_rows: stats.total_rows,
        total_bytes: stats.total_bytes,
        chunks: stats.chunks.iter().map(planned_chunk).collect(),
    }
}

/// Evaluate a [`ScanCsv`] leaf into a row-banded [`PartitionGrid`], applying the
/// pushdowns the optimizer folded into it:
///
/// * **chunk skipping** — chunks whose per-column min/max statistics prove no row
///   can match the pushed predicate are never read
///   ([`df_core::ScanStats::surviving_chunks`]);
/// * **column pruning and typed parsing** — each worker materialises only the
///   projected columns plus whatever extra columns the pushed predicate reads, every
///   field parsed straight into its file-wide reconciled domain
///   ([`csv::read_csv_chunk_with`]) — so pruning chunks can never change a dtype;
/// * **residual filtering** — the predicate runs over each parsed band *before* it
///   checks into the store, so filtered-out rows never occupy budget;
/// * **limit** — with a pushed `LIMIT k` only as many surviving chunks are parsed as
///   `k` rows take, from the end the limit reads from: decided by the plan's row
///   counts when there is no predicate, in waves of one chunk per worker until `k`
///   rows have passed when there is one.
///
/// The grid is cell-for-cell identical to evaluating SELECTION, PROJECTION and LIMIT
/// above an unpushed scan of the whole file.
pub(crate) fn scan_csv_grid(
    executor: &ParallelExecutor,
    scan: &ScanCsv,
    options: &CsvOptions,
    stats: &ScanStats,
) -> DfResult<(PartitionGrid, ScanReport)> {
    let plan = rebuild_plan(stats, options);
    // Columns the parse loop must materialise, in file order: the pushed
    // projection's labels plus any extra columns the pushed predicate reads. The
    // output projection (which also fixes order and duplicates) is applied per band
    // after filtering.
    let pred_cols: Vec<Cell> = scan
        .predicate
        .as_ref()
        .and_then(|p| p.referenced_columns())
        .unwrap_or_default();
    let keep: Option<Vec<usize>> = scan.projection.as_ref().map(|proj| {
        stats
            .labels
            .iter()
            .enumerate()
            .filter(|(_, label)| proj.contains(label) || pred_cols.contains(label))
            .map(|(j, _)| j)
            .collect()
    });
    let columns_pruned = keep
        .as_ref()
        .map(|k| (stats.n_cols - k.len()) as u64)
        .unwrap_or(0);
    // The file-wide reconciled domains of the columns actually parsed.
    let parse_domains: Option<Vec<df_types::domain::Domain>> = match (&stats.domains, &keep) {
        (Some(domains), Some(keep)) => Some(keep.iter().map(|&j| domains[j]).collect()),
        (Some(domains), None) => Some(domains.clone()),
        (None, _) => None,
    };
    let projection = scan.projection.clone().map(ColumnSelector::ByLabels);
    // Survivors in the order the limit reads them: file order, or last chunk first.
    let mut survivors: Vec<CsvChunk> = stats
        .surviving_chunks(scan.predicate.as_ref())
        .into_iter()
        .map(planned_chunk)
        .collect();
    let (limit, from_end) = scan.limit.unwrap_or((usize::MAX, false));
    if from_end {
        survivors.reverse();
    }
    let mut report = ScanReport {
        bands: 0,
        bytes: 0,
        rows: 0,
        chunks_skipped: (stats.chunks.len() - survivors.len()) as u64,
        columns_pruned,
    };
    let retry = df_types::RetryPolicy::default();
    let mut parts: Vec<Partition> = Vec::new();
    let mut found = 0usize;
    let mut pending = survivors.as_slice();
    while found < limit && !pending.is_empty() {
        let wave = match &scan.predicate {
            // Without a predicate the plan's row counts are what the chunks yield, so
            // the first wave is exactly the chunks the limit's rows span.
            None => stats.chunks_to_parse(None, scan.limit).0,
            Some(_) => executor.threads(),
        }
        .clamp(1, pending.len());
        let (now, later) = pending.split_at(wave);
        pending = later;
        report.bands += now.len() as u64;
        report.bytes += now.iter().map(|c| c.end_byte - c.start_byte).sum::<u64>();
        // One zero-input item per chunk of the wave; bands check in columnar, the
        // same form as the plain ingest path.
        let parsed = executor.run_stage(
            "ingest.parse",
            CheckIn::Columnar,
            no_inputs(now.len()),
            |i, _| {
                let band = retry.run(|_| {
                    df_types::fail::check("ingest.read")?;
                    csv::read_csv_chunk_with(
                        &scan.path,
                        options,
                        &plan,
                        &now[i],
                        keep.as_deref(),
                        parse_domains.as_deref(),
                    )
                })?;
                let band = match &scan.predicate {
                    Some(pred) => ops::rowwise::selection(&band, pred)?,
                    None => band,
                };
                let band = match &projection {
                    Some(proj) => ops::rowwise::projection(&band, proj)?,
                    None => band,
                };
                Ok((vec![band], ()))
            },
        )?;
        for part in outputs(parsed) {
            found += part.n_rows();
            parts.push(part);
        }
    }
    let grid = if parts.is_empty() {
        // No chunk can match, the limit is zero, or the file holds no data records:
        // one empty band with the scan's output schema, exactly what the unpushed
        // plan returns.
        let mut empty = plan.empty_frame()?;
        if options.infer_schema {
            match &stats.domains {
                Some(domains) => empty = csv::apply_domains(empty, domains)?,
                None => {
                    empty.parse_all();
                }
            }
        }
        let empty = match &scan.predicate {
            Some(pred) => ops::rowwise::selection(&empty, pred)?,
            None => empty,
        };
        let empty = match &projection {
            Some(proj) => ops::rowwise::projection(&empty, proj)?,
            None => empty,
        };
        PartitionGrid::single_in(empty, executor.store())?
    } else {
        if from_end {
            parts.reverse();
        }
        PartitionGrid::from_band_partitions(parts)
    };
    let grid = match scan.limit {
        Some((k, from_end)) => grid.limit_in(k, from_end, executor.store())?,
        None => grid.with_scan_schema(scan_output_schema(stats, scan), scan.predicate.is_none()),
    };
    report.rows = found.min(limit) as u64;
    Ok((grid, report))
}

/// The scan's output schema — projected labels (or all file labels) paired with
/// their reconciled domains — carried onto the grid so `schema()` answers even when
/// a deferred transpose later hides the per-handle metadata.
fn scan_output_schema(stats: &ScanStats, scan: &ScanCsv) -> df_core::handle::FrameSchema {
    let domain_of = |label: &Cell| -> Option<df_types::domain::Domain> {
        let j = stats.col_position(label)?;
        stats.domains.as_ref().map(|d| d[j])
    };
    match &scan.projection {
        Some(proj) => proj
            .iter()
            .map(|label| (label.clone(), domain_of(label)))
            .collect(),
        None => stats
            .labels
            .iter()
            .map(|label| (label.clone(), domain_of(label)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_storage::csv::read_csv_str;
    use df_storage::spill::SpillStore;
    use df_types::cell::cell;
    use df_types::domain::Domain;
    use std::sync::Arc;

    fn temp_csv(name: &str, content: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("df_engine_ingest_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    fn config(rows: usize) -> PartitionConfig {
        PartitionConfig {
            target_rows: rows,
            target_cols: 32,
        }
    }

    #[test]
    fn parallel_ingest_matches_serial_reader() {
        let mut content = String::from("id,name,score\n");
        for i in 0..53 {
            content.push_str(&format!("{i},row-{i},{}.5\n", i % 7));
        }
        let path = temp_csv("basic.csv", &content);
        for options in [
            CsvOptions::default(),
            CsvOptions {
                infer_schema: true,
                ..CsvOptions::default()
            },
        ] {
            let serial = read_csv_str(&content, &options).unwrap();
            for threads in [1usize, 4] {
                let executor = ParallelExecutor::new(threads);
                let (grid, report) =
                    ingest_csv_grid(&executor, config(10), &path, &options).unwrap();
                assert_eq!(report.rows, 53);
                assert_eq!(report.bands, 6);
                assert!(grid.n_row_bands() > 1, "ingest lost its partitioning");
                let assembled = grid.into_dataframe().unwrap();
                assert!(
                    assembled.same_data(&serial),
                    "threads={threads} infer={} diverged",
                    options.infer_schema
                );
                assert_eq!(assembled.schema(), serial.schema());
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn budgeted_ingest_spills_and_stays_identical() {
        let mut content = String::from("k,v\n");
        for i in 0..400 {
            content.push_str(&format!("{},payload-{i}-{}\n", i % 5, "x".repeat(20)));
        }
        let path = temp_csv("budgeted.csv", &content);
        let options = CsvOptions::default();
        let serial = read_csv_str(&content, &options).unwrap();
        let budget = serial.approx_size_bytes() / 4;
        let store = Arc::new(SpillStore::new(budget).unwrap());
        let executor = ParallelExecutor::new(4).with_store(Some(Arc::clone(&store)));
        let (grid, _) = ingest_csv_grid(&executor, config(32), &path, &options).unwrap();
        let stats = store.stats();
        assert!(stats.spill_outs > 0, "ws/4 budget never spilled: {stats:?}");
        assert!(
            stats.peak_memory_bytes <= budget + 4 * stats.max_insert_bytes,
            "peak blew the budget bound: {stats:?}"
        );
        assert!(grid.into_dataframe().unwrap().same_data(&serial));
        // Consumed handles drained their store entries.
        let drained = store.stats();
        assert_eq!(drained.in_memory + drained.spilled, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_and_header_only_files_ingest_like_serial() {
        let executor = ParallelExecutor::new(2);
        for (name, content) in [("empty.csv", ""), ("header.csv", "a,b\n")] {
            let path = temp_csv(name, content);
            for options in [
                CsvOptions::default(),
                CsvOptions {
                    infer_schema: true,
                    ..CsvOptions::default()
                },
            ] {
                let serial = read_csv_str(content, &options).unwrap();
                let (grid, report) =
                    ingest_csv_grid(&executor, config(8), &path, &options).unwrap();
                assert_eq!(report.bands, 0);
                let assembled = grid.into_dataframe().unwrap();
                assert!(assembled.same_data(&serial), "{name} diverged");
                assert_eq!(assembled.schema(), serial.schema(), "{name} schema");
            }
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn schema_reconciliation_recasts_minority_bands() {
        // Band 0 (rows 0–1) looks Int; band 1 introduces a float; band 2 is Int
        // again. The reconciled column must be Float everywhere.
        let content = "v\n1\n2\n2.5\n3\n4\n5\n";
        let path = temp_csv("minority.csv", content);
        let options = CsvOptions {
            infer_schema: true,
            ..CsvOptions::default()
        };
        let executor = ParallelExecutor::new(2);
        let (grid, _) = ingest_csv_grid(&executor, config(2), &path, &options).unwrap();
        let assembled = grid.into_dataframe().unwrap();
        assert_eq!(assembled.schema(), vec![Some(Domain::Float)]);
        assert_eq!(assembled.cell(0, 0).unwrap(), &cell(1.0));
        assert_eq!(assembled.cell(2, 0).unwrap(), &cell(2.5));
        let serial = read_csv_str(content, &options).unwrap();
        assert!(assembled.same_data(&serial));
        std::fs::remove_file(path).ok();
    }

    use df_core::algebra::{CmpOp, Predicate};
    use df_core::ScanOptions;

    /// 60 rows of 4 columns with `id` sorted 0..60, so a range predicate on `id`
    /// is satisfiable in only a prefix of the chunk sequence.
    fn clustered_csv(name: &str) -> (std::path::PathBuf, String) {
        let mut content = String::from("id,name,score,tag\n");
        for i in 0..60 {
            content.push_str(&format!("{i},row-{i},{}.5,t{}\n", i % 7, i % 3));
        }
        let path = temp_csv(name, &content);
        (path, content)
    }

    fn id_lt(value: i64) -> Predicate {
        Predicate::ColCmp {
            column: cell("id"),
            op: CmpOp::Lt,
            value: cell(value),
        }
    }

    fn scan_options(infer: bool) -> (ScanOptions, CsvOptions) {
        let scan = ScanOptions {
            infer_schema: infer,
            ..ScanOptions::default()
        };
        let csv = CsvOptions {
            infer_schema: infer,
            ..CsvOptions::default()
        };
        (scan, csv)
    }

    #[test]
    fn scan_stats_cover_every_chunk_and_reconcile_domains() {
        let (path, _content) = clustered_csv("stats.csv");
        let (_, csv_opts) = scan_options(true);
        let executor = ParallelExecutor::new(2);
        let stats = collect_scan_stats(&executor, config(10), None, &path, &csv_opts).unwrap();
        assert_eq!(stats.total_rows, 60);
        assert_eq!(stats.n_cols, 4);
        assert_eq!(stats.chunks.len(), 6);
        assert_eq!(stats.chunks.iter().map(|c| c.rows).sum::<usize>(), 60);
        let domains = stats.domains.as_ref().expect("inferring scan has domains");
        assert_eq!(domains[0], Domain::Int);
        assert_eq!(domains[2], Domain::Float);
        // Chunk 0 holds ids 0..10: its min/max must say so.
        let first = &stats.chunks[0].columns[0];
        assert_eq!(first.numeric, Some((0.0, 9.0)));
        assert_eq!(first.nulls, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_grid_pushdown_matches_unpushed_and_skips_chunks() {
        let (path, content) = clustered_csv("pushdown.csv");
        for infer in [false, true] {
            let (scan_opts, csv_opts) = scan_options(infer);
            let serial = read_csv_str(&content, &csv_opts).unwrap();
            let filtered = ops::rowwise::selection(&serial, &id_lt(7)).unwrap();
            let expected = ops::rowwise::projection(
                &filtered,
                &ColumnSelector::ByLabels(vec![cell("score"), cell("id")]),
            )
            .unwrap();
            for threads in [1usize, 4] {
                let executor = ParallelExecutor::new(threads);
                let stats = Arc::new(
                    collect_scan_stats(&executor, config(10), None, &path, &csv_opts).unwrap(),
                );
                let scan = ScanCsv::new(&path, scan_opts, "pushdown-test")
                    .with_projection(vec![cell("score"), cell("id")])
                    .with_predicate(id_lt(7));
                let (grid, report) = scan_csv_grid(&executor, &scan, &csv_opts, &stats).unwrap();
                if infer {
                    // Only chunk 0 (ids 0..10) can match id < 7; 5 of 6 chunks skip.
                    assert_eq!(report.chunks_skipped, 5, "threads={threads}");
                } else {
                    // Without inferred domains the raw cells stay strings, so
                    // numeric interval pruning must stand down to stay sound.
                    assert_eq!(report.chunks_skipped, 0, "threads={threads}");
                }
                // name and tag are outside the projection and the predicate.
                assert_eq!(report.columns_pruned, 2);
                assert_eq!(report.rows, expected.shape().0 as u64);
                let assembled = grid.into_dataframe().unwrap();
                assert!(
                    assembled.same_data(&expected),
                    "infer={infer} threads={threads} diverged"
                );
                assert_eq!(assembled.schema(), expected.schema());
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_grid_without_pushdowns_matches_plain_ingest() {
        let (path, content) = clustered_csv("plain_scan.csv");
        let (scan_opts, csv_opts) = scan_options(true);
        let serial = read_csv_str(&content, &csv_opts).unwrap();
        let executor = ParallelExecutor::new(4);
        let stats =
            Arc::new(collect_scan_stats(&executor, config(10), None, &path, &csv_opts).unwrap());
        let scan = ScanCsv::new(&path, scan_opts, "plain-scan-test");
        let (grid, report) = scan_csv_grid(&executor, &scan, &csv_opts, &stats).unwrap();
        assert_eq!(report.chunks_skipped, 0);
        assert_eq!(report.columns_pruned, 0);
        assert_eq!(report.rows, 60);
        assert!(grid.n_row_bands() > 1, "scan lost its partitioning");
        let assembled = grid.into_dataframe().unwrap();
        assert!(assembled.same_data(&serial));
        assert_eq!(assembled.schema(), serial.schema());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_grid_with_no_surviving_chunks_keeps_schema() {
        let (path, content) = clustered_csv("all_skipped.csv");
        let (scan_opts, csv_opts) = scan_options(true);
        let serial = read_csv_str(&content, &csv_opts).unwrap();
        let expected = ops::rowwise::selection(&serial, &id_lt(-1)).unwrap();
        let executor = ParallelExecutor::new(2);
        let stats =
            Arc::new(collect_scan_stats(&executor, config(10), None, &path, &csv_opts).unwrap());
        let scan = ScanCsv::new(&path, scan_opts, "all-skipped-test").with_predicate(id_lt(-1));
        let (grid, report) = scan_csv_grid(&executor, &scan, &csv_opts, &stats).unwrap();
        assert_eq!(report.chunks_skipped, 6);
        assert_eq!(report.rows, 0);
        let assembled = grid.into_dataframe().unwrap();
        assert!(assembled.same_data(&expected));
        assert_eq!(assembled.schema(), expected.schema());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_grid_budget_tuning_shrinks_bands() {
        let (path, content) = clustered_csv("tuned.csv");
        let (_, csv_opts) = scan_options(false);
        let executor = ParallelExecutor::new(2);
        let untuned = collect_scan_stats(&executor, config(1_000), None, &path, &csv_opts).unwrap();
        assert_eq!(untuned.chunks.len(), 1);
        // A budget of roughly a quarter of the file forces smaller bands.
        let budget = content.len() / 4;
        let tuned =
            collect_scan_stats(&executor, config(1_000), Some(budget), &path, &csv_opts).unwrap();
        assert!(
            tuned.chunks.len() > 1,
            "budget {budget} did not shrink bands: {} chunk(s)",
            tuned.chunks.len()
        );
        assert_eq!(tuned.chunks.iter().map(|c| c.rows).sum::<usize>(), 60);
        std::fs::remove_file(path).ok();
    }
}
