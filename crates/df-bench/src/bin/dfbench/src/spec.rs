//! What the benchmark measures: workload names, the metric tables (mirrored in the
//! root `BENCHMARK.json` — a unit test keeps the two identical) and the frozen input
//! sizes.

/// Workload names are final: later issues cite them.
pub const WORKLOADS: [&str; 6] = [
    "csv_etl",
    "ooc_etl",
    "shuffle_skew",
    "shuffle_procs",
    "wide_frame",
    "service_mix",
];

/// Seed used when none is given. The README names the second seed the numbers were
/// confirmed with.
pub const DEFAULT_SEED: u64 = 42;
/// Seconds one run measures; equals `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// The ten end-to-end metrics, reported by every workload (see the README for what
/// `head_s` / `chain_s` / `shuffle_s` denote on each). Every timing carries the 15 %
/// the issue allows at most, not its 10 %: on the 2-core reference box back-to-back
/// runs drift by up to 5 % over minutes (`ooc_etl` and `shuffle_skew` most), and ten
/// seeds spread by up to 6 %, so 10 % would leave less than a factor of two.
/// `peak_rss_mb` spreads 8–10 % on `ooc_etl` — a per-process offset the benchmark
/// cannot remove — and shares the contract's largest bound with `setup_s`.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("stmt_s", "s", Lower, 0.15),
    e2e("head_s", "s", Lower, 0.15),
    e2e("chain_s", "s", Lower, 0.15),
    e2e("shuffle_s", "s", Lower, 0.15),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("stmts_per_s", "1/s", Higher, 0.15),
    e2e("stmt_p50_ms", "ms", Lower, 0.15),
    e2e("stmt_p95_ms", "ms", Lower, 0.15),
    e2e("ok_share", "share", Higher, 0.01),
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of the traced run, outside-in. Every workload reports every
/// one; a layer that is not on a workload's path reports 0.
pub const PER_LAYER: [PerLayer; 64] = [
    // df-storage::csv
    layer("csv.plan_s", "s", Lower),
    layer("csv.parse_s", "s", Lower),
    layer("csv.parse_mb_per_s", "MB/s", Higher),
    layer("csv.parse_rows", "count", Lower),
    layer("csv.write_s", "s", Lower),
    layer("csv.write_mb_per_s", "MB/s", Higher),
    // df-types (infer, column)
    layer("types.infer_s", "s", Lower),
    layer("types.encode_s", "s", Lower),
    layer("types.encode_mb_per_s", "MB/s", Higher),
    // df-engine::ingest
    layer("ingest.grid_s", "s", Lower),
    layer("ingest.bands", "count", Lower),
    layer("ingest.bytes_parsed", "count", Lower),
    layer("ingest.parallel_speedup", "ratio", Higher),
    // df-engine::optimizer + df-core::scan
    layer("optimizer.plan_s", "s", Lower),
    layer("scan.chunks_skipped", "count", Higher),
    layer("scan.chunks_total", "count", Lower),
    layer("scan.columns_pruned", "count", Higher),
    layer("scan.parsed_bytes_per_file_byte", "ratio", Lower),
    // df-core::ops
    layer("kernel.selection_s", "s", Lower),
    layer("kernel.projection_s", "s", Lower),
    layer("kernel.map_s", "s", Lower),
    layer("kernel.groupby_s", "s", Lower),
    layer("kernel.join_s", "s", Lower),
    layer("kernel.sort_s", "s", Lower),
    layer("kernel.dedup_s", "s", Lower),
    layer("kernel.transpose_s", "s", Lower),
    // df-engine::shuffle
    layer("shuffle.split_s", "s", Lower),
    layer("shuffle.concat_s", "s", Lower),
    layer("shuffle.count", "count", Lower),
    layer("shuffle.max_over_mean_rows", "ratio", Lower),
    layer("shuffle.skew_penalty", "ratio", Lower),
    // df-engine::partition
    layer("partition.split_s", "s", Lower),
    layer("partition.assemble_s", "s", Lower),
    layer("partition.count", "count", Lower),
    // df-storage::spill
    layer("spill.write_s", "s", Lower),
    layer("spill.read_s", "s", Lower),
    layer("spill.write_mb_per_s", "MB/s", Higher),
    layer("spill.read_mb_per_s", "MB/s", Higher),
    layer("spill.outs", "count", Lower),
    layer("spill.load_backs", "count", Lower),
    layer("spill.disk_bytes_per_mem_byte", "ratio", Lower),
    layer("spill.peak_over_budget", "ratio", Lower),
    layer("spill.retries", "count", Lower),
    // df-storage::wire
    layer("wire.encode_s", "s", Lower),
    layer("wire.decode_s", "s", Lower),
    layer("wire.bytes_per_mem_byte", "ratio", Lower),
    // df-engine::backend
    layer("backend.task_rtt_ms", "ms", Lower),
    layer("backend.spawn_s", "s", Lower),
    layer("backend.tasks_remote", "count", Lower),
    layer("backend.tasks_local", "count", Lower),
    layer("backend.restarts", "count", Lower),
    // df-engine::cache + session
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.shared_hits", "count", Higher),
    layer("cache.single_flight_waits", "count", Lower),
    layer("cache.evictions", "count", Lower),
    layer("session.executions", "count", Lower),
    // df-service::admission
    layer("admission.queued_share", "share", Lower),
    layer("admission.max_queue_depth", "count", Lower),
    layer("admission.rejected", "count", Lower),
    layer("admission.timed_out", "count", Lower),
    // df-pandas
    layer("pandas.build_s", "s", Lower),
    layer("pandas.rewrites", "count", Higher),
    // the trace itself
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead", "ratio", Lower),
];

/// Input sizes and loop shape. Calibrated once on the 2-core reference box so the
/// slowest workload still completes ≥ 15 timed iterations in [`DEFAULT_SECONDS`],
/// then frozen: two commits are only comparable at identical sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// `events.csv` rows (`csv_etl`, `ooc_etl`).
    pub etl_rows: usize,
    /// Rows per band / CSV chunk for the ETL workloads.
    pub etl_band_rows: usize,
    /// Fact-table rows (`shuffle_skew`, `shuffle_procs`).
    pub fact_rows: usize,
    /// Distinct join keys; also the dimension table's row count.
    pub fact_keys: usize,
    pub shuffle_band_rows: usize,
    pub wide_rows: usize,
    pub wide_cols: usize,
    pub wide_band_rows: usize,
    /// Rows of each `service_mix` base table.
    pub service_rows: usize,
    pub service_band_rows: usize,
    /// Untimed warm-up iterations (page cache, worker spawn, lazy statics).
    pub warmups: usize,
    /// Timed iterations a run never goes below, whatever `--seconds` says.
    pub min_iters: usize,
    /// `Some(n)`: run exactly `n` timed iterations and ignore `--seconds` (smoke).
    pub fixed_iters: Option<usize>,
    /// Timed repetitions of set-up (after one untimed); `setup_s` is their median.
    pub setup_reps: usize,
    /// Untimed iterations between warm-up and the timed ones that each read the peak
    /// resident set (batch workloads); `peak_rss_mb` is their median.
    pub rss_iters: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        etl_rows: 49_152,
        etl_band_rows: 8_192,
        fact_rows: 60_000,
        fact_keys: 50_000,
        shuffle_band_rows: 8_192,
        wide_rows: 1_000,
        wide_cols: 1_000,
        wide_band_rows: 128,
        service_rows: 20_000,
        service_band_rows: 4_096,
        warmups: 2,
        min_iters: 5,
        fixed_iters: None,
        setup_reps: 7,
        rss_iters: 7,
    };

    /// The same code paths at ~1/50 size and two iterations. Numbers from a smoke
    /// run are not comparable with anything.
    pub const SMOKE: Sizes = Sizes {
        etl_rows: 1_000,
        etl_band_rows: 128,
        fact_rows: 1_200,
        fact_keys: 5_000,
        shuffle_band_rows: 256,
        wide_rows: 40,
        wide_cols: 500,
        wide_band_rows: 8,
        service_rows: 4_096,
        service_band_rows: 2_048,
        warmups: 1,
        min_iters: 2,
        fixed_iters: Some(2),
        setup_reps: 2,
        rss_iters: 1,
    };

    pub fn to_json(self) -> crate::json::Json {
        use crate::json::Json;
        let n = |v: usize| Json::Num(v as f64);
        Json::obj(vec![
            ("etl_rows", n(self.etl_rows)),
            ("etl_band_rows", n(self.etl_band_rows)),
            ("fact_rows", n(self.fact_rows)),
            ("fact_keys", n(self.fact_keys)),
            ("shuffle_band_rows", n(self.shuffle_band_rows)),
            ("wide_rows", n(self.wide_rows)),
            ("wide_cols", n(self.wide_cols)),
            ("wide_band_rows", n(self.wide_band_rows)),
            ("service_rows", n(self.service_rows)),
            ("service_band_rows", n(self.service_band_rows)),
            ("warmups", n(self.warmups)),
            ("min_iters", n(self.min_iters)),
            ("setup_reps", n(self.setup_reps)),
            ("rss_iters", n(self.rss_iters)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` at the repo root must list exactly the workloads and metrics
    /// this binary reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|item| {
                    item.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let e2e = doc.get("end_to_end").expect("end_to_end").items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, spec) in e2e.iter().zip(END_TO_END) {
            assert_eq!(item.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(item.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert_eq!(
                item.get("better").and_then(Json::as_str),
                Some(spec.better.name())
            );
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(spec.bound));
        }
        let layers = doc.get("per_layer").expect("per_layer").items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, spec) in layers.iter().zip(PER_LAYER) {
            assert_eq!(item.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(item.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert_eq!(
                item.get("better").and_then(Json::as_str),
                Some(spec.better.name())
            );
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
