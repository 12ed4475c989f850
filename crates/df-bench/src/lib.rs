//! # df-bench
//!
//! Shared harness code for the benchmark targets that regenerate every table and
//! figure of the paper's evaluation (see `DESIGN.md` for the per-experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results). The bench targets in `benches/`
//! print the same rows/series the paper reports; this library holds the common
//! machinery: timing, result records, table rendering, and the Figure 2 workload
//! runner used by both the bench target and the integration tests.

use std::time::{Duration, Instant};

use df_types::cell::cell;
use df_types::error::DfError;

use df_core::algebra::{Aggregation, AlgebraExpr, MapFunc};
use df_core::dataframe::DataFrame;
use df_core::engine::Engine;

use df_baseline::{BaselineConfig, BaselineEngine};
use df_engine::engine::{ModinConfig, ModinEngine};
use df_workloads::{generate_raw, TaxiConfig};

/// One measured point of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Experiment identifier (e.g. `fig2-map`).
    pub experiment: String,
    /// System under test (e.g. `modin-engine`, `pandas-baseline`).
    pub system: String,
    /// Scale or parameter of the point (e.g. replication factor).
    pub parameter: String,
    /// Wall-clock seconds, or `None` when the system did not finish (DNF).
    pub seconds: Option<f64>,
    /// Free-form note (rows processed, failure reason, …).
    pub note: String,
}

impl BenchRecord {
    /// Render the time column the way the tables print it.
    pub(crate) fn time_display(&self) -> String {
        match self.seconds {
            Some(s) => format!("{s:.4}"),
            None => "DNF".to_string(),
        }
    }
}

/// Environment variable naming the JSON file bench targets append their records to.
pub(crate) const JSON_ENV_VAR: &str = "DF_BENCH_JSON";

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialise records as a JSON array, one object per line.
pub(crate) fn records_to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let seconds = match r.seconds {
            Some(s) => format!("{s}"),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "  {{\"experiment\":\"{}\",\"system\":\"{}\",\"parameter\":\"{}\",\"seconds\":{},\"note\":\"{}\"}}{}\n",
            json_escape(&r.experiment),
            json_escape(&r.system),
            json_escape(&r.parameter),
            seconds,
            json_escape(&r.note),
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

/// Parse a JSON array of [`BenchRecord`] objects (the subset of JSON that
/// `records_to_json` emits — flat objects with string / number / null fields).
pub fn parse_records_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut parser = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    parser.expect(b'[')?;
    let mut records = Vec::new();
    parser.skip_ws();
    if parser.peek() == Some(b']') {
        return Ok(records);
    }
    loop {
        records.push(parser.parse_record()?);
        parser.skip_ws();
        match parser.next() {
            Some(b',') => parser.skip_ws(),
            Some(b']') => break,
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
    Ok(records)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| b == b' ' || b == b'\n' || b == b'\r' || b == b'\t')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == byte => Ok(()),
            other => Err(format!("expected {:?}, found {other:?}", byte as char)),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let digit = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + digit;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) => {
                    // Multi-byte UTF-8: copy the raw bytes of the code point.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    self.pos = start + len;
                    let slice = self
                        .bytes
                        .get(start..self.pos)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(slice).map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn parse_number_or_null(&mut self) -> Result<Option<f64>, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(None);
        }
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Some).map_err(|e| e.to_string())
    }

    fn parse_record(&mut self) -> Result<BenchRecord, String> {
        self.skip_ws();
        self.expect(b'{')?;
        let mut record = BenchRecord {
            experiment: String::new(),
            system: String::new(),
            parameter: String::new(),
            seconds: None,
            note: String::new(),
        };
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match key.as_str() {
                "experiment" => record.experiment = self.parse_string()?,
                "system" => record.system = self.parse_string()?,
                "parameter" => record.parameter = self.parse_string()?,
                "note" => record.note = self.parse_string()?,
                "seconds" => record.seconds = self.parse_number_or_null()?,
                other => return Err(format!("unknown field {other:?}")),
            }
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b'}') => return Ok(record),
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

/// Append records to the JSON file at `path`, merging with any records already in it
/// (several bench targets write to one snapshot file). Parse/IO problems are reported
/// on stderr rather than failing the bench run.
pub(crate) fn emit_json_to(path: &str, records: &[BenchRecord]) {
    let mut all = match std::fs::read_to_string(path) {
        Ok(existing) => match parse_records_json(&existing) {
            Ok(records) => records,
            Err(err) => {
                eprintln!("{JSON_ENV_VAR}: ignoring unparseable {path}: {err}");
                Vec::new()
            }
        },
        Err(_) => Vec::new(),
    };
    all.extend(records.iter().cloned());
    if let Err(err) = std::fs::write(path, records_to_json(&all)) {
        eprintln!("{JSON_ENV_VAR}: cannot write {path}: {err}");
    }
}

/// `emit_json_to` the file named by `DF_BENCH_JSON`; a no-op when the variable is
/// unset or empty.
pub fn emit_json_env(records: &[BenchRecord]) {
    let Ok(path) = std::env::var(JSON_ENV_VAR) else {
        return;
    };
    if path.is_empty() {
        return;
    }
    emit_json_to(&path, records);
}

/// Render records as an aligned text table, grouped in input order.
pub fn render_table(title: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<18} {:<18} {:<12} {:>10}  {}\n",
        "experiment", "system", "parameter", "time_s", "note"
    ));
    for record in records {
        out.push_str(&format!(
            "{:<18} {:<18} {:<12} {:>10}  {}\n",
            record.experiment,
            record.system,
            record.parameter,
            record.time_display(),
            record.note
        ));
    }
    out
}

/// Time a closure once, returning its result and the elapsed wall-clock time.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Read an integer override from the environment (lets CI shrink the workloads).
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// True when the bench target was invoked in Criterion-style test mode
/// (`cargo bench -- --test`): compile-and-run-check the target, don't measure.
pub(crate) fn smoke_test_mode() -> bool {
    std::env::args().any(|arg| arg == "--test")
}

/// Pick `full` for a real measurement run and `smoke` under `cargo bench -- --test`,
/// so CI run-checks every bench target in seconds. Env overrides still win because
/// the result feeds [`env_usize`]'s default.
pub fn smoke_scaled(full: usize, smoke: usize) -> usize {
    if smoke_test_mode() {
        smoke
    } else {
        full
    }
}

/// The four queries of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fig2Query {
    /// Null-check map over every cell.
    Map,
    /// Group by `passenger_count`, count rows per group.
    GroupByN,
    /// Count non-null rows (single global group).
    GroupBy1,
    /// Transpose the frame and apply a map across the new rows.
    Transpose,
}

impl Fig2Query {
    /// All four panels in paper order.
    pub(crate) const ALL: [Fig2Query; 4] = [
        Fig2Query::Map,
        Fig2Query::GroupByN,
        Fig2Query::GroupBy1,
        Fig2Query::Transpose,
    ];

    /// The panel label used in the output table.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Fig2Query::Map => "map",
            Fig2Query::GroupByN => "groupby_n",
            Fig2Query::GroupBy1 => "groupby_1",
            Fig2Query::Transpose => "transpose",
        }
    }

    /// Build the query expression over a taxi frame.
    pub(crate) fn expression(&self, frame: &DataFrame) -> AlgebraExpr {
        let base = AlgebraExpr::literal(frame.clone());
        match self {
            Fig2Query::Map => base.map(MapFunc::IsNullMask),
            Fig2Query::GroupByN => base.group_by(
                vec![cell("passenger_count")],
                vec![Aggregation::count_rows()],
                false,
            ),
            Fig2Query::GroupBy1 => base.group_by(
                vec![],
                vec![
                    Aggregation::of("passenger_count", df_core::algebra::AggFunc::CountNonNull)
                        .with_alias("non_null_rows"),
                ],
                false,
            ),
            Fig2Query::Transpose => base.transpose().map(MapFunc::IsNullMask),
        }
    }
}

/// Configuration of the Figure 2 sweep.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Rows at replication factor 1 (the paper's factor-1 dataset is ~20 GB; here the
    /// scale is laptop-sized and set via `DF_BENCH_BASE_ROWS`).
    pub base_rows: usize,
    /// Replication factors to sweep (the paper uses 1–11).
    pub replications: Vec<usize>,
    /// Worker threads for the scalable engine.
    pub threads: usize,
    /// Cell budget after which the baseline's transpose refuses to run, modelling the
    /// "pandas cannot transpose beyond 6 GB" wall at the harness's scale.
    pub baseline_transpose_cap: usize,
}

impl Default for Fig2Config {
    fn default() -> Self {
        let base_rows = env_usize("DF_BENCH_BASE_ROWS", smoke_scaled(6_000, 300));
        Fig2Config {
            base_rows,
            replications: vec![1, 2, 4, 6, 8],
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            // Factor ~4 of the base dataset: larger replications DNF, mirroring the
            // paper's transpose panel where pandas never completes.
            baseline_transpose_cap: base_rows * df_workloads::TAXI_COLUMNS.len() * 4,
        }
    }
}

/// Run the Figure 2 sweep and return one record per (query, system, replication).
pub fn run_fig2(config: &Fig2Config) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for &replication in &config.replications {
        let taxi = generate_raw(&TaxiConfig {
            base_rows: config.base_rows,
            replication,
            ..TaxiConfig::default()
        })
        .expect("taxi generation cannot fail");
        let cells = taxi.n_cells();
        let modin = ModinEngine::with_config(
            ModinConfig::default()
                .with_threads(config.threads)
                .with_partition_size((taxi.n_rows() / 8).max(1024), 8),
        );
        let baseline = BaselineEngine::with_config(BaselineConfig {
            max_transpose_cells: Some(config.baseline_transpose_cap),
            ..BaselineConfig::default()
        });
        for query in Fig2Query::ALL {
            let expr = query.expression(&taxi);
            for (system, engine) in [
                ("pandas-baseline", &baseline as &dyn Engine),
                ("modin-engine", &modin as &dyn Engine),
            ] {
                let (outcome, elapsed) = time_once(|| engine.execute_collect(&expr));
                let record = match outcome {
                    Ok(result) => BenchRecord {
                        experiment: format!("fig2-{}", query.label()),
                        system: system.to_string(),
                        parameter: format!("x{replication}"),
                        seconds: Some(elapsed.as_secs_f64()),
                        note: format!(
                            "rows={}, cells={}, out={:?}",
                            taxi.n_rows(),
                            cells,
                            result.shape()
                        ),
                    },
                    Err(DfError::ResourceExhausted(reason)) => BenchRecord {
                        experiment: format!("fig2-{}", query.label()),
                        system: system.to_string(),
                        parameter: format!("x{replication}"),
                        seconds: None,
                        note: reason,
                    },
                    Err(other) => BenchRecord {
                        experiment: format!("fig2-{}", query.label()),
                        system: system.to_string(),
                        parameter: format!("x{replication}"),
                        seconds: None,
                        note: format!("error: {other}"),
                    },
                };
                records.push(record);
            }
        }
    }
    records
}

/// Summarise per-query speedups (baseline time / modin time) from a set of records.
pub fn speedup_summary(records: &[BenchRecord]) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for record in records {
        if record.system != "pandas-baseline" {
            continue;
        }
        let Some(baseline_time) = record.seconds else {
            continue;
        };
        let matching = records.iter().find(|r| {
            r.system == "modin-engine"
                && r.experiment == record.experiment
                && r.parameter == record.parameter
        });
        if let Some(modin) = matching {
            if let Some(modin_time) = modin.seconds {
                if modin_time > 0.0 {
                    out.push((
                        record.experiment.clone(),
                        record.parameter.clone(),
                        baseline_time / modin_time,
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_queries_build_expected_expressions() {
        let taxi = generate_raw(&TaxiConfig {
            base_rows: 20,
            ..TaxiConfig::default()
        })
        .unwrap();
        assert_eq!(Fig2Query::Map.expression(&taxi).name(), "MAP");
        assert_eq!(Fig2Query::GroupByN.expression(&taxi).name(), "GROUPBY");
        assert_eq!(Fig2Query::Transpose.expression(&taxi).transpose_count(), 1);
        assert_eq!(Fig2Query::Map.label(), "map");
    }

    #[test]
    fn small_fig2_sweep_produces_records_and_dnfs() {
        let config = Fig2Config {
            base_rows: 60,
            replications: vec![1, 3],
            threads: 1,
            baseline_transpose_cap: 60 * df_workloads::TAXI_COLUMNS.len() * 2,
        };
        let records = run_fig2(&config);
        // 4 queries × 2 systems × 2 replications.
        assert_eq!(records.len(), 16);
        // The baseline transposes fine at x1 but hits the wall at x3.
        let baseline_transpose_x3 = records
            .iter()
            .find(|r| {
                r.experiment == "fig2-transpose"
                    && r.system == "pandas-baseline"
                    && r.parameter == "x3"
            })
            .unwrap();
        assert_eq!(baseline_transpose_x3.seconds, None);
        let modin_transpose_x3 = records
            .iter()
            .find(|r| {
                r.experiment == "fig2-transpose"
                    && r.system == "modin-engine"
                    && r.parameter == "x3"
            })
            .unwrap();
        assert!(modin_transpose_x3.seconds.is_some());
        let table = render_table("figure 2", &records);
        assert!(table.contains("DNF"));
        assert!(table.contains("fig2-map"));
        let speedups = speedup_summary(&records);
        assert!(!speedups.is_empty());
    }

    #[test]
    fn json_records_round_trip() {
        let records = vec![
            BenchRecord {
                experiment: "table1/JOIN".into(),
                system: "modin-engine".into(),
                parameter: "30000 rows".into(),
                seconds: Some(1.25),
                note: "out=(3000, 18) \"quoted\"\nnewline\\slash".into(),
            },
            BenchRecord {
                experiment: "fig2-transpose".into(),
                system: "pandas-baseline".into(),
                parameter: "x3".into(),
                seconds: None,
                note: String::new(),
            },
        ];
        let json = records_to_json(&records);
        let parsed = parse_records_json(&json).expect("round trip parses");
        assert_eq!(parsed, records);
        assert_eq!(parse_records_json("[]").unwrap(), vec![]);
        assert!(parse_records_json("{").is_err());
        assert!(parse_records_json("[{\"bogus\":1}]").is_err());
    }

    #[test]
    fn emit_json_to_appends_to_existing_snapshots() {
        let dir = std::env::temp_dir().join(format!("df-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.json").to_string_lossy().into_owned();
        let record = |name: &str| BenchRecord {
            experiment: name.into(),
            system: "s".into(),
            parameter: "p".into(),
            seconds: Some(0.5),
            note: String::new(),
        };
        emit_json_to(&path, &[record("first")]);
        emit_json_to(&path, &[record("second")]);
        let merged = parse_records_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].experiment, "first");
        assert_eq!(merged[1].experiment, "second");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn helpers_behave() {
        assert_eq!(env_usize("DF_BENCH_DOES_NOT_EXIST", 7), 7);
        let (value, elapsed) = time_once(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(elapsed.as_secs() < 5);
        let record = BenchRecord {
            experiment: "x".into(),
            system: "y".into(),
            parameter: "z".into(),
            seconds: None,
            note: String::new(),
        };
        assert_eq!(record.time_display(), "DNF");
    }
}
