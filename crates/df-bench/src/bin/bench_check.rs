//! Compare a bench JSON snapshot against a freshly produced one and fail on large
//! regressions.
//!
//! ```sh
//! bench_check <baseline.json> <current.json> [max_ratio]
//! ```
//!
//! Records are matched on `(experiment, system, parameter)`; a current record slower
//! than `max_ratio` × its baseline (default 3.0 — a deliberately generous bound that
//! only catches accidental quadratic blowups, not machine noise) is a violation.
//! A current record without a matching baseline record is counted but passes, so
//! snapshots from bigger measurement runs can coexist with CI's smoke-scale records.
//! A baseline *experiment* the current run produced no record for at all (matched on
//! `experiment` only) is an orphaned gate — a deleted or renamed bench arm — and is
//! a violation too.

use std::process::ExitCode;

use df_bench::{parse_records_json, BenchRecord};

fn load(path: &str) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_records_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, current_path) = match args.as_slice() {
        [b, c] | [b, c, _] => (b.clone(), c.clone()),
        _ => {
            eprintln!("usage: bench_check <baseline.json> <current.json> [max_ratio]");
            return ExitCode::from(2);
        }
    };
    let max_ratio: f64 = match args.get(2) {
        None => 3.0,
        Some(raw) => match raw.parse() {
            Ok(ratio) => ratio,
            Err(_) => {
                eprintln!("bench_check: max_ratio must be a number, got {raw:?}");
                return ExitCode::from(2);
            }
        },
    };
    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench_check: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let mut compared = 0usize;
    let mut skipped = 0usize;
    let mut violations = Vec::new();
    for record in &current {
        let Some(seconds) = record.seconds else {
            continue;
        };
        let reference = baseline.iter().find(|b| {
            b.experiment == record.experiment
                && b.system == record.system
                && b.parameter == record.parameter
        });
        let Some(base_seconds) = reference.and_then(|b| b.seconds) else {
            skipped += 1;
            continue;
        };
        compared += 1;
        let ratio = if base_seconds > 0.0 {
            seconds / base_seconds
        } else {
            1.0
        };
        let flag = if ratio > max_ratio {
            violations.push(format!(
                "{} / {} / {}: {:.4}s vs baseline {:.4}s ({ratio:.1}x > {max_ratio:.1}x)",
                record.experiment, record.system, record.parameter, seconds, base_seconds
            ));
            " REGRESSION"
        } else {
            ""
        };
        println!(
            "{:<28} {:<18} {:<14} {:>9.4}s vs {:>9.4}s  {ratio:>5.2}x{flag}",
            record.experiment, record.system, record.parameter, seconds, base_seconds
        );
    }
    let mut orphans: Vec<&str> = baseline
        .iter()
        .map(|b| b.experiment.as_str())
        .filter(|experiment| !current.iter().any(|c| c.experiment == *experiment))
        .collect();
    orphans.sort_unstable();
    orphans.dedup();
    for experiment in orphans {
        violations.push(format!(
            "{experiment}: in the baseline but not in the current run (orphaned record)"
        ));
    }
    println!("bench_check: compared {compared} records ({skipped} without a matching baseline)");
    if violations.is_empty() {
        println!("bench_check: no regressions beyond {max_ratio:.1}x, no orphaned records");
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("bench_check: {violation}");
        }
        ExitCode::FAILURE
    }
}
