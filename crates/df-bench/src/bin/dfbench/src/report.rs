//! Printing and persisting results: the human table, the per-run JSON file with its
//! machine descriptor, and the one-line result the driver reads.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::harness::{Ctx, Outcome};
use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on; carried by every result file.
pub fn machine(ctx: &Ctx) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("threads", Json::Num(ctx.threads as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(ctx.seed as f64)),
        ("seconds", Json::Num(ctx.seconds)),
        ("smoke", Json::Bool(ctx.smoke)),
        ("sizes", ctx.sizes.to_json()),
    ])
}

/// A metric's unit and which direction is better, from the spec tables.
fn describe(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(metric, _, _)| *metric == name)
        .map_or(("", ""), |(_, unit, better)| (unit, better.name()))
}

fn unit_of(name: &str) -> &'static str {
    describe(name).0
}

fn summary_json(name: &str, summary: &Summary) -> Json {
    Json::obj(vec![
        ("unit", Json::str(unit_of(name))),
        ("n", Json::Num(summary.n as f64)),
        ("median", Json::Num(summary.median)),
        ("q1", Json::Num(summary.q1)),
        ("q3", Json::Num(summary.q3)),
    ])
}

/// Every metric by name with unit, sample count, median and quartiles.
pub fn print_table(ctx: &Ctx, traced: bool, outcome: &Outcome) {
    let kind = if traced {
        "per-layer (traced run)"
    } else {
        "end-to-end"
    };
    println!(
        "== {} · {kind} · seed {} · {} thread(s){} ==",
        ctx.workload,
        ctx.seed,
        ctx.threads,
        if ctx.smoke {
            " · SMOKE: sizes/50, numbers are not comparable"
        } else {
            ""
        }
    );
    println!(
        "{:<34} {:>8} {:>7} {:>5} {:>16} {:>16} {:>16}",
        "metric", "unit", "better", "n", "median", "q1", "q3"
    );
    for (name, s) in &outcome.metrics {
        let (unit, better) = describe(name);
        println!(
            "{:<34} {:>8} {:>7} {:>5} {:>16.6} {:>16.6} {:>16.6}",
            name, unit, better, s.n, s.median, s.q1, s.q3
        );
    }
    println!(
        "attempted={} failed={} correct={} result_digest: {}",
        outcome.attempted, outcome.failed, outcome.correct, outcome.digest
    );
    if let Some(err) = &outcome.error {
        println!("FAILED: {err}");
    }
}

pub fn result_path(results: &Path, workload: &str, seed: u64, traced: bool) -> PathBuf {
    results.join(format!(
        "{workload}-seed{seed}-{}.json",
        if traced { "trace" } else { "e2e" }
    ))
}

/// The full record of one run, with the machine descriptor and per-metric `n`.
pub fn result_json(ctx: &Ctx, traced: bool, outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, summary)| (name.clone(), summary_json(name, summary)))
        .collect();
    let mut fields = vec![
        ("workload", Json::str(ctx.workload.as_str())),
        ("traced", Json::Bool(traced)),
        ("machine", machine(ctx)),
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("result_digest", Json::str(outcome.digest.as_str())),
        ("metrics", Json::Obj(metrics)),
        ("notes", Json::Obj(outcome.notes.clone())),
    ];
    if let Some(err) = &outcome.error {
        fields.push(("error", Json::str(err.as_str())));
    }
    Json::obj(fields)
}

/// The last line of standard output: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}` with every measured digit.
pub fn driver_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, summary)| {
            (
                name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(summary.median)),
                    ("unit", Json::str(unit_of(name))),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            metrics: vec![("setup_s".into(), Summary::single(0.8127))],
            attempted: 12,
            failed: 0,
            correct: true,
            ..Outcome::default()
        };
        let line = driver_line(&outcome);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
