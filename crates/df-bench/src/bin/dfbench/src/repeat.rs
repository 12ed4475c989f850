//! `dfbench run | trace | repeat`: every workload in its own child process, and the
//! A/B comparison that decides whether two sets of runs of the same code agree
//! within the benchmark's own bounds.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::report::result_path;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::Summary;
use crate::{work_root, Options};

/// One workload's result file, reduced to what the comparison needs.
struct RunResult {
    workload: &'static str,
    correct: bool,
    doc: Json,
}

impl RunResult {
    fn summary(&self, metric: &str) -> Option<Summary> {
        let entry = self.doc.get("metrics")?.get(metric)?;
        let field = |key: &str| entry.get(key).and_then(Json::as_f64);
        Some(Summary {
            n: field("n")? as usize,
            median: field("median")?,
            q1: field("q1")?,
            q3: field("q3")?,
        })
    }
}

/// Run one workload as a child process (its tables go straight to our stdout) and
/// read back the result file it wrote.
fn run_child(
    options: &Options,
    results: &Path,
    workload: &'static str,
    traced: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot locate executable: {err}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if options.smoke {
        command.arg("--smoke");
    }
    let path = result_path(results, workload, options.seed, traced);
    std::fs::remove_file(&path).ok();
    let status = command
        .status()
        .map_err(|err| format!("cannot start child for {workload}: {err}"))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|err| format!("{workload} (exit {status}) left no result file: {err}"))?;
    let doc = Json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))?;
    let correct = status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(RunResult {
        workload,
        correct,
        doc,
    })
}

fn run_set(options: &Options, results: &Path, traced: bool) -> Result<Vec<RunResult>, String> {
    WORKLOADS
        .iter()
        .map(|workload| run_child(options, results, workload, traced))
        .collect()
}

fn all_correct(set: &[RunResult]) -> bool {
    for run in set.iter().filter(|run| !run.correct) {
        println!("INCORRECT: {} failed its output checks", run.workload);
    }
    set.iter().all(|run| run.correct)
}

/// Write the whole set as one file next to the per-workload ones.
fn write_set(results: &Path, name: &str, set: &[RunResult]) -> Result<(), String> {
    let path = results.join(name);
    let doc = Json::Obj(
        set.iter()
            .map(|run| (run.workload.to_string(), run.doc.clone()))
            .collect(),
    );
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    println!("combined result file: {}", path.display());
    Ok(())
}

/// How one (metric, workload) pair compares between two sets of the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the metric's bound.
    OutsideBound,
    /// A's own inter-quartile spread is wider than the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::OutsideBound => "outside-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `ratio` is B's median over A's; "worse" depends on the metric's direction.
pub fn judge(metric: &EndToEnd, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let ratio = if a.median == 0.0 {
        1.0
    } else {
        b.median / a.median
    };
    let worsening = match metric.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let verdict = if a.spread() > metric.bound {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::OutsideBound
    } else {
        Verdict::Ok
    };
    (ratio, verdict)
}

fn compare(a: &[RunResult], b: &[RunResult]) -> bool {
    let mut clean = true;
    // Same seed, same code: the outputs themselves must be byte-identical.
    for (run_a, run_b) in a.iter().zip(b) {
        let digest = |run: &RunResult| {
            run.doc
                .get("result_digest")
                .and_then(Json::as_str)
                .unwrap_or("missing")
                .to_string()
        };
        let same = digest(run_a) == digest(run_b);
        clean &= same;
        println!(
            "{:<14} result_digest A: {} B: {}{}",
            run_a.workload,
            digest(run_a),
            digest(run_b),
            if same { "" } else { "  MISMATCH" }
        );
    }
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A spread", "bound"
    );
    for (run_a, run_b) in a.iter().zip(b) {
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (run_a.summary(metric.name), run_b.summary(metric.name))
            else {
                println!(
                    "{:<14} {:<14} missing from a result file",
                    run_a.workload, metric.name
                );
                clean = false;
                continue;
            };
            let (ratio, verdict) = judge(metric, &sa, &sb);
            clean &= verdict == Verdict::Ok;
            println!(
                "{:<14} {:<14} {:>14.6} {:>14.6} {:>8.4} {:>8.2}% {:>6.0}%  {}",
                run_a.workload,
                metric.name,
                sa.median,
                sb.median,
                ratio,
                100.0 * sa.spread(),
                100.0 * metric.bound,
                verdict.name()
            );
        }
    }
    clean
}

/// After a traced set: does the hidden-layer estimate on `shuffle_procs` account for
/// its gap to `shuffle_skew`, which differs only in backend?
fn print_backend_gap(set: &[RunResult]) {
    let stmt_s = |name: &str| {
        set.iter()
            .find(|run| run.workload == name)
            .and_then(|run| run.doc.get("notes")?.get("untraced_stmt_s")?.as_f64())
    };
    let (Some(skew), Some(procs)) = (stmt_s("shuffle_skew"), stmt_s("shuffle_procs")) else {
        return;
    };
    let hidden = set
        .iter()
        .find(|run| run.workload == "shuffle_procs")
        .and_then(|run| run.doc.get("notes")?.get("hidden_s")?.as_f64())
        .unwrap_or(0.0);
    println!(
        "shuffle_procs - shuffle_skew = {:.4} s per iteration; staged on procs minus its threads twin = {:.4} s ({:.0} % of the gap)",
        procs - skew,
        hidden,
        100.0 * hidden / (procs - skew)
    );
}

/// Gather the per-workload span files of a traced set into one `trace.jsonl`.
fn concat_traces(results: &Path, seed: u64) -> Result<(), String> {
    let mut all = String::new();
    for workload in WORKLOADS {
        let path = results.join(format!("trace-{workload}-seed{seed}.jsonl"));
        all += &std::fs::read_to_string(&path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    }
    let path = results.join("trace.jsonl");
    std::fs::write(&path, all).map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    println!("all spans: {}", path.display());
    Ok(())
}

/// Returns whether every output check passed (and, for `repeat`, every pair agreed).
pub fn run_command(command: &str, options: &Options) -> Result<bool, String> {
    let results = work_root()?.join("results");
    std::fs::create_dir_all(&results)
        .map_err(|err| format!("cannot create {}: {err}", results.display()))?;
    if options.smoke {
        println!("SMOKE RUN: sizes/50, two iterations — numbers are not comparable");
    }
    match command {
        "run" => {
            let set = run_set(options, &results, false)?;
            write_set(&results, &format!("run-seed{}.json", options.seed), &set)?;
            Ok(all_correct(&set))
        }
        "trace" => {
            let set = run_set(options, &results, true)?;
            write_set(&results, &format!("trace-seed{}.json", options.seed), &set)?;
            concat_traces(&results, options.seed)?;
            print_backend_gap(&set);
            Ok(all_correct(&set))
        }
        "repeat" => {
            let a = run_set(options, &results, false)?;
            write_set(&results, &format!("repeat-a-seed{}.json", options.seed), &a)?;
            let b = run_set(options, &results, false)?;
            write_set(&results, &format!("repeat-b-seed{}.json", options.seed), &b)?;
            let agree = compare(&a, &b);
            if !agree {
                println!("REPEAT: at least one pair is outside its bound or unresolved");
            }
            Ok(all_correct(&a) && all_correct(&b) && agree)
        }
        other => Err(format!("unknown command {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            n: 15,
            median,
            q1,
            q3,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = &END_TO_END[1]; // stmt_s, lower is better, 15 %
        assert_eq!((lower.name, lower.better), ("stmt_s", Better::Lower));
        let a = summary(1.0, 0.99, 1.01);
        assert_eq!(judge(lower, &a, &summary(1.05, 1.0, 1.1)).1, Verdict::Ok);
        assert_eq!(judge(lower, &a, &summary(0.5, 0.5, 0.5)).1, Verdict::Ok);
        assert_eq!(
            judge(lower, &a, &summary(1.2, 1.2, 1.2)).1,
            Verdict::OutsideBound
        );
        // A's own spread (30 %) is wider than the bound: unresolved, whatever B says.
        let noisy = summary(1.0, 0.85, 1.15);
        assert_eq!(
            judge(lower, &noisy, &summary(1.0, 1.0, 1.0)).1,
            Verdict::Unresolved
        );

        let higher = &END_TO_END[6]; // stmts_per_s, higher is better
        assert_eq!(higher.better, Better::Higher);
        let a = summary(100.0, 100.0, 100.0);
        assert_eq!(judge(higher, &a, &summary(95.0, 95.0, 95.0)).1, Verdict::Ok);
        assert_eq!(
            judge(higher, &a, &summary(80.0, 80.0, 80.0)).1,
            Verdict::OutsideBound
        );
        assert_eq!(
            judge(higher, &a, &summary(150.0, 150.0, 150.0)).1,
            Verdict::Ok
        );
    }
}
