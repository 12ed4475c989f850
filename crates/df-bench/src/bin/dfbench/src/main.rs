//! `dfbench` — the repo's benchmark of record. See `README.md` next to `Cargo.toml`
//! for the workloads, the metric glossary and the measured API surface.
//!
//! Two ways in:
//!
//! * `dfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` measures one
//!   workload in this process and prints the driver's result line last. With
//!   `--trace 0` the metrics are the end-to-end ones, measured with tracing off;
//!   with `--trace 1` the per-layer ones, from a staged, traced re-execution.
//! * `dfbench run | trace | repeat [--seed n] [--seconds s] [--smoke]` runs every
//!   workload that way, each in its own child process (so `VmHWM` is per workload),
//!   and prints the combined tables.

mod gen;
mod harness;
mod json;
mod probes;
mod repeat;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Ctx, Outcome};
use spec::{Sizes, DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};

#[derive(Debug, Clone, PartialEq)]
struct Options {
    /// `run`, `trace`, `repeat`, or `None` for a single-workload invocation.
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

const USAGE: &str = "usage:
  dfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  dfbench run    [--seed <n>] [--seconds <s>] [--smoke]   end-to-end metrics, all workloads
  dfbench trace  [--seed <n>] [--seconds <s>] [--smoke]   per-layer metrics + trace.jsonl
  dfbench repeat [--seed <n>] [--seconds <s>] [--smoke]   two sets A/B, compared by bound";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value = |flag: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "run" | "trace" | "repeat" if options.command.is_none() => {
                options.command = Some(arg.clone());
            }
            "--workload" => options.workload = Some(value("--workload")?),
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds takes a positive number".to_string())?;
            }
            "--trace" => {
                options.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (&options.command, &options.workload) {
        (None, None) => Err("name a workload (--workload) or a command".to_string()),
        (Some(_), Some(_)) => Err("--workload cannot be combined with a command".to_string()),
        (None, Some(name)) if !WORKLOADS.contains(&name.as_str()) => Err(format!(
            "unknown workload {name:?}; known: {}",
            WORKLOADS.join(", ")
        )),
        _ => Ok(options),
    }
}

/// `<target>/dfbench-work`, next to the profile directory the executable lives in —
/// always inside the checkout that built it, and always git-ignored with it.
fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot locate executable: {err}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(|target| target.join("dfbench-work"))
        .ok_or_else(|| format!("unexpected executable location {}", exe.display()))
}

/// Removes the invocation's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn measure(ctx: &Ctx, traced: bool) -> Outcome {
    use harness::run_batch;
    use workloads::{etl, service, shuffle, wide};
    match (ctx.workload.as_str(), traced) {
        ("csv_etl", false) => run_batch::<etl::CsvEtl>(ctx),
        ("ooc_etl", false) => run_batch::<etl::OocEtl>(ctx),
        ("shuffle_skew", false) => run_batch::<shuffle::Skew>(ctx),
        ("shuffle_procs", false) => run_batch::<shuffle::Procs>(ctx),
        ("wide_frame", false) => run_batch::<wide::Wide>(ctx),
        ("service_mix", false) => service::run(ctx),
        ("csv_etl", true) => probes::run_traced::<etl::CsvEtl>(ctx),
        ("ooc_etl", true) => probes::run_traced::<etl::OocEtl>(ctx),
        ("shuffle_skew", true) => probes::run_traced::<shuffle::Skew>(ctx),
        ("shuffle_procs", true) => probes::run_traced::<shuffle::Procs>(ctx),
        ("wide_frame", true) => probes::run_traced::<wide::Wide>(ctx),
        ("service_mix", true) => service::run_traced(ctx),
        (other, _) => unreachable!("workload {other} was validated by parse_args"),
    }
}

/// Measure one workload in this process. Returns whether its outputs were correct.
fn run_one(options: &Options, workload: &str) -> Result<bool, String> {
    let root = work_root()?;
    let results = root.join("results");
    let work = root.join(format!(
        "{workload}-seed{}-pid{}",
        options.seed,
        std::process::id()
    ));
    let tmp = work.join("tmp");
    std::fs::create_dir_all(&tmp)
        .map_err(|err| format!("cannot create {}: {err}", tmp.display()))?;
    std::fs::create_dir_all(&results)
        .map_err(|err| format!("cannot create {}: {err}", results.display()))?;
    let _scratch = Scratch(work.clone());
    // The engine puts its spill directories under the system temp dir; point that
    // inside the scratch directory so nothing is written outside the checkout.
    // Done before any thread exists.
    std::env::set_var("TMPDIR", &tmp);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: options.seed,
        seconds: options.seconds,
        smoke: options.smoke,
        sizes: if options.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        threads: nproc.min(4),
        work,
    };
    let outcome = measure(&ctx, options.traced);
    report::print_table(&ctx, options.traced, &outcome);
    let path = report::result_path(&results, workload, options.seed, options.traced);
    std::fs::write(
        &path,
        report::result_json(&ctx, options.traced, &outcome).render() + "\n",
    )
    .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    println!("result file: {}", path.display());
    println!("{}", report::driver_line(&outcome));
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("dfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&options.command, &options.workload) {
        (None, Some(workload)) => run_one(&options, workload),
        (Some(command), _) => repeat::run_command(command, &options),
        (None, None) => unreachable!("parse_args requires one of the two"),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("dfbench: {err}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let options = parse_args(&args(&[
            "--workload",
            "csv_etl",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(options.workload.as_deref(), Some("csv_etl"));
        assert_eq!(
            (options.seed, options.seconds, options.traced),
            (7, 10.0, true)
        );
        assert!(!options.smoke && options.command.is_none());
    }

    #[test]
    fn commands_take_defaults_and_smoke() {
        let options = parse_args(&args(&["repeat", "--smoke"])).unwrap();
        assert_eq!(options.command.as_deref(), Some("repeat"));
        assert_eq!(
            (options.seed, options.seconds),
            (DEFAULT_SEED, DEFAULT_SECONDS)
        );
        assert!(options.smoke);
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            &[][..],
            &["--workload", "nope"],
            &["--workload"],
            &["run", "--workload", "csv_etl"],
            &["--workload", "csv_etl", "--trace", "2"],
            &["--workload", "csv_etl", "--seconds", "0"],
            &["--workload", "csv_etl", "--seed", "-1"],
            &["frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
