//! `benchmark` — the end-to-end scenario benchmark of the RAD
//! workspace.
//!
//! ```text
//! benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--spans FILE]
//! benchmark collect --out FILE [--runs N] [--seconds S] [--first-seed N]
//! benchmark agree A.json B.json
//! ```
//!
//! A run sets its workload up, measures a closed loop of operations for
//! `--seconds`, checks every output, and prints each metric by name and
//! unit; its last line is one JSON object. `--trace 1` halves the loop
//! and reruns the same operations one layer call at a time under spans,
//! printing the per-layer metrics instead. See README.md beside this
//! file.

mod campaign;
mod compare;
mod report;
mod service;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Duration;

use rad_core::RadError;
use serde_json::{json, Map, Value as Json};

use crate::report::Metric;
use crate::workload::Workload;

/// Scratch files live under this directory of the working directory,
/// one subdirectory per run, removed when the run ends.
pub const SCRATCH_DIR: &str = ".bench_scratch";

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--spans FILE]
  benchmark collect --out FILE [--runs N] [--seconds S] [--first-seed N]
  benchmark agree A.json B.json
workloads: campaign_export campaign_detect campaign_durable service_lockstep service_pipelined";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("collect") => compare::collect(&args[1..]),
        Some("agree") => compare::agree(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}

/// Options of one measured run.
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut spans) = (None, 15, false, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(number(flag, value)?),
                "--seconds" => seconds = number(flag, value)?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    }
                }
                "--spans" => spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown option `{flag}`")),
            }
        }
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            spans,
        })
    }
}

/// Parses a non-negative integer option.
pub fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a non-negative integer, not `{value}`"))
}

/// What a run hands to the printer.
struct Outcome {
    ops: usize,
    attempted: usize,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

fn run(args: &[String]) -> i32 {
    let args = match RunArgs::parse(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    let scratch = match std::env::current_dir() {
        Ok(dir) => {
            dir.join(SCRATCH_DIR)
                .join(format!("{}-{}", args.workload.name(), std::process::id()))
        }
        Err(e) => {
            eprintln!("benchmark: no working directory: {e}");
            return 1;
        }
    };
    let tmp = scratch.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("benchmark: cannot create {}: {e}", tmp.display());
        return 1;
    }
    // Durable stores and replay segments of `run_scenario` go to the
    // temp dir; point it into the scratch directory before any thread
    // starts.
    std::env::set_var("TMPDIR", &tmp);
    let scratch_fs = filesystem_type(&scratch);
    // Before the service workloads pin the process to one CPU.
    let nproc = nproc();
    let steal_before = steal_s();
    let outcome = execute(&args, &scratch);
    let steal = steal_s() - steal_before;
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        let _ = std::fs::remove_dir(parent); // only succeeds once empty
    }
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", args.workload.name());
            return 1;
        }
    };

    println!(
        "benchmark: {} seed {}: {} ops, {} attempted, {} failed{}",
        args.workload.name(),
        args.seed,
        outcome.ops,
        outcome.attempted,
        outcome.failed,
        if args.trace { " (traced)" } else { "" }
    );
    for m in &outcome.metrics {
        println!(
            "  {:<30} {:>16.6} {:<7} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "provenance: {}",
        json!({
            "workload": args.workload.name(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ops": outcome.ops,
            "nproc": nproc,
            "scratch_fs": scratch_fs,
            "steal_s": steal,
        })
    );
    for problem in &outcome.problems {
        eprintln!("benchmark: MISMATCH: {problem}");
    }
    let correct = outcome.problems.is_empty();
    let metrics: Map<String, Json> = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                json!({"value": m.value, "unit": m.unit}),
            )
        })
        .collect();
    let metrics = Json::Object(metrics);
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        })
    );
    if correct {
        0
    } else {
        1
    }
}

fn execute(args: &RunArgs, scratch: &Path) -> Result<Outcome, RadError> {
    let (mut bench, setup_s) = workload::set_up(args.workload, args.seed, scratch)?;
    let seconds = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let measured = bench.measure(args.seed, Duration::from_secs_f64(seconds))?;
    let failed = measured.ops.iter().filter(|op| op.failed).count() as u64;
    let mut outcome = Outcome {
        ops: measured.ops.len(),
        attempted: measured.ops.len(),
        failed,
        problems: measured.problems.clone(),
        metrics: Vec::new(),
    };
    if args.trace {
        let traced = bench.trace(&measured)?;
        if let Some(path) = &args.spans {
            traced
                .spans
                .write_json(path)
                .map_err(|e| RadError::Store(format!("writing {}: {e}", path.display())))?;
        }
        outcome.metrics = report::per_layer(&traced, &measured);
        outcome.attempted += traced.ops as usize;
        outcome.failed += traced.failed;
        outcome.problems.extend(traced.problems);
    } else {
        outcome.metrics = report::end_to_end(&setup_s, &measured, peak_rss_mib());
    }
    bench.tear_down()?;
    Ok(outcome)
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time the hypervisor ran other guests while this VM's CPUs wanted
/// to run, summed over CPUs: the `steal` column of `/proc/stat`, in
/// seconds (USER_HZ is 100). A run with steal measured the host as well.
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .map_or(0.0, |ticks: f64| ticks / 100.0)
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Type of the filesystem holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
pub fn filesystem_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
