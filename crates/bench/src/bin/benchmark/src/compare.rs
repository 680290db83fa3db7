//! `collect`: repeated runs into one result file with provenance.
//! `agree`: two result files against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::{json, Map, Value as Json};

use crate::stats::{median, quartiles, spread};
use crate::workload::Workload;
use crate::{filesystem_type, nproc, number, SCRATCH_DIR};

/// `benchmark collect --out FILE [--runs N] [--seconds S] [--first-seed N]`
///
/// Runs every workload `--runs` times, seeds
/// `first-seed, first-seed + 1, …`, each in a child process so peak RSS
/// is per run, and writes per-run results, per-metric medians,
/// quartiles and spreads, and provenance.
pub fn collect(args: &[String]) -> i32 {
    let parsed = (|| -> Result<_, String> {
        // Defaults: ten runs of BENCHMARK.json's `run_seconds`.
        let (mut out, mut runs, mut seconds, mut first_seed) = (None, 10, 15, 1);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--out" => out = Some(value.clone()),
                "--runs" => runs = number(flag, value)?,
                "--seconds" => seconds = number(flag, value)?,
                "--first-seed" => first_seed = number(flag, value)?,
                _ => return Err(format!("unknown option `{flag}`")),
            }
        }
        Ok((out.ok_or("--out is required")?, runs, seconds, first_seed))
    })();
    let (out, runs, seconds, first_seed) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark collect: {e}");
            return 2;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark collect: cannot find own executable: {e}");
            return 1;
        }
    };

    let mut failures = 0;
    let mut by_workload = Map::new();
    for workload in Workload::ALL {
        let mut results = Vec::new();
        for run in 0..runs {
            let seed = first_seed + run;
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", "0"])
                .stderr(std::process::Stdio::inherit())
                .output();
            let result = output.ok().and_then(|o| {
                let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
                let parsed: Json = serde_json::from_str(stdout.lines().last()?).ok()?;
                let provenance: Json = stdout
                    .lines()
                    .find_map(|line| line.strip_prefix("provenance: "))
                    .and_then(|p| serde_json::from_str(p).ok())?;
                (o.status.success() && parsed["correct"].as_bool() == Some(true))
                    .then_some((parsed, provenance))
            });
            match result {
                Some((result, provenance)) => {
                    eprintln!(
                        "collect: {} seed {seed}: {} ops, {:.2} s stolen",
                        workload.name(),
                        result["attempted"],
                        provenance["steal_s"].as_f64().unwrap_or(f64::NAN)
                    );
                    results.push(json!({"seed": seed, "result": result, "provenance": provenance}));
                }
                None => {
                    eprintln!("collect: {} seed {seed}: run failed", workload.name());
                    failures += 1;
                }
            }
        }
        let summary = summarize(&results);
        for (name, s) in summary.iter() {
            println!(
                "{:<18} {:<12} median {:>14.4} {:<7} spread {:.4}",
                workload.name(),
                name,
                s["median"].as_f64().unwrap_or(f64::NAN),
                s["unit"].as_str().unwrap_or(""),
                s["spread"].as_f64().unwrap_or(f64::NAN),
            );
        }
        let summary = Json::Object(summary);
        by_workload.insert(
            workload.name().to_string(),
            json!({"runs": results, "summary": summary}),
        );
    }

    let by_workload = Json::Object(by_workload);
    let file = json!({
        "provenance": provenance(),
        "seconds": seconds,
        "first_seed": first_seed,
        "runs_per_workload": runs,
        "workloads": by_workload,
    });
    let text = serde_json::to_string_pretty(&file).unwrap_or_default();
    if let Err(e) = std::fs::write(&out, text + "\n") {
        eprintln!("benchmark collect: cannot write {out}: {e}");
        return 1;
    }
    i32::from(failures > 0)
}

/// Per-metric median, quartiles and spread over a workload's runs.
fn summarize(results: &[Json]) -> Map<String, Json> {
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    for run in results {
        let Some(metrics) = run["result"]["metrics"].as_object() else {
            continue;
        };
        for (name, m) in metrics.iter() {
            let entry = values.entry(name.clone()).or_default();
            entry.0.extend(m["value"].as_f64());
            entry.1 = m["unit"].as_str().unwrap_or("").to_string();
        }
    }
    values
        .into_iter()
        .map(|(name, (vals, unit))| {
            let [q1, _, q3] = quartiles(&vals).unwrap_or([f64::NAN; 3]);
            let summary = json!({
                "unit": unit,
                "values": vals,
                "median": median(&vals),
                "q1": q1,
                "q3": q3,
                "spread": spread(&vals),
            });
            (name, summary)
        })
        .collect()
}

/// Where and with what a result file was measured.
fn provenance() -> Json {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let revision = match git(&["rev-parse", "HEAD"]) {
        Some(rev) if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
            format!("{rev}-dirty")
        }
        Some(rev) => rev,
        None => "unknown".to_string(),
    };
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let scratch = std::env::current_dir()
        .map(|d| d.join(SCRATCH_DIR))
        .unwrap_or_default();
    let _ = std::fs::create_dir_all(&scratch);
    let scratch_fs = filesystem_type(&scratch);
    let _ = std::fs::remove_dir(&scratch);
    json!({
        "git_revision": revision,
        "rustc": rustc,
        "nproc": nproc(),
        "scratch_fs": scratch_fs,
    })
}

/// `benchmark agree A.json B.json`, run from the directory that holds
/// `BENCHMARK.json`.
///
/// For every workload and every end-to-end metric, prints both medians
/// and passes when they differ by at most the metric's bound and each
/// side's spread (all metrics but `setup_s`) is within it too.
pub fn agree(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: benchmark agree A.json B.json");
        return 2;
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))
    };
    let (a, b, config) = match (load(a), load(b), load("BENCHMARK.json")) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (a, b, c) => {
            for e in [a.err(), b.err(), c.err()].into_iter().flatten() {
                eprintln!("benchmark agree: {e}");
            }
            return 2;
        }
    };
    match compare_results(&a, &b, &config) {
        Ok(lines) => {
            for (workload, _) in a["workloads"].as_object().into_iter().flatten() {
                println!(
                    "{workload:<18} CPU time stolen by the host over the runs: A {:.1} s, B {:.1} s",
                    stolen(&a, workload),
                    stolen(&b, workload)
                );
            }
            let mut disagreements = 0;
            for line in &lines {
                println!("{}", line.text);
                disagreements += usize::from(!line.agrees);
            }
            println!(
                "agree: {} comparisons, {disagreements} disagreements",
                lines.len()
            );
            i32::from(disagreements > 0)
        }
        Err(e) => {
            eprintln!("benchmark agree: {e}");
            1
        }
    }
}

/// Seconds of CPU the host took from the VM during a workload's runs: a
/// disagreement next to a large value measured the host, not the code.
fn stolen(file: &Json, workload: &str) -> f64 {
    file["workloads"][workload]["runs"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|run| run["provenance"]["steal_s"].as_f64())
        .sum()
}

struct Line {
    text: String,
    agrees: bool,
}

fn compare_results(a: &Json, b: &Json, config: &Json) -> Result<Vec<Line>, String> {
    let metrics = config["end_to_end"]
        .as_array()
        .ok_or("config has no end_to_end list")?;
    let workloads = config["workloads"]
        .as_array()
        .ok_or("config has no workloads list")?;
    let mut lines = Vec::new();
    for workload in workloads {
        let workload = workload["name"].as_str().ok_or("workload without a name")?;
        for metric in metrics {
            let name = metric["name"].as_str().ok_or("metric without a name")?;
            let bound = metric["bound"].as_f64().ok_or("metric without a bound")?;
            let side = |file: &Json| {
                let s = &file["workloads"][workload]["summary"][name];
                (s["median"].as_f64(), s["spread"].as_f64())
            };
            let ((ma, sa), (mb, sb)) = (side(a), side(b));
            let (text, agrees) = match (ma, mb) {
                (Some(ma), Some(mb)) if ma != 0.0 => {
                    let diff = (mb - ma) / ma;
                    let spread_ok = name == "setup_s"
                        || (sa.is_some_and(|s| s <= bound) && sb.is_some_and(|s| s <= bound));
                    let agrees = diff.abs() <= bound && spread_ok;
                    (
                        format!(
                            "{workload:<18} {name:<12} A {ma:>14.4} B {mb:>14.4} diff {:>+7.2}% \
                             spread A {:>6.2}% B {:>6.2}% bound {:>5.1}% {}",
                            diff * 100.0,
                            sa.unwrap_or(f64::NAN) * 100.0,
                            sb.unwrap_or(f64::NAN) * 100.0,
                            bound * 100.0,
                            if agrees { "ok" } else { "DISAGREE" }
                        ),
                        agrees,
                    )
                }
                _ => (
                    format!("{workload:<18} {name:<12} missing or zero median: DISAGREE"),
                    false,
                ),
            };
            lines.push(Line { text, agrees });
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use crate::workload::{Measured, Traced};

    /// The root `BENCHMARK.json` this benchmark is registered under.
    const CONFIG: &str = include_str!("../../../../../../BENCHMARK.json");

    fn result_file(median: f64, spread: f64) -> Json {
        json!({"workloads": {"w": {"summary": {"m": {"median": median, "spread": spread}}}}})
    }

    #[test]
    fn agree_applies_bounds_to_medians_and_spreads() {
        let config = json!({
            "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "bound": 0.1}],
        });
        let base = result_file(100.0, 0.02);
        let ok = compare_results(&base, &result_file(109.0, 0.03), &config).unwrap();
        assert!(ok[0].agrees, "{}", ok[0].text);
        let far = compare_results(&base, &result_file(89.0, 0.03), &config).unwrap();
        assert!(!far[0].agrees, "{}", far[0].text);
        let noisy = compare_results(&base, &result_file(100.0, 0.2), &config).unwrap();
        assert!(!noisy[0].agrees, "{}", noisy[0].text);
        let missing = compare_results(&base, &json!({}), &config).unwrap();
        assert!(!missing[0].agrees);
    }

    #[test]
    fn config_names_exactly_the_workloads_and_metrics_reported() {
        let config: Json = serde_json::from_str(CONFIG).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            config[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m[f].as_str().unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let reported = |metrics: Vec<report::Metric>| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        let workloads: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().into(), String::new()))
            .collect();
        assert_eq!(listed("workloads"), workloads);
        assert_eq!(
            listed("end_to_end"),
            reported(report::end_to_end(&[1.0], &Measured::default(), 1.0))
        );
        let traced = Traced::new(std::time::Instant::now());
        assert_eq!(
            listed("per_layer"),
            reported(report::per_layer(&traced, &Measured::default()))
        );
        let setup = &config["end_to_end"][0];
        assert_eq!(setup["name"].as_str(), Some("setup_s"));
        assert!(config["end_to_end"]
            .as_array()
            .unwrap()
            .iter()
            .all(|m| m["bound"].as_f64().unwrap() <= setup["bound"].as_f64().unwrap()));
    }
}
