//! Power data-plane report: the columnar `PowerBlock` pipeline
//! against the row-oriented path it replaced, on the synthesize →
//! correlate workload the power experiments actually run (plus
//! resample, peak extraction, and CSV export as extra stages).
//!
//! Two implementations of the same analysis run over the same
//! multi-run telemetry campaign (plain wall-clock timers, minimum
//! over reps):
//!
//! * **rows** — the pre-refactor shape: synthesis materializes one
//!   122-field `PowerSample` struct per tick, every analysis gathers
//!   a joint's current by striding across those structs, correlation
//!   runs the two-pass Pearson per pair, and peak extraction makes
//!   four separate passes;
//! * **columnar** — the `PowerBlock` plane: the fused writer scatters
//!   straight into contiguous lanes (evaluating the dynamics once per
//!   tick), correlation reuses per-run moments across all pairs of
//!   zero-copy lane slices, peaks come from one fused pass, and CSV
//!   streams without materializing rows.
//!
//! Both paths produce identical numbers (asserted; synthesis is
//! bit-identical by the golden tests). The headline gate is the
//! `synth+correlate` composite: ISSUE.md requires ≥2x at ≥10⁶ ticks.
//! Results print as a table and are written to `BENCH_power.json` at
//! the repository root (the file EXPERIMENTS.md quotes).
//!
//! Scale with `POWER_TICKS` (default 1,000,000; CI smoke uses a
//! smaller count).

use std::fs;
use std::io::Write;
use std::time::Instant;

use rad_power::{
    signal, CurrentProfile, PowerSample, ProfileRequest, TrajectorySegment, Ur3e,
    DEFAULT_CHUNK_TICKS, TICK_SECONDS,
};
use rad_store::csv::{power_to_csv, write_power_csv};

/// Telemetry runs in the synthetic campaign — the paper's 25
/// supervised runs.
const RUNS: usize = 25;
/// Joint whose current lane the single-channel stages read (the
/// shoulder, the paper's most informative channel).
const JOINT: usize = 1;
/// All six joint channels, correlated run-against-run like Fig. 7.
const JOINTS: usize = 6;
/// Points every run is resampled to before shape comparison.
const RESAMPLE_POINTS: usize = 4096;
/// Runs exported in the CSV stage (export is formatting-bound; a few
/// runs measure it without dominating the report).
const EXPORT_RUNS: usize = 2;

/// Milliseconds for one repetition: the minimum over `reps` timed runs
/// after one warmup run.
fn time_ms<F: FnMut()>(reps: u32, mut f: F) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Builds `RUNS` profile requests totalling at least `target_ticks`:
/// slow cycles through the named poses, with per-run payload and seed
/// variation so no two runs share a noise stream. Every run executes
/// the same trajectory (iterations of one procedure, like Fig. 7a's
/// repeated solubility runs), so all runs have the same tick count.
fn requests(target_ticks: usize) -> Vec<ProfileRequest> {
    let per_run = target_ticks.div_ceil(RUNS);
    (0..RUNS)
        .map(|run| {
            let mut segments = Vec::new();
            let mut ticks = 0usize;
            let mut leg = 0usize;
            while ticks < per_run {
                let from = Ur3e::named_pose(leg % 6);
                let to = Ur3e::named_pose((leg + 1) % 6);
                let seg = TrajectorySegment::joint_move(from, to, 0.05);
                ticks += (seg.duration() / TICK_SECONDS).ceil() as usize + 1;
                segments.push(seg);
                leg += 1;
            }
            ProfileRequest {
                segments,
                payload_kg: 0.25 * (run % 4) as f64,
                seed: 0xBEEF + run as u64,
            }
        })
        .collect()
}

/// The pre-refactor gather: one joint's current, striding across the
/// 122-field row structs exactly as `joint_current` did.
fn gather_joint(samples: &[PowerSample], joint: usize) -> Vec<f64> {
    samples.iter().map(|s| s.current_actual[joint]).collect()
}

/// Counts bytes without retaining them — the export stage's output is
/// measured, not stored.
struct CountingWrite {
    bytes: u64,
}

impl Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Stage {
    name: &'static str,
    rows_ms: f64,
    columnar_ms: f64,
}

impl Stage {
    fn speedup(&self) -> f64 {
        self.rows_ms / self.columnar_ms
    }
}

fn main() {
    let target: usize = std::env::var("POWER_TICKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let reqs = requests(target);
    println!("power_report: target {target} ticks, {RUNS} runs...");

    let arm = Ur3e::new();

    // Materialize both representations once for the analysis stages.
    let profiles: Vec<CurrentProfile> = reqs
        .iter()
        .map(|r| arm.current_profile(&r.segments, r.payload_kg, r.seed))
        .collect();
    let row_profiles: Vec<Vec<PowerSample>> = reqs
        .iter()
        .map(|r| arm.current_profile_rows(&r.segments, r.payload_kg, r.seed))
        .collect();
    let ticks: usize = profiles.iter().map(CurrentProfile::len).sum();
    // Equal-length runs keep the per-pair shape_correlation baseline
    // and the matrix kernel numerically comparable (the old API's
    // resample-to-min-length is the identity).
    assert!(
        profiles.iter().all(|p| p.len() == profiles[0].len()),
        "runs must be equal length"
    );
    println!("synthesized {ticks} ticks ({} per run avg)", ticks / RUNS);

    // ---- synth: trajectory → telemetry ----
    // Rows: one PowerSample struct per tick, dynamics evaluated twice
    // (torques, then currents). Columnar: fused scatter into lanes.
    let rows_synth = time_ms(2, || {
        let synthesized: Vec<Vec<PowerSample>> = reqs
            .iter()
            .map(|r| arm.current_profile_rows(&r.segments, r.payload_kg, r.seed))
            .collect();
        let total: usize = synthesized.iter().map(Vec::len).sum();
        assert_eq!(total, ticks);
    });
    let columnar_synth = time_ms(2, || {
        let synthesized = arm.current_profiles_par(&reqs);
        let total: usize = synthesized.iter().map(CurrentProfile::len).sum();
        assert_eq!(total, ticks);
    });

    // ---- correlate: all run pairs, all six joints (Fig. 7 style) ----
    // Rows: gather each run's joint current off the structs, then the
    // old per-pair `shape_correlation` — which resamples BOTH series
    // inside the pair loop (an identity resample here, but the old
    // API paid it every time) before the two-pass Pearson. Columnar:
    // zero-copy lane slices into the moment-reusing matrix kernel.
    let pairs = RUNS * (RUNS - 1) / 2;
    let mut rows_matrix = Vec::new();
    let rows_correlate = time_ms(2, || {
        rows_matrix.clear();
        for joint in 0..JOINTS {
            let gathered: Vec<Vec<f64>> = row_profiles
                .iter()
                .map(|s| gather_joint(s, joint))
                .collect();
            for i in 0..RUNS {
                for j in i + 1..RUNS {
                    rows_matrix.push(
                        signal::reference::shape_correlation(&gathered[i], &gathered[j]).unwrap(),
                    );
                }
            }
        }
    });
    let mut columnar_matrix = Vec::new();
    let columnar_correlate = time_ms(2, || {
        columnar_matrix.clear();
        for joint in 0..JOINTS {
            let lanes: Vec<&[f64]> = profiles.iter().map(|p| p.current_lane(joint)).collect();
            let matrix = signal::pearson_matrix(&lanes).unwrap();
            for (i, row) in matrix.iter().enumerate() {
                columnar_matrix.extend_from_slice(&row[i + 1..]);
            }
        }
    });
    assert_eq!(rows_matrix.len(), pairs * JOINTS);
    for (a, b) in rows_matrix.iter().zip(&columnar_matrix) {
        assert!((a - b).abs() < 1e-9, "correlation divergence: {a} vs {b}");
    }

    // ---- synth+correlate: the composite the ISSUE gates on ----
    let rows_composite = time_ms(2, || {
        let synthesized: Vec<Vec<PowerSample>> = reqs
            .iter()
            .map(|r| arm.current_profile_rows(&r.segments, r.payload_kg, r.seed))
            .collect();
        let mut acc = 0.0f64;
        for joint in 0..JOINTS {
            let gathered: Vec<Vec<f64>> =
                synthesized.iter().map(|s| gather_joint(s, joint)).collect();
            for i in 0..RUNS {
                for j in i + 1..RUNS {
                    acc +=
                        signal::reference::shape_correlation(&gathered[i], &gathered[j]).unwrap();
                }
            }
        }
        assert!(acc.is_finite());
    });
    let columnar_composite = time_ms(2, || {
        let synthesized = arm.current_profiles_par(&reqs);
        let mut acc = 0.0f64;
        for joint in 0..JOINTS {
            let lanes: Vec<&[f64]> = synthesized.iter().map(|p| p.current_lane(joint)).collect();
            let matrix = signal::pearson_matrix(&lanes).unwrap();
            for (i, row) in matrix.iter().enumerate() {
                acc += row[i + 1..].iter().sum::<f64>();
            }
        }
        assert!(acc.is_finite());
    });

    // ---- resample: every run to a common grid ----
    let rows_resample = time_ms(3, || {
        let mut total = 0usize;
        for samples in &row_profiles {
            let series = gather_joint(samples, JOINT);
            total += signal::reference::resample(&series, RESAMPLE_POINTS).len();
        }
        assert_eq!(total, RUNS * RESAMPLE_POINTS);
    });
    let columnar_resample = time_ms(3, || {
        let mut buf = Vec::new();
        let mut total = 0usize;
        for p in &profiles {
            signal::resample_into(p.current_lane(JOINT), RESAMPLE_POINTS, &mut buf);
            total += buf.len();
        }
        assert_eq!(total, RUNS * RESAMPLE_POINTS);
    });

    // ---- peaks: per-run current-signature statistics ----
    let rows_peaks = time_ms(3, || {
        let mut acc = 0.0f64;
        for samples in &row_profiles {
            let series = gather_joint(samples, JOINT);
            acc += signal::reference::extrema_count(&series, 0.05) as f64;
            acc += signal::reference::peak_to_peak(&series);
            acc += signal::reference::mean_abs(&series);
            acc += signal::reference::rms(&series);
        }
        assert!(acc.is_finite());
    });
    let columnar_peaks = time_ms(3, || {
        let mut acc = 0.0f64;
        for p in &profiles {
            let stats = signal::peak_stats(p.current_lane(JOINT), 0.05);
            acc += stats.extrema as f64 + stats.peak_to_peak + stats.mean_abs + stats.rms;
        }
        assert!(acc.is_finite());
    });

    // ---- export: profiles → RAD power CSV ----
    let mut csv_bytes = 0u64;
    let rows_export = time_ms(2, || {
        csv_bytes = 0;
        for samples in row_profiles.iter().take(EXPORT_RUNS) {
            csv_bytes += power_to_csv(samples).len() as u64;
        }
    });
    let columnar_export = time_ms(2, || {
        let mut sink = CountingWrite { bytes: 0 };
        for p in profiles.iter().take(EXPORT_RUNS) {
            write_power_csv(&mut sink, p.block()).unwrap();
        }
        assert_eq!(sink.bytes, csv_bytes);
    });

    let stages = [
        Stage {
            name: "synth",
            rows_ms: rows_synth,
            columnar_ms: columnar_synth,
        },
        Stage {
            name: "correlate",
            rows_ms: rows_correlate,
            columnar_ms: columnar_correlate,
        },
        Stage {
            name: "resample",
            rows_ms: rows_resample,
            columnar_ms: columnar_resample,
        },
        Stage {
            name: "peaks",
            rows_ms: rows_peaks,
            columnar_ms: columnar_peaks,
        },
        Stage {
            name: "export_csv",
            rows_ms: rows_export,
            columnar_ms: columnar_export,
        },
    ];

    println!();
    println!(
        "{:<14} {:>12} {:>14} {:>9}",
        "stage", "rows (ms)", "columnar (ms)", "speedup"
    );
    for s in &stages {
        println!(
            "{:<14} {:>12.1} {:>14.1} {:>8.2}x",
            s.name,
            s.rows_ms,
            s.columnar_ms,
            s.speedup()
        );
    }
    println!(
        "{:<14} {:>12.1} {:>14.1} {:>8.2}x",
        "synth+corr",
        rows_composite,
        columnar_composite,
        rows_composite / columnar_composite
    );
    println!();
    println!(
        "peak hand-off working set: rows path {} ticks, columnar path {} ticks",
        ticks / RUNS,
        DEFAULT_CHUNK_TICKS
    );

    let mut out = String::from("{\n");
    out.push_str("  \"workload\": {\n");
    out.push_str(&format!("    \"ticks\": {ticks},\n"));
    out.push_str(&format!("    \"runs\": {RUNS},\n"));
    out.push_str(&format!("    \"pairs\": {pairs},\n"));
    out.push_str(&format!("    \"export_runs\": {EXPORT_RUNS},\n"));
    out.push_str(&format!("    \"csv_bytes\": {csv_bytes}\n"));
    out.push_str("  },\n");
    out.push_str("  \"stages\": [\n");
    for (i, s) in stages.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", s.name));
        out.push_str(&format!("      \"rows_ms\": {:.3},\n", s.rows_ms));
        out.push_str(&format!("      \"columnar_ms\": {:.3},\n", s.columnar_ms));
        out.push_str(&format!("      \"speedup\": {:.2}\n", s.speedup()));
        out.push_str(if i + 1 == stages.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"synth_correlate\": {\n");
    out.push_str(&format!("    \"rows_ms\": {rows_composite:.3},\n"));
    out.push_str(&format!("    \"columnar_ms\": {columnar_composite:.3},\n"));
    out.push_str(&format!(
        "    \"speedup\": {:.2}\n",
        rows_composite / columnar_composite
    ));
    out.push_str("  },\n");
    out.push_str("  \"peak_handoff_ticks\": {\n");
    out.push_str(&format!("    \"rows_path\": {},\n", ticks / RUNS));
    out.push_str(&format!("    \"columnar_path\": {DEFAULT_CHUNK_TICKS}\n"));
    out.push_str("  }\n}\n");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let path = root.join("BENCH_power.json");
    fs::write(&path, out).expect("write BENCH_power.json");
    println!("wrote {}", path.display());
}
