//! The in-process workloads: each op runs the workload's scenario
//! documents through `run_scenario`, as `rad run` does.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rad_core::{RadError, TraceSource};
use rad_store::export::{bundle_is_complete, export_rad_alerted};
use rad_store::segment::{SegmentOptions, SegmentSet, SegmentWriter};
use rad_workloads::{
    detect_campaign_spec, fit_detector, run_scenario, CampaignBuilder, RunOptions, ScenarioReport,
    ScenarioSpec,
};

use crate::spans::{Recorder, OP};
use crate::workload::{
    parse_documents, remove, scratch_error, Bench, Measured, Op, Traced, Workload,
};

/// The counts `run_scenario` reports that the traced decomposition
/// must reproduce.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    traces: u64,
    gaps: u64,
    alerts: u64,
    exported_files: u64,
    window_rows: Option<u64>,
    window_pruned: Option<u64>,
    resumed_after_crash: bool,
}

impl From<&ScenarioReport> for Counts {
    fn from(r: &ScenarioReport) -> Self {
        Counts {
            traces: r.traces,
            gaps: r.gaps,
            alerts: r.alerts,
            exported_files: r.exported_files,
            window_rows: r.window_rows,
            window_pruned: r.window_pruned,
            resumed_after_crash: r.resumed_after_crash,
        }
    }
}

/// An in-process workload after set-up.
pub struct CampaignBench {
    documents: Vec<ScenarioSpec>,
    /// Export-bundle directory, for the workload that exports.
    bundle: Option<PathBuf>,
    /// Where `run_scenario` puts durable stores and replay segments: the
    /// process's temp dir, which must be the run's own `tmp/`.
    tmp: PathBuf,
    /// Counts of every untraced op, by op index.
    counts: BTreeMap<u32, Vec<Counts>>,
}

impl CampaignBench {
    /// Parses the documents and runs one untimed warm-up op with
    /// `warm_up_seed`. `run_scenario` writes under the process's temp
    /// dir, which must be `scratch/tmp`: every op empties it.
    pub fn set_up(workload: Workload, warm_up_seed: u64, scratch: &Path) -> Result<Self, RadError> {
        let tmp = scratch.join("tmp");
        if std::env::temp_dir() != tmp {
            return Err(RadError::Store(format!(
                "the temp dir is {}, not the run's {}",
                std::env::temp_dir().display(),
                tmp.display()
            )));
        }
        let bench = CampaignBench {
            documents: parse_documents(workload)?,
            bundle: (workload == Workload::CampaignExport).then(|| scratch.join("bundle")),
            tmp,
            counts: BTreeMap::new(),
        };
        let (_, warm_up) = bench.run_op(warm_up_seed);
        let problems = bench.check(&warm_up?);
        bench.clean()?;
        match problems.first() {
            Some(problem) => Err(RadError::Store(format!("warm-up op: {problem}"))),
            None => Ok(bench),
        }
    }

    fn seeded(&self, seed: u64) -> Vec<ScenarioSpec> {
        self.documents
            .iter()
            .map(|doc| ScenarioSpec {
                seed,
                ..doc.clone()
            })
            .collect()
    }

    /// One op: every document through `run_scenario`, timed.
    fn run_op(&self, seed: u64) -> (f64, Result<Vec<ScenarioReport>, RadError>) {
        let specs = self.seeded(seed);
        let options = RunOptions {
            out_dir: self.bundle.clone(),
            addr_override: None,
        };
        let started = Instant::now();
        let reports = specs
            .iter()
            .map(|spec| run_scenario(spec, &options))
            .collect();
        (started.elapsed().as_secs_f64() * 1e3, reports)
    }

    /// Output checks on one op's reports.
    fn check(&self, reports: &[ScenarioReport]) -> Vec<String> {
        let mut problems = Vec::new();
        for (spec, report) in self.documents.iter().zip(reports) {
            if spec.injects_crash() != report.resumed_after_crash {
                problems.push(format!(
                    "{} seed {}: crash scheduled {}, resumed {}",
                    spec.name,
                    report.seed,
                    spec.injects_crash(),
                    report.resumed_after_crash
                ));
            }
        }
        // A crashed-and-resumed build must equal the uninterrupted one.
        if let [write, crash] = reports {
            if (write.traces, write.gaps) != (crash.traces, crash.gaps) {
                problems.push(format!(
                    "seed {}: resumed build has {} traces / {} gaps, uninterrupted {} / {}",
                    write.seed, crash.traces, crash.gaps, write.traces, write.gaps
                ));
            }
        }
        if let (Some(dir), Some(report)) = (&self.bundle, reports.first()) {
            if let Err(problem) = check_bundle(dir, report.traces) {
                problems.push(format!("seed {}: {problem}", report.seed));
            }
        }
        problems
    }

    /// Removes the op's bundle, stores and segments.
    fn clean(&self) -> Result<(), RadError> {
        if let Some(dir) = &self.bundle {
            remove(dir)?;
        }
        remove(&self.tmp)?;
        std::fs::create_dir(&self.tmp).map_err(scratch_error)
    }
}

impl Bench for CampaignBench {
    fn measure(&mut self, first_seed: u64, budget: Duration) -> Result<Measured, RadError> {
        let mut measured = Measured::default();
        let started = Instant::now();
        let mut index = 0u32;
        while index == 0 || started.elapsed() < budget {
            let seed = first_seed.wrapping_add(u64::from(index));
            let (ms, result) = self.run_op(seed);
            let failed = match result {
                Ok(reports) => {
                    measured.rows += reports.iter().map(|r| r.traces).sum::<u64>();
                    measured.problems.extend(self.check(&reports));
                    self.counts
                        .insert(index, reports.iter().map(Counts::from).collect());
                    false
                }
                Err(e) => {
                    eprintln!("op {index} (seed {seed}) failed: {e}");
                    true
                }
            };
            // Single-threaded loop: the rows' wall time is the ops'
            // time, without the checks and clean-up between them.
            measured.wall_s += ms / 1e3;
            measured.ops.push(Op {
                index,
                seed,
                ms,
                failed,
            });
            self.clean()?;
            index += 1;
        }
        Ok(measured)
    }

    fn trace(&mut self, measured: &Measured) -> Result<Traced, RadError> {
        let mut traced = Traced::new(Instant::now());
        for op in &measured.ops {
            let Some(expected) = self.counts.get(&op.index) else {
                continue;
            };
            let specs = self.seeded(op.seed);
            let rec = &mut traced.spans;
            let root = rec.open(OP, op.index);
            let result: Result<Vec<Counts>, RadError> = specs
                .iter()
                .map(|spec| traced_document(rec, spec, self.bundle.as_deref(), &self.tmp))
                .collect();
            rec.close(root);
            traced.ops += 1;
            match result {
                Ok(counts) => {
                    if counts != *expected {
                        traced.problems.push(format!(
                            "seed {}: traced decomposition {counts:?} != run_scenario {expected:?}",
                            op.seed
                        ));
                    }
                    let first = &counts[0];
                    if let Some(dir) = &self.bundle {
                        if let Err(problem) = check_bundle(dir, first.traces) {
                            traced.problems.push(format!("seed {}: {problem}", op.seed));
                        }
                        traced.sample("export.files", first.exported_files as f64);
                        traced.sample("export.bytes", bundle_bytes(dir)? as f64);
                    }
                    if let (Some(rows), Some(pruned)) = (first.window_rows, first.window_pruned) {
                        traced.sample("segment.window_rows", rows as f64);
                        traced.sample("segment.pruned", pruned as f64);
                    }
                }
                Err(e) => {
                    eprintln!("traced op {} (seed {}) failed: {e}", op.index, op.seed);
                    traced.failed += 1;
                }
            }
            self.clean()?;
        }
        Ok(traced)
    }

    fn tear_down(self: Box<Self>) -> Result<(), RadError> {
        Ok(())
    }
}

/// `run_scenario`'s in-process path, one layer call at a time.
fn traced_document(
    rec: &mut Recorder,
    spec: &ScenarioSpec,
    bundle: Option<&Path>,
    tmp: &Path,
) -> Result<Counts, RadError> {
    let builder = CampaignBuilder::from_spec(spec.to_campaign_spec());
    let mut counts = Counts::default();
    let dataset = if spec.durable.is_some() {
        let store = tmp.join(format!("store-{}", spec.name));
        if spec.injects_crash() {
            match rec.time("campaign.crash_build", || builder.build_resumable(&store)) {
                Ok(dataset) => dataset,
                Err(_crash) => {
                    counts.resumed_after_crash = true;
                    rec.time("campaign.resume_from", || builder.resume_from(&store))?
                }
            }
        } else {
            rec.time("campaign.build_resumable", || {
                builder.build_resumable(&store)
            })?
        }
    } else {
        rec.time("campaign.build", || builder.build())
    };
    counts.traces = dataset.command().len() as u64;
    counts.gaps = dataset.command().gaps().len() as u64;

    let alerts = match &spec.detect {
        Some(detect) => {
            let detector = rec.time("detect.fit", || {
                fit_detector(&dataset, detect.perplexity.order)
            })?;
            rec.time_counted("detect.stream", || {
                let outcome = detect_campaign_spec(&dataset, &detector, detect);
                (outcome, counts.traces)
            })?
            .alerts
        }
        None => Vec::new(),
    };
    counts.alerts = alerts.len() as u64;

    if let Some(out) = bundle {
        let files = rec.time("export.bundle", || {
            export_rad_alerted(dataset.command(), dataset.power(), &alerts, out, None)
        })?;
        counts.exported_files = files as u64;
    }

    if let Some(replay) = &spec.replay {
        let seg_dir = bundle.map_or_else(|| tmp.join("segments"), |out| out.join("segments"));
        rec.time_counted("segment.seal", || {
            let sealed = SegmentWriter::create(&seg_dir, SegmentOptions::default())
                .and_then(|mut writer| writer.seal_traces(dataset.command().batch()));
            (sealed, counts.traces)
        })?;
        let (rows, pruned) = rec.time_counted("segment.replay", || {
            let scanned = replay_window(&seg_dir, replay.start_us, replay.end_us);
            let rows = scanned.as_ref().map_or(0, |&(rows, _)| rows);
            (scanned, rows)
        })?;
        counts.window_rows = Some(rows);
        counts.window_pruned = Some(pruned);
        if bundle.is_none() {
            rec.time("segment.cleanup", || remove(&seg_dir))?;
        }
    }
    // Freeing a full-scale dataset is a visible part of the op.
    rec.time("campaign.drop", move || drop(dataset));
    Ok(counts)
}

/// Rows inside the window and segments pruned without opening.
fn replay_window(dir: &Path, start_us: u64, end_us: u64) -> Result<(u64, u64), RadError> {
    let mut scan = SegmentSet::open(dir)?.scan_time_range(start_us, end_us)?;
    let pruned = scan.pruned() as u64;
    let mut rows = 0u64;
    while let Some(batch) = scan.next_batch()? {
        rows += batch.len() as u64;
    }
    Ok((rows, pruned))
}

/// The bundle is complete and its manifest counts every trace.
fn check_bundle(dir: &Path, traces: u64) -> Result<(), String> {
    if !bundle_is_complete(dir) {
        return Err(format!("bundle {} is incomplete", dir.display()));
    }
    let text = std::fs::read_to_string(dir.join("MANIFEST.json")).map_err(|e| e.to_string())?;
    let manifest: serde_json::Value = serde_json::from_str(&text).map_err(|e| format!("{e:?}"))?;
    match manifest["trace_objects"].as_u64() {
        Some(n) if n == traces => Ok(()),
        other => Err(format!(
            "manifest trace_objects {other:?} != {traces} traces"
        )),
    }
}

/// Bytes the export wrote: every file of the bundle outside the
/// replay's `segments/`.
fn bundle_bytes(dir: &Path) -> Result<u64, RadError> {
    let mut total = 0;
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in std::fs::read_dir(&next).map_err(scratch_error)? {
            let entry = entry.map_err(scratch_error)?;
            let meta = entry.metadata().map_err(scratch_error)?;
            if meta.is_dir() {
                if entry.file_name() != "segments" {
                    pending.push(entry.path());
                }
            } else {
                total += meta.len();
            }
        }
    }
    Ok(total)
}
