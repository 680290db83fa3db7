//! On-disk export of the RAD bundle — the "open-source the dataset"
//! deliverable.
//!
//! [`export_rad`] writes a directory shaped like the published
//! artifact: `commands.csv` (the command dataset), `runs.csv` (the
//! supervised-run metadata with labels and operator notes),
//! `power/<run>-<n>.csv` (one 122-column telemetry table per
//! recording), and a `MANIFEST.json` describing the bundle.
//! [`import_commands`] reads the command half back.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use rad_core::par::max_workers;
use rad_core::{Alert, Label, ProcedureKind, RadError, RunId, RunMetadata, TraceBatch, TraceGap};
use rad_power::PowerBlock;
use serde_json::json;

use crate::csv;
use crate::dataset::{CommandDataset, PowerDataset};
use crate::wal::{atomic_write_file, stage_stream, sync_dir, temp_path, CrashInjector, CrashSite};

fn io_err(context: &str, e: std::io::Error) -> RadError {
    RadError::Store(format!("{context}: {e}"))
}

/// One quarantined record found while loading a bundle leniently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadIssue {
    /// Where the damage is: `"commands.csv line 17"`, ...
    pub location: String,
    /// Why the record was rejected.
    pub reason: String,
}

impl fmt::Display for LoadIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.location, self.reason)
    }
}

/// Outcome of a lenient load: how much survived, what was set aside.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records successfully loaded.
    pub loaded: usize,
    /// Records skipped, one issue each.
    pub issues: Vec<LoadIssue>,
}

impl LoadReport {
    /// Records skipped because of damage.
    pub fn skipped(&self) -> usize {
        self.issues.len()
    }

    /// Whether every record loaded cleanly.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loaded={} skipped={}", self.loaded, self.skipped())?;
        for issue in &self.issues {
            write!(f, "\n  {issue}")?;
        }
        Ok(())
    }
}

/// Writes the full RAD bundle under `dir` (created if missing).
/// Returns the number of files written.
///
/// Every file is encoded into an fsynced temp file, on one worker per
/// core ([`rad_core::par::max_workers`]). The calling thread then
/// renames the temps into place in bundle order, fsyncs `power/` and
/// `dir`, and writes `MANIFEST.json` last, fsyncing `dir` again. A
/// crash at any point therefore leaves either a complete bundle or one
/// that is recognizably partial (no `MANIFEST.json`) — never a
/// truncated file posing as a complete one — and the renamed files are
/// always a prefix of the bundle order. Encoders stream through a
/// fixed-size buffer, so neither a file nor the bundle is ever held in
/// memory.
///
/// # Errors
///
/// Returns [`RadError::Store`] on any filesystem failure.
pub fn export_rad(
    commands: &CommandDataset,
    power: &PowerDataset,
    dir: &Path,
) -> Result<usize, RadError> {
    export_rad_with(commands, power, dir, None)
}

/// [`export_rad`] with an optional crash injector threaded through the
/// atomic writes — the crash matrix uses this to prove no partial
/// bundle ever looks complete.
///
/// # Errors
///
/// Returns [`RadError::Store`] on filesystem failures or injected
/// crashes.
pub fn export_rad_with(
    commands: &CommandDataset,
    power: &PowerDataset,
    dir: &Path,
    injector: Option<&CrashInjector>,
) -> Result<usize, RadError> {
    export_rad_alerted(commands, power, &[], dir, injector)
}

/// [`export_rad_with`] plus the campaign's detection alerts: a
/// non-empty `alerts` slice lands as `alerts.csv` (the same
/// present-only-when-non-empty policy as `gaps.csv`) and is counted in
/// the manifest either way.
///
/// # Errors
///
/// Returns [`RadError::Store`] on filesystem failures or injected
/// crashes.
pub fn export_rad_alerted(
    commands: &CommandDataset,
    power: &PowerDataset,
    alerts: &[Alert],
    dir: &Path,
    injector: Option<&CrashInjector>,
) -> Result<usize, RadError> {
    let bundle = Bundle {
        traces: commands.batch(),
        runs: commands.runs(),
        gaps: commands.gaps(),
        alerts,
        power: power
            .recordings()
            .iter()
            .map(|r| (r.procedure, r.run_id, r.profile.block()))
            .collect(),
    };
    write_bundle(bundle, dir, injector)
}

/// Everything one bundle publishes.
struct Bundle<'a> {
    traces: &'a TraceBatch,
    runs: &'a [RunMetadata],
    gaps: &'a [TraceGap],
    alerts: &'a [Alert],
    /// `(procedure, run, ticks)` of each power recording, in order.
    power: Vec<(ProcedureKind, RunId, &'a PowerBlock)>,
}

/// Encodes one bundle file into its temp file.
type Encode<'a> = Box<dyn FnOnce(&mut dyn Write) -> io::Result<()> + Send + 'a>;

/// The one bundle writer behind every public exporter: it alone names
/// the files, orders them, and fills the manifest.
///
/// Crash sites are visited on the calling thread in bundle order:
/// [`CrashSite::MidCompaction`] once per file before any is staged
/// (leaving a torn temp file), [`CrashSite::MidRename`] once per
/// rename. `CrashPlan::at(site, k)` therefore kills the same file
/// whatever the core count.
fn write_bundle(
    bundle: Bundle<'_>,
    dir: &Path,
    injector: Option<&CrashInjector>,
) -> Result<usize, RadError> {
    let Bundle {
        traces,
        runs,
        gaps,
        alerts,
        power,
    } = bundle;
    let power_dir = dir.join("power");
    fs::create_dir_all(&power_dir).map_err(|e| io_err("creating power dir", e))?;

    let supervised_runs = runs.iter().filter(|r| r.label() != Label::Unknown).count();
    let power_entries: usize = power.iter().map(|(_, _, block)| block.len()).sum();
    let trace_objects = traces.len();

    let mut files: Vec<(PathBuf, Encode<'_>)> = vec![
        (
            dir.join("commands.csv"),
            Box::new(move |w| csv::write_traces_csv(w, traces)),
        ),
        (
            dir.join("runs.csv"),
            Box::new(move |w| w.write_all(runs_csv(runs).as_bytes())),
        ),
    ];
    // Trace gaps are part of the published record: a bundle collected
    // through an outage says so explicitly instead of shrinking.
    if !gaps.is_empty() {
        files.push((
            dir.join("gaps.csv"),
            Box::new(move |w| w.write_all(csv::gaps_to_csv(gaps).as_bytes())),
        ));
    }
    if !alerts.is_empty() {
        files.push((
            dir.join("alerts.csv"),
            Box::new(move |w| w.write_all(csv::alerts_to_csv(alerts).as_bytes())),
        ));
    }
    for (i, &(procedure, run_id, block)) in power.iter().enumerate() {
        let name = format!("{}-{:04}-{}.csv", procedure.paper_id(), i, run_id.0);
        files.push((
            power_dir.join(name),
            Box::new(move |w| csv::write_power_csv(w, block)),
        ));
    }

    // Manifest last: its presence certifies the bundle is complete.
    let manifest = json!({
        "dataset": "RAD (simulated reproduction)",
        "trace_objects": trace_objects,
        "runs": runs.len(),
        "supervised_runs": supervised_runs,
        "trace_gaps": gaps.len(),
        "alerts": alerts.len(),
        "power_recordings": power.len(),
        "power_entries": power_entries,
        "files": files.len() + 1,
    });

    let mut staged = Vec::with_capacity(files.len());
    let mut renames = Vec::with_capacity(files.len());
    for (path, encode) in files {
        let tmp = temp_path(&path)?;
        if let Some(err) = injector.and_then(|i| i.trip(CrashSite::MidCompaction)) {
            // A torn temp file; no final name is touched.
            let _ = fs::write(&tmp, b"");
            return Err(err);
        }
        staged.push((tmp.clone(), encode));
        renames.push((tmp, path));
    }
    stage_all(staged)?;

    for (tmp, path) in &renames {
        if let Some(err) = injector.and_then(|i| i.trip(CrashSite::MidRename)) {
            // Temp file complete, rename never happened.
            return Err(err);
        }
        fs::rename(tmp, path).map_err(|e| io_err("renaming temp file into place", e))?;
    }
    sync_dir(&power_dir)?;
    sync_dir(dir)?;

    atomic_write_file(
        &dir.join("MANIFEST.json"),
        serde_json::to_string_pretty(&manifest)
            .expect("manifest serializes")
            .as_bytes(),
        injector,
    )?;
    sync_dir(dir)?;
    Ok(renames.len() + 1)
}

/// Encodes every `(tmp, encode)` file into its fsynced temp file on
/// [`max_workers`] threads, which take the files in order.
///
/// # Errors
///
/// The first staging failure, by worker.
fn stage_all(files: Vec<(PathBuf, Encode<'_>)>) -> Result<(), RadError> {
    let queue = Mutex::new(files.into_iter());
    let results: Vec<Result<(), RadError>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..max_workers())
            .map(|_| {
                s.spawn(|| loop {
                    // Bind first: the queue lock must not be held while
                    // the file is encoded.
                    let next = queue.lock().next();
                    let Some((tmp, encode)) = next else {
                        return Ok(());
                    };
                    stage_stream(&tmp, encode)?;
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a staging worker panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// Encodes the `runs.csv` metadata table.
fn runs_csv(runs: &[RunMetadata]) -> String {
    let mut out = String::from("run_id,procedure,label,note\n");
    for run in runs {
        out.push_str(&csv::encode_row(&[
            run.run_id().0.to_string(),
            run.kind().paper_id().to_owned(),
            run.label().to_string(),
            run.operator_note().unwrap_or_default().to_owned(),
        ]));
        out.push('\n');
    }
    out
}

/// Whether `dir` holds a complete bundle: [`export_rad`] writes the
/// manifest last, so its absence marks an export that died partway.
pub fn bundle_is_complete(dir: &Path) -> bool {
    dir.join("MANIFEST.json").exists()
}

/// Reads the command half of a bundle back from `dir`, joining the
/// run metadata from `runs.csv` when present. Strict: the first
/// damaged row fails the import.
///
/// # Errors
///
/// Returns [`RadError::Store`] on filesystem or parse failures.
pub fn import_commands(dir: &Path) -> Result<CommandDataset, RadError> {
    let (ds, report) = import_commands_with(dir, true)?;
    debug_assert!(report.is_clean(), "strict import cannot report issues");
    Ok(ds)
}

/// [`import_commands`] with a strictness switch. In lenient mode
/// (`strict = false`) damaged trace rows are quarantined into the
/// [`LoadReport`] — named by line and reason — and the rest of the
/// bundle still loads.
///
/// # Errors
///
/// In strict mode, any damaged row. In lenient mode only structural
/// failures: missing `commands.csv`, a wrong header, or damaged run
/// metadata (`runs.csv` rows are join keys for labels; dropping one
/// silently would mislabel traces).
pub fn import_commands_with(
    dir: &Path,
    strict: bool,
) -> Result<(CommandDataset, LoadReport), RadError> {
    let text = fs::read_to_string(dir.join("commands.csv"))
        .map_err(|e| io_err("reading commands.csv", e))?;
    let mut report = LoadReport::default();
    let traces = if strict {
        csv::traces_from_csv(&text)?
    } else {
        let (traces, issues) = csv::traces_from_csv_report(&text)?;
        report
            .issues
            .extend(issues.into_iter().map(|(line, reason)| LoadIssue {
                location: format!("commands.csv line {line}"),
                reason,
            }));
        traces
    };
    report.loaded = traces.len();
    let runs = match fs::read_to_string(dir.join("runs.csv")) {
        Ok(runs_text) => parse_runs_csv(&runs_text)?,
        Err(_) => Vec::new(), // bundles without the metadata table
    };
    let gaps = match fs::read_to_string(dir.join("gaps.csv")) {
        Ok(gaps_text) => csv::gaps_from_csv(&gaps_text)?,
        Err(_) => Vec::new(), // fault-free bundles have no gap table
    };
    Ok((
        CommandDataset::from_parts(traces, runs).with_gaps(gaps),
        report,
    ))
}

/// Reads the detection alerts of a bundle back from `dir`. A bundle
/// whose campaign raised no alerts writes no `alerts.csv`, so a
/// missing table reads back as the empty set, not an error.
///
/// # Errors
///
/// Returns [`RadError::Store`] when `alerts.csv` exists but is
/// malformed.
pub fn import_alerts(dir: &Path) -> Result<Vec<Alert>, RadError> {
    match fs::read_to_string(dir.join("alerts.csv")) {
        Ok(text) => csv::alerts_from_csv(&text),
        Err(_) => Ok(Vec::new()),
    }
}

/// Parses the `runs.csv` table written by [`export_rad`].
///
/// # Errors
///
/// Returns [`RadError::Store`] on malformed rows.
pub fn parse_runs_csv(text: &str) -> Result<Vec<rad_core::RunMetadata>, RadError> {
    use rad_core::{Label, ProcedureKind, RunId, RunMetadata, SimInstant};
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 || line.is_empty() {
            continue; // header
        }
        let fields = csv::decode_row(line)?;
        if fields.len() != 4 {
            return Err(RadError::Store(format!(
                "runs.csv row {i} has {} fields",
                fields.len()
            )));
        }
        let run_id = RunId(
            fields[0]
                .parse()
                .map_err(|_| RadError::Store(format!("bad run id {}", fields[0])))?,
        );
        let kind: ProcedureKind = fields[1].parse()?;
        let label: Label = fields[2].parse()?;
        let mut meta = RunMetadata::new(run_id, kind, SimInstant::EPOCH).with_label(label);
        if !fields[3].is_empty() {
            meta = meta.with_note(fields[3].clone());
        }
        out.push(meta);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::{
        Command, CommandType, DeviceId, Label, ProcedureKind, RunId, RunMetadata, SimInstant,
        TraceId, TraceObject,
    };
    use serde_json::json;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rad-export-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_dataset() -> CommandDataset {
        let mut ds = CommandDataset::new();
        ds.add_run(
            RunMetadata::new(
                RunId(0),
                ProcedureKind::JoystickMovements,
                SimInstant::EPOCH,
            )
            .with_label(Label::Benign)
            .with_note("note, with comma"),
        );
        for i in 0..5 {
            ds.push_trace(
                TraceObject::builder(
                    TraceId(i),
                    SimInstant::from_micros(i * 1000),
                    DeviceId::primary(rad_core::DeviceKind::C9),
                    Command::nullary(CommandType::Mvng),
                )
                .run(ProcedureKind::JoystickMovements, RunId(0), Label::Benign)
                .build(),
            );
        }
        ds
    }

    #[test]
    fn bundle_round_trips_the_command_half() {
        let dir = tmpdir("bundle");
        let ds = small_dataset();
        let files = export_rad(&ds, &PowerDataset::new(), &dir).unwrap();
        assert!(files >= 3, "commands, runs, manifest");
        assert!(dir.join("MANIFEST.json").exists());
        let back = import_commands(&dir).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.traces()[3].command_type(), CommandType::Mvng);
        // Run metadata (including the quoted note) survives the trip.
        assert_eq!(back.runs().len(), 1);
        assert_eq!(back.runs()[0].operator_note(), Some("note, with comma"));
        assert_eq!(back.runs()[0].label(), Label::Benign);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gaps_csv_round_trips_through_the_bundle() {
        use rad_core::{DeviceKind, TraceGap, TraceMode};
        let dir = tmpdir("gaps");
        let ds = small_dataset().with_gaps(vec![TraceGap::new(
            SimInstant::from_micros(123),
            DeviceId::primary(DeviceKind::C9),
            CommandType::Arm,
            TraceMode::Remote,
            "middlebox unavailable",
        )
        .with_run(RunId(0))]);
        export_rad(&ds, &PowerDataset::new(), &dir).unwrap();
        assert!(dir.join("gaps.csv").exists());
        let manifest: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(dir.join("MANIFEST.json")).unwrap()).unwrap();
        assert_eq!(manifest["trace_gaps"], json!(1));
        let back = import_commands(&dir).unwrap();
        assert_eq!(back.gaps(), ds.gaps());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_free_bundles_omit_the_gap_table() {
        let dir = tmpdir("nogaps");
        export_rad(&small_dataset(), &PowerDataset::new(), &dir).unwrap();
        assert!(!dir.join("gaps.csv").exists());
        assert!(import_commands(&dir).unwrap().gaps().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn alerts_csv_round_trips_through_the_bundle() {
        use rad_core::{Alert, DeviceKind};
        let dir = tmpdir("alerts");
        let alerts = vec![
            Alert {
                detector: "perplexity".into(),
                device: DeviceKind::C9,
                run_id: Some(RunId(0)),
                window_start: SimInstant::from_micros(0),
                window_end: SimInstant::from_micros(4000),
                score: 17.25,
                threshold: 0.1 + 0.2,
            },
            Alert {
                detector: "power.rms".into(),
                device: DeviceKind::Ur3e,
                run_id: None,
                window_start: SimInstant::from_micros(10),
                window_end: SimInstant::from_micros(20),
                score: f64::MIN_POSITIVE,
                threshold: 3.0,
            },
        ];
        export_rad_alerted(&small_dataset(), &PowerDataset::new(), &alerts, &dir, None).unwrap();
        assert!(dir.join("alerts.csv").exists());
        let manifest: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(dir.join("MANIFEST.json")).unwrap()).unwrap();
        assert_eq!(manifest["alerts"], json!(2));
        assert_eq!(import_alerts(&dir).unwrap(), alerts);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quiet_bundles_omit_the_alert_table() {
        let dir = tmpdir("noalerts");
        export_rad(&small_dataset(), &PowerDataset::new(), &dir).unwrap();
        assert!(!dir.join("alerts.csv").exists());
        let manifest: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(dir.join("MANIFEST.json")).unwrap()).unwrap();
        assert_eq!(manifest["alerts"], json!(0));
        assert!(import_alerts(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_counts_match() {
        let dir = tmpdir("manifest");
        let ds = small_dataset();
        export_rad(&ds, &PowerDataset::new(), &dir).unwrap();
        let manifest: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(dir.join("MANIFEST.json")).unwrap()).unwrap();
        assert_eq!(manifest["trace_objects"], json!(5));
        assert_eq!(manifest["supervised_runs"], json!(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_from_missing_dir_fails_cleanly() {
        let err = import_commands(Path::new("/nonexistent/rad")).unwrap_err();
        assert!(err.to_string().contains("commands.csv"));
    }

    #[test]
    fn lenient_import_skips_damaged_rows_and_reports_lines() {
        let dir = tmpdir("lenientcsv");
        export_rad(&small_dataset(), &PowerDataset::new(), &dir).unwrap();
        // Scribble over one data row of commands.csv.
        let path = dir.join("commands.csv");
        let mut lines: Vec<String> = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines[3] = "garbage,row".into();
        fs::write(&path, lines.join("\n")).unwrap();

        assert!(import_commands(&dir).is_err(), "strict import fails");
        let (ds, report) = import_commands_with(&dir, false).unwrap();
        assert_eq!(ds.len(), 4, "the four healthy rows load");
        assert_eq!(report.skipped(), 1);
        assert_eq!(report.issues[0].location, "commands.csv line 4");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Three short recordings whose procedures are out of name order,
    /// so the bundle order is not the directory listing's.
    fn small_power() -> PowerDataset {
        use rad_power::{CurrentProfile, PowerSample};
        let mut power = PowerDataset::new();
        for (i, procedure) in [
            ProcedureKind::AutomatedSolubilityN9Ur3e,
            ProcedureKind::JoystickMovements,
            ProcedureKind::AutomatedSolubilityN9,
        ]
        .into_iter()
        .enumerate()
        {
            let ticks = (0..3)
                .map(|t| PowerSample::quiescent(0.04 * t as f64, [0.1 * i as f64; 6]))
                .collect();
            power.push(crate::dataset::PowerRecording {
                procedure,
                run_id: RunId(i as u32),
                description: String::new(),
                profile: CurrentProfile::from_samples(ticks),
            });
        }
        power
    }

    #[test]
    fn crashed_export_never_looks_complete() {
        use crate::wal::{CrashInjector, CrashPlan, CrashSite};
        let ds = small_dataset();
        for power in [PowerDataset::new(), small_power()] {
            // The bundle order: every file the export renames, then the
            // manifest.
            let mut order = vec![std::path::PathBuf::from("commands.csv"), "runs.csv".into()];
            for (i, r) in power.recordings().iter().enumerate() {
                let name = format!("{}-{:04}-{}.csv", r.procedure.paper_id(), i, r.run_id.0);
                order.push(Path::new("power").join(name));
            }
            order.push("MANIFEST.json".into());
            // Kill the export at every write site in turn: whatever
            // survives, the manifest-last ordering marks the bundle partial.
            for occurrence in 0..order.len() as u64 {
                for site in [CrashSite::MidCompaction, CrashSite::MidRename] {
                    let dir = tmpdir(&format!(
                        "atomic-{site}-{occurrence}-{}",
                        power.recordings().len()
                    ));
                    let injector = CrashInjector::new(CrashPlan::at(site, occurrence));
                    let err = export_rad_with(&ds, &power, &dir, Some(&injector)).unwrap_err();
                    assert!(err.to_string().contains("injected crash"), "{err}");
                    assert!(
                        !super::bundle_is_complete(&dir),
                        "{site}/{occurrence}: a crashed export must not look complete"
                    );
                    // Whatever files did land are complete, parseable files.
                    if dir.join("commands.csv").exists() {
                        let text = fs::read_to_string(dir.join("commands.csv")).unwrap();
                        assert_eq!(csv::traces_from_csv(&text).unwrap().len(), ds.len());
                    }
                    // ...and they are a prefix of the bundle order, one
                    // file per rename that went through.
                    let landed = order.iter().take_while(|f| dir.join(f).exists()).count();
                    assert!(
                        order[landed..].iter().all(|f| !dir.join(f).exists()),
                        "{site}/{occurrence}: landed files are not a prefix"
                    );
                    if site == CrashSite::MidRename {
                        assert_eq!(landed as u64, occurrence, "{site}/{occurrence}");
                    }
                    let _ = fs::remove_dir_all(&dir);
                }
            }
            // Past the last write site the export completes untouched.
            let dir = tmpdir("atomic-clean");
            let injector = CrashInjector::new(CrashPlan::at(CrashSite::MidRename, 99));
            export_rad_with(&ds, &power, &dir, Some(&injector)).unwrap();
            assert!(super::bundle_is_complete(&dir));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
