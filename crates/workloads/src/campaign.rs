//! The three-month campaign synthesizer.
//!
//! §IV: RAD was collected over three months of real lab activity — 25
//! supervised procedure runs plus a long tail of prototyping scripts
//! and unsupervised experiments, 128,785 trace objects in total with
//! the per-device mix of Fig. 5(a). [`CampaignBuilder`] reproduces
//! that: it executes the 25 supervised runs in Fig. 6's id order (P4
//! first, then P1, P2, P3, with the narrated anomalies planted at runs
//! 16, 17, and 22), optionally runs the P5/P6 power experiments, and
//! then synthesizes unsupervised filler activity until each device's
//! trace count matches its Fig. 5(a) share.

use std::path::Path;

use rad_core::{
    AnomalyCause, Command, CommandType, DeviceKind, Label, ProcedureKind, RadError, RunId,
    RunMetadata, SimDuration, TraceBatch, Value,
};
use rad_middlebox::{FaultPlan, Middlebox};
use rad_store::{CommandDataset, CrashPlan, DurableOptions, DurableStore, Filter, PowerDataset};
use serde_json::{json, Value as Json};

use crate::procedures::{self, P1Variant, P2Variant, P3Variant, SOLIDS};
use crate::session::{RunEnd, Session};

/// Checkpoint the durable sink after this many supervised runs.
const CHECKPOINT_EVERY_RUNS: u32 = 8;

/// Description of one supervised run executed by the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcedureRun {
    /// Fig. 6 run id (0–24).
    pub run_id: RunId,
    /// Procedure type.
    pub kind: ProcedureKind,
    /// Ground-truth label.
    pub label: Label,
    /// How the run ended.
    pub end: RunEnd,
}

/// The synthesized RAD: both halves plus the supervised-run journal.
#[derive(Debug)]
pub struct CampaignDataset {
    command: CommandDataset,
    power: PowerDataset,
    journal: Vec<ProcedureRun>,
}

impl CampaignDataset {
    /// The command dataset (trace objects + run metadata).
    pub fn command(&self) -> &CommandDataset {
        &self.command
    }

    /// The power dataset (25 Hz UR3e telemetry).
    pub fn power(&self) -> &PowerDataset {
        &self.power
    }

    /// The journal of supervised runs in execution (= Fig. 6 id)
    /// order.
    pub fn journal(&self) -> &[ProcedureRun] {
        &self.journal
    }

    /// Metadata of the supervised runs (delegates to the command
    /// dataset).
    pub fn supervised_runs(&self) -> Vec<&RunMetadata> {
        self.command.supervised_runs()
    }

    /// Consumes the campaign into its parts.
    pub fn into_parts(self) -> (CommandDataset, PowerDataset, Vec<ProcedureRun>) {
        (self.command, self.power, self.journal)
    }
}

/// Builds RAD-shaped campaigns.
///
/// # Examples
///
/// ```
/// use rad_workloads::CampaignBuilder;
///
/// // A miniature campaign: the 25 supervised runs only.
/// let dataset = CampaignBuilder::new(7).supervised_only().build();
/// assert_eq!(dataset.supervised_runs().len(), 25);
/// let anomalies = dataset
///     .journal()
///     .iter()
///     .filter(|r| r.label.is_anomalous())
///     .count();
/// assert_eq!(anomalies, 3);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    spec: CampaignSpec,
}

/// The resolved configuration of a campaign — every knob
/// [`CampaignBuilder`] exposes, as one plain value.
///
/// This is the canonical construction path: the builder stores a
/// `CampaignSpec` and its setters are thin wrappers over these fields,
/// so a hand-wired builder and [`CampaignBuilder::from_spec`] are the
/// same code path by construction. The scenario plane
/// ([`crate::scenario::ScenarioSpec`]) produces one of these from a
/// JSON document.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Master seed of the campaign.
    pub seed: u64,
    /// Unsupervised-filler scale factor.
    pub scale: f64,
    /// Whether the unsupervised filler runs.
    pub fillers: bool,
    /// Whether the P5/P6 power experiments run.
    pub power_experiments: bool,
    /// Seeded wire-fault schedule, if any.
    pub fault_plan: Option<FaultPlan>,
    /// Durable-store tuning override, if any, including the seeded
    /// persistence-crash schedule.
    pub durable_options: Option<DurableOptions>,
}

impl CampaignSpec {
    /// The default full-scale configuration under `seed` — what
    /// [`CampaignBuilder::new`] starts from.
    pub fn new(seed: u64) -> Self {
        CampaignSpec {
            seed,
            scale: 1.0,
            fillers: true,
            power_experiments: true,
            fault_plan: None,
            durable_options: None,
        }
    }
}

impl CampaignBuilder {
    /// A full-scale campaign (≈128,785 traces) with power experiments.
    pub fn new(seed: u64) -> Self {
        CampaignBuilder {
            spec: CampaignSpec::new(seed),
        }
    }

    /// A builder over an already-resolved configuration — the
    /// scenario plane's entry point. Equivalent to chaining the
    /// hand-wired setters for every populated field.
    ///
    /// # Panics
    ///
    /// Panics if `spec.scale` is not finite or not positive, matching
    /// [`CampaignBuilder::scale`].
    pub fn from_spec(spec: CampaignSpec) -> Self {
        assert!(
            spec.scale.is_finite() && spec.scale > 0.0,
            "scale must be positive"
        );
        CampaignBuilder { spec }
    }

    /// The builder's resolved configuration.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Keep only the 25 supervised runs: no filler, no P5/P6. The
    /// cheapest configuration, used by tests and the Fig. 6 / Table I
    /// benches.
    #[must_use]
    pub fn supervised_only(mut self) -> Self {
        self.spec.fillers = false;
        self.spec.power_experiments = false;
        self
    }

    /// Scales the unsupervised filler: per-device targets become
    /// `round(paper_count * scale)`. `scale(1.0)` reproduces the full
    /// 128,785-trace corpus; smaller values make faster corpora with
    /// the same mix.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite or not positive.
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        self.spec.scale = scale;
        self
    }

    /// Enables/disables the P5/P6 power experiments.
    #[must_use]
    pub fn power_experiments(mut self, on: bool) -> Self {
        self.spec.power_experiments = on;
        self
    }

    /// Runs the campaign's relay traffic through a seeded
    /// [`FaultPlan`]: REMOTE/CLOUD commands suffer the plan's drop /
    /// corrupt / reorder / disconnect schedule, retries cost simulated
    /// latency, and commands the middlebox never sees are degraded to
    /// DIRECT with a [`rad_core::TraceGap`] marker in the dataset.
    ///
    /// The plan is part of the builder, so [`CampaignBuilder::build_many`]
    /// replays the same fault campaign under every seed. Pair it with
    /// [`CampaignBuilder::supervised_only`]: the unsupervised filler
    /// steers by *delivered* trace counts, so a plan that converts
    /// traces into gaps can keep the filler from converging.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.spec.fault_plan = Some(plan);
        self
    }

    /// The fault plan, if one is configured.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.spec.fault_plan.as_ref()
    }

    /// Schedules a process crash inside [`CampaignBuilder::build_resumable`]'s
    /// persistence path. Like the fault plan, the crash plan is pure in
    /// `(seed, site, index)`, so the same build dies at the same write
    /// in every run. [`CampaignBuilder::resume_from`] ignores it — a
    /// recovery is a fresh, healthy process.
    ///
    /// The plan is stored as the durable options' `crash_plan`, so set
    /// [`CampaignBuilder::with_durable_options`] first: options set
    /// afterwards replace the plan.
    #[must_use]
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.spec
            .durable_options
            .get_or_insert_with(DurableOptions::default)
            .crash_plan = Some(plan);
        self
    }

    /// Overrides the durable store's WAL/checkpoint tuning used by
    /// [`CampaignBuilder::build_resumable`] and
    /// [`CampaignBuilder::resume_from`] (tests shrink `segment_bytes`
    /// so rotation happens within a small campaign).
    #[must_use]
    pub fn with_durable_options(mut self, options: DurableOptions) -> Self {
        self.spec.durable_options = Some(options);
        self
    }

    /// Replaces the seed, keeping every other knob. Used by
    /// [`CampaignBuilder::build_many`] to derive per-campaign builders.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Builds one campaign per seed, fanning out across cores when
    /// the machine has them (one scoped thread per seed). Each
    /// campaign is an independent simulation, so the result at index
    /// `i` is identical to `self.clone().with_seed(seeds[i]).build()`
    /// — only wall-clock time changes. This is the fast path for
    /// multi-seed experiment sweeps (ablations, robustness-over-seeds
    /// runs). On a single-core box (or for a single seed) it runs
    /// sequentially: spawning threads that can never overlap only
    /// adds stack allocation and scheduler churn.
    pub fn build_many(&self, seeds: &[u64]) -> Vec<CampaignDataset> {
        if rad_core::par::should_fan_out(seeds.len(), seeds.len(), 1).is_none() {
            return seeds
                .iter()
                .map(|&seed| self.clone().with_seed(seed).build())
                .collect();
        }
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    let builder = self.clone().with_seed(seed);
                    s.spawn(move || builder.build())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        })
    }

    /// Runs the campaign.
    ///
    /// # Panics
    ///
    /// Panics if a staged supervised run deviates from its script
    /// (which would indicate a bug in the simulators, not bad input).
    pub fn build(&self) -> CampaignDataset {
        self.run(None)
            .expect("a campaign without a durable sink cannot fail")
    }

    /// Runs the campaign while persisting every trace, gap, run, and
    /// journal entry through a [`DurableStore`] in `dir`. After each
    /// supervised run the delta is WAL-logged and fsynced: new traces
    /// go to the store's trace stream as columnar frames, the other
    /// streams as small JSON documents. Every `CHECKPOINT_EVERY_RUNS`
    /// runs, and once at the end, the store checkpoints, sealing the
    /// traces logged since into segment files. A process killed at any
    /// point (for real, or via [`CampaignBuilder::with_crash_plan`])
    /// leaves a store that [`CampaignBuilder::resume_from`] completes
    /// into a byte-identical dataset.
    ///
    /// Calling it on a directory that already holds a partial build of
    /// the *same* campaign continues persisting from where it stopped.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on filesystem failures or injected
    /// crashes, and [`RadError::CheckpointMismatch`] when `dir` holds a
    /// different campaign's data.
    pub fn build_resumable(&self, dir: &Path) -> Result<CampaignDataset, RadError> {
        let options = self.spec.durable_options.clone().unwrap_or_default();
        let (durable, _report) = DurableStore::open(dir, options)?;
        let mut sink = CampaignSink::attach(&durable, self.fingerprint())?;
        let dataset = self.run(Some(&mut sink))?;
        // The final checkpoint seals the traces logged since the last
        // one, so the whole stream ends up in segment files.
        durable.checkpoint()?;
        Ok(dataset)
    }

    /// Recovers a campaign from a (possibly crashed) durable store in
    /// `dir`: replays the WAL, verifies the persisted prefix against a
    /// deterministic re-simulation, persists whatever the crash cut
    /// off, checkpoints, and returns the dataset **reconstructed from
    /// the store** — byte-identical to an uninterrupted
    /// [`CampaignBuilder::build`] of the same builder.
    ///
    /// The simulation is cheap and seeded; the durable store is the
    /// crash-prone product. Resume therefore re-simulates instead of
    /// snapshotting simulator state. The persisted trace stream is
    /// compared with the simulated batch column by column, and the
    /// small documents record by record, so any divergence (foreign
    /// data, invented or corrupted records) is a typed error naming
    /// the first differing row instead of a silently wrong dataset.
    /// Each stream's missing suffix is then written with one append.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::CheckpointMismatch`] when the store's
    /// contents do not match this builder's campaign, and
    /// [`RadError::Store`] on filesystem failures.
    pub fn resume_from(&self, dir: &Path) -> Result<CampaignDataset, RadError> {
        // A recovery is a fresh, healthy process: no crash plan.
        let mut options = self.spec.durable_options.clone().unwrap_or_default();
        options.crash_plan = None;
        let (durable, _report) = DurableStore::open(dir, options)?;

        let fingerprint = self.fingerprint();
        if let Some(cursor) = durable.find("cursor", &Filter::all()).last() {
            let persisted = cursor
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("");
            if persisted != fingerprint {
                return Err(RadError::CheckpointMismatch {
                    reason: format!(
                        "store holds campaign `{persisted}`, builder is `{fingerprint}`"
                    ),
                });
            }
        }

        // Deterministic re-simulation of the uninterrupted campaign.
        let sim = self.run(None)?;

        // Verify the persisted prefixes, then persist the suffixes the
        // crash cut off.
        verify_and_complete_traces(&durable, sim.command.batch())?;
        verify_and_complete(&durable, "gaps", sim.command.gaps(), item_doc)?;
        verify_and_complete(&durable, "runs", sim.command.runs(), item_doc)?;
        verify_and_complete(&durable, "journal", &sim.journal, journal_doc)?;
        durable.delete("cursor", &Filter::all())?;
        durable.insert(
            "cursor",
            cursor_doc(
                sim.command.len(),
                sim.command.gaps().len(),
                sim.command.runs().len(),
                sim.journal.len(),
                &fingerprint,
            ),
        )?;
        // Same end state as an uninterrupted build: every trace sealed,
        // and a checkpoint.
        durable.checkpoint()?;

        // Reconstruct the command half from the store — the dataset
        // returned is what disk proves, not what memory remembers.
        let traces = durable.read_traces()?;
        let gaps = decode_items(&durable, "gaps")?;
        let runs = decode_items(&durable, "runs")?;
        let journal = decode_journal(&durable)?;
        Ok(CampaignDataset {
            command: CommandDataset::from_batch(traces, runs).with_gaps(gaps),
            power: sim.power,
            journal,
        })
    }

    /// Identity of this campaign's schedule: any two builders with the
    /// same fingerprint simulate byte-identical campaigns. The crash
    /// plan and durable tuning are deliberately excluded — they change
    /// *when persistence dies*, never what the campaign contains.
    fn fingerprint(&self) -> String {
        format!(
            "seed={} scale={} fillers={} power={} faults={:?}",
            self.spec.seed,
            self.spec.scale,
            self.spec.fillers,
            self.spec.power_experiments,
            self.spec.fault_plan
        )
    }

    fn run(&self, mut sink: Option<&mut CampaignSink<'_>>) -> Result<CampaignDataset, RadError> {
        let mut session = match &self.spec.fault_plan {
            Some(plan) => Session::with_middlebox(
                Middlebox::new(self.spec.seed).with_fault_plan(plan.clone()),
                self.spec.seed,
            ),
            None => Session::new(self.spec.seed),
        };
        let mut journal = Vec::new();

        // ---- The 25 supervised runs, Fig. 6 id order. ----
        let mut next_id = 0u32;
        for i in 0..12 {
            journal.push(run_p4(&mut session, RunId(next_id), 8 + (i % 4) * 3));
            next_id += 1;
            flush_sink(&mut sink, &session, &journal)?;
        }
        let p1_variants = [
            P1Variant::JoystickStart, // run 12
            P1Variant::Normal,        // 13
            P1Variant::Normal,        // 14
            P1Variant::Normal,        // 15
            P1Variant::DoorCrash,     // 16
        ];
        for (i, variant) in p1_variants.into_iter().enumerate() {
            journal.push(run_p1(
                &mut session,
                RunId(next_id),
                variant,
                SOLIDS[i % SOLIDS.len()],
            ));
            next_id += 1;
            flush_sink(&mut sink, &session, &journal)?;
        }
        let p2_variants = [
            P2Variant::DoorCrashEarly,   // 17
            P2Variant::WrongGripperStop, // 18
            P2Variant::Normal,           // 19
            P2Variant::Normal,           // 20
        ];
        for (i, variant) in p2_variants.into_iter().enumerate() {
            journal.push(run_p2(
                &mut session,
                RunId(next_id),
                variant,
                SOLIDS[i % SOLIDS.len()],
            ));
            next_id += 1;
            flush_sink(&mut sink, &session, &journal)?;
        }
        let p3_variants = [
            P3Variant::Normal,
            P3Variant::TecanCrash,
            P3Variant::Normal,
            P3Variant::Normal,
        ];
        for variant in p3_variants {
            journal.push(run_p3(&mut session, RunId(next_id), variant));
            next_id += 1;
            flush_sink(&mut sink, &session, &journal)?;
        }

        // ---- P5/P6 power experiments (not part of the 25). ----
        if self.spec.power_experiments {
            for velocity in [100.0, 200.0, 250.0] {
                session.begin_run(RunId(next_id), ProcedureKind::VelocitySweep, Label::Benign);
                procedures::p5_velocity_run(&mut session, velocity)
                    .expect("velocity sweep runs clean");
                session.annotate(&format!("velocity={velocity}mm/s"));
                session.end_run();
                reset_between_runs(&mut session);
                next_id += 1;
                flush_sink(&mut sink, &session, &journal)?;
            }
            for payload in [20.0, 500.0, 1000.0] {
                session.begin_run(RunId(next_id), ProcedureKind::PayloadSweep, Label::Benign);
                procedures::p6_payload_run(&mut session, payload)
                    .expect("payload sweep runs clean");
                session.annotate(&format!("payload={payload}g"));
                session.end_run();
                reset_between_runs(&mut session);
                next_id += 1;
                flush_sink(&mut sink, &session, &journal)?;
            }
        }

        // ---- Unsupervised filler to the Fig. 5(a) mix. ----
        if self.spec.fillers {
            self.fill_to_targets(&mut session);
        }

        flush_sink(&mut sink, &session, &journal)?;
        let (command, power) = session.finish();
        Ok(CampaignDataset {
            command,
            power,
            journal,
        })
    }

    /// Per-device trace-count targets.
    fn targets(&self) -> Vec<(DeviceKind, u64)> {
        DeviceKind::all()
            .iter()
            .map(|&d| {
                (
                    d,
                    (d.paper_trace_count() as f64 * self.spec.scale).round() as u64,
                )
            })
            .collect()
    }

    fn fill_to_targets(&self, session: &mut Session) {
        let targets = self.targets();
        // O(1): the tracer maintains per-device counts on the emit
        // path, so steering no longer rescans the whole trace log per
        // filler iteration.
        let count_for = |session: &Session, device: DeviceKind| -> u64 {
            session.middlebox().device_count(device)
        };

        // Bulk phase: realistic single-device prototyping scripts. Each
        // device's margin is an upper bound on its script's trace count
        // so the bulk phase never overshoots the target.
        for &(device, target) in &targets {
            let margin = match device {
                DeviceKind::C9 => 400,
                DeviceKind::Ika => 120,
                DeviceKind::Tecan => 80,
                DeviceKind::Quantos => 25,
                DeviceKind::Ur3e => 30,
            };
            loop {
                let current = count_for(session, device);
                if current + margin >= target {
                    break;
                }
                match device {
                    DeviceKind::C9 => {
                        procedures::joystick_session(session, 24)
                            .expect("joystick filler runs clean");
                    }
                    DeviceKind::Ika => ika_polling_script(session),
                    DeviceKind::Tecan => tecan_flush_script(session),
                    DeviceKind::Quantos => quantos_prototype_script(session),
                    DeviceKind::Ur3e => ur3e_prototype_script(session),
                }
                reset_between_runs(session);
            }
        }

        // Top-up phase: single safe commands to land exactly on target.
        for &(device, target) in &targets {
            let mut current = count_for(session, device);
            if current >= target {
                continue;
            }
            let (init, query) = match device {
                DeviceKind::C9 => (CommandType::InitC9, CommandType::Mvng),
                DeviceKind::Ika => (CommandType::InitIka, CommandType::IkaReadStirringSpeed),
                DeviceKind::Tecan => (CommandType::InitTecan, CommandType::TecanGetStatus),
                DeviceKind::Quantos => (CommandType::InitQuantos, CommandType::ZeroBalance),
                DeviceKind::Ur3e => (CommandType::InitUr3Arm, CommandType::OpenGripper),
            };
            session
                .issue(Command::nullary(init))
                .expect("init is always accepted");
            current += 1;
            while current < target {
                session
                    .issue(Command::nullary(query))
                    .expect("top-up query is always accepted");
                session.wait(SimDuration::from_millis(500));
                current += 1;
            }
        }
    }
}

/// Incremental persistence for a resumable campaign: tracks how much
/// of each stream (traces, gaps, run metadata, journal) has reached the
/// durable store and writes only the delta at each flush, so a crash
/// loses at most the work since the last supervised run.
struct CampaignSink<'a> {
    durable: &'a DurableStore,
    fingerprint: String,
    traces_done: usize,
    gaps_done: usize,
    runs_done: usize,
    journal_done: usize,
    runs_since_checkpoint: u32,
}

impl<'a> CampaignSink<'a> {
    /// Binds to `durable`, continuing from whatever it already holds.
    /// Records are appended strictly in order and never deleted, so the
    /// stream lengths *are* the resume cursors — correct even after a
    /// crash between the record appends and the cursor update.
    fn attach(durable: &'a DurableStore, fingerprint: String) -> Result<Self, RadError> {
        if let Some(cursor) = durable.find("cursor", &Filter::all()).last() {
            let persisted = cursor
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("");
            if persisted != fingerprint {
                return Err(RadError::CheckpointMismatch {
                    reason: format!(
                        "store holds campaign `{persisted}`, builder is `{fingerprint}`"
                    ),
                });
            }
        }
        Ok(CampaignSink {
            traces_done: durable.trace_rows() as usize,
            gaps_done: durable.count("gaps", &Filter::all()),
            runs_done: durable.count("runs", &Filter::all()),
            journal_done: durable.count("journal", &Filter::all()),
            runs_since_checkpoint: 0,
            durable,
            fingerprint,
        })
    }

    /// Logs everything new since the last flush — one WAL frame per
    /// stream delta, not one per record — fsyncs, and checkpoints
    /// every [`CHECKPOINT_EVERY_RUNS`] supervised runs.
    fn flush(&mut self, session: &Session, journal: &[ProcedureRun]) -> Result<(), RadError> {
        let mb = session.middlebox();
        let batch = mb.batch();
        if batch.len() > self.traces_done {
            self.durable
                .append_traces(&batch.slice(self.traces_done..batch.len()))?;
            self.traces_done = batch.len();
        }
        let gaps = mb.gaps();
        if gaps.len() > self.gaps_done {
            let docs: Vec<Json> = gaps
                .iter()
                .enumerate()
                .skip(self.gaps_done)
                .map(|(idx, gap)| item_doc(idx, gap))
                .collect();
            self.durable.insert_batch("gaps", docs)?;
            self.gaps_done = gaps.len();
        }
        let runs = mb.runs();
        if runs.len() > self.runs_done {
            let docs: Vec<Json> = runs
                .iter()
                .enumerate()
                .skip(self.runs_done)
                .map(|(idx, run)| item_doc(idx, run))
                .collect();
            self.durable.insert_batch("runs", docs)?;
            self.runs_done = runs.len();
        }
        let new_runs = journal.len().saturating_sub(self.journal_done) as u32;
        if journal.len() > self.journal_done {
            let docs: Vec<Json> = journal
                .iter()
                .enumerate()
                .skip(self.journal_done)
                .map(|(idx, run)| journal_doc(idx, run))
                .collect();
            self.durable.insert_batch("journal", docs)?;
            self.journal_done = journal.len();
        }
        self.durable.delete("cursor", &Filter::all())?;
        self.durable.insert(
            "cursor",
            cursor_doc(
                self.traces_done,
                self.gaps_done,
                self.runs_done,
                self.journal_done,
                &self.fingerprint,
            ),
        )?;
        self.durable.sync()?;
        self.runs_since_checkpoint += new_runs;
        if self.runs_since_checkpoint >= CHECKPOINT_EVERY_RUNS {
            self.durable.checkpoint()?;
            self.runs_since_checkpoint = 0;
        }
        Ok(())
    }
}

fn flush_sink(
    sink: &mut Option<&mut CampaignSink<'_>>,
    session: &Session,
    journal: &[ProcedureRun],
) -> Result<(), RadError> {
    match sink {
        Some(s) => s.flush(session, journal),
        None => Ok(()),
    }
}

/// Wraps one stream item as a document: `{"i": position, "v": item}`.
/// The position makes order explicit and prefix-comparison exact.
fn item_doc<T: serde::Serialize>(idx: usize, item: &T) -> Json {
    let value = serde_json::to_value(item).expect("campaign items serialize");
    json!({
        "i": idx,
        "v": value,
    })
}

fn journal_doc(idx: usize, run: &ProcedureRun) -> Json {
    let label = serde_json::to_value(run.label).expect("labels serialize");
    let end = run_end_str(&run.end);
    json!({
        "i": idx,
        "run_id": run.run_id.0,
        "kind": run.kind.paper_id(),
        "label": label,
        "end": end,
    })
}

fn cursor_doc(traces: usize, gaps: usize, runs: usize, journal: usize, fingerprint: &str) -> Json {
    json!({
        "traces": traces,
        "gaps": gaps,
        "runs": runs,
        "journal": journal,
        "fingerprint": fingerprint,
    })
}

fn run_end_str(end: &RunEnd) -> &'static str {
    match end {
        RunEnd::Completed => "completed",
        RunEnd::OperatorStop => "operator-stop",
        RunEnd::Crashed => "crashed",
    }
}

fn run_end_from(s: &str) -> Result<RunEnd, RadError> {
    match s {
        "completed" => Ok(RunEnd::Completed),
        "operator-stop" => Ok(RunEnd::OperatorStop),
        "crashed" => Ok(RunEnd::Crashed),
        other => Err(RadError::Store(format!("unknown run end `{other}`"))),
    }
}

/// All documents of `collection`, ordered by their stream position.
fn sorted_docs(durable: &DurableStore, collection: &str) -> Vec<Json> {
    let mut docs = durable.find(collection, &Filter::all());
    docs.sort_by_key(|d| d.get("i").and_then(Json::as_u64).unwrap_or(u64::MAX));
    docs
}

/// Checks that the persisted trace stream is a row-exact prefix of the
/// simulated `batch`, column by column, then appends the missing
/// suffix. Any divergence is a [`RadError::CheckpointMismatch`] naming
/// the first differing row.
fn verify_and_complete_traces(durable: &DurableStore, batch: &TraceBatch) -> Result<(), RadError> {
    let persisted = durable.read_traces()?;
    if persisted.len() > batch.len() {
        return Err(RadError::CheckpointMismatch {
            reason: format!(
                "traces: store holds {} rows but the simulation produced {}",
                persisted.len(),
                batch.len()
            ),
        });
    }
    if let Some(row) = persisted.first_difference(batch) {
        return Err(RadError::CheckpointMismatch {
            reason: format!("traces row {row} diverges from the simulated campaign"),
        });
    }
    durable.append_traces(&batch.slice(persisted.len()..batch.len()))
}

/// Checks that everything persisted in `collection` is a record-exact
/// prefix of the simulated stream `items`, then persists the missing
/// suffix with one batch insert. Any divergence — extra records,
/// corrupted records, a foreign campaign — is a
/// [`RadError::CheckpointMismatch`], never a silently wrong dataset.
fn verify_and_complete<T>(
    durable: &DurableStore,
    collection: &str,
    items: &[T],
    encode: fn(usize, &T) -> Json,
) -> Result<(), RadError> {
    let persisted = sorted_docs(durable, collection);
    if persisted.len() > items.len() {
        return Err(RadError::CheckpointMismatch {
            reason: format!(
                "{collection}: store holds {} records but the simulation produced {}",
                persisted.len(),
                items.len()
            ),
        });
    }
    for (idx, doc) in persisted.iter().enumerate() {
        if *doc != encode(idx, &items[idx]) {
            return Err(RadError::CheckpointMismatch {
                reason: format!("{collection} record {idx} diverges from the simulated campaign"),
            });
        }
    }
    let suffix = items
        .iter()
        .enumerate()
        .skip(persisted.len())
        .map(|(idx, item)| encode(idx, item))
        .collect();
    durable.insert_batch(collection, suffix)?;
    Ok(())
}

/// Decodes a persisted stream back into typed items — the proof that
/// the store, not the simulation, carries the dataset.
fn decode_items<T: serde::Deserialize>(
    durable: &DurableStore,
    collection: &str,
) -> Result<Vec<T>, RadError> {
    sorted_docs(durable, collection)
        .into_iter()
        .map(|doc| {
            let value = doc
                .get("v")
                .cloned()
                .ok_or_else(|| RadError::Store(format!("{collection} document missing `v`")))?;
            serde_json::from_value(value)
                .map_err(|e| RadError::Store(format!("decoding {collection}: {e}")))
        })
        .collect()
}

fn decode_journal(durable: &DurableStore) -> Result<Vec<ProcedureRun>, RadError> {
    sorted_docs(durable, "journal")
        .into_iter()
        .map(|doc| {
            let run_id = doc
                .get("run_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| RadError::Store("journal document missing run_id".into()))?;
            let kind: ProcedureKind = doc
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| RadError::Store("journal document missing kind".into()))?
                .parse()?;
            let label: Label = serde_json::from_value(
                doc.get("label")
                    .cloned()
                    .ok_or_else(|| RadError::Store("journal document missing label".into()))?,
            )
            .map_err(|e| RadError::Store(format!("decoding journal label: {e}")))?;
            let end = run_end_from(
                doc.get("end")
                    .and_then(Json::as_str)
                    .ok_or_else(|| RadError::Store("journal document missing end".into()))?,
            )?;
            Ok(ProcedureRun {
                run_id: RunId(run_id as u32),
                kind,
                label,
                end,
            })
        })
        .collect()
}

fn reset_between_runs(session: &mut Session) {
    session.middlebox_mut().rig_mut().reset();
    // Hours pass between lab activities.
    let gap = 1.0 + session.jitter(0.0, 6.0);
    session.wait(SimDuration::from_secs_f64(gap * 3600.0));
}

fn run_p4(session: &mut Session, run_id: RunId, bursts: usize) -> ProcedureRun {
    session.begin_run(run_id, ProcedureKind::JoystickMovements, Label::Benign);
    procedures::joystick_session(session, bursts).expect("joystick runs clean");
    session.end_run();
    reset_between_runs(session);
    ProcedureRun {
        run_id,
        kind: ProcedureKind::JoystickMovements,
        label: Label::Benign,
        end: RunEnd::Completed,
    }
}

fn run_p1(session: &mut Session, run_id: RunId, variant: P1Variant, solid: &str) -> ProcedureRun {
    let label = match variant {
        P1Variant::DoorCrash => Label::Anomalous(AnomalyCause::QuantosDoorVsN9),
        _ => Label::Benign,
    };
    session.begin_run(run_id, ProcedureKind::AutomatedSolubilityN9, label);
    if variant == P1Variant::JoystickStart {
        session.annotate("joystick used to position N9; stopped midway: solid shortage");
    }
    let end = procedures::p1_automated_solubility(session, variant, solid)
        .expect("p1 script handles its own staged faults");
    session.end_run();
    reset_between_runs(session);
    ProcedureRun {
        run_id,
        kind: ProcedureKind::AutomatedSolubilityN9,
        label,
        end,
    }
}

fn run_p2(session: &mut Session, run_id: RunId, variant: P2Variant, solid: &str) -> ProcedureRun {
    let label = match variant {
        P2Variant::DoorCrashEarly => Label::Anomalous(AnomalyCause::QuantosDoorVsUr3e),
        _ => Label::Benign,
    };
    session.begin_run(run_id, ProcedureKind::AutomatedSolubilityN9Ur3e, label);
    if variant == P2Variant::WrongGripperStop {
        session.annotate("wrong gripper configuration; operator stopped the run");
    }
    let end = procedures::p2_solubility_with_ur3e(session, variant, solid)
        .expect("p2 script handles its own staged faults");
    session.end_run();
    reset_between_runs(session);
    ProcedureRun {
        run_id,
        kind: ProcedureKind::AutomatedSolubilityN9Ur3e,
        label,
        end,
    }
}

fn run_p3(session: &mut Session, run_id: RunId, variant: P3Variant) -> ProcedureRun {
    let label = match variant {
        P3Variant::TecanCrash => Label::Anomalous(AnomalyCause::ArmVsTecan),
        P3Variant::Normal => Label::Benign,
    };
    session.begin_run(run_id, ProcedureKind::CrystalSolubility, label);
    let end = procedures::p3_crystal_solubility(session, variant)
        .expect("p3 script handles its own staged faults");
    session.end_run();
    reset_between_runs(session);
    ProcedureRun {
        run_id,
        kind: ProcedureKind::CrystalSolubility,
        label,
        end,
    }
}

/// An IKA prototyping script: a researcher poking at the stirrer API.
fn ika_polling_script(session: &mut Session) {
    procedures::init_ika(session).expect("ika init runs clean");
    session
        .issue(Command::new(
            CommandType::IkaSetSpeed,
            vec![Value::Float(300.0)],
        ))
        .expect("valid setpoint");
    session
        .issue(Command::nullary(CommandType::IkaStartMotor))
        .expect("speed was set");
    for _ in 0..40 {
        session
            .issue(Command::nullary(CommandType::IkaReadStirringSpeed))
            .expect("reads run clean");
        session
            .issue(Command::nullary(CommandType::IkaReadHotplateSensor))
            .expect("reads run clean");
        session.wait(SimDuration::from_secs(2));
    }
    session
        .issue(Command::nullary(CommandType::IkaStopMotor))
        .expect("stop runs clean");
    session
        .issue(Command::nullary(CommandType::IkaReadRatedSpeed))
        .expect("reads run clean");
    session
        .issue(Command::nullary(CommandType::IkaReadRatedTemp))
        .expect("reads run clean");
}

/// A Tecan maintenance flush: valve cycling with heavy Q polling.
fn tecan_flush_script(session: &mut Session) {
    procedures::init_tecan(session).expect("tecan init runs clean");
    for port in 1..=3 {
        session
            .issue(Command::new(
                CommandType::TecanSetValvePosition,
                vec![Value::Int(port)],
            ))
            .expect("valid port");
        let vol = session.jitter_int(500, 2500);
        session
            .tecan_and_poll(Command::new(
                CommandType::TecanSetPosition,
                vec![Value::Int(vol)],
            ))
            .expect("valid stroke");
        session
            .tecan_and_poll(Command::new(
                CommandType::TecanSetPosition,
                vec![Value::Int(0)],
            ))
            .expect("valid stroke");
    }
}

/// A Quantos dosing-head prototype session.
fn quantos_prototype_script(session: &mut Session) {
    procedures::init_quantos(session).expect("quantos init runs clean");
    session
        .issue(Command::new(
            CommandType::TargetMass,
            vec![Value::Float(25.0)],
        ))
        .expect("valid mass");
    session
        .issue_blocking(Command::nullary(CommandType::StartDosing))
        .expect("dosing preconditions met");
    session
        .issue(Command::new(CommandType::MoveZStage, vec![Value::Int(500)]))
        .expect("z stage homed");
    session
        .issue(Command::new(CommandType::MoveZStage, vec![Value::Int(0)]))
        .expect("z stage homed");
    session
        .issue(Command::nullary(CommandType::UnlockDosingPin))
        .expect("pin toggles");
    session
        .issue(Command::nullary(CommandType::LockDosingPin))
        .expect("pin toggles");
}

/// A UR3e teach-pendant prototyping session.
fn ur3e_prototype_script(session: &mut Session) {
    session
        .issue(Command::nullary(CommandType::InitUr3Arm))
        .expect("ur3e connects");
    for i in 0..3 {
        let pose = rad_power::Ur3e::named_pose(i + 1);
        session
            .ur3e_move_joints(pose, 0.9, 0.0, "prototype-move")
            .expect("named poses are reachable");
        session
            .issue(Command::nullary(CommandType::CloseGripper))
            .expect("gripper works");
        session
            .issue(Command::nullary(CommandType::OpenGripper))
            .expect("gripper works");
    }
    session
        .ur3e_move_joints(rad_power::Ur3e::named_pose(0), 0.9, 0.0, "prototype-home")
        .expect("named poses are reachable");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervised_only_campaign_matches_the_paper_structure() {
        let campaign = CampaignBuilder::new(7).supervised_only().build();
        let journal = campaign.journal();
        assert_eq!(journal.len(), 25);
        // Block structure: 0-11 P4, 12-16 P1, 17-20 P2, 21-24 P3.
        assert!(journal[..12]
            .iter()
            .all(|r| r.kind == ProcedureKind::JoystickMovements));
        assert!(journal[12..17]
            .iter()
            .all(|r| r.kind == ProcedureKind::AutomatedSolubilityN9));
        assert!(journal[17..21]
            .iter()
            .all(|r| r.kind == ProcedureKind::AutomatedSolubilityN9Ur3e));
        assert!(journal[21..25]
            .iter()
            .all(|r| r.kind == ProcedureKind::CrystalSolubility));
        // Exactly the three narrated anomalies at runs 16, 17, 22.
        let anomalous: Vec<u32> = journal
            .iter()
            .filter(|r| r.label.is_anomalous())
            .map(|r| r.run_id.0)
            .collect();
        assert_eq!(anomalous, vec![16, 17, 22]);
    }

    #[test]
    fn supervised_sequences_are_nonempty_and_labelled() {
        let campaign = CampaignBuilder::new(3).supervised_only().build();
        let sequences = campaign.command().supervised_sequences();
        assert_eq!(sequences.len(), 25);
        for (meta, seq) in &sequences {
            assert!(
                seq.len() >= 10,
                "{} has only {} commands",
                meta.run_id(),
                seq.len()
            );
        }
    }

    #[test]
    fn scaled_filler_hits_the_device_mix_exactly() {
        let campaign = CampaignBuilder::new(1)
            .scale(0.05)
            .power_experiments(false)
            .build();
        let hist = campaign.command().device_histogram();
        for device in DeviceKind::all() {
            let target = (device.paper_trace_count() as f64 * 0.05).round() as u64;
            let got = hist.get(&device).copied().unwrap_or(0);
            assert_eq!(got, target, "{device}: {got} vs target {target}");
        }
    }

    #[test]
    fn power_experiments_record_velocity_and_payload_sweeps() {
        let campaign = CampaignBuilder::new(5)
            .supervised_only()
            .power_experiments(true)
            .build();
        let power = campaign.power();
        let velocities = power.for_procedure(ProcedureKind::VelocitySweep);
        let payloads = power.for_procedure(ProcedureKind::PayloadSweep);
        assert!(velocities.len() >= 3);
        assert!(payloads.len() >= 3);
    }

    #[test]
    fn campaigns_are_reproducible_by_seed() {
        let a = CampaignBuilder::new(9).supervised_only().build();
        let b = CampaignBuilder::new(9).supervised_only().build();
        assert_eq!(a.command().len(), b.command().len());
        let seq_a: Vec<_> = a.command().corpus();
        let seq_b: Vec<_> = b.command().corpus();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn perfect_fault_plan_reproduces_the_baseline_campaign() {
        use rad_middlebox::FaultProfile;
        let baseline = CampaignBuilder::new(13).supervised_only().build();
        let faulted = CampaignBuilder::new(13)
            .supervised_only()
            .with_fault_plan(FaultPlan::new(13, FaultProfile::none()))
            .build();
        assert!(faulted.command().gaps().is_empty());
        assert_eq!(baseline.command().corpus(), faulted.command().corpus());
        assert_eq!(baseline.journal(), faulted.journal());
    }

    #[test]
    fn disconnected_campaign_accounts_for_every_command() {
        use rad_middlebox::FaultProfile;
        let baseline = CampaignBuilder::new(21).supervised_only().build();
        let faulted = CampaignBuilder::new(21)
            .supervised_only()
            .with_fault_plan(FaultPlan::new(21, FaultProfile::disconnect_after(40)))
            .build();
        let traces = faulted.command().len();
        let gaps = faulted.command().gaps().len();
        assert!(gaps > 0, "the disconnect must actually bite");
        assert_eq!(
            traces + gaps,
            baseline.command().len(),
            "every command is either traced or gap-marked"
        );
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rad-campaign-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_same_dataset(a: &CampaignDataset, b: &CampaignDataset) {
        assert_eq!(a.command().traces(), b.command().traces());
        assert_eq!(a.command().gaps(), b.command().gaps());
        assert_eq!(a.command().runs(), b.command().runs());
        assert_eq!(a.journal(), b.journal());
    }

    #[test]
    fn resumable_build_round_trips_through_the_store() {
        let dir = tmpdir("round-trip");
        let builder = CampaignBuilder::new(17).supervised_only();
        let baseline = builder.build();
        let resumable = builder.build_resumable(&dir).unwrap();
        assert_same_dataset(&baseline, &resumable);
        // A clean store resumes to the same dataset without re-persisting.
        let resumed = builder.resume_from(&dir).unwrap();
        assert_same_dataset(&baseline, &resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finalized_campaign_seals_its_traces_into_segments() {
        let dir = tmpdir("sealed");
        let builder = CampaignBuilder::new(29).supervised_only();
        let dataset = builder.build_resumable(&dir).unwrap();

        let (durable, _) = DurableStore::open(&dir, DurableOptions::default()).unwrap();
        let segments = durable.segments().unwrap();
        assert!(!segments.is_empty(), "finalize must seal segments");
        assert_eq!(segments.trace_rows() as usize, dataset.command().len());
        assert_eq!(
            &segments.read_all().unwrap().into_batch(),
            dataset.command().batch(),
            "sealed segments hold the campaign's exact trace stream"
        );

        // Re-finalizing via resume seals nothing new — the checkpoint
        // names the already-sealed stream.
        builder.resume_from(&dir).unwrap();
        let (durable, _) = DurableStore::open(&dir, DurableOptions::default()).unwrap();
        let again = durable.segments().unwrap();
        assert_eq!(again.trace_rows(), segments.trace_rows());
        assert_eq!(again.len(), segments.len(), "no duplicate segments");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_campaign_resumes_to_identical_dataset() {
        use rad_store::CrashSite;
        let dir = tmpdir("crash-resume");
        let builder = CampaignBuilder::new(23).supervised_only();
        let baseline = builder.build();
        let err = builder
            .clone()
            .with_crash_plan(CrashPlan::at(CrashSite::MidRecord, 40))
            .build_resumable(&dir)
            .unwrap_err();
        assert!(
            err.to_string().contains("injected crash"),
            "unexpected error: {err}"
        );
        let resumed = builder.resume_from(&dir).unwrap();
        assert_same_dataset(&baseline, &resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_names_the_first_diverging_trace_row() {
        use rad_core::{TraceBatch, TraceId, TraceObject};
        use rad_store::CrashSite;
        let dir = tmpdir("diverge");
        let builder = CampaignBuilder::new(31).supervised_only();
        builder
            .clone()
            .with_crash_plan(CrashPlan::at(CrashSite::MidRecord, 40))
            .build_resumable(&dir)
            .unwrap_err();
        // Forge the row the crash cut off.
        let (durable, _) = DurableStore::open(&dir, DurableOptions::default()).unwrap();
        let at = durable.trace_rows() as usize;
        let real = builder.build().command().batch().materialize(at);
        let forged = TraceObject::builder(
            TraceId(u64::MAX),
            real.timestamp(),
            real.device(),
            real.command().clone(),
        )
        .build();
        durable
            .append_traces(&TraceBatch::from_traces(&[forged]))
            .unwrap();
        drop(durable);
        let err = builder.resume_from(&dir).unwrap_err();
        assert!(
            matches!(&err, RadError::CheckpointMismatch { reason }
                if reason.contains(&format!("traces row {at} "))),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_foreign_campaign() {
        let dir = tmpdir("foreign");
        CampaignBuilder::new(5)
            .supervised_only()
            .build_resumable(&dir)
            .unwrap();
        let err = CampaignBuilder::new(6)
            .supervised_only()
            .resume_from(&dir)
            .unwrap_err();
        assert!(
            matches!(err, RadError::CheckpointMismatch { .. }),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_many_matches_sequential_builds() {
        let builder = CampaignBuilder::new(0).supervised_only();
        let seeds = [3u64, 11, 42];
        let parallel = builder.build_many(&seeds);
        assert_eq!(parallel.len(), seeds.len());
        for (campaign, &seed) in parallel.iter().zip(&seeds) {
            let sequential = builder.clone().with_seed(seed).build();
            assert_eq!(campaign.command().corpus(), sequential.command().corpus());
            assert_eq!(campaign.journal(), sequential.journal());
        }
    }
}
