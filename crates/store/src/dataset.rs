//! The curated RAD containers: command dataset and power dataset.
//!
//! §IV splits RAD into the *command dataset* (trace objects plus the
//! run-level supervision labels) and the *power dataset* (25 Hz
//! telemetry recordings). These containers are what the analyses
//! consume and what the campaign synthesizer produces.
//!
//! Since the data-plane refactor the command half is stored
//! columnarly: a [`TraceBatch`] backs the dataset, the analyses read
//! its dense columns, and [`TraceObject`] rows are materialized only
//! at the edges ([`CommandDataset::traces`]).

use std::collections::BTreeMap;

use rad_core::{
    CommandType, DeviceKind, Label, ProcedureKind, RunId, RunMetadata, TraceBatch, TraceGap,
    TraceObject, TraceSink,
};
use rad_power::{CurrentProfile, PowerBlock, PowerSink, RecordingMeta};
use serde_json::json;

use crate::document::DocumentStore;

use rad_core::RadError as Error;

/// The command half of RAD: trace objects plus run metadata, stored
/// columnarly.
///
/// # Examples
///
/// ```
/// use rad_store::CommandDataset;
///
/// let ds = CommandDataset::new();
/// assert!(ds.is_empty());
/// assert_eq!(ds.supervised_runs().len(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CommandDataset {
    batch: TraceBatch,
    runs: Vec<RunMetadata>,
    gaps: Vec<TraceGap>,
}

impl CommandDataset {
    /// An empty dataset.
    pub fn new() -> Self {
        CommandDataset::default()
    }

    /// Builds a dataset from row-oriented parts.
    pub fn from_parts(traces: Vec<TraceObject>, runs: Vec<RunMetadata>) -> Self {
        CommandDataset {
            batch: TraceBatch::from(traces),
            runs,
            gaps: Vec::new(),
        }
    }

    /// Builds a dataset directly from a columnar batch — the native
    /// hand-off from the batched pipeline.
    pub fn from_batch(batch: TraceBatch, runs: Vec<RunMetadata>) -> Self {
        CommandDataset {
            batch,
            runs,
            gaps: Vec::new(),
        }
    }

    /// Attaches the trace gaps recorded during collection (commands
    /// that executed untraced because the middlebox was down).
    #[must_use]
    pub fn with_gaps(mut self, gaps: Vec<TraceGap>) -> Self {
        self.gaps = gaps;
        self
    }

    /// Appends a trace object.
    pub fn push_trace(&mut self, trace: TraceObject) {
        self.batch.push_owned(trace);
    }

    /// Registers a procedure run's metadata.
    pub fn add_run(&mut self, run: RunMetadata) {
        self.runs.push(run);
    }

    /// Records a trace gap.
    pub fn push_gap(&mut self, gap: TraceGap) {
        self.gaps.push(gap);
    }

    /// The trace gaps, in record order. Delivered traces plus gaps
    /// account for every command issued — the no-silent-loss invariant
    /// the fault-injection conformance suite asserts.
    pub fn gaps(&self) -> &[TraceGap] {
        &self.gaps
    }

    /// All trace objects, materialized in capture order. This clones
    /// row payloads; iterate [`CommandDataset::batch`] instead on hot
    /// paths.
    pub fn traces(&self) -> Vec<TraceObject> {
        self.batch.to_traces()
    }

    /// The columnar backing store, in capture order.
    pub fn batch(&self) -> &TraceBatch {
        &self.batch
    }

    /// All registered run metadata.
    pub fn runs(&self) -> &[RunMetadata] {
        &self.runs
    }

    /// Number of trace objects.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// Whether the dataset has no traces.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Metadata of the supervised runs (label not `Unknown`), sorted by
    /// run id — the paper's 25-run set.
    pub fn supervised_runs(&self) -> Vec<&RunMetadata> {
        let mut runs: Vec<&RunMetadata> = self
            .runs
            .iter()
            .filter(|r| r.label() != Label::Unknown)
            .collect();
        runs.sort_by_key(|r| r.run_id());
        runs
    }

    /// Metadata for one run, if registered.
    pub fn run(&self, run_id: RunId) -> Option<&RunMetadata> {
        self.runs.iter().find(|r| r.run_id() == run_id)
    }

    /// Row indices of one run, in timestamp order (stable: capture
    /// order breaks ties, exactly as the row-oriented path did).
    fn run_rows(&self, run_id: RunId) -> Vec<usize> {
        let timestamps = self.batch.timestamps_us();
        let mut rows: Vec<usize> = self
            .batch
            .run_ids()
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == Some(run_id))
            .map(|(i, _)| i)
            .collect();
        rows.sort_by_key(|&i| timestamps[i]);
        rows
    }

    /// The command-type sequence of one run, in timestamp order.
    pub fn run_sequence(&self, run_id: RunId) -> Vec<CommandType> {
        self.run_rows(run_id)
            .into_iter()
            .map(|i| self.batch.command_type(i))
            .collect()
    }

    /// `(metadata, command sequence)` for every supervised run, in run
    /// id order — the input of the TF-IDF and perplexity analyses.
    pub fn supervised_sequences(&self) -> Vec<(RunMetadata, Vec<CommandType>)> {
        self.supervised_runs()
            .into_iter()
            .cloned()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|meta| {
                let seq = self.run_sequence(meta.run_id());
                (meta, seq)
            })
            .collect()
    }

    /// Count of trace objects per command type (Fig. 5a).
    pub fn command_histogram(&self) -> BTreeMap<CommandType, u64> {
        let mut hist = BTreeMap::new();
        for &tok in self.batch.command_token_ids() {
            let ct = CommandType::from_token_id(tok as usize)
                .expect("token ids in a batch are valid by construction");
            *hist.entry(ct).or_insert(0) += 1;
        }
        hist
    }

    /// Count of trace objects per device (Fig. 5a legend).
    pub fn device_histogram(&self) -> BTreeMap<DeviceKind, u64> {
        let mut hist = BTreeMap::new();
        for d in self.batch.devices() {
            *hist.entry(d.kind()).or_insert(0) += 1;
        }
        hist
    }

    /// All trace objects of one procedure type, materialized in
    /// capture order.
    pub fn traces_for(&self, procedure: ProcedureKind) -> Vec<TraceObject> {
        self.batch
            .procedures()
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == procedure)
            .map(|(i, _)| self.batch.materialize(i))
            .collect()
    }

    /// The full dataset as one flat command-type stream in timestamp
    /// order — the corpus for the n-gram study of Fig. 5(b).
    pub fn corpus(&self) -> Vec<CommandType> {
        let timestamps = self.batch.timestamps_us();
        let mut rows: Vec<usize> = (0..self.batch.len()).collect();
        rows.sort_by_key(|&i| timestamps[i]);
        rows.into_iter()
            .map(|i| self.batch.command_type(i))
            .collect()
    }

    /// Exports the command dataset as CSV (see [`crate::csv`]).
    pub fn to_csv(&self) -> String {
        let mut out = Vec::new();
        crate::csv::write_traces_csv(&mut out, &self.batch).expect("writing to memory cannot fail");
        String::from_utf8(out).expect("csv output is utf-8")
    }

    /// Inserts every trace as a document into `store` under the
    /// `"traces"` collection and every run under `"runs"`, mirroring
    /// RATracer's MongoDB sink.
    ///
    /// # Errors
    ///
    /// Propagates [`rad_core::RadError::Store`] from the store.
    pub fn store_into(&self, store: &DocumentStore) -> Result<(), Error> {
        for t in self.batch.iter() {
            let doc = json!({
                "trace_id": t.id().0,
                "timestamp_us": t.timestamp().as_micros(),
                "device": t.device().kind().to_string(),
                "command": t.command_type().mnemonic(),
                "mode": t.mode().to_string(),
                "exception": t.exception(),
                "response_time_us": t.response_time().as_micros(),
                "procedure": t.procedure().paper_id(),
                "run_id": t.run_id().map(|r| r.0),
            });
            store.insert("traces", doc)?;
        }
        for r in &self.runs {
            let doc = json!({
                "run_id": r.run_id().0,
                "procedure": r.kind().paper_id(),
                "label": r.label().to_string(),
                "note": r.operator_note(),
            });
            store.insert("runs", doc)?;
        }
        for g in &self.gaps {
            let doc = json!({
                "timestamp_us": g.timestamp.as_micros(),
                "device": g.device.kind().to_string(),
                "command": g.command.mnemonic(),
                "intended_mode": g.intended_mode.to_string(),
                "reason": g.reason,
                "run_id": g.run_id.map(|r| r.0),
            });
            store.insert("gaps", doc)?;
        }
        Ok(())
    }

    /// Merges another dataset into this one.
    pub fn merge(&mut self, other: CommandDataset) {
        self.batch.append(&other.batch);
        self.runs.extend(other.runs);
        self.gaps.extend(other.gaps);
    }
}

/// A dataset is a sink: batches append to the columnar store, gaps
/// and run metadata to their side tables. This is what lets a
/// `tee(dataset, durable)` stack replace the bespoke dataset hand-off.
impl TraceSink for CommandDataset {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), Error> {
        self.batch.append(batch);
        Ok(())
    }

    fn accept_gap(&mut self, gap: &TraceGap) -> Result<(), Error> {
        self.gaps.push(gap.clone());
        Ok(())
    }

    fn accept_run(&mut self, run: &RunMetadata) -> Result<(), Error> {
        self.runs.push(run.clone());
        Ok(())
    }
}

/// One labelled telemetry recording in the power dataset.
#[derive(Debug, Clone)]
pub struct PowerRecording {
    /// Procedure that produced the recording (P2, P5, or P6 in RAD).
    pub procedure: ProcedureKind,
    /// Run identifier within the power dataset.
    pub run_id: RunId,
    /// Free-form description (e.g. `"velocity=200mm/s"`, `"solid=CSTI"`).
    pub description: String,
    /// The 25 Hz telemetry stream.
    pub profile: CurrentProfile,
}

/// The power half of RAD.
#[derive(Debug, Clone, Default)]
pub struct PowerDataset {
    recordings: Vec<PowerRecording>,
}

impl PowerDataset {
    /// An empty power dataset.
    pub fn new() -> Self {
        PowerDataset::default()
    }

    /// Adds a recording.
    pub fn push(&mut self, recording: PowerRecording) {
        self.recordings.push(recording);
    }

    /// All recordings.
    pub fn recordings(&self) -> &[PowerRecording] {
        &self.recordings
    }

    /// Recordings of one procedure type.
    pub fn for_procedure(&self, procedure: ProcedureKind) -> Vec<&PowerRecording> {
        self.recordings
            .iter()
            .filter(|r| r.procedure == procedure)
            .collect()
    }

    /// Total number of telemetry entries across recordings.
    pub fn total_entries(&self) -> usize {
        self.recordings.iter().map(|r| r.profile.len()).sum()
    }

    /// Applies the paper's storage policy: quiescent ticks are dropped
    /// unless `keep_quiescent` (days with activity keep them). Returns
    /// a new dataset.
    ///
    /// Filtering is row-wise over the columnar block — no sample
    /// materialization.
    pub fn compacted(&self, keep_quiescent: bool) -> PowerDataset {
        if keep_quiescent {
            return self.clone();
        }
        let recordings = self
            .recordings
            .iter()
            .map(|r| {
                let mut block = PowerBlock::new();
                for row in r.profile.block().iter() {
                    if !row.is_quiescent() {
                        block.push_row(&row);
                    }
                }
                PowerRecording {
                    procedure: r.procedure,
                    run_id: r.run_id,
                    description: r.description.clone(),
                    profile: CurrentProfile::from_block(block),
                }
            })
            .collect();
        PowerDataset { recordings }
    }
}

/// A power dataset is a [`PowerSink`]: each
/// [`PowerSink::begin_recording`] opens a new [`PowerRecording`] and
/// subsequent blocks append to it, so a monitor can stream chunked
/// telemetry straight into the dataset (optionally through
/// filter/chunk/tee combinators).
impl PowerSink for PowerDataset {
    fn accept(&mut self, block: &PowerBlock) -> Result<(), Error> {
        let Some(open) = self.recordings.last_mut() else {
            return Err(Error::Store(
                "power block received before begin_recording".to_owned(),
            ));
        };
        open.profile.append_block(block);
        Ok(())
    }

    fn begin_recording(&mut self, meta: &RecordingMeta) -> Result<(), Error> {
        self.recordings.push(PowerRecording {
            procedure: meta.procedure,
            run_id: meta.run_id,
            description: meta.description.clone(),
            profile: CurrentProfile::default(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::{Command, DeviceId, Label, SimDuration, SimInstant, TraceId, TraceMode};
    use rad_power::{PowerSample, Ur3e};

    fn trace(
        id: u64,
        t_us: u64,
        ct: CommandType,
        run: Option<(ProcedureKind, RunId, Label)>,
    ) -> TraceObject {
        let mut b = TraceObject::builder(
            TraceId(id),
            SimInstant::from_micros(t_us),
            DeviceId::primary(ct.device()),
            Command::nullary(ct),
        )
        .mode(TraceMode::Remote)
        .response_time(SimDuration::from_millis(3));
        if let Some((p, r, l)) = run {
            b = b.run(p, r, l);
        }
        b.build()
    }

    fn labelled_dataset() -> CommandDataset {
        let mut ds = CommandDataset::new();
        let p4 = (ProcedureKind::JoystickMovements, RunId(0), Label::Benign);
        ds.add_run(
            RunMetadata::new(
                RunId(0),
                ProcedureKind::JoystickMovements,
                SimInstant::EPOCH,
            )
            .with_label(Label::Benign),
        );
        // Out-of-order insertion to exercise the timestamp sort.
        ds.push_trace(trace(1, 2_000, CommandType::Mvng, Some(p4)));
        ds.push_trace(trace(0, 1_000, CommandType::Arm, Some(p4)));
        ds.push_trace(trace(2, 3_000, CommandType::Arm, Some(p4)));
        ds.push_trace(trace(3, 4_000, CommandType::TecanGetStatus, None));
        ds
    }

    #[test]
    fn run_sequence_is_timestamp_ordered() {
        let ds = labelled_dataset();
        assert_eq!(
            ds.run_sequence(RunId(0)),
            vec![CommandType::Arm, CommandType::Mvng, CommandType::Arm]
        );
    }

    #[test]
    fn histograms_count_commands_and_devices() {
        let ds = labelled_dataset();
        let cmds = ds.command_histogram();
        assert_eq!(cmds[&CommandType::Arm], 2);
        assert_eq!(cmds[&CommandType::Mvng], 1);
        let devs = ds.device_histogram();
        assert_eq!(devs[&DeviceKind::C9], 3);
        assert_eq!(devs[&DeviceKind::Tecan], 1);
    }

    #[test]
    fn supervised_runs_exclude_unknown() {
        let mut ds = labelled_dataset();
        ds.add_run(RunMetadata::new(
            RunId(5),
            ProcedureKind::Unknown,
            SimInstant::EPOCH,
        ));
        let supervised = ds.supervised_runs();
        assert_eq!(supervised.len(), 1);
        assert_eq!(supervised[0].run_id(), RunId(0));
    }

    #[test]
    fn corpus_interleaves_all_traces_by_time() {
        let ds = labelled_dataset();
        assert_eq!(ds.corpus().len(), 4);
        assert_eq!(ds.corpus()[3], CommandType::TecanGetStatus);
    }

    #[test]
    fn store_into_creates_both_collections() {
        let ds = labelled_dataset();
        let store = DocumentStore::new();
        ds.store_into(&store).unwrap();
        assert_eq!(
            store.collection_names(),
            vec!["runs".to_owned(), "traces".to_owned()]
        );
        assert_eq!(
            store.count("traces", &crate::Filter::eq("device", json!("C9"))),
            3
        );
    }

    #[test]
    fn merge_concatenates() {
        let mut a = labelled_dataset();
        let b = labelled_dataset();
        let n = a.len();
        a.merge(b);
        assert_eq!(a.len(), 2 * n);
        assert_eq!(a.runs().len(), 2);
    }

    #[test]
    fn gaps_ride_along_through_merge_and_store() {
        let gap = TraceGap::new(
            SimInstant::from_micros(9),
            DeviceId::primary(DeviceKind::C9),
            CommandType::Arm,
            TraceMode::Remote,
            "middlebox unavailable",
        );
        let mut a = labelled_dataset().with_gaps(vec![gap.clone()]);
        let mut b = labelled_dataset();
        b.push_gap(gap);
        a.merge(b);
        assert_eq!(a.gaps().len(), 2);
        let store = DocumentStore::new();
        a.store_into(&store).unwrap();
        assert_eq!(store.count("gaps", &crate::Filter::all()), 2);
    }

    #[test]
    fn dataset_as_sink_accepts_batches_gaps_and_runs() {
        let src = labelled_dataset();
        let mut ds = CommandDataset::new();
        ds.accept(src.batch()).unwrap();
        for r in src.runs() {
            ds.accept_run(r).unwrap();
        }
        let gap = TraceGap::new(
            SimInstant::from_micros(9),
            DeviceId::primary(DeviceKind::C9),
            CommandType::Arm,
            TraceMode::Remote,
            "middlebox unavailable",
        );
        ds.accept_gap(&gap).unwrap();
        assert_eq!(ds.len(), src.len());
        assert_eq!(ds.runs(), src.runs());
        assert_eq!(ds.gaps().len(), 1);
        assert_eq!(ds.corpus(), src.corpus());
    }

    #[test]
    fn batch_backed_dataset_round_trips_rows() {
        let ds = labelled_dataset();
        let rows = ds.traces();
        let rebuilt = CommandDataset::from_parts(rows.clone(), ds.runs().to_vec());
        assert_eq!(rebuilt.traces(), rows);
        assert_eq!(rebuilt.to_csv(), ds.to_csv());
    }

    #[test]
    fn power_dataset_compaction_drops_quiescence() {
        let arm = Ur3e::new();
        let mut quiet = arm.quiescent_profile(Ur3e::named_pose(0), 50, 0);
        let seg =
            rad_power::TrajectorySegment::joint_move(Ur3e::named_pose(0), Ur3e::named_pose(1), 1.0);
        quiet.extend(&arm.current_profile(&[seg], 0.0, 1));
        let mut ds = PowerDataset::new();
        ds.push(PowerRecording {
            procedure: ProcedureKind::VelocitySweep,
            run_id: RunId(0),
            description: "test".into(),
            profile: quiet,
        });
        let total = ds.total_entries();
        let compact = ds.compacted(false);
        assert!(compact.total_entries() < total);
        assert!(compact.total_entries() > 0);
        assert_eq!(ds.compacted(true).total_entries(), total);
    }

    #[test]
    fn for_procedure_filters() {
        let mut ds = PowerDataset::new();
        ds.push(PowerRecording {
            procedure: ProcedureKind::VelocitySweep,
            run_id: RunId(0),
            description: "v=100".into(),
            profile: CurrentProfile::from_samples(vec![PowerSample::quiescent(0.0, [0.0; 6])]),
        });
        ds.push(PowerRecording {
            procedure: ProcedureKind::PayloadSweep,
            run_id: RunId(1),
            description: "w=500".into(),
            profile: CurrentProfile::from_samples(vec![]),
        });
        assert_eq!(ds.for_procedure(ProcedureKind::VelocitySweep).len(), 1);
        assert_eq!(ds.for_procedure(ProcedureKind::CrystalSolubility).len(), 0);
    }
}
