//! The trace pipeline: timestamps, ids, labels, and sinks.
//!
//! For every intercepted access RATracer logs "timestamp, function,
//! arguments, return values, exceptions" (Fig. 3). [`Tracer`] owns the
//! simulated clock and the trace-id counter, stamps each access, tags
//! it with the active procedure run (if any), and emits the record
//! into a columnar [`TraceBatch`] plus an arbitrary [`TraceSink`]
//! stack. The durable WAL is just a sink ([`crate::sinks`]), teed with
//! any others instead of held as a bespoke field.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rad_core::{
    Command, CommandType, DeviceId, DeviceKind, Label, ProcedureKind, RunId, RunMetadata, SimClock,
    SimDuration, SimInstant, Tee, TraceBatch, TraceGap, TraceId, TraceMode, TraceObject, TraceSink,
    Value,
};
use rad_store::{CommandDataset, DurableStore};

use crate::sinks::DurableSink;

/// The active procedure-run context applied to new traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunContext {
    procedure: ProcedureKind,
    run_id: RunId,
    label: Label,
}

/// Stamps, labels, and stores trace objects.
pub struct Tracer {
    clock: SimClock,
    next_id: u64,
    run: Option<RunContext>,
    batch: TraceBatch,
    scratch: TraceBatch,
    runs: Vec<RunMetadata>,
    gaps: Vec<TraceGap>,
    sink: Option<Box<dyn TraceSink + Send>>,
    sink_errors: u64,
    total_recorded: u64,
    device_counts: BTreeMap<DeviceKind, u64>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("now", &self.clock.now())
            .field("next_id", &self.next_id)
            .field("buffered", &self.batch.len())
            .field("total_recorded", &self.total_recorded)
            .field("runs", &self.runs.len())
            .field("gaps", &self.gaps.len())
            .field("has_sink", &self.sink.is_some())
            .field("sink_errors", &self.sink_errors)
            .finish()
    }
}

impl Tracer {
    /// A tracer starting at the campaign epoch.
    pub fn new() -> Self {
        Tracer {
            clock: SimClock::new(),
            next_id: 0,
            run: None,
            batch: TraceBatch::new(),
            scratch: TraceBatch::with_capacity(1),
            runs: Vec::new(),
            gaps: Vec::new(),
            sink: None,
            sink_errors: 0,
            total_recorded: 0,
            device_counts: BTreeMap::new(),
        }
    }

    /// Attaches `sink` to the emit path: every record (as a singleton
    /// batch), gap, and completed run flows into it. A second call
    /// tees the stacks — both sinks receive every payload.
    #[must_use]
    pub fn with_sink(mut self, sink: Box<dyn TraceSink + Send>) -> Self {
        self.sink = Some(match self.sink.take() {
            None => sink,
            Some(existing) => Box::new(Tee::new(existing, sink)),
        });
        self
    }

    /// Logs every record and gap through `store`'s write-ahead log,
    /// so traces survive a process crash. Sink failures are counted
    /// ([`Tracer::durable_errors`]) but never propagated — losing the
    /// durable copy must not lose the in-memory record too, matching
    /// the wire layer's graceful-degradation policy. Sugar for
    /// [`Tracer::with_sink`]`(DurableSink::new(store))`.
    #[must_use]
    pub fn with_durable_sink(self, store: Arc<DurableStore>) -> Self {
        self.with_sink(Box::new(DurableSink::new(store)))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// Advances the simulated clock (transport latency, device busy
    /// time, operator think time).
    pub fn advance(&mut self, delta: SimDuration) {
        self.clock.advance(delta);
    }

    /// Opens a procedure run: subsequent records are tagged with it.
    /// Also registers the run's metadata.
    pub fn begin_run(&mut self, run_id: RunId, procedure: ProcedureKind, label: Label) {
        self.run = Some(RunContext {
            procedure,
            run_id,
            label,
        });
        self.runs
            .push(RunMetadata::new(run_id, procedure, self.clock.now()).with_label(label));
    }

    /// Attaches an operator note to the most recently opened run.
    pub fn annotate_run(&mut self, note: &str) {
        if let Some(last) = self.runs.pop() {
            self.runs.push(last.with_note(note));
        }
    }

    /// Closes the active run; subsequent records are unlabelled. The
    /// completed run's metadata (notes included) is forwarded to the
    /// sink stack.
    pub fn end_run(&mut self) {
        if let Some(ctx) = self.run.take() {
            if let Some(sink) = &mut self.sink {
                if let Some(meta) = self.runs.iter().rev().find(|r| r.run_id() == ctx.run_id) {
                    if sink.accept_run(meta).is_err() {
                        self.sink_errors += 1;
                    }
                }
            }
        }
    }

    /// Records one intercepted access and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        device: DeviceId,
        command: &Command,
        mode: TraceMode,
        return_value: Value,
        exception: Option<&str>,
        response_time: SimDuration,
    ) -> TraceId {
        let id = TraceId(self.next_id);
        self.next_id += 1;
        let mut builder = TraceObject::builder(id, self.clock.now(), device, command.clone())
            .mode(mode)
            .return_value(return_value)
            .response_time(response_time);
        if let Some(ctx) = self.run {
            builder = builder.run(ctx.procedure, ctx.run_id, ctx.label);
        }
        if let Some(msg) = exception {
            builder = builder.exception(msg);
        }
        let trace = builder.build();
        self.total_recorded += 1;
        *self.device_counts.entry(device.kind()).or_insert(0) += 1;
        if let Some(sink) = &mut self.sink {
            // Per-record emission keeps every sink current (live teed
            // detectors rely on it); the scratch batch is reused so the
            // hot path never allocates columns.
            self.scratch.clear();
            self.scratch.push(&trace);
            if sink.accept(&self.scratch).is_err() {
                self.sink_errors += 1;
            }
        }
        self.batch.push_owned(trace);
        id
    }

    /// Records a trace gap: a command that executed untraced because
    /// the middlebox was unavailable. Tagged with the active run (if
    /// any) and forwarded to the sink stack (a durable sink's `"gaps"`
    /// collection), so the loss is as visible as a trace would have
    /// been.
    pub fn record_gap(
        &mut self,
        device: DeviceId,
        command: CommandType,
        intended_mode: TraceMode,
        reason: &str,
    ) {
        let mut gap = TraceGap::new(
            self.clock.now(),
            device,
            command,
            intended_mode,
            TraceGap::intern_reason(reason),
        );
        if let Some(ctx) = self.run {
            gap = gap.with_run(ctx.run_id);
        }
        if let Some(sink) = &mut self.sink {
            if sink.accept_gap(&gap).is_err() {
                self.sink_errors += 1;
            }
        }
        self.gaps.push(gap);
    }

    /// Flushes the sink stack (durable WAL fsync, buffered chunks),
    /// making every record so far crash-proof. A no-op without a sink.
    ///
    /// # Errors
    ///
    /// Returns [`rad_core::RadError::Store`] when the flush fails.
    pub fn sync_durable(&mut self) -> Result<(), rad_core::RadError> {
        match &mut self.sink {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }

    /// Signals end-of-stream to the sink stack: streaming detector
    /// stages deliver their run-end verdicts here, buffered chunks
    /// flush, durable sinks seal. A no-op without a sink. The tracer
    /// remains usable afterwards (a fresh sink can be attached, or
    /// recording can continue unsinked).
    ///
    /// # Errors
    ///
    /// Propagates the sink's failure.
    pub fn finish_sink(&mut self) -> Result<(), rad_core::RadError> {
        match self.sink.take() {
            Some(mut sink) => sink.finish(),
            None => Ok(()),
        }
    }

    /// How many payloads failed to reach the sink stack (counted, not
    /// propagated — mirroring the wire layer's degradation policy).
    pub fn durable_errors(&self) -> u64 {
        self.sink_errors
    }

    /// The trace gaps recorded so far.
    pub fn gaps(&self) -> &[TraceGap] {
        &self.gaps
    }

    /// Number of records currently buffered (equal to
    /// [`Tracer::total_recorded`] unless [`Tracer::drain_batch`] has
    /// been used).
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// Whether no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Total records captured over the tracer's lifetime, drained or
    /// not.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Lifetime record count for one device — O(1), maintained on the
    /// emit path so campaign fillers never rescan the trace log.
    pub fn device_count(&self, kind: DeviceKind) -> u64 {
        self.device_counts.get(&kind).copied().unwrap_or(0)
    }

    /// The buffered records, materialized as rows.
    pub fn traces(&self) -> Vec<TraceObject> {
        self.batch.to_traces()
    }

    /// The buffered records, columnar.
    pub fn batch(&self) -> &TraceBatch {
        &self.batch
    }

    /// Metadata of the runs opened so far.
    pub fn runs(&self) -> &[RunMetadata] {
        &self.runs
    }

    /// Takes the buffered batch, leaving the tracer empty but with
    /// ids, counters, and run context intact — the streaming hand-off
    /// for bounded-memory campaigns.
    pub fn drain_batch(&mut self) -> TraceBatch {
        std::mem::take(&mut self.batch)
    }

    /// Consumes the tracer into the curated command dataset, trace
    /// gaps included.
    pub fn into_dataset(self) -> CommandDataset {
        CommandDataset::from_batch(self.batch, self.runs).with_gaps(self.gaps)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectingSink;
    use rad_core::{CommandType, DeviceKind};

    fn record_one(tracer: &mut Tracer, ct: CommandType) -> TraceId {
        tracer.record(
            DeviceId::primary(ct.device()),
            &Command::nullary(ct),
            TraceMode::Remote,
            Value::Unit,
            None,
            SimDuration::from_millis(5),
        )
    }

    #[test]
    fn ids_and_timestamps_are_monotone() {
        let mut tracer = Tracer::new();
        let a = record_one(&mut tracer, CommandType::Arm);
        tracer.advance(SimDuration::from_millis(100));
        let b = record_one(&mut tracer, CommandType::Mvng);
        assert!(b > a);
        let traces = tracer.traces();
        assert!(traces[1].timestamp() > traces[0].timestamp());
    }

    #[test]
    fn run_context_labels_traces() {
        let mut tracer = Tracer::new();
        record_one(&mut tracer, CommandType::Arm);
        tracer.begin_run(RunId(3), ProcedureKind::CrystalSolubility, Label::Benign);
        record_one(&mut tracer, CommandType::TecanGetStatus);
        tracer.end_run();
        record_one(&mut tracer, CommandType::Arm);
        let ds = tracer.into_dataset();
        assert_eq!(ds.traces()[0].run_id(), None);
        assert_eq!(ds.traces()[1].run_id(), Some(RunId(3)));
        assert_eq!(ds.traces()[1].procedure(), ProcedureKind::CrystalSolubility);
        assert_eq!(ds.traces()[2].run_id(), None);
        assert_eq!(ds.runs().len(), 1);
    }

    #[test]
    fn annotate_attaches_note_to_latest_run() {
        let mut tracer = Tracer::new();
        tracer.begin_run(RunId(0), ProcedureKind::JoystickMovements, Label::Benign);
        tracer.annotate_run("operator wiggled the joystick");
        let ds = tracer.into_dataset();
        assert_eq!(
            ds.runs()[0].operator_note(),
            Some("operator wiggled the joystick")
        );
    }

    #[test]
    fn sink_receives_every_record() {
        let sink = CollectingSink::new();
        let mut tracer = Tracer::new().with_sink(Box::new(sink.clone()));
        record_one(&mut tracer, CommandType::Arm);
        record_one(&mut tracer, CommandType::TecanGetStatus);
        assert_eq!(sink.traces(), tracer.traces());
    }

    #[test]
    fn gaps_inherit_run_context_and_reach_the_sink() {
        let sink = CollectingSink::new();
        let mut tracer = Tracer::new().with_sink(Box::new(sink.clone()));
        tracer.begin_run(RunId(7), ProcedureKind::JoystickMovements, Label::Benign);
        tracer.record_gap(
            DeviceId::primary(DeviceKind::C9),
            CommandType::Arm,
            TraceMode::Remote,
            "middlebox unavailable",
        );
        tracer.end_run();
        tracer.record_gap(
            DeviceId::primary(DeviceKind::Ika),
            CommandType::InitIka,
            TraceMode::Remote,
            "middlebox unavailable",
        );
        assert_eq!(tracer.gaps().len(), 2);
        assert_eq!(tracer.gaps()[0].run_id, Some(RunId(7)));
        assert_eq!(tracer.gaps()[1].run_id, None);
        assert_eq!(sink.gaps(), tracer.gaps());
        let ds = tracer.into_dataset();
        assert_eq!(ds.gaps().len(), 2);
    }

    #[test]
    fn durable_sink_survives_reopen() {
        use rad_store::DurableOptions;
        let dir = std::env::temp_dir().join(format!("rad-tracer-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recorded = {
            let (durable, _) = DurableStore::open(&dir, DurableOptions::default()).unwrap();
            let mut tracer = Tracer::new().with_durable_sink(Arc::new(durable));
            record_one(&mut tracer, CommandType::Arm);
            record_one(&mut tracer, CommandType::Mvng);
            tracer.record_gap(
                DeviceId::primary(DeviceKind::C9),
                CommandType::Arm,
                TraceMode::Remote,
                "middlebox unavailable",
            );
            assert_eq!(tracer.durable_errors(), 0);
            tracer.sync_durable().unwrap();
            tracer.batch().clone()
        };
        // A fresh process recovers every record from the log.
        let (durable, report) = DurableStore::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.records_replayed, 3);
        assert_eq!(durable.read_traces().unwrap(), recorded);
        assert_eq!(durable.count("gaps"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_sink_failures_degrade_gracefully() {
        use rad_store::{CrashPlan, CrashSite, DurableOptions};
        let dir = std::env::temp_dir().join(format!("rad-tracer-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurableOptions {
            crash_plan: Some(CrashPlan::at(CrashSite::MidRecord, 1)),
            ..DurableOptions::default()
        };
        let (durable, _) = DurableStore::open(&dir, opts).unwrap();
        let mut tracer = Tracer::new().with_durable_sink(Arc::new(durable));
        for _ in 0..4 {
            record_one(&mut tracer, CommandType::Mvng);
        }
        // The sink died on the second insert and stayed poisoned; the
        // in-memory record kept every trace regardless.
        assert_eq!(tracer.len(), 4);
        assert_eq!(tracer.durable_errors(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_sink_tees_with_the_durable_sink() {
        use rad_store::DurableOptions;
        let dir = std::env::temp_dir().join(format!("rad-tracer-tee-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (durable, _) = DurableStore::open(&dir, DurableOptions::default()).unwrap();
        let collected = CollectingSink::new();
        let durable = Arc::new(durable);
        let mut tracer = Tracer::new()
            .with_sink(Box::new(collected.clone()))
            .with_durable_sink(Arc::clone(&durable));
        record_one(&mut tracer, CommandType::Arm);
        record_one(&mut tracer, CommandType::Mvng);
        assert_eq!(collected.len(), 2);
        assert_eq!(&durable.read_traces().unwrap(), tracer.batch());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_batch_preserves_ids_and_counters() {
        let mut tracer = Tracer::new();
        record_one(&mut tracer, CommandType::Arm);
        record_one(&mut tracer, CommandType::TecanGetStatus);
        let first = tracer.drain_batch();
        assert_eq!(first.len(), 2);
        assert!(tracer.is_empty());
        assert_eq!(tracer.total_recorded(), 2);
        let id = record_one(&mut tracer, CommandType::Mvng);
        assert_eq!(id, TraceId(2), "ids keep counting across drains");
        assert_eq!(tracer.device_count(DeviceKind::C9), 2);
        assert_eq!(tracer.device_count(DeviceKind::Tecan), 1);
    }

    #[test]
    fn live_teed_streaming_detector_matches_replay_and_batch_verdicts() {
        use rad_analysis::{AlertPolicy, PerplexityDetector, StreamingPerplexity};
        use rad_core::sink::{SliceSource, TraceSource};
        use rad_core::SharedAlerts;

        // A tiny grammar: benign traffic alternates ARM/MVNG.
        let benign: Vec<Vec<CommandType>> = (0..4)
            .map(|i| {
                (0..8 + 2 * i)
                    .map(|j| {
                        if j % 2 == 0 {
                            CommandType::Arm
                        } else {
                            CommandType::Mvng
                        }
                    })
                    .collect()
            })
            .collect();
        let det = PerplexityDetector::new(2).fit(&benign, &benign).unwrap();
        let runs: [Vec<CommandType>; 2] = [
            benign[0].clone(),
            vec![CommandType::TecanGetStatus; 12], // out-of-grammar
        ];

        // Live: every record tees into the stage as it is captured.
        let live = SharedAlerts::new();
        let stage = StreamingPerplexity::new(&det, AlertPolicy::RunEnd, live.clone());
        let mut tracer = Tracer::new().with_sink(Box::new(stage));
        for (i, run) in runs.iter().enumerate() {
            tracer.begin_run(RunId(i as u32), ProcedureKind::Unknown, Label::Unknown);
            for &ct in run {
                record_one(&mut tracer, ct);
                tracer.advance(SimDuration::from_millis(10));
            }
            tracer.end_run();
        }
        tracer.finish_sink().unwrap();
        assert_eq!(tracer.durable_errors(), 0);

        // Replay the captured dataset through a fresh stage, chunked
        // differently on purpose.
        let ds = tracer.into_dataset();
        let traces = ds.traces();
        let mut replayed = StreamingPerplexity::new(&det, AlertPolicy::RunEnd, Vec::new());
        let mut source = SliceSource::new(&traces, 3);
        while let Some(batch) = source.next_batch().unwrap() {
            replayed.accept(&batch).unwrap();
        }
        replayed.finish().unwrap();

        let live_alerts = live.snapshot();
        assert_eq!(live_alerts, replayed.into_sink());

        // And both agree with the batch detector's verdict per run.
        for (i, run) in runs.iter().enumerate() {
            let alarmed = live_alerts
                .iter()
                .any(|a| a.run_id == Some(RunId(i as u32)));
            assert_eq!(alarmed, det.is_anomalous(run).unwrap(), "run {i}");
        }
        assert!(
            live_alerts.iter().any(|a| a.run_id == Some(RunId(1))),
            "the out-of-grammar run must alarm"
        );
    }

    #[test]
    fn exceptions_are_recorded() {
        let mut tracer = Tracer::new();
        tracer.record(
            DeviceId::primary(DeviceKind::Quantos),
            &Command::nullary(CommandType::StartDosing),
            TraceMode::Direct,
            Value::Unit,
            Some("collision with ur3e arm"),
            SimDuration::from_millis(4),
        );
        assert_eq!(
            tracer.traces()[0].exception(),
            Some("collision with ur3e arm")
        );
    }
}
