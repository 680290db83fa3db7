//! The deterministic middlebox: virtualization + routing + tracing.
//!
//! [`Middlebox`] is the simulation-facing face of RATracer. It plays
//! both roles of Fig. 1 at once: the virtualized classes on the lab
//! computer (every command is intercepted) and the trusted middlebox
//! (commands are relayed to the devices and responses come back).
//! Per-device modes reproduce §III's deployment story: DIRECT devices
//! are only traced, REMOTE devices are relayed, hybrids mix both, and
//! CLOUD reproduces the Azure replay of footnote 1.

use std::collections::BTreeMap;

use rad_core::{
    Command, DeviceId, DeviceKind, Label, ProcedureKind, RadError, RunId, SimDuration, SimInstant,
    TraceMode, Value,
};
use rad_devices::LabRig;
use rad_store::CommandDataset;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::faults::{FaultPlan, FaultStats, Lane, WireFault};
use crate::latency::{retry_penalty, LatencyModel};
use crate::tracer::Tracer;

/// Per-device trace-mode assignment.
///
/// # Examples
///
/// ```
/// use rad_core::{DeviceKind, TraceMode};
/// use rad_middlebox::ModeConfig;
///
/// // The hybrid §III describes: a newly-arrived device runs DIRECT
/// // while IT sorts out its cabling, everything else runs REMOTE.
/// let cfg = ModeConfig::all(TraceMode::Remote).with(DeviceKind::Quantos, TraceMode::Direct);
/// assert_eq!(cfg.mode_for(DeviceKind::Quantos), TraceMode::Direct);
/// assert_eq!(cfg.mode_for(DeviceKind::C9), TraceMode::Remote);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeConfig {
    default: TraceMode,
    overrides: BTreeMap<DeviceKind, TraceMode>,
}

impl ModeConfig {
    /// Every device in the same mode.
    pub fn all(mode: TraceMode) -> Self {
        ModeConfig {
            default: mode,
            overrides: BTreeMap::new(),
        }
    }

    /// Overrides the mode of one device.
    #[must_use]
    pub fn with(mut self, device: DeviceKind, mode: TraceMode) -> Self {
        self.overrides.insert(device, mode);
        self
    }

    /// The mode a device runs in.
    pub fn mode_for(&self, device: DeviceKind) -> TraceMode {
        self.overrides.get(&device).copied().unwrap_or(self.default)
    }
}

impl Default for ModeConfig {
    fn default() -> Self {
        ModeConfig::all(TraceMode::Remote)
    }
}

/// What the lab computer observes for one issued command.
#[derive(Debug, Clone, PartialEq)]
pub struct IssueOutcome {
    /// The device's return value.
    pub value: Value,
    /// End-to-end response time (transport + middlebox processing).
    pub response_time: SimDuration,
    /// How long the device stays busy executing (motions take seconds;
    /// the ack comes back immediately, as on the real hardware).
    pub busy_for: SimDuration,
}

/// How many relay attempts the simulated RPC path makes before it
/// gives up and degrades to DIRECT execution.
const MAX_RELAY_ATTEMPTS: u32 = 4;

/// What the simulated relay concluded for one command.
enum RelayOutcome {
    /// The command executed (once) via the middlebox; the penalty is
    /// the extra latency the retries cost.
    Executed(SimDuration),
    /// The request never got through; the caller must degrade.
    Unreachable,
}

/// The assembled tracing middlebox over a simulated lab rig.
#[derive(Debug)]
pub struct Middlebox {
    rig: LabRig,
    tracer: Tracer,
    modes: ModeConfig,
    latency_overrides: BTreeMap<DeviceKind, LatencyModel>,
    rng: ChaCha8Rng,
    fault_plan: Option<FaultPlan>,
    fault_stats: FaultStats,
    /// Per-lane wire chunk counters feeding the fault schedule.
    request_index: u64,
    response_index: u64,
    /// How many commands have been relayed (the disconnect/outage
    /// index of [`FaultPlan::unavailable_at`]).
    relay_index: u64,
    /// Set once a wire-level disconnect fires; the link never comes
    /// back and every later REMOTE/CLOUD command degrades.
    link_down: bool,
}

impl Middlebox {
    /// A middlebox over a fresh rig, all devices in REMOTE mode, with
    /// noise derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Middlebox {
            rig: LabRig::new(seed),
            tracer: Tracer::new(),
            modes: ModeConfig::default(),
            latency_overrides: BTreeMap::new(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            fault_plan: None,
            fault_stats: FaultStats::new(),
            request_index: 0,
            response_index: 0,
            relay_index: 0,
            link_down: false,
        }
    }

    /// Applies a deterministic fault plan to the relay path of REMOTE
    /// and CLOUD devices. DIRECT devices are unaffected: their
    /// commands never cross the middlebox link.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The fault/recovery counters observed so far.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Replaces the per-device mode configuration.
    #[must_use]
    pub fn with_modes(mut self, modes: ModeConfig) -> Self {
        self.modes = modes;
        self
    }

    /// Overrides the latency model of one device (ablation benches).
    #[must_use]
    pub fn with_latency(mut self, device: DeviceKind, model: LatencyModel) -> Self {
        self.latency_overrides.insert(device, model);
        self
    }

    /// Replaces the tracer (e.g. one with a durable sink attached).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The simulated rig (device state inspection).
    pub fn rig(&self) -> &LabRig {
        &self.rig
    }

    /// Mutable rig access (workloads stage payloads and anomaly
    /// geometry through this).
    pub fn rig_mut(&mut self) -> &mut LabRig {
        &mut self.rig
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.tracer.now()
    }

    /// Advances simulated time without issuing a command (device busy
    /// waits, operator think time, overnight idle gaps).
    pub fn advance(&mut self, delta: SimDuration) {
        self.tracer.advance(delta);
    }

    /// Opens a labelled procedure run (see [`Tracer::begin_run`]).
    pub fn begin_run(&mut self, run_id: RunId, procedure: ProcedureKind, label: Label) {
        self.tracer.begin_run(run_id, procedure, label);
    }

    /// Attaches an operator note to the active run.
    pub fn annotate_run(&mut self, note: &str) {
        self.tracer.annotate_run(note);
    }

    /// Closes the active procedure run.
    pub fn end_run(&mut self) {
        self.tracer.end_run();
    }

    /// Number of trace objects captured so far.
    pub fn trace_count(&self) -> usize {
        self.tracer.len()
    }

    /// The traces captured so far, materialized as rows. Prefer
    /// [`Middlebox::batch`] or [`Middlebox::device_count`] on hot
    /// paths — this clones every row payload.
    pub fn traces(&self) -> Vec<rad_core::TraceObject> {
        self.tracer.traces()
    }

    /// Columnar view of the traces buffered so far.
    pub fn batch(&self) -> &rad_core::TraceBatch {
        self.tracer.batch()
    }

    /// Lifetime trace count for one device — O(1) (the campaign
    /// synthesizer uses this to steer per-device trace counts).
    pub fn device_count(&self, kind: rad_core::DeviceKind) -> u64 {
        self.tracer.device_count(kind)
    }

    /// Takes the buffered trace batch, leaving counters intact — the
    /// streaming hand-off for bounded-memory campaigns.
    pub fn drain_batch(&mut self) -> rad_core::TraceBatch {
        self.tracer.drain_batch()
    }

    /// Read-only view of the trace gaps recorded so far.
    pub fn gaps(&self) -> &[rad_core::TraceGap] {
        self.tracer.gaps()
    }

    /// Read-only view of the run metadata registered so far (the
    /// campaign checkpointer persists these incrementally).
    pub fn runs(&self) -> &[rad_core::RunMetadata] {
        self.tracer.runs()
    }

    /// Signals end-of-stream to the tracer's sink stack — live-teed
    /// streaming detectors deliver their run-end verdicts here.
    ///
    /// # Errors
    ///
    /// Propagates the sink's failure.
    pub fn finish_sink(&mut self) -> Result<(), rad_core::RadError> {
        self.tracer.finish_sink()
    }

    /// Issues one command through the interception boundary: samples
    /// the transport latency for the device's mode, executes on the
    /// rig, logs the trace object (faults included), and advances the
    /// simulated clock by the response time.
    ///
    /// With a [`FaultPlan`] attached, REMOTE/CLOUD commands run
    /// through a simulated relay: lost request or response chunks cost
    /// deterministic retry penalties (the command still executes
    /// exactly once, thanks to idempotent replay), and when the
    /// middlebox is unreachable — an outage window, the disconnect
    /// point, or every retry exhausted — the command degrades to
    /// DIRECT execution with a [`TraceGap`](rad_core::TraceGap)
    /// recorded in place of the lost trace.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Device`] when the device faults. The fault
    /// is still traced, exactly like RATracer logging an exception.
    pub fn issue(&mut self, command: &Command) -> Result<IssueOutcome, RadError> {
        let device = DeviceId::primary(command.device());
        let mode = self.modes.mode_for(device.kind());
        let mut relay_penalty = SimDuration::ZERO;
        if matches!(mode, TraceMode::Remote | TraceMode::Cloud) {
            if let Some(plan) = self.fault_plan.clone() {
                if self.link_down || plan.unavailable_at(self.tracer.now(), self.relay_index) {
                    return self.issue_degraded(command, device, mode, "middlebox unavailable");
                }
                self.relay_index += 1;
                match self.simulate_relay(&plan) {
                    RelayOutcome::Executed(penalty) => relay_penalty = penalty,
                    RelayOutcome::Unreachable => {
                        return self.issue_degraded(command, device, mode, "rpc retries exhausted");
                    }
                }
            }
        }
        let model = self
            .latency_overrides
            .get(&device.kind())
            .cloned()
            .unwrap_or_else(|| LatencyModel::for_mode(mode));
        let transport = model.sample(&mut self.rng) + relay_penalty;
        match self.rig.execute(command) {
            Ok(outcome) => {
                // Response time = transport + the controller's ack
                // processing; device busy time runs concurrently.
                let response_time = transport;
                self.tracer.record(
                    device,
                    command,
                    mode,
                    outcome.return_value.clone(),
                    None,
                    response_time,
                );
                self.tracer.advance(response_time);
                Ok(IssueOutcome {
                    value: outcome.return_value,
                    response_time,
                    busy_for: outcome.busy_for,
                })
            }
            Err(fault) => {
                let message = fault.to_string();
                self.tracer.record(
                    device,
                    command,
                    mode,
                    Value::Unit,
                    Some(&message),
                    transport,
                );
                self.tracer.advance(transport);
                Err(RadError::Device(fault))
            }
        }
    }

    /// Walks the seeded fault schedule for one relayed command:
    /// request chunk out, response chunk back, with retries on loss.
    ///
    /// The rig is never touched here — this only decides whether the
    /// relay would have delivered, and at what latency cost. Because
    /// retries reuse the idempotency token and the server deduplicates,
    /// a command whose request ever got through counts as executed
    /// (and traced by the middlebox) exactly once, even if every
    /// response copy was lost.
    fn simulate_relay(&mut self, plan: &FaultPlan) -> RelayOutcome {
        let mut penalty = SimDuration::ZERO;
        let mut executed = false;
        for attempt in 0..MAX_RELAY_ATTEMPTS {
            if attempt > 0 {
                self.fault_stats.note_retry();
            }
            let request = plan.action_for(Lane::Request, self.request_index);
            self.request_index += 1;
            let request_delivered = match request {
                WireFault::Deliver => {
                    self.fault_stats.note_delivered();
                    true
                }
                WireFault::Duplicate => {
                    self.fault_stats.note_duplicated();
                    true
                }
                WireFault::Drop => {
                    self.fault_stats.note_dropped();
                    false
                }
                WireFault::Corrupt => {
                    self.fault_stats.note_corrupted();
                    false
                }
                WireFault::Hold(_) => {
                    self.fault_stats.note_held();
                    false
                }
                WireFault::Disconnect => {
                    self.fault_stats.note_disconnect();
                    self.link_down = true;
                    return if executed {
                        RelayOutcome::Executed(penalty)
                    } else {
                        RelayOutcome::Unreachable
                    };
                }
            };
            if !request_delivered {
                self.fault_stats.note_timeout();
                penalty += retry_penalty(attempt);
                continue;
            }
            if executed {
                self.fault_stats.note_dedup_hit();
            } else {
                executed = true;
                self.fault_stats.note_execution();
            }
            let response = plan.action_for(Lane::Response, self.response_index);
            self.response_index += 1;
            match response {
                WireFault::Deliver => {
                    self.fault_stats.note_delivered();
                    return RelayOutcome::Executed(penalty);
                }
                WireFault::Duplicate => {
                    self.fault_stats.note_duplicated();
                    return RelayOutcome::Executed(penalty);
                }
                WireFault::Disconnect => {
                    self.fault_stats.note_disconnect();
                    self.link_down = true;
                    // The command executed and the middlebox holds the
                    // trace; only this response was lost with the link.
                    return RelayOutcome::Executed(penalty);
                }
                WireFault::Drop => self.fault_stats.note_dropped(),
                WireFault::Corrupt => self.fault_stats.note_corrupted(),
                WireFault::Hold(_) => self.fault_stats.note_held(),
            }
            self.fault_stats.note_timeout();
            penalty += retry_penalty(attempt);
        }
        if executed {
            // Retries ran dry waiting for a response copy, but the
            // middlebox executed and traced the command once.
            RelayOutcome::Executed(penalty)
        } else {
            RelayOutcome::Unreachable
        }
    }

    /// Graceful degradation: the lab computer falls back to talking to
    /// the device directly. The command still executes (the experiment
    /// survives), but the interception point is gone, so a
    /// [`TraceGap`](rad_core::TraceGap) is recorded in place of the
    /// trace object.
    fn issue_degraded(
        &mut self,
        command: &Command,
        device: DeviceId,
        intended_mode: TraceMode,
        reason: &str,
    ) -> Result<IssueOutcome, RadError> {
        self.fault_stats.note_gap();
        self.tracer
            .record_gap(device, command.command_type(), intended_mode, reason);
        let model = self
            .latency_overrides
            .get(&device.kind())
            .cloned()
            .unwrap_or_else(LatencyModel::direct);
        let transport = model.sample(&mut self.rng);
        let result = self.rig.execute(command);
        self.tracer.advance(transport);
        match result {
            Ok(outcome) => Ok(IssueOutcome {
                value: outcome.return_value,
                response_time: transport,
                busy_for: outcome.busy_for,
            }),
            Err(fault) => Err(RadError::Device(fault)),
        }
    }

    /// Issues a command and, if the device reports a busy period,
    /// advances the clock past it — the blocking convenience used for
    /// non-polled devices.
    ///
    /// # Errors
    ///
    /// Same as [`Middlebox::issue`].
    pub fn issue_blocking(&mut self, command: &Command) -> Result<IssueOutcome, RadError> {
        let outcome = self.issue(command)?;
        self.tracer.advance(outcome.busy_for);
        Ok(outcome)
    }

    /// Records a command that the guard rejected before it reached any
    /// device: traced with the rejection text as the exception and
    /// zero response time (the middlebox answered locally).
    pub fn record_rejection(&mut self, command: &Command, message: &str) {
        let device = DeviceId::primary(command.device());
        let mode = self.modes.mode_for(device.kind());
        self.tracer.record(
            device,
            command,
            mode,
            Value::Unit,
            Some(message),
            SimDuration::ZERO,
        );
    }

    /// Finishes the session, yielding the curated command dataset.
    pub fn into_dataset(self) -> CommandDataset {
        self.tracer.into_dataset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::CommandType;

    #[test]
    fn issue_traces_and_advances_time() {
        let mut mb = Middlebox::new(0);
        let before = mb.now();
        mb.issue(&Command::nullary(CommandType::InitIka)).unwrap();
        assert_eq!(mb.trace_count(), 1);
        assert!(mb.now() > before);
    }

    #[test]
    fn faults_are_traced_as_exceptions() {
        let mut mb = Middlebox::new(0);
        // Reading the IKA before init faults.
        let err = mb
            .issue(&Command::nullary(CommandType::IkaReadDeviceName))
            .unwrap_err();
        assert!(matches!(err, RadError::Device(_)));
        let ds = mb.into_dataset();
        assert_eq!(ds.len(), 1);
        assert!(ds.traces()[0].exception().unwrap().contains("not opened"));
    }

    #[test]
    fn hybrid_modes_stamp_traces_per_device() {
        let cfg = ModeConfig::all(TraceMode::Remote).with(DeviceKind::Ika, TraceMode::Direct);
        let mut mb = Middlebox::new(0).with_modes(cfg);
        mb.issue(&Command::nullary(CommandType::InitIka)).unwrap();
        mb.issue(&Command::nullary(CommandType::InitC9)).unwrap();
        let ds = mb.into_dataset();
        assert_eq!(ds.traces()[0].mode(), TraceMode::Direct);
        assert_eq!(ds.traces()[1].mode(), TraceMode::Remote);
    }

    #[test]
    fn blocking_issue_skips_past_device_busy_time() {
        let mut mb = Middlebox::new(0);
        mb.issue(&Command::nullary(CommandType::InitC9)).unwrap();
        let before = mb.now();
        let outcome = mb
            .issue_blocking(&Command::nullary(CommandType::Home))
            .unwrap();
        assert!(outcome.busy_for >= SimDuration::from_secs(3));
        assert!(mb.now().duration_since(before) >= outcome.busy_for);
    }

    #[test]
    fn run_labels_propagate_through_issue() {
        let mut mb = Middlebox::new(0);
        mb.begin_run(RunId(4), ProcedureKind::JoystickMovements, Label::Benign);
        mb.issue(&Command::nullary(CommandType::InitC9)).unwrap();
        mb.end_run();
        let ds = mb.into_dataset();
        assert_eq!(ds.traces()[0].run_id(), Some(RunId(4)));
        assert_eq!(ds.supervised_runs().len(), 1);
    }

    #[test]
    fn constant_latency_override_is_exact() {
        let mut mb = Middlebox::new(0).with_latency(
            DeviceKind::Ika,
            LatencyModel::Constant(SimDuration::from_millis(9)),
        );
        mb.issue(&Command::nullary(CommandType::InitIka)).unwrap();
        let ds = mb.into_dataset();
        assert_eq!(ds.traces()[0].response_time(), SimDuration::from_millis(9));
    }

    #[test]
    fn perfect_fault_plan_changes_nothing() {
        use crate::faults::{FaultPlan, FaultProfile};
        let run = |faulted: bool| {
            let mut mb = Middlebox::new(3);
            if faulted {
                mb = mb.with_fault_plan(FaultPlan::new(3, FaultProfile::none()));
            }
            mb.issue(&Command::nullary(CommandType::InitC9)).unwrap();
            for _ in 0..10 {
                mb.issue(&Command::nullary(CommandType::Mvng)).unwrap();
            }
            mb.into_dataset()
        };
        let (plain, faulted) = (run(false), run(true));
        assert_eq!(plain.traces(), faulted.traces());
        assert!(faulted.gaps().is_empty());
    }

    #[test]
    fn outage_degrades_to_direct_with_gap_markers() {
        use crate::faults::{FaultPlan, FaultProfile};
        let plan = FaultPlan::new(0, FaultProfile::none())
            .with_outage(SimInstant::EPOCH, SimDuration::from_secs(3600));
        let mut mb = Middlebox::new(0).with_fault_plan(plan);
        mb.issue(&Command::nullary(CommandType::InitC9)).unwrap();
        mb.issue(&Command::nullary(CommandType::Home)).unwrap();
        assert_eq!(mb.gaps().len(), 2);
        assert_eq!(mb.trace_count(), 0, "no trace crosses a dead middlebox");
        // The experiment survived: the rig really executed.
        assert!(mb.rig().c9().is_homed());
        let stats = mb.fault_stats().snapshot();
        assert_eq!(stats.gaps, 2);
        let ds = mb.into_dataset();
        assert_eq!(ds.gaps().len(), 2);
        assert_eq!(ds.gaps()[0].intended_mode, TraceMode::Remote);
    }

    #[test]
    fn disconnect_mid_run_loses_only_later_traces() {
        use crate::faults::{FaultPlan, FaultProfile};
        let plan = FaultPlan::new(0, FaultProfile::disconnect_after(3));
        let mut mb = Middlebox::new(0).with_fault_plan(plan);
        mb.issue(&Command::nullary(CommandType::InitC9)).unwrap();
        mb.issue(&Command::nullary(CommandType::Home)).unwrap();
        mb.issue(&Command::nullary(CommandType::InitIka)).unwrap();
        // The link is gone from here on.
        mb.issue(&Command::nullary(CommandType::IkaReadDeviceName))
            .unwrap();
        mb.issue(&Command::nullary(CommandType::IkaReadHotplateSensor))
            .unwrap();
        assert_eq!(mb.trace_count(), 3);
        assert_eq!(mb.gaps().len(), 2);
    }

    #[test]
    fn direct_devices_ignore_the_fault_plan() {
        use crate::faults::{FaultPlan, FaultProfile};
        let plan = FaultPlan::new(0, FaultProfile::disconnect_after(0));
        let cfg = ModeConfig::all(TraceMode::Direct);
        let mut mb = Middlebox::new(0).with_modes(cfg).with_fault_plan(plan);
        mb.issue(&Command::nullary(CommandType::InitIka)).unwrap();
        assert_eq!(mb.trace_count(), 1, "DIRECT commands never cross the link");
        assert!(mb.gaps().is_empty());
    }

    #[test]
    fn lossy_relay_retries_but_executes_once() {
        use crate::faults::{FaultPlan, FaultProfile};
        let plan = FaultPlan::new(11, FaultProfile::drop(0.3));
        let mut mb = Middlebox::new(11).with_fault_plan(plan);
        mb.issue(&Command::nullary(CommandType::InitC9)).unwrap();
        for _ in 0..60 {
            let _ = mb.issue(&Command::nullary(CommandType::Mvng));
        }
        let stats = mb.fault_stats().snapshot();
        assert!(stats.dropped > 0, "{stats}");
        assert!(stats.retries > 0, "{stats}");
        // Every delivered command executed exactly once.
        assert_eq!(
            stats.executions,
            (mb.trace_count() + mb.gaps().len()) as u64 - stats.gaps,
            "{stats}"
        );
    }

    #[test]
    fn same_seed_reproduces_identical_response_times() {
        let run = |seed| {
            let mut mb = Middlebox::new(seed);
            mb.issue(&Command::nullary(CommandType::InitC9)).unwrap();
            let mut rts = Vec::new();
            for _ in 0..20 {
                rts.push(
                    mb.issue(&Command::nullary(CommandType::Mvng))
                        .unwrap()
                        .response_time,
                );
            }
            rts
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
