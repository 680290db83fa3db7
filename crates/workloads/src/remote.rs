//! Campaign-over-socket driver: replays a seeded campaign's command
//! schedule against a live [`rad_middlebox::server`] lab service.
//!
//! The in-process campaign synthesizer owns its middlebox directly;
//! this module is the client half of the deployment story — it speaks
//! the framed wire protocol over any [`Transport`] (in-process duplex,
//! TCP, Unix-domain socket), retries with the jittered [`RetryPolicy`]
//! so lockstep clients don't stampede an overloaded server, and
//! survives the two failures a real lab sees:
//!
//! - **Kill + reconnect** — every `Welcome` carries the tenant's
//!   executed-issue cursor; [`RemoteCampaign::resume_from`] skips the
//!   already-executed prefix (re-opening the interrupted run — the
//!   server's idempotent `BeginRun` makes that safe) and continues
//!   where the dead session stopped. No command is re-executed, no
//!   command is lost.
//! - **Degraded mode** — when the link dies for good and the policy is
//!   [`DisconnectPolicy::Degrade`], remaining commands execute on the
//!   local shadow rig (the lab computer falling back to DIRECT) and
//!   each is recorded as a client-side [`TraceGap`], exactly like the
//!   in-process middlebox's degradation path.

use std::ops::Range;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rad_core::{
    spec, Command, DeviceId, Label, ProcedureKind, RadError, RunId, TraceGap, TraceMode, TraceRow,
    Value,
};
use rad_devices::LabRig;
use rad_middlebox::rpc::{FrameCodec, RetryPolicy, Transport};
use rad_middlebox::server::{WireFrame, WireReply, WireRequest};
use rad_middlebox::wire::{self, WireCodecKind};
use serde::Serialize;

use crate::campaign::CampaignBuilder;

/// Why a client-side gap was recorded (mirrors the middlebox's fixed
/// degradation reason, but names the remote service).
const GAP_REASON: &str = "lab service unreachable";

/// Simulated time the client clock advances per degraded command —
/// keeps client-side gap timestamps deterministic and ordered.
const DEGRADED_STEP_MICROS: u64 = 10_000;

/// What to do when the server link dies mid-campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectPolicy {
    /// Fall back to direct execution on the local shadow rig and record
    /// a [`TraceGap`] per remaining command — the experiment survives,
    /// the interception point is lost.
    Degrade,
    /// Stop driving and surface the error — the caller reconnects and
    /// resumes.
    Fail,
}

/// One step of a replayable campaign schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptStep {
    /// Open a labelled procedure run.
    Begin {
        /// Run identifier.
        run: u32,
        /// Procedure being run.
        procedure: ProcedureKind,
        /// Ground-truth label.
        label: Label,
    },
    /// Issue one device command.
    Command(Command),
    /// Close the open run.
    End,
}

/// A campaign's command schedule, flattened into replayable steps.
///
/// Extracted from a seeded in-process campaign: the same seed always
/// yields the same script, so a remote replay is comparable
/// command-for-command with the in-process dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignScript {
    steps: Vec<ScriptStep>,
}

impl CampaignScript {
    /// The supervised portion of the seeded campaign as a script:
    /// every run boundary and every traced command, in time order
    /// (rows with equal timestamps keep their capture order). Only the
    /// campaign's commands are simulated; its power recordings are
    /// never synthesized.
    pub fn supervised(seed: u64) -> Self {
        let dataset = CampaignBuilder::new(seed)
            .supervised_only()
            .build_commands();
        let mut rows: Vec<TraceRow<'_>> = dataset.batch().iter().collect();
        rows.sort_by_key(TraceRow::timestamp);
        let mut steps = Vec::with_capacity(rows.len() + dataset.runs().len() * 2);
        let mut open: Option<RunId> = None;
        for row in &rows {
            if row.run_id() != open {
                if open.is_some() {
                    steps.push(ScriptStep::End);
                }
                open = row.run_id();
                if let Some(run) = row.run_id() {
                    steps.push(ScriptStep::Begin {
                        run: run.0,
                        procedure: row.procedure(),
                        label: row.label(),
                    });
                }
            }
            steps.push(ScriptStep::Command(Command::new(
                row.command_type(),
                row.args().to_vec(),
            )));
        }
        if open.is_some() {
            steps.push(ScriptStep::End);
        }
        CampaignScript { steps }
    }

    /// A script from explicit steps (tests, hand-built workloads).
    pub fn from_steps(steps: Vec<ScriptStep>) -> Self {
        CampaignScript { steps }
    }

    /// Truncates the script to its first `max_commands` command steps
    /// (run boundaries within the kept prefix survive; an interrupted
    /// run stays open, like a kill mid-run would leave it).
    #[must_use]
    pub fn truncated(mut self, max_commands: usize) -> Self {
        let mut commands = 0usize;
        let mut keep = 0usize;
        for (i, step) in self.steps.iter().enumerate() {
            if matches!(step, ScriptStep::Command(_)) {
                commands += 1;
            }
            keep = i + 1;
            if commands == max_commands {
                break;
            }
        }
        self.steps.truncate(keep);
        CampaignScript { steps: self.steps }
    }

    /// Total command steps in the script.
    pub fn command_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ScriptStep::Command(_)))
            .count()
    }

    /// The steps, in replay order.
    pub fn steps(&self) -> &[ScriptStep] {
        &self.steps
    }
}

/// One framed protocol session over any [`Transport`].
///
/// Every request — `Hello`, each `Issue`, every control frame — runs
/// through one windowed exchange and is encoded in the session's codec.
/// The session handles correlation ids (doubling as idempotency
/// tokens), the jittered retry schedule, and the typed reply mapping:
/// `Rejected` surfaces as [`RadError::Overloaded`], `Expired` as
/// [`RadError::RpcTimeout`], `Failed` as [`RadError::Rpc`].
#[derive(Debug)]
pub struct RemoteSession<T: Transport> {
    transport: T,
    codec: FrameCodec,
    codec_kind: WireCodecKind,
    next_id: u64,
    policy: RetryPolicy,
    cursor: u64,
    scratch: Vec<u8>,
}

impl<T: Transport> RemoteSession<T> {
    /// Opens a session for `tenant` over `transport`: sends `Hello` and
    /// records the server's resume cursor.
    ///
    /// # Errors
    ///
    /// [`RadError::Overloaded`] when the server rejects the session
    /// (its worker pool is full, or the tenant already has an active
    /// session). The server closes the link after every reject, so
    /// retry on a new connection. Transport errors pass through.
    pub fn connect(transport: T, tenant: &str, policy: RetryPolicy) -> Result<Self, RadError> {
        Self::connect_with(transport, tenant, policy, WireCodecKind::Json)
    }

    /// [`RemoteSession::connect`] with an explicit codec: every frame
    /// the session sends, `Hello` and the control frames included, is
    /// encoded with `codec_kind`. Frames are self-describing and the
    /// server answers in the codec each request arrived in, so no
    /// negotiation round trip exists.
    ///
    /// # Errors
    ///
    /// Same as [`RemoteSession::connect`].
    pub fn connect_with(
        transport: T,
        tenant: &str,
        policy: RetryPolicy,
        codec_kind: WireCodecKind,
    ) -> Result<Self, RadError> {
        let mut session = RemoteSession {
            transport,
            codec: FrameCodec::new(),
            codec_kind,
            // Id 0 belongs to the server's own frames (admission
            // rejects, quarantine notices), never to a request.
            next_id: 1,
            policy,
            cursor: 0,
            scratch: Vec::new(),
        };
        match session.request(WireRequest::Hello {
            tenant: tenant.to_string(),
        })? {
            WireReply::Welcome { issues_done, .. } => {
                session.cursor = issues_done;
                Ok(session)
            }
            other => Err(RadError::Rpc(format!("expected Welcome, got {other:?}"))),
        }
    }

    /// The tenant's executed-issue count at connect time — how many
    /// commands a resumed campaign must skip.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Executes one command remotely, as a pipelined window of one.
    /// Device faults come back as the logged exception string, like
    /// the in-process trace records them.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures; the command itself failing is
    /// the `Err` arm of the *inner* result.
    pub fn issue(&mut self, command: &Command) -> Result<Result<Value, String>, RadError> {
        let mut results = self.issue_pipelined(&[command], 1).map_err(|e| e.error)?;
        Ok(results
            .pop()
            .expect("a finished window of one holds its result"))
    }

    /// Executes a batch of commands with up to `depth` requests in
    /// flight: the first `depth` go out in one coalesced write, and
    /// after that the window is topped up with one write per received
    /// chunk of replies, once the replies it holds are consumed.
    /// Replies are reconciled oldest first against their correlation
    /// ids, and a timeout re-sends *every* pending request in one
    /// write — the ids double as idempotency tokens, so the server
    /// replays cached replies instead of re-executing. Device faults
    /// come back in order as the inner `Err` arm, exactly like
    /// [`RemoteSession::issue`].
    ///
    /// # Errors
    ///
    /// [`PipelineError`] carries the results completed before the
    /// failure, so a resuming caller knows how far the batch got.
    pub fn issue_pipelined(
        &mut self,
        commands: &[&Command],
        depth: usize,
    ) -> Result<Vec<Result<Value, String>>, PipelineError> {
        let mut completed = Vec::with_capacity(commands.len());
        let done = |reply| match reply {
            WireReply::Done {
                value: Some(value),
                fault: None,
            } => Ok(Ok(value)),
            WireReply::Done {
                fault: Some(fault), ..
            } => Ok(Err(fault)),
            other => Err(RadError::Rpc(format!("expected Done, got {other:?}"))),
        };
        let request = |index: usize| Outgoing::Issue(commands[index]);
        match self.exchange(commands.len(), depth, request, done, &mut completed) {
            Ok(()) => Ok(completed),
            Err(error) => Err(PipelineError { completed, error }),
        }
    }

    /// Opens (or idempotently re-opens) a labelled run.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn begin_run(
        &mut self,
        run: u32,
        procedure: ProcedureKind,
        label: Label,
    ) -> Result<(), RadError> {
        self.expect_accepted(WireRequest::BeginRun {
            run,
            procedure,
            label,
        })
    }

    /// Closes the open run (no-op when none is open).
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn end_run(&mut self) -> Result<(), RadError> {
        self.expect_accepted(WireRequest::EndRun)
    }

    /// Attaches an operator note to the open run.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn annotate(&mut self, note: &str) -> Result<(), RadError> {
        self.expect_accepted(WireRequest::Annotate { note: note.into() })
    }

    /// Advances the tenant's simulated clock.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn advance(&mut self, micros: u64) -> Result<(), RadError> {
        self.expect_accepted(WireRequest::Advance { micros })
    }

    /// Flushes the tenant's sink stack through to durable storage.
    ///
    /// # Errors
    ///
    /// Transport failures, or the server reporting the flush failed.
    pub fn sync(&mut self) -> Result<(), RadError> {
        self.expect_accepted(WireRequest::Sync)
    }

    /// Ends the session cleanly; returns the tenant's lifetime
    /// executed-issue count.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn bye(mut self) -> Result<u64, RadError> {
        match self.request(WireRequest::Bye)? {
            WireReply::Goodbye { issues_done } => Ok(issues_done),
            other => Err(RadError::Rpc(format!("expected Goodbye, got {other:?}"))),
        }
    }

    fn expect_accepted(&mut self, body: WireRequest) -> Result<(), RadError> {
        match self.request(body)? {
            WireReply::Accepted => Ok(()),
            WireReply::Failed { message } => Err(RadError::Rpc(message)),
            other => Err(RadError::Rpc(format!("expected Accepted, got {other:?}"))),
        }
    }

    /// One control request, as a window of one.
    fn request(&mut self, body: WireRequest) -> Result<WireReply, RadError> {
        let mut replies = Vec::with_capacity(1);
        self.exchange(1, 1, |_| Outgoing::Control(&body), Ok, &mut replies)?;
        Ok(replies
            .pop()
            .expect("a finished window of one holds its reply"))
    }

    /// The one send/await/retry loop every request runs through: sends
    /// `count` requests with up to `depth` in flight and pushes each
    /// reply, oldest first, through `accept` onto `results`. Request
    /// `i` travels under id `next_id + i`.
    ///
    /// The window is topped up in one write once every reply already
    /// received is consumed (or nothing is in flight), so each chunk of
    /// replies the transport delivers costs one write of as many frames.
    /// A window of one (lock-step `issue`, `Hello`, every control
    /// request) therefore sends each request as its own write.
    ///
    /// A timeout re-sends the whole window in one write under the same
    /// ids — whatever executed before the loss replays from the
    /// server's dedup cache. The oldest request gives up after the
    /// policy's attempts or its deadline, which restarts whenever a
    /// reply arrives. Any other error, or an `Err` from `accept`, ends
    /// the exchange with `results` holding what completed before it.
    fn exchange<'a, R>(
        &mut self,
        count: usize,
        depth: usize,
        request: impl Fn(usize) -> Outgoing<'a>,
        accept: impl Fn(WireReply) -> Result<R, RadError>,
        results: &mut Vec<R>,
    ) -> Result<(), RadError> {
        let depth = depth.max(1);
        let first_id = self.next_id;
        let mut sent = 0usize;
        let mut attempts = 0u32;
        let mut head_deadline = Instant::now() + self.policy.deadline;
        while results.len() < count {
            let done = results.len();
            let upto = count.min(done + depth);
            // Refill only once the buffered replies are consumed.
            if sent < upto && (sent == done || !self.codec.has_frame()) {
                self.next_id = first_id + upto as u64;
                self.send_window(first_id, sent..upto, &request)?;
                sent = upto;
            }
            let remaining = head_deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RadError::RpcTimeout(
                    "oldest request passed its deadline".into(),
                ));
            }
            let wait = remaining.min(self.policy.attempt_timeout);
            match self.await_reply(first_id + done as u64, wait) {
                Ok(reply) => {
                    results.push(accept(reply)?);
                    attempts = 0;
                    head_deadline = Instant::now() + self.policy.deadline;
                }
                // Only a timeout is retried on this link. The server
                // closes it after every `Rejected`, so an overload ends
                // the exchange and the caller retries on a new one.
                Err(e @ RadError::RpcTimeout(_)) => {
                    attempts += 1;
                    if attempts >= self.policy.max_attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(self.policy.backoff_for(attempts));
                    self.send_window(first_id, done..sent, &request)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Frames requests `indices` (request `i` under id `first_id + i`)
    /// into the scratch buffer in the session's codec and sends them as
    /// one write.
    fn send_window<'a>(
        &mut self,
        first_id: u64,
        indices: Range<usize>,
        request: &impl Fn(usize) -> Outgoing<'a>,
    ) -> Result<(), RadError> {
        let deadline_ms = u64::try_from(self.policy.attempt_timeout.as_millis()).unwrap_or(0);
        self.scratch.clear();
        for index in indices {
            let id = first_id + index as u64;
            let out = &mut self.scratch;
            let start = FrameCodec::begin_frame(out);
            match (self.codec_kind, request(index)) {
                (WireCodecKind::Binary, Outgoing::Issue(command)) => {
                    wire::encode_issue_frame(out, id, deadline_ms, command);
                }
                (WireCodecKind::Binary, Outgoing::Control(body)) => {
                    wire::encode_wire_frame(out, id, body);
                }
                (WireCodecKind::Json, Outgoing::Issue(command)) => {
                    let frame = IssueFrameRef {
                        id,
                        deadline_ms,
                        command,
                    };
                    let payload =
                        serde_json::to_vec(&frame).expect("issue frames always serialize");
                    out.extend_from_slice(&payload);
                }
                (WireCodecKind::Json, Outgoing::Control(body)) => {
                    let frame = WireFrame {
                        id,
                        body: body.clone(),
                    };
                    let payload = serde_json::to_vec(&frame).expect("requests always serialize");
                    out.extend_from_slice(&payload);
                }
            }
            FrameCodec::finish_frame(out, start);
        }
        self.transport.send(Bytes::copy_from_slice(&self.scratch))
    }

    fn await_reply(&mut self, id: u64, timeout: Duration) -> Result<WireReply, RadError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.codec.next_frame() {
                Ok(Some(frame)) => {
                    // Self-describing payloads: binary replies carry
                    // the codec tag, anything else decodes as JSON.
                    let Ok(reply) = wire::decode_reply_frame(&frame) else {
                        // Corrupt reply: treated as lost; the retry
                        // machinery re-requests under the same token.
                        self.codec.reset();
                        continue;
                    };
                    let server_notice = reply.id == 0
                        && matches!(
                            reply.body,
                            WireReply::Rejected { .. } | WireReply::Failed { .. }
                        );
                    if reply.id != id && !server_notice {
                        // Stale reply from a timed-out earlier attempt
                        // (or a duplicate of one already consumed).
                        continue;
                    }
                    return match reply.body {
                        WireReply::Rejected { reason } => Err(RadError::Overloaded(reason)),
                        WireReply::Expired => {
                            Err(RadError::RpcTimeout("server-side budget lapsed".into()))
                        }
                        WireReply::Failed { message } => Err(RadError::Rpc(message)),
                        body => Ok(body),
                    };
                }
                Ok(None) => {}
                Err(_) => self.codec.reset(),
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RadError::RpcTimeout("receive timed out".into()));
            }
            match self.transport.recv(remaining) {
                Ok(chunk) => self.codec.push(&chunk),
                Err(RadError::RpcTimeout(_)) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A pipelined batch that could not run to completion: everything
/// reconciled before the failure, plus the error that stopped it.
///
/// `completed` holds in-order per-command results (device faults are
/// the inner `Err` arm and do *not* stop a batch); the commands at
/// `completed.len()..` never resolved.
#[derive(Debug)]
pub struct PipelineError {
    /// In-order results for the commands that resolved.
    pub completed: Vec<Result<Value, String>>,
    /// The terminal transport/protocol error.
    pub error: RadError,
}

/// A request as [`RemoteSession`] frames it: an `Issue` borrows its
/// command, so the hot path never clones one.
#[derive(Clone, Copy)]
enum Outgoing<'a> {
    Issue(&'a Command),
    Control(&'a WireRequest),
}

/// Borrowed `Issue` frame serializing byte-identically to
/// `WireFrame { id, body: WireRequest::Issue { deadline_ms, command } }`
/// without cloning the command (the derive shim rejects lifetimes, so
/// the externally-tagged shape is spelled out by hand; a test pins
/// the equivalence).
struct IssueFrameRef<'a> {
    id: u64,
    deadline_ms: u64,
    command: &'a Command,
}

impl Serialize for IssueFrameRef<'_> {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("id".to_owned(), self.id.to_content()),
            (
                "body".to_owned(),
                serde::Content::Map(vec![(
                    "Issue".to_owned(),
                    serde::Content::Map(vec![
                        ("deadline_ms".to_owned(), self.deadline_ms.to_content()),
                        ("command".to_owned(), self.command.to_content()),
                    ]),
                )]),
            ),
        ])
    }
}

/// What one [`RemoteCampaign`] drive observed.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveReport {
    /// Commands executed remotely *by this session* (skipped prefix
    /// excluded).
    pub executed: u64,
    /// The resume cursor the server reported at connect: commands
    /// already executed by earlier sessions.
    pub resumed_at: u64,
    /// Client-side gaps recorded while degraded (empty unless the link
    /// died under [`DisconnectPolicy::Degrade`]).
    pub gaps: Vec<TraceGap>,
    /// Whether the script ran to completion (remotely or degraded).
    pub completed: bool,
    /// The terminal transport error, when the drive stopped early
    /// under [`DisconnectPolicy::Fail`].
    pub error: Option<RadError>,
}

/// Replays a [`CampaignScript`] against a live lab service.
#[derive(Debug, Clone)]
pub struct RemoteCampaign {
    script: CampaignScript,
    tenant: String,
    policy: RetryPolicy,
    disconnect: DisconnectPolicy,
    codec: WireCodecKind,
    pipeline_depth: usize,
}

impl RemoteCampaign {
    /// A campaign replaying `script` as `tenant`.
    pub fn new(script: CampaignScript, tenant: &str) -> Self {
        RemoteCampaign {
            script,
            tenant: tenant.to_string(),
            policy: RetryPolicy::default(),
            disconnect: DisconnectPolicy::Fail,
            codec: WireCodecKind::Json,
            pipeline_depth: 1,
        }
    }

    /// Replaces the per-request retry policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the link-death behavior.
    #[must_use]
    pub fn on_disconnect(mut self, policy: DisconnectPolicy) -> Self {
        self.disconnect = policy;
        self
    }

    /// Selects the codec of every frame the session sends
    /// ([`WireCodecKind::Json`] by default), independent of the
    /// pipeline depth.
    #[must_use]
    pub fn with_codec(mut self, codec: WireCodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the pipelining window: how many `Issue` requests ride the
    /// wire before the oldest reply is awaited (1 by default: one round
    /// trip per command). Consecutive script commands batch through
    /// [`RemoteSession::issue_pipelined`] at this depth, whatever the
    /// codec.
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Drives the script from the beginning of the *tenant's* history:
    /// identical to [`RemoteCampaign::resume_from`] — the server's
    /// cursor decides how much prefix to skip, which is zero for a
    /// fresh tenant.
    ///
    /// # Errors
    ///
    /// Connect failures (admission rejected the session, transport
    /// died before `Welcome`); after connect, errors are folded into
    /// the report per the disconnect policy.
    pub fn drive<T: Transport>(&self, transport: T) -> Result<DriveReport, RadError> {
        self.resume_from(transport)
    }

    /// Connects, reads the tenant's executed-command cursor from the
    /// `Welcome`, skips the already-executed script prefix (re-opening
    /// an interrupted run via the server's idempotent `BeginRun`), and
    /// drives the remainder. Consecutive command steps batch through
    /// [`RemoteSession::issue_pipelined`] at the campaign's depth, and
    /// every run boundary sends the batch first, so the server observes
    /// the script's exact step order at every depth and codec — the
    /// golden suite pins the exports byte-identical.
    ///
    /// # Errors
    ///
    /// Connect failures. Post-connect link death is folded into the
    /// report: [`DisconnectPolicy::Degrade`] finishes the script on
    /// the local shadow rig with client-side [`TraceGap`]s;
    /// [`DisconnectPolicy::Fail`] stops with `report.error` set so the
    /// caller can reconnect and resume.
    pub fn resume_from<T: Transport>(&self, transport: T) -> Result<DriveReport, RadError> {
        let mut session =
            RemoteSession::connect_with(transport, &self.tenant, self.policy.clone(), self.codec)?;
        let cursor = session.cursor();
        let mut report = DriveReport {
            executed: 0,
            resumed_at: cursor,
            gaps: Vec::new(),
            completed: false,
            error: None,
        };
        let mut shadow = LabRig::new(0);
        let mut issued = 0u64;
        let mut open_run: Option<(u32, ProcedureKind, Label)> = None;
        let mut resumed_open_run = cursor == 0;
        let mut degraded = false;
        let mut batch: Vec<&Command> = Vec::new();
        for step in self.script.steps() {
            match step {
                ScriptStep::Begin {
                    run,
                    procedure,
                    label,
                } => {
                    if !self.flush_batch(
                        &mut session,
                        &mut batch,
                        open_run,
                        &mut issued,
                        &mut report,
                        &mut degraded,
                    ) {
                        return Ok(report);
                    }
                    open_run = Some((*run, *procedure, *label));
                    if issued < cursor || degraded {
                        continue;
                    }
                    resumed_open_run = true;
                    if let Err(e) = session.begin_run(*run, *procedure, *label) {
                        if self.fold_error(e, &mut report, &mut degraded) {
                            continue;
                        }
                        return Ok(report);
                    }
                }
                ScriptStep::End => {
                    if !self.flush_batch(
                        &mut session,
                        &mut batch,
                        open_run,
                        &mut issued,
                        &mut report,
                        &mut degraded,
                    ) {
                        return Ok(report);
                    }
                    open_run = None;
                    if issued < cursor || degraded {
                        continue;
                    }
                    if let Err(e) = session.end_run() {
                        if self.fold_error(e, &mut report, &mut degraded) {
                            continue;
                        }
                        return Ok(report);
                    }
                }
                ScriptStep::Command(command) => {
                    // Every command replays on the shadow rig, even the
                    // skipped prefix — device state must match where
                    // the dead session left off.
                    let _ = shadow.execute(command);
                    // The already-executed prefix and degraded-mode
                    // commands never batch, so `issued` is exact here:
                    // batched commands only settle inside flush_batch.
                    if issued < cursor {
                        issued += 1;
                        continue;
                    }
                    if degraded {
                        issued += 1;
                        report
                            .gaps
                            .push(self.degraded_gap(command, issued, open_run));
                        continue;
                    }
                    if !resumed_open_run {
                        // Resuming mid-run: re-open it first. The
                        // server's BeginRun is idempotent, so this is a
                        // no-op when the run is still open from the
                        // killed session.
                        resumed_open_run = true;
                        if let Some((run, procedure, label)) = open_run {
                            if let Err(e) = session.begin_run(run, procedure, label) {
                                if !self.fold_error(e, &mut report, &mut degraded) {
                                    return Ok(report);
                                }
                            }
                        }
                    }
                    if degraded {
                        issued += 1;
                        report
                            .gaps
                            .push(self.degraded_gap(command, issued, open_run));
                        continue;
                    }
                    batch.push(command);
                }
            }
        }
        if !self.flush_batch(
            &mut session,
            &mut batch,
            open_run,
            &mut issued,
            &mut report,
            &mut degraded,
        ) {
            return Ok(report);
        }
        if !degraded {
            let _ = session.bye();
        }
        report.completed = true;
        Ok(report)
    }

    /// Drains the pending command batch through the pipelined window,
    /// folding a mid-batch failure: completed commands count as
    /// executed, the remainder degrade into gaps or stop the drive per
    /// the disconnect policy. Returns `false` when the drive must stop.
    fn flush_batch<T: Transport>(
        &self,
        session: &mut RemoteSession<T>,
        batch: &mut Vec<&Command>,
        open_run: Option<(u32, ProcedureKind, Label)>,
        issued: &mut u64,
        report: &mut DriveReport,
        degraded: &mut bool,
    ) -> bool {
        if batch.is_empty() {
            return true;
        }
        match session.issue_pipelined(batch, self.pipeline_depth) {
            Ok(results) => {
                *issued += results.len() as u64;
                report.executed += results.len() as u64;
                batch.clear();
                true
            }
            Err(PipelineError { completed, error }) => {
                *issued += completed.len() as u64;
                report.executed += completed.len() as u64;
                let unresolved: Vec<&Command> = batch.split_off(completed.len());
                batch.clear();
                if self.fold_error(error, report, degraded) {
                    for command in unresolved {
                        *issued += 1;
                        report
                            .gaps
                            .push(self.degraded_gap(command, *issued, open_run));
                    }
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Folds a drive error into the report. Returns `true` when the
    /// campaign should continue in degraded mode.
    fn fold_error(&self, e: RadError, report: &mut DriveReport, degraded: &mut bool) -> bool {
        match self.disconnect {
            DisconnectPolicy::Degrade => {
                *degraded = true;
                true
            }
            DisconnectPolicy::Fail => {
                report.error = Some(e);
                false
            }
        }
    }

    fn degraded_gap(
        &self,
        command: &Command,
        issued: u64,
        open_run: Option<(u32, ProcedureKind, Label)>,
    ) -> TraceGap {
        let at = rad_core::SimInstant::from_micros(issued * DEGRADED_STEP_MICROS);
        let mut gap = TraceGap::new(
            at,
            DeviceId::primary(command.command_type().device()),
            command.command_type(),
            TraceMode::Remote,
            TraceGap::intern_reason(GAP_REASON),
        );
        if let Some((run, _, _)) = open_run {
            gap = gap.with_run(RunId(run));
        }
        gap
    }
}

/// The declarative form of a [`RemoteCampaign`] tenant — one entry of
/// the `transport.tenants` array of a scenario document:
///
/// ```json
/// {
///   "tenant": "alice",
///   "max_commands": 40,
///   "on_disconnect": "degrade",
///   "retry": {"max_attempts": 6, "deadline_ms": 5000}
/// }
/// ```
///
/// Only `tenant` is required. `max_commands` truncates the replayed
/// script ([`CampaignScript::truncated`]); `on_disconnect` is
/// `"fail"` (default) or `"degrade"`; `retry` is a
/// [`RetrySpec`](rad_middlebox::rpc::RetrySpec) section.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name the session connects as.
    pub tenant: String,
    /// Truncate the script to this many command steps, if set.
    pub max_commands: Option<usize>,
    /// Per-request retry policy override, if set.
    pub retry: Option<rad_middlebox::rpc::RetrySpec>,
    /// Link-death behavior.
    pub on_disconnect: DisconnectPolicy,
}

impl TenantSpec {
    const FIELDS: &'static [&'static str] = &["tenant", "max_commands", "retry", "on_disconnect"];

    /// Builds the [`RemoteCampaign`] this spec describes over a
    /// replayable script (truncating it first when `max_commands` is
    /// set).
    pub fn to_campaign(&self, script: CampaignScript) -> RemoteCampaign {
        let script = match self.max_commands {
            Some(max) => script.truncated(max),
            None => script,
        };
        let mut campaign =
            RemoteCampaign::new(script, &self.tenant).on_disconnect(self.on_disconnect);
        if let Some(retry) = &self.retry {
            campaign = campaign.with_policy(retry.to_policy());
        }
        campaign
    }

    /// Parses one tenant entry of a scenario document. `ctx` is the
    /// dotted path of `value` for error messages.
    ///
    /// # Errors
    ///
    /// [`RadError::Spec`] on unknown fields, ill-typed values, an
    /// empty tenant name, or an unknown disconnect policy.
    pub fn from_json(value: &serde_json::Value, ctx: &str) -> Result<Self, RadError> {
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, Self::FIELDS)?;
        let tenant = spec::req_str(map, ctx, "tenant")?;
        if tenant.is_empty() {
            return Err(RadError::spec(
                spec::path(ctx, "tenant"),
                "must not be empty",
            ));
        }
        let max_commands = match spec::opt_u64(map, ctx, "max_commands")? {
            None => None,
            Some(n) => Some(usize::try_from(n).map_err(|_| {
                RadError::spec(spec::path(ctx, "max_commands"), "exceeds usize range")
            })?),
        };
        let retry = match map.get("retry") {
            None | Some(serde_json::Value::Null) => None,
            Some(v) => Some(rad_middlebox::rpc::RetrySpec::from_json(
                v,
                &spec::path(ctx, "retry"),
            )?),
        };
        let on_disconnect = match spec::opt_str(map, ctx, "on_disconnect")? {
            None | Some("fail") => DisconnectPolicy::Fail,
            Some("degrade") => DisconnectPolicy::Degrade,
            Some(other) => {
                return Err(RadError::spec(
                    spec::path(ctx, "on_disconnect"),
                    format!("unknown policy `{other}` (accepted: fail, degrade)"),
                ))
            }
        };
        Ok(TenantSpec {
            tenant: tenant.to_string(),
            max_commands,
            retry,
            on_disconnect,
        })
    }

    /// Serializes the spec back to its JSON form. Optional sections
    /// are omitted when absent.
    pub fn to_json(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        map.insert(
            "tenant".into(),
            serde_json::Value::from(self.tenant.clone()),
        );
        if let Some(max) = self.max_commands {
            map.insert("max_commands".into(), serde_json::Value::from(max as u64));
        }
        if let Some(retry) = &self.retry {
            map.insert("retry".into(), retry.to_json());
        }
        map.insert(
            "on_disconnect".into(),
            serde_json::Value::from(match self.on_disconnect {
                DisconnectPolicy::Fail => "fail",
                DisconnectPolicy::Degrade => "degrade",
            }),
        );
        serde_json::Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::CommandType;
    use rad_middlebox::server::{LabService, ServerConfig};

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(1),
            backoff_factor: 2,
            attempt_timeout: Duration::from_millis(250),
            deadline: Duration::from_secs(5),
            ..RetryPolicy::default()
        }
        .with_jitter(7, 500)
    }

    fn tiny_script() -> CampaignScript {
        CampaignScript::from_steps(vec![
            ScriptStep::Begin {
                run: 1,
                procedure: ProcedureKind::JoystickMovements,
                label: Label::Benign,
            },
            ScriptStep::Command(Command::nullary(CommandType::InitC9)),
            ScriptStep::Command(Command::nullary(CommandType::Home)),
            ScriptStep::Command(Command::nullary(CommandType::Mvng)),
            ScriptStep::End,
        ])
    }

    #[test]
    fn borrowed_issue_frame_serializes_identically() {
        let command = Command::new(
            CommandType::Move,
            vec![Value::Float(1.5), Value::Str("axis".into())],
        );
        let borrowed = serde_json::to_vec(&IssueFrameRef {
            id: 7,
            deadline_ms: 250,
            command: &command,
        })
        .unwrap();
        let owned = serde_json::to_vec(&WireFrame {
            id: 7,
            body: WireRequest::Issue {
                deadline_ms: 250,
                command: command.clone(),
            },
        })
        .unwrap();
        assert_eq!(borrowed, owned, "borrowed frame must match the derive");
    }

    #[test]
    fn pipelined_binary_drive_matches_lock_step() {
        let config = ServerConfig::default();
        let server = LabService::new(config.clone())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let lock_step = RemoteCampaign::new(tiny_script(), "json")
            .with_policy(fast_policy())
            .drive(rad_middlebox::SocketTransport::connect_tcp(&addr).unwrap())
            .unwrap();
        let pipelined = RemoteCampaign::new(tiny_script(), "binary")
            .with_policy(fast_policy())
            .with_codec(WireCodecKind::Binary)
            .with_pipeline_depth(8)
            .drive(rad_middlebox::SocketTransport::connect_tcp(&addr).unwrap())
            .unwrap();
        assert_eq!(pipelined.executed, lock_step.executed);
        assert!(pipelined.completed && lock_step.completed);
        let report = server.drain().unwrap();
        let issues: Vec<u64> = report.tenants.iter().map(|t| t.issues).collect();
        assert_eq!(issues, vec![3, 3], "both drives executed every command");
    }

    #[test]
    fn pipelined_drive_resumes_from_the_cursor() {
        let server = LabService::new(ServerConfig::default())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let script = tiny_script();
        let prefix = RemoteCampaign::new(script.clone().truncated(2), "t")
            .with_policy(fast_policy())
            .with_codec(WireCodecKind::Binary)
            .with_pipeline_depth(4);
        let first = prefix
            .drive(rad_middlebox::SocketTransport::connect_tcp(&addr).unwrap())
            .unwrap();
        assert_eq!(first.executed, 2);
        let full = RemoteCampaign::new(script, "t")
            .with_policy(fast_policy())
            .with_codec(WireCodecKind::Binary)
            .with_pipeline_depth(4);
        let second = full
            .resume_from(rad_middlebox::SocketTransport::connect_tcp(&addr).unwrap())
            .unwrap();
        assert_eq!(second.resumed_at, 2);
        assert_eq!(second.executed, 1, "only the unexecuted suffix runs");
        let report = server.drain().unwrap();
        assert_eq!(report.tenants[0].issues, 3, "no overlap, no loss");
    }

    #[test]
    fn pipelined_degrade_records_gaps_for_the_unresolved_tail() {
        use std::sync::Arc;

        use rad_middlebox::{FaultPlan, FaultProfile, FaultStats, Faulty, Lane, SocketTransport};

        let server = LabService::new(ServerConfig::default())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        // The link dies after 2 sent chunks: Hello and BeginRun get
        // through; the whole pipelined command batch is unresolved and
        // degrades into client-side gaps.
        let plan = Arc::new(FaultPlan::new(1, FaultProfile::disconnect_after(2)));
        let transport = Faulty::new(
            SocketTransport::connect_tcp(&addr).unwrap(),
            plan,
            Lane::Request,
            FaultStats::new(),
        );
        let report = RemoteCampaign::new(tiny_script(), "t")
            .with_policy(fast_policy())
            .with_codec(WireCodecKind::Binary)
            .with_pipeline_depth(8)
            .on_disconnect(DisconnectPolicy::Degrade)
            .drive(transport)
            .unwrap();
        assert!(report.completed, "degraded mode finishes the script");
        assert_eq!(report.executed, 0, "no command resolved remotely");
        assert_eq!(report.gaps.len(), 3, "every command is gap-marked");
        assert!(report.gaps.iter().all(|g| g.reason == GAP_REASON));
        assert!(report.gaps.iter().all(|g| g.run_id == Some(RunId(1))));
    }

    #[test]
    fn script_extraction_is_deterministic_and_run_bracketed() {
        let a = CampaignScript::supervised(11);
        let b = CampaignScript::supervised(11);
        assert_eq!(a, b, "same seed, same script");
        assert!(a.command_count() > 100, "supervised campaign is nontrivial");
        // Every Begin has a matching End and commands only appear
        // between them or outside any run.
        let mut depth = 0i32;
        for step in a.steps() {
            match step {
                ScriptStep::Begin { .. } => {
                    depth += 1;
                    assert_eq!(depth, 1, "runs never nest");
                }
                ScriptStep::End => {
                    depth -= 1;
                    assert_eq!(depth, 0);
                }
                ScriptStep::Command(_) => {}
            }
        }
        assert_eq!(depth, 0, "every run closes");
    }

    /// The script as first extracted: from the full build (power
    /// synthesized), every trace materialized, stably sorted by time.
    fn script_from_materialized_traces(seed: u64) -> CampaignScript {
        let dataset = CampaignBuilder::new(seed).supervised_only().build();
        let mut traces = dataset.command().traces();
        traces.sort_by_key(|t| t.timestamp());
        let mut steps = Vec::new();
        let mut open: Option<RunId> = None;
        for trace in &traces {
            if trace.run_id() != open {
                if open.is_some() {
                    steps.push(ScriptStep::End);
                }
                open = trace.run_id();
                if let Some(run) = open {
                    steps.push(ScriptStep::Begin {
                        run: run.0,
                        procedure: trace.procedure(),
                        label: trace.label(),
                    });
                }
            }
            steps.push(ScriptStep::Command(trace.command().clone()));
        }
        if open.is_some() {
            steps.push(ScriptStep::End);
        }
        CampaignScript::from_steps(steps)
    }

    #[test]
    fn script_from_command_rows_matches_the_materialized_construction() {
        for seed in 0..8 {
            assert_eq!(
                CampaignScript::supervised(seed),
                script_from_materialized_traces(seed),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn truncation_counts_commands_not_steps() {
        let script = tiny_script().truncated(2);
        assert_eq!(script.command_count(), 2);
        assert!(matches!(script.steps()[0], ScriptStep::Begin { .. }));
        assert_eq!(script.steps().len(), 3, "Begin + 2 commands");
    }

    #[test]
    fn drive_and_resume_split_the_script_without_overlap() {
        let server = LabService::new(ServerConfig::default())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let script = tiny_script();
        // First session runs a 2-command prefix (simulating a kill
        // right after).
        let prefix =
            RemoteCampaign::new(script.clone().truncated(2), "t").with_policy(fast_policy());
        let transport = rad_middlebox::SocketTransport::connect_tcp(&addr).unwrap();
        let first = prefix.drive(transport).unwrap();
        assert_eq!(first.executed, 2);
        assert_eq!(first.resumed_at, 0);
        assert!(first.completed);
        // Second session resumes the full script: skips 2, runs 1.
        let full = RemoteCampaign::new(script, "t").with_policy(fast_policy());
        let transport = rad_middlebox::SocketTransport::connect_tcp(&addr).unwrap();
        let second = full.resume_from(transport).unwrap();
        assert_eq!(second.resumed_at, 2);
        assert_eq!(second.executed, 1, "only the unexecuted suffix runs");
        assert!(second.completed);
        let report = server.drain().unwrap();
        assert_eq!(report.tenants[0].issues, 3, "no overlap, no loss");
    }

    #[test]
    fn degrade_policy_records_client_side_gaps_with_run_attribution() {
        use std::sync::Arc;

        use rad_middlebox::{FaultPlan, FaultProfile, FaultStats, Faulty, Lane, SocketTransport};

        let server = LabService::new(ServerConfig::default())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        // The client-side link dies deterministically after 3 sent
        // chunks: Hello, BeginRun, and the first Issue get through;
        // the remaining two commands degrade into client-side gaps.
        let plan = Arc::new(FaultPlan::new(1, FaultProfile::disconnect_after(3)));
        let transport = Faulty::new(
            SocketTransport::connect_tcp(&addr).unwrap(),
            plan,
            Lane::Request,
            FaultStats::new(),
        );
        let report = RemoteCampaign::new(tiny_script(), "t")
            .with_policy(fast_policy())
            .on_disconnect(DisconnectPolicy::Degrade)
            .drive(transport)
            .unwrap();
        assert!(report.completed, "degraded mode finishes the script");
        assert_eq!(report.executed, 1, "one command made it out remotely");
        assert_eq!(report.gaps.len(), 2, "the rest are gap-marked");
        assert!(report.gaps.iter().all(|g| g.reason == GAP_REASON));
        assert!(report.gaps.iter().all(|g| g.run_id == Some(RunId(1))));
        assert!(
            report.gaps[0].timestamp < report.gaps[1].timestamp,
            "client-side gap clock is monotone"
        );
        // The server never saw the degraded commands: its tenant count
        // stops at what was executed remotely.
        let drained = server.drain().unwrap();
        assert_eq!(drained.tenants[0].issues, 1);
    }

    #[test]
    fn fail_policy_surfaces_the_error_and_resume_completes() {
        use std::sync::Arc;

        use rad_middlebox::{FaultPlan, FaultProfile, FaultStats, Faulty, Lane, SocketTransport};

        let server = LabService::new(ServerConfig::default())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let campaign = RemoteCampaign::new(tiny_script(), "t").with_policy(fast_policy());
        // Kill the link after 3 chunks (mid-campaign, inside run 1).
        let plan = Arc::new(FaultPlan::new(1, FaultProfile::disconnect_after(3)));
        let dying = Faulty::new(
            SocketTransport::connect_tcp(&addr).unwrap(),
            plan,
            Lane::Request,
            FaultStats::new(),
        );
        let first = campaign.drive(dying).unwrap();
        assert!(!first.completed);
        assert!(first.error.is_some(), "Fail policy surfaces the error");
        assert_eq!(first.executed, 1);
        // Reconnect over a clean link: resume_from skips the executed
        // prefix (server cursor = 1) and finishes the script.
        let clean = SocketTransport::connect_tcp(&addr).unwrap();
        let second = campaign.resume_from(clean).unwrap();
        assert!(second.completed);
        assert_eq!(second.resumed_at, 1);
        assert_eq!(second.executed, 2);
        let drained = server.drain().unwrap();
        assert_eq!(drained.tenants[0].issues, 3, "no loss, no double execution");
    }
}
