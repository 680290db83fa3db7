//! The golden suite for the binary pipelined wire (ISSUE PR 10): the
//! fast path must be *invisible* in the data. Three proofs:
//!
//! 1. **Campaign-export equivalence** — the same seeded campaign
//!    driven lock-step over JSON (the reference), pipelined over the
//!    binary codec at depths 1, 8, and 32, and pipelined over JSON at
//!    depth 8 leaves a byte-identical export in the tenant's sink:
//!    `PartialEq` on whole [`TraceObject`]s and [`TraceGap`]s,
//!    timestamps included.
//!
//! 2. **Fault matrix over the binary wire** — the PR 2 five-profile
//!    conformance matrix (`tests/fault_matrix_tcp.rs`) rerun with the
//!    client speaking pipelined binary frames: every profile's traces
//!    and gaps still match the in-process [`Middlebox`] reference.
//!
//! 3. **Concurrent tenants** — several tenants driving pipelined
//!    binary campaigns at once each execute every command exactly
//!    once, and every executed row reaches its tenant's sink.
//!
//! Beside them, the window's write pattern is pinned: a pipelined batch
//! returns what lock-step issues return, tops its window up with one
//! write per received chunk of replies, and never has more than
//! `depth` requests in flight.
//!
//! The first two hold because the server's clock is command-count
//! driven and the fault plan interposes inside the tenant's middlebox
//! — pacing and encoding cannot perturb what lands in the sink, and
//! this suite pins that.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use bytes::Bytes;

use rad::prelude::*;
use rad_middlebox::TenantSinkStack;
use rad_workloads::ScriptStep;

const SEED: u64 = 42;
const TENANT: &str = "conformance";

/// A fresh single-tenant lab service whose sink is a shared
/// [`CollectingSink`]; returns the handle and the sink to read back.
fn collecting_service(fault_plan: Option<FaultPlan>) -> (ServerHandle, CollectingSink) {
    let config = ServerConfig {
        seed: SEED,
        fault_plan,
        ..ServerConfig::default()
    };
    let sink = CollectingSink::new();
    let collected = sink.clone();
    let service = LabService::new(config).with_sink_factory(Arc::new(move |_tenant: &str| {
        Ok(TenantSinkStack {
            sink: Box::new(collected.clone()),
            durable: None,
        })
    }));
    let handle = service.serve_tcp("127.0.0.1:0").expect("serve tcp");
    (handle, sink)
}

fn tcp_transport(handle: &ServerHandle) -> SocketTransport {
    let addr = handle.local_addr().expect("tcp addr").to_string();
    SocketTransport::connect_tcp(&addr).expect("connect tcp")
}

/// Drives the seeded supervised campaign against a fresh service with
/// the given codec and pipeline depth, and returns the sink's export.
fn campaign_export(codec: WireCodecKind, depth: usize) -> (Vec<TraceObject>, Vec<TraceGap>) {
    let script = CampaignScript::supervised(SEED).truncated(150);
    let expected = script.command_count();
    let (handle, sink) = collecting_service(None);
    let report = RemoteCampaign::new(script, TENANT)
        .with_codec(codec)
        .with_pipeline_depth(depth)
        .drive(tcp_transport(&handle))
        .expect("drive campaign");
    assert!(report.completed, "campaign must run to completion");
    assert!(report.error.is_none(), "clean wire: {:?}", report.error);
    assert_eq!(report.executed as usize, expected);
    handle.drain().expect("drain");
    (sink.traces(), sink.gaps())
}

#[test]
fn pipelined_binary_exports_are_byte_identical_to_lock_step_json() {
    let (want_traces, want_gaps) = campaign_export(WireCodecKind::Json, 1);
    assert!(!want_traces.is_empty(), "the reference export is non-empty");
    for (codec, depth) in [
        (WireCodecKind::Binary, 1usize),
        (WireCodecKind::Binary, 8),
        (WireCodecKind::Binary, 32),
        (WireCodecKind::Json, 8),
    ] {
        let (got_traces, got_gaps) = campaign_export(codec, depth);
        let codec = codec.as_name();
        assert_eq!(
            got_traces, want_traces,
            "{codec} depth {depth}: pipelined traces diverge from lock-step JSON"
        );
        assert_eq!(
            got_gaps, want_gaps,
            "{codec} depth {depth}: pipelined gaps diverge from lock-step JSON"
        );
    }
}

// ---------------------------------------------------------------------
// The PR 2 fault matrix, rerun over the binary pipelined wire.
// ---------------------------------------------------------------------

const COMMANDS: u64 = 100;

/// The run closes at command 80 — past the disconnect row's chunk-60
/// link death, so that profile's gaps straddle the run boundary.
const RUN_SPLIT: usize = 80;

/// The five-row profile matrix from `tests/fault_matrix.rs`.
fn matrix() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::new(SEED, FaultProfile::none())),
        ("drop5", FaultPlan::new(SEED, FaultProfile::drop(0.05))),
        ("corrupt", FaultPlan::new(SEED, FaultProfile::corrupt(0.05))),
        ("reorder", FaultPlan::new(SEED, FaultProfile::reorder(0.05))),
        (
            "disconnect",
            FaultPlan::new(SEED, FaultProfile::disconnect_after(60)),
        ),
    ]
}

/// One `InitC9` then `Mvng`s — the schedule every endpoint replays.
fn schedule() -> Vec<Command> {
    (0..COMMANDS)
        .map(|i| {
            if i == 0 {
                Command::nullary(CommandType::InitC9)
            } else {
                Command::nullary(CommandType::Mvng)
            }
        })
        .collect()
}

/// The in-process reference: same derived seed, plan, and schedule.
fn in_process(config: &ServerConfig, plan: FaultPlan) -> (Vec<TraceObject>, Vec<TraceGap>) {
    let mut mb = Middlebox::new(config.tenant_seed(TENANT)).with_fault_plan(plan);
    mb.begin_run(
        RunId(1),
        ProcedureKind::AutomatedSolubilityN9,
        Label::Benign,
    );
    for (i, command) in schedule().iter().enumerate() {
        if i == RUN_SPLIT {
            mb.end_run();
        }
        mb.issue(command)
            .unwrap_or_else(|e| panic!("reference command {i} failed: {e}"));
    }
    (mb.traces(), mb.gaps().to_vec())
}

/// Drives the schedule over live TCP in pipelined binary batches,
/// split at the run boundary so the cursor semantics line up with the
/// lock-step harness.
fn over_pipelined_wire(plan: FaultPlan, depth: usize) -> (Vec<TraceObject>, Vec<TraceGap>) {
    let (handle, sink) = collecting_service(Some(plan));
    let mut session = RemoteSession::connect_with(
        tcp_transport(&handle),
        TENANT,
        RetryPolicy::default(),
        WireCodecKind::Binary,
    )
    .expect("hello");
    session
        .begin_run(1, ProcedureKind::AutomatedSolubilityN9, Label::Benign)
        .expect("begin run");
    let commands = schedule();
    let refs: Vec<&Command> = commands.iter().collect();
    for (leg, batch) in [&refs[..RUN_SPLIT], &refs[RUN_SPLIT..]].iter().enumerate() {
        if leg == 1 {
            session.end_run().expect("end run");
        }
        let results = session
            .issue_pipelined(batch, depth)
            .unwrap_or_else(|e| panic!("pipelined leg {leg} failed: {}", e.error));
        assert_eq!(results.len(), batch.len());
        for (i, result) in results.iter().enumerate() {
            result
                .as_ref()
                .unwrap_or_else(|f| panic!("pipelined command {i} of leg {leg} faulted: {f}"));
        }
    }
    session.bye().expect("bye");
    handle.drain().expect("drain");
    (sink.traces(), sink.gaps())
}

#[test]
fn fault_matrix_over_binary_pipelined_wire_matches_in_process() {
    for (name, plan) in matrix() {
        let config = ServerConfig {
            seed: SEED,
            ..ServerConfig::default()
        };
        let (want_traces, want_gaps) = in_process(&config, plan.clone());
        for depth in [8usize, 32] {
            let (got_traces, got_gaps) = over_pipelined_wire(plan.clone(), depth);
            assert_eq!(
                got_traces, want_traces,
                "{name}: depth {depth} traces diverge"
            );
            assert_eq!(got_gaps, want_gaps, "{name}: depth {depth} gaps diverge");
        }
    }
}

#[test]
fn disconnect_gaps_keep_run_attribution_over_the_pipelined_wire() {
    let plan = FaultPlan::new(SEED, FaultProfile::disconnect_after(60));
    let (traces, gaps) = over_pipelined_wire(plan, 16);
    assert!(!gaps.is_empty(), "the chunk-60 disconnect must bite");
    assert_eq!(
        traces.len() + gaps.len(),
        COMMANDS as usize,
        "accounting holds over the pipelined wire"
    );
    assert!(gaps.iter().all(|g| !g.reason.is_empty()));
    assert!(
        gaps.iter().any(|g| g.run_id == Some(RunId(1))),
        "in-run gaps must keep their run attribution"
    );
    assert!(
        gaps.iter().any(|g| g.run_id.is_none()),
        "post-run gaps must stay unattributed"
    );
}

#[test]
fn concurrent_pipelined_tenants_execute_and_flush_exactly_once() {
    const TENANTS: usize = 4;
    let script = CampaignScript::supervised(SEED).truncated(500);
    let expected = script.command_count() as u64;
    // Every tenant's first `Hello` waits here until all have arrived,
    // so no command runs before all sessions are open at once.
    let all_open = Arc::new(Barrier::new(TENANTS));
    let config = ServerConfig {
        seed: SEED,
        max_sessions: TENANTS,
        backlog: TENANTS,
        ..ServerConfig::default()
    };
    let service = LabService::new(config).with_sink_factory(Arc::new(move |_tenant: &str| {
        all_open.wait();
        Ok(TenantSinkStack {
            sink: Box::new(CountingSink::default()),
            durable: None,
        })
    }));
    let handle = service.serve_tcp("127.0.0.1:0").expect("serve tcp");
    // Generous timeouts: a retry is harmless here, a missed deadline
    // on a loaded debug build is not.
    let policy = RetryPolicy {
        attempt_timeout: Duration::from_secs(10),
        deadline: Duration::from_secs(30),
        ..RetryPolicy::default()
    };

    let executed: u64 = std::thread::scope(|s| {
        let legs: Vec<_> = (0..TENANTS)
            .map(|t| {
                let campaign = RemoteCampaign::new(script.clone(), &format!("tenant-{t}"))
                    .with_policy(policy.clone())
                    .with_codec(WireCodecKind::Binary)
                    .with_pipeline_depth(32);
                let transport = tcp_transport(&handle);
                s.spawn(move || campaign.drive(transport).expect("drive campaign"))
            })
            .collect();
        legs.into_iter()
            .map(|leg| {
                let report = leg.join().expect("tenant leg");
                assert!(report.completed, "error: {:?}", report.error);
                assert_eq!(report.executed, expected);
                report.executed
            })
            .sum()
    });

    let drain = handle.drain().expect("drain");
    assert_eq!(drain.stats.issues, executed, "each command executed once");
    assert_eq!(drain.tenants.len(), TENANTS);
    for tenant in &drain.tenants {
        assert_eq!(
            tenant.rows_flushed, tenant.issues,
            "{}: every executed row reached the sink",
            tenant.tenant
        );
    }
}

// ---------------------------------------------------------------------
// The pipelined window's writes.
// ---------------------------------------------------------------------

/// What a [`CountingTransport`] saw: client writes, and request frames
/// in flight (sent minus replies received).
#[derive(Debug, Default)]
struct WireCounts {
    writes: AtomicUsize,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
}

/// The client end of a [`Duplex`] link that counts its writes and the
/// frames crossing it in each direction.
struct CountingTransport {
    inner: Duplex,
    counts: Arc<WireCounts>,
    /// One codec per direction, so frames are counted however the
    /// chunks split them.
    codecs: Mutex<(FrameCodec, FrameCodec)>,
}

/// Whole frames buffered in `codec` once `chunk` is appended.
fn frames_in(codec: &mut FrameCodec, chunk: &[u8]) -> usize {
    codec.push(chunk);
    std::iter::from_fn(|| codec.next_frame().expect("well-framed wire")).count()
}

impl Transport for CountingTransport {
    fn send(&self, chunk: Bytes) -> Result<(), RadError> {
        let frames = frames_in(&mut self.codecs.lock().unwrap().0, &chunk);
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        let in_flight = self.counts.in_flight.fetch_add(frames, Ordering::Relaxed) + frames;
        self.counts
            .peak_in_flight
            .fetch_max(in_flight, Ordering::Relaxed);
        self.inner.send(chunk)
    }

    fn recv(&self, timeout: Duration) -> Result<Bytes, RadError> {
        let chunk = self.inner.recv(timeout)?;
        let frames = frames_in(&mut self.codecs.lock().unwrap().1, &chunk);
        self.counts.in_flight.fetch_sub(frames, Ordering::Relaxed);
        Ok(chunk)
    }
}

/// The first `n` commands of the seeded supervised script: a real mix
/// of devices, values and device faults.
fn script_commands(n: usize) -> Vec<Command> {
    CampaignScript::supervised(SEED)
        .truncated(n)
        .steps()
        .iter()
        .filter_map(|step| match step {
            ScriptStep::Command(command) => Some(command.clone()),
            _ => None,
        })
        .collect()
}

/// A session on a fresh in-process lab service, over a counting link.
fn counted_session() -> (
    ServerHandle,
    RemoteSession<CountingTransport>,
    Arc<WireCounts>,
) {
    let server = LabService::new(ServerConfig {
        seed: SEED,
        ..ServerConfig::default()
    })
    .start();
    let (client_side, server_side) = Duplex::pair();
    server.attach(server_side).expect("admitted");
    let counts = Arc::new(WireCounts::default());
    let transport = CountingTransport {
        inner: client_side,
        counts: Arc::clone(&counts),
        codecs: Mutex::new((FrameCodec::new(), FrameCodec::new())),
    };
    let session = RemoteSession::connect_with(
        transport,
        TENANT,
        RetryPolicy::default(),
        WireCodecKind::Binary,
    )
    .expect("hello");
    (server, session, counts)
}

#[test]
fn pipelined_window_refills_once_per_received_chunk() {
    for (n, depth) in [(320usize, 32usize), (100, 1), (100, 7), (100, 32)] {
        let commands = script_commands(n);
        assert_eq!(commands.len(), n);
        let refs: Vec<&Command> = commands.iter().collect();

        let (server, mut lock_step, _) = counted_session();
        let want: Vec<_> = refs
            .iter()
            .map(|command| lock_step.issue(command).expect("lock-step issue"))
            .collect();
        lock_step.bye().expect("bye");
        server.drain().expect("drain");

        let (server, mut pipelined, counts) = counted_session();
        let writes_before = counts.writes.load(Ordering::Relaxed);
        let got = pipelined
            .issue_pipelined(&refs, depth)
            .unwrap_or_else(|e| panic!("n {n} depth {depth}: {}", e.error));
        let writes = counts.writes.load(Ordering::Relaxed) - writes_before;
        pipelined.bye().expect("bye");
        server.drain().expect("drain");

        assert_eq!(
            got, want,
            "n {n} depth {depth}: results diverge from lock-step"
        );
        assert!(
            writes <= n.div_ceil(depth),
            "n {n} depth {depth}: {writes} client writes, at most {} expected",
            n.div_ceil(depth)
        );
        let peak = counts.peak_in_flight.load(Ordering::Relaxed);
        assert!(
            peak <= depth,
            "n {n} depth {depth}: {peak} requests in flight"
        );
    }
}
