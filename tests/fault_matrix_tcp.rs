//! The PR 2 fault-conformance matrix, rerun over *live sockets*: the
//! same five wire-fault profiles drive a tenant on a real
//! [`LabService`] over TCP and over a Unix-domain socket, and the
//! traces and gaps that land in the tenant's sink must be identical —
//! `PartialEq` on whole [`TraceObject`]s and [`TraceGap`]s — to an
//! in-process [`Middlebox`] given the same seed, plan, and schedule.
//!
//! Separately, the exactly-once invariant from `fault_rpc.rs` is
//! re-proven with the [`FaultPlan`] interposed on a genuinely real
//! wire: `Faulty<SocketTransport>` on both ends of a kernel TCP
//! connection between a [`RemoteSession`] and a [`LabService`] session.

use std::sync::Arc;
use std::time::Duration;

use rad::prelude::*;
use rad_middlebox::{Lane, TenantSinkStack};

const SEED: u64 = 42;
const TENANT: &str = "conformance";
const COMMANDS: u64 = 100;

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

/// The schedule every endpoint replays: one `InitC9`, then `Mvng`s,
/// with the first half bracketed in a labelled run so disconnect gaps
/// must carry run attribution across the wire.
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

/// The run closes at command 80 — past the disconnect row's chunk-60
/// link death, so that profile's gaps straddle the run boundary: some
/// attributed to run 1, the tail unattributed.
const RUN_SPLIT: usize = 80;

/// Drives the schedule on an in-process middlebox with the tenant's
/// derived seed — the reference the live servers must reproduce.
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

enum Wire {
    Tcp,
    Unix,
}

/// Drives the same schedule against a live server over the given
/// transport and returns what the tenant's sink collected.
fn over_live_wire(plan: FaultPlan, wire: &Wire) -> (Vec<TraceObject>, Vec<TraceGap>) {
    let config = ServerConfig {
        seed: SEED,
        fault_plan: Some(plan),
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
    let sock_path = std::env::temp_dir().join(format!(
        "rad-matrix-{}-{:p}.sock",
        std::process::id(),
        &sink
    ));
    let handle = match wire {
        Wire::Tcp => service.serve_tcp("127.0.0.1:0").expect("serve tcp"),
        Wire::Unix => {
            let _ = std::fs::remove_file(&sock_path);
            service.serve_unix(&sock_path).expect("serve unix")
        }
    };
    let transport = match wire {
        Wire::Tcp => {
            let addr = handle.local_addr().expect("tcp addr").to_string();
            SocketTransport::connect_tcp(&addr).expect("connect tcp")
        }
        Wire::Unix => SocketTransport::connect_unix(&sock_path).expect("connect unix"),
    };
    let mut session =
        RemoteSession::connect(transport, TENANT, RetryPolicy::default()).expect("hello");
    session
        .begin_run(1, ProcedureKind::AutomatedSolubilityN9, Label::Benign)
        .expect("begin run");
    for (i, command) in schedule().iter().enumerate() {
        if i == RUN_SPLIT {
            session.end_run().expect("end run");
        }
        session
            .issue(command)
            .unwrap_or_else(|e| panic!("live command {i} failed: {e}"))
            .unwrap_or_else(|f| panic!("live command {i} faulted: {f}"));
    }
    session.bye().expect("bye");
    handle.drain().expect("drain");
    (sink.traces(), sink.gaps())
}

#[test]
fn live_tcp_matrix_is_byte_identical_to_in_process() {
    for (name, plan) in matrix() {
        let config = ServerConfig {
            seed: SEED,
            ..ServerConfig::default()
        };
        let (want_traces, want_gaps) = in_process(&config, plan.clone());
        let (got_traces, got_gaps) = over_live_wire(plan, &Wire::Tcp);
        assert_eq!(got_traces, want_traces, "{name}: TCP traces diverge");
        assert_eq!(got_gaps, want_gaps, "{name}: TCP gaps diverge");
    }
}

#[test]
fn live_unix_matrix_is_byte_identical_to_in_process() {
    for (name, plan) in matrix() {
        let config = ServerConfig {
            seed: SEED,
            ..ServerConfig::default()
        };
        let (want_traces, want_gaps) = in_process(&config, plan.clone());
        let (got_traces, got_gaps) = over_live_wire(plan, &Wire::Unix);
        assert_eq!(got_traces, want_traces, "{name}: Unix traces diverge");
        assert_eq!(got_gaps, want_gaps, "{name}: Unix gaps diverge");
    }
}

#[test]
fn disconnect_gaps_survive_the_live_wire_with_run_attribution() {
    let plan = FaultPlan::new(SEED, FaultProfile::disconnect_after(60));
    let (traces, gaps) = over_live_wire(plan, &Wire::Tcp);
    assert!(!gaps.is_empty(), "the chunk-60 disconnect must bite");
    assert_eq!(
        traces.len() + gaps.len(),
        COMMANDS as usize,
        "accounting holds over the live wire"
    );
    assert!(gaps.iter().all(|g| !g.reason.is_empty()));
    // The link dies around chunk 60 and the run closes at command 80:
    // gaps inside the run keep their attribution across the wire, the
    // post-run tail stays unattributed.
    assert!(
        gaps.iter().any(|g| g.run_id == Some(RunId(1))),
        "in-run gaps must keep their run attribution over the live wire"
    );
    assert!(
        gaps.iter().any(|g| g.run_id.is_none()),
        "post-run gaps must stay unattributed"
    );
}

/// `fault_rpc.rs`'s harness over a kernel socket: the [`FaultPlan`]
/// interposes on real TCP via the [`Transport`] trait
/// (`Faulty<SocketTransport>` on both ends, the server end accepted by
/// hand and attached to the service), and exactly-once still holds —
/// executions cover every acknowledgement, dedup absorbs every retry.
fn tcp_rpc_harness(
    plan: FaultPlan,
    policy: RetryPolicy,
) -> (
    RemoteSession<Faulty<SocketTransport>>,
    ServerHandle,
    FaultStats,
) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let client_side = SocketTransport::connect_tcp(&addr).expect("connect");
    let (conn, _) = listener.accept().expect("accept");
    let server_side = SocketTransport::tcp(conn).expect("wrap server");
    let stats = FaultStats::new();
    let plan = Arc::new(plan);
    let client_side = Faulty::new(client_side, Arc::clone(&plan), Lane::Request, stats.clone());
    let server_side = Faulty::new(server_side, plan, Lane::Response, stats.clone());
    let server = LabService::new(ServerConfig::default()).start();
    server.attach(server_side).expect("admitted");
    let session = RemoteSession::connect(client_side, TENANT, policy).expect("hello");
    (session, server, stats)
}

#[test]
fn faulted_real_wire_executes_exactly_once() {
    let policy = RetryPolicy {
        max_attempts: 6,
        initial_backoff: Duration::from_millis(1),
        backoff_factor: 2,
        attempt_timeout: Duration::from_millis(100),
        deadline: Duration::from_secs(3),
        ..RetryPolicy::default()
    };
    let (mut session, server, stats) =
        tcp_rpc_harness(FaultPlan::new(7, FaultProfile::drop(0.25)), policy);
    let total = 30u64;
    let mut acknowledged = 0u64;
    for i in 0..total {
        let command = if i == 0 {
            Command::nullary(CommandType::InitC9)
        } else {
            Command::nullary(CommandType::Mvng)
        };
        if session.issue(&command).is_ok() {
            acknowledged += 1;
        }
    }
    drop(session);
    let executions = server.drain().expect("drain").stats.issues;
    assert!(acknowledged > 0, "a 25% drop wire still lands commands");
    assert!(
        stats.dropped() > 0,
        "the plan must actually interpose on the kernel socket"
    );
    assert!(
        executions <= total,
        "{executions} executions for {total} requests — a retry double-executed over real TCP"
    );
    assert!(acknowledged <= executions);
    assert!(
        acknowledged > total / 2,
        "retries should recover most calls (got {acknowledged}/{total})"
    );
}
