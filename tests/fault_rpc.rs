//! Wire-fault conformance for the lab service: a seeded [`FaultPlan`]
//! faults both lanes between a [`RemoteSession`] and a [`LabService`]
//! session — over an in-process [`FaultyDuplex`] pair, and over a
//! kernel TCP connection with `Faulty<SocketTransport>` on both ends
//! (the server end accepted by hand and attached to the service).
//!
//! The invariant under test everywhere: however lossy the wire,
//! **every acknowledged command executed exactly once** — retries reuse
//! their idempotency token and the server deduplicates. The execution
//! counts come from the server's own stats (`issues`, `dedup_hits`).

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use rad::prelude::*;
use rad_middlebox::Lane;

const TENANT: &str = "conformance";

/// A retry policy tuned for tests: fast attempts, generous attempt
/// count, bounded wall-clock.
fn test_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        initial_backoff: Duration::from_millis(1),
        backoff_factor: 2,
        attempt_timeout: Duration::from_millis(100),
        deadline: Duration::from_secs(3),
        ..RetryPolicy::default()
    }
}

#[derive(Debug, Clone, Copy)]
enum Wire {
    Duplex,
    Tcp,
}

const WIRES: [Wire; 2] = [Wire::Duplex, Wire::Tcp];

/// The client end of a faulted link, whichever the wire.
type Link = Box<dyn Transport + Send>;

/// Builds one faulted link under `plan` — requests on the client's
/// lane, replies on the server's — attaches its server end to
/// `server`, and returns the client end.
fn link(server: &ServerHandle, plan: FaultPlan, stats: &FaultStats, wire: Wire) -> Link {
    match wire {
        Wire::Duplex => {
            let (client_side, server_side) = FaultyDuplex::wrap_pair(plan, stats.clone());
            server.attach(server_side).expect("admitted");
            Box::new(client_side)
        }
        Wire::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr").to_string();
            let client_side = SocketTransport::connect_tcp(&addr).expect("connect");
            let (conn, _) = listener.accept().expect("accept");
            let server_side = SocketTransport::tcp(conn).expect("wrap server");
            let plan = Arc::new(plan);
            let server_side = Faulty::new(
                server_side,
                Arc::clone(&plan),
                Lane::Response,
                stats.clone(),
            );
            server.attach(server_side).expect("admitted");
            Box::new(Faulty::new(client_side, plan, Lane::Request, stats.clone()))
        }
    }
}

/// A service, one faulted session on it, and the shared fault counters.
fn harness(plan: FaultPlan, wire: Wire) -> (RemoteSession<Link>, ServerHandle, FaultStats) {
    let server = LabService::new(ServerConfig::default()).start();
    let stats = FaultStats::new();
    let session = RemoteSession::connect(link(&server, plan, &stats, wire), TENANT, test_policy())
        .unwrap_or_else(|e| panic!("{wire:?}: connect failed: {e}"));
    (session, server, stats)
}

/// `InitC9`, then `Mvng` polls.
fn command(i: u64) -> Command {
    if i == 0 {
        Command::nullary(CommandType::InitC9)
    } else {
        Command::nullary(CommandType::Mvng)
    }
}

#[test]
fn clean_plan_is_invisible_to_the_rpc_stack() {
    for wire in WIRES {
        let (mut session, server, faults) = harness(FaultPlan::new(1, FaultProfile::none()), wire);
        let ok = |s: &mut RemoteSession<Link>, c: Command| {
            s.issue(&c)
                .unwrap_or_else(|e| panic!("{wire:?}: {e}"))
                .unwrap_or_else(|f| panic!("{wire:?}: {f}"))
        };
        ok(&mut session, Command::nullary(CommandType::InitC9));
        ok(&mut session, Command::nullary(CommandType::Home));
        // The C9 is homed on the server's rig: motion is accepted.
        ok(
            &mut session,
            Command::new(
                CommandType::Arm,
                vec![Value::Location {
                    x: 250.0,
                    y: 150.0,
                    z: 60.0,
                }],
            ),
        );
        assert_eq!(session.bye().unwrap(), 3);
        let stats = server.drain().expect("drain").stats;
        assert_eq!(stats.issues, 3, "{wire:?}");
        assert_eq!(stats.dedup_hits, 0, "{wire:?}");
        // No retries: exactly one chunk per request (Hello, 3 issues,
        // Bye) and one per reply crossed the wire.
        assert_eq!(faults.delivered(), 10, "{wire:?}: {}", faults.snapshot());
        assert_eq!(
            faults.dropped() + faults.corrupted() + faults.disconnects(),
            0
        );
    }
}

#[test]
fn lossy_wire_retries_but_never_double_executes() {
    for wire in WIRES {
        let (mut session, server, faults) =
            harness(FaultPlan::new(7, FaultProfile::drop(0.25)), wire);
        let total = 30u64;
        let acknowledged = (0..total)
            .filter(|&i| session.issue(&command(i)).is_ok())
            .count() as u64;
        drop(session);
        let stats = server.drain().expect("drain").stats;
        assert!(
            faults.dropped() > 0,
            "{wire:?}: a 25% drop profile over 30 calls must actually drop chunks"
        );
        // Idempotency: at most one execution per distinct request id,
        // and every acknowledged call was backed by a real execution.
        assert!(
            stats.issues <= total,
            "{wire:?}: {} executions for {} requests — a retry double-executed",
            stats.issues,
            total
        );
        assert!(acknowledged <= stats.issues, "{wire:?}");
        assert!(
            acknowledged > total / 2,
            "{wire:?}: retries should recover most calls (got {acknowledged}/{total})"
        );
    }
}

#[test]
fn duplicated_chunks_are_deduplicated_not_reexecuted() {
    for wire in WIRES {
        // Every chunk arrives twice on both lanes — `Welcome` included,
        // so a stale duplicate reply must never answer a later request.
        let (mut session, server, _faults) =
            harness(FaultPlan::new(3, FaultProfile::duplicate(1.0)), wire);
        let total = 10u64;
        for i in 0..total {
            session
                .issue(&command(i))
                .unwrap_or_else(|e| panic!("{wire:?}: command {i}: {e}"))
                .unwrap_or_else(|f| panic!("{wire:?}: command {i}: {f}"));
        }
        drop(session);
        let stats = server.drain().expect("drain").stats;
        assert_eq!(
            stats.issues, total,
            "{wire:?}: each duplicated request executes exactly once"
        );
        assert!(
            stats.dedup_hits > 0,
            "{wire:?}: duplicates must hit the idempotency cache"
        );
    }
}

#[test]
fn corrupt_chunks_are_survivable() {
    for wire in WIRES {
        let server = LabService::new(ServerConfig::default()).start();
        let faults = FaultStats::new();
        let profile = FaultProfile::corrupt(0.2);
        let total = 20u64;
        let mut acknowledged = 0u64;
        let mut links = 0u64;
        // A corrupted length prefix loses framing, and the server
        // quarantines the session. Like a campaign killed mid-run, the
        // client then reconnects to the same tenant and resumes from
        // the server's cursor; each link gets a fresh fault seed.
        let mut reconnect = || -> RemoteSession<Link> {
            for _ in 0..50 {
                links += 1;
                let plan = FaultPlan::new(40 + links, profile.clone());
                let transport = link(&server, plan, &faults, wire);
                if let Ok(session) = RemoteSession::connect(transport, TENANT, test_policy()) {
                    return session;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            panic!("{wire:?}: the tenant never reconnected");
        };
        let mut session = reconnect();
        let mut next = 0u64;
        while next < total {
            match session.issue(&command(next)) {
                Ok(_) => {
                    acknowledged += 1;
                    next += 1;
                }
                Err(_) => {
                    drop(session);
                    session = reconnect();
                    next = session.cursor();
                }
            }
        }
        drop(session);
        let stats = server.drain().expect("drain").stats;
        assert!(
            faults.corrupted() > 0,
            "{wire:?}: the corrupt profile must bite"
        );
        assert!(
            stats.quarantined > 0,
            "{wire:?}: the schedule must lose framing, so the resume path runs"
        );
        // A flipped byte can (rarely) still parse as a different
        // request, so the exactly-once bound is per *delivered intact*
        // request.
        assert!(
            stats.issues <= total + faults.corrupted(),
            "{wire:?}: {} executions, {} corrupted chunks",
            stats.issues,
            faults.corrupted()
        );
        assert!(
            acknowledged > total / 2,
            "{wire:?}: corruption is retried through (got {acknowledged}/{total})"
        );
    }
}

#[test]
fn disconnect_mid_stream_is_a_typed_terminal_error() {
    for wire in WIRES {
        let (mut session, server, faults) =
            harness(FaultPlan::new(5, FaultProfile::disconnect_after(4)), wire);
        let err = (0..10u64)
            .find_map(|i| session.issue(&command(i)).err())
            .unwrap_or_else(|| panic!("{wire:?}: the link died after 4 chunks; a call must fail"));
        assert!(
            matches!(err, RadError::RpcDisconnected(_) | RadError::RpcTimeout(_)),
            "{wire:?}: disconnect surfaces as a typed rpc error, got {err}"
        );
        drop(session);
        let stats = server.drain().expect("drain").stats;
        assert!(faults.disconnects() > 0, "{wire:?}");
        // Whatever executed, executed once per id.
        assert!(stats.issues <= 10, "{wire:?}");
    }
}
