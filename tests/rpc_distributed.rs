//! Integration tests of the distributed substrate: a lab-computer
//! client driving per-tenant device rigs through the lab service over
//! in-process transports, including failure injection (a session
//! killed mid-campaign, then resumed) and §VII's sharded deployment.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use rad::prelude::*;
use rad_middlebox::Lane;

fn cmd(ct: CommandType) -> Command {
    Command::nullary(ct)
}

/// A listener-less lab service: every session arrives in-process.
fn lab() -> ServerHandle {
    LabService::new(ServerConfig::default()).start()
}

/// Opens a session for `tenant` over a fresh duplex pair attached to
/// `server`, the client end wrapped by `wrap`. A previous session of the
/// tenant may still be closing server-side; its typed busy reject is
/// retried briefly, each time on a new link.
fn session_over<T: Transport>(
    server: &ServerHandle,
    tenant: &str,
    wrap: impl Fn(Duplex) -> T,
) -> RemoteSession<T> {
    for _ in 0..50 {
        let (client_side, server_side) = Duplex::pair();
        server.attach(server_side).expect("admitted");
        match RemoteSession::connect(wrap(client_side), tenant, RetryPolicy::default()) {
            Ok(session) => return session,
            Err(RadError::Overloaded(_)) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("connect as {tenant} failed: {e}"),
        }
    }
    panic!("tenant {tenant} never freed up");
}

fn connect(server: &ServerHandle, tenant: &str) -> RemoteSession<Duplex> {
    session_over(server, tenant, |d| d)
}

/// Executes one command the device must accept; returns its value.
fn ok<T: Transport>(session: &mut RemoteSession<T>, command: &Command) -> Value {
    session
        .issue(command)
        .unwrap_or_else(|e| panic!("{command:?}: transport failure: {e}"))
        .unwrap_or_else(|f| panic!("{command:?}: device fault: {f}"))
}

/// Executes one command the device must refuse; returns the exception.
fn fault<T: Transport>(session: &mut RemoteSession<T>, command: &Command) -> String {
    match session.issue(command) {
        Ok(Err(fault)) => fault,
        other => panic!("{command:?}: expected a device fault, got {other:?}"),
    }
}

#[test]
fn a_dosing_workflow_runs_over_the_wire() {
    let server = lab();
    let mut s = connect(&server, "dosing");
    ok(&mut s, &cmd(CommandType::InitQuantos));
    ok(
        &mut s,
        &Command::new(CommandType::SetHomeDirection, vec![Value::Str("up".into())]),
    );
    ok(&mut s, &cmd(CommandType::HomeZStage));
    ok(&mut s, &cmd(CommandType::LockDosingPin));
    ok(
        &mut s,
        &Command::new(CommandType::TargetMass, vec![Value::Float(120.0)]),
    );
    let dose = |s: &mut RemoteSession<Duplex>| {
        ok(s, &cmd(CommandType::StartDosing))
            .as_float()
            .expect("dosing returns the dispensed mass")
    };
    let mg = dose(&mut s);
    assert!((mg - 120.0).abs() < 5.0, "dosed {mg} mg");

    // The state changes happened on the tenant's rig, server-side: the
    // Z stage is homed (it accepts a move) and the target mass persists
    // (a second dose is again 120 mg).
    ok(
        &mut s,
        &Command::new(CommandType::MoveZStage, vec![Value::Int(100)]),
    );
    let again = dose(&mut s);
    assert!((again - 120.0).abs() < 5.0, "second dose {again} mg");
    assert_eq!(s.bye().unwrap(), 8);
    server.drain().unwrap();
}

#[test]
fn remote_faults_surface_as_rpc_exceptions_without_killing_the_session() {
    let server = lab();
    let mut s = connect(&server, "tecan");
    ok(&mut s, &cmd(CommandType::InitTecan));
    // Motion before homing: a remote device fault.
    let err = fault(
        &mut s,
        &Command::new(CommandType::TecanSetPosition, vec![Value::Int(100)]),
    );
    assert!(err.contains("send Z first"), "{err}");
    // The session survives and subsequent calls work.
    ok(&mut s, &cmd(CommandType::TecanSetHomePosition));
    let idle =
        (0..32).any(|_| ok(&mut s, &cmd(CommandType::TecanGetStatus)) == Value::Str("idle".into()));
    assert!(idle);
    drop(s);
    server.drain().unwrap();
}

/// A session refused by the server, which must be the typed busy reject.
fn assert_overloaded<T: Transport>(refused: Result<RemoteSession<T>, RadError>) {
    match refused {
        Err(RadError::Overloaded(reason)) => assert!(reason.contains("active session"), "{reason}"),
        Err(e) => panic!("a busy tenant must answer Overloaded, got {e}"),
        Ok(_) => panic!("a busy tenant admitted a second session"),
    }
}

#[test]
fn connecting_to_a_busy_tenant_is_overloaded() {
    // The server closes the link after its reject, so the client must
    // surface the reject, not retry into the closed link.
    let server = lab();
    let holder = connect(&server, "busy");
    let (client_side, server_side) = Duplex::pair();
    server.attach(server_side).expect("admitted");
    assert_overloaded(RemoteSession::connect(
        client_side,
        "busy",
        RetryPolicy::default(),
    ));
    drop(holder);
    server.drain().unwrap();

    let server = LabService::new(ServerConfig::default())
        .serve_tcp("127.0.0.1:0")
        .expect("serve tcp");
    let addr = server.local_addr().expect("tcp addr").to_string();
    let tcp = || SocketTransport::connect_tcp(&addr).expect("connect tcp");
    let holder = RemoteSession::connect(tcp(), "busy", RetryPolicy::default()).expect("hello");
    assert_overloaded(RemoteSession::connect(
        tcp(),
        "busy",
        RetryPolicy::default(),
    ));
    drop(holder);
    server.drain().unwrap();
}

#[test]
fn middlebox_death_is_observed_and_a_restart_recovers() {
    let server = lab();
    // Phase 1: a healthy session, over a link that dies after its third
    // chunk (Hello, InitC9, Home).
    let plan = Arc::new(FaultPlan::new(3, FaultProfile::disconnect_after(3)));
    let mut s = session_over(&server, "lab", |d| {
        Faulty::new(d, Arc::clone(&plan), Lane::Request, FaultStats::new())
    });
    ok(&mut s, &cmd(CommandType::InitC9));
    ok(&mut s, &cmd(CommandType::Home));

    // Phase 2: the session dies. The client observes a disconnect, not
    // a hang.
    let err = s.issue(&cmd(CommandType::Mvng)).unwrap_err();
    assert!(
        matches!(err, RadError::RpcDisconnected(_)),
        "a dead link is a disconnect, not a timeout: {err}"
    );
    drop(s);

    // Phase 3: reconnect to the same tenant. Its devices outlived the
    // session (only the session died), and the cursor says how far the
    // dead session got.
    let mut s = connect(&server, "lab");
    assert_eq!(s.cursor(), 2);
    // The arm is still homed from phase 1: motion works immediately.
    ok(
        &mut s,
        &Command::new(
            CommandType::Arm,
            vec![Value::Location {
                x: 250.0,
                y: 150.0,
                z: 60.0,
            }],
        ),
    );
    s.bye().unwrap();
    let report = server.drain().unwrap();
    assert_eq!(report.tenants[0].issues, 3, "nothing lost or replayed");
}

#[test]
fn two_rigs_behind_two_middleboxes_stay_isolated() {
    // The paper's future-work scaling story: several middleboxes, here
    // two tenants of one service. State must not leak between them.
    let server = lab();
    let mut a = connect(&server, "rig-a");
    let mut b = connect(&server, "rig-b");

    ok(&mut a, &cmd(CommandType::InitIka));
    ok(
        &mut a,
        &Command::new(CommandType::IkaSetSpeed, vec![Value::Float(700.0)]),
    );
    ok(&mut a, &cmd(CommandType::IkaStartMotor));

    // Rig B's IKA was never initialized: the same query fails there...
    let err = fault(&mut b, &cmd(CommandType::IkaReadStirringSpeed));
    assert!(err.contains("not opened"), "{err}");
    // ...while rig A's motor is running: its stirrer spins up.
    let rpm = ok(&mut a, &cmd(CommandType::IkaReadStirringSpeed))
        .as_float()
        .expect("stirring speed is a float");
    assert!(rpm > 0.0, "rig A's motor is on: {rpm} rpm");

    drop((a, b));
    let report = server.drain().unwrap();
    let issues: Vec<(&str, u64)> = report
        .tenants
        .iter()
        .map(|t| (t.tenant.as_str(), t.issues))
        .collect();
    assert_eq!(issues, vec![("rig-a", 4), ("rig-b", 1)]);
}

#[test]
fn sustained_polling_over_rpc_is_lossless() {
    let server = lab();
    let mut s = connect(&server, "poller");
    ok(&mut s, &cmd(CommandType::InitC9));
    // A thousand sequential polls: every one gets exactly one reply.
    for i in 0..1000 {
        let v = s.issue(&cmd(CommandType::Mvng));
        assert!(matches!(v, Ok(Ok(_))), "poll {i} failed: {v:?}");
    }
    assert_eq!(s.bye().unwrap(), 1001);
    let stats = server.drain().unwrap().stats;
    assert_eq!(stats.issues, 1001);
    assert_eq!(stats.dedup_hits, 0, "no poll needed a retry");
}

/// §VII's scaling story: "as the number of devices grows ... a single
/// middlebox will not suffice", so devices are partitioned across
/// middlebox shards. Here each shard is a tenant, and the lab computer
/// routes every command to the shard that owns its device.
struct ShardRouter {
    shard_of: BTreeMap<DeviceKind, usize>,
    shards: Vec<RemoteSession<Duplex>>,
}

impl ShardRouter {
    /// Every device on shard 0, except those listed in `elsewhere`;
    /// shard `i` is tenant `{name}-{i}`.
    fn new(server: &ServerHandle, name: &str, elsewhere: &[(DeviceKind, usize)]) -> Self {
        let mut shard_of: BTreeMap<DeviceKind, usize> =
            DeviceKind::all().iter().map(|&d| (d, 0)).collect();
        shard_of.extend(elsewhere.iter().copied());
        let count = shard_of.values().max().map_or(1, |&max| max + 1);
        let shards = (0..count)
            .map(|shard| connect(server, &format!("{name}-{shard}")))
            .collect();
        ShardRouter { shard_of, shards }
    }

    fn issue(&mut self, command: &Command) -> Result<Value, String> {
        let shard = self.shard_of[&command.device()];
        self.shards[shard].issue(command).expect("shard reachable")
    }
}

#[test]
fn cross_shard_interlocks_are_not_enforceable() {
    // Park the arm in the Quantos door's sweep, then open the door.
    let sequence = [
        cmd(CommandType::InitUr3Arm),
        cmd(CommandType::InitQuantos),
        Command::new(
            CommandType::MoveToLocation,
            vec![Value::Location {
                x: 750.0,
                y: 230.0,
                z: 150.0,
            }],
        ),
        Command::new(
            CommandType::FrontDoorPosition,
            vec![Value::Str("open".into())],
        ),
    ];
    let server = lab();
    let run = |router: &mut ShardRouter| -> Vec<Result<Value, String>> {
        sequence.iter().map(|c| router.issue(c)).collect()
    };

    // One middlebox sees both devices: the door strikes the arm.
    let mut single = ShardRouter::new(&server, "single", &[]);
    let results = run(&mut single);
    assert!(results[..3].iter().all(Result::is_ok), "{results:?}");
    let collision = results[3].as_ref().unwrap_err();
    assert!(collision.contains("collision"), "{collision}");

    // The UR3e and the Quantos on different shards: neither shard can
    // see the door-vs-arm geometry, so the door opens while the arm is
    // parked in its sweep. The lost interlock is the price of sharding,
    // exactly the open question §VII leaves.
    drop(single);
    let mut sharded = ShardRouter::new(&server, "sharded", &[(DeviceKind::Quantos, 1)]);
    let results = run(&mut sharded);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    drop(sharded);

    // Each command went to its owning shard.
    let report = server.drain().unwrap();
    let issues: Vec<(&str, u64)> = report
        .tenants
        .iter()
        .map(|t| (t.tenant.as_str(), t.issues))
        .collect();
    assert_eq!(
        issues,
        vec![("sharded-0", 2), ("sharded-1", 2), ("single-0", 4)]
    );
}
