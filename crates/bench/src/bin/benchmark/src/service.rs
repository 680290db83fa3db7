//! The service workloads: an in-process `LabService` on loopback TCP
//! with the tenant stack `radd serve --data-dir --detect` builds, driven
//! by `run_scenario` socket scenarios from one closed-loop client, the
//! whole process pinned to one CPU.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rad_analysis::detector::FittedDetector;
use rad_analysis::{AlertPolicy, StreamingPerplexity};
use rad_core::{Command, CommandType, RadError, SharedAlerts, Tee};
use rad_devices::LabRig;
use rad_middlebox::rpc::RetryPolicy;
use rad_middlebox::server::{
    DrainReport, LabService, ServerConfig, ServerHandle, SinkFactory, SocketTransport,
    TenantSinkStack,
};
use rad_middlebox::{DurableSink, WireCodecKind};
use rad_store::{DurableOptions, DurableStore};
use rad_workloads::{
    fit_detector, run_scenario, CampaignBuilder, CampaignScript, DriveReport, RemoteSession,
    RunOptions, ScenarioReport, ScenarioSpec, ScriptStep,
};

use crate::spans::{Recorder, OP};
use crate::workload::{parse_documents, remove, Bench, Measured, Op, Traced, Workload};

/// Tenants one server serves before it is drained and replaced. A
/// tenant's state stays resident until drain (about 3 MiB each), so a
/// fixed number per server keeps peak RSS and drain time from growing
/// with throughput. 32 is this benchmark's choice, not a measured `radd`
/// deployment: `radd serve` never recycles.
const TENANTS_PER_SERVER: u32 = 32;

/// Tenant the set-up's warm-up drive runs as.
const WARM_UP_TENANT: &str = "warmup";

type Detector = Arc<FittedDetector<CommandType>>;

struct Server {
    handle: ServerHandle,
    addr: String,
    data_dir: PathBuf,
}

impl Server {
    /// Serves each tenant a durable store teed with a run-end
    /// perplexity stage, on a free loopback port.
    fn start(seed: u64, detector: &Detector, data_dir: PathBuf) -> Result<Server, RadError> {
        let detector = Arc::clone(detector);
        let alerts = SharedAlerts::new();
        let dir = data_dir.clone();
        let factory: SinkFactory = Arc::new(move |tenant: &str| {
            let stage = StreamingPerplexity::new(&detector, AlertPolicy::RunEnd, alerts.clone());
            let (store, _) = DurableStore::open(&dir.join(tenant), DurableOptions::default())?;
            let store = Arc::new(store);
            Ok(TenantSinkStack {
                sink: Box::new(Tee::new(DurableSink::new(Arc::clone(&store)), stage)),
                durable: Some(store),
            })
        });
        let config = ServerConfig {
            seed,
            data_dir: Some(data_dir.clone()),
            ..ServerConfig::default()
        };
        let handle = LabService::new(config)
            .with_sink_factory(factory)
            .serve_tcp("127.0.0.1:0")?;
        let addr = handle
            .local_addr()
            .ok_or_else(|| RadError::Rpc("TCP server has no local address".into()))?
            .to_string();
        Ok(Server {
            handle,
            addr,
            data_dir,
        })
    }

    /// Drains, then deletes the tenants' stores.
    fn stop(self) -> Result<DrainReport, RadError> {
        let report = self.handle.drain()?;
        remove(&self.data_dir)?;
        Ok(report)
    }
}

/// A service workload after set-up: a live server that has served one
/// warm-up drive.
pub struct ServiceBench {
    spec: ScenarioSpec,
    seed: u64,
    scratch: PathBuf,
    detector: Detector,
    server: Option<Server>,
    servers_started: usize,
    warm_up_executed: u64,
    /// Commands each untraced op executed, by op index.
    executed: BTreeMap<u32, u64>,
}

impl ServiceBench {
    /// Pins the process to one CPU, parses the document, fits the
    /// streaming detector on the seed's supervised campaign (as `radd
    /// serve --detect` does), starts the server and runs one warm-up
    /// drive with `warm_up_seed`.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        warm_up_seed: u64,
        scratch: &Path,
    ) -> Result<Self, RadError> {
        pin_to_one_cpu()?;
        let spec = parse_documents(workload)?.remove(0);
        let training = CampaignBuilder::new(seed).supervised_only().build();
        let mut bench = ServiceBench {
            spec,
            seed,
            scratch: scratch.to_path_buf(),
            detector: Arc::new(fit_detector(&training, 2)?),
            server: None,
            servers_started: 0,
            warm_up_executed: 0,
            executed: BTreeMap::new(),
        };
        let server = bench.start_server()?;
        let warm_up = drive_spec(&bench.spec, WARM_UP_TENANT, warm_up_seed);
        let drive = tenant_drive(run_scenario(&warm_up, &options(&server.addr))?)?;
        let expected = expected_commands(&bench.spec, warm_up_seed);
        if !drive_ok(&drive) || drive.executed != expected {
            return Err(RadError::Rpc(format!(
                "warm-up drive executed {} of {expected} commands: {drive:?}",
                drive.executed
            )));
        }
        bench.warm_up_executed = drive.executed;
        bench.server = Some(server);
        Ok(bench)
    }

    fn start_server(&mut self) -> Result<Server, RadError> {
        let dir = format!("server-{}", self.servers_started);
        self.servers_started += 1;
        Server::start(self.seed, &self.detector, self.scratch.join(dir))
    }

    /// One untraced op: a fresh tenant's drive through `run_scenario`.
    fn run_op(&self, addr: &str, index: u32, seed: u64) -> (Op, Option<DriveReport>) {
        let spec = drive_spec(&self.spec, &op_tenant(index), seed);
        let options = options(addr);
        let started = Instant::now();
        let drive = run_scenario(&spec, &options).and_then(tenant_drive);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let drive = drive
            .map_err(|e| eprintln!("op {index} (seed {seed}) failed: {e}"))
            .ok();
        let failed = !drive.as_ref().is_some_and(drive_ok);
        (
            Op {
                index,
                seed,
                ms,
                failed,
            },
            drive,
        )
    }
}

impl Bench for ServiceBench {
    fn measure(&mut self, first_seed: u64, budget: Duration) -> Result<Measured, RadError> {
        let mut server = self
            .server
            .take()
            .ok_or_else(|| RadError::Rpc("the set-up server runs one measured loop".into()))?;
        let mut on_server = self.warm_up_executed;
        let mut measured = Measured::default();
        let mut wall = Duration::ZERO;
        let mut index = 0u32;
        let started = Instant::now();
        loop {
            let epoch = Instant::now();
            let mut results = Vec::new();
            while results.len() < TENANTS_PER_SERVER as usize && started.elapsed() < budget {
                let seed = first_seed.wrapping_add(u64::from(index));
                results.push(self.run_op(&server.addr, index, seed));
                index += 1;
            }
            // The drain flushes what the ops queued: inside the wall.
            let drain = server.handle.drain()?;
            wall += epoch.elapsed();
            remove(&server.data_dir)?;

            let epoch_ok = results.iter().all(|(op, _)| !op.failed);
            for (op, drive) in results {
                if let Some(drive) = drive.filter(|_| !op.failed) {
                    measured.problems.extend(check_drive(
                        &self.spec,
                        op.seed,
                        drive.resumed_at,
                        drive.executed,
                    ));
                    self.executed.insert(op.index, drive.executed);
                    on_server += drive.executed;
                }
                measured.ops.push(op);
            }
            if epoch_ok {
                measured.problems.extend(check_drain(&drain, on_server));
            }
            measured.rows += drain
                .tenants
                .iter()
                .filter(|t| t.tenant != WARM_UP_TENANT)
                .map(|t| t.rows_flushed)
                .sum::<u64>();
            if started.elapsed() >= budget {
                break;
            }
            let restart = Instant::now();
            server = self.start_server()?;
            wall += restart.elapsed();
            on_server = 0;
        }
        measured.wall_s = wall.as_secs_f64();
        Ok(measured)
    }

    fn trace(&mut self, measured: &Measured) -> Result<Traced, RadError> {
        let ops: Vec<&Op> = measured
            .ops
            .iter()
            .filter(|op| self.executed.contains_key(&op.index))
            .collect();
        let mut traced = Traced::new(Instant::now());
        // The same tenants per server as the untraced loop.
        for group in
            ops.chunk_by(|a, b| a.index / TENANTS_PER_SERVER == b.index / TENANTS_PER_SERVER)
        {
            let server = self.start_server()?;
            let mut executed = 0;
            let mut failed = 0;
            for op in group {
                let root = traced.spans.open(OP, op.index);
                let drive = traced_drive(&mut traced.spans, &self.spec, &server.addr, op);
                traced.spans.close(root);
                traced.ops += 1;
                match drive {
                    Ok(d) => {
                        executed += d.executed;
                        traced.problems.extend(check_drive(
                            &self.spec,
                            op.seed,
                            d.resumed_at,
                            d.executed,
                        ));
                        if self.executed.get(&op.index) != Some(&d.executed) {
                            traced.problems.push(format!(
                                "seed {}: traced drive executed {}, untraced {:?}",
                                op.seed,
                                d.executed,
                                self.executed.get(&op.index)
                            ));
                        }
                    }
                    Err(e) => {
                        eprintln!("traced op {} (seed {}) failed: {e}", op.index, op.seed);
                        failed += 1;
                    }
                }
            }
            traced.failed += failed;
            let drain = traced
                .spans
                .time("server.drain", || server.handle.drain())?;
            remove(&server.data_dir)?;
            if failed == 0 {
                traced.problems.extend(check_drain(&drain, executed));
            }
            let tenants = &drain.tenants;
            for (name, value) in [
                ("server.issues", drain.stats.issues),
                (
                    "server.rows_flushed",
                    tenants.iter().map(|t| t.rows_flushed).sum(),
                ),
                (
                    "server.peak_queued_rows",
                    tenants
                        .iter()
                        .map(|t| t.peak_queued_rows)
                        .max()
                        .unwrap_or(0),
                ),
                ("server.dedup_evictions", drain.stats.dedup_evictions),
                ("server.rejected", drain.stats.rejected),
            ] {
                traced.sample(name, value as f64);
            }
        }
        Ok(traced)
    }

    fn tear_down(self: Box<Self>) -> Result<(), RadError> {
        match self.server {
            Some(server) => server.stop().map(drop),
            None => Ok(()),
        }
    }
}

/// Pins the calling thread, and with it every thread it starts later
/// (the server's and the client's), to the first CPU it may run on.
///
/// Unpinned on a 2-vCPU VM, both service workloads' op times moved by
/// 1.6× to 3× with whatever else kept a CPU busy; pinned, they did not
/// (README.md, "Load model").
fn pin_to_one_cpu() -> Result<(), RadError> {
    /// glibc's `cpu_set_t`: one bit for each of 1024 CPUs.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let os_error =
        |call: &str| RadError::Rpc(format!("{call}: {}", std::io::Error::last_os_error()));
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable `cpu_set_t` and the size
    // passed is its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(os_error("sched_getaffinity"));
    }
    let cpu = (0..1024)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| RadError::Rpc("the affinity mask names no CPU".into()))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t` and the size passed is its
    // size; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(os_error("sched_setaffinity"));
    }
    Ok(())
}

/// What a traced drive observed.
struct TracedDrive {
    executed: u64,
    resumed_at: u64,
}

/// `RemoteCampaign`'s drive of a fresh tenant, one layer call at a time:
/// lock-step `issue` per command, or `issue_pipelined` per run batch
/// flushed at every run boundary, as `drive_pipelined` calls it.
fn traced_drive(
    rec: &mut Recorder,
    spec: &ScenarioSpec,
    addr: &str,
    op: &Op,
) -> Result<TracedDrive, RadError> {
    let tenant = &spec.transport.tenants[0];
    let mut script = rec.time("remote.script", || CampaignScript::supervised(op.seed));
    if let Some(max) = tenant.max_commands {
        script = script.truncated(max);
    }
    let policy = tenant
        .retry
        .as_ref()
        .map_or_else(RetryPolicy::default, |retry| retry.to_policy());
    let codec = spec.transport.codec;
    let depth = spec.transport.pipeline_depth.unwrap_or(1);
    let pipelined = depth > 1 || codec != WireCodecKind::Json;
    let mut session = rec.time("remote.connect", || {
        SocketTransport::connect_tcp(addr).and_then(|transport| {
            RemoteSession::connect_with(transport, &op_tenant(op.index), policy, codec)
        })
    })?;
    let resumed_at = session.cursor();
    let mut shadow = rec.time("devices.rig", || LabRig::new(0));
    let mut batch: Vec<&Command> = Vec::new();
    let mut executed = 0u64;
    for step in script.steps() {
        match step {
            ScriptStep::Begin {
                run,
                procedure,
                label,
            } => {
                executed += flush_window(rec, &mut session, &mut batch, depth)?;
                rec.time("remote.boundary", || {
                    session.begin_run(*run, *procedure, *label)
                })?;
            }
            ScriptStep::End => {
                executed += flush_window(rec, &mut session, &mut batch, depth)?;
                rec.time("remote.boundary", || session.end_run())?;
            }
            ScriptStep::Command(command) => {
                rec.time("devices.shadow_execute", || {
                    let _ = shadow.execute(command);
                });
                if pipelined {
                    batch.push(command);
                } else {
                    // A device fault is a logged outcome, not a failure.
                    let _device_result = rec.time("remote.issue", || session.issue(command))?;
                    executed += 1;
                }
            }
        }
    }
    executed += flush_window(rec, &mut session, &mut batch, depth)?;
    rec.time("remote.bye", || session.bye())?;
    Ok(TracedDrive {
        executed,
        resumed_at,
    })
}

/// Sends the pending run batch through the pipelined window; returns
/// how many commands it executed.
fn flush_window(
    rec: &mut Recorder,
    session: &mut RemoteSession<SocketTransport>,
    batch: &mut Vec<&Command>,
    depth: usize,
) -> Result<u64, RadError> {
    if batch.is_empty() {
        return Ok(0);
    }
    let len = batch.len() as u64;
    rec.time_counted("remote.window", || {
        (session.issue_pipelined(&batch[..], depth), len)
    })
    .map_err(|e| e.error)?;
    batch.clear();
    Ok(len)
}

fn op_tenant(index: u32) -> String {
    format!("op{index}")
}

/// The workload's document with this op's seed and fresh tenant: a
/// reused tenant would resume at its cursor and skip the work.
fn drive_spec(spec: &ScenarioSpec, tenant: &str, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        seed,
        ..spec.clone()
    };
    spec.transport.tenants[0].tenant = tenant.to_string();
    spec
}

fn options(addr: &str) -> RunOptions {
    RunOptions {
        out_dir: None,
        addr_override: Some(addr.to_string()),
    }
}

fn tenant_drive(report: ScenarioReport) -> Result<DriveReport, RadError> {
    report
        .tenants
        .into_iter()
        .next()
        .map(|t| t.report)
        .ok_or_else(|| RadError::Rpc("socket scenario drove no tenant".into()))
}

/// A drive that completed remotely, with no gaps and no error.
fn drive_ok(drive: &DriveReport) -> bool {
    drive.completed && drive.gaps.is_empty() && drive.error.is_none()
}

fn expected_commands(spec: &ScenarioSpec, seed: u64) -> u64 {
    let script = CampaignScript::supervised(seed);
    let script = match spec.transport.tenants[0].max_commands {
        Some(max) => script.truncated(max),
        None => script,
    };
    script.command_count() as u64
}

/// A fresh tenant starts at cursor 0 and executes the whole script.
fn check_drive(spec: &ScenarioSpec, seed: u64, resumed_at: u64, executed: u64) -> Vec<String> {
    let expected = expected_commands(spec, seed);
    let mut problems = Vec::new();
    if resumed_at != 0 {
        problems.push(format!("seed {seed}: fresh tenant resumed at {resumed_at}"));
    }
    if executed != expected {
        problems.push(format!(
            "seed {seed}: drive executed {executed} of {expected} script commands"
        ));
    }
    problems
}

/// Conservation at drain: Σ executed == issues == Σ rows flushed.
fn check_drain(drain: &DrainReport, executed: u64) -> Vec<String> {
    let flushed: u64 = drain.tenants.iter().map(|t| t.rows_flushed).sum();
    if executed == drain.stats.issues && executed == flushed {
        Vec::new()
    } else {
        vec![format!(
            "drain: clients executed {executed}, server issued {}, flushed {flushed}",
            drain.stats.issues
        )]
    }
}
