//! Wire data-plane report: lock-step JSON versus the binary pipelined
//! wire (ISSUE PR 10), over real TCP with concurrent tenants.
//!
//! Four rows, written to `BENCH_wire.json` at the repository root:
//!
//! * **json / depth 1** — the baseline: JSON frames, one round trip
//!   per command.
//! * **binary / depth 1, 8, 32** — the columnar binary codec with the
//!   given in-flight window; writes coalesce into one send per window.
//!
//! Every row runs the same `issue_pipelined` window loop. Latency is
//! the *amortized* per-command cost of a full window (window wall time
//! / window size) — the number a campaign actually pays per command;
//! at depth 1 it is the round trip.
//!
//! Scale with `WIRE_TENANTS` (default 4) and `WIRE_CMDS` (default
//! 200; CI smoke uses less).

use std::fs;
use std::time::{Duration, Instant};

use rad_core::{Command, CommandType};
use rad_middlebox::rpc::RetryPolicy;
use rad_middlebox::server::{LabService, ServerConfig, SocketTransport};
use rad_middlebox::WireCodecKind;
use rad_workloads::RemoteSession;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A retry policy that will not time out a loaded debug-build server.
fn policy() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: Duration::from_secs(10),
        deadline: Duration::from_secs(30),
        ..RetryPolicy::default()
    }
}

fn command(i: usize) -> Command {
    if i == 0 {
        Command::nullary(CommandType::InitC9)
    } else {
        Command::nullary(CommandType::Mvng)
    }
}

fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct Row {
    codec: WireCodecKind,
    depth: usize,
    per_s: f64,
    p50_us: u64,
    p99_us: u64,
    mean_us: f64,
}

/// Runs one matrix row: a fresh server, `tenants` concurrent client
/// legs, `cmds` commands each, over the given codec and window depth.
fn run_row(tenants: usize, cmds: usize, codec: WireCodecKind, depth: usize) -> Row {
    let handle = LabService::new(ServerConfig {
        max_sessions: tenants.max(1),
        backlog: tenants.max(1),
        seed: 42,
        ..ServerConfig::default()
    })
    .serve_tcp("127.0.0.1:0")
    .expect("serve");
    let addr = handle.local_addr().expect("addr").to_string();

    let started = Instant::now();
    let legs: Vec<_> = (0..tenants)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let transport = SocketTransport::connect_tcp(&addr).expect("connect");
                let mut session =
                    RemoteSession::connect_with(transport, &format!("tenant-{t}"), policy(), codec)
                        .expect("hello");
                let commands: Vec<Command> = (0..cmds).map(command).collect();
                let mut lat_us = Vec::with_capacity(cmds);
                let refs: Vec<&Command> = commands.iter().collect();
                for window in refs.chunks(depth) {
                    let at = Instant::now();
                    let results = session
                        .issue_pipelined(window, depth)
                        .unwrap_or_else(|e| panic!("pipelined window failed: {}", e.error));
                    let amortized =
                        (at.elapsed().as_micros() as u64 / window.len().max(1) as u64).max(1);
                    for result in &results {
                        result.as_ref().expect("no fault");
                        lat_us.push(amortized);
                    }
                }
                session.bye().expect("bye");
                lat_us
            })
        })
        .collect();
    let mut lat_us: Vec<u64> = legs
        .into_iter()
        .flat_map(|leg| leg.join().expect("tenant leg"))
        .collect();
    let wall = started.elapsed();
    let report = handle.drain().expect("drain");
    assert_eq!(
        report.stats.issues,
        lat_us.len() as u64,
        "every timed issue executed exactly once"
    );

    lat_us.sort_unstable();
    let mean = if lat_us.is_empty() {
        0.0
    } else {
        lat_us.iter().sum::<u64>() as f64 / lat_us.len() as f64
    };
    Row {
        codec,
        depth,
        per_s: lat_us.len() as f64 / wall.as_secs_f64(),
        p50_us: percentile_us(&lat_us, 0.50),
        p99_us: percentile_us(&lat_us, 0.99),
        mean_us: mean,
    }
}

fn main() {
    let tenants = env_usize("WIRE_TENANTS", 4);
    let cmds = env_usize("WIRE_CMDS", 200);

    let rows: Vec<Row> = [
        (WireCodecKind::Json, 1usize),
        (WireCodecKind::Binary, 1),
        (WireCodecKind::Binary, 8),
        (WireCodecKind::Binary, 32),
    ]
    .into_iter()
    .map(|(codec, depth)| run_row(tenants, cmds, codec, depth))
    .collect();

    let baseline = rows[0].per_s;
    println!(
        "{:<24} {:>12} {:>9} {:>9} {:>9} {:>8}",
        "wire", "issues/s", "p50 us", "p99 us", "mean us", "speedup"
    );
    for row in &rows {
        println!(
            "{:<24} {:>12} {:>9} {:>9} {:>9.1} {:>7.2}x",
            format!("{} depth {}", row.codec.as_name(), row.depth),
            format!("{:.0}", row.per_s),
            row.p50_us,
            row.p99_us,
            row.mean_us,
            row.per_s / baseline.max(1.0)
        );
    }

    let mut out = String::from("{\n");
    out.push_str("  \"workload\": {\n");
    out.push_str(&format!("    \"tenants\": {tenants},\n"));
    out.push_str(&format!("    \"commands_per_tenant\": {cmds}\n"));
    out.push_str("  },\n");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"codec\": \"{}\",\n", row.codec.as_name()));
        out.push_str(&format!("      \"pipeline_depth\": {},\n", row.depth));
        out.push_str(&format!("      \"issues_per_s\": {:.0},\n", row.per_s));
        out.push_str(&format!("      \"p50_us\": {},\n", row.p50_us));
        out.push_str(&format!("      \"p99_us\": {},\n", row.p99_us));
        out.push_str(&format!("      \"mean_us\": {:.1},\n", row.mean_us));
        out.push_str(&format!(
            "      \"speedup_vs_json\": {:.2}\n",
            row.per_s / baseline.max(1.0)
        ));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let path = root.join("BENCH_wire.json");
    fs::write(&path, out).expect("write BENCH_wire.json");
    println!("wrote {}", path.display());
}
