//! `radd` — the lab service daemon and its campaign client.
//!
//! Serve a multi-tenant middlebox over TCP or a Unix-domain socket:
//!
//! ```text
//! radd serve --tcp 127.0.0.1:7171 --data-dir /tmp/rad-lab --detect
//! ```
//!
//! Then drive a seeded campaign against it from another terminal:
//!
//! ```text
//! radd campaign --tcp 127.0.0.1:7171 --tenant alice --seed 42 --max-commands 200
//! ```
//!
//! The campaign defaults to JSON frames with one request in flight;
//! `--codec binary` switches every frame the client sends to the
//! columnar binary codec and `--pipeline N` keeps up to N requests in
//! flight, in either codec.
//!
//! The server runs until stdin closes or a `quit` line arrives, then
//! drains gracefully: accepting stops, in-flight sessions finish,
//! every tenant's durable sink is flushed and checkpointed, and the
//! per-tenant accounting is printed. A campaign client killed mid-run
//! can simply be re-run: the server's resume cursor skips the
//! already-executed prefix.

use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rad_analysis::streaming::{AlertPolicy, StreamingPerplexity};
use rad_core::{SharedAlerts, Tee};
use rad_middlebox::rpc::RetryPolicy;
use rad_middlebox::server::{
    LabService, ServerConfig, ServerHandle, SinkFactory, SocketTransport, TenantSinkStack,
};
use rad_middlebox::{DurableSink, WireCodecKind};
use rad_store::{DurableOptions, DurableStore};
use rad_workloads::cli::{has, opt, parse};
use rad_workloads::{
    fit_detector, CampaignBuilder, CampaignScript, DisconnectPolicy, RemoteCampaign,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("campaign") => campaign(&args[1..]),
        _ => {
            eprintln!("usage: radd <serve|campaign> [options]");
            eprintln!("  radd serve    --tcp ADDR | --unix PATH [--data-dir DIR] [--seed S]");
            eprintln!("                [--max-sessions N] [--backlog N] [--idle-timeout-ms N]");
            eprintln!("                [--detect]");
            eprintln!("  radd campaign --tcp ADDR | --unix PATH --tenant NAME [--seed S]");
            eprintln!("                [--max-commands N] [--degrade]");
            eprintln!("                [--codec json|binary] [--pipeline N]");
            2
        }
    };
    std::process::exit(code);
}

fn serve(args: &[String]) -> i32 {
    let seed: u64 = parse("radd", args, "--seed", 0);
    let config = ServerConfig {
        max_sessions: parse("radd", args, "--max-sessions", 4),
        backlog: parse("radd", args, "--backlog", 4),
        idle_timeout: Duration::from_millis(parse("radd", args, "--idle-timeout-ms", 30_000)),
        seed,
        data_dir: opt(args, "--data-dir").map(PathBuf::from),
        ..ServerConfig::default()
    };
    let mut service = LabService::new(config.clone());
    let alerts = SharedAlerts::new();
    if has(args, "--detect") {
        // Fit the streaming detector once on the seeded supervised
        // campaign; each tenant gets its own stage teed behind the
        // durable sink.
        eprintln!("radd: fitting streaming detector (seed {seed})...");
        let training = CampaignBuilder::new(seed).supervised_only().build();
        let detector = match fit_detector(&training, 2) {
            Ok(d) => Arc::new(d),
            Err(e) => {
                eprintln!("radd: detector fit failed: {e}");
                return 1;
            }
        };
        let data_dir = config.data_dir.clone();
        let shared = alerts.clone();
        let factory: SinkFactory = Arc::new(move |tenant: &str| {
            let stage = StreamingPerplexity::new(&detector, AlertPolicy::RunEnd, shared.clone());
            let mut stack = TenantSinkStack {
                sink: Box::new(stage),
                durable: None,
            };
            if let Some(dir) = &data_dir {
                let (store, report) =
                    DurableStore::open(&dir.join(tenant), DurableOptions::default())?;
                let store = Arc::new(store);
                if report.records_recovered > 0 {
                    eprintln!(
                        "radd: tenant {tenant}: recovered {} durable records",
                        report.records_recovered
                    );
                }
                stack.sink = Box::new(Tee::new(DurableSink::new(Arc::clone(&store)), stack.sink));
                stack.durable = Some(store);
            }
            Ok(stack)
        });
        service = service.with_sink_factory(factory);
    }

    let handle: ServerHandle = if let Some(addr) = opt(args, "--tcp") {
        match service.serve_tcp(&addr) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("radd: {e}");
                return 1;
            }
        }
    } else if let Some(path) = opt(args, "--unix") {
        match service.serve_unix(std::path::Path::new(&path)) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("radd: {e}");
                return 1;
            }
        }
    } else {
        eprintln!("radd serve: one of --tcp ADDR or --unix PATH is required");
        return 2;
    };
    if let Some(addr) = handle.local_addr() {
        println!("radd: serving on {addr} (seed {seed}); quit or EOF to drain");
    } else {
        println!("radd: serving (seed {seed}); quit or EOF to drain");
    }

    // Block on stdin: EOF or a `quit` line triggers the graceful
    // drain, so `echo quit | radd serve ...` exits 0 with no loss.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    println!("radd: draining...");
    match handle.drain() {
        Ok(report) => {
            for t in &report.tenants {
                println!(
                    "radd: tenant {}: issues={} rows_flushed={} gaps={} peak_queued_rows={}",
                    t.tenant, t.issues, t.rows_flushed, t.gaps_flushed, t.peak_queued_rows
                );
            }
            let alert_count = alerts.snapshot().len();
            if alert_count > 0 {
                println!("radd: streaming detector raised {alert_count} alerts");
            }
            println!(
                "radd: drained in {:.1} ms ({})",
                report.flush_time.as_secs_f64() * 1e3,
                report.stats
            );
            0
        }
        Err(e) => {
            eprintln!("radd: drain failed: {e}");
            1
        }
    }
}

fn campaign(args: &[String]) -> i32 {
    let Some(tenant) = opt(args, "--tenant") else {
        eprintln!("radd campaign: --tenant NAME is required");
        return 2;
    };
    let seed: u64 = parse("radd", args, "--seed", 42);
    let mut script = CampaignScript::supervised(seed);
    if let Some(n) = opt(args, "--max-commands") {
        let n: usize = n.parse().unwrap_or_else(|_| {
            eprintln!("radd: invalid --max-commands: {n}");
            std::process::exit(2);
        });
        script = script.truncated(n);
    }
    println!(
        "radd: campaign seed {seed}: {} commands as tenant {tenant}",
        script.command_count()
    );
    let transport = if let Some(addr) = opt(args, "--tcp") {
        SocketTransport::connect_tcp(&addr)
    } else if let Some(path) = opt(args, "--unix") {
        SocketTransport::connect_unix(std::path::Path::new(&path))
    } else {
        eprintln!("radd campaign: one of --tcp ADDR or --unix PATH is required");
        return 2;
    };
    let transport = match transport {
        Ok(t) => t,
        Err(e) => {
            eprintln!("radd: {e}");
            return 1;
        }
    };
    let policy = RetryPolicy::default().with_jitter(seed, 500);
    let disconnect = if has(args, "--degrade") {
        DisconnectPolicy::Degrade
    } else {
        DisconnectPolicy::Fail
    };
    let codec = match opt(args, "--codec").as_deref() {
        None => WireCodecKind::Json,
        Some(name) => match WireCodecKind::from_name(name) {
            Some(kind) => kind,
            None => {
                eprintln!("radd: unknown --codec {name} (accepted: json, binary)");
                return 2;
            }
        },
    };
    let depth: usize = parse("radd", args, "--pipeline", 1);
    let drive = RemoteCampaign::new(script, &tenant)
        .with_policy(policy)
        .on_disconnect(disconnect)
        .with_codec(codec)
        .with_pipeline_depth(depth)
        .resume_from(transport);
    match drive {
        Ok(report) => {
            println!(
                "radd: resumed at {}, executed {} remotely, {} degraded gaps",
                report.resumed_at,
                report.executed,
                report.gaps.len()
            );
            if let Some(e) = &report.error {
                eprintln!("radd: campaign stopped early: {e} (re-run to resume)");
                return 1;
            }
            println!("radd: campaign complete");
            0
        }
        Err(e) => {
            eprintln!("radd: {e}");
            1
        }
    }
}
