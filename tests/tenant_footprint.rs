//! What a finished tenant keeps resident on a long-lived lab service.
//!
//! One server serves 64 sequential tenants, each a lock-step drive of
//! the seed-7 supervised campaign (2,623 commands), with the tenant
//! stack `radd serve --data-dir --detect` builds: a durable store teed
//! with a run-end perplexity stage. A tenant stays in the registry
//! until drain. Between sessions it holds its unsealed rows as the
//! WAL frame bodies that logged them (about 24 B a row) and no reply
//! cache, so each tenant should grow the resident set by roughly what
//! its rows take in the WAL, plus its middlebox and consumer thread.
//!
//! The bound sits between that (about 0.11 MiB a tenant) and what a
//! tenant cost with either part undone: unsealed rows held decoded
//! (about 160 B a row; 0.46 MiB a tenant) or a reply cache kept until
//! the next `Hello` (0.31 MiB). Growth is measured from the 32nd
//! tenant to the 64th, past the one-time allocations of the first
//! sessions.
//!
//! This file is its own test binary, so no other test's allocations
//! share the process's resident set.

use std::path::PathBuf;
use std::sync::Arc;

use rad::prelude::*;
use rad_analysis::{AlertPolicy, StreamingPerplexity};
use rad_core::SharedAlerts;
use rad_middlebox::SinkFactory;
use rad_workloads::fit_detector;

const TENANTS: usize = 64;
const MEASURED_FROM: usize = 32;
const SEED: u64 = 7;

/// Resident-set growth allowed per finished tenant.
const MAX_KIB_PER_TENANT: u64 = 256;

/// The process's resident set, in KiB (`VmRSS` of `/proc/self/status`).
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line in kB")
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rad-tenant-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `radd serve --data-dir --detect`'s tenant stack under `dir`.
fn detecting_durable_factory(dir: PathBuf) -> SinkFactory {
    let training = CampaignBuilder::new(SEED).supervised_only().build();
    let detector = Arc::new(fit_detector(&training, 2).expect("detector fits"));
    let alerts = SharedAlerts::new();
    Arc::new(move |tenant: &str| {
        let stage = StreamingPerplexity::new(&detector, AlertPolicy::RunEnd, alerts.clone());
        let (store, _) = DurableStore::open(&dir.join(tenant), DurableOptions::default())?;
        let store = Arc::new(store);
        Ok(TenantSinkStack {
            sink: Box::new(Tee::new(DurableSink::new(Arc::clone(&store)), stage)),
            durable: Some(store),
        })
    })
}

#[test]
fn a_finished_tenant_costs_about_its_wal_bytes() {
    let dir = scratch_dir();
    let config = ServerConfig {
        seed: SEED,
        ..ServerConfig::default()
    };
    let server = LabService::new(config)
        .with_sink_factory(detecting_durable_factory(dir.clone()))
        .start();
    let script = CampaignScript::supervised(SEED);
    let mut rss_from = 0;
    for index in 0..TENANTS {
        if index == MEASURED_FROM {
            rss_from = vm_rss_kib();
        }
        let (client_side, server_side) = Duplex::pair();
        server
            .attach(server_side)
            .expect("one session at a time is admitted");
        let report = RemoteCampaign::new(script.clone(), &format!("tenant-{index:03}"))
            .drive(client_side)
            .expect("drive");
        assert!(report.completed && report.error.is_none(), "{report:?}");
        assert_eq!(report.executed as usize, script.command_count());
    }
    let per_tenant = vm_rss_kib().saturating_sub(rss_from) / (TENANTS - MEASURED_FROM) as u64;
    eprintln!("resident set grew {per_tenant} KiB per finished tenant");

    let drain = server.drain().expect("drain");
    assert_eq!(drain.tenants.len(), TENANTS);
    for tenant in &drain.tenants {
        assert_eq!(tenant.issues, script.command_count() as u64);
        assert_eq!(tenant.rows_flushed, tenant.issues);
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        per_tenant <= MAX_KIB_PER_TENANT,
        "each finished tenant kept {per_tenant} KiB resident (bound {MAX_KIB_PER_TENANT} KiB)"
    );
}
