//! The crash-injection conformance matrix (ISSUE tentpole): one seeded
//! supervised campaign killed at every [`CrashSite`], then resumed.
//!
//! Three invariants hold for every row:
//!
//! 1. **The crash bites** — the injected kill surfaces as an error and
//!    poisons the durable sink; nothing pretends the build finished.
//! 2. **Zero invented records** — whatever the crashed store recovers
//!    is an exact prefix of the uninterrupted baseline, record for
//!    record. Durability may lose a synced-but-uncheckpointed tail,
//!    never fabricate or corrupt data.
//! 3. **Byte-identical resume** — [`CampaignBuilder::resume_from`]
//!    completes the campaign into a dataset whose exported bundle is
//!    byte-for-byte the baseline's, for every crash site and also with
//!    wire faults ([`FaultPlan`]) active at the same time.

use rad::prelude::*;
use rad::store::export_rad;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const SEED: u64 = 42;

/// Every crash site with an occurrence at which it provably fires
/// during the seeded supervised campaign (append-heavy sites get a
/// mid-campaign index; checkpoint sites fire on the first checkpoint's
/// manifest, after its seal).
/// The counts assume batch-wise persistence — one WAL frame per stream
/// delta per flush, not one per record — so the campaign sees ~125
/// appends and ~130 fsync batches total.
fn matrix() -> Vec<(CrashSite, u64)> {
    vec![
        (CrashSite::MidRecord, 80),
        (CrashSite::PreFsync, 80),
        (CrashSite::MidRotation, 2),
        (CrashSite::MidCompaction, 1),
        (CrashSite::MidRename, 1),
    ]
}

/// Small segments and frequent syncs so rotation and fsync batching
/// both exercise during a 25-run campaign.
fn durable_options() -> DurableOptions {
    DurableOptions {
        wal: WalOptions {
            segment_bytes: 8 * 1024,
            sync_every: 4,
        },
        ..DurableOptions::default()
    }
}

fn builder() -> CampaignBuilder {
    CampaignBuilder::new(SEED)
        .supervised_only()
        .with_durable_options(durable_options())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rad-crash-matrix-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file of an exported bundle (including the `power/` subtree),
/// relative path → bytes.
fn bundle_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, at: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let name = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(name, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn assert_identical_bundles(
    a: &rad_workloads::CampaignDataset,
    b: &rad_workloads::CampaignDataset,
    tag: &str,
) {
    let dir_a = tmpdir(&format!("{tag}-bundle-a"));
    let dir_b = tmpdir(&format!("{tag}-bundle-b"));
    export_rad(a.command(), a.power(), &dir_a).unwrap();
    export_rad(b.command(), b.power(), &dir_b).unwrap();
    let files_a = bundle_bytes(&dir_a);
    let files_b = bundle_bytes(&dir_b);
    assert_eq!(
        files_a.keys().collect::<Vec<_>>(),
        files_b.keys().collect::<Vec<_>>(),
        "{tag}: the two bundles export different file sets"
    );
    for (name, bytes) in &files_a {
        assert_eq!(
            bytes, &files_b[name],
            "{tag}: {name} differs between baseline and resumed export"
        );
    }
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

/// Crash-recovered stores hold an exact prefix of the baseline trace
/// stream: positions `0..n` each present exactly once, every row
/// identical to the baseline row at that position.
fn assert_recovered_prefix(dir: &Path, baseline: &rad_workloads::CampaignDataset, tag: &str) {
    let (store, _report) = DurableStore::open(dir, durable_options()).unwrap();
    let recovered = store.read_traces().unwrap();
    let expected = baseline.command().batch();
    assert!(
        recovered.len() <= expected.len(),
        "{tag}: recovered {} rows but only {} were ever generated",
        recovered.len(),
        expected.len()
    );
    assert_eq!(
        recovered,
        expected.slice(0..recovered.len()),
        "{tag}: the recovered stream must be a gapless, row-identical prefix"
    );
}

#[test]
fn matrix_covers_every_crash_site() {
    let sites: Vec<CrashSite> = matrix().into_iter().map(|(site, _)| site).collect();
    assert_eq!(
        sites,
        CrashSite::ALL,
        "the matrix must cover CrashSite::ALL"
    );
}

#[test]
fn every_crash_site_resumes_to_a_byte_identical_dataset() {
    let baseline = builder().build();
    for (site, occurrence) in matrix() {
        let tag = format!("{site}");
        let dir = tmpdir(&tag);

        let err = builder()
            .with_crash_plan(CrashPlan::at(site, occurrence))
            .build_resumable(&dir)
            .unwrap_err();
        assert!(
            err.to_string().contains("injected crash"),
            "{tag}: crash at occurrence {occurrence} never fired: {err}"
        );

        assert_recovered_prefix(&dir, &baseline, &tag);

        let resumed = builder().resume_from(&dir).unwrap();
        assert_eq!(
            resumed.command().corpus(),
            baseline.command().corpus(),
            "{tag}: corpus"
        );
        assert_eq!(
            resumed.command().gaps(),
            baseline.command().gaps(),
            "{tag}: gaps"
        );
        assert_eq!(
            resumed.command().runs(),
            baseline.command().runs(),
            "{tag}: runs"
        );
        assert_eq!(resumed.journal(), baseline.journal(), "{tag}: journal");
        assert_identical_bundles(&baseline, &resumed, &tag);

        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn wire_faults_and_process_crashes_compose() {
    // The disconnect profile produces gaps, so resume must reproduce
    // the gap stream as faithfully as the trace stream.
    let faulted =
        || builder().with_fault_plan(FaultPlan::new(SEED, FaultProfile::disconnect_after(60)));
    let baseline = faulted().build();
    assert!(
        !baseline.command().gaps().is_empty(),
        "the disconnect must bite for this test to mean anything"
    );

    let dir = tmpdir("fault-plus-crash");
    let err = faulted()
        .with_crash_plan(CrashPlan::at(CrashSite::MidRecord, 100))
        .build_resumable(&dir)
        .unwrap_err();
    assert!(err.to_string().contains("injected crash"), "got: {err}");

    let resumed = faulted().resume_from(&dir).unwrap();
    assert_eq!(resumed.command().corpus(), baseline.command().corpus());
    assert_eq!(resumed.command().gaps(), baseline.command().gaps());
    assert_eq!(resumed.journal(), baseline.journal());
    assert_identical_bundles(&baseline, &resumed, "fault-plus-crash");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_on_a_clean_store_is_idempotent() {
    let dir = tmpdir("idempotent");
    let built = builder().build_resumable(&dir).unwrap();
    let once = builder().resume_from(&dir).unwrap();
    let twice = builder().resume_from(&dir).unwrap();
    assert_eq!(built.command().corpus(), once.command().corpus());
    assert_eq!(once.command().corpus(), twice.command().corpus());
    assert_eq!(once.journal(), twice.journal());
    let _ = fs::remove_dir_all(&dir);
}

/// The paper's full corpus persists durably. Its final flush, and the
/// suffix a resume appends, each exceed one WAL record, so both split
/// into several trace frames.
#[test]
fn full_corpus_builds_durably_and_resumes() {
    let builder = CampaignBuilder::new(SEED);
    let baseline = builder.build();
    assert_eq!(baseline.command().len(), 128_785);

    let dir = tmpdir("full-corpus");
    let built = builder.build_resumable(&dir).unwrap();
    assert_eq!(built.command().batch(), baseline.command().batch());
    let _ = fs::remove_dir_all(&dir);

    let err = builder
        .clone()
        .with_crash_plan(CrashPlan::at(CrashSite::MidRecord, 60))
        .build_resumable(&dir)
        .unwrap_err();
    assert!(err.to_string().contains("injected crash"), "got: {err}");
    let (store, _) = DurableStore::open(&dir, DurableOptions::default()).unwrap();
    let persisted = store.trace_rows();
    drop(store);
    assert!(
        persisted > 0 && persisted < 10_000,
        "the crash must land among the supervised runs, not after the filler: {persisted} rows"
    );
    let resumed = builder.resume_from(&dir).unwrap();
    assert_eq!(resumed.command().batch(), baseline.command().batch());
    let _ = fs::remove_dir_all(&dir);
}
