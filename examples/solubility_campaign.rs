//! A hand-driven solubility experiment through the tracing middlebox,
//! ending with both RATracer sinks: CSV export and the durable
//! segment store.
//!
//! This is the §III workflow in miniature: the "lab computer" issues
//! high-level commands; every access is intercepted, relayed in
//! REMOTE mode (except the Quantos, which runs in DIRECT mode while
//! "IT sorts out its cabling" — the hybrid configuration the paper
//! describes), and logged with timestamps, arguments, return values,
//! and response times.
//!
//! The durable store lives in a fresh directory under the system
//! temp dir, removed when the example ends.
//!
//! ```sh
//! cargo run --example solubility_campaign
//! ```

use std::sync::Arc;

use rad::prelude::*;
use rad_middlebox::Tracer;

fn main() -> Result<(), RadError> {
    // A middlebox with a hybrid mode configuration and a durable sink,
    // Fig. 3's MongoDB sink: every access is logged, then sealed into
    // queryable segments.
    let dir = std::env::temp_dir().join(format!("rad-solubility-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (durable, _) = DurableStore::open(&dir, DurableOptions::default())?;
    let durable = Arc::new(durable);
    let modes = ModeConfig::all(TraceMode::Remote).with(DeviceKind::Quantos, TraceMode::Direct);
    let middlebox = Middlebox::new(99)
        .with_modes(modes)
        .with_tracer(Tracer::new().with_durable_sink(Arc::clone(&durable)));
    let mut session = rad_workloads::Session::with_middlebox(middlebox, 99);

    // Run one labelled P1 screen and one labelled P3 screen.
    session.begin_run(
        RunId(0),
        ProcedureKind::AutomatedSolubilityN9,
        Label::Benign,
    );
    let end = rad_workloads::procedures::p1_automated_solubility(
        &mut session,
        rad_workloads::P1Variant::Normal,
        "NABH4",
    )?;
    session.end_run();
    println!("P1 run finished: {end:?}");

    session.middlebox_mut().rig_mut().reset();
    session.begin_run(RunId(1), ProcedureKind::CrystalSolubility, Label::Benign);
    let end = rad_workloads::procedures::p3_crystal_solubility(
        &mut session,
        rad_workloads::P3Variant::Normal,
    )?;
    session.end_run();
    println!("P3 run finished: {end:?}");

    let (dataset, _power) = session.finish();

    // Dataset anatomy.
    println!("\ncaptured {} trace objects:", dataset.len());
    for (device, count) in dataset.device_histogram() {
        println!("  {device:<8} {count}");
    }
    let exceptions = dataset
        .traces()
        .iter()
        .filter(|t| t.exception().is_some())
        .count();
    println!("  exceptions logged: {exceptions}");

    // Sink 1: the CSV export (the first lines of it).
    let csv = dataset.to_csv();
    println!("\nCSV export ({} bytes); first three rows:", csv.len());
    for line in csv.lines().take(4) {
        println!("  {line}");
    }
    let parsed = rad_store::csv::traces_from_csv(&csv)?;
    assert_eq!(parsed.len(), dataset.len(), "the export round-trips");

    // Sink 2: the durable store, sealed into segments and queried by
    // device like the paper's MongoDB.
    durable.checkpoint()?;
    let segments = durable.segments()?;
    println!(
        "\nsegment store: {} trace rows in {} segment(s)",
        segments.trace_rows(),
        segments.len()
    );
    let slow_us = SimDuration::from_millis(8).as_micros();
    let c9 = segments
        .query(&TraceQuery::new().device(DeviceKind::C9))?
        .into_batch();
    let slow = c9
        .response_times_us()
        .iter()
        .filter(|&&us| us >= slow_us)
        .count();
    println!("C9 commands slower than 8 ms: {slow}");
    let expected = dataset
        .traces()
        .iter()
        .filter(|t| t.device().kind() == DeviceKind::C9)
        .filter(|t| t.response_time().as_micros() >= slow_us)
        .count();
    assert_eq!(slow, expected, "the segment query matches the dataset");
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
