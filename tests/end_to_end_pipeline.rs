//! End-to-end integration: campaign synthesis → middlebox tracing →
//! storage → the paper's analyses, asserting the headline properties
//! of every experiment in one pipeline.

#![allow(clippy::needless_range_loop)] // matrix checks read best indexed

use rad::prelude::*;

fn supervised_campaign() -> rad_workloads::CampaignDataset {
    CampaignBuilder::new(42).supervised_only().build()
}

#[test]
fn the_25_run_structure_matches_section_4() {
    let campaign = supervised_campaign();
    let runs = campaign.supervised_runs();
    assert_eq!(runs.len(), 25);
    let per_kind = |k: ProcedureKind| runs.iter().filter(|r| r.kind() == k).count();
    assert_eq!(per_kind(ProcedureKind::JoystickMovements), 12);
    assert_eq!(per_kind(ProcedureKind::AutomatedSolubilityN9), 5);
    assert_eq!(per_kind(ProcedureKind::AutomatedSolubilityN9Ur3e), 4);
    assert_eq!(per_kind(ProcedureKind::CrystalSolubility), 4);
    assert_eq!(runs.iter().filter(|r| r.label().is_anomalous()).count(), 3);
}

#[test]
fn fig5a_device_mix_reproduces_at_scale() {
    let campaign = CampaignBuilder::new(3)
        .scale(0.04)
        .power_experiments(false)
        .build();
    let hist = campaign.command().device_histogram();
    for device in DeviceKind::all() {
        let expected = (device.paper_trace_count() as f64 * 0.04).round() as u64;
        assert_eq!(hist[&device], expected, "{device}");
    }
    // Every one of the 52 command types should appear in a full-mix
    // campaign... except deep-workflow commands that only supervised
    // runs produce; assert broad coverage instead.
    let commands = campaign.command().command_histogram();
    assert!(
        commands.len() >= 45,
        "saw only {} command types",
        commands.len()
    );
}

#[test]
fn fig6_block_structure_reproduces() {
    let campaign = supervised_campaign();
    let sequences = campaign.command().supervised_sequences();
    let docs: Vec<Vec<CommandType>> = sequences.iter().map(|(_, s)| s.clone()).collect();
    let tfidf = rad_analysis::TfIdf::fit(&docs).unwrap();
    let m = tfidf.similarity_matrix();

    // Joystick block is tight.
    for i in 0..12 {
        for j in 0..12 {
            assert!(m[i][j] > 0.9, "P4 runs {i},{j}: {}", m[i][j]);
        }
    }
    // Run 12 is joystick-flavoured, not P1-flavoured.
    let avg = |iter: &mut dyn Iterator<Item = usize>| -> f64 {
        let v: Vec<f64> = iter.map(|j| m[12][j]).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    assert!(avg(&mut (0..12)) > avg(&mut (13..17)) + 0.3);
    // P1 block (including the anomalous run 16) stays high.
    for i in 13..17 {
        for j in 13..17 {
            assert!(m[i][j] > 0.8, "P1 runs {i},{j}: {}", m[i][j]);
        }
    }
    // The truncated P2 pair splits from the complete pair.
    assert!(m[17][18] > 0.7);
    assert!(m[19][20] > 0.9);
    assert!(m[17][19] < 0.6 && m[18][20] < 0.7);
    // P3 block is the tightest, run 22 included.
    for i in 21..25 {
        for j in 21..25 {
            assert!(m[i][j] > 0.85, "P3 runs {i},{j}: {}", m[i][j]);
        }
    }
}

#[test]
fn table1_recall_is_one_for_all_three_orders() {
    let campaign = supervised_campaign();
    let labelled: Vec<(Vec<CommandType>, bool)> = campaign
        .command()
        .supervised_sequences()
        .into_iter()
        .map(|(meta, seq)| (seq, meta.label().is_anomalous()))
        .collect();
    for n in [2, 3, 4] {
        let report = PerplexityDetector::new(n)
            .evaluate(&labelled, 5, 0)
            .unwrap();
        let cm = report.confusion;
        assert_eq!(
            cm.recall(),
            1.0,
            "order {n}: all three anomalies must be caught"
        );
        assert_eq!(cm.true_positives(), 3);
        assert!(cm.accuracy() > 0.5, "order {n}: accuracy {}", cm.accuracy());
        assert!(
            cm.false_positives() > 0,
            "order {n}: the paper's models over-alarm; ours should too"
        );
    }
}

#[test]
fn crashed_runs_log_collision_exceptions() {
    let campaign = supervised_campaign();
    let dataset = campaign.command();
    for run in dataset.supervised_runs() {
        let crashes = dataset
            .traces()
            .iter()
            .filter(|t| t.run_id() == Some(run.run_id()))
            .filter(|t| t.exception().is_some_and(|e| e.contains("collision")))
            .count();
        if run.label().is_anomalous() {
            assert!(
                crashes > 0,
                "{} is anomalous but logged no collision",
                run.run_id()
            );
        } else {
            assert_eq!(
                crashes,
                0,
                "{} is benign but logged a collision",
                run.run_id()
            );
        }
    }
}

#[test]
fn csv_export_round_trips_the_whole_campaign() {
    let campaign = supervised_campaign();
    let dataset = campaign.command();
    let csv = dataset.to_csv();
    let parsed = rad_store::csv::traces_from_csv(&csv).unwrap();
    assert_eq!(parsed.len(), dataset.len());
    for (a, b) in dataset.traces().iter().zip(&parsed) {
        assert_eq!(a.id(), b.id());
        assert_eq!(a.command(), b.command());
        assert_eq!(a.timestamp(), b.timestamp());
        assert_eq!(a.exception(), b.exception());
    }
}

#[test]
fn segments_answer_the_paper_queries() {
    use rad_store::{SegmentOptions, SegmentSet, SegmentWriter};
    let campaign = supervised_campaign();
    let dataset = campaign.command();
    let batch = dataset.batch();
    let dir = std::env::temp_dir().join(format!("rad-e2e-queries-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SegmentWriter::create(&dir, SegmentOptions::default())
        .unwrap()
        .seal_traces(batch)
        .unwrap();
    let set = SegmentSet::open(&dir).unwrap();
    let query = |q: &TraceQuery| set.query(q).unwrap().into_batch();

    // By device: row counts equal the in-memory histogram.
    for (device, count) in dataset.device_histogram() {
        let rows = query(&TraceQuery::new().device(device));
        assert_eq!(rows.len() as u64, count, "{device}");
    }
    // By run: every supervised run comes back as its command sequence,
    // which `run_sequence` orders by timestamp.
    let runs = campaign.supervised_runs();
    assert_eq!(runs.len(), 25);
    for run in runs {
        let rows = query(&TraceQuery::new().run(run.run_id()));
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| rows.timestamps_us()[i]);
        let sequence: Vec<CommandType> = order.iter().map(|&i| rows.command_type(i)).collect();
        assert_eq!(sequence, dataset.run_sequence(run.run_id()), "{run:?}");
    }
    // By procedure and by time: exactly the rows the in-memory
    // predicate selects, in capture order.
    let timestamps = batch.timestamps_us();
    let (lo, hi) = (
        timestamps[timestamps.len() / 4],
        timestamps[timestamps.len() / 2],
    );
    for q in [
        TraceQuery::new().procedure(ProcedureKind::CrystalSolubility),
        TraceQuery::new().time_range(lo, hi),
    ] {
        let rows = query(&q);
        assert!(!rows.is_empty(), "{q:?}");
        assert_eq!(rows, batch.select(&q.matching_rows(batch)), "{q:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn power_dataset_covers_p2_p5_p6() {
    let campaign = CampaignBuilder::new(8)
        .supervised_only()
        .power_experiments(true)
        .build();
    let power = campaign.power();
    assert!(!power
        .for_procedure(ProcedureKind::AutomatedSolubilityN9Ur3e)
        .is_empty());
    assert_eq!(
        power.for_procedure(ProcedureKind::VelocitySweep).len(),
        6,
        "3 velocities x 2 legs"
    );
    assert!(power.for_procedure(ProcedureKind::PayloadSweep).len() >= 6);
    // Compaction drops quiescent ticks but keeps every active one.
    let compact = power.compacted(false);
    assert!(compact.total_entries() <= power.total_entries());
    assert!(compact.total_entries() > 0);
}

#[test]
fn campaign_timeline_is_monotone_and_spans_sessions() {
    let campaign = supervised_campaign();
    let traces = campaign.command().traces();
    for pair in traces.windows(2) {
        assert!(pair[1].timestamp() >= pair[0].timestamp());
        assert!(pair[1].id() > pair[0].id());
    }
    let span = traces.last().unwrap().timestamp() - traces[0].timestamp();
    assert!(
        span.as_secs_f64() > 24.0 * 3600.0,
        "25 runs with inter-run gaps span days"
    );
}
