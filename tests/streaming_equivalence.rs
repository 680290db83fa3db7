//! Golden conformance for the streaming detection plane (ISSUE
//! tentpole): every detector, run as an incremental sink stage, must
//! produce exactly the results of its batch counterpart — same scores
//! to the bit, same alert sets — at any chunk size, and whether the
//! stream arrives live from the tracer or replays from sealed
//! segments.
//!
//! Four claims, each on a real seeded campaign:
//!
//! 1. **Perplexity** — [`StreamingPerplexity`] run-end scores and
//!    verdicts equal the batch detector's, per run, at chunk sizes
//!    1 / 7 / 256 / ∞.
//! 2. **TF-IDF** — [`StreamingFingerprint`] dissimilarities equal the
//!    batch [`ProcedureFingerprints::score_run`] path.
//! 3. **Power** — [`StreamingPowerStats`] Welford moments and peak
//!    statistics equal the batch `moments` / `peak_stats` kernels per
//!    recording.
//! 4. **Live vs replay** — alerts teed live out of a tracing session
//!    equal alerts from replaying the sealed segments of the same
//!    session through a fresh stage, byte for byte.

use rad::analysis::streaming::{
    AlertPolicy, ProcedureFingerprints, StreamingFingerprint, StreamingPerplexity,
    StreamingPowerStats,
};
use rad::core::SharedAlerts;
use rad::power::block::lane;
use rad::power::signal::{moments, peak_stats};
use rad::power::{accept_chunked, PowerSink, RecordingMeta};
use rad::prelude::*;
use rad::store::segment::{SegmentOptions, SegmentSet, SegmentWriter};
use rad::workloads::{detect_campaign, fit_detector, PowerAlertConfig};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

const SEED: u64 = 42;
const CHUNKS: [usize; 4] = [1, 7, 256, usize::MAX];

fn campaign() -> rad::workloads::CampaignDataset {
    CampaignBuilder::new(SEED).scale(0.05).build()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rad-streaming-eq-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Drives `traces` through a fresh trace-sink stage, `chunk` rows at a
/// time, and finishes it.
fn drive<S: TraceSink>(stage: &mut S, traces: &[TraceObject], chunk: usize) {
    let mut source = SliceSource::new(traces, chunk);
    while let Some(batch) = source.next_batch().unwrap() {
        stage.accept(&batch).unwrap();
    }
    stage.finish().unwrap();
}

#[test]
fn streaming_perplexity_equals_batch_at_every_chunk_size() {
    let campaign = campaign();
    let detector = fit_detector(&campaign, 2).unwrap();
    let traces = campaign.command().traces();

    // Batch reference: score each supervised run's sequence whole.
    let expected: BTreeMap<RunId, (f64, bool)> = campaign
        .command()
        .supervised_sequences()
        .into_iter()
        .map(|(meta, seq)| {
            let score = detector.score(&seq).unwrap();
            (meta.run_id(), (score, score > detector.threshold()))
        })
        .collect();

    let mut reference = None;
    for chunk in CHUNKS {
        let mut stage = StreamingPerplexity::new(&detector, AlertPolicy::RunEnd, Vec::new());
        drive(&mut stage, &traces, chunk);
        let runs = stage.completed_runs().to_vec();
        let alerts = stage.into_sink();

        for score in &runs {
            let Some(run_id) = score.run_id else { continue };
            let Some((batch_score, batch_alarmed)) = expected.get(&run_id) else {
                continue;
            };
            assert_eq!(
                score.score.to_bits(),
                batch_score.to_bits(),
                "chunk={chunk}: run {run_id:?} score drifted"
            );
            assert_eq!(
                score.alarmed, *batch_alarmed,
                "chunk={chunk}: run {run_id:?} verdict flipped"
            );
        }
        // Every supervised run the batch path scores must also have
        // been scored by the stage.
        let streamed: Vec<RunId> = runs.iter().filter_map(|r| r.run_id).collect();
        for run_id in expected.keys() {
            assert!(streamed.contains(run_id), "chunk={chunk}: {run_id:?} lost");
        }

        match &reference {
            None => reference = Some((runs, alerts)),
            Some((ref_runs, ref_alerts)) => {
                assert_eq!(ref_runs, &runs, "chunk={chunk}: run scores diverged");
                assert_eq!(ref_alerts, &alerts, "chunk={chunk}: alert set diverged");
            }
        }
    }
}

#[test]
fn streaming_tfidf_equals_batch_at_every_chunk_size() {
    let campaign = campaign();
    let labelled: Vec<(ProcedureKind, Vec<CommandType>)> = campaign
        .command()
        .supervised_sequences()
        .into_iter()
        .map(|(meta, seq)| (meta.kind(), seq))
        .collect();
    let fingerprints = ProcedureFingerprints::fit(&labelled).unwrap();
    let traces = campaign.command().traces();

    let expected: BTreeMap<RunId, f64> = campaign
        .command()
        .supervised_sequences()
        .into_iter()
        .filter_map(|(meta, seq)| {
            fingerprints
                .score_run(meta.kind(), &seq)
                .map(|score| (meta.run_id(), score))
        })
        .collect();
    assert!(!expected.is_empty(), "the campaign must score something");

    let mut reference = None;
    for chunk in CHUNKS {
        let mut stage = StreamingFingerprint::new(fingerprints.clone(), 0.5, Vec::new());
        drive(&mut stage, &traces, chunk);
        let runs = stage.completed_runs().to_vec();
        let alerts = stage.into_sink();

        for score in &runs {
            let Some(run_id) = score.run_id else { continue };
            let Some(batch_score) = expected.get(&run_id) else {
                continue;
            };
            assert_eq!(
                score.score.to_bits(),
                batch_score.to_bits(),
                "chunk={chunk}: run {run_id:?} dissimilarity drifted"
            );
        }

        match &reference {
            None => reference = Some((runs, alerts)),
            Some((ref_runs, ref_alerts)) => {
                assert_eq!(ref_runs, &runs, "chunk={chunk}: run scores diverged");
                assert_eq!(ref_alerts, &alerts, "chunk={chunk}: alert set diverged");
            }
        }
    }
}

#[test]
fn streaming_power_stats_equal_batch_kernels_at_every_chunk_size() {
    let campaign = campaign();
    let recordings = campaign.power().recordings();
    assert!(!recordings.is_empty(), "the campaign records power");
    const PROMINENCE: f64 = 0.05;

    let mut reference = None;
    for chunk in CHUNKS {
        let mut stage = StreamingPowerStats::robot_current(PROMINENCE, f64::INFINITY, Vec::new());
        for recording in recordings {
            stage
                .begin_recording(&RecordingMeta {
                    procedure: recording.procedure,
                    run_id: recording.run_id,
                    description: recording.description.clone(),
                })
                .unwrap();
            accept_chunked(&mut stage, recording.profile.block(), chunk).unwrap();
        }
        stage.finish().unwrap();
        let stats = stage.recordings().to_vec();

        assert_eq!(stats.len(), recordings.len(), "chunk={chunk}");
        for (streamed, recording) in stats.iter().zip(recordings) {
            let series = recording.profile.block().lane(lane::ROBOT_CURRENT);
            assert_eq!(
                streamed.moments,
                moments(series),
                "chunk={chunk}: Welford drifted for {}",
                recording.description
            );
            assert_eq!(
                streamed.peaks,
                peak_stats(series, PROMINENCE),
                "chunk={chunk}: peaks drifted for {}",
                recording.description
            );
        }

        match &reference {
            None => reference = Some(stats),
            Some(ref_stats) => assert_eq!(ref_stats, &stats, "chunk={chunk}: stats diverged"),
        }
    }
}

#[test]
fn campaign_detection_is_invariant_to_chunk_size() {
    let campaign = campaign();
    let detector = fit_detector(&campaign, 2).unwrap();

    // Sizes 1 and 7 split the trace batch and every recording longer
    // than 7 ticks; the reference hands the batch and every recording
    // over whole.
    let longest = campaign
        .power()
        .recordings()
        .iter()
        .map(|r| r.profile.len())
        .max()
        .unwrap();
    assert!(longest > 7, "some recording is split at chunk 7");
    let whole = campaign.command().len().max(longest) + 1;
    let unsplit =
        detect_campaign(&campaign, &detector, PowerAlertConfig::default(), whole).unwrap();
    assert!(!unsplit.runs.is_empty(), "the campaign scores runs");
    assert_eq!(
        unsplit.recordings.len(),
        campaign.power().recordings().len(),
        "every recording is summarized"
    );
    for chunk in [1, 7, 256, rad::power::DEFAULT_CHUNK_TICKS] {
        let split =
            detect_campaign(&campaign, &detector, PowerAlertConfig::default(), chunk).unwrap();
        assert_eq!(split.alerts, unsplit.alerts, "chunk={chunk}: alerts");
        assert_eq!(split.runs, unsplit.runs, "chunk={chunk}: run scores");
        assert_eq!(split.recordings, unsplit.recordings, "chunk={chunk}: power");
    }
}

#[test]
fn live_teed_alerts_equal_segment_replay_alerts() {
    // A detector fit on one campaign...
    let campaign = campaign();
    let detector = fit_detector(&campaign, 2).unwrap();

    // ...tees live into a second, smaller tracing session.
    let shared = SharedAlerts::new();
    let stage = StreamingPerplexity::new(&detector, AlertPolicy::RunEnd, shared.clone());
    let tracer = Tracer::new().with_sink(Box::new(stage));
    let middlebox = Middlebox::new(SEED + 1).with_tracer(tracer);
    let mut session = rad::workloads::Session::with_middlebox(middlebox, SEED + 1);

    session.begin_run(RunId(0), ProcedureKind::CrystalSolubility, Label::Benign);
    rad::workloads::procedures::p3_crystal_solubility(
        &mut session,
        rad::workloads::P3Variant::Normal,
    )
    .unwrap();
    session.end_run();
    session.begin_run(RunId(1), ProcedureKind::JoystickMovements, Label::Benign);
    rad::workloads::procedures::joystick_session(&mut session, 4).unwrap();
    session.end_run();
    session.middlebox_mut().finish_sink().unwrap();
    let live_alerts = shared.snapshot();

    // Seal what the session captured and replay it through a fresh
    // stage, chunked adversarially small.
    let (commands, _power) = session.finish();
    let dir = tmpdir("live-tee");
    SegmentWriter::create(&dir, SegmentOptions::default())
        .unwrap()
        .seal_traces(commands.batch())
        .unwrap();
    let set = SegmentSet::open(&dir).unwrap();
    let mut replayed = StreamingPerplexity::new(&detector, AlertPolicy::RunEnd, Vec::new());
    let mut scan = set.read_all().unwrap();
    assert!(scan.quarantined().is_empty());
    {
        let stage = &mut replayed;
        while let Some(batch) = scan.next_batch().unwrap() {
            stage.accept(&batch).unwrap();
        }
        stage.finish().unwrap();
    }
    assert_eq!(
        live_alerts,
        replayed.into_sink(),
        "live tee != segment replay"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `n` rows of ambient traffic (one command repeated; no run ids), or
/// `runs`-way run-structured traffic when `runs > 0`.
fn synthetic_rows(n: usize, runs: usize) -> Vec<TraceObject> {
    (0..n)
        .map(|i| {
            let mut builder = TraceObject::builder(
                TraceId(i as u64),
                SimInstant::from_micros(i as u64 * 1000),
                DeviceId::primary(DeviceKind::C9),
                Command::nullary(CommandType::Mvng),
            );
            if runs > 0 {
                builder = builder.run(
                    ProcedureKind::Unknown,
                    RunId((i % runs) as u32),
                    Label::Unknown,
                );
            }
            builder.build()
        })
        .collect()
}

#[test]
fn resident_state_is_bounded_by_window_and_open_runs_not_rows() {
    let campaign = campaign();
    let detector = fit_detector(&campaign, 2).unwrap();

    // Peak resident bytes over an ambient stream, per stream length.
    let peak = |rows: usize| {
        let mut stage =
            StreamingPerplexity::new(&detector, AlertPolicy::Crossing { window: 16 }, Vec::new());
        let rows = synthetic_rows(rows, 0);
        let mut source = SliceSource::new(&rows, 64);
        let mut peak = 0usize;
        while let Some(batch) = source.next_batch().unwrap() {
            stage.accept(&batch).unwrap();
            peak = peak.max(stage.resident_state_bytes());
        }
        peak
    };
    // Ten times the rows, same window: not one more resident byte.
    assert_eq!(peak(2_000), peak(20_000), "state grew with stream length");

    // Run-end scoring holds one constant-size record per open run:
    // growing each run tenfold changes nothing; adding runs does.
    let run_end_bytes = |rows: usize, runs: usize| {
        let mut stage = StreamingPerplexity::new(&detector, AlertPolicy::RunEnd, Vec::new());
        drive_open(&mut stage, &synthetic_rows(rows, runs));
        stage.resident_state_bytes()
    };
    assert_eq!(run_end_bytes(300, 3), run_end_bytes(3_000, 3));
    assert!(run_end_bytes(300, 3) < run_end_bytes(300, 6));
}

/// [`drive`] without the finish: the state under measurement must
/// still be resident.
fn drive_open<S: TraceSink>(stage: &mut S, traces: &[TraceObject]) {
    let mut source = SliceSource::new(traces, 64);
    while let Some(batch) = source.next_batch().unwrap() {
        stage.accept(&batch).unwrap();
    }
}

/// One burst of unseen commands starts every this many ambient rows.
const BURST_EVERY: usize = 10_000;

/// Rows in each burst.
const BURST_LEN: usize = 32;

/// Simulated microseconds between consecutive ambient rows.
const ROW_MICROS: u64 = 250;

/// `n` rows of ambient traffic without run ids, with a [`BURST_LEN`]-row
/// burst every [`BURST_EVERY`] rows. A burst steps across the whole
/// command alphabet, so almost every trigram in it is unseen.
///
/// The ambient rows walk the training grammar greedily: from each
/// bigram context, the most frequent successor in `benign`, ties to
/// the lowest token id. Tiling benign runs end to end instead would put
/// an unseen trigram at every seam and hold the windowed perplexity
/// above the bar, so the edge-triggered alert would fire once and never
/// re-arm. After each burst the walk restarts from the first benign
/// run's opening bigram.
fn ambient_stream(benign: &[Vec<CommandType>], n: usize) -> Vec<TraceObject> {
    let mut counts: BTreeMap<(CommandType, CommandType, CommandType), u64> = BTreeMap::new();
    for run in benign {
        for w in run.windows(3) {
            *counts.entry((w[0], w[1], w[2])).or_insert(0) += 1;
        }
    }
    let mut successor: BTreeMap<(CommandType, CommandType), (CommandType, u64)> = BTreeMap::new();
    for (&(a, b, c), &count) in &counts {
        let best = successor.entry((a, b)).or_insert((c, 0));
        if count > best.1 || (count == best.1 && c.token_id() < best.0.token_id()) {
            *best = (c, count);
        }
    }
    let seed = benign
        .iter()
        .find(|run| run.len() >= 2)
        .expect("the campaign has a scoreable benign run");
    let mut context = (seed[0], seed[1]);
    let mut restart = 0; // opening-bigram rows left to emit after a burst
    (0..n)
        .map(|i| {
            let ct = if i % BURST_EVERY < BURST_LEN {
                restart = 2;
                CommandType::from_token_id((i * 7) % CommandType::all().len()).unwrap()
            } else if restart > 0 {
                restart -= 1;
                seed[1 - restart]
            } else {
                successor.get(&context).map_or(seed[0], |&(c, _)| c)
            };
            context = (context.1, ct);
            TraceObject::builder(
                TraceId(i as u64),
                SimInstant::from_micros(i as u64 * ROW_MICROS),
                DeviceId::primary(ct.device()),
                Command::nullary(ct),
            )
            .build()
        })
        .collect()
}

#[test]
fn crossing_alerts_fire_once_per_burst_at_every_chunk_size() {
    // An order-3 detector on seed 5's benign supervised runs: the
    // ambient walk scores about 2.6 and a 32-row burst in a 256-row
    // window about 14, so a fixed bar of 4.0 separates them. The Jenks
    // threshold (about 1.86) sits inside the benign range.
    let dataset = CampaignBuilder::new(5).supervised_only().build();
    let detector = fit_detector(&dataset, 3).unwrap();
    let benign: Vec<Vec<CommandType>> = dataset
        .command()
        .supervised_sequences()
        .into_iter()
        .filter(|(meta, _)| !meta.label().is_anomalous())
        .map(|(_, run)| run)
        .collect();
    let rows = 50_000;
    let stream = ambient_stream(&benign, rows);

    for chunk in [7, 4096] {
        let mut stage =
            StreamingPerplexity::new(&detector, AlertPolicy::Crossing { window: 256 }, Vec::new())
                .with_fixed_threshold(4.0);
        drive(&mut stage, &stream, chunk);
        let alerts = stage.into_sink();
        assert_eq!(
            alerts.len(),
            rows.div_ceil(BURST_EVERY),
            "chunk {chunk}: one alert per burst"
        );
        for (burst, alert) in alerts.iter().enumerate() {
            let row = (alert.window_end.as_micros() / ROW_MICROS) as usize;
            let start = burst * BURST_EVERY;
            assert!(
                (start..start + BURST_LEN).contains(&row),
                "chunk {chunk}: alert {burst} fired at row {row}, outside its burst"
            );
        }
    }
}
