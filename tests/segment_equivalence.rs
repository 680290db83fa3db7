//! Golden suite for the columnar segment store: whatever path data
//! takes through segments — any chunking, pruned or unpruned, straight
//! to a bundle — the bytes that come out are the bytes that went in.
//!
//! Three equivalence ladders plus codec properties:
//!
//! 1. seal → scan round-trips the batch exactly, at segment sizes
//!    1 / 7 / 256 / unbounded;
//! 2. pruned queries == unpruned queries == the in-memory reference
//!    filter, across every predicate shape;
//! 3. a bundle exported from segments is byte-identical to the bundle
//!    exported from the in-memory dataset.
//!
//! Codec property tests honour `PROPTEST_CASES` (CI raises it).

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rad_core::{
    Command, CommandType, DeviceId, DeviceKind, Label, ProcedureKind, RunId, SimDuration,
    SimInstant, TraceBatch, TraceId, TraceObject, TraceSink, Value,
};
use rad_power::{CurrentProfile, PowerBlock, RecordingMeta};
use rad_store::segment::codec;
use rad_store::{
    export_rad, export_rad_from_segments, CommandDataset, PowerDataset, PowerRecording,
    SegmentOptions, SegmentReader, SegmentSet, SegmentWriter, TraceQuery,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rad-segment-equiv-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A batch exercising every column: all devices, varied args, sparse
/// exceptions, a supervised-run suffix, and non-monotonic response
/// times.
fn synthesize(n: usize) -> TraceBatch {
    let mut batch = TraceBatch::with_capacity(n);
    for i in 0..n {
        let ct = CommandType::from_token_id(i % 52).unwrap();
        let args = match i % 4 {
            0 => vec![],
            1 => vec![Value::Int(i as i64 - 500)],
            2 => vec![
                Value::Str(format!("s{i}")),
                Value::Location {
                    x: i as f64,
                    y: -1.5,
                    z: 0.25,
                },
            ],
            _ => vec![Value::List(vec![Value::Bool(i % 8 == 0), Value::Unit])],
        };
        let mut b = TraceObject::builder(
            TraceId(i as u64),
            SimInstant::from_micros(i as u64 * 1000),
            DeviceId::primary(ct.device()),
            Command::new(ct, args),
        )
        .return_value(Value::Float(i as f64 / 3.0))
        .response_time(SimDuration::from_micros(100 + (i as u64 * 37) % 400));
        if i % 13 == 0 {
            b = b.exception(format!("fault {i}"));
        }
        if i % 3 != 0 {
            b = b.run(
                ProcedureKind::JoystickMovements,
                RunId((i / 50) as u32),
                if i % 6 == 1 {
                    Label::Anomalous(rad_core::AnomalyCause::ArmVsTecan)
                } else {
                    Label::Benign
                },
            );
        }
        batch.push_owned(b.build());
    }
    batch
}

fn seal(dir: &Path, batch: &TraceBatch, rows_per_segment: usize) -> SegmentSet {
    let options = SegmentOptions {
        rows_per_segment,
        partition_by_device: false,
    };
    SegmentWriter::create(dir, options)
        .unwrap()
        .seal_traces(batch)
        .unwrap();
    SegmentSet::open(dir).unwrap()
}

#[test]
fn round_trip_is_exact_at_every_chunk_size() {
    let batch = synthesize(600);
    for rows_per_segment in [1, 7, 256, usize::MAX] {
        let dir = tmpdir(&format!("chunk-{}", rows_per_segment.min(9_999_999)));
        let set = seal(&dir, &batch, rows_per_segment);
        let scan = set.read_all().unwrap();
        assert!(scan.quarantined().is_empty());
        assert_eq!(
            scan.into_batch(),
            batch,
            "rows_per_segment={rows_per_segment} must round-trip exactly"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn pruned_unpruned_and_in_memory_filters_agree() {
    let batch = synthesize(900);
    let dir = tmpdir("prune");
    let set = seal(&dir, &batch, 128);

    let queries = [
        TraceQuery::new(),
        TraceQuery::new().device(DeviceKind::Tecan),
        TraceQuery::new().device(DeviceKind::Quantos),
        TraceQuery::new().procedure(ProcedureKind::JoystickMovements),
        TraceQuery::new().procedure(ProcedureKind::VelocitySweep),
        TraceQuery::new().run(RunId(3)),
        TraceQuery::new().run(RunId(999)),
        TraceQuery::new().time_range(100_000, 400_000),
        TraceQuery::new().time_range(0, 0),
        TraceQuery::new()
            .device(DeviceKind::C9)
            .time_range(200_000, 700_000),
        TraceQuery::new()
            .procedure(ProcedureKind::JoystickMovements)
            .run(RunId(5))
            .time_range(250_000, 899_000),
    ];
    for query in queries {
        let reference = batch.select(&query.matching_rows(&batch));
        let pruned = set.query_with(&query, true).unwrap();
        let unpruned = set.query_with(&query, false).unwrap();
        assert_eq!(
            unpruned.scanned(),
            set.len(),
            "unpruned scans must open every segment"
        );
        assert_eq!(
            pruned.into_batch(),
            reference,
            "pruned scan diverged for {query:?}"
        );
        assert_eq!(
            unpruned.into_batch(),
            reference,
            "unpruned scan diverged for {query:?}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missed_queries_decode_only_the_predicate_columns() {
    let batch = synthesize(64);
    let dir = tmpdir("lazy");
    let paths = SegmentWriter::create(&dir, SegmentOptions::default())
        .unwrap()
        .seal_traces(&batch)
        .unwrap();

    // Every device in this batch appears, but no row is in run 999:
    // after consulting the run column the reader must stop, leaving
    // the wide columns (args, ids, timestamps) untouched on disk.
    let mut reader = SegmentReader::open(&paths[0]).unwrap();
    let hit = reader.query(&TraceQuery::new().run(RunId(999))).unwrap();
    assert!(hit.is_none());
    assert!(reader.column_loaded("run"));
    for untouched in ["ids", "ts", "args", "argoff", "ret", "mode"] {
        assert!(
            !reader.column_loaded(untouched),
            "{untouched} must stay unread for a run-miss query"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// One 122-lane power block with deterministic, lane-distinct values.
fn power_block(ticks: usize) -> PowerBlock {
    let lanes: Vec<Vec<f64>> = (0..rad_power::PowerSample::FIELD_COUNT)
        .map(|lane| {
            (0..ticks)
                .map(|t| (lane * 1000 + t) as f64 * 0.125)
                .collect()
        })
        .collect();
    PowerBlock::from_lanes(lanes).expect("122 equal-length lanes")
}

#[test]
fn bundle_from_segments_is_byte_identical_to_in_memory_export() {
    // The command half, with runs and a gap-free record.
    let batch = synthesize(300);
    let mut commands = CommandDataset::new();
    commands.accept(&batch).unwrap();
    for run in 0..6 {
        commands.add_run(
            rad_core::RunMetadata::new(
                RunId(run),
                ProcedureKind::JoystickMovements,
                SimInstant::from_micros(u64::from(run) * 50_000),
            )
            .with_label(if run % 2 == 0 {
                Label::Benign
            } else {
                Label::Anomalous(rad_core::AnomalyCause::QuantosDoorVsN9)
            })
            .with_note(format!("run {run}")),
        );
    }

    // The power half: two recordings, sealed in dataset order.
    let mut power = PowerDataset::new();
    let metas = [
        RecordingMeta {
            procedure: ProcedureKind::VelocitySweep,
            run_id: RunId(0),
            description: "velocity=100mm/s".to_owned(),
        },
        RecordingMeta {
            procedure: ProcedureKind::PayloadSweep,
            run_id: RunId(1),
            description: "payload=250g".to_owned(),
        },
    ];
    let blocks = [power_block(48), power_block(31)];
    for (meta, block) in metas.iter().zip(&blocks) {
        power.push(PowerRecording {
            procedure: meta.procedure,
            run_id: meta.run_id,
            description: meta.description.clone(),
            profile: CurrentProfile::from_block(block.clone()),
        });
    }

    let mem_dir = tmpdir("bundle-mem");
    let mem_files = export_rad(&commands, &power, &mem_dir).unwrap();

    let seg_dir = tmpdir("bundle-segs");
    let mut writer = SegmentWriter::create(&seg_dir, SegmentOptions::default()).unwrap();
    writer.seal_traces(commands.batch()).unwrap();
    for (meta, block) in metas.iter().zip(&blocks) {
        writer.seal_power(meta, block).unwrap();
    }
    let set = SegmentSet::open(&seg_dir).unwrap();

    let seg_out = tmpdir("bundle-out");
    let runs: Vec<_> = commands.runs().to_vec();
    let seg_files = export_rad_from_segments(&set, &runs, commands.gaps(), &seg_out, None).unwrap();
    assert_eq!(seg_files, mem_files, "same file count");

    // Walk the in-memory bundle and demand byte identity, then check
    // the segment bundle added nothing extra.
    let mut compared = 0;
    for entry in walk(&mem_dir) {
        let rel = entry.strip_prefix(&mem_dir).unwrap();
        let other = seg_out.join(rel);
        assert_eq!(
            fs::read(&entry).unwrap(),
            fs::read(&other).unwrap_or_else(|_| panic!("missing {}", other.display())),
            "{} must be byte-identical",
            rel.display()
        );
        compared += 1;
    }
    assert_eq!(compared, mem_files, "every exported file compared");
    assert_eq!(walk(&seg_out).len(), mem_files, "no extra files");

    for dir in [mem_dir, seg_dir, seg_out] {
        fs::remove_dir_all(&dir).unwrap();
    }
}

fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

// ---------------------------------------------------------------------------
// Codec properties (case counts honour PROPTEST_CASES)

fn arb_leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ,\"']{0,24}".prop_map(Value::Str),
        ((-1e4f64..1e4), (-1e4f64..1e4), (-1e4f64..1e4)).prop_map(|(x, y, z)| Value::Location {
            x,
            y,
            z
        }),
        proptest::array::uniform6(-7.0f64..7.0).prop_map(Value::Joints),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_leaf(),
        // One level of nesting exercises the recursive encoding.
        proptest::collection::vec(arb_leaf(), 0..6).prop_map(Value::List),
    ]
}

proptest! {
    #[test]
    fn varints_round_trip(values in proptest::collection::vec(any::<u64>(), 0..64)) {
        let mut bytes = Vec::new();
        for &v in &values {
            codec::write_varint(&mut bytes, v);
        }
        let mut r = codec::ByteReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(r.varint().unwrap(), v);
        }
        prop_assert!(r.is_empty());
    }

    #[test]
    fn zigzags_round_trip(values in proptest::collection::vec(any::<i64>(), 0..64)) {
        let mut bytes = Vec::new();
        for &v in &values {
            codec::write_zigzag(&mut bytes, v);
        }
        let mut r = codec::ByteReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(r.zigzag().unwrap(), v);
        }
        prop_assert!(r.is_empty());
    }

    #[test]
    fn delta_columns_round_trip(values in proptest::collection::vec(any::<u64>(), 0..256)) {
        let mut bytes = Vec::new();
        codec::write_deltas(&mut bytes, &values);
        let mut r = codec::ByteReader::new(&bytes);
        let back = codec::read_deltas(&mut r, values.len()).unwrap();
        prop_assert_eq!(back, values);
    }

    #[test]
    fn device_columns_round_trip(
        picks in proptest::collection::vec((0usize..5, 0u16..4), 0..128)
    ) {
        let all = DeviceKind::all();
        let devices: Vec<DeviceId> = picks
            .into_iter()
            .map(|(kind, index)| DeviceId::new(all[kind], index))
            .collect();
        let mut bytes = Vec::new();
        codec::write_devices(&mut bytes, &devices);
        let mut r = codec::ByteReader::new(&bytes);
        let back = codec::read_devices(&mut r, devices.len()).unwrap();
        prop_assert_eq!(back, devices);
    }

    #[test]
    fn values_round_trip(values in proptest::collection::vec(arb_value(), 0..16)) {
        let mut bytes = Vec::new();
        for v in &values {
            codec::write_value(&mut bytes, v);
        }
        let mut r = codec::ByteReader::new(&bytes);
        for v in &values {
            prop_assert_eq!(&codec::read_value(&mut r).unwrap(), v);
        }
        prop_assert!(r.is_empty());
    }

    /// Truncating an encoded value stream anywhere errors instead of
    /// panicking or inventing a value.
    #[test]
    fn truncated_values_error_cleanly(
        values in proptest::collection::vec(arb_value(), 1..8),
        cut_ppm in 0u32..1_000_000,
    ) {
        let mut bytes = Vec::new();
        for v in &values {
            codec::write_value(&mut bytes, v);
        }
        let cut = (bytes.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
        let mut r = codec::ByteReader::new(&bytes[..cut]);
        let mut decoded = 0usize;
        // An Err anywhere is the clean-failure path; a panic would
        // abort the proptest case instead.
        while let Ok(v) = codec::read_value(&mut r) {
            prop_assert_eq!(&v, &values[decoded], "prefix decodes must agree");
            decoded += 1;
            prop_assert!(decoded <= values.len());
            if r.is_empty() && decoded == values.len() {
                break;
            }
        }
    }
}
