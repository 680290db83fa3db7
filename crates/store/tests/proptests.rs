//! Property tests on the CSV codec and the durable store's trace
//! stream.

use proptest::prelude::*;
use rad_core::{
    Command, CommandType, DeviceId, Label, ProcedureKind, RunId, SimDuration, SimInstant,
    TraceBatch, TraceId, TraceMode, TraceObject, Value,
};
use rad_power::{PowerBlock, PowerSample};
use rad_store::segment::{trace_segment_bytes, SegmentReader};
use rad_store::wal::WalOptions;
use rad_store::{csv, CrashPlan, CrashSite, DurableOptions, DurableStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bit patterns an encoder could mistake for "no value yet": zeros of
/// both signs, subnormals, infinities, NaN payloads, and all-ones.
const EDGE_BITS: [u64; 12] = [
    0,
    1 << 63,
    1,
    0x000f_ffff_ffff_ffff,
    0x8000_0000_0000_0001,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x7ff8_0000_0000_0000,
    0x7ff0_0000_0000_0001,
    0x7ff4_dead_beef_0000,
    u64::MAX,
    0x3ff0_0000_0000_0000,
];

/// Enough ticks for the buffer to flush mid-file: wide random values
/// format to hundreds of bytes each.
const MAX_TICKS: usize = 24;

/// One lane's bits over `MAX_TICKS` ticks, drawn from a palette of
/// one to three values so that runs of one repeated value are common.
fn lane_bits() -> impl Strategy<Value = Vec<u64>> {
    let bits = prop_oneof![
        (0usize..EDGE_BITS.len()).prop_map(|i| EDGE_BITS[i]),
        any::<u64>(),
        (-1000.0f64..1000.0).prop_map(f64::to_bits),
    ];
    (
        proptest::collection::vec(bits, 1..4),
        proptest::collection::vec(0usize..3, MAX_TICKS),
    )
        .prop_map(|(palette, picks)| picks.iter().map(|&i| palette[i % palette.len()]).collect())
}

/// Field text with everything CSV and JSON must escape: commas,
/// quotes, newlines, backslashes, and non-ASCII characters.
const NASTY: &str = "[a-c ,\"\n\\\'é中😀]{0,10}";

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Float),
        NASTY.prop_map(Value::Str),
        proptest::collection::vec(NASTY.prop_map(Value::Str), 0..3).prop_map(Value::List),
    ]
}

fn trace() -> impl Strategy<Value = TraceObject> {
    let command_type = prop_oneof![
        Just(CommandType::Arm),
        Just(CommandType::Mvng),
        Just(CommandType::TecanGetStatus),
        Just(CommandType::InitIka),
        Just(CommandType::StartDosing),
    ];
    let mode = prop_oneof![
        Just(TraceMode::Direct),
        Just(TraceMode::Remote),
        Just(TraceMode::Cloud),
    ];
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        command_type,
        mode,
        proptest::collection::vec(value(), 0..4),
        (value(), proptest::option::of(NASTY)),
        proptest::option::of(any::<u32>()),
    )
        .prop_map(|((id, at, took), ct, mode, args, (ret, exception), run)| {
            let mut builder = TraceObject::builder(
                TraceId(id),
                SimInstant::from_micros(at),
                DeviceId::primary(ct.device()),
                Command::new(ct, args),
            )
            .mode(mode)
            .return_value(ret)
            .response_time(SimDuration::from_micros(took));
            if let Some(exception) = exception {
                builder = builder.exception(exception);
            }
            if let Some(run) = run {
                builder = builder.run(ProcedureKind::JoystickMovements, RunId(run), Label::Benign);
            }
            builder.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV field quoting round-trips any printable content, including
    /// embedded quotes, commas, and newlines.
    #[test]
    fn csv_field_quoting_round_trips(
        fields in proptest::collection::vec("[ -~\n]{0,40}", 1..8),
    ) {
        let row = csv::encode_row(&fields);
        prop_assume!(!row.contains('\n') || fields.iter().any(|f| f.contains('\n')));
        let back = csv::decode_row(&row).unwrap();
        prop_assert_eq!(back, fields);
    }

    /// The buffered, lane-cached power encoder writes exactly the
    /// reference encoder's bytes over any lane values, including a
    /// first row equal to any would-be cache sentinel.
    #[test]
    fn buffered_power_csv_matches_the_reference(
        ticks in 0usize..=MAX_TICKS,
        lanes in proptest::collection::vec(lane_bits(), PowerSample::FIELD_COUNT),
    ) {
        let lanes = lanes
            .iter()
            .map(|lane| lane[..ticks].iter().map(|&b| f64::from_bits(b)).collect())
            .collect();
        let block = PowerBlock::from_lanes(lanes).unwrap();
        let mut streamed = Vec::new();
        csv::write_power_csv(&mut streamed, &block).unwrap();
        prop_assert_eq!(
            String::from_utf8(streamed).unwrap(),
            csv::power_to_csv(&block.to_samples())
        );
    }

    /// The in-place trace row encoder writes exactly the reference
    /// encoder's bytes, whatever the args, return values and
    /// exceptions contain.
    #[test]
    fn buffered_traces_csv_matches_the_reference(
        traces in proptest::collection::vec(trace(), 0..40),
    ) {
        let mut streamed = Vec::new();
        csv::write_traces_csv(&mut streamed, &TraceBatch::from_traces(&traces)).unwrap();
        prop_assert_eq!(String::from_utf8(streamed).unwrap(), csv::traces_to_csv(&traces));
    }
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "rad-stream-props-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small WAL segments, so streams rotate across several files.
fn stream_options() -> DurableOptions {
    DurableOptions {
        wal: WalOptions {
            segment_bytes: 512,
            sync_every: 1,
        },
        ..DurableOptions::default()
    }
}

/// Appends `rows` in chunks of the given sizes, checkpointing after
/// each chunk whose flag is set; leftover rows go in one last chunk.
/// Returns how many rows the last checkpoint sealed.
fn append_in_chunks(store: &DurableStore, rows: &TraceBatch, plan: &[(usize, bool)]) -> usize {
    let mut start = 0;
    let mut sealed = 0;
    for &(size, checkpoint) in plan {
        let end = (start + size).min(rows.len());
        store.append_traces(&rows.slice(start..end)).unwrap();
        start = end;
        if checkpoint {
            store.checkpoint().unwrap();
            sealed = start;
        }
    }
    store.append_traces(&rows.slice(start..rows.len())).unwrap();
    sealed
}

/// The last WAL segment in `dir`.
fn last_wal_segment(dir: &Path) -> PathBuf {
    let mut logs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    logs.sort();
    logs.pop().unwrap()
}

fn chunk_plan() -> impl Strategy<Value = Vec<(usize, bool)>> {
    proptest::collection::vec((1usize..12, any::<bool>()), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rows appended in any chunking, with checkpoints anywhere, reopen
    /// to the same stream; the sealed part is exactly the rows the last
    /// checkpoint covered, each once.
    #[test]
    fn trace_stream_reopens_to_what_was_appended(
        traces in proptest::collection::vec(trace(), 0..50),
        plan in chunk_plan(),
    ) {
        let dir = tmpdir("reopen");
        let rows = TraceBatch::from_traces(&traces);
        let sealed = {
            let (store, _) = DurableStore::open(&dir, stream_options()).unwrap();
            let sealed = append_in_chunks(&store, &rows, &plan);
            store.sync().unwrap();
            sealed
        };
        let (store, report) = DurableStore::open(&dir, stream_options()).unwrap();
        prop_assert!(report.is_clean(), "{}", report);
        prop_assert_eq!(store.trace_rows(), rows.len() as u64);
        prop_assert_eq!(store.read_traces().unwrap(), rows.clone());
        let set = store.segments().unwrap();
        prop_assert_eq!(set.read_all().unwrap().into_batch(), rows.slice(0..sealed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Through any sequence of appends, checkpoints and reopens,
    /// `read_traces` is exactly the rows appended so far: held frames,
    /// replayed frames and sealed segments join in stream order.
    #[test]
    fn read_traces_is_the_appended_rows_through_checkpoints_and_reopens(
        traces in proptest::collection::vec(trace(), 1..60),
        ops in proptest::collection::vec((0u8..5, 1usize..12), 1..16),
    ) {
        let dir = tmpdir("ops");
        let rows = TraceBatch::from_traces(&traces);
        let (mut store, _) = DurableStore::open(&dir, stream_options()).unwrap();
        let mut appended = 0;
        for (op, size) in ops {
            match op {
                // Appends are three times as likely as either other step.
                0..=2 => {
                    let end = rows.len().min(appended + size);
                    store.append_traces(&rows.slice(appended..end)).unwrap();
                    appended = end;
                }
                3 => store.checkpoint().unwrap(),
                _ => {
                    store.sync().unwrap();
                    drop(store);
                    let (reopened, report) = DurableStore::open(&dir, stream_options()).unwrap();
                    prop_assert!(report.is_clean(), "{}", report);
                    store = reopened;
                }
            }
            prop_assert_eq!(store.trace_rows(), appended as u64);
            prop_assert_eq!(store.read_traces().unwrap(), rows.slice(0..appended));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cutting the last WAL segment at any byte recovers a prefix of
    /// the appended stream, never a shifted or invented row.
    #[test]
    fn truncated_wal_recovers_a_stream_prefix(
        traces in proptest::collection::vec(trace(), 1..50),
        plan in chunk_plan(),
        cut in 0.0f64..1.0,
    ) {
        let dir = tmpdir("torn");
        let rows = TraceBatch::from_traces(&traces);
        let sealed = {
            let (store, _) = DurableStore::open(&dir, stream_options()).unwrap();
            let sealed = append_in_chunks(&store, &rows, &plan);
            store.sync().unwrap();
            sealed
        };
        let last = last_wal_segment(&dir);
        let len = std::fs::metadata(&last).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&last).unwrap();
        file.set_len((len as f64 * cut) as u64).unwrap();
        drop(file);
        let (store, _) = DurableStore::open(&dir, stream_options()).unwrap();
        let recovered = store.read_traces().unwrap();
        prop_assert!(recovered.len() >= sealed, "sealed rows never go");
        prop_assert!(recovered.len() <= rows.len());
        prop_assert_eq!(recovered.clone(), rows.slice(0..recovered.len()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The frame decoder, given a truncated or bit-flipped frame body,
    /// returns an error or the identical batch — it never panics.
    #[test]
    fn damaged_frame_bodies_decode_to_an_error_or_the_same_rows(
        traces in proptest::collection::vec(trace(), 1..30),
        at in 0.0f64..1.0,
        bit in 0u8..8,
        truncate in any::<bool>(),
    ) {
        let rows = TraceBatch::from_traces(&traces);
        let mut body = trace_segment_bytes(&rows);
        let pos = ((body.len() as f64 * at) as usize).min(body.len() - 1);
        if truncate {
            body.truncate(pos);
        } else {
            body[pos] ^= 1 << bit;
        }
        if let Ok(decoded) = SegmentReader::from_bytes("frame", body).and_then(|mut r| r.read_batch()) {
            prop_assert_eq!(decoded, rows);
        }
    }

    /// A checkpoint killed at `mid-rename` after its seals leaves them
    /// unnamed; a reopen sets them aside and still holds every row
    /// exactly once, sealed or not.
    #[test]
    fn checkpoint_killed_after_its_seals_loses_and_repeats_nothing(
        before in proptest::collection::vec(trace(), 0..30),
        after in proptest::collection::vec(trace(), 1..30),
        plan in chunk_plan(),
    ) {
        let dir = tmpdir("setaside");
        let mut rows = TraceBatch::from_traces(&before);
        {
            let (store, _) = DurableStore::open(&dir, stream_options()).unwrap();
            append_in_chunks(&store, &rows, &plan);
            store.checkpoint().unwrap();
        }
        let sealed = rows.len();
        {
            // Visit 0 renames the one new seal; visit 1 would rename the
            // manifest naming it.
            let options = DurableOptions {
                crash_plan: Some(CrashPlan::at(CrashSite::MidRename, 1)),
                ..stream_options()
            };
            let (store, _) = DurableStore::open(&dir, options).unwrap();
            store.append_traces(&TraceBatch::from_traces(&after)).unwrap();
            prop_assert!(store.checkpoint().is_err());
        }
        rows.append(&TraceBatch::from_traces(&after));
        let (store, report) = DurableStore::open(&dir, stream_options()).unwrap();
        prop_assert_eq!(report.segments_set_aside.len(), 1);
        prop_assert_eq!(store.read_traces().unwrap(), rows.clone());
        let set = store.segments().unwrap();
        prop_assert_eq!(set.read_all().unwrap().into_batch(), rows.slice(0..sealed));
        store.checkpoint().unwrap();
        let set = store.segments().unwrap();
        prop_assert_eq!(set.read_all().unwrap().into_batch(), rows);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
