//! A crash-safe store: small JSON documents plus one typed,
//! append-only trace stream, write-ahead logged and checkpointed.
//!
//! Every mutation is appended to the [`Wal`] *before* it is applied in
//! memory, under one lock, so the log is always a complete history of
//! the applied state. The log carries two payload kinds, told apart by
//! their first byte:
//!
//! - **JSON ops** (first byte `{`) insert or delete the store's small
//!   JSON documents: run metadata, gaps, journals, cursors. They live
//!   in named collections, each document under a store-wide id.
//! - **Trace frames** (first byte `T`) append rows to the trace
//!   stream: the stream position of the frame's first row (`u64` LE),
//!   then the rows in the segment encoding — the bytes
//!   [`trace_segment_bytes`](crate::segment::trace_segment_bytes)
//!   produces and a sealed segment file holds, decoded by the same
//!   [`SegmentReader`]. A delta too large for one frame splits into
//!   consecutive frames.
//!
//! Until a checkpoint, the store holds the rows appended since the last
//! one as the bodies of the trace frames that logged them — the exact
//! bytes in the WAL, one exact-size buffer per frame — and decodes them
//! only when they are read or sealed. A store holds its unsealed rows
//! at their encoded size.
//!
//! [`DurableStore::checkpoint`] is a seal plus a small manifest: the
//! held frames are decoded and sealed into segment files, and
//! `checkpoint.json` names every sealed file with its row count, next
//! to the documents. The held frames are then released and the WAL
//! restarts empty. No durable path ever renders a trace as JSON.
//!
//! # On-disk layout
//!
//! ```text
//! dir/
//! ├── checkpoint.json          # next_seq, next_id, documents,
//! │                            # sealed trace files with row counts
//! ├── segments/
//! │   ├── trace-all-000000.seg # sealed rows, in stream order
//! │   └── trace-all-000001.seg
//! ├── wal-000007.log           # records past the checkpoint
//! └── wal-000008.log
//! ```
//!
//! # Recovery keeps the stream a prefix
//!
//! [`DurableStore::open`] loads the checkpoint, then the segments it
//! names, in order, then replays the WAL records past the checkpoint
//! in `seq` order. The recovered trace stream is always an exact
//! prefix of what was appended — rows are never shifted, invented or
//! reordered:
//!
//! - A named segment that is missing or fails its CRC ends the sealed
//!   prefix; it and every named segment after it are quarantined.
//! - A trace frame is applied only when its position equals the
//!   stream's current end; any other frame is skipped.
//! - `.seg` files the checkpoint does not name are the seals of a
//!   checkpoint that died before committing. Their rows are still in
//!   the WAL, so they are renamed `*.uncommitted` and never read.
//! - A checkpoint that fails validation is renamed
//!   `checkpoint.json.quarantined` and recovery continues from the WAL
//!   alone: none of its documents or segments are applied.
//!
//! Each of these is counted in the [`RecoveryReport`], with the rows
//! it cost: damage is reported, never fatal.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rad_core::{spec, RadError, TraceBatch};
use serde_json::{json, Value as Json};

use crate::segment::{
    quarantine_file, segment_file_names, write_trace_segment, SegmentOptions, SegmentReader,
    SegmentSet, SegmentWriter,
};
use crate::wal::{
    atomic_write_file, sync_dir, CrashInjector, CrashPlan, RecoveryReport, Wal, WalOptions,
    MAX_RECORD,
};

const CHECKPOINT_FILE: &str = "checkpoint.json";
const SEGMENTS_DIR: &str = "segments";

/// First payload byte of a trace frame. JSON ops start with `{`.
const TRACE_FRAME: u8 = b'T';

/// Tag byte plus the position of the frame's first row.
const FRAME_HEADER: usize = 9;

/// Rows per trace frame. A delta splits into frames of this many rows,
/// which keeps a frame under the WAL's record cap as long as its rows
/// average under 1 KiB encoded; a frame that would still exceed the cap
/// halves until it fits.
const FRAME_ROWS: usize = MAX_RECORD as usize / 1024;

/// Tuning knobs for a [`DurableStore`].
#[derive(Debug, Clone, Default)]
pub struct DurableOptions {
    /// WAL segment size and fsync batching.
    pub wal: WalOptions,
    /// Write a checkpoint automatically after this many logged
    /// operations (`None` = only on explicit [`DurableStore::checkpoint`]).
    pub checkpoint_every_ops: Option<u64>,
    /// Seeded crash schedule for the write path (testing only).
    pub crash_plan: Option<CrashPlan>,
}

/// Identifier assigned to each inserted document, unique per store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocumentId(pub u64);

/// A small set of JSON documents plus an append-only trace stream,
/// every mutation of which survives a crash.
///
/// Thread-safe: reads and mutations share one internal mutex, so the
/// WAL order always matches the applied order.
///
/// # Examples
///
/// ```no_run
/// use rad_core::{Command, CommandType, DeviceId, SimInstant, TraceBatch, TraceId, TraceObject};
/// use rad_store::{DurableOptions, DurableStore};
/// use serde_json::json;
///
/// let dir = std::path::Path::new("/tmp/rad-durable-doc");
/// let (store, _report) = DurableStore::open(dir, DurableOptions::default())?;
/// let trace = TraceObject::builder(
///     TraceId(0),
///     SimInstant::EPOCH,
///     DeviceId::primary(CommandType::Arm.device()),
///     Command::nullary(CommandType::Arm),
/// )
/// .build();
/// store.append_traces(&TraceBatch::from_traces(&[trace]))?;
/// store.insert("runs", json!({"run_id": 0}))?;
/// store.sync()?;
/// drop(store);
/// // A reopen recovers both from the log.
/// let (store, report) = DurableStore::open(dir, DurableOptions::default())?;
/// assert_eq!(store.trace_rows(), 1);
/// assert_eq!(store.count("runs"), 1);
/// assert_eq!(report.records_replayed, 2);
/// # Ok::<(), rad_core::RadError>(())
/// ```
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    log: Mutex<Log>,
    injector: Option<CrashInjector>,
    checkpoint_every_ops: Option<u64>,
    ops_since_checkpoint: AtomicU64,
}

/// The write path's state, under one lock.
#[derive(Debug)]
struct Log {
    wal: Wal,
    stream: TraceStream,
    docs: Documents,
}

/// The store's documents: named collections of JSON objects, each
/// keyed by a store-wide id. Collections are created by their first
/// insert and kept when emptied.
#[derive(Debug, Default)]
struct Documents {
    collections: BTreeMap<String, BTreeMap<u64, Json>>,
    /// The id the next insert receives.
    next_id: u64,
}

impl Documents {
    /// Stores `doc` under `id`; later inserts get larger ids.
    fn insert(&mut self, collection: &str, id: u64, doc: Json) {
        self.next_id = self.next_id.max(id + 1);
        self.collections
            .entry(collection.to_owned())
            .or_default()
            .insert(id, doc);
    }

    /// Removes one document, if present.
    fn remove(&mut self, collection: &str, id: u64) {
        if let Some(docs) = self.collections.get_mut(collection) {
            docs.remove(&id);
        }
    }
}

/// What a valid checkpoint holds.
struct Checkpoint {
    next_seq: u64,
    /// Sealed trace files in stream order, with their row counts.
    sealed: Vec<(String, u64)>,
    docs: Documents,
}

/// The trace stream: sealed segment files, then the rows appended
/// since the last checkpoint.
#[derive(Debug, Default)]
struct TraceStream {
    /// Sealed files in stream order, with their row counts.
    sealed: Vec<(String, u64)>,
    /// Rows not yet sealed, in stream order, as the bodies of the WAL
    /// trace frames that logged them: their segment images, byte for
    /// byte. The WAL holds the only durable copy.
    unsealed: Vec<Arc<[u8]>>,
    /// Rows across `unsealed`.
    unsealed_rows: u64,
}

impl TraceStream {
    fn len(&self) -> u64 {
        let sealed: u64 = self.sealed.iter().map(|(_, rows)| rows).sum();
        sealed + self.unsealed_rows
    }

    /// Holds the body of a trace frame of `rows` rows that extends the
    /// stream.
    fn hold(&mut self, body: Arc<[u8]>, rows: usize) {
        self.unsealed.push(body);
        self.unsealed_rows += rows as u64;
    }

    /// Decodes the held frames onto `out`, in stream order.
    fn decode_unsealed(&self, out: &mut TraceBatch) -> Result<(), RadError> {
        for body in &self.unsealed {
            out.append_owned(decode_frame_body(Arc::clone(body))?);
        }
        Ok(())
    }
}

impl DurableStore {
    /// Opens (or creates) a durable store in `dir`: loads the newest
    /// checkpoint and the segments it names, then replays the WAL
    /// suffix over them under the prefix rule (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on filesystem failures and on a WAL
    /// record of unknown kind. Corrupt checkpoints, damaged WAL
    /// segments and damaged sealed segments are quarantined and
    /// reported, never fatal.
    pub fn open(dir: &Path, options: DurableOptions) -> Result<(Self, RecoveryReport), RadError> {
        fs::create_dir_all(dir)
            .map_err(|e| RadError::Store(format!("creating durable dir: {e}")))?;
        let injector = options.crash_plan.map(CrashInjector::new);
        let (mut wal, records, mut report) = Wal::open(dir, options.wal, injector.clone())?;

        let mut docs = Documents::default();
        let mut named = Vec::new();
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        if checkpoint_path.exists() {
            match Self::load_checkpoint(&checkpoint_path) {
                Ok(checkpoint) => {
                    report.checkpoint_next_seq = checkpoint.next_seq;
                    // The checkpoint absorbed (and retired) seqs below
                    // next_seq; fresh appends must still sort after them.
                    wal.ensure_next_seq(checkpoint.next_seq);
                    named = checkpoint.sealed;
                    docs = checkpoint.docs;
                }
                Err(_reason) => {
                    // Same policy as a damaged WAL segment: set it
                    // aside, report it, recover from what remains.
                    let quarantine = dir.join(format!("{CHECKPOINT_FILE}.quarantined"));
                    fs::rename(&checkpoint_path, &quarantine)
                        .map_err(|e| RadError::Store(format!("quarantining checkpoint: {e}")))?;
                    report.checkpoint_quarantined = true;
                }
            }
        }

        let segments_dir = dir.join(SEGMENTS_DIR);
        set_aside_uncommitted(&segments_dir, &named, &mut report)?;
        let mut stream = load_sealed(&segments_dir, named, &mut report)?;
        for record in records {
            if record.seq < report.checkpoint_next_seq {
                continue; // already folded into the checkpoint
            }
            if Self::apply_logged(&mut docs, &mut stream, &record.payload, &mut report)? {
                report.records_replayed += 1;
            }
        }

        Ok((
            DurableStore {
                dir: dir.to_path_buf(),
                log: Mutex::new(Log { wal, stream, docs }),
                injector,
                checkpoint_every_ops: options.checkpoint_every_ops,
                ops_since_checkpoint: AtomicU64::new(0),
            },
            report,
        ))
    }

    /// Parses a checkpoint file whole: its `next_seq`, the sealed trace
    /// files it names and its documents. Any structural problem is a
    /// `String` reason for quarantine, and then nothing of the file is
    /// used.
    fn load_checkpoint(path: &Path) -> Result<Checkpoint, String> {
        let bytes = fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
        let value: Json =
            serde_json::from_slice(&bytes).map_err(|e| format!("invalid json: {e}"))?;
        let next_seq = value
            .get("next_seq")
            .and_then(Json::as_u64)
            .ok_or("missing next_seq")?;
        let next_id = value
            .get("next_id")
            .and_then(Json::as_u64)
            .ok_or("missing next_id")?;
        let collections = value
            .get("collections")
            .and_then(Json::as_object)
            .ok_or("missing collections")?;
        let sealed = value
            .get("traces")
            .and_then(Json::as_array)
            .ok_or("missing traces")?
            .iter()
            .map(|entry| {
                // A bare `.seg` file name: recovery may rename what an
                // entry names, so it must not reach outside `segments/`.
                let file = entry
                    .get("file")
                    .and_then(Json::as_str)
                    .filter(|f| f.ends_with(".seg") && !f.contains(['/', '\\']));
                let rows = entry.get("rows").and_then(Json::as_u64);
                file.zip(rows)
                    .map(|(file, rows)| (file.to_owned(), rows))
                    .ok_or("bad sealed trace entry")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut docs = Documents::default();
        for (name, pairs) in collections {
            let pairs = pairs.as_array().ok_or("collection is not an array")?;
            for pair in pairs {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or("bad doc pair")?;
                let id = pair[0].as_u64().ok_or("bad doc id")?;
                if !pair[1].is_object() {
                    return Err("document is not an object".into());
                }
                docs.insert(name, id, pair[1].clone());
            }
        }
        docs.next_id = docs.next_id.max(next_id);
        Ok(Checkpoint {
            next_seq,
            sealed,
            docs,
        })
    }

    /// Applies one logged record during replay. Returns whether it was
    /// applied: a trace frame off the stream's end is skipped and
    /// counted instead.
    fn apply_logged(
        docs: &mut Documents,
        stream: &mut TraceStream,
        payload: &[u8],
        report: &mut RecoveryReport,
    ) -> Result<bool, RadError> {
        match payload.first().copied() {
            Some(b'{') => Self::apply_json(docs, payload).map(|()| true),
            Some(TRACE_FRAME) => {
                let first = payload
                    .get(1..FRAME_HEADER)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                    .ok_or_else(|| RadError::Store("trace frame shorter than its header".into()))?;
                // Decoded once to validate every column; only the bytes
                // are kept.
                let body: Arc<[u8]> = Arc::from(&payload[FRAME_HEADER..]);
                let rows = decode_frame_body(Arc::clone(&body))?.len();
                let end = stream.len();
                if first == end {
                    stream.hold(body, rows);
                    Ok(true)
                } else {
                    report.trace_frames_skipped += 1;
                    report.trace_rows_dropped += first
                        .saturating_add(rows as u64)
                        .saturating_sub(end.max(first));
                    Ok(false)
                }
            }
            Some(tag) => Err(RadError::Store(format!(
                "unknown logged record tag {tag:#04x}"
            ))),
            None => Err(RadError::Store("empty logged record".into())),
        }
    }

    /// Applies one logged JSON document operation.
    fn apply_json(docs: &mut Documents, payload: &[u8]) -> Result<(), RadError> {
        let op: Json = serde_json::from_slice(payload)
            .map_err(|e| RadError::Store(format!("wal payload is not valid json: {e}")))?;
        let kind = op.get("op").and_then(Json::as_str).unwrap_or("");
        let collection = op.get("c").and_then(Json::as_str).unwrap_or("");
        match kind {
            "insert" => {
                let id = op
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| RadError::Store("logged insert missing id".into()))?;
                let doc = op
                    .get("doc")
                    .cloned()
                    .ok_or_else(|| RadError::Store("logged insert missing doc".into()))?;
                docs.insert(collection, id, doc);
                Ok(())
            }
            "insert_batch" => {
                let first_id = op
                    .get("first_id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| RadError::Store("logged batch missing first_id".into()))?;
                let batch = op
                    .get("docs")
                    .and_then(Json::as_array)
                    .ok_or_else(|| RadError::Store("logged batch missing docs".into()))?;
                for (i, doc) in batch.iter().enumerate() {
                    docs.insert(collection, first_id + i as u64, doc.clone());
                }
                docs.next_id = docs.next_id.max(first_id + batch.len() as u64);
                Ok(())
            }
            "delete" => {
                let ids = op
                    .get("ids")
                    .and_then(Json::as_array)
                    .ok_or_else(|| RadError::Store("logged delete missing ids".into()))?;
                for id in ids {
                    let id = id.as_u64().ok_or_else(|| {
                        RadError::Store("logged delete has non-integer id".into())
                    })?;
                    docs.remove(collection, id);
                }
                Ok(())
            }
            other => Err(RadError::Store(format!(
                "unknown logged operation `{other}`"
            ))),
        }
    }

    /// Inserts `doc` into `collection` (created on first use), durably:
    /// the operation is in the log before the store ever sees it.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] if `doc` is not a JSON object, on
    /// filesystem failure, or on an injected crash.
    pub fn insert(&self, collection: &str, doc: Json) -> Result<DocumentId, RadError> {
        if !doc.is_object() {
            return Err(RadError::Store(format!(
                "documents must be JSON objects, got {doc}"
            )));
        }
        let mut log = self.log.lock();
        let id = log.docs.next_id;
        let op = json!({"op": "insert", "c": collection, "id": id, "doc": doc});
        log.wal.append(op.to_string().as_bytes())?;
        log.docs.insert(collection, id, doc);
        drop(log);
        self.after_op()?;
        Ok(DocumentId(id))
    }

    /// Inserts a whole batch of documents durably with **one** WAL
    /// frame, so replay applies the batch atomically — either every
    /// document of a frame recovers or none.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] if any document is not a JSON
    /// object, on filesystem failure, or on an injected crash. On
    /// error nothing is applied.
    pub fn insert_batch(
        &self,
        collection: &str,
        docs: Vec<Json>,
    ) -> Result<Vec<DocumentId>, RadError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(bad) = docs.iter().find(|d| !d.is_object()) {
            return Err(RadError::Store(format!(
                "documents must be JSON objects, got {bad}"
            )));
        }
        let mut log = self.log.lock();
        let first_id = log.docs.next_id;
        let op = json!({"op": "insert_batch", "c": collection, "first_id": first_id, "docs": docs});
        log.wal.append(op.to_string().as_bytes())?;
        let mut ids = Vec::with_capacity(docs.len());
        for (i, doc) in docs.into_iter().enumerate() {
            let id = first_id + i as u64;
            log.docs.insert(collection, id, doc);
            ids.push(DocumentId(id));
        }
        drop(log);
        self.after_op()?;
        Ok(ids)
    }

    /// Removes every document of `collection` durably, with one logged
    /// delete naming their ids, and returns how many were removed. An
    /// empty or missing collection logs nothing.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on filesystem failure or an
    /// injected crash.
    pub fn clear(&self, collection: &str) -> Result<usize, RadError> {
        let mut log = self.log.lock();
        let Log { wal, docs, .. } = &mut *log;
        let Some(victims) = docs
            .collections
            .get_mut(collection)
            .filter(|v| !v.is_empty())
        else {
            return Ok(0);
        };
        let ids: Vec<u64> = victims.keys().copied().collect();
        let op = json!({"op": "delete", "c": collection, "ids": ids});
        wal.append(op.to_string().as_bytes())?;
        victims.clear();
        drop(log);
        self.after_op()?;
        Ok(ids.len())
    }

    /// The documents of `collection` in insertion order (empty when it
    /// does not exist).
    pub fn documents(&self, collection: &str) -> Vec<Json> {
        let log = self.log.lock();
        log.docs
            .collections
            .get(collection)
            .map(|docs| docs.values().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of documents in `collection`.
    pub fn count(&self, collection: &str) -> usize {
        self.log
            .lock()
            .docs
            .collections
            .get(collection)
            .map_or(0, BTreeMap::len)
    }

    /// Appends `rows` to the trace stream, durably. The rows are
    /// logged as trace frames in the segment encoding — one frame per
    /// 16,384 rows, fewer rows where that would pass the WAL's record
    /// cap — before they join the stream, which holds each frame's
    /// body until the next checkpoint. An empty batch logs nothing.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on filesystem failure or an injected
    /// crash. The rows of frames logged before the failure stay
    /// appended; the rest are not.
    pub fn append_traces(&self, rows: &TraceBatch) -> Result<(), RadError> {
        if rows.is_empty() {
            return Ok(());
        }
        let mut log = self.log.lock();
        let mut start = 0;
        while start < rows.len() {
            let mut len = FRAME_ROWS.min(rows.len() - start);
            let payload = loop {
                let first = log.stream.len();
                let payload = if len == rows.len() {
                    trace_frame(first, rows)
                } else {
                    trace_frame(first, &rows.slice(start..start + len))
                };
                if payload.len() <= MAX_RECORD as usize || len == 1 {
                    break payload;
                }
                len = len.div_ceil(2);
            };
            log.wal.append(&payload)?;
            log.stream.hold(Arc::from(&payload[FRAME_HEADER..]), len);
            start += len;
        }
        drop(log);
        self.after_op()
    }

    /// Rows in the trace stream, sealed and unsealed.
    pub fn trace_rows(&self) -> u64 {
        self.log.lock().stream.len()
    }

    /// Reads the whole trace stream: the sealed segments in order,
    /// then the rows appended since the last checkpoint, decoded from
    /// the frames the store holds.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::SegmentCorrupt`] when a sealed segment has
    /// been damaged since the store opened, and [`RadError::Store`] on
    /// I/O failure.
    pub fn read_traces(&self) -> Result<TraceBatch, RadError> {
        let log = self.log.lock();
        let mut out = TraceBatch::with_capacity(log.stream.len() as usize);
        for (name, _) in &log.stream.sealed {
            out.append_owned(SegmentReader::open(&self.segments_dir().join(name))?.read_batch()?);
        }
        log.stream.decode_unsealed(&mut out)?;
        Ok(out)
    }

    fn after_op(&self) -> Result<(), RadError> {
        if let Some(every) = self.checkpoint_every_ops {
            let n = self.ops_since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1;
            if n >= every {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Flushes every buffered WAL append to disk.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on fsync failure or a poisoned log.
    pub fn sync(&self) -> Result<(), RadError> {
        self.log.lock().wal.sync()
    }

    /// Checkpoints the store: a seal plus a small manifest.
    ///
    /// 1. The WAL is synced.
    /// 2. The held trace frames are decoded and their rows sealed into
    ///    segment files through [`SegmentWriter`], which fsyncs
    ///    `segments/`.
    /// 3. `checkpoint.json` — `next_seq`, `next_id`, the documents, and
    ///    every sealed trace file with its row count — is written
    ///    atomically.
    /// 4. The held frames are released, the store directory is
    ///    fsynced, then the WAL restarts and retires the segments the
    ///    checkpoint covers.
    ///
    /// A crash before step 3 completes leaves the previous checkpoint
    /// in force: any new seals are unnamed, and their rows are still
    /// in the WAL.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on filesystem failure or an
    /// injected crash ([`CrashSite::MidCompaction`] /
    /// [`CrashSite::MidRename`] fire for each sealed file and for the
    /// manifest).
    ///
    /// [`CrashSite::MidCompaction`]: crate::wal::CrashSite::MidCompaction
    /// [`CrashSite::MidRename`]: crate::wal::CrashSite::MidRename
    pub fn checkpoint(&self) -> Result<(), RadError> {
        let mut log = self.log.lock();
        let Log { wal, stream, docs } = &mut *log;
        wal.sync()?;
        let mut sealed = stream.sealed.clone();
        if !stream.unsealed.is_empty() {
            let mut unsealed = TraceBatch::with_capacity(stream.unsealed_rows as usize);
            stream.decode_unsealed(&mut unsealed)?;
            let mut writer =
                SegmentWriter::create(&self.segments_dir(), SegmentOptions::default())?
                    .with_injector(self.injector.as_ref());
            for path in writer.seal_traces(&unsealed)? {
                let rows = SegmentReader::open(&path)?.rows();
                let name = path.file_name().unwrap_or_default().to_string_lossy();
                sealed.push((name.into_owned(), rows));
            }
        }
        let mut cols = serde_json::Map::new();
        for (name, collection) in &docs.collections {
            let pairs: Vec<Json> = collection.iter().map(|(id, d)| json!([id, d])).collect();
            cols.insert(name.clone(), Json::Array(pairs));
        }
        let traces: Vec<Json> = sealed
            .iter()
            .map(|(file, rows)| json!({"file": file, "rows": rows}))
            .collect();
        let manifest = json!({
            "next_seq": (wal.next_seq()),
            "next_id": (docs.next_id),
            "collections": (Json::Object(cols)),
            "traces": traces,
        });
        atomic_write_file(
            &self.dir.join(CHECKPOINT_FILE),
            manifest.to_string().as_bytes(),
            self.injector.as_ref(),
        )?;
        *stream = TraceStream {
            sealed,
            ..TraceStream::default()
        };
        sync_dir(&self.dir)?;
        wal.reset_after_checkpoint()?;
        self.ops_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// The directory checkpoints seal trace segments into.
    pub fn segments_dir(&self) -> PathBuf {
        self.dir.join(SEGMENTS_DIR)
    }

    /// The sealed part of the trace stream as a queryable
    /// [`SegmentSet`]: exactly the files the live checkpoint names, so
    /// no row appears twice (empty before the first checkpoint).
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on I/O failure.
    pub fn segments(&self) -> Result<SegmentSet, RadError> {
        let names: Vec<String> = self
            .log
            .lock()
            .stream
            .sealed
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        SegmentSet::open_named(&self.segments_dir(), names)
    }

    /// The crash injector, when a [`CrashPlan`] was configured.
    pub fn injector(&self) -> Option<&CrashInjector> {
        self.injector.as_ref()
    }

    /// The directory holding the log and checkpoint.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// A trace frame's payload: the tag, the stream position of the first
/// row, then the body — the rows' segment image.
fn trace_frame(first: u64, rows: &TraceBatch) -> Vec<u8> {
    let mut payload = Vec::with_capacity(FRAME_HEADER + 64 * rows.len());
    payload.push(TRACE_FRAME);
    payload.extend_from_slice(&first.to_le_bytes());
    write_trace_segment(&mut payload, rows);
    payload
}

/// Decodes a trace frame's body, checking every column's CRC.
fn decode_frame_body(body: Arc<[u8]>) -> Result<TraceBatch, RadError> {
    SegmentReader::from_bytes("wal trace frame", body)?.read_batch()
}

/// Renames every `.seg` file in `dir` that the checkpoint does not name
/// to `*.uncommitted`, unread, and reports it.
fn set_aside_uncommitted(
    dir: &Path,
    named: &[(String, u64)],
    report: &mut RecoveryReport,
) -> Result<(), RadError> {
    let named: HashSet<&str> = named.iter().map(|(name, _)| name.as_str()).collect();
    for name in segment_file_names(dir)? {
        if named.contains(name.as_str()) {
            continue;
        }
        let path = dir.join(&name);
        fs::rename(&path, path.with_file_name(format!("{name}.uncommitted")))
            .map_err(|e| RadError::Store(format!("setting aside segment {name}: {e}")))?;
        report.segments_set_aside.push(name);
    }
    Ok(())
}

/// Checks the named segments in order and returns the stream of those
/// before the first that is missing or fails a check. That one and all
/// after it are quarantined, and their rows counted as dropped.
fn load_sealed(
    dir: &Path,
    named: Vec<(String, u64)>,
    report: &mut RecoveryReport,
) -> Result<TraceStream, RadError> {
    let mut stream = TraceStream::default();
    let mut named = named.into_iter();
    for (name, rows) in named.by_ref() {
        let path = dir.join(&name);
        match check_sealed(&path, rows) {
            Ok(()) => stream.sealed.push((name, rows)),
            Err(err @ RadError::SegmentCorrupt { .. }) => {
                report
                    .segments_quarantined
                    .push(quarantine_file(&path, err)?);
                report.trace_rows_dropped += rows;
                break;
            }
            Err(other) => return Err(other),
        }
    }
    for (name, rows) in named {
        let path = dir.join(&name);
        let err = RadError::SegmentCorrupt {
            segment: name,
            offset: 0,
            reason: "follows a damaged segment".into(),
        };
        report
            .segments_quarantined
            .push(quarantine_file(&path, err)?);
        report.trace_rows_dropped += rows;
    }
    Ok(stream)
}

/// Whether the sealed file at `path` is present, holds `rows` trace
/// rows, and passes every CRC. Damage is a [`RadError::SegmentCorrupt`].
fn check_sealed(path: &Path, rows: u64) -> Result<(), RadError> {
    let damage = |reason: String| RadError::SegmentCorrupt {
        segment: path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into(),
        offset: 0,
        reason,
    };
    if !path.exists() {
        return Err(damage("named by the checkpoint but missing".into()));
    }
    let mut reader = SegmentReader::open(path)?;
    if reader.rows() != rows {
        return Err(damage(format!(
            "holds {} rows, the checkpoint names {rows}",
            reader.rows()
        )));
    }
    reader.verify()
}

/// The declarative form of [`DurableOptions`] — the `durable` section
/// of a scenario document:
///
/// ```json
/// {
///   "segment_bytes": 262144,
///   "sync_every": 64,
///   "checkpoint_every_ops": 512,
///   "crash": {"at": {"site": "pre-fsync", "occurrence": 3}}
/// }
/// ```
///
/// Every field is optional; absent sizing fields take the
/// [`WalOptions::default`] values, and an absent `crash` section means
/// no crash injection.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableSpec {
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Fsync after this many appends.
    pub sync_every: u64,
    /// Automatic checkpoint cadence (`None` = explicit only).
    pub checkpoint_every_ops: Option<u64>,
    /// Seeded crash schedule, if any.
    pub crash: Option<crate::wal::CrashSpec>,
}

impl DurableSpec {
    const FIELDS: &'static [&'static str] = &[
        "segment_bytes",
        "sync_every",
        "checkpoint_every_ops",
        "crash",
    ];

    /// Captures existing hand-wired options as a spec.
    pub fn from_options(options: &DurableOptions) -> Self {
        DurableSpec {
            segment_bytes: options.wal.segment_bytes,
            sync_every: options.wal.sync_every,
            checkpoint_every_ops: options.checkpoint_every_ops,
            crash: options
                .crash_plan
                .as_ref()
                .map(crate::wal::CrashSpec::from_plan),
        }
    }

    /// Builds the [`DurableOptions`] this spec describes.
    pub fn to_options(&self) -> DurableOptions {
        DurableOptions {
            wal: WalOptions {
                segment_bytes: self.segment_bytes,
                sync_every: self.sync_every,
            },
            checkpoint_every_ops: self.checkpoint_every_ops,
            crash_plan: self.crash.as_ref().map(crate::wal::CrashSpec::to_plan),
        }
    }

    /// Parses the `durable` section of a scenario document. `ctx` is
    /// the dotted path of `value` for error messages.
    ///
    /// # Errors
    ///
    /// [`RadError::Spec`] on unknown fields, ill-typed values, or a
    /// zero `sync_every`.
    pub fn from_json(value: &Json, ctx: &str) -> Result<Self, RadError> {
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, Self::FIELDS)?;
        let defaults = WalOptions::default();
        let parsed = DurableSpec {
            segment_bytes: spec::opt_u64(map, ctx, "segment_bytes")?
                .unwrap_or(defaults.segment_bytes),
            sync_every: spec::opt_u64(map, ctx, "sync_every")?.unwrap_or(defaults.sync_every),
            checkpoint_every_ops: spec::opt_u64(map, ctx, "checkpoint_every_ops")?,
            crash: match map.get("crash") {
                None | Some(Json::Null) => None,
                Some(v) => Some(crate::wal::CrashSpec::from_json(
                    v,
                    &spec::path(ctx, "crash"),
                )?),
            },
        };
        if parsed.sync_every == 0 {
            return Err(RadError::spec(
                spec::path(ctx, "sync_every"),
                "must be at least 1",
            ));
        }
        Ok(parsed)
    }

    /// Serializes the spec back to its JSON form. Optional sections are
    /// omitted when absent.
    pub fn to_json(&self) -> Json {
        let mut map = serde_json::Map::new();
        map.insert("segment_bytes".into(), Json::from(self.segment_bytes));
        map.insert("sync_every".into(), Json::from(self.sync_every));
        if let Some(every) = self.checkpoint_every_ops {
            map.insert("checkpoint_every_ops".into(), Json::from(every));
        }
        if let Some(crash) = &self.crash {
            map.insert("crash".into(), crash.to_json());
        }
        Json::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::CrashSite;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rad-durable-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn options() -> DurableOptions {
        DurableOptions {
            wal: WalOptions {
                segment_bytes: 4096,
                sync_every: 1,
            },
            ..DurableOptions::default()
        }
    }

    #[test]
    fn inserts_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let (store, report) = DurableStore::open(&dir, options()).unwrap();
            assert!(report.is_clean());
            for i in 0..20 {
                store.insert("t", json!({"i": i})).unwrap();
            }
            store.sync().unwrap();
        }
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(store.count("t"), 20);
        assert_eq!(report.records_replayed, 20);
        assert_eq!(store.documents("t")[7], json!({"i": 7}));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_inserts_replay_from_one_frame() {
        let dir = tmpdir("batch");
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            let docs: Vec<Json> = (0..50).map(|i| json!({"i": i})).collect();
            let ids = store.insert_batch("t", docs).unwrap();
            assert_eq!(ids.len(), 50);
            assert_eq!(ids[0], DocumentId(0));
            assert_eq!(ids[49], DocumentId(49));
            store.sync().unwrap();
        }
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(store.count("t"), 50);
        assert_eq!(report.records_replayed, 1, "one WAL frame per batch");
        let next = store.insert("t", json!({"i": 50})).unwrap();
        assert_eq!(next, DocumentId(50), "id sequence resumes after the batch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_insert_rejects_non_objects_atomically() {
        let dir = tmpdir("batchbad");
        let (store, _) = DurableStore::open(&dir, options()).unwrap();
        let err = store
            .insert_batch("t", vec![json!({"ok": 1}), json!(42)])
            .unwrap_err();
        assert!(err.to_string().contains("JSON objects"));
        assert!(store.insert("t", json!([1, 2])).is_err());
        assert_eq!(store.count("t"), 0, "nothing applied on error");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deletes_replay_too() {
        let dir = tmpdir("delete");
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            for i in 0..10 {
                store.insert("t", json!({"i": i})).unwrap();
            }
            store.insert("u", json!({"i": 10})).unwrap();
            assert_eq!(store.clear("t").unwrap(), 10);
            assert_eq!(store.clear("t").unwrap(), 0, "nothing left to clear");
            assert_eq!(store.clear("missing").unwrap(), 0);
            store.sync().unwrap();
        }
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(report.records_replayed, 12, "one delete, no empty ones");
        assert_eq!(store.count("t"), 0);
        assert!(store.documents("t").is_empty());
        assert_eq!(store.documents("u"), [json!({"i": 10})]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ids_are_stable_across_recovery() {
        let dir = tmpdir("ids");
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            for i in 0..12 {
                let id = store.insert("t", json!({"i": i})).unwrap();
                assert_eq!(id, DocumentId(i), "ids count up from zero");
            }
            store.sync().unwrap();
        }
        let (store, _) = DurableStore::open(&dir, options()).unwrap();
        let next = store.insert("t", json!({"i": 12})).unwrap();
        assert_eq!(next, DocumentId(12), "the id sequence resumes exactly");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let dir = tmpdir("checkpoint");
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            for i in 0..30 {
                store.insert("t", json!({"i": i})).unwrap();
            }
            store.checkpoint().unwrap();
            for i in 30..35 {
                store.insert("t", json!({"i": i})).unwrap();
            }
            store.sync().unwrap();
        }
        assert!(dir.join(CHECKPOINT_FILE).exists());
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(store.count("t"), 35);
        assert_eq!(
            report.records_replayed, 5,
            "only the post-checkpoint suffix"
        );
        assert!(report.checkpoint_next_seq >= 30);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpoint_triggers_on_op_count() {
        let dir = tmpdir("auto");
        let opts = DurableOptions {
            checkpoint_every_ops: Some(10),
            ..options()
        };
        let (store, _) = DurableStore::open(&dir, opts).unwrap();
        for i in 0..25 {
            store.insert("t", json!({"i": i})).unwrap();
        }
        assert!(dir.join(CHECKPOINT_FILE).exists());
        drop(store);
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(store.count("t"), 25);
        assert!(report.records_replayed < 25, "checkpoint absorbed a prefix");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_not_fatal() {
        let dir = tmpdir("badckpt");
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            for i in 0..8 {
                store.insert("t", json!({"i": i})).unwrap();
            }
            store.checkpoint().unwrap();
            store.insert("t", json!({"i": 8})).unwrap();
            store.sync().unwrap();
        }
        fs::write(dir.join(CHECKPOINT_FILE), b"{ not json").unwrap();
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert!(report.checkpoint_quarantined);
        assert!(dir.join(format!("{CHECKPOINT_FILE}.quarantined")).exists());
        // The checkpointed prefix is gone with the checkpoint (its WAL
        // segments were retired), but the suffix still replays and the
        // store opens: damage is contained, not fatal.
        assert_eq!(store.count("t"), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_quarantined_checkpoint_applies_none_of_its_documents() {
        let dir = tmpdir("ckptleak");
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            store.insert("a", json!({"n": 0})).unwrap();
            store.insert("a", json!({"n": 1})).unwrap();
            store.insert("b", json!({"n": 2})).unwrap();
            store.checkpoint().unwrap();
            store.insert("c", json!({"n": 3})).unwrap();
            store.sync().unwrap();
        }
        // `b` is parsed after `a`; its id turns invalid only there.
        let path = dir.join(CHECKPOINT_FILE);
        let manifest = fs::read_to_string(&path).unwrap();
        let damaged = manifest.replace(r#""b":[[2,"#, r#""b":[[-1,"#);
        assert_ne!(damaged, manifest);
        fs::write(&path, damaged).unwrap();
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert!(report.checkpoint_quarantined);
        assert_eq!(
            (store.count("a"), store.count("b"), store.count("c")),
            (0, 0, 1),
            "recovery continues from the WAL alone"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_compaction_preserves_previous_checkpoint() {
        let dir = tmpdir("midcompact");
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            for i in 0..10 {
                store.insert("t", json!({"i": i})).unwrap();
            }
            store.checkpoint().unwrap();
        }
        let old_bytes = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        {
            let opts = DurableOptions {
                crash_plan: Some(CrashPlan::at(CrashSite::MidCompaction, 0)),
                ..options()
            };
            let (store, _) = DurableStore::open(&dir, opts).unwrap();
            for i in 10..15 {
                store.insert("t", json!({"i": i})).unwrap();
            }
            let err = store.checkpoint().unwrap_err();
            assert!(err.to_string().contains("injected crash"));
        }
        assert_eq!(
            fs::read(dir.join(CHECKPOINT_FILE)).unwrap(),
            old_bytes,
            "the old checkpoint is untouched"
        );
        let (store, _) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(store.count("t"), 15, "WAL suffix covers the new inserts");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_pre_fsync_loses_only_unsynced_tail() {
        let dir = tmpdir("prefsync");
        let opts = DurableOptions {
            wal: WalOptions {
                segment_bytes: 1 << 20,
                sync_every: 4,
            },
            checkpoint_every_ops: None,
            crash_plan: Some(CrashPlan::at(CrashSite::PreFsync, 9)),
        };
        let (store, _) = DurableStore::open(&dir, opts).unwrap();
        let mut applied = 0;
        for i in 0..20 {
            match store.insert("t", json!({"i": i})) {
                Ok(_) => applied += 1,
                Err(e) => {
                    assert!(e.to_string().contains("injected crash"));
                    break;
                }
            }
        }
        assert_eq!(applied, 9);
        assert!(
            store.insert("t", json!({})).is_err(),
            "poisoned after crash"
        );
        drop(store);
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(store.count("t"), 8, "two batches of four were synced");
        assert!(report.records_replayed <= applied, "nothing invented");
        let _ = fs::remove_dir_all(&dir);
    }

    fn sample_batch(n: u64) -> TraceBatch {
        use rad_core::{Command, CommandType, DeviceId, SimInstant, TraceId, TraceObject};
        let traces: Vec<TraceObject> = (0..n)
            .map(|i| {
                let ct = CommandType::from_token_id(i as usize % CommandType::all().len()).unwrap();
                TraceObject::builder(
                    TraceId(i),
                    SimInstant::from_micros(i * 100),
                    DeviceId::primary(ct.device()),
                    Command::new(ct, vec![]),
                )
                .build()
            })
            .collect();
        TraceBatch::from_traces(&traces)
    }

    #[test]
    fn sealed_stream_survives_reopen_with_nothing_replayed() {
        let dir = tmpdir("seal");
        let rows = sample_batch(40);
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            store.append_traces(&rows).unwrap();
            store.checkpoint().unwrap();
            assert_eq!(store.segments().unwrap().len(), 1);
        }
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.records_replayed, 0, "the seal absorbed everything");
        assert_eq!(store.trace_rows(), 40);
        let set = store.segments().unwrap();
        assert_eq!(set.trace_rows(), 40);
        assert_eq!(set.read_all().unwrap().into_batch(), rows);
        assert_eq!(store.read_traces().unwrap(), rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_seal_leaves_its_rows_in_the_wal_and_no_scanned_segment() {
        let dir = tmpdir("sealcrash");
        let rows = sample_batch(30);
        let opts = DurableOptions {
            crash_plan: Some(CrashPlan::at(CrashSite::MidRename, 0)),
            ..options()
        };
        let (store, _) = DurableStore::open(&dir, opts).unwrap();
        store.append_traces(&rows).unwrap();
        let err = store.checkpoint().unwrap_err();
        assert!(err.to_string().contains("injected crash"));
        assert!(store.segments().unwrap().is_empty(), "no live segment");
        drop(store);
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(report.records_replayed, 1, "the rows replay from the WAL");
        assert!(store.segments().unwrap().is_empty());
        assert_eq!(store.read_traces().unwrap(), rows);
        // A clean checkpoint then seals them exactly once.
        store.checkpoint().unwrap();
        assert_eq!(
            store.segments().unwrap().read_all().unwrap().into_batch(),
            rows
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_seals_are_set_aside_unread() {
        let dir = tmpdir("setaside");
        let rows = sample_batch(30);
        let opts = DurableOptions {
            // Visit 0 renames the sealed segment; visit 1 would rename
            // `checkpoint.json`, naming it.
            crash_plan: Some(CrashPlan::at(CrashSite::MidRename, 1)),
            ..options()
        };
        let (store, _) = DurableStore::open(&dir, opts).unwrap();
        store.append_traces(&rows).unwrap();
        assert!(store.checkpoint().is_err());
        drop(store);
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(report.segments_set_aside, ["trace-all-000000.seg"]);
        assert!(dir
            .join("segments/trace-all-000000.seg.uncommitted")
            .exists());
        assert_eq!(store.read_traces().unwrap(), rows, "every row exactly once");
        store.checkpoint().unwrap();
        let set = store.segments().unwrap();
        assert_eq!(set.trace_rows(), 30, "the new seal does not reuse the name");
        drop(store);
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(store.read_traces().unwrap(), rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_checkpoint_seals_only_the_new_rows() {
        let dir = tmpdir("sealincr");
        let rows = sample_batch(50);
        let (store, _) = DurableStore::open(&dir, options()).unwrap();
        store.append_traces(&rows.slice(0..40)).unwrap();
        store.checkpoint().unwrap();
        // Checkpointing with nothing new seals nothing.
        store.checkpoint().unwrap();
        assert_eq!(store.segments().unwrap().len(), 1);
        store.append_traces(&rows.slice(40..50)).unwrap();
        store.checkpoint().unwrap();
        let set = store.segments().unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.read_all().unwrap().into_batch(), rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_sealed_segment_ends_the_prefix() {
        let dir = tmpdir("sealdamage");
        let rows = sample_batch(25);
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            store.append_traces(&rows.slice(0..10)).unwrap();
            store.checkpoint().unwrap();
            store.append_traces(&rows.slice(10..20)).unwrap();
            store.checkpoint().unwrap();
            store.append_traces(&rows.slice(20..25)).unwrap();
            store.sync().unwrap();
        }
        // Flip a byte of the second segment's first column.
        let second = dir.join("segments/trace-all-000001.seg");
        let mut bytes = fs::read(&second).unwrap();
        bytes[0] ^= 0x40;
        fs::write(&second, bytes).unwrap();

        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(report.segments_quarantined.len(), 1);
        assert_eq!(report.trace_frames_skipped, 1, "the frame at row 20");
        assert_eq!(report.trace_rows_dropped, 15);
        assert_eq!(store.read_traces().unwrap(), rows.slice(0..10));
        drop(store);

        // A missing first segment takes every later one with it.
        fs::remove_file(dir.join("segments/trace-all-000000.seg")).unwrap();
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(store.trace_rows(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_appends_split_into_frames_under_the_record_cap() {
        let dir = tmpdir("split");
        let rows = sample_batch(FRAME_ROWS as u64 + 3);
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            store.append_traces(&TraceBatch::new()).unwrap();
            store.append_traces(&rows).unwrap();
            store.sync().unwrap();
        }
        let (store, report) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(
            report.records_replayed, 2,
            "two frames, none for the empty batch"
        );
        assert_eq!(store.read_traces().unwrap(), rows);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The bodies of the trace frames in the WAL under `dir`, in order.
    fn wal_frame_bodies(dir: &Path) -> Vec<Vec<u8>> {
        let (_wal, records, _) = Wal::open(dir, WalOptions::default(), None).unwrap();
        records
            .into_iter()
            .filter(|r| r.payload.first() == Some(&TRACE_FRAME))
            .map(|r| r.payload[FRAME_HEADER..].to_vec())
            .collect()
    }

    fn held_frames(store: &DurableStore) -> Vec<Vec<u8>> {
        let log = store.log.lock();
        log.stream.unsealed.iter().map(|b| b.to_vec()).collect()
    }

    #[test]
    fn unsealed_rows_are_held_as_the_wal_frame_bodies_until_checkpoint() {
        let dir = tmpdir("held");
        let rows = sample_batch(60);
        let held = {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            store.append_traces(&rows.slice(0..25)).unwrap();
            store.insert("gaps", json!({"n": 1})).unwrap();
            store.append_traces(&rows.slice(25..60)).unwrap();
            store.sync().unwrap();
            held_frames(&store)
        };
        let logged = wal_frame_bodies(&dir);
        assert_eq!(logged.len(), 2, "one frame per append");
        assert_eq!(held, logged, "appends hold the logged bytes");

        let (store, _) = DurableStore::open(&dir, options()).unwrap();
        assert_eq!(held_frames(&store), logged, "replay holds them too");
        assert_eq!(store.log.lock().stream.unsealed_rows, 60);
        assert_eq!(store.read_traces().unwrap(), rows);

        store.checkpoint().unwrap();
        {
            let log = store.log.lock();
            assert_eq!(log.stream.unsealed.capacity(), 0, "released, not cleared");
            assert_eq!(log.stream.unsealed_rows, 0);
        }
        assert_eq!(store.trace_rows(), 60);
        assert_eq!(store.read_traces().unwrap(), rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_naming_a_file_outside_segments_is_quarantined() {
        let dir = tmpdir("escape");
        {
            let (store, _) = DurableStore::open(&dir, options()).unwrap();
            store.append_traces(&sample_batch(3)).unwrap();
            store.checkpoint().unwrap();
        }
        let outside = dir.join("outside.seg");
        fs::write(&outside, b"not a segment").unwrap();
        let manifest = fs::read_to_string(dir.join(CHECKPOINT_FILE))
            .unwrap()
            .replace("trace-all-000000.seg", "../outside.seg");
        fs::write(dir.join(CHECKPOINT_FILE), manifest).unwrap();
        let (_store, report) = DurableStore::open(&dir, options()).unwrap();
        assert!(report.checkpoint_quarantined);
        assert!(
            outside.exists(),
            "recovery renames nothing outside segments/"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_record_tag_is_a_typed_error() {
        let dir = tmpdir("badtag");
        {
            let (mut wal, _, _) = Wal::open(&dir, WalOptions::default(), None).unwrap();
            wal.append(b"Xnot a record").unwrap();
        }
        let err = DurableStore::open(&dir, options()).unwrap_err();
        assert!(
            err.to_string().contains("unknown logged record tag 0x58"),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
