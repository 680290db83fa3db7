//! Immutable columnar segments: the sealed on-disk form of the trace
//! plane.
//!
//! A *segment* is one file holding the columns of a [`TraceBatch`],
//! each column independently encoded and CRC-protected, followed by a
//! footer with per-column offsets and min/max *zone maps* over
//! `(device, procedure, run_id, timestamp)`. Segments are immutable
//! once sealed:
//! [`SegmentWriter`] splits a batch by row count and writes each part
//! through the same atomic temp-file + fsync + rename path the WAL
//! checkpoints use, so a crash never leaves a half segment under a
//! live name.
//!
//! Reading is lazy. [`SegmentReader`] loads the footer eagerly (a few
//! hundred bytes) and fetches column payloads on demand with
//! positioned reads, so a query that only filters on `device` and
//! `timestamp` never touches the argument arena or return-value
//! columns — the bounded-memory property an mmap gives, without the
//! `unsafe` an mmap crate would need under this crate's
//! `#![forbid(unsafe_code)]`.
//!
//! [`SegmentSet`] is the query layer over a directory of segments:
//! zone maps prune whole segments before any column is read, surviving
//! segments decode in parallel (crossbeam scoped threads, gated by
//! [`rad_core::par::should_fan_out`]), and results stream out as
//! [`TraceBatch`] chunks through the [`TraceSource`] trait. A segment
//! that fails its CRC is quarantined (renamed `*.quarantined`) and
//! reported — a multi-segment scan never aborts on one bad file,
//! mirroring WAL recovery.
//!
//! # File format
//!
//! ```text
//! ┌────────────────────────────────┐
//! │ column 0 payload               │  per-column encoding, see below
//! │ column 1 payload               │
//! │ ...                            │
//! ├────────────────────────────────┤
//! │ footer                         │  kind (always 0), rows, zone
//! │                                │  map, per-column (name,
//! │                                │  encoding, offset, len, crc32)
//! ├────────────────────────────────┤
//! │ footer_len: u32 LE             │
//! │ footer_crc: u32 LE             │
//! │ magic: b"RSG1"                 │
//! └────────────────────────────────┘
//! ```
//!
//! The same bytes held in memory are the body of a durable store's
//! WAL trace frames: [`trace_segment_bytes`] writes them through the
//! writer's code path and [`SegmentReader::from_bytes`] reads them
//! through the file reader's decoders.
//!
//! Trace column encodings: timestamps / ids / response times /
//! argument offsets are delta-varints (zigzag deltas over the previous
//! value), device ids are dictionary-coded, command tokens reuse the
//! dense `u16` token ids as plain varints, modes / procedures / labels
//! are one byte per row, exceptions are sparse `(delta row, message)`
//! pairs, and argument / return values use a tagged binary codec.
//!
//! The footer's leading kind byte is always 0, the trace kind. Power
//! telemetry is published as per-recording CSV, never sealed here, so
//! a footer naming any other kind fails to open as
//! [`RadError::SegmentCorrupt`] and is quarantined like any damage.
//!
//! # Examples
//!
//! ```no_run
//! use rad_core::{DeviceKind, TraceBatch};
//! use rad_store::segment::{SegmentOptions, SegmentSet, SegmentWriter, TraceQuery};
//!
//! let dir = std::path::Path::new("/tmp/segments");
//! let mut writer = SegmentWriter::create(dir, SegmentOptions::default())?;
//! writer.seal_traces(&TraceBatch::new())?;
//! let set = SegmentSet::open(dir)?;
//! let scan = set.query(&TraceQuery::new().device(DeviceKind::C9))?;
//! assert_eq!(scan.pruned() + scan.scanned(), 0);
//! # Ok::<(), rad_core::RadError>(())
//! ```

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rad_core::{
    DeviceId, DeviceKind, Label, ProcedureKind, RadError, RunId, TraceBatch, TraceColumns,
    TraceMode, TraceSource,
};

use crate::wal::{atomic_write_stream, crc32, sync_dir, CrashInjector, QuarantinedSegment};

pub mod codec;

use codec::ByteReader;

/// File-name extension of sealed segments.
pub const SEGMENT_EXT: &str = "seg";

/// Trailing magic of every segment file.
const MAGIC: &[u8; 4] = b"RSG1";

/// Fixed trailer size: footer length + footer CRC + magic.
const TRAILER_LEN: u64 = 12;

/// Minimum encoded bytes per worker before a scan fans out over
/// scoped threads. Decoding runs at hundreds of MB/s per core, so
/// below ~1 MiB the spawn/join overhead eats the win.
const MIN_SCAN_BYTES_PER_THREAD: usize = 1 << 20;

/// The footer's leading kind byte: every segment holds traces.
const TRACE_KIND: u8 = 0;

/// Fixed enum tables used by the one-byte columns. Decode validates
/// against these, so a corrupted byte becomes a typed error instead of
/// a bogus row.
const MODES: [TraceMode; 3] = [TraceMode::Direct, TraceMode::Remote, TraceMode::Cloud];
const PROCS: [ProcedureKind; 7] = [
    ProcedureKind::AutomatedSolubilityN9,
    ProcedureKind::AutomatedSolubilityN9Ur3e,
    ProcedureKind::CrystalSolubility,
    ProcedureKind::JoystickMovements,
    ProcedureKind::VelocitySweep,
    ProcedureKind::PayloadSweep,
    ProcedureKind::Unknown,
];
const LABELS: [Label; 5] = [
    Label::Benign,
    Label::Unknown,
    Label::Anomalous(rad_core::AnomalyCause::QuantosDoorVsN9),
    Label::Anomalous(rad_core::AnomalyCause::QuantosDoorVsUr3e),
    Label::Anomalous(rad_core::AnomalyCause::ArmVsTecan),
];

fn code_of<T: PartialEq + Copy>(table: &[T], v: T) -> u8 {
    table
        .iter()
        .position(|t| *t == v)
        .expect("enum table covers every variant") as u8
}

fn from_code<T: Copy>(table: &[T], code: u8, what: &str) -> Result<T, String> {
    table
        .get(code as usize)
        .copied()
        .ok_or_else(|| format!("invalid {what} code {code}"))
}

fn device_kind_index(kind: DeviceKind) -> u8 {
    code_of(&DeviceKind::all(), kind)
}

fn device_kind_from_index(idx: u8) -> Result<DeviceKind, String> {
    from_code(&DeviceKind::all(), idx, "device kind")
}

// ---------------------------------------------------------------------------
// Zone maps

/// Min/max statistics of one segment, read from the footer without
/// touching any column payload. A [`TraceQuery`] whose predicates
/// cannot intersect these bounds skips the segment entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// Smallest timestamp in the segment, in microseconds.
    pub ts_min: u64,
    /// Largest timestamp in the segment, in microseconds.
    pub ts_max: u64,
    /// Bit `i` set iff some row targets `DeviceKind::all()[i]`.
    pub device_mask: u32,
    /// Bit `i` set iff some row belongs to the `i`-th procedure (in
    /// the fixed footer table order P1..P6, unknown).
    pub procedure_mask: u32,
    /// Smallest run id among rows with one (0 when none have one).
    pub run_min: u32,
    /// Largest run id among rows with one (0 when none have one).
    pub run_max: u32,
    /// Whether any row carries a run id.
    pub has_runs: bool,
    /// Whether any row carries *no* run id.
    pub has_unassigned: bool,
}

impl ZoneMap {
    fn for_traces(batch: &TraceBatch) -> ZoneMap {
        let mut zone = ZoneMap {
            ts_min: u64::MAX,
            ts_max: 0,
            device_mask: 0,
            procedure_mask: 0,
            run_min: u32::MAX,
            run_max: 0,
            has_runs: false,
            has_unassigned: false,
        };
        for &ts in batch.timestamps_us() {
            zone.ts_min = zone.ts_min.min(ts);
            zone.ts_max = zone.ts_max.max(ts);
        }
        for d in batch.devices() {
            zone.device_mask |= 1 << device_kind_index(d.kind());
        }
        for &p in batch.procedures() {
            zone.procedure_mask |= 1 << code_of(&PROCS, p);
        }
        for r in batch.run_ids() {
            match r {
                Some(run) => {
                    zone.has_runs = true;
                    zone.run_min = zone.run_min.min(run.0);
                    zone.run_max = zone.run_max.max(run.0);
                }
                None => zone.has_unassigned = true,
            }
        }
        if batch.is_empty() {
            zone.ts_min = 0;
        }
        if !zone.has_runs {
            zone.run_min = 0;
        }
        zone
    }

    /// Whether a segment with these bounds could hold rows matching
    /// `query`. `false` means the segment is safe to skip unread.
    pub fn admits(&self, query: &TraceQuery) -> bool {
        if let Some(d) = query.device {
            if self.device_mask & (1 << device_kind_index(d)) == 0 {
                return false;
            }
        }
        if let Some(p) = query.procedure {
            if self.procedure_mask & (1 << code_of(&PROCS, p)) == 0 {
                return false;
            }
        }
        if let Some(r) = query.run_id {
            if !self.has_runs || r.0 < self.run_min || r.0 > self.run_max {
                return false;
            }
        }
        if let Some(lo) = query.ts_min {
            if self.ts_max < lo {
                return false;
            }
        }
        if let Some(hi) = query.ts_max {
            if self.ts_min > hi {
                return false;
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Queries

/// A conjunctive predicate over trace rows, pushed down into the
/// segment scan: zone maps prune whole segments, then only the columns
/// the predicates touch are decoded to select rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceQuery {
    device: Option<DeviceKind>,
    procedure: Option<ProcedureKind>,
    run_id: Option<RunId>,
    ts_min: Option<u64>,
    ts_max: Option<u64>,
}

impl TraceQuery {
    /// A query with no predicates (matches every row).
    pub fn new() -> Self {
        TraceQuery::default()
    }

    /// Keep only rows targeting `device`.
    #[must_use]
    pub fn device(mut self, device: DeviceKind) -> Self {
        self.device = Some(device);
        self
    }

    /// Keep only rows of `procedure`.
    #[must_use]
    pub fn procedure(mut self, procedure: ProcedureKind) -> Self {
        self.procedure = Some(procedure);
        self
    }

    /// Keep only rows of supervised run `run_id`.
    #[must_use]
    pub fn run(mut self, run_id: RunId) -> Self {
        self.run_id = Some(run_id);
        self
    }

    /// Keep only rows with `ts_min <= timestamp_us <= ts_max`.
    #[must_use]
    pub fn time_range(mut self, ts_min_us: u64, ts_max_us: u64) -> Self {
        self.ts_min = Some(ts_min_us);
        self.ts_max = Some(ts_max_us);
        self
    }

    /// Whether the query has no predicates at all.
    pub fn is_unfiltered(&self) -> bool {
        *self == TraceQuery::default()
    }

    /// Evaluates the predicates against one in-memory batch — the
    /// reference semantics the segment scan must agree with.
    pub fn matching_rows(&self, batch: &TraceBatch) -> Vec<usize> {
        let devices = batch.devices();
        let procedures = batch.procedures();
        let run_ids = batch.run_ids();
        let timestamps = batch.timestamps_us();
        (0..batch.len())
            .filter(|&i| {
                self.device.is_none_or(|d| devices[i].kind() == d)
                    && self.procedure.is_none_or(|p| procedures[i] == p)
                    && self.run_id.is_none_or(|r| run_ids[i] == Some(r))
                    && self.ts_min.is_none_or(|lo| timestamps[i] >= lo)
                    && self.ts_max.is_none_or(|hi| timestamps[i] <= hi)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Footer

#[derive(Debug, Clone)]
struct ColumnMeta {
    name: String,
    encoding: u8,
    offset: u64,
    len: u64,
    crc: u32,
}

#[derive(Debug, Clone)]
struct Footer {
    rows: u64,
    zone: ZoneMap,
    columns: Vec<ColumnMeta>,
}

/// Column encodings, recorded per column so decode can verify it is
/// reading what the writer wrote.
mod enc {
    pub const DELTA_VARINT: u8 = 0;
    pub const VARINT: u8 = 1;
    pub const DEVICE_DICT: u8 = 2;
    pub const BYTE: u8 = 3;
    pub const VALUES: u8 = 4;
    pub const EXCEPTIONS: u8 = 5;
    pub const OPTIONAL_RUN: u8 = 6;
}

impl Footer {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.columns.len() * 24);
        out.push(TRACE_KIND);
        codec::write_varint(&mut out, self.rows);
        codec::write_varint(&mut out, self.zone.ts_min);
        codec::write_varint(&mut out, self.zone.ts_max);
        codec::write_varint(&mut out, u64::from(self.zone.device_mask));
        codec::write_varint(&mut out, u64::from(self.zone.procedure_mask));
        out.push(u8::from(self.zone.has_runs) | (u8::from(self.zone.has_unassigned) << 1));
        codec::write_varint(&mut out, u64::from(self.zone.run_min));
        codec::write_varint(&mut out, u64::from(self.zone.run_max));
        codec::write_varint(&mut out, self.columns.len() as u64);
        for col in &self.columns {
            codec::write_str(&mut out, &col.name);
            out.push(col.encoding);
            codec::write_varint(&mut out, col.offset);
            codec::write_varint(&mut out, col.len);
            out.extend_from_slice(&col.crc.to_le_bytes());
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Footer, String> {
        let mut r = ByteReader::new(bytes);
        let kind = r.u8()?;
        if kind != TRACE_KIND {
            return Err(format!(
                "segment kind {kind} is not the trace kind {TRACE_KIND}"
            ));
        }
        let rows = r.varint()?;
        let zone = {
            let ts_min = r.varint()?;
            let ts_max = r.varint()?;
            let device_mask = u32::try_from(r.varint()?).map_err(|_| "device mask overflow")?;
            let procedure_mask =
                u32::try_from(r.varint()?).map_err(|_| "procedure mask overflow")?;
            let flags = r.u8()?;
            let run_min = u32::try_from(r.varint()?).map_err(|_| "run min overflow")?;
            let run_max = u32::try_from(r.varint()?).map_err(|_| "run max overflow")?;
            ZoneMap {
                ts_min,
                ts_max,
                device_mask,
                procedure_mask,
                run_min,
                run_max,
                has_runs: flags & 1 != 0,
                has_unassigned: flags & 2 != 0,
            }
        };
        let ncols = r.varint()? as usize;
        if ncols > 4096 {
            return Err(format!("implausible column count {ncols}"));
        }
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name = r.str()?;
            let encoding = r.u8()?;
            let offset = r.varint()?;
            let len = r.varint()?;
            let crc = r.u32_le()?;
            columns.push(ColumnMeta {
                name,
                encoding,
                offset,
                len,
                crc,
            });
        }
        if !r.is_empty() {
            return Err("trailing bytes after footer".to_owned());
        }
        Ok(Footer {
            rows,
            zone,
            columns,
        })
    }
}

// ---------------------------------------------------------------------------
// Encoding a batch into segment bytes

fn encode_trace_columns(batch: &TraceBatch) -> Vec<(&'static str, u8, Vec<u8>)> {
    let rows = batch.len();
    let mut cols: Vec<(&'static str, u8, Vec<u8>)> = Vec::with_capacity(13);

    let mut ids = Vec::new();
    codec::write_deltas(&mut ids, batch.ids());
    cols.push(("ids", enc::DELTA_VARINT, ids));

    let mut ts = Vec::new();
    codec::write_deltas(&mut ts, batch.timestamps_us());
    cols.push(("ts", enc::DELTA_VARINT, ts));

    let mut dev = Vec::new();
    codec::write_devices(&mut dev, batch.devices());
    cols.push(("dev", enc::DEVICE_DICT, dev));

    let mut tok = Vec::with_capacity(rows);
    for &t in batch.command_token_ids() {
        codec::write_varint(&mut tok, u64::from(t));
    }
    cols.push(("tok", enc::VARINT, tok));

    let offsets: Vec<u64> = batch.arg_offsets().iter().map(|&o| u64::from(o)).collect();
    let mut argoff = Vec::new();
    codec::write_deltas(&mut argoff, &offsets);
    cols.push(("argoff", enc::DELTA_VARINT, argoff));

    let mut args = Vec::new();
    codec::write_varint(&mut args, batch.arg_values().len() as u64);
    for v in batch.arg_values() {
        codec::write_value(&mut args, v);
    }
    cols.push(("args", enc::VALUES, args));

    let mode: Vec<u8> = batch.modes().iter().map(|&m| code_of(&MODES, m)).collect();
    cols.push(("mode", enc::BYTE, mode));

    let mut ret = Vec::new();
    codec::write_varint(&mut ret, batch.return_values().len() as u64);
    for v in batch.return_values() {
        codec::write_value(&mut ret, v);
    }
    cols.push(("ret", enc::VALUES, ret));

    let mut exc = Vec::new();
    codec::write_varint(&mut exc, batch.exception_rows().len() as u64);
    let mut prev = 0u64;
    for (row, msg) in batch.exception_rows() {
        codec::write_varint(&mut exc, u64::from(*row) - prev);
        codec::write_str(&mut exc, msg);
        prev = u64::from(*row);
    }
    cols.push(("exc", enc::EXCEPTIONS, exc));

    let mut rt = Vec::new();
    codec::write_deltas(&mut rt, batch.response_times_us());
    cols.push(("rt", enc::DELTA_VARINT, rt));

    let proc: Vec<u8> = batch
        .procedures()
        .iter()
        .map(|&p| code_of(&PROCS, p))
        .collect();
    cols.push(("proc", enc::BYTE, proc));

    let mut run = Vec::with_capacity(rows);
    for r in batch.run_ids() {
        codec::write_varint(&mut run, r.map_or(0, |r| u64::from(r.0) + 1));
    }
    cols.push(("run", enc::OPTIONAL_RUN, run));

    let label: Vec<u8> = batch
        .labels()
        .iter()
        .map(|&l| code_of(&LABELS, l))
        .collect();
    cols.push(("label", enc::BYTE, label));

    cols
}

/// Writes the segment image of `batch` to `w`: the column payloads
/// back to back, then the footer and trailer. Sealed files and the
/// WAL's trace frames both go through here, so they share one byte
/// format.
fn write_segment(w: &mut dyn Write, batch: &TraceBatch) -> std::io::Result<()> {
    let columns = encode_trace_columns(batch);
    let mut metas = Vec::with_capacity(columns.len());
    let mut offset = 0u64;
    for (name, encoding, bytes) in &columns {
        metas.push(ColumnMeta {
            name: (*name).to_owned(),
            encoding: *encoding,
            offset,
            len: bytes.len() as u64,
            crc: crc32(bytes),
        });
        offset += bytes.len() as u64;
    }
    let footer = Footer {
        rows: batch.len() as u64,
        zone: ZoneMap::for_traces(batch),
        columns: metas,
    }
    .encode();
    for (_, _, bytes) in &columns {
        w.write_all(bytes)?;
    }
    w.write_all(&footer)?;
    w.write_all(&(footer.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(&footer).to_le_bytes())?;
    w.write_all(MAGIC)
}

/// The segment image of `batch`, in memory: exactly the bytes
/// [`SegmentWriter::seal_traces`] would write to a file for it.
/// [`SegmentReader::from_bytes`] decodes it.
pub fn trace_segment_bytes(batch: &TraceBatch) -> Vec<u8> {
    let mut out = Vec::new();
    write_trace_segment(&mut out, batch);
    out
}

/// Appends the segment image of `batch` to `out`.
pub(crate) fn write_trace_segment(out: &mut Vec<u8>, batch: &TraceBatch) {
    write_segment(out, batch).expect("writing to memory cannot fail");
}

// ---------------------------------------------------------------------------
// Writer

/// Partitioning knobs for [`SegmentWriter`].
#[derive(Debug, Clone, Copy)]
pub struct SegmentOptions {
    /// Maximum rows per sealed trace segment; larger batches split
    /// into consecutive time-partitioned files.
    pub rows_per_segment: usize,
}

impl Default for SegmentOptions {
    fn default() -> Self {
        SegmentOptions {
            rows_per_segment: 65_536,
        }
    }
}

/// Seals trace batches into immutable segment files.
///
/// Every file is `trace-all-NNNNNN.seg`, one stem with a zero-padded,
/// monotonically increasing sequence number, so lexicographic order of
/// a directory listing equals seal order (for the first million seals
/// of a directory) — which is what [`SegmentSet::open`] scans in.
#[derive(Debug)]
pub struct SegmentWriter<'a> {
    dir: PathBuf,
    options: SegmentOptions,
    injector: Option<&'a CrashInjector>,
    seq: u32,
}

impl<'a> SegmentWriter<'a> {
    /// Creates `dir` if missing and opens a writer that continues the
    /// directory's sequence numbering.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on filesystem failure.
    pub fn create(dir: &Path, options: SegmentOptions) -> Result<Self, RadError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| RadError::Store(format!("create segment dir {}: {e}", dir.display())))?;
        let seq = next_seq(dir)?;
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            options,
            injector: None,
            seq,
        })
    }

    /// Attaches a crash injector; sealed files then pass through the
    /// same [`CrashSite::MidCompaction`] / [`CrashSite::MidRename`]
    /// windows as checkpoint writes.
    ///
    /// [`CrashSite::MidCompaction`]: crate::wal::CrashSite::MidCompaction
    /// [`CrashSite::MidRename`]: crate::wal::CrashSite::MidRename
    #[must_use]
    pub fn with_injector(mut self, injector: Option<&'a CrashInjector>) -> Self {
        self.injector = injector;
        self
    }

    /// Seals `batch` into one or more segments, split every
    /// [`SegmentOptions::rows_per_segment`] rows in row order, and
    /// returns the paths written, in seal order. Once every file is
    /// renamed into place the directory is fsynced, so a power loss
    /// cannot undo the seal. An empty batch seals nothing.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on filesystem failure or an
    /// injected crash.
    pub fn seal_traces(&mut self, batch: &TraceBatch) -> Result<Vec<PathBuf>, RadError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let per_segment = self.options.rows_per_segment.max(1);
        let mut paths = Vec::new();
        for start in (0..batch.len()).step_by(per_segment) {
            let end = batch.len().min(start + per_segment);
            let path = if end - start == batch.len() {
                // A batch that fits one segment encodes as it is.
                self.write_trace_file(batch)?
            } else {
                self.write_trace_file(&batch.slice(start..end))?
            };
            paths.push(path);
        }
        sync_dir(&self.dir)?;
        Ok(paths)
    }

    /// Writes `piece` as the next `trace-all-NNNNNN.seg`, without the
    /// directory fsync.
    fn write_trace_file(&mut self, piece: &TraceBatch) -> Result<PathBuf, RadError> {
        let path = self
            .dir
            .join(format!("trace-all-{:06}.{SEGMENT_EXT}", self.seq));
        self.seq += 1;
        atomic_write_stream(&path, self.injector, |w| write_segment(w, piece))?;
        Ok(path)
    }
}

fn next_seq(dir: &Path) -> Result<u32, RadError> {
    let mut max = 0u32;
    for name in file_names(dir)? {
        // `<stem>-NNNNNN.seg`, possibly renamed aside with a further
        // suffix — the final dash-separated field of the stem is the
        // sequence number. Counting renamed files too means a number
        // is never reused while its old file still exists.
        if let Some(seq) = name
            .split_once(&format!(".{SEGMENT_EXT}"))
            .and_then(|(stem, _)| stem.rsplit('-').next())
            .and_then(|s| s.parse::<u32>().ok())
        {
            max = max.max(seq + 1);
        }
    }
    Ok(max)
}

/// Sealed segment files in `dir`, in seal order.
pub(crate) fn segment_file_names(dir: &Path) -> Result<Vec<String>, RadError> {
    let mut names = file_names(dir)?;
    names.retain(|name| name.ends_with(&format!(".{SEGMENT_EXT}")));
    Ok(names)
}

/// Every file name in `dir`, sorted; a missing directory is empty.
fn file_names(dir: &Path) -> Result<Vec<String>, RadError> {
    let mut names = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(names),
        Err(e) => {
            return Err(RadError::Store(format!(
                "read segment dir {}: {e}",
                dir.display()
            )))
        }
    };
    for entry in entries {
        let entry = entry.map_err(|e| RadError::Store(format!("read segment dir entry: {e}")))?;
        names.push(entry.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

// ---------------------------------------------------------------------------
// Reader

fn corrupt(path: &Path, offset: u64, reason: impl Into<String>) -> RadError {
    RadError::SegmentCorrupt {
        segment: path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string()),
        offset,
        reason: reason.into(),
    }
}

/// Where a [`SegmentReader`]'s bytes live: a sealed file, or a segment
/// image in memory (the body of a WAL trace frame), shared so a reader
/// can decode a buffer its owner keeps.
#[derive(Debug)]
enum Source {
    File(File),
    Bytes(Arc<[u8]>),
}

impl Source {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64, path: &Path) -> Result<(), RadError> {
        match self {
            Source::File(file) => file
                .read_exact_at(buf, offset)
                .map_err(|e| RadError::Store(format!("read segment {}: {e}", path.display()))),
            Source::Bytes(image) => {
                buf.copy_from_slice(&image[image_range(image, offset, buf.len(), path)?]);
                Ok(())
            }
        }
    }

    /// The `len` bytes at `offset`: read from a file into an owned
    /// buffer, or shared from an in-memory image without a copy.
    fn column(&self, offset: u64, len: usize, path: &Path) -> Result<Column, RadError> {
        match self {
            Source::File(_) => {
                let mut bytes = vec![0u8; len];
                self.read_exact_at(&mut bytes, offset, path)?;
                Ok(Column::Owned(bytes))
            }
            Source::Bytes(image) => Ok(Column::Shared(
                Arc::clone(image),
                image_range(image, offset, len, path)?,
            )),
        }
    }
}

/// Where `len` bytes at `offset` lie in an in-memory image.
fn image_range(
    image: &[u8],
    offset: u64,
    len: usize,
    path: &Path,
) -> Result<Range<usize>, RadError> {
    let start = usize::try_from(offset).unwrap_or(usize::MAX);
    start
        .checked_add(len)
        .filter(|&end| end <= image.len())
        .map(|end| start..end)
        .ok_or_else(|| corrupt(path, offset, "read past the end of the segment"))
}

/// A column payload that passed its CRC check: a file's column read
/// into its own buffer, or the range of an in-memory image it spans.
#[derive(Debug, Clone)]
enum Column {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>, Range<usize>),
}

impl Column {
    fn bytes(&self) -> &[u8] {
        match self {
            Column::Owned(bytes) => bytes,
            Column::Shared(image, range) => &image[range.clone()],
        }
    }
}

/// Lazy reader over one sealed segment.
///
/// The footer is read eagerly at open; column payloads are fetched
/// with positioned reads only when a decode first needs them, then
/// cached. An in-memory image's columns are CRC-checked and decoded
/// in place, never copied. [`SegmentReader::column_loaded`] makes the
/// laziness testable: a device+time query must never load the `args`
/// column.
#[derive(Debug)]
pub struct SegmentReader {
    path: PathBuf,
    source: Source,
    body_len: u64,
    footer: Footer,
    cache: Vec<Option<Column>>,
}

impl SegmentReader {
    /// Opens `path` and parses its footer.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::SegmentCorrupt`] when the trailer, magic,
    /// footer CRC, or footer structure is invalid, and
    /// [`RadError::Store`] on I/O failure.
    pub fn open(path: &Path) -> Result<Self, RadError> {
        let file = File::open(path)
            .map_err(|e| RadError::Store(format!("open segment {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| RadError::Store(format!("stat segment {}: {e}", path.display())))?
            .len();
        Self::from_source(path.to_path_buf(), Source::File(file), len)
    }

    /// A reader over a segment image held in memory, such as
    /// [`trace_segment_bytes`] produces. `label` stands in for the
    /// file name in errors and [`SegmentReader::path`]. Decoding runs
    /// through the same column decoders as a file. An `Arc<[u8]>`
    /// is read in place; any other buffer is copied into one.
    ///
    /// # Errors
    ///
    /// Same contract as [`SegmentReader::open`].
    pub fn from_bytes(label: &str, bytes: impl Into<Arc<[u8]>>) -> Result<Self, RadError> {
        let bytes = bytes.into();
        let len = bytes.len() as u64;
        Self::from_source(PathBuf::from(label), Source::Bytes(bytes), len)
    }

    fn from_source(path: PathBuf, source: Source, len: u64) -> Result<Self, RadError> {
        if len < TRAILER_LEN {
            return Err(corrupt(&path, 0, format!("file too short ({len} bytes)")));
        }
        let mut trailer = [0u8; TRAILER_LEN as usize];
        source.read_exact_at(&mut trailer, len - TRAILER_LEN, &path)?;
        if &trailer[8..12] != MAGIC {
            return Err(corrupt(&path, len - 4, "bad magic"));
        }
        let footer_len = u64::from(u32::from_le_bytes(
            trailer[0..4].try_into().expect("4 bytes"),
        ));
        let footer_crc = u32::from_le_bytes(trailer[4..8].try_into().expect("4 bytes"));
        if footer_len > len - TRAILER_LEN {
            return Err(corrupt(
                &path,
                len - TRAILER_LEN,
                format!("footer length {footer_len} exceeds file"),
            ));
        }
        let footer_start = len - TRAILER_LEN - footer_len;
        let mut footer_bytes = vec![0u8; footer_len as usize];
        source.read_exact_at(&mut footer_bytes, footer_start, &path)?;
        if crc32(&footer_bytes) != footer_crc {
            return Err(corrupt(&path, footer_start, "footer crc mismatch"));
        }
        let footer =
            Footer::decode(&footer_bytes).map_err(|reason| corrupt(&path, footer_start, reason))?;
        for col in &footer.columns {
            if col.offset + col.len > footer_start {
                return Err(corrupt(
                    &path,
                    footer_start,
                    format!("column `{}` extends past the body", col.name),
                ));
            }
        }
        let cache = vec![None; footer.columns.len()];
        Ok(SegmentReader {
            path,
            source,
            body_len: footer_start,
            footer,
            cache,
        })
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Trace row count.
    pub fn rows(&self) -> u64 {
        self.footer.rows
    }

    /// The footer's zone map.
    pub fn zone(&self) -> &ZoneMap {
        &self.footer.zone
    }

    /// Total encoded column bytes (file size minus footer and trailer).
    pub fn body_bytes(&self) -> u64 {
        self.body_len
    }

    /// Whether the named column's payload has been fetched from disk.
    /// Lets tests pin down the laziness contract.
    pub fn column_loaded(&self, name: &str) -> bool {
        self.footer
            .columns
            .iter()
            .position(|c| c.name == name)
            .is_some_and(|i| self.cache[i].is_some())
    }

    fn column_index(&self, name: &str, encoding: u8) -> Result<usize, RadError> {
        let idx = self
            .footer
            .columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| {
                corrupt(
                    &self.path,
                    self.body_len,
                    format!("missing column `{name}`"),
                )
            })?;
        if self.footer.columns[idx].encoding != encoding {
            return Err(corrupt(
                &self.path,
                self.footer.columns[idx].offset,
                format!(
                    "column `{name}` has encoding {}, expected {encoding}",
                    self.footer.columns[idx].encoding
                ),
            ));
        }
        Ok(idx)
    }

    /// Fetches (and caches) one column's payload, verifying its CRC on
    /// first load. Read the payload back with [`SegmentReader::cached`]
    /// — split so decoders can borrow the bytes immutably while still
    /// calling `&self` helpers for error context.
    fn load_column(&mut self, idx: usize) -> Result<(), RadError> {
        if self.cache[idx].is_none() {
            let meta = &self.footer.columns[idx];
            let column = self
                .source
                .column(meta.offset, meta.len as usize, &self.path)?;
            if crc32(column.bytes()) != meta.crc {
                return Err(corrupt(
                    &self.path,
                    meta.offset,
                    format!("column `{}` crc mismatch", meta.name),
                ));
            }
            self.cache[idx] = Some(column);
        }
        Ok(())
    }

    /// Loads every column, checking its CRC, without decoding any.
    pub(crate) fn verify(&mut self) -> Result<(), RadError> {
        (0..self.footer.columns.len()).try_for_each(|idx| self.load_column(idx))
    }

    fn cached(&self, idx: usize) -> &[u8] {
        self.cache[idx].as_ref().expect("column loaded").bytes()
    }

    fn decode_err(&self, name: &str, reason: String) -> RadError {
        let offset = self
            .footer
            .columns
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.offset);
        corrupt(&self.path, offset, format!("column `{name}`: {reason}"))
    }

    fn u64_column(&mut self, name: &str) -> Result<Vec<u64>, RadError> {
        let rows = self.footer.rows as usize;
        let idx = self.column_index(name, enc::DELTA_VARINT)?;
        self.load_column(idx)?;
        let bytes = self.cached(idx);
        codec::read_deltas(&mut ByteReader::new(bytes), rows).map_err(|e| self.decode_err(name, e))
    }

    fn byte_column(&mut self, name: &str) -> Result<Vec<u8>, RadError> {
        let rows = self.footer.rows as usize;
        let idx = self.column_index(name, enc::BYTE)?;
        self.load_column(idx)?;
        let bytes = self.cached(idx);
        if bytes.len() != rows {
            return Err(self.decode_err(name, format!("{} bytes for {rows} rows", bytes.len())));
        }
        Ok(bytes.to_vec())
    }

    fn devices_column(&mut self) -> Result<Vec<DeviceId>, RadError> {
        let rows = self.footer.rows as usize;
        let idx = self.column_index("dev", enc::DEVICE_DICT)?;
        self.load_column(idx)?;
        let bytes = self.cached(idx);
        codec::read_devices(&mut ByteReader::new(bytes), rows)
            .map_err(|e| self.decode_err("dev", e))
    }

    fn run_column(&mut self) -> Result<Vec<Option<RunId>>, RadError> {
        let rows = self.footer.rows as usize;
        let idx = self.column_index("run", enc::OPTIONAL_RUN)?;
        self.load_column(idx)?;
        let bytes = self.cached(idx);
        let mut r = ByteReader::new(bytes);
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            let v = r.varint().map_err(|e| self.decode_err("run", e))?;
            out.push(match v {
                0 => None,
                n => Some(RunId(u32::try_from(n - 1).map_err(|_| {
                    self.decode_err("run", format!("run id {n} overflow"))
                })?)),
            });
        }
        r.expect_empty().map_err(|e| self.decode_err("run", e))?;
        Ok(out)
    }

    fn values_column(&mut self, name: &str) -> Result<Vec<rad_core::Value>, RadError> {
        let idx = self.column_index(name, enc::VALUES)?;
        self.load_column(idx)?;
        let bytes = self.cached(idx);
        let mut r = ByteReader::new(bytes);
        let count = r.varint().map_err(|e| self.decode_err(name, e))? as usize;
        if count > bytes.len() {
            return Err(self.decode_err(name, format!("implausible value count {count}")));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(codec::read_value(&mut r).map_err(|e| self.decode_err(name, e))?);
        }
        r.expect_empty().map_err(|e| self.decode_err(name, e))?;
        Ok(out)
    }

    fn exceptions_column(&mut self) -> Result<Vec<(u32, String)>, RadError> {
        let idx = self.column_index("exc", enc::EXCEPTIONS)?;
        self.load_column(idx)?;
        let bytes = self.cached(idx);
        let mut r = ByteReader::new(bytes);
        let count = r.varint().map_err(|e| self.decode_err("exc", e))? as usize;
        if count > bytes.len() {
            return Err(self.decode_err("exc", format!("implausible exception count {count}")));
        }
        let mut out = Vec::with_capacity(count);
        let mut row = 0u64;
        for _ in 0..count {
            let delta = r.varint().map_err(|e| self.decode_err("exc", e))?;
            row += delta;
            let msg = r.str().map_err(|e| self.decode_err("exc", e))?;
            let row32 = u32::try_from(row)
                .map_err(|_| self.decode_err("exc", format!("exception row {row} overflow")))?;
            out.push((row32, msg));
        }
        r.expect_empty().map_err(|e| self.decode_err("exc", e))?;
        Ok(out)
    }

    fn tokens_column(&mut self) -> Result<Vec<u16>, RadError> {
        let rows = self.footer.rows as usize;
        let idx = self.column_index("tok", enc::VARINT)?;
        self.load_column(idx)?;
        let bytes = self.cached(idx);
        let mut r = ByteReader::new(bytes);
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            let v = r.varint().map_err(|e| self.decode_err("tok", e))?;
            out.push(
                u16::try_from(v)
                    .map_err(|_| self.decode_err("tok", format!("token id {v} overflow")))?,
            );
        }
        r.expect_empty().map_err(|e| self.decode_err("tok", e))?;
        Ok(out)
    }

    /// Decodes the full batch.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::SegmentCorrupt`] on any CRC or structural
    /// failure, and [`RadError::Store`] on I/O failure.
    pub fn read_batch(&mut self) -> Result<TraceBatch, RadError> {
        let rows = self.footer.rows as usize;
        let ids = self.u64_column("ids")?;
        let timestamps_us = self.u64_column("ts")?;
        let devices = self.devices_column()?;
        let command_tokens = self.tokens_column()?;
        let arg_offsets64 = {
            let idx = self.column_index("argoff", enc::DELTA_VARINT)?;
            self.load_column(idx)?;
            let bytes = self.cached(idx);
            codec::read_deltas(&mut ByteReader::new(bytes), rows + 1)
                .map_err(|e| self.decode_err("argoff", e))?
        };
        let mut arg_offsets = Vec::with_capacity(arg_offsets64.len());
        for o in arg_offsets64 {
            arg_offsets.push(
                u32::try_from(o)
                    .map_err(|_| self.decode_err("argoff", format!("offset {o} overflow")))?,
            );
        }
        let args = self.values_column("args")?;
        let mode_codes = self.byte_column("mode")?;
        let mut modes = Vec::with_capacity(rows);
        for c in mode_codes {
            modes.push(from_code(&MODES, c, "mode").map_err(|e| self.decode_err("mode", e))?);
        }
        let return_values = self.values_column("ret")?;
        let exceptions = self.exceptions_column()?;
        let response_times_us = self.u64_column("rt")?;
        let proc_codes = self.byte_column("proc")?;
        let mut procedures = Vec::with_capacity(rows);
        for c in proc_codes {
            procedures
                .push(from_code(&PROCS, c, "procedure").map_err(|e| self.decode_err("proc", e))?);
        }
        let run_ids = self.run_column()?;
        let label_codes = self.byte_column("label")?;
        let mut labels = Vec::with_capacity(rows);
        for c in label_codes {
            labels.push(from_code(&LABELS, c, "label").map_err(|e| self.decode_err("label", e))?);
        }
        TraceBatch::from_columns(TraceColumns {
            ids,
            timestamps_us,
            devices,
            command_tokens,
            arg_offsets,
            args,
            modes,
            return_values,
            exceptions,
            response_times_us,
            procedures,
            run_ids,
            labels,
        })
        .map_err(|e| corrupt(&self.path, 0, format!("incoherent columns: {e}")))
    }

    /// Evaluates `query` against this segment, decoding predicate
    /// columns first and the remaining columns only when at least one
    /// row matches. Returns `None` when nothing matches — in which
    /// case the argument arena and value columns were never read.
    ///
    /// # Errors
    ///
    /// Same contract as [`SegmentReader::read_batch`].
    pub fn query(&mut self, query: &TraceQuery) -> Result<Option<TraceBatch>, RadError> {
        if self.footer.rows == 0 {
            return Ok(None);
        }
        if query.is_unfiltered() {
            return Ok(Some(self.read_batch()?));
        }
        let rows = self.footer.rows as usize;
        let mut selected: Vec<bool> = vec![true; rows];
        if let Some(d) = query.device {
            let devices = self.devices_column()?;
            for (keep, dev) in selected.iter_mut().zip(&devices) {
                *keep &= dev.kind() == d;
            }
        }
        if let Some(p) = query.procedure {
            let procs = self.byte_column("proc")?;
            let code = code_of(&PROCS, p);
            for (keep, c) in selected.iter_mut().zip(&procs) {
                *keep &= *c == code;
            }
        }
        if let Some(r) = query.run_id {
            let runs = self.run_column()?;
            for (keep, run) in selected.iter_mut().zip(&runs) {
                *keep &= *run == Some(r);
            }
        }
        if query.ts_min.is_some() || query.ts_max.is_some() {
            let ts = self.u64_column("ts")?;
            for (keep, &t) in selected.iter_mut().zip(&ts) {
                *keep &=
                    query.ts_min.is_none_or(|lo| t >= lo) && query.ts_max.is_none_or(|hi| t <= hi);
            }
        }
        let hits: Vec<usize> = selected
            .iter()
            .enumerate()
            .filter(|(_, &keep)| keep)
            .map(|(i, _)| i)
            .collect();
        if hits.is_empty() {
            return Ok(None);
        }
        let batch = self.read_batch()?;
        if hits.len() == rows {
            Ok(Some(batch))
        } else {
            Ok(Some(batch.select(&hits)))
        }
    }
}

// ---------------------------------------------------------------------------
// Segment sets: the parallel query layer

#[derive(Debug, Clone)]
struct SegmentEntry {
    path: PathBuf,
    rows: u64,
    body_bytes: u64,
    zone: ZoneMap,
}

/// A directory of sealed segments, queryable with predicate pushdown.
#[derive(Debug)]
pub struct SegmentSet {
    dir: PathBuf,
    segments: Vec<SegmentEntry>,
    quarantined: Vec<QuarantinedSegment>,
}

impl SegmentSet {
    /// Opens every `*.seg` file under `dir` (a missing directory is an
    /// empty set). Files whose footer fails validation are quarantined
    /// immediately and reported via [`SegmentSet::quarantined`];
    /// opening never fails on corruption.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on directory I/O failure.
    pub fn open(dir: &Path) -> Result<Self, RadError> {
        Self::open_named(dir, segment_file_names(dir)?)
    }

    /// [`SegmentSet::open`] over just the named files of `dir`, in the
    /// given order.
    pub(crate) fn open_named(
        dir: &Path,
        names: impl IntoIterator<Item = String>,
    ) -> Result<Self, RadError> {
        let mut segments = Vec::new();
        let mut quarantined = Vec::new();
        for name in names {
            let path = dir.join(&name);
            match SegmentReader::open(&path) {
                Ok(reader) => segments.push(SegmentEntry {
                    rows: reader.rows(),
                    body_bytes: reader.body_bytes(),
                    zone: *reader.zone(),
                    path,
                }),
                Err(err @ RadError::SegmentCorrupt { .. }) => {
                    quarantined.push(quarantine_file(&path, err)?);
                }
                Err(other) => return Err(other),
            }
        }
        Ok(SegmentSet {
            dir: dir.to_path_buf(),
            segments,
            quarantined,
        })
    }

    /// The directory this set scans.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of healthy segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the set holds no healthy segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total trace rows across healthy segments.
    pub fn trace_rows(&self) -> u64 {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// Total encoded column bytes across healthy segments — the
    /// on-disk footprint the size benchmarks report.
    pub fn body_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.body_bytes).sum()
    }

    /// Segments quarantined so far (at open or during scans).
    pub fn quarantined(&self) -> &[QuarantinedSegment] {
        &self.quarantined
    }

    /// Runs `query` over every segment with zone-map pruning.
    /// Equivalent to [`SegmentSet::query_with`] with pruning on.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on I/O failure. Corrupt segments do
    /// not error — they are quarantined and reported on the scan.
    pub fn query(&self, query: &TraceQuery) -> Result<SegmentScan, RadError> {
        self.query_with(query, true)
    }

    /// Decodes every segment in full, in seal order.
    ///
    /// # Errors
    ///
    /// Same contract as [`SegmentSet::query`].
    pub fn read_all(&self) -> Result<SegmentScan, RadError> {
        self.query(&TraceQuery::new())
    }

    /// Decodes only the rows whose start timestamp falls in
    /// `[ts_min_us, ts_max_us]` (inclusive, microseconds) — the
    /// time-window read scenario replay uses to target a slice of a
    /// campaign instead of the whole log. Zone-map pruning skips
    /// segments entirely outside the window without opening them.
    ///
    /// # Errors
    ///
    /// Same contract as [`SegmentSet::query`].
    pub fn scan_time_range(&self, ts_min_us: u64, ts_max_us: u64) -> Result<SegmentScan, RadError> {
        self.query(&TraceQuery::new().time_range(ts_min_us, ts_max_us))
    }

    /// Runs `query`, optionally disabling zone-map pruning (every
    /// segment is then opened and filtered row-wise) — the reference
    /// the equivalence suite compares pruned scans against.
    ///
    /// Decoding fans out over scoped threads when the surviving
    /// segments carry enough bytes to amortize spawn/join (see
    /// [`rad_core::par::should_fan_out`]); results keep seal order
    /// either way. Segments that fail CRC mid-scan are quarantined on
    /// the returned scan, never aborting the survivors.
    ///
    /// # Errors
    ///
    /// Same contract as [`SegmentSet::query`].
    pub fn query_with(&self, query: &TraceQuery, prune: bool) -> Result<SegmentScan, RadError> {
        let work: Vec<&SegmentEntry> = self
            .segments
            .iter()
            .filter(|s| !prune || s.zone.admits(query))
            .collect();
        let pruned = self.segments.len() - work.len();
        let results = scan_parallel(&work, |entry| {
            SegmentReader::open(&entry.path)?.query(query)
        });
        let mut scan = SegmentScan {
            batches: VecDeque::with_capacity(work.len()),
            scanned: work.len(),
            pruned,
            quarantined: Vec::new(),
        };
        for (entry, result) in work.iter().zip(results) {
            match result {
                Ok(Some(batch)) => scan.batches.push_back(batch),
                Ok(None) => {}
                Err(err @ RadError::SegmentCorrupt { .. }) => {
                    scan.quarantined.push(quarantine_file(&entry.path, err)?);
                }
                Err(other) => return Err(other),
            }
        }
        Ok(scan)
    }
}

/// Runs `scan` over every entry, fanning out over scoped threads when
/// the total encoded bytes justify it. Results keep input order.
fn scan_parallel<T: Send>(
    work: &[&SegmentEntry],
    scan: impl Fn(&SegmentEntry) -> Result<T, RadError> + Sync,
) -> Vec<Result<T, RadError>> {
    let total_bytes: usize = work.iter().map(|s| s.body_bytes as usize).sum();
    let Some(workers) =
        rad_core::par::should_fan_out(work.len(), total_bytes, MIN_SCAN_BYTES_PER_THREAD)
    else {
        return work.iter().map(|entry| scan(entry)).collect();
    };
    let chunk = work.len().div_ceil(workers);
    let scan = &scan;
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = work
            .chunks(chunk)
            .map(|entries| {
                s.spawn(move || entries.iter().map(|entry| scan(entry)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("segment scan worker panicked"))
            .collect()
    })
}

pub(crate) fn quarantine_file(path: &Path, err: RadError) -> Result<QuarantinedSegment, RadError> {
    let RadError::SegmentCorrupt {
        segment,
        offset,
        reason,
    } = err
    else {
        unreachable!("only corruption is quarantined");
    };
    let target = path.with_file_name(format!(
        "{}.quarantined",
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "segment".to_owned())
    ));
    match std::fs::rename(path, &target) {
        Ok(()) => {}
        // Already quarantined by a concurrent scan: fine.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(RadError::Store(format!(
                "quarantine segment {}: {e}",
                path.display()
            )))
        }
    }
    // Columnar segments have no frame structure; a quarantined segment
    // always loses all of its rows, so the WAL-oriented counter stays 0.
    Ok(QuarantinedSegment {
        segment,
        offset,
        reason,
        frames_before_damage: 0,
    })
}

/// The result of a trace query: matching batches in seal order, plus
/// the pruning and quarantine bookkeeping. Implements [`TraceSource`],
/// so a scan drains batch by batch into any trace sink.
#[derive(Debug)]
pub struct SegmentScan {
    batches: VecDeque<TraceBatch>,
    scanned: usize,
    pruned: usize,
    quarantined: Vec<QuarantinedSegment>,
}

impl SegmentScan {
    /// Segments whose columns were actually opened.
    pub fn scanned(&self) -> usize {
        self.scanned
    }

    /// Segments skipped by zone maps alone.
    pub fn pruned(&self) -> usize {
        self.pruned
    }

    /// Segments quarantined during this scan.
    pub fn quarantined(&self) -> &[QuarantinedSegment] {
        &self.quarantined
    }

    /// Total matching rows still queued.
    pub fn rows(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }

    /// Concatenates all queued batches into one.
    pub fn into_batch(mut self) -> TraceBatch {
        let mut out = match self.batches.pop_front() {
            Some(first) => first,
            None => return TraceBatch::new(),
        };
        for batch in self.batches {
            out.append_owned(batch);
        }
        out
    }
}

impl TraceSource for SegmentScan {
    fn next_batch(&mut self) -> Result<Option<TraceBatch>, RadError> {
        Ok(self.batches.pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{CrashPlan, CrashSite};
    use rad_core::{Command, CommandType, SimDuration, SimInstant, TraceId, TraceObject, Value};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rad-segment-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A batch exercising every column: all five devices, mixed
    /// procedures and runs, exceptions, multi-valued args, and
    /// unsupervised rows.
    fn synthesize(n: usize) -> TraceBatch {
        let mut batch = TraceBatch::new();
        for i in 0..n {
            let ct = CommandType::from_token_id(i % CommandType::all().len()).unwrap();
            let args = match i % 4 {
                0 => vec![],
                1 => vec![Value::Int(i as i64 - 8), Value::Str(format!("s{i}"))],
                2 => vec![Value::Location {
                    x: i as f64,
                    y: -1.5,
                    z: 0.25,
                }],
                _ => vec![Value::List(vec![Value::Bool(i % 2 == 0), Value::Unit])],
            };
            let mut b = TraceObject::builder(
                TraceId(i as u64),
                SimInstant::from_micros(1_000_000 + (i as u64) * 250),
                DeviceId::primary(ct.device()),
                Command::new(ct, args),
            )
            .mode(MODES[i % MODES.len()])
            .return_value(if i % 3 == 0 {
                Value::Float(i as f64 * 0.5)
            } else {
                Value::Unit
            })
            .response_time(SimDuration::from_micros(40 + (i as u64 % 7)));
            if i % 2 == 0 {
                b = b.run(
                    PROCS[i % (PROCS.len() - 1)],
                    RunId((i / 10) as u32),
                    LABELS[i % LABELS.len()],
                );
            }
            if i % 5 == 0 {
                b = b.exception(format!("boom {i}"));
            }
            batch.push_owned(b.build());
        }
        batch
    }

    #[test]
    fn seal_and_read_round_trip_batch_exactly() {
        let dir = temp_dir("roundtrip");
        let batch = synthesize(300);
        let mut writer = SegmentWriter::create(&dir, SegmentOptions::default()).unwrap();
        let paths = writer.seal_traces(&batch).unwrap();
        assert_eq!(paths.len(), 1);
        let back = SegmentReader::open(&paths[0])
            .unwrap()
            .read_batch()
            .unwrap();
        assert_eq!(back, batch);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunked_seals_concatenate_to_original() {
        for rows_per_segment in [1, 7, 256] {
            let dir = temp_dir(&format!("chunk{rows_per_segment}"));
            let batch = synthesize(100);
            let mut writer =
                SegmentWriter::create(&dir, SegmentOptions { rows_per_segment }).unwrap();
            let paths = writer.seal_traces(&batch).unwrap();
            assert_eq!(paths.len(), 100usize.div_ceil(rows_per_segment));
            let set = SegmentSet::open(&dir).unwrap();
            assert_eq!(set.trace_rows(), 100);
            assert_eq!(set.read_all().unwrap().into_batch(), batch);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn empty_batch_seals_nothing() {
        let dir = temp_dir("empty");
        let mut writer = SegmentWriter::create(&dir, SegmentOptions::default()).unwrap();
        assert!(writer.seal_traces(&TraceBatch::new()).unwrap().is_empty());
        assert!(SegmentSet::open(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zone_maps_prune_device_partitions_without_opening_them() {
        let dir = temp_dir("prune-count");
        let batch = synthesize(200);
        let mut writer = SegmentWriter::create(&dir, SegmentOptions::default()).unwrap();
        // One seal per device kind, so each zone map names one device.
        let mut sealed = 0;
        for kind in DeviceKind::all() {
            let rows = TraceQuery::new().device(kind).matching_rows(&batch);
            sealed += writer.seal_traces(&batch.select(&rows)).unwrap().len();
        }
        assert_eq!(
            sealed,
            DeviceKind::all().len(),
            "one segment per device kind"
        );
        let set = SegmentSet::open(&dir).unwrap();
        let scan = set
            .query(&TraceQuery::new().device(DeviceKind::C9))
            .unwrap();
        assert_eq!(scan.scanned(), 1);
        assert_eq!(scan.pruned(), sealed - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn time_pruning_skips_disjoint_segments() {
        let dir = temp_dir("prune-time");
        let mut writer = SegmentWriter::create(&dir, SegmentOptions::default()).unwrap();
        writer.seal_traces(&synthesize(50)).unwrap(); // ts 1_000_000..1_012_250
        let late = {
            let mut b = TraceBatch::new();
            for t in synthesize(50).to_traces() {
                let (id, _, dev, cmd, mode, ret, exc, rt, proc_, run, label) = (
                    t.id(),
                    (),
                    t.device(),
                    t.command().clone(),
                    t.mode(),
                    t.return_value().clone(),
                    t.exception().map(str::to_owned),
                    t.response_time(),
                    t.procedure(),
                    t.run_id(),
                    t.label(),
                );
                let mut builder = TraceObject::builder(
                    id,
                    SimInstant::from_micros(9_000_000 + id.0 * 250),
                    dev,
                    cmd,
                )
                .mode(mode)
                .return_value(ret)
                .response_time(rt);
                if let Some(r) = run {
                    builder = builder.run(proc_, r, label);
                }
                if let Some(e) = exc {
                    builder = builder.exception(e);
                }
                b.push_owned(builder.build());
            }
            b
        };
        writer.seal_traces(&late).unwrap();
        let set = SegmentSet::open(&dir).unwrap();
        let scan = set
            .query(&TraceQuery::new().time_range(9_000_000, 10_000_000))
            .unwrap();
        assert_eq!(scan.pruned(), 1);
        assert_eq!(scan.scanned(), 1);
        assert_eq!(scan.rows(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn miss_query_never_loads_argument_columns() {
        let dir = temp_dir("lazy");
        // Tecan-only rows: a C9 query decodes `dev`, finds nothing, and
        // must return None without ever reading the value columns.
        let mut batch = TraceBatch::new();
        for i in 0..40u64 {
            batch.push_owned(
                TraceObject::builder(
                    TraceId(i),
                    SimInstant::from_micros(i * 10),
                    DeviceId::primary(DeviceKind::Tecan),
                    Command::new(
                        CommandType::TecanGetStatus,
                        vec![Value::Str("heavy".repeat(50))],
                    ),
                )
                .build(),
            );
        }
        let mut writer = SegmentWriter::create(&dir, SegmentOptions::default()).unwrap();
        let paths = writer.seal_traces(&batch).unwrap();
        let mut reader = SegmentReader::open(&paths[0]).unwrap();
        let hit = reader
            .query(&TraceQuery::new().device(DeviceKind::C9))
            .unwrap();
        assert!(hit.is_none());
        assert!(reader.column_loaded("dev"));
        for untouched in ["args", "ret", "exc", "ids", "ts"] {
            assert!(!reader.column_loaded(untouched), "loaded `{untouched}`");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_images_decode_in_place_and_reject_a_flipped_column_bit() {
        let batch = synthesize(120);
        let image: Arc<[u8]> = trace_segment_bytes(&batch).into();
        let mut reader = SegmentReader::from_bytes("image", Arc::clone(&image)).unwrap();
        assert!(!reader.column_loaded("args"), "opening loads no column");
        assert_eq!(reader.read_batch().unwrap(), batch);
        let columns = reader.footer.columns.clone();
        for (idx, column) in columns.iter().enumerate() {
            // Decoded in place: the checked bytes are the image's own.
            let bytes = reader.cached(idx);
            assert_eq!(bytes.as_ptr(), image[column.offset as usize..].as_ptr());
            assert_eq!(bytes.len(), column.len as usize);
        }
        for column in columns.iter().filter(|c| c.len > 0) {
            let mut damaged = image.to_vec();
            damaged[(column.offset + column.len / 2) as usize] ^= 0x10;
            let mut reader = SegmentReader::from_bytes("damaged", damaged).unwrap();
            assert!(
                matches!(reader.read_batch(), Err(RadError::SegmentCorrupt { .. })),
                "a flipped bit in `{}` went unnoticed",
                column.name
            );
        }
    }

    #[test]
    fn corrupt_segment_is_quarantined_and_scan_survives() {
        let dir = temp_dir("quarantine");
        let first = synthesize(80);
        let mut writer = SegmentWriter::create(&dir, SegmentOptions::default()).unwrap();
        let victim = writer.seal_traces(&first).unwrap().remove(0);
        let survivor_batch = synthesize(30);
        writer.seal_traces(&survivor_batch).unwrap();

        // Flip one bit in the first column's payload: the footer still
        // parses, so the damage only surfaces when the column is read.
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[3] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();

        let set = SegmentSet::open(&dir).unwrap();
        assert_eq!(set.len(), 2, "column damage is invisible to open");
        let scan = set.read_all().unwrap();
        assert_eq!(scan.quarantined().len(), 1);
        assert!(scan.quarantined()[0].reason.contains("crc"));
        assert_eq!(scan.into_batch(), survivor_batch);
        assert!(!victim.exists(), "victim should be renamed away");
        assert!(victim
            .with_file_name(format!(
                "{}.quarantined",
                victim.file_name().unwrap().to_string_lossy()
            ))
            .exists());
        // A reopened set no longer sees the quarantined file.
        assert_eq!(SegmentSet::open(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_footer_is_quarantined_at_open() {
        let dir = temp_dir("footer-corrupt");
        let mut writer = SegmentWriter::create(&dir, SegmentOptions::default()).unwrap();
        let victim = writer.seal_traces(&synthesize(40)).unwrap().remove(0);
        writer.seal_traces(&synthesize(10)).unwrap();
        let mut bytes = std::fs::read(&victim).unwrap();
        let n = bytes.len();
        bytes[n - TRAILER_LEN as usize - 2] ^= 0x01; // inside the encoded footer
        std::fs::write(&victim, &bytes).unwrap();
        let set = SegmentSet::open(&dir).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.quarantined().len(), 1);
        assert_eq!(set.read_all().unwrap().rows(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_footer_of_any_other_kind_is_quarantined_at_open() {
        let dir = temp_dir("kind");
        let mut writer = SegmentWriter::create(&dir, SegmentOptions::default()).unwrap();
        let victim = writer.seal_traces(&synthesize(40)).unwrap().remove(0);
        let survivor = synthesize(10);
        writer.seal_traces(&survivor).unwrap();

        // Kind 1 behind a footer CRC that still holds: only the kind
        // check can refuse it.
        let mut bytes = std::fs::read(&victim).unwrap();
        let trailer = bytes.len() - TRAILER_LEN as usize;
        let footer_len = u32::from_le_bytes(bytes[trailer..trailer + 4].try_into().unwrap());
        let footer_start = trailer - footer_len as usize;
        assert_eq!(bytes[footer_start], TRACE_KIND);
        bytes[footer_start] = 1;
        let crc = crc32(&bytes[footer_start..trailer]);
        bytes[trailer + 4..trailer + 8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&victim, &bytes).unwrap();

        match SegmentReader::open(&victim) {
            Err(RadError::SegmentCorrupt { reason, .. }) => {
                assert!(reason.contains("kind 1"), "{reason}");
            }
            other => panic!("kind 1 must be corruption, got {other:?}"),
        }
        let set = SegmentSet::open(&dir).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.quarantined().len(), 1);
        assert!(set.quarantined()[0].reason.contains("kind 1"));
        assert!(!victim.exists(), "the victim is renamed aside");
        assert_eq!(set.read_all().unwrap().into_batch(), survivor);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = temp_dir("truncated");
        let mut writer = SegmentWriter::create(&dir, SegmentOptions::default()).unwrap();
        let path = writer.seal_traces(&synthesize(40)).unwrap().remove(0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(RadError::SegmentCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_seal_leaves_no_visible_segment() {
        for site in [CrashSite::MidCompaction, CrashSite::MidRename] {
            let dir = temp_dir(&format!("crash-{site}"));
            let injector = CrashInjector::new(CrashPlan::at(site, 0));
            let mut writer = SegmentWriter::create(&dir, SegmentOptions::default())
                .unwrap()
                .with_injector(Some(&injector));
            assert!(writer.seal_traces(&synthesize(25)).is_err());
            assert_eq!(injector.fired().map(|(s, _)| s), Some(site));
            assert!(
                SegmentSet::open(&dir).unwrap().is_empty(),
                "no live segment may appear after a {site} crash"
            );
            // The writer outlives the crash: a retry (injector spent)
            // seals normally and the set sees exactly one segment.
            writer.seal_traces(&synthesize(25)).unwrap();
            assert_eq!(SegmentSet::open(&dir).unwrap().trace_rows(), 25);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn sequence_numbering_survives_reopen() {
        let dir = temp_dir("reseq");
        let batch = synthesize(10);
        let p0 = SegmentWriter::create(&dir, SegmentOptions::default())
            .unwrap()
            .seal_traces(&batch)
            .unwrap()
            .remove(0);
        let p1 = SegmentWriter::create(&dir, SegmentOptions::default())
            .unwrap()
            .seal_traces(&batch)
            .unwrap()
            .remove(0);
        assert_ne!(p0, p1);
        assert!(p1.to_string_lossy().contains("000001"));
        assert_eq!(SegmentSet::open(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_streams_as_trace_source() {
        let dir = temp_dir("source");
        let batch = synthesize(90);
        let mut writer = SegmentWriter::create(
            &dir,
            SegmentOptions {
                rows_per_segment: 40,
            },
        )
        .unwrap();
        writer.seal_traces(&batch).unwrap();
        let mut scan = SegmentSet::open(&dir).unwrap().read_all().unwrap();
        let mut collected = TraceBatch::new();
        let mut chunks = 0;
        while let Some(chunk) = scan.next_batch().unwrap() {
            collected.append_owned(chunk);
            chunks += 1;
        }
        assert_eq!(chunks, 3);
        assert_eq!(collected, batch);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
