//! Append-only, segment-rotating write-ahead log with crash injection.
//!
//! The paper's deliverable is the dataset itself: RATracer logs every
//! intercepted command, and a record that is lost or silently corrupted
//! invalidates the ground truth downstream IDS analyses depend on. The
//! [`Wal`] is the durability primitive under [`DurableStore`](crate::DurableStore): every
//! mutation is framed, CRC-checked, and fsynced to an append-only
//! segment file *before* it is applied, so the store can always be
//! rebuilt from disk after a crash.
//!
//! # Frame format
//!
//! ```text
//! ┌──────────┬──────────┬──────────┬──────────────┐
//! │ len: u32 │ crc: u32 │ seq: u64 │ payload      │   (little endian)
//! │          │          │          │ (len bytes)  │
//! └──────────┴──────────┴──────────┴──────────────┘
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the seq bytes plus the payload, so a bit
//! flip anywhere in a frame body or its sequence number is detected.
//! Frames are packed back to back in segment files named
//! `wal-NNNNNN.log`; the log rotates to a fresh segment once the active
//! one passes [`WalOptions::segment_bytes`].
//!
//! # Recovery invariants
//!
//! [`Wal::open`] replays whatever is on disk and never aborts
//! wholesale:
//!
//! - A segment that ends mid-frame (the process died while appending)
//!   is **truncated** at the last complete frame; the valid prefix is
//!   kept. This is the torn-tail case and is only legal in the final
//!   segment — and, after a crash mid-rotation, the final segment may
//!   simply be empty.
//! - A segment with an invalid frame *before* the final segment (a bit
//!   flip at rest, scribbled bytes) is **quarantined**: the file is
//!   renamed `*.quarantined` and contributes no records, so one damaged
//!   segment can never smuggle a record that was not written.
//! - Recovered records are always a subset of the records appended, in
//!   the order they were appended. Recovery never invents, reorders, or
//!   repairs records.
//!
//! # Crash injection
//!
//! [`CrashPlan`] mirrors the middlebox's `FaultPlan`: every decision is
//! a pure function of `(seed, site, index)`, so a crash campaign is
//! byte-reproducible. A [`CrashInjector`] threads the plan through the
//! write path and simulates process death at five sites
//! ([`CrashSite`]): half a frame reaches disk (`MidRecord`), a full
//! frame reaches the page cache but not the platter (`PreFsync` —
//! simulated by truncating back to the last synced offset), rotation
//! leaves an empty tail segment (`MidRotation`), a checkpoint snapshot
//! is half-written (`MidCompaction`), or fully written but never
//! renamed into place (`MidRename`). After a site fires the component
//! is poisoned: like a dead process, it refuses further writes until
//! reopened.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rad_core::{spec, RadError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Frame header size: len (4) + crc (4) + seq (8).
const HEADER_LEN: usize = 16;

/// Upper bound on a single record; anything larger in a length field is
/// treated as corruption rather than an allocation request.
pub(crate) const MAX_RECORD: u32 = 16 * 1024 * 1024;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-8. Vendored shims provide no checksum
// crate, and a few dozen lines beat a dependency.
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the bytewise table: the CRC of each byte value.
/// `CRC_TABLES[k][b]` is that CRC advanced through `k` further zero
/// bytes, so one lookup per table folds eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `data` — the one checksum under WAL records,
/// segment columns and footers, and binary wire frames.
pub fn crc32(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let byte = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t7[byte(lo, 0)]
            ^ t6[byte(lo, 8)]
            ^ t5[byte(lo, 16)]
            ^ t4[byte(lo, 24)]
            ^ t3[byte(hi, 0)]
            ^ t2[byte(hi, 8)]
            ^ t1[byte(hi, 16)]
            ^ t0[byte(hi, 24)];
    }
    for &b in words.remainder() {
        c = t0[byte(c ^ u32::from(b), 0)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Crash plan
// ---------------------------------------------------------------------

/// A point in the write path where an injected crash can kill the
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashSite {
    /// Mid-append: only a prefix of the frame reaches the platter.
    MidRecord,
    /// After the frame is written but before fsync: the page cache is
    /// lost, simulated by truncating back to the last synced offset.
    PreFsync,
    /// Between finalizing one segment and writing the first frame of
    /// the next: an empty tail segment is left behind.
    MidRotation,
    /// While writing a checkpoint/snapshot temp file: the temp file is
    /// half-written and must be ignored on recovery.
    MidCompaction,
    /// After the temp file is complete but before the atomic rename:
    /// the real file never appears.
    MidRename,
}

impl CrashSite {
    /// Every site, in write-path order — the crash matrix iterates
    /// this.
    pub const ALL: [CrashSite; 5] = [
        CrashSite::MidRecord,
        CrashSite::PreFsync,
        CrashSite::MidRotation,
        CrashSite::MidCompaction,
        CrashSite::MidRename,
    ];

    fn salt(self) -> u64 {
        match self {
            CrashSite::MidRecord => 0x4d49_4452_4543_4f52, // "MIDRECOR"
            CrashSite::PreFsync => 0x5052_4546_5359_4e43,
            CrashSite::MidRotation => 0x4d49_4452_4f54_4154,
            CrashSite::MidCompaction => 0x4d49_4443_4f4d_5041,
            CrashSite::MidRename => 0x4d49_4452_454e_414d,
        }
    }

    fn index(self) -> usize {
        match self {
            CrashSite::MidRecord => 0,
            CrashSite::PreFsync => 1,
            CrashSite::MidRotation => 2,
            CrashSite::MidCompaction => 3,
            CrashSite::MidRename => 4,
        }
    }
}

impl fmt::Display for CrashSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CrashSite::MidRecord => "mid-record",
            CrashSite::PreFsync => "pre-fsync",
            CrashSite::MidRotation => "mid-rotation",
            CrashSite::MidCompaction => "mid-compaction",
            CrashSite::MidRename => "mid-rename",
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum CrashMode {
    /// Crash at exactly the `occurrence`-th visit of `site`.
    At { site: CrashSite, occurrence: u64 },
    /// Each visit of any site crashes with probability `prob`,
    /// decided purely from `(seed, site, index)`.
    Seeded { prob: f64 },
}

/// A seeded, deterministic crash schedule over the WAL write path.
///
/// Mirrors the middlebox's `FaultPlan`: every decision is a pure
/// function of `(seed, site, index)` where `index` counts visits to
/// that site, so the same plan kills the same write in every run and
/// under any thread interleaving.
///
/// # Examples
///
/// ```
/// use rad_store::wal::{CrashPlan, CrashSite};
///
/// let plan = CrashPlan::at(CrashSite::PreFsync, 3);
/// assert!(!plan.should_crash(CrashSite::PreFsync, 2));
/// assert!(plan.should_crash(CrashSite::PreFsync, 3));
/// assert!(!plan.should_crash(CrashSite::MidRecord, 3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPlan {
    seed: u64,
    mode: CrashMode,
}

impl CrashPlan {
    /// Crash at exactly the `occurrence`-th (0-based) visit of `site`.
    pub fn at(site: CrashSite, occurrence: u64) -> Self {
        CrashPlan {
            seed: 0,
            mode: CrashMode::At { site, occurrence },
        }
    }

    /// Crash each site visit with probability `prob`, derived from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    pub fn seeded(seed: u64, prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "crash probability {prob} out of range"
        );
        CrashPlan {
            seed,
            mode: CrashMode::Seeded { prob },
        }
    }

    /// Whether the `index`-th visit of `site` crashes — a pure
    /// function, safe to call from any thread in any order.
    pub fn should_crash(&self, site: CrashSite, index: u64) -> bool {
        match &self.mode {
            CrashMode::At {
                site: at_site,
                occurrence,
            } => *at_site == site && *occurrence == index,
            CrashMode::Seeded { prob } => {
                let mixed = self
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(site.salt())
                    .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
                let mut rng = ChaCha8Rng::seed_from_u64(mixed);
                rng.gen_range(0.0..1.0) < *prob
            }
        }
    }
}

#[derive(Debug)]
struct InjectorInner {
    plan: CrashPlan,
    visits: [AtomicU64; 5],
    fired: Mutex<Option<(CrashSite, u64)>>,
}

/// Threads a [`CrashPlan`] through the write path, counting visits per
/// site and recording the site that fired. Cheap to clone (an `Arc`).
///
/// Once a site fires, no further site ever fires — a dead process does
/// not crash twice — but the component that hit the crash stays
/// poisoned until it is reopened.
#[derive(Debug, Clone)]
pub struct CrashInjector {
    inner: Arc<InjectorInner>,
}

impl CrashInjector {
    /// A fresh injector over `plan` with zeroed visit counters.
    pub fn new(plan: CrashPlan) -> Self {
        CrashInjector {
            inner: Arc::new(InjectorInner {
                plan,
                visits: Default::default(),
                fired: Mutex::new(None),
            }),
        }
    }

    /// Visits `site`: returns the injected-crash error when the plan
    /// says this visit dies, `None` otherwise.
    pub fn trip(&self, site: CrashSite) -> Option<RadError> {
        let n = self.inner.visits[site.index()].fetch_add(1, Ordering::Relaxed);
        let mut fired = self.inner.fired.lock();
        if fired.is_some() {
            return None;
        }
        if self.inner.plan.should_crash(site, n) {
            *fired = Some((site, n));
            Some(RadError::Store(format!(
                "injected crash at {site} (occurrence {n})"
            )))
        } else {
            None
        }
    }

    /// The site and occurrence that fired, if any.
    pub fn fired(&self) -> Option<(CrashSite, u64)> {
        *self.inner.fired.lock()
    }

    /// How many times `site` has been visited so far.
    pub fn visits(&self, site: CrashSite) -> u64 {
        self.inner.visits[site.index()].load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Recovery report
// ---------------------------------------------------------------------

/// A segment set aside during recovery because a non-tail frame failed
/// validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedSegment {
    /// Segment file name (now renamed `*.quarantined`).
    pub segment: String,
    /// Byte offset of the first invalid frame.
    pub offset: u64,
    /// Why the frame was rejected.
    pub reason: String,
    /// Complete frames seen before the damage (dropped with the
    /// segment; reported so the loss is quantified, never silent).
    pub frames_before_damage: usize,
}

/// What [`Wal::open`] (and [`DurableStore::open`]) found on disk.
///
/// [`DurableStore::open`]: crate::DurableStore::open
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Segment files scanned (quarantined ones included).
    pub segments_scanned: usize,
    /// Frames recovered across all healthy segments.
    pub records_recovered: usize,
    /// The torn tail, if the final segment ended mid-frame:
    /// `(segment name, byte offset the file was truncated to)`.
    pub torn_tail: Option<(String, u64)>,
    /// Segments renamed aside because of mid-file damage.
    pub quarantined: Vec<QuarantinedSegment>,
    /// Records replayed into the store (seq past the checkpoint).
    /// Filled by the durable layer; zero for a bare WAL open.
    pub records_replayed: usize,
    /// First sequence number *not* covered by the loaded checkpoint.
    pub checkpoint_next_seq: u64,
    /// Whether a damaged checkpoint file was set aside.
    pub checkpoint_quarantined: bool,
    /// Sealed trace segments the checkpoint names that were missing or
    /// failed a check, plus every named segment after the first such
    /// one (renamed `*.quarantined` where present). The trace stream's
    /// sealed prefix ends before them.
    pub segments_quarantined: Vec<QuarantinedSegment>,
    /// Sealed trace segments the checkpoint does not name: the seals of
    /// a checkpoint that died before committing. Their rows are still
    /// in the WAL, so the files are renamed `*.uncommitted`, unread.
    pub segments_set_aside: Vec<String>,
    /// Trace frames not applied because they did not start at the end
    /// of the recovered stream.
    pub trace_frames_skipped: usize,
    /// Appended trace rows the recovered stream lost: the rows of
    /// quarantined segments and of skipped frames.
    pub trace_rows_dropped: u64,
}

impl RecoveryReport {
    /// Whether recovery found a perfectly clean log.
    pub fn is_clean(&self) -> bool {
        self.torn_tail.is_none()
            && self.quarantined.is_empty()
            && !self.checkpoint_quarantined
            && self.segments_quarantined.is_empty()
            && self.segments_set_aside.is_empty()
            && self.trace_frames_skipped == 0
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segments={} recovered={} replayed={} torn={} quarantined={} checkpoint_seq={} \
             sealed_quarantined={} set_aside={} frames_skipped={} rows_dropped={}",
            self.segments_scanned,
            self.records_recovered,
            self.records_replayed,
            self.torn_tail
                .as_ref()
                .map(|(s, o)| format!("{s}@{o}"))
                .unwrap_or_else(|| "none".into()),
            self.quarantined.len(),
            self.checkpoint_next_seq,
            self.segments_quarantined.len(),
            self.segments_set_aside.len(),
            self.trace_frames_skipped,
            self.trace_rows_dropped,
        )
    }
}

/// One recovered frame: its sequence number and payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number assigned at append time.
    pub seq: u64,
    /// The payload exactly as appended.
    pub payload: Vec<u8>,
}

// ---------------------------------------------------------------------
// The WAL proper
// ---------------------------------------------------------------------

/// Tuning knobs for the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one passes this size.
    pub segment_bytes: u64,
    /// Fsync after this many appends (1 = sync every record). Explicit
    /// [`Wal::sync`] calls flush earlier.
    pub sync_every: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 256 * 1024,
            sync_every: 64,
        }
    }
}

fn io_err(context: &str, e: std::io::Error) -> RadError {
    RadError::Store(format!("{context}: {e}"))
}

fn segment_name(index: u64) -> String {
    format!("wal-{index:06}.log")
}

/// The append-only, segment-rotating write-ahead log.
///
/// Single-writer by design; [`DurableStore`] serializes access behind
/// a mutex. See the module docs for the frame format and the recovery
/// invariants.
///
/// [`DurableStore`]: crate::DurableStore
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    segment_index: u64,
    segment_len: u64,
    synced_len: u64,
    unsynced_appends: u64,
    next_seq: u64,
    options: WalOptions,
    injector: Option<CrashInjector>,
    poisoned: bool,
}

impl Wal {
    /// Opens (or creates) the log in `dir`, recovering every valid
    /// record on disk. Appends continue in a fresh segment after the
    /// highest existing one.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on filesystem failures. Damaged
    /// frames are *not* errors: torn tails truncate, damaged segments
    /// quarantine, and both are described in the [`RecoveryReport`].
    pub fn open(
        dir: &Path,
        options: WalOptions,
        injector: Option<CrashInjector>,
    ) -> Result<(Wal, Vec<WalRecord>, RecoveryReport), RadError> {
        fs::create_dir_all(dir).map_err(|e| io_err("creating wal dir", e))?;
        let mut report = RecoveryReport::default();
        let mut records = Vec::new();

        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(dir).map_err(|e| io_err("listing wal dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing wal dir", e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(index) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                segments.push((index, entry.path()));
            }
        }
        segments.sort();

        for (i, (_, path)) in segments.iter().enumerate() {
            let is_last = i + 1 == segments.len();
            Self::recover_segment(path, is_last, &mut records, &mut report)?;
        }
        report.records_recovered = records.len();

        let next_seq = records.last().map_or(0, |r| r.seq + 1);
        let segment_index = segments.last().map_or(0, |(i, _)| *i) + 1;
        let path = dir.join(segment_name(segment_index));
        let file = File::create(&path).map_err(|e| io_err("creating wal segment", e))?;
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                file,
                segment_index,
                segment_len: 0,
                synced_len: 0,
                unsynced_appends: 0,
                next_seq,
                options,
                injector,
                poisoned: false,
            },
            records,
            report,
        ))
    }

    /// Scans one segment, appending its valid frames to `records`.
    fn recover_segment(
        path: &Path,
        is_last: bool,
        records: &mut Vec<WalRecord>,
        report: &mut RecoveryReport,
    ) -> Result<(), RadError> {
        report.segments_scanned += 1;
        let data = fs::read(path).map_err(|e| io_err("reading wal segment", e))?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut off = 0usize;
        let mut segment_records = Vec::new();
        let mut damage: Option<(u64, String)> = None;

        while off < data.len() {
            let remaining = data.len() - off;
            if remaining < HEADER_LEN {
                damage = Some((
                    off as u64,
                    format!("{remaining}-byte tail shorter than header"),
                ));
                break;
            }
            let len = u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes"));
            let stored_crc =
                u32::from_le_bytes(data[off + 4..off + 8].try_into().expect("4 bytes"));
            if len > MAX_RECORD {
                damage = Some((off as u64, format!("frame length {len} exceeds maximum")));
                break;
            }
            let end = off + HEADER_LEN + len as usize;
            if end > data.len() {
                damage = Some((
                    off as u64,
                    format!("frame of {len} bytes runs past end of segment"),
                ));
                break;
            }
            let crc = crc32(&data[off + 8..end]);
            if crc != stored_crc {
                damage = Some((
                    off as u64,
                    format!("crc mismatch: stored {stored_crc:#010x}, computed {crc:#010x}"),
                ));
                break;
            }
            let seq = u64::from_le_bytes(data[off + 8..off + 16].try_into().expect("8 bytes"));
            segment_records.push(WalRecord {
                seq,
                payload: data[off + HEADER_LEN..end].to_vec(),
            });
            off = end;
        }

        match damage {
            None => records.append(&mut segment_records),
            Some((offset, reason)) if is_last => {
                // Torn tail: keep the valid prefix, truncate the rest.
                let file = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err("opening segment for truncation", e))?;
                file.set_len(offset)
                    .map_err(|e| io_err("truncating torn tail", e))?;
                file.sync_data()
                    .map_err(|e| io_err("syncing truncated segment", e))?;
                report.torn_tail = Some((name, offset));
                let _ = reason; // torn tails are expected; the offset says it all
                records.append(&mut segment_records);
            }
            Some((offset, reason)) => {
                // Mid-log damage: set the whole segment aside. Frames
                // that preceded the damage are dropped with it — a
                // damaged segment contributes nothing, so recovery can
                // never replay a record that was not written.
                let mut quarantine = path.to_path_buf();
                quarantine.set_file_name(format!("{name}.quarantined"));
                fs::rename(path, &quarantine).map_err(|e| io_err("quarantining segment", e))?;
                report.quarantined.push(QuarantinedSegment {
                    segment: name,
                    offset,
                    reason,
                    frames_before_damage: segment_records.len(),
                });
            }
        }
        Ok(())
    }

    /// Appends one record, returning its sequence number. The record
    /// is durable once the batched fsync covers it (every
    /// [`WalOptions::sync_every`] appends, or on [`Wal::sync`]).
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on filesystem failures, on injected
    /// crashes, and on every call after a crash (the log is poisoned
    /// until reopened).
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, RadError> {
        if self.poisoned {
            return Err(RadError::Store(
                "wal is poisoned by an earlier crash; reopen to recover".into(),
            ));
        }
        if payload.len() as u32 > MAX_RECORD {
            return Err(RadError::Store(format!(
                "record of {} bytes exceeds the {MAX_RECORD}-byte maximum",
                payload.len()
            )));
        }
        if self.segment_len >= self.options.segment_bytes {
            self.rotate()?;
        }

        let seq = self.next_seq;
        // One buffer, one copy of the payload: the CRC over
        // seq ‖ payload is backfilled once both are in place.
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&[0; 4]);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(payload);
        let crc = crc32(&frame[8..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());

        if let Some(err) = self.trip(CrashSite::MidRecord) {
            // Half the frame reaches the platter: the canonical torn
            // write. Sync it so recovery really sees the partial frame.
            let half = frame.len() / 2;
            let _ = self.file.write_all(&frame[..half]);
            let _ = self.file.sync_data();
            self.poisoned = true;
            return Err(err);
        }

        self.file
            .write_all(&frame)
            .map_err(|e| io_err("appending wal frame", e))?;
        self.segment_len += frame.len() as u64;
        self.unsynced_appends += 1;
        self.next_seq += 1;

        if let Some(err) = self.trip(CrashSite::PreFsync) {
            // The frame made it to the page cache but never to disk:
            // simulate the power cut by discarding everything unsynced.
            let _ = self.file.set_len(self.synced_len);
            let _ = self.file.sync_data();
            self.poisoned = true;
            return Err(err);
        }

        if self.unsynced_appends >= self.options.sync_every {
            self.sync()?;
        }
        Ok(seq)
    }

    /// Flushes every buffered append to the platter.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on fsync failure or a poisoned log.
    pub fn sync(&mut self) -> Result<(), RadError> {
        if self.poisoned {
            return Err(RadError::Store(
                "wal is poisoned by an earlier crash; reopen to recover".into(),
            ));
        }
        if self.synced_len == self.segment_len && self.unsynced_appends == 0 {
            return Ok(());
        }
        self.file
            .sync_data()
            .map_err(|e| io_err("syncing wal segment", e))?;
        self.synced_len = self.segment_len;
        self.unsynced_appends = 0;
        Ok(())
    }

    /// Finalizes the active segment and starts a new one, fsyncing the
    /// log directory so the new file survives a power loss.
    fn rotate(&mut self) -> Result<(), RadError> {
        self.sync()?;
        self.segment_index += 1;
        let path = self.dir.join(segment_name(self.segment_index));
        let file = File::create(&path).map_err(|e| io_err("creating wal segment", e))?;
        sync_dir(&self.dir)?;
        self.file = file;
        self.segment_len = 0;
        self.synced_len = 0;
        self.unsynced_appends = 0;
        if let Some(err) = self.trip(CrashSite::MidRotation) {
            // The new segment exists but is empty; the old one is fully
            // synced. Recovery must treat the empty tail as healthy.
            self.poisoned = true;
            return Err(err);
        }
        Ok(())
    }

    /// Starts a fresh segment and deletes every older one — called
    /// after a checkpoint has made them redundant. A crash between the
    /// rename of the checkpoint and this cleanup only leaves stale
    /// segments behind; replay filters them out by sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Store`] on filesystem failures or injected
    /// crashes.
    pub fn reset_after_checkpoint(&mut self) -> Result<(), RadError> {
        let retire_below = self.segment_index + 1;
        self.rotate()?;
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("listing wal dir", e))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(index) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                if index < retire_below {
                    fs::remove_file(entry.path()).map_err(|e| io_err("retiring wal segment", e))?;
                }
            }
        }
        Ok(())
    }

    fn trip(&self, site: CrashSite) -> Option<RadError> {
        self.injector.as_ref().and_then(|i| i.trip(site))
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Raises the next sequence number to at least `min`. The durable
    /// layer calls this after loading a checkpoint: the records the
    /// checkpoint absorbed are no longer on disk to be counted, but new
    /// appends must still sort after them.
    pub fn ensure_next_seq(&mut self, min: u64) {
        self.next_seq = self.next_seq.max(min);
    }

    /// The directory holding the segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index of the active segment file.
    pub fn segment_index(&self) -> u64 {
        self.segment_index
    }

    /// Whether an injected crash has poisoned this handle.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // A clean shutdown flushes; a crashed one must not resurrect
        // writes the "dead" process never synced.
        if !self.poisoned {
            let _ = self.file.sync_data();
        }
    }
}

// ---------------------------------------------------------------------
// Atomic file replacement
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: a temp file in the same
/// directory is written, fsynced, and renamed into place, so a crash at
/// any point leaves either the old file or the new one — never a
/// truncated hybrid. The injector's [`CrashSite::MidCompaction`] /
/// [`CrashSite::MidRename`] sites cover the two windows.
///
/// # Errors
///
/// Returns [`RadError::Store`] on filesystem failures or injected
/// crashes.
pub fn atomic_write_file(
    path: &Path,
    bytes: &[u8],
    injector: Option<&CrashInjector>,
) -> Result<(), RadError> {
    let tmp = temp_path(path)?;

    if let Some(err) = injector.and_then(|i| i.trip(CrashSite::MidCompaction)) {
        // Half the snapshot reaches the temp file; the real path is
        // untouched. Recovery must ignore `*.tmp`.
        let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
        return Err(err);
    }

    let mut file = File::create(&tmp).map_err(|e| io_err("creating temp file", e))?;
    file.write_all(bytes)
        .map_err(|e| io_err("writing temp file", e))?;
    file.sync_data()
        .map_err(|e| io_err("syncing temp file", e))?;
    drop(file);

    if let Some(err) = injector.and_then(|i| i.trip(CrashSite::MidRename)) {
        // Temp file complete, rename never happened: the real path is
        // still the old version (or absent).
        return Err(err);
    }

    fs::rename(&tmp, path).map_err(|e| io_err("renaming temp file into place", e))
}

/// Streaming variant of [`atomic_write_file`]: the caller writes into
/// a buffered temp-file writer instead of materializing the whole
/// payload in memory first. Same crash discipline — fsync then rename,
/// with the same two injection windows — so a batched CSV export can
/// stream gigabytes through a fixed-size buffer and still land
/// atomically.
///
/// # Errors
///
/// Returns [`RadError::Store`] on filesystem failures, injected
/// crashes, or errors surfaced by the `write` callback.
pub fn atomic_write_stream<F>(
    path: &Path,
    injector: Option<&CrashInjector>,
    write: F,
) -> Result<(), RadError>
where
    F: FnOnce(&mut dyn Write) -> std::io::Result<()>,
{
    let tmp = temp_path(path)?;

    if let Some(err) = injector.and_then(|i| i.trip(CrashSite::MidCompaction)) {
        // A torn temp file; the real path is untouched. Recovery must
        // ignore `*.tmp`.
        let _ = fs::write(&tmp, b"");
        return Err(err);
    }

    stage_stream(&tmp, write)?;

    if let Some(err) = injector.and_then(|i| i.trip(CrashSite::MidRename)) {
        return Err(err);
    }

    fs::rename(&tmp, path).map_err(|e| io_err("renaming temp file into place", e))
}

/// The temp file an atomic write of `path` stages into: the same
/// directory, with `.tmp` appended to the file name.
pub(crate) fn temp_path(path: &Path) -> Result<PathBuf, RadError> {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .ok_or_else(|| RadError::Store(format!("atomic write needs a file name: {path:?}")))?;
    Ok(path.with_file_name(format!("{file_name}.tmp")))
}

/// The staging half of [`atomic_write_stream`]: creates `tmp`, streams
/// `write` into it through a buffered writer, and fsyncs it. The
/// caller renames it into place.
pub(crate) fn stage_stream<F>(tmp: &Path, write: F) -> Result<(), RadError>
where
    F: FnOnce(&mut dyn Write) -> std::io::Result<()>,
{
    let file = File::create(tmp).map_err(|e| io_err("creating temp file", e))?;
    let mut buffered = std::io::BufWriter::new(file);
    write(&mut buffered).map_err(|e| io_err("streaming temp file", e))?;
    let file = buffered
        .into_inner()
        .map_err(|e| io_err("flushing temp file", e.into_error()))?;
    file.sync_data().map_err(|e| io_err("syncing temp file", e))
}

/// Fsyncs the directory `dir`, so renames into it survive a power
/// loss and not just a process crash.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), RadError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("syncing directory", e))
}

impl CrashSite {
    /// Parses the kebab-case site name used by scenario documents —
    /// the same strings [`CrashSite`]'s `Display` prints.
    pub fn from_name(name: &str) -> Option<CrashSite> {
        CrashSite::ALL.into_iter().find(|s| s.to_string() == name)
    }
}

/// The declarative form of a [`CrashPlan`] — the `crash` section of a
/// scenario document. Exactly one of the two modes is present:
///
/// ```json
/// {"at": {"site": "pre-fsync", "occurrence": 3}}
/// ```
///
/// or
///
/// ```json
/// {"seeded": {"seed": 7, "prob": 0.01}}
/// ```
///
/// Site names are the kebab-case strings [`CrashSite`] displays:
/// `mid-record`, `pre-fsync`, `mid-rotation`, `mid-compaction`,
/// `mid-rename`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSpec {
    plan: CrashPlan,
}

impl CrashSpec {
    /// Captures an existing hand-wired plan as a spec.
    pub fn from_plan(plan: &CrashPlan) -> Self {
        CrashSpec { plan: plan.clone() }
    }

    /// Builds the [`CrashPlan`] this spec describes.
    pub fn to_plan(&self) -> CrashPlan {
        self.plan.clone()
    }

    /// Parses the `crash` section of a scenario document. `ctx` is the
    /// dotted path of `value` for error messages.
    ///
    /// # Errors
    ///
    /// [`RadError::Spec`] on unknown fields, an unknown site name, a
    /// probability outside `[0, 1]`, or when the document names both
    /// modes (or neither).
    pub fn from_json(value: &serde_json::Value, ctx: &str) -> Result<Self, RadError> {
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, &["at", "seeded"])?;
        let at = map.get("at").filter(|v| !v.is_null());
        let seeded = map.get("seeded").filter(|v| !v.is_null());
        match (at, seeded) {
            (Some(_), Some(_)) => Err(RadError::spec(
                ctx,
                "`at` and `seeded` are mutually exclusive",
            )),
            (None, None) => Err(RadError::spec(ctx, "one of `at` or `seeded` is required")),
            (Some(at), None) => {
                let actx = spec::path(ctx, "at");
                let amap = spec::obj(at, &actx)?;
                spec::known_fields(amap, &actx, &["site", "occurrence"])?;
                let name = spec::req_str(amap, &actx, "site")?;
                let site = CrashSite::from_name(name).ok_or_else(|| {
                    RadError::spec(
                        spec::path(&actx, "site"),
                        format!(
                            "unknown crash site `{name}` (accepted: {})",
                            CrashSite::ALL.map(|s| s.to_string()).join(", ")
                        ),
                    )
                })?;
                let occurrence = spec::req_u64(amap, &actx, "occurrence")?;
                Ok(CrashSpec {
                    plan: CrashPlan::at(site, occurrence),
                })
            }
            (None, Some(seeded)) => {
                let sctx = spec::path(ctx, "seeded");
                let smap = spec::obj(seeded, &sctx)?;
                spec::known_fields(smap, &sctx, &["seed", "prob"])?;
                let seed = spec::req_u64(smap, &sctx, "seed")?;
                let prob = spec::req_f64(smap, &sctx, "prob")?;
                if !(0.0..=1.0).contains(&prob) {
                    return Err(RadError::spec(
                        spec::path(&sctx, "prob"),
                        format!("probability {prob} outside [0, 1]"),
                    ));
                }
                Ok(CrashSpec {
                    plan: CrashPlan::seeded(seed, prob),
                })
            }
        }
    }

    /// Serializes the spec back to its JSON form.
    pub fn to_json(&self) -> serde_json::Value {
        let mut inner = serde_json::Map::new();
        let mut outer = serde_json::Map::new();
        match &self.plan.mode {
            CrashMode::At { site, occurrence } => {
                inner.insert("site".into(), serde_json::Value::from(site.to_string()));
                inner.insert("occurrence".into(), serde_json::Value::from(*occurrence));
                outer.insert("at".into(), serde_json::Value::Object(inner));
            }
            CrashMode::Seeded { prob } => {
                inner.insert("seed".into(), serde_json::Value::from(self.plan.seed));
                inner.insert("prob".into(), serde_json::Value::from(*prob));
                outer.insert("seeded".into(), serde_json::Value::Object(inner));
            }
        }
        serde_json::Value::Object(outer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rad-wal-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("record-{i}-{}", "x".repeat(i % 40)).into_bytes())
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE reference value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let dir = tmpdir("roundtrip");
        let written = payloads(50);
        {
            let (mut wal, recovered, report) =
                Wal::open(&dir, WalOptions::default(), None).unwrap();
            assert!(recovered.is_empty() && report.is_clean());
            for p in &written {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }
        let (wal, recovered, report) = Wal::open(&dir, WalOptions::default(), None).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(recovered.len(), written.len());
        for (i, r) in recovered.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.payload, written[i]);
        }
        assert_eq!(wal.next_seq(), written.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = tmpdir("rotate");
        let options = WalOptions {
            segment_bytes: 256,
            sync_every: 4,
        };
        {
            let (mut wal, _, _) = Wal::open(&dir, options.clone(), None).unwrap();
            for p in payloads(40) {
                wal.append(&p).unwrap();
            }
        }
        let segments = fs::read_dir(&dir).unwrap().count();
        assert!(segments > 2, "expected several segments, got {segments}");
        let (_, recovered, report) = Wal::open(&dir, options, None).unwrap();
        assert_eq!(recovered.len(), 40);
        assert!(report.is_clean());
        assert!(report.segments_scanned > 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _, _) = Wal::open(&dir, WalOptions::default(), None).unwrap();
            for p in payloads(10) {
                wal.append(&p).unwrap();
            }
            wal.sync().unwrap();
        }
        // Chop bytes off the newest segment: a torn final frame.
        let seg = newest_segment(&dir);
        let len = fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let (_, recovered, report) = Wal::open(&dir, WalOptions::default(), None).unwrap();
        assert_eq!(recovered.len(), 9, "one torn record is dropped");
        let (_, offset) = report.torn_tail.clone().expect("tail reported");
        assert!(offset < len - 5);
        // The segment was physically truncated to the valid prefix.
        assert_eq!(fs::metadata(&seg).unwrap().len(), offset);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_middle_segment_quarantines_it() {
        let dir = tmpdir("flip");
        let options = WalOptions {
            segment_bytes: 128,
            sync_every: 1,
        };
        {
            let (mut wal, _, _) = Wal::open(&dir, options.clone(), None).unwrap();
            for p in payloads(30) {
                wal.append(&p).unwrap();
            }
        }
        // Flip one payload bit in the oldest segment.
        let seg = oldest_segment(&dir);
        let mut data = fs::read(&seg).unwrap();
        let target = HEADER_LEN + 2; // inside the first payload
        data[target] ^= 0x10;
        fs::write(&seg, &data).unwrap();

        let written: Vec<Vec<u8>> = payloads(30);
        let (_, recovered, report) = Wal::open(&dir, options, None).unwrap();
        assert_eq!(report.quarantined.len(), 1, "{report}");
        assert!(report.quarantined[0].reason.contains("crc mismatch"));
        assert!(seg
            .with_file_name(format!(
                "{}.quarantined",
                seg.file_name().unwrap().to_string_lossy()
            ))
            .exists());
        // Nothing recovered was ever not written.
        for r in &recovered {
            assert!(written.contains(&r.payload));
        }
        assert!(recovered.len() < 30);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_record_crash_leaves_recoverable_prefix() {
        let dir = tmpdir("midrecord");
        let injector = CrashInjector::new(CrashPlan::at(CrashSite::MidRecord, 5));
        let (mut wal, _, _) =
            Wal::open(&dir, WalOptions::default(), Some(injector.clone())).unwrap();
        let mut appended = 0;
        for p in payloads(10) {
            match wal.append(&p) {
                Ok(_) => appended += 1,
                Err(e) => {
                    assert!(e.to_string().contains("injected crash"), "{e}");
                    break;
                }
            }
        }
        assert_eq!(appended, 5);
        assert_eq!(injector.fired(), Some((CrashSite::MidRecord, 5)));
        assert!(wal.is_poisoned());
        assert!(wal.append(b"after death").is_err(), "poisoned stays dead");
        drop(wal);

        let (_, recovered, report) = Wal::open(&dir, WalOptions::default(), None).unwrap();
        assert_eq!(recovered.len(), 5, "the synced prefix survives");
        assert!(report.torn_tail.is_some(), "the half frame is torn away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_fsync_crash_loses_only_unsynced_records() {
        let dir = tmpdir("prefsync");
        let options = WalOptions {
            segment_bytes: 1 << 20,
            sync_every: 4,
        };
        let injector = CrashInjector::new(CrashPlan::at(CrashSite::PreFsync, 9));
        let (mut wal, _, _) = Wal::open(&dir, options.clone(), Some(injector)).unwrap();
        let mut last_err = None;
        for p in payloads(20) {
            if let Err(e) = wal.append(&p) {
                last_err = Some(e);
                break;
            }
        }
        assert!(last_err.unwrap().to_string().contains("injected crash"));
        drop(wal);
        let (_, recovered, report) = Wal::open(&dir, options, None).unwrap();
        // Appends 0..8 were synced in two batches of four; 8 and 9 were
        // in the page cache when the power died.
        assert_eq!(recovered.len(), 8);
        assert!(report.torn_tail.is_none(), "truncation left a clean file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_rotation_crash_leaves_empty_tail_segment() {
        let dir = tmpdir("midrotate");
        let options = WalOptions {
            segment_bytes: 128,
            sync_every: 1,
        };
        let injector = CrashInjector::new(CrashPlan::at(CrashSite::MidRotation, 1));
        let (mut wal, _, _) = Wal::open(&dir, options.clone(), Some(injector)).unwrap();
        let mut appended = 0;
        for p in payloads(60) {
            match wal.append(&p) {
                Ok(_) => appended += 1,
                Err(_) => break,
            }
        }
        assert!(appended > 0);
        drop(wal);
        let (_, recovered, report) = Wal::open(&dir, options, None).unwrap();
        assert_eq!(recovered.len(), appended, "everything synced survives");
        assert!(
            report.is_clean(),
            "an empty tail segment is healthy: {report}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_after_checkpoint_retires_old_segments() {
        let dir = tmpdir("reset");
        let options = WalOptions {
            segment_bytes: 128,
            sync_every: 1,
        };
        let (mut wal, _, _) = Wal::open(&dir, options.clone(), None).unwrap();
        for p in payloads(30) {
            wal.append(&p).unwrap();
        }
        wal.reset_after_checkpoint().unwrap();
        let seq_after = wal.next_seq();
        wal.append(b"post-checkpoint").unwrap();
        drop(wal);
        let (_, recovered, _) = Wal::open(&dir, options, None).unwrap();
        assert_eq!(recovered.len(), 1, "only post-checkpoint records remain");
        assert_eq!(recovered[0].seq, seq_after);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_survives_both_crash_windows() {
        let dir = tmpdir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.json");
        fs::write(&path, b"old contents").unwrap();

        let injector = CrashInjector::new(CrashPlan::at(CrashSite::MidCompaction, 0));
        assert!(atomic_write_file(&path, b"new contents", Some(&injector)).is_err());
        assert_eq!(fs::read(&path).unwrap(), b"old contents");

        let injector = CrashInjector::new(CrashPlan::at(CrashSite::MidRename, 0));
        assert!(atomic_write_file(&path, b"new contents", Some(&injector)).is_err());
        assert_eq!(fs::read(&path).unwrap(), b"old contents");

        atomic_write_file(&path, b"new contents", None).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new contents");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_crash_plans_are_deterministic() {
        let a = CrashPlan::seeded(7, 0.2);
        let b = CrashPlan::seeded(7, 0.2);
        let c = CrashPlan::seeded(8, 0.2);
        let schedule = |p: &CrashPlan| -> Vec<bool> {
            (0..200)
                .map(|i| p.should_crash(CrashSite::MidRecord, i))
                .collect()
        };
        assert_eq!(schedule(&a), schedule(&b));
        assert_ne!(schedule(&a), schedule(&c));
        let fires = schedule(&a).iter().filter(|f| **f).count();
        assert!((10..80).contains(&fires), "fires = {fires}");
    }

    fn newest_segment(dir: &Path) -> PathBuf {
        segment_paths(dir).into_iter().next_back().unwrap()
    }

    fn oldest_segment(dir: &Path) -> PathBuf {
        segment_paths(dir).into_iter().next().unwrap()
    }

    fn segment_paths(dir: &Path) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|e| e == "log")
                    && fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false)
            })
            .collect();
        paths.sort();
        paths
    }
}
