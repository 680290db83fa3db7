//! Property tests on WAL framing and recovery.
//!
//! Three invariants, each under randomized batches and damage:
//!
//! 1. an undamaged log round-trips every record across rotations;
//! 2. a prefix-truncated final segment recovers an exact prefix;
//! 3. a single flipped bit anywhere never panics recovery and never
//!    yields a record that was not written.
//!
//! Beside them, the frame checksum (`crc32`, slicing-by-8) equals the
//! byte-at-a-time CRC-32 definition on any length and alignment, and a
//! fresh segment's bytes are exactly the documented frame layout.
//!
//! Case counts honour `PROPTEST_CASES` (the CI crash-recovery job
//! raises it to 512).

use proptest::prelude::*;
use rad_store::wal::{crc32, Wal, WalOptions, WalRecord};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("rad-wal-props-{tag}-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(segment_bytes: u64) -> WalOptions {
    WalOptions {
        segment_bytes,
        sync_every: 1,
    }
}

/// Appends `payloads` into a fresh WAL at `dir` and closes it cleanly.
fn write_batch(dir: &Path, payloads: &[Vec<u8>], segment_bytes: u64) {
    let (mut wal, existing, report) = Wal::open(dir, opts(segment_bytes), None).unwrap();
    assert!(existing.is_empty());
    assert!(report.is_clean());
    for (i, payload) in payloads.iter().enumerate() {
        assert_eq!(wal.append(payload).unwrap(), i as u64);
    }
    wal.sync().unwrap();
}

/// All `wal-*.log` segments under `dir`, in index order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    found.sort();
    found
}

/// Every recovered record must be byte-identical to the written record
/// with the same sequence number — damage may *lose* records, never
/// invent or alter them.
fn assert_no_invented_records(recovered: &[WalRecord], written: &[Vec<u8>]) {
    for rec in recovered {
        let idx = rec.seq as usize;
        assert!(
            idx < written.len(),
            "recovered seq {} was never written",
            rec.seq
        );
        assert_eq!(
            rec.payload, written[idx],
            "recovered payload for seq {} differs from what was written",
            rec.seq
        );
    }
}

/// CRC-32 (IEEE) by its definition: the reflected polynomial
/// `0xEDB88320` shifted through one byte, one bit at a time.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The slicing-by-8 checksum equals the bytewise definition for
    /// every length (whole words, a tail, or both) at every offset into
    /// a buffer, so no alignment or remainder path drifts.
    #[test]
    fn crc32_matches_the_bytewise_definition(
        data in proptest::collection::vec(0u8..=255, 0..600),
        start in 0usize..600,
        len in 0usize..600,
    ) {
        let start = start.min(data.len());
        let end = start + len.min(data.len() - start);
        let slice = &data[start..end];
        prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
    }

    /// A fresh segment is its records' frames back to back, each
    /// exactly `len ‖ crc32(seq ‖ payload) ‖ seq ‖ payload` (little
    /// endian), with the checksum by its bytewise definition.
    #[test]
    fn fresh_segment_bytes_are_the_documented_frames(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..96),
            1..12,
        ),
    ) {
        let dir = tmpdir("layout");
        write_batch(&dir, &payloads, 1 << 20);

        let mut want = Vec::new();
        for (seq, payload) in payloads.iter().enumerate() {
            let mut body = (seq as u64).to_le_bytes().to_vec();
            body.extend_from_slice(payload);
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            want.extend_from_slice(&crc32_bytewise(&body).to_le_bytes());
            want.extend_from_slice(&body);
        }
        let segs = segments(&dir);
        prop_assert_eq!(segs.len(), 1);
        prop_assert_eq!(fs::read(&segs[0]).unwrap(), want);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Round trip: every appended record comes back, in order, across
    /// however many rotations the segment budget forces.
    #[test]
    fn frames_round_trip_across_rotation(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..96),
            1..24,
        ),
        segment_bytes in 128u64..2048,
    ) {
        let dir = tmpdir("round-trip");
        write_batch(&dir, &payloads, segment_bytes);

        let (_wal, recovered, report) =
            Wal::open(&dir, opts(segment_bytes), None).unwrap();
        prop_assert!(report.is_clean(), "clean log reported damage: {report}");
        prop_assert_eq!(recovered.len(), payloads.len());
        for (i, (rec, written)) in recovered.iter().zip(&payloads).enumerate() {
            prop_assert_eq!(rec.seq, i as u64);
            prop_assert_eq!(&rec.payload, written);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Truncating the final segment at an arbitrary byte recovers an
    /// exact prefix of what was written — never a panic, never a
    /// record past the cut.
    #[test]
    fn truncated_tail_recovers_a_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..64),
            1..16,
        ),
        segment_bytes in 128u64..1024,
        cut in 0u64..4096,
    ) {
        let dir = tmpdir("truncate");
        write_batch(&dir, &payloads, segment_bytes);

        let last = segments(&dir).pop().unwrap();
        let len = fs::metadata(&last).unwrap().len();
        let keep = cut % (len + 1);
        let file = fs::OpenOptions::new().write(true).open(&last).unwrap();
        file.set_len(keep).unwrap();
        drop(file);

        let (_wal, recovered, _report) =
            Wal::open(&dir, opts(segment_bytes), None).unwrap();
        prop_assert!(recovered.len() <= payloads.len());
        for (rec, written) in recovered.iter().zip(&payloads) {
            prop_assert_eq!(&rec.payload, written, "recovery must keep a prefix");
        }
        assert_no_invented_records(&recovered, &payloads);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One flipped bit anywhere in any segment: recovery never panics
    /// and the surviving records are a subset of what was written.
    #[test]
    fn single_bit_flip_never_invents_records(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..64),
            1..16,
        ),
        segment_bytes in 128u64..1024,
        segment_pick in 0usize..64,
        byte_pick in 0u64..65536,
        bit in 0u8..8,
    ) {
        let dir = tmpdir("bit-flip");
        write_batch(&dir, &payloads, segment_bytes);

        let segs = segments(&dir);
        let target = &segs[segment_pick % segs.len()];
        let mut bytes = fs::read(target).unwrap();
        prop_assume!(!bytes.is_empty());
        let at = (byte_pick % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        fs::write(target, &bytes).unwrap();

        let (_wal, recovered, report) =
            Wal::open(&dir, opts(segment_bytes), None).unwrap();
        prop_assert!(
            !report.is_clean(),
            "a flipped bit at {target:?}+{at} went unnoticed"
        );
        prop_assert!(recovered.len() <= payloads.len());
        assert_no_invented_records(&recovered, &payloads);
        let _ = fs::remove_dir_all(&dir);
    }
}
