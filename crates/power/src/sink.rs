//! Composable sinks and sources for columnar power telemetry.
//!
//! The power-plane mirror of `rad_core::sink`: a [`PowerSink`] accepts
//! [`PowerBlock`]s (plus recording-boundary markers), and the
//! combinators compose the same way the trace plane's do —
//! [`rad_core::sink::Tee`] is reused directly (this module implements
//! [`PowerSink`] for it), while [`Chunked`], [`Filtered`], and
//! [`CountingPowerSink`] are power-specific because they buffer or
//! inspect f64 lanes rather than trace columns.
//!
//! Stored recordings reach a sink stack through [`accept_chunked`] —
//! the one power chunker, which the monitor's drain and in-memory
//! detection both call — in bounded chunks (4096 ticks by default,
//! like the trace plane's 4096-row batches), so no single hand-off
//! between pipeline stages carries more than one chunk; a recording
//! that fits in one chunk is handed over as is.

use rad_core::sink::{first_error, Tee};
use rad_core::{ProcedureKind, RadError, RunId};

use crate::block::{PowerBlock, PowerRow};

/// Default tick count per chunk used by monitor/export hand-off.
pub const DEFAULT_CHUNK_TICKS: usize = 4096;

/// Identity of one power recording flowing through a sink stack.
///
/// Mirrors the fields of the store's `PowerRecording`; sinks that
/// materialize datasets open a new recording on each
/// [`PowerSink::begin_recording`] call and append subsequent blocks to
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingMeta {
    /// Procedure the recording belongs to (P1–P7).
    pub procedure: ProcedureKind,
    /// Run the recording belongs to.
    pub run_id: RunId,
    /// Free-form annotation (e.g. `"velocity=100mm/s"`).
    pub description: String,
}

/// A consumer of columnar power telemetry.
pub trait PowerSink {
    /// Accepts one block of ticks, appending to the open recording.
    fn accept(&mut self, block: &PowerBlock) -> Result<(), RadError>;

    /// Marks the start of a new recording. Buffering adapters flush
    /// pending ticks of the previous recording before forwarding, so
    /// recording boundaries never straddle a chunk.
    fn begin_recording(&mut self, meta: &RecordingMeta) -> Result<(), RadError> {
        let _ = meta;
        Ok(())
    }

    /// Pushes buffered ticks downstream.
    fn flush(&mut self) -> Result<(), RadError> {
        Ok(())
    }

    /// Flushes and finalizes the stream.
    fn finish(&mut self) -> Result<(), RadError> {
        self.flush()
    }
}

impl<S: PowerSink + ?Sized> PowerSink for &mut S {
    fn accept(&mut self, block: &PowerBlock) -> Result<(), RadError> {
        (**self).accept(block)
    }
    fn begin_recording(&mut self, meta: &RecordingMeta) -> Result<(), RadError> {
        (**self).begin_recording(meta)
    }
    fn flush(&mut self) -> Result<(), RadError> {
        (**self).flush()
    }
    fn finish(&mut self) -> Result<(), RadError> {
        (**self).finish()
    }
}

impl<S: PowerSink + ?Sized> PowerSink for Box<S> {
    fn accept(&mut self, block: &PowerBlock) -> Result<(), RadError> {
        (**self).accept(block)
    }
    fn begin_recording(&mut self, meta: &RecordingMeta) -> Result<(), RadError> {
        (**self).begin_recording(meta)
    }
    fn flush(&mut self) -> Result<(), RadError> {
        (**self).flush()
    }
    fn finish(&mut self) -> Result<(), RadError> {
        (**self).finish()
    }
}

/// A bare block accumulates everything it is fed (recording markers
/// are ignored).
impl PowerSink for PowerBlock {
    fn accept(&mut self, block: &PowerBlock) -> Result<(), RadError> {
        self.append(block);
        Ok(())
    }
}

/// Hands `block` to `sink` in pieces of at most `chunk` ticks — the one
/// bounded hand-off of a stored recording.
///
/// A block that fits in `chunk` ticks reaches the sink as one `accept`
/// of the block itself, with no copy. A longer block arrives as
/// consecutive `chunk`-tick pieces (the last may be shorter), copied
/// through one reused buffer. An empty block reaches no `accept`.
/// Neither `begin_recording` nor `finish` is called: the caller owns
/// the recording boundaries.
///
/// # Errors
///
/// Propagates the first sink error; later pieces are not delivered.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn accept_chunked<S: PowerSink + ?Sized>(
    sink: &mut S,
    block: &PowerBlock,
    chunk: usize,
) -> Result<(), RadError> {
    assert!(chunk > 0, "chunk size must be positive");
    if block.is_empty() {
        return Ok(());
    }
    if block.len() <= chunk {
        return sink.accept(block);
    }
    let mut piece = PowerBlock::with_capacity(chunk);
    for start in (0..block.len()).step_by(chunk) {
        piece.clear();
        piece.append_range(block, start, block.len().min(start + chunk));
        sink.accept(&piece)?;
    }
    Ok(())
}

impl<A: PowerSink, B: PowerSink> PowerSink for Tee<A, B> {
    fn accept(&mut self, block: &PowerBlock) -> Result<(), RadError> {
        let (a, b) = self.branches_mut();
        first_error(a.accept(block), b.accept(block))
    }
    fn begin_recording(&mut self, meta: &RecordingMeta) -> Result<(), RadError> {
        let (a, b) = self.branches_mut();
        first_error(a.begin_recording(meta), b.begin_recording(meta))
    }
    fn flush(&mut self) -> Result<(), RadError> {
        let (a, b) = self.branches_mut();
        first_error(a.flush(), b.flush())
    }
    fn finish(&mut self) -> Result<(), RadError> {
        let (a, b) = self.branches_mut();
        first_error(a.finish(), b.finish())
    }
}

/// Re-chunks the tick stream into blocks of a fixed tick count. See
/// [`PowerSinkExt::chunked`].
///
/// Upstream block boundaries disappear; recording boundaries do not —
/// [`PowerSink::begin_recording`] flushes the partial chunk first, so
/// a downstream dataset can attribute every chunk to one recording.
#[derive(Debug)]
pub struct Chunked<S> {
    inner: S,
    capacity: usize,
    buffer: PowerBlock,
}

impl<S> Chunked<S> {
    /// Ticks pre-allocated per chunk buffer, whatever the flush
    /// threshold — huge thresholds grow on demand instead.
    const MAX_PREALLOC_TICKS: usize = DEFAULT_CHUNK_TICKS;

    /// Buffers into chunks of `capacity` ticks before `inner`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: S, capacity: usize) -> Self {
        assert!(capacity > 0, "chunk capacity must be positive");
        Chunked {
            inner,
            capacity,
            buffer: PowerBlock::with_capacity(capacity.min(Self::MAX_PREALLOC_TICKS)),
        }
    }

    /// Consumes the adapter, returning the inner sink. Buffered ticks
    /// are dropped; call [`PowerSink::flush`] first to keep them.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PowerSink> Chunked<S> {
    fn flush_buffer(&mut self) -> Result<(), RadError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let result = self.inner.accept(&self.buffer);
        self.buffer.clear();
        result
    }
}

impl<S: PowerSink> PowerSink for Chunked<S> {
    fn accept(&mut self, block: &PowerBlock) -> Result<(), RadError> {
        let mut start = 0;
        while start < block.len() {
            let take = (self.capacity - self.buffer.len()).min(block.len() - start);
            self.buffer.append_range(block, start, start + take);
            start += take;
            if self.buffer.len() >= self.capacity {
                self.flush_buffer()?;
            }
        }
        Ok(())
    }
    fn begin_recording(&mut self, meta: &RecordingMeta) -> Result<(), RadError> {
        self.flush_buffer()?;
        self.inner.begin_recording(meta)
    }
    fn flush(&mut self) -> Result<(), RadError> {
        self.flush_buffer()?;
        self.inner.flush()
    }
    fn finish(&mut self) -> Result<(), RadError> {
        self.flush_buffer()?;
        self.inner.finish()
    }
}

/// Forwards only ticks matching a row predicate. See
/// [`PowerSinkExt::filtered`].
///
/// Used by the monitor's quiescent-storage policy: the paper stores
/// only a fraction of quiescent entries, so the drain stack drops
/// quiescent ticks row-wise before chunking.
#[derive(Debug)]
pub struct Filtered<S, F> {
    inner: S,
    predicate: F,
}

impl<S, F> Filtered<S, F> {
    /// Keeps ticks for which `predicate` returns `true`.
    pub fn new(inner: S, predicate: F) -> Self {
        Filtered { inner, predicate }
    }

    /// Consumes the adapter, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PowerSink, F: FnMut(&PowerRow<'_>) -> bool> PowerSink for Filtered<S, F> {
    fn accept(&mut self, block: &PowerBlock) -> Result<(), RadError> {
        let mut kept = PowerBlock::new();
        for row in block.iter() {
            if (self.predicate)(&row) {
                kept.push_row(&row);
            }
        }
        if kept.is_empty() {
            return Ok(());
        }
        self.inner.accept(&kept)
    }
    fn begin_recording(&mut self, meta: &RecordingMeta) -> Result<(), RadError> {
        self.inner.begin_recording(meta)
    }
    fn flush(&mut self) -> Result<(), RadError> {
        self.inner.flush()
    }
    fn finish(&mut self) -> Result<(), RadError> {
        self.inner.finish()
    }
}

/// Counts what flows through without storing it (bench/test probe).
#[derive(Debug, Default)]
pub struct CountingPowerSink {
    /// Blocks accepted.
    pub blocks: usize,
    /// Total ticks accepted.
    pub ticks: usize,
    /// Recording boundaries observed.
    pub recordings: usize,
    /// Largest single block seen, in ticks — the peak hand-off size.
    pub max_block_ticks: usize,
}

impl CountingPowerSink {
    /// A fresh counter.
    pub fn new() -> Self {
        CountingPowerSink::default()
    }
}

impl PowerSink for CountingPowerSink {
    fn accept(&mut self, block: &PowerBlock) -> Result<(), RadError> {
        self.blocks += 1;
        self.ticks += block.len();
        self.max_block_ticks = self.max_block_ticks.max(block.len());
        Ok(())
    }
    fn begin_recording(&mut self, _meta: &RecordingMeta) -> Result<(), RadError> {
        self.recordings += 1;
        Ok(())
    }
}

/// Combinator constructors for any [`PowerSink`].
pub trait PowerSinkExt: PowerSink + Sized {
    /// Duplicates the stream into `self` and `other` (first error
    /// wins, both branches always delivered).
    fn tee<B: PowerSink>(self, other: B) -> Tee<Self, B> {
        Tee::new(self, other)
    }

    /// Buffers into `capacity`-tick chunks before `self`.
    fn chunked(self, capacity: usize) -> Chunked<Self> {
        Chunked::new(self, capacity)
    }

    /// Keeps only ticks matching `predicate`.
    fn filtered<F: FnMut(&PowerRow<'_>) -> bool>(self, predicate: F) -> Filtered<Self, F> {
        Filtered::new(self, predicate)
    }
}

impl<S: PowerSink + Sized> PowerSinkExt for S {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::PowerSample;
    use crate::JOINTS;

    fn ticks(n: usize, base: f64) -> PowerBlock {
        let samples: Vec<PowerSample> = (0..n)
            .map(|i| {
                let mut s = PowerSample::quiescent(base + i as f64 * 0.040, [0.1; JOINTS]);
                s.current_actual[0] = base + i as f64;
                s
            })
            .collect();
        PowerBlock::from_samples(&samples)
    }

    fn meta(run: u32) -> RecordingMeta {
        RecordingMeta {
            procedure: ProcedureKind::AutomatedSolubilityN9Ur3e,
            run_id: RunId(run),
            description: format!("run {run}"),
        }
    }

    #[test]
    fn block_sink_accumulates() {
        let mut sink = PowerBlock::new();
        sink.accept(&ticks(3, 0.0)).unwrap();
        sink.accept(&ticks(2, 10.0)).unwrap();
        sink.finish().unwrap();
        assert_eq!(sink.len(), 5);
    }

    #[test]
    fn chunked_rechunks_and_respects_recording_boundaries() {
        let mut counter = CountingPowerSink::new();
        {
            let mut stack = Chunked::new(&mut counter, 4);
            stack.begin_recording(&meta(0)).unwrap();
            stack.accept(&ticks(6, 0.0)).unwrap();
            stack.accept(&ticks(3, 6.0)).unwrap();
            stack.begin_recording(&meta(1)).unwrap();
            stack.accept(&ticks(2, 0.0)).unwrap();
            stack.finish().unwrap();
        }
        // Recording 0: 9 ticks → chunks of 4, 4, then the boundary
        // flushes the trailing 1. Recording 1: one chunk of 2.
        assert_eq!(counter.recordings, 2);
        assert_eq!(counter.ticks, 11);
        assert_eq!(counter.blocks, 4);
        assert_eq!(counter.max_block_ticks, 4);
    }

    #[test]
    fn chunking_preserves_content_and_order() {
        let input = ticks(11, 0.0);
        let mut direct = PowerBlock::new();
        direct.accept(&input).unwrap();
        let mut chunked_out = PowerBlock::new();
        {
            let mut stack = Chunked::new(&mut chunked_out, 3);
            stack.accept(&input).unwrap();
            stack.finish().unwrap();
        }
        assert_eq!(chunked_out, direct);
    }

    /// Keeps every accepted block as it arrived.
    #[derive(Default)]
    struct Pieces(Vec<PowerBlock>);

    impl PowerSink for Pieces {
        fn accept(&mut self, block: &PowerBlock) -> Result<(), RadError> {
            self.0.push(block.clone());
            Ok(())
        }
    }

    #[test]
    fn accept_chunked_hands_a_fitting_block_over_whole() {
        let input = ticks(5, 0.0);
        for chunk in [5, 6, usize::MAX] {
            let mut sink = Pieces::default();
            accept_chunked(&mut sink, &input, chunk).unwrap();
            assert_eq!(sink.0, vec![input.clone()], "chunk={chunk}");
        }
    }

    #[test]
    fn accept_chunked_splits_a_longer_block_into_bounded_pieces() {
        let input = ticks(11, 0.0);
        for chunk in [1, 2, 3, 4, 10] {
            let mut sink = Pieces::default();
            accept_chunked(&mut sink, &input, chunk).unwrap();
            assert_eq!(sink.0.len(), input.len().div_ceil(chunk), "chunk={chunk}");
            assert!(sink.0.iter().all(|p| !p.is_empty() && p.len() <= chunk));
            let mut joined = PowerBlock::new();
            for piece in &sink.0 {
                joined.append(piece);
            }
            assert_eq!(joined, input, "chunk={chunk}");
        }
    }

    #[test]
    fn accept_chunked_delivers_nothing_for_an_empty_block() {
        for chunk in [1, 4, usize::MAX] {
            let mut counter = CountingPowerSink::new();
            accept_chunked(&mut counter, &PowerBlock::new(), chunk).unwrap();
            assert_eq!(counter.blocks, 0, "chunk={chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn accept_chunked_rejects_a_zero_chunk() {
        let _ = accept_chunked(&mut CountingPowerSink::new(), &ticks(3, 0.0), 0);
    }

    #[test]
    fn filtered_drops_rows() {
        let mut quiet = PowerSample::quiescent(0.0, [0.0; JOINTS]);
        quiet.current_actual[0] = 0.1;
        let mut busy = quiet.clone();
        busy.qd_actual[0] = 0.7;
        let block = PowerBlock::from_samples(&[quiet.clone(), busy.clone(), quiet.clone()]);
        let mut out = PowerBlock::new();
        {
            let mut stack = (&mut out).filtered(|r: &PowerRow<'_>| !r.is_quiescent());
            stack.accept(&block).unwrap();
            stack.finish().unwrap();
        }
        assert_eq!(out.to_samples(), vec![busy]);
    }

    #[test]
    fn tee_delivers_to_both_branches() {
        let mut a = PowerBlock::new();
        let mut b = CountingPowerSink::new();
        {
            let mut tee = (&mut a).tee(&mut b);
            tee.begin_recording(&meta(7)).unwrap();
            tee.accept(&ticks(5, 0.0)).unwrap();
            tee.finish().unwrap();
        }
        assert_eq!(a.len(), 5);
        assert_eq!(b.ticks, 5);
        assert_eq!(b.recordings, 1);
    }
}
