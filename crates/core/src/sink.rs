//! Composable sinks and sources: the hand-off contract of the data
//! plane.
//!
//! Every layer of the trace pipeline — middlebox tracer, document
//! store, WAL, CSV export, analysis tokenizers — used to receive
//! traces through its own bespoke call. [`TraceSink`] replaces those
//! hand-offs with one trait speaking [`TraceBatch`]es, plus the run
//! metadata and trace gaps that ride along with a campaign, and
//! [`TraceSource`] is its pull-side dual. Sink *combinators* compose
//! stacks declaratively; the tracer's stack tees a durable WAL sink
//! with a live detector:
//!
//! ```text
//!   Tracer ──▶ tee ──▶ durable WAL sink
//!              │
//!              └─────▶ streaming detector ──▶ alerts
//! ```
//!
//! [`Chunked`] re-chunks a stream into fixed-size batches for any
//! stage that wants them.
//!
//! A batch flows through the stack by reference; each sink reads the
//! columns it cares about. Memory is bounded by the largest batch in
//! flight, never by the campaign.
//!
//! # Examples
//!
//! ```
//! use rad_core::{Command, CommandType, DeviceId, SimInstant, TraceBatch, TraceId, TraceObject};
//! use rad_core::sink::{TraceSink, TraceSinkExt};
//!
//! // TraceBatch is itself a sink (it appends), so a tee into two
//! // batches duplicates the stream.
//! let mut stack = TraceBatch::new().tee(TraceBatch::new());
//! let one = TraceBatch::from_traces(&[TraceObject::builder(
//!     TraceId(0),
//!     SimInstant::EPOCH,
//!     DeviceId::primary(CommandType::Arm.device()),
//!     Command::nullary(CommandType::Arm),
//! )
//! .build()]);
//! stack.accept(&one).unwrap();
//! let (a, b) = stack.into_inner();
//! assert_eq!(a.len(), 1);
//! assert_eq!(b.len(), 1);
//! ```

use crate::batch::TraceBatch;
use crate::error::RadError;
use crate::procedure::RunMetadata;
use crate::trace::{TraceGap, TraceObject};

/// Receives the trace stream batch-wise.
///
/// Implementations must treat `accept` as append-only and must not
/// assume batch boundaries carry meaning — the same stream chunked
/// differently must produce the same final state.
pub trait TraceSink {
    /// Accepts one batch of traces.
    ///
    /// # Errors
    ///
    /// Implementation-defined; combinators propagate the first error.
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError>;

    /// Accepts a trace gap. Default: ignored.
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn accept_gap(&mut self, gap: &TraceGap) -> Result<(), RadError> {
        let _ = gap;
        Ok(())
    }

    /// Accepts a procedure run's metadata. Default: ignored.
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn accept_run(&mut self, run: &RunMetadata) -> Result<(), RadError> {
        let _ = run;
        Ok(())
    }

    /// Pushes buffered state downstream (partial chunks, buffered
    /// writes). Default: no-op.
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn flush(&mut self) -> Result<(), RadError> {
        Ok(())
    }

    /// Signals end-of-stream. Default: delegates to
    /// [`TraceSink::flush`].
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn finish(&mut self) -> Result<(), RadError> {
        self.flush()
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        (**self).accept(batch)
    }
    fn accept_gap(&mut self, gap: &TraceGap) -> Result<(), RadError> {
        (**self).accept_gap(gap)
    }
    fn accept_run(&mut self, run: &RunMetadata) -> Result<(), RadError> {
        (**self).accept_run(run)
    }
    fn flush(&mut self) -> Result<(), RadError> {
        (**self).flush()
    }
    fn finish(&mut self) -> Result<(), RadError> {
        (**self).finish()
    }
}

impl<S: TraceSink + ?Sized> TraceSink for Box<S> {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        (**self).accept(batch)
    }
    fn accept_gap(&mut self, gap: &TraceGap) -> Result<(), RadError> {
        (**self).accept_gap(gap)
    }
    fn accept_run(&mut self, run: &RunMetadata) -> Result<(), RadError> {
        (**self).accept_run(run)
    }
    fn flush(&mut self) -> Result<(), RadError> {
        (**self).flush()
    }
    fn finish(&mut self) -> Result<(), RadError> {
        (**self).finish()
    }
}

/// A [`TraceBatch`] is the simplest sink: it appends everything.
impl TraceSink for TraceBatch {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        self.append(batch);
        Ok(())
    }
}

/// Produces the trace stream batch-wise.
pub trait TraceSource {
    /// The next batch, or `None` at end-of-stream.
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn next_batch(&mut self) -> Result<Option<TraceBatch>, RadError>;

    /// Drains this source into `sink`, returning the number of rows
    /// moved. Calls [`TraceSink::finish`] at end-of-stream.
    ///
    /// # Errors
    ///
    /// Propagates the first source or sink error.
    fn drain_into(&mut self, sink: &mut dyn TraceSink) -> Result<u64, RadError> {
        let mut rows = 0u64;
        while let Some(batch) = self.next_batch()? {
            rows += batch.len() as u64;
            sink.accept(&batch)?;
        }
        sink.finish()?;
        Ok(rows)
    }
}

/// Chunks a slice of traces into fixed-size batches — the adapter
/// from row-oriented storage into the batched plane.
#[derive(Debug)]
pub struct SliceSource<'a> {
    traces: &'a [TraceObject],
    chunk: usize,
    cursor: usize,
}

impl<'a> SliceSource<'a> {
    /// A source over `traces` yielding batches of at most `chunk`
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn new(traces: &'a [TraceObject], chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        SliceSource {
            traces,
            chunk,
            cursor: 0,
        }
    }
}

impl TraceSource for SliceSource<'_> {
    fn next_batch(&mut self) -> Result<Option<TraceBatch>, RadError> {
        if self.cursor >= self.traces.len() {
            return Ok(None);
        }
        let end = (self.cursor + self.chunk).min(self.traces.len());
        let batch = TraceBatch::from_traces(&self.traces[self.cursor..end]);
        self.cursor = end;
        Ok(Some(batch))
    }
}

/// Duplicates the stream into two sinks. See [`TraceSinkExt::tee`].
///
/// Delivery is unconditional: when the first branch errors, the
/// second still receives the payload, and the *first* error is
/// returned. This is what lets a lossy durable mirror fail without
/// starving the in-memory dataset (the middlebox's
/// graceful-degradation policy).
#[derive(Debug)]
pub struct Tee<A, B> {
    a: A,
    b: B,
}

impl<A, B> Tee<A, B> {
    /// Tees the stream into `a` and `b`.
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }

    /// Consumes the tee into its branches.
    pub fn into_inner(self) -> (A, B) {
        (self.a, self.b)
    }

    /// Mutable access to both branches at once. Sibling data planes
    /// (e.g. `rad_power`'s `PowerSink`) reuse this combinator by
    /// implementing their own sink trait over the same struct, which
    /// needs simultaneous `&mut` to both halves.
    pub fn branches_mut(&mut self) -> (&mut A, &mut B) {
        (&mut self.a, &mut self.b)
    }
}

/// First-error-wins merge of two branch results: both branches have
/// already been delivered to; the first error (in branch order) is the
/// one reported. Shared by every `Tee`-shaped combinator in the
/// workspace.
pub fn first_error(a: Result<(), RadError>, b: Result<(), RadError>) -> Result<(), RadError> {
    match (a, b) {
        (Err(e), _) => Err(e),
        (Ok(()), r) => r,
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        first_error(self.a.accept(batch), self.b.accept(batch))
    }
    fn accept_gap(&mut self, gap: &TraceGap) -> Result<(), RadError> {
        first_error(self.a.accept_gap(gap), self.b.accept_gap(gap))
    }
    fn accept_run(&mut self, run: &RunMetadata) -> Result<(), RadError> {
        first_error(self.a.accept_run(run), self.b.accept_run(run))
    }
    fn flush(&mut self) -> Result<(), RadError> {
        first_error(self.a.flush(), self.b.flush())
    }
    fn finish(&mut self) -> Result<(), RadError> {
        first_error(self.a.finish(), self.b.finish())
    }
}

/// Re-chunks the stream into batches of a fixed row count. See
/// [`TraceSinkExt::chunked`].
///
/// Upstream batch boundaries disappear: rows buffer until `capacity`
/// is reached, then flow downstream as one batch. [`TraceSink::flush`]
/// forwards a partial chunk.
#[derive(Debug)]
pub struct Chunked<S> {
    inner: S,
    capacity: usize,
    buffer: TraceBatch,
}

impl<S> Chunked<S> {
    /// Rows pre-allocated per chunk buffer, whatever the flush
    /// threshold — huge thresholds grow on demand instead.
    const MAX_PREALLOC_ROWS: usize = 4096;

    /// Buffers into chunks of `capacity` rows before `inner`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: S, capacity: usize) -> Self {
        assert!(capacity > 0, "chunk capacity must be positive");
        Chunked {
            inner,
            capacity,
            // The capacity is a flush threshold, not an allocation
            // promise: an effectively-unbounded chunk size must not
            // reserve unbounded memory up front.
            buffer: TraceBatch::with_capacity(capacity.min(Self::MAX_PREALLOC_ROWS)),
        }
    }

    /// Consumes the adapter, returning the inner sink. Buffered rows
    /// are dropped; call [`TraceSink::flush`] first to keep them.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for Chunked<S> {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        for row in batch.iter() {
            self.buffer.push_owned(row.to_object());
            if self.buffer.len() >= self.capacity {
                let full = std::mem::replace(
                    &mut self.buffer,
                    TraceBatch::with_capacity(self.capacity.min(Self::MAX_PREALLOC_ROWS)),
                );
                self.inner.accept(&full)?;
            }
        }
        Ok(())
    }
    fn accept_gap(&mut self, gap: &TraceGap) -> Result<(), RadError> {
        self.inner.accept_gap(gap)
    }
    fn accept_run(&mut self, run: &RunMetadata) -> Result<(), RadError> {
        self.inner.accept_run(run)
    }
    fn flush(&mut self) -> Result<(), RadError> {
        if !self.buffer.is_empty() {
            let partial = std::mem::replace(
                &mut self.buffer,
                TraceBatch::with_capacity(self.capacity.min(Self::MAX_PREALLOC_ROWS)),
            );
            self.inner.accept(&partial)?;
        }
        self.inner.flush()
    }
    fn finish(&mut self) -> Result<(), RadError> {
        if !self.buffer.is_empty() {
            let partial = std::mem::replace(
                &mut self.buffer,
                TraceBatch::with_capacity(self.capacity.min(Self::MAX_PREALLOC_ROWS)),
            );
            self.inner.accept(&partial)?;
        }
        self.inner.finish()
    }
}

/// Counts rows, gaps, and runs without storing them — useful as a
/// cheap tee branch and in benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Rows accepted so far.
    pub traces: u64,
    /// Gaps accepted so far.
    pub gaps: u64,
    /// Runs accepted so far.
    pub runs: u64,
    /// Largest single batch seen, in rows.
    pub max_batch_rows: u64,
}

impl TraceSink for CountingSink {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        self.traces += batch.len() as u64;
        self.max_batch_rows = self.max_batch_rows.max(batch.len() as u64);
        Ok(())
    }
    fn accept_gap(&mut self, _gap: &TraceGap) -> Result<(), RadError> {
        self.gaps += 1;
        Ok(())
    }
    fn accept_run(&mut self, _run: &RunMetadata) -> Result<(), RadError> {
        self.runs += 1;
        Ok(())
    }
}

/// Combinator constructors for every sink.
pub trait TraceSinkExt: TraceSink + Sized {
    /// Duplicates the stream into `self` and `other`. Both receive
    /// every payload even when one errors; the first error wins.
    fn tee<B: TraceSink>(self, other: B) -> Tee<Self, B> {
        Tee::new(self, other)
    }

    /// Re-chunks the stream into batches of `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    fn chunked(self, capacity: usize) -> Chunked<Self> {
        Chunked::new(self, capacity)
    }
}

impl<S: TraceSink + Sized> TraceSinkExt for S {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Command, CommandType};
    use crate::device::DeviceId;
    use crate::time::SimInstant;
    use crate::trace::{TraceId, TraceObject};

    fn traces(n: u64) -> Vec<TraceObject> {
        (0..n)
            .map(|i| {
                TraceObject::builder(
                    TraceId(i),
                    SimInstant::from_micros(i * 10),
                    DeviceId::primary(CommandType::Arm.device()),
                    Command::nullary(CommandType::Arm),
                )
                .build()
            })
            .collect()
    }

    /// A sink that fails every accept, for tee semantics.
    struct FailingSink;
    impl TraceSink for FailingSink {
        fn accept(&mut self, _batch: &TraceBatch) -> Result<(), RadError> {
            Err(RadError::Store("sink down".into()))
        }
    }

    #[test]
    fn tee_delivers_to_both_and_returns_first_error() {
        let mut tee = FailingSink.tee(TraceBatch::new());
        let batch = TraceBatch::from_traces(&traces(3));
        let err = tee.accept(&batch).unwrap_err();
        assert!(err.to_string().contains("sink down"));
        let (_, healthy) = tee.into_inner();
        assert_eq!(healthy.len(), 3, "second branch still got the batch");
    }

    #[test]
    fn chunked_rechunks_and_flushes_partials() {
        let mut counting = CountingSink::default().chunked(4);
        let all = traces(10);
        // Feed as three uneven batches; downstream must see 4,4,2.
        let mut src = SliceSource::new(&all, 3);
        let moved = src.drain_into(&mut counting).unwrap();
        assert_eq!(moved, 10);
        let inner = counting.into_inner();
        assert_eq!(inner.traces, 10);
        assert_eq!(inner.max_batch_rows, 4);
    }

    #[test]
    fn slice_source_round_trips_through_a_batch_sink() {
        let all = traces(7);
        let mut collected = TraceBatch::new();
        SliceSource::new(&all, 2)
            .drain_into(&mut collected)
            .unwrap();
        assert_eq!(collected.to_traces(), all);
    }
}
