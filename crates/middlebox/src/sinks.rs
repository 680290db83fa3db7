//! Store-backed trace sinks: the document-store mirror and the
//! durable WAL sink, as [`TraceSink`] implementations.
//!
//! RATracer logs every intercepted access "to a MongoDB instance or a
//! .csv file" (Fig. 3). These adapters put those destinations on the
//! composable sink plane, so the tracer's fan-out is just a stack —
//! `mirror.tee(durable)` — instead of bespoke per-destination fields.
//! The mirror's document shapes are exactly what the bespoke paths
//! emitted, so a mirror populated through a sink stack is
//! byte-identical to one populated record-by-record. The durable sink
//! keeps whole rows in the store's columnar trace stream instead.

use std::sync::Arc;

use rad_core::{RadError, TraceBatch, TraceGap, TraceRow, TraceSink};
use rad_store::{DocumentStore, DurableStore};
use serde_json::{json, Value as Json};

/// The mirror document for one trace row (collection `"traces"`).
fn trace_doc(row: &TraceRow<'_>) -> Json {
    json!({
        "trace_id": row.id().0,
        "timestamp_us": row.timestamp().as_micros(),
        "device": row.device().kind().to_string(),
        "command": row.command_type().mnemonic(),
        "mode": row.mode().to_string(),
        "exception": row.exception(),
        "response_time_us": row.response_time().as_micros(),
    })
}

/// The mirror document for one trace gap (collection `"gaps"`).
fn gap_doc(gap: &TraceGap) -> Json {
    json!({
        "timestamp_us": gap.timestamp.as_micros(),
        "device": gap.device.kind().to_string(),
        "command": gap.command.mnemonic(),
        "intended_mode": gap.intended_mode.to_string(),
        "reason": gap.reason,
        "run_id": gap.run_id.map(|r| r.0),
    })
}

/// Mirrors every record into a [`DocumentStore`] (`"traces"` /
/// `"gaps"` collections), like RATracer's MongoDB sink. A full mirror
/// failing must not lose the in-memory record, so store errors are
/// swallowed — this sink never reports failure.
#[derive(Debug, Clone)]
pub struct MirrorSink {
    store: Arc<DocumentStore>,
}

impl MirrorSink {
    /// A sink mirroring into `store`.
    pub fn new(store: Arc<DocumentStore>) -> Self {
        MirrorSink { store }
    }

    /// The mirrored store.
    pub fn store(&self) -> &Arc<DocumentStore> {
        &self.store
    }
}

impl TraceSink for MirrorSink {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        for row in batch.iter() {
            // The store only rejects non-objects, which cannot happen
            // here; ignore the result defensively.
            let _ = self.store.insert("traces", trace_doc(&row));
        }
        Ok(())
    }

    fn accept_gap(&mut self, gap: &TraceGap) -> Result<(), RadError> {
        let _ = self.store.insert("gaps", gap_doc(gap));
        Ok(())
    }
}

/// Writes every record through a [`DurableStore`]'s write-ahead log so
/// traces survive a process crash. Each accepted batch is appended to
/// the store's trace stream — whole rows, arguments, return value, run
/// and label included — as one columnar WAL frame; the store's next
/// checkpoint seals it into segment files. Gaps stay `"gaps"`
/// documents. Unlike [`MirrorSink`], failures *are* reported; the
/// caller decides whether to degrade gracefully (the tracer counts
/// them) or abort.
#[derive(Debug, Clone)]
pub struct DurableSink {
    store: Arc<DurableStore>,
}

impl DurableSink {
    /// A sink logging into `store`.
    pub fn new(store: Arc<DurableStore>) -> Self {
        DurableSink { store }
    }

    /// The durable store behind the log.
    pub fn store(&self) -> &Arc<DurableStore> {
        &self.store
    }
}

impl TraceSink for DurableSink {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        self.store.append_traces(batch)
    }

    fn accept_gap(&mut self, gap: &TraceGap) -> Result<(), RadError> {
        self.store.insert("gaps", gap_doc(gap)).map(|_| ())
    }

    fn flush(&mut self) -> Result<(), RadError> {
        self.store.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::{
        Command, CommandType, DeviceId, SimInstant, TraceId, TraceObject, TraceSinkExt,
    };
    use rad_store::Filter;

    fn batch(n: u64) -> TraceBatch {
        TraceBatch::from_traces(
            &(0..n)
                .map(|i| {
                    TraceObject::builder(
                        TraceId(i),
                        SimInstant::from_micros(i * 10),
                        DeviceId::primary(CommandType::Arm.device()),
                        Command::nullary(CommandType::Arm),
                    )
                    .build()
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn mirror_sink_emits_the_legacy_doc_shape() {
        let store = Arc::new(DocumentStore::new());
        let mut sink = MirrorSink::new(Arc::clone(&store));
        sink.accept(&batch(3)).unwrap();
        assert_eq!(store.count("traces", &Filter::all()), 3);
        let docs = store.find("traces", &Filter::eq("trace_id", json!(1)));
        assert_eq!(docs[0]["command"], json!("ARM"));
        assert_eq!(docs[0]["device"], json!("C9"));
        assert_eq!(docs[0]["mode"], json!("DIRECT"));
    }

    #[test]
    fn tee_of_mirror_and_counting_duplicates_the_stream() {
        let store = Arc::new(DocumentStore::new());
        let mut stack = MirrorSink::new(Arc::clone(&store)).tee(rad_core::CountingSink::default());
        stack.accept(&batch(4)).unwrap();
        let (_, counting) = stack.into_inner();
        assert_eq!(counting.traces, 4);
        assert_eq!(store.count("traces", &Filter::all()), 4);
    }

    #[test]
    fn durable_sink_writes_one_frame_per_batch() {
        use rad_store::DurableOptions;
        let dir = std::env::temp_dir().join(format!("rad-sink-frame-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (store, _) = DurableStore::open(&dir, DurableOptions::default()).unwrap();
            let mut sink = DurableSink::new(Arc::new(store));
            sink.accept(&batch(100)).unwrap();
            sink.flush().unwrap();
        }
        let (store, report) = DurableStore::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.records_replayed, 1, "one WAL frame for the batch");
        assert_eq!(store.read_traces().unwrap(), batch(100));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
