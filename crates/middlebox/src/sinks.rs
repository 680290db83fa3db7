//! The store-backed trace sink: the durable WAL sink, as a
//! [`TraceSink`] implementation.
//!
//! RATracer logs every intercepted access "to a MongoDB instance or a
//! .csv file" (Fig. 3). [`DurableSink`] puts the durable store on the
//! composable sink plane, so the tracer's fan-out is just a stack —
//! `durable.tee(detector)` — instead of bespoke per-destination
//! fields. It keeps whole rows in the store's columnar trace stream,
//! which checkpoints seal into queryable segments.

use std::sync::Arc;

use rad_core::{RadError, TraceBatch, TraceGap, TraceSink};
use rad_store::DurableStore;
use serde_json::{json, Value as Json};

/// The document for one trace gap (collection `"gaps"`).
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

/// Writes every record through a [`DurableStore`]'s write-ahead log so
/// traces survive a process crash. Each accepted batch is appended to
/// the store's trace stream — whole rows, arguments, return value, run
/// and label included — as one columnar WAL frame; the store's next
/// checkpoint seals it into segment files. Gaps stay `"gaps"`
/// documents. Failures are reported; the caller decides whether to
/// degrade gracefully (the tracer counts them) or abort.
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
    use rad_core::{Command, CommandType, DeviceId, SimInstant, TraceId, TraceObject};

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
