//! In-memory span recording for the traced run.
//!
//! Spans are taken in the benchmark's own code, around each call into a
//! library layer: `{name, start, end, parent, op}` plus the count of
//! work items the call handled. They stay in memory until the run ends.

use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value as Json};

/// Name of the root span every traced operation opens.
pub const OP: &str = "op";

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, or [`OP`] for an operation's root.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (per-op seed offset) the span belongs to.
    pub op: u32,
    /// Work items the call handled (rows, bytes, commands), 0 if none.
    pub items: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Recorder {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under until [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, op: u32) -> usize {
        self.op = op;
        let index = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
            items: 0,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `open` returned, and any still open inside it.
    pub fn close(&mut self, index: usize) {
        let end_ns = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == index {
                break;
            }
        }
    }

    /// Times `f` as a leaf span under the innermost open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_counted(name, || (f(), 0))
    }

    /// [`Recorder::time`] for a call that reports how many items it
    /// handled.
    pub fn time_counted<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let start_ns = self.now();
        let (value, items) = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: self.op,
            items,
        });
        value
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as a JSON array (microsecond timestamps).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_us": s.start_ns as f64 / 1e3,
                    "end_us": s.end_ns as f64 / 1e3,
                    "parent": s.parent,
                    "op": s.op,
                    "items": s.items,
                })
            })
            .collect();
        std::fs::write(path, Json::Array(spans).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_nest_under_the_open_span() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open(OP, 3);
        let seven = rec.time_counted("layer.call", || (7, 12));
        rec.close(root);
        rec.time("layer.loose", || ());
        assert_eq!(seven, 7);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].op, spans[1].items), (3, 12));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
