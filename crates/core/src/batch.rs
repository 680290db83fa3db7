//! Columnar trace storage: the unit of transfer of the data plane.
//!
//! A [`TraceBatch`] holds trace objects struct-of-arrays style —
//! separate columns for timestamps, device ids, dense command-token
//! ids, argument offsets into a shared arena, return values, sparse
//! exceptions, and run labels — so the pipeline can move thousands of
//! traces per hand-off without cloning per-row allocations, and the
//! analyses can read the dense token-id column directly instead of
//! re-deriving it per trace. [`TraceObject`] remains the row type:
//! [`TraceBatch::get`] yields a cheap borrowed [`TraceRow`] view and
//! [`TraceBatch::materialize`] an owned row when one is needed.
//!
//! # Examples
//!
//! ```
//! use rad_core::{Command, CommandType, DeviceId, DeviceKind, SimInstant, TraceBatch, TraceId,
//!                TraceObject};
//!
//! let mut batch = TraceBatch::new();
//! batch.push_owned(
//!     TraceObject::builder(
//!         TraceId(0),
//!         SimInstant::EPOCH,
//!         DeviceId::primary(DeviceKind::Tecan),
//!         Command::nullary(CommandType::TecanGetStatus),
//!     )
//!     .build(),
//! );
//! assert_eq!(batch.len(), 1);
//! assert_eq!(batch.get(0).command_type(), CommandType::TecanGetStatus);
//! assert_eq!(
//!     batch.command_token_ids()[0] as usize,
//!     CommandType::TecanGetStatus.token_id()
//! );
//! ```

use crate::command::{Command, CommandType};
use crate::device::DeviceId;
use crate::procedure::{Label, ProcedureKind, RunId};
use crate::time::{SimDuration, SimInstant};
use crate::trace::{TraceId, TraceMode, TraceObject};
use crate::value::Value;

/// A struct-of-arrays batch of trace objects.
///
/// Rows keep their insertion order; every column has exactly
/// [`TraceBatch::len`] entries except the argument arena, which is
/// shared and addressed through a prefix-sum offset column, and the
/// exception column, which is sparse (most traces raise nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBatch {
    ids: Vec<u64>,
    timestamps_us: Vec<u64>,
    devices: Vec<DeviceId>,
    /// Dense command-token ids ([`CommandType::token_id`]); `u16` is
    /// plenty for the 52-command vocabulary and keeps the column that
    /// the language models scan hot in cache.
    command_tokens: Vec<u16>,
    /// `arg_offsets[i]..arg_offsets[i+1]` indexes row `i`'s arguments
    /// in `args`; length is always `len() + 1`.
    arg_offsets: Vec<u32>,
    args: Vec<Value>,
    modes: Vec<TraceMode>,
    return_values: Vec<Value>,
    /// Sparse `(row, message)` pairs, ascending by row.
    exceptions: Vec<(u32, String)>,
    response_times_us: Vec<u64>,
    procedures: Vec<ProcedureKind>,
    run_ids: Vec<Option<RunId>>,
    labels: Vec<Label>,
}

// Canonical empty form: the offset column always carries its leading
// sentinel, so empty batches from any constructor compare equal.
impl Default for TraceBatch {
    fn default() -> Self {
        TraceBatch::with_capacity(0)
    }
}

impl TraceBatch {
    /// An empty batch.
    pub fn new() -> Self {
        TraceBatch::default()
    }

    /// An empty batch with row capacity pre-allocated.
    pub fn with_capacity(rows: usize) -> Self {
        let mut arg_offsets = Vec::with_capacity(rows + 1);
        arg_offsets.push(0);
        TraceBatch {
            ids: Vec::with_capacity(rows),
            timestamps_us: Vec::with_capacity(rows),
            devices: Vec::with_capacity(rows),
            command_tokens: Vec::with_capacity(rows),
            arg_offsets,
            args: Vec::new(),
            modes: Vec::with_capacity(rows),
            return_values: Vec::with_capacity(rows),
            exceptions: Vec::new(),
            response_times_us: Vec::with_capacity(rows),
            procedures: Vec::with_capacity(rows),
            run_ids: Vec::with_capacity(rows),
            labels: Vec::with_capacity(rows),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn ensure_offsets(&mut self) {
        if self.arg_offsets.is_empty() {
            self.arg_offsets.push(0);
        }
    }

    /// Appends a row, cloning the trace's heap payloads (arguments,
    /// return value, exception). Prefer [`TraceBatch::push_owned`]
    /// when the caller is done with the row.
    ///
    /// Payloads clone straight into the lanes — arguments land in the
    /// shared arena without an intermediate per-row `Vec`, so batching
    /// a borrowed slice allocates nothing per trace beyond the lane
    /// growth itself.
    pub fn push(&mut self, trace: &TraceObject) {
        self.ensure_offsets();
        self.ids.push(trace.id().0);
        self.timestamps_us.push(trace.timestamp().as_micros());
        self.devices.push(trace.device());
        self.command_tokens
            .push(trace.command_type().token_id() as u16);
        self.args.extend_from_slice(trace.command().args());
        self.arg_offsets.push(self.args.len() as u32);
        self.modes.push(trace.mode());
        self.return_values.push(trace.return_value().clone());
        if let Some(msg) = trace.exception() {
            self.exceptions
                .push((self.ids.len() as u32 - 1, msg.to_string()));
        }
        self.response_times_us
            .push(trace.response_time().as_micros());
        self.procedures.push(trace.procedure());
        self.run_ids.push(trace.run_id());
        self.labels.push(trace.label());
    }

    /// Appends a row, consuming it — no clone of arguments or return
    /// value.
    pub fn push_owned(&mut self, trace: TraceObject) {
        self.ensure_offsets();
        let (id, ts, device, command, mode, ret, exception, rt, procedure, run_id, label) =
            trace.into_raw();
        let (command_type, mut args) = command.into_parts();
        self.ids.push(id.0);
        self.timestamps_us.push(ts.as_micros());
        self.devices.push(device);
        self.command_tokens.push(command_type.token_id() as u16);
        self.args.append(&mut args);
        self.arg_offsets.push(self.args.len() as u32);
        self.modes.push(mode);
        self.return_values.push(ret);
        if let Some(msg) = exception {
            self.exceptions.push((self.ids.len() as u32 - 1, msg));
        }
        self.response_times_us.push(rt.as_micros());
        self.procedures.push(procedure);
        self.run_ids.push(run_id);
        self.labels.push(label);
    }

    /// Borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> TraceRow<'_> {
        assert!(i < self.len(), "row {i} out of bounds (len {})", self.len());
        TraceRow {
            batch: self,
            row: i,
        }
    }

    /// Owned [`TraceObject`] for row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn materialize(&self, i: usize) -> TraceObject {
        self.get(i).to_object()
    }

    /// Iterates borrowed row views in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = TraceRow<'_>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Builds a batch from a slice of rows.
    pub fn from_traces(traces: &[TraceObject]) -> Self {
        let mut batch = TraceBatch::with_capacity(traces.len());
        for t in traces {
            batch.push(t);
        }
        batch
    }

    /// Materializes every row.
    pub fn to_traces(&self) -> Vec<TraceObject> {
        (0..self.len()).map(|i| self.materialize(i)).collect()
    }

    /// Appends every row of `other`, preserving order.
    pub fn append(&mut self, other: &TraceBatch) {
        self.ensure_offsets();
        let base_args = self.args.len() as u32;
        let base_rows = self.len() as u32;
        self.ids.extend_from_slice(&other.ids);
        self.timestamps_us.extend_from_slice(&other.timestamps_us);
        self.devices.extend_from_slice(&other.devices);
        self.command_tokens.extend_from_slice(&other.command_tokens);
        self.arg_offsets
            .extend(other.arg_offsets.iter().skip(1).map(|o| o + base_args));
        self.args.extend_from_slice(&other.args);
        self.modes.extend_from_slice(&other.modes);
        self.return_values.extend_from_slice(&other.return_values);
        self.exceptions.extend(
            other
                .exceptions
                .iter()
                .map(|(row, msg)| (row + base_rows, msg.clone())),
        );
        self.response_times_us
            .extend_from_slice(&other.response_times_us);
        self.procedures.extend_from_slice(&other.procedures);
        self.run_ids.extend_from_slice(&other.run_ids);
        self.labels.extend_from_slice(&other.labels);
    }

    /// Appends every row of `other`, consuming it — argument, return
    /// value, and exception payloads move instead of cloning, so the
    /// splice is a handful of `memcpy`s regardless of how much heap
    /// the rows carry.
    pub fn append_owned(&mut self, mut other: TraceBatch) {
        self.ensure_offsets();
        let base_args = self.args.len() as u32;
        let base_rows = self.len() as u32;
        self.ids.append(&mut other.ids);
        self.timestamps_us.append(&mut other.timestamps_us);
        self.devices.append(&mut other.devices);
        self.command_tokens.append(&mut other.command_tokens);
        self.arg_offsets
            .extend(other.arg_offsets.iter().skip(1).map(|o| o + base_args));
        self.args.append(&mut other.args);
        self.modes.append(&mut other.modes);
        self.return_values.append(&mut other.return_values);
        self.exceptions.extend(
            other
                .exceptions
                .into_iter()
                .map(|(row, msg)| (row + base_rows, msg)),
        );
        self.response_times_us.append(&mut other.response_times_us);
        self.procedures.append(&mut other.procedures);
        self.run_ids.append(&mut other.run_ids);
        self.labels.append(&mut other.labels);
    }

    /// Removes every row, retaining allocations — the natural reset
    /// for a reused per-chunk scratch batch.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.timestamps_us.clear();
        self.devices.clear();
        self.command_tokens.clear();
        self.arg_offsets.clear();
        self.arg_offsets.push(0);
        self.args.clear();
        self.modes.clear();
        self.return_values.clear();
        self.exceptions.clear();
        self.response_times_us.clear();
        self.procedures.clear();
        self.run_ids.clear();
        self.labels.clear();
    }

    /// The dense command-token column ([`CommandType::token_id`] per
    /// row) — what the language models consume directly.
    pub fn command_token_ids(&self) -> &[u16] {
        &self.command_tokens
    }

    /// Command type of row `i` (decoded from the dense column).
    pub fn command_type(&self, i: usize) -> CommandType {
        CommandType::from_token_id(self.command_tokens[i] as usize)
            .expect("token ids in a batch are valid by construction")
    }

    /// The timestamp column, in microseconds since the epoch.
    pub fn timestamps_us(&self) -> &[u64] {
        &self.timestamps_us
    }

    /// The device column.
    pub fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// The run-id column.
    pub fn run_ids(&self) -> &[Option<RunId>] {
        &self.run_ids
    }

    /// The label column.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The procedure column.
    pub fn procedures(&self) -> &[ProcedureKind] {
        &self.procedures
    }

    /// Approximate heap memory held by the batch's columns, in bytes.
    /// Used by the benches to show peak memory tracks batch size, not
    /// campaign size.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<u64>()
            + self.timestamps_us.capacity() * size_of::<u64>()
            + self.devices.capacity() * size_of::<DeviceId>()
            + self.command_tokens.capacity() * size_of::<u16>()
            + self.arg_offsets.capacity() * size_of::<u32>()
            + self.args.capacity() * size_of::<Value>()
            + self.modes.capacity() * size_of::<TraceMode>()
            + self.return_values.capacity() * size_of::<Value>()
            + self.exceptions.capacity() * size_of::<(u32, String)>()
            + self.response_times_us.capacity() * size_of::<u64>()
            + self.procedures.capacity() * size_of::<ProcedureKind>()
            + self.run_ids.capacity() * size_of::<Option<RunId>>()
            + self.labels.capacity() * size_of::<Label>()
    }

    fn exception_of(&self, row: usize) -> Option<&str> {
        self.exceptions
            .binary_search_by_key(&(row as u32), |(r, _)| *r)
            .ok()
            .map(|idx| self.exceptions[idx].1.as_str())
    }

    fn args_of(&self, row: usize) -> &[Value] {
        let start = self.arg_offsets[row] as usize;
        let end = self.arg_offsets[row + 1] as usize;
        &self.args[start..end]
    }

    /// The trace-id column.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The capture-mode column.
    pub fn modes(&self) -> &[TraceMode] {
        &self.modes
    }

    /// The return-value column.
    pub fn return_values(&self) -> &[Value] {
        &self.return_values
    }

    /// The response-time column, in microseconds.
    pub fn response_times_us(&self) -> &[u64] {
        &self.response_times_us
    }

    /// The argument-offset column: `arg_offsets()[i]..arg_offsets()[i+1]`
    /// indexes row `i`'s arguments in [`TraceBatch::arg_values`]. Always
    /// `len() + 1` entries (a lone `0` for an empty batch).
    pub fn arg_offsets(&self) -> &[u32] {
        if self.arg_offsets.is_empty() {
            // A default-constructed batch has no offset sentinel yet.
            &[0]
        } else {
            &self.arg_offsets
        }
    }

    /// The shared argument arena addressed by
    /// [`TraceBatch::arg_offsets`].
    pub fn arg_values(&self) -> &[Value] {
        &self.args
    }

    /// The sparse exception column: `(row, message)` pairs, ascending
    /// by row.
    pub fn exception_rows(&self) -> &[(u32, String)] {
        &self.exceptions
    }

    /// Rebuilds a batch from raw columns — the decode half of a
    /// columnar serializer. Inverse of reading the individual column
    /// accessors on the encode side.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RadError::Store`] when the columns are not a
    /// coherent batch: mismatched column lengths, a non-monotonic or
    /// mis-sized offset column, out-of-range token ids, or exception
    /// rows that are unsorted or out of bounds.
    pub fn from_columns(columns: TraceColumns) -> Result<TraceBatch, crate::RadError> {
        let TraceColumns {
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
        } = columns;
        let rows = ids.len();
        let fail = |reason: String| Err(crate::RadError::Store(reason));
        let lanes = [
            ("timestamps_us", timestamps_us.len()),
            ("devices", devices.len()),
            ("command_tokens", command_tokens.len()),
            ("modes", modes.len()),
            ("return_values", return_values.len()),
            ("response_times_us", response_times_us.len()),
            ("procedures", procedures.len()),
            ("run_ids", run_ids.len()),
            ("labels", labels.len()),
        ];
        for (name, len) in lanes {
            if len != rows {
                return fail(format!("column `{name}` has {len} rows, expected {rows}"));
            }
        }
        if arg_offsets.len() != rows + 1 {
            return fail(format!(
                "arg_offsets has {} entries, expected {}",
                arg_offsets.len(),
                rows + 1
            ));
        }
        if arg_offsets.first() != Some(&0) {
            return fail("arg_offsets must start at 0".to_owned());
        }
        if arg_offsets.windows(2).any(|w| w[0] > w[1]) {
            return fail("arg_offsets must be non-decreasing".to_owned());
        }
        if *arg_offsets.last().expect("non-empty by construction") as usize != args.len() {
            return fail(format!(
                "arg_offsets end at {} but arena holds {} values",
                arg_offsets.last().expect("non-empty by construction"),
                args.len()
            ));
        }
        if let Some(&tok) = command_tokens
            .iter()
            .find(|&&t| CommandType::from_token_id(t as usize).is_none())
        {
            return fail(format!("unknown command token id {tok}"));
        }
        if exceptions.windows(2).any(|w| w[0].0 >= w[1].0) {
            return fail("exception rows must be strictly ascending".to_owned());
        }
        if exceptions.last().is_some_and(|(r, _)| *r as usize >= rows) {
            return fail("exception row out of bounds".to_owned());
        }
        Ok(TraceBatch {
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
    }

    /// Gathers the given rows into a new batch, column-wise — no
    /// per-row [`TraceObject`] materialization. Row indices may repeat
    /// and appear in any order; output order follows `rows`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, rows: &[usize]) -> TraceBatch {
        let mut out = TraceBatch::with_capacity(rows.len());
        for &i in rows {
            assert!(i < self.len(), "row {i} out of bounds (len {})", self.len());
            out.ids.push(self.ids[i]);
            out.timestamps_us.push(self.timestamps_us[i]);
            out.devices.push(self.devices[i]);
            out.command_tokens.push(self.command_tokens[i]);
            out.args.extend_from_slice(self.args_of(i));
            out.arg_offsets.push(out.args.len() as u32);
            out.modes.push(self.modes[i]);
            out.return_values.push(self.return_values[i].clone());
            if let Some(msg) = self.exception_of(i) {
                out.exceptions
                    .push((out.ids.len() as u32 - 1, msg.to_owned()));
            }
            out.response_times_us.push(self.response_times_us[i]);
            out.procedures.push(self.procedures[i]);
            out.run_ids.push(self.run_ids[i]);
            out.labels.push(self.labels[i]);
        }
        out
    }

    /// Copies the contiguous rows `range` into a new batch — one range
    /// copy per column, no per-row work. Equals
    /// `select(&range.collect::<Vec<_>>())` row for row: argument
    /// offsets are rebased to 0 and exception rows renumbered from 0.
    ///
    /// # Panics
    ///
    /// Panics if `range.start > range.end` or `range.end > len()`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> TraceBatch {
        let std::ops::Range { start, end } = range;
        assert!(
            start <= end && end <= self.len(),
            "rows {start}..{end} out of bounds (len {})",
            self.len()
        );
        let offsets = &self.arg_offsets()[start..=end];
        let base = offsets[0];
        let exceptions = {
            let first = self
                .exceptions
                .partition_point(|(row, _)| (*row as usize) < start);
            let last = self
                .exceptions
                .partition_point(|(row, _)| (*row as usize) < end);
            self.exceptions[first..last]
                .iter()
                .map(|(row, msg)| (row - start as u32, msg.clone()))
                .collect()
        };
        TraceBatch {
            ids: self.ids[start..end].to_vec(),
            timestamps_us: self.timestamps_us[start..end].to_vec(),
            devices: self.devices[start..end].to_vec(),
            command_tokens: self.command_tokens[start..end].to_vec(),
            arg_offsets: offsets.iter().map(|o| o - base).collect(),
            args: self.args[base as usize..offsets[end - start] as usize].to_vec(),
            modes: self.modes[start..end].to_vec(),
            return_values: self.return_values[start..end].to_vec(),
            exceptions,
            response_times_us: self.response_times_us[start..end].to_vec(),
            procedures: self.procedures[start..end].to_vec(),
            run_ids: self.run_ids[start..end].to_vec(),
            labels: self.labels[start..end].to_vec(),
        }
    }

    /// The first row at which `self` and `other` differ, comparing
    /// their common rows column by column without materializing any
    /// row; `None` when every common row is equal. Rows past the
    /// shorter batch are not compared.
    pub fn first_difference(&self, other: &TraceBatch) -> Option<usize> {
        fn first<T: PartialEq>(a: &[T], b: &[T], end: usize) -> usize {
            a[..end]
                .iter()
                .zip(&b[..end])
                .position(|(x, y)| x != y)
                .unwrap_or(end)
        }
        let rows = self.len().min(other.len());
        let mut end = first(&self.ids, &other.ids, rows);
        end = first(&self.timestamps_us, &other.timestamps_us, end);
        end = first(&self.devices, &other.devices, end);
        end = first(&self.command_tokens, &other.command_tokens, end);
        end = first(&self.modes, &other.modes, end);
        end = first(&self.return_values, &other.return_values, end);
        end = first(&self.response_times_us, &other.response_times_us, end);
        end = first(&self.procedures, &other.procedures, end);
        end = first(&self.run_ids, &other.run_ids, end);
        end = first(&self.labels, &other.labels, end);
        // The argument arena and the sparse exception column, row by row.
        end = (0..end)
            .find(|&i| {
                self.args_of(i) != other.args_of(i) || self.exception_of(i) != other.exception_of(i)
            })
            .unwrap_or(end);
        (end < rows).then_some(end)
    }
}

/// Raw columns for [`TraceBatch::from_columns`] — the decode-side
/// counterpart of the batch's column accessors. Field semantics match
/// the accessors of the same name.
#[derive(Debug, Clone, Default)]
#[allow(missing_docs)]
pub struct TraceColumns {
    pub ids: Vec<u64>,
    pub timestamps_us: Vec<u64>,
    pub devices: Vec<DeviceId>,
    pub command_tokens: Vec<u16>,
    pub arg_offsets: Vec<u32>,
    pub args: Vec<Value>,
    pub modes: Vec<TraceMode>,
    pub return_values: Vec<Value>,
    pub exceptions: Vec<(u32, String)>,
    pub response_times_us: Vec<u64>,
    pub procedures: Vec<ProcedureKind>,
    pub run_ids: Vec<Option<RunId>>,
    pub labels: Vec<Label>,
}

impl From<Vec<TraceObject>> for TraceBatch {
    fn from(traces: Vec<TraceObject>) -> Self {
        let mut batch = TraceBatch::with_capacity(traces.len());
        for t in traces {
            batch.push_owned(t);
        }
        batch
    }
}

impl From<TraceBatch> for Vec<TraceObject> {
    fn from(batch: TraceBatch) -> Self {
        batch.to_traces()
    }
}

impl FromIterator<TraceObject> for TraceBatch {
    fn from_iter<I: IntoIterator<Item = TraceObject>>(iter: I) -> Self {
        let mut batch = TraceBatch::new();
        for t in iter {
            batch.push_owned(t);
        }
        batch
    }
}

/// A borrowed row view into a [`TraceBatch`], mirroring the accessor
/// surface of [`TraceObject`] without materializing one.
#[derive(Debug, Clone, Copy)]
pub struct TraceRow<'a> {
    batch: &'a TraceBatch,
    row: usize,
}

impl<'a> TraceRow<'a> {
    /// Row index within the batch.
    pub fn row(&self) -> usize {
        self.row
    }

    /// Dataset-wide identifier.
    pub fn id(&self) -> TraceId {
        TraceId(self.batch.ids[self.row])
    }

    /// Simulated time at which the command was issued.
    pub fn timestamp(&self) -> SimInstant {
        SimInstant::from_micros(self.batch.timestamps_us[self.row])
    }

    /// Target device instance.
    pub fn device(&self) -> DeviceId {
        self.batch.devices[self.row]
    }

    /// Command type, decoded from the dense token column.
    pub fn command_type(&self) -> CommandType {
        self.batch.command_type(self.row)
    }

    /// Dense command-token id ([`CommandType::token_id`]).
    pub fn command_token_id(&self) -> u16 {
        self.batch.command_tokens[self.row]
    }

    /// Positional arguments (borrowed from the shared arena).
    pub fn args(&self) -> &'a [Value] {
        self.batch.args_of(self.row)
    }

    /// Capture mode.
    pub fn mode(&self) -> TraceMode {
        self.batch.modes[self.row]
    }

    /// Logged return value.
    pub fn return_value(&self) -> &'a Value {
        &self.batch.return_values[self.row]
    }

    /// Logged exception message, if the call raised.
    pub fn exception(&self) -> Option<&'a str> {
        self.batch.exception_of(self.row)
    }

    /// End-to-end response time observed by the lab computer.
    pub fn response_time(&self) -> SimDuration {
        SimDuration::from_micros(self.batch.response_times_us[self.row])
    }

    /// Procedure type this command belongs to.
    pub fn procedure(&self) -> ProcedureKind {
        self.batch.procedures[self.row]
    }

    /// Supervised run id, if any.
    pub fn run_id(&self) -> Option<RunId> {
        self.batch.run_ids[self.row]
    }

    /// Ground-truth label inherited from the run.
    pub fn label(&self) -> Label {
        self.batch.labels[self.row]
    }

    /// Materializes an owned [`TraceObject`] for this row.
    pub fn to_object(&self) -> TraceObject {
        TraceObject::from_raw(
            self.id(),
            self.timestamp(),
            self.device(),
            Command::new(self.command_type(), self.args().to_vec()),
            self.mode(),
            self.return_value().clone(),
            self.exception().map(str::to_owned),
            self.response_time(),
            self.procedure(),
            self.run_id(),
            self.label(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64, ct: CommandType, args: Vec<Value>) -> TraceObject {
        let mut b = TraceObject::builder(
            TraceId(id),
            SimInstant::from_micros(1_000 * id),
            DeviceId::primary(ct.device()),
            Command::new(ct, args),
        )
        .mode(TraceMode::Remote)
        .return_value(Value::Bool(true))
        .response_time(SimDuration::from_millis(3));
        if id.is_multiple_of(2) {
            b = b.run(
                ProcedureKind::JoystickMovements,
                RunId(id as u32),
                Label::Benign,
            );
        }
        if id.is_multiple_of(3) {
            b = b.exception("boom");
        }
        b.build()
    }

    fn samples() -> Vec<TraceObject> {
        vec![
            sample(0, CommandType::Arm, vec![Value::Int(7)]),
            sample(1, CommandType::TecanGetStatus, vec![]),
            sample(2, CommandType::Mvng, vec![Value::Str("a".into())]),
            sample(3, CommandType::IkaSetSpeed, vec![Value::Float(1.5)]),
        ]
    }

    #[test]
    fn round_trips_losslessly() {
        let traces = samples();
        let batch = TraceBatch::from_traces(&traces);
        assert_eq!(batch.len(), traces.len());
        assert_eq!(batch.to_traces(), traces);
    }

    #[test]
    fn row_view_matches_materialized_object() {
        let traces = samples();
        let batch = TraceBatch::from_traces(&traces);
        for (i, t) in traces.iter().enumerate() {
            let row = batch.get(i);
            assert_eq!(row.id(), t.id());
            assert_eq!(row.timestamp(), t.timestamp());
            assert_eq!(row.device(), t.device());
            assert_eq!(row.command_type(), t.command_type());
            assert_eq!(row.args(), t.command().args());
            assert_eq!(row.mode(), t.mode());
            assert_eq!(row.return_value(), t.return_value());
            assert_eq!(row.exception(), t.exception());
            assert_eq!(row.response_time(), t.response_time());
            assert_eq!(row.procedure(), t.procedure());
            assert_eq!(row.run_id(), t.run_id());
            assert_eq!(row.label(), t.label());
        }
    }

    #[test]
    fn append_preserves_order_args_and_exceptions() {
        let traces = samples();
        let mut a = TraceBatch::from_traces(&traces[..2]);
        let b = TraceBatch::from_traces(&traces[2..]);
        a.append(&b);
        assert_eq!(a.to_traces(), traces);
    }

    #[test]
    fn owned_append_equals_borrowed_append() {
        let traces = samples();
        let mut borrowed = TraceBatch::from_traces(&traces[..2]);
        borrowed.append(&TraceBatch::from_traces(&traces[2..]));
        let mut owned = TraceBatch::from_traces(&traces[..2]);
        owned.append_owned(TraceBatch::from_traces(&traces[2..]));
        assert_eq!(owned, borrowed);
        assert_eq!(owned.to_traces(), traces);
    }

    #[test]
    fn clear_retains_nothing_but_stays_usable() {
        let mut batch = TraceBatch::from_traces(&samples());
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&sample(9, CommandType::Grip, vec![Value::Int(2)]));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.get(0).command_type(), CommandType::Grip);
        assert_eq!(batch.get(0).exception(), Some("boom"));
    }

    #[test]
    fn token_column_is_dense_and_decodable() {
        let batch = TraceBatch::from_traces(&samples());
        for (i, &tok) in batch.command_token_ids().iter().enumerate() {
            assert_eq!(
                CommandType::from_token_id(tok as usize).unwrap(),
                batch.get(i).command_type()
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rejects_an_end_past_the_batch() {
        let batch = TraceBatch::from_traces(&samples());
        let _ = batch.slice(2..batch.len() + 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[allow(clippy::reversed_empty_ranges)]
    fn slice_rejects_an_inverted_range() {
        let _ = TraceBatch::from_traces(&samples()).slice(3..1);
    }

    #[test]
    fn first_difference_names_the_earliest_differing_row() {
        let batch = TraceBatch::from_traces(&samples());
        assert_eq!(batch.first_difference(&batch), None);
        assert_eq!(batch.first_difference(&batch.slice(0..2)), None, "prefix");
        assert_eq!(batch.slice(1..1).first_difference(&batch), None, "empty");

        let row = |id: u64, args: Vec<Value>, exception: Option<&str>| {
            let mut b = TraceObject::builder(
                TraceId(id),
                SimInstant::from_micros(id),
                DeviceId::primary(CommandType::Arm.device()),
                Command::new(CommandType::Arm, args),
            );
            if let Some(e) = exception {
                b = b.exception(e);
            }
            b.build()
        };
        let base = TraceBatch::from_traces(&[
            row(0, vec![], None),
            row(1, vec![Value::Int(1)], Some("boom")),
            row(2, vec![], None),
            row(3, vec![], None),
        ]);
        let differs_at = |changed: &[(usize, TraceObject)]| {
            let mut rows = base.to_traces();
            for (i, t) in changed {
                rows[*i] = t.clone();
            }
            TraceBatch::from_traces(&rows).first_difference(&base)
        };
        // A dense column, the argument arena, and the sparse exception
        // column, gained and lost.
        assert_eq!(differs_at(&[(2, row(9, vec![], None))]), Some(2));
        assert_eq!(
            differs_at(&[(1, row(1, vec![Value::Int(2)], Some("boom")))]),
            Some(1)
        );
        assert_eq!(differs_at(&[(3, row(3, vec![], Some("late")))]), Some(3));
        assert_eq!(
            differs_at(&[(1, row(1, vec![Value::Int(1)], None))]),
            Some(1)
        );
        // The earliest of several differences wins.
        assert_eq!(
            differs_at(&[
                (3, row(3, vec![Value::Unit], None)),
                (2, row(2, vec![], Some("x")))
            ]),
            Some(2)
        );
    }
}
