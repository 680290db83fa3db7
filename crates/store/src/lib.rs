//! Trace storage for the RAD reproduction.
//!
//! The original RATracer logs every intercepted access "to a MongoDB
//! instance or a .csv file" (Fig. 3). This crate provides both halves
//! without external services:
//!
//! - [`segment`] — immutable columnar segment files of trace rows,
//!   standing in for MongoDB. The paper's queries by device,
//!   procedure, run and time are [`TraceQuery`] predicates that a
//!   [`SegmentSet`] pushes down into its scan. Power telemetry is never
//!   sealed: the bundle publishes it as per-recording CSV.
//! - [`DurableStore`] — the crash-safe write path: trace rows plus the
//!   few small JSON documents a campaign keeps (runs, gaps, journal,
//!   cursor), logged through the [`wal`] and sealed into segments at
//!   each checkpoint.
//! - [`csv`] — a small CSV codec with round-trip encoders for trace
//!   objects and power samples.
//! - [`CommandDataset`] / [`PowerDataset`] — the curated dataset
//!   containers that the analyses in `rad-analysis` consume, mirroring
//!   the two halves of RAD described in §IV.
//!
//! # Examples
//!
//! ```
//! use rad_core::{
//!     Command, CommandType, DeviceId, DeviceKind, SimInstant, TraceBatch, TraceId, TraceObject,
//! };
//! use rad_store::{SegmentOptions, SegmentSet, SegmentWriter, TraceQuery};
//!
//! let traces: Vec<TraceObject> = [CommandType::Arm, CommandType::TecanGetStatus]
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, ct)| {
//!         let (id, at) = (TraceId(i as u64), SimInstant::from_micros(i as u64));
//!         let device = DeviceId::primary(ct.device());
//!         TraceObject::builder(id, at, device, Command::nullary(ct)).build()
//!     })
//!     .collect();
//! let dir = std::env::temp_dir().join(format!("rad-store-doc-{}", std::process::id()));
//! SegmentWriter::create(&dir, SegmentOptions::default())?
//!     .seal_traces(&TraceBatch::from_traces(&traces))?;
//! let hits = SegmentSet::open(&dir)?.query(&TraceQuery::new().device(DeviceKind::C9))?;
//! assert_eq!(hits.into_batch().len(), 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), rad_core::RadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod dataset;
pub mod durable;
pub mod export;
pub mod segment;
pub mod wal;

pub use dataset::{CommandDataset, PowerDataset, PowerRecording};
pub use durable::{DocumentId, DurableOptions, DurableSpec, DurableStore};
pub use export::{
    export_rad, export_rad_alerted, import_alerts, import_commands, LoadIssue, LoadReport,
};
pub use segment::{
    SegmentOptions, SegmentReader, SegmentScan, SegmentSet, SegmentWriter, TraceQuery, ZoneMap,
};
pub use wal::{
    atomic_write_file, atomic_write_stream, CrashInjector, CrashPlan, CrashSite, CrashSpec,
    RecoveryReport, WalOptions,
};
