//! Shared vocabulary for the RAD reproduction.
//!
//! This crate defines the types that every other crate in the workspace
//! speaks: the five simulated Hein Lab devices ([`DeviceKind`]), the 52
//! command types reconstructed from Fig. 5(a) of the paper
//! ([`CommandType`]), the trace-object schema produced by the RATracer
//! middlebox ([`TraceObject`]), the supervised procedure taxonomy P1–P6
//! ([`ProcedureKind`]), and a deterministic simulated clock ([`SimClock`]).
//!
//! # Examples
//!
//! ```
//! use rad_core::{CommandType, DeviceKind};
//!
//! // Every command type belongs to exactly one device.
//! assert_eq!(CommandType::Arm.device(), DeviceKind::C9);
//! assert_eq!(CommandType::all().len(), 52);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod batch;
pub mod command;
pub mod device;
pub mod error;
pub mod par;
pub mod procedure;
pub mod sink;
pub mod spec;
pub mod time;
pub mod trace;
pub mod value;

pub use alert::{Alert, AlertSink, SharedAlerts};
pub use batch::{TraceBatch, TraceColumns, TraceRow};
pub use command::{Command, CommandCategory, CommandType};
pub use device::{DeviceId, DeviceKind};
pub use error::{DeviceFault, RadError};
pub use procedure::{AnomalyCause, Label, ProcedureKind, RunId, RunMetadata};
pub use sink::{Chunked, CountingSink, SliceSource, Tee, TraceSink, TraceSinkExt, TraceSource};
pub use time::{SimClock, SimDuration, SimInstant};
pub use trace::{TraceGap, TraceId, TraceMode, TraceObject};
pub use value::Value;
