//! RATracer, reproduced: interception, the trusted middlebox, and the
//! trace pipeline.
//!
//! The original RATracer virtualizes the Python classes on the data
//! collection boundary (monkey patching), relays every device command
//! through a trusted middlebox over gRPC, and logs every access. This
//! crate reproduces that architecture in Rust:
//!
//! - [`LatencyModel`] — per-hop latency distributions calibrated to the
//!   paper's Fig. 4 (DIRECT < 10 ms, REMOTE ≈ DIRECT + 2 ms with an
//!   occasional > 30 ms tail, CLOUD ≈ 60 ms).
//! - [`rpc`] — the gRPC substitute's transport layer: length-prefixed
//!   frames, in-process duplex transports behind the [`rpc::Transport`]
//!   trait, the idempotent-replay cache, and the client retry policy.
//! - [`Middlebox`] — the deterministic simulation path used by the
//!   dataset synthesizer: it routes commands per-device according to a
//!   [`ModeConfig`] (DIRECT / REMOTE / CLOUD, hybrids allowed, exactly
//!   as §III describes), samples transport latency, executes on the
//!   simulated rig, and logs a [`rad_core::TraceObject`] for every
//!   access — including faults, which surface as logged exceptions.
//! - [`faults`] — seeded, deterministic fault injection for the relay
//!   path: a [`FaultPlan`] schedules drop / duplicate / reorder /
//!   corrupt / delay / disconnect events per chunk, a
//!   [`FaultyDuplex`] applies them to a live transport, and the client,
//!   the lab service, and [`Middlebox`] recover via retries, idempotent
//!   replay, and DIRECT-fallback with [`rad_core::TraceGap`] markers.
//! - [`server`] — the lab service, the one middlebox server: a framed
//!   protocol over TCP, Unix-domain sockets, or any in-process
//!   [`rpc::Transport`], with a bounded worker pool, typed admission
//!   control, per-tenant durable sink stacks behind bounded
//!   backpressure channels, deadline propagation, idle reaping,
//!   quarantine, and graceful zero-loss drain.
//! - [`PowerMonitor`] — the 25 Hz UR3e power monitor of Fig. 3
//!   (bottom).
//!
//! # Examples
//!
//! ```
//! use rad_core::{Command, CommandType};
//! use rad_middlebox::Middlebox;
//!
//! let mut mb = Middlebox::new(1);
//! mb.issue(&Command::nullary(CommandType::InitC9))?;
//! mb.issue(&Command::nullary(CommandType::Home))?;
//! let dataset = mb.into_dataset();
//! assert_eq!(dataset.len(), 2);
//! # Ok::<(), rad_core::RadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod guard;
pub mod latency;
pub mod middlebox;
pub mod monitor;
pub mod rpc;
pub mod server;
pub mod sinks;
pub mod tracer;
pub mod wire;

pub use faults::{
    FaultPlan, FaultProfile, FaultSpec, FaultStats, FaultStatsSnapshot, Faulty, FaultyDuplex, Lane,
    WireFault,
};
pub use guard::{Alert, GuardPolicy, GuardedMiddlebox, Violation};
pub use latency::LatencyModel;
pub use middlebox::{IssueOutcome, Middlebox, ModeConfig};
pub use monitor::PowerMonitor;
pub use server::{
    CollectingSink, DrainReport, LabService, ReplyFrame, ServerConfig, ServerHandle, ServerStats,
    ServerStatsSnapshot, SinkFactory, SocketTransport, TenantDrain, TenantSinkStack, WireFrame,
    WireReply, WireRequest,
};
pub use sinks::DurableSink;
pub use tracer::Tracer;
pub use wire::WireCodecKind;
