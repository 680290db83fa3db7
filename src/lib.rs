//! RAD — a Rust reproduction of *Arming IDS Researchers with a Robotic
//! Arm Dataset* (DSN 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`core`] — shared vocabulary (devices, the 52-command
//!   grammar, trace objects, procedures, simulated time).
//! - [`devices`] — simulators for the five Hein Lab devices.
//! - [`middlebox`] — the RATracer reproduction: device
//!   virtualization, the middlebox (DIRECT/REMOTE/CLOUD modes) and its
//!   lab service, the trace pipeline, and the 25 Hz power monitor.
//! - [`store`] — the columnar segment store and its queries, the CSV
//!   codec, and the WAL-backed crash-safe persistence layer.
//! - [`power`] — UR3e dynamics and current-profile synthesis.
//! - [`workloads`] — procedures P1–P6, joystick driver,
//!   anomaly injection, and the three-month campaign synthesizer.
//! - [`analysis`] — n-grams, TF-IDF, perplexity language
//!   models, Jenks natural breaks, cross-validation, and metrics.
//!
//! # Quickstart
//!
//! ```
//! use rad::prelude::*;
//!
//! // Synthesize a miniature labeled dataset and fingerprint procedures.
//! let dataset = CampaignBuilder::new(7).supervised_only().build();
//! let runs = dataset.supervised_runs();
//! assert_eq!(runs.len(), 25);
//! ```

pub use rad_analysis as analysis;
pub use rad_core as core;
pub use rad_devices as devices;
pub use rad_middlebox as middlebox;
pub use rad_power as power;
pub use rad_store as store;
pub use rad_workloads as workloads;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use rad_analysis::{
        jenks_two_class, CommandLm, ConfusionMatrix, CrossValidation, HmmDetector, MinedSpec,
        NgramCounter, ParamTokenizer, PerplexityDetector, Smoothing, TfIdf,
    };
    pub use rad_core::{
        Chunked, Command, CommandCategory, CommandType, CountingSink, DeviceId, DeviceKind, Label,
        ProcedureKind, RadError, RunId, RunMetadata, SimClock, SimDuration, SimInstant,
        SliceSource, Tee, TraceBatch, TraceGap, TraceId, TraceMode, TraceObject, TraceRow,
        TraceSink, TraceSinkExt, TraceSource, Value,
    };
    pub use rad_devices::{Device, LabRig};
    pub use rad_middlebox::rpc::{Duplex, FrameCodec, RetryPolicy, Transport};
    pub use rad_middlebox::{
        CollectingSink, DrainReport, DurableSink, FaultPlan, FaultProfile, FaultStats, Faulty,
        FaultyDuplex, GuardPolicy, GuardedMiddlebox, LabService, LatencyModel, Middlebox,
        ModeConfig, ServerConfig, ServerHandle, SocketTransport, TenantSinkStack, Tracer,
        WireCodecKind,
    };
    pub use rad_power::{
        CurrentProfile, Elbow, PowerBlock, PowerRow, PowerSample, PowerSink, PowerSinkExt,
        ProfileRequest, TrajectorySegment, Ur3e, Ur3eKinematics,
    };
    pub use rad_store::{
        CommandDataset, CrashInjector, CrashPlan, CrashSite, DurableOptions, DurableStore,
        LoadIssue, LoadReport, PowerDataset, RecoveryReport, TraceQuery, WalOptions,
    };
    pub use rad_workloads::{
        run_scenario, AttackKind, CampaignBuilder, CampaignScript, DisconnectPolicy, ProcedureRun,
        RemoteCampaign, RemoteSession, RunOptions, ScenarioReport, ScenarioSpec,
    };
}
