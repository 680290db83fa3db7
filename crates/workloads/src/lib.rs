//! Workload generation: the procedures of §IV and the three-month
//! campaign behind RAD.
//!
//! - [`session`] — the glue layer between procedure scripts and the
//!   middlebox: busy-poll loops (`MVNG`, `Q`), power-monitored UR3e
//!   moves, operator think time.
//! - [`procedures`] — P1 (Automated Solubility with N9), P2 (with N9
//!   and UR3e), P3 (Crystal Solubility), P4 (joystick), P5/P6 (the
//!   velocity and payload power experiments), each with the run
//!   variants §V narrates (the joystick-heavy run 12, the crashes of
//!   runs 16/17/22, the operator stop of run 18).
//! - [`campaign`] — the synthesizer that reproduces the 25 supervised
//!   runs plus the unsupervised long tail with Fig. 5(a)'s per-device
//!   trace mix.
//! - [`remote`] — the campaign-over-socket driver: replays a seeded
//!   campaign script against a live lab service over any transport,
//!   with jittered retries, kill-and-reconnect resume, and degraded
//!   mode ([`rad_core::TraceGap`] per command) when the link dies.
//! - [`scenario`] — the declarative plane: whole campaigns as strict
//!   JSON documents ([`ScenarioSpec`]), executed headless by
//!   [`run_scenario`] and the `rad` binary, with golden parity pinning
//!   spec-built campaigns byte-identical to hand-wired ones.
//! - [`cli`] — the minimal argv parsing the `rad` and `radd` binaries
//!   share.
//!
//! # Examples
//!
//! ```
//! use rad_workloads::CampaignBuilder;
//!
//! let dataset = CampaignBuilder::new(7).supervised_only().build();
//! assert_eq!(dataset.supervised_runs().len(), 25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod campaign;
pub mod cli;
pub mod detect;
pub mod procedures;
pub mod remote;
pub mod scenario;
pub mod session;

pub use attacks::{AttackKind, AttackTrace};
pub use campaign::{CampaignBuilder, CampaignDataset, CampaignSpec, ProcedureRun};
pub use detect::{
    benchmark_streaming_detector, detect_campaign, detect_campaign_spec, fit_detector, DetectSpec,
    DetectionOutcome, PowerAlertConfig,
};
pub use procedures::{P1Variant, P2Variant, P3Variant, SOLIDS};
pub use remote::{
    CampaignScript, DisconnectPolicy, DriveReport, RemoteCampaign, RemoteSession, ScriptStep,
    TenantSpec,
};
pub use scenario::{run_scenario, RunOptions, ScenarioReport, ScenarioSpec, TransportSpec};
pub use session::{RunEnd, Session};
