//! UR3e power-telemetry simulation.
//!
//! RAD's power dataset comes from the UR3e's real-time monitoring API:
//! 122 physical properties sampled every 40 ms (25 Hz). This crate is
//! the substitute for that hardware: a first-order dynamics model of
//! the six-joint arm that turns trajectories into joint-current
//! profiles with the properties §VI demonstrates —
//!
//! - each trajectory has a *unique, repeatable* current signature
//!   (Fig. 7a/7b),
//! - amplitude grows with commanded velocity while duration shrinks
//!   (Fig. 7c),
//! - heavier payloads draw more current (Fig. 7d).
//!
//! # Examples
//!
//! ```
//! use rad_power::{TrajectorySegment, Ur3e};
//!
//! let arm = Ur3e::new();
//! let home = [0.0, -1.2, 1.0, -1.4, -1.5, 0.0];
//! let target = [0.8, -0.9, 0.7, -1.2, -1.5, 0.3];
//! let segment = TrajectorySegment::joint_move(home, target, 1.0);
//! let profile = arm.current_profile(&[segment], 0.0, 42);
//! assert!(profile.len() > 10, "a ~1 rad move spans many 40 ms ticks");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arm;
pub mod block;
pub mod dynamics;
pub mod kinematics;
pub mod sample;
pub mod signal;
pub mod sink;
pub mod trajectory;

pub use arm::{CurrentProfile, ProfileRequest, Ur3e};
pub use block::{PowerBlock, PowerRow};
pub use dynamics::{JointTorques, Ur3eDynamics};
pub use kinematics::{Elbow, Ur3eKinematics};
pub use sample::PowerSample;
pub use signal::{Moments, PeakStats, StreamingMoments, StreamingPeaks};
pub use sink::{
    accept_chunked, Chunked, CountingPowerSink, Filtered, PowerSink, PowerSinkExt, RecordingMeta,
    DEFAULT_CHUNK_TICKS,
};
pub use trajectory::{TrajectoryPoint, TrajectorySegment};

/// The monitoring period of the UR3e real-time API: 40 ms (25 Hz).
pub const TICK_SECONDS: f64 = 0.040;

/// Number of joints on the UR3e.
pub const JOINTS: usize = 6;
