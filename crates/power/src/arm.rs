//! The assembled UR3e power model: trajectories → telemetry.
//!
//! [`Ur3e`] drives the trapezoidal [`TrajectorySegment`] planner through
//! the [`Ur3eDynamics`] torque/current model and emits 25 Hz telemetry
//! — the simulated counterpart of RATracer's power monitor (Fig. 3,
//! bottom). Synthesis is columnar: it declares the 67 lanes a motion
//! holds constant, so the [`PowerBlock`] stores each of their distinct
//! values once, and writes only the 55 lanes that vary (kinematics,
//! torques, currents, noise) in place, evaluating the dynamics once per
//! tick (deriving both the torque and current lanes from the same
//! torque vector). The row-oriented loop is kept as
//! [`Ur3e::current_profile_rows`] — the bench baseline and golden
//! oracle; the columnar path is bitwise identical to it.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::block::{lane, PowerBlock};
use crate::dynamics::Ur3eDynamics;
use crate::sample::PowerSample;
use crate::trajectory::{TrajectoryPoint, TrajectorySegment};
use crate::{JOINTS, TICK_SECONDS};

/// Measurement noise applied to actual currents (A, uniform half-width).
const CURRENT_NOISE_A: f64 = 0.03;
/// Joint-position encoder noise (rad, uniform half-width).
const POSITION_NOISE_RAD: f64 = 2e-4;

/// Minimum synthesis ticks per worker before
/// [`Ur3e::current_profiles_par`] fans out. Columnar synthesis runs at
/// roughly 100–200 ns/tick, so 8192 ticks is ~1–2 ms of work per
/// thread — an order of magnitude above scoped-thread spawn/join cost.
pub const MIN_SYNTH_TICKS_PER_THREAD: usize = 8192;

/// Reads one six-joint field of a trajectory point.
type PointField = fn(&TrajectoryPoint) -> [f64; JOINTS];

/// The purely kinematic six-joint lane groups, each with the point
/// field it copies.
const KINEMATIC_LANES: [(usize, PointField); 5] = [
    (lane::Q_TARGET, |p| p.q),
    (lane::QD_TARGET, |p| p.qd),
    (lane::QD_ACTUAL, |p| p.qd),
    (lane::QDD_TARGET, |p| p.qdd),
    (lane::QDD_ACTUAL, |p| p.qdd),
];

/// The simulated UR3e power plant.
///
/// # Examples
///
/// ```
/// use rad_power::{Ur3e, TrajectorySegment};
///
/// let arm = Ur3e::new();
/// let seg = TrajectorySegment::joint_move(
///     Ur3e::named_pose(0),
///     Ur3e::named_pose(1),
///     0.8,
/// );
/// let profile = arm.current_profile(&[seg], 0.5, 1);
/// // Same seed, same trajectory: bitwise-identical telemetry.
/// let again = arm.current_profile(&[TrajectorySegment::joint_move(
///     Ur3e::named_pose(0),
///     Ur3e::named_pose(1),
///     0.8,
/// )], 0.5, 1);
/// assert_eq!(profile.joint_current(1), again.joint_current(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ur3e {
    dynamics: Ur3eDynamics,
}

impl Ur3e {
    /// A UR3e with the default dynamics parameters.
    pub fn new() -> Self {
        Ur3e {
            dynamics: Ur3eDynamics::new(),
        }
    }

    /// A UR3e with custom dynamics (used by the ablation benches).
    pub fn with_dynamics(dynamics: Ur3eDynamics) -> Self {
        Ur3e { dynamics }
    }

    /// The dynamics parameters in use.
    pub fn dynamics(&self) -> &Ur3eDynamics {
        &self.dynamics
    }

    /// The six named deck poses L0–L5 used by the P2 solubility
    /// procedure (Fig. 7a moves the arm L0→L1→…→L5). Each pose is a
    /// distinct joint vector, so each leg has a distinct current
    /// signature.
    ///
    /// # Panics
    ///
    /// Panics if `index > 5`.
    pub fn named_pose(index: usize) -> [f64; JOINTS] {
        const POSES: [[f64; JOINTS]; 6] = [
            // L0: home above the storage rack
            [0.00, -1.30, 1.10, -1.37, -1.57, 0.00],
            // L1: deep reach down into the rack, elbow folded
            [0.15, -0.55, 1.85, -2.07, -1.57, 0.15],
            // L2: high lift toward the Quantos, elbow extended
            [1.10, -1.60, 0.60, -1.37, -1.57, 1.10],
            // L3: into the Quantos doorway
            [1.35, -0.70, 1.15, -2.00, -1.57, 1.35],
            // L4: tucked clear of the door
            [0.90, -2.00, 2.10, -0.92, -1.57, 0.90],
            // L5: back toward home, arm outstretched
            [0.40, -1.10, 0.45, -1.37, -1.57, 0.40],
        ];
        POSES[index]
    }

    /// Ticks a profile for `segments` will contain (matches
    /// `sample_at`'s `ceil + 1` per segment).
    pub fn profile_ticks(segments: &[TrajectorySegment]) -> usize {
        segments
            .iter()
            .map(|s| (s.duration() / TICK_SECONDS).ceil() as usize + 1)
            .sum()
    }

    /// Simulates the telemetry stream for a sequence of moves executed
    /// back-to-back while carrying `payload_kg`, with measurement noise
    /// derived from `seed`.
    ///
    /// Columnar synthesis: the block is built with the lanes that
    /// `PowerSample::quiescent` holds constant during a motion declared
    /// as repeated, so each distinct constant is stored once; per tick,
    /// the dynamics are evaluated once and scattered into the varying
    /// lanes in place. Bitwise identical to
    /// [`Ur3e::current_profile_rows`].
    pub fn current_profile(
        &self,
        segments: &[TrajectorySegment],
        payload_kg: f64,
        seed: u64,
    ) -> CurrentProfile {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut block = PowerBlock::with_repeated_lanes(
            Self::profile_ticks(segments),
            constant_motion_lanes(payload_kg),
        );
        let mut lanes = block.owned_lanes_mut();
        let [timestamp] = varying(&mut lanes, lane::TIMESTAMP);
        let current_target: [_; JOINTS] = varying(&mut lanes, lane::CURRENT_TARGET);
        let moment: [_; JOINTS] = varying(&mut lanes, lane::MOMENT_ACTUAL);
        let q_actual: [_; JOINTS] = varying(&mut lanes, lane::Q_ACTUAL);
        let current_actual: [_; JOINTS] = varying(&mut lanes, lane::CURRENT_ACTUAL);
        let mut kinematic =
            KINEMATIC_LANES.map(|(base, field)| (varying::<JOINTS>(&mut lanes, base), field));
        let mut t_offset = 0.0;
        let mut first = 0;
        for segment in segments {
            let points = segment.sample_at(TICK_SECONDS);
            let ticks = first..first + points.len();
            // Tick-major pass for everything RNG- or dynamics-ordered:
            // the dynamics are evaluated once per tick (the row loop
            // evaluates them twice), and the noise draws interleave
            // q/current per joint exactly like the row-oriented
            // reference loop — the RNG stream must stay aligned for
            // bit-identity. Torque, ideal-current, and noise values
            // go straight into their final lanes (25 write streams);
            // the purely kinematic lanes are filled lane-major below,
            // where each is one sequential pass over the points.
            for (tick, point) in ticks.clone().zip(&points) {
                let tau = self.dynamics.torques(point, payload_kg);
                let ideal = self.dynamics.currents_from_torques(&tau);
                timestamp[tick] = t_offset + point.t;
                for j in 0..JOINTS {
                    current_target[j][tick] = ideal[j];
                    moment[j][tick] = tau.0[j];
                }
                for j in 0..JOINTS {
                    q_actual[j][tick] =
                        point.q[j] + rng.gen_range(-POSITION_NOISE_RAD..POSITION_NOISE_RAD);
                    current_actual[j][tick] =
                        ideal[j] + rng.gen_range(-CURRENT_NOISE_A..CURRENT_NOISE_A);
                }
            }
            for (group, field) in &mut kinematic {
                for (j, dst) in group.iter_mut().enumerate() {
                    for (v, p) in dst[ticks.clone()].iter_mut().zip(&points) {
                        *v = field(p)[j];
                    }
                }
            }
            first = ticks.end;
            t_offset += segment.duration();
        }
        debug_assert_eq!(first, block.len(), "profile_ticks matches sample_at");
        CurrentProfile { block }
    }

    /// The original row-oriented synthesis loop, kept verbatim as the
    /// bench baseline and the golden oracle for the columnar
    /// [`Ur3e::current_profile`] (which must match it bitwise).
    #[allow(clippy::needless_range_loop)] // parallel per-joint arrays
    pub fn current_profile_rows(
        &self,
        segments: &[TrajectorySegment],
        payload_kg: f64,
        seed: u64,
    ) -> Vec<PowerSample> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut samples = Vec::new();
        let mut t_offset = 0.0;
        for segment in segments {
            let points = segment.sample_at(TICK_SECONDS);
            for point in &points {
                let ideal = self.dynamics.currents(point, payload_kg);
                let torques = self.dynamics.torques(point, payload_kg).0;
                let mut sample = PowerSample::quiescent(t_offset + point.t, point.q);
                sample.q_target = point.q;
                sample.qd_target = point.qd;
                sample.qd_actual = point.qd;
                sample.qdd_target = point.qdd;
                sample.qdd_actual = point.qdd;
                sample.current_target = ideal;
                sample.moment_actual = torques;
                sample.payload_mass = payload_kg;
                for j in 0..JOINTS {
                    sample.q_actual[j] =
                        point.q[j] + rng.gen_range(-POSITION_NOISE_RAD..POSITION_NOISE_RAD);
                    sample.current_actual[j] =
                        ideal[j] + rng.gen_range(-CURRENT_NOISE_A..CURRENT_NOISE_A);
                }
                samples.push(sample);
            }
            t_offset += segment.duration();
        }
        samples
    }

    /// Simulates `ticks` of quiescent telemetry with the arm parked at
    /// `pose` (used to model the paper's quiescent-period storage
    /// policy). Only the timestamp and the six noisy actual currents
    /// vary; every other lane is declared repeated.
    pub fn quiescent_profile(
        &self,
        pose: [f64; JOINTS],
        ticks: usize,
        seed: u64,
    ) -> CurrentProfile {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let parked = (0..JOINTS).flat_map(|j| {
            [
                (lane::Q_TARGET + j, pose[j]),
                (lane::Q_ACTUAL + j, pose[j]),
                (lane::QD_TARGET + j, 0.0),
                (lane::QD_ACTUAL + j, 0.0),
                (lane::QDD_TARGET + j, 0.0),
                (lane::QDD_ACTUAL + j, 0.0),
                (lane::CURRENT_TARGET + j, 0.0),
                (lane::MOMENT_ACTUAL + j, 0.0),
            ]
        });
        let mut block =
            PowerBlock::with_repeated_lanes(ticks, parked.chain(constant_motion_lanes(0.0)));
        let mut lanes = block.owned_lanes_mut();
        let [timestamp] = varying(&mut lanes, lane::TIMESTAMP);
        let mut current_actual: [_; JOINTS] = varying(&mut lanes, lane::CURRENT_ACTUAL);
        for i in 0..ticks {
            timestamp[i] = i as f64 * TICK_SECONDS;
            for (series, idle) in current_actual.iter_mut().zip(self.dynamics.idle_current) {
                series[i] = idle + rng.gen_range(-CURRENT_NOISE_A..CURRENT_NOISE_A);
            }
        }
        CurrentProfile { block }
    }

    /// The original row-oriented quiescent loop, kept as the golden
    /// oracle for the columnar [`Ur3e::quiescent_profile`].
    pub fn quiescent_profile_rows(
        &self,
        pose: [f64; JOINTS],
        ticks: usize,
        seed: u64,
    ) -> Vec<PowerSample> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..ticks)
            .map(|i| {
                let mut s = PowerSample::quiescent(i as f64 * TICK_SECONDS, pose);
                for j in 0..JOINTS {
                    s.current_actual[j] = self.dynamics.idle_current[j]
                        + rng.gen_range(-CURRENT_NOISE_A..CURRENT_NOISE_A);
                }
                s
            })
            .collect()
    }

    /// Synthesizes many independent profiles, fanning out over scoped
    /// threads when the per-worker tick count clears the measured
    /// break-even threshold (sequential otherwise — see
    /// `rad_core::par`).
    ///
    /// Each request carries its own noise seed, so every profile is a
    /// pure function of its request; workers take contiguous request
    /// chunks and results are joined in request order, making the
    /// output bit-identical to the sequential loop regardless of
    /// scheduling.
    pub fn current_profiles_par(&self, requests: &[ProfileRequest]) -> Vec<CurrentProfile> {
        let total_ticks: usize = requests
            .iter()
            .map(|r| Self::profile_ticks(&r.segments))
            .sum();
        if !rad_core::par::should_fan_out(requests.len(), total_ticks, MIN_SYNTH_TICKS_PER_THREAD) {
            return requests
                .iter()
                .map(|r| self.current_profile(&r.segments, r.payload_kg, r.seed))
                .collect();
        }
        let workers = rad_core::par::max_workers().min(requests.len());
        let chunk = requests.len().div_ceil(workers);
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = requests
                .chunks(chunk)
                .map(|reqs| {
                    s.spawn(move || {
                        reqs.iter()
                            .map(|r| self.current_profile(&r.segments, r.payload_kg, r.seed))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("synthesis worker panicked"))
                .collect()
        })
    }
}

/// One synthesis request for [`Ur3e::current_profiles_par`].
#[derive(Debug, Clone)]
pub struct ProfileRequest {
    /// Moves executed back-to-back.
    pub segments: Vec<TrajectorySegment>,
    /// Payload carried at the tool (kg).
    pub payload_kg: f64,
    /// Noise seed for this profile.
    pub seed: u64,
}

/// Takes the `N` consecutive varying lanes from `base` out of
/// [`PowerBlock::owned_lanes_mut`]'s array.
///
/// # Panics
///
/// Panics if one of them was declared repeated or was already taken.
fn varying<'a, const N: usize>(
    lanes: &mut [Option<&'a mut [f64]>],
    base: usize,
) -> [&'a mut [f64]; N] {
    std::array::from_fn(|j| {
        lanes[base + j]
            .take()
            .expect("a varying lane owns its slot")
    })
}

/// The lanes that [`PowerSample::quiescent`] holds constant during a
/// motion, with their values: the one list both synthesis paths
/// declare as repeated. Values mirror the `quiescent` constructor (the
/// row path's starting point), so the columnar result stays bitwise
/// identical to the row path.
fn constant_motion_lanes(payload_kg: f64) -> impl Iterator<Item = (usize, f64)> {
    let joints = (0..JOINTS).flat_map(|j| {
        [
            (lane::JOINT_TEMPERATURE + j, 28.0),
            (lane::JOINT_VOLTAGE + j, 48.0),
            (lane::JOINT_MODE + j, 255.0),
        ]
    });
    // All five TCP vectors and both elbow vectors are zero.
    let zeros = (lane::TCP_POSE_TARGET..lane::TOOL_ACCELEROMETER)
        .chain(lane::ELBOW_POSITION..lane::ROBOT_VOLTAGE)
        .map(|l| (l, 0.0));
    joints.chain(zeros).chain([
        (lane::TOOL_ACCELEROMETER, 0.0),
        (lane::TOOL_ACCELEROMETER + 1, 0.0),
        (lane::TOOL_ACCELEROMETER + 2, -9.81),
        (lane::ROBOT_VOLTAGE, 48.0),
        (lane::ROBOT_CURRENT, 0.5),
        (lane::PAYLOAD_MASS, payload_kg),
        (lane::SPEED_SCALING, 1.0),
        (lane::DIGITAL_INPUTS, 0.0),
        (lane::DIGITAL_OUTPUTS, 0.0),
        (lane::SAFETY_STATUS, 1.0),
        (lane::RUNTIME_STATE, 1.0),
        (lane::ROBOT_MODE, 7.0),
        (lane::TOOL_OUTPUT_VOLTAGE, 0.0),
    ])
}

/// A recorded 25 Hz telemetry stream, stored columnar.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CurrentProfile {
    block: PowerBlock,
}

impl CurrentProfile {
    /// Wraps an existing row-form sample stream.
    pub fn from_samples(samples: Vec<PowerSample>) -> Self {
        CurrentProfile {
            block: PowerBlock::from_samples(&samples),
        }
    }

    /// Wraps an existing columnar block.
    pub fn from_block(block: PowerBlock) -> Self {
        CurrentProfile { block }
    }

    /// The underlying columnar block.
    pub fn block(&self) -> &PowerBlock {
        &self.block
    }

    /// Consumes the profile, returning its block.
    pub fn into_block(self) -> PowerBlock {
        self.block
    }

    /// Appends raw ticks without timestamp shifting (sink-built
    /// datasets accumulate chunks of one recording this way; contrast
    /// [`CurrentProfile::extend`]).
    pub fn append_block(&mut self, block: &PowerBlock) {
        self.block.append(block);
    }

    /// Materializes every tick into row form.
    pub fn to_samples(&self) -> Vec<PowerSample> {
        self.block.to_samples()
    }

    /// Consumes the profile, materializing its samples.
    pub fn into_samples(self) -> Vec<PowerSample> {
        self.block.to_samples()
    }

    /// Number of 40 ms ticks recorded.
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// Total recorded duration in seconds.
    pub fn duration(&self) -> f64 {
        self.block.len() as f64 * TICK_SECONDS
    }

    /// The actual-current lane of one joint, zero-copy.
    ///
    /// # Panics
    ///
    /// Panics if `joint >= 6`.
    pub fn current_lane(&self, joint: usize) -> &[f64] {
        self.block.current_lane(joint)
    }

    /// The actual-current time series of one joint (owned; see
    /// [`CurrentProfile::current_lane`] for the zero-copy form).
    ///
    /// # Panics
    ///
    /// Panics if `joint >= 6`.
    pub fn joint_current(&self, joint: usize) -> Vec<f64> {
        self.block.current_lane(joint).to_vec()
    }

    /// Appends another profile, shifting its timestamps to follow this
    /// one.
    pub fn extend(&mut self, other: &CurrentProfile) {
        let offset = self.duration();
        let start = self.block.len();
        self.block.append(&other.block);
        for t in &mut self.block.lane_mut(lane::TIMESTAMP)[start..] {
            *t += offset;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal;

    fn leg(from: usize, to: usize, v: f64) -> TrajectorySegment {
        TrajectorySegment::joint_move(Ur3e::named_pose(from), Ur3e::named_pose(to), v)
    }

    #[test]
    fn profile_ticks_match_duration() {
        let arm = Ur3e::new();
        let seg = leg(0, 1, 1.0);
        let expected_ticks = (seg.duration() / TICK_SECONDS).ceil() as usize + 1;
        let profile = arm.current_profile(&[seg], 0.0, 0);
        assert_eq!(profile.len(), expected_ticks);
    }

    #[test]
    fn columnar_synthesis_matches_row_oracle_bitwise() {
        let arm = Ur3e::new();
        for (payload, seed) in [(0.0, 0), (0.5, 7), (1.0, 42)] {
            let segments = [leg(0, 1, 1.0), leg(1, 2, 0.6)];
            let columnar = arm.current_profile(&segments, payload, seed);
            let rows = arm.current_profile_rows(&segments, payload, seed);
            assert_eq!(columnar.block(), &PowerBlock::from_samples(&rows));
        }
    }

    #[test]
    fn columnar_quiescent_matches_row_oracle_bitwise() {
        let arm = Ur3e::new();
        let columnar = arm.quiescent_profile(Ur3e::named_pose(3), 57, 11);
        let rows = arm.quiescent_profile_rows(Ur3e::named_pose(3), 57, 11);
        assert_eq!(columnar.block(), &PowerBlock::from_samples(&rows));
    }

    #[test]
    fn parallel_synthesis_is_bit_identical_to_sequential() {
        let arm = Ur3e::new();
        let requests: Vec<ProfileRequest> = (0..6)
            .map(|i| ProfileRequest {
                segments: vec![leg(i % 5, i % 5 + 1, 0.8)],
                payload_kg: 0.1 * i as f64,
                seed: 1000 + i as u64,
            })
            .collect();
        let sequential: Vec<CurrentProfile> = requests
            .iter()
            .map(|r| arm.current_profile(&r.segments, r.payload_kg, r.seed))
            .collect();
        let parallel = arm.current_profiles_par(&requests);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn same_seed_is_reproducible_different_seed_is_not() {
        let arm = Ur3e::new();
        let a = arm
            .current_profile(&[leg(0, 1, 1.0)], 0.0, 5)
            .joint_current(1);
        let b = arm
            .current_profile(&[leg(0, 1, 1.0)], 0.0, 5)
            .joint_current(1);
        let c = arm
            .current_profile(&[leg(0, 1, 1.0)], 0.0, 6)
            .joint_current(1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn legs_are_identifiable_by_their_signatures() {
        // Fig. 7a: each L_i -> L_{i+1} move has its own current shape,
        // identical across iterations. The operational claim is that a
        // rerun of a leg matches itself better than it matches any
        // other leg.
        let arm = Ur3e::new();
        let reference: Vec<Vec<f64>> = (0..5)
            .map(|i| {
                arm.current_profile(&[leg(i, i + 1, 1.0)], 0.0, 9)
                    .joint_current(1)
            })
            .collect();
        let rerun: Vec<Vec<f64>> = (0..5)
            .map(|i| {
                arm.current_profile(&[leg(i, i + 1, 1.0)], 0.0, 77)
                    .joint_current(1)
            })
            .collect();
        for (i, run) in rerun.iter().enumerate() {
            let own = signal::shape_correlation(run, &reference[i]).unwrap();
            for (j, other) in reference.iter().enumerate() {
                if i != j {
                    let cross = signal::shape_correlation(run, other).unwrap();
                    assert!(
                        own > cross,
                        "leg {i}: self-correlation {own} not above cross-correlation {cross} with leg {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn same_leg_is_repeatable_across_noise_seeds() {
        // Fig. 7b: the same trajectory correlates > 0.97 across runs.
        let arm = Ur3e::new();
        let a = arm
            .current_profile(&[leg(2, 3, 1.0)], 0.0, 1)
            .joint_current(1);
        let b = arm
            .current_profile(&[leg(2, 3, 1.0)], 0.0, 2)
            .joint_current(1);
        let r = signal::pearson(&a, &b).unwrap();
        assert!(r > 0.97, "repeatability correlation {r}");
    }

    #[test]
    fn heavier_payload_draws_more_current() {
        // Fig. 7d.
        let arm = Ur3e::new();
        let light = arm
            .current_profile(&[leg(0, 2, 0.8)], 0.020, 3)
            .joint_current(1);
        let heavy = arm
            .current_profile(&[leg(0, 2, 0.8)], 1.000, 3)
            .joint_current(1);
        assert!(signal::mean_abs(&heavy) > signal::mean_abs(&light));
    }

    #[test]
    fn faster_moves_are_shorter_with_larger_swings() {
        // Fig. 7c: amplitude grows with velocity, duration shrinks; the
        // base joint (no gravity) shows the friction/inertia scaling.
        let arm = Ur3e::new();
        let slow = arm.current_profile(&[leg(0, 2, 0.4)], 0.0, 4);
        let fast = arm.current_profile(&[leg(0, 2, 1.0)], 0.0, 4);
        assert!(fast.len() < slow.len());
        let slow_amp = signal::peak_to_peak(&slow.joint_current(0));
        let fast_amp = signal::peak_to_peak(&fast.joint_current(0));
        assert!(fast_amp > slow_amp, "fast {fast_amp} vs slow {slow_amp}");
    }

    #[test]
    fn quiescent_profile_is_quiescent() {
        let arm = Ur3e::new();
        let p = arm.quiescent_profile(Ur3e::named_pose(0), 100, 0);
        assert_eq!(p.len(), 100);
        assert!(p.block().iter().all(|r| r.is_quiescent()));
    }

    #[test]
    fn extend_shifts_timestamps() {
        let arm = Ur3e::new();
        let mut a = arm.quiescent_profile(Ur3e::named_pose(0), 10, 0);
        let b = arm.quiescent_profile(Ur3e::named_pose(0), 10, 1);
        a.extend(&b);
        assert_eq!(a.len(), 20);
        let ts = a.block().lane(lane::TIMESTAMP);
        for w in ts.windows(2) {
            assert!(w[1] > w[0], "timestamps strictly increase");
        }
    }

    #[test]
    fn multi_segment_profile_concatenates() {
        let arm = Ur3e::new();
        let two = arm.current_profile(&[leg(0, 1, 1.0), leg(1, 2, 1.0)], 0.0, 7);
        let one = arm.current_profile(&[leg(0, 1, 1.0)], 0.0, 7);
        assert!(two.len() > one.len());
        assert!(two.duration() > one.duration());
    }
}
