//! A lab session: the glue between procedure scripts and the
//! middlebox.
//!
//! [`Session`] wraps a [`Middlebox`] plus the UR3e [`PowerMonitor`] and
//! exposes the idioms the Hein Lab's Python wrappers use: issue a
//! command and poll the device's completion flag (`MVNG` on the N9,
//! `Q` on the Tecan), wait out a heater ramp, or run a UR3e move while
//! the 25 Hz power monitor records it.

use rad_core::{Command, CommandType, Label, ProcedureKind, RadError, RunId, SimDuration, Value};
use rad_middlebox::{Middlebox, PowerMonitor};
use rad_power::{TrajectorySegment, Ur3e};
use rad_store::{CommandDataset, PowerDataset};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The result of running one procedure script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// The script ran to completion.
    Completed,
    /// The operator stopped the run early (benign, §IV: e.g. wrong
    /// vials staged).
    OperatorStop,
    /// A collision aborted the run (anomalous).
    Crashed,
}

/// An in-progress simulated lab session.
#[derive(Debug)]
pub struct Session {
    middlebox: Middlebox,
    monitor: PowerMonitor,
    rng: ChaCha8Rng,
    ur3e_joints: [f64; 6],
    current_run: Option<RunId>,
    current_procedure: ProcedureKind,
}

impl Session {
    /// Starts a session over a fresh rig.
    pub fn new(seed: u64) -> Self {
        Session {
            middlebox: Middlebox::new(seed),
            monitor: PowerMonitor::new(seed.wrapping_mul(0x5851_f42d_4c95_7f2d)),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xdead_beef),
            ur3e_joints: Ur3e::named_pose(0),
            current_run: None,
            current_procedure: ProcedureKind::Unknown,
        }
    }

    /// Starts a session over an existing middlebox (custom modes or
    /// latency models).
    pub fn with_middlebox(middlebox: Middlebox, seed: u64) -> Self {
        Session {
            middlebox,
            monitor: PowerMonitor::new(seed.wrapping_mul(0x5851_f42d_4c95_7f2d)),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xdead_beef),
            ur3e_joints: Ur3e::named_pose(0),
            current_run: None,
            current_procedure: ProcedureKind::Unknown,
        }
    }

    /// The wrapped middlebox.
    pub fn middlebox(&self) -> &Middlebox {
        &self.middlebox
    }

    /// Mutable middlebox access (anomaly staging).
    pub fn middlebox_mut(&mut self) -> &mut Middlebox {
        &mut self.middlebox
    }

    /// Session RNG (workload parameter jitter).
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// Opens a labelled run.
    pub fn begin_run(&mut self, run_id: RunId, procedure: ProcedureKind, label: Label) {
        self.middlebox.begin_run(run_id, procedure, label);
        self.current_run = Some(run_id);
        self.current_procedure = procedure;
    }

    /// Attaches an operator note to the active run.
    pub fn annotate(&mut self, note: &str) {
        self.middlebox.annotate_run(note);
    }

    /// Closes the active run.
    pub fn end_run(&mut self) {
        self.middlebox.end_run();
        self.current_run = None;
        self.current_procedure = ProcedureKind::Unknown;
    }

    /// Issues a command, propagating any fault.
    ///
    /// # Errors
    ///
    /// Propagates device faults (which are still traced).
    pub fn issue(&mut self, command: Command) -> Result<Value, RadError> {
        Ok(self.middlebox.issue(&command)?.value)
    }

    /// Issues a command and waits out the device busy period.
    ///
    /// # Errors
    ///
    /// Propagates device faults.
    pub fn issue_blocking(&mut self, command: Command) -> Result<Value, RadError> {
        Ok(self.middlebox.issue_blocking(&command)?.value)
    }

    /// Idles the lab for `delta` (operator think time, overnight gaps).
    pub fn wait(&mut self, delta: SimDuration) {
        self.middlebox.advance(delta);
    }

    /// Issues an N9 motion and busy-polls `MVNG` until the controller
    /// reports idle — the loop that litters RAD with `ARM MVNG MVNG`
    /// n-grams.
    ///
    /// # Errors
    ///
    /// Propagates device faults from the motion or the polls.
    pub fn n9_move_and_poll(&mut self, command: Command) -> Result<(), RadError> {
        let outcome = self.middlebox.issue(&command)?;
        let poll_gap = outcome
            .busy_for
            .mul_f64(0.2)
            .max(SimDuration::from_millis(200));
        loop {
            self.middlebox.advance(poll_gap);
            let polled = self.middlebox.issue(&Command::nullary(CommandType::Mvng))?;
            if polled.value == Value::Bool(false) {
                return Ok(());
            }
        }
    }

    /// Issues a Tecan command and polls `Q` until the pump reports
    /// idle — the source of the `Q Q Q` runs of Fig. 5(b).
    ///
    /// # Errors
    ///
    /// Propagates device faults.
    pub fn tecan_and_poll(&mut self, command: Command) -> Result<(), RadError> {
        let outcome = self.middlebox.issue(&command)?;
        let poll_gap = outcome
            .busy_for
            .mul_f64(0.3)
            .max(SimDuration::from_millis(150));
        loop {
            self.middlebox.advance(poll_gap);
            let polled = self
                .middlebox
                .issue(&Command::nullary(CommandType::TecanGetStatus))?;
            if polled.value == Value::Str("idle".into()) {
                return Ok(());
            }
        }
    }

    /// Executes a UR3e `move_joints` to `target` while the 25 Hz power
    /// monitor records the trajectory, carrying `payload_kg`.
    ///
    /// # Errors
    ///
    /// Propagates device faults (nothing is recorded for a refused
    /// move).
    pub fn ur3e_move_joints(
        &mut self,
        target: [f64; 6],
        speed_rad_s: f64,
        payload_kg: f64,
        description: &str,
    ) -> Result<(), RadError> {
        let command = Command::new(CommandType::MoveJoints, vec![Value::Joints(target)]);
        let outcome = self.middlebox.issue(&command)?;
        let segment = TrajectorySegment::joint_move(self.ur3e_joints, target, speed_rad_s);
        self.monitor.record_motion(
            self.current_procedure,
            self.current_run.unwrap_or(RunId(u32::MAX)),
            description,
            &[segment],
            payload_kg,
        );
        self.ur3e_joints = target;
        self.middlebox.advance(outcome.busy_for);
        Ok(())
    }

    /// Executes a UR3e `move_to_location` while the power monitor
    /// records the IK-derived joint trajectory — Cartesian moves get
    /// the same telemetry coverage as joint moves.
    ///
    /// # Errors
    ///
    /// Propagates device faults; unreachable targets surface as the
    /// device's own validation fault.
    pub fn ur3e_move_to_location(
        &mut self,
        target: rad_devices::Location,
        velocity_mm_s: f64,
        payload_kg: f64,
        description: &str,
    ) -> Result<(), RadError> {
        let command = Command::new(
            CommandType::MoveToLocation,
            vec![Value::Location {
                x: target.x,
                y: target.y,
                z: target.z,
            }],
        );
        let outcome = self.middlebox.issue(&command)?;
        // Power telemetry: invert the Cartesian target to a joint pose
        // and record that trajectory. Unreachable-but-accepted targets
        // (the deck model is looser than the planar chain) are skipped
        // rather than faked.
        let kin = rad_power::Ur3eKinematics::default();
        if let Some(joints) = kin
            .inverse([target.x, target.y, target.z], rad_power::Elbow::Up)
            .or_else(|| kin.inverse([target.x, target.y, target.z], rad_power::Elbow::Down))
        {
            let speed_rad_s = (velocity_mm_s / 240.0).max(0.05);
            let segment =
                rad_power::TrajectorySegment::joint_move(self.ur3e_joints, joints, speed_rad_s);
            self.monitor.record_motion(
                self.current_procedure,
                self.current_run.unwrap_or(RunId(u32::MAX)),
                description,
                &[segment],
                payload_kg,
            );
            self.ur3e_joints = joints;
        }
        self.middlebox.advance(outcome.busy_for);
        Ok(())
    }

    /// The UR3e's current joint pose as tracked by the session.
    pub fn ur3e_joints(&self) -> [f64; 6] {
        self.ur3e_joints
    }

    /// Draws a uniform float from the session RNG.
    pub fn jitter(&mut self, low: f64, high: f64) -> f64 {
        self.rng.gen_range(low..high)
    }

    /// Draws a uniform integer from the session RNG (inclusive bounds).
    pub fn jitter_int(&mut self, low: i64, high: i64) -> i64 {
        self.rng.gen_range(low..=high)
    }

    /// Finishes the session, yielding both halves of the dataset.
    pub fn finish(self) -> (CommandDataset, PowerDataset) {
        (self.middlebox.into_dataset(), self.monitor.into_dataset())
    }

    /// Finishes the session's command half only; the power recordings
    /// are dropped unsynthesized.
    pub(crate) fn finish_commands(self) -> CommandDataset {
        self.middlebox.into_dataset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n9_poll_loop_generates_arm_mvng_pattern() {
        let mut s = Session::new(0);
        s.issue(Command::nullary(CommandType::InitC9)).unwrap();
        s.issue(Command::nullary(CommandType::Home)).unwrap();
        // Drain homing polls so the next pattern is clean.
        while s.issue(Command::nullary(CommandType::Mvng)).unwrap() != Value::Bool(false) {}
        s.n9_move_and_poll(Command::new(
            CommandType::Arm,
            vec![Value::Location {
                x: 250.0,
                y: 150.0,
                z: 60.0,
            }],
        ))
        .unwrap();
        let (ds, _) = s.finish();
        let seq: Vec<CommandType> = ds.corpus();
        let arm_pos = seq.iter().rposition(|c| *c == CommandType::Arm).unwrap();
        assert!(seq[arm_pos + 1..].iter().all(|c| *c == CommandType::Mvng));
        assert!(
            seq[arm_pos + 1..].len() >= 2,
            "several polls follow the move"
        );
    }

    #[test]
    fn tecan_poll_loop_generates_q_runs() {
        let mut s = Session::new(0);
        s.issue(Command::nullary(CommandType::InitTecan)).unwrap();
        s.tecan_and_poll(Command::nullary(CommandType::TecanSetHomePosition))
            .unwrap();
        let (ds, _) = s.finish();
        let seq = ds.corpus();
        let q_count = seq
            .iter()
            .filter(|c| **c == CommandType::TecanGetStatus)
            .count();
        assert!(
            q_count >= 2,
            "homing keeps Q busy for several polls, saw {q_count}"
        );
    }

    #[test]
    fn ur3e_moves_are_power_monitored() {
        let mut s = Session::new(0);
        s.issue(Command::nullary(CommandType::InitUr3Arm)).unwrap();
        s.ur3e_move_joints(Ur3e::named_pose(1), 1.0, 0.0, "test-move")
            .unwrap();
        let (_, power) = s.finish();
        assert_eq!(power.recordings().len(), 1);
        assert!(!power.recordings()[0].profile.is_empty());
    }

    #[test]
    fn cartesian_moves_are_power_monitored_via_ik() {
        let mut s = Session::new(0);
        s.issue(Command::nullary(CommandType::InitUr3Arm)).unwrap();
        s.ur3e_move_to_location(
            rad_devices::Location::new(1000.0, 100.0, 250.0),
            200.0,
            0.0,
            "cartesian-move",
        )
        .unwrap();
        let (_, power) = s.finish();
        assert_eq!(power.recordings().len(), 1);
        assert_eq!(power.recordings()[0].description, "cartesian-move");
        assert!(power.recordings()[0].profile.len() > 5);
    }

    #[test]
    fn faults_propagate_but_stay_traced() {
        let mut s = Session::new(0);
        let err = s.issue(Command::nullary(CommandType::Home)).unwrap_err();
        assert!(matches!(err, RadError::Device(_)));
        let (ds, _) = s.finish();
        assert_eq!(ds.len(), 1);
        assert!(ds.traces()[0].exception().is_some());
    }
}
