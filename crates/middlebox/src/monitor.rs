//! The 25 Hz UR3e power monitor (Fig. 3, bottom).
//!
//! The original RATracer runs a small Python loop that polls the
//! UR3e's RTDE interface at 25 Hz and appends each sample to the power
//! log. [`PowerMonitor`] is the simulated counterpart: workloads tell
//! it which trajectory the arm executed (and with what payload), and
//! it synthesizes the telemetry via [`rad_power`] and accumulates the
//! power dataset, applying the quiescent-storage policy of §IV.
//!
//! Recording is *deferred*: `record_motion`/`record_idle` only capture
//! the trajectory and the noise seed (derived from the recording
//! counter at call time, so the seed stream is identical to the old
//! synthesize-on-record monitor). Synthesis happens once, at drain
//! time, in batches of consecutive recordings, which lets independent
//! motion recordings fan out across cores via
//! [`Ur3e::current_profiles_par`] while staying bit-identical to
//! sequential capture.

use std::ops::Range;

use rad_core::{ProcedureKind, RadError, RunId};
use rad_power::arm::MIN_SYNTH_TICKS_PER_THREAD;
use rad_power::{
    accept_chunked, CurrentProfile, Filtered, PowerSink, ProfileRequest, RecordingMeta,
    TrajectorySegment, Ur3e, DEFAULT_CHUNK_TICKS,
};
use rad_store::{PowerDataset, PowerRecording};

/// Ticks of telemetry one drain batch synthesizes: twice the fan-out
/// threshold per worker, so a batch that stops short of its budget by
/// less than one worker's threshold still fans out over every worker.
fn batch_ticks() -> usize {
    2 * MIN_SYNTH_TICKS_PER_THREAD * rad_core::par::max_workers()
}

/// Splits recordings of the given tick counts into consecutive runs of
/// at most `budget` ticks, in order. A recording larger than the budget
/// forms a run of its own.
fn batches(ticks: &[usize], budget: usize) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let (mut start, mut held) = (0, 0);
    for (i, &t) in ticks.iter().enumerate() {
        if i > start && held + t > budget {
            runs.push(start..i);
            (start, held) = (i, 0);
        }
        held += t;
    }
    if start < ticks.len() {
        runs.push(start..ticks.len());
    }
    runs
}

/// What one pending recording captured — replayed into telemetry at
/// drain time.
#[derive(Debug, Clone)]
enum Capture {
    Motion {
        segments: Vec<TrajectorySegment>,
        payload_kg: f64,
    },
    Idle {
        pose: [f64; rad_power::JOINTS],
        ticks: usize,
    },
}

/// A recording the monitor has accepted but not yet synthesized.
#[derive(Debug, Clone)]
struct Pending {
    procedure: ProcedureKind,
    run_id: RunId,
    description: String,
    seed: u64,
    capture: Capture,
}

impl Pending {
    /// Ticks its synthesized profile will hold.
    fn ticks(&self) -> usize {
        match &self.capture {
            Capture::Motion { segments, .. } => Ur3e::profile_ticks(segments),
            Capture::Idle { ticks, .. } => *ticks,
        }
    }
}

/// Accumulates UR3e telemetry recordings into a [`PowerDataset`].
#[derive(Debug)]
pub struct PowerMonitor {
    arm: Ur3e,
    pending: Vec<Pending>,
    seed: u64,
    store_quiescent: bool,
    recordings: u32,
    suspended: bool,
    missed: u32,
}

impl PowerMonitor {
    /// A monitor over the default arm model; quiescent ticks are
    /// stored (the "days with some activity" policy).
    pub fn new(seed: u64) -> Self {
        PowerMonitor {
            arm: Ur3e::new(),
            pending: Vec::new(),
            seed,
            store_quiescent: true,
            recordings: 0,
            suspended: false,
            missed: 0,
        }
    }

    /// Suspends recording — the monitor loop runs on the middlebox, so
    /// an outage silences it. Suspended recordings are counted as
    /// missed, the power-log analogue of a trace gap.
    pub fn suspend(&mut self) {
        self.suspended = true;
    }

    /// Resumes recording after an outage.
    pub fn resume(&mut self) {
        self.suspended = false;
    }

    /// Whether the monitor is currently suspended.
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    /// How many recordings were lost while suspended.
    pub fn missed(&self) -> u32 {
        self.missed
    }

    /// A monitor with a custom arm model (ablations).
    pub fn with_arm(mut self, arm: Ur3e) -> Self {
        self.arm = arm;
        self
    }

    /// Configures whether quiescent ticks are stored.
    #[must_use]
    pub fn store_quiescent(mut self, keep: bool) -> Self {
        self.store_quiescent = keep;
        self
    }

    /// The arm model in use.
    pub fn arm(&self) -> &Ur3e {
        &self.arm
    }

    /// Records the telemetry of one executed trajectory.
    ///
    /// The trajectory is captured (with a seed derived from the
    /// recording counter, exactly as the eager monitor drew it) and
    /// synthesized lazily when the monitor is drained.
    pub fn record_motion(
        &mut self,
        procedure: ProcedureKind,
        run_id: RunId,
        description: &str,
        segments: &[TrajectorySegment],
        payload_kg: f64,
    ) {
        // The counter advances even while suspended: the RTDE poller
        // kept numbering recordings during an outage, so the noise
        // seeds of the survivors must not shift.
        let seed = self.seed.wrapping_add(u64::from(self.recordings));
        self.recordings += 1;
        if self.suspended {
            self.missed += 1;
            return;
        }
        self.pending.push(Pending {
            procedure,
            run_id,
            description: description.to_owned(),
            seed,
            capture: Capture::Motion {
                segments: segments.to_vec(),
                payload_kg,
            },
        });
    }

    /// Records a quiescent stretch (the arm parked), honouring the
    /// storage policy.
    pub fn record_idle(
        &mut self,
        procedure: ProcedureKind,
        run_id: RunId,
        pose: [f64; rad_power::JOINTS],
        ticks: usize,
    ) {
        if !self.store_quiescent {
            return;
        }
        if self.suspended {
            self.missed += 1;
            return;
        }
        let seed = self.seed.wrapping_add(u64::from(self.recordings));
        self.recordings += 1;
        self.pending.push(Pending {
            procedure,
            run_id,
            description: "quiescent".to_owned(),
            seed,
            capture: Capture::Idle { pose, ticks },
        });
    }

    /// Number of recordings captured.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Synthesizes `pending`, fanning independent motion captures out
    /// across cores. Results are merged back in recording order, so
    /// output is bit-identical regardless of worker count.
    fn synthesize(&self, pending: &[Pending]) -> Vec<(RecordingMeta, CurrentProfile)> {
        let requests: Vec<ProfileRequest> = pending
            .iter()
            .filter_map(|p| match &p.capture {
                Capture::Motion {
                    segments,
                    payload_kg,
                } => Some(ProfileRequest {
                    segments: segments.clone(),
                    payload_kg: *payload_kg,
                    seed: p.seed,
                }),
                Capture::Idle { .. } => None,
            })
            .collect();
        let mut motions = self.arm.current_profiles_par(&requests).into_iter();
        pending
            .iter()
            .map(|p| {
                let profile = match &p.capture {
                    Capture::Motion { .. } => {
                        motions.next().expect("one synthesized profile per motion")
                    }
                    Capture::Idle { pose, ticks } => {
                        self.arm.quiescent_profile(*pose, *ticks, p.seed)
                    }
                };
                let meta = RecordingMeta {
                    procedure: p.procedure,
                    run_id: p.run_id,
                    description: p.description.clone(),
                };
                (meta, profile)
            })
            .collect()
    }

    /// Synthesizes the pending recordings in order, in batches of at
    /// most `budget` ticks, and hands each recording to `each` before
    /// the next batch is synthesized. At most one batch is held.
    fn synthesize_batches(
        &self,
        budget: usize,
        mut each: impl FnMut(RecordingMeta, CurrentProfile) -> Result<(), RadError>,
    ) -> Result<(), RadError> {
        let ticks: Vec<usize> = self.pending.iter().map(Pending::ticks).collect();
        for run in batches(&ticks, budget) {
            for (meta, profile) in self.synthesize(&self.pending[run]) {
                each(meta, profile)?;
            }
        }
        Ok(())
    }

    /// Synthesizes all pending recordings and streams them into `sink`,
    /// finishing the sink at the end. Each recording is announced with
    /// `begin_recording`, then handed over through [`accept_chunked`]:
    /// no `accept` sees more than [`DEFAULT_CHUNK_TICKS`] ticks, and a
    /// recording that fits in one chunk is handed over without a copy.
    ///
    /// Recordings are synthesized in batches of consecutive recordings
    /// (twice the synthesis fan-out threshold per worker in ticks, or
    /// one larger recording), and each batch is handed over before the
    /// next is synthesized, so the drain holds one batch of telemetry,
    /// not the whole plane.
    ///
    /// # Errors
    ///
    /// Propagates the first sink error.
    pub fn drain_into<S: PowerSink>(self, sink: &mut S) -> Result<(), RadError> {
        self.drain_batched(sink, batch_ticks())
    }

    /// [`PowerMonitor::drain_into`] with an explicit batch budget.
    fn drain_batched<S: PowerSink>(self, sink: &mut S, budget: usize) -> Result<(), RadError> {
        self.synthesize_batches(budget, |meta, profile| {
            sink.begin_recording(&meta)?;
            accept_chunked(sink, profile.block(), DEFAULT_CHUNK_TICKS)
        })?;
        sink.finish()
    }

    /// Finishes monitoring, yielding the power dataset.
    ///
    /// Under the default policy (quiescent ticks stored) every
    /// synthesized profile moves into the dataset as its recording: the
    /// telemetry is written once, by synthesis, and never copied. The
    /// strict policy drops quiescent ticks row by row, so it drains
    /// through a [`Filtered`] stage into the dataset instead.
    pub fn into_dataset(self) -> PowerDataset {
        let mut dataset = PowerDataset::new();
        if self.store_quiescent {
            // The dataset keeps every profile anyway, so one batch.
            self.synthesize_batches(usize::MAX, |meta, profile| {
                dataset.push(PowerRecording {
                    procedure: meta.procedure,
                    run_id: meta.run_id,
                    description: meta.description,
                    profile,
                });
                Ok(())
            })
            .expect("moving into a dataset is infallible");
            return dataset;
        }
        // Filtering the whole stream matches the old per-motion filter
        // because idle recordings never reach the queue under this
        // policy.
        let mut filtered = Filtered::new(&mut dataset, |r: &rad_power::PowerRow<'_>| {
            !r.is_quiescent()
        });
        self.drain_into(&mut filtered)
            .expect("power dataset sinks are infallible");
        dataset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_power::CountingPowerSink;

    fn seg() -> TrajectorySegment {
        TrajectorySegment::joint_move(Ur3e::named_pose(0), Ur3e::named_pose(1), 1.0)
    }

    #[test]
    fn record_motion_appends_to_dataset() {
        let mut mon = PowerMonitor::new(0);
        mon.record_motion(
            ProcedureKind::VelocitySweep,
            RunId(0),
            "v=1.0rad/s",
            &[seg()],
            0.0,
        );
        assert_eq!(mon.len(), 1);
        let expected = Ur3e::new().current_profile(&[seg()], 0.0, 0);
        let ds = mon.into_dataset();
        assert_eq!(ds.recordings().len(), 1);
        assert_eq!(ds.recordings()[0].description, "v=1.0rad/s");
        assert_eq!(ds.recordings()[0].profile, expected);
    }

    #[test]
    fn quiescent_policy_drops_idle_ticks() {
        let mut mon = PowerMonitor::new(0).store_quiescent(false);
        mon.record_idle(ProcedureKind::Unknown, RunId(0), Ur3e::named_pose(0), 100);
        assert!(
            mon.is_empty(),
            "idle stretches are not stored under the strict policy"
        );
        mon.record_motion(ProcedureKind::Unknown, RunId(0), "move", &[seg()], 0.0);
        let full = Ur3e::new().current_profile(&[seg()], 0.0, 0);
        let ds = mon.into_dataset();
        assert!(ds.recordings()[0].profile.len() <= full.len());
        assert!(ds.recordings()[0]
            .profile
            .block()
            .iter()
            .all(|r| !r.is_quiescent()));
    }

    #[test]
    fn suspension_counts_missed_recordings() {
        let mut mon = PowerMonitor::new(0);
        mon.suspend();
        assert!(mon.is_suspended());
        mon.record_motion(
            ProcedureKind::VelocitySweep,
            RunId(0),
            "lost",
            &[seg()],
            0.0,
        );
        mon.record_idle(ProcedureKind::Unknown, RunId(0), Ur3e::named_pose(0), 10);
        assert!(mon.is_empty(), "suspended recordings are not stored");
        assert_eq!(mon.missed(), 2);
        mon.resume();
        mon.record_motion(
            ProcedureKind::VelocitySweep,
            RunId(1),
            "kept",
            &[seg()],
            0.0,
        );
        assert_eq!(mon.len(), 1);
        assert_eq!(mon.missed(), 2);
    }

    #[test]
    fn successive_recordings_use_fresh_noise() {
        let mut mon = PowerMonitor::new(7);
        mon.record_motion(ProcedureKind::VelocitySweep, RunId(0), "a", &[seg()], 0.0);
        mon.record_motion(ProcedureKind::VelocitySweep, RunId(1), "b", &[seg()], 0.0);
        let ds = mon.into_dataset();
        assert_ne!(
            ds.recordings()[0].profile.joint_current(1),
            ds.recordings()[1].profile.joint_current(1),
            "noise differs across recordings"
        );
    }

    #[test]
    fn suspension_preserves_survivor_seeds() {
        // A monitor that misses its first recording must give the
        // second the same noise as an eager monitor would have: the
        // recording counter advances during the outage.
        let mut dropped = PowerMonitor::new(3);
        dropped.suspend();
        dropped.record_motion(
            ProcedureKind::VelocitySweep,
            RunId(0),
            "lost",
            &[seg()],
            0.0,
        );
        dropped.resume();
        dropped.record_motion(
            ProcedureKind::VelocitySweep,
            RunId(1),
            "kept",
            &[seg()],
            0.0,
        );
        let survivor = dropped.into_dataset();

        let expected = Ur3e::new().current_profile(&[seg()], 0.0, 3u64.wrapping_add(1));
        assert_eq!(survivor.recordings()[0].profile, expected);
    }

    #[test]
    fn batches_keep_order_and_budget_and_isolate_oversized_recordings() {
        let ticks = [4, 3, 3, 12, 1, 9, 2, 2];
        let runs = batches(&ticks, 10);
        assert_eq!(runs, vec![0..3, 3..4, 4..6, 6..8]);
        // Consecutive, in order, covering every recording once.
        assert_eq!(runs.first().unwrap().start, 0);
        assert_eq!(runs.last().unwrap().end, ticks.len());
        for pair in runs.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        for run in &runs {
            let held: usize = ticks[run.clone()].iter().sum();
            assert!(
                held <= 10 || run.len() == 1,
                "{run:?} holds {held} ticks over the budget"
            );
        }
        assert_eq!(batches(&[], 10), Vec::<Range<usize>>::new());
        assert_eq!(batches(&[25], 10), vec![0..1]);
        assert_eq!(batches(&[5, 5, 5], usize::MAX), vec![0..3]);
    }

    #[test]
    fn batched_drain_equals_the_dataset_recording_by_recording() {
        fn session() -> PowerMonitor {
            let mut mon = PowerMonitor::new(5);
            for i in 0..7 {
                let legs: Vec<_> = (0..=i % 3).map(|_| seg()).collect();
                mon.record_motion(
                    ProcedureKind::PayloadSweep,
                    RunId(i),
                    &format!("payload={i}"),
                    &legs,
                    0.1 * f64::from(i),
                );
                if i % 2 == 0 {
                    mon.record_idle(ProcedureKind::Unknown, RunId(i), Ur3e::named_pose(2), 40);
                }
            }
            mon
        }
        let one_leg = Ur3e::profile_ticks(&[seg()]);
        let budget = 2 * one_leg;
        let mon = session();
        let ticks: Vec<usize> = mon.pending.iter().map(Pending::ticks).collect();
        assert!(
            batches(&ticks, budget).len() >= 3,
            "the drain spans batches"
        );

        let mut drained = PowerDataset::new();
        mon.drain_batched(&mut drained, budget).unwrap();
        let direct = session().into_dataset();
        assert_eq!(drained.recordings().len(), direct.recordings().len());
        for (a, b) in drained.recordings().iter().zip(direct.recordings()) {
            assert_eq!(
                (a.procedure, a.run_id, &a.description),
                (b.procedure, b.run_id, &b.description)
            );
            assert_eq!(a.profile, b.profile, "{}", a.description);
        }
    }

    #[test]
    fn drain_streams_bounded_chunks() {
        let mut mon = PowerMonitor::new(0);
        for i in 0..3 {
            mon.record_motion(
                ProcedureKind::VelocitySweep,
                RunId(i),
                "move",
                &[seg()],
                0.0,
            );
        }
        mon.record_idle(ProcedureKind::Unknown, RunId(3), Ur3e::named_pose(0), 50);
        let total: usize = 3 * Ur3e::new().current_profile(&[seg()], 0.0, 0).len() + 50;

        let mut counter = CountingPowerSink::new();
        mon.drain_into(&mut counter).unwrap();
        assert_eq!(counter.recordings, 4);
        assert_eq!(counter.ticks, total);
        assert!(
            counter.max_block_ticks <= DEFAULT_CHUNK_TICKS,
            "hand-off blocks stay bounded"
        );
    }
}
