//! The five workloads, the closed-loop driver they share, and what a
//! run of each hands back for metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use rad_core::RadError;
use rad_workloads::ScenarioSpec;

use crate::spans::Recorder;
use crate::{campaign, service};

/// A run sets its workload up at least this many times, and again until
/// the set-ups add up to [`SETUP_SECONDS`]; `setup_s` is their median.
/// A set-up's warm-up op varies by tens of percent (a pipelined drive
/// from 150 to 450 ms), so the fast set-ups are repeated more often.
pub const SETUPS: usize = 3;

/// See [`SETUPS`].
pub const SETUP_SECONDS: f64 = 2.0;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-scale campaign → detection → export bundle → segment replay.
    CampaignExport,
    /// The same document without the export bundle.
    CampaignDetect,
    /// Crash-free durable build, then crash + `resume_from`, scale 0.1.
    CampaignDurable,
    /// Fresh tenants replaying the supervised script over lock-step JSON.
    ServiceLockstep,
    /// The same over the binary codec at pipeline depth 32.
    ServicePipelined,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::CampaignExport,
        Workload::CampaignDetect,
        Workload::CampaignDurable,
        Workload::ServiceLockstep,
        Workload::ServicePipelined,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignExport => "campaign_export",
            Workload::CampaignDetect => "campaign_detect",
            Workload::CampaignDurable => "campaign_durable",
            Workload::ServiceLockstep => "service_lockstep",
            Workload::ServicePipelined => "service_pipelined",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed scenario documents one operation runs, in order.
    pub fn documents(self) -> &'static [&'static str] {
        match self {
            Workload::CampaignExport | Workload::CampaignDetect => &[CAMPAIGN_FULL],
            Workload::CampaignDurable => &[DURABLE_WRITE, DURABLE_CRASH],
            Workload::ServiceLockstep => &[SERVICE_LOCKSTEP],
            Workload::ServicePipelined => &[SERVICE_PIPELINED],
        }
    }
}

const CAMPAIGN_FULL: &str = include_str!("../scenarios/campaign_full.json");
const DURABLE_WRITE: &str = include_str!("../scenarios/durable_write.json");
const DURABLE_CRASH: &str = include_str!("../scenarios/durable_crash.json");
const SERVICE_LOCKSTEP: &str = include_str!("../scenarios/service_lockstep.json");
const SERVICE_PIPELINED: &str = include_str!("../scenarios/service_pipelined.json");

/// Parses a workload's documents through the strict scenario parser.
pub fn parse_documents(workload: Workload) -> Result<Vec<ScenarioSpec>, RadError> {
    workload
        .documents()
        .iter()
        .map(|text| ScenarioSpec::from_json_str(text))
        .collect()
}

/// One operation of the closed loop.
#[derive(Debug, Clone)]
pub struct Op {
    /// Position in the loop; the op's seed is the run seed plus this.
    pub index: u32,
    /// The op's seed.
    pub seed: u64,
    /// Wall time of the op.
    pub ms: f64,
    /// Whether the op returned an error, did not complete, recorded
    /// gaps, or was refused.
    pub failed: bool,
}

/// What the untraced closed loop measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every op, in index order.
    pub ops: Vec<Op>,
    /// Trace rows completed end to end.
    pub rows: u64,
    /// Wall time the rows took.
    pub wall_s: f64,
    /// Correctness mismatches.
    pub problems: Vec<String>,
}

/// What the traced rerun of the same ops recorded.
#[derive(Debug)]
pub struct Traced {
    /// Every span of the rerun.
    pub spans: Recorder,
    /// Per-op samples of layer counts (`export.bytes`, …) and whole-run
    /// counts (`server.issues`, …), by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Ops rerun.
    pub ops: u64,
    /// Ops that failed in the rerun.
    pub failed: u64,
    /// Correctness mismatches.
    pub problems: Vec<String>,
}

impl Traced {
    /// Nothing recorded yet; spans time from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Traced {
            spans: Recorder::new(epoch),
            samples: BTreeMap::new(),
            ops: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records one sample of the count metric `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// Removes a scratch file or directory; one already gone is fine.
pub fn remove(path: &Path) -> Result<(), RadError> {
    let result = if path.is_dir() {
        std::fs::remove_dir_all(path)
    } else {
        std::fs::remove_file(path)
    };
    match result {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(scratch_error(e)),
        _ => Ok(()),
    }
}

/// A scratch-directory I/O failure as the libraries' error type.
pub fn scratch_error(e: std::io::Error) -> RadError {
    RadError::Store(format!("benchmark scratch: {e}"))
}

/// A set-up workload, ready to run operations.
pub trait Bench {
    /// Runs ops with seeds `first_seed, first_seed + 1, …` in a closed
    /// loop until `budget` has passed, checking every output.
    fn measure(&mut self, first_seed: u64, budget: Duration) -> Result<Measured, RadError>;

    /// Reruns the ops `measured` ran, calling each layer's public
    /// functions one by one under spans, and checks the decomposition
    /// reproduces the untraced outputs.
    fn trace(&mut self, measured: &Measured) -> Result<Traced, RadError>;

    /// Releases what set-up acquired (a running server).
    fn tear_down(self: Box<Self>) -> Result<(), RadError>;
}

/// Sets the workload up as [`SETUPS`] says, keeping the last. Set-up
/// *k* runs its untimed warm-up op with seed `seed + k`, so the median
/// spans several inputs, as `op_p50_ms` does. Returns the kept set-up
/// with every set-up time.
pub fn set_up(
    workload: Workload,
    seed: u64,
    scratch: &Path,
) -> Result<(Box<dyn Bench>, Vec<f64>), RadError> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept: Option<Box<dyn Bench>> = None;
    while times.len() < SETUPS || times.iter().sum::<f64>() < SETUP_SECONDS {
        if let Some(previous) = kept.take() {
            previous.tear_down()?;
        }
        let warm_up_seed = seed.wrapping_add(times.len() as u64);
        let started = Instant::now();
        let bench: Box<dyn Bench> = match workload {
            Workload::CampaignExport | Workload::CampaignDetect | Workload::CampaignDurable => {
                Box::new(campaign::CampaignBench::set_up(
                    workload,
                    warm_up_seed,
                    scratch,
                )?)
            }
            Workload::ServiceLockstep | Workload::ServicePipelined => Box::new(
                service::ServiceBench::set_up(workload, seed, warm_up_seed, scratch)?,
            ),
        };
        times.push(started.elapsed().as_secs_f64());
        kept = Some(bench);
    }
    Ok((kept.expect("SETUPS is at least one"), times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_document_parses_and_round_trips() {
        for workload in Workload::ALL {
            for spec in parse_documents(workload).unwrap() {
                let again = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
                assert_eq!(spec, again, "{} does not round-trip", spec.name);
            }
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
    }

    #[test]
    fn documents_describe_the_workloads() {
        let full = &parse_documents(Workload::CampaignExport).unwrap()[0];
        assert!(full.fillers && full.power_experiments && full.scale == 1.0);
        assert!(full.detect.is_some() && full.replay.is_some());
        let durable = parse_documents(Workload::CampaignDurable).unwrap();
        assert!(!durable[0].injects_crash() && durable[1].injects_crash());
        let lockstep = &parse_documents(Workload::ServiceLockstep).unwrap()[0];
        assert_eq!(lockstep.transport.pipeline_depth, None);
        let pipelined = &parse_documents(Workload::ServicePipelined).unwrap()[0];
        assert_eq!(pipelined.transport.pipeline_depth, Some(32));
        assert_eq!(pipelined.transport.tenants.len(), 1);
    }
}
