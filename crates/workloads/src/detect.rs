//! Wiring the streaming detection plane to campaigns.
//!
//! The analysis crate provides the detector *stages*
//! ([`StreamingPerplexity`],
//! [`rad_analysis::streaming::StreamingPowerStats`]); this module
//! plugs them into the campaign artifacts: fit a detector from a
//! campaign's benign supervised runs and stream the finished campaign's
//! in-memory dataset through the stages. The scenario plane publishes
//! the resulting alerts as the bundle's `alerts.csv` through
//! [`rad_store::export::export_rad_alerted`].

use rad_analysis::detector::FittedDetector;
use rad_analysis::{
    AlertPolicy, PerplexitySpec, PowerStatsSpec, RecordingStats, RunScore, StreamingPerplexity,
    ThresholdSpec,
};
use rad_core::sink::SliceSource;
use rad_core::{
    spec, Alert, Command, CommandType, DeviceId, DeviceKind, Label, ProcedureKind, RadError, RunId,
    SimInstant, TraceId, TraceObject, TraceSink, TraceSource,
};
use rad_power::{accept_chunked, PowerSink, RecordingMeta};

use crate::attacks::AttackTrace;
use crate::campaign::CampaignDataset;

/// How the power half of a detection pass is monitored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAlertConfig {
    /// Minimum prominence for the streaming peak counter.
    pub min_prominence: f64,
    /// RMS alarm threshold for the monitored lane. The default is
    /// `f64::INFINITY`: statistics are still collected per recording,
    /// but no power alert ever fires until a threshold is chosen.
    pub rms_threshold: f64,
}

impl Default for PowerAlertConfig {
    fn default() -> Self {
        PowerAlertConfig {
            min_prominence: 0.05,
            rms_threshold: f64::INFINITY,
        }
    }
}

/// The declarative form of one detection pass — the `detect` section
/// of a scenario document:
///
/// ```json
/// {
///   "perplexity": {"order": 2},
///   "power": {"lane": "robot_current", "rms_threshold": 0.6},
///   "chunk": 256
/// }
/// ```
///
/// `perplexity` is required (its `order` is the fit-time knob for
/// [`fit_detector`]); `power` defaults to the conventional
/// robot-current watch with [`PowerAlertConfig::default`]'s
/// prominence and an infinite (never-alarming) RMS threshold; `chunk`
/// defaults to [`rad_power::DEFAULT_CHUNK_TICKS`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectSpec {
    /// Trace-side perplexity stage configuration.
    pub perplexity: PerplexitySpec,
    /// Power-side statistics stage configuration.
    pub power: PowerStatsSpec,
    /// Rows/ticks per streamed batch.
    pub chunk: usize,
}

impl DetectSpec {
    const FIELDS: &'static [&'static str] = &["perplexity", "power", "chunk"];

    /// The default power watch: robot supply current, default
    /// prominence, alarm threshold disabled.
    fn default_power() -> PowerStatsSpec {
        let defaults = PowerAlertConfig::default();
        PowerStatsSpec {
            lane: rad_power::block::lane::ROBOT_CURRENT,
            min_prominence: defaults.min_prominence,
            rms_threshold: defaults.rms_threshold,
        }
    }

    /// Parses the `detect` section of a scenario document. `ctx` is
    /// the dotted path of `value` for error messages.
    ///
    /// # Errors
    ///
    /// [`RadError::Spec`] on unknown fields, ill-typed values, a
    /// missing `perplexity` section, or a zero `chunk`.
    pub fn from_json(value: &serde_json::Value, ctx: &str) -> Result<Self, RadError> {
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, Self::FIELDS)?;
        let perplexity = PerplexitySpec::from_json(
            spec::req(map, ctx, "perplexity")?,
            &spec::path(ctx, "perplexity"),
        )?;
        let power = match map.get("power") {
            None | Some(serde_json::Value::Null) => Self::default_power(),
            Some(v) => PowerStatsSpec::from_json(v, &spec::path(ctx, "power"))?,
        };
        let chunk =
            spec::opt_u64(map, ctx, "chunk")?.unwrap_or(rad_power::DEFAULT_CHUNK_TICKS as u64);
        if chunk == 0 {
            return Err(RadError::spec(
                spec::path(ctx, "chunk"),
                "must be at least 1",
            ));
        }
        let chunk = usize::try_from(chunk)
            .map_err(|_| RadError::spec(spec::path(ctx, "chunk"), "exceeds usize range"))?;
        Ok(DetectSpec {
            perplexity,
            power,
            chunk,
        })
    }

    /// Serializes the spec back to its JSON form, every field explicit.
    pub fn to_json(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        map.insert("perplexity".into(), self.perplexity.to_json());
        map.insert("power".into(), self.power.to_json());
        map.insert("chunk".into(), serde_json::Value::from(self.chunk as u64));
        serde_json::Value::Object(map)
    }
}

/// Everything one detection pass over a campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionOutcome {
    /// Alerts raised, trace detectors first, then power.
    pub alerts: Vec<Alert>,
    /// Final per-run perplexity scores, in run-id order.
    pub runs: Vec<RunScore>,
    /// Per-recording power statistics, in recording order.
    pub recordings: Vec<RecordingStats>,
}

/// Fits a perplexity detector from a campaign's benign supervised
/// runs, splitting them interleaved into a training and a calibration
/// half (a tail split would leave whole procedures out of training and
/// inflate the Jenks threshold).
///
/// # Errors
///
/// Returns [`RadError::Analysis`] (via the underlying fit) when the
/// campaign holds too few benign supervised runs.
pub fn fit_detector(
    dataset: &CampaignDataset,
    order: usize,
) -> Result<FittedDetector<CommandType>, RadError> {
    let benign: Vec<Vec<CommandType>> = dataset
        .command()
        .supervised_sequences()
        .into_iter()
        .filter(|(meta, _)| !meta.label().is_anomalous())
        .map(|(_, seq)| seq)
        .collect();
    let train: Vec<Vec<CommandType>> = benign.iter().step_by(2).cloned().collect();
    let calibrate: Vec<Vec<CommandType>> = benign.iter().skip(1).step_by(2).cloned().collect();
    rad_analysis::PerplexityDetector::new(order).fit(&train, &calibrate)
}

/// Streams a finished campaign through the detection stages: every
/// trace through [`StreamingPerplexity`] (run-end policy — the batch
/// verdicts, bit for bit) and every power recording through
/// [`rad_analysis::streaming::StreamingPowerStats`], `chunk` rows/ticks
/// at a time.
///
/// # Errors
///
/// Propagates the first stage error.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn detect_campaign(
    dataset: &CampaignDataset,
    detector: &FittedDetector<CommandType>,
    power: PowerAlertConfig,
    chunk: usize,
) -> Result<DetectionOutcome, RadError> {
    detect_campaign_spec(dataset, detector, &hand_wired_spec(power, chunk))
}

/// Lifts the hand-wired `(PowerAlertConfig, chunk)` signature into the
/// equivalent [`DetectSpec`]: run-end perplexity with the calibrated
/// threshold over the conventional robot-current watch. The spec's
/// `order` is irrelevant here — it only matters at [`fit_detector`]
/// time and the detector is already fitted.
fn hand_wired_spec(power: PowerAlertConfig, chunk: usize) -> DetectSpec {
    DetectSpec {
        perplexity: PerplexitySpec {
            order: 2,
            policy: AlertPolicy::RunEnd,
            threshold: ThresholdSpec::Calibrated,
        },
        power: PowerStatsSpec {
            lane: rad_power::block::lane::ROBOT_CURRENT,
            min_prominence: power.min_prominence,
            rms_threshold: power.rms_threshold,
        },
        chunk,
    }
}

/// [`detect_campaign`] with the stages built from a [`DetectSpec`] —
/// the scenario plane's detection path. The hand-wired
/// [`detect_campaign`] is a thin wrapper over this.
///
/// Both stages read the dataset in place: the perplexity stage gets
/// `spec.chunk`-row slices of the command dataset's columnar batch (no
/// row is materialized), and every power recording reaches the stats
/// stage through [`accept_chunked`] — whole when it fits in
/// `spec.chunk` ticks, in `spec.chunk`-tick pieces otherwise. No stage
/// call sees more than `spec.chunk` rows or ticks.
///
/// # Errors
///
/// Propagates the first stage error.
///
/// # Panics
///
/// Panics if `spec.chunk` is zero.
pub fn detect_campaign_spec(
    dataset: &CampaignDataset,
    detector: &FittedDetector<CommandType>,
    spec: &DetectSpec,
) -> Result<DetectionOutcome, RadError> {
    assert!(spec.chunk > 0, "chunk size must be positive");
    let mut stage = spec.perplexity.build(detector, Vec::new());
    let batch = dataset.command().batch();
    for start in (0..batch.len()).step_by(spec.chunk) {
        stage.accept(&batch.slice(start..batch.len().min(start + spec.chunk)))?;
    }
    stage.finish()?;
    let runs = stage.completed_runs().to_vec();
    let mut alerts = stage.into_sink();

    let mut watt = spec.power.build(Vec::new());
    for recording in dataset.power().recordings() {
        watt.begin_recording(&RecordingMeta {
            procedure: recording.procedure,
            run_id: recording.run_id,
            description: recording.description.clone(),
        })?;
        accept_chunked(&mut watt, recording.profile.block(), spec.chunk)?;
    }
    watt.finish()?;
    let recordings = watt.recordings().to_vec();
    alerts.extend(watt.into_sink());

    Ok(DetectionOutcome {
        alerts,
        runs,
        recordings,
    })
}

/// Lifts bare command sequences into one-run-per-sequence trace
/// streams so they can drive the row-oriented streaming stages. Run
/// ids are assigned in order; the rows carry no ground-truth label —
/// the streaming stages never read one.
fn sequences_to_traces(sequences: &[Vec<CommandType>]) -> Vec<TraceObject> {
    let mut traces = Vec::new();
    let mut id = 0u64;
    for (run, sequence) in sequences.iter().enumerate() {
        for &ct in sequence {
            traces.push(
                TraceObject::builder(
                    TraceId(id),
                    SimInstant::from_micros(id * 1000),
                    DeviceId::primary(DeviceKind::C9),
                    Command::nullary(ct),
                )
                .run(ProcedureKind::Unknown, RunId(run as u32), Label::Unknown)
                .build(),
            );
            id += 1;
        }
    }
    traces
}

/// Evaluates the *streaming* perplexity stage against a benign/attack
/// test mix — the sink-stage counterpart of
/// [`benchmark_detector`](crate::attacks::benchmark_detector). Every
/// sequence becomes its own run in one interleaved trace stream; the
/// confusion matrix records each run's end-of-run verdict.
///
/// # Errors
///
/// Propagates stage failures.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn benchmark_streaming_detector(
    detector: &FittedDetector<CommandType>,
    benign: &[Vec<CommandType>],
    attacks: &[AttackTrace],
    chunk: usize,
) -> Result<rad_analysis::ConfusionMatrix, RadError> {
    let mut sequences: Vec<Vec<CommandType>> = benign.to_vec();
    sequences.extend(attacks.iter().map(|a| a.sequence.clone()));
    let traces = sequences_to_traces(&sequences);

    let mut stage = StreamingPerplexity::new(detector, AlertPolicy::RunEnd, Vec::new());
    let mut source = SliceSource::new(&traces, chunk);
    while let Some(batch) = source.next_batch()? {
        stage.accept(&batch)?;
    }
    stage.finish()?;

    let mut cm = rad_analysis::ConfusionMatrix::new();
    for score in stage.completed_runs() {
        let run = score.run_id.expect("every synthesized row carries a run").0 as usize;
        cm.record(run >= benign.len(), score.alarmed);
    }
    Ok(cm)
}
