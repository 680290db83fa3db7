//! The streaming detection plane: detectors as sink stages.
//!
//! The batch analyses (perplexity scoring, TF-IDF fingerprinting,
//! power moments/peaks) all consume a *completed* dataset. This module
//! recasts them as [`TraceSink`] / [`PowerSink`] stages so detection
//! runs at wire speed: a tracer (or a sealed-segment replay) tees its
//! stream into a stage, the stage scores incrementally as records
//! arrive, and threshold crossings come out as a typed [`Alert`]
//! stream through a composable [`AlertSink`].
//!
//! ```text
//!   Tracer ──▶ tee ──▶ dataset / WAL
//!              │
//!              └─────▶ StreamingPerplexity ──▶ alerts ──▶ console
//!                                                   └───▶ alerts.csv
//! ```
//!
//! # The streaming == batch contract
//!
//! Every stage here is pinned to its batch counterpart by the golden
//! conformance suite (`tests/streaming_equivalence.rs`): fed the same
//! records in the same order — at *any* chunking — a stage's final
//! scores are **bit-identical** to the batch computation, because each
//! stage reuses the batch kernels' arithmetic incrementally:
//!
//! - [`StreamingPerplexity`] scores each transition through
//!   [`InternedLm::window_log_prob`](crate::lm::InternedLm::window_log_prob)
//!   on the interned-id fast path and accumulates the same
//!   left-to-right log-sum as `log_probability`.
//! - [`StreamingFingerprint`] accumulates exact integer counts and
//!   defers to [`TfIdf::vectorize_counts`], the arithmetic core of
//!   [`TfIdf::transform`].
//! - [`StreamingPowerStats`] runs `rad_power`'s [`StreamingMoments`]
//!   and [`StreamingPeaks`], whose `push` is the exact loop body of
//!   the batch `moments` / `peak_stats` kernels.
//!
//! Memory is bounded by the configured window (plus one stream-state
//! record per open run), never by the stream length.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use rad_core::{
    spec, Alert, AlertSink, CommandType, DeviceKind, ProcedureKind, RadError, RunId, SimInstant,
    TraceBatch, TraceSink,
};
use rad_power::sink::{PowerSink, RecordingMeta};
use rad_power::{block::lane, Moments, PeakStats, PowerBlock, StreamingMoments, StreamingPeaks};

use crate::detector::FittedDetector;
use crate::intern::TokenId;
use crate::jenks::jenks_two_class;
use crate::lm::CommandLm;
use crate::tfidf::{dot, l2_normalize, TfIdf};

/// An adaptive alarm threshold: Jenks two-class clustering re-fit over
/// a ring buffer of the most recent scores.
///
/// The batch protocol fits its threshold once, on a calibration set.
/// A long-lived streaming deployment drifts, so this policy re-fits on
/// every observed score, over at most `capacity` retained scores.
/// Clustering happens in the log domain and the threshold maps back to
/// score units — the same recipe as
/// [`PerplexityDetector::fit`](crate::PerplexityDetector::fit),
/// including its fallbacks: with fewer than two retained scores the
/// threshold is `3 ×` the only score seen (or the seed threshold when
/// none has been).
#[derive(Debug, Clone)]
pub struct WindowedJenks {
    capacity: usize,
    scores: VecDeque<f64>,
    threshold: f64,
}

impl WindowedJenks {
    /// A policy retaining at most `capacity` scores, starting from
    /// `seed` until the first score arrives.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, seed: f64) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        WindowedJenks {
            capacity,
            scores: VecDeque::with_capacity(capacity),
            threshold: seed,
        }
    }

    /// The threshold currently in force.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The retained scores, oldest first.
    pub fn retained(&self) -> impl Iterator<Item = f64> + '_ {
        self.scores.iter().copied()
    }

    /// Pushes one observed score and re-fits. The threshold after this
    /// call equals a from-scratch fit on exactly the retained scores —
    /// the invariant the property suite pins against a full re-fit.
    pub fn observe(&mut self, score: f64) {
        self.scores.push_back(score);
        if self.scores.len() > self.capacity {
            self.scores.pop_front();
        }
        if self.scores.len() < 2 {
            self.threshold = self.scores[0] * 3.0;
            return;
        }
        let logs: Vec<f64> = self.scores.iter().map(|s| s.ln()).collect();
        if let Ok(t) = jenks_two_class(&logs) {
            self.threshold = t.exp();
        }
    }
}

/// How a stage's alarm threshold evolves.
#[derive(Debug, Clone)]
pub enum Threshold {
    /// A fixed threshold (the batch detector's calibrated one). The
    /// conformance suite uses this mode: with a fixed threshold,
    /// streaming alert sets equal batch alert sets exactly.
    Fixed(f64),
    /// [`WindowedJenks`] re-fit on recent scores.
    Adaptive(WindowedJenks),
}

impl Threshold {
    /// The threshold currently in force.
    pub fn current(&self) -> f64 {
        match self {
            Threshold::Fixed(t) => *t,
            Threshold::Adaptive(w) => w.threshold(),
        }
    }

    /// Feeds one observed score. Stages compare first, then observe:
    /// a score never moves the bar it was judged against.
    pub fn observe(&mut self, score: f64) {
        if let Threshold::Adaptive(w) = self {
            w.observe(score);
        }
    }
}

/// A completed run's final score, as recorded by a run-scoped stage.
#[derive(Debug, Clone, PartialEq)]
pub struct RunScore {
    /// The run, when rows carried one (`None` groups ambient traffic).
    pub run_id: Option<RunId>,
    /// The run's procedure, from its first row.
    pub procedure: ProcedureKind,
    /// The final score (perplexity or fingerprint dissimilarity).
    pub score: f64,
    /// Whether the score crossed the threshold in force.
    pub alarmed: bool,
}

/// When [`StreamingPerplexity`] raises alerts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertPolicy {
    /// Score whole runs: accumulate every transition of a run and
    /// judge once at end-of-stream. With the detector's fixed
    /// threshold this reproduces the batch verdicts bit-for-bit — the
    /// conformance mode.
    RunEnd,
    /// Real-time mode: judge the sliding window after every
    /// transition, raising one alert per upward threshold crossing
    /// (edge-triggered, so a long excursion is one alert, not one per
    /// row). The window counts transitions; `0` means unbounded.
    Crossing {
        /// Sliding-window length in transitions (`0` = unbounded).
        window: usize,
    },
}

/// Per-run incremental perplexity state.
#[derive(Debug)]
struct PerplexityStream {
    context: VecDeque<TokenId>,
    window_log_probs: VecDeque<f64>,
    window_starts: VecDeque<SimInstant>,
    log_sum: f64,
    transitions: u64,
    procedure: ProcedureKind,
    first_ts: SimInstant,
    last_ts: SimInstant,
    device: DeviceKind,
    alarming: bool,
}

impl PerplexityStream {
    fn new(procedure: ProcedureKind, ts: SimInstant, device: DeviceKind) -> Self {
        PerplexityStream {
            context: VecDeque::new(),
            window_log_probs: VecDeque::new(),
            window_starts: VecDeque::new(),
            log_sum: 0.0,
            transitions: 0,
            procedure,
            first_ts: ts,
            last_ts: ts,
            device,
            alarming: false,
        }
    }

    /// Current windowed perplexity (`None` before the first scored
    /// transition). `exp(-Σ log P / count)` — for the unbounded window
    /// this is the batch perplexity of everything seen, bit for bit.
    fn perplexity(&self) -> Option<f64> {
        if self.transitions == 0 {
            return None;
        }
        Some((-self.log_sum / self.transitions as f64).exp())
    }
}

/// Incremental n-gram perplexity as a [`TraceSink`] stage.
///
/// Rows are grouped by run id (rows without one share an ambient
/// stream) and scored on the interned-id fast path: the stage maps
/// each row's dense command-token id straight to the language model's
/// vocabulary id through a precomputed table — no hashing, no
/// tokenization, no allocation per row.
///
/// # Examples
///
/// ```
/// use rad_analysis::streaming::{AlertPolicy, StreamingPerplexity};
/// use rad_analysis::PerplexityDetector;
/// use rad_core::CommandType;
///
/// let runs = vec![
///     vec![CommandType::Arm, CommandType::Mvng, CommandType::Arm, CommandType::Mvng],
///     vec![CommandType::Arm, CommandType::Mvng, CommandType::Arm],
/// ];
/// let det = PerplexityDetector::new(2).fit(&runs, &runs)?;
/// let stage = StreamingPerplexity::new(&det, AlertPolicy::RunEnd, Vec::new());
/// assert_eq!(stage.threshold().current(), det.threshold());
/// # Ok::<(), rad_core::RadError>(())
/// ```
#[derive(Debug)]
pub struct StreamingPerplexity<A> {
    /// The detector's fitted model, shared with it and every other
    /// stage built from it.
    lm: Arc<CommandLm<CommandType>>,
    /// Dense command-token id → LM vocabulary id (unseen commands map
    /// to the pad id, exactly as batch scoring pads them).
    token_map: Vec<TokenId>,
    order: usize,
    policy: AlertPolicy,
    threshold: Threshold,
    sink: A,
    streams: BTreeMap<Option<RunId>, PerplexityStream>,
    completed: Vec<RunScore>,
}

impl<A: AlertSink> StreamingPerplexity<A> {
    /// Detector id stamped on alerts raised by this stage.
    pub const DETECTOR: &'static str = "perplexity";

    /// A stage scoring through `detector`'s fitted model, with its
    /// calibrated threshold as a [`Threshold::Fixed`] policy.
    pub fn new(detector: &FittedDetector<CommandType>, policy: AlertPolicy, sink: A) -> Self {
        let lm = detector.shared_lm();
        let token_map = CommandType::all()
            .iter()
            .map(|ct| lm.vocab().get_or_pad(ct))
            .collect();
        StreamingPerplexity {
            order: lm.order(),
            token_map,
            lm,
            policy,
            threshold: Threshold::Fixed(detector.threshold()),
            sink,
            streams: BTreeMap::new(),
            completed: Vec::new(),
        }
    }

    /// Replaces the fixed threshold with a [`WindowedJenks`] policy
    /// (seeded from the current threshold) retaining `capacity` recent
    /// scores.
    #[must_use]
    pub fn with_adaptive_threshold(mut self, capacity: usize) -> Self {
        self.threshold =
            Threshold::Adaptive(WindowedJenks::new(capacity, self.threshold.current()));
        self
    }

    /// Replaces the calibrated threshold with a deployment-tuned fixed
    /// bar. The Jenks calibration splits the *benign score clusters*,
    /// so it can land inside the benign range (useful for run-end
    /// triage, noisy as a wire alarm); a live `Crossing` deployment
    /// typically raises the bar above its observed ambient baseline.
    #[must_use]
    pub fn with_fixed_threshold(mut self, threshold: f64) -> Self {
        self.threshold = Threshold::Fixed(threshold);
        self
    }

    /// The threshold policy in force.
    pub fn threshold(&self) -> &Threshold {
        &self.threshold
    }

    /// Final scores of runs closed by [`TraceSink::finish`], in run-id
    /// order.
    pub fn completed_runs(&self) -> &[RunScore] {
        &self.completed
    }

    /// Bytes of resident per-stream scoring state (contexts and window
    /// rings) across all open runs — the quantity the streaming
    /// contract bounds by the configured window and the number of open
    /// runs, never by how many rows have flowed through.
    /// `tests/streaming_equivalence.rs` samples this to pin the bound.
    pub fn resident_state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.streams
            .values()
            .map(|s| {
                size_of::<PerplexityStream>()
                    + s.context.capacity() * size_of::<TokenId>()
                    + s.window_log_probs.capacity() * size_of::<f64>()
                    + s.window_starts.capacity() * size_of::<SimInstant>()
            })
            .sum()
    }

    /// Consumes the stage, yielding the alert sink.
    pub fn into_sink(self) -> A {
        self.sink
    }

    fn bounded_window(&self) -> Option<usize> {
        match self.policy {
            AlertPolicy::Crossing { window } if window > 0 => Some(window),
            _ => None,
        }
    }

    fn observe_row(
        &mut self,
        run_id: Option<RunId>,
        procedure: ProcedureKind,
        device: DeviceKind,
        ts: SimInstant,
        token_id: u16,
    ) -> Result<(), RadError> {
        let bounded = self.bounded_window();
        let stream = self
            .streams
            .entry(run_id)
            .or_insert_with(|| PerplexityStream::new(procedure, ts, device));
        stream.last_ts = ts;
        stream.device = device;
        stream.context.push_back(self.token_map[token_id as usize]);
        if stream.context.len() > self.order {
            stream.context.pop_front();
        }
        if stream.context.len() < self.order {
            return Ok(());
        }
        let logp = self
            .lm
            .interned()
            .window_log_prob(stream.context.make_contiguous());
        stream.log_sum += logp;
        stream.transitions += 1;
        if let Some(window) = bounded {
            stream.window_log_probs.push_back(logp);
            stream.window_starts.push_back(ts);
            if stream.window_log_probs.len() > window {
                stream.log_sum -= stream
                    .window_log_probs
                    .pop_front()
                    .expect("len > window >= 1");
                stream.window_starts.pop_front();
                stream.transitions -= 1;
            }
        }
        if let AlertPolicy::Crossing { .. } = self.policy {
            let ppl = stream.perplexity().expect("transition just scored");
            let threshold = self.threshold.current();
            if ppl > threshold {
                if !stream.alarming {
                    stream.alarming = true;
                    let window_start = stream
                        .window_starts
                        .front()
                        .copied()
                        .unwrap_or(stream.first_ts);
                    self.sink.raise(&Alert {
                        detector: Self::DETECTOR.into(),
                        device,
                        run_id,
                        window_start,
                        window_end: ts,
                        score: ppl,
                        threshold,
                    })?;
                }
            } else {
                stream.alarming = false;
            }
            self.threshold.observe(ppl);
        }
        Ok(())
    }
}

impl<A: AlertSink> TraceSink for StreamingPerplexity<A> {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        for row in batch.iter() {
            self.observe_row(
                row.run_id(),
                row.procedure(),
                row.device().kind(),
                row.timestamp(),
                row.command_token_id(),
            )?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), RadError> {
        if self.policy == AlertPolicy::RunEnd {
            for (run_id, stream) in std::mem::take(&mut self.streams) {
                let Some(score) = stream.perplexity() else {
                    continue; // shorter than the order: no transition
                };
                let threshold = self.threshold.current();
                let alarmed = score > threshold;
                if alarmed {
                    self.sink.raise(&Alert {
                        detector: Self::DETECTOR.into(),
                        device: stream.device,
                        run_id,
                        window_start: stream.first_ts,
                        window_end: stream.last_ts,
                        score,
                        threshold,
                    })?;
                }
                self.threshold.observe(score);
                self.completed.push(RunScore {
                    run_id,
                    procedure: stream.procedure,
                    score,
                    alarmed,
                });
            }
        }
        self.sink.finish()
    }
}

/// A fitted TF-IDF model plus one unit-length centroid fingerprint per
/// procedure — the reference a streaming run is compared against.
#[derive(Debug, Clone)]
pub struct ProcedureFingerprints<T> {
    model: TfIdf<T>,
    centroids: BTreeMap<ProcedureKind, Vec<f64>>,
}

impl<T: Clone + Eq + std::hash::Hash + Ord> ProcedureFingerprints<T> {
    /// Fits the TF-IDF model on every labelled run and builds each
    /// procedure's centroid (the L2-normalized mean of its runs'
    /// fitted vectors).
    ///
    /// # Errors
    ///
    /// Propagates [`TfIdf::fit`] errors (empty corpus or empty run).
    pub fn fit(runs: &[(ProcedureKind, Vec<T>)]) -> Result<Self, RadError> {
        let docs: Vec<Vec<T>> = runs.iter().map(|(_, d)| d.clone()).collect();
        let model = TfIdf::fit(&docs)?;
        let mut sums: BTreeMap<ProcedureKind, (Vec<f64>, usize)> = BTreeMap::new();
        for ((kind, _), vector) in runs.iter().zip(model.vectors()) {
            let entry = sums
                .entry(*kind)
                .or_insert_with(|| (vec![0.0; vector.len()], 0));
            for (s, v) in entry.0.iter_mut().zip(vector) {
                *s += v;
            }
            entry.1 += 1;
        }
        let centroids = sums
            .into_iter()
            .map(|(kind, (mut sum, _count))| {
                // The mean's direction is what cosine compares, so
                // normalizing the sum directly is equivalent.
                l2_normalize(&mut sum);
                (kind, sum)
            })
            .collect();
        Ok(ProcedureFingerprints { model, centroids })
    }

    /// The underlying TF-IDF model.
    pub fn model(&self) -> &TfIdf<T> {
        &self.model
    }

    /// Cosine dissimilarity (`1 - cos`) between a unit-length
    /// fingerprint `vector` and `procedure`'s centroid; `None` for a
    /// procedure with no training runs.
    pub fn dissimilarity(&self, procedure: ProcedureKind, vector: &[f64]) -> Option<f64> {
        self.centroids.get(&procedure).map(|c| 1.0 - dot(c, vector))
    }

    /// Batch-scores a complete run: transform, then centroid
    /// dissimilarity. The streaming stage reproduces this bit-for-bit.
    pub fn score_run(&self, procedure: ProcedureKind, run: &[T]) -> Option<f64> {
        self.dissimilarity(procedure, &self.model.transform(run))
    }
}

/// Per-run fingerprint accumulation state.
#[derive(Debug)]
struct FingerprintStream {
    counts: Vec<u64>,
    total: u64,
    procedure: ProcedureKind,
    first_ts: SimInstant,
    last_ts: SimInstant,
    device: DeviceKind,
}

/// Online TF-IDF procedure fingerprinting as a [`TraceSink`] stage.
///
/// Each run accumulates exact integer command counts (memory: one
/// `u64` per vocabulary entry per open run). At end-of-stream every
/// run's fingerprint is compared against its procedure's centroid;
/// dissimilarity above the threshold raises an [`Alert`] — a run that
/// claims to be procedure P but doesn't *look* like P.
#[derive(Debug)]
pub struct StreamingFingerprint<A> {
    fingerprints: ProcedureFingerprints<CommandType>,
    /// Dense command-token id → vocabulary index (`usize::MAX` = OOV).
    index_map: Vec<usize>,
    threshold: f64,
    sink: A,
    streams: BTreeMap<Option<RunId>, FingerprintStream>,
    completed: Vec<RunScore>,
}

impl<A: AlertSink> StreamingFingerprint<A> {
    /// Detector id stamped on alerts raised by this stage.
    pub const DETECTOR: &'static str = "tfidf";

    /// A stage comparing each run against `fingerprints`, alerting
    /// when dissimilarity exceeds `threshold`.
    pub fn new(fingerprints: ProcedureFingerprints<CommandType>, threshold: f64, sink: A) -> Self {
        let mut index_map = vec![usize::MAX; CommandType::all().len()];
        for (i, token) in fingerprints.model().vocabulary().iter().enumerate() {
            index_map[token.token_id()] = i;
        }
        StreamingFingerprint {
            fingerprints,
            index_map,
            threshold,
            sink,
            streams: BTreeMap::new(),
            completed: Vec::new(),
        }
    }

    /// Final scores of runs closed by [`TraceSink::finish`], in run-id
    /// order (runs of unknown procedures are skipped).
    pub fn completed_runs(&self) -> &[RunScore] {
        &self.completed
    }

    /// Consumes the stage, yielding the alert sink.
    pub fn into_sink(self) -> A {
        self.sink
    }
}

impl<A: AlertSink> TraceSink for StreamingFingerprint<A> {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        let vocab_len = self.fingerprints.model().vocabulary().len();
        for row in batch.iter() {
            let stream = self
                .streams
                .entry(row.run_id())
                .or_insert_with(|| FingerprintStream {
                    counts: vec![0; vocab_len],
                    total: 0,
                    procedure: row.procedure(),
                    first_ts: row.timestamp(),
                    last_ts: row.timestamp(),
                    device: row.device().kind(),
                });
            let index = self.index_map[row.command_token_id() as usize];
            if index != usize::MAX {
                stream.counts[index] += 1;
            }
            // OOV commands still count toward run length, exactly as
            // `TfIdf::transform` divides by the full slice length.
            stream.total += 1;
            stream.last_ts = row.timestamp();
            stream.device = row.device().kind();
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), RadError> {
        for (run_id, stream) in std::mem::take(&mut self.streams) {
            let vector = self
                .fingerprints
                .model()
                .vectorize_counts(&stream.counts, stream.total);
            let Some(score) = self.fingerprints.dissimilarity(stream.procedure, &vector) else {
                continue; // no centroid for this procedure
            };
            let alarmed = score > self.threshold;
            if alarmed {
                self.sink.raise(&Alert {
                    detector: Self::DETECTOR.into(),
                    device: stream.device,
                    run_id,
                    window_start: stream.first_ts,
                    window_end: stream.last_ts,
                    score,
                    threshold: self.threshold,
                })?;
            }
            self.completed.push(RunScore {
                run_id,
                procedure: stream.procedure,
                score,
                alarmed,
            });
        }
        self.sink.finish()
    }
}

/// One closed power recording's streaming statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingStats {
    /// The recording's identity, when a boundary marker announced one.
    pub meta: Option<RecordingMeta>,
    /// Welford moments of the monitored lane — bit-identical to the
    /// batch `moments` kernel over the whole recording.
    pub moments: Moments,
    /// Peak statistics of the monitored lane — bit-identical to the
    /// batch `peak_stats` kernel over the whole recording.
    pub peaks: PeakStats,
    /// Whether the recording's RMS crossed the alarm threshold.
    pub alarmed: bool,
}

/// Streaming Welford + peak detection as a [`PowerSink`] stage.
///
/// The stage watches one lane of the power stream (by default the
/// robot's total supply current) per recording: each accepted chunk
/// feeds [`StreamingMoments`] and [`StreamingPeaks`], and a recording
/// boundary (or end-of-stream) closes the statistics and raises an
/// [`Alert`] when the recording's RMS exceeds the threshold. State per
/// open recording is a dozen words, whatever the recording length.
#[derive(Debug)]
pub struct StreamingPowerStats<A> {
    lane: usize,
    min_prominence: f64,
    rms_threshold: f64,
    sink: A,
    meta: Option<RecordingMeta>,
    moments: StreamingMoments,
    peaks: StreamingPeaks,
    first_ts: f64,
    last_ts: f64,
    recordings: Vec<RecordingStats>,
}

impl<A: AlertSink> StreamingPowerStats<A> {
    /// Detector id stamped on alerts raised by this stage.
    pub const DETECTOR: &'static str = "power.rms";

    /// A stage over lane `lane` with the given extremum prominence
    /// filter and RMS alarm threshold.
    pub fn new(lane: usize, min_prominence: f64, rms_threshold: f64, sink: A) -> Self {
        StreamingPowerStats {
            lane,
            min_prominence,
            rms_threshold,
            sink,
            meta: None,
            moments: StreamingMoments::new(),
            peaks: StreamingPeaks::new(min_prominence),
            first_ts: 0.0,
            last_ts: 0.0,
            recordings: Vec::new(),
        }
    }

    /// The conventional configuration: total robot supply current.
    pub fn robot_current(min_prominence: f64, rms_threshold: f64, sink: A) -> Self {
        Self::new(lane::ROBOT_CURRENT, min_prominence, rms_threshold, sink)
    }

    /// Statistics of every recording closed so far.
    pub fn recordings(&self) -> &[RecordingStats] {
        &self.recordings
    }

    /// Consumes the stage, yielding the alert sink.
    pub fn into_sink(self) -> A {
        self.sink
    }

    fn close_recording(&mut self) -> Result<(), RadError> {
        if self.meta.is_none() && self.moments.is_empty() {
            return Ok(()); // nothing open
        }
        let meta = self.meta.take();
        let moments = std::mem::take(&mut self.moments).finish();
        let peaks =
            std::mem::replace(&mut self.peaks, StreamingPeaks::new(self.min_prominence)).finish();
        let alarmed = peaks.rms > self.rms_threshold;
        if alarmed {
            self.sink.raise(&Alert {
                detector: Self::DETECTOR.into(),
                device: DeviceKind::Ur3e,
                run_id: meta.as_ref().map(|m| m.run_id),
                // Power timestamps are recording-relative seconds.
                window_start: SimInstant::from_micros(secs_to_micros(self.first_ts)),
                window_end: SimInstant::from_micros(secs_to_micros(self.last_ts)),
                score: peaks.rms,
                threshold: self.rms_threshold,
            })?;
        }
        self.recordings.push(RecordingStats {
            meta,
            moments,
            peaks,
            alarmed,
        });
        self.first_ts = 0.0;
        self.last_ts = 0.0;
        Ok(())
    }
}

impl<A: AlertSink> PowerSink for StreamingPowerStats<A> {
    fn accept(&mut self, block: &PowerBlock) -> Result<(), RadError> {
        if block.is_empty() {
            return Ok(());
        }
        let values = block.lane(self.lane);
        let timestamps = block.lane(lane::TIMESTAMP);
        if self.moments.is_empty() {
            self.first_ts = timestamps[0];
        }
        self.last_ts = timestamps[timestamps.len() - 1];
        self.moments.extend(values);
        self.peaks.extend(values);
        Ok(())
    }

    fn begin_recording(&mut self, meta: &RecordingMeta) -> Result<(), RadError> {
        self.close_recording()?;
        self.meta = Some(meta.clone());
        Ok(())
    }

    fn finish(&mut self) -> Result<(), RadError> {
        self.close_recording()?;
        self.sink.finish()
    }
}

fn secs_to_micros(secs: f64) -> u64 {
    (secs * 1_000_000.0).round().max(0.0) as u64
}

/// The declarative form of a [`StreamingPerplexity`] stage — the
/// `detect.perplexity` section of a scenario document:
///
/// ```json
/// {
///   "order": 3,
///   "policy": {"crossing": {"window": 64}},
///   "threshold": {"fixed": 5.0}
/// }
/// ```
///
/// `policy` is `"run_end"` (the default) or
/// `{"crossing": {"window": N}}`; `threshold` is `"calibrated"` (the
/// default — the fitted detector's own Jenks threshold),
/// `{"fixed": X}`, or `{"adaptive": {"capacity": N}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerplexitySpec {
    /// N-gram order the detector is fitted with.
    pub order: usize,
    /// When the stage raises alerts.
    pub policy: AlertPolicy,
    /// Threshold policy override.
    pub threshold: ThresholdSpec,
}

/// The `threshold` field of a [`PerplexitySpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum ThresholdSpec {
    /// Keep the fitted detector's calibrated Jenks threshold.
    Calibrated,
    /// Replace it with a deployment-tuned fixed bar.
    Fixed(f64),
    /// Replace it with a [`WindowedJenks`] adaptive policy retaining
    /// this many recent scores.
    Adaptive(usize),
}

impl PerplexitySpec {
    const FIELDS: &'static [&'static str] = &["order", "policy", "threshold"];

    /// Builds the stage this spec describes over a fitted detector and
    /// alert sink. The detector must have been fitted with
    /// [`PerplexitySpec::order`] for the spec to be faithful; this is
    /// not checked here because [`FittedDetector`] does not expose its
    /// order — the scenario runner owns that invariant.
    pub fn build<A: AlertSink>(
        &self,
        detector: &FittedDetector<CommandType>,
        sink: A,
    ) -> StreamingPerplexity<A> {
        let stage = StreamingPerplexity::new(detector, self.policy, sink);
        match self.threshold {
            ThresholdSpec::Calibrated => stage,
            ThresholdSpec::Fixed(bar) => stage.with_fixed_threshold(bar),
            ThresholdSpec::Adaptive(capacity) => stage.with_adaptive_threshold(capacity),
        }
    }

    /// Parses the `perplexity` section of a scenario document. `ctx`
    /// is the dotted path of `value` for error messages.
    ///
    /// # Errors
    ///
    /// [`RadError::Spec`] on unknown fields, ill-typed values, a zero
    /// `order`, or a malformed policy/threshold variant.
    pub fn from_json(value: &serde_json::Value, ctx: &str) -> Result<Self, RadError> {
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, Self::FIELDS)?;
        let order = spec::req_u64(map, ctx, "order")?;
        if order == 0 {
            return Err(RadError::spec(
                spec::path(ctx, "order"),
                "must be at least 1",
            ));
        }
        let order = usize::try_from(order)
            .map_err(|_| RadError::spec(spec::path(ctx, "order"), "exceeds usize range"))?;
        let policy = match map.get("policy") {
            None | Some(serde_json::Value::Null) => AlertPolicy::RunEnd,
            Some(v) => Self::policy_from_json(v, &spec::path(ctx, "policy"))?,
        };
        let threshold = match map.get("threshold") {
            None | Some(serde_json::Value::Null) => ThresholdSpec::Calibrated,
            Some(v) => Self::threshold_from_json(v, &spec::path(ctx, "threshold"))?,
        };
        Ok(PerplexitySpec {
            order,
            policy,
            threshold,
        })
    }

    fn policy_from_json(value: &serde_json::Value, ctx: &str) -> Result<AlertPolicy, RadError> {
        if let Some(name) = value.as_str() {
            return match name {
                "run_end" => Ok(AlertPolicy::RunEnd),
                other => Err(RadError::spec(
                    ctx,
                    format!("unknown policy `{other}` (accepted: run_end, {{\"crossing\": ...}})"),
                )),
            };
        }
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, &["crossing"])?;
        let crossing = spec::req(map, ctx, "crossing")?;
        let cctx = spec::path(ctx, "crossing");
        let cmap = spec::obj(crossing, &cctx)?;
        spec::known_fields(cmap, &cctx, &["window"])?;
        let window = spec::opt_u64(cmap, &cctx, "window")?.unwrap_or(0);
        let window = usize::try_from(window)
            .map_err(|_| RadError::spec(spec::path(&cctx, "window"), "exceeds usize range"))?;
        Ok(AlertPolicy::Crossing { window })
    }

    fn threshold_from_json(
        value: &serde_json::Value,
        ctx: &str,
    ) -> Result<ThresholdSpec, RadError> {
        if let Some(name) = value.as_str() {
            return match name {
                "calibrated" => Ok(ThresholdSpec::Calibrated),
                other => Err(RadError::spec(
                    ctx,
                    format!(
                        "unknown threshold `{other}` (accepted: calibrated, \
                         {{\"fixed\": ...}}, {{\"adaptive\": ...}})"
                    ),
                )),
            };
        }
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, &["fixed", "adaptive"])?;
        let fixed = map.get("fixed").filter(|v| !v.is_null());
        let adaptive = map.get("adaptive").filter(|v| !v.is_null());
        match (fixed, adaptive) {
            (Some(_), Some(_)) => Err(RadError::spec(
                ctx,
                "`fixed` and `adaptive` are mutually exclusive",
            )),
            (None, None) => Err(RadError::spec(
                ctx,
                "one of `fixed` or `adaptive` is required",
            )),
            (Some(v), None) => {
                let at = spec::path(ctx, "fixed");
                let bar = v
                    .as_f64()
                    .ok_or_else(|| RadError::spec(&at, format!("expected a number, got {v}")))?;
                if !bar.is_finite() || bar < 0.0 {
                    return Err(RadError::spec(
                        at,
                        format!("threshold {bar} must be finite and non-negative"),
                    ));
                }
                Ok(ThresholdSpec::Fixed(bar))
            }
            (None, Some(v)) => {
                let actx = spec::path(ctx, "adaptive");
                let amap = spec::obj(v, &actx)?;
                spec::known_fields(amap, &actx, &["capacity"])?;
                let capacity = spec::req_u64(amap, &actx, "capacity")?;
                if capacity == 0 {
                    return Err(RadError::spec(
                        spec::path(&actx, "capacity"),
                        "must be at least 1",
                    ));
                }
                let capacity = usize::try_from(capacity).map_err(|_| {
                    RadError::spec(spec::path(&actx, "capacity"), "exceeds usize range")
                })?;
                Ok(ThresholdSpec::Adaptive(capacity))
            }
        }
    }

    /// Serializes the spec back to its JSON form, every field explicit.
    pub fn to_json(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        map.insert("order".into(), serde_json::Value::from(self.order as u64));
        let policy = match self.policy {
            AlertPolicy::RunEnd => serde_json::Value::from("run_end"),
            AlertPolicy::Crossing { window } => {
                let mut cmap = serde_json::Map::new();
                cmap.insert("window".into(), serde_json::Value::from(window as u64));
                let mut pmap = serde_json::Map::new();
                pmap.insert("crossing".into(), serde_json::Value::Object(cmap));
                serde_json::Value::Object(pmap)
            }
        };
        map.insert("policy".into(), policy);
        let threshold = match self.threshold {
            ThresholdSpec::Calibrated => serde_json::Value::from("calibrated"),
            ThresholdSpec::Fixed(bar) => {
                let mut tmap = serde_json::Map::new();
                tmap.insert("fixed".into(), serde_json::Value::from(bar));
                serde_json::Value::Object(tmap)
            }
            ThresholdSpec::Adaptive(capacity) => {
                let mut amap = serde_json::Map::new();
                amap.insert("capacity".into(), serde_json::Value::from(capacity as u64));
                let mut tmap = serde_json::Map::new();
                tmap.insert("adaptive".into(), serde_json::Value::Object(amap));
                serde_json::Value::Object(tmap)
            }
        };
        map.insert("threshold".into(), threshold);
        serde_json::Value::Object(map)
    }
}

/// The declarative form of a [`StreamingPowerStats`] stage — the
/// `detect.power` section of a scenario document:
///
/// ```json
/// {"lane": "robot_current", "min_prominence": 0.05, "rms_threshold": 0.6}
/// ```
///
/// `lane` is a snake-case name from [`lane::NAMES`] or a raw index;
/// absent it defaults to `robot_current`.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerStatsSpec {
    /// Monitored lane index.
    pub lane: usize,
    /// Extremum prominence filter.
    pub min_prominence: f64,
    /// RMS alarm threshold.
    pub rms_threshold: f64,
}

impl PowerStatsSpec {
    const FIELDS: &'static [&'static str] = &["lane", "min_prominence", "rms_threshold"];

    /// Builds the stage this spec describes over an alert sink.
    pub fn build<A: AlertSink>(&self, sink: A) -> StreamingPowerStats<A> {
        StreamingPowerStats::new(self.lane, self.min_prominence, self.rms_threshold, sink)
    }

    /// Parses the `power` section of a scenario document. `ctx` is the
    /// dotted path of `value` for error messages.
    ///
    /// # Errors
    ///
    /// [`RadError::Spec`] on unknown fields, an unknown lane name, an
    /// out-of-range lane index, or non-finite thresholds.
    pub fn from_json(value: &serde_json::Value, ctx: &str) -> Result<Self, RadError> {
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, Self::FIELDS)?;
        let lane_at = spec::path(ctx, "lane");
        let lane = match map.get("lane") {
            None | Some(serde_json::Value::Null) => lane::ROBOT_CURRENT,
            Some(v) => {
                if let Some(name) = v.as_str() {
                    lane::by_name(name).ok_or_else(|| {
                        RadError::spec(&lane_at, format!("unknown lane name `{name}`"))
                    })?
                } else {
                    let idx = v.as_u64().ok_or_else(|| {
                        RadError::spec(
                            &lane_at,
                            format!("expected a lane name or non-negative index, got {v}"),
                        )
                    })?;
                    let idx = usize::try_from(idx)
                        .map_err(|_| RadError::spec(&lane_at, "exceeds usize range"))?;
                    if idx >= rad_power::PowerSample::FIELD_COUNT {
                        return Err(RadError::spec(
                            &lane_at,
                            format!(
                                "lane {idx} out of range (layout has {} lanes)",
                                rad_power::PowerSample::FIELD_COUNT
                            ),
                        ));
                    }
                    idx
                }
            }
        };
        let min_prominence = spec::opt_f64(map, ctx, "min_prominence")?.unwrap_or(0.0);
        let rms_threshold = spec::opt_f64(map, ctx, "rms_threshold")?.unwrap_or(f64::INFINITY);
        if !min_prominence.is_finite() || min_prominence < 0.0 {
            return Err(RadError::spec(
                spec::path(ctx, "min_prominence"),
                format!("{min_prominence} must be finite and non-negative"),
            ));
        }
        if rms_threshold.is_nan() {
            return Err(RadError::spec(
                spec::path(ctx, "rms_threshold"),
                "must not be NaN",
            ));
        }
        Ok(PowerStatsSpec {
            lane,
            min_prominence,
            rms_threshold,
        })
    }

    /// Serializes the spec back to its JSON form. The lane serializes
    /// as its name when one exists, else as its raw index.
    pub fn to_json(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        let lane_value = lane::NAMES
            .iter()
            .find(|&&(_, idx)| idx == self.lane)
            .map(|&(name, _)| serde_json::Value::from(name))
            .unwrap_or_else(|| serde_json::Value::from(self.lane as u64));
        map.insert("lane".into(), lane_value);
        map.insert(
            "min_prominence".into(),
            serde_json::Value::from(self.min_prominence),
        );
        map.insert(
            "rms_threshold".into(),
            serde_json::Value::from(self.rms_threshold),
        );
        serde_json::Value::Object(map)
    }
}
