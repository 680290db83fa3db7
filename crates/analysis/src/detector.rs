//! The assembled perplexity-based anomaly detector (RQ2 / Table I),
//! plus the streaming variant the paper motivates for real-time use.

use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::Arc;

use rad_core::RadError;

use crate::crossval::CrossValidation;
use crate::intern::{TokenId, Vocab};
use crate::jenks::jenks_two_class;
use crate::lm::{CommandLm, InternedLm, Smoothing};
use crate::metrics::ConfusionMatrix;

/// Minimum training-token count per worker before cross-validation
/// folds are scored on their own threads. Fitting and scoring a fold
/// is a linear pass, so tiny corpora finish faster inline than the
/// spawn/join round-trip costs.
const MIN_TOKENS_PER_FOLD_THREAD: usize = 8192;

/// Configuration of the perplexity detector: n-gram order + smoothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerplexityDetector {
    order: usize,
    smoothing: Smoothing,
}

/// The outcome of a cross-validated evaluation (one Table I column).
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    /// Confusion matrix over all held-out predictions.
    pub confusion: ConfusionMatrix,
    /// Per-sequence `(perplexity, actual_anomalous, predicted)` in
    /// input order.
    pub scores: Vec<(f64, bool, bool)>,
    /// The Jenks threshold that separated the two classes.
    pub threshold: f64,
}

impl PerplexityDetector {
    /// A detector with the given n-gram order and default smoothing.
    ///
    /// # Panics
    ///
    /// Panics if `order < 2`.
    pub fn new(order: usize) -> Self {
        assert!(order >= 2, "order must be at least 2 (bigram)");
        PerplexityDetector {
            order,
            smoothing: Smoothing::default(),
        }
    }

    /// Overrides the smoothing scheme.
    #[must_use]
    pub fn with_smoothing(mut self, smoothing: Smoothing) -> Self {
        self.smoothing = smoothing;
        self
    }

    /// The n-gram order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Runs the paper's protocol: k-fold cross validation over
    /// labelled sequences, perplexity scoring of each held-out
    /// sequence under a model fitted on its training fold, then Jenks
    /// two-class clustering of all scores into benign/anomalous.
    ///
    /// Clustering happens in the log domain (i.e. over cross-entropy,
    /// the exponent of perplexity): perplexities are heavy-tailed, and
    /// natural-breaks clustering of the raw scores would latch onto
    /// the single largest outlier instead of the benign/anomalous gap.
    /// The reported threshold is mapped back to perplexity units.
    ///
    /// The corpus is interned exactly once; each fold then fits an
    /// [`InternedLm`] on borrowed id slices — in its own scoped
    /// thread when the corpus is large enough (and the machine
    /// parallel enough) to amortize the spawns, inline otherwise.
    /// Fold results are merged back by item index, so the report is
    /// bit-identical to the sequential protocol either way.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::Analysis`] when the fold arithmetic or any
    /// model fit fails (e.g. sequences shorter than the order).
    pub fn evaluate<T: Clone + Eq + Hash + Ord>(
        &self,
        labelled: &[(Vec<T>, bool)],
        k: usize,
        seed: u64,
    ) -> Result<EvaluationReport, RadError> {
        let cv = CrossValidation::new(labelled.len(), k, seed)?;
        let mut vocab = Vocab::new();
        let interned: Vec<Vec<TokenId>> = labelled
            .iter()
            .map(|(seq, _)| {
                let mut ids = Vec::new();
                vocab.intern_into(seq, &mut ids);
                ids
            })
            .collect();
        let folds: Vec<_> = cv.folds().collect();
        let order = self.order;
        let smoothing = self.smoothing;
        let score_fold = |fold: &crate::crossval::Fold| -> Result<Vec<(usize, f64)>, RadError> {
            let training: Vec<&[TokenId]> =
                fold.train.iter().map(|&i| interned[i].as_slice()).collect();
            let lm = InternedLm::fit(order, &training, smoothing)?;
            fold.test
                .iter()
                .map(|&i| Ok((i, lm.perplexity(&interned[i])?)))
                .collect()
        };
        // Fitting a fold costs roughly one pass over its training
        // tokens; below ~8k tokens per worker the thread spawn/join
        // overhead outweighs the overlap (and on a single-core box
        // there is no overlap at all), so score folds inline.
        let total_tokens: usize = interned.iter().map(Vec::len).sum::<usize>() * folds.len();
        let fold_scores: Vec<Result<Vec<(usize, f64)>, RadError>> =
            if rad_core::par::should_fan_out(folds.len(), total_tokens, MIN_TOKENS_PER_FOLD_THREAD)
                .is_none()
            {
                folds.iter().map(score_fold).collect()
            } else {
                crossbeam::thread::scope(|s| {
                    let handles: Vec<_> = folds
                        .iter()
                        .map(|fold| {
                            let score_fold = &score_fold;
                            s.spawn(move || score_fold(fold))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("fold worker panicked"))
                        .collect()
                })
            };
        let mut scores: Vec<Option<(f64, bool)>> = vec![None; labelled.len()];
        for per_fold in fold_scores {
            for (i, ppl) in per_fold? {
                scores[i] = Some((ppl, labelled[i].1));
            }
        }
        let flat: Vec<(f64, bool)> = scores
            .into_iter()
            .map(|s| s.expect("every item lands in one test fold"))
            .collect();
        let log_scores: Vec<f64> = flat.iter().map(|(p, _)| p.ln()).collect();
        let threshold = jenks_two_class(&log_scores)?.exp();
        let mut confusion = ConfusionMatrix::new();
        let mut detailed = Vec::with_capacity(flat.len());
        for (ppl, actual) in flat {
            let predicted = ppl > threshold;
            confusion.record(actual, predicted);
            detailed.push((ppl, actual, predicted));
        }
        Ok(EvaluationReport {
            confusion,
            scores: detailed,
            threshold,
        })
    }

    /// Fits a deployable detector: the model trains on the given
    /// (benign) sequences and the alarm threshold comes from Jenks
    /// clustering of `calibration` scores — or, when calibration
    /// produces a single class, a multiple of the largest training
    /// perplexity.
    ///
    /// # Errors
    ///
    /// Propagates model-fit and scoring failures.
    pub fn fit<T: Clone + Eq + Hash + Ord>(
        &self,
        training: &[Vec<T>],
        calibration: &[Vec<T>],
    ) -> Result<FittedDetector<T>, RadError> {
        let lm = CommandLm::fit(self.order, training, self.smoothing)?;
        let mut scores = Vec::with_capacity(calibration.len());
        for seq in calibration {
            scores.push(lm.perplexity(seq)?);
        }
        let threshold = if scores.len() >= 2 {
            let logs: Vec<f64> = scores.iter().map(|p| p.ln()).collect();
            jenks_two_class(&logs)?.exp()
        } else {
            // No calibration spread: fall back to a safety margin over
            // whatever we saw.
            scores.first().copied().unwrap_or(1.0) * 3.0
        };
        Ok(FittedDetector {
            lm: Arc::new(lm),
            threshold,
        })
    }
}

/// A fitted, deployable detector.
///
/// The model is immutable once fitted and shared: clones of the
/// detector, and the streaming stages built from it, score through one
/// copy.
#[derive(Debug, Clone)]
pub struct FittedDetector<T> {
    lm: Arc<CommandLm<T>>,
    threshold: f64,
}

impl<T: Clone + Eq + Hash + Ord> FittedDetector<T> {
    /// The alarm threshold in perplexity units.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The fitted language model. The streaming stages score through
    /// its interned-id fast path instead of re-tokenizing per push.
    pub fn lm(&self) -> &CommandLm<T> {
        &self.lm
    }

    /// A shared handle on the fitted model.
    pub(crate) fn shared_lm(&self) -> Arc<CommandLm<T>> {
        Arc::clone(&self.lm)
    }

    /// Overrides the alarm threshold.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// Perplexity of a completed sequence.
    ///
    /// # Errors
    ///
    /// Fails on sequences shorter than the model order.
    pub fn score(&self, sequence: &[T]) -> Result<f64, RadError> {
        self.lm.perplexity(sequence)
    }

    /// Whether a completed sequence scores above the alarm threshold.
    ///
    /// # Errors
    ///
    /// Fails on sequences shorter than the model order.
    pub fn is_anomalous(&self, sequence: &[T]) -> Result<bool, RadError> {
        Ok(self.score(sequence)? > self.threshold)
    }

    /// Localizes the anomaly: returns the `k` least-probable
    /// transitions of `sequence`, most suspicious first, as
    /// `(index of the transition's last token, probability)`. This is
    /// what an operator sees next to an alarm — *where* the run went
    /// off-script, not just that it did.
    ///
    /// # Errors
    ///
    /// Fails on sequences shorter than the model order.
    pub fn localize(&self, sequence: &[T], k: usize) -> Result<Vec<(usize, f64)>, RadError> {
        let n = self.lm.order();
        if sequence.len() < n {
            return Err(RadError::Analysis(format!(
                "sequence of {} tokens is shorter than model order {n}",
                sequence.len()
            )));
        }
        let mut scored: Vec<(usize, f64)> = sequence
            .windows(n)
            .enumerate()
            .map(|(i, w)| (i + n - 1, self.lm.probability(&w[..n - 1], &w[n - 1])))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("probabilities are finite"));
        scored.truncate(k);
        Ok(scored)
    }

    /// Starts a streaming scorer with a sliding window of `window`
    /// transitions — the real-time mode §V-B motivates.
    ///
    /// The window counts *transitions*, not tokens, so it is
    /// independent of the model order: `window = 1` scores only the
    /// most recent transition even under a high-order model. A window
    /// of `0` means unbounded — every transition stays in scope, and
    /// the final windowed perplexity of a completed sequence equals
    /// [`FittedDetector::score`] of that sequence exactly.
    pub fn stream(&self, window: usize) -> StreamScorer<'_, T> {
        StreamScorer {
            detector: self,
            context: VecDeque::new(),
            log_probs: VecDeque::new(),
            window: if window == 0 { usize::MAX } else { window },
            log_sum: 0.0,
        }
    }
}

/// Online perplexity over the last `window` transitions.
#[derive(Debug)]
pub struct StreamScorer<'a, T> {
    detector: &'a FittedDetector<T>,
    context: VecDeque<T>,
    log_probs: VecDeque<f64>,
    window: usize,
    log_sum: f64,
}

impl<T: Clone + Eq + Hash + Ord> StreamScorer<'_, T> {
    /// Feeds the next observed command. Returns the current windowed
    /// perplexity once at least one transition has been scored.
    pub fn push(&mut self, token: T) -> Option<f64> {
        self.context.push_back(token);
        let n = self.detector.lm.order();
        if self.context.len() > n {
            self.context.pop_front();
        }
        if self.context.len() == n {
            let window = self.context.make_contiguous();
            let (ctx, next) = window.split_at(n - 1);
            let logp = self.detector.lm.probability(ctx, &next[0]).ln();
            self.log_probs.push_back(logp);
            self.log_sum += logp;
            if self.log_probs.len() > self.window {
                self.log_sum -= self.log_probs.pop_front().expect("len > window >= 1");
            }
        }
        self.perplexity()
    }

    /// Current windowed perplexity. `None` until the first transition
    /// has been scored — an empty (or shorter-than-order) stream has
    /// no perplexity, and [`StreamScorer::is_alarming`] stays `false`.
    pub fn perplexity(&self) -> Option<f64> {
        if self.log_probs.is_empty() {
            return None;
        }
        Some((-self.log_sum / self.log_probs.len() as f64).exp())
    }

    /// Number of transitions currently in the window.
    pub fn transitions(&self) -> usize {
        self.log_probs.len()
    }

    /// Forgets all context and scored transitions — the run-boundary
    /// reset, so one scorer serves many runs without carrying a
    /// cross-run transition over.
    pub fn reset(&mut self) {
        self.context.clear();
        self.log_probs.clear();
        self.log_sum = 0.0;
    }

    /// Whether the current window scores above the alarm threshold.
    pub fn is_alarming(&self) -> bool {
        self.perplexity()
            .is_some_and(|p| p > self.detector.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Benign runs repeat an A-B pattern; anomalies go off-script.
    fn labelled() -> Vec<(Vec<&'static str>, bool)> {
        let mut out = Vec::new();
        for i in 0..9 {
            let mut seq = Vec::new();
            for _ in 0..(10 + i % 3) {
                seq.push("A");
                seq.push("B");
            }
            out.push((seq, false));
        }
        out.push((vec!["A", "B", "A", "X", "X", "Y", "X", "B", "B", "B"], true));
        out
    }

    #[test]
    fn evaluation_catches_the_planted_anomaly() {
        let det = PerplexityDetector::new(2);
        let report = det.evaluate(&labelled(), 5, 0).unwrap();
        assert_eq!(report.confusion.true_positives(), 1);
        assert_eq!(report.confusion.false_negatives(), 0);
        assert!((report.confusion.recall() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scores_align_with_labels() {
        let det = PerplexityDetector::new(2);
        let report = det.evaluate(&labelled(), 5, 1).unwrap();
        let anomaly_score = report
            .scores
            .iter()
            .find(|(_, actual, _)| *actual)
            .unwrap()
            .0;
        for (score, actual, _) in &report.scores {
            if !actual {
                assert!(anomaly_score > *score, "anomaly outscores benign runs");
            }
        }
    }

    #[test]
    fn fitted_detector_flags_unseen_weirdness() {
        let benign: Vec<Vec<&str>> = labelled()
            .into_iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| s)
            .collect();
        let det = PerplexityDetector::new(2)
            .fit(&benign[..6], &benign[6..])
            .unwrap();
        assert!(!det.is_anomalous(&["A", "B", "A", "B", "A", "B"]).unwrap());
        assert!(det.is_anomalous(&["B", "B", "B", "A", "A"]).unwrap());
    }

    #[test]
    fn streaming_scorer_rises_on_anomalous_suffix() {
        let benign: Vec<Vec<&str>> = labelled()
            .into_iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| s)
            .collect();
        let det = PerplexityDetector::new(2).fit(&benign, &benign).unwrap();
        let mut stream = det.stream(4);
        let mut normal_ppl = 0.0;
        for t in ["A", "B", "A", "B", "A", "B"] {
            if let Some(p) = stream.push(t) {
                normal_ppl = p;
            }
        }
        assert!(!stream.is_alarming());
        for t in ["B", "X", "X"] {
            stream.push(t);
        }
        let anomalous_ppl = stream.perplexity().unwrap();
        assert!(anomalous_ppl > normal_ppl * 10.0);
    }

    #[test]
    fn streaming_window_forgets_old_transitions() {
        let benign: Vec<Vec<&str>> = labelled()
            .into_iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| s)
            .collect();
        let det = PerplexityDetector::new(2).fit(&benign, &benign).unwrap();
        let mut stream = det.stream(3);
        // One bad transition...
        for t in ["A", "B", "B"] {
            stream.push(t);
        }
        let spiked = stream.perplexity().unwrap();
        // ...followed by plenty of normal traffic: the window slides
        // past the spike.
        for _ in 0..5 {
            stream.push("A");
            stream.push("B");
        }
        let recovered = stream.perplexity().unwrap();
        assert!(
            recovered < spiked / 10.0,
            "spiked {spiked}, recovered {recovered}"
        );
    }

    #[test]
    fn stream_returns_none_before_first_transition() {
        let benign: Vec<Vec<&str>> = labelled()
            .into_iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| s)
            .collect();
        let det = PerplexityDetector::new(3).fit(&benign, &benign).unwrap();
        let mut stream = det.stream(4);
        assert_eq!(stream.push("A"), None);
        assert_eq!(stream.push("B"), None, "trigram needs three tokens");
        assert!(stream.push("A").is_some());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn order_one_is_rejected() {
        let _ = PerplexityDetector::new(1);
    }

    #[test]
    fn stream_window_zero_is_unbounded_and_matches_batch_score() {
        let benign: Vec<Vec<&str>> = labelled()
            .into_iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| s)
            .collect();
        let det = PerplexityDetector::new(2).fit(&benign, &benign).unwrap();
        let seq = ["A", "B", "A", "X", "B", "A", "B"];
        let mut stream = det.stream(0);
        for t in seq {
            stream.push(t);
        }
        let streamed = stream.perplexity().unwrap();
        let batch = det.score(&seq).unwrap();
        assert_eq!(streamed, batch, "unbounded window == batch, bit for bit");
        assert_eq!(stream.transitions(), seq.len() - 1);
    }

    #[test]
    fn stream_window_one_tracks_the_latest_transition() {
        let benign: Vec<Vec<&str>> = labelled()
            .into_iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| s)
            .collect();
        let det = PerplexityDetector::new(2).fit(&benign, &benign).unwrap();
        let mut stream = det.stream(1);
        for t in ["A", "B", "A", "B"] {
            stream.push(t);
        }
        assert_eq!(stream.transitions(), 1, "window 1 keeps one transition");
        assert!(!stream.is_alarming());
        stream.push("X");
        // The only scored transition is B->X, far off-grammar.
        assert!(stream.is_alarming());
        stream.push("A");
        stream.push("B");
        // ...and one window later the spike is fully forgotten.
        assert!(!stream.is_alarming());
    }

    #[test]
    fn stream_window_shorter_than_order_still_scores() {
        // The window counts transitions, not tokens: a trigram model
        // with window 1 is well-defined (each transition consumes a
        // three-token context internally).
        let training = vec![vec!["X", "Y", "Z", "X", "Y", "Z", "X", "Y", "Z"]];
        let det = PerplexityDetector::new(3)
            .fit(&training, &training)
            .unwrap();
        let mut stream = det.stream(1);
        assert_eq!(stream.push("X"), None);
        assert_eq!(stream.push("Y"), None, "trigram context still filling");
        let first = stream.push("Z").expect("first transition scored");
        assert!(first < 1.5, "on-grammar transition scores low: {first}");
        assert_eq!(stream.transitions(), 1);
    }

    #[test]
    fn empty_stream_has_no_perplexity_and_never_alarms() {
        let benign: Vec<Vec<&str>> = labelled()
            .into_iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| s)
            .collect();
        let det = PerplexityDetector::new(2).fit(&benign, &benign).unwrap();
        let stream = det.stream(4);
        assert_eq!(stream.perplexity(), None);
        assert!(!stream.is_alarming());
        assert_eq!(stream.transitions(), 0);
    }

    #[test]
    fn stream_reset_clears_context_across_runs() {
        let benign: Vec<Vec<&str>> = labelled()
            .into_iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| s)
            .collect();
        let det = PerplexityDetector::new(2).fit(&benign, &benign).unwrap();
        let mut stream = det.stream(0);
        for t in ["A", "B", "A", "B"] {
            stream.push(t);
        }
        stream.reset();
        assert_eq!(stream.perplexity(), None);
        // After a reset the scorer behaves exactly like a fresh one:
        // no phantom cross-run transition is scored.
        for t in ["B", "A", "B"] {
            stream.push(t);
        }
        let resumed = stream.perplexity().unwrap();
        let fresh = det.score(&["B", "A", "B"]).unwrap();
        assert_eq!(resumed, fresh);
    }

    #[test]
    fn localize_points_at_the_off_script_tokens() {
        let benign: Vec<Vec<&str>> = labelled()
            .into_iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| s)
            .collect();
        let det = PerplexityDetector::new(2).fit(&benign, &benign).unwrap();
        //                      0    1    2    3    4    5    6
        let run = ["A", "B", "A", "X", "X", "B", "A", "B"];
        let suspects = det.localize(&run, 3).unwrap();
        let indices: Vec<usize> = suspects.iter().map(|(i, _)| *i).collect();
        // The transitions into and out of the X tokens are the least
        // probable ones.
        assert!(indices.contains(&3), "A->X at index 3: {indices:?}");
        assert!(indices.contains(&4), "X->X at index 4: {indices:?}");
        assert!(
            suspects[0].1 < 1e-3,
            "top suspect has near-zero probability"
        );
    }

    #[test]
    fn localize_validates_length() {
        let benign: Vec<Vec<&str>> = labelled()
            .into_iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| s)
            .collect();
        let det = PerplexityDetector::new(3).fit(&benign, &benign).unwrap();
        assert!(det.localize(&["A", "B"], 2).is_err());
    }
}
