//! The RAD analyses: commands as a language.
//!
//! §V of the paper treats command sequences as sentences and applies
//! interpretable NLP machinery to them. This crate implements that
//! pipeline end to end, generic over the token type so both the
//! paper's command-only models and the parameter-aware ablation run on
//! the same code:
//!
//! - [`NgramCounter`] — n-gram frequency study (Fig. 5b).
//! - [`TfIdf`] — procedure fingerprinting via TF-IDF + cosine
//!   similarity (Fig. 6, RQ1).
//! - [`CommandLm`] — n-gram language model with configurable
//!   [`Smoothing`], and its perplexity score (RQ2).
//! - [`jenks_two_class`] — Jenks natural-breaks clustering of
//!   perplexity scores into benign/anomalous.
//! - [`CrossValidation`] — the 5-fold protocol of §V-B.
//! - [`ConfusionMatrix`] — accuracy, weighted accuracy, precision,
//!   recall, F1 (Table I).
//! - [`PerplexityDetector`] — the assembled anomaly detector, with a
//!   streaming mode for the real-time use case the paper motivates.
//!
//! The counting and scoring hot paths run over interned token ids
//! ([`intern::Vocab`] / [`intern::TokenId`]) with packed n-gram keys,
//! so fitting and scoring allocate nothing per window; the original
//! token-keyed algorithms survive in [`mod@reference`] as the semantic
//! oracle. Cross-validation folds evaluate in parallel over the
//! once-interned corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod crossval;
pub mod detector;
pub mod hmm;
pub mod intern;
pub mod jenks;
pub mod lm;
pub mod metrics;
pub mod ngram;
pub mod reference;
pub mod specmine;
pub mod streaming;
pub mod tfidf;
pub mod token;

pub use baseline::{
    evaluate_classifier, RareCommandDetector, RunClassifier, RunLengthDetector, TransitionAllowlist,
};
pub use crossval::CrossValidation;
pub use detector::PerplexityDetector;
pub use hmm::{Hmm, HmmDetector};
pub use intern::{InternedNgramCounter, TokenId, Vocab};
pub use jenks::{jenks_breaks, jenks_two_class};
pub use lm::{CommandLm, InternedLm, Smoothing};
pub use metrics::ConfusionMatrix;
pub use ngram::NgramCounter;
pub use reference::{ReferenceLm, ReferenceNgramCounter};
pub use specmine::{synthesize, MinedSpec, SpecViolation};
pub use streaming::{
    AlertPolicy, PerplexitySpec, PowerStatsSpec, ProcedureFingerprints, RecordingStats, RunScore,
    StreamingFingerprint, StreamingPerplexity, StreamingPowerStats, Threshold, ThresholdSpec,
    WindowedJenks,
};
pub use tfidf::TfIdf;
pub use token::{labelled_runs, CommandTokenizer, ParamTokenizer, Tokenizer};
