//! Tokenization strategies: what counts as a "word" of the command
//! language.
//!
//! The paper's analyses use bare command types ("we considered only
//! commands and not their parameters") and name parameter-awareness as
//! immediate future work. [`Tokenizer`] abstracts the choice so every
//! model in this crate runs on either granularity, and
//! [`ParamTokenizer`] implements the future-work variant: command
//! mnemonic plus bucketed arguments (see
//! [`rad_core::Value::param_token`] for the bucketing rules that keep
//! the vocabulary finite).

use rad_core::{TraceObject, TraceRow};

/// Maps trace objects to language-model tokens.
pub trait Tokenizer {
    /// The token type produced.
    type Token: Clone + Eq + std::hash::Hash + Ord;

    /// Tokenizes one trace object.
    fn token(&self, trace: &TraceObject) -> Self::Token;

    /// Tokenizes one columnar row. The default materializes the row;
    /// implementations override it to read the columns they need
    /// directly (e.g. the dense command-token-id column).
    fn token_row(&self, row: &TraceRow<'_>) -> Self::Token {
        self.token(&row.to_object())
    }

    /// Tokenizes a run (convenience).
    fn tokenize<'a, I>(&self, traces: I) -> Vec<Self::Token>
    where
        I: IntoIterator<Item = &'a TraceObject>,
    {
        traces.into_iter().map(|t| self.token(t)).collect()
    }
}

/// The paper's granularity: the command type only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandTokenizer;

impl Tokenizer for CommandTokenizer {
    type Token = rad_core::CommandType;

    fn token(&self, trace: &TraceObject) -> Self::Token {
        trace.command_type()
    }

    fn token_row(&self, row: &TraceRow<'_>) -> Self::Token {
        // The batch's dense token-id column *is* this tokenizer's
        // vocabulary; decoding is a bounds-checked array index.
        rad_core::CommandType::from_token_id(row.command_token_id() as usize)
            .expect("token ids in a batch are valid by construction")
    }
}

/// The future-work granularity: mnemonic plus bucketed arguments.
///
/// # Examples
///
/// ```
/// use rad_analysis::token::{ParamTokenizer, Tokenizer};
/// use rad_core::{Command, CommandType, DeviceId, DeviceKind, SimInstant, TraceId, TraceObject,
///                Value};
///
/// let trace = TraceObject::builder(
///     TraceId(0),
///     SimInstant::EPOCH,
///     DeviceId::primary(DeviceKind::Tecan),
///     Command::new(CommandType::TecanSetVelocity, vec![Value::Int(900)]),
/// ).build();
/// assert_eq!(ParamTokenizer.token(&trace), "V(i:900)");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParamTokenizer;

impl Tokenizer for ParamTokenizer {
    type Token = String;

    fn token(&self, trace: &TraceObject) -> Self::Token {
        let args: Vec<String> = trace
            .command()
            .args()
            .iter()
            .map(|v| v.param_token())
            .collect();
        format!("{}({})", trace.command_type().mnemonic(), args.join(","))
    }

    fn token_row(&self, row: &TraceRow<'_>) -> Self::Token {
        let args: Vec<String> = row.args().iter().map(|v| v.param_token()).collect();
        format!("{}({})", row.command_type().mnemonic(), args.join(","))
    }
}

/// Tokenizes every supervised run of a dataset with `tokenizer`,
/// returning `(tokens, is_anomalous)` pairs in run-id order — the
/// direct input of [`crate::PerplexityDetector::evaluate`].
pub fn labelled_runs<T: Tokenizer>(
    dataset: &rad_store::CommandDataset,
    tokenizer: &T,
) -> Vec<(Vec<T::Token>, bool)> {
    // One pass over the run-id column groups every row; the old path
    // rescanned (and materialized) the whole trace log once per run.
    let batch = dataset.batch();
    let timestamps = batch.timestamps_us();
    let mut by_run: std::collections::BTreeMap<rad_core::RunId, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, run) in batch.run_ids().iter().enumerate() {
        if let Some(r) = *run {
            by_run.entry(r).or_default().push(i);
        }
    }
    dataset
        .supervised_runs()
        .iter()
        .map(|meta| {
            let mut rows = by_run.remove(&meta.run_id()).unwrap_or_default();
            rows.sort_by_key(|&i| timestamps[i]);
            (
                rows.into_iter()
                    .map(|i| tokenizer.token_row(&batch.get(i)))
                    .collect(),
                meta.label().is_anomalous(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::{
        Command, CommandType, DeviceId, Label, ProcedureKind, RunId, SimInstant, TraceId, Value,
    };
    use rad_store::CommandDataset;

    fn trace(id: u64, ct: CommandType, args: Vec<Value>) -> TraceObject {
        TraceObject::builder(
            TraceId(id),
            SimInstant::from_micros(id * 1000),
            DeviceId::primary(ct.device()),
            Command::new(ct, args),
        )
        .run(ProcedureKind::JoystickMovements, RunId(0), Label::Benign)
        .build()
    }

    #[test]
    fn command_tokenizer_drops_arguments() {
        let a = trace(0, CommandType::Arm, vec![Value::Int(1)]);
        let b = trace(1, CommandType::Arm, vec![Value::Int(999)]);
        assert_eq!(CommandTokenizer.token(&a), CommandTokenizer.token(&b));
    }

    #[test]
    fn param_tokenizer_distinguishes_argument_buckets() {
        let slow = trace(0, CommandType::Sped, vec![Value::Float(50.0)]);
        let fast = trace(1, CommandType::Sped, vec![Value::Float(450.0)]);
        assert_ne!(ParamTokenizer.token(&slow), ParamTokenizer.token(&fast));
        // But values in the same magnitude bucket share a token.
        let similar = trace(2, CommandType::Sped, vec![Value::Float(60.0)]);
        assert_eq!(ParamTokenizer.token(&slow), ParamTokenizer.token(&similar));
    }

    #[test]
    fn labelled_runs_orders_by_timestamp() {
        let mut ds = CommandDataset::new();
        ds.add_run(
            rad_core::RunMetadata::new(
                RunId(0),
                ProcedureKind::JoystickMovements,
                SimInstant::EPOCH,
            )
            .with_label(Label::Benign),
        );
        ds.push_trace(trace(5, CommandType::Mvng, vec![]));
        ds.push_trace(trace(1, CommandType::Arm, vec![]));
        let runs = labelled_runs(&ds, &CommandTokenizer);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, vec![CommandType::Arm, CommandType::Mvng]);
        assert!(!runs[0].1);
    }

    #[test]
    fn param_tokens_detect_the_speed_attack_that_command_tokens_miss() {
        // A benign corpus where SPED is always ~150 followed by ARM.
        use crate::{CommandLm, Smoothing};
        let benign_run = |seed: u64| -> Vec<String> {
            (0..10)
                .flat_map(|i| {
                    vec![
                        ParamTokenizer.token(&trace(
                            seed * 100 + i * 2,
                            CommandType::Sped,
                            vec![Value::Float(150.0)],
                        )),
                        ParamTokenizer.token(&trace(
                            seed * 100 + i * 2 + 1,
                            CommandType::Arm,
                            vec![Value::Location {
                                x: 100.0,
                                y: 50.0,
                                z: 200.0,
                            }],
                        )),
                    ]
                })
                .collect()
        };
        let corpus: Vec<Vec<String>> = (0..4).map(benign_run).collect();
        let lm = CommandLm::fit(2, &corpus, Smoothing::default()).unwrap();
        // The speed attack: same command types, inflated argument.
        let attack: Vec<String> = vec![
            ParamTokenizer.token(&trace(0, CommandType::Sped, vec![Value::Float(450.0)])),
            ParamTokenizer.token(&trace(
                1,
                CommandType::Arm,
                vec![Value::Location {
                    x: 100.0,
                    y: 50.0,
                    z: 200.0,
                }],
            )),
            ParamTokenizer.token(&trace(2, CommandType::Sped, vec![Value::Float(450.0)])),
            ParamTokenizer.token(&trace(
                3,
                CommandType::Arm,
                vec![Value::Location {
                    x: 100.0,
                    y: 50.0,
                    z: 200.0,
                }],
            )),
        ];
        let benign_ppl = lm.perplexity(&corpus[0]).unwrap();
        let attack_ppl = lm.perplexity(&attack).unwrap();
        assert!(
            attack_ppl > benign_ppl * 100.0,
            "parameter-aware tokens expose the speed attack: {attack_ppl} vs {benign_ppl}"
        );
    }
}
