//! Property tests on the core vocabulary.

use proptest::prelude::*;
use rad_core::{
    AnomalyCause, Command, CommandType, DeviceId, Label, ProcedureKind, RunId, SimDuration,
    SimInstant, TraceBatch, TraceId, TraceMode, TraceObject, Value,
};

fn arb_duration() -> impl Strategy<Value = SimDuration> {
    (0u64..1_000_000_000).prop_map(SimDuration::from_micros)
}

proptest! {
    /// Duration addition is commutative and associative.
    #[test]
    fn duration_addition_laws(a in arb_duration(), b in arb_duration(), c in arb_duration()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    /// `saturating_sub` never underflows and inverts addition.
    #[test]
    fn duration_saturating_sub(a in arb_duration(), b in arb_duration()) {
        let sum = a + b;
        prop_assert_eq!(sum.saturating_sub(b), a);
        prop_assert_eq!(SimDuration::ZERO.saturating_sub(a), SimDuration::ZERO);
    }

    /// Instant arithmetic round-trips: (t + d) - t == d.
    #[test]
    fn instant_round_trip(start in 0u64..1_000_000_000, d in arb_duration()) {
        let t0 = SimInstant::from_micros(start);
        let t1 = t0 + d;
        prop_assert_eq!(t1.duration_since(t0), d);
        prop_assert_eq!(t1.saturating_duration_since(t0), d);
        prop_assert_eq!(t0.saturating_duration_since(t1), SimDuration::ZERO);
    }

    /// Token ids form a bijection over the 52 command types.
    #[test]
    fn token_ids_are_bijective(id in 0usize..52) {
        let ct = CommandType::from_token_id(id).unwrap();
        prop_assert_eq!(ct.token_id(), id);
        prop_assert!(CommandType::all().contains(&ct));
    }

    /// Mnemonic parsing round-trips for every command type.
    #[test]
    fn mnemonics_round_trip(id in 0usize..52) {
        let ct = CommandType::from_token_id(id).unwrap();
        let parsed: CommandType = ct.mnemonic().parse().unwrap();
        prop_assert_eq!(parsed, ct);
    }

    /// `param_token` is a pure function: equal values, equal tokens —
    /// and it never panics on any float.
    #[test]
    fn param_token_is_total_and_deterministic(f in proptest::num::f64::ANY) {
        prop_assume!(f.is_finite());
        let a = Value::Float(f).param_token();
        let b = Value::Float(f).param_token();
        prop_assert_eq!(a, b);
    }

    /// Serde round trip for values.
    #[test]
    fn value_serde_round_trip(i in any::<i64>(), s in "[a-z]{0,12}", b in any::<bool>()) {
        for v in [Value::Int(i), Value::Str(s.clone()), Value::Bool(b), Value::Unit] {
            let json = serde_json::to_string(&v).unwrap();
            let back: Value = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, v);
        }
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Float),
        "[a-z]{0,8}".prop_map(Value::Str),
    ]
}

fn arb_label() -> impl Strategy<Value = Label> {
    prop_oneof![
        Just(Label::Benign),
        Just(Label::Unknown),
        Just(Label::Anomalous(AnomalyCause::QuantosDoorVsN9)),
        Just(Label::Anomalous(AnomalyCause::ArmVsTecan)),
    ]
}

/// A trace object covering every column the batch stores: sparse
/// exceptions, optional run attribution, varying arg arity, all three
/// modes.
fn arb_trace() -> impl Strategy<Value = TraceObject> {
    let head = (
        any::<u64>(),
        0u64..1_000_000_000,
        0usize..52,
        proptest::collection::vec(arb_value(), 0..4),
    );
    let tail = (
        prop_oneof![
            Just(TraceMode::Direct),
            Just(TraceMode::Remote),
            Just(TraceMode::Cloud)
        ],
        arb_value(),
        proptest::option::of("[a-z ]{1,16}"),
        arb_duration(),
        proptest::option::of((0u32..32, arb_label())),
    );
    (head, tail).prop_map(|((id, ts, token, args), (mode, ret, exception, rt, run))| {
        let ct = CommandType::from_token_id(token).unwrap();
        let mut b = TraceObject::builder(
            TraceId(id),
            SimInstant::from_micros(ts),
            DeviceId::primary(ct.device()),
            Command::new(ct, args),
        )
        .mode(mode)
        .return_value(ret)
        .response_time(rt);
        if let Some(e) = exception {
            b = b.exception(e);
        }
        if let Some((run_id, label)) = run {
            b = b.run(ProcedureKind::JoystickMovements, RunId(run_id), label);
        }
        b.build()
    })
}

proptest! {
    /// Columnar round trip: `from_traces` → `to_traces` reproduces the
    /// row-oriented log exactly, field for field.
    #[test]
    fn batch_round_trips_traces(traces in proptest::collection::vec(arb_trace(), 0..40)) {
        let batch = TraceBatch::from_traces(&traces);
        prop_assert_eq!(batch.len(), traces.len());
        prop_assert_eq!(batch.to_traces(), traces);
    }

    /// Row views agree with materialization: every accessor on
    /// `TraceRow` matches the owned `TraceObject` at that index, and
    /// `materialize` equals the original.
    #[test]
    fn batch_rows_view_the_same_data(traces in proptest::collection::vec(arb_trace(), 1..20)) {
        let batch = TraceBatch::from_traces(&traces);
        for (i, t) in traces.iter().enumerate() {
            let row = batch.get(i);
            prop_assert_eq!(row.id(), t.id());
            prop_assert_eq!(row.timestamp(), t.timestamp());
            prop_assert_eq!(row.device(), t.device());
            prop_assert_eq!(row.command_type(), t.command_type());
            prop_assert_eq!(row.command_token_id() as usize, t.command_type().token_id());
            prop_assert_eq!(row.args(), t.command().args());
            prop_assert_eq!(row.mode(), t.mode());
            prop_assert_eq!(row.return_value(), t.return_value());
            prop_assert_eq!(row.exception(), t.exception());
            prop_assert_eq!(row.response_time(), t.response_time());
            prop_assert_eq!(row.procedure(), t.procedure());
            prop_assert_eq!(row.run_id(), t.run_id());
            prop_assert_eq!(row.label(), t.label());
            prop_assert_eq!(&batch.materialize(i), t);
        }
    }

    /// Incremental pushes build the same batch as bulk conversion, and
    /// `append` concatenates: batches compose like the vectors they
    /// replace.
    #[test]
    fn batch_push_and_append_compose(
        left in proptest::collection::vec(arb_trace(), 0..20),
        right in proptest::collection::vec(arb_trace(), 0..20),
    ) {
        let mut pushed = TraceBatch::new();
        for t in &left {
            pushed.push(t);
        }
        prop_assert_eq!(pushed.to_traces(), left.clone());

        let mut appended = TraceBatch::from_traces(&left);
        appended.append(&TraceBatch::from_traces(&right));
        let mut both = left;
        both.extend(right);
        prop_assert_eq!(appended.to_traces(), both);
    }
}

/// An ordered pair of positions in `0..=len`, drawn from two raw
/// picks, so every sub-range of a batch (empty ones included) can come
/// up.
fn ordered(picks: (usize, usize), len: usize) -> (usize, usize) {
    let (x, y) = (picks.0 % (len + 1), picks.1 % (len + 1));
    (x.min(y), x.max(y))
}

proptest! {
    /// The column-range `slice` equals gathering the same rows with
    /// `select`: offsets rebased, exception rows renumbered.
    #[test]
    fn slice_equals_select_of_its_rows(
        traces in proptest::collection::vec(arb_trace(), 0..40),
        picks in (any::<usize>(), any::<usize>()),
    ) {
        let batch = TraceBatch::from_traces(&traces);
        let (a, b) = ordered(picks, batch.len());
        let rows: Vec<usize> = (a..b).collect();
        prop_assert_eq!(batch.slice(a..b), batch.select(&rows));
    }

    /// Slicing composes: a slice of a slice is the slice at the summed
    /// offsets, and the full range is the batch itself.
    #[test]
    fn slice_composes_and_the_full_range_is_identity(
        traces in proptest::collection::vec(arb_trace(), 0..40),
        outer in (any::<usize>(), any::<usize>()),
        inner in (any::<usize>(), any::<usize>()),
    ) {
        let batch = TraceBatch::from_traces(&traces);
        let (a, b) = ordered(outer, batch.len());
        let (c, d) = ordered(inner, b - a);
        prop_assert_eq!(batch.slice(a..b).slice(c..d), batch.slice(a + c..a + d));
        prop_assert_eq!(batch.slice(0..batch.len()), batch);
    }
}
