//! Property tests on the binary wire codec.
//!
//! Four invariants, each under randomized messages:
//!
//! 1. every message type round-trips through its binary encoding
//!    exactly — ids, commands, values, labels, procedures included;
//! 2. JSON payloads decode through the same entry points (the
//!    self-describing first byte keeps old clients working);
//! 3. any strict prefix of a binary frame is rejected with a typed
//!    error — never a panic, never a partial message;
//! 4. a single flipped bit anywhere in a binary frame is rejected
//!    (CRC32 catches all single-bit damage).
//!
//! Case counts honour `PROPTEST_CASES` (the CI wire-conformance job
//! raises it to 512).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rad_core::{AnomalyCause, Command, CommandType, Label, ProcedureKind, Value};
use rad_middlebox::server::{WireFrame, WireReply, WireRequest};
use rad_middlebox::wire;

fn leaf_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks `PartialEq` round-trip
        // comparison, not the codec (which is exact on every bit
        // pattern — the unit suite covers NaN).
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        "[ -~]{0,24}".prop_map(Value::Str),
        (-1.0e6f64..1.0e6, -1.0e6f64..1.0e6, -1.0e6f64..1.0e6,)
            .prop_map(|(x, y, z)| Value::Location { x, y, z }),
        proptest::collection::vec(-10.0f64..10.0, 6)
            .prop_map(|j| { Value::Joints([j[0], j[1], j[2], j[3], j[4], j[5]]) }),
    ]
    .boxed()
}

fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        leaf_value(),
        proptest::collection::vec(leaf_value(), 0..4).prop_map(Value::List),
    ]
    .boxed()
}

fn command() -> BoxedStrategy<Command> {
    (
        0usize..CommandType::all().len(),
        proptest::collection::vec(value(), 0..4),
    )
        .prop_map(|(pick, args)| Command::new(CommandType::all()[pick], args))
        .boxed()
}

fn label() -> BoxedStrategy<Label> {
    prop_oneof![
        Just(Label::Benign),
        Just(Label::Unknown),
        Just(Label::Anomalous(AnomalyCause::QuantosDoorVsN9)),
        Just(Label::Anomalous(AnomalyCause::QuantosDoorVsUr3e)),
        Just(Label::Anomalous(AnomalyCause::ArmVsTecan)),
    ]
    .boxed()
}

fn procedure() -> BoxedStrategy<ProcedureKind> {
    prop_oneof![
        Just(ProcedureKind::AutomatedSolubilityN9),
        Just(ProcedureKind::AutomatedSolubilityN9Ur3e),
        Just(ProcedureKind::CrystalSolubility),
        Just(ProcedureKind::JoystickMovements),
        Just(ProcedureKind::VelocitySweep),
        Just(ProcedureKind::PayloadSweep),
        Just(ProcedureKind::Unknown),
    ]
    .boxed()
}

fn wire_request() -> BoxedStrategy<WireRequest> {
    prop_oneof![
        "[a-z]{1,12}".prop_map(|tenant| WireRequest::Hello { tenant }),
        (any::<u64>(), command()).prop_map(|(deadline_ms, command)| WireRequest::Issue {
            deadline_ms,
            command,
        }),
        (any::<u32>(), procedure(), label()).prop_map(|(run, procedure, label)| {
            WireRequest::BeginRun {
                run,
                procedure,
                label,
            }
        }),
        Just(WireRequest::EndRun),
        "[ -~]{0,32}".prop_map(|note| WireRequest::Annotate { note }),
        any::<u64>().prop_map(|micros| WireRequest::Advance { micros }),
        Just(WireRequest::Sync),
        Just(WireRequest::Bye),
    ]
    .boxed()
}

fn wire_reply() -> BoxedStrategy<WireReply> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(session, issues_done)| WireReply::Welcome {
            session,
            issues_done,
        }),
        value().prop_map(|v| WireReply::Done {
            value: Some(v),
            fault: None,
        }),
        "[ -~]{1,32}".prop_map(|f| WireReply::Done {
            value: None,
            fault: Some(f),
        }),
        Just(WireReply::Accepted),
        Just(WireReply::Expired),
        "[ -~]{0,32}".prop_map(|reason| WireReply::Rejected { reason }),
        "[ -~]{0,32}".prop_map(|message| WireReply::Failed { message }),
        any::<u64>().prop_map(|issues_done| WireReply::Goodbye { issues_done }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binary round trip for the server protocol: every request and
    /// reply variant.
    #[test]
    fn server_frames_round_trip(
        id in any::<u64>(),
        body in wire_request(),
        reply in wire_reply(),
    ) {
        let mut frame = Vec::new();
        wire::encode_wire_frame(&mut frame, id, &body);
        let decoded = wire::decode_wire_frame(&frame)
            .map_err(|e| TestCaseError::fail(format!("frame rejected: {e}")))?;
        prop_assert_eq!(decoded.id, id);
        prop_assert_eq!(&decoded.body, &body);

        let mut frame = Vec::new();
        wire::encode_reply_frame(&mut frame, id, &reply);
        let decoded = wire::decode_reply_frame(&frame)
            .map_err(|e| TestCaseError::fail(format!("reply rejected: {e}")))?;
        prop_assert_eq!(decoded.id, id);
        prop_assert_eq!(&decoded.body, &reply);
    }

    /// The JSON fallback: a payload serialized by the old client
    /// decodes through the same entry point, bit-for-bit equal.
    #[test]
    fn json_payloads_decode_through_the_same_entry_points(
        id in any::<u64>(),
        body in wire_request(),
        reply in wire_reply(),
    ) {
        let json = serde_json::to_vec(&WireFrame { id, body: body.clone() }).unwrap();
        let decoded = wire::decode_wire_frame(&json)
            .map_err(|e| TestCaseError::fail(format!("JSON frame rejected: {e}")))?;
        prop_assert_eq!(decoded.id, id);
        prop_assert_eq!(&decoded.body, &body);

        let json = serde_json::to_vec(&rad_middlebox::server::ReplyFrame {
            id,
            body: reply.clone(),
        })
        .unwrap();
        let decoded = wire::decode_reply_frame(&json)
            .map_err(|e| TestCaseError::fail(format!("JSON reply rejected: {e}")))?;
        prop_assert_eq!(decoded.id, id);
        prop_assert_eq!(&decoded.body, &reply);
    }

    /// Every strict prefix of a binary frame is rejected — never a
    /// panic, never a partial decode.
    #[test]
    fn truncated_frames_are_rejected(
        id in any::<u64>(),
        body in wire_request(),
    ) {
        let mut frame = Vec::new();
        wire::encode_wire_frame(&mut frame, id, &body);
        for cut in 0..frame.len() {
            prop_assert!(
                wire::decode_wire_frame(&frame[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                frame.len()
            );
        }
    }

    /// A single flipped bit anywhere in a binary frame is rejected:
    /// the CRC32 trailer catches all single-bit damage, and a damaged
    /// codec tag falls back to (failing) JSON.
    #[test]
    fn single_bit_flips_are_rejected(
        id in any::<u64>(),
        body in wire_request(),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut frame = Vec::new();
        wire::encode_wire_frame(&mut frame, id, &body);
        let at = (byte_pick % frame.len() as u64) as usize;
        frame[at] ^= 1 << bit;
        prop_assert!(
            wire::decode_wire_frame(&frame).is_err(),
            "flipped bit {bit} of byte {at} went unnoticed"
        );
    }
}
