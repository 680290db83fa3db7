//! The binary wire codec — the hot-path encoding of the lab protocol.
//!
//! PR 8's socket service speaks JSON for every frame, which costs a
//! `serde_json` encode/decode plus an allocation per command. This
//! module adds a compact binary form for the two framed message types
//! (the lab service's [`WireFrame`] requests and [`ReplyFrame`]
//! replies), reusing the segment store's proven
//! primitive codecs: LEB128 varints for ids and counts, the dense
//! [`CommandType::token_id`] dictionary for command mnemonics, the
//! tagged binary [`Value`](rad_core::Value) codec for arguments, and a CRC32 trailer so
//! corruption is caught at the frame boundary.
//!
//! # Self-describing frames
//!
//! Every binary payload starts with the version tag [`BINARY_TAG`]
//! (`0xB1`). JSON payloads always start with `{` (`0x7B`), so a single
//! leading byte distinguishes the codecs and every decoder here falls
//! back to JSON transparently. That is the whole negotiation story:
//! JSON clients keep working unchanged, and a server replies to each
//! request in the codec the request arrived in — a client
//! "negotiates" binary simply by sending it, `Hello` included. See
//! DESIGN.md §15.
//!
//! # Frame layout
//!
//! ```text
//! [0xB1][msg tag][body…][crc32 LE]
//!   │      │       │        └ CRC32 over everything before the trailer
//!   │      │       └ message-specific body (varints / tagged values)
//!   │      └ 3=WireFrame 4=ReplyFrame (1 and 2 are retired, never reused)
//!   └ version tag (distinguishes binary from JSON's `{`)
//! ```
//!
//! Truncated input, a bad CRC, an unknown tag, or trailing garbage all
//! decode to `Err` — never a panic — and the transport layers treat
//! that exactly as they treat malformed JSON today (skip the frame,
//! let retry/idempotency recover).
//!
//! # Examples
//!
//! ```
//! use rad_core::{Command, CommandType, Value};
//! use rad_middlebox::server::{WireFrame, WireRequest};
//! use rad_middlebox::wire;
//!
//! let command = Command::new(CommandType::Move, vec![Value::Float(0.5)]);
//! let mut buf = Vec::new();
//! wire::encode_issue_frame(&mut buf, 7, 250, &command);
//! assert!(wire::is_binary(&buf));
//! let back = wire::decode_wire_frame(&buf)?;
//! let body = WireRequest::Issue { deadline_ms: 250, command };
//! assert_eq!(back, WireFrame { id: 7, body });
//! # Ok::<(), String>(())
//! ```

use rad_core::{AnomalyCause, Command, CommandType, Label, ProcedureKind};
use rad_store::segment::codec::{read_value, write_str, write_value, write_varint, ByteReader};
use rad_store::wal::crc32;

use crate::server::{ReplyFrame, WireFrame, WireReply, WireRequest};

/// Version tag opening every binary frame payload. JSON payloads open
/// with `{` (`0x7B`), so the first byte alone routes the decoder.
pub const BINARY_TAG: u8 = 0xB1;

/// Which encoding a client session sends every frame in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodecKind {
    /// The JSON wire — the default.
    #[default]
    Json,
    /// The binary frame codec of this module.
    Binary,
}

impl WireCodecKind {
    /// Parses the spec/CLI form (`"json"` / `"binary"`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "json" => Some(WireCodecKind::Json),
            "binary" => Some(WireCodecKind::Binary),
            _ => None,
        }
    }

    /// The spec/CLI name of this codec.
    pub const fn as_name(self) -> &'static str {
        match self {
            WireCodecKind::Json => "json",
            WireCodecKind::Binary => "binary",
        }
    }
}

/// Message tags (second payload byte). Tags 1 and 2 belonged to a
/// retired protocol; they stay unassigned so an old frame can never
/// decode as a new message.
mod msg {
    pub const WIRE_FRAME: u8 = 3;
    pub const REPLY_FRAME: u8 = 4;
}

/// Whether a frame payload is binary-coded (as opposed to JSON).
pub fn is_binary(frame: &[u8]) -> bool {
    frame.first() == Some(&BINARY_TAG)
}

fn begin(out: &mut Vec<u8>, tag: u8) -> usize {
    let start = out.len();
    out.push(BINARY_TAG);
    out.push(tag);
    start
}

fn finish(out: &mut Vec<u8>, start: usize) {
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn write_command(out: &mut Vec<u8>, command: &Command) {
    write_varint(out, command.command_type().token_id() as u64);
    write_varint(out, command.args().len() as u64);
    for arg in command.args() {
        write_value(out, arg);
    }
}

fn read_command(r: &mut ByteReader<'_>, budget: usize) -> Result<Command, String> {
    let token = r.varint()? as usize;
    let command_type = CommandType::from_token_id(token)
        .ok_or_else(|| format!("unknown command token {token}"))?;
    let argc = r.varint()? as usize;
    if argc > budget {
        return Err(format!("implausible argument count {argc}"));
    }
    let mut args = Vec::with_capacity(argc);
    for _ in 0..argc {
        args.push(read_value(r)?);
    }
    Ok(Command::new(command_type, args))
}

const fn label_byte(label: Label) -> u8 {
    match label {
        Label::Benign => 0,
        Label::Unknown => 1,
        Label::Anomalous(AnomalyCause::QuantosDoorVsN9) => 2,
        Label::Anomalous(AnomalyCause::QuantosDoorVsUr3e) => 3,
        Label::Anomalous(AnomalyCause::ArmVsTecan) => 4,
    }
}

fn label_from_byte(b: u8) -> Result<Label, String> {
    Ok(match b {
        0 => Label::Benign,
        1 => Label::Unknown,
        2 => Label::Anomalous(AnomalyCause::QuantosDoorVsN9),
        3 => Label::Anomalous(AnomalyCause::QuantosDoorVsUr3e),
        4 => Label::Anomalous(AnomalyCause::ArmVsTecan),
        other => return Err(format!("unknown label byte {other}")),
    })
}

const fn procedure_byte(kind: ProcedureKind) -> u8 {
    match kind {
        ProcedureKind::AutomatedSolubilityN9 => 0,
        ProcedureKind::AutomatedSolubilityN9Ur3e => 1,
        ProcedureKind::CrystalSolubility => 2,
        ProcedureKind::JoystickMovements => 3,
        ProcedureKind::VelocitySweep => 4,
        ProcedureKind::PayloadSweep => 5,
        ProcedureKind::Unknown => 6,
    }
}

fn procedure_from_byte(b: u8) -> Result<ProcedureKind, String> {
    Ok(match b {
        0 => ProcedureKind::AutomatedSolubilityN9,
        1 => ProcedureKind::AutomatedSolubilityN9Ur3e,
        2 => ProcedureKind::CrystalSolubility,
        3 => ProcedureKind::JoystickMovements,
        4 => ProcedureKind::VelocitySweep,
        5 => ProcedureKind::PayloadSweep,
        6 => ProcedureKind::Unknown,
        other => return Err(format!("unknown procedure byte {other}")),
    })
}

/// Appends one binary [`WireFrame`] payload.
pub fn encode_wire_frame(out: &mut Vec<u8>, id: u64, body: &WireRequest) {
    match body {
        WireRequest::Issue {
            deadline_ms,
            command,
        } => encode_issue_frame(out, id, *deadline_ms, command),
        other => {
            let start = begin(out, msg::WIRE_FRAME);
            write_varint(out, id);
            match other {
                WireRequest::Hello { tenant } => {
                    out.push(0);
                    write_str(out, tenant);
                }
                WireRequest::Issue { .. } => unreachable!("handled above"),
                WireRequest::BeginRun {
                    run,
                    procedure,
                    label,
                } => {
                    out.push(2);
                    write_varint(out, u64::from(*run));
                    out.push(procedure_byte(*procedure));
                    out.push(label_byte(*label));
                }
                WireRequest::EndRun => out.push(3),
                WireRequest::Annotate { note } => {
                    out.push(4);
                    write_str(out, note);
                }
                WireRequest::Advance { micros } => {
                    out.push(5);
                    write_varint(out, *micros);
                }
                WireRequest::Sync => out.push(6),
                WireRequest::Bye => out.push(7),
            }
            finish(out, start);
        }
    }
}

/// Appends one binary `Issue` [`WireFrame`] payload with a *borrowed*
/// command — the pipelined client's hot path, which never builds an
/// owned [`WireRequest`].
pub fn encode_issue_frame(out: &mut Vec<u8>, id: u64, deadline_ms: u64, command: &Command) {
    let start = begin(out, msg::WIRE_FRAME);
    write_varint(out, id);
    out.push(1);
    write_varint(out, deadline_ms);
    write_command(out, command);
    finish(out, start);
}

/// Appends one binary [`ReplyFrame`] payload.
pub fn encode_reply_frame(out: &mut Vec<u8>, id: u64, body: &WireReply) {
    let start = begin(out, msg::REPLY_FRAME);
    write_varint(out, id);
    match body {
        WireReply::Welcome {
            session,
            issues_done,
        } => {
            out.push(0);
            write_varint(out, *session);
            write_varint(out, *issues_done);
        }
        WireReply::Done { value, fault } => {
            out.push(1);
            let flags = u8::from(value.is_some()) | (u8::from(fault.is_some()) << 1);
            out.push(flags);
            if let Some(value) = value {
                write_value(out, value);
            }
            if let Some(fault) = fault {
                write_str(out, fault);
            }
        }
        WireReply::Accepted => out.push(2),
        WireReply::Expired => out.push(3),
        WireReply::Rejected { reason } => {
            out.push(4);
            write_str(out, reason);
        }
        WireReply::Failed { message } => {
            out.push(5);
            write_str(out, message);
        }
        WireReply::Goodbye { issues_done } => {
            out.push(6);
            write_varint(out, *issues_done);
        }
    }
    finish(out, start);
}

/// Validates the tag + CRC envelope and returns the message body.
fn open(frame: &[u8], expect_tag: u8) -> Result<&[u8], String> {
    if frame.len() < 6 {
        return Err(format!(
            "binary frame of {} bytes is too short",
            frame.len()
        ));
    }
    let (body, trailer) = frame.split_at(frame.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let actual = crc32(body);
    if stored != actual {
        return Err(format!(
            "frame crc mismatch: stored {stored:08x}, computed {actual:08x}"
        ));
    }
    if body[1] != expect_tag {
        return Err(format!(
            "expected message tag {expect_tag}, got {}",
            body[1]
        ));
    }
    Ok(&body[2..])
}

/// Decodes a [`WireFrame`] from either codec: binary when the frame
/// opens with [`BINARY_TAG`], JSON otherwise.
///
/// # Errors
///
/// Returns a message on truncation, CRC mismatch, unknown tags, or
/// malformed JSON — callers skip the frame, as they do today.
pub fn decode_wire_frame(frame: &[u8]) -> Result<WireFrame, String> {
    if !is_binary(frame) {
        return serde_json::from_slice(frame).map_err(|e| format!("bad json frame: {e:?}"));
    }
    let body = open(frame, msg::WIRE_FRAME)?;
    let mut r = ByteReader::new(body);
    let id = r.varint()?;
    let request = match r.u8()? {
        0 => WireRequest::Hello { tenant: r.str()? },
        1 => WireRequest::Issue {
            deadline_ms: r.varint()?,
            command: read_command(&mut r, body.len())?,
        },
        2 => {
            let run = u32::try_from(r.varint()?).map_err(|_| "run id overflows u32")?;
            WireRequest::BeginRun {
                run,
                procedure: procedure_from_byte(r.u8()?)?,
                label: label_from_byte(r.u8()?)?,
            }
        }
        3 => WireRequest::EndRun,
        4 => WireRequest::Annotate { note: r.str()? },
        5 => WireRequest::Advance {
            micros: r.varint()?,
        },
        6 => WireRequest::Sync,
        7 => WireRequest::Bye,
        other => return Err(format!("unknown request byte {other}")),
    };
    r.expect_empty()?;
    Ok(WireFrame { id, body: request })
}

/// Decodes a [`ReplyFrame`] from either codec.
///
/// # Errors
///
/// As [`decode_wire_frame`].
pub fn decode_reply_frame(frame: &[u8]) -> Result<ReplyFrame, String> {
    if !is_binary(frame) {
        return serde_json::from_slice(frame).map_err(|e| format!("bad json reply: {e:?}"));
    }
    let body = open(frame, msg::REPLY_FRAME)?;
    let mut r = ByteReader::new(body);
    let id = r.varint()?;
    let reply = match r.u8()? {
        0 => WireReply::Welcome {
            session: r.varint()?,
            issues_done: r.varint()?,
        },
        1 => {
            let flags = r.u8()?;
            if flags > 3 {
                return Err(format!("unknown done flags {flags:02x}"));
            }
            let value = if flags & 1 != 0 {
                Some(read_value(&mut r)?)
            } else {
                None
            };
            let fault = if flags & 2 != 0 { Some(r.str()?) } else { None };
            WireReply::Done { value, fault }
        }
        2 => WireReply::Accepted,
        3 => WireReply::Expired,
        4 => WireReply::Rejected { reason: r.str()? },
        5 => WireReply::Failed { message: r.str()? },
        6 => WireReply::Goodbye {
            issues_done: r.varint()?,
        },
        other => return Err(format!("unknown reply byte {other}")),
    };
    r.expect_empty()?;
    Ok(ReplyFrame { id, body: reply })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::Value;

    fn sample_command() -> Command {
        Command::new(
            CommandType::Move,
            vec![
                Value::Float(0.25),
                Value::Str("solid=CSTI".into()),
                Value::List(vec![Value::Int(-3), Value::Unit]),
            ],
        )
    }

    #[test]
    fn every_wire_request_round_trips() {
        let requests = vec![
            WireRequest::Hello {
                tenant: "alice".into(),
            },
            WireRequest::Issue {
                deadline_ms: 10_000,
                command: sample_command(),
            },
            WireRequest::BeginRun {
                run: 16,
                procedure: ProcedureKind::AutomatedSolubilityN9,
                label: Label::Anomalous(AnomalyCause::QuantosDoorVsN9),
            },
            WireRequest::EndRun,
            WireRequest::Annotate {
                note: "mid-run".into(),
            },
            WireRequest::Advance { micros: 1_000_000 },
            WireRequest::Sync,
            WireRequest::Bye,
        ];
        for (i, body) in requests.into_iter().enumerate() {
            let mut buf = Vec::new();
            encode_wire_frame(&mut buf, i as u64, &body);
            let back = decode_wire_frame(&buf).unwrap();
            assert_eq!(back, WireFrame { id: i as u64, body });
        }
    }

    #[test]
    fn every_wire_reply_round_trips() {
        let replies = vec![
            WireReply::Welcome {
                session: 9,
                issues_done: 120,
            },
            WireReply::Done {
                value: Some(Value::Unit),
                fault: None,
            },
            WireReply::Done {
                value: None,
                fault: Some("relay fault".into()),
            },
            WireReply::Done {
                value: None,
                fault: None,
            },
            WireReply::Accepted,
            WireReply::Expired,
            WireReply::Rejected {
                reason: "busy".into(),
            },
            WireReply::Failed {
                message: "no hello".into(),
            },
            WireReply::Goodbye { issues_done: 3 },
        ];
        for (i, body) in replies.into_iter().enumerate() {
            let mut buf = Vec::new();
            encode_reply_frame(&mut buf, i as u64, &body);
            let back = decode_reply_frame(&buf).unwrap();
            assert_eq!(back, ReplyFrame { id: i as u64, body });
        }
    }

    #[test]
    fn borrowed_issue_encoding_matches_owned_wire_frame() {
        let command = sample_command();
        let owned = WireRequest::Issue {
            deadline_ms: 250,
            command: command.clone(),
        };
        let mut via_owned = Vec::new();
        encode_wire_frame(&mut via_owned, 5, &owned);
        let mut via_ref = Vec::new();
        encode_issue_frame(&mut via_ref, 5, 250, &command);
        assert_eq!(via_owned, via_ref);
    }

    #[test]
    fn json_frames_fall_back_transparently() {
        let frame = WireFrame {
            id: 3,
            body: WireRequest::Sync,
        };
        let json = serde_json::to_vec(&frame).unwrap();
        assert!(!is_binary(&json));
        assert_eq!(decode_wire_frame(&json).unwrap(), frame);
    }

    /// Every strict prefix and every single-bit flip of `frame` fails
    /// to decode.
    fn assert_damage_rejected(frame: &[u8], rejects: impl Fn(&[u8]) -> bool) {
        for cut in 0..frame.len() {
            assert!(rejects(&frame[..cut]), "cut at {cut}");
        }
        for bit in 0..(frame.len() * 8) {
            let mut flipped = frame.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // A flip of the version tag's bits may turn the frame into
            // "JSON", which then fails JSON parsing — either way, Err.
            assert!(rejects(&flipped), "bit {bit}");
        }
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let mut request = Vec::new();
        encode_issue_frame(&mut request, 1, 250, &sample_command());
        assert_damage_rejected(&request, |b| decode_wire_frame(b).is_err());
        let mut reply = Vec::new();
        encode_reply_frame(
            &mut reply,
            1,
            &WireReply::Done {
                value: Some(Value::Float(0.5)),
                fault: None,
            },
        );
        assert_damage_rejected(&reply, |b| decode_reply_frame(b).is_err());
    }

    #[test]
    fn wrong_message_tag_is_rejected() {
        let mut request = Vec::new();
        encode_issue_frame(&mut request, 1, 250, &sample_command());
        assert!(decode_reply_frame(&request).is_err());
        let mut reply = Vec::new();
        encode_reply_frame(&mut reply, 1, &WireReply::Accepted);
        assert!(decode_wire_frame(&reply).is_err());
        // The retired tags 1 and 2 decode as nothing, even with a
        // valid CRC over the rest of the frame.
        for tag in [1, 2] {
            let mut stale = request.clone();
            stale.truncate(stale.len() - 4);
            stale[1] = tag;
            finish(&mut stale, 0);
            assert!(decode_wire_frame(&stale).is_err(), "tag {tag}");
            assert!(decode_reply_frame(&stale).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn codec_kind_names_round_trip() {
        for kind in [WireCodecKind::Json, WireCodecKind::Binary] {
            assert_eq!(WireCodecKind::from_name(kind.as_name()), Some(kind));
        }
        assert_eq!(WireCodecKind::from_name("protobuf"), None);
        assert_eq!(WireCodecKind::default(), WireCodecKind::Json);
    }
}
