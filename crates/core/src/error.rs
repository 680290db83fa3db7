//! Error types shared across the workspace.

use std::error::Error as StdError;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::device::DeviceKind;

/// Top-level error type of the RAD workspace.
///
/// # Examples
///
/// ```
/// use rad_core::RadError;
///
/// let err = RadError::UnknownCommand("FOO".into());
/// assert_eq!(err.to_string(), "unknown command mnemonic `FOO`");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RadError {
    /// A device name failed to parse.
    UnknownDevice(String),
    /// A command mnemonic failed to parse.
    UnknownCommand(String),
    /// A command was sent to a device that does not implement it.
    WrongDevice {
        /// The device the command was sent to.
        sent_to: DeviceKind,
        /// The device that owns the command.
        owner: DeviceKind,
        /// The command mnemonic.
        mnemonic: &'static str,
    },
    /// A device rejected or failed a command.
    Device(DeviceFault),
    /// The RPC layer failed (protocol violation, framing error, encode
    /// or decode failure). Timeouts and disconnects have their own
    /// variants — retry logic depends on telling them apart.
    Rpc(String),
    /// An RPC wait elapsed without a response. The peer may still be
    /// alive (the request or the response may simply have been lost),
    /// so the call is safe to retry with the same idempotency token.
    RpcTimeout(String),
    /// The RPC peer disconnected. Retrying over the same transport
    /// cannot succeed; the caller must reconnect or degrade.
    RpcDisconnected(String),
    /// The server refused admission: the worker pool, accept backlog,
    /// or per-tenant queue is full (or the tenant already has an
    /// active session). The request was never executed, so the caller
    /// may retry after backing off — jittered backoff, so rejected
    /// clients don't stampede back in lockstep.
    Overloaded(String),
    /// A frame's length prefix exceeds the endpoint's configured
    /// maximum. On a byte stream this means framing is lost for good:
    /// servers quarantine the session rather than guess at a resync
    /// point.
    FrameTooLarge {
        /// The advertised frame length.
        len: usize,
        /// The endpoint's configured maximum.
        limit: usize,
    },
    /// A dataset/store operation failed.
    Store(String),
    /// A write-ahead-log frame failed its CRC or structural check —
    /// either a bit flip at rest or garbage where a frame should be.
    /// Recovery quarantines the segment; strict readers surface this.
    WalCorrupt {
        /// Segment file name the bad frame lives in.
        segment: String,
        /// Byte offset of the first invalid frame.
        offset: u64,
        /// What failed (crc mismatch, bogus length, ...).
        reason: String,
    },
    /// A write-ahead-log segment ends mid-frame: the process died while
    /// appending. Recovery truncates the tail at `offset` and carries
    /// on — this variant only reaches callers in strict mode.
    WalTornWrite {
        /// Segment file name with the torn tail.
        segment: String,
        /// Byte offset at which the complete prefix ends.
        offset: u64,
    },
    /// A sealed columnar segment failed its CRC or structural check —
    /// a bit flip at rest, a truncated file, or garbage where a column
    /// should be. Readers quarantine the segment and scans carry on
    /// with the survivors.
    SegmentCorrupt {
        /// Segment file name the damage lives in.
        segment: String,
        /// Byte offset of the first invalid structure.
        offset: u64,
        /// What failed (crc mismatch, bogus column length, ...).
        reason: String,
    },
    /// A checkpoint or resume target does not match the campaign that
    /// is trying to resume from it (different seed, scale, or diverged
    /// persisted records).
    CheckpointMismatch {
        /// What disagreed.
        reason: String,
    },
    /// An analysis precondition was violated (empty corpus, mismatched
    /// lengths, ...).
    Analysis(String),
    /// A scenario spec document failed validation: a missing or
    /// ill-typed field, an unknown key, or a value outside its domain.
    /// `field` is the dotted path of the offending location, so a
    /// scenario author can fix the file without reading Rust.
    Spec {
        /// Dotted path of the offending field (e.g. `faults.profile.drop`).
        field: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl RadError {
    /// Whether a failed RPC call may be safely re-attempted with the
    /// same idempotency token.
    ///
    /// [`RadError::RpcTimeout`] is retryable: the request or its
    /// response was lost in flight, and server-side deduplication
    /// guarantees the retry cannot double-execute.
    /// [`RadError::Overloaded`] is retryable too: admission control
    /// rejects *before* execution, so backing off and re-attempting is
    /// always safe — on a new connection, since the server closes the
    /// link after every reject. Disconnects are terminal for the
    /// transport and everything else is a caller or protocol error.
    pub fn is_retryable(&self) -> bool {
        matches!(self, RadError::RpcTimeout(_) | RadError::Overloaded(_))
    }

    /// A [`RadError::Spec`] at `field` — the uniform constructor every
    /// spec parser uses.
    pub fn spec(field: impl Into<String>, reason: impl fmt::Display) -> Self {
        RadError::Spec {
            field: field.into(),
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for RadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadError::UnknownDevice(name) => write!(f, "unknown device `{name}`"),
            RadError::UnknownCommand(name) => write!(f, "unknown command mnemonic `{name}`"),
            RadError::WrongDevice {
                sent_to,
                owner,
                mnemonic,
            } => write!(
                f,
                "command `{mnemonic}` belongs to {owner} but was sent to {sent_to}"
            ),
            RadError::Device(fault) => write!(f, "device fault: {fault}"),
            RadError::Rpc(msg) => write!(f, "rpc failure: {msg}"),
            RadError::RpcTimeout(msg) => write!(f, "rpc timed out: {msg}"),
            RadError::RpcDisconnected(msg) => write!(f, "rpc peer disconnected: {msg}"),
            RadError::Overloaded(msg) => write!(f, "server overloaded: {msg}"),
            RadError::FrameTooLarge { len, limit } => {
                write!(f, "frame length {len} exceeds the {limit}-byte limit")
            }
            RadError::Store(msg) => write!(f, "store failure: {msg}"),
            RadError::WalCorrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "wal segment {segment} corrupt at byte {offset}: {reason}"
            ),
            RadError::WalTornWrite { segment, offset } => {
                write!(f, "wal segment {segment} torn at byte {offset}")
            }
            RadError::SegmentCorrupt {
                segment,
                offset,
                reason,
            } => write!(f, "segment {segment} corrupt at byte {offset}: {reason}"),
            RadError::CheckpointMismatch { reason } => {
                write!(f, "checkpoint mismatch: {reason}")
            }
            RadError::Analysis(msg) => write!(f, "analysis precondition violated: {msg}"),
            RadError::Spec { field, reason } => {
                write!(f, "scenario spec `{field}`: {reason}")
            }
        }
    }
}

impl StdError for RadError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            RadError::Device(fault) => Some(fault),
            _ => None,
        }
    }
}

impl From<DeviceFault> for RadError {
    fn from(fault: DeviceFault) -> Self {
        RadError::Device(fault)
    }
}

/// A fault raised by a simulated device while executing a command.
///
/// These map onto the exception strings logged in RAD trace objects.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DeviceFault {
    /// Command arguments were malformed or out of range.
    InvalidArgument {
        /// What was wrong.
        reason: String,
    },
    /// The command is not valid in the device's current state
    /// (e.g. `start_dosing` with the front door open).
    InvalidState {
        /// What the device was doing instead.
        reason: String,
    },
    /// A motion command caused a physical collision. This is the event
    /// that turns a run anomalous.
    Collision {
        /// What the moving part hit.
        obstacle: String,
    },
    /// The device stopped responding (unplugged cable, crashed firmware).
    Timeout,
    /// An emergency stop (operator or protective) aborted the command.
    EmergencyStop,
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceFault::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
            DeviceFault::InvalidState { reason } => write!(f, "invalid state: {reason}"),
            DeviceFault::Collision { obstacle } => write!(f, "collision with {obstacle}"),
            DeviceFault::Timeout => f.write_str("device timed out"),
            DeviceFault::EmergencyStop => f.write_str("emergency stop"),
        }
    }
}

impl StdError for DeviceFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_unpunctuated() {
        let messages = [
            RadError::UnknownDevice("X".into()).to_string(),
            RadError::Rpc("connection reset".into()).to_string(),
            RadError::Device(DeviceFault::Timeout).to_string(),
        ];
        for msg in messages {
            assert!(!msg.ends_with('.'), "{msg}");
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }

    #[test]
    fn device_fault_is_source_of_rad_error() {
        let err = RadError::from(DeviceFault::EmergencyStop);
        assert!(err.source().is_some());
        assert!(RadError::Rpc("x".into()).source().is_none());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RadError>();
        assert_send_sync::<DeviceFault>();
    }

    #[test]
    fn timeout_and_disconnect_are_distinct() {
        let timeout = RadError::RpcTimeout("receive".into());
        let gone = RadError::RpcDisconnected("peer".into());
        assert_ne!(timeout, gone);
        assert!(timeout.to_string().contains("timed out"));
        assert!(gone.to_string().contains("disconnected"));
    }

    #[test]
    fn only_timeouts_and_overloads_are_retryable() {
        assert!(RadError::RpcTimeout("x".into()).is_retryable());
        assert!(RadError::Overloaded("pool full".into()).is_retryable());
        assert!(!RadError::RpcDisconnected("x".into()).is_retryable());
        assert!(!RadError::Rpc("x".into()).is_retryable());
        assert!(!RadError::Device(DeviceFault::Timeout).is_retryable());
        assert!(!RadError::FrameTooLarge { len: 9, limit: 4 }.is_retryable());
    }

    #[test]
    fn overload_and_frame_limit_render_their_context() {
        let overload = RadError::Overloaded("worker pool full".into());
        assert!(overload.to_string().contains("worker pool full"));
        let oversize = RadError::FrameTooLarge {
            len: 2048,
            limit: 1024,
        };
        let msg = oversize.to_string();
        assert!(msg.contains("2048") && msg.contains("1024"), "{msg}");
    }

    #[test]
    fn wal_errors_name_segment_and_offset() {
        let corrupt = RadError::WalCorrupt {
            segment: "wal-000003.log".into(),
            offset: 128,
            reason: "crc mismatch".into(),
        };
        let msg = corrupt.to_string();
        assert!(msg.contains("wal-000003.log") && msg.contains("128") && msg.contains("crc"));
        let torn = RadError::WalTornWrite {
            segment: "wal-000001.log".into(),
            offset: 64,
        };
        assert!(torn.to_string().contains("torn at byte 64"));
        let mismatch = RadError::CheckpointMismatch {
            reason: "seed 3 vs 7".into(),
        };
        assert!(mismatch.to_string().contains("seed 3 vs 7"));
        assert!(!corrupt.is_retryable() && !torn.is_retryable());
    }

    #[test]
    fn wrong_device_message_names_both_devices() {
        let err = RadError::WrongDevice {
            sent_to: DeviceKind::Ika,
            owner: DeviceKind::Tecan,
            mnemonic: "Q",
        };
        let msg = err.to_string();
        assert!(msg.contains("IKA") && msg.contains("Tecan") && msg.contains('Q'));
    }
}
