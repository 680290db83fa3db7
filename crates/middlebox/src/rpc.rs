//! The RPC substrate: the gRPC substitute between lab computer and
//! middlebox.
//!
//! RATracer tunnels each intercepted call through gRPC. This module
//! holds the transport-level parts of that relay; the one server loop
//! that executes requests is the [`LabService`](crate::server::LabService)
//! session loop, fed by sockets and in-process transports alike:
//!
//! - a length-prefixed [`FrameCodec`] that reassembles frames from an
//!   arbitrarily-chunked byte stream,
//! - [`Duplex`] in-process byte transports (the socket substitute) and
//!   the [`Transport`] trait that lets the fault layer interpose a
//!   [`FaultyDuplex`](crate::faults::FaultyDuplex),
//! - the [`DedupCache`] that answers a retried request from memory
//!   instead of re-executing it, and
//! - the retry-with-exponential-backoff [`RetryPolicy`] clients run
//!   under, with its declarative [`RetrySpec`] form.
//!
//! # Examples
//!
//! ```
//! use rad_middlebox::rpc::{Duplex, FrameCodec, Transport};
//! use std::time::Duration;
//!
//! let (client_side, server_side) = Duplex::pair();
//! client_side.send(FrameCodec::encode(b"hello"))?;
//! let mut codec = FrameCodec::new();
//! codec.push(&server_side.recv(Duration::from_secs(1))?);
//! assert_eq!(codec.next_frame()?.unwrap().as_ref(), b"hello");
//! # Ok::<(), rad_core::RadError>(())
//! ```

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rad_core::{spec, RadError};

/// Maximum accepted frame size (defensive bound against corrupt length
/// prefixes).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// A bounded LRU of request id → framed reply — the idempotency cache
/// behind the lab service's per-tenant sessions.
///
/// Retried requests replay their cached reply instead of re-executing,
/// and recently *replayed* ids count as recently used, so the entries a
/// flaky client still needs outlive a flood of fresh traffic. Recency
/// is tracked with a monotonic tick per entry plus a queue of
/// `(id, tick)` observations; stale observations are skipped on
/// eviction and the queue is compacted once it doubles the capacity,
/// keeping both memory and amortized cost O(capacity).
///
/// Cached replies are shared [`Bytes`], so replaying one is a
/// reference-count bump, not a copy.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use rad_middlebox::rpc::DedupCache;
///
/// let mut cache = DedupCache::new(2);
/// cache.insert(1, Bytes::from_static(b"a"));
/// cache.insert(2, Bytes::from_static(b"b"));
/// cache.get(1); // refreshes id 1
/// let evicted = cache.insert(3, Bytes::from_static(b"c"));
/// assert_eq!(evicted, 1); // id 2 was least recently used
/// assert!(cache.get(1).is_some() && cache.get(2).is_none());
/// ```
#[derive(Debug)]
pub struct DedupCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, (Bytes, u64)>,
    order: VecDeque<(u64, u64)>,
}

impl DedupCache {
    /// An empty cache holding at most `capacity` replies.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a server without any dedup
    /// window would double-execute every retry.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "dedup capacity must be at least 1");
        DedupCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many replies are currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry and frees the table and recency queue, leaving
    /// the cache as [`DedupCache::new`] made it. Request ids are
    /// per-session, so a session's end releases its cache: the next
    /// session must not replay the old replies, and an idle tenant
    /// holds no table.
    pub fn release(&mut self) {
        *self = DedupCache::new(self.capacity);
    }

    /// Whether the table or the recency queue holds an allocation.
    #[cfg(test)]
    pub(crate) fn is_allocated(&self) -> bool {
        self.entries.capacity() > 0 || self.order.capacity() > 0
    }

    /// The cached reply for `id`, refreshing its recency.
    pub fn get(&mut self, id: u64) -> Option<Bytes> {
        self.tick += 1;
        let tick = self.tick;
        let (reply, entry_tick) = self.entries.get_mut(&id)?;
        *entry_tick = tick;
        let reply = reply.clone();
        self.order.push_back((id, tick));
        self.compact_if_bloated();
        Some(reply)
    }

    /// Caches the reply for `id`, evicting least-recently-used entries
    /// beyond capacity. Returns how many entries were evicted (0 or 1,
    /// in steady state).
    pub fn insert(&mut self, id: u64, reply: Bytes) -> u64 {
        self.tick += 1;
        self.entries.insert(id, (reply, self.tick));
        self.order.push_back((id, self.tick));
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let Some((old_id, old_tick)) = self.order.pop_front() else {
                break;
            };
            // Skip stale observations: the id was refreshed (or
            // overwritten) after this queue entry was recorded.
            if self
                .entries
                .get(&old_id)
                .is_some_and(|(_, tick)| *tick == old_tick)
            {
                self.entries.remove(&old_id);
                evicted += 1;
            }
        }
        self.compact_if_bloated();
        evicted
    }

    /// Rebuilds the recency queue from live entries once stale
    /// observations dominate, bounding it at O(capacity).
    fn compact_if_bloated(&mut self) {
        if self.order.len() < self.capacity.saturating_mul(2).max(16) {
            return;
        }
        let mut live: Vec<(u64, u64)> = self
            .entries
            .iter()
            .map(|(&id, &(_, tick))| (id, tick))
            .collect();
        live.sort_unstable_by_key(|&(_, tick)| tick);
        self.order = live.into();
    }
}

/// A byte-chunk transport between lab computer and middlebox.
///
/// [`Duplex`] is the perfect-channel implementation; the fault layer's
/// [`FaultyDuplex`](crate::faults::FaultyDuplex) interposes a seeded
/// fault schedule without the client or server knowing.
pub trait Transport {
    /// Sends one chunk to the peer.
    ///
    /// # Errors
    ///
    /// [`RadError::RpcDisconnected`] if the peer is gone.
    fn send(&self, chunk: Bytes) -> Result<(), RadError>;

    /// Receives the next chunk, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`RadError::RpcTimeout`] when the wait elapses with the peer
    /// still connected; [`RadError::RpcDisconnected`] when the peer is
    /// gone. Retry logic depends on telling these apart.
    fn recv(&self, timeout: Duration) -> Result<Bytes, RadError>;
}

/// A boxed transport is a transport, so one client type can carry a
/// wire chosen at run time (an in-process pair or a socket).
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&self, chunk: Bytes) -> Result<(), RadError> {
        (**self).send(chunk)
    }

    fn recv(&self, timeout: Duration) -> Result<Bytes, RadError> {
        (**self).recv(timeout)
    }
}

/// Length-prefixed frame assembler: 4-byte big-endian length followed
/// by the payload.
///
/// The accepted frame size is configurable per endpoint
/// ([`FrameCodec::with_max_frame`]): trusted in-process endpoints use
/// the defensive [`MAX_FRAME_BYTES`] default, while a server decoding
/// untrusted client bytes caps frames much tighter.
///
/// Once [`FrameCodec::next_frame`] reports an error the codec is
/// poisoned — the byte stream has lost framing and every subsequent
/// call returns the same typed [`RadError::FrameTooLarge`] instead of
/// silently waiting forever on a corrupt length prefix.
/// [`FrameCodec::reset`] discards the buffered bytes and clears the
/// poison, which is sound whenever the transport delivers whole frames
/// per chunk (as [`Duplex`] does): the next chunk starts at a frame
/// boundary. On a real socket no such boundary exists, which is why
/// the lab service quarantines the session instead of resetting — on
/// every transport, so an in-process session fails like a socket one.
///
/// # Examples
///
/// ```
/// use rad_middlebox::rpc::FrameCodec;
///
/// let frame = FrameCodec::encode(b"hello");
/// let mut codec = FrameCodec::new();
/// // Feed the frame one byte at a time: it still reassembles.
/// for b in frame.iter() {
///     codec.push(&[*b]);
/// }
/// assert_eq!(codec.next_frame().unwrap().unwrap().as_ref(), b"hello");
/// ```
#[derive(Debug)]
pub struct FrameCodec {
    buf: BytesMut,
    max_frame: usize,
    poisoned: Option<RadError>,
}

impl Default for FrameCodec {
    fn default() -> Self {
        FrameCodec::new()
    }
}

impl FrameCodec {
    /// An empty codec accepting frames up to [`MAX_FRAME_BYTES`].
    pub fn new() -> Self {
        FrameCodec::with_max_frame(MAX_FRAME_BYTES)
    }

    /// An empty codec accepting frames up to `max_frame` bytes — the
    /// per-endpoint cap (servers bound untrusted client frames tighter
    /// than trusted in-process use).
    pub fn with_max_frame(max_frame: usize) -> Self {
        FrameCodec {
            buf: BytesMut::new(),
            max_frame,
            poisoned: None,
        }
    }

    /// The frame-size cap this endpoint enforces on decode.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Encodes one payload as a framed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_FRAME_BYTES`] — such a frame
    /// could never be decoded by the peer.
    pub fn encode(payload: &[u8]) -> Bytes {
        assert!(
            payload.len() <= MAX_FRAME_BYTES,
            "payload of {} bytes exceeds MAX_FRAME_BYTES",
            payload.len()
        );
        let mut out = BytesMut::with_capacity(payload.len() + 4);
        out.put_u32(payload.len() as u32);
        out.put_slice(payload);
        out.freeze()
    }

    /// Reserves a length prefix in `out` so a frame body can be
    /// written in place (no intermediate payload buffer). Returns the
    /// frame's start offset for [`FrameCodec::finish_frame`].
    pub fn begin_frame(out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(&[0u8; 4]);
        start
    }

    /// Backfills the length prefix reserved by
    /// [`FrameCodec::begin_frame`] once the body is written.
    ///
    /// # Panics
    ///
    /// Panics if the body exceeds [`MAX_FRAME_BYTES`] — such a frame
    /// could never be decoded by the peer.
    pub fn finish_frame(out: &mut [u8], start: usize) {
        let len = out.len() - start - 4;
        assert!(
            len <= MAX_FRAME_BYTES,
            "payload of {len} bytes exceeds MAX_FRAME_BYTES"
        );
        out[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    }

    /// Appends raw bytes received from the transport.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.put_slice(chunk);
    }

    /// Extracts the next complete frame, if one has fully arrived.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::FrameTooLarge`] when the length prefix
    /// exceeds this endpoint's cap — the stream has lost framing at
    /// that point and the codec stays poisoned (repeating the same
    /// error) until [`FrameCodec::reset`].
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, RadError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let Some(len) = self.head_len() else {
            return Ok(None);
        };
        if len > self.max_frame {
            let err = RadError::FrameTooLarge {
                len,
                limit: self.max_frame,
            };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        self.buf.advance(4);
        Ok(Some(self.buf.split_to(len).freeze()))
    }

    /// Whether [`FrameCodec::next_frame`] would return without more
    /// input: a complete frame is buffered, or the stream is poisoned
    /// (including by a length prefix past the cap that `next_frame`
    /// has not reached yet). Consumes nothing.
    pub fn has_frame(&self) -> bool {
        self.poisoned.is_some()
            || self
                .head_len()
                .is_some_and(|len| len > self.max_frame || self.buf.len() >= 4 + len)
    }

    /// The length prefix of the buffered head frame, once all four of
    /// its bytes have arrived.
    fn head_len(&self) -> Option<usize> {
        let prefix: [u8; 4] = self.buf.get(..4)?.try_into().expect("4 bytes");
        Some(u32::from_be_bytes(prefix) as usize)
    }

    /// Discards all buffered bytes and clears the poison flag,
    /// resynchronizing at the next chunk boundary.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.poisoned = None;
    }
}

/// One side of an in-process byte-stream transport.
///
/// Stands in for a TCP socket between lab computer and middlebox: each
/// side can send byte chunks and receive the peer's chunks. Dropping a
/// side disconnects the stream.
#[derive(Debug)]
pub struct Duplex {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
}

impl Duplex {
    /// Creates a connected pair of transport endpoints.
    pub fn pair() -> (Duplex, Duplex) {
        let (a_tx, a_rx) = unbounded();
        let (b_tx, b_rx) = unbounded();
        (Duplex { tx: a_tx, rx: b_rx }, Duplex { tx: b_tx, rx: a_rx })
    }

    /// Sends one chunk to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::RpcDisconnected`] if the peer has
    /// disconnected.
    pub fn send(&self, chunk: Bytes) -> Result<(), RadError> {
        self.tx
            .send(chunk)
            .map_err(|_| RadError::RpcDisconnected("peer disconnected".into()))
    }

    /// Receives the next chunk, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::RpcTimeout`] when the wait elapses and
    /// [`RadError::RpcDisconnected`] when the peer is gone — distinct
    /// variants, because only the former is safely retryable.
    pub fn recv(&self, timeout: Duration) -> Result<Bytes, RadError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RadError::RpcTimeout("receive timed out".into()),
            RecvTimeoutError::Disconnected => RadError::RpcDisconnected("peer disconnected".into()),
        })
    }
}

impl Transport for Duplex {
    fn send(&self, chunk: Bytes) -> Result<(), RadError> {
        Duplex::send(self, chunk)
    }

    fn recv(&self, timeout: Duration) -> Result<Bytes, RadError> {
        Duplex::recv(self, timeout)
    }
}

/// Retry schedule for one client request (the lab-service client,
/// `rad_workloads::RemoteSession`, runs every request under one).
///
/// Attempts are spaced by exponential backoff
/// (`initial_backoff * backoff_factor^(attempt-1)`), optionally
/// jittered ([`RetryPolicy::with_jitter`]), each attempt waits at most
/// `attempt_timeout` for its response, and the whole call gives up at
/// `deadline` regardless of attempts remaining. Only timeouts
/// re-attempt on the same connection: the retried request reuses its
/// idempotency token, so the server never double-executes. An overload
/// reject is [retryable](RadError::is_retryable) too, but on a new
/// connection — the server closes the link after every reject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Wait before the first retry.
    pub initial_backoff: Duration,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: u32,
    /// Response wait per attempt.
    pub attempt_timeout: Duration,
    /// Overall budget for the call, backoff included.
    pub deadline: Duration,
    /// Seed of the deterministic jitter stream. Two clients with
    /// different seeds de-synchronize even when they fail in lockstep.
    pub jitter_seed: u64,
    /// How much of each backoff may be jittered away, in per-mille
    /// (0 = pure exponential backoff, 500 = each wait is uniformly
    /// shortened by up to half). Kept as an integer so the policy
    /// stays `Eq`-comparable.
    pub jitter_per_mille: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(2),
            backoff_factor: 2,
            attempt_timeout: Duration::from_millis(250),
            deadline: Duration::from_secs(2),
            jitter_seed: 0,
            jitter_per_mille: 0,
        }
    }
}

impl RetryPolicy {
    /// Adds seeded backoff jitter: each retry's wait is shortened by a
    /// deterministic fraction of up to `per_mille`/1000, drawn from a
    /// pure function of `(seed, attempt)`. Synchronized clients with
    /// distinct seeds therefore retry at distinct times instead of
    /// stampeding an overloaded server in lockstep — while any one
    /// client's schedule stays byte-reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `per_mille` exceeds 1000.
    #[must_use]
    pub fn with_jitter(mut self, seed: u64, per_mille: u32) -> Self {
        assert!(per_mille <= 1000, "jitter fraction {per_mille}‰ > 1000‰");
        self.jitter_seed = seed;
        self.jitter_per_mille = per_mille;
        self
    }

    /// The wait before attempt `attempt` (1-based: the wait taken
    /// after the `attempt`-th try failed) — a pure function of the
    /// policy and the attempt number, so the whole schedule can be
    /// precomputed and pinned by tests.
    ///
    /// Base is `initial_backoff * backoff_factor^(attempt-1)`; jitter
    /// subtracts `base * u * jitter_per_mille / 1000` where
    /// `u ∈ [0, 1)` is drawn from splitmix64 over
    /// `(jitter_seed, attempt)`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = self.backoff_factor.max(1);
        let mut base = self.initial_backoff;
        for _ in 1..attempt {
            base = base.saturating_mul(factor);
        }
        if self.jitter_per_mille == 0 {
            return base;
        }
        // splitmix64 over (seed, attempt): cheap, seeded, stateless.
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // The per-mille actually subtracted: uniform in
        // [0, jitter_per_mille).
        let cut_pm = (z % 1000) * u64::from(self.jitter_per_mille) / 1000;
        let nanos = base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cut = (u128::from(nanos) * u128::from(cut_pm) / 1000) as u64;
        Duration::from_nanos(nanos - cut)
    }
}

/// The declarative form of a [`RetryPolicy`] — the `retry` section of a
/// scenario document.
///
/// Durations are integer milliseconds so the JSON stays exact and the
/// round-trip `from_policy(to_policy(s)) == s` holds bit-for-bit.
///
/// ```json
/// {
///   "max_attempts": 4,
///   "initial_backoff_ms": 2,
///   "backoff_factor": 2,
///   "attempt_timeout_ms": 250,
///   "deadline_ms": 2000,
///   "jitter_seed": 7,
///   "jitter_per_mille": 500
/// }
/// ```
///
/// Every field is optional; absent fields take the
/// [`RetryPolicy::default`] value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrySpec {
    /// Maximum number of attempts (first try included).
    pub max_attempts: u32,
    /// Wait before the first retry, in milliseconds.
    pub initial_backoff_ms: u64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: u32,
    /// Response wait per attempt, in milliseconds.
    pub attempt_timeout_ms: u64,
    /// Overall budget for the call, in milliseconds.
    pub deadline_ms: u64,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Jitter fraction in per-mille (0..=1000).
    pub jitter_per_mille: u32,
}

impl RetrySpec {
    const FIELDS: &'static [&'static str] = &[
        "max_attempts",
        "initial_backoff_ms",
        "backoff_factor",
        "attempt_timeout_ms",
        "deadline_ms",
        "jitter_seed",
        "jitter_per_mille",
    ];

    /// Captures an existing hand-wired policy as a spec. Sub-millisecond
    /// duration components are truncated.
    pub fn from_policy(policy: &RetryPolicy) -> Self {
        RetrySpec {
            max_attempts: policy.max_attempts,
            initial_backoff_ms: policy.initial_backoff.as_millis() as u64,
            backoff_factor: policy.backoff_factor,
            attempt_timeout_ms: policy.attempt_timeout.as_millis() as u64,
            deadline_ms: policy.deadline.as_millis() as u64,
            jitter_seed: policy.jitter_seed,
            jitter_per_mille: policy.jitter_per_mille,
        }
    }

    /// Builds the [`RetryPolicy`] this spec describes.
    pub fn to_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.max_attempts,
            initial_backoff: Duration::from_millis(self.initial_backoff_ms),
            backoff_factor: self.backoff_factor,
            attempt_timeout: Duration::from_millis(self.attempt_timeout_ms),
            deadline: Duration::from_millis(self.deadline_ms),
            jitter_seed: self.jitter_seed,
            jitter_per_mille: self.jitter_per_mille,
        }
    }

    /// Parses the `retry` section of a scenario document. `ctx` is the
    /// dotted path of `value` for error messages.
    ///
    /// # Errors
    ///
    /// [`RadError::Spec`] on unknown fields, ill-typed values, a zero
    /// `max_attempts`, or `jitter_per_mille > 1000`.
    pub fn from_json(value: &serde_json::Value, ctx: &str) -> Result<Self, RadError> {
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, Self::FIELDS)?;
        let defaults = RetrySpec::from_policy(&RetryPolicy::default());
        let u32_field = |key: &str, default: u32| -> Result<u32, RadError> {
            match spec::opt_u64(map, ctx, key)? {
                None => Ok(default),
                Some(v) => u32::try_from(v).map_err(|_| {
                    RadError::spec(spec::path(ctx, key), format!("{v} exceeds u32 range"))
                }),
            }
        };
        let parsed = RetrySpec {
            max_attempts: u32_field("max_attempts", defaults.max_attempts)?,
            initial_backoff_ms: spec::opt_u64(map, ctx, "initial_backoff_ms")?
                .unwrap_or(defaults.initial_backoff_ms),
            backoff_factor: u32_field("backoff_factor", defaults.backoff_factor)?,
            attempt_timeout_ms: spec::opt_u64(map, ctx, "attempt_timeout_ms")?
                .unwrap_or(defaults.attempt_timeout_ms),
            deadline_ms: spec::opt_u64(map, ctx, "deadline_ms")?.unwrap_or(defaults.deadline_ms),
            jitter_seed: spec::opt_u64(map, ctx, "jitter_seed")?.unwrap_or(defaults.jitter_seed),
            jitter_per_mille: u32_field("jitter_per_mille", defaults.jitter_per_mille)?,
        };
        if parsed.max_attempts == 0 {
            return Err(RadError::spec(
                spec::path(ctx, "max_attempts"),
                "must be at least 1",
            ));
        }
        if parsed.jitter_per_mille > 1000 {
            return Err(RadError::spec(
                spec::path(ctx, "jitter_per_mille"),
                format!("{}‰ exceeds 1000‰", parsed.jitter_per_mille),
            ));
        }
        Ok(parsed)
    }

    /// Serializes the spec back to its JSON form, every field explicit.
    pub fn to_json(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        map.insert(
            "max_attempts".into(),
            serde_json::Value::from(u64::from(self.max_attempts)),
        );
        map.insert(
            "initial_backoff_ms".into(),
            serde_json::Value::from(self.initial_backoff_ms),
        );
        map.insert(
            "backoff_factor".into(),
            serde_json::Value::from(u64::from(self.backoff_factor)),
        );
        map.insert(
            "attempt_timeout_ms".into(),
            serde_json::Value::from(self.attempt_timeout_ms),
        );
        map.insert(
            "deadline_ms".into(),
            serde_json::Value::from(self.deadline_ms),
        );
        map.insert(
            "jitter_seed".into(),
            serde_json::Value::from(self.jitter_seed),
        );
        map.insert(
            "jitter_per_mille".into(),
            serde_json::Value::from(u64::from(self.jitter_per_mille)),
        );
        serde_json::Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_codec_round_trips_chunked_input() {
        let payloads: [&[u8]; 3] = [b"a", b"hello world", &[0u8; 1000]];
        let mut stream = BytesMut::new();
        for p in payloads {
            stream.put_slice(&FrameCodec::encode(p));
        }
        // Feed in 7-byte chunks.
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(7) {
            codec.push(chunk);
            while let Some(frame) = codec.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[1].as_ref(), b"hello world");
        assert_eq!(decoded[2].len(), 1000);
    }

    #[test]
    fn oversized_frame_is_rejected_and_poisons() {
        let mut codec = FrameCodec::new();
        codec.push(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        let err = codec.next_frame().unwrap_err();
        assert!(
            matches!(err, RadError::FrameTooLarge { len, limit }
                if len == MAX_FRAME_BYTES + 1 && limit == MAX_FRAME_BYTES),
            "{err:?}"
        );
        // Poisoned: more bytes don't resurrect the stream, and the
        // error repeats verbatim...
        codec.push(&FrameCodec::encode(b"ok"));
        assert_eq!(codec.next_frame().unwrap_err(), err);
        // ...but an explicit reset does.
        codec.reset();
        codec.push(&FrameCodec::encode(b"ok"));
        assert_eq!(codec.next_frame().unwrap().unwrap().as_ref(), b"ok");
    }

    #[test]
    fn per_endpoint_frame_cap_is_tighter_than_the_default() {
        // A server capping client frames at 64 bytes rejects a frame
        // the trusted in-process default would accept.
        let frame = FrameCodec::encode(&[0u8; 100]);
        let mut tight = FrameCodec::with_max_frame(64);
        assert_eq!(tight.max_frame(), 64);
        tight.push(&frame);
        let err = tight.next_frame().unwrap_err();
        assert_eq!(
            err,
            RadError::FrameTooLarge {
                len: 100,
                limit: 64
            }
        );
        let mut default = FrameCodec::new();
        default.push(&frame);
        assert_eq!(default.next_frame().unwrap().unwrap().len(), 100);
    }

    #[test]
    fn backoff_jitter_is_a_pure_function_of_seed_and_attempt() {
        let policy = RetryPolicy::default().with_jitter(7, 500);
        // Pure: the same (seed, attempt) always yields the same wait.
        for attempt in 1..6 {
            assert_eq!(policy.backoff_for(attempt), policy.backoff_for(attempt));
        }
        // Bounded: never longer than the un-jittered wait, never
        // shorter than (1 - per_mille/1000) of it.
        let plain = RetryPolicy::default();
        for attempt in 1..6 {
            let base = plain.backoff_for(attempt);
            let jittered = policy.backoff_for(attempt);
            assert!(jittered <= base, "attempt {attempt}");
            assert!(jittered >= base / 2, "attempt {attempt}");
        }
        // Seeds de-synchronize: two clients failing in lockstep wait
        // different amounts somewhere in the schedule.
        let other = RetryPolicy::default().with_jitter(8, 500);
        let schedule = |p: &RetryPolicy| (1..8).map(|a| p.backoff_for(a)).collect::<Vec<_>>();
        assert_ne!(schedule(&policy), schedule(&other));
    }

    #[test]
    fn backoff_without_jitter_is_exact_exponential() {
        let policy = RetryPolicy {
            initial_backoff: Duration::from_millis(3),
            backoff_factor: 2,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff_for(0), Duration::ZERO);
        assert_eq!(policy.backoff_for(1), Duration::from_millis(3));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(6));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(12));
    }

    #[test]
    fn jitter_schedule_is_pinned() {
        // Regression pin: the exact jittered waits for seed 42 at 250‰
        // over a 10 ms base. If the splitmix64 mix ever changes, this
        // fails loudly instead of silently reshuffling every client's
        // retry schedule.
        let policy = RetryPolicy {
            initial_backoff: Duration::from_millis(10),
            backoff_factor: 2,
            ..RetryPolicy::default()
        }
        .with_jitter(42, 250);
        let nanos: Vec<u64> = (1..4)
            .map(|a| policy.backoff_for(a).as_nanos() as u64)
            .collect();
        assert_eq!(nanos, vec![8_970_000, 18_560_000, 31_440_000]);
    }

    #[test]
    fn empty_frame_round_trips() {
        let mut codec = FrameCodec::new();
        codec.push(&FrameCodec::encode(b""));
        assert_eq!(codec.next_frame().unwrap().unwrap().len(), 0);
    }

    #[test]
    fn timeout_and_disconnect_are_distinguished() {
        // Peer alive but silent: timeout.
        let (alive, _peer) = Duplex::pair();
        let err = alive.recv(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, RadError::RpcTimeout(_)), "{err:?}");
        assert!(err.is_retryable());
        // Peer gone: disconnect, immediately.
        let (dead, peer) = Duplex::pair();
        drop(peer);
        let err = dead.recv(Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, RadError::RpcDisconnected(_)), "{err:?}");
        assert!(!err.is_retryable());
    }

    #[test]
    fn dedup_cache_evicts_least_recently_used() {
        let mut cache = DedupCache::new(2);
        assert_eq!(cache.capacity(), 2);
        cache.insert(1, Bytes::from_static(b"a"));
        cache.insert(2, Bytes::from_static(b"b"));
        // Refresh 1, so 2 becomes the LRU entry.
        assert_eq!(cache.get(1).unwrap().as_ref(), b"a");
        assert_eq!(cache.insert(3, Bytes::from_static(b"c")), 1);
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some() && cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
        cache.release();
        assert!(cache.is_empty() && !cache.is_allocated());
        assert_eq!(cache.capacity(), 2, "release keeps the bound");
    }

    #[test]
    fn dedup_cache_recency_queue_stays_bounded() {
        let mut cache = DedupCache::new(4);
        for id in 0..4 {
            cache.insert(id, Bytes::from_static(b"x"));
        }
        // Hammer one id: stale observations must compact away instead
        // of growing the queue without bound.
        for _ in 0..10_000 {
            cache.get(2);
        }
        assert!(
            cache.order.len() <= 16,
            "queue grew to {}",
            cache.order.len()
        );
        // And the cache still evicts correctly afterwards.
        let evicted: u64 = (4..8)
            .map(|id| cache.insert(id, Bytes::from_static(b"y")))
            .sum();
        assert_eq!(evicted, 4);
        assert!(cache.get(2).is_none());
    }
}
