//! The lab service: the multi-tenant middlebox server, over TCP,
//! Unix-domain sockets, or any in-process [`Transport`].
//!
//! The same length-prefixed [`FrameCodec`] framing crosses every
//! transport: [`SocketTransport`] implements [`Transport`] over a
//! `TcpStream` or `UnixStream`, and [`LabService`] runs a bounded
//! worker pool that multiplexes many concurrent client sessions onto
//! per-tenant device fleets. Sessions reach the pool two ways — a
//! listener ([`LabService::serve_tcp`], [`LabService::serve_unix`]) or
//! [`ServerHandle::attach`], which admits any transport: an in-process
//! [`Duplex`](crate::rpc::Duplex), a
//! [`FaultyDuplex`](crate::faults::FaultyDuplex), a socket the caller
//! accepted itself. Both pass the same admission control into the same
//! session loop.
//!
//! Robustness is the point, not a bolt-on:
//!
//! - **Admission control** — a full worker pool or accept backlog
//!   rejects new connections with a typed
//!   [`RadError::Overloaded`]-mapping reply instead of queueing them
//!   invisibly; a tenant with an active session rejects a second one.
//!   A repeated `Hello` for the session's own tenant replays `Welcome`;
//!   a `Hello` for another tenant quarantines the session.
//! - **Backpressure** — each tenant's sink stack runs on its own
//!   consumer thread behind a *bounded* channel. A slow sink blocks
//!   only its own tenant's session (the producer waits at the channel,
//!   the client's deadline machinery sees the latency); it never grows
//!   an unbounded buffer and never steals another tenant's throughput.
//! - **Deadline propagation** — every `Issue` carries the client's
//!   budget; a request whose budget has already lapsed (because the
//!   session was backed up behind its sink) is answered `Expired`
//!   without touching a device, which the client surfaces as
//!   [`RadError::RpcTimeout`].
//! - **Idle reaping** — a session that goes quiet past the configured
//!   idle timeout is closed and its worker slot reclaimed.
//! - **Quarantine** — a client whose byte stream loses framing
//!   (a length prefix past the cap — [`RadError::FrameTooLarge`]) is
//!   quarantined: a byte stream has no trustworthy resync point, so
//!   the session closes rather than guess, whatever the transport.
//!   Well-framed but undecodable payloads are skipped deterministically
//!   (the frame boundary is still sound), and the affected request is
//!   recovered by the client's retry + server dedup.
//! - **Graceful drain** — [`ServerHandle::drain`] stops accepting,
//!   lets in-flight sessions finish, flushes every tenant's sink stack
//!   (durable stores synced and checkpointed), and reports per-tenant
//!   accounting. Zero buffered traces are lost.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use rad_core::{
    Command, Label, ProcedureKind, RadError, RunId, TraceBatch, TraceGap, TraceObject, TraceSink,
    Value,
};
use rad_store::{DurableOptions, DurableStore};
use serde::{Deserialize, Serialize};

use crate::faults::FaultPlan;
use crate::middlebox::Middlebox;
use crate::rpc::{DedupCache, FrameCodec, Transport};
use crate::sinks::DurableSink;
use crate::wire;

/// How often a parked session re-checks its idle clock and the drain
/// flag. Bounds both reap latency and drain latency.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Default bound on a session's idempotent-replay cache. Tune via
/// [`ServerConfig::dedup_capacity`].
const SESSION_DEDUP_SIZE: usize = 1024;

/// A connection waiting for a worker: any transport, socket or
/// in-process.
type Conn = Box<dyn Transport + Send>;

// ---------------------------------------------------------------------------
// Socket transports
// ---------------------------------------------------------------------------

/// One connected stream socket, TCP or Unix-domain.
#[derive(Debug)]
enum SocketStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl SocketStream {
    fn try_clone(&self) -> io::Result<SocketStream> {
        match self {
            SocketStream::Tcp(s) => s.try_clone().map(SocketStream::Tcp),
            SocketStream::Unix(s) => s.try_clone().map(SocketStream::Unix),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_read_timeout(t),
            SocketStream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            SocketStream::Unix(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.write_all(buf),
            SocketStream::Unix(s) => s.write_all(buf),
        }
    }
}

/// A [`Transport`] over a live TCP or Unix-domain socket.
///
/// The same blocking send/recv surface the in-process
/// [`Duplex`](crate::rpc::Duplex) offers, so every layer above — the
/// session client, the fault wrapper [`Faulty`](crate::faults::Faulty),
/// the campaign driver — runs unchanged over a real wire. Reads and
/// writes go through independent halves (`try_clone`), so one thread
/// can block in `recv` while another sends.
#[derive(Debug)]
pub struct SocketTransport {
    reader: Mutex<SocketStream>,
    writer: Mutex<SocketStream>,
    /// Receive-side state, locked while `reader` is held.
    recv: Mutex<RecvState>,
}

/// What `recv` keeps between calls: the read timeout armed on the
/// socket, so an unchanged timeout costs no system call, and one
/// receive buffer, so a call neither allocates nor zeroes one.
#[derive(Debug)]
struct RecvState {
    armed: Option<Duration>,
    buf: Box<[u8]>,
}

/// Bytes one `recv` reads at most.
const RECV_BUF_BYTES: usize = 64 * 1024;

impl SocketTransport {
    /// The one constructor every socket goes through, dialed or
    /// accepted: TCP streams get `TCP_NODELAY` here, so a small reply
    /// never waits out the peer's delayed ACK behind Nagle.
    fn from_stream(stream: SocketStream) -> Result<Self, RadError> {
        if let SocketStream::Tcp(tcp) = &stream {
            let _ = tcp.set_nodelay(true);
        }
        let reader = stream
            .try_clone()
            .map_err(|e| RadError::Rpc(format!("socket clone failed: {e}")))?;
        Ok(SocketTransport {
            reader: Mutex::new(reader),
            writer: Mutex::new(stream),
            recv: Mutex::new(RecvState {
                armed: None,
                buf: vec![0; RECV_BUF_BYTES].into_boxed_slice(),
            }),
        })
    }

    /// Wraps a connected TCP stream.
    ///
    /// # Errors
    ///
    /// [`RadError::Rpc`] if the descriptor cannot be cloned into
    /// independent read/write halves.
    pub fn tcp(stream: TcpStream) -> Result<Self, RadError> {
        SocketTransport::from_stream(SocketStream::Tcp(stream))
    }

    /// Wraps a connected Unix-domain stream.
    ///
    /// # Errors
    ///
    /// [`RadError::Rpc`] if the descriptor cannot be cloned.
    pub fn unix(stream: UnixStream) -> Result<Self, RadError> {
        SocketTransport::from_stream(SocketStream::Unix(stream))
    }

    /// Connects to a TCP endpoint (`"127.0.0.1:7070"`).
    ///
    /// # Errors
    ///
    /// [`RadError::RpcDisconnected`] when the connection is refused.
    pub fn connect_tcp(addr: &str) -> Result<Self, RadError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| RadError::RpcDisconnected(format!("connect {addr}: {e}")))?;
        SocketTransport::tcp(stream)
    }

    /// Connects to a Unix-domain socket path.
    ///
    /// # Errors
    ///
    /// [`RadError::RpcDisconnected`] when the connection is refused.
    pub fn connect_unix(path: &Path) -> Result<Self, RadError> {
        let stream = UnixStream::connect(path)
            .map_err(|e| RadError::RpcDisconnected(format!("connect {}: {e}", path.display())))?;
        SocketTransport::unix(stream)
    }
}

impl Transport for SocketTransport {
    fn send(&self, chunk: Bytes) -> Result<(), RadError> {
        let mut writer = self.writer.lock();
        writer
            .write_all(&chunk)
            .map_err(|e| RadError::RpcDisconnected(format!("socket write failed: {e}")))
    }

    fn recv(&self, timeout: Duration) -> Result<Bytes, RadError> {
        let mut reader = self.reader.lock();
        let mut state = self.recv.lock();
        // A zero timeout means "block forever" to the OS; clamp to the
        // smallest representable wait instead.
        let timeout = timeout.max(Duration::from_millis(1));
        if state.armed != Some(timeout) {
            reader
                .set_read_timeout(Some(timeout))
                .map_err(|e| RadError::Rpc(format!("set_read_timeout: {e}")))?;
            state.armed = Some(timeout);
        }
        match reader.read(&mut state.buf) {
            Ok(0) => Err(RadError::RpcDisconnected("peer closed the socket".into())),
            Ok(n) => Ok(Bytes::copy_from_slice(&state.buf[..n])),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Err(RadError::RpcTimeout("receive timed out".into()))
            }
            Err(e) => Err(RadError::RpcDisconnected(format!(
                "socket read failed: {e}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

/// One client → server message body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireRequest {
    /// Binds the session to a tenant. Must be the first request; the
    /// reply's cursor is what makes kill-and-reconnect resume exact.
    Hello {
        /// Tenant name (one rig + tracer + sink stack per tenant).
        tenant: String,
    },
    /// Executes one command on the tenant's rig.
    Issue {
        /// Client-side budget in milliseconds, measured server-side
        /// from frame decode; `0` disables the check. A lapsed budget
        /// answers `Expired` without executing.
        deadline_ms: u64,
        /// The command to execute.
        command: Command,
    },
    /// Opens a labelled procedure run. Idempotent: re-opening the run
    /// that is already active is a no-op, so a resumed campaign can
    /// replay its position safely.
    BeginRun {
        /// Run identifier.
        run: u32,
        /// Procedure being run.
        procedure: ProcedureKind,
        /// Ground-truth label.
        label: Label,
    },
    /// Closes the active run (no-op when none is open).
    EndRun,
    /// Attaches an operator note to the active run.
    Annotate {
        /// The note text.
        note: String,
    },
    /// Advances the tenant's simulated clock (think time, idle gaps).
    Advance {
        /// Microseconds of simulated time.
        micros: u64,
    },
    /// Flushes the tenant's sink stack through to durable storage.
    Sync,
    /// Ends the session cleanly after flushing.
    Bye,
}

/// One server → client reply body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireReply {
    /// Session bound. `issues_done` is the tenant's resume cursor: how
    /// many `Issue` requests have executed across all sessions.
    Welcome {
        /// Server-assigned session number.
        session: u64,
        /// Lifetime executed-issue count for the tenant.
        issues_done: u64,
    },
    /// The command executed (exactly once).
    Done {
        /// Return value on success.
        value: Option<Value>,
        /// Device fault rendered as the exception string otherwise.
        fault: Option<String>,
    },
    /// A non-issue request was applied.
    Accepted,
    /// The request's deadline lapsed before execution; nothing ran.
    /// Clients surface this as [`RadError::RpcTimeout`].
    Expired,
    /// Admission control refused the connection or request; nothing
    /// ran. Clients surface this as [`RadError::Overloaded`].
    Rejected {
        /// Which limit was hit.
        reason: String,
    },
    /// A protocol or internal failure. Clients surface this as
    /// [`RadError::Rpc`].
    Failed {
        /// What went wrong.
        message: String,
    },
    /// Clean session end acknowledgement.
    Goodbye {
        /// Lifetime executed-issue count at close.
        issues_done: u64,
    },
}

/// A client request envelope: correlation id + body. Ids double as
/// idempotency tokens — a retry reuses its id and the server replays
/// the cached reply instead of re-executing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireFrame {
    /// Client-assigned correlation / idempotency id.
    pub id: u64,
    /// The request.
    pub body: WireRequest,
}

/// A server reply envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplyFrame {
    /// Echoed correlation id (`0` for pre-session rejects).
    pub id: u64,
    /// The reply.
    pub body: WireReply,
}

/// Borrowed twin of [`ReplyFrame`]: serializes identically without
/// taking the reply body by value, so the hot path encodes straight
/// from the handler's stack frame.
struct ReplyFrameRef<'a> {
    id: u64,
    body: &'a WireReply,
}

impl Serialize for ReplyFrameRef<'_> {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("id".to_owned(), self.id.to_content()),
            ("body".to_owned(), self.body.to_content()),
        ])
    }
}

/// Appends one framed reply to `batch` in the requested codec, without
/// intermediate allocation. Returns the offset where the frame starts,
/// so callers can snapshot the framed bytes for the dedup cache.
fn append_reply(batch: &mut Vec<u8>, id: u64, body: &WireReply, binary: bool) -> usize {
    let start = FrameCodec::begin_frame(batch);
    if binary {
        wire::encode_reply_frame(batch, id, body);
    } else {
        let payload =
            serde_json::to_vec(&ReplyFrameRef { id, body }).expect("replies always serialize");
        batch.extend_from_slice(&payload);
    }
    FrameCodec::finish_frame(batch, start);
    start
}

// ---------------------------------------------------------------------------
// Configuration and stats
// ---------------------------------------------------------------------------

/// Tuning knobs of a [`LabService`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool size: how many sessions execute concurrently.
    pub max_sessions: usize,
    /// Admitted-but-unclaimed connection queue bound. A connection
    /// arriving with the pool busy and this queue full is rejected.
    pub backlog: usize,
    /// Per-tenant sink channel capacity, in batches. The bound that
    /// turns a slow sink into backpressure instead of memory growth.
    pub sink_queue_batches: usize,
    /// Rows per batch handed to the sink channel.
    pub batch_rows: usize,
    /// Frame-size cap applied to client bytes (servers cap untrusted
    /// frames tighter than [`crate::rpc::MAX_FRAME_BYTES`]).
    pub max_client_frame: usize,
    /// A session quiet for this long is reaped.
    pub idle_timeout: Duration,
    /// Base seed; tenant rigs derive their seeds from it and the
    /// tenant name, so every tenant's device noise is reproducible.
    pub seed: u64,
    /// When set, each tenant gets a durable store (WAL + checkpoints)
    /// under `<data_dir>/<tenant>`.
    pub data_dir: Option<PathBuf>,
    /// When set, every tenant's middlebox runs under this seeded
    /// [`FaultPlan`] — the conformance matrix reruns its profiles
    /// behind a real wire with the exact same fault schedule.
    pub fault_plan: Option<FaultPlan>,
    /// Bound on a session's idempotent-replay cache (LRU). Retries of
    /// the most recent `dedup_capacity` request ids replay their
    /// cached reply; older entries are evicted (and counted) so a
    /// week-long session cannot grow memory without bound. Request ids
    /// are per-session, and so is the cache: it is released, table and
    /// all, when its session ends for any reason (`Bye`, disconnect,
    /// idle reap, quarantine or drain), so a tenant between sessions
    /// holds none of it.
    pub dedup_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 4,
            backlog: 4,
            sink_queue_batches: 4,
            batch_rows: 256,
            max_client_frame: 256 * 1024,
            idle_timeout: Duration::from_secs(30),
            seed: 0,
            data_dir: None,
            fault_plan: None,
            dedup_capacity: SESSION_DEDUP_SIZE,
        }
    }
}

impl ServerConfig {
    /// The documented bound on any tenant's queued-row gauge: the
    /// channel capacity plus one batch blocked at the channel and one
    /// batch in the consumer's hands.
    pub fn queue_bound_rows(&self) -> u64 {
        (self.sink_queue_batches as u64 + 2) * self.batch_rows as u64
    }

    /// The seed the named tenant's rig runs under — exposed so a
    /// conformance harness can build the byte-identical in-process
    /// reference ([`Middlebox::new`] with this seed).
    pub fn tenant_seed(&self, tenant: &str) -> u64 {
        tenant_seed(self.seed, tenant)
    }
}

macro_rules! server_stat {
    ($($note:ident / $get:ident => $field:ident),* $(,)?) => {$(
        #[doc = concat!("Increments the `", stringify!($field), "` counter.")]
        pub fn $note(&self) {
            self.inner.$field.fetch_add(1, Ordering::Relaxed);
        }

        #[doc = concat!("Current `", stringify!($field), "` count.")]
        pub fn $get(&self) -> u64 {
            self.inner.$field.load(Ordering::Relaxed)
        }
    )*};
}

/// Shared observability counters of a running [`LabService`].
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    inner: Arc<ServerStatsInner>,
}

#[derive(Debug, Default)]
struct ServerStatsInner {
    admitted: AtomicU64,
    rejected: AtomicU64,
    quarantined: AtomicU64,
    reaped: AtomicU64,
    issues: AtomicU64,
    expired: AtomicU64,
    dedup_hits: AtomicU64,
    dedup_evictions: AtomicU64,
}

impl ServerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        ServerStats::default()
    }

    server_stat! {
        note_admitted / admitted => admitted,
        note_rejected / rejected => rejected,
        note_quarantined / quarantined => quarantined,
        note_reaped / reaped => reaped,
        note_issue / issues => issues,
        note_expired / expired => expired,
        note_dedup_hit / dedup_hits => dedup_hits,
        note_dedup_eviction / dedup_evictions => dedup_evictions,
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            admitted: self.admitted(),
            rejected: self.rejected(),
            quarantined: self.quarantined(),
            reaped: self.reaped(),
            issues: self.issues(),
            expired: self.expired(),
            dedup_hits: self.dedup_hits(),
            dedup_evictions: self.dedup_evictions(),
        }
    }
}

/// Plain-value snapshot of [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are the documentation
pub struct ServerStatsSnapshot {
    pub admitted: u64,
    pub rejected: u64,
    pub quarantined: u64,
    pub reaped: u64,
    pub issues: u64,
    pub expired: u64,
    pub dedup_hits: u64,
    pub dedup_evictions: u64,
}

impl std::fmt::Display for ServerStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admitted={} rejected={} quarantined={} reaped={} issues={} expired={} \
             dedup_hits={} dedup_evictions={}",
            self.admitted,
            self.rejected,
            self.quarantined,
            self.reaped,
            self.issues,
            self.expired,
            self.dedup_hits,
            self.dedup_evictions,
        )
    }
}

// ---------------------------------------------------------------------------
// Tenancy
// ---------------------------------------------------------------------------

/// A tenant's sink stack as built by the factory: the composable sink
/// plus (optionally) the durable store behind it, kept separately so
/// drain can sync and checkpoint it.
pub struct TenantSinkStack {
    /// The sink stack receiving every drained batch and gap.
    pub sink: Box<dyn TraceSink + Send>,
    /// The durable store inside the stack, if any.
    pub durable: Option<Arc<DurableStore>>,
}

/// Builds one tenant's sink stack on first Hello.
pub type SinkFactory = Arc<dyn Fn(&str) -> Result<TenantSinkStack, RadError> + Send + Sync>;

/// A sink that collects every row and gap into shared memory — the
/// conformance suites' observation point (clone the sink, keep one
/// handle, give the other to the server).
#[derive(Debug, Clone, Default)]
pub struct CollectingSink {
    rows: Arc<Mutex<Vec<TraceObject>>>,
    gaps: Arc<Mutex<Vec<TraceGap>>>,
}

impl CollectingSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectingSink::default()
    }

    /// Every row accepted so far, in arrival order.
    pub fn traces(&self) -> Vec<TraceObject> {
        self.rows.lock().clone()
    }

    /// Every gap accepted so far, in arrival order.
    pub fn gaps(&self) -> Vec<TraceGap> {
        self.gaps.lock().clone()
    }

    /// Rows accepted so far.
    pub fn len(&self) -> usize {
        self.rows.lock().len()
    }

    /// Whether nothing has been accepted.
    pub fn is_empty(&self) -> bool {
        self.rows.lock().is_empty()
    }
}

impl TraceSink for CollectingSink {
    fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
        self.rows.lock().extend(batch.to_traces());
        Ok(())
    }

    fn accept_gap(&mut self, gap: &TraceGap) -> Result<(), RadError> {
        self.gaps.lock().push(gap.clone());
        Ok(())
    }
}

/// Work items crossing a tenant's bounded sink channel.
enum SinkJob {
    Batch(Box<TraceBatch>),
    Gap(TraceGap),
    Flush(std::sync::mpsc::Sender<Result<(), RadError>>),
}

/// Mutable per-tenant state, locked by the active session.
struct TenantState {
    middlebox: Middlebox,
    issues_done: u64,
    open_run: Option<u32>,
    gaps_forwarded: usize,
    /// The bound session's reply cache; released when it ends.
    dedup: DedupCache,
}

/// One tenant: a seeded rig + tracer, a bounded sink channel, and the
/// consumer thread feeding its sink stack.
struct Tenant {
    name: String,
    state: Mutex<TenantState>,
    busy: AtomicBool,
    sink_tx: Mutex<Option<SyncSender<SinkJob>>>,
    consumer: Mutex<Option<JoinHandle<Box<dyn TraceSink + Send>>>>,
    durable: Option<Arc<DurableStore>>,
    queued_rows: AtomicU64,
    peak_queued_rows: AtomicU64,
    rows_flushed: AtomicU64,
    gaps_flushed: AtomicU64,
}

impl Tenant {
    fn open(
        name: &str,
        config: &ServerConfig,
        factory: &SinkFactory,
    ) -> Result<Arc<Tenant>, RadError> {
        let stack = factory(name)?;
        let (tx, rx) = sync_channel::<SinkJob>(config.sink_queue_batches.max(1));
        let mut middlebox = Middlebox::new(tenant_seed(config.seed, name));
        if let Some(plan) = &config.fault_plan {
            middlebox = middlebox.with_fault_plan(plan.clone());
        }
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            state: Mutex::new(TenantState {
                middlebox,
                issues_done: 0,
                open_run: None,
                gaps_forwarded: 0,
                dedup: DedupCache::new(config.dedup_capacity.max(1)),
            }),
            busy: AtomicBool::new(false),
            sink_tx: Mutex::new(Some(tx)),
            consumer: Mutex::new(None),
            durable: stack.durable,
            queued_rows: AtomicU64::new(0),
            peak_queued_rows: AtomicU64::new(0),
            rows_flushed: AtomicU64::new(0),
            gaps_flushed: AtomicU64::new(0),
        });
        let consumer_tenant = Arc::clone(&tenant);
        let handle = std::thread::spawn(move || consumer_tenant.consume(rx, stack.sink));
        *tenant.consumer.lock() = Some(handle);
        Ok(tenant)
    }

    /// The consumer loop: applies every job to the sink stack,
    /// decrementing the queued-row gauge as work completes. Ends when
    /// every sender is gone, flushing the sink a final time.
    fn consume(
        &self,
        rx: Receiver<SinkJob>,
        mut sink: Box<dyn TraceSink + Send>,
    ) -> Box<dyn TraceSink + Send> {
        while let Ok(job) = rx.recv() {
            match job {
                SinkJob::Batch(batch) => {
                    let rows = batch.len() as u64;
                    let _ = sink.accept(&batch);
                    self.rows_flushed.fetch_add(rows, Ordering::Relaxed);
                    self.queued_rows.fetch_sub(rows, Ordering::Relaxed);
                }
                SinkJob::Gap(gap) => {
                    let _ = sink.accept_gap(&gap);
                    self.gaps_flushed.fetch_add(1, Ordering::Relaxed);
                    self.queued_rows.fetch_sub(1, Ordering::Relaxed);
                }
                SinkJob::Flush(ack) => {
                    let _ = ack.send(sink.flush());
                }
            }
        }
        let _ = sink.flush();
        sink
    }

    /// Enqueues one job, counting `rows` toward the backpressure
    /// gauge *before* the potentially blocking send so the gauge never
    /// underflows and the peak covers the blocked batch too.
    fn enqueue(&self, rows: u64, job: SinkJob) -> Result<(), RadError> {
        let tx = {
            let guard = self.sink_tx.lock();
            match &*guard {
                Some(tx) => tx.clone(),
                None => return Err(RadError::Store("tenant sink already drained".into())),
            }
        };
        let queued = self.queued_rows.fetch_add(rows, Ordering::Relaxed) + rows;
        self.peak_queued_rows.fetch_max(queued, Ordering::Relaxed);
        tx.send(job).map_err(|_| {
            self.queued_rows.fetch_sub(rows, Ordering::Relaxed);
            RadError::Store("tenant sink consumer is gone".into())
        })
    }

    /// Moves freshly buffered traces and gaps out of the middlebox into
    /// the sink channel. `force` flushes partial batches (session end,
    /// drain, explicit sync); otherwise only full batches move.
    fn flush_state(
        &self,
        state: &mut TenantState,
        batch_rows: usize,
        force: bool,
    ) -> Result<(), RadError> {
        while state.middlebox.gaps().len() > state.gaps_forwarded {
            let gap = state.middlebox.gaps()[state.gaps_forwarded].clone();
            state.gaps_forwarded += 1;
            self.enqueue(1, SinkJob::Gap(gap))?;
        }
        if state.middlebox.trace_count() >= batch_rows.max(1)
            || (force && state.middlebox.trace_count() > 0)
        {
            let batch = state.middlebox.drain_batch();
            let rows = batch.len() as u64;
            self.enqueue(rows, SinkJob::Batch(Box::new(batch)))?;
        }
        Ok(())
    }

    /// Synchronous flush through the sink stack (durable fsync).
    fn sync_sink(&self) -> Result<(), RadError> {
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        self.enqueue(0, SinkJob::Flush(ack_tx))?;
        ack_rx
            .recv()
            .map_err(|_| RadError::Store("tenant sink consumer is gone".into()))?
    }
}

/// Derives a tenant's rig seed from the server seed and tenant name
/// (FNV-1a over the name, mixed with the base seed).
fn tenant_seed(base: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    base ^ h
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Builder for the socket server.
pub struct LabService {
    config: ServerConfig,
    sink_factory: SinkFactory,
}

impl LabService {
    /// A service with `config` and the default sink stack: a durable
    /// store per tenant when `data_dir` is set, nothing otherwise.
    pub fn new(config: ServerConfig) -> Self {
        let data_dir = config.data_dir.clone();
        let factory: SinkFactory = Arc::new(move |tenant: &str| {
            let mut stack = TenantSinkStack {
                sink: Box::new(rad_core::CountingSink::default()),
                durable: None,
            };
            if let Some(dir) = &data_dir {
                let (store, _) = DurableStore::open(&dir.join(tenant), DurableOptions::default())?;
                let store = Arc::new(store);
                stack.sink = Box::new(DurableSink::new(Arc::clone(&store)));
                stack.durable = Some(store);
            }
            Ok(stack)
        });
        LabService {
            config,
            sink_factory: factory,
        }
    }

    /// Replaces the per-tenant sink factory (tests install collecting
    /// or deliberately slow sinks; deployments add streaming-detection
    /// tees).
    #[must_use]
    pub fn with_sink_factory(mut self, factory: SinkFactory) -> Self {
        self.sink_factory = factory;
        self
    }

    /// Binds a TCP listener and starts serving. `"127.0.0.1:0"` picks
    /// a free port — read it back from
    /// [`ServerHandle::local_addr`].
    ///
    /// # Errors
    ///
    /// [`RadError::Rpc`] when the bind fails.
    pub fn serve_tcp(self, addr: &str) -> Result<ServerHandle, RadError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| RadError::Rpc(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| RadError::Rpc(format!("local_addr: {e}")))?;
        self.serve(Listener::Tcp(listener), Some(local), None)
    }

    /// Binds a Unix-domain listener at `path` (unlinking a stale
    /// socket file first) and starts serving.
    ///
    /// # Errors
    ///
    /// [`RadError::Rpc`] when the bind fails.
    pub fn serve_unix(self, path: &Path) -> Result<ServerHandle, RadError> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)
            .map_err(|e| RadError::Rpc(format!("bind {}: {e}", path.display())))?;
        self.serve(Listener::Unix(listener), None, Some(path.to_path_buf()))
    }

    fn serve(
        self,
        listener: Listener,
        local_addr: Option<SocketAddr>,
        unix_path: Option<PathBuf>,
    ) -> Result<ServerHandle, RadError> {
        listener
            .set_nonblocking(true)
            .map_err(|e| RadError::Rpc(format!("set_nonblocking: {e}")))?;
        let mut handle = self.start();
        let conn_tx = handle
            .conn_tx
            .clone()
            .expect("a fresh handle owns its admission queue");
        let accept_shutdown = Arc::clone(&handle.shutdown);
        let accept_stats = handle.stats.clone();
        handle.accept = Some(std::thread::spawn(move || {
            while !accept_shutdown.load(Ordering::Relaxed) {
                let Ok(stream) = listener.accept() else {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                };
                let Ok(transport) = SocketTransport::from_stream(stream) else {
                    continue;
                };
                if let Err(RadError::RpcDisconnected(_)) =
                    admit(&conn_tx, &accept_stats, Box::new(transport))
                {
                    break;
                }
            }
            // conn_tx drops here: once the handle's sender is gone too,
            // workers drain the queue and exit.
        }));
        handle.local_addr = local_addr;
        handle.unix_path = unix_path;
        Ok(handle)
    }

    /// Starts the worker pool without a listener: sessions arrive only
    /// through [`ServerHandle::attach`] — in-process transports, or
    /// sockets the caller accepted itself. The listener entries
    /// ([`LabService::serve_tcp`], [`LabService::serve_unix`]) feed
    /// the same pool.
    pub fn start(self) -> ServerHandle {
        let LabService {
            config,
            sink_factory,
        } = self;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = ServerStats::new();
        let tenants: Arc<Mutex<HashMap<String, Arc<Tenant>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let (conn_tx, conn_rx) = sync_channel::<Conn>(config.backlog.max(1));
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let session_ids = Arc::new(AtomicU64::new(1));

        let mut workers = Vec::with_capacity(config.max_sessions.max(1));
        for _ in 0..config.max_sessions.max(1) {
            let conn_rx = Arc::clone(&conn_rx);
            let ctx = SessionContext {
                config: config.clone(),
                sink_factory: Arc::clone(&sink_factory),
                tenants: Arc::clone(&tenants),
                stats: stats.clone(),
                shutdown: Arc::clone(&shutdown),
                session_ids: Arc::clone(&session_ids),
            };
            workers.push(std::thread::spawn(move || loop {
                // Holding the lock only for the recv keeps the pool
                // fair; a worker inside a session does not block peers
                // from claiming connections.
                let conn = {
                    let rx = conn_rx.lock();
                    match rx.recv_timeout(POLL_INTERVAL) {
                        Ok(conn) => Some(conn),
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
                        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                };
                match conn {
                    Some(conn) => ctx.run_session(conn),
                    None if ctx.shutdown.load(Ordering::Relaxed) => break,
                    None => {}
                }
            }));
        }

        ServerHandle {
            shutdown,
            conn_tx: Some(conn_tx),
            accept: None,
            workers,
            tenants,
            stats,
            config,
            local_addr: None,
            unix_path: None,
        }
    }
}

/// The admission edge every session passes, listener-accepted or
/// attached: a bounded queue in front of the worker pool. A full queue
/// is a typed reject, not an invisible wait — the peer gets one
/// best-effort `Rejected` frame (id 0, before any request) and the
/// connection is dropped.
fn admit(conn_tx: &SyncSender<Conn>, stats: &ServerStats, conn: Conn) -> Result<(), RadError> {
    match conn_tx.try_send(conn) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(conn)) => {
            stats.note_rejected();
            let reason = "worker pool and backlog are full";
            let mut frame = Vec::new();
            let rejected = WireReply::Rejected {
                reason: reason.to_string(),
            };
            append_reply(&mut frame, 0, &rejected, false);
            let _ = conn.send(Bytes::from(frame));
            Err(RadError::Overloaded(reason.to_string()))
        }
        Err(TrySendError::Disconnected(_)) => Err(RadError::RpcDisconnected(
            "lab service is shutting down".into(),
        )),
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(on),
            Listener::Unix(l) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> io::Result<SocketStream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| SocketStream::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| SocketStream::Unix(s)),
        }
    }
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// Everything a worker needs to run one session.
struct SessionContext {
    config: ServerConfig,
    sink_factory: SinkFactory,
    tenants: Arc<Mutex<HashMap<String, Arc<Tenant>>>>,
    stats: ServerStats,
    shutdown: Arc<AtomicBool>,
    session_ids: Arc<AtomicU64>,
}

/// Why a session loop ended (drives cleanup accounting).
enum SessionEnd {
    Disconnected,
    Reaped,
    Quarantined,
    Bye,
    Draining,
}

/// The tenant a session is bound to, and the session number its
/// `Welcome` announced.
struct Bound {
    tenant: Arc<Tenant>,
    session: u64,
}

impl SessionContext {
    fn run_session(&self, transport: Conn) {
        let mut codec = FrameCodec::with_max_frame(self.config.max_client_frame);
        let mut bound: Option<Bound> = None;
        let end = self.session_loop(&*transport, &mut codec, &mut bound);
        // Whatever ended the session, the tenant's buffered work is
        // flushed into its sink channel, the session's reply cache is
        // released, and the tenant freed for the next session — a
        // mid-campaign kill loses nothing.
        if let Some(Bound { tenant, .. }) = bound {
            {
                let mut state = tenant.state.lock();
                let _ = tenant.flush_state(&mut state, self.config.batch_rows, true);
                state.dedup.release();
            }
            tenant.busy.store(false, Ordering::Release);
        }
        // Counted after the release, so an observer that sees the count
        // can already rebind the tenant.
        match end {
            SessionEnd::Reaped => self.stats.note_reaped(),
            SessionEnd::Quarantined => self.stats.note_quarantined(),
            SessionEnd::Disconnected | SessionEnd::Bye | SessionEnd::Draining => {}
        }
    }

    /// The one session loop: every session, socket or in-process, runs
    /// here until it disconnects, says `Bye`, idles out, is
    /// quarantined, or the server drains.
    fn session_loop(
        &self,
        transport: &dyn Transport,
        codec: &mut FrameCodec,
        bound: &mut Option<Bound>,
    ) -> SessionEnd {
        let mut last_activity = Instant::now();
        // Replies to every frame of one received chunk coalesce into a
        // single send: a pipelined client's whole window is answered
        // with one syscall instead of one per request.
        let mut batch: Vec<u8> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return SessionEnd::Draining;
            }
            match transport.recv(POLL_INTERVAL) {
                Ok(chunk) => {
                    last_activity = Instant::now();
                    codec.push(&chunk);
                    batch.clear();
                    let mut close: Option<SessionEnd> = None;
                    loop {
                        match codec.next_frame() {
                            Ok(Some(frame)) => {
                                let received = Instant::now();
                                match self.handle_frame(&frame, received, &mut batch, bound) {
                                    FrameOutcome::Continue => {}
                                    FrameOutcome::Close(end) => {
                                        close = Some(end);
                                        break;
                                    }
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // Framing lost for good (length prefix
                                // past the cap): no trustworthy resync
                                // point exists on a byte stream, so
                                // quarantine the session.
                                append_reply(
                                    &mut batch,
                                    0,
                                    &WireReply::Failed {
                                        message: "framing lost; session quarantined".into(),
                                    },
                                    false,
                                );
                                close = Some(SessionEnd::Quarantined);
                                break;
                            }
                        }
                    }
                    if !batch.is_empty() {
                        let _ = transport.send(Bytes::copy_from_slice(&batch));
                    }
                    if let Some(end) = close {
                        return end;
                    }
                }
                Err(RadError::RpcTimeout(_)) => {
                    if last_activity.elapsed() >= self.config.idle_timeout {
                        return SessionEnd::Reaped;
                    }
                }
                Err(_) => return SessionEnd::Disconnected,
            }
        }
    }

    fn handle_frame(
        &self,
        frame: &Bytes,
        received: Instant,
        batch: &mut Vec<u8>,
        bound: &mut Option<Bound>,
    ) -> FrameOutcome {
        // The first payload byte names the codec, so binary and JSON
        // clients coexist per frame; every reply echoes the codec its
        // request arrived in.
        let binary = wire::is_binary(frame);
        let Ok(request) = wire::decode_wire_frame(frame) else {
            // A well-framed but undecodable payload: the frame
            // boundary is still sound, so skip exactly this frame —
            // deterministically, independent of how the bytes were
            // chunked in flight. The affected caller times out and
            // retries with the same id.
            return FrameOutcome::Continue;
        };
        let id = request.id;
        if let Some(bound) = bound.as_ref() {
            return self.handle_bound(id, request.body, received, binary, batch, bound);
        }
        match request.body {
            WireRequest::Hello { tenant: name } => {
                self.handle_hello(id, &name, binary, batch, bound)
            }
            _ => {
                append_reply(
                    batch,
                    id,
                    &WireReply::Failed {
                        message: "request before Hello".into(),
                    },
                    binary,
                );
                FrameOutcome::Close(SessionEnd::Quarantined)
            }
        }
    }

    /// Binds an unbound session to `name` (a bound session's `Hello`
    /// goes to [`SessionContext::handle_bound`]).
    fn handle_hello(
        &self,
        id: u64,
        name: &str,
        binary: bool,
        batch: &mut Vec<u8>,
        bound: &mut Option<Bound>,
    ) -> FrameOutcome {
        let existing = {
            let tenants = self.tenants.lock();
            tenants.get(name).cloned()
        };
        let tenant = match existing {
            Some(t) => t,
            None => {
                let opened = Tenant::open(name, &self.config, &self.sink_factory);
                match opened {
                    Ok(t) => {
                        let mut tenants = self.tenants.lock();
                        // Another session may have raced the open.
                        tenants.entry(name.to_string()).or_insert(t).clone()
                    }
                    Err(e) => {
                        append_reply(
                            batch,
                            id,
                            &WireReply::Failed {
                                message: format!("tenant open failed: {e}"),
                            },
                            binary,
                        );
                        return FrameOutcome::Close(SessionEnd::Disconnected);
                    }
                }
            }
        };
        if tenant
            .busy
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            self.stats.note_rejected();
            append_reply(
                batch,
                id,
                &WireReply::Rejected {
                    reason: format!("tenant `{name}` already has an active session"),
                },
                binary,
            );
            return FrameOutcome::Close(SessionEnd::Disconnected);
        }
        let session = self.session_ids.fetch_add(1, Ordering::Relaxed);
        self.stats.note_admitted();
        let issues_done = tenant.state.lock().issues_done;
        *bound = Some(Bound { tenant, session });
        append_reply(
            batch,
            id,
            &WireReply::Welcome {
                session,
                issues_done,
            },
            binary,
        );
        FrameOutcome::Continue
    }

    fn handle_bound(
        &self,
        id: u64,
        body: WireRequest,
        received: Instant,
        binary: bool,
        batch: &mut Vec<u8>,
        bound: &Bound,
    ) -> FrameOutcome {
        let tenant = &bound.tenant;
        let mut state = tenant.state.lock();
        if let Some(cached) = state.dedup.get(id) {
            self.stats.note_dedup_hit();
            // Cached replies are shared `Bytes`, already framed in the
            // codec of the original request.
            batch.extend_from_slice(&cached);
            return FrameOutcome::Continue;
        }
        let (reply, outcome) = match body {
            WireRequest::Issue {
                deadline_ms,
                command,
            } => {
                // Move due batches to the sink first: this is where a
                // slow sink's backpressure surfaces as session latency
                // instead of memory growth.
                if tenant
                    .flush_state(&mut state, self.config.batch_rows, false)
                    .is_err()
                {
                    (
                        WireReply::Failed {
                            message: "tenant sink failed".into(),
                        },
                        FrameOutcome::Continue,
                    )
                } else if deadline_ms > 0
                    && received.elapsed() >= Duration::from_millis(deadline_ms)
                {
                    // The client's budget lapsed while this session was
                    // backed up; nothing executed, so the retry (same
                    // id, fresh budget) is safe.
                    self.stats.note_expired();
                    (WireReply::Expired, FrameOutcome::Continue)
                } else {
                    self.stats.note_issue();
                    state.issues_done += 1;
                    let reply = match state.middlebox.issue(&command) {
                        Ok(outcome) => WireReply::Done {
                            value: Some(outcome.value),
                            fault: None,
                        },
                        Err(fault) => WireReply::Done {
                            value: None,
                            fault: Some(fault.to_string()),
                        },
                    };
                    (reply, FrameOutcome::Continue)
                }
            }
            WireRequest::BeginRun {
                run,
                procedure,
                label,
            } => {
                if state.open_run != Some(run) {
                    if state.open_run.is_some() {
                        state.middlebox.end_run();
                    }
                    state.middlebox.begin_run(RunId(run), procedure, label);
                    state.open_run = Some(run);
                }
                (WireReply::Accepted, FrameOutcome::Continue)
            }
            WireRequest::EndRun => {
                if state.open_run.take().is_some() {
                    state.middlebox.end_run();
                }
                (WireReply::Accepted, FrameOutcome::Continue)
            }
            WireRequest::Annotate { note } => {
                state.middlebox.annotate_run(&note);
                (WireReply::Accepted, FrameOutcome::Continue)
            }
            WireRequest::Advance { micros } => {
                state
                    .middlebox
                    .advance(rad_core::SimDuration::from_micros(micros));
                (WireReply::Accepted, FrameOutcome::Continue)
            }
            WireRequest::Sync => {
                let flushed = tenant
                    .flush_state(&mut state, self.config.batch_rows, true)
                    .and_then(|()| tenant.sync_sink());
                let reply = match flushed {
                    Ok(()) => WireReply::Accepted,
                    Err(e) => WireReply::Failed {
                        message: format!("sync failed: {e}"),
                    },
                };
                (reply, FrameOutcome::Continue)
            }
            WireRequest::Bye => {
                let _ = tenant.flush_state(&mut state, self.config.batch_rows, true);
                (
                    WireReply::Goodbye {
                        issues_done: state.issues_done,
                    },
                    FrameOutcome::Close(SessionEnd::Bye),
                )
            }
            // A retried Hello (its Welcome was lost) must not lock the
            // client out of its own session: replay the Welcome.
            WireRequest::Hello { tenant: name } if name == tenant.name => (
                WireReply::Welcome {
                    session: bound.session,
                    issues_done: state.issues_done,
                },
                FrameOutcome::Continue,
            ),
            // Rebinding would strand the bound tenant busy forever.
            WireRequest::Hello { tenant: name } => (
                WireReply::Failed {
                    message: format!(
                        "session is bound to tenant `{}`; Hello for `{name}` refused",
                        tenant.name
                    ),
                },
                FrameOutcome::Close(SessionEnd::Quarantined),
            ),
        };
        // Expired replies are not cached: the retry re-evaluates with
        // a fresh budget instead of being stuck with the stale verdict.
        let cacheable = !matches!(reply, WireReply::Expired);
        let start = append_reply(batch, id, &reply, binary);
        if cacheable {
            let framed = Bytes::copy_from_slice(&batch[start..]);
            for _ in 0..state.dedup.insert(id, framed) {
                self.stats.note_dedup_eviction();
            }
        }
        outcome
    }
}

enum FrameOutcome {
    Continue,
    Close(SessionEnd),
}

// ---------------------------------------------------------------------------
// The handle and graceful drain
// ---------------------------------------------------------------------------

/// A running [`LabService`]: join handles, tenancy registry, stats.
///
/// Dropping the handle signals shutdown but does not wait; call
/// [`ServerHandle::drain`] for the graceful, zero-loss path.
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    /// The admission queue's sender; dropped on drain so idle workers
    /// wake and exit at once.
    conn_tx: Option<SyncSender<Conn>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    tenants: Arc<Mutex<HashMap<String, Arc<Tenant>>>>,
    stats: ServerStats,
    config: ServerConfig,
    local_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound TCP address (None for Unix-domain servers).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The live server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The configuration the server runs under.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Admits one session over `transport` — an in-process
    /// [`Duplex`](crate::rpc::Duplex) end, a
    /// [`FaultyDuplex`](crate::faults::FaultyDuplex), a socket accepted
    /// by hand — into the worker pool the listener feeds. It passes the
    /// same admission control and runs the same session loop as a
    /// listener-accepted connection; the peer end speaks the protocol.
    ///
    /// # Errors
    ///
    /// [`RadError::Overloaded`] when the worker pool and backlog are
    /// full: the peer receives the same typed `Rejected` frame a
    /// refused socket gets, and the transport is dropped.
    pub fn attach<T: Transport + Send + 'static>(&self, transport: T) -> Result<(), RadError> {
        let conn_tx = self
            .conn_tx
            .as_ref()
            .expect("only drain releases the admission queue");
        admit(conn_tx, &self.stats, Box::new(transport))
    }

    /// Graceful drain: stop accepting, let in-flight sessions finish,
    /// flush every tenant's sink stack (durable stores synced and
    /// checkpointed), and report per-tenant accounting. No buffered
    /// trace or gap is lost.
    ///
    /// # Errors
    ///
    /// [`RadError::Store`] when a tenant's final durable flush fails;
    /// remaining tenants are still drained first.
    pub fn drain(mut self) -> Result<DrainReport, RadError> {
        let started = Instant::now();
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.conn_tx = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let mut report = DrainReport {
            tenants: Vec::new(),
            flush_time: Duration::ZERO,
            stats: self.stats.snapshot(),
        };
        let mut first_err = None;
        let tenants: Vec<Arc<Tenant>> = {
            let mut registry = self.tenants.lock();
            let mut all: Vec<Arc<Tenant>> = registry.values().cloned().collect();
            all.sort_by(|a, b| a.name.cmp(&b.name));
            registry.clear();
            all
        };
        for tenant in tenants {
            // Push any remaining buffered work into the channel, then
            // close it and wait for the consumer to apply everything.
            {
                let mut state = tenant.state.lock();
                if let Err(e) = tenant.flush_state(&mut state, self.config.batch_rows, true) {
                    first_err.get_or_insert(e);
                }
            }
            *tenant.sink_tx.lock() = None;
            let consumer = tenant.consumer.lock().take();
            if let Some(handle) = consumer {
                if let Ok(mut sink) = handle.join() {
                    if let Err(e) = sink.finish() {
                        first_err.get_or_insert(e);
                    }
                }
            }
            if let Some(durable) = &tenant.durable {
                if let Err(e) = durable.sync().and_then(|()| durable.checkpoint()) {
                    first_err.get_or_insert(e);
                }
            }
            let state = tenant.state.lock();
            report.tenants.push(TenantDrain {
                tenant: tenant.name.clone(),
                issues: state.issues_done,
                rows_flushed: tenant.rows_flushed.load(Ordering::Relaxed),
                gaps_flushed: tenant.gaps_flushed.load(Ordering::Relaxed),
                peak_queued_rows: tenant.peak_queued_rows.load(Ordering::Relaxed),
            });
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        report.flush_time = started.elapsed();
        report.stats = self.stats.snapshot();
        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Per-tenant accounting from a graceful drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantDrain {
    /// Tenant name.
    pub tenant: String,
    /// Lifetime executed issues.
    pub issues: u64,
    /// Trace rows that reached the sink stack.
    pub rows_flushed: u64,
    /// Gaps that reached the sink stack.
    pub gaps_flushed: u64,
    /// High-water mark of the tenant's queued-row gauge — bounded by
    /// [`ServerConfig::queue_bound_rows`] no matter how slow the sink.
    pub peak_queued_rows: u64,
}

/// What a graceful drain observed.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Per-tenant accounting, sorted by tenant name.
    pub tenants: Vec<TenantDrain>,
    /// Wall-clock time the full drain (join + flush + checkpoint)
    /// took.
    pub flush_time: Duration,
    /// Final server counters.
    pub stats: ServerStatsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::CommandType;

    fn test_config() -> ServerConfig {
        ServerConfig {
            max_sessions: 2,
            backlog: 1,
            sink_queue_batches: 2,
            batch_rows: 8,
            idle_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        }
    }

    fn collecting_factory(sink: CollectingSink) -> SinkFactory {
        Arc::new(move |_tenant: &str| {
            Ok(TenantSinkStack {
                sink: Box::new(sink.clone()),
                durable: None,
            })
        })
    }

    /// Minimal hand-rolled client for the unit tests (the full driver
    /// lives in rad-workloads).
    struct TestClient {
        transport: Box<dyn Transport>,
        codec: FrameCodec,
        next_id: u64,
    }

    impl TestClient {
        fn over(transport: impl Transport + 'static) -> Self {
            TestClient {
                transport: Box::new(transport),
                codec: FrameCodec::new(),
                next_id: 0,
            }
        }

        fn connect_tcp(addr: SocketAddr) -> Self {
            TestClient::over(SocketTransport::connect_tcp(&addr.to_string()).unwrap())
        }

        fn connect_unix(path: &Path) -> Self {
            TestClient::over(SocketTransport::connect_unix(path).unwrap())
        }

        /// An in-process session: one end of a duplex pair attached to
        /// the server, the other driven by this client.
        fn attach(server: &ServerHandle) -> Result<Self, RadError> {
            let (client_side, server_side) = crate::rpc::Duplex::pair();
            server.attach(server_side)?;
            Ok(TestClient::over(client_side))
        }

        fn send(&self, id: u64, body: WireRequest) {
            let payload = serde_json::to_vec(&WireFrame { id, body }).unwrap();
            self.transport.send(FrameCodec::encode(&payload)).unwrap();
        }

        fn request(&mut self, body: WireRequest) -> WireReply {
            let id = self.next_id;
            self.next_id += 1;
            self.send(id, body);
            self.await_reply(id)
        }

        fn await_reply(&mut self, id: u64) -> WireReply {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Ok(Some(frame)) = self.codec.next_frame() {
                    let reply: ReplyFrame = serde_json::from_slice(&frame).unwrap();
                    if reply.id == id {
                        return reply.body;
                    }
                    continue;
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                assert!(!remaining.is_zero(), "no reply to request {id}");
                if let Ok(chunk) = self.transport.recv(remaining) {
                    self.codec.push(&chunk);
                }
            }
        }

        fn hello(&mut self, tenant: &str) -> WireReply {
            self.request(WireRequest::Hello {
                tenant: tenant.into(),
            })
        }

        fn issue(&mut self, ct: CommandType) -> WireReply {
            self.request(WireRequest::Issue {
                deadline_ms: 0,
                command: Command::nullary(ct),
            })
        }
    }

    #[test]
    fn tcp_session_executes_commands_on_the_tenant_rig() {
        let sink = CollectingSink::new();
        let server = LabService::new(test_config())
            .with_sink_factory(collecting_factory(sink.clone()))
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TestClient::connect_tcp(addr);
        assert!(matches!(
            client.hello("alice"),
            WireReply::Welcome { issues_done: 0, .. }
        ));
        assert!(matches!(
            client.issue(CommandType::InitC9),
            WireReply::Done {
                value: Some(Value::Unit),
                fault: None
            }
        ));
        assert!(matches!(
            client.issue(CommandType::Home),
            WireReply::Done { fault: None, .. }
        ));
        // Device faults cross the wire as exception strings.
        let reply = client.request(WireRequest::Issue {
            deadline_ms: 0,
            command: Command::new(
                CommandType::Arm,
                vec![Value::Location {
                    x: 650.0,
                    y: 280.0,
                    z: 100.0,
                }],
            ),
        });
        match reply {
            WireReply::Done {
                value: None,
                fault: Some(msg),
            } => assert!(
                msg.contains("collision") || msg.contains("invalid"),
                "{msg}"
            ),
            other => panic!("expected a faulted Done, got {other:?}"),
        }
        assert!(matches!(
            client.request(WireRequest::Bye),
            WireReply::Goodbye { issues_done: 3 }
        ));
        let report = server.drain().unwrap();
        assert_eq!(report.tenants.len(), 1);
        assert_eq!(report.tenants[0].issues, 3);
        assert_eq!(report.tenants[0].rows_flushed, 3);
        assert_eq!(sink.len(), 3, "every trace reached the sink stack");
    }

    #[test]
    fn unix_session_round_trips() {
        let path = std::env::temp_dir().join(format!("radd-test-{}.sock", std::process::id()));
        let server = LabService::new(test_config()).serve_unix(&path).unwrap();
        let mut client = TestClient::connect_unix(&path);
        assert!(matches!(client.hello("bob"), WireReply::Welcome { .. }));
        assert!(matches!(
            client.issue(CommandType::InitIka),
            WireReply::Done { fault: None, .. }
        ));
        drop(client);
        server.drain().unwrap();
        assert!(!path.exists(), "drain removes the socket file");
    }

    #[test]
    fn second_session_on_a_busy_tenant_is_rejected_typed() {
        let server = LabService::new(test_config())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap();
        let mut first = TestClient::connect_tcp(addr);
        assert!(matches!(first.hello("alice"), WireReply::Welcome { .. }));
        let mut second = TestClient::connect_tcp(addr);
        match second.hello("alice") {
            WireReply::Rejected { reason } => assert!(reason.contains("active session")),
            other => panic!("expected Rejected, got {other:?}"),
        }
        // A different tenant is admitted fine.
        let mut other = TestClient::connect_tcp(addr);
        assert!(matches!(other.hello("carol"), WireReply::Welcome { .. }));
        drop((first, second, other));
        server.drain().unwrap();
    }

    #[test]
    fn pool_exhaustion_rejects_new_connections() {
        let config = ServerConfig {
            max_sessions: 1,
            backlog: 1,
            ..test_config()
        };
        let server = LabService::new(config).serve_tcp("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        // Occupy the only worker and the only backlog slot.
        let mut active = TestClient::connect_tcp(addr);
        assert!(matches!(active.hello("a"), WireReply::Welcome { .. }));
        let _queued = TestClient::connect_tcp(addr);
        std::thread::sleep(Duration::from_millis(100));
        // The next connection must be rejected at the accept edge.
        let mut rejected = TestClient::connect_tcp(addr);
        let reply = rejected.await_reply(0);
        match reply {
            WireReply::Rejected { reason } => assert!(reason.contains("full"), "{reason}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert!(server.stats().rejected() >= 1);
        drop((active, rejected));
        server.drain().unwrap();
    }

    #[test]
    fn lapsed_deadline_expires_without_execution() {
        let server = LabService::new(test_config())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TestClient::connect_tcp(addr);
        client.hello("alice");
        // deadline_ms is checked against time since frame decode; a
        // 0ms-elapsed frame with a generous budget executes...
        assert!(matches!(
            client.request(WireRequest::Issue {
                deadline_ms: 5_000,
                command: Command::nullary(CommandType::InitC9),
            }),
            WireReply::Done { .. }
        ));
        let issues_before = server.stats().issues();
        // ...while a zero-budget... we can't force decode latency from
        // here, so drive the check directly through a 1ns-equivalent:
        // deadline_ms=0 disables the check, so use the smallest budget
        // and stall the session first with a Sync (cheap but nonzero).
        // The deterministic unit for the lapse path is exercised in
        // the backpressure test below; here we pin that a generous
        // budget never expires.
        assert_eq!(server.stats().expired(), 0);
        assert_eq!(server.stats().issues(), issues_before);
        drop(client);
        server.drain().unwrap();
    }

    #[test]
    fn slow_sink_backpressure_bounds_queued_rows_and_deadline_expires() {
        /// A sink that sleeps per batch — deliberately slower than the
        /// producer.
        struct SlowSink {
            inner: CollectingSink,
            delay: Duration,
        }
        impl TraceSink for SlowSink {
            fn accept(&mut self, batch: &TraceBatch) -> Result<(), RadError> {
                std::thread::sleep(self.delay);
                self.inner.accept(batch)
            }
            fn accept_gap(&mut self, gap: &TraceGap) -> Result<(), RadError> {
                self.inner.accept_gap(gap)
            }
        }

        let collected = CollectingSink::new();
        let sink = collected.clone();
        let factory: SinkFactory = Arc::new(move |_t: &str| {
            Ok(TenantSinkStack {
                sink: Box::new(SlowSink {
                    inner: sink.clone(),
                    delay: Duration::from_millis(40),
                }),
                durable: None,
            })
        });
        let config = ServerConfig {
            batch_rows: 4,
            sink_queue_batches: 2,
            ..test_config()
        };
        let bound = config.queue_bound_rows();
        let server = LabService::new(config)
            .with_sink_factory(factory)
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TestClient::connect_tcp(addr);
        client.hello("slow");
        client.issue(CommandType::InitC9);
        let mut expired = 0u32;
        for _ in 0..60 {
            // A tight budget: once the session blocks at the bounded
            // channel, decode-to-execute latency crosses it and the
            // server answers Expired instead of executing late.
            match client.request(WireRequest::Issue {
                deadline_ms: 20,
                command: Command::nullary(CommandType::Mvng),
            }) {
                WireReply::Expired => expired += 1,
                WireReply::Done { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
        client.request(WireRequest::Bye);
        let report = server.drain().unwrap();
        let tenant = &report.tenants[0];
        assert!(
            tenant.peak_queued_rows <= bound,
            "peak {} exceeds configured bound {}",
            tenant.peak_queued_rows,
            bound
        );
        assert!(expired > 0, "backpressure must surface as Expired replies");
        assert_eq!(report.stats.expired as u32, expired);
        // Zero loss: everything that executed reached the sink.
        assert_eq!(tenant.rows_flushed, tenant.issues);
        assert_eq!(collected.len() as u64, tenant.issues);
    }

    #[test]
    fn idle_sessions_are_reaped() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(120),
            ..test_config()
        };
        let server = LabService::new(config).serve_tcp("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TestClient::connect_tcp(addr);
        client.hello("alice");
        client.issue(CommandType::InitC9);
        // Go quiet past the idle timeout: the server reaps the session
        // and frees the tenant for the next client.
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(server.stats().reaped(), 1);
        let mut next = TestClient::connect_tcp(addr);
        match next.hello("alice") {
            WireReply::Welcome { issues_done, .. } => assert_eq!(issues_done, 1),
            other => panic!("expected Welcome after reap, got {other:?}"),
        }
        drop((client, next));
        server.drain().unwrap();
    }

    fn await_quarantines(server: &ServerHandle, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().quarantined() < n {
            assert!(Instant::now() < deadline, "session was never quarantined");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn oversized_client_frame_quarantines_the_session() {
        let config = ServerConfig {
            max_client_frame: 1024,
            ..test_config()
        };
        let server = LabService::new(config).serve_tcp("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let tcp = || TestClient::connect_tcp(addr);
        let in_process = || TestClient::attach(&server).unwrap();
        let connectors: [&dyn Fn() -> TestClient; 2] = [&tcp, &in_process];
        for (quarantines, connect) in (1..).zip(connectors) {
            let tenant = format!("tenant-{quarantines}");
            let mut client = connect();
            assert!(matches!(client.hello(&tenant), WireReply::Welcome { .. }));
            // A length prefix past the server's cap: framing is lost,
            // and an in-process session has no more of a resync point
            // than a socket does.
            client
                .transport
                .send(Bytes::copy_from_slice(&(64 * 1024u32).to_be_bytes()))
                .unwrap();
            await_quarantines(&server, quarantines);
            // The tenant survives quarantine; a fresh session resumes it.
            let mut next = connect();
            assert!(matches!(next.hello(&tenant), WireReply::Welcome { .. }));
        }
        server.drain().unwrap();
    }

    #[test]
    fn attached_sessions_share_the_pool_and_its_admission_control() {
        let config = ServerConfig {
            max_sessions: 1,
            backlog: 1,
            ..test_config()
        };
        let sink = CollectingSink::new();
        let server = LabService::new(config)
            .with_sink_factory(collecting_factory(sink.clone()))
            .start();
        assert_eq!(server.local_addr(), None, "no listener");
        let mut active = TestClient::attach(&server).unwrap();
        assert!(matches!(active.hello("a"), WireReply::Welcome { .. }));
        assert!(matches!(
            active.issue(CommandType::InitC9),
            WireReply::Done { fault: None, .. }
        ));
        // Occupy the only backlog slot, then overflow it: the reject is
        // typed for the caller and on the wire, as at the accept edge.
        let _queued = TestClient::attach(&server).unwrap();
        let (client_side, server_side) = crate::rpc::Duplex::pair();
        let err = server.attach(server_side).unwrap_err();
        assert!(matches!(err, RadError::Overloaded(_)), "{err:?}");
        match TestClient::over(client_side).await_reply(0) {
            WireReply::Rejected { reason } => assert!(reason.contains("full"), "{reason}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(server.stats().rejected(), 1);
        assert!(matches!(
            active.request(WireRequest::Bye),
            WireReply::Goodbye { issues_done: 1 }
        ));
        let report = server.drain().unwrap();
        assert_eq!(report.tenants[0].rows_flushed, 1);
        assert_eq!(sink.len(), 1, "in-process traces reach the sink stack");
    }

    #[test]
    fn repeated_hello_replays_welcome_instead_of_locking_out() {
        let server = LabService::new(test_config())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let mut client = TestClient::connect_tcp(server.local_addr().unwrap());
        let WireReply::Welcome { session, .. } = client.hello("alice") else {
            panic!("first Hello must be welcomed");
        };
        client.issue(CommandType::InitC9);
        // The client never saw its Welcome and retries the Hello under
        // the same id.
        client.send(
            0,
            WireRequest::Hello {
                tenant: "alice".into(),
            },
        );
        match client.await_reply(0) {
            WireReply::Welcome {
                session: replayed,
                issues_done,
            } => {
                assert_eq!(replayed, session, "same session, not a new one");
                assert_eq!(issues_done, 1);
            }
            other => panic!("expected a replayed Welcome, got {other:?}"),
        }
        // The session survives the retry.
        assert!(matches!(
            client.issue(CommandType::Home),
            WireReply::Done { fault: None, .. }
        ));
        assert_eq!(server.stats().rejected(), 0);
        drop(client);
        server.drain().unwrap();
    }

    #[test]
    fn hello_for_another_tenant_quarantines_without_stranding_the_first() {
        let server = LabService::new(test_config())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TestClient::connect_tcp(addr);
        assert!(matches!(client.hello("a"), WireReply::Welcome { .. }));
        match client.hello("b") {
            WireReply::Failed { message } => {
                assert!(message.contains("bound to tenant `a`"), "{message}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        await_quarantines(&server, 1);
        // `a` is free for its next session instead of locked out until
        // drain, and `b` was never bound.
        let mut next = TestClient::connect_tcp(addr);
        assert!(matches!(next.hello("a"), WireReply::Welcome { .. }));
        let mut other = TestClient::connect_tcp(addr);
        assert!(matches!(other.hello("b"), WireReply::Welcome { .. }));
        drop((client, next, other));
        server.drain().unwrap();
    }

    #[test]
    fn malformed_payload_is_skipped_not_fatal() {
        let server = LabService::new(test_config())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TestClient::connect_tcp(addr);
        client.hello("alice");
        // Well-framed garbage: the frame is skipped, the session
        // lives, and the next valid request succeeds.
        client
            .transport
            .send(FrameCodec::encode(b"not json at all"))
            .unwrap();
        assert!(matches!(
            client.issue(CommandType::InitC9),
            WireReply::Done { fault: None, .. }
        ));
        drop(client);
        server.drain().unwrap();
    }

    #[test]
    fn duplicate_request_ids_replay_without_reexecution() {
        let server = LabService::new(test_config())
            .serve_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TestClient::connect_tcp(addr);
        client.hello("alice");
        client.issue(CommandType::InitC9);
        // Replay the Issue frame by hand, as a retry would.
        client.send(
            1,
            WireRequest::Issue {
                deadline_ms: 0,
                command: Command::nullary(CommandType::InitC9),
            },
        );
        let replay = client.await_reply(1);
        assert!(matches!(replay, WireReply::Done { .. }));
        assert_eq!(server.stats().dedup_hits(), 1);
        assert_eq!(server.stats().issues(), 1, "no double execution");
        drop(client);
        server.drain().unwrap();
    }

    #[test]
    fn every_session_end_releases_the_dedup_cache() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(150),
            max_client_frame: 1024,
            ..test_config()
        };
        let server = LabService::new(config).start();
        for end in ["bye", "disconnect", "reap", "quarantine"] {
            let mut client = TestClient::attach(&server).unwrap();
            assert!(matches!(client.hello(end), WireReply::Welcome { .. }));
            client.issue(CommandType::InitC9);
            client.issue(CommandType::Home);
            let tenant = Arc::clone(&server.tenants.lock()[end]);
            assert_eq!(
                tenant.state.lock().dedup.len(),
                2,
                "the live session caches"
            );
            match end {
                "bye" => assert!(matches!(
                    client.request(WireRequest::Bye),
                    WireReply::Goodbye { .. }
                )),
                "disconnect" => drop(client),
                // Go quiet past the idle timeout.
                "reap" => {}
                _ => client
                    .transport
                    .send(Bytes::copy_from_slice(&(64 * 1024u32).to_be_bytes()))
                    .unwrap(),
            }
            // The session's clean-up frees the tenant last.
            let deadline = Instant::now() + Duration::from_secs(5);
            while tenant.busy.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "`{end}` never ended the session");
                std::thread::sleep(Duration::from_millis(5));
            }
            let state = tenant.state.lock();
            assert!(state.dedup.is_empty(), "`{end}` left cached replies");
            assert!(
                !state.dedup.is_allocated(),
                "`{end}` left the table allocated"
            );
        }
        assert_eq!(server.stats().reaped(), 1);
        assert_eq!(server.stats().quarantined(), 1);
        server.drain().unwrap();
    }

    #[test]
    fn durable_tenants_survive_drain_and_reopen() {
        let dir = std::env::temp_dir().join(format!("radd-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            data_dir: Some(dir.clone()),
            ..test_config()
        };
        let server = LabService::new(config).serve_tcp("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TestClient::connect_tcp(addr);
        client.hello("alice");
        client.issue(CommandType::InitC9);
        client.issue(CommandType::Home);
        client.request(WireRequest::Bye);
        let report = server.drain().unwrap();
        assert_eq!(report.tenants[0].rows_flushed, 2);
        // Drain sealed the tenant's rows: a fresh process finds them in
        // segments, with nothing left to replay.
        let (store, recovery) =
            DurableStore::open(&dir.join("alice"), DurableOptions::default()).unwrap();
        assert_eq!(recovery.records_replayed, 0);
        assert_eq!(store.segments().unwrap().trace_rows(), 2);
        let rows = store.read_traces().unwrap();
        let commands: Vec<CommandType> = rows.iter().map(|r| r.command_type()).collect();
        assert_eq!(commands, [CommandType::InitC9, CommandType::Home]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_seeds_differ_per_name_and_reproduce() {
        assert_eq!(tenant_seed(7, "alice"), tenant_seed(7, "alice"));
        assert_ne!(tenant_seed(7, "alice"), tenant_seed(7, "bob"));
        assert_ne!(tenant_seed(7, "alice"), tenant_seed(8, "alice"));
    }

    #[test]
    fn accepted_tcp_streams_disable_nagle() {
        let listener = Listener::Tcp(TcpListener::bind("127.0.0.1:0").unwrap());
        let Listener::Tcp(tcp) = &listener else {
            unreachable!("bound as TCP")
        };
        let _client = TcpStream::connect(tcp.local_addr().unwrap()).unwrap();
        // The accept thread's path: `Listener::accept` then `from_stream`.
        let transport = SocketTransport::from_stream(listener.accept().unwrap()).unwrap();
        for half in [&transport.reader, &transport.writer] {
            let SocketStream::Tcp(stream) = &*half.lock() else {
                unreachable!("accepted from a TCP listener")
            };
            assert!(stream.nodelay().unwrap(), "accepted socket keeps Nagle on");
        }
    }

    #[test]
    fn a_cached_read_timeout_cannot_wedge_a_later_receive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let transport = SocketTransport::tcp(listener.accept().unwrap().0).unwrap();
        assert!(
            matches!(
                transport.recv(Duration::from_millis(1)),
                Err(RadError::RpcTimeout(_))
            ),
            "a silent socket times out"
        );
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            peer.write_all(b"late").unwrap();
            peer
        });
        // A stale 1 ms timeout would expire long before the peer writes.
        let got = transport.recv(Duration::from_secs(5)).unwrap();
        assert_eq!(&got[..], b"late");
        drop(late.join().unwrap());
    }
}
