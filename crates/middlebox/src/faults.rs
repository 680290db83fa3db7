//! Deterministic fault injection for the middlebox path.
//!
//! A middlebox failure must never corrupt an experiment or silently
//! drop trace objects — but that property is only trustworthy if the
//! failure behaviour itself is tested and reproducible. This module
//! provides the seeded fault model the conformance suites pin down:
//!
//! - [`FaultProfile`] — the injection taxonomy: per-chunk drop,
//!   duplicate, reorder, corrupt, and delay probabilities plus a
//!   deterministic disconnect point.
//! - [`FaultPlan`] — a seeded, deterministic schedule over that
//!   profile. Every decision is a pure function of
//!   `(seed, lane, index)`, so the same plan produces byte-identical
//!   fault schedules across runs and thread interleavings, and sim-time
//!   outage windows integrate with the existing [`SimClock`] timeline.
//! - [`FaultyDuplex`] — a [`Transport`] wrapper that applies the plan
//!   to every chunk crossing a [`Duplex`] endpoint.
//! - [`FaultStats`] — shared counters so tests and operators can
//!   observe exactly what was injected and what the recovery machinery
//!   (retries, dedup, DIRECT fallback) absorbed.
//!
//! [`SimClock`]: rad_core::SimClock
//!
//! # Examples
//!
//! ```
//! use rad_middlebox::faults::{FaultPlan, FaultProfile, Lane};
//!
//! let plan = FaultPlan::new(7, FaultProfile::drop(0.2));
//! // Deterministic: the same (seed, lane, index) always decides alike.
//! assert_eq!(
//!     plan.schedule(Lane::Request, 64),
//!     FaultPlan::new(7, FaultProfile::drop(0.2)).schedule(Lane::Request, 64),
//! );
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use rad_core::{RadError, SimDuration, SimInstant};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::rpc::{Duplex, Transport};

/// Which direction of the client↔middlebox link a chunk travels.
///
/// The two lanes draw from independent decision streams so that a
/// request-heavy workload does not perturb the response lane's
/// schedule (and vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Lab computer → middlebox.
    Request,
    /// Middlebox → lab computer.
    Response,
}

impl Lane {
    fn salt(self) -> u64 {
        match self {
            Lane::Request => 0x5255_4c45_5f52_4551, // "RULE_REQ"
            Lane::Response => 0x5255_4c45_5f52_4553,
        }
    }
}

/// The fault injected on one chunk (or the decision to leave it alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The chunk crosses the wire untouched.
    Deliver,
    /// The chunk is silently lost.
    Drop,
    /// The chunk arrives twice.
    Duplicate,
    /// A byte of the chunk is flipped in flight.
    Corrupt,
    /// The chunk is held back and delivered after the next `n` chunks
    /// (`Hold(1)` is a classic adjacent reorder; larger values model
    /// queueing delay).
    Hold(u32),
    /// The link dies at this chunk; nothing crosses afterwards.
    Disconnect,
}

/// Per-chunk fault probabilities plus the deterministic disconnect
/// point — the injection taxonomy.
///
/// Probabilities are evaluated in a fixed cascade (drop, duplicate,
/// corrupt, reorder, delay) from a single uniform draw per chunk, so a
/// profile's event mix is exactly its configured probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability a chunk is dropped.
    pub drop_prob: f64,
    /// Probability a chunk is duplicated.
    pub duplicate_prob: f64,
    /// Probability a byte of a chunk is flipped.
    pub corrupt_prob: f64,
    /// Probability a chunk is swapped with its successor.
    pub reorder_prob: f64,
    /// Probability a chunk is held back `delay_chunks` sends.
    pub delay_prob: f64,
    /// How many subsequent chunks a delayed chunk waits for.
    pub delay_chunks: u32,
    /// Chunk index (per lane) at which the link dies for good.
    pub disconnect_after: Option<u64>,
}

impl FaultProfile {
    /// A perfect channel: every chunk delivers.
    pub fn none() -> Self {
        FaultProfile {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
            reorder_prob: 0.0,
            delay_prob: 0.0,
            delay_chunks: 3,
            disconnect_after: None,
        }
    }

    /// Loss only: each chunk dropped with probability `p`.
    pub fn drop(p: f64) -> Self {
        FaultProfile {
            drop_prob: p,
            ..FaultProfile::none()
        }
    }

    /// Duplication only.
    pub fn duplicate(p: f64) -> Self {
        FaultProfile {
            duplicate_prob: p,
            ..FaultProfile::none()
        }
    }

    /// Corruption only: each chunk gets a byte flipped with
    /// probability `p`.
    pub fn corrupt(p: f64) -> Self {
        FaultProfile {
            corrupt_prob: p,
            ..FaultProfile::none()
        }
    }

    /// Reordering only: adjacent swaps with probability `p`.
    pub fn reorder(p: f64) -> Self {
        FaultProfile {
            reorder_prob: p,
            ..FaultProfile::none()
        }
    }

    /// Delay only: chunks held `chunks` sends with probability `p`.
    pub fn delay(p: f64, chunks: u32) -> Self {
        FaultProfile {
            delay_prob: p,
            delay_chunks: chunks.max(1),
            ..FaultProfile::none()
        }
    }

    /// A link that dies after `n` chunks per lane.
    pub fn disconnect_after(n: u64) -> Self {
        FaultProfile {
            disconnect_after: Some(n),
            ..FaultProfile::none()
        }
    }

    /// Adds a disconnect point to any profile.
    #[must_use]
    pub fn with_disconnect_after(mut self, n: u64) -> Self {
        self.disconnect_after = Some(n);
        self
    }

    fn total_prob(&self) -> f64 {
        self.drop_prob
            + self.duplicate_prob
            + self.corrupt_prob
            + self.reorder_prob
            + self.delay_prob
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// A seeded, deterministic fault schedule.
///
/// The plan never holds mutable state: every per-chunk decision is a
/// pure function of `(seed, lane, index)`, which is what makes the
/// schedule identical across runs and thread interleavings. Sim-time
/// outage windows (for the simulation path, where the middlebox can be
/// "down" between two [`SimInstant`]s) ride alongside the chunk-level
/// schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
    outages: Vec<(SimInstant, SimDuration)>,
}

impl FaultPlan {
    /// A plan over `profile`, with all randomness derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or the
    /// probabilities sum past 1.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        for p in [
            profile.drop_prob,
            profile.duplicate_prob,
            profile.corrupt_prob,
            profile.reorder_prob,
            profile.delay_prob,
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability {p} out of range"
            );
        }
        assert!(
            profile.total_prob() <= 1.0 + 1e-9,
            "fault probabilities sum past 1"
        );
        FaultPlan {
            seed,
            profile,
            outages: Vec::new(),
        }
    }

    /// Declares a sim-time outage window: the middlebox is unavailable
    /// for `duration` starting at `start`.
    #[must_use]
    pub fn with_outage(mut self, start: SimInstant, duration: SimDuration) -> Self {
        self.outages.push((start, duration));
        self
    }

    /// The seed the plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The profile in effect.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// The declared sim-time outage windows, in declaration order.
    pub fn outages(&self) -> &[(SimInstant, SimDuration)] {
        &self.outages
    }

    /// The fault decision for chunk `index` on `lane` — a pure
    /// function, safe to call from any thread in any order.
    pub fn action_for(&self, lane: Lane, index: u64) -> WireFault {
        if let Some(n) = self.profile.disconnect_after {
            if index >= n {
                return WireFault::Disconnect;
            }
        }
        let mut rng = self.decision_rng(lane, index);
        let draw: f64 = rng.gen_range(0.0..1.0);
        let p = &self.profile;
        let mut threshold = p.drop_prob;
        if draw < threshold {
            return WireFault::Drop;
        }
        threshold += p.duplicate_prob;
        if draw < threshold {
            return WireFault::Duplicate;
        }
        threshold += p.corrupt_prob;
        if draw < threshold {
            return WireFault::Corrupt;
        }
        threshold += p.reorder_prob;
        if draw < threshold {
            return WireFault::Hold(1);
        }
        threshold += p.delay_prob;
        if draw < threshold {
            return WireFault::Hold(p.delay_chunks.max(1));
        }
        WireFault::Deliver
    }

    /// The first `n` decisions of one lane — the materialized schedule
    /// the determinism suite compares byte-for-byte.
    pub fn schedule(&self, lane: Lane, n: u64) -> Vec<WireFault> {
        (0..n).map(|i| self.action_for(lane, i)).collect()
    }

    /// Whether the middlebox is unavailable for the `index`-th relayed
    /// command at sim-time `now` — true inside any declared outage
    /// window or at/after the disconnect point.
    pub fn unavailable_at(&self, now: SimInstant, index: u64) -> bool {
        if let Some(n) = self.profile.disconnect_after {
            if index >= n {
                return true;
            }
        }
        self.outages
            .iter()
            .any(|&(start, dur)| now >= start && now < start + dur)
    }

    /// Deterministically corrupts one byte of `chunk` (returned
    /// unchanged when empty). The flipped position and mask derive from
    /// the same `(seed, lane, index)` stream as the decision itself.
    pub fn corrupt_chunk(&self, lane: Lane, index: u64, chunk: &Bytes) -> Bytes {
        if chunk.is_empty() {
            return chunk.clone();
        }
        let mut rng = self.decision_rng(lane, index ^ 0x434f_5252); // "CORR"
        let pos = rng.gen_range(0..chunk.len() as u64) as usize;
        let mask = (rng.gen_range(1..256u64)) as u8; // never zero: always flips
        let mut out = chunk.to_vec();
        out[pos] ^= mask;
        Bytes::from(out)
    }

    fn decision_rng(&self, lane: Lane, index: u64) -> ChaCha8Rng {
        let mixed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(lane.salt())
            .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        ChaCha8Rng::seed_from_u64(mixed)
    }
}

/// Shared fault/recovery counters — the observability surface.
///
/// Cheap to clone (an [`Arc`] of atomics); the same handle can be
/// given to both [`Faulty`] ends of a link and to a [`Middlebox`] so
/// one snapshot accounts for the whole path. Server-side execution and
/// dedup counts of the lab service live in
/// [`ServerStats`](crate::server::ServerStats).
///
/// [`Middlebox`]: crate::Middlebox
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    inner: Arc<FaultStatsInner>,
}

#[derive(Debug, Default)]
struct FaultStatsInner {
    delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
    held: AtomicU64,
    disconnects: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    executions: AtomicU64,
    dedup_hits: AtomicU64,
    gaps: AtomicU64,
}

macro_rules! stat {
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

impl FaultStats {
    /// A fresh set of zeroed counters.
    pub fn new() -> Self {
        FaultStats::default()
    }

    stat! {
        note_delivered / delivered => delivered,
        note_dropped / dropped => dropped,
        note_duplicated / duplicated => duplicated,
        note_corrupted / corrupted => corrupted,
        note_held / held => held,
        note_disconnect / disconnects => disconnects,
        note_retry / retries => retries,
        note_timeout / timeouts => timeouts,
        note_execution / executions => executions,
        note_dedup_hit / dedup_hits => dedup_hits,
        note_gap / gaps => gaps,
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            delivered: self.delivered(),
            dropped: self.dropped(),
            duplicated: self.duplicated(),
            corrupted: self.corrupted(),
            held: self.held(),
            disconnects: self.disconnects(),
            retries: self.retries(),
            timeouts: self.timeouts(),
            executions: self.executions(),
            dedup_hits: self.dedup_hits(),
            gaps: self.gaps(),
        }
    }
}

/// A plain-value snapshot of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are the documentation
pub struct FaultStatsSnapshot {
    pub delivered: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupted: u64,
    pub held: u64,
    pub disconnects: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub executions: u64,
    pub dedup_hits: u64,
    pub gaps: u64,
}

impl fmt::Display for FaultStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delivered={} dropped={} duplicated={} corrupted={} held={} \
             disconnects={} retries={} timeouts={} executions={} dedup_hits={} \
             gaps={}",
            self.delivered,
            self.dropped,
            self.duplicated,
            self.corrupted,
            self.held,
            self.disconnects,
            self.retries,
            self.timeouts,
            self.executions,
            self.dedup_hits,
            self.gaps,
        )
    }
}

/// A [`Transport`] endpoint with a [`FaultPlan`] applied to its
/// outgoing chunks.
///
/// Generic over the underlying transport, so the same seeded schedule
/// interposes on an in-process [`Duplex`] or a live socket
/// ([`SocketTransport`](crate::server::SocketTransport)) without the
/// peers knowing — which is what lets the fault conformance matrix run
/// unchanged against real TCP/Unix streams. Wrap a fresh in-process
/// pair with [`FaultyDuplex::wrap_pair`] to fault both lanes, or wrap
/// one side to fault a single direction. Receiving is pass-through:
/// every fault is injected at the sending edge, which keeps the
/// decision index aligned with the sender's chunk count.
#[derive(Debug)]
pub struct Faulty<T: Transport = Duplex> {
    inner: T,
    plan: Arc<FaultPlan>,
    lane: Lane,
    stats: FaultStats,
    state: Mutex<LaneState>,
}

/// The in-process specialization of [`Faulty`] — the original name,
/// kept for the conformance suites and docs that predate real sockets.
pub type FaultyDuplex = Faulty<Duplex>;

#[derive(Debug, Default)]
struct LaneState {
    sent: u64,
    /// Chunks held for later, keyed by the send index that releases
    /// them. Chunks still held when the stream ends are lost (tail
    /// loss), exactly like a real queue drained on link death.
    held: Vec<(u64, Bytes)>,
    disconnected: bool,
}

impl FaultyDuplex {
    /// Wraps a fresh [`Duplex::pair`] so both lanes are faulted by the
    /// same plan: `(client_side, server_side)`.
    pub fn wrap_pair(plan: FaultPlan, stats: FaultStats) -> (FaultyDuplex, FaultyDuplex) {
        let plan = Arc::new(plan);
        let (client, server) = Duplex::pair();
        (
            FaultyDuplex::new(client, Arc::clone(&plan), Lane::Request, stats.clone()),
            FaultyDuplex::new(server, plan, Lane::Response, stats),
        )
    }
}

impl<T: Transport> Faulty<T> {
    /// Wraps one endpoint; faults apply to the chunks this side sends.
    pub fn new(inner: T, plan: Arc<FaultPlan>, lane: Lane, stats: FaultStats) -> Self {
        Faulty {
            inner,
            plan,
            lane,
            stats,
            state: Mutex::new(LaneState::default()),
        }
    }

    /// Sends one chunk through the fault schedule.
    ///
    /// # Errors
    ///
    /// [`RadError::RpcDisconnected`] once the plan's disconnect point
    /// is reached or the underlying peer is gone.
    pub fn send(&self, chunk: Bytes) -> Result<(), RadError> {
        let mut state = self.state.lock();
        if state.disconnected {
            return Err(RadError::RpcDisconnected(
                "fault plan disconnected the link".into(),
            ));
        }
        let index = state.sent;
        state.sent += 1;
        // Flush any held chunks whose release point has passed; they
        // go out *before* the current chunk, preserving the reorder
        // semantics (held chunk i lands after chunks i+1..=i+n).
        let due: Vec<Bytes> = {
            let mut due = Vec::new();
            state.held.retain(|(release_at, held)| {
                if *release_at <= index {
                    due.push(held.clone());
                    false
                } else {
                    true
                }
            });
            due
        };
        for held in due {
            self.inner.send(held)?;
        }
        match self.plan.action_for(self.lane, index) {
            WireFault::Deliver => {
                self.stats.note_delivered();
                self.inner.send(chunk)
            }
            WireFault::Drop => {
                self.stats.note_dropped();
                Ok(())
            }
            WireFault::Duplicate => {
                self.stats.note_duplicated();
                self.inner.send(chunk.clone())?;
                self.inner.send(chunk)
            }
            WireFault::Corrupt => {
                self.stats.note_corrupted();
                self.inner
                    .send(self.plan.corrupt_chunk(self.lane, index, &chunk))
            }
            WireFault::Hold(n) => {
                self.stats.note_held();
                state.held.push((index + u64::from(n), chunk));
                Ok(())
            }
            WireFault::Disconnect => {
                self.stats.note_disconnect();
                state.disconnected = true;
                state.held.clear();
                Err(RadError::RpcDisconnected(
                    "fault plan disconnected the link".into(),
                ))
            }
        }
    }

    /// Receives the next chunk (pass-through; see [`Duplex::recv`]).
    ///
    /// # Errors
    ///
    /// Same as [`Duplex::recv`], plus an immediate
    /// [`RadError::RpcDisconnected`] once this side's lane has died.
    pub fn recv(&self, timeout: Duration) -> Result<Bytes, RadError> {
        if self.state.lock().disconnected {
            return Err(RadError::RpcDisconnected(
                "fault plan disconnected the link".into(),
            ));
        }
        self.inner.recv(timeout)
    }

    /// The stats handle observing this endpoint.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

impl<T: Transport> Transport for Faulty<T> {
    fn send(&self, chunk: Bytes) -> Result<(), RadError> {
        Faulty::send(self, chunk)
    }

    fn recv(&self, timeout: Duration) -> Result<Bytes, RadError> {
        Faulty::recv(self, timeout)
    }
}

/// Declarative form of a [`FaultPlan`] — the `faults` section of a
/// scenario document. Probabilities default to `0.0`, the seed
/// defaults to the scenario seed at composition time, and every field
/// is validated on parse so [`FaultSpec::to_plan`] can never hit
/// [`FaultPlan::new`]'s panics:
///
/// ```json
/// {
///   "seed": 21,
///   "profile": {"drop": 0.1, "delay": 0.05, "delay_chunks": 3,
///               "disconnect_after": 40},
///   "outages": [{"start_us": 0, "duration_us": 1000000}]
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the plan's decision streams.
    pub seed: u64,
    /// Injection probabilities and the disconnect point.
    pub profile: FaultProfile,
    /// Sim-time outage windows as `(start_us, duration_us)` pairs.
    pub outages: Vec<(u64, u64)>,
}

impl FaultSpec {
    const FIELDS: &'static [&'static str] = &["seed", "profile", "outages"];
    const PROFILE_FIELDS: &'static [&'static str] = &[
        "drop",
        "duplicate",
        "corrupt",
        "reorder",
        "delay",
        "delay_chunks",
        "disconnect_after",
    ];

    /// The spec of an existing plan: `spec.to_plan()` rebuilds a plan
    /// equal to the original.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        FaultSpec {
            seed: plan.seed(),
            profile: plan.profile().clone(),
            outages: plan
                .outages()
                .iter()
                .map(|&(start, dur)| (start.as_micros(), dur.as_micros()))
                .collect(),
        }
    }

    /// Materializes the seeded [`FaultPlan`].
    pub fn to_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed, self.profile.clone());
        for &(start_us, duration_us) in &self.outages {
            plan = plan.with_outage(
                SimInstant::from_micros(start_us),
                SimDuration::from_micros(duration_us),
            );
        }
        plan
    }

    /// Parses the `faults` section rooted at `ctx`. `default_seed` is
    /// used when the section does not pin its own seed.
    ///
    /// # Errors
    ///
    /// [`rad_core::RadError::Spec`] on unknown fields, ill-typed
    /// values, out-of-range probabilities, or probabilities summing
    /// past 1.
    pub fn from_json(
        value: &serde_json::Value,
        ctx: &str,
        default_seed: u64,
    ) -> Result<Self, RadError> {
        use rad_core::spec;
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, Self::FIELDS)?;
        let seed = spec::opt_u64(map, ctx, "seed")?.unwrap_or(default_seed);
        let mut profile = FaultProfile::none();
        if let Some(p) = map.get("profile") {
            let pctx = spec::path(ctx, "profile");
            let pmap = spec::obj(p, &pctx)?;
            spec::known_fields(pmap, &pctx, Self::PROFILE_FIELDS)?;
            profile.drop_prob = spec::opt_prob(pmap, &pctx, "drop")?;
            profile.duplicate_prob = spec::opt_prob(pmap, &pctx, "duplicate")?;
            profile.corrupt_prob = spec::opt_prob(pmap, &pctx, "corrupt")?;
            profile.reorder_prob = spec::opt_prob(pmap, &pctx, "reorder")?;
            profile.delay_prob = spec::opt_prob(pmap, &pctx, "delay")?;
            profile.delay_chunks = spec::opt_u64(pmap, &pctx, "delay_chunks")?.unwrap_or(0) as u32;
            profile.disconnect_after = spec::opt_u64(pmap, &pctx, "disconnect_after")?;
            if profile.total_prob() > 1.0 + 1e-9 {
                return Err(RadError::spec(
                    &pctx,
                    format!("fault probabilities sum to {} (> 1)", profile.total_prob()),
                ));
            }
        }
        let mut outages = Vec::new();
        if let Some(list) = map.get("outages") {
            let octx = spec::path(ctx, "outages");
            let items = list
                .as_array()
                .ok_or_else(|| RadError::spec(&octx, "expected an array of outage windows"))?;
            for (i, item) in items.iter().enumerate() {
                let ictx = format!("{octx}[{i}]");
                let imap = spec::obj(item, &ictx)?;
                spec::known_fields(imap, &ictx, &["start_us", "duration_us"])?;
                outages.push((
                    spec::req_u64(imap, &ictx, "start_us")?,
                    spec::req_u64(imap, &ictx, "duration_us")?,
                ));
            }
        }
        Ok(FaultSpec {
            seed,
            profile,
            outages,
        })
    }

    /// The JSON form [`FaultSpec::from_json`] parses. Probabilities at
    /// their defaults are still written, so a serialized spec is fully
    /// explicit.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::json;
        let p = &self.profile;
        let mut profile = json!({
            "drop": p.drop_prob,
            "duplicate": p.duplicate_prob,
            "corrupt": p.corrupt_prob,
            "reorder": p.reorder_prob,
            "delay": p.delay_prob,
            "delay_chunks": p.delay_chunks as u64,
        });
        if let Some(n) = p.disconnect_after {
            profile
                .as_object_mut()
                .expect("profile is an object")
                .insert("disconnect_after".into(), json!(n));
        }
        let outages: Vec<serde_json::Value> = self
            .outages
            .iter()
            .map(|&(s, d)| json!({"start_us": s, "duration_us": d}))
            .collect();
        json!({
            "seed": self.seed,
            "profile": profile,
            "outages": outages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(rx: &Duplex) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Ok(chunk) = rx.recv(Duration::from_millis(20)) {
            out.push(chunk);
        }
        out
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let a = FaultPlan::new(3, FaultProfile::drop(0.3));
        let b = FaultPlan::new(3, FaultProfile::drop(0.3));
        let c = FaultPlan::new(4, FaultProfile::drop(0.3));
        assert_eq!(
            a.schedule(Lane::Request, 256),
            b.schedule(Lane::Request, 256)
        );
        assert_ne!(
            a.schedule(Lane::Request, 256),
            c.schedule(Lane::Request, 256)
        );
        // Lanes draw independently.
        assert_ne!(
            a.schedule(Lane::Request, 256),
            a.schedule(Lane::Response, 256)
        );
    }

    #[test]
    fn probabilities_shape_the_schedule() {
        let plan = FaultPlan::new(0, FaultProfile::drop(0.25));
        let drops = plan
            .schedule(Lane::Request, 4000)
            .iter()
            .filter(|f| **f == WireFault::Drop)
            .count();
        // 4000 draws at p=0.25: expect ~1000, allow a wide margin.
        assert!((700..1300).contains(&drops), "drops = {drops}");
        let none = FaultPlan::new(0, FaultProfile::none());
        assert!(none
            .schedule(Lane::Request, 1000)
            .iter()
            .all(|f| *f == WireFault::Deliver));
    }

    #[test]
    fn disconnect_after_is_exact() {
        let plan = FaultPlan::new(1, FaultProfile::disconnect_after(5));
        let schedule = plan.schedule(Lane::Request, 8);
        assert!(schedule[..5].iter().all(|f| *f != WireFault::Disconnect));
        assert!(schedule[5..].iter().all(|f| *f == WireFault::Disconnect));
    }

    #[test]
    fn outage_windows_bound_unavailability() {
        let start = SimInstant::EPOCH + SimDuration::from_secs(10);
        let plan =
            FaultPlan::new(0, FaultProfile::none()).with_outage(start, SimDuration::from_secs(5));
        assert!(!plan.unavailable_at(SimInstant::EPOCH, 0));
        assert!(plan.unavailable_at(start, 0));
        assert!(plan.unavailable_at(start + SimDuration::from_secs(4), 0));
        assert!(!plan.unavailable_at(start + SimDuration::from_secs(5), 0));
    }

    #[test]
    fn corruption_is_deterministic_and_always_changes_the_chunk() {
        let plan = FaultPlan::new(9, FaultProfile::corrupt(1.0));
        let chunk = Bytes::from_static(b"payload bytes");
        let a = plan.corrupt_chunk(Lane::Request, 7, &chunk);
        let b = plan.corrupt_chunk(Lane::Request, 7, &chunk);
        assert_eq!(a, b, "same index corrupts identically");
        assert_ne!(a, chunk, "corruption flips at least one bit");
        let other = plan.corrupt_chunk(Lane::Request, 8, &chunk);
        // Different index: independent position/mask (may rarely
        // coincide in value, but must still differ from the original).
        assert_ne!(other, chunk);
    }

    #[test]
    fn faulty_duplex_drops_and_counts() {
        let stats = FaultStats::new();
        let plan = Arc::new(FaultPlan::new(0, FaultProfile::drop(0.5)));
        let (a, b) = Duplex::pair();
        let faulty = FaultyDuplex::new(a, Arc::clone(&plan), Lane::Request, stats.clone());
        for i in 0..100u8 {
            faulty.send(Bytes::copy_from_slice(&[i])).unwrap();
        }
        let received = collect(&b);
        let snap = stats.snapshot();
        assert_eq!(snap.delivered as usize, received.len());
        assert_eq!(snap.delivered + snap.dropped, 100);
        assert!(snap.dropped > 10, "{snap}");
    }

    #[test]
    fn faulty_duplex_duplicates_arrive_twice() {
        let stats = FaultStats::new();
        let plan = Arc::new(FaultPlan::new(0, FaultProfile::duplicate(1.0)));
        let (a, b) = Duplex::pair();
        let faulty = FaultyDuplex::new(a, plan, Lane::Request, stats);
        faulty.send(Bytes::from_static(b"x")).unwrap();
        assert_eq!(collect(&b).len(), 2);
    }

    #[test]
    fn reorder_swaps_adjacent_chunks() {
        let stats = FaultStats::new();
        // Reorder every chunk: 0 held until after 1, 1 held until
        // after 2, etc. — a rolling shift.
        let plan = Arc::new(FaultPlan::new(0, FaultProfile::reorder(1.0)));
        let (a, b) = Duplex::pair();
        let faulty = FaultyDuplex::new(a, plan, Lane::Request, stats.clone());
        for i in 0..4u8 {
            faulty.send(Bytes::copy_from_slice(&[i])).unwrap();
        }
        let received = collect(&b);
        // Every chunk was held one slot; chunk 3 is still in the queue
        // (tail loss) and 0..=2 arrive shifted.
        assert_eq!(stats.snapshot().held, 4);
        assert_eq!(
            received.iter().map(|c| c[0]).collect::<Vec<_>>(),
            vec![0, 1, 2],
        );
    }

    #[test]
    fn disconnect_stops_the_lane() {
        let stats = FaultStats::new();
        let plan = Arc::new(FaultPlan::new(0, FaultProfile::disconnect_after(2)));
        let (a, b) = Duplex::pair();
        let faulty = FaultyDuplex::new(a, plan, Lane::Request, stats.clone());
        faulty.send(Bytes::from_static(b"0")).unwrap();
        faulty.send(Bytes::from_static(b"1")).unwrap();
        let err = faulty.send(Bytes::from_static(b"2")).unwrap_err();
        assert!(matches!(err, RadError::RpcDisconnected(_)));
        // Subsequent sends fail without advancing the schedule.
        assert!(faulty.send(Bytes::from_static(b"3")).is_err());
        assert_eq!(collect(&b).len(), 2);
        assert_eq!(stats.snapshot().disconnects, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_probability_is_rejected() {
        let _ = FaultPlan::new(0, FaultProfile::drop(1.5));
    }

    #[test]
    fn stats_snapshot_displays_every_counter() {
        let stats = FaultStats::new();
        stats.note_retry();
        stats.note_gap();
        stats.note_dedup_hit();
        let text = stats.snapshot().to_string();
        assert!(
            text.contains("retries=1") && text.contains("gaps=1") && text.contains("dedup_hits=1"),
            "{text}"
        );
    }
}
