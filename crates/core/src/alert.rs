//! Typed detection alerts and the composable [`AlertSink`] plane.
//!
//! The streaming detectors (see `rad_analysis::streaming`) emit one
//! [`Alert`] per threshold crossing *as traces arrive*, instead of a
//! post-hoc score table. Alerts are plain records — device, run,
//! window span, score, threshold, detector id — so they ride the same
//! persistence plumbing as traces and gaps: `alerts.csv` in export
//! bundles, manifest counts.
//!
//! [`AlertSink`] mirrors [`TraceSink`](crate::TraceSink): a stage that
//! detects composes with a stage that records by construction, and the
//! same alert stream can fan out to a live operator console and a
//! durable log via [`SharedAlerts`] clones.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::device::DeviceKind;
use crate::error::RadError;
use crate::procedure::RunId;
use crate::time::SimInstant;

/// One detection event: a detector's score crossed its threshold over
/// a window of the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Which detector fired (e.g. `"perplexity.window"`,
    /// `"power.welford"`). Static in practice; `Cow` keeps ad-hoc
    /// detectors possible without per-alert allocation for the
    /// built-ins.
    pub detector: Cow<'static, str>,
    /// The device whose stream the window covers.
    pub device: DeviceKind,
    /// The run the window belongs to, when known.
    pub run_id: Option<RunId>,
    /// Start of the scored window (timestamp of its first record).
    pub window_start: SimInstant,
    /// End of the scored window (timestamp of its last record).
    pub window_end: SimInstant,
    /// The score that crossed the threshold.
    pub score: f64,
    /// The threshold in force when the alert fired.
    pub threshold: f64,
}

impl Alert {
    /// A stable sort key: alerts compare by time, then detector, then
    /// device — the order `alerts.csv` is written in when streams from
    /// several stages merge.
    pub fn sort_key(&self) -> (u64, &str, DeviceKind, Option<RunId>) {
        (
            self.window_end.as_micros(),
            self.detector.as_ref(),
            self.device,
            self.run_id,
        )
    }
}

/// A consumer of detection alerts.
///
/// The contract mirrors [`TraceSink`](crate::TraceSink): `raise` may
/// be called any number of times, `finish` exactly once at
/// end-of-stream. A sink must not care how the *trace* stream was
/// chunked — the detectors guarantee the alert stream is identical for
/// any chunking of their input.
pub trait AlertSink {
    /// Accepts one alert.
    ///
    /// # Errors
    ///
    /// Returns [`RadError`] when the alert cannot be recorded.
    fn raise(&mut self, alert: &Alert) -> Result<(), RadError>;

    /// Signals end-of-stream.
    ///
    /// # Errors
    ///
    /// Returns [`RadError`] when finalization fails.
    fn finish(&mut self) -> Result<(), RadError> {
        Ok(())
    }
}

impl<S: AlertSink + ?Sized> AlertSink for &mut S {
    fn raise(&mut self, alert: &Alert) -> Result<(), RadError> {
        (**self).raise(alert)
    }

    fn finish(&mut self) -> Result<(), RadError> {
        (**self).finish()
    }
}

impl<S: AlertSink + ?Sized> AlertSink for Box<S> {
    fn raise(&mut self, alert: &Alert) -> Result<(), RadError> {
        (**self).raise(alert)
    }

    fn finish(&mut self) -> Result<(), RadError> {
        (**self).finish()
    }
}

/// The simplest sink: collect every alert in order.
impl AlertSink for Vec<Alert> {
    fn raise(&mut self, alert: &Alert) -> Result<(), RadError> {
        self.push(alert.clone());
        Ok(())
    }
}

/// A cloneable, thread-safe alert collector.
///
/// A detection stage boxed into a tracer's sink stack is unreachable
/// afterwards; a [`SharedAlerts`] clone handed to the stage before
/// boxing keeps the alert stream readable from outside — the live-tee
/// deployments use exactly this shape.
#[derive(Debug, Default, Clone)]
pub struct SharedAlerts {
    alerts: Arc<Mutex<Vec<Alert>>>,
}

impl SharedAlerts {
    /// An empty shared collector.
    pub fn new() -> Self {
        SharedAlerts::default()
    }

    /// A snapshot of every alert raised so far, in arrival order.
    pub fn snapshot(&self) -> Vec<Alert> {
        self.alerts
            .lock()
            .expect("alert collector poisoned")
            .clone()
    }

    /// Drains the collected alerts, leaving the collector empty.
    pub fn take(&self) -> Vec<Alert> {
        std::mem::take(&mut *self.alerts.lock().expect("alert collector poisoned"))
    }

    /// Number of alerts collected so far.
    pub fn len(&self) -> usize {
        self.alerts.lock().expect("alert collector poisoned").len()
    }

    /// Whether no alert has been raised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl AlertSink for SharedAlerts {
    fn raise(&mut self, alert: &Alert) -> Result<(), RadError> {
        self.alerts
            .lock()
            .expect("alert collector poisoned")
            .push(alert.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(us: u64) -> Alert {
        Alert {
            detector: "test".into(),
            device: DeviceKind::C9,
            run_id: Some(RunId(1)),
            window_start: SimInstant::from_micros(us.saturating_sub(10)),
            window_end: SimInstant::from_micros(us),
            score: 9.0,
            threshold: 3.0,
        }
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink: Vec<Alert> = Vec::new();
        sink.raise(&alert(10)).unwrap();
        sink.raise(&alert(20)).unwrap();
        assert_eq!(sink.len(), 2);
        assert_eq!(sink[1].window_end, SimInstant::from_micros(20));
    }

    #[test]
    fn shared_alerts_stay_readable_through_clones() {
        let shared = SharedAlerts::new();
        let mut writer = shared.clone();
        writer.raise(&alert(1)).unwrap();
        writer.raise(&alert(2)).unwrap();
        assert_eq!(shared.len(), 2);
        let drained = shared.take();
        assert_eq!(drained.len(), 2);
        assert!(shared.is_empty());
    }

    #[test]
    fn sort_key_orders_by_time_first() {
        let a = alert(10);
        let b = alert(20);
        assert!(a.sort_key() < b.sort_key());
    }
}
