//! Turns what a run measured into the named metrics `BENCHMARK.json`
//! lists.

use std::collections::{BTreeMap, BTreeSet};

use crate::spans::{Span, OP};
use crate::stats::{layer_shares, median, self_times, tail_percentile};
use crate::workload::{Measured, Traced};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count behind the value, for the human-readable lines.
    pub samples: usize,
}

fn metric(name: &'static str, (value, samples): (f64, usize), unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Layers whose self time is reported as `<layer>.share`.
const LAYERS: [(&str, &str); 6] = [
    ("campaign", "campaign.share"),
    ("detect", "detect.share"),
    ("export", "export.share"),
    ("segment", "segment.share"),
    ("remote", "remote.share"),
    ("devices", "devices.share"),
];

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: &[f64], measured: &Measured, peak_rss_mib: f64) -> Vec<Metric> {
    let ok: Vec<f64> = measured
        .ops
        .iter()
        .filter(|op| !op.failed)
        .map(|op| op.ms)
        .collect();
    let rows_per_s = if measured.wall_s > 0.0 {
        measured.rows as f64 / measured.wall_s
    } else {
        0.0
    };
    vec![
        metric(
            "setup_s",
            (median(setup_s).unwrap_or(0.0), setup_s.len()),
            "s",
        ),
        metric("rows_per_s", (rows_per_s, measured.ops.len()), "rows/s"),
        metric("op_p50_ms", (median(&ok).unwrap_or(0.0), ok.len()), "ms"),
        metric("peak_rss_mb", (peak_rss_mib, 1), "MiB"),
    ]
}

/// The per-layer metrics of a traced run. A layer a workload does not
/// call reads 0, as does a tail percentile with fewer than ten samples
/// beyond it.
pub fn per_layer(traced: &Traced, measured: &Measured) -> Vec<Metric> {
    let spans = traced.spans.spans();
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut items: BTreeMap<&str, u64> = BTreeMap::new();
    for span in spans {
        durations
            .entry(span.name)
            .or_default()
            .push(span.duration_ns() as f64);
        *items.entry(span.name).or_default() += span.items;
    }
    let durs = |name: &str| durations.get(name).map_or(&[][..], Vec::as_slice);
    let scaled = |values: &[f64], stat: Option<f64>, scale: f64| {
        (stat.map_or(0.0, |v| v / scale), values.len())
    };
    let ms_p50 = |name: &str| scaled(durs(name), median(durs(name)), 1e6);
    let us_p50 = |name: &str| scaled(durs(name), median(durs(name)), 1e3);
    let us_p99 = |name: &str| scaled(durs(name), tail_percentile(durs(name), 99.0), 1e3);
    let busy_s = |name: &str| durs(name).iter().sum::<f64>() / 1e9;
    let rate = |name: &str, amount: f64| {
        let busy = busy_s(name);
        (
            if busy > 0.0 { amount / busy } else { 0.0 },
            durs(name).len(),
        )
    };
    let sample = |name: &str| traced.samples.get(name).map_or(&[][..], Vec::as_slice);
    let sample_p50 = |name: &str| scaled(sample(name), median(sample(name)), 1.0);

    // Each pipelined window's time, amortized over the commands it
    // carried, as one sample per command.
    let per_issue: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "remote.window" && s.items > 0)
        .flat_map(|s| {
            let each = s.duration_ns() as f64 / s.items as f64;
            std::iter::repeat_n(each, s.items as usize)
        })
        .collect();

    let (shares, unattributed, traced_wall_ms) = op_shares(spans);
    let traced_ops: BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == OP)
        .map(|s| s.op)
        .collect();
    let untraced_ms: f64 = measured
        .ops
        .iter()
        .filter(|op| traced_ops.contains(&op.index))
        .map(|op| op.ms)
        .sum();
    let overhead = if untraced_ms > 0.0 {
        traced_wall_ms / untraced_ms - 1.0
    } else {
        0.0
    };
    let op_count = traced_ops.len();

    let mut metrics = vec![
        metric("campaign.build_ms", ms_p50("campaign.build"), "ms"),
        metric(
            "campaign.build_resumable_ms",
            ms_p50("campaign.build_resumable"),
            "ms",
        ),
        metric(
            "campaign.crash_build_ms",
            ms_p50("campaign.crash_build"),
            "ms",
        ),
        metric(
            "campaign.resume_from_ms",
            ms_p50("campaign.resume_from"),
            "ms",
        ),
        metric("detect.fit_ms", ms_p50("detect.fit"), "ms"),
        metric("detect.stream_ms", ms_p50("detect.stream"), "ms"),
        metric(
            "detect.rows_per_s",
            rate("detect.stream", items_of(&items, "detect.stream")),
            "rows/s",
        ),
        metric("export.bundle_ms", ms_p50("export.bundle"), "ms"),
        metric(
            "export.mb_per_s",
            rate(
                "export.bundle",
                sample("export.bytes").iter().sum::<f64>() / 1e6,
            ),
            "MB/s",
        ),
        metric("export.files", sample_p50("export.files"), "count"),
        metric("export.bytes", sample_p50("export.bytes"), "bytes"),
        metric("segment.seal_ms", ms_p50("segment.seal"), "ms"),
        metric(
            "segment.rows_per_s",
            rate("segment.seal", items_of(&items, "segment.seal")),
            "rows/s",
        ),
        metric("segment.replay_ms", ms_p50("segment.replay"), "ms"),
        metric("segment.pruned", sample_p50("segment.pruned"), "count"),
        metric(
            "segment.window_rows",
            sample_p50("segment.window_rows"),
            "count",
        ),
        metric("remote.issue_us_p50", us_p50("remote.issue"), "us"),
        metric("remote.issue_us_p99", us_p99("remote.issue"), "us"),
        metric("remote.window_ms_p50", ms_p50("remote.window"), "ms"),
        metric(
            "remote.window_issue_us_p50",
            scaled(&per_issue, median(&per_issue), 1e3),
            "us",
        ),
        metric(
            "remote.window_issue_us_p99",
            scaled(&per_issue, tail_percentile(&per_issue, 99.0), 1e3),
            "us",
        ),
        metric("remote.boundary_us_p50", us_p50("remote.boundary"), "us"),
        metric("remote.connect_ms", ms_p50("remote.connect"), "ms"),
        metric("remote.script_ms", ms_p50("remote.script"), "ms"),
        metric("remote.bye_ms", ms_p50("remote.bye"), "ms"),
        metric(
            "devices.shadow_execute_us_p50",
            us_p50("devices.shadow_execute"),
            "us",
        ),
        metric("server.drain_ms", ms_p50("server.drain"), "ms"),
    ];
    for name in [
        "server.issues",
        "server.rows_flushed",
        "server.peak_queued_rows",
        "server.dedup_evictions",
        "server.rejected",
    ] {
        metrics.push(metric(name, sample_p50(name), "count"));
    }
    for (layer, name) in LAYERS {
        let share = shares.get(layer).copied().unwrap_or(0.0);
        metrics.push(metric(name, (share, op_count), "share"));
    }
    metrics.push(metric(
        "trace.unattributed_share",
        (unattributed, op_count),
        "share",
    ));
    metrics.push(metric("trace.overhead", (overhead, op_count), "ratio"));
    metrics
}

fn items_of(items: &BTreeMap<&str, u64>, name: &str) -> f64 {
    items.get(name).copied().unwrap_or(0) as f64
}

/// Layer shares of the spans inside ops (the drain after the last op
/// is not part of one), the ops' own unattributed share, and their
/// summed wall time in ms.
fn op_shares(spans: &[Span]) -> (BTreeMap<String, f64>, f64, f64) {
    let own = self_times(spans);
    let in_op = |s: &Span| s.name == OP || s.parent.is_some_and(|p| spans[p].name == OP);
    let (inside, inside_own): (Vec<Span>, Vec<u64>) = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| in_op(s))
        .map(|(s, o)| (s.clone(), *o))
        .unzip();
    let wall_ns: u64 = inside
        .iter()
        .filter(|s| s.name == OP)
        .map(Span::duration_ns)
        .sum();
    let mut shares = layer_shares(&inside, &inside_own, wall_ns);
    let unattributed = shares.remove(OP).unwrap_or(0.0);
    (shares, unattributed, wall_ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Recorder;
    use crate::workload::Op;
    use std::time::Instant;

    #[test]
    fn per_layer_reports_every_metric_and_zero_for_unused_layers() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open(OP, 0);
        rec.time_counted("export.bundle", || ((), 0));
        rec.close(root);
        rec.time("server.drain", || ());
        let mut traced = Traced::new(Instant::now());
        traced.spans = rec;
        traced.sample("export.bytes", 2e6);
        let measured = Measured {
            ops: vec![Op {
                index: 0,
                seed: 1,
                ms: 1e9,
                failed: false,
            }],
            ..Measured::default()
        };
        let metrics = per_layer(&traced, &measured);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("remote.issue_us_p50"), 0.0);
        assert_eq!(get("campaign.share"), 0.0);
        assert!(get("export.mb_per_s") > 0.0);
        let shares = get("export.share") + get("trace.unattributed_share");
        assert!((shares - 1.0).abs() < 1e-9, "shares of one op sum to 1");
        assert!(
            get("trace.overhead") < 0.0,
            "a 1e9 ms untraced op is slower"
        );
        let names: BTreeSet<&str> = metrics.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), metrics.len(), "names are unique");
    }
}
