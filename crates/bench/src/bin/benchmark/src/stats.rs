//! Order statistics and span arithmetic shared by the end-to-end and
//! traced runs.

use std::collections::BTreeMap;

use crate::spans::Span;

/// Median of `values`: the mean of the middle two for an even count.
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p < 100), emitted only when at
/// least ten samples lie above it; a tail estimate from fewer is noise.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let index = rank.clamp(1, n) - 1;
    (n - 1 - index >= 10).then(|| sorted[index])
}

/// The three quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (ld as i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can push j past i·m/4, making delta negative.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a regression bound must exceed.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Layer of a span: its name up to the first `.` (`export.bundle` →
/// `export`).
fn layer(name: &str) -> &str {
    name.split_once('.').map_or(name, |(head, _)| head)
}

/// Self time per layer as a share of `wall_ns`, the summed wall time of
/// the operations the spans belong to.
pub fn layer_shares(spans: &[Span], self_ns: &[u64], wall_ns: u64) -> BTreeMap<String, f64> {
    let mut shares: BTreeMap<String, f64> = BTreeMap::new();
    if wall_ns == 0 {
        return shares;
    }
    for (span, own) in spans.iter().zip(self_ns) {
        *shares.entry(layer(span.name).to_string()).or_default() += *own as f64;
    }
    for share in shares.values_mut() {
        *share /= wall_ns as f64;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            items: 0,
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90, with exactly ten samples above.
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90.0));
        // p99 would rest on one sample.
        assert_eq!(tail_percentile(&hundred, 99.0), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&ten).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a.x", 10, 30, Some(0)),
            span("a.y", 20, 40, Some(0)),  // overlaps a.x by 10
            span("b.z", 90, 120, Some(0)), // runs past the parent's end
        ];
        let own = self_times(&spans);
        // covered: [10, 40) + [90, 100) = 40
        assert_eq!(own, vec![60, 20, 20, 30]);
    }

    #[test]
    fn shares_group_self_time_by_layer() {
        let spans = vec![
            span("op", 0, 100, None),
            span("export.bundle", 0, 50, Some(0)),
            span("export.files", 50, 70, Some(0)),
            span("segment.seal", 70, 95, Some(0)),
        ];
        let own = self_times(&spans);
        let shares = layer_shares(&spans, &own, 100);
        assert_eq!(shares["export"], 0.7);
        assert_eq!(shares["segment"], 0.25);
        assert_eq!(shares["op"], 0.05);
        assert_eq!(layer("trace"), "trace");
    }
}
