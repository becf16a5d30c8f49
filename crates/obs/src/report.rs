//! The `MetricsReport` renderer behind `repro --metrics`.
//!
//! The report is two strictly separated sections. The **deterministic**
//! section holds the metrics whose values are pure functions of the
//! workload — it is rendered by [`render_deterministic`] alone, with no
//! timing, topology or gauge data mixed in, which is what lets the
//! determinism tests (and CI) assert that section byte-identical across
//! `--jobs 1` and `--jobs 8`, and between execution paths. The
//! **runtime** section holds everything else: timings, shard topology,
//! gauges, process-lifetime cache state.
//!
//! All formatting is integer-only (counts, sums, log2 buckets, and the
//! p50/p99 upper bounds derived from the buckets) — no floats anywhere
//! near the deterministic section, so there is no rounding to betray
//! the byte-identity guarantee.

use crate::metrics::{MetricClass, MetricEntry, MetricValue, MetricsSnapshot};
use std::fmt::Write as _;

/// Width the metric names pad to; long names simply overflow the column.
const NAME_WIDTH: usize = 44;

/// The largest value bucket `k` can hold: log2 buckets store `v` with
/// bit length `k`, so bucket 0 holds only zeros and bucket `k` tops out
/// at `2^k - 1`.
fn bucket_upper_bound(bucket: u32) -> u64 {
    match bucket {
        0 => 0,
        k if k >= 64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// Nearest-rank percentile over log2 buckets: the upper bound of the
/// bucket holding the `ceil(p·count/100)`-th smallest sample. A pure
/// integer function of the (deterministic) buckets, so it is safe in
/// the byte-identity section.
fn bucket_percentile(buckets: &[(u32, u64)], count: u64, p: u64) -> u64 {
    let rank = (p * count).div_ceil(100).max(1);
    let mut cumulative = 0u64;
    for &(bucket, n) in buckets {
        cumulative += n;
        if cumulative >= rank {
            return bucket_upper_bound(bucket);
        }
    }
    buckets.last().map_or(0, |&(bucket, _)| bucket_upper_bound(bucket))
}

fn render_entry(out: &mut String, e: &MetricEntry) {
    match &e.value {
        MetricValue::Counter(v) => {
            let _ = writeln!(out, "  {:<NAME_WIDTH$} {v}", e.name);
        }
        MetricValue::Gauge { value, max } => {
            let _ = writeln!(out, "  {:<NAME_WIDTH$} level={value} high_water={max}", e.name);
        }
        MetricValue::Histogram { count, sum, buckets } => {
            let _ = write!(out, "  {:<NAME_WIDTH$} count={count} sum={sum}", e.name);
            if *count > 0 {
                let p50 = bucket_percentile(buckets, *count, 50);
                let p99 = bucket_percentile(buckets, *count, 99);
                let _ = write!(out, " p50<={p50} p99<={p99}");
            }
            out.push_str(" log2=[");
            for (i, (bucket, n)) in buckets.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{bucket}:{n}");
            }
            out.push_str("]\n");
        }
    }
}

/// Renders only the deterministic section body (no header), the exact
/// bytes the determinism assertions compare.
pub fn render_deterministic(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for e in snapshot.of_class(MetricClass::Deterministic) {
        render_entry(&mut out, e);
    }
    out
}

/// Renders the full two-section report.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("== metrics: deterministic (byte-identical across --jobs) ==\n");
    let det = render_deterministic(snapshot);
    if det.is_empty() {
        out.push_str("  (none recorded)\n");
    } else {
        out.push_str(&det);
    }
    out.push_str("== metrics: runtime (this execution only) ==\n");
    let mut any = false;
    for e in snapshot.of_class(MetricClass::Runtime) {
        any = true;
        render_entry(&mut out, e);
    }
    if !any {
        out.push_str("  (none recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            entries: vec![
                MetricEntry {
                    name: "fleet.units.completed".into(),
                    class: MetricClass::Runtime,
                    value: MetricValue::Counter(8),
                },
                MetricEntry {
                    name: "mitm.flows.built".into(),
                    class: MetricClass::Deterministic,
                    value: MetricValue::Counter(1234),
                },
                MetricEntry {
                    name: "simnet.queue.drain_depth".into(),
                    class: MetricClass::Deterministic,
                    value: MetricValue::Histogram {
                        count: 3,
                        sum: 12,
                        buckets: vec![(2, 2), (4, 1)],
                    },
                },
                MetricEntry {
                    name: "fleet.workers.active".into(),
                    class: MetricClass::Runtime,
                    value: MetricValue::Gauge { value: 0, max: 2 },
                },
            ],
        }
    }

    #[test]
    fn deterministic_section_excludes_runtime_entries() {
        let det = render_deterministic(&sample());
        assert!(det.contains("mitm.flows.built"));
        assert!(det.contains("simnet.queue.drain_depth"));
        assert!(!det.contains("fleet.units.completed"));
        assert!(!det.contains("fleet.workers.active"));
    }

    #[test]
    fn full_report_renders_both_sections_in_order() {
        let report = render(&sample());
        let det_header = report.find("deterministic").expect("det header");
        let runtime_header = report.find("runtime (this execution").expect("runtime header");
        assert!(det_header < runtime_header);
        assert!(report.contains(
            "simnet.queue.drain_depth                     count=3 sum=12 p50<=3 p99<=15 log2=[2:2 4:1]"
        ));
        assert!(report.contains("fleet.workers.active                         level=0 high_water=2"));
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        // 3 samples in bucket 2 (values 2..=3), 1 in bucket 4 (8..=15).
        let buckets = vec![(2u32, 3u64), (4, 1)];
        assert_eq!(bucket_percentile(&buckets, 4, 50), 3, "rank 2 lands in bucket 2");
        assert_eq!(bucket_percentile(&buckets, 4, 99), 15, "rank 4 lands in bucket 4");
        assert_eq!(bucket_percentile(&[(0, 5)], 5, 99), 0, "bucket 0 holds only zeros");
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn empty_sections_say_so() {
        let report = render(&MetricsSnapshot::default());
        assert_eq!(report.matches("(none recorded)").count(), 2);
    }
}
