//! The sharded metrics registry.
//!
//! Three instrument kinds, all registered globally by name and read out
//! as one [`MetricsSnapshot`]:
//!
//! * [`Counter`] — a monotonic tally, sharded across cache-line-padded
//!   atomic cells so concurrent fleet workers never contend on one
//!   line;
//! * [`Gauge`] — a signed level with a high-water mark (queue depths,
//!   channel occupancy). Gauges are always [`MetricClass::Runtime`]:
//!   a level is a statement about *this* execution's interleaving;
//! * [`Histogram`] — fixed log2 buckets (bucket *k* holds values whose
//!   bit length is *k*), plus exact count and sum. No floats, no
//!   dynamic bucket boundaries, so two runs that record the same
//!   multiset of values produce byte-identical snapshots.
//!
//! # Deterministic vs runtime
//!
//! Every metric carries a [`MetricClass`]. `Deterministic` metrics are
//! pure functions of the workload — the same study captures the same
//! flow/event/detector tallies whatever `--jobs` count or scheduling
//! executed it — and the deterministic half of the report is asserted
//! byte-identical across those modes
//! (`tests/obs_determinism.rs`). `Runtime` metrics describe the
//! execution itself: wall-clock timings, shard topology (which changes
//! with the worker count by construction), and process-lifetime cache
//! state such as the atom interner (whose hit/miss balance depends on
//! what already ran in this process).
//!
//! # Disabled cost
//!
//! Call sites go through the [`count!`](crate::count),
//! [`record!`](crate::record) and [`gauge_add!`](crate::gauge_add)
//! macros, which hide a per-call-site `OnceLock` handle behind the
//! global [`metrics_enabled`](crate::metrics_enabled) check — when the
//! layer is off, the whole macro is one relaxed load and a not-taken
//! branch. Handle resolution, shard selection and the atomic add only
//! exist on the enabled path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Whether a metric is part of the byte-identity guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricClass {
    /// A pure function of the workload: identical across `--jobs`
    /// counts and execution paths.
    Deterministic,
    /// A property of this particular execution (timing, topology,
    /// process-lifetime cache state); excluded from byte-identity.
    Runtime,
}

impl MetricClass {
    fn label(self) -> &'static str {
        match self {
            MetricClass::Deterministic => "deterministic",
            MetricClass::Runtime => "runtime",
        }
    }
}

/// Counter shard count. Eight padded cells comfortably cover the fleet
/// worker counts the pipeline runs (threads pick cells round-robin).
const COUNTER_SHARDS: usize = 8;

/// Histogram bucket count: bucket `k` (1 ≤ k ≤ 64) holds values of bit
/// length `k` (i.e. `2^(k-1) ≤ v < 2^k`); bucket 0 holds zeros.
const HISTOGRAM_BUCKETS: usize = 65;

/// One cache line's worth of atomic counter, so two shards never share
/// a line (the point of sharding).
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// The round-robin shard assignment for the calling thread.
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotonic, sharded counter.
pub struct Counter {
    name: &'static str,
    class: MetricClass,
    shards: [PaddedCell; COUNTER_SHARDS],
}

impl Counter {
    fn new(name: &'static str, class: MetricClass) -> Counter {
        Counter { name, class, shards: Default::default() }
    }

    /// Adds `n` to the calling thread's shard (relaxed; totals are read
    /// after workers join).
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The summed total across shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A signed level with a high-water mark.
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    fn new(name: &'static str) -> Gauge {
        Gauge { name, value: AtomicI64::new(0), max: AtomicI64::new(0) }
    }

    /// Moves the level by `delta` and folds the new level into the
    /// high-water mark.
    #[inline]
    pub fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.max.fetch_max(now, Ordering::Relaxed);
    }

    /// Sets the level outright (also folds into the high-water mark).
    #[inline]
    pub fn set(&self, level: i64) {
        self.value.store(level, Ordering::Relaxed);
        self.max.fetch_max(level, Ordering::Relaxed);
    }

    /// The current level.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest level seen.
    pub fn high_water(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed log2 buckets with exact count and sum.
pub struct Histogram {
    name: &'static str,
    class: MetricClass,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// The log2 bucket of a value: 0 for 0, otherwise the bit length.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    fn new(name: &'static str, class: MetricClass) -> Histogram {
        Histogram {
            name,
            class,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// One registered metric (the registry's internal handle).
#[derive(Clone, Copy)]
enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Handle {
    fn name(&self) -> &'static str {
        match self {
            Handle::Counter(c) => c.name,
            Handle::Gauge(g) => g.name,
            Handle::Histogram(h) => h.name,
        }
    }
}

fn registry() -> &'static Mutex<HashMap<&'static str, Handle>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Handle>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn leak_name(name: &str) -> &'static str {
    Box::leak(name.to_string().into_boxed_str())
}

/// Registers (or retrieves) the counter `name`. Registration leaks the
/// handle deliberately: metric populations are small and fixed, and a
/// `&'static` handle is what lets call sites cache it in a `OnceLock`.
pub fn counter(name: &str, class: MetricClass) -> &'static Counter {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(handle) = reg.get(name) {
        match handle {
            Handle::Counter(c) => return c,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }
    let leaked: &'static Counter = Box::leak(Box::new(Counter::new(leak_name(name), class)));
    reg.insert(leaked.name, Handle::Counter(leaked));
    leaked
}

/// Registers (or retrieves) the gauge `name` (always runtime-class).
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(handle) = reg.get(name) {
        match handle {
            Handle::Gauge(g) => return g,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }
    let leaked: &'static Gauge = Box::leak(Box::new(Gauge::new(leak_name(name))));
    reg.insert(leaked.name, Handle::Gauge(leaked));
    leaked
}

/// Registers (or retrieves) the histogram `name`.
pub fn histogram(name: &str, class: MetricClass) -> &'static Histogram {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(handle) = reg.get(name) {
        match handle {
            Handle::Histogram(h) => return h,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }
    let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new(leak_name(name), class)));
    reg.insert(leaked.name, Handle::Histogram(leaked));
    leaked
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge level and high-water mark.
    Gauge {
        /// Current level.
        value: i64,
        /// Highest level seen.
        max: i64,
    },
    /// A histogram: exact count/sum plus the non-empty log2 buckets as
    /// `(bucket, count)` — bucket `k` holds values of bit length `k`.
    Histogram {
        /// Number of recorded values.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Non-empty buckets, ascending.
        buckets: Vec<(u32, u64)>,
    },
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// The metric's registered name.
    pub name: String,
    /// Its byte-identity class.
    pub class: MetricClass,
    /// Its value.
    pub value: MetricValue,
}

/// A point-in-time read of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The entries, ascending by name.
    pub entries: Vec<MetricEntry>,
}

/// Reads every registered metric. The result is sorted by name, so two
/// snapshots of identical state render identically.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock().expect("metrics registry poisoned");
    let mut handles: Vec<Handle> = reg.values().copied().collect();
    drop(reg);
    handles.sort_by_key(|h| h.name());
    let entries = handles
        .into_iter()
        .map(|handle| match handle {
            Handle::Counter(c) => MetricEntry {
                name: c.name.to_string(),
                class: c.class,
                value: MetricValue::Counter(c.value()),
            },
            Handle::Gauge(g) => MetricEntry {
                name: g.name.to_string(),
                class: MetricClass::Runtime,
                value: MetricValue::Gauge { value: g.value(), max: g.high_water() },
            },
            Handle::Histogram(h) => MetricEntry {
                name: h.name.to_string(),
                class: h.class,
                value: MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| {
                            let n = b.load(Ordering::Relaxed);
                            (n > 0).then_some((i as u32, n))
                        })
                        .collect(),
                },
            },
        })
        .collect();
    MetricsSnapshot { entries }
}

impl MetricsSnapshot {
    /// The change since `base`: counters and histograms subtract
    /// (metrics are cumulative over the process, so a delta isolates
    /// one run); gauges pass through unchanged (a level has no
    /// meaningful difference). Metrics absent from `base` count from
    /// zero; zero-valued deltas are dropped.
    pub fn delta(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
        let base_by_name: HashMap<&str, &MetricEntry> =
            base.entries.iter().map(|e| (e.name.as_str(), e)).collect();
        let entries = self
            .entries
            .iter()
            .filter_map(|e| {
                let value = match (&e.value, base_by_name.get(e.name.as_str()).map(|b| &b.value)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (
                        MetricValue::Histogram { count, sum, buckets },
                        Some(MetricValue::Histogram {
                            count: then_count,
                            sum: then_sum,
                            buckets: then_buckets,
                        }),
                    ) => {
                        let then: HashMap<u32, u64> = then_buckets.iter().copied().collect();
                        MetricValue::Histogram {
                            count: count.saturating_sub(*then_count),
                            sum: sum.saturating_sub(*then_sum),
                            buckets: buckets
                                .iter()
                                .filter_map(|(k, n)| {
                                    let d = n.saturating_sub(then.get(k).copied().unwrap_or(0));
                                    (d > 0).then_some((*k, d))
                                })
                                .collect(),
                        }
                    }
                    (value, _) => value.clone(),
                };
                let empty = matches!(
                    &value,
                    MetricValue::Counter(0)
                        | MetricValue::Histogram { count: 0, .. }
                        | MetricValue::Gauge { value: 0, max: 0 }
                );
                (!empty).then(|| MetricEntry { name: e.name.clone(), class: e.class, value })
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Only the entries of the given class, in name order.
    pub fn of_class(&self, class: MetricClass) -> impl Iterator<Item = &MetricEntry> {
        self.entries.iter().filter(move |e| e.class == class)
    }
}

impl std::fmt::Display for MetricClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Bumps a counter by `$n`. One relaxed load and a not-taken branch
/// when the metrics layer is disabled; the `&'static` handle resolves
/// once per call site on the enabled path.
#[macro_export]
macro_rules! count {
    ($name:expr, $class:ident, $n:expr) => {
        if $crate::metrics_enabled() {
            static __OBS_HANDLE: std::sync::OnceLock<&'static $crate::metrics::Counter> =
                std::sync::OnceLock::new();
            __OBS_HANDLE
                .get_or_init(|| {
                    $crate::metrics::counter($name, $crate::metrics::MetricClass::$class)
                })
                .add($n);
        }
    };
    ($name:expr, $class:ident) => {
        $crate::count!($name, $class, 1)
    };
}

/// Records one histogram value. Same disabled cost as [`count!`].
#[macro_export]
macro_rules! record {
    ($name:expr, $class:ident, $v:expr) => {
        if $crate::metrics_enabled() {
            static __OBS_HANDLE: std::sync::OnceLock<&'static $crate::metrics::Histogram> =
                std::sync::OnceLock::new();
            __OBS_HANDLE
                .get_or_init(|| {
                    $crate::metrics::histogram($name, $crate::metrics::MetricClass::$class)
                })
                .record($v);
        }
    };
}

/// Moves a gauge level by `$delta` (gauges are always runtime-class).
/// Same disabled cost as [`count!`].
#[macro_export]
macro_rules! gauge_add {
    ($name:expr, $delta:expr) => {
        if $crate::metrics_enabled() {
            static __OBS_HANDLE: std::sync::OnceLock<&'static $crate::metrics::Gauge> =
                std::sync::OnceLock::new();
            __OBS_HANDLE.get_or_init(|| $crate::metrics::gauge($name)).add($delta);
        }
    };
}

/// Sets a gauge to an absolute level (gauges are always
/// runtime-class). Same disabled cost as [`count!`].
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $level:expr) => {
        if $crate::metrics_enabled() {
            static __OBS_HANDLE: std::sync::OnceLock<&'static $crate::metrics::Gauge> =
                std::sync::OnceLock::new();
            __OBS_HANDLE.get_or_init(|| $crate::metrics::gauge($name)).set($level);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_sum() {
        let c = counter("test.metrics.counter_shards_sum", MetricClass::Deterministic);
        c.add(3);
        c.incr();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| c.add(10));
            }
        });
        assert_eq!(c.value(), 44);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = gauge("test.metrics.gauge_high_water");
        g.add(3);
        g.add(4);
        g.add(-5);
        assert_eq!(g.value(), 2);
        assert_eq!(g.high_water(), 7);
        g.set(1);
        assert_eq!(g.value(), 1);
        assert_eq!(g.high_water(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        let h = histogram("test.metrics.histogram_log2", MetricClass::Deterministic);
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        let snap = snapshot();
        let entry = snap
            .entries
            .iter()
            .find(|e| e.name == "test.metrics.histogram_log2")
            .expect("registered");
        match &entry.value {
            MetricValue::Histogram { count: 6, sum: 1034, buckets } => {
                assert_eq!(buckets.as_slice(), &[(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
            }
            other => panic!("unexpected value {other:?}"),
        }
    }

    #[test]
    fn reregistration_returns_the_same_handle() {
        let a = counter("test.metrics.same_handle", MetricClass::Runtime);
        let b = counter("test.metrics.same_handle", MetricClass::Runtime);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let c = counter("test.metrics.delta_counter", MetricClass::Deterministic);
        let h = histogram("test.metrics.delta_histogram", MetricClass::Deterministic);
        c.add(5);
        h.record(7);
        let base = snapshot();
        c.add(2);
        h.record(7);
        h.record(100);
        let d = snapshot().delta(&base);
        let by_name: HashMap<&str, &MetricEntry> =
            d.entries.iter().map(|e| (e.name.as_str(), e)).collect();
        assert_eq!(
            by_name["test.metrics.delta_counter"].value,
            MetricValue::Counter(2)
        );
        match &by_name["test.metrics.delta_histogram"].value {
            MetricValue::Histogram { count: 2, sum: 107, buckets } => {
                assert_eq!(buckets.as_slice(), &[(3, 1), (7, 1)]);
            }
            other => panic!("unexpected value {other:?}"),
        }
    }

    #[test]
    fn disabled_macro_records_nothing() {
        // The macro body is gated on the global switch; with the layer
        // off the handle must never even register.
        crate::disable(crate::METRICS);
        crate::count!("test.metrics.never_registered", Deterministic);
        let snap = snapshot();
        assert!(snap.entries.iter().all(|e| e.name != "test.metrics.never_registered"));
    }
}
