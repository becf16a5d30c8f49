//! The benchmark's own span recorder and the self-time analysis over it.
//!
//! Spans are recorded from outside the program: the benchmark opens one
//! around each call it makes into a layer's public function. Parents are
//! passed explicitly (work crosses fleet worker threads), and every span
//! carries the thread it ran on plus a free-form tag (unit label or
//! request id). A disabled tracer hands out inert guards, so the
//! untraced runs execute exactly the same code minus the clock reads.
//!
//! Self time is a span's duration minus the part of it that its direct
//! children cover (the union of their intervals, clipped to the span).
//! Children of one parent may run concurrently on several threads, so
//! plain self times add up to thread-seconds, not to wall time. For the
//! wall-clock check every span also gets a *wall weight*: 1 at the root,
//! and at each level the parent's weight times (union of the children's
//! intervals / sum of their durations). Weighted self times then add up
//! to the root's duration whenever every child lies inside its parent —
//! which is what the self-check verifies.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique within the tracer, from 1.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name (`layer.call`).
    pub name: &'static str,
    /// Unit label or request id.
    pub tag: String,
    /// Small per-process thread number.
    pub thread: u64,
    /// Start and end, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; written out once at the end of a run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_NO: Cell<u64> = const { Cell::new(0) };
}

fn thread_no() -> u64 {
    THREAD_NO.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An open span; records itself when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    tag: String,
    start: Option<Instant>,
}

impl Guard<'_> {
    /// The span's id (0 when tracing is off), to parent child spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let end = Instant::now();
            let rec = SpanRec {
                id: self.id,
                parent: self.parent,
                name: self.name,
                tag: std::mem::take(&mut self.tag),
                thread: thread_no(),
                start_ns: start.duration_since(self.tracer.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.tracer.epoch).as_nanos() as u64,
            };
            self.tracer
                .spans
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(rec);
        }
    }
}

impl Tracer {
    /// A tracer; `enabled: false` records nothing.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn span(&self, name: &'static str, parent: u64, tag: impl FnOnce() -> String) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                name,
                tag: String::new(),
                start: None,
            };
        }
        Guard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            tag: tag(),
            start: Some(Instant::now()),
        }
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// The spans as JSON lines (name, start, end, parent, tag, thread).
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.name,
            panoptes_serve::json::quoted(&s.tag),
            s.thread,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self times of a span tree.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Self time per span name, in seconds (thread-seconds).
    pub by_name: BTreeMap<&'static str, f64>,
    /// Self time per layer (the name's first dot-separated part).
    pub by_layer: BTreeMap<String, f64>,
    /// Wall-weighted self time per layer, in seconds.
    pub wall_by_layer: BTreeMap<String, f64>,
    /// Sum of the wall-weighted self times of every span, in seconds.
    pub attributed_s: f64,
    /// Duration of the root spans, in seconds.
    pub roots_s: f64,
    /// Time children spent outside their parent, in seconds (0 when
    /// every span nests properly).
    pub escaped_s: f64,
}

/// Computes self times over `spans`.
pub fn self_times(spans: &[SpanRec]) -> SelfTimes {
    let by_id: HashMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
    for s in spans {
        if s.parent != 0 && by_id.contains_key(&s.parent) {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut out = SelfTimes::default();
    // Depth-first from the roots, carrying the wall weight down.
    let mut stack: Vec<(&SpanRec, f64)> = spans
        .iter()
        .filter(|s| s.parent == 0 || !by_id.contains_key(&s.parent))
        .map(|s| (s, 1.0))
        .collect();
    out.roots_s = stack.iter().map(|(s, _)| s.dur_ns() as f64 * 1e-9).sum();
    while let Some((span, weight)) = stack.pop() {
        let kids = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
        let mut intervals: Vec<(u64, u64)> = kids.iter().map(|c| (c.start_ns, c.end_ns)).collect();
        let covered = union_ns(&mut intervals, span.start_ns, span.end_ns);
        let kids_sum: u64 = kids.iter().map(|c| c.dur_ns()).sum();
        let unclipped = union_ns(&mut intervals, 0, u64::MAX);
        out.escaped_s += (unclipped - covered) as f64 * 1e-9;
        let self_s = span.dur_ns().saturating_sub(covered) as f64 * 1e-9;
        let layer = span.name.split('.').next().unwrap_or(span.name).to_string();
        *out.by_name.entry(span.name).or_default() += self_s;
        *out.by_layer.entry(layer.clone()).or_default() += self_s;
        *out.wall_by_layer.entry(layer).or_default() += self_s * weight;
        out.attributed_s += self_s * weight;
        let child_weight = if kids_sum == 0 {
            weight
        } else {
            weight * covered as f64 / kids_sum as f64
        };
        for c in kids {
            stack.push((c, child_weight));
        }
    }
    out
}

/// Per-fleet scheduling figures from the fleet spans (`fleet.*` spans
/// whose tag starts with `jobs=N`) and their unit children.
#[derive(Debug, Default, Clone, Copy)]
pub struct FleetFigures {
    /// Sum of unit busy time.
    pub busy_s: f64,
    /// Sum over fleets of jobs × fleet wall.
    pub capacity_s: f64,
    /// Worker time spent idle while the fleet's last unit still ran.
    pub tail_idle_s: f64,
    /// Longest single unit.
    pub unit_max_s: f64,
}

/// Computes [`FleetFigures`] over every fleet span.
pub fn fleet_figures(spans: &[SpanRec]) -> FleetFigures {
    let mut figures = FleetFigures::default();
    for fleet in spans
        .iter()
        .filter(|s| s.name.starts_with("fleet.") && s.tag.starts_with("jobs="))
    {
        let jobs: usize = fleet.tag["jobs=".len()..]
            .split_whitespace()
            .next()
            .and_then(|j| j.parse().ok())
            .unwrap_or(1);
        let units: Vec<&SpanRec> = spans.iter().filter(|s| s.parent == fleet.id).collect();
        if units.is_empty() {
            continue;
        }
        figures.busy_s += units.iter().map(|u| u.dur_ns() as f64 * 1e-9).sum::<f64>();
        figures.capacity_s += jobs as f64 * fleet.dur_ns() as f64 * 1e-9;
        let mut last_end: BTreeMap<u64, u64> = BTreeMap::new();
        for u in &units {
            let e = last_end.entry(u.thread).or_default();
            *e = (*e).max(u.end_ns);
            figures.unit_max_s = figures.unit_max_s.max(u.dur_ns() as f64 * 1e-9);
        }
        let finish = last_end.values().copied().max().unwrap_or(fleet.start_ns);
        let mut idle_ns: u64 = last_end.values().map(|e| finish - e).sum();
        // Workers that never got a unit idle from the fleet's start.
        let unused = jobs.saturating_sub(last_end.len()) as u64;
        idle_ns += unused * finish.saturating_sub(fleet.start_ns);
        figures.tail_idle_s += idle_ns as f64 * 1e-9;
    }
    figures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, thread: u64, s: u64, e: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            tag: String::new(),
            thread,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn weighted_self_times_add_up_to_the_root() {
        // Root 0..100; a fleet 10..90 with two concurrent units.
        let spans = vec![
            rec(1, 0, "study.run", 1, 0, 100),
            rec(2, 1, "fleet.crawl", 1, 10, 90),
            rec(3, 2, "campaign.crawl", 2, 10, 80),
            rec(4, 2, "campaign.crawl", 3, 12, 90),
        ];
        let t = self_times(&spans);
        assert!((t.attributed_s - 100e-9).abs() < 1e-15, "{t:?}");
        assert_eq!(t.escaped_s, 0.0);
        assert!((t.by_name["campaign.crawl"] - 148e-9).abs() < 1e-15);
        assert!((t.by_name["study.run"] - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn fleet_tail_idle_counts_waiting_workers() {
        let mut fleet = rec(1, 0, "fleet.crawl", 1, 0, 100);
        fleet.tag = "jobs=2".into();
        let spans = vec![
            fleet,
            rec(2, 1, "campaign.crawl", 2, 0, 60),
            rec(3, 1, "campaign.crawl", 3, 0, 100),
        ];
        let f = fleet_figures(&spans);
        assert!((f.tail_idle_s - 40e-9).abs() < 1e-15);
        assert!((f.busy_s - 160e-9).abs() < 1e-15);
        assert!((f.capacity_s - 200e-9).abs() < 1e-15);
    }
}
