//! Spans and events with dual timestamps, recorded per thread.
//!
//! # Recording
//!
//! Every thread that traces owns a private ring buffer
//! ([`RING_CAPACITY`] most-recent events; older events are overwritten,
//! never reallocated). The hot path is lock-free and contention-free by
//! construction — a thread only ever touches its own ring — and when
//! the trace layer is disabled, [`point`] and [`span`] are a single
//! relaxed load and a branch.
//!
//! When a thread exits (fleet workers, analysis workers) its ring
//! drains into the global flush list, so a post-join exporter sees
//! every worker's events; the exporting thread drains its own ring
//! explicitly. [`export_jsonl`] must therefore run after the worker
//! threads have joined — which the fleet guarantees by scoping its
//! pool.
//!
//! # Dual timestamps
//!
//! Every event carries `wall_ns` — wall-clock nanoseconds since the
//! first trace event of the process — and, when the caller is inside a
//! campaign, `sim_us` — the unit's virtual [`SimClock`] reading. The
//! pair is what makes a trace of this codebase legible: virtual time
//! says *where in the campaign* something happened, wall time says
//! *what it cost*.
//!
//! # Request scoping
//!
//! When a [`crate::ctx::TraceCtx`] is installed on the recording
//! thread (the serve path hands one across every thread boundary),
//! each event is stamped with the request id it served (`req`) and —
//! for events recorded after a hand-off — the parent span on the
//! spawning side (`parent`). Offline traces (`repro --trace-out`)
//! carry no context and omit both keys; the schema is backward
//! compatible in both directions.
//!
//! # JSONL schema
//!
//! One event per line, keys in fixed order (`ev`, `name`, `span`,
//! `thread`, `seq`, `wall_ns`, then optional `sim_us`, `req`,
//! `parent`, `detail`):
//!
//! ```json
//! {"ev":"start","name":"fleet.unit","span":3,"thread":1,"seq":0,"wall_ns":1200,"detail":"Chrome crawl"}
//! {"ev":"end","name":"fleet.unit","span":3,"thread":1,"seq":9,"wall_ns":91200,"sim_us":600000000}
//! {"ev":"start","name":"serve.unit","span":7,"thread":2,"seq":0,"wall_ns":2400,"req":3,"parent":5}
//! ```
//!
//! [`parse_jsonl`] inverts [`export_jsonl`] exactly; the round-trip is
//! asserted byte-identical in this module's tests and in CI against a
//! real `repro --trace-out` run.
//!
//! [`SimClock`]: https://docs.rs/panoptes-simnet

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Events kept per thread; the ring overwrites the oldest beyond this.
pub const RING_CAPACITY: usize = 65_536;

/// What a trace line records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Start,
    /// A span closed.
    End,
    /// A point event (no duration).
    Point,
}

impl EventKind {
    fn label(self) -> &'static str {
        match self {
            EventKind::Start => "start",
            EventKind::End => "end",
            EventKind::Point => "point",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start / end / point.
    pub kind: EventKind,
    /// The span or event name (dot-separated taxonomy, e.g.
    /// `fleet.unit`, `study.analyze_crawl`).
    pub name: String,
    /// Span id linking a start to its end; 0 for point events.
    pub span: u64,
    /// The recording thread's trace id (dense, assigned on first use).
    pub thread: u64,
    /// Per-thread sequence number (monotonic even across ring
    /// overwrites, so gaps reveal dropped events).
    pub seq: u64,
    /// Wall-clock nanoseconds since the process's first trace event.
    pub wall_ns: u64,
    /// Virtual campaign time in microseconds, when known.
    pub sim_us: Option<u64>,
    /// The request this event served, from the installed
    /// [`crate::ctx::TraceCtx`]; absent outside the serve path.
    pub req: Option<u64>,
    /// The span on the spawning side of the last thread hand-off,
    /// from the installed context; absent when there was none (or when
    /// it would point at this event's own span).
    pub parent: Option<u64>,
    /// Free-form annotation (unit label, shard index, …).
    pub detail: Option<String>,
}

/// The wall-clock anchor: first use pins t=0.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
fn wall_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Rings of exited threads, drained in thread-exit order.
fn flushed() -> &'static Mutex<Vec<TraceEvent>> {
    static FLUSHED: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    FLUSHED.get_or_init(|| Mutex::new(Vec::new()))
}

/// One thread's ring. Only the owning thread writes; the drop impl
/// moves the surviving events to the global flush list on thread exit.
struct ThreadRing {
    thread: u64,
    events: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    next_seq: u64,
}

impl ThreadRing {
    fn new() -> ThreadRing {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
        ThreadRing {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            events: Vec::new(),
            head: 0,
            next_seq: 0,
        }
    }

    fn push(&mut self, kind: EventKind, name: &str, span: u64, sim_us: Option<u64>, detail: Option<String>) {
        let ctx = crate::ctx::current();
        let event = TraceEvent {
            kind,
            name: name.to_string(),
            span,
            thread: self.thread,
            seq: self.next_seq,
            wall_ns: wall_ns(),
            sim_us,
            req: ctx.map(|c| c.request),
            // A span's own id as its parent would be a self-loop (the
            // root span ends after ctx::set_parent points at it), so
            // that case is recorded as parentless.
            parent: ctx
                .map(|c| c.parent_span)
                .filter(|&p| p != 0 && p != span),
            detail,
        };
        self.next_seq += 1;
        if self.events.len() < RING_CAPACITY {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % RING_CAPACITY;
        }
    }

    /// The surviving events in recording order.
    fn drain_in_order(&mut self) -> Vec<TraceEvent> {
        let head = std::mem::take(&mut self.head);
        let mut events = std::mem::take(&mut self.events);
        events.rotate_left(head);
        events
    }
}

impl Drop for ThreadRing {
    fn drop(&mut self) {
        if !self.events.is_empty() {
            if let Ok(mut flushed) = flushed().lock() {
                flushed.append(&mut self.drain_in_order());
            }
        }
    }
}

thread_local! {
    static RING: RefCell<ThreadRing> = RefCell::new(ThreadRing::new());
}

fn with_ring(f: impl FnOnce(&mut ThreadRing)) {
    // Re-entrancy and thread-teardown both surface as a failed access;
    // dropping the event is the correct degradation for telemetry.
    let _ = RING.try_with(|ring| {
        if let Ok(mut ring) = ring.try_borrow_mut() {
            f(&mut ring);
        }
    });
}

/// Records a point event. No-op (one relaxed load) when the trace
/// layer is disabled.
#[inline]
pub fn point(name: &str, sim_us: Option<u64>, detail: Option<&str>) {
    if !crate::trace_enabled() {
        return;
    }
    with_ring(|ring| {
        ring.push(EventKind::Point, name, 0, sim_us, detail.map(str::to_string))
    });
}

/// Records a point event whose detail is built lazily: the closure
/// only runs when the trace layer is enabled, so a formatting/allocating
/// detail costs nothing on the disabled path.
#[inline]
pub fn point_with(name: &str, sim_us: Option<u64>, detail: impl FnOnce() -> String) {
    if !crate::trace_enabled() {
        return;
    }
    let detail = detail();
    with_ring(|ring| ring.push(EventKind::Point, name, 0, sim_us, Some(detail)));
}

/// An open span; dropping it records the matching end event. Inert
/// (`None` inside, nothing recorded) when the layer is disabled.
pub struct Span {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    id: u64,
    /// Sim-clock end stamp, settable while the span is open.
    end_sim_us: Option<u64>,
}

impl Span {
    /// Annotates the eventual end event with a sim-clock reading (e.g.
    /// the campaign clock after the unit finished).
    pub fn end_sim_us(&mut self, sim_us: u64) {
        if let Some(open) = &mut self.open {
            open.end_sim_us = Some(sim_us);
        }
    }

    /// The span's id (`None` when the layer was disabled at open).
    /// This is what [`crate::ctx::set_parent`] is fed so events on the
    /// far side of a thread hand-off can point back here.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|open| open.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            with_ring(|ring| {
                ring.push(EventKind::End, open.name, open.id, open.end_sim_us, None)
            });
        }
    }
}

/// Opens a span. One relaxed load and a branch when disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_at(name, None, None)
}

/// Opens a span with a sim-clock start stamp and/or a detail string.
///
/// The detail is evaluated by the **caller**, enabled or not — library
/// hot paths must use [`span_with`] instead so the allocation only
/// happens when the layer is on (enforced by the `check_no_cloning.sh`
/// trace-hot-path gate).
pub fn span_at(name: &'static str, sim_us: Option<u64>, detail: Option<String>) -> Span {
    if !crate::trace_enabled() {
        return Span { open: None };
    }
    let id = next_span_id();
    with_ring(|ring| ring.push(EventKind::Start, name, id, sim_us, detail));
    Span { open: Some(OpenSpan { name, id, end_sim_us: None }) }
}

/// Opens a span whose detail is built lazily: the closure only runs
/// when the trace layer is enabled. One relaxed load and a branch when
/// disabled — no formatting, no allocation.
#[inline]
pub fn span_with(name: &'static str, sim_us: Option<u64>, detail: impl FnOnce() -> String) -> Span {
    if !crate::trace_enabled() {
        return Span { open: None };
    }
    let id = next_span_id();
    let detail = detail();
    with_ring(|ring| ring.push(EventKind::Start, name, id, sim_us, Some(detail)));
    Span { open: Some(OpenSpan { name, id, end_sim_us: None }) }
}

/// Removes and returns every recorded event: the exited threads' rings
/// (flush order) followed by the calling thread's own ring, then sorted
/// by wall time (ties by thread then seq). Call after worker threads
/// have joined; live foreign threads' rings are not visible.
pub fn drain() -> Vec<TraceEvent> {
    let mut events = {
        let mut flushed = flushed().lock().expect("trace flush list poisoned");
        std::mem::take(&mut *flushed)
    };
    with_ring(|ring| events.append(&mut ring.drain_in_order()));
    events.sort_by_key(|e| (e.wall_ns, e.thread, e.seq));
    events
}

/// Serialises events to the JSONL schema, one event per line, keys in
/// canonical order. [`parse_jsonl`] inverts this byte-exactly.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str("{\"ev\":\"");
        out.push_str(e.kind.label());
        out.push_str("\",\"name\":\"");
        escape_into(&e.name, &mut out);
        let _ = write!(
            out,
            "\",\"span\":{},\"thread\":{},\"seq\":{},\"wall_ns\":{}",
            e.span, e.thread, e.seq, e.wall_ns
        );
        if let Some(sim_us) = e.sim_us {
            let _ = write!(out, ",\"sim_us\":{sim_us}");
        }
        if let Some(req) = e.req {
            let _ = write!(out, ",\"req\":{req}");
        }
        if let Some(parent) = e.parent {
            let _ = write!(out, ",\"parent\":{parent}");
        }
        if let Some(detail) = &e.detail {
            out.push_str(",\"detail\":\"");
            escape_into(detail, &mut out);
            out.push('"');
        }
        out.push_str("}\n");
    }
    out
}

/// Drains every recorded event and serialises it — the `--trace-out`
/// export.
pub fn export_jsonl() -> String {
    to_jsonl(&drain())
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("bad codepoint {code}"))?);
            }
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

/// Parses one JSONL trace document (the inverse of [`to_jsonl`]).
/// Tolerates any key order; rejects unknown keys, missing required
/// keys, and malformed JSON, with the offending line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(
            parse_line(line).map_err(|e| format!("trace line {}: {e}", i + 1))?,
        );
    }
    Ok(events)
}

fn parse_line(line: &str) -> Result<TraceEvent, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut ev = None;
    let mut name = None;
    let mut span = None;
    let mut thread = None;
    let mut seq = None;
    let mut wall_ns = None;
    let mut sim_us = None;
    let mut req = None;
    let mut parent = None;
    let mut detail = None;

    let mut rest = body;
    while !rest.is_empty() {
        rest = rest.trim_start_matches(',');
        let (key, after_key) = take_string(rest)?;
        let after_colon = after_key.strip_prefix(':').ok_or("expected ':'")?;
        let value_rest = match key.as_str() {
            "ev" | "name" | "detail" => {
                let (value, r) = take_string(after_colon)?;
                match key.as_str() {
                    "ev" => {
                        ev = Some(match value.as_str() {
                            "start" => EventKind::Start,
                            "end" => EventKind::End,
                            "point" => EventKind::Point,
                            other => return Err(format!("unknown ev {other:?}")),
                        })
                    }
                    "name" => name = Some(value),
                    _ => detail = Some(value),
                }
                r
            }
            "span" | "thread" | "seq" | "wall_ns" | "sim_us" | "req" | "parent" => {
                let digits_len = after_colon.bytes().take_while(u8::is_ascii_digit).count();
                if digits_len == 0 {
                    return Err(format!("expected number for {key}"));
                }
                let value: u64 = after_colon[..digits_len]
                    .parse()
                    .map_err(|_| format!("number overflow in {key}"))?;
                match key.as_str() {
                    "span" => span = Some(value),
                    "thread" => thread = Some(value),
                    "seq" => seq = Some(value),
                    "wall_ns" => wall_ns = Some(value),
                    "sim_us" => sim_us = Some(value),
                    "req" => req = Some(value),
                    _ => parent = Some(value),
                }
                &after_colon[digits_len..]
            }
            other => return Err(format!("unknown key {other:?}")),
        };
        rest = value_rest;
    }

    Ok(TraceEvent {
        kind: ev.ok_or("missing ev")?,
        name: name.ok_or("missing name")?,
        span: span.ok_or("missing span")?,
        thread: thread.ok_or("missing thread")?,
        seq: seq.ok_or("missing seq")?,
        wall_ns: wall_ns.ok_or("missing wall_ns")?,
        sim_us,
        req,
        parent,
        detail,
    })
}

/// Consumes a leading JSON string, returning (unescaped, rest).
fn take_string(s: &str) -> Result<(String, &str), String> {
    let inner = s.strip_prefix('"').ok_or("expected '\"'")?;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Ok((unescape(&inner[..i])?, &inner[i + 1..]));
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace tests mutate the one global layer switch and drain the one
    /// global flush list, so they serialise on this lock.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = serial();
        crate::disable(crate::TRACE);
        drop(drain());
        point("test.noop", None, None);
        drop(span("test.noop.span"));
        assert!(drain().is_empty());
    }

    #[test]
    fn span_links_start_to_end_and_worker_rings_flush() {
        let _guard = serial();
        crate::enable(crate::TRACE);
        drop(drain());
        {
            let mut s = span_at("test.unit", Some(0), Some("label".into()));
            s.end_sim_us(600);
            point("test.point", Some(250), None);
        }
        std::thread::spawn(|| point("test.worker", None, Some("w")))
            .join()
            .expect("worker");
        let events = drain();
        crate::disable(crate::TRACE);
        assert_eq!(events.len(), 4);
        let start = events.iter().find(|e| e.kind == EventKind::Start).expect("start");
        let end = events.iter().find(|e| e.kind == EventKind::End).expect("end");
        assert_eq!(start.name, "test.unit");
        assert_eq!(start.detail.as_deref(), Some("label"));
        assert_eq!(start.sim_us, Some(0));
        assert_eq!(end.span, start.span);
        assert_eq!(end.sim_us, Some(600));
        assert!(end.wall_ns >= start.wall_ns);
        assert!(events.iter().any(|e| e.name == "test.worker"));
        assert!(drain().is_empty(), "drain consumes");
    }

    #[test]
    fn jsonl_roundtrip_is_byte_identical() {
        let events = vec![
            TraceEvent {
                kind: EventKind::Start,
                name: "fleet.unit".into(),
                span: 3,
                thread: 1,
                seq: 0,
                wall_ns: 1200,
                sim_us: None,
                req: None,
                parent: None,
                detail: Some("Chrome crawl \"quoted\" \\ tab\t".into()),
            },
            TraceEvent {
                kind: EventKind::End,
                name: "fleet.unit".into(),
                span: 3,
                thread: 1,
                seq: 9,
                wall_ns: 91_200,
                sim_us: Some(600_000_000),
                req: None,
                parent: None,
                detail: None,
            },
            TraceEvent {
                kind: EventKind::Point,
                name: "progress".into(),
                span: 0,
                thread: 0,
                seq: 42,
                wall_ns: 7,
                sim_us: Some(0),
                req: None,
                parent: None,
                detail: Some("newline\nand control\u{1}".into()),
            },
            TraceEvent {
                kind: EventKind::Start,
                name: "serve.unit".into(),
                span: 7,
                thread: 2,
                seq: 0,
                wall_ns: 2400,
                sim_us: None,
                req: Some(3),
                parent: Some(5),
                detail: Some("study-1 crawl".into()),
            },
        ];
        let jsonl = to_jsonl(&events);
        let parsed = parse_jsonl(&jsonl).expect("parses");
        assert_eq!(parsed, events);
        assert_eq!(to_jsonl(&parsed), jsonl, "re-emit must be byte-identical");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"ev\":\"start\"}").is_err(), "missing keys");
        assert!(
            parse_jsonl(
                "{\"ev\":\"warp\",\"name\":\"x\",\"span\":0,\"thread\":0,\"seq\":0,\"wall_ns\":0}"
            )
            .is_err(),
            "unknown kind"
        );
        assert!(
            parse_jsonl(
                "{\"ev\":\"point\",\"name\":\"x\",\"span\":0,\"thread\":0,\"seq\":0,\"wall_ns\":0,\"bogus\":1}"
            )
            .is_err(),
            "unknown key"
        );
    }

    #[test]
    fn installed_ctx_stamps_request_and_parent_across_threads() {
        let _guard = serial();
        crate::enable(crate::TRACE);
        drop(drain());

        let root_id;
        {
            let _ctx = crate::ctx::enter(crate::ctx::TraceCtx { request: 77, parent_span: 0 });
            let root = span("test.request");
            root_id = root.id().expect("enabled span has an id");
            crate::ctx::set_parent(root_id);
            point("test.annotation", None, None);

            // The explicit hand-off: capture, ship, re-enter.
            let handed = crate::ctx::current().expect("ctx installed");
            std::thread::spawn(move || {
                let _g = crate::ctx::enter(handed);
                drop(span("test.unit"));
            })
            .join()
            .expect("worker");
        }
        let events = drain();
        crate::disable(crate::TRACE);

        assert!(events.iter().all(|e| e.req == Some(77)), "every event carries the request");
        let root_start = events
            .iter()
            .find(|e| e.name == "test.request" && e.kind == EventKind::Start)
            .expect("root start");
        assert_eq!(root_start.parent, None, "root opened before set_parent");
        let root_end = events
            .iter()
            .find(|e| e.name == "test.request" && e.kind == EventKind::End)
            .expect("root end");
        assert_eq!(root_end.parent, None, "a span never parents itself");
        let annotation = events.iter().find(|e| e.name == "test.annotation").expect("point");
        assert_eq!(annotation.parent, Some(root_id));
        let unit_start = events
            .iter()
            .find(|e| e.name == "test.unit" && e.kind == EventKind::Start)
            .expect("unit start");
        assert_eq!(unit_start.parent, Some(root_id), "hand-off preserves the parent span");
    }

    #[test]
    fn ring_overwrites_oldest_but_keeps_seq() {
        let mut ring = ThreadRing::new();
        for i in 0..(RING_CAPACITY + 10) {
            ring.push(EventKind::Point, "spin", 0, Some(i as u64), None);
        }
        let events = ring.drain_in_order();
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(events.first().map(|e| e.seq), Some(10));
        assert_eq!(events.last().map(|e| e.seq), Some((RING_CAPACITY + 10 - 1) as u64));
        // In order despite the wrap.
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }
}
