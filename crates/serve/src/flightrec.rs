//! The flight recorder: an always-on bounded ring of recent annotated
//! serve events, an active-study registry, and a watchdog that dumps a
//! post-mortem when a study stops making progress.
//!
//! The trace layer answers "what happened?" *when someone asked for a
//! trace*. The flight recorder answers "what was the server doing just
//! now?" **always**: every request lifecycle transition (accepted,
//! rejected, build started, replayed, finished, errored, disconnected)
//! is appended to a fixed-capacity ring — old events are dropped, never
//! reallocated — so a dump at any moment shows the recent past at a
//! cost of one short mutex hold per event.
//!
//! Three things trigger a dump:
//!
//! * the **watchdog** thread ([`Watchdog`]): a study whose
//!   `last_progress` is older than the configured deadline is declared
//!   stalled, and the ring + active-study table + a caller-supplied
//!   lane/queue/cache snapshot go to a timestamped file in the
//!   flight-recorder directory (once per stalled study — a wedged lane
//!   does not spam a dump per tick);
//! * a **panic** anywhere in the process, via the chained hook
//!   installed by [`install_panic_hook`];
//! * an explicit [`FlightRecorder::dump_to_file`] call (tests, future
//!   admin endpoints).
//!
//! # Dump format
//!
//! JSONL, `panoptes-doctor`-readable: one `flightmeta` line (reason,
//! dump time, server snapshot), one `study` line per active study, then
//! the ring's `flight` lines oldest-first:
//!
//! ```json
//! {"ev":"flightmeta","reason":"watchdog: request 3 stalled","at_ms":9071,"active":1,"snapshot":"lanes=1 queued=4 ..."}
//! {"ev":"study","request":3,"params":"--seed 0x51 ...","started_ms":871,"last_progress_ms":1204,"done":2,"total":14,"stalled":true}
//! {"ev":"flight","t_ms":870,"request":3,"kind":"request.accepted","detail":"--seed 0x51 ..."}
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json;

/// Ring capacity: enough for the full lifecycle of hundreds of recent
/// requests, small enough that a dump is instant.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One annotated event in the ring.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Milliseconds since the recorder was created.
    pub t_ms: u64,
    /// The request the event belongs to (0 = server-wide).
    pub request: u64,
    /// Lifecycle kind (`request.accepted`, `study.done`, …).
    pub kind: &'static str,
    /// Free-form annotation (params, error, byte counts, …).
    pub detail: String,
}

/// One registered in-flight study.
#[derive(Debug, Clone)]
struct ActiveStudy {
    params: String,
    started_ms: u64,
    last_progress_ms: u64,
    done: usize,
    total: usize,
    /// Already dumped by the watchdog: suppresses repeat dumps while
    /// the same study stays wedged.
    dumped: bool,
}

/// A stalled study the watchdog found, with what the dump needs.
#[derive(Debug, Clone)]
pub struct StalledStudy {
    /// The stalled request's id.
    pub request: u64,
    /// Its parameters, for the dump reason line.
    pub params: String,
    /// Milliseconds since the study last made progress.
    pub stalled_ms: u64,
}

struct RecInner {
    ring: VecDeque<FlightEvent>,
    active: HashMap<u64, ActiveStudy>,
    /// Events the ring has dropped (capacity overflow), for honesty in
    /// dumps.
    dropped: u64,
}

/// The always-on bounded recorder. One per server, shared by every
/// connection handler; all methods are cheap enough for the request
/// hot path (one short mutex hold, one `String`).
pub struct FlightRecorder {
    start: Instant,
    capacity: usize,
    inner: Mutex<RecInner>,
    dump_seq: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_RING_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            start: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(RecInner {
                ring: VecDeque::with_capacity(capacity.max(1)),
                active: HashMap::new(),
                dropped: 0,
            }),
            dump_seq: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Appends one annotated event to the ring.
    pub fn record(&self, request: u64, kind: &'static str, detail: String) {
        let t_ms = self.now_ms();
        let mut inner = self.inner.lock().expect("flightrec lock");
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(FlightEvent {
            t_ms,
            request,
            kind,
            detail,
        });
    }

    /// Registers a study as in flight (and records the event). Progress
    /// starts "now": a study is not stalled while it queues its units.
    pub fn study_started(&self, request: u64, params: String, total_units: usize) {
        let t_ms = self.now_ms();
        let mut inner = self.inner.lock().expect("flightrec lock");
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(FlightEvent {
            t_ms,
            request,
            kind: "study.start",
            detail: params.clone(),
        });
        inner.active.insert(
            request,
            ActiveStudy {
                params,
                started_ms: t_ms,
                last_progress_ms: t_ms,
                done: 0,
                total: total_units,
                dumped: false,
            },
        );
    }

    /// Bumps a study's progress clock (a unit completed, an event was
    /// streamed — any sign of life the watchdog should honour).
    pub fn study_progress(&self, request: u64, done: usize, total: usize) {
        let t_ms = self.now_ms();
        let mut inner = self.inner.lock().expect("flightrec lock");
        if let Some(study) = inner.active.get_mut(&request) {
            study.last_progress_ms = t_ms;
            study.done = done;
            study.total = total;
        }
    }

    /// Bumps only the progress clock — a successful event write proves
    /// the study is alive even when its unit counter hasn't moved.
    pub fn touch(&self, request: u64) {
        let t_ms = self.now_ms();
        let mut inner = self.inner.lock().expect("flightrec lock");
        if let Some(study) = inner.active.get_mut(&request) {
            study.last_progress_ms = t_ms;
        }
    }

    /// Deregisters a study and records how it ended
    /// (`study.done` / `study.error` / `study.disconnect`), with its
    /// final unit progress appended to `detail` as `units=DONE/TOTAL`.
    pub fn study_finished(&self, request: u64, kind: &'static str, mut detail: String) {
        let t_ms = self.now_ms();
        let mut inner = self.inner.lock().expect("flightrec lock");
        if let Some(study) = inner.active.remove(&request) {
            detail.push_str(&format!(" units={}/{}", study.done, study.total));
        }
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(FlightEvent {
            t_ms,
            request,
            kind,
            detail,
        });
    }

    /// Studies whose last progress is older than `deadline`, each
    /// marked dumped so one wedge produces one dump.
    pub fn take_stalled(&self, deadline: Duration) -> Vec<StalledStudy> {
        let now = self.now_ms();
        let deadline_ms = deadline.as_millis() as u64;
        let mut inner = self.inner.lock().expect("flightrec lock");
        let mut stalled = Vec::new();
        for (&request, study) in inner.active.iter_mut() {
            let idle_ms = now.saturating_sub(study.last_progress_ms);
            if !study.dumped && idle_ms > deadline_ms {
                study.dumped = true;
                stalled.push(StalledStudy {
                    request,
                    params: study.params.clone(),
                    stalled_ms: idle_ms,
                });
            }
        }
        stalled.sort_by_key(|s| s.request);
        stalled
    }

    /// Serialises the full post-mortem (meta + active studies + ring)
    /// in the doctor-readable JSONL format.
    pub fn dump_to_string(&self, reason: &str, snapshot: &str) -> String {
        let now = self.now_ms();
        let inner = self.inner.lock().expect("flightrec lock");
        let mut out = String::with_capacity(256 + inner.ring.len() * 96);
        let _ = writeln!(
            out,
            "{{\"ev\":\"flightmeta\",\"reason\":{},\"at_ms\":{now},\"active\":{},\"dropped\":{},\"snapshot\":{}}}",
            json::quoted(reason),
            inner.active.len(),
            inner.dropped,
            json::quoted(snapshot),
        );
        let mut requests: Vec<&u64> = inner.active.keys().collect();
        requests.sort();
        for request in requests {
            let study = &inner.active[request];
            let _ = writeln!(
                out,
                "{{\"ev\":\"study\",\"request\":{request},\"params\":{},\"started_ms\":{},\"last_progress_ms\":{},\"done\":{},\"total\":{},\"stalled\":{}}}",
                json::quoted(&study.params),
                study.started_ms,
                study.last_progress_ms,
                study.done,
                study.total,
                study.dumped,
            );
        }
        for e in &inner.ring {
            let _ = writeln!(
                out,
                "{{\"ev\":\"flight\",\"t_ms\":{},\"request\":{},\"kind\":{},\"detail\":{}}}",
                e.t_ms,
                e.request,
                json::quoted(e.kind),
                json::quoted(&e.detail),
            );
        }
        out
    }

    /// Writes the post-mortem to a uniquely named file under `dir`
    /// (`flightrec-<pid>-<seq>.jsonl`), creating the directory if
    /// needed. Returns the path written.
    pub fn dump_to_file(
        &self,
        dir: &Path,
        reason: &str,
        snapshot: &str,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flightrec-{}-{seq}.jsonl", std::process::id()));
        std::fs::write(&path, self.dump_to_string(reason, snapshot))?;
        Ok(path)
    }
}

/// The stall detector: wakes every fraction of the deadline, asks the
/// recorder for studies past it, and writes one post-mortem per newly
/// stalled study. Holds only a snapshot closure (not the engine), so
/// stopping the server never deadlocks on the watchdog.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the watchdog thread. `snapshot` is called at dump time to
    /// capture the server's lane/queue/cache state as one line.
    pub fn spawn(
        recorder: Arc<FlightRecorder>,
        deadline: Duration,
        dir: PathBuf,
        snapshot: Box<dyn Fn() -> String + Send>,
    ) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let tick = (deadline / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
        let thread = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                for stalled in recorder.take_stalled(deadline) {
                    let reason = format!(
                        "watchdog: request {} made no progress for {}ms ({})",
                        stalled.request, stalled.stalled_ms, stalled.params
                    );
                    recorder.record(stalled.request, "watchdog.stalled", reason.clone());
                    panoptes_obs::count!("serve.watchdog.stalls", Runtime);
                    match recorder.dump_to_file(&dir, &reason, &snapshot()) {
                        Ok(path) => panoptes_obs::progress::emit(
                            "watchdog",
                            &format!("{reason}; post-mortem at {}", path.display()),
                        ),
                        Err(e) => panoptes_obs::progress::emit(
                            "watchdog",
                            &format!("{reason}; post-mortem write FAILED: {e}"),
                        ),
                    }
                }
            }
        });
        Watchdog {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops and joins the watchdog thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A recorder registered for panic-time dumps (weak: the hook must not
/// keep a stopped server's state alive) and its dump directory.
type PanicEntry = (Weak<FlightRecorder>, PathBuf);

fn panic_registry() -> &'static Mutex<Vec<PanicEntry>> {
    static REGISTRY: OnceLock<Mutex<Vec<PanicEntry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers `recorder` for a panic-time post-mortem into `dir` and
/// installs the process-wide chained panic hook (once; subsequent calls
/// only extend the registry). On panic, every still-live registered
/// recorder dumps, then the previous hook runs (so the usual backtrace
/// still prints).
pub fn install_panic_hook(recorder: &Arc<FlightRecorder>, dir: PathBuf) {
    panic_registry()
        .lock()
        .expect("panic registry lock")
        .push((Arc::downgrade(recorder), dir));
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reason = format!("panic: {info}");
            if let Ok(registry) = panic_registry().lock() {
                for (recorder, dir) in registry.iter() {
                    if let Some(recorder) = recorder.upgrade() {
                        let _ = recorder.dump_to_file(dir, &reason, "panic: no snapshot");
                    }
                }
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_reports_drops() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(i, "request.accepted", format!("r{i}"));
        }
        let dump = rec.dump_to_string("test", "lanes=0");
        assert_eq!(dump.matches("\"ev\":\"flight\"").count(), 4, "ring keeps 4");
        assert!(dump.contains("\"dropped\":6"));
        assert!(dump.contains("\"detail\":\"r9\""), "newest survives");
        assert!(!dump.contains("\"detail\":\"r0\""), "oldest dropped");
    }

    #[test]
    fn dump_lists_active_studies_and_meta() {
        let rec = FlightRecorder::new(16);
        rec.study_started(3, "--seed 0x51".into(), 14);
        rec.study_progress(3, 2, 14);
        let dump = rec.dump_to_string("why \"quoted\"", "lanes=1 queued=4");
        let meta = dump.lines().next().expect("meta line");
        assert!(meta.contains("\"ev\":\"flightmeta\""));
        assert!(meta.contains("\"reason\":\"why \\\"quoted\\\"\""));
        assert!(meta.contains("\"snapshot\":\"lanes=1 queued=4\""));
        assert!(dump.contains("\"ev\":\"study\",\"request\":3"));
        assert!(dump.contains("\"done\":2,\"total\":14"));
        rec.study_finished(3, "study.done", "ok".into());
        let after = rec.dump_to_string("again", "lanes=0");
        assert!(after.contains("\"detail\":\"ok units=2/14\""), "final progress recorded");
        assert!(
            !after.contains("\"ev\":\"study\""),
            "finished study deregisters"
        );
    }

    #[test]
    fn take_stalled_fires_once_per_study_and_spares_fresh_progress() {
        let rec = FlightRecorder::new(16);
        rec.study_started(1, "wedged".into(), 4);
        rec.study_started(2, "alive".into(), 4);
        std::thread::sleep(Duration::from_millis(30));
        rec.study_progress(2, 1, 4);
        let stalled = rec.take_stalled(Duration::from_millis(20));
        assert_eq!(stalled.len(), 1);
        assert_eq!(stalled[0].request, 1);
        assert!(stalled[0].stalled_ms >= 20);
        assert!(
            rec.take_stalled(Duration::from_millis(20)).is_empty(),
            "a wedged study dumps once, not once per tick"
        );
    }
}
