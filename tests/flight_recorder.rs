//! Flight recorder + watchdog, exercised through the real study
//! engine: a slow-but-progressing study must never trip the stall
//! detector, while a genuinely wedged lane (a stream writer that stops
//! accepting events) must produce exactly one doctor-readable
//! post-mortem and leave the engine healthy once unwedged.

use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use panoptes_bench::incognito::IncognitoPlan;
use panoptes_browsers::registry::population;
use panoptes_serve::{doctor, json};
use panoptes_serve::flightrec::Watchdog;
use panoptes_serve::study::{EventSink, RequestInfo, StudyEngine, StudyParams};

fn params(seed: u64) -> StudyParams {
    StudyParams { seed, popular: 6, sensitive: 4, tail: 0, population: 5, idle_secs: 60 }
}

/// The units a study at `p` schedules: a crawl and an idle run per
/// browser plus the §3.2 plan's units.
fn planned_units(p: &StudyParams) -> u64 {
    let profiles = population(p.seed, p.population);
    (2 * p.population + IncognitoPlan::new(&profiles).unit_count()) as u64
}

/// `(done, total)` of a `progress` event line.
fn progress_of(line: &str) -> Option<(u64, u64)> {
    if json::field(line, "event").as_deref() != Some("progress") {
        return None;
    }
    Some((json::uint_field(line, "done")?, json::uint_field(line, "total")?))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("panoptes-flightrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dump_files(dir: &PathBuf) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("flightrec-")))
        .collect();
    files.sort();
    files
}

/// Delivers every event but takes `delay` to do it — a slow client
/// that nonetheless keeps making progress.
struct SlowSink {
    events: Vec<String>,
    delay: Duration,
}

impl EventSink for SlowSink {
    fn event(&mut self, line: &str) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.events.push(line.to_string());
        Ok(())
    }
}

/// Accepts `open_until` events, then blocks inside `event` until the
/// gate opens — the classic wedged-stream shape (a peer that stopped
/// reading), which stalls the lane without any progress signal.
struct GatedSink {
    events: Vec<String>,
    open_until: usize,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl EventSink for GatedSink {
    fn event(&mut self, line: &str) -> io::Result<()> {
        if self.events.len() >= self.open_until {
            let (lock, cvar) = &*self.gate;
            let mut open = lock.lock().expect("gate lock");
            while !*open {
                open = cvar.wait(open).expect("gate wait");
            }
        }
        self.events.push(line.to_string());
        Ok(())
    }
}

#[test]
fn watchdog_lets_a_slow_but_progressing_study_finish_undisturbed() {
    let dir = fresh_dir("progressing");
    let engine = StudyEngine::new(2, None);
    // Deadline far below the study's total wall time: ~25 events at
    // 100ms each, so only per-event liveness keeps the watchdog quiet.
    let watchdog = Watchdog::spawn(
        Arc::clone(engine.recorder()),
        Duration::from_millis(500),
        dir.clone(),
        Box::new(|| "test-snapshot".to_string()),
    );

    let mut sink = SlowSink { events: Vec::new(), delay: Duration::from_millis(100) };
    let started = Instant::now();
    let outcome =
        engine.run_streaming(&params(0xF11), &mut sink, RequestInfo::local()).expect("study runs");
    assert!(outcome.bytes > 0);
    assert!(
        started.elapsed() > Duration::from_millis(1_000),
        "sink was not slow enough to prove anything"
    );
    // Give the watchdog a couple of ticks to (wrongly) notice, then stop.
    std::thread::sleep(Duration::from_millis(400));
    watchdog.stop();

    assert!(
        dump_files(&dir).is_empty(),
        "watchdog false-positive: dumped a study that was making progress"
    );
    assert!(sink.events.iter().any(|l| l.contains("\"event\":\"done\"")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn finished_studies_end_with_every_planned_unit_done() {
    let engine = StudyEngine::new(2, Some(64 << 20));
    let p = params(0xF12);
    let planned = planned_units(&p);
    // Built, then replayed from the document cache (which plans no
    // units): each ends with done == total, on the stream and in the
    // recorder's `study.done` event.
    for (label, units) in [("built", planned), ("replay", 0)] {
        let req = RequestInfo::local();
        let mut events: Vec<String> = Vec::new();
        engine.run_streaming(&p, &mut events, req).expect("study runs");
        let last = events.iter().rev().find_map(|l| progress_of(l));
        if units > 0 {
            assert_eq!(last, Some((units, units)), "{label}: stream ends with done == total");
        } else {
            assert_eq!(last, None, "{label}: a replay streams no unit progress");
        }
        let dump = doctor::parse_flight_dump(&engine.recorder().dump_to_string("check", ""))
            .expect("doctor parses the recorder");
        let (_, _, _, detail) = dump
            .events
            .iter()
            .find(|(_, r, kind, _)| *r == req.id && kind == "study.done")
            .expect("study.done recorded");
        assert!(
            detail.ends_with(&format!(" units={units}/{units}")),
            "{label}: recorder ends with done == total: {detail}"
        );
    }
}

#[test]
fn watchdog_dumps_a_wedged_lane_once_and_recovers() {
    let dir = fresh_dir("wedged");
    let engine = Arc::new(StudyEngine::new(2, None));
    let watchdog = Watchdog::spawn(
        Arc::clone(engine.recorder()),
        Duration::from_millis(200),
        dir.clone(),
        Box::new(|| "lanes=test".to_string()),
    );

    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let req = RequestInfo::local();
    let wedged_request = req.id;
    let worker = {
        let engine = Arc::clone(&engine);
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            let mut sink = GatedSink { events: Vec::new(), open_until: 1, gate };
            let outcome = engine.run_streaming(&params(0xDEAD), &mut sink, req);
            (sink.events, outcome)
        })
    };

    // The wedged lane must produce a post-mortem within a few deadlines.
    let poll_deadline = Instant::now() + Duration::from_secs(20);
    let dump_path = loop {
        if let Some(path) = dump_files(&dir).into_iter().next() {
            break path;
        }
        assert!(Instant::now() < poll_deadline, "watchdog never dumped the wedged study");
        std::thread::sleep(Duration::from_millis(25));
    };

    let text = std::fs::read_to_string(&dump_path).expect("read post-mortem");
    assert!(doctor::is_flight_dump(&text), "post-mortem is not in flight-dump format");
    let dump = doctor::parse_flight_dump(&text).expect("doctor parses the post-mortem");
    assert!(dump.reason.contains("watchdog"), "reason names the watchdog: {}", dump.reason);
    assert!(dump.reason.contains(&wedged_request.to_string()), "reason names the request");
    assert_eq!(dump.snapshot, "lanes=test", "dump carries the server snapshot line");
    let study = dump
        .studies
        .iter()
        .find(|s| s.request == wedged_request)
        .expect("wedged study is in the dump");
    assert_eq!(study.total, planned_units(&params(0xDEAD)), "dump shows the planned total");
    assert!(study.done < study.total, "dump shows partial progress");
    assert!(
        dump.events.iter().any(|(_, r, kind, _)| *r == wedged_request && kind == "study.start"),
        "ring retains the study's start event"
    );

    // Unwedge: the study completes normally and the stall is never
    // re-dumped (once-per-study flag).
    {
        let (lock, cvar) = &*gate;
        *lock.lock().expect("gate lock") = true;
        cvar.notify_all();
    }
    let (events, outcome) = worker.join().expect("wedged worker joins");
    outcome.expect("study completes after the stall clears");
    assert!(events.iter().any(|l| l.contains("\"event\":\"done\"")));

    std::thread::sleep(Duration::from_millis(600));
    watchdog.stop();
    assert_eq!(dump_files(&dir).len(), 1, "a wedged study is dumped exactly once");
    assert!(
        engine.recorder().take_stalled(Duration::from_millis(0)).is_empty(),
        "no study remains registered after completion"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
