//! The served workload, `serve-cold`: five fresh study servers per run,
//! every request a study seed not seen before; a closed loop on each
//! server to find the throughput, an open loop on each at two thirds of
//! the median throughput, and a check of every served document against
//! the offline render. Each figure is a median over the servers (or
//! over windows of their requests), so one disturbed stretch of the run
//! does not move it.
//!
//! Load comes from this process over loopback with at most `nproc`
//! threads and at most one connection per thread. Open-loop latencies
//! are timed from each request's *due* time on the seeded arrival
//! schedule, so a request that waits for a free connection is charged
//! for the wait (no coordinated omission); how late the generator sent
//! is reported on its own as `serve.gen_lag_ms_p95`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use panoptes::fleet::{self, FleetOptions};
use panoptes_http::json::{self, Value};
use panoptes_obs::metrics;
use panoptes_serve::client;
use panoptes_serve::doctor::Timing;
use panoptes_serve::json as sjson;
use panoptes_serve::study::StudyParams;

use crate::layers::{self, Layers, StudyCounts};
use crate::offline::{self, Shape};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{alloc, die, fnv1a, host, nproc, numbers, object, Args};

/// Seed of the set-up study that warms the seed-independent artifacts.
const SENTINEL_SEED: u64 = 0x5e47_1e00;
/// Open-loop requests per run, at least (ten beyond the p95).
const MIN_OPEN_LOOP: usize = 200;
/// Requests per loop phase, at most (each is one loopback connection).
const MAX_REQUESTS: usize = 20_000;
/// Requests per statistics window, at least; a phase is split into up
/// to five windows and reports the median over them.
const MIN_WINDOW: usize = 200;
/// Closed-loop requests per server instance, at least.
const MIN_CLOSED_LOOP: usize = 30;
/// Open-loop rate as a share of the closed-loop throughput.
const LOAD: f64 = 2.0 / 3.0;
/// Open-loop arrival jitter, as a share of the spacing either way.
const JITTER: f64 = 0.1;
/// The latency limit `slo_frac` counts against, about 3× the p50.
const SLO_MS: f64 = 250.0;

/// The study every request asks for, at `seed`: `bench_serve`'s shape.
fn params(seed: u64) -> StudyParams {
    StudyParams {
        seed,
        popular: 8,
        sensitive: 5,
        tail: 0,
        population: 6,
        idle_secs: 60,
    }
}

fn query(seed: u64) -> String {
    let p = params(seed);
    format!(
        "/study?seed={:#x}&popular={}&sensitive={}&population={}&idle={}",
        p.seed, p.popular, p.sensitive, p.population, p.idle_secs
    )
}

/// SplitMix64: the seeded stream behind study seeds and arrivals.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A study server in a child process of this binary (`perfbench
/// server`); it exits when its stdin closes, so it cannot outlive us.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn spawn() -> io::Result<Server> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg("server")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut line = String::new();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("no server stdout"))?;
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad server banner {line:?}")));
        match addr {
            Ok(addr) => Ok(Server { child, addr }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// User + system CPU seconds of the server process so far.
    fn cpu_s(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields overall, in clock ticks (100/s).
        let rest = stat.rsplit(')').next().unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        (ticks(11) + ticks(12)) as f64 / 100.0
    }

    /// Peak resident set of the server process, MiB.
    fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// The server's `/metrics` counters and gauge levels by name.
    fn metrics(&self) -> HashMap<String, f64> {
        let body = client::get(self.addr, "/metrics")
            .map(|(_, body)| body)
            .unwrap_or_default();
        let mut out = HashMap::new();
        for line in body.lines() {
            let mut parts = line.split_whitespace();
            let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
                continue;
            };
            let value = value.strip_prefix("level=").unwrap_or(value);
            if let Ok(v) = value.parse::<f64>() {
                out.insert(name.to_string(), v);
            }
        }
        out
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request's outcome, timed from its due time.
struct Reply {
    seed: u64,
    due: Instant,
    sent: Instant,
    first: Instant,
    done: Instant,
    digest: u64,
    bytes: usize,
    timing: Option<Timing>,
    error: Option<String>,
}

impl Reply {
    fn ok(&self) -> bool {
        self.error.is_none()
    }

    fn ms(from: Instant, to: Instant) -> f64 {
        to.saturating_duration_since(from).as_secs_f64() * 1e3
    }
}

/// Sends one study request now, on behalf of a request that was due at
/// `due`, and reads the whole stream, reassembling the document.
fn request(addr: SocketAddr, seed: u64, due: Instant) -> Reply {
    let sent = Instant::now();
    let mut reply = Reply {
        seed,
        due,
        sent,
        first: sent,
        done: sent,
        digest: 0,
        bytes: 0,
        timing: None,
        error: None,
    };
    let mut first = None;
    let mut doc = String::new();
    let outcome = (|| -> io::Result<()> {
        let mut stream = client::open_stream(addr, &query(seed))?;
        if stream.status() != 200 {
            return Err(io::Error::other(format!("status {}", stream.status())));
        }
        let mut done = false;
        while let Some(line) = stream.next_event()? {
            first.get_or_insert_with(Instant::now);
            match sjson::field(&line, "event").as_deref() {
                Some("header") | Some("section") => {
                    doc.push_str(&sjson::field(&line, "data").unwrap_or_default());
                }
                Some("timing") => reply.timing = Timing::parse(&line),
                Some("done") => done = true,
                Some("error") => {
                    return Err(io::Error::other(
                        sjson::field(&line, "message").unwrap_or_default(),
                    ));
                }
                _ => {}
            }
        }
        if done {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended without done",
            ))
        }
    })();
    reply.done = Instant::now();
    reply.first = first.unwrap_or(reply.done);
    reply.digest = fnv1a(doc.as_bytes());
    reply.bytes = doc.len();
    reply.error = outcome.err().map(|e| e.to_string());
    reply
}

/// The study seeds of a run, drawn from its `--seed`: the `i`-th
/// measured request asks for a seed no other request of the run uses.
struct Seeds {
    run_seed: u64,
}

impl Seeds {
    fn seed(&self, i: usize) -> u64 {
        splitmix(self.run_seed.rotate_left(17) ^ 0x5eed_0000_0000 ^ i as u64)
    }
}

/// `nproc` clients, each sending its next request when the last one
/// finished, for `duration` (and at least [`MIN_CLOSED_LOOP`]
/// requests). Returns the replies and the phase's wall
/// time (start to last completion).
fn closed_loop(
    addr: SocketAddr,
    seeds: &Seeds,
    next: &AtomicUsize,
    duration: Duration,
    tracer: &Tracer,
    parent: u64,
) -> (Vec<Reply>, f64) {
    let replies = Mutex::new(Vec::new());
    let sent = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + duration;
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| loop {
                let n = sent.fetch_add(1, Ordering::Relaxed);
                if n >= MAX_REQUESTS || (n >= MIN_CLOSED_LOOP && Instant::now() >= end) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let seed = seeds.seed(i);
                let _span = tracer.span("client.request", parent, || format!("{seed:#x}"));
                let reply = request(addr, seed, Instant::now());
                replies
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(reply);
            });
        }
    });
    let replies = replies.into_inner().unwrap_or_else(|p| p.into_inner());
    let last = replies.iter().map(|r| r.done).max().unwrap_or(start);
    (replies, last.duration_since(start).as_secs_f64())
}

/// `n` requests at a fixed `rate`/s with seeded jitter, sent by
/// `nproc` threads, each request at its due time or as soon after it
/// as a thread is free.
fn open_loop(
    addr: SocketAddr,
    seeds: &Seeds,
    next: &AtomicUsize,
    rate: f64,
    n: usize,
    tracer: &Tracer,
    parent: u64,
) -> Vec<Reply> {
    // A fixed rate: request i is due at (i + jitter) / rate, the jitter
    // uniform in ±JITTER of the spacing and seeded.
    let schedule: Vec<(f64, u64)> = (0..n)
        .map(|i| {
            let u = (splitmix(seeds.run_seed ^ 0xa11_0000_0000 ^ i as u64) >> 11) as f64
                / (1u64 << 53) as f64;
            let at = (i as f64 + JITTER * (2.0 * u - 1.0)).max(0.0) / rate;
            (at, seeds.seed(next.fetch_add(1, Ordering::Relaxed)))
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let cursor = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(at, seed)) = schedule.get(i) else {
                    break;
                };
                let due = start + Duration::from_secs_f64(at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let _span = tracer.span("client.request", parent, || format!("{i} {seed:#x}"));
                let reply = request(addr, seed, due);
                replies
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(reply);
            });
        }
    });
    replies.into_inner().unwrap_or_else(|p| p.into_inner())
}

/// Renders every distinct seed's study offline (one study per fleet
/// unit, `nproc` units at a time) and returns each document's
/// `(digest, length)`, plus the counts for the layer metrics.
fn offline_docs(
    seeds: &[u64],
    tracer: &Tracer,
    parent: u64,
) -> (HashMap<u64, (u64, usize)>, StudyCounts) {
    let labels: Vec<String> = seeds.iter().map(|s| format!("{s:#x}")).collect();
    let options = FleetOptions::with_jobs(nproc());
    let span = tracer.span("fleet.verify", parent, || {
        format!(
            "jobs={} units={}",
            options.effective_jobs(labels.len()),
            labels.len()
        )
    });
    let fleet_id = span.id();
    let outs = fleet::execute(&labels, &options, |i| {
        let unit = tracer.span("phase.study", fleet_id, || labels[i].clone());
        let shape = Shape {
            scale: params(seeds[i]).scale(),
            population: 6,
            full: true,
        };
        let out = offline::run(&shape, 1, tracer, unit.id());
        (
            fnv1a(out.doc.as_bytes()),
            out.doc.len(),
            StudyCounts::of(&out),
        )
    })
    .unwrap_or_else(|e| die(&format!("offline reference studies failed: {e}")));
    drop(span);
    let mut total = StudyCounts::default();
    let mut docs = HashMap::new();
    for (seed, (digest, len, counts)) in seeds.iter().zip(outs) {
        docs.insert(*seed, (digest, len));
        total.merge(&counts);
    }
    (docs, total)
}

/// Closed-loop completions per second: the median over windows of
/// completions, each window timed from the previous one's last
/// completion (the first from the phase start).
fn closed_throughput(replies: &[Reply], phase_s: f64) -> f64 {
    let mut done: Vec<&Reply> = replies.iter().filter(|r| r.ok()).collect();
    done.sort_by_key(|r| r.done);
    let Some(first) = replies.iter().map(|r| r.sent).min() else {
        return 0.0;
    };
    if done.len() < 2 * MIN_WINDOW {
        return done.len() as f64 / phase_s.max(1e-9);
    }
    let windows = (done.len() / MIN_WINDOW).clamp(1, 5);
    let size = done.len().div_ceil(windows);
    let mut from = first;
    let mut rates: Vec<f64> = done
        .chunks(size)
        .map(|w| {
            let to = w[w.len() - 1].done;
            let rate = w.len() as f64 / to.duration_since(from).as_secs_f64().max(1e-9);
            from = to;
            rate
        })
        .collect();
    median(&mut rates)
}

fn p(values: impl Iterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.collect();
    quantile(&mut v, q)
}

/// One fresh server's share of a run.
struct Instance {
    server: Server,
    setup_s: f64,
    fresh: bool,
    early: Vec<Reply>,
    closed: Vec<Reply>,
    open: Vec<Reply>,
    /// Open-loop replies of phases measured again because the host
    /// stole CPU meanwhile: checked for correctness, not timed.
    disturbed: Vec<Reply>,
    req_per_s: f64,
    cpu_per_study: f64,
    peak_rss_mib: f64,
    metrics_before: HashMap<String, f64>,
    metrics_after: HashMap<String, f64>,
}

impl Instance {
    /// Spawns a fresh server, times it to its first completed sentinel
    /// study, and checks it served nothing else.
    fn start(tracer: &Tracer, parent: u64) -> Instance {
        let (server, setup_s, sentinel) = {
            let _setup = tracer.span("phase.setup", parent, String::new);
            let spawned = Instant::now();
            let server = Server::spawn().unwrap_or_else(|e| die(&format!("spawn server: {e}")));
            let sentinel = request(server.addr, SENTINEL_SEED, Instant::now());
            (server, spawned.elapsed().as_secs_f64(), sentinel)
        };
        let fresh = server.metrics().get("serve.requests.accepted") == Some(&1.0);
        let early = vec![sentinel];
        let metrics_before = server.metrics();
        Instance {
            server,
            setup_s,
            fresh,
            early,
            closed: Vec::new(),
            open: Vec::new(),
            disturbed: Vec::new(),
            req_per_s: 0.0,
            cpu_per_study: 0.0,
            peak_rss_mib: 0.0,
            metrics_before,
            metrics_after: HashMap::new(),
        }
    }

    /// The closed loop: throughput and server CPU per study.
    fn closed_loop(
        &mut self,
        seeds: &Seeds,
        next: &AtomicUsize,
        duration: Duration,
        tracer: &Tracer,
        parent: u64,
    ) {
        let cpu_before = self.server.cpu_s();
        let phase = tracer.span("phase.closed_loop", parent, String::new);
        let (closed, closed_s) =
            closed_loop(self.server.addr, seeds, next, duration, tracer, phase.id());
        let completed = closed.iter().filter(|r| r.ok()).count();
        self.cpu_per_study = (self.server.cpu_s() - cpu_before) / completed.max(1) as f64;
        self.req_per_s = closed_throughput(&closed, closed_s);
        self.closed = closed;
    }

    /// The open loop of `n` requests at `rate`, then the server's final
    /// counters and peak RSS.
    fn open_loop(
        &mut self,
        seeds: &Seeds,
        next: &AtomicUsize,
        rate: f64,
        n: usize,
        tracer: &Tracer,
        parent: u64,
    ) {
        let phase = tracer.span("phase.open_loop", parent, String::new);
        self.open = open_loop(self.server.addr, seeds, next, rate, n, tracer, phase.id());
        drop(phase);
        self.metrics_after = self.server.metrics();
        self.peak_rss_mib = self.server.peak_rss_mib();
    }
}

/// Open-loop statistics windows: each instance's replies in due order,
/// split into up to five windows of at least [`MIN_WINDOW`]; instances
/// with fewer replies are pooled into one window.
fn windows<'a>(replies: &[Vec<&'a Reply>]) -> Vec<Vec<&'a Reply>> {
    let mut out = Vec::new();
    let mut pool = Vec::new();
    for instance in replies {
        let mut sorted = instance.clone();
        sorted.sort_by_key(|r| r.due);
        if sorted.len() < MIN_WINDOW {
            pool.extend(sorted);
            continue;
        }
        let size = sorted.len().div_ceil((sorted.len() / MIN_WINDOW).min(5));
        out.extend(sorted.chunks(size).map(<[&Reply]>::to_vec));
    }
    if !pool.is_empty() && (out.is_empty() || pool.len() >= MIN_WINDOW) {
        out.push(pool);
    }
    out
}

/// The median over `windows` of the `q`-quantile of `of`.
fn window_quantile(windows: &[Vec<&Reply>], q: f64, of: impl Fn(&Reply) -> f64) -> f64 {
    let mut values: Vec<f64> = windows
        .iter()
        .map(|w| p(w.iter().map(|r| of(r)), q))
        .collect();
    median(&mut values)
}

/// Server instances per run; every instance-level figure is their median.
const INSTANCES: usize = 5;

/// Runs one serve workload and prints its JSON result line.
pub fn cmd_serve_run(args: &Args, start: Instant) {
    let workload = args
        .value("--workload")
        .unwrap_or_else(|| die("--workload is required"));
    if workload != "serve-cold" {
        die(&format!("unknown serve workload {workload:?}"));
    }
    let seeds = Seeds {
        run_seed: args.number("--seed", 1),
    };
    let seconds = args.number("--seconds", 10).max(1) as f64;
    let traced = args.has("--traced");
    // `run.py` sets the policy: the steal share above which an open-loop
    // phase counts as disturbed, and how many it measures again per run.
    let disturbed: f64 = args
        .value("--disturbed-steal")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die("--disturbed-steal takes a share"));
    let max_remeasures = args.number("--max-remeasures", 0) as usize;
    if traced {
        alloc::set_mode(alloc::Mode::Counting);
    }
    let tracer = Tracer::new(traced, start);
    let root = tracer.span("bench.serve", 0, || workload.to_string());

    // No seed repeats within a run, across instances too.
    let next = AtomicUsize::new(0);
    // Every instance starts and runs its closed loop first; the open
    // loops then all run at two thirds of the median throughput. Each
    // open loop (the latencies are what steal disturbs most) is measured
    // again (a few times per run at most) when the host stole CPU while
    // it ran.
    let per = seconds / INSTANCES as f64;
    let mut measured_steal = Vec::new();
    let mut instances: Vec<Instance> = Vec::with_capacity(INSTANCES);
    for _ in 0..INSTANCES {
        let ticks = host::cpu_ticks();
        let mut instance = Instance::start(&tracer, root.id());
        let closed_for = Duration::from_secs_f64(0.3 * per);
        instance.closed_loop(&seeds, &next, closed_for, &tracer, root.id());
        measured_steal.push(host::steal_share(ticks, host::cpu_ticks()));
        instances.push(instance);
    }
    let mut throughputs: Vec<f64> = instances.iter().map(|i| i.req_per_s).collect();
    let rate = (LOAD * median(&mut throughputs)).max(0.5);
    let n_open =
        ((rate * 0.6 * per) as usize).clamp(MIN_OPEN_LOOP.div_ceil(INSTANCES), MAX_REQUESTS);
    let mut remeasured = 0;
    for instance in &mut instances {
        loop {
            let ticks = host::cpu_ticks();
            instance.open_loop(&seeds, &next, rate, n_open, &tracer, root.id());
            let steal = host::steal_share(ticks, host::cpu_ticks());
            measured_steal.push(steal);
            if steal <= disturbed || remeasured == max_remeasures {
                break;
            }
            remeasured += 1;
            instance.disturbed.append(&mut instance.open);
        }
    }
    let instances: Vec<Instance> = instances;
    let fresh = instances.iter().all(|i| i.fresh);

    // Every served document against the offline render of its seed.
    let all: Vec<&Reply> = instances
        .iter()
        .flat_map(|i| {
            i.early
                .iter()
                .chain(&i.closed)
                .chain(&i.open)
                .chain(&i.disturbed)
        })
        .collect();
    let mut distinct: Vec<u64> = all.iter().map(|r| r.seed).collect();
    distinct.sort_unstable();
    distinct.dedup();
    if traced {
        panoptes_obs::enable(panoptes_obs::METRICS);
    }
    let obs_base = metrics::snapshot();
    let (docs, counts) = {
        let span = tracer.span("phase.verify", root.id(), String::new);
        offline_docs(&distinct, &tracer, span.id())
    };
    let obs = metrics::snapshot().delta(&obs_base);
    let mut overhead = 0.0;
    if traced {
        // Trace overhead: the same few studies (their worlds already in
        // the plan cache) untraced and traced, in alternating rounds
        // (allocation counting and obs metrics switch with the tracer).
        let sample: Vec<u64> = distinct.iter().copied().take(2 * nproc().max(4)).collect();
        let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            alloc::set_mode(alloc::Mode::Plain);
            panoptes_obs::disable(panoptes_obs::METRICS);
            let at = Instant::now();
            offline_docs(&sample, &Tracer::new(false, start), 0);
            plain.push(at.elapsed().as_secs_f64());
            alloc::set_mode(alloc::Mode::Counting);
            panoptes_obs::enable(panoptes_obs::METRICS);
            let at = Instant::now();
            offline_docs(&sample, &Tracer::new(true, start), 0);
            with_trace.push(at.elapsed().as_secs_f64());
        }
        overhead = median(&mut with_trace) / median(&mut plain) - 1.0;
    }
    let matches = |r: &Reply| r.ok() && docs.get(&r.seed) == Some(&(r.digest, r.bytes));
    let failed = all.iter().filter(|r| !matches(r)).count();
    let why = match all.iter().find(|r| !matches(r)) {
        Some(r) => match &r.error {
            Some(e) => format!("seed {:#x}: {e}", r.seed),
            None => format!(
                "seed {:#x}: served document differs from the offline render",
                r.seed
            ),
        },
        None if !fresh => "a server had served more than its sentinel before measuring".to_string(),
        None => String::new(),
    };
    drop(root);
    let wall_s = start.elapsed().as_secs_f64();

    let good: Vec<Vec<&Reply>> = instances
        .iter()
        .map(|i| i.open.iter().filter(|r| matches(r)).collect())
        .collect();
    let wins = windows(&good);
    let open_total: usize = instances.iter().map(|i| i.open.len()).sum();
    let within = good
        .iter()
        .flatten()
        .filter(|r| Reply::ms(r.due, r.done) <= SLO_MS)
        .count();
    let instance_median = |f: fn(&Instance) -> f64| {
        let mut values: Vec<f64> = instances.iter().map(f).collect();
        median(&mut values)
    };
    let closed_time = |i: &Instance| {
        p(
            i.closed
                .iter()
                .filter(|r| r.ok())
                .map(|r| (r.done - r.sent).as_secs_f64()),
            0.5,
        )
    };
    let closed_total: usize = instances.iter().map(|i| i.closed.len()).sum();
    let mut line = vec![
        ("workload", Value::str(workload)),
        ("ok", Value::Bool(failed == 0 && fresh)),
        ("why", Value::str(why)),
        ("isolated", Value::Bool(fresh)),
        ("attempted", Value::Number(all.len() as f64)),
        ("failed", Value::Number(failed as f64)),
        ("setup_s", Value::Number(instance_median(|i| i.setup_s))),
        ("wall_s", Value::Number(instance_median(closed_time))),
        ("cpu_s", Value::Number(instance_median(|i| i.cpu_per_study))),
        (
            "peak_rss_mib",
            Value::Number(instance_median(|i| i.peak_rss_mib)),
        ),
        ("req_per_s", Value::Number(instance_median(|i| i.req_per_s))),
        ("open_loop", Value::Number(open_total as f64)),
        ("closed_loop", Value::Number(closed_total as f64)),
        (
            "ttfe_p50_ms",
            Value::Number(window_quantile(&wins, 0.5, |r| Reply::ms(r.due, r.first))),
        ),
        (
            "ttfe_p95_ms",
            Value::Number(window_quantile(&wins, 0.95, |r| Reply::ms(r.due, r.first))),
        ),
        (
            "completion_p50_ms",
            Value::Number(window_quantile(&wins, 0.5, |r| Reply::ms(r.due, r.done))),
        ),
        (
            "completion_p95_ms",
            Value::Number(window_quantile(&wins, 0.95, |r| Reply::ms(r.due, r.done))),
        ),
        (
            "slo_frac",
            Value::Number(within as f64 / open_total.max(1) as f64),
        ),
        ("slo_ms", Value::Number(SLO_MS)),
    ];
    if traced {
        let spans = tracer.spans();
        let mut values: Layers = layers::study_layers(&spans, &counts, &obs);
        let timed: Vec<&Timing> = good
            .iter()
            .flatten()
            .filter_map(|r| r.timing.as_ref())
            .collect();
        let phase = |f: fn(&Timing) -> u64| p(timed.iter().map(|t| f(t) as f64 / 1e3), 0.5);
        values.insert("serve.admission_ms_p50", phase(|t| t.admission_us));
        values.insert("serve.cache_wait_ms_p50", phase(|t| t.cache_wait_us));
        values.insert("serve.build_ms_p50", phase(|t| t.build_us));
        values.insert("serve.capture_ms_p50", phase(|t| t.capture_us));
        values.insert("serve.analysis_ms_p50", phase(|t| t.analysis_us));
        values.insert("serve.render_ms_p50", phase(|t| t.render_us));
        values.insert("serve.write_ms_p50", phase(|t| t.write_us));
        let net = good.iter().flatten().filter_map(|r| {
            r.timing
                .as_ref()
                .map(|t| Reply::ms(r.sent, r.done) - t.total_us as f64 / 1e3)
        });
        values.insert("serve.net_ms_p50", p(net, 0.5));
        let lag = instances
            .iter()
            .flat_map(|i| &i.open)
            .map(|r| Reply::ms(r.due, r.sent));
        values.insert("serve.gen_lag_ms_p95", p(lag, 0.95));
        let delta = |name: &str| -> f64 {
            instances
                .iter()
                .map(|i| {
                    i.metrics_after.get(name).copied().unwrap_or(0.0)
                        - i.metrics_before.get(name).copied().unwrap_or(0.0)
                })
                .sum()
        };
        let (hits, misses) = (delta("serve.cache.hits"), delta("serve.cache.misses"));
        values.insert(
            "cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        values.insert("cache.evictions", delta("serve.cache.evictions"));
        values.insert(
            "cache.used_mib",
            instance_median(|i| {
                i.metrics_after
                    .get("serve.cache.bytes")
                    .copied()
                    .unwrap_or(0.0)
            }) / (1 << 20) as f64,
        );
        values.insert("simnet.request_ns", simnet_probe(&seeds));
        values.insert("obs.trace_overhead_frac", overhead);
        let (self_by_layer, remainder, attributed) = layers::self_check(&spans, wall_s);
        values.insert("trace.remainder_frac", remainder);
        line.push(("layers", numbers(values)));
        line.push(("self_s", numbers(self_by_layer)));
        line.push(("attributed_s", Value::Number(attributed)));
        if let Some(path) = args.value("--trace-out") {
            if let Err(e) = std::fs::write(path, crate::trace::to_jsonl(&spans)) {
                die(&format!("write {path}: {e}"));
            }
        }
    }
    let per_instance = instances.iter().map(|i| {
        numbers([
            ("setup_s", i.setup_s),
            ("req_per_s", i.req_per_s),
            ("cpu_per_study_s", i.cpu_per_study),
            ("peak_rss_mib", i.peak_rss_mib),
            ("closed_loop", i.closed.len() as f64),
            ("open_loop", i.open.len() as f64),
            (
                "ttfe_p95_ms",
                p(i.open.iter().map(|r| Reply::ms(r.due, r.first)), 0.95),
            ),
            (
                "gen_lag_p95_ms",
                p(i.open.iter().map(|r| Reply::ms(r.due, r.sent)), 0.95),
            ),
        ])
    });
    line.push(("instances", Value::Array(per_instance.collect())));
    line.push(("remeasured", Value::Number(remeasured as f64)));
    line.push((
        "host_steal_max",
        Value::Number(measured_steal.iter().copied().fold(0.0, f64::max)),
    ));
    line.push(("wall_run_s", Value::Number(wall_s)));
    println!("{}", json::to_string(&object(line)));
}

/// `simnet.request_ns` over the world of the workload's first study.
fn simnet_probe(seeds: &Seeds) -> f64 {
    let scale = params(seeds.seed(0)).scale();
    let world = panoptes_web::World::build(&panoptes_web::generator::GeneratorConfig {
        seed: scale.seed,
        popular: scale.popular,
        sensitive: scale.sensitive,
        tail: scale.tail,
    });
    offline::simnet_request_ns(&world, &scale)
}
