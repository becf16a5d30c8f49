//! `perfbench` — the working half of the benchmark; `run.py` drives it.
//!
//! ```text
//! perfbench crawl-half --workload tail-100k
//! perfbench trace-study --workload paper-study|tail-100k [--trace-out FILE]
//! perfbench server
//! perfbench serve-run --workload serve-cold --seed N --seconds S
//!                     --disturbed-steal SHARE --max-remeasures N
//!                     [--traced] [--trace-out FILE]
//! ```
//!
//! `crawl-half` is `repro --sites 100000 --population 1` up to its
//! incognito section, through the same driver calls: it prints the
//! header and the crawl sections on stdout and fleet progress on stderr,
//! exactly as `repro` does (the `tail-100k` end-to-end runs;
//! `paper-study` runs `repro` itself).
//! `trace-study` runs one offline study layer by layer in this (fresh)
//! process and prints one JSON line: the document's digest and flow
//! count, the isolation checks, the per-layer metrics and the trace
//! self-check.
//! `server` runs a study server (default configuration, counting
//! allocator as in the `serve` binary) on an ephemeral loopback port,
//! prints `listening ADDR`, and exits when its stdin closes.
//! `serve-run` spawns such servers, drives the served workload against
//! them, verifies every served document against the offline render and
//! prints one JSON line of results.

#![deny(unsafe_code)]

mod alloc;
mod host;
mod layers;
mod offline;
mod serve;
mod stats;
mod trace;

use std::io::Read as _;
use std::time::Instant;

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{analyze_study_jobs, AnalysisResources};
use panoptes_bench::experiments::{crawl_population_jobs, Scale};
use panoptes_bench::render;
use panoptes_http::json::{self, Value};
use panoptes_http::Atom;
use panoptes_obs::metrics::{self, MetricValue};

use crate::offline::Shape;
use crate::trace::Tracer;

#[global_allocator]
static ALLOC: alloc::SwitchAlloc = alloc::SwitchAlloc;

/// Parsed command line: the subcommand plus `--flag value` pairs.
struct Args {
    command: String,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Args {
        let mut raw = std::env::args().skip(1);
        let command = raw.next().unwrap_or_default();
        let mut flags = Vec::new();
        let rest: Vec<String> = raw.collect();
        let mut i = 0;
        while i < rest.len() {
            let key = rest[i].clone();
            let value = rest.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
            i += if value.is_some() { 2 } else { 1 };
            flags.push((key, value));
        }
        Args { command, flags }
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, key: &str, default: u64) -> u64 {
        match self.value(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("{key} takes a whole number"))),
            None => default,
        }
    }
}

fn die(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(2);
}

/// The machine's worker count (the fleet default of `repro`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Checks that no process-global state is left from earlier work: no
/// obs metric has counted anything yet, and the atom interner has never
/// seen a host every world contains. Leaves metrics enabled only when
/// they were on before.
fn isolation_probe() -> Result<(), String> {
    let was_on = panoptes_obs::metrics_enabled();
    panoptes_obs::enable(panoptes_obs::METRICS);
    let before = metrics::snapshot();
    let counted: Vec<&str> = before
        .entries
        .iter()
        .filter(|e| match &e.value {
            MetricValue::Counter(n) => *n > 0,
            MetricValue::Histogram { count, .. } => *count > 0,
            MetricValue::Gauge { value, max } => *value != 0 || *max != 0,
        })
        .map(|e| e.name.as_str())
        .collect();
    let host = panoptes_web::vendors::all_endpoints()
        .next()
        .map_or("google.com", |ep| ep.host);
    let _ = Atom::intern(host);
    let delta = metrics::snapshot().delta(&before);
    let hits: u64 = delta
        .entries
        .iter()
        .filter(|e| e.name.starts_with("atom.intern.") && e.name.ends_with(".hits"))
        .map(|e| {
            if let MetricValue::Counter(n) = e.value {
                n
            } else {
                0
            }
        })
        .sum();
    if !was_on {
        panoptes_obs::disable(panoptes_obs::METRICS);
    }
    if !counted.is_empty() {
        return Err(format!(
            "obs metrics already counted: {}",
            counted.join(",")
        ));
    }
    if hits > 0 {
        return Err(format!("atom interner already held {host:?}"));
    }
    Ok(())
}

fn study_shape(workload: &str) -> Shape {
    match workload {
        "paper-study" => Shape {
            scale: Scale::paper(),
            population: 15,
            full: true,
        },
        "tail-100k" => Shape {
            scale: Scale::paper().with_sites(100_000),
            population: 1,
            full: false,
        },
        other => die(&format!("unknown offline workload {other:?}")),
    }
}

/// The workload's `repro --sites N --population P` up to its incognito
/// section: the calls `repro` makes at its default jobs, in its order,
/// with its fleet options, printing what it prints.
fn cmd_crawl_half(args: &Args) {
    let shape = study_shape(
        args.value("--workload")
            .unwrap_or_else(|| die("--workload is required")),
    );
    let (scale, population) = (shape.scale, shape.population);
    let options = FleetOptions::default().verbose();
    print!("{}", render::header_md(&scale));
    let res = AnalysisResources::standard();
    let (_world, results) = crawl_population_jobs(&scale, &options, population)
        .unwrap_or_else(|e| die(&format!("crawl fleet failed: {e}")));
    let analyses = analyze_study_jobs(&results, &[], &res, &options)
        .unwrap_or_else(|e| die(&format!("analysis fleet failed: {e}")))
        .crawls;
    for (_, text) in render::crawl_sections(&results, &analyses) {
        print!("{text}");
    }
}

fn cmd_trace_study(args: &Args, start: Instant) {
    let workload = args
        .value("--workload")
        .unwrap_or_else(|| die("--workload is required"));
    let shape = study_shape(workload);
    let jobs = nproc();
    alloc::set_mode(alloc::Mode::Counting);
    let isolation = isolation_probe();
    panoptes_obs::enable(panoptes_obs::METRICS);
    let obs_base = metrics::snapshot();

    let tracer = Tracer::new(true, start);
    let root = tracer.span("bench.study", 0, || workload.to_string());
    let out = offline::run(&shape, jobs, &tracer, root.id());
    drop(root);
    let wall_s = start.elapsed().as_secs_f64();
    let obs = metrics::snapshot().delta(&obs_base);

    let spans = tracer.spans();
    let counts = layers::StudyCounts::of(&out);
    let mut layer_values = layers::study_layers(&spans, &counts, &obs);
    // Work the untraced runs do not do: the simnet probe and the trace
    // file. `run.py` takes it off this process's wall time when it
    // computes the trace overhead.
    let extra = Instant::now();
    layer_values.insert(
        "simnet.request_ns",
        offline::simnet_request_ns(&out.world, &shape.scale),
    );
    // No server, no cache: these layers do no work offline.
    for name in layers::SERVE_LAYERS {
        layer_values.insert(name, 0.0);
    }
    let (self_by_layer, remainder, attributed) = layers::self_check(&spans, wall_s);
    layer_values.insert("trace.remainder_frac", remainder);
    if let Some(path) = args.value("--trace-out") {
        if let Err(e) = std::fs::write(path, trace::to_jsonl(&spans)) {
            die(&format!("write {path}: {e}"));
        }
    }
    let extra_s = extra.elapsed().as_secs_f64();
    let line = vec![
        ("workload", Value::str(workload)),
        (
            "isolated",
            Value::Bool(isolation.is_ok() && out.facts_isolated),
        ),
        ("isolation", Value::str(isolation.err().unwrap_or_default())),
        ("jobs", Value::Number(jobs as f64)),
        ("wall_s", Value::Number(wall_s)),
        ("extra_s", Value::Number(extra_s)),
        ("flows", Value::Number(out.flows_crawled as f64)),
        (
            "digest",
            Value::str(format!("{:#018x}", fnv1a(out.doc.as_bytes()))),
        ),
        ("layers", numbers(layer_values)),
        ("self_s", numbers(self_by_layer)),
        ("attributed_s", Value::Number(attributed)),
    ];
    println!("{}", json::to_string(&object(line)));
}

/// `(key, value)` pairs as a JSON object.
pub fn object<K: ToString>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Named numbers as a JSON object.
pub fn numbers<K: ToString>(values: impl IntoIterator<Item = (K, f64)>) -> Value {
    object(values.into_iter().map(|(k, v)| (k, Value::Number(v))))
}

fn cmd_server() {
    alloc::set_mode(alloc::Mode::Counting);
    let config = panoptes_serve::server::ServerConfig::default();
    let handle = panoptes_serve::server::spawn(0, config)
        .unwrap_or_else(|e| die(&format!("bind loopback: {e}")));
    println!("listening {}", handle.addr);
    // Lives exactly as long as the parent holds our stdin open.
    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    std::process::exit(0);
}

fn main() {
    let start = Instant::now();
    let args = Args::parse();
    match args.command.as_str() {
        "crawl-half" => cmd_crawl_half(&args),
        "trace-study" => cmd_trace_study(&args, start),
        "server" => cmd_server(),
        "serve-run" => serve::cmd_serve_run(&args, start),
        other => die(&format!(
            "unknown command {other:?} (crawl-half | trace-study | server | serve-run)"
        )),
    }
}
