//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--sites N] [--popular N] [--sensitive N] [--seed S]
//!       [--jobs N] [--population N] [--only SECTION]
//! ```
//!
//! Sections (`--only`), in document order: `table1 fig2 fig3 fig4
//! table2 leaks dns sensitive transfers listing1 identifiers cost
//! incognito fig5 idle-dest`. Default: everything at paper scale
//! (500 + 500 sites, 10-minute idle). A missing or unparsable flag
//! value, an unknown flag, an unknown section or `--population 0`
//! prints the usage line and exits with status 2.
//!
//! `--sites N` grows the web beyond the paper's head set: sites past
//! `popular + sensitive` come from the generator's deterministic deep
//! tail (the head sites stay byte-identical, so `--sites 1000` at paper
//! scale IS the paper's exact web). Composes with `--jobs` like any
//! other scale.
//!
//! The study runs as one pipeline ([`pipeline`]): every campaign unit
//! — a crawl per browser, the §3.2 incognito units, an idle run per
//! browser — goes through one fleet, each capture is analysed on the
//! worker that produced it, and each section group prints as soon as
//! its inputs are complete. `--jobs N` sets the fleet's worker count
//! (default: the machine's available parallelism). Output is
//! byte-identical for every N.
//!
//! The §3.2 incognito section pairs each of Edge, Opera and UC
//! International's normal crawl with an incognito crawl. The normal
//! half is the population's own crawl analysis when the population
//! holds the browser's profile (see [`IncognitoPlan`]); only the
//! incognito crawls, plus a normal crawl for a browser outside the
//! population, run as extra units. `--only` leaves out the incognito
//! and idle units when their sections are not wanted.
//!
//! `--population N` runs the study over an N-browser population: the
//! paper's 15 pinned browsers first, then deterministically sampled
//! variants from the behaviour-model space (seeded by `--seed`). The
//! default, `--population 15`, is exactly the paper set — output stays
//! byte-identical to a run without the flag.
//!
//! `--har DIR` additionally writes one HAR 1.2 file per browser campaign
//! into DIR, for inspection with off-the-shelf HAR tooling. `--json FILE`
//! writes the machine-readable study summary (every analysis result as
//! one JSON document).
//!
//! `--metrics` enables the panoptes-obs metrics layer and prints the
//! two-section run report (deterministic counts vs runtime timings) on
//! **stderr** after the run; `--trace-out FILE` enables the trace layer
//! and writes the span/event JSONL there. Both leave stdout — the
//! reproduction tables — byte-identical to a run without them.
//!
//! [`IncognitoPlan`]: panoptes_bench::incognito::IncognitoPlan

use std::io::Write as _;

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::AnalysisResources;
use panoptes_analysis::summary::study_report_from;
use panoptes_bench::experiments::{population_for, Scale};
use panoptes_bench::pipeline::{self, StudyPlan, SECTIONS};
use panoptes_bench::render;

const USAGE: &str = "repro [--quick] [--sites N] [--popular N] [--sensitive N] [--seed S] [--jobs N] [--population N] [--only SECTION] [--har DIR] [--json FILE] [--csv DIR] [--metrics] [--trace-out FILE]";

/// Reports a command-line error with the usage line and exits with
/// status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("repro: {message}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

/// The value following flag `args[*i]`, parsed; advances `i` past it.
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    let flag = &args[*i];
    *i += 1;
    let Some(raw) = args.get(*i) else {
        usage_error(&format!("{flag} needs a value"));
    };
    raw.parse().unwrap_or_else(|_| usage_error(&format!("{flag}: invalid value `{raw}`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::paper();
    let mut only: Option<String> = None;
    let mut har_dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut population: usize = 15;
    let mut metrics = false;
    let mut trace_out: Option<String> = None;
    let mut sites: Option<u32> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::quick(),
            "--sites" => sites = Some(value(&args, &mut i)),
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(value(&args, &mut i)),
            "--jobs" => jobs = Some(value(&args, &mut i)),
            "--population" => population = value(&args, &mut i),
            "--popular" => scale.popular = value(&args, &mut i),
            "--sensitive" => scale.sensitive = value(&args, &mut i),
            "--seed" => scale.seed = value(&args, &mut i),
            "--only" => only = Some(value(&args, &mut i)),
            "--har" => har_dir = Some(value(&args, &mut i)),
            "--json" => json_path = Some(value(&args, &mut i)),
            "--csv" => csv_dir = Some(value(&args, &mut i)),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if population == 0 {
        usage_error("--population must be at least 1");
    }
    if let Some(section) = only.as_deref().filter(|s| !SECTIONS.contains(s)) {
        usage_error(&format!(
            "unknown section `{section}`; sections: {}",
            SECTIONS.join(" ")
        ));
    }
    // Applied after the loop so `--sites` composes with `--quick` /
    // `--popular` / `--sensitive` regardless of flag order.
    if let Some(n) = sites {
        scale = scale.with_sites(n);
    }
    let want = |section: &str| only.as_deref().is_none_or(|o| o == section);

    // Telemetry goes to stderr / the trace file only: stdout (the
    // reproduction tables) stays byte-identical with or without it.
    if metrics {
        panoptes_obs::enable(panoptes_obs::METRICS);
    }
    if trace_out.is_some() {
        panoptes_obs::enable(panoptes_obs::TRACE);
    }

    // The tail note appears only when a tail exists, so default runs
    // keep the byte-identical paper header.
    let tail_note =
        if scale.tail > 0 { format!(" + {} tail", scale.tail) } else { String::new() };
    eprintln!(
        "# Panoptes reproduction — {} popular + {} sensitive{} sites, seed {:#x}",
        scale.popular, scale.sensitive, tail_note, scale.seed
    );
    print!("{}", render::header_md(&scale));

    let fleet_options = match jobs {
        Some(n) => FleetOptions::with_progress(n),
        None => FleetOptions::default().verbose(),
    };
    let world = scale.world();
    let config = scale.config();
    let profiles = population_for(&scale, population);
    let res = AnalysisResources::standard();
    let idle = want("fig5") || want("idle-dest") || json_path.is_some() || csv_dir.is_some();
    let plan = StudyPlan::new(&profiles, &config, want("incognito"), idle.then_some(scale.idle));
    eprintln!(
        "study: {population} browsers, {} units, {} worker(s)...",
        plan.units().len(),
        fleet_options.effective_jobs(plan.units().len())
    );
    // Sections print through the shared assembler (also used by the
    // study server), group by group as they come due.
    let emit = |name: &str, text: &str| {
        if want(name) {
            print!("{text}");
        }
    };
    let (results, analyses) =
        match pipeline::run(&world, &config, &plan, &res, &fleet_options, emit) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("study fleet failed: {e}");
                std::process::exit(1);
            }
        };

    if let Some(dir) = &har_dir {
        std::fs::create_dir_all(dir).expect("create --har directory");
        for r in &results {
            let path = format!("{dir}/{}.har", r.profile.name.replace(' ', "_").to_lowercase());
            std::fs::write(&path, panoptes_mitm::har::store_to_har(&r.store))
                .expect("write har file");
            eprintln!("wrote {path}");
        }
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create --csv directory");
        std::fs::write(format!("{dir}/fig2.csv"), render::fig2_csv(&analyses.crawls))
            .expect("fig2.csv");
        std::fs::write(format!("{dir}/fig3.csv"), render::fig3_csv(&analyses.crawls))
            .expect("fig3.csv");
        std::fs::write(
            format!("{dir}/fig5.csv"),
            render::fig5_csv(&analyses.idles, panoptes_simnet::SimDuration::from_secs(10)),
        )
        .expect("fig5.csv");
        eprintln!("wrote {dir}/fig2.csv, {dir}/fig3.csv, {dir}/fig5.csv");
    }
    if let Some(path) = &json_path {
        std::fs::write(path, study_report_from(&analyses)).expect("write --json file");
        eprintln!("wrote {path}");
    }
    if metrics {
        eprint!("{}", panoptes_obs::report::render(&panoptes_obs::metrics::snapshot()));
    }
    if let Some(path) = &trace_out {
        // All worker scopes have joined by now, so the export sees
        // every thread's ring.
        let jsonl = panoptes_obs::trace::export_jsonl();
        std::fs::write(path, &jsonl).expect("write --trace-out file");
        eprintln!("wrote {path} ({} trace events)", jsonl.lines().count());
    }
    eprintln!("done.");
    // Every output is written. Exiting here skips the teardown of the
    // captures still held (hundreds of MiB of flows at paper scale,
    // freed allocation by allocation), which the OS reclaims at once.
    // `exit` runs no destructors, so stdout is flushed by hand first.
    std::io::stdout().flush().expect("flush stdout");
    std::process::exit(0);
}
