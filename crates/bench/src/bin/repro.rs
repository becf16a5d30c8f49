//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--sites N] [--popular N] [--sensitive N] [--seed S]
//!       [--jobs N] [--overlap] [--population N] [--only SECTION]
//! ```
//!
//! Sections: `table1 fig2 fig3 fig4 table2 fig5 leaks dns incognito
//! sensitive transfers idle-dest listing1`. Default: everything at paper
//! scale (500 + 500 sites, 10-minute idle).
//!
//! `--sites N` grows the web beyond the paper's head set: sites past
//! `popular + sensitive` come from the generator's deterministic deep
//! tail (the head sites stay byte-identical, so `--sites 1000` at paper
//! scale IS the paper's exact web). Composes with `--jobs`/`--overlap`
//! like any other scale.
//!
//! `--jobs N` runs the browser campaigns across an N-worker fleet
//! (default: the machine's available parallelism; `--jobs 1` forces the
//! legacy sequential path). Every capture is analysed once by the fused
//! single-pass engine and all sections render from those analyses.
//! `--overlap` additionally removes the capture→analysis barrier: each
//! campaign streams to an analysis worker the moment it seals, running
//! crawl, idle and analysis on one worker pool. Output is byte-identical
//! for every N, with and without `--overlap` — results always come back
//! in profile order before rendering.
//!
//! The §3.2 incognito section pairs each of Edge, Opera and UC
//! International's normal crawl with an incognito crawl. On every path
//! the normal half is the population's own crawl analysis when the
//! population holds the browser's profile (see
//! [`IncognitoPlan`]); only the incognito crawls, plus a normal crawl
//! for a browser outside the population, run as extra fleet units, each
//! crawled and analysed on its worker.
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

use std::io::Write as _;

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{
    analyze_crawl, analyze_idle, analyze_study_jobs, AnalysisResources, CampaignAnalysis,
    IdleAnalysis, StudyAnalyses,
};
use panoptes_analysis::summary::study_report_from;
use panoptes_bench::experiments::{
    crawl_population, crawl_population_jobs, idle_population, idle_population_jobs,
    study_population_overlapped, Scale,
};
use panoptes_bench::incognito::IncognitoPlan;
use panoptes_bench::render;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::paper();
    let mut only: Option<String> = None;
    let mut har_dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut overlap = false;
    let mut population: usize = 15;
    let mut metrics = false;
    let mut trace_out: Option<String> = None;
    let mut sites: Option<u32> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::quick(),
            "--sites" => {
                i += 1;
                sites = Some(args[i].parse().expect("--sites N"));
            }
            "--metrics" => metrics = true,
            "--trace-out" => {
                i += 1;
                trace_out = Some(args[i].clone());
            }
            "--jobs" => {
                i += 1;
                jobs = Some(args[i].parse().expect("--jobs N"));
            }
            "--overlap" => overlap = true,
            "--population" => {
                i += 1;
                population = args[i].parse().expect("--population N");
            }
            "--popular" => {
                i += 1;
                scale.popular = args[i].parse().expect("--popular N");
            }
            "--sensitive" => {
                i += 1;
                scale.sensitive = args[i].parse().expect("--sensitive N");
            }
            "--seed" => {
                i += 1;
                scale.seed = args[i].parse().expect("--seed S");
            }
            "--only" => {
                i += 1;
                only = Some(args[i].clone());
            }
            "--har" => {
                i += 1;
                har_dir = Some(args[i].clone());
            }
            "--json" => {
                i += 1;
                json_path = Some(args[i].clone());
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(args[i].clone());
            }
            "--help" | "-h" => {
                println!(
                    "repro [--quick] [--sites N] [--popular N] [--sensitive N] [--seed S] [--jobs N] [--overlap] [--population N] [--only SECTION] [--har DIR] [--json FILE] [--csv DIR] [--metrics] [--trace-out FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
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
    let effective = fleet_options.effective_jobs(population);
    let res = AnalysisResources::standard();

    // In --overlap mode the idle campaigns run (and everything gets
    // analysed) on the same pool as the crawls, so their analyses are
    // ready before any rendering starts.
    let mut overlapped_idles: Option<Vec<IdleAnalysis>> = None;

    let (world, results, crawl_analyses) = if overlap {
        eprintln!(
            "overlapped study: crawl + idle + analysis, {population} browsers, {effective} worker(s)..."
        );
        match study_population_overlapped(&scale, &fleet_options, &res, population) {
            Ok((world, study)) => {
                overlapped_idles = Some(study.analyses.idles);
                (world, study.results.crawls, study.analyses.crawls)
            }
            Err(e) => {
                eprintln!("overlapped study failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        eprintln!("crawling {population} browsers ({effective} worker(s))...");
        let (world, results) = if jobs == Some(1) {
            // The legacy sequential path, kept reachable for A/B runs.
            crawl_population(&scale, population)
        } else {
            match crawl_population_jobs(&scale, &fleet_options, population) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("crawl fleet failed: {e}");
                    std::process::exit(1);
                }
            }
        };
        let analyses: Vec<CampaignAnalysis> = if jobs == Some(1) {
            results.iter().map(|r| analyze_crawl(r, &res)).collect()
        } else {
            match analyze_study_jobs(&results, &[], &res, &fleet_options) {
                Ok(s) => s.crawls,
                Err(e) => {
                    eprintln!("analysis fleet failed: {e}");
                    std::process::exit(1);
                }
            }
        };
        (world, results, analyses)
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

    // Sections print through the shared document builders (also used
    // by the study server) so the two output paths cannot drift.
    for (name, text) in render::crawl_sections(&results, &crawl_analyses) {
        if want(name) {
            print!("{text}");
        }
    }

    if want("incognito") {
        // The population's crawls already hold the normal half of every
        // pair whose profile it contains; only the incognito crawls (and
        // a normal crawl for a browser outside the population) run here,
        // each analysed on its own worker.
        let plan = IncognitoPlan::new(results.iter().map(|r| &r.profile));
        eprintln!(
            "incognito crawls (Edge / Opera / UC International), {} unit(s)...",
            plan.unit_count()
        );
        let unit_analyses = match plan.run(&world, &scale.config(), &res, &fleet_options) {
            Ok(analyses) => analyses,
            Err(e) => {
                eprintln!("incognito fleet failed: {e}");
                std::process::exit(1);
            }
        };
        print!("{}", render::incognito_section(&plan.pairs(&crawl_analyses, &unit_analyses)).1);
    }

    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create --csv directory");
        std::fs::write(format!("{dir}/fig2.csv"), render::fig2_csv(&crawl_analyses))
            .expect("fig2.csv");
        std::fs::write(format!("{dir}/fig3.csv"), render::fig3_csv(&crawl_analyses))
            .expect("fig3.csv");
        eprintln!("wrote {dir}/fig2.csv, {dir}/fig3.csv");
    }

    if want("fig5") || want("idle-dest") || json_path.is_some() || csv_dir.is_some() {
        let idle_analyses: Vec<IdleAnalysis> = match overlapped_idles.take() {
            Some(analyses) => analyses, // already captured and analysed
            None => {
                eprintln!(
                    "idle experiment ({population} browsers x {}s, {effective} worker(s))...",
                    scale.idle.as_secs()
                );
                let idle = if jobs == Some(1) {
                    idle_population(&scale, population)
                } else {
                    match idle_population_jobs(&scale, &fleet_options, population) {
                        Ok(out) => out,
                        Err(e) => {
                            eprintln!("idle fleet failed: {e}");
                            std::process::exit(1);
                        }
                    }
                };
                if jobs == Some(1) {
                    idle.iter().map(analyze_idle).collect()
                } else {
                    match analyze_study_jobs(&[], &idle, &res, &fleet_options) {
                        Ok(s) => s.idles,
                        Err(e) => {
                            eprintln!("idle analysis fleet failed: {e}");
                            std::process::exit(1);
                        }
                    }
                }
            }
        };
        for (name, text) in render::idle_sections(&idle_analyses) {
            if want(name) {
                print!("{text}");
            }
        }
        if let Some(dir) = &csv_dir {
            std::fs::write(
                format!("{dir}/fig5.csv"),
                render::fig5_csv(&idle_analyses, panoptes_simnet::SimDuration::from_secs(10)),
            )
            .expect("fig5.csv");
            eprintln!("wrote {dir}/fig5.csv");
        }
        if let Some(path) = &json_path {
            let study = StudyAnalyses { crawls: crawl_analyses, idles: idle_analyses };
            std::fs::write(path, study_report_from(&study)).expect("write --json file");
            eprintln!("wrote {path}");
        }
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
