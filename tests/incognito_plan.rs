//! The §3.2 incognito plan against the six-re-crawl reference.
//!
//! The plan reuses a population crawl as the normal half of a pair
//! whenever the population holds the pinned profile. That is sound only
//! because a campaign is a pure function of world, profile and config;
//! these tests check the reuse's output and the determinism it rests on:
//!
//! * for populations that hold none, some and all of the three
//!   incognito browsers, at `--jobs 1`, across a fleet and with
//!   `--overlap`, the section built from the plan equals the section
//!   built from six explicit `run_crawl` re-crawls;
//! * for Edge, Opera and UC International, a normal re-crawl captures
//!   exactly the flows of the population crawl it replaces.

use panoptes::campaign::{run_crawl, CampaignResult};
use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{
    analyze_crawl, analyze_study_jobs, AnalysisResources, CampaignAnalysis,
};
use panoptes_bench::experiments::{
    crawl_population, crawl_population_jobs, study_population_overlapped, Scale,
};
use panoptes_bench::incognito::{IncognitoPlan, INCOGNITO_BROWSERS};
use panoptes_bench::render;
use panoptes_browsers::registry::profile_by_name;

/// The reference section: each browser crawled again in normal mode
/// and in incognito mode, with no reuse.
fn six_recrawl_section(scale: &Scale, res: &AnalysisResources) -> String {
    let world = scale.world();
    let config = scale.config();
    let incognito = config.clone().incognito();
    let pairs: Vec<(CampaignAnalysis, CampaignAnalysis)> = INCOGNITO_BROWSERS
        .iter()
        .map(|name| {
            let p = profile_by_name(name).expect("pinned browser");
            let normal = run_crawl(&world, &p, &world.sites, &config);
            let incog = run_crawl(&world, &p, &world.sites, &incognito);
            (analyze_crawl(&normal, res), analyze_crawl(&incog, res))
        })
        .collect();
    render::incognito_section(&pairs).1
}

/// The population crawl and its analyses, through the same experiment
/// calls as `repro` at `--jobs 1`, across a fleet, or overlapped.
fn population_crawls(
    scale: &Scale,
    res: &AnalysisResources,
    mode: &str,
    n: usize,
) -> (Vec<CampaignResult>, Vec<CampaignAnalysis>) {
    let options = FleetOptions::with_jobs(4);
    match mode {
        "jobs-1" => {
            let (_, results) = crawl_population(scale, n);
            let analyses = results.iter().map(|r| analyze_crawl(r, res)).collect();
            (results, analyses)
        }
        "fleet" => {
            let (_, results) = crawl_population_jobs(scale, &options, n).expect("crawl fleet");
            let analyses =
                analyze_study_jobs(&results, &[], res, &options).expect("analysis fleet").crawls;
            (results, analyses)
        }
        "overlap" => {
            let (_, study) =
                study_population_overlapped(scale, &options, res, n).expect("overlapped study");
            (study.results.crawls, study.analyses.crawls)
        }
        other => unreachable!("unknown mode {other}"),
    }
}

#[test]
fn plan_section_matches_six_explicit_recrawls() {
    let scale = Scale::quick();
    let world = scale.world();
    let res = AnalysisResources::standard();
    let reference = six_recrawl_section(&scale, &res);
    assert!(reference.contains("| Edge |"), "reference renders the Edge row");

    // Population 1 holds none of the three browsers, 2 holds Edge, 6
    // holds Edge and Opera, 15 and 20 hold all three.
    for (n, units) in [(1, 6), (2, 5), (6, 4), (15, 3), (20, 3)] {
        for mode in ["jobs-1", "fleet", "overlap"] {
            let (results, analyses) = population_crawls(&scale, &res, mode, n);
            let plan = IncognitoPlan::new(results.iter().map(|r| &r.profile));
            assert_eq!(plan.unit_count(), units, "population {n}: planned units");
            let jobs = if mode == "jobs-1" { 1 } else { 4 };
            let unit_analyses = plan
                .run(&world, &scale.config(), &res, &FleetOptions::with_jobs(jobs))
                .expect("incognito units");
            assert_eq!(unit_analyses.len(), units);
            let section = render::incognito_section(&plan.pairs(&analyses, &unit_analyses)).1;
            assert_eq!(section, reference, "population {n}, {mode}: section differs");
        }
    }
}

#[test]
fn normal_recrawl_captures_the_population_crawl() {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();
    let (_, sequential) = crawl_population(&scale, 15);
    let (_, fleet) =
        crawl_population_jobs(&scale, &FleetOptions::with_jobs(4), 15).expect("crawl fleet");
    let plan = IncognitoPlan::new(fleet.iter().map(|r| &r.profile));
    for browser in &plan.browsers {
        let index = browser.population_index.expect("paper population holds the browser");
        let recrawl = run_crawl(&world, &browser.profile, &world.sites, &config);
        let recrawled = recrawl.store.export_jsonl();
        assert!(!recrawl.store.is_empty(), "{} captured flows", browser.profile.name);
        assert_eq!(
            sequential[index].store.export_jsonl(),
            recrawled,
            "{}: sequential population crawl differs from its re-crawl",
            browser.profile.name
        );
        assert_eq!(
            fleet[index].store.export_jsonl(),
            recrawled,
            "{}: fleet population crawl differs from its re-crawl",
            browser.profile.name
        );
    }
}
