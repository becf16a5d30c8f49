//! The §3.2 incognito plan against the six-re-crawl reference.
//!
//! The plan reuses a population crawl as the normal half of a pair
//! whenever the population holds the pinned profile. That is sound only
//! because a campaign is a pure function of world, profile and config;
//! these tests check the reuse's output and the determinism it rests on:
//!
//! * for populations that hold none, some and all of the three
//!   incognito browsers, the section the study pipeline emits at
//!   `--jobs 1` and across a fleet equals the section built from six
//!   explicit `run_crawl` re-crawls;
//! * for Edge, Opera and UC International, a normal re-crawl captures
//!   exactly the flows of the population crawl it replaces.

use panoptes::campaign::run_crawl;
use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{analyze_crawl, AnalysisResources, CampaignAnalysis};
use panoptes_bench::experiments::{crawl_population_jobs, population_for, Scale};
use panoptes_bench::incognito::{IncognitoPlan, INCOGNITO_BROWSERS};
use panoptes_bench::pipeline::{self, StudyPlan};
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

#[test]
fn plan_section_matches_six_explicit_recrawls() {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();
    let res = AnalysisResources::standard();
    let reference = six_recrawl_section(&scale, &res);
    assert!(reference.contains("| Edge |"), "reference renders the Edge row");

    // Population 1 holds none of the three browsers, 2 holds Edge, 6
    // holds Edge and Opera, 15 and 20 hold all three.
    for (n, units) in [(1, 6), (2, 5), (6, 4), (15, 3), (20, 3)] {
        let profiles = population_for(&scale, n);
        assert_eq!(IncognitoPlan::new(&profiles).unit_count(), units, "population {n}");
        // The crawl group and §3.2 only: no idle runs.
        let plan = StudyPlan::new(&profiles, &config, true, None);
        assert_eq!(plan.units().len(), n + units, "population {n}: planned units");
        for jobs in [1, 4] {
            let mut section = None;
            let options = FleetOptions::with_jobs(jobs);
            pipeline::run(&world, &config, &plan, &res, &options, |name, text| {
                if name == "incognito" {
                    section = Some(text.to_string());
                }
            })
            .expect("study units");
            assert_eq!(
                section.as_deref(),
                Some(reference.as_str()),
                "population {n}, jobs {jobs}: section differs"
            );
        }
    }
}

#[test]
fn normal_recrawl_captures_the_population_crawl() {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();
    let sequential: Vec<_> = population_for(&scale, 15)
        .iter()
        .map(|p| run_crawl(&world, p, &world.sites, &config))
        .collect();
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
