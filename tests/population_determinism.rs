//! Population-scale determinism, enforced end-to-end at the workspace
//! level: a 64-browser study — the 15 pinned paper browsers plus 49
//! sampled variants — renders the **byte-identical** report whether the
//! campaigns run sequentially, across an 8-worker fleet, or through
//! the study pipeline at `--jobs 8` (capture→analysis overlap). The
//! sampler's determinism contract (DESIGN.md §9) and the fleet's unit
//! isolation compose: scaling the population changes how much work
//! runs, never what any browser does.
//!
//! Mirrors `tests/study_engine_determinism.rs` for the sampled
//! population.

use panoptes::campaign::{run_crawl, CampaignResult};
use panoptes::config::CampaignConfig;
use panoptes::fleet::{self, FleetOptions, FleetUnit, UnitOutput};
use panoptes::idle::run_idle;
use panoptes_analysis::engine::{analyze_study, AnalysisResources};
use panoptes_analysis::summary::study_report_from;
use panoptes_bench::experiments::{population_for, Scale};
use panoptes_bench::pipeline::{self, StudyPlan};
use panoptes_browsers::BrowserProfile;
use panoptes_simnet::clock::SimDuration;
use panoptes_web::World;

const POPULATION: usize = 64;
const IDLE: SimDuration = SimDuration::from_secs(120);

/// Each profile's crawl, one after another.
fn crawl_each(
    world: &World,
    config: &CampaignConfig,
    profiles: &[BrowserProfile],
) -> Vec<CampaignResult> {
    profiles.iter().map(|p| run_crawl(world, p, &world.sites, config)).collect()
}

#[test]
fn population_study_reports_are_byte_identical_across_jobs() {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();
    let res = AnalysisResources::standard();
    let profiles = population_for(&scale, POPULATION);
    assert_eq!(profiles.len(), POPULATION);

    // Reference: sequential capture (--jobs 1), fused analysis.
    let crawls = crawl_each(&world, &config, &profiles);
    let idles: Vec<_> = profiles.iter().map(|p| run_idle(&world, p, IDLE, &config)).collect();
    let reference = study_report_from(&analyze_study(&crawls, &idles, &res));

    // --jobs 8: the fleet schedules the 64 campaigns across 8 workers.
    let units: Vec<FleetUnit> = profiles.iter().cloned().map(FleetUnit::crawl).collect();
    let parallel: Vec<_> =
        fleet::run_units(&world, &world.sites, &config, &units, &FleetOptions::with_jobs(8))
            .expect("population crawl fleet")
            .into_iter()
            .filter_map(UnitOutput::into_crawl)
            .collect();
    assert_eq!(parallel.len(), crawls.len());
    for (p, s) in parallel.iter().zip(&crawls) {
        assert_eq!(p.profile.name, s.profile.name);
        assert_eq!(
            p.store.export_jsonl(),
            s.store.export_jsonl(),
            "capture diverged at jobs=8 for {}",
            p.profile.name
        );
    }
    assert_eq!(
        reference,
        study_report_from(&analyze_study(&parallel, &idles, &res)),
        "population report diverged at jobs=8"
    );

    // The study pipeline at --jobs 8: 128 units (crawl + idle per
    // browser), each capture analysed on its worker as it seals.
    let plan = StudyPlan::new(&profiles, &config, false, Some(IDLE));
    let options = FleetOptions::with_jobs(8);
    let (_, analyses) = pipeline::run(&world, &config, &plan, &res, &options, |_, _| {})
        .expect("population study pipeline");
    assert_eq!(
        reference,
        study_report_from(&analyses),
        "population report diverged through the study pipeline at jobs=8"
    );
}

#[test]
fn population_prefix_is_the_paper_study() {
    // The first 15 campaigns of any population run are the paper's
    // browsers with the paper's captures: a population study embeds the
    // reproduction unchanged.
    let scale = Scale { popular: 4, sensitive: 2, ..Scale::quick() };
    let world = scale.world();
    let config = scale.config();
    let paper = crawl_each(&world, &config, &population_for(&scale, 15));
    let population = crawl_each(&world, &config, &population_for(&scale, 40));
    for (a, b) in paper.iter().zip(&population) {
        assert_eq!(a.profile.name, b.profile.name);
        assert_eq!(a.store.export_jsonl(), b.store.export_jsonl(), "{}", a.profile.name);
    }
}
