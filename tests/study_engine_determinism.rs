//! The study engine's headline guarantee, enforced end-to-end at the
//! workspace level: the rendered study report is **byte-identical** to
//! the committed `tests/golden/study_quick.json` whether the analysis
//! runs
//!
//! * as the fused single pass ([`analyze_study`]),
//! * spread campaign by campaign over any fleet worker count
//!   ([`analyze_study_jobs`]),
//! * or overlapped with capture by the study pipeline
//!   ([`pipeline::run`] — each sealed capture is analysed on the worker
//!   that produced it while later campaigns are still crawling).
//!
//! The golden file was rendered by the one-pass-per-detector report
//! that preceded the fused engine, so it also pins the engine to that
//! older, independent implementation. Parallelism and overlap buy
//! wall-clock time only, never a different report.

use panoptes::campaign::run_crawl;
use panoptes::fleet::FleetOptions;
use panoptes::idle::run_idle;
use panoptes_analysis::engine::{analyze_study, analyze_study_jobs, AnalysisResources};
use panoptes_analysis::summary::study_report_from;
use panoptes_bench::experiments::Scale;
use panoptes_bench::pipeline::{self, StudyPlan};
use panoptes_browsers::registry::all_profiles;
use panoptes_simnet::clock::SimDuration;

const IDLE: SimDuration = SimDuration::from_secs(120);

/// The quick-scale study report: all 15 browsers' crawls plus a
/// 120-second idle run each.
const GOLDEN: &str = include_str!("golden/study_quick.json");

#[test]
fn fused_parallel_and_pipeline_reports_match_the_golden_file() {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();

    let profiles = all_profiles();
    let crawls: Vec<_> =
        profiles.iter().map(|p| run_crawl(&world, p, &world.sites, &config)).collect();
    let idles: Vec<_> = profiles.iter().map(|p| run_idle(&world, p, IDLE, &config)).collect();
    let res = AnalysisResources::standard();

    // Fused single pass.
    assert_eq!(
        GOLDEN,
        study_report_from(&analyze_study(&crawls, &idles, &res)),
        "fused report diverged from the golden file"
    );

    // Campaign-level parallel analysis over the same captures.
    for jobs in [2usize, 8] {
        let analyses = analyze_study_jobs(&crawls, &idles, &res, &FleetOptions::with_jobs(jobs))
            .unwrap_or_else(|e| panic!("campaign-parallel analysis failed at jobs={jobs}: {e}"));
        assert_eq!(
            GOLDEN,
            study_report_from(&analyses),
            "campaign-parallel report diverged at jobs={jobs}"
        );
    }

    // The study pipeline (capture→analysis overlap), sequential and
    // parallel.
    let plan = StudyPlan::new(&profiles, &config, false, Some(IDLE));
    for jobs in [1usize, 8] {
        let options = FleetOptions::with_jobs(jobs);
        let (_, analyses) = pipeline::run(&world, &config, &plan, &res, &options, |_, _| {})
            .unwrap_or_else(|e| panic!("study pipeline failed at jobs={jobs}: {e}"));
        assert_eq!(
            GOLDEN,
            study_report_from(&analyses),
            "pipeline report diverged at jobs={jobs}"
        );
    }
}
