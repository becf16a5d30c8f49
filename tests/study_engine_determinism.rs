//! The fused study engine's headline guarantee, enforced end-to-end at
//! the workspace level: the rendered study report is **byte-identical**
//! whether the analysis runs
//!
//! * as the legacy multi-pass (one snapshot iteration per detector),
//! * as the fused single pass ([`analyze_study`]),
//! * sharded across any fleet worker count,
//! * or overlapped with capture by the study pipeline
//!   ([`pipeline::run`] — each sealed capture is analysed on the worker
//!   that produced it while later campaigns are still crawling).
//!
//! Fusion, sharding and overlap buy wall-clock time only, never a
//! different report.

use panoptes::campaign::run_crawl;
use panoptes::fleet::FleetOptions;
use panoptes::idle::run_idle;
use panoptes_analysis::engine::{
    analyze_crawl_sharded, analyze_idle_sharded, analyze_study, analyze_study_jobs,
    AnalysisResources, StudyAnalyses,
};
use panoptes_analysis::summary::{study_report_from, study_report_multipass};
use panoptes_bench::experiments::Scale;
use panoptes_bench::pipeline::{self, StudyPlan};
use panoptes_browsers::registry::all_profiles;
use panoptes_simnet::clock::SimDuration;

const IDLE: SimDuration = SimDuration::from_secs(120);

#[test]
fn fused_sharded_and_overlapped_reports_are_byte_identical() {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();

    let profiles = all_profiles();
    let crawls: Vec<_> =
        profiles.iter().map(|p| run_crawl(&world, p, &world.sites, &config)).collect();
    let idles: Vec<_> = profiles.iter().map(|p| run_idle(&world, p, IDLE, &config)).collect();
    let reference = study_report_multipass(&crawls, &idles);
    let res = AnalysisResources::standard();

    // Fused single pass.
    assert_eq!(
        reference,
        study_report_from(&analyze_study(&crawls, &idles, &res)),
        "fused report diverged from the legacy multi-pass"
    );

    // Campaign-level parallel analysis over the same captures.
    for jobs in [2usize, 8] {
        let analyses = analyze_study_jobs(&crawls, &idles, &res, &FleetOptions::with_jobs(jobs))
            .unwrap_or_else(|e| panic!("campaign-parallel analysis failed at jobs={jobs}: {e}"));
        assert_eq!(
            reference,
            study_report_from(&analyses),
            "campaign-parallel report diverged at jobs={jobs}"
        );
    }

    // Flow-level sharding of the fused pass inside each campaign.
    for jobs in [3usize, 8] {
        let options = FleetOptions::with_jobs(jobs);
        let sharded = StudyAnalyses {
            crawls: crawls.iter().map(|r| analyze_crawl_sharded(r, &res, &options)).collect(),
            idles: idles.iter().map(|r| analyze_idle_sharded(r, &options)).collect(),
        };
        assert_eq!(
            reference,
            study_report_from(&sharded),
            "flow-sharded report diverged at jobs={jobs}"
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
            reference,
            study_report_from(&analyses),
            "pipeline report diverged at jobs={jobs}"
        );
    }
}
