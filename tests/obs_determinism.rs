//! The metrics report's headline split, enforced end-to-end: every
//! metric classed [`Deterministic`] is a pure function of the workload,
//! so the deterministic section of the report renders **byte-identical**
//! no matter how the study executes — sequentially, or through the
//! study pipeline (capture→analysis overlap) at any worker count from 1
//! to 8.
//! Runtime-class metrics (timings, shard topology, process-lifetime
//! caches) are allowed to differ and are excluded by construction.
//!
//! Metrics are process-global and cumulative, so the whole check lives
//! in one `#[test]` (parallel test threads would interleave counts) and
//! each run is isolated via snapshot deltas.
//!
//! [`Deterministic`]: panoptes_obs::metrics::MetricClass::Deterministic

use panoptes::campaign::run_crawl;
use panoptes::fleet::FleetOptions;
use panoptes::idle::run_idle;
use panoptes_analysis::engine::{analyze_study, AnalysisResources};
use panoptes_bench::experiments::Scale;
use panoptes_bench::pipeline::{self, StudyPlan};
use panoptes_browsers::registry::all_profiles;
use panoptes_obs::metrics::snapshot;
use panoptes_obs::report::render_deterministic;
use panoptes_simnet::clock::SimDuration;

const IDLE: SimDuration = SimDuration::from_secs(120);

#[test]
fn deterministic_metrics_identical_across_jobs_and_overlap() {
    let scale = Scale { popular: 8, sensitive: 5, ..Scale::quick() };
    let world = scale.world();
    let config = scale.config();
    let res = AnalysisResources::standard();
    let profiles = all_profiles();
    panoptes_obs::enable(panoptes_obs::METRICS);

    let run_sequential = || {
        let crawls: Vec<_> =
            profiles.iter().map(|p| run_crawl(&world, p, &world.sites, &config)).collect();
        let idles: Vec<_> = profiles.iter().map(|p| run_idle(&world, p, IDLE, &config)).collect();
        std::hint::black_box(analyze_study(&crawls, &idles, &res).crawls.len());
    };

    // Warm-up: registers every metric handle and fills the
    // process-lifetime caches (atom interner, cached site plans) so
    // all measured runs see identical cache state.
    run_sequential();

    let deterministic_of = |run: &dyn Fn()| {
        let before = snapshot();
        run();
        render_deterministic(&snapshot().delta(&before))
    };

    let reference = deterministic_of(&run_sequential);
    for must_have in ["mitm.flows.built", "simnet.dns.queries", "blocklist.probes"] {
        assert!(
            reference.contains(must_have),
            "reference deterministic section is missing {must_have}:\n{reference}"
        );
    }

    // The same workload through the study pipeline at every worker
    // count must tally identically, byte for byte.
    let plan = StudyPlan::new(&profiles, &config, false, Some(IDLE));
    for jobs in 1..=8usize {
        let options = FleetOptions::with_jobs(jobs);
        let pipelined = deterministic_of(&|| {
            let (_, analyses) = pipeline::run(&world, &config, &plan, &res, &options, |_, _| {})
                .unwrap_or_else(|e| panic!("study pipeline failed at jobs={jobs}: {e}"));
            std::hint::black_box(analyses.crawls.len());
        });
        assert_eq!(
            reference, pipelined,
            "deterministic metrics diverged between the sequential path and \
             the study pipeline at jobs={jobs}"
        );
    }

    panoptes_obs::disable(panoptes_obs::METRICS);
}
