//! Records the analysis-path perf trajectory as `BENCH_analysis.json`.
//!
//! Measures, with plain wall-clock timing (no Criterion machinery, so
//! the numbers are trivially reproducible):
//!
//! * the ~10-pass extraction workload — cloning + reparse baseline vs
//!   sealed snapshot + `FlowFacts`. The two arms run under
//!   `panoptes_bench::ab::isolated`: each rep builds a **fresh**
//!   capture (untimed) for each arm, because the facts cache is parked
//!   in the sealed snapshot — reusing one capture across reps would
//!   hand the snapshot arm a pre-warmed cache and corrupt the A/B. The
//!   bench asserts the isolation (every rep seals a distinct
//!   snapshot) rather than trusting it;
//! * the full study report (flows/sec through `study_report`);
//! * `FilterList::should_block` over a 1.5k-rule list — reference
//!   linear scan vs indexed engine, interleaved rep-by-rep
//!   (matches/sec; the list is immutable shared state, so
//!   interleaving, not isolation, is the right protocol).
//!
//! All sections follow the `ab` protocol: warmup iterations are
//! excluded from every statistic, and the JSON records the protocol
//! (warmups/reps) plus per-section spread, not just the best sample.
//!
//! Usage: `bench_analysis [output.json]` (default `BENCH_analysis.json`).

use std::collections::HashSet;
use std::sync::Arc;

use panoptes::campaign::{run_crawl, CampaignResult};
use panoptes::idle::run_idle;
use panoptes_analysis::facts::capture_facts;
use panoptes_analysis::scan::{decodings, observations};
use panoptes_analysis::summary::study_report;
use panoptes_bench::ab::{self, AbConfig, ArmStats};
use panoptes_bench::experiments::Scale;
use panoptes_bench::{mem, perf};
use panoptes_browsers::registry::all_profiles;
use panoptes_simnet::clock::SimDuration;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

const PASSES: usize = 10;
const WARMUPS: usize = 1;
const REPS: usize = 5;

/// `"best": .., "mean": .., "p90": .."` for one sample set.
fn spread_json(stats: &ArmStats) -> String {
    format!(
        "\"best_secs\": {:.6}, \"mean_secs\": {:.6}, \"p90_secs\": {:.6}, \"samples\": {}",
        stats.best(),
        stats.mean(),
        stats.percentile(90.0),
        stats.secs.len()
    )
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_analysis.json".into());
    let protocol = AbConfig::new(WARMUPS, REPS);

    eprintln!("building quick-scale study capture…");
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();
    let profiles = all_profiles();
    let capture_crawls = || -> Vec<CampaignResult> {
        profiles.iter().map(|p| run_crawl(&world, p, &world.sites, &config)).collect()
    };
    let crawls = capture_crawls();
    let idles: Vec<_> = profiles
        .iter()
        .map(|p| run_idle(&world, p, SimDuration::from_secs(120), &config))
        .collect();
    let crawl_flows: u64 = crawls.iter().map(|r| r.store.len() as u64).sum();
    let total_flows: u64 =
        crawl_flows + idles.iter().map(|r| r.store.len() as u64).sum::<u64>();

    eprintln!(
        "extraction A/B: isolated arms, fresh capture per rep ({WARMUPS} warmup + {REPS} reps)…"
    );
    let mut clone_sinks: Vec<usize> = Vec::new();
    let mut snap_sinks: Vec<usize> = Vec::new();
    let mut sealed = Vec::new();
    let extraction = ab::isolated(
        protocol,
        "cloning_reparse",
        capture_crawls,
        |fresh| {
            let mut sink = 0usize;
            for r in &fresh {
                for _ in 0..PASSES {
                    for flow in r.store.all() { // clone-ok: this IS the pre-refactor baseline
                        for obs in observations(&flow) {
                            sink += decodings(&obs.value).len();
                        }
                    }
                }
            }
            clone_sinks.push(sink);
        },
        "snapshot_facts",
        capture_crawls,
        |fresh| {
            let mut sink = 0usize;
            for r in &fresh {
                let snap = r.store.snapshot();
                sealed.push(snap.clone());
                let facts = capture_facts(&snap);
                for _ in 0..PASSES {
                    for view in facts.views(snap.all()) {
                        for (_, decoded) in view.decoded_observations() {
                            sink += decoded.len();
                        }
                    }
                }
            }
            snap_sinks.push(sink);
        },
    );
    // Both arms agree on the workload, on every rep (warmups included).
    assert!(
        clone_sinks.iter().chain(&snap_sinks).all(|&s| s == clone_sinks[0]),
        "paths disagreed on the extraction workload"
    );
    // Arm isolation: every rep sealed its own snapshot, so no rep ever
    // saw another rep's warm facts cache. The Arcs in `sealed` are
    // still alive here, so distinct addresses mean distinct snapshots.
    let distinct: HashSet<usize> = sealed.iter().map(|s| Arc::as_ptr(s) as usize).collect();
    assert_eq!(
        distinct.len(),
        sealed.len(),
        "A/B contamination: a facts cache was shared across reps"
    );
    drop(sealed);

    eprintln!("full study report…");
    let mut report_len = 0usize;
    let report = ArmStats::from_samples(
        "full_report",
        ab::samples(protocol, || report_len = study_report(&crawls, &idles).len()),
    );

    eprintln!("filterlist: 1.5k rules, interleaved arms…");
    let list = perf::synthetic_filterlist(1200, 300);
    let urls = perf::filterlist_workload(2000);
    let (mut linear_hits, mut indexed_hits) = (0usize, 0usize);
    let filter = ab::interleaved(
        protocol,
        "linear",
        || linear_hits = urls.iter().filter(|(h, u)| list.should_block_linear(h, u)).count(),
        "indexed",
        || indexed_hits = urls.iter().filter(|(h, u)| list.should_block(h, u)).count(),
    );
    assert_eq!(linear_hits, indexed_hits, "filterlist engines diverged");

    let extraction_flows = (crawl_flows as usize * PASSES) as f64;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"analysis\",\n",
            "  \"scale\": \"quick\",\n",
            "  \"capture_flows\": {capture_flows},\n",
            "  \"extraction_passes\": {passes},\n",
            "  \"protocol\": {{ \"warmups\": {warmups}, \"reps\": {reps}, \"estimator\": \"best\" }},\n",
            "  \"extraction\": {{\n",
            "    \"arm_isolated\": true,\n",
            "    \"cloning_reparse\": {{ {clone_spread} }},\n",
            "    \"cloning_reparse_flows_per_sec\": {clone_rate:.0},\n",
            "    \"snapshot_facts\": {{ {snap_spread} }},\n",
            "    \"snapshot_facts_flows_per_sec\": {snap_rate:.0},\n",
            "    \"speedup\": {extract_speedup:.2}\n",
            "  }},\n",
            "  \"full_report\": {{\n",
            "    {report_spread},\n",
            "    \"flows_per_sec\": {report_rate:.0},\n",
            "    \"report_bytes\": {report_len}\n",
            "  }},\n",
            "  \"filterlist\": {{\n",
            "    \"rules\": {rules},\n",
            "    \"urls\": {url_count},\n",
            "    \"hits\": {hits},\n",
            "    \"linear\": {{ {linear_spread} }},\n",
            "    \"linear_matches_per_sec\": {linear_rate:.0},\n",
            "    \"indexed\": {{ {indexed_spread} }},\n",
            "    \"indexed_matches_per_sec\": {indexed_rate:.0},\n",
            "    \"speedup\": {filter_speedup:.2}\n",
            "  }},\n",
            "{mem}\n",
            "}}\n",
        ),
        capture_flows = total_flows,
        passes = PASSES,
        warmups = WARMUPS,
        reps = REPS,
        clone_spread = spread_json(&extraction.a),
        clone_rate = extraction_flows / extraction.a.best(),
        snap_spread = spread_json(&extraction.b),
        snap_rate = extraction_flows / extraction.b.best(),
        extract_speedup = extraction.speedup_best(),
        report_spread = spread_json(&report),
        report_rate = total_flows as f64 / report.best(),
        report_len = report_len,
        rules = list.len(),
        url_count = urls.len(),
        hits = indexed_hits,
        linear_spread = spread_json(&filter.a),
        linear_rate = urls.len() as f64 / filter.a.best(),
        indexed_spread = spread_json(&filter.b),
        indexed_rate = urls.len() as f64 / filter.b.best(),
        filter_speedup = filter.speedup_best(),
        mem = mem::report_json(),
    );

    std::fs::write(&out_path, &json).expect("write benchmark record");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
