//! Analysis-path benchmarks: the zero-copy refactor's two claims.
//!
//! 1. **Extraction** — a study's ~10 passes re-reading one capture.
//!    The cloning baseline re-materialises the store (`all()` deep
//!    clone) and re-parses every URL/body per pass, exactly what the
//!    analysis crate did before the sealed-snapshot + `FlowFacts`
//!    migration; the snapshot path shares `Arc<Flow>` records and
//!    memoised parse results across passes.
//! 2. **Filterlist** — `should_block` over a ≥1k-rule list: the
//!    indexed engine (anchor suffix set + rare-byte substring buckets)
//!    against the reference linear scan.
//!
//! `src/bin/bench_analysis.rs` records the same comparisons as
//! `BENCH_analysis.json` for the perf trajectory.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use panoptes::campaign::run_crawl;
use panoptes::idle::run_idle;
use panoptes_analysis::facts::capture_facts;
use panoptes_analysis::scan::{decodings, observations};
use panoptes_analysis::summary::study_report;
use panoptes_bench::experiments::Scale;
use panoptes_bench::perf;
use panoptes_browsers::registry::all_profiles;
use panoptes_simnet::clock::SimDuration;

/// Passes a full study makes over each capture (history runs the
/// extraction twice, PII/identifiers/sensitive once each, …).
const PASSES: usize = 10;

fn extraction(c: &mut Criterion) {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();
    let crawls: Vec<_> =
        all_profiles().iter().map(|p| run_crawl(&world, p, &world.sites, &config)).collect();
    let total_flows: u64 = crawls.iter().map(|r| r.store.len() as u64).sum();

    let mut group = c.benchmark_group("analysis_extraction_quick");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_flows * PASSES as u64));
    group.bench_function("cloning + reparse (pre-refactor baseline)", |b| {
        b.iter(|| {
            let mut sink = 0usize;
            for r in &crawls {
                for _ in 0..PASSES {
                    for flow in r.store.all() {
                        for obs in observations(&flow) {
                            sink += decodings(&obs.value).len();
                        }
                    }
                }
            }
            black_box(sink)
        })
    });
    group.bench_function("snapshot + facts (parse-once)", |b| {
        b.iter(|| {
            let mut sink = 0usize;
            for r in &crawls {
                let snap = r.store.snapshot();
                let facts = capture_facts(&snap);
                for _ in 0..PASSES {
                    for view in facts.views(snap.all()) {
                        for (_, decoded) in view.decoded_observations() {
                            sink += decoded.len();
                        }
                    }
                }
            }
            black_box(sink)
        })
    });
    group.finish();
}

fn full_report(c: &mut Criterion) {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();
    let profiles = all_profiles();
    let crawls: Vec<_> =
        profiles.iter().map(|p| run_crawl(&world, p, &world.sites, &config)).collect();
    let idles: Vec<_> = profiles
        .iter()
        .map(|p| run_idle(&world, p, SimDuration::from_secs(120), &config))
        .collect();
    let total_flows: u64 = crawls.iter().map(|r| r.store.len() as u64).sum::<u64>()
        + idles.iter().map(|r| r.store.len() as u64).sum::<u64>();

    let mut group = c.benchmark_group("study_report_quick");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_flows));
    group.bench_function("full study report (snapshot path)", |b| {
        b.iter(|| black_box(study_report(&crawls, &idles).len()))
    });
    group.finish();
}

fn filterlist(c: &mut Criterion) {
    let list = perf::synthetic_filterlist(1200, 300);
    let urls = perf::filterlist_workload(2000);
    assert!(list.len() >= 1000, "bench demands a ≥1k-rule list");

    let mut group = c.benchmark_group("filterlist_1500_rules");
    group.sample_size(10);
    group.throughput(Throughput::Elements(urls.len() as u64));
    group.bench_function("linear scan (reference)", |b| {
        b.iter(|| {
            let hits = urls
                .iter()
                .filter(|(h, u)| list.should_block_linear(h, u))
                .count();
            black_box(hits)
        })
    });
    group.bench_function("indexed (anchor set + rare-byte buckets)", |b| {
        b.iter(|| {
            let hits = urls.iter().filter(|(h, u)| list.should_block(h, u)).count();
            black_box(hits)
        })
    });
    group.finish();

    // The two engines must agree on the whole workload, every run.
    let indexed: Vec<bool> = urls.iter().map(|(h, u)| list.should_block(h, u)).collect();
    let linear: Vec<bool> =
        urls.iter().map(|(h, u)| list.should_block_linear(h, u)).collect();
    assert_eq!(indexed, linear, "engines diverged on the bench workload");
}

criterion_group!(benches, extraction, full_report, filterlist);
criterion_main!(benches);
