//! Capture footprint: the first seal of a capture moves its flows into
//! the arena instead of copying them, and the fused crawl analysis keeps
//! nothing of a capture once its result is dropped.
//!
//! One `#[test]` only, so no other test allocates in parallel while the
//! counting allocator's totals are read.

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_bench::experiments::{crawl_population_jobs, Scale};
use panoptes_bench::mem::{self, CountingAlloc};
use panoptes_mitm::Flow;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// How far live bytes may drift across one analysis: allocator and
/// runtime noise, not a per-flow cost (the measured capture has
/// thousands of flows).
const RETENTION_SLACK_BYTES: u64 = 64 * 1024;

#[test]
fn first_seal_moves_flows_and_analysis_retains_nothing() {
    let scale = Scale::quick();
    let res = AnalysisResources::standard();
    let (_world, results) =
        crawl_population_jobs(&scale, &FleetOptions::with_jobs(1), 2).expect("quick-scale crawl");

    // Warm-up on a different capture: obs handles, lazy statics and the
    // matcher tables exist before anything is measured.
    drop(analyze_crawl(&results[0], &res));

    // (a) The first seal of a never-sealed store moves its flows.
    let measured = &results[1];
    let flows = measured.store.len();
    assert!(flows > 1000, "quick-scale capture has {flows} flows");
    let before = mem::allocated_bytes();
    let snap = measured.store.snapshot();
    let sealed = mem::allocated_bytes() - before;
    let copy = (flows * std::mem::size_of::<Flow>()) as u64;
    assert_eq!(snap.len(), flows);
    assert!(
        sealed < copy,
        "first seal allocated {sealed} bytes, a copy of {flows} flows is {copy}"
    );
    drop(snap);

    // (b) The analysis of the sealed capture keeps nothing once its
    // result is dropped: per-flow facts die with their flow.
    let live = mem::live_bytes();
    drop(analyze_crawl(measured, &res));
    let retained = mem::live_bytes().saturating_sub(live);
    assert!(
        retained <= RETENTION_SLACK_BYTES,
        "analyze_crawl retained {retained} bytes over a {flows}-flow capture"
    );
}
