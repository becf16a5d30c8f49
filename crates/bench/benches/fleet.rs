//! Fleet executor benchmark: the paper's full study (15 browsers ×
//! crawl + idle) at quick scale, sequential (`jobs=1`) against the
//! fleet worker pool (`jobs=N`). Campaign units share no mutable
//! state, so the parallel path's wall-clock speedup tracks the core
//! count until it runs out of units — while
//! `tests/fleet_determinism.rs` proves the output stays byte-identical
//! whichever row of this bench produced it.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use panoptes::fleet::{self, FleetOptions, FleetUnit};
use panoptes_bench::experiments::{population_for, Scale};
use panoptes_simnet::clock::SimDuration;

fn fleet_full_study(c: &mut Criterion) {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();
    let idle = SimDuration::from_secs(120);
    let profiles = population_for(&scale, 15);
    let mut units: Vec<FleetUnit> = profiles.iter().cloned().map(FleetUnit::crawl).collect();
    units.extend(profiles.into_iter().map(|p| FleetUnit::idle(p, idle)));
    let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // On a single-core host the pool can't beat sequential; still bench
    // a 4-wide pool so the executor's overhead stays visible.
    let wide = parallelism.max(4);

    let mut group = c.benchmark_group("fleet_full_study_quick");
    group.sample_size(5);
    group.throughput(Throughput::Elements(30)); // 15 crawl + 15 idle units
    // One worker runs the units in order on the calling thread.
    for jobs in [1, 2, wide] {
        group.bench_function(&format!("jobs={jobs}"), |b| {
            b.iter(|| {
                let options = FleetOptions::with_jobs(jobs);
                black_box(
                    fleet::run_units(&world, &world.sites, &config, &units, &options)
                        .expect("no unit failures"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, fleet_full_study);
criterion_main!(benches);
