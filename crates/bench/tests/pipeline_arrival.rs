//! The section assembler is indifferent to arrival order. The study
//! server feeds it units in completion order, which varies run to run;
//! here one quick-scale study's unit outputs are fed in order, reversed
//! and in a seeded shuffle, and every order must assemble the document
//! `repro` prints, byte for byte.

use std::process::Command;

use panoptes::fleet::{self, FleetOptions, UnitOutput};
use panoptes_analysis::engine::AnalysisResources;
use panoptes_bench::experiments::{population_for, Scale};
use panoptes_bench::pipeline::StudyPlan;
use panoptes_bench::render;

/// The document assembled from `outputs` fed in `order`.
fn assemble(scale: &Scale, plan: &StudyPlan, outputs: &[UnitOutput], order: &[usize]) -> String {
    let res = AnalysisResources::standard();
    let mut assembler = plan.assembler(false);
    let mut doc = render::header_md(scale);
    for &index in order {
        let output = match &outputs[index] {
            UnitOutput::Crawl(r) => UnitOutput::Crawl(r.clone()),
            UnitOutput::Idle(r) => UnitOutput::Idle(r.clone()),
        };
        for (_, text) in assembler.accept(index, plan.analyze(index, output, &res)) {
            doc.push_str(&text);
        }
    }
    assert!(assembler.is_complete());
    doc
}

/// A Fisher–Yates shuffle of `0..n` driven by SplitMix64 from `seed`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

#[test]
fn any_arrival_order_assembles_the_repro_document() {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();
    for population in [1usize, 2, 6, 15] {
        let plan = StudyPlan::new(
            &population_for(&scale, population),
            &config,
            true,
            Some(scale.idle),
        );
        let outputs = fleet::run_units(
            &world,
            &world.sites,
            &config,
            plan.units(),
            &FleetOptions::with_jobs(2),
        )
        .expect("study units");
        let n = outputs.len();

        let repro = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "--quick",
                "--population",
                &population.to_string(),
                "--jobs",
                "1",
            ])
            .output()
            .expect("run repro");
        assert!(
            repro.status.success(),
            "repro --population {population} failed"
        );
        let expected = String::from_utf8(repro.stdout).expect("utf-8 document");

        let in_order: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let shuffle = shuffled(n, 0x5eed ^ population as u64);
        assert_ne!(
            shuffle, in_order,
            "population {population}: the shuffle moved nothing"
        );
        for (name, order) in [
            ("in order", in_order),
            ("reversed", reversed),
            ("shuffled", shuffle),
        ] {
            assert_eq!(
                assemble(&scale, &plan, &outputs, &order),
                expected,
                "population {population}, {name}: assembled document differs from repro"
            );
        }
    }
}
