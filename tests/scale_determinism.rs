//! Determinism at the scaled web axis (`--sites N`).
//!
//! The generator's contract is *prefix stability*: growing the tail
//! must never perturb the head. The paper's 1,000 sites are the first
//! 1,000 sites of the 10k (and 100k) worlds, byte for byte, which is
//! what keeps `repro_output.md` identical while `bench_scale` pushes
//! the same pipeline to 100k sites. And at the grown scale, the fleet
//! must still be a pure reordering: jobs 1 and jobs 8 capture the
//! exact same flows.

use panoptes_suite::panoptes::fleet::FleetOptions;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

const SEED: u64 = 0x50414e4f;

fn head_config() -> GeneratorConfig {
    GeneratorConfig { popular: 500, sensitive: 500, seed: SEED, tail: 0 }
}

fn tailed_config(tail: u32) -> GeneratorConfig {
    GeneratorConfig { tail, ..head_config() }
}

#[test]
fn ten_k_world_keeps_the_paper_sites_as_a_byte_identical_prefix() {
    let head = World::build(&head_config());
    let tailed = World::build(&tailed_config(9_000));
    assert_eq!(head.sites.len(), 1_000);
    assert_eq!(tailed.sites.len(), 10_000);

    for (i, (h, t)) in head.sites.iter().zip(&tailed.sites).enumerate() {
        assert_eq!(h, t, "site {i} changed when the tail was added");
    }
    // The head sites' addresses are stable too: the tail allocates its
    // IPs after the head, never in between.
    for site in &head.sites {
        assert_eq!(
            head.ip_of(&site.host),
            tailed.ip_of(&site.host),
            "{} moved when the tail was added",
            site.host
        );
    }
    // And the tail is really there, serving distinct domains.
    let tail_site = &tailed.sites[5_000];
    assert!(tail_site.tail, "site 5000 should come from the deep tail");
    assert!(tailed.ip_of(&tail_site.host).is_some());
}

#[test]
fn tail_generation_is_deterministic_across_builds() {
    let a = World::build(&tailed_config(9_000));
    let b = World::build(&tailed_config(9_000));
    assert_eq!(a.sites, b.sites);
    for site in &a.sites {
        assert_eq!(a.ip_of(&site.host), b.ip_of(&site.host), "{}", site.host);
    }
}

#[test]
fn ten_k_crawl_is_byte_identical_across_fleet_widths() {
    use panoptes_suite::panoptes::campaign::run_crawl;
    use panoptes_suite::panoptes::config::CampaignConfig;
    use panoptes_suite::panoptes::fleet::{self, FleetUnit, UnitOutput};

    // Two browsers with distinct instrumentation paths keep the debug
    // run affordable while still exercising the fleet merge.
    let profiles: Vec<_> = ["Chrome", "Yandex"]
        .iter()
        .map(|n| panoptes_suite::browsers::registry::profile_by_name(n).expect("known"))
        .collect();
    let world = World::shared(&tailed_config(9_000));
    let config = CampaignConfig { seed: SEED, ..Default::default() };

    let seq: Vec<_> =
        profiles.iter().map(|p| run_crawl(&world, p, &world.sites, &config)).collect();
    let units: Vec<FleetUnit> = profiles.iter().cloned().map(FleetUnit::crawl).collect();
    let par: Vec<_> =
        fleet::run_units(&world, &world.sites, &config, &units, &FleetOptions::with_jobs(8))
            .expect("fleet crawl")
            .into_iter()
            .filter_map(UnitOutput::into_crawl)
            .collect();

    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.profile.name, p.profile.name);
        assert_eq!(
            s.store.export_jsonl(),
            p.store.export_jsonl(),
            "{}: capture diverged between jobs 1 and jobs 8 at 10k sites",
            s.profile.name
        );
        assert_eq!(s.visits.len(), 10_000);
    }
}
