//! Robustness to the workload seed: the paper's *qualitative* findings
//! must not depend on which synthetic web was generated. Two disjoint
//! seeds produce different sites, different page structures and
//! different identifiers — and identical conclusions.

use panoptes_suite::analysis::dns::doh_split;
use panoptes_suite::analysis::history::{summarize_leaks, LeakGranularity};
use panoptes_suite::analysis::pii::table2;
use panoptes_suite::browsers::registry::all_profiles;
use panoptes_suite::device::DeviceProperties;
use panoptes_suite::panoptes::campaign::{run_crawl, CampaignResult};
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn study(seed: u64) -> Vec<CampaignResult> {
    let world = World::build(&GeneratorConfig { popular: 6, sensitive: 4, seed, tail: 0 });
    let config = CampaignConfig { seed, ..Default::default() };
    all_profiles().iter().map(|p| run_crawl(&world, p, &world.sites, &config)).collect()
}

#[test]
fn qualitative_findings_are_seed_invariant() {
    let seed_a = study(0xA11CE);
    let seed_b = study(0xB0B);

    // The generated webs differ...
    let url_a = &seed_a[0].visits[5].url;
    let url_b = &seed_b[0].visits[5].url;
    assert_eq!(url_a, url_b, "site names are seed-independent by design");
    // ...but identifiers and page structures differ:
    assert_ne!(
        seed_a[0].store.export_jsonl(),
        seed_b[0].store.export_jsonl(),
        "captures must differ across seeds"
    );

    for (a, b) in seed_a.iter().zip(&seed_b) {
        assert_eq!(a.profile.name, b.profile.name);
        let la = summarize_leaks(a);
        let lb = summarize_leaks(b);
        assert_eq!(la.worst, lb.worst, "{}: leak class flipped across seeds", a.profile.name);
        assert_eq!(
            la.destinations, lb.destinations,
            "{}: destinations changed",
            a.profile.name
        );
        assert_eq!(la.persistent, lb.persistent, "{}", a.profile.name);
        assert_eq!(la.via_injection, lb.via_injection, "{}", a.profile.name);
    }

    // The DoH split and the Table 2 matrix are identical too.
    let (_, doh_a, stub_a) = doh_split(&seed_a);
    let (_, doh_b, stub_b) = doh_split(&seed_b);
    assert_eq!((doh_a, stub_a), (doh_b, stub_b));

    let props = DeviceProperties::testbed_tablet();
    let t2_a = table2(&seed_a, &props);
    let t2_b = table2(&seed_b, &props);
    for (ra, rb) in t2_a.iter().zip(&t2_b) {
        let fields_a: Vec<_> = ra.leaked.iter().map(|(f, _)| *f).collect();
        let fields_b: Vec<_> = rb.leaked.iter().map(|(f, _)| *f).collect();
        assert_eq!(fields_a, fields_b, "{}: Table 2 row changed across seeds", ra.browser);
    }
}

#[test]
fn yandex_identifier_differs_across_seeds_but_class_does_not() {
    // The persistent identifier is per-install (seeded), so two installs
    // carry different IDs — yet both are detected as persistent tracking.
    let a = study(1);
    let b = study(2);
    let find_id = |results: &[CampaignResult]| -> String {
        results
            .iter()
            .find(|r| r.profile.name == "Yandex")
            .and_then(|r| {
                panoptes_suite::analysis::history::detect_history_leaks(r)
                    .into_iter()
                    .find_map(|l| l.persistent_id)
            })
            .expect("yandex id detected")
    };
    let id_a = find_id(&a);
    let id_b = find_id(&b);
    assert_ne!(id_a, id_b, "different installs, different identifiers");
    assert_eq!(id_a.len(), 64);
    // And the granularity classification is stable.
    for results in [&a, &b] {
        let yandex = results.iter().find(|r| r.profile.name == "Yandex").unwrap();
        assert_eq!(summarize_leaks(yandex).worst, Some(LeakGranularity::FullUrl));
    }
}
