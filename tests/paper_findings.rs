//! End-to-end reproduction of the paper's summary findings (§5) at a
//! reduced scale: the six numbered conclusions, each re-derived from the
//! wire through the full pipeline.

use panoptes_suite::analysis::addomains::figure3;
use panoptes_suite::analysis::dns::doh_split;
use panoptes_suite::analysis::history::{summarize_leaks, LeakGranularity};
use panoptes_suite::analysis::incognito::compare;
use panoptes_suite::analysis::pii::table2;
use panoptes_suite::analysis::sensitive::sensitive_row;
use panoptes_suite::analysis::transfers::transfers;
use panoptes_suite::analysis::volume::figure2;
use panoptes_suite::browsers::registry::{all_profiles, profile_by_name};
use panoptes_suite::browsers::PiiField;
use panoptes_suite::device::DeviceProperties;
use panoptes_suite::geo::GeoDb;
use panoptes_suite::panoptes::campaign::{run_crawl, CampaignResult};
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn study() -> (World, Vec<CampaignResult>) {
    let world = World::build(&GeneratorConfig { popular: 12, sensitive: 8, ..Default::default() });
    let config = CampaignConfig::default();
    let results =
        all_profiles().iter().map(|p| run_crawl(&world, p, &world.sites, &config)).collect();
    (world, results)
}

#[test]
fn finding1_native_traffic_can_reach_a_third_of_total() {
    // §5(1): native requests "can amount to as high as 1/3 of the total
    // generated traffic", with Edge and Yandex at the top.
    let (_, results) = study();
    let rows = figure2(&results);
    let over_third: Vec<&str> = rows
        .iter()
        .filter(|r| r.request_ratio > 1.0 / 3.0)
        .map(|r| r.browser.as_str())
        .collect();
    for name in ["Edge", "Yandex", "Vivaldi", "Whale", "CocCoc"] {
        assert!(over_third.contains(&name), "{name} should exceed 1/3: {rows:?}");
    }
    // And the quiet ones stay quiet.
    for r in &rows {
        if ["Chrome", "Brave", "DuckDuckGo"].contains(&r.browser.as_str()) {
            assert!(r.request_ratio < 0.10, "{}: {}", r.browser, r.request_ratio);
        }
    }
}

#[test]
fn finding2_three_browsers_report_the_exact_page() {
    // §5(2): Yandex, QQ and UC International report the exact page and
    // content being browsed.
    let (_, results) = study();
    let full_url_leakers: Vec<String> = results
        .iter()
        .map(summarize_leaks)
        .filter(|s| s.worst == Some(LeakGranularity::FullUrl))
        .map(|s| s.browser)
        .collect();
    assert_eq!(
        full_url_leakers,
        vec!["Yandex".to_string(), "QQ".to_string(), "UC International".to_string()]
    );
}

#[test]
fn finding3_yandex_attaches_a_persistent_identifier() {
    // §5(3): Yandex reports together with a persistent identifier, so
    // users can be tracked across Tor / proxies / VPNs.
    let (_, results) = study();
    for r in &results {
        let s = summarize_leaks(r);
        if r.profile.name == "Yandex" {
            assert!(s.persistent, "yandex leak must carry the identifier");
        } else {
            assert!(!s.persistent, "{} should not", r.profile.name);
        }
    }
}

#[test]
fn finding4_incognito_and_sensitive_content_change_nothing() {
    // §5(4): leaking continues in incognito mode and for sensitive
    // categories.
    let world = World::build(&GeneratorConfig { popular: 8, sensitive: 8, ..Default::default() });
    let cfg = CampaignConfig::default();
    for name in ["Edge", "Opera", "UC International"] {
        let p = profile_by_name(name).unwrap();
        let normal = run_crawl(&world, &p, &world.sites, &cfg);
        let incog = run_crawl(&world, &p, &world.sites, &cfg.clone().incognito());
        assert!(compare(&normal, &incog).still_leaks, "{name}");
    }
    for name in ["Yandex", "QQ", "UC International"] {
        let p = profile_by_name(name).unwrap();
        let r = run_crawl(&world, &p, &world.sites, &cfg);
        let row = sensitive_row(&r);
        assert_eq!(row.sensitive_urls_leaked, row.sensitive_visits, "{name}");
    }
}

#[test]
fn finding5_leaks_travel_outside_the_eu() {
    // §5(5): the full-detail leaks land in Russia, China and Canada.
    let (_, results) = study();
    let geo = GeoDb::standard();
    let rows = transfers(&results, &geo);
    let expect = [("Yandex", "RU"), ("QQ", "CN"), ("UC International", "CA")];
    for (browser, country) in expect {
        let row = rows
            .iter()
            .find(|r| r.browser == browser && r.granularity == LeakGranularity::FullUrl)
            .unwrap_or_else(|| panic!("{browser} missing from transfers"));
        assert!(row.leaves_eu, "{browser}");
        assert!(
            row.destinations.iter().any(|(_, c)| c.as_str() == country),
            "{browser} → {country}: {:?}",
            row.destinations
        );
    }
}

#[test]
fn finding6_ad_servers_and_pii() {
    // §5(6): Opera/CocCoc/Dolphin/Mint talk to third-party ad and
    // analytics servers while leaking PII and device identifiers.
    let (_, results) = study();
    let fig3 = figure3(&results);
    for name in ["Opera", "CocCoc", "Dolphin", "Mint", "Kiwi", "Edge", "Yandex", "QQ"] {
        let row = fig3.iter().find(|r| r.browser == name).unwrap();
        assert!(row.ad_percent > 0.0, "{name} must contact ad servers");
    }
    let zero: Vec<&str> = fig3
        .iter()
        .filter(|r| r.ad_percent == 0.0)
        .map(|r| r.browser.as_str())
        .collect();
    assert_eq!(zero.len(), 7, "8 of 15 browsers contact ad servers: {zero:?}");

    let props = DeviceProperties::testbed_tablet();
    let t2 = table2(&results, &props);
    let opera = t2.iter().find(|r| r.browser == "Opera").unwrap();
    assert!(opera.leaks(PiiField::Location));
    let whale = t2.iter().find(|r| r.browser == "Whale").unwrap();
    assert!(whale.leaks(PiiField::LocalIp) && whale.leaks(PiiField::RootedStatus));
}

#[test]
fn table2_matches_paper_exactly() {
    // The full 15×12 matrix, cell for cell, as printed in the paper.
    let (_, results) = study();
    let props = DeviceProperties::testbed_tablet();
    let rows = table2(&results, &props);

    use PiiField::*;
    let expected: &[(&str, &[PiiField])] = &[
        ("Chrome", &[]),
        ("Edge", &[DeviceManufacturer, Timezone, Resolution, Locale, ConnectionType, NetworkType]),
        ("Opera", &[DeviceManufacturer, Timezone, Resolution, Locale, Country, Location, NetworkType]),
        ("Vivaldi", &[Resolution]),
        ("Yandex", &[DeviceType, DeviceManufacturer, Resolution, Dpi, Locale, NetworkType]),
        ("Brave", &[]),
        ("Samsung", &[Locale]),
        ("DuckDuckGo", &[]),
        ("Dolphin", &[]),
        ("Whale", &[Resolution, LocalIp, RootedStatus, Locale, Country, NetworkType]),
        ("Mint", &[Timezone, Resolution, Locale, Country]),
        ("Kiwi", &[]),
        ("CocCoc", &[DeviceType, DeviceManufacturer, Resolution, Locale, Country]),
        ("QQ", &[DeviceType, DeviceManufacturer, Resolution]),
        ("UC International", &[Locale, NetworkType]),
    ];
    for (browser, fields) in expected {
        let row = rows.iter().find(|r| r.browser == *browser).unwrap();
        for field in PiiField::ALL {
            assert_eq!(
                row.leaks(field),
                fields.contains(&field),
                "{browser} / {field:?}: got {:?}",
                row.leaked
            );
        }
    }
}

#[test]
fn dns_split_matches_paper() {
    let (_, results) = study();
    let (_, doh, stub) = doh_split(&results);
    assert_eq!((doh, stub), (8, 7));
}
