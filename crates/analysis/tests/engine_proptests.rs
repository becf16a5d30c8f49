//! Property-based tests for the fused study engine: for *arbitrary*
//! captures the fused fold ([`CrawlPartials::observe`]) never panics,
//! and every finding it reports points at traffic that could carry it —
//! history leaks at third-party Native/Engine flows, PII and stable
//! identifiers at Native flows, transfers at history-leak destinations.
//!
//! The flow generator deliberately embeds ground-truth leaks (visit
//! URLs at all three granularities, device properties, high-entropy
//! identifiers, sensitive URLs) and sends them to first-party hosts,
//! third parties and a DoH resolver in every flow class, so each
//! detector fires and each of its filters is exercised.

use std::collections::HashSet;

use proptest::prelude::*;

use panoptes_analysis::engine::{CrawlContext, CrawlPartials};
use panoptes_analysis::facts::{FlowFacts, FlowView};
use panoptes_analysis::pii::PiiMatcher;
use panoptes_blocklist::data::steven_black_excerpt;
use panoptes_device::DeviceProperties;
use panoptes_geo::{Country, GeoDb};
use panoptes_http::method::Method;
use panoptes_http::netaddr::{Cidr, IpAddr};
use panoptes_http::request::HttpVersion;
use panoptes_http::url::registrable_domain;
use panoptes_mitm::{Flow, FlowClass, FlowStore};

/// Fixed visit ground truth: two ordinary sites and one sensitive one.
const VISIT_URLS: [&str; 3] = [
    "http://news.site0.com/world/story?id=1",
    "http://shop.site1.net/cart",
    "http://clinic.site2.org/health/advice",
];
const VISIT_HOSTS: [&str; 3] = ["news.site0.com", "shop.site1.net", "clinic.site2.org"];
const VISIT_DOMAINS: [&str; 3] = ["site0.com", "site1.net", "site2.org"];

/// Destinations: a first-party host, a first-party sibling, trackers,
/// and a DoH resolver (exercises the engine's DoH skip).
const HOSTS: [&str; 6] = [
    "news.site0.com",
    "cdn.site1.net",
    "tracker.adnet.io",
    "sba.collector.ru",
    "dns.google",
    "stats.example.xyz",
];

/// Query-parameter values spanning every detector's trigger: visit
/// leaks at each granularity (plain and percent-encoded), sensitive
/// URLs, device properties, a stable identifier, and noise.
const VALUES: [&str; 9] = [
    "http://news.site0.com/world/story?id=1",
    "http%3A%2F%2Fnews.site0.com%2Fworld%2Fstory%3Fid%3D1",
    "news.site0.com",
    "site0.com",
    "http://clinic.site2.org/health/advice",
    "1200x1920",
    "Europe/Athens",
    "a3f8c2d19b7e4f60a3f8c2d19b7e4f60",
    "hello",
];
const KEYS: [&str; 6] = ["u", "page", "tz", "screenWidth", "deviceId", "country"];

fn context() -> CrawlContext<'static> {
    CrawlContext {
        visited_urls: VISIT_URLS.iter().copied().collect(),
        visited_hosts: VISIT_HOSTS.iter().map(|h| h.to_string()).collect(),
        visited_domains: VISIT_DOMAINS.iter().copied().collect(),
        sensitive_urls: [VISIT_URLS[2]].into_iter().collect::<HashSet<_>>(),
        total_visits: VISIT_URLS.len(),
    }
}

fn arb_flow() -> impl Strategy<Value = Flow> {
    (
        0u64..(1 << 40),
        0u64..600_000_000,
        0usize..HOSTS.len(),
        0usize..4,
        proptest::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len()), 0..4),
        (any::<u32>(), any::<u32>()),
    )
        .prop_map(|(id, time_us, host_idx, class, params, bytes)| {
            let host = HOSTS[host_idx];
            let query: Vec<String> = params
                .iter()
                .map(|&(k, v)| format!("{}={}", KEYS[k], VALUES[v]))
                .collect();
            Flow {
                id,
                time_us,
                uid: 10_200,
                package: "com.example.browser".into(),
                host: host.into(),
                dst_ip: IpAddr::new(203, 0, 113, (host_idx + 1) as u8),
                dst_port: 443,
                method: Method::Get,
                url: format!("https://{host}/collect?{}", query.join("&")),
                request_headers: Vec::new(),
                request_body: String::new(),
                status: 200,
                bytes_out: bytes.0 as u64,
                bytes_in: bytes.1 as u64,
                version: HttpVersion::H2,
                class: match class {
                    0 => FlowClass::Engine,
                    1 => FlowClass::Native,
                    2 => FlowClass::PinnedOpaque,
                    _ => FlowClass::Blocked,
                },
            }
        })
}

proptest! {
    /// The fused fold over an arbitrary capture reports only findings
    /// the capture can support. Each flow is captured `echoes` times in
    /// a row (a beacon re-sent per visit), so identifiers recur often
    /// enough to be reported.
    #[test]
    fn fused_findings_point_at_flows_that_can_carry_them(
        flows in proptest::collection::vec(arb_flow(), 0..80),
        echoes in 1usize..=3,
    ) {
        let store = FlowStore::new();
        for f in &flows {
            for _ in 0..echoes {
                store.push(f.clone());
            }
        }
        let snap = store.snapshot();
        let ctx = context();
        let props = DeviceProperties::testbed_tablet();
        let matcher = PiiMatcher::new(&props);
        // The fold `analyze_crawl` runs: one short-lived facts slot per
        // flow.
        let mut partials = CrawlPartials::default();
        for flow in snap.iter() {
            let facts = FlowFacts::default();
            partials.observe(&FlowView::new(flow, &facts), &ctx, &matcher);
        }

        // Every generated destination geolocates, so each transfer
        // destination shows up in the row.
        let mut geo = GeoDb::empty();
        geo.insert(Cidr::parse("203.0.113.0/24").unwrap(), Country::new("RU"));
        let leaks = partials.history.finish("b", ctx.total_visits);
        let pii = partials.pii.finish("b");
        let identifiers = partials.identifiers.finish("b", &steven_black_excerpt());
        let transfers = partials.transfers.finish("b", &leaks, &geo);

        let third_party: HashSet<&str> = flows
            .iter()
            .filter(|f| matches!(f.class, FlowClass::Native | FlowClass::Engine))
            .filter(|f| !ctx.visited_domains.contains(registrable_domain(&f.host).as_str()))
            .map(|f| f.host.as_str())
            .collect();
        let native: HashSet<&str> = flows
            .iter()
            .filter(|f| f.class == FlowClass::Native)
            .map(|f| f.host.as_str())
            .collect();
        for leak in &leaks {
            prop_assert!(
                third_party.contains(leak.destination.as_str()),
                "history leak to {} without a third-party Native/Engine flow there",
                leak.destination
            );
        }
        for (field, destination) in &pii.leaked {
            prop_assert!(
                native.contains(destination.as_str()),
                "{field:?} leak to {destination} without a Native flow there"
            );
        }
        for sighting in &identifiers {
            prop_assert!(
                native.contains(sighting.destination.as_str()),
                "identifier at {} without a Native flow there",
                sighting.destination
            );
        }
        let leak_destinations: HashSet<&str> =
            leaks.iter().map(|l| l.destination.as_str()).collect();
        for (host, _) in transfers.iter().flat_map(|t| &t.destinations) {
            prop_assert!(
                leak_destinations.contains(host.as_str()),
                "transfer to {host}, which is not a history-leak destination"
            );
        }
    }
}
