//! Device/user identifier tracking across native destinations.
//!
//! §3.1/§3.3 of the paper: browsers communicate "with third-party ad
//! servers while leaking personal and device identifiers" — Listing 1's
//! `operaId` is the canonical example. This analysis finds every
//! high-entropy token that stays *stable across flows* to a destination:
//! each one is a tracking handle that survives cookie clearing, IP
//! changes and VPNs.

use std::collections::{BTreeMap, HashMap};

use panoptes::campaign::CampaignResult;
use panoptes_blocklist::HostsList;

use crate::engine::{analyze_crawl, AnalysisResources};
use crate::scan::looks_like_identifier;

/// Stable identifiers are reported when they recur in at least this
/// many flows to one destination (the §3.3 threshold).
pub const IDENTIFIER_MIN_FLOWS: usize = 2;

/// One stable identifier observed at one destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentifierSighting {
    /// Browser under test.
    pub browser: String,
    /// Destination receiving the identifier.
    pub destination: String,
    /// Parameter name / JSON path carrying it.
    pub key: String,
    /// The identifier value.
    pub value: String,
    /// Number of flows carrying exactly this value.
    pub flows: usize,
    /// Whether the destination is on the ad/tracker hosts list — the
    /// §3.3 aggravating factor (identifier shared with an ad server, not
    /// the vendor).
    pub ad_related: bool,
}

/// Accumulator form of the stable-identifier detector: a count of the
/// flows carrying each (destination, key, value), each flow counted
/// once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdentifierPartial {
    /// (destination, key, value) → flow count.
    counts: BTreeMap<(String, String, String), usize>,
}

impl IdentifierPartial {
    /// Tests one observation for a high-entropy token and counts it once
    /// per flow (`seen_in_flow` is the flow-local dedup, reset per
    /// flow). Called by the fused engine pass for native flows.
    pub(crate) fn scan_observation<'a>(
        &mut self,
        destination: &str,
        obs: &'a crate::scan::Observation,
        seen_in_flow: &mut HashMap<(&'a str, &'a str), ()>,
    ) {
        if !looks_like_identifier(&obs.value) {
            return;
        }
        // Count each (key,value) once per flow.
        if seen_in_flow.insert((&obs.key, &obs.value), ()).is_none() {
            *self
                .counts
                .entry((destination.to_string(), obs.key.clone(), obs.value.clone()))
                .or_default() += 1;
        }
    }

    /// Finalises the browser's identifier sightings at
    /// [`IDENTIFIER_MIN_FLOWS`].
    pub fn finish(self, browser: &str, ad_list: &HostsList) -> Vec<IdentifierSighting> {
        self.counts
            .into_iter()
            .filter(|(_, n)| *n >= IDENTIFIER_MIN_FLOWS)
            .map(|((destination, key, value), flows)| IdentifierSighting {
                browser: browser.to_string(),
                ad_related: ad_list.contains(&destination),
                destination,
                key,
                value,
                flows,
            })
            .collect()
    }
}

/// Finds stable identifiers in a campaign's native traffic: a token
/// counts when it looks high-entropy and recurs in at least
/// [`IDENTIFIER_MIN_FLOWS`] flows to the same destination under the
/// same key.
pub fn find_identifiers(result: &CampaignResult) -> Vec<IdentifierSighting> {
    analyze_crawl(result, &AnalysisResources::standard()).identifiers
}

/// Per-browser roll-up: does any stable identifier reach an ad server?
pub fn identifier_to_ad_server(result: &CampaignResult) -> Option<IdentifierSighting> {
    find_identifiers(result).into_iter().find(|s| s.ad_related)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes::campaign::run_crawl;
    use panoptes::config::CampaignConfig;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes_web::World;

    fn crawl(name: &str) -> CampaignResult {
        let world =
            World::build(&GeneratorConfig { popular: 5, sensitive: 3, ..Default::default() });
        run_crawl(
            &world,
            &profile_by_name(name).unwrap(),
            &world.sites,
            &CampaignConfig::default(),
        )
    }

    #[test]
    fn opera_id_reaches_the_oleads_ad_server() {
        // Listing 1: the 64-hex operaId rides every ad-SDK fetch.
        let result = crawl("Opera");
        let sighting = identifier_to_ad_server(&result).expect("operaId found");
        assert_eq!(sighting.destination, "s-odx.oleads.com");
        assert_eq!(sighting.key, "operaId");
        assert_eq!(sighting.value.len(), 64);
        assert!(sighting.flows >= 8, "every visit carries it: {}", sighting.flows);
        assert!(sighting.ad_related);
    }

    #[test]
    fn yandex_uid_is_stable_but_goes_to_the_vendor() {
        let result = crawl("Yandex");
        let sightings = find_identifiers(&result);
        let yuid = sightings
            .iter()
            .find(|s| s.destination == "api.browser.yandex.ru")
            .expect("yandexuid");
        assert_eq!(yuid.key, "yandexuid");
        assert!(!yuid.ad_related, "vendor endpoint, not an ad server");
    }

    #[test]
    fn clean_browsers_have_no_stable_identifiers() {
        for name in ["Chrome", "Brave", "DuckDuckGo"] {
            let result = crawl(name);
            let sightings = find_identifiers(&result);
            assert!(sightings.is_empty(), "{name}: {sightings:?}");
        }
    }

    #[test]
    fn threshold_filters_one_off_tokens() {
        let recurring = find_identifiers(&crawl("Opera"));
        assert!(!recurring.is_empty());
        for s in &recurring {
            assert!(s.flows >= IDENTIFIER_MIN_FLOWS);
        }
    }
}
