//! The geolocation database: country blocks for the simulated Internet.
//!
//! The address plan below is shared with `panoptes-web`, which allocates
//! server addresses *from these blocks*; the geolocation lookup of §3.4
//! then recovers the hosting country exactly the way iplocation.net
//! resolves real allocations.

use panoptes_http::netaddr::{Cidr, IpAddr};

use crate::country::Country;
use crate::trie::CidrTrie;

/// An IP-to-country lookup service.
#[derive(Clone)]
pub struct GeoDb {
    trie: CidrTrie<Country>,
}

impl Default for GeoDb {
    fn default() -> Self {
        GeoDb::standard()
    }
}

/// The simulated Internet's address plan: `(block, country)` pairs.
///
/// Each entry hosts a class of servers; `panoptes-web` allocates from the
/// same constants.
pub const ADDRESS_PLAN: &[(&str, &str)] = &[
    // EU hosting used by the generic simulated web (crawl vantage is GR).
    ("62.74.0.0/16", "GR"),   // device's ISP + EU sites
    ("81.169.0.0/16", "DE"),  // EU hosting A
    ("94.198.0.0/16", "NL"),  // EU hosting B
    ("52.208.0.0/16", "IE"),  // EU cloud region
    // US hosting and the big third-party platforms.
    ("23.20.0.0/16", "US"),    // US hosting
    ("172.217.0.0/16", "US"),  // google / dns.google / doubleclick
    ("157.240.0.0/16", "US"),  // facebook graph
    ("13.107.0.0/16", "US"),   // microsoft / bing / msn
    ("104.16.0.0/16", "US"),   // cloudflare anycast (surfaced as US)
    ("151.101.0.0/16", "US"),  // CDN
    // Vendor home countries the paper's §3.4 finding depends on.
    ("77.88.0.0/18", "RU"),    // yandex
    ("101.226.0.0/16", "CN"),  // tencent / qq
    ("192.99.0.0/16", "CA"),   // UC International's receiving servers
    ("103.37.28.0/22", "VN"),  // coccoc
    ("125.209.0.0/16", "KR"),  // naver whale
    ("185.26.180.0/22", "NO"), // opera
    ("203.205.0.0/16", "CN"),  // tencent overseas-routed
];

impl GeoDb {
    /// An empty database.
    pub fn empty() -> GeoDb {
        GeoDb { trie: CidrTrie::new() }
    }

    /// The standard database covering [`ADDRESS_PLAN`].
    pub fn standard() -> GeoDb {
        let mut db = GeoDb::empty();
        for (block, country) in ADDRESS_PLAN {
            db.insert(Cidr::parse(block).expect("valid plan block"), Country::new(country));
        }
        db
    }

    /// Registers a block.
    pub fn insert(&mut self, block: Cidr, country: Country) {
        self.trie.insert(block, country);
    }

    /// Country-level location of `ip`, if allocated.
    pub fn country_of(&self, ip: IpAddr) -> Option<Country> {
        self.trie.lookup(ip).copied()
    }

    /// Convenience for the §3.4 analysis: is this server outside the EU?
    /// `None` when the address is not in the database.
    pub fn is_outside_eu(&self, ip: IpAddr) -> Option<bool> {
        self.country_of(ip).map(|c| !c.is_eu())
    }

    /// Number of registered blocks.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// True when no blocks are registered.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// The plan block assigned to `country`, for allocators that need an
    /// address in a given country (first match in plan order).
    pub fn block_for(country: Country) -> Option<Cidr> {
        ADDRESS_PLAN
            .iter()
            .find(|(_, c)| Country::new(c) == country)
            .and_then(|(b, _)| Cidr::parse(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_db_resolves_plan_blocks() {
        let db = GeoDb::standard();
        assert_eq!(db.len(), ADDRESS_PLAN.len());
        assert_eq!(db.country_of(IpAddr::new(77, 88, 1, 1)), Some(Country::new("RU")));
        assert_eq!(db.country_of(IpAddr::new(101, 226, 4, 4)), Some(Country::new("CN")));
        assert_eq!(db.country_of(IpAddr::new(192, 99, 10, 10)), Some(Country::new("CA")));
        assert_eq!(db.country_of(IpAddr::new(62, 74, 3, 3)), Some(Country::new("GR")));
        assert_eq!(db.country_of(IpAddr::new(9, 9, 9, 9)), None);
    }

    #[test]
    fn eu_boundary_checks() {
        let db = GeoDb::standard();
        assert_eq!(db.is_outside_eu(IpAddr::new(77, 88, 1, 1)), Some(true)); // RU
        assert_eq!(db.is_outside_eu(IpAddr::new(81, 169, 1, 1)), Some(false)); // DE
        assert_eq!(db.is_outside_eu(IpAddr::new(10, 0, 0, 1)), None);
    }

    #[test]
    fn block_for_country() {
        let block = GeoDb::block_for(Country::new("RU")).unwrap();
        assert!(block.contains(IpAddr::new(77, 88, 0, 5)));
        assert_eq!(GeoDb::block_for(Country::new("ZW")), None);
    }

    #[test]
    fn plan_blocks_do_not_overlap() {
        let blocks: Vec<Cidr> = ADDRESS_PLAN.iter().map(|(b, _)| Cidr::parse(b).unwrap()).collect();
        for (i, a) in blocks.iter().enumerate() {
            for b in blocks.iter().skip(i + 1) {
                assert!(
                    !a.contains(b.base) && !b.contains(a.base),
                    "{a} overlaps {b}"
                );
            }
        }
    }
}
