//! The §3.2 incognito plan: which crawls the incognito section needs.
//!
//! The section pairs each of three leaking browsers' normal crawl with
//! a repeat crawl in incognito mode. A campaign is a pure function of
//! world, profile and [`CampaignConfig`], so when the study population
//! already holds an equal profile (`==` on the whole profile, not only
//! its name) its population crawl *is* the normal half: the plan points
//! at it and schedules only the incognito crawl. A normal re-crawl is
//! scheduled only for a browser the population does not hold.
//!
//! The study pipeline ([`crate::pipeline`]) schedules these units after
//! the population's crawls, so `repro` and the study server run the
//! same units and pair the same analyses.

use panoptes::config::CampaignConfig;
use panoptes::fleet::FleetUnit;
use panoptes_analysis::engine::CampaignAnalysis;
use panoptes_browsers::registry::all_profiles;
use panoptes_browsers::BrowserProfile;

/// The §3.2 incognito browsers, in section order.
pub const INCOGNITO_BROWSERS: [&str; 3] = ["Edge", "Opera", "UC International"];

/// One §3.2 browser: its profile and where its normal-mode crawl
/// comes from.
#[derive(Debug, Clone)]
pub struct PlannedBrowser {
    /// The pinned paper profile.
    pub profile: BrowserProfile,
    /// Index of an equal profile in the study population, whose crawl
    /// is the normal half; `None` schedules a normal re-crawl.
    pub population_index: Option<usize>,
}

/// The three §3.2 browsers planned against one study population.
#[derive(Debug, Clone)]
pub struct IncognitoPlan {
    /// One entry per [`INCOGNITO_BROWSERS`] name, in section order.
    pub browsers: Vec<PlannedBrowser>,
}

impl IncognitoPlan {
    /// Plans the section against `population` (the study's crawled
    /// profiles, in crawl order).
    pub fn new<'a>(population: impl IntoIterator<Item = &'a BrowserProfile>) -> IncognitoPlan {
        let population: Vec<&BrowserProfile> = population.into_iter().collect();
        let pinned = all_profiles();
        let browsers = INCOGNITO_BROWSERS
            .iter()
            .map(|name| {
                let profile = pinned
                    .iter()
                    .find(|p| p.name == *name)
                    .expect("incognito browser is a pinned profile")
                    .clone();
                let population_index = population.iter().position(|p| **p == profile);
                PlannedBrowser { profile, population_index }
            })
            .collect();
        IncognitoPlan { browsers }
    }

    /// The campaign units, in order: per browser, a normal re-crawl when
    /// the population holds no equal profile, then the incognito crawl
    /// under `incognito`.
    pub fn units(&self, incognito: &CampaignConfig) -> Vec<FleetUnit> {
        let mut units = Vec::with_capacity(self.unit_count());
        for browser in &self.browsers {
            if browser.population_index.is_none() {
                units.push(FleetUnit::crawl(browser.profile.clone()));
            }
            units.push(FleetUnit::crawl(browser.profile.clone()).with_config(incognito.clone()));
        }
        units
    }

    /// How many units [`IncognitoPlan::units`] schedules: three
    /// incognito crawls plus one re-crawl per browser missing from the
    /// population.
    pub fn unit_count(&self) -> usize {
        self.browsers.len() + self.browsers.iter().filter(|b| b.population_index.is_none()).count()
    }

    /// The section's `(normal, incognito)` pairs: `population` holds
    /// the population's crawl analyses in crawl order, `units` the
    /// analyses of [`IncognitoPlan::units`] in unit order.
    pub fn pairs<'a>(
        &self,
        population: &'a [CampaignAnalysis],
        units: &'a [CampaignAnalysis],
    ) -> Vec<(&'a CampaignAnalysis, &'a CampaignAnalysis)> {
        let mut units = units.iter();
        self.browsers
            .iter()
            .map(|browser| {
                let normal = match browser.population_index {
                    Some(i) => &population[i],
                    None => units.next().expect("normal re-crawl analysis"),
                };
                (normal, units.next().expect("incognito crawl analysis"))
            })
            .collect()
    }
}
