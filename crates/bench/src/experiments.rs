//! Study scale and population: the parameters every driver shares.
//!
//! The study itself runs through [`crate::pipeline`]; what stays here
//! is the [`Scale`] of a run, its browser population, and the one
//! crawl-only driver the benchmarks time on its own.

use std::sync::Arc;

use panoptes::campaign::CampaignResult;
use panoptes::config::CampaignConfig;
use panoptes::fleet::{self, FleetError, FleetOptions, FleetUnit, UnitOutput};
use panoptes_browsers::registry::population;
use panoptes_browsers::BrowserProfile;
use panoptes_simnet::clock::SimDuration;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

/// Scale of a reproduction run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Popular (Tranco-like) sites.
    pub popular: u32,
    /// Sensitive (Curlie-like) sites.
    pub sensitive: u32,
    /// Deep-tail sites appended after the head set (`--sites N` beyond
    /// `popular + sensitive`); 0 is the paper's exact web.
    pub tail: u32,
    /// Idle-window length.
    pub idle: SimDuration,
    /// Campaign seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's full workload: 500 + 500 sites, 10-minute idle.
    pub fn paper() -> Scale {
        Scale {
            popular: 500,
            sensitive: 500,
            tail: 0,
            idle: SimDuration::from_secs(600),
            seed: CampaignConfig::default().seed,
        }
    }

    /// A reduced workload for quick runs and benches.
    pub fn quick() -> Scale {
        Scale {
            popular: 30,
            sensitive: 20,
            tail: 0,
            idle: SimDuration::from_secs(600),
            seed: CampaignConfig::default().seed,
        }
    }

    /// Sets the total site count: `n` beyond `popular + sensitive`
    /// becomes deep tail (`--sites N`); `n` at or below the head leaves
    /// the scale untouched, so `--sites 1000` at paper scale is exact.
    pub fn with_sites(mut self, n: u32) -> Scale {
        self.tail = n.saturating_sub(self.popular + self.sensitive);
        self
    }

    /// The (cached, shared) world for this scale: the plan cache builds
    /// it once per configuration and every driver — pipeline, fleet,
    /// bench — reuses the same immutable instance.
    pub fn world(&self) -> Arc<World> {
        World::shared(&GeneratorConfig {
            seed: self.seed,
            popular: self.popular,
            sensitive: self.sensitive,
            tail: self.tail,
        })
    }

    /// The campaign configuration for this scale.
    pub fn config(&self) -> CampaignConfig {
        CampaignConfig { seed: self.seed, ..Default::default() }
    }
}

/// The browser population for a `--population N` run: the paper's 15
/// pinned browsers first, then variants sampled deterministically from
/// the scale's seed. `population_for(scale, 15)` is exactly the paper
/// set, so the default reproduction stays byte-identical.
pub fn population_for(scale: &Scale, n: usize) -> Vec<BrowserProfile> {
    population(scale.seed, n)
}

/// Crawls an `n`-browser population across the fleet worker pool:
/// results come back in population order, byte-identical for any
/// worker count.
pub fn crawl_population_jobs(
    scale: &Scale,
    options: &FleetOptions,
    n: usize,
) -> Result<(Arc<World>, Vec<CampaignResult>), FleetError<UnitOutput>> {
    let world = scale.world();
    let units: Vec<FleetUnit> =
        population_for(scale, n).into_iter().map(FleetUnit::crawl).collect();
    let outputs = fleet::run_units(&world, &world.sites, &scale.config(), &units, options)?;
    let results = outputs.into_iter().filter_map(UnitOutput::into_crawl).collect();
    Ok((world, results))
}
