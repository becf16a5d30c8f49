//! The study pipeline: one unit plan and one in-order section
//! assembler, shared by `repro` and the study server.
//!
//! A study is a fixed list of campaign units, in submission order
//! ([`StudyPlan`]): one crawl per population browser, the §3.2
//! [`IncognitoPlan`]'s units, then one idle run per browser. Whatever
//! executes the units — the batch fleet in `repro` ([`run`]) or the
//! server's work pool — hands each unit's output to
//! [`StudyPlan::analyze`] on the thread that produced it and then to one
//! [`Assembler`], in any arrival order. The assembler returns each
//! section group the moment its inputs are complete, in document order:
//! the crawl sections, then §3.2, then the idle sections. Concatenated
//! after [`render::header_md`], the groups are the study document byte
//! for byte, however the units were scheduled.
//!
//! A plan may leave out the §3.2 units or the idle runs (`repro --only`
//! when their sections are not wanted); their groups then render
//! nothing.

use std::sync::Mutex;

use panoptes::campaign::CampaignResult;
use panoptes::config::CampaignConfig;
use panoptes::fleet::{self, FleetError, FleetOptions, FleetUnit, UnitOutput};
use panoptes_analysis::engine::{
    analyze_crawl, analyze_idle, AnalysisResources, CampaignAnalysis, IdleAnalysis, StudyAnalyses,
};
use panoptes_browsers::BrowserProfile;
use panoptes_simnet::clock::SimDuration;
use panoptes_web::World;

use crate::incognito::IncognitoPlan;
use crate::render;

/// Every section of the study document, in document order — the names
/// `repro --only` accepts.
pub const SECTIONS: [&str; 15] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "table2",
    "leaks",
    "dns",
    "sensitive",
    "transfers",
    "listing1",
    "identifiers",
    "cost",
    "incognito",
    "fig5",
    "idle-dest",
];

/// The study's campaign units, in submission order: `n` crawls, the
/// §3.2 units, `n` idles.
pub struct StudyPlan {
    units: Vec<FleetUnit>,
    crawls: usize,
    incognito: Option<IncognitoPlan>,
}

impl StudyPlan {
    /// Plans a study of `profiles` (at least one) under `config`: with
    /// the §3.2 units when `incognito` is set, and with an idle run of
    /// the given window per browser when `idle` is `Some`.
    pub fn new(
        profiles: &[BrowserProfile],
        config: &CampaignConfig,
        incognito: bool,
        idle: Option<SimDuration>,
    ) -> StudyPlan {
        let mut units: Vec<FleetUnit> = profiles.iter().cloned().map(FleetUnit::crawl).collect();
        let incognito = incognito.then(|| IncognitoPlan::new(profiles));
        if let Some(plan) = &incognito {
            units.extend(plan.units(&config.clone().incognito()));
        }
        if let Some(window) = idle {
            units.extend(profiles.iter().cloned().map(|p| FleetUnit::idle(p, window)));
        }
        StudyPlan {
            units,
            crawls: profiles.len(),
            incognito,
        }
    }

    /// The units, in submission order.
    pub fn units(&self) -> &[FleetUnit] {
        &self.units
    }

    /// Analyses unit `index`'s output. Run it on the thread that
    /// produced the output; only a population crawl keeps its capture
    /// (Listing 1 quotes it), every other capture is dropped here.
    pub fn analyze(&self, index: usize, output: UnitOutput, res: &AnalysisResources) -> Analysed {
        match output {
            UnitOutput::Crawl(result) => {
                let analysis = analyze_crawl(&result, res);
                if index < self.crawls {
                    Analysed::Crawl(Box::new((result, analysis)))
                } else {
                    Analysed::Incognito(Box::new(analysis))
                }
            }
            UnitOutput::Idle(result) => Analysed::Idle(analyze_idle(&result)),
        }
    }

    /// A fresh assembler for one run of this plan. With
    /// `keep_captures` the population's crawl captures stay alive until
    /// [`Assembler::finish`] hands them back; without it they are freed
    /// as soon as the crawl sections, their last reader, have rendered.
    pub fn assembler(&self, keep_captures: bool) -> Assembler<'_> {
        let incognito = self.incognito.as_ref().map_or(0, IncognitoPlan::unit_count);
        let idles = self.units.len() - self.crawls - incognito;
        Assembler {
            plan: self,
            keep_captures,
            results: slots(self.crawls),
            crawls: slots(self.crawls),
            incognito: slots(incognito),
            idles: slots(idles),
            expected: [self.crawls, incognito, idles],
            received: [0; 3],
            emitted: 0,
            population: Vec::new(),
            population_analyses: Vec::new(),
            idle_analyses: Vec::new(),
        }
    }
}

/// One unit's output after [`StudyPlan::analyze`]: what the assembler
/// keeps of it.
pub enum Analysed {
    /// A population crawl: its capture and its analysis.
    Crawl(Box<(CampaignResult, CampaignAnalysis)>),
    /// A §3.2 unit's analysis.
    Incognito(Box<CampaignAnalysis>),
    /// An idle run's analysis.
    Idle(IdleAnalysis),
}

/// Collects one study's analysed units in any order and renders each
/// section group once all of its inputs have arrived, in document order.
pub struct Assembler<'p> {
    plan: &'p StudyPlan,
    keep_captures: bool,
    results: Vec<Option<CampaignResult>>,
    crawls: Vec<Option<CampaignAnalysis>>,
    incognito: Vec<Option<CampaignAnalysis>>,
    idles: Vec<Option<IdleAnalysis>>,
    /// Units planned and units received per group: crawl, §3.2, idle.
    expected: [usize; 3],
    received: [usize; 3],
    /// Groups rendered so far, in document order.
    emitted: usize,
    /// The population's crawls and analyses, once the crawl group is
    /// complete; the §3.2 pairs borrow their normal halves.
    population: Vec<CampaignResult>,
    population_analyses: Vec<CampaignAnalysis>,
    idle_analyses: Vec<IdleAnalysis>,
}

impl Assembler<'_> {
    /// Takes unit `index`'s analysis and returns the `(section, bytes)`
    /// pairs that became due, in document order (often none).
    pub fn accept(&mut self, index: usize, unit: Analysed) -> Vec<(&'static str, String)> {
        let [n, k, _] = self.expected;
        match unit {
            Analysed::Crawl(crawl) => {
                let (result, analysis) = *crawl;
                self.results[index] = Some(result);
                self.crawls[index] = Some(analysis);
                self.received[0] += 1;
            }
            Analysed::Incognito(analysis) => {
                self.incognito[index - n] = Some(*analysis);
                self.received[1] += 1;
            }
            Analysed::Idle(analysis) => {
                self.idles[index - n - k] = Some(analysis);
                self.received[2] += 1;
            }
        }
        let mut due = Vec::new();
        while self.emitted < 3 && self.received[self.emitted] == self.expected[self.emitted] {
            due.extend(self.render(self.emitted));
            self.emitted += 1;
        }
        due
    }

    fn render(&mut self, group: usize) -> Vec<(&'static str, String)> {
        match group {
            0 => {
                let population = take_all(&mut self.results);
                self.population_analyses = take_all(&mut self.crawls);
                let sections = render::crawl_sections(&population, &self.population_analyses);
                if self.keep_captures {
                    self.population = population;
                }
                sections
            }
            1 => match &self.plan.incognito {
                Some(plan) => {
                    let analyses = take_all(&mut self.incognito);
                    vec![render::incognito_section(
                        &plan.pairs(&self.population_analyses, &analyses),
                    )]
                }
                None => Vec::new(),
            },
            _ => {
                self.idle_analyses = take_all(&mut self.idles);
                if self.idle_analyses.is_empty() {
                    Vec::new()
                } else {
                    render::idle_sections(&self.idle_analyses)
                }
            }
        }
    }

    /// Units received for groups not yet rendered: the results held
    /// back waiting for the rest of their group.
    pub fn buffered(&self) -> usize {
        self.received[self.emitted..].iter().sum()
    }

    /// Whether every group has been rendered.
    pub fn is_complete(&self) -> bool {
        self.emitted == 3
    }

    /// The population's crawls (in population order; empty unless the
    /// assembler keeps captures) and every crawl and idle analysis.
    /// Panics unless [`Assembler::is_complete`].
    pub fn finish(self) -> (Vec<CampaignResult>, StudyAnalyses) {
        assert!(
            self.is_complete(),
            "study finished with incomplete section groups"
        );
        let analyses = StudyAnalyses {
            crawls: self.population_analyses,
            idles: self.idle_analyses,
        };
        (self.population, analyses)
    }
}

fn slots<T>(n: usize) -> Vec<Option<T>> {
    (0..n).map(|_| None).collect()
}

fn take_all<T>(slots: &mut Vec<Option<T>>) -> Vec<T> {
    slots
        .drain(..)
        .map(|slot| slot.expect("every unit of the group arrived"))
        .collect()
}

/// Runs `plan` across the batch fleet: each unit is analysed on the
/// worker that ran it, and every section goes to `emit` as
/// `(name, bytes)`, in document order, as soon as its group is due.
/// Returns what [`Assembler::finish`] returns; the crawl captures are
/// kept.
pub fn run(
    world: &World,
    config: &CampaignConfig,
    plan: &StudyPlan,
    res: &AnalysisResources,
    options: &FleetOptions,
    emit: impl FnMut(&'static str, &str) + Send,
) -> Result<(Vec<CampaignResult>, StudyAnalyses), FleetError<()>> {
    let state = Mutex::new((plan.assembler(true), emit));
    fleet::run_units_with(
        world,
        &world.sites,
        config,
        plan.units(),
        options,
        |index, output| {
            let unit = plan.analyze(index, output, res);
            // Accepting and emitting under one lock keeps the groups in
            // document order whichever worker completes them.
            let mut guard = state.lock().expect("assembler lock");
            let (assembler, emit) = &mut *guard;
            for (name, text) in assembler.accept(index, unit) {
                emit(name, &text);
            }
        },
    )?;
    let (assembler, _) = state.into_inner().expect("assembler lock");
    Ok(assembler.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{population_for, Scale};

    #[test]
    fn sections_lists_the_document_in_order() {
        let scale = Scale {
            popular: 3,
            sensitive: 2,
            ..Scale::quick()
        };
        let world = scale.world();
        let config = scale.config();
        let plan = StudyPlan::new(&population_for(&scale, 2), &config, true, Some(scale.idle));
        let res = AnalysisResources::standard();
        let mut names = Vec::new();
        run(
            &world,
            &config,
            &plan,
            &res,
            &FleetOptions::with_jobs(2),
            |name, _| names.push(name),
        )
        .expect("study units");
        assert_eq!(names, SECTIONS);
    }

    #[test]
    fn left_out_groups_plan_no_units_and_render_nothing() {
        let scale = Scale {
            popular: 3,
            sensitive: 2,
            ..Scale::quick()
        };
        let world = scale.world();
        let config = scale.config();
        let profiles = population_for(&scale, 2);
        let plan = StudyPlan::new(&profiles, &config, false, None);
        assert_eq!(plan.units().len(), 2);
        let res = AnalysisResources::standard();
        let mut names = Vec::new();
        let (crawls, analyses) = run(
            &world,
            &config,
            &plan,
            &res,
            &FleetOptions::with_jobs(1),
            |name, _| names.push(name),
        )
        .expect("study units");
        assert_eq!(names, SECTIONS[..12]);
        assert_eq!(crawls.len(), 2);
        assert!(analyses.idles.is_empty());
    }
}
