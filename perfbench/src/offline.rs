//! One study, driven layer by layer through public calls: the traced
//! runs' path. The end-to-end runs time `repro` itself (see `run.py`).
//!
//! The call sequence mirrors `repro` at `--jobs N` (no overlap), with
//! the same inputs: the shared world of the scale (`Scale::world`), the
//! standard analysis resources, the sampled population, and the scale's
//! campaign config, which leaves every ad-blocking session to compile
//! its own filterlist. It crawls every browser on the fleet, analyses
//! every crawl on the fleet, renders the crawl sections, re-crawls the
//! three incognito pairs on the fleet and analyses them in order, runs
//! and analyses the idle experiment on the fleet, and renders the rest.
//! The resulting document is the one `repro` prints, byte for byte, and
//! `run.py` checks it against the untraced runs' reference.
//!
//! Each call into a layer sits inside one span, so the traced run can
//! say where the time went: `webworld.build`, `campaign.crawl` (browser
//! model, instrumentation, simnet, mitm, blocklist), `mitm.seal` (first
//! snapshot), `analysis.facts`, `analysis.detect`, `idle.run`,
//! `analysis.idle`, `render.*`, and the `fleet.*` spans around each
//! batch of units.

use std::sync::Arc;
use std::time::Instant;

use panoptes::campaign::{run_crawl, CampaignResult};
use panoptes::fleet::{self, FleetOptions};
use panoptes::idle::run_idle;
use panoptes_analysis::engine::{analyze_crawl, analyze_idle, AnalysisResources, CampaignAnalysis};
use panoptes_analysis::facts::capture_facts;
use panoptes_bench::experiments::{population_for, Scale};
use panoptes_bench::mem::allocations;
use panoptes_bench::render;
use panoptes_browsers::registry::profile_by_name;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

use crate::trace::Tracer;

/// The §3.2 incognito browsers, in `repro` order.
const INCOGNITO_BROWSERS: [&str; 3] = ["Edge", "Opera", "UC International"];

/// What one study computes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Sites, seed and idle window.
    pub scale: Scale,
    /// Browser population (15 = the paper's pinned set).
    pub population: usize,
    /// The whole document (incognito pairs and idle experiment too);
    /// `false` stops after the crawl sections.
    pub full: bool,
}

/// A finished study and the counts the layer metrics need.
pub struct StudyOut {
    /// The rendered document.
    pub doc: String,
    /// The world it ran over (kept for the simnet replay probe).
    pub world: Arc<World>,
    /// Flows captured by every crawl campaign (incognito included).
    pub flows_crawled: u64,
    /// Flows that went through the crawl analysis.
    pub flows_analysed: u64,
    /// Allocations made building the world.
    pub build_allocs: u64,
    /// Allocations made while the crawl fleets ran.
    pub crawl_allocs: u64,
    /// Allocations made while the crawl analyses ran.
    pub analysis_allocs: u64,
    /// Every crawl's facts layer was built for its own capture (no
    /// memoised facts shared between campaigns or carried over).
    pub facts_isolated: bool,
}

/// Runs `units` on a fleet of `jobs` workers inside a `name` span, each
/// unit in its own `unit_name` span; results come back in unit order.
fn on_fleet<T: Send>(
    tracer: &Tracer,
    parent: u64,
    name: &'static str,
    unit_name: &'static str,
    labels: &[String],
    jobs: usize,
    run: impl Fn(usize, u64) -> T + Sync,
) -> Vec<T> {
    let options = FleetOptions::with_jobs(jobs);
    let effective = options.effective_jobs(labels.len());
    let span = tracer.span(name, parent, || {
        format!("jobs={effective} units={}", labels.len())
    });
    let fleet_id = span.id();
    fleet::execute(labels, &options, |i| {
        let unit = tracer.span(unit_name, fleet_id, || labels[i].clone());
        run(i, unit.id())
    })
    .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Analyses one crawl in three timed steps: seal the capture (first
/// snapshot), build its facts layer, run the fused detectors (which
/// find both memoised). Returns the analysis, the address of the facts
/// layer, and the number of flows analysed.
fn analyse_crawl(
    tracer: &Tracer,
    parent: u64,
    result: &CampaignResult,
    res: &AnalysisResources,
) -> (CampaignAnalysis, usize, u64, bool) {
    let tag = || result.profile.name.to_string();
    let snap = {
        let _s = tracer.span("mitm.seal", parent, tag);
        result.store.snapshot()
    };
    let facts = {
        let _s = tracer.span("analysis.facts", parent, tag);
        capture_facts(&snap)
    };
    let analysis = {
        let _s = tracer.span("analysis.detect", parent, tag);
        analyze_crawl(result, res)
    };
    let own = facts.len() == snap.len();
    (
        analysis,
        Arc::as_ptr(&facts) as usize,
        snap.len() as u64,
        own,
    )
}

/// Runs one study at `jobs` fleet workers under the `parent` span.
pub fn run(shape: &Shape, jobs: usize, tracer: &Tracer, parent: u64) -> StudyOut {
    let scale = shape.scale;

    let setup = tracer.span("phase.setup", parent, String::new);
    let res = {
        let _s = tracer.span("analysis.resources", setup.id(), String::new);
        AnalysisResources::standard()
    };
    let allocs_before = allocations();
    let world = {
        let _s = tracer.span("webworld.build", setup.id(), || {
            format!("{} sites", scale.popular + scale.sensitive + scale.tail)
        });
        scale.world()
    };
    let build_allocs = allocations() - allocs_before;
    let profiles = {
        let _s = tracer.span("browsers.population", setup.id(), String::new);
        population_for(&scale, shape.population)
    };
    let config = scale.config();
    drop(setup);

    let crawl_labels: Vec<String> = profiles
        .iter()
        .map(|p| format!("{} crawl", p.name))
        .collect();
    let before = allocations();
    let results = on_fleet(
        tracer,
        parent,
        "fleet.crawl",
        "campaign.crawl",
        &crawl_labels,
        jobs,
        |i, _| run_crawl(&world, &profiles[i], &world.sites, &config),
    );
    let mut crawl_allocs = allocations() - before;

    let analysis_labels: Vec<String> = profiles
        .iter()
        .map(|p| format!("{} crawl analysis", p.name))
        .collect();
    let before = allocations();
    let analysed = on_fleet(
        tracer,
        parent,
        "fleet.analysis",
        "fleet.unit",
        &analysis_labels,
        jobs,
        |i, unit| analyse_crawl(tracer, unit, &results[i], &res),
    );
    let mut analysis_allocs = allocations() - before;
    let mut facts_seen: Vec<usize> = analysed.iter().map(|a| a.1).collect();
    let mut facts_isolated = analysed.iter().all(|a| a.3);
    let mut flows_analysed: u64 = analysed.iter().map(|a| a.2).sum();
    let analyses: Vec<CampaignAnalysis> = analysed.into_iter().map(|a| a.0).collect();
    let mut flows_crawled: u64 = results.iter().map(|r| r.store.len() as u64).sum();

    let mut doc = render::header_md(&scale);
    {
        let _s = tracer.span("render.crawl", parent, String::new);
        for (_, text) in render::crawl_sections(&results, &analyses) {
            doc.push_str(&text);
        }
    }

    if shape.full {
        let incognito = config.clone().incognito();
        let pairs_of: Vec<_> = INCOGNITO_BROWSERS
            .iter()
            .map(|name| profile_by_name(name).expect("pinned incognito browser"))
            .collect();
        let labels: Vec<String> = pairs_of
            .iter()
            .flat_map(|p| {
                [
                    format!("{} crawl", p.name),
                    format!("{} incognito crawl", p.name),
                ]
            })
            .collect();
        let before = allocations();
        let recrawls = on_fleet(
            tracer,
            parent,
            "fleet.incognito",
            "campaign.crawl",
            &labels,
            jobs,
            |i, _| {
                let cfg = if i % 2 == 0 { &config } else { &incognito };
                run_crawl(&world, &pairs_of[i / 2], &world.sites, cfg)
            },
        );
        crawl_allocs += allocations() - before;
        flows_crawled += recrawls.iter().map(|r| r.store.len() as u64).sum::<u64>();

        // `repro` analyses the pairs in order on the calling thread.
        let before = allocations();
        let phase = tracer.span("phase.incognito_analysis", parent, String::new);
        let mut analysed = Vec::with_capacity(recrawls.len());
        for r in &recrawls {
            let (a, facts, flows, own) = analyse_crawl(tracer, phase.id(), r, &res);
            facts_seen.push(facts);
            facts_isolated &= own;
            flows_analysed += flows;
            analysed.push(a);
        }
        drop(phase);
        analysis_allocs += allocations() - before;
        let mut analysed = analysed.into_iter();
        let pairs: Vec<(CampaignAnalysis, CampaignAnalysis)> = INCOGNITO_BROWSERS
            .iter()
            .map(|_| {
                (
                    analysed.next().expect("normal"),
                    analysed.next().expect("incognito"),
                )
            })
            .collect();
        {
            let _s = tracer.span("render.incognito", parent, String::new);
            doc.push_str(&render::incognito_section(&pairs).1);
        }

        let idle_labels: Vec<String> = profiles
            .iter()
            .map(|p| format!("{} idle", p.name))
            .collect();
        let idles = on_fleet(
            tracer,
            parent,
            "fleet.idle",
            "idle.run",
            &idle_labels,
            jobs,
            |i, _| run_idle(&world, &profiles[i], scale.idle, &config),
        );
        let labels: Vec<String> = profiles
            .iter()
            .map(|p| format!("{} idle analysis", p.name))
            .collect();
        let idle_analyses = on_fleet(
            tracer,
            parent,
            "fleet.idle_analysis",
            "analysis.idle",
            &labels,
            jobs,
            |i, _| analyze_idle(&idles[i]),
        );
        {
            let _s = tracer.span("render.idle", parent, String::new);
            for (_, text) in render::idle_sections(&idle_analyses) {
                doc.push_str(&text);
            }
        }
    }

    facts_seen.sort_unstable();
    facts_seen.dedup();
    facts_isolated &= facts_seen.len() == profiles.len() + if shape.full { 6 } else { 0 };
    StudyOut {
        doc,
        world,
        flows_crawled,
        flows_analysed,
        build_allocs,
        crawl_allocs,
        analysis_allocs,
        facts_isolated,
    }
}

/// Nanoseconds per request on the simnet + mitm request path alone:
/// the `panoptes_bench::capture` sweep (landing page and subresources of
/// each head site) replayed over `world`'s route table, median of at
/// least five sweeps on fresh capture rigs. Worlds with a deep tail
/// replay their head sites, which the tail leaves byte-identical.
pub fn simnet_request_ns(world: &World, scale: &Scale) -> f64 {
    let head;
    let source = if scale.tail == 0 {
        world
    } else {
        head = World::build(&GeneratorConfig {
            seed: scale.seed,
            popular: scale.popular,
            sensitive: scale.sensitive,
            tail: 0,
        });
        &head
    };
    let requests = panoptes_bench::capture::sweep_requests(source);
    let mut per_request = Vec::new();
    let started = Instant::now();
    while per_request.len() < 5 || started.elapsed().as_secs_f64() < 0.05 {
        let (net, _store) = panoptes_bench::capture::capture_net(|net| world.install(net));
        let sweep = Instant::now();
        panoptes_bench::capture::sweep_zero_alloc(&net, &requests);
        per_request.push(sweep.elapsed().as_nanos() as f64 / requests.len().max(1) as f64);
    }
    crate::stats::median(&mut per_request)
}
