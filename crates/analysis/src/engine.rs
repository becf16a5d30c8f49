//! The study engine: every detector's one implementation.
//!
//! Each detector exposes an accumulator (`observe`/`finish`), and
//! [`CrawlPartials`] bundles them so one iteration over a capture feeds
//! every detector at once ([`analyze_crawl`]; [`analyze_idle`] for the
//! idle window). The per-detector entry points (`detect_history_leaks`,
//! `pii_row`, `volume_row`, …) are projections of one field of that
//! fold, so each §3 result is computed by exactly one code path.
//!
//! Parallelism lives one layer up, at the grain of the unit: the study
//! pipeline (`panoptes_bench::pipeline`) analyses each unit's capture on
//! the worker that produced it while other workers are still crawling,
//! and [`analyze_study_jobs`] spreads whole campaigns over the fleet.
//!
//! `tests/study_engine_determinism.rs` (workspace root) holds the
//! rendered report to a committed golden file across these paths.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use panoptes::campaign::CampaignResult;
use panoptes::fleet::{self, FleetError, FleetOptions};
use panoptes::idle::IdleResult;
use panoptes_blocklist::data::steven_black_excerpt;
use panoptes_blocklist::HostsList;
use panoptes_device::DeviceProperties;
use panoptes_geo::GeoDb;
use panoptes_http::url::Url;
use panoptes_mitm::FlowClass;
use panoptes_simnet::clock::SimDuration;

use crate::addomains::{AdDomainPartial, AdDomainRow};
use crate::cost::{CostPartial, CostRow, EnergyModel};
use crate::dns::{DnsPartial, DnsRow};
use crate::facts::{FlowFacts, FlowView};
use crate::history::{summarize_from, BrowserLeakSummary, HistoryLeak, HistoryPartial};
use crate::identifiers::{IdentifierPartial, IdentifierSighting};
use crate::idle::{DestinationShare, IdlePartial, IdleTimeline};
use crate::pii::{PiiMatcher, PiiPartial, PiiRow};
use crate::sensitive::{SensitivePartial, SensitiveRow};
use crate::transfers::{TransferPartial, TransferRow};
use crate::volume::{VolumePartial, VolumeRow};

/// The per-campaign ground truth every context-dependent detector joins
/// against — visited URLs/hosts/domains and the sensitive subset —
/// built once per campaign.
pub struct CrawlContext<'a> {
    /// URLs the harness navigated to.
    pub visited_urls: HashSet<&'a str>,
    /// Hostnames of the visited URLs.
    pub visited_hosts: HashSet<String>,
    /// Registrable domains of the visited sites.
    pub visited_domains: HashSet<&'a str>,
    /// URLs of the visits flagged sensitive in the ground truth.
    pub sensitive_urls: HashSet<&'a str>,
    /// Total visits in the campaign.
    pub total_visits: usize,
}

impl<'a> CrawlContext<'a> {
    /// Builds the context from a campaign's ground-truth visit log.
    pub fn of(result: &'a CampaignResult) -> CrawlContext<'a> {
        let visited_urls: HashSet<&str> = result.visits.iter().map(|v| v.url.as_str()).collect();
        let visited_hosts: HashSet<String> = result
            .visits
            .iter()
            .filter_map(|v| Url::parse(&v.url).ok())
            .map(|u| u.host().to_string())
            .collect();
        let visited_domains: HashSet<&str> =
            result.visits.iter().map(|v| v.domain.as_str()).collect();
        let sensitive_urls: HashSet<&str> = result
            .visits
            .iter()
            .filter(|v| v.sensitive)
            .map(|v| v.url.as_str())
            .collect();
        CrawlContext {
            visited_urls,
            visited_hosts,
            visited_domains,
            sensitive_urls,
            total_visits: result.visits.len(),
        }
    }
}

/// The shared lookup tables the detectors finalise against: device
/// ground truth for PII matching, the geolocation database, the
/// ad/tracker hosts list, and the radio energy model. Built once per
/// study, shared by every campaign's analysis.
pub struct AnalysisResources {
    /// The testbed device's ground-truth properties (Table 2 matching).
    pub props: DeviceProperties,
    /// IP → country database (§3.4 transfers).
    pub geo: GeoDb,
    /// Ad/tracker hosts list (Figure 3, §3.3 ad-related flags).
    pub ad_list: HostsList,
    /// Radio energy model for the §3.1 cost rows.
    pub energy: EnergyModel,
}

impl AnalysisResources {
    /// The paper's standard resources: the testbed tablet, the bundled
    /// geo database and hosts list, and the LTE energy model.
    pub fn standard() -> AnalysisResources {
        AnalysisResources {
            props: DeviceProperties::testbed_tablet(),
            geo: GeoDb::standard(),
            ad_list: steven_black_excerpt(),
            energy: EnergyModel::lte(),
        }
    }
}

/// Every crawl detector's accumulator, bundled so one fused iteration
/// over the capture feeds them all. Flows are observed in capture
/// order, which the first-occurrence detectors (PII, transfers) rely
/// on.
#[derive(Debug, Default)]
pub struct CrawlPartials {
    /// Figure 2/4 sums.
    pub volume: VolumePartial,
    /// Figure 3 native-host set.
    pub addomains: AdDomainPartial,
    /// §3.2 history-leak buckets.
    pub history: HistoryPartial,
    /// Table 2 first-match fields.
    pub pii: PiiPartial,
    /// §3.3 identifier counts.
    pub identifiers: IdentifierPartial,
    /// §3.4 destination-IP map.
    pub transfers: TransferPartial,
    /// §3.2 sensitive-leak set.
    pub sensitive: SensitivePartial,
    /// §3.1 cost sums.
    pub cost: CostPartial,
}

impl CrawlPartials {
    /// Folds one captured flow into every detector — the fused pass.
    ///
    /// Fusion shares more than the snapshot iteration: the first-party
    /// test runs once for history *and* sensitive, one decoded-values
    /// sweep feeds both, and one raw-observations sweep feeds pii *and*
    /// identifiers.
    pub fn observe(&mut self, view: &FlowView<'_>, ctx: &CrawlContext<'_>, pii: &PiiMatcher<'_>) {
        let flow = view.flow();
        self.volume.observe(flow);
        self.addomains.observe(flow);
        self.cost.observe(flow);
        self.transfers.observe(flow);

        // A site reporting itself to itself is not a leak: skip flows to
        // any *visited* site's own domain.
        if !ctx.visited_domains.contains(view.registrable_domain()) {
            // DNS-over-HTTPS lookups necessarily carry the queried
            // hostname; the paper reports the DoH behaviour separately
            // (§3.2, see `crate::dns`) rather than as a history leak.
            let channel = if crate::history::is_doh_flow(flow) {
                None
            } else {
                HistoryPartial::channel_of(flow.class)
            };
            let mut flow_leaked = false;
            for (obs, decoded_values) in view.decoded_observations() {
                if let Some(channel) = channel {
                    flow_leaked |= self.history.scan_observation(
                        &flow.host,
                        channel,
                        obs,
                        decoded_values,
                        ctx,
                    );
                }
                self.sensitive.scan_values(decoded_values, ctx);
            }
            if flow_leaked {
                self.history.record_leak_flow(view);
            }
        }

        if flow.class == FlowClass::Native {
            let mut seen_in_flow: HashMap<(&str, &str), ()> = HashMap::new();
            for obs in view.observations() {
                self.pii.scan_observation(pii, &flow.host, obs);
                self.identifiers
                    .scan_observation(&flow.host, obs, &mut seen_in_flow);
            }
        }
    }
}

/// Every §3 result of one crawl campaign, computed by the fused pass.
/// Self-contained: rendering a report needs no further access to the
/// capture.
pub struct CampaignAnalysis {
    /// Browser name.
    pub browser: String,
    /// Browser version (Table 1).
    pub version: String,
    /// Pages visited.
    pub visits: usize,
    /// Figure 2/4 row.
    pub volume: VolumeRow,
    /// Figure 3 row.
    pub addomains: AdDomainRow,
    /// §3.2 history leaks.
    pub history_leaks: Vec<HistoryLeak>,
    /// Table 2 row.
    pub pii: PiiRow,
    /// §3.3 stable identifiers (at
    /// [`IDENTIFIER_MIN_FLOWS`](crate::identifiers::IDENTIFIER_MIN_FLOWS)).
    pub identifiers: Vec<IdentifierSighting>,
    /// §3.4 transfer row (None when the browser leaks nothing).
    pub transfers: Option<TransferRow>,
    /// §3.2 sensitive-category row.
    pub sensitive: SensitiveRow,
    /// §3.2 DNS row.
    pub dns: DnsRow,
    /// §3.1 cost row.
    pub cost: CostRow,
}

impl CampaignAnalysis {
    /// The §3.2 per-browser leak roll-up.
    pub fn leak_summary(&self) -> BrowserLeakSummary {
        summarize_from(&self.browser, &self.history_leaks)
    }
}

/// Finalises a campaign's partials into the full analysis.
fn finish_crawl(
    result: &CampaignResult,
    partials: CrawlPartials,
    dns: DnsPartial,
    ctx: &CrawlContext<'_>,
    res: &AnalysisResources,
) -> CampaignAnalysis {
    let browser = result.profile.name.as_str();
    let history_leaks = partials.history.finish(browser, ctx.total_visits);
    let transfers = partials.transfers.finish(browser, &history_leaks, &res.geo);
    CampaignAnalysis {
        browser: browser.to_string(),
        version: result.profile.version.to_string(),
        visits: result.visits.len(),
        volume: partials.volume.finish(browser),
        addomains: partials.addomains.finish(browser, &res.ad_list),
        history_leaks,
        pii: partials.pii.finish(browser),
        identifiers: partials.identifiers.finish(browser, &res.ad_list),
        transfers,
        sensitive: partials.sensitive.finish(browser, ctx.sensitive_urls.len()),
        dns: dns.finish(browser),
        cost: partials
            .cost
            .finish(browser, result.visits.len(), &res.energy),
    }
}

/// The campaign's resolver-log accumulator (one pass over the DNS log).
fn dns_partial(result: &CampaignResult) -> DnsPartial {
    let mut dns = DnsPartial::default();
    for entry in result.dns_log.iter() {
        dns.observe(entry);
    }
    dns
}

/// Analyses one crawl campaign with the fused single-pass engine: one
/// iteration over the snapshot feeds every detector.
///
/// The pass streams. Each flow's facts (parsed URL, observations,
/// decodings) are computed at most once, shared by every detector, and
/// dropped before the next flow, so the analysis retains nothing of
/// the capture beyond the detectors' own accumulators.
pub fn analyze_crawl(result: &CampaignResult, res: &AnalysisResources) -> CampaignAnalysis {
    let _span = panoptes_obs::trace::span_with("study.analyze_crawl", None, || {
        result.profile.name.to_string()
    });
    let ctx = CrawlContext::of(result);
    let matcher = PiiMatcher::new(&res.props);
    let snap = result.store.snapshot();
    panoptes_obs::count!("study.flows.observed", Deterministic, snap.len() as u64);
    let mut partials = CrawlPartials::default();
    for flow in snap.iter() {
        let facts = FlowFacts::default();
        partials.observe(&FlowView::new(flow, &facts), &ctx, &matcher);
    }
    finish_crawl(result, partials, dns_partial(result), &ctx, res)
}

/// Every §3.5 result of one idle campaign. The offset/domain histograms
/// stay in accumulator form so any bucket width can be rendered without
/// touching the capture again.
pub struct IdleAnalysis {
    /// Browser name.
    pub browser: String,
    /// Native requests the browser model reports sending while idle.
    pub idle_sent: u32,
    /// The idle window's length.
    pub duration: SimDuration,
    partial: IdlePartial,
}

impl IdleAnalysis {
    /// The Figure 5 cumulative timeline at `bucket` width.
    pub fn timeline(&self, bucket: SimDuration) -> IdleTimeline {
        self.partial.timeline(&self.browser, bucket, self.duration)
    }

    /// The §3.5 destination shares, largest first.
    pub fn destination_shares(&self) -> Vec<DestinationShare> {
        self.partial.destination_shares()
    }
}

/// Analyses one idle campaign (one fused pass over the capture).
pub fn analyze_idle(result: &IdleResult) -> IdleAnalysis {
    let _span = panoptes_obs::trace::span_with("study.analyze_idle", None, || {
        result.profile.name.to_string()
    });
    let mut partial = IdlePartial::default();
    let start = result.idle_start.0;
    panoptes_obs::count!(
        "study.idle_flows.observed",
        Deterministic,
        result.store.snapshot().len() as u64
    );
    for flow in result.store.snapshot().iter() {
        partial.observe(flow, start);
    }
    IdleAnalysis {
        browser: result.profile.name.to_string(),
        idle_sent: result.idle_sent,
        duration: result.duration,
        partial,
    }
}

/// The full study's analyses: one [`CampaignAnalysis`] per crawl and
/// one [`IdleAnalysis`] per idle run, both in input (profile) order.
pub struct StudyAnalyses {
    /// Crawl analyses, in input order.
    pub crawls: Vec<CampaignAnalysis>,
    /// Idle analyses, in input order.
    pub idles: Vec<IdleAnalysis>,
}

/// Analyses a completed study sequentially (fused single-pass per
/// campaign).
pub fn analyze_study(
    results: &[CampaignResult],
    idles: &[IdleResult],
    res: &AnalysisResources,
) -> StudyAnalyses {
    StudyAnalyses {
        crawls: results.iter().map(|r| analyze_crawl(r, res)).collect(),
        idles: idles.iter().map(analyze_idle).collect(),
    }
}

/// Analyses a completed study across the fleet worker pool — one unit
/// per campaign, results in input order. Byte-identical to
/// [`analyze_study`] for any worker count.
pub fn analyze_study_jobs(
    results: &[CampaignResult],
    idles: &[IdleResult],
    res: &AnalysisResources,
    options: &FleetOptions,
) -> Result<StudyAnalyses, FleetError<()>> {
    let labels: Vec<String> = results
        .iter()
        .map(|r| format!("{} crawl analysis", r.profile.name))
        .chain(
            idles
                .iter()
                .map(|r| format!("{} idle analysis", r.profile.name)),
        )
        .collect();
    let crawl_slots: Mutex<Vec<Option<CampaignAnalysis>>> =
        Mutex::new((0..results.len()).map(|_| None).collect());
    let idle_slots: Mutex<Vec<Option<IdleAnalysis>>> =
        Mutex::new((0..idles.len()).map(|_| None).collect());
    fleet::execute(&labels, options, |index| {
        if index < results.len() {
            let analysis = analyze_crawl(&results[index], res);
            crawl_slots.lock().unwrap()[index] = Some(analysis);
        } else {
            let idle_index = index - results.len();
            let analysis = analyze_idle(&idles[idle_index]);
            idle_slots.lock().unwrap()[idle_index] = Some(analysis);
        }
    })?;
    Ok(StudyAnalyses {
        crawls: crawl_slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|slot| slot.expect("fleet reported success"))
            .collect(),
        idles: idle_slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|slot| slot.expect("fleet reported success"))
            .collect(),
    })
}
