//! Per-layer metrics of a traced run: span self times, allocation and
//! flow counts, and the program's own deterministic obs counters.

use std::collections::BTreeMap;

use panoptes_obs::metrics::{MetricValue, MetricsSnapshot};

use crate::offline::StudyOut;
use crate::trace::{self, SpanRec};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The layer metrics only a served workload exercises.
pub const SERVE_LAYERS: [&str; 12] = [
    "serve.admission_ms_p50",
    "serve.cache_wait_ms_p50",
    "serve.build_ms_p50",
    "serve.capture_ms_p50",
    "serve.analysis_ms_p50",
    "serve.render_ms_p50",
    "serve.write_ms_p50",
    "serve.net_ms_p50",
    "serve.gen_lag_ms_p95",
    "cache.hit_ratio",
    "cache.evictions",
    "cache.used_mib",
];

/// Counts the offline studies of a run add up.
#[derive(Debug, Default, Clone, Copy)]
pub struct StudyCounts {
    /// Flows captured by the crawl campaigns.
    pub flows_crawled: u64,
    /// Flows through the crawl analysis.
    pub flows_analysed: u64,
    /// Allocations building the world.
    pub build_allocs: u64,
    /// Allocations while crawling.
    pub crawl_allocs: u64,
    /// Allocations while analysing crawls.
    pub analysis_allocs: u64,
    /// Rendered document bytes.
    pub doc_bytes: u64,
}

impl StudyCounts {
    /// One study's counts.
    pub fn of(out: &StudyOut) -> StudyCounts {
        StudyCounts {
            flows_crawled: out.flows_crawled,
            flows_analysed: out.flows_analysed,
            build_allocs: out.build_allocs,
            crawl_allocs: out.crawl_allocs,
            analysis_allocs: out.analysis_allocs,
            doc_bytes: out.doc.len() as u64,
        }
    }

    /// Adds another run's counts.
    pub fn merge(&mut self, other: &StudyCounts) {
        self.flows_crawled += other.flows_crawled;
        self.flows_analysed += other.flows_analysed;
        self.build_allocs += other.build_allocs;
        self.crawl_allocs += other.crawl_allocs;
        self.analysis_allocs += other.analysis_allocs;
        self.doc_bytes += other.doc_bytes;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match e.value {
            MetricValue::Counter(n) => n,
            _ => 0,
        })
        .sum()
}

fn counter_prefixed(snap: &MetricsSnapshot, prefix: &str, suffix: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name.starts_with(prefix) && e.name.ends_with(suffix))
        .map(|e| match e.value {
            MetricValue::Counter(n) => n,
            _ => 0,
        })
        .sum()
}

/// The capture/analysis/render layer metrics from the spans of the
/// run's offline studies, their counts, and the obs counter delta.
pub fn study_layers(spans: &[SpanRec], counts: &StudyCounts, obs: &MetricsSnapshot) -> Layers {
    let selfs = trace::self_times(spans);
    let t = |name: &str| selfs.by_name.get(name).copied().unwrap_or(0.0);
    let fleet = trace::fleet_figures(spans);
    let crawl_unit_max = spans
        .iter()
        .filter(|s| s.name == "campaign.crawl")
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .fold(0.0, f64::max);
    let crawl_s = t("campaign.crawl");
    let (facts_s, detect_s) = (t("analysis.facts"), t("analysis.detect"));
    let render_s = t("render.crawl") + t("render.incognito") + t("render.idle");

    let scans = counter(obs, "blocklist.automaton.scans");
    let rejects = counter(obs, "blocklist.automaton.prefilter_rejects");
    let hits = counter_prefixed(obs, "atom.intern.", ".hits");
    let misses = counter_prefixed(obs, "atom.intern.", ".misses");

    let mut layers = Layers::new();
    layers.insert("webworld.build_s", t("webworld.build"));
    layers.insert("webworld.build_allocs", counts.build_allocs as f64);
    layers.insert("campaign.crawl_s", crawl_s);
    layers.insert("campaign.flows", counts.flows_crawled as f64);
    layers.insert(
        "campaign.flows_per_s",
        ratio(counts.flows_crawled as f64, crawl_s),
    );
    layers.insert(
        "campaign.allocs_per_flow",
        ratio(counts.crawl_allocs as f64, counts.flows_crawled as f64),
    );
    layers.insert("campaign.unit_max_s", crawl_unit_max);
    layers.insert("mitm.seal_ms", 1e3 * t("mitm.seal"));
    layers.insert("analysis.facts_s", facts_s);
    layers.insert("analysis.detect_s", detect_s);
    layers.insert(
        "analysis.flows_per_s",
        ratio(counts.flows_analysed as f64, facts_s + detect_s),
    );
    layers.insert(
        "analysis.allocs_per_flow",
        ratio(counts.analysis_allocs as f64, counts.flows_analysed as f64),
    );
    layers.insert("analysis.idle_ms", 1e3 * t("analysis.idle"));
    layers.insert("idle.run_s", t("idle.run"));
    layers.insert("fleet.busy_frac", ratio(fleet.busy_s, fleet.capacity_s));
    layers.insert("fleet.tail_idle_s", fleet.tail_idle_s);
    layers.insert("render.doc_ms", 1e3 * render_s);
    layers.insert("render.doc_bytes", counts.doc_bytes as f64);
    layers.insert("mitm.flows_built", counter(obs, "mitm.flows.built") as f64);
    layers.insert(
        "mitm.taint_stripped",
        counter(obs, "mitm.taint.stripped") as f64,
    );
    layers.insert(
        "simnet.dns_queries",
        counter(obs, "simnet.dns.queries") as f64,
    );
    layers.insert(
        "simnet.tls_certs_issued",
        counter(obs, "simnet.tls.certs_issued") as f64,
    );
    layers.insert("blocklist.probes", counter(obs, "blocklist.probes") as f64);
    layers.insert(
        "blocklist.prefilter_reject_frac",
        ratio(rejects as f64, (rejects + scans) as f64),
    );
    layers.insert(
        "atom.intern_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    layers
}

/// Self time per layer and the wall-clock self-check of a trace:
/// `remainder_frac` is the share of `wall_s` that the wall-weighted
/// self times do not account for.
pub fn self_check(spans: &[SpanRec], wall_s: f64) -> (BTreeMap<String, f64>, f64, f64) {
    let selfs = trace::self_times(spans);
    let remainder = ratio(
        (wall_s - selfs.attributed_s).abs() + selfs.escaped_s,
        wall_s,
    );
    (selfs.by_layer, remainder, selfs.attributed_s)
}
