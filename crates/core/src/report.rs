//! Campaign summaries and JSON export.

use panoptes_http::json::{self, Value};
use panoptes_mitm::FlowClass;

use crate::campaign::CampaignResult;

/// Per-campaign aggregate numbers (the raw material of Figures 2 and 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSummary {
    /// Engine-classified requests captured.
    pub engine_requests: u64,
    /// Native-classified requests captured.
    pub native_requests: u64,
    /// Pinned (opaque) connections observed.
    pub pinned_flows: u64,
    /// Outgoing bytes of engine requests.
    pub engine_bytes_out: u64,
    /// Outgoing bytes of native requests.
    pub native_bytes_out: u64,
    /// native / engine request ratio (Figure 2's black line).
    pub native_ratio: f64,
    /// native / engine outgoing-volume ratio (Figure 4).
    pub volume_ratio: f64,
}

/// The accumulator form of [`CampaignSummary`]: feed it flows with
/// [`observe`](SummaryPartial::observe) and
/// [`finish`](SummaryPartial::finish) once at the end — the same
/// observe/finish contract the analysis crate's detector partials
/// follow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryPartial {
    engine_requests: u64,
    native_requests: u64,
    pinned_flows: u64,
    engine_bytes_out: u64,
    native_bytes_out: u64,
}

impl SummaryPartial {
    /// Folds one captured flow into the accumulator.
    pub fn observe(&mut self, flow: &panoptes_mitm::Flow) {
        match flow.class {
            FlowClass::Engine => {
                self.engine_requests += 1;
                self.engine_bytes_out += flow.bytes_out;
            }
            FlowClass::Native => {
                self.native_requests += 1;
                self.native_bytes_out += flow.bytes_out;
            }
            FlowClass::PinnedOpaque => self.pinned_flows += 1,
            FlowClass::Blocked => {}
        }
    }

    /// Finalises the ratios.
    pub fn finish(self) -> CampaignSummary {
        CampaignSummary {
            engine_requests: self.engine_requests,
            native_requests: self.native_requests,
            pinned_flows: self.pinned_flows,
            engine_bytes_out: self.engine_bytes_out,
            native_bytes_out: self.native_bytes_out,
            native_ratio: ratio(self.native_requests, self.engine_requests),
            volume_ratio: ratio(self.native_bytes_out, self.engine_bytes_out),
        }
    }
}

/// Summarizes a campaign's capture.
pub fn summarize(result: &CampaignResult) -> CampaignSummary {
    let snap = result.store.snapshot();
    let mut partial = SummaryPartial::default();
    for f in snap.iter() {
        partial.observe(f);
    }
    partial.finish()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Renders a campaign summary as a JSON object.
pub fn summary_json(result: &CampaignResult) -> Value {
    let s = summarize(result);
    Value::object(vec![
        ("browser", Value::str(&result.profile.name)),
        ("version", Value::str(&result.profile.version)),
        ("package", Value::str(&result.profile.package)),
        ("uid", Value::from(result.uid)),
        ("visits", Value::from(result.visits.len() as u64)),
        ("engine_requests", Value::from(s.engine_requests)),
        ("native_requests", Value::from(s.native_requests)),
        ("pinned_flows", Value::from(s.pinned_flows)),
        ("engine_bytes_out", Value::from(s.engine_bytes_out)),
        ("native_bytes_out", Value::from(s.native_bytes_out)),
        ("native_ratio", Value::Number(s.native_ratio)),
        ("volume_ratio", Value::Number(s.volume_ratio)),
    ])
}

/// Pretty JSON form of [`summary_json`].
pub fn summary_text(result: &CampaignResult) -> String {
    json::to_string_pretty(&summary_json(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_crawl;
    use crate::config::CampaignConfig;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes_web::World;

    #[test]
    fn summary_is_consistent_with_store() {
        let world =
            World::build(&GeneratorConfig { popular: 5, sensitive: 3, ..Default::default() });
        let result = run_crawl(
            &world,
            &profile_by_name("Edge").unwrap(),
            &world.sites,
            &CampaignConfig::default(),
        );
        let s = summarize(&result);
        let snap = result.store.snapshot();
        assert_eq!(s.engine_requests, snap.engine().len() as u64);
        assert_eq!(s.native_requests, snap.native().len() as u64);
        assert!(s.native_ratio > 0.0);
        let text = summary_text(&result);
        let parsed = panoptes_http::json::parse(&text).unwrap();
        assert_eq!(parsed.get("browser").unwrap().as_str(), Some("Edge"));
        assert_eq!(
            parsed.get("engine_requests").unwrap().as_i64().unwrap() as u64,
            s.engine_requests
        );
    }
}
