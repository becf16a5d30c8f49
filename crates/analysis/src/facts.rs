//! Parse-once flow facts: each flow's derived data, computed at most
//! once.
//!
//! The fused crawl analysis ([`crate::engine::analyze_crawl`]) asks a
//! flow for its parsed URL, its observations and their decodings from
//! several detectors. [`FlowFacts`] computes each lazily and caches it,
//! so one flow is parsed once however many detectors ask. The engine
//! streams: it builds one [`FlowFacts`] per flow, folds that flow's
//! [`FlowView`] into every detector, and drops the facts before the
//! next flow, so nothing derived outlives the flow's turn.
//!
//! ```ignore
//! let snap = result.store.snapshot();
//! for flow in snap.iter() {
//!     let facts = FlowFacts::default();
//!     let view = FlowView::new(flow, &facts);
//!     for obs in view.observations() { /* parsed once per flow */ }
//! }
//! ```
//!
//! [`CaptureFacts`] is the capture-wide form of the same memo: one slot
//! per snapshot flow, parked in the sealed [`FlowSnapshot`]'s extension
//! slot and resolved by address arithmetic over the contiguous arena.
//! No analysis path builds it. The `bench_analysis` binary, the
//! `analysis` criterion bench and the `perfbench trace-study` layer
//! timings call [`capture_facts`] to time the parse on its own, and the
//! unit tests below keep its memoisation honest.

use std::sync::{Arc, OnceLock};

use panoptes_http::url::{registrable_suffix, Url};
use panoptes_mitm::{Flow, FlowSnapshot, Flows};

use crate::scan::{decodings, observations_with_url, Observation};

/// Lazily-computed derived data for one flow.
#[derive(Debug, Default)]
pub struct FlowFacts {
    url: OnceLock<Option<Url>>,
    scan: OnceLock<ScanFacts>,
}

/// The memoised output of [`crate::scan`] over one flow.
#[derive(Debug)]
struct ScanFacts {
    observations: Vec<Observation>,
    /// `decodings(obs.value)` for each observation, parallel to
    /// `observations` — the positional order is load-bearing (the
    /// history pass maps decoding index → wire encoding).
    decodings: Vec<Vec<String>>,
}

impl FlowFacts {
    fn scan(&self, flow: &Flow) -> &ScanFacts {
        self.scan.get_or_init(|| {
            let observations = observations_with_url(flow, self.url(flow));
            let decodings = observations.iter().map(|o| decodings(&o.value)).collect();
            ScanFacts { observations, decodings }
        })
    }

    /// The flow's parsed URL (`None` when unparseable), computed once.
    pub fn url(&self, flow: &Flow) -> Option<&Url> {
        self.url.get_or_init(|| Url::parse(&flow.url).ok()).as_ref()
    }

    /// Every key/value observation of the flow, extracted once.
    pub fn observations(&self, flow: &Flow) -> &[Observation] {
        &self.scan(flow).observations
    }

    /// `(observation, its plausible decodings)` pairs, both memoised.
    /// Decoding order matches [`crate::scan::decodings`] exactly.
    pub fn decoded_observations(
        &self,
        flow: &Flow,
    ) -> impl Iterator<Item = (&Observation, &[String])> {
        let scan = self.scan(flow);
        scan.observations
            .iter()
            .zip(scan.decodings.iter().map(Vec::as_slice))
    }
}

/// One flow plus its facts slot — what an analysis pass iterates.
#[derive(Clone, Copy)]
pub struct FlowView<'a> {
    flow: &'a Flow,
    facts: &'a FlowFacts,
}

impl<'a> FlowView<'a> {
    /// Pairs `flow` with the facts slot that caches its derived data.
    /// The slot must only ever be paired with this one flow.
    pub fn new(flow: &'a Flow, facts: &'a FlowFacts) -> FlowView<'a> {
        FlowView { flow, facts }
    }

    /// The underlying captured flow.
    pub fn flow(&self) -> &'a Flow {
        self.flow
    }

    /// The flow's parsed URL, memoised.
    pub fn url(&self) -> Option<&'a Url> {
        self.facts.url(self.flow)
    }

    /// The flow's observations, memoised.
    pub fn observations(&self) -> &'a [Observation] {
        self.facts.observations(self.flow)
    }

    /// `(observation, decodings)` pairs, memoised.
    pub fn decoded_observations(&self) -> impl Iterator<Item = (&'a Observation, &'a [String])> {
        self.facts.decoded_observations(self.flow)
    }

    /// The destination's registrable domain, borrowed from the host.
    pub fn registrable_domain(&self) -> &'a str {
        registrable_suffix(&self.flow.host)
    }
}

impl std::ops::Deref for FlowView<'_> {
    type Target = Flow;
    fn deref(&self) -> &Flow {
        self.flow
    }
}

/// Per-capture facts: one [`FlowFacts`] slot per snapshot flow.
pub struct CaptureFacts {
    /// The snapshot's flow arena, pinned so slot addresses stay valid
    /// for this layer's whole lifetime.
    slab: Arc<Vec<Flow>>,
    /// Parallel to the arena's capture-order flows.
    slots: Vec<FlowFacts>,
}

impl CaptureFacts {
    fn build(snapshot: &FlowSnapshot) -> CaptureFacts {
        let slab = snapshot.arena().clone();
        let slots = (0..slab.len()).map(|_| FlowFacts::default()).collect();
        CaptureFacts { slab, slots }
    }

    /// The arena slot of one snapshot flow, by address arithmetic: the
    /// arena is contiguous, so `(addr - base) / size_of::<Flow>()` is
    /// the capture-order index.
    fn slot_of(&self, flow: &Flow) -> usize {
        let base = self.slab.as_ptr() as usize;
        let offset = (flow as *const Flow as usize).wrapping_sub(base);
        let idx = offset / std::mem::size_of::<Flow>();
        assert!(
            idx < self.slots.len() && offset.is_multiple_of(std::mem::size_of::<Flow>()),
            "flow does not belong to this capture's snapshot"
        );
        idx
    }

    /// The facts slot of one snapshot flow.
    ///
    /// # Panics
    /// When `flow` is not a record of the snapshot these facts were
    /// built from (a cross-capture mix-up is a programming error).
    pub fn of<'a>(&'a self, flow: &'a Flow) -> FlowView<'a> {
        FlowView::new(flow, &self.slots[self.slot_of(flow)])
    }

    /// Views over any of the snapshot's flow windows (capture order, a
    /// class view, a package view).
    pub fn views<'a>(&'a self, flows: Flows<'a>) -> impl Iterator<Item = FlowView<'a>> {
        flows.iter().map(move |f| self.of(f))
    }

    /// Number of flows covered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The capture's shared facts layer, created on first use and memoised
/// in the snapshot's extension slot thereafter.
pub fn capture_facts(snapshot: &FlowSnapshot) -> Arc<CaptureFacts> {
    snapshot
        .extension_or_init(|| Arc::new(CaptureFacts::build(snapshot)))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_http::netaddr::IpAddr;
    use crate::scan::observations;
    use panoptes_http::method::Method;
    use panoptes_http::request::HttpVersion;
    use panoptes_mitm::{FlowClass, FlowStore};

    fn flow(id: u64, url: &str, body: &str) -> Flow {
        Flow {
            id,
            time_us: id * 1000,
            uid: 1,
            package: "p".into(),
            host: Url::parse(url).map(|u| u.host().into()).unwrap_or_default(),
            dst_ip: IpAddr::new(1, 1, 1, 1),
            dst_port: 443,
            method: Method::Post,
            url: url.into(),
            request_headers: vec![],
            request_body: body.into(),
            status: 200,
            bytes_out: 0,
            bytes_in: 0,
            version: HttpVersion::H2,
            class: if id.is_multiple_of(2) { FlowClass::Engine } else { FlowClass::Native },
        }
    }

    fn store() -> FlowStore {
        let store = FlowStore::new();
        store.push(flow(1, "https://t.example/p?uid=abc&tz=Europe%2FAthens", ""));
        store.push(flow(2, "https://x.example/q", r#"{"device":{"model":"SM-T580"}}"#));
        store.push(flow(3, "https://t.example/r?k=aHR0cHM6Ly9hLmNvbS8", "a=1&b=2"));
        store
    }

    #[test]
    fn facts_match_direct_scan() {
        let store = store();
        let snap = store.snapshot();
        let facts = capture_facts(&snap);
        for view in facts.views(snap.all()) {
            assert_eq!(view.observations(), observations(view.flow()).as_slice());
            for (obs, decs) in view.decoded_observations() {
                assert_eq!(decs, crate::scan::decodings(&obs.value).as_slice());
            }
            assert_eq!(
                view.registrable_domain(),
                panoptes_http::url::registrable_domain(&view.flow().host)
            );
            assert_eq!(
                view.url().map(|u| u.host().to_string()),
                Url::parse(&view.flow().url).ok().map(|u| u.host().to_string())
            );
        }
    }

    #[test]
    fn facts_are_memoised_per_snapshot() {
        let store = store();
        let snap = store.snapshot();
        let a = capture_facts(&snap);
        let b = capture_facts(&snap);
        assert!(Arc::ptr_eq(&a, &b), "one facts layer per snapshot");
        // Observation slices are the same allocation on repeated asks.
        let all = snap.all();
        let flow = &all[0];
        let first = a.of(flow).observations().as_ptr();
        let again = b.of(flow).observations().as_ptr();
        assert_eq!(first, again);
    }

    #[test]
    fn class_views_resolve_to_the_same_slots() {
        let store = store();
        let snap = store.snapshot();
        let facts = capture_facts(&snap);
        let all = snap.all();
        for view in facts.views(snap.native()) {
            let direct = facts.of(&all[(view.id - 1) as usize]);
            assert_eq!(
                view.observations().as_ptr(),
                direct.observations().as_ptr(),
                "native view and capture-order view share one slot"
            );
        }
        assert_eq!(facts.len(), 3);
        assert!(!facts.is_empty());
    }

    #[test]
    fn mutation_seals_a_fresh_facts_layer() {
        let store = store();
        let a = capture_facts(&store.snapshot());
        store.push(flow(4, "https://y.example/", ""));
        let b = capture_facts(&store.snapshot());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.len(), 4);
    }
}
