//! The flow database.
//!
//! §2.3: "The two different categories of the requests are finally stored
//! in different local databases." The store keeps every captured flow and
//! exposes the two categories as views, plus JSONL persistence so
//! campaigns can be archived and re-analysed offline.
//!
//! # Capture arena
//!
//! A crawl's flows live in **one allocation**: sealing a
//! [`FlowSnapshot`] moves the appended flows into a contiguous
//! `Arc<Vec<Flow>>` slab, and every view — capture order or one
//! traffic class — is a [`Flows`] window over that slab described by
//! `u32` indices. No per-flow `Arc`, no pointer chasing between
//! records: the fused analysis pass walks one cache-friendly array, and
//! the only refcount in the system is the slab's own.
//!
//! The first seal of a capture copies nothing: the open `Vec<Flow>` the
//! proxy appended to *becomes* the slab, trimmed to its length in place.
//! Appending or clearing flows invalidates the memoised snapshot; the
//! next [`FlowStore::snapshot`] call seals a fresh slab, cloning the
//! already-sealed prefix (rare: captures are built up, sealed once,
//! then analysed). Snapshots are immutable, so a stale snapshot still
//! describes exactly the capture it sealed.
//!
//! The pre-snapshot cloning accessors ([`FlowStore::all`],
//! [`FlowStore::native_flows`], …) remain as thin compatibility shims
//! for tests and external tooling; production analysis code must use
//! the snapshot (CI greps for regressions — see
//! `tools/check_no_cloning.sh`).

use std::any::Any;
use std::fmt;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use panoptes_http::json;

use crate::flow::{Flow, FlowClass};

/// A window over a snapshot's flow arena: either a contiguous
/// capture-order span or an index-selected view (a traffic class).
///
/// `Flows` is `Copy` — two words of span plus the slab pointer — so it
/// passes by value everywhere a `&[Arc<Flow>]` used to. Iteration
/// yields plain `&Flow` references into the shared slab.
#[derive(Clone, Copy)]
pub struct Flows<'a> {
    slab: &'a [Flow],
    sel: Selection<'a>,
}

#[derive(Clone, Copy)]
enum Selection<'a> {
    /// Contiguous capture-order range `[start, end)` of the slab.
    Span(usize, usize),
    /// Arena indices, in view order.
    Indices(&'a [u32]),
}

impl<'a> Flows<'a> {
    /// Number of flows in the view.
    pub fn len(&self) -> usize {
        match self.sel {
            Selection::Span(a, b) => b - a,
            Selection::Indices(ix) => ix.len(),
        }
    }

    /// True when the view selects no flows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th flow of the view, if any. The returned reference
    /// borrows the arena, not this (copyable) view value.
    pub fn get(self, i: usize) -> Option<&'a Flow> {
        match self.sel {
            Selection::Span(a, b) => {
                if i < b - a {
                    self.slab.get(a + i)
                } else {
                    None
                }
            }
            Selection::Indices(ix) => ix.get(i).map(|&j| &self.slab[j as usize]),
        }
    }

    /// Iterates the view's flows in view order.
    pub fn iter(self) -> impl Iterator<Item = &'a Flow> + 'a {
        let slab = self.slab;
        let (span, indices) = match self.sel {
            Selection::Span(a, b) => (Some(&slab[a..b]), None),
            Selection::Indices(ix) => (None, Some(ix)),
        };
        span.into_iter()
            .flatten()
            .chain(indices.into_iter().flatten().map(move |&i| &slab[i as usize]))
    }
}

impl Index<usize> for Flows<'_> {
    type Output = Flow;
    fn index(&self, i: usize) -> &Flow {
        self.get(i).expect("flow view index out of bounds")
    }
}

impl fmt::Debug for Flows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Flows").field("len", &self.len()).finish()
    }
}

impl<'a> IntoIterator for Flows<'a> {
    type Item = &'a Flow;
    type IntoIter = Box<dyn Iterator<Item = &'a Flow> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// A sealed, immutable view of a capture: one contiguous flow arena
/// plus per-class index vectors. Building a snapshot never deep-copies
/// an already-sealed flow, and every view is a [`Flows`] window over
/// the same slab.
pub struct FlowSnapshot {
    slab: Arc<Vec<Flow>>,
    engine: Vec<u32>,
    native: Vec<u32>,
    pinned: Vec<u32>,
    blocked: Vec<u32>,
    /// Slot for a derived-data cache layered on top of the snapshot by a
    /// downstream crate (the analysis crate parks its parse-once
    /// `CaptureFacts` here). Lives and dies with the snapshot, so the
    /// cache can never outlive or lag the capture it describes.
    extension: OnceLock<Box<dyn Any + Send + Sync>>,
}

impl Default for FlowSnapshot {
    fn default() -> FlowSnapshot {
        FlowSnapshot::build(Arc::default())
    }
}

impl fmt::Debug for FlowSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowSnapshot")
            .field("flows", &self.slab.len())
            .field("engine", &self.engine.len())
            .field("native", &self.native.len())
            .finish()
    }
}

impl FlowSnapshot {
    fn build(slab: Arc<Vec<Flow>>) -> FlowSnapshot {
        let mut snap = FlowSnapshot {
            slab,
            engine: Vec::new(),
            native: Vec::new(),
            pinned: Vec::new(),
            blocked: Vec::new(),
            extension: OnceLock::new(),
        };
        for (i, flow) in snap.slab.iter().enumerate() {
            let i = i as u32;
            match flow.class {
                FlowClass::Engine => snap.engine.push(i),
                FlowClass::Native => snap.native.push(i),
                FlowClass::PinnedOpaque => snap.pinned.push(i),
                FlowClass::Blocked => snap.blocked.push(i),
            }
        }
        snap
    }

    /// The underlying flow arena: every captured flow, capture order,
    /// one allocation. Derived caches (the analysis facts layer) clone
    /// this `Arc` to pin the slab and index it arithmetically.
    pub fn arena(&self) -> &Arc<Vec<Flow>> {
        &self.slab
    }

    /// Every captured flow in capture order.
    pub fn all(&self) -> Flows<'_> {
        Flows { slab: &self.slab, sel: Selection::Span(0, self.slab.len()) }
    }

    /// Iterates every flow in capture order.
    pub fn iter(&self) -> impl Iterator<Item = &Flow> {
        self.slab.iter()
    }

    fn view<'a>(&'a self, indices: &'a [u32]) -> Flows<'a> {
        Flows { slab: &self.slab, sel: Selection::Indices(indices) }
    }

    /// The engine-traffic database view.
    pub fn engine(&self) -> Flows<'_> {
        self.view(&self.engine)
    }

    /// The native-traffic database view.
    pub fn native(&self) -> Flows<'_> {
        self.view(&self.native)
    }

    /// Flows of one classification.
    pub fn by_class(&self, class: FlowClass) -> Flows<'_> {
        match class {
            FlowClass::Engine => self.engine(),
            FlowClass::Native => self.native(),
            FlowClass::PinnedOpaque => self.view(&self.pinned),
            FlowClass::Blocked => self.view(&self.blocked),
        }
    }

    /// Total number of flows in the snapshot.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when the snapshot holds no flows.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Returns the snapshot's extension cache, initialising it with
    /// `init` on first use. One extension type per snapshot: a later
    /// caller asking for a different `T` is a programming error and
    /// panics.
    pub fn extension_or_init<T, F>(&self, init: F) -> &T
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.extension
            .get_or_init(|| Box::new(init()))
            .downcast_ref::<T>()
            .expect("FlowSnapshot extension requested with a different type than it was initialised with")
    }
}

/// Flows not yet sealed plus the last sealed arena. Appends go to the
/// open list; sealing moves them into a fresh contiguous slab (see
/// [`FlowStore::seal`]).
#[derive(Default)]
struct StoreState {
    sealed: Option<Arc<Vec<Flow>>>,
    open: Vec<Flow>,
}

impl StoreState {
    fn len(&self) -> usize {
        self.sealed.as_ref().map_or(0, |s| s.len()) + self.open.len()
    }

    fn iter(&self) -> impl Iterator<Item = &Flow> {
        self.sealed.iter().flat_map(|s| s.iter()).chain(self.open.iter())
    }
}

/// Thread-safe, append-only capture database.
#[derive(Default)]
pub struct FlowStore {
    state: Mutex<StoreState>,
    /// Bumped on every mutation; lets [`Self::snapshot`] detect that a
    /// freshly built snapshot is already stale without nesting locks.
    generation: AtomicU64,
    /// Memoised sealed snapshot: `(generation it was built at, view)`.
    snapshot: Mutex<Option<(u64, Arc<FlowSnapshot>)>>,
}

impl FlowStore {
    /// An empty store.
    pub fn new() -> FlowStore {
        FlowStore::default()
    }

    /// Appends a flow. Invalidates the memoised snapshot.
    pub fn push(&self, flow: Flow) {
        self.state.lock().open.push(flow);
        self.generation.fetch_add(1, Ordering::Release);
        *self.snapshot.lock() = None;
    }

    /// Moves any open flows into a contiguous arena and returns it.
    /// When nothing was appended since the last seal the existing slab
    /// is returned as-is — re-snapshotting is allocation-free.
    ///
    /// The first seal moves the open list itself into the arena and
    /// trims its spare capacity; shrinking a large block reallocates in
    /// place, so no flow is copied. Re-sealing after an append clones
    /// the sealed prefix into a fresh arena, because older snapshots
    /// still share the old one.
    fn seal(&self) -> Arc<Vec<Flow>> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let flows = match &state.sealed {
            Some(sealed) if state.open.is_empty() => return sealed.clone(),
            Some(sealed) => {
                let mut flows = Vec::with_capacity(state.len());
                flows.extend(sealed.iter().cloned());
                flows.append(&mut state.open);
                flows
            }
            None => {
                let mut flows = std::mem::take(&mut state.open);
                flows.shrink_to_fit();
                flows
            }
        };
        let slab = Arc::new(flows);
        state.sealed = Some(slab.clone());
        slab
    }

    /// The sealed snapshot of the capture: built once, then shared by
    /// every analysis pass until the store is mutated again.
    pub fn snapshot(&self) -> Arc<FlowSnapshot> {
        if let Some((gen, snap)) = self.snapshot.lock().as_ref() {
            if *gen == self.generation.load(Ordering::Acquire) {
                return snap.clone();
            }
        }
        // Seal under the state lock, index outside it: the builder only
        // touches the immutable slab.
        let gen = self.generation.load(Ordering::Acquire);
        let snap = Arc::new(FlowSnapshot::build(self.seal()));
        // Memoise only if no mutation raced the build; the returned
        // snapshot is still a correct view of the flows it was built on.
        if gen == self.generation.load(Ordering::Acquire) {
            *self.snapshot.lock() = Some((gen, snap.clone()));
        }
        snap
    }

    /// Cloning snapshot of every captured flow in capture order.
    ///
    /// Compatibility shim: deep-copies every flow. Analysis code must
    /// use [`Self::snapshot`] instead.
    pub fn all(&self) -> Vec<Flow> {
        self.state.lock().iter().cloned().collect()
    }

    /// The engine-traffic database (cloning shim; see [`Self::snapshot`]).
    pub fn engine_flows(&self) -> Vec<Flow> {
        self.by_class(FlowClass::Engine)
    }

    /// The native-traffic database (cloning shim; see [`Self::snapshot`]).
    pub fn native_flows(&self) -> Vec<Flow> {
        self.by_class(FlowClass::Native)
    }

    /// Flows of one classification (cloning shim; see [`Self::snapshot`]).
    pub fn by_class(&self, class: FlowClass) -> Vec<Flow> {
        self.state.lock().iter().filter(|f| f.class == class).cloned().collect()
    }

    /// Total number of captured flows.
    pub fn len(&self) -> usize {
        self.state.lock().len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every flow (start of a fresh campaign).
    pub fn clear(&self) {
        let mut state = self.state.lock();
        state.sealed = None;
        state.open.clear();
        drop(state);
        self.generation.fetch_add(1, Ordering::Release);
        *self.snapshot.lock() = None;
    }

    /// Serializes the whole capture as JSONL. The output buffer is
    /// pre-reserved from per-flow line estimates, and the store lock is
    /// taken exactly once.
    pub fn export_jsonl(&self) -> String {
        let state = self.state.lock();
        let mut out =
            String::with_capacity(state.iter().map(Flow::jsonl_len_estimate).sum());
        for flow in state.iter() {
            out.push_str(&flow.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Streams the capture as JSONL into `out`, one line at a time, so
    /// archive writers don't double-buffer the whole export.
    pub fn write_jsonl(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let state = self.state.lock();
        for flow in state.iter() {
            out.write_str(&flow.to_jsonl())?;
            out.write_char('\n')?;
        }
        Ok(())
    }

    /// Parses a JSONL capture produced by [`Self::export_jsonl`].
    /// Returns the line number (1-based) of the first malformed record on
    /// failure.
    pub fn import_jsonl(text: &str) -> Result<FlowStore, usize> {
        let store = FlowStore::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = json::parse(line).map_err(|_| i + 1)?;
            let flow = Flow::from_json(&value).ok_or(i + 1)?;
            store.push(flow);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_http::netaddr::IpAddr;
    use panoptes_http::method::Method;
    use panoptes_http::request::HttpVersion;

    fn flow(id: u64, class: FlowClass, package: &str) -> Flow {
        Flow {
            id,
            time_us: id * 1000,
            uid: 10000,
            package: package.into(),
            host: "h.com".into(),
            dst_ip: IpAddr::new(1, 2, 3, 4),
            dst_port: 443,
            method: Method::Get,
            url: "https://h.com/".into(),
            request_headers: vec![],
            request_body: String::new(),
            status: 200,
            bytes_out: 100,
            bytes_in: 200,
            version: HttpVersion::H2,
            class,
        }
    }

    #[test]
    fn classification_views() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Engine, "a"));
        store.push(flow(2, FlowClass::Native, "a"));
        store.push(flow(3, FlowClass::Native, "b"));
        store.push(flow(4, FlowClass::PinnedOpaque, "b"));
        assert_eq!(store.len(), 4);
        assert_eq!(store.engine_flows().len(), 1);
        assert_eq!(store.native_flows().len(), 2);
        assert_eq!(store.by_class(FlowClass::PinnedOpaque).len(), 1);
    }

    #[test]
    fn snapshot_views_match_cloning_shims() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Engine, "a"));
        store.push(flow(2, FlowClass::Native, "a"));
        store.push(flow(3, FlowClass::Native, "b"));
        store.push(flow(4, FlowClass::Blocked, "b"));
        let snap = store.snapshot();
        assert_eq!(snap.len(), store.len());
        assert!(!snap.is_empty());
        let all: Vec<Flow> = snap.iter().cloned().collect();
        assert_eq!(all, store.all());
        for class in [
            FlowClass::Engine,
            FlowClass::Native,
            FlowClass::PinnedOpaque,
            FlowClass::Blocked,
        ] {
            let view: Vec<Flow> = snap.by_class(class).iter().cloned().collect();
            assert_eq!(view, store.by_class(class), "{class:?}");
        }
        assert_eq!(snap.engine().len(), 1);
        assert_eq!(snap.native().len(), 2);
    }

    #[test]
    fn snapshot_is_memoised_and_invalidated_by_mutation() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Native, "p"));
        let a = store.snapshot();
        let b = store.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "same sealed snapshot reused");
        store.push(flow(2, FlowClass::Native, "p"));
        let c = store.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "mutation invalidates the memo");
        assert_eq!(c.len(), 2);
        // The old snapshot still reflects the capture it sealed.
        assert_eq!(a.len(), 1);
        store.clear();
        assert!(store.snapshot().is_empty());
    }

    #[test]
    fn snapshot_views_share_one_arena() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Native, "p"));
        store.push(flow(2, FlowClass::Engine, "p"));
        let snap = store.snapshot();
        // Class views resolve to the very same records in the
        // capture-order arena — identical addresses, no copies.
        let all = snap.all();
        assert!(std::ptr::eq(&all[0], &snap.native()[0]));
        assert!(std::ptr::eq(&all[1], &snap.engine()[0]));
        // The arena is exactly the capture-order flows.
        assert_eq!(snap.arena().len(), 2);
        assert!(std::ptr::eq(&snap.arena()[0], &all[0]));
    }

    #[test]
    fn flows_windows_and_index() {
        let store = FlowStore::new();
        for i in 1..=6 {
            let class = if i % 2 == 0 { FlowClass::Engine } else { FlowClass::Native };
            store.push(flow(i, class, "p"));
        }
        let snap = store.snapshot();
        let all = snap.all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[3].id, 4);
        assert_eq!(all.get(6).map(|f| f.id), None);
        let native = snap.native();
        assert_eq!(native.iter().map(|f| f.id).collect::<Vec<_>>(), vec![1, 3, 5]);
        // IntoIterator lets views drive `for` loops directly.
        let mut seen = 0;
        for f in snap.engine() {
            assert_eq!(f.class, FlowClass::Engine);
            seen += 1;
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn reseal_preserves_order_and_reuses_nothing_stale() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Native, "p"));
        let first = store.snapshot();
        store.push(flow(2, FlowClass::Engine, "p"));
        store.push(flow(3, FlowClass::Native, "q"));
        let second = store.snapshot();
        assert_eq!(
            second.iter().map(|f| f.id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "re-seal keeps capture order"
        );
        // The first snapshot's arena is untouched by the re-seal.
        assert_eq!(first.len(), 1);
        assert_eq!(first.all()[0].id, 1);
        // Snapshotting again without mutation reuses the sealed arena.
        let third = store.snapshot();
        assert!(Arc::ptr_eq(&second, &third));
    }

    #[test]
    fn jsonl_roundtrip() {
        let store = FlowStore::new();
        for i in 0..5 {
            store.push(flow(i, if i % 2 == 0 { FlowClass::Engine } else { FlowClass::Native }, "p"));
        }
        let text = store.export_jsonl();
        assert_eq!(text.lines().count(), 5);
        let restored = FlowStore::import_jsonl(&text).unwrap();
        assert_eq!(restored.all(), store.all());
    }

    #[test]
    fn streamed_export_matches_buffered() {
        let store = FlowStore::new();
        for i in 0..7 {
            store.push(flow(i, FlowClass::Native, "p"));
        }
        let mut streamed = String::new();
        store.write_jsonl(&mut streamed).unwrap();
        assert_eq!(streamed, store.export_jsonl());
    }

    #[test]
    fn export_covers_sealed_and_open_flows() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Native, "p"));
        let _ = store.snapshot(); // seal the first flow
        store.push(flow(2, FlowClass::Native, "p"));
        let text = store.export_jsonl();
        assert_eq!(text.lines().count(), 2, "sealed prefix and open tail both export");
        assert_eq!(store.len(), 2);
        assert_eq!(store.all().len(), 2);
    }

    #[test]
    fn export_reserve_estimate_covers_actual_lines() {
        let store = FlowStore::new();
        let mut f = flow(1, FlowClass::Native, "com.example.browser");
        f.url = "https://t.example/p?uid=abc&tz=Europe%2FAthens".into();
        f.request_headers = vec![("user-agent".into(), "UA \"quoted\"".into())];
        f.request_body = "{\"k\":\"v\\n\"}".into();
        store.push(f);
        let text = store.export_jsonl();
        let estimate: usize =
            store.snapshot().iter().map(Flow::jsonl_len_estimate).sum();
        assert!(estimate >= text.len(), "estimate {estimate} < actual {}", text.len());
    }

    #[test]
    fn import_reports_bad_line() {
        let good = flow(1, FlowClass::Native, "p").to_jsonl();
        let text = format!("{good}\nnot json\n");
        assert_eq!(FlowStore::import_jsonl(&text).map(|_| ()).unwrap_err(), 2);
        let text2 = format!("{good}\n{{\"id\":1}}\n");
        assert_eq!(FlowStore::import_jsonl(&text2).map(|_| ()).unwrap_err(), 2);
    }

    #[test]
    fn clear_empties() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Native, "p"));
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
    }
}
