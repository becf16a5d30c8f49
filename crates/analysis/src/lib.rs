//! # panoptes-analysis
//!
//! The measurement analyses of the paper's §3, run against captured flow
//! databases. Each module regenerates one artefact:
//!
//! * [`facts`] — the parse-once layer every pass shares: memoised
//!   per-flow URLs, observations and decodings over the sealed
//!   [`panoptes_mitm::FlowSnapshot`],
//! * [`volume`] — Figure 2 (request counts + native/engine ratio) and
//!   Figure 4 (outgoing traffic volume),
//! * [`addomains`] — Figure 3 (% of distinct native-contact domains that
//!   are third-party/ad-related, per the Steven Black list),
//! * [`history`] — §3.2: browsing-history leak detection at three
//!   granularities (full URL — plain, percent- or Base64-encoded —
//!   hostname, registrable domain), persistent-identifier detection,
//!   and the JS-injection channel,
//! * [`pii`] — Table 2: PII / device-information extraction from query
//!   parameters and JSON bodies via keyword + value heuristics,
//! * [`dns`] — §3.2's DoH-vs-stub split,
//! * [`transfers`] — §3.4: international transfers of history leaks,
//! * [`incognito`] — §3.2's incognito comparison,
//! * [`sensitive`] — §3.2's sensitive-category leak check,
//! * [`idle`] — Figure 5 timelines and §3.5 destination shares,
//! * [`engine`] — the fused single-pass study engine: every detector's
//!   mergeable `Partial` folded in one iteration over the capture,
//!   sharded across the fleet pool,
//! * [`summary`] — a machine-readable JSON document of every result,
//! * [`compare`] — per-browser deltas between two studies (longitudinal
//!   / A-B workflows),
//! * [`identifiers`] — stable device/user identifiers across native
//!   destinations (Listing 1's `operaId` pattern),
//! * [`cost`] — §3.1's user-borne costs: data-plan bytes and radio
//!   energy attributable to native tracking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addomains;
pub mod compare;
pub mod cost;
pub mod dns;
pub mod engine;
pub mod facts;
pub mod history;
pub mod identifiers;
pub mod idle;
pub mod incognito;
pub mod pii;
pub mod scan;
pub mod sensitive;
pub mod summary;
pub mod transfers;
pub mod volume;
