//! # panoptes-bench
//!
//! The reproduction harness: shared experiment drivers used both by the
//! `repro` binary (which regenerates every table and figure of the paper
//! as Markdown) and by the Criterion benchmarks (one bench target per
//! artefact).

// `deny` rather than `forbid`: the `mem` module scopes one `allow` for
// its counting `GlobalAlloc` shim; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod capture;
pub mod capture_baseline;
pub mod experiments;
pub mod incognito;
pub mod mem;
pub mod perf;
pub mod render;
