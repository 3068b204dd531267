//! # taxoglimpse-report
//!
//! Rendering utilities for the experiment binaries: aligned plain-text
//! tables ([`table`]), text "figures" (per-level accuracy curves,
//! radar-chart data, scalability series — [`figures`]), and the
//! paper-vs-measured comparison used to fill EXPERIMENTS.md
//! ([`compare`]), plus the fixed-bucket log-scale latency histogram
//! behind the serving benchmarks ([`histogram`]).

#![warn(missing_docs)]

pub mod compare;
pub mod figures;
pub mod histogram;
pub mod leaderboard;
pub mod table;

pub use compare::{CellComparison, ComparisonSummary};
pub use figures::Series;
pub use histogram::LatencyHistogram;
pub use table::Table;
