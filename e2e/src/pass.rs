//! What one repeat or traced pass of a workload hands back.

use crate::trace::Span;
use std::time::Instant;
use taxoglimpse_json::ToJson;
use taxoglimpse_synth::rng::{hash_str, mix64};

/// One untraced repeat.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the repeat.
    pub wall_s: f64,
    /// Items the repeat processed.
    pub items: u64,
    /// Share of items the system under test failed or refused (its
    /// expected, deterministic behaviour under injected faults).
    pub failed_frac: f64,
    /// Digest over every report of the repeat.
    pub digest: u64,
    /// Time to serialize and digest those reports.
    pub serialize_s: f64,
    /// Output checks of this repeat.
    pub checks: Vec<(&'static str, bool)>,
    /// Workload-specific metrics of this repeat.
    pub values: Vec<(&'static str, f64)>,
}

/// One traced pass, with the untraced single-thread repeat it is
/// compared against.
#[derive(Debug)]
pub struct Traced {
    /// The traced pass; its values are the workload's layer metrics.
    pub pass: Pass,
    /// The same work untraced on one thread.
    pub reference: Pass,
    /// The recorded spans.
    pub spans: Vec<Span>,
}

/// Digest over the JSON of every report (the recipe of the repository's
/// pinned-digest tests), and the time serializing and hashing took.
pub fn digest<'r, T: ToJson + 'r>(reports: impl IntoIterator<Item = &'r T>) -> (u64, f64) {
    let start = Instant::now();
    let mut digest = 0xBA5E_11AEu64;
    for report in reports {
        let json = report.to_json().render();
        digest = mix64(digest ^ hash_str(0x5EED, &json));
    }
    (digest, start.elapsed().as_secs_f64())
}

/// `num / den`, 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
