//! Evaluation metrics (§3.3): accuracy *A* and miss rate *M*.
//!
//! *A* = correct answers / all questions; *M* = "I don't know" answers /
//! all questions. A good model has high *A* with low *M*. Unparseable
//! responses count as wrong answers, not misses.

use std::fmt;
use taxoglimpse_json::{FromJson, Json, JsonError, ToJson};

/// Aggregated outcome counts plus the derived metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Questions answered correctly.
    pub correct: usize,
    /// Questions answered "I don't know".
    pub missed: usize,
    /// Questions answered incorrectly (including unparseable output).
    pub wrong: usize,
    /// Questions whose model call failed even after retries — no answer
    /// was ever scored. Distinct from `missed`: a miss is the model
    /// declining to answer; a failure is the serving layer never
    /// delivering one.
    pub failed: usize,
}

impl Metrics {
    /// Total questions seen (failed deliveries included).
    pub fn total(&self) -> usize {
        self.correct + self.missed + self.wrong + self.failed
    }

    /// Availability: the fraction of questions that got *any* answer
    /// (1 − failed/total; 1 for an empty set, matching a fault-free
    /// default).
    pub fn availability(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            1.0 - self.failed as f64 / total as f64
        }
    }

    /// Accuracy *A*: correct / total (0 for an empty set).
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct, self.total())
    }

    /// Miss rate *M*: misses / total (0 for an empty set).
    pub fn miss_rate(&self) -> f64 {
        ratio(self.missed, self.total())
    }

    /// Record one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Correct => self.correct += 1,
            Outcome::Missed => self.missed += 1,
            Outcome::Wrong => self.wrong += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// 95% Wilson score interval for the accuracy — the right interval
    /// for proportions at the benchmark's sample sizes (a few hundred
    /// questions per level), where the normal approximation misbehaves
    /// near 0 and 1. Returns `(low, high)`; `(0, 1)` for an empty set.
    pub fn accuracy_ci95(&self) -> (f64, f64) {
        wilson_ci(self.correct, self.total(), 1.959_963_985)
    }
}

/// Wilson score interval for `successes / trials` at z-score `z`.
pub fn wilson_ci(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Implement [`AddAssign`](std::ops::AddAssign) and
/// [`Sum`](std::iter::Sum) for a counter struct from one list of its
/// fields: `+=` adds field by field, and summing nothing gives
/// `Default::default()`. The right-hand side is destructured without
/// `..`, so a field left off the list is a compile error.
///
/// ```
/// #[derive(Debug, Default, PartialEq)]
/// struct Hits { found: u64, lost: u64 }
/// taxoglimpse_core::counters!(Hits { found, lost });
///
/// let total: Hits = [Hits { found: 1, lost: 2 }, Hits { found: 3, lost: 0 }].into_iter().sum();
/// assert_eq!(total, Hits { found: 4, lost: 2 });
/// ```
#[macro_export]
macro_rules! counters {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl ::std::ops::AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                let $ty { $($field),+ } = rhs;
                $(self.$field += $field;)+
            }
        }

        impl ::std::iter::Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                iter.fold(<$ty>::default(), |mut total, item| {
                    total += item;
                    total
                })
            }
        }
    };
}

crate::counters!(Metrics { correct, missed, wrong, failed });

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A={:.3} M={:.3} (n={})", self.accuracy(), self.miss_rate(), self.total())?;
        if self.failed > 0 {
            write!(f, " F={}", self.failed)?;
        }
        Ok(())
    }
}

// Hand-written, not `struct_json!`: `failed` is emitted only when nonzero.
impl ToJson for Metrics {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("correct", self.correct.to_json()),
            ("missed", self.missed.to_json()),
            ("wrong", self.wrong.to_json()),
        ];
        // `failed` is serialized only when non-zero: fault-free runs
        // must stay byte-identical to the pinned pre-resilience digests.
        if self.failed > 0 {
            fields.push(("failed", self.failed.to_json()));
        }
        Json::obj(fields)
    }
}

impl FromJson for Metrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Metrics {
            correct: json.field_as("correct")?,
            missed: json.field_as("missed")?,
            wrong: json.field_as("wrong")?,
            failed: match json.get("failed") {
                Some(v) => usize::from_json(v)?,
                None => 0,
            },
        })
    }
}

/// Outcome of one question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Parsed answer matched the gold answer.
    Correct,
    /// Explicit abstention.
    Missed,
    /// Anything else that was actually answered.
    Wrong,
    /// The model call failed (after any retries); nothing to score.
    Failed,
}

taxoglimpse_json::unit_enum_json!(Outcome { Correct, Missed, Wrong, Failed });

/// `num / den`, or 0 when `den` is 0.
pub(crate) fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let m = Metrics { correct: 80, missed: 5, wrong: 15, failed: 0 };
        assert_eq!(m.total(), 100);
        assert!((m.accuracy() - 0.80).abs() < 1e-12);
        assert!((m.miss_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::default();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.miss_rate(), 0.0);
    }

    #[test]
    fn record_and_accumulate() {
        let mut m = Metrics::default();
        m.record(Outcome::Correct);
        m.record(Outcome::Missed);
        m.record(Outcome::Wrong);
        m.record(Outcome::Correct);
        assert_eq!(m, Metrics { correct: 2, missed: 1, wrong: 1, failed: 0 });

        let mut total = Metrics::default();
        total += m;
        total += m;
        assert_eq!(total.total(), 8);
        assert_eq!(total.correct, 4);
    }

    #[test]
    fn display_is_compact() {
        let m = Metrics { correct: 1, missed: 0, wrong: 1, failed: 0 };
        assert_eq!(m.to_string(), "A=0.500 M=0.000 (n=2)");
    }

    #[test]
    fn wilson_interval_properties() {
        // Contains the point estimate and stays in [0, 1].
        for (s, n) in [(0usize, 10usize), (5, 10), (10, 10), (80, 100), (384, 385)] {
            let (lo, hi) = wilson_ci(s, n, 1.96);
            let p = s as f64 / n as f64;
            assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "{s}/{n}: [{lo}, {hi}]");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
        // Shrinks with n.
        let (lo_small, hi_small) = wilson_ci(8, 10, 1.96);
        let (lo_big, hi_big) = wilson_ci(800, 1000, 1.96);
        assert!(hi_big - lo_big < hi_small - lo_small);
        // Empty set is the trivial interval.
        assert_eq!(wilson_ci(0, 0, 1.96), (0.0, 1.0));
    }

    #[test]
    fn metrics_expose_cis() {
        let m = Metrics { correct: 90, missed: 5, wrong: 5, failed: 0 };
        let (lo, hi) = m.accuracy_ci95();
        assert!(lo < 0.9 && 0.9 < hi);
        assert!(hi - lo < 0.15);
    }

    #[test]
    fn failed_counts_feed_availability() {
        let mut m = Metrics { correct: 6, missed: 1, wrong: 1, failed: 0 };
        m.record(Outcome::Failed);
        m.record(Outcome::Failed);
        assert_eq!(m.failed, 2);
        assert_eq!(m.total(), 10);
        assert!((m.availability() - 0.8).abs() < 1e-12);
        // Failures drag accuracy down: they are part of the denominator.
        assert!((m.accuracy() - 0.6).abs() < 1e-12);
        assert_eq!(Metrics::default().availability(), 1.0);
        assert_eq!(m.to_string(), "A=0.600 M=0.100 (n=10) F=2");
    }

    #[test]
    fn failed_field_serializes_only_when_nonzero() {
        use taxoglimpse_json::{from_str, to_string};
        let clean = Metrics { correct: 1, missed: 2, wrong: 3, failed: 0 };
        let clean_json = to_string(&clean).expect("metrics serialize to json");
        assert_eq!(clean_json, r#"{"correct":1,"missed":2,"wrong":3}"#);
        assert_eq!(from_str::<Metrics>(&clean_json).expect("clean metrics parse back"), clean);

        let faulty = Metrics { correct: 1, missed: 2, wrong: 3, failed: 4 };
        let faulty_json = to_string(&faulty).expect("metrics serialize to json");
        assert_eq!(faulty_json, r#"{"correct":1,"missed":2,"wrong":3,"failed":4}"#);
        assert_eq!(from_str::<Metrics>(&faulty_json).expect("faulty metrics parse back"), faulty);
    }

    #[derive(Debug, Default, PartialEq)]
    struct Tally {
        seen: u64,
        kept: usize,
        nested: Metrics,
    }

    crate::counters!(Tally { seen, kept, nested });

    #[test]
    fn counters_add_and_sum_field_by_field() {
        let one = || Tally { seen: 3, kept: 1, nested: Metrics { correct: 2, ..Metrics::default() } };
        let mut total = one();
        total += Tally { seen: 4, kept: 0, nested: Metrics { failed: 5, ..Metrics::default() } };
        let both = Metrics { correct: 2, failed: 5, ..Metrics::default() };
        assert_eq!(total, Tally { seen: 7, kept: 1, nested: both });
        let summed: Tally = [one(), one(), one()].into_iter().sum();
        assert_eq!(summed, Tally { seen: 9, kept: 3, nested: Metrics { correct: 6, ..Metrics::default() } });
        assert_eq!(std::iter::empty::<Tally>().sum::<Tally>(), Tally::default());
    }

    /// A Cochran-sized sample (385) gives the ±5% margin the paper's
    /// sampling is designed for.
    #[test]
    fn cochran_sample_yields_five_point_margin() {
        let (lo, hi) = wilson_ci(193, 385, 1.96); // p ≈ 0.5, worst case
        assert!((hi - lo) / 2.0 < 0.052, "half-width {}", (hi - lo) / 2.0);
    }
}
