//! Retry, backoff and circuit breaking for fallible model calls.
//!
//! The paper's eighteen models sat behind real APIs and a local GPU
//! farm; calls there time out, get throttled, arrive truncated or not
//! at all. This module turns those failures into *measured* outcomes
//! instead of crashes:
//!
//! * [`ResiliencePolicy`] — bounded retry with exponential backoff +
//!   deterministic jitter on a **virtual clock** (simulated seconds; no
//!   wall time, no sleeping), plus an optional per-model circuit
//!   breaker (closed → open → half-open).
//! * [`ResilienceSession`] — the mutable state executing one policy
//!   over a run of questions. [`crate::grid::GridRunner`] creates a
//!   fresh session per work unit (grid chunk), so breaker state is a
//!   function of the chunk's question sequence alone — never of worker
//!   count or scheduling order, which preserves the
//!   byte-identical-reports guarantee. Reports and `DetailedRun`
//!   transcripts run the same units with the same sessions;
//!   `GridRunner::ask` opens one per question, hier one per instance and
//!   serve one per lane. A policy is never applied through a shared,
//!   lock-held session.
//!
//! Queries that exhaust their retries surface as
//! [`crate::metrics::Outcome::Failed`] and lower the report's
//! availability column; they are never silently scored as wrong.
//!
//! Determinism: backoff jitter is drawn from
//! `(policy seed, question id, retry ordinal)` and fault streams (see
//! `llm::faults`) key on question identity plus [`Query::attempt`] —
//! both independent of thread count, chunk scheduling and wall clock.

use crate::model::{LanguageModel, ModelError, Query, Response};
use taxoglimpse_synth::rng::mix64;

/// Exponential backoff with deterministic jitter, in simulated seconds.
///
/// Retry `k` (1-based) waits `base_s * multiplier^(k-1)` clamped to
/// `max_s`, then scaled by `1 + jitter * (u - 0.5)` where `u ∈ [0, 1)`
/// is drawn deterministically per (question, retry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// First-retry wait in simulated seconds.
    pub base_s: f64,
    /// Multiplicative growth per further retry.
    pub multiplier: f64,
    /// Upper clamp on the un-jittered wait.
    pub max_s: f64,
    /// Jitter width as a fraction of the wait (0 = none, 0.5 = ±25%).
    pub jitter: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy { base_s: 0.5, multiplier: 2.0, max_s: 30.0, jitter: 0.25 }
    }
}

impl BackoffPolicy {
    /// Override the first-retry wait.
    pub fn with_base_s(mut self, base_s: f64) -> Self {
        self.base_s = base_s.max(0.0);
        self
    }

    /// Override the growth factor (clamped to ≥ 1).
    pub fn with_multiplier(mut self, multiplier: f64) -> Self {
        self.multiplier = multiplier.max(1.0);
        self
    }

    /// Override the wait clamp.
    pub fn with_max_s(mut self, max_s: f64) -> Self {
        self.max_s = max_s.max(0.0);
        self
    }

    /// Override the jitter width (clamped to [0, 1]).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// The un-jittered wait before retry `k` (1-based).
    pub fn raw_wait_s(&self, retry: u32) -> f64 {
        let exp = retry.saturating_sub(1).min(63);
        (self.base_s * self.multiplier.powi(exp as i32)).min(self.max_s)
    }
}

/// Circuit-breaker thresholds. The breaker protects a dying backend
/// from retry storms: after `failure_threshold` consecutive exhausted
/// queries it *opens* and fails fast for `cooldown_s` simulated
/// seconds, then *half-opens* to probe with single attempts until one
/// succeeds (→ closed) or fails (→ open again).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive exhausted queries that trip the breaker.
    pub failure_threshold: u32,
    /// Simulated seconds the breaker stays open before probing.
    pub cooldown_s: f64,
    /// Simulated seconds a fast-failed (rejected) query costs — this is
    /// what moves the virtual clock toward the cooldown deadline.
    pub fast_fail_s: f64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy { failure_threshold: 5, cooldown_s: 30.0, fast_fail_s: 0.05 }
    }
}

impl BreakerPolicy {
    /// Override the consecutive-failure trip threshold (clamped ≥ 1).
    pub fn with_failure_threshold(mut self, failure_threshold: u32) -> Self {
        self.failure_threshold = failure_threshold.max(1);
        self
    }

    /// Override the open-state cooldown.
    pub fn with_cooldown_s(mut self, cooldown_s: f64) -> Self {
        self.cooldown_s = cooldown_s.max(0.0);
        self
    }

    /// Override the fast-fail cost.
    pub fn with_fast_fail_s(mut self, fast_fail_s: f64) -> Self {
        self.fast_fail_s = fast_fail_s.max(0.0);
        self
    }
}

/// The complete resilience configuration: retry budget, backoff shape,
/// optional breaker, and the jitter seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Maximum deliveries per query (1 = no retries).
    pub max_attempts: u32,
    /// Backoff shape between retries.
    pub backoff: BackoffPolicy,
    /// Circuit breaker; `None` disables it.
    pub breaker: Option<BreakerPolicy>,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_attempts: 3,
            backoff: BackoffPolicy::default(),
            breaker: Some(BreakerPolicy::default()),
            seed: 0xFA17,
        }
    }
}

impl ResiliencePolicy {
    /// Override the delivery budget (clamped to ≥ 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Override the backoff shape.
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = backoff;
        self
    }

    /// Enable/replace the circuit breaker.
    pub fn with_breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Disable the circuit breaker.
    pub fn without_breaker(mut self) -> Self {
        self.breaker = None;
        self
    }

    /// Override the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Circuit-breaker state machine position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; queries flow with the full retry budget.
    Closed,
    /// Failing fast; queries are rejected until the cooldown elapses.
    Open,
    /// Probing with single-delivery queries after a cooldown.
    HalfOpen,
}

/// Counters a session accumulates (never serialized into reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Queries submitted to the session.
    pub queries: u64,
    /// Deliveries actually sent to the model (includes retries).
    pub deliveries: u64,
    /// Retries among those deliveries.
    pub retries: u64,
    /// Queries that ended in failure (exhausted, non-retryable, or
    /// rejected by the open breaker).
    pub failed: u64,
    /// Failures rejected by the open breaker without touching the model.
    pub fast_failed: u64,
}

impl ResilienceStats {
    /// Deliveries per query: 1.0 means no retries were ever needed.
    pub fn amplification(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.deliveries as f64 / self.queries as f64
        }
    }
}

// Stats aggregate field-wise, so per-lane/per-tenant/per-shard
// sessions roll up without hand-summing counters.
crate::counters!(ResilienceStats { queries, deliveries, retries, failed, fast_failed });

/// Mutable execution state for one policy over one run of questions.
///
/// Deliberately *not* shared across grid chunks: a fresh session per
/// chunk makes breaker/clock state a pure function of the chunk's
/// question sequence, which is what keeps parallel reports
/// byte-identical across worker counts.
#[derive(Debug)]
pub struct ResilienceSession {
    policy: ResiliencePolicy,
    state: BreakerState,
    consecutive_failures: u32,
    open_until_s: f64,
    clock_s: f64,
    stats: ResilienceStats,
}

impl ResilienceSession {
    /// A fresh session (breaker closed, clock at zero).
    pub fn new(policy: ResiliencePolicy) -> Self {
        ResilienceSession {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_s: 0.0,
            clock_s: 0.0,
            stats: ResilienceStats::default(),
        }
    }

    /// Current breaker position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Simulated seconds elapsed (latency + backoff + fast-fails).
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Counters so far.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Submit one query: retry with backoff within the budget, honor
    /// the breaker, and return either the (metadata-stamped) response
    /// or the final error once the query is given up on.
    pub fn call(
        &mut self,
        model: &dyn LanguageModel,
        query: &Query<'_>,
    ) -> Result<Response, ModelError> {
        self.call_impl(model, query, None)
    }

    /// [`Self::call`] with the attempt-0 delivery already performed.
    ///
    /// This is the batching hook: the grid runner prefetches a chunk's
    /// first deliveries through [`LanguageModel::answer_batch`], then
    /// replays them through the session in order. Because model answers
    /// are pure functions of the query (the determinism contract), the
    /// prefetched result is byte-for-byte what `call` would have
    /// obtained on its own attempt 0, so breaker state, backoff waits,
    /// retries and the virtual clock evolve identically. The one
    /// divergence is deliberate: when the breaker fast-fails, the
    /// prefetched delivery is discarded *after having been produced*,
    /// so base-model usage counters (never reports) can exceed the
    /// sequential path's.
    pub fn call_prefetched(
        &mut self,
        model: &dyn LanguageModel,
        query: &Query<'_>,
        first: Result<Response, ModelError>,
    ) -> Result<Response, ModelError> {
        self.call_impl(model, query, Some(first))
    }

    fn call_impl(
        &mut self,
        model: &dyn LanguageModel,
        query: &Query<'_>,
        mut first: Option<Result<Response, ModelError>>,
    ) -> Result<Response, ModelError> {
        self.stats.queries += 1;

        let mut probing = false;
        if let Some(breaker) = self.policy.breaker {
            match self.state {
                BreakerState::Open => {
                    if self.clock_s < self.open_until_s {
                        self.clock_s += breaker.fast_fail_s;
                        self.stats.failed += 1;
                        self.stats.fast_failed += 1;
                        self.consecutive_failures += 1;
                        return Err(ModelError::Unavailable);
                    }
                    self.state = BreakerState::HalfOpen;
                    probing = true;
                }
                BreakerState::HalfOpen => probing = true,
                BreakerState::Closed => {}
            }
        }

        // A half-open probe gets a single delivery: the point is to
        // test the backend, not to hammer it with a full retry budget.
        let budget = if probing { 1 } else { self.policy.max_attempts };
        let mut attempt = 0u32;
        let result = loop {
            self.stats.deliveries += 1;
            let delivered = match first.take() {
                Some(prefetched) if attempt == 0 => prefetched,
                _ => model.answer(&query.with_attempt(attempt)),
            };
            match delivered {
                Ok(mut response) => {
                    self.clock_s += response.latency_s.max(0.0);
                    response.attempts = attempt + 1;
                    break Ok(response);
                }
                Err(error) => {
                    attempt += 1;
                    if attempt >= budget || !error.is_retryable() {
                        break Err(error);
                    }
                    self.stats.retries += 1;
                    self.clock_s += self.backoff_wait_s(query.question.id, attempt, &error);
                }
            }
        };

        match &result {
            Ok(_) => {
                self.consecutive_failures = 0;
                self.state = BreakerState::Closed;
            }
            Err(_) => {
                self.stats.failed += 1;
                self.consecutive_failures += 1;
                if let Some(breaker) = self.policy.breaker {
                    // A failed probe re-opens immediately; in closed
                    // state the consecutive-failure threshold decides.
                    if probing || self.consecutive_failures >= breaker.failure_threshold {
                        self.state = BreakerState::Open;
                        self.open_until_s = self.clock_s + breaker.cooldown_s;
                    }
                }
            }
        }
        result
    }

    /// Jittered wait before retry `retry` (1-based) of `question_id`,
    /// honoring a server-provided `retry_after_s` as a floor. Keyed by
    /// question identity — never by worker or wall clock.
    fn backoff_wait_s(&self, question_id: u64, retry: u32, error: &ModelError) -> f64 {
        let raw = self.policy.backoff.raw_wait_s(retry);
        let h = mix64(
            self.policy.seed
                ^ question_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (u64::from(retry) << 56),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = raw * (1.0 + self.policy.backoff.jitter * (u - 0.5));
        match error {
            ModelError::RateLimited { retry_after_s } => jittered.max(*retry_after_s),
            ModelError::Timeout
            | ModelError::Truncated { .. }
            | ModelError::Unavailable
            | ModelError::Malformed => jittered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FixedAnswerModel;
    use crate::prompts::PromptSetting;
    use crate::question::tf_question as question;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Fails the first `fail_first` deliveries of every query, then
    /// answers. `AtomicU32` is test-only bookkeeping, not product sync.
    struct FlakyModel {
        fail_first: u32,
        calls: AtomicU32,
        error: ModelError,
    }

    impl FlakyModel {
        fn new(fail_first: u32, error: ModelError) -> Self {
            FlakyModel { fail_first, calls: AtomicU32::new(0), error }
        }
    }

    impl LanguageModel for FlakyModel {
        fn name(&self) -> &str {
            "flaky"
        }

        fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if query.attempt < self.fail_first {
                Err(self.error.clone())
            } else {
                Ok(Response::new("Yes.").with_latency(0.1))
            }
        }
    }

    #[test]
    fn retries_until_success_and_stamps_attempts() {
        let model = FlakyModel::new(2, ModelError::Timeout);
        let q = question(1);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        let mut session = ResilienceSession::new(ResiliencePolicy::default());
        let response = session.call(&model, &query).expect("third delivery succeeds");
        assert_eq!(response.attempts, 3);
        assert_eq!(session.stats().deliveries, 3);
        assert_eq!(session.stats().retries, 2);
        assert_eq!(session.stats().failed, 0);
        // Two backoff waits plus the success latency moved the clock.
        assert!(session.clock_s() > 0.1);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_error() {
        let model = FlakyModel::new(u32::MAX, ModelError::Unavailable);
        let q = question(2);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        let mut session =
            ResilienceSession::new(ResiliencePolicy::default().with_max_attempts(2).without_breaker());
        let err = session.call(&model, &query).expect_err("never succeeds");
        assert_eq!(err, ModelError::Unavailable);
        assert_eq!(session.stats().deliveries, 2);
        assert_eq!(session.stats().failed, 1);
    }

    #[test]
    fn malformed_is_not_retried() {
        let model = FlakyModel::new(u32::MAX, ModelError::Malformed);
        let q = question(3);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        let mut session = ResilienceSession::new(ResiliencePolicy::default().with_max_attempts(5));
        assert_eq!(session.call(&model, &query), Err(ModelError::Malformed));
        assert_eq!(session.stats().deliveries, 1, "permanent errors get no retries");
    }

    #[test]
    fn rate_limit_floor_is_honored() {
        let policy = ResiliencePolicy::default()
            .with_backoff(BackoffPolicy::default().with_base_s(0.1).with_jitter(0.0));
        let model = FlakyModel::new(1, ModelError::RateLimited { retry_after_s: 7.0 });
        let q = question(4);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        let mut session = ResilienceSession::new(policy);
        session.call(&model, &query).expect("second delivery succeeds");
        assert!(session.clock_s() >= 7.0, "clock {} must include the server floor", session.clock_s());
    }

    #[test]
    fn breaker_opens_fast_fails_then_recovers() {
        let policy = ResiliencePolicy::default()
            .with_max_attempts(1)
            .with_breaker(BreakerPolicy::default().with_failure_threshold(2).with_cooldown_s(1.0).with_fast_fail_s(0.6));
        // Fails the first delivery of every query (attempt index resets
        // per query with max_attempts 1, so every closed-state query
        // fails) — until we swap models below.
        let bad = FlakyModel::new(u32::MAX, ModelError::Timeout);
        let good = FixedAnswerModel::always_yes();
        let q = question(5);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        let mut session = ResilienceSession::new(policy);

        assert!(session.call(&bad, &query).is_err());
        assert_eq!(session.state(), BreakerState::Closed);
        assert!(session.call(&bad, &query).is_err());
        assert_eq!(session.state(), BreakerState::Open, "threshold of 2 trips the breaker");

        // While open, calls fail fast without touching the model.
        let before = bad.calls.load(Ordering::Relaxed);
        assert_eq!(session.call(&bad, &query), Err(ModelError::Unavailable));
        assert_eq!(bad.calls.load(Ordering::Relaxed), before, "fast-fail skips the model");
        assert_eq!(session.stats().fast_failed, 1);

        // Fast-fails advance the virtual clock; after the cooldown the
        // next query is a half-open probe, and a healthy backend closes
        // the breaker again.
        assert_eq!(session.call(&bad, &query), Err(ModelError::Unavailable));
        session.call(&good, &query).expect("half-open probe succeeds");
        assert_eq!(session.state(), BreakerState::Closed);
        session.call(&good, &query).expect("closed again");
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let policy = ResiliencePolicy::default()
            .with_max_attempts(3)
            .with_breaker(BreakerPolicy::default().with_failure_threshold(1).with_cooldown_s(0.0));
        let bad = FlakyModel::new(u32::MAX, ModelError::Timeout);
        let q = question(6);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        let mut session = ResilienceSession::new(policy);
        assert!(session.call(&bad, &query).is_err());
        assert_eq!(session.state(), BreakerState::Open);
        // Zero cooldown: next query probes immediately — one delivery
        // only — and its failure re-opens the breaker.
        let before = bad.calls.load(Ordering::Relaxed);
        assert!(session.call(&bad, &query).is_err());
        assert_eq!(bad.calls.load(Ordering::Relaxed), before + 1, "probe gets a single delivery");
        assert_eq!(session.state(), BreakerState::Open);
    }

    #[test]
    fn backoff_shape_and_jitter_are_deterministic() {
        let backoff = BackoffPolicy::default().with_base_s(1.0).with_multiplier(2.0).with_max_s(8.0);
        assert_eq!(backoff.raw_wait_s(1), 1.0);
        assert_eq!(backoff.raw_wait_s(2), 2.0);
        assert_eq!(backoff.raw_wait_s(3), 4.0);
        assert_eq!(backoff.raw_wait_s(4), 8.0);
        assert_eq!(backoff.raw_wait_s(10), 8.0, "clamped at max_s");

        let model = FlakyModel::new(3, ModelError::Timeout);
        let q = question(7);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        let clock = |seed: u64| {
            let mut s = ResilienceSession::new(
                ResiliencePolicy::default().with_max_attempts(4).with_seed(seed),
            );
            s.call(&model, &query).expect("fourth delivery succeeds");
            s.clock_s()
        };
        assert_eq!(clock(1), clock(1), "same seed, same virtual time");
        assert_ne!(clock(1), clock(2), "jitter seed matters");
    }

    #[test]
    fn stats_aggregate_field_wise() {
        let a = ResilienceStats { queries: 10, deliveries: 13, retries: 3, failed: 1, fast_failed: 0 };
        let b = ResilienceStats { queries: 4, deliveries: 4, retries: 0, failed: 2, fast_failed: 2 };
        let mut merged = a;
        merged += b;
        assert_eq!(
            merged,
            ResilienceStats { queries: 14, deliveries: 17, retries: 3, failed: 3, fast_failed: 2 }
        );
        let summed: ResilienceStats = [a, b].into_iter().sum();
        assert_eq!(summed, merged);
        let empty: ResilienceStats = std::iter::empty().sum();
        assert_eq!(empty, ResilienceStats::default());
    }
}
