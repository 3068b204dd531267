//! Simulated API serving layer: latency, retries and dollar-cost
//! accounting.
//!
//! The paper accessed GPTs "through Azure OpenAI API and the OpenAI
//! official API" and deployed open models on 8×RTX-3090 + 4×A100. This
//! module wraps any [`LanguageModel`] in an [`ApiClient`] that models
//! that serving reality deterministically:
//!
//! * **latency** — per-request seconds from the scalability model
//!   (open-weight) or a flat API round-trip (closed), accumulated on a
//!   simulated clock;
//! * **transient failures** — a configurable failure rate with
//!   exponential-backoff retries, injected deterministically per
//!   request;
//! * **cost** — token-metered pricing for API models, so the question
//!   "what would running all of TaxoGlimpse on GPT-4 cost?" has a
//!   number.

use crate::profile::ModelId;
use crate::scalability;
use crate::simulate::SimulatedLlm;
use std::sync::Mutex;
use taxoglimpse_core::model::{LanguageModel, ModelError, Query, Response};
use taxoglimpse_core::text::token_count;
use taxoglimpse_synth::rng::{hash_str, mix64};

/// Pricing per million tokens (input, output) in USD. Closed-model
/// prices reflect the era of the paper's experiments (2024); open
/// models are priced at 0 (self-hosted — the cost shows up as GPU time
/// instead).
pub fn price_per_mtok(model: ModelId) -> (f64, f64) {
    match model {
        ModelId::Gpt4 => (30.0, 60.0),
        ModelId::Gpt35 => (0.5, 1.5),
        ModelId::Claude3 => (15.0, 75.0),
        _ => (0.0, 0.0),
    }
}

/// Serving statistics accumulated by an [`ApiClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServingStats {
    /// Requests issued by callers.
    pub requests: u64,
    /// Attempts including retries.
    pub attempts: u64,
    /// Transient failures encountered (each retried).
    pub transient_failures: u64,
    /// Requests that exhausted their retries.
    pub exhausted: u64,
    /// Prompt tokens billed.
    pub prompt_tokens: u64,
    /// Completion tokens billed.
    pub completion_tokens: u64,
    /// Simulated wall-clock seconds spent (latency + backoff).
    pub simulated_seconds: f64,
    /// Dollars spent (API-priced models only).
    pub cost_usd: f64,
}

/// Retry/latency configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApiConfig {
    /// Probability a single attempt fails transiently.
    pub failure_rate: f64,
    /// Maximum attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Base backoff in seconds; attempt `k` waits `base * 2^(k-1)`.
    pub backoff_base_s: f64,
    /// Flat round-trip latency for API-only (closed) models, seconds.
    pub api_round_trip_s: f64,
}

impl Default for ApiConfig {
    fn default() -> Self {
        ApiConfig { failure_rate: 0.02, max_attempts: 4, backoff_base_s: 0.5, api_round_trip_s: 0.8 }
    }
}

/// A [`LanguageModel`] wrapped in the serving simulation.
pub struct ApiClient {
    inner: SimulatedLlm,
    config: ApiConfig,
    stats: Mutex<ServingStats>,
    seed: u64,
}

impl ApiClient {
    /// Wrap `model` with the default serving configuration.
    pub fn new(model: SimulatedLlm) -> Self {
        Self::with_config(model, ApiConfig::default())
    }

    /// Wrap with an explicit configuration.
    pub fn with_config(model: SimulatedLlm, config: ApiConfig) -> Self {
        let seed = mix64(0x0AB1_C0DE ^ model.id().row() as u64);
        ApiClient { inner: model, config, stats: Mutex::new(ServingStats::default()), seed }
    }

    /// Which model is being served.
    pub fn model(&self) -> ModelId {
        self.inner.id()
    }

    /// Serving statistics so far.
    pub fn stats(&self) -> ServingStats {
        *self.stats.lock().expect("stats lock not poisoned")
    }

    /// Seconds one successful attempt takes for this model.
    fn attempt_latency(&self) -> f64 {
        match scalability::footprint(self.inner.id()) {
            Some(f) => f.seconds_per_question,
            None => self.config.api_round_trip_s,
        }
    }

    /// Deterministic per-attempt failure draw. The caller's retry
    /// ordinal (`query.attempt`) is mixed in so an evaluator-level
    /// redelivery re-rolls the failure stream instead of replaying it;
    /// at `query.attempt == 0` the draw is identical to the historical
    /// one, keeping pre-resilience runs byte-stable.
    fn attempt_fails(&self, query: &Query<'_>, attempt: u32) -> bool {
        let salt = self.seed ^ u64::from(attempt) ^ (u64::from(query.attempt) << 16);
        let h = mix64(hash_str(salt, query.prompt));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.config.failure_rate
    }

    /// Estimated dollars to answer `n` questions of `avg_prompt_tokens`
    /// prompt / `avg_completion_tokens` completion each.
    pub fn estimate_cost(&self, n: u64, avg_prompt_tokens: f64, avg_completion_tokens: f64) -> f64 {
        let (pin, pout) = price_per_mtok(self.inner.id());
        (n as f64) * (avg_prompt_tokens * pin + avg_completion_tokens * pout) / 1e6
    }
}

impl ApiClient {
    /// The serving loop for one request: retry transient failures with
    /// backoff, meter latency and tokens. `inner_answer` produces the
    /// wrapped model's answer — either a live call (sequential path) or
    /// a delivery prefetched through the batch path; both are the same
    /// bytes because inner answers are pure per-query and independent
    /// of the serving attempt ordinal.
    fn serve(
        &self,
        stats: &mut ServingStats,
        query: &Query<'_>,
        inner_answer: impl FnOnce() -> Result<Response, ModelError>,
    ) -> Result<Response, ModelError> {
        stats.requests += 1;
        let mut answered = None;
        let mut request_seconds = 0.0;
        let mut attempts_made = 0u32;
        for attempt in 1..=self.config.max_attempts {
            stats.attempts += 1;
            attempts_made = attempt;
            request_seconds += self.attempt_latency();
            if self.attempt_fails(query, attempt) {
                stats.transient_failures += 1;
                request_seconds +=
                    self.config.backoff_base_s * f64::from(1u32 << (attempt - 1).min(8));
                continue;
            }
            answered = Some(inner_answer()?);
            break;
        }
        stats.simulated_seconds += request_seconds;
        let prompt_tokens = token_count(query.prompt) as u64;
        stats.prompt_tokens += prompt_tokens;
        let (pin, pout) = price_per_mtok(self.inner.id());
        let mut response = match answered {
            Some(r) => r,
            None => {
                stats.exhausted += 1;
                // Internal retries are spent: surface a structured
                // outage and let the caller's resilience layer (or the
                // evaluator's Failed accounting) take it from here.
                stats.cost_usd += prompt_tokens as f64 * pin / 1e6;
                return Err(ModelError::Unavailable);
            }
        };
        let completion_tokens = token_count(&response.text) as u64;
        stats.completion_tokens += completion_tokens;
        stats.cost_usd += (prompt_tokens as f64 * pin + completion_tokens as f64 * pout) / 1e6;
        response.latency_s = request_seconds;
        response.attempts = attempts_made;
        Ok(response)
    }
}

impl LanguageModel for ApiClient {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        // lint:allow(L002, stats accounting and the serve closure are deterministic simulation - no real network wait happens under the lock)
        let mut stats = self.stats.lock().expect("stats lock not poisoned");
        self.serve(&mut stats, query, || self.inner.answer(query))
    }

    /// Batched answering: prefetch the wrapped model's answers as one
    /// batch (so its own amortizations apply), then replay the serving
    /// simulation per request under a single stats lock. Responses and
    /// `ServingStats` are byte-identical to the sequential path, with
    /// one documented exception: a request that exhausts its retries
    /// discards its prefetched answer, so the *inner* model's usage
    /// counters may exceed the sequential path's (probability
    /// `failure_rate^max_attempts` per request, ~1.6e-7 at defaults).
    /// Reports never read those counters.
    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        let inner_answers = self.inner.answer_batch(queries);
        assert_eq!(
            inner_answers.len(),
            queries.len(),
            "answer_batch must return exactly one result per query"
        );
        let mut stats = self.stats.lock().expect("stats lock not poisoned");
        inner_answers
            .into_iter()
            .zip(queries)
            .map(|(inner_answer, query)| self.serve(&mut stats, query, move || inner_answer))
            .collect()
    }

    fn reset(&self) {
        self.inner.reset();
        *self.stats.lock().expect("stats lock not poisoned") = ServingStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
    use taxoglimpse_core::domain::TaxonomyKind;
    use taxoglimpse_core::eval::Evaluator;
    use taxoglimpse_synth::{generate, GenOptions};

    fn dataset() -> taxoglimpse_core::dataset::Dataset {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 40, scale: 1.0 }).unwrap();
        DatasetBuilder::new(&t, TaxonomyKind::Ebay, 40)
            .sample_cap(Some(50))
            .build(QuestionDataset::Hard)
            .unwrap()
    }

    #[test]
    fn accounting_adds_up() {
        let d = dataset();
        let client = ApiClient::new(SimulatedLlm::new(ModelId::Gpt4));
        let report = Evaluator::default().run(&client, &d);
        let stats = client.stats();
        assert_eq!(stats.requests as usize, d.len());
        assert!(stats.attempts >= stats.requests);
        assert!(stats.prompt_tokens > 0);
        assert!(stats.cost_usd > 0.0, "GPT-4 is not free");
        assert!(stats.simulated_seconds > 0.0);
        assert_eq!(report.overall.total(), d.len());
    }

    #[test]
    fn open_models_cost_nothing_but_take_gpu_time() {
        let d = dataset();
        let client = ApiClient::new(SimulatedLlm::new(ModelId::Llama2_70b));
        Evaluator::default().run(&client, &d);
        let stats = client.stats();
        assert_eq!(stats.cost_usd, 0.0);
        // 70B at ~0.8 s/question over 100 questions.
        assert!(stats.simulated_seconds > 50.0);
    }

    #[test]
    fn retries_recover_transient_failures() {
        let d = dataset();
        let flaky = ApiClient::with_config(
            SimulatedLlm::new(ModelId::Gpt35),
            ApiConfig { failure_rate: 0.3, max_attempts: 6, ..Default::default() },
        );
        let report = Evaluator::default().run(&flaky, &d);
        let stats = flaky.stats();
        assert!(stats.transient_failures > 0, "30% failure rate must fire");
        assert_eq!(stats.exhausted, 0, "6 attempts at 30% practically never exhaust");
        // Quality is unaffected by retried failures.
        assert!(report.overall.accuracy() > 0.7);
    }

    #[test]
    fn zero_retries_lose_requests() {
        let d = dataset();
        let fragile = ApiClient::with_config(
            SimulatedLlm::new(ModelId::Gpt4),
            ApiConfig { failure_rate: 0.5, max_attempts: 1, ..Default::default() },
        );
        let with_failures = Evaluator::default().run(&fragile, &d);
        assert!(fragile.stats().exhausted > 0);
        let reliable = Evaluator::default().run(&SimulatedLlm::new(ModelId::Gpt4), &d);
        assert!(with_failures.overall.accuracy() < reliable.overall.accuracy());
    }

    #[test]
    fn reset_clears_stats() {
        let d = dataset();
        let client = ApiClient::new(SimulatedLlm::new(ModelId::Gpt35));
        Evaluator::default().run(&client, &d);
        assert!(client.stats().requests > 0);
        client.reset();
        assert_eq!(client.stats(), ServingStats::default());
    }

    #[test]
    fn cost_estimation_matches_prices() {
        let client = ApiClient::new(SimulatedLlm::new(ModelId::Gpt4));
        // 1000 questions × (30 in + 5 out) tokens at $30/$60 per Mtok.
        let est = client.estimate_cost(1000, 30.0, 5.0);
        let expected = 1000.0 * (30.0 * 30.0 + 5.0 * 60.0) / 1e6;
        assert!((est - expected).abs() < 1e-9);
        // Free for self-hosted.
        let open = ApiClient::new(SimulatedLlm::new(ModelId::FlanT5_3b));
        assert_eq!(open.estimate_cost(1000, 30.0, 5.0), 0.0);
    }

    #[test]
    fn batch_serving_matches_sequential_responses_and_stats() {
        use taxoglimpse_core::prompts::{render_prefix, render_prompt_into, PromptSetting};
        let d = dataset();
        let config = ApiConfig { failure_rate: 0.25, ..Default::default() };
        let batched = ApiClient::with_config(SimulatedLlm::new(ModelId::Gpt35), config);
        let sequential = ApiClient::with_config(SimulatedLlm::new(ModelId::Gpt35), config);
        for setting in [PromptSetting::ZeroShot, PromptSetting::FewShot] {
            for slice in &d.levels {
                let prefix = render_prefix(
                    setting,
                    Default::default(),
                    &slice.exemplars,
                    PromptSetting::SHOTS,
                );
                let prompts: Vec<String> = slice
                    .questions
                    .iter()
                    .map(|q| {
                        let mut s = String::new();
                        render_prompt_into(q, setting, Default::default(), &prefix, &mut s);
                        s
                    })
                    .collect();
                let queries: Vec<Query<'_>> = prompts
                    .iter()
                    .zip(&slice.questions)
                    .map(|(p, q)| Query::new(p, q, setting).with_prefix_len(prefix.len()))
                    .collect();
                let batch = batched.answer_batch(&queries);
                let singles: Vec<_> = queries.iter().map(|q| sequential.answer(q)).collect();
                assert_eq!(batch, singles, "{setting:?}: batched serving diverged");
            }
        }
        assert_eq!(batched.stats(), sequential.stats(), "serving accounting diverged");
    }

    #[test]
    fn deterministic_failure_injection() {
        let d = dataset();
        let mk = || {
            let c = ApiClient::with_config(
                SimulatedLlm::new(ModelId::Gpt35),
                ApiConfig { failure_rate: 0.2, ..Default::default() },
            );
            Evaluator::default().run(&c, &d);
            c.stats().transient_failures
        };
        assert_eq!(mk(), mk());
    }
}
