//! Deterministic fault injection for resilience testing.
//!
//! A [`FaultInjector`] wraps any [`LanguageModel`] and converts a
//! configurable fraction of its deliveries into each [`ModelError`]
//! class. Every decision is a pure function of
//! `(plan seed, model name, taxonomy, question id, attempt)` via the
//! same fork discipline the synthesizer uses — no wall clock, no
//! global state — so an injected fault stream is reproducible
//! byte-for-byte regardless of thread count or call order, and a
//! retried delivery (`query.attempt` bumped) re-rolls rather than
//! replays its faults.
//!
//! This purity also means two injector *instances* built from the same
//! plan — each with its own stats mutex — produce identical fault
//! streams for the same queries, so a fresh stack per run (or per
//! worker count) can never change which deliveries fail.

use std::sync::Mutex;
use taxoglimpse_core::model::{LanguageModel, ModelError, Query, Response};
use taxoglimpse_synth::rng::{mix64, StreamHasher};

/// Which error class an injected fault takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    Timeout,
    RateLimited,
    Truncated,
    Unavailable,
    Malformed,
}

/// Per-(model, taxonomy) fault-rate configuration.
///
/// Rates are probabilities per *delivery* (one `answer` call); each
/// class draws from the same uniform variate, so the per-class rates
/// add up and their sum is the overall injection rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    timeout: f64,
    rate_limited: f64,
    truncated: f64,
    unavailable: f64,
    malformed: f64,
    retry_after_s: f64,
}

impl FaultPlan {
    /// A plan with all rates zero — injects nothing.
    pub fn disabled(seed: u64) -> Self {
        FaultPlan {
            seed,
            timeout: 0.0,
            rate_limited: 0.0,
            truncated: 0.0,
            unavailable: 0.0,
            malformed: 0.0,
            retry_after_s: 1.0,
        }
    }

    /// A plan injecting `rate` of all deliveries, split evenly across
    /// the five error classes.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let per_class = rate.clamp(0.0, 1.0) / 5.0;
        FaultPlan {
            timeout: per_class,
            rate_limited: per_class,
            truncated: per_class,
            unavailable: per_class,
            malformed: per_class,
            ..Self::disabled(seed)
        }
    }

    /// Set the timeout rate.
    pub fn with_timeout_rate(mut self, rate: f64) -> Self {
        self.timeout = rate.clamp(0.0, 1.0);
        self
    }

    /// Set the rate-limit rate.
    pub fn with_rate_limit_rate(mut self, rate: f64) -> Self {
        self.rate_limited = rate.clamp(0.0, 1.0);
        self
    }

    /// Set the truncation rate.
    pub fn with_truncated_rate(mut self, rate: f64) -> Self {
        self.truncated = rate.clamp(0.0, 1.0);
        self
    }

    /// Set the unavailable rate.
    pub fn with_unavailable_rate(mut self, rate: f64) -> Self {
        self.unavailable = rate.clamp(0.0, 1.0);
        self
    }

    /// Set the malformed-response rate (the one non-retryable class).
    pub fn with_malformed_rate(mut self, rate: f64) -> Self {
        self.malformed = rate.clamp(0.0, 1.0);
        self
    }

    /// Seconds the injected `RateLimited` error asks callers to wait.
    pub fn with_retry_after_s(mut self, seconds: f64) -> Self {
        self.retry_after_s = seconds.max(0.0);
        self
    }

    /// True when no class can ever fire.
    pub fn is_disabled(&self) -> bool {
        self.timeout == 0.0
            && self.rate_limited == 0.0
            && self.truncated == 0.0
            && self.unavailable == 0.0
            && self.malformed == 0.0
    }

    /// The seed the per-delivery fault streams fork from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault decisions of one batch to `model`: the `model|` head
    /// of the draw key is hashed once here, not once per delivery.
    /// `None` when nothing can fire.
    fn decider(&self, model: &str) -> Option<FaultDecider<'_>> {
        if self.is_disabled() {
            return None;
        }
        let mut head = StreamHasher::new(self.seed ^ 0xFA_17B0A7);
        head.write_str(model);
        head.write_str("|");
        Some(FaultDecider { plan: self, head })
    }
}

/// [`FaultPlan`] decisions for one model, its key head hashed.
struct FaultDecider<'p> {
    plan: &'p FaultPlan,
    /// The draw hasher after `model|`. [`StreamHasher`] hashes any
    /// split of its input alike, so finishing a clone equals hashing
    /// the whole key in one stream.
    head: StreamHasher,
}

impl FaultDecider<'_> {
    /// Decide the fault (if any) for one delivery. Pure: the same
    /// `(model, taxonomy, question id, attempt)` always draws the same
    /// answer, and the draw never consults worker identity.
    fn decide(&self, query: &Query<'_>) -> Option<FaultClass> {
        let plan = self.plan;
        let mut h = self.head.clone();
        h.write_str(query.question.taxonomy.label());
        h.write_str("|");
        h.write_decimal(query.question.id);
        h.write_str("|");
        h.write_decimal(u64::from(query.attempt));
        let u = (mix64(h.finish()) >> 11) as f64 / (1u64 << 53) as f64;
        let mut edge = 0.0;
        for (rate, class) in [
            (plan.timeout, FaultClass::Timeout),
            (plan.rate_limited, FaultClass::RateLimited),
            (plan.truncated, FaultClass::Truncated),
            (plan.unavailable, FaultClass::Unavailable),
            (plan.malformed, FaultClass::Malformed),
        ] {
            edge += rate;
            if u < edge {
                return Some(class);
            }
        }
        None
    }
}

/// Injection counters accumulated by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Deliveries seen.
    pub calls: u64,
    /// Deliveries converted into an error.
    pub injected: u64,
    /// Timeouts injected.
    pub timeouts: u64,
    /// Rate-limit errors injected.
    pub rate_limited: u64,
    /// Truncations injected.
    pub truncated: u64,
    /// Unavailable errors injected.
    pub unavailable: u64,
    /// Malformed responses injected.
    pub malformed: u64,
}

taxoglimpse_core::counters!(FaultStats {
    calls, injected, timeouts, rate_limited, truncated, unavailable, malformed
});

/// A [`LanguageModel`] wrapper that injects [`FaultPlan`] faults.
///
/// Transparent when the plan is disabled: same `name()`, same
/// responses, byte-identical reports.
pub struct FaultInjector<M> {
    base: M,
    plan: FaultPlan,
    stats: Mutex<FaultStats>,
}

impl<M: LanguageModel> FaultInjector<M> {
    /// Wrap `base` under `plan`.
    pub fn new(base: M, plan: FaultPlan) -> Self {
        FaultInjector { base, plan, stats: Mutex::new(FaultStats::default()) }
    }

    /// The wrapped model.
    pub fn base(&self) -> &M {
        &self.base
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters since the last reset.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock().expect("fault stats lock not poisoned")
    }
}

impl FaultStats {
    /// Record one decided delivery.
    fn record(&mut self, class: Option<FaultClass>) {
        self.calls += 1;
        if class.is_some() {
            self.injected += 1;
        }
        match class {
            Some(FaultClass::Timeout) => self.timeouts += 1,
            Some(FaultClass::RateLimited) => self.rate_limited += 1,
            Some(FaultClass::Truncated) => self.truncated += 1,
            Some(FaultClass::Unavailable) => self.unavailable += 1,
            Some(FaultClass::Malformed) => self.malformed += 1,
            None => {}
        }
    }
}

/// A truncation happens *after* the model spoke: deliver a prefix of
/// the real response as the partial payload.
fn truncate_answer(full: &Response) -> ModelError {
    let mut cut = full.text.len() / 2;
    while cut > 0 && !full.text.is_char_boundary(cut) {
        cut -= 1;
    }
    ModelError::Truncated { partial: full.text[..cut].to_owned() }
}

impl FaultClass {
    /// Whether the delivery reaches the base model: fault-free and
    /// truncated ones need its real answer; the rest are dropped.
    fn reaches_base(class: Option<FaultClass>) -> bool {
        matches!(class, None | Some(FaultClass::Truncated))
    }
}

impl<M: LanguageModel> LanguageModel for FaultInjector<M> {
    fn name(&self) -> &str {
        self.base.name()
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        self.answer_batch(std::slice::from_ref(query))
            .pop()
            .expect("answer_batch returns one result per query")
    }

    /// Per-delivery fates are pure per-query functions and stats are
    /// merged under a single lock. The deliveries that need a real
    /// answer (fault-free and truncated ones) go to the base model's
    /// batch path: as the caller's slice unchanged when that is all of
    /// them, else as one sub-batch, and only when it is not empty. The
    /// fates are kept in a vector only once the first fault shows, so a
    /// fault-free batch allocates nothing here and returns the base
    /// model's vector.
    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        let decider = self.plan.decider(self.base.name());
        let mut local = FaultStats::default();
        let mut classes: Option<Vec<Option<FaultClass>>> = None;
        for (i, query) in queries.iter().enumerate() {
            let class = decider.as_ref().and_then(|decider| decider.decide(query));
            local.record(class);
            if class.is_some() && classes.is_none() {
                let mut fault_free = Vec::with_capacity(queries.len());
                fault_free.resize(i, None);
                classes = Some(fault_free);
            }
            if let Some(classes) = &mut classes {
                classes.push(class);
            }
        }
        *self.stats.lock().expect("fault stats lock not poisoned") += local;
        let Some(classes) = classes else {
            return self.base.answer_batch(queries);
        };
        let sub_batch: Vec<Query<'_>>;
        let forwarded = if classes.iter().all(|&class| FaultClass::reaches_base(class)) {
            queries
        } else {
            sub_batch = classes
                .iter()
                .zip(queries)
                .filter(|(class, _)| FaultClass::reaches_base(**class))
                .map(|(_, query)| *query)
                .collect();
            &sub_batch
        };
        let base_answers =
            if forwarded.is_empty() { Vec::new() } else { self.base.answer_batch(forwarded) };
        assert_eq!(
            base_answers.len(),
            forwarded.len(),
            "answer_batch must return exactly one result per query"
        );
        let mut base_answers = base_answers.into_iter();
        classes
            .iter()
            .map(|class| match class {
                None => base_answers
                    .next()
                    .expect("base sub-batch covers every fault-free delivery"),
                Some(FaultClass::Timeout) => Err(ModelError::Timeout),
                Some(FaultClass::RateLimited) => {
                    Err(ModelError::RateLimited { retry_after_s: self.plan.retry_after_s })
                }
                Some(FaultClass::Truncated) => {
                    let full = base_answers
                        .next()
                        .expect("base sub-batch covers every truncated delivery");
                    match full {
                        Ok(response) => Err(truncate_answer(&response)),
                        Err(error) => Err(error),
                    }
                }
                Some(FaultClass::Unavailable) => Err(ModelError::Unavailable),
                Some(FaultClass::Malformed) => Err(ModelError::Malformed),
            })
            .collect()
    }

    fn reset(&self) {
        self.base.reset();
        *self.stats.lock().expect("fault stats lock not poisoned") = FaultStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ModelId;
    use crate::simulate::SimulatedLlm;
    use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
    use taxoglimpse_core::domain::TaxonomyKind;
    use taxoglimpse_core::grid::GridRunner;
    use taxoglimpse_synth::{generate, GenOptions};

    fn dataset() -> taxoglimpse_core::dataset::Dataset {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 50, scale: 1.0 })
            .expect("valid options");
        DatasetBuilder::new(&t, TaxonomyKind::Ebay, 50)
            .sample_cap(Some(80))
            .build(QuestionDataset::Hard)
            .expect("ebay has probe levels")
    }

    #[test]
    fn disabled_plan_is_transparent() {
        let d = dataset();
        let bare = SimulatedLlm::new(ModelId::Gpt4);
        let wrapped = FaultInjector::new(SimulatedLlm::new(ModelId::Gpt4), FaultPlan::disabled(1));
        assert_eq!(wrapped.name(), bare.name());
        let a = GridRunner::default().run(&bare, &d);
        let b = GridRunner::default().run(&wrapped, &d);
        assert_eq!(a.overall, b.overall);
        assert_eq!(a.by_level, b.by_level);
        let stats = wrapped.stats();
        assert_eq!(stats.injected, 0);
        assert!(stats.calls as usize >= d.len());
    }

    #[test]
    fn uniform_plan_injects_every_class() {
        let d = dataset();
        let wrapped =
            FaultInjector::new(SimulatedLlm::new(ModelId::Gpt35), FaultPlan::uniform(7, 0.9));
        GridRunner::default().run(&wrapped, &d);
        let stats = wrapped.stats();
        assert!(stats.injected > 0);
        for (label, count) in [
            ("timeouts", stats.timeouts),
            ("rate_limited", stats.rate_limited),
            ("truncated", stats.truncated),
            ("unavailable", stats.unavailable),
            ("malformed", stats.malformed),
        ] {
            assert!(count > 0, "class {label} never fired at 90% injection");
        }
        assert_eq!(
            stats.injected,
            stats.timeouts + stats.rate_limited + stats.truncated + stats.unavailable
                + stats.malformed
        );
    }

    #[test]
    fn injection_is_deterministic() {
        let d = dataset();
        let run = || {
            let m =
                FaultInjector::new(SimulatedLlm::new(ModelId::Gpt35), FaultPlan::uniform(9, 0.2));
            let report = GridRunner::default().run(&m, &d);
            (m.stats(), report.overall)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn retried_deliveries_reroll_their_faults() {
        let d = dataset();
        let plan = FaultPlan::uniform(11, 0.5).with_malformed_rate(0.0);
        let injector = FaultInjector::new(SimulatedLlm::new(ModelId::Gpt4), plan);
        let report = GridRunner::default().run(&injector, &d);
        let stats = injector.stats();
        // Retries re-roll: deliveries exceed questions, and most
        // questions recover (availability well above the 60% a
        // replaying injector would pin them at).
        assert!(stats.calls as usize > d.len());
        assert!(report.overall.availability() > 0.75, "{}", report.overall.availability());
        assert!(report.overall.failed > 0, "50% injection with 3 attempts still exhausts some");
    }

    /// Two injector *instances* built from the same plan produce
    /// identical result streams for the same queries — fault decisions
    /// live in the plan's pure hash, not in instance state.
    #[test]
    fn separate_injector_instances_share_one_fault_stream() {
        let d = dataset();
        let make = || {
            FaultInjector::new(SimulatedLlm::new(ModelId::Gpt35), FaultPlan::uniform(19, 0.4))
        };
        let first = make();
        let second = make();
        let setting = taxoglimpse_core::prompts::PromptSetting::ZeroShot;
        for (i, q) in d.questions().take(60).enumerate() {
            let prompt = taxoglimpse_core::prompts::render_prompt(
                q,
                setting,
                taxoglimpse_core::templates::TemplateVariant::default(),
                &[],
            );
            // Interleave attempts so the two instances see different
            // call *orders* — the streams must still agree per query.
            let query = Query::new(&prompt, q, setting).with_attempt((i % 3) as u32);
            assert_eq!(first.answer(&query), second.answer(&query));
        }
        assert_eq!(first.stats(), second.stats());
    }

    #[test]
    fn truncation_carries_a_prefix_of_the_real_answer() {
        let d = dataset();
        let plan = FaultPlan::disabled(17).with_truncated_rate(1.0);
        let injector = FaultInjector::new(SimulatedLlm::new(ModelId::Gpt4), plan);
        let bare = SimulatedLlm::new(ModelId::Gpt4);
        let q = d.questions().next().expect("dataset is non-empty");
        let setting = taxoglimpse_core::prompts::PromptSetting::ZeroShot;
        let prompt = taxoglimpse_core::prompts::render_prompt(
            q,
            setting,
            taxoglimpse_core::templates::TemplateVariant::default(),
            &[],
        );
        let query = Query::new(&prompt, q, setting);
        let full = bare.answer(&query).expect("simulated model never fails");
        match injector.answer(&query) {
            Err(ModelError::Truncated { partial }) => {
                assert!(full.text.starts_with(&partial));
                assert!(partial.len() < full.text.len());
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }
}
