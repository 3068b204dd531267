//! Property tests for the resilience stack: the fault injector, the
//! runner's retry/breaker sessions, and their interaction with the
//! parallel grid. Runs on the same in-tree deterministic proptest harness as
//! `proptests.rs` — inputs are forked from a fixed seed per case, so
//! any failure replays from its printed case index.

mod common;

use std::sync::Arc;

use taxoglimpse::prelude::*;
use taxoglimpse::core::reports_digest;
use common::cases;
use taxoglimpse::synth::rng::{Rng, SynthRng};

const PROPTEST_SEED: u64 = 0x7265_7369_6c50_5235; // "resilPR5"

fn small_dataset(seed: u64) -> taxoglimpse::core::dataset::Dataset {
    let kind = TaxonomyKind::Ebay;
    let taxonomy = generate(kind, GenOptions { seed, scale: 0.5 }).expect("valid options");
    DatasetBuilder::new(&taxonomy, kind, seed)
        .sample_cap(Some(30))
        .build(QuestionDataset::Hard)
        .expect("ebay has probe levels")
}

/// A random fault plan: arbitrary per-class rates and retry-after.
fn random_plan(rng: &mut SynthRng) -> FaultPlan {
    FaultPlan::disabled(rng.gen_range(0u64..1 << 48))
        .with_timeout_rate(rng.gen_range(0u64..30) as f64 / 100.0)
        .with_rate_limit_rate(rng.gen_range(0u64..30) as f64 / 100.0)
        .with_truncated_rate(rng.gen_range(0u64..20) as f64 / 100.0)
        .with_unavailable_rate(rng.gen_range(0u64..20) as f64 / 100.0)
        .with_malformed_rate(rng.gen_range(0u64..10) as f64 / 100.0)
        .with_retry_after_s(rng.gen_range(0u64..500) as f64 / 100.0)
}

/// `FaultInjector<SimulatedLlm>` at fault rate 0, run under any
/// resilience policy, is byte-identical to the bare model.
#[test]
fn zero_rate_stack_is_byte_identical_to_bare_model() {
    cases(PROPTEST_SEED, 8, "zero-rate-transparent", |rng, _| {
        let seed = rng.gen_range(0u64..1000);
        let dataset = small_dataset(seed);
        let policy = ResiliencePolicy::default()
            .with_max_attempts(rng.gen_range(1u64..6) as u32)
            .with_seed(rng.gen_range(0u64..1 << 32));
        let bare = SimulatedLlm::with_seed(ModelId::Gpt4, seed);
        let stacked = FaultInjector::new(
            SimulatedLlm::with_seed(ModelId::Gpt4, seed),
            FaultPlan::disabled(rng.gen_range(0u64..1 << 32)),
        );
        assert_eq!(stacked.name(), bare.name());
        let runner = GridRunner::builder().with_resilience(policy).build();
        let bare_report = runner.run(&bare, &dataset);
        let stacked_report = runner.run(&stacked, &dataset);
        assert_eq!(
            taxoglimpse::json::to_string(&bare_report).expect("report serializes"),
            taxoglimpse::json::to_string(&stacked_report).expect("report serializes"),
        );
        assert_eq!(stacked_report.overall.failed, 0);
    });
}

/// For ANY fault plan, grid report digests are invariant across worker
/// counts {1, 2, 8}: fault streams key on question identity, breaker
/// state is per-chunk, and chunk partitioning ignores thread count. A
/// response cache shared by both models is byte-transparent too: the
/// stacks over it, cold and then warm, give the uncached digest.
#[test]
fn report_digests_are_worker_count_invariant_under_any_fault_plan() {
    cases(PROPTEST_SEED, 6, "worker-invariant-faults", |rng, _| {
        let seed = rng.gen_range(0u64..1000);
        let dataset = small_dataset(seed);
        let dataset_refs = [&dataset];
        let plan = random_plan(rng);
        let chunk = rng.gen_range(1u64..40) as usize;
        let batch = rng.gen_range(1u64..40) as usize;
        let bases = [
            SimulatedLlm::with_seed(ModelId::Gpt4, seed),
            SimulatedLlm::with_seed(ModelId::Llama2_7b, seed),
        ];

        let mut digests = Vec::new();
        for workers in [1usize, 2, 8] {
            let runner = GridRunner::builder()
                .with_threads(workers)
                .with_chunk_size(chunk)
                .with_batch_size(batch)
                .build();
            let uncached: Vec<_> =
                bases.iter().map(|base| FaultInjector::new(base, plan.clone())).collect();
            let cache = Arc::new(ResponseCache::new());
            let cached: Vec<_> = bases
                .iter()
                .map(|base| {
                    FaultInjector::new(CachedModel::with_cache(base, Arc::clone(&cache)), plan.clone())
                })
                .collect();
            let uncached: Vec<&dyn LanguageModel> =
                uncached.iter().map(|m| m as &dyn LanguageModel).collect();
            let cached: Vec<&dyn LanguageModel> =
                cached.iter().map(|m| m as &dyn LanguageModel).collect();
            for (pass, models) in [("uncached", &uncached), ("cold", &cached), ("warm", &cached)] {
                let reports = runner.run_cross(models, &dataset_refs);
                digests.push((workers, pass, reports_digest(&reports)));
            }
        }
        let expected = digests[0].2;
        for (workers, pass, digest) in digests {
            let at = format!("{workers} workers, {pass}, chunk {chunk}, batch {batch}");
            assert_eq!(digest, expected, "{at}, plan {plan:?}");
        }
    });
}

/// Exhausted retries surface as `Outcome::Failed`, never a panic, and
/// availability accounts for exactly the failed questions.
#[test]
fn heavy_faults_degrade_gracefully_into_availability() {
    cases(PROPTEST_SEED, 6, "graceful-degradation", |rng, _| {
        let seed = rng.gen_range(0u64..1000);
        let dataset = small_dataset(seed);
        let rate = 0.5 + rng.gen_range(0u64..50) as f64 / 100.0;
        let injector = FaultInjector::new(
            SimulatedLlm::with_seed(ModelId::Gpt35, seed),
            FaultPlan::uniform(rng.gen_range(0u64..1 << 32), rate),
        );
        let report = GridRunner::default().run(&injector, &dataset);
        let metrics = report.overall;
        assert_eq!(metrics.total(), dataset.len());
        let expected = 1.0 - metrics.failed as f64 / metrics.total() as f64;
        assert!((metrics.availability() - expected).abs() < 1e-12);
        if rate >= 0.9 {
            assert!(metrics.failed > 0, "rate {rate} must exhaust some retries");
        }
    });
}

/// The runner's resilience policy recovers transiently-faulty models: at a
/// modest fault rate, retries push availability well above the
/// no-retry floor.
#[test]
fn retries_buy_availability() {
    let dataset = small_dataset(7);
    let plan = FaultPlan::uniform(3, 0.4).with_malformed_rate(0.0);

    let no_retries = GridRunner::builder()
        .with_resilience(ResiliencePolicy::default().with_max_attempts(1).without_breaker())
        .build();
    let with_retries = GridRunner::builder()
        .with_resilience(ResiliencePolicy::default().with_max_attempts(5).without_breaker())
        .build();

    let fragile = FaultInjector::new(SimulatedLlm::new(ModelId::Gpt4), plan.clone());
    let floor = no_retries.run(&fragile, &dataset).overall.availability();
    let sturdy = FaultInjector::new(SimulatedLlm::new(ModelId::Gpt4), plan);
    let ceiling = with_retries.run(&sturdy, &dataset).overall.availability();
    assert!(
        ceiling > floor + 0.2,
        "5 attempts ({ceiling:.3}) should clear 1 attempt ({floor:.3}) by a wide margin"
    );
}

/// Fails every query's first two deliveries with a retryable error and
/// answers the third exactly as the wrapped model does.
struct FailsTwiceThenAnswers<M>(M);

impl<M: LanguageModel> LanguageModel for FailsTwiceThenAnswers<M> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        if query.attempt < 2 {
            Err(ModelError::Unavailable)
        } else {
            self.0.answer(query)
        }
    }

    fn reset(&self) {
        self.0.reset()
    }
}

/// Every single-question path asks through the runner's resilience
/// session: two transient faults per query are retried away, so the
/// case study, reattachment, the hybrid taxonomy and detailed
/// transcripts all match the bare model exactly.
#[test]
fn single_question_paths_absorb_retryable_faults() {
    use taxoglimpse::core::casestudy::{CaseStudy, CaseStudyConfig};
    use taxoglimpse::core::detailed::DetailedRun;
    use taxoglimpse::core::enrich::evaluate_reattachment;
    use taxoglimpse::core::hybrid::{AnsweredBy, HybridTaxonomy};

    let bare = SimulatedLlm::new(ModelId::Gpt4);
    let flaky = FailsTwiceThenAnswers(SimulatedLlm::new(ModelId::Gpt4));

    let amazon = generate(TaxonomyKind::Amazon, GenOptions { seed: 8, scale: 0.05 }).unwrap();
    let config = CaseStudyConfig {
        cutoff_level: 3,
        products_per_concept: 4,
        sample_cap: Some(8),
        seed: 8,
    };
    let case_study = CaseStudy::new(&amazon, TaxonomyKind::Amazon, config);
    let expected = case_study.run(&bare);
    assert!(expected.recall > 0.0, "the bare model retrieves something");
    assert_eq!(case_study.run(&flaky), expected);

    let oae = generate(TaxonomyKind::Oae, GenOptions { seed: 8, scale: 0.1 }).unwrap();
    let expected = evaluate_reattachment(&oae, TaxonomyKind::Oae, &bare, 8, Some(20));
    assert!(expected.confirmed_rate > 0.0, "the bare model confirms something");
    assert_eq!(evaluate_reattachment(&oae, TaxonomyKind::Oae, &flaky, 8, Some(20)), expected);

    let hybrid = HybridTaxonomy::build(&amazon, TaxonomyKind::Amazon, 2);
    for &removed in amazon.nodes_at_level(3).iter().take(10) {
        let (child, ancestor) = (amazon.name(removed), amazon.name(amazon.root_of(removed)));
        let expected = hybrid.is_a(child, ancestor, &bare);
        assert_eq!(expected.1, AnsweredBy::Model);
        assert_eq!(hybrid.is_a(child, ancestor, &flaky), expected, "{child} is-a {ancestor}");
    }
    assert_eq!(
        hybrid.reliability(&amazon, &flaky, 8, Some(10)),
        hybrid.reliability(&amazon, &bare, 8, Some(10))
    );

    let dataset = small_dataset(8);
    let transcript = |model: &dyn LanguageModel| {
        DetailedRun::record(&GridRunner::default(), model, &dataset).to_jsonl()
    };
    let expected = transcript(&bare);
    assert!(!expected.contains("service unavailable"));
    assert_eq!(transcript(&flaky), expected);
}

/// A transcript is the grid's run: under faults that trip the breaker,
/// the per-level metrics rebuilt from `DetailedRun::record` equal
/// `GridRunner::run`'s report at 1 and 4 workers, and both transcripts
/// are byte-identical. Asking each question alone (a fresh session per
/// question, so the breaker never opens) fails fewer questions, which
/// shows the breaker shaped the run.
#[test]
fn transcript_is_the_grids_run_under_a_tripping_breaker() {
    use taxoglimpse::core::detailed::DetailedRun;

    let dataset = small_dataset(21);
    let model = FaultInjector::new(SimulatedLlm::new(ModelId::Gpt4), FaultPlan::uniform(21, 0.6));
    let policy = ResiliencePolicy::default()
        .with_breaker(BreakerPolicy::default().with_failure_threshold(2));
    let alone = GridRunner::builder().with_resilience(policy).build();
    let failed_alone = dataset
        .levels
        .iter()
        .flat_map(|slice| slice.questions.iter().map(move |q| (q, &slice.exemplars)))
        .filter(|(q, exemplars)| alone.ask(&model, q, exemplars).outcome == Outcome::Failed)
        .count();
    let mut transcripts = Vec::new();
    for threads in [1, 4] {
        let runner = GridRunner::builder()
            .with_resilience(policy)
            .with_chunk_size(8)
            .with_threads(threads)
            .build();
        let run = DetailedRun::record(&runner, &model, &dataset);
        let report = runner.run(&model, &dataset);
        assert_eq!(run.exchanges.len(), dataset.len());
        for level in &report.by_level {
            let mut rebuilt = Metrics::default();
            for exchange in run.exchanges.iter().filter(|e| e.child_level == level.child_level) {
                rebuilt.record(exchange.outcome);
            }
            assert_eq!(rebuilt, level.metrics, "level {} at {threads} worker(s)", level.child_level);
        }
        assert!(
            failed_alone < report.overall.failed,
            "the breaker must fail questions a fresh session answers: {failed_alone} vs {}",
            report.overall.failed
        );
        transcripts.push(run.to_jsonl());
    }
    assert_eq!(transcripts[0], transcripts[1], "transcripts differ across worker counts");
}
