//! Wrapper-tower forwarding audit.
//!
//! The serving layer and the grid runner dispatch
//! whole batches through arbitrary compositions of the model wrappers
//! — `CachedModel` and `FaultInjector`, plus the blanket
//! `Box`/`&M`/`Arc` impls. Two properties keep that sound, and this
//! file pins both:
//!
//! 1. **Forwarding**: every wrapper and blanket impl routes
//!    `answer_batch` to the wrapped model's *batch* path (not the
//!    default per-element loop), so batch-level optimizations like the
//!    cache's shared-prefix hashing survive any stacking order.
//! 2. **Batch/single agreement**: for every documented tower,
//!    `answer_batch` returns exactly what element-wise `answer` calls
//!    would, query for query, on a fresh instance — the contract the
//!    `LanguageModel` docs promise and the serving batcher relies on
//!    when it folds prefetched batch answers back into the sequential
//!    resilience session.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use taxoglimpse::prelude::*;
use taxoglimpse::synth::rng::{fork, Rng};

/// A base model that observably distinguishes the batch path from the
/// single path, and answers deterministically per question id.
struct ProbeModel {
    single_calls: AtomicU64,
    batch_calls: AtomicU64,
}

impl ProbeModel {
    fn new() -> Self {
        ProbeModel { single_calls: AtomicU64::new(0), batch_calls: AtomicU64::new(0) }
    }
}

impl LanguageModel for ProbeModel {
    fn name(&self) -> &str {
        "probe"
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        // Relaxed: independent monotonic counter, read only after the
        // calls under test returned.
        self.single_calls.fetch_add(1, Ordering::Relaxed);
        if query.question.id % 2 == 0 {
            Ok(Response::new(format!("Yes. (q{})", query.question.id)))
        } else {
            Ok(Response::new(format!("No. (q{})", query.question.id)))
        }
    }

    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        // Relaxed: independent monotonic counter, read only after the
        // calls under test returned.
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        queries
            .iter()
            .map(|query| {
                if query.question.id % 2 == 0 {
                    Ok(Response::new(format!("Yes. (q{})", query.question.id)))
                } else {
                    Ok(Response::new(format!("No. (q{})", query.question.id)))
                }
            })
            .collect()
    }
}

/// Compile-time audit: every composition this repo documents — and the
/// blanket impls gluing them together — satisfies `LanguageModel`.
/// Fails to *compile* if a wrapper loses the trait bound.
#[allow(dead_code)]
fn tower_compositions_implement_language_model() {
    fn assert_model<M: LanguageModel>() {}
    assert_model::<ProbeModel>();
    assert_model::<&ProbeModel>();
    assert_model::<Box<ProbeModel>>();
    assert_model::<Arc<ProbeModel>>();
    assert_model::<Box<dyn LanguageModel>>();
    assert_model::<CachedModel<ProbeModel>>();
    assert_model::<FaultInjector<ProbeModel>>();
    // The PR 5/6 serving tower and its boxed/shared variants.
    assert_model::<FaultInjector<CachedModel<Arc<SimulatedLlm>>>>();
    assert_model::<CachedModel<FaultInjector<SimulatedLlm>>>();
    assert_model::<Arc<FaultInjector<CachedModel<Box<dyn LanguageModel>>>>>();
}

fn queries_for<'a>(
    dataset: &'a [(Question, String)],
) -> Vec<Query<'a>> {
    dataset
        .iter()
        .map(|(question, prompt)| Query::new(prompt, question, PromptSetting::ZeroShot))
        .collect()
}

fn rendered_dataset(seed: u64, cap: usize) -> Vec<(Question, String)> {
    let taxonomy =
        generate(TaxonomyKind::Ebay, GenOptions { seed, scale: 0.5 }).expect("valid options");
    let dataset = DatasetBuilder::new(&taxonomy, TaxonomyKind::Ebay, seed)
        .sample_cap(Some(cap))
        .build(QuestionDataset::Hard)
        .expect("ebay has probe levels");
    dataset
        .questions()
        .map(|q| {
            let prompt = taxoglimpse::core::prompts::render_prompt(
                q,
                PromptSetting::ZeroShot,
                taxoglimpse::core::templates::TemplateVariant::default(),
                &[],
            );
            (q.clone(), prompt)
        })
        .collect()
}

/// The blanket impls (`&M`, `Box`, `Arc`, `Box<dyn>`) must forward
/// `answer_batch` to the wrapped batch path, not fall back to the
/// trait's default per-element loop.
#[test]
fn blanket_impls_forward_the_batch_path() {
    let data = rendered_dataset(21, 12);
    let queries = queries_for(&data);

    fn batch_through(model: &dyn LanguageModel, queries: &[Query<'_>]) {
        let answers = model.answer_batch(queries);
        assert_eq!(answers.len(), queries.len());
    }

    // &M
    let probe = ProbeModel::new();
    batch_through(&&probe, &queries);
    assert_eq!(probe.batch_calls.load(Ordering::Relaxed), 1, "&M must not default-loop");
    assert_eq!(probe.single_calls.load(Ordering::Relaxed), 0);

    // Box<M> and Box<dyn LanguageModel>
    let boxed: Box<dyn LanguageModel> = Box::new(ProbeModel::new());
    batch_through(&boxed, &queries);

    // Arc<M>
    let shared = Arc::new(ProbeModel::new());
    batch_through(&Arc::clone(&shared), &queries);
    assert_eq!(shared.batch_calls.load(Ordering::Relaxed), 1, "Arc<M> must not default-loop");
    assert_eq!(shared.single_calls.load(Ordering::Relaxed), 0);
}

/// Every wrapper forwards `answer_batch` as (at most) one sub-batch to
/// its base — the invariant that lets batch-level work amortize through
/// any stack.
#[test]
fn wrappers_forward_the_batch_path() {
    let data = rendered_dataset(22, 12);
    let queries = queries_for(&data);

    let cached = CachedModel::new(ProbeModel::new());
    cached.answer_batch(&queries);
    assert_eq!(cached.base().batch_calls.load(Ordering::Relaxed), 1, "cold cache: one sub-batch");
    assert_eq!(cached.base().single_calls.load(Ordering::Relaxed), 0);
    cached.answer_batch(&queries);
    assert_eq!(
        cached.base().batch_calls.load(Ordering::Relaxed),
        1,
        "warm cache: no base traffic at all"
    );

    let injector = FaultInjector::new(ProbeModel::new(), FaultPlan::disabled(3));
    injector.answer_batch(&queries);
    assert_eq!(injector.base().batch_calls.load(Ordering::Relaxed), 1);
    assert_eq!(injector.base().single_calls.load(Ordering::Relaxed), 0);

    // A faulted delivery needs no answer, so a fully faulted batch or
    // single query never reaches the base.
    let down =
        FaultInjector::new(ProbeModel::new(), FaultPlan::disabled(3).with_unavailable_rate(1.0));
    down.answer_batch(&queries);
    for query in &queries {
        assert_eq!(down.answer(query), Err(ModelError::Unavailable));
    }
    assert_eq!(down.base().batch_calls.load(Ordering::Relaxed), 0);
    assert_eq!(down.base().single_calls.load(Ordering::Relaxed), 0);
}

/// For every documented tower (and both cache/injector stacking
/// orders), a batched call returns exactly what element-wise singles
/// return on a fresh instance.
#[test]
fn batch_equals_element_wise_singles_for_every_tower() {
    let data = rendered_dataset(23, 30);
    let queries = queries_for(&data);
    let plan = || FaultPlan::uniform(41, 0.25);
    let base = || SimulatedLlm::new(ModelId::Gpt35);

    // Each entry builds the same tower twice: one instance for the
    // batched call, a fresh one for the element-wise singles, so
    // stateful wrappers (cache fills, breaker clocks) see identical
    // histories on both paths.
    let towers: Vec<(&str, Box<dyn Fn() -> Box<dyn LanguageModel>>)> = vec![
        ("simulated", Box::new(move || Box::new(base()))),
        ("cached", Box::new(move || Box::new(CachedModel::new(base())))),
        ("injector", Box::new(move || Box::new(FaultInjector::new(base(), plan())))),
        (
            "injector-over-cache",
            Box::new(move || Box::new(FaultInjector::new(CachedModel::new(base()), plan()))),
        ),
        (
            "cache-over-injector",
            Box::new(move || Box::new(CachedModel::new(FaultInjector::new(base(), plan())))),
        ),
    ];

    for (label, build) in &towers {
        let batched = build();
        let singles = build();
        let batch_answers = batched.answer_batch(&queries);
        let single_answers: Vec<_> = queries.iter().map(|q| singles.answer(q)).collect();
        assert_eq!(batch_answers.len(), queries.len(), "tower `{label}`");
        for (i, (a, b)) in batch_answers.iter().zip(&single_answers).enumerate() {
            assert_eq!(a, b, "tower `{label}` diverges at query {i}");
        }
        assert_eq!(batched.name(), singles.name(), "tower `{label}` renames the base");
    }
}

/// Mixing batched and single calls against one shared tower instance
/// keeps answers consistent with an all-singles shadow instance — the
/// access pattern the serving loop produces (batch prefetch followed by
/// sequential session replay).
#[test]
fn interleaved_batch_and_single_calls_agree() {
    let data = rendered_dataset(24, 24);
    let queries = queries_for(&data);
    let tower = FaultInjector::new(
        CachedModel::new(SimulatedLlm::new(ModelId::Llama2_7b)),
        FaultPlan::uniform(77, 0.3),
    );
    let shadow = FaultInjector::new(
        CachedModel::new(SimulatedLlm::new(ModelId::Llama2_7b)),
        FaultPlan::uniform(77, 0.3),
    );

    let mut rng = fork(0x70_0E_12, "tower-interleave", 0);
    let mut cursor = 0usize;
    while cursor < queries.len() {
        let take = 1 + rng.gen_index(4);
        let end = (cursor + take).min(queries.len());
        let slice = &queries[cursor..end];
        let batched = if rng.gen_bool(0.5) {
            tower.answer_batch(slice)
        } else {
            slice.iter().map(|q| tower.answer(q)).collect()
        };
        let expected: Vec<_> = slice.iter().map(|q| shadow.answer(q)).collect();
        assert_eq!(batched, expected, "divergence in window {cursor}..{end}");
        cursor = end;
    }
    assert_eq!(tower.stats().calls, queries.len() as u64);
}
