//! Integration properties of the two-stage hierarchical classification
//! workload (`core::hier`).
//!
//! Two contracts are pinned here:
//!
//! 1. **Executor purity** — the report for a `(model, taxonomy)` cell
//!    is byte-identical across worker counts {1, 2, 8}, with the
//!    response cache off or on, under a 20% fault plan: threading,
//!    caching and fault placement may change *when* a query runs, never
//!    what the report says.
//! 2. **Validity by construction** — the constrained descent records
//!    zero invalid labels on every one of the ten taxonomies, for the
//!    strongest and weakest simulated models alike.

use std::sync::Arc;

use taxoglimpse::core::cache::{CachedModel, ResponseCache};
use taxoglimpse::core::hier::RouterConfig;
use taxoglimpse::prelude::*;

/// Serialize a hier report for byte comparison.
fn report_bytes(report: &taxoglimpse::core::hier::HierReport) -> String {
    taxoglimpse::json::to_string(report).expect("reports serialize")
}

/// Contract 1: report bytes are invariant across workers {1, 2, 8} ×
/// cache {off, on} × a 20% fault plan. The fault injector sits outside
/// the cache (the served path can still fault), and fault decisions are
/// keyed by question identity — so no schedule can move a fault from
/// one question to another.
#[test]
fn hier_reports_byte_identical_across_workers_cache_and_faults() {
    let zoo = ModelZoo::default_zoo();
    let base = zoo.get(ModelId::Gpt4).expect("zoo covers GPT-4");
    let workload = HierWorkload::new().with_sample_cap(Some(12));

    for (kind, scale) in [(TaxonomyKind::Ebay, 0.1), (TaxonomyKind::Google, 0.05)] {
        let taxonomy = generate(kind, GenOptions { seed: 42, scale }).expect("valid options");
        let cx = WorkloadContext::new(&taxonomy, kind, 42);
        let data = workload.build(&cx).expect("benchmark taxonomies support hier");

        let mut reference: Option<String> = None;
        for cache_on in [false, true] {
            // One cache per cache-on config, shared across worker
            // counts: later runs hit entries earlier runs filled, which
            // must not change a byte.
            let cache = Arc::new(ResponseCache::new());
            for workers in [1usize, 2, 8] {
                let runner = GridRunner::builder().with_threads(workers).build();
                let report = if cache_on {
                    let stack = FaultInjector::new(
                        CachedModel::with_cache(Arc::clone(&base), Arc::clone(&cache)),
                        FaultPlan::uniform(42, 0.2),
                    );
                    workload.run(&runner, &stack, &cx, &data)
                } else {
                    let stack =
                        FaultInjector::new(Arc::clone(&base), FaultPlan::uniform(42, 0.2));
                    workload.run(&runner, &stack, &cx, &data)
                };
                let bytes = report_bytes(&report);
                match &reference {
                    None => reference = Some(bytes),
                    Some(expected) => assert_eq!(
                        expected, &bytes,
                        "{kind}: {workers} workers, cache {cache_on}: report bytes diverged"
                    ),
                }
            }
            if cache_on {
                assert!(cache.stats().hits > 0, "{kind}: warm runs never hit the cache");
            }
        }
    }
}

/// Contract 2: zero invalid labels from the constrained descent on all
/// ten taxonomies, and outcome counts partition the instance count for
/// both the descent and the flat baseline.
#[test]
fn descent_emits_zero_invalid_labels_on_all_ten_taxonomies() {
    let zoo = ModelZoo::default_zoo();
    let runner = GridRunner::default();
    let workload = HierWorkload::new()
        .with_router(RouterConfig::default().with_top_k(2))
        .with_sample_cap(Some(8));

    for kind in TaxonomyKind::ALL {
        let taxonomy = generate(kind, GenOptions { seed: 7, scale: 0.05 }).expect("valid options");
        let cx = WorkloadContext::new(&taxonomy, kind, 7);
        let data = workload.build(&cx).expect("all ten taxonomies have >= 2 levels");
        assert!(!data.instances.is_empty(), "{kind}: empty hier dataset");

        for model_id in [ModelId::Gpt4, ModelId::Llama2_7b] {
            let model = zoo.get(model_id).expect("zoo covers all ids");
            let report = workload.run(&runner, model.as_ref(), &cx, &data);
            let m = report.metrics;
            assert_eq!(m.hier_invalid, 0, "{kind}/{model_id}: descent emitted an invalid label");
            assert_eq!(
                m.hier_correct + m.hier_wrong_branch + m.hier_abstained + m.hier_failed,
                m.instances,
                "{kind}/{model_id}: descent outcomes do not partition instances"
            );
            assert_eq!(
                m.flat_correct + m.flat_wrong_valid + m.flat_invalid + m.flat_abstained
                    + m.flat_failed,
                m.instances,
                "{kind}/{model_id}: flat outcomes do not partition instances"
            );
        }
    }
}

/// Contract 2b: router candidates are themselves deterministic — same
/// inputs, same candidate list, and every candidate sits at the clamped
/// router level.
#[test]
fn router_candidates_are_deterministic_and_level_consistent() {
    let taxonomy =
        generate(TaxonomyKind::Amazon, GenOptions { seed: 11, scale: 0.1 }).expect("valid options");
    let workload = HierWorkload::new().with_router(RouterConfig::default().with_top_k(4));
    for (i, name) in ["Portable Audio", "Garden Tools", "Camera Film", "xyzzy"]
        .into_iter()
        .enumerate()
    {
        let a = workload.route(&taxonomy, name);
        let b = workload.route(&taxonomy, name);
        assert_eq!(a, b, "case {i}: routing is not deterministic");
        assert!(!a.is_empty(), "case {i}: router returned no candidates");
        assert!(a.len() <= 4, "case {i}: router exceeded top-k");
        for &node in &a {
            assert_eq!(taxonomy.level(node), 1, "case {i}: candidate not at router level");
        }
    }
}
