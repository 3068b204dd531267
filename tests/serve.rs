//! Property tests for the virtual-time serving layer (`core::serve`):
//! the full serving report — trace digest included — must be
//! byte-identical across prefetch worker counts {1, 2, 8}, under any
//! combination of queue capacities, batch deadlines, and fault plans;
//! and the log-scale latency histogram's percentile estimates must
//! land in the same bucket as an exact-sort oracle over the same serve
//! latencies. Runs on the same in-tree deterministic proptest harness
//! as `proptests.rs` and `resilience.rs`.

mod common;

use std::sync::Arc;
use taxoglimpse::core::question::Question;
use taxoglimpse::core::serve::{ServeConfig, TenantSpec};
use taxoglimpse::prelude::*;
use taxoglimpse::report::histogram::{bucket_index, LatencyHistogram};
use common::cases;
use taxoglimpse::synth::rng::Rng;

const PROPTEST_SEED: u64 = 0x5AAD_7E57_5052_0009; // "serve test PR 9"

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn question_pool(seed: u64, cap: usize) -> Vec<Question> {
    let taxonomy =
        generate(TaxonomyKind::Ebay, GenOptions { seed, scale: 0.5 }).expect("valid options");
    DatasetBuilder::new(&taxonomy, TaxonomyKind::Ebay, seed)
        .sample_cap(Some(cap))
        .build(QuestionDataset::Hard)
        .expect("ebay has probe levels")
        .questions()
        .cloned()
        .collect()
}

/// One serving tower per lane: fault injection over a private cache
/// over a shared simulated model — the full PR 5 + 6 composition the
/// benchmarks serve through.
fn towers(seed: u64, fault_rate: f64) -> Vec<Box<dyn LanguageModel>> {
    [ModelId::Gpt4, ModelId::Gpt35, ModelId::Llama2_7b]
        .iter()
        .map(|&id| {
            let base = Arc::new(SimulatedLlm::with_seed(id, seed));
            let plan = if fault_rate > 0.0 {
                FaultPlan::uniform(seed ^ 0xFA_57, fault_rate)
            } else {
                FaultPlan::disabled(seed ^ 0xFA_57)
            };
            Box::new(FaultInjector::new(CachedModel::new(base), plan)) as Box<dyn LanguageModel>
        })
        .collect()
}

/// The serving report — counters, latencies, per-tenant rows, and the
/// event-trace digest — is invariant under the prefetch worker count,
/// across random loads, queue capacities, batch deadlines, and fault
/// plans.
#[test]
fn reports_are_worker_count_invariant() {
    cases(PROPTEST_SEED, 6, "serve-worker-invariant", |rng, _| {
        let seed = rng.gen_range(0u64..1000);
        let questions = question_pool(seed, 40);
        let fault_rate = [0.0, 0.05, 0.20][rng.gen_index(3)];
        let total_qps = 200.0 + rng.gen::<f64>() * 2000.0;
        let traffic = TrafficConfig::mixed_fleet(seed ^ 0x7EA7, total_qps, 1.5);
        let base_config = ServeConfig::default()
            .with_queue_capacity(16 + rng.gen_index(256))
            .with_batch_deadline_s(0.002 + rng.gen::<f64>() * 0.05)
            .with_max_batch(4 + rng.gen_index(60));

        let mut reports = Vec::new();
        for workers in WORKER_COUNTS {
            // Fresh towers per worker count: caches and fault stats are
            // instance state, and instance history must not leak into
            // the comparison.
            let stacks = towers(seed, fault_rate);
            let refs: Vec<&dyn LanguageModel> = stacks.iter().map(|b| b.as_ref()).collect();
            let config = base_config.with_workers(workers);
            reports.push(run_serve(&refs, &questions, &traffic, &config));
        }
        assert_eq!(reports[0], reports[1], "1 vs 2 workers, fault rate {fault_rate}");
        assert_eq!(reports[0], reports[2], "1 vs 8 workers, fault rate {fault_rate}");
        assert!(reports[0].arrivals > 0, "degenerate case: no traffic offered");
        assert_eq!(
            reports[0].admitted + reports[0].shed.total(),
            reports[0].arrivals,
            "every arrival is admitted or shed"
        );
        assert_eq!(
            reports[0].completed + reports[0].failed,
            reports[0].admitted,
            "every admitted request completes or fails"
        );
        if fault_rate == 0.0 {
            assert_eq!(reports[0].failed, 0, "no faults, no failures");
        }
    });
}

/// Distinct traffic seeds must produce distinct traces (the digest
/// actually commits to the arrival stream, not just the counts).
#[test]
fn trace_digest_separates_seeds() {
    let questions = question_pool(7, 30);
    let stacks = towers(7, 0.0);
    let refs: Vec<&dyn LanguageModel> = stacks.iter().map(|b| b.as_ref()).collect();
    let config = ServeConfig::default();
    let mut digests = std::collections::BTreeSet::new();
    for seed in 0..8u64 {
        let traffic = TrafficConfig::mixed_fleet(seed, 500.0, 0.5);
        let report = run_serve(&refs, &questions, &traffic, &config);
        digests.insert(report.trace_digest);
    }
    assert_eq!(digests.len(), 8, "seed collisions in the trace digest");
}

/// Histogram percentiles vs. exact-sort oracle, over real serve
/// latencies: for random loads and quantiles, the histogram's estimate
/// must land in the same log-scale bucket as the oracle value and
/// never exceed it (the estimate is the bucket's lower bound).
#[test]
fn histogram_percentiles_match_exact_sort_oracle() {
    cases(PROPTEST_SEED, 6, "serve-histogram-oracle", |rng, _| {
        let seed = rng.gen_range(0u64..1000);
        let questions = question_pool(seed, 30);
        let stacks = towers(seed, [0.0, 0.20][rng.gen_index(2)]);
        let refs: Vec<&dyn LanguageModel> = stacks.iter().map(|b| b.as_ref()).collect();
        let traffic =
            TrafficConfig::mixed_fleet(seed, 300.0 + rng.gen::<f64>() * 3000.0, 1.0);
        let config = ServeConfig::default()
            .with_batch_deadline_s(0.002 + rng.gen::<f64>() * 0.03)
            .with_queue_capacity(32 + rng.gen_index(128));
        let report = run_serve(&refs, &questions, &traffic, &config);
        assert!(
            report.latencies.len() > 50,
            "need a meaningful sample, got {}",
            report.latencies.len()
        );

        let mut histogram = LatencyHistogram::new();
        histogram.record_all(&report.latencies);
        assert_eq!(histogram.count(), report.latencies.len() as u64);

        let mut sorted = report.latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let oracle = sorted[rank - 1];
            let estimate = histogram.quantile(q);
            assert_eq!(
                bucket_index(estimate),
                bucket_index(oracle),
                "q{q}: estimate {estimate} vs oracle {oracle}"
            );
            assert!(estimate <= oracle, "q{q}: estimate {estimate} above oracle {oracle}");
        }
        // Percentiles are monotone in q.
        assert!(histogram.p50() <= histogram.p99());
        assert!(histogram.p99() <= histogram.p999());
    });
}

/// Load shedding kicks in exactly when configured to: a tight abusive
/// allowance sheds by rate, a tiny queue sheds by capacity, and a
/// saturated lane keeps its shed requests out of the latency
/// population.
#[test]
fn shed_reasons_track_their_knobs() {
    let questions = question_pool(3, 30);
    let stacks = towers(3, 0.0);
    let refs: Vec<&dyn LanguageModel> = stacks.iter().map(|b| b.as_ref()).collect();

    // Rate-limit sheds: one abusive tenant offering far over allowance.
    let abusive = TrafficConfig {
        seed: 5,
        horizon_s: 1.0,
        tenants: vec![TenantSpec::abusive("hog", 400.0, 20.0)],
    };
    let report = run_serve(&refs, &questions, &abusive, &ServeConfig::default());
    assert!(report.shed.rate_limited > 0);
    assert_eq!(report.shed.queue_full, 0, "allowance sheds before the queue fills");

    // Queue-full sheds: steady overload into a tiny queue.
    let overload = TrafficConfig {
        seed: 5,
        horizon_s: 1.0,
        tenants: vec![TenantSpec::poisson("flood", 20_000.0)],
    };
    let config = ServeConfig::default().with_queue_capacity(8);
    let report = run_serve(&refs, &questions, &overload, &config);
    assert!(report.shed.queue_full > 0, "20k qps into a queue of 8 must tail-drop");
    assert_eq!(
        report.latencies.len() as u64,
        report.completed,
        "shed requests never enter the latency population"
    );
}
