//! Online serving: offer a mixed tenant fleet against the model zoo
//! through the virtual-time serving loop — dynamic batching, admission
//! control, and per-tenant accounting — then print tail latencies from
//! the log-scale histogram. Entirely deterministic: same seed, same
//! report, down to the event-trace digest.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use std::sync::Arc;
use taxoglimpse::prelude::*;

fn main() {
    // 1. A question pool for the tenants to draw from: the eBay Hard
    //    dataset over a half-scale synthetic taxonomy.
    let taxonomy =
        generate(TaxonomyKind::Ebay, GenOptions { seed: 42, scale: 0.5 }).expect("valid options");
    let dataset = DatasetBuilder::new(&taxonomy, TaxonomyKind::Ebay, 42)
        .sample_cap(Some(100))
        .build(QuestionDataset::Hard)
        .expect("eBay has probe levels");
    let questions: Vec<_> = dataset.questions().cloned().collect();

    // 2. One serving lane per model, each the full production tower:
    //    fault injection over a private response cache over the
    //    calibrated simulated model.
    let stacks: Vec<Box<dyn LanguageModel>> = [ModelId::Gpt4, ModelId::Gpt35, ModelId::Llama2_7b]
        .iter()
        .map(|&id| {
            let base = Arc::new(SimulatedLlm::with_seed(id, 42));
            let plan = FaultPlan::uniform(7, 0.05).with_retry_after_s(0.02);
            Box::new(FaultInjector::new(CachedModel::new(base), plan)) as Box<dyn LanguageModel>
        })
        .collect();
    let lanes: Vec<&dyn LanguageModel> = stacks.iter().map(|b| b.as_ref()).collect();

    // 3. The mixed fleet: six steady Poisson tenants, one bursty, one
    //    abusive (offers far over its admission allowance), over a
    //    2-second virtual horizon. Retry backoff and breaker cooldowns
    //    are tuned to serving scale — the batch-job defaults (0.5 s
    //    backoff base, 30 s cooldown) would dominate every latency.
    let resilience = ResiliencePolicy::default()
        .with_backoff(BackoffPolicy::default().with_base_s(0.01).with_max_s(0.1))
        .with_breaker(BreakerPolicy::default().with_cooldown_s(0.5).with_fast_fail_s(0.001));
    let traffic = TrafficConfig::mixed_fleet(7, 2_000.0, 2.0);
    let config = ServeConfig::default()
        .with_resilience(resilience)
        .with_batch_deadline_s(0.01)
        .with_queue_capacity(128);
    let report = run_serve(&lanes, &questions, &traffic, &config);

    println!(
        "served {} arrivals over {:.1}s virtual: {} admitted, {} completed, {} failed",
        report.arrivals, report.horizon_s, report.admitted, report.completed, report.failed
    );
    println!(
        "shed {:.1}% (rate-limited {}, overload {}, queue-full {}), sustained {:.0} q/s",
        report.shed_rate() * 100.0,
        report.shed.rate_limited,
        report.shed.overload,
        report.shed.queue_full,
        report.sustained_qps()
    );
    println!(
        "batching: {} batches, mean occupancy {:.1}, max {}",
        report.batches,
        report.mean_occupancy(),
        report.occupancy_max
    );

    // 4. Tail latencies from the fixed-bucket log-scale histogram.
    let mut histogram = LatencyHistogram::new();
    histogram.record_all(&report.latencies);
    println!(
        "latency: p50 {:.2} ms, p99 {:.2} ms, p99.9 {:.2} ms over {} samples",
        histogram.p50() * 1e3,
        histogram.p99() * 1e3,
        histogram.p999() * 1e3,
        histogram.count()
    );

    // 5. Per-tenant accounting: the abusive tenant is shed by its
    //    token bucket without touching anyone else's latency.
    println!("\nper-tenant:");
    for tenant in &report.tenants {
        println!(
            "  {:<10} offered {:>5}, admitted {:>5}, shed {:>5}, completed {:>5}",
            tenant.name,
            tenant.arrivals,
            tenant.admitted,
            tenant.shed.total(),
            tenant.completed
        );
    }

    println!("\ntrace digest: {:016x} ({} events)", report.trace_digest, report.trace_events);
}
