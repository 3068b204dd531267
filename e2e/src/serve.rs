//! `serve_mixed`: open-loop virtual-time serving through `run_serve`.

use crate::grid::TOWER_MODELS;
use crate::pass::{digest, ratio, Pass, Traced};
use crate::setup::Plan;
use crate::trace::{totals_by_name, Probe, Tracer};
use std::time::Instant;
use taxoglimpse_core::cache::{CacheStats, CachedModel};
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_core::question::Question;
use taxoglimpse_core::resilience::{BackoffPolicy, BreakerPolicy, ResiliencePolicy};
use taxoglimpse_core::serve::{run_serve, ServeConfig, ServeReport, TrafficConfig};
use taxoglimpse_json::{Json, ToJson};
use taxoglimpse_llm::faults::{FaultInjector, FaultPlan};
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_report::histogram::LatencyHistogram;

/// Offered load as a share of the four lanes' closed-form capacity.
const LOAD_FACTOR: f64 = 0.9;

/// Arrivals offered over the horizon at scale 1.0 (tests scale it down
/// with the taxonomies).
const ARRIVALS: f64 = 2_000_000.0;

/// Share of lane deliveries turned into errors.
const FAULT_RATE: f64 = 0.05;

/// Retry and breaker timings scaled to millisecond service times, as
/// the serving benchmark uses: the evaluator's default (half-second
/// backoff, 30 s cooldown) models interactive clients, not a data plane.
fn serving_policy() -> ResiliencePolicy {
    ResiliencePolicy::default()
        .with_backoff(
            BackoffPolicy::default()
                .with_base_s(0.01)
                .with_multiplier(2.0)
                .with_max_s(0.1),
        )
        .with_breaker(
            BreakerPolicy::default()
                .with_failure_threshold(5)
                .with_cooldown_s(0.5)
                .with_fast_fail_s(0.001),
        )
}

fn config() -> ServeConfig {
    ServeConfig::default()
        .with_resilience(serving_policy())
        .with_workers(1)
}

fn traffic(plan: &Plan) -> TrafficConfig {
    let offered_qps = LOAD_FACTOR * config().lane_capacity_qps() * TOWER_MODELS.len() as f64;
    TrafficConfig::mixed_fleet(plan.seed, offered_qps, ARRIVALS * plan.scale / offered_qps)
}

fn fault_plan(plan: &Plan) -> FaultPlan {
    FaultPlan::uniform(plan.seed, FAULT_RATE).with_retry_after_s(0.02)
}

/// One untraced serving run over fresh lane towers.
pub fn repeat(plan: &Plan, zoo: &ModelZoo, pool: &[Question]) -> Pass {
    let towers: Vec<_> = TOWER_MODELS
        .iter()
        .map(|&id| {
            let llm = zoo.get(id).expect("the zoo holds every model");
            FaultInjector::new(CachedModel::new(llm), fault_plan(plan))
        })
        .collect();
    let lanes: Vec<&dyn LanguageModel> = towers.iter().map(|t| t as &dyn LanguageModel).collect();
    let (traffic, config) = (traffic(plan), config());
    let start = Instant::now();
    let report = run_serve(&lanes, pool, &traffic, &config);
    let wall_s = start.elapsed().as_secs_f64();

    let mut pass = finish(&report, wall_s);
    let mut latencies = LatencyHistogram::new();
    latencies.record_all(&report.latencies);
    let cache: CacheStats = towers.iter().map(|t| t.base().cache().stats()).sum();
    pass.values = vec![
        ("virt_p50_ms", latencies.p50() * 1e3),
        ("virt_p99_ms", latencies.p99() * 1e3),
        ("virt_p999_ms", latencies.p999() * 1e3),
        ("serve.cache_hit_rate", cache.hit_rate()),
        ("serve.events", report.trace_events as f64),
        ("serve.events_per_s", report.trace_events as f64 / wall_s),
        ("serve.batches", report.batches as f64),
        ("serve.mean_occupancy", report.mean_occupancy()),
        ("serve.shed_rate_limited", report.shed.rate_limited as f64),
        ("serve.shed_overload", report.shed.overload as f64),
        ("serve.shed_queue_full", report.shed.queue_full as f64),
        ("serve.retries", report.resilience().retries as f64),
    ];
    pass
}

/// The report's counters and trace digest, for the reports digest.
fn report_json(report: &ServeReport) -> Json {
    let lanes: Vec<Json> = report
        .lanes
        .iter()
        .map(|l| {
            Json::obj(vec![
                ("model", l.model.to_json()),
                ("completed", l.completed.to_json()),
                ("failed", l.failed.to_json()),
                ("batches", l.batches.to_json()),
                ("retries", l.resilience.retries.to_json()),
            ])
        })
        .collect();
    Json::obj(vec![
        ("arrivals", report.arrivals.to_json()),
        ("admitted", report.admitted.to_json()),
        ("completed", report.completed.to_json()),
        ("failed", report.failed.to_json()),
        ("shed_rate_limited", report.shed.rate_limited.to_json()),
        ("shed_overload", report.shed.overload.to_json()),
        ("shed_queue_full", report.shed.queue_full.to_json()),
        ("batches", report.batches.to_json()),
        ("occupancy_sum", report.occupancy_sum.to_json()),
        ("makespan_s", report.makespan_s.to_json()),
        (
            "trace_digest",
            format!("{:016x}", report.trace_digest).to_json(),
        ),
        ("trace_events", report.trace_events.to_json()),
        ("lanes", Json::Arr(lanes)),
    ])
}

fn finish(report: &ServeReport, run_s: f64) -> Pass {
    let (digest, serialize_s) = digest([&report_json(report)]);
    let accounted = report.arrivals == report.admitted + report.shed.total()
        && report.admitted == report.completed + report.failed
        && report.latencies.len() as u64 == report.completed;
    Pass {
        wall_s: run_s + serialize_s,
        items: report.arrivals,
        failed_frac: ratio(
            (report.shed.total() + report.failed) as f64,
            report.arrivals as f64,
        ),
        digest,
        serialize_s,
        checks: vec![("serve_accounting", accounted)],
        values: Vec::new(),
    }
}

/// One traced serving run with probes in every lane tower, plus the
/// untraced run it is compared against (serving runs on one thread).
pub fn traced(plan: &Plan, zoo: &ModelZoo, pool: &[Question]) -> Traced {
    let reference = repeat(plan, zoo, pool);
    let tracer = Tracer::new();
    let towers: Vec<_> = TOWER_MODELS
        .iter()
        .map(|&id| {
            let llm = Probe::new(
                zoo.get(id).expect("the zoo holds every model"),
                "llm",
                &tracer,
            );
            let cached = Probe::new(CachedModel::new(llm), "cache", &tracer);
            Probe::new(
                FaultInjector::new(cached, fault_plan(plan)),
                "faults",
                &tracer,
            )
        })
        .collect();
    let lanes: Vec<&dyn LanguageModel> = towers.iter().map(|t| t as &dyn LanguageModel).collect();
    let (traffic, config) = (traffic(plan), config());
    let start = Instant::now();
    let span = tracer.begin("serve.run");
    let report = run_serve(&lanes, pool, &traffic, &config);
    tracer.end(span, report.arrivals);
    let wall_s = start.elapsed().as_secs_f64();

    let spans = tracer.spans();
    let totals = totals_by_name(&spans);
    let self_s = |name: &str| totals.get(name).map(|t| t.self_s()).unwrap_or(0.0);
    // Every tower call starts at the outermost probe.
    let tower_s = totals
        .get("faults")
        .map(|t| t.total_ns as f64 * 1e-9)
        .unwrap_or(0.0);
    let injected: u64 = towers.iter().map(|t| t.inner().stats().injected).sum();
    let mut pass = finish(&report, wall_s);
    pass.values = vec![
        ("faults.self_s", self_s("faults")),
        ("faults.injected", injected as f64),
        ("cache.self_s", self_s("cache")),
        ("serve.loop_s", wall_s - tower_s),
        ("serve.tower_s", tower_s),
        ("serve.llm_s", self_s("llm")),
    ];
    Traced {
        pass,
        reference,
        spans,
    }
}
