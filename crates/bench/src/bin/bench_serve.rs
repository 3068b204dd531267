//! `bench_serve` — the machine-readable online-serving baseline.
//!
//! Drives the virtual-time serving layer (`core::serve`) with the
//! mixed tenant fleet over the Ebay hard dataset, one lane per model
//! in the default zoo subset, each lane a full
//! `FaultInjector<CachedModel<Arc<SimulatedLlm>>>` tower. The sweep
//! crosses arrival-rate factors (relative to the closed-form aggregate
//! lane capacity) × batch deadlines × fault rates {0%, 5%, 20%} and
//! records for each cell:
//!
//! * virtual latency percentiles (p50/p99/p999) from the log-scale
//!   [`LatencyHistogram`],
//! * sustained virtual throughput, shed rate by admission reason,
//!   availability, and batch occupancy,
//! * wall-clock serving throughput at one prefetch worker, plus the
//!   cell's event-trace digest.
//!
//! Two invariants are *enforced in-run*, not just recorded:
//!
//! 1. at every cell the trace digest — and the entire serving report —
//!    is identical across prefetch worker counts {1, 2, 8};
//! 2. at the fault-free saturation cell, wall-clock serving throughput
//!    stays within `MAX_OVERHEAD_RATIO` of the offline single-threaded
//!    grid throughput over the same towers — the serving loop (event
//!    heap, admission, batching, digest) must not eat the pipeline.
//!
//! ```text
//! cargo run --release -p taxoglimpse-bench --bin bench_serve -- \
//!     [--scale S] [--cap N] [--seed N] [--models CSV] [--repeat R] \
//!     [--requests N] [--label L] [--out FILE]
//! cargo run --release -p taxoglimpse-bench --bin bench_serve -- --check FILE
//! ```
//!
//! `TAXOGLIMPSE_BENCH_QUICK=1` shrinks the workload to smoke-test size
//! (and relaxes the overhead gate, which is noisy at tiny volumes).

use std::sync::Arc;
use taxoglimpse_bench::suite::{self, counted, Args, Defaults, DigestGate, Suite};
use taxoglimpse_bench::TaxonomyCache;
use taxoglimpse_core::cache::CachedModel;
use taxoglimpse_core::dataset::{Dataset, DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_core::question::Question;
use taxoglimpse_core::resilience::{BackoffPolicy, BreakerPolicy, ResiliencePolicy};
use taxoglimpse_core::serve::{run_serve, ServeConfig, ServeReport, TrafficConfig};
use taxoglimpse_json::{Json, ToJson};
use taxoglimpse_llm::faults::{FaultInjector, FaultPlan};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_report::histogram::LatencyHistogram;

const SUITE: Suite = Suite {
    name: "serve",
    schema_version: 1,
    flags: &["--cap", "--models", "--requests"],
    full: Defaults { scale: 0.1, cap: Some(250), repeat: 3, requests: 25_000, ..Defaults::BASE },
    quick: Defaults { scale: 0.05, cap: Some(20), repeat: 1, requests: 400, ..Defaults::BASE },
};

/// Offered load as a fraction of the aggregate closed-form lane
/// capacity: comfortable, near-saturated, overloaded.
const RATE_FACTORS: [f64; 3] = [0.5, 0.9, 1.3];

/// Batch deadlines swept (seconds of virtual time): latency-leaning
/// and throughput-leaning.
const BATCH_DEADLINES_S: [f64; 2] = [0.005, 0.05];

/// The fault-rate ladder every cell is measured at.
const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// Prefetch worker counts whose serving reports must be byte-identical.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Ceiling on `offline_qps / serve_wall_qps` at the fault-free
/// saturation cell (full workload).
const MAX_OVERHEAD_RATIO: f64 = 1.5;

/// The same ceiling under `TAXOGLIMPSE_BENCH_QUICK`, where per-run
/// fixed costs dominate a few hundred requests.
const MAX_OVERHEAD_RATIO_QUICK: f64 = 6.0;

fn main() {
    suite::main(&SUITE, run_bench, check_doc);
}

/// A retry/breaker policy scaled to millisecond service times: the
/// evaluator's default (half-second backoff, 30 s cooldown) models
/// interactive clients, not a serving data plane.
fn serving_policy() -> ResiliencePolicy {
    ResiliencePolicy::default()
        .with_backoff(
            BackoffPolicy::default().with_base_s(0.01).with_multiplier(2.0).with_max_s(0.1),
        )
        .with_breaker(
            BreakerPolicy::default()
                .with_failure_threshold(5)
                .with_cooldown_s(0.5)
                .with_fast_fail_s(0.001),
        )
}

/// One lane tower: fault injection over a private response cache over
/// a simulated model.
fn tower(id: ModelId, seed: u64, fault_rate: f64) -> FaultInjector<CachedModel<Arc<SimulatedLlm>>> {
    let plan = if fault_rate > 0.0 {
        FaultPlan::uniform(seed, fault_rate).with_retry_after_s(0.02)
    } else {
        FaultPlan::disabled(seed)
    };
    FaultInjector::new(CachedModel::new(Arc::new(SimulatedLlm::new(id))), plan)
}

/// Run one serving cell with fresh towers, returning the report.
fn run_cell(
    opts: &Args,
    questions: &[Question],
    traffic: &TrafficConfig,
    config: &ServeConfig,
    fault_rate: f64,
) -> ServeReport {
    let towers: Vec<_> =
        opts.models.iter().map(|&id| tower(id, opts.seed, fault_rate)).collect();
    let refs: Vec<&dyn LanguageModel> = towers.iter().map(|t| t as &dyn LanguageModel).collect();
    run_serve(&refs, questions, traffic, config)
}

/// Offline reference: single-threaded grid evaluation over the same
/// fault-free towers and dataset, best-of-`repeat` queries/second.
fn offline_baseline(opts: &Args, dataset: &Dataset) -> f64 {
    let towers: Vec<_> = opts.models.iter().map(|&id| tower(id, opts.seed, 0.0)).collect();
    let refs: Vec<&dyn LanguageModel> = towers.iter().map(|t| t as &dyn LanguageModel).collect();
    let runner = GridRunner::builder().with_threads(1).build();
    let dataset_refs = [dataset];
    let queries = dataset.len() * opts.models.len();
    let (timing, _) =
        suite::time_reps(opts.repeat, || runner.run_cross(&refs, &dataset_refs), |_| {});
    queries as f64 / timing.best_s
}

/// Run the measured sweep and build the `BENCH_serve.json` body.
fn run_bench(opts: &Args) -> (Json, Vec<(&'static str, Json)>) {
    let cache = TaxonomyCache::new();
    let kind = TaxonomyKind::Ebay;
    eprintln!("generating {} taxonomy at scale {} ...", kind.label(), opts.scale);
    let taxonomy = cache.get(kind, opts.seed, opts.scale);
    let dataset = DatasetBuilder::new(&taxonomy, kind, opts.seed)
        .sample_cap(opts.cap)
        .build(QuestionDataset::Hard)
        .expect("ebay has probe levels");
    let questions: Vec<Question> = dataset.questions().cloned().collect();

    let offline_qps = offline_baseline(opts, &dataset);
    eprintln!("offline baseline (1 thread): {offline_qps:.0} q/s over {} questions", dataset.len());

    let base_config = ServeConfig::default().with_resilience(serving_policy());
    let aggregate_capacity_qps = base_config.lane_capacity_qps() * opts.models.len() as f64;
    let max_ratio = if opts.quick { MAX_OVERHEAD_RATIO_QUICK } else { MAX_OVERHEAD_RATIO };

    let mut results = Vec::new();
    let mut saturation_wall_qps = 0.0f64;
    for rate_factor in RATE_FACTORS {
        let offered_qps = aggregate_capacity_qps * rate_factor;
        let horizon_s = opts.requests as f64 / offered_qps;
        let traffic = TrafficConfig::mixed_fleet(opts.seed, offered_qps, horizon_s);
        for deadline_s in BATCH_DEADLINES_S {
            for fault_rate in FAULT_RATES {
                let config = base_config.with_batch_deadline_s(deadline_s);

                // Invariant 1: the whole report — trace digest included
                // — is identical across prefetch worker counts. The
                // one-worker run is the timed one.
                let run_at = |workers| {
                    run_cell(opts, &questions, &traffic, &config.with_workers(workers), fault_rate)
                };
                let (timing, report) = suite::time_reps(opts.repeat, || run_at(1), |_| {});
                let cell = format!("rate {rate_factor} deadline {deadline_s} fault {fault_rate}");
                let mut gate = DigestGate::new(&cell);
                gate.check(counted(1, "worker"), report.trace_digest);
                for workers in &WORKER_COUNTS[1..] {
                    let other = run_at(*workers);
                    gate.check(counted(*workers, "worker"), other.trace_digest);
                    if other != report {
                        suite::fail(format_args!(
                            "{cell}: report diverges at {workers} workers despite equal digests"
                        ));
                    }
                }
                let wall_best = timing.best_s;

                let mut histogram = LatencyHistogram::new();
                histogram.record_all(&report.latencies);
                let wall_qps = report.admitted as f64 / wall_best;
                if rate_factor == RATE_FACTORS[2] && fault_rate == 0.0 {
                    saturation_wall_qps = saturation_wall_qps.max(wall_qps);
                }

                eprintln!(
                    "rate {rate_factor} deadline {:.0}ms fault {fault_rate}: {} arrivals, \
                     shed {:.3}, p50 {:.2}ms p99 {:.2}ms, occ {:.1}, {:.0} virt-q/s, {:.0} wall-q/s, digest {:016x}",
                    deadline_s * 1e3,
                    report.arrivals,
                    report.shed_rate(),
                    histogram.p50() * 1e3,
                    histogram.p99() * 1e3,
                    report.mean_occupancy(),
                    report.sustained_qps(),
                    wall_qps,
                    report.trace_digest,
                );

                results.push(Json::obj(vec![
                    ("rate_factor", rate_factor.to_json()),
                    ("offered_qps", offered_qps.to_json()),
                    ("batch_deadline_ms", (deadline_s * 1e3).to_json()),
                    ("fault_rate", fault_rate.to_json()),
                    ("arrivals", report.arrivals.to_json()),
                    ("admitted", report.admitted.to_json()),
                    ("completed", report.completed.to_json()),
                    ("failed", report.failed.to_json()),
                    ("shed_rate", report.shed_rate().to_json()),
                    ("shed_rate_limited", report.shed.rate_limited.to_json()),
                    ("shed_overload", report.shed.overload.to_json()),
                    ("shed_queue_full", report.shed.queue_full.to_json()),
                    ("availability", report.availability().to_json()),
                    ("sustained_qps", report.sustained_qps().to_json()),
                    ("p50_ms", (histogram.p50() * 1e3).to_json()),
                    ("p99_ms", (histogram.p99() * 1e3).to_json()),
                    ("p999_ms", (histogram.p999() * 1e3).to_json()),
                    ("latency_samples", histogram.count().to_json()),
                    ("batches", report.batches.to_json()),
                    ("mean_occupancy", report.mean_occupancy().to_json()),
                    ("occupancy_max", report.occupancy_max.to_json()),
                    ("makespan_s", report.makespan_s.to_json()),
                    ("wall_ms", (wall_best * 1e3).to_json()),
                    ("wall_qps", wall_qps.to_json()),
                    ("trace_digest", suite::hex(report.trace_digest)),
                    ("trace_events", report.trace_events.to_json()),
                    ("workers_checked", suite::uints(&WORKER_COUNTS)),
                ]));
            }
        }
    }

    // Invariant 2: the serving loop keeps up with the offline pipeline.
    let overhead_ratio = offline_qps / saturation_wall_qps;
    eprintln!(
        "headline: serve {saturation_wall_qps:.0} wall-q/s vs offline {offline_qps:.0} q/s \
         (ratio {overhead_ratio:.3}, gate {max_ratio})"
    );
    if overhead_ratio > max_ratio {
        suite::fail(format_args!(
            "serving overhead ratio {overhead_ratio:.3} exceeds {max_ratio} — the \
             serving loop is eating the pipeline"
        ));
    }

    let workload = Json::obj(vec![
        ("models", opts.models_json()),
        ("taxonomy", kind.label().to_json()),
        ("flavor", "hard".to_json()),
        ("scale", opts.scale.to_json()),
        ("cap", opts.cap_json()),
        ("seed", opts.seed.to_json()),
        ("questions", (questions.len() as u64).to_json()),
        ("tenants", 8u64.to_json()),
        ("target_requests", (opts.requests as u64).to_json()),
        ("repeats", (opts.repeat as u64).to_json()),
        ("aggregate_capacity_qps", aggregate_capacity_qps.to_json()),
        ("quick", opts.quick.to_json()),
    ]);

    let headline = Json::obj(vec![
        ("offline_qps", offline_qps.to_json()),
        ("saturation_wall_qps", saturation_wall_qps.to_json()),
        ("overhead_ratio", overhead_ratio.to_json()),
        ("max_overhead_ratio", max_ratio.to_json()),
    ]);

    (workload, vec![("headline", headline), ("results", Json::Arr(results))])
}

/// `--check FILE`: validate shape plus the invariants the document
/// claims.
fn check_doc(doc: &Json) -> Result<String, String> {
    let headline = doc.get("headline").ok_or("missing headline object")?;
    let offline = suite::number(headline, "offline_qps", suite::Range::Positive)?;
    let serve = suite::number(headline, "saturation_wall_qps", suite::Range::Positive)?;
    let ratio = suite::number(headline, "overhead_ratio", suite::Range::Any)?;
    let max_ratio = suite::number(headline, "max_overhead_ratio", suite::Range::Any)?;
    if (ratio - offline / serve).abs() > 1e-6 * ratio.abs().max(1.0) {
        return Err(format!("overhead_ratio {ratio} != offline_qps / saturation_wall_qps"));
    }
    if ratio > max_ratio {
        return Err(format!("overhead_ratio {ratio} exceeds the {max_ratio} gate"));
    }

    let results = suite::array(doc, "results")?;
    let mut rate_factors = std::collections::BTreeSet::new();
    let mut fault_rates = std::collections::BTreeSet::new();
    for entry in results {
        suite::require(
            entry,
            &[
                "rate_factor",
                "offered_qps",
                "batch_deadline_ms",
                "fault_rate",
                "arrivals",
                "admitted",
                "completed",
                "shed_rate",
                "availability",
                "sustained_qps",
                "p50_ms",
                "p99_ms",
                "p999_ms",
                "mean_occupancy",
                "wall_qps",
                "trace_digest",
                "workers_checked",
            ],
        )
        .map_err(|e| format!("result entry {e}"))?;
        let fault_rate = suite::number(entry, "fault_rate", suite::Range::Any)?;
        let shed_rate = suite::number(entry, "shed_rate", suite::Range::Unit)?;
        let availability = suite::number(entry, "availability", suite::Range::Unit)?;
        let p = |key| suite::number(entry, key, suite::Range::Any);
        let (p50, p99, p999) = (p("p50_ms")?, p("p99_ms")?, p("p999_ms")?);
        if !(p50 <= p99 && p99 <= p999) {
            return Err(format!("percentiles not monotone: p50 {p50}, p99 {p99}, p999 {p999}"));
        }
        if fault_rate == 0.0 && availability != 1.0 {
            return Err(format!("fault rate 0 availability {availability} != 1"));
        }
        let arrivals = suite::integer(entry, "arrivals")?;
        let admitted = suite::integer(entry, "admitted")?;
        if admitted > arrivals {
            return Err(format!("admitted {admitted} exceeds arrivals {arrivals}"));
        }
        let expected_shed = (arrivals - admitted) as f64 / arrivals.max(1) as f64;
        if (shed_rate - expected_shed).abs() > 1e-9 {
            return Err(format!("shed_rate {shed_rate} inconsistent with arrivals/admitted"));
        }
        let workers = entry
            .get("workers_checked")
            .and_then(Json::as_arr)
            .ok_or("workers_checked must be an array")?;
        if workers.len() < WORKER_COUNTS.len() {
            return Err("workers_checked must cover {1, 2, 8}".to_owned());
        }
        let rate_factor = suite::number(entry, "rate_factor", suite::Range::Any)?;
        rate_factors.insert(format!("{rate_factor:.3}"));
        fault_rates.insert(format!("{fault_rate:.3}"));
    }
    if rate_factors.len() < 3 {
        return Err(format!("need >= 3 arrival rates, found {}", rate_factors.len()));
    }
    if fault_rates.len() < 3 {
        return Err(format!("need >= 3 fault rates, found {}", fault_rates.len()));
    }
    Ok(format!(
        "{} cells, {} rates x {} fault rates, overhead ratio {ratio:.3} <= {max_ratio}",
        results.len(),
        rate_factors.len(),
        fault_rates.len(),
    ))
}
