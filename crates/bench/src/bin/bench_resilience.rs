//! `bench_resilience` — the machine-readable resilience baseline.
//!
//! Runs the grid pipeline with every model wrapped in the deterministic
//! [`FaultInjector`] at a ladder of fault rates (0%, 5%, 20%), and
//! records for each rate:
//!
//! * throughput (queries/second, best-of-repeats),
//! * pooled availability (fraction of questions that got any answer),
//! * the retry-amplification factor (model deliveries per question —
//!   how much extra serving the retry layer buys its availability with),
//! * virtual per-query latency percentiles of the retry layer (backoff
//!   waits + retries + fast-fails on a fresh session clock, via the
//!   log-scale histogram the serving benchmarks use),
//! * a `reports_digest` over every report's JSON.
//!
//! Two invariants are *enforced in-run*, not just recorded:
//!
//! 1. at every fault rate the digest is identical across worker counts
//!    {1, 2, 8} — fault streams key on question identity, never worker;
//! 2. at fault rate 0 the digest equals a bare (un-wrapped) model run —
//!    the resilience layer is byte-invisible when nothing fails.
//!
//! ```text
//! cargo run --release -p taxoglimpse-bench --bin bench_resilience -- \
//!     [--scale S] [--cap N] [--seed N] [--models CSV] [--repeat R] \
//!     [--threads T] [--chunk C] [--label L] [--out FILE]
//! cargo run --release -p taxoglimpse-bench --bin bench_resilience -- --check FILE
//! ```
//!
//! `TAXOGLIMPSE_BENCH_QUICK=1` shrinks the workload to smoke-test size.

use taxoglimpse_bench::suite::{self, counted, Args, Defaults, DigestGate, Suite};
use taxoglimpse_bench::TaxonomyCache;
use taxoglimpse_core::dataset::Dataset;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::metrics::Metrics;
use taxoglimpse_core::model::{LanguageModel, Query};
use taxoglimpse_core::prompts::{render_prompt, PromptSetting};
use taxoglimpse_core::reports_digest;
use taxoglimpse_core::resilience::{ResiliencePolicy, ResilienceSession};
use taxoglimpse_core::templates::TemplateVariant;
use taxoglimpse_json::{Json, ToJson};
use taxoglimpse_llm::faults::{FaultInjector, FaultPlan};
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_report::histogram::LatencyHistogram;

const SUITE: Suite = Suite {
    name: "resilience",
    schema_version: 1,
    flags: &["--cap", "--models", "--threads", "--chunk"],
    full: Defaults { scale: 0.1, cap: Some(250), repeat: 3, ..Defaults::BASE },
    quick: Defaults { scale: 0.05, cap: Some(20), repeat: 1, ..Defaults::BASE },
};

/// The fault-rate ladder every run measures.
const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// Worker counts whose reports must be byte-identical.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn main() {
    suite::main(&SUITE, run_bench, check_doc);
}

/// Per-query *virtual* latency of the retry layer at one fault rate:
/// replay every query through a fresh [`ResilienceSession`] per model
/// and measure the session-clock delta (backoff waits, retry
/// deliveries, breaker fast-fails) each query costs. Percentiles come
/// from the log-scale [`LatencyHistogram`] the serving benchmarks use.
fn virtual_latency(models: &[&dyn LanguageModel], datasets: &[&Dataset]) -> Json {
    let mut histogram = LatencyHistogram::new();
    for model in models {
        let mut session = ResilienceSession::new(ResiliencePolicy::default());
        for dataset in datasets {
            for question in dataset.questions() {
                let prompt = render_prompt(
                    question,
                    PromptSetting::ZeroShot,
                    TemplateVariant::default(),
                    &[],
                );
                let query = Query::new(&prompt, question, PromptSetting::ZeroShot);
                let before_s = session.clock_s();
                // The outcome itself is scored by the grid runs; here
                // only the clock cost matters.
                let _ = session.call(*model, &query);
                histogram.record(session.clock_s() - before_s);
            }
        }
    }
    Json::obj(vec![
        ("samples", histogram.count().to_json()),
        ("p50_s", histogram.p50().to_json()),
        ("p99_s", histogram.p99().to_json()),
        ("p999_s", histogram.p999().to_json()),
    ])
}

/// Run the measured workload and build the `BENCH_resilience.json`
/// body.
fn run_bench(opts: &Args) -> (Json, Vec<(&'static str, Json)>) {
    let cache = TaxonomyCache::new();
    let datasets = suite::hard_grid(&cache, opts);
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let questions: usize = datasets.iter().map(Dataset::len).sum();
    let queries = questions * opts.models.len();

    let runner_with = |threads: usize| {
        GridRunner::builder().with_threads(threads).with_chunk_size(opts.chunk).build()
    };

    // The rate-0 reference: bare models, no injector anywhere.
    let bare: Vec<SimulatedLlm> =
        opts.models.iter().map(|&id| SimulatedLlm::new(id)).collect();
    let bare_refs: Vec<&dyn LanguageModel> =
        bare.iter().map(|m| m as &dyn LanguageModel).collect();
    let bare_digest =
        reports_digest(&runner_with(opts.threads).run_cross(&bare_refs, &dataset_refs));

    let mut results = Vec::new();
    for rate in FAULT_RATES {
        let injectors: Vec<FaultInjector<SimulatedLlm>> = opts
            .models
            .iter()
            .map(|&id| {
                FaultInjector::new(SimulatedLlm::new(id), FaultPlan::uniform(opts.seed, rate))
            })
            .collect();
        let model_refs: Vec<&dyn LanguageModel> =
            injectors.iter().map(|m| m as &dyn LanguageModel).collect();

        // Invariant 1: digests identical across worker counts.
        // Invariant 2: at rate 0 the injector is byte-invisible.
        let mut gate = DigestGate::new(format_args!("rate {rate}"));
        if rate == 0.0 {
            gate.check("bare model", bare_digest);
        }
        for workers in WORKER_COUNTS {
            let reports = runner_with(workers).run_cross(&model_refs, &dataset_refs);
            gate.check(counted(workers, "worker"), reports_digest(&reports));
        }
        let digest = gate.digest().expect("WORKER_COUNTS is non-empty");

        // Measure throughput and collect availability + amplification
        // from a final clean run at the configured thread count.
        let runner = runner_with(opts.threads);
        let (timing, _) =
            suite::time_reps(opts.repeat, || runner.run_cross(&model_refs, &dataset_refs), |_| {});
        for injector in &injectors {
            injector.reset();
        }
        let reports = runner.run_cross(&model_refs, &dataset_refs);
        let mut pooled = Metrics::default();
        for report in &reports {
            pooled += report.overall;
        }
        let deliveries: u64 = injectors.iter().map(|i| i.stats().calls).sum();
        let injected: u64 = injectors.iter().map(|i| i.stats().injected).sum();
        let amplification = deliveries as f64 / queries.max(1) as f64;

        let best = timing.best_s;
        let qps = queries as f64 / best;
        let latency = virtual_latency(&model_refs, &dataset_refs);
        eprintln!(
            "rate {rate}: {queries} queries, best {:.1} ms, {:.0} q/s, avail {:.4}, amp {:.3}, digest {digest:016x}",
            best * 1e3,
            qps,
            pooled.availability(),
            amplification,
        );
        results.push(Json::obj(vec![
            ("fault_rate", rate.to_json()),
            ("queries", (queries as u64).to_json()),
            ("best_elapsed_ms", (best * 1e3).to_json()),
            ("mean_elapsed_ms", (timing.mean_s * 1e3).to_json()),
            ("queries_per_sec", qps.to_json()),
            ("availability", pooled.availability().to_json()),
            ("failed", (pooled.failed as u64).to_json()),
            ("deliveries", deliveries.to_json()),
            ("injected_faults", injected.to_json()),
            ("retry_amplification", amplification.to_json()),
            ("virtual_latency", latency),
            ("reports_digest", suite::hex(digest)),
            ("workers_checked", suite::uints(&WORKER_COUNTS)),
        ]));
    }

    let workload = Json::obj(vec![
        ("models", opts.models_json()),
        ("taxonomies", suite::labels(&TaxonomyKind::ALL)),
        ("flavor", "hard".to_json()),
        ("scale", opts.scale.to_json()),
        ("cap", opts.cap_json()),
        ("seed", opts.seed.to_json()),
        ("questions", (questions as u64).to_json()),
        ("queries_per_rate", (queries as u64).to_json()),
        ("threads", (opts.threads as u64).to_json()),
        ("chunk_size", (opts.chunk as u64).to_json()),
        ("repeats", (opts.repeat as u64).to_json()),
        ("bare_digest", suite::hex(bare_digest)),
    ]);

    (workload, vec![("results", Json::Arr(results))])
}

/// `--check FILE`: validate shape plus the cross-rate invariants the
/// document claims.
fn check_doc(doc: &Json) -> Result<String, String> {
    let workload = doc.get("workload").ok_or("missing workload object")?;
    let bare_digest = suite::text(workload, "bare_digest")?;
    let results = suite::array(doc, "results")?;
    for entry in results {
        suite::require(
            entry,
            &[
                "fault_rate",
                "queries",
                "best_elapsed_ms",
                "queries_per_sec",
                "availability",
                "retry_amplification",
                "reports_digest",
            ],
        )
        .map_err(|e| format!("result entry {e}"))?;
        suite::number(entry, "queries_per_sec", suite::Range::Positive)?;
        let rate = suite::number(entry, "fault_rate", suite::Range::Any)?;
        let avail = suite::number(entry, "availability", suite::Range::Unit)?;
        let amp = suite::number(entry, "retry_amplification", suite::Range::AtLeastOne)?;
        let digest = suite::text(entry, "reports_digest")?;
        // Optional (added after the first pinned baseline): virtual
        // retry-layer latency percentiles must be monotone when present.
        if let Some(latency) = entry.get("virtual_latency") {
            let p = |key| suite::number(latency, key, suite::Range::Any);
            let (p50, p99, p999) = (p("p50_s")?, p("p99_s")?, p("p999_s")?);
            if !(p50 <= p99 && p99 <= p999) {
                return Err(format!(
                    "virtual_latency percentiles not monotone: p50 {p50}, p99 {p99}, p999 {p999}"
                ));
            }
            if rate == 0.0 && p999 != 0.0 {
                return Err(format!(
                    "fault rate 0 virtual_latency p999 {p999} != 0 (nothing retries)"
                ));
            }
        }
        if rate == 0.0 {
            if digest != bare_digest {
                return Err(format!(
                    "fault rate 0 digest {digest} != bare_digest {bare_digest}"
                ));
            }
            if avail != 1.0 {
                return Err(format!("fault rate 0 availability {avail} != 1"));
            }
            if (amp - 1.0).abs() > 1e-9 {
                return Err(format!("fault rate 0 amplification {amp} != 1"));
            }
        }
    }
    Ok(format!("{} fault rates", results.len()))
}
