//! `paper_grid` and `grid_faults_cached`: the evaluation grid through
//! `GridRunner::run_cross`, and a traced single-thread replay of it.
//!
//! The replay calls the same public functions the runner does, in the
//! runner's order: every cell's model is reset up front, each
//! (cell, level, `DEFAULT_CHUNK_SIZE` chunk) gets a fresh
//! `ResilienceSession` and one `render_prefix`, and each
//! `DEFAULT_BATCH_SIZE` batch is rendered, prefetched through
//! `answer_batch`, then replayed query by query through
//! `call_prefetched`, parsed and scored. Its reports must equal the
//! runner's byte for byte, or the trace does not describe the program.

use crate::pass::{digest, ratio, Pass, Traced};
use crate::registry::Workload;
use crate::setup::Plan;
use crate::trace::{totals_by_name, Probe, Tracer};
use std::sync::Arc;
use std::time::Instant;
use taxoglimpse_core::cache::{CachedModel, ResponseCache};
use taxoglimpse_core::dataset::Dataset;
use taxoglimpse_core::eval::{score, EvalConfig, EvalReport, LevelMetrics, DEFAULT_BATCH_SIZE};
use taxoglimpse_core::grid::{GridRunner, DEFAULT_CHUNK_SIZE};
use taxoglimpse_core::metrics::{Metrics, Outcome};
use taxoglimpse_core::model::{LanguageModel, Query};
use taxoglimpse_core::parse::{parse_mcq, parse_tf, ParsedAnswer};
use taxoglimpse_core::prompts::{render_prefix, render_prompt_into, PromptSetting};
use taxoglimpse_core::question::{Question, QuestionKind};
use taxoglimpse_core::resilience::{ResiliencePolicy, ResilienceSession, ResilienceStats};
use taxoglimpse_llm::faults::{FaultInjector, FaultPlan};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_llm::zoo::ModelZoo;

/// The models behind fault-injecting towers: one per major family tier,
/// so terse, chatty and abstention-prone responses all occur.
pub const TOWER_MODELS: [ModelId; 4] = [
    ModelId::Gpt4,
    ModelId::Gpt35,
    ModelId::Llama2_7b,
    ModelId::FlanT5_3b,
];

/// Share of deliveries `grid_faults_cached` turns into errors.
const FAULT_RATE: f64 = 0.2;

/// Passes per `grid_faults_cached` repeat over one fresh cache: the
/// first fills it, the others read it.
const CACHE_PASSES: usize = 3;

/// The prompt setting of each `run_cross` pass of one repeat.
fn passes(workload: Workload) -> Vec<PromptSetting> {
    match workload {
        Workload::GridFaultsCached => vec![PromptSetting::ZeroShot; CACHE_PASSES],
        _ => PromptSetting::ALL.to_vec(),
    }
}

/// The simulated models of a workload, in cell order.
fn llms(workload: Workload, zoo: &ModelZoo) -> Vec<Arc<SimulatedLlm>> {
    match workload {
        Workload::GridFaultsCached => TOWER_MODELS
            .iter()
            .map(|&id| zoo.get(id).expect("the zoo holds every model"))
            .collect(),
        _ => zoo.all(),
    }
}

fn fault_plan(plan: &Plan) -> FaultPlan {
    FaultPlan::uniform(plan.seed, FAULT_RATE)
}

/// Run every pass of a repeat through `run_cross`; returns each pass's
/// reports and wall time.
fn run_passes(
    workload: Workload,
    mut run_cross: impl FnMut(PromptSetting) -> Vec<EvalReport>,
) -> (Vec<Vec<EvalReport>>, Vec<f64>) {
    passes(workload)
        .into_iter()
        .map(|setting| {
            let start = Instant::now();
            let reports = run_cross(setting);
            (reports, start.elapsed().as_secs_f64())
        })
        .unzip()
}

/// One untraced repeat on `threads` workers.
pub fn repeat(
    workload: Workload,
    plan: &Plan,
    zoo: &ModelZoo,
    datasets: &[Dataset],
    threads: usize,
) -> Pass {
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let llms = llms(workload, zoo);
    let cache = Arc::new(ResponseCache::new());
    let faulty = workload == Workload::GridFaultsCached;
    let towers: Vec<_> = if faulty {
        llms.iter()
            .map(|llm| {
                FaultInjector::new(
                    CachedModel::with_cache(Arc::clone(llm), Arc::clone(&cache)),
                    fault_plan(plan),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let models: Vec<&dyn LanguageModel> = if faulty {
        towers.iter().map(|t| t as &dyn LanguageModel).collect()
    } else {
        llms.iter()
            .map(|m| m.as_ref() as &dyn LanguageModel)
            .collect()
    };
    let (passes, pass_s) = run_passes(workload, |setting| {
        GridRunner::builder()
            .with_config(EvalConfig::default().with_setting(setting))
            .with_threads(threads)
            .build()
            .run_cross(&models, &dataset_refs)
    });
    let mut pass = finish(&passes, datasets, pass_s.iter().sum());
    if faulty {
        pass.checks.push(cache_transparent(&passes));
        pass.values = vec![
            ("cache.cold_pass_s", pass_s[0]),
            (
                "cache.warm_pass_s",
                pass_s[1..].iter().sum::<f64>() / (CACHE_PASSES - 1) as f64,
            ),
            ("cache.hit_rate", cache.stats().hit_rate()),
            ("cache.entries", cache.len() as f64),
        ];
    }
    pass
}

/// The cold pass and the warm passes produced byte-identical reports.
fn cache_transparent(passes: &[Vec<EvalReport>]) -> (&'static str, bool) {
    let digests: Vec<u64> = passes.iter().map(|p| digest(p).0).collect();
    (
        "cache_transparent",
        digests.windows(2).all(|w| w[0] == w[1]),
    )
}

/// Items, failures, digest and the `grid_totals` check over passes of
/// reports laid out model-major over `datasets`.
fn finish(passes: &[Vec<EvalReport>], datasets: &[Dataset], run_s: f64) -> Pass {
    let (digest, serialize_s) = digest(passes.iter().flatten());
    let mut scored = 0usize;
    let mut failed = 0usize;
    let mut totals_ok = true;
    for (i, report) in passes.iter().flat_map(|p| p.iter().enumerate()) {
        let mut levels = Metrics::default();
        for level in &report.by_level {
            levels += level.metrics;
        }
        totals_ok &= levels == report.overall
            && report.overall.total() == datasets[i % datasets.len()].len();
        scored += report.overall.total();
        failed += report.overall.failed;
    }
    Pass {
        wall_s: run_s + serialize_s,
        items: scored as u64,
        failed_frac: ratio(failed as f64, scored as f64),
        digest,
        serialize_s,
        checks: vec![("grid_totals", totals_ok)],
        values: Vec::new(),
    }
}

/// Per-query counters of a replay.
#[derive(Debug, Default)]
struct Counters {
    prompt_bytes: u64,
    parsed: u64,
    unparsed: u64,
    resilience: ResilienceStats,
}

/// The single-thread replay of `GridRunner::run_cross`.
struct Replay<'t> {
    tracer: &'t Tracer,
    config: EvalConfig,
    policy: ResiliencePolicy,
    counters: Counters,
}

impl Replay<'_> {
    fn run_cross(
        &mut self,
        models: &[&dyn LanguageModel],
        datasets: &[&Dataset],
    ) -> Vec<EvalReport> {
        // The runner resets every cell's model before any chunk runs.
        for model in models {
            for _ in datasets {
                model.reset();
            }
        }
        let mut reports = Vec::with_capacity(models.len() * datasets.len());
        for model in models {
            for dataset in datasets {
                let by_level: Vec<LevelMetrics> = dataset
                    .levels
                    .iter()
                    .map(|slice| {
                        let mut metrics = Metrics::default();
                        let n = slice.questions.len();
                        let mut start = 0;
                        // An empty level still runs one empty unit.
                        loop {
                            let end = n.min(start + DEFAULT_CHUNK_SIZE);
                            metrics +=
                                self.unit(*model, &slice.questions[start..end], &slice.exemplars);
                            start = end;
                            if start >= n {
                                break;
                            }
                        }
                        LevelMetrics {
                            child_level: slice.child_level,
                            metrics,
                        }
                    })
                    .collect();
                let mut overall = Metrics::default();
                for level in &by_level {
                    overall += level.metrics;
                }
                reports.push(EvalReport {
                    model: model.name().to_owned(),
                    taxonomy: dataset.taxonomy,
                    flavor: dataset.flavor,
                    setting: self.config.setting,
                    overall,
                    by_level,
                });
            }
        }
        reports
    }

    /// `Evaluator::run_questions` for one work unit, with spans.
    fn unit(
        &mut self,
        model: &dyn LanguageModel,
        questions: &[Question],
        exemplars: &[Question],
    ) -> Metrics {
        let t = self.tracer;
        let (setting, variant) = (self.config.setting, self.config.variant);
        let unit = t.begin("chunk");
        let span = t.begin("prompts");
        let prefix = render_prefix(setting, variant, exemplars, PromptSetting::SHOTS);
        t.end(span, 1);
        let mut session = ResilienceSession::new(self.policy);
        let mut metrics = Metrics::default();
        let mut bufs: Vec<String> = Vec::new();
        for batch in questions.chunks(DEFAULT_BATCH_SIZE) {
            let batch_span = t.begin("batch");
            let span = t.begin("prompts");
            if bufs.len() < batch.len() {
                bufs.resize_with(batch.len(), String::new);
            }
            for (question, buf) in batch.iter().zip(bufs.iter_mut()) {
                render_prompt_into(question, setting, variant, &prefix, buf);
                self.counters.prompt_bytes += buf.len() as u64;
            }
            let queries: Vec<Query<'_>> = batch
                .iter()
                .zip(&bufs)
                .map(|(question, buf)| {
                    Query::new(buf, question, setting).with_prefix_len(prefix.len())
                })
                .collect();
            t.end(span, batch.len() as u64);

            let firsts = model.answer_batch(&queries);
            assert_eq!(
                firsts.len(),
                queries.len(),
                "answer_batch returns one result per query"
            );

            // Per-query calls, timed back to back: resilience replay,
            // parse, score. Retries inside `call_prefetched` nest under
            // the open resilience span.
            let resilience = t.begin("resilience");
            let (mut resilience_ns, mut parse_ns, mut score_ns, mut parsed) =
                (0u64, 0u64, 0u64, 0u64);
            let mut mark = t.now_ns();
            for (first, query) in firsts.into_iter().zip(&queries) {
                let result = session.call_prefetched(model, query, first);
                let called = t.now_ns();
                resilience_ns += called - mark;
                mark = called;
                let outcome = match result {
                    Ok(response) => {
                        let answer = match query.question.kind() {
                            QuestionKind::TrueFalse => parse_tf(&response.text),
                            QuestionKind::Mcq => parse_mcq(&response.text),
                        };
                        let done = t.now_ns();
                        parse_ns += done - mark;
                        mark = done;
                        parsed += 1;
                        self.counters.unparsed += u64::from(answer == ParsedAnswer::Unparsed);
                        score(query.question, answer)
                    }
                    Err(_) => Outcome::Failed,
                };
                metrics.record(outcome);
                let scored = t.now_ns();
                score_ns += scored - mark;
                mark = scored;
            }
            let n = queries.len() as u64;
            t.close_folded(resilience, resilience_ns, n);
            let start = t.now_ns();
            t.folded("parse", start, parse_ns, parsed);
            t.folded("eval", start + parse_ns, score_ns, n);
            self.counters.parsed += parsed;
            t.end(batch_span, n);
        }
        t.end(unit, questions.len() as u64);
        self.counters.resilience += session.stats();
        metrics
    }
}

/// One traced replay of a repeat, plus the untraced 1-worker repeat it
/// is compared against. `wall_s` is the untraced median on the
/// benchmark's worker count.
pub fn traced(
    workload: Workload,
    plan: &Plan,
    zoo: &ModelZoo,
    datasets: &[Dataset],
    wall_s: f64,
) -> Traced {
    let reference = repeat(workload, plan, zoo, datasets, 1);
    let tracer = Tracer::new();
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let mut replay = Replay {
        tracer: &tracer,
        config: EvalConfig::default(),
        policy: ResiliencePolicy::default(),
        counters: Counters::default(),
    };
    let llms = llms(workload, zoo);
    let cache = Arc::new(ResponseCache::new());
    let faulty = workload == Workload::GridFaultsCached;
    let (probes, towers): (Vec<_>, Vec<_>) = if faulty {
        let towers = llms
            .iter()
            .map(|llm| {
                let llm = Probe::new(Arc::clone(llm), "llm", &tracer);
                let cached = Probe::new(
                    CachedModel::with_cache(llm, Arc::clone(&cache)),
                    "cache",
                    &tracer,
                );
                Probe::new(
                    FaultInjector::new(cached, fault_plan(plan)),
                    "faults",
                    &tracer,
                )
            })
            .collect();
        (Vec::new(), towers)
    } else {
        (
            llms.iter()
                .map(|llm| Probe::new(Arc::clone(llm), "llm", &tracer))
                .collect(),
            Vec::new(),
        )
    };
    let models: Vec<&dyn LanguageModel> = if faulty {
        towers.iter().map(|t| t as &dyn LanguageModel).collect()
    } else {
        probes.iter().map(|p| p as &dyn LanguageModel).collect()
    };
    let mut injected = 0u64;
    // On a worker thread, as the runner's chunks run, so allocation
    // behaves as in the untraced repeats.
    let (passes, pass_s) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                run_passes(workload, |setting| {
                    replay.config = replay.config.with_setting(setting);
                    let span = tracer.begin("pass");
                    let reports = replay.run_cross(&models, &dataset_refs);
                    tracer.end(span, reports.iter().map(|r| r.overall.total() as u64).sum());
                    // Each pass resets the injectors' counters first.
                    injected += towers
                        .iter()
                        .map(|t| t.inner().stats().injected)
                        .sum::<u64>();
                    reports
                })
            })
            .join()
            .expect("the replay thread does not panic")
    });
    let traced_s: f64 = pass_s.iter().sum();
    let spans = tracer.spans();
    let totals = totals_by_name(&spans);
    let self_s = |name: &str| totals.get(name).map(|t| t.self_s()).unwrap_or(0.0);
    let attributed: f64 = [
        "prompts",
        "faults",
        "cache",
        "llm",
        "resilience",
        "parse",
        "eval",
    ]
    .iter()
    .map(|n| self_s(n))
    .sum();
    let other_s = traced_s - attributed;
    let mut pass = finish(&passes, datasets, traced_s);
    if faulty {
        pass.checks.push(cache_transparent(&passes));
    }
    let c = &replay.counters;
    pass.values = vec![
        ("prompts.render_s", self_s("prompts")),
        ("prompts.mb", c.prompt_bytes as f64 / (1024.0 * 1024.0)),
        ("resilience.self_s", self_s("resilience")),
        ("resilience.retries", c.resilience.retries as f64),
        ("resilience.amplification", c.resilience.amplification()),
        ("parse.self_s", self_s("parse")),
        (
            "parse.unparsed_frac",
            ratio(c.unparsed as f64, c.parsed as f64),
        ),
        ("eval.score_s", self_s("eval")),
        ("grid.other_s", other_s),
        ("grid.wall_1t_s", reference.wall_s),
        ("grid.speedup", ratio(reference.wall_s, wall_s)),
        ("trace.unattributed_frac", ratio(other_s, traced_s)),
    ];
    if faulty {
        pass.values.extend([
            ("faults.self_s", self_s("faults")),
            ("faults.injected", injected as f64),
            ("cache.self_s", self_s("cache")),
        ]);
    }
    Traced {
        pass,
        reference,
        spans,
    }
}
