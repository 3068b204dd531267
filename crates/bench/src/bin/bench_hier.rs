//! `bench_hier` — the machine-readable two-stage hierarchical
//! classification baseline.
//!
//! Runs `core::hier` (coarse trigram router + constrained sibling-MCQ
//! descent) against the free-form flat baseline on all ten taxonomies
//! and records the results in `BENCH_hier.json` (schema v1): accuracy,
//! invalid-label rates (zero by construction for the descent — the
//! document *proves* it per cell), wrong-branch jump depth, abstain
//! calibration, and prompt-token cost vs the whole-taxonomy-in-prompt
//! alternative.
//!
//! One invariant is *enforced in-run*, not just recorded: for every
//! `(model, taxonomy)` cell the report must be byte-identical across
//! worker counts {1, 2, 8}. Any divergence aborts the run — threading
//! must be a pure executor.
//!
//! ```text
//! cargo run --release -p taxoglimpse-bench --bin bench_hier -- \
//!     [--scale S] [--cap N] [--seed N] [--models CSV] [--repeat R] \
//!     [--top-k K] [--label L] [--out FILE]
//! cargo run --release -p taxoglimpse-bench --bin bench_hier -- --check FILE
//! ```
//!
//! `TAXOGLIMPSE_BENCH_QUICK=1` shrinks the workload to smoke-test size.

use taxoglimpse_bench::suite::{self, counted, Args, Defaults, DigestGate, Suite};
use taxoglimpse_bench::TaxonomyCache;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::hier::{DescentConfig, HierWorkload, RouterConfig};
use taxoglimpse_core::reports_digest;
use taxoglimpse_core::workload::{Workload, WorkloadContext};
use taxoglimpse_json::{Json, ToJson};
use taxoglimpse_llm::zoo::ModelZoo;

/// Worker counts whose reports must be byte-identical within a cell.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn main() {
    let top_k = RouterConfig::default().top_k();
    let suite = Suite {
        name: "hier",
        schema_version: 1,
        flags: &["--cap", "--models", "--top-k"],
        full: Defaults { scale: 0.1, cap: Some(120), repeat: 3, top_k, ..Defaults::BASE },
        quick: Defaults { scale: 0.05, cap: Some(12), repeat: 1, top_k, ..Defaults::BASE },
    };
    suite::main(&suite, run_bench, check_doc);
}

/// Run the measured workload and build the `BENCH_hier.json` body.
fn run_bench(opts: &Args) -> (Json, Vec<(&'static str, Json)>) {
    let cache = TaxonomyCache::new();
    let zoo = ModelZoo::default_zoo();
    let workload = HierWorkload::new()
        .with_router(RouterConfig::default().with_top_k(opts.top_k))
        .with_descent(DescentConfig::default())
        .with_sample_cap(opts.cap);

    let mut sections = Vec::new();
    for kind in TaxonomyKind::ALL {
        eprintln!("generating {} at scale {} ...", kind.label(), opts.scale);
        let taxonomy = cache.get(kind, opts.seed, opts.scale);
        let cx = WorkloadContext::new(&taxonomy, kind, opts.seed);
        let data = match workload.build(&cx) {
            Ok(data) => data,
            Err(e) => {
                eprintln!("{}: skipped ({e})", kind.label());
                sections.push(Json::obj(vec![
                    ("taxonomy", kind.label().to_json()),
                    ("skipped", format!("{e}").to_json()),
                ]));
                continue;
            }
        };

        let mut entries = Vec::new();
        for &model_id in &opts.models {
            let model = zoo.get(model_id).expect("zoo covers all ids");
            let mut gate = DigestGate::new(format_args!("{} / {model_id}", kind.label()));
            let mut cell_report = None;
            let mut workers_out = Vec::new();
            for workers in WORKER_COUNTS {
                let runner = GridRunner::builder().with_threads(workers).build();
                let (timing, _) = suite::time_reps(
                    opts.repeat,
                    || workload.run(&runner, model.as_ref(), &cx, &data),
                    |report| {
                        gate.check(
                            counted(workers, "worker"),
                            reports_digest(std::slice::from_ref(report)),
                        );
                        cell_report.get_or_insert_with(|| report.clone());
                    },
                );
                workers_out.push(Json::obj(vec![
                    ("workers", (workers as u64).to_json()),
                    ("best_elapsed_ms", (timing.best_s * 1e3).to_json()),
                    ("mean_elapsed_ms", (timing.mean_s * 1e3).to_json()),
                    (
                        "instances_per_sec",
                        (data.instances.len() as f64 / timing.best_s).to_json(),
                    ),
                ]));
            }
            let digest = gate.digest().expect("at least one worker count ran");
            let report = cell_report.expect("at least one worker count ran");
            let m = &report.metrics;
            let savings = if m.hier_tokens_per_instance() > 0.0 {
                m.whole_taxonomy_tokens_per_instance() / m.hier_tokens_per_instance()
            } else {
                0.0
            };
            eprintln!(
                "{} / {}: hier A={:.3} invalid={:.3} abstain={:.3} | flat A={:.3} \
                 invalid={:.3} | {:.0} vs {:.0} tok/inst ({savings:.1}x), digest {:016x}",
                kind.label(),
                model_id,
                m.hier_accuracy(),
                m.hier_invalid_rate(),
                m.hier_abstain_rate(),
                m.flat_accuracy(),
                m.flat_invalid_rate(),
                m.hier_tokens_per_instance(),
                m.whole_taxonomy_tokens_per_instance(),
                digest,
            );
            entries.push(Json::obj(vec![
                ("model", model_id.to_string().to_json()),
                ("report_digest", suite::hex(digest)),
                ("hier_accuracy", m.hier_accuracy().to_json()),
                ("hier_invalid_rate", m.hier_invalid_rate().to_json()),
                ("hier_abstain_rate", m.hier_abstain_rate().to_json()),
                ("mean_wrong_branch_depth", m.mean_wrong_branch_depth().to_json()),
                ("abstain_calibration", m.abstain_calibration().to_json()),
                ("flat_accuracy", m.flat_accuracy().to_json()),
                ("flat_invalid_rate", m.flat_invalid_rate().to_json()),
                ("hier_tokens_per_query", m.hier_tokens_per_query().to_json()),
                ("hier_tokens_per_instance", m.hier_tokens_per_instance().to_json()),
                (
                    "whole_taxonomy_tokens_per_instance",
                    m.whole_taxonomy_tokens_per_instance().to_json(),
                ),
                ("token_savings_factor", savings.to_json()),
                ("workers", Json::Arr(workers_out)),
                ("metrics", m.to_json()),
            ]));
        }
        sections.push(Json::obj(vec![
            ("taxonomy", kind.label().to_json()),
            ("nodes", (taxonomy.len() as u64).to_json()),
            ("levels", (taxonomy.num_levels() as u64).to_json()),
            ("instances", (data.instances.len() as u64).to_json()),
            ("entries", Json::Arr(entries)),
        ]));
    }

    let workload_doc = Json::obj(vec![
        ("models", opts.models_json()),
        ("taxonomies", suite::labels(&TaxonomyKind::ALL)),
        ("scale", opts.scale.to_json()),
        ("cap", opts.cap_json()),
        ("seed", opts.seed.to_json()),
        ("router_level", (RouterConfig::default().level() as u64).to_json()),
        ("router_top_k", (opts.top_k as u64).to_json()),
        (
            "descent_max_options",
            (DescentConfig::default().max_options() as u64).to_json(),
        ),
        ("repeats", (opts.repeat as u64).to_json()),
        ("worker_counts", suite::uints(&WORKER_COUNTS)),
    ]);

    (workload_doc, vec![("taxonomies", Json::Arr(sections))])
}

/// `--check FILE`: validate shape plus the invariants the document
/// claims: the descent's invalid-label count is exactly zero in every
/// cell, every rate lies in [0, 1], outcome counts partition the
/// instance count, and per-worker timings are positive.
fn check_doc(doc: &Json) -> Result<String, String> {
    let sections = suite::array(doc, "taxonomies")?;
    let mut cells = 0usize;
    for section in sections {
        let taxonomy = suite::text(section, "taxonomy").map_err(|e| format!("section: {e}"))?;
        if section.get("skipped").is_some() {
            continue;
        }
        for entry in suite::array(section, "entries").map_err(|e| format!("{taxonomy}: {e}"))? {
            let model = suite::text(entry, "model").map_err(|e| format!("{taxonomy}: {e}"))?;
            check_cell(entry).map_err(|e| format!("{taxonomy} / {model}: {e}"))?;
            cells += 1;
        }
    }
    Ok(format!("{} taxonomies, {cells} cells", sections.len()))
}

/// Validate one `(model, taxonomy)` cell.
fn check_cell(entry: &Json) -> Result<(), String> {
    suite::text(entry, "report_digest")
        .ok()
        .filter(|d| d.len() == 16)
        .ok_or("missing 16-hex report_digest")?;
    for key in [
        "hier_accuracy",
        "hier_invalid_rate",
        "hier_abstain_rate",
        "flat_accuracy",
        "flat_invalid_rate",
    ] {
        suite::number(entry, key, suite::Range::Unit)?;
    }
    let metrics = entry.get("metrics").ok_or("missing metrics")?;
    let count = |key| suite::integer(metrics, key).map_err(|e| format!("metrics: {e}"));
    let instances = count("instances")?;
    if instances == 0 {
        return Err("zero instances".to_owned());
    }
    // The headline guarantee: constrained descent cannot emit an
    // invalid label — the recorded count must be exactly zero.
    let hier_invalid = count("hier_invalid")?;
    if hier_invalid != 0 {
        return Err(format!("hier_invalid = {hier_invalid} (must be exactly 0)"));
    }
    let hier_sum = count("hier_correct")?
        + count("hier_wrong_branch")?
        + count("hier_abstained")?
        + count("hier_failed")?;
    if hier_sum != instances {
        return Err(format!("descent outcomes sum to {hier_sum}, not {instances}"));
    }
    let flat_sum = count("flat_correct")?
        + count("flat_wrong_valid")?
        + count("flat_invalid")?
        + count("flat_abstained")?
        + count("flat_failed")?;
    if flat_sum != instances {
        return Err(format!("flat outcomes sum to {flat_sum}, not {instances}"));
    }
    for w in suite::array(entry, "workers")? {
        let n = suite::integer(w, "workers")
            .ok()
            .filter(|n| *n >= 1)
            .ok_or("worker entry missing a positive workers count")?;
        for key in ["best_elapsed_ms", "mean_elapsed_ms", "instances_per_sec"] {
            suite::number(w, key, suite::Range::Positive).map_err(|e| format!("{n} workers: {e}"))?;
        }
    }
    Ok(())
}
