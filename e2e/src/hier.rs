//! `hier_scale1`: `HierWorkload::run` over every taxonomy.

use crate::pass::{digest, ratio, Pass, Traced};
use crate::setup::{hier_workload, HierInput, Plan};
use crate::trace::{totals_by_name, Probe, Tracer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::hier::{HierDataset, HierReport};
use taxoglimpse_core::workload::{Workload as _, WorkloadContext, WorkloadRunner};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::zoo::ModelZoo;

/// The model that classifies.
const MODEL: ModelId = ModelId::Gpt4;

fn runner(threads: usize) -> WorkloadRunner {
    WorkloadRunner::builder().with_threads(threads).build()
}

fn context<'t>(input: &'t HierInput, plan: &Plan) -> WorkloadContext<'t> {
    WorkloadContext::new(&input.taxonomy, input.kind, plan.seed)
}

/// One untraced repeat on `threads` workers.
pub fn repeat(plan: &Plan, zoo: &ModelZoo, inputs: &[HierInput], threads: usize) -> Pass {
    let model = zoo.get(MODEL).expect("the zoo holds every model");
    let (workload, runner) = (hier_workload(), runner(threads));
    let start = Instant::now();
    let reports: Vec<HierReport> = inputs
        .iter()
        .map(|input| workload.run(&runner, model.as_ref(), &context(input, plan), &input.data))
        .collect();
    finish(&reports, start.elapsed().as_secs_f64())
}

fn finish(reports: &[HierReport], run_s: f64) -> Pass {
    let (digest, serialize_s) = digest(reports);
    let (mut instances, mut failed, mut queries, mut tokens) = (0, 0, 0, 0);
    let mut valid = true;
    for m in reports.iter().map(|r| &r.metrics) {
        valid &= m.hier_invalid_rate() == 0.0
            && m.hier_correct + m.hier_wrong_branch + m.hier_abstained + m.hier_failed
                == m.instances
            && m.flat_correct
                + m.flat_wrong_valid
                + m.flat_invalid
                + m.flat_abstained
                + m.flat_failed
                == m.instances;
        instances += m.instances;
        failed += m.hier_failed + m.flat_failed;
        queries += m.hier_queries;
        tokens += m.hier_prompt_tokens;
    }
    Pass {
        wall_s: run_s + serialize_s,
        items: instances as u64,
        // Each instance is classified twice: by descent and by the flat
        // baseline.
        failed_frac: ratio(failed as f64, 2.0 * instances as f64),
        digest,
        serialize_s,
        checks: vec![("hier_valid", valid)],
        values: vec![
            ("hier.queries", queries as f64),
            ("hier.prompt_tokens", tokens as f64),
        ],
    }
}

/// One traced 1-worker repeat with a probe around the model, plus the
/// untraced 1-worker repeat it is compared against. The per-run state
/// and the routing are also timed on their own, outside the run.
pub fn traced(plan: &Plan, zoo: &ModelZoo, inputs: &[HierInput]) -> Traced {
    let reference = repeat(plan, zoo, inputs, 1);
    let model = zoo.get(MODEL).expect("the zoo holds every model");
    let tracer = Tracer::new();
    let probe = Probe::new(Arc::clone(&model), "llm", &tracer);
    let (workload, runner) = (hier_workload(), runner(1));
    let no_instances = HierDataset {
        instances: Vec::new(),
    };
    let (mut state_s, mut route_s, mut wall_s, mut ncbi_s) = (0.0, 0.0, 0.0, 0.0);
    let mut reports = Vec::with_capacity(inputs.len());
    for input in inputs {
        let cx = context(input, plan);
        let start = Instant::now();
        workload.run(&runner, model.as_ref(), &cx, &no_instances);
        state_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        for instance in &input.data.instances {
            black_box(workload.route(&input.taxonomy, &instance.name));
        }
        route_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let span = tracer.begin("hier.run");
        reports.push(workload.run(&runner, &probe, &cx, &input.data));
        tracer.end(span, input.data.instances.len() as u64);
        let run_s = start.elapsed().as_secs_f64();
        wall_s += run_s;
        if input.kind == TaxonomyKind::Ncbi {
            ncbi_s += run_s;
        }
    }
    let spans = tracer.spans();
    let llm_s = totals_by_name(&spans)
        .get("llm")
        .map(|t| t.self_s())
        .unwrap_or(0.0);
    let mut pass = finish(&reports, wall_s);
    pass.values.extend([
        ("hier.state_s", state_s),
        ("hier.route_s", route_s),
        ("hier.llm_s", llm_s),
        (
            "hier.instance_s",
            ratio(wall_s - state_s - llm_s, pass.items as f64),
        ),
        ("hier.ncbi_frac", ratio(ncbi_s, wall_s)),
    ]);
    Traced {
        pass,
        reference,
        spans,
    }
}
