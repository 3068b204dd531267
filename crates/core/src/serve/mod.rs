//! `taxoserve` — a deterministic online serving layer over the model
//! zoo, simulated in virtual time.
//!
//! The offline harness ([`crate::eval`], [`crate::grid`]) answers "how
//! accurate is a model as a taxonomy?"; this module answers the
//! production question the ROADMAP's north star poses: what happens
//! when the same model tower serves *heavy live traffic* — tail
//! latency, queueing, batching efficiency, and load shedding under
//! admission pressure. Everything runs as a discrete-event simulation
//! ([`sim`]) on a virtual clock:
//!
//! * [`traffic`] offers open-loop Poisson/burst load from seeded
//!   per-tenant streams;
//! * [`admission`] sheds what the token buckets, queue bounds, or a
//!   tripped breaker refuse;
//! * [`batcher`] accumulates admitted requests per model lane and
//!   closes batches by size cap or deadline;
//! * dispatched batches flow through the *existing* model stack — the
//!   lane's [`ResilienceSession`] replays `answer_batch` prefetches
//!   exactly like the grid runner does, so caches, fault injection,
//!   retries, backoff and breaker trips all behave identically to the
//!   offline pipeline.
//!
//! ### Determinism
//!
//! The entire run is a pure function of `(traffic config, serve
//! config, question pool, model tower)`. Virtual timestamps come only
//! from seeded streams and closed-form service times; event pop order
//! is totally ordered by (time, tenant, sequence); and the `workers`
//! knob only changes how a dispatched batch's attempt-0 prefetch is
//! split across threads — results are spliced back in index order, and
//! model answers are pure per query, so the [`ServeReport`] (and its
//! trace digest) is byte-identical for any worker count. `tests/serve.rs`
//! enforces this, and `tests/pinned_digests.rs` pins 18 trace digests.

pub mod admission;
pub mod batcher;
pub mod sim;
pub mod traffic;

pub use admission::{AdmissionControl, ShedReason, ShedStats, TenantStats, TokenBucket};
pub use batcher::{CompletedRequest, Lane, LaneStats, PendingRequest};
pub use sim::{Event, EventKey, EventQueue, TraceDigest, SYSTEM_TENANT};
pub use traffic::{ArrivalProcess, TenantSpec, TrafficConfig, TrafficSource};

use crate::grid::run_indexed;
use crate::model::{LanguageModel, ModelError, Query, Response};
use crate::prompts::{render_prompt, PromptSetting};
use crate::question::Question;
use crate::resilience::{ResiliencePolicy, ResilienceSession, ResilienceStats};
use crate::templates::TemplateVariant;

/// Trace tags (first word of each [`TraceDigest`] record).
const TAG_ARRIVAL: u64 = 1;
const TAG_SHED: u64 = 2;
const TAG_DISPATCH: u64 = 3;
const TAG_COMPLETE: u64 = 4;

/// Tuning knobs for the serving loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Size cap per dispatched batch.
    pub max_batch: usize,
    /// Longest virtual time the oldest pending request may wait before
    /// its batch closes.
    pub batch_deadline_s: f64,
    /// Bound on each lane's pending queue (admission sheds beyond it).
    pub queue_capacity: usize,
    /// Fixed virtual service cost per dispatched batch.
    pub batch_overhead_s: f64,
    /// Marginal virtual service cost per request in a batch.
    pub per_item_s: f64,
    /// Threads used to split each batch's attempt-0 prefetch. Purely
    /// an execution detail: any value produces byte-identical reports.
    pub workers: usize,
    /// Retry/backoff/breaker policy for every lane's session.
    pub resilience: ResiliencePolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            batch_deadline_s: 0.02,
            queue_capacity: 256,
            batch_overhead_s: 0.002,
            per_item_s: 0.0001,
            workers: 1,
            resilience: ResiliencePolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Override the batch size cap (clamped to at least 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Override the batch deadline (clamped non-negative).
    pub fn with_batch_deadline_s(mut self, deadline_s: f64) -> Self {
        self.batch_deadline_s = deadline_s.max(0.0);
        self
    }

    /// Override the per-lane queue bound (clamped to at least 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Override the prefetch worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Override the lane resilience policy.
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// Closed-form saturation throughput of one lane in requests per
    /// virtual second, assuming full fault-free batches:
    /// `max_batch / (batch_overhead_s + max_batch * per_item_s)`.
    pub fn lane_capacity_qps(&self) -> f64 {
        let full_batch_s = self.batch_overhead_s + self.max_batch as f64 * self.per_item_s;
        if full_batch_s <= 0.0 {
            f64::INFINITY
        } else {
            self.max_batch as f64 / full_batch_s
        }
    }
}

/// Everything one serving run produced. Byte-identical across worker
/// counts; compared field-for-field by the invariance tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests the traffic source offered.
    pub arrivals: u64,
    /// Requests past admission.
    pub admitted: u64,
    /// Admitted requests answered successfully.
    pub completed: u64,
    /// Admitted requests that exhausted the resilience budget.
    pub failed: u64,
    /// Sheds by reason, across tenants.
    pub shed: ShedStats,
    /// Virtual latency (arrival to completion) of every successful
    /// request, in completion order. Feed into
    /// `taxoglimpse_report::LatencyHistogram` for percentiles.
    pub latencies: Vec<f64>,
    /// Batches dispatched across lanes.
    pub batches: u64,
    /// Sum of dispatched batch sizes across lanes.
    pub occupancy_sum: u64,
    /// Largest batch dispatched on any lane.
    pub occupancy_max: u64,
    /// Virtual time of the last event.
    pub makespan_s: f64,
    /// The arrival horizon the run was configured with.
    pub horizon_s: f64,
    /// Chained digest over the full event trace.
    pub trace_digest: u64,
    /// Number of trace records behind the digest.
    pub trace_events: u64,
    /// Per-tenant outcome rows, in tenant order.
    pub tenants: Vec<TenantStats>,
    /// Per-lane (per-model) outcome rows, in model order.
    pub lanes: Vec<LaneStats>,
}

impl ServeReport {
    /// Fraction of offered requests shed by admission.
    pub fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.shed.total() as f64 / self.arrivals as f64
        }
    }

    /// Fraction of admitted requests answered successfully.
    pub fn availability(&self) -> f64 {
        let finished = self.completed + self.failed;
        if finished == 0 {
            1.0
        } else {
            self.completed as f64 / finished as f64
        }
    }

    /// Successful answers per virtual second, over the makespan.
    pub fn sustained_qps(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.makespan_s
        }
    }

    /// Mean dispatched batch size.
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.batches as f64
        }
    }

    /// Retry/breaker counters summed across lanes.
    pub fn resilience(&self) -> ResilienceStats {
        self.lanes.iter().map(|lane| lane.resilience).sum()
    }
}

/// Split a batch's attempt-0 prefetch across `workers` threads of the
/// grid's worker pool.
///
/// Contiguous even chunks, results spliced back in chunk order: model
/// answers are pure per query, so the split is unobservable in the
/// results — only in wall-clock time. A worker panic is re-raised with
/// the lane's model name and the worker's own message.
fn prefetch(
    model: &dyn LanguageModel,
    queries: &[Query<'_>],
    workers: usize,
) -> Vec<Result<Response, ModelError>> {
    let workers = workers.max(1);
    let results = if workers == 1 || queries.len() < 2 {
        model.answer_batch(queries)
    } else {
        let parts: Vec<&[Query<'_>]> = queries.chunks(queries.len().div_ceil(workers)).collect();
        let answers = run_indexed(workers, parts.len(), |i| model.answer_batch(parts[i]), |failed| {
            format!("serve prefetch (model `{}`) panicked: {}", model.name(), failed[0].1)
        });
        let mut spliced = Vec::with_capacity(queries.len());
        for part in answers {
            spliced.extend(part);
        }
        spliced
    };
    assert_eq!(
        results.len(),
        queries.len(),
        "answer_batch must return one result per query"
    );
    results
}

/// Dispatch a due batch on `lane_idx` (if any) or (re-)arm its
/// deadline. Called after every event that can change the lane's
/// dispatch conditions.
#[allow(clippy::too_many_arguments)]
fn pump_lane(
    lane_idx: usize,
    now_s: f64,
    lanes: &mut [Lane],
    queue: &mut EventQueue,
    trace: &mut TraceDigest,
    models: &[&dyn LanguageModel],
    questions: &[Question],
    prompts: &[String],
    config: &ServeConfig,
) {
    let lane = &mut lanes[lane_idx];
    if lane.should_dispatch(now_s, config.max_batch, config.batch_deadline_s) {
        let batch = lane.take_batch(config.max_batch);
        trace.record(TAG_DISPATCH, &[lane_idx as u64, batch.len() as u64, now_s.to_bits()]);

        let queries: Vec<Query<'_>> = batch
            .iter()
            .map(|request| {
                let question = request.question as usize;
                Query::new(&prompts[question], &questions[question], PromptSetting::ZeroShot)
            })
            .collect();
        let prefetched = prefetch(models[lane_idx], &queries, config.workers);

        // Replay through the lane session in arrival order: retries,
        // backoff waits and breaker trips land on the lane's virtual
        // clock, and the deltas become part of the batch service time.
        let mut service_s = config.batch_overhead_s + config.per_item_s * batch.len() as f64;
        for ((request, query), first) in batch.iter().zip(&queries).zip(prefetched) {
            let before_s = lane.session.clock_s();
            let result = lane.session.call_prefetched(models[lane_idx], query, first);
            service_s += lane.session.clock_s() - before_s;
            lane.in_flight.push(CompletedRequest { request: *request, delivered: result.is_ok() });
        }
        queue.schedule(now_s + service_s, SYSTEM_TENANT, Event::BatchDone { lane: lane_idx as u32 });
    } else if !lane.busy {
        if let Some((deadline_at_s, epoch)) = lane.deadline_to_schedule(config.batch_deadline_s) {
            queue.schedule(
                deadline_at_s,
                SYSTEM_TENANT,
                Event::BatchDeadline { lane: lane_idx as u32, epoch },
            );
        }
    }
}

/// Run one serving simulation to completion: offer traffic until the
/// horizon, admit/batch/serve it through the model towers, and drain.
///
/// `models` are the per-lane towers (index = lane = model id in
/// request draws); `questions` is the pool requests draw from.
pub fn run_serve(
    models: &[&dyn LanguageModel],
    questions: &[Question],
    traffic: &TrafficConfig,
    config: &ServeConfig,
) -> ServeReport {
    assert!(!models.is_empty(), "run_serve needs at least one model lane");
    assert!(!questions.is_empty(), "run_serve needs a non-empty question pool");
    assert!(!traffic.tenants.is_empty(), "run_serve needs at least one tenant");

    // Render every prompt once up front, zero-shot and canonical (the
    // serving path has no exemplar pool); dispatches borrow them.
    let prompts: Vec<String> = questions
        .iter()
        .map(|q| render_prompt(q, PromptSetting::ZeroShot, TemplateVariant::Canonical, &[]))
        .collect();

    let mut lanes: Vec<Lane> = models
        .iter()
        .map(|model| Lane::new(model.name(), ResilienceSession::new(config.resilience)))
        .collect();
    let mut source = TrafficSource::new(traffic);
    let mut gate = AdmissionControl::new(&traffic.tenants);
    let mut queue = EventQueue::new();
    let mut trace = TraceDigest::new();

    // Admissions, sheds and outcomes are counted once, in the gate's
    // tenant rows; the report's totals are their sums. The arrival
    // count is also the next request's trace id.
    let mut arrivals = 0u64;
    let mut latencies = Vec::new();
    let mut makespan_s = 0.0f64;

    for tenant in 0..traffic.tenants.len() as u32 {
        let first_s = source.next_arrival_s(tenant, 0.0);
        if first_s < traffic.horizon_s {
            queue.schedule(first_s, tenant, Event::Arrival { tenant });
        }
    }

    while let Some((key, event)) = queue.pop() {
        let now_s = key.time_s();
        makespan_s = makespan_s.max(now_s);
        match event {
            Event::Arrival { tenant } => {
                let (model, question) = source.draw_request(tenant, models.len(), questions.len());
                let id = arrivals;
                arrivals += 1;
                trace.record(
                    TAG_ARRIVAL,
                    &[id, u64::from(tenant), u64::from(model), u64::from(question), key.time_bits],
                );

                // Open loop: the next arrival is scheduled regardless
                // of what happens to this one.
                let next_s = source.next_arrival_s(tenant, now_s);
                if next_s < traffic.horizon_s {
                    queue.schedule(next_s, tenant, Event::Arrival { tenant });
                }

                let lane_idx = model as usize;
                let verdict = gate.admit(
                    tenant,
                    now_s,
                    lanes[lane_idx].session.state(),
                    lanes[lane_idx].pending.len(),
                    config.queue_capacity,
                );
                match verdict {
                    Ok(()) => {
                        lanes[lane_idx].pending.push_back(PendingRequest {
                            id,
                            tenant,
                            question,
                            arrival_s: now_s,
                        });
                        pump_lane(
                            lane_idx, now_s, &mut lanes, &mut queue, &mut trace, models,
                            questions, &prompts, config,
                        );
                    }
                    Err(reason) => trace.record(TAG_SHED, &[id, reason.code()]),
                }
            }
            Event::BatchDeadline { lane, epoch } => {
                let lane_idx = lane as usize;
                if lanes[lane_idx].deadline_is_current(epoch) {
                    lanes[lane_idx].deadline_scheduled = false;
                    pump_lane(
                        lane_idx, now_s, &mut lanes, &mut queue, &mut trace, models, questions,
                        &prompts, config,
                    );
                }
            }
            Event::BatchDone { lane } => {
                let lane_idx = lane as usize;
                let done: Vec<CompletedRequest> = lanes[lane_idx].in_flight.drain(..).collect();
                lanes[lane_idx].busy = false;
                for completion in done {
                    let latency_s = now_s - completion.request.arrival_s;
                    trace.record(
                        TAG_COMPLETE,
                        &[
                            completion.request.id,
                            u64::from(completion.delivered),
                            latency_s.to_bits(),
                        ],
                    );
                    gate.record_outcome(completion.request.tenant, completion.delivered);
                    if completion.delivered {
                        lanes[lane_idx].stats.completed += 1;
                        latencies.push(latency_s);
                    } else {
                        lanes[lane_idx].stats.failed += 1;
                    }
                }
                pump_lane(
                    lane_idx, now_s, &mut lanes, &mut queue, &mut trace, models, questions,
                    &prompts, config,
                );
            }
        }
    }

    let lanes: Vec<LaneStats> = lanes
        .into_iter()
        .map(|mut lane| {
            debug_assert!(lane.pending.is_empty(), "drained run left pending work");
            debug_assert!(!lane.busy, "drained run left a busy lane");
            lane.stats.resilience = lane.session.stats();
            lane.stats
        })
        .collect();

    let tenants = gate.into_stats();
    ServeReport {
        arrivals,
        admitted: tenants.iter().map(|t| t.admitted).sum(),
        completed: tenants.iter().map(|t| t.completed).sum(),
        failed: tenants.iter().map(|t| t.failed).sum(),
        shed: tenants.iter().map(|t| t.shed).sum(),
        latencies,
        batches: lanes.iter().map(|lane| lane.batches).sum(),
        occupancy_sum: lanes.iter().map(|lane| lane.occupancy_sum).sum(),
        occupancy_max: lanes.iter().map(|lane| lane.occupancy_max).max().unwrap_or(0),
        makespan_s,
        horizon_s: traffic.horizon_s,
        trace_digest: trace.digest(),
        trace_events: trace.events(),
        tenants,
        lanes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::TaxonomyKind;
    use crate::question::QuestionBody;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pool(n: usize) -> Vec<Question> {
        (0..n as u64)
            .map(|id| Question {
                id,
                taxonomy: TaxonomyKind::Ebay,
                child: format!("child-{id}"),
                child_level: 1,
                parent_level: 0,
                true_parent: "parent".into(),
                instance_typing: false,
                body: QuestionBody::TrueFalse {
                    candidate: "parent".into(),
                    expected_yes: true,
                    negative: None,
                },
                surface_memo: Default::default(),
            })
            .collect()
    }

    /// A healthy model with a fixed simulated latency per answer.
    struct SteadyModel {
        latency_s: f64,
        calls: AtomicU64,
    }

    impl SteadyModel {
        fn new(latency_s: f64) -> Self {
            SteadyModel { latency_s, calls: AtomicU64::new(0) }
        }
    }

    impl LanguageModel for SteadyModel {
        fn name(&self) -> &str {
            "steady"
        }

        fn answer(&self, _query: &Query<'_>) -> Result<Response, ModelError> {
            // Relaxed: independent monotonic counter, only read after
            // the run finishes.
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(Response::new("Yes.").with_latency(self.latency_s))
        }
    }

    /// A model that always fails retryably: every query exhausts the
    /// retry budget and the breaker eventually trips.
    struct DownModel;

    impl LanguageModel for DownModel {
        fn name(&self) -> &str {
            "down"
        }

        fn answer(&self, _query: &Query<'_>) -> Result<Response, ModelError> {
            Err(ModelError::Unavailable)
        }
    }

    fn traffic(total_qps: f64, horizon_s: f64) -> TrafficConfig {
        TrafficConfig::mixed_fleet(0xBEEF, total_qps, horizon_s)
    }

    #[test]
    fn serving_accounts_for_every_arrival() {
        let model = SteadyModel::new(0.0);
        let models: Vec<&dyn LanguageModel> = vec![&model];
        let questions = pool(50);
        let config = ServeConfig::default();
        let report = run_serve(&models, &questions, &traffic(400.0, 2.0), &config);

        assert!(report.arrivals > 100, "only {} arrivals", report.arrivals);
        assert_eq!(report.admitted + report.shed.total(), report.arrivals);
        assert_eq!(report.completed + report.failed, report.admitted);
        assert_eq!(report.failed, 0, "healthy model never fails");
        assert_eq!(report.latencies.len() as u64, report.completed);
        assert_eq!(report.availability(), 1.0);
        assert!(report.makespan_s >= report.horizon_s * 0.5);
        assert!(report.batches > 0);
        assert!(report.mean_occupancy() >= 1.0);
        // The abusive tenant is shed by its bucket even at low load.
        assert!(report.shed.rate_limited > 0, "abusive tenant was not rate limited");
        let abusive = &report.tenants[7];
        assert!(abusive.shed.rate_limited > 0);
        // Tenant rows add up to the totals.
        assert_eq!(report.tenants.iter().map(|t| t.arrivals).sum::<u64>(), report.arrivals);
        assert_eq!(report.tenants.iter().map(|t| t.completed).sum::<u64>(), report.completed);
        // Lane rows too.
        assert_eq!(report.lanes.iter().map(|l| l.completed).sum::<u64>(), report.completed);
        assert_eq!(report.resilience().queries, report.admitted);
    }

    #[test]
    fn same_seed_same_report_different_seed_different_trace() {
        let model = SteadyModel::new(0.001);
        let models: Vec<&dyn LanguageModel> = vec![&model];
        let questions = pool(40);
        let config = ServeConfig::default();
        let a = run_serve(&models, &questions, &traffic(300.0, 1.0), &config);
        let b = run_serve(&models, &questions, &traffic(300.0, 1.0), &config);
        assert_eq!(a, b, "same inputs, byte-identical report");

        let other = TrafficConfig { seed: 0xD1FF, ..traffic(300.0, 1.0) };
        let c = run_serve(&models, &questions, &other, &config);
        assert_ne!(a.trace_digest, c.trace_digest, "seed must reach the trace");
    }

    #[test]
    fn deadline_closes_small_batches_and_cap_closes_big_ones() {
        let model = SteadyModel::new(0.0);
        let models: Vec<&dyn LanguageModel> = vec![&model];
        let questions = pool(40);
        // Sparse traffic + long deadline: batches close by deadline
        // with small occupancy.
        let sparse = TrafficConfig {
            seed: 1,
            horizon_s: 2.0,
            tenants: vec![TenantSpec::poisson("t", 50.0)],
        };
        let lazy = ServeConfig::default().with_batch_deadline_s(0.05);
        let small = run_serve(&models, &questions, &sparse, &lazy);
        // Dense traffic, same deadline: the size cap dominates.
        let dense = TrafficConfig {
            seed: 1,
            horizon_s: 2.0,
            tenants: vec![TenantSpec::poisson("t", 4000.0)],
        };
        let big = run_serve(&models, &questions, &dense, &lazy);
        assert!(
            big.mean_occupancy() > small.mean_occupancy() * 2.0,
            "dense {} vs sparse {}",
            big.mean_occupancy(),
            small.mean_occupancy()
        );
        assert_eq!(big.occupancy_max, 32, "cap-closed batches are full");
    }

    #[test]
    fn overload_sheds_and_latency_grows_with_load() {
        let model = SteadyModel::new(0.0);
        let models: Vec<&dyn LanguageModel> = vec![&model];
        let questions = pool(40);
        let config = ServeConfig::default().with_queue_capacity(64);
        let capacity = config.lane_capacity_qps();

        let light = run_serve(&models, &questions, &traffic(capacity * 0.3, 2.0), &config);
        let heavy = run_serve(&models, &questions, &traffic(capacity * 2.0, 2.0), &config);
        assert!(heavy.shed.queue_full > 0, "2x overload must overflow the queue");
        assert!(heavy.shed_rate() > light.shed_rate());

        let mean = |r: &ServeReport| {
            r.latencies.iter().sum::<f64>() / r.latencies.len().max(1) as f64
        };
        assert!(
            mean(&heavy) > mean(&light),
            "queueing delay must show up: heavy {} vs light {}",
            mean(&heavy),
            mean(&light)
        );
    }

    #[test]
    fn dead_lane_trips_the_breaker_and_sheds_overload() {
        let down = DownModel;
        let healthy = SteadyModel::new(0.0);
        let models: Vec<&dyn LanguageModel> = vec![&down, &healthy];
        let questions = pool(40);
        let config = ServeConfig::default();
        let report = run_serve(&models, &questions, &traffic(500.0, 2.0), &config);

        assert!(report.failed > 0, "the dead lane must fail requests");
        assert!(report.shed.overload > 0, "open breaker must shed queued-behind work");
        assert!(report.availability() < 1.0);
        let down_lane = &report.lanes[0];
        assert_eq!(down_lane.completed, 0);
        assert!(down_lane.resilience.fast_failed > 0, "breaker never tripped");
        let healthy_lane = &report.lanes[1];
        assert!(healthy_lane.completed > 0);
        assert_eq!(healthy_lane.failed, 0);
        // The totals come from the tenant rows; the lane rows count the
        // same outcomes on their own.
        let lane_failed: u64 = report.lanes.iter().map(|l| l.failed).sum();
        let lane_completed: u64 = report.lanes.iter().map(|l| l.completed).sum();
        assert_eq!(lane_failed, report.failed);
        assert_eq!(lane_completed + lane_failed, report.admitted);
    }

    #[test]
    fn prefetch_split_is_unobservable() {
        let model = SteadyModel::new(0.0);
        let questions = pool(8);
        let prompts: Vec<String> = questions
            .iter()
            .map(|q| render_prompt(q, PromptSetting::ZeroShot, TemplateVariant::Canonical, &[]))
            .collect();
        let queries: Vec<Query<'_>> = questions
            .iter()
            .zip(&prompts)
            .map(|(q, p)| Query::new(p, q, PromptSetting::ZeroShot))
            .collect();
        let sequential = prefetch(&model, &queries, 1);
        for workers in [2, 3, 8, 16] {
            assert_eq!(prefetch(&model, &queries, workers), sequential);
        }
    }

    #[test]
    fn prefetch_worker_panic_names_the_lane_model() {
        struct Bomb;
        impl LanguageModel for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn answer(&self, _query: &Query<'_>) -> Result<Response, ModelError> {
                panic!("synthetic prefetch failure")
            }
        }
        let models: Vec<&dyn LanguageModel> = vec![&Bomb];
        let questions = pool(40);
        // Dense traffic fills the first batch, so its prefetch splits.
        let dense = TrafficConfig {
            seed: 1,
            horizon_s: 1.0,
            tenants: vec![TenantSpec::poisson("t", 4000.0)],
        };
        let config = ServeConfig::default().with_workers(2).with_batch_deadline_s(0.05);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_serve(&models, &questions, &dense, &config)
        }));
        let payload = result.expect_err("a panicking lane must surface");
        let message = crate::grid::panic_message(payload.as_ref());
        assert!(message.contains("serve prefetch (model `bomb`) panicked"), "{message}");
        assert!(message.contains("synthetic prefetch failure"), "{message}");
    }

    #[test]
    fn config_builders_clamp() {
        let config = ServeConfig::default()
            .with_max_batch(0)
            .with_batch_deadline_s(-1.0)
            .with_queue_capacity(0)
            .with_workers(0);
        assert_eq!(config.max_batch, 1);
        assert_eq!(config.batch_deadline_s, 0.0);
        assert_eq!(config.queue_capacity, 1);
        assert_eq!(config.workers, 1);
        let free = ServeConfig { batch_overhead_s: 0.0, per_item_s: 0.0, ..config };
        assert_eq!(free.lane_capacity_qps(), f64::INFINITY);
        assert!(ServeConfig::default().lane_capacity_qps() > 0.0);
    }
}
