//! Two-stage hierarchical classification (coarse router + constrained
//! descent) — the "use the taxonomy to constrain the LLM" counterpoint
//! to the paper's free-form instance typing.
//!
//! The paper's flat baseline asks the model to produce a type label in
//! open text, so the model can (and does) hallucinate labels that exist
//! nowhere in the taxonomy. This module makes invalid labels impossible
//! *by construction*:
//!
//! 1. **Coarse routing**: an instance's name is scored against every
//!    region (node) at a configurable taxonomy level with the same
//!    trigram-Jaccard similarity ([`crate::text`]) the simulated models
//!    use as their embedding substitute. The `top_k` regions, ordered by
//!    similarity with deterministic `(name, id)` tie-breaks, become
//!    descent entry points.
//! 2. **Constrained descent**: from each candidate region, walk
//!    level-by-level asking sibling multiple-choice questions whose
//!    options are *exactly* the current node's children plus an
//!    explicit "None of the above" abstain option
//!    ([`crate::question::ABSTAIN_OPTION`]). The only way to descend is
//!    to pick a listed child, so every emitted label is a real taxonomy
//!    node; abstaining on every option window abandons the candidate
//!    and falls through to the next router candidate. Wrong-branch
//!    jumps and outright abstention are first-class
//!    [`HierOutcome`] values, not parse failures.
//!
//! [`HierMetrics`] additionally tracks what the descent *buys*: the
//! invalid-label (hallucination) rate of a free-form flat baseline run
//! on the same instances, wrong-branch deviation depth, abstain
//! calibration against router-measurable ambiguity, and prompt-token
//! cost per query versus stuffing the whole taxonomy into one prompt.
//!
//! Scoring: routing and the flat baseline's leaf shortlist share one
//! loop (`scan`): candidates are scored against every probe name at
//! once through [`ProbeTrigrams`], each probe keeping a bounded top-k
//! under the total order, and per-chunk lists merge exactly. A run
//! makes one pass over the leaves on the worker pool. Each chunk is a
//! range of node ids whose leaves it walks in order, so no list of the
//! leaves is built, and each leaf costs one walk over its name's bytes
//! for the scores plus one block of the token counter for the listing.
//! The pass yields every instance's shortlist and the whole-taxonomy
//! listing's token count (summed per name, never joined); `route` is
//! the same loop over the router regions with one probe.
//!
//! Determinism: routing is a pure function of `(taxonomy, instance)`;
//! descent question ids are pure functions of
//! `(instance index, node, option window)` so fault plans and response
//! caches key identically at any worker count; instances are processed
//! on the grid's worker pool ([`crate::grid`]: claim counter, merge in
//! index order, panics attributed to their instance), with a fresh
//! [`ResilienceSession`] per instance so no session state couples one
//! worker's instances to another's.

use std::cmp::Ordering;

use crate::domain::TaxonomyKind;
use crate::grid::{run_indexed, GridRunner};
use crate::metrics::ratio;
use crate::model::LanguageModel;
use crate::parse::ParsedAnswer;
use crate::question::{Question, QuestionBody};
use crate::resilience::ResilienceSession;
use crate::sampling::cochran_sample;
use crate::text::{listed_token_count, token_count, ProbeTrigrams, Trigrams};
use crate::workload::{Workload, WorkloadContext, WorkloadError};
use taxoglimpse_synth::instances::InstanceGenerator;
use taxoglimpse_synth::rng::StreamHasher;
use taxoglimpse_taxonomy::{NodeId, Taxonomy};

/// Options per descent question (a node's children are asked in windows
/// of this size): letters `A`–`D`, with the next letter reserved for
/// the abstain option (the parser's explicit abstain slot is `E`).
pub const MAX_DESCENT_OPTIONS: usize = 4;

/// Domain-separation tag for descent question ids.
const ID_TAG_DESCENT: u64 = 0x41E2_17A6;
/// Domain-separation tag for flat-baseline question ids.
const ID_TAG_FLAT: u64 = 0x41E2_F1A7;
/// Seed tag for the flat baseline's surface-form corruption stream.
const FLAT_CORRUPT_TAG: u64 = 0xC0_44AB7;
/// Leaf chunks per worker in the leaf pass: enough to balance uneven
/// chunks, few enough that merging the per-chunk shortlists is free.
const LEAF_CHUNKS_PER_WORKER: usize = 8;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Coarse-router configuration: which taxonomy level holds the regions
/// and how many candidates survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    level: usize,
    top_k: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { level: 1, top_k: 3 }
    }
}

impl RouterConfig {
    /// Set how many candidate regions the router keeps (clamped ≥ 1).
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k.max(1);
        self
    }

    /// The configured region level (before per-taxonomy clamping).
    pub fn level(&self) -> usize {
        self.level
    }

    /// The configured candidate count.
    pub fn top_k(&self) -> usize {
        self.top_k
    }
}

// ---------------------------------------------------------------------
// Dataset
// ---------------------------------------------------------------------

/// One instance to classify: a name and the leaf concept it truly
/// belongs under, plus a router-measurable ambiguity flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierInstance {
    /// The instance's surface name (a synthesized product for shopping
    /// taxonomies, the leaf entity itself elsewhere).
    pub name: String,
    /// The gold leaf concept.
    pub gold: NodeId,
    /// `true` when the instance's name is no more similar to its gold
    /// leaf than to some sibling of that leaf — the cases where a
    /// well-calibrated model *should* abstain more.
    pub ambiguous: bool,
}

/// The built hierarchical-classification dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierDataset {
    /// Instances in sampling order.
    pub instances: Vec<HierInstance>,
}

/// How one instance's two-stage classification ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierOutcome {
    /// Descent reached the gold leaf.
    Correct,
    /// Descent committed to a leaf other than the gold one;
    /// `deviation_level` is the first level where the predicted
    /// root-chain departs from the gold root-chain (0 = wrong root).
    WrongBranch {
        /// First level at which the predicted chain leaves the gold
        /// chain.
        deviation_level: usize,
    },
    /// Every router candidate was abandoned (the model abstained on
    /// every option window somewhere down each one).
    Abstained,
    /// A model call exhausted its resilience budget.
    Failed,
}

/// How the free-form flat baseline's emitted label scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlatOutcome {
    /// Emitted exactly the gold leaf's name.
    Correct,
    /// Emitted a real taxonomy name, but not the gold leaf.
    WrongValid,
    /// Emitted a label that exists nowhere in the taxonomy — the
    /// hallucination class the constrained descent eliminates.
    Invalid,
    /// Declined to emit a label.
    Abstained,
    /// A model call exhausted its resilience budget.
    Failed,
}

/// Everything measured per `(model, taxonomy)` hierarchical run.
///
/// All counts partition `instances`; the rate accessor divides
/// defensively so an empty run renders as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierMetrics {
    /// Instances classified.
    pub instances: usize,
    /// Descent outcomes: reached the gold leaf.
    pub hier_correct: usize,
    /// Descent outcomes: committed to a wrong leaf.
    pub hier_wrong_branch: usize,
    /// Descent outcomes: abstained everywhere.
    pub hier_abstained: usize,
    /// Descent outcomes: a model call failed permanently.
    pub hier_failed: usize,
    /// Labels emitted by descent that exist nowhere in the taxonomy.
    /// Zero by construction — recorded so reports *prove* it rather
    /// than assume it.
    pub hier_invalid: usize,
    /// Sum of wrong-branch deviation levels (for mean depth).
    pub wrong_branch_depth_sum: usize,
    /// Total sibling questions asked across all descents.
    pub hier_queries: usize,
    /// Total prompt tokens across all descent questions.
    pub hier_prompt_tokens: usize,
    /// Instances flagged ambiguous at build time.
    pub ambiguous: usize,
    /// Descent abstentions on ambiguous instances.
    pub abstain_ambiguous: usize,
    /// Descent abstentions on unambiguous instances.
    pub abstain_unambiguous: usize,
    /// Flat baseline: emitted exactly the gold name.
    pub flat_correct: usize,
    /// Flat baseline: emitted a real but wrong taxonomy name.
    pub flat_wrong_valid: usize,
    /// Flat baseline: emitted a label not in the taxonomy.
    pub flat_invalid: usize,
    /// Flat baseline: declined to answer.
    pub flat_abstained: usize,
    /// Flat baseline: model call failed permanently.
    pub flat_failed: usize,
    /// Total prompt tokens across flat-baseline questions.
    pub flat_prompt_tokens: usize,
    /// Prompt tokens the whole-taxonomy-in-prompt alternative would
    /// have cost, summed over instances.
    pub whole_taxonomy_prompt_tokens: usize,
}

impl HierMetrics {
    /// Invalid-label rate of the constrained descent (zero by
    /// construction; reported to prove it).
    pub fn hier_invalid_rate(&self) -> f64 {
        ratio(self.hier_invalid, self.instances)
    }
}

/// One `(model, taxonomy)` hierarchical-classification report.
#[derive(Debug, Clone, PartialEq)]
pub struct HierReport {
    /// The model evaluated.
    pub model: String,
    /// The taxonomy classified against.
    pub taxonomy: TaxonomyKind,
    /// Router region level actually used (after per-taxonomy clamping).
    pub router_level: usize,
    /// Router candidate count.
    pub router_top_k: usize,
    /// Options per descent question.
    pub descent_max_options: usize,
    /// The measurements.
    pub metrics: HierMetrics,
}

taxoglimpse_json::struct_json!(HierMetrics {
    instances, hier_correct, hier_wrong_branch, hier_abstained, hier_failed, hier_invalid,
    wrong_branch_depth_sum, hier_queries, hier_prompt_tokens, ambiguous, abstain_ambiguous,
    abstain_unambiguous, flat_correct, flat_wrong_valid, flat_invalid, flat_abstained, flat_failed,
    flat_prompt_tokens, whole_taxonomy_prompt_tokens,
});

taxoglimpse_json::struct_json!(HierReport {
    model, taxonomy, router_level, router_top_k, descent_max_options, metrics,
});

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

/// The two-stage hierarchical classification workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierWorkload {
    router: RouterConfig,
    sample_cap: Option<usize>,
}

impl HierWorkload {
    /// The workload with the default router configuration.
    pub fn new() -> Self {
        HierWorkload::default()
    }

    /// Override the router configuration.
    pub fn with_router(mut self, router: RouterConfig) -> Self {
        self.router = router;
        self
    }

    /// Cap the number of sampled instances (for quick runs).
    pub fn with_sample_cap(mut self, cap: Option<usize>) -> Self {
        self.sample_cap = cap;
        self
    }

    /// Score `name` against every region at the (clamped) router level
    /// and return the `top_k` candidates, most similar first, ties
    /// broken by region name then id so the ranking is total.
    pub fn route(&self, t: &Taxonomy, name: &str) -> Vec<NodeId> {
        let level = self.router.level.min(t.num_levels().saturating_sub(1));
        let probe = ProbeTrigrams::new([name]);
        let best = scan(t, t.nodes_at_level(level).iter().copied(), &probe, self.router.top_k);
        merge(t, vec![best], 1, self.router.top_k).swap_remove(0)
    }
}

/// The shortlist order: most similar first, ties broken by node name
/// then id, so the ranking is total (and so independent of the
/// selection algorithm and of how candidates are chunked).
fn rank(t: &Taxonomy) -> impl Fn(&(f64, NodeId), &(f64, NodeId)) -> Ordering + '_ {
    |a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| t.name(a.1).cmp(t.name(b.1)))
            .then_with(|| a.1.raw().cmp(&b.1.raw()))
    }
}

/// The `k` best of `scored` under [`rank`].
fn top_k(t: &Taxonomy, mut scored: Vec<(f64, NodeId)>, k: usize) -> Vec<NodeId> {
    let order = rank(t);
    if k < scored.len() {
        scored.select_nth_unstable_by(k, &order);
        scored.truncate(k);
    }
    scored.sort_unstable_by(&order);
    scored.into_iter().map(|(_, n)| n).collect()
}

/// Insert `entry` into `best`, the sorted `k` best so far under
/// [`rank`], if it ranks among them.
fn offer(t: &Taxonomy, best: &mut Vec<(f64, NodeId)>, k: usize, entry: (f64, NodeId)) {
    let order = rank(t);
    if best.len() == k {
        match best.last() {
            Some(worst) if order(&entry, worst).is_lt() => best.pop(),
            _ => return,
        };
    }
    let at = best.partition_point(|e| order(e, &entry).is_lt());
    best.insert(at, entry);
}

/// One slice of candidates' bounded shortlists.
struct Best {
    /// Per probe, its `k` best candidates of nonzero similarity.
    scored: Vec<Vec<(f64, NodeId)>>,
    /// The `k` first candidates by `(name, id)`: what every probe
    /// ranks next after its nonzero candidates.
    zero: Vec<(f64, NodeId)>,
}

/// Score every candidate against every probe in one walk over the
/// candidates, keeping each probe's `k` best.
fn scan(
    t: &Taxonomy,
    candidates: impl IntoIterator<Item = NodeId>,
    probes: &ProbeTrigrams,
    k: usize,
) -> Best {
    let mut best = Best {
        scored: vec![Vec::new(); probes.len()],
        zero: Vec::with_capacity(k),
    };
    let mut scorer = probes.scorer();
    // The first byte of the zero list's worst name. Once the list is
    // full, a name whose first byte sorts after it ranks after every
    // entry, so only the others are offered (an empty name's `None`
    // sorts first).
    let mut zero_first = None;
    for c in candidates {
        let name = t.name(c);
        scorer.score(name, |p, score| offer(t, &mut best.scored[p], k, (score, c)));
        if best.zero.len() < k || name.as_bytes().first().copied() <= zero_first {
            offer(t, &mut best.zero, k, (0.0, c));
            zero_first = best.zero.last().and_then(|&(_, w)| t.name(w).bytes().next());
        }
    }
    best
}

/// Merge the [`scan`]s of disjoint candidate slices into each of the
/// `probes` probes' `k` best, equal to [`top_k`] over every candidate's
/// exact score. A candidate missing from a probe's nonzero lists scores
/// zero, unless its slice's list was full; then the probe has `k`
/// nonzero candidates, which all outrank it.
fn merge(t: &Taxonomy, parts: Vec<Best>, probes: usize, k: usize) -> Vec<Vec<NodeId>> {
    let zero = top_k(t, parts.iter().flat_map(|b| b.zero.iter().copied()).collect(), k);
    (0..probes)
        .map(|p| {
            let mut scored: Vec<(f64, NodeId)> =
                parts.iter().flat_map(|b| b.scored[p].iter().copied()).collect();
            let fill: Vec<(f64, NodeId)> = zero
                .iter()
                .filter(|&&z| scored.iter().all(|&(_, n)| n != z))
                .map(|&z| (0.0, z))
                .collect();
            scored.extend(fill);
            top_k(t, scored, k)
        })
        .collect()
}

/// One pass over `t`'s leaves, split into chunks on `threads` workers:
/// each probe's `k` most similar leaves, and the token count of the
/// `", "`-joined leaf listing. Each chunk is a range of node ids whose
/// leaves it walks in id order, so no list of the leaves is built.
fn leaf_pass(
    t: &Taxonomy,
    probes: &ProbeTrigrams,
    k: usize,
    threads: usize,
) -> (Vec<Vec<NodeId>>, usize) {
    let chunk = t.len().div_ceil(threads * LEAF_CHUNKS_PER_WORKER).max(1);
    let work = |c: usize| {
        let (mut listed, mut last) = (0, None);
        let leaves = t.ids().skip(c * chunk).take(chunk).filter(|&id| t.is_leaf(id));
        let best = scan(
            t,
            leaves.inspect(|&leaf| {
                listed += listed_token_count(t.name(leaf));
                last = Some(leaf);
            }),
            probes,
            k,
        );
        (best, listed, last)
    };
    let parts = run_indexed(threads, t.len().div_ceil(chunk), work, |failed| {
        format!("hier leaf pass panicked: {}", failed[0].1)
    });
    let (mut best, mut listed, mut last) = (Vec::with_capacity(parts.len()), 0, None);
    for (part, tokens, part_last) in parts {
        best.push(part);
        listed += tokens;
        last = part_last.or(last);
    }
    // The last leaf is not followed by a comma.
    if let Some(last) = last {
        listed = listed - listed_token_count(t.name(last)) + token_count(t.name(last));
    }
    (merge(t, best, probes.len(), k), listed)
}

/// Deterministic question id: a hash of `(tag, instance, node, window)`
/// with the top bit set to keep hier ids disjoint from dataset id
/// ranges. Stable across worker counts, so fault plans and response
/// caches key identically however instances are scheduled.
fn question_id(tag: u64, instance_idx: usize, node: u64, window: usize) -> u64 {
    let mut h = StreamHasher::new(tag);
    h.write_decimal(instance_idx as u64);
    h.write_str("|");
    h.write_decimal(node);
    h.write_str("|");
    h.write_decimal(window as u64);
    h.finish() | (1 << 63)
}

/// Build the sibling MCQ for one option window during descent.
fn sibling_question(
    kind: TaxonomyKind,
    t: &Taxonomy,
    instance_idx: usize,
    instance: &HierInstance,
    node: NodeId,
    window_idx: usize,
    window: &[NodeId],
) -> Question {
    let options: Vec<String> = window.iter().map(|&c| t.name(c).to_owned()).collect();
    let correct = window
        .iter()
        .position(|&c| c == instance.gold || t.is_ancestor(c, instance.gold))
        .map(|i| i as u8);
    let options_level = t.level(node) + 1;
    Question {
        id: question_id(ID_TAG_DESCENT, instance_idx, u64::from(node.raw()), window_idx),
        taxonomy: kind,
        child: instance.name.clone(),
        child_level: options_level + 1,
        parent_level: options_level,
        true_parent: t.name(instance.gold).to_owned(),
        instance_typing: true,
        body: QuestionBody::Sibling { options, correct },
        surface_memo: Default::default(),
    }
}

/// Per-instance tally merged into [`HierMetrics`] in instance order.
#[derive(Debug)]
struct InstanceResult {
    outcome: HierOutcome,
    queries: usize,
    prompt_tokens: usize,
    flat: FlatOutcome,
    flat_tokens: usize,
}

/// Shared read-only state for one `run` call, built by one
/// [`leaf_pass`]: nothing in it is kept per leaf.
struct RunState<'r> {
    t: &'r Taxonomy,
    kind: TaxonomyKind,
    /// Asks every descent and flat-baseline question.
    runner: &'r GridRunner,
    /// Per instance, its flat-baseline shortlist: the most similar
    /// leaves, from the run's one leaf pass.
    shortlists: Vec<Vec<NodeId>>,
    /// Token cost of the instruction + full leaf listing the
    /// whole-taxonomy-in-prompt alternative pays before the instance
    /// name is even added.
    whole_taxonomy_base_tokens: usize,
}

impl HierWorkload {
    /// Classify one instance by router + constrained descent.
    fn classify(
        &self,
        state: &RunState<'_>,
        session: &mut ResilienceSession,
        model: &dyn LanguageModel,
        instance_idx: usize,
        instance: &HierInstance,
        result: &mut InstanceResult,
    ) -> HierOutcome {
        let t = state.t;
        for candidate in self.route(t, &instance.name) {
            let mut node = candidate;
            'descend: loop {
                if t.is_leaf(node) {
                    // The only way to arrive here is through picked
                    // options, all of which are taxonomy nodes: the
                    // emitted label is valid by construction.
                    if node == instance.gold {
                        return HierOutcome::Correct;
                    }
                    let predicted = t.chain_from_root(node);
                    let gold = t.chain_from_root(instance.gold);
                    let deviation_level = predicted
                        .iter()
                        .zip(&gold)
                        .position(|(p, g)| p != g)
                        .unwrap_or_else(|| predicted.len().min(gold.len()));
                    return HierOutcome::WrongBranch { deviation_level };
                }
                let children = t.children(node);
                for (window_idx, window) in
                    children.chunks(MAX_DESCENT_OPTIONS).enumerate()
                {
                    let question = sibling_question(
                        state.kind, t, instance_idx, instance, node, window_idx, window,
                    );
                    let answer = state.runner.ask_in(session, model, &question, &[]);
                    result.queries += 1;
                    result.prompt_tokens += token_count(&answer.prompt);
                    if answer.response.is_err() {
                        return HierOutcome::Failed;
                    }
                    match answer.parsed {
                        ParsedAnswer::Option(i) if (i as usize) < window.len() => {
                            node = window[i as usize];
                            continue 'descend;
                        }
                        // Abstain slot, explicit abstention, or
                        // unusable text: never a label — try the next
                        // option window (validity guarantee).
                        ParsedAnswer::Option(_)
                        | ParsedAnswer::IDontKnow
                        | ParsedAnswer::Unparsed
                        | ParsedAnswer::Yes
                        | ParsedAnswer::No => {}
                    }
                }
                // Abstained on every window: abandon this candidate.
                break;
            }
        }
        HierOutcome::Abstained
    }

    /// Run the free-form flat baseline on one instance: a single MCQ
    /// over the most-similar leaves whose *chosen* option is then
    /// re-emitted as free text through a deterministic corruption
    /// channel (free-form generation does not copy labels verbatim) and
    /// checked against the taxonomy's real names.
    fn flat_baseline(
        &self,
        state: &RunState<'_>,
        session: &mut ResilienceSession,
        model: &dyn LanguageModel,
        instance_idx: usize,
        instance: &HierInstance,
        result: &mut InstanceResult,
    ) -> FlatOutcome {
        let t = state.t;
        let shortlist = &state.shortlists[instance_idx];

        let options: Vec<String> = shortlist.iter().map(|&l| t.name(l).to_owned()).collect();
        let correct = shortlist.iter().position(|&l| l == instance.gold).map(|i| i as u8);
        let gold_level = t.level(instance.gold);
        let question = Question {
            id: question_id(ID_TAG_FLAT, instance_idx, u64::from(instance.gold.raw()), 0),
            taxonomy: state.kind,
            child: instance.name.clone(),
            child_level: gold_level + 1,
            parent_level: gold_level,
            true_parent: t.name(instance.gold).to_owned(),
            instance_typing: true,
            body: QuestionBody::Sibling { options: options.clone(), correct },
            surface_memo: Default::default(),
        };
        let answer = state.runner.ask_in(session, model, &question, &[]);
        result.flat_tokens += token_count(&answer.prompt);
        if answer.response.is_err() {
            return FlatOutcome::Failed;
        }
        let chosen = match answer.parsed {
            ParsedAnswer::Option(i) if (i as usize) < options.len() => i as usize,
            ParsedAnswer::Option(_) | ParsedAnswer::IDontKnow => return FlatOutcome::Abstained,
            // Free-form text that maps to no label at all.
            ParsedAnswer::Unparsed | ParsedAnswer::Yes | ParsedAnswer::No => {
                return FlatOutcome::Invalid
            }
        };

        // Free-form emission: the model writes the label out instead of
        // pointing at it, so the surface form drifts — confidently
        // correct picks drift least.
        let was_correct = correct == Some(chosen as u8);
        let mut h = StreamHasher::new(FLAT_CORRUPT_TAG);
        h.write_decimal(instance_idx as u64);
        h.write_str("|");
        h.write_str(&options[chosen]);
        let draw = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
        let exact_prob = if was_correct { 0.97 } else { 0.75 };
        let emitted = if draw < exact_prob {
            // A shortlist name verbatim: valid by construction.
            options[chosen].clone()
        } else {
            // Blend the chosen label with a neighboring shortlist
            // label — the classic free-form hallucination shape —
            // valid only if it happens to spell some node's name.
            let other = &options[(chosen + 1) % options.len()];
            let head = other.split_whitespace().next().unwrap_or(other);
            let blended = format!("{head} {}", options[chosen]);
            if !t.ids().any(|id| t.name(id).eq_ignore_ascii_case(&blended)) {
                return FlatOutcome::Invalid;
            }
            blended
        };
        if emitted.eq_ignore_ascii_case(t.name(instance.gold)) {
            FlatOutcome::Correct
        } else {
            FlatOutcome::WrongValid
        }
    }

    /// Process one instance end to end (descent + flat baseline), with
    /// a fresh resilience session so no retry/breaker state couples
    /// instances across workers.
    fn process_instance(
        &self,
        state: &RunState<'_>,
        model: &dyn LanguageModel,
        instance_idx: usize,
        instance: &HierInstance,
    ) -> InstanceResult {
        let mut result = InstanceResult {
            outcome: HierOutcome::Abstained,
            queries: 0,
            prompt_tokens: 0,
            flat: FlatOutcome::Abstained,
            flat_tokens: 0,
        };
        let mut session = ResilienceSession::new(state.runner.resilience());
        result.outcome =
            self.classify(state, &mut session, model, instance_idx, instance, &mut result);
        result.flat =
            self.flat_baseline(state, &mut session, model, instance_idx, instance, &mut result);
        result
    }
}

impl Workload for HierWorkload {
    type Data = HierDataset;
    type Report = HierReport;

    fn name(&self) -> &'static str {
        "hier-classification"
    }

    fn build(&self, cx: &WorkloadContext<'_>) -> Result<HierDataset, WorkloadError> {
        let t = cx.taxonomy;
        if t.num_levels() < 2 {
            return Err(WorkloadError::Unsupported(format!(
                "{} is too shallow for hierarchical descent",
                cx.kind
            )));
        }
        let mut leaves = t.leaves();
        let mut rng = taxoglimpse_synth::rng::fork(
            cx.seed ^ (cx.kind as u64) << 16,
            "hier-instances",
            0,
        );
        cochran_sample(&mut leaves, &mut rng, self.sample_cap);

        // Shopping taxonomies synthesize product instances; everywhere
        // else the leaf entity itself is the instance being placed.
        let named: Vec<(String, NodeId)> = match InstanceGenerator::new(cx.kind, cx.seed) {
            Some(generator) if generator.synthesizes() => generator
                .instances_for(t, &leaves, 1)
                .into_iter()
                .map(|i| (i.name, i.leaf))
                .collect(),
            Some(_) | None => {
                leaves.into_iter().map(|l| (t.name(l).to_owned(), l)).collect()
            }
        };

        let instances = named
            .into_iter()
            .map(|(name, gold)| {
                let probe = Trigrams::new(&name);
                let gold_sim = probe.jaccard(&Trigrams::new(t.name(gold)));
                let best_sibling = t
                    .siblings(gold)
                    .into_iter()
                    .map(|s| probe.jaccard(&Trigrams::new(t.name(s))))
                    .fold(f64::NEG_INFINITY, f64::max);
                // No siblings ⇒ nothing to confuse the instance with.
                let ambiguous = best_sibling.is_finite() && gold_sim <= best_sibling;
                HierInstance { name, gold, ambiguous }
            })
            .collect();
        Ok(HierDataset { instances })
    }

    fn run(
        &self,
        runner: &GridRunner,
        model: &dyn LanguageModel,
        cx: &WorkloadContext<'_>,
        data: &HierDataset,
    ) -> HierReport {
        let t = cx.taxonomy;
        let probes = ProbeTrigrams::new(data.instances.iter().map(|i| i.name.as_str()));
        let (shortlists, listing_tokens) =
            leaf_pass(t, &probes, MAX_DESCENT_OPTIONS, runner.threads());
        let state = RunState {
            t,
            kind: cx.kind,
            runner,
            shortlists,
            whole_taxonomy_base_tokens: token_count(
                "Classify the instance into exactly one of the following categories:",
            ) + listing_tokens,
        };

        model.reset();
        let work = |i: usize| self.process_instance(&state, model, i, &data.instances[i]);
        let outcomes = run_indexed(runner.threads(), data.instances.len(), work, |failed| {
            let failures: Vec<String> =
                failed.iter().map(|(i, reason)| format!("instance {i}: {reason}")).collect();
            format!(
                "{} hier instance(s) panicked (model `{}`, taxonomy `{}`): {}",
                failures.len(),
                model.name(),
                cx.kind,
                failures.join("; ")
            )
        });

        let mut metrics = HierMetrics::default();
        for (instance, r) in data.instances.iter().zip(outcomes) {
            metrics.instances += 1;
            if instance.ambiguous {
                metrics.ambiguous += 1;
            }
            match r.outcome {
                HierOutcome::Correct => metrics.hier_correct += 1,
                HierOutcome::WrongBranch { deviation_level } => {
                    metrics.hier_wrong_branch += 1;
                    metrics.wrong_branch_depth_sum += deviation_level;
                }
                HierOutcome::Abstained => {
                    metrics.hier_abstained += 1;
                    if instance.ambiguous {
                        metrics.abstain_ambiguous += 1;
                    } else {
                        metrics.abstain_unambiguous += 1;
                    }
                }
                HierOutcome::Failed => metrics.hier_failed += 1,
            }
            metrics.hier_queries += r.queries;
            metrics.hier_prompt_tokens += r.prompt_tokens;
            match r.flat {
                FlatOutcome::Correct => metrics.flat_correct += 1,
                FlatOutcome::WrongValid => metrics.flat_wrong_valid += 1,
                FlatOutcome::Invalid => metrics.flat_invalid += 1,
                FlatOutcome::Abstained => metrics.flat_abstained += 1,
                FlatOutcome::Failed => metrics.flat_failed += 1,
            }
            metrics.flat_prompt_tokens += r.flat_tokens;
            metrics.whole_taxonomy_prompt_tokens +=
                state.whole_taxonomy_base_tokens + token_count(&instance.name);
        }

        HierReport {
            model: model.name().to_owned(),
            taxonomy: cx.kind,
            router_level: self.router.level.min(t.num_levels().saturating_sub(1)),
            router_top_k: self.router.top_k,
            descent_max_options: MAX_DESCENT_OPTIONS,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelError, Query, Response};
    use crate::prompts::render_gold;
    use taxoglimpse_json::{FromJson, ToJson};
    use taxoglimpse_synth::{generate, GenOptions};

    /// Answers every sibling MCQ from the structured gold — the
    /// best-case model for descent.
    struct OracleModel;

    impl LanguageModel for OracleModel {
        fn name(&self) -> &str {
            "oracle"
        }
        fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
            Ok(Response::new(render_gold(query.question.gold())))
        }
    }

    fn workload() -> HierWorkload {
        HierWorkload::new()
            .with_router(RouterConfig::default().with_top_k(4))
            .with_sample_cap(Some(20))
    }

    fn context(t: &Taxonomy, kind: TaxonomyKind) -> WorkloadContext<'_> {
        WorkloadContext::new(t, kind, 33)
    }

    #[test]
    fn configs_clamp() {
        assert_eq!(RouterConfig::default().with_top_k(0).top_k(), 1);
    }

    #[test]
    fn router_is_deterministic_and_ranked() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 7, scale: 0.2 }).unwrap();
        let w = workload();
        let leaf = t.leaves()[0];
        let name = t.name(leaf).to_owned();
        let a = w.route(&t, &name);
        let b = w.route(&t, &name);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= 4);
        // The gold region (the level-1 ancestor) should rank among the
        // candidates when the instance IS the leaf name... not always
        // by similarity, but the list itself must be valid level nodes.
        for &n in &a {
            assert_eq!(t.level(n), 1.min(t.num_levels() - 1));
        }
    }

    #[test]
    fn oracle_descends_to_gold_with_zero_invalid_labels() {
        let t = generate(TaxonomyKind::GeoNames, GenOptions { seed: 5, scale: 0.1 }).unwrap();
        let cx = context(&t, TaxonomyKind::GeoNames);
        // Concept self-placement: route on the leaf's own name with a
        // candidate set wide enough to always include the gold region.
        let w = HierWorkload::new()
            .with_router(RouterConfig::default().with_top_k(t.nodes_at_level(1).len().max(1)))
            .with_sample_cap(Some(15));
        let runner = GridRunner::builder().with_threads(2).build();
        let report = w.build_and_run(&runner, &OracleModel, &cx).unwrap();
        assert_eq!(report.metrics.hier_invalid, 0);
        assert_eq!(report.metrics.hier_failed, 0);
        assert_eq!(
            report.metrics.hier_correct,
            report.metrics.instances,
            "oracle must reach every gold leaf: {:?}",
            report.metrics
        );
    }

    #[test]
    fn report_bytes_identical_across_worker_counts() {
        let t = generate(TaxonomyKind::Amazon, GenOptions { seed: 11, scale: 0.1 }).unwrap();
        let cx = context(&t, TaxonomyKind::Amazon);
        let w = workload();
        let json_at = |threads: usize| {
            let runner = GridRunner::builder().with_threads(threads).build();
            let report = w.build_and_run(&runner, &OracleModel, &cx).unwrap();
            taxoglimpse_json::to_string(&report.to_json()).unwrap()
        };
        let one = json_at(1);
        assert_eq!(one, json_at(3));
        assert_eq!(one, json_at(8));
    }

    #[test]
    fn report_json_round_trips() {
        let t = generate(TaxonomyKind::Google, GenOptions { seed: 3, scale: 0.1 }).unwrap();
        let cx = context(&t, TaxonomyKind::Google);
        let runner = GridRunner::builder().with_threads(2).build();
        let report = workload().build_and_run(&runner, &OracleModel, &cx).unwrap();
        let json = taxoglimpse_json::to_string(&report.to_json()).unwrap();
        let back = HierReport::from_json(&taxoglimpse_json::from_str_value(&json).unwrap())
            .unwrap();
        assert_eq!(back, report);
    }

    /// Answers like the oracle, but panics on every query about the
    /// instance with the given name.
    struct PanicsOnInstance(String);

    impl LanguageModel for PanicsOnInstance {
        fn name(&self) -> &str {
            "fragile"
        }
        fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
            assert!(query.question.child != self.0, "synthetic instance failure");
            OracleModel.answer(query)
        }
    }

    #[test]
    fn instance_panic_names_model_and_instance() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 5, scale: 0.2 }).unwrap();
        let cx = context(&t, TaxonomyKind::Ebay);
        let w = workload();
        let data = w.build(&cx).unwrap();
        let target = data.instances.len() - 1;
        let model = PanicsOnInstance(data.instances[target].name.clone());
        let hits = data.instances.iter().filter(|x| x.name == model.0).count();
        let runner = GridRunner::builder().with_threads(2).build();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run(&runner, &model, &cx, &data)
        }));
        let message = crate::grid::panic_message(result.expect_err("the run must fail").as_ref());
        assert!(message.contains(&format!("{hits} hier instance(s) panicked")), "{message}");
        assert!(message.contains("model `fragile`"), "{message}");
        assert!(
            message.contains(&format!("instance {target}: synthetic instance failure")),
            "{message}"
        );
    }

    /// A forest of one-node trees: every name is a leaf, in order.
    fn leaves_named<S: AsRef<str>>(names: &[S]) -> Taxonomy {
        let mut b = taxoglimpse_taxonomy::TaxonomyBuilder::new("leaves");
        for name in names {
            b.add_root(name.as_ref());
        }
        b.build().unwrap()
    }

    #[test]
    fn leaf_pass_shortlists_equal_brute_force_top_k() {
        use crate::text::tests::{adversarial_probes, ADVERSARIAL};
        // Every adversarial name twice (duplicate names under different
        // ids), so ties fall through to the id.
        let names: Vec<&str> = ADVERSARIAL.iter().chain(ADVERSARIAL.iter()).copied().collect();
        let t = leaves_named(&names);
        let leaves = t.leaves();
        for n in [0, 1, 64, 65, 130] {
            let probes = adversarial_probes(n);
            let index = ProbeTrigrams::new(probes.iter().map(String::as_str));
            for k in [0, 1, 4, leaves.len() + 3] {
                let want: Vec<Vec<NodeId>> = probes
                    .iter()
                    .map(|p| {
                        let probe = Trigrams::new(p);
                        let scored = leaves
                            .iter()
                            .map(|&l| (probe.jaccard(&Trigrams::new(t.name(l))), l))
                            .collect();
                        top_k(&t, scored, k)
                    })
                    .collect();
                for threads in [1, 2, 8] {
                    let (got, _) = leaf_pass(&t, &index, k, threads);
                    assert_eq!(got, want, "{n} probes, k {k}, {threads} workers");
                }
            }
        }
        // A probe sharing no trigram with any leaf ranks them all zero:
        // the shortlist is the first leaves by (name, id).
        let (got, _) = leaf_pass(&t, &ProbeTrigrams::new(["qqzzqq"]), 3, 2);
        assert_eq!(got, [vec![leaves[0], leaves[30], leaves[2]]]);
    }

    #[test]
    fn route_equals_brute_force_top_k() {
        let t = generate(TaxonomyKind::Amazon, GenOptions { seed: 9, scale: 0.1 }).unwrap();
        let regions = t.nodes_at_level(1);
        for top in [1, 3, regions.len() + 2] {
            let w = HierWorkload::new().with_router(RouterConfig::default().with_top_k(top));
            for id in t.ids().step_by(37) {
                let probe = Trigrams::new(t.name(id));
                let scored = regions
                    .iter()
                    .map(|&r| (probe.jaccard(&Trigrams::new(t.name(r))), r))
                    .collect();
                assert_eq!(w.route(&t, t.name(id)), top_k(&t, scored, top));
            }
            assert_eq!(w.route(&t, "qqzzqq").len(), top.min(regions.len()));
        }
    }

    #[test]
    fn listing_tokens_sum_per_name() {
        let lists: [&[&str]; 7] = [
            &[],
            &["Books"],
            &["dots.....", "Books"],
            &["dots......", "x !?!?!?", "x !?!?!", "tail......"],
            &["trailing ", "", "  ", "", "end "],
            &["naïve —", "語言……", "Sinō-Tibetan 語言", "x — y"],
            &crate::text::tests::ADVERSARIAL,
        ];
        for names in lists {
            let t = leaves_named(names);
            for threads in [1, 2, 8] {
                let (_, listed) = leaf_pass(&t, &ProbeTrigrams::new([]), 4, threads);
                let want = token_count(&crate::text::tests::joined(names));
                assert_eq!(listed, want, "{names:?}, {threads} workers");
            }
        }
    }

    #[test]
    fn question_ids_are_stable_and_tagged() {
        let a = question_id(ID_TAG_DESCENT, 3, 17, 2);
        assert_eq!(a, question_id(ID_TAG_DESCENT, 3, 17, 2));
        assert_ne!(a, question_id(ID_TAG_FLAT, 3, 17, 2));
        assert_ne!(a, question_id(ID_TAG_DESCENT, 3, 17, 3));
        assert!(a & (1 << 63) != 0);
    }
}
