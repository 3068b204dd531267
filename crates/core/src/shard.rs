//! Sharded scale-out: one logical benchmark over partitioned work.
//!
//! The grid runner parallelizes *within* one process-wide question
//! list; this module partitions the work itself across shard workers
//! behind a deterministic router, at two levels:
//!
//! * **Grid-level** ([`run_grid_sharded`]): the (model × taxonomy) grid
//!   is split into shards, each owning a disjoint set of cells with its
//!   own [`crate::grid::GridRunner`] (labelled via
//!   `GridRunnerBuilder::with_shard_id` so panics stay attributable),
//!   its own response cache and its own per-chunk circuit breakers.
//!   A cell's shard is a pure function of `(model name, taxonomy)`
//!   content, so the assignment is identical on every machine and run.
//! * **Taxonomy-level** ([`run_sharded`]): one big dataset (NCBI/ICD
//!   scale) is split into content-keyed subtree slots
//!   ([`SubtreePartition`]), each shard evaluates the slots it owns,
//!   and the per-shard reports merge back (in shard-index order, slot
//!   ascending within each shard) into one logical report.
//!
//! # The determinism argument
//!
//! Merged reports must be **byte-identical across shard counts
//! {1, 2, 8}** — the proof obligation the grid runner already meets
//! across worker counts, one level up. The construction:
//!
//! 1. Work is keyed to a **fixed pool of [`NUM_SLOTS`] virtual slots**,
//!    never directly to shards. Slot membership is derived from content
//!    (taxonomy subtree names, or `(model, taxonomy)` identity for grid
//!    cells) — never from thread identity, timing, or the shard count.
//! 2. Shard `s` of `S` owns exactly the slots `{p : p mod S == s}`.
//!    Changing `S` regroups slots across workers but cannot move a
//!    question between slots.
//! 3. Every `(slot, level)` run is its own evaluation unit with a
//!    *fresh* resilience session ([`Evaluator::run_questions`]), so
//!    retry/backoff/breaker state — and therefore every attempt number
//!    a fault stream sees — depends only on the slot's own question
//!    sequence. Fault decisions themselves are pure functions of
//!    `(plan, model, taxonomy, question id, attempt)`, and response
//!    caches are proven byte-transparent, so per-shard caches with
//!    different hit patterns still cannot perturb outcome bytes.
//! 4. Metrics are additive counters summed per level in slot order;
//!    per-slot bytes are shard-count-invariant by (1)–(3), hence so is
//!    any ordered sum over them.
//!
//! `tests/shard.rs` proves the property across shard counts × worker
//! counts × cache on/off × a 20% fault plan; `tests/pinned_digests.rs`
//! pins the sharded grid and the NCBI/ICD-10-CM merged digests.

use crate::dataset::{Dataset, LevelSlice};
use crate::domain::TaxonomyKind;
use crate::eval::{EvalReport, Evaluator, LevelMetrics};
use crate::grid::{GridCell, GridRunnerBuilder};
use crate::metrics::Metrics;
use crate::model::LanguageModel;
use std::collections::BTreeMap;
use taxoglimpse_synth::rng::hash_str;
use taxoglimpse_taxonomy::partition::SubtreePartition;
use taxoglimpse_taxonomy::Taxonomy;

/// The fixed number of virtual slots work is partitioned into. Shards
/// own slots, never raw questions or cells — this indirection is what
/// keeps partition membership independent of the shard count (any
/// count up to `NUM_SLOTS` divides the pool without re-keying it).
pub const NUM_SLOTS: usize = 64;

/// Seed for hashing a grid cell's `(model name, taxonomy)` identity
/// into a slot.
const CELL_SLOT_SEED: u64 = 0x5AAD_CE11_0000_0001;

/// Seed for routing a question whose child name has no node at its
/// level in the routing taxonomy (e.g. instance names).
const NAME_SLOT_SEED: u64 = 0x5AAD_CE11_0000_0002;

/// Routes slots (and through them, cells and subtrees) to shards.
///
/// The router is intentionally trivial — `slot mod num_shards` — so
/// that the *entire* placement policy lives in the content-keyed
/// slot assignment and changing the shard count can only regroup
/// slots, never re-key them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    num_shards: usize,
}

impl ShardRouter {
    /// A router over `num_shards` shards (clamped to ≥ 1).
    pub fn new(num_shards: usize) -> Self {
        ShardRouter { num_shards: num_shards.max(1) }
    }

    /// Number of shards routed over.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard owning `slot`.
    pub fn shard_of_slot(&self, slot: usize) -> usize {
        slot % self.num_shards
    }

    /// Whether `shard` owns `slot`.
    pub fn owns(&self, shard: usize, slot: usize) -> bool {
        self.shard_of_slot(slot) == shard
    }

    /// The slot of a grid cell, keyed purely by `(model name,
    /// taxonomy)` content.
    pub fn cell_slot(model_name: &str, taxonomy: TaxonomyKind) -> usize {
        let mut key = String::with_capacity(model_name.len() + 16);
        key.push_str(model_name);
        key.push('\u{1f}');
        key.push_str(taxonomy.label());
        (hash_str(CELL_SLOT_SEED, &key) % NUM_SLOTS as u64) as usize
    }

    /// The shard owning a grid cell.
    pub fn shard_of_cell(&self, model_name: &str, taxonomy: TaxonomyKind) -> usize {
        self.shard_of_slot(Self::cell_slot(model_name, taxonomy))
    }
}

/// One dataset split into [`NUM_SLOTS`] per-slot sub-datasets along a
/// content-keyed [`SubtreePartition`].
///
/// Every slot dataset keeps the *full* per-level structure of the
/// source (same levels, same exemplar pools) so rendered prompts are
/// byte-identical to the unsharded run; only the evaluation questions
/// are split. Empty slots keep empty levels — structure, not content,
/// is what must stay uniform.
#[derive(Debug, Clone)]
pub struct ShardedDataset {
    slots: Vec<Dataset>,
    questions: usize,
}

impl ShardedDataset {
    /// Split `dataset` (built over `taxonomy`) along `partition`.
    ///
    /// Questions are routed by their child entity: a question lands in
    /// the slot of the taxonomy node carrying its child's name at its
    /// child level (first node in structural order when a name repeats
    /// at a level — a deterministic, content-derived tie-break).
    /// Child names with no node at that level (instance-typing
    /// questions probe instances, not nodes) fall back to a pure
    /// name-hash slot.
    pub fn partition(
        dataset: &Dataset,
        taxonomy: &Taxonomy,
        partition: &SubtreePartition,
    ) -> ShardedDataset {
        let num_slots = partition.num_slots();
        // Name → slot, per level, resolved first-in-structural-order.
        let mut name_slot: BTreeMap<(usize, &str), usize> = BTreeMap::new();
        for level in 0..taxonomy.num_levels() {
            for &node in taxonomy.nodes_at_level(level) {
                name_slot.entry((level, taxonomy.name(node))).or_insert(partition.slot_of(node));
            }
        }

        let mut slots: Vec<Dataset> = (0..num_slots)
            .map(|_| Dataset {
                taxonomy: dataset.taxonomy,
                flavor: dataset.flavor,
                levels: dataset
                    .levels
                    .iter()
                    .map(|slice| LevelSlice {
                        child_level: slice.child_level,
                        questions: Vec::new(),
                        exemplars: slice.exemplars.clone(),
                    })
                    .collect(),
            })
            .collect();

        let mut questions = 0usize;
        for (li, slice) in dataset.levels.iter().enumerate() {
            for question in &slice.questions {
                let slot = match name_slot.get(&(question.child_level, question.child.as_str())) {
                    Some(&slot) => slot,
                    None => (hash_str(NAME_SLOT_SEED, &question.child) % num_slots as u64) as usize,
                };
                slots[slot].levels[li].questions.push(question.clone());
                questions += 1;
            }
        }
        ShardedDataset { slots, questions }
    }

    /// Number of slots (the partition's, typically [`NUM_SLOTS`]).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The sub-dataset owned by `slot`.
    pub fn slot(&self, slot: usize) -> &Dataset {
        &self.slots[slot]
    }

    /// Total evaluation questions across all slots (equals the source
    /// dataset's count — partitioning never drops a question).
    pub fn len(&self) -> usize {
        self.questions
    }

    /// Whether the partitioned dataset holds no questions.
    pub fn is_empty(&self) -> bool {
        self.questions == 0
    }

    /// Number of slots holding at least one question.
    pub fn occupied_slots(&self) -> usize {
        self.slots.iter().filter(|d| !d.is_empty()).count()
    }
}

/// One shard's share of a taxonomy-level sharded run.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The shard index (0-based, dense).
    pub shard: usize,
    /// The slots this shard owned (ascending).
    pub slots: Vec<usize>,
    /// Questions this shard evaluated.
    pub questions: usize,
    /// The shard's partial report: full level structure, metrics only
    /// from the shard's own slots.
    pub report: EvalReport,
}

/// Evaluate one [`ShardedDataset`] across `shard_models.len()` shards —
/// shard `s` runs `shard_models[s]` over the slots `{p : p mod S == s}`
/// in ascending slot order, each `(slot, level)` as its own evaluation
/// unit — and return the per-shard partial runs in shard-index order.
///
/// The model stacks must be functionally identical (same underlying
/// model and fault plan per shard; per-shard caches and breakers are
/// fine — both are byte-transparent). Merge the partial reports with
/// `taxoglimpse_report::merge::merge_reports`; the module docs carry
/// the proof that the merged bytes are independent of the shard count.
///
/// A panic inside one slot's evaluation surfaces with the owning
/// `(shard, slot, level)` identity so failures in sharded runs remain
/// attributable.
pub fn run_sharded(
    evaluator: &Evaluator,
    shard_models: &[&dyn LanguageModel],
    sharded: &ShardedDataset,
) -> Vec<ShardRun> {
    assert!(!shard_models.is_empty(), "run_sharded needs at least one shard model");
    let num_shards = shard_models.len();
    let router = ShardRouter::new(num_shards);
    for model in shard_models {
        model.reset();
    }

    // One worker per shard; handles joined in shard-index order, so
    // assembly order is fixed regardless of which shard finishes first.
    let mut runs: Vec<ShardRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = shard_models
            .iter()
            .enumerate()
            .map(|(shard, model)| {
                let router = router;
                scope.spawn(move || run_one_shard(evaluator, shard, &router, *model, sharded))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(run) => run,
                // Re-raise the labelled per-slot payload unchanged.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    runs.sort_by_key(|r| r.shard);
    runs
}

/// Evaluate the slots `shard` owns, ascending, one `(slot, level)` per
/// [`Evaluator::run_questions`] call.
fn run_one_shard(
    evaluator: &Evaluator,
    shard: usize,
    router: &ShardRouter,
    model: &dyn LanguageModel,
    sharded: &ShardedDataset,
) -> ShardRun {
    // The level template is uniform across slots by construction; take
    // it from slot 0 (an empty partition still has its level skeleton).
    let template: Vec<usize> = sharded
        .slot(0)
        .levels
        .iter()
        .map(|s| s.child_level)
        .collect();
    let mut by_level: Vec<LevelMetrics> = template
        .iter()
        .map(|&child_level| LevelMetrics { child_level, metrics: Metrics::default() })
        .collect();
    let mut slots = Vec::new();
    let mut questions = 0usize;

    for slot in 0..sharded.num_slots() {
        if !router.owns(shard, slot) {
            continue;
        }
        slots.push(slot);
        let dataset = sharded.slot(slot);
        for (li, slice) in dataset.levels.iter().enumerate() {
            if slice.questions.is_empty() {
                continue;
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                evaluator.run_questions(model, &slice.questions, &slice.exemplars)
            }));
            let metrics = match outcome {
                Ok(metrics) => metrics,
                // lint:allow(P001, deliberate re-panic - a shard worker panic is re-raised with its shard and slot context)
                Err(payload) => panic!(
                    "shard {shard} slot {slot} (model `{}`, taxonomy {:?}, level {}): {}",
                    model.name(),
                    dataset.taxonomy,
                    slice.child_level,
                    crate::grid::panic_message(payload.as_ref()),
                ),
            };
            by_level[li].metrics += metrics;
            questions += slice.questions.len();
        }
    }

    let mut overall = Metrics::default();
    for level in &by_level {
        overall += level.metrics;
    }
    let template_dataset = sharded.slot(0);
    ShardRun {
        shard,
        slots,
        questions,
        report: EvalReport {
            model: model.name().to_owned(),
            taxonomy: template_dataset.taxonomy,
            flavor: template_dataset.flavor,
            setting: evaluator.config().setting,
            overall,
            by_level,
        },
    }
}

/// Partition the row-major (model × dataset) cell grid into per-shard
/// cell lists by content-keyed cell slots. Returns `router.num_shards()`
/// lists; within each, cells keep their global row-major order. Also
/// returns each cell's global index for reassembly.
pub fn shard_cells(
    router: &ShardRouter,
    model_names: &[&str],
    datasets: &[&Dataset],
) -> Vec<Vec<(usize, GridCell)>> {
    let mut shards: Vec<Vec<(usize, GridCell)>> = vec![Vec::new(); router.num_shards()];
    for (m, name) in model_names.iter().enumerate() {
        for (d, dataset) in datasets.iter().enumerate() {
            let shard = router.shard_of_cell(name, dataset.taxonomy);
            let global = m * datasets.len() + d;
            shards[shard].push((global, GridCell { model: m, dataset: d }));
        }
    }
    shards
}

/// Run the full (model × dataset) grid as `shard_models.len()` shards,
/// each with its own [`crate::grid::GridRunner`] built from `builder`
/// (labelled with its shard id), and reassemble the per-cell reports in
/// global row-major order — byte-identical to an unsharded
/// `run_cross` with the same per-cell model stacks.
///
/// `shard_models[s]` is shard `s`'s model stack: one entry per logical
/// model, same length and same model *names* across shards (each shard
/// typically wraps the shared base models in its own cache). Cell
/// ownership is routed by `(model name, taxonomy)` content via
/// [`ShardRouter::cell_slot`], so the placement is reproducible
/// everywhere.
pub fn run_grid_sharded(
    builder: GridRunnerBuilder,
    shard_models: &[Vec<&dyn LanguageModel>],
    datasets: &[&Dataset],
) -> Vec<EvalReport> {
    assert!(!shard_models.is_empty(), "run_grid_sharded needs at least one shard");
    let num_models = shard_models[0].len();
    for (shard, models) in shard_models.iter().enumerate() {
        assert!(
            models.len() == num_models,
            "shard {shard} has {} models, expected {num_models}: every shard must carry \
             the same logical model stack",
            models.len(),
        );
        for (m, model) in models.iter().enumerate() {
            assert!(
                model.name() == shard_models[0][m].name(),
                "shard {shard} model {m} is `{}` but shard 0 has `{}`: stacks must agree by name",
                model.name(),
                shard_models[0][m].name(),
            );
        }
    }

    let router = ShardRouter::new(shard_models.len());
    let names: Vec<&str> = shard_models[0].iter().map(|m| m.name()).collect();
    let sharded_cells = shard_cells(&router, &names, datasets);

    let mut results: Vec<Option<EvalReport>> = (0..num_models * datasets.len())
        .map(|_| None)
        .collect();
    let shard_reports: Vec<(usize, Vec<EvalReport>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sharded_cells
            .iter()
            .enumerate()
            .map(|(shard, owned)| {
                let models = &shard_models[shard];
                scope.spawn(move || {
                    let cells: Vec<GridCell> = owned.iter().map(|&(_, cell)| cell).collect();
                    let runner = builder.with_shard_id(shard).build();
                    (shard, runner.run_cells(models, datasets, &cells))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(reports) => reports,
                // run_cells already labels failures with the shard id.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    for (shard, reports) in shard_reports {
        for (&(global, _), report) in sharded_cells[shard].iter().zip(reports) {
            results[global] = Some(report);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every grid cell is owned by exactly one shard"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, QuestionDataset};
    use crate::model::FixedAnswerModel;
    use taxoglimpse_json::to_string;
    use taxoglimpse_synth::{generate, GenOptions};

    fn taxonomy() -> Taxonomy {
        generate(TaxonomyKind::Ebay, GenOptions { seed: 31, scale: 1.0 })
            .expect("ebay generation succeeds at scale 1")
    }

    fn dataset(t: &Taxonomy) -> Dataset {
        DatasetBuilder::new(t, TaxonomyKind::Ebay, 31)
            .sample_cap(Some(40))
            .build(QuestionDataset::Hard)
            .expect("ebay dataset builds")
    }

    #[test]
    fn partitioning_preserves_every_question() {
        let t = taxonomy();
        let d = dataset(&t);
        let p = SubtreePartition::new(&t, NUM_SLOTS);
        let sharded = ShardedDataset::partition(&d, &t, &p);
        assert_eq!(sharded.len(), d.len());
        assert_eq!(sharded.num_slots(), NUM_SLOTS);
        assert!(sharded.occupied_slots() > 1, "ebay should spread over multiple slots");
        let total: usize = (0..sharded.num_slots()).map(|s| sharded.slot(s).len()).sum();
        assert_eq!(total, d.len());
        // Every slot keeps the full level skeleton and exemplar pools.
        for s in 0..sharded.num_slots() {
            let slot = sharded.slot(s);
            assert_eq!(slot.levels.len(), d.levels.len());
            for (a, b) in slot.levels.iter().zip(&d.levels) {
                assert_eq!(a.child_level, b.child_level);
                assert_eq!(a.exemplars.len(), b.exemplars.len());
            }
        }
    }

    #[test]
    fn merged_metrics_equal_unsharded_run_for_every_shard_count() {
        let t = taxonomy();
        let d = dataset(&t);
        let p = SubtreePartition::new(&t, NUM_SLOTS);
        let sharded = ShardedDataset::partition(&d, &t, &p);
        let evaluator = Evaluator::default();
        let model = FixedAnswerModel::always_yes();

        let baseline = evaluator.run(&model, &d);
        for shards in [1usize, 2, 8] {
            let stacks: Vec<&dyn LanguageModel> = (0..shards).map(|_| &model as _).collect();
            let runs = run_sharded(&evaluator, &stacks, &sharded);
            assert_eq!(runs.len(), shards);
            let mut overall = Metrics::default();
            let mut questions = 0usize;
            for (s, run) in runs.iter().enumerate() {
                assert_eq!(run.shard, s);
                assert!(run.slots.iter().all(|&slot| slot % shards == s));
                overall += run.report.overall;
                questions += run.questions;
            }
            assert_eq!(questions, d.len());
            // A stateless model answers identically under any grouping,
            // so the merged counters must equal the unsharded run's.
            assert_eq!(overall, baseline.overall);
        }
    }

    #[test]
    fn grid_sharding_is_byte_identical_to_unsharded_cross() {
        let t = taxonomy();
        let t2 = generate(TaxonomyKind::GeoNames, GenOptions { seed: 31, scale: 1.0 })
            .expect("geonames generation succeeds at scale 1");
        let ds = [
            dataset(&t),
            DatasetBuilder::new(&t2, TaxonomyKind::GeoNames, 31)
                .sample_cap(Some(30))
                .build(QuestionDataset::Hard)
                .expect("geonames dataset builds"),
        ];
        let dataset_refs: Vec<&Dataset> = ds.iter().collect();
        let yes = FixedAnswerModel::always_yes();
        let idk = FixedAnswerModel::always_idk();
        let models: Vec<&dyn LanguageModel> = vec![&yes, &idk];

        let builder = GridRunnerBuilder::default().with_threads(2).with_chunk_size(16);
        let baseline = builder.build().run_cross(&models, &dataset_refs);
        let baseline_json: Vec<String> =
            baseline.iter().map(|r| to_string(r).expect("report serializes")).collect();

        for shards in [1usize, 2, 8] {
            let stacks: Vec<Vec<&dyn LanguageModel>> = (0..shards).map(|_| models.clone()).collect();
            let sharded = run_grid_sharded(builder, &stacks, &dataset_refs);
            let sharded_json: Vec<String> =
                sharded.iter().map(|r| to_string(r).expect("report serializes")).collect();
            assert_eq!(sharded_json, baseline_json, "{shards}-shard grid must match unsharded");
        }
    }

    #[test]
    fn cell_routing_is_content_keyed_and_exhaustive() {
        let router = ShardRouter::new(3);
        assert_eq!(router.num_shards(), 3);
        for kind in TaxonomyKind::ALL {
            let slot = ShardRouter::cell_slot("GPT-4", kind);
            assert!(slot < NUM_SLOTS);
            assert_eq!(slot, ShardRouter::cell_slot("GPT-4", kind), "slot must be stable");
            assert_eq!(router.shard_of_cell("GPT-4", kind), slot % 3);
            assert!(router.owns(slot % 3, slot));
        }
        // Zero shards clamps to one, the degenerate single-owner router.
        assert_eq!(ShardRouter::new(0).num_shards(), 1);
    }

    #[test]
    fn sharded_panic_carries_shard_slot_and_level() {
        struct Bomb;
        impl LanguageModel for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn answer(
                &self,
                _query: &crate::model::Query<'_>,
            ) -> Result<crate::model::Response, crate::model::ModelError> {
                panic!("synthetic shard failure")
            }
        }
        let t = taxonomy();
        let d = dataset(&t);
        let p = SubtreePartition::new(&t, NUM_SLOTS);
        let sharded = ShardedDataset::partition(&d, &t, &p);
        let evaluator = Evaluator::default();
        let bomb = Bomb;
        let stacks: Vec<&dyn LanguageModel> = vec![&bomb, &bomb];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sharded(&evaluator, &stacks, &sharded)
        }));
        let payload = result.expect_err("sharded run must surface the failure");
        let message = crate::grid::panic_message(payload.as_ref());
        assert!(message.starts_with("shard "), "panic must lead with the shard id: {message}");
        assert!(message.contains(" slot "), "panic must name the slot: {message}");
        assert!(message.contains("model `bomb`"), "{message}");
        assert!(message.contains("synthetic shard failure"), "{message}");
    }
}
