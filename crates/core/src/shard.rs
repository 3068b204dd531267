//! Sharded scale-out: one logical benchmark over partitioned work.
//!
//! Sharding is placement, not a second executor: both levels lay their
//! work out as a cell list for [`GridRunner::run_cells`], so the grid's
//! worker pool runs every shard and the grid's chunking, panic
//! attribution and index-order merge apply unchanged.
//!
//! * **Grid-level** ([`run_grid_sharded`]): the (model × taxonomy) grid
//!   is split across shards, each shard carrying its own model stack
//!   (typically its own response cache and fault injector over shared
//!   base models). The per-shard stacks are flattened into one model
//!   list, and cell `(m, d)` runs on the stack of the shard that owns
//!   it. A cell's shard is a pure function of `(model name, taxonomy)`
//!   content, so the assignment is identical on every machine and run.
//! * **Taxonomy-level** ([`run_sharded`]): one big dataset (NCBI/ICD
//!   scale) is split into content-keyed subtree slots
//!   ([`SubtreePartition`]); slot `p` becomes cell `p`, answered by the
//!   stack of shard `p mod S`, and the per-slot reports are summed per
//!   level in slot order into one logical report.
//!
//! # The determinism argument
//!
//! Merged reports must be **byte-identical across shard counts
//! {1, 2, 8}**. The construction reduces that to the grid's own
//! worker-count invariance:
//!
//! 1. Work is keyed to a **fixed pool of [`NUM_SLOTS`] virtual slots**,
//!    never directly to shards. Slot membership is derived from content
//!    (taxonomy subtree names, or `(model, taxonomy)` identity for grid
//!    cells) — never from thread identity, timing, or the shard count.
//! 2. Shard `s` of `S` owns exactly the slots `{p : p mod S == s}`.
//!    Changing `S` only changes which (functionally identical) model
//!    stack answers a cell; it cannot move a question between cells.
//! 3. The grid splits every cell level into `chunk_size` chunks, each
//!    with a *fresh* resilience session, and a chunk never straddles a
//!    slot-level. Retry/backoff/breaker state — and so every attempt
//!    number a fault stream sees — depends only on the slot's own
//!    question sequence and the chunk size. Fault decisions are pure
//!    functions of `(plan, model, taxonomy, question id, attempt)`, and
//!    response caches are byte-transparent, so per-shard caches with
//!    different hit patterns cannot perturb outcome bytes.
//! 4. By (1)–(3) every cell's report is shard-count-invariant, and the
//!    grid returns cell reports in cell order for any worker count, so
//!    any ordered sum over them is too.
//!
//! `tests/shard.rs` proves the property across shard counts × worker
//! counts × chunk sizes × cache on/off × a 20% fault plan;
//! `tests/pinned_digests.rs` pins the sharded grid and the
//! NCBI/ICD-10-CM merged digests.

use crate::dataset::{Dataset, LevelSlice};
use crate::domain::TaxonomyKind;
use crate::eval::EvalReport;
use crate::grid::{GridCell, GridRunner, GridRunnerBuilder};
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

/// Evaluate one [`ShardedDataset`] across `shard_models.len()` shards
/// and return the one logical report.
///
/// Slot `p` is cell `p` of a single [`GridRunner::run_cells`] call:
/// `shard_models[p mod S]` on `sharded.slot(p)`. The per-slot reports
/// are summed per level in slot order; the module docs carry the proof
/// that the result is independent of the shard count. The stacks must
/// be functionally identical (same underlying model and fault plan;
/// per-shard caches and breakers are fine — both are byte-transparent)
/// and must all carry the same model name.
///
/// A panic inside one slot surfaces through the grid as `cell p`, so
/// the failing slot is `p` and its shard `p mod S`.
pub fn run_sharded(
    runner: &GridRunner,
    shard_models: &[&dyn LanguageModel],
    sharded: &ShardedDataset,
) -> EvalReport {
    assert!(!shard_models.is_empty(), "run_sharded needs at least one shard model");
    let name = shard_models[0].name();
    for (shard, model) in shard_models.iter().enumerate() {
        assert!(
            model.name() == name,
            "shard {shard} runs `{}` but shard 0 runs `{name}`: every shard must carry the \
             same model",
            model.name(),
        );
    }
    let router = ShardRouter::new(shard_models.len());
    let datasets: Vec<&Dataset> = sharded.slots.iter().collect();
    let cells: Vec<GridCell> = (0..datasets.len())
        .map(|p| GridCell { model: router.shard_of_slot(p), dataset: p })
        .collect();

    // Every slot keeps the full level skeleton, and slot 0 is answered
    // by shard 0, so its report carries the logical run's identity.
    let mut slots = runner.run_cells(shard_models, &datasets, &cells).into_iter();
    let mut merged = slots.next().expect("a partition has at least one slot");
    for report in slots {
        merged.overall += report.overall;
        for (level, part) in merged.by_level.iter_mut().zip(&report.by_level) {
            level.metrics += part.metrics;
        }
    }
    merged
}

/// Run the full (model × dataset) grid as `shard_models.len()` shards
/// under one runner built from `builder`, returning the per-cell
/// reports in global row-major order — byte-identical to an unsharded
/// `run_cross` with the same per-cell model stacks.
///
/// `shard_models[s]` is shard `s`'s model stack: one entry per logical
/// model, same length and same model *names* across shards (each shard
/// typically wraps the shared base models in its own cache). The stacks
/// are flattened into one model list, and cell `(m, d)` runs on model
/// `shard * num_models + m`, where `shard` is routed by `(model name,
/// taxonomy)` content via [`ShardRouter::shard_of_cell`], so the
/// placement is reproducible everywhere.
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
    let models: Vec<&dyn LanguageModel> = shard_models.iter().flatten().copied().collect();
    let cells: Vec<GridCell> = shard_models[0]
        .iter()
        .enumerate()
        .flat_map(|(m, model)| {
            datasets.iter().enumerate().map(move |(d, dataset)| GridCell {
                model: router.shard_of_cell(model.name(), dataset.taxonomy) * num_models + m,
                dataset: d,
            })
        })
        .collect();
    builder.build().run_cells(&models, datasets, &cells)
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
        let model = FixedAnswerModel::always_yes();

        let baseline = GridRunner::default().run(&model, &d);
        for shards in [1usize, 2, 8] {
            let stacks: Vec<&dyn LanguageModel> = (0..shards).map(|_| &model as _).collect();
            let runner = GridRunner::builder().with_threads(shards).with_chunk_size(7).build();
            let merged = run_sharded(&runner, &stacks, &sharded);
            // A stateless model answers identically under any grouping,
            // so the merged report must equal the unsharded run's.
            assert_eq!(merged.overall.total(), d.len());
            assert_eq!(
                to_string(&merged).expect("report serializes"),
                to_string(&baseline).expect("report serializes"),
                "{shards} shards"
            );
        }
    }

    #[test]
    #[should_panic(expected = "every shard must carry the same model")]
    fn mismatched_shard_stacks_are_rejected() {
        let t = taxonomy();
        let d = dataset(&t);
        let sharded = ShardedDataset::partition(&d, &t, &SubtreePartition::new(&t, NUM_SLOTS));
        let yes = FixedAnswerModel::always_yes();
        let idk = FixedAnswerModel::always_idk();
        run_sharded(&GridRunner::default(), &[&yes, &idk], &sharded);
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
        let bomb = Bomb;
        let stacks: Vec<&dyn LanguageModel> = vec![&bomb, &bomb];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sharded(&GridRunner::builder().with_threads(2).build(), &stacks, &sharded)
        }));
        let payload = result.expect_err("sharded run must surface the failure");
        let message = crate::grid::panic_message(payload.as_ref());
        // Slot `p` is cell `p` (shard `p mod 2`); a failed cell is
        // reported at its first non-empty level.
        let slot = (0..sharded.num_slots())
            .find(|&p| !sharded.slot(p).is_empty())
            .expect("ebay occupies some slot");
        let level = sharded
            .slot(slot)
            .levels
            .iter()
            .find(|l| !l.questions.is_empty())
            .expect("an occupied slot has a non-empty level")
            .child_level;
        assert!(
            message.starts_with(&format!("{} grid cell(s) panicked", sharded.occupied_slots())),
            "{message}"
        );
        assert!(
            message.contains(&format!(
                "cell {slot} (model `bomb`, dataset `Ebay`) level {level} questions 0.."
            )),
            "panic must name the slot, model and level: {message}"
        );
        assert!(message.contains("synthetic shard failure"), "{message}");
    }
}
