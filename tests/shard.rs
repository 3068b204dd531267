//! Property tests for sharded scale-out (`core::shard`): merged
//! reports must be byte-identical across shard counts {1, 2, 8} —
//! under any combination of worker counts, chunk sizes, response caches
//! on/off, and a 20% fault plan — and the subtree partitioner must assign every
//! node to exactly one shard, independent of how shard counts are
//! enumerated. Runs on the same in-tree deterministic proptest harness
//! as `proptests.rs`.

mod common;

use std::sync::Arc;
use taxoglimpse::core::grid::GridRunnerBuilder;
use taxoglimpse::core::shard::NUM_SLOTS;
use taxoglimpse::prelude::*;
use taxoglimpse::core::reports_digest;
use common::cases;
use taxoglimpse::synth::rng::Rng;

const PROPTEST_SEED: u64 = 0x5AAD_7E57_5052_0007; // "shard test PR 7"

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// One shard's model stack for taxonomy-level runs: the full PR 5 + 6
/// composition `FaultInjector<CachedModel<Arc<SimulatedLlm>>>` with a
/// per-shard cache when `cached`, or the injector straight over the
/// shared base when not.
fn shard_stack(base: &Arc<SimulatedLlm>, plan: &FaultPlan, cached: bool) -> Box<dyn LanguageModel> {
    if cached {
        Box::new(FaultInjector::new(
            CachedModel::with_cache(Arc::clone(base), Arc::new(ResponseCache::new())),
            plan.clone(),
        ))
    } else {
        Box::new(FaultInjector::new(Arc::clone(base), plan.clone()))
    }
}

/// Taxonomy-level sharding: for random (seed, batch size, cache
/// on/off, fault plan off/20%, worker count, chunk size), the merged
/// report is byte-identical across shard counts {1, 2, 8}.
#[test]
fn merged_reports_are_shard_count_invariant() {
    cases(PROPTEST_SEED, 6, "merged-shard-invariant", |rng, _| {
        let seed = rng.gen_range(0u64..1000);
        let kind = TaxonomyKind::Ebay;
        let taxonomy = generate(kind, GenOptions { seed, scale: 0.5 }).expect("valid options");
        let dataset = DatasetBuilder::new(&taxonomy, kind, seed)
            .sample_cap(Some(30))
            .build(QuestionDataset::Hard)
            .expect("ebay has probe levels");
        let partition = SubtreePartition::new(&taxonomy, NUM_SLOTS);
        let sharded = ShardedDataset::partition(&dataset, &taxonomy, &partition);
        assert_eq!(sharded.len(), dataset.len(), "partitioning must not drop questions");

        let cached = rng.gen_bool(0.5);
        let plan = if rng.gen_bool(0.5) {
            FaultPlan::uniform(rng.gen_range(0u64..1 << 32), 0.20)
        } else {
            FaultPlan::disabled(rng.gen_range(0u64..1 << 32))
        };
        let batch = rng.gen_range(1u64..40) as usize;
        let base = Arc::new(SimulatedLlm::with_seed(ModelId::Gpt4, seed));
        let workers = [1usize, 2, 8][rng.gen_range(0u64..3) as usize];
        let chunk = rng.gen_range(1u64..40) as usize;
        let runner = GridRunner::builder()
            .with_batch_size(batch)
            .with_threads(workers)
            .with_chunk_size(chunk)
            .build();

        let mut merged_json: Vec<String> = Vec::new();
        for shards in SHARD_COUNTS {
            let stacks: Vec<Box<dyn LanguageModel>> =
                (0..shards).map(|_| shard_stack(&base, &plan, cached)).collect();
            let stack_refs: Vec<&dyn LanguageModel> = stacks.iter().map(|b| b.as_ref()).collect();
            let merged = run_sharded(&runner, &stack_refs, &sharded);
            assert_eq!(
                merged.overall.total(),
                dataset.len(),
                "merged counters must cover every question"
            );
            merged_json
                .push(taxoglimpse::json::to_string(&merged).expect("merged report serializes"));
        }
        let at = format!("{workers} workers, chunk {chunk}, plan {plan:?}");
        assert_eq!(merged_json[0], merged_json[1], "1 vs 2 shards, {at}");
        assert_eq!(merged_json[0], merged_json[2], "1 vs 8 shards, {at}");
    });
}

/// Grid-level sharding: cell reports reassembled from sharded runners
/// are byte-identical to the unsharded cross product — across shard
/// counts × worker counts × chunk sizes × a 20% fault plan.
#[test]
fn sharded_grid_matches_unsharded_cross_product() {
    cases(PROPTEST_SEED, 4, "sharded-grid-invariant", |rng, _| {
        let seed = rng.gen_range(0u64..1000);
        let kind = TaxonomyKind::Ebay;
        let taxonomy = generate(kind, GenOptions { seed, scale: 0.5 }).expect("valid options");
        let dataset = DatasetBuilder::new(&taxonomy, kind, seed)
            .sample_cap(Some(30))
            .build(QuestionDataset::Hard)
            .expect("ebay has probe levels");
        let dataset_refs = [&dataset];
        let plan = FaultPlan::uniform(rng.gen_range(0u64..1 << 32), 0.20);
        let chunk = rng.gen_range(1u64..40) as usize;
        let workers = [1usize, 2, 8][rng.gen_range(0u64..3) as usize];
        let bases =
            [SimulatedLlm::with_seed(ModelId::Gpt4, seed), SimulatedLlm::with_seed(ModelId::Llama2_7b, seed)];

        let builder = GridRunnerBuilder::default().with_threads(workers).with_chunk_size(chunk);

        // Unsharded baseline with the same per-cell stacks.
        let baseline_stacks: Vec<_> =
            bases.iter().map(|b| FaultInjector::new(b, plan.clone())).collect();
        let baseline_refs: Vec<&dyn LanguageModel> =
            baseline_stacks.iter().map(|m| m as &dyn LanguageModel).collect();
        let baseline = builder.build().run_cross(&baseline_refs, &dataset_refs);
        let baseline_digest = reports_digest(&baseline);

        for shards in SHARD_COUNTS {
            // Each shard wraps the same bases in its own injector
            // instances (per-shard breakers and stats).
            let shard_stacks: Vec<Vec<_>> = (0..shards)
                .map(|_| bases.iter().map(|b| FaultInjector::new(b, plan.clone())).collect())
                .collect();
            let shard_refs: Vec<Vec<&dyn LanguageModel>> = shard_stacks
                .iter()
                .map(|stack| stack.iter().map(|m| m as &dyn LanguageModel).collect())
                .collect();
            let reports = run_grid_sharded(builder, &shard_refs, &dataset_refs);
            assert_eq!(
                reports_digest(&reports),
                baseline_digest,
                "{shards} shards × {workers} workers, chunk {chunk}, plan {plan:?}"
            );
        }
    });
}

/// Partitioner invariants at synth scale: every node lands in exactly
/// one shard for every shard count, and the assignment is a pure
/// function of the slot — independent of the order shard counts are
/// enumerated in (we walk them backwards and compare against forward).
#[test]
fn subtree_partitioner_invariants() {
    cases(PROPTEST_SEED, 6, "partitioner-invariants", |rng, _| {
        let kind = [TaxonomyKind::Ebay, TaxonomyKind::Amazon, TaxonomyKind::GeoNames]
            [rng.gen_range(0u64..3) as usize];
        let seed = rng.gen_range(0u64..1000);
        let taxonomy = generate(kind, GenOptions { seed, scale: 0.5 }).expect("valid options");
        let partition = SubtreePartition::new(&taxonomy, NUM_SLOTS);

        // Every node in exactly one slot, and subtrees stay together.
        assert_eq!(partition.slot_sizes().iter().sum::<usize>(), taxonomy.len());
        for id in taxonomy.ids() {
            let slot = partition.slot_of(id);
            assert!(slot < NUM_SLOTS);
            if taxonomy.level(id) > 1 {
                let parent = taxonomy.parent(id).expect("deep nodes have parents");
                assert_eq!(slot, partition.slot_of(parent), "subtree split at node {id}");
            }
        }

        // Forward and backward enumeration of shard counts agree, and
        // each count covers all nodes disjointly.
        let forward: Vec<Vec<usize>> = SHARD_COUNTS
            .iter()
            .map(|&s| taxonomy.ids().map(|id| partition.shard_of(id, s)).collect())
            .collect();
        let backward: Vec<Vec<usize>> = SHARD_COUNTS
            .iter()
            .rev()
            .map(|&s| taxonomy.ids().map(|id| partition.shard_of(id, s)).collect())
            .collect();
        for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
            assert_eq!(
                forward[i],
                backward[SHARD_COUNTS.len() - 1 - i],
                "assignment for {shards} shards must not depend on enumeration order"
            );
            for (&assignment, id) in forward[i].iter().zip(taxonomy.ids()) {
                assert!(assignment < shards, "node {id} routed past shard {shards}");
                assert_eq!(assignment, partition.slot_of(id) % shards);
            }
        }
    });
}
