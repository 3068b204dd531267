//! Set-up: the invocation's own snapshot stores, taxonomy generation and
//! loading, and the inputs each workload builds from the taxonomies.

use crate::registry::Workload;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;
use taxoglimpse_core::dataset::{Dataset, DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::hier::{HierDataset, HierWorkload};
use taxoglimpse_core::question::Question;
use taxoglimpse_core::workload::{Workload as _, WorkloadContext};
use taxoglimpse_synth::{generate, GenOptions, SEQ_STREAM_VERSION};
use taxoglimpse_taxonomy::{SnapshotStore, Taxonomy};

/// Instances classified per taxonomy by `hier_scale1`.
pub const HIER_INSTANCES: usize = 4;

/// What every workload is generated from.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed of every generated input: taxonomies, samples, fault plans
    /// and traffic.
    pub seed: u64,
    /// Taxonomy scale: 1.0 (Table 1) in benchmark runs, small in tests.
    pub scale: f64,
    /// Worker threads of the untraced repeats.
    pub workers: usize,
}

/// A directory owned by one invocation, removed with everything in it
/// when dropped — also when a check fails or a pass panics.
#[derive(Debug)]
pub struct RunDir {
    dir: PathBuf,
}

impl RunDir {
    /// Create a fresh directory under `parent`, named by process and a
    /// per-process sequence number so concurrent tests never share one.
    pub fn create(parent: &Path) -> std::io::Result<RunDir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        // Relaxed: a unique ticket is all that is needed; it publishes no
        // other data.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("{}-{n}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(RunDir { dir })
    }

    /// A snapshot store in its own (initially absent, so cold)
    /// subdirectory.
    pub fn store(&self, name: &str) -> SnapshotStore {
        SnapshotStore::new(self.dir.join(name))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
        // Leaves the shared parent behind only while another invocation
        // still uses it.
        if let Some(parent) = self.dir.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

fn key(kind: TaxonomyKind, plan: &Plan) -> String {
    SnapshotStore::key(kind.label(), plan.seed, plan.scale, SEQ_STREAM_VERSION)
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total_s: f64,
    /// Summed `generate` time.
    pub generate_s: f64,
    /// Summed `SnapshotStore::save` time.
    pub save_s: f64,
    /// Summed `SnapshotStore::load` time.
    pub load_s: f64,
    /// Building the workload's inputs from the loaded taxonomies.
    pub build_s: f64,
    /// Snapshot bytes written.
    pub bytes: u64,
}

/// One set-up from nothing: generate every taxonomy and save it into the
/// empty `store`, load them all back, and build `workload`'s inputs.
pub fn set_up(
    workload: Workload,
    store: &SnapshotStore,
    plan: &Plan,
) -> Result<(Inputs, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let start = Instant::now();
    for kind in TaxonomyKind::ALL {
        let begun = Instant::now();
        let taxonomy = generate(
            kind,
            GenOptions {
                seed: plan.seed,
                scale: plan.scale,
            },
        )
        .map_err(|e| format!("generate {}: {e}", kind.label()))?;
        let generated = Instant::now();
        let path = store
            .save(&key(kind, plan), &taxonomy)
            .map_err(|e| format!("save {}: {e}", kind.label()))?;
        times.generate_s += (generated - begun).as_secs_f64();
        times.save_s += generated.elapsed().as_secs_f64();
        times.bytes += fs::metadata(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
    }

    let loaded = Instant::now();
    let taxonomies = TaxonomyKind::ALL
        .into_iter()
        .map(|kind| {
            store
                .load(&key(kind, plan))
                .map(|t| (kind, t))
                .ok_or_else(|| format!("snapshot of {} missing or corrupt", kind.label()))
        })
        .collect::<Result<_, _>>()?;
    times.load_s = loaded.elapsed().as_secs_f64();

    let built = Instant::now();
    let inputs = build_inputs(workload, taxonomies, plan)?;
    times.build_s = built.elapsed().as_secs_f64();
    times.total_s = start.elapsed().as_secs_f64();
    Ok((inputs, times))
}

/// One taxonomy with its hierarchical-classification instances.
#[derive(Debug)]
pub struct HierInput {
    /// Which taxonomy.
    pub kind: TaxonomyKind,
    /// The taxonomy itself (the workload walks it on every run).
    pub taxonomy: Taxonomy,
    /// The sampled instances.
    pub data: HierDataset,
}

/// What a workload's repeats read.
#[derive(Debug)]
pub enum Inputs {
    /// Easy, Hard and MCQ datasets of every taxonomy, taxonomy-major.
    Grid(Vec<Dataset>),
    /// The Hard questions of every taxonomy, the serving pool.
    Serve(Vec<Question>),
    /// Every taxonomy with its instances.
    Hier(Vec<HierInput>),
}

impl Inputs {
    /// Questions or instances built.
    pub fn items(&self) -> usize {
        match self {
            Inputs::Grid(datasets) => datasets.iter().map(Dataset::len).sum(),
            Inputs::Serve(pool) => pool.len(),
            Inputs::Hier(inputs) => inputs.iter().map(|i| i.data.instances.len()).sum(),
        }
    }
}

/// The `hier_scale1` workload definition: default router and descent.
pub fn hier_workload() -> HierWorkload {
    HierWorkload::new().with_sample_cap(Some(HIER_INSTANCES))
}

/// Build `workload`'s inputs from the ten taxonomies, in
/// `TaxonomyKind::ALL` order.
fn build_inputs(
    workload: Workload,
    taxonomies: Vec<(TaxonomyKind, Taxonomy)>,
    plan: &Plan,
) -> Result<Inputs, String> {
    let dataset = |t: &Taxonomy, kind: TaxonomyKind, flavor: QuestionDataset| {
        DatasetBuilder::new(t, kind, plan.seed)
            .build(flavor)
            .map_err(|e| format!("{} {flavor} dataset: {e}", kind.label()))
    };
    let inputs = match workload {
        Workload::PaperGrid | Workload::GridFaultsCached => {
            let mut datasets = Vec::with_capacity(taxonomies.len() * QuestionDataset::ALL.len());
            for (kind, t) in &taxonomies {
                for flavor in QuestionDataset::ALL {
                    datasets.push(dataset(t, *kind, flavor)?);
                }
            }
            Inputs::Grid(datasets)
        }
        Workload::ServeMixed => {
            let mut pool = Vec::new();
            for (kind, t) in &taxonomies {
                pool.extend(
                    dataset(t, *kind, QuestionDataset::Hard)?
                        .questions()
                        .cloned(),
                );
            }
            Inputs::Serve(pool)
        }
        Workload::HierScale1 => {
            let workload = hier_workload();
            let mut inputs = Vec::with_capacity(taxonomies.len());
            for (kind, taxonomy) in taxonomies {
                let data = workload
                    .build(&WorkloadContext::new(&taxonomy, kind, plan.seed))
                    .map_err(|e| format!("{} hier instances: {e}", kind.label()))?;
                inputs.push(HierInput {
                    kind,
                    taxonomy,
                    data,
                });
            }
            Inputs::Hier(inputs)
        }
    };
    Ok(inputs)
}
