//! A hier run's heap does not grow with the taxonomy.
//!
//! `HierWorkload::run` makes one pass over the taxonomy's leaves, for
//! the flat baseline's shortlists and the whole-taxonomy listing's token
//! count. Everything it keeps per chunk is bounded by the shortlist
//! length, so the pass needs no list of the leaves. This binary installs
//! a counting `#[global_allocator]` over `System` and pins that: the
//! peak of live heap bytes during `run` on a taxonomy of about 200K
//! leaves stays within [`SLACK`] of the peak on one of about 20K. A
//! `Vec<NodeId>` of every leaf alone would add about 0.8 MiB.
//!
//! It holds a single `#[test]`, so no other test allocates while a peak
//! is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use taxoglimpse::prelude::*;

/// Allowed growth of the run's peak heap from the small taxonomy to the
/// large one. Both peaks measured 20 KiB, but the instances, and so the
/// prompts and descents, differ between the two taxonomies.
const SLACK: usize = 64 << 10;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    /// Count `size` live bytes if `ptr`, their block, was granted.
    fn counted(size: usize, ptr: *mut u8) -> *mut u8 {
        if !ptr.is_null() {
            // Relaxed: these are counters, and the peak is read after
            // the run has joined its workers.
            let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged and only updates counters around it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::counted(layout.size(), System.alloc(layout))
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::counted(layout.size(), System.alloc_zeroed(layout))
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as both blocks live at once, which is what a realloc
        // that cannot grow in place costs.
        let new = Self::counted(new_size, System.realloc(ptr, layout, new_size));
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The leaf count and the peak heap bytes one `run` holds above the
/// level at its start, on NCBI generated at `scale`.
fn leaves_and_run_peak(scale: f64) -> (usize, usize) {
    let kind = TaxonomyKind::Ncbi;
    let taxonomy = generate(kind, GenOptions { seed: 1, scale }).expect("valid options");
    let leaves = taxonomy.ids().filter(|&id| taxonomy.is_leaf(id)).count();
    let cx = WorkloadContext::new(&taxonomy, kind, 1);
    let workload = HierWorkload::new().with_sample_cap(Some(4));
    let data = workload.build(&cx).expect("NCBI supports hier");
    let model = ModelZoo::default_zoo().get(ModelId::Gpt4).expect("zoo covers GPT-4");
    let runner = GridRunner::builder().with_threads(2).build();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = workload.run(&runner, model.as_ref(), &cx, &data);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(report.metrics.instances, 4);
    (leaves, peak)
}

#[test]
fn run_peak_heap_does_not_grow_with_the_leaf_count() {
    let (small_leaves, small) = leaves_and_run_peak(0.01);
    let (large_leaves, large) = leaves_and_run_peak(0.1);
    assert!(
        (15_000..30_000).contains(&small_leaves) && large_leaves >= 8 * small_leaves,
        "{small_leaves} and {large_leaves} leaves"
    );
    assert!(
        large <= small + SLACK,
        "run peaked at {large} heap bytes on {large_leaves} leaves against {small} on \
         {small_leaves} (allowed growth {SLACK})"
    );
}
