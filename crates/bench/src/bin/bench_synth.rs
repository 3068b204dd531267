//! `bench_synth` — the machine-readable data-production benchmark.
//!
//! Measures the cost of everything upstream of evaluation, per taxonomy
//! kind: generation (the one pinned sequential stream), dataset
//! assembly, and snapshot save/load through the on-disk cache. Writes
//! `BENCH_synth.json` (same conventions as `BENCH_eval.json`: schema
//! version, label, workload, results, embedded baseline) so perf PRs
//! record before/after numbers on the same machine.
//!
//! ```text
//! cargo run --release -p taxoglimpse-bench --bin bench_synth -- \
//!     [--scale S] [--seed N] [--repeat R] [--label L] [--out FILE]
//! cargo run --release -p taxoglimpse-bench --bin bench_synth -- --check FILE
//! ```
//!
//! Determinism is enforced, not assumed: for every kind the snapshot
//! round trip must reproduce the generated taxonomy's content digest —
//! a mismatch aborts the run.
//!
//! `TAXOGLIMPSE_BENCH_QUICK=1` shrinks the workload to smoke-test size.

use taxoglimpse_bench::suite::{self, Args, Defaults, DigestGate, Suite};
use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_json::{Json, ToJson};
use taxoglimpse_synth::{generate, GenOptions, SEQ_STREAM_VERSION};
use taxoglimpse_taxonomy::SnapshotStore;

const SUITE: Suite = Suite {
    name: "synth",
    schema_version: 2,
    flags: &[],
    full: Defaults { scale: 1.0, repeat: 3, ..Defaults::BASE },
    quick: Defaults { scale: 0.02, repeat: 1, ..Defaults::BASE },
};

/// Single-thread sequential generation baseline: best-of-N milliseconds
/// per kind at scale 1.0, seed 42, measured at commit b8d9056 on the
/// reference machine. Embedded so the committed benchmark always shows
/// before/after against the pre-optimization generator.
const BASELINE_COMMIT: &str = "b8d9056";
const BASELINE_GEN_MS: [(&str, f64); 10] = [
    ("ebay", 0.117),
    ("amazon", 9.836),
    ("google", 1.233),
    ("schema", 0.349),
    ("acm-ccs", 0.510),
    ("geonames", 0.184),
    ("glottolog", 3.216),
    ("icd-10-cm", 1.573),
    ("oae", 2.854),
    ("ncbi", 787.272),
];

fn main() {
    suite::main(&SUITE, run_bench, check_doc);
}

/// Best-of-`repeat` wall milliseconds of `f`, and its last result.
fn best_ms<T>(repeat: usize, f: impl FnMut() -> T) -> (f64, T) {
    let (timing, value) = suite::time_reps(repeat, f, |_| {});
    (timing.best_s * 1e3, value)
}

/// Run the measured workload and build the `BENCH_synth.json` body.
fn run_bench(opts: &Args) -> (Json, Vec<(&'static str, Json)>) {
    let gen_opts = GenOptions { seed: opts.seed, scale: opts.scale };
    let store = SnapshotStore::open_default();
    // The embedded baseline was measured at scale 1.0, seed 42; at any
    // other workload the comparison would be apples-to-oranges.
    let baseline_applies = opts.scale == 1.0 && opts.seed == 42;
    let dataset_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut results = Vec::new();
    for kind in TaxonomyKind::ALL {
        let label = kind.label();

        let (gen_seq_ms, seq) =
            best_ms(opts.repeat, || generate(kind, gen_opts).expect("valid scale"));
        let seq_digest = seq.content_digest();

        // Dataset assembly over the sequential taxonomy.
        let (dataset_ms, dataset) = best_ms(opts.repeat, || {
            DatasetBuilder::new(&seq, kind, opts.seed)
                .threads(dataset_threads)
                .build(QuestionDataset::Hard)
                .expect("benchmark taxonomies have probe levels")
        });

        // Snapshot round trip through the on-disk store.
        let key = SnapshotStore::key(label, opts.seed, opts.scale, SEQ_STREAM_VERSION);
        let (snap_save_ms, _) = best_ms(opts.repeat, || {
            store.save(&key, &seq).expect("snapshot dir is writable")
        });
        let (snap_load_ms, loaded) = best_ms(opts.repeat, || {
            store.load(&key).expect("just-saved snapshot loads")
        });
        let mut round_trip = DigestGate::new(format_args!("{label}: snapshot round trip"));
        round_trip.check("generate", seq_digest);
        round_trip.check("load", loaded.content_digest());

        let baseline_gen_ms = BASELINE_GEN_MS
            .iter()
            .find(|(l, _)| *l == label)
            .map(|&(_, ms)| ms)
            .filter(|_| baseline_applies);
        let speedup = baseline_gen_ms.map(|base| base / gen_seq_ms);

        eprintln!(
            "{label}: {} nodes, seq {gen_seq_ms:.3} ms{}, \
             dataset {dataset_ms:.3} ms ({} questions), snapshot save {snap_save_ms:.3} ms \
             / load {snap_load_ms:.3} ms",
            seq.len(),
            speedup.map(|s| format!(" ({s:.2}x vs {BASELINE_COMMIT})")).unwrap_or_default(),
            dataset.len(),
        );

        let mut entry = vec![
            ("taxonomy", label.to_json()),
            ("nodes", (seq.len() as u64).to_json()),
            ("gen_seq_ms", gen_seq_ms.to_json()),
            ("seq_digest", suite::hex(seq_digest)),
            ("dataset_questions", (dataset.len() as u64).to_json()),
            ("dataset_ms", dataset_ms.to_json()),
            ("snap_save_ms", snap_save_ms.to_json()),
            ("snap_load_ms", snap_load_ms.to_json()),
            ("load_speedup_vs_gen", (gen_seq_ms / snap_load_ms).to_json()),
        ];
        if let (Some(base), Some(s)) = (baseline_gen_ms, speedup) {
            entry.push(("baseline_gen_ms", base.to_json()));
            entry.push(("gen_speedup_vs_baseline", s.to_json()));
            // Load speedup against what a bench bin paid for this
            // taxonomy before the cache existed: the b8d9056
            // single-thread generation cost.
            entry.push(("load_speedup_vs_baseline_gen", (base / snap_load_ms).to_json()));
        }
        results.push(Json::obj(entry));
    }

    let workload = Json::obj(vec![
        ("taxonomies", suite::labels(&TaxonomyKind::ALL)),
        ("scale", opts.scale.to_json()),
        ("seed", opts.seed.to_json()),
        ("repeats", (opts.repeat as u64).to_json()),
        ("dataset_threads", (dataset_threads as u64).to_json()),
        ("cache_dir", store.dir().display().to_string().to_json()),
    ]);

    let baseline = Json::obj(vec![
        ("label", BASELINE_COMMIT.to_json()),
        (
            "note",
            "single-thread sequential generate() at scale 1.0, seed 42, best-of-N on the \
             reference machine"
                .to_json(),
        ),
        (
            "gen_ms",
            Json::obj(
                BASELINE_GEN_MS.iter().map(|&(l, ms)| (l, ms.to_json())).collect::<Vec<_>>(),
            ),
        ),
    ]);

    (workload, vec![("results", Json::Arr(results)), ("baseline", baseline)])
}

/// `--check FILE`: every entry carries its timings and digests, and
/// the timings are positive.
fn check_doc(doc: &Json) -> Result<String, String> {
    let results = suite::array(doc, "results")?;
    for entry in results {
        suite::require(
            entry,
            &[
                "taxonomy",
                "nodes",
                "gen_seq_ms",
                "seq_digest",
                "dataset_ms",
                "snap_save_ms",
                "snap_load_ms",
            ],
        )
        .map_err(|e| format!("result entry {e}"))?;
        for key in ["gen_seq_ms", "dataset_ms", "snap_save_ms", "snap_load_ms"] {
            suite::number(entry, key, suite::Range::Positive)?;
        }
    }
    doc.get("baseline").ok_or("missing baseline")?;
    Ok(format!("{} taxonomies", results.len()))
}
