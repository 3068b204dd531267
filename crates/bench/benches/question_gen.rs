//! Benchmarks of question/dataset generation: Cochran sampling,
//! negative sampling, MCQ assembly, and whole-dataset builds.

use taxoglimpse_bench::harness::{black_box, Bench, Throughput};
use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::sampling::cochran_sample_size;
use taxoglimpse_synth::{generate, GenOptions};

fn bench_sampling(b: &mut Bench) {
    b.bench("cochran_sample_size/2M", || cochran_sample_size(black_box(2_069_560)));
}

fn bench_dataset_build(b: &mut Bench) {
    let google = generate(TaxonomyKind::Google, GenOptions { seed: 5, scale: 1.0 }).unwrap();
    for flavor in QuestionDataset::ALL {
        let n = DatasetBuilder::new(&google, TaxonomyKind::Google, 5).build(flavor).unwrap().len();
        let name = format!("dataset_build/google/{flavor}");
        b.bench_with_throughput(&name, Throughput::Elements(n as u64), || {
            DatasetBuilder::new(&google, TaxonomyKind::Google, 5).build(flavor).unwrap()
        });
    }
}

fn bench_instance_typing_build(b: &mut Bench) {
    let icd = generate(TaxonomyKind::Icd10Cm, GenOptions { seed: 5, scale: 1.0 }).unwrap();
    b.bench("instance_typing_build/icd_hard", || {
        DatasetBuilder::new(&icd, TaxonomyKind::Icd10Cm, 5)
            .sample_cap(Some(200))
            .instance_typing(QuestionDataset::Hard)
            .unwrap()
    });
}

fn main() {
    let mut b = Bench::from_env();
    bench_sampling(&mut b);
    bench_dataset_build(&mut b);
    bench_instance_typing_build(&mut b);
}
