//! Quantitative reproduction tests: measured results vs the paper's
//! published tables, with tolerances. Table 1 must match exactly;
//! Table 4 within Cochran-rounding slack; Tables 5–7 cells within a few
//! accuracy points for a representative model subset.

use taxoglimpse::llm::calib;
use taxoglimpse::prelude::*;
use taxoglimpse::report::compare::ComparisonSummary;
use taxoglimpse::taxonomy::TaxonomyStats;

/// Table 1 — exact at scale 1.0 (NCBI excluded here for test speed; it
/// is covered exactly by `crates/synth` unit tests and the table1
/// binary).
#[test]
fn table_1_shapes_exact() {
    let expected: &[(TaxonomyKind, &[usize])] = &[
        (TaxonomyKind::Ebay, &[13, 110, 472]),
        (TaxonomyKind::Google, &[21, 192, 1349, 2203, 1830]),
        (TaxonomyKind::Schema, &[3, 17, 215, 403, 436, 272]),
        (TaxonomyKind::AcmCcs, &[13, 84, 543, 1087, 386]),
        (TaxonomyKind::GeoNames, &[9, 680]),
        (TaxonomyKind::Glottolog, &[245, 712, 1048, 1205, 1366, 7393]),
        (TaxonomyKind::Icd10Cm, &[22, 155, 963, 3383]),
        (TaxonomyKind::Oae, &[181, 1854, 3817, 2587, 1108]),
    ];
    for &(kind, shape) in expected {
        let t = generate(kind, GenOptions { seed: 2024, scale: 1.0 }).unwrap();
        let stats = TaxonomyStats::compute(&t);
        assert_eq!(stats.nodes_per_level, shape, "{kind}");
        taxoglimpse::taxonomy::validate(&t).unwrap();
    }
}

/// Table 4 — dataset totals per taxonomy within rounding slack of the
/// paper (our Cochran rounding differs from the Qualtrics calculator by
/// a couple of samples on small levels).
#[test]
fn table_4_dataset_totals() {
    // (kind, scale-immune?, paper easy total, paper MCQ total)
    let expected = [
        (TaxonomyKind::Ebay, 606usize, 303usize),
        (TaxonomyKind::Google, 2150, 1075),
        (TaxonomyKind::Schema, 1434, 717),
        (TaxonomyKind::AcmCcs, 1542, 771),
        (TaxonomyKind::GeoNames, 492, 246),
        (TaxonomyKind::Glottolog, 2980, 1490),
        (TaxonomyKind::Icd10Cm, 1462, 731),
        (TaxonomyKind::Oae, 2580, 1290),
    ];
    for (kind, easy_total, mcq_total) in expected {
        let t = generate(kind, GenOptions { seed: 2024, scale: 1.0 }).unwrap();
        let b = DatasetBuilder::new(&t, kind, 2024);
        let easy = b.build(QuestionDataset::Easy).unwrap().len();
        let mcq = b.build(QuestionDataset::Mcq).unwrap().len();
        let slack_easy = (easy_total / 50).max(12); // ~2%
        let slack_mcq = (mcq_total / 50).max(6);
        assert!(
            easy.abs_diff(easy_total) <= slack_easy,
            "{kind} easy: ours {easy} vs paper {easy_total}"
        );
        assert!(
            mcq.abs_diff(mcq_total) <= slack_mcq,
            "{kind} mcq: ours {mcq} vs paper {mcq_total}"
        );
    }
}

/// Table 4 — the hard dataset may be slightly smaller than the easy one
/// (children without uncles are skipped); the paper's Google column has
/// 2134 hard vs 2150 easy. At seed 2024 hard stays within 5% below easy
/// on three taxonomies. At seed 42, the ledger's seed, no sampled
/// Google child lacks an uncle, so hard equals easy level by level
/// (2150 = 2150, as `[table4]` prints) and the paper's 16-question gap
/// does not reproduce.
#[test]
fn table_4_hard_at_most_easy() {
    for kind in [TaxonomyKind::Google, TaxonomyKind::Glottolog, TaxonomyKind::AcmCcs] {
        let t = generate(kind, GenOptions { seed: 2024, scale: 1.0 }).unwrap();
        let b = DatasetBuilder::new(&t, kind, 2024);
        let easy = b.build(QuestionDataset::Easy).unwrap().len();
        let hard = b.build(QuestionDataset::Hard).unwrap().len();
        assert!(hard <= easy, "{kind}: hard {hard} > easy {easy}");
        assert!(hard * 100 >= easy * 95, "{kind}: hard {hard} too far below easy {easy}");
    }
    let kind = TaxonomyKind::Google;
    let t = generate(kind, GenOptions { seed: 42, scale: 1.0 }).unwrap();
    let b = DatasetBuilder::new(&t, kind, 42);
    let easy = b.build(QuestionDataset::Easy).unwrap();
    let hard = b.build(QuestionDataset::Hard).unwrap();
    assert_eq!(hard.level_counts(), easy.level_counts(), "seed 42 Google: hard vs easy per level");
    assert_eq!((easy.len(), hard.len()), (2150, 2150));
}

fn measure_grid(
    models: &[ModelId],
    kinds: &[(TaxonomyKind, f64)],
    flavor: QuestionDataset,
) -> ComparisonSummary {
    let zoo = ModelZoo::default_zoo();
    let runner = GridRunner::default();
    let mut reports = Vec::new();
    for &(kind, scale) in kinds {
        let t = generate(kind, GenOptions { seed: 4242, scale }).unwrap();
        let d = DatasetBuilder::new(&t, kind, 4242).build(flavor).unwrap();
        for &model in models {
            let report = runner.run(zoo.get(model).unwrap().as_ref(), &d);
            reports.push((model, report));
        }
    }
    ComparisonSummary::from_reports(flavor, &reports)
}

const GRID_MODELS: [ModelId; 6] = [
    ModelId::Gpt4,
    ModelId::Gpt35,
    ModelId::Llama2_70b,
    ModelId::FlanT5_3b,
    ModelId::Falcon7b,
    ModelId::Llms4Ol,
];

const GRID_KINDS: [(TaxonomyKind, f64); 5] = [
    (TaxonomyKind::Ebay, 1.0),
    (TaxonomyKind::Google, 1.0),
    (TaxonomyKind::Schema, 1.0),
    (TaxonomyKind::Glottolog, 1.0),
    (TaxonomyKind::Icd10Cm, 1.0),
];

/// Tables 5–7 fidelity of this test's grid (seed 4242; the six models
/// above on the five taxonomies above, all at scale 1.0) as measured
/// when the bounds below were set: `(flavor, mean |dA|, mean |dM|,
/// max |dA|)`. Winner agreement was 0.8 on every flavor.
const FIDELITY_TODAY: [(QuestionDataset, f64, f64, f64); 3] = [
    (QuestionDataset::Easy, 0.0208, 0.0018, 0.1251),
    (QuestionDataset::Hard, 0.0215, 0.0020, 0.1244),
    (QuestionDataset::Mcq, 0.0127, 0.0018, 0.0469),
];

/// Headroom over [`FIDELITY_TODAY`]: a change may move a mean delta by
/// one accuracy point and the worst cell by two before this test calls
/// it a fidelity regression. Winner agreement may lose one of the five
/// taxonomies (0.8 → 0.6).
const MEAN_HEADROOM: f64 = 0.01;
const MAX_HEADROOM: f64 = 0.02;

/// Tables 5–7 — measured accuracy/miss land near the paper's cells and
/// the per-taxonomy winners agree.
#[test]
fn tables_5_6_7_cells_near_paper() {
    for (flavor, mean_a, mean_m, max_a) in FIDELITY_TODAY {
        let summary = measure_grid(&GRID_MODELS, &GRID_KINDS, flavor);
        assert!(
            summary.mean_delta_a() < mean_a + MEAN_HEADROOM,
            "{flavor}: mean |dA| {} (was {mean_a})",
            summary.mean_delta_a()
        );
        assert!(
            summary.mean_delta_m() < mean_m + MEAN_HEADROOM,
            "{flavor}: mean |dM| {} (was {mean_m})",
            summary.mean_delta_m()
        );
        assert!(
            summary.max_delta_a() < max_a + MAX_HEADROOM,
            "{flavor}: max |dA| {} (was {max_a})",
            summary.max_delta_a()
        );
        assert!(
            summary.winner_agreement() >= 0.6,
            "{flavor}: winner agreement {}",
            summary.winner_agreement()
        );
    }
}

/// §4.1 headline numbers re-measured: on the NCBI/Glottolog/GeoNames
/// hard datasets, the best model accuracy is only around 70%.
#[test]
fn specialized_hard_top_accuracy_is_about_seventy_percent() {
    let zoo = ModelZoo::default_zoo();
    let runner = GridRunner::default();
    for (kind, scale) in [
        (TaxonomyKind::Glottolog, 1.0),
        (TaxonomyKind::GeoNames, 1.0),
        (TaxonomyKind::Ncbi, 0.005),
    ] {
        let t = generate(kind, GenOptions { seed: 7, scale }).unwrap();
        let d = DatasetBuilder::new(&t, kind, 7).build(QuestionDataset::Hard).unwrap();
        let best = ModelId::ALL
            .iter()
            .map(|&m| runner.run(zoo.get(m).unwrap().as_ref(), &d).overall.accuracy())
            .fold(0.0f64, f64::max);
        assert!(
            (0.60..=0.82).contains(&best),
            "{kind}: best accuracy {best:.3}, paper says around 70%"
        );
    }
}

/// The calibration tables themselves must match a couple of cells the
/// paper text highlights verbatim.
#[test]
fn calibration_spot_checks_from_the_text() {
    // "the average miss rates of the Llama-3-70B model reduce from
    // 0.151 on the Hard datasets to 0.005 on the MCQ datasets."
    assert!((calib::mean_miss(ModelId::Llama3_70b, QuestionDataset::Hard) - 0.151).abs() < 0.005);
    assert!(calib::mean_miss(ModelId::Llama3_70b, QuestionDataset::Mcq) < 0.01);
    // "LLMs4OL boosts the averaged accuracy of Flan-T5-3B by 12.9%,
    // 12.9%, and 17.0% on the easy, hard, and MCQ datasets."
    let uplift = |flavor| {
        calib::mean_accuracy(ModelId::Llms4Ol, flavor) / calib::mean_accuracy(ModelId::FlanT5_3b, flavor)
            - 1.0
    };
    assert!((uplift(QuestionDataset::Easy) - 0.129).abs() < 0.02);
    assert!((uplift(QuestionDataset::Hard) - 0.129).abs() < 0.02);
    assert!((uplift(QuestionDataset::Mcq) - 0.170).abs() < 0.02);
}
