//! Paper-vs-measured comparison: given a grid of measured
//! [`EvalReport`]s, compute the per-cell deltas against the paper's
//! published anchors and summarize fidelity. This is the machinery
//! behind EXPERIMENTS.md.

use taxoglimpse_core::dataset::QuestionDataset;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::EvalReport;
use taxoglimpse_llm::calib;
use taxoglimpse_llm::profile::ModelId;

/// One (model, taxonomy) cell compared against the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellComparison {
    /// Model row.
    pub model: ModelId,
    /// Taxonomy column.
    pub taxonomy: TaxonomyKind,
    /// Measured accuracy.
    pub measured_a: f64,
    /// Paper accuracy.
    pub paper_a: f64,
    /// Measured miss rate.
    pub measured_m: f64,
    /// Paper miss rate.
    pub paper_m: f64,
}

impl CellComparison {
    /// Absolute accuracy delta.
    pub fn delta_a(&self) -> f64 {
        (self.measured_a - self.paper_a).abs()
    }

    /// Absolute miss-rate delta.
    pub fn delta_m(&self) -> f64 {
        (self.measured_m - self.paper_m).abs()
    }
}

/// Fidelity summary over a set of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonSummary {
    /// Which dataset flavor was compared.
    pub flavor: QuestionDataset,
    /// All compared cells.
    pub cells: Vec<CellComparison>,
}

impl ComparisonSummary {
    /// Compare measured reports (any subset of the model × taxonomy
    /// grid) against the paper's anchors for `flavor`.
    pub fn from_reports(flavor: QuestionDataset, reports: &[(ModelId, EvalReport)]) -> Self {
        let cells = reports
            .iter()
            .map(|(model, report)| {
                let (paper_a, paper_m) = calib::anchor(*model, report.taxonomy, flavor);
                CellComparison {
                    model: *model,
                    taxonomy: report.taxonomy,
                    measured_a: report.overall.accuracy(),
                    paper_a,
                    measured_m: report.overall.miss_rate(),
                    paper_m,
                }
            })
            .collect();
        ComparisonSummary { flavor, cells }
    }

    /// Mean absolute accuracy delta.
    pub fn mean_delta_a(&self) -> f64 {
        mean(self.cells.iter().map(CellComparison::delta_a))
    }

    /// Mean absolute miss-rate delta.
    pub fn mean_delta_m(&self) -> f64 {
        mean(self.cells.iter().map(CellComparison::delta_m))
    }

    /// Largest accuracy delta.
    pub fn max_delta_a(&self) -> f64 {
        self.cells.iter().map(CellComparison::delta_a).fold(0.0, f64::max)
    }

    /// Does the measured grid preserve the paper's *winner* per
    /// taxonomy? Returns the fraction of compared taxonomies whose
    /// best-measured model matches the best-paper model (ties broken by
    /// row order). Only meaningful when several models share a taxonomy.
    pub fn winner_agreement(&self) -> f64 {
        let mut taxonomies: Vec<TaxonomyKind> = self.cells.iter().map(|c| c.taxonomy).collect();
        taxonomies.sort();
        taxonomies.dedup();
        if taxonomies.is_empty() {
            return 1.0;
        }
        let mut agree = 0usize;
        for taxonomy in &taxonomies {
            let cells: Vec<&CellComparison> =
                self.cells.iter().filter(|c| c.taxonomy == *taxonomy).collect();
            let best_measured = cells
                .iter()
                .max_by(|a, b| a.measured_a.total_cmp(&b.measured_a))
                .map(|c| c.model);
            let best_paper = cells
                .iter()
                .max_by(|a, b| a.paper_a.total_cmp(&b.paper_a))
                .map(|c| c.model);
            if best_measured == best_paper {
                agree += 1;
            }
        }
        agree as f64 / taxonomies.len() as f64
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_core::dataset::DatasetBuilder;
    use taxoglimpse_core::grid::GridRunner;
    use taxoglimpse_llm::zoo::ModelZoo;
    use taxoglimpse_synth::{generate, GenOptions};

    fn measure(model: ModelId, kind: TaxonomyKind, flavor: QuestionDataset) -> EvalReport {
        let t = generate(kind, GenOptions { seed: 31, scale: 1.0 }).unwrap();
        let d = DatasetBuilder::new(&t, kind, 31).build(flavor).unwrap();
        let zoo = ModelZoo::default_zoo();
        GridRunner::default().run(zoo.get(model).unwrap().as_ref(), &d)
    }

    #[test]
    fn measured_ebay_hard_lands_near_the_paper() {
        let reports = vec![
            (ModelId::Gpt4, measure(ModelId::Gpt4, TaxonomyKind::Ebay, QuestionDataset::Hard)),
            (ModelId::Llama2_7b, measure(ModelId::Llama2_7b, TaxonomyKind::Ebay, QuestionDataset::Hard)),
            (ModelId::Falcon7b, measure(ModelId::Falcon7b, TaxonomyKind::Ebay, QuestionDataset::Hard)),
        ];
        let summary = ComparisonSummary::from_reports(QuestionDataset::Hard, &reports);
        assert!(summary.mean_delta_a() < 0.08, "mean dA {}", summary.mean_delta_a());
        assert!(summary.mean_delta_m() < 0.08, "mean dM {}", summary.mean_delta_m());
        assert_eq!(summary.winner_agreement(), 1.0);
    }

    #[test]
    fn empty_summary_is_benign() {
        let summary = ComparisonSummary { flavor: QuestionDataset::Easy, cells: vec![] };
        assert_eq!(summary.mean_delta_a(), 0.0);
        assert_eq!(summary.winner_agreement(), 1.0);
        assert_eq!(summary.max_delta_a(), 0.0);
    }
}
