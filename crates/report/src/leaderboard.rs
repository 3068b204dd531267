//! Model leaderboards: rank models by pooled accuracy over a set of
//! evaluation reports, printed beside its Wilson confidence interval,
//! with macro-average accuracy and miss rates alongside — the "which
//! model should I use for taxonomy work" view for the paper's
//! industrial audience.

use taxoglimpse_core::eval::EvalReport;
use taxoglimpse_core::metrics::Metrics;

/// One leaderboard row.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardEntry {
    /// Model name.
    pub model: String,
    /// Macro-average accuracy over the model's reports (each report
    /// weighted equally, like the paper's per-taxonomy averages).
    pub macro_accuracy: f64,
    /// Macro-average miss rate.
    pub macro_miss: f64,
    /// Macro-average availability (fraction of questions whose model
    /// call delivered any answer; 1.0 in a fault-free run).
    pub macro_availability: f64,
    /// Micro (pooled) metrics across all the model's questions.
    pub pooled: Metrics,
    /// Number of reports (taxonomy × flavor cells) aggregated.
    pub cells: usize,
}

impl LeaderboardEntry {
    /// Wilson 95% CI on the pooled accuracy.
    pub fn accuracy_ci95(&self) -> (f64, f64) {
        self.pooled.accuracy_ci95()
    }
}

/// Build a leaderboard from reports (any mix of taxonomies/flavors);
/// rows sorted by pooled accuracy, best first, so the ranking and the
/// printed CIs describe the same number.
pub fn leaderboard(reports: &[EvalReport]) -> Vec<LeaderboardEntry> {
    let mut by_model: std::collections::BTreeMap<&str, Vec<&EvalReport>> = Default::default();
    for r in reports {
        by_model.entry(&r.model).or_default().push(r);
    }
    let mut rows: Vec<LeaderboardEntry> = by_model
        .into_iter()
        .map(|(model, rs)| {
            let n = rs.len() as f64;
            let macro_accuracy = rs.iter().map(|r| r.overall.accuracy()).sum::<f64>() / n;
            let macro_miss = rs.iter().map(|r| r.overall.miss_rate()).sum::<f64>() / n;
            let macro_availability =
                rs.iter().map(|r| r.overall.availability()).sum::<f64>() / n;
            let pooled = rs.iter().map(|r| r.overall).sum();
            LeaderboardEntry {
                model: model.to_owned(),
                macro_accuracy,
                macro_miss,
                macro_availability,
                pooled,
                cells: rs.len(),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.pooled.accuracy().total_cmp(&a.pooled.accuracy()));
    rows
}

/// Render a leaderboard as an aligned text table.
pub fn render(rows: &[LeaderboardEntry]) -> String {
    let mut table = crate::table::Table::new(
        "Leaderboard (ranked by A pooled over all questions, with its 95% CI; macro = mean over cells)"
            .to_owned(),
        vec![
            "#".into(),
            "Model".into(),
            "A".into(),
            "95% CI".into(),
            "macro A".into(),
            "macro M".into(),
            "avail".into(),
            "cells".into(),
            "questions".into(),
        ],
    );
    for (i, row) in rows.iter().enumerate() {
        let (lo, hi) = row.accuracy_ci95();
        table.push_row(vec![
            (i + 1).to_string(),
            row.model.clone(),
            format!("{:.3}", row.pooled.accuracy()),
            format!("[{lo:.3}, {hi:.3}]"),
            format!("{:.3}", row.macro_accuracy),
            format!("{:.3}", row.macro_miss),
            format!("{:.3}", row.macro_availability),
            row.cells.to_string(),
            row.pooled.total().to_string(),
        ]);
    }
    table.render_ascii()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_core::dataset::QuestionDataset;
    use taxoglimpse_core::domain::TaxonomyKind;
    use taxoglimpse_core::eval::LevelMetrics;
    use taxoglimpse_core::prompts::PromptSetting;

    fn report(model: &str, correct: usize, wrong: usize, missed: usize) -> EvalReport {
        let metrics = Metrics { correct, missed, wrong, failed: 0 };
        EvalReport {
            model: model.into(),
            taxonomy: TaxonomyKind::Ebay,
            flavor: QuestionDataset::Hard,
            setting: PromptSetting::ZeroShot,
            overall: metrics,
            by_level: vec![LevelMetrics { child_level: 1, metrics }],
        }
    }

    /// Macro and pooled accuracy order these models alike; the ranking
    /// rule is checked below, where they differ.
    #[test]
    fn groups_cells_per_model_with_macro_and_pooled_totals() {
        let reports = vec![
            report("weak", 40, 60, 0),
            report("strong", 90, 10, 0),
            report("strong", 80, 20, 0),
            report("mid", 60, 40, 0),
        ];
        let rows = leaderboard(&reports);
        let names: Vec<&str> = rows.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(names, vec!["strong", "mid", "weak"]);
        assert_eq!(rows[0].cells, 2);
        assert!((rows[0].macro_accuracy - 0.85).abs() < 1e-12);
        assert_eq!(rows[0].pooled.total(), 200);
    }

    #[test]
    fn ci_brackets_the_estimate() {
        let rows = leaderboard(&[report("m", 80, 20, 0)]);
        let (lo, hi) = rows[0].accuracy_ci95();
        assert!(lo < 0.8 && 0.8 < hi);
    }

    #[test]
    fn render_contains_every_model() {
        let rows = leaderboard(&[report("alpha", 5, 5, 0), report("beta", 9, 1, 0)]);
        let text = render(&rows);
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.lines().count() >= 5);
    }

    /// Macro and pooled accuracy disagree here: `few` has one perfect
    /// small cell and one poor large one (macro 0.6, pooled 0.27), so a
    /// macro ranking would put it above `many` (0.5 both ways).
    #[test]
    fn printed_ci_brackets_pooled_accuracy_in_rank_order() {
        let rows = leaderboard(&[
            report("few", 10, 0, 0),
            report("few", 20, 80, 0),
            report("many", 50, 50, 0),
            report("many", 50, 40, 10),
            report("tail", 3, 90, 7),
        ]);
        let text = render(&rows);
        let mut last = f64::INFINITY;
        for row in &rows {
            let line = text.lines().find(|l| l.contains(&row.model)).expect("row printed");
            let cols: Vec<f64> = line
                .split(|c: char| c.is_whitespace() || "[],".contains(c))
                .filter_map(|w| w.parse().ok())
                .collect();
            // `#`, then A, CI low, CI high.
            let (a, lo, hi) = (cols[1], cols[2], cols[3]);
            assert!(lo <= a && a <= hi, "{}: A {a} outside [{lo}, {hi}]", row.model);
            assert!(a <= last, "{}: A {a} ranked below {last}", row.model);
            last = a;
        }
    }

    #[test]
    fn empty_input_is_empty_board() {
        assert!(leaderboard(&[]).is_empty());
    }

    #[test]
    fn availability_reflects_failed_deliveries() {
        let mut degraded = report("flaky", 6, 2, 0);
        degraded.overall.failed = 2;
        let rows = leaderboard(&[degraded, report("solid", 8, 2, 0)]);
        let flaky = rows.iter().find(|r| r.model == "flaky").expect("flaky row present");
        let solid = rows.iter().find(|r| r.model == "solid").expect("solid row present");
        assert!((flaky.macro_availability - 0.8).abs() < 1e-12);
        assert_eq!(solid.macro_availability, 1.0);
        let text = render(&rows);
        assert!(text.contains("avail"));
        assert!(text.contains("0.800"));
    }
}
