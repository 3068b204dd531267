//! Prompting settings (§4.4, Figure 5): zero-shot, few-shot (five
//! exemplars with balanced Yes/No), and Chain-of-Thoughts ("Let's think
//! step by step.").

use crate::question::{GoldAnswer, Question, ABSTAIN_OPTION};
use crate::templates::{render_question_into, TemplateVariant};
use crate::text::EXEMPLAR_MARKER;
use std::fmt;

/// The Chain-of-Thoughts suffix of Figure 5 (bottom).
pub const COT_SUFFIX: &str = " Let's think step by step.";

/// The three prompting settings evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PromptSetting {
    /// Ask the question directly.
    #[default]
    ZeroShot,
    /// Prepend five exemplar question/answer pairs (Figure 5, top).
    FewShot,
    /// Append "Let's think step by step." (Figure 5, bottom).
    ChainOfThought,
}

taxoglimpse_json::unit_enum_json!(PromptSetting { ZeroShot, FewShot, ChainOfThought });

impl PromptSetting {
    /// All three settings.
    pub const ALL: [PromptSetting; 3] =
        [PromptSetting::ZeroShot, PromptSetting::FewShot, PromptSetting::ChainOfThought];

    /// Number of exemplars used by [`PromptSetting::FewShot`].
    pub const SHOTS: usize = 5;
}

impl fmt::Display for PromptSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PromptSetting::ZeroShot => "zero-shot",
            PromptSetting::FewShot => "few-shot",
            PromptSetting::ChainOfThought => "CoT",
        })
    }
}

/// Render a gold answer the way the exemplar block of Figure 5 does.
pub fn render_gold(gold: GoldAnswer) -> String {
    let mut out = String::new();
    render_gold_into(gold, &mut out);
    out
}

/// Append a gold answer the way the exemplar block of Figure 5 does.
pub fn render_gold_into(gold: GoldAnswer, out: &mut String) {
    match gold {
        GoldAnswer::Yes => out.push_str("Yes."),
        GoldAnswer::No => out.push_str("No."),
        GoldAnswer::Option(i) => {
            out.push((b'A' + i) as char);
            out.push(')');
        }
        GoldAnswer::Abstain => {
            out.push_str(ABSTAIN_OPTION);
            out.push('.');
        }
    }
}

/// Render the setting's prompt *prefix* — everything that precedes the
/// target question and is therefore shared by every question asked
/// under the same `(setting, variant, exemplars, shots)`.
///
/// Empty except for few-shot, where it is the exemplar block of
/// Figure 5 (top). The grid runner renders this once per work unit
/// and reuses it for every question and repeat — the few-shot prefix is
/// ~85% of the prompt bytes, so re-rendering it per question dominated
/// the old prompt-construction cost.
pub fn render_prefix(
    setting: PromptSetting,
    variant: TemplateVariant,
    exemplars: &[Question],
    shots: usize,
) -> String {
    let mut out = String::new();
    if setting != PromptSetting::FewShot {
        return out;
    }
    for (i, e) in exemplars.iter().take(shots).enumerate() {
        if i == 1 {
            // One rendered line is the best capacity estimate for the
            // rest — exemplar lines are near-uniform in length.
            out.reserve(out.len() * (shots.min(exemplars.len()) - 1));
        }
        out.push_str(EXEMPLAR_MARKER);
        render_question_into(e, variant, &mut out);
        out.push(' ');
        render_gold_into(e.gold(), &mut out);
        out.push('\n');
    }
    out
}

/// Render the full prompt for `question` into a reusable buffer, given
/// a prefix from [`render_prefix`] for the same setting and variant.
///
/// Clears `out` first, so a per-worker buffer can be reused across an
/// entire evaluation run without reallocating.
pub fn render_prompt_into(
    question: &Question,
    setting: PromptSetting,
    variant: TemplateVariant,
    prefix: &str,
    out: &mut String,
) {
    out.clear();
    out.push_str(prefix);
    render_question_into(question, variant, out);
    if setting == PromptSetting::ChainOfThought {
        out.push_str(COT_SUFFIX);
    }
}

/// Render the full prompt for `question` under `setting`, drawing up to
/// [`PromptSetting::SHOTS`] few-shot exemplars from `exemplars`.
pub fn render_prompt(
    question: &Question,
    setting: PromptSetting,
    variant: TemplateVariant,
    exemplars: &[Question],
) -> String {
    let mut out = render_prefix(setting, variant, exemplars, PromptSetting::SHOTS);
    render_question_into(question, variant, &mut out);
    if setting == PromptSetting::ChainOfThought {
        out.push_str(COT_SUFFIX);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::TaxonomyKind;
    use crate::question::QuestionBody;

    fn q(child: &str, candidate: &str, yes: bool) -> Question {
        Question {
            id: 0,
            taxonomy: TaxonomyKind::Ncbi,
            child: child.into(),
            child_level: 6,
            parent_level: 5,
            true_parent: "Verbascum".into(),
            instance_typing: false,
            body: QuestionBody::TrueFalse {
                candidate: candidate.into(),
                expected_yes: yes,
                negative: None,
            },
            surface_memo: Default::default(),
        }
    }

    #[test]
    fn zero_shot_is_just_the_question() {
        let p = render_prompt(&q("Verbascum chaixii", "Verbascum", true), PromptSetting::ZeroShot, TemplateVariant::Canonical, &[]);
        assert_eq!(p, "Is Verbascum chaixii a type of Verbascum? answer with (Yes/No/I don't know)");
    }

    #[test]
    fn cot_appends_the_figure_5_suffix() {
        let p = render_prompt(&q("a", "b", true), PromptSetting::ChainOfThought, TemplateVariant::Canonical, &[]);
        assert!(p.ends_with("Let's think step by step."));
    }

    #[test]
    fn few_shot_prepends_up_to_five_examples() {
        let exemplars: Vec<Question> = (0..8)
            .map(|i| q(&format!("c{i}"), &format!("p{i}"), i % 2 == 0))
            .collect();
        let p = render_prompt(&q("x", "y", true), PromptSetting::FewShot, TemplateVariant::Canonical, &exemplars);
        assert_eq!(p.matches("Example: ").count(), 5);
        assert!(p.contains("Yes.\n") || p.contains("Yes.\nExample"));
        assert!(p.contains("No."));
        assert!(p.trim_end().ends_with("(Yes/No/I don't know)"));
        // The target question comes last, unprefixed.
        assert!(p.lines().last().unwrap().starts_with("Is x a type of y?"));
    }

    #[test]
    fn few_shot_with_no_exemplars_degenerates_to_zero_shot() {
        let p = render_prompt(&q("x", "y", true), PromptSetting::FewShot, TemplateVariant::Canonical, &[]);
        assert_eq!(p, render_prompt(&q("x", "y", true), PromptSetting::ZeroShot, TemplateVariant::Canonical, &[]));
    }

    #[test]
    fn shot_count_is_configurable() {
        let exemplars: Vec<Question> = (0..10)
            .map(|i| q(&format!("c{i}"), &format!("p{i}"), i % 2 == 0))
            .collect();
        for shots in [0usize, 1, 3, 5, 8] {
            let p = render_prefix(PromptSetting::FewShot, TemplateVariant::Canonical, &exemplars, shots);
            assert_eq!(p.matches("Example: ").count(), shots, "shots = {shots}");
        }
        // Shot count is irrelevant outside few-shot.
        let z = render_prefix(PromptSetting::ZeroShot, TemplateVariant::Canonical, &exemplars, 9);
        assert!(!z.contains("Example"));
    }

    #[test]
    fn gold_rendering() {
        assert_eq!(render_gold(GoldAnswer::Yes), "Yes.");
        assert_eq!(render_gold(GoldAnswer::No), "No.");
        assert_eq!(render_gold(GoldAnswer::Option(0)), "A)");
        assert_eq!(render_gold(GoldAnswer::Option(3)), "D)");
        assert_eq!(render_gold(GoldAnswer::Abstain), "None of the above.");
    }
}
