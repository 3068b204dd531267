//! Free-text response synthesis.
//!
//! The harness parses model output like it would a real API response, so
//! simulated models answer in family-specific natural-language phrasing
//! — terse for Flan-T5, chatty for Llama-chat, polite hedging for the
//! assistants — with deterministic variation. The CoT setting prepends a
//! short "reasoning" passage before the verdict, as real models do.

use crate::profile::{ModelFamily, ModelId};
use taxoglimpse_core::prompts::PromptSetting;
use taxoglimpse_core::question::Question;
use taxoglimpse_synth::rng::mix64;

/// What the model decided to say, before phrasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Affirmative TF answer.
    Yes,
    /// Negative TF answer.
    No,
    /// Abstention.
    IDontKnow,
    /// MCQ option index.
    Option(u8),
}

/// Render `verdict` as natural language in the voice of `model`.
pub fn render(
    model: ModelId,
    question: &Question,
    verdict: Verdict,
    setting: PromptSetting,
    noise: u64,
) -> String {
    // Pick the phrasing-variant index first, then construct only the
    // picked variant — building every variant just to clone one was
    // pure allocation waste on the hot path.
    let pick = |n: usize, salt: u64| (mix64(noise ^ salt) % n as u64) as usize;
    let core = match verdict {
        Verdict::Yes => match model.family() {
            ModelFamily::FlanT5 | ModelFamily::Llms4Ol => "yes".to_owned(),
            ModelFamily::Gpt | ModelFamily::Claude => match pick(3, 1) {
                0 => format!("Yes, {} is a type of {}.", question.child, question.shown_candidate()),
                1 => format!("Yes — {} falls under {}.", question.child, question.shown_candidate()),
                _ => "Yes.".to_owned(),
            },
            _ => match pick(3, 2) {
                0 => "Yes.".to_owned(),
                1 => "Sure! The answer is: Yes".to_owned(),
                _ => format!("Yes, that's correct — {} belongs there.", question.child),
            },
        },
        Verdict::No => match model.family() {
            ModelFamily::FlanT5 | ModelFamily::Llms4Ol => "no".to_owned(),
            ModelFamily::Gpt | ModelFamily::Claude => match pick(3, 3) {
                0 => format!("No, {} is not a type of {}.", question.child, question.shown_candidate()),
                1 => "No.".to_owned(),
                _ => format!("No — {} belongs to a different category.", question.child),
            },
            _ => match pick(2, 4) {
                0 => "No.".to_owned(),
                _ => "No, that is not correct.".to_owned(),
            },
        },
        Verdict::IDontKnow => match pick(3, 5) {
            0 => "I don't know.".to_owned(),
            1 => "I don't know the answer to that.".to_owned(),
            _ => format!("I'm not sure about {}, so I don't know.", question.child),
        },
        Verdict::Option(i) => {
            let letter = (b'A' + i) as char;
            match model.family() {
                ModelFamily::FlanT5 | ModelFamily::Llms4Ol => format!("{letter})"),
                ModelFamily::Gpt | ModelFamily::Claude => match pick(3, 6) {
                    0 => format!("The answer is {letter}."),
                    1 => format!("{letter})"),
                    _ => format!("The most appropriate supertype is {letter})."),
                },
                _ => match pick(2, 7) {
                    0 => format!("{letter})"),
                    _ => format!("I would choose {letter}."),
                },
            }
        }
    };

    if setting == PromptSetting::ChainOfThought && !matches!(model.family(), ModelFamily::FlanT5 | ModelFamily::Llms4Ol) {
        format!(
            "Let's think step by step. {} is an entity at a certain level of this hierarchy; \
             comparing it with the proposed supertype and its typical members, we can decide. {core}",
            question.child
        )
    } else {
        core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_core::domain::TaxonomyKind;
    use taxoglimpse_core::parse::{parse_mcq, parse_tf, ParsedAnswer};
    use taxoglimpse_core::question::QuestionBody;

    fn q() -> Question {
        Question {
            id: 0,
            taxonomy: TaxonomyKind::Ncbi,
            child: "Verbascum chaixii".into(),
            child_level: 6,
            parent_level: 5,
            true_parent: "Verbascum".into(),
            instance_typing: false,
            body: QuestionBody::TrueFalse {
                candidate: "Verbascum".into(),
                expected_yes: true,
                negative: None,
            },
            surface_memo: Default::default(),
        }
    }

    fn mcq() -> Question {
        Question {
            body: QuestionBody::Mcq {
                options: ["w".into(), "Verbascum".into(), "x".into(), "y".into()],
                correct: 1,
            },
            ..q()
        }
    }

    /// Whatever a model says, the harness must parse it back to the
    /// intended verdict — over all models, verdicts and noise values.
    #[test]
    fn every_rendering_parses_back() {
        for model in ModelId::ALL {
            for noise in 0..24u64 {
                for setting in [PromptSetting::ZeroShot, PromptSetting::ChainOfThought] {
                    for (verdict, expect) in [
                        (Verdict::Yes, ParsedAnswer::Yes),
                        (Verdict::No, ParsedAnswer::No),
                        (Verdict::IDontKnow, ParsedAnswer::IDontKnow),
                    ] {
                        let text = render(model, &q(), verdict, setting, noise);
                        assert_eq!(parse_tf(&text), expect, "{model} {setting} {noise}: {text:?}");
                    }
                    for i in 0..4u8 {
                        let text = render(model, &mcq(), Verdict::Option(i), setting, noise);
                        assert_eq!(
                            parse_mcq(&text),
                            ParsedAnswer::Option(i),
                            "{model} {setting} {noise}: {text:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render(ModelId::Gpt4, &q(), Verdict::Yes, PromptSetting::ZeroShot, 7);
        let b = render(ModelId::Gpt4, &q(), Verdict::Yes, PromptSetting::ZeroShot, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn cot_adds_reasoning_for_chat_models() {
        let cot = render(ModelId::Gpt4, &q(), Verdict::Yes, PromptSetting::ChainOfThought, 1);
        assert!(cot.contains("step by step"));
        let flan = render(ModelId::FlanT5_3b, &q(), Verdict::Yes, PromptSetting::ChainOfThought, 1);
        assert_eq!(flan, "yes");
    }

    #[test]
    fn flan_is_terse() {
        assert_eq!(render(ModelId::FlanT5_11b, &q(), Verdict::No, PromptSetting::ZeroShot, 0), "no");
        assert_eq!(
            render(ModelId::Llms4Ol, &mcq(), Verdict::Option(2), PromptSetting::ZeroShot, 0),
            "C)"
        );
    }
}
