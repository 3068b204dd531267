//! Free-text response synthesis.
//!
//! The harness parses model output like it would a real API response, so
//! simulated models answer in family-specific natural-language phrasing
//! — terse for Flan-T5, chatty for Llama-chat, polite hedging for the
//! assistants — with deterministic variation. The CoT setting prepends a
//! short "reasoning" passage before the verdict, as real models do.

use crate::profile::{ModelFamily, ModelId};
use std::fmt::Write;
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

/// The chain-of-thought reasoning passage, around the child's name.
const COT_OPEN: &str = "Let's think step by step. ";
const COT_CLOSE: &str = " is an entity at a certain level of this hierarchy; \
    comparing it with the proposed supertype and its typical members, we can decide. ";

/// Render `verdict` as natural language in the voice of `model`.
pub fn render(
    model: ModelId,
    question: &Question,
    verdict: Verdict,
    setting: PromptSetting,
    noise: u64,
) -> String {
    let mut out = String::new();
    render_into(model, question, verdict, setting, noise, &mut out);
    out
}

/// [`render`] into `out`, replacing what it held: a caller rendering
/// many replies reuses one buffer, whose capacity grows to the longest
/// reply and then stops allocating.
pub fn render_into(
    model: ModelId,
    question: &Question,
    verdict: Verdict,
    setting: PromptSetting,
    noise: u64,
    out: &mut String,
) {
    // Pick the phrasing-variant index first, then write only the picked
    // variant, behind the CoT preamble when there is one, into a buffer
    // with room for the longest variant, so writing never reallocates.
    let pick = |n: usize, salt: u64| (mix64(noise ^ salt) % n as u64) as usize;
    let child = &question.child;
    let candidate = question.shown_candidate();
    let cot = setting == PromptSetting::ChainOfThought
        && !matches!(model.family(), ModelFamily::FlanT5 | ModelFamily::Llms4Ol);
    let preamble = if cot { COT_OPEN.len() + child.len() + COT_CLOSE.len() } else { 0 };
    out.clear();
    out.reserve(preamble + child.len() + candidate.len() + 48);
    if cot {
        out.push_str(COT_OPEN);
        out.push_str(child);
        out.push_str(COT_CLOSE);
    }
    // Writing into a String cannot fail.
    let _ = match verdict {
        Verdict::Yes => match model.family() {
            ModelFamily::FlanT5 | ModelFamily::Llms4Ol => out.write_str("yes"),
            ModelFamily::Gpt | ModelFamily::Claude => match pick(3, 1) {
                0 => write!(out, "Yes, {child} is a type of {candidate}."),
                1 => write!(out, "Yes — {child} falls under {candidate}."),
                _ => out.write_str("Yes."),
            },
            _ => match pick(3, 2) {
                0 => out.write_str("Yes."),
                1 => out.write_str("Sure! The answer is: Yes"),
                _ => write!(out, "Yes, that's correct — {child} belongs there."),
            },
        },
        Verdict::No => match model.family() {
            ModelFamily::FlanT5 | ModelFamily::Llms4Ol => out.write_str("no"),
            ModelFamily::Gpt | ModelFamily::Claude => match pick(3, 3) {
                0 => write!(out, "No, {child} is not a type of {candidate}."),
                1 => out.write_str("No."),
                _ => write!(out, "No — {child} belongs to a different category."),
            },
            _ => match pick(2, 4) {
                0 => out.write_str("No."),
                _ => out.write_str("No, that is not correct."),
            },
        },
        Verdict::IDontKnow => match pick(3, 5) {
            0 => out.write_str("I don't know."),
            1 => out.write_str("I don't know the answer to that."),
            _ => write!(out, "I'm not sure about {child}, so I don't know."),
        },
        Verdict::Option(i) => {
            let letter = (b'A' + i) as char;
            match model.family() {
                ModelFamily::FlanT5 | ModelFamily::Llms4Ol => write!(out, "{letter})"),
                ModelFamily::Gpt | ModelFamily::Claude => match pick(3, 6) {
                    0 => write!(out, "The answer is {letter}."),
                    1 => write!(out, "{letter})"),
                    _ => write!(out, "The most appropriate supertype is {letter})."),
                },
                _ => match pick(2, 7) {
                    0 => write!(out, "{letter})"),
                    _ => write!(out, "I would choose {letter}."),
                },
            }
        }
    };
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
