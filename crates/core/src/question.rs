//! Question data model.

use crate::domain::TaxonomyKind;
use crate::similarity::{Surface, SurfaceMemo};
use crate::text::{similarity, Trigrams};
use taxoglimpse_json::{FromJson, Json, JsonError, ToJson};

/// The abstain option appended to every sibling MCQ (rendered as the
/// letter after the last child option, e.g. "E) None of the above" when
/// four children are shown). Shared by the templates, the parser's
/// abstention vocabulary, and the gold-answer renderer so all three
/// stay in sync.
pub const ABSTAIN_OPTION: &str = "None of the above";

/// Which negative-sampling regime produced a negative question (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NegativeKind {
    /// Candidate parent drawn uniformly from the parent level minus the
    /// true parent.
    Easy,
    /// Candidate parent drawn from the child's *uncles* (siblings of the
    /// true parent) — surface-similar, therefore hard.
    Hard,
}

/// Coarse question family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuestionKind {
    /// Yes/No/I-don't-know.
    TrueFalse,
    /// Four options, one correct.
    Mcq,
}

/// The answerable payload of a question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuestionBody {
    /// "Is `<child>` a type of `<candidate>`?"
    TrueFalse {
        /// The candidate parent presented to the model.
        candidate: String,
        /// Ground truth: is the candidate the true parent?
        expected_yes: bool,
        /// `None` for positives; the sampling regime for negatives.
        negative: Option<NegativeKind>,
    },
    /// "What is the most appropriate supertype of `<child>`?" with four
    /// options.
    Mcq {
        /// The four options in presentation order.
        options: [String; 4],
        /// Index (0–3) of the correct option.
        correct: u8,
    },
    /// A constrained-descent sibling round: the options are exactly the
    /// children of one taxonomy node shown this round (1–4 of them),
    /// plus an implicit [`ABSTAIN_OPTION`] rendered as the next letter.
    /// Invalid labels are impossible by construction — every selectable
    /// option names a real child, and everything else is an abstention.
    Sibling {
        /// The child concepts shown this round, in taxonomy child order.
        options: Vec<String>,
        /// Index of the gold child among the shown options, or `None`
        /// when the gold child is not in this round (the correct
        /// response is the abstain option).
        correct: Option<u8>,
    },
}

impl QuestionBody {
    /// Which question family this body belongs to.
    pub fn kind(&self) -> QuestionKind {
        match self {
            QuestionBody::TrueFalse { .. } => QuestionKind::TrueFalse,
            QuestionBody::Mcq { .. } | QuestionBody::Sibling { .. } => QuestionKind::Mcq,
        }
    }
}

/// One benchmark question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Unique id within its dataset (stable across runs for a fixed
    /// seed).
    pub id: u64,
    /// The taxonomy the question probes.
    pub taxonomy: TaxonomyKind,
    /// Child entity name (or instance name for instance typing).
    pub child: String,
    /// Level of the child entity (for instance typing: the level of the
    /// leaf concept the instance belongs to; instance itself is treated
    /// as one deeper).
    pub child_level: usize,
    /// Level of the candidate parent(s)/ancestor.
    pub parent_level: usize,
    /// The ground-truth parent (TF) or correct option (MCQ) — also used
    /// by simulated models for surface-similarity evidence, mirroring
    /// how a real LLM sees the true relation in its training data.
    pub true_parent: String,
    /// Whether this is an instance-typing question (§4.5) rather than a
    /// concept-level hierarchy question.
    pub instance_typing: bool,
    /// The payload.
    pub body: QuestionBody,
    /// Memo behind [`Question::surface`]. Build questions with
    /// `Default::default()` here; the memo fills itself on first read.
    /// `Clone` copies a filled memo, so a question made from another by
    /// struct update (`Question { body, ..q.clone() }`) must set this to
    /// `Default::default()` too, or it would read `q`'s record; debug
    /// builds assert that the record matches the names.
    pub surface_memo: SurfaceMemo,
}

impl Question {
    /// An ad-hoc true/false probe posed outside any dataset: "Is `child`
    /// a type of `candidate`?", with `candidate` as the true parent one
    /// level above the child. `negative: None` expects Yes; a negative
    /// regime expects No. Id 0 and concept-level; set `id` or
    /// `instance_typing` by struct update where a probe needs otherwise
    /// (the memo is still empty, so that is safe).
    pub fn probe(
        taxonomy: TaxonomyKind,
        child: &str,
        candidate: &str,
        parent_level: usize,
        negative: Option<NegativeKind>,
    ) -> Question {
        Question {
            id: 0,
            taxonomy,
            child: child.to_owned(),
            child_level: parent_level + 1,
            parent_level,
            true_parent: candidate.to_owned(),
            instance_typing: false,
            body: QuestionBody::TrueFalse {
                candidate: candidate.to_owned(),
                expected_yes: negative.is_none(),
                negative,
            },
            surface_memo: Default::default(),
        }
    }

    /// Which question family this is.
    pub fn kind(&self) -> QuestionKind {
        self.body.kind()
    }

    /// For TF questions: the expected boolean; `None` for MCQ.
    pub fn expected_yes(&self) -> Option<bool> {
        match &self.body {
            QuestionBody::TrueFalse { expected_yes, .. } => Some(*expected_yes),
            QuestionBody::Mcq { .. } | QuestionBody::Sibling { .. } => None,
        }
    }

    /// The names offered as answers: the TF candidate, the MCQ options
    /// or the sibling round's children.
    pub fn shown_names(&self) -> &[String] {
        match &self.body {
            QuestionBody::TrueFalse { candidate, .. } => std::slice::from_ref(candidate),
            QuestionBody::Mcq { options, .. } => options,
            QuestionBody::Sibling { options, .. } => options,
        }
    }

    /// The names a [`Surface`] record covers, in slot order: the shown
    /// names, then for a TF question its true parent.
    pub fn surface_names(&self) -> impl Iterator<Item = &str> {
        let parent = matches!(self.body, QuestionBody::TrueFalse { .. })
            .then_some(self.true_parent.as_str());
        self.shown_names().iter().map(String::as_str).chain(parent)
    }

    /// This question's surface record, computed on first read.
    pub fn surface(&self) -> &Surface {
        self.fill_surface(&mut Default::default())
    }

    /// [`Question::surface`], computing a missing record with `scratch`'s
    /// trigram buffers.
    pub(crate) fn fill_surface(&self, scratch: &mut [Trigrams; 2]) -> &Surface {
        let surface = self.surface_memo.0.get_or_init(|| Surface::of(self, scratch));
        debug_assert!(surface.describes(self), "stale surface memo on question {}", self.id);
        surface
    }

    /// The child's trigram similarity to surface slot `slot`'s name:
    /// read from the record, or scored directly for a name the record
    /// does not hold. `0.0` for a slot the question does not have.
    pub fn similarity_to(&self, slot: usize) -> f64 {
        match self.surface().similarity(slot) {
            Some(sim) => sim,
            None => self.surface_names().nth(slot).map_or(0.0, |n| similarity(&self.child, n)),
        }
    }

    /// [`Question::similarity_to`] each of [`Question::shown_names`], in
    /// order.
    pub fn shown_similarities(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.shown_names().len()).map(|slot| self.similarity_to(slot))
    }

    /// The candidate parent shown to the model (TF) or the correct
    /// option (MCQ).
    pub fn shown_candidate(&self) -> &str {
        match &self.body {
            QuestionBody::TrueFalse { candidate, .. } => candidate,
            QuestionBody::Mcq { options, correct } => &options[*correct as usize],
            QuestionBody::Sibling { options, correct } => match correct {
                Some(c) => &options[*c as usize],
                None => ABSTAIN_OPTION,
            },
        }
    }
}

taxoglimpse_json::unit_enum_json!(NegativeKind { Easy, Hard });

// Hand-written, not `struct_json!`: each variant is a single-key object around its fields.
impl ToJson for QuestionBody {
    fn to_json(&self) -> Json {
        match self {
            QuestionBody::TrueFalse { candidate, expected_yes, negative } => Json::obj(vec![(
                "TrueFalse",
                Json::obj(vec![
                    ("candidate", candidate.to_json()),
                    ("expected_yes", expected_yes.to_json()),
                    ("negative", negative.to_json()),
                ]),
            )]),
            QuestionBody::Mcq { options, correct } => Json::obj(vec![(
                "Mcq",
                Json::obj(vec![("options", options.to_json()), ("correct", correct.to_json())]),
            )]),
            QuestionBody::Sibling { options, correct } => Json::obj(vec![(
                "Sibling",
                Json::obj(vec![("options", options.to_json()), ("correct", correct.to_json())]),
            )]),
        }
    }
}

impl FromJson for QuestionBody {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        if let Some(body) = json.get("TrueFalse") {
            Ok(QuestionBody::TrueFalse {
                candidate: body.field_as("candidate")?,
                expected_yes: body.field_as("expected_yes")?,
                negative: body.field_as("negative")?,
            })
        } else if let Some(body) = json.get("Mcq") {
            Ok(QuestionBody::Mcq {
                options: body.field_as("options")?,
                correct: body.field_as("correct")?,
            })
        } else if let Some(body) = json.get("Sibling") {
            Ok(QuestionBody::Sibling {
                options: body.field_as("options")?,
                correct: body.field_as("correct")?,
            })
        } else {
            Err(JsonError::msg("expected a `TrueFalse`, `Mcq`, or `Sibling` variant object"))
        }
    }
}

taxoglimpse_json::struct_json!(Question {
    id, taxonomy, child, child_level, parent_level, true_parent, instance_typing, body; surface_memo
});

/// The gold answer to a question, used for scoring and for rendering
/// few-shot exemplars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldAnswer {
    /// TF positive.
    Yes,
    /// TF negative.
    No,
    /// MCQ: the correct option index.
    Option(u8),
    /// Sibling round where the gold child is not among the shown
    /// options: the correct response is the abstain option.
    Abstain,
}

impl Question {
    /// The gold answer.
    pub fn gold(&self) -> GoldAnswer {
        match &self.body {
            QuestionBody::TrueFalse { expected_yes: true, .. } => GoldAnswer::Yes,
            QuestionBody::TrueFalse { expected_yes: false, .. } => GoldAnswer::No,
            QuestionBody::Mcq { correct, .. } => GoldAnswer::Option(*correct),
            QuestionBody::Sibling { correct: Some(c), .. } => GoldAnswer::Option(*c),
            QuestionBody::Sibling { correct: None, .. } => GoldAnswer::Abstain,
        }
    }
}

/// The "is `a` a kind of `b`?" true/false question (gold: yes) the
/// model, cache and resilience unit tests share.
#[cfg(test)]
pub(crate) fn tf_question(id: u64) -> Question {
    Question {
        id,
        taxonomy: TaxonomyKind::Ebay,
        child: "a".into(),
        child_level: 1,
        parent_level: 0,
        true_parent: "b".into(),
        instance_typing: false,
        body: QuestionBody::TrueFalse { candidate: "b".into(), expected_yes: true, negative: None },
        surface_memo: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tf(expected: bool) -> Question {
        Question {
            id: 1,
            taxonomy: TaxonomyKind::Ebay,
            child: "Wireless Speakers".into(),
            child_level: 2,
            parent_level: 1,
            true_parent: "Audio".into(),
            instance_typing: false,
            body: QuestionBody::TrueFalse {
                candidate: if expected { "Audio".into() } else { "Garden Tools".into() },
                expected_yes: expected,
                negative: (!expected).then_some(NegativeKind::Easy),
            },
            surface_memo: Default::default(),
        }
    }

    #[test]
    fn gold_answers() {
        assert_eq!(tf(true).gold(), GoldAnswer::Yes);
        assert_eq!(tf(false).gold(), GoldAnswer::No);
        let mcq = Question {
            body: QuestionBody::Mcq {
                options: ["a".into(), "b".into(), "c".into(), "d".into()],
                correct: 2,
            },
            ..tf(true)
        };
        assert_eq!(mcq.gold(), GoldAnswer::Option(2));
        assert_eq!(mcq.shown_candidate(), "c");
        assert_eq!(mcq.kind(), QuestionKind::Mcq);
        assert_eq!(mcq.expected_yes(), None);
    }

    #[test]
    fn shown_candidate_for_tf() {
        assert_eq!(tf(true).shown_candidate(), "Audio");
        assert_eq!(tf(false).shown_candidate(), "Garden Tools");
        assert_eq!(tf(true).expected_yes(), Some(true));
    }

    #[test]
    fn surface_record_stays_inline() {
        // 184 bytes on 64-bit targets before the memo. The inline record
        // may add at most 48 bytes and no heap allocation: every
        // dataset holds its questions inline.
        assert_eq!(std::mem::size_of::<Question>(), 184 + 16);
    }

    #[test]
    fn json_round_trip() {
        let q = tf(false);
        let json = taxoglimpse_json::to_string(&q).unwrap();
        let back: Question = taxoglimpse_json::from_str(&json).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn sibling_gold_and_round_trip() {
        let hit = Question {
            body: QuestionBody::Sibling {
                options: vec!["a".into(), "b".into(), "c".into()],
                correct: Some(1),
            },
            ..tf(true)
        };
        assert_eq!(hit.gold(), GoldAnswer::Option(1));
        assert_eq!(hit.shown_candidate(), "b");
        assert_eq!(hit.kind(), QuestionKind::Mcq);
        assert_eq!(hit.expected_yes(), None);
        let miss = Question {
            body: QuestionBody::Sibling { options: vec!["a".into()], correct: None },
            ..tf(true)
        };
        assert_eq!(miss.gold(), GoldAnswer::Abstain);
        assert_eq!(miss.shown_candidate(), ABSTAIN_OPTION);
        for q in [hit, miss] {
            let json = taxoglimpse_json::to_string(&q).unwrap();
            let back: Question = taxoglimpse_json::from_str(&json).unwrap();
            assert_eq!(back, q);
        }
    }
}
