//! Question templates — the paper's Tables 2 (True/False) and 3 (MCQ),
//! plus the paraphrase variants mentioned in §2.2 ("a kind of" / "a sort
//! of" for TF; "suitable" / "proper" for MCQ).

use crate::domain::{Domain, TaxonomyKind};
use crate::question::{Question, QuestionBody, ABSTAIN_OPTION};

/// Template paraphrase variant (§2.2: results are stable under slight
/// paraphrasing; the paper reports the canonical templates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TemplateVariant {
    /// "a type of" / "most appropriate".
    #[default]
    Canonical,
    /// "a kind of" / "most suitable".
    ParaphraseA,
    /// "a sort of" / "most proper".
    ParaphraseB,
}

impl TemplateVariant {
    /// All three variants.
    pub const ALL: [TemplateVariant; 3] =
        [TemplateVariant::Canonical, TemplateVariant::ParaphraseA, TemplateVariant::ParaphraseB];

    fn type_of(self) -> &'static str {
        match self {
            TemplateVariant::Canonical => "a type of",
            TemplateVariant::ParaphraseA => "a kind of",
            TemplateVariant::ParaphraseB => "a sort of",
        }
    }

    fn appropriate(self) -> &'static str {
        match self {
            TemplateVariant::Canonical => "appropriate",
            TemplateVariant::ParaphraseA => "suitable",
            TemplateVariant::ParaphraseB => "proper",
        }
    }
}

/// The domain-specific noun phrase appended to entity names in the
/// templates (Table 2/3), e.g. "products" for Shopping — appended to
/// `out` so the runner's hot path can reuse one buffer per worker.
fn tf_phrase_into(kind: TaxonomyKind, name: &str, out: &mut String) {
    out.push_str(name);
    out.push_str(match kind.domain() {
        Domain::Shopping => " products",
        Domain::General => " entity type",
        Domain::ComputerScience => " computer science research concept",
        Domain::Geography => " geographical concept",
        Domain::Language => " language",
        Domain::Health | Domain::Biology => "",
        Domain::Medical => " Adverse Events concept",
    });
}

fn mcq_phrase_into(kind: TaxonomyKind, name: &str, out: &mut String) {
    out.push_str(name);
    out.push_str(match kind.domain() {
        Domain::Shopping => " product",
        Domain::General => " entity type",
        Domain::ComputerScience => " research concept",
        Domain::Geography => " geographical concept",
        Domain::Language => " language",
        Domain::Health | Domain::Biology => "",
        Domain::Medical => " Adverse Events concept",
    });
}

/// Append the True/False question text for `(child, candidate)` in the
/// domain phrasing of Table 2.
pub fn render_tf_into(
    kind: TaxonomyKind,
    variant: TemplateVariant,
    child: &str,
    candidate: &str,
    out: &mut String,
) {
    out.push_str(if kind.domain() == Domain::Shopping { "Are " } else { "Is " });
    tf_phrase_into(kind, child, out);
    out.push(' ');
    out.push_str(variant.type_of());
    out.push(' ');
    tf_phrase_into(kind, candidate, out);
    out.push_str("? answer with (Yes/No/I don't know)");
}

/// Render the True/False question text for `(child, candidate)` in the
/// domain phrasing of Table 2.
pub fn render_tf(kind: TaxonomyKind, variant: TemplateVariant, child: &str, candidate: &str) -> String {
    let mut out = String::new();
    render_tf_into(kind, variant, child, candidate, &mut out);
    out
}

/// Append the MCQ question text of Table 3: the question, then
/// `options` as lettered choices from `A)`.
pub fn render_mcq_into(
    kind: TaxonomyKind,
    variant: TemplateVariant,
    child: &str,
    options: &[String],
    out: &mut String,
) {
    out.push_str("What is the most ");
    out.push_str(variant.appropriate());
    out.push_str(" supertype of ");
    mcq_phrase_into(kind, child, out);
    out.push('?');
    for (i, option) in options.iter().enumerate() {
        out.push(' ');
        out.push((b'A' + i as u8) as char);
        out.push_str(") ");
        out.push_str(option);
    }
}

/// Append a constrained-descent sibling round: the shown children as
/// lettered options, then the abstain option as the next letter — a
/// full four-child round reads `… D) <child> E) None of the above`.
pub fn render_sibling_into(
    kind: TaxonomyKind,
    variant: TemplateVariant,
    child: &str,
    options: &[String],
    out: &mut String,
) {
    render_mcq_into(kind, variant, child, options, out);
    out.push(' ');
    out.push((b'A' + options.len() as u8) as char);
    out.push_str(") ");
    out.push_str(ABSTAIN_OPTION);
}

/// Render a constrained-descent sibling round.
pub fn render_sibling(
    kind: TaxonomyKind,
    variant: TemplateVariant,
    child: &str,
    options: &[String],
) -> String {
    let mut out = String::new();
    render_sibling_into(kind, variant, child, options, &mut out);
    out
}

/// Render the MCQ question text of Table 3.
pub fn render_mcq(
    kind: TaxonomyKind,
    variant: TemplateVariant,
    child: &str,
    options: &[String; 4],
) -> String {
    let mut out = String::new();
    render_mcq_into(kind, variant, child, options, &mut out);
    out
}

/// Append any question in its domain template.
pub fn render_question_into(q: &Question, variant: TemplateVariant, out: &mut String) {
    match &q.body {
        QuestionBody::TrueFalse { candidate, .. } => {
            render_tf_into(q.taxonomy, variant, &q.child, candidate, out)
        }
        QuestionBody::Mcq { options, .. } => {
            render_mcq_into(q.taxonomy, variant, &q.child, options, out)
        }
        QuestionBody::Sibling { options, .. } => {
            render_sibling_into(q.taxonomy, variant, &q.child, options, out)
        }
    }
}

/// Render any question in its domain template.
pub fn render_question(q: &Question, variant: TemplateVariant) -> String {
    let mut out = String::new();
    render_question_into(q, variant, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shopping_tf_matches_table_2() {
        let s = render_tf(TaxonomyKind::Ebay, TemplateVariant::Canonical, "Wireless Speakers", "Audio");
        assert_eq!(
            s,
            "Are Wireless Speakers products a type of Audio products? answer with (Yes/No/I don't know)"
        );
    }

    #[test]
    fn health_tf_is_bare() {
        let s = render_tf(TaxonomyKind::Icd10Cm, TemplateVariant::Canonical, "A15 Tuberculosis", "A15-A19 Mycobacterial diseases");
        assert_eq!(
            s,
            "Is A15 Tuberculosis a type of A15-A19 Mycobacterial diseases? answer with (Yes/No/I don't know)"
        );
    }

    #[test]
    fn biology_tf_is_bare() {
        let s = render_tf(TaxonomyKind::Ncbi, TemplateVariant::Canonical, "Verbascum chaixii", "Verbascum");
        assert!(s.starts_with("Is Verbascum chaixii a type of Verbascum?"));
    }

    #[test]
    fn language_tf_matches_example_1() {
        // The paper's running example: "Is Sinitic language a type of
        // Sino-Tibetan language?"
        let s = render_tf(TaxonomyKind::Glottolog, TemplateVariant::Canonical, "Sinitic", "Sino-Tibetan");
        assert_eq!(
            s,
            "Is Sinitic language a type of Sino-Tibetan language? answer with (Yes/No/I don't know)"
        );
    }

    #[test]
    fn medical_tf_mentions_adverse_events() {
        let s = render_tf(TaxonomyKind::Oae, TemplateVariant::Canonical, "acute cardiac lesion AE", "cardiac lesion AE");
        assert!(s.contains("Adverse Events concept"));
    }

    #[test]
    fn paraphrases_change_only_the_relation() {
        let a = render_tf(TaxonomyKind::Schema, TemplateVariant::Canonical, "Book", "CreativeWork");
        let b = render_tf(TaxonomyKind::Schema, TemplateVariant::ParaphraseA, "Book", "CreativeWork");
        let c = render_tf(TaxonomyKind::Schema, TemplateVariant::ParaphraseB, "Book", "CreativeWork");
        assert!(a.contains("a type of"));
        assert!(b.contains("a kind of"));
        assert!(c.contains("a sort of"));
        assert_eq!(a.replace("a type of", "X"), b.replace("a kind of", "X"));
    }

    #[test]
    fn mcq_lists_four_options() {
        let options = ["Audio".to_string(), "Video".into(), "Garden".into(), "Books".into()];
        let s = render_mcq(TaxonomyKind::Google, TemplateVariant::Canonical, "Wireless Speakers", &options);
        assert_eq!(
            s,
            "What is the most appropriate supertype of Wireless Speakers product? A) Audio B) Video C) Garden D) Books"
        );
        let p = render_mcq(TaxonomyKind::Google, TemplateVariant::ParaphraseA, "Wireless Speakers", &options);
        assert!(p.contains("most suitable"));
    }

    #[test]
    fn sibling_round_appends_abstain_letter() {
        let options = vec!["Audio".to_string(), "Video".into(), "Garden".into(), "Books".into()];
        let s = render_sibling(TaxonomyKind::Google, TemplateVariant::Canonical, "Wireless Speakers", &options);
        assert_eq!(
            s,
            "What is the most appropriate supertype of Wireless Speakers product? A) Audio B) Video C) Garden D) Books E) None of the above"
        );
        let short = render_sibling(TaxonomyKind::Google, TemplateVariant::Canonical, "Wireless Speakers", &options[..2].to_vec());
        assert!(short.ends_with("A) Audio B) Video C) None of the above"));
    }

    #[test]
    fn geography_and_cs_phrases() {
        let g = render_tf(TaxonomyKind::GeoNames, TemplateVariant::Canonical, "fjord", "H — stream, lake");
        assert!(g.contains("geographical concept"));
        let c = render_mcq(
            TaxonomyKind::AcmCcs,
            TemplateVariant::Canonical,
            "Distributed databases",
            &["a".into(), "b".into(), "c".into(), "d".into()],
        );
        assert!(c.contains("research concept"));
    }
}
