//! Per-question surface similarity: the [`Surface`] record every
//! simulated model and lexical baseline reads instead of rescoring the
//! names, filled once per question by `DatasetBuilder::build` or on
//! first read through [`Question::surface`].

use crate::question::Question;
use crate::text::{jaccard_from_counts, Trigrams};
use std::sync::OnceLock;

/// A question's raw surface features: how the child's name relates, as
/// text, to each name the question puts next to it. It is a pure
/// function of the names and holds no model weights, so every model
/// and prompt setting reads the same record.
///
/// Slot `i` is the `i`-th of [`Question::surface_names`]: the shown
/// names, then for a TF question its true parent. A record has
/// [`Surface::SLOTS`] slots, which covers every generated question: a
/// sibling round shows at most four children.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Surface {
    /// Per slot, packed into 32 bits so that every clone of a question
    /// (each response-cache entry holds one) stays small: the
    /// child↔name trigram counts of [`Trigrams::overlap`] (`union` in
    /// bits 0–13, `shared` in bits 16–29, both zero when they need
    /// more bits, which takes names of over ten kilobytes), two bits of
    /// [`Surface::names_hash`] in bits 14–15, then
    /// [`Surface::CONTAINS`] and [`Surface::HEAD`].
    slots: [u32; Surface::SLOTS],
}

impl Surface {
    /// Names a record covers.
    pub const SLOTS: usize = 4;
    /// The TF candidate's slot.
    pub const CANDIDATE: usize = 0;
    /// A TF question's true-parent slot.
    pub const TRUE_PARENT: usize = 1;
    /// Slot flag: the name has at least four bytes and occurs in the
    /// child's name, ignoring ASCII case.
    const CONTAINS: u32 = 1 << 30;
    /// Slot flag: the name's last space-separated word, less a trailing
    /// lowercase `s`, has at least three bytes and occurs in the child's
    /// name, ignoring ASCII case.
    const HEAD: u32 = 1 << 31;

    /// Record `question`'s features, reusing the `child` and `name`
    /// trigram buffers.
    pub(crate) fn of(question: &Question, [child, name]: &mut [Trigrams; 2]) -> Surface {
        child.set(&question.child);
        let mut surface = Surface::default();
        let mut previous: Option<(&str, u32)> = None;
        for (slot, concept) in surface.slots.iter_mut().zip(question.surface_names()) {
            *slot = match previous {
                // A positive TF question's candidate is its true parent.
                Some((last, packed)) if last == concept => packed,
                _ => Surface::slot(child, name, concept),
            };
            previous = Some((concept, *slot));
        }
        let names = u32::from(Surface::names_hash(question));
        for (i, slot) in surface.slots.iter_mut().enumerate() {
            *slot |= (names >> (2 * i) & 0b11) << 14;
        }
        surface
    }

    /// One slot's packed features of `concept` against `child`, using
    /// `name` as its trigram buffer.
    fn slot(child: &Trigrams, name: &mut Trigrams, concept: &str) -> u32 {
        name.set(concept);
        let (shared, union) = child.overlap(name);
        let mut slot = 0;
        if shared < 1 << 14 && union < 1 << 14 {
            slot = (shared << 16 | union) as u32;
        }
        if concept.len() >= 4 && child.lower().contains(name.lower()) {
            slot |= Surface::CONTAINS;
        }
        // The head is cut from the original spelling, so a trailing
        // uppercase `S` stays; ASCII lowering keeps byte offsets.
        let start = concept.rfind(' ').map_or(0, |i| i + 1);
        let head = &concept[start..];
        let head = head.strip_suffix('s').unwrap_or(head);
        if head.len() >= 3 && child.lower().contains(&name.lower()[start..start + head.len()]) {
            slot |= Surface::HEAD;
        }
        slot
    }

    /// Whether this record was computed from `question`'s current child
    /// and surface names, as far as the record's 8-bit hash of them
    /// tells.
    pub(crate) fn describes(&self, question: &Question) -> bool {
        let names = self.slots.iter().enumerate().fold(0, |names, (i, slot)| {
            names | (slot >> 14 & 0b11) << (2 * i)
        });
        names == u32::from(Surface::names_hash(question))
    }

    /// 32-bit FNV-1a of the child and the surface names, each ended by a
    /// `0xFF` byte (which UTF-8 text never holds), folded to 8 bits. A
    /// record carried onto other names then fails a debug assertion.
    fn names_hash(question: &Question) -> u8 {
        let names = std::iter::once(question.child.as_str()).chain(question.surface_names());
        let hash = names.flat_map(|name| name.bytes().chain([0xFF])).fold(0x811C_9DC5, |hash, byte| {
            (hash ^ u32::from(byte)).wrapping_mul(0x0100_0193)
        });
        let hash = hash ^ hash >> 16;
        (hash ^ hash >> 8) as u8
    }

    /// Trigram similarity of the child to slot `slot`'s name, or `None`
    /// when the record does not hold it; [`Question::similarity_to`]
    /// then scores the names directly.
    #[inline]
    pub fn similarity(&self, slot: usize) -> Option<f64> {
        let packed = *self.slots.get(slot)?;
        let (shared, union) = (packed >> 16 & 0x3FFF, packed & 0x3FFF);
        (union > 0).then(|| jaccard_from_counts(shared as usize, union as usize))
    }

    /// Whether slot `slot`'s whole name occurs in the child's.
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        self.slots[slot] & Surface::CONTAINS != 0
    }

    /// Whether slot `slot`'s head noun occurs in the child's name.
    #[inline]
    pub fn head_matches(&self, slot: usize) -> bool {
        self.slots[slot] & Surface::HEAD != 0
    }
}

/// [`Question::surface`]'s memo. It is not serialized and every memo
/// equals every other, so filling one never changes what a question
/// writes or how it compares.
#[derive(Debug, Clone, Default)]
pub struct SurfaceMemo(pub(crate) OnceLock<Surface>);

impl PartialEq for SurfaceMemo {
    fn eq(&self, _: &SurfaceMemo) -> bool {
        true
    }
}

impl Eq for SurfaceMemo {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::TaxonomyKind;
    use crate::question::QuestionBody;
    use crate::text::similarity;

    /// Reference copies of the record's containment and head-noun
    /// rules, so a drift in either place fails loudly here.
    fn direct_contains(name: &str, concept: &str) -> bool {
        concept.len() >= 4 && name.to_ascii_lowercase().contains(&concept.to_ascii_lowercase())
    }

    fn direct_head_matches(name: &str, concept: &str) -> bool {
        let head = concept.split(' ').next_back().unwrap_or(concept);
        let head = head.strip_suffix('s').unwrap_or(head);
        head.len() >= 3 && name.to_ascii_lowercase().contains(&head.to_ascii_lowercase())
    }

    const CORPUS: [&str; 14] = [
        "", "a", "ab", "abc", "ABC", "Verbascum chaixii", "Verbascum", "Wireless Speakers",
        "Audio", "CARS", "cars", "Pencils", "acute cardiac lesion AE", "naïve café names",
    ];

    /// A TF question showing `candidate` to `child`.
    fn candidate_question(child: &str, candidate: &str) -> Question {
        Question {
            id: 1,
            taxonomy: TaxonomyKind::Ebay,
            child: child.into(),
            child_level: 2,
            parent_level: 1,
            true_parent: candidate.into(),
            instance_typing: false,
            body: QuestionBody::TrueFalse {
                candidate: candidate.into(),
                expected_yes: true,
                negative: None,
            },
            surface_memo: SurfaceMemo::default(),
        }
    }

    /// The record of a TF question showing `candidate` to `child`.
    fn candidate_slot(child: &str, candidate: &str) -> Surface {
        *candidate_question(child, candidate).surface()
    }

    #[test]
    fn similarity_matches_direct_on_corpus() {
        for a in CORPUS {
            for b in CORPUS {
                let recorded = candidate_slot(a, b).similarity(Surface::CANDIDATE);
                let expected = Some(similarity(a, b).to_bits());
                assert_eq!(recorded.map(f64::to_bits), expected, "similarity({a:?}, {b:?})");
            }
        }
    }

    #[test]
    fn containment_and_heads_match_direct_on_corpus() {
        for a in CORPUS {
            for b in CORPUS {
                let surface = candidate_slot(a, b);
                let at = format!("({a:?}, {b:?})");
                let slot = Surface::CANDIDATE;
                assert_eq!(surface.contains(slot), direct_contains(a, b), "{at}");
                assert_eq!(surface.head_matches(slot), direct_head_matches(a, b), "{at}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale surface memo")]
    fn memo_carried_onto_other_names_is_caught() {
        let question = candidate_question("Wireless Speakers", "Audio");
        question.surface();
        Question { child: "Wireless Speaker".into(), ..question }.surface();
    }

    #[test]
    fn uppercase_trailing_s_is_not_stripped() {
        // The rule strips only a lowercase `s`; "CARS" keeps it and must
        // therefore not head-match "three car garage".
        let head = |name, concept| candidate_slot(name, concept).head_matches(Surface::CANDIDATE);
        assert!(!head("three car garage", "CARS"));
        assert!(head("three cars here", "CARS"));
        assert!(head("Compact Pencil X137", "Pencils"));
    }
}
