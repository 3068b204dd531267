//! Free-text answer extraction.
//!
//! Models answer in whatever phrasing they like ("Yes, X is a type of
//! Y.", "The correct answer is B) Audio.", "I don't know the answer to
//! that."); the harness normalizes those into [`ParsedAnswer`]s. A
//! response that cannot be parsed counts as *wrong* (not as a miss),
//! matching the paper's accuracy/miss bookkeeping where only explicit
//! abstentions are misses.

use crate::question::{Question, QuestionKind};
use taxoglimpse_json::{FromJson, Json, JsonError, ToJson};

/// Normalized model answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsedAnswer {
    /// Affirmative.
    Yes,
    /// Negative.
    No,
    /// Explicit abstention ("I don't know").
    IDontKnow,
    /// MCQ option index 0–3.
    Option(u8),
    /// Unintelligible response.
    Unparsed,
}

// Hand-written, not `struct_json!`: a data variant (`{"Option":2}`) beside unit-variant strings.
impl ToJson for ParsedAnswer {
    fn to_json(&self) -> Json {
        match self {
            ParsedAnswer::Yes => Json::Str("Yes".to_owned()),
            ParsedAnswer::No => Json::Str("No".to_owned()),
            ParsedAnswer::IDontKnow => Json::Str("IDontKnow".to_owned()),
            ParsedAnswer::Unparsed => Json::Str("Unparsed".to_owned()),
            ParsedAnswer::Option(i) => Json::obj(vec![("Option", i.to_json())]),
        }
    }
}

impl FromJson for ParsedAnswer {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        if let Some(idx) = json.get("Option") {
            return u8::from_json(idx).map(ParsedAnswer::Option);
        }
        match json.as_str() {
            Some("Yes") => Ok(ParsedAnswer::Yes),
            Some("No") => Ok(ParsedAnswer::No),
            Some("IDontKnow") => Ok(ParsedAnswer::IDontKnow),
            Some("Unparsed") => Ok(ParsedAnswer::Unparsed),
            Some(other) => Err(JsonError::msg(format!("unknown ParsedAnswer variant `{other}`"))),
            None => Err(JsonError::mismatch("string or Option object", json)),
        }
    }
}

/// Parse a True/False response.
///
/// One forward pass over word-boundary tokens; the **first** event in
/// token order wins:
///
/// * a decisive token — "yes"/"yeah"/"yep", "no"/"nope", or a judgement
///   token "correct"/"true"/"incorrect"/"false" (flipped by a directly
///   preceding "not") — decides the answer, even if hedging follows
///   ("No, I cannot say for sure …" is a No, not an abstention);
/// * a *completed* abstention phrase — "don't know" / "dont know" /
///   "do not know", "not sure", "unsure", "uncertain",
///   "cannot determine" / "can't determine", "cannot say" — abstains.
///
/// "no" must be a whole word so "know"/"north" do not trigger it, and
/// the interjections "yes"/"no" themselves are never negated ("not no"
/// is not idiomatic English).
///
/// The scan is byte-level and allocation-free: tokens are maximal runs
/// of ASCII-alphanumeric bytes compared case-insensitively. This splits
/// exactly like the old per-`char` scan — a non-ASCII char is never
/// ASCII-alphanumeric, so every byte of its UTF-8 encoding is a
/// separator either way.
pub fn parse_tf(response: &str) -> ParsedAnswer {
    let bytes = response.as_bytes();
    let eq = |a: &[u8], b: &[u8]| a.eq_ignore_ascii_case(b);
    let mut prev: &[u8] = b"";
    let mut prev2: &[u8] = b"";
    let mut i = 0;
    while i < bytes.len() {
        while i < bytes.len() && !bytes[i].is_ascii_alphanumeric() {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
            i += 1;
        }
        if start == i {
            break;
        }
        let token = &bytes[start..i];
        let prev_not = eq(prev, b"not");
        if eq(token, b"yes") || eq(token, b"yeah") || eq(token, b"yep") {
            return ParsedAnswer::Yes;
        }
        if eq(token, b"no") || eq(token, b"nope") {
            return ParsedAnswer::No;
        }
        if eq(token, b"correct") || eq(token, b"true") {
            return if prev_not { ParsedAnswer::No } else { ParsedAnswer::Yes };
        }
        if eq(token, b"incorrect") || eq(token, b"false") {
            return if prev_not { ParsedAnswer::Yes } else { ParsedAnswer::No };
        }
        // Abstention phrases complete on their last word ("don't know"
        // tokenizes as don|t|know, "can't determine" as can|t|determine).
        let abstains = eq(token, b"unsure")
            || eq(token, b"uncertain")
            || (eq(token, b"sure") && prev_not)
            || (eq(token, b"know")
                && (eq(prev, b"dont")
                    || (eq(prev, b"t") && eq(prev2, b"don"))
                    || (prev_not && eq(prev2, b"do"))))
            || (eq(token, b"determine")
                && (eq(prev, b"cannot") || (eq(prev, b"t") && eq(prev2, b"can"))))
            || (eq(token, b"say") && eq(prev, b"cannot"));
        if abstains {
            return ParsedAnswer::IDontKnow;
        }
        prev2 = prev;
        prev = token;
    }
    ParsedAnswer::Unparsed
}

/// Abstention phrases recognized in MCQ responses.
const MCQ_ABSTENTIONS: [&[u8]; 6] =
    [b"don't know", b"dont know", b"do not know", b"not sure", b"none of", b"cannot determine"];

/// Pattern-1 markers, in priority order: the option letter follows
/// them ("answer is X", "option X", "choose X").
const MCQ_MARKERS: [&[u8]; 6] =
    [b"answer is", b"answer:", b"option", b"choose", b"select", b"pick"];

/// Cue bit of a standalone "x)" option reference, after one bit per
/// abstention phrase and one per marker.
const PAREN_CUE: usize = MCQ_ABSTENTIONS.len() + MCQ_MARKERS.len();

/// `MCQ_CUE_BYTES[k][b]`: the cues whose byte `k` can be `b`. A cue is
/// a phrase (bit `p` for abstention phrase `p`, bit `6 + m` for marker
/// `m`; its byte `k` in either ASCII case) or [`PAREN_CUE`] (a letter
/// a–e in either case, `')'`, then any byte). A cue can start at `i`
/// only if its bit survives the AND of the three rows at `text[i]`,
/// `text[i + 1]` and `text[i + 2]` (0 past the end), which rules out
/// nearly every position of ordinary text without a comparison.
const MCQ_CUE_BYTES: [[u16; 256]; 3] = {
    let mut rows = [[0u16; 256]; 3];
    let mut cue = 0;
    while cue < PAREN_CUE {
        let phrase = if cue < MCQ_ABSTENTIONS.len() {
            MCQ_ABSTENTIONS[cue]
        } else {
            MCQ_MARKERS[cue - MCQ_ABSTENTIONS.len()]
        };
        let mut k = 0;
        while k < 3 {
            rows[k][phrase[k] as usize] |= 1 << cue;
            rows[k][phrase[k].to_ascii_uppercase() as usize] |= 1 << cue;
            k += 1;
        }
        cue += 1;
    }
    let mut letter = b'a';
    while letter <= b'e' {
        rows[0][letter as usize] |= 1 << PAREN_CUE;
        rows[0][letter.to_ascii_uppercase() as usize] |= 1 << PAREN_CUE;
        letter += 1;
    }
    rows[1][b')' as usize] |= 1 << PAREN_CUE;
    let mut byte = 0;
    while byte < 256 {
        rows[2][byte] |= 1 << PAREN_CUE;
        byte += 1;
    }
    rows
};

/// Index of the explicit abstain slot: the letter after 'd'. A response
/// that resolves to 'e' ("E) None of the above", "The answer is E") can
/// never name one of the four content options, so it parses as an
/// abstention rather than an option index.
const ABSTAIN_SLOT: u8 = 4;

/// Parse an MCQ response into an option index.
///
/// A decisive option reference wins over a *later* abstention phrase
/// ("B) — none of the other options fit." picks B); the response only
/// abstains when no option reference precedes the first hedge. Two
/// explicit abstain-option forms are recognized: the letter 'e'
/// resolves to the abstain slot, and a response that *echoes* the
/// option list (two or more distinct standalone "x)" references) before
/// a bare "none of the above" is an abstention, not a pick of the first
/// echoed letter.
///
/// Option references are looked for in three patterns, in priority
/// order: (1) a letter after a marker ("The answer is: B", "I would
/// choose c)"), trying "answer is", "answer:", "option", "choose",
/// "select" and "pick" in that order, each at its first occurrence;
/// (2) a leading letter, possibly wrapped in
/// punctuation ("B", "(b)", "B) Audio"); (3) the first standalone "x)".
/// An option-list echo suppresses patterns 2 and 3.
///
/// One forward, allocation-free scan over the trimmed bytes (case
/// folded in the comparisons, never copied) finds everything the
/// patterns need: where each marker first starts, which standalone
/// "x)" letters occur, and where the first abstention phrase starts.
/// The scan stops there, because option extraction is scoped to the
/// text before the first hedge: an option named after it ("I don't
/// know … maybe B?") is not a commitment.
pub fn parse_mcq(response: &str) -> ParsedAnswer {
    let text = response.trim().as_bytes();
    if text.is_empty() {
        return ParsedAnswer::Unparsed;
    }
    let mut scope = text.len();
    let mut marker_at = [None; MCQ_MARKERS.len()];
    // Bit per letter a–e seen as a standalone "x)", and the first one.
    let mut echoed = 0u8;
    let mut first_paren = None;
    // A two-stage pipeline over the bytes (two zeros appended): `one`
    // holds the cues that can start at the previous byte, `two` those
    // that can start two bytes back, which this byte settles.
    let (mut one, mut two) = (0u16, 0u16);
    'scan: for (j, &byte) in text.iter().chain(&[0, 0]).enumerate() {
        let byte = usize::from(byte);
        let mut cues = two & MCQ_CUE_BYTES[2][byte];
        two = one & MCQ_CUE_BYTES[1][byte];
        one = MCQ_CUE_BYTES[0][byte];
        while cues != 0 {
            let (cue, i) = (cues.trailing_zeros() as usize, j - 2);
            cues &= cues - 1;
            if cue < MCQ_ABSTENTIONS.len() {
                if starts_with_phrase(&text[i..], MCQ_ABSTENTIONS[cue]) {
                    scope = i;
                    break 'scan;
                }
            } else if cue < PAREN_CUE {
                let m = cue - MCQ_ABSTENTIONS.len();
                if marker_at[m].is_none() && starts_with_phrase(&text[i..], MCQ_MARKERS[m]) {
                    marker_at[m] = Some(i);
                }
            } else if i == 0 || !text[i - 1].is_ascii_alphanumeric() {
                // A letter a–e then `')'`, not inside a word.
                let letter = text[i].to_ascii_lowercase() - b'a';
                echoed |= 1 << letter;
                first_paren.get_or_insert(letter);
            }
        }
    }
    let scoped = &text[..scope];
    match extract_option(scoped, &marker_at, echoed, first_paren) {
        Some(opt) if opt >= ABSTAIN_SLOT => ParsedAnswer::IDontKnow,
        Some(opt) => ParsedAnswer::Option(opt),
        None if scope < text.len() => ParsedAnswer::IDontKnow,
        None => ParsedAnswer::Unparsed,
    }
}

/// Whether `text` starts with `phrase`, ignoring ASCII case.
#[inline]
fn starts_with_phrase(text: &[u8], phrase: &[u8]) -> bool {
    text.get(..phrase.len()).is_some_and(|head| head.eq_ignore_ascii_case(phrase))
}

/// Apply patterns 1–3 to the scoped text, given what the scan found.
fn extract_option(
    scoped: &[u8],
    marker_at: &[Option<usize>; MCQ_MARKERS.len()],
    echoed: u8,
    first_paren: Option<u8>,
) -> Option<u8> {
    // Pattern 1. Punctuation and whitespace may separate the marker
    // from the letter ("answer is — B", "answer is 'C'"), but the marker
    // must end at a word boundary: "optional b" and "chooses b" hold
    // marker words only as fragments. A marker whose first occurrence
    // runs past the scope does not count.
    let marked = MCQ_MARKERS.iter().zip(marker_at).find_map(|(marker, at)| {
        let after = scoped.get(at.as_ref()? + marker.len()..)?;
        let skip = after.iter().take_while(|b| !b.is_ascii_alphanumeric()).count();
        if skip == 0 && !after.is_empty() {
            return None;
        }
        letter_at(&after[skip..])
    });
    if marked.is_some() {
        return marked;
    }
    // An option-list echo ("A) x B) y … — none of the above.") names
    // two or more DISTINCT standalone letters: the model is reciting the
    // options, not answering with the first one, so only an explicit
    // marker extracts from it and a trailing hedge can decide.
    if echoed.count_ones() >= 2 {
        return None;
    }
    // Pattern 2, then pattern 3.
    let lead = scoped.iter().take_while(|b| matches!(b, b'(' | b'[' | b'"' | b'\'' | b' ')).count();
    letter_at(&scoped[lead..]).or(first_paren)
}

/// If `s` starts with an option letter a–e followed by a non-alphanumeric
/// byte (or the end), return its index ('e' is the abstain slot,
/// [`ABSTAIN_SLOT`]).
#[inline]
fn letter_at(s: &[u8]) -> Option<u8> {
    let (&first, rest) = s.split_first()?;
    let letter = first.to_ascii_lowercase();
    let boundary = rest.first().is_none_or(|b| !b.is_ascii_alphanumeric());
    ((b'a'..=b'e').contains(&letter) && boundary).then(|| letter - b'a')
}

/// Parse a response with the parser for the question's kind: true/false
/// questions go to [`parse_tf`], MCQ and sibling rounds to
/// [`parse_mcq`].
#[inline]
pub fn parse_answer(question: &Question, text: &str) -> ParsedAnswer {
    match question.kind() {
        QuestionKind::TrueFalse => parse_tf(text),
        QuestionKind::Mcq => parse_mcq(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tf_plain_forms() {
        assert_eq!(parse_tf("Yes"), ParsedAnswer::Yes);
        assert_eq!(parse_tf("yes."), ParsedAnswer::Yes);
        assert_eq!(parse_tf("No"), ParsedAnswer::No);
        assert_eq!(parse_tf("NO!"), ParsedAnswer::No);
        assert_eq!(parse_tf("I don't know"), ParsedAnswer::IDontKnow);
        assert_eq!(parse_tf("I do not know."), ParsedAnswer::IDontKnow);
    }

    #[test]
    fn tf_verbose_forms() {
        assert_eq!(parse_tf("Yes, Hailu is a type of Hakka-Chinese."), ParsedAnswer::Yes);
        assert_eq!(parse_tf("No, that is not correct."), ParsedAnswer::No);
        assert_eq!(parse_tf("Sure! The answer is: Yes"), ParsedAnswer::Yes);
        assert_eq!(parse_tf("That is true."), ParsedAnswer::Yes);
        assert_eq!(parse_tf("False."), ParsedAnswer::No);
        assert_eq!(
            parse_tf("As an AI, I am not sure about this taxonomy."),
            ParsedAnswer::IDontKnow
        );
    }

    #[test]
    fn tf_know_does_not_mean_no() {
        assert_eq!(parse_tf("I know this one: yes"), ParsedAnswer::Yes);
        // "know" alone must not parse as "no".
        assert_eq!(parse_tf("know"), ParsedAnswer::Unparsed);
        assert_eq!(parse_tf("North is a direction"), ParsedAnswer::Unparsed);
    }

    #[test]
    fn tf_garbage_is_unparsed() {
        assert_eq!(parse_tf(""), ParsedAnswer::Unparsed);
        assert_eq!(parse_tf("lorem ipsum dolor"), ParsedAnswer::Unparsed);
        assert_eq!(parse_tf("   "), ParsedAnswer::Unparsed);
    }

    #[test]
    fn tf_first_decisive_token_wins() {
        assert_eq!(parse_tf("Yes. No. Maybe."), ParsedAnswer::Yes);
        assert_eq!(parse_tf("No — although some say yes."), ParsedAnswer::No);
    }

    #[test]
    fn tf_negated_judgement_flips() {
        // Regression: these used to parse as Yes because "true"/"correct"
        // were matched without looking at the preceding "not".
        assert_eq!(parse_tf("That is not true."), ParsedAnswer::No);
        assert_eq!(parse_tf("That is not correct."), ParsedAnswer::No);
        assert_eq!(parse_tf("This statement is not   true."), ParsedAnswer::No);
        // Double negation reads as agreement.
        assert_eq!(parse_tf("That is not false."), ParsedAnswer::Yes);
        assert_eq!(parse_tf("Not incorrect."), ParsedAnswer::Yes);
        // An earlier decisive interjection still wins over a later bigram.
        assert_eq!(parse_tf("No, that is not correct."), ParsedAnswer::No);
        assert_eq!(parse_tf("Yes — it is not false to say so."), ParsedAnswer::Yes);
        // "not" only negates the directly following judgement token.
        assert_eq!(parse_tf("It is not just plausible but true."), ParsedAnswer::Yes);
    }

    #[test]
    fn mcq_letter_forms() {
        assert_eq!(parse_mcq("B"), ParsedAnswer::Option(1));
        assert_eq!(parse_mcq("b)"), ParsedAnswer::Option(1));
        assert_eq!(parse_mcq("(C)"), ParsedAnswer::Option(2));
        assert_eq!(parse_mcq("D."), ParsedAnswer::Option(3));
        assert_eq!(parse_mcq("A) Audio"), ParsedAnswer::Option(0));
    }

    #[test]
    fn mcq_verbose_forms() {
        assert_eq!(parse_mcq("The answer is B."), ParsedAnswer::Option(1));
        assert_eq!(parse_mcq("I would choose c) because it fits."), ParsedAnswer::Option(2));
        assert_eq!(parse_mcq("The most appropriate option is therefore d)."), ParsedAnswer::Option(3));
        assert_eq!(parse_mcq("answer: a"), ParsedAnswer::Option(0));
    }

    #[test]
    fn mcq_abstentions_and_garbage() {
        assert_eq!(parse_mcq("I don't know."), ParsedAnswer::IDontKnow);
        assert_eq!(parse_mcq("None of the above."), ParsedAnswer::IDontKnow);
        assert_eq!(parse_mcq(""), ParsedAnswer::Unparsed);
        assert_eq!(parse_mcq("The options all look wrong"), ParsedAnswer::Unparsed);
    }

    #[test]
    fn mcq_does_not_misread_words_starting_with_letters() {
        // "Audio" starts with 'a' but is not an option reference.
        assert_eq!(parse_mcq("Audio equipment is nice"), ParsedAnswer::Unparsed);
        // "cab)" should not match 'b' because it is preceded by a letter.
        assert_eq!(parse_mcq("the cab) arrived"), ParsedAnswer::Unparsed);
    }

    #[test]
    fn mcq_marker_tolerates_punctuation_before_letter() {
        // Regression: "answer is X" used to require the letter to follow
        // the marker immediately, so a colon/dash/quote broke extraction.
        assert_eq!(parse_mcq("The answer is: B"), ParsedAnswer::Option(1));
        assert_eq!(parse_mcq("The answer is — B"), ParsedAnswer::Option(1));
        assert_eq!(parse_mcq("The answer is 'C'."), ParsedAnswer::Option(2));
        assert_eq!(parse_mcq("answer:\n  d"), ParsedAnswer::Option(3));
        assert_eq!(parse_mcq("I would pick (a)."), ParsedAnswer::Option(0));
    }

    #[test]
    fn mcq_marker_requires_word_boundary() {
        // Marker words embedded in longer words must not trigger
        // extraction of whatever letter follows.
        assert_eq!(parse_mcq("optional b sides exist"), ParsedAnswer::Unparsed);
        assert_eq!(parse_mcq("he chooses b sometimes"), ParsedAnswer::Unparsed);
        assert_eq!(parse_mcq("the answer isn't clear"), ParsedAnswer::Unparsed);
        assert_eq!(parse_mcq("selection b is moot"), ParsedAnswer::Unparsed);
    }

    #[test]
    fn mcq_decisive_option_beats_later_hedge() {
        // Regression: the abstention scan used to run first, so a decisive
        // answer followed by hedging was misread as IDontKnow.
        assert_eq!(
            parse_mcq("B) — none of the other options fit."),
            ParsedAnswer::Option(1)
        );
        assert_eq!(
            parse_mcq("The answer is a; I am not sure about the rest."),
            ParsedAnswer::Option(0)
        );
        // But an option named only AFTER the hedge is not a commitment.
        assert_eq!(parse_mcq("I don't know — maybe b)?"), ParsedAnswer::IDontKnow);
        assert_eq!(parse_mcq("Not sure. Could be c)."), ParsedAnswer::IDontKnow);
    }

    #[test]
    fn mcq_explicit_abstain_option() {
        // The abstain letter resolves to an abstention, never Option(4).
        assert_eq!(parse_mcq("E) None of the above"), ParsedAnswer::IDontKnow);
        assert_eq!(parse_mcq("E"), ParsedAnswer::IDontKnow);
        assert_eq!(parse_mcq("(e)"), ParsedAnswer::IDontKnow);
        assert_eq!(parse_mcq("The answer is E."), ParsedAnswer::IDontKnow);
        assert_eq!(parse_mcq("I would choose e) here."), ParsedAnswer::IDontKnow);
        // A word starting with 'e' is not the abstain letter.
        assert_eq!(parse_mcq("Everything fits"), ParsedAnswer::Unparsed);
    }

    #[test]
    fn mcq_option_list_echo_then_abstain() {
        // Echoing the option list before a bare hedge is an abstention,
        // not a pick of the first echoed letter.
        assert_eq!(
            parse_mcq("A) Audio B) Video C) Garden D) Books — none of the above."),
            ParsedAnswer::IDontKnow
        );
        assert_eq!(
            parse_mcq("a) x b) y: none of these, I don't know."),
            ParsedAnswer::IDontKnow
        );
        // A single decisive letter before the hedge still wins.
        assert_eq!(
            parse_mcq("B) — none of the other options fit."),
            ParsedAnswer::Option(1)
        );
        // An explicit marker beats the echo suppression.
        assert_eq!(
            parse_mcq("A) x B) y — the answer is b, none of the others."),
            ParsedAnswer::Option(1)
        );
        // An echo with no hedge stays unparsed rather than guessing.
        assert_eq!(parse_mcq("A) Audio B) Video C) Garden"), ParsedAnswer::Unparsed);
    }

    #[test]
    fn tf_decisive_interjection_beats_later_hedge() {
        // Regression: abstention phrases used to override an earlier
        // decisive interjection, contradicting first-decisive-token-wins.
        assert_eq!(
            parse_tf("No, I cannot say for sure which level it sits at."),
            ParsedAnswer::No
        );
        assert_eq!(parse_tf("Yes — though honestly I'm not sure."), ParsedAnswer::Yes);
        assert_eq!(parse_tf("No, I don't know the details."), ParsedAnswer::No);
        // The hedge still abstains when nothing decisive precedes it.
        assert_eq!(parse_tf("I cannot say whether that holds."), ParsedAnswer::IDontKnow);
        assert_eq!(parse_tf("I can't determine that."), ParsedAnswer::IDontKnow);
        assert_eq!(parse_tf("Honestly, uncertain."), ParsedAnswer::IDontKnow);
    }

    #[test]
    fn tf_near_miss_forms_stay_unparsed() {
        // Fragments of abstention phrases must not abstain on their own.
        assert_eq!(parse_tf("sure thing, consider it done"), ParsedAnswer::Unparsed);
        assert_eq!(parse_tf("we say what we can"), ParsedAnswer::Unparsed);
        assert_eq!(parse_tf("they determine the hierarchy"), ParsedAnswer::Unparsed);
        assert_eq!(parse_tf("the known knowns"), ParsedAnswer::Unparsed);
    }

    #[test]
    fn tf_abstention_is_case_insensitive_and_spans_punctuation() {
        assert_eq!(parse_tf("I DO NOT KNOW"), ParsedAnswer::IDontKnow);
        assert_eq!(parse_tf("I Can't Determine that."), ParsedAnswer::IDontKnow);
        assert_eq!(parse_tf("i dont know"), ParsedAnswer::IDontKnow);
    }
}
