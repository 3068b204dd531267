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
const MCQ_ABSTENTIONS: [&str; 6] =
    ["don't know", "dont know", "do not know", "not sure", "none of", "cannot determine"];

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
pub fn parse_mcq(response: &str) -> ParsedAnswer {
    let trimmed = response.trim();
    if trimmed.is_empty() {
        return ParsedAnswer::Unparsed;
    }
    let lower = trimmed.to_ascii_lowercase();
    let abstention = MCQ_ABSTENTIONS.iter().filter_map(|p| lower.find(p)).min();
    // Option extraction is scoped to the text before the first
    // abstention phrase: an option named there is the answer; one named
    // after the hedge ("I don't know … maybe B?") is not a commitment.
    let scope = match abstention {
        Some(pos) => &lower[..pos],
        None => &lower[..],
    };
    match extract_option(scope) {
        Some(opt) if opt >= ABSTAIN_SLOT => ParsedAnswer::IDontKnow,
        Some(opt) => ParsedAnswer::Option(opt),
        None if abstention.is_some() => ParsedAnswer::IDontKnow,
        None => ParsedAnswer::Unparsed,
    }
}

/// Find an option reference in (already lowercased) response text.
fn extract_option(lower: &str) -> Option<u8> {
    // Pattern 1: "answer is X" / "option X" / "choose X". Punctuation
    // and whitespace may separate the marker from the letter ("The
    // answer is: B", "answer is — B", "answer is 'C'").
    for marker in ["answer is", "answer:", "option", "choose", "select", "pick"] {
        let Some(pos) = lower.find(marker) else { continue };
        let after = &lower[pos + marker.len()..];
        let candidate = after.trim_start_matches(|c: char| !c.is_ascii_alphanumeric());
        // The marker must end at a word boundary: "optional b" and
        // "chooses b" contain marker words only as fragments.
        if candidate.len() == after.len() && !after.is_empty() {
            continue;
        }
        if let Some(opt) = letter_at(candidate) {
            return Some(opt);
        }
    }

    // An option-list echo ("A) x B) y … — none of the above.") names
    // two or more DISTINCT standalone "x)" letters: the model is
    // reciting the options, not answering with the first one. Only an
    // explicit marker (pattern 1, handled above) extracts from such
    // text; patterns 2 and 3 are suppressed so a trailing abstention
    // phrase can decide.
    let bytes = lower.as_bytes();
    let mut seen = [false; (ABSTAIN_SLOT + 1) as usize];
    for i in 0..bytes.len().saturating_sub(1) {
        if bytes[i + 1] == b')' && (b'a'..=b'e').contains(&bytes[i]) {
            let preceded_ok = i == 0 || !bytes[i - 1].is_ascii_alphanumeric();
            if preceded_ok {
                seen[(bytes[i] - b'a') as usize] = true;
            }
        }
    }
    if seen.iter().filter(|s| **s).count() >= 2 {
        return None;
    }

    // Pattern 2: a leading letter possibly wrapped in punctuation:
    // "B", "B)", "(b)", "b.", "B) Audio".
    let stripped = lower.trim_start_matches(['(', '[', '"', '\'', ' ']);
    if let Some(opt) = letter_at(stripped) {
        return Some(opt);
    }

    // Pattern 3: anywhere a standalone "x)" appears.
    for i in 0..bytes.len().saturating_sub(1) {
        if bytes[i + 1] == b')' && (b'a'..=b'e').contains(&bytes[i]) {
            let preceded_ok = i == 0 || !bytes[i - 1].is_ascii_alphanumeric();
            if preceded_ok {
                return Some(bytes[i] - b'a');
            }
        }
    }

    None
}

/// If `s` starts with an option letter a–e followed by a non-alphanumeric
/// boundary (or end of string), return its index ('e' is the abstain
/// slot, [`ABSTAIN_SLOT`]).
fn letter_at(s: &str) -> Option<u8> {
    let mut chars = s.chars();
    let first = chars.next()?;
    let idx = match first.to_ascii_lowercase() {
        'a' => 0,
        'b' => 1,
        'c' => 2,
        'd' => 3,
        'e' => ABSTAIN_SLOT,
        _ => return None,
    };
    match chars.next() {
        None => Some(idx),
        Some(c) if !c.is_ascii_alphanumeric() => Some(idx),
        _ => None,
    }
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
