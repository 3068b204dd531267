//! Adversarial answer-extraction corpus.
//!
//! The three PR 6 parser fixes each came from a realistic response the
//! old extractor misread:
//!
//! 1. `parse_mcq` dropped answers whose marker was separated from the
//!    letter by punctuation ("The answer is: B" → Unparsed);
//! 2. `parse_mcq` scanned for hedges before options, so a decisive
//!    option followed by a hedge ("B) — none of the other options
//!    fit.") was misread as IDontKnow;
//! 3. `parse_tf` let a trailing abstention phrase override an earlier
//!    decisive interjection ("No, I cannot say for sure…" → IDontKnow).
//!
//! This corpus pins the fixed behaviour on those shapes plus the
//! near-miss forms that must *stay* Unparsed, and closes with a
//! digest-neutrality proof: the canonical pinned workload still
//! produces the pre-fix report digests, so none of the rewrites moved a
//! single byte of the benchmark's observable output.

mod common;

use taxoglimpse::core::parse::{parse_mcq, parse_tf, ParsedAnswer};

fn check(cases: &[(&str, ParsedAnswer)], parser: fn(&str) -> ParsedAnswer, tag: &str) {
    for (response, expected) in cases {
        let got = parser(response);
        assert_eq!(got, *expected, "{tag}: {response:?} parsed as {got:?}, expected {expected:?}");
    }
}

#[test]
fn mcq_marker_punctuation_corpus() {
    use ParsedAnswer::Option;
    check(
        &[
            ("The answer is: B", Option(1)),
            ("The answer is:B", Option(1)),
            ("Answer: C", Option(2)),
            ("The answer is — B", Option(1)),
            ("The answer is 'C'", Option(2)),
            ("The answer is \"D\".", Option(3)),
            ("answer is (A)", Option(0)),
            ("I would choose: D", Option(3)),
            ("Let me think. The answer is...B", Option(1)),
            ("My answer: [C]", Option(2)),
        ],
        parse_mcq,
        "mcq punctuation after marker",
    );
}

#[test]
fn mcq_decisive_option_beats_hedge_corpus() {
    use ParsedAnswer::{IDontKnow, Option};
    check(
        &[
            ("B) — none of the other options fit.", Option(1)),
            ("The answer is A; I'm not sure about the rest.", Option(0)),
            ("C). None of the alternatives make sense.", Option(2)),
            ("D) because the others don't know their place in the hierarchy.", Option(3)),
            // Abstention first still abstains — scope only shields
            // hedges that FOLLOW a decisive option reference.
            ("I'm not sure, but maybe B)?", IDontKnow),
            ("I don't know. Possibly C)?", IDontKnow),
            ("None of these — not even A).", IDontKnow),
            ("I cannot determine which option is correct.", IDontKnow),
        ],
        parse_mcq,
        "mcq decisive-before-hedge",
    );
}

#[test]
fn mcq_near_miss_forms_stay_unparsed() {
    use ParsedAnswer::Unparsed;
    check(
        &[
            // Word-boundary rule: the marker must not be a fragment of a
            // longer word.
            ("optional b", Unparsed),
            ("he chooses badly", Unparsed),
            ("the answer isn't clear", Unparsed),
            ("selection bias", Unparsed),
            // A marker followed by a non-option letter.
            ("The answer is: zebra", Unparsed),
            ("Answer: 7", Unparsed),
            // Free text with no marker, no leading letter, no "x)" form.
            ("It depends entirely on the taxonomy.", Unparsed),
            ("", Unparsed),
        ],
        parse_mcq,
        "mcq near-miss",
    );
}

#[test]
fn mcq_abstain_option_corpus() {
    use ParsedAnswer::{IDontKnow, Option, Unparsed};
    check(
        &[
            // The explicit abstain slot: letter 'e' in any decisive form.
            ("E) None of the above.", IDontKnow),
            ("The answer is E", IDontKnow),
            ("Answer: E.", IDontKnow),
            ("e", IDontKnow),
            ("(E)", IDontKnow),
            // A bare "none of the above" after an echoed option list is
            // an abstention, not a pick of the first echoed option.
            ("A) Audio B) Video C) Garden D) Books — none of the above.", IDontKnow),
            ("Options were A) cars B) boats C) trains D) planes. None of the above fits.", IDontKnow),
            // A decisive pick before the echo still wins.
            ("B) Video — the rest, including None of the above, are wrong.", Option(1)),
            // 'e' embedded in a longer word is not the abstain letter.
            ("every option seems plausible", Unparsed),
            ("elephants are mammals", Unparsed),
        ],
        parse_mcq,
        "mcq abstain option",
    );
}

#[test]
fn tf_first_decisive_token_wins_corpus() {
    use ParsedAnswer::{No, Yes};
    check(
        &[
            ("No, I cannot say for sure whether that holds.", No),
            ("No — I don't know the full hierarchy, though.", No),
            ("Yes, although I'm not sure about the edge cases.", Yes),
            ("Yes. Well, I cannot determine every subcase.", Yes),
            ("Yeah, I think so, but don't know for certain.", Yes),
            ("Nope — and I'm uncertain about the rest.", No),
            // Negation flips on the composed forms.
            ("That is not correct, though I'm not sure why.", No),
            ("Not true. I cannot say more.", No),
            ("That's true, but I am not sure it helps.", Yes),
        ],
        parse_tf,
        "tf decisive-beats-hedge",
    );
}

#[test]
fn tf_abstention_corpus() {
    use ParsedAnswer::IDontKnow;
    check(
        &[
            ("I don't know.", IDontKnow),
            ("I do not know whether that is a kind of anything.", IDontKnow),
            ("I'm not sure about that one.", IDontKnow),
            ("I am uncertain here.", IDontKnow),
            ("I cannot determine that relation.", IDontKnow),
            ("We can't determine this from the name alone.", IDontKnow),
            ("I cannot say.", IDontKnow),
            ("UNSURE", IDontKnow),
            ("Honestly, I'M NOT SURE!", IDontKnow),
        ],
        parse_tf,
        "tf abstention",
    );
}

#[test]
fn tf_near_miss_forms_stay_unparsed() {
    use ParsedAnswer::Unparsed;
    check(
        &[
            // Decisive words embedded in longer tokens must not fire.
            ("noted and filed", Unparsed),
            ("yesterday it changed", Unparsed),
            ("the correction was published", Unparsed),
            ("falsehoods abound", Unparsed),
            // Abstention fragments without their completing token.
            ("I know the answer", Unparsed),
            ("say what you will", Unparsed),
            ("I can determine this easily", Unparsed),
            ("not withstanding", Unparsed),
            ("", Unparsed),
        ],
        parse_tf,
        "tf near-miss",
    );
}

/// Digest neutrality: the canonical pinned workload (same as
/// `determinism.rs`) must still produce the pre-fix digests. The parser
/// rewrites change behaviour only on response shapes the simulated
/// models never emit, and the batched executor changes no bytes at all
/// — so the pins must not move.
#[test]
fn parser_fixes_are_digest_neutral_on_the_pinned_workload() {
    assert_eq!(common::pinned_workload_digests(), ["55e93db6e5f85df9", "ca98ddf7b5163d0a"]);
}
