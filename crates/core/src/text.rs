//! The two text rules every layer shares.
//!
//! * **Surface similarity**: character-trigram Jaccard over ASCII-lowered
//!   bytes ([`Trigrams`], [`similarity`]). The simulated models use it as
//!   their surface-form evidence (the NCBI species→genus uplift), the
//!   hier router ranks regions with it, and the detailed error analysis
//!   bands questions by it.
//! * **Token count**: whitespace words split into alternating
//!   alphanumeric/other runs, each run costing `ceil(chars / 6)` tokens
//!   ([`token_count`], with [`tokenize`] as the materialising
//!   reference). It drives usage accounting, API cost and the hier
//!   prompt-cost comparison.
//!
//! This is not a trained BPE; it approximates modern LLM tokenizers
//! (≈ 4 characters per token for English, punctuation split off, long
//! words chunked) well enough for token-dependent cost models.

use std::cmp::Ordering;

/// Maximum characters a single token may span before being chunked.
const MAX_TOKEN_CHARS: usize = 6;

/// A name's ASCII-lowercased form and its sorted, deduplicated byte
/// trigrams (empty for names under three bytes).
#[derive(Debug, Clone)]
pub struct Trigrams {
    lower: Box<str>,
    grams: Box<[[u8; 3]]>,
}

impl Trigrams {
    /// Compute the trigram set of `name`.
    pub fn new(name: &str) -> Trigrams {
        let lower = name.to_ascii_lowercase();
        let mut grams: Vec<[u8; 3]> = lower
            .as_bytes()
            .windows(3)
            .map(|w| [w[0], w[1], w[2]])
            .collect();
        grams.sort_unstable();
        grams.dedup();
        Trigrams {
            lower: lower.into_boxed_str(),
            grams: grams.into_boxed_slice(),
        }
    }

    /// The ASCII-lowercased name.
    #[inline]
    pub fn lower(&self) -> &str {
        &self.lower
    }

    /// The sorted, deduplicated trigrams of [`Trigrams::lower`].
    #[inline]
    pub fn grams(&self) -> &[[u8; 3]] {
        &self.grams
    }

    /// Trigram Jaccard similarity in `[0, 1]`. Names too short for
    /// trigrams fall back to equality ignoring ASCII case.
    #[inline]
    pub fn jaccard(&self, other: &Trigrams) -> f64 {
        let (a, b) = (self.grams(), other.grams());
        if a.is_empty() || b.is_empty() {
            return if self.lower == other.lower { 1.0 } else { 0.0 };
        }
        let (mut i, mut j, mut shared) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared as f64 / (a.len() + b.len() - shared) as f64
    }
}

/// Character-trigram Jaccard similarity of two names, case-insensitive
/// in ASCII.
pub fn similarity(a: &str, b: &str) -> f64 {
    Trigrams::new(a).jaccard(&Trigrams::new(b))
}

/// The whitespace-separated words of `text` split into maximal runs of
/// alphanumeric or of other characters — the unit a token chunks.
fn runs(text: &str) -> impl Iterator<Item = &str> {
    text.split_whitespace().flat_map(|word| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let is_alnum = rest.chars().next()?.is_alphanumeric();
            let end = rest
                .char_indices()
                .find(|(_, c)| c.is_alphanumeric() != is_alnum)
                .map_or(rest.len(), |(i, _)| i);
            let (run, tail) = rest.split_at(end);
            rest = tail;
            Some(run)
        })
    })
}

/// Tokenize into borrowed slices: every run, chunked into pieces of at
/// most `MAX_TOKEN_CHARS` characters. The reference [`token_count`] is
/// tested against.
pub fn tokenize(text: &str) -> Vec<&str> {
    let mut tokens = Vec::with_capacity(text.len() / 4 + 1);
    for run in runs(text) {
        let mut chunk = run;
        while let Some((split, _)) = chunk.char_indices().nth(MAX_TOKEN_CHARS) {
            let (head, tail) = chunk.split_at(split);
            tokens.push(head);
            chunk = tail;
        }
        tokens.push(chunk);
    }
    tokens
}

/// Token count of `text`: the same value as `tokenize(text).len()`,
/// computed without materialising the tokens. It runs twice per query
/// for usage accounting, so ASCII text takes a byte-level fast path.
#[inline]
pub fn token_count(text: &str) -> usize {
    if text.is_ascii() {
        return count_ascii(text.as_bytes());
    }
    // A run of k chars chunks into ceil(k / MAX_TOKEN_CHARS) tokens.
    runs(text)
        .map(|run| run.chars().count().div_ceil(MAX_TOKEN_CHARS))
        .sum()
}

/// Byte-level counting for ASCII text, avoiding UTF-8 decoding. Exactly
/// equivalent to the generic path: for ASCII, `char::is_alphanumeric`
/// is `[0-9A-Za-z]` and `char::is_whitespace` is `\t \n \x0b \x0c \r`
/// and space (note `\x0b` *is* Unicode whitespace but not
/// `u8::is_ascii_whitespace`).
#[inline]
fn count_ascii(bytes: &[u8]) -> usize {
    // Byte classes: 0 = whitespace, 1 = alphanumeric, 2 = other.
    const WS: u8 = 0;
    const AL: u8 = 1;
    const OT: u8 = 2;
    const CLASS: [u8; 256] = {
        let mut t = [OT; 256];
        let mut b = 0usize;
        while b < 256 {
            let c = b as u8;
            if matches!(c, b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' | b' ') {
                t[b] = WS;
            } else if c.is_ascii_alphanumeric() {
                t[b] = AL;
            }
            b += 1;
        }
        t
    };
    let mut tokens = 0usize;
    let mut run_len = 0usize;
    let mut run_class = WS;
    for &b in bytes {
        let class = CLASS[b as usize];
        if class != run_class {
            if run_class != WS {
                tokens += run_len.div_ceil(MAX_TOKEN_CHARS);
            }
            run_class = class;
            run_len = 0;
        }
        run_len += 1;
    }
    if run_class != WS {
        tokens += run_len.div_ceil(MAX_TOKEN_CHARS);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::TaxonomyKind;
    use taxoglimpse_synth::{generate, GenOptions};

    #[test]
    fn similarity_basics() {
        assert_eq!(similarity("abc", "abc"), 1.0);
        assert_eq!(similarity("abc", "xyz"), 0.0);
        assert!(similarity("Verbascum chaixii", "Verbascum") > 0.4);
        assert!(similarity("Verbascum chaixii", "Silene") < 0.1);
        assert!(similarity("Wireless Speakers", "Books") < 0.2);
        // Case-insensitive.
        assert_eq!(similarity("ABC", "abc"), 1.0);
        assert_eq!(similarity("Emphysema, J43", "emphysema, j43"), 1.0);
        // Short names: equality ignoring ASCII case only.
        assert_eq!(similarity("ab", "ab"), 1.0);
        assert_eq!(similarity("ab", "AB"), 1.0);
        assert_eq!(similarity("ab", "cd"), 0.0);
        assert_eq!(similarity("ab", "ba"), 0.0);
        assert_eq!(similarity("a", "abc"), 0.0);
        assert_eq!(similarity("", ""), 1.0);
        // Trigrams are bytes and span UTF-8 boundaries: "x — y" has five,
        // "x—y" three, and they share only the dash's three bytes.
        assert_eq!(similarity("x — y", "x—y"), 1.0 / 7.0);
        // Case folding is ASCII-only: Ï/ï and Æ/æ stay distinct.
        let s = similarity("naïve tæxon", "NAÏVE TÆXON");
        assert!(s > 0.0 && s < 1.0, "{s}");
    }

    #[test]
    fn similarity_is_symmetric() {
        let pairs = [
            ("cardiac lesion AE", "acute cardiac lesion AE"),
            ("a b c", "c b a"),
            ("naïve tæxon", "NAÏVE TÆXON"),
            ("x — y", "x—y"),
            ("a", "abc"),
        ];
        for (a, b) in pairs {
            assert_eq!(similarity(a, b), similarity(b, a), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn trigrams_are_sorted_lowered_and_deduplicated() {
        let t = Trigrams::new("AAAAb");
        assert_eq!(t.lower(), "aaaab");
        assert_eq!(t.grams(), &[*b"aaa", *b"aab"]);
        assert!(Trigrams::new("ab").grams().is_empty());
    }

    #[test]
    fn simple_sentences() {
        assert_eq!(
            tokenize("Is Hailu a type of"),
            vec!["Is", "Hailu", "a", "type", "of"]
        );
        assert_eq!(token_count(""), 0);
        assert_eq!(token_count("   "), 0);
        assert_eq!(token_count("cat"), 1);
        assert_eq!(token_count("cat, dog"), 3); // "cat" "," "dog"
        assert_eq!(token_count("extraordinarily"), 3); // 15 chars / 6
    }

    #[test]
    fn punctuation_splits_off() {
        let toks = tokenize("know)? answer!");
        assert_eq!(toks, vec!["know", ")?", "answer", "!"]);
    }

    #[test]
    fn long_words_are_chunked() {
        let toks = tokenize("Scrophulariaceae");
        assert!(toks.len() >= 2, "{toks:?}");
        assert_eq!(toks.concat(), "Scrophulariaceae");
        for tok in toks {
            assert!(tok.chars().count() <= MAX_TOKEN_CHARS);
        }
    }

    #[test]
    fn density_is_plausible() {
        let n = token_count(
            "Is Verbascum chaixii a type of Verbascum? answer with (Yes/No/I don't know)",
        );
        // Roughly text_len / 4 ± generous slack.
        assert!((10..=35).contains(&n), "{n} tokens");
    }

    #[test]
    fn unicode_does_not_panic() {
        assert!(token_count("naïve café Sinō-Tibetan 語言") >= 4);
    }

    #[test]
    fn count_equals_tokenize_len() {
        let samples = [
            "",
            "   ",
            "word",
            "Is Hailu a type of Hakka-Chinese? (Yes/No/I don't know)",
            "know)? answer!",
            "Scrophulariaceae",
            "supercalifragilisticexpialidocious",
            "Example: Is Verbascum chaixii a type of Verbascum? Yes.",
            "Is `Verbascum chaixii` a kind of Verbascum? (level 7 -> 6)",
            "hyphenated-compound-name, with punctuation!",
            "A) Audio B) Video C) Garden D) Books E) None of the above",
            "naïve café Sinō-Tibetan 語言",
            "naïve — tæxonomy's œuvre",
            "a)b)c)d) x--y--z ...",
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
            "vertical\x0btab and\u{00a0}nbsp",
            "mixed ascii then naïve tail",
        ];
        for text in samples {
            assert_eq!(token_count(text), tokenize(text).len(), "{text:?}");
        }
        let t = generate(
            TaxonomyKind::Icd10Cm,
            GenOptions {
                seed: 3,
                scale: 0.05,
            },
        )
        .unwrap();
        for id in t.ids().take(120) {
            let name = t.name(id);
            assert_eq!(token_count(name), tokenize(name).len(), "{name:?}");
        }
    }
}
