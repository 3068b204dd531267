//! Helpers shared by the integration suites: the deterministic
//! property loop, the random-taxonomy and hostile-payload generators,
//! and the pinned report-digest workload. Each suite uses a subset,
//! hence the `dead_code` allowance.
#![allow(dead_code)]

use taxoglimpse::core::parse::ParsedAnswer;
use taxoglimpse::core::reports_digest;
use taxoglimpse::json::MAX_DEPTH;
use taxoglimpse::prelude::*;
use taxoglimpse::synth::rng::{fork, Rng, SynthRng};
use taxoglimpse::taxonomy::snapshot::checksum;
use taxoglimpse::taxonomy::{Taxonomy, TaxonomyBuilder};

/// Run `f` for `n` cases, case `i` drawing from `fork(seed, tag, i)`,
/// and report the failing case index (which is all that's needed to
/// replay it).
pub fn cases(seed: u64, n: u64, tag: &str, f: impl Fn(&mut SynthRng, u64)) {
    for i in 0..n {
        let mut rng = fork(seed, tag, i);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng, i)));
        if let Err(payload) = result {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            panic!("property `{tag}` failed at case {i}/{n}: {message}");
        }
    }
}

/// A random well-formed forest described as a parent array where
/// `parents[i] < i` (or none), which guarantees acyclicity at the
/// generator level; `from_edges` must accept it and `validate` must
/// pass.
pub fn random_forest(rng: &mut SynthRng) -> (Vec<String>, Vec<Option<usize>>) {
    let n = rng.gen_range(1usize..120);
    let names: Vec<String> = (0..n).map(|i| format!("node-{i}")).collect();
    let parents: Vec<Option<usize>> = (0..n)
        .map(|i| {
            if i == 0 || rng.gen_bool(0.2) {
                None // roots, roughly one in five
            } else {
                Some(rng.gen_index(i))
            }
        })
        .collect();
    (names, parents)
}

/// A random taxonomy whose names are partly non-ASCII, so the UTF-8
/// and char-boundary checks of the decoders run.
pub fn random_unicode_taxonomy(rng: &mut SynthRng) -> Taxonomy {
    let (mut names, parents) = random_forest(rng);
    for name in &mut names {
        if rng.gen_bool(0.3) {
            name.push_str(["é", "α", "漢字"][rng.gen_index(3)]);
        }
    }
    TaxonomyBuilder::from_edges("prop", &names, &parents)
        .expect("parents[i] < i is acyclic by construction")
}

/// `(offset, width)` of every u32/u64 field in the TAXG v2 encoding of
/// `t`: label length, node count, parents, name-block length, offsets.
fn binary_fields(t: &Taxonomy) -> Vec<(usize, usize)> {
    let n = t.len();
    let count_at = 10 + t.label().len();
    let name_bytes_at = count_at + 8 + 4 * n;
    let mut fields = vec![(6, 4), (count_at, 8), (name_bytes_at, 8)];
    fields.extend((0..n).map(|i| (count_at + 8 + 4 * i, 4)));
    fields.extend((0..=n).map(|i| (name_bytes_at + 8 + 4 * i, 4)));
    fields
}

/// A snapshot file holding `payload` in a valid frame: magic, version,
/// the payload's checksum and its length, so any payload, hostile or
/// not, gets past the integrity check to the decoder.
pub fn snapshot_file(payload: &[u8]) -> Vec<u8> {
    let mut file = Vec::with_capacity(22 + payload.len());
    file.extend_from_slice(b"TXSP");
    file.extend_from_slice(&1u16.to_le_bytes());
    file.extend_from_slice(&checksum(payload).to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(payload);
    file
}

/// A hostile TAXG payload made from `t`'s encoding: truncation at a
/// random byte, 1–3 bit flips, one integer field overwritten with an
/// extreme value, or 1–16 random bytes appended.
pub fn mutate_binary(rng: &mut SynthRng, t: &Taxonomy) -> Vec<u8> {
    const EXTREMES: [u64; 4] = [u32::MAX as u64, 1 << 31, u64::MAX, 1 << 40];
    let mut bytes = t.to_binary();
    match rng.gen_index(4) {
        0 => bytes.truncate(rng.gen_index(bytes.len())),
        1 => flip_bits(rng, &mut bytes),
        2 => {
            let fields = binary_fields(t);
            let (at, width) = fields[rng.gen_index(fields.len())];
            let value = EXTREMES[rng.gen_index(EXTREMES.len())];
            bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        }
        _ => bytes.extend((0..rng.gen_range(1usize..17)).map(|_| rng.gen_index(256) as u8)),
    }
    bytes
}

/// A hostile mutant of the text `bytes`: truncation, 1–3 bit flips,
/// non-UTF-8 bytes spliced into the name `pick_name` draws (which must
/// occur in `bytes`), or nesting past `MAX_DEPTH`. Returns the mutant
/// and whether it is the nesting case, which every JSON reader must
/// reject.
pub fn mutate_text(
    rng: &mut SynthRng,
    mut bytes: Vec<u8>,
    pick_name: impl FnOnce(&mut SynthRng) -> String,
) -> (Vec<u8>, bool) {
    const NON_UTF8: [&[u8]; 5] = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf8\x88"];
    let mut nested = false;
    match rng.gen_index(4) {
        0 => bytes.truncate(rng.gen_index(bytes.len())),
        1 => flip_bits(rng, &mut bytes),
        2 => {
            let name = pick_name(rng);
            let start = bytes
                .windows(name.len())
                .position(|w| w == name.as_bytes())
                .expect("every name is serialized");
            let at = start + rng.gen_index(name.len() + 1);
            bytes.splice(at..at, NON_UTF8[rng.gen_index(NON_UTF8.len())].iter().copied());
        }
        _ => {
            let depth = MAX_DEPTH + rng.gen_index(4);
            bytes.splice(0..0, std::iter::repeat(b'[').take(depth));
            bytes.extend(std::iter::repeat(b']').take(depth));
            nested = true;
        }
    }
    (bytes, nested)
}

fn flip_bits(rng: &mut SynthRng, bytes: &mut [u8]) {
    for _ in 0..rng.gen_range(1usize..4) {
        let at = rng.gen_index(bytes.len());
        bytes[at] ^= 1 << rng.gen_index(8);
    }
}

/// Report digests of the canonical pinned workload: GPT-4 and
/// Llama-2-7B on the eBay and GeoNames Hard datasets (seed 42, scale
/// 0.1, at most 60 questions per level) on a 4-worker grid, zero-shot
/// then few-shot.
pub fn pinned_workload_digests() -> Vec<String> {
    let datasets: Vec<_> = [TaxonomyKind::Ebay, TaxonomyKind::GeoNames]
        .into_iter()
        .map(|kind| {
            let t = generate(kind, GenOptions { seed: 42, scale: 0.1 }).unwrap();
            DatasetBuilder::new(&t, kind, 42)
                .sample_cap(Some(60))
                .build(QuestionDataset::Hard)
                .unwrap()
        })
        .collect();
    let dataset_refs: Vec<_> = datasets.iter().collect();
    let zoo = ModelZoo::default_zoo();
    let model_arcs = [zoo.get(ModelId::Gpt4).unwrap(), zoo.get(ModelId::Llama2_7b).unwrap()];
    let models: Vec<&dyn LanguageModel> = model_arcs.iter().map(|m| m.as_ref() as _).collect();
    [PromptSetting::ZeroShot, PromptSetting::FewShot]
        .into_iter()
        .map(|setting| {
            let reports = GridRunner::builder()
                .with_config(EvalConfig::default().with_setting(setting))
                .with_threads(4)
                .build()
                .run_cross(&models, &dataset_refs);
            format!("{:016x}", reports_digest(&reports))
        })
        .collect()
}

/// The recorded transcript that text mutants are cut from, besides
/// taxonomy JSON and TSV (Llama-2-7B on eBay's MCQ set, two questions
/// per level), and one true/false, one MCQ and one sibling question
/// made from its first question: the three kinds `parse_answer`
/// dispatches on.
pub fn transcript_fixture() -> (String, [Question; 3]) {
    use taxoglimpse::core::detailed::DetailedRun;
    use taxoglimpse::core::question::QuestionBody;
    let ebay = generate(TaxonomyKind::Ebay, GenOptions { seed: 3, scale: 0.1 }).unwrap();
    let dataset = DatasetBuilder::new(&ebay, TaxonomyKind::Ebay, 3)
        .sample_cap(Some(2))
        .build(QuestionDataset::Mcq)
        .unwrap();
    let model = SimulatedLlm::new(ModelId::Llama2_7b);
    let transcript = DetailedRun::record(&GridRunner::default(), &model, &dataset).to_jsonl();
    let mcq = dataset.questions().next().expect("ebay MCQ dataset is non-empty").clone();
    assert!(matches!(mcq.body, QuestionBody::Mcq { .. }));
    let tf = Question {
        body: QuestionBody::TrueFalse {
            candidate: mcq.true_parent.clone(),
            expected_yes: true,
            negative: None,
        },
        surface_memo: Default::default(),
        ..mcq.clone()
    };
    let sibling = Question {
        body: QuestionBody::Sibling {
            options: vec!["a".into(), "b".into(), "c".into()],
            correct: Some(1),
        },
        surface_memo: Default::default(),
        ..mcq.clone()
    };
    (transcript, [tf, mcq, sibling])
}

/// Fields of a transcript record, where [`text_mutant`] splices bytes.
const TRANSCRIPT_FIELDS: [&str; 4] = ["prompt", "response", "parsed", "outcome"];

/// One hostile text: a random taxonomy's JSON or TSV, or `transcript`,
/// through [`mutate_text`], lossily decoded so the `&str` parsers can
/// take it. Returns it with whether it is the nesting case.
pub fn text_mutant(rng: &mut SynthRng, transcript: &str) -> (String, bool) {
    let t = random_unicode_taxonomy(rng);
    let source = rng.gen_index(3);
    let text = match source {
        0 => t.to_json(),
        1 => t.to_tsv(),
        _ => transcript.to_owned(),
    };
    let (bytes, nested) = mutate_text(rng, text.into_bytes(), |rng| match source {
        2 => TRANSCRIPT_FIELDS[rng.gen_index(TRANSCRIPT_FIELDS.len())].to_owned(),
        _ => format!("node-{}", rng.gen_index(t.len())),
    });
    (String::from_utf8_lossy(&bytes).into_owned(), nested)
}

/// `core::parse::parse_mcq` as it was before it became one forward
/// scan: lowercase a copy, find each phrase with `str::find`, then try
/// the three patterns. The one-scan parser must agree with it on every
/// input.
pub fn parse_mcq_oracle(response: &str) -> ParsedAnswer {
    const MCQ_ABSTENTIONS: [&str; 6] =
        ["don't know", "dont know", "do not know", "not sure", "none of", "cannot determine"];
    const ABSTAIN_SLOT: u8 = 4;

    fn extract_option(lower: &str) -> Option<u8> {
        for marker in ["answer is", "answer:", "option", "choose", "select", "pick"] {
            let Some(pos) = lower.find(marker) else { continue };
            let after = &lower[pos + marker.len()..];
            let candidate = after.trim_start_matches(|c: char| !c.is_ascii_alphanumeric());
            if candidate.len() == after.len() && !after.is_empty() {
                continue;
            }
            if let Some(opt) = letter_at(candidate) {
                return Some(opt);
            }
        }
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
        let stripped = lower.trim_start_matches(['(', '[', '"', '\'', ' ']);
        if let Some(opt) = letter_at(stripped) {
            return Some(opt);
        }
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

    fn letter_at(s: &str) -> Option<u8> {
        let mut chars = s.chars();
        let idx = match chars.next()?.to_ascii_lowercase() {
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

    let trimmed = response.trim();
    if trimmed.is_empty() {
        return ParsedAnswer::Unparsed;
    }
    let lower = trimmed.to_ascii_lowercase();
    let abstention = MCQ_ABSTENTIONS.iter().filter_map(|p| lower.find(p)).min();
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
