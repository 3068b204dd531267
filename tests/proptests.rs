//! Property-based tests over the core data structures and pipelines.
//!
//! These run on a small in-tree harness: every property is checked for
//! a fixed number of cases whose inputs are drawn from the workspace's
//! own deterministic [`SynthRng`] (forked per property and case index),
//! so failures are reproducible by construction — the failing case
//! index is printed and re-running the test replays the exact input.

mod common;

use taxoglimpse::core::parse::{parse_answer, parse_mcq, parse_tf, ParsedAnswer};
use taxoglimpse::core::sampling::cochran_sample_size;
use taxoglimpse::prelude::*;
use common::cases;
use taxoglimpse::synth::rng::{Rng, SynthRng};
use taxoglimpse::taxonomy::{validate, Taxonomy};

const PROPTEST_SEED: u64 = 0x7a78_6f67_6c69_6d70; // "taxoglimp"

/// A random well-formed forest described as a parent array where
/// `parents[i] < i` (or none), which guarantees acyclicity at the
/// generator level; `from_edges` must accept it and `validate` must
/// pass.
fn random_forest(rng: &mut SynthRng) -> (Vec<String>, Vec<Option<usize>>) {
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

fn random_taxonomy(rng: &mut SynthRng) -> Taxonomy {
    let (names, parents) = random_forest(rng);
    taxoglimpse::taxonomy::TaxonomyBuilder::from_edges("prop", &names, &parents)
        .expect("parents[i] < i is acyclic by construction")
}

/// Every acyclic parent array builds a taxonomy that satisfies all
/// structural invariants.
#[test]
fn from_edges_always_validates() {
    cases(PROPTEST_SEED, 64, "from_edges", |rng, _| {
        let (names, parents) = random_forest(rng);
        let t = taxoglimpse::taxonomy::TaxonomyBuilder::from_edges("prop", &names, &parents).unwrap();
        validate(&t).unwrap();
        assert_eq!(t.len(), names.len());
    });
}

/// TSV and JSON serialization round-trip any taxonomy (canonical
/// structure comparison — ids may be permuted).
#[test]
fn serialization_round_trips() {
    cases(PROPTEST_SEED, 64, "serialization", |rng, _| {
        let t = random_taxonomy(rng);
        let canon = |t: &Taxonomy| {
            let mut v: Vec<(String, usize, Option<String>)> = t
                .ids()
                .map(|id| (t.name(id).to_owned(), t.level(id), t.parent(id).map(|p| t.name(p).to_owned())))
                .collect();
            v.sort();
            v
        };
        let json = Taxonomy::from_json(&t.to_json()).unwrap();
        assert_eq!(canon(&t), canon(&json));
        let tsv = Taxonomy::from_tsv(&t.to_tsv()).unwrap();
        validate(&tsv).unwrap();
        assert_eq!(canon(&t), canon(&tsv));
    });
}

/// Edits preserve invariants and the remap is consistent.
#[test]
fn edits_preserve_invariants() {
    cases(PROPTEST_SEED, 64, "edits", |rng, _| {
        let t = random_taxonomy(rng);
        let cutoff = rng.gen_index(6);
        let out = t.truncate_below(cutoff);
        validate(&out.taxonomy).unwrap();
        for id in t.ids() {
            match out.map(id) {
                Some(new_id) => {
                    assert!(t.level(id) < cutoff);
                    assert_eq!(t.name(id), out.taxonomy.name(new_id));
                    assert_eq!(t.level(id), out.taxonomy.level(new_id));
                }
                None => assert!(t.level(id) >= cutoff),
            }
        }
    });
}

/// Subtree extraction yields a single-rooted, valid taxonomy whose size
/// matches `subtree_size`.
#[test]
fn subtree_extraction_consistent() {
    cases(PROPTEST_SEED, 64, "subtree", |rng, _| {
        let t = random_taxonomy(rng);
        let ids: Vec<_> = t.ids().collect();
        let node = ids[rng.gen_index(ids.len())];
        let out = t.subtree(node);
        validate(&out.taxonomy).unwrap();
        assert_eq!(out.taxonomy.len(), t.subtree_size(node));
        assert_eq!(out.taxonomy.roots().len(), 1);
    });
}

/// Cochran sample sizes are monotone, bounded by the population, and
/// never exceed 385.
#[test]
fn cochran_bounds() {
    cases(PROPTEST_SEED, 64, "cochran", |rng, _| {
        let a = rng.gen_index(3_000_000);
        let b = rng.gen_index(3_000_000);
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(cochran_sample_size(lo) <= cochran_sample_size(hi));
        assert!(cochran_sample_size(hi) <= hi.max(1));
        assert!(cochran_sample_size(hi) <= 385);
    });
}

/// The TF parser never panics on arbitrary input, and a canonical
/// decisive suffix always wins when the junk prefix itself is
/// undecided.
#[test]
fn tf_parser_total_and_consistent() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz ";
    cases(PROPTEST_SEED, 64, "tf_parser", |rng, _| {
        let len = rng.gen_index(41);
        let junk: String =
            (0..len).map(|_| ALPHABET[rng.gen_index(ALPHABET.len())] as char).collect();
        // Totality: no panic on arbitrary input.
        let _ = parse_tf(&junk);
        // Canonical forms always win regardless of surrounding junk
        // (prefix junk must not contain decisive tokens itself).
        let parsed = parse_tf(&format!("{junk} xyzzy yes"));
        if parse_tf(&junk) == ParsedAnswer::Unparsed {
            assert_eq!(parsed, ParsedAnswer::Yes);
        }
    });
}

/// The MCQ parser maps every canonical letter form to its index
/// (exhaustive over the 4 letters × 4 styles).
#[test]
fn mcq_parser_letters() {
    for idx in 0u8..4 {
        for style in 0u8..4 {
            let letter = (b'A' + idx) as char;
            let text = match style {
                0 => format!("{letter}"),
                1 => format!("{letter})"),
                2 => format!("The answer is {letter}."),
                _ => format!("({})", letter.to_ascii_lowercase()),
            };
            assert_eq!(parse_mcq(&text), ParsedAnswer::Option(idx), "{text:?}");
        }
    }
}

/// The binary codec round-trips arbitrary taxonomies and never panics
/// on truncated input.
#[test]
fn binary_codec_round_trips() {
    cases(PROPTEST_SEED, 64, "binary_codec", |rng, _| {
        let t = random_taxonomy(rng);
        let bytes = t.to_binary();
        let back = Taxonomy::from_binary(&bytes).unwrap();
        validate(&back).unwrap();
        assert_eq!(back.len(), t.len());
        // Truncation never panics.
        let cut = rng.gen_index(bytes.len());
        let _ = Taxonomy::from_binary(&bytes[..cut]);
    });
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

/// A random taxonomy whose names are partly non-ASCII, so the UTF-8
/// and char-boundary checks of the decoders run.
fn random_unicode_taxonomy(rng: &mut SynthRng) -> Taxonomy {
    let (mut names, parents) = random_forest(rng);
    for name in &mut names {
        if rng.gen_bool(0.3) {
            name.push_str(["é", "α", "漢字"][rng.gen_index(3)]);
        }
    }
    taxoglimpse::taxonomy::TaxonomyBuilder::from_edges("prop", &names, &parents)
        .expect("parents[i] < i is acyclic by construction")
}

/// Hostile TAXG payloads: truncation at a random byte, 1–3 bit flips,
/// one integer field overwritten with an extreme value, or 1–16 random
/// bytes appended. `from_binary` must return a valid taxonomy or a typed error, and
/// the snapshot loader's split decoder — reached through an envelope
/// whose checksum is re-stamped, so the mutation gets past the
/// integrity check — must accept exactly the same payloads and decode
/// them to the same bytes. Neither may panic.
#[test]
fn mutated_payloads_fail_cleanly_and_both_decoders_agree() {
    use taxoglimpse::taxonomy::snapshot::{checksum, SnapshotStore};
    const EXTREMES: [u64; 4] = [u32::MAX as u64, 1 << 31, u64::MAX, 1 << 40];
    let dir = std::env::temp_dir().join(format!("taxoglimpse-prop-mutate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = SnapshotStore::new(&dir);
    cases(PROPTEST_SEED, 2_000, "binary_mutation", |rng, _| {
        let t = random_unicode_taxonomy(rng);
        let mut bytes = t.to_binary();
        match rng.gen_index(4) {
            0 => bytes.truncate(rng.gen_index(bytes.len())),
            1 => {
                for _ in 0..rng.gen_range(1usize..4) {
                    let at = rng.gen_index(bytes.len());
                    bytes[at] ^= 1 << rng.gen_index(8);
                }
            }
            2 => {
                let fields = binary_fields(&t);
                let (at, width) = fields[rng.gen_index(fields.len())];
                let value = EXTREMES[rng.gen_index(EXTREMES.len())];
                bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
            _ => bytes.extend((0..rng.gen_range(1usize..17)).map(|_| rng.gen_index(256) as u8)),
        }
        let decoded = Taxonomy::from_binary(&bytes);
        if let Ok(back) = &decoded {
            validate(back).unwrap();
        }

        let mut file = Vec::with_capacity(22 + bytes.len());
        file.extend_from_slice(b"TXSP");
        file.extend_from_slice(&1u16.to_le_bytes());
        file.extend_from_slice(&checksum(&bytes).to_le_bytes());
        file.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        file.extend_from_slice(&bytes);
        std::fs::write(store.path_for("mutant"), &file).unwrap();
        match (decoded, store.load("mutant")) {
            (Ok(a), Some(b)) => assert_eq!(a.to_binary(), b.to_binary()),
            (Err(_), None) => {}
            (a, b) => panic!("decoders disagree: from_binary {:?}, load {}", a.err(), b.is_some()),
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile text: a taxonomy's JSON or TSV, or a recorded transcript's
/// JSONL, under truncation, 1–3 bit flips, non-UTF-8 bytes spliced into
/// a name (reaching the `&str` parsers through a lossy decode), or
/// nesting past `MAX_DEPTH`, which must be rejected.
/// `json::from_str_value`, `Taxonomy::from_json`, `Taxonomy::from_tsv`,
/// `DetailedRun::from_jsonl` and the raw-answer parsers `parse_tf` and
/// `parse_mcq` each get every mutant and must return a valid value or
/// a typed error, never panic.
#[test]
fn mutated_text_fails_cleanly() {
    use taxoglimpse::core::detailed::DetailedRun;
    use taxoglimpse::json::{from_str_value, MAX_DEPTH};
    const NON_UTF8: [&[u8]; 5] = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf8\x88"];
    const TRANSCRIPT_FIELDS: [&str; 4] = ["prompt", "response", "parsed", "outcome"];
    let ebay = generate(TaxonomyKind::Ebay, GenOptions { seed: 3, scale: 0.1 }).unwrap();
    let dataset = DatasetBuilder::new(&ebay, TaxonomyKind::Ebay, 3)
        .sample_cap(Some(2))
        .build(QuestionDataset::Mcq)
        .unwrap();
    let model = SimulatedLlm::new(ModelId::Llama2_7b);
    let transcript = DetailedRun::record(&model, &dataset, EvalConfig::default()).to_jsonl();
    cases(PROPTEST_SEED, 2_000, "text_mutation", |rng, _| {
        let t = random_unicode_taxonomy(rng);
        let source = rng.gen_index(3);
        let mut bytes = match source {
            0 => t.to_json(),
            1 => t.to_tsv(),
            _ => transcript.clone(),
        }
        .into_bytes();
        let mut nested = false;
        match rng.gen_index(4) {
            0 => bytes.truncate(rng.gen_index(bytes.len())),
            1 => {
                for _ in 0..rng.gen_range(1usize..4) {
                    let at = rng.gen_index(bytes.len());
                    bytes[at] ^= 1 << rng.gen_index(8);
                }
            }
            2 => {
                let name = match source {
                    2 => TRANSCRIPT_FIELDS[rng.gen_index(TRANSCRIPT_FIELDS.len())].to_owned(),
                    _ => format!("node-{}", rng.gen_index(t.len())),
                };
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
        let text = String::from_utf8_lossy(&bytes);
        let value = from_str_value(&text);
        assert!(!nested || value.is_err(), "nesting past MAX_DEPTH must be rejected");
        if let Ok(back) = Taxonomy::from_json(&text) {
            validate(&back).unwrap();
        }
        if let Ok(back) = Taxonomy::from_tsv(&text) {
            validate(&back).unwrap();
        }
        let run = DetailedRun::from_jsonl("mutant", &text);
        assert!(!nested || run.is_err(), "nesting past MAX_DEPTH must be rejected");
        parse_tf(&text);
        parse_mcq(&text);
    });
}

/// Self-diff is empty; diff against a truncated version reports the
/// removed paths exactly.
#[test]
fn diff_laws() {
    cases(PROPTEST_SEED, 64, "diff", |rng, _| {
        use taxoglimpse::taxonomy::diff::diff;
        let t = random_taxonomy(rng);
        let cutoff = rng.gen_range(1usize..5);
        assert!(diff(&t, &t).is_empty());
        let truncated = t.truncate_below(cutoff).taxonomy;
        let d = diff(&t, &truncated);
        assert!(d.added.is_empty());
        let expected_removed = t.ids().filter(|&id| t.level(id) >= cutoff).count();
        // Moves of unique names can reclassify some removals, but the
        // total change count must cover every removed node.
        assert!(d.total_changes() >= expected_removed.min(1) * usize::from(expected_removed > 0));
        assert_eq!(d.removed.len() + d.moved.len(), expected_removed);
    });
}

/// LCA laws: idempotent, symmetric, level ≤ both inputs' levels, and an
/// ancestor of both.
#[test]
fn lca_laws() {
    cases(PROPTEST_SEED, 64, "lca", |rng, _| {
        let t = random_taxonomy(rng);
        let ids: Vec<_> = t.ids().collect();
        let a = ids[rng.gen_index(ids.len())];
        let b = ids[rng.gen_index(ids.len())];
        assert_eq!(t.lca(a, a), Some(a));
        assert_eq!(t.lca(a, b), t.lca(b, a));
        if let Some(anc) = t.lca(a, b) {
            assert!(t.level(anc) <= t.level(a).min(t.level(b)));
            assert!(t.subsumes(anc, a));
            assert!(t.subsumes(anc, b));
            // Distances are consistent with levels.
            let dist = t.tree_distance(a, b).unwrap();
            assert_eq!(dist, t.level(a) + t.level(b) - 2 * t.level(anc));
        } else {
            assert_ne!(t.root_of(a), t.root_of(b));
        }
    });
}

/// The name index agrees with a linear scan.
#[test]
fn name_index_agrees_with_scan() {
    cases(PROPTEST_SEED, 64, "name_index", |rng, _| {
        let t = random_taxonomy(rng);
        let idx = t.name_index();
        let ids: Vec<_> = t.ids().collect();
        let target = ids[rng.gen_index(ids.len())];
        let name = t.name(target);
        let mut from_index = idx.lookup(name);
        from_index.sort();
        let mut from_scan: Vec<_> =
            t.ids().filter(|&id| t.name(id).eq_ignore_ascii_case(name)).collect();
        from_scan.sort();
        assert_eq!(from_index, from_scan);
    });
}

/// Dataset invariants: unique ids, correct levels, negatives never
/// equal the true parent, MCQ options distinct and containing the
/// parent.
fn check_dataset_invariants(seed: u64, flavor_pick: usize) {
    let flavor = QuestionDataset::ALL[flavor_pick];
    let t = generate(TaxonomyKind::AcmCcs, GenOptions { seed, scale: 0.3 }).unwrap();
    let d = DatasetBuilder::new(&t, TaxonomyKind::AcmCcs, seed)
        .sample_cap(Some(30))
        .build(flavor)
        .unwrap();
    let mut ids = std::collections::HashSet::new();
    for slice in &d.levels {
        for q in &slice.questions {
            assert!(ids.insert(q.id), "duplicate id {}", q.id);
            assert_eq!(q.child_level, slice.child_level);
            assert_eq!(q.parent_level + 1, q.child_level);
            match &q.body {
                taxoglimpse::core::question::QuestionBody::TrueFalse { candidate, expected_yes, .. } => {
                    if *expected_yes {
                        assert_eq!(candidate, &q.true_parent);
                    } else {
                        assert_ne!(candidate, &q.true_parent);
                    }
                }
                taxoglimpse::core::question::QuestionBody::Mcq { options, correct } => {
                    assert_eq!(&options[*correct as usize], &q.true_parent);
                    let mut sorted = options.to_vec();
                    sorted.sort();
                    sorted.dedup();
                    assert_eq!(sorted.len(), 4);
                }
                taxoglimpse::core::question::QuestionBody::Sibling { options, correct } => {
                    if let Some(c) = correct {
                        assert!((*c as usize) < options.len(), "correct index in range");
                    }
                    let mut sorted = options.clone();
                    sorted.sort();
                    sorted.dedup();
                    assert_eq!(sorted.len(), options.len(), "sibling options distinct");
                }
            }
        }
    }
}

/// Dataset invariants hold for random seeds and flavors on a mid-size
/// taxonomy.
#[test]
fn dataset_invariants() {
    cases(PROPTEST_SEED, 12, "dataset", |rng, _| {
        let seed = rng.gen_range(0u64..1000);
        let flavor_pick = rng.gen_index(3);
        check_dataset_invariants(seed, flavor_pick);
    });
}

/// Regression case once found by randomized search (easy-flavor dataset
/// on seed 466); kept pinned so it is checked every run.
#[test]
fn dataset_invariants_regression_seed_466() {
    check_dataset_invariants(466, 0);
}

/// Simulated model responses always parse to a definite answer (never
/// Unparsed) across models, flavors and settings.
#[test]
fn simulated_responses_always_parse() {
    cases(PROPTEST_SEED, 12, "simulated", |rng, _| {
        let seed = rng.gen_range(0u64..200);
        let model_id = ModelId::ALL[rng.gen_index(ModelId::ALL.len())];
        let zoo = ModelZoo::with_seed(seed);
        let model = zoo.get(model_id).unwrap();
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed, scale: 0.5 }).unwrap();
        for flavor in QuestionDataset::ALL {
            let d = DatasetBuilder::new(&t, TaxonomyKind::Ebay, seed)
                .sample_cap(Some(5))
                .build(flavor)
                .unwrap();
            for slice in &d.levels {
                for q in &slice.questions {
                    let prompt = taxoglimpse::core::templates::render_question(q, Default::default());
                    let query =
                        taxoglimpse::core::model::Query::new(&prompt, q, PromptSetting::ZeroShot);
                    let response = model.answer(&query).expect("simulated models never fail");
                    let parsed = parse_answer(q, &response.text);
                    assert_ne!(parsed, ParsedAnswer::Unparsed, "{}: {:?}", model_id, response);
                }
            }
        }
    });
}
