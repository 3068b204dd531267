//! Name morphology: pseudo-word synthesis and casing helpers.
//!
//! Each domain generator composes names from these primitives so that the
//! *surface form* properties the paper leans on hold in the synthetic
//! data — most importantly that an NCBI species name embeds its genus
//! name (`Verbascum chaixii` under `Verbascum`) and that OAE children
//! share long substrings with their parents (`... AE`).
//!
//! The syllable pools are stored twice: as `&str` slices (the readable
//! source of truth, used by tests) and as packed `Frag` tables whose
//! appends compile to one unconditional 4-byte copy — this is the
//! hottest loop in taxonomy generation, running once per syllable of
//! every generated node name.

use crate::rng::Rng;
use crate::rng::SynthRng;

/// Phonotactic style for pseudo-word generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordStyle {
    /// Latinate scientific names (`-us`, `-um`, `-ia` endings).
    Latin,
    /// Language/ethnonym flavored (`-ic`, `-ese`, `-ish` endings).
    Linguistic,
    /// Plain English-looking filler words.
    Plain,
}

/// A syllable fragment padded to four bytes so appending is a fixed-size
/// copy plus a length adjustment instead of a variable-length `memcpy`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frag {
    bytes: [u8; 4],
    len: u8,
}

impl Frag {
    /// Pack a fragment (at most 4 bytes) at compile time.
    const fn new(s: &str) -> Frag {
        let src = s.as_bytes();
        assert!(src.len() <= 4, "fragments are at most 4 bytes");
        let mut bytes = [0u8; 4];
        let mut i = 0;
        while i < src.len() {
            bytes[i] = src[i];
            i += 1;
        }
        Frag { bytes, len: src.len() as u8 }
    }

    /// Like [`Frag::new`] with the first byte ASCII-uppercased.
    const fn new_cap(s: &str) -> Frag {
        let mut f = Frag::new(s);
        f.bytes[0] = f.bytes[0].to_ascii_uppercase();
        f
    }
}

/// Append one packed fragment: an unconditional 4-byte copy, then trim.
#[inline(always)]
pub(crate) fn push_frag(out: &mut Vec<u8>, f: Frag) {
    out.extend_from_slice(&f.bytes);
    out.truncate(out.len() - (4 - f.len as usize));
}

/// Define a syllable pool as both a `&str` slice and a packed [`Frag`]
/// table; the three-table form adds a first-byte-capitalized variant
/// (only onsets need one — a word's first char is its first onset char).
macro_rules! frag_pool {
    ($name:ident, $packed:ident, $capped:ident, [$($s:literal),* $(,)?]) => {
        frag_pool!($name, $packed, [$($s),*]);
        const $capped: &[Frag] = &[$(Frag::new_cap($s)),*];
    };
    ($name:ident, $packed:ident, [$($s:literal),* $(,)?]) => {
        // The `&str` mirror is the readable source of truth, consumed
        // only by tests; generation reads the packed table.
        #[allow(dead_code)]
        pub(crate) const $name: &[&str] = &[$($s),*];
        const $packed: &[Frag] = &[$(Frag::new($s)),*];
    };
}

frag_pool!(ONSETS, ONSETS_P, ONSETS_C, [
    "b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "cl",
    "cr", "dr", "fl", "gr", "pl", "pr", "sc", "sp", "st", "str", "th", "tr", "ch", "ph", "qu",
]);
frag_pool!(NUCLEI, NUCLEI_P, [
    "a", "e", "i", "o", "u", "ae", "ia", "io", "ea", "ou", "ei",
]);
frag_pool!(CODAS, CODAS_P, [
    "", "", "", "n", "r", "s", "l", "m", "x", "t", "nd", "rn", "st", "ns",
]);
frag_pool!(LATIN_ENDINGS, LATIN_P, [
    "us", "um", "a", "is", "ia", "ens", "ii", "ata", "osa", "alis",
]);
frag_pool!(LINGUISTIC_ENDINGS, LINGUISTIC_P, [
    "ic", "an", "ese", "ish", "i", "ian", "ti", "ua", "o", "ai",
]);

/// Generate one pseudo-word of `syllables` syllables in the given style.
pub fn pseudo_word(rng: &mut SynthRng, style: WordStyle, syllables: usize) -> String {
    let mut w = Vec::with_capacity(syllables * 3 + 3);
    pseudo_word_into(rng, style, syllables, &mut w);
    String::from_utf8(w).expect("syllable fragments are valid UTF-8")
}

/// Append one pseudo-word to `out` — same RNG draws and bytes as
/// [`pseudo_word`], without the per-word `String`. This is the
/// generator's hot-path variant.
#[inline]
pub fn pseudo_word_into(rng: &mut SynthRng, style: WordStyle, syllables: usize, out: &mut Vec<u8>) {
    word_into(rng, style, syllables, out, false)
}

/// [`pseudo_word_into`] with the word's first byte ASCII-uppercased —
/// byte-for-byte `capitalize(pseudo_word(..))` with the same draws, but
/// with no intermediate buffer (the capital comes straight from the
/// pre-capitalized onset table).
#[inline]
pub fn pseudo_word_cap_into(
    rng: &mut SynthRng,
    style: WordStyle,
    syllables: usize,
    out: &mut Vec<u8>,
) {
    word_into(rng, style, syllables, out, true)
}

#[inline]
fn word_into(
    rng: &mut SynthRng,
    style: WordStyle,
    syllables: usize,
    out: &mut Vec<u8>,
    capitalize_first: bool,
) {
    for i in 0..syllables.max(1) {
        let onsets = if i == 0 && capitalize_first { ONSETS_C } else { ONSETS_P };
        push_frag(out, onsets[rng.gen_index(onsets.len())]);
        push_frag(out, NUCLEI_P[rng.gen_index(NUCLEI_P.len())]);
        // Interior codas make clusters too heavy; only allow at the end.
        if i + 1 == syllables {
            let pool = match style {
                WordStyle::Latin => LATIN_P,
                WordStyle::Linguistic => LINGUISTIC_P,
                WordStyle::Plain => CODAS_P,
            };
            push_frag(out, pool[rng.gen_index(pool.len())]);
        }
    }
}

/// Capitalize the first ASCII letter.
pub fn capitalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    capitalize_into(s, &mut out);
    out
}

/// Append `s` with its first ASCII letter capitalized — same bytes as
/// [`capitalize`], without the intermediate `String`.
pub fn capitalize_into(s: &str, out: &mut String) {
    let mut chars = s.chars();
    if let Some(c) = chars.next() {
        out.push(c.to_ascii_uppercase());
        out.push_str(chars.as_str());
    }
}

/// Byte-buffer variant of [`capitalize_into`]: append `s` with its first
/// byte ASCII-uppercased. Identical bytes for any UTF-8 input, because
/// `char::to_ascii_uppercase` only changes ASCII leaders and non-ASCII
/// leading bytes are `>= 0x80`, which `u8::to_ascii_uppercase` leaves
/// untouched.
#[inline]
pub(crate) fn push_cap(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    if let Some((&first, rest)) = b.split_first() {
        out.push(first.to_ascii_uppercase());
        out.extend_from_slice(rest);
    }
}

/// Shared English-ish vocabulary pools used by several domains.
pub mod pools {
    /// Product-category head nouns.
    pub const PRODUCT_HEADS: &[&str] = &[
        "Accessories", "Appliances", "Audio", "Bags", "Batteries", "Beds", "Bikes", "Books",
        "Cables", "Cameras", "Chairs", "Cleaners", "Clocks", "Coolers", "Cookware", "Decor",
        "Desks", "Displays", "Dolls", "Drives", "Filters", "Fixtures", "Footwear", "Furniture",
        "Games", "Gloves", "Grills", "Guitars", "Hats", "Heaters", "Helmets", "Instruments",
        "Jackets", "Jewelry", "Keyboards", "Kits", "Lamps", "Lenses", "Lighting", "Locks",
        "Mats", "Mixers", "Monitors", "Mounts", "Ovens", "Pads", "Pans", "Parts", "Pens",
        "Phones", "Pillows", "Players", "Printers", "Pumps", "Racks", "Routers", "Rugs",
        "Scanners", "Screens", "Sensors", "Shelves", "Speakers", "Stands", "Supplies", "Tables",
        "Tablets", "Tents", "Toners", "Tools", "Toys", "Trimmers", "Watches", "Wipes",
    ];

    /// Product-category modifiers.
    pub const PRODUCT_MODS: &[&str] = &[
        "Acoustic", "Adjustable", "Antique", "Automotive", "Baby", "Bamboo", "Bluetooth",
        "Ceramic", "Classic", "Commercial", "Compact", "Cordless", "Cotton", "Digital",
        "Electric", "Ergonomic", "Folding", "Gaming", "Garden", "Glass", "Handheld", "Heavy-Duty",
        "Home", "Indoor", "Industrial", "Kids", "Kitchen", "Leather", "Marine", "Mechanical",
        "Medical", "Metal", "Mini", "Modern", "Office", "Outdoor", "Pet", "Portable",
        "Professional", "Rechargeable", "Rustic", "Smart", "Solar", "Sports", "Stainless",
        "Travel", "Vintage", "Waterproof", "Wireless", "Wooden",
    ];

    /// Computer-science research areas (ACM-CCS-like stems).
    pub const CS_AREAS: &[&str] = &[
        "algorithms", "architectures", "benchmarking", "clustering", "compilers", "concurrency",
        "cryptography", "databases", "debugging", "embeddings", "fairness", "indexing",
        "inference", "kernels", "languages", "learning", "memory management", "middleware",
        "networks", "optimization", "parsing", "pipelines", "privacy", "provenance",
        "query processing", "ranking", "reasoning", "recovery", "replication", "retrieval",
        "scheduling", "security", "semantics", "storage", "streaming", "synthesis", "testing",
        "transactions", "verification", "virtualization", "visualization", "workflows",
    ];

    /// CS area qualifiers.
    pub const CS_QUALIFIERS: &[&str] = &[
        "adaptive", "approximate", "concurrent", "data-driven", "declarative", "distributed",
        "dynamic", "empirical", "federated", "formal", "graph-based", "hardware-aware",
        "incremental", "interactive", "large-scale", "neural", "online", "parallel",
        "probabilistic", "quantum", "real-time", "relational", "robust", "scalable", "secure",
        "self-tuning", "semantic", "spatial", "statistical", "streaming", "symbolic", "temporal",
    ];

    /// Geographic feature terms (GeoNames-like).
    pub const GEO_FEATURES: &[&str] = &[
        "archipelago", "basin", "bay", "canal", "canyon", "cape", "cliff", "coast", "crater",
        "delta", "desert", "dune", "escarpment", "estuary", "fjord", "forest", "glacier", "gorge",
        "gulf", "harbor", "headland", "highland", "hill", "island", "isthmus", "lagoon", "lake",
        "marsh", "mesa", "moor", "mountain", "oasis", "pass", "peninsula", "plain", "plateau",
        "reef", "ridge", "river", "savanna", "sea", "shoal", "sound", "spring", "steppe",
        "strait", "swamp", "tundra", "valley", "volcano", "waterfall", "wetland",
    ];

    /// Administrative/settlement terms (GeoNames class A/P-like).
    pub const GEO_ADMIN: &[&str] = &[
        "borough", "canton", "capital", "city", "commune", "county", "department", "district",
        "division", "hamlet", "municipality", "parish", "prefecture", "province", "region",
        "republic", "settlement", "state", "territory", "town", "township", "village", "ward",
        "zone",
    ];

    /// Disease/condition stems (ICD-like).
    pub const DISEASE_STEMS: &[&str] = &[
        "arthritis", "carcinoma", "colitis", "dermatitis", "dystrophy", "embolism", "fibrosis",
        "gastritis", "hepatitis", "hypertension", "infection", "insufficiency", "lesion",
        "myopathy", "necrosis", "nephritis", "neuropathy", "obstruction", "occlusion", "edema",
        "pneumonia", "sclerosis", "sepsis", "stenosis", "syndrome", "thrombosis", "ulcer",
        "anemia", "fracture", "degeneration", "malformation", "deficiency", "dysplasia",
        "inflammation", "rupture", "atrophy",
    ];

    /// Anatomical sites (ICD/OAE).
    pub const BODY_SITES: &[&str] = &[
        "abdominal", "adrenal", "arterial", "biliary", "bronchial", "cardiac", "cerebral",
        "cervical", "colonic", "corneal", "cranial", "cutaneous", "dental", "duodenal",
        "esophageal", "femoral", "gastric", "hepatic", "intestinal", "laryngeal", "lumbar",
        "mandibular", "nasal", "ocular", "optic", "pancreatic", "pelvic", "pericardial",
        "peripheral", "pleural", "pulmonary", "renal", "retinal", "spinal", "splenic",
        "thoracic", "thyroid", "tracheal", "urinary", "vascular", "venous", "vertebral",
    ];

    /// Adverse-event qualifiers (OAE).
    pub const AE_QUALIFIERS: &[&str] = &[
        "acute", "chronic", "delayed", "diffuse", "early-onset", "focal", "generalized",
        "intermittent", "late-onset", "localized", "mild", "moderate", "persistent",
        "progressive", "recurrent", "refractory", "severe", "subacute", "transient",
    ];

    /// Schema.org-like type stems.
    pub const SCHEMA_STEMS: &[&str] = &[
        "action", "article", "audience", "booking", "broadcast", "business", "catalog", "claim",
        "collection", "comment", "contact", "course", "dataset", "delivery", "device",
        "donation", "episode", "event", "facility", "gallery", "grant", "invoice", "listing",
        "membership", "menu", "message", "offer", "order", "organization", "payment", "permit",
        "person", "place", "playlist", "policy", "product", "program", "project", "rating",
        "report", "reservation", "review", "route", "schedule", "season", "series", "service",
        "statement", "station", "store", "ticket", "trip", "vehicle", "venue", "work",
    ];

    /// Schema.org-like modifiers.
    pub const SCHEMA_MODS: &[&str] = &[
        "aggregate", "archived", "broadcast", "cancelled", "completed", "creative", "digital",
        "educational", "exclusive", "featured", "financial", "government", "health", "legal",
        "local", "media", "medical", "mobile", "official", "online", "partial", "pending",
        "public", "recurring", "registered", "restricted", "scheduled", "social", "sponsored",
        "verified", "virtual",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fork;

    #[test]
    fn pseudo_word_is_deterministic() {
        let mut a = fork(7, "w", 0);
        let mut b = fork(7, "w", 0);
        assert_eq!(
            pseudo_word(&mut a, WordStyle::Latin, 2),
            pseudo_word(&mut b, WordStyle::Latin, 2)
        );
    }

    #[test]
    fn styles_produce_expected_endings() {
        let mut rng = fork(1, "w", 0);
        for _ in 0..50 {
            let w = pseudo_word(&mut rng, WordStyle::Latin, 2);
            assert!(
                LATIN_ENDINGS.iter().any(|e| w.ends_with(e)),
                "latin word {w:?} lacks latin ending"
            );
            let l = pseudo_word(&mut rng, WordStyle::Linguistic, 2);
            assert!(
                LINGUISTIC_ENDINGS.iter().any(|e| l.ends_with(e)),
                "linguistic word {l:?} lacks ending"
            );
        }
    }

    #[test]
    fn capitalized_variant_matches_capitalize_of_plain() {
        for (seed, style) in
            [(9u64, WordStyle::Latin), (10, WordStyle::Linguistic), (11, WordStyle::Plain)]
        {
            let mut a = fork(seed, "w", 2);
            let mut b = fork(seed, "w", 2);
            for syll in 1..4 {
                let plain = pseudo_word(&mut a, style, syll);
                let mut cap = Vec::new();
                pseudo_word_cap_into(&mut b, style, syll, &mut cap);
                assert_eq!(String::from_utf8(cap).unwrap(), capitalize(&plain));
            }
        }
    }

    #[test]
    fn words_are_nonempty_and_lowercase() {
        let mut rng = fork(3, "w", 1);
        for s in 1..4 {
            let w = pseudo_word(&mut rng, WordStyle::Plain, s);
            assert!(!w.is_empty());
            assert!(w.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn casing_helpers() {
        assert_eq!(capitalize("abc"), "Abc");
        assert_eq!(capitalize(""), "");
    }

    #[test]
    fn push_cap_matches_capitalize_into() {
        for s in ["abc", "", "x", "été", "a-b c"] {
            let mut a = String::new();
            capitalize_into(s, &mut a);
            let mut b = Vec::new();
            push_cap(&mut b, s);
            assert_eq!(String::from_utf8(b).unwrap(), a);
        }
    }

    #[test]
    fn pools_are_deduplicated() {
        for pool in [
            pools::PRODUCT_HEADS,
            pools::PRODUCT_MODS,
            pools::CS_AREAS,
            pools::GEO_FEATURES,
            pools::DISEASE_STEMS,
            pools::BODY_SITES,
            pools::SCHEMA_STEMS,
        ] {
            let mut v = pool.to_vec();
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), pool.len(), "pool contains duplicates");
        }
    }
}
