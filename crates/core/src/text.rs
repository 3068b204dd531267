//! The text rules every layer shares.
//!
//! * **Surface similarity**: character-trigram Jaccard over ASCII-lowered
//!   bytes ([`Trigrams`], [`similarity`]). The simulated models use it as
//!   their surface-form evidence (the NCBI species→genus uplift) and the
//!   detailed error analysis bands questions by it. [`ProbeTrigrams`]
//!   scores many names against one at a time, bit-identically: the hier
//!   router and flat shortlist rank taxonomy nodes with it.
//! * **Token count**: whitespace words split into alternating
//!   alphanumeric/other runs, each run costing `ceil(chars / 6)` tokens
//!   ([`token_count`], with [`tokenize`] as the materialising
//!   reference). It drives usage accounting, API cost and the hier
//!   prompt-cost comparison, whose `", "`-joined leaf listing is costed
//!   per name ([`listed_token_count`]). [`prompt_counts`] also counts a
//!   prompt's exemplars in the same pass, for the simulated models.
//! * **Word overlap**: the share of one name's space-split words found in
//!   another's ([`word_overlap`]), for enrichment's surface score and the
//!   lexical baseline.
//!
//! This is not a trained BPE; it approximates modern LLM tokenizers
//! (≈ 4 characters per token for English, punctuation split off, long
//! words chunked) well enough for token-dependent cost models.

/// Maximum characters a single token may span before being chunked.
const MAX_TOKEN_CHARS: usize = 6;

/// The one trigram extraction rule: every 3-byte window of a name,
/// ASCII-lowercased, in order, repeats included, packed big-endian into
/// the low 24 bits of a `u32` so packed order is byte order. Each window
/// rolls one lowered byte into the last, so no lowered copy is built.
/// Windows span UTF-8 boundaries; names under three bytes have none.
#[inline]
fn windows(name: &[u8]) -> impl Iterator<Item = u32> + '_ {
    let lower = |b: u8| u32::from(b.to_ascii_lowercase());
    let (mut window, rest) = match name {
        [a, b, rest @ ..] => ((lower(*a) << 8) | lower(*b), rest),
        _ => (0, &[][..]),
    };
    rest.iter().map(move |&b| {
        window = ((window << 8) | lower(b)) & 0xFF_FFFF;
        window
    })
}

/// The one Jaccard formula: `shared` trigrams over the `union` of two
/// trigram sets (see [`Trigrams::overlap`]).
#[inline]
pub(crate) fn jaccard_from_counts(shared: usize, union: usize) -> f64 {
    shared as f64 / union as f64
}

/// A name's ASCII-lowercased form and its sorted, deduplicated byte
/// trigrams (empty for names under three bytes). [`Trigrams::set`]
/// refills one in place, so scoring many names can reuse two buffers.
#[derive(Debug, Clone, Default)]
pub struct Trigrams {
    lower: String,
    grams: Vec<u32>,
}

impl Trigrams {
    /// Compute the trigram set of `name`.
    pub fn new(name: &str) -> Trigrams {
        let mut set = Trigrams::default();
        set.set(name);
        set
    }

    /// Replace this set with `name`'s, reusing its buffers.
    pub fn set(&mut self, name: &str) {
        self.lower.clear();
        self.lower.push_str(name);
        self.lower.make_ascii_lowercase();
        self.grams.clear();
        self.grams.extend(windows(name.as_bytes()));
        self.grams.sort_unstable();
        self.grams.dedup();
    }

    /// The ASCII-lowercased name.
    #[inline]
    pub fn lower(&self) -> &str {
        &self.lower
    }

    /// The sorted, deduplicated packed trigrams of [`Trigrams::lower`].
    #[inline]
    pub fn grams(&self) -> &[u32] {
        &self.grams
    }

    /// Trigram Jaccard similarity in `[0, 1]`. Names too short for
    /// trigrams fall back to equality ignoring ASCII case.
    #[inline]
    pub fn jaccard(&self, other: &Trigrams) -> f64 {
        let (shared, union) = self.overlap(other);
        jaccard_from_counts(shared, union)
    }

    /// The `(shared, union)` trigram counts behind [`Trigrams::jaccard`].
    /// Names too short for trigrams count `(1, 1)` when equal ignoring
    /// ASCII case, else `(0, 1)`.
    #[inline]
    pub fn overlap(&self, other: &Trigrams) -> (usize, usize) {
        let (a, b) = (self.grams(), other.grams());
        if a.is_empty() || b.is_empty() {
            return (usize::from(self.lower == other.lower), 1);
        }
        // A branch-free merge: which side advances is data, not control
        // flow, so the walk does not stall on mispredicted branches.
        let (mut i, mut j, mut shared) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            shared += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        (shared, a.len() + b.len() - shared)
    }
}

/// Marks a free [`ProbeTrigrams`] slot; packed trigrams fit in 24 bits.
const EMPTY_SLOT: u32 = u32::MAX;

/// Multiplicative hash of a packed trigram; callers take high bits.
#[inline]
fn hash(key: u32) -> u64 {
    u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Bit `bit` of a bitmap, as its word index and mask.
#[inline]
fn bit_of(bit: usize) -> (usize, u64) {
    (bit / 64, 1 << (bit % 64))
}

/// The indices of the set bits of `word`, lowest first.
#[inline]
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = word.trailing_zeros() as usize;
        word &= word.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

/// Candidate trigrams a [`ProbeScorer`] holds for table look-up at once;
/// a name with more that pass the prefilter is looked up in batches.
const PASSED: usize = 64;

/// The trigram sets of many probe names, indexed so one candidate name
/// is scored against every probe in a single walk over its own trigrams.
///
/// An open-addressed table maps each packed trigram that some probe
/// contains to a bitmask of those probes: `words` `u64`s per trigram,
/// one bit per probe, so any probe count fits. In front of it sits a
/// prefilter, a bitmap of eight bits per slot with a bit set at each
/// probe trigram's hash. A candidate's trigram whose bit is clear is in
/// no probe and skips the table; that is most of them. Scores are
/// bit-identical to [`Trigrams::jaccard`].
#[derive(Debug, Clone)]
pub struct ProbeTrigrams {
    /// Distinct trigram count of each probe.
    sizes: Vec<usize>,
    /// Probes under three bytes with their lowered bytes: they match
    /// only candidates equal to them ignoring ASCII case.
    short: Vec<(usize, Box<[u8]>)>,
    /// Slot keys: a packed trigram or [`EMPTY_SLOT`]. At most an eighth
    /// full; empty when no probe has trigrams.
    keys: Vec<u32>,
    /// Per slot, the row of its trigram's mask in `masks`.
    rows: Vec<u32>,
    /// `words` mask words per distinct probe trigram.
    masks: Vec<u64>,
    words: usize,
    /// The prefilter: `8 * keys.len()` bits, bit [`ProbeTrigrams::home`]
    /// set for every probe trigram.
    filter: Vec<u64>,
}

impl ProbeTrigrams {
    /// Index the trigrams of `probes`; probe `i` is the `i`-th name.
    pub fn new<'a>(probes: impl IntoIterator<Item = &'a str>) -> ProbeTrigrams {
        let sets: Vec<Trigrams> = probes.into_iter().map(Trigrams::new).collect();
        let words = sets.len().div_ceil(64);
        let grams: usize = sets.iter().map(|s| s.grams().len()).sum();
        let slots = if grams == 0 {
            0
        } else {
            (8 * grams).next_power_of_two()
        };
        let mut index = ProbeTrigrams {
            sizes: sets.iter().map(|s| s.grams().len()).collect(),
            short: Vec::new(),
            keys: vec![EMPTY_SLOT; slots],
            rows: vec![0; slots],
            masks: Vec::new(),
            words,
            filter: vec![0; slots / 8],
        };
        for (p, set) in sets.iter().enumerate() {
            if set.grams().is_empty() {
                index.short.push((p, set.lower().as_bytes().into()));
            }
            for &g in set.grams() {
                let home = index.home(hash(g));
                let (word, bit) = bit_of(home);
                index.filter[word] |= bit;
                let slot = index.slot(g, home);
                if index.keys[slot] == EMPTY_SLOT {
                    index.keys[slot] = g;
                    index.rows[slot] = (index.masks.len() / words) as u32;
                    index.masks.resize(index.masks.len() + words, 0);
                }
                index.masks[index.rows[slot] as usize * words + p / 64] |= 1 << (p % 64);
            }
        }
        index
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// The prefilter bit of a trigram whose hash is `h`. The slot count
    /// divides the filter's bit count, so it is also the trigram's home
    /// slot, taken modulo the slot count.
    #[inline]
    fn home(&self, h: u64) -> usize {
        (h >> 32) as usize & (8 * self.keys.len() - 1)
    }

    /// The slot holding `key`, or the free slot where it belongs, from
    /// its [`ProbeTrigrams::home`]. The table is never full, so the
    /// linear probe ends.
    #[inline]
    fn slot(&self, key: u32, home: usize) -> usize {
        let mask = self.keys.len() - 1;
        let mut slot = home & mask;
        while self.keys[slot] != key && self.keys[slot] != EMPTY_SLOT {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The probe mask of table row `row`.
    #[inline]
    fn mask(&self, row: u32) -> &[u64] {
        let at = row as usize * self.words;
        &self.masks[at..at + self.words]
    }

    /// A scorer with its own scratch buffers, one per worker.
    pub fn scorer(&self) -> ProbeScorer<'_> {
        ProbeScorer {
            probes: self,
            passed: [0; PASSED],
            found: vec![0; self.masks.len() / self.words.max(1) + 1],
            shared: vec![0; self.len()],
        }
    }
}

/// Scores candidate names against a [`ProbeTrigrams`], reusing its
/// buffers so scoring allocates nothing. Against four probes, a name of
/// NCBI's 18 bytes (16 trigrams) costs 114–122 ns on one thread of a
/// 2-vCPU x86-64 host (release build), against 151–154 ns for the
/// kernel that lowered a copy of the name and buffered its trigrams.
#[derive(Debug)]
pub struct ProbeScorer<'p> {
    probes: &'p ProbeTrigrams,
    /// Distinct candidate trigrams that passed the prefilter, waiting for
    /// table look-up, each with its home slot in the high half.
    passed: [u64; PASSED],
    /// The table rows of the candidate's trigrams that some probe has.
    /// Distinct trigrams have distinct rows, so one entry per row
    /// suffices; the spare entry takes the write of a trigram missing
    /// from the table.
    found: Vec<u32>,
    /// Trigrams each probe shares with the candidate (zero between calls).
    shared: Vec<usize>,
}

impl ProbeScorer<'_> {
    /// Call `hit(probe, score)` for every probe whose similarity to
    /// `name` is nonzero, where `score` equals
    /// `Trigrams::new(probe).jaccard(&Trigrams::new(name))` bit for bit.
    /// Every probe not reported scores exactly `0.0`.
    ///
    /// One walk rolls the name's trigrams off its bytes and hashes each
    /// once. The hash's top ten bits index a filter of the trigrams seen
    /// so far; only a trigram whose bit is already set is compared with
    /// the earlier ones, rolled again from the name, so repeats are
    /// skipped exactly at any length with no trigram buffer. Its middle
    /// bits index the prefilter. Trigrams that pass it are kept without
    /// a branch and looked up together, and each probe's shared count is
    /// summed from the rows found.
    pub fn score(&mut self, name: &str, mut hit: impl FnMut(usize, f64)) {
        let probes = self.probes;
        let bytes = name.as_bytes();
        if bytes.len() < 3 {
            for (p, lower) in &probes.short {
                if bytes.eq_ignore_ascii_case(lower) {
                    hit(*p, 1.0);
                }
            }
            return;
        }
        if probes.keys.is_empty() {
            return;
        }
        let mut seen = [0u64; 16];
        let (mut distinct, mut passed, mut found) = (0, 0, 0);
        for (i, g) in windows(bytes).enumerate() {
            let h = hash(g);
            let (word, bit) = bit_of((h >> 54) as usize);
            if seen[word] & bit != 0 && windows(&bytes[..i + 2]).any(|e| e == g) {
                continue;
            }
            seen[word] |= bit;
            distinct += 1;
            let home = probes.home(h);
            let (word, bit) = bit_of(home);
            self.passed[passed] = ((home as u64) << 32) | u64::from(g);
            passed += usize::from(probes.filter[word] & bit != 0);
            if passed == PASSED {
                found = self.look_up(passed, found);
                passed = 0;
            }
        }
        let found = self.look_up(passed, found);
        let found = &self.found[..found];
        for &row in found {
            for (word, &mask) in probes.mask(row).iter().enumerate() {
                for bit in ones(mask) {
                    self.shared[64 * word + bit] += 1;
                }
            }
        }
        for word in 0..probes.words {
            for bit in ones(found.iter().fold(0, |all, &row| all | probes.mask(row)[word])) {
                let p = 64 * word + bit;
                let shared = std::mem::take(&mut self.shared[p]);
                hit(p, jaccard_from_counts(shared, probes.sizes[p] + distinct - shared));
            }
        }
    }

    /// Look up the first `passed` held trigrams, appending the rows of
    /// those in the table to the `found` already found; returns the new
    /// count found.
    #[inline]
    fn look_up(&mut self, passed: usize, mut found: usize) -> usize {
        let probes = self.probes;
        for &entry in &self.passed[..passed] {
            let key = entry as u32;
            let slot = probes.slot(key, (entry >> 32) as usize);
            self.found[found] = probes.rows[slot];
            found += usize::from(probes.keys[slot] == key);
        }
        found
    }
}

/// Character-trigram Jaccard similarity of two names, case-insensitive
/// in ASCII.
pub fn similarity(a: &str, b: &str) -> f64 {
    Trigrams::new(a).jaccard(&Trigrams::new(b))
}

/// The one word-overlap rule: the share of `part`'s space-split words
/// that occur among `whole`'s, compared case-insensitively in ASCII.
/// Enrichment's surface score and the lexical baseline both read it.
pub fn word_overlap(whole: &str, part: &str) -> f64 {
    let (mut words, mut shared) = (0usize, 0usize);
    for word in part.split(' ') {
        words += 1;
        shared += usize::from(whole.split(' ').any(|w| w.eq_ignore_ascii_case(word)));
    }
    shared as f64 / words as f64
}

/// Tokens `name` costs as a non-final entry of a `", "`-joined listing:
/// `token_count(&format!("{name},"))` without building the string. The
/// comma opens a run of its own unless `name` ends in a run of other
/// characters, which it lengthens by one char. Since [`token_count`] is
/// additive across whitespace, `names.join(", ")` costs the sum of this
/// over every name but the last, plus `token_count(last)`.
///
/// The trailing run is measured on bytes while they are ASCII; only a
/// name whose trailing run reaches a byte from `0x80` up decodes chars.
pub fn listed_token_count(name: &str) -> usize {
    let is_other = |b: &u8| !b.is_ascii_alphanumeric() && !matches!(b, b'\t'..=b'\r' | b' ');
    let bytes = name.as_bytes();
    let ascii_tail = bytes.iter().rev().take_while(|&b| b.is_ascii() && is_other(b)).count();
    let tail = if bytes.len() > ascii_tail && !bytes[bytes.len() - 1 - ascii_tail].is_ascii() {
        name.chars()
            .rev()
            .take_while(|c| !c.is_whitespace() && !c.is_alphanumeric())
            .count()
    } else {
        ascii_tail
    };
    token_count(name) + usize::from(tail % MAX_TOKEN_CHARS == 0)
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

/// Opens every answered exemplar of a few-shot prompt
/// (`prompts::render_prefix`); counting it tells a model how many shots
/// it was shown.
pub const EXEMPLAR_MARKER: &str = "Example: ";

/// What one pass over a prompt, or a part of one cut after a `'\n'`,
/// counts. Both counts are additive across such a cut: tokens come from
/// whitespace-separated words, and [`EXEMPLAR_MARKER`] holds no `'\n'`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromptCounts {
    /// `token_count(text)`.
    pub tokens: usize,
    /// Occurrences of [`EXEMPLAR_MARKER`] in the text.
    pub exemplars: usize,
}

/// Token count of `text`: the same value as `tokenize(text).len()`,
/// computed without materialising the tokens.
#[inline]
pub fn token_count(text: &str) -> usize {
    count(text, false).tokens
}

/// The token count and the [`EXEMPLAR_MARKER`] count of `text` in one
/// bit-parallel pass over 64-byte blocks.
#[inline]
pub fn prompt_counts(text: &str) -> PromptCounts {
    count(text, true)
}

/// [`prompt_counts`], leaving `exemplars` at 0 unless `exemplars` is set
/// (a constant at each call site once inlined). The text is scanned in
/// place, each block checking its own bytes for ASCII as it classifies
/// them, so a short text costs one block and no separate ASCII pass: an
/// 18-byte name counts in 26–28 ns (40 ns with the pass) on the host
/// measured for [`ProbeScorer`].
/// Text that is not ASCII is scanned again from the start as one ASCII
/// stand-in byte per char, of the char's class, and its exemplars are
/// counted by `str::matches`; a run too long for the scan sends the
/// tokens to the generic path over [`runs`].
#[inline(always)]
fn count(text: &str, exemplars: bool) -> PromptCounts {
    let bytes = text.as_bytes();
    let mut scan = AsciiScan::default();
    let mut markers = 0;
    // The first block is peeled off: with no history yet, its 128-bit
    // arithmetic folds to 64 bits (most texts are one block).
    let (first, rest) = bytes.split_at(bytes.len().min(64));
    let colons = if first.is_empty() { 0 } else { scan.block(first) };
    if exemplars {
        markers += count_markers(bytes, 0, colons);
    }
    for (i, block) in rest.chunks(64).enumerate() {
        if scan.non_ascii {
            break;
        }
        let colons = scan.block(block);
        if exemplars {
            markers += count_markers(bytes, 64 * (i + 1), colons);
        }
    }
    if scan.non_ascii {
        scan = AsciiScan::default();
        let mut block = [0u8; 64];
        let mut filled = 0;
        let mut at = 0;
        while at < bytes.len() {
            block[filled] = if bytes[at].is_ascii() {
                at += 1;
                bytes[at - 1]
            } else {
                let c = text[at..].chars().next().expect("`at` is on a char boundary");
                at += c.len_utf8();
                // Stand-ins that spell no marker.
                if c.is_alphanumeric() {
                    b'0'
                } else if c.is_whitespace() {
                    b'\t'
                } else {
                    b'#'
                }
            };
            filled += 1;
            if filled == 64 {
                scan.block(&block);
                filled = 0;
            }
        }
        if filled > 0 {
            scan.block(&block[..filled]);
        }
        if exemplars {
            markers = text.matches(EXEMPLAR_MARKER).count();
        }
    }
    let tokens = if scan.overflow {
        // A run of k chars chunks into ceil(k / MAX_TOKEN_CHARS) tokens.
        runs(text).map(|run| run.chars().count().div_ceil(MAX_TOKEN_CHARS)).sum()
    } else {
        scan.tokens
    };
    PromptCounts { tokens, exemplars: markers }
}

/// [`EXEMPLAR_MARKER`]s among the `':'` bytes flagged in `colons`, a
/// block mask of `bytes` from `at`. The marker holds one `':'`, at
/// offset 7.
#[inline(always)]
fn count_markers(bytes: &[u8], at: usize, mut colons: u64) -> usize {
    let mut markers = 0;
    while colons != 0 {
        let colon = at + colons.trailing_zeros() as usize;
        colons &= colons - 1;
        let marker = colon.checked_sub(7).and_then(|start| bytes.get(start..start + 9));
        markers += usize::from(marker == Some(EXEMPLAR_MARKER.as_bytes()));
    }
    markers
}

/// `0x01` in every byte lane of a word.
const LANES_LO: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte lane of a word.
const LANES_HI: u64 = 0x8080_8080_8080_8080;

/// Lanes of `word`, all ASCII, whose byte lies in `lo..=hi`, as the lane's
/// high bit. Adding `0x80 - lo` sets a lane's high bit exactly when its
/// byte is at least `lo`, and no lane carries into the next.
#[inline(always)]
fn lanes_in(word: u64, lo: u8, hi: u8) -> u64 {
    let at_least = |b: u8| word.wrapping_add(LANES_LO * u64::from(0x80 - b));
    at_least(lo) & !at_least(hi + 1) & LANES_HI
}

/// Lanes of `word` holding an ASCII alphanumeric byte, as the lane's
/// high bit. Bytes from `0x80` up are never alphanumeric; they are
/// masked to seven bits first so that no lane carries into the next.
#[inline(always)]
fn alnum_lanes(word: u64) -> u64 {
    let low = word & !LANES_HI;
    let letters = lanes_in(low | (LANES_LO * 0x20), b'a', b'z');
    (lanes_in(low, b'0', b'9') | letters) & !word
}

/// The high bits of a word's eight lanes as the low eight bits, lane
/// `k` at bit `k`.
#[inline(always)]
fn lane_bits(high: u64) -> u64 {
    ((high >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// Token counting over 64-byte blocks of ASCII as bitmasks, one bit
/// per byte; the last block may be shorter.
///
/// Counting byte by byte takes a branch at every change of byte class,
/// which on prompt text mispredicts about once per word (about 3 ns per
/// byte). Instead each block is classified eight bytes at a time
/// into an alphanumeric mask and an other-character mask (whitespace is
/// neither). A token starts at every byte that opens a run, the
/// popcount of a shift-and-compare, and at every sixth byte into a run:
/// with `r_k` the bytes at least `k` bytes into their run, those are
/// `r_{6j} & !r_{6j+1}`, built by shifting and AND-ing over this block
/// and the last. No step branches on the text. A run longer than 61
/// bytes needs more history than one block and sets `overflow`.
#[derive(Default)]
struct AsciiScan {
    tokens: usize,
    /// The last block's alphanumeric and other-character masks.
    alnum: u64,
    other: u64,
    /// The last block's bytes that continue a run.
    cont: u64,
    /// Set when a run was too long to count.
    overflow: bool,
    /// Set when a block held a byte from `0x80` up: its count is void.
    non_ascii: bool,
}

impl AsciiScan {
    /// Count the tokens of the next 1–64 bytes, which end the text if
    /// there are fewer than 64; returns the mask of their `':'` bytes.
    /// A byte from `0x80` up sets `non_ascii`.
    #[inline(always)]
    fn block(&mut self, block: &[u8]) -> u64 {
        let (mut alnum, mut space, mut colon, mut high) = (0u64, 0u64, 0u64, 0u64);
        for (k, chunk) in block.chunks(8).enumerate() {
            let word = match (chunk.try_into(), block.len()) {
                (Ok(word), _) => u64::from_le_bytes(word),
                // A short last chunk: the block's last eight bytes,
                // shifted down past the ones already read.
                (Err(_), len @ 8..) => {
                    let last: [u8; 8] = block[len - 8..].try_into().expect("eight bytes");
                    u64::from_le_bytes(last) >> (8 * (8 - chunk.len()))
                }
                (Err(_), _) => chunk.iter().rev().fold(0, |word, &b| (word << 8) | u64::from(b)),
            };
            high |= word;
            alnum |= lane_bits(alnum_lanes(word)) << (8 * k);
            let spaces = lanes_in(word, b'\t', b'\r') | lanes_in(word, b' ', b' ');
            space |= lane_bits(spaces) << (8 * k);
            colon |= lane_bits(lanes_in(word, b':', b':')) << (8 * k);
        }
        self.non_ascii |= high & LANES_HI != 0;
        // Past the end is no run: neither alphanumeric nor other.
        let other = !(alnum | space) & (u64::MAX >> (64 - block.len()));
        let after_alnum = (alnum << 1) | (self.alnum >> 63);
        let after_other = (other << 1) | (self.other >> 63);
        let opens = (alnum & !after_alnum) | (other & !after_other);
        let cont = (alnum & after_alnum) | (other & after_other);
        self.tokens += opens.count_ones() as usize;

        // The high half is this block; the low half supplies history.
        let history = (u128::from(cont) << 64) | u128::from(self.cont);
        let r2 = history & (history << 1);
        let r6 = r2 & (r2 << 2) & (r2 << 4);
        let mut deep = r6; // r_{6j}, j = 1, 2, …
        for j in 1..=10 {
            let deeper = deep & (history << (6 * j));
            self.tokens += ((deep & !deeper) >> 64).count_ones() as usize;
            if j == 10 {
                self.overflow |= deeper >> 64 != 0;
                break;
            }
            deep &= r6 << (6 * j);
            // Rounds 1 and 2 (runs of 7 to 18 chars, common in names)
            // always run; an exit test before them would often be
            // mispredicted, one after them rarely is.
            if j >= 2 && deep >> 64 == 0 {
                break;
            }
        }
        (self.alnum, self.other, self.cont) = (alnum, other, cont);
        colon
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
    fn word_overlap_counts_the_parts_words() {
        assert_eq!(word_overlap("Acute Cardiac lesion AE", "cardiac LESION"), 1.0);
        assert_eq!(word_overlap("cardiac lesion", "acute cardiac lesion AE"), 0.5);
        assert_eq!(word_overlap("Books", "Audio"), 0.0);
        // Space-split: a doubled space makes an empty word on each side.
        assert_eq!(word_overlap("a  b", "a  c"), 2.0 / 3.0);
        // Folding is ASCII-only.
        assert_eq!(word_overlap("NAÏVE", "naïve"), 0.0);
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
        assert_eq!(t.grams(), &[0x61_6161, 0x61_6162]); // "aaa", "aab"
        assert!(Trigrams::new("ab").grams().is_empty());
    }

    /// Names that stress the trigram rules: empty and 1–2 byte names,
    /// case variants, repeated trigrams and non-ASCII bytes whose
    /// trigrams span UTF-8 boundaries.
    pub(crate) const ADVERSARIAL: [&str; 30] = [
        "",
        "a",
        "A",
        "ab",
        "AB",
        "é",
        "—",
        "abc",
        "ABC",
        "aBc",
        "abcabc",
        "aaaa",
        "AAAAb",
        "aaaaaaaa",
        "naïve",
        "NAÏVE",
        "naïve tæxon",
        "x — y",
        "x—y",
        "語言",
        "Sinō-Tibetan 語言",
        "Verbascum",
        "Verbascum chaixii",
        "verbascum CHAIXII",
        "Silene",
        "Wireless Speakers",
        "Books",
        "cardiac lesion AE",
        "acute cardiac lesion AE",
        "Emphysema, J43",
    ];

    /// `n` probe names cycling through [`ADVERSARIAL`] in variants:
    /// verbatim, upper-cased, doubled, and one sharing nothing.
    pub(crate) fn adversarial_probes(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let base = ADVERSARIAL[i % ADVERSARIAL.len()];
                match i / ADVERSARIAL.len() % 4 {
                    0 => base.to_owned(),
                    1 => base.to_uppercase(),
                    2 => format!("{base}{base}"),
                    _ => format!("qqzz{i}"),
                }
            })
            .collect()
    }

    /// Names that stress the scorer's walk: 3 bytes, and 300 bytes and
    /// more; long single-letter runs (every trigram a repeat); mixed case;
    /// non-ASCII bytes whose trigrams span UTF-8 boundaries; and long
    /// names of distinct trigrams, with far more than [`PASSED`] of them
    /// in the probe set when the name is a probe itself.
    fn scorer_names() -> Vec<String> {
        use taxoglimpse_synth::rng::{fork, Rng};
        let mut rng = fork(0x5C0E, "scorer-names", 0);
        let mut letters = |n: usize| -> String {
            (0..n)
                .map(|_| {
                    let c = char::from(b'a' + rng.gen_index(26) as u8);
                    if rng.gen_bool(0.3) { c.to_ascii_uppercase() } else { c }
                })
                .collect()
        };
        let distinct = letters(320);
        vec![
            "xyz".to_owned(),
            "XyZ".to_owned(),
            "é!".to_owned(),
            "a".repeat(300),
            "A".repeat(301),
            "aA".repeat(160),
            format!("{}b{}", "a".repeat(150), "a".repeat(150)),
            "naïve tæxon ".repeat(30),
            "語言—".repeat(40),
            distinct.to_ascii_lowercase(),
            distinct.clone(),
            format!("{distinct} {}", letters(40)),
            letters(400),
        ]
    }

    #[test]
    fn probe_scores_are_bit_identical_to_jaccard() {
        let with_long = |n: usize| scorer_names().into_iter().chain(adversarial_probes(n));
        let probe_sets = [0, 1, 2, 64, 65, 130]
            .map(adversarial_probes)
            .into_iter()
            .chain([with_long(0).collect(), with_long(70).collect()]);
        for probes in probe_sets {
            let n = probes.len();
            let index = ProbeTrigrams::new(probes.iter().map(String::as_str));
            assert_eq!(index.len(), n);
            let mut scorer = index.scorer();
            let candidates = ADVERSARIAL
                .iter()
                .map(|s| s.to_string())
                .chain(adversarial_probes(130))
                .chain(scorer_names());
            for name in candidates {
                let mut got = vec![None; n];
                scorer.score(&name, |p, score| {
                    assert!(got[p].is_none(), "probe {p} reported twice for {name:?}");
                    got[p] = Some(score);
                });
                for (p, probe) in probes.iter().enumerate() {
                    let want = Trigrams::new(probe).jaccard(&Trigrams::new(&name));
                    assert_eq!(
                        got[p].unwrap_or(0.0).to_bits(),
                        want.to_bits(),
                        "{probe:?} vs {name:?} ({n} probes)"
                    );
                    assert!(
                        got[p].is_none() || want > 0.0,
                        "{probe:?} vs {name:?} reported zero"
                    );
                }
            }
        }
    }

    /// A `", "`-joined listing, materialised: the reference that
    /// per-name [`listed_token_count`] sums are tested against.
    pub(crate) fn joined(names: &[&str]) -> String {
        names.join(", ")
    }

    #[test]
    fn listed_token_count_prices_the_trailing_comma() {
        let names = ADVERSARIAL
            .into_iter()
            .chain([
                "dots.....",
                "dots......",
                "x !?!?!",
                "x !?!?!?",
                "trailing ",
                "tab\t",
                "   ",
                "naïve —",
                "語言……",
                "語言……………",
            ])
            .map(str::to_owned)
            .chain(adversarial_texts());
        for name in names {
            assert_eq!(
                listed_token_count(&name),
                token_count(&format!("{name},")),
                "{name:?}"
            );
        }
    }

    /// Texts of every length from 0 to 80 bytes, cut at char boundaries
    /// from [`ADVERSARIAL`] names run together with each separator, so
    /// they cross the 64-byte first block with every kind of tail.
    fn adversarial_texts() -> impl Iterator<Item = String> {
        ["", " ", ", ", ".", "\t"].into_iter().flat_map(|sep| {
            (0..ADVERSARIAL.len()).flat_map(move |start| {
                let mut text = String::new();
                for name in ADVERSARIAL.iter().cycle().skip(start) {
                    if text.len() > 80 {
                        break;
                    }
                    text.push_str(name);
                    text.push_str(sep);
                }
                (0..=80).filter_map(move |len| text.get(..len).map(str::to_owned))
            })
        })
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

    /// The bit-parallel scan against [`tokenize`] and `str::matches` on
    /// random text built to cross every block edge: runs of 1–70 chars
    /// of each class (past the 61-char limit, so the generic path runs
    /// too), markers, and non-ASCII alphanumeric, whitespace and other
    /// chars (the stand-in path).
    #[test]
    fn prompt_counts_match_references() {
        use taxoglimpse_synth::rng::{fork, Rng};
        const PIECES: [&str; 16] = [
            "Example: ", "Example:", "xExample: ", " ", "\n", "\t", "\x0b", "a", "Z9", "-", ")?",
            "Example:\u{a0}", "—", "\u{a0}", "\u{2003}", "語言",
        ];
        for case in 0..3_000u64 {
            let mut rng = fork(0x70C5, "prompt-counts", case);
            let ascii = rng.gen_bool(0.5);
            let mut text = String::new();
            let len = rng.gen_index(400);
            while text.len() < len {
                let run = 1 + rng.gen_index(70);
                match rng.gen_index(5) {
                    0 => {
                        let pieces = PIECES.len() - 5 * usize::from(ascii);
                        text.push_str(PIECES[rng.gen_index(pieces)]);
                    }
                    1 => text.extend(std::iter::repeat_n('w', run)),
                    2 => text.extend(std::iter::repeat_n('.', run / 5 + 1)),
                    3 if !ascii => text.extend(std::iter::repeat_n('é', run)),
                    _ => text.extend(std::iter::repeat_n(' ', 1 + rng.gen_index(3))),
                }
            }
            let want = PromptCounts {
                tokens: tokenize(&text).len(),
                exemplars: text.matches(EXEMPLAR_MARKER).count(),
            };
            assert_eq!(prompt_counts(&text), want, "case {case}: {text:?}");
        }
    }

    #[test]
    fn prompt_counts_are_additive_across_a_newline_cut() {
        let prompt = "Example: Is Verbascum chaixii a type of Verbascum? Yes.\n\
                      Example: Is Silene a type of Caryophyllaceae? No.\n\
                      Is Hailu a type of Hakka-Chinese? answer with (Yes/No/I don't know)";
        let whole = prompt_counts(prompt);
        assert_eq!(whole.exemplars, 2);
        for (cut, _) in prompt.match_indices('\n') {
            let (head, tail) = prompt.split_at(cut + 1);
            let (a, b) = (prompt_counts(head), prompt_counts(tail));
            assert_eq!(a.tokens + b.tokens, whole.tokens);
            assert_eq!(a.exemplars + b.exemplars, whole.exemplars);
        }
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
        for text in samples.map(str::to_owned).into_iter().chain(adversarial_texts()) {
            assert_eq!(token_count(&text), tokenize(&text).len(), "{text:?}");
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
