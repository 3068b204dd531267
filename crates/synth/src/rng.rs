//! Deterministic, forkable randomness — self-contained.
//!
//! Every generator in this crate derives its random stream from a
//! `(master seed, purpose tag, index)` triple via [`fork`], so adding a
//! new consumer never perturbs the output of existing ones, and the same
//! options always produce byte-identical taxonomies.
//!
//! The stream cipher is an in-tree ChaCha8 (RFC 8439 block function at
//! eight rounds) keyed from the fork hash, with no external crates
//! involved. That keeps the byte streams *stable by construction*:
//! nothing short of editing this file — no toolchain bump, no dependency
//! upgrade — can change the output for a given `(seed, tag, index)`.
//! The [`Rng`] and [`SliceRandom`] traits expose the same call surface
//! the workspace previously used (`gen`, `gen_range`, `gen_bool`,
//! `choose`, `shuffle`), so consumers only swap their `use` lines.

/// The RNG used throughout the workspace. ChaCha8 is portable across
/// platforms, statistically solid, and fast enough to name two million
/// species in well under a second.
///
/// The refill computes **consecutive blocks lane-parallel**: every
/// vector op below works on `[u32; L]` where lane `b` belongs to block
/// `counter + b`, which the compiler auto-vectorizes. On x86-64 with
/// AVX2 (detected at runtime) all eight buffered blocks run as one
/// batch whose rows each fill a 256-bit register; elsewhere the same
/// generic code runs as two four-lane batches sized for 128-bit
/// registers. The emitted keystream is byte-for-byte the sequential
/// ChaCha8 stream either way (the reference-vector test pins it); only
/// the batch width differs.
#[derive(Debug, Clone)]
pub struct SynthRng {
    /// 256-bit key, fixed per stream.
    key: [u32; 8],
    /// Block counter (low word of the ChaCha counter/nonce row).
    counter: u64,
    /// Decoded output of the current block batch.
    buf: [u64; BUF_WORDS],
    /// Next unread word in `buf`; `BUF_WORDS` means exhausted.
    cursor: usize,
}

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Lanes per batch on the portable path (128-bit registers).
const LANES: usize = 4;
/// Blocks buffered per refill (one AVX2 batch / two portable batches).
const BATCH_BLOCKS: usize = 8;
/// u64 words buffered per refill: 8 per 64-byte block.
const BUF_WORDS: usize = 8 * BATCH_BLOCKS;

impl SynthRng {
    /// Key a fresh stream from a 64-bit seed (SplitMix64 key schedule).
    pub fn seed_from_u64(seed: u64) -> SynthRng {
        let mut key = [0u32; 8];
        let mut s = seed;
        for pair in key.chunks_mut(2) {
            s = mix64(s);
            pair[0] = s as u32;
            pair[1] = (s >> 32) as u32;
        }
        SynthRng { key, counter: 0, buf: [0; BUF_WORDS], cursor: BUF_WORDS }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        if self.cursor == BUF_WORDS {
            self.refill();
        }
        let word = self.buf[self.cursor];
        self.cursor += 1;
        word
    }

    fn refill(&mut self) {
        #[cfg(target_arch = "x86_64")]
        {
            // `is_x86_feature_detected!` caches its probe; the check is
            // one relaxed load amortized over 64 output words.
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `refill_avx2` only requires AVX2, which the
                // runtime check above just confirmed.
                unsafe { refill_avx2(&self.key, self.counter, &mut self.buf) };
                self.counter = self.counter.wrapping_add(BATCH_BLOCKS as u64);
                self.cursor = 0;
                return;
            }
        }
        let (lo, hi) = self.buf.split_at_mut(8 * LANES);
        refill_batch::<LANES>(&self.key, self.counter, lo);
        refill_batch::<LANES>(&self.key, self.counter.wrapping_add(LANES as u64), hi);
        self.counter = self.counter.wrapping_add(BATCH_BLOCKS as u64);
        self.cursor = 0;
    }
}

/// The whole eight-block batch in one call, compiled with AVX2 enabled:
/// each `[u32; 8]` row of the generic body becomes a single 256-bit
/// register (16 rows exactly fill the ymm register file).
///
/// # Safety
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// `unsafe` only encodes the target-feature contract stated above.
unsafe fn refill_avx2(key: &[u32; 8], counter: u64, buf: &mut [u64; BUF_WORDS]) {
    refill_batch::<BATCH_BLOCKS>(key, counter, buf);
}

/// Compute `L` consecutive ChaCha8 blocks starting at `counter` into
/// `buf` (`8 * L` u64 words), lane-parallel. `#[inline(always)]` so the
/// body inherits the target features of whichever wrapper calls it.
#[inline(always)]
fn refill_batch<const L: usize>(key: &[u32; 8], counter: u64, buf: &mut [u64]) {
    debug_assert_eq!(buf.len(), 8 * L);
    // Lane b of every [u32; L] holds block counter + b.
    let mut state = [[0u32; L]; 16];
    for (i, &c) in CHACHA_CONSTANTS.iter().enumerate() {
        state[i] = [c; L];
    }
    for (i, &k) in key.iter().enumerate() {
        state[4 + i] = [k; L];
    }
    for lane in 0..L {
        let ctr = counter.wrapping_add(lane as u64);
        state[12][lane] = ctr as u32;
        state[13][lane] = (ctr >> 32) as u32;
    }
    // state[14..16]: zero nonce — streams differ by key, not nonce.
    let mut working = state;
    for _ in 0..4 {
        // Column round.
        quarter(&mut working, 0, 4, 8, 12);
        quarter(&mut working, 1, 5, 9, 13);
        quarter(&mut working, 2, 6, 10, 14);
        quarter(&mut working, 3, 7, 11, 15);
        // Diagonal round.
        quarter(&mut working, 0, 5, 10, 15);
        quarter(&mut working, 1, 6, 11, 12);
        quarter(&mut working, 2, 7, 8, 13);
        quarter(&mut working, 3, 4, 9, 14);
    }
    for (w, s) in working.iter_mut().zip(state.iter()) {
        for lane in 0..L {
            w[lane] = w[lane].wrapping_add(s[lane]);
        }
    }
    // Emit block by block so the stream equals sequential blocks.
    for lane in 0..L {
        for i in 0..8 {
            buf[8 * lane + i] =
                u64::from(working[2 * i][lane]) | (u64::from(working[2 * i + 1][lane]) << 32);
        }
    }
}

/// Lane-wise `x + y`.
#[inline(always)]
fn row_add<const L: usize>(x: [u32; L], y: [u32; L]) -> [u32; L] {
    let mut r = x;
    for lane in 0..L {
        r[lane] = r[lane].wrapping_add(y[lane]);
    }
    r
}

/// Lane-wise `(x ^ y) <<< n`.
#[inline(always)]
fn row_xor_rot<const L: usize>(x: [u32; L], y: [u32; L], n: u32) -> [u32; L] {
    let mut r = x;
    for lane in 0..L {
        r[lane] = (r[lane] ^ y[lane]).rotate_left(n);
    }
    r
}

/// One ChaCha quarter-round across all lanes. The four rows are copied
/// into locals first: with in-place `s[a][lane]` updates the compiler
/// must assume the runtime row indices alias and refuses to vectorize,
/// leaving the whole refill scalar.
#[inline(always)]
fn quarter<const L: usize>(s: &mut [[u32; L]; 16], a: usize, b: usize, c: usize, d: usize) {
    let (mut va, mut vb, mut vc, mut vd) = (s[a], s[b], s[c], s[d]);
    va = row_add(va, vb);
    vd = row_xor_rot(vd, va, 16);
    vc = row_add(vc, vd);
    vb = row_xor_rot(vb, vc, 12);
    va = row_add(va, vb);
    vd = row_xor_rot(vd, va, 8);
    vc = row_add(vc, vd);
    vb = row_xor_rot(vb, vc, 7);
    s[a] = va;
    s[b] = vb;
    s[c] = vc;
    s[d] = vd;
}

/// Mix a 64-bit value (SplitMix64 finalizer). Good avalanche, cheap.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derive an independent RNG stream for (`seed`, `tag`, `index`).
pub fn fork(seed: u64, tag: &str, index: u64) -> SynthRng {
    let mut h = seed;
    for b in tag.bytes() {
        h = mix64(h ^ u64::from(b));
    }
    h = mix64(h ^ index);
    SynthRng::seed_from_u64(h)
}

/// Stable 64-bit hash of a string mixed with a seed. Used to make
/// per-question decisions deterministic in downstream crates as well.
///
/// The bytes are read as little-endian 8-byte words, each folded into
/// the state with [`mix64`]; a final short word is zero-padded. This is
/// the one-shot form of [`StreamHasher`].
pub fn hash_str(seed: u64, s: &str) -> u64 {
    let mut h = StreamHasher::new(seed);
    h.write_str(s);
    h.finish()
}

/// Incremental [`hash_str`]: feeds byte slices one at a time and
/// produces exactly the value `hash_str` would return for their
/// concatenation, without materializing it.
///
/// This is the allocation-free path for hot callers that hash a key
/// assembled from several parts (the simulated LLM hashes a
/// `taxonomy|child|candidate|id` identity for every question): the
/// 8-byte chunking of [`hash_str`] is reproduced across part
/// boundaries by buffering a partial word between writes.
#[derive(Debug, Clone)]
pub struct StreamHasher {
    h: u64,
    word: u64,
    shift: u32,
}

impl StreamHasher {
    /// Start a stream equivalent to `hash_str(seed, ...)`.
    pub fn new(seed: u64) -> StreamHasher {
        StreamHasher { h: mix64(seed ^ 0x51_7c_c1_b7_27_22_0a_95), word: 0, shift: 0 }
    }

    /// Feed raw bytes. Whole words are read with `u64::from_le_bytes`;
    /// only the bytes that complete a buffered partial word, and the
    /// tail that starts the next one, are folded in one at a time. A
    /// word's value does not depend on how its bytes arrived, so every
    /// split of the input hashes alike.
    #[inline]
    pub fn write(&mut self, mut bytes: &[u8]) {
        if self.shift > 0 {
            while self.shift < 64 {
                let Some((&b, rest)) = bytes.split_first() else { return };
                self.word |= u64::from(b) << self.shift;
                self.shift += 8;
                bytes = rest;
            }
            self.h = mix64(self.h ^ self.word);
            self.word = 0;
            self.shift = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
            self.h = mix64(self.h ^ word);
        }
        for &b in words.remainder() {
            self.word |= u64::from(b) << self.shift;
            self.shift += 8;
        }
    }

    /// Feed a string's bytes.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// Feed the decimal digits of `v`, exactly as `format!("{v}")`
    /// would produce them, without allocating.
    pub fn write_decimal(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.write(&buf[i..]);
    }

    /// Finish the stream, mixing in any buffered partial word.
    #[inline]
    pub fn finish(self) -> u64 {
        if self.shift > 0 {
            mix64(self.h ^ self.word)
        } else {
            self.h
        }
    }
}

/// The sampling surface generators program against. Implemented by
/// [`SynthRng`]; mirrors the subset of `rand::Rng` the workspace uses.
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Sample a value of a [`Standard`]-distributed type
    /// (`rng.gen::<u64>()`, `rng.gen::<f64>()` in `[0,1)`, …).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample uniformly from a half-open range.
    #[inline]
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} out of range");
        f64_from_bits(self.next_u64()) < p
    }

    /// Uniform index in `[0, n)`; `n` must be nonzero.
    #[inline]
    fn gen_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "gen_index on empty range");
        // Lemire multiply-shift; bias is n/2^64, immaterial here.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

impl Rng for SynthRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        SynthRng::next_u64(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Uniform f64 in `[0, 1)` from the top 53 bits of a word.
#[inline]
fn f64_from_bits(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types samplable uniformly over their "standard" domain (the full
/// integer range; `[0,1)` for floats).
pub trait Standard {
    /// Draw one value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        f64_from_bits(rng.next_u64())
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Half-open ranges [`Rng::gen_range`] accepts.
pub trait SampleRange {
    /// The sampled value's type.
    type Output;
    /// Draw uniformly from the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        debug_assert!(self.start < self.end, "empty range");
        self.start + f64_from_bits(rng.next_u64()) * (self.end - self.start)
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64);

impl SampleRange for std::ops::Range<usize> {
    type Output = usize;
    #[inline]
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + rng.gen_index(self.end - self.start)
    }
}

/// Random slice operations (`choose`, `shuffle`), mirroring the
/// `rand::seq::SliceRandom` subset the workspace uses.
pub trait SliceRandom {
    /// The element type.
    type Item;

    /// A uniformly random element, or `None` if empty.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

    /// Uniform (Fisher–Yates) in-place shuffle.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    #[inline]
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_index(self.len())])
        }
    }

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, rng.gen_index(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_is_deterministic() {
        let mut a = fork(42, "names", 3);
        let mut b = fork(42, "names", 3);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut a = fork(42, "names", 3);
        let mut b = fork(42, "names", 4);
        let mut c = fork(42, "shape", 3);
        let (x, y, z) = (a.gen::<u64>(), b.gen::<u64>(), c.gen::<u64>());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn hash_str_is_stable_and_sensitive() {
        assert_eq!(hash_str(1, "abc"), hash_str(1, "abc"));
        assert_ne!(hash_str(1, "abc"), hash_str(2, "abc"));
        assert_ne!(hash_str(1, "abc"), hash_str(1, "abd"));
        assert_ne!(hash_str(1, ""), hash_str(1, "a"));
    }

    /// The streaming hasher must equal `hash_str` over the concatenation
    /// regardless of how the input is split across writes — including
    /// splits that straddle the 8-byte chunk boundary.
    #[test]
    fn stream_hasher_matches_hash_str() {
        let samples = [
            "",
            "a",
            "abcdefg",
            "abcdefgh",
            "abcdefghi",
            "eBay|Wireless Speakers|Audio|4294967297",
            "exactly sixteen.",
            "ünïcødé names työ",
        ];
        for s in samples {
            for seed in [0u64, 1, 0xDEAD_BEEF] {
                for split in 0..=s.len() {
                    if !s.is_char_boundary(split) {
                        continue;
                    }
                    let mut h = StreamHasher::new(seed);
                    h.write_str(&s[..split]);
                    h.write_str(&s[split..]);
                    assert_eq!(h.finish(), hash_str(seed, s), "{s:?} split at {split}");
                }
            }
        }
    }

    /// The hash as first specified: every byte folded into its word one
    /// at a time, each full or final short word mixed in.
    fn reference_hash(seed: u64, bytes: &[u8]) -> u64 {
        let mut h = mix64(seed ^ 0x51_7c_c1_b7_27_22_0a_95);
        for chunk in bytes.chunks(8) {
            let mut word = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                word |= u64::from(b) << (8 * i);
            }
            h = mix64(h ^ word);
        }
        h
    }

    /// Values `hash_str` returned before it read whole words. Every
    /// digest in the workspace depends on them.
    #[test]
    fn hash_str_keeps_its_recorded_values() {
        let pinned: [(u64, &str, u64); 6] = [
            (0x0, "", 0x35f5_76a4_e31c_f92b),
            (0x1, "a", 0x096c_7a29_1ad9_80ef),
            (0x2a, "abcdefgh", 0x1913_e97b_1cea_0bb5),
            (0x7, "eBay|Wireless Speakers|Audio|4294967297", 0xbf49_cf0d_2e64_f607),
            (
                0xf00d,
                "Is Hailu a type of Hakka-Chinese? answer with (Yes/No/I don't know)\n",
                0xf9f6_c825_efa7_7848,
            ),
            (0x5eed, "ünïcødé names työ", 0xeafd_33b5_d25f_9e9a),
        ];
        for (seed, s, want) in pinned {
            assert_eq!(hash_str(seed, s), want, "hash_str({seed:#x}, {s:?})");
            assert_eq!(reference_hash(seed, s.as_bytes()), want, "reference on {s:?}");
        }
    }

    /// Word-at-a-time hashing equals the byte-at-a-time reference on
    /// random bytes of every length up to 200, whole and split into up
    /// to five writes at arbitrary byte offsets (UTF-8 boundaries play
    /// no part: the hasher sees bytes).
    #[test]
    fn word_hashing_matches_bytewise_reference() {
        for case in 0..2_000u64 {
            let mut rng = fork(0x4A5B, "hash-equivalence", case);
            let len = rng.gen_index(201);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
            let seed = rng.gen::<u64>();
            let want = reference_hash(seed, &bytes);
            if let Ok(s) = std::str::from_utf8(&bytes) {
                assert_eq!(hash_str(seed, s), want, "case {case}");
            }
            let mut cuts: Vec<usize> =
                (0..rng.gen_index(5)).map(|_| rng.gen_index(len + 1)).collect();
            cuts.sort_unstable();
            let mut h = StreamHasher::new(seed);
            let mut at = 0;
            for cut in cuts.iter().copied().chain([len]) {
                h.write(&bytes[at..cut]);
                at = cut;
            }
            assert_eq!(h.finish(), want, "case {case}: {len} bytes cut at {cuts:?}");
        }
        // Text, cut inside multi-byte chars.
        let text = "Sinō-Tibetan 語言 — naïve tæxon œuvre";
        for a in 0..=text.len() {
            for b in a..=text.len() {
                let mut h = StreamHasher::new(3);
                h.write(&text.as_bytes()[..a]);
                h.write(&text.as_bytes()[a..b]);
                h.write(&text.as_bytes()[b..]);
                assert_eq!(h.finish(), reference_hash(3, text.as_bytes()), "cut at {a}, {b}");
            }
        }
    }

    #[test]
    fn stream_hasher_decimal_matches_formatted_digits() {
        for v in [0u64, 1, 9, 10, 12345, u64::MAX] {
            let mut a = StreamHasher::new(7);
            a.write_decimal(v);
            assert_eq!(a.finish(), hash_str(7, &format!("{v}")), "v = {v}");
        }
    }

    #[test]
    fn mix64_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = mix64(0x1234_5678);
        let flipped = mix64(0x1234_5679);
        let diff = (base ^ flipped).count_ones();
        assert!((16..=48).contains(&diff), "poor avalanche: {diff} bits");
    }

    #[test]
    fn chacha8_matches_reference_vector() {
        // ChaCha8 block 0 with an all-zero key and nonce; first 64 bytes
        // of keystream as little-endian u64 words. Pins the stream so an
        // accidental edit to the core cannot slip through unnoticed.
        let mut rng =
            SynthRng { key: [0; 8], counter: 0, buf: [0; BUF_WORDS], cursor: BUF_WORDS };
        let expected: [u64; 8] = [
            0xd640_5f89_2fef_003e,
            0xa1a5_091f_e8b8_5b7f,
            0x3b7f_9ace_c30e_842c,
            0x1e1a_71ef_88e1_1b18,
            0x416f_21b9_72e1_4c98,
            0x1956_6d45_6753_449f,
            0x01b0_86da_a342_4a31,
            0x42fe_0c0e_b8fd_7b38,
        ];
        for word in expected {
            assert_eq!(rng.next_u64(), word);
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = fork(7, "unit", 0);
        for _ in 0..10_000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = fork(9, "range", 0);
        for _ in 0..10_000 {
            let x = rng.gen_range(1e-9..1.0);
            assert!((1e-9..1.0).contains(&x), "{x}");
            let n = rng.gen_range(3usize..17);
            assert!((3..17).contains(&n), "{n}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = fork(11, "bool", 0);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn choose_and_shuffle_are_uniform_enough() {
        let mut rng = fork(13, "slice", 0);
        let pool = [0usize, 1, 2, 3, 4];
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[*pool.choose(&mut rng).unwrap()] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
        // Shuffle is a permutation and moves things around.
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely identity shuffle");
        assert!(<[usize]>::choose(&[], &mut rng).is_none());
    }

    #[test]
    fn empty_shuffle_and_singleton_choose() {
        let mut rng = fork(17, "edge", 0);
        let mut empty: Vec<u8> = vec![];
        empty.shuffle(&mut rng);
        assert_eq!(["only"].choose(&mut rng), Some(&"only"));
    }
}
