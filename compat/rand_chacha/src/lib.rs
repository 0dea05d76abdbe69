//! Offline stand-in for `rand_chacha`, implementing the real ChaCha8 stream
//! cipher (RFC 8439 core with the 64-bit counter / 64-bit stream layout the
//! real crate uses).
//!
//! The keystream is the genuine ChaCha8 output — not an approximation — and
//! the word-buffering follows `rand_core::block::BlockRng` (a 64-word buffer
//! refilled four blocks at a time, `next_u64` assembled low-word-first, with
//! the same straddle behaviour at the buffer edge). Together with the rand
//! stub's faithful `seed_from_u64`, streams drawn here are bit-identical to
//! `rand_chacha 0.3` + `rand 0.8`.
//!
//! ChaCha is a counter-mode cipher: word `n` of a stream is word `n % 16`
//! of block `n / 16`, computable without the words before it.
//! [`ChaCha8Rng::get_word_pos`] / [`ChaCha8Rng::set_word_pos`] expose that
//! as the published crate does, so a caller that knows how many words each
//! of its draws consumes can start a clone anywhere in the stream.

use rand::{RngCore, SeedableRng};

/// Keystream words per ChaCha block.
const BLOCK_WORDS: usize = 16;

/// Blocks computed per refill (the real crate's four).
const BUFFER_BLOCKS: usize = 4;

/// Number of u32 words buffered per refill (the real crate's `BUFSZ`).
const BUFFER_WORDS: usize = BUFFER_BLOCKS * BLOCK_WORDS;

/// ChaCha8 is four double rounds.
const DOUBLE_ROUNDS: usize = 4;

/// A ChaCha stream cipher RNG with 8 rounds.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Key words (state words 4..12).
    key: [u32; 8],
    /// 64-bit block counter (state words 12, 13) of the block after the
    /// buffered ones.
    counter: u64,
    /// Stream id (state words 14, 15); zero for seeded construction.
    stream: u64,
    /// Buffered keystream words.
    buf: [u32; BUFFER_WORDS],
    /// Next unread index into `buf`; `BUFFER_WORDS` means empty.
    index: usize,
}

impl ChaCha8Rng {
    /// The sixteen input words of block `counter`.
    fn input(&self, counter: u64) -> [u32; BLOCK_WORDS] {
        const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
        let mut x = [0u32; BLOCK_WORDS];
        x[..4].copy_from_slice(&SIGMA);
        x[4..12].copy_from_slice(&self.key);
        x[12] = counter as u32;
        x[13] = (counter >> 32) as u32;
        x[14] = self.stream as u32;
        x[15] = (self.stream >> 32) as u32;
        x
    }

    /// Runs the ChaCha8 block function for block `counter`, writing 16
    /// keystream words — one block at a time, on scalar words. The refill
    /// of targets without SSE2, and the oracle the SSE2 refill is tested
    /// against.
    #[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
    fn block(&self, counter: u64, out: &mut [u32]) {
        let x = self.input(counter);
        let mut w = x;
        // Spelled out, not looped over a table of indices: with constant
        // indices the state stays in registers.
        for _ in 0..DOUBLE_ROUNDS {
            quarter(&mut w, 0, 4, 8, 12);
            quarter(&mut w, 1, 5, 9, 13);
            quarter(&mut w, 2, 6, 10, 14);
            quarter(&mut w, 3, 7, 11, 15);
            quarter(&mut w, 0, 5, 10, 15);
            quarter(&mut w, 1, 6, 11, 12);
            quarter(&mut w, 2, 7, 8, 13);
            quarter(&mut w, 3, 4, 9, 14);
        }
        for i in 0..BLOCK_WORDS {
            out[i] = w[i].wrapping_add(x[i]);
        }
    }

    /// Refills the buffer with the next four blocks.
    fn refill(&mut self) {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        {
            let inputs = std::array::from_fn(|b| self.input(self.counter.wrapping_add(b as u64)));
            // SAFETY: this arm is compiled only for targets that have SSE2,
            // so every CPU that runs it does; `four_blocks` needs nothing
            // else and touches memory only through its two array arguments.
            unsafe { sse2::four_blocks(&inputs, &mut self.buf) };
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
        for b in 0..BUFFER_BLOCKS {
            let mut words = [0u32; BLOCK_WORDS];
            self.block(self.counter.wrapping_add(b as u64), &mut words);
            self.buf[b * BLOCK_WORDS..][..BLOCK_WORDS].copy_from_slice(&words);
        }
        self.counter = self.counter.wrapping_add(BUFFER_BLOCKS as u64);
        self.index = 0;
    }

    /// The stream id (always 0 for seeded construction).
    pub fn get_stream(&self) -> u64 {
        self.stream
    }

    /// Selects an independent keystream; resets buffered output.
    pub fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        self.index = BUFFER_WORDS;
    }

    /// The offset from the start of the stream, in 32-bit words: how many
    /// words every draw so far has consumed. A 68-bit number (a 64-bit
    /// block counter of 16-word blocks), as in the published crate.
    pub fn get_word_pos(&self) -> u128 {
        // The buffer holds the BUFFER_BLOCKS blocks before `counter`; an
        // empty buffer (`index == BUFFER_WORDS`) lands on `counter` itself.
        let buf_start = self.counter.wrapping_sub(BUFFER_BLOCKS as u64);
        let block = buf_start.wrapping_add((self.index / BLOCK_WORDS) as u64);
        u128::from(block) * BLOCK_WORDS as u128 + (self.index % BLOCK_WORDS) as u128
    }

    /// Moves to `word_offset` words from the start of the stream (its low
    /// 68 bits; the stream cycles after 2⁶⁸ words): the next word drawn is
    /// the one a fresh generator would draw after `word_offset` words. The
    /// buffer is refilled from the block holding that word, as the
    /// published crate does.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        self.counter = (word_offset / BLOCK_WORDS as u128) as u64;
        self.refill();
        self.index = (word_offset % BLOCK_WORDS as u128) as usize;
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
#[inline(always)]
fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

/// The refill's four blocks side by side in SSE2 lanes: vector `i` holds
/// state word `i` of all four blocks, so one vector instruction advances
/// the same step of four quarter-rounds — how the published crate fills its
/// buffer. Lane arithmetic is the scalar block's, word for word
/// (`wrapping_add`, `^`, a rotate spelled as two shifts and an or).
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use super::{BLOCK_WORDS, BUFFER_BLOCKS, BUFFER_WORDS, DOUBLE_ROUNDS};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi128_si64, _mm_or_si128, _mm_set_epi32, _mm_slli_epi32,
        _mm_srli_epi32, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// `v` rotated left by `L` bits in every lane (`R` = 32 − `L`).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotate<const L: i32, const R: i32>(v: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(v), _mm_srli_epi32::<R>(v))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter(x: &mut [__m128i; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotate::<16, 16>(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotate::<12, 20>(_mm_xor_si128(x[b], x[c]));
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotate::<8, 24>(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotate::<7, 25>(_mm_xor_si128(x[b], x[c]));
    }

    /// The keystream of the four blocks whose input words are `inputs`,
    /// block `b` into `out[16·b ..][..16]`.
    #[target_feature(enable = "sse2")]
    pub(super) fn four_blocks(
        inputs: &[[u32; BLOCK_WORDS]; BUFFER_BLOCKS],
        out: &mut [u32; BUFFER_WORDS],
    ) {
        let [i0, i1, i2, i3] = inputs;
        let x: [__m128i; BLOCK_WORDS] = std::array::from_fn(|i| {
            _mm_set_epi32(i3[i] as i32, i2[i] as i32, i1[i] as i32, i0[i] as i32)
        });
        let mut w = x;
        for _ in 0..DOUBLE_ROUNDS {
            quarter(&mut w, 0, 4, 8, 12);
            quarter(&mut w, 1, 5, 9, 13);
            quarter(&mut w, 2, 6, 10, 14);
            quarter(&mut w, 3, 7, 11, 15);
            quarter(&mut w, 0, 5, 10, 15);
            quarter(&mut w, 1, 6, 11, 12);
            quarter(&mut w, 2, 7, 8, 13);
            quarter(&mut w, 3, 4, 9, 14);
        }
        for i in 0..BLOCK_WORDS {
            let v = _mm_add_epi32(w[i], x[i]);
            let low = _mm_cvtsi128_si64(v) as u64;
            let high = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
            out[i] = low as u32;
            out[BLOCK_WORDS + i] = (low >> 32) as u32;
            out[2 * BLOCK_WORDS + i] = high as u32;
            out[3 * BLOCK_WORDS + i] = (high >> 32) as u32;
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            key,
            counter: 0,
            stream: 0,
            buf: [0; BUFFER_WORDS],
            index: BUFFER_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUFFER_WORDS {
            self.refill();
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // rand_core::block::BlockRng::next_u64: low word first, with the
        // edge case where the pair straddles a refill.
        let index = self.index;
        if index < BUFFER_WORDS - 1 {
            self.index += 2;
            u64::from(self.buf[index + 1]) << 32 | u64::from(self.buf[index])
        } else if index >= BUFFER_WORDS {
            self.refill();
            self.index = 2;
            u64::from(self.buf[1]) << 32 | u64::from(self.buf[0])
        } else {
            let lo = u64::from(self.buf[BUFFER_WORDS - 1]);
            self.refill();
            self.index = 1;
            let hi = u64::from(self.buf[0]);
            hi << 32 | lo
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        // rand_core's fill_via_u32_chunks: consume whole little-endian
        // words; a trailing partial word is consumed and truncated.
        for chunk in dest.chunks_mut(4) {
            let word = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    /// Words 0..=130 of `seed_from_u64(42)`'s stream, captured before the
    /// refill was vectorised and the seek API added: two whole buffers and
    /// three words of a third.
    const SEED_42_WORDS: [u32; 131] = [
        0x395d5ba1, 0xae90bfb5, 0x25799188, 0xf3453fc6, 0xc5b6538c, 0x6d71b708, 0x58166752,
        0xa09ab2f9, 0xbcb642b0, 0x49e149d8, 0xa45d829e, 0x2663b45b, 0x50871314, 0x4edbbf01,
        0x2a122884, 0xcdca9b0d, 0xa0ce0c00, 0xc5708f62, 0xd34b3198, 0x3d13ec83, 0x89560628,
        0x81c206f7, 0x60e85ba3, 0xe6dc929b, 0x95c7402d, 0xf4fd5073, 0xc598034d, 0x97cd718e,
        0xe52717aa, 0xba9289a0, 0x4ee7b7a4, 0x2ddbe23b, 0xfe19284d, 0x934cf71a, 0x1aae86e3,
        0x2bf89d0e, 0x32b224ff, 0x71ad69f0, 0x44e2c30d, 0x138e5c60, 0xfb4c1eb7, 0x2791228e,
        0x9c4a95c5, 0x5207c02e, 0x472a1939, 0xb31ec084, 0xa6024d42, 0x141261d1, 0x5ef74a04,
        0x09d820da, 0x649f3d97, 0x4306bcb4, 0x2ffb1171, 0xd6fb8dd8, 0x5658cebd, 0xc269ea9a,
        0x8a95b1a9, 0xac08a303, 0xb25485a7, 0xae9f8deb, 0x833fa317, 0xac9bfe48, 0xdd054437,
        0x198f3a0a, 0x4947cb17, 0x33dff09c, 0xdaba4bec, 0x381dde4a, 0x0ba92b48, 0xc3f114b5,
        0x0b68b402, 0xb2362789, 0xbcbdf030, 0x6ca14322, 0x3db50cf9, 0x10cc204f, 0x6eab2133,
        0xe1ab70c6, 0x07898b93, 0xa7f7a9f0, 0x79127392, 0xc599f0bc, 0xec719eb1, 0xd29d9c4e,
        0xc0faac4f, 0x0ad462e8, 0x4a2166cd, 0xd504413d, 0xf1b154fc, 0xefe5cff5, 0xa1c15013,
        0xb5826b90, 0xdde66a07, 0x73f7ef74, 0x60f0bdfe, 0xdd6c9629, 0xd26a66be, 0x957327e3,
        0xa828bd9a, 0xf6e57ab2, 0x213bf5d2, 0x3b17a980, 0x0b078a72, 0x9f875ef0, 0x63b9b234,
        0x5dc77627, 0xc18b9918, 0x712c1568, 0x33bdc485, 0x22940381, 0xfc4b10b2, 0x233e9421,
        0xfb878371, 0xad6c136f, 0xe7f3c6fb, 0xcaf39603, 0xd6dd2aa2, 0xb5ad18b5, 0x30cc7fdd,
        0x74b0d70a, 0x91eef8c3, 0x05f4399f, 0x55887b48, 0x9e2593af, 0x9abff1a7, 0xdef92959,
        0xc1c503a6, 0x58f61d84, 0xc7bae05c, 0x0939a7c6, 0xeb363a34,
    ];

    /// The first block of seed 42 under `set_stream(7)`, captured likewise.
    const SEED_42_STREAM_7_WORDS: [u32; 16] = [
        0x35be27d0, 0x20e5cc88, 0x6dbb833d, 0x538a68c1, 0xcebf4400, 0x9d8dc577, 0x5d65b364,
        0x7e6bb95a, 0xcf2ba911, 0x64856b98, 0xfb4cf3f9, 0x3861c731, 0x57344e5c, 0x39c54aa3,
        0x88a45839, 0x40622c8b,
    ];

    /// `next_u64` as the two words it consumes, low first.
    fn pair(words: &[u32]) -> u64 {
        u64::from(words[1]) << 32 | u64::from(words[0])
    }

    #[test]
    fn the_seed_42_keystream_is_pinned() {
        let mut r = ChaCha8Rng::seed_from_u64(42);
        let words: Vec<u32> = (0..SEED_42_WORDS.len()).map(|_| r.next_u32()).collect();
        assert_eq!(words, SEED_42_WORDS);
        // From an odd position every `next_u64` after the first refill
        // straddles the next one: words 63 and 64, then 127 and 128.
        let mut r = ChaCha8Rng::seed_from_u64(42);
        r.next_u32();
        for (n, words) in SEED_42_WORDS[1..].chunks_exact(2).enumerate() {
            assert_eq!(r.next_u64(), pair(words), "u64 {n} from word 1");
        }
        let mut r = ChaCha8Rng::seed_from_u64(42);
        r.set_stream(7);
        let words: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
        assert_eq!(words, SEED_42_STREAM_7_WORDS);
    }

    #[test]
    fn word_pos_counts_words_and_seeks_to_them() {
        let mut r = ChaCha8Rng::seed_from_u64(42);
        assert_eq!(r.get_word_pos(), 0);
        for n in 0..SEED_42_WORDS.len() {
            assert_eq!(r.get_word_pos(), n as u128);
            r.next_u32();
        }
        let mut r = ChaCha8Rng::seed_from_u64(42);
        r.next_u32();
        r.next_u64(); // straddles nothing
        assert_eq!(r.get_word_pos(), 3);
        // A seek lands on the same word whatever buffer it was in, and
        // a straddling `next_u64` after it reads the two words in order.
        for pos in [0, 1, 15, 16, 17, 62, 63, 64, 65, 100, 127, 128] {
            let mut r = ChaCha8Rng::seed_from_u64(42);
            r.set_word_pos(pos as u128);
            assert_eq!(r.get_word_pos(), pos as u128);
            assert_eq!(r.next_u64(), pair(&SEED_42_WORDS[pos..]), "at word {pos}");
            let rest: Vec<u32> = (pos + 2..SEED_42_WORDS.len())
                .map(|_| r.next_u32())
                .collect();
            assert_eq!(rest, SEED_42_WORDS[pos + 2..], "after word {pos}");
            assert_eq!(r.get_word_pos(), SEED_42_WORDS.len() as u128);
        }
    }

    #[test]
    fn seeking_backwards_replays_and_the_position_wraps_at_2_pow_68() {
        let mut r = ChaCha8Rng::seed_from_u64(9);
        let first: Vec<u64> = (0..40).map(|_| r.next_u64()).collect();
        r.set_word_pos(0);
        let again: Vec<u64> = (0..40).map(|_| r.next_u64()).collect();
        assert_eq!(first, again);
        // The last word before the counter wraps, then word 0 again.
        let end = (u128::from(u64::MAX) + 1) * BLOCK_WORDS as u128;
        r.set_word_pos(end - 1);
        assert_eq!(r.get_word_pos(), end - 1);
        r.next_u32();
        assert_eq!(r.get_word_pos(), 0);
        assert_eq!(r.next_u64(), first[0]);
        r.set_word_pos(end + 2);
        assert_eq!(r.next_u64(), first[1]);
    }

    /// The refill (SSE2 lanes on x86-64) against four scalar blocks, at
    /// counters whose four blocks carry into the high counter word or
    /// wrap it, on two streams.
    #[test]
    fn the_refill_matches_the_scalar_block_function() {
        for stream in [0, 0x0123_4567_89ab_cdef] {
            for counter in [0, 4, 0xffff_fffe, 0x1_0000_0000, u64::MAX - 1] {
                let mut r = ChaCha8Rng::seed_from_u64(counter ^ 5);
                r.set_stream(stream);
                r.counter = counter;
                r.refill();
                for b in 0..BUFFER_BLOCKS {
                    let mut want = [0u32; BLOCK_WORDS];
                    r.block(counter.wrapping_add(b as u64), &mut want);
                    assert_eq!(
                        r.buf[b * BLOCK_WORDS..][..BLOCK_WORDS],
                        want,
                        "stream {stream:#x}, block {counter:#x} + {b}"
                    );
                }
            }
        }
    }

    /// Distinct blocks, counters, and streams must produce distinct
    /// keystream words (a catastrophic state-wiring bug would collide).
    #[test]
    fn blocks_counters_and_streams_differ() {
        let rng = ChaCha8Rng::from_seed([3u8; 32]);
        let (mut b0, mut b1) = ([0u32; 16], [0u32; 16]);
        rng.block(0, &mut b0);
        rng.block(1, &mut b1);
        assert_ne!(b0, b1);
        let mut other = rng.clone();
        other.set_stream(9);
        let mut s = [0u32; 16];
        other.block(0, &mut s);
        assert_ne!(b0, s);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..200 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = ChaCha8Rng::seed_from_u64(8);
        let first: Vec<u32> = (0..8).map(|_| c.next_u32()).collect();
        let mut d = ChaCha8Rng::seed_from_u64(7);
        let other: Vec<u32> = (0..8).map(|_| d.next_u32()).collect();
        assert_ne!(first, other);
    }

    #[test]
    fn mixed_width_draws_are_consistent() {
        // next_u64 must equal two next_u32 draws (low then high) when not
        // straddling a refill boundary.
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let x = a.next_u64();
        let lo = u64::from(b.next_u32());
        let hi = u64::from(b.next_u32());
        assert_eq!(x, hi << 32 | lo);
    }

    #[test]
    fn gen_methods_work() {
        let mut r = ChaCha8Rng::seed_from_u64(1);
        let f: f32 = r.gen();
        assert!((0.0..1.0).contains(&f));
        let n = r.gen_range(0usize..10);
        assert!(n < 10);
        let _b: bool = r.gen();
    }
}
