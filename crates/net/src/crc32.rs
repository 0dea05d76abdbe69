//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Frame integrity checking needs nothing fancier: CRC-32 detects all
//! single- and double-bit errors, all odd numbers of bit errors, and all
//! burst errors up to 32 bits — the failure modes of a torn or corrupted
//! TCP bytestream boundary.
//!
//! Every payload byte of every frame passes through here twice (sender and
//! receiver), so `Crc32::update` has two loops and picks by what it can
//! observe — the slice length and the CPU — never by an option:
//!
//! - **Carry-less-multiply folding** (x86-64 with `pclmulqdq` and `sse4.1`,
//!   slices of 64 bytes or more): the 16-byte-multiple body is folded four
//!   128-bit lanes at a time, 64 bytes a step. Folding is exact, not an
//!   approximation: a CRC is the remainder of the message polynomial modulo
//!   `P`, and replacing a 128-bit lane `A` that sits `T` bits ahead of the
//!   next one by `A · (x^T mod P)` changes the message only by a multiple
//!   of `P`. The four lanes are independent, so the loop runs at the
//!   multiplier's throughput instead of one table lookup's latency; a
//!   128 → 64 → 32-bit reduction and one Barrett step turn the last lane
//!   back into the plain 32-bit state, so `update` stays incremental and
//!   splittable anywhere.
//! - **Slicing-by-8** (every other CPU and architecture, short slices, and
//!   the up-to-15-byte tail behind a folded body): eight bytes per step
//!   through eight tables built at compile time, where `TABLES[k][b]` is
//!   the CRC of byte `b` followed by `k` zero bytes. Each step's lookups
//!   are indexed by the previous step's state — the dependency chain the
//!   fold removes.
//!
//! Both compute the same function; the tests call each directly against
//! the byte-at-a-time definition.

/// The reflected generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `c · x mod P` on a bit-reflected residue (bit 31 is the coefficient of
/// `x^0`): the one step every table entry and folding constant is built of.
const fn times_x(c: u32) -> u32 {
    if c & 1 != 0 {
        POLY ^ (c >> 1)
    } else {
        c >> 1
    }
}

const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = times_x(c);
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Slicing-by-8 over `data` from the raw register `state`.
fn sliced(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ state;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", the bit-reflected
/// variant zlib and the Linux kernel use).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{times_x, POLY};
    use core::arch::x86_64::*;

    /// Slices shorter than this take the table loop whole: the fold needs
    /// four 16-byte lanes to start.
    const FOLD_MIN_BYTES: usize = 64;

    /// `x^n mod P`, bit-reflected, shifted left once: the product of two reflected operands comes out
    /// of `pclmulqdq` one bit low, and the constant carries the correction.
    const fn x_pow_mod_p(n: u32) -> i64 {
        let mut c = 0x8000_0000u32;
        let mut i = 0;
        while i < n {
            c = times_x(c);
            i += 1;
        }
        (c as i64) << 1
    }

    /// `⌊x^64 / P⌋`, the Barrett quotient, as 33 reflected bits: long
    /// division of `x^64` by `P`, one quotient bit per step.
    const fn barrett_mu() -> i64 {
        let mut r = POLY; // x^32 mod P; the quotient's x^32 term is bit 0
        let mut mu = 1i64;
        let mut bit = 1;
        while bit <= 32 {
            mu |= ((r & 1) as i64) << bit;
            r = times_x(r);
            bit += 1;
        }
        mu
    }

    /// Folds a lane across four lanes (512 bits): low half by `x^(512+32)`,
    /// high half by `x^(512-32)`.
    pub(super) const K1: i64 = x_pow_mod_p(512 + 32);
    pub(super) const K2: i64 = x_pow_mod_p(512 - 32);
    /// Folds a lane onto the next one (128 bits).
    pub(super) const K3: i64 = x_pow_mod_p(128 + 32);
    pub(super) const K4: i64 = x_pow_mod_p(128 - 32);
    /// 64 → 32 bits.
    pub(super) const K5: i64 = x_pow_mod_p(64);
    /// `P` itself, 33 reflected bits.
    pub(super) const P: i64 = ((POLY as i64) << 1) | 1;
    pub(super) const MU: i64 = barrett_mu();

    /// Whether this CPU can run [`fold`].
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Advances the raw register `state` over the 16-byte-multiple body of
    /// `data` by folding and returns it with the unread tail (under 16
    /// bytes), or `None` when the slice is short or the CPU lacks the
    /// instructions and the table loop takes all of it.
    pub(super) fn fold_body(state: u32, data: &[u8]) -> Option<(u32, &[u8])> {
        if data.len() < FOLD_MIN_BYTES || !available() {
            return None;
        }
        let (body, tail) = data.split_at(data.len() & !15);
        // SAFETY: `available` just saw `pclmulqdq` and `sse4.1`, the only
        // thing `fold` requires; it reads `body` through checked slices.
        Some((unsafe { fold(state, body) }, tail))
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `next ^ lane.lo · keys.lo ^ lane.hi · keys.hi`: `lane` moved forward
    /// onto `next` by the distance `keys` encodes.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_onto(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, keys);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    /// The register after `body`, which must hold at least four 16-byte
    /// blocks and no partial one. The only requirement beyond that is the
    /// CPU feature; every read is a checked slice.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(state: u32, body: &[u8]) -> u32 {
        assert!(body.len() >= FOLD_MIN_BYTES && body.len().is_multiple_of(16));
        let (head, rest) = body.split_at(64);
        let mut lanes: [__m128i; 4] = std::array::from_fn(|i| load(&head[i * 16..]));
        // The register is the CRC of everything before `body`: xor it into
        // the first four bytes, as the table loops do byte by byte.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));

        let across_four = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(64);
        for quad in &mut quads {
            for (lane, block) in lanes.iter_mut().zip(quad.chunks_exact(16)) {
                *lane = fold_onto(*lane, load(block), across_four);
            }
        }
        let across_one = _mm_set_epi64x(K4, K3);
        let [a, b, c, d] = lanes;
        let mut x = fold_onto(a, b, across_one);
        x = fold_onto(x, c, across_one);
        x = fold_onto(x, d, across_one);
        for block in quads.remainder().chunks_exact(16) {
            x = fold_onto(x, load(block), across_one);
        }

        // 128 → 64 bits: the low half moves onto the high one.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, across_one),
            _mm_srli_si128::<8>(x),
        );
        // 64 → 32 bits.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: subtract the multiple of P that clears the low 32 bits;
        // what is left in the next 32 is the remainder, the register.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }
}

/// Incremental CRC-32 over multiple slices (header, then payload).
#[derive(Debug, Clone)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let (state, data) = clmul::fold_body(self.state, data).unwrap_or((self.state, data));
        #[cfg(not(target_arch = "x86_64"))]
        let state = self.state;
        self.state = sliced(state, data);
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice. The runtime folds its frames through
/// `Crc32`; this stays public for the step ledger's `net.crc32_gibps` row
/// and the model-CRC pins.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `update` replaced, kept as the reference.
    fn bytewise(data: &[u8]) -> u32 {
        let mut state = !0u32;
        for &b in data {
            state = TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
        }
        !state
    }

    /// One way through the module from a raw register to the next one.
    /// `Folded` is `None` where `update` would not fold either (a slice
    /// under 64 bytes).
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Sliced,
        #[cfg(target_arch = "x86_64")]
        Folded,
    }

    impl Path {
        fn run(self, state: u32, data: &[u8]) -> Option<u32> {
            match self {
                Path::Sliced => Some(sliced(state, data)),
                #[cfg(target_arch = "x86_64")]
                Path::Folded => {
                    let (state, tail) = clmul::fold_body(state, data)?;
                    assert!(tail.len() < 16, "the fold leaves a sub-block tail");
                    Some(sliced(state, tail))
                }
            }
        }
    }

    /// The paths this host can run. On a CLMUL host `update` no longer
    /// reaches the table loop for long inputs, so both are called directly;
    /// without the instructions the folded half is skipped out loud.
    fn paths(test: &str) -> Vec<Path> {
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            return vec![Path::Sliced, Path::Folded];
        }
        eprintln!("{test}: SKIPPED for the pclmulqdq fold (no pclmulqdq + sse4.1 on this host)");
        vec![Path::Sliced]
    }

    /// `!register` after `data` from a fresh checksum, on one path.
    fn one_shot(path: Path, data: &[u8]) -> Option<u32> {
        path.run(!0, data).map(|state| !state)
    }

    /// Every split position of `data`, either piece on either path.
    fn check_splits(paths: &[Path], data: &[u8]) {
        let want = bytewise(data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            for &first in paths {
                for &second in paths {
                    let end = first.run(!0, a).and_then(|mid| second.run(mid, b));
                    if let Some(end) = end {
                        assert_eq!(!end, want, "split at {split}, {first:?} then {second:?}");
                    }
                }
            }
            let mut c = Crc32::new();
            c.update(a);
            c.update(b);
            assert_eq!(c.finish(), want, "update split at {split}");
        }
    }

    proptest! {
        /// Both loops against the bytewise definition, over lengths up to
        /// 4 KiB at every start alignment within a 16-byte block, and fed
        /// the data in two pieces split at every position with either
        /// piece on either path — so both loops resume from every state at
        /// every offset and every tail length occurs. The splits stop at
        /// 512 bytes: what a split adds to the one-shot checks is the
        /// resumed state, which no longer depends on the length, and every
        /// split of 4 KiB is 16 MiB of unoptimised CRC per case.
        #[test]
        fn sliced_update_matches_the_bytewise_loop(
            padded in prop::collection::vec(any::<u8>(), 16..4120),
        ) {
            let paths = paths("sliced_update_matches_the_bytewise_loop");
            for start in 0..16 {
                let data = &padded[start..padded.len() - (16 - start)];
                let want = bytewise(data);
                prop_assert!(crc32(data) == want, "start alignment {start}");
                for &path in &paths {
                    if let Some(got) = one_shot(path, data) {
                        prop_assert!(got == want, "{path:?}, start alignment {start}");
                    }
                }
            }
            let data = &padded[16..padded.len().min(16 + 512)];
            check_splits(&paths, data);
        }
    }

    /// Every length through the block boundaries (15/16/17, 63/64/65,
    /// 127/128/129, …), one-shot and split, without a random draw.
    #[test]
    fn every_length_to_320_on_both_paths() {
        let paths = paths("every_length_to_320_on_both_paths");
        let pattern: Vec<u8> = (0..320u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=pattern.len() {
            let data = &pattern[..len];
            let want = bytewise(data);
            assert_eq!(crc32(data), want, "len {len}");
            for &path in &paths {
                match one_shot(path, data) {
                    Some(got) => assert_eq!(got, want, "{path:?}, len {len}"),
                    None => assert!(len < 64, "{path:?} declined {len} bytes"),
                }
            }
        }
        check_splits(&paths, &pattern);
    }

    /// Four bytes that take the register from `state` back to all ones, so
    /// a standard check value can sit behind an arbitrary prefix. Feeding
    /// the little-endian word `w` from `state` equals feeding four zero
    /// bytes from `state ^ w`; run that backwards from the target — each
    /// table entry's top byte identifies the index that produced it.
    fn bytes_resetting(state: u32) -> [u8; 4] {
        let mut v = !0u32;
        for _ in 0..4 {
            let idx = (0..256usize)
                .find(|&i| TABLES[0][i] >> 24 == v >> 24)
                .expect("top bytes of the table are a permutation");
            v = ((v ^ TABLES[0][idx]) << 8) | idx as u32;
        }
        (v ^ state).to_le_bytes()
    }

    #[test]
    fn known_answers_on_both_paths() {
        let paths = paths("known_answers_on_both_paths");
        // 1 MiB of a multiplicative-hash pattern; the value is zlib's.
        let mib: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for &path in &paths {
            assert_eq!(one_shot(path, &mib), Some(0x1589_87C5), "{path:?}");
        }
        // "123456789" -> 0xCBF43926 as the end of a buffer long enough to
        // fold (all of it, or all but the string as the tail): behind a
        // prefix that returns the register to its initial value.
        for total in [64, 73, 128] {
            let mut buf: Vec<u8> = (0..total - 13).map(|i| (i * 37 + 11) as u8).collect();
            buf.extend_from_slice(&bytes_resetting(sliced(!0, &buf)));
            buf.extend_from_slice(b"123456789");
            assert_eq!(buf.len(), total);
            for &path in &paths {
                assert_eq!(one_shot(path, &buf), Some(0xCBF4_3926), "{path:?}, {total}");
            }
            let mut c = Crc32::new();
            c.update(&buf[..total - 9]);
            assert_eq!(c.finish(), 0, "register back to all ones");
            c.update(b"123456789");
            assert_eq!(c.finish(), 0xCBF4_3926);
        }
    }

    /// The folding constants are derived from `POLY` at compile time; these
    /// are the published values they must come to.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_derive_from_the_polynomial() {
        assert_eq!(clmul::K1, 0x1_5444_2bd4);
        assert_eq!(clmul::K2, 0x1_c6e4_1596);
        assert_eq!(clmul::K3, 0x1_7519_97d0);
        assert_eq!(clmul::K4, 0x0_ccaa_009e);
        assert_eq!(clmul::K5, 0x1_63cd_6124);
        assert_eq!(clmul::P, 0x1_db71_0641);
        assert_eq!(clmul::MU, 0x1_f701_1641);
    }

    #[test]
    fn known_check_value() {
        // The standard CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data: Vec<u8> = (0u8..=255).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
