//! AVX2 intrinsics tier (`core::arch::x86_64`).
//!
//! Every function here is a safe `#[target_feature(enable = "avx2")]` fn,
//! reachable only through the dispatcher after
//! `is_x86_feature_detected!("avx2")` succeeded: that guarded call is the
//! tier's one `unsafe`, so the vector instructions can never execute on a
//! CPU that lacks them. Memory is touched only through checked slices —
//! [`load8_ps`], [`store8_ps`], [`load16`], [`load32`] and plain slice
//! writes, each of which the compiler turns into one unaligned vector (or
//! word) access — so no loop bound here is a safety argument.
//!
//! Bit-identity with the scalar tier holds because the vector arithmetic
//! is the same arithmetic:
//!
//! - `x · inv` is one IEEE multiply per lane (`vmulps`); no FMA
//!   contraction is emitted (the `fma` feature is not enabled and Rust
//!   never contracts float expressions).
//! - The digit decision compares the product's bit pattern exactly like
//!   [`super::digit_of`]: magnitude bits are `< 2³¹`, so *signed* 32-bit
//!   compares implement the unsigned threshold tests exactly.
//! - The error write-back computes `x − q·scale` as a multiply followed
//!   by a subtract — the same two roundings as the scalar code.
//! - Digit weighting uses exact integer multiplies (`vpmulld`) and the
//!   byte scan reports the first flagged lane via `movemask` +
//!   `trailing_zeros`, so error offsets are exact, not rounded to a
//!   vector boundary.
//! - The zero-run encoder computes, per byte, the same run count modulo 14
//!   and the same emit decision as the portable loop, and compacts with a
//!   byte shuffle that keeps the emitted bytes in order.

use super::scalar::{self, ZreCursor, ZRE_WINDOW as WINDOW};
use super::{DequantOp, HALF_BITS, INF_BITS, RUN_CODE_BIAS, WEIGHTS};
use crate::quartic::{MAX_QUARTIC_BYTE, ZERO_BYTE};
use crate::zrle::MAX_RUN;
use core::arch::x86_64::*;

/// IEEE abs mask for f32 bit patterns.
const ABS: u32 = 0x7fff_ffff;

/// Eight floats from the front of `xs`.
#[inline]
#[target_feature(enable = "avx2")]
fn load8_ps(xs: &[f32]) -> __m256 {
    let x: &[f32; 8] = xs[..8].try_into().expect("8 floats");
    _mm256_setr_ps(x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7])
}

/// Stores `v` over the first eight floats of `out`.
#[inline]
#[target_feature(enable = "avx2")]
fn store8_ps(out: &mut [f32], v: __m256) {
    let v = _mm256_castps_si256(v);
    let words = [
        _mm256_extract_epi64::<0>(v),
        _mm256_extract_epi64::<1>(v),
        _mm256_extract_epi64::<2>(v),
        _mm256_extract_epi64::<3>(v),
    ];
    for (pair, w) in out[..8].chunks_exact_mut(2).zip(words) {
        pair[0] = f32::from_bits(w as u32);
        pair[1] = f32::from_bits((w as u64 >> 32) as u32);
    }
}

/// Sixteen bytes from the front of `b`.
#[inline]
#[target_feature(enable = "avx2")]
fn load16(b: &[u8]) -> __m128i {
    let lo = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
    let hi = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
    _mm_set_epi64x(hi as i64, lo as i64)
}

/// Thirty-two bytes from the front of `b`.
#[inline]
#[target_feature(enable = "avx2")]
fn load32(b: &[u8]) -> __m256i {
    _mm256_set_m128i(load16(&b[16..32]), load16(&b[..16]))
}

/// Horizontal max of eight unsigned 32-bit lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn hmax_epu32(v: __m256i) -> u32 {
    let m = _mm_max_epu32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    let m = _mm_max_epu32(m, _mm_shuffle_epi32::<0b0100_1110>(m));
    let m = _mm_max_epu32(m, _mm_shuffle_epi32::<0b1011_0001>(m));
    _mm_cvtsi128_si32(m) as u32
}

#[target_feature(enable = "avx2")]
pub(super) fn max_abs_finite(xs: &[f32]) -> (f32, bool) {
    let absmask = _mm256_set1_epi32(ABS as i32);
    let mut acc = _mm256_setzero_si256();
    let mut chunks = xs.chunks_exact(8);
    for c in &mut chunks {
        let v = _mm256_castps_si256(load8_ps(c));
        acc = _mm256_max_epu32(acc, _mm256_and_si256(v, absmask));
    }
    let mut mb = hmax_epu32(acc);
    for x in chunks.remainder() {
        mb = mb.max(x.to_bits() & ABS);
    }
    (f32::from_bits(mb), mb < INF_BITS)
}

/// Eight quartic digits (i32 lanes in `{0, 1, 2}`) of `x · inv`: the
/// vector form of [`super::digit_of`].
#[inline]
#[target_feature(enable = "avx2")]
fn digits_epi32(x: __m256, inv: __m256) -> __m256i {
    let bits = _mm256_castps_si256(_mm256_mul_ps(x, inv));
    let ab = _mm256_and_si256(bits, _mm256_set1_epi32(ABS as i32));
    let ge_half = _mm256_cmpgt_epi32(ab, _mm256_set1_epi32(HALF_BITS as i32 - 1));
    let le_inf = _mm256_cmpgt_epi32(_mm256_set1_epi32(INF_BITS as i32 + 1), ab);
    let nz = _mm256_and_si256(ge_half, le_inf); // all-ones where |q| = 1
    let sg = _mm256_srai_epi32::<31>(bits); // all-ones where the product is negative
    let d = _mm256_sub_epi32(_mm256_set1_epi32(1), nz); // 1 or 2
    let neg = _mm256_and_si256(nz, sg); // all-ones where the digit is 0
    _mm256_add_epi32(d, _mm256_add_epi32(neg, neg))
}

/// Packs the low byte of each 32-bit lane into a little-endian u64.
#[inline]
#[target_feature(enable = "avx2")]
fn pack_low_bytes(v: __m256i) -> u64 {
    let shuf = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let p = _mm256_shuffle_epi8(v, shuf);
    let lo = _mm_cvtsi128_si32(_mm256_castsi256_si128(p)) as u32 as u64;
    let hi = _mm_cvtsi128_si32(_mm256_extracti128_si256::<1>(p)) as u32 as u64;
    lo | (hi << 32)
}

#[target_feature(enable = "avx2")]
pub(super) fn quantize_ternary(xs: &[f32], inv: f32, out: &mut [i8]) {
    let invv = _mm256_set1_ps(inv);
    let one = _mm256_set1_epi32(1);
    let mut xc = xs.chunks_exact(8);
    let mut oc = out.chunks_exact_mut(8);
    for (x, o) in (&mut xc).zip(&mut oc) {
        let d = digits_epi32(load8_ps(x), invv);
        let word = pack_low_bytes(_mm256_sub_epi32(d, one));
        for (o, b) in o.iter_mut().zip(word.to_le_bytes()) {
            *o = b as i8;
        }
    }
    for (o, &x) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
        *o = super::digit_of(x, inv) as i8 - 1;
    }
}

/// Eight symbols from the front of `syms`, widened to f32 lanes
/// (`vpmovsxbd` + `vcvtdq2ps`, exact for the full i8 range).
#[inline]
#[target_feature(enable = "avx2")]
fn syms_ps(syms: &[i8]) -> __m256 {
    let s: &[i8; 8] = syms[..8].try_into().expect("8 symbols");
    let b = _mm_cvtsi64_si128(i64::from_le_bytes(s.map(|x| x as u8)));
    _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b))
}

/// `out[i] = syms[i] as f32 · scale`, eight lanes at a time: the widened
/// symbols, one `vmulps` — the same single IEEE multiply per element as
/// the scalar loop, so the result is bit-identical.
#[target_feature(enable = "avx2")]
pub(super) fn dequant_assign(syms: &[i8], scale: f32, out: &mut [f32]) {
    let sv = _mm256_set1_ps(scale);
    let mut sc = syms.chunks_exact(8);
    let mut oc = out.chunks_exact_mut(8);
    for (s, o) in (&mut sc).zip(&mut oc) {
        store8_ps(o, _mm256_mul_ps(syms_ps(s), sv));
    }
    for (o, &s) in oc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o = s as f32 * scale;
    }
}

/// `out[i] += syms[i] as f32 · scale`: the same widen/convert as
/// [`dequant_assign`], then an explicit `vmulps` + `vaddps` pair — two
/// roundings, exactly the scalar `*o += s as f32 * scale` (the `fma`
/// feature stays disabled, so no contraction can fuse them).
#[target_feature(enable = "avx2")]
pub(super) fn dequant_add(syms: &[i8], scale: f32, out: &mut [f32]) {
    let sv = _mm256_set1_ps(scale);
    let mut sc = syms.chunks_exact(8);
    let mut oc = out.chunks_exact_mut(8);
    for (s, o) in (&mut sc).zip(&mut oc) {
        store8_ps(o, _mm256_add_ps(load8_ps(o), _mm256_mul_ps(syms_ps(s), sv)));
    }
    for (o, &s) in oc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o += s as f32 * scale;
    }
}

/// Fused quartic unpack + dequantize + `op` (see
/// [`super::unpack_dequant`], which validates the lengths and splits the
/// planes before calling this).
#[target_feature(enable = "avx2")]
pub(super) fn unpack_dequant(
    bytes: &[u8],
    scale: f32,
    op: DequantOp,
    planes: &mut [&mut [f32]; 5],
) {
    match op {
        DequantOp::Assign => unpack_dequant_op::<false, false>(bytes, scale, 1.0, planes),
        DequantOp::Add => unpack_dequant_op::<true, false>(bytes, scale, 1.0, planes),
        DequantOp::AssignScaled(k) => unpack_dequant_op::<false, true>(bytes, scale, k, planes),
        DequantOp::AddScaled(k) => unpack_dequant_op::<true, true>(bytes, scale, k, planes),
    }
}

/// Sixteen bytes per iteration. The bytes widen to u16 lanes
/// (`vpmovzxbw`) and a chain of four `÷ 3` steps — `vpmulhuw` by
/// 21846 = ⌈2¹⁶ / 3⌉, exact for every `x < 32768` — peels the five base-3
/// digits off, least significant (plane 4) first; the last quotient is
/// plane 0's digit because a valid byte is below 3⁵. Each plane's digits
/// widen to i32 (`vpmovzxwd`) and index `vpermilps` into the three
/// products `−1.0·scale`, `0.0·scale`, `1.0·scale`, computed once by real
/// multiplies: the value the scalar tier's `sym as f32 * scale` produces,
/// for every scale (negative, zero, subnormal) and with `−0.0` where the
/// multiply gives it. `ADD` then loads and adds, `SCALED` multiplies by
/// `k` — separate `vaddps`/`vmulps`, the scalar rounding sequence.
#[inline]
#[target_feature(enable = "avx2")]
fn unpack_dequant_op<const ADD: bool, const SCALED: bool>(
    bytes: &[u8],
    scale: f32,
    k: f32,
    planes: &mut [&mut [f32]; 5],
) {
    let shortest = planes
        .iter()
        .map(|p| p.len())
        .min()
        .expect("5 planes")
        .min(bytes.len());
    let blocks = shortest / 16;
    // Lane `d` of each 128-bit half holds `(d − 1) as f32 · scale`; index 3
    // is never selected (digits are at most 2).
    let [neg, zero, pos] = [-1.0f32, 0.0, 1.0].map(|sym| sym * scale);
    let products = _mm256_setr_ps(neg, zero, pos, zero, neg, zero, pos, zero);
    let third = _mm256_set1_epi16(21846);
    let kv = _mm256_set1_ps(k);
    for (b, raw) in bytes.chunks_exact(16).take(blocks).enumerate() {
        let i = b * 16;
        let mut q = _mm256_cvtepu8_epi16(load16(raw));
        for j in (0..5).rev() {
            let digits = if j == 0 {
                q
            } else {
                let next = _mm256_mulhi_epu16(q, third);
                let three = _mm256_add_epi16(next, _mm256_add_epi16(next, next));
                let d = _mm256_sub_epi16(q, three);
                q = next;
                d
            };
            let halves = [
                _mm256_castsi256_si128(digits),
                _mm256_extracti128_si256::<1>(digits),
            ];
            let plane = &mut planes[j][i..i + 16];
            for (dst, half) in plane.chunks_exact_mut(8).zip(halves) {
                let mut v = _mm256_permutevar_ps(products, _mm256_cvtepu16_epi32(half));
                if ADD {
                    v = _mm256_add_ps(load8_ps(dst), v);
                }
                if SCALED {
                    v = _mm256_mul_ps(v, kv);
                }
                store8_ps(dst, v);
            }
        }
    }
    let products = [neg, zero, pos];
    for (i, &b) in bytes.iter().enumerate().skip(blocks * 16) {
        for (plane, weight) in planes.iter_mut().zip(WEIGHTS) {
            if let Some(o) = plane.get_mut(i) {
                let v = products[((b / weight) % 3) as usize];
                let sum = if ADD { *o + v } else { v };
                *o = if SCALED { sum * k } else { sum };
            }
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn pack_chunk_ea(
    srcs: &mut [&mut [f32]; 5],
    inv: f32,
    scale: f32,
    out: &mut [u8],
) -> bool {
    let full = srcs
        .iter()
        .map(|s| s.len())
        .min()
        .expect("5 srcs")
        .min(out.len());
    let blocks = full / 8;
    let invv = _mm256_set1_ps(inv);
    let scalev = _mm256_set1_ps(scale);
    let one = _mm256_set1_epi32(1);
    let absmask = _mm256_set1_epi32(ABS as i32);
    let mut magnitudes = _mm256_setzero_si256();
    for (b, o) in out.chunks_exact_mut(8).take(blocks).enumerate() {
        let i = b * 8;
        let mut acc = _mm256_setzero_si256();
        for (j, s) in srcs.iter_mut().enumerate() {
            let s = &mut s[i..i + 8];
            let x = load8_ps(s);
            let bits = _mm256_and_si256(_mm256_castps_si256(x), absmask);
            magnitudes = _mm256_max_epu32(magnitudes, bits);
            let d = digits_epi32(x, invv);
            // Write back x − q·scale: one multiply, one subtract — the
            // exact scalar rounding sequence (no FMA contraction).
            let qf = _mm256_cvtepi32_ps(_mm256_sub_epi32(d, one));
            store8_ps(s, _mm256_sub_ps(x, _mm256_mul_ps(qf, scalev)));
            acc = _mm256_add_epi32(
                acc,
                _mm256_mullo_epi32(d, _mm256_set1_epi32(WEIGHTS[j] as i32)),
            );
        }
        o.copy_from_slice(&pack_low_bytes(acc).to_le_bytes());
    }
    let mut mb = hmax_epu32(magnitudes);
    for i in blocks * 8..out.len() {
        let mut byte = 0u8;
        for (j, w) in WEIGHTS.into_iter().enumerate() {
            let s = &mut *srcs[j];
            let digit = if i < s.len() {
                let x = s[i];
                mb = mb.max(x.to_bits() & ABS);
                let d = super::digit_of(x, inv);
                s[i] = x - (d as i8 - 1) as f32 * scale;
                d
            } else {
                1
            };
            byte += digit * w;
        }
        out[i] = byte;
    }
    mb < INF_BITS
}

#[target_feature(enable = "avx2")]
pub(super) fn find_invalid_quartic(h: &[u8]) -> Option<usize> {
    let limit = _mm256_set1_epi8(MAX_QUARTIC_BYTE as i8);
    let zero = _mm256_setzero_si256();
    let mut chunks = h.chunks_exact(32);
    for (c, chunk) in (&mut chunks).enumerate() {
        // Saturating v − 242 is zero exactly when v ≤ 242.
        let ok = _mm256_cmpeq_epi8(_mm256_subs_epu8(load32(chunk), limit), zero);
        let bad = !(_mm256_movemask_epi8(ok) as u32);
        if bad != 0 {
            return Some(c * 32 + bad.trailing_zeros() as usize);
        }
    }
    let i = h.len() - chunks.remainder().len();
    chunks
        .remainder()
        .iter()
        .position(|&b| b > MAX_QUARTIC_BYTE)
        .map(|o| i + o)
}

/// `LEFT_PACK[m]` is the `pshufb` control that moves the bytes of an
/// 8-byte group whose bit is set in `m` to its front, in order; the lanes
/// past them are don't-cares. `KEPT[m]` counts them.
const LEFT_PACK: [u64; 256] = left_pack();
const KEPT: [u8; 256] = kept();

const fn left_pack() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let (mut control, mut kept, mut lane) = (0u64, 0, 0);
        while lane < 8 {
            if m >> lane & 1 == 1 {
                control |= (lane as u64) << (8 * kept);
                kept += 1;
            }
            lane += 1;
        }
        table[m] = control;
        m += 1;
    }
    table
}

const fn kept() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut m = 0;
    while m < 256 {
        table[m] = (m as u8).count_ones() as u8;
        m += 1;
    }
    table
}

/// Zero-run encodes `buf` in place ([`super::zre_compact`]), 32 bytes a
/// step, decided in registers from two overlapping loads — the window and
/// the window one byte on:
///
/// 1. two zero-byte masks: of the window, and of the byte after each of
///    its bytes. Where both are all ones the run goes on past the window,
///    which advances in one step ([`scalar::zre_skip`]); elsewhere the
///    second mask's gaps are the bytes whose run ends at them;
/// 2. each zero byte's run length so far — its lane minus the lane of the
///    last literal at or before it, a prefix max over the lanes in four
///    shift-and-max steps inside each 128-bit half and one across them,
///    with the run carried into the window counting as a literal that
///    many lanes before it — reduced to its count modulo 14 (1–14);
/// 3. the map: a zero byte counting 2 or more becomes its run code, every
///    other byte stays; the filter: literals, counts of 14 and run ends
///    are kept;
/// 4. each 8-byte quarter compacts through a `pshufb` control from
///    [`LEFT_PACK`] and is stored whole at the write cursor, which moves
///    by the bytes kept.
///
/// The last 32 bytes (and the byte of lookahead) are the portable loop's.
#[target_feature(enable = "avx2")]
pub(super) fn zre_compact(buf: &mut [u8]) -> usize {
    let n = buf.len();
    let zero = _mm256_set1_epi8(ZERO_BYTE as i8);
    // Lane p holds p + 32, so that a literal's mark is never below the
    // carried run's (at least 18) and a zero byte's run is `lane − mark`.
    let lanes = _mm256_setr_epi8(
        32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, //
        48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63,
    );
    let top_byte = _mm256_set1_epi8(15);
    let fourteen = _mm256_set1_epi8(MAX_RUN as i8);
    let one = _mm256_set1_epi8(1);
    let bias = _mm256_set1_epi8(RUN_CODE_BIAS as u8 as i8);
    let mut at = ZreCursor::default();
    while at.read + WINDOW < n {
        let i = at.read;
        let v = load32(&buf[i..]);
        let zeros = _mm256_cmpeq_epi8(v, zero);
        let z = _mm256_movemask_epi8(zeros) as u32;
        let next = _mm256_movemask_epi8(_mm256_cmpeq_epi8(load32(&buf[i + 1..]), zero)) as u32;
        if z & next == u32::MAX {
            scalar::zre_skip::<WINDOW>(buf, &mut at);
            continue;
        }
        let carried = _mm256_set1_epi8((WINDOW - 1 - at.pending) as i8);
        let mut mark = _mm256_max_epu8(_mm256_andnot_si256(zeros, lanes), carried);
        mark = _mm256_max_epu8(mark, _mm256_slli_si256::<1>(mark));
        mark = _mm256_max_epu8(mark, _mm256_slli_si256::<2>(mark));
        mark = _mm256_max_epu8(mark, _mm256_slli_si256::<4>(mark));
        mark = _mm256_max_epu8(mark, _mm256_slli_si256::<8>(mark));
        // The low half's last mark, broadcast over the high half.
        let low_last = _mm256_shuffle_epi8(_mm256_permute2x128_si256::<0x08>(mark, mark), top_byte);
        mark = _mm256_max_epu8(mark, low_last);
        // 0 on literals, 1..=45 on zero bytes; three folds bring it to 1..=14.
        let mut count = _mm256_sub_epi8(lanes, mark);
        for _ in 0..3 {
            let over = _mm256_and_si256(_mm256_cmpgt_epi8(count, fourteen), fourteen);
            count = _mm256_sub_epi8(count, over);
        }
        let full = _mm256_movemask_epi8(_mm256_cmpeq_epi8(count, fourteen)) as u32;
        let emit = !z | full | !next;
        let escaped = _mm256_cmpgt_epi8(count, one);
        let out = _mm256_blendv_epi8(v, _mm256_add_epi8(count, bias), escaped);
        let (lo, hi) = (
            _mm256_castsi256_si128(out),
            _mm256_extracti128_si256::<1>(out),
        );
        let quarters = [lo, _mm_srli_si128::<8>(lo), hi, _mm_srli_si128::<8>(hi)];
        for (q, quarter) in quarters.into_iter().enumerate() {
            let m = (emit >> (8 * q)) as u8 as usize;
            let control = _mm_cvtsi64_si128(LEFT_PACK[m] as i64);
            let packed = _mm_cvtsi128_si64(_mm_shuffle_epi8(quarter, control)) as u64;
            buf[at.write..at.write + 8].copy_from_slice(&packed.to_le_bytes());
            at.write += usize::from(KEPT[m]);
        }
        // The zero bytes that end the window carry into the next one. A
        // window of nothing but zero bytes gets here only when a literal
        // follows it (else it was skipped), which restarts the count: what
        // it carries then is never read.
        at.pending = z.leading_ones() as usize % MAX_RUN;
        at.read = i + WINDOW;
    }
    scalar::zre_compact_from(buf, at)
}
