//! AVX2 intrinsics tier (`core::arch::x86_64`).
//!
//! Every function here carries `#[target_feature(enable = "avx2")]` and
//! is only reachable through the dispatcher after
//! `is_x86_feature_detected!("avx2")` succeeded, so the vector
//! instructions can never execute on a CPU that lacks them. All memory
//! access uses unaligned loads/stores (`loadu`/`storeu`) on pointers
//! derived from the argument slices, with the loop bounds keeping every
//! access inside the slice; the scalar tails reuse safe indexing.
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
//!   byte scans report the first flagged lane via `movemask` +
//!   `trailing_zeros`, so error offsets are exact, not rounded to a
//!   vector boundary.

use super::{DequantOp, HALF_BITS, INF_BITS, WEIGHTS};
use crate::quartic::{MAX_QUARTIC_BYTE, ZERO_BYTE};
use core::arch::x86_64::*;

/// IEEE abs mask for f32 bit patterns.
const ABS: u32 = 0x7fff_ffff;

/// Horizontal max of eight unsigned 32-bit lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hmax_epu32(v: __m256i) -> u32 {
    let m = _mm_max_epu32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    let m = _mm_max_epu32(m, _mm_shuffle_epi32::<0b0100_1110>(m));
    let m = _mm_max_epu32(m, _mm_shuffle_epi32::<0b1011_0001>(m));
    _mm_cvtsi128_si32(m) as u32
}

#[target_feature(enable = "avx2")]
pub(super) unsafe fn max_abs_finite(xs: &[f32]) -> (f32, bool) {
    let absmask = _mm256_set1_epi32(ABS as i32);
    let mut acc = _mm256_setzero_si256();
    let n = xs.len();
    let p = xs.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_si256(p.add(i) as *const __m256i);
        acc = _mm256_max_epu32(acc, _mm256_and_si256(v, absmask));
        i += 8;
    }
    let mut mb = hmax_epu32(acc);
    while i < n {
        mb = mb.max(xs[i].to_bits() & ABS);
        i += 1;
    }
    (f32::from_bits(mb), mb < INF_BITS)
}

#[target_feature(enable = "avx2")]
pub(super) unsafe fn accumulate_max_abs_finite(buf: &mut [f32], xs: &[f32]) -> (f32, bool) {
    let n = buf.len().min(xs.len());
    let absmask = _mm256_set1_epi32(ABS as i32);
    let mut acc = _mm256_setzero_si256();
    let bp = buf.as_mut_ptr();
    let xp = xs.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let s = _mm256_add_ps(_mm256_loadu_ps(bp.add(i)), _mm256_loadu_ps(xp.add(i)));
        _mm256_storeu_ps(bp.add(i), s);
        acc = _mm256_max_epu32(acc, _mm256_and_si256(_mm256_castps_si256(s), absmask));
        i += 8;
    }
    let mut mb = hmax_epu32(acc);
    while i < n {
        let s = buf[i] + xs[i];
        buf[i] = s;
        mb = mb.max(s.to_bits() & ABS);
        i += 1;
    }
    (f32::from_bits(mb), mb < INF_BITS)
}

/// Eight quartic digits (i32 lanes in `{0, 1, 2}`) of `x · inv`: the
/// vector form of [`super::digit_of`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn digits_epi32(x: __m256, inv: __m256) -> __m256i {
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
unsafe fn pack_low_bytes(v: __m256i) -> u64 {
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
pub(super) unsafe fn quantize_ternary(xs: &[f32], inv: f32, out: &mut [i8]) {
    let invv = _mm256_set1_ps(inv);
    let one = _mm256_set1_epi32(1);
    let n = xs.len();
    let mut i = 0;
    while i + 8 <= n {
        let d = digits_epi32(_mm256_loadu_ps(xs.as_ptr().add(i)), invv);
        let word = pack_low_bytes(_mm256_sub_epi32(d, one));
        core::ptr::copy_nonoverlapping(
            word.to_le_bytes().as_ptr(),
            out.as_mut_ptr().add(i) as *mut u8,
            8,
        );
        i += 8;
    }
    while i < n {
        out[i] = super::digit_of(xs[i], inv) as i8 - 1;
        i += 1;
    }
}

/// `out[i] = syms[i] as f32 · scale`, eight lanes at a time: sign-extend
/// eight symbol bytes to i32 (`vpmovsxbd`), convert to f32 (exact for
/// the full i8 range), one `vmulps` — the same single IEEE multiply per
/// element as the scalar loop, so the result is bit-identical.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn dequant_assign(syms: &[i8], scale: f32, out: &mut [f32]) {
    let sv = _mm256_set1_ps(scale);
    let n = syms.len();
    let mut i = 0;
    while i + 8 <= n {
        let b = _mm_loadl_epi64(syms.as_ptr().add(i) as *const __m128i);
        let f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(f, sv));
        i += 8;
    }
    while i < n {
        out[i] = syms[i] as f32 * scale;
        i += 1;
    }
}

/// `out[i] += syms[i] as f32 · scale`: the same widen/convert as
/// [`dequant_assign`], then an explicit `vmulps` + `vaddps` pair — two
/// roundings, exactly the scalar `*o += s as f32 * scale` (the `fma`
/// feature stays disabled, so no contraction can fuse them).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn dequant_add(syms: &[i8], scale: f32, out: &mut [f32]) {
    let sv = _mm256_set1_ps(scale);
    let n = syms.len();
    let mut i = 0;
    while i + 8 <= n {
        let b = _mm_loadl_epi64(syms.as_ptr().add(i) as *const __m128i);
        let f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
        let p = out.as_mut_ptr().add(i);
        _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), _mm256_mul_ps(f, sv)));
        i += 8;
    }
    while i < n {
        out[i] += syms[i] as f32 * scale;
        i += 1;
    }
}

/// Fused quartic unpack + dequantize + `op` (see
/// [`super::unpack_dequant`], which validates the lengths and splits the
/// planes before calling this).
///
/// # Safety
///
/// The CPU must support AVX2. Nothing else: the vector loop is bounded by
/// the shortest plane and `bytes`, and the tail uses checked indexing.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn unpack_dequant(
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
///
/// # Safety
///
/// As [`unpack_dequant`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn unpack_dequant_op<const ADD: bool, const SCALED: bool>(
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
    for b in 0..blocks {
        let i = b * 16;
        // SAFETY: `i + 16 <= blocks * 16 <= bytes.len()`.
        let raw = _mm_loadu_si128(bytes.as_ptr().add(i) as *const __m128i);
        let mut q = _mm256_cvtepu8_epi16(raw);
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
            // SAFETY: `i + 16 <= blocks * 16 <= planes[j].len()`, so both
            // 8-float halves lie inside the plane.
            let p = planes[j].as_mut_ptr().add(i);
            for (h, half) in halves.into_iter().enumerate() {
                let mut v = _mm256_permutevar_ps(products, _mm256_cvtepu16_epi32(half));
                let dst = p.add(h * 8);
                if ADD {
                    v = _mm256_add_ps(_mm256_loadu_ps(dst), v);
                }
                if SCALED {
                    v = _mm256_mul_ps(v, kv);
                }
                _mm256_storeu_ps(dst, v);
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
pub(super) unsafe fn pack_chunk(srcs: &[&[f32]; 5], inv: f32, out: &mut [u8]) {
    let full = srcs
        .iter()
        .map(|s| s.len())
        .min()
        .expect("5 srcs")
        .min(out.len());
    let blocks = full / 8;
    let invv = _mm256_set1_ps(inv);
    for b in 0..blocks {
        let i = b * 8;
        let mut acc = _mm256_setzero_si256();
        for j in 0..5 {
            let d = digits_epi32(_mm256_loadu_ps(srcs[j].as_ptr().add(i)), invv);
            acc = _mm256_add_epi32(
                acc,
                _mm256_mullo_epi32(d, _mm256_set1_epi32(WEIGHTS[j] as i32)),
            );
        }
        let word = pack_low_bytes(acc);
        out[i..i + 8].copy_from_slice(&word.to_le_bytes());
    }
    for i in blocks * 8..out.len() {
        let mut byte = 0u8;
        for (j, w) in WEIGHTS.into_iter().enumerate() {
            let s = srcs[j];
            let digit = if i < s.len() {
                super::digit_of(s[i], inv)
            } else {
                1
            };
            byte += digit * w;
        }
        out[i] = byte;
    }
}

#[target_feature(enable = "avx2")]
pub(super) unsafe fn pack_chunk_ea(
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
    for b in 0..blocks {
        let i = b * 8;
        let mut acc = _mm256_setzero_si256();
        for (j, s) in srcs.iter_mut().enumerate() {
            let x = _mm256_loadu_ps(s.as_ptr().add(i));
            let bits = _mm256_and_si256(_mm256_castps_si256(x), absmask);
            magnitudes = _mm256_max_epu32(magnitudes, bits);
            let d = digits_epi32(x, invv);
            // Write back x − q·scale: one multiply, one subtract — the
            // exact scalar rounding sequence (no FMA contraction).
            let qf = _mm256_cvtepi32_ps(_mm256_sub_epi32(d, one));
            let r = _mm256_sub_ps(x, _mm256_mul_ps(qf, scalev));
            _mm256_storeu_ps(s.as_mut_ptr().add(i), r);
            acc = _mm256_add_epi32(
                acc,
                _mm256_mullo_epi32(d, _mm256_set1_epi32(WEIGHTS[j] as i32)),
            );
        }
        let word = pack_low_bytes(acc);
        out[i..i + 8].copy_from_slice(&word.to_le_bytes());
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
pub(super) unsafe fn find_invalid_quartic(h: &[u8]) -> Option<usize> {
    let limit = _mm256_set1_epi8(MAX_QUARTIC_BYTE as i8);
    let zero = _mm256_setzero_si256();
    let n = h.len();
    let p = h.as_ptr();
    let mut i = 0;
    while i + 32 <= n {
        let v = _mm256_loadu_si256(p.add(i) as *const __m256i);
        // Saturating v − 242 is zero exactly when v ≤ 242.
        let ok = _mm256_cmpeq_epi8(_mm256_subs_epu8(v, limit), zero);
        let bad = !(_mm256_movemask_epi8(ok) as u32);
        if bad != 0 {
            return Some(i + bad.trailing_zeros() as usize);
        }
        i += 32;
    }
    h[i..]
        .iter()
        .position(|&b| b > MAX_QUARTIC_BYTE)
        .map(|o| i + o)
}

#[target_feature(enable = "avx2")]
pub(super) unsafe fn find_zero_byte(h: &[u8], from: usize) -> usize {
    let zb = _mm256_set1_epi8(ZERO_BYTE as i8);
    let n = h.len();
    let p = h.as_ptr();
    let mut i = from;
    while i + 32 <= n {
        let v = _mm256_loadu_si256(p.add(i) as *const __m256i);
        let hits = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zb)) as u32;
        if hits != 0 {
            return i + hits.trailing_zeros() as usize;
        }
        i += 32;
    }
    h[i..]
        .iter()
        .position(|&b| b == ZERO_BYTE)
        .map_or(n, |o| i + o)
}

#[target_feature(enable = "avx2")]
pub(super) unsafe fn find_nonzero_byte(h: &[u8], from: usize) -> usize {
    let zb = _mm256_set1_epi8(ZERO_BYTE as i8);
    let n = h.len();
    let p = h.as_ptr();
    let mut i = from;
    while i + 32 <= n {
        let v = _mm256_loadu_si256(p.add(i) as *const __m256i);
        let misses = !(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zb)) as u32);
        if misses != 0 {
            return i + misses.trailing_zeros() as usize;
        }
        i += 32;
    }
    h[i..]
        .iter()
        .position(|&b| b != ZERO_BYTE)
        .map_or(n, |o| i + o)
}
