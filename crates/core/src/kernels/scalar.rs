//! Scalar reference kernels: the straightforward per-element loops the
//! SWAR and SIMD tiers must match bit for bit.

use super::{digit_of, DequantOp, WEIGHTS};

pub(super) fn max_abs_finite(xs: &[f32]) -> (f32, bool) {
    xs.iter().fold((0.0f32, true), |(m, ok), &x| {
        (m.max(x.abs()), ok && x.is_finite())
    })
}

pub(super) fn accumulate_max_abs_finite(buf: &mut [f32], xs: &[f32]) -> (f32, bool) {
    let mut m = 0.0f32;
    let mut ok = true;
    for (b, &x) in buf.iter_mut().zip(xs) {
        *b += x;
        m = m.max(b.abs());
        ok = ok && b.is_finite();
    }
    (m, ok)
}

pub(super) fn quantize_ternary(xs: &[f32], inv: f32, out: &mut [i8]) {
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = digit_of(x, inv) as i8 - 1;
    }
}

pub(super) fn pack_chunk(srcs: &[&[f32]; 5], inv: f32, out: &mut [u8]) {
    for (i, o) in out.iter_mut().enumerate() {
        let mut byte = 0u8;
        for (j, w) in WEIGHTS.into_iter().enumerate() {
            let s = srcs[j];
            let digit = if i < s.len() { digit_of(s[i], inv) } else { 1 };
            byte += digit * w;
        }
        *o = byte;
    }
}

pub(super) fn pack_chunk_ea(
    srcs: &mut [&mut [f32]; 5],
    inv: f32,
    scale: f32,
    out: &mut [u8],
) -> bool {
    let mut finite = true;
    for (i, o) in out.iter_mut().enumerate() {
        let mut byte = 0u8;
        for (j, w) in WEIGHTS.into_iter().enumerate() {
            let s = &mut *srcs[j];
            let digit = if i < s.len() {
                let x = s[i];
                finite &= x.is_finite();
                let d = digit_of(x, inv);
                s[i] = x - (d as i8 - 1) as f32 * scale;
                d
            } else {
                1
            };
            byte += digit * w;
        }
        *o = byte;
    }
    finite
}

pub(super) fn dequant_assign(syms: &[i8], scale: f32, out: &mut [f32]) {
    for (o, &s) in out.iter_mut().zip(syms) {
        *o = s as f32 * scale;
    }
}

pub(super) fn dequant_add(syms: &[i8], scale: f32, out: &mut [f32]) {
    for (o, &s) in out.iter_mut().zip(syms) {
        *o += s as f32 * scale;
    }
}

/// The portable fused decode, shared by the scalar and SWAR tiers (there
/// is no word-at-a-time form of a base-3 digit split worth having).
pub(super) fn unpack_dequant(
    bytes: &[u8],
    scale: f32,
    op: DequantOp,
    planes: &mut [&mut [f32]; 5],
) {
    // One instantiation per op, so no inner loop carries the match.
    match op {
        DequantOp::Assign => unpack_dequant_with(bytes, scale, planes, |_, v| v),
        DequantOp::Add => unpack_dequant_with(bytes, scale, planes, |o, v| o + v),
        DequantOp::AssignScaled(k) => unpack_dequant_with(bytes, scale, planes, |_, v| v * k),
        DequantOp::AddScaled(k) => unpack_dequant_with(bytes, scale, planes, |o, v| (o + v) * k),
    }
}

/// The two passes of the oracle — digits to symbols, symbols to `op` —
/// kept apart because each autovectorises on its own and the fused
/// per-element form does not (it measured 2.5× slower), but run block by
/// block through a symbol buffer on the stack, so the symbols never leave
/// L1 and nothing model-sized is written between the wire and `out`.
#[inline(always)]
fn unpack_dequant_with(
    bytes: &[u8],
    scale: f32,
    planes: &mut [&mut [f32]; 5],
    f: impl Fn(f32, f32) -> f32,
) {
    const BLOCK: usize = 1024;
    let mut syms = [0i8; BLOCK];
    for (b, chunk) in bytes.chunks(BLOCK).enumerate() {
        for (plane, weight) in planes.iter_mut().zip(WEIGHTS) {
            // A short plane ends inside (or before) this block.
            let Some(plane) = plane.get_mut(b * BLOCK..) else {
                continue;
            };
            for (s, &byte) in syms.iter_mut().zip(chunk) {
                *s = ((byte as u16 / weight as u16) % 3) as i8 - 1;
            }
            for (o, &s) in plane.iter_mut().zip(&syms[..chunk.len()]) {
                *o = f(*o, s as f32 * scale);
            }
        }
    }
}

pub(super) fn pack_ternary(srcs: &[&[i8]; 5], out: &mut [u8]) {
    for (i, o) in out.iter_mut().enumerate() {
        let mut byte = 0u8;
        for (j, w) in WEIGHTS.into_iter().enumerate() {
            let s = srcs[j];
            let digit = if i < s.len() { (s[i] + 1) as u8 } else { 1 };
            byte += digit * w;
        }
        *o = byte;
    }
}
