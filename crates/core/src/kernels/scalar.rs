//! Scalar reference kernels: the straightforward per-element loops the
//! SWAR and SIMD tiers must match bit for bit.

use super::{digit_of, WEIGHTS};

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

pub(super) fn pack_chunk_ea(srcs: &mut [&mut [f32]; 5], inv: f32, scale: f32, out: &mut [u8]) {
    for (i, o) in out.iter_mut().enumerate() {
        let mut byte = 0u8;
        for (j, w) in WEIGHTS.into_iter().enumerate() {
            let s = &mut *srcs[j];
            let digit = if i < s.len() {
                let x = s[i];
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
