//! Branchless u64 SWAR kernels ("SIMD within a register").
//!
//! All safe code: unaligned word access goes through
//! `u64::from_le_bytes`/`to_le_bytes` on 8-byte chunks, and the float
//! lanes are written as fixed-width 8-element inner loops that LLVM
//! auto-vectorizes. The u64 tricks used here:
//!
//! - **Weighted digit pack**: eight quartic digits (each ≤ 2) live one
//!   per byte in a u64; multiplying the whole word by a weight ≤ 81 and
//!   summing the five weighted words packs eight output bytes at once.
//!   No lane can carry into its neighbour because every per-byte total
//!   is ≤ 2·(81+27+9+3+1) = 242 < 256.
//! - **Per-byte increment** (`{-1,0,1}` → `{0,1,2}` as `u8` lanes):
//!   `((v & 0x7f7f…) + 0x0101…) ^ (v & 0x8080…)` adds 1 to every byte
//!   with the carry chain severed at each lane's top bit.
//! - **Bytes > 242**: `v & ((v & 0x7f7f…) + 0x0d0d…) & 0x8080…` flags a
//!   byte iff its top bit is set and its low 7 bits are ≥ 0x73 — exactly
//!   the range 243–255. No borrows are involved, so every flag is exact.

use super::{digit_of, INF_BITS, WEIGHTS};
use crate::quartic::MAX_QUARTIC_BYTE;

/// Low 7 bits of every byte lane.
const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
/// Top bit of every byte lane.
const HI: u64 = 0x8080_8080_8080_8080;
/// 1 in every byte lane.
const ONES: u64 = 0x0101_0101_0101_0101;
/// `256 − 243` in every byte lane: offsets the >242 range test.
const REP13: u64 = 0x0d0d_0d0d_0d0d_0d0d;

/// IEEE abs mask for f32 bit patterns.
const ABS: u32 = 0x7fff_ffff;

pub(super) fn max_abs_finite(xs: &[f32]) -> (f32, bool) {
    // For non-negative finite floats the bit pattern orders like the
    // integer it spells, so an 8-lane integer max over `bits & ABS`
    // equals the scalar `f32::max` fold — and `max < INF_BITS` holds iff
    // every input was finite (NaN/inf magnitudes are ≥ INF_BITS). When
    // the flag is false the returned max is unspecified (callers error
    // out and discard it).
    let mut lanes = [0u32; 8];
    let mut chunks = xs.chunks_exact(8);
    for c in chunks.by_ref() {
        for k in 0..8 {
            lanes[k] = lanes[k].max(c[k].to_bits() & ABS);
        }
    }
    let mut mb = 0u32;
    for &l in &lanes {
        mb = mb.max(l);
    }
    for &x in chunks.remainder() {
        mb = mb.max(x.to_bits() & ABS);
    }
    (f32::from_bits(mb), mb < INF_BITS)
}

pub(super) fn quantize_ternary(xs: &[f32], inv: f32, out: &mut [i8]) {
    let mut i = 0;
    while i + 8 <= xs.len() {
        for k in 0..8 {
            out[i + k] = digit_of(xs[i + k], inv) as i8 - 1;
        }
        i += 8;
    }
    while i < xs.len() {
        out[i] = digit_of(xs[i], inv) as i8 - 1;
        i += 1;
    }
}

/// Eight quartic digits of `s[..8]` scaled by `inv`, one per output byte,
/// with the error-accumulation residual written back.
#[inline(always)]
fn digits8_ea(s: &mut [f32], inv: f32, scale: f32) -> u64 {
    let mut d = 0u64;
    for (k, x) in s[..8].iter_mut().enumerate() {
        let dg = digit_of(*x, inv);
        *x -= (dg as i8 - 1) as f32 * scale;
        d |= (dg as u64) << (8 * k);
    }
    d
}

pub(super) fn pack_chunk_ea(
    srcs: &mut [&mut [f32]; 5],
    inv: f32,
    scale: f32,
    out: &mut [u8],
) -> bool {
    // The same 8-lane `bits & ABS` max as `max_abs_finite`, over the
    // values as they are read.
    let mut lanes = [0u32; 8];
    let full = srcs
        .iter()
        .map(|s| s.len())
        .min()
        .expect("5 srcs")
        .min(out.len());
    let blocks = full / 8;
    for b in 0..blocks {
        let i = b * 8;
        let mut acc = 0u64;
        for (j, s) in srcs.iter_mut().enumerate() {
            let s = &mut s[i..i + 8];
            for k in 0..8 {
                lanes[k] = lanes[k].max(s[k].to_bits() & ABS);
            }
            acc = acc.wrapping_add(digits8_ea(s, inv, scale).wrapping_mul(WEIGHTS[j] as u64));
        }
        out[i..i + 8].copy_from_slice(&acc.to_le_bytes());
    }
    let mut mb = lanes.into_iter().max().unwrap_or(0);
    for i in blocks * 8..out.len() {
        let mut byte = 0u8;
        for (j, w) in WEIGHTS.into_iter().enumerate() {
            let s = &mut *srcs[j];
            let digit = if i < s.len() {
                let x = s[i];
                mb = mb.max(x.to_bits() & ABS);
                let d = digit_of(x, inv);
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

/// Eight ternary values (`{-1,0,1}` as `i8`) shifted to digits `{0,1,2}`,
/// one per byte: the carry-suppressed per-byte `+1`.
#[inline(always)]
fn tern_digits8(s: &[i8]) -> u64 {
    let b: [u8; 8] = std::array::from_fn(|k| s[k] as u8);
    let v = u64::from_le_bytes(b);
    ((v & LO7) + ONES) ^ (v & HI)
}

pub(super) fn pack_ternary(srcs: &[&[i8]; 5], out: &mut [u8]) {
    let full = srcs
        .iter()
        .map(|s| s.len())
        .min()
        .expect("5 srcs")
        .min(out.len());
    let blocks = full / 8;
    for b in 0..blocks {
        let i = b * 8;
        let mut acc = 0u64;
        for j in 0..5 {
            acc =
                acc.wrapping_add(tern_digits8(&srcs[j][i..i + 8]).wrapping_mul(WEIGHTS[j] as u64));
        }
        out[i..i + 8].copy_from_slice(&acc.to_le_bytes());
    }
    for i in blocks * 8..out.len() {
        let mut byte = 0u8;
        for (j, w) in WEIGHTS.into_iter().enumerate() {
            let s = srcs[j];
            let digit = if i < s.len() { (s[i] + 1) as u8 } else { 1 };
            byte += digit * w;
        }
        out[i] = byte;
    }
}

pub(super) fn dequant_assign(syms: &[i8], scale: f32, out: &mut [f32]) {
    // `chunks_exact` (not index arithmetic) keeps the fixed-width body
    // free of bounds checks so the convert+multiply auto-vectorizes on
    // the baseline target.
    let mut oc = out.chunks_exact_mut(8);
    let mut sc = syms.chunks_exact(8);
    for (o, s) in (&mut oc).zip(&mut sc) {
        for k in 0..8 {
            o[k] = s[k] as f32 * scale;
        }
    }
    for (o, &s) in oc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o = s as f32 * scale;
    }
}

pub(super) fn dequant_add(syms: &[i8], scale: f32, out: &mut [f32]) {
    let mut oc = out.chunks_exact_mut(8);
    let mut sc = syms.chunks_exact(8);
    for (o, s) in (&mut oc).zip(&mut sc) {
        for k in 0..8 {
            o[k] += s[k] as f32 * scale;
        }
    }
    for (o, &s) in oc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o += s as f32 * scale;
    }
}

pub(super) fn find_invalid_quartic(h: &[u8]) -> Option<usize> {
    let mut i = 0;
    let mut chunks = h.chunks_exact(8);
    for c in chunks.by_ref() {
        let v = u64::from_le_bytes(c.try_into().expect("8 bytes"));
        let m = v & ((v & LO7) + REP13) & HI;
        if m != 0 {
            return Some(i + (m.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b > MAX_QUARTIC_BYTE)
        .map(|p| i + p)
}
