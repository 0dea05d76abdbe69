//! Scalar reference kernels: the straightforward per-element loops the
//! SWAR and SIMD tiers must match bit for bit.

use super::{digit_of, DequantOp, FULL_RUN_CODE, RUN_CODE_BIAS, WEIGHTS};
use crate::quartic::ZERO_BYTE;
use crate::zrle::MAX_RUN;

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

/// Where a zero-run compaction stands: the next byte to read, the next
/// byte to write (never past `read`), and how many zero bytes of the
/// current run are not yet covered by an escape (`0..MAX_RUN`).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct ZreCursor {
    pub(super) read: usize,
    pub(super) write: usize,
    pub(super) pending: usize,
}

/// The portable zero-run encoder, shared by the scalar and SWAR tiers:
/// [`super::zre_compact`] from the start of `buf`.
pub(super) fn zre_compact(buf: &mut [u8]) -> usize {
    zre_compact_from(buf, ZreCursor::default())
}

/// Bytes a zero-run window covers — one AVX2 register, the SIMD tier's
/// step: on every tier, a window of zero bytes that the byte after it
/// continues advances in one step ([`zre_skip`]).
pub(super) const ZRE_WINDOW: usize = 32;

/// [`zre_compact`] from `at` on: the AVX2 tier hands its tail here.
///
/// A zero run the next byte continues advances a whole window, or else a
/// word, at a time; every other byte takes [`zre_step`], which has no
/// data-dependent branch. The word keeps a lone literal from sending its
/// whole window through the byte loop.
pub(super) fn zre_compact_from(buf: &mut [u8], mut at: ZreCursor) -> usize {
    const WORD: usize = 8;
    let n = buf.len();
    while at.read < n {
        let i = at.read;
        if i + WORD < n && is_zero_run(&buf[i..=i + WORD]) {
            if i + ZRE_WINDOW < n && is_zero_run(&buf[i..=i + ZRE_WINDOW]) {
                zre_skip::<ZRE_WINDOW>(buf, &mut at);
            } else {
                zre_skip::<WORD>(buf, &mut at);
            }
        } else {
            for _ in i..(i + WORD).min(n) {
                zre_step(buf, &mut at);
            }
        }
    }
    at.write
}

/// Whether every byte of `bytes` is [`ZERO_BYTE`]; a whole-word fold the
/// compiler vectorises, with no early exit.
#[inline(always)]
fn is_zero_run(bytes: &[u8]) -> bool {
    const ZERO_WORD: u64 = u64::from_ne_bytes([ZERO_BYTE; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut diff = (&mut words).fold(0, |acc, w| {
        acc | (u64::from_ne_bytes(w.try_into().expect("8 bytes")) ^ ZERO_WORD)
    });
    for &b in words.remainder() {
        diff |= u64::from(b ^ ZERO_BYTE);
    }
    diff == 0
}

/// Consumes `WIDTH` zero bytes that the byte after them continues: only
/// the escapes for the 14-runs they complete are emitted. Writes four
/// escape bytes whatever the count (at most `(13 + WIDTH) / 14 ≤ 3` are
/// kept), which lands inside the bytes just consumed. No division on the
/// carried count: it wraps at most once.
#[inline(always)]
pub(super) fn zre_skip<const WIDTH: usize>(buf: &mut [u8], at: &mut ZreCursor) {
    const { assert!(WIDTH >= 4 && WIDTH <= ZRE_WINDOW) };
    let carry = at.pending + WIDTH % MAX_RUN;
    let wraps = usize::from(carry >= MAX_RUN);
    buf[at.write..at.write + 4].fill(FULL_RUN_CODE);
    at.write += WIDTH / MAX_RUN + wraps;
    at.pending = carry - wraps * MAX_RUN;
    at.read += WIDTH;
}

/// One byte of the map-and-filter: a literal emits itself; a zero byte
/// emits 255 when it completes a 14-run, else its run's code when the
/// next byte ends the run, else nothing. The byte is always stored at the
/// write cursor, which only advances when it is emitted.
#[inline(always)]
fn zre_step(buf: &mut [u8], at: &mut ZreCursor) {
    let i = at.read;
    let b = buf[i];
    let next = buf.get(i + 1).copied().unwrap_or(0);
    let zero = b == ZERO_BYTE;
    let count = at.pending + 1;
    let full = count == MAX_RUN;
    let ends = next != ZERO_BYTE;
    // Run code `ESCAPE_BASE + count − MIN_RUN`, or the zero byte itself
    // for a run of one.
    let code = if count == 1 {
        ZERO_BYTE
    } else {
        (RUN_CODE_BIAS + count) as u8
    };
    buf[at.write] = if zero { code } else { b };
    at.write += usize::from(!zero | full | ends);
    at.pending = if zero & !full { count } else { 0 };
    at.read = i + 1;
}
