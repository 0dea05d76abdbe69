//! Zero-run encoding of quartic byte streams (paper §3.3).
//!
//! Quartic encoding is fixed-length, so it cannot exploit the sparseness of
//! the ternary input. Zero-run encoding is a run-length code specialized to
//! quartic output: the input alphabet is 0–242, leaving byte values 243–255
//! free. A run of `k` consecutive [`ZERO_BYTE`]s (`2 ≤ k ≤ 14`) is replaced
//! by the single byte `243 + (k − 2)`; longer runs are split into maximal
//! chunks of 14. A lone zero byte is emitted unchanged.
//!
//! The code is byte-aligned — no bit-level operations and no lookup tables —
//! which is what keeps 3LC's computation overhead low compared to entropy
//! coders (§3.3, §6).
//!
//! Both directions cost the same whatever the runs look like:
//!
//! - **Encode** is a map and a filter. Each input byte emits at most one
//!   output byte: a literal emits itself; a zero byte emits 255 when it
//!   completes a run of [`MAX_RUN`], else its run's code when the next byte
//!   ends the run, else nothing. A running count of the run modulo 14 and
//!   one byte of lookahead decide every byte, so no byte branches on where
//!   the zeros fall, and because the write cursor never passes the read
//!   cursor the compaction runs in place. Whole windows of zero bytes that
//!   the run continues past advance in one step. The kernels are
//!   [`crate::kernels`]' (portable on the scalar and SWAR tiers, AVX2 on
//!   the SIMD tier, whose in-register compaction indexes a shuffle-control
//!   table — the kernel's, not the code's), identical to the byte at every
//!   tier.
//! - **Decode** expands byte by byte without a branch: the byte at the
//!   cursor, sixteen [`ZERO_BYTE`]s from the cursor if it is an escape or
//!   from just past it if it is a literal, then the cursor moves by 1 or by
//!   the run length. The output keeps 16 bytes of slack past its end for
//!   that store, and 16-byte blocks with no escape are copied whole. The
//!   stream is sized with [`decoded_len`] first, so a body that does not
//!   expand to its claimed length is refused before anything is written or
//!   allocated.

use crate::quartic::ZERO_BYTE;
use crate::DecodeError;

/// Shortest zero-byte run that gets replaced by an escape code.
pub const MIN_RUN: usize = 2;

/// Longest zero-byte run a single escape code can represent.
pub const MAX_RUN: usize = 14;

/// First escape code: `ESCAPE_BASE + (k - MIN_RUN)` encodes a run of `k`.
pub const ESCAPE_BASE: u8 = 243;

/// Encodes a quartic byte stream with zero-run encoding.
///
/// # Errors
///
/// Returns [`DecodeError::InvalidQuarticByte`] if the input contains a byte
/// above 242 (not a valid quartic stream).
///
/// ```
/// use threelc::zrle;
/// // Three zero bytes collapse into one escape byte 243 + (3-2) = 244.
/// assert_eq!(zrle::encode(&[121, 121, 121])?, vec![244]);
/// // A lone zero byte stays as-is.
/// assert_eq!(zrle::encode(&[7, 121, 9])?, vec![7, 121, 9]);
/// # Ok::<(), threelc::DecodeError>(())
/// ```
pub fn encode(input: &[u8]) -> Result<Vec<u8>, DecodeError> {
    encode_with_runs(input, |_| {})
}

/// [`encode`], reporting each zero-byte run it consumes to `on_run`.
///
/// The callback receives run lengths exactly as the encoder emits them —
/// runs longer than [`MAX_RUN`] appear as multiple chunks of at most
/// [`MAX_RUN`], and lone zero bytes are reported as runs of 1. This lets
/// `threelc inspect` read the run-length distribution off the encoding
/// itself, with no second scan over the quartic bytes.
///
/// # Errors
///
/// Same as [`encode`].
pub fn encode_with_runs(input: &[u8], on_run: impl FnMut(usize)) -> Result<Vec<u8>, DecodeError> {
    encode_with_runs_impl(crate::kernels::active(), input, on_run)
}

/// [`encode_with_runs`] on an explicit codec tier.
pub fn encode_with_runs_impl(
    imp: crate::kernels::CodecImpl,
    input: &[u8],
    on_run: impl FnMut(usize),
) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::with_capacity(input.len());
    encode_into_impl(imp, input, &mut out, on_run)?;
    Ok(out)
}

/// [`encode_with_runs_impl`] appending to a caller-owned buffer, so a
/// payload can be encoded straight behind its header. Nothing is appended
/// on error. The output is never longer than the input, so a buffer with
/// `input.len()` spare bytes does not grow.
///
/// The stream is validated whole first, so an invalid byte is reported at
/// its offset before anything is written. It is then copied behind `out`'s
/// contents and compacted there by the map and filter of the module docs,
/// as a compression context compacts its quartic scratch. The run reports
/// are read off the output: every emitted escape is one run of its length,
/// every emitted [`ZERO_BYTE`] a run of 1 (a literal is never 121). Bytes,
/// reports and error offsets are identical on every tier (see
/// [`crate::kernels`]).
///
/// # Errors
///
/// Same as [`encode`].
pub fn encode_into_impl(
    imp: crate::kernels::CodecImpl,
    input: &[u8],
    out: &mut Vec<u8>,
    mut on_run: impl FnMut(usize),
) -> Result<(), DecodeError> {
    check_quartic(imp, input)?;
    let start = out.len();
    out.extend_from_slice(input);
    let len = crate::kernels::zre_compact(imp, &mut out[start..]);
    out.truncate(start + len);
    for &b in &out[start..] {
        if b == ZERO_BYTE {
            on_run(1);
        } else if b >= ESCAPE_BASE {
            on_run(run_len(b));
        }
    }
    Ok(())
}

/// Zero-run encodes the quartic stream `buf` over itself and returns the
/// body's length: the encoding is `buf[..len]` and the bytes after it are
/// unspecified. What a compression context runs on its quartic scratch, so
/// the body is never copied before it is written to the wire.
///
/// # Errors
///
/// Same as [`encode`]; `buf` is untouched then.
pub(crate) fn encode_in_place(
    imp: crate::kernels::CodecImpl,
    buf: &mut [u8],
) -> Result<usize, DecodeError> {
    check_quartic(imp, buf)?;
    Ok(crate::kernels::zre_compact(imp, buf))
}

/// Refuses a stream holding a byte above 242, at its first offset.
fn check_quartic(imp: crate::kernels::CodecImpl, input: &[u8]) -> Result<(), DecodeError> {
    match crate::kernels::find_invalid_quartic(imp, input) {
        Some(offset) => Err(DecodeError::InvalidQuarticByte {
            byte: input[offset],
            offset,
        }),
        None => Ok(()),
    }
}

/// Length of the zero run an escape byte stands for.
#[inline(always)]
fn run_len(escape: u8) -> usize {
    usize::from(escape - ESCAPE_BASE) + MIN_RUN
}

/// Decodes a zero-run-encoded stream back into quartic bytes.
///
/// Every byte 0–255 is meaningful, so this cannot fail; callers that know
/// the expected quartic length should use [`decode_exact`], which checks
/// it.
pub fn decode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    decode_exact_into(input, decoded_len(input), &mut out).expect("sized by decoded_len");
    out
}

/// Number of quartic bytes a ZRE stream (or any slice of one) decodes to.
///
/// Escape bytes expand to their run length; everything else is one byte.
pub fn decoded_len(input: &[u8]) -> usize {
    // An escape `b` adds `b − 242` bytes beyond its own; a literal adds
    // none. Blocks small enough for a `u32` sum let the loop widen bytes
    // four to a lane instead of eight.
    input
        .chunks(1 << 16)
        .map(|block| {
            let extra: u32 = block
                .iter()
                .map(|&b| u32::from(b.saturating_sub(ESCAPE_BASE - 1)))
                .sum();
            block.len() + extra as usize
        })
        .sum()
}

/// Decodes and verifies that exactly `expected_len` quartic bytes result.
///
/// # Errors
///
/// Returns [`DecodeError::BodyLengthMismatch`] if the decoded length
/// differs from `expected_len`.
pub fn decode_exact(input: &[u8], expected_len: usize) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::new();
    decode_exact_into(input, expected_len, &mut out)?;
    Ok(out)
}

/// [`decode_exact`] into a caller-owned buffer, resized to `expected_len`
/// and overwritten; a buffer reused across calls of one length never
/// reallocates (its capacity keeps the expander's 16 bytes of slack). The
/// stream is sized with [`decoded_len`] first, so a hostile body — every
/// byte may expand 14× — is rejected before anything is allocated for it
/// or written, leaving `out` untouched.
///
/// # Errors
///
/// Same as [`decode_exact`].
pub fn decode_exact_into(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    let decoded = decoded_len(input);
    if decoded != expected_len {
        return Err(DecodeError::BodyLengthMismatch {
            decoded,
            expected: expected_len,
        });
    }
    out.resize(expected_len + EXPAND_SLACK, ZERO_BYTE);
    expand(input, out);
    out.truncate(expected_len);
    Ok(())
}

/// Bytes the expander may write past the decoded end: one run store.
const EXPAND_SLACK: usize = 16;

/// Expands `input` into `out`, which holds its decoded length plus
/// [`EXPAND_SLACK`]: per byte, a run of zero bytes stored at the cursor
/// whatever the byte ([`expand_byte`]) and the cursor moved by 1 or by the
/// run length — no branch on the byte. A 16-byte block with no escape is
/// copied whole.
fn expand(input: &[u8], out: &mut [u8]) {
    let mut pos = 0;
    let mut blocks = input.chunks_exact(16);
    for block in &mut blocks {
        let block: &[u8; 16] = block.try_into().expect("16 bytes");
        if has_escape(block) {
            for &b in block {
                pos = expand_byte(out, pos, b);
            }
        } else {
            out[pos..pos + 16].copy_from_slice(block);
            pos += 16;
        }
    }
    for &b in blocks.remainder() {
        pos = expand_byte(out, pos, b);
    }
}

/// One byte of [`expand`] at `pos`; returns the next cursor. The byte is
/// stored as it is, then sixteen zero bytes from the cursor if it is an
/// escape, or from just past it if it is a literal: two unconditional
/// stores, and a cursor step of `1 + (b − 242)` for an escape and 1 for a
/// literal (`saturating_sub` is 0 below 243), so nothing branches on `b`.
/// A literal at the last byte writes its zeros up to 16 bytes past the end.
#[inline(always)]
fn expand_byte(out: &mut [u8], pos: usize, b: u8) -> usize {
    out[pos] = b;
    let zeros_at = pos + 1 - usize::from(b >= ESCAPE_BASE);
    out[zeros_at..zeros_at + EXPAND_SLACK].copy_from_slice(&[ZERO_BYTE; EXPAND_SLACK]);
    pos + 1 + usize::from(b.saturating_sub(ESCAPE_BASE - 1))
}

/// Whether any of 16 bytes is 243 or above: a byte's top bit together
/// with low 7 bits of at least `0x73` (`+ 0x0d` carries into the top bit),
/// with no carry between bytes.
#[inline(always)]
fn has_escape(block: &[u8; 16]) -> bool {
    const LO7: u128 = u128::from_ne_bytes([0x7f; 16]);
    const HI: u128 = u128::from_ne_bytes([0x80; 16]);
    const REP13: u128 = u128::from_ne_bytes([0x0d; 16]);
    let v = u128::from_ne_bytes(*block);
    v & ((v & LO7) + REP13) & HI != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_zero_byte_unchanged() {
        assert_eq!(encode(&[121]).unwrap(), vec![121]);
        assert_eq!(encode(&[5, 121, 6]).unwrap(), vec![5, 121, 6]);
    }

    #[test]
    fn short_runs_escape() {
        assert_eq!(encode(&[121, 121]).unwrap(), vec![243]);
        assert_eq!(encode(&[121; 14]).unwrap(), vec![255]);
    }

    #[test]
    fn long_runs_split_into_max_chunks() {
        // 15 zeros → one max-run (14) + one lone zero byte.
        assert_eq!(encode(&[121; 15]).unwrap(), vec![255, 121]);
        // 16 zeros → 14 + 2.
        assert_eq!(encode(&[121; 16]).unwrap(), vec![255, 243]);
        // 28 zeros → 14 + 14.
        assert_eq!(encode(&[121; 28]).unwrap(), vec![255, 255]);
    }

    #[test]
    fn non_zero_bytes_pass_through() {
        let data = [0u8, 1, 100, 242, 120, 122];
        assert_eq!(encode(&data).unwrap(), data.to_vec());
    }

    #[test]
    fn encode_rejects_invalid_quartic() {
        assert!(matches!(
            encode(&[243]),
            Err(DecodeError::InvalidQuarticByte {
                byte: 243,
                offset: 0
            })
        ));
        assert!(matches!(
            encode(&[121, 255]),
            Err(DecodeError::InvalidQuarticByte { offset: 1, .. })
        ));
    }

    #[test]
    fn decode_inverts_encode() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![121],
            vec![121; 2],
            vec![121; 14],
            vec![121; 15],
            vec![121; 29],
            vec![1, 121, 121, 2, 121, 121, 121, 3],
            vec![242, 0, 121],
        ];
        for case in cases {
            let enc = encode(&case).unwrap();
            assert_eq!(decode(&enc), case, "case {case:?}");
        }
    }

    #[test]
    fn decode_exact_length_check() {
        let enc = encode(&[121; 10]).unwrap();
        assert!(decode_exact(&enc, 10).is_ok());
        assert!(matches!(
            decode_exact(&enc, 11),
            Err(DecodeError::BodyLengthMismatch {
                decoded: 10,
                expected: 11
            })
        ));
    }

    #[test]
    fn compression_ratio_on_all_zero_stream() {
        // An all-zero quartic stream compresses ~14×: each escape byte
        // covers 14 zero bytes (70 ternary values).
        let input = vec![121u8; 14 * 100];
        let enc = encode(&input).unwrap();
        assert_eq!(enc.len(), 100);
    }

    #[test]
    fn mixed_stream_roundtrip_matches_paper_figure3() {
        // Figure 3 step (4): quartic bytes [113, 121, 121, 121] encode to
        // [113, 244] (run of 3 → 243 + 1).
        let quartic = [113u8, 121, 121, 121];
        assert_eq!(encode(&quartic).unwrap(), vec![113, 244]);
    }

    #[test]
    fn empty_stream() {
        assert!(encode(&[]).unwrap().is_empty());
        assert!(decode(&[]).is_empty());
    }

    #[test]
    fn decoded_len_and_decode_into_roundtrip() {
        let mut input = vec![121u8; 17];
        input.push(7);
        input.push(121);
        let enc = encode(&input).unwrap();
        assert_eq!(decoded_len(&enc), input.len());
        let mut out = vec![0u8; 3];
        decode_exact_into(&enc, input.len(), &mut out).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn encode_with_runs_reports_the_emitted_chunks() {
        // 17 zeros split at MAX_RUN: chunks of 14 and 3; the lone trailing
        // zero after a non-zero byte is a run of 1.
        let mut input = vec![121u8; 17];
        input.push(7);
        input.push(121);
        let mut runs = Vec::new();
        let enc = encode_with_runs(&input, |r| runs.push(r)).unwrap();
        assert_eq!(runs, vec![14, 3, 1]);
        assert_eq!(
            enc,
            encode(&input).unwrap(),
            "callback must not change output"
        );
    }
}
