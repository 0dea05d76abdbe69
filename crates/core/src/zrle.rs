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
/// `threelc inspect` read the run-length distribution from the encoding
/// pass itself, with no second scan over the data.
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
/// The scan-structured rewrite of the original byte-at-a-time loop:
/// validate the whole stream, then alternate between bulk-copying the
/// literal span up to the next zero byte and chunking the zero run up to
/// the next non-zero byte into escapes of at most [`MAX_RUN`]. Emission
/// order, run chunking, `on_run` reports, and error offsets are identical
/// to the original loop on every tier (see [`crate::kernels`]).
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
    if let Some(offset) = crate::kernels::find_invalid_quartic(imp, input) {
        return Err(DecodeError::InvalidQuarticByte {
            byte: input[offset],
            offset,
        });
    }
    let mut i = 0;
    while i < input.len() {
        // Literal span: everything up to the next zero byte passes
        // through unchanged, as one bulk copy.
        let z = crate::kernels::find_zero_byte(imp, input, i);
        out.extend_from_slice(&input[i..z]);
        if z == input.len() {
            break;
        }
        // Zero run: measure it whole, then emit MAX_RUN-sized chunks
        // exactly as the byte-at-a-time encoder did.
        let end = crate::kernels::find_nonzero_byte(imp, input, z);
        let mut remaining = end - z;
        while remaining > 0 {
            let run = remaining.min(MAX_RUN);
            on_run(run);
            if run >= MIN_RUN {
                out.push(ESCAPE_BASE + (run - MIN_RUN) as u8);
            } else {
                out.push(ZERO_BYTE);
            }
            remaining -= run;
        }
        i = end;
    }
    Ok(())
}

/// Decodes a zero-run-encoded stream back into quartic bytes.
///
/// # Errors
///
/// This function cannot fail structurally (every byte 0–255 is meaningful),
/// but callers should verify the decoded length against the expected
/// quartic length; [`decode_exact`] does that check.
pub fn decode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() * 2);
    for &b in input {
        if b >= ESCAPE_BASE {
            let run = (b - ESCAPE_BASE) as usize + MIN_RUN;
            out.resize(out.len() + run, ZERO_BYTE);
        } else {
            out.push(b);
        }
    }
    out
}

/// Number of quartic bytes a ZRE stream (or any slice of one) decodes to.
///
/// Escape bytes expand to their run length; everything else is one byte.
pub fn decoded_len(input: &[u8]) -> usize {
    input
        .iter()
        .map(|&b| {
            if b >= ESCAPE_BASE {
                (b - ESCAPE_BASE) as usize + MIN_RUN
            } else {
                1
            }
        })
        .sum()
}

/// Decodes a ZRE stream into an exactly-sized output slice.
///
/// # Panics
///
/// Panics if `out.len() != decoded_len(input)`.
fn decode_into(input: &[u8], out: &mut [u8]) {
    let mut pos = 0;
    for &b in input {
        if b >= ESCAPE_BASE {
            let run = (b - ESCAPE_BASE) as usize + MIN_RUN;
            out[pos..pos + run].fill(ZERO_BYTE);
            pos += run;
        } else {
            out[pos] = b;
            pos += 1;
        }
    }
    assert_eq!(pos, out.len(), "output slice must match decoded length");
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
/// reallocates. The stream is sized with [`decoded_len`] first, so a
/// hostile body — every byte may expand 14× — is rejected before anything
/// is allocated for it, leaving `out` untouched.
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
    out.resize(expected_len, ZERO_BYTE);
    decode_into(input, out);
    Ok(())
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
        let mut out = vec![0u8; input.len()];
        decode_into(&enc, &mut out);
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
