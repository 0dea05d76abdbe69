//! Quartic encoding of ternary tensors (paper §3.2).
//!
//! CPUs have no native base-3 type, and the naive 2-bit encoding of a
//! ternary value wastes ~26% over the entropy bound. Quartic encoding packs
//! five ternary values into one byte using the quartic-form expression
//! `a·3⁴ + b·3³ + c·3² + d·3 + e`, which has only 3⁵ = 243 distinct values —
//! it fits a byte with room to spare (the spare codes 243–255 are what
//! zero-run encoding uses).
//!
//! Following the paper's step list, encoding:
//!
//! 1. element-wise add 1 (mapping `{-1,0,1}` → `{0,1,2}`),
//! 2. flatten, pad with zeros to a multiple of 5,
//! 3. divide into five equal *partitions* `p0..p4`,
//! 4. compute `p0·81 + p1·27 + p2·9 + p3·3 + p4` element-wise.
//!
//! The partition layout (byte `i` combines elements `i, i+L, i+2L, i+3L,
//! i+4L` where `L` is the partition length) is what makes the transform
//! vectorizable as five strided multiply-adds. A group of five zeros maps to
//! the byte value `121` (= 1·81+1·27+1·9+1·3+1), the byte zero-run encoding
//! targets.

use crate::DecodeError;

/// The quartic byte produced by five zero ternary values.
pub const ZERO_BYTE: u8 = 121;

/// The largest valid quartic byte (3⁵ − 1).
pub const MAX_QUARTIC_BYTE: u8 = 242;

/// Number of ternary values packed per byte.
pub const VALUES_PER_BYTE: usize = 5;

/// Encodes ternary values (each in `{-1, 0, 1}`) into quartic bytes.
///
/// The output length is `ceil(len / 5)`; the input is implicitly padded
/// with zeros (which become digit 1 after the +1 shift).
///
/// # Panics
///
/// Panics (in debug builds) if a value is outside `{-1, 0, 1}`. Release
/// builds produce unspecified bytes for invalid input; upstream
/// [`TernaryTensor`](crate::TernaryTensor) guarantees validity.
///
/// ```
/// use threelc::quartic;
/// // Five zeros → the zero byte 121.
/// assert_eq!(quartic::encode(&[0, 0, 0, 0, 0]), vec![121]);
/// // All ones → 2·(81+27+9+3+1) = 242, the max byte.
/// assert_eq!(quartic::encode(&[1, 1, 1, 1, 1]), vec![242]);
/// ```
pub fn encode(values: &[i8]) -> Vec<u8> {
    encode_impl(crate::kernels::active(), values)
}

/// [`encode`] on an explicit codec tier (every tier is bit-identical;
/// see [`crate::kernels`]).
pub fn encode_impl(imp: crate::kernels::CodecImpl, values: &[i8]) -> Vec<u8> {
    debug_assert!(
        values.iter().all(|v| (-1..=1).contains(v)),
        "quartic input must be ternary"
    );
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    let bytes = n.div_ceil(VALUES_PER_BYTE);
    let partition = bytes; // L: padded length / 5
    let mut out = vec![0u8; bytes];
    // digit(j, i) = values[j*L + i] + 1, with zero padding past the end.
    let srcs: [&[i8]; VALUES_PER_BYTE] =
        std::array::from_fn(|j| &values[(j * partition).min(n)..((j + 1) * partition).min(n)]);
    crate::kernels::pack_ternary(imp, &srcs, &mut out);
    out
}

/// Decodes quartic bytes back into `count` ternary values.
///
/// # Errors
///
/// - [`DecodeError::InvalidQuarticByte`] if any byte exceeds 242.
/// - [`DecodeError::BodyLengthMismatch`] if the byte count does not match
///   `ceil(count / 5)`.
///
/// ```
/// use threelc::quartic;
/// let tern = [1i8, -1, 0, 0, 1, 0, 1];
/// let bytes = quartic::encode(&tern);
/// assert_eq!(quartic::decode(&bytes, tern.len())?, tern);
/// # Ok::<(), threelc::DecodeError>(())
/// ```
pub fn decode(bytes: &[u8], count: usize) -> Result<Vec<i8>, DecodeError> {
    let mut out = Vec::new();
    decode_into_impl(crate::kernels::active(), bytes, count, &mut out)?;
    Ok(out)
}

/// [`decode`] into a caller-owned buffer on an explicit codec tier: `out`
/// is resized to `count` and overwritten. The first pass of the two-pass
/// oracle [`crate::kernels::unpack_dequant`] is tested against, which
/// produces the same digits without storing them.
///
/// # Errors
///
/// Exactly [`decode`]'s errors, with identical offsets; on error `out` is
/// left in an unspecified (but valid) state.
pub fn decode_into_impl(
    imp: crate::kernels::CodecImpl,
    bytes: &[u8],
    count: usize,
    out: &mut Vec<i8>,
) -> Result<(), DecodeError> {
    let expected_bytes = count.div_ceil(VALUES_PER_BYTE);
    if bytes.len() != expected_bytes {
        return Err(DecodeError::BodyLengthMismatch {
            decoded: bytes.len() * VALUES_PER_BYTE,
            expected: count,
        });
    }
    if count == 0 {
        out.clear();
        return Ok(());
    }
    if let Some(offset) = crate::kernels::find_invalid_quartic(imp, bytes) {
        return Err(DecodeError::InvalidQuarticByte {
            byte: bytes[offset],
            offset,
        });
    }
    let partition = bytes.len();
    out.clear();
    out.resize(count, 0);
    // Reverse the base-3 digits: p_j = (byte / 3^(4-j)) % 3, then -1.
    // Deliberately arithmetic rather than a lookup table: LLVM turns the
    // divide-by-constant and modulo into multiplies and vectorizes each
    // contiguous per-digit pass, which a table gather would forbid.
    for (j, weight) in [81u16, 27, 9, 3, 1].into_iter().enumerate() {
        let base = j * partition;
        for (i, &b) in bytes.iter().enumerate() {
            let idx = base + i;
            if idx >= count {
                break;
            }
            let digit = (b as u16 / weight) % 3;
            out[idx] = digit as i8 - 1;
        }
    }
    Ok(())
}

/// Bits per ternary value used by quartic encoding (8 bits / 5 values).
pub const BITS_PER_VALUE: f64 = 8.0 / VALUES_PER_BYTE as f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_known_bytes() {
        assert_eq!(encode(&[0, 0, 0, 0, 0]), vec![ZERO_BYTE]);
        assert_eq!(encode(&[-1, -1, -1, -1, -1]), vec![0]);
        assert_eq!(encode(&[1, 1, 1, 1, 1]), vec![MAX_QUARTIC_BYTE]);
        // Single leading 1, rest zeros: 2·81 + 1·27 + 1·9 + 1·3 + 1 = 202.
        assert_eq!(encode(&[1, 0, 0, 0, 0]), vec![202]);
    }

    #[test]
    fn partition_layout_matches_paper() {
        // 10 values → 2 bytes, partitions of length 2. Byte 0 combines
        // values 0, 2, 4, 6, 8; byte 1 combines 1, 3, 5, 7, 9.
        let values = [1i8, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        let bytes = encode(&values);
        // Byte 0: digits (2,1,1,1,1) = 2·81+27+9+3+1 = 202.
        // Byte 1: digits (0,1,1,1,1) = 0+27+9+3+1 = 40.
        assert_eq!(bytes, vec![202, 40]);
    }

    #[test]
    fn padding_uses_zero_digit() {
        // 6 values → 2 bytes, partitions of length 2; indices 6..10 padded.
        let values = [0i8, 0, 0, 0, 0, 0];
        let bytes = encode(&values);
        assert_eq!(bytes, vec![ZERO_BYTE, ZERO_BYTE]);
    }

    #[test]
    fn roundtrip_exhaustive_small() {
        // All 3^5 ternary 5-tuples roundtrip exactly.
        for code in 0..243usize {
            let mut c = code;
            let mut tuple = [0i8; 5];
            for t in tuple.iter_mut().rev() {
                *t = (c % 3) as i8 - 1;
                c /= 3;
            }
            let bytes = encode(&tuple);
            assert_eq!(bytes.len(), 1);
            let back = decode(&bytes, 5).unwrap();
            assert_eq!(back, tuple);
        }
    }

    #[test]
    fn roundtrip_unaligned_lengths() {
        for n in 0..23usize {
            let values: Vec<i8> = (0..n).map(|i| (i % 3) as i8 - 1).collect();
            let bytes = encode(&values);
            assert_eq!(bytes.len(), n.div_ceil(5));
            assert_eq!(decode(&bytes, n).unwrap(), values);
        }
    }

    #[test]
    fn decode_rejects_invalid_byte() {
        let err = decode(&[243], 5).unwrap_err();
        assert_eq!(
            err,
            DecodeError::InvalidQuarticByte {
                byte: 243,
                offset: 0
            }
        );
    }

    #[test]
    fn decode_rejects_wrong_length() {
        assert!(matches!(
            decode(&[121, 121], 5),
            Err(DecodeError::BodyLengthMismatch { .. })
        ));
        assert!(matches!(
            decode(&[], 5),
            Err(DecodeError::BodyLengthMismatch { .. })
        ));
    }

    #[test]
    fn empty_input() {
        assert!(encode(&[]).is_empty());
        assert_eq!(decode(&[], 0).unwrap(), Vec::<i8>::new());
    }

    #[test]
    fn space_is_1_6_bits_per_value() {
        let values = vec![0i8; 1000];
        let bytes = encode(&values);
        assert_eq!(bytes.len(), 200);
        assert!((BITS_PER_VALUE - 1.6).abs() < 1e-12);
    }

    #[test]
    fn all_output_bytes_in_valid_range() {
        let mut r = threelc_tensor::rng(3);
        use rand::Rng as _;
        let values: Vec<i8> = (0..997).map(|_| r.gen_range(-1..=1i8)).collect();
        let bytes = encode(&values);
        assert!(bytes.iter().all(|&b| b <= MAX_QUARTIC_BYTE));
    }
}
