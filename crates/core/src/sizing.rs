//! Wire payload size bounds for the 3LC format.
//!
//! A 3LC payload is a fixed 9-byte header (flags, scale, element count)
//! followed by the quartic byte stream, optionally zero-run encoded. Both
//! stages have exact size bounds:
//!
//! - quartic encoding is fixed-rate: `ceil(n / 5)` bytes for `n` values;
//! - zero-run encoding never expands (each input byte maps to at most one
//!   output byte) and at best collapses every [`zrle::MAX_RUN`] zero bytes
//!   into one escape byte.
//!
//! These bounds let transports size receive buffers before decoding and
//! let file/frame parsers reject element counts that could not possibly
//! fit the bytes at hand — *before* allocating count-proportional memory.

use crate::quartic;
use crate::zrle;

/// Bytes of the 3LC wire header: flags (u8), scale (f32 LE), count (u32 LE).
pub const WIRE_HEADER_LEN: usize = 9;

/// Header flag bit set when the body is zero-run encoded.
pub const WIRE_FLAG_ZRE: u8 = 0b0000_0001;

/// Bytes of quartic encoding for `values` ternary values (fixed-rate).
pub fn quartic_len(values: usize) -> usize {
    values.div_ceil(quartic::VALUES_PER_BYTE)
}

/// Smallest possible 3LC payload for `values` values: header plus the
/// quartic stream with every zero run maximally collapsed.
pub fn min_payload_len(values: usize) -> usize {
    WIRE_HEADER_LEN + quartic_len(values).div_ceil(zrle::MAX_RUN)
}

/// Largest element count a payload of `payload_len` bytes could describe.
///
/// The inverse of [`min_payload_len`]: any claimed count above this bound
/// is malformed, no matter what the body holds. Saturates instead of
/// overflowing for absurd lengths.
pub fn max_values_for_payload(payload_len: usize) -> usize {
    let body = payload_len.saturating_sub(WIRE_HEADER_LEN);
    body.saturating_mul(zrle::MAX_RUN)
        .saturating_mul(quartic::VALUES_PER_BYTE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlq::SparsityMultiplier;
    use crate::{Compressor, ThreeLcCompressor, ThreeLcOptions};
    use threelc_tensor::{Shape, Tensor};

    /// Largest possible 3LC payload for `values` values: header plus the
    /// full quartic stream (zero-run encoding never expands).
    fn max_payload_len(values: usize) -> usize {
        WIRE_HEADER_LEN + quartic_len(values)
    }

    #[test]
    fn bounds_bracket_real_payloads() {
        for n in [1usize, 4, 5, 6, 100, 1000] {
            // Worst case: alternating signs never form zero runs.
            let dense: Vec<f32> = (0..n)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect();
            // Best case: all zeros collapse maximally.
            let sparse = vec![0.0f32; n];
            for data in [dense, sparse] {
                let t = Tensor::from_vec(data, [n]);
                let mut cx =
                    ThreeLcCompressor::new(Shape::new(&[n]), SparsityMultiplier::default());
                let wire = cx.compress(&t).expect("compress");
                assert!(wire.len() <= max_payload_len(n), "n={n}: {}", wire.len());
                assert!(wire.len() >= min_payload_len(n), "n={n}: {}", wire.len());
            }
        }
    }

    #[test]
    fn no_zre_payload_is_exactly_the_max() {
        let n = 777;
        let t = Tensor::from_vec(vec![0.0f32; n], [n]);
        let mut cx = ThreeLcCompressor::with_options(
            Shape::new(&[n]),
            ThreeLcOptions {
                sparsity: SparsityMultiplier::default(),
                zero_run_encoding: false,
                error_accumulation: false,
            },
        );
        assert_eq!(cx.compress(&t).expect("compress").len(), max_payload_len(n));
    }

    #[test]
    fn max_values_inverts_min_payload() {
        for n in [0usize, 1, 69, 70, 71, 12345] {
            assert!(max_values_for_payload(min_payload_len(n)) >= n, "n={n}");
        }
        // One byte of body cannot hold more than MAX_RUN escape-coded
        // quartic bytes' worth of values.
        assert_eq!(
            max_values_for_payload(WIRE_HEADER_LEN + 1),
            zrle::MAX_RUN * quartic::VALUES_PER_BYTE
        );
        // Truncated headers describe nothing.
        assert_eq!(max_values_for_payload(0), 0);
        assert_eq!(max_values_for_payload(WIRE_HEADER_LEN), 0);
    }

    #[test]
    fn absurd_lengths_saturate() {
        assert_eq!(max_values_for_payload(usize::MAX), usize::MAX);
    }
}
