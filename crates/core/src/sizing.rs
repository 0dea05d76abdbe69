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
use std::ops::Range;

/// Bytes of the 3LC wire header: flags (u8), scale (f32 LE), count (u32 LE).
pub const WIRE_HEADER_LEN: usize = 9;

/// Header flag bit set when the body is zero-run encoded.
pub const WIRE_FLAG_ZRE: u8 = 0b0000_0001;

/// Bytes of quartic encoding for `values` ternary values (fixed-rate).
pub fn quartic_len(values: usize) -> usize {
    values.div_ceil(quartic::VALUES_PER_BYTE)
}

/// The element ranges quartic bytes `bytes` of a `values`-value tensor
/// carry, one per partition: with `L = quartic_len(values)`, range `j` is
/// `j·L + bytes.start .. j·L + bytes.end` clamped to `values` — the planes
/// the codec splits a tensor into, cut down to a strip of its bytes. The
/// last ranges are short or empty where the tensor ends inside them.
///
/// # Panics
///
/// Panics if `bytes` is reversed or reaches past `L`.
pub fn strip_planes(values: usize, bytes: Range<usize>) -> [Range<usize>; 5] {
    let len = quartic_len(values);
    assert!(
        bytes.start <= bytes.end && bytes.end <= len,
        "byte strip {bytes:?} outside the tensor's {len} quartic bytes"
    );
    std::array::from_fn(|j| {
        let at = |b: usize| (j * len + b).min(values);
        at(bytes.start)..at(bytes.end)
    })
}

/// Largest element count a payload of `payload_len` bytes could describe.
///
/// The inverse of the smallest payload for a count (header plus the
/// quartic stream with every zero run maximally collapsed): any claimed
/// count above this bound is malformed, no matter what the body holds. Saturates instead of
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

    /// Smallest possible 3LC payload for `values` values: header plus the
    /// quartic stream with every zero run maximally collapsed.
    fn min_payload_len(values: usize) -> usize {
        WIRE_HEADER_LEN + quartic_len(values).div_ceil(zrle::MAX_RUN)
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
    fn byte_strips_tile_the_tensor_plane_by_plane() {
        for n in [0usize, 1, 4, 5, 6, 11, 97, 1000, 10_007] {
            let len = quartic_len(n);
            for width in [1usize, 3, 7, 64, len.max(1)] {
                let mut covered = vec![0u8; n];
                let mut next = [0usize; 5];
                for start in (0..len).step_by(width) {
                    let strip = strip_planes(n, start..(start + width).min(len));
                    for (j, r) in strip.iter().enumerate() {
                        // Plane j's ranges run on from where its last
                        // strip stopped, inside plane j's own elements.
                        if !r.is_empty() {
                            assert_eq!(r.start, j * len + start, "n={n} width={width}");
                            assert_eq!(r.start, next[j].max(j * len), "n={n} width={width}");
                            next[j] = r.end;
                        }
                        assert!(r.end <= ((j + 1) * len).min(n), "n={n} width={width}");
                        covered[r.clone()].iter_mut().for_each(|c| *c += 1);
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "n={n} width={width}");
            }
        }
        assert_eq!(strip_planes(6, 1..2), [1..2, 3..4, 5..6, 6..6, 6..6]);
    }

    #[test]
    #[should_panic(expected = "outside the tensor")]
    fn a_strip_past_the_tensor_panics() {
        let _ = strip_planes(10, 1..3);
    }

    #[test]
    fn absurd_lengths_saturate() {
        assert_eq!(max_values_for_payload(usize::MAX), usize::MAX);
    }
}
