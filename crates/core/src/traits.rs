//! The [`Compressor`] trait shared by 3LC and the baseline schemes.

use crate::kernels::DequantOp;
use crate::{CompressError, DecodeError};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use threelc_tensor::{Shape, Tensor};

/// A point-to-point, per-tensor state-change compressor.
///
/// One `Compressor` instance owns the compression state (such as 3LC's
/// error-accumulation buffer) for **one** tensor — exactly the paper's
/// "compression context" (§3, Figure 2). Gradients pushed from a worker and
/// model deltas pulled from a server each get their own context.
///
/// Compression is stateful (`&mut self`); decompression is stateless
/// (`&self`), which is what allows the paper's *shared* pull compression —
/// a server compresses model deltas once and every worker decompresses the
/// same payload.
///
/// # Contract
///
/// - `decompress(compress(t))` yields a tensor of the same shape as `t`.
/// - Decoding never panics on malformed payloads; it returns a
///   [`DecodeError`].
/// - Lossy schemes may return a different tensor; schemes with error
///   accumulation must fold `t − decompress(compress(t))` into later calls.
/// - A design implements one encoder,
///   [`compress_accumulator`](Self::compress_accumulator);
///   [`compress`](Self::compress) is derived from it, so each refuses
///   exactly what the other does.
///
/// **Lending.** Every context lends the buffer its next input lands in
/// ([`take_accumulator`](Self::take_accumulator)) and names the fold that
/// lands it: [`DequantOp::Add`] into its error-accumulation buffer (3LC,
/// 1-bit, sparsification, local steps), [`DequantOp::Assign`] over a
/// scratch it owns (32-bit floats, 8-bit ints, stochastic ternary, 3LC
/// without error accumulation). The producer — a worker's backward pass, a
/// parameter server's sweep, or [`compress`](Self::compress) itself —
/// folds its input in and hands the buffer back to
/// [`compress_accumulator`](Self::compress_accumulator), which encodes it
/// and keeps it for the next step, so neither side holds a model-sized
/// buffer of its own.
///
/// **Staging.** Every context decodes in two halves:
/// [`stage`](Self::stage) checks a whole payload and keeps what its strips
/// read, then [`decode_strip`](Self::decode_strip) applies any strip of it
/// at a cost in proportion to the strip. [`decode_into`](Self::decode_into)
/// is the two over the whole tensor; a parameter server sums its pushes
/// strip by strip.
pub trait Compressor: Send {
    /// Human-readable scheme name as used in the paper's tables, e.g.
    /// `"3LC (s=1.00)"` or `"32-bit float"`.
    fn name(&self) -> String;

    /// The tensor shape this context is bound to.
    fn shape(&self) -> &Shape;

    /// Compresses one state-change tensor into a wire payload: the lend
    /// path with `input` as the producer. Refuses a wrongly shaped `input`
    /// before anything is lent, then folds it into the lent buffer under
    /// the lent op — [`threelc_tensor::add_max_abs`] under `Add`, a copy
    /// over the scratch under `Assign` — and hands the buffer to
    /// [`compress_accumulator`](Self::compress_accumulator).
    ///
    /// # Errors
    ///
    /// [`CompressError::ShapeMismatch`] if `input` does not match the
    /// context's shape; otherwise what `compress_accumulator` refuses for
    /// the folded buffer (such as [`CompressError::NonFiniteInput`]).
    fn compress(&mut self, input: &Tensor) -> Result<Vec<u8>, CompressError> {
        if input.shape() != self.shape() {
            return Err(CompressError::ShapeMismatch {
                expected: self.shape().dims().to_vec(),
                actual: input.shape().dims().to_vec(),
            });
        }
        let (mut acc, op) = self.take_accumulator();
        let max_abs = match op {
            DequantOp::Add => threelc_tensor::add_max_abs(acc.as_mut_slice(), input.as_slice()),
            op => {
                op.apply(input.iter().copied(), acc.as_mut_slice());
                f32::NAN
            }
        };
        self.compress_accumulator(acc, max_abs)
    }

    /// Lends the buffer this context's next input lands in, and the fold
    /// that lands it (see **Lending** above). Until the buffer comes back
    /// through [`compress_accumulator`](Self::compress_accumulator) the
    /// context holds none; lent twice, it lends a zeroed one.
    fn take_accumulator(&mut self) -> (Tensor, DequantOp);

    /// Encodes `accumulator` — the buffer
    /// [`take_accumulator`](Self::take_accumulator) lent, with this step's
    /// input folded in — and keeps it as the state the next step starts
    /// from. This is the design's one encoder. For an `Add` lend,
    /// `max_abs` is the largest magnitude in `accumulator`, or a non-finite
    /// value if it holds one, as the producer folded it on its way through
    /// ([`Tensor::matmul_tn_add_into`], [`threelc_tensor::add_max_abs`]);
    /// an `Assign` lend measures its input itself and does not read it.
    ///
    /// # Errors
    ///
    /// Returns a [`CompressError`] if `accumulator` does not match the
    /// shape this context was created for, or — for a design that refuses
    /// them — holds a non-finite value. A buffer of the right shape stays
    /// the context's after a refusal, non-finite values included.
    fn compress_accumulator(
        &mut self,
        accumulator: Tensor,
        max_abs: f32,
    ) -> Result<Vec<u8>, CompressError>;

    /// Decompresses a wire payload produced by this context: a zeroed
    /// tensor with the payload assigned over it
    /// ([`decode_into`](Self::decode_into)).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for any structurally malformed payload.
    fn decompress(&self, payload: &[u8]) -> Result<Tensor, DecodeError> {
        let mut out = Tensor::zeros(self.shape().clone());
        self.decode_into(payload, DequantOp::Assign, out.as_mut_slice())?;
        Ok(out)
    }

    /// Decodes a wire payload straight into `out` under `op`:
    /// `out[e] = op(out[e], decompress(payload)[e])`, bit for bit, without
    /// the tensor in between. This is how a worker adds a pull into its
    /// parameters. It is [`stage`](Self::stage) and one
    /// [`decode_strip`](Self::decode_strip) over every quartic byte.
    ///
    /// # Errors
    ///
    /// Exactly the [`DecodeError`]s [`decompress`](Self::decompress)
    /// reports for the same payload; `out` is untouched on error.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the context's element count.
    fn decode_into(
        &self,
        payload: &[u8],
        op: DequantOp,
        out: &mut [f32],
    ) -> Result<(), DecodeError> {
        assert_eq!(
            out.len(),
            self.shape().num_elements(),
            "output must match the context's element count"
        );
        self.stage(payload)?;
        let len = crate::sizing::quartic_len(out.len());
        let mut planes = crate::kernels::planes_mut(out, len);
        self.decode_strip(payload, 0..len, op, &mut planes);
        Ok(())
    }

    /// The first half of a decode (see **Staging** above): checks the whole
    /// payload and keeps what its strips read — 3LC its zero-run expansion
    /// (a body without zero-run encoding is read in place), sparsification
    /// where each block of its bitmap starts in the packed values. Returns
    /// exactly the [`DecodeError`]s [`decompress`](Self::decompress)
    /// returns for the same payload, so a payload that stages applies
    /// without error.
    ///
    /// # Errors
    ///
    /// As [`decompress`](Self::decompress).
    fn stage(&self, payload: &[u8]) -> Result<(), DecodeError>;

    /// The second half: applies quartic bytes `bytes` of the payload this
    /// context last [`stage`](Self::stage)d — passed again as `payload` —
    /// to `planes` under `op`, where `planes[j]` holds the tensor's
    /// elements [`strip_planes`](crate::sizing::strip_planes)`(n, bytes)[j]`.
    /// Every design cuts its tensor into 3LC's five quartic planes, whether
    /// its payload has a quartic form or not, so one sweep serves them all.
    /// Applying a staged payload strip by strip, over any partition of its
    /// bytes, is [`decode_into`](Self::decode_into) bit for bit, at a cost
    /// in proportion to the strip. Another payload than the one staged
    /// yields unspecified values.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` reaches past the tensor's quartic bytes or a
    /// plane's length is not its range's.
    fn decode_strip(
        &self,
        payload: &[u8],
        bytes: Range<usize>,
        op: DequantOp,
        planes: &mut [&mut [f32]; 5],
    );

    /// Decodes a wire payload to its raw quantization symbols, without
    /// materializing a `Tensor`.
    ///
    /// Schemes whose payloads are `symbols × scale` (3LC's ternary
    /// `{-1, 0, 1}`) write the symbols into `out` (resized to the tensor's
    /// element count) and return `Ok(Some(scale))`, such that
    /// `decompress(payload)[e] == out[e] as f32 * scale` bit for bit.
    /// Nothing in the runtime stores symbols any more
    /// ([`decode_into`](Self::decode_into) fuses them away); this is the
    /// two-pass oracle the fused decode is tested against, and what the
    /// step ledger's kernel replay times.
    ///
    /// The default returns `Ok(None)`: the scheme has no symbol form. `out`
    /// is unspecified after a `None` or error return.
    ///
    /// # Errors
    ///
    /// Exactly the [`DecodeError`]s `decompress` reports for the same
    /// payload, so callers can treat either entry point as the validator.
    fn decompress_symbols(
        &self,
        _payload: &[u8],
        _out: &mut Vec<i8>,
    ) -> Result<Option<f32>, DecodeError> {
        Ok(None)
    }

    /// The error-accumulation (residual) buffer, if this scheme keeps one.
    ///
    /// Exposed for tests and instrumentation; `None` for stateless schemes,
    /// and for an error-feedback scheme before its first lend (the buffer
    /// is allocated then) or while it is lent.
    fn residual(&self) -> Option<&Tensor> {
        None
    }

    /// The squared L2 norm of the residual buffer (0.0 for stateless
    /// schemes), as [`kernels::sum_squares`](crate::kernels::sum_squares)
    /// defines it. A replica sums it across its contexts each step for the
    /// step records' `residual_l2`. It is a pass of its own over every
    /// residual value — a quarter to a half of what the 3LC encode of the
    /// same tensor costs, not a free read. The simulator,
    /// `serve` and a rejoin replay report the result bit for bit alike, so
    /// the lane order of `sum_squares` is part of the cross-runtime
    /// contract: an implementation that sums its buffer any other way
    /// breaks it.
    fn residual_sq(&self) -> f64 {
        self.residual()
            .map_or(0.0, |r| crate::kernels::sum_squares(r.as_slice()))
    }

    /// Whether [`compress_accumulator`](Self::compress_accumulator)
    /// records its own trace spans.
    /// A traced caller wraps a call into a scheme that does not in one
    /// `encode` span, so every codec call is covered once and none twice.
    /// The default is `false`; 3LC records `quantize` and `encode` for its
    /// phases and says `true`.
    fn records_spans(&self) -> bool {
        false
    }

    /// Changes the sparsity multiplier for **subsequent** encodes
    /// without rebuilding the context (the error-accumulation buffer and
    /// every other piece of stream state survive).
    ///
    /// This is the mechanism behind adaptive compression policies: the
    /// multiplier can change per tensor per step. Decoding needs no
    /// matching call — the scale travels inside every payload, so
    /// `decompress` is unaffected by the encoder's current setting. The
    /// default is a no-op for schemes without a sparsity knob.
    fn set_sparsity(&mut self, _s: crate::SparsityMultiplier) {}
}

/// Running traffic statistics for a stream of compressed tensors.
///
/// Tracks exactly the quantities the paper's Table 2 and Figure 9 report:
/// the end-to-end compression ratio relative to 32-bit floats and the
/// average compressed bits per state-change value.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CompressionStats {
    /// Total state-change values compressed.
    pub values: u64,
    /// Total wire bytes produced.
    pub wire_bytes: u64,
    /// Number of tensors (payloads) compressed.
    pub payloads: u64,
}

impl CompressionStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one payload of `wire_bytes` bytes covering `values` values.
    pub fn record(&mut self, values: usize, wire_bytes: usize) {
        self.values += values as u64;
        self.wire_bytes += wire_bytes as u64;
        self.payloads += 1;
    }

    /// Merges another statistics record into this one.
    pub fn merge(&mut self, other: &CompressionStats) {
        self.values += other.values;
        self.wire_bytes += other.wire_bytes;
        self.payloads += other.payloads;
    }

    /// Average compressed bits per state-change value.
    pub fn bits_per_value(&self) -> f64 {
        if self.values == 0 {
            0.0
        } else {
            self.wire_bytes as f64 * 8.0 / self.values as f64
        }
    }

    /// End-to-end compression ratio versus 32-bit floats (higher is better).
    pub fn compression_ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            0.0
        } else {
            self.values as f64 * 4.0 / self.wire_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut s = CompressionStats::new();
        s.record(100, 10);
        s.record(100, 10);
        assert_eq!(s.values, 200);
        assert_eq!(s.wire_bytes, 20);
        assert_eq!(s.payloads, 2);
        assert!((s.bits_per_value() - 0.8).abs() < 1e-12);
        assert!((s.compression_ratio() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_is_zero() {
        let s = CompressionStats::new();
        assert_eq!(s.bits_per_value(), 0.0);
        assert_eq!(s.compression_ratio(), 0.0);
    }

    #[test]
    fn stats_merge() {
        let mut a = CompressionStats::new();
        a.record(10, 4);
        let mut b = CompressionStats::new();
        b.record(30, 4);
        a.merge(&b);
        assert_eq!(a.values, 40);
        assert_eq!(a.wire_bytes, 8);
        assert_eq!(a.payloads, 2);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _take(_: &mut dyn Compressor) {}
    }
}
