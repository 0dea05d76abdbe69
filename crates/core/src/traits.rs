//! The [`Compressor`] trait shared by 3LC and the baseline schemes.

use crate::kernels::DequantOp;
use crate::{CompressError, DecodeError};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use threelc_tensor::Tensor;

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
pub trait Compressor: Send {
    /// Human-readable scheme name as used in the paper's tables, e.g.
    /// `"3LC (s=1.00)"` or `"32-bit float"`.
    fn name(&self) -> String;

    /// Compresses one state-change tensor into a wire payload.
    ///
    /// # Errors
    ///
    /// Returns a [`CompressError`] if the tensor does not match the shape
    /// this context was created for, or contains non-finite values.
    fn compress(&mut self, input: &Tensor) -> Result<Vec<u8>, CompressError>;

    /// Lends this context's error-accumulation buffer to a producer that
    /// adds its next input straight into it — a weight gradient's GEMM,
    /// say — instead of storing the input for
    /// [`compress`](Self::compress) to add. The buffer comes back through
    /// [`compress_accumulator`](Self::compress_accumulator); until then the
    /// context holds none, and lent twice it lends a zeroed one (the first
    /// is the borrower's to return or lose).
    ///
    /// The default returns `None`: the scheme keeps no such buffer, and
    /// its producer stores the input and calls `compress`.
    fn take_accumulator(&mut self) -> Option<Tensor> {
        None
    }

    /// Encodes `accumulator` — the buffer
    /// [`take_accumulator`](Self::take_accumulator) lent, with this step's
    /// input added into it element by element — and keeps it: the payload
    /// and the buffer left behind are bit for bit what `compress(input)`
    /// would have produced. `max_abs` is the largest magnitude in
    /// `accumulator`, or a non-finite value if it holds one, as the
    /// producer folded it on its way through
    /// ([`Tensor::matmul_tn_add_into`], [`threelc_tensor::add_max_abs`]).
    /// Only a lent buffer comes back here: an input of a context that lends
    /// none goes to `compress`.
    ///
    /// # Errors
    ///
    /// As [`compress`](Self::compress), for the input the buffer was lent
    /// for.
    ///
    /// # Panics
    ///
    /// Panics if this context lends no accumulator — the default.
    fn compress_accumulator(
        &mut self,
        _accumulator: Tensor,
        _max_abs: f32,
    ) -> Result<Vec<u8>, CompressError> {
        panic!("{} lends no accumulator to take back", self.name())
    }

    /// Decompresses a wire payload produced by this context.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for any structurally malformed payload.
    fn decompress(&self, payload: &[u8]) -> Result<Tensor, DecodeError>;

    /// Decodes a wire payload straight into `out` under `op`:
    /// `out[e] = op(out[e], decompress(payload)[e])`, bit for bit, without
    /// the tensor in between. This is how a server sums the pushes it
    /// receives (first `Assign`, then `Add`, the average folded into the
    /// last) and how a worker adds a pull into its parameters.
    ///
    /// The default decodes densely and applies `op`; schemes that can do
    /// better (3LC never stores the symbols, `Float32` reads the floats
    /// off the wire) override it.
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
        let dense = self.decompress(payload)?;
        op.apply(dense.iter().copied(), out);
        Ok(())
    }

    /// The first half of [`decode_into`](Self::decode_into), for a caller
    /// that applies a payload strip by strip
    /// ([`decode_strip`](Self::decode_strip)): checks the whole payload and
    /// keeps what the strips read. 3LC checks the header, expands a
    /// zero-run-encoded body into this context's quartic scratch (a body
    /// without zero-run encoding is read in place) and scans it for invalid
    /// bytes. Returns exactly the [`DecodeError`]s `decode_into` returns
    /// for the same payload, first to last, so a payload that stages
    /// applies without error.
    ///
    /// A context that lends its accumulator
    /// ([`take_accumulator`](Self::take_accumulator)) must also stage: a
    /// parameter server adds the pushes it decodes into its pull
    /// context's lent accumulator one strip at a time.
    ///
    /// # Errors
    ///
    /// As [`decode_into`](Self::decode_into).
    ///
    /// # Panics
    ///
    /// Panics if this context does not stage — the default.
    fn stage(&self, _payload: &[u8]) -> Result<(), DecodeError> {
        panic!("{} stages no payload", self.name())
    }

    /// The second half: applies quartic bytes `bytes` of the payload this
    /// context last [`stage`](Self::stage)d — passed again as `payload` —
    /// to `planes` under `op`, where `planes[j]` holds the tensor's
    /// elements [`strip_planes`](crate::sizing::strip_planes)`(n, bytes)[j]`.
    /// Applying a staged payload strip by strip, over any partition of its
    /// bytes, is [`decode_into`](Self::decode_into) bit for bit. Another
    /// payload than the one staged yields unspecified values.
    ///
    /// # Panics
    ///
    /// Panics if this context does not stage — the default — or if
    /// `bytes` reaches past the payload's quartic bytes or a plane is
    /// longer than `bytes`.
    fn decode_strip(
        &self,
        _payload: &[u8],
        _bytes: Range<usize>,
        _op: DequantOp,
        _planes: &mut [&mut [f32]; 5],
    ) {
        panic!("{} stages no payload", self.name())
    }

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
    /// Exposed for tests and instrumentation; `None` for stateless schemes.
    fn residual(&self) -> Option<&Tensor> {
        None
    }

    /// The squared L2 norm of the residual buffer (0.0 for stateless
    /// schemes), as [`kernels::sum_squares`](crate::kernels::sum_squares)
    /// defines it. The telemetry watchdog sums it across a replica's
    /// contexts each step to track residual blowups. It is a pass of its
    /// own over every residual value — a quarter to a half of what the 3LC
    /// encode of the same tensor costs, not a free read. The simulator,
    /// `serve` and a rejoin replay report the result bit for bit alike, so
    /// the lane order of `sum_squares` is part of the cross-runtime
    /// contract: an implementation that sums its buffer any other way
    /// breaks it. Kept separate from [`residual`](Self::residual) so
    /// implementations can answer without materializing a tensor view.
    fn residual_sq(&self) -> f64 {
        self.residual()
            .map_or(0.0, |r| crate::kernels::sum_squares(r.as_slice()))
    }

    /// Whether [`compress`](Self::compress) records its own trace spans.
    /// A traced caller wraps a call into a scheme that does not in one
    /// `encode` span, so every codec call is covered once and none twice.
    /// The default is `false`; 3LC records `quantize` and `encode` for its
    /// phases and says `true`.
    fn records_spans(&self) -> bool {
        false
    }

    /// Changes the sparsity multiplier for **subsequent** `compress` calls
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
