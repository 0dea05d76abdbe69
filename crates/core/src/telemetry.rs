//! Per-tensor compression telemetry.
//!
//! Every [`ThreeLcCompressor`](crate::ThreeLcCompressor) reports into the
//! process-global [`threelc_obs`] registry under the `threelc.*`
//! namespace. The histogram handles are resolved once at construction and
//! cached here, so the per-compress cost is a few relaxed atomic adds —
//! the registry's sharded lock is never touched on the hot path.
//!
//! Two probes are more expensive than a handful of atomics and therefore
//! only run when debug logging is enabled (`THREELC_LOG=debug`): the
//! error-accumulation L2 magnitude (an extra O(n) pass over the residual
//! buffer) and the zero-run-length histogram (one extra closure call per
//! run during zero-run encoding).

use crate::kernels::CodecImpl;
use std::sync::Arc;
use threelc_obs::{global, Counter, Histogram};

/// Cached handles to the global `threelc.*` compression metrics.
#[derive(Clone)]
pub struct CompressTelemetry {
    /// `threelc.compress.ratio` — float32 bytes in / wire bytes out.
    pub ratio: Arc<Histogram>,
    /// `threelc.compress.quartic_seconds` — time in quartic encoding
    /// (includes quantization of the accumulated buffer).
    pub quartic_seconds: Arc<Histogram>,
    /// `threelc.compress.zre_seconds` — time in zero-run encoding.
    pub zre_seconds: Arc<Histogram>,
    /// `threelc.decompress.seconds` — whole-payload decode time.
    pub decompress_seconds: Arc<Histogram>,
    /// `threelc.compress.zero_run_length` — lengths of the zero-byte runs
    /// the encoder replaced (split at the 14-byte escape maximum). Only
    /// recorded under `THREELC_LOG=debug`.
    pub zero_run_length: Arc<Histogram>,
    /// `threelc.compress.residual_l2` — L2 magnitude of the
    /// error-accumulation buffer after each compress. Only recorded under
    /// `THREELC_LOG=debug`.
    pub residual_l2: Arc<Histogram>,
    /// `threelc.codec.encode.{scalar,swar,simd}` — encode calls per codec
    /// implementation tier, indexed like [`CodecImpl::ALL`]. Makes the
    /// tier that actually ran attributable from any metrics dump, so a
    /// field host silently falling back to a slower tier shows up in
    /// telemetry rather than as an unexplained throughput regression.
    pub codec_encodes: [Arc<Counter>; 3],
}

impl CompressTelemetry {
    /// Handles into the process-global registry.
    pub fn from_global() -> Self {
        let reg = global();
        CompressTelemetry {
            ratio: reg.histogram("threelc.compress.ratio"),
            quartic_seconds: reg.histogram("threelc.compress.quartic_seconds"),
            zre_seconds: reg.histogram("threelc.compress.zre_seconds"),
            decompress_seconds: reg.histogram("threelc.decompress.seconds"),
            zero_run_length: reg.histogram("threelc.compress.zero_run_length"),
            residual_l2: reg.histogram("threelc.compress.residual_l2"),
            codec_encodes: [
                reg.counter("threelc.codec.encode.scalar"),
                reg.counter("threelc.codec.encode.swar"),
                reg.counter("threelc.codec.encode.simd"),
            ],
        }
    }

    /// Counts one encode on the given codec tier.
    pub fn record_encode(&self, imp: CodecImpl) {
        let idx = CodecImpl::ALL
            .iter()
            .position(|&i| i == imp)
            .expect("ALL covers every tier");
        self.codec_encodes[idx].inc();
    }
}

impl std::fmt::Debug for CompressTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The histograms are process-global aggregates; dumping their full
        // state from every compressor's Debug output would drown it.
        f.debug_struct("CompressTelemetry")
            .field("compress_count", &self.ratio.count())
            .finish()
    }
}

/// L2 norm of a slice, in one pass.
pub(crate) fn l2_norm(values: &[f32]) -> f64 {
    crate::kernels::sum_squares(values).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_global_resolves_shared_handles() {
        let a = CompressTelemetry::from_global();
        let b = CompressTelemetry::from_global();
        assert!(Arc::ptr_eq(&a.ratio, &b.ratio));
        let before = a.ratio.count();
        b.ratio.record(4.0);
        // Not `==`: the histogram is process-global and the compressor
        // tests running beside this one record into it too.
        assert!(a.ratio.count() > before);
    }

    #[test]
    fn debug_output_is_compact() {
        let t = CompressTelemetry::from_global();
        let s = format!("{t:?}");
        assert!(s.contains("CompressTelemetry"));
        assert!(!s.contains("buckets"), "must not dump histogram state: {s}");
    }

    #[test]
    fn l2_norm_matches_hand_computation() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(l2_norm(&[]), 0.0);
    }
}
