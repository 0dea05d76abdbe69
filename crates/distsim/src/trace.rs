//! Per-step training traces and derived traffic summaries.

use serde::{Deserialize, Serialize};
use threelc::CompressionStats;
use threelc_learning::Evaluation;

/// One training step's measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Step index (0-based).
    pub step: u64,
    /// Learning rate used.
    pub lr: f32,
    /// Mean training loss across workers.
    pub loss: f32,
    /// Compressed gradient-push bytes, summed over workers (compressible
    /// tensors only).
    pub push_bytes: u64,
    /// Compressed model-delta pull bytes, summed over workers.
    pub pull_bytes: u64,
    /// Uncompressed bytes for tensors excluded from compression (both
    /// directions, all workers).
    pub raw_bytes: u64,
    /// State-change values covered by compression, per direction per
    /// worker (i.e. the compressible parameter count).
    pub compressible_values: u64,
}

impl StepRecord {
    /// Compressed bits per state-change value for pushes this step
    /// (Figure 9's y-axis).
    pub fn push_bits_per_value(&self, workers: u64) -> f64 {
        if self.compressible_values == 0 {
            return 0.0;
        }
        self.push_bytes as f64 * 8.0 / (self.compressible_values * workers) as f64
    }

    /// Compressed bits per state-change value for pulls this step.
    pub fn pull_bits_per_value(&self, workers: u64) -> f64 {
        if self.compressible_values == 0 {
            return 0.0;
        }
        self.pull_bytes as f64 * 8.0 / (self.compressible_values * workers) as f64
    }
}

/// One parameter tensor's traffic over a run, as the server counted it:
/// every accepted push payload and every pull payload times the workers
/// that pull it. A raw tensor's payloads count at 32 bits/value and land
/// in the step records' `raw_bytes`; a compressed tensor's in
/// `push_bytes`/`pull_bytes`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TensorTraffic {
    /// Elements in the tensor.
    pub values: u64,
    /// Sent uncompressed (below the compression threshold).
    pub raw: bool,
    /// Push payloads.
    pub push: CompressionStats,
    /// Pull payloads.
    pub pull: CompressionStats,
}

/// A periodic test-set evaluation of the global model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Step at which the snapshot was taken (after that step's update).
    pub step: u64,
    /// Loss and top-1 accuracy on the held-out test set.
    pub eval: Evaluation,
}

/// The full per-step record of one training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingTrace {
    /// One record per training step, in order.
    pub steps: Vec<StepRecord>,
    /// Periodic test evaluations (always includes the final step when the
    /// run was produced by [`run_experiment`](crate::run_experiment)).
    pub evals: Vec<EvalRecord>,
    /// The compression-policy decision log: per step per tensor, the
    /// sparsity multiplier used, why, and the ratio it achieved. Empty
    /// records under a static policy and on old traces.
    #[serde(default)]
    pub policy: threelc_policy::PolicyTrace,
    /// Per-tensor traffic totals, in parameter order. Empty on old traces.
    #[serde(default)]
    pub tensors: Vec<TensorTraffic>,
}

impl TrainingTrace {
    /// Appends one step record. The record is the step's only copy: nothing
    /// is mirrored into the metrics registry.
    pub fn record_step(&mut self, rec: StepRecord) {
        self.steps.push(rec);
    }

    /// Total compressed+raw traffic in bytes over the run.
    pub fn total_bytes(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.push_bytes + s.pull_bytes + s.raw_bytes)
            .sum()
    }

    /// Average compressed bits per state-change value across the run,
    /// counting both directions (Table 2's right column).
    pub fn average_bits_per_value(&self, workers: u64) -> f64 {
        let bytes: u64 = self.steps.iter().map(|s| s.push_bytes + s.pull_bytes).sum();
        let values: u64 = self
            .steps
            .iter()
            .map(|s| s.compressible_values * workers * 2)
            .sum();
        if values == 0 {
            0.0
        } else {
            bytes as f64 * 8.0 / values as f64
        }
    }

    /// End-to-end compression ratio versus 32-bit floats (Table 2's left
    /// column).
    pub fn compression_ratio(&self, workers: u64) -> f64 {
        let b = self.average_bits_per_value(workers);
        if b == 0.0 {
            0.0
        } else {
            32.0 / b
        }
    }

    /// The last recorded evaluation, if any.
    pub fn final_eval(&self) -> Option<&EvalRecord> {
        self.evals.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(push: u64, pull: u64, raw: u64, values: u64) -> StepRecord {
        StepRecord {
            step: 0,
            lr: 0.1,
            loss: 1.0,
            push_bytes: push,
            pull_bytes: pull,
            raw_bytes: raw,
            compressible_values: values,
        }
    }

    #[test]
    fn bits_per_value() {
        // 10 workers, 100 values each, 1000 bytes pushed total
        // → 8000 bits / 1000 values = 8 bits/value.
        let r = record(1000, 500, 0, 100);
        assert_eq!(r.push_bits_per_value(10), 8.0);
        assert_eq!(r.pull_bits_per_value(10), 4.0);
    }

    #[test]
    fn trace_aggregates() {
        let trace = TrainingTrace {
            steps: vec![record(1000, 1000, 100, 100), record(3000, 1000, 100, 100)],
            ..Default::default()
        };
        assert_eq!(trace.total_bytes(), 6200);
        // bytes = 6000, values = 100·10·2·2 = 4000 → 12 bits/value.
        assert_eq!(trace.average_bits_per_value(10), 12.0);
        assert!((trace.compression_ratio(10) - 32.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let t = TrainingTrace::default();
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.average_bits_per_value(10), 0.0);
        assert!(t.final_eval().is_none());
    }

    #[test]
    fn record_step_appends_and_registers_nothing() {
        let mut trace = TrainingTrace::default();
        trace.record_step(record(1000, 500, 100, 100));
        assert_eq!(trace.steps, [record(1000, 500, 100, 100)]);
        let snap = threelc_obs::global().snapshot();
        let names = snap.counters.iter().map(|c| &c.name);
        let names: Vec<_> = names
            .chain(snap.histograms.iter().map(|h| &h.name))
            .collect();
        assert!(
            names.iter().all(|n| !n.starts_with("trace.")),
            "a step leaked into the registry: {names:?}"
        );
    }

    #[test]
    fn traces_without_a_policy_section_still_load() {
        // Traces serialized before the policy engine existed.
        let mut trace = TrainingTrace::default();
        trace.steps.push(record(1000, 500, 100, 100));
        let json = serde_json::to_string(&trace).unwrap();
        let stripped = json.replace(",\"policy\":{\"label\":\"\",\"records\":[]}", "");
        assert_ne!(stripped, json, "policy section must have been serialized");
        let back: TrainingTrace = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, trace);
        assert!(back.policy.records.is_empty());
    }
}
