//! End-to-end experiment execution.

use crate::cluster::Cluster;
use crate::config::ExperimentConfig;
use crate::trace::{EvalRecord, TrainingTrace};
use serde::{Deserialize, Serialize};
use threelc_learning::Evaluation;

/// The complete outcome of one training run: configuration, final test
/// accuracy, and the per-step traffic trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// Human-readable scheme label (as used in the paper's tables).
    pub scheme_label: String,
    /// Model parameter count.
    pub model_params: u64,
    /// Final evaluation of the global model on the test set.
    pub final_eval: Evaluation,
    /// Per-step traffic/time records and periodic evaluations.
    pub trace: TrainingTrace,
}

impl ExperimentResult {
    /// Average compressed bits per state-change value over the run.
    pub fn bits_per_value(&self) -> f64 {
        self.trace
            .average_bits_per_value(self.config.workers as u64)
    }

    /// End-to-end compression ratio versus 32-bit floats.
    pub fn compression_ratio(&self) -> f64 {
        self.trace.compression_ratio(self.config.workers as u64)
    }
}

/// Runs one full training experiment.
///
/// Evaluates the global model every `config.eval_every` steps (if nonzero)
/// and always once more after the final step.
///
/// ```no_run
/// use threelc_baselines::SchemeKind;
/// use threelc_distsim::{run_experiment, ExperimentConfig};
///
/// let result = run_experiment(&ExperimentConfig::for_scheme(SchemeKind::three_lc(1.0)));
/// println!(
///     "accuracy {:.2}% at {:.1}x compression",
///     result.final_eval.accuracy * 100.0,
///     result.compression_ratio(),
/// );
/// ```
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentResult {
    let mut cluster = Cluster::new(*config);
    let mut trace = TrainingTrace::default();
    for step in 0..config.total_steps {
        trace.record_step(cluster.step());
        let due = config.eval_every > 0 && (step + 1) % config.eval_every == 0;
        if due && step + 1 < config.total_steps {
            trace.evals.push(EvalRecord {
                step: step + 1,
                eval: cluster.evaluate(),
            });
        }
    }
    let final_eval = cluster.evaluate();
    trace.evals.push(EvalRecord {
        step: config.total_steps,
        eval: final_eval,
    });
    trace.policy = cluster.policy_trace().clone();
    trace.tensors = cluster.tensor_traffic().to_vec();
    ExperimentResult {
        config: *config,
        scheme_label: config.scheme.label(),
        model_params: cluster.num_params(),
        final_eval,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_baselines::SchemeKind;

    fn quick(scheme: SchemeKind) -> ExperimentConfig {
        ExperimentConfig {
            scheme,
            workers: 2,
            batch_per_worker: 8,
            total_steps: 6,
            model_width: 16,
            model_blocks: 1,
            eval_every: 2,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn run_produces_complete_trace() {
        let r = run_experiment(&quick(SchemeKind::three_lc(1.0)));
        assert_eq!(r.trace.steps.len(), 6);
        // Evals at steps 2, 4, and the final 6.
        let steps: Vec<u64> = r.trace.evals.iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![2, 4, 6]);
        assert_eq!(r.trace.final_eval().unwrap().eval, r.final_eval);
        assert!(r.model_params > 0);
        assert_eq!(r.scheme_label, "3LC (s=1.00)");
    }

    #[test]
    fn three_lc_beats_baseline_on_slow_links() {
        // A slow link prices the compressed bytes; the step measured
        // through a paced link is `threelc-bench`'s `paced_link` test.
        let base = run_experiment(&quick(SchemeKind::Float32));
        let lc = run_experiment(&quick(SchemeKind::three_lc(1.0)));
        assert!(lc.trace.steps[0].push_bytes * 10 < base.trace.steps[0].push_bytes);
        assert!(lc.compression_ratio() > 10.0);
        assert!(lc.bits_per_value() < 3.2);
    }

    #[test]
    fn serde_roundtrip() {
        let r = run_experiment(&quick(SchemeKind::Int8));
        let json = serde_json::to_string(&r).unwrap();
        let back: ExperimentResult = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn adaptive_run_records_policy_decisions_in_the_trace() {
        let mut config = quick(SchemeKind::three_lc(1.0));
        config.policy =
            threelc_policy::PolicySpec::parse("feedback:ratio=10000,start=1.2,gain=0.05,hold=1")
                .unwrap();
        let r = run_experiment(&config);
        assert_eq!(
            r.trace.policy.label,
            "feedback:ratio=10000,start=1.2,gain=0.05,band=0.1,hold=1"
        );
        assert!(!r.trace.policy.records.is_empty());
        assert!(!r.trace.policy.is_constant());
        // And the section survives serialization.
        let json = serde_json::to_string(&r).unwrap();
        let back: ExperimentResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace.policy, r.trace.policy);
    }
}
