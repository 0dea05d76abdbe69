//! Policy-evaluation overhead measurement and its CI gate.
//!
//! The adaptive policy engine runs once per step on the server, so its
//! cost must be invisible next to the step itself. [`measure`] times
//! three things:
//!
//! - a pure [`threelc_policy::Policy::decide`] call over a synthetic many-tensor
//!   observation vector (the only new per-step work an adaptive run
//!   adds on the hot path),
//! - a full in-process cluster step with the default static policy,
//! - the same cluster step with a feedback policy.
//!
//! The gated metric is `decide_ns / static_step_ns`: the fraction of a
//! step an adaptive policy spends deciding. It is derived from two
//! best-of-N measurements instead of subtracting two noisy end-to-end
//! step times, because a <2% threshold would otherwise drown in
//! wall-clock jitter; the end-to-end feedback step time is still
//! recorded for eyeballing. Cross-host comparisons reuse the
//! calibration-scaling scheme from [`crate::harness`].

use crate::harness::{best_of, calibrate};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use threelc_baselines::SchemeKind;
use threelc_distsim::{Cluster, ExperimentConfig, PolicySpec};
use threelc_policy::TensorObs;

/// Maximum fraction of a static step the policy evaluation may cost.
pub const MAX_POLICY_OVERHEAD: f64 = 0.02;
/// Allowed fractional slowdown of the `decide` micro-benchmark against
/// the calibration-scaled baseline. Looser than the codec gate's 15%:
/// the measured quantity is microseconds, where scheduler noise is
/// proportionally larger.
pub const MAX_DECIDE_REGRESSION: f64 = 0.5;
/// Tensors per [`threelc_policy::Policy::decide`] call in the micro-benchmark —
/// deliberately far more than the cluster model below carries, so the
/// gated ratio overstates the real overhead.
pub const DECIDE_TENSORS: usize = 64;
/// `decide` calls folded into one timed sample, for stable nanoseconds.
const DECIDE_BATCH: usize = 256;
/// Cluster steps folded into one timed sample.
const STEP_BATCH: usize = 4;

/// A policy-overhead measurement run, as written to `BENCH_pr6.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyBenchReport {
    /// Hardware parallelism of the measuring host.
    pub host_cpus: usize,
    /// Nanoseconds for the fixed calibration workload on this host.
    pub calibration_ns: f64,
    /// Tensors per `decide` call in the micro-benchmark.
    pub tensors: usize,
    /// Best-of-N nanoseconds for one feedback `decide` call over
    /// [`PolicyBenchReport::tensors`] observations.
    pub decide_ns: f64,
    /// Best-of-N nanoseconds for one cluster step, static policy.
    pub static_step_ns: f64,
    /// Best-of-N nanoseconds for one cluster step, feedback policy.
    pub feedback_step_ns: f64,
    /// `decide_ns / static_step_ns` — the gated metric.
    pub overhead: f64,
}

fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        scheme: SchemeKind::three_lc(1.0),
        workers: 2,
        batch_per_worker: 8,
        total_steps: u64::MAX, // stepped manually; never reached
        model_width: 64,
        model_blocks: 2,
        eval_every: 0,
        seed: 11,
        ..Default::default()
    }
}

fn feedback_spec() -> PolicySpec {
    PolicySpec::parse("feedback:ratio=8,start=1.2,gain=0.05,hold=1").expect("spec parses")
}

/// Best-of-N nanoseconds for one `decide` call on a feedback policy fed
/// realistic telemetry, including the per-call decision-vector
/// allocation (that allocation is part of the real per-step cost).
fn measure_decide(reps: usize) -> f64 {
    let mut policy = feedback_spec()
        .build(DECIDE_TENSORS, threelc::SparsityMultiplier::default())
        .expect("spec builds");
    let obs = vec![
        TensorObs {
            values: 4096,
            wire_bytes: 2048,
            payloads: 2,
            residual_l2: 0.37,
        };
        DECIDE_TENSORS
    ];
    let mut step = 1u64;
    best_of(reps, || {
        for _ in 0..DECIDE_BATCH {
            black_box(policy.decide(black_box(step), black_box(&obs)));
            step += 1;
        }
    }) / DECIDE_BATCH as f64
}

/// Best-of-N nanoseconds for one step of a cluster running `config`.
/// The same cluster keeps stepping across reps — a feedback policy's
/// decisions drift over the run, which is exactly the workload being
/// priced.
fn measure_step(config: ExperimentConfig, reps: usize) -> f64 {
    let mut cluster = Cluster::new(config);
    cluster.step(); // warm-up
    best_of(reps, || {
        for _ in 0..STEP_BATCH {
            cluster.step();
        }
    }) / STEP_BATCH as f64
}

/// Measures the policy micro-benchmark and both cluster variants,
/// best of `reps`.
pub fn measure(reps: usize) -> PolicyBenchReport {
    let decide_ns = measure_decide(reps);
    let static_step_ns = measure_step(bench_config(), reps);
    let mut feedback = bench_config();
    feedback.policy = feedback_spec();
    let feedback_step_ns = measure_step(feedback, reps);
    PolicyBenchReport {
        host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        calibration_ns: calibrate(reps),
        tensors: DECIDE_TENSORS,
        decide_ns,
        static_step_ns,
        feedback_step_ns,
        overhead: decide_ns / static_step_ns,
    }
}

impl PolicyBenchReport {
    /// Human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "host_cpus {}  calibration {:.0} ns",
            self.host_cpus, self.calibration_ns
        );
        let _ = writeln!(
            out,
            "decide ({} tensors) {:>10.0} ns/call",
            self.tensors, self.decide_ns
        );
        let _ = writeln!(out, "step (static)      {:>10.0} ns", self.static_step_ns);
        let _ = writeln!(out, "step (feedback)    {:>10.0} ns", self.feedback_step_ns);
        let _ = writeln!(
            out,
            "policy overhead    {:>10.3}% of a static step (gate < {:.0}%)",
            self.overhead * 100.0,
            MAX_POLICY_OVERHEAD * 100.0
        );
        out
    }
}

/// Compares `current` against `baseline`: the policy-evaluation
/// overhead must stay under [`MAX_POLICY_OVERHEAD`] of a static step,
/// and the `decide` micro-benchmark may be at most
/// [`MAX_DECIDE_REGRESSION`] slower than the calibration-scaled
/// baseline.
///
/// # Errors
///
/// Returns the concatenated violations (one per line) if any check
/// fails.
pub fn gate(current: &PolicyBenchReport, baseline: &PolicyBenchReport) -> Result<String, String> {
    let mut violations = Vec::new();
    if !current.overhead.is_finite() || current.overhead >= MAX_POLICY_OVERHEAD {
        violations.push(format!(
            "policy evaluation costs {:.3}% of a static step, gate is {:.0}%",
            current.overhead * 100.0,
            MAX_POLICY_OVERHEAD * 100.0
        ));
    }
    let scale = if current.calibration_ns > 0.0 && baseline.calibration_ns > 0.0 {
        current.calibration_ns / baseline.calibration_ns
    } else {
        1.0
    };
    if current.tensors == baseline.tensors {
        let allowed = baseline.decide_ns * scale * (1.0 + MAX_DECIDE_REGRESSION);
        if current.decide_ns > allowed {
            violations.push(format!(
                "decide/{} tensors regressed: {:.0} ns/call vs allowed {:.0} (baseline {:.0} × host scale {:.2} × {:.0}%)",
                current.tensors,
                current.decide_ns,
                allowed,
                baseline.decide_ns,
                scale,
                (1.0 + MAX_DECIDE_REGRESSION) * 100.0
            ));
        }
    } else {
        violations.push(format!(
            "baseline measured {} tensors per decide, current measured {}",
            baseline.tensors, current.tensors
        ));
    }
    if violations.is_empty() {
        Ok(format!(
            "policy bench gate passed: overhead {:.3}% < {:.0}%, decide {:.0} ns/call",
            current.overhead * 100.0,
            MAX_POLICY_OVERHEAD * 100.0,
            current.decide_ns
        ))
    } else {
        Err(violations.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(overhead: f64, decide_ns: f64) -> PolicyBenchReport {
        PolicyBenchReport {
            host_cpus: 4,
            calibration_ns: 1000.0,
            tensors: DECIDE_TENSORS,
            decide_ns,
            static_step_ns: 1_000_000.0,
            feedback_step_ns: 1_001_000.0,
            overhead,
        }
    }

    #[test]
    fn gate_accepts_a_report_under_the_overhead_ceiling() {
        let r = report(0.001, 1000.0);
        let summary = gate(&r, &r).expect("identical reports pass");
        assert!(summary.contains("passed"), "{summary}");
    }

    #[test]
    fn gate_rejects_excess_overhead() {
        let bad = report(0.05, 1000.0);
        let err = gate(&bad, &report(0.001, 1000.0)).unwrap_err();
        assert!(err.contains("5.000%"), "{err}");
    }

    #[test]
    fn gate_rejects_a_decide_regression() {
        let slow = report(0.001, 5000.0);
        let err = gate(&slow, &report(0.001, 1000.0)).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn gate_rejects_mismatched_tensor_counts() {
        let mut other = report(0.001, 1000.0);
        other.tensors = 8;
        let err = gate(&report(0.001, 1000.0), &other).unwrap_err();
        assert!(err.contains("tensors per decide"), "{err}");
    }

    #[test]
    fn measurement_reports_a_tiny_overhead() {
        // One rep keeps this test cheap; the point is that the measured
        // pipeline holds together and the overhead lands far under the
        // gate even in a debug build.
        let r = measure(1);
        assert!(r.decide_ns > 0.0);
        assert!(r.static_step_ns > 0.0);
        assert!(r.feedback_step_ns > 0.0);
        assert!(r.overhead < MAX_POLICY_OVERHEAD, "overhead {}", r.overhead);
        let rendered = r.render();
        assert!(rendered.contains("policy overhead"), "{rendered}");
    }
}
