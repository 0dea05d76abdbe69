//! Critical-path analyzer overhead measurement and its CI gate.
//!
//! `threelc analyze` runs [`threelc_obs::RunAnalysis::build`] once at the
//! end of a traced run (the server also embeds the result in its
//! `NetReport`), so the cost that matters is *per analyzed step*: merge
//! the node traces, tile every step's critical path, aggregate, and flag.
//! [`measure`] times:
//!
//! - one run-level analysis (timeline merge + per-step tiling) over a
//!   realistic three-lane trace, amortized per step,
//! - one text rendering of the result (the interactive `threelc analyze`
//!   hot path),
//! - a full in-process cluster step (the denominator pricing the real
//!   workload, exactly as the recorder gate does).
//!
//! The gated metric is `analyze_step_ns / static_step_ns`: the fraction
//! of one training step that analyzing one step costs. Best-of-N and the
//! calibration-scaling scheme from [`crate::harness`] keep the <2% gate out
//! of wall-clock-jitter territory.

use crate::harness::{best_of, calibrate};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use threelc_baselines::SchemeKind;
use threelc_distsim::{Cluster, ExperimentConfig};
use threelc_obs::trace::{NodeTrace, SpanRecord};
use threelc_obs::{AnalysisConfig, MergedTimeline, RunAnalysis, NO_WORKER};

/// Maximum fraction of a static step that analyzing one step may cost.
pub const MAX_ANALYZE_OVERHEAD: f64 = 0.02;
/// Allowed fractional slowdown of the per-step analysis against the
/// calibration-scaled baseline (the quantity is microseconds, where
/// scheduler noise is proportionally large).
pub const MAX_ANALYZE_REGRESSION: f64 = 0.5;
/// Steps in the synthetic trace the analyzer is timed over.
pub const TRACE_STEPS: u64 = 64;
/// Workers in the synthetic trace.
pub const TRACE_WORKERS: i64 = 4;
/// Cluster steps folded into one timed sample.
const STEP_BATCH: usize = 4;

/// An analyzer-overhead measurement run, as written to `BENCH_pr9.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeBenchReport {
    /// Hardware parallelism of the measuring host.
    pub host_cpus: usize,
    /// Nanoseconds for the fixed calibration workload on this host.
    pub calibration_ns: f64,
    /// Steps in the analyzed trace.
    pub steps: u64,
    /// Workers in the analyzed trace.
    pub workers: i64,
    /// Best-of-N nanoseconds to merge and analyze the whole trace,
    /// divided by [`AnalyzeBenchReport::steps`].
    pub analyze_step_ns: f64,
    /// Best-of-N nanoseconds to render the analysis as text.
    pub render_ns: f64,
    /// Best-of-N nanoseconds for one cluster step, static policy.
    pub static_step_ns: f64,
    /// `analyze_step_ns / static_step_ns` — the gated metric.
    pub overhead: f64,
}

/// The cluster priced as the denominator runs the same worker count as
/// the synthetic trace — the gate compares analyzing one step of an
/// N-worker run against stepping that same N-worker run.
fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        scheme: SchemeKind::three_lc(1.0),
        workers: TRACE_WORKERS as usize,
        batch_per_worker: 8,
        total_steps: u64::MAX, // stepped manually; never reached
        model_width: 64,
        model_blocks: 2,
        eval_every: 0,
        seed: 11,
        ..Default::default()
    }
}

fn rec(name: &str, node: &str, step: u64, worker: i64, start: u64, end: u64) -> SpanRecord {
    SpanRecord {
        trace: 1,
        span: (start ^ end ^ step).wrapping_mul(2).wrapping_add(1),
        parent: 0,
        name: name.into(),
        node: node.into(),
        step,
        worker,
        start_ns: start,
        end_ns: end,
    }
}

/// A realistic traced run: per step, every worker records its full
/// pipeline (compute → quantize → encode → serialize → network → pull)
/// and the server records per-worker recv_push/send_pull around its
/// serial decode → aggregate → re-encode chain — the span density the
/// networked runtime actually produces.
pub fn synthetic_trace(steps: u64, workers: i64) -> Vec<NodeTrace> {
    let mut nodes = Vec::new();
    let mut server = Vec::new();
    for step in 0..steps {
        let base = step * 2_000_000; // 2 ms steps
        for w in 0..workers {
            let jitter = (w as u64) * 11_000;
            server.push(rec(
                "recv_push",
                "server",
                step,
                w,
                base,
                base + 700_000 + jitter,
            ));
            server.push(rec(
                "send_pull",
                "server",
                step,
                w,
                base + 1_400_000,
                base + 1_450_000 + jitter,
            ));
        }
        server.push(rec(
            "barrier",
            "server",
            step,
            NO_WORKER,
            base,
            base + 760_000,
        ));
        server.push(rec(
            "server-decode",
            "server",
            step,
            NO_WORKER,
            base + 800_000,
            base + 1_000_000,
        ));
        server.push(rec(
            "aggregate",
            "server",
            step,
            NO_WORKER,
            base + 1_000_000,
            base + 1_200_000,
        ));
        server.push(rec(
            "re-encode",
            "server",
            step,
            NO_WORKER,
            base + 1_200_000,
            base + 1_400_000,
        ));
    }
    nodes.push(NodeTrace {
        clock: "server".into(),
        spans: server,
        dropped: 0,
    });
    for w in 0..workers {
        let lane = format!("worker{w}");
        let mut spans = Vec::new();
        for step in 0..steps {
            let base = step * 2_000_000;
            let jitter = (w as u64) * 11_000;
            let phases = [
                ("compute", 0u64, 300_000u64),
                ("quantize", 300_000, 400_000),
                ("encode", 400_000, 550_000),
                ("serialize", 550_000, 650_000),
                ("network", 650_000, 1_500_000 + jitter),
                ("pull", 1_500_000 + jitter, 1_700_000 + jitter),
            ];
            for (name, a, b) in phases {
                spans.push(rec(name, &lane, step, w, base + a, base + b));
            }
        }
        nodes.push(NodeTrace {
            clock: lane,
            spans,
            dropped: 0,
        });
    }
    nodes
}

/// Best-of-N nanoseconds for one full merge + analysis, per step.
fn measure_analyze(reps: usize) -> f64 {
    let nodes = synthetic_trace(TRACE_STEPS, TRACE_WORKERS);
    let cfg = AnalysisConfig::default();
    best_of(reps, || {
        let timeline = MergedTimeline::build(black_box(&nodes));
        black_box(RunAnalysis::build(&timeline, &cfg));
    }) / TRACE_STEPS as f64
}

/// Best-of-N nanoseconds to render the analysis as text.
fn measure_render(reps: usize) -> f64 {
    let nodes = synthetic_trace(TRACE_STEPS, TRACE_WORKERS);
    let analysis = RunAnalysis::build(&MergedTimeline::build(&nodes), &AnalysisConfig::default());
    best_of(reps, || {
        black_box(analysis.render_text(10));
    })
}

/// Best-of-N nanoseconds for one step of a cluster running the bench
/// configuration.
fn measure_step(reps: usize) -> f64 {
    let mut cluster = Cluster::new(bench_config());
    cluster.step(); // warm-up
    best_of(reps, || {
        for _ in 0..STEP_BATCH {
            cluster.step();
        }
    }) / STEP_BATCH as f64
}

/// Measures the analyzer micro-benchmarks and the cluster step, best of
/// `reps`.
pub fn measure(reps: usize) -> AnalyzeBenchReport {
    let analyze_step_ns = measure_analyze(reps);
    let render_ns = measure_render(reps);
    let static_step_ns = measure_step(reps);
    AnalyzeBenchReport {
        host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        calibration_ns: calibrate(reps),
        steps: TRACE_STEPS,
        workers: TRACE_WORKERS,
        analyze_step_ns,
        render_ns,
        static_step_ns,
        overhead: analyze_step_ns / static_step_ns,
    }
}

impl AnalyzeBenchReport {
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
            "analyze ({} steps × {} workers) {:>10.0} ns/step",
            self.steps, self.workers, self.analyze_step_ns
        );
        let _ = writeln!(out, "render_text         {:>10.0} ns", self.render_ns);
        let _ = writeln!(out, "step (static)       {:>10.0} ns", self.static_step_ns);
        let _ = writeln!(
            out,
            "analyzer overhead   {:>10.3}% of a static step (gate < {:.0}%)",
            self.overhead * 100.0,
            MAX_ANALYZE_OVERHEAD * 100.0
        );
        out
    }
}

/// Compares `current` against `baseline`: analyzing one step must stay
/// under [`MAX_ANALYZE_OVERHEAD`] of a static step, and the per-step
/// analysis may be at most [`MAX_ANALYZE_REGRESSION`] slower than the
/// calibration-scaled baseline.
///
/// # Errors
///
/// Returns the concatenated violations (one per line) if any check
/// fails.
pub fn gate(current: &AnalyzeBenchReport, baseline: &AnalyzeBenchReport) -> Result<String, String> {
    let mut violations = Vec::new();
    if !current.overhead.is_finite() || current.overhead >= MAX_ANALYZE_OVERHEAD {
        violations.push(format!(
            "analyzing one step costs {:.3}% of a static step, gate is {:.0}%",
            current.overhead * 100.0,
            MAX_ANALYZE_OVERHEAD * 100.0
        ));
    }
    let scale = if current.calibration_ns > 0.0 && baseline.calibration_ns > 0.0 {
        current.calibration_ns / baseline.calibration_ns
    } else {
        1.0
    };
    if (current.steps, current.workers) == (baseline.steps, baseline.workers) {
        let allowed = baseline.analyze_step_ns * scale * (1.0 + MAX_ANALYZE_REGRESSION);
        if current.analyze_step_ns > allowed {
            violations.push(format!(
                "analyze/{} steps regressed: {:.0} ns/step vs allowed {:.0} (baseline {:.0} × host scale {:.2} × {:.0}%)",
                current.steps,
                current.analyze_step_ns,
                allowed,
                baseline.analyze_step_ns,
                scale,
                (1.0 + MAX_ANALYZE_REGRESSION) * 100.0
            ));
        }
    } else {
        violations.push(format!(
            "baseline measured {} steps × {} workers, current measured {} × {}",
            baseline.steps, baseline.workers, current.steps, current.workers
        ));
    }
    if violations.is_empty() {
        Ok(format!(
            "analyze bench gate passed: overhead {:.3}% < {:.0}%, analyze {:.0} ns/step",
            current.overhead * 100.0,
            MAX_ANALYZE_OVERHEAD * 100.0,
            current.analyze_step_ns
        ))
    } else {
        Err(violations.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(overhead: f64, analyze_step_ns: f64) -> AnalyzeBenchReport {
        AnalyzeBenchReport {
            host_cpus: 4,
            calibration_ns: 1000.0,
            steps: TRACE_STEPS,
            workers: TRACE_WORKERS,
            analyze_step_ns,
            render_ns: 5000.0,
            static_step_ns: 1_000_000.0,
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
    fn gate_rejects_an_analyze_regression() {
        let slow = report(0.001, 5000.0);
        let err = gate(&slow, &report(0.001, 1000.0)).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn gate_rejects_mismatched_trace_shapes() {
        let mut other = report(0.001, 1000.0);
        other.steps = 8;
        let err = gate(&report(0.001, 1000.0), &other).unwrap_err();
        assert!(err.contains("steps ×"), "{err}");
    }

    #[test]
    fn synthetic_trace_analyzes_conserved_with_no_bottleneck() {
        // The trace the bench times must itself be a healthy run — the
        // numbers are meaningless if the analyzer bails out early.
        let nodes = synthetic_trace(TRACE_STEPS, TRACE_WORKERS);
        let a = RunAnalysis::build(&MergedTimeline::build(&nodes), &AnalysisConfig::default());
        assert_eq!(a.steps.len(), TRACE_STEPS as usize);
        assert!(a.conservation_error < 1e-9, "{}", a.conservation_error);
        assert!(a.bottlenecks.is_empty(), "{:?}", a.bottlenecks);
    }

    #[test]
    fn measurement_reports_a_tiny_overhead() {
        // One rep keeps this test cheap; the point is that the measured
        // pipeline holds together and the overhead lands far under the
        // gate even in a debug build.
        let r = measure(1);
        assert!(r.analyze_step_ns > 0.0);
        assert!(r.render_ns > 0.0);
        assert!(r.static_step_ns > 0.0);
        assert!(r.overhead < MAX_ANALYZE_OVERHEAD, "overhead {}", r.overhead);
        let rendered = r.render();
        assert!(rendered.contains("analyzer overhead"), "{rendered}");
    }
}
