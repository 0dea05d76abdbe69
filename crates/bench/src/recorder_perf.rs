//! Time-series recorder overhead measurement and its CI gate.
//!
//! The [`threelc_obs::RunRecorder`] folds one [`threelc_obs::WorkerDelta`]
//! per worker into the series store on every training step — on the
//! server's coordinator thread and inside the simulator's step loop — so
//! its cost must be invisible next to the step itself. [`measure`] times:
//!
//! - one `record_step` call over a realistic worker fan-in, in the
//!   steady state where raw windows wrap and buckets re-tier (the most
//!   expensive regime the recorder has),
//! - one [`RunSeries`](threelc_obs::RunSeries) snapshot (the cost a
//!   `threelc top` scrape imposes on the server),
//! - a full in-process cluster step (which itself records, so the
//!   denominator prices the real workload).
//!
//! The gated metric is `record_ns / static_step_ns`: the fraction of a
//! step the always-on recorder costs. Best-of-N measurements and the
//! calibration-scaling scheme from [`crate::harness`] keep the <2% gate out
//! of wall-clock-jitter territory, exactly as the policy gate does.

use crate::harness::{best_of, calibrate};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use threelc_baselines::SchemeKind;
use threelc_distsim::{Cluster, ExperimentConfig};
use threelc_obs::{RunRecorder, WorkerDelta};

/// Maximum fraction of a static step the recorder may cost.
pub const MAX_RECORDER_OVERHEAD: f64 = 0.02;
/// Allowed fractional slowdown of the `record_step` micro-benchmark
/// against the calibration-scaled baseline. The measured quantity is
/// sub-microsecond, where scheduler noise is proportionally large.
pub const MAX_RECORD_REGRESSION: f64 = 0.5;
/// Workers folded per `record_step` in the micro-benchmark.
pub const RECORD_WORKERS: usize = 8;
/// `record_step` calls folded into one timed sample.
const RECORD_BATCH: usize = 256;
/// Cluster steps folded into one timed sample.
const STEP_BATCH: usize = 4;
/// Steps recorded before timing starts, so raw windows have wrapped and
/// bucket re-tiering is part of every sample.
const WARM_STEPS: u64 = 512;

/// A recorder-overhead measurement run, as written to `BENCH_pr7.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecorderBenchReport {
    /// Hardware parallelism of the measuring host.
    pub host_cpus: usize,
    /// Nanoseconds for the fixed calibration workload on this host.
    pub calibration_ns: f64,
    /// Workers per `record_step` call in the micro-benchmark.
    pub workers: usize,
    /// Best-of-N nanoseconds for one steady-state `record_step` call
    /// over [`RecorderBenchReport::workers`] deltas.
    pub record_ns: f64,
    /// Best-of-N nanoseconds for one full store snapshot (the per-scrape
    /// cost a `threelc top` poll imposes).
    pub snapshot_ns: f64,
    /// Best-of-N nanoseconds for one cluster step, static policy.
    pub static_step_ns: f64,
    /// `record_ns / static_step_ns` — the gated metric.
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

fn delta(worker: usize, step: u64) -> WorkerDelta {
    WorkerDelta {
        worker,
        wire_bytes: 2048 + step % 97,
        ratio: 15.0 + (step % 7) as f64 * 0.1,
        residual_l2: 0.37,
        loss: 1.0 / (step + 1) as f64,
        multiplier: 1.0,
        rejoins: 0,
        step_seconds: 0.004,
        barrier_wait_seconds: 0.0,
    }
}

/// Best-of-N nanoseconds for one steady-state `record_step` call.
fn measure_record(reps: usize) -> f64 {
    let mut recorder = RunRecorder::new(RECORD_WORKERS);
    let mut step = 0u64;
    let mut deltas = vec![delta(0, 0); RECORD_WORKERS];
    let fold = |recorder: &mut RunRecorder, step: u64, deltas: &mut [WorkerDelta]| {
        for (w, d) in deltas.iter_mut().enumerate() {
            *d = delta(w, step);
        }
        recorder.record_step(step, deltas);
    };
    // Warm past the raw windows so every timed call exercises bucket
    // folding, not just cheap appends.
    while step < WARM_STEPS {
        fold(&mut recorder, step, &mut deltas);
        step += 1;
    }
    best_of(reps, || {
        for _ in 0..RECORD_BATCH {
            fold(&mut recorder, step, &mut deltas);
            step += 1;
        }
    }) / RECORD_BATCH as f64
}

/// Best-of-N nanoseconds for one full store snapshot after
/// [`WARM_STEPS`] of recording.
fn measure_snapshot(reps: usize) -> f64 {
    let mut recorder = RunRecorder::new(RECORD_WORKERS);
    let mut deltas = vec![delta(0, 0); RECORD_WORKERS];
    for step in 0..WARM_STEPS {
        for (w, d) in deltas.iter_mut().enumerate() {
            *d = delta(w, step);
        }
        recorder.record_step(step, &deltas);
    }
    best_of(reps, || {
        black_box(recorder.snapshot());
    })
}

/// Best-of-N nanoseconds for one step of a cluster running the bench
/// configuration (recording included — it is part of every real step).
fn measure_step(reps: usize) -> f64 {
    let mut cluster = Cluster::new(bench_config());
    cluster.step(); // warm-up
    best_of(reps, || {
        for _ in 0..STEP_BATCH {
            cluster.step();
        }
    }) / STEP_BATCH as f64
}

/// Measures the recorder micro-benchmarks and the cluster step, best of
/// `reps`.
pub fn measure(reps: usize) -> RecorderBenchReport {
    let record_ns = measure_record(reps);
    let snapshot_ns = measure_snapshot(reps);
    let static_step_ns = measure_step(reps);
    RecorderBenchReport {
        host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        calibration_ns: calibrate(reps),
        workers: RECORD_WORKERS,
        record_ns,
        snapshot_ns,
        static_step_ns,
        overhead: record_ns / static_step_ns,
    }
}

impl RecorderBenchReport {
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
            "record_step ({} workers) {:>10.0} ns/call",
            self.workers, self.record_ns
        );
        let _ = writeln!(out, "snapshot            {:>10.0} ns", self.snapshot_ns);
        let _ = writeln!(out, "step (static)       {:>10.0} ns", self.static_step_ns);
        let _ = writeln!(
            out,
            "recorder overhead   {:>10.3}% of a static step (gate < {:.0}%)",
            self.overhead * 100.0,
            MAX_RECORDER_OVERHEAD * 100.0
        );
        out
    }
}

/// Compares `current` against `baseline`: the recorder must stay under
/// [`MAX_RECORDER_OVERHEAD`] of a static step, and the `record_step`
/// micro-benchmark may be at most [`MAX_RECORD_REGRESSION`] slower than
/// the calibration-scaled baseline.
///
/// # Errors
///
/// Returns the concatenated violations (one per line) if any check
/// fails.
pub fn gate(
    current: &RecorderBenchReport,
    baseline: &RecorderBenchReport,
) -> Result<String, String> {
    let mut violations = Vec::new();
    if !current.overhead.is_finite() || current.overhead >= MAX_RECORDER_OVERHEAD {
        violations.push(format!(
            "recording costs {:.3}% of a static step, gate is {:.0}%",
            current.overhead * 100.0,
            MAX_RECORDER_OVERHEAD * 100.0
        ));
    }
    let scale = if current.calibration_ns > 0.0 && baseline.calibration_ns > 0.0 {
        current.calibration_ns / baseline.calibration_ns
    } else {
        1.0
    };
    if current.workers == baseline.workers {
        let allowed = baseline.record_ns * scale * (1.0 + MAX_RECORD_REGRESSION);
        if current.record_ns > allowed {
            violations.push(format!(
                "record_step/{} workers regressed: {:.0} ns/call vs allowed {:.0} (baseline {:.0} × host scale {:.2} × {:.0}%)",
                current.workers,
                current.record_ns,
                allowed,
                baseline.record_ns,
                scale,
                (1.0 + MAX_RECORD_REGRESSION) * 100.0
            ));
        }
    } else {
        violations.push(format!(
            "baseline measured {} workers per record_step, current measured {}",
            baseline.workers, current.workers
        ));
    }
    if violations.is_empty() {
        Ok(format!(
            "recorder bench gate passed: overhead {:.3}% < {:.0}%, record_step {:.0} ns/call",
            current.overhead * 100.0,
            MAX_RECORDER_OVERHEAD * 100.0,
            current.record_ns
        ))
    } else {
        Err(violations.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(overhead: f64, record_ns: f64) -> RecorderBenchReport {
        RecorderBenchReport {
            host_cpus: 4,
            calibration_ns: 1000.0,
            workers: RECORD_WORKERS,
            record_ns,
            snapshot_ns: 5000.0,
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
    fn gate_rejects_a_record_regression() {
        let slow = report(0.001, 5000.0);
        let err = gate(&slow, &report(0.001, 1000.0)).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn gate_rejects_mismatched_worker_counts() {
        let mut other = report(0.001, 1000.0);
        other.workers = 2;
        let err = gate(&report(0.001, 1000.0), &other).unwrap_err();
        assert!(err.contains("workers per record_step"), "{err}");
    }

    #[test]
    fn measurement_reports_a_tiny_overhead() {
        // One rep keeps this test cheap; the point is that the measured
        // pipeline holds together and the overhead lands far under the
        // gate even in a debug build.
        let r = measure(1);
        assert!(r.record_ns > 0.0);
        assert!(r.snapshot_ns > 0.0);
        assert!(r.static_step_ns > 0.0);
        assert!(
            r.overhead < MAX_RECORDER_OVERHEAD,
            "overhead {}",
            r.overhead
        );
        let rendered = r.render();
        assert!(rendered.contains("recorder overhead"), "{rendered}");
    }
}
