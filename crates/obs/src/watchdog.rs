//! Telemetry anomaly watchdog: flags straggler workers, compression-ratio
//! drift, residual-L2 blowups, and rejoin-flapping nodes from a merged
//! timeline, per-step compression statistics, and transport fault events.
//!
//! The watchdog is deterministic and purely analytical — it looks at
//! collected data, never at live clocks — so the simulator and a TCP run
//! over the same data produce the same anomaly list.

use crate::timeline::MergedTimeline;
use crate::trace::NO_WORKER;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Detection thresholds, deliberately loose: the watchdog is a tripwire
/// for pathology (a 4× straggler, a 10× residual blowup), not a
/// micro-benchmark regression gate.
///
/// A worker's phase is a straggler when its duration exceeds this many
/// times the median duration of that phase across workers in the same
/// step (strictly greater; exactly k·median passes).
pub const STRAGGLER_K: f64 = 4.0;
/// Phases shorter than this (seconds) are never stragglers, however
/// skewed — guards against flagging microsecond noise.
pub const STRAGGLER_MIN_SECONDS: f64 = 0.005;
/// A step's compression ratio drifts when it falls below the median ratio
/// divided by this.
pub const RATIO_DRIFT_FACTOR: f64 = 2.0;
/// A step's residual L2 blows up when it exceeds this many times the
/// median residual.
pub const RESIDUAL_BLOWUP_FACTOR: f64 = 10.0;
/// A node is flapping when it rejoins at least this many times in one
/// run. One rejoin is recovery working as designed; repeated rejoins of
/// the same node point at a bad link or host.
pub const REJOIN_FLAP_COUNT: u64 = 3;

/// One detected anomaly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Anomaly {
    /// `straggler`, `ratio-drift`, or `residual-blowup`.
    pub kind: String,
    /// Step the anomaly occurred at.
    pub step: u64,
    /// Lane involved (stragglers), empty otherwise.
    #[serde(default)]
    pub node: String,
    /// Phase involved (stragglers), empty otherwise.
    #[serde(default)]
    pub phase: String,
    /// The observed value (seconds, ratio, or L2 norm).
    pub value: f64,
    /// The threshold the value crossed.
    pub threshold: f64,
    /// Human-readable summary.
    pub detail: String,
}

/// Per-step compression statistics the step-level checks consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Training step.
    pub step: u64,
    /// Compression ratio (raw bytes / compressed bytes); 0 when unknown.
    pub compression_ratio: f64,
    /// Residual (error-accumulation buffer) L2 norm; 0 when unknown.
    pub residual_l2: f64,
}

/// Phases excluded from straggler comparison. `network` and the barrier
/// spans mostly measure *waiting at the barrier*, which is longest for
/// the **fastest** worker — flagging it would invert the signal. `step`
/// envelopes are compared through their constituent phases instead.
const STRAGGLER_SKIP: [&str; 6] = [
    "network",
    "step",
    "recv_push",
    "send_pull",
    "barrier",
    "barrier-wait",
];

/// Flags worker phases that exceed `k` × the per-step cross-worker median
/// (lower-middle median, so with two workers the baseline is the faster
/// one). Requires at least two worker lanes per phase — a single worker
/// has no peers to lag behind.
pub fn check_timeline(timeline: &MergedTimeline) -> Vec<Anomaly> {
    // (step, phase) → per-(node,worker) total seconds.
    let mut groups: BTreeMap<(u64, String), BTreeMap<(String, i64), f64>> = BTreeMap::new();
    for s in &timeline.spans {
        if s.worker == NO_WORKER || STRAGGLER_SKIP.contains(&s.name.as_str()) {
            continue;
        }
        // Server-side phases carry the server lane name but a worker id;
        // group by the lane that did the work.
        *groups
            .entry((s.step, s.name.clone()))
            .or_default()
            .entry((s.node.clone(), s.worker))
            .or_insert(0.0) += s.dur_ns as f64 / 1e9;
    }

    let mut anomalies = Vec::new();
    for ((step, phase), lanes) in &groups {
        if lanes.len() < 2 {
            continue;
        }
        let mut durs: Vec<f64> = lanes.values().copied().collect();
        durs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let median = durs[(durs.len() - 1) / 2];
        let threshold = STRAGGLER_K * median;
        for ((node, worker), &dur) in lanes {
            if dur > threshold && dur > STRAGGLER_MIN_SECONDS {
                anomalies.push(Anomaly {
                    kind: "straggler".into(),
                    step: *step,
                    node: node.clone(),
                    phase: phase.clone(),
                    value: dur,
                    threshold,
                    detail: format!(
                        "step {step}: worker {worker} ({node}) spent {:.3} ms in {phase}, \
                         > {:.1}x the {:.3} ms median",
                        dur * 1e3,
                        STRAGGLER_K,
                        median * 1e3
                    ),
                });
            }
        }
    }
    anomalies
}

/// Flags compression-ratio drift and residual-L2 blowups against the
/// run's median (lower-middle). Steps with zero/unknown values are
/// excluded from both the baseline and the checks.
pub fn check_steps(stats: &[StepStats]) -> Vec<Anomaly> {
    let mut anomalies = Vec::new();

    let mut ratios: Vec<f64> = stats
        .iter()
        .map(|s| s.compression_ratio)
        .filter(|&r| r > 0.0)
        .collect();
    if ratios.len() >= 2 {
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let median = ratios[(ratios.len() - 1) / 2];
        let floor = median / RATIO_DRIFT_FACTOR;
        for s in stats {
            if s.compression_ratio > 0.0 && s.compression_ratio < floor {
                anomalies.push(Anomaly {
                    kind: "ratio-drift".into(),
                    step: s.step,
                    node: String::new(),
                    phase: String::new(),
                    value: s.compression_ratio,
                    threshold: floor,
                    detail: format!(
                        "step {}: compression ratio {:.2}x fell below {:.2}x \
                         (median {:.2}x / {:.1})",
                        s.step, s.compression_ratio, floor, median, RATIO_DRIFT_FACTOR
                    ),
                });
            }
        }
    }

    let mut residuals: Vec<f64> = stats
        .iter()
        .map(|s| s.residual_l2)
        .filter(|&r| r > 0.0)
        .collect();
    if residuals.len() >= 2 {
        residuals.sort_by(|a, b| a.partial_cmp(b).expect("residuals are finite"));
        let median = residuals[(residuals.len() - 1) / 2];
        let ceil = median * RESIDUAL_BLOWUP_FACTOR;
        for s in stats {
            if s.residual_l2 > ceil {
                anomalies.push(Anomaly {
                    kind: "residual-blowup".into(),
                    step: s.step,
                    node: String::new(),
                    phase: String::new(),
                    value: s.residual_l2,
                    threshold: ceil,
                    detail: format!(
                        "step {}: residual L2 {:.4} exceeded {:.4} \
                         ({:.1}x the {:.4} median)",
                        s.step, s.residual_l2, ceil, RESIDUAL_BLOWUP_FACTOR, median
                    ),
                });
            }
        }
    }

    anomalies.sort_by(|a, b| a.step.cmp(&b.step).then(a.kind.cmp(&b.kind)));
    anomalies
}

/// One server-visible fault during a run: a worker disconnect or a
/// successful rejoin. Written once, by the coordinator in `threelc-net`;
/// the run report's fault log, [`check_faults`] and a flight dump's
/// `fault-*` anomalies ([`crate::FlightDump::new`]) all read this record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Step the coordinator was at when the event happened.
    pub step: u64,
    /// Worker involved.
    pub worker: usize,
    /// `disconnect` or `rejoin`.
    pub kind: String,
    /// Human-readable cause (the handler error for disconnects).
    pub detail: String,
}

impl FaultEvent {
    /// The timeline lane of the worker involved (`worker3`).
    pub fn node(&self) -> String {
        format!("worker{}", self.worker)
    }
}

/// Flags nodes that rejoined at least [`REJOIN_FLAP_COUNT`] times — one
/// `rejoin-flap` anomaly per flapping node, anchored at its last rejoin
/// step.
pub fn check_faults(events: &[FaultEvent]) -> Vec<Anomaly> {
    let mut rejoins: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for e in events {
        if e.kind == "rejoin" {
            rejoins.entry(e.node()).or_default().push(e.step);
        }
    }
    let mut anomalies = Vec::new();
    for (node, steps) in rejoins {
        let count = steps.len() as u64;
        if count >= REJOIN_FLAP_COUNT {
            anomalies.push(Anomaly {
                kind: "rejoin-flap".into(),
                step: steps.iter().copied().max().unwrap_or(0),
                value: count as f64,
                threshold: REJOIN_FLAP_COUNT as f64,
                detail: format!(
                    "{node} rejoined {count} times (>= {REJOIN_FLAP_COUNT}); \
                     its link or host looks unhealthy"
                ),
                node,
                phase: String::new(),
            });
        }
    }
    anomalies
}

/// Flags stragglers from per-worker step-latency observations (the live
/// check `threelc top` runs on the `step_seconds` series): worker `i`
/// straggles when its latency exceeds [`STRAGGLER_K`] × the cross-worker
/// lower-middle median and the [`STRAGGLER_MIN_SECONDS`] floor. With fewer
/// than two workers there is no peer to lag behind, so nothing flags.
pub fn straggler_workers(seconds: &[f64]) -> Vec<bool> {
    if seconds.len() < 2 {
        return vec![false; seconds.len()];
    }
    let mut sorted = seconds.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let median = sorted[(sorted.len() - 1) / 2];
    let threshold = STRAGGLER_K * median;
    seconds
        .iter()
        .map(|&s| s > threshold && s > STRAGGLER_MIN_SECONDS)
        .collect()
}

/// Runs both the timeline and step-level checks.
pub fn check(timeline: &MergedTimeline, stats: &[StepStats]) -> Vec<Anomaly> {
    let mut anomalies = check_timeline(timeline);
    anomalies.extend(check_steps(stats));
    anomalies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::MergedTimeline;
    use crate::trace::{NodeTrace, SpanRecord};

    fn span(
        name: &str,
        node: &str,
        step: u64,
        worker: i64,
        start_ms: u64,
        dur_ms: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span: (step + 1) * 1000 + start_ms,
            parent: 0,
            name: name.into(),
            node: node.into(),
            step,
            worker,
            start_ns: start_ms * 1_000_000,
            end_ns: (start_ms + dur_ms) * 1_000_000,
        }
    }

    fn timeline_with(spans: Vec<SpanRecord>) -> MergedTimeline {
        MergedTimeline::build(&[NodeTrace {
            clock: "server".into(),
            spans,
            dropped: 0,
        }])
    }

    #[test]
    fn a_true_straggler_is_flagged() {
        // Three workers: two take 10 ms to encode, one takes 100 ms
        // (> 4 × 10 ms median and > 5 ms floor).
        let tl = timeline_with(vec![
            span("encode", "worker0", 1, 0, 0, 10),
            span("encode", "worker1", 1, 1, 0, 10),
            span("encode", "worker2", 1, 2, 0, 100),
        ]);
        let found = check_timeline(&tl);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, "straggler");
        assert_eq!(found[0].node, "worker2");
        assert_eq!(found[0].phase, "encode");
        assert_eq!(found[0].step, 1);
        assert!((found[0].value - 0.100).abs() < 1e-9);
    }

    #[test]
    fn exactly_k_times_median_is_not_a_straggler() {
        // The comparison is strict: 40 ms == 4 × 10 ms passes.
        let tl = timeline_with(vec![
            span("encode", "worker0", 0, 0, 0, 10),
            span("encode", "worker1", 0, 1, 0, 10),
            span("encode", "worker2", 0, 2, 0, 40),
        ]);
        assert!(check_timeline(&tl).is_empty());
    }

    #[test]
    fn sub_floor_skew_is_not_a_straggler() {
        // 100× skew, but 2 ms < the 5 ms floor.
        let tl = timeline_with(vec![
            span("quantize", "worker0", 0, 0, 0, 0),
            span("quantize", "worker1", 0, 1, 0, 2),
        ]);
        assert!(check_timeline(&tl).is_empty());
    }

    #[test]
    fn two_workers_use_the_faster_as_baseline() {
        // Lower-middle median of {10, 100} is 10: the slow worker of a
        // pair is still detectable.
        let tl = timeline_with(vec![
            span("compute", "worker0", 2, 0, 0, 10),
            span("compute", "worker1", 2, 1, 0, 100),
        ]);
        let found = check_timeline(&tl);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].node, "worker1");
    }

    #[test]
    fn barrier_like_phases_and_single_lanes_are_skipped() {
        let tl = timeline_with(vec![
            // network measures barrier waiting; never compared.
            span("network", "worker0", 0, 0, 0, 10),
            span("network", "worker1", 0, 1, 0, 500),
            // one lane only: no peers, no comparison.
            span("encode", "worker0", 0, 0, 0, 500),
        ]);
        assert!(check_timeline(&tl).is_empty());
    }

    #[test]
    fn ratio_drift_is_flagged_below_half_median() {
        let stats: Vec<StepStats> = (0..6)
            .map(|step| StepStats {
                step,
                compression_ratio: if step == 4 { 3.0 } else { 12.0 },
                residual_l2: 1.0,
            })
            .collect();
        let found = check_steps(&stats);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, "ratio-drift");
        assert_eq!(found[0].step, 4);
    }

    #[test]
    fn residual_blowup_is_flagged_above_ten_times_median() {
        let stats: Vec<StepStats> = (0..5)
            .map(|step| StepStats {
                step,
                compression_ratio: 10.0,
                residual_l2: if step == 3 { 25.0 } else { 2.0 },
            })
            .collect();
        let found = check_steps(&stats);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, "residual-blowup");
        assert_eq!(found[0].step, 3);
        assert!((found[0].value - 25.0).abs() < 1e-12);
    }

    #[test]
    fn healthy_runs_produce_no_anomalies() {
        let tl = timeline_with(vec![
            span("encode", "worker0", 0, 0, 0, 10),
            span("encode", "worker1", 0, 1, 0, 12),
        ]);
        let stats: Vec<StepStats> = (0..4)
            .map(|step| StepStats {
                step,
                compression_ratio: 12.0 + step as f64 * 0.1,
                residual_l2: 1.0 + step as f64 * 0.05,
            })
            .collect();
        assert!(check(&tl, &stats).is_empty());
    }

    #[test]
    fn rejoin_flap_needs_the_threshold_count() {
        let sample = |node: &str, step: u64, kind: &str| FaultEvent {
            step,
            worker: node["worker".len()..].parse().expect("worker lane"),
            kind: kind.into(),
            detail: String::new(),
        };
        // Two rejoins (threshold 3): recovery, not pathology.
        let calm = vec![
            sample("worker0", 2, "disconnect"),
            sample("worker0", 2, "rejoin"),
            sample("worker0", 5, "disconnect"),
            sample("worker0", 5, "rejoin"),
        ];
        assert!(check_faults(&calm).is_empty());
        // A third rejoin of the same node trips the flap check; another
        // node's single rejoin does not.
        let mut flappy = calm.clone();
        flappy.push(sample("worker0", 7, "rejoin"));
        flappy.push(sample("worker1", 4, "rejoin"));
        let found = check_faults(&flappy);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, "rejoin-flap");
        assert_eq!(found[0].node, "worker0");
        assert_eq!(found[0].step, 7);
        assert!((found[0].value - 3.0).abs() < 1e-12);
        // Disconnect-only samples (rejoin refused/failed) never flap.
        let lost = vec![
            sample("worker2", 1, "disconnect"),
            sample("worker2", 2, "disconnect"),
            sample("worker2", 3, "disconnect"),
        ];
        assert!(check_faults(&lost).is_empty());
    }

    #[test]
    fn anomaly_serde_roundtrip() {
        let a = Anomaly {
            kind: "straggler".into(),
            step: 7,
            node: "worker3".into(),
            phase: "encode".into(),
            value: 0.25,
            threshold: 0.04,
            detail: "slow".into(),
        };
        let json = serde_json::to_string(&a).expect("serialize");
        let back: Anomaly = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, a);
    }
}
