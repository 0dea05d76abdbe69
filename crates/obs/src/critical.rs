//! Critical-path analysis: turns a clock-aligned span timeline into
//! causal blame — which `{node × phase}` actually gated each BSP step.
//!
//! # The ledger
//!
//! PR 4's [`MergedTimeline`] shows per-phase *durations*, but durations
//! don't answer "what would make the run faster": in a BSP step most
//! lanes overlap, and a worker that finishes early simply idles at the
//! barrier. This module reconstructs, per step, the dependency chain the
//! barrier semantics impose:
//!
//! ```text
//! straggler: compute → quantize → encode → serialize → network ─┐
//!                                              (last push in)   ▼
//! server:                      server-decode → aggregate → re-encode → send_pull ─┐
//!                                                                                 ▼
//! tail worker:                                                    network → pull ─ step end
//! ```
//!
//! and tiles the measured wall-clock interval `[first span start, last
//! span end]` with it, producing an ordered list of [`PathSegment`]s.
//! Because the segments *partition* the interval, the attribution is
//! conserved by construction: `Σ buckets == wall_seconds` exactly (the
//! per-step `conservation_error` in [`RunAnalysis`] is the computed
//! residual, a regression alarm for the tiler itself).
//!
//! # Blame rules
//!
//! - The **straggler** of a step is the worker whose push reached the
//!   server last (`recv_push` end order on the server clock; in the
//!   single-clock simulator, the worker whose encode chain finished
//!   last). Time every other worker spends blocked at the barrier is not
//!   charged to them — it is charged to the straggler, phase by phase.
//! - Time on the straggler's chain covered by none of its spans is
//!   charged to the straggler's **network** phase: from the server's
//!   vantage point, a worker whose push is late is indistinguishable
//!   from a slow wire. This is exactly what makes an injected
//!   `delay@N:MS` fault show up as that worker's network phase — the
//!   causal ground truth the CI gate checks.
//! - Server-side gaps (coordinator bookkeeping between the barrier
//!   closing and the pull broadcast) are charged to `server/other`
//!   rather than silently dropped.
//! - A configurable warmup prefix (default: the first step) is excluded
//!   from the run-level totals and flags: step 0's barrier waits out
//!   one-time worker startup, and that wait reads as a late push from
//!   whichever worker happened to arrive last — real wall time (the
//!   per-step ledger still shows it), but noise for steady-state blame.

use crate::timeline::{AlignedSpan, MergedTimeline};
use crate::trace::{NodeTrace, NO_WORKER};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Worker-local pipeline phases that can justify time before the barrier.
const WORK_PHASES: &[&str] = &["compute", "quantize", "encode", "serialize"];
/// Server phases between the barrier closing and the pull broadcast.
const SERVER_PHASES: &[&str] = &["server-decode", "aggregate", "re-encode"];
/// Every span name the analyzer consumes; anything else (envelope spans,
/// future phases) is ignored rather than misattributed.
const LEAF_PHASES: &[&str] = &[
    "compute",
    "quantize",
    "encode",
    "serialize",
    "network",
    "barrier-wait",
    "pull",
    "recv_push",
    "send_pull",
    "barrier",
    "server-decode",
    "aggregate",
    "re-encode",
];

/// Thresholds for flagging a worker as a run-level bottleneck.
///
/// A worker's critical network seconds must exceed this many times the
/// median worker's to be flagged, above an absolute floor, so jitter on a
/// fast loopback never trips it.
const BLAME_K: f64 = 4.0;
/// Absolute floor in seconds below which no bottleneck flag fires.
pub const BLAME_MIN_SECONDS: f64 = 0.1;
/// Leading steps excluded from the aggregated totals and the bottleneck
/// flags. Step 0's barrier genuinely waits out one-time worker
/// startup (process spawn, dataset derivation) and the blame lands on
/// whichever worker happened to arrive last — real time, but noise for
/// steady-state attribution. The per-step ledgers and the conservation
/// check still cover every step. Ignored when the run has no post-warmup
/// steps left.
const WARMUP_STEPS: usize = 1;

/// One `{node × phase}` attribution bucket (seconds of critical path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlameBucket {
    /// Lane charged (`worker1`, `server`, …).
    pub node: String,
    /// Phase charged (`network`, `encode`, `other`, …).
    pub phase: String,
    /// Critical-path seconds attributed to this bucket.
    pub seconds: f64,
}

/// One tile of a step's critical path on the aligned axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathSegment {
    /// Lane charged.
    pub node: String,
    /// Phase charged.
    pub phase: String,
    /// Worker the segment concerns, or [`NO_WORKER`].
    pub worker: i64,
    /// Start on the merged axis, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// One step's critical path and conserved attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepAnalysis {
    /// Training step.
    pub step: u64,
    /// Measured step wall-clock: last span end − first span start on the
    /// aligned axis, seconds.
    pub wall_seconds: f64,
    /// The critical path, ordered, tiling the wall interval exactly.
    pub path: Vec<PathSegment>,
    /// `path` folded by `{node × phase}`, descending seconds.
    pub buckets: Vec<BlameBucket>,
}

/// A flagged run-level bottleneck: one worker's network phase dominates
/// the critical path the way an injected delay would.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bottleneck {
    /// Lane flagged.
    pub node: String,
    /// Phase flagged (currently always `network`).
    pub phase: String,
    /// Critical-path seconds attributed.
    pub seconds: f64,
    /// Fraction of the run's total wall time.
    pub share: f64,
    /// Human-readable verdict.
    pub detail: String,
}

/// One row of the per-tensor view: what a parameter tensor costs on the
/// wire (the run's traffic counts) and in worker codec time (the spans a
/// worker tags with it, [`crate::trace::set_tensor`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorRow {
    /// Parameter index.
    pub tensor: usize,
    /// Elements in the tensor.
    pub values: u64,
    /// Sent uncompressed: 32 bits/value both ways.
    pub raw: bool,
    /// Push wire bits per pushed value.
    pub push_bits_per_value: f64,
    /// Pull wire bits per pulled value.
    pub pull_bits_per_value: f64,
    /// The tensor's push + pull wire bytes over the run's.
    pub wire_share: f64,
    /// Worker codec µs per worker step, from its tagged spans.
    pub codec_us_per_step: f64,
}

/// Worker codec µs per worker step — a (lane, step) pair with spans —
/// from `nodes`: every worker-lane `quantize`/`encode` span's time, by the
/// tensor it is tagged with. A span without a tag is left out: the runtime
/// tags every one, but an older report carries the retired residual
/// readout's.
pub fn codec_us_per_step(nodes: &[NodeTrace]) -> Vec<f64> {
    let spans = (nodes.iter().flat_map(|n| &n.spans)).filter(|s| s.node.starts_with("worker"));
    let worker_steps: BTreeSet<_> = spans.clone().map(|s| (s.node.as_str(), s.step)).collect();
    let mut by_tensor = Vec::new();
    for s in spans.filter(|s| s.name == "quantize" || s.name == "encode") {
        let Ok(t) = usize::try_from(s.tensor) else {
            continue;
        };
        if by_tensor.len() <= t {
            by_tensor.resize(t + 1, 0.0);
        }
        by_tensor[t] += s.seconds() * 1e6 / worker_steps.len() as f64;
    }
    by_tensor
}

/// The run-level analysis: per-step ledgers, aggregated blame, flagged
/// bottlenecks and the per-tensor view. `threelc
/// analyze` builds it from a traced run's spans.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunAnalysis {
    /// Per-step critical paths, ascending step.
    pub steps: Vec<StepAnalysis>,
    /// Leading steps excluded from `totals`/`bottlenecks`
    /// (one, the constant `WARMUP_STEPS`); `steps` still lists them.
    #[serde(default)]
    pub warmup_steps: usize,
    /// Σ of per-step wall seconds over the measured (post-warmup) steps.
    pub total_wall_seconds: f64,
    /// Per-step buckets summed over the measured steps, descending
    /// seconds.
    pub totals: Vec<BlameBucket>,
    /// Flagged bottlenecks (empty on a healthy run).
    pub bottlenecks: Vec<Bottleneck>,
    /// Max over steps of `|Σ buckets − wall| / wall` — the conservation
    /// residual. Zero up to float rounding unless the tiler has a bug.
    pub conservation_error: f64,
    /// The per-tensor view, by descending wire bytes; empty unless the
    /// source carried the run's per-tensor traffic.
    #[serde(default)]
    pub tensors: Vec<TensorRow>,
    /// The run's bits per value over every payload byte, raw tensors at
    /// 32, which ends the per-tensor view; 0 where it has none.
    #[serde(default)]
    pub payload_bits_per_value: f64,
}

/// A tiling candidate: a clipped span with a priority class (lower wins).
struct Cand<'a> {
    prio: u8,
    start: u64,
    end: u64,
    node: &'a str,
    phase: &'a str,
    worker: i64,
}

/// Tiles `[a, b)` with the highest-priority candidate active at each
/// instant; uncovered time becomes `gap_*` segments. Appends to `out` in
/// time order. Within one priority class, the earlier-starting (then
/// longer) candidate wins.
fn tile(a: u64, b: u64, cands: &[Cand], gap: (&str, &str, i64), out: &mut Vec<PathSegment>) {
    let mut cursor = a;
    while cursor < b {
        let best = cands
            .iter()
            .filter(|c| c.start <= cursor && c.end > cursor)
            .min_by(|x, y| {
                x.prio
                    .cmp(&y.prio)
                    .then(x.start.cmp(&y.start))
                    .then(y.end.cmp(&x.end))
                    .then(x.node.cmp(y.node))
            });
        match best {
            Some(c) => {
                // A strictly higher-priority candidate starting mid-span
                // preempts it.
                let mut end = c.end.min(b);
                for p in cands.iter().filter(|p| p.prio < c.prio) {
                    if p.start > cursor && p.start < end {
                        end = p.start;
                    }
                }
                push_segment(out, c.node, c.phase, c.worker, cursor, end);
                cursor = end;
            }
            None => {
                let next = cands
                    .iter()
                    .map(|c| c.start)
                    .filter(|&s| s > cursor)
                    .min()
                    .unwrap_or(b)
                    .min(b);
                push_segment(out, gap.0, gap.1, gap.2, cursor, next);
                cursor = next;
            }
        }
    }
}

/// Appends a segment, merging into the previous one when node and phase
/// match (keeps per-tensor quantize/encode bursts as one tile).
fn push_segment(out: &mut Vec<PathSegment>, node: &str, phase: &str, worker: i64, a: u64, b: u64) {
    if b <= a {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.node == node && last.phase == phase && last.start_ns + last.dur_ns == a {
            last.dur_ns += b - a;
            return;
        }
    }
    out.push(PathSegment {
        node: node.to_string(),
        phase: phase.to_string(),
        worker,
        start_ns: a,
        dur_ns: b - a,
    });
}

fn span_end(s: &AlignedSpan) -> u64 {
    s.start_ns + s.dur_ns
}

/// Analyzes one step's leaf spans into a conserved critical path.
fn analyze_step(step: u64, spans: &[&AlignedSpan]) -> Option<StepAnalysis> {
    let leafs: Vec<&AlignedSpan> = spans
        .iter()
        .copied()
        .filter(|s| LEAF_PHASES.contains(&s.name.as_str()))
        .collect();
    if leafs.is_empty() {
        return None;
    }
    let t0 = leafs.iter().map(|s| s.start_ns).min().expect("non-empty");
    let t1 = leafs.iter().map(|s| span_end(s)).max().expect("non-empty");
    if t1 <= t0 {
        return None;
    }

    // Barrier close: when the last push was fully received. Networked
    // runs have per-worker recv_push spans; the coordinator's barrier
    // span is the fallback; the simulator (no barrier spans at all)
    // closes when the first server phase starts.
    let mut recv_end: BTreeMap<i64, u64> = BTreeMap::new();
    for s in leafs.iter().filter(|s| s.name == "recv_push") {
        if s.worker != NO_WORKER {
            let e = recv_end.entry(s.worker).or_insert(0);
            *e = (*e).max(span_end(s));
        }
    }
    let server_start = leafs
        .iter()
        .filter(|s| SERVER_PHASES.contains(&s.name.as_str()))
        .map(|s| s.start_ns)
        .min();
    let t_bar = recv_end
        .values()
        .copied()
        .max()
        .or_else(|| {
            leafs
                .iter()
                .filter(|s| s.name == "barrier")
                .map(|s| span_end(s))
                .max()
        })
        .or(server_start)
        .unwrap_or(t1)
        .clamp(t0, t1);

    // The straggler: last push in; in the simulator, the worker whose
    // local encode chain finished last.
    let straggler: Option<i64> = recv_end
        .iter()
        .max_by_key(|(w, e)| (**e, **w))
        .map(|(w, _)| *w)
        .or_else(|| {
            leafs
                .iter()
                .filter(|s| s.worker != NO_WORKER && WORK_PHASES.contains(&s.name.as_str()))
                .max_by_key(|s| (span_end(s), s.worker))
                .map(|s| s.worker)
        });
    let straggler_lane = straggler.map(|w| format!("worker{w}"));

    // The tail worker: last pull applied (the step's true end on any
    // lane that records pulls).
    let tail: Option<i64> = leafs
        .iter()
        .filter(|s| s.name == "pull" && s.worker != NO_WORKER)
        .max_by_key(|s| (span_end(s), s.worker))
        .map(|s| s.worker);
    let tail_lane = tail.map(|w| format!("worker{w}"));

    // Pull broadcast done: the tail worker's send_pull end when known.
    let q = leafs
        .iter()
        .filter(|s| s.name == "send_pull" && (tail.is_none() || Some(s.worker) == tail))
        .map(|s| span_end(s))
        .max()
        .or_else(|| {
            leafs
                .iter()
                .filter(|s| SERVER_PHASES.contains(&s.name.as_str()))
                .map(|s| span_end(s))
                .max()
        })
        .unwrap_or(t_bar)
        .clamp(t_bar, t1);

    let mut path = Vec::new();

    // Stage 1 — [t0, t_bar]: the straggler's pipeline explains the time
    // to the barrier; its uncovered time reads as "network" (a late push
    // and a slow wire are the same thing from the server). Other
    // workers' *work* phases may fill instants the straggler's lane
    // can't (the serial simulator), but never their network spans —
    // those are barrier idling by definition.
    {
        let mut cands: Vec<Cand> = Vec::new();
        for s in &leafs {
            if s.worker == NO_WORKER {
                continue;
            }
            let own = Some(s.worker) == straggler;
            let work = WORK_PHASES.contains(&s.name.as_str());
            if work || (own && s.name == "network") {
                cands.push(Cand {
                    prio: if own { 0 } else { 1 },
                    start: s.start_ns,
                    end: span_end(s).min(t_bar),
                    node: &s.node,
                    phase: &s.name,
                    worker: s.worker,
                });
            }
        }
        let gap = match (&straggler_lane, straggler) {
            (Some(lane), Some(w)) => (lane.as_str(), "network", w),
            _ => ("server", "other", NO_WORKER),
        };
        tile(t0, t_bar, &cands, gap, &mut path);
    }

    // Stage 2 — [t_bar, q]: the server's serial decode → aggregate →
    // re-encode chain, then the pull broadcast writes.
    {
        let mut cands: Vec<Cand> = Vec::new();
        for s in &leafs {
            let prio = if SERVER_PHASES.contains(&s.name.as_str()) {
                0
            } else if s.name == "send_pull" {
                1
            } else {
                continue;
            };
            cands.push(Cand {
                prio,
                start: s.start_ns.max(t_bar),
                end: span_end(s).min(q),
                node: &s.node,
                phase: &s.name,
                worker: s.worker,
            });
        }
        tile(t_bar, q, &cands, ("server", "other", NO_WORKER), &mut path);
    }

    // Stage 3 — [q, t1]: the tail worker's pull delivery and decode;
    // transit before its pull span starts reads as network.
    {
        let mut cands: Vec<Cand> = Vec::new();
        for s in &leafs {
            if s.worker == NO_WORKER {
                continue;
            }
            let own = Some(s.worker) == tail;
            if s.name == "pull" || (own && s.name == "network") {
                cands.push(Cand {
                    prio: if own { 0 } else { 1 },
                    start: s.start_ns.max(q),
                    end: span_end(s),
                    node: &s.node,
                    phase: &s.name,
                    worker: s.worker,
                });
            }
        }
        let gap = match (&tail_lane, tail) {
            (Some(lane), Some(w)) => (lane.as_str(), "network", w),
            _ => ("server", "other", NO_WORKER),
        };
        tile(q, t1, &cands, gap, &mut path);
    }

    // Fold on borrowed keys: segments repeat few distinct {node × phase}
    // pairs, so cloning per segment would be pure allocator churn on the
    // analyze hot path.
    let mut folded: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for seg in &path {
        *folded
            .entry((seg.node.as_str(), seg.phase.as_str()))
            .or_insert(0.0) += seg.dur_ns as f64 / 1e9;
    }
    let mut buckets: Vec<BlameBucket> = folded
        .into_iter()
        .map(|((node, phase), seconds)| BlameBucket {
            node: node.to_string(),
            phase: phase.to_string(),
            seconds,
        })
        .collect();
    sort_buckets(&mut buckets);

    Some(StepAnalysis {
        step,
        wall_seconds: (t1 - t0) as f64 / 1e9,
        path,
        buckets,
    })
}

/// Descending seconds, name-tiebroken, so `totals[0]` is *the* blame.
fn sort_buckets(buckets: &mut [BlameBucket]) {
    buckets.sort_by(|a, b| {
        b.seconds
            .partial_cmp(&a.seconds)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.node.cmp(&b.node))
            .then(a.phase.cmp(&b.phase))
    });
}

impl RunAnalysis {
    /// Builds the full run analysis from a merged timeline.
    ///
    /// When ring buffers dropped spans, each node's buffer holds a suffix
    /// of its records, cut at a different step: the oldest surviving steps
    /// miss whole lanes (and the cut step the head of one), and their blame
    /// would land on whichever lanes are left. The analysis then starts at
    /// the first step every lane holds whole — one past the latest lane's
    /// oldest step.
    pub fn build(timeline: &MergedTimeline) -> RunAnalysis {
        let mut first = 0;
        if timeline.dropped > 0 {
            let mut oldest: BTreeMap<&str, u64> = BTreeMap::new();
            for s in &timeline.spans {
                let e = oldest.entry(s.node.as_str()).or_insert(s.step);
                *e = (*e).min(s.step);
            }
            first = oldest.values().max().map_or(0, |&step| step + 1);
        }
        let mut by_step: BTreeMap<u64, Vec<&AlignedSpan>> = BTreeMap::new();
        for s in timeline.spans.iter().filter(|s| s.step >= first) {
            by_step.entry(s.step).or_default().push(s);
        }
        let steps: Vec<StepAnalysis> = by_step
            .iter()
            .filter_map(|(&step, spans)| analyze_step(step, spans))
            .collect();

        // Conservation is a tiler invariant, so it covers every step;
        // the aggregates skip the warmup prefix (when any steps remain).
        let warmup = if steps.len() > WARMUP_STEPS {
            WARMUP_STEPS
        } else {
            0
        };
        let mut totals_map: BTreeMap<(&str, &str), f64> = BTreeMap::new();
        let mut total_wall = 0.0f64;
        let mut conservation_error = 0.0f64;
        for (i, st) in steps.iter().enumerate() {
            let sum: f64 = st.buckets.iter().map(|b| b.seconds).sum();
            if st.wall_seconds > 0.0 {
                conservation_error =
                    conservation_error.max((sum - st.wall_seconds).abs() / st.wall_seconds);
            }
            if i < warmup {
                continue;
            }
            total_wall += st.wall_seconds;
            for b in &st.buckets {
                *totals_map
                    .entry((b.node.as_str(), b.phase.as_str()))
                    .or_insert(0.0) += b.seconds;
            }
        }
        let mut totals: Vec<BlameBucket> = totals_map
            .into_iter()
            .map(|((node, phase), seconds)| BlameBucket {
                node: node.to_string(),
                phase: phase.to_string(),
                seconds,
            })
            .collect();
        sort_buckets(&mut totals);

        let bottlenecks = flag_bottlenecks(&timeline.spans, &totals, total_wall);

        RunAnalysis {
            steps,
            warmup_steps: warmup,
            total_wall_seconds: total_wall,
            totals,
            bottlenecks,
            conservation_error,
            ..RunAnalysis::default()
        }
    }

    /// The single largest `{node × phase}` critical-path contributor.
    pub fn top(&self) -> Option<&BlameBucket> {
        self.totals.first()
    }

    /// Terminal rendering: aggregated blame, per-step top contributors
    /// (capped at `max_steps`, 0 = all), and flags.
    pub fn render_text(&self, max_steps: usize) -> String {
        let mut out = String::new();
        let warm = if self.warmup_steps > 0 {
            format!(
                " ({} warmup step(s) excluded from totals)",
                self.warmup_steps
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "critical path over {} step(s){warm}, total wall {:.3} ms (conservation residual {:.2e})",
            self.steps.len(),
            self.total_wall_seconds * 1e3,
            self.conservation_error
        );
        let _ = writeln!(
            out,
            "{:<10} {:<14} {:>12} {:>8}",
            "node", "phase", "seconds", "share"
        );
        for b in &self.totals {
            let share = if self.total_wall_seconds > 0.0 {
                b.seconds / self.total_wall_seconds
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<10} {:<14} {:>12.6} {:>7.1}%",
                b.node,
                b.phase,
                b.seconds,
                share * 100.0
            );
        }
        let shown = if max_steps == 0 {
            self.steps.len()
        } else {
            self.steps.len().min(max_steps)
        };
        if shown > 0 {
            let _ = writeln!(out, "per-step top contributor:");
        }
        for st in self.steps.iter().take(shown) {
            if let Some(top) = st.buckets.first() {
                let _ = writeln!(
                    out,
                    "  step {:>5}  wall {:>10.3} ms  top {}/{} {:>10.3} ms",
                    st.step,
                    st.wall_seconds * 1e3,
                    top.node,
                    top.phase,
                    top.seconds * 1e3
                );
            }
        }
        if shown < self.steps.len() {
            let _ = writeln!(out, "  … {} more steps", self.steps.len() - shown);
        }
        for b in &self.bottlenecks {
            let _ = writeln!(out, "bottleneck [{}/{}]: {}", b.node, b.phase, b.detail);
        }
        if self.tensors.is_empty() {
            return out;
        }
        let _ = writeln!(
            out,
            "per tensor, by wire bytes:\n  tensor     values  push b/v  pull b/v    wire  codec us/step"
        );
        for t in &self.tensors {
            let _ = writeln!(
                out,
                "  {:>6} {:>10} {:>9.3} {:>9.3} {:>6.1}% {:>14.1}{}",
                t.tensor,
                t.values,
                t.push_bits_per_value,
                t.pull_bits_per_value,
                t.wire_share * 100.0,
                t.codec_us_per_step,
                if t.raw { "  raw" } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "  all payload, raw at 32 bits: {:.3} bits/value",
            self.payload_bits_per_value
        );
        out
    }
}

/// Flags workers whose network blame dominates the way an injected delay
/// would: [`BLAME_K`] × the median worker's, above an absolute floor, with
/// at least two workers to compare.
fn flag_bottlenecks(
    spans: &[AlignedSpan],
    totals: &[BlameBucket],
    total_wall: f64,
) -> Vec<Bottleneck> {
    let workers: BTreeSet<String> = spans
        .iter()
        .filter(|s| s.worker != NO_WORKER)
        .map(|s| format!("worker{}", s.worker))
        .collect();
    if workers.len() < 2 {
        return Vec::new();
    }
    let net_of = |lane: &str| -> f64 {
        totals
            .iter()
            .filter(|b| b.node == lane && b.phase == "network")
            .map(|b| b.seconds)
            .sum()
    };
    let mut nets: Vec<f64> = workers.iter().map(|w| net_of(w)).collect();
    nets.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median = nets[(nets.len() - 1) / 2];
    let mut out = Vec::new();
    for lane in &workers {
        let s = net_of(lane);
        if s > BLAME_MIN_SECONDS && s > BLAME_K * median {
            let share = if total_wall > 0.0 {
                s / total_wall
            } else {
                0.0
            };
            out.push(Bottleneck {
                node: lane.clone(),
                phase: "network".to_string(),
                seconds: s,
                share,
                detail: format!(
                    "{lane} network dominates the critical path: {s:.3} s \
                     ({:.0}% of wall, median worker {median:.3} s)",
                    share * 100.0
                ),
            });
        }
    }
    out.sort_by(|a, b| {
        b.seconds
            .partial_cmp(&a.seconds)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NodeTrace, SpanRecord};

    fn rec(name: &str, node: &str, step: u64, worker: i64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span: (start ^ end ^ step).wrapping_mul(2).wrapping_add(1),
            parent: 0,
            name: name.into(),
            node: node.into(),
            step,
            worker,
            tensor: -1,
            start_ns: start,
            end_ns: end,
        }
    }

    /// A clean 2-worker networked step on a shared clock: both workers
    /// compute 100–400, encode 400–600, serialize 600–700, push arrives
    /// ~750/760, server works 800–1100, pulls land 1200–1300.
    fn net_step(step: u64, delay_w1: u64) -> Vec<NodeTrace> {
        let base = step * 10_000;
        let d = delay_w1;
        let mut server = vec![
            rec("recv_push", "server", step, 0, base, base + 750),
            rec("recv_push", "server", step, 1, base, base + 760 + d),
            rec("barrier", "server", step, NO_WORKER, base, base + 770 + d),
            rec(
                "server-decode",
                "server",
                step,
                NO_WORKER,
                base + 800 + d,
                base + 900 + d,
            ),
            rec(
                "aggregate",
                "server",
                step,
                NO_WORKER,
                base + 900 + d,
                base + 1_000 + d,
            ),
            rec(
                "re-encode",
                "server",
                step,
                NO_WORKER,
                base + 1_000 + d,
                base + 1_100 + d,
            ),
        ];
        for w in 0..2i64 {
            server.push(rec(
                "send_pull",
                "server",
                step,
                w,
                base + 1_100 + d,
                base + 1_150 + d,
            ));
        }
        let worker = |w: i64, shift: u64| {
            vec![
                rec(
                    "compute",
                    &format!("worker{w}"),
                    step,
                    w,
                    base + 100 + shift,
                    base + 400 + shift,
                ),
                rec(
                    "quantize",
                    &format!("worker{w}"),
                    step,
                    w,
                    base + 400 + shift,
                    base + 500 + shift,
                ),
                rec(
                    "encode",
                    &format!("worker{w}"),
                    step,
                    w,
                    base + 500 + shift,
                    base + 600 + shift,
                ),
                rec(
                    "serialize",
                    &format!("worker{w}"),
                    step,
                    w,
                    base + 600 + shift,
                    base + 700 + shift,
                ),
                rec(
                    "network",
                    &format!("worker{w}"),
                    step,
                    w,
                    base + 700 + shift,
                    base + 1_200 + d,
                ),
                rec(
                    "pull",
                    &format!("worker{w}"),
                    step,
                    w,
                    base + 1_200 + d,
                    base + 1_300 + d,
                ),
            ]
        };
        vec![
            NodeTrace {
                clock: "server".into(),
                spans: server,
                dropped: 0,
            },
            NodeTrace {
                clock: "worker0".into(),
                spans: worker(0, 0),
                dropped: 0,
            },
            NodeTrace {
                clock: "worker1".into(),
                spans: worker(1, delay_w1),
                dropped: 0,
            },
        ]
    }

    fn analyze(nodes: &[NodeTrace]) -> RunAnalysis {
        RunAnalysis::build(&MergedTimeline::build(nodes))
    }

    #[test]
    fn attribution_is_conserved_exactly() {
        let a = analyze(&net_step(0, 0));
        assert_eq!(a.steps.len(), 1);
        let st = &a.steps[0];
        let sum: f64 = st.buckets.iter().map(|b| b.seconds).sum();
        assert!(
            (sum - st.wall_seconds).abs() <= 1e-12 * st.wall_seconds.max(1.0),
            "sum {sum} vs wall {}",
            st.wall_seconds
        );
        assert!(a.conservation_error < 1e-9);
        // The path tiles the wall interval: ordered, gap-free, in-range.
        let t0 = st.path.first().expect("path").start_ns;
        let mut cursor = t0;
        for seg in &st.path {
            assert_eq!(seg.start_ns, cursor, "path has a gap or overlap");
            cursor += seg.dur_ns;
        }
        assert!((st.wall_seconds - (cursor - t0) as f64 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn critical_path_never_exceeds_wall_time() {
        for delay in [0u64, 500, 5_000] {
            let a = analyze(&net_step(0, delay));
            for st in &a.steps {
                let path: f64 = st.path.iter().map(|s| s.dur_ns as f64 / 1e9).sum();
                assert!(path <= st.wall_seconds + 1e-12, "delay {delay}");
                for seg in &st.path {
                    assert!(seg.dur_ns as f64 / 1e9 <= st.wall_seconds + 1e-12);
                }
            }
        }
    }

    #[test]
    fn delayed_worker_is_blamed_on_its_network_phase() {
        // Worker 1's whole pipeline shifts late (the delay@N:MS shape:
        // the sleep happens before compute, so the push is late). The
        // extra barrier time must land on worker1/network.
        let mut nodes = Vec::new();
        for step in 0..4u64 {
            let d = if step == 2 { 400_000_000 } else { 0 };
            for n in net_step(step, d) {
                nodes.push(n);
            }
        }
        // Merge per-clock traces (NodeTrace per (clock, step) here).
        let a = analyze(&nodes);
        let top = a.top().expect("has totals");
        assert_eq!(top.node, "worker1", "totals: {:?}", a.totals);
        assert_eq!(top.phase, "network");
        assert_eq!(a.bottlenecks.len(), 1, "{:?}", a.bottlenecks);
        assert_eq!(a.bottlenecks[0].node, "worker1");
        assert_eq!(a.bottlenecks[0].phase, "network");
    }

    #[test]
    fn clean_run_flags_no_bottleneck() {
        let mut nodes = Vec::new();
        for step in 0..4u64 {
            nodes.extend(net_step(step, 10));
        }
        let a = analyze(&nodes);
        assert!(a.bottlenecks.is_empty(), "{:?}", a.bottlenecks);
    }

    #[test]
    fn simulator_style_serial_trace_is_covered() {
        // Single clock, no network/recv/send spans: workers run serially,
        // then the server phases. The ledger must still conserve and
        // charge real work to the right lanes.
        let spans = vec![
            rec("compute", "worker0", 0, 0, 0, 300),
            rec("encode", "worker0", 0, 0, 300, 400),
            rec("compute", "worker1", 0, 1, 400, 700),
            rec("encode", "worker1", 0, 1, 700, 800),
            rec("server-decode", "server", 0, NO_WORKER, 800, 900),
            rec("aggregate", "server", 0, NO_WORKER, 900, 1_000),
            rec("re-encode", "server", 0, NO_WORKER, 1_000, 1_100),
            rec("pull", "worker0", 0, 0, 1_100, 1_150),
            rec("pull", "worker1", 0, 1, 1_150, 1_200),
        ];
        let a = analyze(&[NodeTrace {
            clock: "sim".into(),
            spans,
            dropped: 0,
        }]);
        assert_eq!(a.steps.len(), 1);
        assert!(a.conservation_error < 1e-9);
        let find = |node: &str, phase: &str| -> f64 {
            a.totals
                .iter()
                .filter(|b| b.node == node && b.phase == phase)
                .map(|b| b.seconds)
                .sum()
        };
        assert!(find("worker0", "compute") > 0.0);
        assert!(find("worker1", "compute") > 0.0);
        assert!(find("server", "aggregate") > 0.0);
        assert!(find("worker1", "pull") > 0.0);
        assert!(a.bottlenecks.is_empty());
    }

    #[test]
    fn analysis_renders_as_text_and_roundtrips_through_json() {
        let a = analyze(&net_step(0, 0));
        let text = a.render_text(5);
        assert!(text.contains("critical path over"));
        let json = serde_json::to_string(&a).expect("serialize");
        let back: RunAnalysis = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, a);
    }

    #[test]
    fn a_wrapped_ring_starts_the_analysis_where_every_lane_is_whole() {
        let mut nodes: Vec<NodeTrace> = Vec::new();
        for step in 0..7u64 {
            for n in net_step(step, 0) {
                match nodes.iter_mut().find(|m| m.clock == n.clock) {
                    Some(m) => m.spans.extend(n.spans),
                    None => nodes.push(n),
                }
            }
        }
        let full = analyze(&nodes);
        // Worker 1's ring wrapped: steps 0–2 and the head of step 3 are
        // gone (six spans a step), while the server and worker 0 still
        // hold step 0.
        let worker1 = nodes.iter_mut().find(|n| n.clock == "worker1").unwrap();
        worker1.spans.drain(..3 * 6 + 2);
        worker1.dropped = 3 * 6 + 2;
        let wrapped = analyze(&nodes);
        let steps: Vec<u64> = wrapped.steps.iter().map(|s| s.step).collect();
        assert_eq!(steps, [4, 5, 6]);
        for (w, f) in wrapped.steps.iter().zip(&full.steps[4..]) {
            assert_eq!((w.wall_seconds, &w.buckets), (f.wall_seconds, &f.buckets));
        }
    }

    #[test]
    fn empty_timeline_analyzes_to_nothing() {
        let a = RunAnalysis::build(&MergedTimeline::default());
        assert!(a.steps.is_empty());
        assert!(a.top().is_none());
        assert_eq!(a.total_wall_seconds, 0.0);
        assert!(a.bottlenecks.is_empty());
    }
}
