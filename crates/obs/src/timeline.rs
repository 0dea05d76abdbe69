//! Timeline reconstruction: merges per-node [`NodeTrace`] buffers onto a
//! single clock-aligned axis and exports the result as Chrome-trace JSON
//! or a terminal per-step phase breakdown.
//!
//! # Clock-offset estimation
//!
//! Every node timestamps spans on its own monotonic clock (`now_ns`
//! counts from a per-process epoch), so raw timestamps from two nodes are
//! incomparable. The BSP barrier gives us an NTP-style sample per
//! `(step, worker)` pair for free:
//!
//! - the worker's `network` span covers *flush push → first pull frame*,
//!   so its bounds are the send time `t0` and receive time `t3` on the
//!   worker clock;
//! - the server's `recv_push` span for that worker ends at `T1` (push
//!   fully received) and its `send_pull` span starts at `T2` (pull about
//!   to be written), both on the server clock.
//!
//! Assuming symmetric network delay, the worker-to-server clock offset is
//! `((T1 − t0) + (T2 − t3)) / 2` and the round-trip (minus server time)
//! is `(t3 − t0) − (T2 − T1)`. One sample per step is noisy; we take the
//! median over all steps, which is robust to stragglers and GC-style
//! pauses. The server clock is the reference axis; worker spans shift by
//! their estimated offset, then the whole timeline normalizes so the
//! earliest span starts at zero. Estimation error is bounded by the
//! network asymmetry, i.e. at most one barrier round-trip.

use crate::trace::{NodeTrace, SpanRecord, NO_WORKER};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The per-step phases a fully traced run records, in pipeline order.
///
/// `barrier-wait` is synthesized during the merge rather than recorded:
/// a worker's raw `network` span covers *flush push → first pull frame*,
/// which conflates wire transit with blocking at the barrier. When the
/// server-side endpoints for the pair are known (`recv_push` end `T1`,
/// `send_pull` start `T2`), the merge splits the span into
/// `network [t0, T1)`, `barrier-wait [T1, T2)`, and `network [T2, t3)` on
/// the aligned axis — so the per-step table sums to step wall-clock
/// instead of double-counting the barrier inside "network".
pub const PHASES: [&str; 9] = [
    "quantize",
    "encode",
    "serialize",
    "network",
    "barrier-wait",
    "server-decode",
    "aggregate",
    "re-encode",
    "pull",
];

/// Clock domain used as the reference axis when present.
const REFERENCE_CLOCK: &str = "server";

/// One span shifted onto the reference clock axis.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedSpan {
    /// Logical lane (`server`, `worker0`, …).
    pub node: String,
    /// Phase name.
    pub name: String,
    /// Training step.
    pub step: u64,
    /// Worker the span concerns, or [`NO_WORKER`].
    pub worker: i64,
    /// Start on the merged axis, nanoseconds (earliest span = 0).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Run trace id.
    pub trace: u64,
    /// Span id (unique within its source clock domain).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
}

/// The estimated offset of one clock domain relative to the reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockOffset {
    /// Clock-domain label.
    pub clock: String,
    /// Nanoseconds to *add* to this clock's timestamps to land on the
    /// reference axis (before normalization).
    pub offset_ns: i64,
    /// Median barrier round-trip observed for this clock, nanoseconds.
    pub rtt_ns: u64,
    /// Number of barrier samples the estimate used.
    pub samples: usize,
}

/// Per-node traces merged onto one axis.
#[derive(Debug, Clone, Default)]
pub struct MergedTimeline {
    /// All spans, shifted and sorted by start time.
    pub spans: Vec<AlignedSpan>,
    /// The offset estimate per non-reference clock domain.
    pub offsets: Vec<ClockOffset>,
    /// Records dropped by ring buffers, summed over nodes.
    pub dropped: u64,
}

/// Server-clock barrier endpoints for one `(step, worker)` pair. The
/// matching worker-clock endpoints come from that worker's `network` span.
#[derive(Default)]
struct BarrierSample {
    /// Server clock: `recv_push` end.
    t1: Option<u64>,
    /// Server clock: `send_pull` start.
    t2: Option<u64>,
}

impl MergedTimeline {
    /// Merges `nodes` onto the reference axis. Clock domains with no
    /// usable barrier samples (including the simulator's single `sim`
    /// domain) keep their raw timestamps, offset 0.
    pub fn build(nodes: &[NodeTrace]) -> MergedTimeline {
        let reference = nodes
            .iter()
            .find(|n| n.clock == REFERENCE_CLOCK)
            .map(|n| n.clock.as_str())
            .or_else(|| nodes.first().map(|n| n.clock.as_str()))
            .unwrap_or(REFERENCE_CLOCK)
            .to_string();

        // Barrier endpoints on the server clock, keyed by (step, worker).
        let mut server_ends: BTreeMap<(u64, i64), BarrierSample> = BTreeMap::new();
        for node in nodes.iter().filter(|n| n.clock == reference) {
            for s in &node.spans {
                if s.worker == NO_WORKER {
                    continue;
                }
                let e = server_ends.entry((s.step, s.worker)).or_default();
                match s.name.as_str() {
                    "recv_push" => e.t1 = Some(s.end_ns),
                    "send_pull" => e.t2 = Some(s.start_ns),
                    _ => {}
                }
            }
        }

        let mut offsets = Vec::new();
        let mut spans = Vec::new();
        let mut dropped = 0u64;
        for node in nodes {
            dropped += node.dropped;
            let (offset_ns, rtt_ns, samples) = if node.clock == reference {
                (0i64, 0u64, 0usize)
            } else {
                estimate_offset(node, &server_ends)
            };
            if node.clock != reference {
                offsets.push(ClockOffset {
                    clock: node.clock.clone(),
                    offset_ns,
                    rtt_ns,
                    samples,
                });
            }
            for s in &node.spans {
                let aligned = shift(s, offset_ns);
                if s.name == "network" && s.worker != NO_WORKER {
                    if let Some(e) = server_ends.get(&(s.step, s.worker)) {
                        if let (Some(t1), Some(t2)) = (e.t1, e.t2) {
                            split_network(aligned, t1, t2, &mut spans);
                            continue;
                        }
                    }
                }
                spans.push(aligned);
            }
        }

        // Normalize: earliest span starts at zero.
        let min = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        for s in &mut spans {
            s.start_ns -= min;
        }
        spans.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(a.node.cmp(&b.node))
                .then(a.span.cmp(&b.span))
        });
        MergedTimeline {
            spans,
            offsets,
            dropped,
        }
    }

    /// Steps present in the timeline, ascending.
    pub fn steps(&self) -> Vec<u64> {
        let mut steps: Vec<u64> = self.spans.iter().map(|s| s.step).collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// Total seconds spent in `phase` at `step`, summed over all lanes.
    pub fn phase_seconds(&self, step: u64, phase: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.step == step && s.name == phase)
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum()
    }

    /// Chrome-trace ("Trace Event Format") JSON, loadable in
    /// `chrome://tracing` and Perfetto. Lanes map to pids: the server is
    /// pid 0, workers follow by worker number.
    pub fn chrome_json(&self) -> String {
        // Stable lane ordering: server first, then workers numerically,
        // then anything else alphabetically.
        let mut lanes: Vec<&str> = self.spans.iter().map(|s| s.node.as_str()).collect();
        lanes.sort_by_key(|l| lane_order(l));
        lanes.dedup();
        let pid_of = |lane: &str| -> usize { lanes.iter().position(|l| *l == lane).unwrap_or(0) };

        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for lane in &lanes {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                pid_of(lane),
                escape(lane)
            );
        }
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":0,\"name\":\"{}\",\"cat\":\"threelc\",\"args\":{{\"step\":{},\"worker\":{}}}}}",
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                pid_of(&s.node),
                escape(&s.name),
                s.step,
                s.worker
            );
        }
        // Flow events: one arrow chain per (step, worker) linking the
        // push leaving the worker lane → the server receiving it → the
        // aggregate → the pull send → the pull landing back on the
        // worker lane, so cross-node causality is visible in the UI.
        // Point order: [push start, recv end, aggregate start, send_pull
        // start, pull start]; each point is (pid, ts).
        type FlowPoints = [Option<(usize, u64)>; 5];
        let mut flows: BTreeMap<(u64, i64), FlowPoints> = BTreeMap::new();
        let mut aggregates: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
        for s in &self.spans {
            if s.name == "aggregate" && s.worker == NO_WORKER {
                let e = aggregates.entry(s.step).or_insert((0, u64::MAX));
                if s.start_ns < e.1 {
                    *e = (pid_of(&s.node), s.start_ns);
                }
            }
            if s.worker == NO_WORKER {
                continue;
            }
            let key = (s.step, s.worker);
            let on_worker_lane = s.node.starts_with("worker");
            let point: Option<(usize, usize, u64)> = match s.name.as_str() {
                "network" if on_worker_lane => Some((0, pid_of(&s.node), s.start_ns)),
                "recv_push" => Some((1, pid_of(&s.node), s.start_ns + s.dur_ns)),
                "send_pull" => Some((3, pid_of(&s.node), s.start_ns)),
                "pull" if on_worker_lane => Some((4, pid_of(&s.node), s.start_ns)),
                _ => None,
            };
            if let Some((slot, pid, ts)) = point {
                let entry = flows.entry(key).or_default();
                // Earliest network/pull start, latest recv end,
                // earliest send start.
                let better = match entry[slot] {
                    None => true,
                    Some((_, old)) => {
                        if slot == 1 {
                            ts > old
                        } else {
                            ts < old
                        }
                    }
                };
                if better {
                    entry[slot] = Some((pid, ts));
                }
            }
        }
        for ((step, worker), slots) in &flows {
            let mut points: Vec<(usize, u64)> = Vec::new();
            for (slot, p) in slots.iter().enumerate() {
                if slot == 2 {
                    if let Some(&agg) = aggregates.get(step) {
                        points.push(agg);
                    }
                }
                if let Some(p) = p {
                    points.push(*p);
                }
            }
            if points.len() < 2 {
                continue;
            }
            // Chrome requires nondecreasing timestamps along one flow id.
            let mut last = 0u64;
            let id = step.wrapping_mul(4_096).wrapping_add((*worker + 1) as u64);
            for (i, (pid, ts)) in points.iter().enumerate() {
                let ts = (*ts).max(last);
                last = ts;
                let (ph, bind) = if i == 0 {
                    ("s", "")
                } else if i == points.len() - 1 {
                    ("f", ",\"bp\":\"e\"")
                } else {
                    ("t", "")
                };
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"ph\":\"{ph}\",\"id\":{id},\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"name\":\"bsp\",\"cat\":\"bsp-flow\"{bind},\"args\":{{\"step\":{step},\"worker\":{worker}}}}}",
                    ts as f64 / 1e3
                );
            }
        }
        out.push_str("]}");
        out
    }

    /// Terminal per-step breakdown of the nine phases (milliseconds,
    /// summed across lanes), plus the clock-offset estimates. Rows are
    /// capped at `max_steps` (0 = all).
    pub fn render_text(&self, max_steps: usize) -> String {
        let mut out = String::new();
        for off in &self.offsets {
            let _ = writeln!(
                out,
                "clock {:<10} offset {:>+10.3} ms  rtt {:>8.3} ms  ({} barrier samples)",
                off.clock,
                off.offset_ns as f64 / 1e6,
                off.rtt_ns as f64 / 1e6,
                off.samples
            );
        }
        let _ = write!(out, "{:>6}", "step");
        for p in PHASES {
            let _ = write!(out, " {:>12}", p);
        }
        out.push('\n');
        let steps = self.steps();
        let shown = if max_steps == 0 {
            steps.len()
        } else {
            steps.len().min(max_steps)
        };
        for &step in steps.iter().take(shown) {
            let _ = write!(out, "{:>6}", step);
            for p in PHASES {
                let _ = write!(out, " {:>10.3}ms", self.phase_seconds(step, p) * 1e3);
            }
            out.push('\n');
        }
        if shown < steps.len() {
            let _ = writeln!(out, "… {} more steps", steps.len() - shown);
        }
        if self.dropped > 0 {
            out.push_str(&dropped_warning(self.dropped));
        }
        out
    }
}

/// The line `threelc trace` and `threelc analyze` print when ring buffers
/// dropped spans.
pub fn dropped_warning(dropped: u64) -> String {
    format!("warning: {dropped} spans dropped by ring buffers\n")
}

/// Splits one aligned worker `network` span at the server-side barrier
/// endpoints `T1` (push fully received) and `T2` (pull about to be
/// written), both already on the reference axis: the middle becomes an
/// explicit `barrier-wait` span, the flanks stay `network` (true
/// transit). Degenerate overlaps (clock estimation error pushing `T1`/
/// `T2` outside the span) fall back to the unsplit span.
fn split_network(s: AlignedSpan, t1: u64, t2: u64, out: &mut Vec<AlignedSpan>) {
    let start = s.start_ns;
    let end = s.start_ns + s.dur_ns;
    let lo = t1.clamp(start, end);
    let hi = t2.clamp(lo, end);
    if hi <= lo {
        out.push(s);
        return;
    }
    let mut piece = |name: &str, a: u64, b: u64, id_salt: u64| {
        if b > a {
            out.push(AlignedSpan {
                node: s.node.clone(),
                name: name.to_string(),
                step: s.step,
                worker: s.worker,
                start_ns: a,
                dur_ns: b - a,
                trace: s.trace,
                span: s.span.wrapping_add(id_salt),
                parent: s.parent,
            });
        }
    };
    piece("network", start, lo, 0);
    piece("barrier-wait", lo, hi, 1 << 62);
    piece("network", hi, end, 1 << 63);
}

fn shift(s: &SpanRecord, offset_ns: i64) -> AlignedSpan {
    let start = s.start_ns as i128 + offset_ns as i128;
    AlignedSpan {
        node: s.node.clone(),
        name: s.name.clone(),
        step: s.step,
        worker: s.worker,
        start_ns: start.max(0) as u64,
        dur_ns: s.end_ns.saturating_sub(s.start_ns),
        trace: s.trace,
        span: s.span,
        parent: s.parent,
    }
}

/// Estimates `node`'s offset to the reference clock from barrier samples.
fn estimate_offset(
    node: &NodeTrace,
    server_ends: &BTreeMap<(u64, i64), BarrierSample>,
) -> (i64, u64, usize) {
    let mut offsets: Vec<i128> = Vec::new();
    let mut rtts: Vec<i128> = Vec::new();
    for s in &node.spans {
        if s.name != "network" || s.worker == NO_WORKER {
            continue;
        }
        let Some(e) = server_ends.get(&(s.step, s.worker)) else {
            continue;
        };
        let (Some(t1), Some(t2)) = (e.t1, e.t2) else {
            continue;
        };
        let (t0, t3) = (s.start_ns as i128, s.end_ns as i128);
        let (t1, t2) = (t1 as i128, t2 as i128);
        // offset = ((T1 - t0) + (T2 - t3)) / 2 moves worker time onto the
        // server axis; rtt = (t3 - t0) - (T2 - T1) is the network-only
        // round trip, the bound on the estimate's error.
        offsets.push(((t1 - t0) + (t2 - t3)) / 2);
        rtts.push((t3 - t0) - (t2 - t1));
    }
    if offsets.is_empty() {
        return (0, 0, 0);
    }
    let n = offsets.len();
    (
        median(&mut offsets) as i64,
        median(&mut rtts).max(0) as u64,
        n,
    )
}

/// Lower-middle median (does not average the two central elements).
fn median(v: &mut [i128]) -> i128 {
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

fn lane_order(lane: &str) -> (u8, u64, String) {
    if lane == "server" {
        (0, 0, String::new())
    } else if let Some(n) = lane.strip_prefix("worker").and_then(|r| r.parse().ok()) {
        (1, n, String::new())
    } else {
        (2, 0, lane.to_string())
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NodeTrace;

    fn rec(
        name: &str,
        node: &str,
        step: u64,
        worker: i64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span: start_ns.wrapping_add(end_ns).wrapping_add(step) | 1,
            parent: 0,
            name: name.into(),
            node: node.into(),
            step,
            worker,
            tensor: -1,
            start_ns,
            end_ns,
        }
    }

    /// Builds one barrier exchange per step: the *true* (server-axis)
    /// event times are t0=base+1000, T1=base+1100, T2=base+2000,
    /// t3=base+2100 — a symmetric 200 ns round trip. The worker's clock
    /// reads true time + `skew`.
    fn two_node_traces(skew: i64, steps: u64) -> Vec<NodeTrace> {
        let mut server = Vec::new();
        let mut worker = Vec::new();
        for step in 0..steps {
            let base = step * 10_000;
            server.push(rec(
                "recv_push",
                "server",
                step,
                0,
                base + 1_050,
                base + 1_100,
            ));
            server.push(rec(
                "send_pull",
                "server",
                step,
                0,
                base + 2_000,
                base + 2_050,
            ));
            let w = |t: u64| (t as i64 + skew) as u64;
            worker.push(rec(
                "network",
                "worker0",
                step,
                0,
                w(base + 1_000),
                w(base + 2_100),
            ));
            worker.push(rec(
                "quantize",
                "worker0",
                step,
                0,
                w(base + 100),
                w(base + 400),
            ));
        }
        vec![
            NodeTrace {
                clock: "server".into(),
                spans: server,
                dropped: 0,
            },
            NodeTrace {
                clock: "worker0".into(),
                spans: worker,
                dropped: 0,
            },
        ]
    }

    #[test]
    fn known_skew_is_recovered_exactly_for_symmetric_delay() {
        for skew in [-5_000_000i64, -333, 0, 4_096, 7_000_000] {
            let tl = MergedTimeline::build(&two_node_traces(skew, 6));
            assert_eq!(tl.offsets.len(), 1);
            let off = &tl.offsets[0];
            assert_eq!(off.clock, "worker0");
            // Symmetric delay → the estimator recovers −skew exactly.
            assert_eq!(off.offset_ns, -skew, "skew {skew}");
            assert_eq!(off.rtt_ns, 200);
            assert_eq!(off.samples, 6);
        }
    }

    #[test]
    fn alignment_error_is_within_one_barrier_rtt_under_asymmetry() {
        // Asymmetric delay: push takes 90 ns, pull takes 10 ns (total
        // RTT unchanged at 100). True t0=1000 → T1 at 1090; T2=2000 →
        // t3 at 2010. Worker clock skewed by +12345.
        let skew = 12_345i64;
        let w = |t: u64| (t as i64 + skew) as u64;
        let nodes = vec![
            NodeTrace {
                clock: "server".into(),
                spans: vec![
                    rec("recv_push", "server", 0, 0, 1_050, 1_090),
                    rec("send_pull", "server", 0, 0, 2_000, 2_040),
                ],
                dropped: 0,
            },
            NodeTrace {
                clock: "worker0".into(),
                spans: vec![rec("network", "worker0", 0, 0, w(1_000), w(2_010))],
                dropped: 0,
            },
        ];
        let tl = MergedTimeline::build(&nodes);
        let off = &tl.offsets[0];
        let err = (off.offset_ns + skew).unsigned_abs();
        assert!(off.rtt_ns > 0);
        assert!(
            err <= off.rtt_ns,
            "error {err} exceeds one rtt {}",
            off.rtt_ns
        );
    }

    #[test]
    fn merged_spans_land_on_one_normalized_axis() {
        let tl = MergedTimeline::build(&two_node_traces(1_000_000, 3));
        // After alignment the worker's quantize span (true start
        // base+100) is the earliest event and normalizes to 0.
        let earliest = tl.spans.first().expect("spans");
        assert_eq!(earliest.name, "quantize");
        assert_eq!(earliest.start_ns, 0);
        // The step-0 network span's true start is 1000 − 100 after
        // normalization = 900 on the shared axis. Because the server-side
        // endpoints for the pair are known (T1=1100, T2=2000 true time),
        // the raw [1000, 2100) span splits into network / barrier-wait /
        // network on the aligned axis.
        let step0: Vec<&AlignedSpan> = tl
            .spans
            .iter()
            .filter(|s| s.step == 0 && (s.name == "network" || s.name == "barrier-wait"))
            .collect();
        assert_eq!(step0.len(), 3, "split into transit/wait/transit");
        assert_eq!(
            (step0[0].name.as_str(), step0[0].start_ns, step0[0].dur_ns),
            ("network", 900, 100)
        );
        assert_eq!(
            (step0[1].name.as_str(), step0[1].start_ns, step0[1].dur_ns),
            ("barrier-wait", 1_000, 900)
        );
        assert_eq!(
            (step0[2].name.as_str(), step0[2].start_ns, step0[2].dur_ns),
            ("network", 1_900, 100)
        );
        // The pieces tile the original span exactly: total network +
        // barrier-wait time equals the raw 1100 ns.
        assert_eq!(
            tl.phase_seconds(0, "network") + tl.phase_seconds(0, "barrier-wait"),
            1_100e-9
        );
    }

    #[test]
    fn chrome_json_contains_lanes_and_phases() {
        let tl = MergedTimeline::build(&two_node_traces(0, 2));
        let json = tl.chrome_json();
        let v: serde::Value = serde_json::from_str(&json).expect("chrome JSON parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert!(events.len() >= 2 + 2 * 4);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"process_name"));
        assert!(names.contains(&"network"));
        assert!(names.contains(&"quantize"));
    }

    #[test]
    fn phase_breakdown_sums_lanes_and_renders() {
        let tl = MergedTimeline::build(&two_node_traces(0, 2));
        assert!((tl.phase_seconds(0, "quantize") - 300e-9).abs() < 1e-15);
        assert_eq!(tl.phase_seconds(0, "re-encode"), 0.0);
        let text = tl.render_text(1);
        assert!(text.contains("quantize"));
        assert!(text.contains("… 1 more steps"));
    }

    #[test]
    fn single_clock_traces_pass_through_unshifted() {
        let nodes = vec![NodeTrace {
            clock: "sim".into(),
            spans: vec![rec("compute", "worker0", 0, 0, 500, 900)],
            dropped: 3,
        }];
        let tl = MergedTimeline::build(&nodes);
        assert!(tl.offsets.is_empty());
        assert_eq!(tl.spans[0].start_ns, 0); // normalized
        assert_eq!(tl.spans[0].dur_ns, 400);
        assert_eq!(tl.dropped, 3);
    }
}
