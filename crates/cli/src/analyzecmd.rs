//! The `analyze` subcommand: critical-path reconstruction and causal
//! bottleneck attribution over a traced run.
//!
//! Reads the same sources `threelc trace` does — a `threelc serve --json`
//! report, a `.flight.json` post-mortem dump, or a live server address —
//! rebuilds the clock-aligned timeline, and runs the critical-path
//! analyzer from `threelc_obs::critical`: per-step dependency chains,
//! conserved `{node × phase}` blame buckets, first-order what-if
//! projections, and bottleneck flags. A report adds the per-tensor view:
//! each tensor's push and pull bits/value and share of the wire bytes
//! (the server's traffic counts) beside the worker codec time its tagged
//! spans carry.
//!
//! Two gates make the attribution falsifiable from CI:
//!
//! - `--expect-blame NODE:PHASE` exits nonzero unless that lane/phase
//!   tops the blame ledger *and* is flagged as a bottleneck. The chaos
//!   smoke injects `delay@N:MS` on a known worker and requires
//!   `--expect-blame workerN:network` to pass — ground truth for the
//!   causal attribution.
//! - `--check` exits nonzero when the per-step attribution fails to
//!   conserve (Σ buckets drifts from measured wall time) or when any
//!   bottleneck is flagged — the inverse gate for clean runs.

use crate::netcmd::{flag_value, has_flag, parse_flag, sole_positional, split_flags};
use crate::tracecmd::Source;
use std::error::Error;
use std::fmt::Write as _;
use threelc_distsim::TensorTraffic;
use threelc_obs::critical::{codec_us_per_step, TensorRow};
use threelc_obs::timeline::dropped_warning;
use threelc_obs::{MergedTimeline, NodeTrace, RunAnalysis};

type CliResult = Result<String, Box<dyn Error>>;

/// Default row cap of the per-step section (`--steps 0` = all).
const DEFAULT_MAX_STEPS: usize = 10;

/// Conservation residual above which `--check` fails. The tiler is exact
/// by construction, so anything past float noise means a real bug; 5%
/// leaves headroom for reports round-tripped through lossy tooling.
const MAX_CONSERVATION_ERROR: f64 = 0.05;

/// `threelc analyze <report.json|flight.json|addr> [--json] [--steps N]
/// [--check] [--expect-blame NODE:PHASE]`.
pub fn analyze_cmd(args: &[String]) -> CliResult {
    const VALUED: &[(&str, &str)] = &[("--steps", "a value"), ("--expect-blame", "NODE:PHASE")];
    let source = sole_positional(
        &split_flags(args, VALUED, &["--json", "--check"])?,
        "analyze requires a `threelc serve --json` report file or a live server address",
        "analyze takes exactly one report file or server address",
    )?;
    let json = has_flag(args, "--json");
    let check = has_flag(args, "--check");
    let max_steps = parse_flag(args, "--steps")?.unwrap_or(DEFAULT_MAX_STEPS);
    let expect = flag_value(args, "--expect-blame")
        .map(|v| {
            v.split_once(':').ok_or_else(|| {
                format!("invalid --expect-blame `{v}` (expected NODE:PHASE, e.g. worker1:network)")
            })
        })
        .transpose()?;

    let (analysis, dropped) = load_analysis(source)?;
    let mut out = if json {
        let mut s = serde_json::to_string_pretty(&analysis)?;
        s.push('\n');
        s
    } else {
        let mut s = analysis.render_text(max_steps);
        if dropped > 0 {
            s.push_str(&dropped_warning(dropped));
        }
        s
    };

    if let Some((node, phase)) = expect {
        let top = analysis
            .top()
            .ok_or("no attribution buckets; nothing to blame")?;
        if top.node != node || top.phase != phase {
            return Err(format!(
                "blame check failed: expected {node}/{phase} to top the ledger, got {}/{} \
                 ({:.3} s)",
                top.node, top.phase, top.seconds
            )
            .into());
        }
        if !analysis
            .bottlenecks
            .iter()
            .any(|b| b.node == node && b.phase == phase)
        {
            return Err(format!(
                "blame check failed: {node}/{phase} tops the ledger ({:.3} s) but is not \
                 flagged as a bottleneck",
                top.seconds
            )
            .into());
        }
        if !json {
            writeln!(
                out,
                "blame check passed: {node}/{phase} tops the ledger ({:.3} s) and is flagged",
                top.seconds
            )?;
        }
    }

    if check {
        if analysis.conservation_error > MAX_CONSERVATION_ERROR {
            return Err(format!(
                "analyze check failed: attribution not conserved (residual {:.3e} > {MAX_CONSERVATION_ERROR})",
                analysis.conservation_error
            )
            .into());
        }
        if !analysis.bottlenecks.is_empty() {
            let mut msg = format!(
                "analyze check failed: {} bottleneck(s) flagged\n",
                analysis.bottlenecks.len()
            );
            for b in &analysis.bottlenecks {
                let _ = writeln!(msg, "  [{}/{}] {}", b.node, b.phase, b.detail);
            }
            return Err(msg.into());
        }
        if !json {
            writeln!(
                out,
                "analyze check passed: attribution conserved (residual {:.2e}), no bottlenecks",
                analysis.conservation_error
            )?;
        }
    }
    Ok(out)
}

/// Builds the run analysis from the spans of a report file, a flight
/// dump, or a live server, with the count of spans the ring buffers
/// dropped; a report's per-tensor traffic adds the per-tensor view.
fn load_analysis(source: &str) -> Result<(RunAnalysis, u64), Box<dyn Error>> {
    let mut traffic = Vec::new();
    let nodes = match Source::load(source)? {
        Source::Flight(dump) => {
            if dump.spans.iter().all(|n| n.spans.is_empty()) {
                return Err(format!(
                    "{source}: flight dump has no spans; dump a THREELC_TRACE=1 run"
                )
                .into());
            }
            dump.spans
        }
        Source::Report(report) => {
            if report.node_traces.iter().all(|n| n.spans.is_empty()) {
                return Err(format!(
                    "{source}: no trace data; run the server and workers with THREELC_TRACE=1"
                )
                .into());
            }
            traffic = report.result.trace.tensors;
            report.node_traces
        }
        // Live mode: one snapshot of the server's own clock domain.
        Source::Live(addr) => {
            let node = Source::scrape(&addr)?;
            if node.spans.is_empty() {
                return Err(format!(
                    "{source}: server has no spans; start it with THREELC_TRACE=1"
                )
                .into());
            }
            vec![node]
        }
    };
    let timeline = MergedTimeline::build(&nodes);
    let mut analysis = RunAnalysis::build(&timeline);
    analysis.tensors = tensor_rows(&traffic, &nodes);
    Ok((analysis, timeline.dropped))
}

/// One row per tensor of `traffic`, by descending wire bytes, with the
/// worker codec µs per step its tagged spans in `nodes` carry.
fn tensor_rows(traffic: &[TensorTraffic], nodes: &[NodeTrace]) -> Vec<TensorRow> {
    let codec_us = codec_us_per_step(nodes);
    let wire = |t: &TensorTraffic| (t.push.wire_bytes + t.pull.wire_bytes) as f64;
    let total: f64 = traffic.iter().map(wire).sum();
    let mut rows: Vec<TensorRow> = (traffic.iter().enumerate())
        .map(|(i, t)| TensorRow {
            tensor: i,
            values: t.values,
            raw: t.raw,
            push_bits_per_value: t.push.bits_per_value(),
            pull_bits_per_value: t.pull.bits_per_value(),
            wire_share: if total > 0.0 { wire(t) / total } else { 0.0 },
            codec_us_per_step: codec_us.get(i).copied().unwrap_or(0.0),
        })
        .collect();
    rows.sort_by(|a, b| b.wire_share.total_cmp(&a.wire_share));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_baselines::SchemeKind;
    use threelc_distsim::{run_experiment, ExperimentConfig};
    use threelc_net::NetReport;
    use threelc_obs::trace::NO_WORKER;
    use threelc_obs::SpanRecord;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("threelc-analyze-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{}-{name}", std::process::id()))
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
            tensor: -1,
            start_ns: start,
            end_ns: end,
        }
    }

    /// A 2-worker networked step on a shared clock; `delay_w1` shifts
    /// worker 1's whole pipeline late (the delay@N:MS shape).
    fn net_step(step: u64, delay_w1: u64) -> Vec<NodeTrace> {
        let base = step * 1_000_000;
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
        let lane = |w: i64, shift: u64| {
            let n = format!("worker{w}");
            vec![
                rec(
                    "compute",
                    &n,
                    step,
                    w,
                    base + 100 + shift,
                    base + 400 + shift,
                ),
                rec(
                    "encode",
                    &n,
                    step,
                    w,
                    base + 400 + shift,
                    base + 600 + shift,
                ),
                rec(
                    "serialize",
                    &n,
                    step,
                    w,
                    base + 600 + shift,
                    base + 700 + shift,
                ),
                rec("network", &n, step, w, base + 700 + shift, base + 1_200 + d),
                rec("pull", &n, step, w, base + 1_200 + d, base + 1_300 + d),
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
                spans: lane(0, 0),
                dropped: 0,
            },
            NodeTrace {
                clock: "worker1".into(),
                spans: lane(1, delay_w1),
                dropped: 0,
            },
        ]
    }

    fn report_with(node_traces: Vec<NodeTrace>) -> NetReport {
        NetReport {
            result: run_experiment(&ExperimentConfig {
                workers: 2,
                batch_per_worker: 4,
                total_steps: 2,
                model_width: 8,
                model_blocks: 1,
                ..ExperimentConfig::for_scheme(SchemeKind::Float32)
            }),
            final_model_crc32: 0,
            connections: vec![],
            faults: Default::default(),
            node_traces,
            series: Default::default(),
            metrics: Default::default(),
        }
    }

    fn write_report(name: &str, report: &NetReport) -> std::path::PathBuf {
        let path = tmp(name);
        std::fs::write(&path, serde_json::to_string(report).unwrap()).unwrap();
        path
    }

    #[test]
    fn analyze_flags_are_validated() {
        assert!(analyze_cmd(&s(&[])).is_err()); // source missing
        assert!(analyze_cmd(&s(&["a", "b"])).is_err()); // two sources
        assert!(analyze_cmd(&s(&["a", "--bogus"])).is_err());
        assert!(analyze_cmd(&s(&["a", "--steps", "x"])).is_err());
        assert!(analyze_cmd(&s(&["a", "--expect-blame"])).is_err());
        let err =
            analyze_cmd(&s(&["a", "--expect-blame", "worker1"])).expect_err("spec without a colon");
        assert!(err.to_string().contains("NODE:PHASE"), "got: {err}");
        // Not a file → treated as a live address → unreachable.
        assert!(analyze_cmd(&s(&["not-an-address-or-file"])).is_err());
    }

    #[test]
    fn untraced_report_points_at_the_trace_env() {
        let path = write_report("untraced.json", &report_with(vec![]));
        let err = analyze_cmd(&s(&[path.to_str().unwrap()])).expect_err("no spans");
        assert!(err.to_string().contains("THREELC_TRACE"), "got: {err}");
    }

    #[test]
    fn clean_run_renders_and_passes_check() {
        let mut nodes = Vec::new();
        for step in 0..4 {
            nodes.extend(net_step(step, 10));
        }
        let path = write_report("clean.json", &report_with(nodes));
        let out =
            analyze_cmd(&s(&[path.to_str().unwrap(), "--check", "--steps", "2"])).expect("clean");
        assert!(out.contains("critical path over 4 step(s)"), "got: {out}");
        assert!(out.contains("what-if"), "got: {out}");
        assert!(out.contains("… 2 more steps"), "got: {out}");
        assert!(out.contains("analyze check passed"), "got: {out}");
        // A clean run has no dominating lane, so an expectation fails.
        assert!(analyze_cmd(&s(&[
            path.to_str().unwrap(),
            "--expect-blame",
            "worker1:network"
        ]))
        .is_err());
        // --json emits the parseable analysis.
        let json = analyze_cmd(&s(&[path.to_str().unwrap(), "--json"])).expect("json");
        let parsed: RunAnalysis = serde_json::from_str(&json).expect("parse analysis");
        assert_eq!(parsed.steps.len(), 4);
        assert!(parsed.conservation_error < 1e-9);
    }

    #[test]
    fn delayed_worker_passes_the_blame_gate_and_fails_check() {
        let mut nodes = Vec::new();
        for step in 0..4u64 {
            let d = if step == 2 { 400_000_000 } else { 0 };
            nodes.extend(net_step(step, d));
        }
        let path = write_report("delayed.json", &report_with(nodes));
        let out = analyze_cmd(&s(&[
            path.to_str().unwrap(),
            "--expect-blame",
            "worker1:network",
        ]))
        .expect("blame gate");
        assert!(out.contains("blame check passed"), "got: {out}");
        assert!(out.contains("bottleneck [worker1/network]"), "got: {out}");
        // The wrong lane or phase fails the gate.
        assert!(analyze_cmd(&s(&[
            path.to_str().unwrap(),
            "--expect-blame",
            "worker0:network"
        ]))
        .is_err());
        assert!(analyze_cmd(&s(&[
            path.to_str().unwrap(),
            "--expect-blame",
            "worker1:encode"
        ]))
        .is_err());
        // … and the clean-run gate fails on the flagged bottleneck.
        let err = analyze_cmd(&s(&[path.to_str().unwrap(), "--check"]))
            .expect_err("bottleneck fails --check");
        assert!(err.to_string().contains("bottleneck"), "got: {err}");
    }

    #[test]
    fn dropped_spans_are_warned_about_and_their_steps_left_out() {
        let mut nodes = Vec::new();
        for step in 0..4 {
            nodes.extend(net_step(step, 0));
        }
        // Worker 1's ring lost its step 0 (five spans): its oldest step is
        // 1, which may itself be cut, so the analysis starts at step 2.
        let lost = nodes
            .iter_mut()
            .find(|n| n.clock == "worker1")
            .expect("worker 1's step 0");
        lost.dropped = lost.spans.len() as u64;
        lost.spans.clear();
        let path = write_report("dropped.json", &report_with(nodes));
        let out = analyze_cmd(&s(&[path.to_str().unwrap()])).expect("analyze");
        assert!(out.contains("critical path over 2 step(s)"), "got: {out}");
        assert!(
            out.contains("warning: 5 spans dropped by ring buffers\n"),
            "got: {out}"
        );
    }

    #[test]
    fn a_report_names_the_tensor_that_owns_the_bytes_and_the_codec_time() {
        let mut nodes = Vec::new();
        for step in 0..4 {
            nodes.extend(net_step(step, 0));
        }
        // Every worker step's 200 ns `encode` becomes tensor 0's codec
        // call, and a 50 ns `quantize` before it tensor 2's.
        for lane in nodes.iter_mut().filter(|n| n.clock.starts_with("worker")) {
            let mut quantizes = Vec::new();
            for span in lane.spans.iter_mut().filter(|s| s.name == "encode") {
                span.tensor = 0;
                let (start, end) = (span.start_ns - 50, span.start_ns);
                let mut quantize = rec("quantize", &span.node, span.step, span.worker, start, end);
                quantize.tensor = 2;
                quantizes.push(quantize);
            }
            lane.spans.extend(quantizes);
        }
        let report = report_with(nodes);
        let traffic = &report.result.trace.tensors;
        let path = write_report("tensors.json", &report);
        let json = analyze_cmd(&s(&[path.to_str().unwrap(), "--json"])).expect("json");
        let parsed: RunAnalysis = serde_json::from_str(&json).expect("parse analysis");
        let rows = &parsed.tensors;
        assert_eq!(rows.len(), traffic.len());
        assert!(rows.windows(2).all(|w| w[0].wire_share >= w[1].wire_share));
        let shares: f64 = rows.iter().map(|r| r.wire_share).sum();
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        let wire = |t: &TensorTraffic| t.push.wire_bytes + t.pull.wire_bytes;
        let most = traffic.iter().map(wire).max();
        assert_eq!(Some(wire(&traffic[rows[0].tensor])), most);
        for r in rows {
            let t = &traffic[r.tensor];
            assert_eq!((r.values, r.raw), (t.values, t.raw));
            assert_eq!(r.push_bits_per_value, t.push.bits_per_value());
            assert_eq!(r.pull_bits_per_value, t.pull.bits_per_value());
            if r.raw {
                assert_eq!((r.push_bits_per_value, r.pull_bits_per_value), (32.0, 32.0));
            }
            let codec = [0.2, 0.0, 0.05].get(r.tensor).copied().unwrap_or(0.0);
            assert!((r.codec_us_per_step - codec).abs() < 1e-9, "{r:?}");
        }
        let text = analyze_cmd(&s(&[path.to_str().unwrap()])).expect("text");
        assert!(text.contains("per tensor, by wire bytes"), "got: {text}");
        assert!(!text.contains("readout"), "got: {text}");
    }
}
