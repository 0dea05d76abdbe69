//! The `trace` subcommand: cross-node timeline reconstruction and Chrome
//! trace export.
//!
//! Reads a `threelc serve --json` report (the usual path: the server
//! collects every node's span buffer at shutdown), a `.flight.json` dump,
//! or a live server address (a non-draining snapshot of the server's own
//! buffer) — [`Source`], which `analyze` shares. The
//! per-node buffers merge onto one clock-aligned axis via the barrier
//! round-trip offset estimate in `threelc_obs::timeline`, render as a
//! per-step phase breakdown, and optionally export Chrome-trace JSON for
//! `chrome://tracing` / Perfetto (`--chrome out.json`). Which lane or
//! phase gated a step is `threelc analyze`'s question, not this one's.

use crate::netcmd::{flag_value, parse_flag, sole_positional, split_flags};
use std::error::Error;
use std::fmt::Write as _;
use std::time::Duration;
use threelc_net::NetReport;
use threelc_obs::{FlightDump, MergedTimeline, NodeTrace};

type CliResult = Result<String, Box<dyn Error>>;

/// Default row cap of the per-step phase table (`--steps 0` = all).
const DEFAULT_MAX_STEPS: usize = 20;

/// What `trace` and `analyze` read: a finished run's report, a flight
/// dump, or a live server to scrape.
pub(crate) enum Source {
    /// A `threelc serve --json` report.
    Report(Box<NetReport>),
    /// A `.flight.json` post-mortem dump.
    Flight(Box<FlightDump>),
    /// Not a file: a live server address.
    Live(String),
}

impl Source {
    /// Loads `source`: a file is a flight dump if it parses as one, else
    /// it must be a report; anything that is not a file is an address.
    pub(crate) fn load(source: &str) -> Result<Source, Box<dyn Error>> {
        if !std::path::Path::new(source).is_file() {
            return Ok(Source::Live(source.into()));
        }
        let text = std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?;
        if let Ok(dump) = FlightDump::from_json(&text) {
            return Ok(Source::Flight(Box::new(dump)));
        }
        let report = serde_json::from_str(&text).map_err(|e| {
            format!("{source}: not a `threelc serve --json` report or flight dump: {e}")
        })?;
        Ok(Source::Report(Box::new(report)))
    }

    /// One live (non-draining) snapshot of the server's own span buffer.
    pub(crate) fn scrape(addr: &str) -> Result<NodeTrace, Box<dyn Error>> {
        Ok(threelc_net::scrape_trace(addr, Duration::from_secs(5))?)
    }
}

/// `threelc trace <report.json|flight.json|addr> [--chrome out.json]
/// [--steps N]`.
pub fn trace_cmd(args: &[String]) -> CliResult {
    const VALUED: &[(&str, &str)] = &[("--chrome", "an output path"), ("--steps", "a value")];
    let source = sole_positional(
        &split_flags(args, VALUED, &[])?,
        "trace requires a `threelc serve --json` report file or a live server address",
        "trace takes exactly one report file or server address",
    )?;
    let chrome = flag_value(args, "--chrome");
    let max_steps = parse_flag(args, "--steps")?.unwrap_or(DEFAULT_MAX_STEPS);

    let node_traces = match Source::load(source)? {
        // A post-mortem dump is its own artifact (trigger, anomalies,
        // series store); render it directly instead of forcing it through
        // the report schema.
        Source::Flight(dump) => return render_flight(&dump, max_steps),
        Source::Report(report) => report.node_traces,
        // Live mode sees the server's clock domain only.
        Source::Live(addr) => vec![Source::scrape(&addr)?],
    };
    let span_count: usize = node_traces.iter().map(|n| n.spans.len()).sum();
    if span_count == 0 {
        return Err(format!(
            "{source}: no trace data; run the server and workers with THREELC_TRACE=1"
        )
        .into());
    }

    let timeline = MergedTimeline::build(&node_traces);

    let mut out = String::new();
    writeln!(
        out,
        "{span_count} spans from {} node(s), {} step(s)",
        node_traces.len(),
        timeline.steps().len()
    )?;
    out.push_str(&timeline.render_text(max_steps));

    if let Some(path) = chrome {
        let json = timeline.chrome_json();
        // Validate the export before writing: a Chrome trace that does
        // not parse is worse than no file.
        serde_json::from_str::<serde_json::Value>(&json)
            .map_err(|e| format!("internal error: Chrome export is not valid JSON: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            out,
            "wrote Chrome trace ({} aligned spans) to {path}; open in chrome://tracing or https://ui.perfetto.dev",
            timeline.spans.len()
        )?;
    }
    Ok(out)
}

/// Renders a flight-recorder dump: the trigger and fault summary, the
/// tail of every worker's series, and — when the dump carries spans — the
/// merged timeline.
fn render_flight(dump: &FlightDump, max_steps: usize) -> CliResult {
    let mut out = dump.render_text();
    out.push_str(&crate::topcmd::render_dashboard(&dump.series));
    if !dump.spans.is_empty() {
        let timeline = MergedTimeline::build(&dump.spans);
        out.push_str(&timeline.render_text(max_steps));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_obs::flight::trigger;
    use threelc_obs::timeseries::{RunRecorder, RunSeries, WorkerDelta};
    use threelc_obs::FaultEvent;

    /// A deterministic 2-worker store, 100 steps long: longer than the
    /// series window, so what it renders is the window's tail.
    fn long_store() -> RunSeries {
        let mut r = RunRecorder::new(2);
        for step in 0..100u64 {
            let deltas: Vec<WorkerDelta> = (0..2)
                .map(|w| WorkerDelta {
                    worker: w,
                    wire_bytes: 4_000 + (step * step * 7 + w as u64 * 311) % 997,
                    ratio: 12.0 + (step % 8) as f64 * 0.5,
                    loss: 2.0 - step as f64 / 128.0,
                    rejoins: u64::from(w == 1 && step >= 60),
                    step_seconds: if w == 1 { 0.125 } else { 0.015625 },
                    barrier_wait_seconds: if w == 1 { 0.25 } else { 0.0 },
                })
                .collect();
            r.record_step(step, &deltas);
        }
        r.snapshot()
    }

    #[test]
    fn dashboard_and_flight_renders_match_the_pinned_text() {
        // Both texts were rendered from this store when the series store
        // also kept every older point in buckets; a window renders the
        // same bytes.
        let store = long_store();
        assert_eq!(
            crate::topcmd::render_dashboard(&store),
            include_str!("../fixtures/top_100_steps.txt")
        );
        let fault = FaultEvent {
            step: 99,
            worker: 1,
            kind: "disconnect".into(),
            detail: "injected disconnect@99".into(),
        };
        let dump = FlightDump::new(
            trigger::ABORT,
            "barrier timed out at step 100",
            store,
            &[fault],
            Vec::new(),
            threelc_obs::Snapshot::default(),
        );
        let path = std::env::temp_dir().join(format!("threelc-pin-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_string();
        threelc_obs::write_flight_dump(&path, &dump).expect("write dump");
        let out = trace_cmd(std::slice::from_ref(&path)).expect("render dump");
        let _ = std::fs::remove_file(&path);
        assert_eq!(out, include_str!("../fixtures/flight_100_steps.txt"));
    }
}
