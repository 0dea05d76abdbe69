//! The `--trace 1` run: the replay, the kernel timings, and real runs of
//! the same short configuration that tie the replay back to the runtime —
//! a 1-step run, then untraced / traced / untraced runs of the replayed
//! length. The untraced ones must reproduce the replay's bytes and final
//! model and give the step time the critical path is held against; the
//! traced one, bracketed so that a drift across runs cancels, prices the
//! program's own tracer.

use crate::e2e::{loopback_run, Check, LoopbackRun};
use crate::kernels;
use crate::replay::{self, StepBytes};
use crate::span::{span_cost_us, Lane, Span};
use crate::stats::step_seconds;
use crate::workload::Workload;
use threelc_distsim::Cluster;
use threelc_net::{model_crc32, HEADER_LEN};
use threelc_obs::trace::set_trace_enabled;

/// A critical path this far short of the measured step is worth a
/// warning: the replay is blind to that much of what a step costs.
const UNATTRIBUTED_WARN_SHARE: f64 = 0.25;

pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
    pub warnings: Vec<String>,
    pub spans: Vec<Span>,
    /// Steps of the four real runs; a failed one fails the whole run.
    pub steps_attempted: u64,
}

/// Replays `steps` steps of `workload` and measures every per-layer
/// metric. `steps` must be at least 2: the step time of the real run is a
/// difference of two runs.
pub fn run(workload: &Workload, seed: u64, steps: u64) -> Result<Traced, String> {
    assert!(steps >= 2, "the traced run needs two steps");
    let config = workload.config(seed, steps);
    let workers = config.workers as f64;
    // Whatever the environment says, end-to-end numbers are untraced.
    set_trace_enabled(false);

    let built = replay::build(&config);
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("distsim.problem_build_us", built.problem_build_us),
        ("distsim.replica_new_us", built.replica_new_us),
        ("distsim.server_new_us", built.server_new_us),
    ];
    let replay = replay::replay(built)?;
    let worker_lanes: Vec<Lane> = (0..config.workers).map(Lane::Worker).collect();
    let handler_lanes: Vec<Lane> = (0..config.workers).map(Lane::Handler).collect();
    let coordinator = [Lane::Coordinator];
    for (metric, span, lanes) in [
        ("learning.compute_us", "learning.compute", &worker_lanes[..]),
        (
            "distsim.encode_push_us",
            "distsim.encode_push",
            &worker_lanes,
        ),
        (
            "distsim.pull_decode_us",
            "distsim.pull_decode",
            &worker_lanes,
        ),
        (
            "distsim.apply_deltas_us",
            "distsim.apply_deltas",
            &worker_lanes,
        ),
        ("distsim.apply_step_us", "distsim.apply_step", &coordinator),
        ("net.push_write_us", "net.push_write", &worker_lanes),
        ("net.push_read_us", "net.push_read", &handler_lanes),
        ("net.pull_read_us", "net.pull_read", &worker_lanes),
    ] {
        metrics.push((metric, replay.span_us(span, lanes)));
    }
    // The shared pull batch is serialised once; split it evenly over the
    // workers it is then written to.
    metrics.push((
        "net.pull_write_us",
        replay.span_us("net.pull_write", &handler_lanes)
            + replay.span_us("net.pull_serialize", &coordinator) / workers,
    ));
    metrics.extend(kernels::measure(&replay));
    metrics.push(("core.push_bits_per_value", replay.push_bits_per_value));
    metrics.push(("core.pull_bits_per_value", replay.pull_bits_per_value));
    metrics.push(("core.zero_run_share", replay.zero_run_share));
    metrics.push(("net.frames_per_step", replay.frames_per_step as f64));
    metrics.push((
        "net.header_bytes_per_step",
        (replay.frames_per_step * HEADER_LEN as u64) as f64,
    ));
    let critical_us = replay.critical_path_us();
    let (replay_step_us, spans_per_step) = replay.step_us_and_spans_per_step();
    metrics.push(("ledger.critical_path_us", critical_us));
    metrics.push(("ledger.replay_step_us", replay_step_us));
    metrics.push(("ledger.span_overhead_us", spans_per_step * span_cost_us()));
    // The step span's self time: the replay's own bookkeeping between calls.
    metrics.push(("ledger.unrecorded_us", replay.span_us("step", &coordinator)));

    // ---- The real runs.
    let real = |what: &str, run: Result<LoopbackRun, String>| {
        run.map_err(|e| format!("the {what} real run failed: {e}"))
    };
    let short = real("1-step", loopback_run(&workload.config(seed, 1)))?;
    let plain = real("untraced", loopback_run(&config))?;
    set_trace_enabled(true);
    let traced = loopback_run(&config);
    set_trace_enabled(false);
    let traced = real("traced", traced)?;
    let plain_again = real("second untraced", loopback_run(&config))?;
    let plain_wall_s = (plain.wall_s + plain_again.wall_s) / 2.0;
    let step_us = step_seconds(short.wall_s, plain_wall_s, steps - 1) * 1e6;
    let unattributed_us = step_us - critical_us;
    metrics.push(("net.unattributed_us", unattributed_us));
    metrics.push(("obs.trace_overhead", traced.wall_s / plain_wall_s - 1.0));
    let program_spans: usize = traced
        .report
        .node_traces
        .iter()
        .map(|n| n.spans.len())
        .sum();
    metrics.push(("obs.spans_per_step", program_spans as f64 / steps as f64));
    let mut warnings = Vec::new();
    if unattributed_us > UNATTRIBUTED_WARN_SHARE * step_us {
        warnings.push(format!(
            "net.unattributed_us is {:.0}% of the {:.0} us step: socket, scheduler and \
             handler-coordinator hand-off the replay cannot see",
            100.0 * unattributed_us / step_us,
            step_us
        ));
    }

    // ---- Output checks: one model from three drivers of the same
    // configuration, and the same bytes on the wire step for step.
    let mut simulator = Cluster::new(config);
    for _ in 0..steps {
        simulator.step();
    }
    let crcs = [
        plain.report.final_model_crc32,
        model_crc32(simulator.global_model()),
        replay.final_model_crc32,
    ];
    let real_bytes: Vec<StepBytes> = plain
        .report
        .result
        .trace
        .steps
        .iter()
        .map(|s| StepBytes {
            push: s.push_bytes,
            pull: s.pull_bytes,
            raw: s.raw_bytes,
        })
        .collect();
    let checks = vec![
        Check::new(
            "serve-simulator-replay-agree",
            crcs.iter().all(|&c| c == crcs[0]),
            format!(
                "{steps}-step final_model_crc32: serve {:08x}, simulator {:08x}, replay {:08x}",
                crcs[0], crcs[1], crcs[2]
            ),
        ),
        Check::new(
            "replay-bytes-match-real-run",
            real_bytes == replay.step_bytes,
            format!(
                "push/pull/raw bytes of {} replayed steps against {} real ones",
                replay.step_bytes.len(),
                real_bytes.len()
            ),
        ),
    ];
    Ok(Traced {
        metrics,
        checks,
        warnings,
        spans: replay.spans,
        steps_attempted: 1 + 3 * steps,
    })
}
