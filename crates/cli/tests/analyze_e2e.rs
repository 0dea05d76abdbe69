//! End-to-end causal-attribution test against the real `threelc` binary:
//! a traced loopback serve/worker run with an injected 250 ms delay on
//! worker 1, then `threelc analyze` must blame worker 1's network phase
//! — the ground-truth gate, exercised hermetically (ci.sh runs it only
//! through `cargo test`).

mod common;
use common::{run_cluster, threelc, tmp};

#[test]
fn injected_delay_is_blamed_on_the_right_worker_and_phase() {
    let report = tmp("delayed-report.json");
    // Worker 1 sleeps 250 ms before its step-2 push — from the server's
    // vantage point, a slow wire.
    run_cluster(
        &["--steps", "5", "--json", report.to_str().unwrap()],
        |id, worker| {
            if id == 1 {
                worker.args(["--inject-fault", "delay@2:250"]);
            }
        },
    );

    // The ground-truth gate: the injected delay must surface as worker1's
    // network phase topping the blame ledger AND being flagged.
    let blame = threelc()
        .args([
            "analyze",
            report.to_str().unwrap(),
            "--expect-blame",
            "worker1:network",
        ])
        .output()
        .expect("run analyze");
    let stdout = String::from_utf8_lossy(&blame.stdout);
    let stderr = String::from_utf8_lossy(&blame.stderr);
    assert!(
        blame.status.success(),
        "blame gate failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("blame check passed"), "got: {stdout}");
    assert!(
        stdout.contains("bottleneck [worker1/network]"),
        "got: {stdout}"
    );

    // The inverse gate: a run with a flagged bottleneck must fail --check.
    let check = threelc()
        .args(["analyze", report.to_str().unwrap(), "--check"])
        .output()
        .expect("run analyze --check");
    assert!(
        !check.status.success(),
        "--check must fail on a flagged bottleneck"
    );

    // Machine-readable path: attribution conserved, delay visible in the
    // totals, and at least ~200 ms landed on worker1/network.
    let json = threelc()
        .args(["analyze", report.to_str().unwrap(), "--json"])
        .output()
        .expect("run analyze --json");
    assert!(json.status.success());
    let analysis: threelc_obs::RunAnalysis =
        serde_json::from_str(&String::from_utf8_lossy(&json.stdout)).expect("parse analysis JSON");
    assert_eq!(analysis.steps.len(), 5);
    assert!(
        analysis.conservation_error < 0.05,
        "residual {}",
        analysis.conservation_error
    );
    let top = analysis.top().expect("top bucket");
    assert_eq!(
        (top.node.as_str(), top.phase.as_str()),
        ("worker1", "network")
    );
    assert!(
        top.seconds > 0.2,
        "expected ≥200 ms of blame, got {}",
        top.seconds
    );
}

#[test]
fn clean_run_attribution_is_conserved() {
    let report = tmp("clean-report.json");
    run_cluster(
        &["--steps", "4", "--json", report.to_str().unwrap()],
        |_, _| {},
    );

    // Every step's buckets must sum to its measured wall time. The
    // bottleneck flag is deliberately not asserted here: a loaded host
    // can make a debug-build loopback step genuinely lopsided, and that
    // verdict would be correct — conservation is the invariant.
    let json = threelc()
        .args(["analyze", report.to_str().unwrap(), "--json"])
        .output()
        .expect("run analyze --json");
    assert!(json.status.success());
    let analysis: threelc_obs::RunAnalysis =
        serde_json::from_str(&String::from_utf8_lossy(&json.stdout)).expect("parse analysis JSON");
    assert_eq!(analysis.steps.len(), 4);
    assert!(
        analysis.conservation_error < 0.05,
        "residual {}",
        analysis.conservation_error
    );
    for st in &analysis.steps {
        let sum: f64 = st.buckets.iter().map(|b| b.seconds).sum();
        assert!(
            (sum - st.wall_seconds).abs() <= 0.05 * st.wall_seconds.max(1e-9),
            "step {}: buckets sum {sum} vs wall {}",
            st.step,
            st.wall_seconds
        );
    }

    // The per-tensor view: one row per tensor, by wire bytes. Its shares
    // are the report's per-tensor bytes, and its codec column is every
    // worker `quantize`/`encode` µs per worker step.
    let run: threelc_net::NetReport =
        serde_json::from_str(&std::fs::read_to_string(&report).expect("report"))
            .expect("parse report");
    let traffic = &run.result.trace.tensors;
    assert_eq!(analysis.tensors.len(), traffic.len());
    let wire = |i: usize| traffic[i].push.wire_bytes + traffic[i].pull.wire_bytes;
    let total: u64 = (0..traffic.len()).map(wire).sum();
    let bytes: Vec<u64> = analysis.tensors.iter().map(|r| wire(r.tensor)).collect();
    assert!(bytes.windows(2).all(|w| w[0] >= w[1]), "{bytes:?}");
    for r in &analysis.tensors {
        assert!((r.wire_share - wire(r.tensor) as f64 / total as f64).abs() < 1e-12);
        assert_eq!(r.codec_us_per_step > 0.0, !r.raw, "{r:?}");
    }
    let codec = |s: &&threelc_obs::SpanRecord| s.name == "quantize" || s.name == "encode";
    let worker_spans = (run.node_traces.iter())
        .filter(|n| n.clock.starts_with("worker"))
        .flat_map(|n| &n.spans);
    let codec_us: f64 = worker_spans
        .clone()
        .filter(codec)
        .map(|s| s.seconds() * 1e6)
        .sum();
    let worker_steps = worker_spans
        .map(|s| (s.node.as_str(), s.step))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let column: f64 = analysis.tensors.iter().map(|r| r.codec_us_per_step).sum();
    let per_step = codec_us / worker_steps as f64;
    assert!(
        (column - per_step).abs() <= 1e-9 * per_step,
        "{column} != {per_step}"
    );

    // The text path renders the same analysis, and `--check` gates on the
    // same invariant: whatever it says about bottlenecks (see above), it
    // must not report a broken conservation, and a pass says so.
    let text = threelc()
        .args(["analyze", report.to_str().unwrap()])
        .output()
        .expect("run analyze");
    assert!(text.status.success());
    let text = String::from_utf8_lossy(&text.stdout);
    assert!(text.contains("critical path over"), "got: {text}");
    assert!(text.contains("per tensor, by wire bytes"), "got: {text}");
    let check = threelc()
        .args(["analyze", report.to_str().unwrap(), "--check"])
        .output()
        .expect("run analyze --check");
    let stdout = String::from_utf8_lossy(&check.stdout);
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(!stderr.contains("attribution not conserved"), "{stderr}");
    assert!(
        !check.status.success() || stdout.contains("attribution conserved"),
        "got: {stdout}"
    );
}
