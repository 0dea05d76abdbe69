//! End-to-end trace collection against the real `threelc` binary: a traced
//! loopback run is collected, merged and exported with every phase named,
//! `trace --check` passes it, its report's metrics render offline — and a
//! worker slowed by `THREELC_STRAGGLE_MS` fails the same check as a
//! straggler.

mod common;
use common::{run_cluster, threelc, tmp};
use std::process::Output;

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn run(args: &[&str]) -> Output {
    threelc().args(args).output().expect("run threelc")
}

#[test]
fn a_traced_run_exports_every_phase_and_passes_the_check() {
    let report = tmp("trace-report.json");
    let report = report.to_str().unwrap();
    run_cluster(
        &["--steps", "4", "--sparsity", "1.5", "--json", report],
        |_, _| {},
    );

    let chrome = tmp("trace-chrome.json");
    let export = run(&["trace", report, "--chrome", chrome.to_str().unwrap()]);
    assert!(export.status.success(), "{}", text(&export.stderr));
    let exported = std::fs::read_to_string(&chrome).expect("chrome file");
    // All nine of them.
    for phase in threelc_obs::PHASES {
        assert!(
            exported.contains(&format!("\"name\":\"{phase}\"")),
            "phase {phase} missing from the Chrome trace export"
        );
    }

    // `--check` passes a healthy run. The straggler rule compares wall
    // clocks, and on a loaded host a worker-local phase of a healthy run
    // can be a genuine 4x-median outlier, so the check reads a copy whose
    // worker spans all last one microsecond: what is asserted is the
    // command end to end and the deterministic step statistics.
    let mut parsed: threelc_net::NetReport =
        serde_json::from_str(&std::fs::read_to_string(report).expect("report"))
            .expect("parse report");
    for lane in &mut parsed.node_traces {
        if lane.clock.starts_with("worker") {
            for span in &mut lane.spans {
                span.end_ns = span.start_ns + 1_000;
            }
        }
    }
    let level = tmp("trace-level-report.json");
    std::fs::write(&level, serde_json::to_string(&parsed).unwrap()).unwrap();
    let check = run(&["trace", level.to_str().unwrap(), "--check"]);
    assert!(
        check.status.success(),
        "stdout: {}\nstderr: {}",
        text(&check.stdout),
        text(&check.stderr)
    );
    assert!(text(&check.stdout).contains("no anomalies"));

    // The report alone is enough for the offline metrics view.
    let table = run(&["metrics", "--from", report]);
    assert!(table.status.success(), "{}", text(&table.stderr));
    assert!(text(&table.stdout).contains("net.server"));
}

#[test]
fn an_injected_straggler_fails_the_check() {
    let report = tmp("straggle-report.json");
    let report = report.to_str().unwrap();
    // Worker 0 sleeps 250 ms inside every compute span.
    run_cluster(
        &["--steps", "4", "--sparsity", "1.5", "--json", report],
        |id, worker| {
            if id == 0 {
                worker.env("THREELC_STRAGGLE_MS", "250");
            }
        },
    );
    let check = run(&["trace", report, "--check"]);
    assert!(
        !check.status.success(),
        "trace --check passed despite an injected 250 ms straggler"
    );
    let said = text(&check.stdout) + &text(&check.stderr);
    assert!(said.contains("straggler"), "got: {said}");
}
