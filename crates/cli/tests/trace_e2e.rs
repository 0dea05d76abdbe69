//! End-to-end trace collection against the real `threelc` binary: a traced
//! loopback run is collected, merged and exported with every phase named,
//! and its report books every connection's bytes. Blaming an injected slow
//! worker is `analyze_e2e.rs`'s.

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
fn a_traced_run_exports_every_phase_and_reports_its_bytes() {
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

    // The report's exact per-connection counters are the transport
    // record: both workers' bytes, both ways.
    let json = std::fs::read_to_string(report).expect("report file");
    let parsed: threelc_net::NetReport = serde_json::from_str(&json).expect("parse report");
    assert_eq!(parsed.connections.len(), 2);
    for c in &parsed.connections {
        assert!(c.counters.bytes_in > 0 && c.counters.bytes_out > 0, "{c:?}");
    }
}
