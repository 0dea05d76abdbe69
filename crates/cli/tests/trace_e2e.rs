//! End-to-end trace collection against the real `threelc` binary: a traced
//! loopback run is collected, merged and exported with every phase named,
//! and its report's metrics render offline. Blaming an injected slow
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
fn a_traced_run_exports_every_phase_and_renders_its_metrics() {
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

    // The report alone is enough for the offline metrics view.
    let table = run(&["metrics", "--from", report]);
    assert!(table.status.success(), "{}", text(&table.stderr));
    assert!(text(&table.stdout).contains("net.server"));
}
