//! Runs the real command on its `--quick` sizes and holds its output to
//! the contract in `BENCHMARK.json`: every metric named there is printed,
//! with its unit, by the run it belongs to.

use serde_json::Value;
use std::process::Command;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON")
}

fn listed(benchmark: &Value, key: &str) -> Vec<(String, String)> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .expect("list present")
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

/// Runs one `--quick` run and returns its result line, parsed.
fn quick_run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_threelc-ledger"))
        .args([
            "--workload",
            workload,
            "--trace",
            trace,
            "--seed",
            "43",
            "--quick",
        ])
        .output()
        .expect("the ledger runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a last line")).expect("a JSON result line")
}

fn assert_complete(result: &Value, expected: &[(String, String)], what: &str) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed"),
        Some(&Value::Number("0".into())),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Some(Value::Number(_))),
                "{what}: {name} has no value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(printed, expected, "{what}");
}

#[test]
fn quick_runs_print_every_metric_benchmark_json_names() {
    let benchmark = benchmark();
    let end_to_end = listed(&benchmark, "end_to_end");
    let per_layer = listed(&benchmark, "per_layer");
    // One 3LC workload (symbol-domain server path) and the f32 one (dense
    // path); the two width-1024 workloads run the same code on a bigger model.
    for workload in ["mlp512-3lc", "mlp512-f32"] {
        assert_complete(&quick_run(workload, "0"), &end_to_end, workload);
        assert_complete(&quick_run(workload, "1"), &per_layer, workload);
    }
}

#[test]
fn the_whole_command_writes_a_comparable_file_and_compares_it_with_itself() {
    // Cargo's per-test scratch directory, inside the target directory.
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick.json");
    let exe = env!("CARGO_BIN_EXE_threelc-ledger");
    let status = Command::new(exe)
        .args(["--workload", "mlp512-3lc", "--quick", "--out"])
        .arg(&out)
        .status()
        .expect("the ledger runs");
    assert!(status.success());
    let file: Value =
        serde_json::from_str(&std::fs::read_to_string(&out).expect("--out written")).expect("JSON");
    assert!(file.get("fingerprint").is_some());
    let compared = Command::new(exe)
        .arg("--compare")
        .arg(&out)
        .arg(&out)
        .output()
        .expect("runs");
    assert!(compared.status.success());
    assert!(String::from_utf8_lossy(&compared.stdout).contains("step_s"));
}

#[test]
fn bad_arguments_are_refused_before_anything_runs() {
    for args in [
        &["--workload", "no-such"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_threelc-ledger"))
            .args(args)
            .output()
            .expect("the ledger runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
