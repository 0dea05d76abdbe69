//! End-to-end policy gate against the real `threelc` binary: an adaptive
//! policy's multipliers are deterministic and actually move, and a
//! networked `feedback` run that loses a worker to `kill@2` — relaunched
//! with the very same command — ends on `threelc simulate`'s model and
//! prints its exact decision sequence (the pulls' policy tails replay
//! during the rejoin).

mod common;

use common::{tmp, Server};
use std::process::{Command, Output, Stdio};
use threelc_net::{NetReport, KILL_EXIT_CODE};

/// The experiment every run here shares, as `serve` and `simulate` take it.
const EXPERIMENT: [&str; 12] = [
    "--workers",
    "2",
    "--steps",
    "6",
    "--width",
    "16",
    "--blocks",
    "1",
    "--batch",
    "8",
    "--scheme",
    "3lc",
];

const FEEDBACK: &str = "feedback:ratio=10000,start=1.2,gain=0.05,hold=1";

/// `threelc <args>` with its output captured.
fn threelc(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_threelc"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

fn run(args: &[&str]) -> Output {
    threelc(args).output().expect("run threelc")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// `simulate` of the shared experiment under `spec`.
fn simulate(spec: &str) -> String {
    let out = run(&[&["simulate"][..], &EXPERIMENT, &["--policy", spec]].concat());
    assert!(out.status.success(), "simulate failed: {out:?}");
    stdout(&out)
}

/// The first line of `text` that starts with `prefix`.
fn line<'a>(text: &'a str, prefix: &str) -> &'a str {
    text.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in: {text}"))
}

/// `N` of the `policy [label]: N distinct multiplier(s); …` line.
fn distinct_multipliers(text: &str) -> usize {
    let summary = line(text, "policy [");
    let (_, rest) = summary.split_once("]: ").expect("policy summary");
    rest.split_once(' ')
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no multiplier count in: {summary}"))
}

#[test]
fn adaptive_policies_are_deterministic_and_not_constant() {
    for spec in ["feedback:ratio=10000,start=1.2,gain=0.05,hold=0", FEEDBACK] {
        let a = simulate(spec);
        let b = simulate(spec);
        assert_eq!(
            line(&a, "final model crc32: "),
            line(&b, "final model crc32: "),
            "{spec}: two identical runs disagreed on the model"
        );
        assert!(
            distinct_multipliers(&a) >= 2,
            "{spec} produced a constant multiplier sequence: {a}"
        );
    }
}

#[test]
fn a_killed_feedback_worker_relaunched_reproduces_the_simulators_model_and_decisions() {
    let sim = simulate(FEEDBACK);
    let json = tmp("policy-report.json");
    let json = json.to_str().expect("utf-8 path");
    let serve = Server::start(threelc(
        &[
            &["serve"][..],
            &EXPERIMENT,
            &["--policy", FEEDBACK, "--json", json],
        ]
        .concat(),
    ));
    let addr = &serve.addr;
    let worker0 = ["worker", "--addr", addr, "--id", "0"];
    let doomed = threelc(&[&worker0[..], &["--inject-fault", "kill@2"]].concat())
        .spawn()
        .expect("spawn worker 0");
    let w1 = threelc(&["worker", "--addr", addr, "--id", "1"])
        .spawn()
        .expect("spawn worker 1");
    let doomed = doomed.wait_with_output().expect("wait for worker 0");
    assert_eq!(doomed.status.code(), Some(KILL_EXIT_CODE), "{doomed:?}");
    let replacement = run(&worker0);
    assert!(replacement.status.success(), "replacement: {replacement:?}");
    let w1 = w1.wait_with_output().expect("wait for worker 1");
    assert!(w1.status.success(), "worker 1: {w1:?}");

    let serve = serve.finish();
    let text = stdout(&serve);
    assert!(
        serve.status.success(),
        "serve failed: {text}\n{}",
        String::from_utf8_lossy(&serve.stderr)
    );
    for prefix in ["final model crc32: ", "policy ["] {
        assert_eq!(
            line(&text, prefix),
            line(&sim, prefix),
            "the recovered run diverged from the simulator"
        );
    }
    let report: NetReport =
        serde_json::from_str(&std::fs::read_to_string(json).expect("json report"))
            .expect("parse report");
    assert!(
        !report.result.trace.policy.is_constant(),
        "the report's multiplier sequence is constant"
    );
}
