//! End-to-end chaos gate against the real `threelc` binary: a run that
//! loses a worker mid-flight — to a dropped connection, or to a killed
//! process relaunched with the very same command — must end on exactly
//! the model `threelc simulate` prints, and the same fault under
//! `--max-rejoins 0` must abort instead. The second half is what shows
//! the first would catch a silently non-tolerant server.
//!
//! `kill@N` calls `std::process::exit`, so this drives processes rather
//! than in-process threads (`crates/net/tests/faults.rs` covers those).

mod common;

use common::Server;
use std::process::{Child, Command, Output, Stdio};
use threelc_net::KILL_EXIT_CODE;

/// The experiment every run here shares, as `serve` and `simulate` take it.
const EXPERIMENT: [&str; 14] = [
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
    "--sparsity",
    "1.5",
];

/// `threelc <args>` with its output captured.
fn threelc(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_threelc"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

fn spawn(args: &[&str]) -> Child {
    threelc(args).spawn().expect("spawn threelc")
}

/// `serve` with the shared experiment plus `extra` flags, on a port of its
/// own choosing.
fn serve(extra: &[&str]) -> Server {
    Server::start(threelc(&[&["serve"][..], &EXPERIMENT, extra].concat()))
}

fn finish(child: Child) -> Output {
    child.wait_with_output().expect("wait for threelc")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// The `final model crc32: …` line `simulate` and `serve` both print.
fn crc_line(text: &str) -> &str {
    text.lines()
        .find(|l| l.starts_with("final model crc32: "))
        .unwrap_or_else(|| panic!("no final-model fingerprint in: {text}"))
}

/// Asserts a finished `serve` recovered from exactly one fault onto the
/// simulator's model.
fn assert_recovered(serve: &Output) {
    let text = stdout(serve);
    assert!(
        serve.status.success(),
        "serve failed: {text}\n{}",
        String::from_utf8_lossy(&serve.stderr)
    );
    assert!(
        text.contains("faults: 1 disconnect(s), 1 rejoin(s)"),
        "got: {text}"
    );
    let simulate = finish(spawn(&[&["simulate"][..], &EXPERIMENT].concat()));
    assert!(simulate.status.success());
    assert_eq!(
        crc_line(&text),
        crc_line(&stdout(&simulate)),
        "the recovered run diverged from the simulator"
    );
}

#[test]
fn a_dropped_connection_rejoins_and_recovers_the_simulators_model() {
    let serve = serve(&[]);
    let addr = &serve.addr;
    let w0 = spawn(&[
        "worker",
        "--addr",
        addr,
        "--id",
        "0",
        "--inject-fault",
        "disconnect@2",
    ]);
    let w1 = spawn(&["worker", "--addr", addr, "--id", "1"]);
    let w0 = finish(w0);
    assert!(w0.status.success(), "worker 0: {:?}", w0);
    assert!(
        stdout(&w0).contains("rejoined 1 time(s)"),
        "got: {}",
        stdout(&w0)
    );
    assert!(finish(w1).status.success());
    assert_recovered(&serve.finish());
}

#[test]
fn a_killed_worker_relaunched_with_the_same_command_resumes_the_run() {
    let serve = serve(&[]);
    let addr = &serve.addr;
    let worker0 = ["worker", "--addr", addr, "--id", "0"];
    let doomed = spawn(&[&worker0[..], &["--inject-fault", "kill@2"]].concat());
    let w1 = spawn(&["worker", "--addr", addr, "--id", "1"]);
    // Killed between step 2's push and pull.
    assert_eq!(finish(doomed).status.code(), Some(KILL_EXIT_CODE));
    // The replacement knows nothing the original did not: the server
    // works out that slot 0 was filled before, and replays the run to it.
    let replacement = finish(spawn(&worker0));
    assert!(replacement.status.success(), "replacement: {replacement:?}");
    assert!(
        stdout(&replacement).contains("worker 0 finished 6 steps"),
        "got: {}",
        stdout(&replacement)
    );
    assert!(finish(w1).status.success());
    assert_recovered(&serve.finish());
}

#[test]
fn the_same_fault_under_max_rejoins_0_aborts_server_and_worker() {
    let serve = serve(&["--max-rejoins", "0"]);
    let addr = &serve.addr;
    let w0 = spawn(&[
        "worker",
        "--addr",
        addr,
        "--id",
        "0",
        "--inject-fault",
        "disconnect@2",
        "--max-rejoins",
        "0",
    ]);
    let w1 = spawn(&["worker", "--addr", addr, "--id", "1"]);
    assert!(
        !finish(w0).status.success(),
        "a fail-stop worker survived its injected disconnect"
    );
    let serve = serve.finish();
    assert!(
        !serve.status.success(),
        "a fail-stop server completed despite losing a worker"
    );
    let stderr = String::from_utf8_lossy(&serve.stderr);
    assert!(
        stderr.contains("worker 0 left during step 2"),
        "got: {stderr}"
    );
    // Worker 1 loses its server; how it exits is not the gate.
    let _ = finish(w1);
}
