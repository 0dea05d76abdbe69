//! Helpers shared by the end-to-end tests that drive a traced loopback
//! cluster through the real `threelc` binary.

use std::process::Command;

/// `threelc` with tracing on for whatever role it is given: the trace and
/// analyze commands need all three span buffers.
pub fn threelc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_threelc"));
    cmd.env("THREELC_TRACE", "1");
    cmd
}

/// A per-process scratch path for `name`.
pub fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("threelc-cli-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

fn ephemeral_addr() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
    probe.local_addr().expect("addr").to_string()
}

/// Blocks until the server answers a metrics scrape. Workers started
/// before the server binds retry with a ~500 ms backoff, and that wait
/// lands in their step-0 network span — real, but it would drown a
/// 250 ms signal a test injects.
fn wait_until_serving(addr: &str) {
    for _ in 0..250 {
        let probe = Command::new(env!("CARGO_BIN_EXE_threelc"))
            .args(["metrics", addr])
            .output()
            .expect("run metrics probe");
        if probe.status.success() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    panic!("server at {addr} never started serving");
}

/// Runs a traced two-worker loopback cluster to completion: `serve` with
/// the smoke-sized 3LC experiment plus `serve_args` (step count, report
/// paths), then one `worker` per id, each first handed to `arm` so a test
/// can inject its fault. Every role must exit cleanly.
pub fn run_cluster(serve_args: &[&str], arm: impl Fn(usize, &mut Command)) {
    let addr = ephemeral_addr();
    let mut server = threelc()
        .args(["serve", "--addr", &addr, "--workers", "2"])
        .args(["--width", "16", "--blocks", "1", "--batch", "8"])
        .args(["--scheme", "3lc"])
        .args(serve_args)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    wait_until_serving(&addr);
    let workers: Vec<_> = (0..2)
        .map(|id| {
            let mut cmd = threelc();
            cmd.args(["worker", "--addr", &addr, "--id", &id.to_string()])
                .stdout(std::process::Stdio::null());
            arm(id, &mut cmd);
            cmd.spawn().expect("spawn worker")
        })
        .collect();
    for (id, mut w) in workers.into_iter().enumerate() {
        assert!(w.wait().expect("worker").success(), "worker {id} failed");
    }
    assert!(server.wait().expect("server").success());
}
