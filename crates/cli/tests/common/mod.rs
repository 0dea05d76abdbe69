//! Helpers shared by the end-to-end tests that drive a loopback cluster
//! through the real `threelc` binary.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Output, Stdio};
use std::thread::JoinHandle;

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

/// A `threelc serve` listening on a port the kernel chose.
pub struct Server {
    child: Child,
    /// The address it bound, as it reported it.
    pub addr: String,
    /// Everything else it writes to stderr.
    stderr: JoinHandle<String>,
}

impl Server {
    /// Starts `serve` (a `threelc serve …` command without `--addr`) on
    /// `127.0.0.1:0` and reads back the address it bound from the line it
    /// prints to stderr. The port is taken by the server itself; probing
    /// for a free one here and handing it over would leave a window in
    /// which a concurrently running test binds it first.
    pub fn start(mut serve: Command) -> Server {
        let mut child = serve
            .args(["--addr", "127.0.0.1:0"])
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut before = String::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line).expect("read serve's stderr") == 0 {
                panic!("serve exited without reporting its address: {before}");
            }
            if let Some(addr) = line.strip_prefix("listening on ") {
                break addr.trim().to_string();
            }
            before.push_str(&line);
        };
        let stderr = std::thread::spawn(move || {
            stderr
                .read_to_string(&mut before)
                .expect("read serve's stderr");
            before
        });
        Server {
            child,
            addr,
            stderr,
        }
    }

    /// Waits for the server to exit: its status, its stdout if that was
    /// piped, and its stderr but for the address line.
    pub fn finish(self) -> Output {
        let mut output = self.child.wait_with_output().expect("wait for serve");
        output.stderr = self.stderr.join().expect("stderr reader").into_bytes();
        output
    }
}

/// Blocks until the server answers a `top --once` scrape, which it does once
/// its own `Problem::build` is done: a worker started before then would
/// spend that wait inside its step-0 network span — real, but it would
/// drown a 250 ms signal a test injects.
fn wait_until_serving(addr: &str) {
    for _ in 0..250 {
        let probe = Command::new(env!("CARGO_BIN_EXE_threelc"))
            .args(["top", addr, "--once"])
            .output()
            .expect("run top probe");
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
    let mut serve = threelc();
    serve
        .args(["serve", "--workers", "2"])
        .args(["--width", "16", "--blocks", "1", "--batch", "8"])
        .args(["--scheme", "3lc"])
        .args(serve_args)
        .stdout(Stdio::null());
    let server = Server::start(serve);
    wait_until_serving(&server.addr);
    let workers: Vec<_> = (0..2)
        .map(|id| {
            let mut cmd = threelc();
            cmd.args(["worker", "--addr", &server.addr, "--id", &id.to_string()])
                .stdout(Stdio::null());
            arm(id, &mut cmd);
            cmd.spawn().expect("spawn worker")
        })
        .collect();
    for (id, mut w) in workers.into_iter().enumerate() {
        assert!(w.wait().expect("worker").success(), "worker {id} failed");
    }
    let server = server.finish();
    assert!(
        server.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&server.stderr)
    );
}
