//! The live dashboard against a running `serve`: `top --once` renders the
//! run headline and one row per worker mid-run, and `top --once --json`
//! prints the server's ring of recent steps.

mod common;

use common::Server;
use std::process::{Command, Stdio};
use std::time::Duration;

fn threelc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_threelc"))
}

#[test]
fn top_once_renders_every_worker_of_a_live_run() {
    let mut serve = threelc();
    serve
        .args(["serve", "--workers", "2", "--steps", "20"])
        .args(["--width", "16", "--blocks", "1", "--batch", "8"])
        .args(["--scheme", "3lc", "--sparsity", "1.5"])
        .stdout(Stdio::null());
    let server = Server::start(serve);
    // Worker 1 sleeps two seconds before its step-1 push, holding the
    // barrier open: a window to scrape the run live.
    let workers: Vec<_> = (0..2)
        .map(|id| {
            let mut cmd = threelc();
            cmd.args(["worker", "--addr", &server.addr, "--id", &id.to_string()]);
            if id == 1 {
                cmd.args(["--inject-fault", "delay@1:2000"]);
            }
            cmd.stdout(Stdio::null()).spawn().expect("spawn worker")
        })
        .collect();

    let top = (0..100)
        .find_map(|_| {
            let out = threelc()
                .args(["top", &server.addr, "--once"])
                .output()
                .expect("run top");
            if out.status.success() {
                return Some(String::from_utf8(out.stdout).expect("utf-8 dashboard"));
            }
            std::thread::sleep(Duration::from_millis(50));
            None
        })
        .expect("top --once never rendered a frame from the live run");
    // One row per worker, always — even before a worker's first step lands.
    for row in ["worker 0 ", "worker 1 "] {
        assert!(
            top.lines().any(|l| l.starts_with(row)),
            "no {row:?} row: {top}"
        );
    }
    assert!(top.contains("2 worker(s)"), "{top}");

    // The raw scrape reply: the ring, whatever steps it holds so far.
    let out = threelc()
        .args(["top", &server.addr, "--once", "--json"])
        .output()
        .expect("run top --json");
    assert!(out.status.success(), "top --json failed: {out:?}");
    let json = String::from_utf8(out.stdout).expect("utf-8 json");
    let recent: threelc_obs::RecentSteps =
        serde_json::from_str(&json).expect("top --json prints the ring");
    assert_eq!(recent.workers, 2);
    let steps: Vec<u64> = recent.rows.iter().map(|r| r.step).collect();
    assert!(
        steps.windows(2).all(|w| w[1] == w[0] + 1),
        "row steps must rise by one: {steps:?}"
    );

    for (id, mut w) in workers.into_iter().enumerate() {
        assert!(w.wait().expect("worker").success(), "worker {id} failed");
    }
    let served = server.finish();
    assert!(
        served.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&served.stderr)
    );
}
