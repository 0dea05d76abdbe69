//! End-to-end post-mortem forensics: a loopback run killed mid-flight
//! must leave behind a `.flight.json` dump with one row of per-worker
//! deltas for every completed step, the triggering fault and the server's
//! spans, in place of the report it never wrote.
//!
//! `kill@N` calls `std::process::exit`, so this test drives the real
//! `threelc` binary rather than in-process threads.

mod common;

use common::{tmp, Server};
use std::process::{Command, Stdio};

/// Exit code of a `kill@N`-faulted worker ([`threelc_net`]'s contract).
const KILL_EXIT_CODE: i32 = 43;

#[test]
fn aborted_run_leaves_a_flight_dump() {
    let json = tmp("report.json");
    let flight = tmp("report.flight.json");
    let _ = std::fs::remove_file(&flight);

    let bin = env!("CARGO_BIN_EXE_threelc");
    let mut serve = Command::new(bin);
    serve
        .args([
            "serve",
            "--workers",
            "1",
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
            "--max-rejoins",
            "0",
            "--rejoin-timeout",
            "5",
            "--json",
            json.to_str().unwrap(),
        ])
        .env("THREELC_TRACE", "1")
        .env("THREELC_LOG", "warn")
        .stdout(Stdio::null());
    let server = Server::start(serve);

    // The worker dies between push and pull of step 2; with fail-stop
    // (--max-rejoins 0) the server must then abort.
    let worker = Command::new(bin)
        .args([
            "worker",
            "--addr",
            &server.addr,
            "--id",
            "0",
            "--inject-fault",
            "kill@2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run worker");
    assert_eq!(
        worker.code(),
        Some(KILL_EXIT_CODE),
        "kill@2 must exit the worker process with the kill code"
    );

    let served = server.finish();
    assert!(
        !served.status.success(),
        "a fail-stop server must exit nonzero after losing its worker"
    );
    // THREELC_LOG prints the server's events as JSONL on stderr.
    let events = String::from_utf8_lossy(&served.stderr);
    for event in ["server.worker_disconnected", "flight.dump"] {
        assert!(
            events.contains(&format!("\"event\":\"{event}\"")),
            "no {event} event on stderr: {events}"
        );
    }

    // The flight dump: derived from --json automatically, abort trigger,
    // the kill recorded as an anomaly, and both completed steps' rows.
    let text = std::fs::read_to_string(&flight).expect("flight dump exists");
    let dump = threelc_obs::FlightDump::from_json(&text).expect("dump parses");
    assert_eq!(dump.trigger, "abort", "detail: {}", dump.detail);
    // The kill fires between push and pull of step 2, so at least steps 0
    // and 1 folded into the store (step 2 itself may or may not have,
    // depending on whether its push landed before the socket died).
    assert!(
        (2..=3).contains(&dump.steps_recorded),
        "steps 0 and 1 completed before the kill; got {}",
        dump.steps_recorded
    );
    assert!(
        !dump.anomalies.is_empty(),
        "the disconnect must be recorded as an anomaly"
    );
    assert!(
        dump.anomalies
            .iter()
            .any(|a| a.kind == "fault-disconnect" && a.node == "worker0"),
        "got: {:?}",
        dump.anomalies
    );
    assert_eq!(dump.recent.workers, 1);
    let steps: Vec<u64> = dump.recent.rows.iter().map(|r| r.step).collect();
    assert_eq!(
        steps,
        (0..dump.steps_recorded).collect::<Vec<_>>(),
        "one row per completed step"
    );
    for row in &dump.recent.rows {
        let [d] = &row.deltas[..] else {
            panic!("step {} holds {} deltas", row.step, row.deltas.len());
        };
        assert_eq!(d.worker, 0);
        assert!(d.wire_bytes > 0, "step {}: {d:?}", row.step);
    }

    // `threelc trace` reads the dump and names the fault: its kind, its
    // step and the worker it hit.
    let rendered = Command::new(bin)
        .args(["trace", flight.to_str().unwrap()])
        .output()
        .expect("trace render");
    assert!(rendered.status.success());
    let out = String::from_utf8_lossy(&rendered.stdout);
    assert!(out.contains("trigger=abort"), "got: {out}");
    let fault = dump
        .anomalies
        .iter()
        .find(|a| a.kind == "fault-disconnect")
        .expect("the kill's fault");
    assert!(
        out.contains(&format!(
            "[fault-disconnect] step {}: {}",
            fault.step, fault.detail
        )),
        "got: {out}"
    );

    // A traced abort snapshots the server's own span buffer into the dump
    // (workers' spans are only drained at graceful shutdown), so the
    // critical-path analyzer works on the post-mortem too.
    assert!(
        dump.spans.iter().any(|n| !n.spans.is_empty()),
        "a THREELC_TRACE=1 abort must carry the server's spans"
    );
    let analyzed = Command::new(bin)
        .args(["analyze", flight.to_str().unwrap()])
        .output()
        .expect("analyze dump");
    assert!(
        analyzed.status.success(),
        "analyze on the dump: {}",
        String::from_utf8_lossy(&analyzed.stderr)
    );
    let out = String::from_utf8_lossy(&analyzed.stdout);
    assert!(out.contains("critical path over"), "got: {out}");

    // No partial report: the run never finished, so --json wrote nothing.
    assert!(!json.exists(), "aborted runs must not write a final report");
}
