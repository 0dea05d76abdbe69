//! Handshake edge cases at both ends of a run, driven by a hand-rolled
//! server against the real `run_worker`. Shutdown: the worker must answer
//! any number of trace scrapes (with an empty buffer when tracing is off),
//! and answer an unexpected message with a protocol error — never a hang.
//! Join: the `HelloAck`'s resume step and the replay behind it are checked
//! before the worker trusts either.

use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;
use threelc_baselines::SchemeKind;
use threelc_distsim::{ExperimentConfig, Problem, TensorPayload};
use threelc_net::frame::{read_frame, write_frame, write_frame_parts, TraceCtx};
use threelc_net::protocol::{decode_scrape_reply, StepPayload};
use threelc_net::{run_worker, MsgType, NetError, ScrapeKind, WorkerOptions};
use threelc_obs::NodeTrace;
use threelc_tensor::Tensor;

/// The `Scrape` payload asking for the span buffer.
const TRACE: [u8; 1] = [ScrapeKind::Trace as u8];

/// A zero-step run: the worker handshakes, skips the BSP loop entirely,
/// and goes straight to the shutdown phase — the phase under test.
fn shutdown_only_config() -> ExperimentConfig {
    ExperimentConfig {
        scheme: SchemeKind::Float32,
        workers: 1,
        batch_per_worker: 4,
        total_steps: 0,
        model_width: 8,
        model_blocks: 1,
        eval_every: 0,
        seed: 9,
        ..Default::default()
    }
}

/// Accepts one worker and completes the Hello/HelloAck handshake of a
/// first join, returning the connected stream.
fn accept_worker(listener: &TcpListener, config: &ExperimentConfig) -> TcpStream {
    accept_worker_at(listener, config, 0)
}

/// As [`accept_worker`], granting `resume_step` in the ack's header.
fn accept_worker_at(
    listener: &TcpListener,
    config: &ExperimentConfig,
    resume_step: u64,
) -> TcpStream {
    let (stream, _) = listener.accept().expect("accept worker");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let hello = read_frame(&mut &stream).expect("hello frame");
    assert_eq!(hello.msg, MsgType::Hello);
    let json = serde_json::to_string(config).expect("config json");
    write_frame(
        &mut &stream,
        MsgType::HelloAck,
        0,
        resume_step,
        json.as_bytes(),
    )
    .expect("hello ack");
    stream
}

/// Spawns the worker client against `addr` with no retry slack.
fn spawn_worker(addr: String) -> thread::JoinHandle<Result<threelc_net::WorkerOutcome, NetError>> {
    thread::spawn(move || {
        let mut opts = WorkerOptions::new(addr, 0);
        opts.io_timeout = Duration::from_secs(10);
        run_worker(&opts)
    })
}

#[test]
fn worker_answers_repeated_trace_scrapes() {
    let config = shutdown_only_config();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let worker = spawn_worker(addr);
    let stream = accept_worker(&listener, &config);

    // The shutdown phase may legitimately ask for the span buffer more
    // than once (e.g. a retried collection). Every request gets a reply.
    for round in 0..2 {
        write_frame(&mut &stream, MsgType::Scrape, 0, 0, &TRACE).expect("request");
        let dump = read_frame(&mut &stream).expect("dump frame");
        assert_eq!(dump.msg, MsgType::ScrapeReply, "round {round}");
        let node: NodeTrace = decode_scrape_reply(&dump.payload).expect("dump payload");
        // Tracing is off in this process: the reply is a well-formed,
        // empty buffer — not an error, not silence.
        assert_eq!(node.clock, "worker0", "round {round}");
        assert!(node.spans.is_empty(), "round {round}");
        assert_eq!(node.dropped, 0, "round {round}");
    }
    write_frame(&mut &stream, MsgType::Shutdown, 0, 0, &[]).expect("shutdown");
    let ack = read_frame(&mut &stream).expect("shutdown ack");
    assert_eq!(ack.msg, MsgType::ShutdownAck);
    let outcome = worker
        .join()
        .expect("worker thread")
        .expect("zero-step run completes");
    assert_eq!(outcome.steps, 0);
    assert_eq!(outcome.rejoins, 0);
}

#[test]
fn unexpected_message_during_shutdown_is_a_protocol_error() {
    let config = shutdown_only_config();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let worker = spawn_worker(addr);
    let stream = accept_worker(&listener, &config);

    // A step's pull where Shutdown/Scrape belongs: the worker must reject
    // it by name instead of hanging or acking.
    write_frame(&mut &stream, MsgType::PullDone, 0, 0, &[1, 2, 3]).expect("bogus frame");
    let result = worker.join().expect("worker thread");
    match result {
        Err(NetError::Protocol(msg)) => {
            assert!(
                msg.contains("Shutdown"),
                "error should name the expected message: {msg}"
            );
        }
        Err(other) => panic!("expected a protocol error, got: {other}"),
        Ok(_) => panic!("worker accepted a pull frame during shutdown"),
    }
}

#[test]
fn tracing_enabled_worker_drains_real_spans_once() {
    // With tracing on and a zero-step run the buffer is still empty of
    // step spans, but the exchange must carry the worker's clock label and
    // remain repeatable: a second request after the drain answers with an
    // empty buffer rather than failing.
    threelc_obs::set_trace_enabled(true);
    let config = shutdown_only_config();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let worker = spawn_worker(addr);
    let stream = accept_worker(&listener, &config);

    write_frame(&mut &stream, MsgType::Scrape, 0, 0, &TRACE).expect("request");
    let first = read_frame(&mut &stream).expect("dump frame");
    assert_eq!(first.msg, MsgType::ScrapeReply);
    let node: NodeTrace = decode_scrape_reply(&first.payload).expect("dump payload");
    assert_eq!(node.clock, "worker0");

    // The drain emptied the buffer; a retry is still answered.
    write_frame(&mut &stream, MsgType::Scrape, 0, 0, &TRACE).expect("request");
    let second = read_frame(&mut &stream).expect("dump frame");
    let node: NodeTrace = decode_scrape_reply(&second.payload).expect("dump payload");
    assert!(node.spans.is_empty());

    write_frame(&mut &stream, MsgType::Shutdown, 0, 0, &[]).expect("shutdown");
    let ack = read_frame(&mut &stream).expect("shutdown ack");
    assert_eq!(ack.msg, MsgType::ShutdownAck);
    worker
        .join()
        .expect("worker thread")
        .expect("zero-step run completes");
    threelc_obs::set_trace_enabled(false);
}

#[test]
fn a_resume_step_or_replay_that_does_not_fit_the_run_is_a_protocol_error() {
    let protocol_error = |config: ExperimentConfig, resume_step: u64, replay_step: Option<u64>| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let worker = spawn_worker(addr);
        let stream = accept_worker_at(&listener, &config, resume_step);
        if let Some(step) = replay_step {
            // A well-formed pull of the model's every tensor, stamped with
            // the wrong step.
            let problem = Problem::build(&config);
            let zeros = (problem.shapes.iter().zip(&problem.compressible)).map(|(s, &c)| {
                let zeros = Tensor::zeros(s.clone());
                match c {
                    true => TensorPayload::Compressed(zeros.to_le_bytes()),
                    false => TensorPayload::Raw(zeros),
                }
            });
            let pull = StepPayload::new(Vec::new(), zeros.collect(), Vec::new());
            let none = TraceCtx::default();
            write_frame_parts(
                &mut &stream,
                MsgType::PullDone,
                0,
                step,
                none,
                &pull.parts(),
            )
            .expect("replay frame");
        }
        match worker.join().expect("worker thread") {
            Err(NetError::Protocol(msg)) => msg,
            Err(other) => panic!("expected a protocol error, got: {other}"),
            Ok(_) => panic!("the worker trusted a resume step of {resume_step}"),
        }
    };
    // The ack's header grants a step the run does not have.
    let msg = protocol_error(shutdown_only_config(), 1, None);
    assert!(msg.contains("resume step 1 beyond the 0-step run"), "{msg}");
    // The grant fits, but the replay behind it is not step 0's batch.
    let two_steps = ExperimentConfig {
        total_steps: 2,
        ..shutdown_only_config()
    };
    let msg = protocol_error(two_steps, 1, Some(1));
    assert!(msg.contains("server sent step 1 during step 0"), "{msg}");
}
