//! The worker side of the networked runtime.
//!
//! A worker connects (with bounded retry and exponential backoff),
//! receives the experiment configuration from the server's `HelloAck`,
//! derives the identical [`Problem`] instance locally, and then runs the
//! BSP loop: compute → compress → push, pull → decode → apply. Every
//! blocking socket operation is bounded by [`WorkerOptions::io_timeout`].
//!
//! There is one way into a run. The `HelloAck`'s header names the step to
//! resume at and is followed by that many replayed pull batches: the
//! worker builds a fresh replica and re-runs every completed step
//! (recomputing gradients to advance its RNG and residual state, applying
//! the server's replayed pull batches), so its state is bit-identical to
//! an undisturbed worker's before it trains live (see `DESIGN.md` §11).
//! A first join is the case "step 0, nothing to replay". The BSP loop runs
//! inside a reconnect-and-resume outer loop: when an established
//! connection dies mid-run (and the rejoin budget allows), the worker
//! dials back and joins again the same way — as does a replacement
//! process for a worker that died outright. Only the server knows which
//! of the three it is talking to.
//!
//! The [`crate::faults`] injector hooks into the loop at fixed points
//! (before the push, while writing it, after flushing it), so chaos tests
//! can produce each failure mode deterministically.

use crate::counters::ConnCounters;
use crate::faults::{FaultAction, FaultInjector, FaultPlan, KILL_EXIT_CODE};
use crate::frame::{Frame, FrameError, MsgType, HEADER_LEN};
use crate::metrics::{Conn, NetMetrics};
use crate::protocol::{
    bytes_to_tensor, decode_policy_update, decode_scrape, encode_hello, encode_push_done,
    encode_scrape_reply, NetError, ScrapeKind,
};
use std::fmt::Debug;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use threelc_distsim::engine::{Problem, TensorPayload, WorkerReplica};
use threelc_distsim::ExperimentConfig;
use threelc_learning::Network;
use threelc_obs::{trace, Level, TraceBuffer, TraceScope, TraceSpan};
use threelc_policy::Decision;

/// Worker connection and retry knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Server address, e.g. `"127.0.0.1:7171"`.
    pub addr: String,
    /// This worker's id (`0..config.workers`; the server assigns slots by
    /// id, so every worker must use a distinct one).
    pub worker: u16,
    /// Timeout for each connection attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout on the established connection.
    pub io_timeout: Duration,
    /// How many times to retry connecting after the first failure.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry, capped at 10 s.
    pub initial_backoff: Duration,
    /// Mid-run reconnect-and-resume attempts after an established
    /// connection dies. `0` restores strict fail-stop behavior. Must not
    /// exceed the server's budget, or late rejoins are refused and time
    /// out.
    pub max_rejoins: u32,
    /// Deterministic fault to inject into the BSP loop (chaos testing);
    /// `None` for a normal run.
    pub fault: Option<FaultPlan>,
}

impl WorkerOptions {
    /// Sensible defaults for `addr` and `worker`: 5 s connect timeout,
    /// 30 s I/O timeout, 5 retries starting at 100 ms backoff, 4 rejoins,
    /// no fault injection.
    pub fn new(addr: impl Into<String>, worker: u16) -> Self {
        WorkerOptions {
            addr: addr.into(),
            worker,
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            max_retries: 5,
            initial_backoff: Duration::from_millis(100),
            max_rejoins: 4,
            fault: None,
        }
    }
}

/// What a worker brings home from a completed run.
pub struct WorkerOutcome {
    /// The configuration the server distributed.
    pub config: ExperimentConfig,
    /// BSP steps completed.
    pub steps: u64,
    /// Transport counters, totalled across every connection the run used
    /// (one for an undisturbed run, more after rejoins).
    pub counters: ConnCounters,
    /// Mid-run rejoins this worker performed.
    pub rejoins: u32,
    /// The final local model replica (bit-identical to the simulator's
    /// replica for the same configuration).
    pub model: Network,
}

const BACKOFF_CAP: Duration = Duration::from_secs(10);

/// Resolves `addr` to the socket addresses [`connect_any`] dials.
pub(crate) fn resolve(addr: impl ToSocketAddrs + Debug) -> Result<Vec<SocketAddr>, NetError> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| NetError::Protocol(format!("bad address {addr:?}: {e}")))?
        .collect();
    if addrs.is_empty() {
        return Err(NetError::Protocol(format!(
            "address {addr:?} resolved to nothing"
        )));
    }
    Ok(addrs)
}

/// Dials the resolved addresses in order, returning the first stream that
/// connects within `timeout` (per attempt). Multi-homed hostnames — e.g.
/// `localhost` resolving to both `127.0.0.1` and `::1` — reach the server
/// even when it listens on only one of them.
pub(crate) fn connect_any(addrs: &[SocketAddr], timeout: Duration) -> io::Result<TcpStream> {
    let mut last_err: Option<io::Error> = None;
    for addr in addrs {
        match TcpStream::connect_timeout(addr, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no addresses to dial")))
}

/// Connects with per-attempt timeout and bounded exponential backoff,
/// counting failed attempts and the measured backoff sleep time. Each
/// attempt tries every resolved address.
fn connect_with_retry(opts: &WorkerOptions, conn: &mut Conn) -> Result<TcpStream, NetError> {
    let addrs = resolve(&opts.addr)?;
    let mut backoff = opts.initial_backoff;
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..=opts.max_retries {
        if attempt > 0 {
            // Measure the sleep that actually happened, not the nominal
            // backoff — the OS may oversleep.
            let slept = Instant::now();
            thread::sleep(backoff);
            conn.note_retry(slept.elapsed().as_secs_f64());
            threelc_obs::event!(
                Level::Warn,
                "worker.connect_retry",
                attempt = attempt,
                backoff_ms = backoff.as_millis()
            );
            backoff = (backoff * 2).min(BACKOFF_CAP);
        }
        match connect_any(&addrs, opts.connect_timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(NetError::Io(last_err.expect("at least one attempt failed")))
}

/// Whether a session failure is the kind a rejoin can recover from: a
/// transport-level loss (reset, EOF, timeout), as opposed to a protocol
/// violation or bad configuration, which would just recur.
fn is_recoverable(error: &NetError) -> bool {
    matches!(error, NetError::Io(_) | NetError::Frame(FrameError::Io(_)))
}

/// Runs one worker to completion against a serving parameter server,
/// surviving up to [`WorkerOptions::max_rejoins`] mid-run connection
/// losses by reconnecting and resuming (see the module docs).
///
/// # Errors
///
/// Returns an error if the connection cannot be established within the
/// retry budget, the server misbehaves, any frame fails validation, or a
/// connection dies with the rejoin budget exhausted.
pub fn run_worker(opts: &WorkerOptions) -> Result<WorkerOutcome, NetError> {
    // One injector for the whole run: a fault that already fired stays
    // fired across the rejoin it caused.
    let mut injector = FaultInjector::new(opts.fault);
    // Counters of connections already lost, folded into the final total.
    let mut carried = ConnCounters::default();
    let mut rejoins_used: u32 = 0;
    loop {
        let mut conn = Conn::new(ConnCounters::default(), NetMetrics::worker());
        let mut established = false;
        match run_session(opts, &mut injector, &mut conn, &mut established) {
            Ok((config, model)) => {
                let mut counters = carried;
                counters.merge(&conn.counters);
                return Ok(WorkerOutcome {
                    steps: config.total_steps,
                    config,
                    counters,
                    rejoins: rejoins_used,
                    model,
                });
            }
            Err(error) => {
                carried.merge(&conn.counters);
                // Only established sessions rejoin: a handshake that never
                // completed (wrong server, bad id) is not a mid-run fault.
                if !established || !is_recoverable(&error) || rejoins_used >= opts.max_rejoins {
                    return Err(error);
                }
                rejoins_used += 1;
                conn.metrics.disconnects.add(1);
                conn.metrics.rejoins.add(1);
                threelc_obs::event!(
                    Level::Warn,
                    "worker.rejoining",
                    worker = opts.worker,
                    attempt = rejoins_used,
                    cause = error.to_string()
                );
            }
        }
    }
}

/// The configuration a `HelloAck` grants worker `worker`, resuming at
/// `resume_step`: UTF-8 JSON of an [`ExperimentConfig`] that
/// [`ExperimentConfig::validate`] accepts, with a slot for this worker and
/// the resume step inside the run. Everything the worker builds comes from
/// it, and the compressors panic on out-of-range parameters, so a config
/// is refused here before anything is built.
fn accept_config(
    payload: &[u8],
    worker: u16,
    resume_step: u64,
) -> Result<ExperimentConfig, NetError> {
    let config_json = std::str::from_utf8(payload)
        .map_err(|_| NetError::Protocol("config payload is not UTF-8".into()))?;
    let config: ExperimentConfig = serde_json::from_str(config_json)
        .map_err(|e| NetError::Protocol(format!("config does not parse: {e}")))?;
    config
        .validate()
        .map_err(|e| NetError::Config(format!("server config: {e}")))?;
    if usize::from(worker) >= config.workers {
        return Err(NetError::Protocol(format!(
            "server config has {} workers, this is worker {worker}",
            config.workers
        )));
    }
    if resume_step > config.total_steps {
        return Err(NetError::Protocol(format!(
            "resume step {resume_step} beyond the {}-step run",
            config.total_steps
        )));
    }
    Ok(config)
}

/// One connection's lifetime: the join handshake and its replay, the BSP
/// loop, and the shutdown handshake. Returns the configuration and the
/// final model on a clean run; `established` reports whether the handshake
/// completed (the rejoin-eligibility line).
fn run_session(
    opts: &WorkerOptions,
    injector: &mut FaultInjector,
    conn: &mut Conn,
    established: &mut bool,
) -> Result<(ExperimentConfig, Network), NetError> {
    let stream = connect_with_retry(opts, conn)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(opts.io_timeout))?;
    stream.set_write_timeout(Some(opts.io_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    // ---- Hello / HelloAck: the server distributes the configuration and
    // the step to resume at, so a worker — or a replacement for a dead one
    // — needs nothing but an address and an id.
    let hello_payload = encode_hello(opts.worker);
    conn.write_frame(&mut writer, MsgType::Hello, 0, 0, &hello_payload)?;
    conn.flush(&mut writer)?;
    let ack = conn.read_frame(&mut reader)?;
    if ack.msg != MsgType::HelloAck {
        return Err(NetError::Protocol(format!(
            "expected HelloAck, got {:?}",
            ack.msg
        )));
    }
    let resume_step = ack.step;
    let config = accept_config(&ack.payload, opts.worker, resume_step)?;
    *established = true;

    // ---- Derive the identical problem instance locally.
    let mut problem = Problem::build(&config);
    let n_params = problem.num_tensors();
    let mut replica = WorkerReplica::new(&problem, usize::from(opts.worker));
    // The replica holds the model now; what is still read here is the data
    // and the shapes. A worker never evaluates, so the test split goes too.
    problem.release_init();
    problem.release_test();
    // An adaptive policy: the step-0 decisions are a pure function of the
    // configuration — the server computes the identical vector in
    // `ServerCore::new` — so the worker derives them locally instead of
    // waiting for a broadcast. Every later step's decisions arrive as a
    // `PolicyUpdate` frame appended to the pull batch (replayed batches
    // included, so a rejoined replica reconstructs the exact decision
    // sequence).
    if let Some(controller) = config.policy.controller(n_params) {
        replica.apply_policy(&controller.initial_decisions());
    }

    // Tracing: a worker-local span buffer (its own clock domain — in a
    // loopback run every node shares one process, so node identity must
    // live in the buffer, not in process globals). The run-wide trace id
    // is derived from the seed, identically on every node, so it never
    // needs to cross the wire. Drained into the server's trace `Scrape`
    // at shutdown. A rejoined session starts a fresh buffer: spans from
    // the lost connection die with it.
    let tracing = trace::trace_enabled();
    let node = format!("worker{}", opts.worker);
    let buffer = Arc::new(TraceBuffer::default());
    let trace_id = trace::run_trace_id(config.seed);

    // ---- Replay: resynchronize the fresh replica by re-running every
    // completed step against the server's replayed pull batches (none on
    // a first join). Compute
    // and encode_push run for their *state* (RNG draws, residual
    // accumulation) — the payloads go nowhere. After the last replayed
    // step the replica is bit-identical to one that never disconnected.
    // Replayed steps record no trace spans; the timeline shows only live
    // work.
    for step in 0..resume_step {
        let (_loss, grads) = replica.compute(&problem.data, config.batch_per_worker);
        let _ = replica.encode_push(grads);
        let (pull_frames, policy) = read_pull_batch(&mut reader, conn, step, n_params)?;
        decode_and_apply(pull_frames, &problem, &mut replica)?;
        if let Some(decisions) = policy {
            replica.apply_policy(&decisions);
        }
    }
    if resume_step > 0 {
        threelc_obs::event!(
            Level::Info,
            "worker.resynced",
            worker = opts.worker,
            resume_step = resume_step
        );
    }

    // ---- The BSP loop.
    for step in resume_step..config.total_steps {
        let _scope =
            tracing.then(|| TraceScope::enter(&buffer, &node, trace_id, step, opts.worker as i64));

        match injector.before_push(step) {
            Some(FaultAction::Delay(d)) => {
                threelc_obs::event!(
                    Level::Warn,
                    "worker.fault_injected",
                    kind = "delay",
                    step = step,
                    ms = d.as_millis()
                );
                thread::sleep(d);
            }
            Some(FaultAction::Disconnect) => return Err(injected_disconnect("disconnect", step)),
            Some(FaultAction::Kill) | None => {}
        }

        // Step latency for the per-worker time series: compute through
        // the flushed push batch. Read again after the pull is applied for
        // the whole-step histogram.
        let step_t0 = Instant::now();
        let compute_span = TraceSpan::start("compute");
        let (loss, grads) = replica.compute(&problem.data, config.batch_per_worker);
        compute_span.finish();

        // encode_push's codec calls run under encode spans: 3LC's own
        // quantize/encode, or one encode span around a baseline's call.
        let encoded = replica.encode_push(grads);
        let serialize_span = TraceSpan::start("serialize");
        for (i, payload) in encoded.payloads.iter().enumerate() {
            let raw;
            let (msg, bytes): (MsgType, &[u8]) = match payload {
                TensorPayload::Compressed(wire) => (MsgType::PushTensor, wire),
                TensorPayload::Raw(t) => {
                    raw = t.to_le_bytes();
                    (MsgType::PushRaw, &raw)
                }
            };
            if i == 0 && injector.crc_due(step) {
                // Injected corruption: encode the frame (a version-1
                // frame, so the byte layout is fixed), flip one
                // deterministically chosen payload byte, and send it raw.
                // The server's CRC check rejects it and drops us.
                let mut raw = Frame::new(msg, 0, step, bytes.to_vec()).encode();
                injector.corrupt_push(step, &mut raw, HEADER_LEN);
                threelc_obs::event!(
                    Level::Warn,
                    "worker.fault_injected",
                    kind = "crc",
                    step = step
                );
                conn.write_encoded(&mut writer, &raw)?;
                continue;
            }
            conn.write_frame(&mut writer, msg, i as u16, step, bytes)?;
        }
        serialize_span.finish();

        // The network span runs from flushing the push batch until the
        // barrier releases us with a complete pull batch. Decoding is
        // deliberately excluded (it happens below, under "pull"): the
        // clock-offset estimator pairs this span's endpoints with the
        // server's recv_push/send_pull spans.
        let network_span = TraceSpan::start("network");
        let done = encode_push_done(
            loss,
            encoded.codec_seconds,
            0.0,
            step_t0.elapsed().as_secs_f64(),
        );
        conn.write_frame(&mut writer, MsgType::PushDone, 0, step, &done)?;
        conn.flush(&mut writer)?;
        // The batch is on the wire; do not hold a model's worth of payload
        // through the wait for the pull and the pull's own arrival.
        drop(encoded);

        match injector.after_push(step) {
            Some(FaultAction::Kill) => {
                threelc_obs::event!(
                    Level::Warn,
                    "worker.fault_injected",
                    kind = "kill",
                    step = step
                );
                // A real death, not an error path: a replacement process
                // launched the same way resumes the run (chaos_e2e.rs does
                // exactly that, keying on this exit code).
                std::process::exit(KILL_EXIT_CODE);
            }
            Some(FaultAction::Disconnect) => {
                return Err(injected_disconnect("drop-after-push", step));
            }
            Some(FaultAction::Delay(_)) | None => {}
        }

        // Read the shared pull batch.
        let (pull_frames, policy) = read_pull_batch(&mut reader, conn, step, n_params)?;
        network_span.finish();

        // Decode the shared model delta and apply it.
        let pull_span = TraceSpan::start("pull");
        decode_and_apply(pull_frames, &problem, &mut replica)?;
        // Decisions broadcast with step N's pull govern step N+1's push
        // encode, so they take effect after the delta is applied.
        if let Some(decisions) = policy {
            replica.apply_policy(&decisions);
        }
        pull_span.finish();
        conn.metrics
            .step_seconds
            .record(step_t0.elapsed().as_secs_f64());
    }

    // ---- Graceful shutdown handshake. The server may first ask for this
    // worker's span buffer (a trace `Scrape`); answer any number of those
    // — even with tracing off the reply is just an empty buffer — then
    // ack the Shutdown.
    loop {
        let fin = conn.read_frame(&mut reader)?;
        match fin.msg {
            MsgType::Scrape => {
                let kind = decode_scrape(&fin.payload)?;
                if kind != ScrapeKind::Trace {
                    return Err(NetError::Protocol(format!(
                        "a worker answers only trace scrapes, got {kind:?}"
                    )));
                }
                let dump = encode_scrape_reply(&buffer.drain(&node))?;
                conn.write_frame(
                    &mut writer,
                    MsgType::ScrapeReply,
                    0,
                    config.total_steps,
                    &dump,
                )?;
                conn.flush(&mut writer)?;
            }
            MsgType::Shutdown => break,
            other => {
                return Err(NetError::Protocol(format!(
                    "expected Shutdown, got {other:?}"
                )));
            }
        }
    }
    conn.write_frame(
        &mut writer,
        MsgType::ShutdownAck,
        0,
        config.total_steps,
        &[],
    )?;
    conn.flush(&mut writer)?;

    Ok((config, replica.into_model()))
}

/// The recoverable error an injected connection fault surfaces as — shaped
/// exactly like a real peer reset, so the rejoin path under test is the
/// production one.
fn injected_disconnect(kind: &str, step: u64) -> NetError {
    threelc_obs::event!(
        Level::Warn,
        "worker.fault_injected",
        kind = kind,
        step = step
    );
    NetError::Io(io::Error::new(
        io::ErrorKind::ConnectionReset,
        format!("injected {kind} fault at step {step}"),
    ))
}

/// Reads one step's complete pull batch (`PullTensor`/`PullRaw`* then
/// `PullDone`), validating step and tensor order. An adaptive server
/// appends at most one `PolicyUpdate` frame — the next step's decisions —
/// which is returned alongside the tensors (its tensor id falls outside
/// the pull sequence, so it is exempt from the in-order check). Shared by
/// the live BSP loop and the rejoin replay.
#[allow(clippy::type_complexity)]
fn read_pull_batch<R: io::Read>(
    reader: &mut R,
    conn: &mut Conn,
    step: u64,
    n_params: usize,
) -> Result<(Vec<(MsgType, Vec<u8>)>, Option<Vec<Decision>>), NetError> {
    let mut pull_frames = Vec::with_capacity(n_params);
    let mut policy: Option<Vec<Decision>> = None;
    loop {
        let frame = conn.read_frame(reader)?;
        if frame.step != step {
            return Err(NetError::Protocol(format!(
                "server sent step {} during step {step}",
                frame.step
            )));
        }
        match frame.msg {
            MsgType::PullTensor | MsgType::PullRaw => {
                let i = pull_frames.len();
                if i >= n_params || usize::from(frame.tensor) != i {
                    return Err(NetError::Protocol(format!(
                        "server pulled tensor {} out of order (expected {i})",
                        frame.tensor
                    )));
                }
                pull_frames.push((frame.msg, frame.payload));
            }
            MsgType::PolicyUpdate => {
                if policy.is_some() {
                    return Err(NetError::Protocol(
                        "server sent two PolicyUpdate frames in one pull batch".into(),
                    ));
                }
                policy = Some(decode_policy_update(&frame.payload)?);
            }
            MsgType::PullDone => {
                if pull_frames.len() != n_params {
                    return Err(NetError::Protocol(format!(
                        "server pulled {} of {n_params} tensors",
                        pull_frames.len()
                    )));
                }
                return Ok((pull_frames, policy));
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "server sent {other:?} during the pull phase"
                )));
            }
        }
    }
}

/// Applies one step's pull batch to the replica
/// ([`WorkerReplica::apply_pulls`]: compressed payloads decode to symbols
/// and add straight into the parameters, no dense delta in between).
fn decode_and_apply(
    pull_frames: Vec<(MsgType, Vec<u8>)>,
    problem: &Problem,
    replica: &mut WorkerReplica,
) -> Result<(), NetError> {
    let pulls = pull_frames
        .into_iter()
        .enumerate()
        .map(|(i, (msg, payload))| {
            Ok(if msg == MsgType::PullTensor {
                TensorPayload::Compressed(payload)
            } else {
                TensorPayload::Raw(bytes_to_tensor(&payload, &problem.shapes[i])?)
            })
        })
        .collect::<Result<Vec<_>, NetError>>()?;
    replica
        .apply_pulls(&pulls)
        .map_err(|(i, e)| NetError::Protocol(format!("pull payload {i} does not decode: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A `HelloAck` config as a server sends it: two workers, ten steps.
    fn granted() -> (ExperimentConfig, String) {
        let config = ExperimentConfig {
            workers: 2,
            total_steps: 10,
            ..ExperimentConfig::for_scheme(threelc_baselines::SchemeKind::three_lc(1.5))
        };
        let json = serde_json::to_string(&config).expect("a config serializes");
        (config, json)
    }

    /// `json` with the scalar value of the first `"key":` replaced.
    fn lie(json: &str, key: &str, value: &str) -> String {
        let key = format!("\"{key}\":");
        let at = json.find(&key).expect("the key is there") + key.len();
        let len = json[at..].find([',', '}']).expect("a scalar value");
        format!("{}{value}{}", &json[..at], &json[at + len..])
    }

    /// What every `HelloAck` payload must meet: a typed error, or `Ok` only
    /// for a config `validate` accepts with a slot for the worker and the
    /// resume step inside the run.
    fn holds(payload: &[u8], worker: u16, resume_step: u64) -> Result<(), TestCaseError> {
        if let Ok(config) = accept_config(payload, worker, resume_step) {
            prop_assert_eq!(config.validate(), Ok(()));
            prop_assert!(usize::from(worker) < config.workers);
            prop_assert!(resume_step <= config.total_steps);
        }
        Ok(())
    }

    #[test]
    fn a_hello_ack_config_is_accepted_as_sent_and_its_lies_are_typed_errors() {
        let (config, json) = granted();
        assert_eq!(accept_config(json.as_bytes(), 1, 10).ok(), Some(config));
        let config_error = |payload: String| {
            matches!(
                accept_config(payload.as_bytes(), 0, 0),
                Err(NetError::Config(_))
            )
        };
        assert!(config_error(lie(&json, "workers", "0")));
        assert!(config_error(lie(&json, "workers", "70000")));
        assert!(config_error(lie(&json, "batch_per_worker", "0")));
        assert!(config_error(lie(&json, "sparsity", "2.0")));
        let protocol_error = |payload: &[u8], worker, resume_step| {
            matches!(
                accept_config(payload, worker, resume_step),
                Err(NetError::Protocol(_))
            )
        };
        let unknown = json.replacen("ThreeLc", "FourLc", 1);
        assert_ne!(unknown, json);
        assert!(protocol_error(unknown.as_bytes(), 0, 0));
        assert!(
            protocol_error(json.as_bytes(), 2, 0),
            "no slot for worker 2"
        );
        assert!(
            protocol_error(json.as_bytes(), 0, 11),
            "resume past the run"
        );
        assert!(protocol_error(b"\xff{}", 0, 0), "not UTF-8");
        assert!(protocol_error(b"", 0, 0));
    }

    proptest! {
        #[test]
        fn a_truncated_hello_ack_config_is_a_typed_error(cut in 0usize..1000) {
            let (_, json) = granted();
            let cut = cut % json.len();
            prop_assert!(accept_config(&json.as_bytes()[..cut], 0, 0).is_err());
        }

        #[test]
        fn a_mutated_hello_ack_config_is_a_typed_error_or_a_valid_config(
            flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
            worker in 0u16..3,
            resume_step in 0u64..12,
        ) {
            let (_, json) = granted();
            let mut payload = json.into_bytes();
            for (at, mask) in flips {
                let at = at % payload.len();
                payload[at] ^= mask;
            }
            holds(&payload, worker, resume_step)?;
        }

        #[test]
        fn a_hello_ack_config_with_lying_fields_is_a_typed_error_or_a_valid_config(
            workers in (0usize..5).prop_map(|i| [0, 1, 2, 70_000, usize::MAX][i]),
            batch in (0usize..3).prop_map(|i| [0, 1, usize::MAX][i]),
            sparsity in (0usize..5).prop_map(|i| [0.5f32, 1.0, 1.5, 2.0, f32::MAX][i]),
            total_steps in (0usize..3).prop_map(|i| [0u64, 10, u64::MAX][i]),
            worker in 0u16..3,
            resume_step in 0u64..12,
        ) {
            let (_, json) = granted();
            let json = lie(&json, "workers", &workers.to_string());
            let json = lie(&json, "batch_per_worker", &batch.to_string());
            let json = lie(&json, "sparsity", &format!("{sparsity:?}"));
            let json = lie(&json, "total_steps", &total_steps.to_string());
            holds(json.as_bytes(), worker, resume_step)?;
        }
    }
    use crate::frame::{read_frame, write_frame};
    use crate::metrics::scrape;
    use crate::protocol::{encode_scrape_reply, ScrapeKind};
    use std::net::TcpListener;

    #[test]
    fn connect_any_falls_through_dead_addresses() {
        let live = TcpListener::bind("127.0.0.1:0").expect("bind");
        let live_addr = live.local_addr().expect("addr");
        // A port that was bound and released: connecting to it is refused
        // immediately on loopback.
        let dead_addr = {
            let tmp = TcpListener::bind("127.0.0.1:0").expect("bind");
            tmp.local_addr().expect("addr")
        };
        // The regression: dialing only the first address fails here.
        let stream = connect_any(&[dead_addr, live_addr], Duration::from_secs(1))
            .expect("second address is live");
        assert_eq!(stream.peer_addr().expect("peer"), live_addr);
        drop(stream);
        // All-dead still errors, with the last failure.
        assert!(connect_any(&[dead_addr], Duration::from_secs(1)).is_err());
        assert!(connect_any(&[], Duration::from_secs(1)).is_err());

        // A scrape dials the same way (`localhost` may resolve to an
        // address the server does not listen on first).
        let registry = threelc_obs::Registry::new();
        registry.counter("frames").add(4);
        let snapshot = registry.snapshot();
        let reply = encode_scrape_reply(&snapshot).expect("serializes");
        let server = thread::spawn(move || loop {
            let (stream, _) = live.accept().expect("accept");
            // The bare connection above arrives first and says nothing.
            let Ok(frame) = read_frame(&mut &stream) else {
                continue;
            };
            assert_eq!(frame.msg, MsgType::Scrape);
            write_frame(&mut &stream, MsgType::ScrapeReply, 0, 0, &reply).expect("reply");
            break;
        });
        let scraped: threelc_obs::Snapshot = scrape(
            &[dead_addr, live_addr][..],
            ScrapeKind::Metrics,
            Duration::from_secs(1),
        )
        .expect("second address is live");
        assert_eq!(scraped, snapshot);
        server.join().expect("scrape responder");
    }

    #[test]
    fn recoverable_errors_are_transport_level_only() {
        assert!(is_recoverable(&NetError::Io(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "reset"
        ))));
        assert!(is_recoverable(&NetError::Frame(FrameError::Io(
            io::Error::new(io::ErrorKind::UnexpectedEof, "eof")
        ))));
        assert!(!is_recoverable(&NetError::Protocol("bad".into())));
        assert!(!is_recoverable(&NetError::Config("bad".into())));
        assert!(!is_recoverable(&NetError::Frame(FrameError::CrcMismatch {
            expected: 1,
            actual: 2
        })));
    }
}
