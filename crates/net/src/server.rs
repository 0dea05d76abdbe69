//! The parameter-server side of the networked runtime.
//!
//! One OS thread per worker connection handles framing; a coordinator
//! (the calling thread) owns the [`ServerCore`] and enforces the BSP
//! barrier: it waits for every worker's push batch, applies the step, and
//! broadcasts one shared pull batch back to all handlers. The arithmetic
//! is exactly [`threelc_distsim::engine`]'s, so a networked run matches
//! the in-process simulator bit for bit.
//!
//! Failure semantics are fault-tolerant by default: when a worker's
//! connection dies mid-run (timeout, checksum mismatch, reset), the
//! coordinator parks the barrier for up to [`ServeOptions::rejoin_timeout`]
//! and lets the worker reconnect with a `Rejoin` frame. The rejoined
//! worker is granted the current step and a replay of every completed
//! pull batch, from which it deterministically rebuilds a bit-identical
//! replica (see `DESIGN.md` §11). With [`ServeOptions::max_rejoins`] `= 0`
//! the runtime is strictly fail-stop, as it was before rejoin existed:
//! any mid-run disconnect aborts the run. Protocol violations (wrong
//! step, out-of-order tensors) always abort — those are bugs, not faults.
//! Every blocking socket operation is bounded by
//! [`ServeOptions::io_timeout`], and every barrier wait by
//! [`ServeOptions::step_timeout`] (or the rejoin timeout while a worker
//! is out), so a dead peer cannot wedge the server.

use crate::counters::ConnCounters;
use crate::frame::{read_frame, write_frame, MsgType};
use crate::metrics::{Conn, NetMetrics};
use crate::protocol::{
    bytes_to_tensor, decode_hello, decode_push_done, decode_scrape, decode_scrape_reply,
    encode_policy_update, encode_rejoin_ack, encode_scrape_reply, model_crc32, tensor_to_bytes,
    NetError, ScrapeKind,
};
use crate::report::{ConnReport, FaultEvent, FaultsReport, NetReport};
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use threelc_distsim::engine::{self, EngineError, Problem, ServerCore, TensorPayload};
use threelc_distsim::trace::{EvalRecord, StepRecord, TrainingTrace};
use threelc_distsim::{ExperimentConfig, ExperimentResult};
use threelc_learning::Evaluation;
use threelc_obs::flight::trigger;
use threelc_obs::{
    trace, write_flight_dump, AnalysisConfig, FaultSample, FlightRecorder, Level, MergedTimeline,
    NodeTrace, RunAnalysis, RunRecorder, SpanGuard, TraceBuffer, TraceScope, TraceSpan,
    WatchdogConfig, WorkerDelta,
};
use threelc_tensor::Shape;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Read/write timeout on every worker socket.
    pub io_timeout: Duration,
    /// How long the coordinator waits at a barrier (for all pushes to
    /// arrive, or for handlers to finish) before declaring the run dead.
    pub step_timeout: Duration,
    /// How long the coordinator parks a barrier waiting for a
    /// disconnected worker to rejoin (which includes the worker's replay
    /// of every completed step) before declaring the run dead.
    pub rejoin_timeout: Duration,
    /// Mid-run rejoins tolerated across the whole run. `0` restores the
    /// original fail-stop semantics: any mid-run disconnect aborts, and
    /// no pull-batch history is retained.
    pub max_rejoins: u32,
    /// Where to write the flight-recorder dump (`<out>.flight.json`).
    /// When set, a dump is written automatically if the run aborts, a
    /// handler panics, a fault fires, or the end-of-run watchdog flags
    /// anomalies. `None` disables dumping (series are still recorded and
    /// scrapeable).
    pub flight: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            io_timeout: Duration::from_secs(30),
            step_timeout: Duration::from_secs(300),
            rejoin_timeout: Duration::from_secs(60),
            max_rejoins: 4,
            flight: None,
        }
    }
}

/// Handler → coordinator messages. Every message carries the sender's
/// per-worker generation, so messages from a superseded connection (one
/// the worker already rejoined past) are recognizably stale.
enum ToCoord {
    /// One worker's complete push batch for a step.
    Pushed {
        worker: usize,
        gen: u64,
        step: u64,
        payloads: Vec<TensorPayload>,
        loss: f32,
        codec_seconds: f64,
        residual_l2: f64,
        step_seconds: f64,
    },
    /// The handler finished (cleanly or with an error). Handler panics
    /// arrive here too, converted to an error by the catch-unwind wrapper
    /// in [`spawn_handler`] — a panicked handler can never silently
    /// vanish and wedge the barrier.
    Finished {
        worker: usize,
        gen: u64,
        peer: String,
        counters: ConnCounters,
        /// The worker's span buffer, if the shutdown trace-dump exchange
        /// ran (tracing on, clean finish).
        trace: Option<NodeTrace>,
        error: Option<String>,
    },
    /// A worker reconnected mid-run through the side door; the stream has
    /// consumed its `Rejoin` frame and awaits a `RejoinAck`.
    Rejoin {
        worker: usize,
        stream: TcpStream,
        counters: ConnCounters,
    },
}

/// One worker's contribution at the push barrier: tensor payloads, local
/// loss, codec seconds, residual L2, wall-clock step seconds.
type PushSlot = (Vec<TensorPayload>, f32, f64, f64, f64);

/// One step's shared pull batch, encoded once and broadcast to every
/// handler (shared pull compression, paper Fig. 2b). Retained in the
/// coordinator's history (when rejoins are enabled) so a rejoining worker
/// can replay the run's full pull sequence.
struct PullBatch {
    step: u64,
    /// `(message type, payload bytes)` per tensor, in parameter order.
    frames: Vec<(MsgType, Vec<u8>)>,
}

/// Coordinator → handler messages.
enum FromCoord {
    Pulls(Arc<PullBatch>),
}

/// Everything a handler spawned for a rejoined worker must send before
/// entering the normal per-step loop: the resume grant and the replay of
/// every completed step's pull batch.
struct RejoinTask {
    resume_step: u64,
    config_json: Arc<String>,
    replay: Vec<Arc<PullBatch>>,
}

/// Runs a full training experiment as the parameter server.
///
/// Accepts `config.workers` connections on `listener`, drives
/// `config.total_steps` barrier-synchronized BSP steps (surviving up to
/// [`ServeOptions::max_rejoins`] mid-run worker reconnects), shuts the
/// workers down gracefully, and returns the final report (the standard
/// [`ExperimentResult`] plus per-connection transport counters and the
/// run's fault log).
///
/// # Errors
///
/// Returns [`NetError::Config`] for configurations the networked runtime
/// does not support (staleness, backup workers), and
/// [`NetError::Protocol`]/[`NetError::Frame`]/[`NetError::Io`] when any
/// worker violates the protocol, exhausts the rejoin budget, or fails to
/// rejoin in time.
pub fn serve(
    listener: &TcpListener,
    config: &ExperimentConfig,
    opts: &ServeOptions,
) -> Result<NetReport, NetError> {
    // The recorder is shared with the metrics side-door (live series
    // scrapes); the flight recorder is coordinator-only.
    let recorder = Arc::new(Mutex::new(RunRecorder::new(config.workers)));
    let mut flight = FlightRecorder::new();
    // Owned here (not inside serve_run) so an aborted run's flight dump can
    // still carry the server's spans — the global buffer the recorder
    // snapshots belongs to the in-process simulator, not this runtime.
    let server_buf = Arc::new(TraceBuffer::default());
    let result = serve_run(listener, config, opts, &recorder, &mut flight, &server_buf);
    if let Some(path) = &opts.flight {
        let series = recorder.lock().expect("series recorder lock").snapshot();
        let dump = match &result {
            Err(e) => {
                let text = e.to_string();
                let cause = if text.contains("panicked") {
                    trigger::PANIC
                } else {
                    trigger::ABORT
                };
                Some(flight.dump(cause, &text, series, &[]))
            }
            Ok(report) => {
                let mut findings = report.anomalies.clone();
                findings.extend(report.result.trace.anomalies.iter().cloned());
                if !findings.is_empty() {
                    Some(flight.dump(
                        trigger::WATCHDOG,
                        "end-of-run watchdog flagged anomalies",
                        series,
                        &findings,
                    ))
                } else if !flight.events().is_empty() {
                    Some(flight.dump(
                        trigger::FAULT,
                        "transport faults occurred during the run",
                        series,
                        &[],
                    ))
                } else {
                    None
                }
            }
        };
        let dump = dump.map(|mut d| {
            // The recorder snapshots the in-process (simulator) span buffer;
            // this runtime's spans live in `server_buf`. Swap them in so
            // `threelc trace`/`analyze <dump.flight.json>` see the timeline.
            d.spans.retain(|n| !n.spans.is_empty());
            if trace::trace_enabled() {
                let nt = server_buf.snapshot("server");
                if !nt.spans.is_empty() {
                    d.spans.push(nt);
                }
            }
            d
        });
        if let Some(dump) = dump {
            if let Err(e) = write_flight_dump(path, &dump) {
                threelc_obs::event!(
                    Level::Warn,
                    "server.flight_dump_failed",
                    path = path,
                    error = e.to_string()
                );
            }
        }
    }
    result
}

/// The body of [`serve`]: the actual accept/handshake/train/shutdown
/// sequence, recording per-worker series into `recorder` at every barrier
/// and transport faults into `flight` as they happen. Split out so the
/// wrapper can still reach both stores after an early-error return.
fn serve_run(
    listener: &TcpListener,
    config: &ExperimentConfig,
    opts: &ServeOptions,
    recorder: &Arc<Mutex<RunRecorder>>,
    flight: &mut FlightRecorder,
    server_buf: &Arc<TraceBuffer>,
) -> Result<NetReport, NetError> {
    validate_config(config)?;
    let problem = Problem::build(config);
    let n_params = problem.num_tensors();
    if n_params > usize::from(u16::MAX) {
        return Err(NetError::Config(format!(
            "{n_params} tensors exceed the u16 tensor-id space"
        )));
    }
    let mut server = ServerCore::new(&problem);
    let shapes: Arc<Vec<Shape>> = Arc::new(problem.shapes.clone());
    let workers = config.workers;
    let config_json = Arc::new(
        serde_json::to_string(config)
            .map_err(|e| NetError::Config(format!("config does not serialize: {e}")))?,
    );

    // Tracing: the server's own span buffer (its clock domain is the
    // reference the timeline aligns every worker against). The run-wide
    // trace id is derived from the seed, identically on every node.
    let tracing = trace::trace_enabled();
    let trace_id = trace::run_trace_id(config.seed);
    let server_buf = Arc::clone(server_buf);

    // ---- Handshake: fill every worker slot. Scrapes arriving
    // in this phase are answered inline without consuming a slot.
    let (to_coord, from_handlers) = mpsc::channel::<ToCoord>();
    let mut pull_txs: Vec<Option<mpsc::Sender<FromCoord>>> = (0..workers).map(|_| None).collect();
    let mut handles = Vec::with_capacity(workers);
    // A barrier wait while any worker is out covers both a normal step
    // and a rejoin-plus-replay, whichever is longer.
    let park_timeout = opts.step_timeout.max(opts.rejoin_timeout);
    while handles.len() < workers {
        let (stream, _) = listener.accept().map_err(NetError::Io)?;
        let (worker, handshake_counters) = match handshake(
            &stream,
            opts.io_timeout,
            workers,
            &pull_txs,
            &config_json,
            &server_buf,
            recorder,
        )? {
            Handshake::Worker(worker, counters) => (worker, counters),
            Handshake::Scrape => continue,
        };
        threelc_obs::event!(Level::Info, "server.worker_connected", worker = worker);
        let (tx, rx) = mpsc::channel::<FromCoord>();
        pull_txs[worker] = Some(tx);
        handles.push(spawn_handler(
            stream,
            worker,
            0,
            0,
            config.total_steps,
            Arc::clone(&shapes),
            to_coord.clone(),
            rx,
            handshake_counters,
            park_timeout,
            Arc::clone(&server_buf),
            trace_id,
            None,
        ));
    }

    // Training phase: the main thread no longer accepts, so hand the
    // listener to a background side-door thread that keeps answering
    // `Scrape` connections and forwards mid-run `Rejoin` connections to
    // the coordinator. Dropped (stopping the thread and restoring the
    // listener) on every exit path.
    let _scraper = MetricsScraper::start(
        listener,
        opts.io_timeout,
        Arc::clone(&server_buf),
        Arc::clone(recorder),
        to_coord.clone(),
    )?;
    let server_metrics = NetMetrics::server();

    // ---- Fault-tolerance state.
    let max_rejoins = u64::from(opts.max_rejoins);
    // Per-worker connection generation; bumped on every admitted rejoin.
    let mut gens: Vec<u64> = vec![0; workers];
    let mut connected: Vec<bool> = vec![true; workers];
    // Cumulative admitted rejoins per worker, recorded as a series so the
    // dashboard can show flapping workers.
    let mut rejoin_counts: Vec<u64> = vec![0; workers];
    // Traffic of a worker's finished (lost or superseded) connections,
    // folded into its final ConnReport.
    let mut lost: Vec<ConnCounters> = vec![ConnCounters::default(); workers];
    let mut faults = FaultsReport::default();
    // Every completed step's pull batch, the replay a rejoiner resyncs
    // from. Arc'd frames, so the history costs one encoded copy per step;
    // disabled (empty) in fail-stop mode.
    let mut history: Vec<Arc<PullBatch>> = Vec::new();

    // ---- Barrier-synchronized BSP training loop.
    let mut trace = TrainingTrace::default();
    trace.policy.label = config.policy.label();
    let mut straggler_rng = threelc_tensor::rng(config.seed ^ 0x5357_4147);
    let compressible_values = problem.compressible_values();
    let servers = config.servers.max(1);
    for step in 0..config.total_steps {
        let step_span = SpanGuard::on(Arc::clone(&server_metrics.step_seconds));
        let _coord_scope = tracing
            .then(|| TraceScope::enter(&server_buf, "server", trace_id, step, trace::NO_WORKER));
        let (_accepted, compute_multiplier) = engine::sample_stragglers(config, &mut straggler_rng);

        // Collect every worker's push batch (the barrier). The deadline
        // extends when a worker disconnects or rejoins, parking the
        // barrier instead of aborting.
        let barrier_span = TraceSpan::start("barrier");
        let mut slots: Vec<Option<PushSlot>> = (0..workers).map(|_| None).collect();
        // Wall-clock arrival of each worker's complete push: the lag past
        // the earliest arrival is that worker's barrier-wait charge.
        let mut arrivals: Vec<Option<Instant>> = (0..workers).map(|_| None).collect();
        let mut missing = workers;
        let mut deadline = Instant::now()
            + if connected.iter().all(|&c| c) {
                opts.step_timeout
            } else {
                park_timeout
            };
        while missing > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                let out: Vec<usize> = (0..workers).filter(|&w| !connected[w]).collect();
                return Err(NetError::Protocol(if out.is_empty() {
                    format!("timed out waiting for pushes in step {step}")
                } else {
                    format!("timed out waiting for worker(s) {out:?} to rejoin in step {step}")
                }));
            }
            match from_handlers.recv_timeout(remaining) {
                Ok(ToCoord::Pushed {
                    worker,
                    gen,
                    step: s,
                    payloads,
                    loss,
                    codec_seconds,
                    residual_l2,
                    step_seconds,
                }) => {
                    if gen != gens[worker] {
                        // A superseded connection's push raced its death.
                        continue;
                    }
                    if s != step {
                        return Err(NetError::Protocol(format!(
                            "worker {worker} pushed step {s} during step {step}"
                        )));
                    }
                    if slots[worker].is_some() {
                        return Err(NetError::Protocol(format!(
                            "worker {worker} pushed twice in step {step}"
                        )));
                    }
                    slots[worker] =
                        Some((payloads, loss, codec_seconds, residual_l2, step_seconds));
                    arrivals[worker] = Some(Instant::now());
                    missing -= 1;
                }
                Ok(ToCoord::Finished {
                    worker,
                    gen,
                    counters,
                    error,
                    ..
                }) => {
                    lost[worker].merge(&counters);
                    if gen != gens[worker] || !connected[worker] {
                        // A superseded or already-noted connection winding
                        // down; its traffic is kept, nothing else changes.
                        continue;
                    }
                    let detail = error.unwrap_or_else(|| "closed early".into());
                    note_disconnect(
                        worker,
                        step,
                        detail,
                        max_rejoins,
                        &mut faults,
                        &mut connected,
                        &mut pull_txs,
                        &server_metrics,
                        flight,
                    )?;
                    // The dead connection's push (if it landed) is
                    // discarded: the rejoined worker re-pushes this step,
                    // and deterministic replay makes the re-push
                    // byte-identical.
                    if slots[worker].take().is_some() {
                        arrivals[worker] = None;
                        missing += 1;
                    }
                    deadline = deadline.max(Instant::now() + opts.rejoin_timeout);
                }
                Ok(ToCoord::Rejoin {
                    worker,
                    stream,
                    counters,
                }) => {
                    if worker >= workers {
                        threelc_obs::event!(
                            Level::Warn,
                            "server.rejoin_refused",
                            worker = worker,
                            reason = "id out of range"
                        );
                        continue; // dropping the stream refuses the rejoin
                    }
                    if faults.rejoins >= max_rejoins {
                        threelc_obs::event!(
                            Level::Warn,
                            "server.rejoin_refused",
                            worker = worker,
                            reason = "rejoin budget exhausted"
                        );
                        continue;
                    }
                    if connected[worker] {
                        // The old connection is half-dead (its Finished
                        // has not landed yet). Retire it; the generation
                        // bump below makes its remaining messages stale.
                        note_disconnect(
                            worker,
                            step,
                            "superseded by a rejoin".into(),
                            max_rejoins,
                            &mut faults,
                            &mut connected,
                            &mut pull_txs,
                            &server_metrics,
                            flight,
                        )?;
                        if slots[worker].take().is_some() {
                            arrivals[worker] = None;
                            missing += 1;
                        }
                    }
                    gens[worker] += 1;
                    faults.rejoins += 1;
                    rejoin_counts[worker] += 1;
                    let rejoin_detail = format!(
                        "resumed at step {step} after a replay of {} step(s)",
                        history.len()
                    );
                    flight.note_fault(step, &format!("worker{worker}"), "rejoin", &rejoin_detail);
                    faults.events.push(FaultEvent {
                        step,
                        worker,
                        kind: "rejoin".into(),
                        detail: rejoin_detail,
                    });
                    server_metrics.rejoins.add(1);
                    threelc_obs::event!(
                        Level::Info,
                        "server.worker_rejoined",
                        worker = worker,
                        step = step,
                        gen = gens[worker]
                    );
                    debug_assert_eq!(history.len() as u64, step);
                    let (tx, rx) = mpsc::channel::<FromCoord>();
                    pull_txs[worker] = Some(tx);
                    connected[worker] = true;
                    handles.push(spawn_handler(
                        stream,
                        worker,
                        gens[worker],
                        step,
                        config.total_steps,
                        Arc::clone(&shapes),
                        to_coord.clone(),
                        rx,
                        counters,
                        park_timeout,
                        Arc::clone(&server_buf),
                        trace_id,
                        Some(RejoinTask {
                            resume_step: step,
                            config_json: Arc::clone(&config_json),
                            replay: history.clone(),
                        }),
                    ));
                    deadline = deadline.max(Instant::now() + park_timeout);
                }
                Err(_) => continue, // the deadline check above decides
            }
        }
        barrier_span.finish();

        // Worker-order accounting, exactly as the simulator does it. The
        // per-step policy multiplier must be read before apply_step swaps
        // in the next step's decisions (the simulator reads it at the same
        // point, so the recorded series match bit for bit).
        let decisions = server.current_decisions();
        let step_multiplier = if decisions.is_empty() {
            f64::from(engine::base_sparsity(config).value())
        } else {
            f64::from(decisions[0].s.value())
        };
        let mut payloads_by_worker = Vec::with_capacity(workers);
        let mut deltas = Vec::with_capacity(workers);
        let mut loss_sum = 0.0f64;
        let mut worker_codec_max = 0.0f64;
        let mut residual_l2 = 0.0f64;
        let mut push_bytes = 0u64;
        let mut raw_bytes = 0u64;
        let mut server_bytes = vec![0u64; servers];
        let first_arrival = arrivals.iter().flatten().min().copied();
        for (w, slot) in slots.iter_mut().enumerate() {
            let (payloads, loss, codec, residual, step_seconds) =
                slot.take().expect("barrier filled every slot");
            loss_sum += loss as f64;
            worker_codec_max = worker_codec_max.max(codec);
            residual_l2 = residual_l2.max(residual);
            let mut worker_wire = 0u64;
            let mut worker_push = 0u64;
            for (i, payload) in payloads.iter().enumerate() {
                let bytes = payload.wire_len();
                server_bytes[i % servers] += bytes;
                worker_wire += bytes;
                match payload {
                    TensorPayload::Compressed(_) => {
                        push_bytes += bytes;
                        worker_push += bytes;
                    }
                    TensorPayload::Raw(_) => raw_bytes += bytes,
                }
            }
            deltas.push(WorkerDelta {
                worker: w,
                wire_bytes: worker_wire,
                ratio: if worker_push > 0 {
                    (compressible_values as f64 * 32.0) / (worker_push as f64 * 8.0)
                } else {
                    0.0
                },
                residual_l2: residual,
                loss: loss as f64,
                multiplier: step_multiplier,
                rejoins: rejoin_counts[w],
                step_seconds,
                barrier_wait_seconds: match (arrivals[w], first_arrival) {
                    (Some(at), Some(first)) => at.saturating_duration_since(first).as_secs_f64(),
                    _ => 0.0,
                },
            });
            payloads_by_worker.push(payloads);
        }
        recorder
            .lock()
            .expect("series recorder lock")
            .record_step(step, &deltas);

        let out = server
            .apply_step(&payloads_by_worker, workers, residual_l2)
            .map_err(aggregation_error)?;
        trace
            .policy
            .records
            .extend(out.policy_records.iter().copied());

        // Encode the shared pull batch once; handlers fan it out.
        let mut pull_bytes = 0u64;
        let mut frames = Vec::with_capacity(n_params + 1);
        for (i, payload) in out.pulls.into_iter().enumerate() {
            let bytes = payload.wire_len() * workers as u64;
            server_bytes[i % servers] += bytes;
            match payload {
                TensorPayload::Compressed(wire) => {
                    pull_bytes += bytes;
                    frames.push((MsgType::PullTensor, wire));
                }
                TensorPayload::Raw(t) => {
                    raw_bytes += bytes;
                    frames.push((MsgType::PullRaw, tensor_to_bytes(&t)));
                }
            }
        }
        // Adaptive policies broadcast the next step's decisions with the
        // pull batch. Appending them here puts them in the replay history
        // too, so a rejoining worker reconstructs the exact decision
        // sequence. (Deliberately excluded from the traffic accounting:
        // the simulator's StepRecords carry no policy bytes either, and
        // the two must stay bit-identical.)
        if !out.next_decisions.is_empty() {
            frames.push((
                MsgType::PolicyUpdate,
                encode_policy_update(&out.next_decisions)?,
            ));
        }
        let batch = Arc::new(PullBatch { step, frames });
        if max_rejoins > 0 {
            history.push(Arc::clone(&batch));
        }
        for w in 0..workers {
            let alive = match &pull_txs[w] {
                Some(tx) => tx.send(FromCoord::Pulls(Arc::clone(&batch))).is_ok(),
                None => true, // already marked disconnected
            };
            if !alive {
                // The handler died between its push and our broadcast. Its
                // Finished message (with the underlying error) is still in
                // the channel; the connected[] check deduplicates it.
                note_disconnect(
                    w,
                    step,
                    "pull channel closed".into(),
                    max_rejoins,
                    &mut faults,
                    &mut connected,
                    &mut pull_txs,
                    &server_metrics,
                    flight,
                )?;
            }
        }

        trace.record_step(StepRecord {
            step,
            lr: out.lr,
            loss: (loss_sum / workers as f64) as f32,
            push_bytes,
            pull_bytes,
            raw_bytes,
            compressible_values,
            worker_codec_seconds: worker_codec_max,
            server_codec_seconds: out.server_codec_seconds,
            compute_multiplier,
            pull_overlapped: false,
            critical_bytes: server_bytes.iter().copied().max().unwrap_or(0),
            residual_l2,
        });
        step_span.finish();
        let due = config.eval_every > 0 && (step + 1) % config.eval_every == 0;
        if due && step + 1 < config.total_steps {
            trace.evals.push(EvalRecord {
                step: step + 1,
                eval: Evaluation::of(server.global(), &problem.test),
            });
        }
    }

    // ---- Graceful shutdown: handlers collect each worker's span buffer
    // (when tracing) and run the Shutdown/ShutdownAck handshake on their
    // own after the last pull, then report in. A disconnect in this phase
    // aborts — rejoin is a mid-run mechanism; there are no steps left to
    // resume into.
    let mut connections: Vec<Option<ConnReport>> = (0..workers).map(|_| None).collect();
    let mut worker_traces: Vec<Option<NodeTrace>> = (0..workers).map(|_| None).collect();
    let mut remaining = workers;
    let shutdown_deadline = Instant::now() + opts.step_timeout;
    while remaining > 0 {
        let left = shutdown_deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(NetError::Protocol(
                "timed out waiting for workers to shut down".into(),
            ));
        }
        match from_handlers.recv_timeout(left) {
            Ok(ToCoord::Finished {
                worker,
                gen,
                peer,
                counters,
                trace,
                error,
            }) => {
                if gen != gens[worker] {
                    lost[worker].merge(&counters);
                    continue;
                }
                if let Some(e) = error {
                    return Err(NetError::Protocol(format!(
                        "worker {worker} failed to shut down cleanly: {e}"
                    )));
                }
                let mut total = lost[worker];
                total.merge(&counters);
                connections[worker] = Some(ConnReport {
                    worker,
                    peer,
                    counters: total,
                });
                worker_traces[worker] = trace;
                remaining -= 1;
            }
            Ok(ToCoord::Pushed {
                worker, gen, step, ..
            }) => {
                if gen != gens[worker] {
                    continue;
                }
                return Err(NetError::Protocol(format!(
                    "worker {worker} pushed step {step} after training ended"
                )));
            }
            Ok(ToCoord::Rejoin { worker, .. }) => {
                threelc_obs::event!(
                    Level::Warn,
                    "server.rejoin_refused",
                    worker = worker,
                    reason = "training already ended"
                );
                continue;
            }
            Err(_) => continue, // the deadline check above decides
        }
    }
    for handle in handles {
        if handle.join().is_err() {
            // run_handler panics are caught and reported as Finished
            // errors; a join failure means the reporting wrapper itself
            // blew up. Surface it — never misreport the run as clean.
            return Err(NetError::Protocol(
                "a handler thread panicked outside the run loop".into(),
            ));
        }
    }

    let final_eval = Evaluation::of(server.global(), &problem.test);
    trace.evals.push(EvalRecord {
        step: config.total_steps,
        eval: final_eval,
    });
    // Step-level anomalies (ratio drift, residual blowups) go into the
    // embedded trace; cross-node stragglers come from the merged timeline.
    trace.run_watchdog(workers as u64);
    let mut node_traces = Vec::new();
    let mut anomalies = Vec::new();
    let mut analysis = None;
    if tracing {
        node_traces.push(server_buf.drain("server"));
        node_traces.extend(worker_traces.into_iter().flatten());
        let timeline = MergedTimeline::build(&node_traces);
        anomalies = threelc_obs::watchdog::check_timeline(&timeline, &WatchdogConfig::default());
        // Critical-path attribution over the same merged timeline; the
        // blame buckets land in the report and in the global registry so
        // `threelc metrics` (and `--prom` scrapers) see them too.
        let run_analysis = RunAnalysis::build(&timeline, &AnalysisConfig::default());
        if !run_analysis.steps.is_empty() {
            run_analysis.export_gauges(threelc_obs::global());
            analysis = Some(run_analysis);
        }
    }
    // Fault anomalies (rejoin flapping) need no tracing — the coordinator
    // saw every disconnect itself.
    let samples: Vec<FaultSample> = faults
        .events
        .iter()
        .map(|e| FaultSample {
            step: e.step,
            node: format!("worker{}", e.worker),
            kind: e.kind.clone(),
        })
        .collect();
    anomalies.extend(threelc_obs::watchdog::check_faults(
        &samples,
        &WatchdogConfig::default(),
    ));
    for a in &anomalies {
        threelc_obs::event!(
            Level::Warn,
            "server.trace_anomaly",
            kind = a.kind,
            step = a.step,
            node = a.node
        );
    }
    Ok(NetReport {
        result: ExperimentResult {
            config: *config,
            scheme_label: config.scheme.label(),
            model_params: server.global().num_params() as u64,
            final_eval,
            trace,
        },
        final_model_crc32: model_crc32(server.global()),
        connections: connections
            .into_iter()
            .map(|c| c.expect("every slot reported"))
            .collect(),
        faults,
        node_traces,
        anomalies,
        series: recorder.lock().expect("series recorder lock").snapshot(),
        analysis,
        metrics: threelc_obs::global().snapshot(),
    })
}

/// Marks a worker's connection dead: closes its pull channel, records the
/// fault, and — when the rejoin budget is already spent (or rejoins are
/// disabled) — aborts the run with the fail-stop error.
#[allow(clippy::too_many_arguments)]
fn note_disconnect(
    worker: usize,
    step: u64,
    detail: String,
    max_rejoins: u64,
    faults: &mut FaultsReport,
    connected: &mut [bool],
    pull_txs: &mut [Option<mpsc::Sender<FromCoord>>],
    metrics: &NetMetrics,
    flight: &mut FlightRecorder,
) -> Result<(), NetError> {
    connected[worker] = false;
    pull_txs[worker] = None;
    metrics.disconnects.add(1);
    flight.note_fault(step, &format!("worker{worker}"), "disconnect", &detail);
    threelc_obs::event!(
        Level::Warn,
        "server.worker_disconnected",
        worker = worker,
        step = step,
        detail = detail
    );
    faults.disconnects += 1;
    faults.events.push(FaultEvent {
        step,
        worker,
        kind: "disconnect".into(),
        detail: detail.clone(),
    });
    if faults.rejoins >= max_rejoins {
        return Err(NetError::Protocol(format!(
            "worker {worker} left during step {step}: {detail}"
        )));
    }
    Ok(())
}

/// Spawns one connection's handler thread. The handler body runs under
/// `catch_unwind`, so a panic is reported to the coordinator as a
/// `Finished { error }` exactly like any other handler failure — the
/// barrier sees it immediately instead of timing out, and the run is
/// never misreported as clean.
#[allow(clippy::too_many_arguments)]
fn spawn_handler(
    stream: TcpStream,
    worker: usize,
    gen: u64,
    start_step: u64,
    total_steps: u64,
    shapes: Arc<Vec<Shape>>,
    to_coord: mpsc::Sender<ToCoord>,
    pulls: mpsc::Receiver<FromCoord>,
    handshake_counters: ConnCounters,
    pull_timeout: Duration,
    server_buf: Arc<TraceBuffer>,
    trace_id: u64,
    rejoin: Option<RejoinTask>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".into());
        let mut conn = Conn::new(handshake_counters, NetMetrics::server());
        let (trace_dump, error) = match catch_unwind(AssertUnwindSafe(|| {
            run_handler(
                stream,
                worker,
                gen,
                start_step,
                total_steps,
                &shapes,
                &to_coord,
                pulls,
                &mut conn,
                pull_timeout,
                &server_buf,
                trace_id,
                rejoin,
            )
        })) {
            Ok(Ok(dump)) => (dump, None),
            Ok(Err(e)) => (None, Some(e.to_string())),
            Err(panic) => (
                None,
                Some(format!(
                    "handler thread panicked: {}",
                    panic_message(panic.as_ref())
                )),
            ),
        };
        // The coordinator may already be gone on abort; ignore.
        let _ = to_coord.send(ToCoord::Finished {
            worker,
            gen,
            peer,
            counters: conn.counters,
            trace: trace_dump,
            error,
        });
    })
}

/// Renders a caught panic payload (the `&str`/`String` most panics carry).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Rejects configurations the barrier-synchronized runtime cannot honor.
fn validate_config(config: &ExperimentConfig) -> Result<(), NetError> {
    if config.workers == 0 {
        return Err(NetError::Config("at least one worker required".into()));
    }
    if config.workers > usize::from(u16::MAX) {
        return Err(NetError::Config(format!(
            "{} workers exceed the u16 worker-id space",
            config.workers
        )));
    }
    if config.backup_workers != 0 {
        return Err(NetError::Config(
            "backup workers are simulator-only; the TCP runtime is strict BSP".into(),
        ));
    }
    if config.staleness != 0 {
        return Err(NetError::Config(
            "stale pulls are simulator-only; the TCP runtime is strict BSP".into(),
        ));
    }
    Ok(())
}

/// Names an engine aggregation failure — an all-rejected step, or a push
/// whose framing was valid but whose 3LC body does not decode — as the
/// run's error: the serve loop finishes with a typed [`NetError`] that
/// reaches the caller and the report like any other run failure, instead
/// of a panic taking the coordinator thread down.
fn aggregation_error(e: EngineError) -> NetError {
    NetError::Protocol(format!("server aggregation failed: {e}"))
}

/// What a fresh connection's first frame turned out to be.
enum Handshake {
    /// A worker joined: validated id plus the handshake-frame counters
    /// (carried into the handler's accounting).
    Worker(usize, ConnCounters),
    /// A scrape, already answered; the connection is done.
    Scrape,
}

/// Dispatches the first frame of a fresh connection: either the worker
/// Hello/HelloAck handshake, or a one-shot scrape. A
/// `Rejoin` in this phase (a leftover from some earlier run) is refused
/// by dropping the connection.
#[allow(clippy::too_many_arguments)]
fn handshake(
    stream: &TcpStream,
    io_timeout: Duration,
    workers: usize,
    taken: &[Option<mpsc::Sender<FromCoord>>],
    config_json: &str,
    server_buf: &Arc<TraceBuffer>,
    recorder: &Arc<Mutex<RunRecorder>>,
) -> Result<Handshake, NetError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let mut counters = ConnCounters::default();
    let t0 = Instant::now();
    let hello = read_frame(&mut &*stream)?;
    counters.note_read(hello.payload.len(), t0.elapsed().as_secs_f64());
    if hello.msg == MsgType::Scrape {
        answer_scrape(stream, decode_scrape(&hello.payload)?, server_buf, recorder)?;
        return Ok(Handshake::Scrape);
    }
    if hello.msg == MsgType::Rejoin {
        threelc_obs::event!(
            Level::Warn,
            "server.rejoin_refused",
            reason = "run has not started"
        );
        return Ok(Handshake::Scrape);
    }
    if hello.msg != MsgType::Hello {
        return Err(NetError::Protocol(format!(
            "expected Hello, got {:?}",
            hello.msg
        )));
    }
    let worker = usize::from(decode_hello(&hello.payload)?);
    if worker >= workers {
        return Err(NetError::Protocol(format!(
            "worker id {worker} out of range (cluster has {workers})"
        )));
    }
    if taken[worker].is_some() {
        return Err(NetError::Protocol(format!(
            "worker id {worker} connected twice"
        )));
    }
    let t0 = Instant::now();
    write_frame(
        &mut &*stream,
        MsgType::HelloAck,
        0,
        0,
        config_json.as_bytes(),
    )?;
    counters.note_write(config_json.len(), t0.elapsed().as_secs_f64());
    Ok(Handshake::Worker(worker, counters))
}

/// Replies to a `Scrape` with the view it names: the global metrics
/// registry, a (non-draining) snapshot of the server's span buffer, or
/// the run's time-series store — so `metrics`, `trace`/`analyze` and
/// `top` can inspect a live run mid-training.
fn answer_scrape(
    stream: &TcpStream,
    kind: ScrapeKind,
    server_buf: &Arc<TraceBuffer>,
    recorder: &Arc<Mutex<RunRecorder>>,
) -> Result<(), NetError> {
    let payload = match kind {
        ScrapeKind::Metrics => encode_scrape_reply(&threelc_obs::global().snapshot()),
        ScrapeKind::Trace => encode_scrape_reply(&server_buf.snapshot("server")),
        ScrapeKind::Series => {
            encode_scrape_reply(&recorder.lock().expect("series recorder lock").snapshot())
        }
    }?;
    write_frame(&mut &*stream, MsgType::ScrapeReply, 0, 0, &payload)?;
    (&*stream).flush()?;
    threelc_obs::event!(
        Level::Info,
        "server.scraped",
        kind = kind,
        bytes = payload.len()
    );
    Ok(())
}

/// Background thread owning the listener while the coordinator is busy
/// training (the main accept loop only runs during the handshake phase):
/// answers scrapes itself and forwards mid-run `Rejoin`
/// connections — stream and all — to the coordinator.
///
/// The listener clone shares its file description with the original, so
/// switching it to non-blocking affects both — safe here precisely
/// because the main thread is done accepting. Dropping the scraper stops
/// the thread and restores blocking mode, covering early-error returns
/// from `serve` too.
struct MetricsScraper<'a> {
    listener: &'a TcpListener,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl<'a> MetricsScraper<'a> {
    fn start(
        listener: &'a TcpListener,
        io_timeout: Duration,
        server_buf: Arc<TraceBuffer>,
        recorder: Arc<Mutex<RunRecorder>>,
        to_coord: mpsc::Sender<ToCoord>,
    ) -> Result<Self, NetError> {
        let clone = listener.try_clone().map_err(NetError::Io)?;
        clone.set_nonblocking(true).map_err(NetError::Io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            while !thread_stop.load(Ordering::Relaxed) {
                match clone.accept() {
                    Ok((stream, _)) => {
                        // Anything other than a well-formed scrape or
                        // rejoin on a mid-training connection is dropped.
                        let _ =
                            serve_side_door(stream, io_timeout, &server_buf, &recorder, &to_coord);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(20)),
                }
            }
        });
        Ok(MetricsScraper {
            listener,
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for MetricsScraper<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            if handle.join().is_err() {
                // Nothing to propagate from a Drop; say it loudly instead
                // of swallowing it — scrapes and rejoins were unavailable
                // for some part of the run.
                threelc_obs::event!(Level::Warn, "server.side_door_panicked");
            }
        }
        let _ = self.listener.set_nonblocking(false);
    }
}

/// Handles one connection accepted by the side-door thread: scrapes are
/// answered inline; a `Rejoin` hands the prepared stream (plus the
/// counters of the frame just read) to the coordinator for admission at
/// the current barrier.
fn serve_side_door(
    stream: TcpStream,
    io_timeout: Duration,
    server_buf: &Arc<TraceBuffer>,
    recorder: &Arc<Mutex<RunRecorder>>,
    to_coord: &mpsc::Sender<ToCoord>,
) -> Result<(), NetError> {
    // The accepting listener is non-blocking and the stream inherits
    // that; side-door I/O should block (bounded by the timeouts).
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let mut counters = ConnCounters::default();
    let t0 = Instant::now();
    let frame = read_frame(&mut &stream)?;
    counters.note_read(frame.payload.len(), t0.elapsed().as_secs_f64());
    match frame.msg {
        MsgType::Scrape => answer_scrape(
            &stream,
            decode_scrape(&frame.payload)?,
            server_buf,
            recorder,
        ),
        MsgType::Rejoin => {
            let worker = usize::from(decode_hello(&frame.payload)?);
            to_coord
                .send(ToCoord::Rejoin {
                    worker,
                    stream,
                    counters,
                })
                .map_err(|_| NetError::Protocol("coordinator is gone".into()))
        }
        other => Err(NetError::Protocol(format!(
            "unexpected {other:?} on a mid-training connection"
        ))),
    }
}

/// One connection's framing loop: collect pushes, forward to the
/// coordinator, fan the shared pull batch back out, and finally collect
/// the worker's trace dump (when tracing) and run the shutdown handshake.
///
/// For a rejoined worker the loop is preceded by the `RejoinAck` and a
/// replay of every completed step's pull batch (the resync the worker
/// rebuilds its replica from), and starts at `start_step` instead of 0.
///
/// On success, returns the worker's span buffer if the trace-dump
/// exchange ran.
#[allow(clippy::too_many_arguments)]
fn run_handler(
    stream: TcpStream,
    worker: usize,
    gen: u64,
    start_step: u64,
    total_steps: u64,
    shapes: &[Shape],
    to_coord: &mpsc::Sender<ToCoord>,
    pulls: mpsc::Receiver<FromCoord>,
    conn: &mut Conn,
    pull_timeout: Duration,
    server_buf: &Arc<TraceBuffer>,
    trace_id: u64,
    rejoin: Option<RejoinTask>,
) -> Result<Option<NodeTrace>, NetError> {
    let tracing = trace::trace_enabled();
    let n_params = shapes.len();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    if let Some(task) = &rejoin {
        // Resume grant: the step to resume at plus the configuration (a
        // replacement process joins with nothing but an address and id).
        let payload = encode_rejoin_ack(task.resume_step, &task.config_json);
        let t0 = Instant::now();
        write_frame(
            &mut writer,
            MsgType::RejoinAck,
            0,
            task.resume_step,
            &payload,
        )?;
        conn.note_write(payload.len(), t0.elapsed().as_secs_f64());
        // Replay the full pull history. The worker interleaves reading
        // these with recomputing each step, so the stream drains as fast
        // as the worker replays.
        for batch in &task.replay {
            for (i, (msg, payload)) in batch.frames.iter().enumerate() {
                let t0 = Instant::now();
                write_frame(&mut writer, *msg, i as u16, batch.step, payload)?;
                conn.note_write(payload.len(), t0.elapsed().as_secs_f64());
            }
            let t0 = Instant::now();
            write_frame(&mut writer, MsgType::PullDone, 0, batch.step, &[])?;
            conn.note_write(0, t0.elapsed().as_secs_f64());
        }
        writer.flush()?;
    }

    for step in start_step..total_steps {
        // Handler spans land in the server's buffer (server clock), tagged
        // with this worker's id — the timeline pairs them with the worker's
        // own network span to estimate the worker clock's offset.
        let _scope =
            tracing.then(|| TraceScope::enter(server_buf, "server", trace_id, step, worker as i64));

        // ---- Gather this worker's push batch. The recv_push span closes
        // when the worker's PushDone lands, and is re-parented onto the
        // span that sent it (carried by the frame's trace context).
        let mut recv_span = TraceSpan::start("recv_push");
        let mut payloads: Vec<TensorPayload> = Vec::with_capacity(n_params);
        let (loss, codec_seconds, residual_l2, step_seconds) = loop {
            // One span per incoming frame: read plus dispatch (dropped at
            // the end of the iteration, including on break/error).
            let _frame_span = SpanGuard::on(Arc::clone(&conn.metrics.frame_seconds));
            let t0 = Instant::now();
            let frame = read_frame(&mut reader)?;
            conn.note_read(frame.payload.len(), t0.elapsed().as_secs_f64());
            if frame.step != step {
                return Err(NetError::Protocol(format!(
                    "worker {worker} sent step {} during step {step}",
                    frame.step
                )));
            }
            match frame.msg {
                MsgType::PushTensor | MsgType::PushRaw => {
                    let i = payloads.len();
                    if i >= n_params || usize::from(frame.tensor) != i {
                        return Err(NetError::Protocol(format!(
                            "worker {worker} pushed tensor {} out of order (expected {i})",
                            frame.tensor
                        )));
                    }
                    if frame.msg == MsgType::PushTensor {
                        payloads.push(TensorPayload::Compressed(frame.payload));
                    } else {
                        let t1 = Instant::now();
                        let tensor = bytes_to_tensor(&frame.payload, &shapes[i])?;
                        conn.note_codec(t1.elapsed().as_secs_f64());
                        payloads.push(TensorPayload::Raw(tensor));
                    }
                }
                MsgType::PushDone => {
                    if payloads.len() != n_params {
                        return Err(NetError::Protocol(format!(
                            "worker {worker} pushed {} of {n_params} tensors",
                            payloads.len()
                        )));
                    }
                    if let Some(ctx) = frame.trace.to_obs() {
                        recv_span.set_remote_parent(ctx);
                    }
                    break decode_push_done(&frame.payload)?;
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "worker {worker} sent {other:?} during the push phase"
                    )));
                }
            }
        };
        recv_span.finish();
        to_coord
            .send(ToCoord::Pushed {
                worker,
                gen,
                step,
                payloads,
                loss,
                codec_seconds,
                residual_l2,
                step_seconds,
            })
            .map_err(|_| NetError::Protocol("coordinator is gone".into()))?;

        // ---- Wait at the barrier, then fan out the shared pulls. The
        // wait covers a sibling worker's rejoin-plus-replay too.
        let batch = match pulls.recv_timeout(pull_timeout) {
            Ok(FromCoord::Pulls(batch)) => batch,
            Err(_) => return Err(NetError::Protocol("no pull batch from coordinator".into())),
        };
        if batch.step != step {
            return Err(NetError::Protocol(format!(
                "pull batch for step {} arrived during step {step}",
                batch.step
            )));
        }
        let send_span = TraceSpan::start("send_pull");
        for (i, (msg, payload)) in batch.frames.iter().enumerate() {
            let _frame_span = SpanGuard::on(Arc::clone(&conn.metrics.frame_seconds));
            let t0 = Instant::now();
            write_frame(&mut writer, *msg, i as u16, step, payload)?;
            conn.note_write(payload.len(), t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        write_frame(&mut writer, MsgType::PullDone, 0, step, &[])?;
        writer.flush()?;
        conn.note_write(0, t0.elapsed().as_secs_f64());
        send_span.finish();
    }

    // ---- Collect the worker's span buffer before shutting it down.
    let worker_trace = if tracing {
        let t0 = Instant::now();
        let request = [ScrapeKind::Trace as u8];
        write_frame(&mut writer, MsgType::Scrape, 0, total_steps, &request)?;
        writer.flush()?;
        conn.note_write(request.len(), t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let dump = read_frame(&mut reader)?;
        conn.note_read(dump.payload.len(), t0.elapsed().as_secs_f64());
        if dump.msg != MsgType::ScrapeReply {
            return Err(NetError::Protocol(format!(
                "worker {worker} answered the trace scrape with {:?}",
                dump.msg
            )));
        }
        Some(decode_scrape_reply(&dump.payload)?)
    } else {
        None
    };

    // ---- Graceful shutdown handshake.
    let t0 = Instant::now();
    write_frame(&mut writer, MsgType::Shutdown, 0, total_steps, &[])?;
    writer.flush()?;
    conn.note_write(0, t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let ack = read_frame(&mut reader)?;
    conn.note_read(ack.payload.len(), t0.elapsed().as_secs_f64());
    if ack.msg != MsgType::ShutdownAck {
        return Err(NetError::Protocol(format!(
            "worker {worker} answered shutdown with {:?}",
            ack.msg
        )));
    }
    Ok(worker_trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_messages_render_str_string_and_other_payloads() {
        let caught = catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "plain str");
        let caught = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
        let caught = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn all_rejected_aggregation_maps_to_a_named_run_error() {
        let e = aggregation_error(EngineError::NoAcceptedPushes { step: 7 });
        let msg = e.to_string();
        assert!(
            msg.contains("server aggregation failed"),
            "error must name the failing phase: {msg}"
        );
        assert!(msg.contains("step 7"), "error must carry the step: {msg}");
        assert!(
            msg.contains("rejected"),
            "error must explain the cause: {msg}"
        );
    }

    #[test]
    fn undecodable_push_maps_to_a_run_error_naming_worker_tensor_and_cause() {
        let msg = aggregation_error(EngineError::UndecodablePush {
            step: 3,
            worker: 1,
            tensor: 4,
            source: threelc::DecodeError::InvalidQuarticByte {
                byte: 250,
                offset: 17,
            },
        })
        .to_string();
        for part in ["step 3", "worker 1", "tensor 4", "250"] {
            assert!(msg.contains(part), "error must mention `{part}`: {msg}");
        }
    }

    #[test]
    fn a_panicking_handler_body_reports_finished_with_an_error() {
        // The same catch-unwind + Finished path spawn_handler uses, driven
        // with a body that panics: the coordinator must receive a named
        // error, not silence.
        let (tx, rx) = mpsc::channel::<ToCoord>();
        let handle = thread::spawn(move || {
            let result: Result<Option<NodeTrace>, NetError> = match catch_unwind(AssertUnwindSafe(
                || -> Result<Option<NodeTrace>, NetError> {
                    panic!("handler blew up");
                },
            )) {
                Ok(r) => r,
                Err(p) => Err(NetError::Protocol(format!(
                    "handler thread panicked: {}",
                    panic_message(p.as_ref())
                ))),
            };
            let error = result.err().map(|e| e.to_string());
            let _ = tx.send(ToCoord::Finished {
                worker: 0,
                gen: 0,
                peer: "test".into(),
                counters: ConnCounters::default(),
                trace: None,
                error,
            });
        });
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(ToCoord::Finished { error: Some(e), .. }) => {
                assert!(e.contains("panicked"), "error should name the panic: {e}");
                assert!(e.contains("handler blew up"), "panic text lost: {e}");
            }
            other => panic!(
                "expected Finished with an error, got {:?}",
                match other {
                    Ok(_) => "a different message",
                    Err(_) => "a timeout",
                }
            ),
        }
        handle.join().expect("test thread");
    }
}
