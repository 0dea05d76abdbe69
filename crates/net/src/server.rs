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
use crate::frame::MsgType;
use crate::metrics::{Conn, NetMetrics};
use crate::protocol::{
    bytes_to_tensor, decode_hello, decode_push_done, decode_scrape, decode_scrape_reply,
    encode_policy_update, encode_rejoin_ack, encode_scrape_reply, model_crc32, tensor_to_bytes,
    NetError, ScrapeKind,
};
use crate::report::{ConnReport, FaultEvent, FaultsReport, NetReport};
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use threelc_distsim::engine::{self, EngineError, Problem, ServerCore, TensorPayload, WorkerPush};
use threelc_distsim::trace::{EvalRecord, TrainingTrace};
use threelc_distsim::{ExperimentConfig, ExperimentResult};
use threelc_learning::Evaluation;
use threelc_obs::flight::trigger;
use threelc_obs::{
    trace, write_flight_dump, FlightDump, Level, MergedTimeline, NodeTrace, RunAnalysis,
    RunRecorder, TraceBuffer, TraceScope, TraceSpan,
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
    /// Where to write the flight dump (`<out>.flight.json`). When set, a
    /// dump is written automatically if the run aborts, a handler panics,
    /// a fault fires, or the end-of-run watchdog flags anomalies. `None`
    /// disables dumping (series are still recorded and scrapeable).
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

/// One worker's contribution at the push barrier, as its `PushDone`
/// reported it.
struct Push {
    payloads: Vec<TensorPayload>,
    loss: f32,
    codec_seconds: f64,
    residual_l2: f64,
    step_seconds: f64,
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
        push: Push,
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

/// What [`Coordinator::admit`] grants a rejoining worker: its new
/// generation, the receiving end of its pull channel, and the replay.
struct Admission {
    gen: u64,
    pulls: mpsc::Receiver<FromCoord>,
    replay: Vec<Arc<PullBatch>>,
}

/// The coordinator's state: who is connected under which generation, the
/// open barrier, the pull history, and the run's one fault ledger. A plain
/// value — no sockets, no threads — so [`serve`] can own it across
/// [`serve_run`]'s early returns (an aborted run's flight dump still
/// reads the faults) and a test can drive it message by message.
///
/// Every fault is written exactly once, as a [`FaultEvent`], by
/// [`Self::retire`] (a disconnect) or [`Self::admit`] (a rejoin), which
/// also bump the `net.server.*` counter and log the event. The run report,
/// the rejoin-flap check and the flight dump all read that ledger.
struct Coordinator {
    max_rejoins: u64,
    step_timeout: Duration,
    rejoin_timeout: Duration,
    metrics: NetMetrics,
    /// Per-worker connection generation; bumped on every admitted rejoin.
    gens: Vec<u64>,
    /// Cumulative admitted rejoins per worker, recorded as a series so the
    /// dashboard can show flapping workers.
    rejoin_counts: Vec<u64>,
    /// Traffic of a worker's finished (lost or superseded) connections,
    /// folded into its final ConnReport.
    lost: Vec<ConnCounters>,
    /// The sending end of each worker's pull channel; `None` while the
    /// worker is out (never connected, or retired and not yet rejoined).
    pull_txs: Vec<Option<mpsc::Sender<FromCoord>>>,
    /// Every completed step's pull batch, the replay a rejoiner resyncs
    /// from. Arc'd frames, so the history costs one encoded copy per step;
    /// disabled (empty) in fail-stop mode.
    history: Vec<Arc<PullBatch>>,
    faults: FaultsReport,
    /// The open barrier: its step, each worker's landed push with its
    /// wall-clock arrival, and the deadline — which extends when a worker
    /// disconnects or rejoins, parking the barrier instead of aborting.
    step: u64,
    slots: Vec<Option<(Push, Instant)>>,
    deadline: Instant,
}

impl Coordinator {
    fn new(workers: usize, opts: &ServeOptions) -> Self {
        Coordinator {
            max_rejoins: u64::from(opts.max_rejoins),
            step_timeout: opts.step_timeout,
            rejoin_timeout: opts.rejoin_timeout,
            metrics: NetMetrics::server(),
            gens: vec![0; workers],
            rejoin_counts: vec![0; workers],
            lost: vec![ConnCounters::default(); workers],
            pull_txs: (0..workers).map(|_| None).collect(),
            history: Vec::new(),
            faults: FaultsReport::default(),
            step: 0,
            slots: (0..workers).map(|_| None).collect(),
            deadline: Instant::now(),
        }
    }

    /// A barrier wait while any worker is out covers both a normal step
    /// and a rejoin-plus-replay, whichever is longer.
    fn park_timeout(&self) -> Duration {
        self.step_timeout.max(self.rejoin_timeout)
    }

    /// Connects `worker`: opens its pull channel and returns the handler's
    /// end.
    fn connect(&mut self, worker: usize) -> mpsc::Receiver<FromCoord> {
        let (tx, rx) = mpsc::channel();
        self.pull_txs[worker] = Some(tx);
        rx
    }

    fn connected(&self, worker: usize) -> bool {
        self.pull_txs[worker].is_some()
    }

    /// The stale-generation rule, for every phase: a message counts only
    /// if it comes from the worker's current connection.
    fn is_current(&self, worker: usize, gen: u64) -> bool {
        gen == self.gens[worker]
    }

    /// Opens `step`'s barrier with every slot empty.
    fn open_barrier(&mut self, step: u64) {
        self.step = step;
        self.slots.iter_mut().for_each(|s| *s = None);
        self.deadline = Instant::now()
            + if self.pull_txs.iter().all(Option::is_some) {
                self.step_timeout
            } else {
                self.park_timeout()
            };
    }

    /// Pushes the open barrier still waits for.
    fn missing(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// The barrier's time left, or the timeout error naming who is out.
    fn time_left(&self) -> Result<Duration, NetError> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            return Ok(left);
        }
        let step = self.step;
        let out: Vec<usize> = (0..self.pull_txs.len())
            .filter(|&w| !self.connected(w))
            .collect();
        Err(NetError::Protocol(if out.is_empty() {
            format!("timed out waiting for pushes in step {step}")
        } else {
            format!("timed out waiting for worker(s) {out:?} to rejoin in step {step}")
        }))
    }

    /// Lands one worker's push in the open barrier. A push from a
    /// superseded connection (it raced its connection's death) is dropped.
    fn accept_push(
        &mut self,
        worker: usize,
        gen: u64,
        step: u64,
        push: Push,
    ) -> Result<(), NetError> {
        if !self.is_current(worker, gen) {
            return Ok(());
        }
        if step != self.step {
            return Err(NetError::Protocol(format!(
                "worker {worker} pushed step {step} during step {}",
                self.step
            )));
        }
        if self.slots[worker].is_some() {
            return Err(NetError::Protocol(format!(
                "worker {worker} pushed twice in step {step}"
            )));
        }
        self.slots[worker] = Some((push, Instant::now()));
        Ok(())
    }

    /// A handler finished mid-training. Its traffic is always kept; if it
    /// was the worker's live connection, the worker is retired.
    fn finished(
        &mut self,
        worker: usize,
        gen: u64,
        counters: &ConnCounters,
        error: Option<String>,
    ) -> Result<(), NetError> {
        self.lost[worker].merge(counters);
        if !self.is_current(worker, gen) || !self.connected(worker) {
            // A superseded or already-retired connection winding down.
            return Ok(());
        }
        self.retire(worker, error.unwrap_or_else(|| "closed early".into()))
    }

    /// Marks a worker's connection dead: closes its pull channel, discards
    /// its push if one landed (the rejoined worker re-pushes this step, and
    /// deterministic replay makes the re-push byte-identical), extends the
    /// barrier's deadline by the rejoin timeout, and writes the fault. When
    /// the rejoin budget is already spent (or rejoins are disabled) this is
    /// the fail-stop error that aborts the run.
    fn retire(&mut self, worker: usize, detail: String) -> Result<(), NetError> {
        let step = self.step;
        self.pull_txs[worker] = None;
        self.slots[worker] = None;
        self.deadline = self.deadline.max(Instant::now() + self.rejoin_timeout);
        self.metrics.disconnects.add(1);
        threelc_obs::event!(
            Level::Warn,
            "server.worker_disconnected",
            worker = worker,
            step = step,
            detail = detail
        );
        self.faults.disconnects += 1;
        let error = (self.faults.rejoins >= self.max_rejoins).then(|| {
            NetError::Protocol(format!("worker {worker} left during step {step}: {detail}"))
        });
        self.faults.events.push(FaultEvent {
            step,
            worker,
            kind: "disconnect".into(),
            detail,
        });
        error.map_or(Ok(()), Err)
    }

    /// Admits a mid-run rejoin at the open barrier, or refuses it (`None`:
    /// the caller drops the stream). If the worker's old connection still
    /// counts as connected it is half-dead — its `Finished` has not landed
    /// yet — and is retired first; the generation bump then makes whatever
    /// it still sends stale.
    fn admit(&mut self, worker: usize) -> Result<Option<Admission>, NetError> {
        let refusal = if worker >= self.gens.len() {
            Some("id out of range")
        } else if self.faults.rejoins >= self.max_rejoins {
            Some("rejoin budget exhausted")
        } else {
            None
        };
        if let Some(reason) = refusal {
            threelc_obs::event!(
                Level::Warn,
                "server.rejoin_refused",
                worker = worker,
                reason = reason
            );
            return Ok(None);
        }
        if self.connected(worker) {
            self.retire(worker, "superseded by a rejoin".into())?;
        }
        let step = self.step;
        debug_assert_eq!(self.history.len() as u64, step);
        self.gens[worker] += 1;
        self.rejoin_counts[worker] += 1;
        self.faults.rejoins += 1;
        self.metrics.rejoins.add(1);
        threelc_obs::event!(
            Level::Info,
            "server.worker_rejoined",
            worker = worker,
            step = step,
            gen = self.gens[worker]
        );
        self.faults.events.push(FaultEvent {
            step,
            worker,
            kind: "rejoin".into(),
            detail: format!(
                "resumed at step {step} after a replay of {} step(s)",
                self.history.len()
            ),
        });
        self.deadline = self.deadline.max(Instant::now() + self.park_timeout());
        Ok(Some(Admission {
            gen: self.gens[worker],
            pulls: self.connect(worker),
            replay: self.history.clone(),
        }))
    }

    /// Closes a full barrier: every worker's push with its barrier-wait
    /// charge, the lag past the earliest arrival.
    fn close_barrier(&mut self) -> Vec<(Push, f64)> {
        let landed: Vec<(Push, Instant)> = self
            .slots
            .iter_mut()
            .map(|s| s.take().expect("barrier filled every slot"))
            .collect();
        let first = landed.iter().map(|(_, at)| *at).min();
        landed
            .into_iter()
            .map(|(push, at)| {
                let wait = first.map_or(0.0, |f| at.saturating_duration_since(f).as_secs_f64());
                (push, wait)
            })
            .collect()
    }

    /// Hands the step's pull batch to every connected handler and keeps it
    /// for replays. A handler that died between its push and the broadcast
    /// is retired here; its `Finished` (with the underlying error) is still
    /// in the channel and [`Self::finished`] then changes nothing more.
    fn broadcast(&mut self, batch: &Arc<PullBatch>) -> Result<(), NetError> {
        if self.max_rejoins > 0 {
            self.history.push(Arc::clone(batch));
        }
        for w in 0..self.pull_txs.len() {
            let alive = match &self.pull_txs[w] {
                Some(tx) => tx.send(FromCoord::Pulls(Arc::clone(batch))).is_ok(),
                None => true, // already retired
            };
            if !alive {
                self.retire(w, "pull channel closed".into())?;
            }
        }
        Ok(())
    }
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
    // scrapes). It, the coordinator (whose fault ledger a dump reads) and
    // the server's span buffer are owned here, not inside serve_run, so an
    // aborted run can still be dumped.
    let recorder = Arc::new(Mutex::new(RunRecorder::new(config.workers)));
    let mut coord = Coordinator::new(config.workers, opts);
    let server_buf = Arc::new(TraceBuffer::default());
    let result = serve_run(listener, config, opts, &recorder, &mut coord, &server_buf);
    if let Some(path) = &opts.flight {
        let faults = &coord.faults.events;
        let cause = match &result {
            Err(e) => {
                let text = e.to_string();
                let cause = if text.contains("panicked") {
                    trigger::PANIC
                } else {
                    trigger::ABORT
                };
                Some((cause, text, Vec::new()))
            }
            Ok(report) => {
                let mut findings = report.anomalies.clone();
                findings.extend(report.result.trace.anomalies.iter().cloned());
                if !findings.is_empty() {
                    let detail = "end-of-run watchdog flagged anomalies";
                    Some((trigger::WATCHDOG, detail.into(), findings))
                } else if !faults.is_empty() {
                    let detail = "transport faults occurred during the run";
                    Some((trigger::FAULT, detail.into(), findings))
                } else {
                    None
                }
            }
        };
        if let Some((cause, detail, findings)) = cause {
            let series = recorder.lock().expect("series recorder lock").snapshot();
            // The spans a dump carries are what the server's buffer still
            // holds: an aborted run's whole timeline; nothing after a
            // completed run, whose buffer was drained into the report.
            let mut spans = vec![server_buf.snapshot("server")];
            spans.retain(|n| !n.spans.is_empty());
            let dump = FlightDump::new(cause, &detail, series, faults, &findings, spans);
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
/// and transport faults into `coord` as they happen. Split out so the
/// wrapper can still reach both after an early-error return.
fn serve_run(
    listener: &TcpListener,
    config: &ExperimentConfig,
    opts: &ServeOptions,
    recorder: &Arc<Mutex<RunRecorder>>,
    coord: &mut Coordinator,
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

    // ---- Handshake: fill every worker slot. Scrapes arriving
    // in this phase are answered inline without consuming a slot.
    let (to_coord, from_handlers) = mpsc::channel::<ToCoord>();
    let mut handles = Vec::with_capacity(workers);
    let park_timeout = coord.park_timeout();
    while handles.len() < workers {
        let (stream, _) = listener.accept().map_err(NetError::Io)?;
        let (worker, handshake_counters) = match handshake(
            &stream,
            opts.io_timeout,
            workers,
            &coord.pull_txs,
            &config_json,
            server_buf,
            recorder,
        )? {
            Handshake::Worker(worker, counters) => (worker, counters),
            Handshake::Scrape => continue,
        };
        threelc_obs::event!(Level::Info, "server.worker_connected", worker = worker);
        handles.push(spawn_handler(
            stream,
            worker,
            0,
            0,
            config.total_steps,
            Arc::clone(&shapes),
            to_coord.clone(),
            coord.connect(worker),
            handshake_counters,
            park_timeout,
            Arc::clone(server_buf),
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
        Arc::clone(server_buf),
        Arc::clone(recorder),
        to_coord.clone(),
    )?;

    // ---- Barrier-synchronized BSP training loop.
    let mut trace = TrainingTrace::default();
    trace.policy.label = config.policy.label();
    let mut straggler_rng = threelc_tensor::rng(config.seed ^ 0x5357_4147);
    for step in 0..config.total_steps {
        let step_t0 = Instant::now();
        let _coord_scope = tracing
            .then(|| TraceScope::enter(server_buf, "server", trace_id, step, trace::NO_WORKER));
        let (_accepted, compute_multiplier) = engine::sample_stragglers(config, &mut straggler_rng);

        // Collect every worker's push batch (the barrier).
        let barrier_span = TraceSpan::start("barrier");
        coord.open_barrier(step);
        while coord.missing() > 0 {
            let msg = match from_handlers.recv_timeout(coord.time_left()?) {
                Ok(msg) => msg,
                Err(_) => continue, // time_left decides
            };
            match msg {
                ToCoord::Pushed {
                    worker,
                    gen,
                    step: s,
                    push,
                } => coord.accept_push(worker, gen, s, push)?,
                ToCoord::Finished {
                    worker,
                    gen,
                    counters,
                    error,
                    ..
                } => coord.finished(worker, gen, &counters, error)?,
                ToCoord::Rejoin {
                    worker,
                    stream,
                    counters,
                } => {
                    // A refusal drops the stream, which is the refusal.
                    let Some(admission) = coord.admit(worker)? else {
                        continue;
                    };
                    handles.push(spawn_handler(
                        stream,
                        worker,
                        admission.gen,
                        step,
                        config.total_steps,
                        Arc::clone(&shapes),
                        to_coord.clone(),
                        admission.pulls,
                        counters,
                        park_timeout,
                        Arc::clone(server_buf),
                        trace_id,
                        Some(RejoinTask {
                            resume_step: step,
                            config_json: Arc::clone(&config_json),
                            replay: admission.replay,
                        }),
                    ));
                }
            }
        }
        barrier_span.finish();

        // Worker-order accounting by the engine's one step accountant —
        // the simulator feeds it the same way, so the recorded series and
        // StepRecords match bit for bit.
        let pushes = coord.close_barrier();
        let mut account = server.begin_step(compute_multiplier);
        for (w, (push, barrier_wait_seconds)) in pushes.iter().enumerate() {
            account.push(Some(WorkerPush {
                payloads: &push.payloads,
                loss: push.loss,
                codec_seconds: push.codec_seconds,
                residual_l2: push.residual_l2,
                step_seconds: push.step_seconds,
                barrier_wait_seconds: *barrier_wait_seconds,
                rejoins: coord.rejoin_counts[w],
            }));
        }
        recorder
            .lock()
            .expect("series recorder lock")
            .record_step(step, account.deltas());

        let payloads_by_worker: Vec<_> = pushes.into_iter().map(|(p, _)| p.payloads).collect();
        let out = server
            .apply_step(
                &payloads_by_worker,
                account.accepted(),
                account.residual_l2(),
            )
            .map_err(aggregation_error)?;
        // Aggregated: free every worker's push before the pull frames are
        // built and broadcast beside them.
        drop(payloads_by_worker);
        trace
            .policy
            .records
            .extend(out.policy_records.iter().copied());
        let record = account.finish(&out, false);

        // Encode the shared pull batch once; handlers fan it out.
        let mut frames = Vec::with_capacity(n_params + 1);
        for payload in out.pulls {
            frames.push(match payload {
                TensorPayload::Compressed(wire) => (MsgType::PullTensor, wire),
                TensorPayload::Raw(t) => (MsgType::PullRaw, tensor_to_bytes(&t)),
            });
        }
        // Adaptive policies broadcast the next step's decisions with the
        // pull batch. Appending them here puts them in the replay history
        // too, so a rejoining worker reconstructs the exact decision
        // sequence. (The step's accounting was closed above, over the
        // tensor payloads only: policy bytes are transport.)
        if !out.next_decisions.is_empty() {
            frames.push((
                MsgType::PolicyUpdate,
                encode_policy_update(&out.next_decisions)?,
            ));
        }
        coord.broadcast(&Arc::new(PullBatch { step, frames }))?;

        trace.record_step(record);
        coord
            .metrics
            .step_seconds
            .record(step_t0.elapsed().as_secs_f64());
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
                if !coord.is_current(worker, gen) {
                    coord.lost[worker].merge(&counters);
                    continue;
                }
                if let Some(e) = error {
                    return Err(NetError::Protocol(format!(
                        "worker {worker} failed to shut down cleanly: {e}"
                    )));
                }
                let mut total = coord.lost[worker];
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
                if coord.is_current(worker, gen) {
                    return Err(NetError::Protocol(format!(
                        "worker {worker} pushed step {step} after training ended"
                    )));
                }
            }
            Ok(ToCoord::Rejoin { worker, .. }) => {
                threelc_obs::event!(
                    Level::Warn,
                    "server.rejoin_refused",
                    worker = worker,
                    reason = "training already ended"
                );
            }
            Err(_) => {} // the deadline check above decides
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
        anomalies = threelc_obs::watchdog::check_timeline(&timeline);
        // Critical-path attribution over the same merged timeline; the
        // blame buckets land in the report and in the global registry so
        // `threelc metrics` (and `--prom` scrapers) see them too.
        let run_analysis = RunAnalysis::build(&timeline);
        if !run_analysis.steps.is_empty() {
            run_analysis.export_gauges(threelc_obs::global());
            analysis = Some(run_analysis);
        }
    }
    // Fault anomalies (rejoin flapping) need no tracing — the coordinator
    // saw every disconnect itself.
    anomalies.extend(threelc_obs::watchdog::check_faults(&coord.faults.events));
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
        faults: coord.faults.clone(),
        node_traces,
        anomalies,
        series: recorder.lock().expect("series recorder lock").snapshot(),
        analysis,
        metrics: threelc_obs::global().snapshot(),
    })
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
    let mut conn = Conn::new(ConnCounters::default(), NetMetrics::server());
    let hello = conn.read_frame(&mut &*stream)?;
    if hello.msg == MsgType::Scrape {
        let kind = decode_scrape(&hello.payload)?;
        answer_scrape(stream, &mut conn, kind, server_buf, recorder)?;
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
    conn.write_frame(
        &mut &*stream,
        MsgType::HelloAck,
        0,
        0,
        config_json.as_bytes(),
    )?;
    Ok(Handshake::Worker(worker, conn.counters))
}

/// Replies to a `Scrape` with the view it names: the global metrics
/// registry, a (non-draining) snapshot of the server's span buffer, or
/// the run's time-series store — so `metrics`, `trace`/`analyze` and
/// `top` can inspect a live run mid-training.
fn answer_scrape(
    stream: &TcpStream,
    conn: &mut Conn,
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
    conn.write_frame(&mut &*stream, MsgType::ScrapeReply, 0, 0, &payload)?;
    conn.flush(&mut &*stream)?;
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
    let mut conn = Conn::new(ConnCounters::default(), NetMetrics::server());
    let frame = conn.read_frame(&mut &stream)?;
    match frame.msg {
        MsgType::Scrape => {
            let kind = decode_scrape(&frame.payload)?;
            answer_scrape(&stream, &mut conn, kind, server_buf, recorder)
        }
        MsgType::Rejoin => {
            let worker = usize::from(decode_hello(&frame.payload)?);
            to_coord
                .send(ToCoord::Rejoin {
                    worker,
                    stream,
                    counters: conn.counters,
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
        conn.write_frame(
            &mut writer,
            MsgType::RejoinAck,
            0,
            task.resume_step,
            &payload,
        )?;
        // Replay the full pull history. The worker interleaves reading
        // these with recomputing each step, so the stream drains as fast
        // as the worker replays.
        for batch in &task.replay {
            for (i, (msg, payload)) in batch.frames.iter().enumerate() {
                conn.write_frame(&mut writer, *msg, i as u16, batch.step, payload)?;
            }
            conn.write_frame(&mut writer, MsgType::PullDone, 0, batch.step, &[])?;
        }
        conn.flush(&mut writer)?;
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
            let frame = conn.read_frame(&mut reader)?;
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
                push: Push {
                    payloads,
                    loss,
                    codec_seconds,
                    residual_l2,
                    step_seconds,
                },
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
            conn.write_frame(&mut writer, *msg, i as u16, step, payload)?;
        }
        conn.write_frame(&mut writer, MsgType::PullDone, 0, step, &[])?;
        conn.flush(&mut writer)?;
        send_span.finish();
    }

    // ---- Collect the worker's span buffer before shutting it down.
    let worker_trace = if tracing {
        let request = [ScrapeKind::Trace as u8];
        conn.write_frame(&mut writer, MsgType::Scrape, 0, total_steps, &request)?;
        conn.flush(&mut writer)?;
        let dump = conn.read_frame(&mut reader)?;
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
    conn.write_frame(&mut writer, MsgType::Shutdown, 0, total_steps, &[])?;
    conn.flush(&mut writer)?;
    let ack = conn.read_frame(&mut reader)?;
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

    // ---- The coordinator, driven message by message with no socket.

    fn coordinator(workers: usize, max_rejoins: u32) -> Coordinator {
        let opts = ServeOptions {
            max_rejoins,
            ..ServeOptions::default()
        };
        let mut coord = Coordinator::new(workers, &opts);
        for w in 0..workers {
            // The handlers' ends are dropped: nothing here broadcasts.
            let _ = coord.connect(w);
        }
        coord
    }

    fn push(loss: f32) -> Push {
        Push {
            payloads: Vec::new(),
            loss,
            codec_seconds: 0.0,
            residual_l2: 0.0,
            step_seconds: 0.0,
        }
    }

    fn counters(bytes_in: u64) -> ConnCounters {
        ConnCounters {
            bytes_in,
            ..ConnCounters::default()
        }
    }

    #[test]
    fn a_push_from_a_stale_generation_is_dropped() {
        let mut coord = coordinator(2, 4);
        coord.open_barrier(0);
        coord.gens[1] = 1; // worker 1 already rejoined once
        coord
            .accept_push(1, 0, 0, push(9.0))
            .expect("stale is not an error");
        assert_eq!(coord.missing(), 2, "the stale push must not land");
        coord.accept_push(1, 1, 0, push(1.0)).expect("current push");
        assert_eq!(coord.missing(), 1);
        // Protocol violations from the live connection still abort.
        let twice = coord.accept_push(1, 1, 0, push(1.0)).unwrap_err();
        assert!(twice.to_string().contains("pushed twice"), "{twice}");
        let early = coord.accept_push(0, 0, 3, push(1.0)).unwrap_err();
        assert!(early.to_string().contains("pushed step 3 during step 0"));
        assert!(coord.faults.events.is_empty());
    }

    #[test]
    fn finished_from_a_superseded_connection_only_keeps_its_traffic() {
        let mut coord = coordinator(2, 4);
        coord.open_barrier(2);
        coord.gens[0] = 1;
        coord.accept_push(0, 1, 2, push(1.0)).unwrap();
        coord
            .finished(0, 0, &counters(100), Some("reset".into()))
            .expect("a stale Finished never aborts");
        assert_eq!(coord.lost[0].bytes_in, 100);
        assert!(coord.connected(0));
        assert_eq!(coord.missing(), 1, "the live connection's push stays");
        assert!(coord.faults.events.is_empty());
        assert_eq!(coord.faults.disconnects, 0);
    }

    #[test]
    fn a_live_disconnect_retires_the_worker_and_writes_one_fault() {
        let mut coord = coordinator(2, 4);
        coord.open_barrier(5);
        coord.accept_push(1, 0, 5, push(1.0)).unwrap();
        let before = coord.deadline;
        coord
            .finished(1, 0, &counters(7), Some("frame I/O: reset".into()))
            .expect("budget left: the barrier parks");
        assert!(!coord.connected(1));
        assert_eq!(
            coord.missing(),
            2,
            "the dead connection's push is discarded"
        );
        assert!(coord.deadline >= before);
        assert_eq!(coord.faults.disconnects, 1);
        assert_eq!(
            coord.faults.events,
            [FaultEvent {
                step: 5,
                worker: 1,
                kind: "disconnect".into(),
                detail: "frame I/O: reset".into(),
            }]
        );
        // Its Finished landing again (the broadcast raced it) adds traffic
        // and nothing else.
        coord.finished(1, 0, &counters(1), None).unwrap();
        assert_eq!(coord.lost[1].bytes_in, 8);
        assert_eq!(coord.faults.events.len(), 1);
    }

    #[test]
    fn a_rejoin_over_a_half_dead_connection_retires_it_first() {
        let mut coord = coordinator(2, 4);
        coord.open_barrier(3);
        coord.history = (0..3)
            .map(|step| {
                Arc::new(PullBatch {
                    step,
                    frames: Vec::new(),
                })
            })
            .collect();
        // The old connection's push landed, its Finished has not.
        coord.accept_push(0, 0, 3, push(1.0)).unwrap();
        let admission = coord.admit(0).unwrap().expect("budget left");
        assert_eq!(admission.gen, 1);
        assert_eq!(admission.replay.len(), 3);
        assert_eq!(coord.gens[0], 1);
        assert_eq!(coord.rejoin_counts, [1, 0]);
        assert!(coord.connected(0));
        assert_eq!(coord.missing(), 2, "the landed push is discarded");
        let kinds: Vec<_> = coord
            .faults
            .events
            .iter()
            .map(|e| (e.step, e.worker, e.kind.as_str(), e.detail.as_str()))
            .collect();
        assert_eq!(
            kinds,
            [
                (3, 0, "disconnect", "superseded by a rejoin"),
                (
                    3,
                    0,
                    "rejoin",
                    "resumed at step 3 after a replay of 3 step(s)"
                ),
            ]
        );
        assert_eq!((coord.faults.disconnects, coord.faults.rejoins), (1, 1));
        // What the old connection still sends is stale now.
        coord.accept_push(0, 0, 3, push(1.0)).unwrap();
        coord
            .finished(0, 0, &counters(5), Some("eof".into()))
            .unwrap();
        assert_eq!(coord.missing(), 2);
        assert_eq!(coord.faults.events.len(), 2);
        // Out-of-range ids and a spent budget are refused without a trace.
        assert!(coord.admit(9).unwrap().is_none());
        let mut spent = coordinator(1, 1);
        spent.open_barrier(0);
        spent.faults.rejoins = 1;
        assert!(spent.admit(0).unwrap().is_none());
        assert!(spent.faults.events.is_empty());
    }

    #[test]
    fn a_disconnect_with_the_budget_spent_is_the_fail_stop_error() {
        let mut coord = coordinator(2, 0);
        coord.open_barrier(2);
        let err = coord
            .finished(0, 0, &counters(0), Some("frame I/O: eof".into()))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            NetError::Protocol("worker 0 left during step 2: frame I/O: eof".into()).to_string()
        );
        // The fault is on the ledger even though the run aborts: the
        // flight dump reads it from there.
        assert_eq!(coord.faults.events.len(), 1);
        assert_eq!(coord.faults.events[0].kind, "disconnect");
        // A broadcast into a dropped handler channel takes the same path.
        let mut coord = coordinator(1, 0);
        coord.open_barrier(0);
        let batch = Arc::new(PullBatch {
            step: 0,
            frames: Vec::new(),
        });
        let err = coord.broadcast(&batch).unwrap_err();
        assert!(err.to_string().contains("pull channel closed"), "{err}");
        assert!(coord.history.is_empty(), "fail-stop keeps no history");
        assert_eq!(coord.faults.events.len(), 1);
    }

    #[test]
    fn a_full_barrier_closes_with_each_workers_lag_past_the_first() {
        let mut coord = coordinator(2, 4);
        coord.open_barrier(0);
        assert!(coord.time_left().is_ok());
        coord.accept_push(1, 0, 0, push(2.0)).unwrap();
        thread::sleep(Duration::from_millis(2));
        coord.accept_push(0, 0, 0, push(1.0)).unwrap();
        assert_eq!(coord.missing(), 0);
        let pushes = coord.close_barrier();
        assert_eq!(pushes[0].0.loss, 1.0);
        assert_eq!(pushes[1].1, 0.0, "the first arrival waits for nobody");
        assert!(pushes[0].1 >= 0.002, "lag {}", pushes[0].1);
        // An expired deadline names who is out.
        coord.open_barrier(1);
        coord.retire(1, "gone".into()).unwrap();
        coord.deadline = Instant::now();
        let err = coord.time_left().unwrap_err();
        assert!(err
            .to_string()
            .contains("worker(s) [1] to rejoin in step 1"));
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
