//! The parameter-server side of the networked runtime.
//!
//! One acceptor thread owns the listener for the whole run: it reads each
//! new connection's first frame, answers scrapes itself and forwards every
//! `Hello` to the coordinator. One OS thread per worker connection handles
//! framing; the coordinator (the calling thread) owns the [`ServerCore`]
//! and enforces the BSP barrier: it waits for every worker's push batch,
//! applies the step, and broadcasts one shared pull batch back to all
//! handlers. The arithmetic is exactly [`threelc_distsim::engine`]'s, so a
//! networked run matches the in-process simulator bit for bit.
//!
//! There is one way into a run: a `Hello`, answered by a `HelloAck` that
//! names the step to resume at, followed by a replay of every completed
//! pull batch, from which the worker deterministically rebuilds a
//! bit-identical replica (see `DESIGN.md` §11). A first join is the case
//! "step 0, nothing to replay"; whether a `Hello` is one is the
//! coordinator's call (`Coordinator::admit`), made from whether that
//! worker's slot has been filled before.
//!
//! Failure semantics are fault-tolerant by default: when a worker's
//! connection dies mid-run (timeout, checksum mismatch, reset), the
//! coordinator parks the barrier for up to [`ServeOptions::rejoin_timeout`]
//! and lets the worker — or a replacement process — join again. With
//! [`ServeOptions::max_rejoins`] `= 0` the runtime is strictly fail-stop:
//! any mid-run disconnect aborts the run. Protocol violations (wrong
//! step, out-of-order tensors) always abort — those are bugs, not faults.
//! A connection whose *first* frame is malformed, unexpected or refused is
//! closed, counted and logged, in every phase of the run, and the run goes
//! on (`refuse`).
//! Every blocking socket operation is bounded by
//! [`ServeOptions::io_timeout`], and every barrier wait by
//! [`ServeOptions::step_timeout`] (or the rejoin timeout while a worker
//! is out), so a dead peer cannot wedge the server.

use crate::counters::ConnCounters;
use crate::frame::MsgType;
use crate::metrics::{Conn, NetMetrics};
use crate::protocol::{
    bytes_to_tensor, decode_hello, decode_push_done, decode_scrape, decode_scrape_reply,
    encode_policy_update, encode_scrape_reply, model_crc32, NetError, ScrapeKind,
};
use crate::report::{ConnReport, FaultEvent, FaultsReport, NetReport};
use std::io::{BufReader, BufWriter};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use threelc_distsim::engine::{EngineError, Problem, ServerCore, TensorPayload, WorkerPush};
use threelc_distsim::trace::{EvalRecord, TrainingTrace};
use threelc_distsim::{ExperimentConfig, ExperimentResult};
use threelc_obs::flight::trigger;
use threelc_obs::{
    trace, write_flight_dump, FlightDump, Level, NodeTrace, RunRecorder, TraceBuffer, TraceScope,
    TraceSpan,
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
    /// or a fault fires. `None` disables dumping (series are still
    /// recorded and scrapeable).
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
    step_seconds: f64,
}

/// Handler and acceptor → coordinator messages. A handler's messages carry
/// its per-worker generation, so messages from a superseded connection
/// (one the worker already rejoined past) are recognizably stale.
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
    /// A connection opened with a `Hello`; the stream has consumed it and
    /// awaits the `HelloAck`. First join or rejoin is for
    /// [`Coordinator::admit`] to say.
    Join {
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

/// What [`Coordinator::admit`] grants a joining worker: its connection's
/// generation, the receiving end of its pull channel, and where it
/// resumes — the open barrier's step, after a replay of every completed
/// step's pull batch (step 0 and no replay for a first join).
struct Admission {
    gen: u64,
    pulls: mpsc::Receiver<FromCoord>,
    resume_step: u64,
    replay: Vec<Arc<PullBatch>>,
}

/// The coordinator's state: who is in the run under which generation, the
/// open barrier, the pull history, and the run's one fault ledger. A plain
/// value — no sockets, no threads — so [`serve`] can own it across
/// [`serve_run`]'s early returns (an aborted run's flight dump still
/// reads the faults) and a test can drive it message by message.
///
/// It is the single place that decides who is in the run:
/// [`Self::admit`] is the only way in, for a first join and a rejoin
/// alike, and [`Self::retire`] the only way out before the end.
///
/// Every fault is written exactly once, as a [`FaultEvent`], by
/// [`Self::retire`] (a disconnect) or [`Self::admit`] (a rejoin), which
/// also bump the `net.server.*` counter and log the event. The run report
/// and the flight dump both read that ledger.
struct Coordinator {
    total_steps: u64,
    max_rejoins: u64,
    step_timeout: Duration,
    rejoin_timeout: Duration,
    metrics: NetMetrics,
    /// Whether each worker's slot has ever been filled: what makes a
    /// `Hello` a first join or a rejoin.
    joined: Vec<bool>,
    /// Per-worker connection generation; bumped on every admitted rejoin.
    gens: Vec<u64>,
    /// Cumulative admitted rejoins per worker, recorded as a series so the
    /// dashboard can show flapping workers.
    rejoin_counts: Vec<u64>,
    /// Traffic of a worker's finished connections, folded into its final
    /// ConnReport.
    lost: Vec<ConnCounters>,
    /// The sending end of each worker's pull channel; `None` while the
    /// worker is out (never joined, or retired and not yet rejoined).
    pull_txs: Vec<Option<mpsc::Sender<FromCoord>>>,
    /// Every completed step's pull batch, the replay a rejoiner resyncs
    /// from. Arc'd frames, so the history costs one encoded copy per step;
    /// disabled (empty) in fail-stop mode.
    history: Vec<Arc<PullBatch>>,
    faults: FaultsReport,
    /// The open barrier: its step (`total_steps` once training is over and
    /// the handlers are shutting their workers down), each worker's landed
    /// push with its wall-clock arrival, and the deadline. Step 0's barrier
    /// is open from the start — a worker may push it while later ones are
    /// still joining — but the deadline is armed only once every slot has
    /// been filled: the server waits for its first full set of workers
    /// indefinitely. It extends when a worker disconnects or rejoins,
    /// parking the barrier instead of aborting.
    step: u64,
    slots: Vec<Option<(Push, Instant)>>,
    deadline: Option<Instant>,
    /// Each worker's connection report and span buffer, as its handler
    /// reported in after the shutdown handshake.
    reports: Vec<Option<(ConnReport, Option<NodeTrace>)>>,
}

impl Coordinator {
    fn new(workers: usize, total_steps: u64, opts: &ServeOptions) -> Self {
        Coordinator {
            total_steps,
            max_rejoins: u64::from(opts.max_rejoins),
            step_timeout: opts.step_timeout,
            rejoin_timeout: opts.rejoin_timeout,
            metrics: NetMetrics::server(),
            joined: vec![false; workers],
            gens: vec![0; workers],
            rejoin_counts: vec![0; workers],
            lost: vec![ConnCounters::default(); workers],
            pull_txs: (0..workers).map(|_| None).collect(),
            history: Vec::new(),
            faults: FaultsReport::default(),
            step: 0,
            slots: (0..workers).map(|_| None).collect(),
            deadline: None,
            reports: (0..workers).map(|_| None).collect(),
        }
    }

    /// A barrier wait while any worker is out covers both a normal step
    /// and a rejoin-plus-replay, whichever is longer.
    fn park_timeout(&self) -> Duration {
        self.step_timeout.max(self.rejoin_timeout)
    }

    /// How long a freshly opened barrier may wait.
    fn barrier_timeout(&self) -> Duration {
        if self.pull_txs.iter().all(Option::is_some) {
            self.step_timeout
        } else {
            self.park_timeout()
        }
    }

    fn connected(&self, worker: usize) -> bool {
        self.pull_txs[worker].is_some()
    }

    /// Every slot has been filled at least once.
    fn assembled(&self) -> bool {
        self.joined.iter().all(|&j| j)
    }

    /// Every worker's handler reported in after the shutdown handshake.
    fn shut_down(&self) -> bool {
        self.reports.iter().all(Option::is_some)
    }

    /// The stale-generation rule, for every phase: a message counts only
    /// if it comes from the worker's current connection.
    fn is_current(&self, worker: usize, gen: u64) -> bool {
        gen == self.gens[worker]
    }

    /// Pushes the open barrier still waits for.
    fn missing(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// The open barrier's time left (`None`: no deadline, workers are still
    /// joining for the first time), or the timeout error naming who is out.
    fn time_left(&self) -> Result<Option<Duration>, NetError> {
        let Some(deadline) = self.deadline else {
            return Ok(None);
        };
        let left = deadline.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            return Ok(Some(left));
        }
        let step = self.step;
        let shutting_down = step == self.total_steps;
        let out: Vec<usize> = (0..self.slots.len())
            .filter(|&w| {
                if shutting_down {
                    self.reports[w].is_none()
                } else {
                    !self.connected(w)
                }
            })
            .collect();
        Err(NetError::Protocol(if shutting_down {
            format!("timed out waiting for worker(s) {out:?} to shut down")
        } else if out.is_empty() {
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
        if step != self.step || step >= self.total_steps {
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

    /// A handler finished. Its traffic is always kept. If it was the
    /// worker's current connection: mid-training the worker is retired;
    /// once training is over this is the shutdown handshake reporting in,
    /// and a failed one aborts — there are no steps left to resume into.
    fn finished(
        &mut self,
        worker: usize,
        gen: u64,
        peer: String,
        counters: &ConnCounters,
        trace: Option<NodeTrace>,
        error: Option<String>,
    ) -> Result<(), NetError> {
        self.lost[worker].merge(counters);
        if !self.is_current(worker, gen) {
            // A superseded connection winding down.
            return Ok(());
        }
        if self.step < self.total_steps {
            if self.connected(worker) {
                self.retire(worker, error.unwrap_or_else(|| "closed early".into()))?;
            }
            // Else a broadcast found it dead already.
            return Ok(());
        }
        if let Some(e) = error {
            return Err(NetError::Protocol(format!(
                "worker {worker} failed to shut down cleanly: {e}"
            )));
        }
        let report = ConnReport {
            worker,
            peer,
            counters: self.lost[worker],
        };
        self.reports[worker] = Some((report, trace));
        Ok(())
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
        let parked = Instant::now() + self.rejoin_timeout;
        self.deadline = self.deadline.map(|d| d.max(parked));
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

    /// Admits a `Hello` at the open barrier, or refuses it (`None`: the
    /// caller drops the stream). What the `Hello` means is read off the
    /// coordinator's own state:
    ///
    /// - the slot was never filled: a first join — generation 0, no fault,
    ///   no charge to the rejoin budget;
    /// - the slot still counts as connected while other workers have yet
    ///   to join for the first time: two processes were launched with one
    ///   id, which aborts the run naming it;
    /// - otherwise a rejoin, under the budget. If the old connection still
    ///   counts as connected it is half-dead — its `Finished` has not
    ///   landed yet — and is retired first; the generation bump then makes
    ///   whatever it still sends stale.
    fn admit(&mut self, worker: usize) -> Result<Option<Admission>, NetError> {
        let workers = self.joined.len();
        if worker >= workers {
            refuse(&format!(
                "worker id {worker} out of range (cluster has {workers})"
            ));
            return Ok(None);
        }
        let step = self.step;
        debug_assert!(self.max_rejoins == 0 || self.history.len() as u64 == step);
        let rejoin = self.joined[worker];
        if !rejoin {
            self.joined[worker] = true;
            threelc_obs::event!(Level::Info, "server.worker_connected", worker = worker);
        } else if self.connected(worker) && !self.assembled() {
            return Err(NetError::Protocol(format!(
                "worker id {worker} connected twice"
            )));
        } else if self.faults.rejoins >= self.max_rejoins {
            refuse(&format!("worker {worker}: rejoin budget exhausted"));
            return Ok(None);
        } else {
            if self.connected(worker) {
                self.retire(worker, "superseded by a rejoin".into())?;
            }
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
        }
        let (tx, pulls) = mpsc::channel();
        self.pull_txs[worker] = Some(tx);
        if self.assembled() {
            // The last first join arms step 0's deadline; a rejoin extends
            // the open barrier's by its replay.
            let wait = if rejoin {
                self.park_timeout()
            } else {
                self.barrier_timeout()
            };
            let until = Instant::now() + wait;
            self.deadline = Some(self.deadline.map_or(until, |d| d.max(until)));
        }
        Ok(Some(Admission {
            gen: self.gens[worker],
            pulls,
            resume_step: step,
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

    /// Ends the step: hands its pull batch to every connected handler,
    /// keeps it for replays, and opens the next barrier (every slot is
    /// already empty — [`Self::close_barrier`] took the pushes). A handler
    /// that died between its push and the broadcast is retired here; its
    /// `Finished` (with the underlying error) is still in the channel and
    /// [`Self::finished`] then changes nothing more.
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
        self.step += 1;
        self.deadline = Some(Instant::now() + self.barrier_timeout());
        Ok(())
    }
}

/// Runs a full training experiment as the parameter server.
///
/// Waits — indefinitely — for `config.workers` workers to join on
/// `listener`, drives `config.total_steps` barrier-synchronized BSP steps
/// (surviving up to [`ServeOptions::max_rejoins`] mid-run worker
/// reconnects), shuts the workers down gracefully, and returns the final
/// report (the standard
/// [`ExperimentResult`] plus per-connection transport counters and the
/// run's fault log).
///
/// # Errors
///
/// Returns [`NetError::Config`] for a configuration that cannot run
/// ([`ExperimentConfig::validate`]), and
/// [`NetError::Protocol`]/[`NetError::Frame`]/[`NetError::Io`] when any
/// worker violates the protocol, exhausts the rejoin budget, or fails to
/// rejoin in time.
pub fn serve(
    listener: &TcpListener,
    config: &ExperimentConfig,
    opts: &ServeOptions,
) -> Result<NetReport, NetError> {
    // The recorder is shared with the acceptor (live series scrapes). It, the coordinator (whose fault ledger a dump reads) and
    // the server's span buffer are owned here, not inside serve_run, so an
    // aborted run can still be dumped.
    let recorder = Arc::new(Mutex::new(RunRecorder::new(config.workers)));
    let mut coord = Coordinator::new(config.workers, config.total_steps, opts);
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
                Some((cause, text))
            }
            Ok(_) if !faults.is_empty() => Some((
                trigger::FAULT,
                "transport faults occurred during the run".into(),
            )),
            Ok(_) => None,
        };
        if let Some((cause, detail)) = cause {
            let series = recorder.lock().expect("series recorder lock").snapshot();
            // The spans a dump carries are what the server's buffer still
            // holds: an aborted run's whole timeline; nothing after a
            // completed run, whose buffer was drained into the report.
            let mut spans = vec![server_buf.snapshot("server")];
            spans.retain(|n| !n.spans.is_empty());
            let metrics = threelc_obs::global().snapshot();
            let dump = FlightDump::new(cause, &detail, series, faults, spans, metrics);
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

/// The body of [`serve`]: the assemble/train/shutdown sequence, recording
/// per-worker series into `recorder` at every barrier and transport faults
/// into `coord` as they happen. Split out so the wrapper can still reach
/// both after an early-error return.
fn serve_run(
    listener: &TcpListener,
    config: &ExperimentConfig,
    opts: &ServeOptions,
    recorder: &Arc<Mutex<RunRecorder>>,
    coord: &mut Coordinator,
    server_buf: &Arc<TraceBuffer>,
) -> Result<NetReport, NetError> {
    config.validate().map_err(NetError::Config)?;
    let mut problem = Problem::build(config);
    let n_params = problem.num_tensors();
    if n_params > usize::from(u16::MAX) {
        return Err(NetError::Config(format!(
            "{n_params} tensors exceed the u16 tensor-id space"
        )));
    }
    let mut server = ServerCore::new(&problem);
    // The server holds the model now; what is still read here is the test
    // batch and the shapes.
    problem.release_init();
    let config_json = serde_json::to_string(config)
        .map_err(|e| NetError::Config(format!("config does not serialize: {e}")))?;

    // Tracing: the server's own span buffer (its clock domain is the
    // reference the timeline aligns every worker against). The run-wide
    // trace id is derived from the seed, identically on every node.
    let tracing = trace::trace_enabled();
    let trace_id = trace::run_trace_id(config.seed);

    let (to_coord, from_all) = mpsc::channel::<ToCoord>();
    // Owns the listener until this function returns, on every path.
    let _acceptor = Acceptor::start(
        listener,
        opts.io_timeout,
        Arc::clone(server_buf),
        Arc::clone(recorder),
        to_coord.clone(),
    )?;
    let mut inbox = Inbox {
        from_all,
        handles: Vec::new(),
        run: Arc::new(RunShared {
            total_steps: config.total_steps,
            shapes: problem.shapes.clone(),
            config_json,
            to_coord,
            pull_timeout: coord.park_timeout(),
            server_buf: Arc::clone(server_buf),
            trace_id,
        }),
    };

    // ---- Assembly: every slot filled once. Step 0's barrier is already
    // open, so an early worker's push lands while later ones still join.
    inbox.pump(coord, Coordinator::assembled)?;

    // ---- Barrier-synchronized BSP training loop.
    let mut trace = TrainingTrace::default();
    trace.policy.label = config.policy.label();
    for step in 0..config.total_steps {
        let step_t0 = Instant::now();
        let _coord_scope = tracing
            .then(|| TraceScope::enter(server_buf, "server", trace_id, step, trace::NO_WORKER));

        // Collect every worker's push batch (the barrier).
        debug_assert_eq!(coord.step, step);
        let barrier_span = TraceSpan::start("barrier");
        inbox.pump(coord, |c| c.missing() == 0)?;
        barrier_span.finish();

        // Worker-order accounting by the engine's one step accountant —
        // the simulator feeds it the same way, so the recorded series and
        // StepRecords match bit for bit.
        let pushes = coord.close_barrier();
        let mut account = server.begin_step();
        for (w, (push, barrier_wait_seconds)) in pushes.iter().enumerate() {
            account.push(WorkerPush {
                payloads: &push.payloads,
                loss: push.loss,
                step_seconds: push.step_seconds,
                barrier_wait_seconds: *barrier_wait_seconds,
                rejoins: coord.rejoin_counts[w],
            });
        }
        recorder
            .lock()
            .expect("series recorder lock")
            .record_step(step, account.deltas());

        let payloads_by_worker: Vec<_> = pushes.into_iter().map(|(p, _)| p.payloads).collect();
        let out = server
            .apply_step(&payloads_by_worker, account.accepted(), 0.0)
            .map_err(aggregation_error)?;
        // Aggregated: free every worker's push before the pull frames are
        // built and broadcast beside them.
        drop(payloads_by_worker);
        trace
            .policy
            .records
            .extend(out.policy_records.iter().copied());
        let record = account.finish(&out);

        // Encode the shared pull batch once; handlers fan it out.
        let mut frames = Vec::with_capacity(n_params + 1);
        for payload in out.pulls {
            frames.push(match payload {
                TensorPayload::Compressed(wire) => (MsgType::PullTensor, wire),
                TensorPayload::Raw(t) => (MsgType::PullRaw, t.to_le_bytes()),
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
                eval: server.evaluate(&problem.test),
            });
        }
    }

    // ---- Graceful shutdown: handlers collect each worker's span buffer
    // (when tracing) and run the Shutdown/ShutdownAck handshake on their
    // own after the last pull, then report in.
    inbox.pump(coord, Coordinator::shut_down)?;
    for handle in inbox.handles {
        if handle.join().is_err() {
            // run_handler panics are caught and reported as Finished
            // errors; a join failure means the reporting wrapper itself
            // blew up. Surface it — never misreport the run as clean.
            return Err(NetError::Protocol(
                "a handler thread panicked outside the run loop".into(),
            ));
        }
    }
    let (connections, worker_traces): (Vec<ConnReport>, Vec<Option<NodeTrace>>) = coord
        .reports
        .iter_mut()
        .map(|r| r.take().expect("every worker reported in"))
        .unzip();

    let final_eval = server.evaluate(&problem.test);
    trace.evals.push(EvalRecord {
        step: config.total_steps,
        eval: final_eval,
    });
    trace.tensors = server.tensor_traffic().to_vec();
    // `threelc analyze` and `threelc trace` rebuild every view from these.
    let mut node_traces = Vec::new();
    if tracing {
        node_traces.push(server_buf.drain("server"));
        node_traces.extend(worker_traces.into_iter().flatten());
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
        connections,
        faults: coord.faults.clone(),
        node_traces,
        series: recorder.lock().expect("series recorder lock").snapshot(),
        metrics: threelc_obs::global().snapshot(),
    })
}

/// What every handler thread of one run shares.
struct RunShared {
    total_steps: u64,
    shapes: Vec<Shape>,
    /// The `HelloAck` payload.
    config_json: String,
    to_coord: mpsc::Sender<ToCoord>,
    /// How long a handler waits at the barrier for its pull batch.
    pull_timeout: Duration,
    server_buf: Arc<TraceBuffer>,
    trace_id: u64,
}

/// The coordinator's one inbox — fed by the acceptor and every handler —
/// and the handler threads spawned from it.
struct Inbox {
    from_all: mpsc::Receiver<ToCoord>,
    handles: Vec<thread::JoinHandle<()>>,
    run: Arc<RunShared>,
}

impl Inbox {
    /// Feeds `coord` from the inbox until it is `done`, spawning a handler
    /// for every admitted join, under whatever deadline the coordinator
    /// has armed.
    fn pump(
        &mut self,
        coord: &mut Coordinator,
        done: impl Fn(&Coordinator) -> bool,
    ) -> Result<(), NetError> {
        while !done(coord) {
            let msg = match coord.time_left()? {
                Some(left) => match self.from_all.recv_timeout(left) {
                    Ok(msg) => msg,
                    Err(_) => continue, // time_left decides
                },
                None => self
                    .from_all
                    .recv()
                    .expect("the inbox outlives its senders: it holds one"),
            };
            match msg {
                ToCoord::Pushed {
                    worker,
                    gen,
                    step,
                    push,
                } => coord.accept_push(worker, gen, step, push)?,
                ToCoord::Finished {
                    worker,
                    gen,
                    peer,
                    counters,
                    trace,
                    error,
                } => coord.finished(worker, gen, peer, &counters, trace, error)?,
                ToCoord::Join {
                    worker,
                    stream,
                    counters,
                } => {
                    // A refusal drops the stream, which is the refusal.
                    if let Some(admission) = coord.admit(worker)? {
                        self.handles.push(spawn_handler(
                            stream,
                            worker,
                            admission,
                            counters,
                            Arc::clone(&self.run),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Spawns one connection's handler thread. The handler body runs under
/// `catch_unwind`, so a panic is reported to the coordinator as a
/// `Finished { error }` exactly like any other handler failure — the
/// barrier sees it immediately instead of timing out, and the run is
/// never misreported as clean.
fn spawn_handler(
    stream: TcpStream,
    worker: usize,
    admission: Admission,
    hello_counters: ConnCounters,
    run: Arc<RunShared>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".into());
        let gen = admission.gen;
        let mut conn = Conn::new(hello_counters, NetMetrics::server());
        let (trace_dump, error) = match catch_unwind(AssertUnwindSafe(|| {
            run_handler(stream, worker, admission, &run, &mut conn)
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
        let _ = run.to_coord.send(ToCoord::Finished {
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

/// Names an engine aggregation failure — an all-rejected step, or a push
/// whose framing was valid but whose 3LC body does not decode — as the
/// run's error: the serve loop finishes with a typed [`NetError`] that
/// reaches the caller and the report like any other run failure, instead
/// of a panic taking the coordinator thread down.
fn aggregation_error(e: EngineError) -> NetError {
    NetError::Protocol(format!("server aggregation failed: {e}"))
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

/// The one first-frame policy, in every phase of the run: a connection
/// whose first frame is malformed, unexpected or inadmissible is closed
/// (the caller drops it), counted and logged — and the run goes on. A stray
/// probe must not be able to kill a server, least of all one still waiting
/// for its workers.
fn refuse(reason: &str) {
    threelc_obs::global().counter("net.server.refused").add(1);
    threelc_obs::event!(Level::Warn, "server.connection_refused", reason = reason);
}

/// How long the acceptor backs off after a failed `accept`, doubling from
/// the first bound to the second while the failure persists.
const ACCEPT_BACKOFF: (Duration, Duration) = (Duration::from_millis(20), Duration::from_secs(1));

/// The thread that owns the listener for the whole run: it blocks in
/// `accept`, hands each connection to [`first_frame`], and applies
/// [`refuse`] to whatever that rejects. Dropping the acceptor stops the
/// thread with a wake-up connection and joins it, which covers early-error
/// returns from `serve_run` too.
struct Acceptor {
    stop: Arc<AtomicBool>,
    wake: SocketAddr,
    handle: Option<thread::JoinHandle<()>>,
}

impl Acceptor {
    fn start(
        listener: &TcpListener,
        io_timeout: Duration,
        server_buf: Arc<TraceBuffer>,
        recorder: Arc<Mutex<RunRecorder>>,
        to_coord: mpsc::Sender<ToCoord>,
    ) -> Result<Self, NetError> {
        let listener = listener.try_clone()?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut backoff = ACCEPT_BACKOFF.0;
            loop {
                let accepted = listener.accept();
                if stopping.load(Ordering::SeqCst) {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => {
                        backoff = ACCEPT_BACKOFF.0;
                        if let Err(e) =
                            first_frame(stream, io_timeout, &server_buf, &recorder, &to_coord)
                        {
                            refuse(&e.to_string());
                        }
                    }
                    Err(e) => {
                        // E.g. EMFILE: say so, and do not spin on it.
                        threelc_obs::event!(
                            Level::Warn,
                            "server.accept_failed",
                            error = e.to_string(),
                            backoff_ms = backoff.as_millis()
                        );
                        thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF.1);
                    }
                }
            }
        });
        Ok(Acceptor {
            stop,
            wake,
            handle: Some(handle),
        })
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(handle) = self.handle.take() else {
            return;
        };
        // Nothing to propagate from a Drop; say it loudly instead of
        // swallowing it.
        if let Err(e) = TcpStream::connect_timeout(&self.wake, Duration::from_secs(5)) {
            // Unwoken, the thread sits in `accept` until the next
            // connection; joining it would hang this one.
            threelc_obs::event!(
                Level::Warn,
                "server.acceptor_not_woken",
                error = e.to_string()
            );
        } else if handle.join().is_err() {
            // Scrapes and joins were unavailable for some part of the run.
            threelc_obs::event!(Level::Warn, "server.acceptor_panicked");
        }
    }
}

/// Reads a fresh connection's first frame — the one place bytes from
/// outside the run enter the server — and dispatches it: a `Scrape` is
/// answered inline without consuming a worker slot, a `Hello` goes to the
/// coordinator as a [`ToCoord::Join`] (the stream and the frame's counters
/// with it). Everything else is an error the acceptor [`refuse`]s.
fn first_frame(
    stream: TcpStream,
    io_timeout: Duration,
    server_buf: &Arc<TraceBuffer>,
    recorder: &Arc<Mutex<RunRecorder>>,
    to_coord: &mpsc::Sender<ToCoord>,
) -> Result<(), NetError> {
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
        MsgType::Hello => {
            let worker = usize::from(decode_hello(&frame.payload)?);
            to_coord
                .send(ToCoord::Join {
                    worker,
                    stream,
                    counters: conn.counters,
                })
                .map_err(|_| NetError::Protocol("coordinator is gone".into()))
        }
        other => Err(NetError::Protocol(format!(
            "unexpected {other:?} as a connection's first frame"
        ))),
    }
}

/// One connection's framing loop: grant the join, then collect pushes,
/// forward to the coordinator, fan the shared pull batch back out, and
/// finally collect the worker's trace dump (when tracing) and run the
/// shutdown handshake.
///
/// The grant is the `HelloAck` — the configuration, and in its header the
/// step to resume at — and a replay of every completed step's pull batch
/// (the resync the worker rebuilds its replica from): step 0 and nothing
/// for a first join.
///
/// On success, returns the worker's span buffer if the trace-dump
/// exchange ran.
fn run_handler(
    stream: TcpStream,
    worker: usize,
    admission: Admission,
    run: &RunShared,
    conn: &mut Conn,
) -> Result<Option<NodeTrace>, NetError> {
    let Admission {
        gen,
        pulls,
        resume_step,
        replay,
    } = admission;
    let (total_steps, trace_id) = (run.total_steps, run.trace_id);
    let (shapes, to_coord, server_buf) = (&run.shapes, &run.to_coord, &run.server_buf);
    let tracing = trace::trace_enabled();
    let n_params = shapes.len();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    // A worker — or a replacement process — joins with nothing but an
    // address and an id; the ack carries the rest.
    conn.write_frame(
        &mut writer,
        MsgType::HelloAck,
        0,
        resume_step,
        run.config_json.as_bytes(),
    )?;
    // The worker interleaves reading the replay with recomputing each
    // step, so the stream drains as fast as the worker replays.
    for batch in replay {
        for (i, (msg, payload)) in batch.frames.iter().enumerate() {
            conn.write_frame(&mut writer, *msg, i as u16, batch.step, payload)?;
        }
        conn.write_frame(&mut writer, MsgType::PullDone, 0, batch.step, &[])?;
    }
    conn.flush(&mut writer)?;

    for step in resume_step..total_steps {
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
        let (loss, step_seconds) = loop {
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
                        let tensor = bytes_to_tensor(&frame.payload, &shapes[i])?;
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
                    step_seconds,
                },
            })
            .map_err(|_| NetError::Protocol("coordinator is gone".into()))?;

        // ---- Wait at the barrier, then fan out the shared pulls. The
        // wait covers a sibling worker's rejoin-plus-replay too.
        let batch = match pulls.recv_timeout(run.pull_timeout) {
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

    /// A coordinator of a 100-step run whose workers have all joined once,
    /// parked at `step`'s barrier.
    fn coordinator(workers: usize, max_rejoins: u32, step: u64) -> Coordinator {
        let opts = ServeOptions {
            max_rejoins,
            ..ServeOptions::default()
        };
        let mut coord = Coordinator::new(workers, 100, &opts);
        for w in 0..workers {
            // The handlers' ends are dropped: nothing here broadcasts.
            let first = coord.admit(w).unwrap().expect("a first join");
            assert_eq!((first.gen, first.resume_step), (0, 0));
        }
        assert!(coord.faults.events.is_empty(), "first joins are no faults");
        coord.step = step;
        coord
    }

    fn finish(
        coord: &mut Coordinator,
        worker: usize,
        gen: u64,
        bytes_in: u64,
        error: Option<&str>,
    ) -> Result<(), NetError> {
        let counters = ConnCounters {
            bytes_in,
            ..ConnCounters::default()
        };
        coord.finished(
            worker,
            gen,
            "test".into(),
            &counters,
            None,
            error.map(Into::into),
        )
    }

    fn push(loss: f32) -> Push {
        Push {
            payloads: Vec::new(),
            loss,
            step_seconds: 0.0,
        }
    }

    #[test]
    fn a_push_from_a_stale_generation_is_dropped() {
        let mut coord = coordinator(2, 4, 0);
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
        let mut coord = coordinator(2, 4, 2);
        coord.gens[0] = 1;
        coord.accept_push(0, 1, 2, push(1.0)).unwrap();
        finish(&mut coord, 0, 0, 100, Some("reset")).expect("a stale Finished never aborts");
        assert_eq!(coord.lost[0].bytes_in, 100);
        assert!(coord.connected(0));
        assert_eq!(coord.missing(), 1, "the live connection's push stays");
        assert!(coord.faults.events.is_empty());
        assert_eq!(coord.faults.disconnects, 0);
    }

    #[test]
    fn a_live_disconnect_retires_the_worker_and_writes_one_fault() {
        let mut coord = coordinator(2, 4, 5);
        coord.accept_push(1, 0, 5, push(1.0)).unwrap();
        let before = coord.deadline;
        finish(&mut coord, 1, 0, 7, Some("frame I/O: reset"))
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
        finish(&mut coord, 1, 0, 1, None).unwrap();
        assert_eq!(coord.lost[1].bytes_in, 8);
        assert_eq!(coord.faults.events.len(), 1);
    }

    #[test]
    fn a_rejoin_over_a_half_dead_connection_retires_it_first() {
        let mut coord = coordinator(2, 4, 3);
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
        finish(&mut coord, 0, 0, 5, Some("eof")).unwrap();
        assert_eq!(coord.missing(), 2);
        assert_eq!(coord.faults.events.len(), 2);
        // Out-of-range ids and a spent budget are refused without a trace.
        assert!(coord.admit(9).unwrap().is_none());
        let mut spent = coordinator(1, 1, 0);
        spent.faults.rejoins = 1;
        assert!(spent.admit(0).unwrap().is_none());
        assert!(spent.faults.events.is_empty());
    }

    #[test]
    fn a_disconnect_with_the_budget_spent_is_the_fail_stop_error() {
        let mut coord = coordinator(2, 0, 2);
        let err = finish(&mut coord, 0, 0, 0, Some("frame I/O: eof")).unwrap_err();
        assert_eq!(
            err.to_string(),
            NetError::Protocol("worker 0 left during step 2: frame I/O: eof".into()).to_string()
        );
        // The fault is on the ledger even though the run aborts: the
        // flight dump reads it from there.
        assert_eq!(coord.faults.events.len(), 1);
        assert_eq!(coord.faults.events[0].kind, "disconnect");
        // A broadcast into a dropped handler channel takes the same path.
        let mut coord = coordinator(1, 0, 0);
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
        let mut coord = coordinator(2, 4, 0);
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
        coord.step = 1;
        coord.retire(1, "gone".into()).unwrap();
        coord.deadline = Some(Instant::now());
        let err = coord.time_left().unwrap_err();
        assert!(err
            .to_string()
            .contains("worker(s) [1] to rejoin in step 1"));
    }

    // ---- The coordinator under seeded interleavings: a script of
    // messages in random order, checked after every one against what the
    // test itself knows about each connection.

    /// One worker as the script sees it, independently of the coordinator.
    #[derive(Default)]
    struct Peer {
        joined: bool,
        /// The live connection's generation and its handler's end of the
        /// pull channel — `None` once the handler died with its `Finished`
        /// still in flight.
        live: Option<(u64, Option<mpsc::Receiver<FromCoord>>)>,
        /// The live connection pushed the open step.
        pushed: bool,
        /// Generations of superseded or retired connections whose
        /// `Finished` is still in flight.
        zombies: Vec<u64>,
    }

    #[derive(Clone, Copy, Debug)]
    enum Act {
        Join(usize),
        Push(usize),
        /// The live handler dies; its `Finished` comes later.
        Die(usize),
        /// The live handler's `Finished`, clean or with an error.
        Finish(usize, bool),
        StalePush(usize),
        StaleFinish(usize),
    }

    /// Drives one seeded script to the end of the run. `Ok` is a run whose
    /// every step closed and every worker shut down; `Err` the error that
    /// aborted it.
    fn run_script(seed: u64, workers: usize, max_rejoins: u32, steps: u64) -> Result<(), NetError> {
        let opts = ServeOptions {
            max_rejoins,
            ..ServeOptions::default()
        };
        let mut coord = Coordinator::new(workers, steps, &opts);
        let mut peers: Vec<Peer> = (0..workers).map(|_| Peer::default()).collect();
        let (mut events, mut disconnects, mut rejoins) = (0usize, 0u64, 0u64);
        let budget = u64::from(max_rejoins);
        // A push carries its connection's generation, so a closed barrier
        // can be checked against the generations current at its close.
        let tagged = |gen: u64| push(gen as f32);
        let mut rng = threelc_tensor::rng(seed);
        let draws = threelc_tensor::Initializer::Uniform {
            low: 0.0,
            high: 1.0,
        }
        .init(&mut rng, [4096]);

        for &draw in draws.iter() {
            let training = coord.step < steps;
            let mut acts = Vec::new();
            for (w, peer) in peers.iter().enumerate() {
                // A first join is likelier than a second one; a push
                // likelier than a fault.
                acts.extend(vec![Act::Join(w); if peer.joined { 1 } else { 30 }]);
                match &peer.live {
                    Some((_, Some(_))) => {
                        if training && !peer.pushed {
                            acts.extend([Act::Push(w); 120]);
                        }
                        acts.push(Act::Die(w));
                        acts.push(Act::Finish(w, true));
                        acts.extend(vec![Act::Finish(w, false); if training { 1 } else { 120 }]);
                    }
                    Some((_, None)) => acts.extend([Act::Finish(w, true); 2]),
                    None => {}
                }
                if !peer.zombies.is_empty() {
                    acts.push(Act::StalePush(w));
                    acts.extend([Act::StaleFinish(w); 2]);
                }
            }
            let act = acts[(draw * acts.len() as f32) as usize % acts.len()];
            match act {
                Act::Join(w) => {
                    let duplicate = coord.connected(w) && !coord.assembled();
                    let was_connected = coord.connected(w);
                    let step = coord.step;
                    match coord.admit(w) {
                        Err(e) => {
                            assert!(peers[w].joined && duplicate, "seed {seed}: {e}");
                            assert!(e.to_string().contains(&format!("worker id {w} connected")));
                            return Err(e);
                        }
                        Ok(None) => {
                            assert!(peers[w].joined && rejoins >= budget, "seed {seed}");
                        }
                        Ok(Some(admission)) => {
                            assert!(!duplicate, "seed {seed}: a duplicate was admitted");
                            assert_eq!(admission.resume_step, step);
                            assert_eq!(admission.replay.len() as u64, step.min(budget * step));
                            let peer = &mut peers[w];
                            if peer.joined {
                                // A rejoin, over a half-dead connection or
                                // after its disconnect.
                                assert!(rejoins < budget, "seed {seed}");
                                rejoins += 1;
                                events += 1;
                                if was_connected {
                                    disconnects += 1;
                                    events += 1;
                                }
                                if let Some((old, _)) = peer.live.take() {
                                    peer.zombies.push(old);
                                }
                            } else {
                                assert_eq!(admission.gen, 0);
                            }
                            peer.joined = true;
                            peer.live = Some((admission.gen, Some(admission.pulls)));
                            peer.pushed = false;
                        }
                    }
                }
                Act::Push(w) => {
                    let gen = peers[w].live.as_ref().expect("live").0;
                    coord.accept_push(w, gen, coord.step, tagged(gen))?;
                    peers[w].pushed = true;
                }
                Act::Die(w) => peers[w].live.as_mut().expect("live").1 = None,
                Act::Finish(w, with_error) => {
                    let (gen, _) = peers[w].live.take().expect("live");
                    peers[w].pushed = false;
                    // Live from the script's side, but the coordinator may
                    // have retired it at a broadcast already.
                    let retires = coord.connected(w) && training;
                    if retires {
                        disconnects += 1;
                        events += 1;
                    }
                    let result = finish(&mut coord, w, gen, 1, with_error.then_some("reset"));
                    if let Err(e) = result {
                        let text = e.to_string();
                        if training {
                            assert!(retires && rejoins >= budget, "seed {seed}: {text}");
                            assert!(text.contains(&format!("worker {w} left during step")));
                        } else {
                            assert!(with_error, "seed {seed}: {text}");
                            assert!(text.contains(&format!("worker {w} failed to shut down")));
                        }
                        return Err(e);
                    }
                    assert!(!retires || rejoins < budget, "seed {seed}: no fail-stop");
                    assert!(
                        training || !with_error,
                        "seed {seed}: a failed shutdown passed"
                    );
                }
                Act::StalePush(w) => {
                    let gen = peers[w].zombies[0];
                    let missing = coord.missing();
                    // Stale by generation; one from the retired current
                    // generation is a handler that is already dead.
                    if gen < coord.gens[w] {
                        coord.accept_push(w, gen, coord.step, tagged(gen))?;
                    }
                    assert_eq!(coord.missing(), missing, "seed {seed}: a stale push landed");
                }
                Act::StaleFinish(w) => {
                    let gen = peers[w].zombies.remove(0);
                    finish(&mut coord, w, gen, 1, Some("eof"))?;
                }
            }

            // The barrier closes the moment it is full, as `serve_run`
            // closes it.
            if training && coord.missing() == 0 {
                let step = coord.step;
                let pushes = coord.close_barrier();
                assert_eq!(pushes.len(), workers);
                for (w, (push, _)) in pushes.iter().enumerate() {
                    assert_eq!(push.loss, coord.gens[w] as f32, "seed {seed} step {step}");
                    peers[w].pushed = false;
                }
                // Handlers that died since their push are found out here.
                let dead: Vec<usize> = (0..workers)
                    .filter(|&w| matches!(peers[w].live, Some((_, None))) && coord.connected(w))
                    .collect();
                disconnects += dead.len() as u64;
                events += dead.len();
                let batch = Arc::new(PullBatch {
                    step,
                    frames: Vec::new(),
                });
                if let Err(e) = coord.broadcast(&batch) {
                    assert!(!dead.is_empty() && rejoins >= budget, "seed {seed}: {e}");
                    assert!(e.to_string().contains("left during step"), "{e}");
                    return Err(e);
                }
                assert!(
                    dead.is_empty() || rejoins < budget,
                    "seed {seed}: no fail-stop"
                );
                assert_eq!(coord.step, step + 1);
                for peer in &peers {
                    if let Some((_, Some(pulls))) = &peer.live {
                        let FromCoord::Pulls(got) = pulls.try_recv().expect("a pull batch");
                        assert_eq!(got.step, step, "seed {seed}");
                        assert!(pulls.try_recv().is_err(), "seed {seed}: two batches");
                    }
                }
            }

            // After every message: the ledger grew by exactly what the
            // script did, the budget holds, and nothing can wait forever.
            assert_eq!(
                coord.faults.events.len(),
                events,
                "seed {seed} after {act:?}"
            );
            assert_eq!(coord.faults.disconnects, disconnects, "seed {seed}");
            assert_eq!(coord.faults.rejoins, rejoins, "seed {seed}");
            assert!(rejoins <= budget, "seed {seed}");
            let everyone = (0..workers).all(|w| coord.connected(w));
            assert!(
                coord.deadline.is_some() || !everyone,
                "seed {seed}: everyone connected, {} push(es) missing, no deadline",
                coord.missing()
            );
            if coord.shut_down() {
                assert_eq!(coord.step, steps);
                assert_eq!(coord.history.len() as u64, steps.min(budget * steps));
                return Ok(());
            }
        }
        panic!("seed {seed}: the run neither finished nor aborted");
    }

    #[test]
    fn seeded_interleavings_end_in_a_finished_run_or_an_error_naming_a_worker() {
        let (mut finished, mut aborted, mut duplicates) = (0, 0, 0);
        for seed in 0..240u64 {
            let workers = 2 + (seed % 2) as usize;
            let max_rejoins = [4, 0, 2, 8][(seed / 2 % 4) as usize];
            match run_script(seed, workers, max_rejoins, 8 + seed % 3) {
                Ok(()) => finished += 1,
                Err(e) => {
                    let text = e.to_string();
                    assert!(text.contains("worker"), "seed {seed}: {text}");
                    aborted += 1;
                    duplicates += usize::from(text.contains("connected twice"));
                }
            }
        }
        // The scripts reach every ending.
        assert!(
            finished >= 50 && aborted >= 50 && duplicates >= 5,
            "{finished} finished, {aborted} aborted, {duplicates} on a duplicate id"
        );
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
