//! The traced run. One thread builds the problem, the worker replicas,
//! the server core, the pull contexts and a connected loopback socket
//! pair, and drives BSP steps by hand through the same public functions
//! the runtime calls, with a span around each call. Per-layer times come
//! from here because the program's own tracer distorts what it measures
//! (see `obs.trace_overhead`).

use crate::span::{critical_path_us, self_us, Lane, Recorder, Span, StepCosts};
use crate::stats::median;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;
use threelc_distsim::engine::{Problem, ServerCore, TensorPayload, WorkerReplica};
use threelc_distsim::ExperimentConfig;
use threelc_net::frame::{read_frame, write_frame};
use threelc_net::protocol::{bytes_to_tensor, decode_push_done, encode_push_done, tensor_to_bytes};
use threelc_net::{model_crc32, MsgType};
use threelc_tensor::Tensor;

/// One direction of a connected loopback pair, written and then read by
/// the same thread. Both ends are non-blocking: when the kernel's buffers
/// fill mid-write (one f32 frame is 1 MB), the writer moves what has
/// already arrived into `inbox` instead of deadlocking against itself.
struct Pipe {
    tx: TcpStream,
    rx: TcpStream,
    inbox: VecDeque<u8>,
}

impl Pipe {
    /// A connected pair on `127.0.0.1`: `(worker → server, server → worker)`.
    fn pair() -> io::Result<(Pipe, Pipe)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let worker = TcpStream::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        for s in [&worker, &server] {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
        }
        let pipe = |tx: &TcpStream, rx: &TcpStream| -> io::Result<Pipe> {
            Ok(Pipe {
                tx: tx.try_clone()?,
                rx: rx.try_clone()?,
                inbox: VecDeque::new(),
            })
        };
        Ok((pipe(&worker, &server)?, pipe(&server, &worker)?))
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut chunk = [0u8; 64 << 10];
        loop {
            match self.tx.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                done => return done,
            }
            match self.rx.read(&mut chunk) {
                Ok(n) => self.inbox.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(e),
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.inbox.is_empty() {
            return self.inbox.read(buf);
        }
        loop {
            match self.rx.read(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                done => return done,
            }
        }
    }
}

/// Compressed / raw byte counts of one step, as `StepRecord` counts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepBytes {
    pub push: u64,
    pub pull: u64,
    pub raw: u64,
}

/// What the last replayed step left behind for the kernel timings.
pub struct Captured {
    /// Worker 0's gradients.
    pub grads: Vec<Tensor>,
    /// Every worker's push payloads.
    pub pushes: Vec<Vec<TensorPayload>>,
    /// The server's model delta before pull compression.
    pub deltas: Vec<Tensor>,
}

pub struct Replay {
    pub spans: Vec<Span>,
    /// Self time of each span in µs, parallel to `spans`.
    self_us: Vec<f64>,
    pub step_bytes: Vec<StepBytes>,
    pub frames_per_step: u64,
    pub final_model_crc32: u32,
    pub push_bits_per_value: f64,
    pub pull_bits_per_value: f64,
    pub zero_run_share: f64,
    pub captured: Captured,
    pub problem: Problem,
    pub global: threelc_learning::Network,
}

/// Median µs of building the problem, one replica and the server core
/// (three builds each), and the last build of each to replay on.
pub struct Built {
    pub problem_build_us: f64,
    pub replica_new_us: f64,
    pub server_new_us: f64,
    problem: Problem,
    replicas: Vec<WorkerReplica>,
    server: ServerCore,
}

pub fn build(config: &ExperimentConfig) -> Built {
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    let mut last = None;
    for _ in 0..3 {
        let t = Instant::now();
        let problem = Problem::build(config);
        times[0].push(t.elapsed().as_secs_f64() * 1e6);
        let replicas: Vec<_> = (0..config.workers)
            .map(|w| {
                let t = Instant::now();
                let r = WorkerReplica::new(&problem, w);
                times[1].push(t.elapsed().as_secs_f64() * 1e6);
                r
            })
            .collect();
        let t = Instant::now();
        let server = ServerCore::new(&problem);
        times[2].push(t.elapsed().as_secs_f64() * 1e6);
        last = Some((problem, replicas, server));
    }
    let (problem, replicas, server) = last.expect("three builds ran");
    Built {
        problem_build_us: median(&times[0]),
        replica_new_us: median(&times[1]),
        server_new_us: median(&times[2]),
        problem,
        replicas,
        server,
    }
}

/// Drives `config.total_steps` BSP steps by hand.
pub fn replay(built: Built) -> Result<Replay, String> {
    let Built {
        problem,
        mut replicas,
        mut server,
        ..
    } = built;
    let config = problem.config;
    let workers = config.workers;
    let n = problem.num_tensors();
    let pull_ctxs = problem.pull_ctxs();
    let (mut up, mut down) = Pipe::pair().map_err(|e| format!("loopback pair: {e}"))?;
    let io_err = |e: io::Error| format!("replay socket: {e}");

    let mut rec = Recorder::new();
    let mut step_bytes = Vec::new();
    let mut captured = None;
    let mut zero_run = (0u64, 0u64); // (quartic bytes removed, quartic bytes)
    let is_3lc = matches!(config.scheme, threelc_baselines::SchemeKind::ThreeLc { .. });

    for step in 0..config.total_steps {
        let last = step + 1 == config.total_steps;
        rec.begin_step(step);
        let done: Result<(), String> = rec.time("step", Lane::Coordinator, |rec| {
            // ---- Push phase, one worker after the other.
            let mut pushes: Vec<Vec<TensorPayload>> = Vec::with_capacity(workers);
            let mut grads0 = Vec::new();
            let mut residual_l2 = 0.0f64;
            for (w, replica) in replicas.iter_mut().enumerate() {
                let lane = Lane::Worker(w);
                let started = Instant::now();
                let (loss, grads) = rec.time("learning.compute", lane, |_| {
                    replica.compute(&problem.data, config.batch_per_worker)
                });
                if last && w == 0 {
                    grads0 = grads.clone();
                }
                let (encoded, residual) = rec.time("distsim.encode_push", lane, |_| {
                    let encoded = replica.encode_push(grads);
                    (encoded, replica.residual_l2())
                });
                residual_l2 = residual_l2.max(residual);
                rec.time("net.push_write", lane, |_| -> io::Result<()> {
                    let mut writer = BufWriter::new(&mut up);
                    for (i, payload) in encoded.payloads.iter().enumerate() {
                        match payload {
                            TensorPayload::Compressed(wire) => {
                                write_frame(&mut writer, MsgType::PushTensor, i as u16, step, wire)?
                            }
                            TensorPayload::Raw(t) => write_frame(
                                &mut writer,
                                MsgType::PushRaw,
                                i as u16,
                                step,
                                &tensor_to_bytes(t),
                            )?,
                        };
                    }
                    let done = encode_push_done(
                        loss,
                        encoded.codec_seconds,
                        residual,
                        started.elapsed().as_secs_f64(),
                    );
                    write_frame(&mut writer, MsgType::PushDone, 0, step, &done)?;
                    writer.flush()
                })
                .map_err(io_err)?;
                let received = rec.time("net.push_read", Lane::Handler(w), |_| {
                    let mut reader = BufReader::new(&mut up);
                    let mut payloads = Vec::with_capacity(n);
                    loop {
                        let frame = read_frame(&mut reader).map_err(|e| e.to_string())?;
                        match frame.msg {
                            MsgType::PushTensor => {
                                payloads.push(TensorPayload::Compressed(frame.payload))
                            }
                            MsgType::PushRaw => payloads.push(TensorPayload::Raw(
                                bytes_to_tensor(&frame.payload, &problem.shapes[payloads.len()])
                                    .map_err(|e| e.to_string())?,
                            )),
                            MsgType::PushDone => {
                                decode_push_done(&frame.payload).map_err(|e| e.to_string())?;
                                return Ok::<_, String>(payloads);
                            }
                            other => return Err(format!("{other:?} in the push phase")),
                        }
                    }
                })?;
                if received.len() != n {
                    return Err(format!(
                        "worker {w} pushed {} of {n} tensors",
                        received.len()
                    ));
                }
                pushes.push(received);
            }

            // ---- The server step and the shared pull batch.
            let mut bytes = StepBytes {
                push: 0,
                pull: 0,
                raw: 0,
            };
            for payload in pushes.iter().flatten() {
                match payload {
                    TensorPayload::Compressed(wire) => bytes.push += wire.len() as u64,
                    TensorPayload::Raw(t) => bytes.raw += t.len() as u64 * 4,
                }
            }
            if is_3lc {
                for (payload, shape) in pushes.iter().flat_map(|p| p.iter().zip(&problem.shapes)) {
                    if let TensorPayload::Compressed(wire) = payload {
                        let quartic = shape.num_elements().div_ceil(5) as u64;
                        let body = (wire.len() - threelc::sizing::WIRE_HEADER_LEN) as u64;
                        zero_run.0 += quartic.saturating_sub(body);
                        zero_run.1 += quartic;
                    }
                }
            }
            let before = last.then(|| server.global().snapshot());
            let out = rec
                .time("distsim.apply_step", Lane::Coordinator, |_| {
                    server.apply_step(&pushes, workers, residual_l2)
                })
                .map_err(|e| e.to_string())?;
            if let Some(before) = before {
                let deltas = server
                    .global()
                    .snapshot()
                    .iter()
                    .zip(&before)
                    .map(|(now, was)| now.sub(was).expect("snapshots share shapes"))
                    .collect();
                captured = Some(Captured {
                    grads: std::mem::take(&mut grads0),
                    pushes,
                    deltas,
                });
            }
            for payload in &out.pulls {
                match payload {
                    TensorPayload::Compressed(wire) => bytes.pull += (wire.len() * workers) as u64,
                    TensorPayload::Raw(t) => bytes.raw += (t.len() * 4 * workers) as u64,
                }
            }
            step_bytes.push(bytes);
            let frames: Vec<(MsgType, Vec<u8>)> =
                rec.time("net.pull_serialize", Lane::Coordinator, |_| {
                    out.pulls
                        .into_iter()
                        .map(|p| match p {
                            TensorPayload::Compressed(wire) => (MsgType::PullTensor, wire),
                            TensorPayload::Raw(t) => (MsgType::PullRaw, tensor_to_bytes(&t)),
                        })
                        .collect()
                });

            // ---- Pull phase, one worker after the other.
            for (w, replica) in replicas.iter_mut().enumerate() {
                let lane = Lane::Worker(w);
                rec.time("net.pull_write", Lane::Handler(w), |_| -> io::Result<()> {
                    let mut writer = BufWriter::new(&mut down);
                    for (i, (msg, payload)) in frames.iter().enumerate() {
                        write_frame(&mut writer, *msg, i as u16, step, payload)?;
                    }
                    write_frame(&mut writer, MsgType::PullDone, 0, step, &[])?;
                    writer.flush()
                })
                .map_err(io_err)?;
                let pulled = rec.time("net.pull_read", lane, |_| {
                    let mut reader = BufReader::new(&mut down);
                    let mut pulled = Vec::with_capacity(n);
                    loop {
                        let frame = read_frame(&mut reader).map_err(|e| e.to_string())?;
                        match frame.msg {
                            MsgType::PullTensor | MsgType::PullRaw => {
                                pulled.push((frame.msg, frame.payload))
                            }
                            MsgType::PullDone => return Ok::<_, String>(pulled),
                            other => return Err(format!("{other:?} in the pull phase")),
                        }
                    }
                })?;
                if pulled.len() != n {
                    return Err(format!("worker {w} pulled {} of {n} tensors", pulled.len()));
                }
                let deltas = rec.time("distsim.pull_decode", lane, |_| {
                    pulled
                        .iter()
                        .enumerate()
                        .map(|(i, (msg, payload))| match (msg, &pull_ctxs[i]) {
                            (MsgType::PullTensor, Some(ctx)) => {
                                ctx.decompress(payload).map_err(|e| e.to_string())
                            }
                            (MsgType::PullTensor, None) => {
                                Err(format!("tensor {i} is below the compression threshold"))
                            }
                            _ => bytes_to_tensor(payload, &problem.shapes[i])
                                .map_err(|e| e.to_string()),
                        })
                        .collect::<Result<Vec<Tensor>, String>>()
                })?;
                rec.time("distsim.apply_deltas", lane, |_| {
                    replica.apply_deltas(&deltas)
                });
            }
            Ok(())
        });
        done?;
    }

    let first = replicas[0].model().snapshot();
    if replicas.iter().any(|r| r.model().snapshot() != first) {
        return Err("replayed replicas diverged from each other".into());
    }
    Ok(Replay {
        self_us: self_us(rec.spans()),
        spans: rec.spans().to_vec(),
        step_bytes,
        frames_per_step: (2 * workers * (n + 1)) as u64,
        final_model_crc32: model_crc32(server.global()),
        push_bits_per_value: server.push_stats().bits_per_value(),
        pull_bits_per_value: server.pull_stats().bits_per_value(),
        zero_run_share: if zero_run.1 == 0 {
            0.0
        } else {
            zero_run.0 as f64 / zero_run.1 as f64
        },
        captured: captured.ok_or("the replay ran no steps")?,
        global: server.global().clone(),
        problem,
    })
}

impl Replay {
    /// Self time in µs that `lane` spent in spans called `name` in `step`.
    fn lane_us(&self, name: &str, step: u64, lane: Lane) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_us)
            .filter(|(s, _)| s.name == name && s.step == step && s.lane == lane)
            .map(|(_, us)| us)
            .sum()
    }

    fn steps(&self) -> std::ops::Range<u64> {
        0..self.step_bytes.len() as u64
    }

    /// Median over the steps of `name`'s self time in µs: the mean over
    /// `lanes` where the call runs once per worker.
    pub fn span_us(&self, name: &str, lanes: &[Lane]) -> f64 {
        let per_step: Vec<f64> = self
            .steps()
            .map(|step| {
                let total: f64 = lanes.iter().map(|&l| self.lane_us(name, step, l)).sum();
                total / lanes.len() as f64
            })
            .collect();
        median(&per_step)
    }

    /// Median critical path over the steps, in µs.
    pub fn critical_path_us(&self) -> f64 {
        let workers = self.problem.config.workers;
        let paths: Vec<f64> = self
            .steps()
            .map(|step| {
                let per_worker = |names: &[&str], lane: fn(usize) -> Lane| -> Vec<f64> {
                    (0..workers)
                        .map(|w| names.iter().map(|n| self.lane_us(n, step, lane(w))).sum())
                        .collect()
                };
                critical_path_us(&StepCosts {
                    worker_push: per_worker(
                        &["learning.compute", "distsim.encode_push", "net.push_write"],
                        Lane::Worker,
                    ),
                    server_read: per_worker(&["net.push_read"], Lane::Handler),
                    server_apply: self.lane_us("distsim.apply_step", step, Lane::Coordinator)
                        + self.lane_us("net.pull_serialize", step, Lane::Coordinator),
                    server_write: per_worker(&["net.pull_write"], Lane::Handler),
                    worker_pull: per_worker(
                        &[
                            "net.pull_read",
                            "distsim.pull_decode",
                            "distsim.apply_deltas",
                        ],
                        Lane::Worker,
                    ),
                })
            })
            .collect();
        median(&paths)
    }

    /// Median duration of the step spans in µs, and how many spans a
    /// step records.
    pub fn step_us_and_spans_per_step(&self) -> (f64, f64) {
        let steps: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == "step")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        (median(&steps), self.spans.len() as f64 / steps.len() as f64)
    }
}
