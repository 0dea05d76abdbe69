//! Loopback integration tests: a real server and real worker clients,
//! all in one process over 127.0.0.1, checked bit-for-bit against the
//! in-process simulator.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use threelc_baselines::SchemeKind;
use threelc_distsim::{
    run_experiment, Cluster, ExperimentConfig, Problem, ServerCore, TensorPayload, WorkerReplica,
};
use threelc_net::frame::{read_frame, write_frame};
use threelc_net::protocol::{encode_hello, encode_push_done};
use threelc_net::{
    run_worker, scrape_metrics, scrape_series, scrape_trace, serve, MsgType, ServeOptions,
    WorkerOptions,
};

fn loopback_config(scheme: SchemeKind) -> ExperimentConfig {
    ExperimentConfig {
        scheme,
        workers: 2,
        batch_per_worker: 8,
        total_steps: 20,
        model_width: 16,
        model_blocks: 1,
        eval_every: 7,
        seed: 5,
        ..Default::default()
    }
}

/// Binds an ephemeral port, serves `config` on it, and runs one client
/// thread per worker. Returns the server's report and the workers'
/// outcomes in worker-id order.
fn run_loopback(
    config: ExperimentConfig,
) -> (threelc_net::NetReport, Vec<threelc_net::WorkerOutcome>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = thread::spawn(move || serve(&listener, &config, &ServeOptions::default()));
    let clients: Vec<_> = (0..config.workers as u16)
        .map(|w| {
            let addr = addr.clone();
            thread::spawn(move || run_worker(&WorkerOptions::new(addr, w)))
        })
        .collect();
    let outcomes = clients
        .into_iter()
        .map(|c| c.join().expect("client thread").expect("worker run"))
        .collect();
    let report = server.join().expect("server thread").expect("serve run");
    (report, outcomes)
}

#[test]
fn loopback_run_matches_simulator_bit_for_bit() {
    let config = loopback_config(SchemeKind::three_lc(1.0));
    let (report, outcomes) = run_loopback(config);
    let simulated = run_experiment(&config);

    // The training outcome is bit-identical to the simulator's.
    assert_eq!(report.result.config, simulated.config);
    assert_eq!(report.result.scheme_label, simulated.scheme_label);
    assert_eq!(report.result.model_params, simulated.model_params);
    assert_eq!(report.result.final_eval, simulated.final_eval);
    assert_eq!(report.result.trace.evals, simulated.trace.evals);

    // Every per-step field matches: a step record holds no clock.
    assert_eq!(report.result.trace.steps.len(), simulated.trace.steps.len());
    for (net, sim) in report.result.trace.steps.iter().zip(&simulated.trace.steps) {
        assert_eq!(net.step, sim.step);
        assert_eq!(net.lr.to_bits(), sim.lr.to_bits(), "step {}", sim.step);
        assert_eq!(net.loss.to_bits(), sim.loss.to_bits(), "step {}", sim.step);
        assert_eq!(net.push_bytes, sim.push_bytes, "step {}", sim.step);
        assert_eq!(net.pull_bytes, sim.pull_bytes, "step {}", sim.step);
        assert_eq!(net.raw_bytes, sim.raw_bytes, "step {}", sim.step);
        assert_eq!(net.compressible_values, sim.compressible_values);
    }

    // An undisturbed run reports a clean fault section, and the model
    // fingerprint matches what `threelc simulate` would print.
    assert_eq!(report.faults, threelc_net::FaultsReport::default());

    // Worker replicas end up bit-identical to the simulator's replicas.
    let mut cluster = Cluster::new(config);
    for _ in 0..config.total_steps {
        cluster.step();
    }
    assert_eq!(
        report.final_model_crc32,
        threelc_net::model_crc32(cluster.global_model()),
        "final-model fingerprint diverged from the simulator"
    );
    for (w, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.steps, config.total_steps);
        assert_eq!(
            outcome.model.snapshot(),
            cluster.worker_model(w).snapshot(),
            "worker {w} replica diverged from the simulator"
        );
    }

    // Each side's transport counters mirror the other's.
    assert_eq!(report.connections.len(), config.workers);
    for (w, conn) in report.connections.iter().enumerate() {
        assert_eq!(conn.worker, w);
        let outcome = &outcomes[w];
        assert_eq!(conn.counters.bytes_in, outcome.counters.bytes_out);
        assert_eq!(conn.counters.bytes_out, outcome.counters.bytes_in);
        assert_eq!(conn.counters.frames_in, outcome.counters.frames_out);
        assert_eq!(conn.counters.frames_out, outcome.counters.frames_in);
        assert_eq!(outcome.counters.retries, 0);
        assert_eq!(outcome.counters.backoff_seconds, 0.0);
        assert!(conn.counters.bytes_in > 0);
    }

    // Conservation across the whole cluster: every byte the workers sent
    // arrived at the server, and vice versa.
    let server_in: u64 = report.connections.iter().map(|c| c.counters.bytes_in).sum();
    let workers_out: u64 = outcomes.iter().map(|o| o.counters.bytes_out).sum();
    assert_eq!(server_in, workers_out);
    let server_out: u64 = report
        .connections
        .iter()
        .map(|c| c.counters.bytes_out)
        .sum();
    let workers_in: u64 = outcomes.iter().map(|o| o.counters.bytes_in).sum();
    assert_eq!(server_out, workers_in);

    // The run also populated the global metrics registry with both
    // transport roles' telemetry and the server's evaluation. (Presence
    // checks only — the registry is shared with other tests in this
    // process.)
    let snap = threelc_obs::global().snapshot();
    for name in [
        "net.server.socket_seconds",
        "net.worker.socket_seconds",
        "net.server.step_seconds",
        "net.worker.step_seconds",
        "engine.evaluate_seconds",
    ] {
        let hist = snap.histogram(name).unwrap_or_else(|| {
            panic!("histogram {name:?} missing after a loopback run");
        });
        assert!(hist.count > 0, "histogram {name:?} recorded nothing");
    }
    assert!(snap.counter("net.server.bytes_in").expect("counter") > 0);
    assert!(snap.counter("net.worker.bytes_out").expect("counter") > 0);
}

#[test]
fn adaptive_policy_loopback_matches_simulator_bit_for_bit() {
    // A feedback policy chasing an unreachable ratio target: the
    // multiplier moves every step, the server broadcasts each decision
    // with the pull batch, and the networked run must still be
    // bit-identical to `threelc simulate` — decisions included.
    let mut config = ExperimentConfig {
        total_steps: 10,
        eval_every: 0,
        ..loopback_config(SchemeKind::three_lc(1.0))
    };
    config.policy =
        threelc_distsim::PolicySpec::parse("feedback:ratio=10000,start=1.2,gain=0.05,hold=1")
            .expect("spec");
    let (report, outcomes) = run_loopback(config);
    let simulated = run_experiment(&config);

    // The decision sequence is non-constant (the policy actually adapted)
    // and the networked trace carries the identical records.
    assert!(!report.result.trace.policy.records.is_empty());
    assert!(!report.result.trace.policy.is_constant());
    assert_eq!(report.result.trace.policy, simulated.trace.policy);

    // Training outcome and per-step accounting match bit for bit; the
    // policy frames deliberately stay out of the step records.
    assert_eq!(report.result.final_eval, simulated.final_eval);
    for (net, sim) in report.result.trace.steps.iter().zip(&simulated.trace.steps) {
        assert_eq!(net.loss.to_bits(), sim.loss.to_bits(), "step {}", sim.step);
        assert_eq!(net.push_bytes, sim.push_bytes, "step {}", sim.step);
        assert_eq!(net.pull_bytes, sim.pull_bytes, "step {}", sim.step);
    }

    // Every worker replica ends bit-identical to the simulator's.
    let mut cluster = Cluster::new(config);
    for _ in 0..config.total_steps {
        cluster.step();
    }
    assert_eq!(
        report.final_model_crc32,
        threelc_net::model_crc32(cluster.global_model())
    );
    for (w, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.model.snapshot(),
            cluster.worker_model(w).snapshot(),
            "worker {w} replica diverged under the adaptive policy"
        );
    }
}

#[test]
fn sharded_loopback_matches_simulator_bit_for_bit() {
    // A model large enough (0.63 M values) that the server derives two
    // aggregation shards on any host with two cores: the trained model
    // must still be bit-identical to the in-process simulator, whose
    // server derives the same count, and to one forced onto one shard
    // (`engine`'s own tests force 1 against 4).
    let config = ExperimentConfig {
        total_steps: 6,
        eval_every: 0,
        model_width: 512,
        batch_per_worker: 2,
        ..loopback_config(SchemeKind::three_lc(1.0))
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let opts = ServeOptions::default();
    let server = thread::spawn(move || serve(&listener, &config, &opts));
    let clients: Vec<_> = (0..config.workers as u16)
        .map(|w| {
            let addr = addr.clone();
            thread::spawn(move || run_worker(&WorkerOptions::new(addr, w)))
        })
        .collect();
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread").expect("worker run"))
        .collect();
    let report = server.join().expect("server thread").expect("serve run");

    let simulated = run_experiment(&config);
    assert_eq!(report.result.final_eval, simulated.final_eval);
    for (net, sim) in report.result.trace.steps.iter().zip(&simulated.trace.steps) {
        assert_eq!(net.loss.to_bits(), sim.loss.to_bits(), "step {}", sim.step);
        assert_eq!(net.push_bytes, sim.push_bytes, "step {}", sim.step);
        assert_eq!(net.pull_bytes, sim.pull_bytes, "step {}", sim.step);
    }
    // The same steps through the engine with the server forced serial.
    let problem = Problem::build(&config);
    let mut replicas: Vec<WorkerReplica> = (0..config.workers)
        .map(|w| WorkerReplica::new(&problem, w))
        .collect();
    let mut serial = ServerCore::new(&problem);
    serial.set_threads(1);
    for _ in 0..config.total_steps {
        let payloads: Vec<_> = replicas
            .iter_mut()
            .map(|w| {
                let (_, grads) = w.compute(&problem.data, config.batch_per_worker);
                w.encode_push(grads).payloads
            })
            .collect();
        let out = serial
            .apply_step(&payloads, config.workers, 0.0)
            .expect("every push accepted");
        for w in &mut replicas {
            w.apply_pulls(&out.pulls).expect("the server's own pulls");
        }
    }
    assert_eq!(
        report.final_model_crc32,
        threelc_net::model_crc32(serial.global()),
        "sharded serve diverged from the serial engine"
    );
    for (outcome, replica) in outcomes.iter().zip(&replicas) {
        assert_eq!(
            outcome.model.snapshot(),
            replica.model().snapshot(),
            "a worker replica diverged from the serial engine"
        );
    }
}

#[test]
fn loopback_uncompressed_scheme_also_matches() {
    let config = ExperimentConfig {
        total_steps: 6,
        eval_every: 0,
        ..loopback_config(SchemeKind::Float32)
    };
    let (report, outcomes) = run_loopback(config);
    let simulated = run_experiment(&config);
    assert_eq!(report.result.final_eval, simulated.final_eval);
    let last = report.result.trace.steps.last().expect("steps recorded");
    let sim_last = simulated.trace.steps.last().expect("steps recorded");
    // Float32 is itself a (1:1) compression scheme: big tensors go through
    // its wire format, only below-threshold tensors travel raw.
    assert_eq!(last.push_bytes, sim_last.push_bytes);
    assert_eq!(last.raw_bytes, sim_last.raw_bytes);
    assert!(last.raw_bytes > 0);
    assert_eq!(outcomes.len(), config.workers);
}

/// Tracing is one process-wide switch; the tests that flip it take turns.
static TRACE_SWITCH: Mutex<()> = Mutex::new(());

#[test]
fn every_scheme_design_serves_what_the_simulator_trains() {
    // Every design `--scheme` names, through `serve` and two real workers:
    // the same final model, per-step traffic and worker replicas as the
    // in-process simulator. Width 32 gives the model tensors above the
    // compression threshold, so each design's own wire format crosses the
    // socket.
    for token in SchemeKind::tokens() {
        let config = ExperimentConfig {
            total_steps: 3,
            eval_every: 0,
            model_width: 32,
            ..loopback_config(SchemeKind::parse(token, 1.0).expect("listed token"))
        };
        let (report, outcomes) = run_loopback(config);

        let mut cluster = Cluster::new(config);
        let steps: Vec<_> = (0..config.total_steps).map(|_| cluster.step()).collect();
        assert_eq!(
            report.final_model_crc32,
            threelc_net::model_crc32(cluster.global_model()),
            "{token}: final-model fingerprint diverged from the simulator"
        );
        assert_eq!(report.result.trace.steps.len(), steps.len(), "{token}");
        for (net, sim) in report.result.trace.steps.iter().zip(&steps) {
            let bytes = |r: &threelc_distsim::StepRecord| (r.push_bytes, r.pull_bytes, r.raw_bytes);
            assert_eq!(bytes(net), bytes(sim), "{token}: step {}", sim.step);
        }
        assert!(
            steps.iter().any(|r| r.push_bytes > 0),
            "{token}: nothing compressed"
        );
        assert_eq!(
            report.result.trace.tensors,
            cluster.tensor_traffic(),
            "{token}: per-tensor traffic diverged from the simulator"
        );
        for (w, outcome) in outcomes.iter().enumerate() {
            assert_eq!(
                outcome.model.snapshot(),
                cluster.worker_model(w).snapshot(),
                "{token}: worker {w} replica diverged from the simulator"
            );
        }
    }
}

#[test]
fn a_worker_refuses_an_out_of_range_server_config_with_a_typed_error() {
    // A server whose HelloAck carries parameters no compressor can be built
    // with, or a batch no worker can sample: the worker must return a
    // configuration error, not panic while building its replica.
    let no_batch = ExperimentConfig {
        batch_per_worker: 0,
        ..loopback_config(SchemeKind::three_lc(1.0))
    };
    for config in [
        loopback_config(SchemeKind::three_lc(5.0)),
        loopback_config(SchemeKind::Sparsify { fraction: 0.0 }),
        loopback_config(SchemeKind::LocalSteps { period: 0 }),
        no_batch,
    ] {
        let scheme = config.scheme;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let hello = read_frame(&mut &stream).expect("hello");
            assert_eq!(hello.msg, MsgType::Hello);
            let json = serde_json::to_string(&config).expect("config json");
            write_frame(&mut &stream, MsgType::HelloAck, 0, 0, json.as_bytes()).expect("ack");
            // Hold the connection until the worker has answered.
            let _ = (&stream).read(&mut [0u8; 1]);
        });
        let worker = thread::spawn(move || run_worker(&WorkerOptions::new(addr, 0)));
        let Err(err) = worker.join().expect("the worker must not panic") else {
            panic!("{scheme:?}: an out-of-range config must be refused");
        };
        assert!(
            matches!(err, threelc_net::NetError::Config(_)),
            "{scheme:?}: {err}"
        );
        assert!(err.to_string().contains("server config"), "{err}");
        server.join().expect("fake server");
    }
}

#[test]
fn traced_loopback_produces_a_complete_cross_node_timeline() {
    let _turn = TRACE_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    // THREELC_TRACE=1 equivalent: enable span recording for this run.
    threelc_obs::set_trace_enabled(true);
    let config = ExperimentConfig {
        total_steps: 4,
        eval_every: 0,
        ..loopback_config(SchemeKind::three_lc(1.0))
    };
    let (report, _outcomes) = run_loopback(config);
    threelc_obs::set_trace_enabled(false);

    // One span buffer per node: the server's, then each worker's
    // (collected over the wire by a trace `Scrape` at shutdown).
    assert_eq!(report.node_traces.len(), 1 + config.workers);
    assert_eq!(report.node_traces[0].clock, "server");
    assert_eq!(report.node_traces.iter().map(|n| n.dropped).sum::<u64>(), 0);

    // The merged timeline covers every step with all nine phases
    // (barrier-wait is synthesized by the merge from the server-side
    // barrier endpoints).
    let timeline = threelc_obs::MergedTimeline::build(&report.node_traces);
    let steps = timeline.steps();
    assert_eq!(steps.len(), config.total_steps as usize);
    for &step in &steps {
        for phase in threelc_obs::PHASES {
            assert!(
                timeline.phase_seconds(step, phase) > 0.0,
                "step {step} is missing phase {phase:?}"
            );
        }
    }

    // Worker-side phases appear in every worker's lane, server-side
    // phases in the server's, for every step.
    for &step in &steps {
        for w in 0..config.workers {
            let lane = format!("worker{w}");
            for phase in ["quantize", "encode", "serialize", "network", "pull"] {
                assert!(
                    timeline
                        .spans
                        .iter()
                        .any(|s| s.node == lane && s.name == phase && s.step == step),
                    "step {step}: lane {lane} is missing {phase:?}"
                );
            }
        }
        for phase in ["server-decode", "aggregate", "re-encode"] {
            assert!(
                timeline
                    .spans
                    .iter()
                    .any(|s| s.node == "server" && s.name == phase && s.step == step),
                "step {step}: server lane is missing {phase:?}"
            );
        }
    }

    // Cross-node parenting: the server's recv_push spans point at worker
    // spans carried by the wire's trace context.
    let worker_ids: std::collections::HashSet<u64> = timeline
        .spans
        .iter()
        .filter(|s| s.node.starts_with("worker"))
        .map(|s| s.span)
        .collect();
    let linked = timeline
        .spans
        .iter()
        .filter(|s| s.name == "recv_push")
        .filter(|s| worker_ids.contains(&s.parent))
        .count();
    assert!(
        linked > 0,
        "no recv_push span is parented onto a worker span"
    );

    // All nodes share one process here, so every estimated clock offset
    // must be tiny (well under one barrier round-trip of slack).
    assert_eq!(timeline.offsets.len(), config.workers);
    for off in &timeline.offsets {
        assert!(off.samples > 0, "{}: no barrier samples", off.clock);
    }

    // The Chrome export names every phase.
    let chrome = timeline.chrome_json();
    for phase in threelc_obs::PHASES {
        assert!(
            chrome.contains(&format!("\"name\":\"{phase}\"")),
            "chrome trace is missing {phase:?} events"
        );
    }

    // Every worker codec span names its tensor: 3LC records one
    // `quantize` and one `encode` per compressed tensor per worker step,
    // each tagged with it, and nothing else. Server spans carry no tag.
    let tensors = &report.result.trace.tensors;
    let compressed: Vec<i64> = (0..tensors.len() as i64)
        .filter(|&i| !tensors[i as usize].raw)
        .collect();
    assert!(!compressed.is_empty() && compressed.len() < tensors.len());
    let steps = config.total_steps;
    let worker_steps = config.workers as u64 * steps;
    for lane in &report.node_traces {
        let codec = lane
            .spans
            .iter()
            .filter(|s| s.name == "quantize" || s.name == "encode");
        let mut tagged = std::collections::BTreeMap::<(i64, &str), u64>::new();
        for s in codec {
            *tagged.entry((s.tensor, s.name.as_str())).or_default() += 1;
        }
        if lane.clock == "server" {
            assert!(tagged.keys().all(|&(t, _)| t == -1), "{tagged:?}");
            continue;
        }
        let want: std::collections::BTreeMap<(i64, &str), u64> = compressed
            .iter()
            .flat_map(|&t| [((t, "quantize"), steps), ((t, "encode"), steps)])
            .collect();
        assert_eq!(tagged, want, "{}", lane.clock);
    }
    let by_tensor = threelc_obs::critical::codec_us_per_step(&report.node_traces);
    let worker_codec_us: f64 = (report.node_traces.iter().skip(1))
        .flat_map(|n| &n.spans)
        .filter(|s| s.name == "quantize" || s.name == "encode")
        .map(|s| s.seconds() * 1e6)
        .sum();
    let column: f64 = by_tensor.iter().sum();
    let per_step = worker_codec_us / worker_steps as f64;
    assert!(
        (column - per_step).abs() <= 1e-9 * per_step,
        "{column} != {per_step}"
    );
}

/// Between a worker's gradients and its first frame write nothing may run
/// outside a span: `threelc analyze` charges a straggler's uncovered time to
/// its network phase, so an unrecorded pass there reads as wire time. A
/// codec that records no spans of its own makes one: a float32 push's copy
/// left 30–75 ms a step uncovered here (1.4–9 ms in a release build) until
/// `encode_push` gave it an `encode` span. Nor may a codec pass go without
/// a tensor tag: every worker `quantize`/`encode` span names its tensor, so
/// `analyze`'s per-tensor codec column is every worker codec µs. What is left is span bookkeeping, 15–35 µs
/// in a debug build. Step 0's window opens at its last `encode` span
/// rather than at `compute`'s end: a worker's first step records into an
/// empty ring and histogram cache, and in ten runs of this binary 5 of 20
/// step-0 windows from `compute`'s end read 3.7–8.8 ms against 1 of 120
/// later ones. One of a run's ten windows may exceed the bound, for the
/// scheduler can preempt a worker in one.
#[test]
fn a_worker_step_leaves_no_time_uncovered_between_encode_and_serialize() {
    let _turn = TRACE_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    for scheme in [SchemeKind::Float32, SchemeKind::three_lc(1.0)] {
        threelc_obs::set_trace_enabled(true);
        let config = ExperimentConfig {
            total_steps: 5,
            eval_every: 0,
            model_width: 512,
            ..loopback_config(scheme)
        };
        let (report, _outcomes) = run_loopback(config);
        threelc_obs::set_trace_enabled(false);

        let tagless: Vec<_> = (report.node_traces.iter().flat_map(|n| &n.spans))
            .filter(|s| s.node.starts_with("worker"))
            .filter(|s| (s.name == "quantize" || s.name == "encode") && s.tensor < 0)
            .collect();
        assert!(
            tagless.is_empty(),
            "{scheme:?}: codec spans without a tensor {tagless:?}"
        );

        let mut gaps = Vec::new();
        for w in 0..config.workers {
            let lane = format!("worker{w}");
            for step in 0..config.total_steps {
                let spans = || {
                    report
                        .node_traces
                        .iter()
                        .flat_map(|n| &n.spans)
                        .filter(|s| s.node == lane && s.step == step)
                };
                let opens = if step == 0 { "encode" } else { "compute" };
                let opened = spans().filter(|s| s.name == opens).map(|s| s.end_ns);
                let serialized = spans()
                    .filter(|s| s.name == "serialize")
                    .map(|s| s.start_ns);
                let (Some(from), Some(to)) = (opened.max(), serialized.min()) else {
                    panic!("step {step}: lane {lane} lacks a {opens} or a serialize span");
                };
                // The window's time outside every span that overlaps it.
                let mut covered: Vec<(u64, u64)> = spans()
                    .map(|s| (s.start_ns.max(from), s.end_ns.min(to)))
                    .filter(|&(a, b)| a < b)
                    .collect();
                covered.sort_unstable();
                let (mut uncovered, mut at) = (0, from);
                for (a, b) in covered {
                    uncovered += a.saturating_sub(at);
                    at = at.max(b);
                }
                uncovered += to.saturating_sub(at);
                gaps.push((lane.clone(), step, uncovered));
            }
        }
        let uncovered = gaps.iter().filter(|&&(_, _, ns)| ns >= 1_000_000).count();
        assert!(
            uncovered <= 1,
            "{scheme:?}: uncovered ns before serialize: {gaps:?}"
        );
    }
}

/// Copies `from` to `to` until EOF, counting the bytes that crossed.
fn relay(mut from: TcpStream, mut to: TcpStream, count: Arc<AtomicU64>) {
    let mut buf = [0u8; 16 * 1024];
    while let Ok(n) = from.read(&mut buf) {
        if n == 0 || to.write_all(&buf[..n]).is_err() {
            break;
        }
        count.fetch_add(n as u64, Ordering::Relaxed);
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[test]
fn traced_loopback_counters_agree_with_the_bytes_on_the_wire() {
    // The workers reach the server through a byte-counting relay, so the
    // wire has a count of its own. With tracing on, every frame written
    // under a trace scope is a version-2 frame carrying a 16-byte
    // extension; both ends' counters must include it.
    let _turn = TRACE_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    threelc_obs::set_trace_enabled(true);
    let config = ExperimentConfig {
        total_steps: 4,
        eval_every: 0,
        ..loopback_config(SchemeKind::three_lc(1.0))
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server_addr = listener.local_addr().expect("local addr");
    let front = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let relay_addr = front.local_addr().expect("relay addr").to_string();
    let (up, down) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let relays = {
        let (up, down) = (Arc::clone(&up), Arc::clone(&down));
        thread::spawn(move || {
            let mut copiers = Vec::new();
            for _ in 0..config.workers {
                let (client, _) = front.accept().expect("relay accept");
                let upstream = TcpStream::connect(server_addr).expect("relay connect");
                let (c2, u2) = (client.try_clone().unwrap(), upstream.try_clone().unwrap());
                let (up, down) = (Arc::clone(&up), Arc::clone(&down));
                copiers.push(thread::spawn(move || relay(client, upstream, up)));
                copiers.push(thread::spawn(move || relay(u2, c2, down)));
            }
            for c in copiers {
                c.join().expect("relay thread");
            }
        })
    };
    let server = thread::spawn(move || serve(&listener, &config, &ServeOptions::default()));
    let clients: Vec<_> = (0..config.workers as u16)
        .map(|w| {
            let addr = relay_addr.clone();
            thread::spawn(move || run_worker(&WorkerOptions::new(addr, w)))
        })
        .collect();
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread").expect("worker run"))
        .collect();
    let report = server.join().expect("server thread").expect("serve run");
    relays.join().expect("relay acceptor");
    threelc_obs::set_trace_enabled(false);

    let sum = |f: &dyn Fn(&threelc_net::ConnCounters) -> u64| -> (u64, u64) {
        (
            outcomes.iter().map(|o| f(&o.counters)).sum(),
            report.connections.iter().map(|c| f(&c.counters)).sum(),
        )
    };
    let (worker_out, server_out) = sum(&|c| c.bytes_out);
    let (worker_in, server_in) = sum(&|c| c.bytes_in);
    assert_eq!(worker_out, up.load(Ordering::Relaxed), "worker bytes_out");
    assert_eq!(server_in, up.load(Ordering::Relaxed), "server bytes_in");
    assert_eq!(server_out, down.load(Ordering::Relaxed), "server bytes_out");
    assert_eq!(worker_in, down.load(Ordering::Relaxed), "worker bytes_in");
    let (worker_frames_out, server_frames_out) = sum(&|c| c.frames_out);
    let (worker_frames_in, server_frames_in) = sum(&|c| c.frames_in);
    assert_eq!(worker_frames_out, server_frames_in);
    assert_eq!(server_frames_out, worker_frames_in);
    // The run really did put version-2 frames on the wire: each step's
    // push batch travels under the worker's trace scope.
    assert_eq!(report.node_traces.len(), 1 + config.workers);
}

#[test]
fn worker_retry_budget_is_bounded() {
    // Grab an ephemeral port, then close it: connections get refused.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.local_addr().expect("local addr").to_string()
    };
    let opts = WorkerOptions {
        max_retries: 2,
        initial_backoff: Duration::from_millis(1),
        connect_timeout: Duration::from_millis(200),
        ..WorkerOptions::new(dead_addr, 0)
    };
    assert!(run_worker(&opts).is_err());
}

#[test]
fn server_rejects_a_garbage_hello() {
    // A server still waiting for its workers meets four stray connections,
    // none of which may cost it the run: garbage where a frame should be,
    // a probe that connects and closes, a scrape naming no view, and a
    // `Hello` for a worker id the cluster does not have. The server closes
    // each one and counts it; the workers that join afterwards train to the
    // simulator's exact model.
    let config = ExperimentConfig {
        total_steps: 4,
        eval_every: 0,
        ..loopback_config(SchemeKind::three_lc(1.0))
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let refused = threelc_obs::global().counter("net.server.refused");
    let refused_before = refused.get();
    let server = thread::spawn(move || serve(&listener, &config, &ServeOptions::default()));

    let stray = |bytes: &[u8]| {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(bytes).expect("write");
        // Closed by the server: end of stream, or a reset if it closed with
        // our bytes unread — never an answer, never a read that times out.
        match stream.read(&mut [0u8; 64]) {
            Ok(n) => assert_eq!(n, 0, "the server answered a stray connection"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "the server left a stray connection open: {e}"
            ),
        }
    };
    stray(&[0xAB; 64]);
    drop(TcpStream::connect(&addr).expect("probe"));
    let frame = |msg, payload: &[u8]| threelc_net::frame::Frame::new(msg, 0, 0, payload.to_vec());
    stray(&frame(MsgType::Scrape, &[0xFF]).encode());
    stray(&frame(MsgType::Hello, &encode_hello(2)).encode());

    let clients: Vec<_> = (0..config.workers as u16)
        .map(|w| {
            let addr = addr.clone();
            thread::spawn(move || run_worker(&WorkerOptions::new(addr, w)))
        })
        .collect();
    for client in clients {
        client.join().expect("client thread").expect("worker run");
    }
    let report = server.join().expect("server thread").expect("serve run");

    let mut cluster = Cluster::new(config);
    for _ in 0..config.total_steps {
        cluster.step();
    }
    assert_eq!(
        report.final_model_crc32,
        threelc_net::model_crc32(cluster.global_model()),
        "the run after the stray connections diverged from the simulator"
    );
    assert_eq!(report.faults, threelc_net::FaultsReport::default());
    // One counter, whatever the reason (other tests in this process may
    // have bumped it too).
    assert!(
        refused.get() >= refused_before + 4,
        "net.server.refused went {refused_before} -> {}",
        refused.get()
    );
}

#[test]
fn a_duplicate_worker_id_at_launch_aborts_the_run_naming_it() {
    // Two processes launched with one id while the server is still waiting
    // for its first full set of workers: an operator error, not a fault to
    // recover from.
    let config = loopback_config(SchemeKind::Float32);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = thread::spawn(move || serve(&listener, &config, &ServeOptions::default()));

    let first = TcpStream::connect(addr).expect("connect");
    write_frame(&mut &first, MsgType::Hello, 0, 0, &encode_hello(0)).expect("hello");
    let ack = read_frame(&mut &first).expect("hello ack");
    assert_eq!((ack.msg, ack.step), (MsgType::HelloAck, 0));
    let second = TcpStream::connect(addr).expect("connect");
    write_frame(&mut &second, MsgType::Hello, 0, 0, &encode_hello(0)).expect("hello");

    let err = server
        .join()
        .expect("server thread")
        .expect_err("a duplicate id must abort the run");
    assert!(
        err.to_string().contains("worker id 0 connected twice"),
        "{err}"
    );
}

#[test]
fn server_rejects_an_undecodable_push_with_a_named_error() {
    // A worker that handshakes and frames correctly but sends one garbage
    // body, under every design `--scheme` names: frame CRCs pass (they
    // prove transport, not content), so the body reaches aggregation —
    // which must abort the run naming the worker and the tensor, not panic
    // the coordinator or hang until the step timeout.
    for token in SchemeKind::tokens() {
        let config = ExperimentConfig {
            workers: 1,
            model_width: 32,
            ..loopback_config(SchemeKind::parse(token, 1.0).expect("listed token"))
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let opts = ServeOptions {
            io_timeout: Duration::from_secs(2),
            step_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        };
        let server = thread::spawn(move || serve(&listener, &config, &opts));

        let stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut &stream, MsgType::Hello, 0, 0, &encode_hello(0)).expect("hello");
        let ack = read_frame(&mut &stream).expect("hello ack");
        assert_eq!(ack.msg, MsgType::HelloAck);

        let problem = Problem::build(&config);
        let mut replica = WorkerReplica::new(&problem, 0);
        let (loss, grads) = replica.compute(&problem.data, config.batch_per_worker);
        let mut payloads = replica.encode_push(grads).payloads;
        let bad = problem
            .compressible
            .iter()
            .rposition(|&c| c)
            .expect("a compressible tensor");
        payloads[bad] = TensorPayload::Compressed(vec![0xFF; 16]);
        for (i, payload) in payloads.iter().enumerate() {
            match payload {
                TensorPayload::Compressed(wire) => {
                    write_frame(&mut &stream, MsgType::PushTensor, i as u16, 0, wire)
                }
                TensorPayload::Raw(t) => write_frame(
                    &mut &stream,
                    MsgType::PushRaw,
                    i as u16,
                    0,
                    &t.to_le_bytes(),
                ),
            }
            .expect("push frame");
        }
        let done = encode_push_done(loss, 0.0, 0.0, 0.0);
        write_frame(&mut &stream, MsgType::PushDone, 0, 0, &done).expect("push done");

        let err = server
            .join()
            .expect("the coordinator must not panic")
            .expect_err("an undecodable push must abort the run");
        let text = err.to_string();
        assert!(
            text.contains("worker 0")
                && text.contains(&format!("tensor {bad}"))
                && text.contains("does not decode"),
            "{token}: error must name the worker, the tensor and the cause: {text}"
        );
    }
}

#[test]
fn metrics_scrape_during_handshake_does_not_consume_a_worker_slot() {
    // Two worker slots: connect one worker, scrape while the server is
    // provably parked in the accept loop waiting for the second, then let
    // the second worker join. The run must still complete bit-for-bit.
    let config = ExperimentConfig {
        total_steps: 4,
        eval_every: 0,
        ..loopback_config(SchemeKind::three_lc(1.0))
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = thread::spawn(move || serve(&listener, &config, &ServeOptions::default()));

    let addr0 = addr.clone();
    let w0 = thread::spawn(move || run_worker(&WorkerOptions::new(addr0, 0)));
    let snap = scrape_metrics(&addr, Duration::from_secs(5)).expect("handshake-phase scrape");
    // The snapshot is a well-formed registry image (content depends on
    // what else has run in this process, so no exact-value assertions).
    assert!(!snap.render_text().is_empty());

    let addr1 = addr.clone();
    let w1 = thread::spawn(move || run_worker(&WorkerOptions::new(addr1, 1)));
    w0.join().expect("worker 0 thread").expect("worker 0 run");
    w1.join().expect("worker 1 thread").expect("worker 1 run");
    let report = server.join().expect("server thread").expect("serve run");
    assert_eq!(report.connections.len(), 2);
}

#[test]
fn metrics_scrape_works_mid_training() {
    // One worker slot, driven by hand: after the Hello/HelloAck handshake
    // the server enters the training phase and blocks at the push barrier,
    // so the background scraper thread is deterministically the only thing
    // answering new connections.
    let config = ExperimentConfig {
        workers: 1,
        ..loopback_config(SchemeKind::Float32)
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let opts = ServeOptions {
        io_timeout: Duration::from_secs(5),
        step_timeout: Duration::from_secs(5),
        // Fail-stop mode: the abandoned run below must abort promptly
        // instead of parking the barrier for a rejoin.
        max_rejoins: 0,
        ..ServeOptions::default()
    };
    let server = thread::spawn(move || serve(&listener, &config, &opts));

    let stream = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut &stream, MsgType::Hello, 0, 0, &encode_hello(0)).expect("hello");
    let ack = read_frame(&mut &stream).expect("hello ack");
    assert_eq!(ack.msg, MsgType::HelloAck);

    // The server now waits for our push; scrape through the side door.
    // Plant a marker first: it is registered before the request is sent,
    // so the (global-registry) snapshot must contain it — a deterministic
    // proof the scrape returned live registry state.
    threelc_obs::global()
        .counter("test.mid_training_scrape_marker")
        .add(1);
    let snap = scrape_metrics(&addr, Duration::from_secs(5)).expect("mid-training scrape");
    assert!(snap.counter("test.mid_training_scrape_marker").unwrap_or(0) > 0);

    // Abandon the run; the server must fail stop rather than hang.
    drop(stream);
    assert!(server.join().expect("server thread").is_err());
}

#[test]
fn recorded_series_match_the_simulator_bit_for_bit() {
    // An adaptive policy so the multiplier actually moves, plus
    // compressed and raw payloads so the wire-bytes/ratio series exercise
    // both classifications. The networked store's deterministic view (the
    // wall-clock step_seconds series stripped) must equal the simulator's
    // exactly — same integers, same float bits.
    let mut config = ExperimentConfig {
        total_steps: 12,
        eval_every: 0,
        ..loopback_config(SchemeKind::three_lc(1.0))
    };
    config.policy =
        threelc_distsim::PolicySpec::parse("feedback:ratio=10000,start=1.2,gain=0.05,hold=1")
            .expect("spec");
    let (report, _outcomes) = run_loopback(config);

    let mut cluster = Cluster::new(config);
    for _ in 0..config.total_steps {
        cluster.step();
    }
    let sim = cluster.series();
    assert_eq!(report.series.steps_recorded, config.total_steps);
    assert_eq!(
        report.series.deterministic(),
        sim.deterministic(),
        "networked series store diverged from the simulator's"
    );
    // The non-deterministic series still recorded something per worker.
    for w in &report.series.workers {
        let latency = w.series("step_seconds").expect("step_seconds series");
        assert_eq!(latency.raw.len() as u64, config.total_steps);
        assert!(latency.raw.iter().all(|p| p.value >= 0.0));
    }
    // Spot-check the values are real: ratio > 5 under 3LC, bytes nonzero.
    let run = |name| report.series.run_series(name).expect("run series");
    assert!(run("ratio").raw.iter().all(|p| p.value > 5.0));
    assert!(run("wire_bytes").raw.iter().all(|p| p.value > 0.0));
    // The policy's decision log is the simulator's, and tensor 0's
    // multiplier starts at the controller's `start`, then climbs toward
    // its unreachable target: one nudge every other step.
    assert_eq!(&report.result.trace.policy, cluster.policy_trace());
    let tensor0: Vec<f32> = (report.result.trace.policy.records.iter())
        .filter(|r| r.tensor == 0)
        .map(|r| r.s)
        .collect();
    assert_eq!(tensor0.len() as u64, config.total_steps);
    assert_eq!(tensor0.first(), Some(&1.2));
    assert!((tensor0.last().expect("nonempty") - 1.5).abs() < 1e-5);
}

#[test]
fn series_scrape_during_handshake_returns_an_empty_store() {
    // Like the metrics handshake-phase scrape: a series `Scrape` before the
    // run starts must answer (an empty, correctly-shaped store) without
    // consuming a worker slot.
    let config = ExperimentConfig {
        total_steps: 4,
        eval_every: 0,
        ..loopback_config(SchemeKind::three_lc(1.0))
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = thread::spawn(move || serve(&listener, &config, &ServeOptions::default()));

    let addr0 = addr.clone();
    let w0 = thread::spawn(move || run_worker(&WorkerOptions::new(addr0, 0)));
    let store = scrape_series(&addr, Duration::from_secs(5)).expect("handshake-phase scrape");
    assert_eq!(store.steps_recorded, 0);
    assert_eq!(store.workers.len(), config.workers);

    let addr1 = addr.clone();
    let w1 = thread::spawn(move || run_worker(&WorkerOptions::new(addr1, 1)));
    w0.join().expect("worker 0 thread").expect("worker 0 run");
    w1.join().expect("worker 1 thread").expect("worker 1 run");
    let report = server.join().expect("server thread").expect("serve run");
    assert_eq!(report.series.steps_recorded, config.total_steps);
}

#[test]
fn series_scrape_works_mid_training() {
    // One worker slot, driven by hand (the metrics mid-training pattern):
    // after Hello/HelloAck the coordinator parks at the push barrier, so
    // the side-door thread answers the series `Scrape`.
    let config = ExperimentConfig {
        workers: 1,
        ..loopback_config(SchemeKind::Float32)
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let opts = ServeOptions {
        io_timeout: Duration::from_secs(5),
        step_timeout: Duration::from_secs(5),
        max_rejoins: 0,
        ..ServeOptions::default()
    };
    let server = thread::spawn(move || serve(&listener, &config, &opts));

    let stream = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut &stream, MsgType::Hello, 0, 0, &encode_hello(0)).expect("hello");
    let ack = read_frame(&mut &stream).expect("hello ack");
    assert_eq!(ack.msg, MsgType::HelloAck);

    let store = scrape_series(&addr, Duration::from_secs(5)).expect("mid-training scrape");
    assert_eq!(store.workers.len(), 1);
    assert_eq!(store.steps_recorded, 0, "no push landed yet");

    drop(stream);
    assert!(server.join().expect("server thread").is_err());
}

#[test]
fn side_door_answers_every_kind_and_drops_malformed_scrapes() {
    // Hand-driven single worker parked at the push barrier, as above.
    let config = ExperimentConfig {
        workers: 1,
        ..loopback_config(SchemeKind::Float32)
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let opts = ServeOptions {
        io_timeout: Duration::from_secs(5),
        step_timeout: Duration::from_secs(5),
        max_rejoins: 0,
        ..ServeOptions::default()
    };
    let server = thread::spawn(move || serve(&listener, &config, &opts));

    let stream = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut &stream, MsgType::Hello, 0, 0, &encode_hello(0)).expect("hello");
    let ack = read_frame(&mut &stream).expect("hello ack");
    assert_eq!(ack.msg, MsgType::HelloAck);

    // A live trace scrape is a snapshot, not a drain: asking twice never
    // loses what the first answer held.
    let first = scrape_trace(&addr, Duration::from_secs(5)).expect("trace scrape");
    let second = scrape_trace(&addr, Duration::from_secs(5)).expect("trace scrape again");
    assert_eq!(first.clock, "server");
    assert_eq!(second.clock, "server");
    assert!(second.spans.len() >= first.spans.len());

    // An unknown kind byte, an empty kind, and a frame that is no scrape
    // at all: each connection is dropped without a reply...
    for (msg, payload) in [
        (MsgType::Scrape, &[3u8][..]),
        (MsgType::Scrape, &[][..]),
        (MsgType::PullDone, &[][..]),
    ] {
        let probe = TcpStream::connect(&addr).expect("connect probe");
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        write_frame(&mut &probe, msg, 0, 0, payload).expect("probe frame");
        assert!(
            read_frame(&mut &probe).is_err(),
            "{msg:?} {payload:?} was answered"
        );
    }
    // ...and the side door keeps serving well-formed ones.
    let store = scrape_series(&addr, Duration::from_secs(5)).expect("scrape after probes");
    assert_eq!(store.workers.len(), 1);

    drop(stream);
    assert!(server.join().expect("server thread").is_err());
}

#[test]
fn server_rejects_unsupported_configs_before_accepting() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let none = ExperimentConfig {
        workers: 0,
        ..loopback_config(SchemeKind::Float32)
    };
    let err = serve(&listener, &none, &ServeOptions::default())
        .expect_err("a run without workers is refused");
    assert!(
        err.to_string().contains("at least one worker required"),
        "{err}"
    );
}
