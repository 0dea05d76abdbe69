//! Chaos integration tests: runs with deterministically injected
//! transport faults must converge to the *exact* final model of an
//! undisturbed in-process simulation — the whole point of the rejoin
//! protocol's replay-based resync.

use std::net::TcpListener;
use std::thread;
use std::time::Duration;
use threelc_baselines::SchemeKind;
use threelc_distsim::{Cluster, ExperimentConfig};
use threelc_net::{
    model_crc32, run_worker, serve, FaultPlan, NetReport, ServeOptions, WorkerOptions,
    WorkerOutcome,
};

fn chaos_config(total_steps: u64) -> ExperimentConfig {
    ExperimentConfig {
        scheme: SchemeKind::three_lc(1.0),
        workers: 2,
        batch_per_worker: 8,
        total_steps,
        model_width: 16,
        model_blocks: 1,
        eval_every: 0,
        seed: 5,
        ..Default::default()
    }
}

/// Serves `config` on an ephemeral loopback port and runs one client per
/// worker, arming worker `w` with `faults[w]`. Returns the report and the
/// outcomes in worker-id order.
fn run_faulted(
    config: ExperimentConfig,
    serve_opts: ServeOptions,
    faults: &[Option<FaultPlan>],
) -> (
    Result<NetReport, threelc_net::NetError>,
    Vec<Result<WorkerOutcome, threelc_net::NetError>>,
) {
    assert_eq!(faults.len(), config.workers);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let worker_max_rejoins = serve_opts.max_rejoins;
    let server = thread::spawn(move || serve(&listener, &config, &serve_opts));
    let clients: Vec<_> = (0..config.workers as u16)
        .map(|w| {
            let addr = addr.clone();
            let fault = faults[usize::from(w)];
            thread::spawn(move || {
                let mut opts = WorkerOptions::new(addr, w);
                opts.fault = fault;
                opts.max_rejoins = worker_max_rejoins;
                run_worker(&opts)
            })
        })
        .collect();
    let outcomes = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    (server.join().expect("server thread"), outcomes)
}

/// The simulator's ground truth for `config`: the global model fingerprint
/// and each worker's replica snapshot.
fn simulate(config: &ExperimentConfig) -> (u32, Vec<Vec<threelc_tensor::Tensor>>) {
    let mut cluster = Cluster::new(*config);
    for _ in 0..config.total_steps {
        cluster.step();
    }
    let replicas = (0..config.workers)
        .map(|w| cluster.worker_model(w).snapshot())
        .collect();
    (model_crc32(cluster.global_model()), replicas)
}

/// Asserts the faulted run produced exactly the simulator's models and the
/// expected disconnect/rejoin accounting.
fn assert_bit_identical(
    config: &ExperimentConfig,
    report: &NetReport,
    outcomes: &[Result<WorkerOutcome, threelc_net::NetError>],
    faulted_worker: usize,
) {
    let (sim_crc, sim_replicas) = simulate(config);
    assert_eq!(
        report.final_model_crc32, sim_crc,
        "faulted run diverged from the simulator's global model"
    );
    assert_eq!(report.faults.disconnects, 1, "{:?}", report.faults.events);
    assert_eq!(report.faults.rejoins, 1, "{:?}", report.faults.events);
    for (w, outcome) in outcomes.iter().enumerate() {
        let outcome = outcome.as_ref().expect("worker survived the fault");
        assert_eq!(outcome.steps, config.total_steps);
        assert_eq!(
            outcome.rejoins,
            u32::from(w == faulted_worker),
            "worker {w} rejoin count"
        );
        assert_eq!(
            outcome.model.snapshot(),
            sim_replicas[w],
            "worker {w} replica diverged after the fault"
        );
    }
    // The faulted worker's connection report folds every session together.
    assert_eq!(report.connections.len(), config.workers);
    assert!(report.connections[faulted_worker].counters.bytes_in > 0);
}

#[test]
fn disconnect_fault_rejoins_and_matches_simulator() {
    let config = chaos_config(8);
    let fault = FaultPlan::parse("disconnect@3").expect("spec");
    let (report, outcomes) = run_faulted(config, ServeOptions::default(), &[Some(fault), None]);
    let report = report.expect("server survived the fault");
    assert_bit_identical(&config, &report, &outcomes, 0);
    // The disconnect and the rejoin both happened at the armed step: the
    // coordinator parked that barrier instead of aborting.
    for event in &report.faults.events {
        assert_eq!(event.step, 3, "{event:?}");
        assert_eq!(event.worker, 0, "{event:?}");
    }
}

#[test]
fn disconnect_fault_matches_simulator_on_a_sharded_server() {
    // Same fault on a model large enough (0.63 M values) that the server
    // derives two aggregation shards wherever it has two cores: replay
    // and resync are shard-count-invariant, like everything else in the
    // stack. (`engine`'s own replay test forces 1 against 4 shards, so
    // that coverage does not hang on this host's core count.)
    let config = ExperimentConfig {
        model_width: 512,
        batch_per_worker: 2,
        ..chaos_config(8)
    };
    let fault = FaultPlan::parse("disconnect@3").expect("spec");
    let (report, outcomes) = run_faulted(config, ServeOptions::default(), &[Some(fault), None]);
    let report = report.expect("server survived the fault");
    assert_bit_identical(&config, &report, &outcomes, 0);
}

#[test]
fn drop_after_push_fault_rejoins_and_matches_simulator() {
    // The nastier window: the fault fires after the push batch is flushed,
    // so the server may have already accepted the dying connection's push
    // for that step. The re-pushed batch must be byte-identical, and the
    // final model must still match the simulator.
    let config = chaos_config(8);
    let fault = FaultPlan::parse("drop-after-push@2").expect("spec");
    let (report, outcomes) = run_faulted(config, ServeOptions::default(), &[Some(fault), None]);
    let report = report.expect("server survived the fault");
    assert_bit_identical(&config, &report, &outcomes, 0);
}

#[test]
fn crc_corruption_fault_rejoins_and_matches_simulator() {
    // A corrupted push frame: the server's CRC check rejects the frame and
    // drops the connection; the worker rejoins and re-pushes clean bytes.
    let config = chaos_config(8);
    let fault = FaultPlan::parse("crc@2:7").expect("spec");
    let (report, outcomes) = run_faulted(config, ServeOptions::default(), &[None, Some(fault)]);
    let report = report.expect("server survived the fault");
    assert_bit_identical(&config, &report, &outcomes, 1);
}

#[test]
fn adaptive_policy_survives_disconnect_and_rejoin() {
    // The policy acceptance gate: a feedback run that loses a worker
    // mid-run must replay the exact decision sequence during resync (the
    // decisions ride in the recorded pulls' policy tails) and converge
    // to the undisturbed simulator's models, decisions included.
    let mut config = chaos_config(8);
    config.policy =
        threelc_distsim::PolicySpec::parse("feedback:ratio=10000,start=1.2,gain=0.05,hold=1")
            .expect("spec");
    let fault = FaultPlan::parse("disconnect@3").expect("spec");
    let (report, outcomes) = run_faulted(config, ServeOptions::default(), &[Some(fault), None]);
    let report = report.expect("server survived the fault");
    assert_bit_identical(&config, &report, &outcomes, 0);

    // The decision sequence matches the undisturbed simulated run
    // bit for bit, and it is genuinely non-constant.
    let simulated = threelc_distsim::run_experiment(&config);
    assert!(!report.result.trace.policy.records.is_empty());
    assert!(!report.result.trace.policy.is_constant());
    assert_eq!(report.result.trace.policy, simulated.trace.policy);
}

#[test]
fn fail_stop_mode_aborts_on_the_same_fault() {
    // The inverted gate: with the rejoin budget at zero the very same
    // injected fault must abort the run — proving the chaos tests would
    // catch a silently non-tolerant server.
    let config = chaos_config(8);
    let fault = FaultPlan::parse("disconnect@3").expect("spec");
    let serve_opts = ServeOptions {
        max_rejoins: 0,
        step_timeout: Duration::from_secs(30),
        ..ServeOptions::default()
    };
    let (report, outcomes) = run_faulted(config, serve_opts, &[Some(fault), None]);
    assert!(report.is_err(), "fail-stop server must abort");
    assert!(
        outcomes[0].is_err(),
        "faulted worker has no rejoin budget and must fail"
    );
}

#[test]
fn aborted_run_still_writes_the_fault_into_its_flight_dump() {
    // `serve` returns the fail-stop error, and the dump it leaves behind
    // carries the disconnect that caused it — read off the coordinator's
    // fault ledger, which outlives the aborted run.
    let config = chaos_config(8);
    let fault = FaultPlan::parse("disconnect@2").expect("spec");
    let path = std::env::temp_dir().join(format!(
        "threelc-faults-abort-{}.flight.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let serve_opts = ServeOptions {
        max_rejoins: 0,
        step_timeout: Duration::from_secs(30),
        flight: Some(path.to_str().expect("utf8 temp path").into()),
        ..ServeOptions::default()
    };
    let (report, _outcomes) = run_faulted(config, serve_opts, &[Some(fault), None]);
    let error = report.expect_err("fail-stop server must abort").to_string();
    assert!(error.contains("worker 0 left during step 2"), "{error}");
    let text = std::fs::read_to_string(&path).expect("an aborted run still dumps");
    let dump = threelc_obs::FlightDump::from_json(&text).expect("flight dump parses");
    assert_eq!(dump.trigger, "abort");
    assert_eq!(dump.detail, error);
    assert_eq!(dump.steps_recorded, 2);
    let faults: Vec<_> = dump
        .anomalies
        .iter()
        .map(|a| (a.kind.as_str(), a.step, a.node.as_str()))
        .collect();
    assert_eq!(faults, [("fault-disconnect", 2, "worker0")]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_injection_is_fully_deterministic() {
    // Two identical faulted runs: same fault sequence (step, worker,
    // kind), same final model bits. Event detail strings are exempt —
    // which side detects a disconnect first is a scheduling race; what
    // happened and what it converged to are not.
    let config = chaos_config(6);
    let fault = FaultPlan::parse("crc@2:9").expect("spec");
    let run = || {
        let (report, outcomes) = run_faulted(config, ServeOptions::default(), &[Some(fault), None]);
        let report = report.expect("server survived the fault");
        let models: Vec<Vec<threelc_tensor::Tensor>> = outcomes
            .into_iter()
            .map(|o| o.expect("worker survived").model.snapshot())
            .collect();
        (report, models)
    };
    let (report_a, models_a) = run();
    let (report_b, models_b) = run();
    assert_eq!(report_a.final_model_crc32, report_b.final_model_crc32);
    assert_eq!(report_a.result.final_eval, report_b.result.final_eval);
    let key = |r: &NetReport| -> Vec<(u64, usize, String)> {
        r.faults
            .events
            .iter()
            .map(|e| (e.step, e.worker, e.kind.clone()))
            .collect()
    };
    assert_eq!(key(&report_a), key(&report_b));
    assert_eq!(models_a, models_b);
    // And the faulted run still equals the undisturbed simulation.
    let (sim_crc, _) = simulate(&config);
    assert_eq!(report_a.final_model_crc32, sim_crc);
}
