//! The paced relay (`threelc_bench::link`): its rate, its byte counts, and
//! what a BSP step costs through it. Nothing here writes under `results/`.
//!
//! The step checks use the default model (width 64, two blocks) and two
//! workers at batch 2, so that the wire, not debug-build compute, owns an
//! `f32` step at 10 Mbps.
//!
//! Every test here holds [`serial`]'s lock for its whole run: two relayed
//! runs side by side share the host's cores, and a timed check then times
//! the other run's compute, not its link.

use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::Instant;
use threelc_baselines::SchemeKind;
use threelc_bench::link::{relayed_run, Link, RelayedRun};
use threelc_distsim::{Cluster, ExperimentConfig, NetworkModel};
use threelc_net::frame::write_frame;
use threelc_net::{model_crc32, MsgType, HEADER_LEN};

fn config(scheme: SchemeKind, total_steps: u64) -> ExperimentConfig {
    ExperimentConfig {
        workers: 2,
        batch_per_worker: 2,
        total_steps,
        ..ExperimentConfig::for_scheme(scheme)
    }
}

fn run(scheme: SchemeKind, link: NetworkModel) -> RelayedRun {
    relayed_run(&config(scheme, 7), link).expect("relayed run")
}

fn ten_mbps() -> NetworkModel {
    NetworkModel::paper_presets()[0].1
}

fn bind() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").unwrap()
}

/// The lock every test of this binary runs under, one at a time. A test
/// that failed while holding it poisons nothing the next one uses.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn n_bytes_at_rate_r_arrive_after_n_times_8_over_r_plus_the_latency() {
    let _serial = serial();
    // Two connections share the one bucket: together they take as long
    // as their sum would alone.
    const EACH: usize = 312_500;
    let net = ten_mbps();
    let (sink, relay) = (bind(), bind());
    let relay_addr = relay.local_addr().unwrap();
    let link = Link::new(net);
    let t0 = Instant::now();
    let received: Vec<(u64, Instant)> = thread::scope(|scope| {
        link.relay(scope, relay, sink.local_addr().unwrap(), 2);
        for _ in 0..2 {
            scope.spawn(move || {
                let mut conn = TcpStream::connect(relay_addr).unwrap();
                let payload = vec![7; EACH - HEADER_LEN];
                write_frame(&mut conn, MsgType::PushDone, 0, 0, &payload).unwrap();
                conn.shutdown(Shutdown::Write).unwrap();
            });
        }
        let receivers: Vec<_> = (sink.incoming().take(2))
            .map(|conn| {
                scope.spawn(move || {
                    let got = std::io::copy(&mut conn.unwrap(), &mut std::io::sink()).unwrap();
                    (got, Instant::now())
                })
            })
            .collect();
        receivers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(
        received.iter().all(|&(got, _)| got == EACH as u64),
        "{received:?}"
    );
    let took = (received.iter().map(|&(_, at)| at).max().unwrap() - t0).as_secs_f64();
    let expect = (2 * EACH) as f64 * 8.0 / net.bandwidth_bps + net.latency_s;
    assert!(
        (took - expect).abs() <= 0.05 * expect,
        "{} bytes took {took:.4} s, expected {expect:.4} s",
        2 * EACH
    );
    let relayed: u64 = link.conns.lock().unwrap().iter().map(|c| c.1[0]).sum();
    assert_eq!(relayed, 2 * EACH as u64);
}

#[test]
fn a_relayed_run_counts_the_servers_bytes_and_reaches_the_simulators_model() {
    let _serial = serial();
    let config = config(SchemeKind::three_lc(1.0), 4);
    let run = relayed_run(&config, NetworkModel::paper_presets()[2].1).expect("relayed run");
    assert_eq!(run.conns.len(), run.report.connections.len());
    for conn in &run.report.connections {
        let relayed = run.conns.iter().find(|(peer, _)| *peer == conn.peer);
        let counted = [conn.counters.bytes_in, conn.counters.bytes_out];
        assert_eq!(
            relayed.map(|(_, bytes)| *bytes),
            Some(counted),
            "{}",
            conn.peer
        );
    }
    let mut cluster = Cluster::new(config);
    for _ in 0..config.total_steps {
        cluster.step();
    }
    assert_eq!(
        run.report.final_model_crc32,
        model_crc32(cluster.global_model())
    );
}

#[test]
fn three_lc_steps_in_under_an_eighth_of_f32s_time_at_ten_mbps() {
    let _serial = serial();
    let f32 = run(SchemeKind::Float32, ten_mbps());
    let lc = run(SchemeKind::three_lc(1.0), ten_mbps());
    assert!(
        lc.step.step_s < f32.step.step_s / 8.0,
        "3LC {:.4} s against f32 {:.4} s a step",
        lc.step.step_s,
        f32.step.step_s
    );
}

#[test]
fn where_f32s_wire_time_is_below_its_compute_3lc_is_under_twice_as_fast() {
    let _serial = serial();
    // The rate at which f32's wire time is half its measured compute. Each
    // direction has its own bucket, but a BSP step crosses both in turn.
    let probe = run(SchemeKind::Float32, NetworkModel::paper_presets()[2].1);
    let result = &probe.report.result;
    let bytes_per_step = result.trace.total_bytes() as f64 / result.trace.steps.len() as f64;
    let rate = bytes_per_step * 8.0 / (probe.step.compute_s / 2.0);
    let link = NetworkModel::new(rate, 1e-3);
    let f32 = run(SchemeKind::Float32, link);
    let lc = run(SchemeKind::three_lc(1.0), link);
    let ratio = f32.step.step_s / lc.step.step_s;
    assert!(
        ratio < 2.0,
        "at {:.0} Mbps (compute {:.4} s) f32 {:.4} s / 3LC {:.4} s = {ratio:.2}",
        rate / 1e6,
        probe.step.compute_s,
        f32.step.step_s,
        lc.step.step_s
    );
}
