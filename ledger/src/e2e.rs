//! End-to-end runs: the real runtime, tracing off. `threelc_net::serve`
//! on `127.0.0.1:0` plus one `run_worker` thread per worker in this
//! process — a closed loop (each worker sends its next push only after
//! its pull arrives). Traffic crosses the host loopback, not a link.

use crate::reference::{slowdown, Reference};
use crate::stats::{median, step_seconds, Summary};
use crate::workload::{Workload, WORKERS};
use std::net::TcpListener;
use std::thread;
use std::time::Instant;
use threelc_distsim::ExperimentConfig;
use threelc_learning::Evaluation;
use threelc_net::{run_worker, serve, NetReport, ServeOptions, WorkerOptions, WorkerOutcome};

/// Test accuracy a trained model must beat: twice the 10-class chance
/// rate. Loss-below-initial is not the check — thin-batch runs at
/// s = 1.75 can end above the initial loss while still learning.
const MIN_ACCURACY: f64 = 0.2;

pub struct LoopbackRun {
    /// Bind → `serve` returned and every worker joined.
    pub wall_s: f64,
    /// Bind → the last worker's `run_worker` returned. Workers finish
    /// before the server evaluates the final model on the test set, so
    /// this leaves out the one phase of a run that costs the same whatever
    /// its length — and with it most of the run-to-run noise of `wall_s`.
    pub workers_done_s: f64,
    pub report: NetReport,
    pub outcomes: Vec<WorkerOutcome>,
}

impl LoopbackRun {
    pub fn wire_bytes(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.counters.bytes_out + o.counters.bytes_in)
            .sum()
    }
}

/// One real run of `config`. A `NetError` on either side, a panicked
/// thread, or any retry, disconnect or rejoin makes the run a failure:
/// its timing would not be a clean BSP run's.
pub fn loopback_run(config: &ExperimentConfig) -> Result<LoopbackRun, String> {
    let config = *config;
    let t0 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let server = thread::spawn(move || serve(&listener, &config, &ServeOptions::default()));
    let clients: Vec<_> = (0..config.workers as u16)
        .map(|w| {
            let addr = addr.clone();
            thread::spawn(move || {
                let outcome = run_worker(&WorkerOptions::new(addr, w));
                (outcome, t0.elapsed().as_secs_f64())
            })
        })
        .collect();
    // Join everything before looking at any result, so a failed run
    // leaves no thread behind.
    let joined: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
    let report = server.join();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut workers_done_s = 0.0f64;
    let outcomes = joined.into_iter().map(|j| {
        j.map(|(outcome, done_s)| {
            workers_done_s = workers_done_s.max(done_s);
            outcome
        })
    });

    let report = report
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serve: {e}"))?;
    let outcomes = outcomes
        .enumerate()
        .map(|(w, o)| {
            o.map_err(|_| format!("worker {w} thread panicked"))?
                .map_err(|e| format!("worker {w}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let retries: u64 = outcomes.iter().map(|o| o.counters.retries).sum();
    let rejoins: u32 = outcomes.iter().map(|o| o.rejoins).sum();
    if retries > 0 || rejoins > 0 || report.faults.disconnects > 0 || report.faults.rejoins > 0 {
        return Err(format!(
            "not a clean run: {retries} retries, {rejoins} rejoins, {} disconnects",
            report.faults.disconnects
        ));
    }
    Ok(LoopbackRun {
        wall_s,
        workers_done_s,
        report,
        outcomes,
    })
}

/// A named output check and what it saw.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, pass: bool, detail: String) -> Check {
        Check { name, pass, detail }
    }
}

/// How much one `--trace 0` run measures. Short (1-step) runs price the
/// set-up, long (`steps + 1`-step) runs the steady state; they are counted
/// separately because where set-up is cheap, more and shorter long runs
/// give the steadier median.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub short_runs: usize,
    pub long_runs: usize,
    /// Warm steps `S` of each long run.
    pub steps: u64,
    /// Whether the long run is long enough to train: the accuracy check
    /// is meaningless after `--quick`'s five steps.
    pub trains: bool,
}

pub struct E2e {
    /// Corrected for the host's speed, as `step_s` is.
    pub setup_s: Summary,
    pub step_s: Summary,
    /// How much slower than nominal the reference ran during the runs:
    /// what the two times above were divided by.
    pub host_slowdown: f64,
    /// The two medians as the clock read them.
    pub setup_raw_s: f64,
    pub step_raw_s: f64,
    pub wire_bytes_per_step: f64,
    pub final_accuracy: f64,
    pub final_loss: f64,
    pub final_model_crc32: u32,
    pub steps_attempted: u64,
    pub steps_failed: u64,
    pub checks: Vec<Check>,
    pub failures: Vec<String>,
}

/// The few numbers kept of a finished run. The run itself — two replica
/// models, the report — is dropped at once, so the ledger's own
/// bookkeeping stays out of `peak_heap_mb`.
struct Sample {
    wall_s: f64,
    workers_done_s: f64,
    wire_bytes: u64,
    crc: u32,
    eval: Evaluation,
}

/// Runs `workload`'s short and long runs, interleaved so that a drift
/// over the process's life falls on both, with a reading of the host-speed
/// reference before the first and after every run, and folds them into
/// medians: `setup_s` over the short runs' walls, `step_s` over the long
/// runs' worker-side time beyond the median short run's, both divided by
/// the host's slowdown. Returns `None` unless a run of each kind was clean.
pub fn measure(workload: &Workload, seed: u64, plan: &Plan) -> Option<E2e> {
    let mut shorts: Vec<Sample> = Vec::new();
    let mut longs: Vec<Sample> = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference = Reference::new(WORKERS);
    let mut readings = vec![reference.reading()];
    for i in 0..plan.short_runs.max(plan.long_runs) {
        for (wanted, total_steps, samples) in [
            (plan.short_runs, 1, &mut shorts),
            (plan.long_runs, plan.steps + 1, &mut longs),
        ] {
            if i >= wanted {
                continue;
            }
            attempted += total_steps;
            match loopback_run(&workload.config(seed, total_steps)) {
                Ok(run) => {
                    if total_steps > 1 && checks.is_empty() {
                        checks = run_checks(&run, plan);
                    }
                    samples.push(Sample {
                        wall_s: run.wall_s,
                        workers_done_s: run.workers_done_s,
                        wire_bytes: run.wire_bytes(),
                        crc: run.report.final_model_crc32,
                        eval: run.report.result.final_eval,
                    });
                }
                Err(e) => {
                    failed += total_steps;
                    failures.push(e);
                }
            }
            readings.push(reference.reading());
        }
    }
    if shorts.is_empty() {
        return None;
    }
    let first_long = longs.first()?;
    let column =
        |samples: &[Sample], f: fn(&Sample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let short_workers_done_s = median(&column(&shorts, |r| r.workers_done_s));
    let step_raw_s: Vec<f64> = longs
        .iter()
        .map(|r| step_seconds(short_workers_done_s, r.workers_done_s, plan.steps))
        .collect();
    let setup_raw_s = column(&shorts, |r| r.wall_s);
    let host_slowdown = slowdown(&readings);
    let corrected = |raw: &[f64]| -> Vec<f64> { raw.iter().map(|s| s / host_slowdown).collect() };
    let agree = |samples: &[Sample]| {
        samples
            .iter()
            .all(|r| r.crc == samples[0].crc && r.wire_bytes == samples[0].wire_bytes)
    };
    checks.push(Check::new(
        "repetitions-agree",
        agree(&shorts) && agree(&longs),
        format!(
            "{} short and {} long runs; long final_model_crc32 {:08x}, {} wire bytes",
            shorts.len(),
            longs.len(),
            first_long.crc,
            first_long.wire_bytes
        ),
    ));
    Some(E2e {
        setup_s: Summary::of(&corrected(&setup_raw_s)),
        step_s: Summary::of(&corrected(&step_raw_s)),
        host_slowdown,
        setup_raw_s: median(&setup_raw_s),
        step_raw_s: median(&step_raw_s),
        wire_bytes_per_step: first_long.wire_bytes as f64 / (plan.steps + 1) as f64,
        final_accuracy: first_long.eval.accuracy,
        final_loss: f64::from(first_long.eval.loss),
        final_model_crc32: first_long.crc,
        steps_attempted: attempted,
        steps_failed: failed,
        checks,
        failures,
    })
}

/// The output checks one long run can answer on its own.
fn run_checks(run: &LoopbackRun, plan: &Plan) -> Vec<Check> {
    let first = run.outcomes[0].model.snapshot();
    let identical = run.outcomes.iter().all(|o| o.model.snapshot() == first);
    let worker_out: u64 = run.outcomes.iter().map(|o| o.counters.bytes_out).sum();
    let worker_in: u64 = run.outcomes.iter().map(|o| o.counters.bytes_in).sum();
    let server_in: u64 = run
        .report
        .connections
        .iter()
        .map(|c| c.counters.bytes_in)
        .sum();
    let server_out: u64 = run
        .report
        .connections
        .iter()
        .map(|c| c.counters.bytes_out)
        .sum();
    let eval = run.report.result.final_eval;
    vec![
        Check::new(
            "replicas-bit-identical",
            identical,
            format!("{} worker replicas compared", run.outcomes.len()),
        ),
        Check::new(
            "bytes-conserved",
            worker_out == server_in && worker_in == server_out,
            format!("workers out {worker_out} / server in {server_in}; server out {server_out} / workers in {worker_in}"),
        ),
        Check::new(
            "model-trained",
            eval.loss.is_finite() && (!plan.trains || eval.accuracy > MIN_ACCURACY),
            format!(
                "test loss {}, accuracy {}{}",
                eval.loss,
                eval.accuracy,
                if plan.trains {
                    format!(" (must beat {MIN_ACCURACY})")
                } else {
                    " (too few steps to be held to an accuracy)".into()
                }
            ),
        ),
    ]
}
