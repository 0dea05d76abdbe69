//! The bulk-synchronous parameter-server cluster.

use crate::config::ExperimentConfig;
use crate::engine::{Problem, ServerCore, WorkerPush, WorkerReplica};
use crate::trace::{StepRecord, TensorTraffic};
use threelc::CompressionStats;
use threelc_learning::{Batch, Evaluation, Network, SyntheticImages};
use threelc_obs::trace::{self, TraceScope, TraceSpan};
use threelc_obs::RecentSteps;
use threelc_policy::PolicyTrace;

/// An in-process parameter-server cluster (paper Figures 1–2).
///
/// Training dynamics are exact: every gradient flows through a real
/// compression context on push, the server's SGD-with-momentum updates the
/// full-precision global model, and every model delta flows through a real
/// (shared) compression context on pull. Each step's traffic is one
/// [`StepRecord`]; the cluster keeps no clock of its own.
///
/// The arithmetic lives in [`crate::engine`], which the TCP runtime
/// (`threelc-net`) drives over real sockets; this type runs the same
/// strict-BSP step over in-process replicas, so it can simulate exactly
/// what `serve` runs and nothing else.
pub struct Cluster {
    config: ExperimentConfig,
    server: ServerCore,
    workers: Vec<WorkerReplica>,
    data: SyntheticImages,
    test: Batch,
    compressible_values: u64,
    /// Every policy decision taken so far (empty under a static policy).
    policy_log: PolicyTrace,
    /// The last steps' per-worker deltas, fed once per step with the same
    /// values the networked server records at its barrier — the two rings
    /// are bit-identical for identical runs (minus the wall-clock fields).
    recent: RecentSteps,
}

impl Cluster {
    /// Builds a cluster: global model, `config.workers` replicas, and
    /// per-tensor compression contexts on both paths.
    ///
    /// # Panics
    ///
    /// Panics with [`ExperimentConfig::validate`]'s reason if the config
    /// cannot run.
    pub fn new(config: ExperimentConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid experiment config: {e}");
        }
        let problem = Problem::build(&config);
        let mut workers: Vec<WorkerReplica> = (0..config.workers)
            .map(|w| WorkerReplica::new(&problem, w))
            .collect();
        let server = ServerCore::new(&problem);
        // An adaptive policy's step-0 decisions exist before any traffic
        // flows; the workers must encode their first push with them
        // (networked workers derive the identical vector from the config).
        if !server.current_decisions().is_empty() {
            for w in &mut workers {
                w.apply_policy(server.current_decisions());
            }
        }
        Cluster {
            workers,
            server,
            compressible_values: problem.compressible_values(),
            data: problem.data,
            test: problem.test,
            policy_log: PolicyTrace {
                label: config.policy.label(),
                records: Vec::new(),
            },
            recent: RecentSteps::new(config.workers),
            config,
        }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The server's full-precision global model.
    pub fn global_model(&self) -> &Network {
        self.server.global()
    }

    /// Worker `w`'s local model replica.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn worker_model(&self, w: usize) -> &Network {
        self.workers[w].model()
    }

    /// Cumulative gradient-push traffic of the compressed tensors.
    pub fn push_stats(&self) -> CompressionStats {
        self.server.push_stats()
    }

    /// Cumulative model-delta-pull traffic of the compressed tensors.
    pub fn pull_stats(&self) -> CompressionStats {
        self.server.pull_stats()
    }

    /// Cumulative push and pull traffic per tensor, in parameter order.
    pub fn tensor_traffic(&self) -> &[TensorTraffic] {
        self.server.tensor_traffic()
    }

    /// Every policy decision taken so far, in (step, tensor) order. Empty
    /// records under a static policy.
    pub fn policy_trace(&self) -> &PolicyTrace {
        &self.policy_log
    }

    /// The run's recent steps, matching the networked server's scrapeable
    /// ring bit for bit for identical runs but for the wall-clock
    /// `step_seconds` and `barrier_wait_seconds`, which necessarily differ.
    pub fn recent(&self) -> &RecentSteps {
        &self.recent
    }

    /// Total parameters in the model.
    pub fn num_params(&self) -> u64 {
        self.server.global().num_params() as u64
    }

    /// Number of values covered by compression (per direction per worker).
    pub fn compressible_values(&self) -> u64 {
        self.compressible_values
    }

    /// Evaluates the global model on the held-out test set (the paper's
    /// dedicated evaluation node reading a model snapshot).
    pub fn evaluate(&self) -> Evaluation {
        self.server.evaluate(&self.test)
    }

    /// Executes one bulk-synchronous training step and returns its record.
    pub fn step(&mut self) -> StepRecord {
        let step = self.server.step_number();
        let workers = self.config.workers;

        // All simulated lanes share one process (one clock domain), so
        // trace scopes record into the global buffer with per-lane node
        // labels. Gated up front to keep the label formatting off the hot
        // path when tracing is disabled.
        let tracing = trace::trace_enabled();
        let trace_id = trace::run_trace_id(self.config.seed);
        let worker_scope = |w: usize| {
            tracing.then(|| {
                TraceScope::enter(
                    trace::global_buffer(),
                    &format!("worker{w}"),
                    trace_id,
                    step,
                    w as i64,
                )
            })
        };

        // ---- Worker phase: local compute + gradient push compression.
        // The step's books (per-worker deltas, traffic, the
        // StepRecord) are kept by the engine's one accountant, which the
        // networked server feeds the same way.
        let mut payloads = Vec::with_capacity(workers);
        let mut account = self.server.begin_step();
        for (wi, w) in self.workers.iter_mut().enumerate() {
            let _scope = worker_scope(wi);
            let step_t0 = std::time::Instant::now();
            let compute_span = TraceSpan::start("compute");
            let (loss, grads) = w.compute(&self.data, self.config.batch_per_worker);
            compute_span.finish();
            // quantize/encode spans are recorded inside the compression
            // contexts under this worker's scope.
            let encoded = w.encode_push(grads);
            account.push(WorkerPush {
                payloads: &encoded.payloads,
                loss,
                step_seconds: step_t0.elapsed().as_secs_f64(),
                barrier_wait_seconds: 0.0,
                rejoins: 0,
            });
            payloads.push(encoded.payloads);
        }
        self.recent.record(step, account.deltas());

        // ---- Server phase: decompress, aggregate, update global model,
        // then compress the model deltas for the pull path.
        let server_scope = tracing.then(|| {
            TraceScope::enter(
                trace::global_buffer(),
                "server",
                trace_id,
                step,
                trace::NO_WORKER,
            )
        });
        // Every worker pushed, and a config the cluster was built from has
        // at least one (`ExperimentConfig::validate`), so the all-rejected
        // error is unreachable in the simulator.
        let out = self
            .server
            .apply_step(&payloads, account.accepted(), 0.0)
            .expect("every worker pushed");
        drop(server_scope);

        // Deliver the next step's policy decisions to every replica, exactly
        // as the networked runtime's pull-batch broadcast reaches every
        // connected worker.
        if !out.next_decisions.is_empty() {
            for w in self.workers.iter_mut() {
                w.apply_policy(&out.next_decisions);
            }
        }
        self.policy_log
            .records
            .extend(out.policy_records.iter().copied());

        let record = account.finish(&out);

        // Every worker decodes the shared batch itself, as a networked
        // worker does.
        for (wi, w) in self.workers.iter_mut().enumerate() {
            let _scope = worker_scope(wi);
            let pull_span = TraceSpan::start("pull");
            w.apply_pulls(&out.pulls)
                .expect("the server's own pull contexts produced these payloads");
            pull_span.finish();
        }

        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_baselines::SchemeKind;

    fn tiny_config(scheme: SchemeKind) -> ExperimentConfig {
        ExperimentConfig {
            scheme,
            workers: 3,
            batch_per_worker: 8,
            total_steps: 10,
            model_width: 16,
            model_blocks: 1,
            seed: 1,
            ..Default::default()
        }
    }

    #[test]
    #[should_panic(expected = "invalid experiment config: at least one worker required")]
    fn a_config_without_workers_is_refused_at_construction() {
        Cluster::new(ExperimentConfig {
            workers: 0,
            ..tiny_config(SchemeKind::Float32)
        });
    }

    #[test]
    fn float32_keeps_workers_identical_to_global() {
        // With lossless transport, every worker's local model must equal
        // the global model bit-for-bit after every step.
        let mut cluster = Cluster::new(tiny_config(SchemeKind::Float32));
        for _ in 0..5 {
            cluster.step();
        }
        let global = cluster.global_model().snapshot();
        for w in 0..3 {
            assert_eq!(
                cluster.worker_model(w).snapshot(),
                global,
                "worker {w} diverged under lossless transport"
            );
        }
    }

    #[test]
    fn workers_stay_in_sync_with_each_other_under_lossy_pulls() {
        // Shared pull compression means all workers decode the same
        // payload: they may drift from the global model but never from
        // each other.
        let mut cluster = Cluster::new(tiny_config(SchemeKind::three_lc(1.0)));
        for _ in 0..5 {
            cluster.step();
        }
        let first = cluster.worker_model(0).snapshot();
        for w in 1..3 {
            assert_eq!(
                cluster.worker_model(w).snapshot(),
                first,
                "worker {w} out of sync"
            );
        }
    }

    #[test]
    fn step_records_traffic() {
        let mut cluster = Cluster::new(tiny_config(SchemeKind::Float32));
        let rec = cluster.step();
        let values = cluster.compressible_values();
        assert!(values > 0);
        // Lossless f32: 4 bytes per value per worker per direction.
        assert_eq!(rec.push_bytes, values * 4 * 3);
        assert_eq!(rec.pull_bytes, values * 4 * 3);
        assert!(rec.raw_bytes > 0, "biases travel uncompressed");
        assert!(rec.loss.is_finite());
    }

    #[test]
    fn three_lc_reduces_traffic_by_more_than_10x() {
        let mut a = Cluster::new(tiny_config(SchemeKind::Float32));
        let mut b = Cluster::new(tiny_config(SchemeKind::three_lc(1.0)));
        let (mut fa, mut fb) = (0u64, 0u64);
        for _ in 0..5 {
            let ra = a.step();
            let rb = b.step();
            fa += ra.push_bytes + ra.pull_bytes;
            fb += rb.push_bytes + rb.pull_bytes;
        }
        assert!(
            fb * 10 < fa,
            "3LC bytes {fb} should be <10% of float32 bytes {fa}"
        );
    }

    #[test]
    fn deterministic_dynamics_given_seed() {
        let run = |seed| {
            let mut cluster = Cluster::new(ExperimentConfig {
                seed,
                ..tiny_config(SchemeKind::three_lc(1.5))
            });
            for _ in 0..4 {
                cluster.step();
            }
            cluster.global_model().snapshot()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn small_tensors_bypass_compression() {
        let cluster = Cluster::new(tiny_config(SchemeKind::three_lc(1.0)));
        let threshold = cluster.config().compress_threshold;
        let total: u64 = cluster.num_params();
        let compressible = cluster.compressible_values();
        assert!(compressible < total, "biases must be excluded");
        for p in cluster.global_model().params() {
            if p.len() < threshold {
                // Small tensors are exactly the excluded ones.
                assert!(compressible <= total - p.len() as u64 + compressible);
            }
        }
    }

    #[test]
    fn per_tensor_traffic_sums_to_the_stats_and_the_step_records() {
        let mut cluster = Cluster::new(tiny_config(SchemeKind::three_lc(1.0)));
        let records: Vec<StepRecord> = (0..3).map(|_| cluster.step()).collect();
        let rows = cluster.tensor_traffic();
        let params = cluster.global_model().params();
        assert_eq!(rows.len(), params.len());
        let sum = |raw: bool, side: fn(&TensorTraffic) -> &CompressionStats| {
            let mut total = CompressionStats::new();
            for t in rows.iter().filter(|t| t.raw == raw) {
                total.merge(side(t));
            }
            total
        };
        assert_eq!(sum(false, |t| &t.push), cluster.push_stats());
        assert_eq!(sum(false, |t| &t.pull), cluster.pull_stats());
        let bytes = |f: fn(&StepRecord) -> u64| records.iter().map(f).sum::<u64>();
        assert_eq!(sum(false, |t| &t.push).wire_bytes, bytes(|r| r.push_bytes));
        assert_eq!(sum(false, |t| &t.pull).wire_bytes, bytes(|r| r.pull_bytes));
        let raw = sum(true, |t| &t.push).wire_bytes + sum(true, |t| &t.pull).wire_bytes;
        assert_eq!(raw, bytes(|r| r.raw_bytes));
        assert!(raw > 0, "the biases travel raw");
        // A raw tensor reads exactly 32 bits per value both ways; a
        // compressed one far less.
        for (t, p) in rows.iter().zip(params) {
            assert_eq!(t.values, p.len() as u64);
            assert_eq!(t.raw, p.len() < cluster.config().compress_threshold);
            for side in [&t.push, &t.pull] {
                assert_eq!(side.values, 3 * 3 * t.values, "3 workers x 3 steps");
                if t.raw {
                    assert_eq!(side.bits_per_value(), 32.0);
                } else {
                    assert!(side.bits_per_value() < 4.0, "{side:?}");
                }
            }
        }
    }

    #[test]
    fn accessors_and_stats_track_progress() {
        let mut cluster = Cluster::new(tiny_config(SchemeKind::three_lc(1.0)));
        assert_eq!(cluster.server.step_number(), 0);
        assert!(cluster.push_stats().payloads == 0);
        let eval0 = cluster.evaluate();
        assert!(eval0.loss.is_finite());
        assert!((0.0..=1.0).contains(&eval0.accuracy));
        for _ in 0..3 {
            cluster.step();
        }
        assert_eq!(cluster.server.step_number(), 3);
        // 3 workers × compressible tensors × 3 steps payloads on push;
        // pull compresses once per tensor per step.
        assert!(cluster.push_stats().payloads > 0);
        assert!(cluster.pull_stats().payloads > 0);
        assert!(cluster.push_stats().compression_ratio() > 5.0);
        assert!(cluster.num_params() > cluster.compressible_values());
        assert_eq!(cluster.config().workers, 3);
    }

    #[test]
    fn adaptive_policy_keeps_workers_in_sync() {
        let mut config = tiny_config(SchemeKind::three_lc(1.0));
        // An unreachable target moves the multiplier every other step.
        config.policy =
            threelc_policy::PolicySpec::parse("feedback:ratio=10000,start=1.2,gain=0.05,hold=1")
                .unwrap();
        let mut cluster = Cluster::new(config);
        for _ in 0..6 {
            cluster.step();
        }
        let trace = cluster.policy_trace();
        assert_eq!(
            trace.label,
            "feedback:ratio=10000,start=1.2,gain=0.05,band=0.1,hold=1"
        );
        // One record per compressible-or-not tensor per step.
        assert_eq!(trace.records.len() % 6, 0);
        assert!(
            !trace.is_constant(),
            "the controller must produce a non-constant multiplier sequence"
        );
        // Shared decisions keep replicas bit-identical to each other.
        let first = cluster.worker_model(0).snapshot();
        for w in 1..3 {
            assert_eq!(
                cluster.worker_model(w).snapshot(),
                first,
                "worker {w} out of sync under an adaptive policy"
            );
        }
    }

    #[test]
    fn feedback_policy_reacts_to_measured_ratio() {
        let mut config = tiny_config(SchemeKind::three_lc(1.0));
        // An intentionally unreachable target ratio: the controller should
        // keep pushing s upward until it hits the clamp.
        config.policy =
            threelc_policy::PolicySpec::parse("feedback:ratio=10000,start=1.2,gain=0.2,hold=0")
                .unwrap();
        let mut cluster = Cluster::new(config);
        for _ in 0..8 {
            cluster.step();
        }
        let trace = cluster.policy_trace();
        assert!(!trace.is_constant());
        let first = trace.records.first().unwrap();
        let last = trace.records.last().unwrap();
        assert!((first.s - 1.2).abs() < 1e-6);
        assert!(last.s > first.s, "s should rise: {} -> {}", first.s, last.s);
        assert!(last.s < 2.0, "clamp must hold");
        // Compressed tensors report real measured ratios; raw (bias)
        // tensors sit at exactly 1.0.
        assert!(trace.records.iter().any(|r| r.achieved_ratio > 5.0));
        assert!(trace.records.iter().all(|r| r.achieved_ratio >= 0.0));
    }

    #[test]
    fn static_policy_matches_pre_policy_behaviour() {
        // The policy subsystem must be invisible when static: identical
        // dynamics to a cluster that never heard of policies, and an empty
        // decision log.
        let mut with_field = tiny_config(SchemeKind::three_lc(1.5));
        with_field.policy = threelc_policy::PolicySpec::Static;
        let mut a = Cluster::new(with_field);
        let mut b = Cluster::new(tiny_config(SchemeKind::three_lc(1.5)));
        for _ in 0..4 {
            a.step();
            b.step();
        }
        assert_eq!(a.global_model().snapshot(), b.global_model().snapshot());
        assert!(a.policy_trace().records.is_empty());
    }

    #[test]
    fn policy_decisions_are_deterministic_across_runs() {
        let run = || {
            let mut config = tiny_config(SchemeKind::three_lc(1.0));
            config.policy =
                threelc_policy::PolicySpec::parse("feedback:ratio=40,start=1.3").unwrap();
            let mut cluster = Cluster::new(config);
            for _ in 0..6 {
                cluster.step();
            }
            (
                cluster.global_model().snapshot(),
                cluster.policy_trace().clone(),
            )
        };
        let (m1, t1) = run();
        let (m2, t2) = run();
        assert_eq!(m1, m2, "models must match bit-for-bit");
        assert_eq!(t1, t2, "decision sequences must match exactly");
    }

    #[test]
    fn traced_sim_yields_a_conserved_critical_path() {
        // The same critical-path ledger the networked server embeds in its
        // report must hold on the simulator's single-clock trace: folded
        // over the global buffer's spans, attribution is conserved and the
        // blame lands on lanes that did real work (sim/net parity for the
        // analyzer — no network spans exist here at all).
        use threelc_obs::{MergedTimeline, RunAnalysis};
        threelc_obs::set_trace_enabled(true);
        let seed = 0xC0_FFEE;
        let mut cluster = Cluster::new(ExperimentConfig {
            seed,
            total_steps: 4,
            ..tiny_config(SchemeKind::three_lc(1.0))
        });
        for _ in 0..4 {
            cluster.step();
        }
        threelc_obs::set_trace_enabled(false);
        // Keep only this run's spans: the buffer is process-global and
        // other tests may trace concurrently under a different trace id.
        let trace_id = trace::run_trace_id(seed);
        let mut dump = trace::global_buffer().drain("sim");
        dump.spans.retain(|s| s.trace == trace_id);
        assert!(!dump.spans.is_empty(), "traced run recorded no spans");

        let timeline = MergedTimeline::build(&[dump]);
        let analysis = RunAnalysis::build(&timeline);
        assert_eq!(analysis.steps.len(), 4);
        assert!(
            analysis.conservation_error < 1e-9,
            "attribution must sum to step wall-clock: residual {}",
            analysis.conservation_error
        );
        for st in &analysis.steps {
            let sum: f64 = st.buckets.iter().map(|b| b.seconds).sum();
            assert!((sum - st.wall_seconds).abs() <= 1e-9 * st.wall_seconds.max(1e-9));
        }
        // Real work is attributed to real lanes.
        let lanes: std::collections::BTreeSet<&str> =
            analysis.totals.iter().map(|b| b.node.as_str()).collect();
        assert!(lanes.iter().any(|l| l.starts_with("worker")));
        assert!(analysis.total_wall_seconds > 0.0);
        // A serial in-process run never trips the network-bottleneck flag.
        assert!(
            analysis.bottlenecks.is_empty(),
            "{:?}",
            analysis.bottlenecks
        );
    }

    #[test]
    fn training_loss_decreases() {
        let mut cluster = Cluster::new(ExperimentConfig {
            total_steps: 60,
            ..tiny_config(SchemeKind::Float32)
        });
        let first: f32 = (0..5).map(|_| cluster.step().loss).sum::<f32>() / 5.0;
        for _ in 0..50 {
            cluster.step();
        }
        let last: f32 = (0..5).map(|_| cluster.step().loss).sum::<f32>() / 5.0;
        assert!(last < first, "loss should fall: first {first}, last {last}");
    }
}
