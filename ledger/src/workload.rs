//! The four workloads. Each is one `ExperimentConfig` shape chosen so
//! that a different layer owns the step; `BENCHMARK.json` repeats the
//! one-line reasons.

use threelc_baselines::SchemeKind;
use threelc_distsim::ExperimentConfig;

/// Workers in every workload: one per core of the 2-core reference host,
/// so worker compute runs in parallel and the server's handler threads
/// only ever block in I/O while workers compute.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub width: usize,
    pub batch: usize,
    pub scheme: SchemeKind,
    /// 1-step runs per `--trace 0` run; their median wall is `setup_s`.
    pub short_runs: usize,
    /// `(S + 1)`-step runs per `--trace 0` run. The host's bursts last
    /// seconds and only ever add time, so where set-up is cheap, more and
    /// shorter long runs give the steadier median; at width 1024 a set-up
    /// costs as much as 15 steps.
    pub long_runs: usize,
    /// Warm steps `S` of each long run at the default `--seconds`, sized so
    /// that one `--trace 0` run takes about that long on the 2-core
    /// reference host.
    pub steps: u64,
    /// Whether `S + 1` steps are enough to beat twice the chance accuracy
    /// on every seed tried. At s = 1.75 the thin-batch model sends almost
    /// nothing for its first tens of steps, so it is not held to that.
    pub learns: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    // The paper's default operating point: worker compute owns about half
    // of the step, the server's re-encode and frame I/O an eighth each.
    Workload {
        name: "mlp512-3lc",
        width: 512,
        batch: 32,
        scheme: three_lc(1.0),
        short_runs: 5,
        long_runs: 8,
        steps: 50,
        learns: true,
    },
    // Table 1's denominator. 18.5 MB cross the loopback per step, so
    // serialisation, frame write/read and CRC own the step and the codec
    // none of it: a codec speed-up must not move it, a frame-path change
    // must.
    Workload {
        name: "mlp512-f32",
        width: 512,
        batch: 32,
        scheme: SchemeKind::Float32,
        short_runs: 5,
        long_runs: 7,
        steps: 20,
        learns: true,
    },
    // A thin batch over a 4x larger model: encode, symbol decode,
    // accumulate, re-encode and pull decode together rival compute. The
    // workload where fusing or overlapping codec passes shows.
    Workload {
        name: "mlp1024-3lc",
        width: 1024,
        batch: 8,
        scheme: three_lc(1.0),
        short_runs: 3,
        long_runs: 3,
        steps: 40,
        learns: true,
    },
    // The same layers used differently: about 3x fewer wire bytes and long
    // zero runs, so zero-run scanning dominates where quartic packing did.
    // Catches a gain at one operating point that costs the paper's other.
    Workload {
        name: "mlp1024-3lc-s175",
        width: 1024,
        batch: 8,
        scheme: three_lc(1.75),
        short_runs: 3,
        long_runs: 3,
        steps: 40,
        learns: false,
    },
];

const fn three_lc(sparsity: f32) -> SchemeKind {
    SchemeKind::ThreeLc {
        sparsity,
        zero_run_encoding: true,
        error_accumulation: true,
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The workload's configuration for a run of `total_steps` steps.
    /// Everything not named here keeps `ExperimentConfig`'s default:
    /// static policy, exact aggregation, no mid-run evaluation, the
    /// default learning-rate schedule.
    pub fn config(&self, seed: u64, total_steps: u64) -> ExperimentConfig {
        ExperimentConfig {
            scheme: self.scheme,
            workers: WORKERS,
            batch_per_worker: self.batch,
            total_steps,
            model_width: self.width,
            model_blocks: 2,
            eval_every: 0,
            seed,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolve() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn config_carries_the_seed_and_step_count() {
        let c = WORKLOADS[1].config(43, 7);
        assert_eq!((c.seed, c.total_steps, c.workers), (43, 7, WORKERS));
        assert_eq!(c.scheme, SchemeKind::Float32);
    }
}
