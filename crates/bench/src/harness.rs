//! Command-line options and experiment grids shared by the bench binaries.

use threelc_baselines::SchemeKind;
use threelc_distsim::config::STANDARD_STEPS;
use threelc_distsim::ExperimentConfig;

/// Options accepted by every table/figure binary.
///
/// - `--steps N` — override the standard step count (default
///   [`STANDARD_STEPS`]).
/// - `--quick` — 300-step runs for a fast smoke pass.
/// - `--seed N` — master seed (default 42).
/// - `--runs N` — independent repetitions to average (the paper averages
///   5 full-measurement runs, §5.2; default 1).
/// - `--fresh` — ignore cached runs and re-execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessOptions {
    /// Standard (100%) step count.
    pub steps: u64,
    /// Master seed.
    pub seed: u64,
    /// Independent repetitions to average.
    pub runs: u64,
    /// Ignore the run cache.
    pub fresh: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            steps: STANDARD_STEPS,
            seed: 42,
            runs: 1,
            fresh: false,
        }
    }
}

impl HarnessOptions {
    /// Parses options from `std::env::args`, ignoring unknown flags (the
    /// binary may define its own).
    ///
    /// # Panics
    ///
    /// Panics with a usage message if a flag's value is missing or
    /// unparsable.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses options from an iterator of arguments.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = HarnessOptions::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--steps" => {
                    opts.steps = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--steps requires an integer");
                }
                "--seed" => {
                    opts.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed requires an integer");
                }
                "--runs" => {
                    opts.runs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .expect("--runs requires a positive integer");
                }
                "--quick" => opts.steps = 300,
                "--fresh" => opts.fresh = true,
                _ => {}
            }
        }
        opts
    }

    /// The base experiment config for a scheme under these options.
    pub fn config(&self, scheme: SchemeKind) -> ExperimentConfig {
        self.config_for_run(scheme, 0)
    }

    /// The config for repetition `run` (0-based): each repetition derives
    /// a distinct master seed.
    pub fn config_for_run(&self, scheme: SchemeKind, run: u64) -> ExperimentConfig {
        ExperimentConfig {
            total_steps: self.steps,
            seed: self.seed.wrapping_add(run.wrapping_mul(7919)),
            ..ExperimentConfig::for_scheme(scheme)
        }
    }
}

/// The designs plotted in Figures 4–6 (Table 1 minus the two extra 3LC
/// sparsity settings, matching the paper's legends).
pub fn figure_designs() -> Vec<SchemeKind> {
    vec![
        SchemeKind::Float32,
        SchemeKind::Int8,
        SchemeKind::StochasticTernary,
        SchemeKind::MqeOneBit,
        SchemeKind::Sparsify { fraction: 0.25 },
        SchemeKind::Sparsify { fraction: 0.05 },
        SchemeKind::LocalSteps { period: 2 },
        SchemeKind::three_lc(1.0),
        SchemeKind::three_lc(1.75),
    ]
}

/// The step fractions of Figures 4–6 and 8.
pub const STEP_FRACTIONS: [u64; 4] = [25, 50, 75, 100];

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = HarnessOptions::parse(s(&[]));
        assert_eq!(o.steps, STANDARD_STEPS);
        assert_eq!(o.seed, 42);
        assert!(!o.fresh);
    }

    #[test]
    fn parses_flags() {
        let o = HarnessOptions::parse(s(&["--steps", "500", "--seed", "7", "--fresh"]));
        assert_eq!(o.steps, 500);
        assert_eq!(o.seed, 7);
        assert!(o.fresh);
    }

    #[test]
    fn runs_flag() {
        let o = HarnessOptions::parse(s(&["--runs", "3"]));
        assert_eq!(o.runs, 3);
        assert_ne!(
            o.config_for_run(SchemeKind::Float32, 0).seed,
            o.config_for_run(SchemeKind::Float32, 1).seed
        );
    }

    #[test]
    fn quick_mode() {
        assert_eq!(HarnessOptions::parse(s(&["--quick"])).steps, 300);
    }

    #[test]
    fn unknown_flags_ignored() {
        let o = HarnessOptions::parse(s(&["--bandwidth", "10mbps"]));
        assert_eq!(o.steps, STANDARD_STEPS);
    }

    #[test]
    fn figure_designs_count_matches_paper_legend() {
        assert_eq!(figure_designs().len(), 9);
    }

    #[test]
    fn config_carries_options() {
        let o = HarnessOptions::parse(s(&["--steps", "100", "--seed", "5"]));
        let c = o.config(SchemeKind::Float32);
        assert_eq!(c.total_steps, 100);
        assert_eq!(c.seed, 5);
    }
}
