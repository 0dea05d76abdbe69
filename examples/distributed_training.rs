//! Distributed training on the simulated parameter-server cluster:
//! 10 workers train the experiment model with and without 3LC and report
//! accuracy and traffic. Training time over the paper's links is measured
//! through a paced relay by `cargo run -p threelc-bench --release --bin
//! table1`.
//!
//! ```text
//! cargo run --release --example distributed_training [steps]
//! ```

use threelc_baselines::SchemeKind;
use threelc_distsim::{run_experiment, ExperimentConfig};

fn main() {
    let steps: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);

    for scheme in [
        SchemeKind::Float32,
        SchemeKind::Int8,
        SchemeKind::three_lc(1.0),
        SchemeKind::three_lc(1.75),
    ] {
        let config = ExperimentConfig {
            total_steps: steps,
            ..ExperimentConfig::for_scheme(scheme)
        };
        let result = run_experiment(&config);
        println!(
            "{:<22} accuracy {:5.2}%  traffic {:6.1} MB  ratio {:6.1}x",
            result.scheme_label,
            result.final_eval.accuracy * 100.0,
            result.trace.total_bytes() as f64 / 1e6,
            result.compression_ratio(),
        );
    }
}
