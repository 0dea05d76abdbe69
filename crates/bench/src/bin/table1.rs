//! Regenerates **Table 1**: training-time speedup over the 32-bit float
//! baseline at 10 Mbps / 100 Mbps / 1 Gbps, plus test accuracy, for all
//! eleven compared designs using standard training steps.
//!
//! Accuracy comes from the simulated standard-step runs, averaged over
//! `--runs`. Each design's step is measured through the paced relay over
//! each of the paper's links ([`step_cached`], on the first repetition's
//! config), and the speedup is f32's measured step over the design's, on
//! our model as it is (scale 1). Beside them: the relayed window's bits
//! per value and the full run's, and f32's compute per pushed megabyte.
//!
//! ```text
//! cargo run -p threelc-bench --release --bin table1 [-- --steps N | --quick | --runs N | --fresh]
//! ```

#![forbid(unsafe_code)]

use serde::Serialize;
use threelc_baselines::SchemeKind;
use threelc_bench::link::WINDOW;
use threelc_bench::{cache, run_cached, step_cached, HarnessOptions, Table};
use threelc_distsim::{ExperimentConfig, NetworkModel};

#[derive(Debug, Serialize)]
struct Table1Row {
    design: String,
    /// Measured seconds per step and speedups at 10 Mbps / 100 Mbps / 1 Gbps.
    step_s: [f64; 3],
    speedup: [f64; 3],
    accuracy_pct: f64,
    accuracy_diff_pct: f64,
    window_bits_per_value: f64,
    bits_per_value: f64,
}

fn main() {
    let opts = HarnessOptions::from_env();
    let designs = SchemeKind::table1_designs();
    println!(
        "Table 1: measured speedup over baseline and test accuracy ({} standard steps, {} run(s) averaged)\n",
        opts.steps, opts.runs
    );

    // One result set per repetition (the paper averages 5 independent
    // runs, §5.2).
    let repetitions: Vec<Vec<_>> = (0..opts.runs)
        .map(|run| {
            designs
                .iter()
                .map(|d| {
                    eprintln!("running {} (run {run}) ...", d.label());
                    run_cached(&opts.config_for_run(*d, run), opts.fresh)
                })
                .collect()
        })
        .collect();
    let accuracy = |di: usize| {
        let acc = repetitions.iter().map(|rep| rep[di].final_eval.accuracy);
        acc.sum::<f64>() * 100.0 / opts.runs as f64
    };
    let presets = NetworkModel::paper_presets();
    let step =
        |d: &SchemeKind| presets.map(|(_, net)| step_cached(&opts.config(*d), net, opts.fresh));
    let steps: Vec<_> = designs.iter().map(step).collect();

    let mut table = Table::new(&[
        "Design",
        "step ms @ 10M / 100M / 1G",
        "speedup @ 10M / 100M / 1G",
        "Accuracy (%)",
        "Difference",
        "bits/value window / run",
    ]);
    let mut rows = Vec::new();
    for (di, design) in designs.iter().enumerate() {
        let step_s = steps[di].map(|s| s.step_s);
        let window = ExperimentConfig {
            total_steps: WINDOW,
            ..opts.config(*design)
        };
        let row = Table1Row {
            design: design.label(),
            step_s,
            speedup: [0, 1, 2].map(|li| steps[0][li].step_s / step_s[li]),
            accuracy_pct: accuracy(di),
            accuracy_diff_pct: accuracy(di) - accuracy(0),
            window_bits_per_value: run_cached(&window, opts.fresh).bits_per_value(),
            bits_per_value: repetitions[0][di].bits_per_value(),
        };
        let [s, x] = [row.step_s.map(|s| s * 1e3), row.speedup];
        let (wb, b) = (row.window_bits_per_value, row.bits_per_value);
        table.row_owned(vec![
            row.design.clone(),
            format!("{:.1} / {:.2} / {:.2}", s[0], s[1], s[2]),
            format!("{:.2} / {:.2} / {:.2}", x[0], x[1], x[2]),
            format!("{:.2}", row.accuracy_pct),
            format!("{:+.2}", row.accuracy_diff_pct),
            format!("{wb:.3} / {b:.3}"),
        ]);
        rows.push(row);
    }
    table.print();

    // The paper's ResNet-110 computes 0.41 s per 6.9 MB f32 push (§5.2).
    let push_mb = repetitions[0][0].model_params as f64 * 4.0 / 1e6;
    let compute_ms = steps[0][2].compute_s * 1e3;
    println!(
        "\nf32 compute per push: {compute_ms:.2} ms per {push_mb:.3} MB = {:.1} ms/MB (paper: 410 ms per 6.9 MB = 59 ms/MB)",
        compute_ms / push_mb
    );
    let path = cache::write_output("table1.json", &rows);
    println!("wrote {}", path.display());
}
