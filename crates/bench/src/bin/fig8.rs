//! Regenerates **Figure 8**: training time vs. test accuracy at 10 Mbps
//! with the sparsity multiplier varied over {1.00, 1.50, 1.75, 1.90} and
//! 25/50/75/100% of standard steps. A point's time is its step count
//! times the design's step measured through the paced relay at 10 Mbps.
//!
//! ```text
//! cargo run -p threelc-bench --release --bin fig8 [-- --steps N | --quick | --fresh]
//! ```

use threelc_baselines::SchemeKind;
use threelc_bench::harness::STEP_FRACTIONS;
use threelc_bench::schema::{TradeoffPoint, TradeoffSeries};
use threelc_bench::{cache, run_cached, step_cached, HarnessOptions, Table};
use threelc_distsim::NetworkModel;

fn main() {
    let opts = HarnessOptions::from_env();
    let [(label, link), ..] = NetworkModel::paper_presets();
    println!(
        "Figure 8: 3LC sparsity-multiplier sensitivity @ {label} ({} standard steps)\n",
        opts.steps
    );

    let mut table = Table::new(&["Design", "% steps", "Time (min)", "Accuracy (%)"]);
    let mut series = Vec::new();
    for s in [1.0f32, 1.5, 1.75, 1.9] {
        let design = SchemeKind::three_lc(s);
        eprintln!("relaying {} ...", design.label());
        let step = step_cached(&opts.config(design), link, opts.fresh);
        let mut points = Vec::new();
        for pct in STEP_FRACTIONS {
            let config = opts.config(design).at_percent_steps(pct);
            eprintln!("running {} @ {pct}% steps ...", design.label());
            let r = run_cached(&config, opts.fresh);
            let minutes = config.total_steps as f64 * step.step_s / 60.0;
            let acc = r.final_eval.accuracy * 100.0;
            table.row_owned(vec![
                design.label(),
                format!("{pct}"),
                format!("{minutes:.2}"),
                format!("{acc:.2}"),
            ]);
            points.push(TradeoffPoint {
                percent_steps: pct,
                training_minutes: minutes,
                accuracy_pct: acc,
            });
        }
        series.push(TradeoffSeries {
            design: design.label(),
            points,
        });
    }
    table.print();
    let path = cache::write_output("fig8.json", &series);
    println!("\nwrote {}", path.display());
}
