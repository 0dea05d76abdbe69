//! Regenerates **Figures 4, 5, and 6**: total training time vs. test
//! accuracy at 25/50/75/100% of standard training steps, for the nine
//! plotted designs, at 10 Mbps (Fig. 4), 100 Mbps (Fig. 5), and 1 Gbps
//! (Fig. 6).
//!
//! Accuracy comes from one simulated run per (design, fraction); a
//! point's time is its step count times the design's step measured
//! through the paced relay over the figure's link ([`step_cached`]).
//!
//! ```text
//! cargo run -p threelc-bench --release --bin figs4_6 [-- --steps N | --quick | --fresh]
//! ```

#![forbid(unsafe_code)]

use threelc_bench::harness::{figure_designs, STEP_FRACTIONS};
use threelc_bench::schema::{TradeoffFigure, TradeoffPoint, TradeoffSeries};
use threelc_bench::{cache, run_cached, step_cached, HarnessOptions, Table};
use threelc_distsim::NetworkModel;

fn main() {
    let opts = HarnessOptions::from_env();
    let presets = NetworkModel::paper_presets();
    let mut figures: Vec<TradeoffFigure> = presets
        .iter()
        .map(|(label, _)| TradeoffFigure {
            bandwidth: label.to_string(),
            series: Vec::new(),
        })
        .collect();
    for design in figure_designs() {
        let runs = STEP_FRACTIONS.map(|pct| {
            let config = opts.config(design).at_percent_steps(pct);
            eprintln!("running {} @ {pct}% steps ...", design.label());
            let result = run_cached(&config, opts.fresh);
            (pct, config.total_steps, result.final_eval.accuracy * 100.0)
        });
        eprintln!("relaying {} ...", design.label());
        for ((_, link), figure) in presets.iter().zip(&mut figures) {
            let step = step_cached(&opts.config(design), *link, opts.fresh);
            let points = runs
                .iter()
                .map(|&(percent_steps, steps, accuracy_pct)| TradeoffPoint {
                    percent_steps,
                    training_minutes: steps as f64 * step.step_s / 60.0,
                    accuracy_pct,
                });
            figure.series.push(TradeoffSeries {
                design: design.label(),
                points: points.collect(),
            });
        }
    }
    for (fig_no, figure) in (4..).zip(&figures) {
        println!(
            "\nFigure {fig_no}: training time vs accuracy @ {} ({} standard steps)",
            figure.bandwidth, opts.steps
        );
        let mut table = Table::new(&["Design", "% steps", "Time (min)", "Accuracy (%)"]);
        for series in &figure.series {
            for p in &series.points {
                table.row_owned(vec![
                    series.design.clone(),
                    format!("{}", p.percent_steps),
                    format!("{:.2}", p.training_minutes),
                    format!("{:.2}", p.accuracy_pct),
                ]);
            }
        }
        table.print();
    }
    let path = cache::write_output("figs4_6.json", &figures);
    println!("\nwrote {}", path.display());
}
