//! Renders SVG versions of the regenerated figures from the JSON outputs
//! under `results/` (run the `figs4_6`, `fig7`, `fig8`, and `fig9`
//! binaries first).
//!
//! ```text
//! cargo run -p threelc-bench --release --bin plots
//! ```

#![forbid(unsafe_code)]

use threelc_bench::cache::workspace_root;
use threelc_bench::plot::{LinePlot, PlotSeries};
use threelc_bench::schema::{BitsPanel, TradeoffFigure, TradeoffSeries, TrainingCurve};

fn load<T: serde::de::DeserializeOwned>(name: &str) -> Option<T> {
    let path = workspace_root().join("results").join(name);
    let text = std::fs::read_to_string(&path).ok()?;
    match serde_json::from_str(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("skipping {name}: {e}");
            None
        }
    }
}

fn save(name: &str, svg: &str) {
    let dir = workspace_root().join("results").join("plots");
    std::fs::create_dir_all(&dir).expect("plots directory is writable");
    let path = dir.join(name);
    std::fs::write(&path, svg).expect("svg writes");
    println!("wrote {}", path.display());
}

fn tradeoff_plot(title: &str, series: &[TradeoffSeries]) -> LinePlot {
    let mut plot = LinePlot::new(title, "Total training time (minutes)", "Test accuracy (%)");
    for s in series {
        plot.push_series(PlotSeries {
            name: s.design.clone(),
            points: s
                .points
                .iter()
                .map(|p| (p.training_minutes, p.accuracy_pct))
                .collect(),
        });
    }
    plot
}

fn main() {
    let mut rendered = 0;

    if let Some(figures) = load::<Vec<TradeoffFigure>>("figs4_6.json") {
        for (i, fig) in figures.iter().enumerate() {
            let title = format!("Figure {}: time vs accuracy @ {}", 4 + i, fig.bandwidth);
            save(
                &format!("fig{}.svg", 4 + i),
                &tradeoff_plot(&title, &fig.series).render_svg(),
            );
            rendered += 1;
        }
    }

    if let Some(curves) = load::<Vec<TrainingCurve>>("fig7.json") {
        let mut loss = LinePlot::new(
            "Figure 7 (left): training loss",
            "Training steps",
            "Training loss",
        );
        let mut acc = LinePlot::new(
            "Figure 7 (right): test accuracy",
            "Training steps",
            "Test accuracy (%)",
        );
        for c in &curves {
            loss.push_series(PlotSeries {
                name: c.design.clone(),
                points: c.loss.iter().map(|&(s, l)| (s as f64, l as f64)).collect(),
            });
            acc.push_series(PlotSeries {
                name: c.design.clone(),
                points: c.accuracy.iter().map(|&(s, a)| (s as f64, a)).collect(),
            });
        }
        save("fig7_loss.svg", &loss.render_svg());
        save("fig7_accuracy.svg", &acc.render_svg());
        rendered += 2;
    }

    if let Some(series) = load::<Vec<TradeoffSeries>>("fig8.json") {
        save(
            "fig8.svg",
            &tradeoff_plot("Figure 8: sparsity multiplier @ 10 Mbps", &series).render_svg(),
        );
        rendered += 1;
    }

    if let Some(panels) = load::<Vec<BitsPanel>>("fig9.json") {
        for p in &panels {
            let mut plot = LinePlot::new(
                &format!("Figure 9: compressed size per value (s={:.2})", p.sparsity),
                "Training steps",
                "Bits per state change",
            );
            plot.push_series(PlotSeries {
                name: "Without ZRE".into(),
                points: p
                    .samples
                    .iter()
                    .map(|&(s, _, _)| (s as f64, p.without_zre_bits))
                    .collect(),
            });
            plot.push_series(PlotSeries {
                name: "With ZRE (push)".into(),
                points: p
                    .samples
                    .iter()
                    .map(|&(s, push, _)| (s as f64, push))
                    .collect(),
            });
            plot.push_series(PlotSeries {
                name: "With ZRE (pull)".into(),
                points: p
                    .samples
                    .iter()
                    .map(|&(s, _, pull)| (s as f64, pull))
                    .collect(),
            });
            save(
                &format!("fig9_s{}.svg", (p.sparsity * 100.0) as u32),
                &plot.render_svg(),
            );
            rendered += 1;
        }
    }

    if rendered == 0 {
        eprintln!(
            "no figure data found under results/ — run the figs4_6 / fig7 / fig8 / fig9 \
             binaries first"
        );
        std::process::exit(1);
    }
    println!("{rendered} figure(s) rendered under results/plots/");
}
