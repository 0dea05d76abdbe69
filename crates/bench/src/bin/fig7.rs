//! Regenerates **Figure 7**: runtime training loss (left) and test
//! accuracy (right) over training steps for the most representative
//! designs, using standard training steps.
//!
//! ```text
//! cargo run -p threelc-bench --release --bin fig7 [-- --steps N | --quick | --fresh]
//! ```

#![forbid(unsafe_code)]

use serde::Serialize;
use threelc_baselines::SchemeKind;
use threelc_bench::{cache, run_cached, HarnessOptions, Table};

#[derive(Debug, Serialize)]
struct Curve {
    design: String,
    /// (step, smoothed training loss) samples.
    loss: Vec<(u64, f32)>,
    /// (step, test accuracy %) samples.
    accuracy: Vec<(u64, f64)>,
}

/// The paper's Figure 7 legend: baseline plus the most representative
/// quantization, sparsification, and local-step designs, and default 3LC.
fn designs() -> Vec<SchemeKind> {
    vec![
        SchemeKind::Float32,
        SchemeKind::MqeOneBit,
        SchemeKind::Sparsify { fraction: 0.05 },
        SchemeKind::LocalSteps { period: 2 },
        SchemeKind::three_lc(1.0),
    ]
}

fn main() {
    let opts = HarnessOptions::from_env();
    let eval_every = (opts.steps / 24).max(1);
    println!(
        "Figure 7: training loss and test accuracy over {} standard steps\n",
        opts.steps
    );

    let mut curves = Vec::new();
    for design in designs() {
        let mut config = opts.config(design);
        config.eval_every = eval_every;
        eprintln!("running {} ...", design.label());
        let r = run_cached(&config, opts.fresh);
        // Smooth the per-step loss over eval_every-sized windows.
        let loss: Vec<(u64, f32)> = r
            .trace
            .steps
            .chunks(eval_every as usize)
            .map(|w| {
                let step = w.last().expect("nonempty chunk").step + 1;
                let mean = w.iter().map(|s| s.loss).sum::<f32>() / w.len() as f32;
                (step, mean)
            })
            .collect();
        let accuracy: Vec<(u64, f64)> = r
            .trace
            .evals
            .iter()
            .map(|e| (e.step, e.eval.accuracy * 100.0))
            .collect();
        curves.push(Curve {
            design: r.scheme_label.clone(),
            loss,
            accuracy,
        });
    }

    // Print a digest: loss/accuracy at quartiles of training.
    let mut table = Table::new(&[
        "Design",
        "Loss @25%",
        "@50%",
        "@100%",
        "Acc @25%",
        "@50%",
        "@100%",
    ]);
    for c in &curves {
        let at = |v: &Vec<(u64, f32)>, f: f64| -> f32 {
            let i = ((v.len() as f64 * f).ceil() as usize).clamp(1, v.len()) - 1;
            v[i].1
        };
        let at_acc = |v: &Vec<(u64, f64)>, f: f64| -> f64 {
            let i = ((v.len() as f64 * f).ceil() as usize).clamp(1, v.len()) - 1;
            v[i].1
        };
        table.row_owned(vec![
            c.design.clone(),
            format!("{:.3}", at(&c.loss, 0.25)),
            format!("{:.3}", at(&c.loss, 0.5)),
            format!("{:.3}", at(&c.loss, 1.0)),
            format!("{:.2}", at_acc(&c.accuracy, 0.25)),
            format!("{:.2}", at_acc(&c.accuracy, 0.5)),
            format!("{:.2}", at_acc(&c.accuracy, 1.0)),
        ]);
    }
    table.print();
    let path = cache::write_output("fig7.json", &curves);
    println!("\nwrote {}", path.display());
}
