//! Regenerates **Figure 9**: compressed size per state-change value (bits)
//! at each training step, separately for gradient pushes and model-delta
//! pulls, for 3LC with s = 1.00 (left) and s = 1.75 (right), plus the
//! fixed 1.6-bit no-ZRE reference line.
//!
//! ```text
//! cargo run -p threelc-bench --release --bin fig9 [-- --steps N | --quick | --fresh]
//! ```

use serde::Serialize;
use threelc_baselines::SchemeKind;
use threelc_bench::{cache, run_cached, HarnessOptions, Table};

#[derive(Debug, Serialize)]
struct Panel {
    sparsity: f32,
    without_zre_bits: f64,
    /// (step, push bits/value, pull bits/value), each a mean over one
    /// chunk of steps.
    samples: Vec<(u64, f64, f64)>,
}

fn main() {
    let opts = HarnessOptions::from_env();
    println!(
        "Figure 9: compressed bits per state change over {} standard steps\n",
        opts.steps
    );

    let mut panels = Vec::new();
    let mut table = Table::new(&["s", "phase", "push b/v", "pull b/v"]);
    for s in [1.0f32, 1.75] {
        let design = SchemeKind::three_lc(s);
        eprintln!("running {} ...", design.label());
        let r = run_cached(&opts.config(design), opts.fresh);
        let workers = r.config.workers as u64;
        let stride = (r.trace.steps.len() / 64).max(1);
        let samples: Vec<(u64, f64, f64)> = r
            .trace
            .steps
            .chunks(stride)
            .map(|w| {
                let step = w.last().expect("nonempty").step;
                let push = w
                    .iter()
                    .map(|x| x.push_bits_per_value(workers))
                    .sum::<f64>()
                    / w.len() as f64;
                let pull = w
                    .iter()
                    .map(|x| x.pull_bits_per_value(workers))
                    .sum::<f64>()
                    / w.len() as f64;
                (step, push, pull)
            })
            .collect();
        // Digest rows: early / middle / late thirds of training.
        for (name, lo, hi) in [
            ("early", 0.0, 1.0 / 3.0),
            ("middle", 1.0 / 3.0, 2.0 / 3.0),
            ("late", 2.0 / 3.0, 1.0),
        ] {
            let a = (samples.len() as f64 * lo) as usize;
            let b = ((samples.len() as f64 * hi) as usize)
                .max(a + 1)
                .min(samples.len());
            let part = &samples[a..b];
            let push = part.iter().map(|x| x.1).sum::<f64>() / part.len() as f64;
            let pull = part.iter().map(|x| x.2).sum::<f64>() / part.len() as f64;
            table.row_owned(vec![
                format!("{s:.2}"),
                name.to_owned(),
                format!("{push:.3}"),
                format!("{pull:.3}"),
            ]);
        }
        panels.push(Panel {
            sparsity: s,
            without_zre_bits: 1.6,
            samples,
        });
    }
    table.print();
    let path = cache::write_output("fig9.json", &panels);
    println!("\nwrote {}", path.display());
}
