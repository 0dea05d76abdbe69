//! Regenerates **Table 2**: 3LC's average traffic compression (end-to-end
//! compression ratio and bits per state change) across sparsity
//! multipliers, including the no-zero-run-encoding ablation.
//!
//! ```text
//! cargo run -p threelc-bench --release --bin table2 [-- --steps N | --quick | --fresh]
//! ```

#![forbid(unsafe_code)]

use serde::Serialize;
use threelc_baselines::SchemeKind;
use threelc_bench::{cache, run_cached, HarnessOptions, Table};

#[derive(Debug, Serialize)]
struct Table2Row {
    s: String,
    compression_ratio: f64,
    bits_per_state_change: f64,
}

fn main() {
    let opts = HarnessOptions::from_env();
    println!(
        "Table 2: average traffic compression of 3LC ({} standard steps)\n",
        opts.steps
    );

    // The "No ZRE" row: quartic encoding alone is fixed-length, so its
    // ratio is exactly 32/1.6 = 20x regardless of s; we still run it to
    // measure rather than assume.
    let mut variants: Vec<(String, SchemeKind)> = vec![(
        "No ZRE".to_owned(),
        SchemeKind::ThreeLc {
            sparsity: 1.0,
            zero_run_encoding: false,
            error_accumulation: true,
        },
    )];
    for s in [1.0f32, 1.5, 1.75, 1.9] {
        variants.push((format!("{s:.2}"), SchemeKind::three_lc(s)));
    }

    let mut table = Table::new(&["s", "Compression ratio (x)", "bits per state change"]);
    let mut rows = Vec::new();
    for (label, scheme) in variants {
        eprintln!("running {} ...", scheme.label());
        let r = run_cached(&opts.config(scheme), opts.fresh);
        table.row_owned(vec![
            label.clone(),
            format!("{:.1}", r.compression_ratio()),
            format!("{:.3}", r.bits_per_value()),
        ]);
        rows.push(Table2Row {
            s: label,
            compression_ratio: r.compression_ratio(),
            bits_per_state_change: r.bits_per_value(),
        });
    }
    table.print();
    let path = cache::write_output("table2.json", &rows);
    println!("\nwrote {}", path.display());
}
