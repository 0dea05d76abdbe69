//! Regenerates **Table 2**: 3LC's average traffic compression (end-to-end
//! compression ratio and bits per state change) across sparsity
//! multipliers, including the no-zero-run-encoding ablation. Beside the
//! paper's columns, which count the compressed tensors only, it prints the
//! same two over every payload byte, the raw tensors at 32 bits a value.
//!
//! ```text
//! cargo run -p threelc-bench --release --bin table2 [-- --steps N | --quick | --fresh]
//! ```

#![forbid(unsafe_code)]

use serde::Serialize;
use threelc_baselines::SchemeKind;
use threelc_bench::{cache, run_cached, HarnessOptions, Table};

/// The paper's two columns, and the same two over every payload byte.
#[derive(Debug, Serialize)]
struct Table2Row {
    s: String,
    compression_ratio: f64,
    bits_per_state_change: f64,
    payload_compression_ratio: f64,
    payload_bits_per_value: f64,
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

    let mut table = Table::new(&[
        "s",
        "Compression ratio (x)",
        "bits per state change",
        "all payload (x)",
        "all payload b/v",
    ]);
    let mut rows = Vec::new();
    for (label, scheme) in variants {
        eprintln!("running {} ...", scheme.label());
        let r = run_cached(&opts.config(scheme), opts.fresh);
        let payload_bits = r.trace.payload_bits_per_value(r.config.workers as u64);
        let row = Table2Row {
            s: label,
            compression_ratio: r.compression_ratio(),
            bits_per_state_change: r.bits_per_value(),
            payload_compression_ratio: 32.0 / payload_bits,
            payload_bits_per_value: payload_bits,
        };
        table.row_owned(vec![
            row.s.clone(),
            format!("{:.1}", row.compression_ratio),
            format!("{:.3}", row.bits_per_state_change),
            format!("{:.1}", row.payload_compression_ratio),
            format!("{:.3}", row.payload_bits_per_value),
        ]);
        rows.push(row);
    }
    table.print();
    let path = cache::write_output("table2.json", &rows);
    println!("\nwrote {}", path.display());
}
