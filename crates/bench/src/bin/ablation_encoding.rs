//! Ablation: zero-run encoding vs. Huffman entropy coding vs. plain
//! quartic, on gradient-like quantized traffic (paper §3.3 / §6).
//!
//! The paper's claim: ZRE reaches compression comparable to entropy
//! coding while using only byte-level operations — no bit twiddling, no
//! code tables — and therefore much less CPU. This binary measures both
//! the compressed size and the wall-clock encode+decode time of each
//! lossless stage on 3-value-quantized Gaussian gradients across sparsity
//! multipliers.
//!
//! ```text
//! cargo run -p threelc-bench --release --bin ablation_encoding
//! ```

#![forbid(unsafe_code)]

use serde::Serialize;
use std::time::Instant;
use threelc::{huffman, quartic, zrle, SparsityMultiplier, TernaryTensor};
use threelc_bench::{cache, Table};
use threelc_tensor::Initializer;

const N: usize = 1 << 20;
const REPS: u32 = 5;

#[derive(Debug, Serialize)]
struct Row {
    sparsity: f32,
    stage: String,
    bits_per_value: f64,
    encode_ns_per_value: f64,
    decode_ns_per_value: f64,
}

fn timed<T>(reps: u32, mut f: impl FnMut() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let mut out = f();
    for _ in 1..reps {
        out = f();
    }
    (out, t0.elapsed().as_secs_f64() / reps as f64)
}

fn main() {
    let mut rng = threelc_tensor::rng(11);
    let input = Initializer::Normal {
        mean: 0.0,
        std_dev: 0.02,
    }
    .init(&mut rng, [N]);

    let mut table = Table::new(&["s", "stage", "bits/value", "enc ns/val", "dec ns/val"]);
    let mut rows = Vec::new();
    for s in [1.0f32, 1.5, 1.75, 1.9] {
        let q = TernaryTensor::quantize(&input, SparsityMultiplier::new(s).expect("valid"))
            .expect("finite");
        let quartic_bytes = quartic::encode(q.values());

        // Plain quartic (fixed 1.6 bits/value).
        let (_, enc_t) = timed(REPS, || quartic::encode(q.values()));
        let (_, dec_t) = timed(REPS, || quartic::decode(&quartic_bytes, N).expect("valid"));
        push(
            &mut table,
            &mut rows,
            s,
            "quartic only",
            quartic_bytes.len(),
            enc_t,
            dec_t,
        );

        // Quartic + zero-run encoding.
        let zre = zrle::encode(&quartic_bytes).expect("valid");
        let (_, enc_t) = timed(REPS, || zrle::encode(&quartic_bytes).expect("valid"));
        let (_, dec_t) = timed(REPS, || zrle::decode(&zre));
        push(
            &mut table,
            &mut rows,
            s,
            "quartic + ZRE",
            zre.len(),
            enc_t,
            dec_t,
        );

        // Quartic + Huffman entropy coding.
        let huff = huffman::encode(&quartic_bytes);
        let (_, enc_t) = timed(REPS, || huffman::encode(&quartic_bytes));
        let (_, dec_t) = timed(REPS, || huffman::decode(&huff).expect("valid"));
        push(
            &mut table,
            &mut rows,
            s,
            "quartic + Huffman",
            huff.len(),
            enc_t,
            dec_t,
        );
    }
    table.print();
    println!(
        "\nZRE should sit near Huffman's ratio at a fraction of its cost\n\
         (the paper's rationale for avoiding entropy coding, §3.3)."
    );
    let path = cache::write_output("ablation_encoding.json", &rows);
    println!("wrote {}", path.display());
}

fn push(
    table: &mut Table,
    rows: &mut Vec<Row>,
    s: f32,
    stage: &str,
    bytes: usize,
    enc_t: f64,
    dec_t: f64,
) {
    let bits = bytes as f64 * 8.0 / N as f64;
    let enc_ns = enc_t * 1e9 / N as f64;
    let dec_ns = dec_t * 1e9 / N as f64;
    table.row_owned(vec![
        format!("{s:.2}"),
        stage.to_owned(),
        format!("{bits:.3}"),
        format!("{enc_ns:.2}"),
        format!("{dec_ns:.2}"),
    ]);
    rows.push(Row {
        sparsity: s,
        stage: stage.to_owned(),
        bits_per_value: bits,
        encode_ns_per_value: enc_ns,
        decode_ns_per_value: dec_ns,
    });
}
