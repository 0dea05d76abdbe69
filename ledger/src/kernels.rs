//! Inner public kernels timed on what the replay's last step captured:
//! worker 0's gradients, every worker's push payloads, and the server's
//! model delta. Each number is the median of five calls after one
//! warm-up, summed over the model's tensors, in µs per step (per worker
//! where the runtime calls it per worker).

use crate::replay::Replay;
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;
use threelc::{kernels, quartic, zrle, Compressor, TernaryTensor};
use threelc_baselines::{build_compressor, SchemeKind};
use threelc_distsim::engine::{base_sparsity, TensorPayload};
use threelc_learning::SgdMomentum;
use threelc_net::crc32::crc32;
use threelc_net::protocol::{bytes_to_tensor, tensor_to_bytes};
use threelc_tensor::{Initializer, Tensor};

const GIB: f64 = (1u64 << 30) as f64;

/// Median µs of `f` over five calls, after one warm-up call.
fn time_us<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn gib_per_s(bytes: usize, us: f64) -> f64 {
    bytes as f64 / GIB / (us / 1e6)
}

/// What the server holds after decoding one worker's payload.
enum Decoded {
    Symbols(Vec<i8>, f32),
    Dense(Tensor),
}

pub fn measure(replay: &Replay) -> Vec<(&'static str, f64)> {
    let problem = &replay.problem;
    let config = problem.config;
    let workers = config.workers;
    let grads = &replay.captured.grads;
    // Indices of the tensors that go through a compression context.
    let big: Vec<usize> = (0..problem.num_tensors())
        .filter(|&i| problem.compressible[i])
        .collect();
    let f32_bytes: usize = big.iter().map(|&i| grads[i].len() * 4).sum();
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // ---- tensor: the three GEMMs of every dense layer (forward, input
    // gradient, weight gradient) on dense normal operands. The model's own
    // ReLU zeros let `matmul` skip rows, so in situ it is cheaper; the in
    // situ number is `learning.compute_us`.
    let mut rng = threelc_tensor::rng(config.seed);
    let normal = Initializer::Normal {
        mean: 0.0,
        std_dev: 1.0,
    };
    let b = config.batch_per_worker;
    let mut flops = 0usize;
    let gemms: Vec<(Tensor, Tensor)> = problem
        .shapes
        .iter()
        .filter(|s| s.rank() == 2 && s.dim(0) > 1)
        .flat_map(|s| {
            let (k, n) = (s.dim(0), s.dim(1));
            flops += 3 * 2 * b * k * n;
            [([b, k], [k, n]), ([b, n], [n, k]), ([k, b], [b, n])]
        })
        .map(|(l, r)| (normal.init(&mut rng, l), normal.init(&mut rng, r)))
        .collect();
    let matmul_us = time_us(|| {
        for (l, r) in &gemms {
            black_box(l.matmul(r).expect("inner dimensions agree"));
        }
    });
    out.push(("tensor.matmul_us", matmul_us));
    out.push((
        "tensor.matmul_gflops",
        flops as f64 / 1e9 / (matmul_us / 1e6),
    ));

    // ---- learning
    let mut batch_rng = threelc_tensor::rng(config.seed);
    out.push((
        "learning.sample_batch_us",
        time_us(|| problem.data.sample_train_batch(&mut batch_rng, b)),
    ));
    let mut net = replay.global.clone();
    let mut optimizer = SgdMomentum::new(config.momentum, config.weight_decay);
    out.push((
        "learning.optimizer_us",
        time_us(|| optimizer.apply(&mut net, grads, config.lr_min)),
    ));

    // ---- core, on 3LC payloads: the run's own when it is a 3LC run (so
    // the symbols carry the error-accumulation history), else a first
    // encode of the gradients at the default multiplier.
    let sparsity = base_sparsity(&config);
    let three_lc = SchemeKind::three_lc(sparsity.value());
    let is_3lc = matches!(config.scheme, SchemeKind::ThreeLc { .. });
    let mut ctxs: Vec<Box<dyn Compressor>> = big
        .iter()
        .map(|&i| build_compressor(&three_lc, problem.shapes[i].clone(), 0))
        .collect();
    let payloads: Vec<Vec<u8>> = big
        .iter()
        .zip(&mut ctxs)
        .map(|(&i, ctx)| match &replay.captured.pushes[0][i] {
            TensorPayload::Compressed(wire) if is_3lc => wire.clone(),
            _ => ctx
                .compress(&grads[i])
                .expect("gradient matches its context"),
        })
        .collect();
    let symbols: Vec<Vec<i8>> = payloads
        .iter()
        .zip(&ctxs)
        .map(|(wire, ctx)| {
            let mut syms = Vec::new();
            ctx.decompress_symbols(wire, &mut syms)
                .expect("payload decodes")
                .expect("3LC has a symbol form");
            syms
        })
        .collect();
    let quartics: Vec<Vec<u8>> = symbols.iter().map(|s| quartic::encode(s)).collect();
    let zres: Vec<Vec<u8>> = quartics
        .iter()
        .map(|q| zrle::encode(q).expect("quartic bytes are in range"))
        .collect();
    out.push((
        "core.quantize_us",
        time_us(|| {
            for &i in &big {
                black_box(TernaryTensor::quantize(&grads[i], sparsity).expect("finite gradient"));
            }
        }),
    ));
    out.push((
        "core.quartic_encode_us",
        time_us(|| {
            symbols
                .iter()
                .map(|s| quartic::encode(s).len())
                .sum::<usize>()
        }),
    ));
    out.push((
        "core.zre_encode_us",
        time_us(|| {
            quartics
                .iter()
                .map(|q| zrle::encode(q).expect("in range").len())
                .sum::<usize>()
        }),
    ));
    out.push((
        "core.zre_decode_us",
        time_us(|| {
            for (z, q) in zres.iter().zip(&quartics) {
                black_box(zrle::decode_exact(z, q.len()).expect("round trip"));
            }
        }),
    ));
    let mut syms = Vec::new();
    out.push((
        "core.quartic_decode_us",
        time_us(|| {
            for (q, s) in quartics.iter().zip(&symbols) {
                quartic::decode_into_impl(kernels::active(), q, s.len(), &mut syms)
                    .expect("round trip");
            }
        }),
    ));
    let encode_us = time_us(|| {
        for (&i, ctx) in big.iter().zip(&mut ctxs) {
            black_box(
                ctx.compress(&grads[i])
                    .expect("gradient matches its context"),
            );
        }
    });
    out.push(("core.encode_gibps", gib_per_s(f32_bytes, encode_us)));
    let decode_us = time_us(|| {
        for (wire, ctx) in payloads.iter().zip(&ctxs) {
            black_box(ctx.decompress(wire).expect("payload decodes"));
        }
    });
    out.push(("core.decode_gibps", gib_per_s(f32_bytes, decode_us)));

    // ---- distsim: the parts of `apply_step`, replayed on the captured
    // pushes with the run's own scheme.
    let decode_ctxs: Vec<_> = (0..workers).map(|w| problem.push_ctxs(w)).collect();
    let push_of = |w: usize, i: usize| -> (&dyn Compressor, &[u8]) {
        let TensorPayload::Compressed(wire) = &replay.captured.pushes[w][i] else {
            unreachable!("tensors above the threshold are pushed compressed");
        };
        let ctx = decode_ctxs[w][i]
            .as_deref()
            .expect("context above the threshold");
        (ctx, wire)
    };
    out.push((
        "distsim.symbol_decode_us",
        time_us(|| {
            // One symbol buffer reused across payloads, as the server does;
            // schemes without a symbol form decode densely instead.
            let mut syms = Vec::new();
            for &i in &big {
                for w in 0..workers {
                    let (ctx, wire) = push_of(w, i);
                    if ctx
                        .decompress_symbols(wire, &mut syms)
                        .expect("payload decodes")
                        .is_none()
                    {
                        black_box(ctx.decompress(wire).expect("payload decodes"));
                    }
                }
            }
        }),
    ));
    let decoded: Vec<Vec<Decoded>> = big
        .iter()
        .map(|&i| {
            (0..workers)
                .map(|w| {
                    let (ctx, wire) = push_of(w, i);
                    let mut syms = Vec::new();
                    match ctx
                        .decompress_symbols(wire, &mut syms)
                        .expect("payload decodes")
                    {
                        Some(scale) => Decoded::Symbols(syms, scale),
                        None => Decoded::Dense(ctx.decompress(wire).expect("payload decodes")),
                    }
                })
                .collect()
        })
        .collect();
    let mut accs: Vec<Vec<f32>> = big.iter().map(|&i| vec![0f32; grads[i].len()]).collect();
    let imp = kernels::active();
    out.push((
        "distsim.accumulate_us",
        time_us(|| {
            for (acc, row) in accs.iter_mut().zip(&decoded) {
                for (w, d) in row.iter().enumerate() {
                    match (d, w) {
                        (Decoded::Symbols(s, scale), 0) => {
                            kernels::dequant_assign(imp, s, *scale, acc)
                        }
                        (Decoded::Symbols(s, scale), _) => {
                            kernels::dequant_add(imp, s, *scale, acc)
                        }
                        (Decoded::Dense(t), 0) => acc.copy_from_slice(t.as_slice()),
                        (Decoded::Dense(t), _) => {
                            for (a, &x) in acc.iter_mut().zip(t.as_slice()) {
                                *a += x;
                            }
                        }
                    }
                }
                let share = 1.0 / workers as f32;
                for a in acc.iter_mut() {
                    *a *= share;
                }
            }
        }),
    ));
    let mut pull_ctxs = problem.pull_ctxs();
    out.push((
        "distsim.reencode_us",
        time_us(|| {
            for &i in &big {
                let ctx = pull_ctxs[i].as_mut().expect("context above the threshold");
                let wire = ctx
                    .compress(&replay.captured.deltas[i])
                    .expect("delta matches its context");
                black_box(ctx.decompress(&wire).expect("own payload decodes"));
            }
        }),
    ));

    // ---- baselines: the Float32 "codec" is two copies. Per step the
    // runtime compresses W pushes and one pull, and decompresses W pushes
    // on the server, the pull once on the server and once per worker.
    let mut f32_ctxs: Vec<Box<dyn Compressor>> = big
        .iter()
        .map(|&i| build_compressor(&SchemeKind::Float32, problem.shapes[i].clone(), 0))
        .collect();
    let f32_wires: Vec<Vec<u8>> = big
        .iter()
        .zip(&mut f32_ctxs)
        .map(|(&i, ctx)| {
            ctx.compress(&grads[i])
                .expect("gradient matches its context")
        })
        .collect();
    let copy_in = time_us(|| {
        for (&i, ctx) in big.iter().zip(&mut f32_ctxs) {
            black_box(
                ctx.compress(&grads[i])
                    .expect("gradient matches its context"),
            );
        }
    });
    let copy_out = time_us(|| {
        for (wire, ctx) in f32_wires.iter().zip(&f32_ctxs) {
            black_box(ctx.decompress(wire).expect("payload decodes"));
        }
    });
    out.push((
        "baselines.f32_codec_us",
        (workers + 1) as f64 * copy_in + (2 * workers + 1) as f64 * copy_out,
    ));

    // ---- net: the two per-byte costs of the frame path, on the largest
    // tensor (1 MB at width 512, 4 MB at width 1024).
    let largest = big
        .iter()
        .map(|&i| &grads[i])
        .max_by_key(|t| t.len())
        .expect("the model has a tensor above the threshold");
    let bytes = tensor_to_bytes(largest);
    out.push((
        "net.crc32_gibps",
        gib_per_s(bytes.len(), time_us(|| crc32(&bytes))),
    ));
    let round_trip_us = time_us(|| {
        let raw = tensor_to_bytes(largest);
        bytes_to_tensor(&raw, largest.shape()).expect("byte count matches the shape")
    });
    out.push((
        "net.tensor_bytes_gibps",
        gib_per_s(2 * bytes.len(), round_trip_us),
    ));
    out
}
