//! Criterion microbenchmarks for the tensor substrate: the operations on
//! the simulator's critical path (matmul for forward/backward, the
//! quantization reductions, elementwise updates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use threelc_tensor::{Initializer, Tensor};

fn gaussian(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = threelc_tensor::rng(seed);
    Initializer::Normal {
        mean: 0.0,
        std_dev: 1.0,
    }
    .init(&mut rng, shape)
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 64, 128] {
        let a = gaussian(&[n, n], 1);
        let b = gaussian(&[n, n], 2);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b).expect("square matmul"));
        });
    }
    group.finish();
}

/// The three GEMMs of one `W × W` dense layer at the step ledger's shapes
/// (`mlp1024-*`: batch 8, width 1024; `mlp512-*`: batch 32, width 512),
/// plus the `m = 1024` test-set forward that is most of `setup_s`. These
/// rows are the only per-layout numbers: the ledger's `tensor.matmul_us`
/// runs `Tensor::matmul` (`A · B`) at all three of a layer's shapes and
/// never calls `matmul_nt` or `matmul_tn_into`. Dense normal operands: in
/// the model half of `X` is ReLU zeros, whose terms `matmul` and
/// `matmul_tn` skip.
fn bench_gemm_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &(batch, width) in &[(8usize, 1024usize), (32, 512), (1024, 1024), (1024, 512)] {
        let x = gaussian(&[batch, width], 1);
        let w = gaussian(&[width, width], 2);
        let dy = gaussian(&[batch, width], 3);
        let shape = format!("b{batch}_w{width}");
        group.throughput(Throughput::Elements((2 * batch * width * width) as u64));
        group.bench_function(BenchmarkId::new("forward_a_b", &shape), |bench| {
            bench.iter(|| x.matmul(&w).expect("Y = X · W"));
        });
        if batch > 32 {
            // Evaluation only runs the forward pass.
            continue;
        }
        group.bench_function(BenchmarkId::new("grad_input_a_bt", &shape), |bench| {
            bench.iter(|| dy.matmul_nt(&w).expect("dX = dY · Wᵀ"));
        });
        group.bench_function(BenchmarkId::new("grad_weight_at_b", &shape), |bench| {
            bench.iter(|| x.matmul_tn(&dy).expect("dW = Xᵀ · dY"));
        });
    }
    group.finish();
}

fn bench_reductions(c: &mut Criterion) {
    const N: usize = 1 << 16;
    let t = gaussian(&[N], 3);
    let mut group = c.benchmark_group("reductions");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("max_abs", |b| b.iter(|| t.max_abs()));
    group.bench_function("sum", |b| b.iter(|| t.sum()));
    group.bench_function("l2_norm", |b| b.iter(|| t.l2_norm()));
    group.bench_function("variance", |b| b.iter(|| t.variance()));
    group.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    const N: usize = 1 << 16;
    let t = gaussian(&[N], 4);
    let u = gaussian(&[N], 5);
    let mut group = c.benchmark_group("elementwise");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("add_assign", |b| {
        let mut acc = t.clone();
        b.iter(|| acc.add_assign(&u).expect("same shape"));
    });
    group.bench_function("axpy", |b| {
        let mut acc = t.clone();
        b.iter(|| acc.axpy(0.9, &u).expect("same shape"));
    });
    group.bench_function("scale", |b| b.iter(|| t.scale(0.5)));
    group.finish();
}

criterion_group! {
    name = benches;
    // Short measurement windows keep the full suite under two minutes on a
    // single core; throughput numbers are stable well before that.
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_matmul, bench_gemm_layouts, bench_reductions, bench_elementwise
}
criterion_main!(benches);
