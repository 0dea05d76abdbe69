//! Criterion microbenchmarks for the tensor substrate: the operations on
//! the simulator's critical path (matmul for forward/backward, the
//! quantization reductions, elementwise updates) and the normal draws of a
//! run's set-up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use threelc_learning::{models, DataSpec};
use threelc_tensor::init::fill_standard_normal;
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
///
/// `grad_weight_add_into` is the weight gradient a 3LC worker runs:
/// `matmul_tn_add_into` into an error-accumulation buffer that holds a
/// residual, at both widths and at the 192-wide input layer of the
/// `mlp1024-*` model (`stem192`). `grad_weight_at_b` times the plain
/// `matmul_tn`, which no 3LC worker runs.
fn bench_gemm_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    // The `mlp1024-*` model's 192-wide input layer.
    let (batch, fan_in, width) = (8, 192, 1024);
    let x = gaussian(&[batch, fan_in], 1);
    let dy = gaussian(&[batch, width], 3);
    group.throughput(Throughput::Elements((2 * batch * fan_in * width) as u64));
    let shape = format!("b{batch}_stem{fan_in}_w{width}");
    grad_weight_add_into(&mut group, &shape, &x, &dy);
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
        grad_weight_add_into(&mut group, &shape, &x, &dy);
    }
    group.finish();
}

/// `acc += Xᵀ · dY` into a buffer holding a small residual, as a 3LC
/// worker's error-accumulation buffer does. The residual stays bounded:
/// each iteration adds the product and takes it away again.
fn grad_weight_add_into(
    group: &mut criterion::BenchmarkGroup<'_>,
    shape: &str,
    x: &Tensor,
    dy: &Tensor,
) {
    let (fan_in, width) = (x.shape().dim(1), dy.shape().dim(1));
    let mut acc = gaussian(&[fan_in, width], 4).scale(1e-3);
    let minus_dy = dy.scale(-1.0);
    group.bench_function(BenchmarkId::new("grad_weight_add_into", shape), |bench| {
        let mut sign = false;
        bench.iter(|| {
            sign = !sign;
            let dy = if sign { dy } else { &minus_dy };
            x.matmul_tn_add_into(dy, &mut acc).expect("acc += Xᵀ · dY")
        });
    });
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

/// `add_max_abs`, the fold that lands every gradient formed outside the
/// GEMM nest in its accumulator: one server sweep strip (10 240 values), a
/// `[192, 1024]` weight (196 608) and a 1 M-value tensor.
fn bench_add_max_abs(c: &mut Criterion) {
    let mut group = c.benchmark_group("add_max_abs");
    for &n in &[10_240usize, 196_608, 1 << 20] {
        let xs = gaussian(&[n], 6);
        let minus = xs.scale(-1.0);
        let mut acc = gaussian(&[n], 7);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            let mut sign = false;
            bench.iter(|| {
                sign = !sign;
                let xs = if sign { &xs } else { &minus };
                threelc_tensor::add_max_abs(acc.as_mut_slice(), xs.as_slice())
            });
        });
    }
    group.finish();
}

/// The normal draws every node of a run makes before its first step:
/// `fill_standard_normal` at the standard dataset's 983 040 noise draws
/// and at the width-1024 model's 4 390 912 He-normal draws, each as one
/// fill, and the width-1024 model's whole build (`residual_mlp`, those
/// draws plus the head's uniform ones). Divide a row's time by its
/// elements for ns per draw.
fn bench_init(c: &mut Criterion) {
    const MODEL_DRAWS: usize = 192 * 1024 + 4 * 1024 * 1024;
    let mut group = c.benchmark_group("init");
    for &n in &[983_040usize, MODEL_DRAWS] {
        let mut out = vec![0.0f32; n];
        let mut rng = threelc_tensor::rng(42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("fill_standard_normal", n),
            &n,
            |bench, _| bench.iter(|| fill_standard_normal(&mut rng, &mut out, |z| z)),
        );
    }
    let spec = DataSpec {
        channels: 3,
        height: 8,
        width: 8,
        classes: 10,
    };
    group.throughput(Throughput::Elements(MODEL_DRAWS as u64));
    group.bench_function("residual_mlp/w1024", |bench| {
        bench.iter(|| models::residual_mlp(&spec, 1024, 2, 42))
    });
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
    targets = bench_matmul, bench_gemm_layouts, bench_add_max_abs, bench_reductions,
        bench_elementwise, bench_init
}
criterion_main!(benches);
