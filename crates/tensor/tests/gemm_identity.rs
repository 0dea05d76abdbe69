//! Differential test of the GEMM kernels: all three layouts against the naive
//! triple loop, compared by bit pattern.
//!
//! The oracle is the definition — for every output element, products added
//! to `+0.0` in ascending inner-index order, no zero-skip, no blocking.
//! `matmul` and `matmul_tn` may differ from it only on non-finite operands
//! (their zero-skip, see `gemm.rs`), so every generated value is finite;
//! `matmul_nt` skips nothing and is also held to it with infinities and
//! NaNs in its right operand.

use proptest::prelude::*;
use rand::Rng as _;
use threelc_tensor::{Rng, Tensor};

/// `out[i][j] = Σ_l a(i, l) · b(l, j)` straight from the definition.
fn naive(
    (m, n, k): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for l in 0..k {
                out[i * n + j] += a(i, l) * b(l, j);
            }
        }
    }
    out
}

/// Finite values that stress the contract: both zeros (half of a ReLU
/// output), subnormals, magnitudes far enough apart that any reordering of
/// a sum changes its rounding, and ordinary values.
fn value(rng: &mut Rng) -> f32 {
    match rng.gen_range(0..10u32) {
        0 | 1 => 0.0,
        2 => -0.0,
        3 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
        4 => -f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
        5 => rng.gen_range(-1e-20f32..1e-20),
        6 => rng.gen_range(-1e12f32..1e12),
        _ => rng.gen_range(-2.0f32..2.0),
    }
}

/// A `rows × cols` matrix of [`value`]s in which about one row in four is
/// all zeros.
fn matrix(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        let dead = rng.gen_range(0..4u32) == 0;
        data.extend((0..cols).map(|_| if dead { 0.0 } else { value(rng) }));
    }
    Tensor::from_vec(data, [rows, cols])
}

/// The first position at which two results differ in any bit, with both
/// bit patterns (a whole-vector `assert_eq!` prints ten thousand numbers).
fn first_difference(got: &[f32], want: &[f32]) -> Option<(usize, u32, u32)> {
    assert_eq!(got.len(), want.len());
    (0..got.len())
        .map(|i| (i, got[i].to_bits(), want[i].to_bits()))
        .find(|&(_, g, w)| g != w)
}

proptest! {
    #[test]
    fn every_layout_matches_the_naive_sum_bit_for_bit(
        // Below, at and above the eight terms added per pass and the eight
        // lanes of `matmul_nt`; 16 and 32 are whole lane blocks, and 33
        // also exceeds a panel's height when it is the inner dimension.
        m in prop_oneof![
            Just(1usize), Just(7usize), Just(8usize), Just(9usize),
            Just(16usize), Just(32usize), Just(33usize),
        ],
        // Panels are 32 × 256: both ranges cross a tile edge and neither is
        // confined to multiples of it; `k = 0` is the empty sum.
        k in 0usize..70,
        n in 1usize..300,
        seed in any::<u64>(),
    ) {
        let mut rng = threelc_tensor::rng(seed);

        let a = matrix(&mut rng, m, k);
        let b = matrix(&mut rng, k, n);
        let (x, y) = (a.as_slice(), b.as_slice());
        let got = a.matmul(&b).unwrap();
        prop_assert_eq!(got.shape().dims(), &[m, n]);
        let want = naive((m, n, k), |i, l| x[i * k + l], |l, j| y[l * n + j]);
        prop_assert_eq!(first_difference(got.as_slice(), &want), None);

        let b = matrix(&mut rng, n, k);
        let y = b.as_slice();
        let got = a.matmul_nt(&b).unwrap();
        prop_assert_eq!(got.shape().dims(), &[m, n]);
        let want = naive((m, n, k), |i, l| x[i * k + l], |l, j| y[j * k + l]);
        prop_assert_eq!(first_difference(got.as_slice(), &want), None);

        // The weight-gradient shape: the inner dimension is the batch `m`.
        let c = matrix(&mut rng, m, n);
        let z = c.as_slice();
        let got = a.matmul_tn(&c).unwrap();
        prop_assert_eq!(got.shape().dims(), &[k, n]);
        let want = naive((k, n, m), |i, l| x[l * k + i], |l, j| z[l * n + j]);
        prop_assert_eq!(first_difference(got.as_slice(), &want), None);

        // The same product into a buffer that still holds something else.
        let mut reused = Tensor::full([k, n], f32::NAN);
        a.matmul_tn_into(&c, &mut reused).unwrap();
        prop_assert_eq!(first_difference(reused.as_slice(), &want), None);
    }
}

/// Products large enough to be split by rows over the host's cores
/// (`gemm.rs`: 2²⁵ multiply-adds per thread), with `m` a multiple of
/// neither the 128-row block nor any thread count, `k` and `n` off the
/// panel edges, and the usual zeros. `gemm.rs`'s own unit tests force 1 to
/// 4 parts whatever the host has.
#[test]
fn split_products_match_the_naive_sum_bit_for_bit() {
    let (m, n, k) = (1031, 300, 257);
    assert!(m * n * k >= 2 << 25, "large enough for two threads");
    let mut rng = threelc_tensor::rng(11);

    let a = matrix(&mut rng, m, k);
    let b = matrix(&mut rng, k, n);
    let (x, y) = (a.as_slice(), b.as_slice());
    let got = a.matmul(&b).unwrap();
    let want = naive((m, n, k), |i, l| x[i * k + l], |l, j| y[l * n + j]);
    assert_eq!(first_difference(got.as_slice(), &want), None, "matmul");

    let b = matrix(&mut rng, n, k);
    let y = b.as_slice();
    let got = a.matmul_nt(&b).unwrap();
    let want = naive((m, n, k), |i, l| x[i * k + l], |l, j| y[j * k + l]);
    assert_eq!(first_difference(got.as_slice(), &want), None, "matmul_nt");

    // `[k, m]ᵀ · [k, n]`: the rows handed to a thread are columns of `a`.
    let a = matrix(&mut rng, k, m);
    let c = matrix(&mut rng, k, n);
    let (x, z) = (a.as_slice(), c.as_slice());
    let want = naive((m, n, k), |i, l| x[l * m + i], |l, j| z[l * n + j]);
    let got = a.matmul_tn(&c).unwrap();
    assert_eq!(first_difference(got.as_slice(), &want), None, "matmul_tn");
    let mut reused = Tensor::full([m, n], f32::NAN);
    a.matmul_tn_into(&c, &mut reused).unwrap();
    assert_eq!(first_difference(reused.as_slice(), &want), None, "into");
}

/// Fan-outs either side of one and two 64-wide register blocks and of a
/// panel's width, each leaving a ragged tail of eight-wide and narrower
/// blocks, and every tail narrower than eight, alone and after eight-wide
/// blocks (the model's ten-wide head), at both training batch depths and
/// one deeper than a panel: the forward, the weight gradient written, and
/// the weight gradient added into a residual, whose returned max must be
/// the largest magnitude left.
#[test]
fn register_block_edges_match_the_naive_sum_bit_for_bit() {
    let mut rng = threelc_tensor::rng(23);
    for n in [
        1, 2, 3, 4, 5, 6, 7, 9, 10, 15, 63, 64, 65, 71, 127, 128, 129, 257,
    ] {
        for k in [8, 32, 70] {
            for m in [1, 9, 33] {
                let a = matrix(&mut rng, m, k);
                let b = matrix(&mut rng, k, n);
                let (x, y) = (a.as_slice(), b.as_slice());
                let want = naive((m, n, k), |i, l| x[i * k + l], |l, j| y[l * n + j]);
                let got = a.matmul(&b).unwrap();
                let at = format!("m {m} k {k} n {n}");
                assert_eq!(first_difference(got.as_slice(), &want), None, "matmul {at}");

                // `[k, m]ᵀ · [k, n]`: `k` is the batch, `m` the fan-in.
                let a = matrix(&mut rng, k, m);
                let x = a.as_slice();
                let want = naive((m, n, k), |i, l| x[l * m + i], |l, j| y[l * n + j]);
                let mut written = Tensor::full([m, n], f32::NAN);
                a.matmul_tn_into(&b, &mut written).unwrap();
                assert_eq!(
                    first_difference(written.as_slice(), &want),
                    None,
                    "into {at}"
                );

                let residual = matrix(&mut rng, m, n);
                let want: Vec<f32> = residual
                    .as_slice()
                    .iter()
                    .zip(&want)
                    .map(|(r, g)| r + g)
                    .collect();
                let mut acc = residual.clone();
                let max = a.matmul_tn_add_into(&b, &mut acc).unwrap();
                assert_eq!(first_difference(acc.as_slice(), &want), None, "add {at}");
                let want_max = want.iter().map(|v| v.abs().to_bits()).max().unwrap_or(0);
                assert_eq!(max.to_bits(), want_max, "add max {at}");
            }
        }
    }
}

/// `matmul_nt` skips no term, so opposite a zero left factor an infinity
/// gives NaN and a NaN stays NaN, exactly as in the naive loop. NaN payloads
/// are not part of the contract: NaN positions are compared by `is_nan`,
/// everything else by bits.
#[test]
fn matmul_nt_matches_the_naive_sum_on_non_finite_right_operands() {
    let mut rng = threelc_tensor::rng(17);
    // Every lane block shape: whole blocks, a short last block, one row.
    for (m, n, k) in [(8, 9, 40), (32, 13, 70), (11, 6, 33), (1, 5, 3)] {
        let a = matrix(&mut rng, m, k);
        let mut w = matrix(&mut rng, n, k);
        for (idx, v) in w.as_mut_slice().iter_mut().enumerate() {
            match rng.gen_range(0..8u32) {
                0 => *v = f32::INFINITY,
                1 => *v = f32::NEG_INFINITY,
                2 => *v = f32::NAN,
                _ if idx % 5 == 0 => *v = f32::INFINITY,
                _ => {}
            }
        }
        let (x, y) = (a.as_slice(), w.as_slice());
        let want = naive((m, n, k), |i, l| x[i * k + l], |l, j| y[j * k + l]);
        let got = a.matmul_nt(&w).unwrap();
        assert!(
            x.contains(&0.0) && want.iter().any(|v| v.is_nan()),
            "the case must put zeros opposite non-finite values"
        );
        for (i, (g, w)) in got.as_slice().iter().zip(&want).enumerate() {
            if w.is_nan() {
                assert!(g.is_nan(), "({m}, {n}, {k}) at {i}: {g} where NaN");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "({m}, {n}, {k}) at {i}");
            }
        }
    }
}

#[test]
fn matmul_tn_into_rejects_an_output_of_the_wrong_shape() {
    let (a, c) = (Tensor::zeros([4, 3]), Tensor::zeros([4, 5]));
    let mut out = Tensor::zeros([5, 3]);
    assert_eq!(
        a.matmul_tn_into(&c, &mut out),
        Err(threelc_tensor::TensorError::ShapeMismatch {
            left: vec![3, 5],
            right: vec![5, 3],
        })
    );
}

#[test]
fn transposed_layouts_equal_transpose_then_matmul() {
    let mut rng = threelc_tensor::rng(3);
    let a = matrix(&mut rng, 9, 70);
    let w = matrix(&mut rng, 300, 70);
    let d = matrix(&mut rng, 9, 300);
    let nt = a.matmul_nt(&w).unwrap();
    let via_transpose = a.matmul(&w.transpose().unwrap()).unwrap();
    assert_eq!(
        first_difference(nt.as_slice(), via_transpose.as_slice()),
        None
    );
    let tn = a.matmul_tn(&d).unwrap();
    let via_transpose = a.transpose().unwrap().matmul(&d).unwrap();
    assert_eq!(
        first_difference(tn.as_slice(), via_transpose.as_slice()),
        None
    );
}
