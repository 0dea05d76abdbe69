//! Matrix multiplication: the three operand layouts the training framework
//! needs, over one blocked GEMM core and one lane kernel.
//!
//! | method | computes | used for |
//! |---|---|---|
//! | [`Tensor::matmul`] | `A · B` | forward `Y = X · W` |
//! | [`Tensor::matmul_nt`] | `A · Bᵀ` | input gradient `dX = dY · Wᵀ` |
//! | [`Tensor::matmul_tn`] | `Aᵀ · B` | weight gradient `dW = Xᵀ · dY` |
//!
//! [`Tensor::matmul_tn_into`] is `matmul_tn` into a tensor the caller
//! keeps: the weight gradient is the one product as large as the model,
//! and a training loop reuses its buffer every step.
//!
//! No layout materialises a transposed operand. `matmul` and `matmul_tn`
//! run one loop nest (`gemm_rows`) over a row-major right operand and
//! differ only in how an element of the left operand is addressed.
//! `matmul_nt`, whose operands both run along the reduction index, has a
//! kernel of its own (`gemm_nt`): it reads each row of the right operand
//! once, in stored order, and advances eight output rows in lanes.
//!
//! A product large enough to be worth it — a test-set forward pass, not a
//! training step — is split by output rows over the host's cores
//! (`gemm_split`); each thread runs the same nest on its rows and packs
//! its own panels. Rows share no accumulator, so the thread count changes
//! no bit.
//!
//! The arithmetic contract — term order, no fusion, the zero-skip and when
//! it is exact — is stated on [`Tensor::matmul`]. Blocking only changes
//! *which elements* are advanced together, never the order of the additions
//! into any one of them: DESIGN.md §17 has the argument,
//! `tests/gemm_identity.rs` the differential test against the naive loop.

use crate::{Tensor, TensorError};

/// Width of a right-hand panel: the output columns advanced together.
const NC: usize = 256;

/// Height of a right-hand panel: the inner indices advanced together. A
/// packed `KC × NC` panel is 32 KiB — the only scratch a thread of the nest
/// allocates — and stays in L1 while every output row of the block takes
/// its terms from it, so each right-hand element is read from memory once
/// per row block per thread.
const KC: usize = 32;

/// Height of a row block: the output rows taken through the nest together.
/// The `MC × NC` output block being updated (128 KiB) and the block's
/// left-operand rows stay in L2 while the right operand's panels stream
/// past; taken all at once, a 1 024-row product sweeps a 1 MB output strip
/// once per 32-deep panel. A product of `m ≤ MC` rows — every forward GEMM
/// of a training step — is one block.
const MC: usize = 128;

/// Output rows [`gemm_nt`] advances together, one lane each: two SSE2
/// registers per right-operand row it reads.
const LANES: usize = 8;

/// The fewest multiply-adds a thread of a split product is worth spawning
/// for. The nest runs about 15 G multiply-adds a second and a scoped spawn
/// costs tens of microseconds, so at 2²⁵ a thread has about two
/// milliseconds of work to set against it (the reasoning behind the
/// server's `MIN_SHARD_VALUES`). The largest training GEMM of the ledger's
/// workloads is 8.4 M multiply-adds (`[8, 1024] · [1024, 1024]`): a
/// worker owns one core and its products stay on it. A test-set forward
/// (`[1024, 1024] · [1024, 1024]`, 2³⁰) is split over every core.
const MIN_PART_MULTIPLY_ADDS: usize = 1 << 25;

/// How many threads a product of these dimensions is split over: one per
/// core of the host (read once), at most one per
/// [`MIN_PART_MULTIPLY_ADDS`] of work, at most one per output row.
fn parts_for((m, n, k): (usize, usize, usize)) -> usize {
    let work = m.saturating_mul(n).saturating_mul(k);
    crate::cores()
        .min(work / MIN_PART_MULTIPLY_ADDS)
        .min(m)
        .max(1)
}

/// Adds the first `N` listed terms to every element of an output row
/// strip: `out[j] = (…((out[j] + c₀·r₀[j]) + c₁·r₁[j]) + …)`, where `rₜ` is
/// the panel row starting at `offset[t]`. `N` terms of each element's sum
/// cost one load and one store of it; the loop vectorises across `j`,
/// which reorders nothing.
#[inline(always)]
fn add_terms<const N: usize>(out: &mut [f32], coef: &[f32], offset: &[usize], panel: &[f32]) {
    let c: [f32; N] = std::array::from_fn(|t| coef[t]);
    let rows: [&[f32]; N] = std::array::from_fn(|t| &panel[offset[t]..][..out.len()]);
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = *o;
        for t in 0..N {
            acc += c[t] * rows[t][j];
        }
        *o = acc;
    }
}

/// `out[i][j] = Σ_l a(i, l) · b[l·n + j]` for an `m × k` left and a
/// row-major `k × n` right operand, where `a(i, l) = a[i·a_row + l·a_col]`.
fn gemm(dims: (usize, usize, usize), a: &[f32], a_strides: (usize, usize), b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; dims.0 * dims.1];
    gemm_into(dims, a, a_strides, b, &mut out);
    out
}

/// [`gemm`] adding its terms to `out`, an `m × n` buffer the caller has
/// filled with `+0.0`, on as many threads as [`parts_for`] says the
/// product is worth.
fn gemm_into(
    dims: (usize, usize, usize),
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    gemm_split(parts_for(dims), dims, a, a_strides, b, out);
}

/// [`gemm_into`] over `parts` contiguous blocks of output rows, one scoped
/// thread per block, the first block on the calling thread; a thread takes
/// its rows through the nest [`MC`] at a time with one panel buffer. A
/// block of output rows goes with the matching rows of the left operand,
/// whose element `(i, l)` is at `i·a_row + l·a_col` in either layout. An
/// output element belongs to one block and gets the terms the nest over
/// all rows would give it, in the same order, so the result depends on
/// neither `parts` nor `MC`; one part spawns nothing.
fn gemm_split(
    parts: usize,
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    (a_row, a_col): (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    // An empty sum leaves the zeros it was handed.
    if out.is_empty() || k == 0 {
        return;
    }
    let rows = m.div_ceil(parts);
    let run = |(p, out): (usize, &mut [f32])| {
        let mut panel = vec![0.0f32; KC.min(k) * NC.min(n)];
        for (q, block) in out.chunks_mut(MC * n).enumerate() {
            let a = &a[(p * rows + q * MC) * a_row..];
            let dims = (block.len() / n, n, k);
            gemm_rows(dims, a, (a_row, a_col), b, block, &mut panel);
        }
    };
    if rows >= m {
        return run((0, out));
    }
    std::thread::scope(|scope| {
        let mut blocks = out.chunks_mut(rows * n).enumerate();
        let first = blocks.next().expect("m > rows > 0, so there is a block");
        for block in blocks {
            scope.spawn(move || run(block));
        }
        run(first);
    });
}

/// The loop nest. For each `KC × NC` panel of the right operand, its row
/// pieces copied into contiguous rows of `panel`, every output row lists
/// its nonzero left factors over the panel's inner indices (in ascending
/// order) and adds their terms eight at a time.
fn gemm_rows(
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    (a_row, a_col): (usize, usize),
    b: &[f32],
    out: &mut [f32],
    panel: &mut [f32],
) {
    let mut coef = [0.0f32; KC];
    let mut offset = [0usize; KC];
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        for l0 in (0..k).step_by(KC) {
            let kc = KC.min(k - l0);
            let panel = &mut panel[..kc * nc];
            for (l, dst) in panel.chunks_exact_mut(nc).enumerate() {
                dst.copy_from_slice(&b[(l0 + l) * n + j0..][..nc]);
            }
            for i in 0..m {
                // Branch-free compaction: a zero is overwritten by the next
                // candidate because `count` did not move past it.
                let mut count = 0;
                for l in 0..kc {
                    let v = a[i * a_row + (l0 + l) * a_col];
                    coef[count] = v;
                    offset[count] = l * nc;
                    count += usize::from(v != 0.0);
                }
                let out_row = &mut out[i * n + j0..][..nc];
                let (mut coef, mut offset) = (&coef[..count], &offset[..count]);
                while coef.len() >= 8 {
                    add_terms::<8>(out_row, coef, offset, panel);
                    (coef, offset) = (&coef[8..], &offset[8..]);
                }
                if coef.len() >= 4 {
                    add_terms::<4>(out_row, coef, offset, panel);
                    (coef, offset) = (&coef[4..], &offset[4..]);
                }
                if coef.len() >= 2 {
                    add_terms::<2>(out_row, coef, offset, panel);
                    (coef, offset) = (&coef[2..], &offset[2..]);
                }
                if coef.len() == 1 {
                    add_terms::<1>(out_row, coef, offset, panel);
                }
            }
        }
    }
}

/// `out[i][j] = Σ_l a[i·k + l] · b[j·k + l]` for an `m × k` left and an
/// `n × k` right operand, both contiguous along the reduction index.
///
/// The left operand is copied once into `lanes`, block by block of
/// [`LANES`] rows, so that element `(i0 + r, l)` of block `i0` sits at
/// `i0·k + l·LANES + r` (a short last block is padded with zeros, whose
/// lanes are never stored). The right operand is read `R` rows at a time in
/// stored order, and every row block takes its terms from those rows before
/// the next rows are read: at batch 32 the four rows stay in L1 across
/// the four blocks. Each of the `R × LANES` sums starts at `+0.0`, takes its
/// terms in ascending `l` with no zero-skip, and is stored once.
fn gemm_nt((m, n, k): (usize, usize, usize), a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if out.is_empty() || k == 0 {
        return out;
    }
    let mut lanes = vec![0.0f32; m.div_ceil(LANES) * LANES * k];
    for (block, rows) in lanes.chunks_exact_mut(LANES * k).zip(a.chunks(LANES * k)) {
        for (r, row) in rows.chunks_exact(k).enumerate() {
            for (l, &v) in row.iter().enumerate() {
                block[l * LANES + r] = v;
            }
        }
    }
    let mut j0 = 0;
    while j0 + 4 <= n {
        nt_rows::<4>((m, n, k), &lanes, b, j0, &mut out);
        j0 += 4;
    }
    for j in j0..n {
        nt_rows::<1>((m, n, k), &lanes, b, j, &mut out);
    }
    out
}

/// Output columns `j0 .. j0 + R` of [`gemm_nt`]: right-operand rows `j0 ..
/// j0 + R` against every block of `lanes`.
#[inline(always)]
fn nt_rows<const R: usize>(
    (m, n, k): (usize, usize, usize),
    lanes: &[f32],
    b: &[f32],
    j0: usize,
    out: &mut [f32],
) {
    let rows: [&[f32]; R] = std::array::from_fn(|t| &b[(j0 + t) * k..][..k]);
    for (q, block) in lanes.chunks_exact(LANES * k).enumerate() {
        let mut acc = [[0.0f32; LANES]; R];
        for (l, a) in block.chunks_exact(LANES).enumerate() {
            for t in 0..R {
                let v = rows[t][l];
                for (s, &x) in acc[t].iter_mut().zip(a) {
                    *s += x * v;
                }
            }
        }
        let i0 = q * LANES;
        for r in 0..LANES.min(m - i0) {
            let dst = &mut out[(i0 + r) * n + j0..][..R];
            for (d, sums) in dst.iter_mut().zip(&acc) {
                *d = sums[r];
            }
        }
    }
}

/// The two dimensions of a rank-2 tensor.
fn matrix_dims(t: &Tensor) -> Result<(usize, usize), TensorError> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.shape().rank(),
        });
    }
    Ok((t.shape().dim(0), t.shape().dim(1)))
}

fn check_inner(left: usize, right: usize) -> Result<(), TensorError> {
    if left != right {
        return Err(TensorError::InnerDimMismatch {
            left_cols: left,
            right_rows: right,
        });
    }
    Ok(())
}

impl Tensor {
    /// Matrix multiply of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Every output element is `((0 + a₀·b₀) + a₁·b₁) + …`: products added
    /// to a `+0.0` accumulator in ascending inner-index order, one IEEE
    /// multiply and one IEEE add each, never fused, never reassociated —
    /// bit-identical to the naive triple loop, as are
    /// [`matmul_nt`](Tensor::matmul_nt) and [`matmul_tn`](Tensor::matmul_tn).
    ///
    /// Terms whose left factor is exactly zero are skipped (half of a ReLU
    /// output is zeros), here and in [`matmul_tn`](Tensor::matmul_tn). That
    /// is exact only while `other` is finite: the skipped product is then
    /// `±0.0`, which cannot change an accumulator that started at `+0.0`;
    /// opposite an infinity or a NaN in `other` the naive loop would produce
    /// NaN and this method does not.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank 2
    /// and [`TensorError::InnerDimMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let (m, k) = matrix_dims(self)?;
        let (k2, n) = matrix_dims(other)?;
        check_inner(k, k2)?;
        let out = gemm((m, n, k), self.as_slice(), (k, 1), other.as_slice());
        Ok(Tensor::from_vec(out, [m, n]))
    }

    /// `self · otherᵀ` without forming the transpose:
    /// `[m, k] × [n, k]ᵀ → [m, n]`, on the calling thread.
    ///
    /// Its left factor is an output gradient, which has no zeros to speak
    /// of, so no term is skipped: every output element is the naive loop's
    /// sum for every input, an infinity or NaN in `other` included. With a
    /// finite `other` that is also `self.matmul(&other.transpose()?)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank 2
    /// and [`TensorError::InnerDimMismatch`] if the operands' column counts
    /// differ.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let (m, k) = matrix_dims(self)?;
        let (n, k2) = matrix_dims(other)?;
        check_inner(k, k2)?;
        let out = gemm_nt((m, n, k), self.as_slice(), other.as_slice());
        Ok(Tensor::from_vec(out, [m, n]))
    }

    /// `selfᵀ · other` without forming the transpose:
    /// `[k, m]ᵀ × [k, n] → [m, n]`. Bit-identical to
    /// `self.transpose()?.matmul(other)`, zero-skip included.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank 2
    /// and [`TensorError::InnerDimMismatch`] if the operands' row counts
    /// differ.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let (k, m) = matrix_dims(self)?;
        let (k2, n) = matrix_dims(other)?;
        check_inner(k, k2)?;
        let out = gemm((m, n, k), self.as_slice(), (1, m), other.as_slice());
        Ok(Tensor::from_vec(out, [m, n]))
    }

    /// [`matmul_tn`](Tensor::matmul_tn) into `out`, an `[m, n]` tensor whose
    /// contents are overwritten: the same sums from the same `+0.0` start,
    /// without a new tensor.
    ///
    /// # Errors
    ///
    /// As [`matmul_tn`](Tensor::matmul_tn), and
    /// [`TensorError::ShapeMismatch`] if `out` is not `[m, n]`.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
        let (k, m) = matrix_dims(self)?;
        let (k2, n) = matrix_dims(other)?;
        check_inner(k, k2)?;
        if out.shape().dims() != [m, n] {
            return Err(TensorError::ShapeMismatch {
                left: vec![m, n],
                right: out.shape().dims().to_vec(),
            });
        }
        let out = out.as_mut_slice();
        out.fill(0.0);
        gemm_into((m, n, k), self.as_slice(), (1, m), other.as_slice(), out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn transposed_layouts_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [2, 3]);
        // a · bᵀ: rows of a against rows of b.
        let nt = a.matmul_nt(&b).unwrap();
        assert_eq!(nt.shape().dims(), &[2, 2]);
        assert_eq!(nt.as_slice(), &[50.0, 68.0, 122.0, 167.0]);
        // aᵀ · b: columns of a against columns of b.
        let tn = a.matmul_tn(&b).unwrap();
        assert_eq!(tn.shape().dims(), &[3, 3]);
        assert_eq!(
            tn.as_slice(),
            &[47.0, 52.0, 57.0, 64.0, 71.0, 78.0, 81.0, 90.0, 99.0]
        );
    }

    #[test]
    fn every_layout_checks_rank_and_inner_dimension() {
        let a = Tensor::zeros([2, 3]);
        let bad_rank = Tensor::zeros([3]);
        let rank = Err(TensorError::RankMismatch {
            expected: 2,
            actual: 1,
        });
        assert_eq!(a.matmul(&bad_rank), rank);
        assert_eq!(a.matmul_nt(&bad_rank), rank);
        assert_eq!(bad_rank.matmul_tn(&a), rank);
        let inner = |left_cols, right_rows| {
            Err(TensorError::InnerDimMismatch {
                left_cols,
                right_rows,
            })
        };
        assert_eq!(a.matmul(&Tensor::zeros([4, 2])), inner(3, 4));
        assert_eq!(a.matmul_nt(&Tensor::zeros([2, 4])), inner(3, 4));
        assert_eq!(a.matmul_tn(&Tensor::zeros([3, 2])), inner(2, 3));
    }

    #[test]
    fn the_ledger_workloads_training_gemms_stay_on_one_thread() {
        // (batch, width) of `mlp512-*` and `mlp1024-*`; 192 is the input
        // layer's fan-in, 10 the head's fan-out.
        for (b, w) in [(32, 512), (8, 1024)] {
            for (i, o) in [(192, w), (w, w), (w, 10)] {
                // Y = X·W, dW = Xᵀ·dY (dX = dY·Wᵀ has a kernel of its own
                // and never splits).
                for dims in [(b, o, i), (i, o, b)] {
                    assert_eq!(parts_for(dims), 1, "{dims:?}");
                }
            }
        }
        // A product worth two threads gets them only where there are two
        // cores and two rows.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(parts_for((1024, 1024, 1024)), cores.min(32));
        assert_eq!(parts_for((1, 1 << 13, 1 << 13)), 1);
    }

    #[test]
    fn every_part_count_gives_the_same_bits() {
        // Ragged everywhere: 1 031 rows split 2, 3 or 4 ways leave a short
        // last block, and no block is a multiple of `MC`.
        let (m, n, k) = (1031, 70, 45);
        let mut rng = crate::rng(5);
        let mut values = |len: usize| -> Vec<f32> {
            use rand::Rng as _;
            (0..len)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => 0.0,
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect()
        };
        let (a, b) = (values(m * k), values(k * n));
        // Left strides of matmul and tn.
        for strides in [(k, 1), (1, m)] {
            let run = |parts| {
                let mut out = vec![0.0f32; m * n];
                gemm_split(parts, (m, n, k), &a, strides, &b, &mut out);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let one = run(1);
            for parts in [2, 3, 4, m + 1] {
                assert_eq!(run(parts), one, "{parts} parts, {strides:?}");
            }
        }
    }

    #[test]
    fn zero_skip_departs_from_the_naive_sum_only_on_non_finite_right_operands() {
        let a = Tensor::from_vec(vec![0.0, 1.0], [1, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 2.0], [2, 1]);
        // Naive: 0·inf + 1·2 = NaN. Skipping the zero term leaves 2.
        assert_eq!(a.matmul(&b).unwrap().as_slice(), &[2.0]);
        // A NaN on the left is not a zero and is never skipped.
        let nan = Tensor::from_vec(vec![f32::NAN, 1.0], [1, 2]);
        assert!(nan.matmul(&b).unwrap().as_slice()[0].is_nan());
    }
}
