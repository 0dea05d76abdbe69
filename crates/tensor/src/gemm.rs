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
//! [`Tensor::matmul_tn_add_into`] adds the product into such a tensor
//! instead — an error-accumulation buffer, which is all a 3LC worker keeps
//! of a weight gradient — and returns the largest magnitude it left there.
//!
//! No layout materialises a transposed operand. `matmul` and `matmul_tn`
//! run one loop nest (`gemm_rows`) over a row-major right operand and
//! differ only in how an element of the left operand is addressed.
//! `matmul_nt`, whose operands both run along the reduction index, has a
//! kernel of its own (`gemm_nt`): it reads each row of the right operand
//! once, in stored order, and advances eight output rows in lanes.
//!
//! Both nests keep a block of 64 adjacent output elements' running sums in
//! registers while a whole group of terms goes by — a panel's worth in the
//! write nest, the whole inner dimension in the add-into one — and touch
//! the output once per group, not once per term.
//!
//! A product large enough to be worth it — a test-set forward pass, not a
//! training step — is split by output rows over the host's cores
//! (`gemm_split`); each thread runs the same nest on its rows and packs
//! its own panels. Rows share no accumulator, so the thread count changes
//! no bit.
//!
//! The kernel bodies — the two nests, the lane kernel and the add-and-fold
//! — are compiled twice from one source: at the build's baseline, and
//! inside a `#[target_feature(enable = "avx2")]` function where an
//! eight-wide sum fits one register instead of two. The first
//! product of a process asks the CPU once (`avx2_detected`), and every
//! product runs the wider instantiation where the CPU has it; on other
//! targets only the baseline is compiled. Lanes run across independent
//! output elements and `fma` is never enabled, so the two give the same
//! bits (DESIGN.md §17, "Host vector width").
//!
//! The arithmetic contract — term order, no fusion, the zero-skip and when
//! it is exact — is stated on [`Tensor::matmul`]. Blocking only changes
//! *which elements* are advanced together, never the order of the additions
//! into any one of them: DESIGN.md §17 has the argument,
//! `tests/gemm_identity.rs` the differential test against the naive loop.
//!
//! An add-into product (`gemm_rows_add`) keeps the same per-element term
//! order but packs nothing: it sweeps the output row by row, forms each
//! block's sums from `+0.0` straight from the right operand, and adds
//! them once, complete, into their elements, folding the results'
//! magnitude on the way (DESIGN.md §17, "The add-into epilogue"): the
//! product is never stored at its full size.

use crate::{Tensor, TensorError};
#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Width of a right-hand panel: the output columns advanced together.
const NC: usize = 256;

/// Height of a right-hand panel: the inner indices advanced together. A
/// packed `KC × NC` panel is 32 KiB — the only scratch a thread of the
/// write nest allocates — and stays in L1 while every output row of the
/// block takes its terms from it, so each right-hand element is read from
/// memory once per row block per thread.
const KC: usize = 32;

/// Height of a row block: the output rows taken through the nest together.
/// The `MC × NC` output block being updated (128 KiB) and the block's
/// left-operand rows stay in L2 while the right operand's panels stream
/// past; taken all at once, a 1 024-row product sweeps a 1 MB output strip
/// once per 32-deep panel. A product of `m ≤ MC` rows — every forward GEMM
/// of a training step — is one block.
const MC: usize = 128;

/// Clears an IEEE-754 single's sign bit: what is left orders like the
/// magnitude it spells, and exceeds `f32::INFINITY`'s bits only for a NaN.
const ABS: u32 = 0x7fff_ffff;

/// Output rows [`gemm_nt`] advances together, one lane each: one AVX2
/// register, or two SSE2 ones, per right-operand row it reads. Also the
/// narrow block of a row's ragged tail.
const LANES: usize = 8;

/// Adjacent output elements the nests advance per term, their sums held in
/// registers across a whole group of terms: eight AVX2 registers. The SSE2
/// baseline needs all sixteen of its registers for them and spills some,
/// yet measured faster at 64 than at 32 at every training shape (DESIGN.md
/// §17, "Sums in registers"), so both instantiations use one width. Also
/// the lanes of the magnitude fold.
const BLOCK: usize = 64;

/// One term of a sum: a nonzero left factor, and where the row of the right
/// operand (or of its packed panel) that it multiplies starts.
type Term = (f32, usize);

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

/// Whether this CPU runs the AVX2 instantiation of the kernel bodies (the
/// GEMM's here, the normal sampler's in `init`): asked once per process.
pub(crate) fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The instantiation of the GEMM kernels this process runs: `"avx2"` or
/// `"baseline"`, for a log that says which kernels ran.
pub fn gemm_instantiation() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "baseline"
    }
}

/// The kernel bodies compiled with AVX2 (and nothing else: no `fma`). Each
/// is the baseline's source inlined into a function that carries the
/// feature, so the compiler widens the same loops.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_rows(
        dims: (usize, usize, usize),
        a: &[f32],
        a_strides: (usize, usize),
        b: &[f32],
        out: &mut [f32],
        panel: &mut [f32],
    ) {
        super::gemm_rows_body(dims, a, a_strides, b, out, panel);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_nt(dims: (usize, usize, usize), a: &[f32], b: &[f32]) -> Vec<f32> {
        super::gemm_nt_body(dims, a, b)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_rows_add(
        dims: (usize, usize, usize),
        a: &[f32],
        a_strides: (usize, usize),
        b: &[f32],
        acc: &mut [f32],
    ) -> u32 {
        super::gemm_rows_add_body(dims, a, a_strides, b, acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn add_max_abs_bits(acc: &mut [f32], xs: &[f32]) -> u32 {
        super::add_max_abs_bits_body(acc, xs)
    }
}

/// `out[i][j] = Σ_l a(i, l) · b[l·n + j]` for an `m × k` left and a
/// row-major `k × n` right operand, where `a(i, l) = a[i·a_row + l·a_col]`.
fn gemm(dims: (usize, usize, usize), a: &[f32], a_strides: (usize, usize), b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; dims.0 * dims.1];
    gemm_into::<false>(dims, a, a_strides, b, &mut out);
    out
}

/// [`gemm`] on as many threads as [`parts_for`] says the product is worth:
/// adding its terms to `out`, an `m × n` buffer the caller has filled with
/// `+0.0` (`ADD = false`), or adding each complete sum to what `out`
/// holds (`ADD = true`). Returns the largest `bits & ABS` an add left in
/// `out` — the largest magnitude there, or more than `f32::INFINITY`'s
/// bits if a NaN was — and 0 for a plain product.
fn gemm_into<const ADD: bool>(
    dims: (usize, usize, usize),
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
) -> u32 {
    gemm_split::<ADD>(parts_for(dims), dims, a, a_strides, b, out)
}

/// [`gemm_into`] over `parts` contiguous blocks of output rows, one scoped
/// thread per block, the first block on the calling thread. A block of
/// output rows goes with the matching rows of the left operand, whose
/// element `(i, l)` is at `i·a_row + l·a_col` in either layout. A plain
/// product's thread takes its rows through the nest [`MC`] at a time with
/// one panel buffer; an add's thread sweeps its rows once, from the right
/// operand in place. An output element belongs to one block and gets the
/// terms the nest over all rows would give it, in the same order, so the
/// result depends on neither `parts` nor `MC`; one part spawns nothing.
fn gemm_split<const ADD: bool>(
    parts: usize,
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
) -> u32 {
    // An empty plain sum leaves the zeros it was handed; an empty added
    // one still adds its +0.0.
    if out.is_empty() || (k == 0 && !ADD) {
        return 0;
    }
    let rows = m.div_ceil(parts);
    let run = |(p, out): (usize, &mut [f32])| {
        let a = &a[p * rows * strides.0..];
        if ADD {
            return gemm_rows_add((out.len() / n, n, k), a, strides, b, out);
        }
        let mut panel = vec![0.0f32; KC.min(k) * NC.min(n)];
        for (q, block) in out.chunks_mut(MC * n).enumerate() {
            let a = &a[q * MC * strides.0..];
            gemm_rows((block.len() / n, n, k), a, strides, b, block, &mut panel);
        }
        0
    };
    if rows >= m {
        return run((0, out));
    }
    std::thread::scope(|scope| {
        let mut blocks = out.chunks_mut(rows * n).enumerate();
        let first = blocks.next().expect("m > rows > 0, so there is a block");
        let others: Vec<_> = blocks
            .map(|block| scope.spawn(move || run(block)))
            .collect();
        others.into_iter().fold(run(first), |max_bits, other| {
            let bits = other
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
            max_bits.max(bits)
        })
    })
}

/// The loop nest. For each `KC × NC` panel of the right operand, its row
/// pieces copied into contiguous rows of `panel`, every output row lists
/// its nonzero left factors over the panel's inner indices (in ascending
/// order) and adds all of their terms to one register block of its strip
/// after another ([`row_terms`]).
fn gemm_rows(
    dims: (usize, usize, usize),
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
    panel: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: `avx2_detected()` saw the feature, the only thing the
        // instantiation requires; it reads through checked slices.
        return unsafe { avx2::gemm_rows(dims, a, a_strides, b, out, panel) };
    }
    gemm_rows_body(dims, a, a_strides, b, out, panel);
}

/// The body of [`gemm_rows`], inlined into each instantiation.
#[inline(always)]
fn gemm_rows_body(
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
    panel: &mut [f32],
) {
    let mut terms = [(0.0f32, 0usize); KC];
    let mut unused = [0u32; BLOCK];
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        for l0 in (0..k).step_by(KC) {
            let kc = KC.min(k - l0);
            let panel = pack_panel(b, n, (l0, kc), (j0, nc), panel);
            for i in 0..m {
                let terms = list_terms(a, strides, i, (l0, kc), nc, &mut terms);
                let strip = &mut out[i * n + j0..][..nc];
                row_terms::<false>(strip, terms, panel, &mut unused);
            }
        }
    }
}

/// The add-into nest: [`gemm_rows`]'s compaction and term order, but each
/// output row's nonzero left factors are listed over the whole inner
/// dimension, their terms read from the right operand in place (at a
/// training step's depth, `k × n` floats: 32 KiB at batch 8 and width
/// 1 024), and every register block of sums, formed from `+0.0`, is added
/// once, complete, into its elements of `acc`. Returns the largest
/// `bits & ABS` left in `acc`.
fn gemm_rows_add(
    dims: (usize, usize, usize),
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    acc: &mut [f32],
) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: `avx2_detected()` saw the feature, the only thing the
        // instantiation requires; it reads through checked slices.
        return unsafe { avx2::gemm_rows_add(dims, a, a_strides, b, acc) };
    }
    gemm_rows_add_body(dims, a, a_strides, b, acc)
}

/// The body of [`gemm_rows_add`], inlined into each instantiation.
#[inline(always)]
fn gemm_rows_add_body(
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    strides: (usize, usize),
    b: &[f32],
    acc: &mut [f32],
) -> u32 {
    let mut terms = vec![(0.0f32, 0usize); k];
    let mut lanes = [0u32; BLOCK];
    for i in 0..m {
        let terms = list_terms(a, strides, i, (0, k), n, &mut terms);
        row_terms::<true>(&mut acc[i * n..][..n], terms, b, &mut lanes);
    }
    lanes.into_iter().max().unwrap_or(0)
}

/// Copies rows `l0 .. l0 + kc`, columns `j0 .. j0 + nc` of the row-major
/// `k × n` right operand into contiguous rows of `panel`, and returns
/// them.
#[inline(always)]
fn pack_panel<'p>(
    b: &[f32],
    n: usize,
    (l0, kc): (usize, usize),
    (j0, nc): (usize, usize),
    panel: &'p mut [f32],
) -> &'p [f32] {
    let panel = &mut panel[..kc * nc];
    for (l, dst) in panel.chunks_exact_mut(nc).enumerate() {
        dst.copy_from_slice(&b[(l0 + l) * n + j0..][..nc]);
    }
    panel
}

/// Lists the nonzero left factors `a(i, l)`, `l` in `l0 .. l0 + kc`, in
/// ascending order — a branch-free compaction into `terms` — each with
/// `(l − l0)·stride`, where the right-operand row it multiplies starts.
#[inline(always)]
fn list_terms<'t>(
    a: &[f32],
    (a_row, a_col): (usize, usize),
    i: usize,
    (l0, kc): (usize, usize),
    stride: usize,
    terms: &'t mut [Term],
) -> &'t [Term] {
    let mut count = 0;
    for l in 0..kc {
        let v = a[i * a_row + (l0 + l) * a_col];
        terms[count] = (v, l * stride);
        count += usize::from(v != 0.0);
    }
    &terms[..count]
}

/// Takes one output row through the listed terms, [`BLOCK`] adjacent
/// elements at a time ([`block_terms`]), then [`LANES`], then the fewer
/// than [`LANES`] left as one block ([`tail_terms`]): the right operand's
/// rows start at the terms' offsets into `b`, at the row's first column.
/// Only which elements advance together depends on the block, never an
/// element's terms or their order.
#[inline(always)]
fn row_terms<const ADD: bool>(
    out: &mut [f32],
    terms: &[Term],
    b: &[f32],
    lanes: &mut [u32; BLOCK],
) {
    let mut j = 0;
    let mut blocks = out.chunks_exact_mut(BLOCK);
    for block in &mut blocks {
        let block = block.try_into().expect("BLOCK elements");
        block_terms::<BLOCK, ADD>(block, terms, &b[j..], lanes);
        j += BLOCK;
    }
    let mut blocks = blocks.into_remainder().chunks_exact_mut(LANES);
    for block in &mut blocks {
        let block = block.try_into().expect("LANES elements");
        block_terms::<LANES, ADD>(block, terms, &b[j..], lanes);
        j += LANES;
    }
    tail_terms::<ADD>(blocks.into_remainder(), terms, &b[j..], lanes);
}

/// [`block_terms`] over a row's last `r < LANES` elements as one block of
/// width `r`: each term's coefficient and offset are read once for all of
/// them, as for a full block.
#[inline(always)]
fn tail_terms<const ADD: bool>(
    out: &mut [f32],
    terms: &[Term],
    b: &[f32],
    lanes: &mut [u32; BLOCK],
) {
    #[inline(always)]
    fn width<const R: usize, const ADD: bool>(
        out: &mut [f32],
        terms: &[Term],
        b: &[f32],
        lanes: &mut [u32; BLOCK],
    ) {
        let out = out.try_into().expect("R elements");
        block_terms::<R, ADD>(out, terms, b, lanes);
    }
    match out.len() {
        0 => {}
        1 => width::<1, ADD>(out, terms, b, lanes),
        2 => width::<2, ADD>(out, terms, b, lanes),
        3 => width::<3, ADD>(out, terms, b, lanes),
        4 => width::<4, ADD>(out, terms, b, lanes),
        5 => width::<5, ADD>(out, terms, b, lanes),
        6 => width::<6, ADD>(out, terms, b, lanes),
        7 => width::<7, ADD>(out, terms, b, lanes),
        r => unreachable!("a remainder of {r} after blocks of {LANES}"),
    }
}

/// Takes `W` adjacent sums through every listed term, `s[j] = (…((s[j] +
/// c₀·r₀[j]) + c₁·r₁[j]) + …)` with `rₜ` the row of `b` at the term's
/// offset, the sums in registers from the first term to the last; the loop
/// over `j` vectorises across elements, which reorders nothing. A write
/// (`ADD = false`) continues the sums `out` holds and stores them back; an
/// add forms them from `+0.0` and adds them, complete, into `out`
/// ([`add_fold`]).
#[inline(always)]
fn block_terms<const W: usize, const ADD: bool>(
    out: &mut [f32; W],
    terms: &[Term],
    b: &[f32],
    lanes: &mut [u32; BLOCK],
) {
    let mut sums = if ADD { [0.0f32; W] } else { *out };
    for &(c, offset) in terms {
        let row: &[f32; W] = b[offset..][..W].try_into().expect("W columns");
        for j in 0..W {
            sums[j] += c * row[j];
        }
    }
    if ADD {
        add_fold(out, &sums, lanes);
    } else {
        *out = sums;
    }
}

/// `acc[j] += xs[j]`, one IEEE add each, folding `bits & ABS` of each
/// result into lane `j` of `lanes` (`W ≤ BLOCK`; a max over integers is
/// the same in any order).
#[inline(always)]
fn add_fold<const W: usize>(acc: &mut [f32; W], xs: &[f32; W], lanes: &mut [u32; BLOCK]) {
    for ((o, x), lane) in acc.iter_mut().zip(xs).zip(lanes.iter_mut()) {
        let v = *o + x;
        *o = v;
        *lane = (*lane).max(v.to_bits() & ABS);
    }
}

/// `acc[e] += xs[e]`, one IEEE add each, returning the largest `bits &
/// ABS` of the results.
fn add_max_abs_bits(acc: &mut [f32], xs: &[f32]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: `avx2_detected()` saw the feature, the only thing the
        // instantiation requires; it reads through checked slices.
        return unsafe { avx2::add_max_abs_bits(acc, xs) };
    }
    add_max_abs_bits_body(acc, xs)
}

/// The body of [`add_max_abs_bits`], inlined into each instantiation:
/// [`BLOCK`] elements at a time, folded over as many lanes (which the
/// compiler widens), and the short tail one at a time.
#[inline(always)]
fn add_max_abs_bits_body(acc: &mut [f32], xs: &[f32]) -> u32 {
    assert_eq!(acc.len(), xs.len(), "one term per element");
    let mut lanes = [0u32; BLOCK];
    let mut acc_blocks = acc.chunks_exact_mut(BLOCK);
    let mut xs_blocks = xs.chunks_exact(BLOCK);
    for (o, x) in (&mut acc_blocks).zip(&mut xs_blocks) {
        let (o, x) = (o.try_into().expect("BLOCK"), x.try_into().expect("BLOCK"));
        add_fold::<BLOCK>(o, x, &mut lanes);
    }
    let tail = acc_blocks.into_remainder().iter_mut();
    for (o, x) in tail.zip(xs_blocks.remainder()) {
        add_fold::<1>(std::array::from_mut(o), std::array::from_ref(x), &mut lanes);
    }
    lanes.into_iter().max().unwrap_or(0)
}

/// Adds `xs` into `acc` element by element, one IEEE add each, and returns
/// the largest magnitude `acc` holds afterwards — a non-finite value if
/// any element is infinite or NaN. The epilogue of
/// [`Tensor::matmul_tn_add_into`], for gradients formed elsewhere (a bias's
/// column sums, a batch norm's reductions).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_max_abs(acc: &mut [f32], xs: &[f32]) -> f32 {
    f32::from_bits(add_max_abs_bits(acc, xs))
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
fn gemm_nt(dims: (usize, usize, usize), a: &[f32], b: &[f32]) -> Vec<f32> {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: `avx2_detected()` saw the feature, the only thing the
        // instantiation requires; it reads through checked slices.
        return unsafe { avx2::gemm_nt(dims, a, b) };
    }
    gemm_nt_body(dims, a, b)
}

/// The body of [`gemm_nt`], inlined into each instantiation.
#[inline(always)]
fn gemm_nt_body((m, n, k): (usize, usize, usize), a: &[f32], b: &[f32]) -> Vec<f32> {
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
        let dims = self.tn_dims(other, out)?;
        let out = out.as_mut_slice();
        out.fill(0.0);
        gemm_into::<false>(dims, self.as_slice(), (1, dims.0), other.as_slice(), out);
        Ok(())
    }

    /// Adds [`matmul_tn`](Tensor::matmul_tn) into `acc`, an `[m, n]` tensor:
    /// `acc[e] += (selfᵀ · other)[e]`, each product element the sum
    /// `matmul_tn` forms, added once, so `acc` ends bit-identical to adding
    /// `matmul_tn`'s result to it element by element — without the product
    /// ever being stored. Returns the largest magnitude `acc` holds
    /// afterwards, folded on the way out: a non-finite value if any element
    /// is infinite or NaN.
    ///
    /// # Errors
    ///
    /// As [`matmul_tn_into`](Tensor::matmul_tn_into); `acc` is untouched on
    /// error.
    pub fn matmul_tn_add_into(&self, other: &Tensor, acc: &mut Tensor) -> Result<f32, TensorError> {
        let dims = self.tn_dims(other, acc)?;
        let bits = gemm_into::<true>(
            dims,
            self.as_slice(),
            (1, dims.0),
            other.as_slice(),
            acc.as_mut_slice(),
        );
        Ok(f32::from_bits(bits))
    }

    /// The `(m, n, k)` of `selfᵀ · other` into `out`, checked.
    fn tn_dims(&self, other: &Tensor, out: &Tensor) -> Result<(usize, usize, usize), TensorError> {
        let (k, m) = matrix_dims(self)?;
        let (k2, n) = matrix_dims(other)?;
        check_inner(k, k2)?;
        if out.shape().dims() != [m, n] {
            return Err(TensorError::ShapeMismatch {
                left: vec![m, n],
                right: out.shape().dims().to_vec(),
            });
        }
        Ok((m, n, k))
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
                gemm_split::<false>(parts, (m, n, k), &a, strides, &b, &mut out);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let one = run(1);
            for parts in [2, 3, 4, m + 1] {
                assert_eq!(run(parts), one, "{parts} parts, {strides:?}");
            }
        }
    }

    /// Fan-outs either side of one and two register blocks ([`BLOCK`]) and
    /// of a panel's width, each with a ragged tail of [`LANES`] and
    /// narrower blocks after its last whole block; and every tail narrower
    /// than [`LANES`], alone and after eight-wide blocks (the head's ten).
    const BLOCK_EDGES: [usize; 19] = [
        1, 2, 3, 4, 5, 6, 7, 9, 10, 15, 63, 64, 65, 71, 127, 128, 129, 257, 263,
    ];

    /// Inner depths at the block edges: both training batches and one
    /// deeper than a panel.
    const DEPTHS: [usize; 3] = [8, 32, 70];

    /// The baseline instantiation of the nests over `m ≤ MC` rows, one
    /// block, whatever this CPU would run.
    fn baseline<const ADD: bool>(
        (m, n, k): (usize, usize, usize),
        a: &[f32],
        strides: (usize, usize),
        b: &[f32],
        out: &mut [f32],
    ) -> u32 {
        assert!(m <= MC, "one row block");
        if !ADD {
            let mut panel = vec![0.0f32; KC.min(k) * NC.min(n)];
            gemm_rows_body((m, n, k), a, strides, b, out, &mut panel);
            return 0;
        }
        gemm_rows_add_body((m, n, k), a, strides, b, out)
    }

    #[test]
    fn the_avx2_instantiation_gives_the_baseline_bits() {
        if !avx2_detected() {
            eprintln!("SKIPPED: this CPU has no AVX2; only the baseline instantiation runs");
            return;
        }
        use rand::Rng as _;
        let mut rng = crate::rng(31);
        // ReLU zeros, both zeros, subnormals of both signs, magnitudes far
        // enough apart that any reassociation changes a rounding.
        let value = |rng: &mut crate::Rng| match rng.gen_range(0..8u32) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
            4 => -f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
            5 => rng.gen_range(-1e12f32..1e12),
            _ => rng.gen_range(-2.0f32..2.0),
        };
        // A NaN is compared by position, any payload.
        let bits = |xs: &[f32]| {
            xs.iter()
                .map(|x| (!x.is_nan()).then(|| x.to_bits()))
                .collect::<Vec<_>>()
        };
        // Either side of a panel's height and width, of the eight-wide
        // lanes, and of one and two register blocks at every depth.
        let edges = BLOCK_EDGES.iter().flat_map(|&n| DEPTHS.map(|k| (k, n)));
        let shapes: Vec<_> = [(1, 1), (31, 255), (32, 256), (33, 257), (65, 9), (7, 520)]
            .into_iter()
            .chain(edges)
            .collect();
        for m in [1, 7, 8, 9, 16, 32, 33] {
            for &(k, n) in &shapes {
                let a: Vec<f32> = (0..m * k).map(|_| value(&mut rng)).collect();
                let b: Vec<f32> = (0..k * n).map(|_| value(&mut rng)).collect();
                // matmul and matmul_tn: the nest's two left addressings,
                // one row block of one part.
                for strides in [(k, 1), (1, m)] {
                    let mut want = vec![0.0f32; m * n];
                    baseline::<false>((m, n, k), &a, strides, &b, &mut want);
                    let got = gemm((m, n, k), &a, strides, &b);
                    assert_eq!(bits(&got), bits(&want), "m {m} k {k} n {n} {strides:?}");
                }
                // matmul_nt skips nothing: infinities and NaNs in the right
                // operand meet zero left factors too.
                let w: Vec<f32> = b
                    .iter()
                    .map(|&x| match rng.gen_range(0..16u32) {
                        0 => f32::INFINITY,
                        1 => f32::NEG_INFINITY,
                        2 => f32::NAN,
                        _ => x,
                    })
                    .collect();
                let got = gemm_nt((m, n, k), &a, &w);
                let want = gemm_nt_body((m, n, k), &a, &w);
                assert_eq!(bits(&got), bits(&want), "nt: m {m} k {k} n {n}");
                // The add-into nest, `matmul_tn`'s addressing, from the
                // right operand in place into a residual, with the same
                // infinities and NaNs.
                let acc: Vec<f32> = (0..m * n).map(|_| value(&mut rng)).collect();
                let mut want = acc.clone();
                let want_max = baseline::<true>((m, n, k), &a, (1, m), &w, &mut want);
                let mut got = acc;
                let got_max = gemm_rows_add((m, n, k), &a, (1, m), &w, &mut got);
                assert_eq!(bits(&got), bits(&want), "add: m {m} k {k} n {n}");
                if want_max <= f32::INFINITY.to_bits() {
                    assert_eq!(got_max, want_max, "add max: m {m} k {k} n {n}");
                } else {
                    assert!(
                        got_max > f32::INFINITY.to_bits(),
                        "add NaN: m {m} k {k} n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_add_into_epilogue_adds_the_written_product_once() {
        use rand::Rng as _;
        let mut rng = crate::rng(47);
        let normal = |rng: &mut crate::Rng| rng.gen_range(-2.0f32..2.0);
        // A NaN is compared by position, any payload.
        let bits = |xs: &[f32]| {
            xs.iter()
                .map(|x| (!x.is_nan()).then(|| x.to_bits()))
                .collect::<Vec<_>>()
        };
        // (batch, fan-in, fan-out): ragged against the panel and the lanes,
        // batches either side of one panel's height, a fan-in over a row
        // block, and a training step's thin batch; then every fan-out at a
        // register block's edge at both training batches and a deeper one.
        let edges = BLOCK_EDGES.iter().flat_map(|&n| DEPTHS.map(|k| (k, 20, n)));
        let shapes = [
            (1, 1, 1),
            (8, 192, 300),
            (8, 33, 257),
            (31, 7, 9),
            (32, 70, 513),
            (33, 9, 40),
            (70, 130, 17),
        ];
        for (k, m, n) in shapes.into_iter().chain(edges) {
            // A ReLU output (half zeros, whole dead columns) against an output
            // gradient with the odd infinity or NaN.
            let x: Vec<f32> = (0..k * m)
                .map(|e| match rng.gen_range(0..2u32) {
                    _ if e % m == 3 => 0.0,
                    0 => 0.0,
                    _ => normal(&mut rng).abs(),
                })
                .collect();
            let dy: Vec<f32> = (0..k * n)
                .map(|_| match rng.gen_range(0..64u32) {
                    0 => f32::INFINITY,
                    1 => f32::NEG_INFINITY,
                    2 => f32::NAN,
                    _ => normal(&mut rng),
                })
                .collect();
            // A residual with both zeros and subnormals in it.
            let acc: Vec<f32> = (0..m * n)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                    _ => normal(&mut rng) * 1e-3,
                })
                .collect();
            let (x, dy) = (Tensor::from_vec(x, [k, m]), Tensor::from_vec(dy, [k, n]));

            // The written product, then the codec's accumulate: `acc + g`
            // element by element, max |·| folded over the result.
            let mut grad = Tensor::full([m, n], f32::NAN);
            x.matmul_tn_into(&dy, &mut grad).unwrap();
            let want: Vec<f32> = acc
                .iter()
                .zip(grad.as_slice())
                .map(|(a, g)| a + g)
                .collect();
            let want_max = want.iter().map(|v| v.to_bits() & ABS).max().unwrap_or(0);
            let check = |got: &[f32], got_max: u32, what: &str| {
                assert_eq!(bits(got), bits(&want), "{what}: k {k} m {m} n {n}");
                if want_max < f32::INFINITY.to_bits() {
                    assert_eq!(got_max, want_max, "{what}: max, k {k} m {m} n {n}");
                } else {
                    assert!(got_max >= f32::INFINITY.to_bits(), "{what}: finiteness");
                }
            };

            let mut got = Tensor::from_vec(acc.clone(), [m, n]);
            let got_max = x.matmul_tn_add_into(&dy, &mut got).unwrap();
            check(got.as_slice(), got_max.to_bits(), "dispatched");
            if m <= MC {
                let mut got = acc.clone();
                let max =
                    baseline::<true>((m, n, k), x.as_slice(), (1, m), dy.as_slice(), &mut got);
                check(&got, max, "baseline");
            }
            // Split over parts, as a product large enough to be worth it is.
            let mut got = acc.clone();
            let max =
                gemm_split::<true>(3, (m, n, k), x.as_slice(), (1, m), dy.as_slice(), &mut got);
            check(&got, max, "three parts");
            let mut standalone = acc.clone();
            let max = add_max_abs(&mut standalone, grad.as_slice());
            check(&standalone, max.to_bits(), "add_max_abs");
        }
        let mut wrong = Tensor::zeros([2, 2]);
        assert_eq!(
            Tensor::zeros([3, 2]).matmul_tn_add_into(&Tensor::zeros([3, 3]), &mut wrong),
            Err(TensorError::ShapeMismatch {
                left: vec![2, 3],
                right: vec![2, 2]
            })
        );
    }

    #[test]
    fn add_max_abs_folds_every_length_to_its_exact_max() {
        use rand::Rng as _;
        let mut rng = crate::rng(53);
        // Empty, one element, either side of a block, and many blocks with a
        // ragged tail; each all finite, then with an infinity, then a NaN,
        // at a position that moves from case to case.
        for len in [0, 1, 63, 64, 65, 10_243] {
            for plant in [None, Some(f32::NEG_INFINITY), Some(f32::NAN)] {
                let mut xs: Vec<f32> = (0..len)
                    .map(|_| match rng.gen_range(0..8u32) {
                        0 => -0.0,
                        1 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                        _ => rng.gen_range(-1e3f32..1e3),
                    })
                    .collect();
                let acc: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                if let (Some(v), false) = (plant, xs.is_empty()) {
                    let at = rng.gen_range(0..len);
                    xs[at] = v;
                }
                let want: Vec<f32> = acc.iter().zip(&xs).map(|(a, x)| a + x).collect();
                let want_max = want.iter().map(|v| v.to_bits() & ABS).max().unwrap_or(0);
                let mut got = acc.clone();
                let got_max = add_max_abs(&mut got, &xs).to_bits();
                for (e, (g, w)) in got.iter().zip(&want).enumerate() {
                    if w.is_nan() {
                        assert!(g.is_nan(), "len {len} at {e}: {g} where NaN");
                    } else {
                        assert_eq!(g.to_bits(), w.to_bits(), "len {len} at {e}");
                    }
                }
                if want_max <= f32::INFINITY.to_bits() {
                    assert_eq!(got_max, want_max, "len {len} {plant:?}: max");
                } else {
                    assert!(got_max > f32::INFINITY.to_bits(), "len {len}: NaN max");
                }
                // The baseline body, whatever this CPU would run.
                let mut base = acc;
                assert_eq!(add_max_abs_bits_body(&mut base, &xs), got_max, "len {len}");
                assert_eq!(
                    base.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "len {len}: body"
                );
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
