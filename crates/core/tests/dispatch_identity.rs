//! Differential property tests pinning every codec implementation tier
//! (scalar / SWAR / SIMD) to bit-identical behavior.
//!
//! The contract (DESIGN.md §14): the tiers differ only in speed. On any
//! input — including adversarial floats (NaN, infinities, subnormals,
//! signed zeros), all-zero and no-zero tensors, and lengths straddling
//! the 5-symbol quartic boundary and the 8-byte word / 32-byte vector
//! chunk edges — every available tier must produce byte-identical wire
//! payloads, bit-identical error-accumulation buffers, identical ternary
//! values, and *identical errors at identical offsets* on corrupted
//! input. The scalar tier is the reference; SWAR and SIMD are checked
//! against it pairwise.

use proptest::prelude::*;
use std::ops::Range;
use threelc::kernels::{self, DequantOp};
use threelc::{
    quartic, sizing, tlq::TernaryTensor, zrle, CodecImpl, Compressor, SparsityMultiplier,
    ThreeLcCompressor, ThreeLcOptions,
};
use threelc_tensor::Tensor;

fn available_tiers() -> Vec<CodecImpl> {
    CodecImpl::ALL
        .into_iter()
        .filter(|i| i.is_available())
        .collect()
}

/// Floats chosen to stress the quantization bit tricks: signed zeros,
/// subnormals, values hugging the 0.5·M rounding threshold, and ordinary
/// gradient-like magnitudes.
fn adversarial_floats(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![
            Just(0.0f32),
            Just(-0.0f32),
            Just(0.0f32), // extra zero weight → long zero runs
            (1u32..0x0080_0000).prop_map(f32::from_bits), // positive subnormals
            (1u32..0x0080_0000).prop_map(|b| -f32::from_bits(b)), // negative subnormals
            -1.0f32..1.0,
            -0.01f32..0.01,
            Just(0.5f32),
            Just(-0.5f32),
            Just(1.0f32),
            Just(f32::MIN_POSITIVE),
            Just(f32::MAX),
        ],
        1..max_len,
    )
}

/// Ternary value vectors with lengths that straddle the 5-symbol quartic
/// boundary and the kernels' 8-wide word blocks.
fn ternary_vec() -> impl Strategy<Value = Vec<i8>> {
    prop::collection::vec(-1i8..=1, 0..120)
}

/// Quartic-ish byte streams: mostly valid bytes with zero-run structure,
/// sometimes corrupted with out-of-range bytes (> 242).
fn quartic_stream(corrupt: bool) -> impl Strategy<Value = Vec<u8>> {
    let arm = if corrupt {
        prop_oneof![
            Just(quartic::ZERO_BYTE),
            Just(quartic::ZERO_BYTE),
            Just(quartic::ZERO_BYTE),
            0u8..=quartic::MAX_QUARTIC_BYTE,
            243u8..=255, // invalid
        ]
        .boxed()
    } else {
        prop_oneof![
            Just(quartic::ZERO_BYTE),
            Just(quartic::ZERO_BYTE),
            Just(quartic::ZERO_BYTE),
            0u8..=quartic::MAX_QUARTIC_BYTE,
        ]
        .boxed()
    };
    prop::collection::vec(arm, 0..200)
}

fn options() -> impl Strategy<Value = ThreeLcOptions> {
    ((1.0f32..1.999), any::<bool>(), any::<bool>()).prop_map(|(s, zre, ea)| ThreeLcOptions {
        sparsity: SparsityMultiplier::new(s).expect("in range"),
        zero_run_encoding: zre,
        error_accumulation: ea,
    })
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The four fused ops, with averaging factors a step would use.
fn all_ops() -> [DequantOp; 6] {
    [
        DequantOp::Assign,
        DequantOp::Add,
        DequantOp::AssignScaled(0.5),
        DequantOp::AddScaled(0.5),
        DequantOp::AssignScaled(1.0 / 3.0),
        DequantOp::AddScaled(1.0 / 3.0),
    ]
}

/// What `op` must leave in `acc`, by the two-pass oracle on the scalar
/// tier: `dequant_assign` / `dequant_add` of the stored symbols, then the
/// averaging sweep `x · k` as its own pass.
fn oracle_apply(syms: &[i8], scale: f32, op: DequantOp, acc: &mut [f32]) {
    let (add, k) = match op {
        DequantOp::Assign => (false, None),
        DequantOp::Add => (true, None),
        DequantOp::AssignScaled(k) => (false, Some(k)),
        DequantOp::AddScaled(k) => (true, Some(k)),
    };
    if add {
        kernels::dequant_add(CodecImpl::Scalar, syms, scale, acc);
    } else {
        kernels::dequant_assign(CodecImpl::Scalar, syms, scale, acc);
    }
    if let Some(k) = k {
        acc.iter_mut().for_each(|x| *x *= k);
    }
}

/// `unpack_dequant` on every tier against `quartic::decode_into_impl` +
/// [`oracle_apply`], by bit pattern, for every op, from the accumulator
/// contents `start`.
fn assert_unpack_dequant_matches_oracle(bytes: &[u8], n: usize, scale: f32, start: &[f32]) {
    let mut syms = Vec::new();
    quartic::decode_into_impl(CodecImpl::Scalar, bytes, n, &mut syms).expect("valid stream");
    for op in all_ops() {
        let mut want = start.to_vec();
        oracle_apply(&syms, scale, op, &mut want);
        for imp in available_tiers() {
            let mut got = start.to_vec();
            kernels::unpack_dequant(imp, bytes, scale, op, &mut got);
            assert_eq!(
                bits(&got),
                bits(&want),
                "n={n} scale={scale:e} {op:?} on {imp}"
            );
        }
    }
}

proptest! {
    #[test]
    fn quantize_is_identical_on_every_tier(v in adversarial_floats(300), s in 1.0f32..1.999) {
        let input = Tensor::from_slice(&v);
        let s = SparsityMultiplier::new(s).expect("in range");
        let want = TernaryTensor::quantize_impl(CodecImpl::Scalar, &input, s);
        for imp in available_tiers() {
            let got = TernaryTensor::quantize_impl(imp, &input, s);
            match (&want, &got) {
                (Ok(a), Ok(b)) => {
                    prop_assert!(a.values() == b.values(), "values diverged on {}", imp);
                    prop_assert!(a.scale().to_bits() == b.scale().to_bits(), "scale diverged on {}", imp);
                }
                (Err(a), Err(b)) => prop_assert!(a == b, "errors diverged on {}", imp),
                _ => prop_assert!(false, "outcome diverged on {}: {:?} vs {:?}", imp, want, got),
            }
        }
    }

    #[test]
    fn quantize_rejects_non_finite_on_every_tier(
        v in adversarial_floats(60),
        poison_idx in 0usize..60,
        poison in prop_oneof![
            Just(f32::NAN), Just(-f32::NAN), Just(f32::INFINITY), Just(f32::NEG_INFINITY)
        ],
    ) {
        let mut v = v;
        let idx = poison_idx % v.len();
        v[idx] = poison;
        let input = Tensor::from_slice(&v);
        let s = SparsityMultiplier::default();
        for imp in available_tiers() {
            let got = TernaryTensor::quantize_impl(imp, &input, s);
            prop_assert!(got.is_err(), "{} accepted non-finite input", imp);
        }
    }

    #[test]
    fn quartic_encode_is_identical_on_every_tier(values in ternary_vec()) {
        let want = quartic::encode_impl(CodecImpl::Scalar, &values);
        for imp in available_tiers() {
            prop_assert!(
                quartic::encode_impl(imp, &values) == want,
                "quartic bytes diverged on {}", imp
            );
        }
    }

    #[test]
    fn zrle_is_identical_on_every_tier_including_error_offsets(
        stream in quartic_stream(true),
    ) {
        let mut want_runs = Vec::new();
        let want = zrle::encode_with_runs_impl(CodecImpl::Scalar, &stream, |r| want_runs.push(r));
        for imp in available_tiers() {
            let mut got_runs = Vec::new();
            let got = zrle::encode_with_runs_impl(imp, &stream, |r| got_runs.push(r));
            match (&want, &got) {
                (Ok(a), Ok(b)) => {
                    prop_assert!(a == b, "ZRE bytes diverged on {}", imp);
                    prop_assert!(got_runs == want_runs, "run reports diverged on {}", imp);
                }
                // Identical error *values*, which carry byte and offset.
                (Err(a), Err(b)) => prop_assert!(a == b, "ZRE errors diverged on {}", imp),
                _ => prop_assert!(false, "outcome diverged on {}: {:?} vs {:?}", imp, want, got),
            }
        }
    }

    #[test]
    fn compress_wire_and_residual_are_identical_on_every_tier(
        v in adversarial_floats(700),
        opts in options(),
    ) {
        let input = Tensor::from_slice(&v);
        // Three steps so error-accumulation divergence would compound.
        let mut tiers: Vec<(CodecImpl, ThreeLcCompressor)> = available_tiers()
            .into_iter()
            .map(|imp| {
                let cx = ThreeLcCompressor::with_options(input.shape().clone(), opts)
                    .with_codec_impl(imp);
                (imp, cx)
            })
            .collect();
        for step in 0..3 {
            // Compress can legitimately fail at step ≥ 1: an
            // inf-overflowed scale leaves NaN in the EA buffer, which
            // the next accumulate rejects as NonFiniteInput. Tiers
            // must agree on the full outcome, success or error.
            let mut want = None;
            for (imp, cx) in tiers.iter_mut() {
                let wire = cx.compress(&input);
                match &want {
                    None => want = Some(wire),
                    Some(w) => prop_assert!(w == &wire, "wire diverged on {} (step={})", imp, step),
                }
            }
            // Compare residual *bit patterns*: f32 equality would
            // false-alarm on NaN residuals (scale can overflow to
            // +inf on f32::MAX inputs, making 0·scale = NaN), which
            // must still be bit-identical across tiers.
            let residuals: Vec<Option<Vec<u32>>> = tiers
                .iter()
                .map(|(_, cx)| {
                    cx.residual()
                        .map(|r| r.as_slice().iter().map(|f| f.to_bits()).collect())
                })
                .collect();
            for (i, r) in residuals.iter().enumerate().skip(1) {
                prop_assert!(
                    r == &residuals[0],
                    "residual diverged on {} (step={})",
                    tiers[i].0, step
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn aggregate_kernels_are_identical_on_every_tier(
        workers in prop::collection::vec(ternary_vec(), 1..6),
        scale_bits in prop_oneof![
            Just(0.0f32), Just(-0.0f32), Just(1.0f32), Just(0.125f32),
            (1u32..0x0080_0000).prop_map(f32::from_bits), // subnormal scales
            -2.0f32..2.0,
        ],
    ) {
        // All workers share the shortest length so they aggregate the
        // same tensor.
        let n = workers.iter().map(Vec::len).min().unwrap_or(0);
        let workers: Vec<&[i8]> = workers.iter().map(|w| &w[..n]).collect();
        let scale = scale_bits;

        // Reference: scalar dequant assign-then-add in worker order.
        let mut want = vec![0f32; n];
        for (w, syms) in workers.iter().enumerate() {
            if w == 0 {
                kernels::dequant_assign(CodecImpl::Scalar, syms, scale, &mut want);
            } else {
                kernels::dequant_add(CodecImpl::Scalar, syms, scale, &mut want);
            }
        }
        let want_bits: Vec<u32> = want.iter().map(|f| f.to_bits()).collect();
        for imp in available_tiers() {
            let mut got = vec![0f32; n];
            for (w, syms) in workers.iter().enumerate() {
                if w == 0 {
                    kernels::dequant_assign(imp, syms, scale, &mut got);
                } else {
                    kernels::dequant_add(imp, syms, scale, &mut got);
                }
            }
            let got_bits: Vec<u32> = got.iter().map(|f| f.to_bits()).collect();
            prop_assert!(got_bits == want_bits, "dequant diverged on {}", imp);
        }
    }

    #[test]
    fn unpack_dequant_matches_the_two_pass_oracle_on_every_tier(
        stream in quartic_stream(false),
        short in 0usize..5,
        scale in prop_oneof![
            Just(0.0f32), Just(-0.0f32), Just(1.0f32), Just(f32::MAX), Just(-f32::MAX),
            (1u32..0x0080_0000).prop_map(f32::from_bits), // subnormal scales
            (1u32..0x0080_0000).prop_map(|b| -f32::from_bits(b)),
            -2.0f32..2.0,
        ],
        start in adversarial_floats(1001),
    ) {
        // Up to four values short of five per byte: the last planes end
        // early.
        let n = (stream.len() * 5).saturating_sub(short);
        let start: Vec<f32> = start.iter().copied().cycle().take(n).collect();
        assert_unpack_dequant_matches_oracle(&stream, n, scale, &start);
    }

    #[test]
    fn symbol_decode_matches_decompress_bit_for_bit(
        v in adversarial_floats(400),
        opts in options(),
    ) {
        // decompress_symbols must expose exactly the (symbols, scale) pair
        // decompress dequantizes: syms[e] as f32 * scale == tensor[e],
        // bit for bit, on every tier.
        let input = Tensor::from_slice(&v);
        for imp in available_tiers() {
            let mut cx = ThreeLcCompressor::with_options(input.shape().clone(), opts)
                .with_codec_impl(imp);
            let wire = match cx.compress(&input) {
                Ok(w) => w,
                Err(_) => continue, // non-finite input rejected; nothing to decode
            };
            let mut syms = Vec::new();
            // A scale that overflowed to +inf at encode time makes *both*
            // entry points reject the payload with the identical error.
            match (cx.decompress(&wire), cx.decompress_symbols(&wire, &mut syms)) {
                (Ok(dense), Ok(Some(scale))) => {
                    prop_assert!(syms.len() == dense.len());
                    for (e, (&s, &x)) in syms.iter().zip(dense.as_slice()).enumerate() {
                        prop_assert!((-1..=1).contains(&s), "non-ternary symbol at {}", e);
                        prop_assert!(
                            (s as f32 * scale).to_bits() == x.to_bits(),
                            "symbol {} · scale diverged from dense decode at {} on {}", s, e, imp
                        );
                    }
                    // The fused decode is that pair put through the op,
                    // from an accumulator holding the input itself.
                    for op in all_ops() {
                        let mut want = v.clone();
                        oracle_apply(&syms, scale, op, &mut want);
                        let mut got = v.clone();
                        cx.decode_into(&wire, op, &mut got).expect("decompress accepted it");
                        prop_assert!(
                            bits(&got) == bits(&want),
                            "decode_into {:?} diverged from the symbol oracle on {}", op, imp
                        );
                    }
                }
                (Err(a), Err(b)) => prop_assert!(a == b, "errors diverged on {}", imp),
                (d, s) => prop_assert!(false, "outcomes diverged on {}: {:?} vs {:?}", imp, d, s),
            }
        }
    }
}

#[test]
fn symbol_decode_errors_match_decompress_errors() {
    // Corrupt a real payload byte-by-byte: the symbol entry point must
    // report exactly the error decompress reports (same variant, same
    // offsets), or succeed with the matching symbols, on every tier.
    let n = 350usize;
    let mut r = threelc_tensor::rng(41);
    use rand::Rng as _;
    let v: Vec<f32> = (0..n)
        .map(|_| {
            if r.gen_bool(0.7) {
                0.0
            } else {
                r.gen_range(-1.0f32..1.0)
            }
        })
        .collect();
    let input = Tensor::from_slice(&v);
    let mut cx = ThreeLcCompressor::new(input.shape().clone(), SparsityMultiplier::default());
    let wire = cx.compress(&input).unwrap();
    for pos in 0..wire.len() {
        let mut bad = wire.clone();
        bad[pos] ^= 0xa5;
        for imp in available_tiers() {
            let cx = ThreeLcCompressor::new(input.shape().clone(), SparsityMultiplier::default())
                .with_codec_impl(imp);
            let dense = cx.decompress(&bad);
            let mut syms = Vec::new();
            let symbolic = cx.decompress_symbols(&bad, &mut syms);
            match (dense, symbolic) {
                (Ok(t), Ok(Some(scale))) => {
                    for (e, (&s, &x)) in syms.iter().zip(t.as_slice()).enumerate() {
                        assert_eq!(
                            (s as f32 * scale).to_bits(),
                            x.to_bits(),
                            "byte {pos} elem {e} on {imp}"
                        );
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "byte {pos} on {imp}"),
                (d, s) => panic!("byte {pos} on {imp}: outcomes diverged: {d:?} vs {s:?}"),
            }
        }
    }
}

#[test]
fn all_tiers_handle_boundary_straddling_lengths() {
    // Deterministic sweep over every length around the 5-symbol quartic
    // boundary, the kernels' 8-wide word blocks, and the 32-byte vector
    // blocks.
    let mut r = threelc_tensor::rng(29);
    use rand::Rng as _;
    let lens: Vec<usize> = (1..=48)
        .chain([
            63, 64, 65, 79, 80, 81, 127, 128, 129, 159, 160, 161, 255, 256, 257,
        ])
        .collect();
    for n in lens {
        let v: Vec<f32> = (0..n)
            .map(|_| {
                if r.gen_bool(0.5) {
                    0.0
                } else {
                    r.gen_range(-1.0f32..1.0)
                }
            })
            .collect();
        let input = Tensor::from_slice(&v);
        let mut want: Option<(Vec<u8>, Vec<u32>)> = None;
        for imp in available_tiers() {
            let mut cx = ThreeLcCompressor::new(
                input.shape().clone(),
                SparsityMultiplier::new(1.5).unwrap(),
            )
            .with_codec_impl(imp);
            let wire = cx.compress(&input).unwrap();
            let residual: Vec<u32> = cx
                .residual()
                .unwrap()
                .as_slice()
                .iter()
                .map(|f| f.to_bits())
                .collect();
            match &want {
                None => want = Some((wire, residual)),
                Some((w, res)) => {
                    assert_eq!(&wire, w, "n={n} {imp}");
                    assert_eq!(&residual, res, "n={n} {imp}");
                }
            }
        }
    }
}

#[test]
fn all_zero_and_no_zero_tensors_are_identical_on_every_tier() {
    for input in [
        Tensor::zeros([997]),
        Tensor::from_vec(vec![0.7f32; 997], [997]),
        Tensor::from_vec(
            (0..997)
                .map(|i| if i % 2 == 0 { 0.9 } else { -0.9 })
                .collect(),
            [997],
        ),
    ] {
        let mut want: Option<Vec<u8>> = None;
        for imp in available_tiers() {
            let mut cx =
                ThreeLcCompressor::new(input.shape().clone(), SparsityMultiplier::default())
                    .with_codec_impl(imp);
            let wire = cx.compress(&input).unwrap();
            match &want {
                None => want = Some(wire),
                Some(w) => assert_eq!(&wire, w, "{imp}"),
            }
        }
    }
}

#[test]
fn subnormal_scale_corner_is_identical_and_valid_on_every_tier() {
    // max|x|·s subnormal → 1/M overflows to +inf. The historical
    // `round() as i8` saturated to ±127 here (invalid ternary, debug
    // panic downstream); the comparison-form kernels clamp to ±1 on every
    // tier. Pin both the fix and cross-tier identity.
    let v = vec![
        f32::from_bits(1),
        -f32::from_bits(3),
        0.0,
        f32::from_bits(2),
    ];
    let input = Tensor::from_slice(&v);
    let s = SparsityMultiplier::default();
    let want = TernaryTensor::quantize_impl(CodecImpl::Scalar, &input, s).unwrap();
    assert!(want.values().iter().all(|q| (-1..=1).contains(q)));
    assert!(
        want.values().iter().any(|&q| q != 0),
        "nonzero inputs must survive"
    );
    for imp in available_tiers() {
        let got = TernaryTensor::quantize_impl(imp, &input, s).unwrap();
        assert_eq!(got.values(), want.values(), "{imp}");
        assert_eq!(got.scale().to_bits(), want.scale().to_bits(), "{imp}");
        // The full pipeline stays well-formed too.
        let mut cx = ThreeLcCompressor::new(input.shape().clone(), s).with_codec_impl(imp);
        let wire = cx.compress(&input).unwrap();
        cx.decompress(&wire).unwrap();
    }
}

#[test]
fn unpack_dequant_handles_short_planes_and_block_edges_on_every_tier() {
    // Every value count from 0 through two 16-byte vector blocks and the
    // edges of the third: n = 1, 6, 11 leave planes 3 and 4 (or all but
    // plane 0) empty, 79 / 80 / 81 straddle the first full block.
    let mut r = threelc_tensor::rng(43);
    use rand::Rng as _;
    let scales = [
        0.0f32,
        -0.0,
        0.375,
        -1.5,
        f32::from_bits(5),
        -f32::from_bits(5),
        f32::MAX,
    ];
    for n in (0..=170usize).chain([239, 240, 241, 1279, 1280, 1281]) {
        let bytes: Vec<u8> = (0..n.div_ceil(5))
            .map(|_| match r.gen_range(0..4) {
                0 => quartic::ZERO_BYTE,
                1 => quartic::MAX_QUARTIC_BYTE,
                2 => 0,
                _ => r.gen_range(0u8..=quartic::MAX_QUARTIC_BYTE),
            })
            .collect();
        // Accumulators holding both zeros: `-0.0 + 0.0` and `0.0 + -0.0`
        // are where an add in the wrong order or a skipped one shows.
        let start: Vec<f32> = (0..n)
            .map(|e| match e % 3 {
                0 => 0.0,
                1 => -0.0,
                _ => r.gen_range(-1.0f32..1.0),
            })
            .collect();
        for scale in scales {
            assert_unpack_dequant_matches_oracle(&bytes, n, scale, &start);
        }
    }
}

/// The five planes `ranges` (ascending, disjoint) name inside `xs`.
fn planes_at<'a>(mut xs: &'a mut [f32], ranges: &[Range<usize>; 5]) -> [&'a mut [f32]; 5] {
    let mut pos = 0;
    ranges.clone().map(|r| {
        let (_, rest) = std::mem::take(&mut xs).split_at_mut(r.start - pos);
        let (plane, rest) = rest.split_at_mut(r.len());
        xs = rest;
        pos = r.end;
        plane
    })
}

#[test]
fn plane_kernel_on_byte_sub_strips_is_identical_on_every_tier() {
    // A parameter server's fused sweep decodes a payload a strip of bytes
    // at a time (`sizing::strip_planes`): planes that start mid-tensor
    // (and off any vector alignment), a short or empty last plane where
    // the tensor ends inside the strip, a short final strip. Cut at every
    // width and first offset below, the strips must leave exactly what the
    // whole-tensor decode leaves, on every tier.
    let mut r = threelc_tensor::rng(44);
    use rand::Rng as _;
    for n in [1usize, 6, 11, 79, 80, 81, 97, 241, 1281, 5 * 64 + 3] {
        let len = n.div_ceil(5);
        let bytes: Vec<u8> = (0..len)
            .map(|_| match r.gen_range(0..3) {
                0 => quartic::ZERO_BYTE,
                1 => 0,
                _ => r.gen_range(0u8..=quartic::MAX_QUARTIC_BYTE),
            })
            .collect();
        let start: Vec<f32> = (0..n)
            .map(|e| match e % 3 {
                0 => 0.0,
                1 => -0.0,
                _ => r.gen_range(-1.0f32..1.0),
            })
            .collect();
        for scale in [0.375f32, -0.0, f32::from_bits(5)] {
            for op in all_ops() {
                let mut want = start.clone();
                kernels::unpack_dequant(CodecImpl::Scalar, &bytes, scale, op, &mut want);
                for imp in available_tiers() {
                    for width in [1usize, 3, 16, 17, 33, len] {
                        for first in [0, 1, 5.min(len)] {
                            // One strip of `first` bytes, then `width`s.
                            let mut cuts = vec![0];
                            cuts.extend((first..len).step_by(width));
                            cuts.push(len);
                            cuts.dedup();
                            let mut got = start.clone();
                            for pair in cuts.windows(2) {
                                let strip = pair[0]..pair[1];
                                let ranges = sizing::strip_planes(n, strip.clone());
                                kernels::unpack_dequant_planes(
                                    imp,
                                    &bytes[strip],
                                    scale,
                                    op,
                                    &mut planes_at(&mut got, &ranges),
                                );
                            }
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "n={n} scale={scale:e} {op:?} on {imp}, width {width} after {first}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "quartic bytes must match output length")]
fn unpack_dequant_rejects_a_byte_count_that_is_not_the_outputs() {
    // Checked by the safe wrapper on every tier, release builds included,
    // before any kernel sees the slices.
    kernels::unpack_dequant(
        CodecImpl::best_available(),
        &[121; 4],
        1.0,
        DequantOp::Add,
        &mut [0.0; 21],
    );
}

#[test]
fn corrupted_wire_errors_identically_on_every_tier() {
    // Corrupt a real payload body byte-by-byte; decode must fail (or
    // succeed) identically under every tier-pinned compressor. Decode is
    // shared code, but this pins the end-to-end error surface the CI
    // matrix also checks via the CLI.
    let n = 350usize;
    let mut r = threelc_tensor::rng(31);
    use rand::Rng as _;
    let v: Vec<f32> = (0..n)
        .map(|_| {
            if r.gen_bool(0.7) {
                0.0
            } else {
                r.gen_range(-1.0f32..1.0)
            }
        })
        .collect();
    let input = Tensor::from_slice(&v);
    let mut cx = ThreeLcCompressor::new(input.shape().clone(), SparsityMultiplier::default());
    let wire = cx.compress(&input).unwrap();
    for pos in 0..wire.len() {
        let mut bad = wire.clone();
        bad[pos] ^= 0xa5;
        let mut outcomes = Vec::new();
        for imp in available_tiers() {
            let cx = ThreeLcCompressor::new(input.shape().clone(), SparsityMultiplier::default())
                .with_codec_impl(imp);
            let dense = cx.decompress(&bad).map(|t| t.as_slice().to_vec());
            // The fused entry point is the same validator: decompress's
            // error with decompress's offsets, and not one value of `out`
            // written unless the payload decodes.
            let canary = f32::from_bits(0x7fc0_beef);
            for op in all_ops() {
                let mut out = vec![canary; n];
                match (&dense, cx.decode_into(&bad, op, &mut out)) {
                    (Err(want), Err(got)) => {
                        assert_eq!(&got, want, "byte {pos} {op:?} on {imp}");
                        assert!(
                            out.iter().all(|x| x.to_bits() == canary.to_bits()),
                            "byte {pos} {op:?} on {imp}: out written on error"
                        );
                    }
                    (Ok(t), Ok(())) if op == DequantOp::Assign => {
                        assert_eq!(bits(&out), bits(t), "byte {pos} on {imp}");
                    }
                    (Ok(_), Ok(())) => {}
                    (d, f) => panic!("byte {pos} {op:?} on {imp}: {d:?} vs {f:?}"),
                }
            }
            outcomes.push((imp, dense));
        }
        for w in outcomes.windows(2) {
            assert_eq!(
                w[0].1, w[1].1,
                "byte {pos}: {} vs {} diverged",
                w[0].0, w[1].0
            );
        }
    }
}

#[test]
fn scan_kernels_agree_with_scalar_reference() {
    let mut r = threelc_tensor::rng(37);
    use rand::Rng as _;
    for _ in 0..200 {
        let len = r.gen_range(0usize..130);
        let h: Vec<u8> = (0..len)
            .map(|_| {
                if r.gen_bool(0.6) {
                    quartic::ZERO_BYTE
                } else {
                    r.gen_range(0u8..=255)
                }
            })
            .collect();
        let want_invalid = h.iter().position(|&b| b > quartic::MAX_QUARTIC_BYTE);
        for imp in available_tiers() {
            assert_eq!(
                kernels::find_invalid_quartic(imp, &h),
                want_invalid,
                "{imp} {h:?}"
            );
        }
    }
}

#[test]
fn simd_tier_is_available_on_avx2_hosts() {
    // The CI dispatch matrix relies on availability reporting being
    // truthful; on x86-64 with AVX2 the Simd tier must not hide.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert!(CodecImpl::Simd.is_available());
        assert_eq!(CodecImpl::best_available(), CodecImpl::Simd);
    }
    assert!(
        available_tiers().len() >= 2,
        "scalar and swar are always available"
    );
}
