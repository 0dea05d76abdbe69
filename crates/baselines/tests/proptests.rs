//! Property-based tests over all baseline compression schemes.

use proptest::prelude::*;
use threelc_baselines::{build_compressor, SchemeKind};
use threelc_tensor::{Shape, Tensor};

fn any_scheme() -> impl Strategy<Value = SchemeKind> {
    prop_oneof![
        Just(SchemeKind::Float32),
        Just(SchemeKind::Int8),
        Just(SchemeKind::StochasticTernary),
        Just(SchemeKind::MqeOneBit),
        (0.01f64..1.0).prop_map(|fraction| SchemeKind::Sparsify { fraction }),
        (1u32..5).prop_map(|period| SchemeKind::LocalSteps { period }),
        (1.0f32..1.99).prop_map(SchemeKind::three_lc),
    ]
}

fn float_vec() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, 1..300)
}

proptest! {
    #[test]
    fn roundtrip_preserves_shape_and_finiteness(
        scheme in any_scheme(),
        v in float_vec(),
        seed in any::<u64>(),
    ) {
        let t = Tensor::from_slice(&v);
        let mut cx = build_compressor(&scheme, t.shape().clone(), seed);
        for _ in 0..2 {
            let wire = cx.compress(&t).expect("finite input compresses");
            let out = cx.decompress(&wire).expect("own payload decodes");
            prop_assert_eq!(out.shape(), t.shape());
            prop_assert!(out.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn decompress_arbitrary_bytes_never_panics(
        scheme in any_scheme(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        n in 1usize..64,
    ) {
        let cx = build_compressor(&scheme, Shape::new(&[n]), 0);
        let _ = cx.decompress(&payload);
    }

    #[test]
    fn truncations_of_valid_payloads_never_panic(
        scheme in any_scheme(),
        v in float_vec(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let t = Tensor::from_slice(&v);
        let mut cx = build_compressor(&scheme, t.shape().clone(), 1);
        let wire = cx.compress(&t).expect("compress");
        let cut = (wire.len() as f64 * cut_fraction) as usize;
        let _ = cx.decompress(&wire[..cut]);
    }

    #[test]
    fn restored_magnitudes_bounded_by_input_scale(
        v in float_vec(),
        seed in any::<u64>(),
    ) {
        // For every deterministic lossy scheme, the restored values must
        // not exceed ~2x the input's max magnitude (3LC's worst case is
        // s·max < 2·max; others preserve or shrink magnitudes).
        let t = Tensor::from_slice(&v);
        for scheme in [
            SchemeKind::Int8,
            SchemeKind::MqeOneBit,
            SchemeKind::Sparsify { fraction: 0.25 },
            SchemeKind::three_lc(1.0),
            SchemeKind::three_lc(1.9),
        ] {
            let mut cx = build_compressor(&scheme, t.shape().clone(), seed);
            let wire = cx.compress(&t).expect("compress");
            let out = cx.decompress(&wire).expect("decode");
            prop_assert!(
                out.max_abs() <= t.max_abs() * 2.0 + 1e-6,
                "{scheme}: out {} vs in {}", out.max_abs(), t.max_abs()
            );
        }
    }

    #[test]
    fn nan_inputs_rejected_everywhere(scheme in any_scheme(), n in 1usize..32) {
        let mut data = vec![0.5f32; n];
        data[0] = f32::NAN;
        let t = Tensor::from_slice(&data);
        let mut cx = build_compressor(&scheme, t.shape().clone(), 0);
        // LocalSteps accumulates without scanning on skip steps; every
        // scheme must either reject or produce a payload that decodes to
        // finite-or-rejected output — never panic.
        match cx.compress(&t) {
            Err(_) => {}
            Ok(wire) => {
                let _ = cx.decompress(&wire);
            }
        }
    }

    #[test]
    fn error_feedback_bounds_cumulative_drift(
        v in prop::collection::vec(-1.0f32..1.0, 8..128),
        seed in any::<u64>(),
    ) {
        // Schemes with residual buffers: after R identical steps the
        // cumulative transmitted sum must stay within a constant of the
        // cumulative input (drift does not grow linearly).
        let t = Tensor::from_slice(&v);
        for scheme in [SchemeKind::three_lc(1.0), SchemeKind::MqeOneBit] {
            let mut cx = build_compressor(&scheme, t.shape().clone(), seed);
            let mut sent = Tensor::zeros(t.shape().clone());
            let rounds = 12;
            for _ in 0..rounds {
                let wire = cx.compress(&t).expect("compress");
                sent.add_assign(&cx.decompress(&wire).expect("decode")).expect("shape");
            }
            let drift = t.scale(rounds as f32).sub(&sent).expect("shape").max_abs();
            let residual_bound = cx.residual().expect("has buffer").max_abs();
            prop_assert!(
                (drift - residual_bound).abs() < 1e-2 + residual_bound * 0.1
                    || drift <= residual_bound + 1e-2,
                "{scheme}: drift {drift} exceeds residual {residual_bound}"
            );
        }
    }
}

/// Every design a command line can name, as `serve` runs it.
fn wire_designs() -> Vec<SchemeKind> {
    SchemeKind::tokens()
        .map(|token| SchemeKind::parse(token, 1.5).expect("every listed token parses"))
        .collect()
}

/// `decode_into` on a hostile payload: the error `decompress` reports, with
/// `out` untouched, or — where `decompress` succeeds — its values under
/// `op`, bit for bit. `stage` must also return that error — every design's
/// pushes are staged on the parameter server — and on success the
/// payload's strips, cut at any width, must reproduce `decode_into` under
/// every op.
fn decode_into_agrees_with_decompress(cx: &dyn threelc::Compressor, payload: &[u8], what: &str) {
    use threelc::kernels::DequantOp;
    let n = N_VALUES;
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let before: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 3.0).collect();
    let decoded = cx.decompress(payload);
    for op in [DequantOp::Assign, DequantOp::AddScaled(0.5)] {
        let mut out = before.clone();
        let got = cx.decode_into(payload, op, &mut out);
        match &decoded {
            Ok(dense) => {
                assert_eq!(got, Ok(()), "{what}: decompress decodes it");
                let mut want = before.clone();
                op.apply(dense.iter().copied(), &mut want);
                assert_eq!(bits(&out), bits(&want), "{what}: values under {op:?}");
            }
            Err(e) => {
                assert_eq!(got, Err(e.clone()), "{what}: the same error");
                assert_eq!(bits(&out), bits(&before), "{what}: out touched on error");
            }
        }
    }
    let staged = cx.stage(payload);
    assert_eq!(
        staged,
        decoded.as_ref().map(|_| ()).map_err(Clone::clone),
        "{what}: stage"
    );
    if staged.is_err() {
        return;
    }
    let len = threelc::sizing::quartic_len(n);
    for width in [1, 7, 2048, len] {
        for op in [
            DequantOp::Assign,
            DequantOp::Add,
            DequantOp::AssignScaled(0.5),
            DequantOp::AddScaled(0.5),
        ] {
            let mut want = before.clone();
            cx.decode_into(payload, op, &mut want).expect("it staged");
            let mut out = before.clone();
            for start in (0..len).step_by(width) {
                let bytes = start..(start + width).min(len);
                let ranges = threelc::sizing::strip_planes(n, bytes.clone());
                // The strip's planes as the server lays them out: one
                // buffer, plane after plane.
                let mut strip: Vec<f32> = ranges
                    .iter()
                    .flat_map(|r| &out[r.clone()])
                    .copied()
                    .collect();
                let mut rest = &mut strip[..];
                let mut planes = ranges.clone().map(|r| {
                    let (plane, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
                    rest = tail;
                    plane
                });
                cx.decode_strip(payload, bytes, op, &mut planes);
                let mut values = strip.iter();
                for r in ranges {
                    for o in &mut out[r] {
                        *o = *values.next().expect("one value per element");
                    }
                }
            }
            assert_eq!(
                bits(&out),
                bits(&want),
                "{what}: strips of {width} under {op:?}"
            );
        }
    }
}

/// Values in the tensor the hostile-payload test encodes: ragged against
/// quartic's five-value bytes and every kernel's lanes.
const N_VALUES: usize = 97;

#[test]
fn decode_into_matches_decompress_on_hostile_payloads() {
    let input = Tensor::from_fn([N_VALUES], |i| {
        // Zeros for the zero runs, a spread of magnitudes for the rest.
        if i % 7 < 3 {
            0.0
        } else {
            ((i * 37 % 23) as f32 - 11.0) * 0.01
        }
    });
    for scheme in wire_designs() {
        let mut cx = build_compressor(&scheme, input.shape().clone(), 5);
        // Two payloads: a stateful scheme's second differs from its first
        // (a local-steps skip, an accumulated residual).
        for step in 0..2 {
            let valid = cx.compress(&input).expect("finite input compresses");
            let what = |case: String| format!("{scheme} payload {step}, {case}");
            decode_into_agrees_with_decompress(cx.as_ref(), &valid, &what("as sent".into()));
            for cut in 0..valid.len() {
                let case = what(format!("cut to {cut} bytes"));
                decode_into_agrees_with_decompress(cx.as_ref(), &valid[..cut], &case);
            }
            let mut longer = valid.clone();
            longer.push(0x79);
            decode_into_agrees_with_decompress(
                cx.as_ref(),
                &longer,
                &what("a trailing byte".into()),
            );
            for at in 0..valid.len() {
                for corrupt in [|b: u8| b ^ 0xff, |b: u8| b.wrapping_add(1), |_| 0, |_| 0xff] {
                    let mut bad = valid.clone();
                    bad[at] = corrupt(bad[at]);
                    let case = what(format!("byte {at} {:#04x} → {:#04x}", valid[at], bad[at]));
                    decode_into_agrees_with_decompress(cx.as_ref(), &bad, &case);
                }
            }
        }
    }
}

/// Where a design's payload header keeps its length fields (element counts,
/// sparsify's selected count `k`) and its scale fields, as byte offsets of
/// little-endian `u32`s and `f32`s. `Float32` and `LocalSteps` carry raw
/// floats behind at most a tag byte: neither has a field to lie with.
fn header_fields(scheme: &SchemeKind) -> (&'static [usize], &'static [usize]) {
    match scheme {
        SchemeKind::Float32 | SchemeKind::LocalSteps { .. } => (&[], &[]),
        SchemeKind::Int8 | SchemeKind::StochasticTernary => (&[4], &[0]),
        SchemeKind::MqeOneBit => (&[8], &[0, 4]),
        SchemeKind::Sparsify { .. } => (&[0, 4], &[]),
        SchemeKind::ThreeLc { .. } => (&[5], &[1]),
    }
}

/// ROADMAP 6(b)'s length-field lies and hostile scales, on every design a
/// command line can name: each count field rewritten to 0, n − 1, n + 1 and
/// `u32::MAX` (sparsify's `k` included), each scale field set to NaN, ±∞
/// and a subnormal. `decode_into` and `stage` must answer as `decompress`
/// does — the same error with `out` untouched, or the same values — and
/// nothing may panic.
#[test]
fn decode_into_matches_decompress_on_length_lies_and_hostile_scales() {
    let input = Tensor::from_fn([N_VALUES], |i| ((i * 29 % 17) as f32 - 8.0) * 0.03);
    let n = N_VALUES as u32;
    let mut covered = (0, 0);
    for scheme in wire_designs() {
        let mut cx = build_compressor(&scheme, input.shape().clone(), 5);
        let (counts, scales) = header_fields(&scheme);
        for step in 0..2 {
            let valid = cx.compress(&input).expect("finite input compresses");
            let rewrite = |at: usize, bytes: [u8; 4]| {
                let mut bad = valid.clone();
                if let Some(field) = bad.get_mut(at..at + 4) {
                    field.copy_from_slice(&bytes);
                }
                bad
            };
            for &at in counts {
                for lie in [0, n - 1, n + 1, u32::MAX] {
                    let case = format!("{scheme} payload {step}, u32 at {at} = {lie}");
                    let bad = rewrite(at, lie.to_le_bytes());
                    decode_into_agrees_with_decompress(cx.as_ref(), &bad, &case);
                    covered.0 += 1;
                }
            }
            for &at in scales {
                for scale in [
                    f32::NAN,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    f32::from_bits(1),
                ] {
                    let case = format!("{scheme} payload {step}, f32 at {at} = {scale:e}");
                    let bad = rewrite(at, scale.to_le_bytes());
                    decode_into_agrees_with_decompress(cx.as_ref(), &bad, &case);
                    covered.1 += 1;
                }
            }
        }
    }
    assert!(covered.0 > 0 && covered.1 > 0, "no field was rewritten");
}

/// `compress` is derived from the lend path, so it must refuse a wrongly
/// shaped input before it lends anything: on every design a command line
/// can name, and 3LC without error accumulation, the refusal is
/// `ShapeMismatch` and leaves the context's own buffer — the same
/// allocation, the same residual — to be lent next.
#[test]
fn a_wrongly_shaped_compress_is_refused_before_anything_is_lent() {
    let input = Tensor::from_fn([N_VALUES], |i| ((i * 31 % 19) as f32 - 9.0) * 0.02);
    let no_ea = SchemeKind::ThreeLc {
        sparsity: 1.5,
        zero_run_encoding: true,
        error_accumulation: false,
    };
    let bits = |t: Option<&Tensor>| t.map(|t| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    for scheme in wire_designs().into_iter().chain([no_ea]) {
        let mut cx = build_compressor(&scheme, input.shape().clone(), 5);
        cx.compress(&input).expect("finite input compresses");
        // Where the context's buffer lives: lent once and handed back.
        let (buffer, _) = cx.take_accumulator();
        let at = buffer.as_slice().as_ptr();
        let max_abs = buffer.max_abs();
        cx.compress_accumulator(buffer, max_abs)
            .expect("its own buffer back");
        let residual = bits(cx.residual());
        for dims in [&[N_VALUES + 1][..], &[N_VALUES - 1], &[1, N_VALUES]] {
            let wrong = cx.compress(&Tensor::zeros(dims));
            assert!(
                matches!(wrong, Err(threelc::CompressError::ShapeMismatch { .. })),
                "{scheme}, {dims:?}: {wrong:?}"
            );
            assert_eq!(bits(cx.residual()), residual, "{scheme}, {dims:?}");
        }
        let (buffer, _) = cx.take_accumulator();
        assert_eq!(buffer.shape(), input.shape(), "{scheme}");
        assert_eq!(buffer.as_slice().as_ptr(), at, "{scheme}: another buffer");
    }
}
