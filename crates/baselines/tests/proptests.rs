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
