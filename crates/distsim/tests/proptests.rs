//! Property-based tests for the simulated-time model.

use proptest::prelude::*;
use threelc_distsim::{NetworkModel, StepRecord, TimingModel};

fn any_record() -> impl Strategy<Value = StepRecord> {
    (
        0u64..10_000,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..100_000,
        1u64..1_000_000,
        0.0f64..0.1,
        0.0f64..0.1,
    )
        .prop_map(
            |(step, push, pull, raw, values, wcodec, scodec)| StepRecord {
                step,
                lr: 0.1,
                loss: 1.0,
                push_bytes: push,
                pull_bytes: pull,
                raw_bytes: raw,
                compressible_values: values,
                worker_codec_seconds: wcodec,
                server_codec_seconds: scodec,
                residual_l2: 0.0,
            },
        )
}

fn any_timing() -> impl Strategy<Value = TimingModel> {
    (0.01f64..2.0, 0.0f64..4.0, 1u64..10_000_000).prop_map(|(compute, overlap, reference)| {
        TimingModel {
            compute_seconds_per_step: compute,
            overlap_fraction: overlap,
            reference_params: reference,
        }
    })
}

proptest! {
    #[test]
    fn step_time_monotone_in_bandwidth(
        r in any_record(),
        timing in any_timing(),
        scale in 0.1f64..100.0,
        bw_lo in 1e6f64..1e8,
        factor in 1.0f64..1000.0,
    ) {
        let slow = NetworkModel::new(bw_lo, 1e-3);
        let fast = NetworkModel::new(bw_lo * factor, 1e-3);
        prop_assert!(
            r.seconds_at(&fast, &timing, scale) <= r.seconds_at(&slow, &timing, scale) + 1e-12
        );
    }

    #[test]
    fn step_time_at_least_compute_plus_codec(
        r in any_record(),
        timing in any_timing(),
        scale in 0.1f64..100.0,
    ) {
        let net = NetworkModel::one_gbps();
        let floor = timing.compute_seconds_per_step
            + (r.worker_codec_seconds + r.server_codec_seconds) * scale;
        prop_assert!(r.seconds_at(&net, &timing, scale) >= floor - 1e-12);
    }

    #[test]
    fn step_time_monotone_in_bytes(
        r in any_record(),
        timing in any_timing(),
        scale in 0.1f64..100.0,
        extra in 0u64..1_000_000,
    ) {
        let net = NetworkModel::ten_mbps();
        let mut bigger = r;
        bigger.push_bytes += extra;
        prop_assert!(
            bigger.seconds_at(&net, &timing, scale)
                >= r.seconds_at(&net, &timing, scale) - 1e-12
        );
    }

    #[test]
    fn more_overlap_never_slower(
        r in any_record(),
        scale in 0.1f64..100.0,
        overlap in 0.0f64..4.0,
        more in 0.0f64..4.0,
    ) {
        let net = NetworkModel::hundred_mbps();
        let a = TimingModel { overlap_fraction: overlap, ..Default::default() };
        let b = TimingModel { overlap_fraction: overlap + more, ..Default::default() };
        prop_assert!(
            r.seconds_at(&net, &b, scale) <= r.seconds_at(&net, &a, scale) + 1e-12
        );
    }

    #[test]
    fn bits_per_value_consistent_with_bytes(r in any_record(), workers in 1u64..32) {
        let push_bits = r.push_bits_per_value(workers);
        let reconstructed = push_bits * (r.compressible_values * workers) as f64 / 8.0;
        prop_assert!((reconstructed - r.push_bytes as f64).abs() < 1e-6);
    }
}
