//! Property-based tests for the per-step traffic records.

use proptest::prelude::*;
use threelc_distsim::StepRecord;

fn any_record() -> impl Strategy<Value = StepRecord> {
    (
        0u64..10_000,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..100_000,
        1u64..1_000_000,
    )
        .prop_map(|(step, push, pull, raw, values)| StepRecord {
            step,
            lr: 0.1,
            loss: 1.0,
            push_bytes: push,
            pull_bytes: pull,
            raw_bytes: raw,
            compressible_values: values,
            residual_l2: 0.0,
        })
}

proptest! {
    #[test]
    fn bits_per_value_consistent_with_bytes(r in any_record(), workers in 1u64..32) {
        let push_bits = r.push_bits_per_value(workers);
        let reconstructed = push_bits * (r.compressible_values * workers) as f64 / 8.0;
        prop_assert!((reconstructed - r.push_bytes as f64).abs() < 1e-6);
    }
}
