//! Property tests for histogram merge semantics: merging snapshots must
//! behave like pooling the underlying observations, no matter how the
//! observations were sharded or in which order the shards are combined.

use proptest::prelude::*;
use threelc_obs::snapshot::HistogramSnapshot;
use threelc_obs::Histogram;

/// Records `values` into a fresh histogram and snapshots it.
fn hist_of(values: &[f64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// Structural equality up to float rounding in `sum`.
fn assert_equivalent(a: &HistogramSnapshot, b: &HistogramSnapshot) {
    assert_eq!(a.count, b.count, "count");
    assert_eq!(a.min, b.min, "min");
    assert_eq!(a.max, b.max, "max");
    assert_eq!(a.buckets, b.buckets, "buckets");
    let tolerance = 1e-9 * (1.0 + a.sum.abs().max(b.sum.abs()));
    assert!(
        (a.sum - b.sum).abs() <= tolerance,
        "sum: {} vs {}",
        a.sum,
        b.sum
    );
}

fn merged(parts: &[&HistogramSnapshot]) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for p in parts {
        out.merge(p);
    }
    out
}

proptest! {
    #[test]
    fn merge_is_associative(
        xs in prop::collection::vec(0.0f64..1e6, 0..40),
        ys in prop::collection::vec(0.0f64..1e6, 0..40),
        zs in prop::collection::vec(0.0f64..1e6, 0..40),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_equivalent(&left, &right);
    }

    #[test]
    fn merge_is_order_insensitive(
        xs in prop::collection::vec(1e-9f64..1e9, 0..40),
        ys in prop::collection::vec(1e-9f64..1e9, 0..40),
        zs in prop::collection::vec(1e-9f64..1e9, 0..40),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        let abc = merged(&[&a, &b, &c]);
        let cba = merged(&[&c, &b, &a]);
        let bac = merged(&[&b, &a, &c]);
        assert_equivalent(&abc, &cba);
        assert_equivalent(&abc, &bac);
    }

    #[test]
    fn merging_shards_equals_pooling_the_observations(
        xs in prop::collection::vec(0.0f64..1e6, 0..40),
        ys in prop::collection::vec(0.0f64..1e6, 0..40),
    ) {
        let mut sharded = hist_of(&xs);
        sharded.merge(&hist_of(&ys));
        let mut pooled_values = xs.clone();
        pooled_values.extend_from_slice(&ys);
        let pooled = hist_of(&pooled_values);
        assert_equivalent(&sharded, &pooled);
    }
}
