//! Property tests for the critical-path analyzer: whatever spans a run
//! recorded — partial lanes, overlapping phases, junk names, zero-length
//! spans — the per-step attribution must tile the measured wall interval
//! exactly (conservation by construction), and the run-level aggregates
//! must be the sum of the post-warmup per-step ledgers.

use proptest::prelude::*;
use threelc_obs::critical::StepAnalysis;
use threelc_obs::{MergedTimeline, NodeTrace, RunAnalysis, SpanRecord, NO_WORKER};

/// Every name the analyzer consumes, plus envelope/junk names it must
/// ignore without misattributing.
const NAMES: &[&str] = &[
    "compute",
    "quantize",
    "encode",
    "serialize",
    "network",
    "barrier-wait",
    "pull",
    "recv_push",
    "send_pull",
    "barrier",
    "server-decode",
    "aggregate",
    "re-encode",
    "server",
    "bogus-envelope",
];

/// One random span: `(step, name index, worker, start, duration)`.
type RawSpan = (u64, usize, i64, u64, u64);

fn span_strategy() -> impl Strategy<Value = RawSpan> {
    (
        0u64..3,
        0usize..NAMES.len(),
        prop_oneof![Just(NO_WORKER), 0i64..3],
        0u64..10_000,
        0u64..5_000,
    )
}

/// Materializes the raw tuples on a single clock (the simulator shape:
/// no cross-clock alignment, so the tiler sees the starts verbatim).
fn trace_of(raw: &[RawSpan]) -> Vec<NodeTrace> {
    let spans = raw
        .iter()
        .map(|&(step, name, worker, start, dur)| SpanRecord {
            trace: 1,
            span: (start ^ dur ^ step).wrapping_mul(2).wrapping_add(1),
            parent: 0,
            name: NAMES[name].into(),
            node: if worker == NO_WORKER {
                "server".into()
            } else {
                format!("worker{worker}")
            },
            step,
            worker,
            tensor: -1,
            start_ns: start,
            end_ns: start + dur,
        })
        .collect();
    vec![NodeTrace {
        clock: "sim".into(),
        spans,
        dropped: 0,
    }]
}

fn analyze(raw: &[RawSpan]) -> RunAnalysis {
    RunAnalysis::build(&MergedTimeline::build(&trace_of(raw)))
}

/// `Σ buckets == wall` up to float rounding of the ns → s conversion.
fn assert_conserved(st: &StepAnalysis) -> Result<(), TestCaseError> {
    let sum: f64 = st.buckets.iter().map(|b| b.seconds).sum();
    prop_assert!(
        (sum - st.wall_seconds).abs() <= 1e-9 * st.wall_seconds.max(1.0),
        "step {}: buckets sum {sum} vs wall {}",
        st.step,
        st.wall_seconds
    );
    Ok(())
}

proptest! {
    #[test]
    fn attribution_tiles_the_wall_interval_exactly(
        raw in prop::collection::vec(span_strategy(), 1..60),
    ) {
        let a = analyze(&raw);
        for st in &a.steps {
            // Ordered, contiguous, gap-free: each segment starts where
            // the previous one ended, and the tiles sum to the wall.
            let mut cursor = st.path.first().expect("non-empty path").start_ns;
            let mut total_ns = 0u64;
            for seg in &st.path {
                prop_assert!(
                    seg.start_ns == cursor,
                    "gap or overlap in step {}: segment starts at {} not {cursor}",
                    st.step,
                    seg.start_ns
                );
                cursor += seg.dur_ns;
                total_ns += seg.dur_ns;
            }
            prop_assert!(
                (total_ns as f64 / 1e9 - st.wall_seconds).abs() <= 1e-12,
                "path covers {total_ns} ns vs wall {} s",
                st.wall_seconds
            );
            assert_conserved(st)?;
            // No single tile (hence no bucket) can exceed the wall.
            for seg in &st.path {
                prop_assert!(seg.dur_ns <= total_ns);
            }
        }
    }

    #[test]
    fn run_totals_are_the_sum_of_post_warmup_steps(
        raw in prop::collection::vec(span_strategy(), 1..60),
    ) {
        let a = analyze(&raw);
        let measured = &a.steps[a.warmup_steps..];
        let wall: f64 = measured.iter().map(|s| s.wall_seconds).sum();
        prop_assert!((wall - a.total_wall_seconds).abs() <= 1e-9 * wall.max(1.0));
        let mut expect: std::collections::BTreeMap<(String, String), f64> =
            std::collections::BTreeMap::new();
        for st in measured {
            for b in &st.buckets {
                *expect.entry((b.node.clone(), b.phase.clone())).or_insert(0.0) += b.seconds;
            }
        }
        prop_assert_eq!(a.totals.len(), expect.len());
        for b in &a.totals {
            let want = expect[&(b.node.clone(), b.phase.clone())];
            prop_assert!((b.seconds - want).abs() <= 1e-9 * want.max(1.0));
        }
        // The reported residual really is the worst per-step residual.
        for st in &a.steps {
            if st.wall_seconds > 0.0 {
                let sum: f64 = st.buckets.iter().map(|b| b.seconds).sum();
                let residual = (sum - st.wall_seconds).abs() / st.wall_seconds;
                prop_assert!(residual <= a.conservation_error + 1e-12);
            }
        }
    }

    #[test]
    fn analysis_roundtrips_through_json(
        raw in prop::collection::vec(span_strategy(), 1..30),
    ) {
        let a = analyze(&raw);
        let json = serde_json::to_string(&a).expect("serialize");
        let back: RunAnalysis = serde_json::from_str(&json).expect("parse");
        prop_assert_eq!(back, a);
    }
}
