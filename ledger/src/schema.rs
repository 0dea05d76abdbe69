//! Metric names and units, in print order. `BENCHMARK.json` at the
//! repository root carries the same lists plus the regression bounds; a
//! unit test keeps the two in step.

use serde_json::Value;

/// `(name, unit)` of every end-to-end metric. Lower is better for all.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("step_s", "s"),
    ("wire_bytes_per_step", "bytes"),
    ("peak_heap_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric; the prefix is the crate.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("tensor.matmul_us", "us"),
    ("tensor.matmul_gflops", "gflop/s"),
    ("learning.compute_us", "us"),
    ("learning.sample_batch_us", "us"),
    ("learning.optimizer_us", "us"),
    ("core.quantize_us", "us"),
    ("core.quartic_encode_us", "us"),
    ("core.zre_encode_us", "us"),
    ("core.zre_decode_us", "us"),
    ("core.quartic_decode_us", "us"),
    ("core.encode_gibps", "GiB/s"),
    ("core.decode_gibps", "GiB/s"),
    ("core.push_bits_per_value", "bits"),
    ("core.pull_bits_per_value", "bits"),
    ("core.zero_run_share", "share"),
    ("distsim.encode_push_us", "us"),
    ("distsim.pull_decode_us", "us"),
    ("distsim.apply_deltas_us", "us"),
    ("distsim.apply_step_us", "us"),
    ("distsim.symbol_decode_us", "us"),
    ("distsim.accumulate_us", "us"),
    ("distsim.reencode_us", "us"),
    ("distsim.problem_build_us", "us"),
    ("distsim.replica_new_us", "us"),
    ("distsim.server_new_us", "us"),
    ("net.push_write_us", "us"),
    ("net.push_read_us", "us"),
    ("net.pull_write_us", "us"),
    ("net.pull_read_us", "us"),
    ("net.crc32_gibps", "GiB/s"),
    ("net.tensor_bytes_gibps", "GiB/s"),
    ("net.frames_per_step", "count"),
    ("net.header_bytes_per_step", "bytes"),
    ("net.unattributed_us", "us"),
    ("baselines.f32_codec_us", "us"),
    ("obs.trace_overhead", "share"),
    ("obs.spans_per_step", "count"),
    ("ledger.critical_path_us", "us"),
    ("ledger.replay_step_us", "us"),
    ("ledger.span_overhead_us", "us"),
    ("ledger.unrecorded_us", "us"),
];

/// The benchmark's contract file, compiled in so `--compare` applies the
/// bounds that were fixed with the metrics.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub fn benchmark_json() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

/// The share of the parent's median by which `metric` may worsen.
pub fn bound_of(metric: &str) -> Option<f64> {
    benchmark_json()
        .get("end_to_end")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))
        .and_then(|m| number(m.get("bound")?))
}

/// A JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Number(text) => text.parse().ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn listed(key: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(key)
            .and_then(Value::as_array)
            .expect("list present")
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string")
                        .to_string()
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|&(n, u)| (n.into(), u.into())).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let names: Vec<String> = benchmark_json()
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads present")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_setup_has_the_largest() {
        let bounds: Vec<f64> = END_TO_END
            .iter()
            .map(|(name, _)| bound_of(name).expect("bound present"))
            .collect();
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        let setup = bound_of("setup_s").expect("setup_s bound");
        assert!(bounds.iter().all(|&b| b <= setup));
        assert_eq!(bound_of("no-such-metric"), None);
    }
}
