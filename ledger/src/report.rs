//! The ledger's JSON: what one run prints, what the whole command writes
//! to `--out`, and the comparison of two such files.

use crate::e2e::Check;
use crate::host::Fingerprint;
use crate::schema::{bound_of, number, END_TO_END};
use crate::stats::Summary;
use serde_json::Value;
use threelc_distsim::NetworkModel;

pub fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(format!("{x}"))
    } else {
        Value::Null
    }
}

pub fn int(x: u64) -> Value {
    Value::Number(x.to_string())
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One reported metric: its value, and the range behind it when it is a
/// median over repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub range: Option<Summary>,
}

impl Metric {
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            range: None,
        }
    }

    pub fn median(name: &'static str, unit: &'static str, s: Summary) -> Metric {
        Metric {
            name,
            unit,
            value: s.median,
            range: Some(s),
        }
    }

    pub fn line(&self) -> String {
        let range = self.range.map_or(String::new(), |s| {
            format!("  [min {} max {} n={}]", s.min, s.max, s.n)
        });
        format!(
            "  {:<28} {:>16} {}{}",
            self.name, self.value, self.unit, range
        )
    }

    fn to_json(&self) -> Value {
        let mut fields = vec![("value", num(self.value)), ("unit", text(self.unit))];
        if let Some(s) = self.range {
            fields.push(("min", num(s.min)));
            fields.push(("max", num(s.max)));
            fields.push(("n", int(s.n as u64)));
        }
        object(fields)
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    object(vec![("value", num(m.value)), ("unit", text(m.unit))]),
                )
            })
            .collect(),
    );
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("a value tree serialises")
}

/// Everything one run knows, for the parent command to fold into `--out`.
pub fn detail(
    metrics: &[Metric],
    extras: Vec<(&str, Value)>,
    checks: &[Check],
    warnings: &[String],
) -> Value {
    object(vec![
        (
            "metrics",
            Value::Object(
                metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.to_json()))
                    .collect(),
            ),
        ),
        ("extras", object(extras)),
        (
            "checks",
            Value::Array(
                checks
                    .iter()
                    .map(|c| {
                        object(vec![
                            ("name", text(c.name)),
                            ("pass", Value::Bool(c.pass)),
                            ("detail", text(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "warnings",
            Value::Array(warnings.iter().map(|w| text(w)).collect()),
        ),
    ])
}

/// The paper's Table 1 shape, projected: the measured loopback step plus
/// the time the step's wire bytes would take on each of the paper's
/// links. A projection, not a measurement — no run here crossed a link.
pub fn projected_step_s(step_s: f64, wire_bytes_per_step: f64) -> Vec<(&'static str, f64)> {
    NetworkModel::paper_presets()
        .into_iter()
        .map(|(label, link)| {
            (
                label,
                step_s + 8.0 * wire_bytes_per_step / link.bandwidth_bps,
            )
        })
        .collect()
}

fn metric_value(workload: &Value, section: &str, name: &str) -> Option<f64> {
    number(
        workload
            .get(section)?
            .get("metrics")?
            .get(name)?
            .get("value")?,
    )
}

/// Compares two `--out` files of the same host: per-metric change of B
/// against A, judged against the bounds fixed in `BENCHMARK.json`.
/// Returns the lines to print and whether any end-to-end metric got worse
/// by more than its bound.
///
/// # Errors
///
/// Refuses when the two files were not measured on the same host
/// fingerprint: numbers from different hosts are not scaled onto each
/// other.
pub fn compare(a: &Value, b: &Value) -> Result<(Vec<String>, bool), String> {
    let fp =
        |v: &Value| Fingerprint::from_json(v.get("fingerprint").ok_or("file has no fingerprint")?);
    let (fa, fb) = (fp(a)?, fp(b)?);
    if fa != fb {
        return Err(format!(
            "fingerprints differ, refusing to compare:\n  A: {}\n  B: {}",
            fa.describe(),
            fb.describe()
        ));
    }
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let workloads = |v: &Value| -> Vec<Value> {
        v.get("workloads")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    let mut lines = vec![format!("host: {}", fa.describe())];
    let mut regressed = false;
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)
            .into_iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            lines.push(format!("{name}: missing from B"));
            continue;
        };
        lines.push(format!("{name}:"));
        for (metric, unit) in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_value(&wa, "end_to_end", metric),
                metric_value(&wb, "end_to_end", metric),
            ) else {
                continue;
            };
            let bound = bound_of(metric).expect("every end-to-end metric has a bound");
            let change = (vb - va) / va;
            let verdict = if change > bound {
                regressed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            lines.push(format!(
                "  {metric:<28} {va} -> {vb} {unit}  {:+.2}% (bound +{:.0}%)  {verdict}",
                100.0 * change,
                100.0 * bound
            ));
        }
        if same_seed {
            // Same seed, same arithmetic: these repeat exactly, so any
            // difference is a change of behaviour, not noise.
            for (part, exact) in [
                ("extras", "final_model_crc32"),
                ("extras", "final_loss"),
                ("metrics", "wire_bytes_per_step"),
            ] {
                let get = |w: &Value| w.get("end_to_end")?.get(part)?.get(exact).cloned();
                if let (Some(va), Some(vb)) = (get(&wa), get(&wb)) {
                    if va != vb {
                        lines.push(format!("  {exact} changed at the same seed"));
                    }
                }
            }
        }
        let per_layer = wa
            .get("per_layer")
            .and_then(|p| p.get("metrics"))
            .and_then(Value::as_object)
            .unwrap_or_default();
        for (metric, _) in per_layer {
            if let (Some(va), Some(vb)) = (
                metric_value(&wa, "per_layer", metric),
                metric_value(&wb, "per_layer", metric),
            ) {
                let change = if va == 0.0 {
                    0.0
                } else {
                    100.0 * (vb - va) / va.abs()
                };
                lines.push(format!("  {metric:<28} {va} -> {vb}  {change:+.2}%"));
            }
        }
    }
    Ok((lines, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(cpu: &str, step_s: f64) -> Value {
        let fp = Fingerprint {
            cpu_model: cpu.into(),
            nproc: 2,
            rustc: "rustc 1.95.0".into(),
            codec: "simd (auto)".into(),
            workers: 2,
        };
        let e2e = detail(
            &[Metric::exact("step_s", "s", step_s)],
            vec![("final_model_crc32", text("0badf00d"))],
            &[],
            &[],
        );
        object(vec![
            ("fingerprint", fp.to_json()),
            ("seed", int(42)),
            (
                "workloads",
                Value::Array(vec![object(vec![
                    ("name", text("mlp512-3lc")),
                    ("end_to_end", e2e),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_refuses_files_from_different_hosts() {
        let err = compare(&file("cpu A", 0.03), &file("cpu B", 0.03)).unwrap_err();
        assert!(err.contains("fingerprints differ"), "{err}");
    }

    #[test]
    fn compare_flags_only_a_change_beyond_the_bound() {
        let bound = bound_of("step_s").expect("step_s is bounded");
        let (_, regressed) = compare(
            &file("cpu", 0.030),
            &file("cpu", 0.030 * (1.0 + bound / 2.0)),
        )
        .expect("same host");
        assert!(!regressed);
        let (lines, regressed) = compare(
            &file("cpu", 0.030),
            &file("cpu", 0.030 * (1.0 + 2.0 * bound)),
        )
        .expect("same host");
        assert!(regressed);
        assert!(lines
            .iter()
            .any(|l| l.contains("step_s") && l.contains("REGRESSION")));
        // Getting faster is never a regression.
        let (_, regressed) = compare(&file("cpu", 0.030), &file("cpu", 0.010)).expect("same host");
        assert!(!regressed);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[Metric::exact("step_s", "s", 0.0334)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"step_s":{"value":0.0334,"unit":"s"}}}"#
        );
    }

    #[test]
    fn projection_adds_link_time_to_the_loopback_step() {
        // 1.25 MB per step is exactly one second at 10 Mbps.
        let rows = projected_step_s(0.1, 1_250_000.0);
        assert_eq!(rows[0].0, "10 Mbps");
        assert!((rows[0].1 - 1.1).abs() < 1e-9);
        assert!((rows[2].1 - 0.11).abs() < 1e-9);
    }
}
