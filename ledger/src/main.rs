//! `threelc-ledger`: a real-loopback BSP benchmark with an outside-in
//! per-layer replay. See `README.md` in this directory.
//!
//! ```text
//! threelc-ledger [--seed N] [--workload NAME] [--quick] [--out FILE]
//!     every workload (or one), end to end and per layer, each run in a
//!     fresh child process; non-zero exit on a failed check or step
//! threelc-ledger --workload NAME --trace 0|1 [--seed N] [--seconds S]
//!                [--quick] [--trace-out FILE]
//!     one run; the last stdout line is the result object
//! threelc-ledger --compare A.json B.json
//!     per-metric change of B against A, judged against the bounds
//! ```

mod e2e;
mod host;
mod kernels;
mod reference;
mod replay;
mod report;
mod schema;
mod span;
mod stats;
mod trace;
mod workload;

use e2e::{Check, Plan};
use host::Fingerprint;
use report::{int, num, object, text, Metric};
use schema::{END_TO_END, PER_LAYER};
use serde_json::Value;
use std::process::{Command, ExitCode};
use workload::{Workload, WORKERS, WORKLOADS};

#[global_allocator]
static ALLOCATOR: host::CountingAllocator = host::CountingAllocator;

/// Held out for claims: 43 and 44 (see the README's seed policy).
const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// Steps the replay drives, and the real runs it is checked against.
const REPLAY_STEPS: u64 = 20;
/// The line before the result line, for the parent command.
const DETAIL_PREFIX: &str = "ledger-detail: ";

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
    trace_out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        workload: None,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        out: None,
        trace_out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--workload" => args.workload = Some(value()?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?),
            "--trace-out" => args.trace_out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if Workload::by_name(name).is_none() {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                known.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("threelc-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if let Some(trace) = args.trace {
        single_run(&args, trace)
    } else {
        all_runs(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("threelc-ledger: {e}");
            ExitCode::from(1)
        }
    }
}

/// What one run of one workload measured and checked.
struct Run {
    metrics: Vec<Metric>,
    /// Printed and recorded, never gated.
    extras: Vec<(&'static str, Value)>,
    checks: Vec<Check>,
    warnings: Vec<String>,
    steps_attempted: u64,
    steps_failed: u64,
}

fn end_to_end_run(args: &Args, workload: &Workload) -> Result<Run, String> {
    let plan = if args.quick {
        Plan {
            short_runs: 1,
            long_runs: 1,
            steps: 5,
            trains: false,
        }
    } else {
        // `--seconds` sizes the long runs; the step counts in
        // `workload.rs` are for the default.
        let scaled = (workload.steps as f64 * args.seconds / DEFAULT_SECONDS).round() as u64;
        Plan {
            short_runs: workload.short_runs,
            long_runs: workload.long_runs,
            steps: scaled.max(5),
            trains: workload.learns && scaled >= workload.steps,
        }
    };
    // Whatever the environment says, end-to-end numbers are untraced.
    threelc_obs::trace::set_trace_enabled(false);
    let e = e2e::measure(workload, args.seed, &plan)
        .ok_or("neither a short nor a long run completed; nothing to report")?;
    for f in &e.failures {
        println!("  failed run: {f}");
    }
    let metrics = vec![
        Metric::median("setup_s", "s", e.setup_s),
        Metric::median("step_s", "s", e.step_s),
        Metric::exact("wire_bytes_per_step", "bytes", e.wire_bytes_per_step),
        Metric::exact("peak_heap_mb", "MB", host::peak_heap_mb()),
    ];
    assert!(
        metrics.iter().map(|m| (m.name, m.unit)).eq(END_TO_END),
        "the end-to-end metrics are listed in schema order"
    );
    let samples_per_s = (WORKERS * workload.batch) as f64 / e.step_s.median;
    let crc = format!("{:08x}", e.final_model_crc32);
    Ok(Run {
        metrics,
        extras: vec![
            ("host_slowdown", num(e.host_slowdown)),
            ("setup_raw_s", num(e.setup_raw_s)),
            ("step_raw_s", num(e.step_raw_s)),
            ("samples_per_s", num(samples_per_s)),
            ("final_loss", num(e.final_loss)),
            ("final_accuracy", num(e.final_accuracy)),
            ("final_model_crc32", text(&crc)),
            ("steps_per_long_run", int(plan.steps + 1)),
            ("peak_rss_mb", host::peak_rss_mb().map_or(Value::Null, num)),
        ],
        checks: e.checks,
        warnings: Vec::new(),
        steps_attempted: e.steps_attempted,
        steps_failed: e.steps_failed,
    })
}

fn per_layer_run(args: &Args, workload: &Workload) -> Result<Run, String> {
    let steps = if args.quick { 3 } else { REPLAY_STEPS };
    let t = trace::run(workload, args.seed, steps)?;
    if let Some(path) = &args.trace_out {
        write_spans(path, &t.spans)?;
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (_, value) = t
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("the traced run did not measure {name}"));
            Metric::exact(name, unit, *value)
        })
        .collect();
    Ok(Run {
        metrics,
        extras: Vec::new(),
        checks: t.checks,
        warnings: t.warnings,
        steps_attempted: t.steps_attempted,
        steps_failed: 0,
    })
}

/// One run of one workload. The result object is the last stdout line,
/// whatever the checks said — the verdict travels in `correct`.
fn single_run(args: &Args, trace: bool) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--trace needs --workload")?;
    let workload = Workload::by_name(name).expect("validated while parsing");
    println!("host: {}", Fingerprint::of_this_host(WORKERS).describe());
    println!(
        "{name} seed {} trace {}: {WORKERS} workers in a closed loop over the host loopback (not a link)",
        args.seed,
        u8::from(trace)
    );
    let run = if trace {
        per_layer_run(args, &workload)?
    } else {
        end_to_end_run(args, &workload)?
    };
    for m in &run.metrics {
        println!("{}", m.line());
    }
    for (key, value) in &run.extras {
        println!("  {key:<28} {:>16} (not gated)", json_text(value));
    }
    for w in &run.warnings {
        println!("  warning: {w}");
    }
    for c in &run.checks {
        let verdict = if c.pass { "ok" } else { "FAILED" };
        println!("  check {:<30} {verdict}  {}", c.name, c.detail);
    }
    let (attempted, failed) = (run.steps_attempted, run.steps_failed);
    println!("  steps attempted {attempted}, failed {failed}");
    let correct = run.checks.iter().all(|c| c.pass);
    let result = report::result_line(correct, attempted, failed, &run.metrics);
    let detail = report::detail(&run.metrics, run.extras, &run.checks, &run.warnings);
    println!(
        "{DETAIL_PREFIX}{}",
        serde_json::to_string(&detail).expect("a value tree serialises")
    );
    println!("{result}");
    Ok(true)
}

fn json_text(v: &Value) -> String {
    match v {
        Value::String(s) | Value::Number(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

fn write_spans(path: &str, spans: &[span::Span]) -> Result<(), String> {
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            object(vec![
                ("name", text(s.name)),
                ("lane", text(&format!("{:?}", s.lane))),
                ("step", int(s.step)),
                ("start_ns", int(s.start_ns)),
                ("end_ns", int(s.end_ns)),
                ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
            ])
        })
        .collect();
    let json = serde_json::to_string(&Value::Array(rows)).expect("a value tree serialises");
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))
}

/// Runs this executable again for one `(workload, trace)` pair, so peak
/// RSS and allocator state never leak from one run into the next. Echoes
/// the child's report and returns `(detail, result)`.
fn child_run(args: &Args, workload: &str, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &args.seed.to_string()])
    .args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(path)) = (trace, &args.trace_out) {
        cmd.args(["--trace-out", &format!("{path}.{workload}.json")]);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let mut lines: Vec<&str> = stdout.lines().collect();
    let parse = |line: Option<&str>| -> Option<Value> { serde_json::from_str(line?).ok() };
    let result = parse(lines.pop());
    let detail = parse(lines.pop().and_then(|l| l.strip_prefix(DETAIL_PREFIX)));
    for line in lines.iter().skip(1) {
        println!("{line}");
    }
    match (output.status.success(), detail, result) {
        (true, Some(detail), Some(result)) => Ok((detail, result)),
        _ => Err(format!(
            "the {workload} trace {} run printed no result",
            u8::from(trace)
        )),
    }
}

/// Every workload (or the one named), end to end and per layer.
fn all_runs(args: &Args) -> Result<bool, String> {
    let fingerprint = Fingerprint::of_this_host(WORKERS);
    println!("host: {}", fingerprint.describe());
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut table: Vec<(&str, f64, f64)> = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
    {
        let mut sections = vec![("name", text(w.name))];
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let (detail, result) = child_run(args, w.name, trace)?;
            all_ok &= result.get("correct") == Some(&Value::Bool(true))
                && result.get("failed") == Some(&int(0));
            if !trace {
                let value =
                    |name: &str| schema::number(detail.get("metrics")?.get(name)?.get("value")?);
                if let (Some(step_s), Some(bytes)) = (value("step_s"), value("wire_bytes_per_step"))
                {
                    table.push((w.name, step_s, bytes));
                }
            }
            // The run's verdict and step counts ride along with its detail.
            let mut fields = detail.as_object().unwrap_or_default().to_vec();
            for key in ["correct", "attempted", "failed"] {
                fields.push((
                    key.to_string(),
                    result.get(key).cloned().unwrap_or(Value::Null),
                ));
            }
            sections.push((section, Value::Object(fields)));
        }
        workloads.push(object(sections));
    }

    println!("projected step time on the paper's links (projection, not measured):");
    let mut projection = Vec::new();
    for &(name, step_s, bytes) in &table {
        let rows = report::projected_step_s(step_s, bytes);
        let cells: Vec<String> = rows.iter().map(|(l, s)| format!("{l}: {s:.4} s")).collect();
        println!("  {name:<20} loopback: {step_s:.4} s  {}", cells.join("  "));
        projection.push(object(vec![
            ("workload", text(name)),
            ("loopback_step_s", num(step_s)),
            (
                "projected_step_s",
                Value::Object(rows.iter().map(|&(l, s)| (l.to_string(), num(s))).collect()),
            ),
        ]));
    }
    let find = |name: &str| table.iter().find(|t| t.0 == name);
    if let (Some(lc), Some(f32)) = (find("mlp512-3lc"), find("mlp512-f32")) {
        let ratios: Vec<String> = report::projected_step_s(lc.1, lc.2)
            .iter()
            .zip(report::projected_step_s(f32.1, f32.2))
            .map(|(a, b)| format!("{}: {:.3}", a.0, a.1 / b.1))
            .collect();
        println!("  mlp512-3lc / mlp512-f32 step time  {}", ratios.join("  "));
    }

    if let Some(path) = &args.out {
        let file = object(vec![
            ("fingerprint", fingerprint.to_json()),
            ("seed", int(args.seed)),
            ("quick", Value::Bool(args.quick)),
            ("workloads", Value::Array(workloads)),
            ("projection_not_measured", Value::Array(projection)),
        ]);
        let json = serde_json::to_string_pretty(&file).expect("a value tree serialises");
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!(
        "{}",
        if all_ok {
            "all checks passed, no step failed"
        } else {
            "FAILED: a check or a step failed"
        }
    );
    Ok(all_ok)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (lines, regressed) = report::compare(&load(a)?, &load(b)?)?;
    for line in lines {
        println!("{line}");
    }
    Ok(!regressed)
}
