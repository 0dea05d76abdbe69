//! The `top` subcommand: a live terminal dashboard over the server's
//! time-series store.
//!
//! Polls the metrics side-door with series `Scrape` frames (the same
//! non-intrusive path `threelc metrics` uses), so watching a run costs
//! the server one store snapshot per interval and never touches worker
//! connections. One row per worker: last recorded step, achieved push
//! compression ratio, wire throughput, rejoin count, step latency, how
//! late its push reached the barrier (the live view of `threelc
//! analyze`'s blame), and an ASCII sparkline of recent wire bytes.
//! `--once` renders a single frame and exits (the CI smoke), `--json`
//! dumps the raw store instead of the dashboard.

use crate::netcmd::{has_flag, parse_flag, sole_positional, split_flags};
use std::error::Error;
use std::fmt::Write as _;
use std::time::Duration;
use threelc_net::scrape_series;
use threelc_obs::timeseries::{
    RunSeries, Series, S_BARRIER_WAIT, S_RATIO, S_REJOINS, S_STEP_SECONDS, S_WIRE_BYTES,
};

type CliResult = Result<String, Box<dyn Error>>;

/// Seconds between polls unless `--interval` says otherwise.
const DEFAULT_INTERVAL: f64 = 2.0;
/// Points per sparkline.
const SPARK_POINTS: usize = 16;
/// Sparkline glyphs, lowest to highest (pure ASCII so any terminal and
/// any CI log renders them).
const SPARK_GLYPHS: &[u8] = b" .:-=+*#%@";
/// Barrier lateness (seconds) below which the bottleneck column shows
/// `-`: the analyzer's own floor, so the live column and `threelc analyze`
/// flag the same worker.
const BOTTLENECK_FLOOR_SECONDS: f64 = threelc_obs::critical::BLAME_MIN_SECONDS;

/// `threelc top <addr> [--interval SECS] [--once] [--json]`.
pub fn top_cmd(args: &[String]) -> CliResult {
    let addr = sole_positional(
        &split_flags(args, &[("--interval", "seconds")], &["--once", "--json"])?,
        "top requires a server address (e.g. threelc top 127.0.0.1:7171)",
        "top takes exactly one server address",
    )?;
    let once = has_flag(args, "--once");
    let json = has_flag(args, "--json");
    let interval: f64 = parse_flag(args, "--interval")?.unwrap_or(DEFAULT_INTERVAL);
    if !interval.is_finite() || interval <= 0.0 {
        return Err("--interval must be positive".into());
    }

    if once {
        let store = scrape_series(addr, Duration::from_secs(5))?;
        return render_output(&store, json);
    }
    // Watch mode: one frame per interval until the server goes away (the
    // run finished or aborted), which is a clean exit, not an error.
    let mut frames = 0u64;
    loop {
        match scrape_series(addr, Duration::from_secs(5)) {
            Ok(store) => {
                print!("{}", render_output(&store, json)?);
                println!("---");
                frames += 1;
            }
            Err(e) if frames > 0 => {
                return Ok(format!("server went away after {frames} frame(s): {e}\n"));
            }
            Err(e) => return Err(e.into()),
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

fn render_output(store: &RunSeries, json: bool) -> CliResult {
    if json {
        let mut out = serde_json::to_string_pretty(store)?;
        out.push('\n');
        Ok(out)
    } else {
        Ok(render_dashboard(store))
    }
}

/// The most recent value of a worker's named series, if any.
fn last_value(series: Option<&Series>) -> Option<f64> {
    series.and_then(|s| s.last()).map(|p| p.value)
}

/// Renders one dashboard frame: a run-level headline plus one row per
/// worker. Every worker gets a row even before its first step lands.
pub fn render_dashboard(store: &RunSeries) -> String {
    let mut out = String::new();
    let run_ratio = last_value(store.run_series(S_RATIO)).unwrap_or(0.0);
    let run_bytes = last_value(store.run_series(S_WIRE_BYTES)).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "run: {} step(s) recorded, {} worker(s), last step {} wire, ratio {:.1}x",
        store.steps_recorded,
        store.workers.len(),
        human_bytes(run_bytes),
        run_ratio,
    );

    let _ = writeln!(
        out,
        "{:<8} {:<10} {:>8} {:>8} {:>12} {:>8} {:>10} {:>12}  wire trend",
        "worker", "state", "step", "ratio", "bytes/s", "rejoins", "latency", "bottleneck"
    );
    for (i, w) in store.workers.iter().enumerate() {
        let wire = w.series(S_WIRE_BYTES);
        let step = wire
            .and_then(|s| s.last())
            .map(|p| p.step.to_string())
            .unwrap_or_else(|| "-".into());
        let ratio = last_value(w.series(S_RATIO)).unwrap_or(0.0);
        let rejoins = last_value(w.series(S_REJOINS)).unwrap_or(0.0);
        let latency = last_value(w.series(S_STEP_SECONDS)).unwrap_or(0.0);
        let bytes = last_value(wire).unwrap_or(0.0);
        let rate = if latency > 0.0 { bytes / latency } else { 0.0 };
        let state = if wire.and_then(|s| s.last()).is_none() {
            "waiting"
        } else {
            "ok"
        };
        // How late this worker's push reached the barrier relative to the
        // fastest peer — the live proxy for critical-path blame (`threelc
        // analyze` attributes exactly this time to the late worker).
        let behind = last_value(w.series(S_BARRIER_WAIT)).unwrap_or(0.0);
        let bottleneck = if behind >= BOTTLENECK_FLOOR_SECONDS {
            format!("net +{:.0}ms", behind * 1e3)
        } else {
            "-".into()
        };
        let _ = writeln!(
            out,
            "worker {i:<1} {state:<10} {step:>8} {ratio:>7.1}x {:>12} {rejoins:>8.0} {:>9.1}ms {bottleneck:>12}  |{}|",
            human_bytes(rate),
            latency * 1e3,
            sparkline(wire, SPARK_POINTS),
        );
    }
    out
}

/// An ASCII sparkline over the series' most recent exact points,
/// min-max normalized (a flat series renders as all-middle glyphs).
fn sparkline(series: Option<&Series>, n: usize) -> String {
    let Some(series) = series else {
        return String::new();
    };
    let points = series.recent(n);
    if points.is_empty() {
        return String::new();
    }
    let min = points.iter().map(|p| p.value).fold(f64::INFINITY, f64::min);
    let max = points
        .iter()
        .map(|p| p.value)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    let top = (SPARK_GLYPHS.len() - 1) as f64;
    points
        .iter()
        .map(|p| {
            let level = if span > 0.0 {
                ((p.value - min) / span * top).round() as usize
            } else {
                SPARK_GLYPHS.len() / 2
            };
            SPARK_GLYPHS[level.min(SPARK_GLYPHS.len() - 1)] as char
        })
        .collect()
}

/// `1.5 KB`-style rendering without pulling in a dependency.
fn human_bytes(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.1} GB", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1} MB", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1} KB", v / 1e3)
    } else {
        format!("{v:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_obs::{RunRecorder, WorkerDelta};

    fn store_with_steps(workers: usize, steps: u64) -> RunSeries {
        let mut r = RunRecorder::new(workers);
        for step in 0..steps {
            let deltas: Vec<WorkerDelta> = (0..workers)
                .map(|w| WorkerDelta {
                    worker: w,
                    wire_bytes: 1000 + step * 10 + w as u64,
                    ratio: 15.9,
                    loss: 1.0,
                    rejoins: 0,
                    // Worker 1 is 10x slower than its peers.
                    step_seconds: if w == 1 { 0.1 } else { 0.01 },
                    barrier_wait_seconds: if w == 1 { 0.25 } else { 0.0 },
                })
                .collect();
            r.record_step(step, &deltas);
        }
        r.snapshot()
    }

    #[test]
    fn dashboard_renders_one_row_per_worker() {
        let out = render_dashboard(&store_with_steps(3, 5));
        assert!(out.contains("3 worker(s)"), "{out}");
        for w in 0..3 {
            assert!(
                out.contains(&format!("worker {w}")),
                "missing row {w}: {out}"
            );
        }
        assert!(out.contains("15.9x"), "{out}");
    }

    #[test]
    fn straggling_worker_is_flagged() {
        // Worker 1 is 10x slower and 250 ms late to the barrier: the
        // bottleneck column flags it, the one live answer; every state
        // stays `ok`.
        let out = render_dashboard(&store_with_steps(3, 4));
        let rows: Vec<&str> = out
            .lines()
            .filter(|l| {
                l.strip_prefix("worker ")
                    .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
            })
            .collect();
        assert_eq!(rows.len(), 3, "{out}");
        for (i, row) in rows.iter().enumerate() {
            assert!(row.starts_with(&format!("worker {i} ok ")), "{out}");
            assert_eq!(row.contains("net +"), i == 1, "{out}");
        }
    }

    #[test]
    fn barrier_lateness_surfaces_in_the_bottleneck_column() {
        let out = render_dashboard(&store_with_steps(3, 4));
        assert!(out.contains("bottleneck"), "{out}");
        let rows: Vec<&str> = out
            .lines()
            .filter(|l| {
                l.strip_prefix("worker ")
                    .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
            })
            .collect();
        // Worker 1 arrived 250 ms behind the fastest peer; its row names
        // the blame, its peers stay clean.
        assert!(rows[1].contains("net +250ms"), "{out}");
        assert!(!rows[0].contains("net +"), "{out}");
        assert!(!rows[2].contains("net +"), "{out}");
    }

    #[test]
    fn empty_store_still_renders_every_worker_as_waiting() {
        let out = render_dashboard(&RunRecorder::new(2).snapshot());
        assert!(out.contains("0 step(s) recorded"), "{out}");
        assert!(out.contains("worker 0"), "{out}");
        assert!(out.contains("worker 1"), "{out}");
        assert!(out.contains("waiting"), "{out}");
    }

    #[test]
    fn sparkline_tracks_the_trend() {
        let mut s = Series::new("x");
        for step in 0..8 {
            s.push(step, step as f64);
        }
        let line = sparkline(Some(&s), 8);
        assert_eq!(line.len(), 8);
        assert!(line.starts_with(' '), "lowest value maps low: {line:?}");
        assert!(line.ends_with('@'), "highest value maps high: {line:?}");
        // A flat series renders mid-level glyphs, not a panic.
        let mut flat = Series::new("y");
        flat.push(0, 5.0);
        flat.push(1, 5.0);
        assert_eq!(sparkline(Some(&flat), 8).len(), 2);
    }

    #[test]
    fn human_bytes_picks_sane_units() {
        assert_eq!(human_bytes(10.0), "10 B");
        assert_eq!(human_bytes(2_500.0), "2.5 KB");
        assert_eq!(human_bytes(3_100_000.0), "3.1 MB");
        assert_eq!(human_bytes(7_200_000_000.0), "7.2 GB");
    }

    #[test]
    fn top_cmd_rejects_bad_arguments() {
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert!(top_cmd(&args(&[])).is_err());
        assert!(top_cmd(&args(&["a:1", "b:2"])).is_err());
        assert!(top_cmd(&args(&["--bogus", "a:1"])).is_err());
        assert!(top_cmd(&args(&["a:1", "--interval", "nope"])).is_err());
        assert!(top_cmd(&args(&["a:1", "--interval", "0"])).is_err());
    }
}
