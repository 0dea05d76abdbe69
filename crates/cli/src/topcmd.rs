//! The `top` subcommand: a live terminal dashboard over the server's
//! recent steps.
//!
//! Polls the server's side door with series `Scrape` frames (the same
//! non-intrusive path `threelc trace <addr>` uses), so watching a run costs
//! the server one serialized ring per interval and never touches worker
//! connections. One row per worker: last recorded step, achieved push
//! compression ratio, wire throughput, rejoin count, step latency, how
//! late its push reached the barrier (the live view of `threelc
//! analyze`'s blame), and an ASCII sparkline of recent wire bytes.
//! `--once` renders a single frame and exits (the CI smoke), `--json`
//! prints the raw ring instead of the dashboard.

use crate::netcmd::{has_flag, parse_flag, sole_positional, split_flags};
use std::error::Error;
use std::fmt::Write as _;
use std::time::Duration;
use threelc_net::scrape_series;
use threelc_obs::{RecentSteps, WorkerDelta};

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
        let recent = scrape_series(addr, Duration::from_secs(5))?;
        return render_output(&recent, json);
    }
    // Watch mode: one frame per interval until the server goes away (the
    // run finished or aborted), which is a clean exit, not an error.
    let mut frames = 0u64;
    loop {
        match scrape_series(addr, Duration::from_secs(5)) {
            Ok(recent) => {
                print!("{}", render_output(&recent, json)?);
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

fn render_output(recent: &RecentSteps, json: bool) -> CliResult {
    if json {
        let mut out = serde_json::to_string_pretty(recent)?;
        out.push('\n');
        Ok(out)
    } else {
        Ok(render_dashboard(recent))
    }
}

/// Renders one dashboard frame: a run-level headline plus one row per
/// worker. Every worker gets a row even before its first step lands.
pub fn render_dashboard(recent: &RecentSteps) -> String {
    let mut out = String::new();
    // The headline sums and averages the newest row in worker order.
    let last = recent.rows.last().map_or(&[][..], |r| &r.deltas[..]);
    let (run_bytes, run_ratio) = if last.is_empty() {
        (0.0, 0.0)
    } else {
        let n = last.len() as f64;
        (
            last.iter().map(|d| d.wire_bytes).sum::<u64>() as f64,
            last.iter().map(|d| d.ratio).sum::<f64>() / n,
        )
    };
    let _ = writeln!(
        out,
        "run: {} step(s) recorded, {} worker(s), last step {} wire, ratio {:.1}x",
        recent.steps_recorded(),
        recent.workers,
        human_bytes(run_bytes),
        run_ratio,
    );

    let _ = writeln!(
        out,
        "{:<8} {:<10} {:>8} {:>8} {:>12} {:>8} {:>10} {:>12}  wire trend",
        "worker", "state", "step", "ratio", "bytes/s", "rejoins", "latency", "bottleneck"
    );
    for i in 0..recent.workers {
        // This worker's deltas, oldest first, with the step of each.
        let own: Vec<(u64, &WorkerDelta)> = recent
            .rows
            .iter()
            .flat_map(|r| r.deltas.iter().map(move |d| (r.step, d)))
            .filter(|(_, d)| d.worker == i)
            .collect();
        let (state, step, d) = match own.last() {
            Some(&(step, d)) => ("ok", step.to_string(), *d),
            None => ("waiting", "-".into(), WorkerDelta::default()),
        };
        let latency = d.step_seconds;
        let bytes = d.wire_bytes as f64;
        let rate = if latency > 0.0 { bytes / latency } else { 0.0 };
        // How late this worker's push reached the barrier relative to the
        // fastest peer — the live proxy for critical-path blame (`threelc
        // analyze` attributes exactly this time to the late worker).
        let behind = d.barrier_wait_seconds;
        let bottleneck = if behind >= BOTTLENECK_FLOOR_SECONDS {
            format!("net +{:.0}ms", behind * 1e3)
        } else {
            "-".into()
        };
        let wire: Vec<f64> = own.iter().map(|(_, d)| d.wire_bytes as f64).collect();
        let _ = writeln!(
            out,
            "worker {i:<1} {state:<10} {step:>8} {:>7.1}x {:>12} {:>8} {:>9.1}ms {bottleneck:>12}  |{}|",
            d.ratio,
            human_bytes(rate),
            d.rejoins,
            latency * 1e3,
            sparkline(&wire[wire.len().saturating_sub(SPARK_POINTS)..]),
        );
    }
    out
}

/// An ASCII sparkline over `values`, min-max normalized (a flat run
/// renders as all-middle glyphs).
fn sparkline(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    let top = (SPARK_GLYPHS.len() - 1) as f64;
    values
        .iter()
        .map(|v| {
            let level = if span > 0.0 {
                ((v - min) / span * top).round() as usize
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

    fn store_with_steps(workers: usize, steps: u64) -> RecentSteps {
        let mut r = RecentSteps::new(workers);
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
            r.record(step, &deltas);
        }
        r
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
        let out = render_dashboard(&RecentSteps::new(2));
        assert!(out.contains("0 step(s) recorded"), "{out}");
        assert!(out.contains("worker 0"), "{out}");
        assert!(out.contains("worker 1"), "{out}");
        assert!(out.contains("waiting"), "{out}");
    }

    #[test]
    fn sparkline_tracks_the_trend() {
        let rising: Vec<f64> = (0..8).map(f64::from).collect();
        let line = sparkline(&rising);
        assert_eq!(line.len(), 8);
        assert!(line.starts_with(' '), "lowest value maps low: {line:?}");
        assert!(line.ends_with('@'), "highest value maps high: {line:?}");
        // A flat run renders mid-level glyphs, not a panic; none renders
        // nothing.
        assert_eq!(sparkline(&[5.0, 5.0]), "++");
        assert_eq!(sparkline(&[]), "");
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
