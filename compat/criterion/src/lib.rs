//! Offline stand-in for `criterion`.
//!
//! Implements the configuration and measurement surface this workspace's
//! benches use (`criterion_group!` with `config =`, benchmark groups,
//! throughput annotation, `bench_with_input`, `Bencher::iter`). Measurement
//! is a simple calibrated wall-clock loop: `sample_size` equal batches that
//! together fill the configured measurement time, reporting the median
//! per-iteration time of the samples with their quartiles, and throughput
//! at the median. A mean over the whole window carries every host burst
//! that lands in it; the median of many short samples does not. No plots
//! or comparison to saved baselines.
//!
//! Like real criterion, passing `--test` on the command line (i.e.
//! `cargo bench -- --test`) switches to smoke mode: every benchmark
//! routine runs exactly once, with no warm-up and no timing — a fast
//! does-it-still-run check for CI.

use std::fmt::{self, Display};
use std::hint::black_box as std_black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Whether `--test` was passed on the command line (smoke mode).
fn test_mode() -> bool {
    static MODE: OnceLock<bool> = OnceLock::new();
    *MODE.get_or_init(|| std::env::args().any(|a| a == "--test"))
}

/// Re-export matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Top-level benchmark driver and configuration.
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Number of measured samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Time spent warming up before measurement.
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Target total measurement time per benchmark.
    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let config = self.snapshot();
        run_benchmark(&config, name, None, f);
    }

    fn snapshot(&self) -> Config {
        Config {
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
        }
    }
}

#[derive(Clone)]
struct Config {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

/// Throughput annotation: scales reported rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Bytes, reported in decimal units.
    BytesDecimal(u64),
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A two-part id (`name/parameter`).
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id that is just the parameter's display form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// A group of related benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Per-group sample-size override (accepted for API compatibility).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let config = self.criterion.snapshot();
        run_benchmark(&config, &full, self.throughput, f);
    }

    /// Runs one benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input));
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; measures the routine handed to [`iter`].
///
/// [`iter`]: Bencher::iter
pub struct Bencher {
    config: Config,
    /// Seconds per iteration of each sample, filled by `iter`.
    samples: Vec<f64>,
}

/// The first quartile, median and third quartile of `xs` (sorted in
/// place), each the nearest-rank element; NaN for no samples.
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    if xs.is_empty() {
        return [f64::NAN; 3];
    }
    xs.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| xs[(q * (xs.len() - 1) + 2) / 4])
}

impl Bencher {
    /// Measures `routine`, recording the wall-clock time per call of each
    /// sample.
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        if test_mode() {
            // Smoke mode: one untimed call proves the routine still runs.
            std_black_box(routine());
            return;
        }
        // Warm up and calibrate: how many calls fit in the warm-up window?
        let warm_deadline = Instant::now() + self.config.warm_up_time;
        let mut warm_calls: u64 = 0;
        while Instant::now() < warm_deadline {
            std_black_box(routine());
            warm_calls += 1;
        }
        let per_call = self.config.warm_up_time.as_secs_f64() / warm_calls.max(1) as f64;

        // Split the measurement budget into samples of equal batches.
        let budget = self.config.measurement_time.as_secs_f64();
        let samples = self.config.sample_size as u64;
        let batch = ((budget / per_call) / samples as f64).ceil().max(1.0) as u64;

        self.samples = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    std_black_box(routine());
                }
                start.elapsed().as_secs_f64() / batch as f64
            })
            .collect();
    }
}

fn run_benchmark<F>(config: &Config, name: &str, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        config: config.clone(),
        samples: Vec::new(),
    };
    f(&mut bencher);
    if test_mode() {
        println!("{name:<48} ok (test mode: 1 iteration)");
        return;
    }
    let [q1, per_iter, q3] = quartiles(&mut bencher.samples);
    let rate = match throughput {
        _ if !per_iter.is_finite() || per_iter <= 0.0 => String::new(),
        Some(Throughput::Elements(n)) => {
            format!("  {:>12.3} Melem/s", n as f64 / per_iter / 1e6)
        }
        Some(Throughput::Bytes(n) | Throughput::BytesDecimal(n)) => {
            format!("  {:>12.3} MiB/s", n as f64 / per_iter / (1024.0 * 1024.0))
        }
        None => String::new(),
    };
    println!(
        "{name:<48} {:>12.3} us/iter [{:.3} {:.3}]{rate}",
        per_iter * 1e6,
        q1 * 1e6,
        q3 * 1e6
    );
}

/// Defines a runnable group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Defines `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(10));
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(4));
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &x| {
            b.iter(|| x.wrapping_mul(3));
        });
        group.finish();
    }

    #[test]
    fn quartiles_are_nearest_rank_elements() {
        assert!(quartiles(&mut []).iter().all(|q| q.is_nan()));
        assert_eq!(quartiles(&mut [3.0]), [3.0; 3]);
        let mut xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(quartiles(&mut xs), [3.0, 5.0, 7.0]);
        let mut xs: Vec<f64> = (0..20).rev().map(f64::from).collect();
        assert_eq!(quartiles(&mut xs), [5.0, 10.0, 14.0]);
    }
}
