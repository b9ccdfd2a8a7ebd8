//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this implements the
//! small API surface the workspace's benches use — `criterion_group!`,
//! `criterion_main!`, [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] and [`Bencher::iter`] — as a
//! micro-harness: each benchmark is warmed up once, timed over a handful of
//! iterations, and the mean wall-clock time is printed. No statistics, plots
//! or baselines. Every registered group function runs on every invocation;
//! the command-line filter only selects which timed bodies run.

use std::time::{Duration, Instant};

/// Prevent the optimizer from discarding a value (best-effort).
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Times one benchmark body.
pub struct Bencher {
    iterations: u32,
    total: Duration,
}

impl Bencher {
    fn new(iterations: u32) -> Self {
        Bencher {
            iterations,
            total: Duration::ZERO,
        }
    }

    /// Time `routine` over the configured iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up, untimed
        let started = Instant::now();
        for _ in 0..self.iterations {
            black_box(routine());
        }
        self.total += started.elapsed();
    }

    fn mean(&self) -> Duration {
        self.total / self.iterations.max(1)
    }
}

/// Command-line options shared by every group, mirroring the subset of the
/// real criterion CLI the workspace relies on: a substring filter selecting
/// which benchmarks run, and `--test` (run each selected benchmark exactly
/// once, as a smoke check, instead of timing it) for quick CI runs.
#[derive(Debug, Clone, Default)]
struct CliOptions {
    filter: Option<String>,
    test_mode: bool,
}

impl CliOptions {
    fn from_env() -> Self {
        let mut options = CliOptions::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => options.test_mode = true,
                // Harness flags cargo may forward; ignore like criterion does.
                "--bench" | "--nocapture" | "--quiet" => {}
                other if other.starts_with("--") => {}
                other => options.filter = Some(other.to_string()),
            }
        }
        options
    }

    fn selects(&self, label: &str) -> bool {
        self.filter
            .as_deref()
            .map(|needle| label.contains(needle))
            .unwrap_or(true)
    }

    /// Timed iterations for one benchmark: `--test` forces a single smoke
    /// iteration regardless of the configured sample size.
    fn effective_iterations(&self, configured: u32) -> u32 {
        if self.test_mode {
            1
        } else {
            configured
        }
    }
}

/// Entry point handed to every benchmark function.
pub struct Criterion {
    iterations: u32,
    options: CliOptions,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            iterations: 5,
            options: CliOptions::from_env(),
        }
    }
}

impl Criterion {
    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl AsRef<str>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.as_ref().to_string(),
            iterations: self.iterations,
            options: self.options.clone(),
        }
    }
}

/// A named collection of benchmarks sharing settings.
pub struct BenchmarkGroup {
    name: String,
    iterations: u32,
    options: CliOptions,
}

impl BenchmarkGroup {
    /// Override the number of timed iterations for this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.iterations = (samples as u32).clamp(1, 1_000);
        self
    }

    /// Register and immediately run one benchmark in the group.
    pub fn bench_function<F>(&mut self, name: impl AsRef<str>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, name.as_ref());
        if self.options.selects(&label) {
            let iterations = self.options.effective_iterations(self.iterations);
            let mut bencher = Bencher::new(iterations);
            f(&mut bencher);
            println!(
                "bench {label:<50} {:>12.3?} /iter ({iterations} iters)",
                bencher.mean()
            );
        }
        self
    }

    /// Finish the group (no-op; groups run eagerly).
    pub fn finish(self) {}
}

/// Bundle benchmark functions under one group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($function:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($function(&mut criterion);)+
        }
    };
}

/// Emit `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
