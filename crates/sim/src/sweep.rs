//! Parallel parameter sweeps over simulation configurations.
//!
//! Sensitivity-style studies (seed grids, risk-parameter grids, scenario
//! knobs) need dozens of independent runs. [`SweepRunner`] fans a list of
//! [`SimConfig`]s across `std::thread::scope` workers and hands each to a
//! job; the results come back indexed by input position, so the output is
//! identical for any worker count. What a job does with its configuration
//! is the caller's: `defi_analytics::sweep` streams each one through the
//! study pipeline.
//!
//! ```
//! use defi_sim::{SimConfig, SweepRunner};
//!
//! // Four seeds of the smoke scenario across two workers; the job sees
//! // each configuration with its grid index.
//! let grid = SweepRunner::seed_grid(&SimConfig::smoke_test(40), 4);
//! let seeds = SweepRunner::new(2).map(&grid, |index, config| (index, config.seed));
//! assert_eq!(seeds, [(0, 40), (1, 41), (2, 42), (3, 43)]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::config::SimConfig;

/// Fans independent simulation runs across scoped worker threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    workers: usize,
}

impl SweepRunner {
    /// A runner with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        SweepRunner {
            workers: workers.max(1),
        }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn auto() -> Self {
        SweepRunner::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A grid of `runs` configurations differing only in seed
    /// (`base.seed`, `base.seed + 1`, …).
    pub fn seed_grid(base: &SimConfig, runs: u64) -> Vec<SimConfig> {
        (0..runs)
            .map(|i| {
                let mut config = base.clone();
                config.seed = base.seed.wrapping_add(i);
                config
            })
            .collect()
    }

    /// A grid running the same seed through every named catalog scenario —
    /// one configuration per name, in catalog order. Scenario-specific config
    /// adjustments are applied when each engine is built, so the grid itself
    /// stays a plain `Vec<SimConfig>` and sweeps stay worker-count-
    /// independent. Use [`crate::ScenarioCatalog::standard`]`().names()` for
    /// the full catalog.
    pub fn scenario_grid(base: &SimConfig, names: &[&str]) -> Vec<SimConfig> {
        names
            .iter()
            .map(|name| {
                let mut config = base.clone();
                config.scenario = Some(name.to_string());
                config
            })
            .collect()
    }

    /// Run an arbitrary job over every configuration, returning results in
    /// input order. The job receives the configuration's index and a clone of
    /// the configuration; each invocation runs on one of the scoped workers.
    pub fn map<T, F>(&self, configs: &[SimConfig], job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, SimConfig) -> T + Sync,
    {
        let total = configs.len();
        if total == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(total);
        if workers <= 1 {
            return configs
                .iter()
                .enumerate()
                .map(|(index, config)| job(index, config.clone()))
                .collect();
        }
        // Workers pull indexes from a shared counter and push `(index, T)`
        // pairs into one shared vector; sorting by index afterwards restores
        // input order, so the output is identical for any worker count. A
        // poisoned lock only means another worker panicked mid-push — the
        // scope re-raises that panic once the threads join, so recovering the
        // inner vector here is safe and keeps this path panic-free itself.
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(total));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let Some(config) = configs.get(index) else {
                        break;
                    };
                    let result = job(index, config.clone());
                    let mut guard = match results.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    guard.push((index, result));
                });
            }
        });
        let mut results = match results.into_inner() {
            Ok(results) => results,
            Err(poisoned) => poisoned.into_inner(),
        };
        results.sort_by_key(|&(index, _)| index);
        results.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_config(seed: u64, ticks: u64) -> SimConfig {
        let mut config = SimConfig::smoke_test(seed);
        config.end_block = config.start_block + ticks * config.tick_blocks;
        config
    }

    #[test]
    fn seed_grid_varies_only_the_seed() {
        let base = short_config(100, 5);
        let grid = SweepRunner::seed_grid(&base, 3);
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[0].seed, 100);
        assert_eq!(grid[2].seed, 102);
        for config in &grid {
            assert_eq!(config.end_block, base.end_block);
            assert_eq!(config.populations.len(), base.populations.len());
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let grid = SweepRunner::seed_grid(&short_config(7, 1), 8);
        let seeds = SweepRunner::new(3).map(&grid, |index, config| (index, config.seed));
        for (position, (index, seed)) in seeds.iter().enumerate() {
            assert_eq!(position, *index);
            assert_eq!(*seed, 7 + position as u64);
        }
    }
}
