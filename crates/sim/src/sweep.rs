//! Parallel parameter sweeps over simulation sessions.
//!
//! Sensitivity-style studies (seed grids, risk-parameter grids, scenario
//! knobs) need dozens of independent runs. [`SweepRunner`] fans a list of
//! [`SimConfig`]s across `std::thread::scope` workers — each worker builds
//! its own engine, streams the run through a summarising observer, and the
//! results come back indexed by input position, so the output is identical
//! for any worker count.
//!
//! ```
//! use defi_sim::{SimConfig, SweepRunner};
//!
//! // Four seeds of a shortened smoke scenario across two workers.
//! let mut base = SimConfig::smoke_test(40);
//! base.end_block = base.start_block + 3 * base.tick_blocks;
//! let grid = SweepRunner::seed_grid(&base, 4);
//! let summaries = SweepRunner::new(2).run(&grid).unwrap();
//! assert_eq!(summaries.len(), 4);
//! assert_eq!(summaries[0].seed, 40);
//! assert_eq!(summaries[3].seed, 43);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::Serialize;

use defi_chain::ChainEvent;
use defi_core::sensitivity::liquidatable_collateral;
use defi_types::{SignedWad, Token, Wad};

use crate::config::SimConfig;
use crate::observer::{LiquidationObservation, RunEnd, SimObserver};
use crate::session::SimError;

/// Deterministic per-run digest returned by [`SweepRunner::run`]: everything
/// here is a pure function of the run's seed and configuration, so summaries
/// compare equal across worker counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunSummary {
    /// RNG seed of the run.
    pub seed: u64,
    /// Catalog scenario the run used (`paper-two-year` for the default).
    pub scenario: String,
    /// Ticks the scenario executed.
    pub ticks: u64,
    /// Total chain events emitted.
    pub events: usize,
    /// Settled fixed-spread liquidations.
    pub liquidations: u32,
    /// Finalised auctions.
    pub auctions_settled: u32,
    /// Gross liquidator profit across both mechanisms (USD).
    pub gross_profit: SignedWad,
    /// Collateral sold through liquidations (USD).
    pub collateral_sold: Wad,
    /// Open borrowing positions at the snapshot block.
    pub open_positions: u32,
    /// Collateral (USD) that an immediate 43 % ETH decline — the March 2020
    /// crash magnitude — would make liquidatable at the snapshot (Figure 8's
    /// reference point).
    pub eth_decline_43_liquidatable: Wad,
    /// USD of sell-pressure volume the feedback loop could not route through
    /// the DEX (no pool route for the seized token). Zero outside feedback
    /// scenarios; non-zero values mean the spiral understates sell pressure
    /// for those tokens (surfaced rather than silently dropped).
    pub feedback_skipped_usd: Wad,
}

/// Streaming observer that accumulates a [`RunSummary`] in a single pass.
#[derive(Debug)]
struct SummaryObserver {
    liquidations: u32,
    auctions_settled: u32,
    gross_profit: SignedWad,
    collateral_sold: Wad,
    open_positions: u32,
    eth_decline_43_liquidatable: Wad,
}

impl SummaryObserver {
    fn new() -> Self {
        SummaryObserver {
            liquidations: 0,
            auctions_settled: 0,
            gross_profit: SignedWad::ZERO,
            collateral_sold: Wad::ZERO,
            open_positions: 0,
            eth_decline_43_liquidatable: Wad::ZERO,
        }
    }

    fn into_summary(
        self,
        seed: u64,
        scenario: String,
        ticks: u64,
        events: usize,
        feedback_skipped_usd: Wad,
    ) -> RunSummary {
        RunSummary {
            seed,
            scenario,
            ticks,
            events,
            liquidations: self.liquidations,
            auctions_settled: self.auctions_settled,
            gross_profit: self.gross_profit,
            collateral_sold: self.collateral_sold,
            open_positions: self.open_positions,
            eth_decline_43_liquidatable: self.eth_decline_43_liquidatable,
            feedback_skipped_usd,
        }
    }
}

impl SimObserver for SummaryObserver {
    fn on_liquidation(&mut self, liquidation: &LiquidationObservation<'_>) {
        let (repaid, received) = match &liquidation.logged.event {
            ChainEvent::Liquidation(event) => {
                self.liquidations += 1;
                (event.debt_repaid_usd, event.collateral_seized_usd)
            }
            ChainEvent::AuctionFinalized {
                debt_repaid_usd,
                collateral_received_usd,
                ..
            } => {
                self.auctions_settled += 1;
                (*debt_repaid_usd, *collateral_received_usd)
            }
            _ => return,
        };
        self.gross_profit = self.gross_profit.add(SignedWad::sub_wads(received, repaid));
        self.collateral_sold = self.collateral_sold.saturating_add(received);
    }

    fn on_run_end(&mut self, end: &RunEnd<'_>) {
        for positions in end.final_positions.values() {
            self.open_positions += positions.len() as u32;
            self.eth_decline_43_liquidatable = self
                .eth_decline_43_liquidatable
                .saturating_add(liquidatable_collateral(positions, Token::ETH, 0.43));
        }
    }
}

/// Group per-run summaries by the catalog scenario that produced them, in
/// scenario-name order with input order preserved inside each group. `repro
/// --sweep scenarios` reports per-scenario aggregates from this instead of
/// pooling runs of different scenarios into one mean.
pub fn group_by_scenario(summaries: &[RunSummary]) -> Vec<(&str, Vec<&RunSummary>)> {
    let mut groups: std::collections::BTreeMap<&str, Vec<&RunSummary>> =
        std::collections::BTreeMap::new();
    for summary in summaries {
        groups
            .entry(summary.scenario.as_str())
            .or_default()
            .push(summary);
    }
    groups.into_iter().collect()
}

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

    /// Run every configuration through a fresh engine + `SummaryObserver`
    /// session and return the per-run summaries in input order. Named
    /// scenarios resolve against [`crate::ScenarioCatalog::standard`]; use
    /// [`run_with_catalog`](SweepRunner::run_with_catalog) for user-defined
    /// entries.
    pub fn run(&self, configs: &[SimConfig]) -> Result<Vec<RunSummary>, SimError> {
        self.run_with_catalog(configs, &crate::ScenarioCatalog::standard())
    }

    /// [`run`](SweepRunner::run), but resolving named scenarios against the
    /// given catalog (which may carry user-defined entries).
    pub fn run_with_catalog(
        &self,
        configs: &[SimConfig],
        catalog: &crate::ScenarioCatalog,
    ) -> Result<Vec<RunSummary>, SimError> {
        self.map(configs, |_, config| {
            let seed = config.seed;
            let scenario = config
                .scenario
                .clone()
                .unwrap_or_else(|| crate::ScenarioCatalog::DEFAULT_NAME.to_string());
            let ticks = config.tick_count();
            let mut observer = SummaryObserver::new();
            let report = crate::EngineBuilder::new(config)
                .with_catalog(catalog.clone())
                .build()
                .session()
                .run_to_end(&mut observer)?;
            let feedback_skipped_usd = report
                .feedback_skipped
                .values()
                .fold(Wad::ZERO, |acc, skipped| acc.saturating_add(skipped.usd));
            Ok(observer.into_summary(
                seed,
                scenario,
                ticks,
                report.chain.events().len(),
                feedback_skipped_usd,
            ))
        })
        .into_iter()
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

    #[test]
    fn empty_grid_is_fine() {
        assert!(SweepRunner::new(4).run(&[]).unwrap().is_empty());
    }

    #[test]
    fn group_by_scenario_partitions_in_name_order() {
        let mut base = short_config(5, 2);
        base.scenario = None;
        let grid = {
            let mut configs =
                SweepRunner::scenario_grid(&base, &["paper-two-year", "stablecoin-depeg"]);
            configs.extend(SweepRunner::scenario_grid(&base, &["paper-two-year"]));
            configs
        };
        let summaries = SweepRunner::new(2).run(&grid).unwrap();
        let groups = group_by_scenario(&summaries);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "paper-two-year");
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].0, "stablecoin-depeg");
        assert_eq!(groups[1].1.len(), 1);
        let total: usize = groups.iter().map(|(_, runs)| runs.len()).sum();
        assert_eq!(total, summaries.len());
    }

    #[test]
    fn summaries_are_deterministic_per_seed() {
        let grid = SweepRunner::seed_grid(&short_config(11, 25), 2);
        let first = SweepRunner::new(1).run(&grid).unwrap();
        let second = SweepRunner::new(2).run(&grid).unwrap();
        assert_eq!(first, second);
        assert!(first[0].events > 0);
    }
}
