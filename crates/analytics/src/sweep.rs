//! Seed and scenario sweeps of the study pipeline.
//!
//! [`sweep_summaries`] fans a grid of configurations across a
//! [`SweepRunner`]'s workers and streams each one through
//! [`StudyAnalysis::stream`], so every run of a sweep is measured by the same
//! functions as a single `repro` run. [`RunSummary::of`] reads each finished
//! run's digest off its study and report; `repro --sweep` prints the digests
//! and writes them to `sweep.json`. Results come back in grid order, so a
//! sweep's output is identical for any worker count.
//!
//! ```
//! use defi_analytics::sweep::sweep_summaries;
//! use defi_sim::{ScenarioCatalog, SimConfig, SweepRunner};
//!
//! // Two seeds of a shortened smoke scenario across two workers.
//! let mut base = SimConfig::smoke_test(40);
//! base.end_block = base.start_block + 3 * base.tick_blocks;
//! let grid = SweepRunner::seed_grid(&base, 2);
//! let catalog = ScenarioCatalog::standard();
//! let summaries = sweep_summaries(&SweepRunner::new(2), &grid, &catalog).unwrap();
//! assert_eq!(summaries.len(), 2);
//! assert_eq!(summaries[1].seed, 41);
//! ```

use defi_core::sensitivity::liquidatable_collateral;
use defi_sim::{
    EngineBuilder, ScenarioCatalog, SimConfig, SimError, SimulationReport, SweepRunner,
};
use defi_types::{SignedWad, Token, Wad};

use crate::records::LiquidationKind;
use crate::study::StudyAnalysis;

/// Deterministic per-run digest of a sweep: everything here is a pure
/// function of the run's seed and configuration, so summaries compare equal
/// across worker counts.
#[derive(Debug, Clone, PartialEq)]
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

impl RunSummary {
    /// Read the digest of one finished run off its study and report; the
    /// seed, scenario label and tick count come from the grid's `config`.
    pub fn of(config: &SimConfig, study: &StudyAnalysis, report: &SimulationReport) -> Self {
        let (mut liquidations, mut auctions_settled) = (0, 0);
        for record in &study.records {
            match record.kind {
                LiquidationKind::FixedSpread => liquidations += 1,
                LiquidationKind::Auction(_) => auctions_settled += 1,
            }
        }
        let mut open_positions = 0;
        let mut eth_decline_43_liquidatable = Wad::ZERO;
        for positions in report.final_positions.values() {
            open_positions += positions.len() as u32;
            eth_decline_43_liquidatable = eth_decline_43_liquidatable
                .saturating_add(liquidatable_collateral(positions, Token::ETH, 0.43));
        }
        RunSummary {
            seed: config.seed,
            scenario: config
                .scenario
                .clone()
                .unwrap_or_else(|| ScenarioCatalog::DEFAULT_NAME.to_string()),
            ticks: config.tick_count(),
            events: report.chain.events().len(),
            liquidations,
            auctions_settled,
            gross_profit: study.headline.total_profit,
            collateral_sold: study.headline.total_collateral_sold,
            open_positions,
            eth_decline_43_liquidatable,
            feedback_skipped_usd: report
                .feedback_skipped
                .values()
                .fold(Wad::ZERO, |acc, skipped| acc.saturating_add(skipped.usd)),
        }
    }
}

/// Stream every configuration of `grid` through the study pipeline on
/// `runner`'s workers and return each run's [`RunSummary`], in grid order.
/// Named scenarios resolve against `catalog`, which may carry user-defined
/// entries.
pub fn sweep_summaries(
    runner: &SweepRunner,
    grid: &[SimConfig],
    catalog: &ScenarioCatalog,
) -> Result<Vec<RunSummary>, SimError> {
    runner
        .map(grid, |_, config| {
            let engine = EngineBuilder::new(config.clone())
                .with_catalog(catalog.clone())
                .build();
            let (study, report) = StudyAnalysis::stream(engine)?;
            Ok(RunSummary::of(&config, &study, &report))
        })
        .into_iter()
        .collect()
}
