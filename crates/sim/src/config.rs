//! Simulation configuration.

use defi_chain::CongestionEpisode;
use defi_types::{BlockNumber, Platform};

use crate::behavior::BehaviorConfig;

/// Population and behaviour parameters for one platform.
#[derive(Debug, Clone, Copy)]
pub struct PlatformPopulation {
    /// The platform.
    pub platform: Platform,
    /// Expected number of new borrowers arriving per tick at the *end* of the
    /// scenario; arrivals ramp up linearly from ~10 % of this at inception
    /// (the DeFi-growth effect visible in Figure 4).
    pub borrower_arrival_rate: f64,
    /// Maximum number of concurrently tracked borrowers (older, fully repaid
    /// positions are recycled).
    pub max_borrowers: usize,
    /// Median initial collateral value per borrower (USD).
    pub median_collateral_usd: f64,
    /// Log-normal sigma of the collateral size distribution (whale tail).
    pub collateral_sigma: f64,
    /// Target collateralization ratio borrowers aim for when opening
    /// (e.g. 1.45 = they borrow up to ~69 % of collateral value).
    pub target_collateralization: f64,
    /// Fraction of borrowers who actively manage their position (top up or
    /// repay when the health factor approaches 1).
    pub active_manager_share: f64,
    /// Fraction of borrowers who collateralize more than one asset
    /// (the paper finds this is what makes Aave V2 less price-sensitive).
    pub multi_collateral_share: f64,
    /// Fraction of borrowers who collateralize a stablecoin to borrow another
    /// stablecoin (§4.5.2).
    pub stablecoin_borrower_share: f64,
    /// Number of liquidator agents watching this platform.
    pub liquidator_count: usize,
}

impl PlatformPopulation {
    fn scaled(mut self, borrower_factor: f64, arrival_factor: f64) -> Self {
        self.borrower_arrival_rate *= arrival_factor;
        self.max_borrowers =
            ((self.max_borrowers as f64 * borrower_factor).ceil() as usize).max(10);
        self.liquidator_count =
            ((self.liquidator_count as f64 * borrower_factor).ceil() as usize).max(2);
        self
    }
}

/// Full scenario configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; the whole simulation is deterministic given the seed.
    pub seed: u64,
    /// First simulated block.
    pub start_block: BlockNumber,
    /// Last simulated block.
    pub end_block: BlockNumber,
    /// Blocks per simulation tick (price update + agent actions).
    pub tick_blocks: u64,
    /// Per-platform populations.
    pub populations: Vec<PlatformPopulation>,
    /// Probability that a fixed-spread liquidator funds a liquidation with a
    /// flash loan (§4.4.4).
    pub flash_loan_probability: f64,
    /// Share of liquidators that keep bidding stale gas prices under
    /// congestion (the failure mode of March 2020).
    pub stale_bot_share: f64,
    /// Block at which MakerDAO switches to the post-incident auction
    /// parameters (longer bid duration), per Figure 7.
    pub maker_param_change_block: BlockNumber,
    /// Interval (in ticks) at which dYdX's insurance fund writes off
    /// insolvent positions.
    pub insurance_writeoff_interval: u64,
    /// Interval (in ticks) at which collateral-volume samples are recorded.
    pub volume_sample_interval: u64,
    /// Gas consumed by a fixed-spread liquidation call (roughly what mainnet
    /// liquidation transactions use). Gas-sensitivity scenarios can vary it.
    pub liquidation_gas: u64,
    /// Gas consumed by an auction bite / bid / deal.
    pub auction_gas: u64,
    /// Gas consumed by ordinary user operations (deposit/borrow/repay).
    pub user_op_gas: u64,
    /// Name of a [`ScenarioCatalog`](crate::ScenarioCatalog) entry that
    /// provides the price scenario (and its config adjustments) for this run.
    /// `None` reproduces the paper's two-year market. Carried in the config so
    /// sweep grids stay a plain `Vec<SimConfig>`.
    pub scenario: Option<String>,
    /// Whether the named scenario's config adjustments have already been
    /// applied to this configuration. Set by
    /// [`ScenarioCatalog::build`](crate::ScenarioCatalog::build) so that building
    /// an engine from an already-materialised config (e.g. a report's config)
    /// rebuilds the market without re-applying non-idempotent adjustments
    /// such as gas multipliers or extra congestion episodes.
    pub scenario_applied: bool,
    /// Additional scripted gas-congestion episodes layered on top of the
    /// paper's (used by stress scenarios such as `gas-spike-congestion`).
    pub extra_congestion_episodes: Vec<CongestionEpisode>,
    /// Behavioural agent layer: capital-constrained liquidators, latency
    /// staggering and borrower panic exits. Disabled by default, in which
    /// case the engine behaves exactly as the baseline model.
    pub behavior: BehaviorConfig,
}

/// Default gas cost of a fixed-spread liquidation call.
pub const DEFAULT_LIQUIDATION_GAS: u64 = 500_000;
/// Default gas cost of an auction bite / bid / deal.
pub const DEFAULT_AUCTION_GAS: u64 = 180_000;
/// Default gas cost of an ordinary user operation.
pub const DEFAULT_USER_OP_GAS: u64 = 250_000;

impl SimConfig {
    /// The two-year study scenario (April 2019 – April 2021, mainnet block
    /// numbering). Population sizes are chosen so the full run finishes in
    /// seconds in release mode while producing thousands of liquidations with
    /// the paper's qualitative structure.
    pub fn paper_default(seed: u64) -> Self {
        let pop = |platform: Platform,
                   arrival: f64,
                   max: usize,
                   median: f64,
                   multi: f64,
                   stable: f64,
                   liquidators: usize| PlatformPopulation {
            platform,
            borrower_arrival_rate: arrival,
            max_borrowers: max,
            median_collateral_usd: median,
            collateral_sigma: 1.6,
            target_collateralization: 1.45,
            active_manager_share: 0.55,
            multi_collateral_share: multi,
            stablecoin_borrower_share: stable,
            liquidator_count: liquidators,
        };
        SimConfig {
            seed,
            start_block: 7_500_000,
            end_block: 12_344_944,
            tick_blocks: 600, // ≈ 2.2 hours per tick, ~8k ticks over the window
            populations: vec![
                pop(Platform::AaveV1, 0.18, 420, 60_000.0, 0.25, 0.10, 10),
                pop(Platform::AaveV2, 0.30, 520, 120_000.0, 0.55, 0.15, 8),
                pop(Platform::Compound, 0.42, 640, 90_000.0, 0.20, 0.10, 12),
                pop(Platform::DyDx, 0.60, 600, 40_000.0, 0.05, 0.05, 10),
                pop(Platform::MakerDao, 0.36, 600, 110_000.0, 0.0, 0.0, 6),
            ],
            flash_loan_probability: 0.04,
            stale_bot_share: 0.35,
            maker_param_change_block: 9_800_000,
            insurance_writeoff_interval: 20,
            volume_sample_interval: 10,
            liquidation_gas: DEFAULT_LIQUIDATION_GAS,
            auction_gas: DEFAULT_AUCTION_GAS,
            user_op_gas: DEFAULT_USER_OP_GAS,
            scenario: None,
            scenario_applied: false,
            extra_congestion_episodes: Vec::new(),
            behavior: BehaviorConfig::default(),
        }
    }

    /// A fast, scaled-down scenario (≈ 3 months, small populations) used by
    /// unit/integration tests so `cargo test` stays quick even in debug mode.
    pub fn smoke_test(seed: u64) -> Self {
        let mut config = SimConfig::paper_default(seed);
        config.start_block = 9_500_000;
        config.end_block = 9_900_000; // spans the March 2020 crash
        config.tick_blocks = 1_200;
        // Fewer concurrent borrowers, but a much higher arrival rate so the
        // short window still produces a meaningful number of liquidations.
        config.populations = config
            .populations
            .into_iter()
            .map(|p| p.scaled(0.4, 4.0))
            .collect();
        config
    }

    /// Number of ticks the scenario will run.
    pub fn tick_count(&self) -> u64 {
        (self.end_block - self.start_block) / self.tick_blocks
    }

    /// The population entry for a platform.
    pub fn population(&self, platform: Platform) -> Option<&PlatformPopulation> {
        self.populations.iter().find(|p| p.platform == platform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_covers_all_platforms() {
        let config = SimConfig::paper_default(1);
        for platform in Platform::ALL {
            assert!(config.population(platform).is_some(), "{platform} missing");
        }
        assert!(config.tick_count() > 5_000);
        assert!(config.maker_param_change_block > config.start_block);
        assert!(config.maker_param_change_block < config.end_block);
    }

    #[test]
    fn smoke_test_is_much_smaller() {
        let paper = SimConfig::paper_default(1);
        let smoke = SimConfig::smoke_test(1);
        assert!(smoke.tick_count() < paper.tick_count() / 10);
        let paper_max: usize = paper.populations.iter().map(|p| p.max_borrowers).sum();
        let smoke_max: usize = smoke.populations.iter().map(|p| p.max_borrowers).sum();
        assert!(smoke_max < paper_max);
    }

    #[test]
    fn gas_costs_default_to_mainnet_magnitudes_and_are_tunable() {
        let mut config = SimConfig::paper_default(1);
        assert_eq!(config.liquidation_gas, DEFAULT_LIQUIDATION_GAS);
        assert_eq!(config.auction_gas, DEFAULT_AUCTION_GAS);
        assert_eq!(config.user_op_gas, DEFAULT_USER_OP_GAS);
        // A gas-sensitivity scenario can dial them without touching the engine.
        config.liquidation_gas *= 2;
        assert_eq!(config.liquidation_gas, 1_000_000);
    }

    #[test]
    fn aave_v2_has_highest_multi_collateral_share() {
        let config = SimConfig::paper_default(1);
        let aave_v2 = config.population(Platform::AaveV2).unwrap();
        for population in &config.populations {
            if population.platform != Platform::AaveV2 {
                assert!(aave_v2.multi_collateral_share >= population.multi_collateral_share);
            }
        }
    }
}
