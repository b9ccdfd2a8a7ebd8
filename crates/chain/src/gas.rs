//! Gas market model.
//!
//! Figure 6 of the paper plots the gas price of every fixed-spread
//! liquidation transaction against the 6,000-block (≈ 1 day) moving average
//! of the block median gas price. Two qualitative features matter:
//!
//! 1. a **spike in March 2020** caused by the ETH price collapse and the
//!    resulting network congestion, and
//! 2. an **uptrend from May 2020** onwards driven by DeFi's growing
//!    popularity.
//!
//! The [`GasMarket`] reproduces both: the block-median gas price follows a
//! mean-reverting log process around a configurable baseline trend, and
//! scripted congestion episodes push the baseline (and the variance) up for
//! their duration. Liquidator agents then bid *relative* to the prevailing
//! median, which yields the paper's observation that 73.97 % of liquidations
//! pay an above-average fee.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

use defi_types::BlockNumber;

/// A gas price in gwei (10⁻⁹ ETH per gas unit).
pub type GweiPrice = u64;

/// A scripted congestion episode: between `from` and `to` the baseline gas
/// price is multiplied by `multiplier` and volatility is raised.
#[derive(Debug, Clone, Copy)]
pub struct CongestionEpisode {
    /// First block of the episode.
    pub from: BlockNumber,
    /// Last block of the episode (inclusive).
    pub to: BlockNumber,
    /// Baseline multiplier during the episode (e.g. 10.0 for March 2020).
    pub multiplier: f64,
}

/// Configuration of the gas market.
#[derive(Debug, Clone)]
pub struct GasMarketConfig {
    /// Gas price baseline (gwei) at the first block.
    pub initial_baseline: f64,
    /// Gas price baseline (gwei) at the last block; the baseline interpolates
    /// geometrically between the two, reproducing the 2020–2021 uptrend.
    pub final_baseline: f64,
    /// First block of the simulation (for the interpolation).
    pub start_block: BlockNumber,
    /// Last block of the simulation (for the interpolation).
    pub end_block: BlockNumber,
    /// Standard deviation of the per-block log-noise in calm conditions.
    pub calm_sigma: f64,
    /// Mean-reversion strength towards the baseline (0–1 per block).
    pub reversion: f64,
    /// Scripted congestion episodes.
    pub episodes: Vec<CongestionEpisode>,
    /// Block gas limit (gas units per block).
    pub block_gas_limit: u64,
    /// RNG seed (the market is deterministic given the seed).
    pub seed: u64,
}

impl Default for GasMarketConfig {
    fn default() -> Self {
        GasMarketConfig {
            initial_baseline: 10.0,
            final_baseline: 120.0,
            start_block: 7_500_000,
            end_block: 12_344_944,
            calm_sigma: 0.08,
            reversion: 0.05,
            episodes: Vec::new(),
            block_gas_limit: 12_500_000,
            seed: 0x6a5,
        }
    }
}

impl GasMarketConfig {
    /// The configuration used by the two-year study scenario: baseline 10 →
    /// 120 gwei with a 10× congestion episode around 13 March 2020 (blocks
    /// ~9,620,000–9,700,000) and a 3× episode in February 2021.
    pub fn paper_study() -> Self {
        GasMarketConfig {
            episodes: vec![
                CongestionEpisode {
                    from: 9_707_000,
                    to: 9_792_000,
                    multiplier: 10.0,
                },
                CongestionEpisode {
                    from: 11_200_000,
                    to: 11_260_000,
                    multiplier: 2.5,
                },
                CongestionEpisode {
                    from: 11_900_000,
                    to: 11_990_000,
                    multiplier: 3.0,
                },
            ],
            ..GasMarketConfig::default()
        }
    }
}

/// Per-block gas price state.
#[derive(Debug, Clone)]
pub struct GasMarket {
    config: GasMarketConfig,
    rng: StdRng,
    /// Current block-median gas price (gwei, floating for the dynamics).
    current_median: f64,
}

impl GasMarket {
    /// Create a gas market from a configuration.
    pub fn new(config: GasMarketConfig) -> Self {
        GasMarket {
            rng: StdRng::seed_from_u64(config.seed),
            current_median: config.initial_baseline,
            config,
        }
    }

    /// The block gas limit.
    pub fn block_gas_limit(&self) -> u64 {
        self.config.block_gas_limit
    }

    /// Baseline (trend) gas price at a block, including congestion episodes.
    pub fn baseline(&self, block: BlockNumber) -> f64 {
        let cfg = &self.config;
        let span = (cfg.end_block.saturating_sub(cfg.start_block)).max(1) as f64;
        let t = (block.saturating_sub(cfg.start_block) as f64 / span).clamp(0.0, 1.0);
        // Geometric interpolation keeps relative (percentage) growth constant.
        let mut base = cfg.initial_baseline * (cfg.final_baseline / cfg.initial_baseline).powf(t);
        for ep in &cfg.episodes {
            if block >= ep.from && block <= ep.to {
                base *= ep.multiplier;
            }
        }
        base
    }

    /// Whether a block falls inside a scripted congestion episode.
    pub fn is_congested(&self, block: BlockNumber) -> bool {
        self.config
            .episodes
            .iter()
            .any(|ep| block >= ep.from && block <= ep.to)
    }

    /// Advance the market to `block` and return the block-median gas price.
    ///
    /// Must be called with non-decreasing block numbers.
    pub fn advance(&mut self, block: BlockNumber) -> GweiPrice {
        let baseline = self.baseline(block);
        let sigma = if self.is_congested(block) {
            self.config.calm_sigma * 3.0
        } else {
            self.config.calm_sigma
        };
        let noise = Normal::new(0.0, sigma)
            .map(|n| n.sample(&mut self.rng))
            .unwrap_or(0.0);
        // Mean-revert the log price towards the baseline, then perturb.
        let log_current = self.current_median.max(0.1).ln();
        let log_target = baseline.max(0.1).ln();
        let log_next = log_current + self.config.reversion * (log_target - log_current) + noise;
        self.current_median = log_next.exp().clamp(1.0, 100_000.0);
        self.current_median.round() as GweiPrice
    }

    /// Current block-median gas price (gwei).
    pub fn median(&self) -> GweiPrice {
        self.current_median.round() as GweiPrice
    }

    /// A competitive bid around the current median: `aggressiveness` ≥ 0 is
    /// the fraction above the median the bidder is willing to pay (liquidators
    /// front-running each other, §3.1), with multiplicative jitter.
    pub fn competitive_bid(&mut self, aggressiveness: f64) -> GweiPrice {
        let jitter: f64 = self.rng.gen_range(0.9..1.25);
        let price = self.current_median * (1.0 + aggressiveness.max(0.0)) * jitter;
        price.round().max(1.0) as GweiPrice
    }

    /// A passive bid below the current median (bots that keep a fixed, stale
    /// gas price — these are the liquidations below the average line in
    /// Figure 6).
    pub fn passive_bid(&mut self, discount: f64) -> GweiPrice {
        let jitter: f64 = self.rng.gen_range(0.8..1.0);
        let price = self.current_median * (1.0 - discount.clamp(0.0, 0.95)) * jitter;
        price.round().max(1.0) as GweiPrice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_trend_is_increasing() {
        let market = GasMarket::new(GasMarketConfig::paper_study());
        let early = market.baseline(8_000_000);
        let late = market.baseline(12_000_000);
        assert!(
            late > early * 2.0,
            "late baseline {late} should exceed early {early}"
        );
    }

    #[test]
    fn congestion_episode_raises_baseline() {
        let market = GasMarket::new(GasMarketConfig::paper_study());
        let calm = market.baseline(9_600_000);
        let congested = market.baseline(9_750_000);
        assert!(congested > calm * 5.0);
        assert!(market.is_congested(9_750_000));
        assert!(!market.is_congested(9_600_000));
    }

    #[test]
    fn advance_is_deterministic_for_seed() {
        let cfg = GasMarketConfig::paper_study();
        let mut a = GasMarket::new(cfg.clone());
        let mut b = GasMarket::new(cfg);
        for block in 7_500_000..7_500_100 {
            assert_eq!(a.advance(block), b.advance(block));
        }
    }

    #[test]
    fn competitive_bid_above_passive_bid() {
        let mut market = GasMarket::new(GasMarketConfig::default());
        market.advance(7_500_001);
        let mut competitive_higher = 0;
        for _ in 0..50 {
            let c = market.competitive_bid(0.5);
            let p = market.passive_bid(0.5);
            if c > p {
                competitive_higher += 1;
            }
        }
        assert!(competitive_higher > 45);
    }

    #[test]
    fn prices_stay_in_sane_range() {
        let mut market = GasMarket::new(GasMarketConfig::paper_study());
        for block in (7_500_000..12_344_944).step_by(10_000) {
            let p = market.advance(block);
            assert!(
                (1..=100_000).contains(&p),
                "price {p} out of range at block {block}"
            );
        }
    }
}
