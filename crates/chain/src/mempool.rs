//! Background gas demand and the block-inclusion test it implies.
//!
//! "Due to the limited space of an Ethereum block …, a financially rational
//! miner may include the transactions with the highest gas prices from the
//! mempool into the next block. The blockchain network congests when the
//! mempool grows faster than the transaction inclusion speed" (§2.1). This is
//! the mechanism that caused the March 2020 MakerDAO incident: keeper bots
//! bidding stale gas prices were simply not included.
//!
//! The model: each block has `block_gas_limit` gas of capacity. Background
//! demand (ordinary transfers, trades, etc.) consumes a block-dependent share
//! of that capacity, with gas prices log-normally distributed around the
//! block median ([`BackgroundDemand`]). A transaction is included once the
//! background gas bidding *more* than it, plus its own gas, fits within the
//! limit: `gas_above(price, limit) + gas ≤ limit`, the check the simulation
//! engine runs on every liquidation attempt.

use crate::gas::GweiPrice;

/// Background (non-protocol) demand model for one block.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundDemand {
    /// Total gas demanded by background transactions, as a multiple of the
    /// block gas limit. Values above 1.0 mean the block is oversubscribed.
    pub utilization: f64,
    /// Median gas price of the background demand (gwei).
    pub median_gas_price: f64,
    /// Log-space standard deviation of background gas prices.
    pub sigma: f64,
}

impl BackgroundDemand {
    /// Calm network conditions.
    pub fn calm(median_gas_price: f64) -> Self {
        BackgroundDemand {
            utilization: 0.75,
            median_gas_price,
            sigma: 0.5,
        }
    }

    /// Congested conditions (demand exceeds capacity).
    pub fn congested(median_gas_price: f64) -> Self {
        BackgroundDemand {
            utilization: 2.5,
            median_gas_price,
            sigma: 0.7,
        }
    }

    /// Fraction of the background demand bidding at or above `price`,
    /// under the log-normal price model.
    fn share_above(&self, price: GweiPrice) -> f64 {
        if price == 0 {
            return 1.0;
        }
        let z = ((price as f64).ln() - self.median_gas_price.max(1e-9).ln()) / self.sigma;
        1.0 - normal_cdf(z)
    }

    /// Gas demanded by background transactions bidding at or above `price`,
    /// given the block gas limit.
    pub fn gas_above(&self, price: GweiPrice, block_gas_limit: u64) -> f64 {
        self.utilization * block_gas_limit as f64 * self.share_above(price)
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max error ≈ 1.5e-7, far below what the congestion model needs).
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: u64 = 12_500_000;

    /// The engine's inclusion check: the background gas bidding above
    /// `price`, plus the transaction's own gas, fits in the block.
    fn included(demand: BackgroundDemand, price: GweiPrice, gas: u64) -> bool {
        demand.gas_above(price, LIMIT) + gas as f64 <= LIMIT as f64
    }

    #[test]
    fn calm_network_includes_median_bidders() {
        assert!(included(BackgroundDemand::calm(20.0), 20, 500_000));
    }

    #[test]
    fn congested_network_excludes_low_bidders() {
        let demand = BackgroundDemand::congested(200.0);
        assert!(!included(demand, 20, 500_000), "stale low bidder must wait");
        assert!(
            included(demand, 2_000, 500_000),
            "high bidder must be included"
        );
    }

    #[test]
    fn priority_is_by_gas_price() {
        // A higher bid never faces more background gas above it, so once a
        // price is included every higher price is too.
        let demand = BackgroundDemand::congested(200.0);
        let prices: Vec<GweiPrice> = (1..=10).map(|i| i * 100).collect();
        for pair in prices.windows(2) {
            assert!(demand.gas_above(pair[1], LIMIT) <= demand.gas_above(pair[0], LIMIT));
        }
        let first = prices
            .iter()
            .position(|&p| included(demand, p, 2_000_000))
            .expect("some bid clears a congested block");
        assert!(prices[first..]
            .iter()
            .all(|&p| included(demand, p, 2_000_000)));
        assert!(first > 0, "the lowest bid waits behind congested demand");
    }

    #[test]
    fn erf_sane() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!(normal_cdf(3.0) > 0.998);
        assert!(normal_cdf(-3.0) < 0.002);
    }
}
