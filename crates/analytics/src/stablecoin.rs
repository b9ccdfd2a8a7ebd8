//! Stablecoin-pair stability (§4.5.2).
//!
//! The paper samples the Chainlink prices of DAI, USDC and USDT over one year
//! of blocks and reports that the pairwise price differences stay within 5 %
//! for 99.97 % of blocks, with a maximum deviation of 11.1 %. This module
//! computes the same statistics from an oracle's price history.

use defi_oracle::PriceOracle;
use defi_types::{BlockNumber, Token};

/// Stablecoin stability statistics.
#[derive(Debug, Clone)]
pub struct StablecoinStability {
    /// Tokens compared.
    pub tokens: Vec<Token>,
    /// Number of sampled blocks.
    pub sampled_blocks: u64,
    /// Share of sampled blocks where every pairwise relative difference is
    /// below `threshold` (0–1).
    pub share_within_threshold: f64,
    /// The threshold used (e.g. 0.05 for the paper's 5 %).
    pub threshold: f64,
    /// Maximum pairwise relative difference observed.
    pub max_difference: f64,
    /// Block at which the maximum difference occurred.
    pub max_difference_block: BlockNumber,
}

/// Measure pairwise stablecoin price stability over `[from, to]`, sampling
/// every `step` blocks.
pub fn stablecoin_stability(
    oracle: &PriceOracle,
    tokens: &[Token],
    from: BlockNumber,
    to: BlockNumber,
    step: u64,
    threshold: f64,
) -> StablecoinStability {
    let mut sampled = 0u64;
    let mut within = 0u64;
    let mut max_difference = 0.0f64;
    let mut max_block = from;
    let mut block = from;
    while block <= to {
        let prices: Vec<f64> = tokens
            .iter()
            .filter_map(|t| oracle.price_at(block, *t))
            .map(|p| p.to_f64())
            .collect();
        if prices.len() == tokens.len() && !prices.is_empty() {
            sampled += 1;
            let mut worst: f64 = 0.0;
            for i in 0..prices.len() {
                for j in (i + 1)..prices.len() {
                    let low = prices[i].min(prices[j]);
                    let high = prices[i].max(prices[j]);
                    if low > 0.0 {
                        worst = worst.max((high - low) / low);
                    }
                }
            }
            if worst < threshold {
                within += 1;
            }
            if worst > max_difference {
                max_difference = worst;
                max_block = block;
            }
        }
        block += step.max(1);
    }
    StablecoinStability {
        tokens: tokens.to_vec(),
        sampled_blocks: sampled,
        share_within_threshold: if sampled == 0 {
            0.0
        } else {
            within as f64 / sampled as f64
        },
        threshold,
        max_difference,
        max_difference_block: max_block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_oracle::OracleConfig;
    use defi_types::Wad;

    #[test]
    fn stable_prices_stay_within_threshold() {
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        for block in (0..10_000u64).step_by(100) {
            oracle.set_price(
                block,
                Token::DAI,
                Wad::from_f64(1.0 + (block as f64 * 1e-7)),
            );
            oracle.set_price(block, Token::USDC, Wad::from_f64(1.0));
            oracle.set_price(block, Token::USDT, Wad::from_f64(0.999));
        }
        let stats = stablecoin_stability(
            &oracle,
            &[Token::DAI, Token::USDC, Token::USDT],
            0,
            9_900,
            100,
            0.05,
        );
        assert_eq!(stats.sampled_blocks, 100);
        assert!((stats.share_within_threshold - 1.0).abs() < 1e-9);
        assert!(stats.max_difference < 0.01);
    }

    #[test]
    fn depeg_episode_is_detected() {
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        for block in (0..1_000u64).step_by(10) {
            let dai = if block == 500 { 1.11 } else { 1.0 };
            oracle.set_price(block, Token::DAI, Wad::from_f64(dai));
            oracle.set_price(block, Token::USDC, Wad::from_f64(1.0));
        }
        let stats = stablecoin_stability(&oracle, &[Token::DAI, Token::USDC], 0, 990, 10, 0.05);
        assert!(stats.max_difference > 0.10);
        assert_eq!(stats.max_difference_block, 500);
        assert!(stats.share_within_threshold < 1.0 && stats.share_within_threshold > 0.95);
    }

    #[test]
    fn missing_prices_are_skipped() {
        let oracle = PriceOracle::new(OracleConfig::every_update());
        let stats = stablecoin_stability(&oracle, &[Token::DAI, Token::USDC], 0, 100, 10, 0.05);
        assert_eq!(stats.sampled_blocks, 0);
        assert_eq!(stats.share_within_threshold, 0.0);
    }
}
