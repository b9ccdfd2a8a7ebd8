//! Post-liquidation collateral price movements (Appendix A, Table 7).
//!
//! For every liquidation the paper tracks the block-by-block oracle price of
//! the collateral (relative to the liquidation price) for 1,440 blocks
//! (~6 hours) and classifies the trajectory into seven patterns. The share of
//! liquidations whose price ends below the liquidation price bounds the risk
//! an *auction* liquidator would have borne (19.07 % in the paper).

use std::collections::BTreeMap;

use defi_oracle::PriceOracle;
use defi_types::Wad;

use crate::records::LiquidationRecord;

/// The post-liquidation price-movement patterns of Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriceMovement {
    /// The collateral price does not change during the window.
    Horizontal,
    /// The price stays above the liquidation price for the whole window.
    Rise,
    /// The price stays below the liquidation price for the whole window.
    Fall,
    /// The price first rises above, then falls below (one sign change).
    RiseFall,
    /// The price first falls below, then rises above (one sign change).
    FallRise,
    /// First move up, then more than two crossings.
    RiseFluctuation,
    /// First move down, then more than two crossings.
    FallFluctuation,
}

/// Per-pattern aggregate, mirroring a Table 7 row.
#[derive(Debug, Clone, Copy, Default)]
pub struct MovementRow {
    /// Number of liquidations in this pattern.
    pub liquidations: u32,
    /// Mean maximum price relative to the liquidation price (e.g. +0.07 = +7 %).
    pub mean_max_excursion: f64,
    /// Mean minimum price relative to the liquidation price (negative).
    pub mean_min_excursion: f64,
}

/// Table 7 plus the Appendix A headline share.
#[derive(Debug, Clone, Default)]
pub struct Table7 {
    /// One row per pattern.
    pub rows: BTreeMap<PriceMovement, MovementRow>,
    /// Number of liquidations classified.
    pub total: u32,
    /// Share of liquidations whose collateral price is below the liquidation
    /// price at the end of the observation window (the auction-liquidator
    /// loss exposure).
    pub share_ending_below: f64,
}

/// Classify one trajectory of relative deviations (price / liquidation price − 1).
fn classify(deviations: &[f64]) -> PriceMovement {
    const EPS: f64 = 1e-6;
    let signs: Vec<i8> = deviations
        .iter()
        .map(|d| {
            if *d > EPS {
                1
            } else if *d < -EPS {
                -1
            } else {
                0
            }
        })
        .collect();
    let nonzero: Vec<i8> = signs.iter().copied().filter(|s| *s != 0).collect();
    if nonzero.is_empty() {
        return PriceMovement::Horizontal;
    }
    // Count sign changes in the non-zero subsequence.
    let mut changes = 0;
    for pair in nonzero.windows(2) {
        if pair[0] != pair[1] {
            changes += 1;
        }
    }
    let first = nonzero[0];
    match (first, changes) {
        (1, 0) => PriceMovement::Rise,
        (-1, 0) => PriceMovement::Fall,
        (1, 1) => PriceMovement::RiseFall,
        (-1, 1) => PriceMovement::FallRise,
        (1, _) => PriceMovement::RiseFluctuation,
        (-1, _) => PriceMovement::FallFluctuation,
        _ => PriceMovement::Horizontal,
    }
}

/// Compute Table 7 from the liquidation ledger and the market price history.
///
/// `window_blocks` is 1,440 in the paper; `sample_step` controls how densely
/// the window is sampled (the simulation's oracle history is tick-resolution,
/// so sampling every tick is sufficient).
pub fn table7(
    records: &[LiquidationRecord],
    market_oracle: &PriceOracle,
    window_blocks: u64,
    sample_step: u64,
) -> Table7 {
    let mut table = Table7::default();
    let mut ending_below = 0u32;
    let mut aggregates: BTreeMap<PriceMovement, (u32, f64, f64)> = BTreeMap::new();

    for record in records {
        let Some(liq_price) = market_oracle.price_at(record.block, record.collateral_token) else {
            continue;
        };
        if liq_price.is_zero() {
            continue;
        }
        let mut deviations = Vec::new();
        let mut block = record.block + sample_step.max(1);
        let end = record.block + window_blocks;
        let mut last_price = liq_price;
        while block <= end {
            if let Some(price) = market_oracle.price_at(block, record.collateral_token) {
                deviations.push(relative(price, liq_price));
                last_price = price;
            }
            block += sample_step.max(1);
        }
        if deviations.is_empty() {
            continue;
        }
        let pattern = classify(&deviations);
        let max_excursion = deviations.iter().copied().fold(f64::MIN, f64::max).max(0.0);
        let min_excursion = deviations.iter().copied().fold(f64::MAX, f64::min).min(0.0);
        let entry = aggregates.entry(pattern).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += max_excursion;
        entry.2 += min_excursion;
        table.total += 1;
        if relative(last_price, liq_price) < 0.0 {
            ending_below += 1;
        }
    }

    for (pattern, (count, max_sum, min_sum)) in aggregates {
        table.rows.insert(
            pattern,
            MovementRow {
                liquidations: count,
                mean_max_excursion: if count > 0 {
                    max_sum / count as f64
                } else {
                    0.0
                },
                mean_min_excursion: if count > 0 {
                    min_sum / count as f64
                } else {
                    0.0
                },
            },
        );
    }
    table.share_ending_below = if table.total > 0 {
        ending_below as f64 / table.total as f64
    } else {
        0.0
    };
    table
}

fn relative(price: Wad, reference: Wad) -> f64 {
    (price.to_f64() - reference.to_f64()) / reference.to_f64().max(1e-12)
}

/// The Table 7 observation window for a given tick resolution: the oracle
/// history is tick-resolution, so the paper's 1,440-block window is widened
/// to at least four ticks so trajectories contain enough samples to classify.
pub fn table7_window(tick_blocks: u64) -> u64 {
    1_440.max(4 * tick_blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::LiquidationKind;
    use defi_oracle::OracleConfig;
    use defi_types::{Address, BlockNumber, MonthTag, Platform, Token};

    #[test]
    fn classification_patterns() {
        assert_eq!(classify(&[0.0, 0.0]), PriceMovement::Horizontal);
        assert_eq!(classify(&[0.01, 0.02, 0.03]), PriceMovement::Rise);
        assert_eq!(classify(&[-0.01, -0.05]), PriceMovement::Fall);
        assert_eq!(classify(&[0.02, -0.02]), PriceMovement::RiseFall);
        assert_eq!(classify(&[-0.02, 0.02]), PriceMovement::FallRise);
        assert_eq!(
            classify(&[0.02, -0.02, 0.02, -0.02]),
            PriceMovement::RiseFluctuation
        );
        assert_eq!(
            classify(&[-0.02, 0.02, -0.02, 0.02]),
            PriceMovement::FallFluctuation
        );
    }

    fn record_at(block: BlockNumber) -> LiquidationRecord {
        LiquidationRecord {
            platform: Platform::Compound,
            kind: LiquidationKind::FixedSpread,
            liquidator: Address::from_seed(1),
            borrower: Address::from_seed(2),
            block,
            month: MonthTag::new(2020, 5),
            debt_token: Token::DAI,
            collateral_token: Token::ETH,
            debt_repaid_usd: Wad::from_int(1_000),
            collateral_received_usd: Wad::from_int(1_080),
            gas_price: 50,
            gas_used: 500_000,
            fee_usd: Wad::from_int(10),
            used_flash_loan: false,
            auction_started_at: None,
            auction_last_bid_at: None,
            tend_bids: 0,
            dent_bids: 0,
        }
    }

    #[test]
    fn table7_classifies_and_reports_ending_share() {
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        // Price 100 at liquidation, falls to 90 and stays there.
        oracle.set_price(1_000, Token::ETH, Wad::from_int(100));
        oracle.set_price(1_100, Token::ETH, Wad::from_int(90));
        // Second liquidation at block 5,000 with a rising price afterwards.
        oracle.set_price(5_000, Token::ETH, Wad::from_int(100));
        oracle.set_price(5_100, Token::ETH, Wad::from_int(110));

        let records = vec![record_at(1_000), record_at(5_000)];
        let table = table7(&records, &oracle, 1_440, 100);
        assert_eq!(table.total, 2);
        assert_eq!(table.rows[&PriceMovement::Fall].liquidations, 1);
        assert_eq!(table.rows[&PriceMovement::Rise].liquidations, 1);
        assert!((table.share_ending_below - 0.5).abs() < 1e-9);
        assert!(table.rows[&PriceMovement::Fall].mean_min_excursion < -0.05);
        assert!(table.rows[&PriceMovement::Rise].mean_max_excursion > 0.05);
    }

    #[test]
    fn missing_price_history_is_skipped() {
        let oracle = PriceOracle::new(OracleConfig::every_update());
        let table = table7(&[record_at(1_000)], &oracle, 1_440, 100);
        assert_eq!(table.total, 0);
    }
}
