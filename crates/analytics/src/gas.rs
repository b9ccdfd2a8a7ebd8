//! Liquidator gas-price competition (§4.3.2, Figure 6).
//!
//! Figure 6 plots the gas price of every fixed-spread liquidation transaction
//! against the 6,000-block moving average of the block-median gas price, and
//! the paper's headline statistic is that 73.97 % of liquidations pay an
//! above-average fee — evidence of competition between liquidators.

use defi_chain::{Blockchain, GweiPrice};
use defi_types::{BlockNumber, Platform};

use crate::records::{LiquidationKind, LiquidationRecord};

/// One scatter point of Figure 6.
#[derive(Debug, Clone, Copy)]
pub struct GasPoint {
    /// Block of the liquidation.
    pub block: BlockNumber,
    /// Platform.
    pub platform: Platform,
    /// Gas price paid by the liquidator (gwei).
    pub gas_price: GweiPrice,
    /// Moving-average gas price at that block (gwei).
    pub average_gas_price: f64,
    /// Whether the liquidation paid more than the prevailing average.
    pub above_average: bool,
}

/// Figure 6 data plus the §4.3.2 headline share.
#[derive(Debug, Clone)]
pub struct GasCompetition {
    /// Scatter points (fixed-spread liquidations only, as in the figure).
    pub points: Vec<GasPoint>,
    /// The moving-average reference series sampled from the block headers.
    pub average_series: Vec<(BlockNumber, f64)>,
    /// Share of liquidations paying an above-average gas price (0–1).
    pub share_above_average: f64,
}

/// Build the moving average of block-median gas prices from the recorded
/// headers, with the given window in blocks.
fn moving_average_series(chain: &Blockchain, window_blocks: u64) -> Vec<(BlockNumber, f64)> {
    let headers = chain.headers();
    let mut series = Vec::with_capacity(headers.len());
    let mut buffer: Vec<(BlockNumber, f64)> = Vec::new();
    let mut sum = 0.0;
    for header in headers {
        buffer.push((header.number, header.median_gas_price as f64));
        sum += header.median_gas_price as f64;
        while let Some(&(oldest, value)) = buffer.first() {
            if header.number.saturating_sub(oldest) > window_blocks {
                sum -= value;
                buffer.remove(0);
            } else {
                break;
            }
        }
        series.push((header.number, sum / buffer.len() as f64));
    }
    series
}

fn average_at(series: &[(BlockNumber, f64)], block: BlockNumber) -> f64 {
    match series.binary_search_by_key(&block, |(b, _)| *b) {
        Ok(idx) => series[idx].1,
        Err(0) => series.first().map(|(_, v)| *v).unwrap_or(0.0),
        Err(idx) => series[idx - 1].1,
    }
}

/// Compute the Figure 6 dataset: join each fixed-spread liquidation's gas
/// bid against the header moving average. Only fixed-spread liquidations are
/// included (the figure covers Aave, Compound and dYdX).
pub fn gas_competition(
    chain: &Blockchain,
    records: &[LiquidationRecord],
    window_blocks: u64,
) -> GasCompetition {
    let average_series = moving_average_series(chain, window_blocks);
    let points: Vec<GasPoint> = records
        .iter()
        .filter(|r| r.kind == LiquidationKind::FixedSpread)
        .map(|r| {
            let average = average_at(&average_series, r.block);
            GasPoint {
                block: r.block,
                platform: r.platform,
                gas_price: r.gas_price,
                average_gas_price: average,
                above_average: (r.gas_price as f64) > average,
            }
        })
        .collect();
    let above = points.iter().filter(|p| p.above_average).count();
    let share = if points.is_empty() {
        0.0
    } else {
        above as f64 / points.len() as f64
    };
    GasCompetition {
        points,
        average_series,
        share_above_average: share,
    }
}

/// The paper's moving-average window (blocks) for the Figure 6 comparison.
pub const GAS_WINDOW_BLOCKS: u64 = 6_000;

#[cfg(test)]
mod tests {
    use super::*;
    use defi_chain::ChainConfig;
    use defi_types::{Address, MonthTag, Token, Wad};

    fn record(block: BlockNumber, gas_price: GweiPrice) -> LiquidationRecord {
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
            gas_price,
            gas_used: 500_000,
            fee_usd: Wad::from_int(10),
            used_flash_loan: false,
            auction_started_at: None,
            auction_last_bid_at: None,
            tend_bids: 0,
            dent_bids: 0,
        }
    }

    fn chain_with_headers() -> Blockchain {
        let mut chain = Blockchain::new(ChainConfig::default());
        for i in 1..=50u64 {
            chain.advance_to(7_500_000 + i * 100, 0);
        }
        chain
    }

    #[test]
    fn share_above_average_is_computed() {
        let chain = chain_with_headers();
        // The simulated gas market hovers around ~10 gwei early on, so 1,000
        // gwei bids are above average and 1 gwei bids are below.
        let records = vec![
            record(7_500_500, 1_000),
            record(7_500_600, 1_000),
            record(7_500_700, 1_000),
            record(7_500_800, 1),
        ];
        let competition = gas_competition(&chain, &records, 6_000);
        assert_eq!(competition.points.len(), 4);
        assert!((competition.share_above_average - 0.75).abs() < 1e-9);
        assert!(competition.points[0].above_average);
        assert!(!competition.points[3].above_average);
    }

    #[test]
    fn auction_records_are_excluded() {
        let chain = chain_with_headers();
        let mut auction = record(7_500_500, 1_000);
        auction.kind = LiquidationKind::Auction(defi_chain::AuctionPhase::Tend);
        auction.platform = Platform::MakerDao;
        let competition = gas_competition(&chain, &[auction], 6_000);
        assert!(competition.points.is_empty());
        assert_eq!(competition.share_above_average, 0.0);
    }

    #[test]
    fn moving_average_series_covers_headers() {
        let chain = chain_with_headers();
        let competition = gas_competition(&chain, &[], 6_000);
        assert_eq!(competition.average_series.len(), chain.headers().len());
        for (_, avg) in &competition.average_series {
            assert!(*avg > 0.0);
        }
    }
}
