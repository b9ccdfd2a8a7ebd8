//! Overall statistics: §4.2, Table 1, Figure 4 and Figure 5.

use std::collections::{BTreeMap, BTreeSet};

use defi_types::{BlockNumber, MonthTag, Platform, SignedWad, Wad};

use crate::records::LiquidationRecord;

/// One row of Table 1: liquidation count, unique liquidators and average
/// profit per platform.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Platform.
    pub platform: Platform,
    /// Number of settled liquidations.
    pub liquidations: u32,
    /// Number of unique liquidator addresses.
    pub liquidators: u32,
    /// Average gross profit per liquidation (USD; may be negative for
    /// auction-based liquidations).
    pub average_profit: SignedWad,
}

/// Table 1 plus the totals row.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Per-platform rows in the paper's order.
    pub rows: Vec<Table1Row>,
    /// Total liquidations across platforms.
    pub total_liquidations: u32,
    /// Total unique liquidators across platforms.
    pub total_liquidators: u32,
    /// Total gross profit across all liquidations (USD).
    pub total_profit: SignedWad,
}

/// Compute Table 1 from the liquidation ledger.
pub fn table1(records: &[LiquidationRecord]) -> Table1 {
    let mut rows = Vec::new();
    let mut all_liquidators: BTreeSet<_> = BTreeSet::new();
    let mut total_profit = SignedWad::ZERO;
    for platform in Platform::ALL {
        let platform_records: Vec<&LiquidationRecord> =
            records.iter().filter(|r| r.platform == platform).collect();
        if platform_records.is_empty() {
            continue;
        }
        let liquidators: BTreeSet<_> = platform_records.iter().map(|r| r.liquidator).collect();
        let profit: SignedWad = platform_records.iter().map(|r| r.gross_profit()).sum();
        total_profit = total_profit.add(profit);
        all_liquidators.extend(liquidators.iter().copied());
        let count = platform_records.len() as u32;
        let average = if count > 0 {
            let magnitude = profit
                .magnitude
                .checked_div_int(count as u128)
                .unwrap_or(Wad::ZERO);
            SignedWad {
                negative: profit.negative,
                magnitude,
            }
        } else {
            SignedWad::ZERO
        };
        rows.push(Table1Row {
            platform,
            liquidations: count,
            liquidators: liquidators.len() as u32,
            average_profit: average,
        });
    }
    Table1 {
        total_liquidations: rows.iter().map(|r| r.liquidations).sum(),
        total_liquidators: all_liquidators.len() as u32,
        total_profit,
        rows,
    }
}

/// One point of the Figure 4 series: cumulative collateral sold through
/// liquidation, per platform.
#[derive(Debug, Clone, Copy)]
pub struct AccumulativePoint {
    /// Block.
    pub block: BlockNumber,
    /// Cumulative collateral sold up to and including this block (USD).
    pub cumulative_usd: Wad,
}

/// Figure 4: the per-platform cumulative liquidated-collateral series.
pub fn accumulative_collateral_sold(
    records: &[LiquidationRecord],
) -> BTreeMap<Platform, Vec<AccumulativePoint>> {
    let mut by_platform: BTreeMap<Platform, Vec<&LiquidationRecord>> = BTreeMap::new();
    for record in records {
        by_platform.entry(record.platform).or_default().push(record);
    }
    by_platform
        .into_iter()
        .map(|(platform, mut platform_records)| {
            platform_records.sort_by_key(|r| r.block);
            let mut cumulative = Wad::ZERO;
            let series = platform_records
                .into_iter()
                .map(|r| {
                    cumulative = cumulative.saturating_add(r.collateral_received_usd);
                    AccumulativePoint {
                        block: r.block,
                        cumulative_usd: cumulative,
                    }
                })
                .collect();
            (platform, series)
        })
        .collect()
}

/// Figure 5: monthly accumulated gross liquidator profit per platform.
pub fn monthly_profit(
    records: &[LiquidationRecord],
) -> BTreeMap<Platform, BTreeMap<MonthTag, SignedWad>> {
    let mut out: BTreeMap<Platform, BTreeMap<MonthTag, SignedWad>> = BTreeMap::new();
    for record in records {
        let entry = out
            .entry(record.platform)
            .or_default()
            .entry(record.month)
            .or_insert(SignedWad::ZERO);
        *entry = entry.add(record.gross_profit());
    }
    out
}

/// §4.2 headline numbers: total liquidated collateral and total profit.
#[derive(Debug, Clone, Copy)]
pub struct HeadlineStats {
    /// Total collateral sold through liquidations (USD).
    pub total_collateral_sold: Wad,
    /// Total liquidator gross profit (USD, signed).
    pub total_profit: SignedWad,
    /// Number of liquidations.
    pub liquidation_count: u32,
    /// Number of unique liquidator addresses.
    pub liquidator_count: u32,
    /// Number of liquidations that were not profitable for the liquidator
    /// (gross profit ≤ 0; the paper reports 641 such auctions).
    pub unprofitable_liquidations: u32,
    /// Total loss incurred by those unprofitable liquidations (USD).
    pub unprofitable_loss: Wad,
}

/// Compute the headline statistics of §4.2/§4.3.1.
pub fn headline(records: &[LiquidationRecord]) -> HeadlineStats {
    let total_collateral_sold = records
        .iter()
        .map(|r| r.collateral_received_usd)
        .fold(Wad::ZERO, |acc, v| acc.saturating_add(v));
    let total_profit: SignedWad = records.iter().map(|r| r.gross_profit()).sum();
    let liquidators: BTreeSet<_> = records.iter().map(|r| r.liquidator).collect();
    let unprofitable: Vec<&LiquidationRecord> = records
        .iter()
        .filter(|r| r.gross_profit().is_negative())
        .collect();
    HeadlineStats {
        total_collateral_sold,
        total_profit,
        liquidation_count: records.len() as u32,
        liquidator_count: liquidators.len() as u32,
        unprofitable_liquidations: unprofitable.len() as u32,
        unprofitable_loss: unprofitable
            .iter()
            .map(|r| r.gross_profit().magnitude)
            .fold(Wad::ZERO, |acc, v| acc.saturating_add(v)),
    }
}

/// The most active / most profitable liquidator call-outs of §4.3.1.
#[derive(Debug, Clone, Copy)]
pub struct TopLiquidators {
    /// Liquidation count of the most active liquidator.
    pub most_active_count: u32,
    /// Profit of the most active liquidator (USD).
    pub most_active_profit: SignedWad,
    /// Profit of the most profitable liquidator (USD).
    pub most_profitable_profit: SignedWad,
    /// Liquidation count of the most profitable liquidator.
    pub most_profitable_count: u32,
}

/// Identify the most active and most profitable liquidators.
pub fn top_liquidators(records: &[LiquidationRecord]) -> Option<TopLiquidators> {
    let mut by_liquidator: BTreeMap<_, (u32, SignedWad)> = BTreeMap::new();
    for record in records {
        let entry = by_liquidator
            .entry(record.liquidator)
            .or_insert((0, SignedWad::ZERO));
        entry.0 += 1;
        entry.1 = entry.1.add(record.gross_profit());
    }
    let most_active = by_liquidator.values().max_by_key(|(count, _)| *count)?;
    let most_profitable = by_liquidator.values().max_by(|a, b| a.1.cmp(&b.1))?;
    Some(TopLiquidators {
        most_active_count: most_active.0,
        most_active_profit: most_active.1,
        most_profitable_profit: most_profitable.1,
        most_profitable_count: most_profitable.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::LiquidationKind;
    use defi_chain::AuctionPhase;
    use defi_types::{Address, Token};

    fn record(
        platform: Platform,
        liquidator_seed: u64,
        block: BlockNumber,
        repaid: u64,
        received: u64,
    ) -> LiquidationRecord {
        LiquidationRecord {
            platform,
            kind: if platform == Platform::MakerDao {
                LiquidationKind::Auction(AuctionPhase::Tend)
            } else {
                LiquidationKind::FixedSpread
            },
            liquidator: Address::from_seed(liquidator_seed),
            borrower: Address::from_seed(999),
            block,
            month: MonthTag::new(2020, (1 + (block % 12)) as u8),
            debt_token: Token::DAI,
            collateral_token: Token::ETH,
            debt_repaid_usd: Wad::from_int(repaid),
            collateral_received_usd: Wad::from_int(received),
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
    fn table1_counts_and_averages() {
        let records = vec![
            record(Platform::Compound, 1, 1, 1_000, 1_080),
            record(Platform::Compound, 1, 2, 1_000, 1_080),
            record(Platform::Compound, 2, 3, 1_000, 1_040),
            record(Platform::DyDx, 3, 4, 2_000, 2_100),
        ];
        let table = table1(&records);
        let compound = table
            .rows
            .iter()
            .find(|r| r.platform == Platform::Compound)
            .unwrap();
        assert_eq!(compound.liquidations, 3);
        assert_eq!(compound.liquidators, 2);
        // Profits: 80 + 80 + 40 = 200 over 3 liquidations ≈ 66.67.
        assert!(compound.average_profit.magnitude > Wad::from_int(66));
        assert!(compound.average_profit.magnitude < Wad::from_int(67));
        assert_eq!(table.total_liquidations, 4);
        assert_eq!(table.total_liquidators, 3);
    }

    #[test]
    fn figure4_series_is_cumulative_and_sorted() {
        let records = vec![
            record(Platform::Compound, 1, 30, 1_000, 1_100),
            record(Platform::Compound, 1, 10, 1_000, 1_050),
            record(Platform::Compound, 1, 20, 1_000, 1_075),
        ];
        let fig4 = accumulative_collateral_sold(&records);
        let series = &fig4[&Platform::Compound];
        assert_eq!(series.len(), 3);
        assert!(series[0].block < series[1].block && series[1].block < series[2].block);
        assert_eq!(series[2].cumulative_usd, Wad::from_int(3_225));
        // Monotone.
        assert!(series[0].cumulative_usd < series[1].cumulative_usd);
    }

    #[test]
    fn monthly_profit_aggregates_by_month() {
        let mut a = record(Platform::MakerDao, 1, 1, 1_000, 1_200);
        a.month = MonthTag::new(2020, 3);
        let mut b = record(Platform::MakerDao, 1, 2, 1_000, 900); // a loss
        b.month = MonthTag::new(2020, 3);
        let fig5 = monthly_profit(&[a, b]);
        let march = fig5[&Platform::MakerDao][&MonthTag::new(2020, 3)];
        assert_eq!(march, SignedWad::positive(Wad::from_int(100)));
    }

    #[test]
    fn headline_counts_unprofitable() {
        let records = vec![
            record(Platform::MakerDao, 1, 1, 1_000, 900),
            record(Platform::Compound, 2, 2, 1_000, 1_100),
        ];
        let stats = headline(&records);
        assert_eq!(stats.liquidation_count, 2);
        assert_eq!(stats.unprofitable_liquidations, 1);
        assert_eq!(stats.unprofitable_loss, Wad::from_int(100));
        assert_eq!(stats.total_collateral_sold, Wad::from_int(2_000));
    }

    #[test]
    fn top_liquidators_identified() {
        let records = vec![
            record(Platform::Compound, 1, 1, 1_000, 1_010),
            record(Platform::Compound, 1, 2, 1_000, 1_010),
            record(Platform::Compound, 1, 3, 1_000, 1_010),
            record(Platform::Compound, 2, 4, 10_000, 11_000),
        ];
        let top = top_liquidators(&records).unwrap();
        assert_eq!(top.most_active_count, 3);
        assert_eq!(
            top.most_profitable_profit,
            SignedWad::positive(Wad::from_int(1_000))
        );
        assert_eq!(top.most_profitable_count, 1);
    }

    #[test]
    fn empty_records_are_handled() {
        assert!(top_liquidators(&[]).is_none());
        let table = table1(&[]);
        assert_eq!(table.total_liquidations, 0);
        assert!(table.rows.is_empty());
    }
}
