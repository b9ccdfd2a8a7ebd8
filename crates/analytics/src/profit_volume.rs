//! The profit–volume mechanism comparison (§5.1, Figure 9) and the monthly
//! DAI/ETH liquidation counts (Appendix B, Table 8).
//!
//! To avoid being biased by cross-asset price moves, the comparison is
//! restricted to liquidations repaid in DAI and collateralized in ETH, which
//! exist on every studied platform. The monthly profit from those
//! liquidations is divided by the monthly average ETH-collateral volume of
//! DAI-debt positions.

use std::collections::BTreeMap;

use defi_core::comparison::{MechanismComparison, ProfitVolumeRatio};
use defi_sim::VolumeSample;
use defi_types::{MonthTag, Platform, TimeMap, Wad};

use crate::records::LiquidationRecord;

/// Table 8: monthly DAI/ETH liquidation counts per platform.
#[derive(Debug, Clone, Default)]
pub struct Table8 {
    /// `counts[month][platform]` = number of DAI/ETH liquidations.
    pub counts: BTreeMap<MonthTag, BTreeMap<Platform, u32>>,
}

impl Table8 {
    /// The count for a month/platform (0 when absent).
    pub fn count(&self, month: MonthTag, platform: Platform) -> u32 {
        self.counts
            .get(&month)
            .and_then(|m| m.get(&platform))
            .copied()
            .unwrap_or(0)
    }

    /// Total liquidations per platform across all months.
    pub fn totals(&self) -> BTreeMap<Platform, u32> {
        let mut totals = BTreeMap::new();
        for by_platform in self.counts.values() {
            for (platform, count) in by_platform {
                *totals.entry(*platform).or_insert(0) += count;
            }
        }
        totals
    }
}

/// Compute Table 8 from the liquidation ledger.
pub fn table8(records: &[LiquidationRecord]) -> Table8 {
    let mut table = Table8::default();
    for record in records.iter().filter(|r| r.is_dai_eth()) {
        *table
            .counts
            .entry(record.month)
            .or_default()
            .entry(record.platform)
            .or_insert(0) += 1;
    }
    table
}

/// Build the Figure 9 dataset: one [`ProfitVolumeRatio`] observation per
/// platform per month, with the DAI/ETH restriction on both numerator and
/// denominator.
pub fn figure9(
    records: &[LiquidationRecord],
    volume_samples: &[VolumeSample],
    time_map: &TimeMap,
) -> MechanismComparison {
    // Numerator: non-negative gross profit and liquidation count per
    // platform-month.
    let mut liquidations: BTreeMap<(Platform, MonthTag), (Wad, u32)> = BTreeMap::new();
    for record in records.iter().filter(|r| r.is_dai_eth()) {
        let entry = liquidations
            .entry((record.platform, record.month))
            .or_insert((Wad::ZERO, 0));
        let gross = record.gross_profit();
        if !gross.is_negative() {
            entry.0 = entry.0.saturating_add(gross.magnitude);
        }
        entry.1 += 1;
    }
    // Denominator: the sampled collateral volume per platform-month.
    let mut volume_sum: BTreeMap<(Platform, MonthTag), (Wad, u32)> = BTreeMap::new();
    for sample in volume_samples {
        let entry = volume_sum
            .entry((sample.platform, time_map.month(sample.block)))
            .or_insert((Wad::ZERO, 0));
        entry.0 = entry.0.saturating_add(sample.dai_eth_collateral_usd);
        entry.1 += 1;
    }

    let mut comparison = MechanismComparison::new();
    for (&(platform, month), &(sum, n)) in &volume_sum {
        let (monthly_profit, liquidation_count) = liquidations
            .get(&(platform, month))
            .copied()
            .unwrap_or((Wad::ZERO, 0));
        comparison.push(ProfitVolumeRatio {
            month,
            platform,
            monthly_profit,
            average_collateral_volume: sum.checked_div_int(n as u128).unwrap_or(Wad::ZERO),
            liquidation_count,
        });
    }
    comparison
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::LiquidationKind;
    use defi_types::{Address, Token};

    fn dai_eth_record(platform: Platform, month: (u32, u8), profit: u64) -> LiquidationRecord {
        LiquidationRecord {
            platform,
            kind: LiquidationKind::FixedSpread,
            liquidator: Address::from_seed(1),
            borrower: Address::from_seed(2),
            block: 10_000_000,
            month: MonthTag::new(month.0, month.1),
            debt_token: Token::DAI,
            collateral_token: Token::ETH,
            debt_repaid_usd: Wad::from_int(1_000),
            collateral_received_usd: Wad::from_int(1_000 + profit),
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

    fn sample(platform: Platform, block: u64, dai_eth: u64) -> VolumeSample {
        VolumeSample {
            block,
            platform,
            total_collateral_usd: Wad::from_int(dai_eth * 2),
            dai_eth_collateral_usd: Wad::from_int(dai_eth),
            open_positions: 10,
        }
    }

    #[test]
    fn table8_counts_only_dai_eth_records() {
        let mut other = dai_eth_record(Platform::Compound, (2020, 3), 50);
        other.debt_token = Token::USDC;
        let records = vec![
            dai_eth_record(Platform::Compound, (2020, 3), 50),
            dai_eth_record(Platform::Compound, (2020, 3), 50),
            dai_eth_record(Platform::DyDx, (2020, 4), 50),
            other,
        ];
        let table = table8(&records);
        assert_eq!(table.count(MonthTag::new(2020, 3), Platform::Compound), 2);
        assert_eq!(table.count(MonthTag::new(2020, 4), Platform::DyDx), 1);
        assert_eq!(table.count(MonthTag::new(2020, 4), Platform::Compound), 0);
        assert_eq!(table.totals()[&Platform::Compound], 2);
    }

    #[test]
    fn figure9_ratio_reflects_close_factor_ordering() {
        let time_map = TimeMap::paper_study_window();
        // dYdX liquidations extract much more profit per unit of volume than
        // MakerDAO's auctions (the paper's main Figure 9 finding).
        let records = vec![
            dai_eth_record(Platform::DyDx, (2020, 6), 200),
            dai_eth_record(Platform::DyDx, (2020, 6), 200),
            dai_eth_record(Platform::MakerDao, (2020, 6), 20),
            dai_eth_record(Platform::MakerDao, (2020, 6), 20),
        ];
        // Same collateral volume on both platforms.
        let block = time_map.first_block_of_month(MonthTag::new(2020, 6)) + 1_000;
        let samples = vec![
            sample(Platform::DyDx, block, 1_000_000),
            sample(Platform::MakerDao, block, 1_000_000),
        ];
        let comparison = figure9(&records, &samples, &time_map);
        let ranking = comparison.ranking(1);
        assert_eq!(ranking.first().unwrap().0, Platform::MakerDao);
        assert_eq!(ranking.last().unwrap().0, Platform::DyDx);
        assert_eq!(
            comparison.auction_favours_borrowers_vs(Platform::DyDx, 1),
            Some(true)
        );
    }

    #[test]
    fn months_without_liquidations_still_have_volume_observations() {
        let time_map = TimeMap::paper_study_window();
        let block = time_map.first_block_of_month(MonthTag::new(2020, 8)) + 10;
        let samples = vec![sample(Platform::Compound, block, 500_000)];
        let comparison = figure9(&[], &samples, &time_map);
        assert_eq!(comparison.observations.len(), 1);
        assert_eq!(comparison.observations[0].liquidation_count, 0);
        assert_eq!(comparison.observations[0].monthly_profit, Wad::ZERO);
    }
}
