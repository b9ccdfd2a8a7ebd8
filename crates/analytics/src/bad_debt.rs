//! Bad-debt measurement (§4.4.2, Table 2).
//!
//! Table 2 reports, per platform and per assumed closing cost (≤ 10 USD and
//! ≤ 100 USD), the number of Type I (under-collateralized) and Type II
//! (excess-too-small-to-bother) positions at the snapshot block, together
//! with the collateral value locked in them. The classification logic lives
//! in [`defi_core::bad_debt`]; this module applies it to a snapshot of
//! per-platform position books.

use std::collections::BTreeMap;

use defi_core::bad_debt::{measure_bad_debts, BadDebtSummary};
use defi_core::position::Position;
use defi_types::{Platform, Wad};

/// One platform's Table 2 row: Type I plus Type II at two fee levels.
#[derive(Debug, Clone, Copy)]
pub struct BadDebtRow {
    /// Platform.
    pub platform: Platform,
    /// Type I bad debts (independent of the fee assumption).
    pub type_1: BadDebtSummary,
    /// Type II bad debts assuming a 10 USD closing cost.
    pub type_2_fee_10: BadDebtSummary,
    /// Type II bad debts assuming a 100 USD closing cost.
    pub type_2_fee_100: BadDebtSummary,
}

/// The full Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-platform rows.
    pub rows: Vec<BadDebtRow>,
}

impl Table2 {
    /// The row for a platform, if it was measured.
    pub fn row(&self, platform: Platform) -> Option<&BadDebtRow> {
        self.rows.iter().find(|r| r.platform == platform)
    }
}

/// Measure Table 2 over the per-platform position books at the snapshot block.
pub fn table2(positions_by_platform: &BTreeMap<Platform, Vec<Position>>) -> Table2 {
    let mut rows = Vec::new();
    for (platform, positions) in positions_by_platform {
        let (type_1_low, type_2_low) = measure_bad_debts(positions, Wad::from_int(10));
        let (_, type_2_high) = measure_bad_debts(positions, Wad::from_int(100));
        rows.push(BadDebtRow {
            platform: *platform,
            type_1: type_1_low,
            type_2_fee_10: type_2_low,
            type_2_fee_100: type_2_high,
        });
    }
    Table2 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_types::{Address, Token};

    fn position(collateral: u64, debt: u64) -> Position {
        Position::simple(
            Address::from_seed(collateral * 31 + debt),
            Token::ETH,
            Wad::from_int(collateral),
            Token::DAI,
            Wad::from_int(debt),
            Wad::from_f64(0.75),
            Wad::from_f64(0.08),
        )
    }

    #[test]
    fn table2_classifies_per_platform() {
        let mut books = BTreeMap::new();
        books.insert(
            Platform::Compound,
            vec![
                position(900, 1_000),   // Type I
                position(1_050, 1_000), // Type II at 100 USD fee only
                position(5_000, 1_000), // healthy
            ],
        );
        books.insert(Platform::DyDx, vec![position(5_000, 1_000)]);
        let table = table2(&books);
        let compound = table.row(Platform::Compound).unwrap();
        assert_eq!(compound.type_1.count, 1);
        assert_eq!(compound.type_2_fee_10.count, 0);
        assert_eq!(compound.type_2_fee_100.count, 1);
        assert_eq!(compound.type_1.total_positions, 3);
        let dydx = table.row(Platform::DyDx).unwrap();
        assert_eq!(dydx.type_1.count, 0);
        assert_eq!(dydx.type_2_fee_100.count, 0);
        assert!(table.row(Platform::AaveV1).is_none());
    }

    #[test]
    fn counts_grow_with_fee() {
        let book: Vec<Position> = (1..=50).map(|i| position(1_000 + i, 1_000)).collect();
        let mut books = BTreeMap::new();
        books.insert(Platform::AaveV2, book);
        let table = table2(&books);
        let row = table.row(Platform::AaveV2).unwrap();
        assert!(row.type_2_fee_100.count >= row.type_2_fee_10.count);
        assert!(row.type_2_fee_100.collateral_locked >= row.type_2_fee_10.collateral_locked);
    }
}
