//! Unprofitable liquidation opportunities (§4.4.3, Table 3).
//!
//! A liquidatable position is an *unprofitable opportunity* when the bonus
//! the liquidator would collect (spread × repayable debt) does not cover the
//! liquidation transaction fee. Rational liquidators skip these, so they
//! drift towards Type I bad debt. Table 3 counts them per platform at two fee
//! assumptions (10 and 100 USD) and reports the collateral at stake.

use std::collections::BTreeMap;

use defi_core::bad_debt::is_unprofitable_liquidation;
use defi_core::position::Position;
use defi_types::{Platform, Wad};

/// Counts for one fee assumption.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnprofitableSummary {
    /// Number of unprofitable liquidation opportunities.
    pub count: u32,
    /// Number of liquidatable positions examined.
    pub liquidatable_positions: u32,
    /// Collateral value locked in the unprofitable opportunities (USD).
    pub collateral_at_stake: Wad,
}

impl UnprofitableSummary {
    /// Share of liquidatable positions that are unprofitable to liquidate, in percent.
    pub fn share_percent(&self) -> f64 {
        if self.liquidatable_positions == 0 {
            0.0
        } else {
            100.0 * self.count as f64 / self.liquidatable_positions as f64
        }
    }
}

/// One Table 3 row.
#[derive(Debug, Clone, Copy)]
pub struct UnprofitableRow {
    /// Platform.
    pub platform: Platform,
    /// Close factor used for the repayable-amount estimate.
    pub close_factor: Wad,
    /// Opportunities unprofitable at a 10 USD transaction fee.
    pub fee_10: UnprofitableSummary,
    /// Opportunities unprofitable at a 100 USD transaction fee.
    pub fee_100: UnprofitableSummary,
}

/// The full Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Per-platform rows.
    pub rows: Vec<UnprofitableRow>,
}

impl Table3 {
    /// The row for a platform.
    pub fn row(&self, platform: Platform) -> Option<&UnprofitableRow> {
        self.rows.iter().find(|r| r.platform == platform)
    }
}

fn close_factor_of(platform: Platform) -> Wad {
    match platform {
        Platform::DyDx | Platform::MakerDao => Wad::ONE,
        _ => Wad::from_f64(0.5),
    }
}

fn measure(positions: &[Position], close_factor: Wad, fee: Wad) -> UnprofitableSummary {
    let liquidatable: Vec<&Position> = positions.iter().filter(|p| p.is_liquidatable()).collect();
    let mut summary = UnprofitableSummary {
        liquidatable_positions: liquidatable.len() as u32,
        ..Default::default()
    };
    for position in liquidatable {
        if is_unprofitable_liquidation(position, close_factor, fee) {
            summary.count += 1;
            summary.collateral_at_stake = summary
                .collateral_at_stake
                .saturating_add(position.total_collateral_value());
        }
    }
    summary
}

/// Measure Table 3 over the per-platform position books.
pub fn table3(positions_by_platform: &BTreeMap<Platform, Vec<Position>>) -> Table3 {
    let mut rows = Vec::new();
    for (platform, positions) in positions_by_platform {
        let close_factor = close_factor_of(*platform);
        rows.push(UnprofitableRow {
            platform: *platform,
            close_factor,
            fee_10: measure(positions, close_factor, Wad::from_int(10)),
            fee_100: measure(positions, close_factor, Wad::from_int(100)),
        });
    }
    Table3 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_types::{Address, Token};

    fn liq_position(collateral: u64, debt: u64) -> Position {
        // LT 0.75 → liquidatable when collateral*0.75 < debt.
        Position::simple(
            Address::from_seed(collateral * 7 + debt),
            Token::ETH,
            Wad::from_int(collateral),
            Token::DAI,
            Wad::from_int(debt),
            Wad::from_f64(0.75),
            Wad::from_f64(0.08),
        )
    }

    #[test]
    fn small_positions_are_unprofitable_opportunities() {
        let mut books = BTreeMap::new();
        books.insert(
            Platform::Compound,
            vec![
                liq_position(120, 100), // liquidatable, bonus = 4 USD → unprofitable at both fees? (4<10, 4<100)
                liq_position(12_000, 10_000), // liquidatable, bonus = 400 USD → profitable
                liq_position(100_000, 10_000), // healthy
            ],
        );
        let table = table3(&books);
        let row = table.row(Platform::Compound).unwrap();
        assert_eq!(row.fee_100.liquidatable_positions, 2);
        assert_eq!(row.fee_100.count, 1);
        assert_eq!(row.fee_10.count, 1);
        assert!(row.fee_100.share_percent() > 49.0);
        assert_eq!(row.fee_100.collateral_at_stake, Wad::from_int(120));
    }

    #[test]
    fn more_opportunities_become_unprofitable_as_fees_rise() {
        // Bonus = debt * 0.5 * 0.08 = 4% of debt → between 10 and 100 USD for
        // debts between 250 and 2,500 USD.
        let book: Vec<Position> = (1..=20)
            .map(|i| liq_position(i * 200 + i, i * 200))
            .collect();
        let mut books = BTreeMap::new();
        books.insert(Platform::AaveV2, book);
        let table = table3(&books);
        let row = table.row(Platform::AaveV2).unwrap();
        assert!(row.fee_100.count > row.fee_10.count);
    }

    #[test]
    fn dydx_uses_full_close_factor() {
        let mut books = BTreeMap::new();
        books.insert(Platform::DyDx, vec![liq_position(120, 100)]);
        let table = table3(&books);
        assert_eq!(table.row(Platform::DyDx).unwrap().close_factor, Wad::ONE);
    }
}
