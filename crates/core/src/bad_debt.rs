//! Bad-debt and unprofitable-liquidation classification (§4.4.2, §4.4.3).
//!
//! * **Type I bad debt** — the position is under-collateralized (CR < 1):
//!   closing it loses money for the borrower or the platform. Typically the
//!   result of overdue liquidations.
//! * **Type II bad debt** — the position is over-collateralized, but the
//!   excess collateral the borrower would recover by closing it does not
//!   cover the transaction fee, so the borrower has no incentive to close it.
//! * **Unprofitable liquidation opportunity** — a liquidatable position whose
//!   liquidation bonus (spread on the repayable amount) does not cover the
//!   liquidator's transaction fee; rational liquidators skip it and it drifts
//!   towards Type I bad debt.

use defi_types::Wad;

use crate::position::Position;

/// Bad-debt classification of a position at a given repayment cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadDebtType {
    /// Not a bad debt: the borrower has an incentive to maintain or close the
    /// position normally.
    None,
    /// Under-collateralized position (CR < 1).
    TypeI,
    /// Over-collateralized, but the recoverable excess does not cover the
    /// transaction fee of closing.
    TypeII,
}

/// Classify a position given the transaction fee (in USD) a borrower must pay
/// to repay and close it.
pub fn classify_bad_debt(position: &Position, close_cost_usd: Wad) -> BadDebtType {
    let collateral = position.total_collateral_value();
    let debt = position.total_debt_value();
    if debt.is_zero() {
        return BadDebtType::None;
    }
    if collateral < debt {
        return BadDebtType::TypeI;
    }
    // Over-collateralized: the borrower recovers (collateral − debt) by
    // closing; if that excess does not cover the fee, closing is irrational.
    let excess = collateral - debt;
    if excess <= close_cost_usd {
        BadDebtType::TypeII
    } else {
        BadDebtType::None
    }
}

/// Whether a *liquidatable* position is an unprofitable liquidation
/// opportunity at the given liquidation transaction fee: the bonus collected
/// by the liquidator (spread × repayable debt, capped by the available
/// collateral) cannot cover the fee.
pub fn is_unprofitable_liquidation(
    position: &Position,
    close_factor: Wad,
    transaction_fee_usd: Wad,
) -> bool {
    if !position.is_liquidatable() {
        return false;
    }
    let debt = position.total_debt_value();
    let repayable = debt.checked_mul(close_factor).unwrap_or(Wad::ZERO);
    // Use the spread of the most valuable collateral market (the one a
    // rational liquidator would seize).
    let spread = position
        .collateral
        .iter()
        .max_by_key(|c| c.value_usd)
        .map(|c| c.liquidation_spread)
        .unwrap_or(Wad::ZERO);
    let claim =
        Position::collateral_to_claim(repayable, spread).min(position.total_collateral_value());
    let bonus = claim.saturating_sub(repayable);
    bonus <= transaction_fee_usd
}

/// Summary row of a bad-debt measurement (one platform, one fee assumption),
/// mirroring Table 2's cells ("count (share %) / collateral USD locked").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BadDebtSummary {
    /// Number of positions classified as bad debt.
    pub count: u32,
    /// Total number of positions examined.
    pub total_positions: u32,
    /// Collateral value locked in the bad-debt positions (USD).
    pub collateral_locked: Wad,
}

impl BadDebtSummary {
    /// Share of positions that are bad debts, in percent.
    pub fn share_percent(&self) -> f64 {
        if self.total_positions == 0 {
            0.0
        } else {
            100.0 * self.count as f64 / self.total_positions as f64
        }
    }
}

/// Measure Type I and Type II bad debts over a position book at a given
/// closing cost, as in Table 2.
pub fn measure_bad_debts(
    positions: &[Position],
    close_cost_usd: Wad,
) -> (BadDebtSummary, BadDebtSummary) {
    let mut type_1 = BadDebtSummary::default();
    let mut type_2 = BadDebtSummary::default();
    let with_debt: Vec<&Position> = positions
        .iter()
        .filter(|p| !p.total_debt_value().is_zero())
        .collect();
    type_1.total_positions = with_debt.len() as u32;
    type_2.total_positions = with_debt.len() as u32;
    for position in with_debt {
        match classify_bad_debt(position, close_cost_usd) {
            BadDebtType::TypeI => {
                type_1.count += 1;
                type_1.collateral_locked = type_1
                    .collateral_locked
                    .saturating_add(position.total_collateral_value());
            }
            BadDebtType::TypeII => {
                type_2.count += 1;
                type_2.collateral_locked = type_2
                    .collateral_locked
                    .saturating_add(position.total_collateral_value());
            }
            BadDebtType::None => {}
        }
    }
    (type_1, type_2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_types::{Address, Token};

    fn pos(collateral: u64, debt: u64) -> Position {
        Position::simple(
            Address::from_seed(collateral ^ debt),
            Token::ETH,
            Wad::from_int(collateral),
            Token::DAI,
            Wad::from_int(debt),
            Wad::from_f64(0.75),
            Wad::from_f64(0.08),
        )
    }

    #[test]
    fn under_collateralized_is_type_1() {
        assert_eq!(
            classify_bad_debt(&pos(900, 1_000), Wad::from_int(100)),
            BadDebtType::TypeI
        );
    }

    #[test]
    fn tiny_excess_is_type_2() {
        // Excess of 50 USD does not cover a 100 USD close cost.
        assert_eq!(
            classify_bad_debt(&pos(1_050, 1_000), Wad::from_int(100)),
            BadDebtType::TypeII
        );
        // …but it does cover a 10 USD one.
        assert_eq!(
            classify_bad_debt(&pos(1_050, 1_000), Wad::from_int(10)),
            BadDebtType::None
        );
    }

    #[test]
    fn healthy_position_is_not_bad_debt() {
        assert_eq!(
            classify_bad_debt(&pos(5_000, 1_000), Wad::from_int(100)),
            BadDebtType::None
        );
        let no_debt = Position::new(Address::ZERO);
        assert_eq!(
            classify_bad_debt(&no_debt, Wad::from_int(100)),
            BadDebtType::None
        );
    }

    #[test]
    fn type2_threshold_scales_with_fee() {
        // More positions become Type II as fees rise — the paper's Table 2
        // shows counts increasing from the ≤10 USD to the ≤100 USD column.
        let book: Vec<Position> = (1..=100).map(|i| pos(1_000 + i, 1_000)).collect();
        let (_, type2_low) = measure_bad_debts(&book, Wad::from_int(10));
        let (_, type2_high) = measure_bad_debts(&book, Wad::from_int(100));
        assert!(type2_high.count > type2_low.count);
        assert!(type2_high.share_percent() > type2_low.share_percent());
    }

    #[test]
    fn unprofitable_liquidation_detection() {
        // Small liquidatable position: bonus = 8% of repayable 50% of 100 USD
        // = 4 USD < 100 USD fee → unprofitable.
        let small = pos(110, 100);
        assert!(small.is_liquidatable());
        assert!(is_unprofitable_liquidation(
            &small,
            Wad::from_f64(0.5),
            Wad::from_int(100)
        ));
        assert!(!is_unprofitable_liquidation(
            &small,
            Wad::from_f64(0.5),
            Wad::from_f64(1.0)
        ));
        // Large liquidatable position: bonus is thousands of USD → profitable.
        let large = pos(110_000, 100_000);
        assert!(!is_unprofitable_liquidation(
            &large,
            Wad::from_f64(0.5),
            Wad::from_int(100)
        ));
        // A healthy position is never an "unprofitable liquidation".
        let healthy = pos(200, 100);
        assert!(!is_unprofitable_liquidation(
            &healthy,
            Wad::from_f64(0.5),
            Wad::from_int(100)
        ));
    }

    #[test]
    fn measure_bad_debts_counts_and_locked_collateral() {
        let book = vec![pos(900, 1_000), pos(1_020, 1_000), pos(3_000, 1_000)];
        let (t1, t2) = measure_bad_debts(&book, Wad::from_int(100));
        assert_eq!(t1.count, 1);
        assert_eq!(t2.count, 1);
        assert_eq!(t1.total_positions, 3);
        assert_eq!(t1.collateral_locked, Wad::from_int(900));
        assert_eq!(t2.collateral_locked, Wad::from_int(1_020));
    }
}
