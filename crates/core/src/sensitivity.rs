//! Liquidation sensitivity to price declines — Algorithm 1 and Figure 8.
//!
//! "To understand how the lending platforms respond to price declines of
//! different currencies, we quantify the liquidation sensitivity, i.e., the
//! amount of collateral that would be liquidated, if the price of the
//! collateral would decline by up to 100 %." (§4.5.1)
//!
//! [`liquidatable_collateral`] is a direct transcription of Algorithm 1;
//! [`SensitivityCurve`] sweeps the decline percentage to produce the series
//! plotted per collateral asset in Figure 8.

use defi_types::{Token, Wad};

use crate::position::Position;

/// Algorithm 1: the liquidatable collateral volume if `target`'s price
/// declines by `decline` (a fraction in `[0, 1]`), over the given set of
/// borrower positions.
///
/// For each borrower holding collateral in the target currency, the
/// collateral value, borrowing capacity and debt value are recomputed under
/// the decline; if the position becomes liquidatable (BC < D), its *declined*
/// collateral value is added to the result.
pub fn liquidatable_collateral(positions: &[Position], target: Token, decline: f64) -> Wad {
    let decline = decline.clamp(0.0, 1.0);
    let decline_wad = Wad::from_f64(decline);
    let mut liquidatable = Wad::ZERO;

    for position in positions {
        if !position.has_collateral_in(target) {
            continue;
        }
        // Collateral value after the decline: Σ C_c − C_ℭ·d.
        let collateral_in_target = position.collateral_value_in(target);
        let collateral_haircut = collateral_in_target
            .checked_mul(decline_wad)
            .unwrap_or(Wad::ZERO);
        let collateral_after = position
            .total_collateral_value()
            .saturating_sub(collateral_haircut);

        // Borrowing capacity after the decline: Σ C_c·LT_c − C_ℭ·LT_ℭ·d.
        let mut capacity_after = position.borrowing_capacity();
        for holding in position.collateral.iter().filter(|c| c.token == target) {
            let haircut = holding
                .value_usd
                .checked_mul(holding.liquidation_threshold)
                .and_then(|v| v.checked_mul(decline_wad))
                .unwrap_or(Wad::ZERO);
            capacity_after = capacity_after.saturating_sub(haircut);
        }

        // Debt value after the decline (debt in the target currency also
        // deflates): Σ D_c − D_ℭ·d.
        let debt_haircut = position
            .debt_value_in(target)
            .checked_mul(decline_wad)
            .unwrap_or(Wad::ZERO);
        let debt_after = position.total_debt_value().saturating_sub(debt_haircut);

        if capacity_after < debt_after {
            liquidatable = liquidatable.saturating_add(collateral_after);
        }
    }
    liquidatable
}

/// One point of a sensitivity curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityPoint {
    /// Price decline (fraction, 0.0–1.0).
    pub decline: f64,
    /// Liquidatable collateral value (USD) at that decline.
    pub liquidatable: Wad,
}

/// The Figure 8 series for one collateral asset on one platform: liquidatable
/// collateral as a function of the price decline percentage.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityCurve {
    /// The collateral asset whose price declines.
    pub token: Token,
    /// Sampled points, ordered by increasing decline.
    pub points: Vec<SensitivityPoint>,
}

impl SensitivityCurve {
    /// Sweep the decline from 0 to 100 % in `steps` increments over the
    /// position book.
    pub fn compute(positions: &[Position], token: Token, steps: usize) -> Self {
        let steps = steps.max(1);
        let points = (0..=steps)
            .map(|i| {
                let decline = i as f64 / steps as f64;
                SensitivityPoint {
                    decline,
                    liquidatable: liquidatable_collateral(positions, token, decline),
                }
            })
            .collect();
        SensitivityCurve { token, points }
    }

    /// The liquidatable collateral at the decline closest to `decline`.
    pub fn at(&self, decline: f64) -> Wad {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.decline - decline)
                    .abs()
                    .partial_cmp(&(b.decline - decline).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|p| p.liquidatable)
            .unwrap_or(Wad::ZERO)
    }

    /// The maximum liquidatable collateral across the sweep (the curve's
    /// plateau at 100 % decline).
    pub fn max(&self) -> Wad {
        self.points
            .iter()
            .map(|p| p.liquidatable)
            .max()
            .unwrap_or(Wad::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::position::{CollateralHolding, DebtHolding};
    use defi_types::Address;

    fn eth_position(collateral_usd: u64, debt_usd: u64, lt: f64) -> Position {
        Position::new(Address::from_seed(collateral_usd ^ debt_usd))
            .with_collateral(CollateralHolding {
                token: Token::ETH,
                amount: Wad::from_int(collateral_usd / 3_000),
                value_usd: Wad::from_int(collateral_usd),
                liquidation_threshold: Wad::from_f64(lt),
                liquidation_spread: Wad::from_f64(0.05),
            })
            .with_debt(DebtHolding {
                token: Token::DAI,
                amount: Wad::from_int(debt_usd),
                value_usd: Wad::from_int(debt_usd),
            })
    }

    #[test]
    fn healthy_position_needs_a_decline_to_become_liquidatable() {
        // BC = 10,000 * 0.8 = 8,000 > 6,000 debt → healthy at 0 % decline.
        let positions = vec![eth_position(10_000, 6_000, 0.8)];
        assert_eq!(
            liquidatable_collateral(&positions, Token::ETH, 0.0),
            Wad::ZERO
        );
        // At 30%: collateral 7,000, BC 5,600 < 6,000 → liquidatable, counted
        // at the declined collateral value 7,000.
        assert_eq!(
            liquidatable_collateral(&positions, Token::ETH, 0.30),
            Wad::from_int(7_000)
        );
    }

    #[test]
    fn decline_threshold_matches_closed_form() {
        // Position becomes liquidatable when (1-d)·C·LT < D ⇒ d > 1 − D/(C·LT).
        let positions = vec![eth_position(10_000, 6_000, 0.8)];
        let critical = 1.0 - 6_000.0 / (10_000.0 * 0.8); // 0.25
        let just_below = liquidatable_collateral(&positions, Token::ETH, critical - 0.01);
        let just_above = liquidatable_collateral(&positions, Token::ETH, critical + 0.01);
        assert_eq!(just_below, Wad::ZERO);
        assert!(!just_above.is_zero());
    }

    #[test]
    fn unrelated_token_decline_has_no_effect() {
        let positions = vec![eth_position(10_000, 6_000, 0.8)];
        assert_eq!(
            liquidatable_collateral(&positions, Token::WBTC, 0.9),
            Wad::ZERO
        );
    }

    #[test]
    fn debt_in_declining_token_offsets() {
        // Collateral ETH, debt also ETH-denominated: a decline shrinks both,
        // so the position never becomes liquidatable from this decline alone.
        let position = Position::new(Address::ZERO)
            .with_collateral(CollateralHolding {
                token: Token::ETH,
                amount: Wad::from_int(10),
                value_usd: Wad::from_int(30_000),
                liquidation_threshold: Wad::from_f64(0.8),
                liquidation_spread: Wad::from_f64(0.05),
            })
            .with_debt(DebtHolding {
                token: Token::ETH,
                amount: Wad::from_int(7),
                value_usd: Wad::from_int(21_000),
            });
        for decline in [0.1, 0.5, 0.9] {
            assert_eq!(
                liquidatable_collateral(std::slice::from_ref(&position), Token::ETH, decline),
                Wad::ZERO,
                "decline {decline}"
            );
        }
    }

    #[test]
    fn curve_is_monotone_in_liquidated_positions() {
        let positions: Vec<Position> = (1..=20)
            .map(|i| eth_position(10_000, 4_000 + i * 200, 0.8))
            .collect();
        let curve = SensitivityCurve::compute(&positions, Token::ETH, 50);
        assert_eq!(curve.points.len(), 51);
        // The number of liquidatable positions grows with the decline, and the
        // curve should rise towards its maximum before the per-position value
        // decay dominates; its maximum must be positive.
        assert!(!curve.max().is_zero());
        assert!(curve.at(0.0) <= curve.max());
        // At a 100% decline every ETH-collateralised position is liquidatable,
        // but the counted collateral value is zero (fully declined).
        let last = curve.points.last().unwrap();
        assert_eq!(last.decline, 1.0);
    }

    #[test]
    fn multi_collateral_positions_resist_single_token_declines() {
        // The paper observes Aave V2 is more stable because its users hold
        // multi-token collateral. Reproduce in miniature: same totals, one
        // diversified and one concentrated position.
        let concentrated = eth_position(10_000, 6_000, 0.8);
        let diversified = Position::new(Address::from_seed(99))
            .with_collateral(CollateralHolding {
                token: Token::ETH,
                amount: Wad::from_int(1),
                value_usd: Wad::from_int(5_000),
                liquidation_threshold: Wad::from_f64(0.8),
                liquidation_spread: Wad::from_f64(0.05),
            })
            .with_collateral(CollateralHolding {
                token: Token::USDC,
                amount: Wad::from_int(5_000),
                value_usd: Wad::from_int(5_000),
                liquidation_threshold: Wad::from_f64(0.8),
                liquidation_spread: Wad::from_f64(0.05),
            })
            .with_debt(DebtHolding {
                token: Token::DAI,
                amount: Wad::from_int(6_000),
                value_usd: Wad::from_int(6_000),
            });
        let decline = 0.40;
        let concentrated_hit = liquidatable_collateral(&[concentrated], Token::ETH, decline);
        let diversified_hit = liquidatable_collateral(&[diversified], Token::ETH, decline);
        assert!(!concentrated_hit.is_zero());
        assert!(diversified_hit.is_zero());
    }
}
