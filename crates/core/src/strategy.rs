//! Fixed-spread liquidation strategies (§5.2).
//!
//! Given a liquidatable position POS = ⟨C, D⟩ (collateral value C, debt value
//! D) in a market with liquidation threshold LT, spread LS and close factor
//! CF, a liquidator can:
//!
//! * follow the **up-to-close-factor** strategy — repay CF·D in a single
//!   liquidation (profit = LS·CF·D), or
//! * follow the **optimal** strategy (Algorithm 2) — first repay just enough
//!   to keep the position *unhealthy*, then liquidate up to the close factor
//!   of the remaining debt in a second liquidation. The repay amounts are
//!   given by Eqs. 6–7, the total profit by Eq. 8 and the relative
//!   improvement over up-to-close-factor by Eq. 9.
//!
//! The functions here work on USD values, matching the paper's formulation;
//! converting to token amounts is the caller's (protocol's) concern.

use defi_types::{SignedWad, Wad};

use crate::params::RiskParams;
use crate::position::Position;

/// The outcome of one or two liquidations executed under a strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiquidationOutcome {
    /// Debt value repaid in the first liquidation.
    pub repay_1: Wad,
    /// Debt value repaid in the second liquidation (zero for single-step
    /// strategies).
    pub repay_2: Wad,
    /// Collateral value received across both liquidations (Eq. 1 applied to
    /// each repayment).
    pub collateral_claimed: Wad,
    /// Liquidator profit: collateral claimed − debt repaid.
    pub profit: Wad,
    /// Health factor of the position after all liquidations in the strategy,
    /// `None` if the debt was fully repaid.
    pub final_health_factor: Option<Wad>,
}

impl LiquidationOutcome {
    /// Total debt repaid across the strategy's liquidations.
    pub fn total_repaid(&self) -> Wad {
        self.repay_1.saturating_add(self.repay_2)
    }
}

/// Simulate repaying `repay` of debt value against ⟨C, D⟩ with spread LS,
/// returning the resulting ⟨C′, D′⟩ (the paper's `Liquidate(POS, repay)`
/// helper in Algorithm 2).
pub fn apply_liquidation(collateral: Wad, debt: Wad, repay: Wad, spread: Wad) -> (Wad, Wad) {
    let claimed = Position::collateral_to_claim(repay, spread);
    (
        collateral.saturating_sub(claimed),
        debt.saturating_sub(repay),
    )
}

fn health_factor(collateral: Wad, debt: Wad, lt: Wad) -> Option<Wad> {
    if debt.is_zero() {
        return None;
    }
    collateral.checked_mul(lt).ok()?.checked_div(debt).ok()
}

/// The conventional single-liquidation strategy: repay CF·D.
///
/// Returns `None` when the position is not liquidatable (HF ≥ 1).
pub fn up_to_close_factor_liquidation(
    collateral: Wad,
    debt: Wad,
    params: RiskParams,
) -> Option<LiquidationOutcome> {
    let hf = health_factor(collateral, debt, params.liquidation_threshold)?;
    if hf >= Wad::ONE {
        return None;
    }
    // The repayment is bounded by the close factor and — as every fixed-spread
    // protocol enforces — by the collateral actually available to claim.
    let one_plus_ls = Wad::ONE.saturating_add(params.liquidation_spread);
    let collateral_cap = collateral.checked_div(one_plus_ls).ok()?;
    let repay = debt
        .checked_mul(params.close_factor)
        .ok()?
        .min(collateral_cap);
    let claimed = Position::collateral_to_claim(repay, params.liquidation_spread).min(collateral);
    let (c_after, d_after) = apply_liquidation(collateral, debt, repay, params.liquidation_spread);
    Some(LiquidationOutcome {
        repay_1: repay,
        repay_2: Wad::ZERO,
        collateral_claimed: claimed,
        profit: claimed.saturating_sub(repay),
        final_health_factor: health_factor(c_after, d_after, params.liquidation_threshold),
    })
}

/// Algorithm 2: the optimal two-liquidation strategy.
///
/// The first repayment is the largest amount that keeps the position
/// *unhealthy* (Eq. 6):
///
/// ```text
/// repay₁ = (D − LT·C) / (1 − LT·(1 + LS))
/// ```
///
/// and the second repays the close factor of what remains (Eq. 7). The first
/// repayment is additionally capped at CF·D, which the protocol enforces on
/// every call (the cap only binds for deeply under-collateralized positions).
/// Returns `None` when the position is not liquidatable or the market
/// configuration is unsound (`1 − LT(1+LS) ≤ 0`, Appendix C).
pub fn optimal_liquidation(
    collateral: Wad,
    debt: Wad,
    params: RiskParams,
) -> Option<LiquidationOutcome> {
    let lt = params.liquidation_threshold;
    let ls = params.liquidation_spread;
    let cf = params.close_factor;

    let hf = health_factor(collateral, debt, lt)?;
    if hf >= Wad::ONE {
        return None;
    }
    // Denominator 1 − LT(1+LS) must be positive (Appendix C).
    let lt_times_one_plus_ls = lt.checked_mul(Wad::ONE.saturating_add(ls)).ok()?;
    if lt_times_one_plus_ls >= Wad::ONE {
        return None;
    }
    let denominator = Wad::ONE - lt_times_one_plus_ls;

    // Numerator D − LT·C is positive because the position is liquidatable.
    let lt_c = lt.checked_mul(collateral).ok()?;
    let numerator = debt.saturating_sub(lt_c);
    // Each individual liquidation is still subject to the close factor and to
    // the collateral actually available (both enforced by the protocols),
    // which only matters for deeply under-collateralized positions where
    // Eq. 6 alone would exceed them.
    let one_plus_ls = Wad::ONE.saturating_add(ls);
    let close_factor_cap = debt.checked_mul(cf).ok()?;
    let collateral_cap = collateral.checked_div(one_plus_ls).ok()?;
    let repay_1 = numerator
        .checked_div(denominator)
        .ok()?
        .min(debt)
        .min(close_factor_cap)
        .min(collateral_cap);

    let (c_mid, d_mid) = apply_liquidation(collateral, debt, repay_1, ls);
    let repay_2 = d_mid
        .checked_mul(cf)
        .ok()?
        .min(c_mid.checked_div(one_plus_ls).ok()?);
    let (c_after, d_after) = apply_liquidation(c_mid, d_mid, repay_2, ls);

    let claimed_1 = Position::collateral_to_claim(repay_1, ls).min(collateral);
    let claimed_2 = Position::collateral_to_claim(repay_2, ls).min(c_mid);
    let claimed = claimed_1.saturating_add(claimed_2);
    let total_repaid = repay_1.saturating_add(repay_2);

    Some(LiquidationOutcome {
        repay_1,
        repay_2,
        collateral_claimed: claimed,
        profit: claimed.saturating_sub(total_repaid),
        final_health_factor: health_factor(c_after, d_after, lt),
    })
}

/// Closed-form profit of the optimal strategy (Eq. 8):
/// `LS·CF·D + LS·(1 − CF)·(D − LT·C)/(1 − LT(1+LS))`.
pub fn optimal_profit_closed_form(collateral: Wad, debt: Wad, params: RiskParams) -> Wad {
    let lt = params.liquidation_threshold.to_f64();
    let ls = params.liquidation_spread.to_f64();
    let cf = params.close_factor.to_f64();
    let c = collateral.to_f64();
    let d = debt.to_f64();
    let denom = 1.0 - lt * (1.0 + ls);
    if denom <= 0.0 {
        return Wad::ZERO;
    }
    let profit = ls * cf * d + ls * (1.0 - cf) * (d - lt * c) / denom;
    Wad::from_f64(profit.max(0.0))
}

/// Closed-form relative profit increase of the optimal strategy over
/// up-to-close-factor (Eq. 9): `CF/(1−CF) · (1 − LT·CR)/(1 − LT(1+LS))`,
/// where CR = C/D. Returns `None` for CF = 1 (the ratio is undefined; with a
/// 100 % close factor the two strategies coincide, as on dYdX).
pub fn optimal_profit_increase_rate(collateral: Wad, debt: Wad, params: RiskParams) -> Option<f64> {
    let lt = params.liquidation_threshold.to_f64();
    let ls = params.liquidation_spread.to_f64();
    let cf = params.close_factor.to_f64();
    if cf >= 1.0 || debt.is_zero() {
        return None;
    }
    let cr = collateral.to_f64() / debt.to_f64();
    let denom = 1.0 - lt * (1.0 + ls);
    if denom <= 0.0 {
        return None;
    }
    Some(cf / (1.0 - cf) * (1.0 - lt * cr) / denom)
}

/// Side-by-side comparison of the two strategies on one position, as in the
/// Table 6 case study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyComparison {
    /// Outcome of the up-to-close-factor strategy.
    pub up_to_close_factor: LiquidationOutcome,
    /// Outcome of the optimal two-step strategy.
    pub optimal: LiquidationOutcome,
    /// Absolute profit advantage of the optimal strategy (optimal − close-factor).
    pub profit_advantage: SignedWad,
    /// Relative advantage predicted by the closed form (Eq. 9), when defined.
    pub predicted_increase_rate: Option<f64>,
}

impl StrategyComparison {
    /// Compare the strategies on a ⟨C, D⟩ position. Returns `None` when the
    /// position is not liquidatable.
    pub fn evaluate(collateral: Wad, debt: Wad, params: RiskParams) -> Option<Self> {
        let base = up_to_close_factor_liquidation(collateral, debt, params)?;
        let optimal = optimal_liquidation(collateral, debt, params)?;
        Some(StrategyComparison {
            up_to_close_factor: base,
            optimal,
            profit_advantage: SignedWad::sub_wads(optimal.profit, base.profit),
            predicted_increase_rate: optimal_profit_increase_rate(collateral, debt, params),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RiskParams {
        RiskParams::paper_example()
    }

    #[test]
    fn paper_walkthrough_profit() {
        // §3.2.2: collateral 9,900 USD, debt 8,400 USD, LT 0.8, LS 10%, CF 50%.
        // Repaying 4,200 claims 4,620 → profit 420.
        let outcome =
            up_to_close_factor_liquidation(Wad::from_int(9_900), Wad::from_int(8_400), params())
                .unwrap();
        assert_eq!(outcome.repay_1, Wad::from_int(4_200));
        assert_eq!(outcome.collateral_claimed, Wad::from_int(4_620));
        assert_eq!(outcome.profit, Wad::from_int(420));
    }

    #[test]
    fn healthy_position_cannot_be_liquidated() {
        assert!(up_to_close_factor_liquidation(
            Wad::from_int(20_000),
            Wad::from_int(8_400),
            params()
        )
        .is_none());
        assert!(
            optimal_liquidation(Wad::from_int(20_000), Wad::from_int(8_400), params()).is_none()
        );
    }

    #[test]
    fn optimal_first_repay_keeps_position_unhealthy() {
        let c = Wad::from_int(9_900);
        let d = Wad::from_int(8_400);
        let outcome = optimal_liquidation(c, d, params()).unwrap();
        // After repay_1 the position must still be liquidatable (HF < 1, up to rounding).
        let (c1, d1) = apply_liquidation(c, d, outcome.repay_1, params().liquidation_spread);
        let hf = c1
            .checked_mul(params().liquidation_threshold)
            .unwrap()
            .checked_div(d1)
            .unwrap();
        assert!(
            hf <= Wad::ONE.saturating_add(Wad::from_raw(10)),
            "HF after repay_1 is {hf}"
        );
        // And repay_1 should be maximal: repaying 1% more must tip it over 1.
        let bigger = outcome.repay_1.checked_mul(Wad::from_f64(1.01)).unwrap();
        let (c2, d2) = apply_liquidation(c, d, bigger, params().liquidation_spread);
        let hf2 = c2
            .checked_mul(params().liquidation_threshold)
            .unwrap()
            .checked_div(d2)
            .unwrap();
        assert!(hf2 > Wad::ONE);
    }

    #[test]
    fn optimal_beats_up_to_close_factor() {
        let comparison =
            StrategyComparison::evaluate(Wad::from_int(9_900), Wad::from_int(8_400), params())
                .unwrap();
        assert!(
            comparison.optimal.profit > comparison.up_to_close_factor.profit,
            "optimal {} must beat close-factor {}",
            comparison.optimal.profit,
            comparison.up_to_close_factor.profit
        );
        assert!(!comparison.profit_advantage.is_negative());
    }

    #[test]
    fn optimal_matches_closed_form() {
        let c = Wad::from_int(9_900);
        let d = Wad::from_int(8_400);
        let simulated = optimal_liquidation(c, d, params()).unwrap().profit.to_f64();
        let closed = optimal_profit_closed_form(c, d, params()).to_f64();
        assert!(
            (simulated - closed).abs() / closed < 1e-6,
            "simulated {simulated} vs closed-form {closed}"
        );
    }

    #[test]
    fn increase_rate_matches_eq9_shape() {
        let p = params();
        // Lower CR (closer to liquidation boundary from below) → larger increase rate.
        let low_cr =
            optimal_profit_increase_rate(Wad::from_int(9_000), Wad::from_int(8_400), p).unwrap();
        let high_cr =
            optimal_profit_increase_rate(Wad::from_int(10_400), Wad::from_int(8_400), p).unwrap();
        assert!(low_cr > high_cr);
        // With CF = 1 (dYdX) the rate is undefined.
        let dydx = RiskParams::new(0.8, 0.05, 1.0);
        assert!(
            optimal_profit_increase_rate(Wad::from_int(9_000), Wad::from_int(8_400), dydx)
                .is_none()
        );
    }

    #[test]
    fn unsound_configuration_is_rejected() {
        // LT(1+LS) ≥ 1 makes the optimal strategy's denominator non-positive.
        let bad = RiskParams::new(0.95, 0.10, 0.5);
        assert!(optimal_liquidation(Wad::from_int(9_000), Wad::from_int(8_800), bad).is_none());
    }

    #[test]
    fn relative_advantage_agrees_with_predicted_rate() {
        let c = Wad::from_int(9_900);
        let d = Wad::from_int(8_400);
        let comparison = StrategyComparison::evaluate(c, d, params()).unwrap();
        let measured = (comparison.optimal.profit.to_f64()
            - comparison.up_to_close_factor.profit.to_f64())
            / comparison.up_to_close_factor.profit.to_f64();
        let predicted = comparison.predicted_increase_rate.unwrap();
        assert!(
            (measured - predicted).abs() < 1e-6,
            "measured {measured} vs predicted {predicted}"
        );
    }

    #[test]
    fn under_collateralized_position_still_liquidatable_but_capped() {
        // C < D: the claim is capped by the available collateral.
        let c = Wad::from_int(5_000);
        let d = Wad::from_int(8_000);
        let outcome = up_to_close_factor_liquidation(c, d, params()).unwrap();
        assert!(outcome.collateral_claimed <= c);
    }
}
