//! Mitigation of the optimal liquidation strategy (§5.2.3).
//!
//! The proposed mitigation allows only **one liquidation per position per
//! block**. The optimal strategy then needs its two liquidations in two
//! consecutive blocks, and a non-mining liquidator cannot guarantee winning
//! the second one against competitors. For a *mining* liquidator with mining
//! power α, the expected profits are (Eqs. 10–11):
//!
//! ```text
//! E[up-to-close-factor] = α · profit_c
//! E[optimal]            = α · profit_o1 + α² · profit_o2
//! ```
//!
//! so attempting the optimal strategy only pays when (Eq. 12)
//!
//! ```text
//! α > (profit_c − profit_o1) / profit_o2 .
//! ```
//!
//! For the paper's case study this threshold is 99.68 %, i.e. the mitigation
//! effectively removes the incentive.

use defi_types::Wad;

use crate::params::RiskParams;
use crate::strategy::{optimal_liquidation, up_to_close_factor_liquidation};

/// The minimum mining power α above which the optimal two-block strategy has
/// higher expected profit than up-to-close-factor, under the
/// one-liquidation-per-block rule (Eq. 12).
///
/// Returns `None` when either strategy is unavailable (position healthy or
/// config unsound) or when the second liquidation yields no profit (the
/// threshold would be infinite — the mitigation fully removes the incentive).
pub fn optimal_strategy_mining_power_threshold(
    collateral: Wad,
    debt: Wad,
    params: RiskParams,
) -> Option<f64> {
    let close_factor = up_to_close_factor_liquidation(collateral, debt, params)?;
    let optimal = optimal_liquidation(collateral, debt, params)?;

    let profit_c = close_factor.profit.to_f64();
    // Profit attribution between the optimal strategy's two liquidations is
    // proportional to the repaid amounts (the spread is constant).
    let total_repaid = optimal.total_repaid().to_f64();
    if total_repaid <= 0.0 {
        return None;
    }
    let profit_total = optimal.profit.to_f64();
    let profit_o1 = profit_total * optimal.repay_1.to_f64() / total_repaid;
    let profit_o2 = profit_total * optimal.repay_2.to_f64() / total_repaid;
    if profit_o2 <= 0.0 {
        return None;
    }
    Some(((profit_c - profit_o1) / profit_o2).clamp(0.0, f64::INFINITY))
}

/// Full mitigation analysis for one position, bundling expected profits as a
/// function of mining power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationAnalysis {
    /// Profit of the up-to-close-factor strategy (single block).
    pub profit_close_factor: f64,
    /// Profit of the optimal strategy's first liquidation.
    pub profit_optimal_1: f64,
    /// Profit of the optimal strategy's second liquidation.
    pub profit_optimal_2: f64,
    /// Minimum mining power for the optimal strategy to be rational under
    /// the one-liquidation-per-block rule (`None` = never rational).
    pub mining_power_threshold: Option<f64>,
}

impl MitigationAnalysis {
    /// Analyse a ⟨C, D⟩ position. Returns `None` if it is not liquidatable.
    pub fn evaluate(collateral: Wad, debt: Wad, params: RiskParams) -> Option<Self> {
        let close_factor = up_to_close_factor_liquidation(collateral, debt, params)?;
        let optimal = optimal_liquidation(collateral, debt, params)?;
        let total_repaid = optimal.total_repaid().to_f64();
        let profit_total = optimal.profit.to_f64();
        let (p1, p2) = if total_repaid > 0.0 {
            (
                profit_total * optimal.repay_1.to_f64() / total_repaid,
                profit_total * optimal.repay_2.to_f64() / total_repaid,
            )
        } else {
            (0.0, 0.0)
        };
        Some(MitigationAnalysis {
            profit_close_factor: close_factor.profit.to_f64(),
            profit_optimal_1: p1,
            profit_optimal_2: p2,
            mining_power_threshold: optimal_strategy_mining_power_threshold(
                collateral, debt, params,
            ),
        })
    }

    /// Expected profit of the up-to-close-factor strategy for a miner with
    /// power `alpha` (Eq. 10).
    pub fn expected_close_factor(&self, alpha: f64) -> f64 {
        alpha * self.profit_close_factor
    }

    /// Expected profit of the optimal strategy for a miner with power
    /// `alpha` under one-liquidation-per-block (Eq. 11).
    pub fn expected_optimal(&self, alpha: f64) -> f64 {
        alpha * self.profit_optimal_1 + alpha * alpha * self.profit_optimal_2
    }

    /// Whether a miner with power `alpha` is incentivised to attempt the
    /// optimal strategy (E\[optimal\] > E\[up-to-close-factor\]).
    pub fn optimal_is_rational(&self, alpha: f64) -> bool {
        self.expected_optimal(alpha) > self.expected_close_factor(alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RiskParams {
        RiskParams::paper_example()
    }

    #[test]
    fn threshold_exists_and_is_high_for_barely_unhealthy_positions() {
        // A barely-unhealthy position: the first optimal repay is tiny, so the
        // close-factor strategy dominates unless the miner almost surely gets
        // both blocks — exactly the paper's conclusion (threshold ≈ 1).
        let collateral = Wad::from_int(10_480);
        let debt = Wad::from_int(8_400); // HF = 0.998
        let threshold =
            optimal_strategy_mining_power_threshold(collateral, debt, params()).unwrap();
        assert!(
            threshold > 0.95,
            "threshold should be near 1, got {threshold}"
        );
    }

    #[test]
    fn expected_profit_crossover_matches_threshold() {
        let collateral = Wad::from_int(9_900);
        let debt = Wad::from_int(8_400);
        let analysis = MitigationAnalysis::evaluate(collateral, debt, params()).unwrap();
        let threshold = analysis.mining_power_threshold.unwrap();
        if threshold < 1.0 {
            assert!(!analysis.optimal_is_rational((threshold - 0.01).max(0.0)));
            assert!(analysis.optimal_is_rational((threshold + 0.01).min(1.0)));
        } else {
            assert!(!analysis.optimal_is_rational(0.99));
        }
    }

    #[test]
    fn healthy_position_has_no_analysis() {
        assert!(MitigationAnalysis::evaluate(
            Wad::from_int(20_000),
            Wad::from_int(8_000),
            params()
        )
        .is_none());
    }

    #[test]
    fn expected_profit_formulas() {
        let analysis = MitigationAnalysis {
            profit_close_factor: 100.0,
            profit_optimal_1: 10.0,
            profit_optimal_2: 120.0,
            mining_power_threshold: Some(0.75),
        };
        assert!((analysis.expected_close_factor(0.5) - 50.0).abs() < 1e-12);
        assert!((analysis.expected_optimal(0.5) - (5.0 + 30.0)).abs() < 1e-12);
        // Threshold: (100-10)/120 = 0.75; above it optimal wins.
        assert!(analysis.optimal_is_rational(0.8));
        assert!(!analysis.optimal_is_rational(0.7));
    }
}
