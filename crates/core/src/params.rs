//! Per-market risk parameters (§2.3 of the paper).

use defi_types::{Platform, Token, Wad};

/// The three parameters that govern a fixed-spread liquidation market.
///
/// * `liquidation_threshold` (LT) — percentage at which collateral value
///   counts towards borrowing capacity (Eq. 3).
/// * `liquidation_spread` (LS) — the liquidator's discount/bonus (Eq. 1).
/// * `close_factor` (CF) — the maximum fraction of the debt repayable in one
///   liquidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RiskParams {
    /// Liquidation threshold LT ∈ (0, 1].
    pub liquidation_threshold: Wad,
    /// Liquidation spread LS ≥ 0.
    pub liquidation_spread: Wad,
    /// Close factor CF ∈ (0, 1].
    pub close_factor: Wad,
}

impl RiskParams {
    /// Construct from floating parameters (convenience for configs/tests).
    pub fn new(liquidation_threshold: f64, liquidation_spread: f64, close_factor: f64) -> Self {
        RiskParams {
            liquidation_threshold: Wad::from_f64(liquidation_threshold),
            liquidation_spread: Wad::from_f64(liquidation_spread),
            close_factor: Wad::from_f64(close_factor),
        }
    }

    /// The worked example of §3.2.2: LT = 0.8, LS = 10 %, CF = 50 %.
    pub fn paper_example() -> Self {
        RiskParams::new(0.80, 0.10, 0.50)
    }

    /// Representative parameters for a platform's flagship market, as
    /// described in §3.3 (Aave 5–15 % spread with 50 % close factor,
    /// Compound 8 % with 50 %, dYdX 5 % with 100 %, MakerDAO 13 % penalty
    /// with auction-based liquidation — modelled as CF = 1 for comparison
    /// purposes).
    pub fn platform_default(platform: Platform) -> Self {
        match platform {
            Platform::AaveV1 => RiskParams::new(0.75, 0.05, 0.50),
            Platform::AaveV2 => RiskParams::new(0.80, 0.05, 0.50),
            Platform::Compound => RiskParams::new(0.75, 0.08, 0.50),
            Platform::DyDx => RiskParams::new(0.80, 0.05, 1.00),
            Platform::MakerDao => RiskParams::new(2.0 / 3.0, 0.13, 1.00),
        }
    }

    /// Platform parameters specialised by collateral token: riskier
    /// collateral gets a lower threshold and a wider spread, mirroring the
    /// per-market configuration of Aave/Compound.
    pub fn platform_market(platform: Platform, collateral: Token) -> Self {
        let mut params = RiskParams::platform_default(platform);
        if platform == Platform::MakerDao {
            return params;
        }
        if collateral.is_stablecoin() {
            params.liquidation_threshold = Wad::from_f64(0.85);
            params.liquidation_spread = Wad::from_f64(0.04);
        } else if !collateral.is_eth() && collateral != Token::WBTC && collateral != Token::renBTC {
            // Long-tail assets.
            params.liquidation_threshold = Wad::from_f64(0.65);
            params.liquidation_spread = Wad::from_f64(match platform {
                Platform::AaveV1 | Platform::AaveV2 => 0.10,
                _ => 0.08,
            });
        }
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_values() {
        let p = RiskParams::paper_example();
        assert_eq!(p.liquidation_threshold, Wad::from_f64(0.8));
        assert_eq!(p.liquidation_spread, Wad::from_f64(0.1));
        assert_eq!(p.close_factor, Wad::from_f64(0.5));
    }

    #[test]
    fn dydx_allows_full_liquidation() {
        assert_eq!(
            RiskParams::platform_default(Platform::DyDx).close_factor,
            Wad::ONE
        );
        assert_eq!(
            RiskParams::platform_default(Platform::Compound).close_factor,
            Wad::from_f64(0.5)
        );
    }

    #[test]
    fn stablecoin_markets_have_tighter_spread() {
        let usdc = RiskParams::platform_market(Platform::AaveV2, Token::USDC);
        let mana = RiskParams::platform_market(Platform::AaveV2, Token::MANA);
        assert!(usdc.liquidation_spread < mana.liquidation_spread);
        assert!(usdc.liquidation_threshold > mana.liquidation_threshold);
    }

    #[test]
    fn all_default_configs_are_sound() {
        // Appendix C: 1 − LT(1+LS) > 0 must hold for every platform default.
        for platform in Platform::ALL {
            let p = RiskParams::platform_default(platform);
            let lt = p.liquidation_threshold.to_f64();
            let ls = p.liquidation_spread.to_f64();
            assert!(1.0 - lt * (1.0 + ls) > 0.0, "{platform} config unsound");
        }
    }
}
