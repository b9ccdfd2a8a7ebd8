//! The position model of §2.3: multi-asset collateral and debt, and the
//! quantities defined by Equations 1–4.
//!
//! A [`Position`] is a *valuation snapshot*: every holding carries its USD
//! value at a reference block (the paper normalises all measurements this
//! way), plus the risk parameters of the market it sits in. All downstream
//! algorithms (sensitivity, strategies, bad-debt classification) operate on
//! this snapshot type, which keeps them independent of any particular
//! protocol implementation or data source.

use defi_types::{Address, Platform, Token, Wad};

/// One collateral holding inside a position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollateralHolding {
    /// Collateral token.
    pub token: Token,
    /// Amount (token units).
    pub amount: Wad,
    /// USD value at the snapshot block.
    pub value_usd: Wad,
    /// Liquidation threshold LT of this market.
    pub liquidation_threshold: Wad,
    /// Liquidation spread LS of this market.
    pub liquidation_spread: Wad,
}

/// One debt holding inside a position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DebtHolding {
    /// Debt token.
    pub token: Token,
    /// Amount owed (token units).
    pub amount: Wad,
    /// USD value at the snapshot block.
    pub value_usd: Wad,
}

/// A borrowing position: "the collateral and debts are collectively referred
/// to as a position. A position may consist of multiple-cryptocurrency
/// collaterals and debts." (§2.3)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Position {
    /// Owner of the position.
    pub owner: Address,
    /// Platform the position lives on (informational; the math is identical).
    pub platform: Option<Platform>,
    /// Collateral holdings.
    pub collateral: Vec<CollateralHolding>,
    /// Debt holdings.
    pub debt: Vec<DebtHolding>,
}

impl Position {
    /// An empty position for `owner`.
    pub fn new(owner: Address) -> Self {
        Position {
            owner,
            platform: None,
            collateral: Vec::new(),
            debt: Vec::new(),
        }
    }

    /// Add a collateral holding.
    pub fn with_collateral(mut self, holding: CollateralHolding) -> Self {
        self.collateral.push(holding);
        self
    }

    /// Add a debt holding.
    pub fn with_debt(mut self, holding: DebtHolding) -> Self {
        self.debt.push(holding);
        self
    }

    /// Convenience constructor for the single-collateral, single-debt case
    /// used throughout §5.2 (the position is then exactly the ⟨C, D⟩ pair of
    /// Eq. 5).
    pub fn simple(
        owner: Address,
        collateral_token: Token,
        collateral_value: Wad,
        debt_token: Token,
        debt_value: Wad,
        liquidation_threshold: Wad,
        liquidation_spread: Wad,
    ) -> Self {
        Position::new(owner)
            .with_collateral(CollateralHolding {
                token: collateral_token,
                amount: collateral_value,
                value_usd: collateral_value,
                liquidation_threshold,
                liquidation_spread,
            })
            .with_debt(DebtHolding {
                token: debt_token,
                amount: debt_value,
                value_usd: debt_value,
            })
    }

    /// Total USD value of the collateral: Σ value(collateral_i).
    pub fn total_collateral_value(&self) -> Wad {
        self.collateral
            .iter()
            .fold(Wad::ZERO, |acc, c| acc.saturating_add(c.value_usd))
    }

    /// Total USD value of the debt: Σ value(debt_i).
    pub fn total_debt_value(&self) -> Wad {
        self.debt
            .iter()
            .fold(Wad::ZERO, |acc, d| acc.saturating_add(d.value_usd))
    }

    /// Borrowing capacity (Eq. 3): BC = Σ value(collateral_i) × LT_i.
    pub fn borrowing_capacity(&self) -> Wad {
        self.collateral.iter().fold(Wad::ZERO, |acc, c| {
            acc.saturating_add(
                c.value_usd
                    .checked_mul(c.liquidation_threshold)
                    .unwrap_or(Wad::ZERO),
            )
        })
    }

    /// Collateralization ratio (Eq. 2): CR = Σ collateral / Σ debt.
    /// Returns `None` when the position has no debt (CR is then undefined /
    /// infinite).
    pub fn collateralization_ratio(&self) -> Option<Wad> {
        let debt = self.total_debt_value();
        if debt.is_zero() {
            return None;
        }
        self.total_collateral_value().checked_div(debt).ok()
    }

    /// Health factor (Eq. 4): HF = BC / Σ value(debt_i).
    /// Returns `None` when the position has no debt. A ratio too large for
    /// the fixed-point representation (microscopic debt against real
    /// collateral) saturates to [`Wad::MAX`] — the health factor of an
    /// indebted position is always defined.
    pub fn health_factor(&self) -> Option<Wad> {
        let debt = self.total_debt_value();
        if debt.is_zero() {
            return None;
        }
        Some(
            self.borrowing_capacity()
                .checked_div(debt)
                .unwrap_or(Wad::MAX),
        )
    }

    /// "If HF < 1, the collateral becomes eligible for liquidation." (§2.3)
    pub fn is_liquidatable(&self) -> bool {
        self.liquidatable_health_factor().is_some()
    }

    /// The health factor of a liquidatable position (HF < 1), `None` for
    /// any other: the [`is_liquidatable`](Position::is_liquidatable) test
    /// that keeps the value it read.
    pub fn liquidatable_health_factor(&self) -> Option<Wad> {
        self.health_factor().filter(|hf| *hf < Wad::ONE)
    }

    /// "A debt is under-collateralized if CR < 1" (§2.3). Such positions are
    /// Type I bad debts.
    pub fn is_under_collateralized(&self) -> bool {
        match self.collateralization_ratio() {
            Some(cr) => cr < Wad::ONE,
            None => false,
        }
    }

    /// Whether the position holds collateral in `token`.
    pub fn has_collateral_in(&self, token: Token) -> bool {
        self.collateral
            .iter()
            .any(|c| c.token == token && !c.value_usd.is_zero())
    }

    /// Whether the position owes debt in `token`.
    pub fn has_debt_in(&self, token: Token) -> bool {
        self.debt
            .iter()
            .any(|d| d.token == token && !d.value_usd.is_zero())
    }

    /// USD value of the collateral held in `token` (0 if none).
    pub fn collateral_value_in(&self, token: Token) -> Wad {
        self.collateral
            .iter()
            .filter(|c| c.token == token)
            .fold(Wad::ZERO, |acc, c| acc.saturating_add(c.value_usd))
    }

    /// USD value of the debt owed in `token` (0 if none).
    pub fn debt_value_in(&self, token: Token) -> Wad {
        self.debt
            .iter()
            .filter(|d| d.token == token)
            .fold(Wad::ZERO, |acc, d| acc.saturating_add(d.value_usd))
    }

    /// Value of collateral a liquidator may claim for repaying `repay_value`
    /// of debt (Eq. 1): claim = repay × (1 + LS), using the spread of the
    /// collateral market being seized.
    pub fn collateral_to_claim(repay_value: Wad, liquidation_spread: Wad) -> Wad {
        repay_value
            .checked_mul(Wad::ONE.saturating_add(liquidation_spread))
            .unwrap_or(Wad::MAX)
    }
}

/// The worked fixed-spread example of §3.2.2, reusable from tests, examples
/// and documentation: 3 ETH of collateral at 3,500 USD, LT = 0.8, a debt of
/// 8,400 USDC, followed by an ETH price decline to 3,300 USD.
pub fn paper_walkthrough_position(after_price_decline: bool) -> Position {
    let eth_price = if after_price_decline {
        3_300.0
    } else {
        3_500.0
    };
    let collateral_value = Wad::from_f64(3.0 * eth_price);
    Position::new(Address::from_label("paper-example-borrower"))
        .with_collateral(CollateralHolding {
            token: Token::ETH,
            amount: Wad::from_int(3),
            value_usd: collateral_value,
            liquidation_threshold: Wad::from_f64(0.8),
            liquidation_spread: Wad::from_f64(0.10),
        })
        .with_debt(DebtHolding {
            token: Token::USDC,
            amount: Wad::from_int(8_400),
            value_usd: Wad::from_int(8_400),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_before_decline_is_healthy() {
        let pos = paper_walkthrough_position(false);
        assert_eq!(pos.total_collateral_value(), Wad::from_int(10_500));
        assert_eq!(pos.borrowing_capacity(), Wad::from_int(8_400));
        // HF = 8,400 / 8,400 = 1.0 — exactly at capacity, not yet liquidatable.
        assert_eq!(pos.health_factor().unwrap(), Wad::ONE);
        assert!(!pos.is_liquidatable());
    }

    #[test]
    fn paper_example_after_decline_is_liquidatable() {
        let pos = paper_walkthrough_position(true);
        assert_eq!(pos.total_collateral_value(), Wad::from_int(9_900));
        assert_eq!(pos.borrowing_capacity(), Wad::from_int(7_920));
        let hf = pos.health_factor().unwrap();
        // Paper: HF = 7,920 / 8,400 ≈ 0.94 < 1.
        assert!(hf < Wad::ONE);
        assert!(hf > Wad::from_f64(0.93) && hf < Wad::from_f64(0.95));
        assert!(pos.is_liquidatable());
        assert!(
            !pos.is_under_collateralized(),
            "still over-collateralized (CR > 1)"
        );
    }

    #[test]
    fn collateral_to_claim_matches_eq1() {
        // Repaying 4,200 USD at a 10% spread claims 4,620 USD of collateral.
        let claim = Position::collateral_to_claim(Wad::from_int(4_200), Wad::from_f64(0.10));
        assert_eq!(claim, Wad::from_int(4_620));
    }

    #[test]
    fn no_debt_means_no_health_factor() {
        let pos = Position::new(Address::ZERO).with_collateral(CollateralHolding {
            token: Token::ETH,
            amount: Wad::from_int(1),
            value_usd: Wad::from_int(3_000),
            liquidation_threshold: Wad::from_f64(0.8),
            liquidation_spread: Wad::from_f64(0.05),
        });
        assert!(pos.health_factor().is_none());
        assert!(pos.collateralization_ratio().is_none());
        assert!(!pos.is_liquidatable());
    }

    #[test]
    fn multi_collateral_position_aggregates() {
        let pos = Position::new(Address::ZERO)
            .with_collateral(CollateralHolding {
                token: Token::ETH,
                amount: Wad::from_int(1),
                value_usd: Wad::from_int(3_000),
                liquidation_threshold: Wad::from_f64(0.8),
                liquidation_spread: Wad::from_f64(0.05),
            })
            .with_collateral(CollateralHolding {
                token: Token::WBTC,
                amount: Wad::from_int(1),
                value_usd: Wad::from_int(45_000),
                liquidation_threshold: Wad::from_f64(0.7),
                liquidation_spread: Wad::from_f64(0.08),
            })
            .with_debt(DebtHolding {
                token: Token::DAI,
                amount: Wad::from_int(20_000),
                value_usd: Wad::from_int(20_000),
            })
            .with_debt(DebtHolding {
                token: Token::USDC,
                amount: Wad::from_int(5_000),
                value_usd: Wad::from_int(5_000),
            });
        assert_eq!(pos.total_collateral_value(), Wad::from_int(48_000));
        assert_eq!(pos.total_debt_value(), Wad::from_int(25_000));
        // BC = 3000*0.8 + 45000*0.7 = 2400 + 31500 = 33900.
        assert_eq!(pos.borrowing_capacity(), Wad::from_int(33_900));
        assert!(!pos.is_liquidatable());
        assert!(pos.has_collateral_in(Token::WBTC));
        assert!(!pos.has_collateral_in(Token::DAI));
        assert_eq!(pos.debt_value_in(Token::DAI), Wad::from_int(20_000));
        assert_eq!(pos.collateral_value_in(Token::ETH), Wad::from_int(3_000));
    }

    #[test]
    fn under_collateralized_detection() {
        let pos = Position::simple(
            Address::ZERO,
            Token::ETH,
            Wad::from_int(900),
            Token::DAI,
            Wad::from_int(1_000),
            Wad::from_f64(0.8),
            Wad::from_f64(0.05),
        );
        assert!(pos.is_under_collateralized());
        assert!(pos.is_liquidatable());
    }
}
