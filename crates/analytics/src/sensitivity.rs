//! Liquidation sensitivity per platform (§4.5.1, Figure 8).
//!
//! Figure 8 shows, for each platform and each collateral asset, the
//! liquidatable collateral volume as a function of a 0–100 % price decline of
//! that asset (Algorithm 1). This module sweeps every collateral asset that
//! appears in a platform's snapshot position book.

use std::collections::BTreeMap;

use defi_core::position::Position;
use defi_core::sensitivity::SensitivityCurve;
use defi_types::{Platform, Token, Wad};

/// Figure 8 for one platform: one curve per collateral asset.
#[derive(Debug, Clone)]
pub struct PlatformSensitivity {
    /// Platform.
    pub platform: Platform,
    /// One sensitivity curve per collateral asset present in the book.
    pub curves: Vec<SensitivityCurve>,
}

impl PlatformSensitivity {
    /// The curve for a specific token.
    pub fn curve(&self, token: Token) -> Option<&SensitivityCurve> {
        self.curves.iter().find(|c| c.token == token)
    }

    /// The token whose decline liquidates the most collateral (at any decline
    /// level) — ETH for every platform in the paper.
    pub fn most_sensitive_token(&self) -> Option<Token> {
        self.curves.iter().max_by_key(|c| c.max()).map(|c| c.token)
    }

    /// Liquidatable collateral for a given token at a given decline.
    pub fn liquidatable_at(&self, token: Token, decline: f64) -> Wad {
        self.curve(token)
            .map(|c| c.at(decline))
            .unwrap_or(Wad::ZERO)
    }
}

/// Compute Figure 8 for every platform's snapshot position book.
pub fn figure8(
    positions_by_platform: &BTreeMap<Platform, Vec<Position>>,
    steps: usize,
) -> Vec<PlatformSensitivity> {
    positions_by_platform
        .iter()
        .map(|(platform, positions)| {
            // The asset universe is whatever appears as collateral in the book.
            let mut tokens: Vec<Token> = positions
                .iter()
                .flat_map(|p| p.collateral.iter().map(|c| c.token))
                .collect();
            tokens.sort();
            tokens.dedup();
            let curves = tokens
                .into_iter()
                .map(|token| SensitivityCurve::compute(positions, token, steps))
                .collect();
            PlatformSensitivity {
                platform: *platform,
                curves,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_core::position::{CollateralHolding, DebtHolding};
    use defi_types::Address;

    fn eth_book(count: u64) -> Vec<Position> {
        (1..=count)
            .map(|i| {
                Position::new(Address::from_seed(i))
                    .with_collateral(CollateralHolding {
                        token: Token::ETH,
                        amount: Wad::from_int(10),
                        value_usd: Wad::from_int(20_000),
                        liquidation_threshold: Wad::from_f64(0.8),
                        liquidation_spread: Wad::from_f64(0.05),
                    })
                    .with_debt(DebtHolding {
                        token: Token::DAI,
                        amount: Wad::from_int(10_000 + i * 200),
                        value_usd: Wad::from_int(10_000 + i * 200),
                    })
            })
            .collect()
    }

    #[test]
    fn figure8_produces_one_curve_per_collateral_asset() {
        let mut books = BTreeMap::new();
        books.insert(Platform::Compound, eth_book(10));
        let sensitivity = figure8(&books, 20);
        assert_eq!(sensitivity.len(), 1);
        let compound = &sensitivity[0];
        assert_eq!(compound.curves.len(), 1);
        assert_eq!(compound.most_sensitive_token(), Some(Token::ETH));
        // A 43% ETH decline liquidates a large share of the ETH-collateral book.
        let hit = compound.liquidatable_at(Token::ETH, 0.43);
        assert!(
            hit > Wad::from_int(50_000),
            "expected a large liquidatable volume, got {hit}"
        );
        // An asset not in the book has no curve.
        assert!(compound.curve(Token::WBTC).is_none());
    }

    #[test]
    fn diversified_books_are_less_sensitive() {
        // Same aggregate collateral/debt, but half the collateral is a
        // stablecoin: the liquidatable volume at a 40% ETH decline must be
        // smaller than in the concentrated book (the paper's Aave V2 vs
        // Compound observation).
        let concentrated = eth_book(10);
        let diversified: Vec<Position> = (1..=10u64)
            .map(|i| {
                Position::new(Address::from_seed(100 + i))
                    .with_collateral(CollateralHolding {
                        token: Token::ETH,
                        amount: Wad::from_int(5),
                        value_usd: Wad::from_int(10_000),
                        liquidation_threshold: Wad::from_f64(0.8),
                        liquidation_spread: Wad::from_f64(0.05),
                    })
                    .with_collateral(CollateralHolding {
                        token: Token::USDC,
                        amount: Wad::from_int(10_000),
                        value_usd: Wad::from_int(10_000),
                        liquidation_threshold: Wad::from_f64(0.8),
                        liquidation_spread: Wad::from_f64(0.05),
                    })
                    .with_debt(DebtHolding {
                        token: Token::DAI,
                        amount: Wad::from_int(10_000 + i * 200),
                        value_usd: Wad::from_int(10_000 + i * 200),
                    })
            })
            .collect();
        let mut books = BTreeMap::new();
        books.insert(Platform::Compound, concentrated);
        books.insert(Platform::AaveV2, diversified);
        let sensitivity = figure8(&books, 25);
        let compound = sensitivity
            .iter()
            .find(|s| s.platform == Platform::Compound)
            .unwrap();
        let aave = sensitivity
            .iter()
            .find(|s| s.platform == Platform::AaveV2)
            .unwrap();
        let decline = 0.40;
        assert!(
            aave.liquidatable_at(Token::ETH, decline)
                < compound.liquidatable_at(Token::ETH, decline),
            "diversified book should be less sensitive"
        );
    }
}
