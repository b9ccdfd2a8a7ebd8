//! A registry of pools with simple routing.
//!
//! Liquidator agents ask the [`Dex`] for a quote from the seized collateral
//! token into the debt token; if no direct pair exists the route goes through
//! ETH (the deepest pairs on mainnet are almost always X/ETH and ETH/stable).
//!
//! Pool reserves live on the [`Ledger`] (each pool's own account holds them),
//! so a swap executed inside a transaction scope is journaled with the
//! ledger checkpoint and reverts with the transaction — no caller has to
//! snapshot and restore the AMM around a revert.

use defi_chain::Ledger;
use defi_types::{Address, Token, Wad};

use crate::pool::{AmmError, ConstantProductPool, PoolConfig};

/// A quote for a (possibly two-hop) swap.
#[derive(Debug, Clone, Copy)]
pub struct SwapQuote {
    /// Input token.
    pub token_in: Token,
    /// Output token.
    pub token_out: Token,
    /// Input amount.
    pub amount_in: Wad,
    /// Expected output amount.
    pub amount_out: Wad,
    /// Whether the route goes through ETH.
    pub via_eth: bool,
    /// Estimated relative price impact of the whole route.
    pub price_impact: f64,
}

/// The decentralized exchange: a set of constant-product pools.
#[derive(Debug, Clone, Default)]
pub struct Dex {
    pools: Vec<ConstantProductPool>,
}

impl Dex {
    /// An empty exchange.
    pub fn new() -> Self {
        Dex::default()
    }

    /// Add a pool.
    pub fn add_pool(&mut self, pool: ConstantProductPool) {
        self.pools.push(pool);
    }

    /// Find the pool trading exactly this pair.
    pub fn pool_for(&self, a: Token, b: Token) -> Option<&ConstantProductPool> {
        self.pools
            .iter()
            .find(|p| p.supports(a) && p.supports(b) && a != b)
    }

    /// Seed a standard pool with reserves sized so its spot price matches the
    /// given USD prices and the given USD depth per side.
    pub fn seed_standard_pool(
        &mut self,
        ledger: &mut Ledger,
        token_a: Token,
        price_a_usd: f64,
        token_b: Token,
        price_b_usd: f64,
        depth_usd: f64,
    ) {
        let mut pool = ConstantProductPool::new(
            Address::from_label(&format!("dex-{}-{}", token_a.symbol(), token_b.symbol())),
            PoolConfig::standard(token_a, token_b),
        );
        let amount_a = Wad::from_f64(depth_usd / price_a_usd.max(1e-12));
        let amount_b = Wad::from_f64(depth_usd / price_b_usd.max(1e-12));
        pool.seed_liquidity(ledger, amount_a, amount_b);
        self.add_pool(pool);
    }

    /// Quote a swap, routing through ETH when no direct pair exists.
    pub fn quote(
        &self,
        ledger: &Ledger,
        token_in: Token,
        token_out: Token,
        amount_in: Wad,
    ) -> Result<SwapQuote, AmmError> {
        if token_in == token_out {
            return Ok(SwapQuote {
                token_in,
                token_out,
                amount_in,
                amount_out: amount_in,
                via_eth: false,
                price_impact: 0.0,
            });
        }
        if let Some(pool) = self.pool_for(token_in, token_out) {
            let amount_out = pool.quote_out(ledger, token_in, amount_in)?;
            let price_impact = pool.price_impact(ledger, token_in, amount_in)?;
            return Ok(SwapQuote {
                token_in,
                token_out,
                amount_in,
                amount_out,
                via_eth: false,
                price_impact,
            });
        }
        // Two-hop route through ETH.
        let first = self
            .pool_for(token_in, Token::ETH)
            .ok_or(AmmError::UnsupportedToken(token_in))?;
        let second = self
            .pool_for(Token::ETH, token_out)
            .ok_or(AmmError::UnsupportedToken(token_out))?;
        let eth_out = first.quote_out(ledger, token_in, amount_in)?;
        let amount_out = second.quote_out(ledger, Token::ETH, eth_out)?;
        let impact = first.price_impact(ledger, token_in, amount_in)?
            + second.price_impact(ledger, Token::ETH, eth_out)?;
        Ok(SwapQuote {
            token_in,
            token_out,
            amount_in,
            amount_out,
            via_eth: true,
            price_impact: impact.min(1.0),
        })
    }

    /// Execute a swap (routing through ETH when necessary); returns the
    /// output amount credited to `trader`. Reserve mutations are ledger
    /// transfers, so inside a transaction scope the whole route reverts
    /// atomically with the checkpoint.
    pub fn swap(
        &self,
        ledger: &mut Ledger,
        trader: Address,
        token_in: Token,
        token_out: Token,
        amount_in: Wad,
    ) -> Result<Wad, AmmError> {
        if token_in == token_out {
            return Ok(amount_in);
        }
        if let Some(pool) = self.pool_for(token_in, token_out) {
            return pool.swap(ledger, trader, token_in, amount_in);
        }
        // Two hops: in -> ETH -> out.
        let eth_out = self
            .pool_for(token_in, Token::ETH)
            .ok_or(AmmError::UnsupportedToken(token_in))?
            .swap(ledger, trader, token_in, amount_in)?;
        self.pool_for(Token::ETH, token_out)
            .ok_or(AmmError::UnsupportedToken(token_out))?
            .swap(ledger, trader, Token::ETH, eth_out)
    }

    /// Iterate over the pools.
    pub fn pools(&self) -> impl Iterator<Item = &ConstantProductPool> {
        self.pools.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Dex, Ledger) {
        let mut dex = Dex::new();
        let mut ledger = Ledger::new();
        dex.seed_standard_pool(
            &mut ledger,
            Token::ETH,
            3_000.0,
            Token::DAI,
            1.0,
            30_000_000.0,
        );
        dex.seed_standard_pool(
            &mut ledger,
            Token::WBTC,
            45_000.0,
            Token::ETH,
            3_000.0,
            20_000_000.0,
        );
        (dex, ledger)
    }

    #[test]
    fn direct_quote_uses_single_pool() {
        let (dex, ledger) = setup();
        let quote = dex
            .quote(&ledger, Token::ETH, Token::DAI, Wad::from_int(10))
            .unwrap();
        assert!(!quote.via_eth);
        // ~3,000 DAI per ETH minus fee/impact.
        assert!(quote.amount_out > Wad::from_int(29_000));
        assert!(quote.amount_out < Wad::from_int(30_000));
    }

    #[test]
    fn two_hop_quote_routes_via_eth() {
        let (dex, ledger) = setup();
        let quote = dex
            .quote(&ledger, Token::WBTC, Token::DAI, Wad::from_int(1))
            .unwrap();
        assert!(quote.via_eth);
        // 1 WBTC ≈ 45,000 DAI minus two fees and impact.
        assert!(quote.amount_out > Wad::from_int(43_000));
        assert!(quote.amount_out < Wad::from_int(45_000));
    }

    #[test]
    fn same_token_is_identity() {
        let (dex, ledger) = setup();
        let quote = dex
            .quote(&ledger, Token::DAI, Token::DAI, Wad::from_int(5))
            .unwrap();
        assert_eq!(quote.amount_out, Wad::from_int(5));
        assert_eq!(quote.price_impact, 0.0);
    }

    #[test]
    fn swap_executes_two_hops() {
        let (dex, mut ledger) = setup();
        let trader = Address::from_seed(42);
        ledger.mint(trader, Token::WBTC, Wad::from_int(2));
        let out = dex
            .swap(
                &mut ledger,
                trader,
                Token::WBTC,
                Token::DAI,
                Wad::from_int(2),
            )
            .unwrap();
        assert_eq!(ledger.balance(trader, Token::DAI), out);
        assert_eq!(ledger.balance(trader, Token::WBTC), Wad::ZERO);
        assert_eq!(
            ledger.balance(trader, Token::ETH),
            Wad::ZERO,
            "intermediate ETH fully consumed"
        );
        assert!(out > Wad::from_int(85_000));
    }

    #[test]
    fn missing_pair_is_an_error() {
        let (dex, ledger) = setup();
        assert!(dex
            .quote(&ledger, Token::MKR, Token::DAI, Wad::from_int(1))
            .is_err());
    }

    #[test]
    fn quote_matches_swap_output() {
        let (dex, mut ledger) = setup();
        let trader = Address::from_seed(7);
        ledger.mint(trader, Token::ETH, Wad::from_int(3));
        let quote = dex
            .quote(&ledger, Token::ETH, Token::DAI, Wad::from_int(3))
            .unwrap();
        let out = dex
            .swap(
                &mut ledger,
                trader,
                Token::ETH,
                Token::DAI,
                Wad::from_int(3),
            )
            .unwrap();
        assert_eq!(quote.amount_out, out);
    }

    /// A swap inside a reverting ledger checkpoint rolls the pool reserves
    /// back wherever it happens — here on a plain (non-flash-loan) path,
    /// the case the engine used to have no hand-rolled snapshot for.
    #[test]
    fn reverted_swap_rolls_back_pool_reserves() {
        let (dex, mut ledger) = setup();
        let trader = Address::from_seed(77);
        ledger.mint(trader, Token::ETH, Wad::from_int(25));
        let pool = dex.pool_for(Token::ETH, Token::DAI).unwrap();
        let reserves_before = pool.reserves(&ledger);
        let quote_before = dex
            .quote(&ledger, Token::ETH, Token::DAI, Wad::from_int(5))
            .unwrap();

        ledger.begin_checkpoint();
        let out = dex
            .swap(
                &mut ledger,
                trader,
                Token::ETH,
                Token::DAI,
                Wad::from_int(25),
            )
            .unwrap();
        assert!(!out.is_zero());
        assert_ne!(pool.reserves(&ledger), reserves_before);
        ledger.revert_checkpoint();

        // Reserves, trader balances and quotes are exactly the pre-swap state.
        assert_eq!(pool.reserves(&ledger), reserves_before);
        assert_eq!(ledger.balance(trader, Token::ETH), Wad::from_int(25));
        assert_eq!(ledger.balance(trader, Token::DAI), Wad::ZERO);
        let quote_after = dex
            .quote(&ledger, Token::ETH, Token::DAI, Wad::from_int(5))
            .unwrap();
        assert_eq!(quote_after.amount_out, quote_before.amount_out);
    }
}
