//! A registry of pools with simple routing.
//!
//! Flash-loan liquidators swap the seized collateral token into the debt
//! token through the [`Dex`], and the liquidation-spiral pass sells seized
//! collateral into it; if no direct pair exists the route goes through ETH
//! (the deepest pairs on mainnet are almost always X/ETH and ETH/stable).
//! A swap reports its route's price impact with its output, priced once on
//! the reserves each hop trades against.
//!
//! Pool reserves live on the [`Ledger`] (each pool's own account holds them),
//! so a swap executed inside a transaction scope is journaled with the
//! ledger checkpoint and reverts with the transaction — no caller has to
//! snapshot and restore the AMM around a revert.

use defi_chain::Ledger;
use defi_types::{Address, Token, Wad};

use crate::pool::{AmmError, ConstantProductPool, PoolConfig};

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

    /// Execute a swap (routing through ETH when necessary); returns the
    /// output amount credited to `trader` and the route's relative price
    /// impact: each hop's [`ConstantProductPool::price_impact`] on the
    /// reserves it trades against, summed over two hops and capped at 1.
    /// Reserve mutations are ledger transfers, so inside a transaction scope
    /// the whole route reverts atomically with the checkpoint.
    pub fn swap(
        &self,
        ledger: &mut Ledger,
        trader: Address,
        token_in: Token,
        token_out: Token,
        amount_in: Wad,
    ) -> Result<(Wad, f64), AmmError> {
        if token_in == token_out {
            return Ok((amount_in, 0.0));
        }
        if let Some(pool) = self.pool_for(token_in, token_out) {
            return pool.swap(ledger, trader, token_in, amount_in);
        }
        // Two hops: in -> ETH -> out. They never share a pool, so the second
        // hop's reserves are the ones it would have been priced on up front.
        let (eth_out, first_impact) = self
            .pool_for(token_in, Token::ETH)
            .ok_or(AmmError::UnsupportedToken(token_in))?
            .swap(ledger, trader, token_in, amount_in)?;
        let (amount_out, second_impact) = self
            .pool_for(Token::ETH, token_out)
            .ok_or(AmmError::UnsupportedToken(token_out))?
            .swap(ledger, trader, Token::ETH, eth_out)?;
        Ok((amount_out, (first_impact + second_impact).min(1.0)))
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

    fn trader() -> Address {
        Address::from_seed(7)
    }

    /// Mint `amount` of `token_in` to the trader and swap it into `token_out`.
    fn sell(
        dex: &Dex,
        ledger: &mut Ledger,
        token_in: Token,
        token_out: Token,
        amount: Wad,
    ) -> Result<(Wad, f64), AmmError> {
        ledger.mint(trader(), token_in, amount);
        dex.swap(ledger, trader(), token_in, token_out, amount)
    }

    #[test]
    fn direct_swap_uses_single_pool() {
        let (dex, mut ledger) = setup();
        let wbtc_pool = dex.pool_for(Token::WBTC, Token::ETH).unwrap();
        let wbtc_reserves = wbtc_pool.reserves(&ledger);
        let (out, _) = sell(&dex, &mut ledger, Token::ETH, Token::DAI, Wad::from_int(10)).unwrap();
        assert_eq!(wbtc_pool.reserves(&ledger), wbtc_reserves, "no ETH hop");
        // ~3,000 DAI per ETH minus fee/impact.
        assert!(out > Wad::from_int(29_000));
        assert!(out < Wad::from_int(30_000));
    }

    #[test]
    fn two_hop_swap_routes_via_eth() {
        let (dex, mut ledger) = setup();
        let wbtc_pool = dex.pool_for(Token::WBTC, Token::ETH).unwrap();
        let wbtc_reserves = wbtc_pool.reserves(&ledger);
        let (out, _) = sell(&dex, &mut ledger, Token::WBTC, Token::DAI, Wad::from_int(1)).unwrap();
        assert_ne!(wbtc_pool.reserves(&ledger), wbtc_reserves, "ETH hop");
        // 1 WBTC ≈ 45,000 DAI minus two fees and impact.
        assert!(out > Wad::from_int(43_000));
        assert!(out < Wad::from_int(45_000));
    }

    #[test]
    fn same_token_is_identity() {
        let (dex, mut ledger) = setup();
        let swapped = sell(&dex, &mut ledger, Token::DAI, Token::DAI, Wad::from_int(5));
        assert_eq!(swapped, Ok((Wad::from_int(5), 0.0)));
        assert_eq!(ledger.balance(trader(), Token::DAI), Wad::from_int(5));
    }

    #[test]
    fn swap_executes_two_hops() {
        let (dex, mut ledger) = setup();
        let trader = Address::from_seed(42);
        ledger.mint(trader, Token::WBTC, Wad::from_int(2));
        let (out, _) = dex
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
        let (dex, mut ledger) = setup();
        assert!(sell(&dex, &mut ledger, Token::MKR, Token::DAI, Wad::from_int(1)).is_err());
        assert_eq!(ledger.balance(trader(), Token::MKR), Wad::from_int(1));
    }

    #[test]
    fn quote_matches_swap_output() {
        let (dex, mut ledger) = setup();
        let pool = dex.pool_for(Token::ETH, Token::DAI).unwrap();
        let quote = pool
            .quote_out(&ledger, Token::ETH, Wad::from_int(3))
            .unwrap();
        let (out, _) = sell(&dex, &mut ledger, Token::ETH, Token::DAI, Wad::from_int(3)).unwrap();
        assert_eq!(quote, out);
    }

    /// The impact a swap reports is each hop's `price_impact` read on the
    /// pre-swap ledger — bit for bit, summed and capped over two hops.
    #[test]
    fn swap_impact_equals_pool_price_impact_before_the_swap() {
        let (dex, mut ledger) = setup();
        let eth_dai = dex.pool_for(Token::ETH, Token::DAI).unwrap();
        let wbtc_eth = dex.pool_for(Token::WBTC, Token::ETH).unwrap();

        let amount = Wad::from_int(400);
        let direct = eth_dai.price_impact(&ledger, Token::ETH, amount).unwrap();
        let (_, impact) = sell(&dex, &mut ledger, Token::ETH, Token::DAI, amount).unwrap();
        assert!(impact > 0.0);
        assert_eq!(impact.to_bits(), direct.to_bits());

        let amount = Wad::from_int(30);
        let eth_out = wbtc_eth.quote_out(&ledger, Token::WBTC, amount).unwrap();
        let two_hop = (wbtc_eth.price_impact(&ledger, Token::WBTC, amount).unwrap()
            + eth_dai.price_impact(&ledger, Token::ETH, eth_out).unwrap())
        .min(1.0);
        let (_, impact) = sell(&dex, &mut ledger, Token::WBTC, Token::DAI, amount).unwrap();
        assert!(impact > direct, "a larger two-hop sale moves more");
        assert_eq!(impact.to_bits(), two_hop.to_bits());
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
        let quote_before = pool
            .quote_out(&ledger, Token::ETH, Wad::from_int(5))
            .unwrap();

        ledger.begin_checkpoint();
        let (out, _) = dex
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
        let quote_after = pool
            .quote_out(&ledger, Token::ETH, Wad::from_int(5))
            .unwrap();
        assert_eq!(quote_after, quote_before);
    }
}
