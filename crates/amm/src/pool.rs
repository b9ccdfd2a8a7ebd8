//! The constant-product pool.

use defi_chain::Ledger;
use defi_types::{Address, Token, Wad};

/// Errors returned by pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmmError {
    /// The pool does not trade the requested token.
    UnsupportedToken(Token),
    /// The requested output exceeds the pool's reserves.
    InsufficientLiquidity,
    /// The swap input amount is zero.
    ZeroAmount,
    /// A ledger transfer failed (caller lacks balance).
    Ledger(String),
}

impl core::fmt::Display for AmmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AmmError::UnsupportedToken(t) => write!(f, "pool does not trade {t}"),
            AmmError::InsufficientLiquidity => write!(f, "insufficient pool liquidity"),
            AmmError::ZeroAmount => write!(f, "swap amount must be positive"),
            AmmError::Ledger(msg) => write!(f, "ledger error: {msg}"),
        }
    }
}

impl std::error::Error for AmmError {}

/// Pool construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// First token of the pair.
    pub token_a: Token,
    /// Second token of the pair.
    pub token_b: Token,
    /// Swap fee in basis points (Uniswap V2 charges 30 bps).
    pub fee_bps: u32,
}

impl PoolConfig {
    /// A pair with the standard 0.3 % fee.
    pub fn standard(token_a: Token, token_b: Token) -> Self {
        PoolConfig {
            token_a,
            token_b,
            fee_bps: 30,
        }
    }
}

/// A single x·y=k pool.
///
/// The pool carries no reserve state of its own: its reserves *are* its
/// ledger account's balances, so every reserve mutation is journaled with
/// the ledger checkpoint and a swap inside a reverting transaction rolls
/// back atomically — wherever it happens — instead of relying on callers to
/// snapshot and restore the AMM by hand.
#[derive(Debug, Clone)]
pub struct ConstantProductPool {
    /// The pool's own account on the ledger (holds the reserves).
    pub address: Address,
    config: PoolConfig,
}

impl ConstantProductPool {
    /// Create a pool; reserves start at zero until liquidity is seeded.
    pub fn new(address: Address, config: PoolConfig) -> Self {
        ConstantProductPool { address, config }
    }

    /// The pool configuration.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Current reserves as `(token_a reserve, token_b reserve)` — the pool
    /// account's ledger balances.
    pub fn reserves(&self, ledger: &Ledger) -> (Wad, Wad) {
        (
            ledger.balance(self.address, self.config.token_a),
            ledger.balance(self.address, self.config.token_b),
        )
    }

    /// Whether the pool trades `token`.
    pub fn supports(&self, token: Token) -> bool {
        token == self.config.token_a || token == self.config.token_b
    }

    /// The other side of the pair.
    pub fn counterpart(&self, token: Token) -> Result<Token, AmmError> {
        if token == self.config.token_a {
            Ok(self.config.token_b)
        } else if token == self.config.token_b {
            Ok(self.config.token_a)
        } else {
            Err(AmmError::UnsupportedToken(token))
        }
    }

    fn reserve_of(&self, ledger: &Ledger, token: Token) -> Result<Wad, AmmError> {
        if token == self.config.token_a || token == self.config.token_b {
            Ok(ledger.balance(self.address, token))
        } else {
            Err(AmmError::UnsupportedToken(token))
        }
    }

    /// Seed liquidity directly (scenario setup): mints the reserves into the
    /// pool's ledger account.
    pub fn seed_liquidity(&mut self, ledger: &mut Ledger, amount_a: Wad, amount_b: Wad) {
        ledger.mint(self.address, self.config.token_a, amount_a);
        ledger.mint(self.address, self.config.token_b, amount_b);
    }

    /// Marginal (spot) price of `token` denominated in its counterpart:
    /// reserves_out / reserves_in. Returns `None` when the pool is empty.
    pub fn spot_price(&self, ledger: &Ledger, token: Token) -> Option<Wad> {
        let input_reserve = self.reserve_of(ledger, token).ok()?;
        let output_reserve = self
            .reserve_of(ledger, self.counterpart(token).ok()?)
            .ok()?;
        if input_reserve.is_zero() {
            return None;
        }
        output_reserve.checked_div(input_reserve).ok()
    }

    /// Output amount for a given input under x·y=k with the pool fee,
    /// without executing the swap.
    pub fn quote_out(
        &self,
        ledger: &Ledger,
        token_in: Token,
        amount_in: Wad,
    ) -> Result<Wad, AmmError> {
        if amount_in.is_zero() {
            return Err(AmmError::ZeroAmount);
        }
        let token_out = self.counterpart(token_in)?;
        let reserve_in = self.reserve_of(ledger, token_in)?;
        let reserve_out = self.reserve_of(ledger, token_out)?;
        if reserve_in.is_zero() || reserve_out.is_zero() {
            return Err(AmmError::InsufficientLiquidity);
        }
        // amount_out = reserve_out * effective_in / (reserve_in + effective_in)
        let effective_in = amount_in.saturating_sub(amount_in.bps(self.config.fee_bps));
        let numerator = reserve_out
            .checked_mul(effective_in)
            .map_err(|_| AmmError::InsufficientLiquidity)?;
        let denominator = reserve_in.saturating_add(effective_in);
        numerator
            .checked_div(denominator)
            .map_err(|_| AmmError::InsufficientLiquidity)
    }

    /// Relative price impact of swapping `amount_in` (0.0 = none, 1.0 = 100 %).
    pub fn price_impact(
        &self,
        ledger: &Ledger,
        token_in: Token,
        amount_in: Wad,
    ) -> Result<f64, AmmError> {
        self.fill(ledger, token_in, amount_in)
            .map(|(_, price_impact)| price_impact)
    }

    /// Output amount and relative price impact of swapping `amount_in`, both
    /// priced once on the current reserves.
    fn fill(
        &self,
        ledger: &Ledger,
        token_in: Token,
        amount_in: Wad,
    ) -> Result<(Wad, f64), AmmError> {
        let out = self.quote_out(ledger, token_in, amount_in)?;
        let spot = self
            .spot_price(ledger, token_in)
            .ok_or(AmmError::InsufficientLiquidity)?
            .to_f64();
        if spot <= 0.0 {
            return Ok((out, 1.0));
        }
        let executed = out.to_f64() / amount_in.to_f64().max(1e-18);
        Ok((out, ((spot - executed) / spot).clamp(0.0, 1.0)))
    }

    /// Execute a swap: pulls `amount_in` from `trader` into the pool account
    /// and pushes the output back. The reserve mutation *is* the pair of
    /// ledger transfers, so it is journaled with any open checkpoint and
    /// reverts with the transaction. Returns the output amount and the
    /// swap's [`price_impact`](Self::price_impact) on the pre-swap reserves.
    pub fn swap(
        &self,
        ledger: &mut Ledger,
        trader: Address,
        token_in: Token,
        amount_in: Wad,
    ) -> Result<(Wad, f64), AmmError> {
        let token_out = self.counterpart(token_in)?;
        let (amount_out, price_impact) = self.fill(ledger, token_in, amount_in)?;
        if amount_out >= self.reserve_of(ledger, token_out)? {
            return Err(AmmError::InsufficientLiquidity);
        }
        ledger
            .transfer(trader, self.address, token_in, amount_in)
            .map_err(|e| AmmError::Ledger(e.to_string()))?;
        ledger
            .transfer(self.address, trader, token_out, amount_out)
            .map_err(|e| AmmError::Ledger(e.to_string()))?;
        Ok((amount_out, price_impact))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with_liquidity(ledger: &mut Ledger, eth: u64, dai: u64) -> ConstantProductPool {
        let mut pool = ConstantProductPool::new(
            Address::from_label("uniswap-eth-dai"),
            PoolConfig::standard(Token::ETH, Token::DAI),
        );
        pool.seed_liquidity(ledger, Wad::from_int(eth), Wad::from_int(dai));
        pool
    }

    #[test]
    fn spot_price_matches_reserve_ratio() {
        let mut ledger = Ledger::new();
        let pool = pool_with_liquidity(&mut ledger, 1_000, 3_000_000);
        // 3,000,000 DAI / 1,000 ETH = 3,000 DAI per ETH.
        assert_eq!(
            pool.spot_price(&ledger, Token::ETH).unwrap(),
            Wad::from_int(3_000)
        );
    }

    #[test]
    fn quote_less_than_spot_due_to_impact_and_fee() {
        let mut ledger = Ledger::new();
        let pool = pool_with_liquidity(&mut ledger, 1_000, 3_000_000);
        let out = pool
            .quote_out(&ledger, Token::ETH, Wad::from_int(10))
            .unwrap();
        // Spot value would be 30,000 DAI; the quote must be lower.
        assert!(out < Wad::from_int(30_000));
        assert!(
            out > Wad::from_int(29_000),
            "impact should be ~1% for a 1% trade, got {out}"
        );
    }

    #[test]
    fn swap_conserves_product_approximately() {
        let mut ledger = Ledger::new();
        let pool = pool_with_liquidity(&mut ledger, 1_000, 3_000_000);
        let trader = Address::from_seed(9);
        ledger.mint(trader, Token::ETH, Wad::from_int(50));
        let (ra0, rb0) = pool.reserves(&ledger);
        let k0 = ra0.to_f64() * rb0.to_f64();
        let (out, _) = pool
            .swap(&mut ledger, trader, Token::ETH, Wad::from_int(50))
            .unwrap();
        assert!(!out.is_zero());
        let (ra1, rb1) = pool.reserves(&ledger);
        let k1 = ra1.to_f64() * rb1.to_f64();
        // Fees make k grow slightly; it must never shrink.
        assert!(k1 >= k0 * 0.9999, "k shrank: {k0} -> {k1}");
        assert_eq!(ledger.balance(trader, Token::DAI), out);
        assert_eq!(ledger.balance(trader, Token::ETH), Wad::ZERO);
    }

    #[test]
    fn swap_without_balance_fails_cleanly() {
        let mut ledger = Ledger::new();
        let pool = pool_with_liquidity(&mut ledger, 100, 300_000);
        let trader = Address::from_seed(1);
        let err = pool
            .swap(&mut ledger, trader, Token::ETH, Wad::from_int(5))
            .unwrap_err();
        assert!(matches!(err, AmmError::Ledger(_)));
        // Reserves untouched.
        assert_eq!(
            pool.reserves(&ledger),
            (Wad::from_int(100), Wad::from_int(300_000))
        );
    }

    #[test]
    fn unsupported_token_rejected() {
        let mut ledger = Ledger::new();
        let pool = pool_with_liquidity(&mut ledger, 100, 300_000);
        assert!(matches!(
            pool.quote_out(&ledger, Token::WBTC, Wad::from_int(1)),
            Err(AmmError::UnsupportedToken(Token::WBTC))
        ));
    }

    #[test]
    fn zero_amount_rejected() {
        let mut ledger = Ledger::new();
        let pool = pool_with_liquidity(&mut ledger, 100, 300_000);
        assert!(matches!(
            pool.quote_out(&ledger, Token::ETH, Wad::ZERO),
            Err(AmmError::ZeroAmount)
        ));
    }

    #[test]
    fn price_impact_grows_with_trade_size() {
        let mut ledger = Ledger::new();
        let pool = pool_with_liquidity(&mut ledger, 1_000, 3_000_000);
        let small = pool
            .price_impact(&ledger, Token::ETH, Wad::from_int(1))
            .unwrap();
        let large = pool
            .price_impact(&ledger, Token::ETH, Wad::from_int(200))
            .unwrap();
        assert!(large > small);
        assert!(
            large > 0.15,
            "a 20% of-reserve trade should have >15% impact, got {large}"
        );
    }
}
