//! The on-chain price oracle.
//!
//! All protocols in the suite read prices from a [`PriceOracle`]. The oracle
//! keeps the *current* price per token plus the full update history, so the
//! analytics layer can ask "what was the ETH price at block b?" — the same
//! archive query the paper performs to normalise values to USD "according to
//! the prices given by the platforms' on-chain price oracles at the block
//! when the liquidation is settled" (§4.2).
//!
//! Updates follow the Chainlink push model: a new price is only written
//! on-chain when it deviates from the last written price by more than a
//! configurable threshold or when a heartbeat interval elapses. This is what
//! creates *overdue liquidations* when prices gap faster than the oracle
//! updates (§4.4.2).

use defi_types::{BlockNumber, FxHashMap, Price, Token, Wad};

/// One historical oracle write.
#[derive(Debug, Clone, Copy)]
pub struct PricePoint {
    /// Block at which the price became visible on-chain.
    pub block: BlockNumber,
    /// The price (USD per token).
    pub price: Price,
}

/// Oracle configuration.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Minimum relative deviation (e.g. 0.005 = 0.5 %) from the last written
    /// price required to push an update outside the heartbeat.
    pub deviation_threshold: f64,
    /// Maximum number of blocks between two writes regardless of deviation.
    pub heartbeat_blocks: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            deviation_threshold: 0.005,
            heartbeat_blocks: 1_440, // ≈ 6 hours
        }
    }
}

impl OracleConfig {
    /// An oracle that writes every observation (used in unit tests and in
    /// the fine-grained post-liquidation price-movement study, Appendix A).
    pub fn every_update() -> Self {
        OracleConfig {
            deviation_threshold: 0.0,
            heartbeat_blocks: 1,
        }
    }
}

/// The price oracle: current prices + full write history per token, plus a
/// monotone *write epoch* so downstream caches (the incremental
/// `PositionBook`s in `defi-lending`) can ask "which tokens changed since I
/// last synced?" instead of re-reading every price.
#[derive(Debug, Clone, Default)]
pub struct PriceOracle {
    config: OracleConfig,
    current: FxHashMap<Token, Price>,
    history: FxHashMap<Token, Vec<PricePoint>>,
    /// Bumped by one on every on-chain write (any token).
    epoch: u64,
    /// The epoch of each token's most recent write.
    token_epochs: FxHashMap<Token, u64>,
}

impl PriceOracle {
    /// Create an oracle with the given update policy.
    pub fn new(config: OracleConfig) -> Self {
        PriceOracle {
            config,
            current: FxHashMap::default(),
            history: FxHashMap::default(),
            epoch: 0,
            token_epochs: FxHashMap::default(),
        }
    }

    /// The oracle's update policy.
    pub fn config(&self) -> OracleConfig {
        self.config
    }

    /// The current write epoch: increases by one on every on-chain price
    /// write, for any token. A consumer that remembers the epoch it last
    /// synced at can detect staleness with one integer comparison and recover
    /// the changed tokens via
    /// [`collect_changed_since`](PriceOracle::collect_changed_since).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch of a token's most recent write (0 if never written).
    pub fn token_epoch(&self, token: Token) -> u64 {
        self.token_epochs.get(&token).copied().unwrap_or(0)
    }

    /// Append every token written to strictly after `epoch` onto `out`
    /// (unordered; callers feed the result into order-independent dirty sets).
    pub fn collect_changed_since(&self, epoch: u64, out: &mut Vec<Token>) {
        for (token, written_at) in &self.token_epochs {
            if *written_at > epoch {
                out.push(*token);
            }
        }
    }

    /// Unconditionally write a price (genesis seeding, scripted oracle
    /// irregularities such as the November 2020 Compound DAI incident).
    pub fn set_price(&mut self, block: BlockNumber, token: Token, price: Price) {
        self.epoch += 1;
        self.token_epochs.insert(token, self.epoch);
        self.current.insert(token, price);
        self.history
            .entry(token)
            .or_default()
            .push(PricePoint { block, price });
    }

    /// Offer an observation to the oracle; it is written on-chain only if the
    /// deviation/heartbeat policy says so. Returns `true` when a write
    /// happened.
    pub fn observe(&mut self, block: BlockNumber, token: Token, price: Price) -> bool {
        let should_write = match self.history.get(&token).and_then(|h| h.last()) {
            None => true,
            Some(last) => {
                let elapsed = block.saturating_sub(last.block);
                if elapsed >= self.config.heartbeat_blocks {
                    true
                } else {
                    let old = last.price.to_f64();
                    let new = price.to_f64();
                    if old <= 0.0 {
                        true
                    } else {
                        ((new - old) / old).abs() >= self.config.deviation_threshold
                    }
                }
            }
        };
        if should_write {
            self.set_price(block, token, price);
        }
        should_write
    }

    /// Current on-chain price of a token, if any has ever been written.
    pub fn price(&self, token: Token) -> Option<Price> {
        self.current.get(&token).copied()
    }

    /// Current on-chain price, defaulting to zero when unknown (convenient
    /// for valuation sums where unknown tokens contribute nothing).
    pub fn price_or_zero(&self, token: Token) -> Price {
        self.price(token).unwrap_or(Wad::ZERO)
    }

    /// USD value of `amount` of `token` at the current price.
    pub fn value_of(&self, token: Token, amount: Wad) -> Wad {
        self.price_or_zero(token)
            .checked_mul(amount)
            .unwrap_or(Wad::MAX)
    }

    /// The on-chain price of a token as of `block` (the most recent write at
    /// or before that block).
    pub fn price_at(&self, block: BlockNumber, token: Token) -> Option<Price> {
        let history = self.history.get(&token)?;
        // Binary search for the last write with write.block <= block.
        let idx = history.partition_point(|p| p.block <= block);
        if idx == 0 {
            None
        } else {
            Some(history[idx - 1].price)
        }
    }

    /// Full write history of a token.
    pub fn history(&self, token: Token) -> &[PricePoint] {
        self.history
            .get(&token)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Tokens the oracle currently has a price for.
    pub fn tokens(&self) -> Vec<Token> {
        let mut tokens: Vec<Token> = self.current.keys().copied().collect();
        tokens.sort();
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usd(v: f64) -> Wad {
        Wad::from_f64(v)
    }

    #[test]
    fn set_and_get_price() {
        let mut oracle = PriceOracle::new(OracleConfig::default());
        oracle.set_price(10, Token::ETH, usd(3_500.0));
        assert_eq!(oracle.price(Token::ETH), Some(usd(3_500.0)));
        assert_eq!(oracle.price(Token::DAI), None);
        assert_eq!(oracle.price_or_zero(Token::DAI), Wad::ZERO);
    }

    #[test]
    fn value_of_uses_current_price() {
        let mut oracle = PriceOracle::new(OracleConfig::default());
        oracle.set_price(1, Token::ETH, usd(3_300.0));
        let value = oracle.value_of(Token::ETH, Wad::from_int(3));
        assert_eq!(value, usd(9_900.0));
    }

    #[test]
    fn observe_respects_deviation_threshold() {
        let mut oracle = PriceOracle::new(OracleConfig {
            deviation_threshold: 0.01,
            heartbeat_blocks: 10_000,
        });
        assert!(
            oracle.observe(1, Token::ETH, usd(100.0)),
            "first observation always writes"
        );
        assert!(
            !oracle.observe(2, Token::ETH, usd(100.5)),
            "0.5% move below threshold"
        );
        assert!(
            oracle.observe(3, Token::ETH, usd(102.0)),
            "2% move above threshold"
        );
        assert_eq!(oracle.history(Token::ETH).len(), 2);
    }

    #[test]
    fn observe_respects_heartbeat() {
        let mut oracle = PriceOracle::new(OracleConfig {
            deviation_threshold: 0.5,
            heartbeat_blocks: 100,
        });
        assert!(oracle.observe(1, Token::ETH, usd(100.0)));
        assert!(!oracle.observe(50, Token::ETH, usd(100.1)));
        assert!(
            oracle.observe(101, Token::ETH, usd(100.1)),
            "heartbeat forces a write"
        );
    }

    #[test]
    fn price_at_returns_historical_values() {
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(10, Token::ETH, usd(100.0));
        oracle.set_price(20, Token::ETH, usd(150.0));
        oracle.set_price(30, Token::ETH, usd(120.0));
        assert_eq!(oracle.price_at(5, Token::ETH), None);
        assert_eq!(oracle.price_at(10, Token::ETH), Some(usd(100.0)));
        assert_eq!(oracle.price_at(25, Token::ETH), Some(usd(150.0)));
        assert_eq!(oracle.price_at(1_000, Token::ETH), Some(usd(120.0)));
    }

    #[test]
    fn epoch_tracks_writes_per_token() {
        let mut oracle = PriceOracle::new(OracleConfig {
            deviation_threshold: 0.01,
            heartbeat_blocks: 10_000,
        });
        assert_eq!(oracle.epoch(), 0);
        oracle.set_price(1, Token::ETH, usd(100.0));
        oracle.set_price(1, Token::DAI, usd(1.0));
        assert_eq!(oracle.epoch(), 2);
        assert_eq!(oracle.token_epoch(Token::ETH), 1);
        assert_eq!(oracle.token_epoch(Token::DAI), 2);
        assert_eq!(oracle.token_epoch(Token::USDC), 0);

        // A rejected observation does not advance the epoch…
        assert!(!oracle.observe(2, Token::ETH, usd(100.2)));
        assert_eq!(oracle.epoch(), 2);
        // …a written one does, and only its token moves.
        assert!(oracle.observe(3, Token::ETH, usd(105.0)));
        assert_eq!(oracle.epoch(), 3);

        let mut changed = Vec::new();
        oracle.collect_changed_since(2, &mut changed);
        assert_eq!(changed, vec![Token::ETH]);
        changed.clear();
        oracle.collect_changed_since(0, &mut changed);
        changed.sort();
        assert_eq!(changed, vec![Token::ETH, Token::DAI]);
        changed.clear();
        oracle.collect_changed_since(3, &mut changed);
        assert!(changed.is_empty());
    }

    #[test]
    fn snapshot_and_tokens() {
        let mut oracle = PriceOracle::new(OracleConfig::default());
        oracle.set_price(1, Token::ETH, usd(100.0));
        oracle.set_price(1, Token::DAI, usd(1.0));
        assert_eq!(oracle.tokens(), vec![Token::ETH, Token::DAI]);
        assert_eq!(oracle.price(Token::ETH), Some(usd(100.0)));
        assert_eq!(oracle.price(Token::DAI), Some(usd(1.0)));
    }
}
