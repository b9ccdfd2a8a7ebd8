//! The token universe of the paper's evaluation.
//!
//! Figure 8 of the paper enumerates the collateral assets listed on each
//! platform (Aave V2, Compound, dYdX, MakerDAO) at the snapshot block. We
//! model every symbol that appears there, plus the stablecoins studied in
//! §4.5.2, so the sensitivity and stablecoin experiments can use the same
//! asset population.

use core::fmt;
use core::str::FromStr;

use crate::error::TypeError;

/// A token recognised by the suite.
///
/// `Token` is a closed enum rather than an interned string so protocol code
/// can match on it exhaustively (e.g. the dYdX markets only list ETH, USDC,
/// DAI) and so it stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(non_camel_case_types)]
pub enum Token {
    /// Native ether (modelled identically to WETH throughout).
    ETH,
    /// Wrapped ether.
    WETH,
    /// Wrapped bitcoin.
    WBTC,
    /// MakerDAO's stablecoin.
    DAI,
    /// Circle's USD stablecoin.
    USDC,
    /// Tether.
    USDT,
    /// TrueUSD.
    TUSD,
    /// Paxos standard.
    PAX,
    /// Gemini dollar.
    GUSD,
    /// Basic attention token.
    BAT,
    /// 0x protocol token.
    ZRX,
    /// Uniswap governance token.
    UNI,
    /// Chainlink token.
    LINK,
    /// Maker governance token.
    MKR,
    /// Compound governance token.
    COMP,
    /// Aave governance token.
    AAVE,
    /// yearn.finance token.
    YFI,
    /// Synthetix network token.
    SNX,
    /// Republic protocol token.
    REN,
    /// Kyber network crystal.
    KNC,
    /// Decentraland token.
    MANA,
    /// Enjin coin.
    ENJ,
    /// Curve DAO token.
    CRV,
    /// Balancer token.
    BAL,
    /// Staked SushiSwap token.
    xSUSHI,
    /// Augur reputation token.
    REP,
    /// Loopring token.
    LRC,
    /// Wrapped/renVM bitcoin.
    renBTC,
    /// Uniswap V2 DAI/ETH LP share (MakerDAO collateral type).
    UNIV2DAIETH,
    /// Uniswap V2 WBTC/ETH LP share (MakerDAO collateral type).
    UNIV2WBTCETH,
    /// Uniswap V2 USDC/ETH LP share (MakerDAO collateral type).
    UNIV2USDCETH,
}

impl Token {
    /// All tokens known to the suite, in a stable order.
    pub const ALL: [Token; 31] = [
        Token::ETH,
        Token::WETH,
        Token::WBTC,
        Token::DAI,
        Token::USDC,
        Token::USDT,
        Token::TUSD,
        Token::PAX,
        Token::GUSD,
        Token::BAT,
        Token::ZRX,
        Token::UNI,
        Token::LINK,
        Token::MKR,
        Token::COMP,
        Token::AAVE,
        Token::YFI,
        Token::SNX,
        Token::REN,
        Token::KNC,
        Token::MANA,
        Token::ENJ,
        Token::CRV,
        Token::BAL,
        Token::xSUSHI,
        Token::REP,
        Token::LRC,
        Token::renBTC,
        Token::UNIV2DAIETH,
        Token::UNIV2WBTCETH,
        Token::UNIV2USDCETH,
    ];

    /// The ticker symbol as used in the paper's figures.
    pub fn symbol(self) -> &'static str {
        match self {
            Token::ETH => "ETH",
            Token::WETH => "WETH",
            Token::WBTC => "WBTC",
            Token::DAI => "DAI",
            Token::USDC => "USDC",
            Token::USDT => "USDT",
            Token::TUSD => "TUSD",
            Token::PAX => "PAX",
            Token::GUSD => "GUSD",
            Token::BAT => "BAT",
            Token::ZRX => "ZRX",
            Token::UNI => "UNI",
            Token::LINK => "LINK",
            Token::MKR => "MKR",
            Token::COMP => "COMP",
            Token::AAVE => "AAVE",
            Token::YFI => "YFI",
            Token::SNX => "SNX",
            Token::REN => "REN",
            Token::KNC => "KNC",
            Token::MANA => "MANA",
            Token::ENJ => "ENJ",
            Token::CRV => "CRV",
            Token::BAL => "BAL",
            Token::xSUSHI => "xSUSHI",
            Token::REP => "REP",
            Token::LRC => "LRC",
            Token::renBTC => "renBTC",
            Token::UNIV2DAIETH => "UNIV2DAIETH",
            Token::UNIV2WBTCETH => "UNIV2WBTCETH",
            Token::UNIV2USDCETH => "UNIV2USDCETH",
        }
    }

    /// Whether the token is one of the USD-pegged stablecoins studied in
    /// §4.5.2 of the paper.
    pub fn is_stablecoin(self) -> bool {
        matches!(
            self,
            Token::DAI | Token::USDC | Token::USDT | Token::TUSD | Token::PAX | Token::GUSD
        )
    }

    /// Whether the token is an ETH flavour (ETH/WETH are treated as the same
    /// market for the DAI/ETH comparison in §5.1).
    pub fn is_eth(self) -> bool {
        matches!(self, Token::ETH | Token::WETH)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

impl FromStr for Token {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Token::ALL
            .iter()
            .copied()
            .find(|t| t.symbol().eq_ignore_ascii_case(s))
            .ok_or(TypeError::UnknownToken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_symbols_roundtrip() {
        for token in Token::ALL {
            assert_eq!(Token::from_str(token.symbol()).unwrap(), token);
        }
    }

    #[test]
    fn unknown_symbol_rejected() {
        assert_eq!(Token::from_str("DOGE"), Err(TypeError::UnknownToken));
    }

    #[test]
    fn stablecoin_classification() {
        assert!(Token::DAI.is_stablecoin());
        assert!(Token::USDC.is_stablecoin());
        assert!(!Token::ETH.is_stablecoin());
        assert!(!Token::WBTC.is_stablecoin());
    }

    #[test]
    fn eth_flavours() {
        assert!(Token::ETH.is_eth());
        assert!(Token::WETH.is_eth());
        assert!(!Token::WBTC.is_eth());
    }
}
