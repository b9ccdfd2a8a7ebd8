//! The lending platforms studied by the paper.
//!
//! The enum lives in `defi-types` (rather than `defi-lending`) because the
//! chain event vocabulary, the analytics pipeline and the benchmark harness
//! all need to tag records by platform without depending on the protocol
//! implementations.

use core::fmt;
use core::str::FromStr;

use crate::error::TypeError;

/// One of the lending platforms covered by the study (≥ 85 % of the Ethereum
/// lending market at the paper's time of writing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Platform {
    /// Aave version 1 (fixed-spread, close factor 50 %).
    AaveV1,
    /// Aave version 2, the December 2020 upgrade (same core mechanism).
    AaveV2,
    /// Compound (fixed-spread, close factor 50 %, spread 8 %).
    Compound,
    /// dYdX (fixed-spread, close factor 100 %, spread 5 %).
    DyDx,
    /// MakerDAO (tend–dent auction liquidation of CDPs).
    MakerDao,
}

impl Platform {
    /// All platforms, in the order the paper's tables list them.
    pub const ALL: [Platform; 5] = [
        Platform::AaveV1,
        Platform::AaveV2,
        Platform::Compound,
        Platform::DyDx,
        Platform::MakerDao,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Platform::AaveV1 => "Aave V1",
            Platform::AaveV2 => "Aave V2",
            Platform::Compound => "Compound",
            Platform::DyDx => "dYdX",
            Platform::MakerDao => "MakerDAO",
        }
    }

    /// Protocol inception block on mainnet, as reported in §4.2 footnote 5.
    pub fn inception_block(self) -> u64 {
        match self {
            Platform::AaveV1 => 9_241_022,
            // Aave V2 launched with the December 2020 upgrade.
            Platform::AaveV2 => 11_360_000,
            Platform::Compound => 7_710_733,
            Platform::DyDx => 7_575_711,
            Platform::MakerDao => 8_040_587,
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Platform {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalised = s.to_ascii_lowercase().replace([' ', '-', '_'], "");
        match normalised.as_str() {
            "aavev1" | "aave1" => Ok(Platform::AaveV1),
            "aavev2" | "aave2" | "aave" => Ok(Platform::AaveV2),
            "compound" => Ok(Platform::Compound),
            "dydx" => Ok(Platform::DyDx),
            "makerdao" | "maker" => Ok(Platform::MakerDao),
            _ => Err(TypeError::Parse("Platform")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(Platform::AaveV1.name(), "Aave V1");
        assert_eq!(Platform::DyDx.name(), "dYdX");
        assert_eq!(Platform::MakerDao.name(), "MakerDAO");
    }

    #[test]
    fn parse_aliases() {
        assert_eq!("maker".parse::<Platform>().unwrap(), Platform::MakerDao);
        assert_eq!("Aave V1".parse::<Platform>().unwrap(), Platform::AaveV1);
        assert_eq!("dYdX".parse::<Platform>().unwrap(), Platform::DyDx);
        assert!("hotdog".parse::<Platform>().is_err());
    }

    #[test]
    fn inception_blocks_ordered_as_in_paper() {
        // dYdX < Compound < MakerDAO < Aave V1 (footnote 5 of the paper).
        assert!(Platform::DyDx.inception_block() < Platform::Compound.inception_block());
        assert!(Platform::Compound.inception_block() < Platform::MakerDao.inception_block());
        assert!(Platform::MakerDao.inception_block() < Platform::AaveV1.inception_block());
    }
}
