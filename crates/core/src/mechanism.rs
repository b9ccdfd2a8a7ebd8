//! Systematization of liquidation mechanisms (§3.2).
//!
//! The paper identifies two dominating designs:
//!
//! * the **atomic fixed-spread** liquidation (Aave, Compound, dYdX) — settled
//!   in a single transaction at a pre-determined discount, and
//! * the **non-atomic English auction** (MakerDAO's two-phase tend–dent
//!   auction) — initiated by anyone, open for bids until a bid-duration or
//!   auction-length timeout, then finalised.
//!
//! The lending layer states that split once, as `MechanismKind` on its
//! `LendingProtocol` trait. This module holds the auction's parameter set.

use defi_types::Wad;

/// Parameters of a MakerDAO-style tend–dent auction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuctionParams {
    /// Maximum auction duration from initiation, in blocks
    /// ("auction length condition").
    pub auction_length_blocks: u64,
    /// Maximum time since the last bid before the auction can be finalised,
    /// in blocks ("bid duration condition").
    pub bid_duration_blocks: u64,
    /// Minimum relative increment between consecutive bids (e.g. 0.03 = 3 %).
    pub min_bid_increment: f64,
    /// Liquidation penalty charged to the borrower on top of the recovered
    /// debt (MakerDAO's 13 %).
    pub liquidation_penalty: Wad,
}

impl AuctionParams {
    /// The pre-March-2020 MakerDAO parameters (short 10-minute bid duration)
    /// that proved fragile under congestion.
    pub fn maker_pre_march_2020() -> Self {
        AuctionParams {
            auction_length_blocks: 4 * 240, // ~4 hours
            bid_duration_blocks: 40,        // ~10 minutes
            min_bid_increment: 0.03,
            liquidation_penalty: Wad::from_f64(0.13),
        }
    }

    /// The parameters adopted after the March 2020 incident (6-hour bid
    /// duration / 6-hour auction length), visible as the level shift in
    /// Figure 7.
    pub fn maker_post_march_2020() -> Self {
        AuctionParams {
            auction_length_blocks: 6 * 240, // ~6 hours
            bid_duration_blocks: 6 * 240,   // ~6 hours
            min_bid_increment: 0.03,
            liquidation_penalty: Wad::from_f64(0.13),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn march_2020_parameter_change_lengthens_bid_duration() {
        let before = AuctionParams::maker_pre_march_2020();
        let after = AuctionParams::maker_post_march_2020();
        assert!(after.bid_duration_blocks > before.bid_duration_blocks * 10);
    }
}
