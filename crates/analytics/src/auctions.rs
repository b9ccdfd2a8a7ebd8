//! MakerDAO auction statistics (§4.3.3, Figure 7).
//!
//! The paper reports: the split between auctions terminating in the tend vs.
//! the dent phase, the average number of bidders and bids per auction, the
//! auction duration distribution against the configured auction length / bid
//! duration (Figure 7), the delay of the first bid, and the interval between
//! bids.

use std::collections::{BTreeMap, BTreeSet};

use defi_chain::{AuctionPhase, Blockchain, ChainEvent};
use defi_types::{Address, BlockNumber, TimeMap};

use crate::records::{LiquidationKind, LiquidationRecord};

/// Mean and standard deviation of a sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Number of samples.
    pub count: usize,
}

impl MeanStd {
    /// Compute from a slice of samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return MeanStd::default();
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let variance =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        MeanStd {
            mean,
            std_dev: variance.sqrt(),
            count: samples.len(),
        }
    }
}

/// One point of Figure 7: an auction's duration in hours.
#[derive(Debug, Clone, Copy)]
pub struct AuctionDurationPoint {
    /// Block at which the auction was finalised.
    pub block: BlockNumber,
    /// Duration from initiation to finalisation, in hours.
    pub duration_hours: f64,
}

/// The §4.3.3 statistics bundle.
#[derive(Debug, Clone)]
pub struct AuctionStats {
    /// Number of auctions terminating in the tend phase.
    pub terminated_in_tend: u32,
    /// Number of auctions terminating in the dent phase.
    pub terminated_in_dent: u32,
    /// Average number of distinct bidders per auction.
    pub average_bidders: f64,
    /// Bids per auction (mean ± std).
    pub bids_per_auction: MeanStd,
    /// Tend bids per auction (mean ± std).
    pub tend_bids_per_auction: MeanStd,
    /// Dent bids per auction (mean ± std).
    pub dent_bids_per_auction: MeanStd,
    /// Auction duration in hours (mean ± std).
    pub duration_hours: MeanStd,
    /// Delay of the first bid after initiation, in minutes (mean ± std).
    pub first_bid_delay_minutes: MeanStd,
    /// Interval between consecutive bids, in minutes (mean ± std).
    pub bid_interval_minutes: MeanStd,
    /// Number of auctions with more than one bid.
    pub auctions_with_multiple_bids: u32,
    /// The Figure 7 duration series.
    pub durations: Vec<AuctionDurationPoint>,
}

/// Compute the auction statistics from the liquidation ledger (finalised
/// auctions) and the raw `AuctionStarted`/`AuctionBid` events in the chain
/// log.
pub fn auction_stats(
    chain: &Blockchain,
    records: &[LiquidationRecord],
    time_map: &TimeMap,
) -> AuctionStats {
    let mut terminated_in_tend = 0;
    let mut terminated_in_dent = 0;
    let mut bids_per_auction = Vec::new();
    let mut tend_bids = Vec::new();
    let mut dent_bids = Vec::new();
    let mut durations = Vec::new();
    for record in records {
        match record.kind {
            LiquidationKind::Auction(AuctionPhase::Tend) => terminated_in_tend += 1,
            LiquidationKind::Auction(AuctionPhase::Dent) => terminated_in_dent += 1,
            LiquidationKind::FixedSpread => continue,
        }
        bids_per_auction.push((record.tend_bids + record.dent_bids) as f64);
        tend_bids.push(record.tend_bids as f64);
        dent_bids.push(record.dent_bids as f64);
        durations.push(AuctionDurationPoint {
            block: record.block,
            duration_hours: time_map.hours_between(
                record.auction_started_at.unwrap_or(record.block),
                record.block,
            ),
        });
    }

    let mut start_block: BTreeMap<u64, BlockNumber> = BTreeMap::new();
    let mut bids_by_auction: BTreeMap<u64, Vec<(BlockNumber, Address)>> = BTreeMap::new();
    for logged in chain.events().iter() {
        match &logged.event {
            ChainEvent::AuctionStarted { auction_id, .. } => {
                start_block.insert(*auction_id, logged.block);
            }
            ChainEvent::AuctionBid {
                auction_id, bidder, ..
            } => {
                bids_by_auction
                    .entry(*auction_id)
                    .or_default()
                    .push((logged.block, *bidder));
            }
            _ => {}
        }
    }

    let mut first_bid_delays = Vec::new();
    let mut bid_intervals = Vec::new();
    let mut bidder_counts = Vec::new();
    let mut auctions_with_multiple_bids = 0;
    for (auction_id, bids) in &bids_by_auction {
        let mut blocks: Vec<BlockNumber> = bids.iter().map(|(b, _)| *b).collect();
        blocks.sort_unstable();
        if bids.len() > 1 {
            auctions_with_multiple_bids += 1;
        }
        let bidders: BTreeSet<_> = bids.iter().map(|(_, a)| *a).collect();
        bidder_counts.push(bidders.len() as f64);
        if let (Some(start), Some(first)) = (start_block.get(auction_id), blocks.first()) {
            first_bid_delays.push(time_map.hours_between(*start, *first) * 60.0);
        }
        for pair in blocks.windows(2) {
            bid_intervals.push(time_map.hours_between(pair[0], pair[1]) * 60.0);
        }
    }

    let durations_hours: Vec<f64> = durations.iter().map(|d| d.duration_hours).collect();
    AuctionStats {
        terminated_in_tend,
        terminated_in_dent,
        average_bidders: if bidder_counts.is_empty() {
            0.0
        } else {
            bidder_counts.iter().sum::<f64>() / bidder_counts.len() as f64
        },
        bids_per_auction: MeanStd::from_samples(&bids_per_auction),
        tend_bids_per_auction: MeanStd::from_samples(&tend_bids),
        dent_bids_per_auction: MeanStd::from_samples(&dent_bids),
        duration_hours: MeanStd::from_samples(&durations_hours),
        first_bid_delay_minutes: MeanStd::from_samples(&first_bid_delays),
        bid_interval_minutes: MeanStd::from_samples(&bid_intervals),
        auctions_with_multiple_bids,
        durations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_types::{Address, MonthTag, Platform, Token, Wad};

    fn auction_record(
        block: BlockNumber,
        started_at: BlockNumber,
        phase: AuctionPhase,
        tend: u32,
        dent: u32,
    ) -> LiquidationRecord {
        LiquidationRecord {
            platform: Platform::MakerDao,
            kind: LiquidationKind::Auction(phase),
            liquidator: Address::from_seed(1),
            borrower: Address::from_seed(2),
            block,
            month: MonthTag::new(2020, 3),
            debt_token: Token::DAI,
            collateral_token: Token::ETH,
            debt_repaid_usd: Wad::from_int(1_000),
            collateral_received_usd: Wad::from_int(1_050),
            gas_price: 50,
            gas_used: 180_000,
            fee_usd: Wad::from_int(5),
            used_flash_loan: false,
            auction_started_at: Some(started_at),
            auction_last_bid_at: Some(block - 10),
            tend_bids: tend,
            dent_bids: dent,
        }
    }

    #[test]
    fn mean_std_basics() {
        let stats = MeanStd::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((stats.mean - 5.0).abs() < 1e-9);
        assert!((stats.std_dev - 2.0).abs() < 1e-9);
        assert_eq!(MeanStd::from_samples(&[]).count, 0);
    }

    #[test]
    fn phase_split_and_durations() {
        let chain = Blockchain::default();
        let time_map = *chain.time_map();
        let records = vec![
            auction_record(7_501_440, 7_500_000, AuctionPhase::Tend, 2, 0),
            auction_record(7_502_000, 7_500_560, AuctionPhase::Dent, 1, 2),
        ];
        let stats = auction_stats(&chain, &records, &time_map);
        assert_eq!(stats.terminated_in_tend, 1);
        assert_eq!(stats.terminated_in_dent, 1);
        assert_eq!(stats.bids_per_auction.count, 2);
        assert!((stats.bids_per_auction.mean - 2.5).abs() < 1e-9);
        // 1,440 blocks ≈ 5.4 hours at the calibrated block time.
        assert!(stats.duration_hours.mean > 4.0 && stats.duration_hours.mean < 7.0);
        assert_eq!(stats.durations.len(), 2);
    }

    #[test]
    fn fixed_spread_records_are_ignored() {
        let chain = Blockchain::default();
        let time_map = *chain.time_map();
        let mut fixed = auction_record(7_501_000, 7_500_000, AuctionPhase::Tend, 0, 0);
        fixed.kind = LiquidationKind::FixedSpread;
        fixed.platform = Platform::Compound;
        let stats = auction_stats(&chain, &[fixed], &time_map);
        assert_eq!(stats.terminated_in_tend + stats.terminated_in_dent, 0);
        assert_eq!(stats.durations.len(), 0);
    }
}
