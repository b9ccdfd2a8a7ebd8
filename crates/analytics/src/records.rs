//! The unified liquidation ledger.
//!
//! The paper's measurements all start from the set of liquidation events
//! filtered out of the archive node. [`LiquidationRecord`] is that row type:
//! one settled liquidation (fixed-spread call or finalised auction) with its
//! USD valuation at the settlement block, the liquidator identity, the gas it
//! paid and the resulting profit-and-loss.

use defi_chain::{AuctionPhase, Blockchain, ChainEvent, GweiPrice};
use defi_oracle::PriceOracle;
use defi_types::{Address, BlockNumber, MonthTag, Platform, SignedWad, TimeMap, Token, Wad};

/// Which mechanism settled the liquidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiquidationKind {
    /// Atomic fixed-spread `liquidationCall`.
    FixedSpread,
    /// MakerDAO tend–dent auction, terminated in the given phase.
    Auction(AuctionPhase),
}

/// One settled liquidation.
#[derive(Debug, Clone)]
pub struct LiquidationRecord {
    /// Platform.
    pub platform: Platform,
    /// Mechanism.
    pub kind: LiquidationKind,
    /// Liquidator (auction winner for auctions).
    pub liquidator: Address,
    /// Borrower whose position was liquidated.
    pub borrower: Address,
    /// Settlement block (finalisation block for auctions).
    pub block: BlockNumber,
    /// Calendar month of settlement.
    pub month: MonthTag,
    /// Token repaid.
    pub debt_token: Token,
    /// Collateral token received.
    pub collateral_token: Token,
    /// USD value of the repaid debt at settlement.
    pub debt_repaid_usd: Wad,
    /// USD value of the received collateral at settlement.
    pub collateral_received_usd: Wad,
    /// Gas price paid (gwei).
    pub gas_price: GweiPrice,
    /// Gas used.
    pub gas_used: u64,
    /// Transaction fee in USD (gas × gas price × ETH price at the block).
    pub fee_usd: Wad,
    /// Whether the liquidator funded the repayment with a flash loan.
    pub used_flash_loan: bool,
    /// For auctions: block at which the auction was initiated.
    pub auction_started_at: Option<BlockNumber>,
    /// For auctions: block of the last bid.
    pub auction_last_bid_at: Option<BlockNumber>,
    /// For auctions: number of tend bids.
    pub tend_bids: u32,
    /// For auctions: number of dent bids.
    pub dent_bids: u32,
}

impl LiquidationRecord {
    /// Gross profit (before the transaction fee): collateral received − debt
    /// repaid. The paper values the collateral at the settlement-block oracle
    /// price, i.e. assumes an immediate sale.
    pub fn gross_profit(&self) -> SignedWad {
        SignedWad::sub_wads(self.collateral_received_usd, self.debt_repaid_usd)
    }

    /// Whether this record belongs to the DAI-debt / ETH-collateral market
    /// studied in §5.1.
    pub fn is_dai_eth(&self) -> bool {
        self.debt_token == Token::DAI && self.collateral_token.is_eth()
    }

    /// Duration of the auction in blocks (0 for fixed-spread liquidations).
    pub fn auction_duration_blocks(&self) -> u64 {
        match self.auction_started_at {
            Some(start) => self.block.saturating_sub(start),
            None => 0,
        }
    }
}

/// Build a [`LiquidationRecord`] from one logged settlement event, valuing
/// the transaction fee at the given ETH price. Returns `None` for events
/// that are not settlements. Both the batch [`collect_records`] scan and the
/// streaming [`StudyCollector`](crate::StudyCollector) go through this one
/// constructor, so the two paths produce identical ledgers.
pub fn record_from_logged(
    logged: &defi_chain::LoggedEvent,
    eth_price: Wad,
    time_map: &TimeMap,
) -> Option<LiquidationRecord> {
    let fee_usd =
        Wad::from_f64(logged.gas_price as f64 * logged.gas_used as f64 * 1e-9 * eth_price.to_f64());
    match &logged.event {
        ChainEvent::Liquidation(event) => Some(LiquidationRecord {
            platform: event.platform,
            kind: LiquidationKind::FixedSpread,
            liquidator: event.liquidator,
            borrower: event.borrower,
            block: logged.block,
            month: time_map.month(logged.block),
            debt_token: event.debt_token,
            collateral_token: event.collateral_token,
            debt_repaid_usd: event.debt_repaid_usd,
            collateral_received_usd: event.collateral_seized_usd,
            gas_price: logged.gas_price,
            gas_used: logged.gas_used,
            fee_usd,
            used_flash_loan: event.used_flash_loan,
            auction_started_at: None,
            auction_last_bid_at: None,
            tend_bids: 0,
            dent_bids: 0,
        }),
        ChainEvent::AuctionFinalized {
            winner,
            debt_repaid_usd,
            collateral_token,
            collateral_received_usd,
            borrower,
            started_at,
            last_bid_at,
            tend_bids,
            dent_bids,
            final_phase,
            ..
        } => Some(LiquidationRecord {
            platform: Platform::MakerDao,
            kind: LiquidationKind::Auction(*final_phase),
            liquidator: *winner,
            borrower: *borrower,
            block: logged.block,
            month: time_map.month(logged.block),
            debt_token: Token::DAI,
            collateral_token: *collateral_token,
            debt_repaid_usd: *debt_repaid_usd,
            collateral_received_usd: *collateral_received_usd,
            gas_price: logged.gas_price,
            gas_used: logged.gas_used,
            fee_usd,
            used_flash_loan: false,
            auction_started_at: Some(*started_at),
            auction_last_bid_at: Some(*last_bid_at),
            tend_bids: *tend_bids,
            dent_bids: *dent_bids,
        }),
        _ => None,
    }
}

/// Extract every liquidation record from the chain event log.
///
/// The market oracle values transaction fees; the paper normalises with the
/// on-chain oracle price at the settlement block.
pub fn collect_records(chain: &Blockchain, market_oracle: &PriceOracle) -> Vec<LiquidationRecord> {
    let time_map: &TimeMap = chain.time_map();
    chain
        .events()
        .iter()
        .filter_map(|logged| {
            let eth_price = market_oracle
                .price_at(logged.block, Token::ETH)
                .unwrap_or_else(|| market_oracle.price_or_zero(Token::ETH));
            record_from_logged(logged, eth_price, time_map)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_types::Wad;

    fn record(platform: Platform, repaid: u64, received: u64, fee: u64) -> LiquidationRecord {
        LiquidationRecord {
            platform,
            kind: LiquidationKind::FixedSpread,
            liquidator: Address::from_seed(1),
            borrower: Address::from_seed(2),
            block: 10_000_000,
            month: MonthTag::new(2020, 5),
            debt_token: Token::DAI,
            collateral_token: Token::ETH,
            debt_repaid_usd: Wad::from_int(repaid),
            collateral_received_usd: Wad::from_int(received),
            gas_price: 100,
            gas_used: 500_000,
            fee_usd: Wad::from_int(fee),
            used_flash_loan: false,
            auction_started_at: None,
            auction_last_bid_at: None,
            tend_bids: 0,
            dent_bids: 0,
        }
    }

    #[test]
    fn profit_accounting() {
        let r = record(Platform::Compound, 1_000, 1_080, 30);
        assert_eq!(r.gross_profit(), SignedWad::positive(Wad::from_int(80)));
        assert!(r.is_dai_eth());
    }

    #[test]
    fn losses_are_negative() {
        let r = record(Platform::MakerDao, 1_000, 900, 30);
        assert!(r.gross_profit().is_negative());
    }

    #[test]
    fn dai_eth_filter() {
        let mut r = record(Platform::DyDx, 1_000, 1_050, 10);
        r.debt_token = Token::USDC;
        assert!(!r.is_dai_eth());
        r.debt_token = Token::DAI;
        r.collateral_token = Token::WBTC;
        assert!(!r.is_dai_eth());
    }

    #[test]
    fn auction_duration() {
        let mut r = record(Platform::MakerDao, 1_000, 1_050, 10);
        r.auction_started_at = Some(9_999_000);
        assert_eq!(r.auction_duration_blocks(), 1_000);
        r.auction_started_at = None;
        assert_eq!(r.auction_duration_blocks(), 0);
    }
}
