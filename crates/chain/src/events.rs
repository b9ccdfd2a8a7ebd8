//! Typed event logs.
//!
//! The paper's measurement setup "filter\[s\] the liquidation events emitted
//! from the studied lending pools" (§4.1). This module is the simulator's
//! equivalent of the EVM log: protocols emit [`ChainEvent`]s while executing
//! inside a transaction; the [`EventLog`] records them together with the
//! transaction context (block, sender, gas price, gas used) that the
//! analytics layer needs to reproduce Figures 4–7 and Tables 1–8.

use serde::{Deserialize, Serialize};

use defi_types::{Address, BlockNumber, Platform, Token, TxHash, Wad};

use crate::gas::GweiPrice;

/// Identifier of a MakerDAO collateral auction.
pub type AuctionId = u64;

/// Phase of a MakerDAO tend–dent auction (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuctionPhase {
    /// Bidders compete by raising the debt they repay for the full collateral.
    Tend,
    /// Bidders compete by accepting less collateral for the full debt.
    Dent,
}

/// A fixed-spread liquidation settlement (Aave, Compound, dYdX
/// `liquidationCall`-style events).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiquidationEvent {
    /// Platform on which the liquidation settled.
    pub platform: Platform,
    /// Address of the liquidator (the paper identifies liquidators by unique address).
    pub liquidator: Address,
    /// Address of the borrower whose position was (partially) closed.
    pub borrower: Address,
    /// Token in which the repaid debt is denominated.
    pub debt_token: Token,
    /// Amount of debt repaid (token units).
    pub debt_repaid: Wad,
    /// USD value of the repaid debt at the settlement-block oracle price.
    pub debt_repaid_usd: Wad,
    /// Token in which the seized collateral is denominated.
    pub collateral_token: Token,
    /// Amount of collateral transferred to the liquidator (token units).
    pub collateral_seized: Wad,
    /// USD value of the seized collateral at the settlement-block oracle price.
    pub collateral_seized_usd: Wad,
    /// Whether the liquidator funded the repayment with a flash loan.
    pub used_flash_loan: bool,
}

impl LiquidationEvent {
    /// Liquidator profit before transaction fees: collateral received minus
    /// debt repaid, both valued at the settlement-block oracle prices
    /// (the paper assumes "the purchased collateral is immediately sold …
    /// at the price given by the price oracle", §4.3.1).
    pub fn gross_profit_usd(&self) -> Wad {
        self.collateral_seized_usd
            .saturating_sub(self.debt_repaid_usd)
    }
}

/// Events emitted by the protocols and the oracle during simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChainEvent {
    /// A fixed-spread liquidation settled atomically.
    Liquidation(LiquidationEvent),
    /// A MakerDAO auction was initiated (`bite`).
    AuctionStarted {
        /// Auction identifier.
        auction_id: AuctionId,
        /// Borrower whose CDP is being liquidated.
        borrower: Address,
        /// Collateral token put up for auction.
        collateral_token: Token,
        /// Collateral amount (token units).
        collateral_amount: Wad,
        /// Outstanding debt to be recovered (DAI).
        debt: Wad,
    },
    /// A bid was placed in a MakerDAO auction.
    AuctionBid {
        /// Auction identifier.
        auction_id: AuctionId,
        /// Bidder address.
        bidder: Address,
        /// Auction phase the bid belongs to.
        phase: AuctionPhase,
        /// Debt the bidder commits to repay (tend) — equals the full debt in dent.
        debt_bid: Wad,
        /// Collateral the bidder accepts (dent) — equals the full collateral in tend.
        collateral_bid: Wad,
    },
    /// A MakerDAO auction was finalised (`deal`).
    AuctionFinalized {
        /// Auction identifier.
        auction_id: AuctionId,
        /// Winning bidder.
        winner: Address,
        /// Debt repaid by the winner (DAI).
        debt_repaid: Wad,
        /// USD value of the repaid debt at finalisation.
        debt_repaid_usd: Wad,
        /// Collateral token received by the winner.
        collateral_token: Token,
        /// Collateral amount received.
        collateral_received: Wad,
        /// USD value of the received collateral at finalisation.
        collateral_received_usd: Wad,
        /// Borrower whose CDP was liquidated.
        borrower: Address,
        /// Block at which the auction was initiated (for duration statistics).
        started_at: BlockNumber,
        /// Block of the last bid (for duration statistics).
        last_bid_at: BlockNumber,
        /// Number of bids placed in the tend phase.
        tend_bids: u32,
        /// Number of bids placed in the dent phase.
        dent_bids: u32,
        /// Phase in which the auction terminated.
        final_phase: AuctionPhase,
    },
    /// A flash loan was taken and repaid within one transaction.
    FlashLoan {
        /// Pool providing the flash loan (Aave V1, Aave V2 or dYdX).
        pool: Platform,
        /// Borrowing contract/account.
        borrower: Address,
        /// Token borrowed.
        token: Token,
        /// Amount borrowed (token units).
        amount: Wad,
        /// USD value of the amount at the block's oracle price.
        amount_usd: Wad,
        /// Fee paid to the pool (token units).
        fee: Wad,
    },
    /// The price oracle pushed a new price on-chain.
    OracleUpdate {
        /// Token whose price changed.
        token: Token,
        /// New USD price.
        price: Wad,
    },
    /// A borrower opened or increased a debt position (used by volume metrics).
    Borrow {
        /// Platform.
        platform: Platform,
        /// Borrower.
        borrower: Address,
        /// Debt token.
        token: Token,
        /// Amount borrowed.
        amount: Wad,
    },
    /// A borrower deposited collateral.
    Deposit {
        /// Platform.
        platform: Platform,
        /// Depositor.
        account: Address,
        /// Collateral token.
        token: Token,
        /// Amount deposited.
        amount: Wad,
    },
    /// A borrower repaid debt.
    Repay {
        /// Platform.
        platform: Platform,
        /// Borrower.
        borrower: Address,
        /// Debt token.
        token: Token,
        /// Amount repaid.
        amount: Wad,
    },
}

impl ChainEvent {
    /// Coarse classification used by [`EventFilter::kind`].
    pub fn kind(&self) -> EventKind {
        match self {
            ChainEvent::Liquidation(_) => EventKind::Liquidation,
            ChainEvent::AuctionStarted { .. } => EventKind::AuctionStarted,
            ChainEvent::AuctionBid { .. } => EventKind::AuctionBid,
            ChainEvent::AuctionFinalized { .. } => EventKind::AuctionFinalized,
            ChainEvent::FlashLoan { .. } => EventKind::FlashLoan,
            ChainEvent::OracleUpdate { .. } => EventKind::OracleUpdate,
            ChainEvent::Borrow { .. } => EventKind::Borrow,
            ChainEvent::Deposit { .. } => EventKind::Deposit,
            ChainEvent::Repay { .. } => EventKind::Repay,
        }
    }

    /// The platform the event belongs to, when applicable.
    pub fn platform(&self) -> Option<Platform> {
        match self {
            ChainEvent::Liquidation(ev) => Some(ev.platform),
            ChainEvent::AuctionStarted { .. }
            | ChainEvent::AuctionBid { .. }
            | ChainEvent::AuctionFinalized { .. } => Some(Platform::MakerDao),
            ChainEvent::FlashLoan { pool, .. } => Some(*pool),
            ChainEvent::Borrow { platform, .. }
            | ChainEvent::Deposit { platform, .. }
            | ChainEvent::Repay { platform, .. } => Some(*platform),
            ChainEvent::OracleUpdate { .. } => None,
        }
    }
}

/// Event classification mirroring EVM event signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Fixed-spread liquidation.
    Liquidation,
    /// Auction initiation (`bite`).
    AuctionStarted,
    /// Auction bid (`tend`/`dent`).
    AuctionBid,
    /// Auction finalisation (`deal`).
    AuctionFinalized,
    /// Flash loan.
    FlashLoan,
    /// Oracle price update.
    OracleUpdate,
    /// Borrow.
    Borrow,
    /// Collateral deposit.
    Deposit,
    /// Debt repayment.
    Repay,
}

/// An event together with the transaction context it was emitted in.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoggedEvent {
    /// Block in which the emitting transaction was included.
    pub block: BlockNumber,
    /// Index of the transaction within the block.
    pub tx_index: u32,
    /// Hash of the emitting transaction.
    pub tx_hash: TxHash,
    /// Transaction sender (the liquidator for liquidation calls).
    pub sender: Address,
    /// Gas price the sender paid (gwei).
    pub gas_price: GweiPrice,
    /// Gas consumed by the transaction.
    pub gas_used: u64,
    /// The event payload.
    pub event: ChainEvent,
}

/// Predicate describing which logged events to return, analogous to an
/// `eth_getLogs` filter (by topic/contract/block range).
#[derive(Debug, Clone, Default)]
pub struct EventFilter {
    /// Only events of this kind.
    pub kind: Option<EventKind>,
    /// Only events attributed to this platform.
    pub platform: Option<Platform>,
    /// Only events at or after this block.
    pub from_block: Option<BlockNumber>,
    /// Only events at or before this block.
    pub to_block: Option<BlockNumber>,
}

impl EventFilter {
    /// Filter matching every event.
    pub fn any() -> Self {
        EventFilter::default()
    }

    /// Restrict to a kind.
    pub fn kind(mut self, kind: EventKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Restrict to a platform.
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Restrict to a block range (inclusive).
    pub fn block_range(mut self, from: BlockNumber, to: BlockNumber) -> Self {
        self.from_block = Some(from);
        self.to_block = Some(to);
        self
    }

    /// Whether a logged event matches this filter.
    pub fn matches(&self, logged: &LoggedEvent) -> bool {
        if let Some(kind) = self.kind {
            if logged.event.kind() != kind {
                return false;
            }
        }
        if let Some(platform) = self.platform {
            if logged.event.platform() != Some(platform) {
                return false;
            }
        }
        if let Some(from) = self.from_block {
            if logged.block < from {
                return false;
            }
        }
        if let Some(to) = self.to_block {
            if logged.block > to {
                return false;
            }
        }
        true
    }
}

/// Append-only store of every event emitted during a simulation run.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    entries: Vec<LoggedEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Append an event.
    pub fn push(&mut self, event: LoggedEvent) {
        self.entries.push(event);
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over all logged events in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &LoggedEvent> {
        self.entries.iter()
    }

    /// The full log as a slice, in emission order (streaming consumers index
    /// into this with a cursor to pick up where they left off).
    pub fn as_slice(&self) -> &[LoggedEvent] {
        &self.entries
    }

    /// All events matching a filter, in emission order.
    pub fn query(&self, filter: &EventFilter) -> Vec<&LoggedEvent> {
        self.entries.iter().filter(|e| filter.matches(e)).collect()
    }

    /// Convenience: all fixed-spread liquidation events.
    pub fn liquidations(&self) -> impl Iterator<Item = (&LoggedEvent, &LiquidationEvent)> {
        self.entries
            .iter()
            .filter_map(|logged| match &logged.event {
                ChainEvent::Liquidation(ev) => Some((logged, ev)),
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_liquidation(platform: Platform, block: BlockNumber) -> LoggedEvent {
        LoggedEvent {
            block,
            tx_index: 0,
            tx_hash: TxHash::derive(block, 0, 0),
            sender: Address::from_seed(9),
            gas_price: 80,
            gas_used: 400_000,
            event: ChainEvent::Liquidation(LiquidationEvent {
                platform,
                liquidator: Address::from_seed(9),
                borrower: Address::from_seed(1),
                debt_token: Token::DAI,
                debt_repaid: Wad::from_int(1_000),
                debt_repaid_usd: Wad::from_int(1_000),
                collateral_token: Token::ETH,
                collateral_seized: Wad::from_int(1),
                collateral_seized_usd: Wad::from_int(1_080),
                used_flash_loan: false,
            }),
        }
    }

    #[test]
    fn gross_profit_is_spread() {
        let logged = sample_liquidation(Platform::Compound, 10);
        if let ChainEvent::Liquidation(ev) = &logged.event {
            assert_eq!(ev.gross_profit_usd(), Wad::from_int(80));
        } else {
            unreachable!()
        }
    }

    #[test]
    fn filter_by_kind_platform_and_range() {
        let mut log = EventLog::new();
        log.push(sample_liquidation(Platform::Compound, 10));
        log.push(sample_liquidation(Platform::DyDx, 20));
        log.push(LoggedEvent {
            event: ChainEvent::OracleUpdate {
                token: Token::ETH,
                price: Wad::from_int(3000),
            },
            ..sample_liquidation(Platform::Compound, 30)
        });

        assert_eq!(log.query(&EventFilter::any()).len(), 3);
        assert_eq!(
            log.query(&EventFilter::any().kind(EventKind::Liquidation))
                .len(),
            2
        );
        assert_eq!(
            log.query(&EventFilter::any().platform(Platform::DyDx))
                .len(),
            1
        );
        assert_eq!(log.query(&EventFilter::any().block_range(15, 35)).len(), 2);
        assert_eq!(log.liquidations().count(), 2);
    }

    #[test]
    fn oracle_update_has_no_platform() {
        let ev = ChainEvent::OracleUpdate {
            token: Token::DAI,
            price: Wad::ONE,
        };
        assert_eq!(ev.platform(), None);
        assert_eq!(ev.kind(), EventKind::OracleUpdate);
    }
}
