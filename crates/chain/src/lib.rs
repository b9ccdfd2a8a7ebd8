//! # defi-chain
//!
//! An in-memory Ethereum-like blockchain simulator providing the substrate the
//! paper's measurement pipeline runs against.
//!
//! The original study crawls an Ethereum **archive node**: it filters EVM
//! event logs emitted by lending contracts, reads historical block state, and
//! replays transactions on past blocks (§4.1, Figure 3). This crate provides
//! the same abstractions without a real node:
//!
//! * [`ledger`] — account/token balances with journaled, atomically revertible
//!   mutations (the property flash loans rely on, §2.2.2).
//! * [`events`] — a typed event-log vocabulary (liquidation calls, auction
//!   bids, flash loans, oracle updates) with filtering by platform, kind and
//!   block range, mirroring "filter the liquidation events emitted from the
//!   studied lending pools".
//! * [`gas`] — a gas market: per-block median gas price, congestion dynamics,
//!   scripted congestion episodes (13 March 2020), the 6,000-block moving
//!   average used in Figure 6.
//! * [`mempool`] — background gas demand and the per-block inclusion test it
//!   implies; under congestion, low-paying transactions wait, which is
//!   exactly what broke the MakerDAO keeper bots.
//! * [`block`] — block headers and transaction receipts.
//! * [`chain`] — the [`Blockchain`] façade tying everything together: block
//!   production, transaction execution with revert semantics, event emission,
//!   archive queries.
//!
//! Nothing here performs networking or consensus; the simulator is an
//! accounting-accurate stand-in whose behaviour (atomicity, ordering by gas
//! price, congestion) matches what the measured phenomena depend on.

#![forbid(unsafe_code)]

pub mod block;
pub mod chain;
pub mod events;
pub mod gas;
pub mod ledger;
pub mod mempool;

pub use block::{BlockHeader, TxReceipt};
pub use chain::{Blockchain, ChainConfig, ChainError, TxOutcome};
pub use events::{
    AuctionId, AuctionPhase, ChainEvent, EventFilter, EventKind, EventLog, LiquidationEvent,
    LoggedEvent,
};
pub use gas::{CongestionEpisode, GasMarket, GasMarketConfig, GweiPrice};
pub use ledger::{Ledger, LedgerError};
