//! # defi-lending
//!
//! Rust re-implementations of the four lending protocols the paper studies —
//! the substrate the measurement pipeline observes.
//!
//! * [`fixed_spread`] — a generic **atomic fixed-spread** lending pool
//!   (deposit / borrow / repay / `liquidation_call`) parameterised by
//!   per-market risk parameters and a protocol-wide close factor. Aave V1,
//!   Aave V2, Compound and dYdX are instances of this engine (see
//!   [`platforms`]), differing in market listings, spreads, close factor and
//!   platform-specific behaviour (dYdX's insurance fund writes off Type I bad
//!   debt, §4.4.2).
//! * [`maker`] — MakerDAO: collateralized debt positions (CDPs) minting DAI
//!   and the two-phase **tend–dent auction** liquidation (§3.2.1, Figure 2).
//! * [`interest`] — utilization-driven interest-rate model with Ray-precision
//!   index accrual ("the interest rate of an Aave pool is decided
//!   algorithmically", §3.3).
//! * [`flashloan`] — Aave/dYdX-style flash-loan pools used by liquidators to
//!   avoid holding inventory (§4.4.4).
//! * [`protocol`] — the unified, object-safe [`LendingProtocol`] trait both
//!   mechanisms implement: one vocabulary for markets, positions,
//!   liquidation-opportunity discovery and mechanism-specific execution, so
//!   the engine can hold all five platforms behind `Box<dyn LendingProtocol>`.
//! * [`book`] — the incremental [`PositionBook`] every implementation owns: a
//!   dirty-tracked valuation cache (invalidated by account mutations, borrow
//!   index accrual and oracle write epochs) plus a critical-price liquidation
//!   index that turns discovery into a per-token range scan.
//!
//! All balance movements settle through the shared
//! [`Ledger`](defi_chain::Ledger); protocols emit
//! [`ChainEvent`](defi_chain::ChainEvent)s describing liquidations, auctions
//! and flash loans, which is exactly the surface the analytics crate indexes.

#![forbid(unsafe_code)]

pub mod book;
pub mod error;
pub mod fixed_spread;
pub mod flashloan;
pub mod interest;
pub mod maker;
pub mod platforms;
pub mod protocol;

pub use book::{
    AuditEntry, BookSource, BookStats, BookTotals, HfEnvelope, PositionBook, Validity,
    BOOK_SHARD_COUNT, RELEVERAGE_BAND_HF, RESCUE_BAND_HF,
};
pub use error::ProtocolError;
pub use fixed_spread::{
    derive_hf_envelope, FixedSpreadConfig, FixedSpreadProtocol, LiquidationReceipt, Market,
    DEFAULT_DEBT_DUST,
};
pub use flashloan::FlashLoanPool;
pub use interest::InterestRateModel;
pub use maker::{Auction, AuctionOutcome, Cdp, IlkParams, MakerProtocol};
pub use platforms::{aave_v1, aave_v2, compound, dydx, maker_protocol, paper_protocols};
pub use protocol::{
    AuctionSnapshot, BidSnapshot, BookSnapshot, LendingProtocol, LiquidationExecution,
    LiquidationRequest, MechanismKind, Opportunity,
};
