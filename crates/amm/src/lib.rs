//! # defi-amm
//!
//! A Uniswap-V2-style constant-product automated market maker.
//!
//! The paper's liquidators rarely want to *hold* the collateral they seize:
//! the canonical flash-loan liquidation flow (§4.4.4) swaps the purchased
//! collateral back into the debt currency on a DEX before repaying the flash
//! loan, all within one transaction. This crate provides that DEX. It is also
//! an example of the *on-chain* price-oracle style mentioned in §2.2.1
//! (spot prices that are manipulable within a transaction).
//!
//! The implementation follows the x·y=k formula with a configurable fee,
//! settles balances through the shared [`Ledger`](defi_chain::Ledger), and
//! reports each swap's price impact, which the liquidation-spiral scenarios
//! feed back into the market price.

#![forbid(unsafe_code)]

pub mod dex;
pub mod pool;

pub use dex::Dex;
pub use pool::{AmmError, ConstantProductPool, PoolConfig};
