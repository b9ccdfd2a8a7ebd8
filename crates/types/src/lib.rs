//! # defi-types
//!
//! Foundation value types shared by every crate in the `defi-liquidations`
//! reproduction suite:
//!
//! * [`fixed`] — 18-decimal ([`Wad`]) and 27-decimal ([`Ray`]) fixed-point
//!   arithmetic backed by a minimal internal 256-bit intermediate, mirroring
//!   the numeric conventions of MakerDAO / Aave / Compound contracts.
//! * [`address`] — 20-byte account/contract addresses and 32-byte hashes.
//! * [`token`] — the token universe used in the paper's evaluation (ETH,
//!   WBTC, DAI, USDC, …).
//! * [`time`] — block-number ⇄ timestamp ⇄ calendar-month mapping used by the
//!   measurement pipeline (the paper reports everything by block and month).
//! * [`error`] — the shared arithmetic/domain error type.
//! * [`hash`] — the deterministic Fx hasher and the [`FxHashMap`] /
//!   [`FxHashSet`] aliases every tick-path keyed map uses.
//!
//! The types are deliberately `Copy` where cheap and panic-free: all arithmetic that can overflow or divide by zero has
//! checked variants returning [`TypeError`].

#![forbid(unsafe_code)]

pub mod address;
pub mod error;
pub mod fixed;
pub mod hash;
pub mod platform;
pub mod time;
pub mod token;

pub use address::{Address, TxHash};
pub use error::TypeError;
pub use fixed::{mul_div_ceil, mul_div_floor, Ray, SignedWad, Wad, RAY, WAD};
pub use hash::{FxHashMap, FxHashSet};
pub use platform::Platform;
pub use time::{BlockNumber, MonthTag, TimeMap, Timestamp};
pub use token::Token;

/// A USD-per-token price, 18-decimal fixed point. The paper normalises all
/// measurements to USD using the protocols' own oracle prices at the
/// settlement block; we keep that convention throughout the suite.
pub type Price = Wad;
