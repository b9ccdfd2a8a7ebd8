//! # defi-core
//!
//! The primary contribution of *An Empirical Study of DeFi Liquidations:
//! Incentives, Risks, and Instabilities* (Qin et al., ACM IMC 2021),
//! implemented as a reusable library:
//!
//! * [`position`] — the lending/borrowing terminology of §2.3 as a typed
//!   model: positions with multi-asset collateral and debt, collateralization
//!   ratio (Eq. 2), borrowing capacity (Eq. 3), health factor (Eq. 4), and
//!   the fixed-spread claim rule (Eq. 1).
//! * [`params`] — per-market risk parameters (liquidation threshold,
//!   liquidation spread, close factor) for the studied platforms.
//! * [`mechanism`] — the systematization of §3.2: atomic fixed-spread
//!   liquidation vs. the non-atomic tend–dent auction, and the auction's
//!   parameter set.
//! * [`strategy`] — §5.2: the up-to-close-factor strategy and the *optimal*
//!   two-step fixed-spread strategy (Algorithm 2), with the closed-form
//!   profit expressions of Eqs. 6–9.
//! * [`sensitivity`] — Algorithm 1: the liquidatable collateral volume as a
//!   function of a price decline in one currency (Figure 8).
//! * [`comparison`] — §5.1: the monthly profit–volume ratio used to compare
//!   liquidation mechanisms objectively (Figure 9).
//! * [`mitigation`] — §5.2.3: the one-liquidation-per-block mitigation and
//!   the minimum mining power that still makes the optimal strategy pay
//!   (Eqs. 10–12).
//! * [`bad_debt`] — §4.4.2/§4.4.3: Type I / Type II bad-debt and
//!   unprofitable-liquidation classification of a position.
//! * [`config`] — Appendix C: soundness of fixed-spread configurations,
//!   `1 − LT(1 + LS) > 0`.
//!
//! Everything in this crate is pure computation over
//! [`Position`] snapshots — no chain, no protocols — so
//! it can be reused against real on-chain data as well as against the
//! simulation substrate shipped in the sibling crates.

#![forbid(unsafe_code)]

pub mod bad_debt;
pub mod comparison;
pub mod config;
pub mod mechanism;
pub mod mitigation;
pub mod params;
pub mod position;
pub mod sensitivity;
pub mod strategy;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::bad_debt::{classify_bad_debt, BadDebtType};
    pub use crate::comparison::ProfitVolumeRatio;
    pub use crate::config::{is_sound_fixed_spread_config, liquidation_improves_health};
    pub use crate::mechanism::AuctionParams;
    pub use crate::mitigation::{optimal_strategy_mining_power_threshold, MitigationAnalysis};
    pub use crate::params::RiskParams;
    pub use crate::position::{CollateralHolding, DebtHolding, Position};
    pub use crate::sensitivity::{liquidatable_collateral, SensitivityCurve};
    pub use crate::strategy::{
        optimal_liquidation, up_to_close_factor_liquidation, LiquidationOutcome, StrategyComparison,
    };
}

pub use prelude::*;
