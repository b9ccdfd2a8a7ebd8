//! # defi-analytics
//!
//! The measurement pipeline of the reproduction: everything §4 and §5 of the
//! paper compute from their archive-node crawl, computed here from the
//! simulation's observable surface (event log, per-platform oracles, gas
//! history, position books, volume samples).
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`records`] | the unified liquidation ledger every other metric consumes |
//! | [`overall`] | §4.2 overall statistics, Table 1, Figure 4, Figure 5 |
//! | [`gas`] | §4.3.2 liquidator gas-price competition, Figure 6 |
//! | [`auctions`] | §4.3.3 auction statistics, Figure 7 |
//! | [`bad_debt`] | §4.4.2 Type I/II bad debts, Table 2 |
//! | [`unprofitable`] | §4.4.3 unprofitable liquidation opportunities, Table 3 |
//! | [`flashloan`] | §4.4.4 flash-loan usage, Table 4 |
//! | [`sensitivity`] | §4.5.1 liquidation sensitivity, Figure 8 |
//! | [`stablecoin`] | §4.5.2 stablecoin-pair stability |
//! | [`profit_volume`] | §5.1 profit–volume comparison, Figure 9, Table 8 |
//! | [`price_movement`] | Appendix A post-liquidation price movements, Table 7 |
//! | [`study`] | one-call [`StudyAnalysis`] bundling all of the above |
//! | [`sweep`] | the study run over a seed or scenario grid, one [`RunSummary`](sweep::RunSummary) per run |
//!
//! Each artefact has exactly one implementation: a pure batch function over
//! the ledger, the chain, the market oracle, the final position books or the
//! volume samples. [`StudyAnalysis`] calls all of them from one assembly
//! step, which both pipelines reach: [`StudyAnalysis::from_report`] after the
//! run, and [`StudyCollector`] — the crate's one
//! [`SimObserver`](defi_sim::SimObserver) — at the end of a live session or a
//! journal replay, having built the ledger while the run streamed.

#![forbid(unsafe_code)]

pub mod auctions;
pub mod bad_debt;
pub mod flashloan;
pub mod gas;
pub mod overall;
pub mod price_movement;
pub mod profit_volume;
pub mod records;
pub mod sensitivity;
pub mod stablecoin;
pub mod study;
pub mod sweep;
pub mod unprofitable;

pub use records::{LiquidationKind, LiquidationRecord};
pub use study::{StudyAnalysis, StudyCollector};
