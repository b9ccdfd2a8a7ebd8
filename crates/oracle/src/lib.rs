//! # defi-oracle
//!
//! Price oracles and the synthetic price processes that stand in for the two
//! years of mainnet price history the paper measures against.
//!
//! The lending protocols in the study learn prices from oracles: Aave and
//! Compound use Chainlink-style push oracles, MakerDAO its own medianizer,
//! and on-chain AMM spot prices also exist (and are known to be manipulable,
//! §2.2.1). Liquidations are triggered exclusively by oracle prices, so the
//! *shape* of the price paths is what drives every phenomenon measured in the
//! paper: the March 2020 crash, the November 2020 Compound DAI irregularity,
//! stablecoin peg deviations, and the sensitivity of each protocol to ETH
//! declines.
//!
//! * [`process`] — stochastic building blocks: geometric Brownian motion,
//!   mean-reverting stablecoin pegs, and piecewise scripted shocks.
//! * [`oracle`] — the [`PriceOracle`]: current prices, full update history,
//!   `price_at(block)` archival queries, and deviation-threshold push
//!   updates like Chainlink's.
//! * [`scenario`] — the [`MarketScenario`] used by the two-year study: per
//!   token processes plus the scripted historical episodes.

#![forbid(unsafe_code)]

pub mod oracle;
pub mod process;
pub mod scenario;

pub use oracle::{OracleConfig, PriceOracle, PricePoint};
pub use process::{GbmParams, PegParams, PriceProcess, ScheduledShock};
pub use scenario::{MarketScenario, ScenarioEvent, SellPressureFeedback, TokenPathSpec};
