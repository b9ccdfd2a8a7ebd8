//! # defi-sim
//!
//! The agent-based simulation engine that stands in for two years of mainnet
//! activity. The paper measures real borrowers, liquidation bots and auction
//! keepers; this crate simulates populations of them against the protocol
//! implementations in `defi-lending`, the price scenario in `defi-oracle`,
//! and the chain/gas/mempool substrate in `defi-chain`, producing the same
//! observable surface the paper crawls: liquidation events, auction events,
//! flash-loan events, gas prices, position books and collateral volumes.
//!
//! * [`config`] — scenario configuration, with a [`SimConfig::paper_default`]
//!   matching the study window and a [`SimConfig::smoke_test`] for fast tests.
//! * [`agents`] — borrower, fixed-spread liquidator and auction keeper agents.
//! * [`behavior`] — the behavioural layer: capital-constrained liquidators
//!   with per-token inventory, latency-staggered reactions and borrower
//!   panic exits ([`BehaviorConfig`]).
//! * [`builder`] — the [`EngineBuilder`] fluent API: the documented way to
//!   assemble engines, with pluggable protocols (any
//!   [`LendingProtocol`](defi_lending::LendingProtocol) implementation),
//!   price scenario and DEX.
//! * [`engine`] — the [`SimulationEngine`] driving the tick loop over the
//!   [`ProtocolRegistry`] and the [`SimulationReport`] handed to the
//!   analytics crate.
//! * [`scenarios`] — the named [`ScenarioCatalog`] of stress scenarios
//!   (Black Thursday replay, stablecoin depeg, oracle-lag cascades, gas
//!   spikes, endogenous liquidation spirals), addressable from the builder,
//!   the `repro` harness and sweep grids. Entries compose with `+`
//!   (`"liquidation-spiral+stablecoin-depeg"` is one run), and user-defined
//!   entries can be loaded from a scenario file ([`UserScenarioSpec`]).
//! * [`observer`] — the [`SimObserver`] hook trait streaming a run's events,
//!   liquidations and samples to consumers as they are produced.
//! * [`invariant`] — the [`InvariantObserver`]: per-tick conservation and
//!   solvency invariant checking over any run (attached to every catalog
//!   entry in CI).
//! * [`session`] — the resumable [`Session`] run surface
//!   (`step` / `run_to_end` / `finish`), of which `SimulationEngine::run` is
//!   a thin compatibility wrapper.
//! * [`sweep`] — the [`SweepRunner`] fanning grids of configurations across
//!   scoped worker threads for sensitivity-style studies; it runs whatever
//!   job it is given, and computes no metric itself.

#![forbid(unsafe_code)]

pub mod agents;
pub mod behavior;
pub mod builder;
pub mod config;
pub mod engine;
pub mod invariant;
pub mod observer;
pub mod scenarios;
pub mod session;
pub mod sweep;

pub use agents::{BorrowerAgent, KeeperAgent, LiquidatorAgent};
pub use behavior::{AgentCapital, BehaviorConfig, BehaviorReport, BehaviorStats};
pub use builder::{EngineBuilder, ProtocolRegistry};
pub use config::{PlatformPopulation, SimConfig};
pub use engine::{SimulationEngine, SimulationReport, SkippedVolume, VolumeSample};
pub use invariant::{InvariantObserver, InvariantViolation};
pub use observer::{
    LiquidationObservation, MultiObserver, NullObserver, RunEnd, RunStart, SimObserver, TickEnd,
    TickStart,
};
pub use scenarios::{ScenarioCatalog, ScenarioEntry, ScenarioParseError, UserScenarioSpec};
pub use session::{Session, SessionStatus, SimError};
pub use sweep::SweepRunner;
