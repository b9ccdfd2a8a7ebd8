//! Observer hooks for streaming simulation sessions.
//!
//! A [`SimObserver`] receives the simulation's observable surface *as it is
//! produced* — ticks, chain events, settled liquidations, collateral-volume
//! samples and the end-of-run snapshot — instead of scanning a materialised
//! [`SimulationReport`](crate::SimulationReport) after the fact. The analytics
//! crate's `StudyCollector` is an observer, which is what lets a full study
//! compute in a single pass over the run.
//!
//! Observers are driven by a [`Session`](crate::Session): every hook has a
//! default empty body, so an implementation only overrides what it consumes.
//!
//! ```
//! use defi_sim::{SessionStatus, SimConfig, SimObserver, SimulationEngine};
//!
//! /// Counts settled liquidations as they happen.
//! #[derive(Default)]
//! struct LiquidationCounter {
//!     settled: u32,
//! }
//!
//! impl SimObserver for LiquidationCounter {
//!     fn on_liquidation(&mut self, _liquidation: &defi_sim::LiquidationObservation<'_>) {
//!         self.settled += 1;
//!     }
//! }
//!
//! // A few ticks of the smoke scenario, streamed through the counter.
//! let mut config = SimConfig::smoke_test(7);
//! config.end_block = config.start_block + 5 * config.tick_blocks;
//! let mut counter = LiquidationCounter::default();
//! let mut session = SimulationEngine::new(config).session();
//! while session.step(&mut counter).unwrap() == SessionStatus::Running {}
//! let report = session.finish(&mut counter).unwrap();
//! assert_eq!(report.snapshot_block, report.config.end_block);
//! ```

use std::collections::BTreeMap;

use defi_amm::Dex;
use defi_chain::{Blockchain, LoggedEvent};
use defi_core::position::Position;
use defi_oracle::PriceOracle;
use defi_types::{BlockNumber, Platform, TimeMap, Token, Wad};

use crate::builder::ProtocolRegistry;
use crate::config::SimConfig;
use crate::engine::VolumeSample;

/// Context handed to [`SimObserver::on_run_start`] before the first tick.
#[derive(Debug)]
pub struct RunStart<'a> {
    /// The scenario configuration of the run.
    pub config: &'a SimConfig,
    /// The chain's block ⇄ time mapping (for calendar aggregation).
    pub time_map: TimeMap,
    /// Liquidation spread of every listed market with per-market risk
    /// parameters, keyed by `(platform, collateral token)`. Lets invariant
    /// observers check the Eq. 1 claim envelope against each market's actual
    /// spread instead of a global worst-case bound.
    pub market_spreads: BTreeMap<(Platform, Token), Wad>,
}

/// Context handed to [`SimObserver::on_tick_start`] before each tick runs.
#[derive(Debug, Clone, Copy)]
pub struct TickStart {
    /// The block the tick will advance the chain to.
    pub block: BlockNumber,
    /// Zero-based index of the tick within the run.
    pub tick_index: u64,
}

/// A settled liquidation (fixed-spread call or finalised auction) surfaced to
/// observers at the tick it happened.
#[derive(Debug)]
pub struct LiquidationObservation<'a> {
    /// The logged settlement event
    /// ([`ChainEvent::Liquidation`](defi_chain::ChainEvent::Liquidation) or
    /// [`ChainEvent::AuctionFinalized`](defi_chain::ChainEvent::AuctionFinalized))
    /// with its transaction context.
    pub logged: &'a LoggedEvent,
    /// Market ETH price at the settlement block (for valuing the gas fee).
    pub eth_price: Wad,
    /// Health factor the borrower had when the engine discovered the
    /// opportunity (fixed-spread) or bit the position (auctions). `None` for
    /// liquidations executed outside the engine's discovery loop. Invariant
    /// observers assert this is below 1: liquidation only below the threshold.
    pub health_factor_before: Option<Wad>,
}

/// Context handed to [`SimObserver::on_tick_end`] after a tick has fully
/// executed — the engine's oracles, chain, DEX and protocols, all
/// read-only, so invariant checkers can audit conservation and solvency
/// per tick.
///
/// The books are read through
/// [`LendingProtocol::audit_book`](defi_lending::LendingProtocol::audit_book),
/// which walks each book's cached entries without re-valuing any: an
/// observed run does exactly the book work of an unobserved one. The
/// session only dispatches this context when
/// [`SimObserver::wants_tick_end`] returns true.
pub struct TickEnd<'a> {
    /// The block the tick advanced the chain to.
    pub block: BlockNumber,
    /// Zero-based index of the tick that just ran.
    pub tick_index: u64,
    /// The chain after the tick (ledger, event log, headers).
    pub chain: &'a Blockchain,
    /// The DEX after the tick (pool reserves).
    pub dex: &'a Dex,
    /// Each platform's own oracle as of this tick.
    pub oracles: &'a BTreeMap<Platform, PriceOracle>,
    /// The engine's protocols, in registry order.
    pub protocols: &'a ProtocolRegistry,
}

/// Context handed to [`SimObserver::on_run_end`] after the final snapshot.
#[derive(Debug)]
pub struct RunEnd<'a> {
    /// The scenario configuration of the run.
    pub config: &'a SimConfig,
    /// Block of the final snapshot.
    pub snapshot_block: BlockNumber,
    /// Position books at the end of the run.
    pub final_positions: &'a BTreeMap<Platform, Vec<Position>>,
    /// The chain (event log, headers, gas history).
    pub chain: &'a Blockchain,
    /// The "true" market price history.
    pub market_oracle: &'a PriceOracle,
}

/// Typed hooks over a streaming simulation run.
///
/// Hooks fire in a fixed order: `on_run_start` once, then per tick
/// `on_tick_start` followed by `on_event` for every chain event the tick
/// emitted (in emission order, with `on_liquidation` fired additionally for
/// settlement events) and `on_volume_sample` for every recorded sample, and
/// finally `on_run_end` once when the session is finished.
pub trait SimObserver {
    /// The run is about to start (prices and genesis liquidity are seeded
    /// immediately after this hook).
    fn on_run_start(&mut self, _run: &RunStart<'_>) {}

    /// A tick is about to execute.
    fn on_tick_start(&mut self, _tick: &TickStart) {}

    /// A chain event was emitted (fires for every event, in emission order).
    fn on_event(&mut self, _logged: &LoggedEvent) {}

    /// A liquidation settled (fires after `on_event` for the same event).
    fn on_liquidation(&mut self, _liquidation: &LiquidationObservation<'_>) {}

    /// A collateral-volume sample was recorded.
    fn on_volume_sample(&mut self, _sample: &VolumeSample) {}

    /// A tick finished executing. Only dispatched when
    /// [`wants_tick_end`](SimObserver::wants_tick_end) returns true. The
    /// context is read-only: the books are walked as they stand, never
    /// flushed.
    fn on_tick_end(&mut self, _tick: &TickEnd<'_>) {}

    /// Whether this observer consumes [`on_tick_end`](SimObserver::on_tick_end)
    /// contexts. Defaults to false so the analytics path pays nothing.
    fn wants_tick_end(&self) -> bool {
        false
    }

    /// The run ended and the final snapshot is available.
    fn on_run_end(&mut self, _end: &RunEnd<'_>) {}
}

/// An observer that ignores everything (the legacy
/// [`SimulationEngine::run`](crate::SimulationEngine::run) path).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// Fans every hook out to a list of observers, in order.
#[derive(Default)]
pub struct MultiObserver<'a> {
    observers: Vec<&'a mut dyn SimObserver>,
}

impl<'a> MultiObserver<'a> {
    /// An empty fan-out.
    pub fn new() -> Self {
        MultiObserver::default()
    }

    /// Append an observer (builder style).
    pub fn with(mut self, observer: &'a mut dyn SimObserver) -> Self {
        self.observers.push(observer);
        self
    }
}

impl SimObserver for MultiObserver<'_> {
    fn on_run_start(&mut self, run: &RunStart<'_>) {
        for observer in &mut self.observers {
            observer.on_run_start(run);
        }
    }

    fn on_tick_start(&mut self, tick: &TickStart) {
        for observer in &mut self.observers {
            observer.on_tick_start(tick);
        }
    }

    fn on_event(&mut self, logged: &LoggedEvent) {
        for observer in &mut self.observers {
            observer.on_event(logged);
        }
    }

    fn on_liquidation(&mut self, liquidation: &LiquidationObservation<'_>) {
        for observer in &mut self.observers {
            observer.on_liquidation(liquidation);
        }
    }

    fn on_volume_sample(&mut self, sample: &VolumeSample) {
        for observer in &mut self.observers {
            observer.on_volume_sample(sample);
        }
    }

    fn on_tick_end(&mut self, tick: &TickEnd<'_>) {
        for observer in &mut self.observers {
            observer.on_tick_end(tick);
        }
    }

    fn wants_tick_end(&self) -> bool {
        self.observers.iter().any(|o| o.wants_tick_end())
    }

    fn on_run_end(&mut self, end: &RunEnd<'_>) {
        for observer in &mut self.observers {
            observer.on_run_end(end);
        }
    }
}
