//! Resumable, observable simulation sessions.
//!
//! A [`Session`] owns a [`SimulationEngine`] and drives it one tick at a
//! time, dispatching [`SimObserver`] hooks for everything the tick produced.
//! Unlike the consume-self batch `run()`, a session can be paused after any
//! tick, inspected (chain, oracles, mid-run position books) and resumed —
//! which is what makes checkpointing and streaming analytics possible.
//!
//! ```
//! use defi_sim::{NullObserver, SessionStatus, SimConfig, SimulationEngine};
//!
//! let mut config = SimConfig::smoke_test(3);
//! config.end_block = config.start_block + 4 * config.tick_blocks;
//! let mut session = SimulationEngine::new(config).session();
//! let mut observer = NullObserver;
//!
//! // Run two ticks, pause, inspect, then run to the end.
//! session.step(&mut observer).unwrap();
//! session.step(&mut observer).unwrap();
//! let mid_run_positions = session.snapshot_positions();
//! assert!(session.progress() > 0.0 && !session.is_complete());
//! let report = session.run_to_end(&mut observer).unwrap();
//! assert!(report.final_positions.len() >= mid_run_positions.len());
//! ```

use std::collections::BTreeMap;

use defi_chain::{Blockchain, ChainEvent};
use defi_core::position::Position;
use defi_lending::LendingProtocol;
use defi_oracle::PriceOracle;
use defi_types::{BlockNumber, Platform, Token};

use crate::config::SimConfig;
use crate::engine::{SimulationEngine, SimulationReport};
use crate::observer::{LiquidationObservation, RunEnd, RunStart, SimObserver, TickEnd, TickStart};

/// Errors surfaced by a streaming session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A genesis liquidity deposit reverted during session start-up; the run
    /// would have begun with an unfunded market.
    GenesisDeposit {
        /// Platform whose market could not be seeded.
        platform: Platform,
        /// Token being deposited.
        token: Token,
        /// Revert reason reported by the chain.
        reason: String,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::GenesisDeposit {
                platform,
                token,
                reason,
            } => write!(
                f,
                "genesis deposit of {} on {} failed: {reason}",
                token.symbol(),
                platform.name()
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// What a [`Session::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// A tick was executed and more remain.
    Running,
    /// Every tick of the configured window has executed; call
    /// [`Session::finish`] for the final snapshot.
    TicksComplete,
}

/// A resumable simulation run: the engine plus the streaming cursors that
/// track which events and volume samples have already been dispatched.
pub struct Session {
    engine: SimulationEngine,
    block: BlockNumber,
    started: bool,
    ticks_complete: bool,
    event_cursor: usize,
    volume_cursor: usize,
}

impl Session {
    /// Wrap an engine in a fresh session (no tick has run yet).
    pub fn new(engine: SimulationEngine) -> Self {
        let block = engine.config.start_block;
        Session {
            engine,
            block,
            started: false,
            ticks_complete: false,
            event_cursor: 0,
            volume_cursor: 0,
        }
    }

    /// The scenario configuration of the run.
    pub fn config(&self) -> &SimConfig {
        &self.engine.config
    }

    /// The block the session has simulated up to.
    pub fn current_block(&self) -> BlockNumber {
        self.block
    }

    /// Number of ticks executed so far.
    pub fn ticks_run(&self) -> u64 {
        self.engine.tick_index
    }

    /// Fraction of the configured window simulated so far (0–1).
    pub fn progress(&self) -> f64 {
        self.engine.progress(self.block)
    }

    /// Whether every tick of the window has executed.
    pub fn is_complete(&self) -> bool {
        self.ticks_complete || self.block >= self.engine.config.end_block
    }

    /// Read access to the chain (event log, headers, gas history) mid-run.
    pub fn chain(&self) -> &Blockchain {
        &self.engine.chain
    }

    /// The "true" market price history written so far.
    pub fn market_oracle(&self) -> &PriceOracle {
        &self.engine.market_oracle
    }

    /// Checkpoint the per-platform position books at the current block — the
    /// same snapshot [`finish`](Session::finish) takes at the end of the run.
    /// Served from each protocol's incremental book (`&mut` so lazily staled
    /// valuations can refresh); identical to a from-scratch rebuild.
    pub fn snapshot_positions(&mut self) -> BTreeMap<Platform, Vec<Position>> {
        let mut books = BTreeMap::new();
        for (platform, protocol) in self.engine.protocols.iter_mut() {
            let Some(oracle) = self.engine.oracles.get(platform) else {
                continue;
            };
            books.insert(*platform, protocol.book_positions(oracle));
        }
        books
    }

    /// Platforms registered in the engine, in registry order.
    pub fn platforms(&self) -> Vec<Platform> {
        self.engine.protocols.keys().copied().collect()
    }

    /// Run `f` against one protocol and the oracle its contracts read —
    /// the mid-run audit surface the differential band-index harness uses to
    /// compare the banded/cached discovery paths against a from-scratch
    /// shadow scan between ticks. Queries through the protocol's caches may
    /// freshen lazily staled valuations, but they never mutate protocol
    /// state, so auditing does not perturb the run.
    pub fn inspect_protocol<R>(
        &mut self,
        platform: Platform,
        f: impl FnOnce(&mut dyn LendingProtocol, &PriceOracle) -> R,
    ) -> Option<R> {
        crate::engine::with_protocol(
            &mut self.engine.protocols,
            &self.engine.oracles,
            platform,
            f,
        )
    }

    /// Seed prices and genesis liquidity, dispatching `on_run_start` and the
    /// seeding events. Called lazily by the first `step`/`finish`.
    fn start(&mut self, observer: &mut dyn SimObserver) -> Result<(), SimError> {
        let mut market_spreads = BTreeMap::new();
        for (platform, protocol) in self.engine.protocols.iter() {
            for token in protocol.listed_tokens() {
                if let Some(params) = protocol.market_risk_params(token) {
                    market_spreads.insert((*platform, token), params.liquidation_spread);
                }
            }
        }
        observer.on_run_start(&RunStart {
            config: &self.engine.config,
            time_map: *self.engine.chain.time_map(),
            market_spreads,
        });
        self.engine.seed_initial_prices();
        self.engine.seed_pool_liquidity()?;
        self.started = true;
        self.dispatch_new(observer);
        Ok(())
    }

    /// Execute one tick, streaming everything it produced to `observer`.
    ///
    /// Returns [`SessionStatus::TicksComplete`] (without running anything)
    /// once the configured window is exhausted.
    pub fn step(&mut self, observer: &mut dyn SimObserver) -> Result<SessionStatus, SimError> {
        if !self.started {
            self.start(observer)?;
        }
        if self.block >= self.engine.config.end_block {
            self.ticks_complete = true;
            return Ok(SessionStatus::TicksComplete);
        }
        self.block += self.engine.config.tick_blocks;
        let tick_index = self.engine.tick_index;
        observer.on_tick_start(&TickStart {
            block: self.block,
            tick_index,
        });
        self.engine.tick(self.block);
        self.engine.tick_index += 1;
        self.dispatch_new(observer);
        if observer.wants_tick_end() {
            let engine = &self.engine;
            observer.on_tick_end(&TickEnd {
                block: self.block,
                tick_index,
                chain: &engine.chain,
                dex: &engine.dex,
                oracles: &engine.oracles,
                protocols: &engine.protocols,
            });
        }
        if self.block >= self.engine.config.end_block {
            self.ticks_complete = true;
            Ok(SessionStatus::TicksComplete)
        } else {
            Ok(SessionStatus::Running)
        }
    }

    /// Take the final snapshot, dispatch `on_run_end` and hand back the
    /// report. May be called early: a paused session produces a truncated
    /// report snapshotted at the current block.
    pub fn finish(mut self, observer: &mut dyn SimObserver) -> Result<SimulationReport, SimError> {
        if !self.started {
            self.start(observer)?;
        }
        let snapshot_block = self.engine.chain.current_block();
        let final_positions = self.snapshot_positions();
        observer.on_run_end(&RunEnd {
            config: &self.engine.config,
            snapshot_block,
            final_positions: &final_positions,
            chain: &self.engine.chain,
            market_oracle: &self.engine.market_oracle,
        });
        let engine = self.engine;
        Ok(SimulationReport {
            config: engine.config,
            chain: engine.chain,
            market_oracle: engine.market_oracle,
            platform_oracles: engine.oracles,
            volume_samples: engine.volume_samples,
            final_positions,
            snapshot_block,
            feedback_skipped: engine.feedback_skipped,
            behavior: engine.behavior.map(|behavior| behavior.into_report()),
        })
    }

    /// Run every remaining tick and finish — the streaming equivalent of the
    /// batch [`SimulationEngine::run`].
    pub fn run_to_end(
        mut self,
        observer: &mut dyn SimObserver,
    ) -> Result<SimulationReport, SimError> {
        while self.step(observer)? == SessionStatus::Running {}
        self.finish(observer)
    }

    /// Dispatch events and volume samples recorded since the last cursor
    /// position.
    fn dispatch_new(&mut self, observer: &mut dyn SimObserver) {
        let engine = &self.engine;
        let events = engine.chain.events().as_slice();
        let mut cursor = self.event_cursor;
        while let Some(logged) = events.get(cursor) {
            observer.on_event(logged);
            if matches!(
                logged.event,
                ChainEvent::Liquidation(_) | ChainEvent::AuctionFinalized { .. }
            ) {
                let eth_price = engine
                    .market_oracle
                    .price_at(logged.block, Token::ETH)
                    .unwrap_or_else(|| engine.market_oracle.price_or_zero(Token::ETH));
                observer.on_liquidation(&LiquidationObservation {
                    logged,
                    eth_price,
                    health_factor_before: engine.liquidation_hf.get(&cursor).copied(),
                });
            }
            cursor += 1;
        }
        self.event_cursor = cursor;
        for sample in engine
            .volume_samples
            .get(self.volume_cursor..)
            .unwrap_or(&[])
        {
            observer.on_volume_sample(sample);
        }
        self.volume_cursor = engine.volume_samples.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::SimObserver;
    use defi_chain::LoggedEvent;

    fn short_config(seed: u64, ticks: u64) -> SimConfig {
        let mut config = SimConfig::smoke_test(seed);
        config.end_block = config.start_block + ticks * config.tick_blocks;
        config
    }

    #[derive(Default)]
    struct CountingObserver {
        run_starts: u32,
        ticks: u32,
        events: u32,
        liquidations: u32,
        volume_samples: u32,
        run_ends: u32,
    }

    impl SimObserver for CountingObserver {
        fn on_run_start(&mut self, _run: &RunStart<'_>) {
            self.run_starts += 1;
        }
        fn on_tick_start(&mut self, _tick: &TickStart) {
            self.ticks += 1;
        }
        fn on_event(&mut self, _logged: &LoggedEvent) {
            self.events += 1;
        }
        fn on_liquidation(&mut self, _liquidation: &LiquidationObservation<'_>) {
            self.liquidations += 1;
        }
        fn on_volume_sample(&mut self, _sample: &crate::VolumeSample) {
            self.volume_samples += 1;
        }
        fn on_run_end(&mut self, _end: &RunEnd<'_>) {
            self.run_ends += 1;
        }
    }

    #[test]
    fn session_streams_the_same_run_as_batch() {
        let batch = SimulationEngine::new(short_config(21, 40)).run();
        let mut observer = CountingObserver::default();
        let streamed = SimulationEngine::new(short_config(21, 40))
            .session()
            .run_to_end(&mut observer)
            .unwrap();
        assert_eq!(batch.chain.events().len(), streamed.chain.events().len());
        assert_eq!(batch.volume_samples.len(), streamed.volume_samples.len());
        assert_eq!(batch.snapshot_block, streamed.snapshot_block);
        assert_eq!(observer.run_starts, 1);
        assert_eq!(observer.run_ends, 1);
        assert_eq!(observer.ticks as u64, streamed.config.tick_count());
        assert_eq!(observer.events, streamed.chain.events().len() as u32);
        assert_eq!(
            observer.volume_samples,
            streamed.volume_samples.len() as u32
        );
    }

    #[test]
    fn stepping_pauses_and_resumes() {
        let config = short_config(22, 10);
        let end = config.end_block;
        let mut session = SimulationEngine::new(config).session();
        let mut observer = NullObserver;
        assert_eq!(session.ticks_run(), 0);
        assert_eq!(session.step(&mut observer).unwrap(), SessionStatus::Running);
        assert_eq!(session.ticks_run(), 1);
        assert!(!session.is_complete());
        let mid = session.snapshot_positions();
        assert!(!mid.is_empty());
        // Mid-run inspection surfaces live chain state.
        assert!(session.chain().current_block() > session.config().start_block);
        let report = session.run_to_end(&mut observer).unwrap();
        assert_eq!(report.snapshot_block, end);
    }

    #[test]
    fn finish_early_truncates_the_report() {
        let mut session = SimulationEngine::new(short_config(23, 20)).session();
        let mut observer = NullObserver;
        for _ in 0..5 {
            session.step(&mut observer).unwrap();
        }
        let block = session.current_block();
        let report = session.finish(&mut observer).unwrap();
        assert_eq!(report.snapshot_block, block);
        assert!(report.snapshot_block < report.config.end_block);
    }

    #[test]
    fn step_after_completion_is_a_no_op() {
        let mut session = SimulationEngine::new(short_config(24, 3)).session();
        let mut observer = CountingObserver::default();
        while session.step(&mut observer).unwrap() == SessionStatus::Running {}
        let ticks = observer.ticks;
        assert_eq!(
            session.step(&mut observer).unwrap(),
            SessionStatus::TicksComplete
        );
        assert_eq!(observer.ticks, ticks, "no extra tick after completion");
    }
}
