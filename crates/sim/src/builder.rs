//! Fluent construction of [`SimulationEngine`]s.
//!
//! [`EngineBuilder`] is the one documented way to assemble an engine:
//! a [`SimConfig`] plus, optionally, a custom protocol set and price
//! scenario. Every default reproduces the paper's study setup, so
//! `EngineBuilder::new(config).build()` is exactly what
//! [`SimulationEngine::new`] does — and swapping any piece is one call:
//!
//! ```
//! use defi_lending::dydx;
//! use defi_sim::{EngineBuilder, SimConfig};
//!
//! // The paper scenario, but with the §5.2.3 one-liquidation-per-block
//! // mitigation switched on for dYdX. Start from the stock constructor so
//! // the market listings stay intact, then tweak what the experiment needs.
//! let mut dydx = dydx();
//! dydx.set_one_liquidation_per_block(true);
//! let engine = EngineBuilder::new(SimConfig::smoke_test(7))
//!     .with_protocol(Box::new(dydx))
//!     .build();
//! # drop(engine);
//! ```
//!
//! Protocols are keyed by [`LendingProtocol::platform`]: `with_protocol`
//! replaces the default implementation for that platform (or adds a new
//! platform), `without_protocol` removes one from the run entirely.

use std::collections::BTreeMap;

use defi_amm::Dex;
use defi_chain::Blockchain;
use defi_lending::{paper_protocols, LendingProtocol};
use defi_oracle::MarketScenario;
use defi_types::{Platform, Token};

use crate::config::SimConfig;
use crate::engine::SimulationEngine;
use crate::scenarios::ScenarioCatalog;

/// The engine's protocol set: every platform behind the unified trait.
pub type ProtocolRegistry = BTreeMap<Platform, Box<dyn LendingProtocol>>;

/// Fluent builder for [`SimulationEngine`].
pub struct EngineBuilder {
    config: SimConfig,
    protocols: ProtocolRegistry,
    scenario: Option<MarketScenario>,
    catalog: ScenarioCatalog,
}

impl EngineBuilder {
    /// Start from a scenario configuration with the paper's five protocols,
    /// the two-year price scenario and the standard deep DEX.
    pub fn new(config: SimConfig) -> Self {
        EngineBuilder {
            config,
            protocols: paper_protocols(),
            scenario: None,
            catalog: ScenarioCatalog::standard(),
        }
    }

    /// Replace the scenario catalog that resolves named scenarios (default:
    /// [`ScenarioCatalog::standard`]). Use this to make user-defined entries
    /// loaded via [`ScenarioCatalog::add_user_entries`] addressable from
    /// [`with_named_scenario`](EngineBuilder::with_named_scenario).
    pub fn with_catalog(mut self, catalog: ScenarioCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Add a protocol, or replace the default implementation of its platform.
    pub fn with_protocol(mut self, protocol: Box<dyn LendingProtocol>) -> Self {
        self.protocols.insert(protocol.platform(), protocol);
        self
    }

    /// Remove a platform from the run.
    pub fn without_protocol(mut self, platform: Platform) -> Self {
        self.protocols.remove(&platform);
        self
    }

    /// Replace the entire protocol registry.
    pub fn with_protocols(mut self, protocols: ProtocolRegistry) -> Self {
        self.protocols = protocols;
        self
    }

    /// Replace the price scenario (default: the paper's two-year path seeded
    /// from the configuration).
    pub fn with_scenario(mut self, scenario: MarketScenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Use a named [`ScenarioCatalog`] entry — or a `+`-composed combination
    /// of entries such as `"liquidation-spiral+stablecoin-depeg"` — as the
    /// price scenario. Each component's configuration adjustments (extra
    /// congestion episodes, bot behaviour, flash-loan availability) are
    /// applied left-to-right when the engine is built. Overrides any
    /// previously set explicit scenario.
    ///
    /// # Panics
    ///
    /// Panics if any component of `name` is not in the builder's catalog.
    pub fn with_named_scenario(mut self, name: &str) -> Self {
        assert!(
            self.catalog.resolve(name).is_some(),
            "unknown scenario '{name}'; valid names: {:?}",
            self.catalog.names()
        );
        self.config.scenario = Some(name.to_string());
        self.scenario = None;
        self
    }

    /// Assemble the engine. The price scenario resolves in order: an explicit
    /// [`with_scenario`](EngineBuilder::with_scenario), then the catalog entry
    /// named by `config.scenario` (set via
    /// [`with_named_scenario`](EngineBuilder::with_named_scenario) or carried
    /// in the configuration, e.g. by a sweep grid), then the paper default.
    pub fn build(self) -> SimulationEngine {
        let EngineBuilder {
            mut config,
            protocols,
            scenario,
            catalog,
        } = self;
        let scenario = match scenario {
            Some(scenario) => scenario,
            None => match config.scenario.clone() {
                Some(name) => catalog.build(&name, &mut config).unwrap_or_else(|| {
                    panic!(
                        "unknown scenario '{name}'; valid names: {:?}",
                        catalog.names()
                    )
                }),
                None => MarketScenario::paper_two_year(config.seed ^ 0xfeed),
            },
        };
        SimulationEngine::from_parts(config, protocols, scenario)
    }
}

/// The default deep DEX: enough ETH/stablecoin and WBTC/ETH depth that
/// flash-loan liquidators can unwind seized collateral (§4.4.4).
pub fn standard_dex(chain: &mut Blockchain) -> Dex {
    let mut dex = Dex::new();
    let ledger = chain.ledger_mut();
    dex.seed_standard_pool(ledger, Token::ETH, 170.0, Token::DAI, 1.0, 400_000_000.0);
    dex.seed_standard_pool(ledger, Token::ETH, 170.0, Token::USDC, 1.0, 400_000_000.0);
    dex.seed_standard_pool(ledger, Token::ETH, 170.0, Token::USDT, 1.0, 200_000_000.0);
    dex.seed_standard_pool(
        ledger,
        Token::WBTC,
        5_300.0,
        Token::ETH,
        170.0,
        200_000_000.0,
    );
    dex
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_types::Platform;

    #[test]
    fn builder_defaults_cover_all_platforms() {
        let builder = EngineBuilder::new(SimConfig::smoke_test(1));
        assert_eq!(builder.protocols.len(), Platform::ALL.len());
    }

    #[test]
    fn without_protocol_removes_a_platform() {
        let builder =
            EngineBuilder::new(SimConfig::smoke_test(1)).without_protocol(Platform::MakerDao);
        assert!(!builder.protocols.contains_key(&Platform::MakerDao));
        assert_eq!(builder.protocols.len(), Platform::ALL.len() - 1);
    }

    #[test]
    fn with_protocol_replaces_by_platform_key() {
        use defi_lending::compound;
        let builder = EngineBuilder::new(SimConfig::smoke_test(1))
            .with_protocol(Box::new(compound()))
            .with_protocol(Box::new(compound()));
        assert_eq!(builder.protocols.len(), Platform::ALL.len());
    }
}
