//! The simulation engine: drives the price scenario, the chain, the protocol
//! registry and the agent populations through the study window, and hands the
//! resulting observable surface (events, gas, positions, volumes) to the
//! analytics crate.
//!
//! Protocols are held behind the unified [`LendingProtocol`] trait in a
//! [`ProtocolRegistry`], so every loop here — liquidity seeding, borrower
//! arrivals, accrual, liquidation driving, volume sampling, the end-of-run
//! snapshot — is registry-driven. Every platform's liquidation opportunities
//! flow through one pipeline, `work_opportunities`: discovery, then either
//! straight to the executor of the platform's [`MechanismKind`] or, under
//! the behavioural layer, into the latency queue, whose due entries are
//! re-checked, handed to the same executors and settled with one `Outcome`
//! each. The mechanism decides only who acts and how: liquidator bots make
//! atomic fixed-spread calls, keeper bots bite to start auctions (and bid
//! on and settle them), all through the one `execute_liquidation` entry
//! point. Every agent action (opening a position, rescue, re-leverage,
//! panic exit, liquidation, bite, bid, deal) is one transaction sent
//! through one helper, `submit`, which looks up the platform's protocol
//! and oracle and runs the action inside [`Blockchain::execute`]; protocol
//! reads outside a transaction share its lookup, `with_protocol`. Engines
//! are assembled through [`EngineBuilder`](crate::EngineBuilder).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

use defi_amm::{AmmError, Dex};
use defi_chain::{
    chain::TxContext, mempool::BackgroundDemand, AuctionPhase, Blockchain, ChainConfig, ChainEvent,
    GweiPrice,
};
use defi_core::mechanism::AuctionParams;
use defi_core::position::{CollateralHolding, DebtHolding, Position};
use defi_lending::{
    AuctionSnapshot, FlashLoanPool, LendingProtocol, LiquidationExecution, LiquidationRequest,
    MechanismKind, Opportunity,
};
use defi_oracle::{MarketScenario, OracleConfig, PriceOracle, ScenarioEvent};
use defi_types::{Address, BlockNumber, FxHashMap, Platform, Token, Wad};

use crate::agents::{
    sample_borrower, sample_keepers, sample_liquidators, BorrowerAgent, KeeperAgent,
    LiquidatorAgent,
};
use crate::behavior::{BehaviorEngine, BehaviorReport, Outcome, PendingOpportunity};
use crate::builder::{standard_dex, ProtocolRegistry};
use crate::config::SimConfig;

/// A periodic sample of collateral volume, used for Figures 4/9 denominators.
#[derive(Debug, Clone, Copy)]
pub struct VolumeSample {
    /// Block of the sample.
    pub block: BlockNumber,
    /// Platform.
    pub platform: Platform,
    /// Total USD value of collateral backing *borrowing* positions.
    pub total_collateral_usd: Wad,
    /// USD value of ETH collateral backing DAI-debt positions (the DAI/ETH
    /// market the §5.1 comparison is restricted to).
    pub dai_eth_collateral_usd: Wad,
    /// Number of open borrowing positions.
    pub open_positions: u32,
}

/// Sell-pressure volume the feedback pass could not route through the DEX,
/// accumulated per token over the whole run. Surfaced in the report (and the
/// repro CLI) so truncated spiral pressure is visible rather than silently
/// dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SkippedVolume {
    /// Token units that found no DEX route.
    pub amount: Wad,
    /// USD value of those units at the market price when skipped.
    pub usd: Wad,
    /// Number of per-tick lots skipped.
    pub lots: u32,
}

/// Everything the analytics layer needs after a run.
#[derive(Debug)]
pub struct SimulationReport {
    /// The scenario configuration that produced the run.
    pub config: SimConfig,
    /// The chain: event log, gas history, block headers.
    pub chain: Blockchain,
    /// The "true" market price history (written every tick).
    pub market_oracle: PriceOracle,
    /// Each platform's own oracle (what its contracts actually saw).
    pub platform_oracles: BTreeMap<Platform, PriceOracle>,
    /// Periodic collateral-volume samples.
    pub volume_samples: Vec<VolumeSample>,
    /// Position books at the end of the run (the snapshot-block state used by
    /// Tables 2–3 and Figure 8).
    pub final_positions: BTreeMap<Platform, Vec<Position>>,
    /// The block of the final snapshot.
    pub snapshot_block: BlockNumber,
    /// Sell-pressure volume per token that the feedback pass skipped for lack
    /// of a DEX route (empty when no feedback scenario ran).
    pub feedback_skipped: BTreeMap<Token, SkippedVolume>,
    /// Behavioural-layer outcome: latency/inventory/panic counters and
    /// per-agent capital exhaustions. `None` when the layer was disabled.
    pub behavior: Option<BehaviorReport>,
}

/// The tokens the flash-loan pools lend, so the only debt a flash-funded
/// liquidation can repay.
const FLASH_LOAN_TOKENS: [Token; 4] = [Token::DAI, Token::USDC, Token::USDT, Token::ETH];

/// What every liquidation of one tick reads: the block, whether gas is
/// congested, and the market ETH price fees are valued at.
#[derive(Debug, Clone, Copy)]
struct TickConditions {
    block: BlockNumber,
    congested: bool,
    eth_price: f64,
}

/// Run `f` against `platform`'s protocol and the oracle its contracts read:
/// the one lookup behind every protocol read that is not a transaction.
/// `None` if the platform is not registered (the registry and the oracle map
/// share keys by construction).
pub(crate) fn with_protocol<R>(
    protocols: &mut ProtocolRegistry,
    oracles: &BTreeMap<Platform, PriceOracle>,
    platform: Platform,
    f: impl FnOnce(&mut dyn LendingProtocol, &PriceOracle) -> R,
) -> Option<R> {
    let oracle = oracles.get(&platform)?;
    let protocol = protocols.get_mut(&platform)?;
    Some(f(protocol.as_mut(), oracle))
}

/// Submit one transaction to `platform`: `f` runs inside
/// [`Blockchain::execute`] against the platform's protocol and oracle, so
/// its ledger moves and events commit or revert together. Returns `f`'s
/// value if the transaction settled, `None` if it reverted (it still paid
/// its gas) or the platform is not registered.
#[allow(clippy::too_many_arguments)]
fn submit<T, E: core::fmt::Display>(
    chain: &mut Blockchain,
    protocols: &mut ProtocolRegistry,
    oracles: &BTreeMap<Platform, PriceOracle>,
    platform: Platform,
    sender: Address,
    gas_price: GweiPrice,
    gas_used: u64,
    f: impl FnOnce(&mut dyn LendingProtocol, &PriceOracle, &mut TxContext<'_>) -> Result<T, E>,
) -> Option<T> {
    with_protocol(protocols, oracles, platform, |protocol, oracle| {
        let outcome = chain.execute(sender, gas_price, gas_used, |ctx| f(protocol, oracle, ctx));
        outcome.result.ok()
    })
    .flatten()
}

/// The simulation engine.
pub struct SimulationEngine {
    pub(crate) config: SimConfig,
    rng: StdRng,
    pub(crate) chain: Blockchain,
    scenario: MarketScenario,
    pub(crate) market_oracle: PriceOracle,
    pub(crate) oracles: BTreeMap<Platform, PriceOracle>,
    pub(crate) dex: Dex,
    flash_pools: BTreeMap<Platform, FlashLoanPool>,
    /// Every protocol behind the unified trait, keyed by platform.
    pub(crate) protocols: ProtocolRegistry,
    borrowers: Vec<BorrowerAgent>,
    /// `(platform, address)` → position of that agent in `borrowers`.
    borrower_index: FxHashMap<(Platform, Address), usize>,
    /// Agents in `borrowers` per platform (no agent ever leaves).
    borrowers_per_platform: FxHashMap<Platform, usize>,
    liquidators: Vec<LiquidatorAgent>,
    /// The bots covering each fixed-spread platform, as indexes into
    /// `liquidators` in population order; built on the platform's first
    /// liquidation attempt (the population never changes after
    /// construction, and building them with the engine would lengthen
    /// every engine build).
    covering: FxHashMap<Platform, Vec<usize>>,
    keepers: Vec<KeeperAgent>,
    borrower_counter: FxHashMap<Platform, u64>,
    /// Active platform-specific oracle irregularities:
    /// (platform, token, multiplier, last block), oldest first. At most a
    /// handful are ever active, so price application scans them.
    irregularities: Vec<(Platform, Token, f64, BlockNumber)>,
    pub(crate) volume_samples: Vec<VolumeSample>,
    auction_params_switched: bool,
    pub(crate) tick_index: u64,
    /// Health factor each settled liquidation's borrower had when the
    /// opportunity was discovered, keyed by the settlement event's index in
    /// the chain log (surfaced to observers for invariant checking).
    pub(crate) liquidation_hf: FxHashMap<usize, Wad>,
    /// Health factor at bite time, keyed by auction id (resolved into
    /// `liquidation_hf` when the auction finalises).
    auction_bite_hf: FxHashMap<u64, Wad>,
    /// Collateral seized this tick, awaiting the sell-pressure pass
    /// (liquidation-spiral scenarios only).
    pending_sell_pressure: Vec<(Token, Wad)>,
    /// Account through which the spiral pass unwinds seized collateral.
    spiral_trader: Address,
    /// Reusable buffer for liquidation-opportunity discovery
    /// ([`LendingProtocol::liquidatable_into`]): one allocation serves every
    /// platform on every tick instead of a fresh vector per discovery call.
    opportunity_scratch: Vec<Opportunity>,
    /// Behavioural agent layer (inventory, latency queues, panic exits);
    /// `None` when `config.behavior.enabled` is false, in which case the
    /// engine runs the baseline perfectly-capitalized instant-reaction model.
    pub(crate) behavior: Option<BehaviorEngine>,
    /// Per-token sell-pressure volume skipped for lack of a DEX route.
    pub(crate) feedback_skipped: BTreeMap<Token, SkippedVolume>,
}

impl SimulationEngine {
    /// Build an engine from a configuration with the paper's default protocol
    /// set, scenario and DEX — shorthand for
    /// [`EngineBuilder::new(config).build()`](crate::EngineBuilder).
    pub fn new(config: SimConfig) -> Self {
        crate::EngineBuilder::new(config).build()
    }

    /// Assemble an engine from its pluggable parts (called by
    /// [`EngineBuilder::build`](crate::EngineBuilder::build)).
    pub(crate) fn from_parts(
        config: SimConfig,
        protocols: ProtocolRegistry,
        scenario: MarketScenario,
    ) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let mut chain_config = ChainConfig {
            start_block: config.start_block,
            ..ChainConfig::default()
        };
        chain_config
            .gas
            .episodes
            .extend(config.extra_congestion_episodes.iter().copied());
        let mut chain = Blockchain::new(chain_config);

        let market_oracle = PriceOracle::new(OracleConfig::every_update());

        // Per-platform oracles: Chainlink-style deviation/heartbeat policies.
        let mut oracles = BTreeMap::new();
        for &platform in protocols.keys() {
            oracles.insert(platform, PriceOracle::new(OracleConfig::default()));
        }

        // Flash-loan pools (Aave V1/V2 and dYdX act as flash pools, Table 4).
        let mut flash_pools = BTreeMap::new();
        for platform in [Platform::AaveV1, Platform::AaveV2, Platform::DyDx] {
            let pool = FlashLoanPool::for_platform(platform);
            for token in FLASH_LOAN_TOKENS {
                pool.seed(chain.ledger_mut(), token, Wad::from_int(500_000_000));
            }
            flash_pools.insert(platform, pool);
        }

        // A deep DEX so flash-loan liquidators can unwind collateral.
        let dex = standard_dex(&mut chain);

        // Agent populations: liquidator bots for fixed-spread platforms,
        // keeper bots for auction platforms. Sampling is seed-derived per
        // platform (not drawn from the engine RNG), so the populations are
        // independent of registry iteration order.
        let max_latency = config.behavior.max_latency_ticks;
        let mut liquidators = Vec::new();
        let mut keeper_count = 4;
        for population in &config.populations {
            let mechanism = protocols.get(&population.platform).map(|p| p.mechanism());
            match mechanism {
                Some(MechanismKind::FixedSpread) => {
                    liquidators.extend(sample_liquidators(
                        config.seed,
                        population,
                        config.stale_bot_share,
                        config.flash_loan_probability,
                        max_latency,
                    ));
                }
                Some(MechanismKind::Auction) => {
                    keeper_count = population.liquidator_count;
                }
                None => {}
            }
        }
        let keepers = sample_keepers(
            config.seed,
            keeper_count,
            config.stale_bot_share,
            max_latency,
        );

        let behavior = config
            .behavior
            .enabled
            .then(|| BehaviorEngine::new(config.behavior.clone(), config.seed, config.tick_blocks));

        SimulationEngine {
            rng,
            chain,
            scenario,
            market_oracle,
            oracles,
            dex,
            flash_pools,
            protocols,
            borrowers: Vec::new(),
            borrower_index: FxHashMap::default(),
            borrowers_per_platform: FxHashMap::default(),
            liquidators,
            covering: FxHashMap::default(),
            keepers,
            borrower_counter: FxHashMap::default(),
            irregularities: Vec::new(),
            volume_samples: Vec::new(),
            auction_params_switched: false,
            tick_index: 0,
            liquidation_hf: FxHashMap::default(),
            auction_bite_hf: FxHashMap::default(),
            pending_sell_pressure: Vec::new(),
            spiral_trader: Address::from_label("spiral-unwind"),
            opportunity_scratch: Vec::new(),
            behavior,
            feedback_skipped: BTreeMap::new(),
            config,
        }
    }

    /// Open a streaming [`Session`](crate::Session) over this engine — the
    /// primary run surface: step, pause, inspect and checkpoint the run while
    /// [`SimObserver`](crate::SimObserver)s consume it.
    pub fn session(self) -> crate::Session {
        crate::Session::new(self)
    }

    /// Run the configured scenario to completion and return the report.
    ///
    /// Thin compatibility wrapper over the session API, equivalent to
    /// `self.session().run_to_end(&mut NullObserver)`. Panics if genesis
    /// liquidity seeding fails; use [`Session`](crate::Session) directly for
    /// the recoverable error path.
    pub fn run(self) -> SimulationReport {
        self.session()
            .run_to_end(&mut crate::NullObserver)
            // lint:allow(hot-unwrap) documented infallible compatibility wrapper: a genesis seeding failure is a configuration error that must abort; Session::run_to_end is the recoverable path
            .expect("simulation start-up failed")
    }

    // ------------------------------------------------------------------ setup

    pub(crate) fn seed_initial_prices(&mut self) {
        let block = self.config.start_block;
        let updates = self.scenario.advance(block);
        for (token, price) in &updates {
            self.market_oracle.set_price(block, *token, *price);
            for oracle in self.oracles.values_mut() {
                oracle.set_price(block, *token, *price);
            }
        }
    }

    /// Genesis lenders deposit deep liquidity in every pool-funded market so
    /// borrowers can actually borrow. Mint-on-demand protocols (MakerDAO)
    /// report no lendable tokens and are skipped. A reverted deposit is a
    /// hard error — the run would otherwise start with an unfunded market
    /// and silently produce no borrowing activity on that platform.
    pub(crate) fn seed_pool_liquidity(&mut self) -> Result<(), crate::SimError> {
        let user_op_gas = self.config.user_op_gas;
        let chain = &mut self.chain;
        for (platform, protocol) in self.protocols.iter_mut() {
            let Some(oracle) = self.oracles.get(platform) else {
                continue; // registry and oracle map share keys by construction
            };
            let lender = Address::from_label(&format!("genesis-lender-{}", platform.name()));
            for token in protocol.lendable_tokens() {
                let price = oracle.price_or_zero(token).to_f64().max(1e-9);
                // 400M USD of depth per market.
                let amount = Wad::from_f64(400_000_000.0 / price);
                chain.fund(lender, token, amount);
                let outcome = chain.execute(lender, 20, user_op_gas, |ctx| {
                    protocol.deposit(ctx.ledger, ctx.events, lender, token, amount)
                });
                if let Err(error) = outcome.result {
                    return Err(crate::SimError::GenesisDeposit {
                        platform: *platform,
                        token,
                        reason: error.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------- tick

    pub(crate) fn tick(&mut self, block: BlockNumber) {
        self.update_prices(block);
        let congested = self.chain.gas_market().is_congested(block);
        self.chain
            .advance_to(block, if congested { 5_000 } else { 50 });

        self.maybe_switch_auction_regime(block);
        self.replenish_behavior_inventory();
        self.spawn_borrowers(block);
        self.accrue_protocols(block);
        self.run_market_panic_exits();
        self.drive_liquidations(block, congested);
        self.apply_sell_pressure_feedback();

        if self
            .tick_index
            .is_multiple_of(self.config.insurance_writeoff_interval.max(1))
        {
            // Protocols without an insurance fund report zero and skip.
            for (platform, protocol) in self.protocols.iter_mut() {
                if let Some(oracle) = self.oracles.get(platform) {
                    protocol.write_off_insolvent_positions(oracle);
                }
            }
        }
        if self
            .tick_index
            .is_multiple_of(self.config.volume_sample_interval.max(1))
        {
            self.sample_volumes(block);
        }
    }

    fn update_prices(&mut self, block: BlockNumber) {
        let previous_block = block.saturating_sub(self.config.tick_blocks);
        let updates = self.scenario.advance(block);

        // New scripted irregularities starting this tick.
        for event in self.scenario.events_between(previous_block, block) {
            match event {
                ScenarioEvent::OracleIrregularity {
                    block: start,
                    platform,
                    token,
                    price_multiplier,
                    duration_blocks,
                } => {
                    self.irregularities.push((
                        platform,
                        token,
                        price_multiplier,
                        start + duration_blocks,
                    ));
                }
            }
        }
        self.irregularities.retain(|(_, _, _, end)| *end >= block);

        for (token, price) in &updates {
            self.market_oracle.set_price(block, *token, *price);
            for (platform, oracle) in self.oracles.iter_mut() {
                // The latest irregularity on a (platform, token) wins.
                let multiplier = self
                    .irregularities
                    .iter()
                    .rev()
                    .find(|(p, t, _, _)| p == platform && t == token)
                    .map_or(1.0, |&(_, _, multiplier, _)| multiplier);
                if (multiplier - 1.0).abs() > 1e-9 {
                    // Irregular prices are pushed unconditionally (they came
                    // from a signed off-chain message, as on Compound).
                    let effective = Wad::from_f64(price.to_f64() * multiplier);
                    oracle.set_price(block, *token, effective);
                } else {
                    oracle.observe(block, *token, *price);
                }
            }
        }
    }

    /// Apply MakerDAO's post-March-2020 auction-parameter governance change
    /// (Figure 7). The switch is scoped to the platform whose history it
    /// models — other auction protocols in the registry keep the parameters
    /// they were built with.
    fn maybe_switch_auction_regime(&mut self, block: BlockNumber) {
        if !self.auction_params_switched && block >= self.config.maker_param_change_block {
            if let Some(protocol) = self.protocols.get_mut(&Platform::MakerDao) {
                protocol.set_auction_params(AuctionParams::maker_post_march_2020());
            }
            self.auction_params_switched = true;
        }
    }

    fn accrue_protocols(&mut self, block: BlockNumber) {
        for protocol in self.protocols.values_mut() {
            protocol.accrue(block);
        }
    }

    /// Fraction of the configured window simulated at `block` (0–1).
    pub(crate) fn progress(&self, block: BlockNumber) -> f64 {
        let span = (self.config.end_block - self.config.start_block).max(1) as f64;
        ((block - self.config.start_block) as f64 / span).clamp(0.0, 1.0)
    }

    // -------------------------------------------------------------- borrowers

    fn spawn_borrowers(&mut self, block: BlockNumber) {
        let progress = self.progress(block);
        let populations = self.config.populations.clone();
        for population in &populations {
            let platform = population.platform;
            if !self.protocols.contains_key(&platform) || block < platform.inception_block() {
                continue;
            }
            // Aave V1 stops growing once V2 launches (liquidity migrated).
            let mut rate = population.borrower_arrival_rate * (0.10 + 0.90 * progress);
            if platform == Platform::AaveV1 && block >= Platform::AaveV2.inception_block() {
                rate *= 0.1;
            }
            let active = self
                .borrowers_per_platform
                .get(&platform)
                .copied()
                .unwrap_or(0);
            if active >= population.max_borrowers {
                continue;
            }
            let arrivals = if self.rng.gen_bool(rate.fract().clamp(0.0, 1.0)) {
                rate.trunc() as usize + 1
            } else {
                rate.trunc() as usize
            };
            for _ in 0..arrivals {
                let counter = self.borrower_counter.entry(platform).or_insert(0);
                *counter += 1;
                let index = *counter;
                let borrower = sample_borrower(
                    self.config.seed,
                    population,
                    index,
                    self.config.behavior.panic_share,
                );
                if self.open_position_for(&borrower) {
                    // A repeated address keeps resolving to its first agent.
                    self.borrower_index
                        .entry((platform, borrower.address))
                        .or_insert(self.borrowers.len());
                    *self.borrowers_per_platform.entry(platform).or_insert(0) += 1;
                    self.borrowers.push(borrower);
                }
            }
        }
    }

    /// The borrower agent owning `owner`'s position on `platform`.
    fn borrower(&self, platform: Platform, owner: Address) -> Option<&BorrowerAgent> {
        let &index = self.borrower_index.get(&(platform, owner))?;
        self.borrowers.get(index)
    }

    /// Open the borrower's position on-chain through the unified protocol
    /// API: deposit the collateral basket, then borrow towards the agent's
    /// target collateralization, never exceeding ~98.5 % of the
    /// protocol-reported borrowing capacity. Returns false if it failed.
    ///
    /// The target is interpreted per mechanism, preserving each population's
    /// calibration: fixed-spread borrowers target `collateral / debt`
    /// (their buffer sits inside the liquidation threshold), while CDP
    /// owners size their buffer *on top of* the protocol's required
    /// collateralization ratio — i.e. relative to the borrowing capacity.
    fn open_position_for(&mut self, borrower: &BorrowerAgent) -> bool {
        let platform = borrower.platform;
        let gas = self.chain.gas_market_mut().competitive_bid(0.0);
        let Some(oracle) = self.oracles.get(&platform) else {
            return false;
        };
        let address = borrower.address;
        // Fund and deposit each collateral token (split the value evenly).
        let share = borrower.collateral_value_usd / borrower.collateral_tokens.len() as f64;
        let mut deposits = Vec::new();
        for &token in &borrower.collateral_tokens {
            let price = oracle.price_or_zero(token).to_f64().max(1e-9);
            let amount = Wad::from_f64(share / price);
            self.chain.fund(address, token, amount);
            deposits.push((token, amount));
        }
        let debt_price = oracle.price_or_zero(borrower.debt_token).to_f64().max(1e-9);
        let collateral_value_usd = borrower.collateral_value_usd;
        let target_collateralization = borrower.target_collateralization;
        let debt_token = borrower.debt_token;
        submit(
            &mut self.chain,
            &mut self.protocols,
            &self.oracles,
            platform,
            address,
            gas,
            self.config.user_op_gas,
            |protocol, oracle, ctx| -> Result<(), Box<dyn std::error::Error>> {
                for (token, amount) in &deposits {
                    protocol.deposit(ctx.ledger, ctx.events, address, *token, *amount)?;
                }
                let capacity = protocol
                    .position(oracle, address)
                    .map(|p| p.borrowing_capacity())
                    .unwrap_or(Wad::ZERO);
                let desired_debt_usd = match protocol.mechanism() {
                    MechanismKind::FixedSpread => {
                        collateral_value_usd / target_collateralization.max(1.05)
                    }
                    MechanismKind::Auction => {
                        capacity.to_f64() / target_collateralization.max(1.02)
                    }
                };
                // Cap the borrow just under the borrowing capacity.
                let borrow_usd = Wad::from_f64(desired_debt_usd).min(
                    capacity
                        .checked_mul(Wad::from_f64(0.985))
                        .unwrap_or(capacity),
                );
                let amount = Wad::from_f64(borrow_usd.to_f64() / debt_price);
                if amount.is_zero() {
                    return Err("zero borrow".into());
                }
                Ok(protocol.borrow(
                    ctx.ledger, ctx.events, oracle, ctx.block, address, debt_token, amount,
                )?)
            },
        )
        .is_some()
    }

    // ------------------------------------------------------------ liquidation

    /// Work every platform in registry order: a fixed-spread platform's
    /// borrowers manage their positions first, then the platform's
    /// opportunities run through `work_opportunities`, and an auction
    /// platform's keepers bid on and settle its open auctions.
    fn drive_liquidations(&mut self, block: BlockNumber, congested: bool) {
        let platforms: Vec<(Platform, MechanismKind)> = self
            .protocols
            .iter()
            .map(|(platform, protocol)| (*platform, protocol.mechanism()))
            .collect();
        let tick = TickConditions {
            block,
            congested,
            eth_price: self.market_oracle.price_or_zero(Token::ETH).to_f64(),
        };
        for (platform, mechanism) in platforms {
            match mechanism {
                MechanismKind::FixedSpread => self.manage_borrower_positions(platform, congested),
                // Without keepers nobody bites, bids or settles.
                MechanismKind::Auction if self.keepers.is_empty() => continue,
                MechanismKind::Auction => {}
            }
            self.work_opportunities(platform, mechanism, tick);
            if mechanism == MechanismKind::Auction {
                self.run_auction_keepers(platform, block, congested);
            }
        }
    }

    /// The one opportunity pipeline. Discovery fills the reused scratch
    /// with `platform`'s liquidatable positions. Without the behavioural
    /// layer each goes straight to its mechanism's executor. With it each
    /// is queued instead, and the platform's due entries (those past their
    /// TTL are dropped stale) go through `execute_due` to the same
    /// executors and are settled with the outcome they return; a
    /// zero-latency agent acts on the tick of discovery.
    fn work_opportunities(
        &mut self,
        platform: Platform,
        mechanism: MechanismKind,
        tick: TickConditions,
    ) {
        let mut opportunities = std::mem::take(&mut self.opportunity_scratch);
        with_protocol(
            &mut self.protocols,
            &self.oracles,
            platform,
            |protocol, oracle| protocol.liquidatable_into(oracle, &mut opportunities),
        );
        match self.behavior.as_mut() {
            Some(behavior) => {
                for opportunity in &opportunities {
                    behavior.queue(platform, opportunity.borrower, tick.block);
                }
            }
            None => {
                for opportunity in &opportunities {
                    self.execute(mechanism, opportunity, None, tick);
                }
            }
        }
        opportunities.clear();
        self.opportunity_scratch = opportunities;

        let Some(behavior) = self.behavior.as_mut() else {
            return;
        };
        for entry in behavior.take_due(platform, tick.block) {
            let outcome = self.execute_due(mechanism, &entry, tick);
            if let Some(behavior) = self.behavior.as_mut() {
                behavior.settle(entry, outcome);
            }
        }
    }

    /// A due entry re-checks the health factor at execution — the position
    /// may have been rescued, repaid or already liquidated since discovery
    /// — and a position still liquidatable goes to its mechanism's executor
    /// with the health factor the re-check read.
    fn execute_due(
        &mut self,
        mechanism: MechanismKind,
        entry: &PendingOpportunity,
        tick: TickConditions,
    ) -> Outcome {
        let Some(position) = with_protocol(
            &mut self.protocols,
            &self.oracles,
            entry.platform,
            |protocol, oracle| protocol.position(oracle, entry.borrower),
        ) else {
            return Outcome::Dropped;
        };
        let Some(position) = position else {
            return Outcome::Stale;
        };
        let Some(hf) = position.liquidatable_health_factor() else {
            return Outcome::Stale;
        };
        let opportunity = Opportunity {
            platform: entry.platform,
            borrower: entry.borrower,
            position,
            mechanism,
        };
        self.execute(mechanism, &opportunity, Some((entry, hf)), tick)
    }

    /// Hand one opportunity to its mechanism's executor; `due` is its queue
    /// entry under the behavioural layer, with the position's health factor
    /// at the re-check.
    fn execute(
        &mut self,
        mechanism: MechanismKind,
        opportunity: &Opportunity,
        due: Option<(&PendingOpportunity, Wad)>,
        tick: TickConditions,
    ) -> Outcome {
        match mechanism {
            MechanismKind::FixedSpread => self.liquidate(opportunity, due, tick),
            MechanismKind::Auction => self.bite(opportunity, due, tick),
        }
    }

    /// Borrower-side management on a fixed-spread platform: rescue positions
    /// close to liquidation, re-leverage positions whose collateral has
    /// appreciated far beyond the target. The scan consumes the protocol's
    /// *banded* at-risk iterator — far-from-threshold borrowers whose
    /// certified health-factor envelope holds are never read, let alone
    /// re-valued — and the few positions in the actionable bands are
    /// extracted and acted on afterwards (the actions mutate the protocol,
    /// never the scan's snapshot — same semantics the old full walk had).
    fn manage_borrower_positions(&mut self, platform: Platform, congested: bool) {
        enum Action {
            /// HF in [1, RESCUE_BAND_HF): the borrower may rescue-repay (or,
            /// under the behavioural layer, panic-exit).
            Rescue {
                owner: Address,
                debt_value: Wad,
                hf: Wad,
            },
            /// HF > RELEVERAGE_BAND_HF: the borrower may re-leverage.
            Releverage {
                owner: Address,
                capacity: Wad,
                debt_value: Wad,
            },
        }
        let mut actions: Vec<Action> = Vec::new();
        let rescue_band = Wad::from_f64(defi_lending::RESCUE_BAND_HF);
        let releverage_band = Wad::from_f64(defi_lending::RELEVERAGE_BAND_HF);
        with_protocol(
            &mut self.protocols,
            &self.oracles,
            platform,
            |protocol, oracle| {
                protocol.for_each_at_risk(oracle, rescue_band, releverage_band, &mut |position| {
                    // The at-risk surface starts at HF 1: liquidatable accounts
                    // are the liquidation pass's.
                    let Some(hf) = position.health_factor() else {
                        return;
                    };
                    if hf < rescue_band {
                        actions.push(Action::Rescue {
                            owner: position.owner,
                            debt_value: position.total_debt_value(),
                            hf,
                        });
                    } else if hf > releverage_band {
                        // Collateral appreciated well beyond the borrower's
                        // target: many borrowers re-leverage, which is what keeps
                        // the aggregate book sensitive to price declines
                        // (Figure 8) throughout the bull market.
                        actions.push(Action::Releverage {
                            owner: position.owner,
                            capacity: position.borrowing_capacity(),
                            debt_value: position.total_debt_value(),
                        });
                    }
                });
            },
        );
        for action in actions {
            match action {
                Action::Rescue {
                    owner,
                    debt_value,
                    hf,
                } => {
                    self.maybe_manage_position(platform, owner, debt_value, hf, congested);
                }
                Action::Releverage {
                    owner,
                    capacity,
                    debt_value,
                } => {
                    self.maybe_releverage_position(platform, owner, capacity, debt_value);
                }
            }
        }
    }

    /// A borrower whose collateral has appreciated far beyond their target
    /// borrows more against it (with some probability per tick), restoring a
    /// riskier health factor.
    fn maybe_releverage_position(
        &mut self,
        platform: Platform,
        owner: Address,
        capacity: Wad,
        debt_value: Wad,
    ) {
        if !self.rng.gen_bool(0.10) {
            return;
        }
        let Some(agent) = self.borrower(platform, owner) else {
            return;
        };
        let address = agent.address;
        let debt_token = agent.debt_token;
        let Some(oracle) = self.oracles.get(&platform) else {
            return;
        };
        let debt_price = oracle.price_or_zero(debt_token).to_f64().max(1e-9);
        // Borrow back up to ~80% of the borrowing capacity.
        let capacity = capacity.to_f64();
        let current_debt = debt_value.to_f64();
        let target_debt = capacity * self.rng.gen_range(0.60..0.85);
        if target_debt <= current_debt {
            return;
        }
        let amount = Wad::from_f64((target_debt - current_debt) / debt_price);
        let gas = self.chain.gas_market_mut().competitive_bid(0.1);
        submit(
            &mut self.chain,
            &mut self.protocols,
            &self.oracles,
            platform,
            address,
            gas,
            self.config.user_op_gas,
            |protocol, oracle, ctx| {
                protocol.borrow(
                    ctx.ledger, ctx.events, oracle, ctx.block, address, debt_token, amount,
                )
            },
        );
    }

    /// An active borrower tops up collateral (or repays) when the position is
    /// close to liquidation; under congestion most such rescue transactions
    /// do not make it in time. Under the behavioural layer, panic-prone
    /// borrowers whose health factor has slipped below the panic threshold
    /// deleverage hard instead, selling collateral into the market.
    fn maybe_manage_position(
        &mut self,
        platform: Platform,
        owner: Address,
        debt_value: Wad,
        hf: Wad,
        congested: bool,
    ) {
        let Some(agent) = self.borrower(platform, owner) else {
            return;
        };
        let active_manager = agent.active_manager;
        let panic_exiter = agent.panic_exiter;
        let address = agent.address;
        let debt_token = agent.debt_token;
        let primary_collateral = agent.collateral_tokens.first().copied();
        let panics = panic_exiter
            && match self.behavior.as_mut() {
                Some(behavior) if hf.to_f64() < behavior.config.panic_hf => behavior.draw_panic(),
                _ => false,
            };
        if panics {
            self.panic_deleverage(
                platform,
                address,
                debt_token,
                primary_collateral,
                debt_value,
            );
            return;
        }
        if !active_manager {
            return;
        }
        let rescue_probability = if congested { 0.15 } else { 0.70 };
        if !self.rng.gen_bool(rescue_probability) {
            return;
        }
        let gas = self.chain.gas_market_mut().competitive_bid(0.2);
        // Repay ~25% of the outstanding debt with fresh external funds.
        let repay_usd = debt_value.to_f64() * 0.25;
        let Some(oracle) = self.oracles.get(&platform) else {
            return;
        };
        let debt_price = oracle.price_or_zero(debt_token).to_f64().max(1e-9);
        let amount = Wad::from_f64(repay_usd / debt_price);
        self.chain.fund(address, debt_token, amount);
        submit(
            &mut self.chain,
            &mut self.protocols,
            &self.oracles,
            platform,
            address,
            gas,
            self.config.user_op_gas,
            |protocol, _, ctx| {
                protocol.repay(
                    ctx.ledger, ctx.events, ctx.block, address, debt_token, amount,
                )
            },
        );
    }

    /// A liquidator bot races a fixed-spread liquidation. Without the
    /// behavioural layer a random covering bot acts at once with unlimited
    /// inventory; with it, `ready_liquidator` picks the bot.
    fn liquidate(
        &mut self,
        opportunity: &Opportunity,
        due: Option<(&PendingOpportunity, Wad)>,
        tick: TickConditions,
    ) -> Outcome {
        let platform = opportunity.platform;
        let liquidators = &self.liquidators;
        let covering = self.covering.entry(platform).or_insert_with(|| {
            liquidators
                .iter()
                .enumerate()
                .filter(|(_, l)| l.platforms.contains(&platform))
                .map(|(index, _)| index)
                .collect()
        });
        if covering.is_empty() {
            return Outcome::Dropped;
        }
        // The random pick is drawn before the exposures are checked (the
        // RNG stream depends on it), but the agent is only cloned for a
        // position with something to seize — most opportunities are
        // collateral-free debtors.
        let drawn = match due {
            None => covering.get(self.rng.gen_range(0..covering.len())).copied(),
            Some(_) => None,
        };
        let Some(exposures @ (_, debt)) = Self::pick_exposures(&opportunity.position) else {
            return Outcome::Dropped;
        };
        let (liquidator, use_flash) = match due {
            Some((entry, _)) => match self.ready_liquidator(platform, entry, tick.block, debt) {
                Ok(picked) => picked,
                Err(outcome) => return outcome,
            },
            None => {
                let Some(liquidator) = drawn.and_then(|index| self.liquidators.get(index)).cloned()
                else {
                    return Outcome::Dropped;
                };
                let use_flash = liquidator.uses_flash_loans
                    && self.rng.gen_bool(0.75)
                    && FLASH_LOAN_TOKENS.contains(&debt.token);
                (liquidator, use_flash)
            }
        };
        // Excluded or unprofitable this tick: gas conditions change tick to
        // tick, so a queued entry stays pending until its TTL lapses.
        let checked_hf = due.map(|(_, hf)| hf);
        if self.execute_fixed_spread(
            opportunity,
            exposures,
            &liquidator,
            use_flash,
            checked_hf,
            tick,
        ) {
            Outcome::Executed
        } else {
            Outcome::Requeue
        }
    }

    /// The behavioural pick for a due fixed-spread entry: of the covering
    /// bots whose latency has elapsed, tried in latency order, the first
    /// whose inventory covers the repay acts, else a flash-capable one
    /// borrows the repay. `Err` settles the entry: requeued when nobody is
    /// ready, or when everyone ready is out of capital — the cascade has
    /// outrun the liquidators, the cohort is recorded exhausted, and
    /// replenishment may fund the entry before its TTL lapses.
    fn ready_liquidator(
        &mut self,
        platform: Platform,
        entry: &PendingOpportunity,
        block: BlockNumber,
        debt: DebtHolding,
    ) -> Result<(LiquidatorAgent, bool), Outcome> {
        let (Some(behavior), Some(covering), Some(protocol)) = (
            self.behavior.as_mut(),
            self.covering.get(&platform),
            self.protocols.get(&platform),
        ) else {
            return Err(Outcome::Dropped);
        };
        let repay_amount = debt
            .amount
            .checked_mul(protocol.close_factor())
            .unwrap_or(Wad::ZERO);
        let debt_price = self.market_oracle.price_or_zero(debt.token).to_f64();
        let liquidators = &self.liquidators;
        let ranked = || {
            covering.iter().filter_map(|&index| {
                let l = liquidators.get(index)?;
                Some((index, l.latency_ticks, l.address))
            })
        };
        let ready: Vec<&LiquidatorAgent> = behavior
            .ready_agents(entry, block, ranked)
            .filter_map(|index| liquidators.get(index))
            .collect();
        if ready.is_empty() {
            return Err(Outcome::Requeue);
        }
        let funded = ready
            .iter()
            .find(|l| behavior.can_cover(l.address, debt.token, repay_amount, debt_price));
        if let Some(l) = funded {
            return Ok(((*l).clone(), false));
        }
        if FLASH_LOAN_TOKENS.contains(&debt.token) {
            if let Some(l) = ready.iter().find(|l| l.uses_flash_loans) {
                return Ok(((*l).clone(), true));
            }
        }
        let addresses: Vec<Address> = ready.iter().map(|l| l.address).collect();
        behavior.record_exhaustion(&addresses);
        Err(Outcome::Requeue)
    }

    /// Seize the most valuable collateral, repay the largest debt.
    fn pick_exposures(position: &Position) -> Option<(CollateralHolding, DebtHolding)> {
        let collateral = position
            .collateral
            .iter()
            .max_by_key(|c| c.value_usd)
            .copied()?;
        let debt = position.debt.iter().max_by_key(|d| d.value_usd).copied()?;
        Some((collateral, debt))
    }

    /// Execute one fixed-spread liquidation for a chosen liquidator: gas
    /// bidding, mempool inclusion, the §4.4.3 profitability check, then an
    /// inventory- or flash-loan-funded `execute_liquidation`. A settled
    /// inventory-funded repay draws on the bot's behavioural inventory.
    /// `checked_hf` is the health factor a due entry's re-check read; the
    /// direct path reads it here, once the gas and profit checks pass.
    /// Returns whether the liquidation settled on-chain.
    fn execute_fixed_spread(
        &mut self,
        opportunity: &Opportunity,
        (collateral, debt): (CollateralHolding, DebtHolding),
        liquidator: &LiquidatorAgent,
        use_flash: bool,
        checked_hf: Option<Wad>,
        tick: TickConditions,
    ) -> bool {
        let TickConditions {
            block,
            congested,
            eth_price,
        } = tick;
        let (platform, position) = (opportunity.platform, &opportunity.position);
        let Some(close_factor) = self.protocols.get(&platform).map(|p| p.close_factor()) else {
            return false;
        };
        let repay_amount = debt.amount.checked_mul(close_factor).unwrap_or(Wad::ZERO);
        let repay_usd = debt
            .value_usd
            .checked_mul(close_factor)
            .unwrap_or(Wad::ZERO);
        let expected_bonus = repay_usd
            .checked_mul(collateral.liquidation_spread)
            .unwrap_or(Wad::ZERO);

        // Gas bidding: competitive unless the bot is stale under congestion.
        // A minority of bots bid frugally below the prevailing median even in
        // calm conditions, which is what puts some liquidations below the
        // average line in Figure 6.
        let frugal = self.rng.gen_bool(0.25);
        let gas_price: GweiPrice = if congested && liquidator.stale_under_congestion {
            self.chain.gas_market_mut().passive_bid(0.4)
        } else if frugal {
            let discount = self.rng.gen_range(0.05..0.35);
            self.chain.gas_market_mut().passive_bid(discount)
        } else {
            self.chain
                .gas_market_mut()
                .competitive_bid(liquidator.gas_aggressiveness)
        };
        // Inclusion against background demand.
        let liquidation_gas = self.config.liquidation_gas;
        let median = self.chain.median_gas_price() as f64;
        let demand = if congested {
            BackgroundDemand::congested(median)
        } else {
            BackgroundDemand::calm(median)
        };
        let limit = self.chain.gas_market().block_gas_limit();
        let included = demand.gas_above(gas_price, limit) + liquidation_gas as f64 <= limit as f64;
        if !included {
            return false;
        }
        // Profitability check (§4.4.3): the bonus must cover the transaction fee.
        let fee_usd = gas_price as f64 * liquidation_gas as f64 * 1e-9 * eth_price;
        if expected_bonus.to_f64() <= fee_usd {
            return false;
        }

        let borrower = position.owner;
        let hf_before = checked_hf.or_else(|| position.health_factor());
        let feedback = self.scenario.feedback().is_some();
        let events_before = self.chain.events().len();
        // Pool reserves are ledger balances, so an in-transaction unwind swap
        // reverts with the transaction's checkpoint like everything else.
        let dex = &self.dex;
        let flash_pool = self.flash_pools.get(&liquidator.flash_loan_pool).copied();

        if !use_flash {
            // Inventory-funded liquidation: the bot holds the debt asset.
            self.chain
                .fund(liquidator.address, debt.token, repay_amount);
        }

        let request = LiquidationRequest::FixedSpread {
            liquidator: liquidator.address,
            borrower,
            debt_token: debt.token,
            collateral_token: collateral.token,
            repay_amount,
            used_flash_loan: use_flash,
        };
        let settled = submit(
            &mut self.chain,
            &mut self.protocols,
            &self.oracles,
            platform,
            liquidator.address,
            gas_price,
            liquidation_gas,
            |protocol, oracle, ctx| {
                let Some(pool) = flash_pool.filter(|_| use_flash) else {
                    return protocol
                        .execute_liquidation(ctx.ledger, ctx.events, oracle, block, &request)
                        .map(|execution| match execution {
                            LiquidationExecution::FixedSpread(receipt) => Some(receipt),
                            _ => None,
                        });
                };
                pool.flash_loan(
                    ctx.ledger,
                    ctx.events,
                    oracle,
                    liquidator.address,
                    debt.token,
                    repay_amount,
                    |ledger, events| {
                        let execution = protocol
                            .execute_liquidation(ledger, events, oracle, block, &request)?;
                        let LiquidationExecution::FixedSpread(receipt) = execution else {
                            return Err(
                                defi_lending::ProtocolError::UnsupportedLiquidationRequest {
                                    platform,
                                },
                            );
                        };
                        // Unwind the seized collateral into the debt asset to
                        // repay the flash loan.
                        if collateral.token != debt.token {
                            dex.swap(
                                ledger,
                                liquidator.address,
                                collateral.token,
                                debt.token,
                                receipt.collateral_seized,
                            )
                            .map_err(|e| defi_lending::ProtocolError::Ledger(e.to_string()))?;
                        }
                        Ok(Some(receipt))
                    },
                )
            },
        );
        let Some(receipt) = settled else {
            return false;
        };
        if let Some(behavior) = self.behavior.as_mut().filter(|_| !use_flash) {
            let debt_price = self.market_oracle.price_or_zero(debt.token).to_f64();
            behavior.consume(liquidator.address, debt.token, repay_amount, debt_price);
        }
        // Flash-loan unwinds already traded through the DEX inside the
        // transaction; everything else queues for the spiral pass.
        if let Some(receipt) = receipt.filter(|_| feedback && !use_flash) {
            self.pending_sell_pressure
                .push((collateral.token, receipt.collateral_seized));
        }
        self.record_liquidation_context(events_before, hf_before);
        true
    }

    // --------------------------------------------------------------- auctions

    /// A keeper bites the opportunity, starting an auction: a random keeper
    /// without the behavioural layer, the first ready one in latency order
    /// with it. A keeper stale under congestion mostly sits it out. A
    /// settled bite files the position's health factor under the auction id
    /// the protocol hands back.
    fn bite(
        &mut self,
        opportunity: &Opportunity,
        due: Option<(&PendingOpportunity, Wad)>,
        tick: TickConditions,
    ) -> Outcome {
        let keeper = match due {
            None => self.pick_keeper(),
            Some((entry, _)) => {
                let keepers = &self.keepers;
                let ranked = || {
                    keepers
                        .iter()
                        .enumerate()
                        .map(|(index, k)| (index, k.latency_ticks, k.address))
                };
                self.behavior.as_mut().and_then(|behavior| {
                    let first = behavior.ready_agents(entry, tick.block, ranked).next();
                    first.and_then(|index| keepers.get(index)).cloned()
                })
            }
        };
        let Some(keeper) = keeper else {
            return Outcome::Requeue;
        };
        if tick.congested && keeper.stale_under_congestion && self.rng.gen_bool(0.8) {
            return Outcome::Requeue; // overdue liquidation
        }
        let gas = self.chain.gas_market_mut().competitive_bid(0.3);
        let request = LiquidationRequest::StartAuction {
            keeper: keeper.address,
            borrower: opportunity.borrower,
        };
        let Some(execution) = submit(
            &mut self.chain,
            &mut self.protocols,
            &self.oracles,
            opportunity.platform,
            keeper.address,
            gas,
            self.config.auction_gas,
            |protocol, oracle, ctx| {
                protocol.execute_liquidation(ctx.ledger, ctx.events, oracle, ctx.block, &request)
            },
        ) else {
            return Outcome::Requeue;
        };
        let hf = due
            .map(|(_, hf)| hf)
            .or_else(|| opportunity.position.health_factor());
        if let (LiquidationExecution::AuctionStarted(auction_id), Some(hf)) = (execution, hf) {
            self.auction_bite_hf.insert(auction_id, hf);
        }
        Outcome::Executed
    }

    /// Keeper bots bid on an auction platform's open auctions and settle
    /// the terminated ones, through the unified `execute_liquidation` entry
    /// point.
    fn run_auction_keepers(&mut self, platform: Platform, block: BlockNumber, congested: bool) {
        let Some(params) = self
            .protocols
            .get(&platform)
            .and_then(|p| p.auction_params())
        else {
            return;
        };
        let open = self
            .protocols
            .get(&platform)
            .map(|p| p.open_auctions())
            .unwrap_or_default();
        for auction_id in open {
            let snapshot = self
                .protocols
                .get(&platform)
                .and_then(|p| p.auction_snapshot(auction_id));
            let Some(snapshot) = snapshot else {
                continue;
            };
            let finalizable = self
                .protocols
                .get(&platform)
                .is_some_and(|p| p.can_finalize_auction(auction_id, block));
            if finalizable {
                // The winner (or any keeper) settles; occasionally nobody
                // bothers for a while, producing the duration outliers of
                // Figure 7.
                if self.rng.gen_bool(0.85) {
                    let fallback = self.keepers.first().map(|k| k.address);
                    let Some(finalizer) = snapshot.best_bid.map(|b| b.bidder).or(fallback) else {
                        continue;
                    };
                    let feedback = self.scenario.feedback().is_some();
                    let events_before = self.chain.events().len();
                    let gas = self.chain.gas_market_mut().competitive_bid(0.1);
                    let request = LiquidationRequest::SettleAuction {
                        caller: finalizer,
                        auction_id,
                    };
                    let settled = submit(
                        &mut self.chain,
                        &mut self.protocols,
                        &self.oracles,
                        platform,
                        finalizer,
                        gas,
                        self.config.auction_gas,
                        |protocol, oracle, ctx| {
                            protocol
                                .execute_liquidation(
                                    ctx.ledger, ctx.events, oracle, ctx.block, &request,
                                )
                                .map(|execution| match execution {
                                    LiquidationExecution::AuctionSettled(result) => Some(result),
                                    _ => None,
                                })
                        },
                    );
                    let Some(result) = settled else {
                        continue;
                    };
                    if let Some(result) = result.filter(|r| {
                        feedback && r.winner.is_some() && !r.collateral_received.is_zero()
                    }) {
                        self.pending_sell_pressure
                            .push((snapshot.collateral_token, result.collateral_received));
                    }
                    self.record_liquidation_context(events_before, None);
                }
                continue;
            }

            // Several bids can land inside one simulation tick (a tick spans
            // hours while real keepers react within minutes), so run a few
            // bidding rounds against the refreshed auction state.
            for _round in 0..3 {
                let auction = self
                    .protocols
                    .get(&platform)
                    .and_then(|p| p.auction_snapshot(auction_id));
                let Some(auction) = auction else {
                    break;
                };
                if auction.finalized
                    || self
                        .protocols
                        .get(&platform)
                        .is_some_and(|p| p.can_finalize_auction(auction_id, block))
                {
                    break;
                }
                self.run_bidding_round(platform, block, congested, &params, &auction);
            }
        }
    }

    /// A keeper drawn uniformly from the population. The draw comes first,
    /// so the RNG stream does not depend on the lookup; every caller has
    /// checked that keepers exist.
    fn pick_keeper(&mut self) -> Option<KeeperAgent> {
        let pick = self.rng.gen_range(0..self.keepers.len());
        self.keepers.get(pick).cloned()
    }

    /// One keeper considers one bid on one open auction.
    fn run_bidding_round(
        &mut self,
        platform: Platform,
        block: BlockNumber,
        congested: bool,
        params: &AuctionParams,
        auction: &AuctionSnapshot,
    ) {
        let Some(collateral_price) = self
            .oracles
            .get(&platform)
            .map(|o| o.price_or_zero(auction.collateral_token))
        else {
            return;
        };
        let collateral_value = auction
            .collateral
            .checked_mul(collateral_price)
            .unwrap_or(Wad::ZERO);

        // Pick a keeper willing to act in this round.
        let Some(keeper) = self.pick_keeper() else {
            return;
        };
        let keeper_active = if congested {
            if keeper.stale_under_congestion {
                false
            } else {
                self.rng.gen_bool(0.35)
            }
        } else {
            self.rng.gen_bool(0.8)
        };

        if !keeper_active {
            // Congestion sniping: an opportunistic keeper places a near-zero
            // tend bid on an auction that is approaching its termination with
            // no bids at all (the March 2020 "zero-bid" wins).
            let abandoned = auction.best_bid.is_none()
                && block.saturating_sub(auction.started_at) * 2 >= params.auction_length_blocks;
            if congested && abandoned {
                if let Some(sniper) = self
                    .keepers
                    .iter()
                    .find(|k| k.opportunistic_sniper)
                    .cloned()
                {
                    let bid = auction
                        .debt
                        .checked_mul(Wad::from_f64(0.02))
                        .unwrap_or(Wad::ONE)
                        .max(Wad::ONE);
                    self.place_auction_bid(platform, auction, &sniper, bid, Wad::ZERO);
                }
            }
            return;
        }

        let margin = keeper.target_margin;
        match auction.phase {
            AuctionPhase::Tend => {
                let max_pay = Wad::from_f64(collateral_value.to_f64() * (1.0 - margin));
                let current = auction.best_bid.map(|b| b.debt_bid).unwrap_or(Wad::ZERO);
                let next = if max_pay >= auction.debt {
                    // A well-collateralized auction: rational keepers bid the
                    // full debt straight away to flip into the dent phase (the
                    // tend phase is a race, not a price walk).
                    auction.debt
                } else {
                    // Under-collateralized (crash) auction: walk towards the
                    // keeper's maximum willingness to pay.
                    let step = self.rng.gen_range(0.4..0.9);
                    Wad::from_f64(
                        current.to_f64() + (max_pay.to_f64() - current.to_f64()).max(0.0) * step,
                    )
                    .max(Wad::from_f64(max_pay.to_f64() * 0.3))
                };
                let floor = current
                    .checked_mul(Wad::from_f64(1.0 + params.min_bid_increment))
                    .unwrap_or(current);
                let next = next.max(floor).min(auction.debt);
                if next > current && !next.is_zero() {
                    self.place_auction_bid(platform, auction, &keeper, next, Wad::ZERO);
                }
            }
            AuctionPhase::Dent => {
                let desired = Wad::from_f64(
                    auction.debt.to_f64() * (1.0 + margin) / collateral_price.to_f64().max(1e-9),
                );
                let previous = auction
                    .best_bid
                    .map(|b| b.collateral_bid)
                    .unwrap_or(auction.collateral);
                let ceiling = Wad::from_f64(previous.to_f64() / (1.0 + params.min_bid_increment));
                if desired <= ceiling && !desired.is_zero() {
                    self.place_auction_bid(platform, auction, &keeper, auction.debt, desired);
                }
            }
        }
    }

    fn place_auction_bid(
        &mut self,
        platform: Platform,
        auction: &AuctionSnapshot,
        keeper: &KeeperAgent,
        debt_bid: Wad,
        collateral_bid: Wad,
    ) {
        // Keepers fund their bids from inventory (minted on demand here).
        let escrow = debt_bid.max(auction.debt);
        self.chain.fund(keeper.address, Token::DAI, escrow);
        let gas = self.chain.gas_market_mut().competitive_bid(0.2);
        let request = LiquidationRequest::AuctionBid {
            bidder: keeper.address,
            auction_id: auction.id,
            debt_bid,
            collateral_bid,
        };
        submit(
            &mut self.chain,
            &mut self.protocols,
            &self.oracles,
            platform,
            keeper.address,
            gas,
            self.config.auction_gas,
            |protocol, oracle, ctx| {
                protocol.execute_liquidation(ctx.ledger, ctx.events, oracle, ctx.block, &request)
            },
        );
    }

    // --------------------------------------------------------------- behavior

    /// Trickle USD-denominated inventory back into every liquidator slot the
    /// behavioural layer has touched, capped at the initial endowment.
    fn replenish_behavior_inventory(&mut self) {
        let Some(behavior) = self.behavior.as_mut() else {
            return;
        };
        let oracle = &self.market_oracle;
        behavior.replenish(|token| oracle.price_or_zero(token).to_f64());
    }

    /// When the market gaps down hard within one tick, panic-prone borrowers
    /// deleverage en masse regardless of their own health factor, each gated
    /// by the panic-probability draw.
    fn run_market_panic_exits(&mut self) {
        let eth_price = self.market_oracle.price_or_zero(Token::ETH).to_f64();
        let triggered = match self.behavior.as_mut() {
            Some(behavior) => behavior.market_panic_triggered(eth_price),
            None => return,
        };
        if !triggered {
            return;
        }
        let candidates: Vec<(Platform, Address, Token, Option<Token>)> = self
            .borrowers
            .iter()
            .filter(|b| b.panic_exiter)
            .map(|b| {
                (
                    b.platform,
                    b.address,
                    b.debt_token,
                    b.collateral_tokens.first().copied(),
                )
            })
            .collect();
        for (platform, address, debt_token, primary_collateral) in candidates {
            let panics = match self.behavior.as_mut() {
                Some(behavior) => behavior.draw_panic(),
                None => false,
            };
            if !panics {
                continue;
            }
            let Some(Some(debt_value)) = with_protocol(
                &mut self.protocols,
                &self.oracles,
                platform,
                |protocol, oracle| {
                    protocol
                        .position(oracle, address)
                        .map(|position| position.total_debt_value())
                },
            ) else {
                continue;
            };
            if debt_value.is_zero() {
                continue;
            }
            self.panic_deleverage(
                platform,
                address,
                debt_token,
                primary_collateral,
                debt_value,
            );
        }
    }

    /// A panicking borrower repays a large slice of their debt with the
    /// proceeds of selling collateral into the market: the repay goes through
    /// the protocol, and the matching collateral sale joins the tick's
    /// sell-pressure queue (feeding the spiral in feedback scenarios).
    fn panic_deleverage(
        &mut self,
        platform: Platform,
        address: Address,
        debt_token: Token,
        primary_collateral: Option<Token>,
        debt_value: Wad,
    ) {
        let fraction = match self.behavior.as_ref() {
            Some(behavior) => behavior.config.panic_deleverage_fraction.clamp(0.0, 1.0),
            None => return,
        };
        let repay_usd = debt_value.to_f64() * fraction;
        if repay_usd <= 0.0 {
            return;
        }
        let Some(oracle) = self.oracles.get(&platform) else {
            return;
        };
        let debt_price = oracle.price_or_zero(debt_token).to_f64().max(1e-9);
        let collateral_price = primary_collateral
            .map(|token| oracle.price_or_zero(token).to_f64().max(1e-9))
            .unwrap_or(1.0);
        let amount = Wad::from_f64(repay_usd / debt_price);
        // A dust debt can round the repay to nothing: there is no exit to
        // submit, and no gas to bid for it.
        if amount.is_zero() {
            return;
        }
        // Panicking borrowers bid hot — they want out *now*.
        let gas = self.chain.gas_market_mut().competitive_bid(0.3);
        self.chain.fund(address, debt_token, amount);
        let settled = submit(
            &mut self.chain,
            &mut self.protocols,
            &self.oracles,
            platform,
            address,
            gas,
            self.config.user_op_gas,
            |protocol, _, ctx| {
                protocol.repay(
                    ctx.ledger, ctx.events, ctx.block, address, debt_token, amount,
                )
            },
        );
        if settled.is_some() {
            if let Some(token) = primary_collateral {
                let sell_amount = Wad::from_f64(repay_usd / collateral_price);
                self.pending_sell_pressure.push((token, sell_amount));
            }
            if let Some(behavior) = self.behavior.as_mut() {
                behavior.record_panic_exit(repay_usd);
            }
        }
    }

    // --------------------------------------------------------------- feedback

    /// The liquidation-spiral pass: sell every lot of collateral seized this
    /// tick through the DEX and feed the realised pool price impact back into
    /// the market scenario. The swap is executed (not just quoted) so pool
    /// depth depletes across ticks — sustained liquidation pressure has a
    /// compounding impact, which is the toxic-spiral dynamic. Tokens without
    /// a DEX route are *counted* into `feedback_skipped` rather than silently
    /// dropped. No-op unless the scenario enables
    /// [`SellPressureFeedback`](defi_oracle::SellPressureFeedback).
    fn apply_sell_pressure_feedback(&mut self) {
        if self.scenario.feedback().is_none() || self.pending_sell_pressure.is_empty() {
            self.pending_sell_pressure.clear();
            return;
        }
        let mut by_token: BTreeMap<Token, Wad> = BTreeMap::new();
        for (token, amount) in self.pending_sell_pressure.drain(..) {
            let entry = by_token.entry(token).or_insert(Wad::ZERO);
            *entry = entry.saturating_add(amount);
        }
        for (token, amount) in by_token {
            if amount.is_zero() {
                continue;
            }
            // Stablecoin lots unwind into ETH, everything else into DAI (the
            // deepest legs of the standard DEX).
            let target = if matches!(token, Token::DAI | Token::USDC | Token::USDT) {
                Token::ETH
            } else {
                Token::DAI
            };
            match self.settle_pressure_sale(token, target, amount) {
                Ok(price_impact) => self.scenario.apply_sell_pressure(token, price_impact),
                Err(_) => self.record_skipped_pressure(token, amount),
            }
        }
    }

    /// Sell one pressure lot under a ledger checkpoint and return the
    /// route's price impact. The sold lot is minted to the spiral trader, and
    /// if the swap fails — no route, or a multi-hop route that dies after its
    /// first hop executed — the checkpoint revert unwinds both the mint and
    /// any partial hop, so total supply is conserved on every path.
    fn settle_pressure_sale(
        &mut self,
        token: Token,
        target: Token,
        amount: Wad,
    ) -> Result<f64, AmmError> {
        let trader = self.spiral_trader;
        let ledger = self.chain.ledger_mut();
        ledger.begin_checkpoint();
        ledger.mint(trader, token, amount);
        let sale = self.dex.swap(ledger, trader, token, target, amount);
        match sale {
            Ok(_) => ledger.commit_checkpoint(),
            Err(_) => ledger.revert_checkpoint(),
        }
        sale.map(|(_, price_impact)| price_impact)
    }

    /// Accumulate a lot the feedback pass could not route (no-silent-caps:
    /// truncated spiral pressure must be visible in the run summary).
    fn record_skipped_pressure(&mut self, token: Token, amount: Wad) {
        let price = self.market_oracle.price_or_zero(token);
        let usd = amount.checked_mul(price).unwrap_or(Wad::ZERO);
        let entry = self.feedback_skipped.entry(token).or_default();
        entry.amount = entry.amount.saturating_add(amount);
        entry.usd = entry.usd.saturating_add(usd);
        entry.lots += 1;
    }

    /// Map settlement events appended at or after `from_index` to the health
    /// factor their borrower had at discovery (fixed-spread, passed in) or at
    /// bite time (auctions, resolved through `auction_bite_hf`), for
    /// observers that verify liquidations only happen below the threshold.
    fn record_liquidation_context(&mut self, from_index: usize, fixed_spread_hf: Option<Wad>) {
        let mut contexts = Vec::new();
        for (offset, logged) in self
            .chain
            .events()
            .as_slice()
            .get(from_index..)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            match logged.event {
                ChainEvent::Liquidation(_) => {
                    if let Some(hf) = fixed_spread_hf {
                        contexts.push((from_index + offset, hf));
                    }
                }
                ChainEvent::AuctionFinalized { auction_id, .. } => {
                    if let Some(hf) = self.auction_bite_hf.get(&auction_id) {
                        contexts.push((from_index + offset, *hf));
                    }
                }
                _ => {}
            }
        }
        for (index, hf) in contexts {
            self.liquidation_hf.insert(index, hf);
        }
    }

    // ------------------------------------------------------------- sampling

    fn sample_volumes(&mut self, block: BlockNumber) {
        for (platform, protocol) in self.protocols.iter_mut() {
            let Some(oracle) = self.oracles.get(platform) else {
                continue;
            };
            // Running totals maintained by each protocol's incremental book —
            // sampling no longer materialises the position vector.
            let totals = protocol.book_totals(oracle);
            self.volume_samples.push(VolumeSample {
                block,
                platform: *platform,
                total_collateral_usd: totals.collateral_usd,
                dai_eth_collateral_usd: totals.dai_eth_collateral_usd,
                open_positions: totals.open_positions,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineBuilder;
    use defi_chain::{EventFilter, EventKind};

    fn smoke_report(seed: u64) -> SimulationReport {
        SimulationEngine::new(SimConfig::smoke_test(seed)).run()
    }

    #[test]
    fn smoke_scenario_produces_liquidations() {
        let report = smoke_report(42);
        let liquidations = report
            .chain
            .query_events(&EventFilter::any().kind(EventKind::Liquidation))
            .len();
        let auctions = report
            .chain
            .query_events(&EventFilter::any().kind(EventKind::AuctionFinalized))
            .len();
        assert!(
            liquidations > 10,
            "expected fixed-spread liquidations across the March 2020 crash, got {liquidations}"
        );
        assert!(
            auctions > 0,
            "expected at least one finalised Maker auction"
        );
    }

    #[test]
    fn smoke_scenario_records_volumes_and_positions() {
        let report = smoke_report(43);
        assert!(!report.volume_samples.is_empty());
        // Every platform with borrowers shows up in the final snapshot.
        assert!(report.final_positions.contains_key(&Platform::Compound));
        assert!(report.final_positions.contains_key(&Platform::MakerDao));
        let open: usize = report.final_positions.values().map(|v| v.len()).sum();
        assert!(
            open > 10,
            "expected open positions at the snapshot, got {open}"
        );
        assert!(report.snapshot_block >= report.config.end_block);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = smoke_report(7);
        let b = smoke_report(7);
        assert_eq!(a.chain.events().len(), b.chain.events().len());
        assert_eq!(a.volume_samples.len(), b.volume_samples.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = smoke_report(1);
        let b = smoke_report(2);
        // Not a strict requirement, but overwhelmingly likely.
        assert_ne!(a.chain.events().len(), b.chain.events().len());
    }

    #[test]
    fn market_oracle_has_full_history() {
        let report = smoke_report(44);
        let history = report.market_oracle.history(Token::ETH);
        assert!(history.len() as u64 >= report.config.tick_count() - 2);
    }

    #[test]
    fn liquidation_events_carry_gas_prices() {
        let report = smoke_report(45);
        for (logged, _) in report.chain.events().liquidations() {
            assert!(logged.gas_price > 0);
            assert_eq!(logged.gas_used, report.config.liquidation_gas);
        }
    }

    #[test]
    fn builder_engine_matches_default_construction() {
        let direct = smoke_report(11);
        let built = EngineBuilder::new(SimConfig::smoke_test(11)).build().run();
        assert_eq!(direct.chain.events().len(), built.chain.events().len());
        assert_eq!(direct.volume_samples.len(), built.volume_samples.len());
    }

    #[test]
    fn failed_pressure_sale_conserves_total_supply() {
        // WBTC -> MKR quotes through the WBTC/ETH pool but has no ETH/MKR
        // pool to finish on, so the swap dies after its first hop executed.
        // The checkpoint revert must unwind both the funding mint and the
        // partial hop: total supply of every involved token is unchanged and
        // the spiral trader ends flat.
        let mut engine = EngineBuilder::new(SimConfig::smoke_test(21))
            .with_named_scenario("liquidation-spiral")
            .build();
        engine.seed_initial_prices();
        let trader = engine.spiral_trader;
        let supply_before: Vec<Wad> = [Token::WBTC, Token::ETH, Token::MKR]
            .iter()
            .map(|token| engine.chain.ledger().total_supply(*token))
            .collect();

        let result = engine.settle_pressure_sale(Token::WBTC, Token::MKR, Wad::from_f64(2.0));
        assert!(result.is_err(), "no ETH/MKR pool: the swap must fail");

        for (token, before) in [Token::WBTC, Token::ETH, Token::MKR]
            .iter()
            .zip(supply_before)
        {
            assert_eq!(
                engine.chain.ledger().total_supply(*token),
                before,
                "{token}: forced swap failure leaked supply"
            );
            assert!(
                engine.chain.ledger().balance(trader, *token).is_zero(),
                "{token}: spiral trader kept a residual balance"
            );
        }
    }

    #[test]
    fn overlapping_irregularities_resolve_to_the_latest() {
        // Two active irregularities on one (platform, token): the oracle reads
        // the one scheduled last, as the old per-tick map's overwrite did.
        let mut engine = SimulationEngine::new(SimConfig::smoke_test(23));
        engine.seed_initial_prices();
        let (platform, token) = (Platform::AaveV1, Token::ETH);
        for multiplier in [1.1, 1.3] {
            engine
                .irregularities
                .push((platform, token, multiplier, BlockNumber::MAX));
        }
        engine.update_prices(engine.config.start_block + engine.config.tick_blocks);
        let market = engine.market_oracle.price_or_zero(token).to_f64();
        assert_eq!(
            engine.oracles[&platform].price_or_zero(token),
            Wad::from_f64(market * 1.3)
        );
    }

    #[test]
    fn unroutable_sell_pressure_is_counted_not_dropped() {
        // LINK has no DEX route at all; the feedback pass must surface the
        // skipped volume instead of silently discarding it.
        let mut engine = EngineBuilder::new(SimConfig::smoke_test(22))
            .with_named_scenario("liquidation-spiral")
            .build();
        engine.seed_initial_prices();
        engine
            .pending_sell_pressure
            .push((Token::LINK, Wad::from_f64(100.0)));
        engine.apply_sell_pressure_feedback();
        let skipped = engine
            .feedback_skipped
            .get(&Token::LINK)
            .expect("LINK lot recorded as skipped");
        assert_eq!(skipped.lots, 1);
        assert_eq!(skipped.amount, Wad::from_f64(100.0));
        assert!(
            skipped.usd > Wad::ZERO,
            "skipped volume valued at the market price"
        );
    }

    #[test]
    fn engine_without_maker_runs_fixed_spread_only() {
        let report = EngineBuilder::new(SimConfig::smoke_test(13))
            .without_protocol(Platform::MakerDao)
            .build()
            .run();
        assert!(!report.final_positions.contains_key(&Platform::MakerDao));
        let auctions = report
            .chain
            .query_events(&EventFilter::any().kind(EventKind::AuctionStarted))
            .len();
        assert_eq!(auctions, 0, "no auction platform, no auctions");
        let liquidations = report
            .chain
            .query_events(&EventFilter::any().kind(EventKind::Liquidation))
            .len();
        assert!(liquidations > 0);
    }
}
