//! Market scenarios: the scripted price environment of the two-year study.
//!
//! A [`MarketScenario`] owns one price process per token plus the scripted
//! historical episodes the paper's measurements hinge on:
//!
//! * **13 March 2020** — ETH (and most collateral assets) drop ~43 % within a
//!   day; the network congests; MakerDAO keeper bots fail (§4.3.1, Figure 5).
//! * **26 November 2020** — the Compound price oracle reports an irregular
//!   DAI price, triggering ~89 M USD of liquidations (§4.2, Figure 5). This
//!   is modelled as a *platform-specific* oracle irregularity, not a market
//!   move.
//! * **February 2021** — sharp volatility produces the largest liquidation
//!   day in history up to that point (§4.2).
//!
//! The scenario produces "true" market prices; each platform's
//! [`PriceOracle`](crate::PriceOracle) then observes them under its own
//! update policy, and scripted [`ScenarioEvent`]s can override a single
//! platform's oracle to reproduce oracle-specific incidents.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

use defi_types::{BlockNumber, Platform, Price, Token, Wad};

use crate::process::{shock_factor, GbmParams, PegParams, PriceProcess, ScheduledShock};

/// Price dynamics specification for one token.
#[derive(Debug, Clone)]
pub struct TokenPathSpec {
    /// The token.
    pub token: Token,
    /// Initial USD price at the scenario start block.
    pub initial_price: f64,
    /// Stochastic component.
    pub process: PriceProcess,
    /// Scripted shocks layered on top of the stochastic component.
    pub shocks: Vec<ScheduledShock>,
}

impl TokenPathSpec {
    /// A spec with no shocks.
    pub fn new(token: Token, initial_price: f64, process: PriceProcess) -> Self {
        TokenPathSpec {
            token,
            initial_price,
            process,
            shocks: Vec::new(),
        }
    }

    /// Add a scripted shock.
    pub fn with_shock(mut self, shock: ScheduledShock) -> Self {
        self.shocks.push(shock);
        self
    }
}

/// Scripted events that are not market-wide price moves.
#[derive(Debug, Clone, Copy)]
pub enum ScenarioEvent {
    /// A single platform's oracle reports a wrong price for a token
    /// (the November 2020 Compound DAI incident).
    OracleIrregularity {
        /// Block at which the irregular price is pushed.
        block: BlockNumber,
        /// Affected platform.
        platform: Platform,
        /// Affected token.
        token: Token,
        /// The irregular price, as a multiple of the true market price
        /// (1.30 reproduces DAI quoted ~30 % above peg).
        price_multiplier: f64,
        /// Number of blocks after which the platform oracle reverts to
        /// tracking the market.
        duration_blocks: u64,
    },
}

impl ScenarioEvent {
    /// Block at which the event starts.
    pub fn block(&self) -> BlockNumber {
        match self {
            ScenarioEvent::OracleIrregularity { block, .. } => *block,
        }
    }
}

/// Endogenous price-impact feedback: how strongly liquidation sell-pressure
/// routed through the AMM feeds back into the scenario's "true" market price.
///
/// With feedback enabled, the simulation engine sells seized collateral
/// through the DEX every tick and reports the realised pool price impact via
/// [`MarketScenario::apply_sell_pressure`]; the depressed price becomes the
/// starting point of the next tick's stochastic step. This is the
/// toxic-liquidation-spiral dynamic (Warmuz et al., 2022): liquidations deepen
/// the decline that caused them, triggering further liquidations.
#[derive(Debug, Clone, Copy)]
pub struct SellPressureFeedback {
    /// Fraction of the AMM pool price impact passed through to the market
    /// price (1.0 = the market marks straight to the pool).
    pub passthrough: f64,
    /// Cap on the relative market-price decline a single tick's sell pressure
    /// may cause (guards against degenerate one-tick collapses).
    pub max_tick_impact: f64,
}

impl Default for SellPressureFeedback {
    fn default() -> Self {
        SellPressureFeedback {
            passthrough: 0.8,
            max_tick_impact: 0.25,
        }
    }
}

/// The market scenario: per-token price paths plus scripted events.
#[derive(Debug, Clone)]
pub struct MarketScenario {
    specs: BTreeMap<Token, TokenPathSpec>,
    events: Vec<ScenarioEvent>,
    rng: StdRng,
    current: BTreeMap<Token, f64>,
    last_block: BlockNumber,
    start_block: BlockNumber,
    feedback: Option<SellPressureFeedback>,
}

impl MarketScenario {
    /// An empty scenario starting at `start_block`.
    pub fn new(seed: u64, start_block: BlockNumber) -> Self {
        MarketScenario {
            specs: BTreeMap::new(),
            events: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            current: BTreeMap::new(),
            last_block: start_block,
            start_block,
            feedback: None,
        }
    }

    /// Register a token path.
    pub fn with_token(mut self, spec: TokenPathSpec) -> Self {
        self.current.insert(spec.token, spec.initial_price);
        self.specs.insert(spec.token, spec);
        self
    }

    /// Register a scripted event.
    pub fn with_event(mut self, event: ScenarioEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Layer an extra scripted shock onto an already-registered token's path
    /// (catalog scenarios deepen or add episodes on top of the paper market).
    /// No-op when the token is not registered.
    pub fn with_shock_on(mut self, token: Token, shock: ScheduledShock) -> Self {
        if let Some(spec) = self.specs.get_mut(&token) {
            spec.shocks.push(shock);
        }
        self
    }

    /// Enable endogenous sell-pressure feedback (the liquidation-spiral
    /// dynamic). With feedback on, the engine routes liquidation proceeds
    /// through the DEX and reports the pool impact back via
    /// [`apply_sell_pressure`](MarketScenario::apply_sell_pressure).
    pub fn with_sell_pressure_feedback(mut self, feedback: SellPressureFeedback) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// The feedback parameters, when the spiral dynamic is enabled.
    pub fn feedback(&self) -> Option<SellPressureFeedback> {
        self.feedback
    }

    /// Depress a token's market price by the realised AMM sell impact
    /// (`impact` is the relative pool price impact, 0–1). The decline is
    /// scaled by the feedback's passthrough and capped per tick; the next
    /// [`advance`](MarketScenario::advance) steps from the depressed level,
    /// which is what makes liquidation sell-pressure feed the next round of
    /// liquidations. No-op when feedback is disabled.
    pub fn apply_sell_pressure(&mut self, token: Token, impact: f64) {
        let Some(feedback) = self.feedback else {
            return;
        };
        if !impact.is_finite() || impact <= 0.0 {
            return;
        }
        let decline = (impact * feedback.passthrough).min(feedback.max_tick_impact.max(0.0));
        if let Some(price) = self.current.get_mut(&token) {
            *price = (*price * (1.0 - decline)).max(1e-12);
        }
    }

    /// Tokens covered by the scenario.
    pub fn tokens(&self) -> Vec<Token> {
        self.specs.keys().copied().collect()
    }

    /// Scenario start block.
    pub fn start_block(&self) -> BlockNumber {
        self.start_block
    }

    /// Current (true) market price of a token.
    pub fn price(&self, token: Token) -> Option<Price> {
        self.current.get(&token).map(|p| Wad::from_f64(*p))
    }

    /// Current (true) market price as `f64` (agent decision logic).
    pub fn price_f64(&self, token: Token) -> Option<f64> {
        self.current.get(&token).copied()
    }

    /// Advance the market to `block`, returning the new price of every token.
    pub fn advance(&mut self, block: BlockNumber) -> Vec<(Token, Price)> {
        let dt = block.saturating_sub(self.last_block);
        let mut out = Vec::with_capacity(self.specs.len());
        for (token, spec) in &self.specs {
            let price = self.current.get_mut(token).expect("registered token");
            let mut next = if dt > 0 {
                spec.process.step(*price, dt, &mut self.rng)
            } else {
                *price
            };
            next *= shock_factor(&spec.shocks, self.last_block, block);
            *price = next.max(1e-12);
            out.push((*token, Wad::from_f64(*price)));
        }
        self.last_block = block;
        out
    }

    /// Scripted events starting in `(prev_block, block]`.
    pub fn events_between(
        &self,
        prev_block: BlockNumber,
        block: BlockNumber,
    ) -> Vec<ScenarioEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.block() > prev_block && e.block() <= block)
            .collect()
    }

    /// All scripted events.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// The scripted market of the paper's study window (April 2019 – April
    /// 2021). Blocks follow mainnet numbering; see
    /// [`TimeMap::paper_study_window`](defi_types::TimeMap::paper_study_window).
    pub fn paper_two_year(seed: u64) -> Self {
        let start = 7_500_000;
        // Blocks are placed so the linear TimeMap of the suite maps them to
        // the paper's calendar dates: 13 March 2020 → block ≈ 9,712,000,
        // 26 Nov 2020 → ≈ 11,333,000, 22 Feb 2021 → ≈ 11,910,000.
        let march_crash = 9_712_000;
        let nov_incident = 11_333_000;
        let feb_volatility = 11_910_000;

        let eth = TokenPathSpec::new(
            Token::ETH,
            170.0,
            PriceProcess::Gbm(GbmParams {
                drift: 1.55,
                volatility: 0.85,
            }),
        )
        .with_shock(ScheduledShock::transient(march_crash, -0.43, 400_000))
        .with_shock(ScheduledShock::transient(feb_volatility, -0.25, 200_000));

        let wbtc = TokenPathSpec::new(
            Token::WBTC,
            5_300.0,
            PriceProcess::Gbm(GbmParams::bluechip()),
        )
        .with_shock(ScheduledShock::transient(march_crash, -0.39, 400_000))
        .with_shock(ScheduledShock::transient(feb_volatility, -0.20, 200_000));

        let alt = |token: Token, initial: f64| {
            TokenPathSpec::new(
                token,
                initial,
                PriceProcess::Gbm(GbmParams::crypto_default()),
            )
            .with_shock(ScheduledShock::transient(march_crash, -0.50, 400_000))
            .with_shock(ScheduledShock::transient(feb_volatility, -0.30, 200_000))
        };

        let stable_tight =
            |token: Token| TokenPathSpec::new(token, 1.0, PriceProcess::Peg(PegParams::tight()));

        // DAI trades above peg during the March 2020 deleveraging (borrowers
        // scrambling for DAI to repay CDPs) — a documented episode.
        let dai =
            TokenPathSpec::new(Token::DAI, 1.0, PriceProcess::Peg(PegParams::loose())).with_shock(
                ScheduledShock::transient(march_crash + 10_000, 0.04, 300_000),
            );

        MarketScenario::new(seed, start)
            .with_token(eth)
            .with_token(wbtc)
            .with_token(dai)
            .with_token(stable_tight(Token::USDC))
            .with_token(stable_tight(Token::USDT))
            .with_token(stable_tight(Token::TUSD))
            .with_token(alt(Token::BAT, 0.35))
            .with_token(alt(Token::ZRX, 0.30))
            .with_token(alt(Token::UNI, 3.0))
            .with_token(alt(Token::LINK, 1.8))
            .with_token(alt(Token::MKR, 550.0))
            .with_token(alt(Token::COMP, 90.0))
            .with_token(alt(Token::AAVE, 40.0))
            .with_token(alt(Token::YFI, 10_000.0))
            .with_token(alt(Token::SNX, 0.9))
            .with_token(alt(Token::KNC, 0.25))
            .with_token(alt(Token::MANA, 0.05))
            .with_token(alt(Token::REP, 16.0))
            .with_event(ScenarioEvent::OracleIrregularity {
                block: nov_incident,
                platform: Platform::Compound,
                token: Token::DAI,
                price_multiplier: 1.30,
                duration_blocks: 600,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_moves_all_registered_tokens() {
        let mut scenario = MarketScenario::paper_two_year(1);
        let tokens = scenario.tokens();
        assert!(tokens.len() >= 15);
        let updates = scenario.advance(7_600_000);
        assert_eq!(updates.len(), tokens.len());
        for (_, price) in updates {
            assert!(!price.is_zero());
        }
    }

    #[test]
    fn march_crash_hits_eth() {
        let mut scenario = MarketScenario::paper_two_year(2);
        scenario.advance(9_702_000);
        let before = scenario.price_f64(Token::ETH).unwrap();
        scenario.advance(9_717_000);
        let after = scenario.price_f64(Token::ETH).unwrap();
        // The scripted −43 % shock dominates whatever the GBM does in 15k blocks.
        assert!(
            after < before * 0.70,
            "ETH should crash ≥30% across the March 2020 shock: before {before}, after {after}"
        );
    }

    #[test]
    fn stablecoins_stay_near_peg() {
        let mut scenario = MarketScenario::paper_two_year(3);
        let mut max_dev: f64 = 0.0;
        for block in (7_500_000u64..9_500_000).step_by(50_000) {
            scenario.advance(block);
            let p = scenario.price_f64(Token::USDC).unwrap();
            max_dev = max_dev.max((p - 1.0).abs());
        }
        assert!(max_dev < 0.05, "USDC deviated {max_dev} from peg");
    }

    #[test]
    fn compound_dai_irregularity_is_scheduled() {
        let scenario = MarketScenario::paper_two_year(4);
        let events = scenario.events_between(11_300_000, 11_340_000);
        assert_eq!(events.len(), 1);
        match events[0] {
            ScenarioEvent::OracleIrregularity {
                platform,
                token,
                price_multiplier,
                ..
            } => {
                assert_eq!(platform, Platform::Compound);
                assert_eq!(token, Token::DAI);
                assert!(price_multiplier > 1.2);
            }
        }
        // Outside the window nothing fires.
        assert!(scenario.events_between(7_500_000, 9_000_000).is_empty());
    }

    #[test]
    fn sell_pressure_depresses_the_next_tick() {
        let base = MarketScenario::paper_two_year(5);
        let mut fed = base
            .clone()
            .with_sell_pressure_feedback(SellPressureFeedback {
                passthrough: 1.0,
                max_tick_impact: 0.5,
            });
        let mut dry = base;
        dry.advance(7_600_000);
        fed.advance(7_600_000);
        assert_eq!(dry.price_f64(Token::ETH), fed.price_f64(Token::ETH));
        fed.apply_sell_pressure(Token::ETH, 0.10);
        // Same RNG stream: the fed path is exactly the dry path scaled down.
        dry.advance(7_700_000);
        fed.advance(7_700_000);
        let dry_eth = dry.price_f64(Token::ETH).unwrap();
        let fed_eth = fed.price_f64(Token::ETH).unwrap();
        assert!(
            (fed_eth / dry_eth - 0.90).abs() < 1e-9,
            "expected a 10% haircut to persist multiplicatively: {fed_eth} vs {dry_eth}"
        );
    }

    #[test]
    fn sell_pressure_is_capped_and_gated() {
        let mut scenario = MarketScenario::paper_two_year(6);
        let before = scenario.price_f64(Token::ETH).unwrap();
        // Feedback disabled: no-op.
        scenario.apply_sell_pressure(Token::ETH, 0.5);
        assert_eq!(scenario.price_f64(Token::ETH).unwrap(), before);
        let mut scenario = scenario.with_sell_pressure_feedback(SellPressureFeedback::default());
        // A pathological 100% impact is capped at max_tick_impact.
        scenario.apply_sell_pressure(Token::ETH, 1.0);
        let after = scenario.price_f64(Token::ETH).unwrap();
        let cap = SellPressureFeedback::default().max_tick_impact;
        assert!((after / before - (1.0 - cap)).abs() < 1e-9);
        // Non-finite and non-positive impacts are ignored.
        scenario.apply_sell_pressure(Token::ETH, f64::NAN);
        scenario.apply_sell_pressure(Token::ETH, -0.3);
        assert_eq!(scenario.price_f64(Token::ETH).unwrap(), after);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = MarketScenario::paper_two_year(9);
        let mut b = MarketScenario::paper_two_year(9);
        for block in (7_500_000u64..8_000_000).step_by(100_000) {
            assert_eq!(a.advance(block), b.advance(block));
        }
    }

    #[test]
    fn eth_generally_appreciates_over_the_window() {
        // The study window ends with ETH far above its April 2019 level; the
        // drift parameter should reproduce that in aggregate across seeds
        // (single paths are noisy with 85 % annualised volatility).
        let mut total = 0.0;
        let mut higher = 0;
        for seed in 0..10 {
            let mut scenario = MarketScenario::paper_two_year(seed);
            for block in (7_500_000u64..=12_344_944).step_by(200_000) {
                scenario.advance(block);
            }
            let final_price = scenario.price_f64(Token::ETH).unwrap();
            total += final_price;
            if final_price > 400.0 {
                higher += 1;
            }
        }
        assert!(
            higher >= 6,
            "ETH ended above 400 USD in only {higher}/10 seeds"
        );
        assert!(
            total / 10.0 > 500.0,
            "mean final ETH price too low: {}",
            total / 10.0
        );
    }
}
