//! The scenario catalog: named, composable stress scenarios.
//!
//! The paper's measurements hinge on three scripted episodes (the March 2020
//! crash, the November 2020 Compound DAI oracle irregularity, the February
//! 2021 volatility). The catalog generalises that into a library of named
//! market environments that every layer of the suite can address by name:
//!
//! * [`EngineBuilder::with_named_scenario`](crate::EngineBuilder::with_named_scenario)
//!   builds an engine against a catalog entry,
//! * `repro --scenario <name>` / `repro --list-scenarios` runs and lists them,
//! * [`SweepRunner::scenario_grid`](crate::SweepRunner::scenario_grid) fans
//!   the whole catalog across worker threads,
//! * the [`InvariantObserver`](crate::InvariantObserver) asserts the
//!   conservation/solvency invariants on every entry in CI.
//!
//! Entries **compose**: `"liquidation-spiral+stablecoin-depeg"` resolves to
//! both entries applied left-to-right over one shared base market, so a
//! spiral-during-a-depeg is a single run everywhere a scenario name is
//! accepted. Each entry is a *delta*: a function from `(config, market)` to
//! an adjusted market, applying its [`SimConfig`] adjustments (extra
//! gas-congestion episodes, bot staleness, flash-loan availability, the
//! behavioural layer) in place. User-defined entries can be loaded from a
//! plain-text scenario file ([`ScenarioCatalog::add_user_entries`]) and name
//! builtin entries in their own `compose` line.
//!
//! Entries are deterministic given the configuration seed — the scenario RNG
//! is derived exactly like the default engine path (`config.seed ^ 0xfeed`),
//! so `paper-two-year` reproduces the stock run byte for byte.
//!
//! The `liquidation-spiral` entry is the one scenario the scripted price
//! model cannot express: it enables [`SellPressureFeedback`], under which the
//! engine routes every tick's liquidation proceeds through the AMM
//! [`Dex`](defi_amm::Dex) and feeds the realised pool price impact back into
//! the market path — liquidations deepen the decline that caused them
//! (*Toxic Liquidation Spirals*, Warmuz et al., 2022).

use std::str::FromStr;

use defi_chain::CongestionEpisode;
use defi_oracle::{
    MarketScenario, PegParams, PriceProcess, ScenarioEvent, ScheduledShock, SellPressureFeedback,
    TokenPathSpec,
};
use defi_types::{Platform, Token};

use crate::behavior::BehaviorConfig;
use crate::config::SimConfig;

/// Block anchors shared by the catalog entries (mainnet numbering, matching
/// [`MarketScenario::paper_two_year`]). All stress episodes are anchored
/// around the March 2020 window so both the smoke and the full two-year runs
/// exercise them.
const MARCH_CRASH: u64 = 9_712_000;

/// Seed for the price scenario, derived from the run seed exactly like the
/// default engine construction path.
fn scenario_seed(config: &SimConfig) -> u64 {
    config.seed ^ 0xfeed
}

/// An entry's delta: adjust the config in place and transform the incoming
/// market. Deltas compose left-to-right over one shared base market.
type DeltaFn = fn(&mut SimConfig, MarketScenario) -> MarketScenario;

/// One named catalog scenario.
#[derive(Clone)]
pub struct ScenarioEntry {
    /// Catalog name (`repro --scenario <name>`; names compose with `+`).
    pub name: String,
    /// One-line description shown by `repro --list-scenarios`.
    pub summary: String,
    apply: EntryApply,
}

#[derive(Clone)]
enum EntryApply {
    Builtin(DeltaFn),
    User(UserScenarioSpec),
}

impl ScenarioEntry {
    fn builtin(name: &str, summary: &str, delta: DeltaFn) -> Self {
        ScenarioEntry {
            name: name.to_string(),
            summary: summary.to_string(),
            apply: EntryApply::Builtin(delta),
        }
    }

    /// Apply this entry's delta: config adjustments in place, market
    /// transformation functionally. User entries expand their `compose` list
    /// against the builtin catalog (validated at load time), then apply
    /// their own shocks and settings.
    fn apply_delta(&self, config: &mut SimConfig, market: MarketScenario) -> MarketScenario {
        match &self.apply {
            EntryApply::Builtin(delta) => delta(config, market),
            EntryApply::User(spec) => {
                let standard = ScenarioCatalog::standard();
                let mut market = market;
                for part in &spec.compose {
                    if let Some(entry) = standard.get(part) {
                        market = entry.apply_delta(config, market);
                    }
                }
                for shock in &spec.shocks {
                    market = market.with_shock_on(
                        shock.token,
                        ScheduledShock::transient(
                            shock.block,
                            shock.magnitude,
                            shock.duration_blocks,
                        ),
                    );
                }
                for (key, value) in &spec.settings {
                    // Keys and values were type-checked at parse time against
                    // a scratch config; a failure here is unreachable.
                    let _ = apply_setting(config, key, value);
                }
                market
            }
        }
    }
}

impl core::fmt::Debug for ScenarioEntry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ScenarioEntry")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .finish()
    }
}

/// The named scenario library.
#[derive(Debug, Clone)]
pub struct ScenarioCatalog {
    entries: Vec<ScenarioEntry>,
}

impl ScenarioCatalog {
    /// Name of the default entry (the paper's two-year market) — the label
    /// reported for runs that never named a scenario.
    pub const DEFAULT_NAME: &'static str = "paper-two-year";

    /// The standard catalog shipped with the suite.
    pub fn standard() -> Self {
        ScenarioCatalog {
            entries: vec![
                ScenarioEntry::builtin(
                    ScenarioCatalog::DEFAULT_NAME,
                    "The paper's scripted April 2019 – April 2021 market (the default).",
                    |_, market| market,
                ),
                ScenarioEntry::builtin(
                    "black-thursday-replay",
                    "A deeper 13 March 2020: the crash compounds to ~60% and congestion \
                     is harsher and longer, with more keepers stuck on stale gas prices.",
                    black_thursday_replay,
                ),
                ScenarioEntry::builtin(
                    "stablecoin-depeg",
                    "DAI breaks its peg upward (+18%) while USDT slips below parity, \
                     stressing stablecoin-collateral and stablecoin-debt positions.",
                    stablecoin_depeg,
                ),
                ScenarioEntry::builtin(
                    "oracle-lag-cascade",
                    "Platform oracles lag the crash and then snap to market, so overdue \
                     liquidations arrive as one cascade (plus a DAI irregularity).",
                    oracle_lag_cascade,
                ),
                ScenarioEntry::builtin(
                    "gas-spike-congestion",
                    "A 25x gas-price spike with doubled liquidation gas: rescues and \
                     liquidations compete for scarce blockspace (§4.3.1 stress).",
                    gas_spike_congestion,
                ),
                ScenarioEntry::builtin(
                    "liquidation-spiral",
                    "Endogenous price impact: liquidation proceeds are sold through the \
                     AMM and the pool impact feeds back into the market path each tick \
                     (toxic-liquidation-spiral dynamics).",
                    |config, market| {
                        liquidation_spiral_delta(config);
                        market.with_sell_pressure_feedback(SellPressureFeedback::default())
                    },
                ),
                ScenarioEntry::builtin(
                    "capital-crunch-spiral",
                    "The liquidation spiral worked by behavioural agents: \
                     capital-constrained liquidators with latency staggering and \
                     panic-prone borrowers (§5–6 instability conditions).",
                    |config, market| {
                        liquidation_spiral_delta(config);
                        config.behavior = BehaviorConfig::capital_constrained();
                        market.with_sell_pressure_feedback(SellPressureFeedback::default())
                    },
                ),
            ],
        }
    }

    /// Every entry, in catalog order.
    pub fn entries(&self) -> &[ScenarioEntry] {
        &self.entries
    }

    /// Catalog names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Look up a single entry by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Resolve a (possibly composed) scenario name into its entries:
    /// `"a+b"` yields `[a, b]`. `None` if any part is unknown or empty.
    pub fn resolve(&self, name: &str) -> Option<Vec<&ScenarioEntry>> {
        let parts: Vec<&str> = name.split('+').map(str::trim).collect();
        if parts.iter().any(|p| p.is_empty()) {
            return None;
        }
        parts.iter().map(|part| self.get(part)).collect()
    }

    /// Build a named (possibly composed) scenario, applying every component's
    /// config adjustments in place left-to-right over one shared base market.
    /// `None` for an unknown name. The canonical composed name is recorded in
    /// `config.scenario`, and adjustments apply exactly once per config: a
    /// config whose adjustments were already materialised
    /// (`scenario_applied`) only has its market rebuilt, so non-idempotent
    /// tweaks like gas multipliers cannot compound when a built config flows
    /// through the builder again.
    pub fn build(&self, name: &str, config: &mut SimConfig) -> Option<MarketScenario> {
        let entries = self.resolve(name)?;
        let canonical = entries
            .iter()
            .map(|e| e.name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        config.scenario = Some(canonical);
        if config.scenario_applied {
            let mut scratch = config.clone();
            let mut market = MarketScenario::paper_two_year(scenario_seed(&scratch));
            for entry in &entries {
                market = entry.apply_delta(&mut scratch, market);
            }
            return Some(market);
        }
        config.scenario_applied = true;
        let mut market = MarketScenario::paper_two_year(scenario_seed(config));
        for entry in &entries {
            market = entry.apply_delta(config, market);
        }
        Some(market)
    }

    /// Parse user-defined entries from a scenario file and add them to the
    /// catalog. Returns how many entries were added. Compose lines may only
    /// reference entries already in the catalog; settings are type-checked
    /// against a scratch config at parse time, so a loaded entry cannot fail
    /// later at build time.
    pub fn add_user_entries(&mut self, text: &str) -> Result<usize, ScenarioParseError> {
        let specs = parse_user_specs(text)?;
        let mut added = 0;
        for (line, spec) in specs {
            for part in &spec.compose {
                if self.get(part).is_none() {
                    return Err(ScenarioParseError {
                        line,
                        message: format!(
                            "compose references unknown scenario '{part}' (known: {})",
                            self.names().join(", ")
                        ),
                    });
                }
            }
            if self.get(&spec.name).is_some() {
                return Err(ScenarioParseError {
                    line,
                    message: format!("scenario '{}' already exists in the catalog", spec.name),
                });
            }
            self.entries.push(ScenarioEntry {
                name: spec.name.clone(),
                summary: spec.summary.clone(),
                apply: EntryApply::User(spec),
            });
            added += 1;
        }
        Ok(added)
    }
}

impl Default for ScenarioCatalog {
    fn default() -> Self {
        ScenarioCatalog::standard()
    }
}

// --------------------------------------------------------------- user entries

/// A user-defined scenario parsed from a scenario file: a composition of
/// builtin entries plus extra price shocks and config settings.
#[derive(Debug, Clone, PartialEq)]
pub struct UserScenarioSpec {
    /// Entry name (must not collide with an existing catalog name).
    pub name: String,
    /// One-line description.
    pub summary: String,
    /// Builtin entries applied first, in order.
    pub compose: Vec<String>,
    /// Additional scheduled price shocks.
    pub shocks: Vec<UserShock>,
    /// `key = value` config settings applied after composition.
    pub settings: Vec<(String, String)>,
}

/// One scheduled shock of a user scenario:
/// `shock = TOKEN @ <block> <magnitude> <duration_blocks>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserShock {
    /// Shocked token.
    pub token: Token,
    /// Block the shock starts at.
    pub block: u64,
    /// Relative magnitude (e.g. `-0.30` = a 30% drop).
    pub magnitude: f64,
    /// Blocks until the shock decays away.
    pub duration_blocks: u64,
}

/// A scenario-file parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParseError {
    /// 1-based line number in the scenario file.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "scenario file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScenarioParseError {}

/// Parse the line-based scenario-file format:
///
/// ```text
/// # comment
/// [scenario deep-crunch]
/// summary = spiral plus depeg with constrained liquidators
/// compose = liquidation-spiral + stablecoin-depeg
/// shock   = ETH @ 9716000 -0.20 120000
/// behavior.enabled = true
/// flash_loan_probability = 0.0
/// ```
///
/// Numbers must be finite, a shock magnitude at least `-1`, and the
/// probabilities and shares (`flash_loan_probability`, `stale_bot_share`,
/// `behavior.panic_probability`, `behavior.panic_share`,
/// `behavior.panic_deleverage_fraction`) inside `[0, 1]`.
///
/// Returns each spec with the line its `[scenario ...]` header appeared on.
fn parse_user_specs(text: &str) -> Result<Vec<(usize, UserScenarioSpec)>, ScenarioParseError> {
    let mut specs: Vec<(usize, UserScenarioSpec)> = Vec::new();
    let mut current: Option<(usize, UserScenarioSpec)> = None;
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix("[scenario") {
            let name = header.trim_end_matches(']').trim();
            if name.is_empty() || name.contains('+') || name.contains(char::is_whitespace) {
                return Err(ScenarioParseError {
                    line: line_no,
                    message: format!("invalid scenario name '{name}' (no spaces or '+')"),
                });
            }
            if let Some(done) = current.take() {
                specs.push(done);
            }
            current = Some((
                line_no,
                UserScenarioSpec {
                    name: name.to_string(),
                    summary: String::new(),
                    compose: Vec::new(),
                    shocks: Vec::new(),
                    settings: Vec::new(),
                },
            ));
            continue;
        }
        let Some((_, spec)) = current.as_mut() else {
            return Err(ScenarioParseError {
                line: line_no,
                message: "expected a '[scenario <name>]' header first".to_string(),
            });
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(ScenarioParseError {
                line: line_no,
                message: format!("expected 'key = value', got '{line}'"),
            });
        };
        let key = key.trim();
        let value = value.trim();
        match key {
            "summary" => spec.summary = value.to_string(),
            "compose" => {
                let parts: Vec<String> = value
                    .split('+')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty())
                    .collect();
                if parts.is_empty() {
                    return Err(ScenarioParseError {
                        line: line_no,
                        message: "compose must name at least one scenario".to_string(),
                    });
                }
                spec.compose = parts;
            }
            "shock" => {
                spec.shocks
                    .push(parse_shock(value).map_err(|message| ScenarioParseError {
                        line: line_no,
                        message,
                    })?);
            }
            _ => {
                // Type-check the setting against a scratch config now so a
                // loaded entry can never fail at build time.
                let mut scratch = SimConfig::paper_default(0);
                apply_setting(&mut scratch, key, value).map_err(|message| ScenarioParseError {
                    line: line_no,
                    message,
                })?;
                spec.settings.push((key.to_string(), value.to_string()));
            }
        }
    }
    if let Some(done) = current.take() {
        specs.push(done);
    }
    Ok(specs)
}

/// Parse `TOKEN @ <block> <magnitude> <duration_blocks>`.
fn parse_shock(value: &str) -> Result<UserShock, String> {
    let (token_part, rest) = value
        .split_once('@')
        .ok_or_else(|| format!("expected 'TOKEN @ block magnitude duration', got '{value}'"))?;
    let token = Token::from_str(token_part.trim())
        .map_err(|_| format!("unknown token '{}'", token_part.trim()))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let [block, magnitude, duration] = fields.as_slice() else {
        return Err(format!(
            "expected 'block magnitude duration' after '@', got '{}'",
            rest.trim()
        ));
    };
    let magnitude: f64 = magnitude
        .parse()
        .ok()
        .filter(|m: &f64| m.is_finite())
        .ok_or_else(|| format!("invalid magnitude '{magnitude}' (a finite number)"))?;
    if magnitude < -1.0 {
        return Err(format!(
            "shock magnitude {magnitude} is below -1 (a price cannot fall more than 100%)"
        ));
    }
    Ok(UserShock {
        token,
        block: block
            .parse()
            .map_err(|_| format!("invalid block '{block}'"))?,
        magnitude,
        duration_blocks: duration
            .parse()
            .map_err(|_| format!("invalid duration '{duration}'"))?,
    })
}

/// Apply one `key = value` setting to a config. The supported keys cover the
/// knobs stress scenarios actually vary; anything else is an error so typos
/// surface at parse time.
fn apply_setting(config: &mut SimConfig, key: &str, value: &str) -> Result<(), String> {
    fn parse<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("invalid value '{value}' for '{key}'"))
    }
    /// A finite `f64`: `NaN` and the infinities parse but configure nothing
    /// meaningful.
    fn finite(key: &str, value: &str) -> Result<f64, String> {
        let parsed: f64 = parse(key, value)?;
        if parsed.is_finite() {
            Ok(parsed)
        } else {
            Err(format!(
                "invalid value '{value}' for '{key}' (a finite number)"
            ))
        }
    }
    /// A probability or share: a finite `f64` in [0, 1].
    fn unit(key: &str, value: &str) -> Result<f64, String> {
        let parsed = finite(key, value)?;
        if (0.0..=1.0).contains(&parsed) {
            Ok(parsed)
        } else {
            Err(format!("value {parsed} for '{key}' is outside [0, 1]"))
        }
    }
    /// A gas limit: a transaction that uses no gas leaves no gas context
    /// to settle against.
    fn gas(key: &str, value: &str) -> Result<u64, String> {
        match parse(key, value)? {
            0 => Err(format!(
                "value 0 for '{key}' is not a gas limit (at least 1)"
            )),
            limit => Ok(limit),
        }
    }
    match key {
        "flash_loan_probability" => config.flash_loan_probability = unit(key, value)?,
        "stale_bot_share" => config.stale_bot_share = unit(key, value)?,
        "liquidation_gas" => config.liquidation_gas = gas(key, value)?,
        "auction_gas" => config.auction_gas = gas(key, value)?,
        "user_op_gas" => config.user_op_gas = gas(key, value)?,
        "behavior.enabled" => config.behavior.enabled = parse(key, value)?,
        "behavior.liquidator_inventory_usd" => {
            config.behavior.liquidator_inventory_usd = finite(key, value)?;
        }
        "behavior.inventory_replenish_per_tick_usd" => {
            config.behavior.inventory_replenish_per_tick_usd = finite(key, value)?;
        }
        "behavior.max_latency_ticks" => config.behavior.max_latency_ticks = parse(key, value)?,
        "behavior.opportunity_ttl_ticks" => {
            config.behavior.opportunity_ttl_ticks = parse(key, value)?;
        }
        "behavior.panic_hf" => config.behavior.panic_hf = finite(key, value)?,
        "behavior.panic_market_drop" => config.behavior.panic_market_drop = finite(key, value)?,
        "behavior.panic_probability" => config.behavior.panic_probability = unit(key, value)?,
        "behavior.panic_deleverage_fraction" => {
            config.behavior.panic_deleverage_fraction = unit(key, value)?;
        }
        "behavior.panic_share" => config.behavior.panic_share = unit(key, value)?,
        _ => return Err(format!("unknown setting '{key}'")),
    }
    Ok(())
}

// ------------------------------------------------------------------- builders

fn black_thursday_replay(config: &mut SimConfig, market: MarketScenario) -> MarketScenario {
    // The historical episode: keepers crash-looped, gas stayed pinned for
    // days, and prices overshot the −43% print intraday.
    config.stale_bot_share = (config.stale_bot_share * 1.8).min(0.8);
    config.extra_congestion_episodes.push(CongestionEpisode {
        from: 9_640_000,
        to: 9_860_000,
        multiplier: 14.0,
    });
    let deepen = |scenario: MarketScenario, token: Token, magnitude: f64| {
        scenario.with_shock_on(
            token,
            ScheduledShock::transient(MARCH_CRASH + 4_000, magnitude, 450_000),
        )
    };
    let mut scenario = deepen(market, Token::ETH, -0.28);
    scenario = deepen(scenario, Token::WBTC, -0.30);
    for token in [Token::BAT, Token::ZRX, Token::LINK, Token::MKR] {
        scenario = deepen(scenario, token, -0.25);
    }
    scenario
}

fn stablecoin_depeg(_config: &mut SimConfig, market: MarketScenario) -> MarketScenario {
    // DAI demand spikes during deleveraging: a wide, slowly-reverting peg
    // with a scripted +18% episode. USDT loses confidence and trades below
    // parity for a stretch.
    let dai = TokenPathSpec::new(
        Token::DAI,
        1.0,
        PriceProcess::Peg(PegParams {
            target: 1.0,
            reversion: 0.02,
            noise: 0.004,
            max_deviation: 0.25,
        }),
    )
    .with_shock(ScheduledShock::transient(
        MARCH_CRASH + 8_000,
        0.18,
        350_000,
    ));
    let usdt = TokenPathSpec::new(
        Token::USDT,
        1.0,
        PriceProcess::Peg(PegParams {
            target: 1.0,
            reversion: 0.04,
            noise: 0.003,
            max_deviation: 0.12,
        }),
    )
    .with_shock(ScheduledShock::transient(
        MARCH_CRASH + 20_000,
        -0.08,
        250_000,
    ));
    market.with_token(dai).with_token(usdt)
}

fn oracle_lag_cascade(_config: &mut SimConfig, market: MarketScenario) -> MarketScenario {
    // Mid-crash, two platforms' oracles keep reporting pre-crash collateral
    // prices (multiplier > 1 on ETH). While the irregularity lasts their
    // books look healthy; when it expires the accumulated insolvency is
    // liquidated as one cascade. A DAI irregularity mirrors Nov 2020.
    market
        .with_event(ScenarioEvent::OracleIrregularity {
            block: MARCH_CRASH + 1_000,
            platform: Platform::Compound,
            token: Token::ETH,
            price_multiplier: 1.35,
            duration_blocks: 25_000,
        })
        .with_event(ScenarioEvent::OracleIrregularity {
            block: MARCH_CRASH + 1_000,
            platform: Platform::AaveV1,
            token: Token::ETH,
            price_multiplier: 1.25,
            duration_blocks: 40_000,
        })
        .with_event(ScenarioEvent::OracleIrregularity {
            block: MARCH_CRASH + 60_000,
            platform: Platform::Compound,
            token: Token::DAI,
            price_multiplier: 1.30,
            duration_blocks: 1_200,
        })
}

fn gas_spike_congestion(config: &mut SimConfig, market: MarketScenario) -> MarketScenario {
    // Blockspace famine: the spike is stronger and much longer than the
    // paper's episode, liquidation calls cost twice the gas, and over half
    // the bots keep bidding stale prices.
    config.extra_congestion_episodes.push(CongestionEpisode {
        from: 9_600_000,
        to: 9_880_000,
        multiplier: 25.0,
    });
    config.liquidation_gas *= 2;
    config.stale_bot_share = 0.55;
    market
}

/// The spiral's config side: flash-loan unwinds already trade through the
/// DEX inside the liquidation transaction; disable them so sell pressure is
/// routed (and counted) exactly once per seized lot.
fn liquidation_spiral_delta(config: &mut SimConfig) {
    config.flash_loan_probability = 0.0;
}

/// The `liquidation-spiral` market, with the feedback loop switchable so the
/// divergence test can run the identical scripted market without the spiral
/// (the scenario RNG streams are then identical tick for tick).
pub fn liquidation_spiral(config: &mut SimConfig, feedback: bool) -> MarketScenario {
    liquidation_spiral_delta(config);
    let scenario = MarketScenario::paper_two_year(scenario_seed(config));
    if feedback {
        scenario.with_sell_pressure_feedback(SellPressureFeedback::default())
    } else {
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_the_documented_entries() {
        let catalog = ScenarioCatalog::standard();
        let names = catalog.names();
        assert!(names.len() >= 6, "catalog too small: {names:?}");
        for expected in [
            "paper-two-year",
            "black-thursday-replay",
            "stablecoin-depeg",
            "oracle-lag-cascade",
            "gas-spike-congestion",
            "liquidation-spiral",
            "capital-crunch-spiral",
        ] {
            assert!(names.contains(&expected), "{expected} missing: {names:?}");
        }
        assert!(catalog.get("no-such-scenario").is_none());
    }

    #[test]
    fn paper_entry_matches_the_default_scenario() {
        let mut config = SimConfig::smoke_test(9);
        let mut named = ScenarioCatalog::standard()
            .build("paper-two-year", &mut config)
            .unwrap();
        let mut stock = MarketScenario::paper_two_year(9 ^ 0xfeed);
        for block in (9_500_000u64..9_700_000).step_by(50_000) {
            assert_eq!(named.advance(block), stock.advance(block));
        }
        assert_eq!(config.scenario.as_deref(), Some("paper-two-year"));
    }

    #[test]
    fn entries_adjust_the_config() {
        let base = SimConfig::smoke_test(1);
        let catalog = ScenarioCatalog::standard();

        let mut gas = base.clone();
        catalog.build("gas-spike-congestion", &mut gas).unwrap();
        assert_eq!(gas.liquidation_gas, base.liquidation_gas * 2);
        assert!(!gas.extra_congestion_episodes.is_empty());

        let mut spiral = base.clone();
        let scenario = catalog.build("liquidation-spiral", &mut spiral).unwrap();
        assert_eq!(spiral.flash_loan_probability, 0.0);
        assert!(scenario.feedback().is_some());

        let mut crunch = base.clone();
        let scenario = catalog.build("capital-crunch-spiral", &mut crunch).unwrap();
        assert!(crunch.behavior.enabled);
        assert!(scenario.feedback().is_some());

        let mut thursday = base.clone();
        catalog
            .build("black-thursday-replay", &mut thursday)
            .unwrap();
        assert!(thursday.stale_bot_share > base.stale_bot_share);
    }

    #[test]
    fn entry_adjustments_apply_exactly_once() {
        let base = SimConfig::smoke_test(1);
        let catalog = ScenarioCatalog::standard();
        let mut config = base.clone();
        catalog.build("gas-spike-congestion", &mut config).unwrap();
        assert!(config.scenario_applied);
        assert_eq!(config.liquidation_gas, base.liquidation_gas * 2);
        let episodes = config.extra_congestion_episodes.len();
        // Re-building from the materialised config (the report-config round
        // trip through `SimulationEngine::new`) rebuilds the market but must
        // not compound the non-idempotent adjustments.
        catalog.build("gas-spike-congestion", &mut config).unwrap();
        assert_eq!(config.liquidation_gas, base.liquidation_gas * 2);
        assert_eq!(config.extra_congestion_episodes.len(), episodes);
    }

    #[test]
    fn depeg_scenario_moves_dai_off_peg() {
        let mut config = SimConfig::smoke_test(3);
        let mut scenario = ScenarioCatalog::standard()
            .build("stablecoin-depeg", &mut config)
            .unwrap();
        let mut max_dai: f64 = 0.0;
        for block in (9_500_000u64..9_900_000).step_by(10_000) {
            scenario.advance(block);
            max_dai = max_dai.max(scenario.price_f64(Token::DAI).unwrap());
        }
        assert!(
            max_dai > 1.10,
            "DAI should depeg well above parity, peaked at {max_dai}"
        );
    }

    #[test]
    fn lag_cascade_schedules_irregularities_in_the_crash_window() {
        let mut config = SimConfig::smoke_test(4);
        let scenario = ScenarioCatalog::standard()
            .build("oracle-lag-cascade", &mut config)
            .unwrap();
        let events = scenario.events_between(9_700_000, 9_800_000);
        assert!(
            events.len() >= 3,
            "expected ≥3 events, got {}",
            events.len()
        );
    }

    #[test]
    fn compose_resolves_and_rejects_unknowns() {
        let catalog = ScenarioCatalog::standard();
        assert_eq!(
            catalog
                .resolve("liquidation-spiral+stablecoin-depeg")
                .map(|e| e.len()),
            Some(2)
        );
        // Whitespace around '+' is tolerated.
        assert!(catalog
            .resolve("liquidation-spiral + gas-spike-congestion")
            .is_some());
        assert!(catalog.resolve("liquidation-spiral+no-such").is_none());
        assert!(catalog.resolve("+liquidation-spiral").is_none());
        assert!(catalog.resolve("").is_none());
    }

    #[test]
    fn composed_scenario_equals_hand_built() {
        let catalog = ScenarioCatalog::standard();
        let mut composed_config = SimConfig::smoke_test(5);
        let mut composed = catalog
            .build("liquidation-spiral+stablecoin-depeg", &mut composed_config)
            .unwrap();

        let mut hand_config = SimConfig::smoke_test(5);
        let mut hand = MarketScenario::paper_two_year(scenario_seed(&hand_config));
        liquidation_spiral_delta(&mut hand_config);
        hand = hand.with_sell_pressure_feedback(SellPressureFeedback::default());
        hand = stablecoin_depeg(&mut hand_config, hand);

        for block in (9_500_000u64..9_900_000).step_by(20_000) {
            assert_eq!(composed.advance(block), hand.advance(block));
        }
        assert_eq!(composed_config.flash_loan_probability, 0.0);
        assert_eq!(
            composed_config.scenario.as_deref(),
            Some("liquidation-spiral+stablecoin-depeg")
        );
        assert!(composed.feedback().is_some());
    }

    #[test]
    fn composed_adjustments_apply_exactly_once_too() {
        let base = SimConfig::smoke_test(1);
        let catalog = ScenarioCatalog::standard();
        let mut config = base.clone();
        catalog
            .build("gas-spike-congestion+black-thursday-replay", &mut config)
            .unwrap();
        assert_eq!(config.liquidation_gas, base.liquidation_gas * 2);
        let episodes = config.extra_congestion_episodes.len();
        assert!(episodes >= 2, "both entries add an episode");
        catalog
            .build("gas-spike-congestion+black-thursday-replay", &mut config)
            .unwrap();
        assert_eq!(config.liquidation_gas, base.liquidation_gas * 2);
        assert_eq!(config.extra_congestion_episodes.len(), episodes);
    }

    #[test]
    fn user_scenario_entries_parse_and_compose() {
        let mut catalog = ScenarioCatalog::standard();
        let text = "\
# a user scenario
[scenario deep-crunch]
summary = spiral plus depeg with constrained liquidators
compose = liquidation-spiral + stablecoin-depeg
shock = ETH @ 9716000 -0.20 120000
behavior.enabled = true
behavior.liquidator_inventory_usd = 50000
";
        let added = catalog.add_user_entries(text).unwrap();
        assert_eq!(added, 1);
        let mut config = SimConfig::smoke_test(2);
        let market = catalog.build("deep-crunch", &mut config).unwrap();
        assert!(market.feedback().is_some());
        assert!(config.behavior.enabled);
        assert_eq!(config.behavior.liquidator_inventory_usd, 50_000.0);
        assert_eq!(config.flash_loan_probability, 0.0);
        // User entries compose with builtins by name like any other entry.
        assert!(catalog
            .resolve("deep-crunch+gas-spike-congestion")
            .is_some());
    }

    #[test]
    fn user_scenario_parse_errors_carry_line_numbers() {
        let mut catalog = ScenarioCatalog::standard();
        let err = catalog
            .add_user_entries("[scenario x]\nbad line without equals\n")
            .unwrap_err();
        assert_eq!(err.line, 2);

        let err = catalog
            .add_user_entries("[scenario y]\ncompose = no-such-thing\n")
            .unwrap_err();
        assert_eq!(err.line, 1, "compose validation reports the entry header");

        let err = catalog
            .add_user_entries("[scenario z]\nnot_a_setting = 1\n")
            .unwrap_err();
        assert_eq!(err.line, 2);

        let err = catalog
            .add_user_entries("[scenario w]\nshock = ETH 9716000 -0.2 1000\n")
            .unwrap_err();
        assert_eq!(err.line, 2, "shock without '@' is rejected");

        // Non-finite and out-of-range values, and zero gas limits, parse
        // but configure nothing meaningful: each is rejected on its own
        // line.
        for bad in [
            "shock = ETH @ 9716000 NaN 1000",
            "shock = ETH @ 9716000 inf 1000",
            "shock = ETH @ 9716000 -5.0 1000",
            "flash_loan_probability = NaN",
            "flash_loan_probability = 1.5",
            "stale_bot_share = 7",
            "stale_bot_share = -0.1",
            "behavior.panic_probability = 2",
            "behavior.panic_share = -1",
            "behavior.panic_deleverage_fraction = 1.01",
            "behavior.panic_hf = inf",
            "behavior.liquidator_inventory_usd = NaN",
            "liquidation_gas = 0",
            "auction_gas = 0",
            "user_op_gas = 0",
        ] {
            let err = catalog
                .add_user_entries(&format!("[scenario v]\n{bad}\n"))
                .expect_err(bad);
            assert_eq!(err.line, 2, "{bad}: {err}");
        }
        // The range edges themselves are accepted.
        catalog
            .add_user_entries(
                "[scenario edges]\nshock = ETH @ 9716000 -1.0 1000\n\
                 stale_bot_share = 0\nflash_loan_probability = 1\n",
            )
            .expect("-1, 0 and 1 are in range");
    }
}
