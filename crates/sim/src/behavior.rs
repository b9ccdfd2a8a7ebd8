//! Behavioural agent layer: capital-constrained liquidators, latency
//! staggering and borrower panic exits.
//!
//! The baseline engine models liquidators as perfectly-capitalized bots that
//! act the instant a position crosses HF < 1. The paper's instability results
//! (§5–6) hinge on the opposite: cascades are shaped by *who shows up with
//! what capital*. This module holds the state for that richer model:
//!
//! - **Inventory**: each liquidator carries finite per-token inventory that
//!   depletes as it funds repayments and replenishes at a configurable USD
//!   rate per tick. A bot can run out mid-cascade; the opportunity stays
//!   queued until someone can fund it or it goes stale.
//! - **Latency**: a discovered [`Opportunity`](defi_lending::Opportunity) is
//!   not executed immediately — it is queued, whatever the platform's
//!   mechanism, and each tick the platform's due entries are handed to the
//!   agents whose latency has elapsed, ranked by `(latency_ticks, address)`:
//!   the first funded liquidator, or the first keeper. Due entries re-check
//!   HF at execution and are dropped stale if the position recovered or the
//!   TTL lapsed; the engine settles each with one `Outcome`.
//! - **Panic exits**: a configurable share of borrowers deleverage hard when
//!   their HF or the market drops past a threshold, selling collateral into
//!   the DEX and adding to the spiral's sell pressure.
//!
//! Everything here is deterministic: the layer owns its own `StdRng` derived
//! from the run seed, and no decision depends on map iteration order. None of
//! this state is journaled — it is reconstructed from `SimConfig` on a re-run
//! (see CONTRACTS.md, "The agent-state contract").

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use defi_types::{Address, Platform, Token, Wad};

/// Role tag for the behaviour layer's RNG stream (see `agents::derive_seed`).
const TAG_BEHAVIOR: u64 = 0xBEE5_0004;

/// Configuration for the behavioural agent layer. Disabled by default; the
/// baseline engine then behaves exactly as before.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorConfig {
    /// Master switch. When false every other field is ignored.
    pub enabled: bool,
    /// Initial per-token inventory of each liquidator, valued in USD at the
    /// price when the token is first needed. Also the replenishment cap.
    pub liquidator_inventory_usd: f64,
    /// USD worth of each touched token restored to a liquidator per tick,
    /// capped at the initial inventory.
    pub inventory_replenish_per_tick_usd: f64,
    /// Upper bound for sampled per-agent reaction latency, in ticks.
    pub max_latency_ticks: u64,
    /// Ticks a queued opportunity survives before being dropped as stale.
    pub opportunity_ttl_ticks: u64,
    /// Health factor below which a panic-prone borrower considers exiting.
    /// Must sit below the rescue band (1.05) so ordinary management still
    /// fires first for calm borrowers.
    pub panic_hf: f64,
    /// Per-tick ETH return at or below `-panic_market_drop` triggers a
    /// market-wide panic among panic-prone borrowers.
    pub panic_market_drop: f64,
    /// Probability a panic-prone borrower actually exits once triggered.
    pub panic_probability: f64,
    /// Fraction of outstanding debt repaid (and matching collateral sold)
    /// in a panic exit.
    pub panic_deleverage_fraction: f64,
    /// Share of sampled borrowers that are panic-prone.
    pub panic_share: f64,
}

impl Default for BehaviorConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            liquidator_inventory_usd: 250_000.0,
            inventory_replenish_per_tick_usd: 25_000.0,
            max_latency_ticks: 3,
            opportunity_ttl_ticks: 8,
            panic_hf: 1.03,
            panic_market_drop: 0.08,
            panic_probability: 0.35,
            panic_deleverage_fraction: 0.5,
            panic_share: 0.2,
        }
    }
}

impl BehaviorConfig {
    /// Enabled layer with realistically scarce liquidator capital: bots hold
    /// ~$60k per token and trickle back $4k/tick, so a deep cascade exhausts
    /// them mid-run.
    pub fn capital_constrained() -> Self {
        Self {
            enabled: true,
            liquidator_inventory_usd: 60_000.0,
            inventory_replenish_per_tick_usd: 4_000.0,
            ..Self::default()
        }
    }

    /// Enabled layer whose inventory never binds — the control arm for the
    /// capital-constraint experiments. Latency, TTLs and panic behaviour are
    /// identical to [`Self::capital_constrained`], so the two runs consume
    /// identical RNG streams until the inventory constraint bites.
    pub fn perfectly_capitalized() -> Self {
        Self {
            enabled: true,
            liquidator_inventory_usd: 1e13,
            inventory_replenish_per_tick_usd: 1e12,
            ..Self::default()
        }
    }
}

/// Per-token inventory slot of one liquidator.
#[derive(Debug, Clone, Copy)]
struct TokenInventory {
    available: Wad,
    cap: Wad,
}

/// Capital book of one liquidator.
#[derive(Debug, Clone, Default)]
struct LiquidatorCapital {
    tokens: BTreeMap<Token, TokenInventory>,
    exhaustions: u32,
}

/// A discovered liquidation opportunity waiting out agent latency.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingOpportunity {
    pub platform: Platform,
    pub borrower: Address,
    pub discovered_block: u64,
    pub expires_at_block: u64,
}

/// How the engine settled one due queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// An agent acted on it.
    Executed,
    /// Nobody could act this tick — no agent ready or funded, a stale
    /// keeper sat it out, or the transaction was excluded, unprofitable or
    /// reverted: it stays queued with its discovery block and TTL.
    Requeue,
    /// The TTL lapsed or the position recovered.
    Stale,
    /// Nobody ever can: no bot covers the platform, the position has no
    /// collateral to seize, or the platform is not registered. Counted
    /// nowhere.
    Dropped,
}

/// Counters the behaviour layer accumulates over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BehaviorStats {
    /// Opportunities that entered the latency queue.
    pub opportunities_queued: u64,
    /// Opportunities executed after their latency elapsed.
    pub executed_delayed: u64,
    /// Queued opportunities dropped because the position recovered or the
    /// TTL lapsed before anyone could act.
    pub stale_dropped: u64,
    /// Times every latency-elapsed liquidator lacked inventory to fund a
    /// repay (the opportunity was requeued).
    pub inventory_exhaustions: u64,
    /// Borrower panic exits executed.
    pub panic_exits: u64,
    /// USD of collateral panic exits pushed into the sell-pressure queue.
    pub panic_sell_usd: f64,
}

/// Per-liquidator capital outcome, reported at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentCapital {
    /// Liquidator identity.
    pub address: Address,
    /// Times this specific agent was latency-ready but could not fund a repay.
    pub exhaustions: u32,
}

/// End-of-run report of the behavioural layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BehaviorReport {
    /// Aggregate counters.
    pub stats: BehaviorStats,
    /// Capital-exhaustion counts per liquidator, sorted by address; only
    /// agents that exhausted at least once are listed.
    pub agents: Vec<AgentCapital>,
}

/// Engine-side state of the behavioural layer.
#[derive(Debug)]
pub(crate) struct BehaviorEngine {
    pub(crate) config: BehaviorConfig,
    rng: StdRng,
    capital: BTreeMap<Address, LiquidatorCapital>,
    /// Each platform's pending entries, oldest first.
    queues: BTreeMap<Platform, Vec<PendingOpportunity>>,
    queued_keys: BTreeSet<(Platform, Address)>,
    /// The agents working each platform as `(latency_ticks, address, index
    /// into their population)`, sorted: built on the platform's first due
    /// entry.
    rankings: BTreeMap<Platform, Vec<(u64, Address, usize)>>,
    last_eth_price: Option<f64>,
    /// Blocks per tick (at least 1): latencies and TTLs are counted in ticks.
    tick_blocks: u64,
    stats: BehaviorStats,
}

impl BehaviorEngine {
    pub(crate) fn new(config: BehaviorConfig, run_seed: u64, tick_blocks: u64) -> Self {
        let seed = crate::agents::derive_seed(run_seed, TAG_BEHAVIOR, 0);
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
            capital: BTreeMap::new(),
            queues: BTreeMap::new(),
            queued_keys: BTreeSet::new(),
            rankings: BTreeMap::new(),
            last_eth_price: None,
            tick_blocks: tick_blocks.max(1),
            stats: BehaviorStats::default(),
        }
    }

    /// Queue a discovered opportunity unless an entry for the same
    /// `(platform, borrower)` is already pending.
    pub(crate) fn queue(&mut self, platform: Platform, borrower: Address, block: u64) {
        if !self.queued_keys.insert((platform, borrower)) {
            return;
        }
        let ttl_blocks = self
            .config
            .opportunity_ttl_ticks
            .saturating_mul(self.tick_blocks);
        self.queues
            .entry(platform)
            .or_default()
            .push(PendingOpportunity {
                platform,
                borrower,
                discovered_block: block,
                expires_at_block: block.saturating_add(ttl_blocks),
            });
        self.stats.opportunities_queued += 1;
    }

    /// Take `platform`'s pending entries whole, in queue order, freeing
    /// their dedupe slots. An entry past its TTL is settled stale; the rest
    /// are due, and the caller settles each with [`Self::settle`].
    pub(crate) fn take_due(&mut self, platform: Platform, block: u64) -> Vec<PendingOpportunity> {
        let mut due = Vec::new();
        for entry in self.queues.remove(&platform).unwrap_or_default() {
            self.queued_keys.remove(&(platform, entry.borrower));
            if block > entry.expires_at_block {
                self.settle(entry, Outcome::Stale);
            } else {
                due.push(entry);
            }
        }
        due
    }

    /// Settle one taken entry: count it, or append it to its platform's
    /// queue with its discovery block and TTL.
    pub(crate) fn settle(&mut self, entry: PendingOpportunity, outcome: Outcome) {
        match outcome {
            Outcome::Executed => self.stats.executed_delayed += 1,
            Outcome::Requeue => {
                if self.queued_keys.insert((entry.platform, entry.borrower)) {
                    self.queues.entry(entry.platform).or_default().push(entry);
                }
            }
            Outcome::Stale => self.stats.stale_dropped += 1,
            Outcome::Dropped => {}
        }
    }

    /// The agents ready to act on `entry` at `block`, in the order they are
    /// tried: the platform's ranking by `(latency_ticks, address)`, cut at
    /// the first agent whose latency has not elapsed (latency only grows
    /// along the ranking, so the ready agents are a prefix). `agents` lists
    /// the platform's population as `(index, latency_ticks, address)`; it
    /// is read once, on the platform's first due entry, and the indexes it
    /// gives are returned.
    pub(crate) fn ready_agents<I>(
        &mut self,
        entry: &PendingOpportunity,
        block: u64,
        agents: impl FnOnce() -> I,
    ) -> impl Iterator<Item = usize> + '_
    where
        I: IntoIterator<Item = (usize, u64, Address)>,
    {
        self.rankings.entry(entry.platform).or_insert_with(|| {
            // Ties keep population order, as the index is the last key.
            let mut ranked: Vec<_> = agents()
                .into_iter()
                .map(|(index, latency, address)| (latency, address, index))
                .collect();
            ranked.sort_unstable();
            ranked
        });
        let this = &*self;
        let entry = *entry;
        this.rankings
            .get(&entry.platform)
            .into_iter()
            .flatten()
            .take_while(move |&&(latency, ..)| this.latency_elapsed(&entry, latency, block))
            .map(|&(.., index)| index)
    }

    /// Whether an agent of `latency_ticks` may act on `entry` at `block`:
    /// `discovered_block + latency_ticks × tick_blocks ≤ block`.
    fn latency_elapsed(&self, entry: &PendingOpportunity, latency_ticks: u64, block: u64) -> bool {
        entry
            .discovered_block
            .saturating_add(latency_ticks.saturating_mul(self.tick_blocks))
            <= block
    }

    /// Whether `liquidator` holds at least `amount` of `token`, lazily
    /// seeding the inventory slot at the current price on first touch.
    pub(crate) fn can_cover(
        &mut self,
        liquidator: Address,
        token: Token,
        amount: Wad,
        price: f64,
    ) -> bool {
        let slot = self.slot(liquidator, token, price);
        slot.available >= amount
    }

    /// Deduct `amount` of `token` from `liquidator`'s inventory.
    pub(crate) fn consume(&mut self, liquidator: Address, token: Token, amount: Wad, price: f64) {
        let slot = self.slot(liquidator, token, price);
        slot.available = slot.available.saturating_sub(amount);
    }

    /// Record that a latency-ready cohort could not fund a repay.
    pub(crate) fn record_exhaustion(&mut self, agents: &[Address]) {
        self.stats.inventory_exhaustions += 1;
        for address in agents {
            self.capital.entry(*address).or_default().exhaustions += 1;
        }
    }

    /// Replenish every previously-touched inventory slot by the configured
    /// USD rate at the given price-lookup, capped at the slot's cap.
    pub(crate) fn replenish(&mut self, mut price_of: impl FnMut(Token) -> f64) {
        let usd = self.config.inventory_replenish_per_tick_usd;
        if usd <= 0.0 {
            return;
        }
        for capital in self.capital.values_mut() {
            for (token, slot) in capital.tokens.iter_mut() {
                let price = price_of(*token);
                if price <= 0.0 {
                    continue;
                }
                let topup = Wad::from_f64(usd / price);
                slot.available = slot.available.saturating_add(topup).min(slot.cap);
            }
        }
    }

    /// Draw the panic gate for one triggered borrower.
    pub(crate) fn draw_panic(&mut self) -> bool {
        self.rng
            .gen_bool(self.config.panic_probability.clamp(0.0, 1.0))
    }

    /// Track the per-tick ETH return; returns true when it drops at or below
    /// `-panic_market_drop`, signalling a market-wide panic.
    pub(crate) fn market_panic_triggered(&mut self, eth_price: f64) -> bool {
        let triggered = match self.last_eth_price {
            Some(last) if last > 0.0 => (eth_price - last) / last <= -self.config.panic_market_drop,
            _ => false,
        };
        self.last_eth_price = Some(eth_price);
        triggered
    }

    pub(crate) fn record_panic_exit(&mut self, sell_usd: f64) {
        self.stats.panic_exits += 1;
        self.stats.panic_sell_usd += sell_usd;
    }

    pub(crate) fn into_report(self) -> BehaviorReport {
        let agents = self
            .capital
            .into_iter()
            .filter(|(_, c)| c.exhaustions > 0)
            .map(|(address, c)| AgentCapital {
                address,
                exhaustions: c.exhaustions,
            })
            .collect();
        BehaviorReport {
            stats: self.stats,
            agents,
        }
    }

    fn slot(&mut self, liquidator: Address, token: Token, price: f64) -> &mut TokenInventory {
        let initial_usd = self.config.liquidator_inventory_usd;
        self.capital
            .entry(liquidator)
            .or_default()
            .tokens
            .entry(token)
            .or_insert_with(|| {
                let units = if price > 0.0 {
                    Wad::from_f64(initial_usd / price)
                } else {
                    Wad::ZERO
                };
                TokenInventory {
                    available: units,
                    cap: units,
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(config: BehaviorConfig) -> BehaviorEngine {
        BehaviorEngine::new(config, 9, 600)
    }

    #[test]
    fn inventory_depletes_and_replenishes_to_cap() {
        let mut b = engine(BehaviorConfig {
            enabled: true,
            liquidator_inventory_usd: 1_000.0,
            inventory_replenish_per_tick_usd: 400.0,
            ..BehaviorConfig::default()
        });
        let bot = Address::from_label("bot");
        // $1000 at price 2.0 -> 500 units.
        assert!(b.can_cover(bot, Token::DAI, Wad::from_f64(500.0), 2.0));
        assert!(!b.can_cover(bot, Token::DAI, Wad::from_f64(500.5), 2.0));
        b.consume(bot, Token::DAI, Wad::from_f64(500.0), 2.0);
        assert!(!b.can_cover(bot, Token::DAI, Wad::from_f64(1.0), 2.0));
        // $400/tick at price 2.0 -> 200 units per replenish, capped at 500.
        b.replenish(|_| 2.0);
        assert!(b.can_cover(bot, Token::DAI, Wad::from_f64(200.0), 2.0));
        for _ in 0..10 {
            b.replenish(|_| 2.0);
        }
        assert!(b.can_cover(bot, Token::DAI, Wad::from_f64(500.0), 2.0));
        assert!(!b.can_cover(bot, Token::DAI, Wad::from_f64(500.5), 2.0));
    }

    #[test]
    fn queue_dedupes_and_takes_per_platform() {
        let mut b = engine(BehaviorConfig::capital_constrained());
        let (borrower, other) = (Address::from_seed(1), Address::from_seed(2));
        b.queue(Platform::Compound, borrower, 100);
        b.queue(Platform::AaveV1, other, 100);
        b.queue(Platform::Compound, borrower, 101);
        b.queue(Platform::AaveV1, borrower, 101);
        assert_eq!(b.stats.opportunities_queued, 3);
        let compound = b.take_due(Platform::Compound, 100);
        assert_eq!(compound.len(), 1);
        assert_eq!(compound[0].discovered_block, 100);
        // TTL: 8 ticks of 600 blocks.
        assert_eq!(compound[0].expires_at_block, 100 + 8 * 600);
        // Taken entries may be re-queued; the dedupe slot was freed.
        b.settle(compound[0], Outcome::Requeue);
        assert_eq!(b.take_due(Platform::Compound, 100).len(), 1);
        // Taking Compound left AaveV1's two entries in their order.
        let aave: Vec<_> = b
            .take_due(Platform::AaveV1, 101)
            .iter()
            .map(|entry| (entry.borrower, entry.discovered_block))
            .collect();
        assert_eq!(aave, [(other, 100), (borrower, 101)]);
    }

    /// One Compound entry discovered at block 100, taken due at once.
    fn due_entry(b: &mut BehaviorEngine) -> PendingOpportunity {
        b.queue(Platform::Compound, Address::from_seed(1), 100);
        b.take_due(Platform::Compound, 100)[0]
    }

    #[test]
    fn an_agent_is_ready_exactly_when_its_latency_has_elapsed() {
        let mut b = engine(BehaviorConfig::capital_constrained());
        let entry = due_entry(&mut b);
        let bot = || [(0, 2, Address::from_seed(2))];
        // Two ticks of 600 blocks after discovery, inclusive.
        assert_eq!(b.ready_agents(&entry, 100 + 2 * 600 - 1, bot).count(), 0);
        assert_eq!(
            b.ready_agents(&entry, 100 + 2 * 600, bot)
                .collect::<Vec<_>>(),
            [0]
        );
    }

    #[test]
    fn agents_of_equal_latency_are_tried_in_address_order() {
        let mut b = engine(BehaviorConfig::capital_constrained());
        let entry = due_entry(&mut b);
        let (x, y) = (Address::from_seed(2), Address::from_seed(3));
        let (low, high) = (x.min(y), x.max(y));
        let agents = || [(0, 1, high), (1, 2, low), (2, 1, low)];
        // Index 1 waits a tick longer; the latency-1 pair goes in address
        // order, and equal addresses in population order.
        assert_eq!(
            b.ready_agents(&entry, 100 + 600, agents)
                .collect::<Vec<_>>(),
            [2, 0]
        );
        assert_eq!(
            b.ready_agents(&entry, 100 + 1_200, agents)
                .collect::<Vec<_>>(),
            [2, 0, 1]
        );
    }

    #[test]
    fn an_entry_nobody_is_ready_for_is_requeued_until_its_ttl() {
        let mut b = engine(BehaviorConfig::capital_constrained());
        let mut entry = due_entry(&mut b);
        // A 9-tick latency outlasts the 8-tick TTL.
        let slow = || [(0, 9, Address::from_seed(2))];
        let expires = 100 + 8 * 600;
        for block in (100..=expires).step_by(600) {
            assert_eq!(b.ready_agents(&entry, block, slow).count(), 0);
            b.settle(entry, Outcome::Requeue);
            assert_eq!(b.stats.stale_dropped, 0, "requeued, not stale, at {block}");
            match b.take_due(Platform::Compound, block + 600).first() {
                Some(&next) => entry = next,
                None => assert_eq!(block, expires, "dropped before its TTL lapsed"),
            }
        }
        assert_eq!(b.stats.stale_dropped, 1);
        assert!(b.take_due(Platform::Compound, expires + 1_200).is_empty());
    }

    #[test]
    fn market_panic_fires_on_large_drop_only() {
        let mut b = engine(BehaviorConfig::default());
        assert!(!b.market_panic_triggered(170.0));
        assert!(!b.market_panic_triggered(165.0)); // -2.9%
        assert!(b.market_panic_triggered(150.0)); // -9.1%
        assert!(!b.market_panic_triggered(149.0));
    }

    #[test]
    fn report_lists_only_exhausted_agents_sorted() {
        let mut b = engine(BehaviorConfig::capital_constrained());
        let a1 = Address::from_seed(2);
        let a2 = Address::from_seed(3);
        // Touch a1 without exhausting it.
        let _ = b.can_cover(a1, Token::ETH, Wad::from_f64(1.0), 170.0);
        b.record_exhaustion(&[a2]);
        b.record_exhaustion(&[a2]);
        let report = b.into_report();
        assert_eq!(report.stats.inventory_exhaustions, 2);
        assert_eq!(report.agents.len(), 1);
        assert_eq!(report.agents[0].address, a2);
        assert_eq!(report.agents[0].exhaustions, 2);
    }
}
