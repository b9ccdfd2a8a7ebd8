//! Differential proof of the conservative health-factor band index.
//!
//! The band index (PR 5) lets fixed-spread discovery and the engine's
//! borrower-management pass skip accounts whose certified price/index
//! envelope holds. Skipping is only sound if it is *exact*: the banded
//! surfaces must agree with a cache-less shadow — positions rebuilt from
//! protocol state through the same `fill_position` math, then filtered by
//! health factor — at every observation point. This harness encodes that
//! exactness argument as tests rather than prose:
//!
//! * **scenario differential** — every catalog scenario (including
//!   `liquidation-spiral`, whose endogenous sell-pressure feedback makes the
//!   price path adversarial) is stepped tick by tick, and after *every* tick
//!   banded discovery, the at-risk iterator and (periodically) the full
//!   cached book are compared byte-for-byte against the exhaustive shadow
//!   scan on every platform;
//! * **random interleavings** — property tests drive a real fixed-spread
//!   pool through arbitrary op sequences, checking the *banded* surfaces
//!   before any full-refresh query runs (so the lazy path itself is
//!   exercised, not a freshly drained cache);
//! * **conservative bounds** — envelopes are evaluated at their own corner
//!   prices through the real valuation path: the health factor must still be
//!   inside the certified band at the envelope's edge;
//! * **monotone widening under accrual** — a toy book with an explicit
//!   borrow index is accrued step by step across its certified caps: within
//!   a cap nothing re-values and nothing diverges; past it, accounts
//!   re-anchor and still nothing diverges;
//! * **full invalidation on epoch regression** — querying against an oracle
//!   whose epoch sits behind the synced one re-values everything;
//! * **incomplete envelopes ride the exact path** — a derivation that
//!   omits a price bound or an index cap is refused, and the differential
//!   stays clean across moves of the uncovered price and index;
//! * **the harness has teeth** — for each of the three dirty-set
//!   notification hooks (`mark_dirty`, `note_index_change`, the oracle
//!   write epoch), a sabotaged clone omits exactly that hook and the
//!   differential check must *fail*, proving the harness would catch a
//!   protocol that forgets its contract;
//! * **the audit has teeth** — the tick-end audit reads a book without
//!   re-valuing it (`PositionBook::audit` through
//!   `InvariantObserver::check_book_entry`), and it must fail on an
//!   envelope certified past its band edge and on a `fill_position` that
//!   mis-values.

use std::collections::BTreeMap;

use defi_liquidations_suite::chain::Ledger;
use defi_liquidations_suite::core::position::Position;
use defi_liquidations_suite::lending::book::{
    reference_totals, BookSource, HfEnvelope, PositionBook,
};
use defi_liquidations_suite::lending::interest::InterestRateModel;
use defi_liquidations_suite::lending::{
    compound, derive_hf_envelope, FixedSpreadProtocol, LendingProtocol, Market, BOOK_SHARD_COUNT,
    RELEVERAGE_BAND_HF, RESCUE_BAND_HF,
};
use defi_liquidations_suite::oracle::{OracleConfig, PriceOracle};
use defi_liquidations_suite::prelude::*;
use defi_liquidations_suite::sim::{
    EngineBuilder, InvariantObserver, NullObserver, ScenarioCatalog, SessionStatus, SimConfig,
};
use defi_liquidations_suite::types::{mul_div_ceil, Platform, Ray, WAD};
use proptest::prelude::*;

fn rescue() -> Wad {
    Wad::from_f64(RESCUE_BAND_HF)
}

fn releverage() -> Wad {
    Wad::from_f64(RELEVERAGE_BAND_HF)
}

// ---------------------------------------------------------------------------
// Scenario differential: banded surfaces == cache-less shadow, every tick,
// every platform, every catalog entry.
// ---------------------------------------------------------------------------

/// Compare one platform's banded surfaces against the cache-less shadow.
/// `sampled` (a tick the engine took a volume sample on) also compares the
/// volume totals with the per-token reference, before any full query could
/// drain lazily stale valuations; `full` additionally compares the whole
/// cached book (the expensive check, run periodically).
fn audit_platform(
    scenario: &str,
    tick: u64,
    platform: Platform,
    protocol: &mut dyn LendingProtocol,
    oracle: &PriceOracle,
    sampled: bool,
    full: bool,
) {
    let shadow = protocol.reference_positions(oracle);

    if sampled {
        assert_eq!(
            protocol.book_totals(oracle),
            reference_totals(&shadow, oracle),
            "{scenario} tick {tick}: {platform} volume totals diverged from the per-token reference"
        );
    }

    // Banded discovery == exhaustive HF < 1 scan, byte-identical positions.
    let exhaustive: Vec<(Address, Position)> = shadow
        .iter()
        .filter(|p| p.is_liquidatable())
        .map(|p| (p.owner, p.clone()))
        .collect();
    let banded: Vec<(Address, Position)> = protocol
        .liquidatable(oracle)
        .into_iter()
        .map(|o| (o.borrower, o.position))
        .collect();
    assert_eq!(
        banded, exhaustive,
        "{scenario} tick {tick}: {platform} banded discovery diverged from the shadow scan"
    );

    // Banded at-risk iteration == exhaustive HF-filtered walk. MakerDAO's
    // CDPs carry critical prices and keep no band, so its walk visits
    // nothing.
    let expected_at_risk: Vec<(Address, Position)> = if platform == Platform::MakerDao {
        Vec::new()
    } else {
        shadow
            .iter()
            .filter(|p| {
                p.health_factor()
                    .is_some_and(|hf| hf >= Wad::ONE && (hf < rescue() || hf > releverage()))
            })
            .map(|p| (p.owner, p.clone()))
            .collect()
    };
    let mut seen_at_risk: Vec<(Address, Position)> = Vec::new();
    protocol.for_each_at_risk(oracle, rescue(), releverage(), &mut |position| {
        seen_at_risk.push((position.owner, position.clone()));
    });
    assert_eq!(
        seen_at_risk, expected_at_risk,
        "{scenario} tick {tick}: {platform} at-risk iteration diverged from the shadow filter"
    );

    if full {
        let cached = protocol.book_positions(oracle);
        assert_eq!(
            cached, shadow,
            "{scenario} tick {tick}: {platform} cached book diverged from the shadow rebuild"
        );
    }
}

/// The smoke window truncated shortly after the March 2020 crash — the same
/// window the scenario-catalog invariant test uses.
fn crash_window_config(seed: u64) -> SimConfig {
    let mut config = SimConfig::smoke_test(seed);
    config.end_block = 9_780_000;
    config
}

#[test]
fn banded_discovery_matches_shadow_scan_across_every_catalog_scenario() {
    let catalog = ScenarioCatalog::standard();
    assert!(catalog.names().len() >= 6);
    for entry in catalog.entries() {
        let mut session = EngineBuilder::new(crash_window_config(2026))
            .with_named_scenario(&entry.name)
            .build()
            .session();
        let interval = session.config().volume_sample_interval.max(1);
        let mut observer = NullObserver;
        let mut tick = 0u64;
        loop {
            let status = session
                .step(&mut observer)
                .unwrap_or_else(|e| panic!("{}: step failed: {e}", entry.name));
            tick += 1;
            // The step just run had tick index `tick - 1`; the engine
            // samples volumes on multiples of the interval.
            let sampled = (tick - 1).is_multiple_of(interval);
            let full = tick.is_multiple_of(5);
            for platform in session.platforms() {
                session
                    .inspect_protocol(platform, |protocol, oracle| {
                        audit_platform(
                            &entry.name,
                            tick,
                            platform,
                            protocol,
                            oracle,
                            sampled,
                            full,
                        );
                    })
                    .expect("platform registered");
            }
            if status == SessionStatus::TicksComplete {
                break;
            }
        }
        assert!(tick > 10, "{}: suspiciously short run", entry.name);
    }
}

/// Open the borrowers `seeds` on a fixed-spread pool: ETH collateral and a
/// USDC debt at a staggered share of the borrowing capacity, most of them
/// comfortable and a thin tail near the threshold.
fn open_borrowers(
    protocol: &mut FixedSpreadProtocol,
    ledger: &mut Ledger,
    oracle: &PriceOracle,
    block: u64,
    seeds: std::ops::Range<u64>,
) {
    let mut events = Vec::new();
    for i in seeds {
        let account = Address::from_seed(20_000 + i);
        let eth = Wad::from_f64(1.0 + (i % 50) as f64 * 0.1);
        ledger.mint(account, Token::ETH, eth);
        protocol
            .deposit(ledger, &mut events, account, Token::ETH, eth)
            .unwrap();
        let capacity = protocol
            .position(oracle, account)
            .map(|p| p.borrowing_capacity())
            .unwrap_or(Wad::ZERO);
        let usage = (0.55 + (i % 89) as f64 * 0.005).min(0.985);
        let borrow = Wad::from_f64(capacity.to_f64() * usage);
        protocol
            .borrow(
                ledger,
                &mut events,
                oracle,
                block,
                account,
                Token::USDC,
                borrow,
            )
            .unwrap();
    }
}

/// A Compound pool that grows from 3,000 to 5,000 borrowers in mid-run,
/// so its book splits from one shard into `BOOK_SHARD_COUNT` address-range
/// shards while it holds valued accounts, envelopes and index caps. It is
/// driven through an ETH crash and rebound with accrual every tick (long
/// accrual-only ticks right after the split) and liquidations of what
/// discovery hands out, and audited against
/// `reference_positions` and `reference_totals` every tick. No catalog
/// scenario grows a book past the threshold, so this test and perfbench's
/// book-100k check are the differentials of the sharded layout.
#[test]
fn sharded_book_matches_shadow_through_a_crash() {
    let mut protocol = compound();
    let mut ledger = Ledger::new();
    let mut events = Vec::new();
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
    oracle.set_price(0, Token::USDC, Wad::ONE);
    let lender = Address::from_seed(1);
    let liquidity = Wad::from_int(100_000_000);
    ledger.mint(lender, Token::USDC, liquidity);
    protocol
        .deposit(&mut ledger, &mut events, lender, Token::USDC, liquidity)
        .unwrap();
    // Past the platform inception block so accrual actually runs.
    let mut block: u64 = 7_800_000;
    open_borrowers(&mut protocol, &mut ledger, &oracle, block, 0..3_000);

    let liquidator = Address::from_seed(9_999);
    let mut liquidated = 0usize;
    for tick in 1..=30u64 {
        // The pool grows past the threshold at tick 5. Ticks 5-8 are two
        // months of accrual each with ETH held, so index caps the split
        // moved must break, and tick 9 lifts ETH 6 % above the held price,
        // so upper envelope bounds it moved must break. Then the crash
        // resumes (35 % over 12 crash ticks) and partly rebounds.
        let holding = (5..=8).contains(&tick);
        let crash_tick = if tick > 9 { tick - 5 } else { tick.min(4) };
        let mut eth = if crash_tick <= 12 {
            3_500.0 * (1.0 - 0.35 * crash_tick as f64 / 12.0)
        } else {
            2_275.0 + (crash_tick - 12) as f64 * 30.0
        };
        if tick == 9 {
            eth *= 1.06;
        }
        block += if holding { 400_000 } else { 6_500 };
        if !holding {
            oracle.set_price(block, Token::ETH, Wad::from_f64(eth));
        }
        LendingProtocol::accrue(&mut protocol, block);
        if tick == 5 {
            open_borrowers(&mut protocol, &mut ledger, &oracle, block, 3_000..5_000);
        }
        audit_platform(
            "sharded-crash",
            tick,
            Platform::Compound,
            &mut protocol,
            &oracle,
            true,
            tick.is_multiple_of(2),
        );
        let expected_shards = if tick < 5 { 1 } else { BOOK_SHARD_COUNT };
        assert_eq!(protocol.book_stats().shards, expected_shards, "tick {tick}");

        // Liquidate up to 40 of the discovered positions that still hold
        // ETH collateral, at the close factor.
        let seizable = protocol.liquidatable(&oracle).into_iter().filter(|o| {
            o.position
                .collateral
                .iter()
                .any(|holding| holding.token == Token::ETH && !holding.amount.is_zero())
        });
        for opportunity in seizable.take(40) {
            let borrower = opportunity.borrower;
            let repay = protocol
                .debt_of(borrower, Token::USDC)
                .checked_mul(protocol.config().close_factor)
                .unwrap_or(Wad::ZERO);
            if repay.is_zero() {
                continue;
            }
            ledger.mint(liquidator, Token::USDC, repay);
            protocol
                .liquidation_call(
                    &mut ledger,
                    &mut events,
                    &oracle,
                    block,
                    liquidator,
                    borrower,
                    Token::USDC,
                    Token::ETH,
                    repay,
                    false,
                )
                .unwrap();
            liquidated += 1;
        }
    }
    assert!(
        liquidated > 100,
        "the crash liquidated only {liquidated} positions"
    );
    assert_eq!(protocol.book_stats().stale_violations, 0);
}

/// Deterministic work guard: envelope derivations over the default smoke
/// window, per fixed-spread book, may not exceed the counts the weighted
/// directional envelopes reach (giving every price and index the same
/// slack needs about a third more, and one symmetric slack sized by the
/// nearer band edge about twice that). The counts are a pure function of
/// the seed, so any rise is a change in envelope width or in when the
/// engine reads a book, not host noise. Lower a ceiling when a change cuts derivations. dYdX's
/// insurance write-off reads the book's liquidatable set every 20 ticks;
/// accounts a liquidation dirtied re-value there and once more after their
/// write-off, which costs 3 derivations over the window.
#[test]
fn smoke_window_envelope_derives_stay_within_ceilings() {
    const CEILINGS: [(Platform, u64); 4] = [
        (Platform::AaveV1, 555),
        (Platform::AaveV2, 0),
        (Platform::Compound, 1_387),
        (Platform::DyDx, 866),
    ];
    let mut session = EngineBuilder::new(SimConfig::smoke_test(20_211_102))
        .build()
        .session();
    let mut observer = NullObserver;
    while session.step(&mut observer).expect("smoke step") != SessionStatus::TicksComplete {}
    let mut total = 0;
    for (platform, ceiling) in CEILINGS {
        let derives = session
            .inspect_protocol(platform, |protocol, _| {
                protocol.book_stats().envelope_derives
            })
            .expect("platform registered");
        assert!(
            derives <= ceiling,
            "{platform}: {derives} envelope derivations over the smoke window, ceiling {ceiling}"
        );
        total += derives;
    }
    assert!(
        total > 0,
        "no envelope was derived: the guard measures nothing"
    );
}

// ---------------------------------------------------------------------------
// A toy multivariate pool with an explicit borrow index, small enough to
// sabotage: the differential checker below is the "harness" whose teeth the
// omitted-hook tests prove.
// ---------------------------------------------------------------------------

/// collateral ETH, scaled USDC debt, one global borrow index.
#[derive(Debug, Clone, Default)]
struct ToyState {
    accounts: BTreeMap<Address, (Wad, Wad)>,
    index: Ray,
}

impl ToyState {
    fn new() -> Self {
        ToyState {
            accounts: BTreeMap::new(),
            index: Ray::ONE,
        }
    }

    /// The market table the envelope derivation reads the index from.
    fn markets(&self) -> BTreeMap<Token, Market> {
        let mut index = defi_liquidations_suite::lending::interest::BorrowIndex::new(0);
        index.index = self.index;
        let mut markets = BTreeMap::new();
        markets.insert(
            Token::USDC,
            Market {
                token: Token::USDC,
                liquidation_threshold: Wad::from_f64(0.85),
                liquidation_spread: Wad::from_f64(0.05),
                rate_model: InterestRateModel::stablecoin(),
                available_liquidity: Wad::ZERO,
                total_scaled_debt: Wad::ZERO,
                index,
            },
        );
        markets.insert(
            Token::ETH,
            Market {
                token: Token::ETH,
                liquidation_threshold: Wad::from_f64(0.8),
                liquidation_spread: Wad::from_f64(0.10),
                rate_model: InterestRateModel::default(),
                available_liquidity: Wad::ZERO,
                total_scaled_debt: Wad::ZERO,
                index: defi_liquidations_suite::lending::interest::BorrowIndex::new(0),
            },
        );
        markets
    }
}

/// Which conditions the toy view's envelope derivation emits. The two
/// incomplete modes drop the USDC condition a compliant derivation must
/// carry, so the book has to refuse their envelopes. `PastBandEdge` keeps
/// every condition but widens each price bound to every price: a
/// dishonest certificate that still holds once the health factor has left
/// its band.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ToyEnvelope {
    Complete,
    NoUsdcBound,
    NoUsdcCap,
    PastBandEdge,
}

struct ToyView<'a>(&'a ToyState, ToyEnvelope);

impl BookSource for ToyView<'_> {
    fn fill_position(&self, oracle: &PriceOracle, account: Address, slot: &mut Position) -> bool {
        let Some(&(collateral, scaled_debt)) = self.0.accounts.get(&account) else {
            return false;
        };
        if collateral.is_zero() && scaled_debt.is_zero() {
            return false;
        }
        slot.owner = account;
        slot.collateral.clear();
        slot.debt.clear();
        if !collateral.is_zero() {
            let price = oracle.price_or_zero(Token::ETH);
            slot.collateral
                .push(defi_liquidations_suite::core::position::CollateralHolding {
                    token: Token::ETH,
                    amount: collateral,
                    value_usd: collateral.checked_mul(price).unwrap_or(Wad::ZERO),
                    liquidation_threshold: Wad::from_f64(0.8),
                    liquidation_spread: Wad::from_f64(0.10),
                });
        }
        if !scaled_debt.is_zero() {
            // scaled × index, the fixed-spread debt shape.
            let amount = scaled_debt
                .to_ray()
                .ok()
                .and_then(|r| r.checked_mul(self.0.index).ok())
                .map(|r| r.to_wad())
                .unwrap_or(scaled_debt);
            let price = oracle.price_or_zero(Token::USDC);
            slot.debt
                .push(defi_liquidations_suite::core::position::DebtHolding {
                    token: Token::USDC,
                    amount,
                    value_usd: amount.checked_mul(price).unwrap_or(Wad::ZERO),
                });
        }
        true
    }

    fn in_book(&self, position: &Position) -> bool {
        !position.total_debt_value().is_zero()
    }

    fn sensitive_tokens(&self, position: &Position, out: &mut Vec<Token>) {
        for holding in &position.collateral {
            if !out.contains(&holding.token) {
                out.push(holding.token);
            }
        }
        for holding in &position.debt {
            if !out.contains(&holding.token) {
                out.push(holding.token);
            }
        }
    }

    fn debt_tokens(&self, position: &Position, out: &mut Vec<Token>) {
        for holding in &position.debt {
            if !out.contains(&holding.token) {
                out.push(holding.token);
            }
        }
    }

    fn critical_price(&self, _account: Address, _position: &Position) -> Option<(Token, u128)> {
        None
    }

    fn borrow_index(&self, token: Token) -> Option<u128> {
        (token == Token::USDC).then(|| self.index_raw())
    }

    fn hf_envelope(
        &self,
        oracle: &PriceOracle,
        position: &Position,
        floor: Option<Wad>,
        ceiling: Option<Wad>,
        out: &mut HfEnvelope,
    ) -> bool {
        let derived = derive_hf_envelope(&self.0.markets(), oracle, position, floor, ceiling, out);
        match self.1 {
            ToyEnvelope::Complete => {}
            ToyEnvelope::NoUsdcBound => out.price_bounds.retain(|&(t, _, _)| t != Token::USDC),
            ToyEnvelope::NoUsdcCap => out.index_caps.retain(|&(t, _)| t != Token::USDC),
            ToyEnvelope::PastBandEdge => {
                for bound in &mut out.price_bounds {
                    *bound = (bound.0, 0, u128::MAX);
                }
            }
        }
        derived
    }
}

impl ToyView<'_> {
    fn index_raw(&self) -> u128 {
        self.0.index.raw()
    }
}

/// The differential harness itself: banded discovery and at-risk iteration
/// against the cache-less shadow scan over the toy state. Returns the first
/// divergence instead of panicking so the teeth tests can assert it *does*
/// diverge on a sabotaged clone.
fn toy_differential(
    state: &ToyState,
    book: &mut PositionBook,
    oracle: &PriceOracle,
) -> Result<(), String> {
    toy_differential_with(state, book, oracle, ToyEnvelope::Complete)
}

/// Like [`toy_differential`] but with an explicit [`ToyEnvelope`] mode, so
/// the same harness runs against incomplete envelope derivations.
fn toy_differential_with(
    state: &ToyState,
    book: &mut PositionBook,
    oracle: &PriceOracle,
    envelope: ToyEnvelope,
) -> Result<(), String> {
    let view = ToyView(state, envelope);
    let mut shadow: Vec<Position> = Vec::new();
    for &address in state.accounts.keys() {
        let mut slot = Position::new(address);
        if view.fill_position(oracle, address, &mut slot) {
            shadow.push(slot);
        }
    }

    let exhaustive: Vec<Address> = shadow
        .iter()
        .filter(|p| p.is_liquidatable())
        .map(|p| p.owner)
        .collect();
    let mut banded: Vec<Address> = Vec::new();
    book.for_each_liquidatable(&view, oracle, &mut |position| banded.push(position.owner));
    if banded != exhaustive {
        return Err(format!(
            "discovery diverged: banded {banded:?} vs exhaustive {exhaustive:?}"
        ));
    }

    // Byte-level comparison of the visited valuations, not just the visited
    // owners: a freshening path that leaves stale value terms behind
    // diverges here even when the membership sets happen to agree.
    let expected_at_risk: Vec<Position> = shadow
        .iter()
        .filter(|p| !p.total_debt_value().is_zero())
        .filter(|p| {
            p.health_factor()
                .is_some_and(|hf| hf >= Wad::ONE && (hf < rescue() || hf > releverage()))
        })
        .cloned()
        .collect();
    let mut seen: Vec<Position> = Vec::new();
    book.for_each_at_risk(&view, oracle, rescue(), releverage(), &mut |position| {
        seen.push(position.clone());
    });
    if seen != expected_at_risk {
        let seen_owners: Vec<Address> = seen.iter().map(|p| p.owner).collect();
        let expected_owners: Vec<Address> = expected_at_risk.iter().map(|p| p.owner).collect();
        return Err(format!(
            "at-risk diverged: banded {seen_owners:?} vs exhaustive {expected_owners:?}\
             (or their valuation bytes differ)"
        ));
    }

    // The always-on stale invariant (release builds repair and count
    // instead of debug_assert-ing): any non-zero counter is a flush that left
    // stale valuations behind, surfaced through the same error path as a
    // divergence.
    let violations = book.stats().stale_violations;
    if violations != 0 {
        return Err(format!(
            "flush left {violations} stale valuation(s) — repaired, but the drain contract broke"
        ));
    }
    Ok(())
}

fn toy_oracle(eth: f64) -> PriceOracle {
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(0, Token::ETH, Wad::from_f64(eth));
    oracle.set_price(0, Token::USDC, Wad::ONE);
    oracle
}

/// A populated toy book: collateralizations spread from just above the
/// threshold to deep in the re-leverage band.
fn toy_setup(n: u64) -> (ToyState, PositionBook, PriceOracle) {
    let mut state = ToyState::new();
    let mut book = PositionBook::new();
    for i in 0..n {
        let address = Address::from_seed(40_000 + i);
        let collateral = Wad::from_int(10);
        // HF from ~1.01 up to ~3.4.
        let usage = 0.99 - (i as f64 % 67.0) * 0.011;
        let debt = Wad::from_f64(10.0 * 3_000.0 * 0.8 * usage.max(0.23));
        state.accounts.insert(address, (collateral, debt));
        book.mark_dirty(address);
    }
    let oracle = toy_oracle(3_000.0);
    (state, book, oracle)
}

// --------------------------------------------------------------- teeth tests

/// Omit `mark_dirty` on a mutated clone: the harness must catch it.
#[test]
fn harness_catches_an_omitted_mark_dirty() {
    let (mut state, mut book, oracle) = toy_setup(30);
    toy_differential(&state, &mut book, &oracle).expect("hooked run is clean");

    // Borrow hard enough to cross below the threshold — without telling the
    // book.
    let victim = Address::from_seed(40_003);
    let entry = state.accounts.get_mut(&victim).expect("exists");
    entry.1 = Wad::from_f64(10.0 * 3_000.0 * 0.8 * 1.4);
    let err = toy_differential(&state, &mut book, &oracle)
        .expect_err("the harness must catch the silent mutation");
    assert!(err.contains("diverged"), "{err}");

    // The properly hooked twin stays clean.
    book.mark_dirty(victim);
    toy_differential(&state, &mut book, &oracle).expect("hooked mutation is clean");
}

/// Omit `note_index_change` on an accrued clone: the harness must catch it.
#[test]
fn harness_catches_an_omitted_index_change_note() {
    let (mut state, mut book, oracle) = toy_setup(30);
    toy_differential(&state, &mut book, &oracle).expect("hooked run is clean");

    // Double the borrow index — every debtor's HF halves, many cross 1 —
    // without the notification hook.
    state.index = state.index.checked_mul(Ray::from_int(2)).unwrap();
    let err = toy_differential(&state, &mut book, &oracle)
        .expect_err("the harness must catch the silent accrual");
    assert!(err.contains("diverged"), "{err}");

    // The properly hooked twin stays clean.
    book.note_index_change(Token::USDC);
    toy_differential(&state, &mut book, &oracle).expect("hooked accrual is clean");
}

/// Omit the oracle write epoch: a *different* oracle instance whose epoch
/// equals the synced one (same number of writes, crashed price) is
/// indistinguishable from an un-notified price move — the harness must catch
/// the divergence that contract violation produces.
#[test]
fn harness_catches_an_omitted_oracle_epoch() {
    let (state, mut book, oracle) = toy_setup(30);
    toy_differential(&state, &mut book, &oracle).expect("hooked run is clean");

    // Same write count (so the same epoch), very different ETH price: the
    // book trusts its synced epoch and keeps every stale verdict.
    let forged = toy_oracle(1_500.0);
    assert_eq!(forged.epoch(), oracle.epoch());
    let err = toy_differential(&state, &mut book, &forged)
        .expect_err("the harness must catch the epoch-less price move");
    assert!(err.contains("diverged"), "{err}");

    // A *later* epoch (one more genuine write) is the hooked path: the book
    // re-syncs and the harness is clean again.
    let mut hooked = oracle.clone();
    hooked.set_price(1, Token::ETH, Wad::from_f64(1_500.0));
    toy_differential(&state, &mut book, &hooked).expect("epoch-bumped move is clean");
}

/// An oracle whose epoch moves *backwards* (a different, younger instance)
/// invalidates everything: the harness stays clean and every account
/// re-values.
#[test]
fn epoch_regression_fully_invalidates_the_band_index() {
    let (state, mut book, mut oracle) = toy_setup(30);
    // Extra writes so the book syncs at a high epoch.
    oracle.set_price(1, Token::ETH, Wad::from_f64(2_900.0));
    oracle.set_price(2, Token::ETH, Wad::from_f64(2_950.0));
    toy_differential(&state, &mut book, &oracle).expect("clean before the rewind");
    let synced = book.stats().revaluations;

    // A younger oracle instance with a crashed price and a *lower* epoch.
    let rewound = toy_oracle(1_400.0);
    assert!(rewound.epoch() < oracle.epoch());
    toy_differential(&state, &mut book, &rewound).expect("rewind must re-value, not trust");
    assert!(
        book.stats().revaluations >= synced + 30,
        "epoch regression must re-value the whole book"
    );
}

/// Accrue the toy index in small steps across the certified caps: while a
/// cap holds nothing re-values (the envelope absorbs the accrual); once it
/// breaks, accounts re-anchor with a fresh (wider, because re-centred)
/// envelope — and the differential harness is clean at every single step.
#[test]
fn envelopes_absorb_accrual_until_their_caps_and_rewiden() {
    let (mut state, mut book, oracle) = toy_setup(60);
    toy_differential(&state, &mut book, &oracle).expect("clean at anchor");
    let baseline = book.stats();
    assert!(baseline.banded_accounts > 0, "setup must certify accounts");

    let mut skipped_any_step = false;
    let mut reanchored_any_step = false;
    // ~0.005 % per step, 120 steps ≈ 0.6 % total growth: crosses the caps of
    // tightly-certified accounts but not the wide ones.
    for step in 0..120 {
        let growth =
            Ray::from_raw(defi_liquidations_suite::types::RAY + 50_000_000_000_000_000_000_000);
        state.index = state.index.checked_mul(growth).unwrap();
        book.note_index_change(Token::USDC);
        let before = book.stats().revaluations;
        toy_differential(&state, &mut book, &oracle).unwrap_or_else(|e| panic!("step {step}: {e}"));
        let revalued = book.stats().revaluations - before;
        // At-risk members legitimately freshen each step; anything beyond
        // them is a cap breach re-anchoring.
        if (revalued as usize) <= book.stats().at_risk_accounts {
            skipped_any_step = true;
        } else {
            reanchored_any_step = true;
        }
        assert!(
            (revalued as usize) < state.accounts.len(),
            "step {step}: accrual re-valued the whole book"
        );
    }
    assert!(skipped_any_step, "no accrual step was ever absorbed");
    assert!(
        reanchored_any_step,
        "no cap ever broke — the budget test tested nothing"
    );
    assert!(book.stats().envelope_skips > baseline.envelope_skips);
}

/// A Maker-shaped critical-price source: account `i` locks ETH against
/// par-valued DAI debt and is liquidatable below 150 % collateralization, so
/// every debtor carries an exact critical price.
struct CdpToy {
    cdps: BTreeMap<Address, (Wad, Wad)>,
    /// Value the collateral 1 % above amount × price in `fill_position`.
    misvalued: bool,
}

impl CdpToy {
    const RATIO: f64 = 1.5;

    fn new(n: u64) -> Self {
        let cdps = (0..n)
            .map(|i| {
                // Collateralization spreads from 150.1 % upwards at 100 USD.
                let debt = Wad::from_f64(10.0 * 100.0 / (1.501 + i as f64 * 0.05));
                (Address::from_seed(50_000 + i), (Wad::from_int(10), debt))
            })
            .collect();
        CdpToy {
            cdps,
            misvalued: false,
        }
    }
}

impl BookSource for CdpToy {
    fn fill_position(&self, oracle: &PriceOracle, account: Address, slot: &mut Position) -> bool {
        let Some(&(collateral, debt)) = self.cdps.get(&account) else {
            return false;
        };
        slot.owner = account;
        slot.collateral.clear();
        slot.debt.clear();
        let mut price = oracle.price_or_zero(Token::ETH);
        if self.misvalued {
            price = price.checked_mul(Wad::from_f64(1.01)).unwrap_or(Wad::MAX);
        }
        slot.collateral
            .push(defi_liquidations_suite::core::position::CollateralHolding {
                token: Token::ETH,
                amount: collateral,
                value_usd: collateral.checked_mul(price).unwrap_or(Wad::MAX),
                liquidation_threshold: Wad::ONE
                    .checked_div(Wad::from_f64(Self::RATIO))
                    .unwrap_or(Wad::ZERO),
                liquidation_spread: Wad::from_f64(0.13),
            });
        slot.debt
            .push(defi_liquidations_suite::core::position::DebtHolding {
                token: Token::DAI,
                amount: debt,
                value_usd: debt,
            });
        true
    }

    fn in_book(&self, _position: &Position) -> bool {
        true
    }

    fn sensitive_tokens(&self, _position: &Position, out: &mut Vec<Token>) {
        out.push(Token::ETH);
    }

    fn debt_tokens(&self, _position: &Position, _out: &mut Vec<Token>) {}

    fn critical_price(&self, account: Address, _position: &Position) -> Option<(Token, u128)> {
        let &(collateral, debt) = self.cdps.get(&account)?;
        let required = debt
            .checked_mul(Wad::from_f64(Self::RATIO))
            .unwrap_or(Wad::MAX);
        let crit = mul_div_ceil(required.raw(), WAD, collateral.raw()).unwrap_or(u128::MAX);
        Some((Token::ETH, crit))
    }
}

// ------------------------------------------------------ the audit's teeth

/// Every violation the tick-end audit records on one book's read-only
/// walk: [`PositionBook::audit`] through the invariant observer's
/// per-entry check, as `platform`'s book. Reads the book only.
fn audit_violations(
    book: &PositionBook,
    source: &impl BookSource,
    oracle: &PriceOracle,
    platform: Platform,
) -> Vec<String> {
    let mut observer = InvariantObserver::new();
    book.audit(source, oracle, &mut |entry| {
        observer.check_book_entry(0, platform, oracle, entry)
    });
    observer
        .violations()
        .iter()
        .map(|violation| violation.description.clone())
        .collect()
}

/// An envelope certified past its band edge must fail the audit. The toy's
/// dishonest derivation bounds every price by `[0, ∞)`, so after a 10 %
/// ETH drop no envelope breaks, nothing re-values, and accounts whose
/// health factor left its band keep their stale verdicts — discovery
/// misses the ones that fell below 1. The audit recomputes each lagging
/// health factor at current prices and catches them; the honest twin
/// re-values the accounts its envelopes stop covering and stays clean. A
/// draining walk could not see the sabotage: it re-values every lagging
/// entry first, and the fresh terms are exact.
#[test]
fn audit_catches_an_envelope_certified_past_its_band_edge() {
    for mode in [ToyEnvelope::Complete, ToyEnvelope::PastBandEdge] {
        let (state, mut book, oracle) = toy_setup(30);
        let view = ToyView(&state, mode);
        book.for_each_liquidatable(&view, &oracle, &mut |_| {});
        assert_eq!(
            audit_violations(&book, &view, &oracle, Platform::Compound),
            Vec::<String>::new(),
            "clean at the anchor"
        );

        let mut crashed = oracle.clone();
        crashed.set_price(1, Token::ETH, Wad::from_f64(2_700.0));
        let mut discovered = 0usize;
        book.for_each_liquidatable(&view, &crashed, &mut |_| discovered += 1);
        let violations = audit_violations(&book, &view, &crashed, Platform::Compound);
        if mode == ToyEnvelope::PastBandEdge {
            assert_eq!(discovered, 0, "the stale verdicts hide every crossing");
            assert!(!violations.is_empty(), "the audit missed the sabotage");
            assert!(
                violations.iter().all(|v| v.contains("left its band")),
                "{violations:?}"
            );
        } else {
            assert!(discovered > 0, "the drop must cross some accounts");
            assert_eq!(violations, Vec::<String>::new());
        }

        book.for_each_position(&view, &crashed, &mut |_| {});
        assert_eq!(
            audit_violations(&book, &view, &crashed, Platform::Compound),
            Vec::<String>::new(),
            "after a drain every entry is current and its terms are exact"
        );
    }
}

/// A `fill_position` that mis-values must fail the audit: every entry it
/// filled is current, and its collateral terms are 1 % above
/// amount × price.
#[test]
fn audit_catches_a_misvaluing_fill_position() {
    for misvalued in [false, true] {
        let mut toy = CdpToy::new(20);
        toy.misvalued = misvalued;
        let mut book = PositionBook::new();
        for &owner in toy.cdps.keys() {
            book.mark_dirty(owner);
        }
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_int(100));
        book.for_each_liquidatable(&toy, &oracle, &mut |_| {});
        let violations = audit_violations(&book, &toy, &oracle, Platform::MakerDao);
        if misvalued {
            assert_eq!(violations.len(), toy.cdps.len(), "{violations:?}");
            assert!(violations.iter().all(|v| v.contains("collateral valued")));
        } else {
            assert_eq!(violations, Vec::<String>::new());
        }
    }
}

/// An envelope that misses the USDC price bound, or the USDC index cap, is
/// refused at derivation: the debtors ride the exact path, never count as
/// banded, and the differential stays clean while the uncovered USDC price
/// and borrow index move.
#[test]
fn incomplete_envelopes_ride_the_exact_path() {
    let (state, mut book, oracle) = toy_setup(30);
    toy_differential(&state, &mut book, &oracle).expect("clean at anchor");
    assert!(
        book.stats().banded_accounts > 0,
        "complete envelopes must certify some of the same accounts"
    );

    for mode in [ToyEnvelope::NoUsdcBound, ToyEnvelope::NoUsdcCap] {
        let (mut state, mut book, mut oracle) = toy_setup(30);
        toy_differential_with(&state, &mut book, &oracle, mode).expect("clean at anchor");
        assert_eq!(
            book.stats().banded_accounts,
            0,
            "every toy account owes USDC, so every envelope is incomplete"
        );
        for step in 1..=12u64 {
            if step % 3 == 0 {
                let growth = Ray::from_raw(
                    defi_liquidations_suite::types::RAY + 2_000_000_000_000_000_000_000_000,
                );
                state.index = state.index.checked_mul(growth).unwrap();
                book.note_index_change(Token::USDC);
            } else {
                // USDC wobbles ±3 % — far enough to carry the tightest
                // debtors across a band edge.
                let usdc = if step % 2 == 0 { 1.03 } else { 0.97 };
                oracle.set_price(step, Token::USDC, Wad::from_f64(usdc));
            }
            toy_differential_with(&state, &mut book, &oracle, mode)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(book.stats().banded_accounts, 0, "step {step}");
        }
    }
}

/// A single toy account at `hf` (ETH collateral at 3000 against USDC debt),
/// anchored in a fresh book and checked clean.
fn toy_single(hf: f64) -> (ToyState, PositionBook, PriceOracle, Address) {
    let mut state = ToyState::new();
    let mut book = PositionBook::new();
    let address = Address::from_seed(77);
    let collateral = Wad::from_int(10);
    let debt = Wad::from_f64(10.0 * 3_000.0 * 0.8 / hf);
    state.accounts.insert(address, (collateral, debt));
    book.mark_dirty(address);
    let oracle = toy_oracle(3_000.0);
    toy_differential(&state, &mut book, &oracle).expect("clean at anchor");
    (state, book, oracle, address)
}

/// Drive ETH through `prices` (one oracle write per tick), checking the
/// differential after every write; returns the derivations each tick took.
fn derives_along(
    state: &ToyState,
    book: &mut PositionBook,
    oracle: &mut PriceOracle,
    prices: impl IntoIterator<Item = f64>,
) -> Vec<u64> {
    let mut derives_per_tick = Vec::new();
    for (tick, price) in prices.into_iter().enumerate() {
        oracle.set_price(tick as u64 + 1, Token::ETH, Wad::from_f64(price));
        let before = book.stats().envelope_derives;
        toy_differential(state, book, oracle).unwrap_or_else(|e| panic!("tick {tick}: {e}"));
        derives_per_tick.push(book.stats().envelope_derives - before);
    }
    derives_per_tick
}

/// Directional envelopes size each bound by the band edge its move pushes
/// toward. A mid-band account rides a ±7 % oscillation from its first
/// envelope on; a knife-edge account just above its floor keeps a narrow
/// lower bound but rides a long rally the floor never limits; and a drop
/// through the narrow side still re-derives.
#[test]
fn directional_envelopes_ride_moves_away_from_the_floor() {
    // HF 1.35 at 3000: mid-Quiet. ±7 % swings stay inside the first
    // envelope — nothing re-derives after the anchor.
    let (state, mut book, mut oracle, _) = toy_single(1.35);
    let swings = (0..12).map(|tick| if tick % 2 == 0 { 3_210.0 } else { 3_000.0 });
    let derives = derives_along(&state, &mut book, &mut oracle, swings);
    assert!(
        derives.iter().all(|&d| d == 0),
        "a ±7 % oscillation re-derived the mid-band envelope: {derives:?}"
    );

    // HF 1.10: 4.8 % above the rescue floor, a factor 2 below the
    // re-leverage ceiling. ETH collateral takes the whole slack (ω_B = 1),
    // USDC debt a quarter (ω_D = 1/4) and the index a sixteenth, so the
    // floor allows (1+x/4)(1+x/16)/(1−x) ≤ 1.1/1.05, i.e. x just under
    // 3.5 %, and the ceiling allows (1+y)/(1−y/4) ≤ 2, i.e. y ≤ 2/3, which
    // the search's 45 % cap clips to about 44.7 %: some 13× the floor side.
    let (state, mut book, mut oracle, address) = toy_single(1.10);
    let view = ToyView(&state, ToyEnvelope::Complete);
    let mut position = Position::new(address);
    assert!(view.fill_position(&oracle, address, &mut position));
    let mut envelope = HfEnvelope::default();
    assert!(view.hf_envelope(
        &oracle,
        &position,
        Some(rescue()),
        Some(releverage()),
        &mut envelope,
    ));
    let &(_, eth_lo, eth_hi) = envelope
        .price_bounds
        .iter()
        .find(|(t, _, _)| *t == Token::ETH)
        .expect("ETH is bounded");
    let anchor = Wad::from_int(3_000).raw();
    let floor_side = (anchor - eth_lo) as f64 / anchor as f64;
    assert!(
        (0.033..0.035).contains(&floor_side),
        "the floor-side slack is {floor_side}, not just under 3.5 %"
    );
    assert!(
        (eth_hi - anchor) > 12 * (anchor - eth_lo),
        "the ceiling side is not wider than the floor side: [{eth_lo}, {eth_hi}] around {anchor}"
    );
    // The pegged debt takes a quarter of each side's slack.
    let &(_, usdc_lo, usdc_hi) = envelope
        .price_bounds
        .iter()
        .find(|(t, _, _)| *t == Token::USDC)
        .expect("USDC is bounded");
    let usdc = Wad::ONE.raw();
    assert!(
        (usdc_hi - usdc_lo) as f64 / (usdc as f64) < (eth_hi - eth_lo) as f64 / anchor as f64,
        "the USDC bound [{usdc_lo}, {usdc_hi}] is not narrower than ETH's [{eth_lo}, {eth_hi}]"
    );

    // A +30 % rally in 3 % steps: every step lies inside the certified
    // upper bound, so none re-derives. (A symmetric slack sized by the
    // floor would break by the second step.)
    let rally = (1..=10).map(|step| 3_000.0 * (1.0 + 0.03 * step as f64));
    let derives = derives_along(&state, &mut book, &mut oracle, rally);
    assert!(
        derives.iter().all(|&d| d == 0),
        "the floor-limited account re-derived during the rally: {derives:?}"
    );
    assert_eq!(book.stats().envelope_derives, 1, "only the anchor derived");

    // Teeth: one raw unit below the certified lower bound (still HF > 1.05,
    // the same Quiet band) breaks the envelope and re-derives.
    oracle.set_price(100, Token::ETH, Wad::from_raw(eth_lo - 1));
    let before = book.stats().envelope_derives;
    toy_differential(&state, &mut book, &oracle).expect("clean after the drop");
    assert_eq!(
        book.stats().envelope_derives - before,
        1,
        "a drop below the certified lower bound did not re-derive"
    );
}

// ---------------------------------------------------------------------------
// Conservative bounds: evaluate every certified envelope at its own corner
// prices and index caps through the valuation math — the health factor must
// still be inside the certified band at the edge of the envelope.
// ---------------------------------------------------------------------------

/// The band edges the book would certify a position at `hf` into.
fn band_edges(hf: Wad) -> (Option<Wad>, Option<Wad>) {
    if hf < Wad::ONE {
        (None, Some(Wad::ONE))
    } else if hf < rescue() {
        (Some(Wad::ONE), Some(rescue()))
    } else if hf > releverage() {
        (Some(releverage()), None)
    } else {
        (Some(rescue()), Some(releverage()))
    }
}

/// Evaluate `hf_at(eth_raw, usdc_raw, index)` at every corner of the
/// envelope's ETH × USDC price box — the health factor is monotone in each
/// price, so the corners are its extremes — with the `debt_token` borrow
/// index both at `index` (where the upward corners sit: accrual only lowers
/// HF) and at its certified cap (where the downward corners sit). An
/// uncapped index (open floor) is only evaluated at `index`.
fn corners_stay_in_band(
    envelope: &HfEnvelope,
    floor: Option<Wad>,
    ceiling: Option<Wad>,
    (debt_token, index): (Token, Ray),
    hf_at: impl Fn(u128, u128, Ray) -> Option<Wad>,
) -> Result<(), prop::TestCaseError> {
    let bound = |token: Token| -> Result<(u128, u128), prop::TestCaseError> {
        envelope
            .price_bounds
            .iter()
            .find(|(t, _, _)| *t == token)
            .map(|&(_, lo, hi)| (lo, hi))
            .ok_or_else(|| prop::TestCaseError::Fail(format!("{token} is not bounded")))
    };
    let (eth_lo, eth_hi) = bound(Token::ETH)?;
    let (usdc_lo, usdc_hi) = bound(Token::USDC)?;
    let cap = envelope
        .index_caps
        .iter()
        .find(|(t, _)| *t == debt_token)
        .map(|&(_, cap)| cap)
        .ok_or_else(|| prop::TestCaseError::Fail(format!("{debt_token} has no index cap")))?;
    let mut indexes = vec![index];
    if cap != u128::MAX {
        indexes.push(Ray::from_raw(cap));
    }
    for eth in [eth_lo, eth_hi] {
        for usdc in [usdc_lo, usdc_hi] {
            for &at in &indexes {
                let Some(corner) = hf_at(eth, usdc, at) else {
                    continue;
                };
                if let Some(floor) = floor {
                    prop_assert!(
                        corner >= floor,
                        "corner HF {corner} (ETH {eth}, USDC {usdc}, index {}) fell through \
                         the certified floor {floor}",
                        at.raw()
                    );
                }
                if let Some(ceiling) = ceiling {
                    prop_assert!(
                        corner < ceiling,
                        "corner HF {corner} (ETH {eth}, USDC {usdc}, index {}) rose through \
                         the certified ceiling {ceiling}",
                        at.raw()
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn envelope_corners_never_leave_the_certified_band(
        collateral in 0.5f64..500.0,
        price in 20.0f64..20_000.0,
        usage in 0.05f64..1.4,
        usdc_wobble in 0.9f64..1.1,
        index_growth in 1.0f64..1.5,
        usdc_share in 0.05f64..0.9,
    ) {
        let mut state = ToyState::new();
        state.index = Wad::from_f64(index_growth).to_ray().expect("small index");
        let address = Address::from_seed(77);
        let collateral = Wad::from_f64(collateral);
        let scaled_debt = Wad::from_f64(collateral.to_f64() * price * 0.8 * usage / index_growth);
        state.accounts.insert(address, (collateral, scaled_debt));

        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_f64(price));
        oracle.set_price(0, Token::USDC, Wad::from_f64(usdc_wobble));

        // ETH collateral against USDC debt, through the toy's fill_position.
        let view = ToyView(&state, ToyEnvelope::Complete);
        let mut position = Position::new(address);
        prop_assume!(view.fill_position(&oracle, address, &mut position));
        if let Some(hf) = position.health_factor() {
            let (floor, ceiling) = band_edges(hf);
            let mut envelope = HfEnvelope::default();
            // A position too close to an edge rides the exact path.
            if view.hf_envelope(&oracle, &position, floor, ceiling, &mut envelope) {
                corners_stay_in_band(&envelope, floor, ceiling, (Token::USDC, state.index), |eth, usdc, index| {
                    let mut corner_state = state.clone();
                    corner_state.index = index;
                    let mut corner = PriceOracle::new(OracleConfig::every_update());
                    corner.set_price(0, Token::ETH, Wad::from_raw(eth));
                    corner.set_price(0, Token::USDC, Wad::from_raw(usdc));
                    let mut slot = Position::new(address);
                    ToyView(&corner_state, ToyEnvelope::Complete)
                        .fill_position(&corner, address, &mut slot)
                        .then(|| slot.health_factor())
                        .flatten()
                })?;
            }
        }

        // The same scaled USDC debt, with a `usdc_share` of the collateral
        // value moved into USDC: USDC is held on both sides, so its bound is
        // the intersection of a collateral and a debt bound.
        let eth_amount = Wad::from_f64(collateral.to_f64() * (1.0 - usdc_share));
        let usdc_amount = Wad::from_f64(collateral.to_f64() * price * usdc_share / usdc_wobble);
        let dual = |eth: u128, usdc: u128, index: Ray| -> Option<Position> {
            let (eth, usdc) = (Wad::from_raw(eth), Wad::from_raw(usdc));
            let mut slot = Position::new(address);
            for (token, amount, price, threshold, spread) in [
                (Token::ETH, eth_amount, eth, 0.8, 0.10),
                (Token::USDC, usdc_amount, usdc, 0.85, 0.05),
            ] {
                slot.collateral.push(defi_liquidations_suite::core::position::CollateralHolding {
                    token,
                    amount,
                    value_usd: amount.checked_mul(price).unwrap_or(Wad::MAX),
                    liquidation_threshold: Wad::from_f64(threshold),
                    liquidation_spread: Wad::from_f64(spread),
                });
            }
            let amount = scaled_debt.to_ray().ok()?.checked_mul(index).ok()?.to_wad();
            slot.debt.push(defi_liquidations_suite::core::position::DebtHolding {
                token: Token::USDC,
                amount,
                value_usd: amount.checked_mul(usdc).unwrap_or(Wad::MAX),
            });
            Some(slot)
        };
        let anchor = dual(
            Wad::from_f64(price).raw(),
            Wad::from_f64(usdc_wobble).raw(),
            state.index,
        );
        if let Some(hf) = anchor.as_ref().and_then(|p| p.health_factor()) {
            let (floor, ceiling) = band_edges(hf);
            let mut envelope = HfEnvelope::default();
            if derive_hf_envelope(
                &state.markets(),
                &oracle,
                anchor.as_ref().expect("checked above"),
                floor,
                ceiling,
                &mut envelope,
            ) {
                corners_stay_in_band(&envelope, floor, ceiling, (Token::USDC, state.index), |eth, usdc, index| {
                    dual(eth, usdc, index).and_then(|p| p.health_factor())
                })?;
            }
        }

        // The mirror shape: USDC collateral against scaled ETH debt, so the
        // stablecoin weight sits on the collateral side and the volatile
        // price on the debt side, under an ETH borrow index that has grown
        // by `index_growth`.
        let mut markets = state.markets();
        if let Some(eth_market) = markets.get_mut(&Token::ETH) {
            eth_market.index.index = state.index;
        }
        let stable_amount = Wad::from_f64(collateral.to_f64() * price / usdc_wobble);
        let scaled_eth_debt =
            Wad::from_f64(collateral.to_f64() * 0.85 * usage / index_growth);
        let mirror = |eth: u128, usdc: u128, index: Ray| -> Option<Position> {
            let (eth, usdc) = (Wad::from_raw(eth), Wad::from_raw(usdc));
            let mut slot = Position::new(address);
            slot.collateral.push(defi_liquidations_suite::core::position::CollateralHolding {
                token: Token::USDC,
                amount: stable_amount,
                value_usd: stable_amount.checked_mul(usdc).unwrap_or(Wad::MAX),
                liquidation_threshold: Wad::from_f64(0.85),
                liquidation_spread: Wad::from_f64(0.05),
            });
            let amount = scaled_eth_debt.to_ray().ok()?.checked_mul(index).ok()?.to_wad();
            slot.debt.push(defi_liquidations_suite::core::position::DebtHolding {
                token: Token::ETH,
                amount,
                value_usd: amount.checked_mul(eth).unwrap_or(Wad::MAX),
            });
            Some(slot)
        };
        let anchor = mirror(
            Wad::from_f64(price).raw(),
            Wad::from_f64(usdc_wobble).raw(),
            state.index,
        );
        if let Some(hf) = anchor.as_ref().and_then(|p| p.health_factor()) {
            let (floor, ceiling) = band_edges(hf);
            let mut envelope = HfEnvelope::default();
            if derive_hf_envelope(
                &markets,
                &oracle,
                anchor.as_ref().expect("checked above"),
                floor,
                ceiling,
                &mut envelope,
            ) {
                corners_stay_in_band(&envelope, floor, ceiling, (Token::ETH, state.index), |eth, usdc, index| {
                    mirror(eth, usdc, index).and_then(|p| p.health_factor())
                })?;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Random op interleavings against a real fixed-spread pool: the banded
// surfaces are checked *before* any full-refresh query, so the lazy path is
// what the differential sees.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn banded_surfaces_match_shadow_after_random_ops(
        ops in prop::collection::vec((0u8..7, 0u8..6, 1u32..30_000, 0u16..1_000), 1..40),
    ) {
        let mut protocol = compound();
        let mut ledger = Ledger::new();
        let mut events = Vec::new();
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_int(3_000));
        oracle.set_price(0, Token::USDC, Wad::ONE);
        let lender = Address::from_seed(1);
        ledger.mint(lender, Token::USDC, Wad::from_int(50_000_000));
        protocol
            .deposit(&mut ledger, &mut events, lender, Token::USDC, Wad::from_int(50_000_000))
            .unwrap();
        // Past the platform inception block so accrual actually runs.
        let mut block: u64 = 7_800_000;
        let account = |who: u8| Address::from_seed(8_000 + (who % 6) as u64);

        for (step, (selector, who, magnitude, tweak)) in ops.into_iter().enumerate() {
            let address = account(who);
            match selector {
                0 => {
                    let amount = Wad::from_f64(magnitude as f64 / 1_000.0);
                    ledger.mint(address, Token::ETH, amount);
                    let _ = protocol.deposit(&mut ledger, &mut events, address, Token::ETH, amount);
                }
                1 => {
                    let amount = Wad::from_int(magnitude as u64);
                    ledger.mint(address, Token::USDC, amount);
                    let _ = protocol.deposit(&mut ledger, &mut events, address, Token::USDC, amount);
                }
                2 => {
                    let _ = protocol.borrow(
                        &mut ledger, &mut events, &oracle, block, address,
                        Token::USDC, Wad::from_int(magnitude as u64),
                    );
                }
                3 => {
                    let outstanding = protocol.debt_of(address, Token::USDC);
                    let share = Wad::from_f64((tweak % 999 + 1) as f64 / 1_000.0);
                    let amount = outstanding.checked_mul(share).unwrap_or(Wad::ZERO);
                    if !amount.is_zero() {
                        ledger.mint(address, Token::USDC, amount);
                        let _ = protocol.repay(&mut ledger, &mut events, block, address, Token::USDC, amount);
                    }
                }
                4 => {
                    if tweak % 3 == 0 {
                        let wobble = 0.97 + (tweak % 60) as f64 / 1_000.0;
                        oracle.set_price(block, Token::USDC, Wad::from_f64(wobble));
                    } else {
                        let factor = 0.5 + (tweak % 1_000) as f64 / 1_000.0;
                        oracle.set_price(block, Token::ETH, Wad::from_f64(3_000.0 * factor));
                    }
                }
                5 => {
                    block += (tweak % 5_000) as u64 + 1;
                    protocol.accrue_all(block);
                }
                _ => {
                    let outstanding = protocol.debt_of(address, Token::USDC);
                    let repay = outstanding
                        .checked_mul(protocol.config().close_factor)
                        .unwrap_or(Wad::ZERO);
                    if !repay.is_zero() {
                        let liquidator = Address::from_seed(9_999);
                        ledger.mint(liquidator, Token::USDC, repay);
                        let _ = protocol.liquidation_call(
                            &mut ledger, &mut events, &oracle, block,
                            liquidator, address, Token::USDC, Token::ETH, repay, false,
                        );
                    }
                }
            }

            // Shadow scan (cache-less) against the *banded* surfaces first.
            let shadow = LendingProtocol::reference_positions(&protocol, &oracle);
            let exhaustive: Vec<Address> = shadow
                .iter()
                .filter(|p| p.is_liquidatable())
                .map(|p| p.owner)
                .collect();
            let banded: Vec<Address> = protocol
                .liquidatable(&oracle)
                .into_iter()
                .map(|o| o.borrower)
                .collect();
            prop_assert_eq!(&banded, &exhaustive);
            prop_assert_eq!(protocol.book_totals(&oracle), reference_totals(&shadow, &oracle));

            let expected_at_risk: Vec<Address> = shadow
                .iter()
                .filter(|p| {
                    p.health_factor()
                        .is_some_and(|hf| hf >= Wad::ONE && (hf < rescue() || hf > releverage()))
                })
                .map(|p| p.owner)
                .collect();
            let mut seen: Vec<Address> = Vec::new();
            protocol.for_each_at_risk(&oracle, rescue(), releverage(), &mut |p| {
                seen.push(p.owner);
            });
            prop_assert_eq!(&seen, &expected_at_risk);

            // Periodically also require the full cached book to be
            // byte-identical (the engine's volume-sample / snapshot cadence).
            if step % 4 == 3 {
                prop_assert_eq!(protocol.book_positions(&oracle), shadow);
            }
        }
    }
}
