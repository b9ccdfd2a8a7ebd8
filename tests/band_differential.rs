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
//!   protocol that forgets its contract; a critical-price source whose term
//!   reprice skips the recomputation must be caught the same way.

use std::collections::BTreeMap;

use defi_liquidations_suite::chain::Ledger;
use defi_liquidations_suite::core::position::Position;
use defi_liquidations_suite::lending::book::{
    BookSource, EnvelopeAnchor, HfEnvelope, PositionBook,
};
use defi_liquidations_suite::lending::interest::InterestRateModel;
use defi_liquidations_suite::lending::{
    compound, derive_hf_envelope, LendingProtocol, Market, RELEVERAGE_BAND_HF, RESCUE_BAND_HF,
};
use defi_liquidations_suite::oracle::{OracleConfig, PriceOracle};
use defi_liquidations_suite::prelude::*;
use defi_liquidations_suite::sim::{
    EngineBuilder, NullObserver, ScenarioCatalog, SessionStatus, SimConfig,
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
/// `full` additionally compares the whole cached book (the expensive check,
/// run periodically).
fn audit_platform(
    scenario: &str,
    tick: u64,
    platform: Platform,
    protocol: &mut dyn LendingProtocol,
    oracle: &PriceOracle,
    full: bool,
) {
    let shadow = protocol.reference_positions(oracle);

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

    // Banded at-risk iteration == exhaustive HF-filtered walk.
    let expected_at_risk: Vec<(Address, Position)> = shadow
        .iter()
        .filter(|p| {
            p.health_factor()
                .is_some_and(|hf| hf < rescue() || hf > releverage())
        })
        .map(|p| (p.owner, p.clone()))
        .collect();
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
        let mut observer = NullObserver;
        let mut tick = 0u64;
        loop {
            let status = session
                .step(&mut observer)
                .unwrap_or_else(|e| panic!("{}: step failed: {e}", entry.name));
            tick += 1;
            let full = tick.is_multiple_of(5);
            for platform in session.platforms() {
                session
                    .inspect_protocol(platform, |protocol, oracle| {
                        audit_platform(&entry.name, tick, platform, protocol, oracle, full);
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
/// carry, so the book has to refuse their envelopes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ToyEnvelope {
    Complete,
    NoUsdcBound,
    NoUsdcCap,
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
        anchor: EnvelopeAnchor,
        out: &mut HfEnvelope,
    ) -> bool {
        let derived = derive_hf_envelope(
            &self.0.markets(),
            oracle,
            position,
            floor,
            ceiling,
            anchor,
            out,
        );
        match self.1 {
            ToyEnvelope::Complete => {}
            ToyEnvelope::NoUsdcBound => out.price_bounds.retain(|&(t, _, _)| t != Token::USDC),
            ToyEnvelope::NoUsdcCap => out.index_caps.retain(|&(t, _)| t != Token::USDC),
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
    let banded = book.liquidatable_accounts(&view, oracle);
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
                .is_some_and(|hf| hf < rescue() || hf > releverage())
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
/// every debtor carries an exact critical price and its price-stale
/// freshening takes the term path. `sabotaged` makes `reprice_position`
/// claim success without recomputing the moved terms — a deliberate
/// violation of the term-cache contract.
struct CdpToy {
    cdps: BTreeMap<Address, (Wad, Wad)>,
    sabotaged: bool,
}

impl CdpToy {
    const RATIO: f64 = 1.5;

    fn new(n: u64, sabotaged: bool) -> Self {
        let cdps = (0..n)
            .map(|i| {
                // Collateralization spreads from 150.1 % upwards at 100 USD.
                let debt = Wad::from_f64(10.0 * 100.0 / (1.501 + i as f64 * 0.05));
                (Address::from_seed(50_000 + i), (Wad::from_int(10), debt))
            })
            .collect();
        CdpToy { cdps, sabotaged }
    }

    /// Every CDP rebuilt from scratch through `fill_position`.
    fn rebuild(&self, oracle: &PriceOracle) -> Vec<Position> {
        let mut out = Vec::new();
        for &owner in self.cdps.keys() {
            let mut slot = Position::new(owner);
            if self.fill_position(oracle, owner, &mut slot) {
                out.push(slot);
            }
        }
        out
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
        slot.collateral
            .push(defi_liquidations_suite::core::position::CollateralHolding {
                token: Token::ETH,
                amount: collateral,
                value_usd: collateral
                    .checked_mul(oracle.price_or_zero(Token::ETH))
                    .unwrap_or(Wad::MAX),
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

    fn reprice_position(
        &self,
        oracle: &PriceOracle,
        position: &mut Position,
        moved: &[Token],
    ) -> bool {
        if self.sabotaged {
            // Contract violation on purpose: claim the terms were updated
            // while leaving the stale bytes in place.
            return true;
        }
        // Honest term path: same arithmetic as `fill_position` on the same
        // cached amounts, restricted to the moved tokens.
        for holding in &mut position.collateral {
            if moved.contains(&holding.token) {
                let price = oracle.price_or_zero(holding.token);
                holding.value_usd = holding.amount.checked_mul(price).unwrap_or(Wad::MAX);
            }
        }
        true
    }
}

/// A `reprice_position` that claims success without recomputing the moved
/// terms must be caught: after a move that crosses no critical price, the
/// cached book of the sabotaged source differs from a from-scratch rebuild.
/// The honest twin equals the rebuild — and both books served the move
/// through the term path, so the sabotage was exercised.
#[test]
fn harness_catches_a_sabotaged_term_reprice() {
    for sabotaged in [false, true] {
        let toy = CdpToy::new(20, sabotaged);
        let mut book = PositionBook::new();
        for &owner in toy.cdps.keys() {
            book.mark_dirty(owner);
        }
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_int(100));
        assert_eq!(
            book.book_positions(&toy, &oracle),
            toy.rebuild(&oracle),
            "nothing to reprice at the anchor price"
        );

        // The tightest CDP's critical price is ≈ 99.93: 99.95 crosses
        // nobody, so every CDP freshens lazily.
        oracle.set_price(1, Token::ETH, Wad::from_f64(99.95));
        assert!(book.liquidatable_accounts(&toy, &oracle).is_empty());
        let before = book.stats().term_reprices;
        let cached = book.book_positions(&toy, &oracle);
        assert_eq!(
            book.stats().term_reprices - before,
            toy.cdps.len() as u64,
            "every CDP must freshen through the term path"
        );
        if sabotaged {
            assert_ne!(
                cached,
                toy.rebuild(&oracle),
                "stale term bytes must not survive the differential"
            );
        } else {
            assert_eq!(
                cached,
                toy.rebuild(&oracle),
                "honest term path is byte-identical"
            );
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

/// An oscillating price whose swing exceeds the freshly-centred slack would
/// re-derive an envelope on every swing forever. Re-anchor hysteresis widens
/// the slack away from the broken edge, so after the first break the envelope
/// covers both poles of the oscillation and derivations stop.
#[test]
fn reanchor_hysteresis_absorbs_a_price_oscillation() {
    let mut state = ToyState::new();
    let mut book = PositionBook::new();
    let address = Address::from_seed(77);
    // HF 1.35 at 3000: mid-Quiet, fresh halving slack 6.25 %, hysteresis
    // coverage ~8-16 % depending on the anchor.
    let collateral = Wad::from_int(10);
    let debt = Wad::from_f64(10.0 * 3_000.0 * 0.8 / 1.35);
    state.accounts.insert(address, (collateral, debt));
    book.mark_dirty(address);
    let oracle = toy_oracle(3_000.0);
    toy_differential(&state, &mut book, &oracle).expect("clean at anchor");

    // ±7 % swings: both poles break a freshly-centred 6.25 % envelope, both
    // fit inside the widened re-anchor.
    let mut oracle = oracle;
    let mut derives_per_tick = Vec::new();
    for tick in 0..12u64 {
        let price = if tick % 2 == 0 { 3_210.0 } else { 3_000.0 };
        oracle.set_price(tick + 1, Token::ETH, Wad::from_f64(price));
        let before = book.stats().envelope_derives;
        toy_differential(&state, &mut book, &oracle).unwrap_or_else(|e| panic!("tick {tick}: {e}"));
        derives_per_tick.push(book.stats().envelope_derives - before);
    }
    assert!(
        derives_per_tick[0] > 0,
        "the first swing never broke the fresh envelope — the oscillation tests nothing"
    );
    assert!(
        derives_per_tick[1..].iter().all(|&d| d == 0),
        "steady-state oscillation still re-derives: {derives_per_tick:?}"
    );
}

// ---------------------------------------------------------------------------
// Conservative bounds: evaluate every certified envelope at its own corner
// prices through the real valuation path — the health factor must still be
// inside the certified band at the edge of the envelope.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn envelope_corners_never_leave_the_certified_band(
        collateral in 0.5f64..500.0,
        price in 20.0f64..20_000.0,
        usage in 0.05f64..1.4,
        usdc_wobble in 0.9f64..1.1,
    ) {
        let mut state = ToyState::new();
        let address = Address::from_seed(77);
        let collateral = Wad::from_f64(collateral);
        let debt = Wad::from_f64(collateral.to_f64() * price * 0.8 * usage);
        state.accounts.insert(address, (collateral, debt));

        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_f64(price));
        oracle.set_price(0, Token::USDC, Wad::from_f64(usdc_wobble));

        let view = ToyView(&state, ToyEnvelope::Complete);
        let mut position = Position::new(address);
        prop_assume!(view.fill_position(&oracle, address, &mut position));
        let Some(hf) = position.health_factor() else { return Ok(()); };

        // The band edges the book would certify this position into.
        let (floor, ceiling) = if hf < Wad::ONE {
            (None, Some(Wad::ONE))
        } else if hf < rescue() {
            (Some(Wad::ONE), Some(rescue()))
        } else if hf > releverage() {
            (Some(releverage()), None)
        } else {
            (Some(rescue()), Some(releverage()))
        };
        let mut envelope = HfEnvelope::default();
        if !view.hf_envelope(
            &oracle,
            &position,
            floor,
            ceiling,
            EnvelopeAnchor::Fresh,
            &mut envelope,
        ) {
            return Ok(()); // too close to an edge: rides the exact path
        }

        // Worst corners for each direction: collateral price at its bound,
        // debt price at the opposite bound, evaluated through the very same
        // fill_position math.
        let corner_hf = |eth_raw: u128, usdc_raw: u128| -> Option<Wad> {
            let mut corner = PriceOracle::new(OracleConfig::every_update());
            corner.set_price(0, Token::ETH, Wad::from_raw(eth_raw));
            corner.set_price(0, Token::USDC, Wad::from_raw(usdc_raw));
            let mut slot = Position::new(address);
            if !ToyView(&state, ToyEnvelope::Complete).fill_position(&corner, address, &mut slot) {
                return None;
            }
            slot.health_factor()
        };
        let bound = |token: Token| -> (u128, u128) {
            envelope
                .price_bounds
                .iter()
                .find(|(t, _, _)| *t == token)
                .map(|&(_, lo, hi)| (lo, hi))
                .expect("every sensitive token is bounded")
        };
        let (eth_lo, eth_hi) = bound(Token::ETH);
        let (usdc_lo, usdc_hi) = bound(Token::USDC);

        // Downward corner: collateral cheapest, debt dearest.
        let hf_down = corner_hf(eth_lo, usdc_hi);
        // Upward corner: collateral dearest, debt cheapest.
        let hf_up = corner_hf(eth_hi, usdc_lo);
        for corner in [hf_down, hf_up] {
            let Some(corner) = corner else { continue };
            if let Some(floor) = floor {
                prop_assert!(
                    corner >= floor,
                    "corner HF {corner} fell through the certified floor {floor} (anchor {hf})"
                );
            }
            if let Some(ceiling) = ceiling {
                prop_assert!(
                    corner < ceiling,
                    "corner HF {corner} rose through the certified ceiling {ceiling} (anchor {hf})"
                );
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
            let banded = protocol.cached_liquidatable_accounts(&oracle);
            prop_assert_eq!(&banded, &exhaustive);

            let expected_at_risk: Vec<Address> = shadow
                .iter()
                .filter(|p| {
                    p.health_factor()
                        .is_some_and(|hf| hf < rescue() || hf > releverage())
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
                prop_assert_eq!(protocol.cached_book(&oracle), shadow);
            }
        }
    }
}
