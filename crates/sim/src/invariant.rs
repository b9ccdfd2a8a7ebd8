//! Per-tick conservation and solvency invariant checking.
//!
//! [`InvariantObserver`] is a [`SimObserver`] that audits a run as it
//! streams, independently of the analytics pipeline. It is attached to every
//! scenario-catalog entry in CI (`repro --check-invariants`) so that engine
//! or protocol drift — a claim rule that over-pays, an auction settling more
//! than its lot, a valuation that desynchronises from the oracle — fails the
//! build instead of silently skewing the measurements.
//!
//! Checked invariants:
//!
//! * **event stream** (every tick, no extra cost):
//!   event blocks are monotone; user-operation and settlement amounts are
//!   strictly positive; fixed-spread settlements obey the Eq. 1 claim rule
//!   envelope `repaid ≤ seized ≤ repaid × (1 + LS)` against the *seized
//!   market's own* liquidation spread (learned from the run-start context or
//!   [`InvariantObserver::with_market_spread`]; markets the observer has no
//!   spread for fall back to the global `MAX_SPREAD` worst case); oracle
//!   pushes carry positive prices; settlement transactions carry real gas
//!   context;
//! * **auction lifecycle**: bids and settlements reference started,
//!   un-finalised auctions; bids never exceed the lot; a settlement never
//!   pays out more collateral (or recovers more debt) than the lot that was
//!   put up at `bite`; no double finalisation;
//! * **liquidation only below the threshold**: every settlement observed via
//!   [`SimObserver::on_liquidation`] must carry a discovery health factor
//!   below 1 (the engine records it when the opportunity is found);
//! * **per-tick state** (via [`SimObserver::on_tick_end`], which the observer
//!   opts into): the chain head matches the tick block; no DEX pool is
//!   drained to zero on either side (pool reserves *are* ledger balances
//!   since they moved into the journaled ledger, so reserve-vs-ledger
//!   conservation holds by construction and depletion is the remaining
//!   failure mode); and every position book, read as it stands through
//!   [`LendingProtocol::audit_book`](defi_lending::LendingProtocol::audit_book)
//!   — no entry is re-valued, so an audited
//!   run does exactly the book work of an unaudited one and the audit
//!   checks the lazy state that run relies on
//!   ([`InvariantObserver::check_book_entry`]):
//!   - a **current** entry values each holding at the platform oracle's
//!     price (amount × price; MakerDAO's DAI debt at par);
//!   - a **lagging** entry is legal only under a certificate that holds:
//!     every envelope price bound contains the current price and every
//!     index cap covers the current borrow index (the book has synced
//!     those moves, so a broken certificate is a missed re-valuation);
//!   - the health factor recomputed from a lagging entry's cached amounts
//!     at current prices lies strictly inside its certified band, or on
//!     the certified side of its critical price;
//!   - no valuation is saturated (the "no negative balances" failure mode
//!     of unsigned arithmetic is a saturated blow-up, which the sanity
//!     ceiling catches).
//!
//!   Entries the book still owes a flush (dirty, or lagging a move after
//!   its last sync) are skipped: the next flush re-values or re-checks
//!   them.
//!
//! Violations are recorded (not panicked) by default so a run can be audited
//! post-hoc; [`InvariantObserver::strict`] panics at the first violation.

use std::collections::BTreeMap;

use defi_chain::{ChainEvent, LoggedEvent};
use defi_core::position::{CollateralHolding, DebtHolding, Position};
use defi_lending::{AuditEntry, Validity};
use defi_oracle::PriceOracle;
use defi_types::{BlockNumber, Platform, Token, Wad};

use crate::observer::{LiquidationObservation, RunEnd, RunStart, SimObserver, TickEnd};

/// Fallback upper bound on any plausible fixed-spread bonus (the studied
/// platforms use 5–15 %; MakerDAO's penalty is 13 %), used only for markets
/// whose actual liquidation spread the observer was not given.
const MAX_SPREAD: f64 = 0.25;

/// Sanity ceiling on any single USD valuation (catches saturated u128
/// arithmetic masquerading as astronomically large balances).
const MAX_SANE_USD: Wad = Wad::from_int(1_000_000_000_000_000);

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct InvariantViolation {
    /// Block at which the violation was observed.
    pub block: BlockNumber,
    /// Human-readable description of the broken invariant.
    pub description: String,
}

impl core::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "block {}: {}", self.block, self.description)
    }
}

/// How far below 1 a critical-price account's recomputed health factor may
/// read while its price sits at or above the critical price (raw Wad units,
/// 10⁻¹²): the threshold `1 / ratio` is truncated, so at the exact boundary
/// the health factor reads a few raw units below 1 while the bite is
/// refused.
const CRITICAL_BOUNDARY_DUST: Wad = Wad::from_raw(1_000_000);

/// A collateral holding's value at the oracle's current price, by the
/// arithmetic every `fill_position` uses.
fn collateral_value(oracle: &PriceOracle, holding: &CollateralHolding) -> Wad {
    holding
        .amount
        .checked_mul(oracle.price_or_zero(holding.token))
        .unwrap_or(Wad::MAX)
}

/// A debt holding's value at the oracle's current price. MakerDAO's vat
/// accounts DAI debt at its 1-USD par price regardless of the market price.
fn debt_value(platform: Platform, oracle: &PriceOracle, holding: &DebtHolding) -> Wad {
    if platform == Platform::MakerDao && holding.token == Token::DAI {
        holding.amount
    } else {
        holding
            .amount
            .checked_mul(oracle.price_or_zero(holding.token))
            .unwrap_or(Wad::MAX)
    }
}

/// The health factor of `position`'s cached amounts at the oracle's
/// current prices: [`Position::health_factor`] of a fresh valuation with
/// the same amounts, computed without building one.
fn health_factor_at(platform: Platform, oracle: &PriceOracle, position: &Position) -> Option<Wad> {
    let capacity = position.collateral.iter().fold(Wad::ZERO, |acc, holding| {
        acc.saturating_add(
            collateral_value(oracle, holding)
                .checked_mul(holding.liquidation_threshold)
                .unwrap_or(Wad::ZERO),
        )
    });
    let debt = position.debt.iter().fold(Wad::ZERO, |acc, holding| {
        acc.saturating_add(debt_value(platform, oracle, holding))
    });
    if debt.is_zero() {
        return None;
    }
    Some(capacity.checked_div(debt).unwrap_or(Wad::MAX))
}

/// Lot recorded when an auction starts, checked at every later step.
#[derive(Debug, Clone, Copy)]
struct AuctionLot {
    collateral: Wad,
    debt: Wad,
    finalized: bool,
}

/// `a ≤ b` up to fixed-point rounding dust.
fn le_dust(a: Wad, b: Wad) -> bool {
    a.to_f64() <= b.to_f64() * (1.0 + 1e-9) + 1e-9
}

/// Streaming invariant checker; see the module docs for the invariant list.
#[derive(Debug, Default)]
pub struct InvariantObserver {
    strict: bool,
    last_event_block: BlockNumber,
    auctions: BTreeMap<u64, AuctionLot>,
    /// Per-market liquidation spreads, keyed by (platform, collateral
    /// token); populated from the run-start context and/or
    /// [`with_market_spread`](InvariantObserver::with_market_spread).
    market_spreads: BTreeMap<(Platform, Token), Wad>,
    violations: Vec<InvariantViolation>,
}

impl InvariantObserver {
    /// A recording observer: violations accumulate and are inspected after
    /// the run via [`violations`](InvariantObserver::violations) /
    /// [`assert_clean`](InvariantObserver::assert_clean).
    pub fn new() -> Self {
        InvariantObserver::default()
    }

    /// A panicking observer: the first violation aborts the run with the
    /// violation as the panic message (CI mode).
    pub fn strict() -> Self {
        InvariantObserver {
            strict: true,
            ..InvariantObserver::default()
        }
    }

    /// Teach the observer one market's actual liquidation spread: Eq. 1
    /// settlements seizing `token` collateral on `platform` are then held to
    /// `repaid × (1 + spread)` instead of the global `MAX_SPREAD` envelope.
    /// Driven runs learn the whole table from the run-start context; this is
    /// for post-hoc audits of bare event streams.
    pub fn with_market_spread(mut self, platform: Platform, token: Token, spread: Wad) -> Self {
        self.market_spreads.insert((platform, token), spread);
        self
    }

    /// Every violation recorded so far.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Whether the run satisfied every invariant so far.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a summary if any invariant was violated.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "{} invariant violation(s): {}",
            self.violations.len(),
            self.violations
                .iter()
                .take(5)
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    /// Audit one entry of a position book's read-only walk
    /// ([`PositionBook::audit`](defi_lending::PositionBook::audit)) against
    /// `platform`'s oracle, recording a violation at `block` for each
    /// broken invariant (see the module docs). Reads the entry only: it
    /// neither re-values nor copies the position.
    pub fn check_book_entry(
        &mut self,
        block: BlockNumber,
        platform: Platform,
        oracle: &PriceOracle,
        entry: &AuditEntry<'_>,
    ) {
        let position = entry.position;
        // The sanity ceiling holds every cached term, however stale; a
        // current entry's terms are exactly what a fresh valuation computes.
        let current = entry.validity == Validity::Current;
        for holding in &position.collateral {
            if holding.value_usd > MAX_SANE_USD {
                self.report(block, format!("{platform}: saturated collateral valuation"));
            }
            if current {
                let expected = collateral_value(oracle, holding);
                if holding.value_usd != expected {
                    self.report(
                        block,
                        format!(
                            "{platform}: {} collateral valued {} USD, oracle says {}",
                            holding.token, holding.value_usd, expected
                        ),
                    );
                }
            }
        }
        for holding in &position.debt {
            if holding.value_usd > MAX_SANE_USD {
                self.report(block, format!("{platform}: saturated debt valuation"));
            }
            if current {
                let expected = debt_value(platform, oracle, holding);
                if holding.value_usd != expected {
                    self.report(
                        block,
                        format!(
                            "{platform}: {} debt valued {} USD, oracle says {}",
                            holding.token, holding.value_usd, expected
                        ),
                    );
                }
            }
        }
        match entry.validity {
            Validity::Current | Validity::Pending => {}
            Validity::Envelope {
                envelope,
                floor,
                ceiling,
            } => {
                for &(token, lo, hi) in &envelope.price_bounds {
                    let price = oracle.price(token).map_or(0, |p| p.raw());
                    if price < lo || price > hi {
                        let what =
                            format!("{token} price {price} is outside its bound [{lo}, {hi}]");
                        self.report_lagging(block, platform, position, what);
                    }
                }
                for &(token, cap) in &envelope.index_caps {
                    let index = entry
                        .borrow_indexes
                        .iter()
                        .find(|(market, _)| *market == token)
                        .map(|&(_, index)| index);
                    if index.is_none_or(|index| index > cap) {
                        let what = format!("{token} borrow index {index:?} is above its cap {cap}");
                        self.report_lagging(block, platform, position, what);
                    }
                }
                let in_band = match health_factor_at(platform, oracle, position) {
                    Some(hf) => {
                        floor.is_none_or(|floor| hf > floor)
                            && ceiling.is_none_or(|ceiling| hf < ceiling)
                    }
                    // Only a debt-free account has no health factor.
                    None => position.debt.is_empty(),
                };
                if !in_band {
                    let what = format!("health factor left its band ({floor:?}, {ceiling:?})");
                    self.report_lagging(block, platform, position, what);
                }
            }
            Validity::Critical { token, crit } => {
                let price = oracle.price(token).map_or(0, |p| p.raw());
                let agrees = health_factor_at(platform, oracle, position).is_some_and(|hf| {
                    if price < crit {
                        hf < Wad::ONE
                    } else {
                        hf.saturating_add(CRITICAL_BOUNDARY_DUST) >= Wad::ONE
                    }
                });
                if !agrees {
                    let what = format!(
                        "health factor disagrees with {token} price {price} vs critical {crit}"
                    );
                    self.report_lagging(block, platform, position, what);
                }
            }
            Validity::Uncertified => {
                let what = "no certificate covers it".to_string();
                self.report_lagging(block, platform, position, what);
            }
        }
    }

    /// Record a violation by a valuation that lags synced moves, naming the
    /// account.
    fn report_lagging(
        &mut self,
        block: BlockNumber,
        platform: Platform,
        position: &Position,
        what: String,
    ) {
        let owner = position.owner.short();
        self.report(
            block,
            format!("{platform} {owner}: lagging valuation: {what}"),
        );
    }

    fn report(&mut self, block: BlockNumber, description: String) {
        let violation = InvariantViolation { block, description };
        if self.strict {
            panic!("invariant violation at {violation}");
        }
        self.violations.push(violation);
    }

    fn check_positive(&mut self, block: BlockNumber, what: &str, amount: Wad) {
        if amount.is_zero() {
            self.report(block, format!("{what} has a zero amount"));
        }
    }
}

impl SimObserver for InvariantObserver {
    fn on_run_start(&mut self, run: &RunStart<'_>) {
        // Learn each market's actual liquidation spread; explicitly taught
        // spreads (with_market_spread) take precedence.
        for (&key, &spread) in &run.market_spreads {
            self.market_spreads.entry(key).or_insert(spread);
        }
    }

    fn on_event(&mut self, logged: &LoggedEvent) {
        let block = logged.block;
        if block < self.last_event_block {
            self.report(
                block,
                format!(
                    "event block regressed: {} after {}",
                    block, self.last_event_block
                ),
            );
        }
        self.last_event_block = self.last_event_block.max(block);

        match &logged.event {
            ChainEvent::Liquidation(event) => {
                if logged.gas_price == 0 || logged.gas_used == 0 {
                    self.report(block, "liquidation settled without gas context".to_string());
                }
                self.check_positive(block, "liquidation debt repaid", event.debt_repaid);
                self.check_positive(
                    block,
                    "liquidation collateral seized",
                    event.collateral_seized,
                );
                if event.collateral_seized_usd < event.debt_repaid_usd {
                    self.report(
                        block,
                        format!(
                            "claim rule violated: seized {} USD < repaid {} USD",
                            event.collateral_seized_usd, event.debt_repaid_usd
                        ),
                    );
                }
                // The seized market's own spread when known, the global
                // worst case otherwise.
                let spread = self
                    .market_spreads
                    .get(&(event.platform, event.collateral_token))
                    .map(|s| s.to_f64())
                    .unwrap_or(MAX_SPREAD);
                let envelope = Wad::from_f64(event.debt_repaid_usd.to_f64() * (1.0 + spread));
                if !le_dust(event.collateral_seized_usd, envelope) {
                    self.report(
                        block,
                        format!(
                            "claim rule violated: seized {} USD exceeds repaid {} USD × (1+{spread}) on {} {}",
                            event.collateral_seized_usd,
                            event.debt_repaid_usd,
                            event.platform,
                            event.collateral_token,
                        ),
                    );
                }
            }
            ChainEvent::AuctionStarted {
                auction_id,
                collateral_amount,
                debt,
                ..
            } => {
                self.check_positive(block, "auction lot collateral", *collateral_amount);
                self.check_positive(block, "auction lot debt", *debt);
                if self
                    .auctions
                    .insert(
                        *auction_id,
                        AuctionLot {
                            collateral: *collateral_amount,
                            debt: *debt,
                            finalized: false,
                        },
                    )
                    .is_some()
                {
                    self.report(block, format!("auction {auction_id} started twice"));
                }
            }
            ChainEvent::AuctionBid {
                auction_id,
                debt_bid,
                collateral_bid,
                ..
            } => match self.auctions.get(auction_id).copied() {
                None => self.report(block, format!("bid on unknown auction {auction_id}")),
                Some(lot) if lot.finalized => {
                    self.report(block, format!("bid on finalised auction {auction_id}"))
                }
                Some(lot) => {
                    if !le_dust(*debt_bid, lot.debt) {
                        self.report(
                            block,
                            format!(
                                "auction {auction_id} debt bid {} exceeds lot debt {}",
                                debt_bid, lot.debt
                            ),
                        );
                    }
                    if !le_dust(*collateral_bid, lot.collateral) {
                        self.report(
                            block,
                            format!(
                                "auction {auction_id} collateral bid {} exceeds lot {}",
                                collateral_bid, lot.collateral
                            ),
                        );
                    }
                }
            },
            ChainEvent::AuctionFinalized {
                auction_id,
                debt_repaid,
                collateral_received,
                started_at,
                ..
            } => {
                if *started_at > block {
                    self.report(
                        block,
                        format!("auction {auction_id} finalised before it started"),
                    );
                }
                match self.auctions.get_mut(auction_id) {
                    None => {
                        let id = *auction_id;
                        self.report(block, format!("settled unknown auction {id}"));
                    }
                    Some(lot) if lot.finalized => {
                        let id = *auction_id;
                        self.report(block, format!("auction {id} finalised twice"));
                    }
                    Some(lot) => {
                        lot.finalized = true;
                        let lot = *lot;
                        if !le_dust(*collateral_received, lot.collateral) {
                            self.report(
                                block,
                                format!(
                                    "auction {auction_id} paid out {} collateral, lot was {}",
                                    collateral_received, lot.collateral
                                ),
                            );
                        }
                        if !le_dust(*debt_repaid, lot.debt) {
                            self.report(
                                block,
                                format!(
                                    "auction {auction_id} recovered {} DAI, lot debt was {}",
                                    debt_repaid, lot.debt
                                ),
                            );
                        }
                    }
                }
            }
            ChainEvent::FlashLoan { amount, .. } => {
                self.check_positive(block, "flash loan", *amount);
            }
            ChainEvent::OracleUpdate { token, price } => {
                if price.is_zero() {
                    self.report(block, format!("oracle pushed a zero {token} price"));
                }
            }
            ChainEvent::Borrow { amount, .. } => self.check_positive(block, "borrow", *amount),
            ChainEvent::Deposit { amount, .. } => self.check_positive(block, "deposit", *amount),
            ChainEvent::Repay { amount, .. } => self.check_positive(block, "repay", *amount),
        }
    }

    fn on_liquidation(&mut self, liquidation: &LiquidationObservation<'_>) {
        let block = liquidation.logged.block;
        match liquidation.health_factor_before {
            Some(hf) if hf >= Wad::ONE => self.report(
                block,
                format!("liquidation of a healthy position (HF {hf} ≥ 1 at discovery)"),
            ),
            Some(_) => {}
            None => self.report(
                block,
                "liquidation settled without a recorded discovery health factor".to_string(),
            ),
        }
    }

    fn wants_tick_end(&self) -> bool {
        true
    }

    fn on_tick_end(&mut self, tick: &TickEnd<'_>) {
        let block = tick.block;
        if tick.chain.current_block() != block {
            self.report(
                block,
                format!(
                    "chain head {} does not match the tick block",
                    tick.chain.current_block()
                ),
            );
        }

        // Position books, read as they stand: platforms without an oracle
        // are skipped.
        for (platform, protocol) in tick.protocols.iter() {
            let Some(oracle) = tick.oracles.get(platform) else {
                continue;
            };
            protocol.audit_book(oracle, &mut |entry| {
                self.check_book_entry(block, *platform, oracle, entry);
            });
        }

        // AMM depletion: pool reserves *are* the pool account's journaled
        // ledger balances (reserve-vs-ledger conservation holds by
        // construction), so the remaining failure mode is a pool drained to
        // zero on one side — swaps against it would divide by an empty
        // reserve.
        let ledger = tick.chain.ledger();
        for pool in tick.dex.pools() {
            let config = pool.config();
            let (reserve_a, reserve_b) = pool.reserves(ledger);
            for (token, reserve) in [(config.token_a, reserve_a), (config.token_b, reserve_b)] {
                if reserve.is_zero() {
                    self.report(
                        block,
                        format!(
                            "DEX pool {} drained: zero {token} reserve",
                            pool.address.short(),
                        ),
                    );
                }
            }
        }
    }

    fn on_run_end(&mut self, end: &RunEnd<'_>) {
        // Every auction must resolve exactly once over a completed window;
        // an auction still open at the snapshot is fine (truncated runs), so
        // only structural double-settlement is checked here, which already
        // happened in the event pass. Record a final head check instead.
        if end.snapshot_block < self.last_event_block {
            self.report(
                end.snapshot_block,
                format!(
                    "snapshot block precedes the last event block {}",
                    self.last_event_block
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_types::{Address, Platform, Token, TxHash};

    fn logged(block: BlockNumber, event: ChainEvent) -> LoggedEvent {
        LoggedEvent {
            block,
            tx_index: 0,
            tx_hash: TxHash::derive(block, 0, 0),
            sender: Address::from_seed(1),
            gas_price: 50,
            gas_used: 400_000,
            event,
        }
    }

    fn liquidation_event(repaid_usd: u64, seized_usd: u64) -> ChainEvent {
        ChainEvent::Liquidation(defi_chain::LiquidationEvent {
            platform: Platform::Compound,
            liquidator: Address::from_seed(2),
            borrower: Address::from_seed(3),
            debt_token: Token::USDC,
            debt_repaid: Wad::from_int(repaid_usd),
            debt_repaid_usd: Wad::from_int(repaid_usd),
            collateral_token: Token::ETH,
            collateral_seized: Wad::ONE,
            collateral_seized_usd: Wad::from_int(seized_usd),
            used_flash_loan: false,
        })
    }

    #[test]
    fn clean_events_record_no_violations() {
        let mut observer = InvariantObserver::new();
        observer.on_event(&logged(10, liquidation_event(1_000, 1_080)));
        observer.on_event(&logged(
            11,
            ChainEvent::AuctionStarted {
                auction_id: 1,
                borrower: Address::from_seed(4),
                collateral_token: Token::ETH,
                collateral_amount: Wad::from_int(5),
                debt: Wad::from_int(9_000),
            },
        ));
        observer.on_event(&logged(
            12,
            ChainEvent::AuctionFinalized {
                auction_id: 1,
                winner: Address::from_seed(5),
                debt_repaid: Wad::from_int(9_000),
                debt_repaid_usd: Wad::from_int(9_000),
                collateral_token: Token::ETH,
                collateral_received: Wad::from_int(4),
                collateral_received_usd: Wad::from_int(10_000),
                borrower: Address::from_seed(4),
                started_at: 11,
                last_bid_at: 12,
                tend_bids: 1,
                dent_bids: 1,
                final_phase: defi_chain::AuctionPhase::Dent,
            },
        ));
        assert!(observer.is_clean(), "{:?}", observer.violations());
        observer.assert_clean();
    }

    #[test]
    fn claim_rule_violations_are_caught() {
        let mut observer = InvariantObserver::new();
        // Seized below repaid: negative spread.
        observer.on_event(&logged(10, liquidation_event(1_000, 900)));
        // Seized far above the spread envelope.
        observer.on_event(&logged(11, liquidation_event(1_000, 2_000)));
        assert_eq!(observer.violations().len(), 2);
    }

    #[test]
    fn auction_overpayment_and_double_settlement_are_caught() {
        let mut observer = InvariantObserver::new();
        observer.on_event(&logged(
            10,
            ChainEvent::AuctionStarted {
                auction_id: 7,
                borrower: Address::from_seed(4),
                collateral_token: Token::ETH,
                collateral_amount: Wad::from_int(5),
                debt: Wad::from_int(9_000),
            },
        ));
        let settle = |received: u64| ChainEvent::AuctionFinalized {
            auction_id: 7,
            winner: Address::from_seed(5),
            debt_repaid: Wad::from_int(9_000),
            debt_repaid_usd: Wad::from_int(9_000),
            collateral_token: Token::ETH,
            collateral_received: Wad::from_int(received),
            collateral_received_usd: Wad::from_int(10_000),
            borrower: Address::from_seed(4),
            started_at: 10,
            last_bid_at: 11,
            tend_bids: 1,
            dent_bids: 0,
            final_phase: defi_chain::AuctionPhase::Tend,
        };
        // Settles more collateral than the lot.
        observer.on_event(&logged(12, settle(6)));
        // Settles the same auction again.
        observer.on_event(&logged(13, settle(1)));
        assert_eq!(observer.violations().len(), 2);
        assert!(!observer.is_clean());
    }

    #[test]
    fn healthy_liquidation_is_a_violation() {
        let mut observer = InvariantObserver::new();
        let event = logged(10, liquidation_event(1_000, 1_080));
        observer.on_liquidation(&LiquidationObservation {
            logged: &event,
            eth_price: Wad::from_int(2_000),
            health_factor_before: Some(Wad::from_f64(1.2)),
        });
        assert_eq!(observer.violations().len(), 1);
        let mut observer = InvariantObserver::new();
        observer.on_liquidation(&LiquidationObservation {
            logged: &event,
            eth_price: Wad::from_int(2_000),
            health_factor_before: Some(Wad::from_f64(0.93)),
        });
        assert!(observer.is_clean());
    }

    /// A settlement whose spread exceeds the seized market's own bound trips
    /// the per-market envelope even when it sits inside the global
    /// `MAX_SPREAD` fallback.
    #[test]
    fn per_market_spread_tightens_the_claim_envelope() {
        // ETH on Compound pays a 10 % bonus; a 12 % seizure is inside the
        // 25 % global fallback but outside the market's own envelope.
        let mut observer = InvariantObserver::new().with_market_spread(
            Platform::Compound,
            Token::ETH,
            Wad::from_f64(0.10),
        );
        observer.on_event(&logged(10, liquidation_event(1_000, 1_120)));
        assert_eq!(observer.violations().len(), 1);
        assert!(observer.violations()[0].description.contains("claim rule"));

        // At exactly the market spread the same settlement is clean…
        let mut observer = InvariantObserver::new().with_market_spread(
            Platform::Compound,
            Token::ETH,
            Wad::from_f64(0.10),
        );
        observer.on_event(&logged(10, liquidation_event(1_000, 1_100)));
        assert!(observer.is_clean(), "{:?}", observer.violations());

        // …and a market the observer has no spread for keeps the fallback.
        let mut observer = InvariantObserver::new();
        observer.on_event(&logged(10, liquidation_event(1_000, 1_120)));
        assert!(observer.is_clean());
    }

    /// A lagging entry is held to its certificate: a price outside an
    /// envelope bound, a borrow index above a cap (moves the book has
    /// synced) or a health factor on the wrong side of a critical price is
    /// a violation, and so is a lagging entry with no certificate; a
    /// pending entry is not judged.
    #[test]
    fn lagging_entries_are_held_to_their_certificates() {
        use defi_core::position::{CollateralHolding, DebtHolding, Position};
        use defi_lending::HfEnvelope;
        use defi_oracle::{OracleConfig, PriceOracle};

        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_int(2_000));
        oracle.set_price(0, Token::USDC, Wad::ONE);
        // 1 ETH at 0.8 against 1,000 USDC: HF 1.6 at the current prices.
        let position = Position::new(Address::from_seed(9))
            .with_collateral(CollateralHolding {
                token: Token::ETH,
                amount: Wad::ONE,
                value_usd: Wad::from_int(2_100),
                liquidation_threshold: Wad::from_f64(0.8),
                liquidation_spread: Wad::from_f64(0.1),
            })
            .with_debt(DebtHolding {
                token: Token::USDC,
                amount: Wad::from_int(1_000),
                value_usd: Wad::from_int(1_000),
            });
        let eth = Wad::from_int(2_000).raw();
        let usdc = Wad::ONE.raw();
        let envelope = |eth_hi: u128, cap: u128| HfEnvelope {
            price_bounds: vec![
                (Token::ETH, eth / 2, eth_hi),
                (Token::USDC, usdc / 2, usdc * 2),
            ],
            index_caps: vec![(Token::USDC, cap)],
        };
        let violations = |validity: Validity<'_>| {
            let mut observer = InvariantObserver::new();
            observer.check_book_entry(
                1,
                Platform::Compound,
                &oracle,
                &AuditEntry {
                    position: &position,
                    validity,
                    borrow_indexes: &[(Token::USDC, 1_000)],
                },
            );
            observer.violations().len()
        };
        let holding = envelope(eth * 2, 1_000);
        let quiet = |envelope| Validity::Envelope {
            envelope,
            floor: Some(Wad::from_f64(1.05)),
            ceiling: Some(Wad::from_f64(2.2)),
        };
        let below_price = envelope(eth - 1, 1_000);
        let below_index = envelope(eth * 2, 999);
        assert_eq!(violations(quiet(&holding)), 0);
        assert_eq!(violations(quiet(&below_price)), 1);
        assert_eq!(violations(quiet(&below_index)), 1);
        // HF 1.6 is outside a rescue-band certificate.
        let rescue = Validity::Envelope {
            envelope: &holding,
            floor: Some(Wad::ONE),
            ceiling: Some(Wad::from_f64(1.05)),
        };
        assert_eq!(violations(rescue), 1);
        // ETH at 2,000 with HF 1.6: a critical price below the current
        // price certifies the healthy verdict, one above it claims the
        // account is liquidatable.
        let critical = |crit| Validity::Critical {
            token: Token::ETH,
            crit,
        };
        assert_eq!(violations(critical(eth - 1)), 0);
        assert_eq!(violations(critical(eth + 1)), 1);
        assert_eq!(violations(Validity::Uncertified), 1);
        assert_eq!(violations(Validity::Pending), 0);
        // The stale 2,100 USD collateral term is wrong for a current entry.
        assert_eq!(violations(Validity::Current), 1);
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn strict_mode_panics_immediately() {
        let mut observer = InvariantObserver::strict();
        observer.on_event(&logged(10, liquidation_event(1_000, 900)));
    }
}
