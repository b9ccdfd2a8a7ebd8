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
//!   opts into): the chain head matches the tick block; every position book
//!   entry values its holdings at the platform oracle's current price (no
//!   stale or saturated valuations — the "no negative balances" failure mode
//!   of unsigned arithmetic is a saturated blow-up, which the sanity ceiling
//!   catches); and no DEX pool is drained to zero on either
//!   side (pool reserves *are* ledger balances since they moved into the
//!   journaled ledger, so reserve-vs-ledger conservation now holds by
//!   construction and depletion is the remaining failure mode).
//!
//! Violations are recorded (not panicked) by default so a run can be audited
//! post-hoc; [`InvariantObserver::strict`] panics at the first violation.

use std::collections::BTreeMap;

use defi_chain::{ChainEvent, LoggedEvent};
use defi_types::{BlockNumber, Platform, Token, Wad};

use crate::observer::{LiquidationObservation, RunEnd, RunStart, SimObserver, TickEnd};

/// Fallback upper bound on any plausible fixed-spread bonus (the studied
/// platforms use 5–15 %; MakerDAO's penalty is 13 %), used only for markets
/// whose actual liquidation spread the observer was not given.
const MAX_SPREAD: f64 = 0.25;

/// Sanity ceiling on any single USD valuation (catches saturated u128
/// arithmetic masquerading as astronomically large balances).
const MAX_SANE_USD: f64 = 1e15;

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

/// `a ≈ b` within a relative tolerance.
fn approx(a: Wad, b: Wad, rel: f64) -> bool {
    let (a, b) = (a.to_f64(), b.to_f64());
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
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

        // Position books, walked in place: valuations track the platform
        // oracle, nothing saturated. The walk visits only platforms with an
        // oracle.
        tick.for_each_position(&mut |platform, position| {
            let oracle = &tick.oracles[&platform];
            for holding in &position.collateral {
                let expected = holding
                    .amount
                    .checked_mul(oracle.price_or_zero(holding.token))
                    .unwrap_or(Wad::MAX);
                if !approx(holding.value_usd, expected, 1e-6) {
                    self.report(
                        block,
                        format!(
                            "{platform}: {} collateral valued {} USD, oracle says {}",
                            holding.token, holding.value_usd, expected
                        ),
                    );
                }
                if holding.value_usd.to_f64() > MAX_SANE_USD {
                    self.report(block, format!("{platform}: saturated collateral valuation"));
                }
            }
            for holding in &position.debt {
                // MakerDAO's vat accounts DAI debt at its 1-USD par
                // price regardless of the market price.
                let expected = if platform == Platform::MakerDao && holding.token == Token::DAI {
                    holding.amount
                } else {
                    holding
                        .amount
                        .checked_mul(oracle.price_or_zero(holding.token))
                        .unwrap_or(Wad::MAX)
                };
                if !approx(holding.value_usd, expected, 1e-6) {
                    self.report(
                        block,
                        format!(
                            "{platform}: {} debt valued {} USD, oracle says {}",
                            holding.token, holding.value_usd, expected
                        ),
                    );
                }
                if holding.value_usd.to_f64() > MAX_SANE_USD {
                    self.report(block, format!("{platform}: saturated debt valuation"));
                }
            }
        });

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

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn strict_mode_panics_immediately() {
        let mut observer = InvariantObserver::strict();
        observer.on_event(&logged(10, liquidation_event(1_000, 900)));
    }
}
