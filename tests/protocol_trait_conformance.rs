//! Trait-conformance tests for the unified `LendingProtocol` API.
//!
//! Each of the five studied platforms is driven through the same life cycle —
//! deposit → borrow → price drop → liquidation — purely via
//! `&mut dyn LendingProtocol`, and the resulting events and position
//! snapshots are checked against the mechanism's defining equations: the
//! Eq. 1 fixed-spread claim rule for Aave V1/V2, Compound and dYdX, and the
//! bite → tend/dent bid → deal flow for MakerDAO. A final test assembles a
//! full engine through `EngineBuilder` and checks every platform produces
//! liquidation activity through the registry.

use defi_liquidations_suite::chain::{ChainEvent, Ledger};
use defi_liquidations_suite::lending::{
    aave_v1, aave_v2, compound, dydx, maker_protocol, LendingProtocol, LiquidationExecution,
    LiquidationRequest, MechanismKind, ProtocolError,
};
use defi_liquidations_suite::oracle::{OracleConfig, PriceOracle};
use defi_liquidations_suite::prelude::*;
use defi_liquidations_suite::sim::{EngineBuilder, SimConfig};
use defi_liquidations_suite::types::{Platform, Token};

fn test_oracle() -> PriceOracle {
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
    oracle.set_price(0, Token::USDC, Wad::ONE);
    oracle.set_price(0, Token::DAI, Wad::ONE);
    oracle
}

/// Drive one fixed-spread platform through the full life cycle via the trait
/// object and verify the liquidation settles per the Eq. 1 claim rule.
fn drive_fixed_spread(mut protocol: Box<dyn LendingProtocol>) {
    let platform = protocol.platform();
    assert_eq!(protocol.mechanism(), MechanismKind::FixedSpread);
    let mut oracle = test_oracle();
    let mut ledger = Ledger::new();
    let mut events = Vec::new();

    // Genesis liquidity so the borrower can draw USDC.
    let lender = Address::from_seed(1);
    ledger.mint(lender, Token::USDC, Wad::from_int(1_000_000));
    protocol
        .deposit(
            &mut ledger,
            &mut events,
            lender,
            Token::USDC,
            Wad::from_int(1_000_000),
        )
        .unwrap();

    // Deposit 3 ETH, borrow ~98% of the reported borrowing capacity.
    let borrower = Address::from_seed(2);
    ledger.mint(borrower, Token::ETH, Wad::from_int(3));
    protocol
        .deposit(
            &mut ledger,
            &mut events,
            borrower,
            Token::ETH,
            Wad::from_int(3),
        )
        .unwrap();
    let capacity = protocol
        .position(&oracle, borrower)
        .expect("position exists after deposit")
        .borrowing_capacity();
    let borrow = Wad::from_f64(capacity.to_f64() * 0.98);
    protocol
        .borrow(
            &mut ledger,
            &mut events,
            &oracle,
            1,
            borrower,
            Token::USDC,
            borrow,
        )
        .unwrap();
    assert!(
        protocol.liquidatable(&oracle).is_empty(),
        "{platform}: freshly opened position must be healthy"
    );

    // A 15% ETH decline tips the position over.
    oracle.set_price(2, Token::ETH, Wad::from_f64(3_500.0 * 0.85));
    let opportunities = protocol.liquidatable(&oracle);
    assert_eq!(
        opportunities.len(),
        1,
        "{platform}: expected one opportunity"
    );
    let opportunity = &opportunities[0];
    assert_eq!(opportunity.platform, platform);
    assert_eq!(opportunity.borrower, borrower);
    assert_eq!(opportunity.mechanism, MechanismKind::FixedSpread);
    let hf_before = opportunity.position.health_factor().unwrap();
    assert!(hf_before < Wad::ONE);

    // Repay up to the close factor; claim follows Eq. 1.
    let debt_before = opportunity.position.total_debt_value();
    let spread = opportunity
        .position
        .collateral
        .iter()
        .find(|c| c.token == Token::ETH)
        .unwrap()
        .liquidation_spread;
    let close_factor = protocol.close_factor();
    let repay_amount = debt_before.checked_mul(close_factor).unwrap();

    let liquidator = Address::from_seed(3);
    ledger.mint(liquidator, Token::USDC, repay_amount);
    let request = LiquidationRequest::FixedSpread {
        liquidator,
        borrower,
        debt_token: Token::USDC,
        collateral_token: Token::ETH,
        repay_amount,
        used_flash_loan: false,
    };
    let execution = protocol
        .execute_liquidation(&mut ledger, &mut events, &oracle, 2, &request)
        .unwrap();
    let LiquidationExecution::FixedSpread(receipt) = execution else {
        panic!("{platform}: fixed-spread execution must yield a receipt");
    };

    // Claim rule: seized value = repaid value × (1 + LS), within fixed-point
    // rounding of the price division.
    let expected_claim = receipt
        .debt_repaid_usd
        .checked_mul(Wad::ONE.saturating_add(spread))
        .unwrap();
    let relative_error = (receipt.collateral_seized_usd.to_f64() - expected_claim.to_f64()).abs()
        / expected_claim.to_f64();
    assert!(
        relative_error < 1e-9,
        "{platform}: claim {} != repaid × (1+LS) {}",
        receipt.collateral_seized_usd,
        expected_claim
    );
    assert!(receipt.gross_profit_usd() > Wad::ZERO);

    // The position book reflects the settlement: debt reduced by the repaid
    // amount, and the close factor was honoured.
    let position_after = protocol.position(&oracle, borrower).unwrap();
    let debt_after = position_after.total_debt_value();
    assert!(
        debt_after.to_f64() <= debt_before.to_f64() - receipt.debt_repaid_usd.to_f64() + 1.0,
        "{platform}: debt must shrink by the repaid amount"
    );
    if close_factor < Wad::ONE {
        let hf_after = position_after.health_factor().unwrap();
        assert!(hf_after > hf_before, "{platform}: HF must improve");
    } else {
        // dYdX's 100% close factor clears the debt entirely.
        assert!(
            debt_after.is_zero(),
            "{platform}: full close factor clears debt"
        );
    }

    // The event log carries a platform-tagged liquidation with the numbers
    // from the receipt.
    let logged = events
        .iter()
        .find_map(|e| match e {
            ChainEvent::Liquidation(ev) if ev.platform == platform => Some(ev.clone()),
            _ => None,
        })
        .expect("liquidation event emitted");
    assert_eq!(logged.borrower, borrower);
    assert_eq!(logged.liquidator, liquidator);
    assert_eq!(logged.debt_repaid, receipt.debt_repaid);
    assert_eq!(logged.collateral_seized, receipt.collateral_seized);
    assert!(!logged.used_flash_loan);
}

#[test]
fn aave_v1_conforms_to_the_unified_protocol_api() {
    drive_fixed_spread(Box::new(aave_v1()));
}

#[test]
fn aave_v2_conforms_to_the_unified_protocol_api() {
    drive_fixed_spread(Box::new(aave_v2()));
}

#[test]
fn compound_conforms_to_the_unified_protocol_api() {
    drive_fixed_spread(Box::new(compound()));
}

#[test]
fn dydx_conforms_to_the_unified_protocol_api() {
    drive_fixed_spread(Box::new(dydx()));
}

/// MakerDAO runs the same life cycle through the same trait methods, with the
/// liquidation resolving as bite → bid → deal instead of one atomic call.
#[test]
fn makerdao_conforms_to_the_unified_protocol_api() {
    let mut protocol: Box<dyn LendingProtocol> = Box::new(maker_protocol());
    assert_eq!(protocol.platform(), Platform::MakerDao);
    assert_eq!(protocol.mechanism(), MechanismKind::Auction);
    let mut oracle = test_oracle();
    let mut ledger = Ledger::new();
    let mut events = Vec::new();

    // Deposit 3 ETH, draw DAI against the reported capacity (which encodes
    // the 150% liquidation ratio as LT = 1/1.5).
    let borrower = Address::from_seed(2);
    ledger.mint(borrower, Token::ETH, Wad::from_int(3));
    protocol
        .deposit(
            &mut ledger,
            &mut events,
            borrower,
            Token::ETH,
            Wad::from_int(3),
        )
        .unwrap();
    let capacity = protocol
        .position(&oracle, borrower)
        .unwrap()
        .borrowing_capacity();
    let expected_capacity = 3.0 * 3_500.0 / 1.5;
    assert!((capacity.to_f64() - expected_capacity).abs() < 1.0);
    let borrow = Wad::from_f64(capacity.to_f64() * 0.98);
    protocol
        .borrow(
            &mut ledger,
            &mut events,
            &oracle,
            1,
            borrower,
            Token::DAI,
            borrow,
        )
        .unwrap();
    assert!(protocol.liquidatable(&oracle).is_empty());

    // The same 15% decline trips the 150% ratio.
    oracle.set_price(2, Token::ETH, Wad::from_f64(3_500.0 * 0.85));
    let opportunities = protocol.liquidatable(&oracle);
    assert_eq!(opportunities.len(), 1);
    assert_eq!(opportunities[0].mechanism, MechanismKind::Auction);

    // bite: the CDP's collateral moves into an auction, debt grows by the
    // 13% penalty.
    let keeper = Address::from_seed(3);
    let start = LiquidationRequest::StartAuction {
        keeper,
        borrower: opportunities[0].borrower,
    };
    let LiquidationExecution::AuctionStarted(auction_id) = protocol
        .execute_liquidation(&mut ledger, &mut events, &oracle, 10, &start)
        .unwrap()
    else {
        panic!("expected an auction start");
    };
    let snapshot = protocol.auction_snapshot(auction_id).unwrap();
    assert_eq!(snapshot.collateral, Wad::from_int(3));
    let expected_debt = borrow.checked_mul(Wad::from_f64(1.13)).unwrap();
    assert!((snapshot.debt.to_f64() - expected_debt.to_f64()).abs() < 1e-6);
    assert!(events
        .iter()
        .any(|e| matches!(e, ChainEvent::AuctionStarted { .. })));

    // One full-debt tend bid flips the auction to the dent phase.
    ledger.mint(keeper, Token::DAI, snapshot.debt);
    let bid = LiquidationRequest::AuctionBid {
        bidder: keeper,
        auction_id,
        debt_bid: snapshot.debt,
        collateral_bid: Wad::ZERO,
    };
    protocol
        .execute_liquidation(&mut ledger, &mut events, &oracle, 11, &bid)
        .unwrap();

    // deal after the bid-duration condition: the keeper wins the collateral,
    // the event log carries the finalisation, the CDP book is empty.
    let params = protocol.auction_params().unwrap();
    let end = 11 + params.bid_duration_blocks;
    assert!(protocol.can_finalize_auction(auction_id, end));
    let settle = LiquidationRequest::SettleAuction {
        caller: keeper,
        auction_id,
    };
    let LiquidationExecution::AuctionSettled(outcome) = protocol
        .execute_liquidation(&mut ledger, &mut events, &oracle, end, &settle)
        .unwrap()
    else {
        panic!("expected a settlement");
    };
    assert_eq!(outcome.winner, Some(keeper));
    assert_eq!(ledger.balance(keeper, Token::ETH), Wad::from_int(3));
    assert!(events
        .iter()
        .any(|e| matches!(e, ChainEvent::AuctionFinalized { .. })));
    let position_after = protocol.position(&oracle, borrower).unwrap();
    assert!(position_after.total_debt_value().is_zero());
    assert!(position_after.total_collateral_value().is_zero());
}

/// Adversarial edge cases on a fixed-spread platform: over-repayment, a
/// liquidation request above the close factor, and liquidating a healthy
/// position must each come back as a typed error — never a panic, never a
/// silent clamp.
fn drive_fixed_spread_adversarial(mut protocol: Box<dyn LendingProtocol>) {
    let platform = protocol.platform();
    let mut oracle = test_oracle();
    let mut ledger = Ledger::new();
    let mut events = Vec::new();

    let lender = Address::from_seed(1);
    ledger.mint(lender, Token::USDC, Wad::from_int(1_000_000));
    protocol
        .deposit(
            &mut ledger,
            &mut events,
            lender,
            Token::USDC,
            Wad::from_int(1_000_000),
        )
        .unwrap();
    let borrower = Address::from_seed(2);
    ledger.mint(borrower, Token::ETH, Wad::from_int(3));
    protocol
        .deposit(
            &mut ledger,
            &mut events,
            borrower,
            Token::ETH,
            Wad::from_int(3),
        )
        .unwrap();
    let capacity = protocol
        .position(&oracle, borrower)
        .unwrap()
        .borrowing_capacity();
    let borrow = Wad::from_f64(capacity.to_f64() * 0.95);
    protocol
        .borrow(
            &mut ledger,
            &mut events,
            &oracle,
            1,
            borrower,
            Token::USDC,
            borrow,
        )
        .unwrap();

    // Repaying double the outstanding debt is rejected, and the position is
    // untouched (no partial clamp happened behind the error).
    let debt_before = protocol
        .position(&oracle, borrower)
        .unwrap()
        .total_debt_value();
    ledger.mint(borrower, Token::USDC, borrow);
    let over_repay = borrow.checked_mul(Wad::from_int(2)).unwrap();
    let err = protocol
        .repay(
            &mut ledger,
            &mut events,
            2,
            borrower,
            Token::USDC,
            over_repay,
        )
        .unwrap_err();
    assert!(
        matches!(err, ProtocolError::RepayExceedsOutstanding { .. }),
        "{platform}: over-repay must be typed, got {err}"
    );
    assert_eq!(
        protocol
            .position(&oracle, borrower)
            .unwrap()
            .total_debt_value(),
        debt_before,
        "{platform}: the rejected repayment must not move the book"
    );

    // Liquidating while the position is healthy is rejected.
    let liquidator = Address::from_seed(3);
    ledger.mint(liquidator, Token::USDC, over_repay);
    let healthy = LiquidationRequest::FixedSpread {
        liquidator,
        borrower,
        debt_token: Token::USDC,
        collateral_token: Token::ETH,
        repay_amount: Wad::from_int(100),
        used_flash_loan: false,
    };
    let err = protocol
        .execute_liquidation(&mut ledger, &mut events, &oracle, 2, &healthy)
        .unwrap_err();
    assert!(
        matches!(err, ProtocolError::NotLiquidatable(_)),
        "{platform}: healthy liquidation must be typed, got {err}"
    );

    // Once liquidatable, requesting double the whole debt exceeds every
    // platform's close factor (even dYdX's 100%): typed error, and the
    // position is untouched.
    oracle.set_price(3, Token::ETH, Wad::from_f64(3_500.0 * 0.80));
    assert_eq!(protocol.liquidatable(&oracle).len(), 1);
    let above_cap = LiquidationRequest::FixedSpread {
        liquidator,
        borrower,
        debt_token: Token::USDC,
        collateral_token: Token::ETH,
        repay_amount: over_repay,
        used_flash_loan: false,
    };
    let debt_before = protocol
        .position(&oracle, borrower)
        .unwrap()
        .total_debt_value();
    let err = protocol
        .execute_liquidation(&mut ledger, &mut events, &oracle, 3, &above_cap)
        .unwrap_err();
    assert!(
        matches!(err, ProtocolError::ExceedsCloseFactor { .. }),
        "{platform}: above-close-factor request must be typed, got {err}"
    );
    assert_eq!(
        protocol
            .position(&oracle, borrower)
            .unwrap()
            .total_debt_value(),
        debt_before,
        "{platform}: the rejected liquidation must not move the book"
    );
}

#[test]
fn aave_v1_rejects_adversarial_requests_with_typed_errors() {
    drive_fixed_spread_adversarial(Box::new(aave_v1()));
}

#[test]
fn aave_v2_rejects_adversarial_requests_with_typed_errors() {
    drive_fixed_spread_adversarial(Box::new(aave_v2()));
}

#[test]
fn compound_rejects_adversarial_requests_with_typed_errors() {
    drive_fixed_spread_adversarial(Box::new(compound()));
}

#[test]
fn dydx_rejects_adversarial_requests_with_typed_errors() {
    drive_fixed_spread_adversarial(Box::new(dydx()));
}

/// MakerDAO's adversarial cases: over-repaying a CDP, and bidding on (or
/// re-settling) an already-settled auction.
#[test]
fn makerdao_rejects_adversarial_requests_with_typed_errors() {
    let mut protocol: Box<dyn LendingProtocol> = Box::new(maker_protocol());
    let mut oracle = test_oracle();
    let mut ledger = Ledger::new();
    let mut events = Vec::new();

    let borrower = Address::from_seed(2);
    ledger.mint(borrower, Token::ETH, Wad::from_int(10));
    protocol
        .deposit(
            &mut ledger,
            &mut events,
            borrower,
            Token::ETH,
            Wad::from_int(10),
        )
        .unwrap();
    protocol
        .borrow(
            &mut ledger,
            &mut events,
            &oracle,
            1,
            borrower,
            Token::DAI,
            Wad::from_int(20_000),
        )
        .unwrap();

    // Over-repaying the CDP is a typed error, not a clamp.
    ledger.mint(borrower, Token::DAI, Wad::from_int(50_000));
    let err = protocol
        .repay(
            &mut ledger,
            &mut events,
            2,
            borrower,
            Token::DAI,
            Wad::from_int(30_000),
        )
        .unwrap_err();
    assert!(matches!(err, ProtocolError::RepayExceedsOutstanding { .. }));

    // Run a full auction to settlement…
    oracle.set_price(2, Token::ETH, Wad::from_int(2_500));
    let keeper = Address::from_seed(11);
    let LiquidationExecution::AuctionStarted(auction_id) = protocol
        .execute_liquidation(
            &mut ledger,
            &mut events,
            &oracle,
            10,
            &LiquidationRequest::StartAuction { keeper, borrower },
        )
        .unwrap()
    else {
        panic!("expected an auction start");
    };
    let debt = protocol.auction_snapshot(auction_id).unwrap().debt;
    ledger.mint(keeper, Token::DAI, debt);
    protocol
        .execute_liquidation(
            &mut ledger,
            &mut events,
            &oracle,
            11,
            &LiquidationRequest::AuctionBid {
                bidder: keeper,
                auction_id,
                debt_bid: debt,
                collateral_bid: Wad::ZERO,
            },
        )
        .unwrap();
    let end = 11 + protocol.auction_params().unwrap().bid_duration_blocks;
    protocol
        .execute_liquidation(
            &mut ledger,
            &mut events,
            &oracle,
            end,
            &LiquidationRequest::SettleAuction {
                caller: keeper,
                auction_id,
            },
        )
        .unwrap();

    // …then bidding on the settled auction is a typed error,
    let late_bidder = Address::from_seed(12);
    ledger.mint(late_bidder, Token::DAI, debt);
    let err = protocol
        .execute_liquidation(
            &mut ledger,
            &mut events,
            &oracle,
            end + 1,
            &LiquidationRequest::AuctionBid {
                bidder: late_bidder,
                auction_id,
                debt_bid: debt,
                collateral_bid: Wad::ZERO,
            },
        )
        .unwrap_err();
    assert!(matches!(err, ProtocolError::AuctionAlreadyFinalized));

    // …as is settling it a second time or bidding on a non-existent auction.
    let err = protocol
        .execute_liquidation(
            &mut ledger,
            &mut events,
            &oracle,
            end + 2,
            &LiquidationRequest::SettleAuction {
                caller: keeper,
                auction_id,
            },
        )
        .unwrap_err();
    assert!(matches!(err, ProtocolError::AuctionAlreadyFinalized));
    let err = protocol
        .execute_liquidation(
            &mut ledger,
            &mut events,
            &oracle,
            end + 3,
            &LiquidationRequest::AuctionBid {
                bidder: late_bidder,
                auction_id: auction_id + 999,
                debt_bid: debt,
                collateral_bid: Wad::ZERO,
            },
        )
        .unwrap_err();
    assert!(matches!(err, ProtocolError::UnknownAuction(_)));
}

/// A liquidation request from the wrong mechanism is rejected uniformly.
#[test]
fn mechanism_mismatch_is_rejected_across_the_registry() {
    let mut oracle = test_oracle();
    oracle.set_price(0, Token::WBTC, Wad::from_int(50_000));
    let mut ledger = Ledger::new();
    let mut events = Vec::new();
    let someone = Address::from_seed(9);

    let mut fixed: Box<dyn LendingProtocol> = Box::new(compound());
    let bite = LiquidationRequest::StartAuction {
        keeper: someone,
        borrower: someone,
    };
    assert!(fixed
        .execute_liquidation(&mut ledger, &mut events, &oracle, 1, &bite)
        .is_err());

    let mut maker: Box<dyn LendingProtocol> = Box::new(maker_protocol());
    let call = LiquidationRequest::FixedSpread {
        liquidator: someone,
        borrower: someone,
        debt_token: Token::DAI,
        collateral_token: Token::ETH,
        repay_amount: Wad::ONE,
        used_flash_loan: false,
    };
    assert!(maker
        .execute_liquidation(&mut ledger, &mut events, &oracle, 1, &call)
        .is_err());
}

/// The registry path end to end: an engine assembled through `EngineBuilder`
/// produces both fixed-spread liquidations and finalised auctions, and its
/// final position book covers every registered platform.
#[test]
fn engine_builder_runs_all_platforms_through_the_registry() {
    use defi_liquidations_suite::chain::{EventFilter, EventKind};

    let report = EngineBuilder::new(SimConfig::smoke_test(2021))
        .build()
        .run();

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
        "got {liquidations} fixed-spread liquidations"
    );
    assert!(auctions > 0, "got {auctions} finalised auctions");
    for platform in Platform::ALL {
        assert!(
            report.final_positions.contains_key(&platform),
            "{platform} missing from the final snapshot"
        );
    }
}

/// The PR 5 discovery surfaces every implementation must satisfy:
/// `reference_positions` is the cache-less shadow of `book_positions`, the
/// banded `for_each_at_risk` equals the exact health-factor filter, and
/// fixed-spread markets expose their per-market risk parameters.
fn check_discovery_surfaces(protocol: &mut dyn LendingProtocol, oracle: &PriceOracle) {
    let platform = protocol.platform();
    let shadow = protocol.reference_positions(oracle);
    let cached = protocol.book_positions(oracle);
    assert_eq!(
        cached, shadow,
        "{platform}: book_positions must equal the from-scratch reference"
    );
    assert_eq!(
        protocol.book_snapshot(oracle),
        cached,
        "{platform}: book_snapshot must alias book_positions"
    );

    let rescue = Wad::from_f64(defi_liquidations_suite::lending::RESCUE_BAND_HF);
    let releverage = Wad::from_f64(defi_liquidations_suite::lending::RELEVERAGE_BAND_HF);
    let expected: Vec<Address> = shadow
        .iter()
        .filter(|p| {
            p.health_factor()
                .is_some_and(|hf| hf < rescue || hf > releverage)
        })
        .map(|p| p.owner)
        .collect();
    let mut seen: Vec<Address> = Vec::new();
    protocol.for_each_at_risk(oracle, rescue, releverage, &mut |p| seen.push(p.owner));
    assert_eq!(
        seen, expected,
        "{platform}: at-risk iteration must equal the exact HF filter"
    );

    if protocol.mechanism() == MechanismKind::FixedSpread {
        for token in protocol.listed_tokens() {
            let params = protocol
                .market_risk_params(token)
                .unwrap_or_else(|| panic!("{platform}: {token} has no risk parameters"));
            assert!(!params.liquidation_spread.is_zero());
        }
    }
}

/// Both mechanisms satisfy the shadow/banded discovery contract after a
/// price move pushes positions across the bands.
#[test]
fn discovery_surfaces_conform_across_mechanisms() {
    let mut oracle = test_oracle();
    let mut ledger = Ledger::new();
    let mut events = Vec::new();

    let mut fixed: Box<dyn LendingProtocol> = Box::new(compound());
    let lender = Address::from_seed(41);
    ledger.mint(lender, Token::USDC, Wad::from_int(1_000_000));
    fixed
        .deposit(
            &mut ledger,
            &mut events,
            lender,
            Token::USDC,
            Wad::from_int(1_000_000),
        )
        .unwrap();
    let borrower = Address::from_seed(42);
    ledger.mint(borrower, Token::ETH, Wad::from_int(3));
    fixed
        .deposit(
            &mut ledger,
            &mut events,
            borrower,
            Token::ETH,
            Wad::from_int(3),
        )
        .unwrap();
    fixed
        .borrow(
            &mut ledger,
            &mut events,
            &oracle,
            1,
            borrower,
            Token::USDC,
            Wad::from_int(7_500),
        )
        .unwrap();

    let mut maker: Box<dyn LendingProtocol> = Box::new(maker_protocol());
    let owner = Address::from_seed(43);
    ledger.mint(owner, Token::ETH, Wad::from_int(10));
    maker
        .deposit(
            &mut ledger,
            &mut events,
            owner,
            Token::ETH,
            Wad::from_int(10),
        )
        .unwrap();
    maker
        .borrow(
            &mut ledger,
            &mut events,
            &oracle,
            1,
            owner,
            Token::DAI,
            Wad::from_int(20_000),
        )
        .unwrap();

    check_discovery_surfaces(fixed.as_mut(), &oracle);
    check_discovery_surfaces(maker.as_mut(), &oracle);

    // Crash ETH: both books cross into at-risk / liquidatable bands, and the
    // surfaces must still agree with the shadow.
    oracle.set_price(2, Token::ETH, Wad::from_int(2_600));
    check_discovery_surfaces(fixed.as_mut(), &oracle);
    check_discovery_surfaces(maker.as_mut(), &oracle);
    assert!(!fixed.liquidatable(&oracle).is_empty());
    assert!(!maker.liquidatable(&oracle).is_empty());
}
