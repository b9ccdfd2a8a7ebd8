//! Cross-crate integration tests reproducing the paper's worked examples and
//! checking that the strategy/mitigation layer (defi-core), the protocol
//! substrate (defi-lending) and the chain (defi-chain) agree with each other.

use defi_liquidations_suite::chain::{Blockchain, ChainConfig};
use defi_liquidations_suite::core::mitigation::MitigationAnalysis;
use defi_liquidations_suite::core::params::RiskParams;
use defi_liquidations_suite::core::position::paper_walkthrough_position;
use defi_liquidations_suite::core::strategy::{
    optimal_liquidation, up_to_close_factor_liquidation,
};
use defi_liquidations_suite::lending::{
    FixedSpreadConfig, FixedSpreadProtocol, InterestRateModel, DEFAULT_DEBT_DUST,
};
use defi_liquidations_suite::oracle::{OracleConfig, PriceOracle};
use defi_liquidations_suite::prelude::*;
use defi_liquidations_suite::types::Platform;

/// §3.2.2: the fixed-spread example must yield exactly 420 USD of profit.
#[test]
fn section_3_2_2_walkthrough_numbers() {
    let position = paper_walkthrough_position(true);
    assert!(position.is_liquidatable());
    let outcome = up_to_close_factor_liquidation(
        position.total_collateral_value(),
        position.total_debt_value(),
        RiskParams::paper_example(),
    )
    .expect("liquidatable");
    assert_eq!(outcome.repay_1, Wad::from_int(4_200));
    assert_eq!(outcome.collateral_claimed, Wad::from_int(4_620));
    assert_eq!(outcome.profit, Wad::from_int(420));
}

/// The same walk-through executed against the protocol substrate through the
/// chain, with revert-on-failure semantics, produces the same numbers as the
/// closed-form layer.
#[test]
fn protocol_execution_matches_core_math() {
    let mut chain = Blockchain::new(ChainConfig::default());
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(chain.current_block(), Token::ETH, Wad::from_int(3_500));
    oracle.set_price(chain.current_block(), Token::USDC, Wad::ONE);

    let mut pool = FixedSpreadProtocol::new(FixedSpreadConfig {
        platform: Platform::Compound,
        close_factor: Wad::from_f64(0.5),
        one_liquidation_per_block: false,
        insurance_fund: false,
        debt_dust: DEFAULT_DEBT_DUST,
    });
    pool.list_market(
        Token::ETH,
        RiskParams::new(0.8, 0.10, 0.5),
        InterestRateModel::default(),
        0,
    );
    pool.list_market(
        Token::USDC,
        RiskParams::new(0.85, 0.05, 0.5),
        InterestRateModel::stablecoin(),
        0,
    );

    let lender = Address::from_seed(1);
    let borrower = Address::from_seed(2);
    let liquidator = Address::from_seed(3);
    chain.fund(lender, Token::USDC, Wad::from_int(100_000));
    chain.fund(borrower, Token::ETH, Wad::from_int(3));
    chain.fund(liquidator, Token::USDC, Wad::from_int(10_000));

    assert!(chain
        .execute(lender, 20, 250_000, |ctx| {
            pool.deposit(
                ctx.ledger,
                ctx.events,
                lender,
                Token::USDC,
                Wad::from_int(100_000),
            )
        })
        .is_success());
    assert!(chain
        .execute(borrower, 20, 250_000, |ctx| {
            pool.deposit(
                ctx.ledger,
                ctx.events,
                borrower,
                Token::ETH,
                Wad::from_int(3),
            )?;
            pool.borrow(
                ctx.ledger,
                ctx.events,
                &oracle,
                ctx.block,
                borrower,
                Token::USDC,
                Wad::from_int(8_400),
            )
        })
        .is_success());

    // Price decline; the position becomes liquidatable on-chain and in the
    // abstract model simultaneously.
    oracle.set_price(chain.current_block(), Token::ETH, Wad::from_int(3_300));
    let position = pool.position(&oracle, borrower).unwrap();
    assert!(position.is_liquidatable());
    let expected = up_to_close_factor_liquidation(
        position.total_collateral_value(),
        position.total_debt_value(),
        RiskParams::new(0.8, 0.10, 0.5),
    )
    .unwrap();

    let outcome = chain.execute(liquidator, 100, 500_000, |ctx| {
        pool.liquidation_call(
            ctx.ledger,
            ctx.events,
            &oracle,
            ctx.block,
            liquidator,
            borrower,
            Token::USDC,
            Token::ETH,
            Wad::from_int(4_200),
            false,
        )
    });
    let receipt = outcome.result.unwrap();

    // The executed profit matches the closed form to within fixed-point dust.
    let diff = receipt
        .gross_profit_usd()
        .abs_diff(expected.profit)
        .to_f64();
    assert!(diff < 1e-6, "protocol vs core profit differ by {diff}");
    // The ledger actually moved the funds (up to a wei of index-rounding dust).
    let liquidator_usdc = chain.ledger().balance(liquidator, Token::USDC);
    assert!(
        liquidator_usdc
            .abs_diff(Wad::from_int(10_000 - 4_200))
            .to_f64()
            < 1e-9,
        "unexpected liquidator balance {liquidator_usdc}"
    );
    assert!(chain.ledger().balance(liquidator, Token::ETH) > Wad::ONE);
    // And the event log recorded a liquidation with the same USD values.
    let (_, event) = chain.events().liquidations().next().expect("event logged");
    assert_eq!(event.debt_repaid_usd, receipt.debt_repaid_usd);
    assert_eq!(event.collateral_seized_usd, receipt.collateral_seized_usd);
}

/// A failed liquidation attempt (healthy position) reverts atomically: no
/// balance moves, no event is logged, but the transaction still pays gas.
#[test]
fn failed_liquidation_reverts_atomically() {
    let mut chain = Blockchain::new(ChainConfig::default());
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(chain.current_block(), Token::ETH, Wad::from_int(3_500));
    oracle.set_price(chain.current_block(), Token::USDC, Wad::ONE);
    let mut pool = FixedSpreadProtocol::new(FixedSpreadConfig {
        platform: Platform::AaveV2,
        close_factor: Wad::from_f64(0.5),
        one_liquidation_per_block: false,
        insurance_fund: false,
        debt_dust: DEFAULT_DEBT_DUST,
    });
    pool.list_market(
        Token::ETH,
        RiskParams::new(0.8, 0.05, 0.5),
        InterestRateModel::default(),
        0,
    );
    pool.list_market(
        Token::USDC,
        RiskParams::new(0.85, 0.05, 0.5),
        InterestRateModel::stablecoin(),
        0,
    );
    let lender = Address::from_seed(1);
    let borrower = Address::from_seed(2);
    let liquidator = Address::from_seed(3);
    chain.fund(lender, Token::USDC, Wad::from_int(50_000));
    chain.fund(borrower, Token::ETH, Wad::from_int(3));
    chain.fund(liquidator, Token::USDC, Wad::from_int(5_000));
    chain.execute(lender, 20, 250_000, |ctx| {
        pool.deposit(
            ctx.ledger,
            ctx.events,
            lender,
            Token::USDC,
            Wad::from_int(50_000),
        )
    });
    chain.execute(borrower, 20, 250_000, |ctx| {
        pool.deposit(
            ctx.ledger,
            ctx.events,
            borrower,
            Token::ETH,
            Wad::from_int(3),
        )?;
        pool.borrow(
            ctx.ledger,
            ctx.events,
            &oracle,
            ctx.block,
            borrower,
            Token::USDC,
            Wad::from_int(5_000),
        )
    });
    let events_before = chain.events().len();
    let liquidator_balance_before = chain.ledger().balance(liquidator, Token::USDC);

    let outcome = chain.execute(liquidator, 100, 500_000, |ctx| {
        pool.liquidation_call(
            ctx.ledger,
            ctx.events,
            &oracle,
            ctx.block,
            liquidator,
            borrower,
            Token::USDC,
            Token::ETH,
            Wad::from_int(2_500),
            false,
        )
    });

    assert!(!outcome.is_success());
    assert_eq!(chain.events().len(), events_before);
    assert_eq!(
        chain.ledger().balance(liquidator, Token::USDC),
        liquidator_balance_before
    );
    assert!(!outcome.receipt.success);
    assert!(
        outcome.receipt.fee_eth() > 0.0,
        "reverted transactions still pay gas"
    );
}

/// §5.2: on any liquidatable position with a sound configuration, the optimal
/// strategy never does worse than up-to-close-factor, and the mitigation
/// threshold exceeds any realistic mining power for barely-unhealthy
/// positions (the common case produced by oracle updates).
#[test]
fn optimal_strategy_dominates_and_mitigation_bites() {
    let params = RiskParams::platform_default(Platform::Compound);
    for debt in [8_000u64, 9_000, 10_000, 11_000, 12_000] {
        let collateral = Wad::from_int(12_000);
        let debt = Wad::from_int(debt);
        let Some(base) = up_to_close_factor_liquidation(collateral, debt, params) else {
            continue; // healthy
        };
        let optimal = optimal_liquidation(collateral, debt, params).unwrap();
        assert!(optimal.profit >= base.profit);
        let analysis = MitigationAnalysis::evaluate(collateral, debt, params).unwrap();
        if let Some(threshold) = analysis.mining_power_threshold {
            assert!(!analysis.optimal_is_rational(threshold * 0.9));
        }
    }
}
