//! Quickstart: the fixed-spread liquidation walk-through of §3.2.2.
//!
//! A borrower deposits 3 ETH at 3,500 USD, borrows 8,400 USDC against it
//! (liquidation threshold 0.8), the ETH price declines to 3,300 USD, and a
//! liquidator repays 50 % of the debt at a 10 % liquidation spread —
//! pocketing 420 USD at the borrower's expense.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use defi_liquidations_suite::chain::{Blockchain, ChainConfig};
use defi_liquidations_suite::core::params::RiskParams;
use defi_liquidations_suite::lending::{
    FixedSpreadConfig, FixedSpreadProtocol, InterestRateModel, DEFAULT_DEBT_DUST,
};
use defi_liquidations_suite::oracle::{OracleConfig, PriceOracle};
use defi_liquidations_suite::prelude::*;

fn main() {
    // --- Substrate: a chain, an oracle and a Compound-style lending pool ----
    let mut chain = Blockchain::new(ChainConfig::default());
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(chain.current_block(), Token::ETH, Wad::from_int(3_500));
    oracle.set_price(chain.current_block(), Token::USDC, Wad::ONE);

    let mut pool = FixedSpreadProtocol::new(FixedSpreadConfig {
        platform: defi_liquidations_suite::types::Platform::Compound,
        close_factor: Wad::from_f64(0.5),
        one_liquidation_per_block: false,
        insurance_fund: false,
        debt_dust: DEFAULT_DEBT_DUST,
    });
    // The paper's example parameters: LT = 0.8, LS = 10 %.
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

    // A lender seeds USDC liquidity.
    let lender = Address::from_seed(1);
    chain.fund(lender, Token::USDC, Wad::from_int(1_000_000));
    chain.execute(lender, 20, 250_000, |ctx| {
        pool.deposit(
            ctx.ledger,
            ctx.events,
            lender,
            Token::USDC,
            Wad::from_int(1_000_000),
        )
    });

    // --- The borrower opens the paper's position ----------------------------
    let borrower = Address::from_seed(2);
    chain.fund(borrower, Token::ETH, Wad::from_int(3));
    chain.execute(borrower, 25, 250_000, |ctx| {
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
    });

    let position = pool.position(&oracle, borrower).expect("position exists");
    println!(
        "collateral value:    {} USD",
        position.total_collateral_value()
    );
    println!("borrowing capacity:  {} USD", position.borrowing_capacity());
    println!("debt value:          {} USD", position.total_debt_value());
    println!("health factor:       {}", position.health_factor().unwrap());
    assert!(!position.is_liquidatable());

    // --- ETH declines to 3,300 USD: HF ≈ 0.94 < 1 ---------------------------
    chain.advance_to(chain.current_block() + 40, 0);
    oracle.set_price(chain.current_block(), Token::ETH, Wad::from_int(3_300));
    let position = pool.position(&oracle, borrower).expect("position exists");
    println!("\nETH price declines to 3,300 USD");
    println!("health factor:       {}", position.health_factor().unwrap());
    assert!(position.is_liquidatable());

    // --- A liquidator repays 50 % of the debt at the fixed spread -----------
    let liquidator = Address::from_seed(3);
    chain.fund(liquidator, Token::USDC, Wad::from_int(4_200));
    let outcome = chain.execute(liquidator, 120, 500_000, |ctx| {
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
    let receipt = outcome.result.expect("liquidation executed");

    println!("\nliquidation settled in tx {}", outcome.receipt.hash);
    println!("debt repaid:         {} USD", receipt.debt_repaid_usd);
    println!("collateral received: {} USD", receipt.collateral_seized_usd);
    println!(
        "liquidator profit:   {} USD (the paper's example: 420 USD)",
        receipt.gross_profit_usd()
    );
    println!(
        "health factor after: {}",
        receipt.health_factor_after.expect("debt remains")
    );
    println!(
        "\nliquidation event recorded on-chain: {} event(s) in the log",
        chain.events().len()
    );
}
