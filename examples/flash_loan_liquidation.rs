//! A flash-loan-funded liquidation, end to end (§4.4.4).
//!
//! The liquidator holds no inventory at all: it flash-borrows the debt asset
//! from a dYdX-style pool, repays the borrower's debt through
//! `liquidationCall`, swaps the seized ETH collateral back into USDC on a
//! constant-product DEX, repays the flash loan, and keeps the difference —
//! all inside a single atomic transaction. If any step made the deal
//! unprofitable, the whole transaction would revert and nothing would happen.
//!
//! ```sh
//! cargo run --release --example flash_loan_liquidation
//! ```

use defi_liquidations_suite::amm::Dex;
use defi_liquidations_suite::chain::{Blockchain, ChainConfig};
use defi_liquidations_suite::core::params::RiskParams;
use defi_liquidations_suite::lending::{
    FixedSpreadConfig, FixedSpreadProtocol, FlashLoanPool, InterestRateModel, DEFAULT_DEBT_DUST,
};
use defi_liquidations_suite::oracle::{OracleConfig, PriceOracle};
use defi_liquidations_suite::prelude::*;
use defi_liquidations_suite::types::Platform;

fn main() {
    let mut chain = Blockchain::new(ChainConfig::default());
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(chain.current_block(), Token::ETH, Wad::from_int(3_500));
    oracle.set_price(chain.current_block(), Token::USDC, Wad::ONE);

    // A lending pool with an unhealthy borrower (same setup as the quickstart).
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
    chain.fund(lender, Token::USDC, Wad::from_int(2_000_000));
    chain.fund(borrower, Token::ETH, Wad::from_int(300));
    chain.execute(lender, 20, 250_000, |ctx| {
        pool.deposit(
            ctx.ledger,
            ctx.events,
            lender,
            Token::USDC,
            Wad::from_int(2_000_000),
        )
    });
    chain.execute(borrower, 25, 250_000, |ctx| {
        pool.deposit(
            ctx.ledger,
            ctx.events,
            borrower,
            Token::ETH,
            Wad::from_int(300),
        )?;
        pool.borrow(
            ctx.ledger,
            ctx.events,
            &oracle,
            ctx.block,
            borrower,
            Token::USDC,
            Wad::from_int(800_000),
        )
    });

    // The flash-loan pool and a deep ETH/USDC DEX pool.
    let flash_pool = FlashLoanPool::for_platform(Platform::DyDx);
    flash_pool.seed(chain.ledger_mut(), Token::USDC, Wad::from_int(100_000_000));
    let mut dex = Dex::new();
    dex.seed_standard_pool(
        chain.ledger_mut(),
        Token::ETH,
        3_000.0,
        Token::USDC,
        1.0,
        200_000_000.0,
    );

    // ETH drops: the position becomes liquidatable.
    chain.advance_to(chain.current_block() + 100, 0);
    oracle.set_price(chain.current_block(), Token::ETH, Wad::from_int(3_000));
    assert!(pool.is_liquidatable(&oracle, borrower));
    println!(
        "borrower health factor after the price drop: {}",
        pool.position(&oracle, borrower)
            .unwrap()
            .health_factor()
            .unwrap()
    );

    // The liquidator executes the whole flow atomically, starting with zero inventory.
    let liquidator = Address::from_seed(3);
    let repay = Wad::from_int(400_000); // 50% of the debt
    let block = chain.current_block();
    let outcome = chain.execute(liquidator, 150, 900_000, |ctx| {
        flash_pool.flash_loan(
            ctx.ledger,
            ctx.events,
            &oracle,
            liquidator,
            Token::USDC,
            repay,
            |ledger, events| {
                let receipt = pool.liquidation_call(
                    ledger,
                    events,
                    &oracle,
                    block,
                    liquidator,
                    borrower,
                    Token::USDC,
                    Token::ETH,
                    repay,
                    true,
                )?;
                println!(
                    "  repaid {} USDC, seized {} ETH ({} USD)",
                    receipt.debt_repaid, receipt.collateral_seized, receipt.collateral_seized_usd
                );
                // Swap the seized ETH back into USDC to repay the flash loan.
                let (proceeds, _) = dex
                    .swap(
                        ledger,
                        liquidator,
                        Token::ETH,
                        Token::USDC,
                        receipt.collateral_seized,
                    )
                    .map_err(|e| {
                        defi_liquidations_suite::lending::ProtocolError::Ledger(e.to_string())
                    })?;
                println!("  swapped the collateral for {} USDC on the DEX", proceeds);
                Ok(())
            },
        )
    });

    assert!(
        outcome.is_success(),
        "the flash-loan liquidation should settle"
    );
    let profit = chain.ledger().balance(liquidator, Token::USDC);
    println!(
        "\nflash loan repaid in full; liquidator profit: {} USDC",
        profit
    );
    println!(
        "events emitted in the transaction: {:?}",
        chain
            .events()
            .iter()
            .filter(|logged| logged.tx_hash == outcome.receipt.hash)
            .map(|logged| logged.event.kind())
            .collect::<Vec<_>>()
    );
    assert!(!profit.is_zero());
}
