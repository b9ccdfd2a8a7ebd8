//! Flash-loan pools (§2.2.2, §4.4.4).
//!
//! "A flash loan represents a loan that is taken and repaid within a single
//! transaction. … If the loan plus the required interests are not repaid, the
//! whole transaction is reverted."
//!
//! [`FlashLoanPool::flash_loan`] lends the requested amount to the borrower,
//! runs the caller-supplied closure (the liquidation strategy), and then
//! verifies that the pool got its principal plus fee back — returning an
//! error otherwise. When the flash loan is executed inside
//! [`Blockchain::execute`](defi_chain::Blockchain::execute), that error makes
//! the whole transaction revert, which is precisely the real-world semantics
//! liquidators rely on: an unprofitable flash-loan liquidation simply never
//! happens.

use defi_chain::{ChainEvent, Ledger};
use defi_oracle::PriceOracle;
use defi_types::{Address, Platform, Token, Wad};

use crate::error::ProtocolError;

/// A flash-loan pool.
#[derive(Debug, Clone, Copy)]
pub struct FlashLoanPool {
    /// The platform providing the pool (Aave V1, Aave V2 or dYdX in the paper).
    pub platform: Platform,
    /// The ledger account holding the pool's liquidity.
    pub pool_address: Address,
    /// Flash-loan fee in basis points (Aave charges 9 bps; dYdX effectively 0,
    /// which the paper notes makes it the more popular source, Table 4).
    pub fee_bps: u32,
}

impl FlashLoanPool {
    /// Create a pool for a platform with its historical fee.
    pub fn for_platform(platform: Platform) -> Self {
        let fee_bps = match platform {
            Platform::AaveV1 | Platform::AaveV2 => 9,
            Platform::DyDx => 0,
            _ => 9,
        };
        FlashLoanPool {
            platform,
            pool_address: Address::from_label(&format!("{}-flash-pool", platform.name())),
            fee_bps,
        }
    }

    /// Seed the pool's lendable liquidity (scenario setup).
    pub fn seed(&self, ledger: &mut Ledger, token: Token, amount: Wad) {
        ledger.mint(self.pool_address, token, amount);
    }

    /// Liquidity currently available for flash loans.
    pub fn available(&self, ledger: &Ledger, token: Token) -> Wad {
        ledger.balance(self.pool_address, token)
    }

    /// The fee charged on a loan of `amount`.
    pub fn fee(&self, amount: Wad) -> Wad {
        amount.bps(self.fee_bps)
    }

    /// Borrow `amount` of `token`, run `strategy`, and require repayment plus
    /// fee. Emits a [`ChainEvent::FlashLoan`] and returns the strategy's
    /// value on success.
    ///
    /// The closure receives the ledger so it can move the borrowed funds
    /// around (repay debt, swap collateral, …). Any error from the closure,
    /// or a shortfall at repayment time, aborts the flash loan.
    #[allow(clippy::too_many_arguments)]
    pub fn flash_loan<T, F>(
        &self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        borrower: Address,
        token: Token,
        amount: Wad,
        strategy: F,
    ) -> Result<T, ProtocolError>
    where
        F: FnOnce(&mut Ledger, &mut Vec<ChainEvent>) -> Result<T, ProtocolError>,
    {
        let available = self.available(ledger, token);
        if available < amount {
            return Err(ProtocolError::InsufficientLiquidity {
                token,
                requested: amount,
                available,
            });
        }
        let pool_balance_before = available;
        let fee = self.fee(amount);

        // Hand out the loan.
        ledger.transfer(self.pool_address, borrower, token, amount)?;

        // Run the borrower's strategy.
        let value = strategy(ledger, events)?;

        // The borrower must return principal + fee.
        let repayment = amount.saturating_add(fee);
        let borrower_balance = ledger.balance(borrower, token);
        if borrower_balance < repayment {
            return Err(ProtocolError::FlashLoanNotRepaid);
        }
        ledger.transfer(borrower, self.pool_address, token, repayment)?;

        // Invariant: the pool never ends poorer than it started.
        debug_assert!(ledger.balance(self.pool_address, token) >= pool_balance_before);

        events.push(ChainEvent::FlashLoan {
            pool: self.platform,
            borrower,
            token,
            amount,
            amount_usd: oracle.value_of(token, amount),
            fee,
        });
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_oracle::OracleConfig;

    fn setup() -> (FlashLoanPool, Ledger, PriceOracle, Vec<ChainEvent>) {
        let pool = FlashLoanPool::for_platform(Platform::DyDx);
        let mut ledger = Ledger::new();
        pool.seed(&mut ledger, Token::USDC, Wad::from_int(1_000_000));
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::USDC, Wad::ONE);
        (pool, ledger, oracle, Vec::new())
    }

    #[test]
    fn successful_flash_loan_charges_fee_and_emits_event() {
        let pool = FlashLoanPool::for_platform(Platform::AaveV2);
        let mut ledger = Ledger::new();
        pool.seed(&mut ledger, Token::USDC, Wad::from_int(1_000_000));
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::USDC, Wad::ONE);
        let mut events = Vec::new();
        let borrower = Address::from_seed(5);
        // Give the borrower just enough external profit to cover the fee.
        ledger.mint(borrower, Token::USDC, Wad::from_int(100));

        let before = pool.available(&ledger, Token::USDC);
        let value = pool.flash_loan(
            &mut ledger,
            &mut events,
            &oracle,
            borrower,
            Token::USDC,
            Wad::from_int(100_000),
            |_, _| Ok("strategy value"),
        );
        // The strategy's value is handed back to the caller.
        assert_eq!(value, Ok("strategy value"));
        let after = pool.available(&ledger, Token::USDC);
        // Aave's 9 bps fee on 100,000 = 90 USDC.
        assert_eq!(after, before.saturating_add(Wad::from_int(90)));
        assert!(events
            .iter()
            .any(|e| matches!(e, ChainEvent::FlashLoan { .. })));
        assert_eq!(ledger.balance(borrower, Token::USDC), Wad::from_int(10));
    }

    #[test]
    fn dydx_flash_loans_are_free() {
        let (pool, mut ledger, oracle, mut events) = setup();
        let borrower = Address::from_seed(5);
        pool.flash_loan(
            &mut ledger,
            &mut events,
            &oracle,
            borrower,
            Token::USDC,
            Wad::from_int(500_000),
            |_, _| Ok(()),
        )
        .unwrap();
        assert_eq!(
            pool.available(&ledger, Token::USDC),
            Wad::from_int(1_000_000)
        );
        assert_eq!(ledger.balance(borrower, Token::USDC), Wad::ZERO);
    }

    #[test]
    fn unrepaid_flash_loan_fails() {
        let (pool, mut ledger, oracle, mut events) = setup();
        let borrower = Address::from_seed(5);
        let sink = Address::from_seed(6);
        let result = pool.flash_loan(
            &mut ledger,
            &mut events,
            &oracle,
            borrower,
            Token::USDC,
            Wad::from_int(500_000),
            |ledger, _| {
                // The strategy loses the funds.
                ledger
                    .transfer(borrower, sink, Token::USDC, Wad::from_int(500_000))
                    .map_err(ProtocolError::from)?;
                Ok(())
            },
        );
        assert!(matches!(result, Err(ProtocolError::FlashLoanNotRepaid)));
        // No FlashLoan event for the failed attempt.
        assert!(events.is_empty());
    }

    #[test]
    fn oversized_flash_loan_is_rejected() {
        let (pool, mut ledger, oracle, mut events) = setup();
        let borrower = Address::from_seed(5);
        let result = pool.flash_loan(
            &mut ledger,
            &mut events,
            &oracle,
            borrower,
            Token::USDC,
            Wad::from_int(2_000_000),
            |_, _| Ok(()),
        );
        assert!(matches!(
            result,
            Err(ProtocolError::InsufficientLiquidity { .. })
        ));
    }

    #[test]
    fn failing_strategy_aborts_the_loan() {
        let (pool, mut ledger, oracle, mut events) = setup();
        let borrower = Address::from_seed(5);
        let result = pool.flash_loan(
            &mut ledger,
            &mut events,
            &oracle,
            borrower,
            Token::USDC,
            Wad::from_int(10_000),
            |_, _| Err::<(), _>(ProtocolError::Arithmetic),
        );
        assert!(result.is_err());
        assert!(events.is_empty());
    }
}
