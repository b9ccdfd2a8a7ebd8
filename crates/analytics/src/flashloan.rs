//! Flash-loan usage for liquidations (§4.4.4, Table 4).
//!
//! Table 4 groups the flash loans taken to fund liquidations by the platform
//! the liquidation settled on and the pool the loan came from, reporting
//! counts and the cumulative borrowed amount. In the event log, a flash loan
//! and the liquidation it funds share a transaction hash, which is how we
//! join them (the paper similarly "filter\[s\] the relevant events in the
//! liquidation transactions that apply to flash loans").

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use defi_chain::{Blockchain, ChainEvent};
use defi_types::{Platform, TxHash, Wad};

/// One Table 4 row: flash loans from `flash_pool` funding liquidations on
/// `liquidation_platform`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlashLoanUsageRow {
    /// Platform the liquidation settled on.
    pub liquidation_platform: Platform,
    /// Pool that provided the flash loan.
    pub flash_pool: Platform,
    /// Number of flash loans.
    pub count: u32,
    /// Cumulative amount borrowed (USD).
    pub cumulative_amount_usd: Wad,
}

/// The full Table 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4 {
    /// Rows (one per observed platform × pool combination).
    pub rows: Vec<FlashLoanUsageRow>,
    /// Total number of flash loans used for liquidations.
    pub total_flash_loans: u32,
    /// Total amount flash-borrowed for liquidations (USD).
    pub total_amount_usd: Wad,
}

impl Table4 {
    /// The row for a given platform/pool combination.
    pub fn row(
        &self,
        liquidation_platform: Platform,
        flash_pool: Platform,
    ) -> Option<&FlashLoanUsageRow> {
        self.rows
            .iter()
            .find(|r| r.liquidation_platform == liquidation_platform && r.flash_pool == flash_pool)
    }
}

/// Compute Table 4 from the chain event log: index flash loans and
/// liquidations by transaction hash, then join them.
pub fn table4(chain: &Blockchain) -> Table4 {
    let mut flash_by_tx: BTreeMap<TxHash, Vec<(Platform, Wad)>> = BTreeMap::new();
    let mut liquidation_platform_by_tx: BTreeMap<TxHash, Platform> = BTreeMap::new();
    for logged in chain.events().iter() {
        match &logged.event {
            ChainEvent::FlashLoan {
                pool, amount_usd, ..
            } => {
                flash_by_tx
                    .entry(logged.tx_hash)
                    .or_default()
                    .push((*pool, *amount_usd));
            }
            ChainEvent::Liquidation(event) => {
                liquidation_platform_by_tx.insert(logged.tx_hash, event.platform);
            }
            _ => {}
        }
    }

    let mut aggregate: BTreeMap<(Platform, Platform), (u32, Wad)> = BTreeMap::new();
    let mut total = 0u32;
    let mut total_amount = Wad::ZERO;
    for (tx, loans) in &flash_by_tx {
        let Some(platform) = liquidation_platform_by_tx.get(tx) else {
            continue; // a flash loan not used for a liquidation
        };
        for (pool, amount) in loans {
            let entry = aggregate
                .entry((*platform, *pool))
                .or_insert((0, Wad::ZERO));
            entry.0 += 1;
            entry.1 = entry.1.saturating_add(*amount);
            total += 1;
            total_amount = total_amount.saturating_add(*amount);
        }
    }

    Table4 {
        rows: aggregate
            .into_iter()
            .map(|((liq, pool), (count, amount))| FlashLoanUsageRow {
                liquidation_platform: liq,
                flash_pool: pool,
                count,
                cumulative_amount_usd: amount,
            })
            .collect(),
        total_flash_loans: total,
        total_amount_usd: total_amount,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_chain::{ChainConfig, LiquidationEvent};
    use defi_types::{Address, Token};

    fn liquidation_event(platform: Platform) -> ChainEvent {
        ChainEvent::Liquidation(LiquidationEvent {
            platform,
            liquidator: Address::from_seed(1),
            borrower: Address::from_seed(2),
            debt_token: Token::DAI,
            debt_repaid: Wad::from_int(1_000),
            debt_repaid_usd: Wad::from_int(1_000),
            collateral_token: Token::ETH,
            collateral_seized: Wad::ONE,
            collateral_seized_usd: Wad::from_int(1_080),
            used_flash_loan: true,
        })
    }

    fn flash_event(pool: Platform, amount: u64) -> ChainEvent {
        ChainEvent::FlashLoan {
            pool,
            borrower: Address::from_seed(1),
            token: Token::DAI,
            amount: Wad::from_int(amount),
            amount_usd: Wad::from_int(amount),
            fee: Wad::ZERO,
        }
    }

    #[test]
    fn joins_flash_loans_with_liquidations_by_transaction() {
        let mut chain = Blockchain::new(ChainConfig::default());
        // Tx 1: Compound liquidation funded by a dYdX flash loan.
        chain.execute(Address::from_seed(1), 50, 900_000, "liq", |ctx| {
            ctx.events.push(flash_event(Platform::DyDx, 50_000));
            ctx.events.push(liquidation_event(Platform::Compound));
            Ok(())
        });
        // Tx 2: an unrelated flash loan (not a liquidation) — must be ignored.
        chain.execute(Address::from_seed(2), 50, 900_000, "arb", |ctx| {
            ctx.events.push(flash_event(Platform::AaveV2, 10_000));
            Ok(())
        });
        // Tx 3: Aave V1 liquidation funded by a dYdX flash loan.
        chain.execute(Address::from_seed(3), 50, 900_000, "liq", |ctx| {
            ctx.events.push(flash_event(Platform::DyDx, 25_000));
            ctx.events.push(liquidation_event(Platform::AaveV1));
            Ok(())
        });

        let table = table4(&chain);
        assert_eq!(table.total_flash_loans, 2);
        assert_eq!(table.total_amount_usd, Wad::from_int(75_000));
        let row = table.row(Platform::Compound, Platform::DyDx).unwrap();
        assert_eq!(row.count, 1);
        assert_eq!(row.cumulative_amount_usd, Wad::from_int(50_000));
        assert!(table.row(Platform::AaveV2, Platform::AaveV2).is_none());
    }

    #[test]
    fn empty_chain_produces_empty_table() {
        let chain = Blockchain::new(ChainConfig::default());
        let table = table4(&chain);
        assert!(table.rows.is_empty());
        assert_eq!(table.total_flash_loans, 0);
    }
}
