//! The [`Blockchain`] façade: block production, atomic transaction execution,
//! event emission and archive-style queries.
//!
//! The simulator intentionally exposes the same three capabilities the
//! paper's measurement stack uses (§4.1, Figure 3):
//!
//! 1. **filter events** — [`Blockchain::events`] / [`Blockchain::query_events`],
//! 2. **read historical state** — callers snapshot protocol state at chosen
//!    blocks (the chain records headers and balances as they evolve), and
//! 3. **execute transactions on a specific block state** — i.e. the custom
//!    geth client the authors built to validate the optimal liquidation
//!    strategy; here [`Blockchain::execute`] runs a closure atomically with
//!    revert-on-error semantics and [`Ledger`] checkpoints make "fork the
//!    state, try a strategy, roll back" a one-liner.
//!
//! [`Blockchain::execute`] is the one place a transaction's outcome takes
//! shape: the closure's value comes back in [`TxOutcome::result`], its error
//! text becomes the [`ChainError::Reverted`] reason, its events move into the
//! log only if it succeeds, and its gas counts toward the block either way.

use defi_types::{Address, BlockNumber, TimeMap, TxHash};

use crate::block::{BlockHeader, TxReceipt};
use crate::events::{ChainEvent, EventFilter, EventLog, LoggedEvent};
use crate::gas::{GasMarket, GasMarketConfig, GweiPrice};
use crate::ledger::Ledger;

/// Errors surfaced by transaction execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The transaction's closure reverted with a reason string; all state
    /// changes were rolled back.
    Reverted(String),
}

impl core::fmt::Display for ChainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChainError::Reverted(reason) => write!(f, "transaction reverted: {reason}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// Static chain configuration.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Block at which the simulation starts.
    pub start_block: BlockNumber,
    /// Block ⇄ time mapping.
    pub time_map: TimeMap,
    /// Gas market configuration.
    pub gas: GasMarketConfig,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            start_block: 7_500_000,
            time_map: TimeMap::paper_study_window(),
            gas: GasMarketConfig::paper_study(),
        }
    }
}

/// Result of executing a transaction.
#[derive(Debug, Clone)]
pub struct TxOutcome<T> {
    /// The receipt (recorded in the chain whether or not execution succeeded).
    pub receipt: TxReceipt,
    /// The closure's value on success, the revert reason otherwise.
    pub result: Result<T, ChainError>,
}

impl<T> TxOutcome<T> {
    /// Whether the transaction succeeded.
    pub fn is_success(&self) -> bool {
        self.result.is_ok()
    }
}

/// Scratch context handed to the closure executed inside a transaction.
pub struct TxContext<'a> {
    /// Balance ledger with an open checkpoint; mutations revert if the
    /// closure returns an error.
    pub ledger: &'a mut Ledger,
    /// Events to emit when (and only when) the transaction succeeds.
    pub events: &'a mut Vec<ChainEvent>,
    /// The block the transaction executes in.
    pub block: BlockNumber,
    /// The transaction sender.
    pub sender: Address,
}

/// The in-memory blockchain.
#[derive(Debug, Clone)]
pub struct Blockchain {
    config: ChainConfig,
    current_block: BlockNumber,
    gas_market: GasMarket,
    ledger: Ledger,
    events: EventLog,
    headers: Vec<BlockHeader>,
    tx_counter: u64,
    current_block_tx_index: u32,
    current_block_gas_used: u64,
}

impl Blockchain {
    /// Create a chain from a configuration.
    pub fn new(config: ChainConfig) -> Self {
        let gas_market = GasMarket::new(config.gas.clone());
        let current_block = config.start_block;
        Blockchain {
            config,
            current_block,
            gas_market,
            ledger: Ledger::new(),
            events: EventLog::new(),
            headers: Vec::new(),
            tx_counter: 0,
            current_block_tx_index: 0,
            current_block_gas_used: 0,
        }
    }

    /// Reconstruct an archive-style chain from recorded headers and events —
    /// the shape a journal replay needs: [`Blockchain::headers`] and
    /// [`Blockchain::events`] answer exactly as they did at the end of the
    /// live run, while the ledger and gas market start empty
    /// (no replayed consumer reads them).
    pub fn from_archive(config: ChainConfig, headers: Vec<BlockHeader>, events: EventLog) -> Self {
        let gas_market = GasMarket::new(config.gas.clone());
        let current_block = headers
            .last()
            .map(|h| h.number)
            .unwrap_or(config.start_block);
        Blockchain {
            config,
            current_block,
            gas_market,
            ledger: Ledger::new(),
            events,
            headers,
            tx_counter: 0,
            current_block_tx_index: 0,
            current_block_gas_used: 0,
        }
    }

    /// Current block height.
    pub fn current_block(&self) -> BlockNumber {
        self.current_block
    }

    /// The block ⇄ time mapping.
    pub fn time_map(&self) -> &TimeMap {
        &self.config.time_map
    }

    /// Immutable access to the balance ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Mutable access to the balance ledger (for scenario setup: funding
    /// accounts, seeding pools). Inside transactions use the [`TxContext`].
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// Immutable access to the gas market.
    pub fn gas_market(&self) -> &GasMarket {
        &self.gas_market
    }

    /// Mutable access to the gas market (liquidator agents ask it for bids).
    pub fn gas_market_mut(&mut self) -> &mut GasMarket {
        &mut self.gas_market
    }

    /// The full event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Query events by filter.
    pub fn query_events(&self, filter: &EventFilter) -> Vec<&LoggedEvent> {
        self.events.query(filter)
    }

    /// Recorded block headers (one per `advance_to` call that moved the chain).
    pub fn headers(&self) -> &[BlockHeader] {
        &self.headers
    }

    /// Current block-median gas price.
    pub fn median_gas_price(&self) -> GweiPrice {
        self.gas_market.median()
    }

    /// Seal the current block (recording its header) and advance the chain
    /// head to `block`. Also advances the gas market. Calls with
    /// `block <= current_block` only refresh gas data.
    pub fn advance_to(&mut self, block: BlockNumber, mempool_backlog: u32) {
        // Seal the block we were building.
        let header = BlockHeader {
            number: self.current_block,
            timestamp: self.config.time_map.timestamp(self.current_block),
            gas_used: self.current_block_gas_used,
            gas_limit: self.gas_market.block_gas_limit(),
            median_gas_price: self.gas_market.median(),
            tx_count: self.current_block_tx_index,
            mempool_backlog,
        };
        self.headers.push(header);
        self.current_block_gas_used = 0;
        self.current_block_tx_index = 0;
        if block > self.current_block {
            self.current_block = block;
        }
        self.gas_market.advance(self.current_block);
    }

    /// Execute a transaction at the current block.
    ///
    /// The closure receives a [`TxContext`]; its `Ok` value is handed back in
    /// [`TxOutcome::result`]. If it returns `Err`, every ledger mutation it
    /// performed is rolled back, no events are logged and the error's text
    /// becomes the [`ChainError::Reverted`] reason — the transaction is still
    /// recorded as a failed receipt (it pays gas, like a reverted Ethereum
    /// transaction).
    pub fn execute<T, E, F>(
        &mut self,
        sender: Address,
        gas_price: GweiPrice,
        gas_used: u64,
        f: F,
    ) -> TxOutcome<T>
    where
        E: core::fmt::Display,
        F: FnOnce(&mut TxContext<'_>) -> Result<T, E>,
    {
        let block = self.current_block;
        let tx_index = self.current_block_tx_index;
        let hash = TxHash::derive(block, tx_index as u64, self.tx_counter);
        self.tx_counter += 1;
        self.current_block_tx_index += 1;
        self.current_block_gas_used = self.current_block_gas_used.saturating_add(gas_used);

        let mut emitted: Vec<ChainEvent> = Vec::new();
        self.ledger.begin_checkpoint();
        let result = f(&mut TxContext {
            ledger: &mut self.ledger,
            events: &mut emitted,
            block,
            sender,
        });
        let result = match result {
            Ok(value) => {
                self.ledger.commit_checkpoint();
                // Log events with their transaction context.
                for event in emitted {
                    self.events.push(LoggedEvent {
                        block,
                        tx_index,
                        tx_hash: hash,
                        sender,
                        gas_price,
                        gas_used,
                        event,
                    });
                }
                Ok(value)
            }
            Err(reason) => {
                self.ledger.revert_checkpoint();
                Err(ChainError::Reverted(reason.to_string()))
            }
        };

        let receipt = TxReceipt {
            hash,
            sender,
            block,
            index: tx_index,
            gas_price,
            gas_used,
            success: result.is_ok(),
        };
        TxOutcome { receipt, result }
    }

    /// Fund an account outside of any transaction (scenario setup).
    pub fn fund(&mut self, account: Address, token: defi_types::Token, amount: defi_types::Wad) {
        self.ledger.mint(account, token, amount);
    }
}

impl Default for Blockchain {
    fn default() -> Self {
        Blockchain::new(ChainConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_types::{Token, Wad};

    fn addr(n: u64) -> Address {
        Address::from_seed(n)
    }

    fn oracle_update(token: Token) -> ChainEvent {
        ChainEvent::OracleUpdate {
            token,
            price: Wad::ONE,
        }
    }

    #[test]
    fn successful_tx_commits_and_logs_events() {
        let mut chain = Blockchain::default();
        chain.fund(addr(1), Token::DAI, Wad::from_int(100));

        let outcome = chain.execute(addr(1), 50, 21_000, |ctx| {
            ctx.ledger
                .transfer(addr(1), addr(2), Token::DAI, Wad::from_int(40))?;
            ctx.events.push(oracle_update(Token::DAI));
            Ok::<_, crate::ledger::LedgerError>(ctx.block)
        });

        // The closure's value comes back with the outcome.
        assert_eq!(outcome.result, Ok(chain.current_block()));
        assert_eq!(
            chain.ledger().balance(addr(2), Token::DAI),
            Wad::from_int(40)
        );
        assert_eq!(chain.events().len(), 1);
    }

    #[test]
    fn reverted_tx_rolls_back_and_logs_nothing() {
        let mut chain = Blockchain::default();
        chain.fund(addr(1), Token::DAI, Wad::from_int(100));
        let start = chain.current_block();

        let outcome = chain.execute(addr(1), 50, 21_000, |ctx| {
            ctx.ledger
                .transfer(addr(1), addr(2), Token::DAI, Wad::from_int(40))
                .map_err(|e| e.to_string())?;
            ctx.events.push(oracle_update(Token::DAI));
            Err::<(), _>("not profitable".to_string())
        });

        assert_eq!(
            outcome.result,
            Err(ChainError::Reverted("not profitable".to_string()))
        );
        assert_eq!(
            chain.ledger().balance(addr(1), Token::DAI),
            Wad::from_int(100)
        );
        assert_eq!(chain.ledger().balance(addr(2), Token::DAI), Wad::ZERO);
        assert!(chain.events().is_empty());
        // The failed transaction still produced a receipt and paid its gas
        // into the block it executed in.
        assert!(!outcome.receipt.success);
        chain.advance_to(start + 1, 0);
        assert_eq!(chain.headers()[0].gas_used, 21_000);
    }

    #[test]
    fn logged_events_keep_emission_order_and_tx_context() {
        let mut chain = Blockchain::default();
        let first = chain.execute(addr(1), 30, 40_000, |ctx| {
            ctx.events.push(oracle_update(Token::DAI));
            ctx.events.push(oracle_update(Token::USDC));
            Ok::<_, String>(())
        });
        let second = chain.execute(addr(2), 60, 80_000, |ctx| {
            ctx.events.push(oracle_update(Token::ETH));
            Ok::<_, String>(())
        });

        let logged: Vec<_> = chain
            .events()
            .iter()
            .map(|l| {
                (
                    &l.event,
                    l.tx_hash,
                    l.tx_index,
                    l.sender,
                    l.gas_price,
                    l.gas_used,
                )
            })
            .collect();
        let (dai, usdc, eth) = (
            oracle_update(Token::DAI),
            oracle_update(Token::USDC),
            oracle_update(Token::ETH),
        );
        assert_eq!(
            logged,
            vec![
                (&dai, first.receipt.hash, 0, addr(1), 30, 40_000),
                (&usdc, first.receipt.hash, 0, addr(1), 30, 40_000),
                (&eth, second.receipt.hash, 1, addr(2), 60, 80_000),
            ]
        );
    }

    #[test]
    fn advance_records_headers_and_moves_head() {
        let mut chain = Blockchain::default();
        let start = chain.current_block();
        chain.execute(addr(1), 10, 21_000, |_| Ok::<_, String>(()));
        chain.advance_to(start + 100, 3);
        assert_eq!(chain.current_block(), start + 100);
        assert_eq!(chain.headers().len(), 1);
        assert_eq!(chain.headers()[0].number, start);
        assert_eq!(chain.headers()[0].tx_count, 1);
        assert_eq!(chain.headers()[0].mempool_backlog, 3);
    }

    #[test]
    fn tx_hashes_are_unique() {
        let mut chain = Blockchain::default();
        let a = chain
            .execute(addr(1), 10, 21_000, |_| Ok::<_, String>(()))
            .receipt
            .hash;
        let b = chain
            .execute(addr(1), 10, 21_000, |_| Ok::<_, String>(()))
            .receipt
            .hash;
        assert_ne!(a, b);
    }

    #[test]
    fn nested_execution_context_allows_flash_loan_pattern() {
        // A flash-loan style flow: mint inside the tx, use it, burn it back.
        let mut chain = Blockchain::default();
        let pool = addr(100);
        chain.fund(pool, Token::USDC, Wad::from_int(1_000_000));

        let outcome = chain.execute(addr(7), 80, 900_000, |ctx| {
            // Borrow from the pool.
            ctx.ledger
                .transfer(pool, addr(7), Token::USDC, Wad::from_int(500_000))?;
            // ... strategy would run here; repay with a fee.
            ctx.ledger
                .transfer(addr(7), pool, Token::USDC, Wad::from_int(500_000))
        });
        assert!(outcome.is_success());
        assert_eq!(
            chain.ledger().balance(pool, Token::USDC),
            Wad::from_int(1_000_000)
        );
    }
}
