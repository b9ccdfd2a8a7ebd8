//! Block headers and transaction receipts.

use defi_types::{Address, BlockNumber, Timestamp, TxHash};

use crate::gas::GweiPrice;

/// A produced block's header and aggregate statistics.
#[derive(Debug, Clone)]
pub struct BlockHeader {
    /// Block height.
    pub number: BlockNumber,
    /// Block timestamp (Unix seconds).
    pub timestamp: Timestamp,
    /// Total gas consumed by the included transactions.
    pub gas_used: u64,
    /// Block gas limit.
    pub gas_limit: u64,
    /// Median gas price of the included transactions (gwei); falls back to
    /// the market median when the block is empty.
    pub median_gas_price: GweiPrice,
    /// Number of included transactions.
    pub tx_count: u32,
    /// Number of transactions left pending in the mempool after this block.
    pub mempool_backlog: u32,
}

/// Receipt of an executed transaction.
#[derive(Debug, Clone)]
pub struct TxReceipt {
    /// Transaction hash.
    pub hash: TxHash,
    /// Sender address.
    pub sender: Address,
    /// Block the transaction was included in.
    pub block: BlockNumber,
    /// Index within the block.
    pub index: u32,
    /// Gas price paid (gwei).
    pub gas_price: GweiPrice,
    /// Gas consumed.
    pub gas_used: u64,
    /// Whether execution succeeded (failed transactions still pay gas, as on
    /// Ethereum).
    pub success: bool,
}

impl TxReceipt {
    /// Transaction fee in ETH: `gas_used × gas_price`, with gas price in gwei.
    pub fn fee_eth(&self) -> f64 {
        self.gas_used as f64 * self.gas_price as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fee_eth_computation() {
        let receipt = TxReceipt {
            hash: TxHash::derive(1, 0, 0),
            sender: Address::from_seed(1),
            block: 1,
            index: 0,
            gas_price: 100,      // gwei
            gas_used: 1_000_000, // gas
            success: true,
        };
        // 1e6 gas * 100 gwei = 1e8 gwei = 0.1 ETH
        assert!((receipt.fee_eth() - 0.1).abs() < 1e-12);
    }
}
