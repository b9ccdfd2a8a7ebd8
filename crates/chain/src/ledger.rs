//! Token balance ledger with journaled, revertible mutations.
//!
//! Every protocol in the suite settles balance changes through this ledger.
//! Mutations performed inside a transaction scope are journaled so that a
//! failing transaction (e.g. an unprofitable flash-loan liquidation, §4.4.4:
//! "If the liquidation is not profitable, the flash loan would not succeed")
//! can be rolled back atomically, exactly like EVM revert semantics.

use defi_types::{Address, FxHashMap, Token, Wad};

/// Errors raised by ledger operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerError {
    /// The account does not hold enough of the token.
    InsufficientBalance {
        /// Account whose balance was insufficient.
        account: Address,
        /// Token being debited.
        token: Token,
        /// Amount requested.
        requested: Wad,
        /// Amount available.
        available: Wad,
    },
}

impl core::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LedgerError::InsufficientBalance {
                account,
                token,
                requested,
                available,
            } => write!(
                f,
                "insufficient {token} balance for {}: requested {requested}, available {available}",
                account.short()
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

/// One journal entry: the key touched and its value before the mutation.
#[derive(Debug, Clone, Copy)]
struct JournalEntry {
    account: Address,
    token: Token,
    previous: Wad,
}

/// Account/token balance store with nested-checkpoint journaling.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    balances: FxHashMap<(Address, Token), Wad>,
    journal: Vec<JournalEntry>,
    checkpoints: Vec<usize>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Current balance of `account` in `token`.
    pub fn balance(&self, account: Address, token: Token) -> Wad {
        self.balances
            .get(&(account, token))
            .copied()
            .unwrap_or(Wad::ZERO)
    }

    /// Total supply of a token across all accounts (sum of balances).
    pub fn total_supply(&self, token: Token) -> Wad {
        self.balances
            .iter()
            .filter(|((_, t), _)| *t == token)
            .map(|(_, v)| *v)
            .fold(Wad::ZERO, |acc, v| acc.saturating_add(v))
    }

    fn record(&mut self, account: Address, token: Token) {
        if !self.checkpoints.is_empty() {
            let previous = self.balance(account, token);
            self.journal.push(JournalEntry {
                account,
                token,
                previous,
            });
        }
    }

    /// Credit an account (minting if the funds come from nowhere).
    pub fn mint(&mut self, account: Address, token: Token, amount: Wad) {
        if amount.is_zero() {
            return;
        }
        self.record(account, token);
        let entry = self.balances.entry((account, token)).or_insert(Wad::ZERO);
        *entry = entry.saturating_add(amount);
    }

    /// Debit an account, failing if the balance is insufficient.
    pub fn burn(&mut self, account: Address, token: Token, amount: Wad) -> Result<(), LedgerError> {
        if amount.is_zero() {
            return Ok(());
        }
        let available = self.balance(account, token);
        if available < amount {
            return Err(LedgerError::InsufficientBalance {
                account,
                token,
                requested: amount,
                available,
            });
        }
        self.record(account, token);
        self.balances.insert((account, token), available - amount);
        Ok(())
    }

    /// Move `amount` of `token` from `from` to `to`.
    pub fn transfer(
        &mut self,
        from: Address,
        to: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), LedgerError> {
        if amount.is_zero() {
            return Ok(());
        }
        self.burn(from, token, amount)?;
        self.mint(to, token, amount);
        Ok(())
    }

    /// Open a checkpoint. Mutations after this call can be rolled back with
    /// [`Ledger::revert_checkpoint`] or made permanent with
    /// [`Ledger::commit_checkpoint`]. Checkpoints nest.
    pub fn begin_checkpoint(&mut self) {
        self.checkpoints.push(self.journal.len());
    }

    /// Discard every mutation performed since the most recent checkpoint.
    pub fn revert_checkpoint(&mut self) {
        let Some(mark) = self.checkpoints.pop() else {
            return;
        };
        while self.journal.len() > mark {
            let Some(entry) = self.journal.pop() else {
                break;
            };
            self.balances
                .insert((entry.account, entry.token), entry.previous);
        }
    }

    /// Accept every mutation performed since the most recent checkpoint.
    pub fn commit_checkpoint(&mut self) {
        if let Some(mark) = self.checkpoints.pop() {
            if self.checkpoints.is_empty() {
                self.journal.clear();
            } else {
                // Keep entries for the outer checkpoint: they still describe
                // the pre-state relative to that outer checkpoint.
                let _ = mark;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> Address {
        Address::from_seed(n)
    }

    #[test]
    fn mint_and_balance() {
        let mut ledger = Ledger::new();
        ledger.mint(addr(1), Token::DAI, Wad::from_int(100));
        assert_eq!(ledger.balance(addr(1), Token::DAI), Wad::from_int(100));
        assert_eq!(ledger.balance(addr(1), Token::ETH), Wad::ZERO);
    }

    #[test]
    fn transfer_moves_funds() {
        let mut ledger = Ledger::new();
        ledger.mint(addr(1), Token::ETH, Wad::from_int(5));
        ledger
            .transfer(addr(1), addr(2), Token::ETH, Wad::from_int(2))
            .unwrap();
        assert_eq!(ledger.balance(addr(1), Token::ETH), Wad::from_int(3));
        assert_eq!(ledger.balance(addr(2), Token::ETH), Wad::from_int(2));
    }

    #[test]
    fn transfer_insufficient_fails() {
        let mut ledger = Ledger::new();
        ledger.mint(addr(1), Token::ETH, Wad::from_int(1));
        let err = ledger
            .transfer(addr(1), addr(2), Token::ETH, Wad::from_int(2))
            .unwrap_err();
        match err {
            LedgerError::InsufficientBalance {
                requested,
                available,
                ..
            } => {
                assert_eq!(requested, Wad::from_int(2));
                assert_eq!(available, Wad::from_int(1));
            }
        }
        // Balance untouched by the failed transfer.
        assert_eq!(ledger.balance(addr(1), Token::ETH), Wad::from_int(1));
    }

    #[test]
    fn revert_restores_pre_state() {
        let mut ledger = Ledger::new();
        ledger.mint(addr(1), Token::DAI, Wad::from_int(10));
        ledger.begin_checkpoint();
        ledger.mint(addr(1), Token::DAI, Wad::from_int(90));
        ledger
            .transfer(addr(1), addr(2), Token::DAI, Wad::from_int(50))
            .unwrap();
        ledger.revert_checkpoint();
        assert_eq!(ledger.balance(addr(1), Token::DAI), Wad::from_int(10));
        assert_eq!(ledger.balance(addr(2), Token::DAI), Wad::ZERO);
    }

    #[test]
    fn commit_keeps_changes() {
        let mut ledger = Ledger::new();
        ledger.begin_checkpoint();
        ledger.mint(addr(3), Token::USDC, Wad::from_int(7));
        ledger.commit_checkpoint();
        assert_eq!(ledger.balance(addr(3), Token::USDC), Wad::from_int(7));
    }

    #[test]
    fn nested_checkpoints_revert_inner_only() {
        let mut ledger = Ledger::new();
        ledger.mint(addr(1), Token::ETH, Wad::from_int(10));
        ledger.begin_checkpoint(); // outer
        ledger.burn(addr(1), Token::ETH, Wad::from_int(1)).unwrap();
        ledger.begin_checkpoint(); // inner
        ledger.burn(addr(1), Token::ETH, Wad::from_int(5)).unwrap();
        ledger.revert_checkpoint(); // undo inner burn
        assert_eq!(ledger.balance(addr(1), Token::ETH), Wad::from_int(9));
        ledger.revert_checkpoint(); // undo outer burn
        assert_eq!(ledger.balance(addr(1), Token::ETH), Wad::from_int(10));
    }

    #[test]
    fn nested_commit_then_outer_revert() {
        let mut ledger = Ledger::new();
        ledger.mint(addr(1), Token::ETH, Wad::from_int(10));
        ledger.begin_checkpoint(); // outer
        ledger.begin_checkpoint(); // inner
        ledger.burn(addr(1), Token::ETH, Wad::from_int(4)).unwrap();
        ledger.commit_checkpoint(); // inner committed
        ledger.revert_checkpoint(); // outer reverted: the inner change must also unwind
        assert_eq!(ledger.balance(addr(1), Token::ETH), Wad::from_int(10));
    }

    #[test]
    fn total_supply_and_account_balances() {
        let mut ledger = Ledger::new();
        ledger.mint(addr(1), Token::DAI, Wad::from_int(3));
        ledger.mint(addr(2), Token::DAI, Wad::from_int(4));
        ledger.mint(addr(1), Token::ETH, Wad::from_int(1));
        assert_eq!(ledger.total_supply(Token::DAI), Wad::from_int(7));
        assert_eq!(ledger.total_supply(Token::ETH), Wad::from_int(1));
    }
}
