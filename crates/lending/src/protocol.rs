//! The unified, object-safe lending-protocol API.
//!
//! The paper studies five protocols with two distinct liquidation mechanisms:
//! the atomic **fixed-spread** `liquidationCall` (Aave V1/V2, Compound, dYdX)
//! and MakerDAO's non-atomic **tend–dent auction** (§3.2). [`LendingProtocol`]
//! abstracts over both so the simulation engine, analytics and future
//! mechanism experiments can hold every protocol behind one
//! `Box<dyn LendingProtocol>`:
//!
//! * market listing, accrual and user operations (deposit / borrow / repay)
//!   share one vocabulary — a Maker CDP "deposit" locks collateral, its
//!   "borrow" draws DAI;
//! * liquidation-opportunity discovery is uniform
//!   ([`LendingProtocol::liquidatable`] returns [`Opportunity`] snapshots);
//! * mechanism-specific execution goes through one entry point,
//!   [`LendingProtocol::execute_liquidation`], driven by a
//!   [`LiquidationRequest`] — a fixed-spread repayment, or the
//!   bite / bid / settle steps of an auction;
//! * auction-bearing protocols additionally expose read-only
//!   [`AuctionSnapshot`]s so keeper agents can decide their bids without
//!   downcasting.
//!
//! Adding a sixth protocol (or a new mechanism such as reversible call
//! options) means implementing this trait — the engine needs no changes.

use defi_chain::{AuctionId, AuctionPhase, ChainEvent, Ledger};
use defi_core::mechanism::AuctionParams;
use defi_core::params::RiskParams;
use defi_core::position::Position;
use defi_oracle::PriceOracle;
use defi_types::{Address, BlockNumber, Platform, Token, Wad};

use crate::book::{BookStats, BookTotals};
use crate::error::ProtocolError;
use crate::fixed_spread::{FixedSpreadProtocol, LiquidationReceipt};
use crate::maker::{AuctionOutcome, MakerProtocol};

/// What [`LendingProtocol::book_snapshot`] returns: the observable book as
/// [`book_positions`](LendingProtocol::book_positions) builds it. Kept only
/// because the `perfbench/` harness still names it.
pub type BookSnapshot = Vec<Position>;

/// Which liquidation mechanism a protocol runs (§3.2's systematization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismKind {
    /// Atomic fixed-spread liquidation: repay debt, seize discounted
    /// collateral in one transaction.
    FixedSpread,
    /// Non-atomic English-auction liquidation (MakerDAO's tend–dent flow).
    Auction,
}

/// A liquidatable position discovered by [`LendingProtocol::liquidatable`].
#[derive(Debug, Clone)]
pub struct Opportunity {
    /// Platform the position lives on.
    pub platform: Platform,
    /// The borrower eligible for liquidation.
    pub borrower: Address,
    /// Valuation snapshot at discovery time.
    pub position: Position,
    /// How a liquidator must act on it.
    pub mechanism: MechanismKind,
}

/// One mechanism-specific liquidation step, executed through
/// [`LendingProtocol::execute_liquidation`].
#[derive(Debug, Clone)]
pub enum LiquidationRequest {
    /// Fixed-spread `liquidationCall` (Eq. 1 claim rule).
    FixedSpread {
        /// Caller repaying the debt.
        liquidator: Address,
        /// Borrower being liquidated.
        borrower: Address,
        /// Token of the debt being repaid.
        debt_token: Token,
        /// Token of the collateral being seized.
        collateral_token: Token,
        /// Requested repayment (capped by the close factor).
        repay_amount: Wad,
        /// Whether the repayment is flash-loan funded (event flag, Table 4).
        used_flash_loan: bool,
    },
    /// Initiate an auction on a liquidatable position (Maker `bite`).
    StartAuction {
        /// Keeper initiating the auction.
        keeper: Address,
        /// Borrower whose position is auctioned.
        borrower: Address,
    },
    /// Place a tend or dent bid on a running auction.
    AuctionBid {
        /// Bidding keeper.
        bidder: Address,
        /// The auction bid on.
        auction_id: AuctionId,
        /// DAI the bidder commits to repay (tend phase).
        debt_bid: Wad,
        /// Collateral the bidder accepts (dent phase).
        collateral_bid: Wad,
    },
    /// Finalise a terminated auction (Maker `deal`).
    SettleAuction {
        /// Caller settling the auction (usually the winner).
        caller: Address,
        /// The auction settled.
        auction_id: AuctionId,
    },
}

/// What a successful [`LendingProtocol::execute_liquidation`] produced.
#[derive(Debug, Clone)]
pub enum LiquidationExecution {
    /// A fixed-spread call settled atomically.
    FixedSpread(LiquidationReceipt),
    /// An auction was started.
    AuctionStarted(AuctionId),
    /// A bid was accepted; the auction is now in the given phase.
    BidPlaced(AuctionPhase),
    /// An auction was finalised.
    AuctionSettled(AuctionOutcome),
}

/// Best-bid view inside an [`AuctionSnapshot`].
#[derive(Debug, Clone, Copy)]
pub struct BidSnapshot {
    /// Current best bidder.
    pub bidder: Address,
    /// DAI committed by that bid.
    pub debt_bid: Wad,
    /// Collateral accepted by that bid.
    pub collateral_bid: Wad,
}

/// Read-only view of a running auction, sufficient for keeper decisions.
#[derive(Debug, Clone, Copy)]
pub struct AuctionSnapshot {
    /// Auction identifier.
    pub id: AuctionId,
    /// Borrower whose collateral is on auction.
    pub borrower: Address,
    /// Collateral token on auction.
    pub collateral_token: Token,
    /// Collateral amount on auction.
    pub collateral: Wad,
    /// Debt to recover (including penalties).
    pub debt: Wad,
    /// Current phase.
    pub phase: AuctionPhase,
    /// Best bid so far.
    pub best_bid: Option<BidSnapshot>,
    /// Block the auction started at.
    pub started_at: BlockNumber,
    /// Whether `deal` has already been called.
    pub finalized: bool,
}

/// The protocol abstraction every studied platform implements.
///
/// Object-safe by construction: the engine holds protocols as
/// `Box<dyn LendingProtocol>` in its registry and drives markets, positions
/// and liquidations without knowing the concrete type.
pub trait LendingProtocol {
    /// Platform identity used in events and reports.
    fn platform(&self) -> Platform;

    /// The liquidation mechanism this protocol runs.
    fn mechanism(&self) -> MechanismKind;

    /// Every listed market / collateral type.
    fn listed_tokens(&self) -> Vec<Token>;

    /// Tokens whose borrow side is funded from pooled deposits and therefore
    /// needs seeded liquidity. Empty for mint-on-demand designs (MakerDAO).
    fn lendable_tokens(&self) -> Vec<Token> {
        self.listed_tokens()
    }

    /// Close factor CF: the share of a debt repayable in one liquidation
    /// (1.0 where the mechanism recovers the whole debt).
    fn close_factor(&self) -> Wad;

    /// Accrue interest in every market up to `block`.
    fn accrue(&mut self, block: BlockNumber);

    /// Supply collateral (a Maker CDP `lock`).
    fn deposit(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), ProtocolError>;

    /// Borrow against the account's collateral (a Maker CDP `draw`).
    #[allow(clippy::too_many_arguments)]
    fn borrow(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        block: BlockNumber,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), ProtocolError>;

    /// Repay `amount` of debt; returns the amount repaid. Repaying more than
    /// the outstanding debt is a typed
    /// [`ProtocolError::RepayExceedsOutstanding`] error, never a silent
    /// clamp — callers repaying in full must read the accrued debt first.
    #[allow(clippy::too_many_arguments)]
    fn repay(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        block: BlockNumber,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<Wad, ProtocolError>;

    /// Valuation snapshot of one account, if it has state.
    fn position(&self, oracle: &PriceOracle, account: Address) -> Option<Position>;

    /// The protocol's observable position book — what volume sampling and
    /// the end-of-run snapshot iterate. Fixed-spread pools report accounts
    /// that actually borrow; Maker reports every open CDP.
    ///
    /// Takes `&mut self` so implementations can serve it from an incremental
    /// cache (see [`crate::book::PositionBook`]); results are identical to a
    /// from-scratch rebuild at current prices.
    fn book_positions(&mut self, oracle: &PriceOracle) -> Vec<Position>;

    /// Visit every observable book position in the same deterministic order
    /// as [`book_positions`](LendingProtocol::book_positions) without
    /// materialising a snapshot vector (the engine's hot loop).
    fn for_each_position(&mut self, oracle: &PriceOracle, visit: &mut dyn FnMut(&Position));

    /// Aggregate totals over the observable book (the volume-sampling pass),
    /// served from the book's running sums.
    fn book_totals(&mut self, oracle: &PriceOracle) -> BookTotals;

    /// Visit the *at-risk* slice of the observable book — every position
    /// whose health factor is below `rescue` (including liquidatable ones)
    /// or above `releverage` — in the same deterministic order as
    /// [`for_each_position`](LendingProtocol::for_each_position), with every
    /// visited valuation exact at current prices.
    ///
    /// Served by [`PositionBook::for_each_at_risk`](crate::book::PositionBook::for_each_at_risk):
    /// band-indexed books (fixed-spread pools) skip far-from-threshold
    /// accounts whose certified envelope holds, critical-price books (Maker)
    /// take the exact full walk — the engine's borrower-management pass
    /// consumes this surface every tick.
    ///
    /// ```
    /// use defi_lending::book::{RELEVERAGE_BAND_HF, RESCUE_BAND_HF};
    /// use defi_lending::{compound, LendingProtocol};
    /// use defi_oracle::{OracleConfig, PriceOracle};
    /// use defi_types::{Token, Wad};
    ///
    /// let mut protocol: Box<dyn LendingProtocol> = Box::new(compound());
    /// let mut oracle = PriceOracle::new(OracleConfig::every_update());
    /// oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
    /// let mut at_risk = 0;
    /// protocol.for_each_at_risk(
    ///     &oracle,
    ///     Wad::from_f64(RESCUE_BAND_HF),
    ///     Wad::from_f64(RELEVERAGE_BAND_HF),
    ///     &mut |_position| at_risk += 1,
    /// );
    /// assert_eq!(at_risk, 0, "an empty pool has nothing at risk");
    /// ```
    fn for_each_at_risk(
        &mut self,
        oracle: &PriceOracle,
        rescue: Wad,
        releverage: Wad,
        visit: &mut dyn FnMut(&Position),
    );

    /// An alias of [`book_positions`](LendingProtocol::book_positions).
    /// Kept only because the `perfbench/` harness still forwards it; remove
    /// it with the next benchmark change.
    fn book_snapshot(&mut self, oracle: &PriceOracle) -> BookSnapshot {
        self.book_positions(oracle)
    }

    /// A no-op: books flush serially. Kept only because the `perfbench/`
    /// harness still forwards it; remove it with the next benchmark change.
    fn set_book_workers(&mut self, _workers: usize) {}

    /// Cache-maintenance and per-phase timing counters of the protocol's
    /// incremental book ([`BookStats`]). Counters are monotone within a run,
    /// so the difference between two reads attributes wall-clock
    /// (flush / at-risk visit / envelope re-derive) and cache-path
    /// traffic (term reprices, light refreshes, full revaluations) to the
    /// interval between them.
    fn book_stats(&self) -> BookStats;

    /// The observable book rebuilt from scratch, bypassing every cache —
    /// the cache-less shadow the differential harness
    /// (`tests/band_differential.rs`) compares the banded/cached surfaces
    /// against every tick. Must return exactly what
    /// [`book_positions`](LendingProtocol::book_positions) returns, computed
    /// the slow way.
    fn reference_positions(&self, oracle: &PriceOracle) -> Vec<Position>;

    /// Risk parameters of one listed market (liquidation threshold/spread
    /// plus the protocol close factor), if the mechanism has per-market
    /// parameters. Lets observers check settlement envelopes against each
    /// market's actual liquidation spread instead of a global bound.
    fn market_risk_params(&self, _token: Token) -> Option<RiskParams> {
        None
    }

    /// Liquidation opportunities at current oracle prices, in deterministic
    /// order.
    ///
    /// Takes `&mut self` so implementations can answer from their
    /// critical-price index / incrementally maintained liquidatable set
    /// instead of filtering a freshly built book.
    fn liquidatable(&mut self, oracle: &PriceOracle) -> Vec<Opportunity>;

    /// Like [`liquidatable`](LendingProtocol::liquidatable), but filling a
    /// caller-owned buffer so a hot discovery loop can reuse one allocation
    /// across ticks (the engine holds the scratch vector and `mem::take`s it
    /// around each call). `out` is cleared first; the results and their order
    /// are identical to `liquidatable`.
    fn liquidatable_into(&mut self, oracle: &PriceOracle, out: &mut Vec<Opportunity>) {
        out.clear();
        out.append(&mut self.liquidatable(oracle));
    }

    /// Execute one mechanism-specific liquidation step. Implementations must
    /// reject request variants that do not belong to their mechanism with
    /// [`ProtocolError::UnsupportedLiquidationRequest`].
    #[allow(clippy::too_many_arguments)]
    fn execute_liquidation(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        block: BlockNumber,
        request: &LiquidationRequest,
    ) -> Result<LiquidationExecution, ProtocolError>;

    /// Auctions that have been started but not settled (auction mechanisms
    /// only).
    fn open_auctions(&self) -> Vec<AuctionId> {
        Vec::new()
    }

    /// Read-only view of one auction.
    fn auction_snapshot(&self, _id: AuctionId) -> Option<AuctionSnapshot> {
        None
    }

    /// Whether an auction has terminated and can be settled at `block`.
    fn can_finalize_auction(&self, _id: AuctionId, _block: BlockNumber) -> bool {
        false
    }

    /// The auction parameters in force, if the mechanism has any.
    fn auction_params(&self) -> Option<AuctionParams> {
        None
    }

    /// Update the auction parameters (governance changes mid-scenario, e.g.
    /// MakerDAO after March 2020). No-op for atomic mechanisms.
    fn set_auction_params(&mut self, _params: AuctionParams) {}

    /// Let an insurance fund absorb under-collateralized positions, returning
    /// the USD value written off (dYdX, §4.4.2). No-op by default.
    fn write_off_insolvent_positions(&mut self, _oracle: &PriceOracle) -> Wad {
        Wad::ZERO
    }
}

// ---------------------------------------------------------------- FixedSpread

impl LendingProtocol for FixedSpreadProtocol {
    fn platform(&self) -> Platform {
        FixedSpreadProtocol::platform(self)
    }

    fn mechanism(&self) -> MechanismKind {
        MechanismKind::FixedSpread
    }

    fn listed_tokens(&self) -> Vec<Token> {
        self.markets().map(|m| m.token).collect()
    }

    fn close_factor(&self) -> Wad {
        self.config().close_factor
    }

    fn accrue(&mut self, block: BlockNumber) {
        self.accrue_all(block);
    }

    fn deposit(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), ProtocolError> {
        FixedSpreadProtocol::deposit(self, ledger, events, account, token, amount)
    }

    fn borrow(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        block: BlockNumber,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), ProtocolError> {
        FixedSpreadProtocol::borrow(self, ledger, events, oracle, block, account, token, amount)
    }

    fn repay(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        block: BlockNumber,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<Wad, ProtocolError> {
        FixedSpreadProtocol::repay(self, ledger, events, block, account, token, amount)
    }

    fn position(&self, oracle: &PriceOracle, account: Address) -> Option<Position> {
        FixedSpreadProtocol::position(self, oracle, account)
    }

    fn book_positions(&mut self, oracle: &PriceOracle) -> Vec<Position> {
        self.cached_book(oracle)
    }

    fn for_each_position(&mut self, oracle: &PriceOracle, visit: &mut dyn FnMut(&Position)) {
        FixedSpreadProtocol::for_each_book_position(self, oracle, visit);
    }

    fn for_each_at_risk(
        &mut self,
        oracle: &PriceOracle,
        rescue: Wad,
        releverage: Wad,
        visit: &mut dyn FnMut(&Position),
    ) {
        FixedSpreadProtocol::for_each_at_risk(self, oracle, rescue, releverage, visit);
    }

    fn reference_positions(&self, oracle: &PriceOracle) -> Vec<Position> {
        // The observable book reports accounts that actually borrow.
        self.positions(oracle)
            .into_iter()
            .filter(|p| !p.total_debt_value().is_zero())
            .collect()
    }

    fn market_risk_params(&self, token: Token) -> Option<RiskParams> {
        self.market_params(token)
    }

    fn book_totals(&mut self, oracle: &PriceOracle) -> BookTotals {
        FixedSpreadProtocol::book_totals(self, oracle)
    }

    fn book_stats(&self) -> BookStats {
        FixedSpreadProtocol::book_stats(self)
    }

    fn liquidatable(&mut self, oracle: &PriceOracle) -> Vec<Opportunity> {
        let mut out = Vec::new();
        LendingProtocol::liquidatable_into(self, oracle, &mut out);
        out
    }

    fn liquidatable_into(&mut self, oracle: &PriceOracle, out: &mut Vec<Opportunity>) {
        out.clear();
        let platform = self.config().platform;
        for borrower in self.cached_liquidatable_accounts(oracle) {
            if let Some(position) = self.cached_position(borrower) {
                out.push(Opportunity {
                    platform,
                    borrower,
                    position: position.clone(),
                    mechanism: MechanismKind::FixedSpread,
                });
            }
        }
    }

    fn execute_liquidation(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        block: BlockNumber,
        request: &LiquidationRequest,
    ) -> Result<LiquidationExecution, ProtocolError> {
        match *request {
            LiquidationRequest::FixedSpread {
                liquidator,
                borrower,
                debt_token,
                collateral_token,
                repay_amount,
                used_flash_loan,
            } => self
                .liquidation_call(
                    ledger,
                    events,
                    oracle,
                    block,
                    liquidator,
                    borrower,
                    debt_token,
                    collateral_token,
                    repay_amount,
                    used_flash_loan,
                )
                .map(LiquidationExecution::FixedSpread),
            _ => Err(ProtocolError::UnsupportedLiquidationRequest {
                platform: self.config().platform,
            }),
        }
    }

    fn write_off_insolvent_positions(&mut self, oracle: &PriceOracle) -> Wad {
        FixedSpreadProtocol::write_off_insolvent_positions(self, oracle)
    }
}

// ---------------------------------------------------------------------- Maker

impl LendingProtocol for MakerProtocol {
    fn platform(&self) -> Platform {
        Platform::MakerDao
    }

    fn mechanism(&self) -> MechanismKind {
        MechanismKind::Auction
    }

    fn listed_tokens(&self) -> Vec<Token> {
        self.ilk_tokens()
    }

    fn lendable_tokens(&self) -> Vec<Token> {
        // DAI is minted against collateral, not lent from a pool: nothing to
        // seed.
        Vec::new()
    }

    fn close_factor(&self) -> Wad {
        // An auction recovers the whole debt (plus penalty) in one go.
        Wad::ONE
    }

    fn accrue(&mut self, _block: BlockNumber) {
        // Stability fees are accrued lazily into CDP debt in this model.
    }

    fn deposit(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), ProtocolError> {
        self.lock_collateral(ledger, events, account, token, amount)
    }

    fn borrow(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        _block: BlockNumber,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), ProtocolError> {
        if token != Token::DAI {
            return Err(ProtocolError::MarketNotListed(token));
        }
        self.draw_dai(ledger, events, oracle, account, amount)
    }

    fn repay(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        _block: BlockNumber,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<Wad, ProtocolError> {
        if token != Token::DAI {
            return Err(ProtocolError::NoDebtInToken(token));
        }
        self.repay_dai(ledger, events, account, amount)
    }

    fn position(&self, oracle: &PriceOracle, account: Address) -> Option<Position> {
        MakerProtocol::position(self, oracle, account)
    }

    fn book_positions(&mut self, oracle: &PriceOracle) -> Vec<Position> {
        self.cached_book(oracle)
    }

    fn for_each_position(&mut self, oracle: &PriceOracle, visit: &mut dyn FnMut(&Position)) {
        MakerProtocol::for_each_book_position(self, oracle, visit);
    }

    fn for_each_at_risk(
        &mut self,
        oracle: &PriceOracle,
        rescue: Wad,
        releverage: Wad,
        visit: &mut dyn FnMut(&Position),
    ) {
        MakerProtocol::for_each_at_risk(self, oracle, rescue, releverage, visit);
    }

    fn reference_positions(&self, oracle: &PriceOracle) -> Vec<Position> {
        // Every open CDP is observable.
        MakerProtocol::positions(self, oracle)
    }

    fn book_totals(&mut self, oracle: &PriceOracle) -> BookTotals {
        MakerProtocol::book_totals(self, oracle)
    }

    fn book_stats(&self) -> BookStats {
        MakerProtocol::book_stats(self)
    }

    fn liquidatable(&mut self, oracle: &PriceOracle) -> Vec<Opportunity> {
        let mut out = Vec::new();
        LendingProtocol::liquidatable_into(self, oracle, &mut out);
        out
    }

    fn liquidatable_into(&mut self, oracle: &PriceOracle, out: &mut Vec<Opportunity>) {
        out.clear();
        for owner in self.cached_liquidatable_cdps(oracle) {
            if let Some(position) = self.cached_position(owner) {
                out.push(Opportunity {
                    platform: Platform::MakerDao,
                    borrower: owner,
                    position: position.clone(),
                    mechanism: MechanismKind::Auction,
                });
            }
        }
    }

    fn execute_liquidation(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        block: BlockNumber,
        request: &LiquidationRequest,
    ) -> Result<LiquidationExecution, ProtocolError> {
        match *request {
            LiquidationRequest::StartAuction {
                keeper: _,
                borrower,
            } => self
                .bite(events, oracle, block, borrower)
                .map(LiquidationExecution::AuctionStarted),
            LiquidationRequest::AuctionBid {
                bidder,
                auction_id,
                debt_bid,
                collateral_bid,
            } => self
                .bid(
                    ledger,
                    events,
                    block,
                    auction_id,
                    bidder,
                    debt_bid,
                    collateral_bid,
                )
                .map(LiquidationExecution::BidPlaced),
            LiquidationRequest::SettleAuction {
                caller: _,
                auction_id,
            } => self
                .deal(ledger, events, oracle, block, auction_id)
                .map(LiquidationExecution::AuctionSettled),
            LiquidationRequest::FixedSpread { .. } => {
                Err(ProtocolError::UnsupportedLiquidationRequest {
                    platform: Platform::MakerDao,
                })
            }
        }
    }

    fn open_auctions(&self) -> Vec<AuctionId> {
        MakerProtocol::open_auctions(self)
    }

    fn auction_snapshot(&self, id: AuctionId) -> Option<AuctionSnapshot> {
        self.auction(id).map(|auction| AuctionSnapshot {
            id: auction.id,
            borrower: auction.borrower,
            collateral_token: auction.collateral_token,
            collateral: auction.collateral,
            debt: auction.debt,
            phase: auction.phase,
            best_bid: auction.best_bid.map(|bid| BidSnapshot {
                bidder: bid.bidder,
                debt_bid: bid.debt_bid,
                collateral_bid: bid.collateral_bid,
            }),
            started_at: auction.started_at,
            finalized: auction.finalized,
        })
    }

    fn can_finalize_auction(&self, id: AuctionId, block: BlockNumber) -> bool {
        self.can_finalize(id, block)
    }

    fn auction_params(&self) -> Option<AuctionParams> {
        Some(*MakerProtocol::auction_params(self))
    }

    fn set_auction_params(&mut self, params: AuctionParams) {
        MakerProtocol::set_auction_params(self, params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::{compound, maker_protocol};
    use defi_oracle::OracleConfig;

    fn oracle() -> PriceOracle {
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
        oracle.set_price(0, Token::USDC, Wad::ONE);
        oracle.set_price(0, Token::DAI, Wad::ONE);
        oracle
    }

    /// Drive a fixed-spread pool purely through the trait object.
    #[test]
    fn fixed_spread_through_dyn_trait() {
        let mut protocol: Box<dyn LendingProtocol> = Box::new(compound());
        let mut ledger = Ledger::new();
        let mut events = Vec::new();
        let mut oracle = oracle();

        assert_eq!(protocol.mechanism(), MechanismKind::FixedSpread);
        assert!(protocol.lendable_tokens().contains(&Token::USDC));

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
        protocol
            .borrow(
                &mut ledger,
                &mut events,
                &oracle,
                1,
                borrower,
                Token::USDC,
                Wad::from_int(7_800),
            )
            .unwrap();
        assert!(protocol.liquidatable(&oracle).is_empty());

        oracle.set_price(2, Token::ETH, Wad::from_int(3_000));
        let opportunities = protocol.liquidatable(&oracle);
        assert_eq!(opportunities.len(), 1);
        assert_eq!(opportunities[0].borrower, borrower);
        assert_eq!(opportunities[0].mechanism, MechanismKind::FixedSpread);

        let liquidator = Address::from_seed(3);
        ledger.mint(liquidator, Token::USDC, Wad::from_int(10_000));
        let request = LiquidationRequest::FixedSpread {
            liquidator,
            borrower,
            debt_token: Token::USDC,
            collateral_token: Token::ETH,
            repay_amount: Wad::from_int(3_900),
            used_flash_loan: false,
        };
        let execution = protocol
            .execute_liquidation(&mut ledger, &mut events, &oracle, 2, &request)
            .unwrap();
        let LiquidationExecution::FixedSpread(receipt) = execution else {
            panic!("expected a fixed-spread receipt");
        };
        assert!(receipt.debt_repaid > Wad::ZERO);
        assert!(receipt.gross_profit_usd() > Wad::ZERO);

        // Auction steps are rejected by fixed-spread protocols.
        let bad = LiquidationRequest::StartAuction {
            keeper: liquidator,
            borrower,
        };
        assert!(matches!(
            protocol.execute_liquidation(&mut ledger, &mut events, &oracle, 3, &bad),
            Err(ProtocolError::UnsupportedLiquidationRequest { .. })
        ));
    }

    /// Drive MakerDAO bite → bid → deal purely through the trait object.
    #[test]
    fn maker_auction_through_dyn_trait() {
        let mut protocol: Box<dyn LendingProtocol> = Box::new(maker_protocol());
        let mut ledger = Ledger::new();
        let mut events = Vec::new();
        let mut oracle = oracle();

        assert_eq!(protocol.mechanism(), MechanismKind::Auction);
        assert!(protocol.lendable_tokens().is_empty());
        assert!(protocol.listed_tokens().contains(&Token::ETH));

        let owner = Address::from_seed(10);
        ledger.mint(owner, Token::ETH, Wad::from_int(10));
        protocol
            .deposit(
                &mut ledger,
                &mut events,
                owner,
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
                owner,
                Token::DAI,
                Wad::from_int(20_000),
            )
            .unwrap();
        // Borrowing a non-DAI token through a CDP is rejected.
        assert!(protocol
            .borrow(
                &mut ledger,
                &mut events,
                &oracle,
                1,
                owner,
                Token::USDC,
                Wad::ONE
            )
            .is_err());

        oracle.set_price(2, Token::ETH, Wad::from_int(2_500));
        let opportunities = protocol.liquidatable(&oracle);
        assert_eq!(opportunities.len(), 1);
        assert_eq!(opportunities[0].mechanism, MechanismKind::Auction);

        let keeper = Address::from_seed(11);
        let start = LiquidationRequest::StartAuction {
            keeper,
            borrower: owner,
        };
        let LiquidationExecution::AuctionStarted(auction_id) = protocol
            .execute_liquidation(&mut ledger, &mut events, &oracle, 10, &start)
            .unwrap()
        else {
            panic!("expected an auction start");
        };
        assert_eq!(protocol.open_auctions(), vec![auction_id]);
        let snapshot = protocol.auction_snapshot(auction_id).unwrap();
        assert_eq!(snapshot.collateral, Wad::from_int(10));
        assert!(snapshot.best_bid.is_none());

        ledger.mint(keeper, Token::DAI, snapshot.debt);
        let bid = LiquidationRequest::AuctionBid {
            bidder: keeper,
            auction_id,
            debt_bid: snapshot.debt,
            collateral_bid: Wad::ZERO,
        };
        let LiquidationExecution::BidPlaced(phase) = protocol
            .execute_liquidation(&mut ledger, &mut events, &oracle, 11, &bid)
            .unwrap()
        else {
            panic!("expected a bid");
        };
        assert_eq!(phase, AuctionPhase::Dent);

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
        assert!(protocol.open_auctions().is_empty());
    }

    /// The registry pattern: both mechanisms behind one map of trait objects.
    #[test]
    fn heterogeneous_registry_is_object_safe() {
        let protocols: Vec<Box<dyn LendingProtocol>> =
            vec![Box::new(compound()), Box::new(maker_protocol())];
        let kinds: Vec<MechanismKind> = protocols.iter().map(|p| p.mechanism()).collect();
        assert_eq!(
            kinds,
            vec![MechanismKind::FixedSpread, MechanismKind::Auction]
        );
        for protocol in &protocols {
            assert!(!protocol.listed_tokens().is_empty());
            assert!(protocol.close_factor() > Wad::ZERO);
        }
    }
}
