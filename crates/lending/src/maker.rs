//! MakerDAO: collateralized debt positions and the tend–dent liquidation
//! auction (§3.2.1, §3.3, Figure 2).
//!
//! A borrower locks collateral (e.g. ETH) in a CDP and mints DAI against it,
//! subject to the ilk's liquidation ratio (e.g. 150 %). When the collateral
//! value falls below `debt × liquidation_ratio`, anyone can `bite` the CDP,
//! which starts a two-phase auction:
//!
//! * **tend** — bidders raise the amount of DAI debt they will repay in
//!   exchange for *all* the collateral; once a bid covers the full debt the
//!   auction flips to
//! * **dent** — bidders accept *less and less* collateral for repaying the
//!   full debt; the unclaimed remainder is returned to the borrower.
//!
//! The auction terminates when either the auction length (since initiation)
//! or the bid duration (since the last bid) elapses; the winner then calls
//! `deal` to settle. The March 2020 incident — keepers failing to bid under
//! congestion, letting near-zero tend bids win — emerges naturally from this
//! mechanism plus the mempool model in `defi-chain`.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

use defi_chain::{AuctionId, AuctionPhase, ChainEvent, Ledger};
use defi_core::mechanism::AuctionParams;
use defi_core::position::{CollateralHolding, DebtHolding, Position};
use defi_oracle::PriceOracle;
use defi_types::{mul_div_ceil, Address, BlockNumber, Platform, Token, Wad, WAD};

use crate::book::{BookSource, BookStats, BookTotals, PositionBook};
use crate::error::ProtocolError;

/// Per-collateral-type ("ilk") risk parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IlkParams {
    /// Minimum collateralization ratio, e.g. 1.5 = 150 %.
    pub liquidation_ratio: Wad,
    /// Annual stability fee charged on drawn DAI (simplified: accrued lazily
    /// into the CDP debt when touched).
    pub stability_fee: f64,
    /// Liquidation penalty added to the debt when a CDP is bitten (13 %).
    pub liquidation_penalty: Wad,
}

impl Default for IlkParams {
    fn default() -> Self {
        IlkParams {
            // lint:allow(fixed-float) ilk defaults are config-space constants quantized once at listing
            liquidation_ratio: Wad::from_f64(1.5),
            stability_fee: 0.02,
            // lint:allow(fixed-float) ilk defaults are config-space constants quantized once at listing
            liquidation_penalty: Wad::from_f64(0.13),
        }
    }
}

/// A collateralized debt position.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Cdp {
    /// Owner.
    pub owner: Address,
    /// Collateral token of the vault.
    pub collateral_token: Token,
    /// Locked collateral (token units).
    pub collateral: Wad,
    /// Outstanding DAI debt.
    pub debt: Wad,
}

/// The best bid of an auction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Bid {
    /// Bidder address.
    pub bidder: Address,
    /// DAI the bidder commits to repay.
    pub debt_bid: Wad,
    /// Collateral the bidder accepts.
    pub collateral_bid: Wad,
    /// Block of the bid.
    pub block: BlockNumber,
}

/// A running (or finished) tend–dent auction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Auction {
    /// Identifier.
    pub id: AuctionId,
    /// Borrower whose CDP is being liquidated.
    pub borrower: Address,
    /// Collateral token on auction.
    pub collateral_token: Token,
    /// Collateral amount on auction (token units).
    pub collateral: Wad,
    /// Debt to recover (DAI), including the liquidation penalty.
    pub debt: Wad,
    /// Current phase.
    pub phase: AuctionPhase,
    /// Best bid so far.
    pub best_bid: Option<Bid>,
    /// Block at which the auction was initiated.
    pub started_at: BlockNumber,
    /// Block of the most recent bid (equals `started_at` before any bid).
    pub last_bid_at: BlockNumber,
    /// Number of tend bids placed.
    pub tend_bids: u32,
    /// Number of dent bids placed.
    pub dent_bids: u32,
    /// Whether `deal` has been called.
    pub finalized: bool,
}

impl Auction {
    /// Whether the auction has terminated (and can be finalised) at `block`
    /// under the given parameters: auction-length or bid-duration condition.
    pub fn has_terminated(&self, block: BlockNumber, params: &AuctionParams) -> bool {
        if self.finalized {
            return true;
        }
        let length_elapsed = block.saturating_sub(self.started_at) >= params.auction_length_blocks;
        let bid_elapsed = self.best_bid.is_some()
            && block.saturating_sub(self.last_bid_at) >= params.bid_duration_blocks;
        length_elapsed || bid_elapsed
    }
}

/// Outcome of a finalised auction, mirroring the paper's per-auction
/// statistics (§4.3.3).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AuctionOutcome {
    /// Auction identifier.
    pub id: AuctionId,
    /// Winning bidder (`None` when no bid was placed and the collateral
    /// returns to the borrower).
    pub winner: Option<Address>,
    /// DAI repaid by the winner.
    pub debt_repaid: Wad,
    /// Collateral received by the winner (token units).
    pub collateral_received: Wad,
    /// Phase in which the auction terminated.
    pub final_phase: AuctionPhase,
    /// Duration in blocks from initiation to finalisation.
    pub duration_blocks: u64,
}

/// The MakerDAO protocol: CDPs + auctions.
#[derive(Debug, Clone)]
pub struct MakerProtocol {
    /// Ledger account holding locked collateral and escrowed DAI.
    pub pool_address: Address,
    ilks: BTreeMap<Token, IlkParams>,
    cdps: HashMap<Address, Cdp>,
    auctions: BTreeMap<AuctionId, Auction>,
    auction_params: AuctionParams,
    next_auction_id: AuctionId,
    /// Incremental valuation cache + critical-price liquidation index (see
    /// [`crate::book`]).
    book: PositionBook,
}

/// Borrow-view of the CDP state handed to the [`PositionBook`].
struct MakerView<'a> {
    ilks: &'a BTreeMap<Token, IlkParams>,
    cdps: &'a HashMap<Address, Cdp>,
}

impl BookSource for MakerView<'_> {
    fn fill_position(&self, oracle: &PriceOracle, account: Address, slot: &mut Position) -> bool {
        let Some(cdp) = self.cdps.get(&account) else {
            return false;
        };
        let Some(ilk) = self.ilks.get(&cdp.collateral_token) else {
            return false;
        };
        if !fill_cdp_position(cdp, ilk, oracle, account, slot) {
            return false;
        }
        // The legacy `positions()` rebuild drops emptied (post-bite) CDPs.
        !slot.collateral.is_empty() || !slot.debt.is_empty()
    }

    fn in_book(&self, _position: &Position) -> bool {
        // Maker's observable book is every open CDP.
        true
    }

    fn sensitive_tokens(&self, position: &Position, out: &mut Vec<Token>) {
        // DAI debt is valued at the vat's 1-USD par, so only the collateral
        // price enters the valuation — which is what makes every CDP a
        // single-price account the critical index can cover exactly.
        for holding in &position.collateral {
            if !out.contains(&holding.token) {
                out.push(holding.token);
            }
        }
    }

    fn debt_tokens(&self, _position: &Position, _out: &mut Vec<Token>) {
        // Stability fees accrue lazily in this model; no per-block index.
    }

    fn critical_price(&self, account: Address, _position: &Position) -> Option<(Token, u128)> {
        let cdp = self.cdps.get(&account)?;
        if cdp.debt.is_zero() || cdp.collateral.is_zero() {
            return None;
        }
        let ilk = self.ilks.get(&cdp.collateral_token)?;
        // Bite condition: collateral × p < debt × liquidation_ratio, with the
        // truncating fixed-point multiply on the left. The exact threshold is
        // crit = ⌈required × WAD / collateral⌉: the CDP is liquidatable iff
        // the raw oracle price is strictly below it.
        let required = cdp
            .debt
            .checked_mul(ilk.liquidation_ratio)
            .unwrap_or(Wad::MAX);
        let crit = mul_div_ceil(required.raw(), WAD, cdp.collateral.raw()).unwrap_or(u128::MAX);
        Some((cdp.collateral_token, crit))
    }

    fn reprice_position(
        &self,
        oracle: &PriceOracle,
        position: &mut Position,
        moved: &[Token],
    ) -> bool {
        // Term path: only the collateral value term depends on an oracle
        // price (DAI debt is valued at the vat's 1-USD par, and
        // `sensitive_tokens` reports collateral only, so `moved` can never
        // name the debt side). Same arithmetic as `fill_cdp_position` on the
        // same cached amount — byte-identical by construction.
        for holding in &mut position.collateral {
            if moved.contains(&holding.token) {
                let price = oracle.price_or_zero(holding.token);
                holding.value_usd = holding.amount.checked_mul(price).unwrap_or(Wad::MAX);
            }
        }
        true
    }
}

/// Build `slot` in place as the CDP's valuation snapshot — the one valuation
/// code path shared by [`MakerProtocol::position`] and the incremental book.
fn fill_cdp_position(
    cdp: &Cdp,
    ilk: &IlkParams,
    oracle: &PriceOracle,
    owner: Address,
    slot: &mut Position,
) -> bool {
    slot.owner = owner;
    slot.platform = Some(Platform::MakerDao);
    slot.collateral.clear();
    slot.debt.clear();
    let price = oracle.price_or_zero(cdp.collateral_token);
    let lt = Wad::ONE
        .checked_div(ilk.liquidation_ratio)
        // lint:allow(fixed-float) fallback threshold for a zero liquidation ratio; a config-space constant, unreachable for listed ilks
        .unwrap_or(Wad::from_f64(2.0 / 3.0));
    if !cdp.collateral.is_zero() {
        slot.collateral.push(CollateralHolding {
            token: cdp.collateral_token,
            amount: cdp.collateral,
            // Overflow saturates toward the true (huge) value so an
            // over-collateralised CDP never looks empty and bitable.
            value_usd: cdp.collateral.checked_mul(price).unwrap_or(Wad::MAX),
            liquidation_threshold: lt,
            liquidation_spread: ilk.liquidation_penalty,
        });
    }
    if !cdp.debt.is_zero() {
        // The vat accounts DAI at its 1-USD par price: the contracts are
        // oblivious to DAI's market price, so valuing the debt at par is
        // what makes HF < 1 coincide *exactly* with the bite condition
        // (collateral value < debt × liquidation ratio) even while DAI
        // trades off peg.
        slot.debt.push(DebtHolding {
            token: Token::DAI,
            amount: cdp.debt,
            value_usd: cdp.debt,
        });
    }
    true
}

impl MakerProtocol {
    /// Create the protocol with the given auction parameters.
    pub fn new(auction_params: AuctionParams) -> Self {
        MakerProtocol {
            pool_address: Address::from_label("makerdao-vat"),
            ilks: BTreeMap::new(),
            cdps: HashMap::new(),
            auctions: BTreeMap::new(),
            auction_params,
            next_auction_id: 1,
            book: PositionBook::new(),
        }
    }

    /// Split into the valuation cache and the read-view it re-values through.
    fn split_book(&mut self) -> (&mut PositionBook, MakerView<'_>) {
        (
            &mut self.book,
            MakerView {
                ilks: &self.ilks,
                cdps: &self.cdps,
            },
        )
    }

    /// The auction parameters currently in force.
    pub fn auction_params(&self) -> &AuctionParams {
        &self.auction_params
    }

    /// Update the auction parameters (the post-March-2020 governance change
    /// visible in Figure 7).
    pub fn set_auction_params(&mut self, params: AuctionParams) {
        self.auction_params = params;
    }

    /// Register a collateral type. Re-listing an existing ilk replaces its
    /// risk parameters, which changes every cached valuation's thresholds —
    /// the whole book re-values.
    pub fn list_ilk(&mut self, token: Token, params: IlkParams) {
        self.book.invalidate_all();
        self.ilks.insert(token, params);
    }

    /// Parameters of an ilk.
    pub fn ilk(&self, token: Token) -> Option<IlkParams> {
        self.ilks.get(&token).copied()
    }

    /// The registered collateral types, in deterministic order.
    pub fn ilk_tokens(&self) -> Vec<Token> {
        self.ilks.keys().copied().collect()
    }

    /// The CDP of an owner, if any.
    pub fn cdp(&self, owner: Address) -> Option<&Cdp> {
        self.cdps.get(&owner)
    }

    /// All open CDPs.
    pub fn cdps(&self) -> impl Iterator<Item = &Cdp> {
        self.cdps.values()
    }

    /// A running auction by id.
    pub fn auction(&self, id: AuctionId) -> Option<&Auction> {
        self.auctions.get(&id)
    }

    /// All auctions (running and finalised).
    pub fn auctions(&self) -> impl Iterator<Item = &Auction> {
        self.auctions.values()
    }

    /// Auctions that have not been finalised yet.
    pub fn open_auctions(&self) -> Vec<AuctionId> {
        self.auctions
            .values()
            .filter(|a| !a.finalized)
            .map(|a| a.id)
            .collect()
    }

    // --------------------------------------------------------------- CDP ops

    /// Open (or top up) a CDP by locking collateral.
    pub fn lock_collateral(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        owner: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), ProtocolError> {
        if !self.ilks.contains_key(&token) {
            return Err(ProtocolError::MarketNotListed(token));
        }
        ledger.transfer(owner, self.pool_address, token, amount)?;
        let cdp = self.cdps.entry(owner).or_insert(Cdp {
            owner,
            collateral_token: token,
            collateral: Wad::ZERO,
            debt: Wad::ZERO,
        });
        if cdp.collateral_token != token && !cdp.collateral.is_zero() {
            // One collateral type per CDP in this model.
            return Err(ProtocolError::MarketNotListed(token));
        }
        cdp.collateral_token = token;
        cdp.collateral = cdp.collateral.saturating_add(amount);
        self.book.mark_dirty(owner);
        events.push(ChainEvent::Deposit {
            platform: Platform::MakerDao,
            account: owner,
            token,
            amount,
        });
        Ok(())
    }

    /// Draw (mint) DAI against the CDP, respecting the liquidation ratio.
    pub fn draw_dai(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        owner: Address,
        amount: Wad,
    ) -> Result<(), ProtocolError> {
        let cdp = self
            .cdps
            .get(&owner)
            .ok_or(ProtocolError::UnknownCdp(owner))?;
        let ilk = self
            .ilks
            .get(&cdp.collateral_token)
            .copied()
            .ok_or(ProtocolError::MarketNotListed(cdp.collateral_token))?;
        let price = oracle
            .price(cdp.collateral_token)
            .ok_or(ProtocolError::MissingPrice(cdp.collateral_token))?;
        let collateral_value = cdp
            .collateral
            .checked_mul(price)
            .map_err(|_| ProtocolError::Arithmetic)?;
        let new_debt = cdp.debt.saturating_add(amount);
        let required = new_debt
            .checked_mul(ilk.liquidation_ratio)
            .map_err(|_| ProtocolError::Arithmetic)?;
        if collateral_value < required {
            return Err(ProtocolError::ExceedsBorrowingCapacity {
                capacity: collateral_value,
                required,
            });
        }
        // Mint DAI to the owner.
        ledger.mint(owner, Token::DAI, amount);
        self.cdps
            .get_mut(&owner)
            .ok_or(ProtocolError::UnknownCdp(owner))?
            .debt = new_debt;
        self.book.mark_dirty(owner);
        events.push(ChainEvent::Borrow {
            platform: Platform::MakerDao,
            borrower: owner,
            token: Token::DAI,
            amount,
        });
        Ok(())
    }

    /// Repay DAI debt (burning the DAI). Repaying more than the outstanding
    /// debt is rejected with [`ProtocolError::RepayExceedsOutstanding`].
    pub fn repay_dai(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        owner: Address,
        amount: Wad,
    ) -> Result<Wad, ProtocolError> {
        let cdp = self
            .cdps
            .get_mut(&owner)
            .ok_or(ProtocolError::UnknownCdp(owner))?;
        if amount > cdp.debt {
            return Err(ProtocolError::RepayExceedsOutstanding {
                outstanding: cdp.debt,
                requested: amount,
            });
        }
        let repaid = amount;
        ledger.burn(owner, Token::DAI, repaid)?;
        cdp.debt = cdp.debt.saturating_sub(repaid);
        self.book.mark_dirty(owner);
        events.push(ChainEvent::Repay {
            platform: Platform::MakerDao,
            borrower: owner,
            token: Token::DAI,
            amount: repaid,
        });
        Ok(repaid)
    }

    /// Free collateral from the CDP while staying above the liquidation ratio.
    pub fn free_collateral(
        &mut self,
        ledger: &mut Ledger,
        oracle: &PriceOracle,
        owner: Address,
        amount: Wad,
    ) -> Result<(), ProtocolError> {
        let cdp = self
            .cdps
            .get(&owner)
            .ok_or(ProtocolError::UnknownCdp(owner))?;
        if cdp.collateral < amount {
            return Err(ProtocolError::NoCollateralInToken(cdp.collateral_token));
        }
        let ilk = self
            .ilks
            .get(&cdp.collateral_token)
            .copied()
            .unwrap_or_default();
        let price = oracle
            .price(cdp.collateral_token)
            .ok_or(ProtocolError::MissingPrice(cdp.collateral_token))?;
        let remaining_value = (cdp.collateral - amount)
            .checked_mul(price)
            .map_err(|_| ProtocolError::Arithmetic)?;
        let required = cdp
            .debt
            .checked_mul(ilk.liquidation_ratio)
            .map_err(|_| ProtocolError::Arithmetic)?;
        if remaining_value < required {
            return Err(ProtocolError::WouldBecomeUnhealthy);
        }
        let token = cdp.collateral_token;
        ledger.transfer(self.pool_address, owner, token, amount)?;
        self.cdps
            .get_mut(&owner)
            .ok_or(ProtocolError::UnknownCdp(owner))?
            .collateral -= amount;
        self.book.mark_dirty(owner);
        Ok(())
    }

    /// Whether a CDP is eligible for liquidation at current prices.
    pub fn is_liquidatable(&self, oracle: &PriceOracle, owner: Address) -> bool {
        let Some(cdp) = self.cdps.get(&owner) else {
            return false;
        };
        if cdp.debt.is_zero() {
            return false;
        }
        let Some(ilk) = self.ilks.get(&cdp.collateral_token) else {
            return false;
        };
        let Some(price) = oracle.price(cdp.collateral_token) else {
            return false;
        };
        // Both sides saturate toward their true (huge) values on overflow:
        // zeroing the collateral side would spuriously bite a giant CDP.
        let collateral_value = cdp.collateral.checked_mul(price).unwrap_or(Wad::MAX);
        let required = cdp
            .debt
            .checked_mul(ilk.liquidation_ratio)
            .unwrap_or(Wad::MAX);
        collateral_value < required
    }

    /// CDPs eligible for liquidation, in a deterministic (sorted) order so
    /// that simulation runs are reproducible.
    pub fn liquidatable_cdps(&self, oracle: &PriceOracle) -> Vec<Address> {
        let mut owners: Vec<Address> = self
            .cdps
            .keys()
            .copied()
            .filter(|owner| self.is_liquidatable(oracle, *owner))
            .collect();
        owners.sort();
        owners
    }

    /// Valuation snapshot of one CDP as a generic [`Position`] (the LT used
    /// is the inverse of the liquidation ratio, so HF < 1 coincides with the
    /// CDP liquidation condition). Always computed from scratch — the
    /// reference path the incremental book is tested against.
    pub fn position(&self, oracle: &PriceOracle, owner: Address) -> Option<Position> {
        let cdp = self.cdps.get(&owner)?;
        let ilk = self.ilks.get(&cdp.collateral_token)?;
        let mut position = Position::new(owner);
        fill_cdp_position(cdp, ilk, oracle, owner, &mut position).then_some(position)
    }

    /// Valuation snapshots of all CDPs, rebuilt from scratch (the reference
    /// path; the engine reads the incremental
    /// [`cached_book`](MakerProtocol::cached_book)).
    pub fn positions(&self, oracle: &PriceOracle) -> Vec<Position> {
        let mut owners: Vec<Address> = self.cdps.keys().copied().collect();
        owners.sort();
        owners
            .into_iter()
            .filter_map(|o| self.position(oracle, o))
            .filter(|p| !p.collateral.is_empty() || !p.debt.is_empty())
            .collect()
    }

    // ------------------------------------------------------- incremental book

    /// All open CDPs served from the incremental cache.
    pub fn cached_book(&mut self, oracle: &PriceOracle) -> Vec<Position> {
        let (book, view) = self.split_book();
        book.book_positions(&view, oracle)
    }

    /// Visit every open CDP without materialising a snapshot vector.
    pub fn for_each_book_position(
        &mut self,
        oracle: &PriceOracle,
        visit: &mut dyn FnMut(&Position),
    ) {
        let (book, view) = self.split_book();
        book.for_each_book_position(&view, oracle, visit);
    }

    /// CDPs eligible for liquidation via the critical-price index: a range
    /// scan over each collateral token's ordered threshold map instead of a
    /// full-book filter. Exact — the thresholds replicate the bite condition
    /// in the same fixed-point arithmetic — and re-values only the accounts
    /// it returns.
    pub fn cached_liquidatable_cdps(&mut self, oracle: &PriceOracle) -> Vec<Address> {
        let candidates = {
            let (book, view) = self.split_book();
            book.liquidatable_accounts(&view, oracle)
        };
        // Belt and braces: re-check candidates through the reference bite
        // condition so a threshold-map bug can only ever hide an account,
        // never invent one. The two agree everywhere except when
        // `collateral × price` overflows u128 fixed-point — a collateral
        // valuation beyond ~3.4·10²⁰ USD, five orders of magnitude past the
        // 10¹⁵-USD sanity ceiling the invariant observer already rejects as
        // saturated arithmetic — so within the suite's representable domain
        // the cached surface is exact.
        candidates
            .into_iter()
            .filter(|owner| self.is_liquidatable(oracle, *owner))
            .collect()
    }

    /// Visit the at-risk slice of the CDP book — health factor below
    /// `rescue` or above `releverage` — through the book's exact full walk
    /// (critical-price accounts keep no band).
    pub fn for_each_at_risk(
        &mut self,
        oracle: &PriceOracle,
        rescue: Wad,
        releverage: Wad,
        visit: &mut dyn FnMut(&Position),
    ) {
        let (book, view) = self.split_book();
        book.for_each_at_risk(&view, oracle, rescue, releverage, visit);
    }

    /// Running aggregate totals over the CDP book (volume sampling).
    pub fn book_totals(&mut self, oracle: &PriceOracle) -> BookTotals {
        let (book, view) = self.split_book();
        book.totals(&view, oracle)
    }

    /// The cached snapshot of one CDP (exact after any cached query).
    pub fn cached_position(&self, owner: Address) -> Option<&Position> {
        self.book.cached_position(owner)
    }

    /// Cache-maintenance counters (scale benchmarks, no-op-tick tests).
    pub fn book_stats(&self) -> BookStats {
        self.book.stats()
    }

    /// Total USD value of locked collateral (running total maintained by the
    /// incremental book).
    pub fn total_collateral_value(&mut self, oracle: &PriceOracle) -> Wad {
        let (book, view) = self.split_book();
        book.all_totals(&view, oracle).0
    }

    // ------------------------------------------------------------ auction ops

    /// `bite`: initiate the collateral auction of a liquidatable CDP. The
    /// CDP's collateral moves into the auction; its debt (plus penalty) is the
    /// amount to recover.
    pub fn bite(
        &mut self,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        block: BlockNumber,
        borrower: Address,
    ) -> Result<AuctionId, ProtocolError> {
        if !self.is_liquidatable(oracle, borrower) {
            return Err(ProtocolError::NotLiquidatable(borrower));
        }
        let cdp = self
            .cdps
            .get_mut(&borrower)
            .ok_or(ProtocolError::UnknownCdp(borrower))?;
        let ilk = self
            .ilks
            .get(&cdp.collateral_token)
            .copied()
            .unwrap_or_default();
        let debt_with_penalty = cdp
            .debt
            .checked_mul(Wad::ONE.saturating_add(ilk.liquidation_penalty))
            .map_err(|_| ProtocolError::Arithmetic)?;
        let id = self.next_auction_id;
        self.next_auction_id += 1;
        let auction = Auction {
            id,
            borrower,
            collateral_token: cdp.collateral_token,
            collateral: cdp.collateral,
            debt: debt_with_penalty,
            phase: AuctionPhase::Tend,
            best_bid: None,
            started_at: block,
            last_bid_at: block,
            tend_bids: 0,
            dent_bids: 0,
            finalized: false,
        };
        events.push(ChainEvent::AuctionStarted {
            auction_id: id,
            borrower,
            collateral_token: auction.collateral_token,
            collateral_amount: auction.collateral,
            debt: auction.debt,
        });
        // The CDP is emptied: collateral is now owned by the auction, the
        // debt is being recovered through it.
        cdp.collateral = Wad::ZERO;
        cdp.debt = Wad::ZERO;
        self.book.mark_dirty(borrower);
        self.auctions.insert(id, auction);
        Ok(id)
    }

    /// Place a bid. In the tend phase `debt_bid` is the DAI the bidder will
    /// repay for all the collateral; once `debt_bid` reaches the full debt
    /// the auction flips to the dent phase, where `collateral_bid` is the
    /// (decreasing) collateral accepted for repaying the full debt.
    ///
    /// The bidder escrows the DAI committed; the previously best bidder is
    /// refunded.
    #[allow(clippy::too_many_arguments)]
    pub fn bid(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        block: BlockNumber,
        auction_id: AuctionId,
        bidder: Address,
        debt_bid: Wad,
        collateral_bid: Wad,
    ) -> Result<AuctionPhase, ProtocolError> {
        let params = self.auction_params;
        let pool = self.pool_address;
        let auction = self
            .auctions
            .get_mut(&auction_id)
            .ok_or(ProtocolError::UnknownAuction(auction_id))?;
        if auction.finalized {
            return Err(ProtocolError::AuctionAlreadyFinalized);
        }
        if auction.has_terminated(block, &params) {
            return Err(ProtocolError::AuctionTerminated);
        }
        // lint:allow(fixed-float) auction increment is an f64 protocol parameter quantized at bid time; bid comparisons themselves stay in Wad
        let min_increment = Wad::from_f64(1.0 + params.min_bid_increment);

        match auction.phase {
            AuctionPhase::Tend => {
                let debt_bid = debt_bid.min(auction.debt);
                // Must beat the previous debt bid by the increment.
                if let Some(best) = auction.best_bid {
                    let floor = best
                        .debt_bid
                        .checked_mul(min_increment)
                        .map_err(|_| ProtocolError::Arithmetic)?
                        .min(auction.debt);
                    if debt_bid < floor {
                        return Err(ProtocolError::BidTooLow);
                    }
                } else if debt_bid.is_zero() {
                    return Err(ProtocolError::BidTooLow);
                }
                // Escrow the new bid, refund the previous bidder.
                ledger.transfer(bidder, pool, Token::DAI, debt_bid)?;
                if let Some(best) = auction.best_bid {
                    ledger.transfer(pool, best.bidder, Token::DAI, best.debt_bid)?;
                }
                auction.best_bid = Some(Bid {
                    bidder,
                    debt_bid,
                    collateral_bid: auction.collateral,
                    block,
                });
                auction.tend_bids += 1;
                auction.last_bid_at = block;
                if debt_bid >= auction.debt {
                    auction.phase = AuctionPhase::Dent;
                }
                events.push(ChainEvent::AuctionBid {
                    auction_id,
                    bidder,
                    phase: AuctionPhase::Tend,
                    debt_bid,
                    collateral_bid: auction.collateral,
                });
            }
            AuctionPhase::Dent => {
                let previous = auction.best_bid.ok_or(ProtocolError::BidTooLow)?;
                // Must accept at least `min_increment` less collateral.
                let ceiling = previous
                    .collateral_bid
                    .checked_div(min_increment)
                    .map_err(|_| ProtocolError::Arithmetic)?;
                if collateral_bid > ceiling || collateral_bid.is_zero() {
                    return Err(ProtocolError::BidTooLow);
                }
                // The new bidder escrows the full debt; the previous bidder is refunded.
                ledger.transfer(bidder, pool, Token::DAI, auction.debt)?;
                ledger.transfer(pool, previous.bidder, Token::DAI, previous.debt_bid)?;
                auction.best_bid = Some(Bid {
                    bidder,
                    debt_bid: auction.debt,
                    collateral_bid,
                    block,
                });
                auction.dent_bids += 1;
                auction.last_bid_at = block;
                events.push(ChainEvent::AuctionBid {
                    auction_id,
                    bidder,
                    phase: AuctionPhase::Dent,
                    debt_bid: auction.debt,
                    collateral_bid,
                });
            }
        }
        Ok(auction.phase)
    }

    /// Whether an auction can be finalised at `block`.
    pub fn can_finalize(&self, auction_id: AuctionId, block: BlockNumber) -> bool {
        self.auctions
            .get(&auction_id)
            .map(|a| !a.finalized && a.has_terminated(block, &self.auction_params))
            .unwrap_or(false)
    }

    /// `deal`: finalise a terminated auction. The winner receives the
    /// collateral they bid for; in the dent phase the remaining collateral is
    /// returned to the borrower. If no bid was placed, the collateral simply
    /// returns to the borrower (and the debt is written off against the
    /// system — MakerDAO's bad-debt path).
    pub fn deal(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        block: BlockNumber,
        auction_id: AuctionId,
    ) -> Result<AuctionOutcome, ProtocolError> {
        let params = self.auction_params;
        let pool = self.pool_address;
        let auction = self
            .auctions
            .get_mut(&auction_id)
            .ok_or(ProtocolError::UnknownAuction(auction_id))?;
        if auction.finalized {
            return Err(ProtocolError::AuctionAlreadyFinalized);
        }
        if !auction.has_terminated(block, &params) {
            return Err(ProtocolError::AuctionStillRunning);
        }
        auction.finalized = true;

        let collateral_price = oracle.price_or_zero(auction.collateral_token);
        let dai_price = oracle.price(Token::DAI).unwrap_or(Wad::ONE);

        let outcome = match auction.best_bid {
            None => {
                // No bids: return the collateral to the borrower.
                ledger.transfer(
                    pool,
                    auction.borrower,
                    auction.collateral_token,
                    auction.collateral,
                )?;
                AuctionOutcome {
                    id: auction_id,
                    winner: None,
                    debt_repaid: Wad::ZERO,
                    collateral_received: Wad::ZERO,
                    final_phase: auction.phase,
                    duration_blocks: block - auction.started_at,
                }
            }
            Some(best) => {
                let collateral_to_winner = match auction.phase {
                    AuctionPhase::Tend => auction.collateral,
                    AuctionPhase::Dent => best.collateral_bid.min(auction.collateral),
                };
                let leftover = auction.collateral.saturating_sub(collateral_to_winner);
                ledger.transfer(
                    pool,
                    best.bidder,
                    auction.collateral_token,
                    collateral_to_winner,
                )?;
                if !leftover.is_zero() {
                    ledger.transfer(pool, auction.borrower, auction.collateral_token, leftover)?;
                }
                // The escrowed DAI is burnt (the debt is retired).
                ledger.burn(pool, Token::DAI, best.debt_bid)?;

                events.push(ChainEvent::AuctionFinalized {
                    auction_id,
                    winner: best.bidder,
                    debt_repaid: best.debt_bid,
                    debt_repaid_usd: best
                        .debt_bid
                        .checked_mul(dai_price)
                        .unwrap_or(best.debt_bid),
                    collateral_token: auction.collateral_token,
                    collateral_received: collateral_to_winner,
                    collateral_received_usd: collateral_to_winner
                        .checked_mul(collateral_price)
                        .unwrap_or(Wad::ZERO),
                    borrower: auction.borrower,
                    started_at: auction.started_at,
                    last_bid_at: auction.last_bid_at,
                    tend_bids: auction.tend_bids,
                    dent_bids: auction.dent_bids,
                    final_phase: auction.phase,
                });
                AuctionOutcome {
                    id: auction_id,
                    winner: Some(best.bidder),
                    debt_repaid: best.debt_bid,
                    collateral_received: collateral_to_winner,
                    final_phase: auction.phase,
                    duration_blocks: block - auction.started_at,
                }
            }
        };
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_oracle::OracleConfig;

    fn setup() -> (MakerProtocol, Ledger, PriceOracle, Vec<ChainEvent>) {
        let mut maker = MakerProtocol::new(AuctionParams::maker_post_march_2020());
        maker.list_ilk(Token::ETH, IlkParams::default());
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_int(200));
        oracle.set_price(0, Token::DAI, Wad::ONE);
        (maker, Ledger::new(), oracle, Vec::new())
    }

    fn open_cdp(
        maker: &mut MakerProtocol,
        ledger: &mut Ledger,
        oracle: &PriceOracle,
        events: &mut Vec<ChainEvent>,
        owner: Address,
        eth: u64,
        dai: u64,
    ) {
        ledger.mint(owner, Token::ETH, Wad::from_int(eth));
        maker
            .lock_collateral(ledger, events, owner, Token::ETH, Wad::from_int(eth))
            .unwrap();
        maker
            .draw_dai(ledger, events, oracle, owner, Wad::from_int(dai))
            .unwrap();
    }

    #[test]
    fn cdp_respects_liquidation_ratio() {
        let (mut maker, mut ledger, oracle, mut events) = setup();
        let owner = Address::from_seed(1);
        ledger.mint(owner, Token::ETH, Wad::from_int(10));
        maker
            .lock_collateral(
                &mut ledger,
                &mut events,
                owner,
                Token::ETH,
                Wad::from_int(10),
            )
            .unwrap();
        // 10 ETH * 200 = 2,000 USD; at 150% ratio max debt ≈ 1,333 DAI.
        assert!(maker
            .draw_dai(
                &mut ledger,
                &mut events,
                &oracle,
                owner,
                Wad::from_int(1_400)
            )
            .is_err());
        assert!(maker
            .draw_dai(
                &mut ledger,
                &mut events,
                &oracle,
                owner,
                Wad::from_int(1_300)
            )
            .is_ok());
        assert_eq!(ledger.balance(owner, Token::DAI), Wad::from_int(1_300));
        assert!(!maker.is_liquidatable(&oracle, owner));
    }

    #[test]
    fn price_drop_makes_cdp_liquidatable_and_bite_starts_auction() {
        let (mut maker, mut ledger, mut oracle, mut events) = setup();
        let owner = Address::from_seed(1);
        open_cdp(
            &mut maker,
            &mut ledger,
            &oracle,
            &mut events,
            owner,
            10,
            1_300,
        );
        oracle.set_price(10, Token::ETH, Wad::from_int(150));
        assert!(maker.is_liquidatable(&oracle, owner));
        assert_eq!(maker.liquidatable_cdps(&oracle), vec![owner]);
        let id = maker.bite(&mut events, &oracle, 100, owner).unwrap();
        let auction = maker.auction(id).unwrap();
        assert_eq!(auction.collateral, Wad::from_int(10));
        // Debt to recover includes the 13% penalty (up to f64→Wad rounding).
        assert!(
            auction
                .debt
                .abs_diff(Wad::from_f64(1_300.0 * 1.13))
                .to_f64()
                < 1e-6
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, ChainEvent::AuctionStarted { .. })));
        // The CDP was emptied.
        assert_eq!(maker.cdp(owner).unwrap().collateral, Wad::ZERO);
    }

    #[test]
    fn healthy_cdp_cannot_be_bitten() {
        let (mut maker, mut ledger, oracle, mut events) = setup();
        let owner = Address::from_seed(1);
        open_cdp(
            &mut maker,
            &mut ledger,
            &oracle,
            &mut events,
            owner,
            10,
            1_000,
        );
        assert!(matches!(
            maker.bite(&mut events, &oracle, 100, owner),
            Err(ProtocolError::NotLiquidatable(_))
        ));
    }

    #[test]
    fn tend_then_dent_auction_flow() {
        let (mut maker, mut ledger, mut oracle, mut events) = setup();
        let owner = Address::from_seed(1);
        open_cdp(
            &mut maker,
            &mut ledger,
            &oracle,
            &mut events,
            owner,
            10,
            1_300,
        );
        oracle.set_price(10, Token::ETH, Wad::from_int(150));
        let id = maker.bite(&mut events, &oracle, 100, owner).unwrap();
        let debt = maker.auction(id).unwrap().debt;

        let alice = Address::from_seed(50);
        let bob = Address::from_seed(51);
        ledger.mint(alice, Token::DAI, Wad::from_int(3_000));
        ledger.mint(bob, Token::DAI, Wad::from_int(3_000));

        // Alice opens the tend phase with a partial bid.
        let phase = maker
            .bid(
                &mut ledger,
                &mut events,
                110,
                id,
                alice,
                Wad::from_int(800),
                Wad::ZERO,
            )
            .unwrap();
        assert_eq!(phase, AuctionPhase::Tend);
        // Bob must out-bid by the minimum increment.
        assert!(matches!(
            maker.bid(
                &mut ledger,
                &mut events,
                111,
                id,
                bob,
                Wad::from_int(801),
                Wad::ZERO
            ),
            Err(ProtocolError::BidTooLow)
        ));
        // Bob bids the full debt → auction flips to dent.
        let phase = maker
            .bid(&mut ledger, &mut events, 112, id, bob, debt, Wad::ZERO)
            .unwrap();
        assert_eq!(phase, AuctionPhase::Dent);
        // Alice was refunded her escrow.
        assert_eq!(ledger.balance(alice, Token::DAI), Wad::from_int(3_000));

        // Alice accepts less collateral for the full debt.
        let phase = maker
            .bid(
                &mut ledger,
                &mut events,
                113,
                id,
                alice,
                debt,
                Wad::from_int(9),
            )
            .unwrap();
        assert_eq!(phase, AuctionPhase::Dent);

        // Terminate via the bid-duration condition and finalise.
        let end_block = 113 + maker.auction_params().bid_duration_blocks;
        assert!(maker.can_finalize(id, end_block));
        let outcome = maker
            .deal(&mut ledger, &mut events, &oracle, end_block, id)
            .unwrap();
        assert_eq!(outcome.winner, Some(alice));
        assert_eq!(outcome.collateral_received, Wad::from_int(9));
        assert_eq!(outcome.final_phase, AuctionPhase::Dent);
        // Winner received 9 ETH; the leftover 1 ETH went back to the borrower.
        assert_eq!(ledger.balance(alice, Token::ETH), Wad::from_int(9));
        assert_eq!(ledger.balance(owner, Token::ETH), Wad::from_int(1));
        // The finalisation event carries the bid statistics.
        let finalized = events
            .iter()
            .find_map(|e| match e {
                ChainEvent::AuctionFinalized {
                    tend_bids,
                    dent_bids,
                    ..
                } => Some((*tend_bids, *dent_bids)),
                _ => None,
            })
            .unwrap();
        assert_eq!(finalized, (2, 1));
    }

    #[test]
    fn auction_with_single_low_tend_bid_wins_everything() {
        // The March 2020 pattern: one liquidator bids near zero, nobody else
        // shows up, and the full collateral is sold for almost nothing.
        let (mut maker, mut ledger, mut oracle, mut events) = setup();
        let owner = Address::from_seed(1);
        open_cdp(
            &mut maker,
            &mut ledger,
            &oracle,
            &mut events,
            owner,
            10,
            1_300,
        );
        oracle.set_price(10, Token::ETH, Wad::from_int(150));
        let id = maker.bite(&mut events, &oracle, 100, owner).unwrap();
        let sniper = Address::from_seed(66);
        ledger.mint(sniper, Token::DAI, Wad::from_int(10));
        maker
            .bid(
                &mut ledger,
                &mut events,
                101,
                id,
                sniper,
                Wad::from_int(1),
                Wad::ZERO,
            )
            .unwrap();
        let end = 101 + maker.auction_params().bid_duration_blocks;
        let outcome = maker
            .deal(&mut ledger, &mut events, &oracle, end, id)
            .unwrap();
        assert_eq!(outcome.winner, Some(sniper));
        assert_eq!(outcome.final_phase, AuctionPhase::Tend);
        // The sniper got all 10 ETH (1,500 USD) for 1 DAI.
        assert_eq!(ledger.balance(sniper, Token::ETH), Wad::from_int(10));
    }

    #[test]
    fn auction_without_bids_returns_collateral() {
        let (mut maker, mut ledger, mut oracle, mut events) = setup();
        let owner = Address::from_seed(1);
        open_cdp(
            &mut maker,
            &mut ledger,
            &oracle,
            &mut events,
            owner,
            10,
            1_300,
        );
        oracle.set_price(10, Token::ETH, Wad::from_int(150));
        let id = maker.bite(&mut events, &oracle, 100, owner).unwrap();
        let end = 100 + maker.auction_params().auction_length_blocks;
        assert!(maker.can_finalize(id, end));
        let outcome = maker
            .deal(&mut ledger, &mut events, &oracle, end, id)
            .unwrap();
        assert_eq!(outcome.winner, None);
        assert_eq!(ledger.balance(owner, Token::ETH), Wad::from_int(10));
    }

    #[test]
    fn deal_before_termination_is_rejected() {
        let (mut maker, mut ledger, mut oracle, mut events) = setup();
        let owner = Address::from_seed(1);
        open_cdp(
            &mut maker,
            &mut ledger,
            &oracle,
            &mut events,
            owner,
            10,
            1_300,
        );
        oracle.set_price(10, Token::ETH, Wad::from_int(150));
        let id = maker.bite(&mut events, &oracle, 100, owner).unwrap();
        assert!(matches!(
            maker.deal(&mut ledger, &mut events, &oracle, 101, id),
            Err(ProtocolError::AuctionStillRunning)
        ));
    }

    #[test]
    fn free_collateral_respects_ratio() {
        let (mut maker, mut ledger, oracle, mut events) = setup();
        let owner = Address::from_seed(1);
        open_cdp(
            &mut maker,
            &mut ledger,
            &oracle,
            &mut events,
            owner,
            10,
            1_000,
        );
        // Need 1,000 * 1.5 = 1,500 USD = 7.5 ETH locked; can free at most 2.5.
        assert!(maker
            .free_collateral(&mut ledger, &oracle, owner, Wad::from_int(3))
            .is_err());
        assert!(maker
            .free_collateral(&mut ledger, &oracle, owner, Wad::from_int(2))
            .is_ok());
        assert_eq!(ledger.balance(owner, Token::ETH), Wad::from_int(2));
    }

    #[test]
    fn position_snapshot_reflects_cdp() {
        let (mut maker, mut ledger, oracle, mut events) = setup();
        let owner = Address::from_seed(1);
        open_cdp(
            &mut maker,
            &mut ledger,
            &oracle,
            &mut events,
            owner,
            10,
            1_200,
        );
        let position = maker.position(&oracle, owner).unwrap();
        assert_eq!(position.total_collateral_value(), Wad::from_int(2_000));
        assert_eq!(position.total_debt_value(), Wad::from_int(1_200));
        // HF = 2000 * (1/1.5) / 1200 = 1.111 > 1.
        assert!(!position.is_liquidatable());
        assert_eq!(maker.positions(&oracle).len(), 1);
        assert_eq!(maker.total_collateral_value(&oracle), Wad::from_int(2_000));
    }

    /// The critical-price index answers discovery without touching CDPs a
    /// price move did not flip, and always agrees with the from-scratch
    /// bite-condition scan.
    #[test]
    fn critical_price_index_matches_scratch_scan() {
        let (mut maker, mut ledger, mut oracle, mut events) = setup();
        // Ten CDPs at collateralizations from ~154 % to ~190 %.
        for i in 0..10u64 {
            let owner = Address::from_seed(100 + i);
            let dai = 1_300 - i * 25;
            open_cdp(
                &mut maker,
                &mut ledger,
                &oracle,
                &mut events,
                owner,
                10,
                dai,
            );
        }
        assert!(maker.cached_liquidatable_cdps(&oracle).is_empty());
        let baseline = maker.book_stats().revaluations;
        assert_eq!(maker.book_stats().indexed_accounts, 10);

        // A move that crosses nobody re-values nobody.
        oracle.set_price(5, Token::ETH, Wad::from_int(199));
        assert!(maker.cached_liquidatable_cdps(&oracle).is_empty());
        assert_eq!(maker.book_stats().revaluations, baseline);

        // A deep move flags exactly what the scratch scan flags and
        // re-values exactly the flipped CDPs.
        oracle.set_price(6, Token::ETH, Wad::from_int(180));
        let cached = maker.cached_liquidatable_cdps(&oracle);
        let scratch = maker.liquidatable_cdps(&oracle);
        assert_eq!(cached, scratch);
        assert!(!cached.is_empty() && cached.len() < 10);
        assert_eq!(
            maker.book_stats().revaluations,
            baseline + cached.len() as u64
        );

        // The cached book still matches the from-scratch rebuild exactly.
        let cached_book = maker.cached_book(&oracle);
        assert_eq!(cached_book, maker.positions(&oracle));
        // Totals parity with the legacy fold.
        let fold = maker
            .positions(&oracle)
            .iter()
            .map(|p| p.total_collateral_value())
            .fold(Wad::ZERO, |acc, v| acc.saturating_add(v));
        assert_eq!(maker.book_totals(&oracle).collateral_usd, fold);
        assert_eq!(maker.total_collateral_value(&oracle), fold);

        // Biting a flagged CDP drops it from the index; the rest stay.
        let bitten = cached[0];
        maker.bite(&mut events, &oracle, 10, bitten).unwrap();
        let after_bite = maker.cached_liquidatable_cdps(&oracle);
        assert!(!after_bite.contains(&bitten));
        assert_eq!(after_bite.len(), cached.len() - 1);
        assert_eq!(maker.book_stats().indexed_accounts, 9);
    }

    #[test]
    fn repay_dai_reduces_debt() {
        let (mut maker, mut ledger, oracle, mut events) = setup();
        let owner = Address::from_seed(1);
        open_cdp(
            &mut maker,
            &mut ledger,
            &oracle,
            &mut events,
            owner,
            10,
            1_000,
        );
        let repaid = maker
            .repay_dai(&mut ledger, &mut events, owner, Wad::from_int(400))
            .unwrap();
        assert_eq!(repaid, Wad::from_int(400));
        assert_eq!(maker.cdp(owner).unwrap().debt, Wad::from_int(600));
        // Repaying more than owed is a typed error, not a silent clamp.
        let err = maker
            .repay_dai(&mut ledger, &mut events, owner, Wad::from_int(10_000))
            .unwrap_err();
        assert!(matches!(err, ProtocolError::RepayExceedsOutstanding { .. }));
        // Repaying exactly the outstanding debt closes it.
        let repaid = maker
            .repay_dai(&mut ledger, &mut events, owner, Wad::from_int(600))
            .unwrap();
        assert_eq!(repaid, Wad::from_int(600));
        assert_eq!(maker.cdp(owner).unwrap().debt, Wad::ZERO);
    }
}
