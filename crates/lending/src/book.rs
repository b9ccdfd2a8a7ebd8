//! Incremental, dirty-tracked, sharded position books.
//!
//! The paper's measurement loop — like any real liquidation bot — has to know
//! every platform's liquidatable positions *every block* (§4.4: monitoring
//! must complete within one block to win the race). Rebuilding each
//! protocol's full `Vec<Position>` from scratch several times per tick is the
//! dominant cost at scale, so [`PositionBook`] caches one valuation snapshot
//! per account and only re-values what can actually have changed:
//!
//! * **account mutations** — deposits, borrows, repayments, liquidations and
//!   write-offs mark the touched account dirty
//!   ([`PositionBook::mark_dirty`]);
//! * **interest accrual** — a market whose borrow index advanced invalidates
//!   exactly the accounts owing that token
//!   ([`PositionBook::note_index_change`]);
//! * **oracle moves** — the [`PriceOracle`] write epoch identifies the tokens
//!   whose on-chain price changed since the book last synced, and only the
//!   accounts whose certified state the write actually breaks re-value.
//!
//! On top of the cache sits a **critical-price liquidation index**: for every
//! account whose health factor depends on exactly one oracle price (Maker
//! CDPs — DAI debt is valued at the vat's 1-USD par, so only the collateral
//! price matters), the owning protocol reports the exact threshold price at
//! which HF crosses 1, and the book keeps those accounts in a per-token
//! `BTreeMap<raw price, accounts>`. Discovery then becomes a range scan over
//! each token's ordered map (`crit > current price` ⇔ liquidatable) instead
//! of a full-book filter.
//!
//! Multivariate accounts (every fixed-spread borrower: collateral *and* debt
//! prices float, and the borrow index accrues per block) carry a
//! **conservative health-factor band index**. Every account is classified
//! into one of four HF bands — below 1 (liquidatable), `[1, rescue)`
//! (rescue-repay candidates), `[rescue, releverage]` (quiet), above
//! `releverage` (re-leverage candidates) — and the owning protocol derives a
//! certified envelope ([`BookSource::hf_envelope`]): per-token raw price
//! bounds plus per-market borrow-index ceilings within which the health
//! factor *provably* stays in its current band. The bounds are additionally
//! kept in a per-token **interval index** (ordered sets of `(lo, account)`
//! and `(hi, account)` pairs), so "which envelopes does this oracle write
//! break?" is answered by two range scans, and the index caps in a
//! per-market **cap index** (ordered `(cap, account)` pairs), so "which
//! caps does this accrual break?" is one: an index write to `I` re-values
//! exactly the debtors with `cap < I` plus the debtors that carry no cap.
//! Accounts whose envelope survives a price move or an accrual are never
//! even visited, and a flush costs proportional to the accounts it actually
//! re-values. Survivors' cached valuations freshen lazily. Staleness is
//! epoch-based on both axes: each valuation records the oracle write epoch
//! and the book's borrow-index epoch it was computed at, and it is stale
//! once a token it holds is written, or a market it owes accrues, after
//! that. Discovery re-values exactly the members it returns, and full
//! refreshes walk the holders of moved tokens and the debtors of moved
//! markets, comparing each valuation's epochs against theirs. The lazy
//! freshening path is picked by what certifies the verdict, one path each:
//!
//! * an **envelope-held** account whose certified envelope still covers the
//!   current prices and indexes takes a cheap **light refresh**: rebuild the
//!   position with `fill_position` and fold the valuation delta, instead of
//!   re-deriving the envelope — the band verdict and index memberships
//!   provably cannot have changed;
//! * a **critical-price** account whose only pending change is an oracle
//!   move (no borrow index it owes advanced) takes the **term path**: the
//!   cached [`Position`] is a term cache — per token it holds the raw amount
//!   and the USD value term the last `fill_position` computed — so the owning
//!   protocol re-prices exactly the moved tokens' terms in place
//!   ([`BookSource::reprice_position`]), O(moved tokens) instead of O(account
//!   holdings), with arithmetic byte-identical by construction.
//!
//! Anything else — a dirty mark, an index move under a critical price, a
//! broken envelope — takes the full re-valuation. Envelope re-derivation
//! carries **re-anchor hysteresis**: when a bound breaks, the derivation
//! learns the break
//! direction ([`EnvelopeAnchor`]) and biases a widened — still proven —
//! slack toward where the price came from, so an oscillating price stops
//! re-deriving every tick. The
//! envelope conditions are *state*-based (current price within `[lo, hi]`,
//! current index below its cap), so certification composes across any
//! interleaving of moves; the bounds are integer-rounded inward (never
//! outward), a guard band absorbs fixed-point rounding in the HF evaluation
//! itself, and accounts too close to a band edge get no envelope and ride the
//! exact path. Exactness is enforced by a differential harness
//! (`tests/band_differential.rs`): a shadow cache-less scan must agree with
//! banded discovery every tick across every catalog scenario.
//!
//! # Sharding
//!
//! The book is split into [`BOOK_SHARD_COUNT`] fixed **address-range shards**
//! (`shard_of`: the top four bits of the address's first byte). Every
//! per-account structure — entries, dirty set, critical-price index, interval
//! index, band membership, running totals — lives in the owning shard, and
//! every flush and query walks the shards serially. The shards stay for
//! serial cache locality: each flush touches sixteen small ordered maps
//! rather than one large one. Merge order is fixed by construction: the
//! partition is a function of the address alone, each shard's work is
//! internally ordered, and queries concatenate shards in ascending
//! address-range order, so `book_positions`, `book_totals` and
//! `liquidatable_accounts` come out in global address order without sorting.
//!
//! The book is *exact by construction*: a cached entry is byte-identical to a
//! from-scratch [`Position`] rebuild because the owning protocol's
//! [`BookSource::fill_position`] is the same code path the legacy
//! `positions()` API uses, and it only runs when an input changed. A property
//! test (`tests/property_tests.rs`) asserts cache ≡ rebuild after arbitrary
//! operation interleavings.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;

use defi_core::position::Position;
use defi_oracle::PriceOracle;
use defi_types::{Address, Token, Wad};

/// Health factor below which the engine's borrower-management pass considers
/// a position a rescue-repay candidate, and the default lower edge of the
/// quiet band the band index certifies accounts into.
pub const RESCUE_BAND_HF: f64 = 1.05;

/// Health factor above which the engine's borrower-management pass considers
/// a position a re-leverage candidate, and the default upper edge of the
/// quiet band.
pub const RELEVERAGE_BAND_HF: f64 = 2.2;

/// The greatest address: `(bound, LAST_ADDRESS)` sorts after every
/// `(bound, account)` pair of an interval or cap index.
const LAST_ADDRESS: Address = Address([u8::MAX; 20]);

/// Number of fixed address-range shards a book is split into. Flushes and
/// queries walk them serially; the split buys cache locality (sixteen small
/// ordered maps per flush instead of one large one).
pub const BOOK_SHARD_COUNT: usize = 16;

/// The shard owning an address: its top four bits, a pure function of the
/// address. [`Address`] orders lexicographically, so shard `i` owns a
/// contiguous address range and concatenating shards in index order
/// preserves global address order.
#[inline]
fn shard_of(address: &Address) -> usize {
    (address.0[0] >> 4) as usize
}

/// A certified envelope within which an account's health factor provably
/// stays in its current band (see the module docs).
///
/// The conditions are conjunctive and *state*-based: the account's band
/// verdict is certified as long as every sensitive token's current raw oracle
/// price sits inside its (inclusive) `[lo, hi]` bound **and** every debt
/// market's current raw borrow index is at or below its cap. A derivation
/// must emit a price bound for *every* price-sensitive token and an index cap
/// for *every* index-accruing debt token — the book refuses an envelope that
/// misses one, and the account rides the exact path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HfEnvelope {
    /// `(token, lo, hi)`: inclusive raw oracle-price bounds per sensitive
    /// token.
    pub price_bounds: Vec<(Token, u128, u128)>,
    /// `(token, cap)`: inclusive raw borrow-index ceiling per debt market
    /// (`u128::MAX` when the band has no floor — accrual only pushes the
    /// health factor down, which cannot cross an open lower edge).
    pub index_caps: Vec<(Token, u128)>,
}

impl HfEnvelope {
    /// Empty both condition lists, keeping the allocations.
    pub fn clear(&mut self) {
        self.price_bounds.clear();
        self.index_caps.clear();
    }

    /// The cap certified for debt market `token`, if any — which regime of
    /// the cap index a debtor holding this envelope sits in.
    fn index_cap(&self, token: Token) -> Option<u128> {
        self.index_caps
            .iter()
            .find(|(capped, _)| *capped == token)
            .map(|&(_, cap)| cap)
    }
}

/// How the previous certified envelope of an account failed before a
/// re-derivation — the re-anchor hysteresis hint passed to
/// [`BookSource::hf_envelope`].
///
/// A price oscillating across a bound would otherwise break the fresh
/// envelope again on the very next tick: knowing *which side* broke lets the
/// derivation bias its slack budget toward the direction the price came from
/// (still inside the same interval-arithmetic proof), so the re-anchored
/// envelope covers the oscillation. Purely a wall-clock hint: a wider (still
/// sound) envelope changes how often accounts re-value, never any result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EnvelopeAnchor {
    /// No previous envelope, or it covered the current prices (mutation- or
    /// index-triggered re-valuation): anchor symmetrically.
    #[default]
    Fresh,
    /// A price rose above its upper bound: the oscillation is expected to
    /// return downward, so favour slack below the new anchor.
    BrokeUp,
    /// A price fell below its lower bound: favour slack above.
    BrokeDown,
    /// Bounds broke in both directions (multi-token moves): anchor
    /// symmetrically but with the widened slack.
    BrokeBoth,
}

/// The health-factor band an account was classified into at its last
/// re-valuation, delimited by 1 and the book's configured
/// (`rescue`, `releverage`) thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HfBand {
    /// HF < 1.
    Liquidatable,
    /// 1 ≤ HF < rescue.
    Rescue,
    /// rescue ≤ HF ≤ releverage, or no debt (no health factor at all).
    Quiet,
    /// HF > releverage.
    Releverage,
}

impl HfBand {
    fn classify(hf: Wad, rescue: Wad, releverage: Wad) -> HfBand {
        if hf < Wad::ONE {
            HfBand::Liquidatable
        } else if hf < rescue {
            HfBand::Rescue
        } else if hf > releverage {
            HfBand::Releverage
        } else {
            HfBand::Quiet
        }
    }

    /// Whether the borrower-management pass must see accounts in this band.
    fn at_risk(self) -> bool {
        !matches!(self, HfBand::Quiet)
    }
}

/// Aggregate totals over the observable book — what the engine's
/// volume-sampling pass (Figures 4/9 denominators) needs, maintained as
/// running sums so sampling never materialises the position vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BookTotals {
    /// Σ collateral USD value over book positions.
    pub collateral_usd: Wad,
    /// Σ ETH/WETH collateral USD value of positions owing DAI (the DAI/ETH
    /// market the §5.1 comparison is restricted to).
    pub dai_eth_collateral_usd: Wad,
    /// Number of positions in the observable book.
    pub open_positions: u32,
}

/// Cache-maintenance counters, exposed for the scale benchmarks and the
/// no-op-tick regression tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BookStats {
    /// Accounts currently cached.
    pub cached_accounts: usize,
    /// Total account re-valuations performed since the book was created.
    pub revaluations: u64,
    /// Accounts currently tracked by the critical-price index.
    pub indexed_accounts: usize,
    /// Accounts currently flagged liquidatable outside the index.
    pub live_accounts: usize,
    /// Accounts currently carrying a certified health-factor band envelope.
    pub banded_accounts: usize,
    /// Accounts currently in an at-risk band (below `rescue` or above
    /// `releverage`) — what the borrower-management pass iterates.
    pub at_risk_accounts: usize,
    /// Re-valuations avoided because a band envelope held, since the book was
    /// created.
    pub envelope_skips: u64,
    /// Accounts the invalidation pass of a flush examined one by one, since
    /// the book was created: dirty accounts plus every account a price or
    /// index move's range scans could not clear. Survivors of the interval
    /// and cap indexes are counted in `envelope_skips` by subtraction and
    /// never examined.
    pub envelope_checks: u64,
    /// Times the always-on stale invariant (after every rewind and full
    /// drain, no valuation may lag a price or index epoch) was found
    /// violated — and repaired. Must stay 0; the band-differential harness
    /// asserts it.
    pub stale_violations: u64,
    /// Freshenings of critical-price accounts served by the O(moved-token)
    /// term path ([`BookSource::reprice_position`]): only the moved tokens'
    /// USD value terms were recomputed, the rest of the valuation was
    /// reused. Always 0 for a book without critical prices. Counted inside
    /// `revaluations` as well.
    pub term_reprices: u64,
    /// Freshenings of envelope-held accounts served by the light path's
    /// `fill_position` rebuild under an envelope that still holds. Counted
    /// inside `revaluations` as well.
    pub light_refreshes: u64,
    /// Envelope derivations requested from the source
    /// ([`BookSource::hf_envelope`] calls), since the book was created.
    pub envelope_derives: u64,
    /// Wall-clock nanoseconds spent inside [`BookSource::hf_envelope`].
    pub envelope_derive_nanos: u64,
    /// Flushes that found work to do, since the book was created.
    pub flush_count: u64,
    /// Wall-clock nanoseconds spent in flushes that found work.
    pub flush_nanos: u64,
    /// Always 0: the book has no separate freshen phase any more (the visit
    /// pass fuses freshening). Kept only because the `perfbench/` harness
    /// still sums it; remove it with the next benchmark change.
    pub freshen_nanos: u64,
    /// Wall-clock nanoseconds spent in the at-risk visit pass, which fuses
    /// freshening each visited valuation with the visit.
    pub visit_nanos: u64,
    /// Times a reusable scratch buffer had to grow its capacity. Stops
    /// increasing once the tick hot loop is warm — the bench bodies assert
    /// it stays flat across warm ticks (the allocation audit).
    pub scratch_grows: u64,
}

/// What a [`PositionBook`] needs from its owning protocol to re-value one
/// account. Implemented on a cheap borrow-view of the protocol's state so the
/// book (a sibling field) can be mutated while the view is read.
///
/// # Determinism
///
/// Every method must be a deterministic function of the view's state, the
/// oracle and the account: no account-order-dependent side effects, and the
/// same inputs must produce the same outputs within one flush (see
/// CONTRACTS.md, "The book-index contract").
pub trait BookSource {
    /// Rebuild `slot` in place as the account's fresh valuation snapshot,
    /// reusing the slot's allocations. Returns `false` when the account has
    /// no observable state any more (it is then dropped from the book) —
    /// exactly the accounts the protocol's from-scratch `positions()` skips.
    fn fill_position(&self, oracle: &PriceOracle, account: Address, slot: &mut Position) -> bool;

    /// Whether the fresh position belongs to the *observable book*
    /// (`book_positions`): fixed-spread pools only report accounts that
    /// actually borrow, Maker reports every open CDP.
    fn in_book(&self, position: &Position) -> bool;

    /// Append every token whose oracle price the valuation depends on.
    /// Par-valued debt (Maker's DAI) is *not* price-sensitive.
    fn sensitive_tokens(&self, position: &Position, out: &mut Vec<Token>);

    /// Append every token in which the account owes index-accruing debt.
    fn debt_tokens(&self, position: &Position, out: &mut Vec<Token>);

    /// The exact critical price of a single-price account: `Some((token,
    /// crit_raw))` means the account is below the liquidation threshold *iff*
    /// the raw oracle price of `token` is strictly less than `crit_raw`, and
    /// that no other oracle price affects its health factor. Return `None`
    /// for multivariate positions; they are tracked by the band index
    /// instead.
    fn critical_price(&self, account: Address, position: &Position) -> Option<(Token, u128)>;

    /// Current raw borrow index ([`defi_types::Ray`] representation) of the
    /// market in `token`, if the protocol accrues one. The band index
    /// compares it against each debtor's certified cap when the market's
    /// index moves; the default `None` makes every index notification
    /// conservatively re-value all of the market's debtors (the pre-band
    /// behaviour).
    fn borrow_index(&self, _token: Token) -> Option<u128> {
        None
    }

    /// Derive a certified health-factor band envelope for a multivariate
    /// account: fill `out` with conditions under which the position's health
    /// factor provably stays strictly inside `(floor, ceiling)` scaled by the
    /// derivation's guard band (an open edge is `None`). The derivation must
    /// bound **every** price the valuation is sensitive to and cap **every**
    /// index-accruing debt market (the book refuses an envelope that misses
    /// one), and must round its integer bounds inward so certification errs
    /// towards re-valuing. `anchor` reports how the
    /// account's previous envelope broke (re-anchor hysteresis; see
    /// [`EnvelopeAnchor`]) — implementations may use it to bias a *sound*
    /// slack budget, or ignore it. Return `false` (the default) to ride the
    /// exact path — a new [`crate::LendingProtocol`] implementation opts
    /// into banding by overriding this.
    fn hf_envelope(
        &self,
        _oracle: &PriceOracle,
        _position: &Position,
        _floor: Option<Wad>,
        _ceiling: Option<Wad>,
        _anchor: EnvelopeAnchor,
        _out: &mut HfEnvelope,
    ) -> bool {
        false
    }

    /// Recompute **in place** exactly the USD value terms of `position` that
    /// depend on the oracle prices of `moved` tokens, using arithmetic
    /// byte-identical to what [`fill_position`](Self::fill_position) would
    /// produce at the current oracle state — the O(moved-token) term path.
    ///
    /// The book calls this only for accounts that
    /// [`critical_price`](Self::critical_price) covers, and only when it can
    /// prove every *other* input is unchanged since the position was last
    /// filled: the account was not mutated (not dirty), no borrow index it
    /// owes moved (its index epoch is current), and only oracle prices
    /// advanced — so token amounts, thresholds, spreads and the holding sets
    /// themselves are still exact, and repricing the moved tokens'
    /// `value_usd` terms reproduces `fill_position` bit for bit (see
    /// CONTRACTS.md, "The term-cache contract"). Envelope-held accounts
    /// always freshen through `fill_position`.
    ///
    /// Return `false` (the default) to decline; the caller then takes the
    /// full re-valuation. An implementation that returns `false` must leave
    /// `position` unmodified.
    fn reprice_position(
        &self,
        _oracle: &PriceOracle,
        _position: &mut Position,
        _moved: &[Token],
    ) -> bool {
        false
    }
}

/// One cached account. Fresh entries start zeroed so the diff-based
/// bookkeeping needs no special first-time case.
#[derive(Debug, Clone)]
struct Entry {
    position: Position,
    in_book: bool,
    collateral_usd: Wad,
    debt_usd: Wad,
    dai_eth_usd: Wad,
    critical: Option<(Token, u128)>,
    /// Health-factor band at the last re-valuation.
    band: HfBand,
    /// Certified envelope within which `band` provably holds (`None`: the
    /// account rides the exact path and re-values on every relevant change).
    envelope: Option<HfEnvelope>,
    /// Oracle write epoch the valuation was computed at.
    valued_epoch: u64,
    /// Book index epoch ([`BookClock::index_epoch`]) the valuation was
    /// computed at. A debt market whose index moved later, under a cap that
    /// held, leaves the band verdict certified and the cached valuation
    /// stale until a full refresh or a query that hands this account out
    /// re-values it.
    index_epoch: u64,
    /// Price-sensitive exposure at the last re-valuation.
    tokens: Vec<Token>,
    /// Index-accruing debt exposure at the last re-valuation.
    debt_tokens: Vec<Token>,
}

impl Entry {
    fn new(account: Address) -> Self {
        Entry {
            position: Position::new(account),
            in_book: false,
            collateral_usd: Wad::ZERO,
            debt_usd: Wad::ZERO,
            dai_eth_usd: Wad::ZERO,
            critical: None,
            band: HfBand::Quiet,
            envelope: None,
            valued_epoch: 0,
            index_epoch: 0,
            tokens: Vec::new(),
            debt_tokens: Vec::new(),
        }
    }

    /// Whether a borrow index this valuation owes moved after it was
    /// computed.
    fn index_stale(&self, clock: &BookClock) -> bool {
        self.debt_tokens
            .iter()
            .any(|&token| clock.market_epoch(token) > self.index_epoch)
    }

    /// Whether any price or borrow index this valuation depends on moved
    /// after it was computed.
    fn is_stale(&self, oracle: &PriceOracle, clock: &BookClock) -> bool {
        self.index_stale(clock)
            || self
                .tokens
                .iter()
                .any(|&token| oracle.token_epoch(token) > self.valued_epoch)
    }
}

/// Book-wide valuation inputs the shards read but never write: the band
/// thresholds and the borrow-index clock. Index staleness is derived from
/// the clock the way price staleness is derived from the oracle's write
/// epochs.
#[derive(Debug, Clone)]
struct BookClock {
    /// The (rescue, releverage) HF thresholds the bands are classified by.
    bands: (Wad, Wad),
    /// Bumped once by every flush that consumes borrow-index moves.
    index_epoch: u64,
    /// `(market, index epoch of its last borrow-index move)`.
    market_epochs: Vec<(Token, u64)>,
}

impl BookClock {
    fn market_epoch(&self, token: Token) -> u64 {
        self.market_epochs
            .iter()
            .find(|(market, _)| *market == token)
            .map_or(0, |&(_, epoch)| epoch)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    book_collateral_usd: Wad,
    book_dai_eth_usd: Wad,
    book_count: u32,
    all_collateral_usd: Wad,
    all_debt_usd: Wad,
}

/// Per-flush global context, computed once and read by every shard's flush.
struct FlushCtx<'a> {
    /// `(token, current raw price)` for every token whose price changed since
    /// the last flush.
    changed_prices: &'a [(Token, u128)],
    /// `(token, current raw borrow index)` for every market whose index
    /// advanced since the last flush.
    index_moves: &'a [(Token, Option<u128>)],
    /// `(token, write epoch)` for every token whose price changed since the
    /// last *full* refresh — drives the lazy-valuation freshening pass.
    full_changed: &'a [(Token, u64)],
    /// `(market, index epoch)` for every market whose borrow index moved
    /// since the last *full* refresh — the index half of the same pass.
    full_index_changed: &'a [(Token, u64)],
    /// Band thresholds and the index clock.
    clock: &'a BookClock,
    /// Bring every cached valuation exact (drain lazy staleness).
    full: bool,
    /// The oracle epoch ran backwards: nothing can be trusted.
    rewind: bool,
}

/// One address-range shard: every per-account structure of the book, owned
/// whole so shard flushes share nothing.
#[derive(Debug, Clone, Default)]
struct BookShard {
    entries: BTreeMap<Address, Entry>,
    /// Accounts that must re-value before *any* query (mutated since the
    /// last flush).
    dirty: BTreeSet<Address>,
    /// token → multivariate accounts with *no* certified envelope: they
    /// re-value eagerly on every price move of the token (the exact path).
    multi_unbanded: HashMap<Token, BTreeSet<Address>>,
    /// token → critical-price-indexed accounts exposed to it (walked only by
    /// full refreshes to freshen lazily staled valuations).
    indexed_holders: HashMap<Token, BTreeSet<Address>>,
    /// token → accounts owing index-accruing debt in it. Each debtor sits in
    /// exactly one regime per debt token: `index_caps` or `index_uncovered`.
    debtors: HashMap<Token, BTreeSet<Address>>,
    /// Cap index: token → `(certified borrow-index cap, debtor)` in cap
    /// order. An index write `I` breaks exactly the caps with `cap < I`.
    index_caps: HashMap<Token, BTreeSet<(u128, Address)>>,
    /// token → debtors whose valuation carries *no* cap for it (no envelope:
    /// an accepted envelope caps every debt market) — re-valued on every
    /// move of the market's index.
    index_uncovered: HashMap<Token, BTreeSet<Address>>,
    /// token → (critical raw price → accounts); liquidatable ⇔ price < crit.
    critical: HashMap<Token, BTreeMap<u128, BTreeSet<Address>>>,
    /// Interval index, lower edges: token → `(envelope lo bound, banded
    /// holder)` in bound order, one pair per bounded holder. A price write
    /// `p` breaks exactly the bounds with `lo > p`.
    env_lo: HashMap<Token, BTreeSet<(u128, Address)>>,
    /// Interval index, upper edges: token → `(envelope hi bound, banded
    /// holder)`. A price write `p` breaks exactly the bounds with `hi < p`.
    env_hi: HashMap<Token, BTreeSet<(u128, Address)>>,
    /// Liquidatable accounts among the non-indexed population.
    live: BTreeSet<Address>,
    /// Non-indexed observable-book accounts in an at-risk band (below
    /// `rescue` or above `releverage`) — the banded borrower-management
    /// iteration set.
    at_risk: BTreeSet<Address>,
    /// Always-on invariant failures (see [`BookStats::stale_violations`]).
    stale_violations: u64,
    totals: Totals,
    revaluations: u64,
    /// Re-valuations avoided because an envelope held.
    envelope_skips: u64,
    /// Accounts the invalidation pass examined one by one.
    envelope_checks: u64,
    /// Freshenings served by the O(moved-token) term path.
    term_reprices: u64,
    /// Freshenings served by the light path's full position rebuild.
    light_refreshes: u64,
    /// Envelope derivations requested from the source.
    envelope_derives: u64,
    /// Nanoseconds spent inside [`BookSource::hf_envelope`].
    envelope_derive_nanos: u64,
    /// Times a scratch buffer grew its capacity (allocation audit).
    scratch_grows: u64,
    scratch_tokens: Vec<Token>,
    scratch_debt_tokens: Vec<Token>,
    scratch_addresses: Vec<Address>,
    scratch_moved: Vec<Token>,
    scratch_envelope: HfEnvelope,
}

impl BookShard {
    // ------------------------------------------------------------------ flush

    /// Fold this shard's share of the pending invalidations into
    /// re-valuations. Touches nothing outside the shard.
    fn flush<S: BookSource>(&mut self, source: &S, oracle: &PriceOracle, ctx: &FlushCtx<'_>) {
        if ctx.rewind {
            // The book is being driven by a different (or rewound) oracle
            // instance: nothing can be trusted, re-value everything.
            let mut batch = std::mem::take(&mut self.scratch_addresses);
            let batch_cap = batch.capacity();
            batch.clear();
            batch.extend(self.entries.keys().copied());
            batch.extend(self.dirty.iter().copied());
            self.dirty.clear();
            batch.sort_unstable();
            batch.dedup();
            self.envelope_checks += batch.len() as u64;
            for &address in &batch {
                self.revalue(source, oracle, address, ctx.clock);
            }
            self.check_stale_invariant(source, oracle, ctx.clock, &batch);
            self.scratch_grows += (batch.capacity() > batch_cap) as u64;
            self.scratch_addresses = batch;
            return;
        }

        if !self.dirty.is_empty() || !ctx.changed_prices.is_empty() || !ctx.index_moves.is_empty() {
            let mut batch = std::mem::take(&mut self.scratch_addresses);
            let batch_cap = batch.capacity();
            batch.clear();
            // Price moves: the interval index turns "whose envelope does
            // this write break?" into two range scans — survivors are never
            // visited at all, their skip is accounted by subtraction.
            for &(token, raw) in ctx.changed_prices {
                let mut broken_bounded = 0usize;
                let lo_bounds = self.env_lo.get(&token);
                if let Some(bounds) = lo_bounds {
                    for &(_, address) in
                        bounds.range((Bound::Excluded((raw, LAST_ADDRESS)), Bound::Unbounded))
                    {
                        broken_bounded += 1;
                        batch.push(address);
                    }
                }
                if let Some(bounds) = self.env_hi.get(&token) {
                    for &(_, address) in
                        bounds.range((Bound::Unbounded, Bound::Excluded((raw, Address::ZERO))))
                    {
                        broken_bounded += 1;
                        batch.push(address);
                    }
                }
                let bounded = lo_bounds.map_or(0, BTreeSet::len);
                self.envelope_skips += bounded.saturating_sub(broken_bounded) as u64;
                if let Some(holders) = self.multi_unbanded.get(&token) {
                    batch.extend(holders.iter().copied());
                }
            }
            // Index moves, the same way: the cap index turns "whose cap does
            // this accrual break?" into one range scan plus the debtors that
            // carry no cap. Every debtor sits in exactly one of the two
            // regimes, so the survivors are the capped debtors the scan did
            // not return.
            for &(token, current) in ctx.index_moves {
                let Some(index) = current else {
                    // No index to compare caps against: every debtor
                    // re-values.
                    if let Some(holders) = self.debtors.get(&token) {
                        batch.extend(holders.iter().copied());
                    }
                    continue;
                };
                let mut broken_capped = 0usize;
                if let Some(caps) = self.index_caps.get(&token) {
                    for &(_, address) in
                        caps.range((Bound::Unbounded, Bound::Excluded((index, Address::ZERO))))
                    {
                        broken_capped += 1;
                        batch.push(address);
                    }
                }
                let uncovered = self.index_uncovered.get(&token);
                let debtors = self.debtors.get(&token).map_or(0, BTreeSet::len);
                let capped = debtors.saturating_sub(uncovered.map_or(0, BTreeSet::len));
                self.envelope_skips += capped.saturating_sub(broken_capped) as u64;
                if let Some(holders) = uncovered {
                    batch.extend(holders.iter().copied());
                }
            }
            batch.extend(self.dirty.iter().copied());
            self.dirty.clear();
            batch.sort_unstable();
            batch.dedup();
            self.envelope_checks += batch.len() as u64;
            for &address in &batch {
                self.revalue(source, oracle, address, ctx.clock);
            }
            self.scratch_grows += (batch.capacity() > batch_cap) as u64;
            self.scratch_addresses = batch;
        }

        if ctx.full && (!ctx.full_changed.is_empty() || !ctx.full_index_changed.is_empty()) {
            // Freshen the valuations the indexes left untouched: debtors of
            // moved markets whose index epoch lags the market's, and holders
            // of moved tokens whose valuation epoch lags the token's write
            // epoch. Their band verdicts never went stale. One market's or
            // token's candidates are disjoint and are freshened, in address
            // order, before the next source is collected — so an account
            // lagging on several axes is freshened once.
            let mut batch = std::mem::take(&mut self.scratch_addresses);
            let batch_cap = batch.capacity();
            batch.clear();
            for &(token, market_epoch) in ctx.full_index_changed {
                let start = batch.len();
                if let Some(debtors) = self.debtors.get(&token) {
                    let entries = &self.entries;
                    batch.extend(debtors.iter().copied().filter(|address| {
                        entries
                            .get(address)
                            .is_some_and(|e| e.index_epoch < market_epoch)
                    }));
                }
                for &address in batch.get(start..).unwrap_or_default() {
                    self.refresh(source, oracle, address, ctx.clock);
                }
            }
            for &(token, token_epoch) in ctx.full_changed {
                let start = batch.len();
                {
                    let entries = &self.entries;
                    let lagging = |address: &Address| {
                        entries
                            .get(address)
                            .is_some_and(|e| e.valued_epoch < token_epoch)
                    };
                    if let Some(holders) = self.indexed_holders.get(&token) {
                        batch.extend(holders.iter().copied().filter(lagging));
                    }
                    if let Some(bounds) = self.env_lo.get(&token) {
                        batch.extend(bounds.iter().map(|&(_, address)| address).filter(lagging));
                    }
                    if let Some(holders) = self.multi_unbanded.get(&token) {
                        batch.extend(holders.iter().copied().filter(lagging));
                    }
                }
                if let Some(segment) = batch.get_mut(start..) {
                    segment.sort_unstable();
                }
                for &address in batch.get(start..).unwrap_or_default() {
                    self.refresh(source, oracle, address, ctx.clock);
                }
            }
            self.check_stale_invariant(source, oracle, ctx.clock, &batch);
            self.scratch_grows += (batch.capacity() > batch_cap) as u64;
            self.scratch_addresses = batch;
        }
    }

    /// The always-on stale invariant: after a rewind or a full drain, no
    /// valuation may lag a price or index epoch. Checks the accounts the
    /// pass just brought current, so the healthy path costs no extra walk;
    /// in release builds (where benches and `repro` run) a lagging one is
    /// counted — the band-differential harness asserts the counter stays
    /// zero — and repaired by a full revalue, so the book cannot keep
    /// serving it. Debug builds also check every entry of the shard, which
    /// catches an account missing from the membership sets the drain walks.
    fn check_stale_invariant<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        clock: &BookClock,
        checked: &[Address],
    ) {
        for &address in checked {
            let lagging = self
                .entries
                .get(&address)
                .is_some_and(|entry| entry.is_stale(oracle, clock));
            if lagging {
                self.stale_violations += 1;
                self.revalue(source, oracle, address, clock);
            }
        }
        debug_assert!(
            self.entries
                .values()
                .all(|entry| !entry.is_stale(oracle, clock)),
            "a full drain left a lagging valuation"
        );
    }

    // ----------------------------------------------------------- revaluation

    /// Freshen one lazily stale valuation: the term or light path where
    /// the verdict's certifier still holds, the full revalue path otherwise.
    fn refresh<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        address: Address,
        clock: &BookClock,
    ) {
        if !self.light_refresh(source, oracle, address, clock) {
            self.revalue(source, oracle, address, clock);
        }
    }

    /// Cheap freshening for an account whose verdict bookkeeping provably
    /// cannot have changed. The path is picked by what certifies the
    /// verdict:
    ///
    /// * **term path** — a critical-price account (its verdict lives in the
    ///   critical index, which reads no oracle input) that is *price*-stale
    ///   only (its index epoch is current, so every cached amount and
    ///   threshold is still exact): ask the source to recompute exactly the
    ///   moved tokens' USD value terms in place
    ///   ([`BookSource::reprice_position`]) — O(moved tokens) instead of a
    ///   full position rebuild;
    /// * **light path** — an envelope-held account whose certified envelope
    ///   covers the current prices and indexes: rebuild the position via
    ///   `fill_position`, keeping the band verdict, envelope and every index
    ///   membership.
    ///
    /// Both fold the valuation delta into the totals. Returns `false`
    /// (having made no bookkeeping change) when the path's precondition
    /// fails; the caller then takes the full revalue path.
    fn light_refresh<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        address: Address,
        clock: &BookClock,
    ) -> bool {
        let Some(entry) = self.entries.get_mut(&address) else {
            return false;
        };
        let old_in_book = entry.in_book;
        let old_collateral = entry.collateral_usd;
        let old_debt = entry.debt_usd;
        let old_dai_eth = entry.dai_eth_usd;

        let termed = entry.critical.is_some();
        if termed {
            // Term path. The holding sets are invariant under pure price
            // moves (amounts belong to the account state, which is not
            // dirty), so the exposure lists and membership indexes need no
            // comparison at all.
            if entry.index_stale(clock) {
                return false;
            }
            let mut moved = std::mem::take(&mut self.scratch_moved);
            let moved_cap = moved.capacity();
            moved.clear();
            moved.extend(
                entry
                    .tokens
                    .iter()
                    .copied()
                    .filter(|&token| oracle.token_epoch(token) > entry.valued_epoch),
            );
            let repriced =
                !moved.is_empty() && source.reprice_position(oracle, &mut entry.position, &moved);
            self.scratch_grows += (moved.capacity() > moved_cap) as u64;
            self.scratch_moved = moved;
            // A reprice that flips observability (possible only for exotic
            // `in_book` rules) hands over to `revalue`, which re-fills the
            // slot from scratch anyway.
            if !repriced || source.in_book(&entry.position) != old_in_book {
                return false;
            }
        } else {
            // Light path: the certified envelope must cover the *current*
            // oracle prices and borrow indexes. An accepted envelope bounds
            // every sensitive token and caps every debt market (`revalue`
            // refuses one that does not), so these are all its conditions.
            let holds_now = entry.envelope.as_ref().is_some_and(|envelope| {
                envelope.price_bounds.iter().all(|&(token, lo, hi)| {
                    let raw = oracle.price(token).map_or(0, |p| p.raw());
                    raw >= lo && raw <= hi
                }) && envelope.index_caps.iter().all(|&(token, cap)| {
                    source
                        .borrow_index(token)
                        .is_some_and(|current| current <= cap)
                })
            });
            if !holds_now {
                return false;
            }
            // From here the slot is rebuilt in place; every bail-out path
            // below hands over to `revalue`, which re-fills from scratch
            // anyway.
            if !source.fill_position(oracle, address, &mut entry.position) {
                return false;
            }
            if source.in_book(&entry.position) != old_in_book {
                return false;
            }
            // The membership indexes key off the exposure lists: any change
            // there needs the full delta bookkeeping.
            let mut new_tokens = std::mem::take(&mut self.scratch_tokens);
            new_tokens.clear();
            source.sensitive_tokens(&entry.position, &mut new_tokens);
            let tokens_same = new_tokens == entry.tokens;
            self.scratch_tokens = new_tokens;
            let mut new_debt_tokens = std::mem::take(&mut self.scratch_debt_tokens);
            new_debt_tokens.clear();
            source.debt_tokens(&entry.position, &mut new_debt_tokens);
            let debt_same = new_debt_tokens == entry.debt_tokens;
            self.scratch_debt_tokens = new_debt_tokens;
            if !tokens_same || !debt_same {
                return false;
            }
        }

        self.revaluations += 1;
        if termed {
            self.term_reprices += 1;
        } else {
            self.light_refreshes += 1;
        }
        entry.collateral_usd = entry.position.total_collateral_value();
        entry.debt_usd = entry.position.total_debt_value();
        entry.dai_eth_usd = if entry.position.has_debt_in(Token::DAI) {
            entry
                .position
                .collateral_value_in(Token::ETH)
                .saturating_add(entry.position.collateral_value_in(Token::WETH))
        } else {
            Wad::ZERO
        };
        entry.valued_epoch = oracle.epoch();
        entry.index_epoch = clock.index_epoch;
        let new_collateral = entry.collateral_usd;
        let new_debt = entry.debt_usd;
        let new_dai_eth = entry.dai_eth_usd;

        if old_in_book {
            self.totals.book_collateral_usd = self
                .totals
                .book_collateral_usd
                .saturating_sub(old_collateral)
                .saturating_add(new_collateral);
            self.totals.book_dai_eth_usd = self
                .totals
                .book_dai_eth_usd
                .saturating_sub(old_dai_eth)
                .saturating_add(new_dai_eth);
        }
        self.totals.all_collateral_usd = self
            .totals
            .all_collateral_usd
            .saturating_sub(old_collateral)
            .saturating_add(new_collateral);
        self.totals.all_debt_usd = self
            .totals
            .all_debt_usd
            .saturating_sub(old_debt)
            .saturating_add(new_debt);
        true
    }

    /// Re-value one account and fold the delta into every derived structure.
    fn revalue<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        address: Address,
        clock: &BookClock,
    ) {
        self.revaluations += 1;
        let entry = self
            .entries
            .entry(address)
            .or_insert_with(|| Entry::new(address));
        let old_in_book = entry.in_book;
        let old_collateral = entry.collateral_usd;
        let old_debt = entry.debt_usd;
        let old_dai_eth = entry.dai_eth_usd;
        let old_critical = entry.critical;
        let old_tokens = std::mem::take(&mut entry.tokens);
        let old_debt_list = std::mem::take(&mut entry.debt_tokens);
        let old_envelope = entry.envelope.take();

        // Re-anchor hysteresis hint: in which direction did the previous
        // envelope's price bounds break? Passed to the derivation so an
        // oscillating price doesn't re-derive every tick. A mutation- or
        // index-triggered re-valuation (bounds all still covering) anchors
        // fresh.
        let anchor = match &old_envelope {
            Some(env) => {
                let (mut up, mut down) = (false, false);
                for &(token, lo, hi) in &env.price_bounds {
                    let raw = oracle.price(token).map_or(0, |p| p.raw());
                    up |= raw > hi;
                    down |= raw < lo;
                }
                match (up, down) {
                    (true, true) => EnvelopeAnchor::BrokeBoth,
                    (true, false) => EnvelopeAnchor::BrokeUp,
                    (false, true) => EnvelopeAnchor::BrokeDown,
                    (false, false) => EnvelopeAnchor::Fresh,
                }
            }
            None => EnvelopeAnchor::Fresh,
        };

        // Drop the account's old membership from every exposure index; the
        // fresh valuation re-inserts below. Membership is exclusive: indexed
        // accounts live in `indexed_holders`, banded ones in the interval
        // index, the rest in `multi_unbanded`.
        let was_indexed = old_critical.is_some();
        if was_indexed {
            for token in &old_tokens {
                if let Some(holders) = self.indexed_holders.get_mut(token) {
                    holders.remove(&address);
                }
            }
        } else if let Some(env) = &old_envelope {
            for &(token, lo, hi) in &env.price_bounds {
                if let Some(bounds) = self.env_lo.get_mut(&token) {
                    bounds.remove(&(lo, address));
                }
                if let Some(bounds) = self.env_hi.get_mut(&token) {
                    bounds.remove(&(hi, address));
                }
            }
        } else {
            for token in &old_tokens {
                if let Some(holders) = self.multi_unbanded.get_mut(token) {
                    holders.remove(&address);
                }
            }
        }
        for &token in &old_debt_list {
            if let Some(debtors) = self.debtors.get_mut(&token) {
                debtors.remove(&address);
            }
            match old_envelope.as_ref().and_then(|env| env.index_cap(token)) {
                Some(cap) => {
                    if let Some(caps) = self.index_caps.get_mut(&token) {
                        caps.remove(&(cap, address));
                    }
                }
                None => {
                    if let Some(holders) = self.index_uncovered.get_mut(&token) {
                        holders.remove(&address);
                    }
                }
            }
        }

        let mut new_tokens = std::mem::take(&mut self.scratch_tokens);
        let mut new_debt_tokens = std::mem::take(&mut self.scratch_debt_tokens);
        new_tokens.clear();
        new_debt_tokens.clear();
        // Recycle the previous envelope's buffers for the new derivation.
        let mut envelope = match old_envelope {
            Some(env) => env,
            None => std::mem::take(&mut self.scratch_envelope),
        };
        envelope.clear();

        let exists = source.fill_position(oracle, address, &mut entry.position);
        let mut liquidatable = false;
        let mut band = HfBand::Quiet;
        let mut banded = false;
        if exists {
            source.sensitive_tokens(&entry.position, &mut new_tokens);
            source.debt_tokens(&entry.position, &mut new_debt_tokens);
            let critical = source.critical_price(address, &entry.position);
            liquidatable = critical.is_none() && entry.position.is_liquidatable();
            if critical.is_none() {
                let (rescue, releverage) = clock.bands;
                match entry.position.health_factor() {
                    None => {
                        // A debt-free account has no health factor at *any*
                        // price: certify it with unbounded conditions, so
                        // price moves only stale its valuation lazily.
                        for &token in new_tokens.iter() {
                            envelope.price_bounds.push((token, 0, u128::MAX));
                        }
                        banded = true;
                    }
                    Some(hf) => {
                        band = HfBand::classify(hf, rescue, releverage);
                        let (floor, ceiling) = match band {
                            HfBand::Liquidatable => (None, Some(Wad::ONE)),
                            HfBand::Rescue => (Some(Wad::ONE), Some(rescue)),
                            HfBand::Quiet => (Some(rescue), Some(releverage)),
                            HfBand::Releverage => (Some(releverage), None),
                        };
                        let derive_start = std::time::Instant::now();
                        let derived = source.hf_envelope(
                            oracle,
                            &entry.position,
                            floor,
                            ceiling,
                            anchor,
                            &mut envelope,
                        );
                        self.envelope_derives += 1;
                        self.envelope_derive_nanos += derive_start.elapsed().as_nanos() as u64;
                        // Refuse an incomplete envelope: a sensitive token
                        // without a price bound or a debt market without a
                        // cap leaves a condition the indexes cannot watch,
                        // so the account rides the exact path instead.
                        banded = derived
                            && new_tokens.iter().all(|&token| {
                                envelope.price_bounds.iter().any(|&(t, _, _)| t == token)
                            })
                            && new_debt_tokens
                                .iter()
                                .all(|&token| envelope.index_cap(token).is_some());
                    }
                }
            }
            entry.in_book = source.in_book(&entry.position);
            entry.collateral_usd = entry.position.total_collateral_value();
            entry.debt_usd = entry.position.total_debt_value();
            entry.dai_eth_usd = if entry.position.has_debt_in(Token::DAI) {
                entry
                    .position
                    .collateral_value_in(Token::ETH)
                    .saturating_add(entry.position.collateral_value_in(Token::WETH))
            } else {
                Wad::ZERO
            };
            entry.critical = critical;
            entry.valued_epoch = oracle.epoch();
            entry.index_epoch = clock.index_epoch;
        }
        entry.band = band;
        let new_in_book = exists && entry.in_book;
        let new_collateral = entry.collateral_usd;
        let new_debt = entry.debt_usd;
        let new_dai_eth = entry.dai_eth_usd;
        let new_critical = if exists { entry.critical } else { None };
        let now_indexed = new_critical.is_some();
        if banded {
            entry.envelope = Some(envelope);
        } else {
            self.scratch_envelope = envelope;
        }

        // Re-insert the fresh membership into the exposure indexes.
        if exists {
            if now_indexed {
                for token in &new_tokens {
                    self.indexed_holders
                        .entry(*token)
                        .or_default()
                        .insert(address);
                }
            } else if let Some(env) = &entry.envelope {
                for &(token, lo, hi) in &env.price_bounds {
                    self.env_lo.entry(token).or_default().insert((lo, address));
                    self.env_hi.entry(token).or_default().insert((hi, address));
                }
            } else {
                for token in &new_tokens {
                    self.multi_unbanded
                        .entry(*token)
                        .or_default()
                        .insert(address);
                }
            }
            for &token in &new_debt_tokens {
                self.debtors.entry(token).or_default().insert(address);
                match entry.envelope.as_ref().and_then(|env| env.index_cap(token)) {
                    Some(cap) => {
                        self.index_caps
                            .entry(token)
                            .or_default()
                            .insert((cap, address));
                    }
                    None => {
                        self.index_uncovered
                            .entry(token)
                            .or_default()
                            .insert(address);
                    }
                }
            }
        }

        // Totals: subtract the old contribution, add the new one. The sums
        // never saturate at sane magnitudes, so the incremental totals equal
        // the legacy fold exactly.
        if old_in_book {
            self.totals.book_collateral_usd = self
                .totals
                .book_collateral_usd
                .saturating_sub(old_collateral);
            self.totals.book_dai_eth_usd = self.totals.book_dai_eth_usd.saturating_sub(old_dai_eth);
            self.totals.book_count -= 1;
        }
        self.totals.all_collateral_usd = self
            .totals
            .all_collateral_usd
            .saturating_sub(old_collateral);
        self.totals.all_debt_usd = self.totals.all_debt_usd.saturating_sub(old_debt);
        if new_in_book {
            self.totals.book_collateral_usd = self
                .totals
                .book_collateral_usd
                .saturating_add(new_collateral);
            self.totals.book_dai_eth_usd = self.totals.book_dai_eth_usd.saturating_add(new_dai_eth);
            self.totals.book_count += 1;
        }
        if exists {
            self.totals.all_collateral_usd = self
                .totals
                .all_collateral_usd
                .saturating_add(new_collateral);
            self.totals.all_debt_usd = self.totals.all_debt_usd.saturating_add(new_debt);
        }

        // Critical-price index.
        if old_critical != new_critical {
            if let Some((token, crit)) = old_critical {
                if let Some(map) = self.critical.get_mut(&token) {
                    if let Some(accounts) = map.get_mut(&crit) {
                        accounts.remove(&address);
                        if accounts.is_empty() {
                            map.remove(&crit);
                        }
                    }
                }
            }
            if let Some((token, crit)) = new_critical {
                self.critical
                    .entry(token)
                    .or_default()
                    .entry(crit)
                    .or_default()
                    .insert(address);
            }
        }

        // Live set (non-indexed liquidatable accounts).
        if liquidatable {
            self.live.insert(address);
        } else {
            self.live.remove(&address);
        }

        // At-risk iteration set (non-indexed observable-book accounts in an
        // actionable band), and this valuation is fresh again.
        if new_in_book && new_critical.is_none() && band.at_risk() {
            self.at_risk.insert(address);
        } else {
            self.at_risk.remove(&address);
        }

        let live_entry = if exists {
            self.entries.get_mut(&address)
        } else {
            None
        };
        if let Some(entry) = live_entry {
            entry.tokens = new_tokens;
            entry.debt_tokens = new_debt_tokens;
            // Recycle the previous exposure buffers as scratch space.
            self.scratch_tokens = old_tokens;
            self.scratch_debt_tokens = old_debt_list;
        } else {
            self.entries.remove(&address);
            self.scratch_tokens = new_tokens;
            self.scratch_debt_tokens = new_debt_tokens;
        }
    }

    // --------------------------------------------------------------- queries

    /// This shard's liquidatable accounts (live set ∪ critical-price range
    /// scans) appended to `out` in address order, with each returned
    /// valuation freshened.
    fn collect_liquidatable<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        clock: &BookClock,
        out: &mut Vec<Address>,
    ) {
        // Reuse the shard's address scratch instead of cloning the live set
        // into a fresh `BTreeSet` every call (the discovery loop runs every
        // tick). Sorting + dedup reproduces the set-union order exactly:
        // both inputs are iterated in ascending address order.
        let mut found = std::mem::take(&mut self.scratch_addresses);
        let found_cap = found.capacity();
        found.clear();
        found.extend(self.live.iter().copied());
        for (token, map) in &self.critical {
            let Some(price) = oracle.price(*token) else {
                continue;
            };
            for accounts in map
                .range((Bound::Excluded(price.raw()), Bound::Unbounded))
                .map(|(_, accounts)| accounts)
            {
                found.extend(accounts.iter().copied());
            }
        }
        found.sort_unstable();
        found.dedup();
        let start = out.len();
        out.extend(found.iter().copied());
        self.scratch_grows += (found.capacity() > found_cap) as u64;
        self.scratch_addresses = found;
        // Freshen the valuations discovery hands out; re-valuing cannot
        // change the verdict (same state, same prices — and for accounts an
        // envelope certified, the band is certified).
        for slot in start..out.len() {
            let Some(&address) = out.get(slot) else {
                break;
            };
            let stale = self
                .entries
                .get(&address)
                .is_some_and(|entry| entry.is_stale(oracle, clock));
            if stale {
                self.refresh(source, oracle, address, clock);
            }
        }
    }

    /// Visit this shard's at-risk members in address order, freshening each
    /// visited valuation.
    fn visit_at_risk<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        clock: &BookClock,
        visit: &mut dyn FnMut(&Position),
    ) {
        let mut batch = std::mem::take(&mut self.scratch_addresses);
        let batch_cap = batch.capacity();
        batch.clear();
        batch.extend(self.at_risk.iter().copied());
        for &address in &batch {
            let stale = self
                .entries
                .get(&address)
                .is_some_and(|entry| entry.is_stale(oracle, clock));
            if stale {
                // Freshening cannot change the verdict: the account either
                // re-valued in the flush above or its envelope certifies the
                // band — so the light refresh applies whenever the envelope
                // still covers current prices, and the full revalue otherwise.
                self.refresh(source, oracle, address, clock);
            }
            if let Some(entry) = self.entries.get(&address) {
                if entry.in_book {
                    visit(&entry.position);
                }
            }
        }
        self.scratch_grows += (batch.capacity() > batch_cap) as u64;
        self.scratch_addresses = batch;
    }
}

/// The incremental cache each [`crate::LendingProtocol`] implementation owns.
/// See the module docs for the invalidation contract and the sharding
/// layout.
#[derive(Debug, Clone)]
pub struct PositionBook {
    shards: Vec<BookShard>,
    /// Markets whose borrow index changed since the last flush.
    pending_index_tokens: Vec<Token>,
    /// Band thresholds and the borrow-index clock every shard reads.
    clock: BookClock,
    /// Oracle epoch consumed by every flush (multivariate dirty marking).
    synced_epoch: u64,
    /// Oracle epoch up to which lazily staled valuations were freshened by a
    /// full refresh.
    full_synced_epoch: u64,
    /// Index epoch up to which lazily staled valuations were freshened by a
    /// full refresh.
    full_synced_index_epoch: u64,
    scratch_changed: Vec<Token>,
    scratch_prices: Vec<(Token, u128)>,
    scratch_index_moves: Vec<(Token, Option<u128>)>,
    scratch_full_changed: Vec<(Token, u64)>,
    scratch_full_index_changed: Vec<(Token, u64)>,
    /// Flushes that found work, and nanoseconds spent doing it (phase
    /// attribution for the tick breakdown; see [`BookStats`]).
    flush_count: u64,
    flush_nanos: u64,
    /// Nanoseconds in the at-risk visit pass (fused freshen + visit).
    visit_nanos: u64,
}

impl Default for PositionBook {
    fn default() -> Self {
        PositionBook {
            shards: (0..BOOK_SHARD_COUNT)
                .map(|_| BookShard::default())
                .collect(),
            pending_index_tokens: Vec::new(),
            clock: BookClock {
                bands: (
                    // lint:allow(fixed-float) band edges are config-space constants quantized once at construction, not per-valuation
                    Wad::from_f64(RESCUE_BAND_HF),
                    // lint:allow(fixed-float) band edges are config-space constants quantized once at construction, not per-valuation
                    Wad::from_f64(RELEVERAGE_BAND_HF),
                ),
                index_epoch: 0,
                market_epochs: Vec::new(),
            },
            synced_epoch: 0,
            full_synced_epoch: 0,
            full_synced_index_epoch: 0,
            scratch_changed: Vec::new(),
            scratch_prices: Vec::new(),
            scratch_index_moves: Vec::new(),
            scratch_full_changed: Vec::new(),
            scratch_full_index_changed: Vec::new(),
            flush_count: 0,
            flush_nanos: 0,
            visit_nanos: 0,
        }
    }
}

impl PositionBook {
    /// An empty book with the default
    /// ([`RESCUE_BAND_HF`], [`RELEVERAGE_BAND_HF`]) band thresholds.
    pub fn new() -> Self {
        PositionBook::default()
    }

    fn shard_mut(&mut self, account: &Address) -> Option<&mut BookShard> {
        self.shards.get_mut(shard_of(account))
    }

    /// Mark one account for re-valuation (every protocol mutation that
    /// touches the account must call this).
    pub fn mark_dirty(&mut self, account: Address) {
        if let Some(shard) = self.shard_mut(&account) {
            shard.dirty.insert(account);
        }
    }

    /// Record that a market's borrow index advanced: before the next query,
    /// every account owing `token` whose certified cap the new index breaks
    /// (or that carries no cap) re-values, and the rest go index-stale.
    pub fn note_index_change(&mut self, token: Token) {
        if !self.pending_index_tokens.contains(&token) {
            self.pending_index_tokens.push(token);
        }
    }

    /// Invalidate every cached account (risk-parameter changes: market or
    /// ilk (re)listing can alter thresholds/spreads of existing positions).
    pub fn invalidate_all(&mut self) {
        for shard in &mut self.shards {
            let accounts: Vec<Address> = shard.entries.keys().copied().collect();
            shard.dirty.extend(accounts);
        }
    }

    /// Whether any account sits in the critical-price index.
    fn has_critical(&self) -> bool {
        self.shards
            .iter()
            .any(|shard| shard.critical.values().any(|map| !map.is_empty()))
    }

    /// Cache-maintenance counters, folded over the shards.
    pub fn stats(&self) -> BookStats {
        let mut stats = BookStats::default();
        for shard in &self.shards {
            stats.cached_accounts += shard.entries.len();
            stats.revaluations += shard.revaluations;
            stats.indexed_accounts += shard
                .entries
                .values()
                .filter(|e| e.critical.is_some())
                .count();
            stats.live_accounts += shard.live.len();
            stats.banded_accounts += shard
                .entries
                .values()
                .filter(|e| e.envelope.is_some())
                .count();
            stats.at_risk_accounts += shard.at_risk.len();
            stats.envelope_skips += shard.envelope_skips;
            stats.envelope_checks += shard.envelope_checks;
            stats.stale_violations += shard.stale_violations;
            stats.term_reprices += shard.term_reprices;
            stats.light_refreshes += shard.light_refreshes;
            stats.envelope_derives += shard.envelope_derives;
            stats.envelope_derive_nanos += shard.envelope_derive_nanos;
            stats.scratch_grows += shard.scratch_grows;
        }
        stats.flush_count = self.flush_count;
        stats.flush_nanos = self.flush_nanos;
        stats.visit_nanos = self.visit_nanos;
        stats
    }

    /// The cached snapshot of one account, if it is in the cache. Exact only
    /// after a refreshing query ([`book_positions`](Self::book_positions),
    /// [`liquidatable_accounts`](Self::liquidatable_accounts), …).
    pub fn cached_position(&self, account: Address) -> Option<&Position> {
        self.shards
            .get(shard_of(&account))
            .and_then(|shard| shard.entries.get(&account))
            .map(|e| &e.position)
    }

    // ------------------------------------------------------------------ flush

    /// Fold every pending invalidation into re-valuations, shard by shard in
    /// address order. With `full`, also freshen lazily staled valuations so
    /// every cached position is exact at current prices and borrow indexes.
    fn flush<S: BookSource>(&mut self, source: &S, oracle: &PriceOracle, full: bool) {
        let epoch = oracle.epoch();
        let rewind = epoch < self.synced_epoch;
        let mut changed = std::mem::take(&mut self.scratch_changed);
        changed.clear();
        let mut changed_prices = std::mem::take(&mut self.scratch_prices);
        changed_prices.clear();
        let mut index_moves = std::mem::take(&mut self.scratch_index_moves);
        index_moves.clear();
        let mut full_changed = std::mem::take(&mut self.scratch_full_changed);
        full_changed.clear();
        let mut full_index_changed = std::mem::take(&mut self.scratch_full_index_changed);
        full_index_changed.clear();
        let mut index_tokens = std::mem::take(&mut self.pending_index_tokens);

        if rewind {
            // Every account re-values at the current indexes below.
            index_tokens.clear();
            self.synced_epoch = epoch;
            self.full_synced_epoch = epoch;
            self.full_synced_index_epoch = self.clock.index_epoch;
        } else {
            if epoch > self.synced_epoch {
                oracle.collect_changed_since(self.synced_epoch, &mut changed);
                changed_prices.extend(
                    changed
                        .iter()
                        .map(|&token| (token, oracle.price(token).map_or(0, |p| p.raw()))),
                );
            }
            self.synced_epoch = epoch;
            if !index_tokens.is_empty() {
                // One index epoch per flush: every market that moved since
                // the last flush is stamped with it.
                self.clock.index_epoch += 1;
                let index_epoch = self.clock.index_epoch;
                for &token in &index_tokens {
                    match self
                        .clock
                        .market_epochs
                        .iter_mut()
                        .find(|(market, _)| *market == token)
                    {
                        Some(slot) => slot.1 = index_epoch,
                        None => self.clock.market_epochs.push((token, index_epoch)),
                    }
                    index_moves.push((token, source.borrow_index(token)));
                }
            }
            if full && self.clock.index_epoch > self.full_synced_index_epoch {
                let synced = self.full_synced_index_epoch;
                full_index_changed.extend(
                    self.clock
                        .market_epochs
                        .iter()
                        .filter(|&&(_, market_epoch)| market_epoch > synced),
                );
                self.full_synced_index_epoch = self.clock.index_epoch;
            }
            if full && epoch > self.full_synced_epoch {
                changed.clear();
                oracle.collect_changed_since(self.full_synced_epoch, &mut changed);
                full_changed.extend(
                    changed
                        .iter()
                        .map(|&token| (token, oracle.token_epoch(token))),
                );
                self.full_synced_epoch = epoch;
            }
        }

        let any_work = rewind
            || !changed_prices.is_empty()
            || !index_moves.is_empty()
            || !full_changed.is_empty()
            || !full_index_changed.is_empty()
            || self.shards.iter().any(|shard| !shard.dirty.is_empty());
        if any_work {
            let flush_start = std::time::Instant::now();
            let ctx = FlushCtx {
                changed_prices: &changed_prices,
                index_moves: &index_moves,
                full_changed: &full_changed,
                full_index_changed: &full_index_changed,
                clock: &self.clock,
                full,
                rewind,
            };
            for shard in &mut self.shards {
                shard.flush(source, oracle, &ctx);
            }
            self.flush_count += 1;
            self.flush_nanos += flush_start.elapsed().as_nanos() as u64;
        }

        index_tokens.clear();
        self.pending_index_tokens = index_tokens;
        self.scratch_changed = changed;
        self.scratch_prices = changed_prices;
        self.scratch_index_moves = index_moves;
        self.scratch_full_changed = full_changed;
        self.scratch_full_index_changed = full_index_changed;
    }

    // --------------------------------------------------------------- queries

    /// Bring every cached valuation up to date and clone out the observable
    /// book in address order — byte-identical to the legacy from-scratch
    /// rebuild, without re-valuing untouched accounts.
    pub fn book_positions<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
    ) -> Vec<Position> {
        self.flush(source, oracle, true);
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .entries
                    .values()
                    .filter(|e| e.in_book)
                    .map(|e| e.position.clone()),
            );
        }
        out
    }

    /// Visit every observable book position in address order without
    /// allocating a snapshot vector (the engine's borrower-management pass).
    pub fn for_each_book_position<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        visit: &mut dyn FnMut(&Position),
    ) {
        self.flush(source, oracle, true);
        for shard in &self.shards {
            for entry in shard.entries.values() {
                if entry.in_book {
                    visit(&entry.position);
                }
            }
        }
    }

    fn fold_totals(&self) -> Totals {
        let mut totals = Totals::default();
        for shard in &self.shards {
            totals.book_collateral_usd = totals
                .book_collateral_usd
                .saturating_add(shard.totals.book_collateral_usd);
            totals.book_dai_eth_usd = totals
                .book_dai_eth_usd
                .saturating_add(shard.totals.book_dai_eth_usd);
            totals.book_count += shard.totals.book_count;
            totals.all_collateral_usd = totals
                .all_collateral_usd
                .saturating_add(shard.totals.all_collateral_usd);
            totals.all_debt_usd = totals
                .all_debt_usd
                .saturating_add(shard.totals.all_debt_usd);
        }
        totals
    }

    /// Running totals over the observable book (volume sampling), merged in
    /// fixed shard order.
    pub fn totals<S: BookSource>(&mut self, source: &S, oracle: &PriceOracle) -> BookTotals {
        self.flush(source, oracle, true);
        let totals = self.fold_totals();
        BookTotals {
            collateral_usd: totals.book_collateral_usd,
            dai_eth_collateral_usd: totals.book_dai_eth_usd,
            open_positions: totals.book_count,
        }
    }

    /// Running totals over *every* cached account (the protocol-level
    /// `total_collateral_value` / `total_debt_value` surface).
    pub fn all_totals<S: BookSource>(&mut self, source: &S, oracle: &PriceOracle) -> (Wad, Wad) {
        self.flush(source, oracle, true);
        let totals = self.fold_totals();
        (totals.all_collateral_usd, totals.all_debt_usd)
    }

    /// Accounts currently below the liquidation threshold, in address order,
    /// with their cached positions freshened: the union of the per-token
    /// critical-price range scans and the incrementally maintained live set,
    /// merged in fixed shard order. Does **not** re-value accounts whose
    /// certified state a price move failed to break — the fast path a keeper
    /// loop takes every block.
    pub fn liquidatable_accounts<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
    ) -> Vec<Address> {
        self.flush(source, oracle, false);
        let clock = &self.clock;
        let mut out = Vec::new();
        for shard in &mut self.shards {
            shard.collect_liquidatable(source, oracle, clock, &mut out);
        }
        out
    }

    /// Visit every *at-risk* observable position — health factor below
    /// `rescue` (including liquidatable ones) or above `releverage` — in
    /// address order, with each visited valuation freshened to current
    /// prices and indexes. Quiet-band accounts whose envelope holds are
    /// skipped without re-valuation: this is the banded fast path of the
    /// engine's borrower-management pass, exactly equivalent to filtering a
    /// full book walk by health factor.
    ///
    /// Changing the thresholds re-classifies the whole book (one-off full
    /// re-valuation). Books containing critical-price-indexed accounts (a
    /// Maker CDP book) are served by the exact full walk — indexed accounts
    /// keep no HF band. That walk is the only exact at-risk walk.
    pub fn for_each_at_risk<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        rescue: Wad,
        releverage: Wad,
        visit: &mut dyn FnMut(&Position),
    ) {
        if (rescue, releverage) != self.clock.bands {
            self.clock.bands = (rescue, releverage);
            self.invalidate_all();
        }
        // A flush can index new accounts, so a book without critical prices
        // is checked again after its banded flush.
        if !self.has_critical() {
            self.flush(source, oracle, false);
        }
        if self.has_critical() {
            // Indexed (single-price) accounts read their liquidation status
            // off the critical-price maps and maintain no band — serve mixed
            // books through the exact full walk instead.
            self.flush(source, oracle, true);
            let visit_start = std::time::Instant::now();
            for shard in &self.shards {
                for entry in shard.entries.values() {
                    if !entry.in_book {
                        continue;
                    }
                    let Some(hf) = entry.position.health_factor() else {
                        continue;
                    };
                    if hf < rescue || hf > releverage {
                        visit(&entry.position);
                    }
                }
            }
            self.visit_nanos += visit_start.elapsed().as_nanos() as u64;
            return;
        }
        // One fused pass in shard order (= address order): freshen each
        // stale at-risk member, then visit it.
        let clock = &self.clock;
        let visit_start = std::time::Instant::now();
        for shard in &mut self.shards {
            shard.visit_at_risk(source, oracle, clock, visit);
        }
        self.visit_nanos += visit_start.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_core::position::{CollateralHolding, DebtHolding};
    use defi_oracle::OracleConfig;
    use defi_types::mul_div_ceil;

    /// A toy single-collateral protocol: account `i` holds `collateral[i]`
    /// ETH against a fixed par-valued debt, liquidatable below
    /// `debt × 1.5 / collateral` — the Maker shape, small enough to verify
    /// the book's bookkeeping in isolation.
    struct ToySource {
        accounts: BTreeMap<Address, (Wad, Wad)>, // collateral ETH, par debt
        /// Suppress critical prices: accounts then ride the multivariate
        /// (live-set) path.
        multivariate: bool,
    }

    impl ToySource {
        fn ratio() -> Wad {
            Wad::from_f64(1.5)
        }
    }

    impl BookSource for ToySource {
        fn fill_position(
            &self,
            oracle: &PriceOracle,
            account: Address,
            slot: &mut Position,
        ) -> bool {
            let Some(&(collateral, debt)) = self.accounts.get(&account) else {
                return false;
            };
            slot.collateral.clear();
            slot.debt.clear();
            slot.owner = account;
            if !collateral.is_zero() {
                let price = oracle.price_or_zero(Token::ETH);
                slot.collateral.push(CollateralHolding {
                    token: Token::ETH,
                    amount: collateral,
                    // Saturate *upward* on overflow: a valuation too large to
                    // represent must never collapse to zero and spuriously
                    // flag a healthy account liquidatable.
                    value_usd: collateral.checked_mul(price).unwrap_or(Wad::MAX),
                    liquidation_threshold: Wad::ONE.checked_div(Self::ratio()).unwrap_or(Wad::ZERO),
                    liquidation_spread: Wad::from_f64(0.13),
                });
            }
            if !debt.is_zero() {
                slot.debt.push(DebtHolding {
                    token: Token::DAI,
                    amount: debt,
                    value_usd: debt,
                });
            }
            !slot.collateral.is_empty() || !slot.debt.is_empty()
        }

        fn in_book(&self, _position: &Position) -> bool {
            true
        }

        fn sensitive_tokens(&self, position: &Position, out: &mut Vec<Token>) {
            for holding in &position.collateral {
                out.push(holding.token);
            }
        }

        fn debt_tokens(&self, _position: &Position, _out: &mut Vec<Token>) {}

        fn critical_price(&self, account: Address, _position: &Position) -> Option<(Token, u128)> {
            if self.multivariate {
                return None;
            }
            let &(collateral, debt) = self.accounts.get(&account)?;
            if collateral.is_zero() || debt.is_zero() {
                return None;
            }
            let required = debt.checked_mul(Self::ratio()).unwrap_or(Wad::MAX);
            let crit = mul_div_ceil(required.raw(), defi_types::WAD, collateral.raw())
                .unwrap_or(u128::MAX);
            Some((Token::ETH, crit))
        }
    }

    fn setup(n: u64) -> (ToySource, PositionBook, PriceOracle) {
        let mut source = ToySource {
            accounts: BTreeMap::new(),
            multivariate: false,
        };
        let mut book = PositionBook::new();
        for i in 0..n {
            let address = Address::from_seed(i);
            // Collateralization spreads from 150.1 % upwards.
            let collateral = Wad::from_int(10);
            let debt = Wad::from_f64(10.0 * 100.0 / (1.501 + i as f64 * 0.05));
            source.accounts.insert(address, (collateral, debt));
            book.mark_dirty(address);
        }
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_int(100));
        (source, book, oracle)
    }

    #[test]
    fn range_scan_flags_exactly_the_crossed_accounts() {
        let (source, mut book, mut oracle) = setup(20);
        assert!(book.liquidatable_accounts(&source, &oracle).is_empty());
        // Drop ETH until some collateralizations fall below 150 %.
        oracle.set_price(1, Token::ETH, Wad::from_int(90));
        let flagged = book.liquidatable_accounts(&source, &oracle);
        let expected: Vec<Address> = source
            .accounts
            .iter()
            .filter(|(_, (c, d))| {
                let value = c.checked_mul(oracle.price_or_zero(Token::ETH)).unwrap();
                value < d.checked_mul(ToySource::ratio()).unwrap()
            })
            .map(|(a, _)| *a)
            .collect();
        assert_eq!(flagged, expected);
        assert!(!flagged.is_empty());
        assert!(flagged.len() < source.accounts.len());
    }

    #[test]
    fn price_moves_do_not_revalue_indexed_accounts() {
        let (source, mut book, mut oracle) = setup(50);
        book.liquidatable_accounts(&source, &oracle);
        let after_build = book.stats().revaluations;
        assert_eq!(after_build, 50);
        // A small move that crosses nobody (the tightest account's critical
        // price is ≈ 99.93): discovery re-values nothing.
        oracle.set_price(1, Token::ETH, Wad::from_f64(99.95));
        assert!(book.liquidatable_accounts(&source, &oracle).is_empty());
        assert_eq!(book.stats().revaluations, after_build);
        // A crossing move re-values exactly the returned accounts.
        oracle.set_price(2, Token::ETH, Wad::from_int(88));
        let flagged = book.liquidatable_accounts(&source, &oracle);
        assert!(!flagged.is_empty());
        assert_eq!(
            book.stats().revaluations,
            after_build + flagged.len() as u64
        );
        // A full snapshot then freshens the remaining stale valuations once.
        let positions = book.book_positions(&source, &oracle);
        assert_eq!(positions.len(), 50);
        assert_eq!(book.stats().revaluations, after_build + 50);
        // …and a repeated snapshot re-values nothing at all.
        let again = book.book_positions(&source, &oracle);
        assert_eq!(again, positions);
        assert_eq!(book.stats().revaluations, after_build + 50);
    }

    #[test]
    fn totals_track_mutations_and_removals() {
        let (mut source, mut book, oracle) = setup(10);
        let totals = book.totals(&source, &oracle);
        assert_eq!(totals.open_positions, 10);
        assert_eq!(totals.collateral_usd, Wad::from_int(10 * 10 * 100));

        // Remove one account, repay another's debt.
        let gone = Address::from_seed(3);
        source.accounts.remove(&gone);
        book.mark_dirty(gone);
        let repaid = Address::from_seed(4);
        source.accounts.get_mut(&repaid).unwrap().1 = Wad::ZERO;
        book.mark_dirty(repaid);

        let totals = book.totals(&source, &oracle);
        assert_eq!(totals.open_positions, 9);
        assert_eq!(totals.collateral_usd, Wad::from_int(9 * 10 * 100));
        assert!(book.cached_position(gone).is_none());
    }

    /// Books containing critical-price-indexed accounts serve the at-risk
    /// iteration through the exact full walk — and it still equals the
    /// health-factor filter over the observable book.
    #[test]
    fn at_risk_iteration_falls_back_to_exact_for_indexed_books() {
        let (source, mut book, mut oracle) = setup(20);
        oracle.set_price(1, Token::ETH, Wad::from_int(95));
        let rescue = Wad::from_f64(RESCUE_BAND_HF);
        let releverage = Wad::from_f64(RELEVERAGE_BAND_HF);
        let mut seen = Vec::new();
        book.for_each_at_risk(&source, &oracle, rescue, releverage, &mut |position| {
            seen.push(position.owner)
        });
        let expected: Vec<Address> = book
            .book_positions(&source, &oracle)
            .into_iter()
            .filter(|p| {
                p.health_factor()
                    .is_some_and(|hf| hf < rescue || hf > releverage)
            })
            .map(|p| p.owner)
            .collect();
        assert_eq!(seen, expected);
        assert!(!seen.is_empty());
        assert!(seen.len() < 20, "some accounts must be quiet");
    }

    #[test]
    fn oracle_rewind_is_detected_and_invalidates_everything() {
        let (source, mut book, mut oracle) = setup(5);
        oracle.set_price(1, Token::ETH, Wad::from_int(120));
        book.book_positions(&source, &oracle);
        let baseline = book.stats().revaluations;
        // A *different* oracle instance whose epoch sits behind the one the
        // book synced to: the book cannot trust any cached valuation.
        let mut other = PriceOracle::new(OracleConfig::every_update());
        other.set_price(0, Token::ETH, Wad::from_int(250));
        assert!(other.epoch() < oracle.epoch());
        let positions = book.book_positions(&source, &other);
        assert_eq!(book.stats().revaluations, baseline + 5);
        assert!(positions
            .iter()
            .all(|p| p.total_collateral_value() == Wad::from_int(2_500)));
        // The always-on stale invariant held through rewind + drain.
        assert_eq!(book.stats().stale_violations, 0);
    }

    /// Satellite regression: a collateral valuation too large for the
    /// fixed-point range must saturate *upward*, never collapse to zero — an
    /// overflow previously zeroed the collateral value and could flag a
    /// massively over-collateralized account as liquidatable.
    #[test]
    fn extreme_prices_saturate_collateral_value_upward() {
        let mut source = ToySource {
            accounts: BTreeMap::new(),
            multivariate: true,
        };
        let mut book = PositionBook::new();
        let whale = Address::from_seed(0);
        // 10^15 ETH at 10^15 USD: the raw product overflows u128.
        let collateral = Wad::from_int(1_000_000_000_000_000);
        let debt = Wad::from_int(100);
        source.accounts.insert(whale, (collateral, debt));
        book.mark_dirty(whale);
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_int(1_000_000_000_000_000));
        let positions = book.book_positions(&source, &oracle);
        assert_eq!(positions.len(), 1);
        assert_eq!(
            positions[0].total_collateral_value(),
            Wad::MAX,
            "overflowed collateral value must saturate upward"
        );
        assert!(
            book.liquidatable_accounts(&source, &oracle).is_empty(),
            "a saturated (astronomically healthy) account must not be flagged"
        );
        assert_eq!(book.stats().stale_violations, 0);
    }
}
