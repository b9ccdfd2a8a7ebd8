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
//! of a full-book filter. A critical-price account keeps no health-factor
//! band: it is never at risk, so the at-risk walk never visits it, and
//! discovery serves it.
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
//! that. Those two epochs are the only staleness record: discovery
//! re-values exactly the members it returns, and full refreshes walk the
//! entries in address order and freshen every one whose epochs lag. An
//! **envelope-held** account whose certified envelope still covers the
//! current prices and indexes freshens through a cheap **light refresh**:
//! rebuild the position with `fill_position` and fold the valuation delta,
//! instead of re-deriving the envelope — the band verdict and index
//! memberships provably cannot have changed.
//!
//! Anything else — a dirty mark, a lagging critical-price account, a broken
//! envelope — takes the full re-valuation. Envelopes are
//! **directional**: each price bound is sized by the one band edge its move
//! pushes toward (collateral down and debt up toward the floor, the reverse
//! toward the ceiling), so an account hugging its floor still keeps a wide
//! bound in the direction only its distant ceiling limits. The
//! envelope conditions are *state*-based (current price within `[lo, hi]`,
//! current index below its cap), so certification composes across any
//! interleaving of moves; the bounds are integer-rounded inward (never
//! outward), a guard band absorbs fixed-point rounding in the HF evaluation
//! itself, and accounts too close to a band edge get no envelope and ride the
//! exact path. Exactness is enforced by a differential harness
//! (`tests/band_differential.rs`): a shadow cache-less scan must agree with
//! banded discovery every tick across every catalog scenario.
//!
//! Each protocol owns one book and answers every
//! [`LendingProtocol`](crate::LendingProtocol) book query with one call on
//! it — [`for_each_position`](PositionBook::for_each_position),
//! [`totals`](PositionBook::totals),
//! [`for_each_at_risk`](PositionBook::for_each_at_risk) or
//! [`for_each_liquidatable`](PositionBook::for_each_liquidatable) — handing
//! it a read-view of its own state that implements [`BookSource`].
//!
//! One query reads without flushing: [`audit`](PositionBook::audit) takes
//! `&self` and visits the in-book entries as they stand, each with its
//! [`Validity`] — current, certified by an envelope or a critical price,
//! or pending a flush. It is what the tick-end audit checks: a lagging
//! valuation is legal only while its certificate holds.
//!
//! # Sharding
//!
//! A book starts as one shard and splits once, at the dirty mark that
//! brings that shard's entries plus its pending dirty accounts to
//! `SPLIT_AT` (4,096), into [`BOOK_SHARD_COUNT`] fixed **address-range
//! shards** (`shard_of`: the top four bits of the address's first byte).
//! Every per-account structure — entries, dirty set, critical-price index,
//! interval and cap indexes, band membership — lives in the owning shard,
//! and every flush and query walks the shards serially with the same loop
//! whether there are 1 or 16. The running sums, the counters and the
//! scratch buffers live once per book, beside the shards. The shards pay
//! only at scale: on a large book each flush touches sixteen small ordered
//! maps rather than one large one, while on a small book the per-shard
//! lookups and range descents of sixteen shards are pure overhead. The
//! split runs before any flush re-values the new accounts and moves
//! structures only, so it changes no valuation and no counter. Merge order is fixed by
//! construction: the partition is a function of the address alone, each
//! shard's work is internally ordered, and queries concatenate shards in
//! ascending address-range order, so `for_each_position` and
//! `for_each_liquidatable` come out in global address order without
//! sorting.
//!
//! The book is *exact by construction*: a cached entry is byte-identical to a
//! from-scratch [`Position`] rebuild because the owning protocol's
//! [`BookSource::fill_position`] is the same code path the legacy
//! `positions()` API uses, and it only runs when an input changed. A property
//! test (`tests/property_tests.rs`) asserts cache ≡ rebuild after arbitrary
//! operation interleavings.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use defi_core::position::Position;
use defi_oracle::PriceOracle;
use defi_types::{Address, FxHashMap, Token, Wad};

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

/// Number of fixed address-range shards a book splits into once it outgrows
/// its first shard (see the module docs). Flushes and queries walk them
/// serially; at scale the split buys cache locality (sixteen small ordered
/// maps per flush instead of one large one).
pub const BOOK_SHARD_COUNT: usize = 16;

/// Accounts at which a one-shard book splits into [`BOOK_SHARD_COUNT`]
/// shards. On the fixed-spread tick bench one shard is faster up to 4,000
/// accounts and the two layouts tie at 10,000; on the 100k-account
/// benchmark books sixteen shards pay.
const SPLIT_AT: usize = 4_096;

/// The shard owning an address once a book is split: its top four bits, a
/// pure function of the address. [`Address`] orders lexicographically, so
/// shard `i` owns a contiguous address range and concatenating shards in
/// index order preserves global address order. A one-shard book owns every
/// address in shard 0.
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

    /// The band's `(floor, ceiling)` under the (`rescue`, `releverage`)
    /// thresholds; `None` is an open edge. A certified envelope keeps the
    /// health factor strictly between the two.
    fn edges(self, rescue: Wad, releverage: Wad) -> (Option<Wad>, Option<Wad>) {
        match self {
            HfBand::Liquidatable => (None, Some(Wad::ONE)),
            HfBand::Rescue => (Some(Wad::ONE), Some(rescue)),
            HfBand::Quiet => (Some(rescue), Some(releverage)),
            HfBand::Releverage => (Some(releverage), None),
        }
    }

    /// Whether the borrower-management pass must see accounts in this band:
    /// the rescue and re-leverage bands. Liquidatable accounts are served
    /// by discovery instead.
    fn at_risk(self) -> bool {
        matches!(self, HfBand::Rescue | HfBand::Releverage)
    }
}

/// Aggregate totals over the observable book — what the engine's
/// volume-sampling pass (Figures 4/9 denominators) needs, maintained as
/// running per-token amount sums so sampling never materialises the
/// position vector.
///
/// Each USD total is Σ over tokens of `amount_sum × price`: the book's
/// amounts of one token are summed first and the truncating fixed-point
/// product is taken once per token (saturating at [`Wad::MAX`] on
/// overflow). That can differ from summing each holding's own `value_usd`
/// by less than one raw unit per holding; [`reference_totals`] is the
/// from-scratch definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BookTotals {
    /// Σ over tokens of (Σ collateral amount in book positions) × price.
    pub collateral_usd: Wad,
    /// The same over the ETH/WETH collateral of positions owing DAI (the
    /// DAI/ETH market the §5.1 comparison is restricted to).
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
    /// Address-range shards the book currently runs: 1 until the book
    /// outgrows its first shard, then [`BOOK_SHARD_COUNT`].
    pub shards: usize,
    /// Total account re-valuations performed since the book was created.
    pub revaluations: u64,
    /// Accounts currently tracked by the critical-price index.
    pub indexed_accounts: usize,
    /// Accounts currently flagged liquidatable outside the index.
    pub live_accounts: usize,
    /// Accounts currently carrying a certified health-factor band envelope.
    pub banded_accounts: usize,
    /// Accounts currently in an at-risk band (`[1, rescue)` or above
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
    /// Times the always-on stale invariant (after every full drain, no
    /// valuation may lag a price or index epoch) was found
    /// violated — and repaired. Must stay 0; the band-differential harness
    /// asserts it.
    pub stale_violations: u64,
    /// Always 0: critical-price accounts freshen through the full
    /// re-valuation. Kept only because the `perfbench/` harness still sums
    /// it; remove it with the next benchmark change.
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
    /// (`for_each_position`): fixed-spread pools only report accounts that
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
    /// towards re-valuing. Return `false` (the default) to ride the
    /// exact path — a new [`crate::LendingProtocol`] implementation opts
    /// into banding by overriding this.
    fn hf_envelope(
        &self,
        _oracle: &PriceOracle,
        _position: &Position,
        _floor: Option<Wad>,
        _ceiling: Option<Wad>,
        _out: &mut HfEnvelope,
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
    critical: Option<(Token, u128)>,
    /// Certified envelope within which the health-factor band of the last
    /// re-valuation provably holds (`None`: the account rides the exact
    /// path and re-values on every relevant change).
    envelope: Option<HfEnvelope>,
    /// The band `envelope` certifies (`None` with an envelope: a debt-free
    /// account, which has no health factor at any price).
    band: Option<HfBand>,
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
            critical: None,
            envelope: None,
            band: None,
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

    /// What keeps this in-book valuation valid, read without flushing. The
    /// book still owes the entry a flush when it is `dirty`, holds a token
    /// written after the book's last sync (`synced_epoch`), or owes a
    /// market whose accrual no flush has stamped yet (`unsynced_markets`).
    fn validity(
        &self,
        oracle: &PriceOracle,
        clock: &BookClock,
        synced_epoch: u64,
        unsynced_markets: &[Token],
        dirty: bool,
    ) -> Validity<'_> {
        let index_lag = self.index_stale(clock);
        let mut unsynced = dirty
            || self
                .debt_tokens
                .iter()
                .any(|token| unsynced_markets.contains(token));
        let mut price_lag = false;
        for &token in &self.tokens {
            let written = oracle.token_epoch(token);
            unsynced |= written > synced_epoch;
            price_lag |= written > self.valued_epoch;
        }
        if unsynced {
            return Validity::Pending;
        }
        if !price_lag && !index_lag {
            return Validity::Current;
        }
        if let Some(envelope) = &self.envelope {
            let (rescue, releverage) = clock.bands;
            let (floor, ceiling) = self
                .band
                .map_or((None, None), |band| band.edges(rescue, releverage));
            return Validity::Envelope {
                envelope,
                floor,
                ceiling,
            };
        }
        // The critical index watches prices only: a lagging borrow index
        // is certified by nothing.
        match self.critical {
            Some((token, crit)) if !index_lag => Validity::Critical { token, crit },
            _ => Validity::Uncertified,
        }
    }
}

/// What keeps one in-book entry's cached valuation valid, as the read-only
/// walk [`PositionBook::audit`] reports it. A lagging valuation is legal
/// only while a certificate covers it: the book then serves its verdict
/// without re-valuing it, and only the certificate says the verdict is
/// still right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validity<'a> {
    /// No price or borrow index the valuation depends on moved since it
    /// was computed: every value term is exact at the current oracle.
    Current,
    /// The valuation lags moves the book has synced, under a certified
    /// envelope: while every price sits inside its bound and every borrow
    /// index at or below its cap, the health factor stays strictly between
    /// `floor` and `ceiling` (`None`: an open edge; both `None`: a
    /// debt-free account, which has no health factor at all).
    Envelope {
        /// The certified price bounds and index caps.
        envelope: &'a HfEnvelope,
        /// Lower edge of the certified band.
        floor: Option<Wad>,
        /// Upper edge of the certified band.
        ceiling: Option<Wad>,
    },
    /// The valuation lags price moves the book has synced, under the exact
    /// critical price: the account is below the liquidation threshold iff
    /// the raw oracle price of `token` is below `crit`.
    Critical {
        /// The one price the health factor depends on.
        token: Token,
        /// The raw threshold price.
        crit: u128,
    },
    /// The valuation lags a synced move with no certificate covering it —
    /// a book fault: the flush should have re-valued it.
    Uncertified,
    /// The entry is dirty, or a price or borrow index it depends on moved
    /// after the book's last sync: the next flush re-values or re-checks it,
    /// so nothing about it can be judged yet.
    Pending,
}

/// One in-book entry as [`PositionBook::audit`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditEntry<'a> {
    /// The cached valuation, as the book holds it.
    pub position: &'a Position,
    /// What keeps it valid.
    pub validity: Validity<'a>,
    /// `(market, current raw borrow index)` for every market the owning
    /// protocol accrues ([`BookSource::borrow_index`]): what an envelope's
    /// caps are checked against.
    pub borrow_indexes: &'a [(Token, u128)],
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

/// Running sums over the in-book entries of the book — token **amounts**,
/// not USD values. A filled position's collateral amounts are a function of
/// account state alone, so they change only through a re-valuation the
/// dirty set forces; a lazily stale valuation (an envelope or critical
/// price certifies its verdict) still carries exact amounts, and pricing
/// the sums at query time needs no drain. Maintained by diff: every write
/// to an entry's slot or `in_book` flag removes the old slot's contribution
/// and adds the new one.
#[derive(Debug, Clone, Default)]
struct Totals {
    /// `(token, Σ collateral amount)` over in-book entries.
    collateral: Vec<(Token, Wad)>,
    /// `(ETH or WETH, Σ collateral amount)` over in-book DAI debtors.
    dai_eth: Vec<(Token, Wad)>,
    /// Number of in-book entries.
    count: u32,
}

impl Totals {
    /// Add (`add`) or remove one in-book position's contribution. The sums
    /// never saturate at sane magnitudes, so removal undoes addition
    /// exactly.
    fn fold(&mut self, position: &Position, add: bool) {
        let dai_debtor = position.has_debt_in(Token::DAI);
        for holding in &position.collateral {
            shift(&mut self.collateral, holding.token, holding.amount, add);
            if dai_debtor && matches!(holding.token, Token::ETH | Token::WETH) {
                shift(&mut self.dai_eth, holding.token, holding.amount, add);
            }
        }
        if add {
            self.count += 1;
        } else {
            self.count -= 1;
        }
    }

    /// Price every per-token sum once at the current oracle prices.
    fn priced(&self, oracle: &PriceOracle) -> BookTotals {
        let value = |sums: &[(Token, Wad)]| {
            sums.iter().fold(Wad::ZERO, |acc, &(token, amount)| {
                let usd = amount
                    .checked_mul(oracle.price_or_zero(token))
                    .unwrap_or(Wad::MAX);
                acc.saturating_add(usd)
            })
        };
        BookTotals {
            collateral_usd: value(&self.collateral),
            dai_eth_collateral_usd: value(&self.dai_eth),
            open_positions: self.count,
        }
    }
}

/// Add `amount` to (or remove it from) `token`'s running sum.
fn shift(sums: &mut Vec<(Token, Wad)>, token: Token, amount: Wad, add: bool) {
    if let Some((_, sum)) = sums.iter_mut().find(|(summed, _)| *summed == token) {
        *sum = if add {
            sum.saturating_add(amount)
        } else {
            sum.saturating_sub(amount)
        };
    } else if add {
        sums.push((token, amount));
    }
}

/// The volume totals of an observable book computed from scratch: fold the
/// positions into per-token amount sums, then price each sum once — the
/// definition [`PositionBook::totals`] maintains incrementally, and the
/// reference the differential tests compare it against (pass
/// [`crate::LendingProtocol::reference_positions`]).
pub fn reference_totals(book: &[Position], oracle: &PriceOracle) -> BookTotals {
    let mut totals = Totals::default();
    for position in book {
        totals.fold(position, true);
    }
    totals.priced(oracle)
}

/// Per-flush global context, computed once and read by every shard's flush.
struct FlushCtx<'a> {
    /// `(token, current raw price)` for every token whose price changed since
    /// the last flush.
    changed_prices: &'a [(Token, u128)],
    /// `(token, current raw borrow index)` for every market whose index
    /// advanced since the last flush.
    index_moves: &'a [(Token, Option<u128>)],
    /// Band thresholds and the index clock.
    clock: &'a BookClock,
    /// Bring every cached valuation exact (drain lazy staleness): set when a
    /// full query finds a price or borrow index moved since the last drain.
    drain: bool,
}

/// One address-range shard: every per-account structure of the book for
/// the addresses it owns. The running sums, counters and scratch buffers
/// its upkeep writes live in the book's [`Upkeep`].
#[derive(Debug, Clone, Default)]
struct BookShard {
    entries: BTreeMap<Address, Entry>,
    /// Accounts that must re-value before *any* query (mutated since the
    /// last flush).
    dirty: BTreeSet<Address>,
    /// token → multivariate accounts with *no* certified envelope: they
    /// re-value eagerly on every price move of the token (the exact path).
    multi_unbanded: FxHashMap<Token, BTreeSet<Address>>,
    /// Cap index: token → `(certified borrow-index cap, debtor)` in cap
    /// order. An index write `I` breaks exactly the caps with `cap < I`.
    /// Each debtor sits in exactly one regime per debt token: `index_caps`
    /// or `index_uncovered`.
    index_caps: FxHashMap<Token, BTreeSet<(u128, Address)>>,
    /// token → debtors whose valuation carries *no* cap for it (no envelope:
    /// an accepted envelope caps every debt market) — re-valued on every
    /// move of the market's index.
    index_uncovered: FxHashMap<Token, BTreeSet<Address>>,
    /// token → (critical raw price → accounts); liquidatable ⇔ price < crit.
    critical: FxHashMap<Token, BTreeMap<u128, BTreeSet<Address>>>,
    /// Interval index, lower edges: token → `(envelope lo bound, banded
    /// holder)` in bound order, one pair per bounded holder. A price write
    /// `p` breaks exactly the bounds with `lo > p`.
    env_lo: FxHashMap<Token, BTreeSet<(u128, Address)>>,
    /// Interval index, upper edges: token → `(envelope hi bound, banded
    /// holder)`. A price write `p` breaks exactly the bounds with `hi < p`.
    env_hi: FxHashMap<Token, BTreeSet<(u128, Address)>>,
    /// Liquidatable accounts among the non-indexed population.
    live: BTreeSet<Address>,
    /// Non-indexed observable-book accounts in an at-risk band (below
    /// `rescue` or above `releverage`) — the banded borrower-management
    /// iteration set.
    at_risk: BTreeSet<Address>,
}

/// What every shard's upkeep writes besides its own maps: the running
/// amount sums, the counters and the reusable scratch buffers. It lives once
/// per book, beside the shards, so a freshen can hold one `&mut Entry` of a
/// shard's map and this at the same time, and a split moves no sums and no
/// counters.
#[derive(Debug, Clone, Default)]
struct Upkeep {
    totals: Totals,
    /// Always-on invariant failures (see [`BookStats::stale_violations`]).
    stale_violations: u64,
    revaluations: u64,
    /// Re-valuations avoided because an envelope held.
    envelope_skips: u64,
    /// Accounts the invalidation pass examined one by one.
    envelope_checks: u64,
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
    scratch_envelope: HfEnvelope,
}

impl Upkeep {
    /// Cheap freshening of one lazily stale entry whose verdict bookkeeping
    /// provably cannot have changed, in place: an envelope-held account
    /// whose certified envelope covers the current prices and indexes
    /// rebuilds its position via `fill_position`, keeping the band verdict,
    /// envelope and every index membership. Keeps the running amount sums
    /// in step with the slot. Returns `false` when the precondition fails —
    /// always for a critical-price account, which carries no envelope —
    /// with the sums still consistent with the slot; the caller then takes
    /// the full revalue path ([`BookShard::revalue`]).
    fn light_refresh<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        clock: &BookClock,
        address: Address,
        entry: &mut Entry,
    ) -> bool {
        // The certified envelope must cover the *current* oracle prices and
        // borrow indexes. An accepted envelope bounds every sensitive token
        // and caps every debt market (`revalue` refuses one that does not),
        // so these are all its conditions.
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
        // From here the slot is rebuilt in place; every bail-out path below
        // hands over to `revalue`, which re-fills from scratch anyway. The
        // running sums follow the slot across the rebuild, so `revalue`
        // finds them consistent with it.
        let in_book = entry.in_book;
        if in_book {
            self.totals.fold(&entry.position, false);
        }
        let filled = source.fill_position(oracle, address, &mut entry.position);
        if in_book {
            self.totals.fold(&entry.position, true);
        }
        if !filled || source.in_book(&entry.position) != in_book {
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

        self.revaluations += 1;
        self.light_refreshes += 1;
        entry.valued_epoch = oracle.epoch();
        entry.index_epoch = clock.index_epoch;
        true
    }
}

impl BookShard {
    // ------------------------------------------------------------------ flush

    /// Fold this shard's share of the pending invalidations into
    /// re-valuations. Touches no other shard.
    fn flush<S: BookSource>(
        &mut self,
        upkeep: &mut Upkeep,
        source: &S,
        oracle: &PriceOracle,
        ctx: &FlushCtx<'_>,
    ) {
        if !self.dirty.is_empty() || !ctx.changed_prices.is_empty() || !ctx.index_moves.is_empty() {
            let mut batch = std::mem::take(&mut upkeep.scratch_addresses);
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
                upkeep.envelope_skips += bounded.saturating_sub(broken_bounded) as u64;
                if let Some(holders) = self.multi_unbanded.get(&token) {
                    batch.extend(holders.iter().copied());
                }
            }
            // Index moves, the same way: the cap index turns "whose cap does
            // this accrual break?" into one range scan plus the debtors that
            // carry no cap. Every debtor sits in exactly one of the two
            // regimes, so the survivors are the capped debtors the scan did
            // not return. A market with no index to compare caps against
            // breaks every cap.
            for &(token, current) in ctx.index_moves {
                let broken_below = current.map_or(Bound::Unbounded, |index| {
                    Bound::Excluded((index, Address::ZERO))
                });
                let mut broken_capped = 0usize;
                let caps = self.index_caps.get(&token);
                if let Some(caps) = caps {
                    for &(_, address) in caps.range((Bound::Unbounded, broken_below)) {
                        broken_capped += 1;
                        batch.push(address);
                    }
                }
                let capped = caps.map_or(0, BTreeSet::len);
                upkeep.envelope_skips += capped.saturating_sub(broken_capped) as u64;
                if let Some(holders) = self.index_uncovered.get(&token) {
                    batch.extend(holders.iter().copied());
                }
            }
            batch.extend(self.dirty.iter().copied());
            self.dirty.clear();
            batch.sort_unstable();
            batch.dedup();
            upkeep.envelope_checks += batch.len() as u64;
            for &address in &batch {
                self.revalue(upkeep, source, oracle, address, ctx.clock);
            }
            upkeep.scratch_grows += (batch.capacity() > batch_cap) as u64;
            upkeep.scratch_addresses = batch;
        }

        if ctx.drain {
            // Freshen the valuations the indexes left lazily stale, read off
            // each entry's own epochs in one address-order pass that
            // freshens each entry in place. Their band verdicts never went
            // stale. The accounts the light path declines take the full
            // revalue after the pass; each account's freshening reads
            // and writes only its own entry and memberships, so the split
            // into two passes changes no valuation.
            let mut declined = std::mem::take(&mut upkeep.scratch_addresses);
            let declined_cap = declined.capacity();
            declined.clear();
            for (&address, entry) in &mut self.entries {
                if !entry.is_stale(oracle, ctx.clock) {
                    continue;
                }
                if !upkeep.light_refresh(source, oracle, ctx.clock, address, entry) {
                    declined.push(address);
                } else if entry.is_stale(oracle, ctx.clock) {
                    // The always-on stale invariant (see
                    // `check_stale_invariant`), checked in place.
                    upkeep.stale_violations += 1;
                    declined.push(address);
                }
            }
            for &address in &declined {
                self.revalue(upkeep, source, oracle, address, ctx.clock);
            }
            self.check_stale_invariant(upkeep, source, oracle, ctx.clock, &declined);
            upkeep.scratch_grows += (declined.capacity() > declined_cap) as u64;
            upkeep.scratch_addresses = declined;
        }
    }

    /// The always-on stale invariant: after a full drain, no valuation may
    /// lag a price or index epoch. Checks the accounts the drain just
    /// re-valued (the drain checks the ones it freshened in place itself),
    /// so the healthy path costs no extra walk; a lagging one is counted —
    /// the band-differential harness asserts the counter stays zero — and
    /// repaired by a full revalue, so the book cannot keep serving it.
    fn check_stale_invariant<S: BookSource>(
        &mut self,
        upkeep: &mut Upkeep,
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
                upkeep.stale_violations += 1;
                self.revalue(upkeep, source, oracle, address, clock);
            }
        }
    }

    // ----------------------------------------------------------- revaluation

    /// Hand one account's entry to `visit`, freshened first if its
    /// valuation lags: one entry lookup unless the light path declines and
    /// the full revalue runs. An account without an entry is
    /// not visited.
    fn visit_fresh<S: BookSource>(
        &mut self,
        upkeep: &mut Upkeep,
        source: &S,
        oracle: &PriceOracle,
        clock: &BookClock,
        address: Address,
        visit: impl FnOnce(&Entry),
    ) {
        let Some(entry) = self.entries.get_mut(&address) else {
            return;
        };
        if !entry.is_stale(oracle, clock)
            || upkeep.light_refresh(source, oracle, clock, address, entry)
        {
            visit(entry);
            return;
        }
        self.revalue(upkeep, source, oracle, address, clock);
        if let Some(entry) = self.entries.get(&address) {
            visit(entry);
        }
    }

    /// Re-value one account and fold the delta into every derived structure.
    fn revalue<S: BookSource>(
        &mut self,
        upkeep: &mut Upkeep,
        source: &S,
        oracle: &PriceOracle,
        address: Address,
        clock: &BookClock,
    ) {
        upkeep.revaluations += 1;
        let entry = self
            .entries
            .entry(address)
            .or_insert_with(|| Entry::new(address));
        let old_in_book = entry.in_book;
        let old_critical = entry.critical;
        let old_tokens = std::mem::take(&mut entry.tokens);
        let old_debt_list = std::mem::take(&mut entry.debt_tokens);
        let old_envelope = entry.envelope.take();

        // Drop the account's old membership from every exposure index; the
        // fresh valuation re-inserts below. Membership is exclusive: banded
        // accounts live in the interval index, other multivariate ones in
        // `multi_unbanded`, and critical-price accounts in neither (the
        // critical index watches them).
        if old_critical.is_none() {
            if let Some(env) = &old_envelope {
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
        }
        for &token in &old_debt_list {
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

        let mut new_tokens = std::mem::take(&mut upkeep.scratch_tokens);
        let mut new_debt_tokens = std::mem::take(&mut upkeep.scratch_debt_tokens);
        new_tokens.clear();
        new_debt_tokens.clear();
        // Recycle the previous envelope's buffers for the new derivation.
        let mut envelope = match old_envelope {
            Some(env) => env,
            None => std::mem::take(&mut upkeep.scratch_envelope),
        };
        envelope.clear();

        // The running sums drop the old slot's contribution before the
        // slot is rebuilt and take the new one once `in_book` is known.
        if old_in_book {
            upkeep.totals.fold(&entry.position, false);
        }
        let exists = source.fill_position(oracle, address, &mut entry.position);
        let mut liquidatable = false;
        let mut band = HfBand::Quiet;
        // The band an envelope certifies; `None` for a debt-free account,
        // which has no health factor at any price.
        let mut certified = None;
        let mut banded = false;
        if exists {
            source.sensitive_tokens(&entry.position, &mut new_tokens);
            source.debt_tokens(&entry.position, &mut new_debt_tokens);
            let critical = source.critical_price(address, &entry.position);
            liquidatable = critical.is_none() && entry.position.is_liquidatable();
            if critical.is_none() {
                let (rescue, releverage) = clock.bands;
                match entry.position.health_factor() {
                    None if entry.position.debt.is_empty() => {
                        // A debt-free account has no health factor at *any*
                        // price: certify it with unbounded conditions, so
                        // price moves only stale its valuation lazily.
                        for &token in new_tokens.iter() {
                            envelope.price_bounds.push((token, 0, u128::MAX));
                        }
                        banded = true;
                    }
                    // A debtor whose debt is valued at zero (a debt token
                    // priced 0) has no health factor only at these prices:
                    // it rides the exact path, so the next price write
                    // re-values it.
                    None => {}
                    Some(hf) => {
                        band = HfBand::classify(hf, rescue, releverage);
                        certified = Some(band);
                        let (floor, ceiling) = band.edges(rescue, releverage);
                        let derive_start = std::time::Instant::now();
                        let derived = source.hf_envelope(
                            oracle,
                            &entry.position,
                            floor,
                            ceiling,
                            &mut envelope,
                        );
                        upkeep.envelope_derives += 1;
                        upkeep.envelope_derive_nanos += derive_start.elapsed().as_nanos() as u64;
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
            entry.critical = critical;
            entry.band = certified;
            entry.valued_epoch = oracle.epoch();
            entry.index_epoch = clock.index_epoch;
        }
        let new_in_book = exists && entry.in_book;
        if new_in_book {
            upkeep.totals.fold(&entry.position, true);
        }
        let new_critical = if exists { entry.critical } else { None };
        if banded {
            entry.envelope = Some(envelope);
        } else {
            upkeep.scratch_envelope = envelope;
        }

        // Re-insert the fresh membership into the exposure indexes.
        if exists {
            if new_critical.is_none() {
                if let Some(env) = &entry.envelope {
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
            }
            for &token in &new_debt_tokens {
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

        if exists {
            entry.tokens = new_tokens;
            entry.debt_tokens = new_debt_tokens;
            // Recycle the previous exposure buffers as scratch space.
            upkeep.scratch_tokens = old_tokens;
            upkeep.scratch_debt_tokens = old_debt_list;
        } else {
            self.entries.remove(&address);
            upkeep.scratch_tokens = new_tokens;
            upkeep.scratch_debt_tokens = new_debt_tokens;
        }
    }

    // --------------------------------------------------------------- queries

    /// Visit this shard's liquidatable accounts (live set ∪ critical-price
    /// range scans) in address order, freshening each visited valuation.
    fn visit_liquidatable<S: BookSource>(
        &mut self,
        upkeep: &mut Upkeep,
        source: &S,
        oracle: &PriceOracle,
        clock: &BookClock,
        visit: &mut dyn FnMut(&Position),
    ) {
        // Gather into the book's address scratch rather than a fresh set
        // (discovery runs every tick). Sorting + dedup reproduces the
        // set-union order exactly: both inputs are iterated in ascending
        // address order.
        let mut found = std::mem::take(&mut upkeep.scratch_addresses);
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
        // Freshening what discovery hands out cannot change the verdict
        // (same state, same prices — and for accounts an envelope
        // certified, the band is certified).
        for &address in &found {
            self.visit_fresh(upkeep, source, oracle, clock, address, |entry| {
                visit(&entry.position)
            });
        }
        upkeep.scratch_grows += (found.capacity() > found_cap) as u64;
        upkeep.scratch_addresses = found;
    }

    /// Visit this shard's at-risk members in address order, freshening each
    /// visited valuation.
    fn visit_at_risk<S: BookSource>(
        &mut self,
        upkeep: &mut Upkeep,
        source: &S,
        oracle: &PriceOracle,
        clock: &BookClock,
        visit: &mut dyn FnMut(&Position),
    ) {
        let mut batch = std::mem::take(&mut upkeep.scratch_addresses);
        let batch_cap = batch.capacity();
        batch.clear();
        batch.extend(self.at_risk.iter().copied());
        // Freshening cannot change the verdict: the account either
        // re-valued in the flush above or its envelope certifies the band —
        // so the light refresh applies whenever the envelope still covers
        // current prices, and the full revalue otherwise.
        for &address in &batch {
            self.visit_fresh(upkeep, source, oracle, clock, address, |entry| {
                if entry.in_book {
                    visit(&entry.position);
                }
            });
        }
        upkeep.scratch_grows += (batch.capacity() > batch_cap) as u64;
        upkeep.scratch_addresses = batch;
    }
}

/// The incremental cache each [`crate::LendingProtocol`] implementation owns.
/// See the module docs for the invalidation contract and the sharding
/// layout.
#[derive(Debug, Clone)]
pub struct PositionBook {
    /// One shard until the book outgrows it, then [`BOOK_SHARD_COUNT`].
    shards: Vec<BookShard>,
    /// Running sums, counters and scratch buffers of every shard's upkeep.
    upkeep: Upkeep,
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
            shards: vec![BookShard::default()],
            upkeep: Upkeep::default(),
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

    /// The index of the shard owning `account` in the current layout.
    fn shard_index(&self, account: &Address) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            shard_of(account)
        }
    }

    fn shard_mut(&mut self, account: &Address) -> Option<&mut BookShard> {
        let index = self.shard_index(account);
        self.shards.get_mut(index)
    }

    /// Mark one account for re-valuation (every protocol mutation that
    /// touches the account must call this). The mark that brings a
    /// one-shard book to 4,096 accounts splits it into
    /// [`BOOK_SHARD_COUNT`] shards, before any flush re-values them.
    pub fn mark_dirty(&mut self, account: Address) {
        if let Some(shard) = self.shard_mut(&account) {
            shard.dirty.insert(account);
        }
        if self.outgrown() {
            self.split();
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
            shard.dirty.extend(shard.entries.keys().copied());
        }
    }

    /// Cache-maintenance counters: the gauges folded over the shards, the
    /// counters read off the book's upkeep.
    pub fn stats(&self) -> BookStats {
        let upkeep = &self.upkeep;
        let mut stats = BookStats {
            shards: self.shards.len(),
            revaluations: upkeep.revaluations,
            envelope_skips: upkeep.envelope_skips,
            envelope_checks: upkeep.envelope_checks,
            stale_violations: upkeep.stale_violations,
            light_refreshes: upkeep.light_refreshes,
            envelope_derives: upkeep.envelope_derives,
            envelope_derive_nanos: upkeep.envelope_derive_nanos,
            scratch_grows: upkeep.scratch_grows,
            flush_count: self.flush_count,
            flush_nanos: self.flush_nanos,
            visit_nanos: self.visit_nanos,
            ..BookStats::default()
        };
        for shard in &self.shards {
            stats.cached_accounts += shard.entries.len();
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
        }
        stats
    }

    /// The cached snapshot of one account, if it is in the cache. Exact only
    /// after a refreshing query ([`for_each_position`](Self::for_each_position),
    /// [`for_each_liquidatable`](Self::for_each_liquidatable), …).
    pub fn cached_position(&self, account: Address) -> Option<&Position> {
        self.shards
            .get(self.shard_index(&account))
            .and_then(|shard| shard.entries.get(&account))
            .map(|e| &e.position)
    }

    // ------------------------------------------------------------------ flush

    /// Whether the one shard of an unsplit book holds, with its pending
    /// dirty accounts, [`SPLIT_AT`] accounts or more. Only a dirty mark can
    /// bring a new account into a book, so [`mark_dirty`](Self::mark_dirty)
    /// is the one place that asks.
    fn outgrown(&self) -> bool {
        let (1, Some(shard)) = (self.shards.len(), self.shards.first()) else {
            return false;
        };
        shard.entries.len() + shard.dirty.len() >= SPLIT_AT
    }

    /// Split the one shard into [`BOOK_SHARD_COUNT`] address-range shards by
    /// `shard_of`. Only structures move: every entry keeps its valuation
    /// and epochs, and the running sums and counters live in the upkeep, so
    /// the split re-values nothing and changes no counter.
    fn split(&mut self) {
        let split = (0..BOOK_SHARD_COUNT)
            .map(|_| BookShard::default())
            .collect();
        let Some(whole) = std::mem::replace(&mut self.shards, split).pop() else {
            return;
        };
        for (address, entry) in whole.entries {
            if let Some(shard) = self.shard_mut(&address) {
                shard.entries.insert(address, entry);
            }
        }
        self.spread_set(whole.dirty, |shard| &mut shard.dirty);
        self.spread_set(whole.live, |shard| &mut shard.live);
        self.spread_set(whole.at_risk, |shard| &mut shard.at_risk);
        self.spread_index(
            whole.multi_unbanded,
            |account| account,
            |shard| &mut shard.multi_unbanded,
        );
        self.spread_index(
            whole.index_uncovered,
            |account| account,
            |shard| &mut shard.index_uncovered,
        );
        self.spread_index(
            whole.index_caps,
            |(_, account)| account,
            |shard| &mut shard.index_caps,
        );
        self.spread_index(
            whole.env_lo,
            |(_, account)| account,
            |shard| &mut shard.env_lo,
        );
        self.spread_index(
            whole.env_hi,
            |(_, account)| account,
            |shard| &mut shard.env_hi,
        );
        for (token, map) in whole.critical {
            for (crit, accounts) in map {
                for account in accounts {
                    if let Some(shard) = self.shard_mut(&account) {
                        shard
                            .critical
                            .entry(token)
                            .or_default()
                            .entry(crit)
                            .or_default()
                            .insert(account);
                    }
                }
            }
        }
    }

    /// Move every account of an address set into the shard owning it.
    fn spread_set(
        &mut self,
        set: BTreeSet<Address>,
        field: fn(&mut BookShard) -> &mut BTreeSet<Address>,
    ) {
        for account in set {
            if let Some(shard) = self.shard_mut(&account) {
                field(shard).insert(account);
            }
        }
    }

    /// Move every member of a per-token index into the shard owning it.
    fn spread_index<T: Ord>(
        &mut self,
        index: FxHashMap<Token, BTreeSet<T>>,
        owner: fn(&T) -> &Address,
        field: fn(&mut BookShard) -> &mut FxHashMap<Token, BTreeSet<T>>,
    ) {
        for (token, members) in index {
            for member in members {
                if let Some(shard) = self.shard_mut(owner(&member)) {
                    field(shard).entry(token).or_default().insert(member);
                }
            }
        }
    }

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
        let mut index_tokens = std::mem::take(&mut self.pending_index_tokens);

        if rewind {
            // The book is being driven by a different (or rewound) oracle
            // instance: nothing can be trusted, so every account re-values
            // as dirty at the current prices and indexes below.
            index_tokens.clear();
            self.invalidate_all();
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
        }
        // A full query drains only when a price or borrow index moved since
        // the last drain, so a repeated one costs nothing.
        let drain = full
            && (epoch > self.full_synced_epoch
                || self.clock.index_epoch > self.full_synced_index_epoch);
        if drain {
            self.full_synced_epoch = epoch;
            self.full_synced_index_epoch = self.clock.index_epoch;
        }

        let any_work = rewind
            || !changed_prices.is_empty()
            || !index_moves.is_empty()
            || drain
            || self.shards.iter().any(|shard| !shard.dirty.is_empty());
        if any_work {
            let flush_start = std::time::Instant::now();
            let ctx = FlushCtx {
                changed_prices: &changed_prices,
                index_moves: &index_moves,
                clock: &self.clock,
                drain,
            };
            for shard in &mut self.shards {
                shard.flush(&mut self.upkeep, source, oracle, &ctx);
            }
            self.flush_count += 1;
            self.flush_nanos += flush_start.elapsed().as_nanos() as u64;
        }

        index_tokens.clear();
        self.pending_index_tokens = index_tokens;
        self.scratch_changed = changed;
        self.scratch_prices = changed_prices;
        self.scratch_index_moves = index_moves;
    }

    // --------------------------------------------------------------- queries

    /// Visit every in-book entry in address order **without flushing**,
    /// each with what keeps its cached valuation valid ([`Validity`]).
    /// Nothing is re-valued and no counter moves, so an audited run does
    /// exactly the book work of an unaudited one: the audit checks the lazy
    /// banded state the run relies on, not a drain of it.
    ///
    /// Accounts marked dirty but never valued have no entry yet and are not
    /// visited; entries a pending mark or an unsynced move will change are
    /// reported [`Validity::Pending`]. `source` is read for the current
    /// borrow indexes only.
    pub fn audit<S: BookSource>(
        &self,
        source: &S,
        oracle: &PriceOracle,
        visit: &mut dyn FnMut(&AuditEntry<'_>),
    ) {
        let mut indexes = [(Token::ETH, 0u128); Token::ALL.len()];
        let mut markets = 0;
        for token in Token::ALL {
            if let (Some(index), Some(slot)) =
                (source.borrow_index(token), indexes.get_mut(markets))
            {
                *slot = (token, index);
                markets += 1;
            }
        }
        let borrow_indexes = indexes.get(..markets).unwrap_or_default();
        // A rewound oracle makes the next flush re-value the whole book.
        let rewound = oracle.epoch() < self.synced_epoch;
        for shard in &self.shards {
            for (address, entry) in &shard.entries {
                if !entry.in_book {
                    continue;
                }
                let dirty = rewound || shard.dirty.contains(address);
                visit(&AuditEntry {
                    position: &entry.position,
                    validity: entry.validity(
                        oracle,
                        &self.clock,
                        self.synced_epoch,
                        &self.pending_index_tokens,
                        dirty,
                    ),
                    borrow_indexes,
                });
            }
        }
    }

    /// Bring every cached valuation up to date and visit the observable
    /// book in place, in address order — byte-identical to the legacy
    /// from-scratch rebuild, without re-valuing untouched accounts or
    /// cloning any position.
    pub fn for_each_position<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        visit: &mut dyn FnMut(&Position),
    ) {
        self.flush(source, oracle, true);
        for shard in &self.shards {
            for entry in shard.entries.values().filter(|e| e.in_book) {
                visit(&entry.position);
            }
        }
    }

    /// Volume totals over the observable book from the running amount sums:
    /// each token's total amount is priced once at the current oracle
    /// price. The banded flush suffices — lazily stale valuations carry
    /// exact amounts — so sampling re-values only what discovery would.
    ///
    /// Rounding happens once per token, not once per holding: the result
    /// is [`reference_totals`] of the observable book, which may differ
    /// from the sum of the positions' truncated `value_usd` terms by less
    /// than one raw unit (10⁻¹⁸ USD) per holding.
    pub fn totals<S: BookSource>(&mut self, source: &S, oracle: &PriceOracle) -> BookTotals {
        self.flush(source, oracle, false);
        self.upkeep.totals.priced(oracle)
    }

    /// Visit every account currently below the liquidation threshold, in
    /// address order, with its cached position freshened: the union of the
    /// per-token critical-price range scans and the incrementally maintained
    /// live set, walked in fixed shard order. Does **not** re-value accounts
    /// whose certified state a price move failed to break — the fast path a
    /// keeper loop takes every block.
    pub fn for_each_liquidatable<S: BookSource>(
        &mut self,
        source: &S,
        oracle: &PriceOracle,
        visit: &mut dyn FnMut(&Position),
    ) {
        self.flush(source, oracle, false);
        for shard in &mut self.shards {
            shard.visit_liquidatable(&mut self.upkeep, source, oracle, &self.clock, visit);
        }
    }

    /// Visit every *at-risk* observable position — health factor in
    /// `[1, rescue)` or above `releverage` — in address order, with each
    /// visited valuation freshened to current prices and indexes: the
    /// banded flush, then one fused pass over the at-risk sets. Quiet-band
    /// accounts whose envelope holds are skipped without re-valuation:
    /// this is the banded fast path of the engine's borrower-management
    /// pass, exactly equivalent to filtering a full book walk of the
    /// accounts without a critical price by health factor. Liquidatable
    /// accounts (HF below 1) are not visited: discovery hands them out.
    /// Nor is any critical-price account: it keeps no band, so it is never
    /// at risk, and a book of them (a Maker CDP book) visits nothing.
    ///
    /// Changing the thresholds re-classifies the whole book (one-off full
    /// re-valuation).
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
        self.flush(source, oracle, false);
        // One fused pass in shard order (= address order): freshen each
        // stale at-risk member, then visit it.
        let visit_start = std::time::Instant::now();
        for shard in &mut self.shards {
            shard.visit_at_risk(&mut self.upkeep, source, oracle, &self.clock, visit);
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
    #[derive(Default)]
    struct ToySource {
        accounts: BTreeMap<Address, (Wad, Wad)>, // collateral ETH, par debt
        /// Suppress critical prices: accounts then ride the multivariate
        /// (live-set) path.
        multivariate: bool,
        /// Report the DAI debt as index-accruing debt while keeping the
        /// default `borrow_index` (`None`): the no-index path of an index
        /// move.
        dai_debt: bool,
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

        fn debt_tokens(&self, position: &Position, out: &mut Vec<Token>) {
            if self.dai_debt && position.has_debt_in(Token::DAI) {
                out.push(Token::DAI);
            }
        }

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

    /// The owners [`PositionBook::for_each_liquidatable`] visits, in order.
    fn liquidatable<S: BookSource>(
        book: &mut PositionBook,
        source: &S,
        oracle: &PriceOracle,
    ) -> Vec<Address> {
        let mut owners = Vec::new();
        book.for_each_liquidatable(source, oracle, &mut |position| owners.push(position.owner));
        owners
    }

    /// The observable book [`PositionBook::for_each_position`] visits, in
    /// order.
    fn book_positions<S: BookSource>(
        book: &mut PositionBook,
        source: &S,
        oracle: &PriceOracle,
    ) -> Vec<Position> {
        let mut positions = Vec::new();
        book.for_each_position(source, oracle, &mut |position| {
            positions.push(position.clone())
        });
        positions
    }

    fn setup(n: u64) -> (ToySource, PositionBook, PriceOracle) {
        let mut source = ToySource::default();
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

    /// Insert account `seed` into the toy state: 10 ETH against a debt that
    /// spreads collateralization between 120 % and 313 %, every 13th account
    /// debt-free (it carries the unbounded debt-free envelope).
    fn add_account(source: &mut ToySource, book: &mut PositionBook, seed: u64) {
        let address = Address::from_seed(seed);
        let debt = if seed.is_multiple_of(13) {
            Wad::ZERO
        } else {
            Wad::from_f64(1_000.0 / (1.2 + (seed % 97) as f64 * 0.02))
        };
        source.accounts.insert(address, (Wad::from_int(10), debt));
        book.mark_dirty(address);
    }

    /// Compare every book surface against a from-scratch rebuild of the toy
    /// state: `for_each_position`, `for_each_liquidatable` (the toy's own
    /// liquidation rule, read off the critical price when it reports one),
    /// `for_each_at_risk` (the health-factor filter over the accounts
    /// without a critical price) and `totals`. The cheap surfaces run first, so
    /// they are checked before a full query drains the book.
    fn assert_matches_rebuild(
        book: &mut PositionBook,
        source: &ToySource,
        oracle: &PriceOracle,
        context: &str,
    ) {
        let rebuild: Vec<Position> = source
            .accounts
            .keys()
            .filter_map(|&address| {
                let mut slot = Position::new(address);
                source
                    .fill_position(oracle, address, &mut slot)
                    .then_some(slot)
            })
            .collect();
        let price = oracle.price_or_zero(Token::ETH).raw();
        let expected_liquidatable: Vec<Position> = rebuild
            .iter()
            .filter(|p| match source.critical_price(p.owner, p) {
                Some((_, crit)) => price < crit,
                None => p.is_liquidatable(),
            })
            .cloned()
            .collect();
        let (rescue, releverage) = (
            Wad::from_f64(RESCUE_BAND_HF),
            Wad::from_f64(RELEVERAGE_BAND_HF),
        );
        let expected_at_risk: Vec<Position> = rebuild
            .iter()
            .filter(|p| source.critical_price(p.owner, p).is_none())
            .filter(|p| {
                p.health_factor()
                    .is_some_and(|hf| hf >= Wad::ONE && (hf < rescue || hf > releverage))
            })
            .cloned()
            .collect();

        assert_eq!(
            book.totals(source, oracle),
            reference_totals(&rebuild, oracle),
            "{context}: totals"
        );
        let mut liquidatable = Vec::new();
        book.for_each_liquidatable(source, oracle, &mut |p| liquidatable.push(p.clone()));
        assert_eq!(liquidatable, expected_liquidatable, "{context}: discovery");
        let mut at_risk = Vec::new();
        book.for_each_at_risk(source, oracle, rescue, releverage, &mut |p| {
            at_risk.push(p.clone())
        });
        assert_eq!(at_risk, expected_at_risk, "{context}: at-risk visit");
        assert_eq!(
            book_positions(book, source, oracle),
            rebuild,
            "{context}: book positions"
        );
        assert_eq!(book.stats().stale_violations, 0, "{context}");
    }

    /// A book grown past `SPLIT_AT` in steps, with price writes, index
    /// moves and mutations between the steps, splits in the step that
    /// brings it to the threshold and answers every query like a
    /// from-scratch rebuild before and after, on the critical-price path
    /// and the multivariate one.
    #[test]
    fn a_growing_book_splits_once_and_matches_a_rebuild_throughout() {
        for multivariate in [false, true] {
            let mut source = ToySource {
                multivariate,
                dai_debt: true,
                ..ToySource::default()
            };
            let mut book = PositionBook::new();
            let mut oracle = PriceOracle::new(OracleConfig::every_update());
            oracle.set_price(0, Token::ETH, Wad::from_int(100));
            let mut seeds = 0..;
            for (step, grow) in [1_500usize, 1_500, 1_000, 1_000, 500]
                .into_iter()
                .enumerate()
            {
                let block = step as u64 + 1;
                for seed in seeds.by_ref().take(grow) {
                    add_account(&mut source, &mut book, seed);
                }
                // Mutate a few existing accounts: one repays, one closes.
                let repaid = Address::from_seed(block * 7);
                if let Some(account) = source.accounts.get_mut(&repaid) {
                    account.1 = Wad::ZERO;
                }
                book.mark_dirty(repaid);
                let closed = Address::from_seed(block * 11);
                source.accounts.remove(&closed);
                book.mark_dirty(closed);
                let prices = [92.0, 121.0, 88.0, 104.0, 79.0];
                let eth = prices.get(step).copied().unwrap_or(100.0);
                oracle.set_price(block, Token::ETH, Wad::from_f64(eth));
                book.note_index_change(Token::DAI);

                let context = format!("multivariate {multivariate}, step {step}");
                let expect_split = source.accounts.len() >= SPLIT_AT;
                assert_matches_rebuild(&mut book, &source, &oracle, &context);
                let expected_shards = if expect_split { BOOK_SHARD_COUNT } else { 1 };
                assert_eq!(book.stats().shards, expected_shards, "{context}");

                // A price write nobody is dirty for: the lazy paths serve it.
                oracle.set_price(block, Token::ETH, Wad::from_f64(eth * 1.01));
                assert_matches_rebuild(&mut book, &source, &oracle, &context);
            }
            assert_eq!(book.stats().shards, BOOK_SHARD_COUNT);
        }
    }

    /// The work counters of a book, by name.
    fn work_counters(stats: &BookStats) -> [(&'static str, u64); 6] {
        [
            ("revaluations", stats.revaluations),
            ("envelope_skips", stats.envelope_skips),
            ("envelope_checks", stats.envelope_checks),
            ("light_refreshes", stats.light_refreshes),
            ("envelope_derives", stats.envelope_derives),
            ("stale_violations", stats.stale_violations),
        ]
    }

    /// The split moves structures only: called directly on a book holding
    /// lazily stale valuations, liquidatable and at-risk accounts and
    /// pending dirty marks, it re-values nothing and leaves every counter
    /// as it was. The split book then answers every query — first with
    /// nothing but the dirty marks pending, so discovery and the at-risk
    /// visit read the moved sets, then after a price write, then after an
    /// index move — and counts every later re-valuation exactly like its
    /// unsplit twin.
    #[test]
    fn the_split_revalues_nothing_and_keeps_every_counter() {
        for multivariate in [false, true] {
            let mut source = ToySource {
                multivariate,
                dai_debt: true,
                ..ToySource::default()
            };
            let mut book = PositionBook::new();
            let mut oracle = PriceOracle::new(OracleConfig::every_update());
            oracle.set_price(0, Token::ETH, Wad::from_int(100));
            for seed in 0..600 {
                add_account(&mut source, &mut book, seed);
            }
            book_positions(&mut book, &source, &oracle);
            // Lazy staleness: a price write served by discovery only.
            oracle.set_price(1, Token::ETH, Wad::from_int(90));
            book.for_each_liquidatable(&source, &oracle, &mut |_| {});
            for seed in 600..650 {
                add_account(&mut source, &mut book, seed);
            }

            let mut unsplit = book.clone();
            let before = book.stats();
            book.split();
            let after = book.stats();
            assert_eq!((before.shards, after.shards), (1, BOOK_SHARD_COUNT));
            assert_eq!(
                BookStats {
                    shards: before.shards,
                    ..after
                },
                before,
                "the split changed a counter or gauge"
            );

            for pending in ["dirty marks", "a price write", "an index move"] {
                let context = format!("multivariate {multivariate}, after {pending}");
                match pending {
                    "a price write" => oracle.set_price(2, Token::ETH, Wad::from_int(95)),
                    "an index move" => {
                        book.note_index_change(Token::DAI);
                        unsplit.note_index_change(Token::DAI);
                    }
                    _ => {}
                }
                assert_matches_rebuild(&mut book, &source, &oracle, &context);
                assert_matches_rebuild(&mut unsplit, &source, &oracle, &context);
                assert_eq!(
                    work_counters(&book.stats()),
                    work_counters(&unsplit.stats()),
                    "{context}: the split book counted different work"
                );
            }
            let stats = book.stats();
            assert!(stats.live_accounts + stats.indexed_accounts > 0);
            assert!(stats.at_risk_accounts > 0 || !multivariate);
            assert_eq!(unsplit.stats().shards, 1);
        }
    }

    #[test]
    fn range_scan_flags_exactly_the_crossed_accounts() {
        let (source, mut book, mut oracle) = setup(20);
        assert!(liquidatable(&mut book, &source, &oracle).is_empty());
        // Drop ETH until some collateralizations fall below 150 %.
        oracle.set_price(1, Token::ETH, Wad::from_int(90));
        let flagged = liquidatable(&mut book, &source, &oracle);
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
        liquidatable(&mut book, &source, &oracle);
        let after_build = book.stats().revaluations;
        assert_eq!(after_build, 50);
        // A small move that crosses nobody (the tightest account's critical
        // price is ≈ 99.93): discovery re-values nothing.
        oracle.set_price(1, Token::ETH, Wad::from_f64(99.95));
        assert!(liquidatable(&mut book, &source, &oracle).is_empty());
        assert_eq!(book.stats().revaluations, after_build);
        // A crossing move re-values exactly the returned accounts.
        oracle.set_price(2, Token::ETH, Wad::from_int(88));
        let flagged = liquidatable(&mut book, &source, &oracle);
        assert!(!flagged.is_empty());
        assert_eq!(
            book.stats().revaluations,
            after_build + flagged.len() as u64
        );
        // A full snapshot then freshens the remaining stale valuations once.
        let positions = book_positions(&mut book, &source, &oracle);
        assert_eq!(positions.len(), 50);
        assert_eq!(book.stats().revaluations, after_build + 50);
        // …and a repeated snapshot re-values nothing at all.
        let again = book_positions(&mut book, &source, &oracle);
        assert_eq!(again, positions);
        assert_eq!(book.stats().revaluations, after_build + 50);
    }

    /// A source without a borrow index gives an index move no caps to
    /// compare against: every debtor re-values, on the critical-price path
    /// and on the multivariate one alike, and the next full query finds
    /// nothing left to freshen.
    #[test]
    fn index_moves_without_a_borrow_index_revalue_every_debtor() {
        for multivariate in [false, true] {
            let (mut source, mut book, oracle) = setup(12);
            source.multivariate = multivariate;
            source.dai_debt = true;
            assert!(liquidatable(&mut book, &source, &oracle).is_empty());
            let built = book.stats().revaluations;
            assert_eq!(built, 12);
            book.note_index_change(Token::DAI);
            assert!(liquidatable(&mut book, &source, &oracle).is_empty());
            assert_eq!(book.stats().revaluations, built + 12);
            book_positions(&mut book, &source, &oracle);
            assert_eq!(book.stats().revaluations, built + 12);
            assert_eq!(book.stats().stale_violations, 0);
        }
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

    /// Totals round once per token: at a non-round price, two holdings
    /// whose truncated `value_usd` terms each drop half a raw unit sum to
    /// one unit less than the per-token product, and the book reports the
    /// per-token product — exactly the reference.
    #[test]
    fn totals_round_once_per_token() {
        let mut source = ToySource::default();
        let mut book = PositionBook::new();
        // 10 ETH plus one raw unit each, at 3,000.5 USD: each holding is
        // worth 30,005 USD plus 3,000.5 raw units, truncated to 3,000.
        let collateral = Wad::from_raw(10_000_000_000_000_000_001);
        for seed in 0..2 {
            let address = Address::from_seed(seed);
            source
                .accounts
                .insert(address, (collateral, Wad::from_int(1_000)));
            book.mark_dirty(address);
        }
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_raw(3_000_500_000_000_000_000_000));
        let totals = book.totals(&source, &oracle);
        let positions = book_positions(&mut book, &source, &oracle);
        let per_holding = positions
            .iter()
            .map(Position::total_collateral_value)
            .fold(Wad::ZERO, Wad::saturating_add);
        assert_eq!(per_holding, Wad::from_raw(60_010_000_000_000_000_006_000));
        let expected = Wad::from_raw(60_010_000_000_000_000_006_001);
        assert_eq!(totals, reference_totals(&positions, &oracle));
        assert_eq!(totals.collateral_usd, expected);
        // The toy debt is DAI, so every holder counts in the DAI/ETH sum.
        assert_eq!(totals.dai_eth_collateral_usd, expected);
        assert_eq!(totals.open_positions, 2);
    }

    /// A critical-price account keeps no band, so it is never at risk:
    /// after a price move the walk over a book of them visits nothing and
    /// re-values nothing, though the health-factor filter finds accounts
    /// in the rescue band. The multivariate twin, whose accounts are
    /// banded, visits exactly that filtered set.
    #[test]
    fn indexed_accounts_are_never_at_risk() {
        for multivariate in [false, true] {
            let (mut source, mut book, mut oracle) = setup(20);
            source.multivariate = multivariate;
            book_positions(&mut book, &source, &oracle);
            oracle.set_price(1, Token::ETH, Wad::from_int(95));
            let rescue = Wad::from_f64(RESCUE_BAND_HF);
            let releverage = Wad::from_f64(RELEVERAGE_BAND_HF);
            let before = book.stats().revaluations;
            let mut seen = Vec::new();
            book.for_each_at_risk(&source, &oracle, rescue, releverage, &mut |position| {
                seen.push(position.owner)
            });
            let revalued = book.stats().revaluations - before;
            let filtered: Vec<Address> = book_positions(&mut book, &source, &oracle)
                .into_iter()
                .filter(|p| {
                    p.health_factor()
                        .is_some_and(|hf| hf >= Wad::ONE && (hf < rescue || hf > releverage))
                })
                .map(|p| p.owner)
                .collect();
            assert!(!filtered.is_empty());
            assert!(filtered.len() < 20, "some accounts must be quiet");
            if multivariate {
                assert_eq!(seen, filtered);
            } else {
                assert_eq!(seen, Vec::<Address>::new());
                assert_eq!(revalued, 0, "the walk re-valued a critical-price account");
            }
        }
    }

    #[test]
    fn oracle_rewind_is_detected_and_invalidates_everything() {
        let (source, mut book, mut oracle) = setup(5);
        oracle.set_price(1, Token::ETH, Wad::from_int(120));
        book_positions(&mut book, &source, &oracle);
        let baseline = book.stats().revaluations;
        // A *different* oracle instance whose epoch sits behind the one the
        // book synced to: the book cannot trust any cached valuation.
        let mut other = PriceOracle::new(OracleConfig::every_update());
        other.set_price(0, Token::ETH, Wad::from_int(250));
        assert!(other.epoch() < oracle.epoch());
        let positions = book_positions(&mut book, &source, &other);
        assert_eq!(book.stats().revaluations, baseline + 5);
        assert!(positions
            .iter()
            .all(|p| p.total_collateral_value() == Wad::from_int(2_500)));
        // The always-on stale invariant never fired.
        assert_eq!(book.stats().stale_violations, 0);
    }

    /// Satellite regression: a collateral valuation too large for the
    /// fixed-point range must saturate *upward*, never collapse to zero — an
    /// overflow previously zeroed the collateral value and could flag a
    /// massively over-collateralized account as liquidatable.
    #[test]
    fn extreme_prices_saturate_collateral_value_upward() {
        let mut source = ToySource {
            multivariate: true,
            ..ToySource::default()
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
        let positions = book_positions(&mut book, &source, &oracle);
        assert_eq!(positions.len(), 1);
        assert_eq!(
            positions[0].total_collateral_value(),
            Wad::MAX,
            "overflowed collateral value must saturate upward"
        );
        assert!(
            liquidatable(&mut book, &source, &oracle).is_empty(),
            "a saturated (astronomically healthy) account must not be flagged"
        );
        assert_eq!(book.stats().stale_violations, 0);
    }
}
