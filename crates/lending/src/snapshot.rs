//! Immutable, self-contained snapshots of the observable position book.
//!
//! A [`BookSnapshot`] is the read-side face of the risk service: the write
//! side exports one per tick from its incremental [`PositionBook`] (positions,
//! valuations, health-factor bands, the per-token critical-price index and
//! the certified band envelopes, all priced at a single oracle state), wraps
//! it in an `Arc` and swaps it into a shared slot. Reader threads then answer
//! point lookups, band listings and what-if stress queries against the frozen
//! copy with no locks on the simulation loop.
//!
//! The headline query is [`BookSnapshot::breach_under`] — "which accounts
//! breach HF 1 if `token` moves by `shock_bps`?" (the knife-edge sensitivity
//! question of Figure 8). It answers from the indexes where they apply:
//!
//! * **critical-price** accounts (single-price, e.g. Maker CDPs) compare the
//!   shocked raw price against the exact critical price — no re-valuation;
//! * accounts **not sensitive** to the shocked token keep their current band
//!   verdict;
//! * accounts whose **certified envelope** contains the shocked price keep
//!   their band verdict (the envelope certifies the band for any price inside
//!   its inclusive bounds while every other input is at the snapshot state);
//! * only the remainder is re-projected exactly.
//!
//! [`BookSnapshot::breach_under_reference`] is the shortcut-free shadow: a
//! from-scratch re-projection of *every* account at the shocked price. The
//! differential tests assert the two agree on every query.
//!
//! All breach math is integer-only: the shocked price is derived with
//! [`mul_div_floor`] on basis points and projections reuse the exact checked
//! [`Wad`] operations the live valuation uses.
//!
//! [`PositionBook`]: crate::book::PositionBook

use std::collections::BTreeMap;
use std::sync::Arc;

use defi_core::position::Position;
use defi_types::{mul_div_floor, Address, Token, Wad};

use crate::book::{shard_of, BookStats, BookTotals};

/// Health-factor band of one snapshot entry, delimited by 1 and the book's
/// (`rescue`, `releverage`) thresholds — the public mirror of the book's
/// internal band classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotBand {
    /// HF < 1.
    Liquidatable,
    /// 1 ≤ HF < rescue.
    Rescue,
    /// rescue ≤ HF ≤ releverage, or no debt (no health factor at all).
    Quiet,
    /// HF > releverage.
    Releverage,
}

impl SnapshotBand {
    /// Classify a health factor against the given thresholds (`None` — no
    /// debt — is quiet).
    pub fn classify(hf: Option<Wad>, rescue: Wad, releverage: Wad) -> SnapshotBand {
        match hf {
            None => SnapshotBand::Quiet,
            Some(hf) if hf < Wad::ONE => SnapshotBand::Liquidatable,
            Some(hf) if hf < rescue => SnapshotBand::Rescue,
            Some(hf) if hf > releverage => SnapshotBand::Releverage,
            Some(_) => SnapshotBand::Quiet,
        }
    }

    /// Whether the borrower-management pass must see accounts in this band.
    pub fn at_risk(self) -> bool {
        !matches!(self, SnapshotBand::Quiet)
    }
}

/// One account's frozen state inside a [`BookSnapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// The full valuation snapshot (exact at the snapshot's prices).
    pub position: Position,
    /// Σ collateral USD value.
    pub collateral_usd: Wad,
    /// Σ debt USD value.
    pub debt_usd: Wad,
    /// Health factor at the snapshot's prices (`None`: no debt).
    pub health_factor: Option<Wad>,
    /// Band classification of `health_factor`.
    pub band: SnapshotBand,
    /// Tokens whose oracle price this valuation depends on (par-valued debt,
    /// e.g. Maker's DAI, is *not* price-sensitive).
    pub sensitive: Vec<Token>,
    /// Exact critical price of a single-price account: liquidatable iff the
    /// raw price of the token is strictly below the bound.
    pub critical: Option<(Token, u128)>,
    /// Inclusive raw-price bounds per sensitive token within which `band`
    /// provably holds (empty: no certified envelope).
    pub envelope_bounds: Vec<(Token, u128, u128)>,
}

/// Which shortcut answered each account of a [`BookSnapshot::breach_under`]
/// query (observability for the envelope-powered fast paths).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreachPaths {
    /// Answered by the critical-price comparison.
    pub critical: usize,
    /// Answered by the current band (not sensitive to the shocked token).
    pub insensitive: usize,
    /// Answered by the current band (shocked price inside the certified
    /// envelope bound).
    pub envelope: usize,
    /// Re-projected exactly.
    pub revalued: usize,
}

/// Result of a what-if stress query.
#[derive(Debug, Clone)]
pub struct BreachReport {
    /// Accounts below HF 1 at the shocked price, in address order.
    pub breached: Vec<Address>,
    /// The shocked price the query evaluated (wad USD).
    pub shocked_price: Wad,
    /// How each account was answered.
    pub paths: BreachPaths,
}

/// One address-range shard of a [`BookSnapshot`], frozen behind its own
/// `Arc` so consecutive snapshots share the allocation whenever the live
/// shard did not change (`Arc::ptr_eq` across snapshots ⇒ bit-identical
/// contents).
#[derive(Debug, Clone, Default)]
pub struct ShardSnapshot {
    pub(crate) entries: BTreeMap<Address, SnapshotEntry>,
}

impl ShardSnapshot {
    /// Iterate this shard's entries in address order.
    pub fn entries(&self) -> impl Iterator<Item = (&Address, &SnapshotEntry)> {
        self.entries.iter()
    }

    /// Number of positions frozen in this shard.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether this shard holds no positions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An immutable, self-contained snapshot of one protocol's observable book.
///
/// Constructed by [`PositionBook::snapshot`](crate::book::PositionBook::snapshot)
/// (index-carrying, per-shard `Arc`-cached); all queries take `&self` and
/// allocate nothing shared, so any number of threads can read one snapshot
/// concurrently. Entries live in
/// [`BOOK_SHARD_COUNT`](crate::book::BOOK_SHARD_COUNT) fixed
/// address-range shards concatenated in ascending order, so iteration is
/// still globally address-ordered.
#[derive(Debug, Clone)]
pub struct BookSnapshot {
    pub(crate) shards: Vec<Arc<ShardSnapshot>>,
    pub(crate) totals: BookTotals,
    pub(crate) prices: BTreeMap<Token, Wad>,
    pub(crate) rescue: Wad,
    pub(crate) releverage: Wad,
    /// Cache-maintenance and phase-timing counters of the producing book at
    /// freeze time — lets read-side observers report tick-phase breakdowns
    /// without a handle on the live book.
    pub stats: BookStats,
}

impl BookSnapshot {
    /// The frozen address-range shards in ascending order. Consecutive
    /// snapshots return pointer-equal `Arc`s for shards nothing touched in
    /// between — the reader-side contract the `RiskService` tests assert.
    pub fn shards(&self) -> &[Arc<ShardSnapshot>] {
        &self.shards
    }

    /// Number of positions in the snapshot.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.entries.len()).sum()
    }

    /// Whether the snapshot holds no positions.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.entries.is_empty())
    }

    /// Aggregate totals over the snapshot (frozen copy of the book's running
    /// sums — the threaded consistency tests recompute them from the entries).
    pub fn totals(&self) -> BookTotals {
        self.totals
    }

    /// The (rescue, releverage) band thresholds the entries are classified by.
    pub fn band_thresholds(&self) -> (Wad, Wad) {
        (self.rescue, self.releverage)
    }

    /// The oracle price the snapshot was valued at (zero when the token never
    /// priced).
    pub fn price(&self, token: Token) -> Wad {
        self.prices.get(&token).copied().unwrap_or(Wad::ZERO)
    }

    /// Iterate every entry in address order (shards are concatenated in
    /// ascending address-range order).
    pub fn entries(&self) -> impl Iterator<Item = (&Address, &SnapshotEntry)> {
        self.shards.iter().flat_map(|shard| shard.entries.iter())
    }

    /// Point lookup of one account (routed to its owning shard).
    pub fn entry(&self, account: Address) -> Option<&SnapshotEntry> {
        self.shards
            .get(shard_of(&account))
            .and_then(|shard| shard.entries.get(&account))
    }

    /// Point lookup of one account's position.
    pub fn position(&self, account: Address) -> Option<&Position> {
        self.entry(account).map(|e| &e.position)
    }

    /// Accounts in one band, in address order.
    pub fn band(&self, band: SnapshotBand) -> Vec<Address> {
        self.entries()
            .filter(|(_, e)| e.band == band)
            .map(|(address, _)| *address)
            .collect()
    }

    /// Accounts below HF 1 at the snapshot's prices, in address order.
    pub fn liquidatable(&self) -> Vec<Address> {
        self.band(SnapshotBand::Liquidatable)
    }

    /// Visit every at-risk entry (any band other than quiet) in address
    /// order.
    pub fn for_each_at_risk(&self, visit: &mut dyn FnMut(&Address, &SnapshotEntry)) {
        for (address, entry) in self.entries() {
            if entry.band.at_risk() {
                visit(address, entry);
            }
        }
    }

    /// The snapshot price of `token` moved by `shock_bps` basis points
    /// (−800 = −8 %), floored at the −100 % clamp: a shock at or below
    /// −10000 bps yields exactly zero, never a negative (wrapped) scale.
    /// Integer-exact above the clamp: `price · (10000 + bps) / 10000`
    /// rounded down.
    pub fn shocked_price(&self, token: Token, shock_bps: i32) -> Wad {
        let base = self.price(token);
        // Clamp *before* any cast: `10_000 + shock_bps` is negative for
        // shocks below −100 %, and a price cannot go negative.
        let scale = 10_000i64.saturating_add(i64::from(shock_bps)).max(0);
        let Ok(scale) = u128::try_from(scale) else {
            return Wad::ZERO;
        };
        if scale == 0 {
            return Wad::ZERO;
        }
        Wad::from_raw(mul_div_floor(base.raw(), scale, 10_000).unwrap_or(u128::MAX))
    }

    /// What-if stress query: every account that would sit below HF 1 if the
    /// oracle price of `token` moved by `shock_bps` basis points while every
    /// other input stayed at the snapshot state. Served off the
    /// critical-price and envelope indexes where they apply; the remainder is
    /// re-projected exactly (see the module docs for the decision ladder).
    pub fn breach_under(&self, token: Token, shock_bps: i32) -> BreachReport {
        let shocked = self.shocked_price(token, shock_bps);
        let mut paths = BreachPaths::default();
        let mut breached = Vec::new();
        for (address, entry) in self.entries() {
            if self.entry_breaches(entry, token, shocked, &mut paths) {
                breached.push(*address);
            }
        }
        BreachReport {
            breached,
            shocked_price: shocked,
            paths,
        }
    }

    /// The shortcut-free shadow of [`breach_under`](BookSnapshot::breach_under):
    /// re-projects **every** account at the shocked price, ignoring the
    /// critical-price and envelope indexes. The differential tests assert
    /// `breach_under(t, bps).breached == breach_under_reference(t, bps)` —
    /// this is the from-scratch re-valuation the indexes must agree with.
    pub fn breach_under_reference(&self, token: Token, shock_bps: i32) -> Vec<Address> {
        let shocked = self.shocked_price(token, shock_bps);
        self.entries()
            .filter(|(_, entry)| project_breach(entry, token, shocked))
            .map(|(address, _)| *address)
            .collect()
    }

    /// Decide one entry's breach verdict via the cheapest valid path.
    fn entry_breaches(
        &self,
        entry: &SnapshotEntry,
        token: Token,
        shocked: Wad,
        paths: &mut BreachPaths,
    ) -> bool {
        if entry.debt_usd.is_zero() {
            // Debt-free accounts have no health factor to breach. Count them
            // with the insensitive path: the verdict is their current band.
            paths.insensitive = paths.insensitive.saturating_add(1);
            return false;
        }
        if let Some((critical_token, critical_raw)) = entry.critical {
            // Single-price account: liquidatable iff the effective raw price
            // of its critical token is strictly below the exact bound.
            paths.critical = paths.critical.saturating_add(1);
            let effective = if critical_token == token {
                shocked
            } else {
                self.price(critical_token)
            };
            return effective.raw() < critical_raw;
        }
        if !entry.sensitive.contains(&token) {
            // The valuation does not read the shocked price at all.
            paths.insensitive = paths.insensitive.saturating_add(1);
            return entry.band == SnapshotBand::Liquidatable;
        }
        let in_envelope = entry
            .envelope_bounds
            .iter()
            .find(|(t, _, _)| *t == token)
            .is_some_and(|&(_, lo, hi)| shocked.raw() >= lo && shocked.raw() <= hi);
        if in_envelope {
            // The certified envelope bounds the band for any price of the
            // shocked token inside [lo, hi] while every other input is at the
            // snapshot state — exactly this query's premise.
            paths.envelope = paths.envelope.saturating_add(1);
            return entry.band == SnapshotBand::Liquidatable;
        }
        paths.revalued = paths.revalued.saturating_add(1);
        project_breach(entry, token, shocked)
    }
}

/// Exact projection of one entry's health factor at the shocked price:
/// holdings of the shocked token are re-valued `amount · price'` when the
/// entry is price-sensitive to it, every other holding keeps its snapshot
/// valuation — the same checked/saturating fold the live [`Position`]
/// valuation uses. Returns whether the projected HF sits below 1.
///
/// Overflow saturates toward the true (astronomically large) value on both
/// sides of the ratio: a collateral product too big for the range must not
/// collapse to zero (spurious breach), and a debt product too big must not
/// collapse to zero either (spuriously *healthy*).
fn project_breach(entry: &SnapshotEntry, token: Token, shocked: Wad) -> bool {
    let reprice = entry.sensitive.contains(&token);
    let mut capacity = Wad::ZERO;
    let mut debt = Wad::ZERO;
    for holding in &entry.position.collateral {
        let value = if reprice && holding.token == token {
            holding.amount.checked_mul(shocked).unwrap_or(Wad::MAX)
        } else {
            holding.value_usd
        };
        let weighted = value
            .checked_mul(holding.liquidation_threshold)
            .unwrap_or(Wad::MAX);
        capacity = capacity.saturating_add(weighted);
    }
    for holding in &entry.position.debt {
        let value = if reprice && holding.token == token {
            holding.amount.checked_mul(shocked).unwrap_or(Wad::MAX)
        } else {
            holding.value_usd
        };
        debt = debt.saturating_add(value);
    }
    if debt.is_zero() {
        return false;
    }
    let hf = capacity.checked_div(debt).unwrap_or(Wad::MAX);
    hf < Wad::ONE
}
