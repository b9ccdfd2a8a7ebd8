//! The generic atomic fixed-spread lending pool (§3.2.2).
//!
//! Aave V1, Aave V2, Compound and dYdX all follow the same shape: a pool of
//! markets, over-collateralized borrowing limited by per-market liquidation
//! thresholds, and a public `liquidationCall` that lets anyone repay part of
//! an unhealthy position's debt in exchange for collateral at a discount (the
//! liquidation spread), up to the close factor. [`FixedSpreadProtocol`] is
//! that engine; the per-platform differences (markets listed, spreads, close
//! factor, insurance fund) are configuration — see [`crate::platforms`].

use std::collections::BTreeMap;

use defi_chain::{ChainEvent, Ledger, LiquidationEvent};
use defi_core::params::RiskParams;
use defi_core::position::{CollateralHolding, DebtHolding, Position};
use defi_oracle::PriceOracle;
use defi_types::{
    mul_div_ceil, mul_div_floor, Address, BlockNumber, FxHashMap, Platform, Token, Wad, WAD,
};

use crate::book::{AuditEntry, BookSource, BookStats, BookTotals, HfEnvelope, PositionBook};
use crate::error::ProtocolError;
use crate::interest::{utilization, BorrowIndex, InterestRateModel};
use crate::protocol::{
    LendingProtocol, LiquidationExecution, LiquidationRequest, MechanismKind, Opportunity,
};

/// Protocol-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct FixedSpreadConfig {
    /// The platform identity used for events and reports.
    pub platform: Platform,
    /// Close factor CF: the maximum proportion of a debt repayable in one
    /// liquidation (0.5 on Aave/Compound, 1.0 on dYdX).
    pub close_factor: Wad,
    /// Enable the §5.2.3 mitigation: a position may only be liquidated once
    /// per block.
    pub one_liquidation_per_block: bool,
    /// Whether an insurance fund absorbs under-collateralized (Type I)
    /// positions, as dYdX does (§4.4.2).
    pub insurance_fund: bool,
    /// Residual scaled debt (raw 18-decimal units) below which a repayment is
    /// treated as full and written off: interest-index truncation can leave a
    /// few raw units behind an otherwise complete repayment, and such dust
    /// positions would linger in the book with an unrepresentable health
    /// factor. The same tolerance absorbs close-factor rounding dust on
    /// liquidation requests. [`DEFAULT_DEBT_DUST`] (10⁻¹⁵ tokens) reproduces
    /// the paper setup; dust-sensitivity experiments can dial it.
    pub debt_dust: Wad,
}

/// One listed market.
#[derive(Debug, Clone)]
pub struct Market {
    /// The market's underlying token.
    pub token: Token,
    /// Liquidation threshold LT of collateral in this token.
    pub liquidation_threshold: Wad,
    /// Liquidation spread LS when seizing collateral in this token.
    pub liquidation_spread: Wad,
    /// Interest-rate model of the borrow side.
    pub rate_model: InterestRateModel,
    /// Cash available in the pool (deposits + repayments − borrows − seized collateral).
    pub available_liquidity: Wad,
    /// Total scaled (index-adjusted) debt across borrowers.
    pub total_scaled_debt: Wad,
    /// Borrow-index accrual state.
    pub index: BorrowIndex,
}

impl Market {
    fn new(
        token: Token,
        params: RiskParams,
        rate_model: InterestRateModel,
        block: BlockNumber,
    ) -> Self {
        Market {
            token,
            liquidation_threshold: params.liquidation_threshold,
            liquidation_spread: params.liquidation_spread,
            rate_model,
            available_liquidity: Wad::ZERO,
            total_scaled_debt: Wad::ZERO,
            index: BorrowIndex::new(block),
        }
    }

    /// Total outstanding debt (scaled debt × index).
    pub fn total_debt(&self) -> Wad {
        self.index.scale_up(self.total_scaled_debt)
    }

    /// Current utilization of the market.
    pub fn utilization(&self) -> f64 {
        utilization(self.available_liquidity, self.total_debt())
    }

    /// Accrue up to `block`; returns whether the borrow index actually moved
    /// (the owning pool's valuation cache invalidates the market's debtors
    /// exactly when it did).
    fn accrue(&mut self, block: BlockNumber) -> bool {
        let before = self.index.index;
        let u = self.utilization();
        self.index.accrue(&self.rate_model, u, block);
        self.index.index != before
    }
}

/// Per-account state: raw collateral amounts and scaled debt amounts.
#[derive(Debug, Clone, Default)]
struct Account {
    collateral: BTreeMap<Token, Wad>,
    scaled_debt: BTreeMap<Token, Wad>,
}

impl Account {
    fn is_empty(&self) -> bool {
        self.collateral.values().all(|v| v.is_zero())
            && self.scaled_debt.values().all(|v| v.is_zero())
    }
}

/// Result of a successful `liquidation_call`.
#[derive(Debug, Clone)]
pub struct LiquidationReceipt {
    /// Debt actually repaid (token units; may be lower than requested when
    /// capped by the close factor or the available collateral).
    pub debt_repaid: Wad,
    /// USD value of the repaid debt at the settlement prices.
    pub debt_repaid_usd: Wad,
    /// Collateral seized (token units).
    pub collateral_seized: Wad,
    /// USD value of the seized collateral.
    pub collateral_seized_usd: Wad,
    /// Health factor of the position after the liquidation, if debt remains.
    pub health_factor_after: Option<Wad>,
}

impl LiquidationReceipt {
    /// Liquidator profit before transaction fees (USD).
    pub fn gross_profit_usd(&self) -> Wad {
        self.collateral_seized_usd
            .saturating_sub(self.debt_repaid_usd)
    }
}

/// Default residual-scaled-debt write-off threshold (raw 18-decimal units,
/// i.e. 10⁻¹⁵ tokens) — see [`FixedSpreadConfig::debt_dust`].
pub const DEFAULT_DEBT_DUST: Wad = Wad::from_raw(1_000);

/// The fixed-spread lending pool.
#[derive(Debug, Clone)]
pub struct FixedSpreadProtocol {
    config: FixedSpreadConfig,
    /// Ledger account holding the pool's funds.
    pub pool_address: Address,
    markets: BTreeMap<Token, Market>,
    accounts: FxHashMap<Address, Account>,
    last_liquidation_block: FxHashMap<Address, BlockNumber>,
    /// Cumulative debt written off by the insurance fund (USD, diagnostics).
    pub insurance_written_off: Wad,
    /// Incremental valuation cache (see [`crate::book`]).
    book: PositionBook,
}

/// Borrow-view of the pool state handed to the [`PositionBook`]: the book is
/// a sibling field, so re-valuations read the pool through this view while
/// the book itself is mutated.
struct FixedSpreadView<'a> {
    platform: Platform,
    markets: &'a BTreeMap<Token, Market>,
    accounts: &'a FxHashMap<Address, Account>,
}

impl BookSource for FixedSpreadView<'_> {
    fn fill_position(&self, oracle: &PriceOracle, account: Address, slot: &mut Position) -> bool {
        let Some(state) = self.accounts.get(&account) else {
            return false;
        };
        if state.is_empty() {
            // The legacy `positions()` rebuild skips emptied accounts.
            return false;
        }
        fill_position_from(self.platform, self.markets, state, oracle, account, slot)
    }

    fn in_book(&self, position: &Position) -> bool {
        // The observable book reports accounts that actually borrow.
        !position.total_debt_value().is_zero()
    }

    fn sensitive_tokens(&self, position: &Position, out: &mut Vec<Token>) {
        for holding in &position.collateral {
            if !out.contains(&holding.token) {
                out.push(holding.token);
            }
        }
        for holding in &position.debt {
            if !out.contains(&holding.token) {
                out.push(holding.token);
            }
        }
    }

    fn debt_tokens(&self, position: &Position, out: &mut Vec<Token>) {
        for holding in &position.debt {
            if !out.contains(&holding.token) {
                out.push(holding.token);
            }
        }
    }

    fn critical_price(&self, _account: Address, _position: &Position) -> Option<(Token, u128)> {
        // A fixed-spread health factor is never a function of one price
        // alone: collateral and debt tokens are valued at floating oracle
        // prices, and the borrow index accrues per block — a single-token
        // position (same collateral and debt asset) has a price-independent
        // HF anyway. The dirty/live-set path is the exact mechanism here; the
        // critical-price index serves par-debt mechanisms (Maker).
        None
    }

    fn borrow_index(&self, token: Token) -> Option<u128> {
        self.markets.get(&token).map(|m| m.index.index.raw())
    }

    fn hf_envelope(
        &self,
        oracle: &PriceOracle,
        position: &Position,
        floor: Option<Wad>,
        ceiling: Option<Wad>,
        out: &mut HfEnvelope,
    ) -> bool {
        derive_hf_envelope(self.markets, oracle, position, floor, ceiling, out)
    }
}

/// Relative shrink applied to the band margins before sizing an envelope.
/// Every certified verdict therefore keeps a margin of at least
/// `GUARD × HF` to its band edge, which dwarfs the fixed-point rounding of
/// the health-factor evaluation for positions above
/// [`ENVELOPE_VALUE_FLOOR`] by several orders of magnitude.
const ENVELOPE_GUARD: f64 = 1e-6;

/// Smallest relative slack worth certifying: a narrower envelope would be
/// violated by almost any price write, so the account rides the exact path.
const MIN_ENVELOPE_SLACK: f64 = 1e-6;

/// Raw-Wad floor (10⁻⁶ USD) on both the borrowing capacity and the debt
/// value below which an envelope is refused: truncation in the fixed-point
/// valuation of microscopic positions could rival the guard band, so dust
/// rides the exact path.
const ENVELOPE_VALUE_FLOOR: u128 = 1_000_000_000_000;

/// Share of each side's slack that a stablecoin price takes. Any share in
/// `(0, 1]` keeps [`derive_hf_envelope`] sound, because the weight that
/// sizes the value-weighted share also sizes the token's own bound; the
/// constant only moves envelope width between factors. Stablecoins trade
/// pegged near $1 (§4.5.2), so a quarter of the slack rarely binds, and
/// the volatile collateral they are borrowed against keeps the rest.
const STABLE_SLACK_SHARE: f64 = 0.25;

/// Share of the floor-side slack that each borrow index takes. Sound for
/// any share in `(0, 1]` for the same reason as [`STABLE_SLACK_SHARE`]. An
/// index grows only by accrued interest, a small fraction of a percent
/// between derivations, so a sixteenth of the slack rarely binds.
const INDEX_SLACK_SHARE: f64 = 0.0625;

/// Derive a conservative health-factor band envelope for a fixed-spread
/// position, from the same quantities
/// [`fill_position`](crate::BookSource::fill_position) computed
/// (`fill_position_from`): per-token price bounds and per-market borrow-index
/// caps within which the health factor provably stays strictly inside
/// `(floor, ceiling)`.
///
/// The argument is monotone interval arithmetic on Eq. 4, applied once per
/// direction. Write `B = Σ cᵢ·pᵢ·LTᵢ` (borrowing capacity) and
/// `D = Σ dⱼ·Iⱼ/I⁰ⱼ·pⱼ` (debt value, with each borrow index only ever
/// growing). Each factor takes a fixed share of the slack: a price takes
/// weight `w = 1`, or `STABLE_SLACK_SHARE` for a stablecoin, and each
/// borrow index takes `k` = `INDEX_SLACK_SHARE`. The value-weighted
/// shares `ω_B = Σ cᵢ·pᵢ·LTᵢ·wᵢ / B` and `ω_D = Σ dⱼ·pⱼ·wⱼ / D` (rounded
/// up and clamped to 1: a larger share only narrows the envelope) then
/// bound how far each side can move. The derivation sizes two relative
/// slacks, each against the one band edge its moves push toward:
///
/// * `x` bounds every move *toward the floor* — collateral price `i` down
///   by `x·wᵢ`, debt price `j` up by `x·wⱼ`, each borrow index up to
///   `I·(1+x·k)` — so `B' ≥ B·(1−x·ω_B)` and `D' ≤ D·(1+x·ω_D)·(1+x·k)`,
///   and it suffices that `(1+x·ω_D)(1+x·k)/(1−x·ω_B) ≤ HF/floor · (1−g)`;
/// * `y` bounds every move *toward the ceiling* — collateral prices up by
///   `y·wᵢ`, debt prices down by `y·wⱼ` (the index never falls) — so
///   `HF' ≤ HF · (1+y·ω_B)/(1−y·ω_D)`, and it suffices that
///   `(1+y·ω_B)/(1−y·ω_D) ≤ ceiling/HF · (1−g)`
///
/// (guard `g` = `ENVELOPE_GUARD`). With `w ≡ 1` and `k = 1` both reduce to
/// the uniform worst case `(1+x)²/(1−x)` and `(1+y)/(1−y)`. The weights
/// move the floor budget onto the volatile collateral, the factor that
/// actually pushes a position toward liquidation (Perez et al.,
/// *Liquidations: DeFi on a Knife-edge*), without weakening the proof:
/// every weight that sizes a share also sizes that token's bound.
///
/// Collateral bounds are therefore `[p−⌊p·x·w⌋, p+⌊p·y·w⌋]`, debt bounds
/// `[p−⌊p·y·w⌋, p+⌊p·x·w⌋]`, and a token held on both sides takes the
/// intersection of its two bounds, which keeps each side's moves within
/// its own slack. Each index cap is `I+⌊I·x·k⌋`. A knife-edge account just
/// above its floor thus keeps a wide bound in the direction its floor never
/// limits. Each slack is found by halving from 25 % and then refined upward
/// by a six-step binary search (the inequalities are monotone, so every
/// probe that passes is certified by the same proof), and the integer
/// bounds are rounded *inward* ([`mul_div_floor`] on the delta), so
/// certification only ever narrows the real-valued envelope. A band with no
/// floor needs no index caps at all: accrual only pushes the health factor
/// down. Returns `false` (exact path) when the position is too close to a
/// band edge, too small, or holds a token without a listed market.
///
/// # Collateral-free bad debt
///
/// A position whose collateral was seized in full but whose debt remains
/// (the paper's Type I bad debt) has borrowing capacity zero, so its health
/// factor is `Some(0)` at *any* price and index as long as some debt value
/// stays positive. With no floor to protect, such a position is certified
/// without interval arithmetic: every index cap is `u128::MAX` (accrual only
/// grows the debt), and each debt token gets the bounds `[lo, u128::MAX]`,
/// where `lo = ⌈WAD / amount⌉` is the smallest raw price at which the
/// truncating `amount × price` stays above zero. A dust holding whose value
/// already truncates to zero — `lo` above the current price — is refused.
pub fn derive_hf_envelope(
    markets: &BTreeMap<Token, Market>,
    oracle: &PriceOracle,
    position: &Position,
    floor: Option<Wad>,
    ceiling: Option<Wad>,
    out: &mut HfEnvelope,
) -> bool {
    out.clear();
    if floor.is_none() && position.collateral.is_empty() {
        return certify_collateral_free(oracle, position, out);
    }
    let capacity = position.borrowing_capacity();
    let debt = position.total_debt_value();
    if capacity.raw() < ENVELOPE_VALUE_FLOOR || debt.raw() < ENVELOPE_VALUE_FLOOR {
        return false;
    }
    // `Position::health_factor` on the sums just taken: the floor makes the
    // debt non-zero.
    let hf = capacity.checked_div(debt).unwrap_or(Wad::MAX).to_f64();
    let margin_up = match ceiling {
        Some(c) => {
            if hf <= 0.0 {
                // Unreachable given the value floor above; if a future HF
                // representation could get here, ride the exact path rather
                // than certify a ceiling with an unbounded margin.
                return false;
            }
            (c.to_f64() / hf) * (1.0 - ENVELOPE_GUARD)
        }
        None => f64::INFINITY,
    };
    let margin_down = match floor {
        Some(f) if !f.is_zero() => (hf / f.to_f64()) * (1.0 - ENVELOPE_GUARD),
        _ => f64::INFINITY,
    };
    let weight = |token: Token| {
        if token.is_stablecoin() {
            STABLE_SLACK_SHARE
        } else {
            1.0
        }
    };
    // Rounded up and clamped to 1: a larger share only narrows the envelope.
    let share = |weighted: f64, total: f64| (weighted / total * (1.0 + 1e-12)).min(1.0);
    let (mut capacity_weighted, mut capacity_total) = (0.0, 0.0);
    for c in &position.collateral {
        let value = c.value_usd.to_f64() * c.liquidation_threshold.to_f64();
        capacity_weighted += value * weight(c.token);
        capacity_total += value;
    }
    let (mut debt_weighted, mut debt_total) = (0.0, 0.0);
    for d in &position.debt {
        let value = d.value_usd.to_f64();
        debt_weighted += value * weight(d.token);
        debt_total += value;
    }
    let omega_b = share(capacity_weighted, capacity_total);
    let omega_d = share(debt_weighted, debt_total);
    let Some(to_floor) = largest_certified_slack(|x| {
        !margin_down.is_finite()
            || (1.0 + x * omega_d) * (1.0 + x * INDEX_SLACK_SHARE) / (1.0 - x * omega_b)
                <= margin_down
    }) else {
        return false;
    };
    let Some(to_ceiling) = largest_certified_slack(|y| {
        !margin_up.is_finite() || (1.0 + y * omega_b) / (1.0 - y * omega_d) <= margin_up
    }) else {
        return false;
    };
    // Shave the raw slacks below the f64 values the inequalities were
    // verified with, so representation rounding cannot widen the envelope.
    let slack_raw = |slack: f64, share: f64| Wad::from_f64(slack * share * (1.0 - 1e-12)).raw();

    let collateral = position.collateral.iter().map(|c| {
        let w = weight(c.token);
        (c.token, slack_raw(to_floor, w), slack_raw(to_ceiling, w))
    });
    let debts = position.debt.iter().map(|d| {
        let w = weight(d.token);
        (d.token, slack_raw(to_ceiling, w), slack_raw(to_floor, w))
    });
    for (token, down_raw, up_raw) in collateral.chain(debts) {
        let price = oracle.price_or_zero(token).raw();
        let lo = price - mul_div_floor(price, down_raw, WAD).unwrap_or(0);
        let hi = price.saturating_add(mul_div_floor(price, up_raw, WAD).unwrap_or(0));
        match out.price_bounds.iter_mut().find(|(t, _, _)| *t == token) {
            // Held on both sides: each side's moves must stay within its
            // own slack.
            Some((_, held_lo, held_hi)) => {
                *held_lo = (*held_lo).max(lo);
                *held_hi = (*held_hi).min(hi);
            }
            None => out.price_bounds.push((token, lo, hi)),
        }
    }
    let index_raw = slack_raw(to_floor, INDEX_SLACK_SHARE);
    for d in &position.debt {
        let cap = if floor.is_none() {
            // Accrual only grows the debt, which cannot cross an open lower
            // edge — the index is unconstrained.
            u128::MAX
        } else {
            let Some(market) = markets.get(&d.token) else {
                out.clear();
                return false;
            };
            let index = market.index.index.raw();
            index.saturating_add(mul_div_floor(index, index_raw, WAD).unwrap_or(0))
        };
        if out.index_caps.iter().any(|(t, _)| *t == d.token) {
            continue;
        }
        out.index_caps.push((d.token, cap));
    }
    true
}

/// The largest slack in `(0, 0.45]` that `certified` accepts, found by
/// halving from 25 % and refining the first pass upward by a six-step binary
/// search over `[s, min(2·s, 0.45)]`; `None` once halving drops below
/// `MIN_ENVELOPE_SLACK`. `certified` must be monotone (true for every slack
/// below one it accepts), so each returned slack passes the check itself.
fn largest_certified_slack(certified: impl Fn(f64) -> bool) -> Option<f64> {
    let mut slack = 0.25;
    while !certified(slack) {
        slack *= 0.5;
        if slack < MIN_ENVELOPE_SLACK {
            return None;
        }
    }
    let mut lo = slack;
    let mut hi = (2.0 * slack).min(0.45);
    for _ in 0..6 {
        let mid = 0.5 * (lo + hi);
        if certified(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// The collateral-free branch of [`derive_hf_envelope`]: certify `HF = 0`
/// for as long as every debt holding's USD value stays positive.
fn certify_collateral_free(
    oracle: &PriceOracle,
    position: &Position,
    out: &mut HfEnvelope,
) -> bool {
    if position.debt.is_empty() {
        return false;
    }
    for d in &position.debt {
        // `amount × lo ≥ WAD`, so the truncating product is at least one
        // raw unit at every price from `lo` up (and saturates upward on
        // overflow in `fill_position_from`).
        let lo = mul_div_ceil(WAD, 1, d.amount.raw()).unwrap_or(u128::MAX);
        if lo > oracle.price_or_zero(d.token).raw() {
            out.clear();
            return false;
        }
        out.price_bounds.push((d.token, lo, u128::MAX));
        out.index_caps.push((d.token, u128::MAX));
    }
    true
}

/// Build `slot` in place as the account's valuation snapshot. This is *the*
/// valuation code path: the public [`FixedSpreadProtocol::position`] and the
/// incremental book both route through it, which is what keeps cached entries
/// byte-identical to from-scratch rebuilds. Returns `false` when a held
/// token's market is missing (the legacy rebuild drops such accounts).
fn fill_position_from(
    platform: Platform,
    markets: &BTreeMap<Token, Market>,
    state: &Account,
    oracle: &PriceOracle,
    account: Address,
    slot: &mut Position,
) -> bool {
    slot.owner = account;
    slot.platform = Some(platform);
    slot.collateral.clear();
    slot.debt.clear();
    for (&token, &amount) in &state.collateral {
        if amount.is_zero() {
            continue;
        }
        let Some(market) = markets.get(&token) else {
            return false;
        };
        let price = oracle.price_or_zero(token);
        slot.collateral.push(CollateralHolding {
            token,
            amount,
            // Overflow saturates toward the true (huge) value: zeroing an
            // overflowed collateral value would spuriously flag a healthy
            // whale account as liquidatable.
            value_usd: amount.checked_mul(price).unwrap_or(Wad::MAX),
            liquidation_threshold: market.liquidation_threshold,
            liquidation_spread: market.liquidation_spread,
        });
    }
    for (&token, &scaled) in &state.scaled_debt {
        if scaled.is_zero() {
            continue;
        }
        let Some(market) = markets.get(&token) else {
            return false;
        };
        let amount = market.index.scale_up(scaled);
        let price = oracle.price_or_zero(token);
        slot.debt.push(DebtHolding {
            token,
            amount,
            // Same direction rule for debt: an overflowed debt value is
            // astronomically large, so saturating up keeps the account
            // (correctly) underwater instead of wiping its debt to zero.
            value_usd: amount.checked_mul(price).unwrap_or(Wad::MAX),
        });
    }
    true
}

impl FixedSpreadProtocol {
    /// Create an empty pool for a platform.
    pub fn new(config: FixedSpreadConfig) -> Self {
        let pool_address = Address::from_label(&format!("{}-pool", config.platform.name()));
        FixedSpreadProtocol {
            config,
            pool_address,
            markets: BTreeMap::new(),
            accounts: FxHashMap::default(),
            last_liquidation_block: FxHashMap::default(),
            insurance_written_off: Wad::ZERO,
            book: PositionBook::new(),
        }
    }

    /// Split the pool into its valuation cache and the read-view the cache
    /// re-values accounts through.
    fn split_book(&mut self) -> (&mut PositionBook, FixedSpreadView<'_>) {
        (
            &mut self.book,
            FixedSpreadView {
                platform: self.config.platform,
                markets: &self.markets,
                accounts: &self.accounts,
            },
        )
    }

    /// The protocol configuration.
    pub fn config(&self) -> FixedSpreadConfig {
        self.config
    }

    /// The platform identity.
    pub fn platform(&self) -> Platform {
        self.config.platform
    }

    /// Enable or disable the one-liquidation-per-block mitigation (used by
    /// the mitigation ablation bench).
    pub fn set_one_liquidation_per_block(&mut self, enabled: bool) {
        self.config.one_liquidation_per_block = enabled;
    }

    /// List a market. Re-listing an existing token replaces its risk
    /// parameters, which changes every cached valuation's thresholds — the
    /// whole book re-values.
    ///
    /// The liquidation threshold must lie in `(0, 1]`, as on every studied
    /// platform. With every threshold at most 1 the truncating valuation
    /// gives HF ≤ CR, so an under-collateralized account is always
    /// liquidatable: the insurance write-off relies on it to find the
    /// accounts it writes off in the book's liquidatable set.
    pub fn list_market(
        &mut self,
        token: Token,
        params: RiskParams,
        rate_model: InterestRateModel,
        block: BlockNumber,
    ) {
        self.book.invalidate_all();
        self.markets
            .insert(token, Market::new(token, params, rate_model, block));
    }

    /// Listed markets.
    pub fn markets(&self) -> impl Iterator<Item = &Market> {
        self.markets.values()
    }

    /// Look up a market.
    pub fn market(&self, token: Token) -> Option<&Market> {
        self.markets.get(&token)
    }

    /// Risk parameters of a market (protocol close factor + market LT/LS).
    pub fn market_params(&self, token: Token) -> Option<RiskParams> {
        self.markets.get(&token).map(|m| RiskParams {
            liquidation_threshold: m.liquidation_threshold,
            liquidation_spread: m.liquidation_spread,
            close_factor: self.config.close_factor,
        })
    }

    /// Accrue interest in every market up to `block`. Markets whose borrow
    /// index actually moved invalidate their debtors in the valuation cache.
    pub fn accrue_all(&mut self, block: BlockNumber) {
        for (token, market) in self.markets.iter_mut() {
            if market.accrue(block) {
                self.book.note_index_change(*token);
            }
        }
    }

    fn market_mut(&mut self, token: Token) -> Result<&mut Market, ProtocolError> {
        self.markets
            .get_mut(&token)
            .ok_or(ProtocolError::MarketNotListed(token))
    }

    fn price(oracle: &PriceOracle, token: Token) -> Result<Wad, ProtocolError> {
        oracle
            .price(token)
            .ok_or(ProtocolError::MissingPrice(token))
    }

    // ----------------------------------------------------------------- user ops

    /// Deposit collateral: transfers `amount` of `token` from `account` into
    /// the pool and credits it as collateral (which also becomes lendable
    /// liquidity, as on Aave/Compound).
    pub fn deposit(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), ProtocolError> {
        if !self.markets.contains_key(&token) {
            return Err(ProtocolError::MarketNotListed(token));
        }
        ledger.transfer(account, self.pool_address, token, amount)?;
        let market = self.market_mut(token)?;
        market.available_liquidity = market.available_liquidity.saturating_add(amount);
        let entry = self
            .accounts
            .entry(account)
            .or_default()
            .collateral
            .entry(token)
            .or_insert(Wad::ZERO);
        *entry = entry.saturating_add(amount);
        self.book.mark_dirty(account);
        events.push(ChainEvent::Deposit {
            platform: self.config.platform,
            account,
            token,
            amount,
        });
        Ok(())
    }

    /// Withdraw collateral, as long as the position stays healthy.
    pub fn withdraw(
        &mut self,
        ledger: &mut Ledger,
        oracle: &PriceOracle,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), ProtocolError> {
        let held = self.collateral_of(account, token);
        if held < amount {
            return Err(ProtocolError::NoCollateralInToken(token));
        }
        {
            let market = self.market_mut(token)?;
            if market.available_liquidity < amount {
                return Err(ProtocolError::InsufficientLiquidity {
                    token,
                    requested: amount,
                    available: market.available_liquidity,
                });
            }
        }
        // Tentatively remove and check health.
        self.adjust_collateral(account, token, amount, false);
        let still_healthy = self
            .position(oracle, account)
            .map(|p| !p.is_liquidatable())
            .unwrap_or(true);
        if !still_healthy {
            // Roll back the tentative removal.
            self.adjust_collateral(account, token, amount, true);
            return Err(ProtocolError::WouldBecomeUnhealthy);
        }
        let market = self.market_mut(token)?;
        market.available_liquidity = market.available_liquidity.saturating_sub(amount);
        self.book.mark_dirty(account);
        ledger.transfer(self.pool_address, account, token, amount)?;
        Ok(())
    }

    /// Borrow `amount` of `token` against the account's collateral.
    #[allow(clippy::too_many_arguments)]
    pub fn borrow(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        block: BlockNumber,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<(), ProtocolError> {
        {
            let (index_moved, available) = {
                let market = self.market_mut(token)?;
                (market.accrue(block), market.available_liquidity)
            };
            if index_moved {
                // Recorded before any error path: the accrual persisted.
                self.book.note_index_change(token);
            }
            if available < amount {
                return Err(ProtocolError::InsufficientLiquidity {
                    token,
                    requested: amount,
                    available,
                });
            }
        }
        // Capacity check: existing debt + new borrow must stay within BC.
        let position = self
            .position(oracle, account)
            .unwrap_or_else(|| Position::new(account));
        let capacity = position.borrowing_capacity();
        let price = Self::price(oracle, token)?;
        let new_debt_value = amount
            .checked_mul(price)
            .map_err(|_| ProtocolError::Arithmetic)?;
        let required = position.total_debt_value().saturating_add(new_debt_value);
        if required > capacity {
            return Err(ProtocolError::ExceedsBorrowingCapacity { capacity, required });
        }

        let market = self.market_mut(token)?;
        let scaled = market.index.scale_down(amount);
        market.total_scaled_debt = market.total_scaled_debt.saturating_add(scaled);
        market.available_liquidity = market.available_liquidity.saturating_sub(amount);
        let entry = self
            .accounts
            .entry(account)
            .or_default()
            .scaled_debt
            .entry(token)
            .or_insert(Wad::ZERO);
        *entry = entry.saturating_add(scaled);
        self.book.mark_dirty(account);

        ledger.transfer(self.pool_address, account, token, amount)?;
        events.push(ChainEvent::Borrow {
            platform: self.config.platform,
            borrower: account,
            token,
            amount,
        });
        Ok(())
    }

    /// Repay `amount` of the account's `token` debt; returns the amount
    /// repaid. Repaying more than the outstanding debt (after accrual) is
    /// rejected with [`ProtocolError::RepayExceedsOutstanding`] — a typed
    /// error rather than a silent clamp, so callers repaying "everything"
    /// must read the accrued debt first.
    pub fn repay(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        block: BlockNumber,
        account: Address,
        token: Token,
        amount: Wad,
    ) -> Result<Wad, ProtocolError> {
        {
            let index_moved = {
                let market = self.market_mut(token)?;
                market.accrue(block)
            };
            if index_moved {
                self.book.note_index_change(token);
            }
        }
        let outstanding = self.debt_of(account, token);
        if outstanding.is_zero() {
            return Err(ProtocolError::NoDebtInToken(token));
        }
        if amount > outstanding {
            return Err(ProtocolError::RepayExceedsOutstanding {
                outstanding,
                requested: amount,
            });
        }
        let repaid = amount;
        ledger.transfer(account, self.pool_address, token, repaid)?;
        self.reduce_debt(account, token, repaid);
        self.book.mark_dirty(account);
        let market = self.market_mut(token)?;
        market.available_liquidity = market.available_liquidity.saturating_add(repaid);
        events.push(ChainEvent::Repay {
            platform: self.config.platform,
            borrower: account,
            token,
            amount: repaid,
        });
        Ok(repaid)
    }

    // -------------------------------------------------------------- accounting

    fn adjust_collateral(&mut self, account: Address, token: Token, amount: Wad, add: bool) {
        let entry = self
            .accounts
            .entry(account)
            .or_default()
            .collateral
            .entry(token)
            .or_insert(Wad::ZERO);
        *entry = if add {
            entry.saturating_add(amount)
        } else {
            entry.saturating_sub(amount)
        };
    }

    fn reduce_debt(&mut self, account: Address, token: Token, amount: Wad) {
        let index = match self.markets.get(&token) {
            Some(m) => m.index,
            None => return,
        };
        let scaled = index.scale_down(amount);
        let dust = self.config.debt_dust;
        let mut dust_written_off = Wad::ZERO;
        if let Some(acct) = self.accounts.get_mut(&account) {
            if let Some(entry) = acct.scaled_debt.get_mut(&token) {
                *entry = entry.saturating_sub(scaled);
                // A full repayment routed through the interest index can
                // truncate to a few raw units of residual debt. Write the
                // dust off so "fully repaid" really is zero — otherwise the
                // account lingers in the position book with sub-wei debt.
                if *entry <= dust {
                    dust_written_off = *entry;
                    *entry = Wad::ZERO;
                }
            }
        }
        if let Some(market) = self.markets.get_mut(&token) {
            market.total_scaled_debt = market
                .total_scaled_debt
                .saturating_sub(scaled.saturating_add(dust_written_off));
        }
    }

    /// Collateral held by an account in a token (token units).
    pub fn collateral_of(&self, account: Address, token: Token) -> Wad {
        self.accounts
            .get(&account)
            .and_then(|a| a.collateral.get(&token))
            .copied()
            .unwrap_or(Wad::ZERO)
    }

    /// Outstanding debt (with accrued interest) of an account in a token.
    pub fn debt_of(&self, account: Address, token: Token) -> Wad {
        let scaled = self
            .accounts
            .get(&account)
            .and_then(|a| a.scaled_debt.get(&token))
            .copied()
            .unwrap_or(Wad::ZERO);
        match self.markets.get(&token) {
            Some(market) => market.index.scale_up(scaled),
            None => Wad::ZERO,
        }
    }

    /// The valuation snapshot of one account, or `None` if the account has
    /// never interacted with the pool. Always computed from scratch — this is
    /// the reference path the incremental book is tested against.
    pub fn position(&self, oracle: &PriceOracle, account: Address) -> Option<Position> {
        let state = self.accounts.get(&account)?;
        let mut position = Position::new(account);
        fill_position_from(
            self.config.platform,
            &self.markets,
            state,
            oracle,
            account,
            &mut position,
        )
        .then_some(position)
    }

    /// Valuation snapshots of every account with a non-empty position,
    /// rebuilt from scratch (the reference path; the engine reads the
    /// incremental book through
    /// [`LendingProtocol::for_each_position`]).
    pub fn positions(&self, oracle: &PriceOracle) -> Vec<Position> {
        let mut addresses: Vec<Address> = self
            .accounts
            .iter()
            .filter(|(_, a)| !a.is_empty())
            .map(|(addr, _)| *addr)
            .collect();
        addresses.sort();
        addresses
            .into_iter()
            .filter_map(|addr| self.position(oracle, addr))
            .collect()
    }

    /// Accounts whose health factor is below 1 at current oracle prices,
    /// rebuilt from scratch (reference path for the incremental book).
    pub fn liquidatable_accounts(&self, oracle: &PriceOracle) -> Vec<Address> {
        self.positions(oracle)
            .into_iter()
            .filter(|p| p.is_liquidatable())
            .map(|p| p.owner)
            .collect()
    }

    /// Whether an account is currently liquidatable.
    pub fn is_liquidatable(&self, oracle: &PriceOracle, account: Address) -> bool {
        self.position(oracle, account)
            .map(|p| p.is_liquidatable())
            .unwrap_or(false)
    }

    // ------------------------------------------------------------- liquidation

    /// The public `liquidationCall`: repay part of `borrower`'s `debt_token`
    /// debt and seize `collateral_token` collateral at the market's spread.
    ///
    /// A repayment above the close-factor cap is rejected with
    /// [`ProtocolError::ExceedsCloseFactor`]; within the cap, the repayment
    /// shrinks only when the targeted collateral market cannot cover the
    /// claim, and the amount actually repaid is returned in the receipt.
    /// Emits a [`ChainEvent::Liquidation`].
    #[allow(clippy::too_many_arguments)]
    pub fn liquidation_call(
        &mut self,
        ledger: &mut Ledger,
        events: &mut Vec<ChainEvent>,
        oracle: &PriceOracle,
        block: BlockNumber,
        liquidator: Address,
        borrower: Address,
        debt_token: Token,
        collateral_token: Token,
        repay_amount: Wad,
        used_flash_loan: bool,
    ) -> Result<LiquidationReceipt, ProtocolError> {
        if self.config.one_liquidation_per_block
            && self.last_liquidation_block.get(&borrower) == Some(&block)
        {
            return Err(ProtocolError::AlreadyLiquidatedThisBlock);
        }
        // Accrue interest on the debt market before measuring anything.
        {
            let index_moved = {
                let market = self.market_mut(debt_token)?;
                market.accrue(block)
            };
            if index_moved {
                self.book.note_index_change(debt_token);
            }
        }
        if !self.markets.contains_key(&collateral_token) {
            return Err(ProtocolError::MarketNotListed(collateral_token));
        }
        if !self.is_liquidatable(oracle, borrower) {
            return Err(ProtocolError::NotLiquidatable(borrower));
        }
        let outstanding = self.debt_of(borrower, debt_token);
        if outstanding.is_zero() {
            return Err(ProtocolError::NoDebtInToken(debt_token));
        }
        let held_collateral = self.collateral_of(borrower, collateral_token);
        if held_collateral.is_zero() {
            return Err(ProtocolError::NoCollateralInToken(collateral_token));
        }

        let max_repay = outstanding
            .checked_mul(self.config.close_factor)
            .map_err(|_| ProtocolError::Arithmetic)?;
        // A repayment above the close-factor cap (or an empty one) is a
        // typed error, not a silent clamp: the caller's claim calculation
        // would otherwise diverge from what actually settles. Requests within
        // interest-index rounding dust of the cap (the configured
        // `debt_dust`) are the "repay exactly half the nominal borrow"
        // pattern and clamp.
        if repay_amount > max_repay.saturating_add(self.config.debt_dust) || repay_amount.is_zero()
        {
            return Err(ProtocolError::ExceedsCloseFactor {
                max_repay,
                requested: repay_amount,
            });
        }
        let mut repay = repay_amount.min(max_repay);

        let debt_price = Self::price(oracle, debt_token)?;
        let collateral_price = Self::price(oracle, collateral_token)?;
        let spread = self
            .markets
            .get(&collateral_token)
            .map(|m| m.liquidation_spread)
            .unwrap_or(Wad::ZERO);

        // Collateral to claim (Eq. 1), in token units.
        let claim_value = |repay: Wad| -> Result<Wad, ProtocolError> {
            repay
                .checked_mul(debt_price)
                .and_then(|v| v.checked_mul(Wad::ONE.saturating_add(spread)))
                .map_err(|_| ProtocolError::Arithmetic)
        };
        let mut claim_usd = claim_value(repay)?;
        let mut collateral_tokens = claim_usd
            .checked_div(collateral_price)
            .map_err(|_| ProtocolError::Arithmetic)?;
        if collateral_tokens > held_collateral {
            // Not enough collateral in this market: shrink the repayment so
            // the claim exactly exhausts the collateral.
            collateral_tokens = held_collateral;
            claim_usd = held_collateral
                .checked_mul(collateral_price)
                .map_err(|_| ProtocolError::Arithmetic)?;
            let repay_usd = claim_usd
                .checked_div(Wad::ONE.saturating_add(spread))
                .map_err(|_| ProtocolError::Arithmetic)?;
            repay = repay_usd
                .checked_div(debt_price)
                .map_err(|_| ProtocolError::Arithmetic)?;
        }

        // Settle: liquidator pays the debt into the pool…
        ledger.transfer(liquidator, self.pool_address, debt_token, repay)?;
        self.reduce_debt(borrower, debt_token, repay);
        {
            let market = self.market_mut(debt_token)?;
            market.available_liquidity = market.available_liquidity.saturating_add(repay);
        }
        // …and receives the discounted collateral out of the pool.
        ledger.transfer(
            self.pool_address,
            liquidator,
            collateral_token,
            collateral_tokens,
        )?;
        self.adjust_collateral(borrower, collateral_token, collateral_tokens, false);
        {
            let market = self.market_mut(collateral_token)?;
            market.available_liquidity =
                market.available_liquidity.saturating_sub(collateral_tokens);
        }
        self.book.mark_dirty(borrower);
        self.last_liquidation_block.insert(borrower, block);

        let debt_repaid_usd = repay
            .checked_mul(debt_price)
            .map_err(|_| ProtocolError::Arithmetic)?;
        let receipt = LiquidationReceipt {
            debt_repaid: repay,
            debt_repaid_usd,
            collateral_seized: collateral_tokens,
            collateral_seized_usd: claim_usd,
            health_factor_after: self
                .position(oracle, borrower)
                .and_then(|p| p.health_factor()),
        };
        events.push(ChainEvent::Liquidation(LiquidationEvent {
            platform: self.config.platform,
            liquidator,
            borrower,
            debt_token,
            debt_repaid: receipt.debt_repaid,
            debt_repaid_usd: receipt.debt_repaid_usd,
            collateral_token,
            collateral_seized: receipt.collateral_seized,
            collateral_seized_usd: receipt.collateral_seized_usd,
            used_flash_loan,
        }));
        Ok(receipt)
    }
}

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
        self.config.close_factor
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

    fn for_each_position(&mut self, oracle: &PriceOracle, visit: &mut dyn FnMut(&Position)) {
        let (book, view) = self.split_book();
        book.for_each_position(&view, oracle, visit);
    }

    fn audit_book(&self, oracle: &PriceOracle, visit: &mut dyn FnMut(&AuditEntry<'_>)) {
        let view = FixedSpreadView {
            platform: self.config.platform,
            markets: &self.markets,
            accounts: &self.accounts,
        };
        self.book.audit(&view, oracle, visit);
    }

    fn book_totals(&mut self, oracle: &PriceOracle) -> BookTotals {
        let (book, view) = self.split_book();
        book.totals(&view, oracle)
    }

    fn for_each_at_risk(
        &mut self,
        oracle: &PriceOracle,
        rescue: Wad,
        releverage: Wad,
        visit: &mut dyn FnMut(&Position),
    ) {
        let (book, view) = self.split_book();
        book.for_each_at_risk(&view, oracle, rescue, releverage, visit);
    }

    fn book_stats(&self) -> BookStats {
        self.book.stats()
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

    fn liquidatable_into(&mut self, oracle: &PriceOracle, out: &mut Vec<Opportunity>) {
        out.clear();
        let platform = self.config.platform;
        let (book, view) = self.split_book();
        book.for_each_liquidatable(&view, oracle, &mut |position| {
            out.push(Opportunity {
                platform,
                borrower: position.owner,
                position: position.clone(),
                mechanism: MechanismKind::FixedSpread,
            });
        });
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
                platform: self.config.platform,
            }),
        }
    }

    /// dYdX-style insurance fund: write off the debt of under-collateralized
    /// positions so that no Type I bad debt remains on the books (§4.4.2
    /// observes dYdX has none). Returns the USD value written off.
    fn write_off_insolvent_positions(&mut self, oracle: &PriceOracle) -> Wad {
        if !self.config.insurance_fund {
            return Wad::ZERO;
        }
        // With every LT at most 1 (see `list_market`), an under-collateralized
        // account is liquidatable: the book's liquidatable set, freshened
        // and in address order, holds every one.
        let (book, view) = self.split_book();
        let mut insolvent: Vec<(Address, Wad)> = Vec::new();
        book.for_each_liquidatable(&view, oracle, &mut |position| {
            if position.is_under_collateralized() {
                insolvent.push((position.owner, position.total_debt_value()));
            }
        });
        let mut written_off = Wad::ZERO;
        for (address, debt) in insolvent {
            written_off = written_off.saturating_add(debt);
            if let Some(account) = self.accounts.get_mut(&address) {
                let debts: Vec<(Token, Wad)> =
                    account.scaled_debt.iter().map(|(t, v)| (*t, *v)).collect();
                for (token, scaled) in debts {
                    account.scaled_debt.insert(token, Wad::ZERO);
                    if let Some(market) = self.markets.get_mut(&token) {
                        market.total_scaled_debt = market.total_scaled_debt.saturating_sub(scaled);
                    }
                }
            }
            self.book.mark_dirty(address);
        }
        self.insurance_written_off = self.insurance_written_off.saturating_add(written_off);
        written_off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::book::reference_totals;
    use crate::protocol::discovered;
    use defi_oracle::OracleConfig;

    fn setup() -> (FixedSpreadProtocol, Ledger, PriceOracle, Vec<ChainEvent>) {
        setup_with_insurance(false)
    }

    fn setup_with_insurance(
        insurance_fund: bool,
    ) -> (FixedSpreadProtocol, Ledger, PriceOracle, Vec<ChainEvent>) {
        let mut protocol = FixedSpreadProtocol::new(FixedSpreadConfig {
            platform: Platform::Compound,
            close_factor: Wad::from_f64(0.5),
            one_liquidation_per_block: false,
            insurance_fund,
            debt_dust: DEFAULT_DEBT_DUST,
        });
        protocol.list_market(
            Token::ETH,
            RiskParams::new(0.8, 0.10, 0.5),
            InterestRateModel::default(),
            0,
        );
        protocol.list_market(
            Token::USDC,
            RiskParams::new(0.85, 0.05, 0.5),
            InterestRateModel::stablecoin(),
            0,
        );
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
        oracle.set_price(0, Token::USDC, Wad::ONE);
        let mut ledger = Ledger::new();
        // Seed the pool with USDC lender liquidity.
        let lender = Address::from_seed(1_000);
        ledger.mint(lender, Token::USDC, Wad::from_int(1_000_000));
        let mut events = Vec::new();
        protocol
            .deposit(
                &mut ledger,
                &mut events,
                lender,
                Token::USDC,
                Wad::from_int(1_000_000),
            )
            .unwrap();
        (protocol, ledger, oracle, events)
    }

    fn paper_borrower(
        protocol: &mut FixedSpreadProtocol,
        ledger: &mut Ledger,
        oracle: &PriceOracle,
        events: &mut Vec<ChainEvent>,
    ) -> Address {
        // §3.2.2 walk-through: deposit 3 ETH at 3,500, borrow 8,400 USDC.
        let borrower = Address::from_seed(7);
        ledger.mint(borrower, Token::ETH, Wad::from_int(3));
        protocol
            .deposit(ledger, events, borrower, Token::ETH, Wad::from_int(3))
            .unwrap();
        protocol
            .borrow(
                ledger,
                events,
                oracle,
                1,
                borrower,
                Token::USDC,
                Wad::from_int(8_400),
            )
            .unwrap();
        borrower
    }

    #[test]
    fn deposit_and_borrow_follow_the_paper_walkthrough() {
        let (mut protocol, mut ledger, oracle, mut events) = setup();
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        let position = protocol.position(&oracle, borrower).unwrap();
        assert_eq!(position.total_collateral_value(), Wad::from_int(10_500));
        assert_eq!(position.borrowing_capacity(), Wad::from_int(8_400));
        assert!(!position.is_liquidatable());
        assert_eq!(ledger.balance(borrower, Token::USDC), Wad::from_int(8_400));
    }

    #[test]
    fn borrow_beyond_capacity_is_rejected() {
        let (mut protocol, mut ledger, oracle, mut events) = setup();
        let borrower = Address::from_seed(8);
        ledger.mint(borrower, Token::ETH, Wad::from_int(1));
        protocol
            .deposit(
                &mut ledger,
                &mut events,
                borrower,
                Token::ETH,
                Wad::from_int(1),
            )
            .unwrap();
        // Capacity = 3,500 * 0.8 = 2,800 USDC.
        let err = protocol
            .borrow(
                &mut ledger,
                &mut events,
                &oracle,
                1,
                borrower,
                Token::USDC,
                Wad::from_int(3_000),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::ExceedsBorrowingCapacity { .. }
        ));
        assert!(protocol
            .borrow(
                &mut ledger,
                &mut events,
                &oracle,
                1,
                borrower,
                Token::USDC,
                Wad::from_int(2_500)
            )
            .is_ok());
    }

    #[test]
    fn healthy_position_cannot_be_liquidated() {
        let (mut protocol, mut ledger, oracle, mut events) = setup();
        // A comfortably healthy borrower (capacity 8,400, debt 7,000).
        let borrower = Address::from_seed(7);
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
                Wad::from_int(7_000),
            )
            .unwrap();
        let liquidator = Address::from_seed(99);
        ledger.mint(liquidator, Token::USDC, Wad::from_int(10_000));
        let err = protocol
            .liquidation_call(
                &mut ledger,
                &mut events,
                &oracle,
                2,
                liquidator,
                borrower,
                Token::USDC,
                Token::ETH,
                Wad::from_int(4_200),
                false,
            )
            .unwrap_err();
        assert!(matches!(err, ProtocolError::NotLiquidatable(_)));
    }

    #[test]
    fn liquidation_matches_paper_walkthrough_numbers() {
        let (mut protocol, mut ledger, mut oracle, mut events) = setup();
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        // ETH declines to 3,300 USD → HF ≈ 0.94.
        oracle.set_price(2, Token::ETH, Wad::from_int(3_300));
        assert!(protocol.is_liquidatable(&oracle, borrower));

        let liquidator = Address::from_seed(99);
        ledger.mint(liquidator, Token::USDC, Wad::from_int(10_000));
        let receipt = protocol
            .liquidation_call(
                &mut ledger,
                &mut events,
                &oracle,
                2,
                liquidator,
                borrower,
                Token::USDC,
                Token::ETH,
                Wad::from_int(4_200),
                false,
            )
            .unwrap();
        // Paper: repay 4,200 USDC, receive 4,620 USD of ETH, profit 420 USD.
        assert_eq!(receipt.debt_repaid, Wad::from_int(4_200));
        assert_eq!(receipt.debt_repaid_usd, Wad::from_int(4_200));
        assert_eq!(receipt.collateral_seized_usd, Wad::from_int(4_620));
        assert_eq!(receipt.gross_profit_usd(), Wad::from_int(420));
        // Collateral seized in ETH terms: 4,620 / 3,300 = 1.4 ETH (up to
        // fixed-point rounding in the price division).
        assert!(
            receipt
                .collateral_seized
                .abs_diff(Wad::from_f64(1.4))
                .to_f64()
                < 1e-9
        );
        // The liquidation event was emitted.
        assert!(events
            .iter()
            .any(|e| matches!(e, ChainEvent::Liquidation(_))));
        // The health factor improved.
        assert!(receipt.health_factor_after.unwrap() > Wad::from_f64(0.94));
    }

    #[test]
    fn repay_above_close_factor_is_rejected() {
        let (mut protocol, mut ledger, mut oracle, mut events) = setup();
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        oracle.set_price(2, Token::ETH, Wad::from_int(3_300));
        let liquidator = Address::from_seed(99);
        ledger.mint(liquidator, Token::USDC, Wad::from_int(20_000));
        // Close factor 50%: requesting the full 8,400 debt is a typed error,
        // not a silent clamp.
        let err = protocol
            .liquidation_call(
                &mut ledger,
                &mut events,
                &oracle,
                2,
                liquidator,
                borrower,
                Token::USDC,
                Token::ETH,
                Wad::from_int(8_400),
                false,
            )
            .unwrap_err();
        assert!(matches!(err, ProtocolError::ExceedsCloseFactor { .. }));
        // Repaying exactly the cap settles.
        protocol.accrue_all(2);
        let max_repay = protocol
            .debt_of(borrower, Token::USDC)
            .checked_mul(protocol.config().close_factor)
            .unwrap();
        let receipt = protocol
            .liquidation_call(
                &mut ledger,
                &mut events,
                &oracle,
                2,
                liquidator,
                borrower,
                Token::USDC,
                Token::ETH,
                max_repay,
                false,
            )
            .unwrap();
        assert_eq!(receipt.debt_repaid, max_repay);
        // ~4,200 plus the interest accrued between borrow and liquidation.
        assert!(receipt.debt_repaid >= Wad::from_int(4_200));
        assert!(receipt.debt_repaid < Wad::from_int(4_201));
    }

    #[test]
    fn one_liquidation_per_block_mitigation() {
        let (mut protocol, mut ledger, mut oracle, mut events) = setup();
        protocol.set_one_liquidation_per_block(true);
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        oracle.set_price(2, Token::ETH, Wad::from_int(3_300));
        let liquidator = Address::from_seed(99);
        ledger.mint(liquidator, Token::USDC, Wad::from_int(20_000));
        protocol
            .liquidation_call(
                &mut ledger,
                &mut events,
                &oracle,
                2,
                liquidator,
                borrower,
                Token::USDC,
                Token::ETH,
                Wad::from_int(1_000),
                false,
            )
            .unwrap();
        // Second liquidation in the same block is rejected…
        let err = protocol
            .liquidation_call(
                &mut ledger,
                &mut events,
                &oracle,
                2,
                liquidator,
                borrower,
                Token::USDC,
                Token::ETH,
                Wad::from_int(1_000),
                false,
            )
            .unwrap_err();
        assert!(matches!(err, ProtocolError::AlreadyLiquidatedThisBlock));
        // …but a later block works (if still unhealthy).
        if protocol.is_liquidatable(&oracle, borrower) {
            assert!(protocol
                .liquidation_call(
                    &mut ledger,
                    &mut events,
                    &oracle,
                    3,
                    liquidator,
                    borrower,
                    Token::USDC,
                    Token::ETH,
                    Wad::from_int(1_000),
                    false,
                )
                .is_ok());
        }
    }

    #[test]
    fn withdraw_that_would_unhealth_position_is_rejected() {
        let (mut protocol, mut ledger, oracle, mut events) = setup();
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        let err = protocol
            .withdraw(&mut ledger, &oracle, borrower, Token::ETH, Wad::from_int(2))
            .unwrap_err();
        assert!(matches!(err, ProtocolError::WouldBecomeUnhealthy));
        // The collateral is untouched after the failed attempt.
        assert_eq!(
            protocol.collateral_of(borrower, Token::ETH),
            Wad::from_int(3)
        );
    }

    #[test]
    fn interest_accrues_on_debt() {
        let (mut protocol, mut ledger, oracle, mut events) = setup();
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        let debt_before = protocol.debt_of(borrower, Token::USDC);
        protocol.accrue_all(2_336_000); // one year later
        let debt_after = protocol.debt_of(borrower, Token::USDC);
        assert!(debt_after > debt_before);
        // The USDC pool is almost idle (0.84% utilization), so the rate is low.
        assert!(debt_after < debt_before.checked_mul(Wad::from_f64(1.10)).unwrap());
    }

    #[test]
    fn insurance_fund_writes_off_insolvent_positions() {
        let (mut protocol, mut ledger, mut oracle, mut events) = setup_with_insurance(true);
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        // Crash ETH so hard the position is under-collateralized.
        oracle.set_price(2, Token::ETH, Wad::from_int(2_000));
        let position = protocol.position(&oracle, borrower).unwrap();
        assert!(position.is_under_collateralized());
        let written_off = protocol.write_off_insolvent_positions(&oracle);
        assert!(!written_off.is_zero());
        assert_eq!(protocol.debt_of(borrower, Token::USDC), Wad::ZERO);
        // Without the insurance fund flag nothing happens.
        let (mut protocol2, mut ledger2, mut oracle2, mut events2) = setup();
        let borrower2 = paper_borrower(&mut protocol2, &mut ledger2, &oracle2, &mut events2);
        oracle2.set_price(2, Token::ETH, Wad::from_int(2_000));
        assert_eq!(protocol2.write_off_insolvent_positions(&oracle2), Wad::ZERO);
        assert!(!protocol2.debt_of(borrower2, Token::USDC).is_zero());
    }

    /// The write-off reads the book's liquidatable set, and it writes off
    /// exactly what the from-scratch `positions()` filter selects: the
    /// collateral-free debtor and the under-collateralized debtor, but not
    /// the liquidatable debtor with CR ≥ 1, the healthy debtor or the
    /// depositors.
    #[test]
    fn insurance_write_off_matches_from_scratch_filter() {
        let (mut protocol, mut ledger, mut oracle, mut events) = setup_with_insurance(true);
        let lender = Address::from_seed(1_000);
        // 3 ETH against 8,400 USDC: every unit of collateral is seized
        // below, leaving a collateral-free debtor.
        let collateral_free = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        // 10 ETH each at 3,500. At 1,000: CR 0.83, CR 1.11 (HF 0.89), HF 4.
        let mut open = |seed: u64, eth: u64, usdc: u64| {
            let account = Address::from_seed(seed);
            ledger.mint(account, Token::ETH, Wad::from_int(eth));
            protocol
                .deposit(
                    &mut ledger,
                    &mut events,
                    account,
                    Token::ETH,
                    Wad::from_int(eth),
                )
                .unwrap();
            if usdc > 0 {
                protocol
                    .borrow(
                        &mut ledger,
                        &mut events,
                        &oracle,
                        1,
                        account,
                        Token::USDC,
                        Wad::from_int(usdc),
                    )
                    .unwrap();
            }
            account
        };
        let under_collateralized = open(11, 10, 12_000);
        let liquidatable = open(12, 10, 9_000);
        let healthy = open(13, 10, 2_000);
        let depositor = open(14, 1, 0);
        // Warm the book, so the crash reaches it through its incremental
        // invalidation.
        assert_eq!(
            protocol.book_positions(&oracle),
            protocol.reference_positions(&oracle)
        );

        oracle.set_price(2, Token::ETH, Wad::from_int(1_000));
        protocol.accrue_all(2);
        let max_repay = protocol
            .debt_of(collateral_free, Token::USDC)
            .checked_mul(protocol.config().close_factor)
            .unwrap();
        let liquidator = Address::from_seed(99);
        ledger.mint(liquidator, Token::USDC, max_repay);
        protocol
            .liquidation_call(
                &mut ledger,
                &mut events,
                &oracle,
                2,
                liquidator,
                collateral_free,
                Token::USDC,
                Token::ETH,
                max_repay,
                false,
            )
            .unwrap();
        assert!(protocol
            .position(&oracle, collateral_free)
            .unwrap()
            .collateral
            .is_empty());
        let liquidatable_position = protocol.position(&oracle, liquidatable).unwrap();
        assert!(liquidatable_position.is_liquidatable());
        assert!(!liquidatable_position.is_under_collateralized());

        let expected: Vec<(Address, Wad)> = protocol
            .positions(&oracle)
            .into_iter()
            .filter(|p| p.is_under_collateralized())
            .map(|p| (p.owner, p.total_debt_value()))
            .collect();
        let mut expected_owners: Vec<Address> = vec![collateral_free, under_collateralized];
        expected_owners.sort();
        assert_eq!(
            expected.iter().map(|(owner, _)| *owner).collect::<Vec<_>>(),
            expected_owners
        );
        let expected_usd = expected
            .iter()
            .fold(Wad::ZERO, |acc, (_, debt)| acc.saturating_add(*debt));

        assert_eq!(
            protocol.write_off_insolvent_positions(&oracle),
            expected_usd
        );
        for account in [
            collateral_free,
            under_collateralized,
            liquidatable,
            healthy,
            depositor,
            lender,
        ] {
            assert_eq!(
                protocol.debt_of(account, Token::USDC).is_zero(),
                expected_owners.contains(&account) || account == depositor || account == lender,
                "{account:?}"
            );
        }
        assert_eq!(
            protocol.book_positions(&oracle),
            protocol.reference_positions(&oracle)
        );
    }

    #[test]
    fn positions_snapshot_covers_all_accounts() {
        let (mut protocol, mut ledger, oracle, mut events) = setup();
        let _ = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        let positions = protocol.positions(&oracle);
        // The lender (collateral only) and the borrower.
        assert_eq!(positions.len(), 2);
        // Only the borrower is in the observable book: 3 ETH at 3,500.
        let totals = protocol.book_totals(&oracle);
        assert_eq!(
            totals,
            reference_totals(&protocol.reference_positions(&oracle), &oracle)
        );
        assert_eq!(totals.collateral_usd, Wad::from_int(10_500));
        assert_eq!(totals.open_positions, 1);
        assert_eq!(protocol.liquidatable_accounts(&oracle).len(), 0);
    }

    /// The incremental book serves byte-identical snapshots to the
    /// from-scratch rebuild, and a tick where nothing moved re-values
    /// nothing (the no-op-tick acceptance gate).
    #[test]
    fn cached_book_matches_scratch_and_skips_noop_ticks() {
        let (mut protocol, mut ledger, mut oracle, mut events) = setup();
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        // A quiet-band debtor (HF ≈ 1.67) whose certified envelope caps the
        // USDC borrow index: accruals that hold the cap leave it lazily
        // stale instead of re-valuing it.
        let quiet = Address::from_seed(8);
        ledger.mint(quiet, Token::ETH, Wad::from_int(5));
        protocol
            .deposit(
                &mut ledger,
                &mut events,
                quiet,
                Token::ETH,
                Wad::from_int(5),
            )
            .unwrap();
        protocol
            .borrow(
                &mut ledger,
                &mut events,
                &oracle,
                1,
                quiet,
                Token::USDC,
                Wad::from_int(8_400),
            )
            .unwrap();

        let cached = protocol.book_positions(&oracle);
        let scratch: Vec<Position> = protocol
            .positions(&oracle)
            .into_iter()
            .filter(|p| !p.total_debt_value().is_zero())
            .collect();
        assert_eq!(cached, scratch);

        // No price moved, no op ran, no interest accrued: discovery and the
        // book answer from cache without a single re-valuation.
        let before = protocol.book_stats();
        assert!(discovered(&mut protocol, &oracle).is_empty());
        let again = protocol.book_positions(&oracle);
        let after = protocol.book_stats();
        assert_eq!(after.revaluations, before.revaluations);
        assert_eq!(after.flush_count, before.flush_count);
        assert_eq!(again, cached);

        // An accrual whose caps all hold, with no price move. The paper
        // borrower sits on the band edge with no envelope, so discovery
        // re-values it eagerly; the quiet debtor lags, and the next full
        // query freshens it exactly once through the light path. A
        // repeated one finds nothing left to do.
        protocol.accrue_all(2);
        assert_eq!(
            discovered(&mut protocol, &oracle),
            protocol.liquidatable_accounts(&oracle)
        );
        let accrued = protocol.book_stats();
        let fresh = protocol.book_positions(&oracle);
        assert_eq!(fresh, protocol.reference_positions(&oracle));
        let drained = protocol.book_stats();
        let lagging = 1;
        assert_eq!(drained.light_refreshes, accrued.light_refreshes + lagging);
        assert_eq!(drained.revaluations, accrued.revaluations + lagging);
        assert_eq!(drained.flush_count, accrued.flush_count + 1);
        protocol.book_positions(&oracle);
        assert_eq!(protocol.book_stats(), drained);

        // A crash re-flags exactly what the scratch filter flags…
        oracle.set_price(2, Token::ETH, Wad::from_int(3_300));
        let cached_flagged = discovered(&mut protocol, &oracle);
        let scratch_flagged = protocol.liquidatable_accounts(&oracle);
        assert_eq!(cached_flagged, scratch_flagged);
        assert_eq!(cached_flagged, vec![borrower]);

        // …and the running totals equal the per-token reference exactly.
        let totals = protocol.book_totals(&oracle);
        let scratch_book = protocol.reference_positions(&oracle);
        assert_eq!(totals, reference_totals(&scratch_book, &oracle));
        assert_eq!(totals.open_positions as usize, scratch_book.len());
    }

    /// A debtor whose debt token is priced 0 has no health factor, but
    /// unlike a debt-free account it has one again at the next non-zero
    /// price: it must ride the exact path, not an unbounded envelope, or
    /// the write back from zero leaves it unflagged.
    #[test]
    fn zero_valued_debt_is_not_certified_like_no_debt() {
        let (mut protocol, mut ledger, mut oracle, mut events) = setup();
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        oracle.set_price(2, Token::USDC, Wad::ZERO);
        assert!(discovered(&mut protocol, &oracle).is_empty());
        oracle.set_price(3, Token::USDC, Wad::ONE);
        oracle.set_price(3, Token::ETH, Wad::from_int(3_300));
        assert_eq!(protocol.liquidatable_accounts(&oracle), vec![borrower]);
        assert_eq!(discovered(&mut protocol, &oracle), vec![borrower]);
    }

    /// A price written to zero takes a debtor out of the observable book
    /// (membership means a non-zero debt value) and the write back puts it
    /// in again. The volume totals see both without a full drain: the
    /// exact-path borrower re-values on every write, and the DAI borrower's
    /// envelope has a positive lower bound on the DAI price, so the write
    /// to zero breaks it.
    #[test]
    fn totals_follow_debt_prices_to_and_from_zero() {
        let (mut protocol, mut ledger, mut oracle, mut events) = setup();
        protocol.list_market(
            Token::DAI,
            RiskParams::new(0.75, 0.05, 0.5),
            InterestRateModel::stablecoin(),
            0,
        );
        oracle.set_price(0, Token::DAI, Wad::ONE);
        let lender = Address::from_seed(1_001);
        ledger.mint(lender, Token::DAI, Wad::from_int(1_000_000));
        protocol
            .deposit(
                &mut ledger,
                &mut events,
                lender,
                Token::DAI,
                Wad::from_int(1_000_000),
            )
            .unwrap();
        let _ = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        let dai_borrower = Address::from_seed(8);
        ledger.mint(dai_borrower, Token::ETH, Wad::from_int(2));
        protocol
            .deposit(
                &mut ledger,
                &mut events,
                dai_borrower,
                Token::ETH,
                Wad::from_int(2),
            )
            .unwrap();
        protocol
            .borrow(
                &mut ledger,
                &mut events,
                &oracle,
                1,
                dai_borrower,
                Token::DAI,
                Wad::from_int(2_000),
            )
            .unwrap();
        let check = |protocol: &mut FixedSpreadProtocol, oracle: &PriceOracle, open: u32| {
            let totals = protocol.book_totals(oracle);
            let reference = reference_totals(&protocol.reference_positions(oracle), oracle);
            assert_eq!(totals, reference);
            assert_eq!(totals.open_positions, open);
            totals
        };
        let before = check(&mut protocol, &oracle, 2);
        assert_eq!(before.dai_eth_collateral_usd, Wad::from_int(7_000));
        assert_eq!(
            protocol.book_stats().banded_accounts,
            3,
            "all but the HF-1 borrower"
        );

        oracle.set_price(2, Token::USDC, Wad::ZERO);
        oracle.set_price(2, Token::DAI, Wad::ZERO);
        let zeroed = check(&mut protocol, &oracle, 0);
        assert_eq!(zeroed.dai_eth_collateral_usd, Wad::ZERO);

        oracle.set_price(3, Token::USDC, Wad::ONE);
        oracle.set_price(3, Token::DAI, Wad::ONE);
        oracle.set_price(3, Token::ETH, Wad::from_int(3_300));
        let back = check(&mut protocol, &oracle, 2);
        assert_eq!(back.dai_eth_collateral_usd, Wad::from_int(6_600));
        assert_eq!(protocol.book_stats().stale_violations, 0);
    }

    /// Re-listing a market replaces risk parameters of existing positions,
    /// so it must invalidate the whole cache.
    #[test]
    fn relisting_a_market_invalidates_cached_valuations() {
        let (mut protocol, mut ledger, oracle, mut events) = setup();
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        assert!(discovered(&mut protocol, &oracle).is_empty());
        // Governance tightens the ETH liquidation threshold to 50 %.
        protocol.list_market(
            Token::ETH,
            RiskParams::new(0.5, 0.10, 0.5),
            InterestRateModel::default(),
            0,
        );
        let cached = discovered(&mut protocol, &oracle);
        let scratch = protocol.liquidatable_accounts(&oracle);
        assert_eq!(cached, scratch);
        assert_eq!(cached, vec![borrower]);
        assert_eq!(protocol.book_positions(&oracle), {
            let filtered: Vec<Position> = protocol
                .positions(&oracle)
                .into_iter()
                .filter(|p| !p.total_debt_value().is_zero())
                .collect();
            filtered
        });
    }

    /// A debtor without a certified cap rides the exact path on accrual:
    /// the walkthrough borrower sits at HF exactly 1 — too close to the band
    /// edge for an envelope — so the next accrual alone must re-value it
    /// and flag it, and it is the only account the flush examines.
    #[test]
    fn accrual_revalues_a_debtor_without_a_cap() {
        let (mut protocol, mut ledger, oracle, mut events) = setup();
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        assert!(discovered(&mut protocol, &oracle).is_empty());
        assert_eq!(protocol.book_stats().banded_accounts, 1, "only the lender");
        let before = protocol.book_stats().envelope_checks;
        protocol.accrue_all(100);
        assert_eq!(discovered(&mut protocol, &oracle), vec![borrower]);
        assert_eq!(protocol.liquidatable_accounts(&oracle), vec![borrower]);
        assert_eq!(protocol.book_stats().envelope_checks, before + 1);
    }

    /// Type I bad debt — collateral seized in full, debt left — has HF 0 at
    /// any price and index, so `derive_hf_envelope` with no floor certifies
    /// it instead of leaving it to re-value on every accrual: HF stays
    /// `Some(0)` and the position stays in the book at the envelope's `lo`
    /// prices with the index at `u128::MAX`, and a dust holding whose value
    /// truncates to zero is refused.
    #[test]
    fn collateral_free_bad_debt_is_certified() {
        let (mut protocol, mut ledger, mut oracle, mut events) = setup();
        let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
        // ETH crashes to 1,000: one close-factor liquidation claims more
        // than the 3 ETH held, so the repayment shrinks and every unit of
        // collateral is seized.
        oracle.set_price(2, Token::ETH, Wad::from_int(1_000));
        protocol.accrue_all(2);
        let max_repay = protocol
            .debt_of(borrower, Token::USDC)
            .checked_mul(protocol.config().close_factor)
            .unwrap();
        let liquidator = Address::from_seed(99);
        ledger.mint(liquidator, Token::USDC, max_repay);
        protocol
            .liquidation_call(
                &mut ledger,
                &mut events,
                &oracle,
                2,
                liquidator,
                borrower,
                Token::USDC,
                Token::ETH,
                max_repay,
                false,
            )
            .unwrap();
        let position = protocol.position(&oracle, borrower).unwrap();
        assert!(position.collateral.is_empty());
        assert_eq!(position.health_factor(), Some(Wad::ZERO));

        let mut envelope = HfEnvelope::default();
        assert!(derive_hf_envelope(
            &protocol.markets,
            &oracle,
            &position,
            None,
            Some(Wad::ONE),
            &mut envelope,
        ));
        assert_eq!(envelope.index_caps, vec![(Token::USDC, u128::MAX)]);
        let &[(token, lo, hi)] = envelope.price_bounds.as_slice() else {
            panic!("one bound per debt token: {:?}", envelope.price_bounds);
        };
        assert_eq!((token, hi), (Token::USDC, u128::MAX));
        assert!(lo <= oracle.price_or_zero(Token::USDC).raw());

        // In the book, the certified account costs an accrual nothing: no
        // examination, no re-derivation — only the freshen of the
        // valuation discovery hands out.
        assert_eq!(discovered(&mut protocol, &oracle), vec![borrower]);
        let before = protocol.book_stats();
        protocol.accrue_all(500);
        assert_eq!(discovered(&mut protocol, &oracle), vec![borrower]);
        let after = protocol.book_stats();
        assert_eq!(after.envelope_checks, before.envelope_checks);
        assert_eq!(after.envelope_derives, before.envelope_derives);
        assert_eq!(
            protocol.book.cached_position(borrower),
            protocol.position(&oracle, borrower).as_ref()
        );

        // The envelope's corner: the debt price at `lo`, the index at its
        // cap. HF is still 0 and the position still in the book.
        oracle.set_price(3, Token::USDC, Wad::from_raw(lo));
        if let Some(market) = protocol.markets.get_mut(&Token::USDC) {
            market.index.index = defi_types::Ray::from_raw(u128::MAX);
        }
        let corner = protocol.position(&oracle, borrower).unwrap();
        assert_eq!(corner.health_factor(), Some(Wad::ZERO));
        let view = FixedSpreadView {
            platform: protocol.platform(),
            markets: &protocol.markets,
            accounts: &protocol.accounts,
        };
        assert!(view.in_book(&corner));

        // One raw unit of DAI owed just below the peg is worth zero: no
        // `lo` at or below the current price keeps it positive, so the
        // envelope is refused.
        oracle.set_price(3, Token::DAI, Wad::from_f64(0.999));
        let mut dusty = position.clone();
        dusty.debt.push(DebtHolding {
            token: Token::DAI,
            amount: Wad::from_raw(1),
            value_usd: Wad::ZERO,
        });
        assert!(!derive_hf_envelope(
            &protocol.markets,
            &oracle,
            &dusty,
            None,
            Some(Wad::ONE),
            &mut envelope,
        ));
        assert!(envelope.price_bounds.is_empty() && envelope.index_caps.is_empty());
    }

    /// The `debt_dust` knob controls the residual write-off threshold that
    /// used to be a hard-wired constant.
    #[test]
    fn debt_dust_knob_controls_writeoff_threshold() {
        // A deliberately huge dust tolerance of one whole token.
        let mut config = FixedSpreadConfig {
            platform: Platform::Compound,
            close_factor: Wad::from_f64(0.5),
            one_liquidation_per_block: false,
            insurance_fund: false,
            debt_dust: Wad::from_int(1),
        };
        let build = |config: FixedSpreadConfig| {
            let mut protocol = FixedSpreadProtocol::new(config);
            protocol.list_market(
                Token::ETH,
                RiskParams::new(0.8, 0.10, 0.5),
                InterestRateModel::default(),
                0,
            );
            protocol.list_market(
                Token::USDC,
                RiskParams::new(0.85, 0.05, 0.5),
                InterestRateModel::stablecoin(),
                0,
            );
            protocol
        };
        let run = |mut protocol: FixedSpreadProtocol| {
            let mut oracle = PriceOracle::new(OracleConfig::every_update());
            oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
            oracle.set_price(0, Token::USDC, Wad::ONE);
            let mut ledger = Ledger::new();
            let mut events = Vec::new();
            let lender = Address::from_seed(1_000);
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
            let borrower = paper_borrower(&mut protocol, &mut ledger, &oracle, &mut events);
            // Repay all but half a USDC: residue 0.5 tokens.
            let outstanding = protocol.debt_of(borrower, Token::USDC);
            let residue = Wad::from_f64(0.5);
            protocol
                .repay(
                    &mut ledger,
                    &mut events,
                    1,
                    borrower,
                    Token::USDC,
                    outstanding.saturating_sub(residue),
                )
                .unwrap();
            protocol.debt_of(borrower, Token::USDC)
        };
        // One-token dust: the 0.5-token residue is written off as dust.
        assert_eq!(run(build(config)), Wad::ZERO);
        // Default dust (10⁻¹⁵ tokens): the residue survives.
        config.debt_dust = DEFAULT_DEBT_DUST;
        let remaining = run(build(config));
        assert!(remaining > Wad::from_f64(0.49) && remaining < Wad::from_f64(0.51));
    }
}
