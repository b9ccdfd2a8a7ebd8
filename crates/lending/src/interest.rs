//! Utilization-driven interest rates and borrow-index accrual.
//!
//! "The interest rate of an Aave pool is decided algorithmically by the smart
//! contract and depends on the available funds within the lending pool. The
//! more users borrow an asset, the higher its interest rate rises." (§3.3)
//!
//! The model is the standard kinked curve used by Aave and Compound: a base
//! rate, a gentle slope up to an optimal utilization, and a steep slope past
//! it. Debt positions store *scaled* amounts; the market keeps a borrow index
//! in [`Ray`] precision that compounds per block, so accrual is O(1) per
//! market regardless of the number of borrowers.

use defi_types::{BlockNumber, Ray, Wad, RAY};

/// Blocks per year used to convert annual rates to per-block rates
/// (≈ 13.5 s block time).
pub const BLOCKS_PER_YEAR: u64 = 2_336_000;

/// The kinked utilization → borrow-rate curve.
#[derive(Debug, Clone, Copy)]
pub struct InterestRateModel {
    /// Base annual borrow rate at 0 % utilization (e.g. 0.02 = 2 %).
    pub base_rate: f64,
    /// Additional annual rate at the optimal utilization point.
    pub slope_1: f64,
    /// Additional annual rate between the optimal point and 100 % utilization.
    pub slope_2: f64,
    /// The kink (optimal utilization), e.g. 0.8.
    pub optimal_utilization: f64,
}

impl Default for InterestRateModel {
    fn default() -> Self {
        InterestRateModel {
            base_rate: 0.02,
            slope_1: 0.10,
            slope_2: 1.00,
            optimal_utilization: 0.80,
        }
    }
}

impl InterestRateModel {
    /// A stablecoin market profile (higher base demand, gentler kink).
    pub fn stablecoin() -> Self {
        InterestRateModel {
            base_rate: 0.01,
            slope_1: 0.06,
            slope_2: 0.75,
            optimal_utilization: 0.90,
        }
    }

    /// Annual borrow rate at the given utilization (0–1).
    pub fn annual_borrow_rate(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        if u <= self.optimal_utilization {
            let share = if self.optimal_utilization > 0.0 {
                u / self.optimal_utilization
            } else {
                1.0
            };
            self.base_rate + self.slope_1 * share
        } else {
            let excess =
                (u - self.optimal_utilization) / (1.0 - self.optimal_utilization).max(1e-9);
            self.base_rate + self.slope_1 + self.slope_2 * excess
        }
    }

    /// Per-block borrow rate in [`Ray`] precision.
    pub fn per_block_rate(&self, utilization: f64) -> Ray {
        let annual = self.annual_borrow_rate(utilization).max(0.0);
        let per_block = annual / BLOCKS_PER_YEAR as f64;
        // lint:allow(fixed-float) the kinked rate curve is defined in f64 rate space; it is quantized to Ray exactly once here, and all index compounding downstream stays in Ray
        Ray::from_raw((per_block * RAY as f64) as u128)
    }

    /// The borrow-index growth factor over `blocks` blocks at a constant
    /// utilization: `(1 + r_block)^blocks`.
    pub fn index_growth(&self, utilization: f64, blocks: u64) -> Ray {
        self.per_block_rate(utilization)
            .compound(blocks)
            .unwrap_or(Ray::ONE)
    }
}

/// Utilization of a market: borrows / (cash + borrows).
pub fn utilization(available_liquidity: Wad, total_debt: Wad) -> f64 {
    // lint:allow(fixed-float) utilization is the f64 input of the f64 rate curve; valuation exactness is certified at the Ray index level, not the rate model
    let cash = available_liquidity.to_f64();
    // lint:allow(fixed-float) utilization is the f64 input of the f64 rate curve; valuation exactness is certified at the Ray index level, not the rate model
    let debt = total_debt.to_f64();
    if cash + debt <= 0.0 {
        0.0
    } else {
        debt / (cash + debt)
    }
}

/// Borrow-index accrual state of one market.
#[derive(Debug, Clone, Copy)]
pub struct BorrowIndex {
    /// Current cumulative index (starts at 1 Ray).
    pub index: Ray,
    /// Block of the last accrual.
    pub last_accrual_block: BlockNumber,
}

impl BorrowIndex {
    /// A fresh index anchored at `block`.
    pub fn new(block: BlockNumber) -> Self {
        BorrowIndex {
            index: Ray::ONE,
            last_accrual_block: block,
        }
    }

    /// Accrue interest up to `block` at the given utilization.
    pub fn accrue(&mut self, model: &InterestRateModel, utilization: f64, block: BlockNumber) {
        if block <= self.last_accrual_block {
            return;
        }
        let blocks = block - self.last_accrual_block;
        let growth = model.index_growth(utilization, blocks);
        self.index = self.index.checked_mul(growth).unwrap_or(self.index);
        self.last_accrual_block = block;
    }

    /// Scale a principal amount down into index units at the current index
    /// (done when debt is taken).
    pub fn scale_down(&self, amount: Wad) -> Wad {
        let ray_amount = match amount.to_ray() {
            Ok(r) => r,
            Err(_) => return amount,
        };
        ray_amount
            .checked_div(self.index)
            .map(|r| r.to_wad())
            .unwrap_or(amount)
    }

    /// Scale a stored (scaled) amount up into current debt units.
    pub fn scale_up(&self, scaled: Wad) -> Wad {
        let ray_amount = match scaled.to_ray() {
            Ok(r) => r,
            Err(_) => return scaled,
        };
        ray_amount
            .checked_mul(self.index)
            .map(|r| r.to_wad())
            .unwrap_or(scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_monotone_in_utilization() {
        let model = InterestRateModel::default();
        let mut previous = -1.0;
        for i in 0..=20 {
            let u = i as f64 / 20.0;
            let rate = model.annual_borrow_rate(u);
            assert!(rate >= previous);
            previous = rate;
        }
    }

    #[test]
    fn kink_steepens_the_curve() {
        let model = InterestRateModel::default();
        let below = model.annual_borrow_rate(0.8) - model.annual_borrow_rate(0.7);
        let above = model.annual_borrow_rate(0.95) - model.annual_borrow_rate(0.85);
        assert!(above > below * 2.0);
    }

    #[test]
    fn utilization_bounds() {
        assert_eq!(utilization(Wad::ZERO, Wad::ZERO), 0.0);
        assert_eq!(utilization(Wad::from_int(100), Wad::ZERO), 0.0);
        assert!((utilization(Wad::from_int(50), Wad::from_int(50)) - 0.5).abs() < 1e-12);
        assert!((utilization(Wad::ZERO, Wad::from_int(50)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accrual_grows_debt_roughly_at_annual_rate() {
        let model = InterestRateModel {
            base_rate: 0.10,
            slope_1: 0.0,
            slope_2: 0.0,
            optimal_utilization: 0.8,
        };
        let mut index = BorrowIndex::new(0);
        index.accrue(&model, 0.5, BLOCKS_PER_YEAR);
        let debt = index.scale_up(Wad::from_int(1_000));
        // e^0.10 ≈ 1.105 through per-block compounding; simple 10% would be 1.10.
        let value = debt.to_f64();
        assert!(
            value > 1_099.0 && value < 1_112.0,
            "one year at 10%: {value}"
        );
    }

    #[test]
    fn scale_roundtrip_is_stable() {
        let model = InterestRateModel::default();
        let mut index = BorrowIndex::new(0);
        index.accrue(&model, 0.9, 500_000);
        let principal = Wad::from_int(123_456);
        let scaled = index.scale_down(principal);
        let back = index.scale_up(scaled);
        // Round-trip error should be negligible (sub-1e-9 relative).
        assert!(back.abs_diff(principal).to_f64() < 1e-6);
    }

    #[test]
    fn accrue_is_idempotent_for_same_block() {
        let model = InterestRateModel::default();
        let mut index = BorrowIndex::new(100);
        index.accrue(&model, 0.5, 200);
        let after_first = index.index;
        index.accrue(&model, 0.5, 200);
        assert_eq!(index.index, after_first);
    }
}
