//! Objective comparison of liquidation mechanisms (§5.1, Figure 9).
//!
//! "We define the monthly profit-volume ratio as the ratio between the
//! monthly accumulated liquidation profit and the monthly average collateral
//! volume. … The lower the profit-volume ratio is, the better the liquidation
//! protocol is for borrowers."
//!
//! The ratio itself is a tiny formula; the value of this module is the typed
//! record and the aggregation helpers the analytics layer and the Figure 9
//! bench both use, plus the interpretation helpers (which platform a given
//! comparison favours).

use std::collections::BTreeMap;

use defi_types::{MonthTag, Platform, Wad};

/// One month's observation for one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfitVolumeRatio {
    /// Month.
    pub month: MonthTag,
    /// Platform.
    pub platform: Platform,
    /// Accumulated liquidation profit over the month (USD).
    pub monthly_profit: Wad,
    /// Average collateral volume locked over the month (USD).
    pub average_collateral_volume: Wad,
    /// Number of liquidations contributing to the profit (used to flag
    /// months with too few events to be representative, as the paper does
    /// for Aave's sparse DAI/ETH market).
    pub liquidation_count: u32,
}

impl ProfitVolumeRatio {
    /// The profit–volume ratio. Returns `None` when the collateral volume is
    /// zero (no market to compare).
    pub fn ratio(&self) -> Option<f64> {
        let volume = self.average_collateral_volume.to_f64();
        if volume <= 0.0 {
            return None;
        }
        Some(self.monthly_profit.to_f64() / volume)
    }

    /// Whether the month has enough liquidations to be considered
    /// representative (the paper discounts Aave's DAI/ETH months because the
    /// "number of DAI/ETH liquidation events on Aave are rare").
    pub fn is_representative(&self, min_liquidations: u32) -> bool {
        self.liquidation_count >= min_liquidations
    }
}

/// A full Figure 9 dataset: per platform, the monthly ratio series.
#[derive(Debug, Clone, Default)]
pub struct MechanismComparison {
    /// All observations.
    pub observations: Vec<ProfitVolumeRatio>,
}

impl MechanismComparison {
    /// Create an empty comparison.
    pub fn new() -> Self {
        MechanismComparison::default()
    }

    /// Add an observation.
    pub fn push(&mut self, observation: ProfitVolumeRatio) {
        self.observations.push(observation);
    }

    /// The series for one platform, ordered by month.
    pub fn series(&self, platform: Platform) -> Vec<(MonthTag, f64)> {
        let mut rows: Vec<(MonthTag, f64)> = self
            .observations
            .iter()
            .filter(|o| o.platform == platform)
            .filter_map(|o| o.ratio().map(|r| (o.month, r)))
            .collect();
        rows.sort_by_key(|(m, _)| *m);
        rows
    }

    /// Median monthly ratio per platform over representative months. The
    /// median is robust to single-month outliers such as the March 2020
    /// MakerDAO incident and the November 2020 Compound oracle incident,
    /// which the paper discusses separately.
    pub fn median_ratio_by_platform(&self, min_liquidations: u32) -> BTreeMap<Platform, f64> {
        let mut samples: BTreeMap<Platform, Vec<f64>> = BTreeMap::new();
        for obs in &self.observations {
            if !obs.is_representative(min_liquidations) {
                continue;
            }
            if let Some(ratio) = obs.ratio() {
                if ratio > 0.0 {
                    samples.entry(obs.platform).or_default().push(ratio);
                }
            }
        }
        samples
            .into_iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(platform, mut v)| {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                (platform, v[v.len() / 2])
            })
            .collect()
    }

    /// Rank the platforms from most borrower-friendly (lowest median ratio)
    /// to most liquidator-friendly (highest), over representative months.
    pub fn ranking(&self, min_liquidations: u32) -> Vec<(Platform, f64)> {
        let mut rows: Vec<(Platform, f64)> = self
            .median_ratio_by_platform(min_liquidations)
            .into_iter()
            .collect();
        rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        rows
    }

    /// The paper's headline finding restated as a predicate: does the
    /// auction-based platform (MakerDAO) show a lower median ratio than the
    /// fixed-spread platform given, i.e. is the auction more favourable to
    /// borrowers?
    pub fn auction_favours_borrowers_vs(
        &self,
        fixed_spread: Platform,
        min_liquidations: u32,
    ) -> Option<bool> {
        let medians = self.median_ratio_by_platform(min_liquidations);
        let maker = medians.get(&Platform::MakerDao)?;
        let other = medians.get(&fixed_spread)?;
        Some(maker < other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(
        platform: Platform,
        month: (u32, u8),
        profit: u64,
        volume: u64,
        count: u32,
    ) -> ProfitVolumeRatio {
        ProfitVolumeRatio {
            month: MonthTag::new(month.0, month.1),
            platform,
            monthly_profit: Wad::from_int(profit),
            average_collateral_volume: Wad::from_int(volume),
            liquidation_count: count,
        }
    }

    #[test]
    fn ratio_basic() {
        let o = obs(Platform::Compound, (2020, 3), 1_000, 1_000_000, 10);
        assert!((o.ratio().unwrap() - 0.001).abs() < 1e-12);
        let empty = obs(Platform::Compound, (2020, 3), 1_000, 0, 10);
        assert!(empty.ratio().is_none());
    }

    #[test]
    fn ranking_orders_by_mean_ratio() {
        let mut cmp = MechanismComparison::new();
        for month in 1..=6u8 {
            cmp.push(obs(Platform::DyDx, (2020, month), 10_000, 1_000_000, 20));
            cmp.push(obs(Platform::Compound, (2020, month), 2_000, 1_000_000, 20));
            cmp.push(obs(Platform::MakerDao, (2020, month), 500, 1_000_000, 20));
        }
        let ranking = cmp.ranking(1);
        assert_eq!(ranking[0].0, Platform::MakerDao);
        assert_eq!(ranking.last().unwrap().0, Platform::DyDx);
        assert_eq!(
            cmp.auction_favours_borrowers_vs(Platform::Compound, 1),
            Some(true)
        );
        assert_eq!(
            cmp.auction_favours_borrowers_vs(Platform::DyDx, 1),
            Some(true)
        );
    }

    #[test]
    fn sparse_months_are_excluded() {
        let mut cmp = MechanismComparison::new();
        // Aave has one non-representative month with an extreme ratio.
        cmp.push(obs(Platform::AaveV1, (2020, 5), 900_000, 1_000_000, 1));
        cmp.push(obs(Platform::Compound, (2020, 5), 2_000, 1_000_000, 30));
        let medians = cmp.median_ratio_by_platform(5);
        assert!(!medians.contains_key(&Platform::AaveV1));
        assert!(medians.contains_key(&Platform::Compound));
    }

    #[test]
    fn series_is_sorted_by_month() {
        let mut cmp = MechanismComparison::new();
        cmp.push(obs(Platform::Compound, (2020, 6), 1, 100, 5));
        cmp.push(obs(Platform::Compound, (2020, 2), 1, 100, 5));
        cmp.push(obs(Platform::Compound, (2021, 1), 1, 100, 5));
        let series = cmp.series(Platform::Compound);
        assert_eq!(series.len(), 3);
        assert!(series[0].0 < series[1].0 && series[1].0 < series[2].0);
    }
}
