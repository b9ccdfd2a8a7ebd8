//! Block-number ⇄ timestamp ⇄ calendar mapping.
//!
//! The paper reports results on two axes: block numbers (with approximate
//! dates, e.g. "block 12344944 (30th Apr 2021)") and calendar months
//! (Figures 5 and 9, Table 8). The [`TimeMap`] provides a deterministic
//! linear mapping between the two, using a configurable average block time,
//! plus civil-calendar conversion so aggregation by `YYYY-MM` matches the
//! paper's monthly buckets without pulling in a date-time crate.

use core::fmt;

/// A block height.
pub type BlockNumber = u64;

/// A Unix timestamp in seconds.
pub type Timestamp = u64;

/// A calendar month tag, e.g. `2020-03`, used for monthly aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MonthTag {
    /// Calendar year (e.g. 2020).
    pub year: u32,
    /// Calendar month, 1-based (1 = January).
    pub month: u8,
}

impl MonthTag {
    /// Construct a month tag, clamping the month into `1..=12`.
    pub fn new(year: u32, month: u8) -> Self {
        MonthTag {
            year,
            month: month.clamp(1, 12),
        }
    }
}

impl fmt::Display for MonthTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}", self.year, self.month)
    }
}

/// Convert a days-since-Unix-epoch count to a civil (year, month, day).
///
/// Implements Howard Hinnant's `civil_from_days` algorithm, which is exact
/// over the entire proleptic Gregorian calendar.
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Mapping between block numbers, timestamps and calendar dates.
///
/// Defaults mirror the paper's study window: Ethereum block 7,500,000
/// (≈ 1 April 2019) to block 12,344,944 (30 April 2021), with an average
/// block time chosen so the two endpoints line up (~13.45 s).
#[derive(Debug, Clone, Copy)]
pub struct TimeMap {
    /// Block number at which the mapping is anchored.
    pub genesis_block: BlockNumber,
    /// Unix timestamp of `genesis_block`.
    pub genesis_timestamp: Timestamp,
    /// Average seconds per block used for the linear mapping.
    pub seconds_per_block: f64,
}

impl TimeMap {
    /// The paper's study window: anchor block 7,500,000 at 2019-04-01 00:00 UTC,
    /// with a block time calibrated so block 12,344,944 lands on 2021-04-30.
    pub fn paper_study_window() -> Self {
        // 2019-04-01T00:00:00Z
        let genesis_timestamp: Timestamp = 1_554_076_800;
        // 2021-04-30T00:00:00Z = 1_619_740_800; span 65_664_000 s over 4_844_944 blocks.
        let seconds_per_block = 65_664_000.0 / (12_344_944.0 - 7_500_000.0);
        TimeMap {
            genesis_block: 7_500_000,
            genesis_timestamp,
            seconds_per_block,
        }
    }

    /// Timestamp of a block.
    pub fn timestamp(&self, block: BlockNumber) -> Timestamp {
        let delta_blocks = block.saturating_sub(self.genesis_block) as f64;
        self.genesis_timestamp + (delta_blocks * self.seconds_per_block) as u64
    }

    /// Calendar date (year, month, day) of a block.
    pub fn date(&self, block: BlockNumber) -> (u32, u8, u8) {
        let ts = self.timestamp(block);
        let days = (ts / 86_400) as i64;
        let (y, m, d) = civil_from_days(days);
        (y as u32, m as u8, d as u8)
    }

    /// Month tag of a block, for monthly aggregation.
    pub fn month(&self, block: BlockNumber) -> MonthTag {
        let (y, m, _) = self.date(block);
        MonthTag::new(y, m)
    }

    /// Duration in hours between two blocks.
    pub fn hours_between(&self, from: BlockNumber, to: BlockNumber) -> f64 {
        let from_ts = self.timestamp(from);
        let to_ts = self.timestamp(to);
        (to_ts.saturating_sub(from_ts)) as f64 / 3_600.0
    }

    /// First block whose timestamp falls in the given month.
    pub fn first_block_of_month(&self, tag: MonthTag) -> BlockNumber {
        // Binary search over the linear mapping.
        let mut lo = self.genesis_block;
        let mut hi = self.genesis_block + 40_000_000;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.month(mid) < tag {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl Default for TimeMap {
    fn default() -> Self {
        TimeMap::paper_study_window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(18_321), (2020, 2, 29)); // leap day
        assert_eq!(civil_from_days(18_322), (2020, 3, 1)); // 2020-03-01
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn paper_window_endpoints() {
        let map = TimeMap::paper_study_window();
        let (y0, m0, _) = map.date(7_500_000);
        assert_eq!((y0, m0), (2019, 4));
        let (y1, m1, d1) = map.date(12_344_944);
        assert_eq!((y1, m1), (2021, 4));
        assert!(
            d1 >= 29,
            "end block should land at the end of April 2021, got day {d1}"
        );
    }

    #[test]
    fn paper_window_matches_figure_axis() {
        // Figure 4's x-axis annotates block 10,000,000 as 2020-05-04 and
        // 11,000,000 as 2020-10-06. Real mainnet block times were not
        // constant, so a linear map can only land within a couple of weeks of
        // those annotations — which is sufficient for monthly aggregation.
        let map = TimeMap::paper_study_window();
        let (y, m, _) = map.date(10_000_000);
        assert_eq!(y, 2020);
        assert!(
            m == 4 || m == 5,
            "block 10M should map near May 2020, got month {m}"
        );
        let (y, m, _) = map.date(11_000_000);
        assert_eq!(y, 2020);
        assert!(
            (9..=10).contains(&m),
            "block 11M should map near Oct 2020, got month {m}"
        );
    }

    #[test]
    fn month_tag_ordering_and_range() {
        let a = MonthTag::new(2019, 11);
        let b = MonthTag::new(2020, 2);
        assert!(a < b);
        assert_eq!(a.to_string(), "2019-11");
        assert_eq!(b.to_string(), "2020-02");
    }

    #[test]
    fn first_block_of_month_is_monotone() {
        let map = TimeMap::paper_study_window();
        let b1 = map.first_block_of_month(MonthTag::new(2020, 3));
        let b2 = map.first_block_of_month(MonthTag::new(2020, 4));
        assert!(b1 < b2);
        assert_eq!(map.month(b1), MonthTag::new(2020, 3));
        assert_eq!(map.month(b1 - 1), MonthTag::new(2020, 2));
    }

    #[test]
    fn hours_between_blocks() {
        let map = TimeMap {
            genesis_block: 0,
            genesis_timestamp: 0,
            seconds_per_block: 15.0,
        };
        assert!((map.hours_between(0, 240) - 1.0).abs() < 1e-9);
        assert!((map.hours_between(0, 1_440) - 6.0).abs() < 1e-9);
    }
}
