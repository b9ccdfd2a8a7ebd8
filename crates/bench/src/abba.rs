//! Statistics for the `abba` binary: paired comparisons of two perfbench
//! builds.
//!
//! The binary runs a parent build (A) and a change build (B) of perfbench
//! in ABBA order — pair 0 runs A then B, pair 1 runs B then A, and so on —
//! so a host that warms up or slows down over the comparison biases neither
//! side. This module parses each run's standard output and summarises every
//! metric per side (median, quartiles, minimum) and per pair (how many pairs
//! the change reads lower in). It also diffs the runs' `counter` lines and
//! renders a `BENCH_baseline.json` fragment.

use crate::json::Json;

/// The two builds an ABBA comparison runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The parent build (A).
    Base,
    /// The build with the change (B).
    Change,
}

/// The order pair `pair` runs its two sides in: A B, B A, A B, …
pub fn pair_order(pair: usize) -> [Side; 2] {
    if pair.is_multiple_of(2) {
        [Side::Base, Side::Change]
    } else {
        [Side::Change, Side::Base]
    }
}

/// What one perfbench run printed that a comparison reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutput {
    /// The `bench host: …` provenance line.
    pub host: Option<String>,
    /// `counter NAME VALUE` lines, in printed order.
    pub counters: Vec<(String, String)>,
    /// `metric NAME VALUE UNIT` and `layer NAME VALUE UNIT` lines, in
    /// printed order; values are perfbench's normalised values.
    pub metrics: Vec<(String, f64, String)>,
    /// Failed checks, from the `metric failed_ratio` line.
    pub failed: Option<u64>,
}

/// Parse one perfbench run's standard output.
pub fn parse_run(stdout: &str) -> RunOutput {
    let mut run = RunOutput::default();
    for line in stdout.lines() {
        if line.starts_with("bench host:") {
            run.host = Some(line.to_string());
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("counter") => {
                if let (Some(name), Some(value)) = (words.next(), words.next()) {
                    run.counters.push((name.to_string(), value.to_string()));
                }
            }
            Some("metric") | Some("layer") => {
                let (Some(name), Some(value), Some(unit)) =
                    (words.next(), words.next(), words.next())
                else {
                    continue;
                };
                let Ok(value) = value.parse::<f64>() else {
                    continue;
                };
                if name == "failed_ratio" {
                    // `metric failed_ratio R ratio (F of N checks failed)`
                    run.failed = words
                        .next()
                        .and_then(|w| w.trim_start_matches('(').parse::<u64>().ok());
                } else {
                    run.metrics
                        .push((name.to_string(), value, unit.to_string()));
                }
            }
            _ => {}
        }
    }
    run
}

/// The value at quantile `q` of `sorted` (ascending), interpolating linearly
/// between the two nearest ranks; NaN when `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let below = rank.floor() as usize;
    let above = (below + 1).min(last);
    let fraction = rank - below as f64;
    sorted[below] + (sorted[above] - sorted[below]) * fraction
}

/// Median, quartiles and minimum of one side's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// 50th percentile.
    pub median: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
}

impl Summary {
    /// Summarise `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            min: sorted.first().copied().unwrap_or(f64::NAN),
        }
    }

    /// The interquartile range `q3 − q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// One metric across every pair of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Metric name, as perfbench prints it.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// The parent's value in each pair.
    pub base: Vec<f64>,
    /// The change's value in each pair.
    pub change: Vec<f64>,
}

impl Comparison {
    /// Pairs in which the change reads lower than the parent. Every
    /// end-to-end metric is lower-is-better, so this is the change's wins.
    pub fn change_lower(&self) -> usize {
        self.base
            .iter()
            .zip(&self.change)
            .filter(|(base, change)| change < base)
            .count()
    }

    /// The change's median relative to the parent's, in percent.
    pub fn median_change_pct(&self) -> f64 {
        let base = Summary::of(&self.base).median;
        (Summary::of(&self.change).median / base - 1.0) * 100.0
    }

    /// Whether the gap between the two medians exceeds the parent's
    /// interquartile range.
    pub fn gap_exceeds_base_iqr(&self) -> bool {
        let base = Summary::of(&self.base);
        (Summary::of(&self.change).median - base.median).abs() > base.iqr()
    }
}

/// Pair the metrics of each `(base, change)` run pair by name, in the
/// order the first base run printed them. A metric missing from either run
/// of some pair is left out.
pub fn compare(pairs: &[(RunOutput, RunOutput)]) -> Vec<Comparison> {
    let Some((first, _)) = pairs.first() else {
        return Vec::new();
    };
    let value = |run: &RunOutput, name: &str| {
        run.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    };
    first
        .metrics
        .iter()
        .filter_map(|(name, _, unit)| {
            let mut comparison = Comparison {
                name: name.clone(),
                unit: unit.clone(),
                base: Vec::with_capacity(pairs.len()),
                change: Vec::with_capacity(pairs.len()),
            };
            for (base, change) in pairs {
                comparison.base.push(value(base, name)?);
                comparison.change.push(value(change, name)?);
            }
            Some(comparison)
        })
        .collect()
}

/// One counter whose value is not the same on both sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDiff {
    /// Counter name.
    pub name: String,
    /// The parent's value (first pair), or `None` if it did not print it.
    pub base: Option<String>,
    /// The change's value (first pair), or `None` if it did not print it.
    pub change: Option<String>,
}

/// The counters the first pair's two runs disagree on, by name, in the
/// parent's printed order followed by counters only the change prints.
pub fn counter_diffs(base: &RunOutput, change: &RunOutput) -> Vec<CounterDiff> {
    let lookup = |run: &RunOutput, name: &str| {
        run.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    };
    let mut names: Vec<&String> = base.counters.iter().map(|(n, _)| n).collect();
    for (name, _) in &change.counters {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
        .into_iter()
        .filter_map(|name| {
            let (b, c) = (lookup(base, name), lookup(change, name));
            (b != c).then(|| CounterDiff {
                name: name.clone(),
                base: b,
                change: c,
            })
        })
        .collect()
}

/// Whether every run of one side printed the same counter lines.
pub fn counters_repeat<'a>(mut runs: impl Iterator<Item = &'a RunOutput>) -> bool {
    let Some(first) = runs.next() else {
        return true;
    };
    runs.all(|run| run.counters == first.counters)
}

fn numbers(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::F64(v)).collect())
}

/// The comparison as a `BENCH_baseline.json` fragment, keyed
/// `"<workload> seed <seed>"`.
pub fn baseline_fragment(
    workload: &str,
    seed: u64,
    pairs: &[(RunOutput, RunOutput)],
    comparisons: &[Comparison],
) -> Json {
    let failed = |side: fn(&(RunOutput, RunOutput)) -> &RunOutput| {
        Json::Arr(
            pairs
                .iter()
                .map(|pair| side(pair).failed.map_or(Json::Null, Json::U64))
                .collect(),
        )
    };
    let diffs = pairs
        .first()
        .map(|(base, change)| counter_diffs(base, change))
        .unwrap_or_default();
    let mut body = vec![
        ("pairs".to_string(), Json::U64(pairs.len() as u64)),
        (
            "counter_lines".to_string(),
            Json::U64(pairs.first().map_or(0, |(base, _)| base.counters.len()) as u64),
        ),
        (
            "counters_repeat_on_each_side".to_string(),
            Json::Bool(
                counters_repeat(pairs.iter().map(|(base, _)| base))
                    && counters_repeat(pairs.iter().map(|(_, change)| change)),
            ),
        ),
        (
            "counter_diffs".to_string(),
            Json::Obj(
                diffs
                    .into_iter()
                    .map(|diff| {
                        let value = |v: Option<String>| v.map_or(Json::Null, Json::Str);
                        (
                            diff.name,
                            Json::obj([
                                ("parent", value(diff.base)),
                                ("change", value(diff.change)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "failed".to_string(),
            Json::obj([("parent", failed(|p| &p.0)), ("change", failed(|p| &p.1))]),
        ),
    ];
    for comparison in comparisons {
        let base = Summary::of(&comparison.base);
        let change = Summary::of(&comparison.change);
        body.push((
            comparison.name.clone(),
            Json::obj([
                ("parent", numbers(&comparison.base)),
                ("change", numbers(&comparison.change)),
                ("parent_median", Json::F64(base.median)),
                ("change_median", Json::F64(change.median)),
                ("parent_quartiles", numbers(&[base.q1, base.q3])),
                ("change_quartiles", numbers(&[change.q1, change.q3])),
                (
                    "change_vs_parent",
                    Json::str(format!("{:+.1}%", comparison.median_change_pct())),
                ),
                (
                    "change_lower",
                    Json::str(format!("{}/{}", comparison.change_lower(), pairs.len())),
                ),
            ]),
        ));
    }
    Json::Obj(vec![(format!("{workload} seed {seed}"), Json::Obj(body))])
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "bench host: 2 cpu(s)\n\
        cpu model: test\n\
        counters of input seed 5:\n\
        counter sim.events 100\n\
        counter lending.book.envelope_derives 70\n\
        metric setup_s 0.5 s (as timed on this host: 0.6 s)\n\
        metric run_s 1.25 s (as timed on this host: 1.3 s)\n\
        metric failed_ratio 0 ratio (0 of 12 checks failed)\n\
        layer lending.book.flush_s 0.25 s\n\
        {\"correct\": true}\n";

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        assert_eq!(pair_order(0), [Side::Base, Side::Change]);
        assert_eq!(pair_order(1), [Side::Change, Side::Base]);
        assert_eq!(pair_order(2), [Side::Base, Side::Change]);
    }

    #[test]
    fn parse_reads_host_counters_metrics_and_failures() {
        let run = parse_run(RUN);
        assert_eq!(run.host.as_deref(), Some("bench host: 2 cpu(s)"));
        assert_eq!(
            run.counters,
            vec![
                ("sim.events".to_string(), "100".to_string()),
                (
                    "lending.book.envelope_derives".to_string(),
                    "70".to_string()
                ),
            ]
        );
        let names: Vec<&str> = run.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["setup_s", "run_s", "lending.book.flush_s"]);
        assert_eq!(run.metrics[1].1, 1.25, "the normalised value, not as timed");
        assert_eq!(run.failed, Some(0));
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.5), 2.5);
        assert_eq!(quantile(&sorted, 0.25), 1.75);
        assert_eq!(quantile(&sorted, 0.75), 3.25);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_sorts_before_ranking() {
        let summary = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(summary.median, 3.0);
        assert_eq!(summary.q1, 2.0);
        assert_eq!(summary.q3, 4.0);
        assert_eq!(summary.min, 1.0);
        assert_eq!(summary.iqr(), 2.0);
    }

    #[test]
    fn comparison_counts_pairs_and_tests_the_gap_against_the_parent_iqr() {
        let comparison = Comparison {
            name: "run_s".to_string(),
            unit: "s".to_string(),
            base: vec![1.0, 1.1, 1.2, 1.3, 1.4],
            change: vec![0.9, 1.0, 1.3, 1.0, 1.1],
        };
        assert_eq!(comparison.change_lower(), 4);
        // Medians 1.2 → 1.0: a gap of 0.2 against a parent IQR of 0.2.
        assert!((comparison.median_change_pct() + 100.0 / 6.0).abs() < 1e-9);
        assert!(!comparison.gap_exceeds_base_iqr());
        let wider = Comparison {
            change: vec![0.8, 0.9, 0.9, 0.9, 1.0],
            ..comparison
        };
        assert!(wider.gap_exceeds_base_iqr());
    }

    #[test]
    fn compare_pairs_metrics_by_name() {
        let base = parse_run(RUN);
        let mut change = parse_run(RUN);
        change.metrics.reverse();
        change.metrics[0].1 = 0.2;
        let comparisons = compare(&[(base.clone(), change.clone()), (change, base)]);
        let flush = comparisons
            .iter()
            .find(|c| c.name == "lending.book.flush_s")
            .expect("flush compared");
        assert_eq!(flush.base, [0.25, 0.2]);
        assert_eq!(flush.change, [0.2, 0.25]);
        assert_eq!(comparisons.len(), 3);
    }

    #[test]
    fn counter_diffs_name_only_the_counters_that_moved() {
        let base = parse_run(RUN);
        let mut change = base.clone();
        change.counters[1].1 = "50".to_string();
        change
            .counters
            .push(("new.counter".to_string(), "1".to_string()));
        assert_eq!(
            counter_diffs(&base, &change),
            vec![
                CounterDiff {
                    name: "lending.book.envelope_derives".to_string(),
                    base: Some("70".to_string()),
                    change: Some("50".to_string()),
                },
                CounterDiff {
                    name: "new.counter".to_string(),
                    base: None,
                    change: Some("1".to_string()),
                },
            ]
        );
        assert!(counter_diffs(&base, &base).is_empty());
        assert!(counters_repeat([&base, &base].into_iter()));
        assert!(!counters_repeat([&base, &change].into_iter()));
    }
}
