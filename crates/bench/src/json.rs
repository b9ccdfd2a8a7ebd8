//! Machine-readable JSON rendering of the analysis artefacts.
//!
//! The `repro` binary's `--json <dir>` flag writes each selected artefact as
//! a JSON file alongside the paper-style text rendering. The workspace has no
//! serialization dependency, so this module carries a deliberately small
//! hand-rolled JSON value type — enough for the flat tables and series the
//! artefacts are made of.

use std::fmt;

use defi_analytics::sweep::RunSummary;
use defi_analytics::StudyAnalysis;
use defi_sim::ScenarioCatalog;
use defi_types::{Platform, SignedWad, Wad};

use crate::case_study::CaseStudy;

/// A JSON value with exact integer support (counts and block numbers stay
/// integral instead of round-tripping through `f64`).
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Floating-point number (non-finite values render as `null`).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(value: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::U64(n) => out.push_str(&n.to_string()),
        Json::F64(x) => {
            if x.is_finite() {
                out.push_str(&format!("{x}"));
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => escape(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, item)) in pairs.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                escape(key, out);
                out.push_str(": ");
                write_value(item, indent + 1, out);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(self, 0, &mut out);
        f.write_str(&out)
    }
}

fn usd(value: Wad) -> Json {
    Json::F64(value.to_f64())
}

fn signed_usd(value: SignedWad) -> Json {
    let magnitude = value.magnitude.to_f64();
    Json::F64(if value.is_negative() {
        -magnitude
    } else {
        magnitude
    })
}

fn platform(p: Platform) -> Json {
    Json::str(p.name())
}

/// §4.2 headline statistics.
pub fn headline_json(analysis: &StudyAnalysis) -> Json {
    let h = &analysis.headline;
    let mut pairs = vec![
        (
            "liquidations".to_string(),
            Json::U64(h.liquidation_count as u64),
        ),
        (
            "liquidators".to_string(),
            Json::U64(h.liquidator_count as u64),
        ),
        (
            "collateral_sold_usd".to_string(),
            usd(h.total_collateral_sold),
        ),
        ("total_profit_usd".to_string(), signed_usd(h.total_profit)),
        (
            "unprofitable_liquidations".to_string(),
            Json::U64(h.unprofitable_liquidations as u64),
        ),
        (
            "unprofitable_loss_usd".to_string(),
            usd(h.unprofitable_loss),
        ),
    ];
    if let Some(top) = &analysis.top_liquidators {
        pairs.push((
            "most_active_liquidator".to_string(),
            Json::obj([
                ("liquidations", Json::U64(top.most_active_count as u64)),
                ("profit_usd", signed_usd(top.most_active_profit)),
            ]),
        ));
        pairs.push((
            "most_profitable_liquidator".to_string(),
            Json::obj([
                ("liquidations", Json::U64(top.most_profitable_count as u64)),
                ("profit_usd", signed_usd(top.most_profitable_profit)),
            ]),
        ));
    }
    Json::Obj(pairs)
}

/// Table 1.
pub fn table1_json(analysis: &StudyAnalysis) -> Json {
    let rows = analysis
        .table1
        .rows
        .iter()
        .map(|row| {
            Json::obj([
                ("platform", platform(row.platform)),
                ("liquidations", Json::U64(row.liquidations as u64)),
                ("liquidators", Json::U64(row.liquidators as u64)),
                ("average_profit_usd", signed_usd(row.average_profit)),
            ])
        })
        .collect();
    Json::obj([
        ("rows", Json::Arr(rows)),
        (
            "total_liquidations",
            Json::U64(analysis.table1.total_liquidations as u64),
        ),
        (
            "total_liquidators",
            Json::U64(analysis.table1.total_liquidators as u64),
        ),
        ("total_profit_usd", signed_usd(analysis.table1.total_profit)),
    ])
}

/// Figure 4: the full cumulative series per platform.
pub fn figure4_json(analysis: &StudyAnalysis) -> Json {
    Json::Obj(
        analysis
            .figure4
            .iter()
            .map(|(p, series)| {
                let points = series
                    .iter()
                    .map(|point| {
                        Json::obj([
                            ("block", Json::U64(point.block)),
                            ("cumulative_usd", usd(point.cumulative_usd)),
                        ])
                    })
                    .collect();
                (p.name().to_string(), Json::Arr(points))
            })
            .collect(),
    )
}

/// Figure 5: monthly profit per platform.
pub fn figure5_json(analysis: &StudyAnalysis) -> Json {
    Json::Obj(
        analysis
            .figure5
            .iter()
            .map(|(p, months)| {
                let by_month = months
                    .iter()
                    .map(|(month, profit)| (month.to_string(), signed_usd(*profit)))
                    .collect();
                (p.name().to_string(), Json::Obj(by_month))
            })
            .collect(),
    )
}

/// Figure 6 / §4.3.2.
pub fn figure6_json(analysis: &StudyAnalysis) -> Json {
    let points = analysis
        .gas
        .points
        .iter()
        .map(|point| {
            Json::obj([
                ("block", Json::U64(point.block)),
                ("platform", platform(point.platform)),
                ("gas_price_gwei", Json::U64(point.gas_price)),
                ("average_gas_price_gwei", Json::F64(point.average_gas_price)),
                ("above_average", Json::Bool(point.above_average)),
            ])
        })
        .collect();
    Json::obj([
        (
            "share_above_average",
            Json::F64(analysis.gas.share_above_average),
        ),
        ("points", Json::Arr(points)),
    ])
}

fn mean_std(stats: &defi_analytics::auctions::MeanStd) -> Json {
    Json::obj([
        ("mean", Json::F64(stats.mean)),
        ("std_dev", Json::F64(stats.std_dev)),
        ("count", Json::U64(stats.count as u64)),
    ])
}

/// Figure 7 / §4.3.3 auction statistics.
pub fn auctions_json(analysis: &StudyAnalysis) -> Json {
    let a = &analysis.auctions;
    let durations = a
        .durations
        .iter()
        .map(|point| {
            Json::obj([
                ("block", Json::U64(point.block)),
                ("duration_hours", Json::F64(point.duration_hours)),
            ])
        })
        .collect();
    Json::obj([
        ("terminated_in_tend", Json::U64(a.terminated_in_tend as u64)),
        ("terminated_in_dent", Json::U64(a.terminated_in_dent as u64)),
        ("average_bidders", Json::F64(a.average_bidders)),
        ("bids_per_auction", mean_std(&a.bids_per_auction)),
        ("tend_bids_per_auction", mean_std(&a.tend_bids_per_auction)),
        ("dent_bids_per_auction", mean_std(&a.dent_bids_per_auction)),
        ("duration_hours", mean_std(&a.duration_hours)),
        (
            "first_bid_delay_minutes",
            mean_std(&a.first_bid_delay_minutes),
        ),
        ("bid_interval_minutes", mean_std(&a.bid_interval_minutes)),
        (
            "auctions_with_multiple_bids",
            Json::U64(a.auctions_with_multiple_bids as u64),
        ),
        ("durations", Json::Arr(durations)),
    ])
}

fn bad_debt_summary(summary: &defi_core::bad_debt::BadDebtSummary) -> Json {
    Json::obj([
        ("count", Json::U64(summary.count as u64)),
        ("total_positions", Json::U64(summary.total_positions as u64)),
        ("collateral_locked_usd", usd(summary.collateral_locked)),
        ("share_percent", Json::F64(summary.share_percent())),
    ])
}

/// Table 2.
pub fn table2_json(analysis: &StudyAnalysis) -> Json {
    let rows = analysis
        .table2
        .rows
        .iter()
        .map(|row| {
            Json::obj([
                ("platform", platform(row.platform)),
                ("type_1", bad_debt_summary(&row.type_1)),
                ("type_2_fee_10", bad_debt_summary(&row.type_2_fee_10)),
                ("type_2_fee_100", bad_debt_summary(&row.type_2_fee_100)),
            ])
        })
        .collect();
    Json::obj([("rows", Json::Arr(rows))])
}

fn unprofitable_summary(summary: &defi_analytics::unprofitable::UnprofitableSummary) -> Json {
    Json::obj([
        ("count", Json::U64(summary.count as u64)),
        (
            "liquidatable_positions",
            Json::U64(summary.liquidatable_positions as u64),
        ),
        ("collateral_at_stake_usd", usd(summary.collateral_at_stake)),
        ("share_percent", Json::F64(summary.share_percent())),
    ])
}

/// Table 3.
pub fn table3_json(analysis: &StudyAnalysis) -> Json {
    let rows = analysis
        .table3
        .rows
        .iter()
        .map(|row| {
            Json::obj([
                ("platform", platform(row.platform)),
                ("close_factor", Json::F64(row.close_factor.to_f64())),
                ("fee_10", unprofitable_summary(&row.fee_10)),
                ("fee_100", unprofitable_summary(&row.fee_100)),
            ])
        })
        .collect();
    Json::obj([("rows", Json::Arr(rows))])
}

/// Table 4.
pub fn table4_json(analysis: &StudyAnalysis) -> Json {
    let rows = analysis
        .table4
        .rows
        .iter()
        .map(|row| {
            Json::obj([
                ("liquidation_platform", platform(row.liquidation_platform)),
                ("flash_pool", platform(row.flash_pool)),
                ("count", Json::U64(row.count as u64)),
                ("cumulative_amount_usd", usd(row.cumulative_amount_usd)),
            ])
        })
        .collect();
    Json::obj([
        ("rows", Json::Arr(rows)),
        (
            "total_flash_loans",
            Json::U64(analysis.table4.total_flash_loans as u64),
        ),
        ("total_amount_usd", usd(analysis.table4.total_amount_usd)),
    ])
}

/// Figure 8: every platform's sensitivity curves.
pub fn figure8_json(analysis: &StudyAnalysis) -> Json {
    Json::Obj(
        analysis
            .figure8
            .iter()
            .map(|sensitivity| {
                let curves = sensitivity
                    .curves
                    .iter()
                    .map(|curve| {
                        let points = curve
                            .points
                            .iter()
                            .map(|point| {
                                Json::obj([
                                    ("decline", Json::F64(point.decline)),
                                    ("liquidatable_usd", usd(point.liquidatable)),
                                ])
                            })
                            .collect();
                        (curve.token.symbol().to_string(), Json::Arr(points))
                    })
                    .collect();
                (sensitivity.platform.name().to_string(), Json::Obj(curves))
            })
            .collect(),
    )
}

/// §4.5.2 stablecoin stability.
pub fn stablecoins_json(analysis: &StudyAnalysis) -> Json {
    let s = &analysis.stablecoins;
    Json::obj([
        (
            "tokens",
            Json::Arr(s.tokens.iter().map(|t| Json::str(t.symbol())).collect()),
        ),
        ("sampled_blocks", Json::U64(s.sampled_blocks)),
        (
            "share_within_threshold",
            Json::F64(s.share_within_threshold),
        ),
        ("threshold", Json::F64(s.threshold)),
        ("max_difference", Json::F64(s.max_difference)),
        ("max_difference_block", Json::U64(s.max_difference_block)),
    ])
}

/// Figure 9: the profit–volume observations plus the mean-ratio ranking.
pub fn figure9_json(analysis: &StudyAnalysis) -> Json {
    let observations = analysis
        .figure9
        .observations
        .iter()
        .map(|obs| {
            Json::obj([
                ("month", Json::str(obs.month.to_string())),
                ("platform", platform(obs.platform)),
                ("monthly_profit_usd", usd(obs.monthly_profit)),
                (
                    "average_collateral_volume_usd",
                    usd(obs.average_collateral_volume),
                ),
                ("liquidation_count", Json::U64(obs.liquidation_count as u64)),
                ("ratio", obs.ratio().map(Json::F64).unwrap_or(Json::Null)),
            ])
        })
        .collect();
    let ranking = analysis
        .figure9
        .ranking(3)
        .into_iter()
        .map(|(p, ratio)| Json::obj([("platform", platform(p)), ("mean_ratio", Json::F64(ratio))]))
        .collect();
    Json::obj([
        ("observations", Json::Arr(observations)),
        ("mean_ratio_ranking", Json::Arr(ranking)),
    ])
}

/// Table 8.
pub fn table8_json(analysis: &StudyAnalysis) -> Json {
    Json::Obj(
        analysis
            .table8
            .counts
            .iter()
            .map(|(month, by_platform)| {
                let counts = by_platform
                    .iter()
                    .map(|(p, count)| (p.name().to_string(), Json::U64(*count as u64)))
                    .collect();
                (month.to_string(), Json::Obj(counts))
            })
            .collect(),
    )
}

/// Table 7.
pub fn table7_json(analysis: &StudyAnalysis) -> Json {
    let rows = analysis
        .table7
        .rows
        .iter()
        .map(|(pattern, row)| {
            Json::obj([
                ("movement", Json::str(format!("{pattern:?}"))),
                ("liquidations", Json::U64(row.liquidations as u64)),
                ("mean_max_excursion", Json::F64(row.mean_max_excursion)),
                ("mean_min_excursion", Json::F64(row.mean_min_excursion)),
            ])
        })
        .collect();
    Json::obj([
        ("rows", Json::Arr(rows)),
        ("total", Json::U64(analysis.table7.total as u64)),
        (
            "share_ending_below",
            Json::F64(analysis.table7.share_ending_below),
        ),
    ])
}

fn strategy_row(row: &crate::case_study::StrategyRow) -> Json {
    Json::obj([
        ("label", Json::str(row.label)),
        ("repay_usd", usd(row.repay_usd)),
        ("receive_usd", usd(row.receive_usd)),
        ("profit_usd", usd(row.profit_usd)),
    ])
}

/// Tables 5–6 plus the §5.2.3 mitigation threshold.
pub fn case_study_json(study: &CaseStudy) -> Json {
    let t5 = &study.table5;
    let t6 = &study.table6;
    Json::obj([
        (
            "table5",
            Json::obj([
                ("dai_collateral", usd(t5.dai_collateral)),
                ("usdc_collateral", usd(t5.usdc_collateral)),
                ("dai_debt", usd(t5.dai_debt)),
                ("usdc_debt", usd(t5.usdc_debt)),
                ("dai_price_before", Json::F64(t5.dai_price_before.to_f64())),
                ("dai_price_after", Json::F64(t5.dai_price_after.to_f64())),
                ("collateral_before_usd", usd(t5.collateral_before)),
                ("collateral_after_usd", usd(t5.collateral_after)),
                (
                    "borrowing_capacity_after_usd",
                    usd(t5.borrowing_capacity_after),
                ),
                ("debt_before_usd", usd(t5.debt_before)),
                ("debt_after_usd", usd(t5.debt_after)),
                (
                    "health_factor_after",
                    Json::F64(t5.health_factor_after.to_f64()),
                ),
            ]),
        ),
        (
            "table6",
            Json::obj([
                ("original", strategy_row(&t6.original)),
                ("up_to_close_factor", strategy_row(&t6.up_to_close_factor)),
                ("optimal_step_1", strategy_row(&t6.optimal_step_1)),
                ("optimal_step_2", strategy_row(&t6.optimal_step_2)),
                ("optimal", strategy_row(&t6.optimal)),
                (
                    "optimal_advantage_over_original_usd",
                    usd(t6.optimal_advantage_over_original),
                ),
                (
                    "predicted_increase_rate",
                    Json::F64(t6.predicted_increase_rate),
                ),
            ]),
        ),
        (
            "mitigation_mining_power_threshold",
            study
                .mitigation_mining_power_threshold
                .map(Json::F64)
                .unwrap_or(Json::Null),
        ),
    ])
}

/// Per-scenario mean/std aggregates of a sweep — computed once and shared by
/// the console report (`repro --sweep`) and [`sweep_json`] so the two
/// renderings cannot drift apart.
#[derive(Debug, Clone)]
pub struct ScenarioAggregate {
    /// Catalog scenario name.
    pub scenario: String,
    /// Number of runs in the group.
    pub runs: usize,
    /// Settled fixed-spread liquidations per run.
    pub liquidations: defi_analytics::auctions::MeanStd,
    /// Gross liquidator profit per run (USD).
    pub gross_profit_usd: defi_analytics::auctions::MeanStd,
    /// Collateral a 43 % ETH decline would make liquidatable (USD).
    pub eth_decline_43_liquidatable_usd: defi_analytics::auctions::MeanStd,
}

/// Group sweep summaries by scenario, in scenario-name order with input order
/// kept inside each group, and aggregate the headline metrics. Pooling a
/// depeg run with a gas-spike run into one mean says nothing about either.
pub fn scenario_aggregates(summaries: &[RunSummary]) -> Vec<ScenarioAggregate> {
    use defi_analytics::auctions::MeanStd;
    let mut groups: std::collections::BTreeMap<&str, Vec<&RunSummary>> =
        std::collections::BTreeMap::new();
    for summary in summaries {
        groups.entry(&summary.scenario).or_default().push(summary);
    }
    groups
        .into_iter()
        .map(|(scenario, group)| {
            let liquidations: Vec<f64> = group.iter().map(|s| s.liquidations as f64).collect();
            let profits: Vec<f64> = group.iter().map(|s| s.gross_profit.to_f64()).collect();
            let sensitivities: Vec<f64> = group
                .iter()
                .map(|s| s.eth_decline_43_liquidatable.to_f64())
                .collect();
            ScenarioAggregate {
                scenario: scenario.to_string(),
                runs: group.len(),
                liquidations: MeanStd::from_samples(&liquidations),
                gross_profit_usd: MeanStd::from_samples(&profits),
                eth_decline_43_liquidatable_usd: MeanStd::from_samples(&sensitivities),
            }
        })
        .collect()
}

/// `{mean, std}` of one aggregated metric.
fn mean_std_json(stats: &defi_analytics::auctions::MeanStd) -> Json {
    Json::obj([
        ("mean", Json::F64(stats.mean)),
        ("std", Json::F64(stats.std_dev)),
    ])
}

/// A seed sweep: per-run summaries, per-scenario mean/std aggregates, and
/// worker metadata.
pub fn sweep_json(summaries: &[RunSummary], workers: usize) -> Json {
    let runs = summaries
        .iter()
        .map(|summary| {
            Json::obj([
                ("seed", Json::U64(summary.seed)),
                ("scenario", Json::str(summary.scenario.clone())),
                ("ticks", Json::U64(summary.ticks)),
                ("events", Json::U64(summary.events as u64)),
                ("liquidations", Json::U64(summary.liquidations as u64)),
                (
                    "auctions_settled",
                    Json::U64(summary.auctions_settled as u64),
                ),
                ("gross_profit_usd", signed_usd(summary.gross_profit)),
                ("collateral_sold_usd", usd(summary.collateral_sold)),
                ("open_positions", Json::U64(summary.open_positions as u64)),
                (
                    "eth_decline_43_liquidatable_usd",
                    usd(summary.eth_decline_43_liquidatable),
                ),
                ("feedback_skipped_usd", usd(summary.feedback_skipped_usd)),
            ])
        })
        .collect();
    let scenarios = scenario_aggregates(summaries)
        .into_iter()
        .map(|aggregate| {
            Json::obj([
                ("scenario", Json::str(aggregate.scenario)),
                ("runs", Json::U64(aggregate.runs as u64)),
                ("liquidations", mean_std_json(&aggregate.liquidations)),
                (
                    "gross_profit_usd",
                    mean_std_json(&aggregate.gross_profit_usd),
                ),
                (
                    "eth_decline_43_liquidatable_usd",
                    mean_std_json(&aggregate.eth_decline_43_liquidatable_usd),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("workers", Json::U64(workers as u64)),
        ("runs", Json::Arr(runs)),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

/// `repro --list-scenarios --json`: the scenario catalog as a machine-
/// readable artefact.
pub fn scenario_catalog_json(catalog: &ScenarioCatalog) -> Json {
    let entries = catalog
        .entries()
        .iter()
        .map(|entry| {
            Json::obj([
                ("name", Json::str(entry.name.clone())),
                ("summary", Json::str(entry.summary.clone())),
            ])
        })
        .collect();
    Json::obj([("scenarios", Json::Arr(entries))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_strings_and_nesting() {
        let value = Json::obj([
            ("name", Json::str("line\n\"quoted\"")),
            ("count", Json::U64(3)),
            ("nan", Json::F64(f64::NAN)),
            ("items", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let text = value.to_string();
        assert!(text.contains("\\n"));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"count\": 3"));
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains("true,\n"));
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
        assert_eq!(Json::Obj(vec![]).to_string(), "{}");
    }

    #[test]
    fn sweep_json_groups_aggregates_by_scenario() {
        let summary = |seed: u64, scenario: &str, liquidations: u32| RunSummary {
            seed,
            scenario: scenario.to_string(),
            ticks: 10,
            events: 100,
            liquidations,
            auctions_settled: 1,
            gross_profit: SignedWad::ZERO,
            collateral_sold: Wad::from_int(5),
            open_positions: 7,
            eth_decline_43_liquidatable: Wad::from_int(1_000),
            feedback_skipped_usd: Wad::ZERO,
        };
        let summaries = vec![
            summary(1, "paper-two-year", 10),
            summary(2, "stablecoin-depeg", 4),
            summary(3, "paper-two-year", 20),
        ];
        let text = sweep_json(&summaries, 2).to_string();
        assert!(text.contains("\"scenarios\""));
        assert!(text.contains("\"stablecoin-depeg\""));
        // paper-two-year: mean 15 over two runs.
        assert!(text.contains("\"mean\": 15"));
        // Groups carry their run counts.
        assert!(text.contains("\"runs\": 2"));
        assert!(text.contains("\"runs\": 1"));
    }

    #[test]
    fn scenario_aggregates_partition_in_name_order() {
        use defi_analytics::sweep::sweep_summaries;
        use defi_sim::{SimConfig, SweepRunner};

        let mut base = SimConfig::smoke_test(5);
        base.end_block = base.start_block + 2 * base.tick_blocks;
        base.scenario = None;
        let grid = {
            let mut configs =
                SweepRunner::scenario_grid(&base, &["paper-two-year", "stablecoin-depeg"]);
            configs.extend(SweepRunner::scenario_grid(&base, &["paper-two-year"]));
            configs
        };
        let runner = SweepRunner::new(2);
        let summaries = sweep_summaries(&runner, &grid, &ScenarioCatalog::standard()).unwrap();
        let groups = scenario_aggregates(&summaries);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].scenario, "paper-two-year");
        assert_eq!(groups[0].runs, 2);
        assert_eq!(groups[1].scenario, "stablecoin-depeg");
        assert_eq!(groups[1].runs, 1);
        let total: usize = groups.iter().map(|group| group.runs).sum();
        assert_eq!(total, summaries.len());
    }

    #[test]
    fn case_study_json_has_both_tables() {
        let study =
            crate::case_study::run_case_study(&crate::case_study::CaseStudyInput::default());
        let text = case_study_json(&study).to_string();
        assert!(text.contains("\"table5\""));
        assert!(text.contains("\"table6\""));
        assert!(text.contains("\"mitigation_mining_power_threshold\""));
    }
}
