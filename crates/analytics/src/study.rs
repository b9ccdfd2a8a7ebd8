//! One-call analysis of a full simulation run.
//!
//! Every artefact is computed by exactly one function, and both ways of
//! building a [`StudyAnalysis`] reach those functions through one private
//! assembly step over the liquidation ledger, the volume samples and the
//! run-end state. They differ only in where those inputs come from:
//!
//! * **streaming** — [`StudyCollector`] is a [`SimObserver`] that builds
//!   the ledger and keeps the volume samples while the run executes, then
//!   assembles the study in `on_run_end`; attach it to a
//!   [`Session`](defi_sim::Session), replay a journal into it, or call
//!   [`StudyAnalysis::stream`];
//! * **batch** — [`StudyAnalysis::from_report`] rebuilds the ledger from a
//!   materialised [`SimulationReport`]'s event log after the fact (the
//!   reference the streaming path is tested against).

use serde::Serialize;

use defi_core::comparison::MechanismComparison;
use defi_sim::{
    LiquidationObservation, MultiObserver, NullObserver, RunEnd, RunStart, SimError, SimObserver,
    SimulationEngine, SimulationReport, VolumeSample,
};
use defi_types::{TimeMap, Token};

use crate::auctions::{auction_stats, AuctionStats};
use crate::bad_debt::{table2, Table2};
use crate::flashloan::{table4, Table4};
use crate::gas::{gas_competition, GasCompetition, GAS_WINDOW_BLOCKS};
use crate::overall::{
    accumulative_collateral_sold, headline, monthly_profit, table1, top_liquidators,
    AccumulativePoint, HeadlineStats, Table1, TopLiquidators,
};
use crate::price_movement::{table7, table7_window, Table7};
use crate::profit_volume::{figure9, table8, Table8};
use crate::records::{collect_records, record_from_logged, LiquidationRecord};
use crate::sensitivity::{figure8, PlatformSensitivity};
use crate::stablecoin::{stablecoin_stability, StablecoinStability};
use crate::unprofitable::{table3, Table3};

/// Sensitivity-sweep resolution of Figure 8.
const FIGURE8_STEPS: usize = 50;

/// Every artefact of the paper's evaluation, computed from one run.
#[derive(Debug, Serialize)]
pub struct StudyAnalysis {
    /// The unified liquidation ledger.
    pub records: Vec<LiquidationRecord>,
    /// §4.2 headline statistics.
    pub headline: HeadlineStats,
    /// Table 1.
    pub table1: Table1,
    /// §4.3.1 most active / most profitable liquidators.
    pub top_liquidators: Option<TopLiquidators>,
    /// Figure 4 series per platform.
    pub figure4: std::collections::BTreeMap<defi_types::Platform, Vec<AccumulativePoint>>,
    /// Figure 5: monthly profit per platform.
    pub figure5: std::collections::BTreeMap<
        defi_types::Platform,
        std::collections::BTreeMap<defi_types::MonthTag, defi_types::SignedWad>,
    >,
    /// Figure 6 / §4.3.2.
    pub gas: GasCompetition,
    /// Figure 7 / §4.3.3.
    pub auctions: AuctionStats,
    /// Table 2.
    pub table2: Table2,
    /// Table 3.
    pub table3: Table3,
    /// Table 4.
    pub table4: Table4,
    /// Figure 8 per platform.
    pub figure8: Vec<PlatformSensitivity>,
    /// §4.5.2 stablecoin stability.
    pub stablecoins: StablecoinStability,
    /// Figure 9 dataset.
    pub figure9: MechanismComparison,
    /// Table 8.
    pub table8: Table8,
    /// Table 7 (Appendix A).
    pub table7: Table7,
}

impl StudyAnalysis {
    /// Run the full measurement pipeline over a simulation report (the batch
    /// path: the ledger is rebuilt from `report.chain.events()`).
    pub fn from_report(report: &SimulationReport) -> Self {
        let records = collect_records(&report.chain, &report.market_oracle);
        let end = RunEnd {
            config: &report.config,
            snapshot_block: report.snapshot_block,
            final_positions: &report.final_positions,
            chain: &report.chain,
            market_oracle: &report.market_oracle,
        };
        Self::assemble(records, &report.volume_samples, &end)
    }

    /// Compute every artefact from the ledger, the volume samples and the
    /// run-end state — the one place both pipelines meet.
    fn assemble(
        records: Vec<LiquidationRecord>,
        volume_samples: &[VolumeSample],
        end: &RunEnd<'_>,
    ) -> Self {
        let time_map = *end.chain.time_map();
        StudyAnalysis {
            headline: headline(&records),
            table1: table1(&records),
            top_liquidators: top_liquidators(&records),
            figure4: accumulative_collateral_sold(&records),
            figure5: monthly_profit(&records),
            gas: gas_competition(end.chain, &records, GAS_WINDOW_BLOCKS),
            auctions: auction_stats(end.chain, &records, &time_map),
            table2: table2(end.final_positions),
            table3: table3(end.final_positions),
            table4: table4(end.chain),
            figure8: figure8(end.final_positions, FIGURE8_STEPS),
            stablecoins: stablecoin_stability(
                end.market_oracle,
                &[Token::DAI, Token::USDC, Token::USDT],
                end.config.start_block,
                end.snapshot_block,
                end.config.tick_blocks,
                0.05,
            ),
            figure9: figure9(&records, volume_samples, &time_map),
            table8: table8(&records),
            table7: table7(
                &records,
                end.market_oracle,
                table7_window(end.config.tick_blocks),
                end.config.tick_blocks,
            ),
            records,
        }
    }

    /// Stream a run through a [`StudyCollector`], computing the study in a
    /// single pass during the simulation. Returns the analysis together with
    /// the report.
    pub fn stream(engine: SimulationEngine) -> Result<(StudyAnalysis, SimulationReport), SimError> {
        Self::stream_with(engine, &mut NullObserver)
    }

    /// Replay-driven construction: `drive` feeds an already-recorded
    /// observation stream (e.g. a journal reader's `replay`) into a fresh
    /// [`StudyCollector`], and the finished analysis is returned — the same
    /// single-pass study [`stream`](StudyAnalysis::stream) computes live,
    /// with no simulation attached. Returns `Ok(None)` when the stream never
    /// reached `on_run_end` (an unfinished recording).
    pub fn from_replay<E>(
        drive: impl FnOnce(&mut dyn SimObserver) -> Result<(), E>,
    ) -> Result<Option<StudyAnalysis>, E> {
        let mut collector = StudyCollector::new();
        drive(&mut collector)?;
        Ok(collector.into_analysis())
    }

    /// Like [`stream`](StudyAnalysis::stream), with an additional observer
    /// attached to the same session — e.g. an
    /// [`InvariantObserver`](defi_sim::InvariantObserver) auditing the run
    /// the study is measuring.
    pub fn stream_with(
        engine: SimulationEngine,
        extra: &mut dyn SimObserver,
    ) -> Result<(StudyAnalysis, SimulationReport), SimError> {
        let mut collector = StudyCollector::new();
        let report = {
            let mut observers = MultiObserver::new().with(&mut collector).with(extra);
            engine.session().run_to_end(&mut observers)?
        };
        let analysis = collector
            .into_analysis()
            .expect("run_to_end dispatched on_run_end");
        Ok((analysis, report))
    }
}

/// The streaming counterpart of [`StudyAnalysis::from_report`]: builds each
/// liquidation record as it settles and keeps every volume sample, then
/// computes the study in `on_run_end` over the final state the session (or
/// a journal replay) hands over.
#[derive(Debug, Default)]
pub struct StudyCollector {
    time_map: Option<TimeMap>,
    records: Vec<LiquidationRecord>,
    volume_samples: Vec<VolumeSample>,
    analysis: Option<StudyAnalysis>,
}

impl StudyCollector {
    /// An empty collector (attach to a session before the first tick).
    pub fn new() -> Self {
        StudyCollector::default()
    }

    /// The ledger accumulated so far (live during the run).
    pub fn records(&self) -> &[LiquidationRecord] {
        &self.records
    }

    /// Consume the collector, returning the analysis built by `on_run_end`
    /// (`None` if the session never finished).
    pub fn into_analysis(self) -> Option<StudyAnalysis> {
        self.analysis
    }
}

impl SimObserver for StudyCollector {
    fn on_run_start(&mut self, run: &RunStart<'_>) {
        self.time_map = Some(run.time_map);
    }

    fn on_liquidation(&mut self, liquidation: &LiquidationObservation<'_>) {
        // Fall back to the paper's study-window calendar when the collector
        // was attached without seeing `on_run_start`.
        let time_map = self.time_map.unwrap_or_else(TimeMap::paper_study_window);
        self.records.extend(record_from_logged(
            liquidation.logged,
            liquidation.eth_price,
            &time_map,
        ));
    }

    fn on_volume_sample(&mut self, sample: &VolumeSample) {
        self.volume_samples.push(*sample);
    }

    fn on_run_end(&mut self, end: &RunEnd<'_>) {
        let records = std::mem::take(&mut self.records);
        let volume_samples = std::mem::take(&mut self.volume_samples);
        self.analysis = Some(StudyAnalysis::assemble(records, &volume_samples, end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defi_sim::{SimConfig, SimulationEngine};
    use defi_types::Platform;

    #[test]
    fn full_pipeline_runs_on_a_smoke_scenario() {
        let report = SimulationEngine::new(SimConfig::smoke_test(11)).run();
        let analysis = StudyAnalysis::from_report(&report);

        // The ledger, Table 1 and the headline stats agree on the count.
        assert_eq!(
            analysis.headline.liquidation_count as usize,
            analysis.records.len()
        );
        assert_eq!(
            analysis.table1.total_liquidations,
            analysis.headline.liquidation_count
        );
        assert!(analysis.headline.liquidation_count > 0);

        // Gas competition: most liquidations bid above the average (the
        // paper's §4.3.2 observation).
        assert!(analysis.gas.share_above_average > 0.5);

        // The sensitivity sweep covers every platform with positions.
        assert_eq!(analysis.figure8.len(), report.final_positions.len());

        // Stablecoins stay within 5% of each other almost all the time.
        assert!(analysis.stablecoins.share_within_threshold > 0.9);

        // Table 7 classifies (almost) every liquidation.
        assert!(analysis.table7.total > 0);

        // The smoke window includes the March 2020 crash, so MakerDAO
        // auctions settle and show up.
        assert!(
            analysis
                .records
                .iter()
                .any(|r| r.platform == Platform::MakerDao),
            "expected MakerDAO auction liquidations in the crash window"
        );
    }

    #[test]
    fn streaming_pipeline_matches_batch_counts() {
        let mut config = SimConfig::smoke_test(12);
        config.end_block = config.start_block + 60 * config.tick_blocks;
        let report = SimulationEngine::new(config.clone()).run();
        let batch = StudyAnalysis::from_report(&report);

        let (streamed, stream_report) =
            StudyAnalysis::stream(SimulationEngine::new(config)).unwrap();
        assert_eq!(
            report.chain.events().len(),
            stream_report.chain.events().len()
        );
        assert_eq!(batch.records.len(), streamed.records.len());
        assert_eq!(
            batch.headline.liquidation_count,
            streamed.headline.liquidation_count
        );
        assert_eq!(batch.headline.total_profit, streamed.headline.total_profit);
        assert_eq!(
            batch.table1.total_liquidators,
            streamed.table1.total_liquidators
        );
        assert_eq!(batch.gas.points.len(), streamed.gas.points.len());
        assert_eq!(
            batch.auctions.terminated_in_tend + batch.auctions.terminated_in_dent,
            streamed.auctions.terminated_in_tend + streamed.auctions.terminated_in_dent
        );
        assert_eq!(
            batch.table4.total_flash_loans,
            streamed.table4.total_flash_loans
        );
        assert_eq!(batch.table7.total, streamed.table7.total);
    }
}
