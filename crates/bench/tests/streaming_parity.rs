//! Streaming-vs-batch parity: the `StudyAnalysis` a `StudyCollector` builds
//! during the run must render (and JSON-encode) byte-identically to the
//! post-hoc `StudyAnalysis::from_report` scan. Both compute every artefact
//! through the same functions; what this checks is their inputs — the
//! ledger built live from liquidation observations against the one rebuilt
//! from the event log, and the session's run-end state against the report.
//! A bug inside a shared function is invisible here; the golden files catch
//! that. Checked on the smoke default and on a scenario-catalog entry
//! (`stablecoin-depeg`), so catalog plumbing cannot skew either pipeline.

use defi_analytics::StudyAnalysis;
use defi_bench::artefacts::STUDY_ARTEFACTS;
use defi_sim::{ScenarioCatalog, SimConfig, SimulationEngine};

fn assert_parity(config: SimConfig) {
    let scenario = config
        .scenario
        .clone()
        .unwrap_or_else(|| ScenarioCatalog::DEFAULT_NAME.to_string());

    let report = SimulationEngine::new(config.clone()).run();
    let batch = StudyAnalysis::from_report(&report);

    let (streamed, stream_report) =
        StudyAnalysis::stream(SimulationEngine::new(config)).expect("streaming run");

    assert_eq!(
        report.chain.events().len(),
        stream_report.chain.events().len(),
        "{scenario}: the session replays the exact same run"
    );
    assert_eq!(batch.records.len(), streamed.records.len());

    for artefact in STUDY_ARTEFACTS {
        let name = artefact.name;
        assert_eq!(
            (artefact.render)(&batch),
            (artefact.render)(&streamed),
            "{scenario}: artefact {name} diverged between the batch and streaming pipelines"
        );
        assert_eq!(
            (artefact.json)(&batch).to_string(),
            (artefact.json)(&streamed).to_string(),
            "{scenario}: {name}.json diverged between the batch and streaming pipelines"
        );
    }
}

#[test]
fn streaming_study_renders_byte_identically_to_batch() {
    assert_parity(SimConfig::smoke_test(11));
}

#[test]
fn streaming_parity_holds_on_a_catalog_scenario() {
    let mut config = SimConfig::smoke_test(11);
    config.scenario = Some("stablecoin-depeg".to_string());
    assert_parity(config);
}
