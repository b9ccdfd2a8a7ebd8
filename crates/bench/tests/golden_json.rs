//! Golden-file snapshots of `repro --json` on the smoke scenario.
//!
//! The committed files under `tests/golden/` are the byte-exact JSON the
//! harness writes for the default smoke run (`repro --smoke --json <dir>
//! all`, seed 20 211 102), one file per study artefact. Any drift in the
//! simulation, the analytics pipeline or the hand-rolled JSON encoder shows
//! up here as a byte diff — regenerate the files deliberately (and explain
//! why) rather than loosening the comparison. Streaming parity and replay
//! parity compare two paths through the same analytics functions, so a bug
//! in a shared function is invisible to them; only these files catch it.
//!
//! The default run leaves the behavioural layer off, so one more file,
//! `golden/capital-crunch-spiral.txt`, pins the smoke run of the
//! `capital-crunch-spiral` scenario: its headline JSON plus the behaviour
//! report (the counters and the per-agent capital exhaustions), rendered
//! by [`behavior_rendering`].
//!
//! `golden/sweep.json` pins `repro --smoke --sweep seeds=2 --workers 2
//! --json <dir>`: two smoke-window seeds fanned across two workers, with
//! their per-run summaries and per-scenario aggregates.

use defi_analytics::sweep::sweep_summaries;
use defi_analytics::StudyAnalysis;
use defi_bench::artefacts::STUDY_ARTEFACTS;
use defi_bench::json;
use defi_sim::{
    BehaviorReport, EngineBuilder, ScenarioCatalog, SimConfig, SimulationEngine, SweepRunner,
};

/// The `repro` binary's default seed (the paper's publication date).
const REPRO_DEFAULT_SEED: u64 = 20_211_102;

/// One committed file per study artefact, keyed by the artefact's name.
const GOLDEN: [(&str, &str); 14] = [
    ("headline", include_str!("golden/headline.json")),
    ("table1", include_str!("golden/table1.json")),
    ("fig4", include_str!("golden/fig4.json")),
    ("fig5", include_str!("golden/fig5.json")),
    ("fig6", include_str!("golden/fig6.json")),
    ("fig7", include_str!("golden/fig7.json")),
    ("table2", include_str!("golden/table2.json")),
    ("table3", include_str!("golden/table3.json")),
    ("table4", include_str!("golden/table4.json")),
    ("fig8", include_str!("golden/fig8.json")),
    ("stablecoins", include_str!("golden/stablecoins.json")),
    ("fig9", include_str!("golden/fig9.json")),
    ("table8", include_str!("golden/table8.json")),
    ("table7", include_str!("golden/table7.json")),
];

fn rendered(value: &json::Json) -> String {
    // `repro --json` writes `format!("{value}\n")`; match it exactly.
    format!("{value}\n")
}

#[test]
fn smoke_json_artefacts_match_the_committed_golden_files() {
    let config = SimConfig::smoke_test(REPRO_DEFAULT_SEED);
    let (analysis, _report) =
        StudyAnalysis::stream(SimulationEngine::new(config)).expect("smoke run");

    let golden_names: Vec<&str> = GOLDEN.iter().map(|(name, _)| *name).collect();
    let artefact_names: Vec<&str> = STUDY_ARTEFACTS.iter().map(|a| a.name).collect();
    assert_eq!(
        golden_names, artefact_names,
        "every study artefact needs exactly one golden file"
    );
    for (artefact, (name, golden)) in STUDY_ARTEFACTS.iter().zip(GOLDEN) {
        let actual = rendered(&(artefact.json)(&analysis));
        assert!(
            actual == golden,
            "{name}.json drifted from the golden file.\n--- expected ---\n{golden}\n--- actual ---\n{actual}"
        );
    }
}

/// One line per behaviour counter, then one `agent ADDRESS EXHAUSTIONS`
/// line per liquidator that ran out of capital, in address order.
fn behavior_rendering(report: &BehaviorReport) -> String {
    let stats = report.stats;
    let mut out = format!(
        "opportunities_queued {}\nexecuted_delayed {}\nstale_dropped {}\n\
         inventory_exhaustions {}\npanic_exits {}\npanic_sell_usd {:?}\n",
        stats.opportunities_queued,
        stats.executed_delayed,
        stats.stale_dropped,
        stats.inventory_exhaustions,
        stats.panic_exits,
        stats.panic_sell_usd,
    );
    for agent in &report.agents {
        out.push_str(&format!("agent {} {}\n", agent.address, agent.exhaustions));
    }
    out
}

#[test]
fn capital_crunch_spiral_smoke_run_matches_the_committed_golden_file() {
    let engine = EngineBuilder::new(SimConfig::smoke_test(REPRO_DEFAULT_SEED))
        .with_named_scenario("capital-crunch-spiral")
        .build();
    let (analysis, report) = StudyAnalysis::stream(engine).expect("smoke run");
    let headline = STUDY_ARTEFACTS
        .iter()
        .find(|artefact| artefact.name == "headline")
        .expect("headline artefact");
    let behavior = report
        .behavior
        .as_ref()
        .expect("the scenario enables the layer");
    let actual = rendered(&(headline.json)(&analysis)) + &behavior_rendering(behavior);
    let golden = include_str!("golden/capital-crunch-spiral.txt");
    assert!(
        actual == golden,
        "capital-crunch-spiral.txt drifted from the golden file.\n--- expected ---\n{golden}\n--- actual ---\n{actual}"
    );
}

#[test]
fn smoke_sweep_json_matches_the_committed_golden_file() {
    let grid = SweepRunner::seed_grid(&SimConfig::smoke_test(REPRO_DEFAULT_SEED), 2);
    let runner = SweepRunner::new(2);
    let summaries =
        sweep_summaries(&runner, &grid, &ScenarioCatalog::standard()).expect("smoke sweep");
    let actual = rendered(&json::sweep_json(&summaries, runner.workers()));
    let golden = include_str!("golden/sweep.json");
    assert!(
        actual == golden,
        "sweep.json drifted from the golden file.\n--- expected ---\n{golden}\n--- actual ---\n{actual}"
    );
}
