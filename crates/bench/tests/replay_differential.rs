//! Journal replay differential: for every catalog scenario, a live run
//! recorded through `JournalWriter` and replayed through `JournalReader`
//! must render every artefact byte-identically to the analysis the live run
//! computed — the acceptance bar for `repro --replay`.

use defi_analytics::StudyAnalysis;
use defi_bench::artefacts::STUDY_ARTEFACTS;
use defi_journal::{JournalReader, JournalWriter};
use defi_sim::{ScenarioCatalog, SimConfig, SimulationEngine};

fn assert_replay_parity(scenario_name: &str) {
    let dir = std::env::temp_dir().join("djrn-replay-differential");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{scenario_name}.jrn"));

    // A short window keeps the six-scenario matrix fast; catalog entries
    // never change start/end blocks, so shortening is scenario-safe.
    let mut config = SimConfig::smoke_test(20_211_102);
    config.end_block = config.start_block + 60 * config.tick_blocks;
    config.scenario = Some(scenario_name.to_string());

    let mut writer = JournalWriter::create(&path).expect("create journal");
    let (live, _report) =
        StudyAnalysis::stream_with(SimulationEngine::new(config), &mut writer).expect("live run");
    writer.finish().expect("finish journal");

    let reader = JournalReader::open(&path).expect("open journal");
    assert_eq!(
        reader.header().config.scenario.as_deref(),
        Some(scenario_name),
        "journal header must carry the scenario"
    );
    let replayed = StudyAnalysis::from_replay(|observer| reader.replay(observer))
        .expect("replay")
        .expect("replay reaches the run end");

    for artefact in STUDY_ARTEFACTS {
        assert_eq!(
            (artefact.render)(&live),
            (artefact.render)(&replayed),
            "{scenario_name}: artefact {} diverged between live run and journal replay",
            artefact.name
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_is_byte_identical_on_every_catalog_scenario() {
    let catalog = ScenarioCatalog::standard();
    let names = catalog.names();
    assert_eq!(names.len(), 7, "catalog grew; extend this differential");
    for name in names {
        assert_replay_parity(name);
    }
}
