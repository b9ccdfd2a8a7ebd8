//! The one list of the paper's artefacts the harness can produce.
//!
//! `repro` selects, validates and prints from it, and the parity and golden
//! tests iterate it, so adding an artefact is one entry here.

use defi_analytics::StudyAnalysis;

use crate::json::{self, Json};
use crate::render;

/// One artefact computed from a simulated (or replayed) run.
#[derive(Clone, Copy)]
pub struct Artefact {
    /// The primary CLI name, also the `--json` file stem.
    pub name: &'static str,
    /// Further CLI names selecting the same artefact.
    pub aliases: &'static [&'static str],
    /// The text rendering `repro` prints.
    pub render: fn(&StudyAnalysis) -> String,
    /// The JSON document `repro --json` writes.
    pub json: fn(&StudyAnalysis) -> Json,
}

impl Artefact {
    /// Whether `name` selects this artefact.
    pub fn answers_to(&self, name: &str) -> bool {
        self.name == name || self.aliases.contains(&name)
    }
}

const fn artefact(
    name: &'static str,
    aliases: &'static [&'static str],
    render: fn(&StudyAnalysis) -> String,
    json: fn(&StudyAnalysis) -> Json,
) -> Artefact {
    Artefact {
        name,
        aliases,
        render,
        json,
    }
}

/// Every artefact of the study, in the order `repro all` prints them.
pub const STUDY_ARTEFACTS: [Artefact; 14] = [
    artefact(
        "headline",
        &[],
        render::render_headline,
        json::headline_json,
    ),
    artefact("table1", &[], render::render_table1, json::table1_json),
    artefact("fig4", &[], render::render_figure4, json::figure4_json),
    artefact("fig5", &[], render::render_figure5, json::figure5_json),
    artefact("fig6", &[], render::render_figure6, json::figure6_json),
    artefact(
        "fig7",
        &["auction-stats"],
        render::render_auctions,
        json::auctions_json,
    ),
    artefact("table2", &[], render::render_table2, json::table2_json),
    artefact("table3", &[], render::render_table3, json::table3_json),
    artefact("table4", &[], render::render_table4, json::table4_json),
    artefact("fig8", &[], render::render_figure8, json::figure8_json),
    artefact(
        "stablecoins",
        &[],
        render::render_stablecoins,
        json::stablecoins_json,
    ),
    artefact("fig9", &[], render::render_figure9, json::figure9_json),
    artefact("table8", &[], render::render_table8, json::table8_json),
    artefact("table7", &[], render::render_table7, json::table7_json),
];

/// Names selecting the §5.2 case study (Tables 5–6 and the mitigation
/// comparison), which needs no simulation.
pub const CASE_STUDY_NAMES: [&str; 4] = ["case-study", "table5", "table6", "mitigation"];

/// The name selecting the Appendix C configuration-soundness check, which
/// needs no simulation.
pub const CONFIGS_NAME: &str = "configs";

/// The name selecting every artefact.
pub const ALL_NAME: &str = "all";

/// Every name `repro` accepts as an artefact selector.
pub fn valid_names() -> Vec<&'static str> {
    let mut names = vec![ALL_NAME];
    for artefact in &STUDY_ARTEFACTS {
        names.push(artefact.name);
        names.extend_from_slice(artefact.aliases);
    }
    names.extend_from_slice(&CASE_STUDY_NAMES);
    names.push(CONFIGS_NAME);
    names
}
