//! The reproduction harness.
//!
//! ```text
//! cargo run --release -p defi-bench --bin repro -- all
//! cargo run --release -p defi-bench --bin repro -- table1 fig8
//! cargo run --release -p defi-bench --bin repro -- --smoke all
//! cargo run --release -p defi-bench --bin repro -- --seed 7 fig9 table8
//! cargo run --release -p defi-bench --bin repro -- --smoke --json out all
//! cargo run --release -p defi-bench --bin repro -- --smoke --sweep seeds=8 --workers 4
//! ```
//!
//! Without `--smoke` the harness runs the full two-year scenario
//! (`SimConfig::paper_default`), which takes about 5–8 s in release mode on
//! a 2-CPU host; `--smoke` runs the ~3-month crash window used by the test
//! suite. Artefact names: `headline`, `table1`…`table8`, `fig4`…`fig9`,
//! `auction-stats`, `stablecoins`, `mitigation`, `configs`, `case-study`
//! (alias of `table5`/`table6`), or `all` (the list lives in
//! `defi_bench::artefacts`). An unknown artefact name, `--workers`
//! without `--sweep`, `--sweep seeds=0` or `--workers 0` is rejected with
//! exit status 2.
//!
//! The study computes in a single pass: the simulation streams through the
//! analytics crate's `StudyCollector` observer instead of materialising a
//! report and re-scanning it. `--json <dir>` additionally writes every
//! selected artefact as a machine-readable JSON file. `--sweep seeds=N` fans
//! N seeds of the scenario across `SweepRunner` workers and prints per-run
//! summaries with mean/std aggregates instead of the single-run artefacts.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use defi_analytics::{StudyAnalysis, StudyCollector};
use defi_bench::artefacts::{self, STUDY_ARTEFACTS};
use defi_bench::case_study::{run_case_study, CaseStudyInput};
use defi_bench::{json, render};
use defi_core::config::is_sound_fixed_spread_config;
use defi_core::params::RiskParams;
use defi_journal::{JournalReader, JournalWriter};
use defi_sim::{
    EngineBuilder, InvariantObserver, MultiObserver, RunSummary, ScenarioCatalog, Session,
    SessionStatus, SimConfig, SimError, SimObserver, SimulationEngine, SimulationReport,
    SweepRunner,
};
use defi_types::Platform;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--smoke] [--seed N] [--json DIR] [--scenario NAME] [--scenario-file PATH]\n             [--list-scenarios] [--check-invariants] [--sweep seeds=N|scenarios] [--workers N]\n             [--timings] [--journal FILE] [--replay FILE] <artefact>...\n       artefacts: {}\n       --scenario NAME runs a named catalog scenario (see --list-scenarios); names compose\n                  with '+', e.g. --scenario liquidation-spiral+stablecoin-depeg\n       --scenario-file PATH loads user-defined scenario entries into the catalog\n       --check-invariants attaches the InvariantObserver and fails on any violation\n       --sweep seeds=N runs N seeds through the SweepRunner and prints per-run summaries instead;\n       --sweep scenarios fans the whole scenario catalog across the workers\n       --timings prints each protocol book's per-phase tick-time breakdown after the run\n       --journal FILE records the run's observation stream as a replayable journal\n       --replay FILE renders artefacts from a recorded journal instead of simulating",
        artefacts::valid_names().join(" ")
    );
    std::process::exit(2)
}

fn write_json(dir: &Path, name: &str, value: &json::Json) {
    let path = dir.join(format!("{name}.json"));
    if let Err(error) = std::fs::write(&path, format!("{value}\n")) {
        eprintln!(
            "write artefact JSON {}: {error} (is the --json directory writable?)",
            path.display()
        );
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// What a `--sweep` invocation fans across the workers.
enum SweepKind {
    /// `--sweep seeds=N`: N consecutive seeds of the base configuration.
    Seeds(u64),
    /// `--sweep scenarios`: the full scenario catalog at the base seed.
    Scenarios,
}

fn run_sweep(
    base: SimConfig,
    kind: SweepKind,
    workers: Option<usize>,
    json_dir: Option<&Path>,
    catalog: &ScenarioCatalog,
) {
    let runner = workers
        .map(SweepRunner::new)
        .unwrap_or_else(SweepRunner::auto);
    let grid = match &kind {
        SweepKind::Seeds(seeds) => SweepRunner::seed_grid(&base, *seeds),
        SweepKind::Scenarios => SweepRunner::scenario_grid(&base, &catalog.names()),
    };
    eprintln!(
        "sweeping {} runs ({} ticks each) across {} workers…",
        grid.len(),
        base.tick_count(),
        runner.workers()
    );
    let started = std::time::Instant::now();
    let summaries: Vec<RunSummary> = match runner.run_with_catalog(&grid, catalog) {
        Ok(summaries) => summaries,
        Err(error) => {
            eprintln!("sweep failed: {error}");
            std::process::exit(1);
        }
    };
    eprintln!("sweep finished in {:.1}s", started.elapsed().as_secs_f64());

    println!("== sweep: per-run summaries ==");
    println!(
        "{:>10} {:>22} {:>8} {:>13} {:>9} {:>16} {:>18} {:>10} {:>16}",
        "Seed",
        "Scenario",
        "Events",
        "Liquidations",
        "Auctions",
        "Gross profit",
        "Collateral sold",
        "Open pos.",
        "43% ETH liq."
    );
    for summary in &summaries {
        println!(
            "{:>10} {:>22} {:>8} {:>13} {:>9} {:>16.0} {:>18.0} {:>10} {:>16.0}",
            summary.seed,
            summary.scenario,
            summary.events,
            summary.liquidations,
            summary.auctions_settled,
            summary.gross_profit.to_f64(),
            summary.collateral_sold.to_f64(),
            summary.open_positions,
            summary.eth_decline_43_liquidatable.to_f64(),
        );
    }
    // Aggregates are grouped by catalog scenario (pooling a depeg run with a
    // gas-spike run into one mean says nothing about either), computed by the
    // same helper `sweep.json` renders from.
    for aggregate in json::scenario_aggregates(&summaries) {
        println!(
            "== sweep: {} over {} run(s) ==",
            aggregate.scenario, aggregate.runs
        );
        println!(
            "  liquidations:        {:.1} ± {:.1}",
            aggregate.liquidations.mean, aggregate.liquidations.std_dev
        );
        println!(
            "  gross profit (USD):  {:.0} ± {:.0}",
            aggregate.gross_profit_usd.mean, aggregate.gross_profit_usd.std_dev
        );
        println!(
            "  43% ETH decline liquidatable (USD): {:.0} ± {:.0}",
            aggregate.eth_decline_43_liquidatable_usd.mean,
            aggregate.eth_decline_43_liquidatable_usd.std_dev
        );
    }

    if let Some(dir) = json_dir {
        write_json(
            dir,
            "sweep",
            &json::sweep_json(&summaries, runner.workers()),
        );
    }
}

/// Stream the study in a single pass (the `StudyCollector` observer computes
/// artefacts while the simulation runs) — the manual-session equivalent of
/// `StudyAnalysis::stream_with`, kept local so `--timings` can read each
/// protocol book's phase counters after the last tick, while the session is
/// still inspectable.
fn stream_study(
    engine: SimulationEngine,
    extra: Option<&mut dyn SimObserver>,
    timings: bool,
) -> Result<(StudyAnalysis, SimulationReport), SimError> {
    let mut collector = StudyCollector::new();
    let mut session = Session::new(engine);
    let report = {
        let mut observers = MultiObserver::new().with(&mut collector);
        if let Some(extra) = extra {
            observers = observers.with(extra);
        }
        while session.step(&mut observers)? == SessionStatus::Running {}
        if timings {
            print_book_timings(&mut session);
        }
        session.finish(&mut observers)?
    };
    let analysis = collector
        .into_analysis()
        .expect("finish dispatched on_run_end");
    Ok((analysis, report))
}

/// Per-phase tick-time breakdown of every protocol's incremental book: where
/// the wall-clock went (flush, at-risk visit, envelope re-derive)
/// and which cache path served the freshenings (term reprices of
/// critical-price accounts vs light refreshes of envelope-held ones vs full
/// revaluations) — wall-clock attribution for perf work without a profiler.
fn print_book_timings(session: &mut Session) {
    println!("== book per-phase timings ==");
    for platform in session.platforms() {
        let Some(stats) = session.inspect_protocol(platform, |protocol, _| protocol.book_stats())
        else {
            continue;
        };
        let ms = |nanos: u64| nanos as f64 / 1e6;
        println!(
            "  {:<10} flush {:>9.3} ms ({} flushes) | visit {:>9.3} ms | envelope {:>9.3} ms ({} derives)",
            platform.name(),
            ms(stats.flush_nanos),
            stats.flush_count,
            ms(stats.visit_nanos),
            ms(stats.envelope_derive_nanos),
            stats.envelope_derives,
        );
        println!(
            "  {:<10} revaluations {} (term reprices {} | light refreshes {} | envelope skips {} | envelope checks {}) | scratch grows {}",
            "",
            stats.revaluations,
            stats.term_reprices,
            stats.light_refreshes,
            stats.envelope_skips,
            stats.envelope_checks,
            stats.scratch_grows,
        );
    }
    println!();
}

fn main() {
    let mut smoke = false;
    let mut seed: u64 = 20_211_102; // the paper's publication date as a seed
    let mut json_dir: Option<PathBuf> = None;
    let mut sweep: Option<SweepKind> = None;
    let mut workers: Option<usize> = None;
    let mut scenario: Option<String> = None;
    let mut scenario_file: Option<PathBuf> = None;
    let mut list_scenarios = false;
    let mut check_invariants = false;
    let mut journal_path: Option<PathBuf> = None;
    let mut replay_path: Option<PathBuf> = None;
    let mut timings = false;
    let mut requested: BTreeSet<String> = BTreeSet::new();

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                let Some(value) = args.next() else { usage() };
                seed = value.parse().unwrap_or_else(|_| usage());
            }
            "--json" => {
                let Some(value) = args.next() else { usage() };
                json_dir = Some(PathBuf::from(value));
            }
            "--scenario" => {
                let Some(value) = args.next() else { usage() };
                scenario = Some(value);
            }
            "--scenario-file" => {
                let Some(value) = args.next() else { usage() };
                scenario_file = Some(PathBuf::from(value));
            }
            "--list-scenarios" => list_scenarios = true,
            "--timings" => timings = true,
            "--check-invariants" => check_invariants = true,
            "--journal" => {
                let Some(value) = args.next() else { usage() };
                journal_path = Some(PathBuf::from(value));
            }
            "--replay" => {
                let Some(value) = args.next() else { usage() };
                replay_path = Some(PathBuf::from(value));
            }
            "--sweep" => {
                let Some(value) = args.next() else { usage() };
                if value == "scenarios" {
                    sweep = Some(SweepKind::Scenarios);
                } else if let Some(count) = value.strip_prefix("seeds=") {
                    sweep = Some(SweepKind::Seeds(count.parse().unwrap_or_else(|_| usage())));
                } else {
                    usage()
                }
            }
            "--workers" => {
                let Some(value) = args.next() else { usage() };
                workers = Some(value.parse().unwrap_or_else(|_| usage()));
            }
            "--help" | "-h" => usage(),
            other => {
                requested.insert(other.to_ascii_lowercase());
            }
        }
    }

    let valid_names = artefacts::valid_names();
    if let Some(unknown) = requested
        .iter()
        .find(|name| !valid_names.contains(&name.as_str()))
    {
        eprintln!(
            "unknown artefact '{unknown}'; valid names: {}",
            valid_names.join(", ")
        );
        std::process::exit(2);
    }
    if workers.is_some() && sweep.is_none() {
        // Only the sweep fans runs across workers; a single run would
        // silently ignore the flag.
        eprintln!("--workers requires --sweep seeds=N or --sweep scenarios");
        std::process::exit(2);
    }
    if matches!(sweep, Some(SweepKind::Seeds(0))) {
        // An empty grid would print an empty table and exit 0 without
        // running anything.
        eprintln!("--sweep seeds=N needs at least one seed");
        std::process::exit(2);
    }
    if workers == Some(0) {
        // The runner would silently round zero workers up to one.
        eprintln!("--workers needs at least one worker");
        std::process::exit(2);
    }
    if check_invariants && sweep.is_some() {
        // The sweep path runs its own summarising observer per worker; it
        // does not audit invariants, so refuse instead of silently ignoring
        // the flag and reporting a false "clean" exit.
        eprintln!("--check-invariants cannot be combined with --sweep");
        std::process::exit(2);
    }
    if journal_path.is_some() && sweep.is_some() {
        // A journal records exactly one session's observation stream.
        eprintln!("--journal cannot be combined with --sweep");
        std::process::exit(2);
    }
    if replay_path.is_some() {
        if sweep.is_some() || journal_path.is_some() || check_invariants {
            // Replay re-drives a recorded stream: there is no simulation to
            // sweep or re-journal, and the invariant observer needs live
            // tick-end state that journals do not record.
            eprintln!("--replay cannot be combined with --sweep, --journal or --check-invariants");
            std::process::exit(2);
        }
        if scenario.is_some() {
            // The journal header carries the run's own scenario and seed;
            // refuse instead of silently ignoring the flag.
            eprintln!("--replay takes its configuration from the journal; drop --scenario");
            std::process::exit(2);
        }
    }

    if let Some(dir) = &json_dir {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!(
                "create --json output dir {}: {error} (is the parent writable and the path not a file?)",
                dir.display()
            );
            std::process::exit(1);
        }
    }

    let mut catalog = ScenarioCatalog::standard();
    if let Some(path) = &scenario_file {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("read --scenario-file {}: {error}", path.display());
                std::process::exit(2);
            }
        };
        match catalog.add_user_entries(&text) {
            Ok(added) => eprintln!(
                "loaded {added} user scenario entr{} from {}",
                if added == 1 { "y" } else { "ies" },
                path.display()
            ),
            Err(error) => {
                eprintln!("{}: {error}", path.display());
                std::process::exit(2);
            }
        }
    }
    if list_scenarios {
        println!("== scenario catalog ==");
        for entry in catalog.entries() {
            println!("  {:<24} {}", entry.name, entry.summary);
        }
        if let Some(dir) = &json_dir {
            write_json(dir, "scenarios", &json::scenario_catalog_json(&catalog));
        }
        return;
    }
    if let Some(name) = &scenario {
        if catalog.resolve(name).is_none() {
            eprintln!(
                "unknown scenario '{name}'; valid names (composable with '+'): {}",
                catalog.names().join(", ")
            );
            std::process::exit(2);
        }
    }

    let mut base_config = if smoke {
        SimConfig::smoke_test(seed)
    } else {
        SimConfig::paper_default(seed)
    };
    base_config.scenario = scenario;

    if let Some(kind) = sweep {
        run_sweep(base_config, kind, workers, json_dir.as_deref(), &catalog);
        return;
    }

    if requested.is_empty() {
        requested.insert(artefacts::ALL_NAME.to_string());
    }
    let all = requested.contains(artefacts::ALL_NAME);
    let wanted = |names: &[&str]| all || names.iter().any(|n| requested.contains(*n));
    let selected: Vec<_> = STUDY_ARTEFACTS
        .iter()
        .filter(|artefact| all || requested.iter().any(|name| artefact.answers_to(name)))
        .collect();

    // Pure (no-simulation) artefacts first.
    if wanted(&artefacts::CASE_STUDY_NAMES) {
        let study = run_case_study(&CaseStudyInput::default());
        println!("{}", render::render_case_study(&study));
        if let Some(dir) = &json_dir {
            write_json(dir, "case-study", &json::case_study_json(&study));
        }
    }
    if wanted(&[artefacts::CONFIGS_NAME]) {
        println!("== Appendix C: fixed-spread configuration soundness ==");
        for platform in Platform::ALL {
            let params = RiskParams::platform_default(platform);
            println!(
                "  {:<10} LT {:.2} LS {:.2} CF {:.2} -> 1 - LT(1+LS) > 0: {}",
                platform.name(),
                params.liquidation_threshold.to_f64(),
                params.liquidation_spread.to_f64(),
                params.close_factor.to_f64(),
                is_sound_fixed_spread_config(params)
            );
        }
        println!();
    }

    let needs_simulation = !selected.is_empty() || journal_path.is_some();
    if !needs_simulation && replay_path.is_none() {
        return;
    }

    let analysis = if let Some(path) = &replay_path {
        // Offline pass: re-drive the StudyCollector with the recorded
        // observation stream — no simulation, byte-identical artefacts.
        let started = std::time::Instant::now();
        let reader = match JournalReader::open(path) {
            Ok(reader) => reader,
            Err(error) => {
                eprintln!("replay failed: {error}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "replaying journal {} (scenario '{}', seed {}, {} frames)…",
            path.display(),
            reader
                .header()
                .config
                .scenario
                .as_deref()
                .unwrap_or(ScenarioCatalog::DEFAULT_NAME),
            reader.header().config.seed,
            reader.frames().len()
        );
        let analysis = match StudyAnalysis::from_replay(|observer| reader.replay(observer)) {
            Ok(Some(analysis)) => analysis,
            Ok(None) => {
                eprintln!(
                    "replay failed: {}: stream ended before the run end",
                    path.display()
                );
                std::process::exit(1);
            }
            Err(error) => {
                eprintln!("replay failed: {error}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "replay finished in {:.1}s; analytics computed in-stream",
            started.elapsed().as_secs_f64()
        );
        analysis
    } else {
        let config = base_config;
        eprintln!(
            "running the {} window of scenario '{}' (seed {seed}, {} ticks){}…",
            if smoke { "smoke" } else { "two-year study" },
            config
                .scenario
                .as_deref()
                .unwrap_or(ScenarioCatalog::DEFAULT_NAME),
            config.tick_count(),
            if check_invariants {
                " with invariant checking"
            } else {
                ""
            }
        );
        let started = std::time::Instant::now();
        // One streaming pass: the study computes while the simulation runs,
        // with the invariant observer (and the journal writer, when
        // recording) attached to the same session.
        let mut invariants = InvariantObserver::new();
        let mut journal = match &journal_path {
            Some(path) => match JournalWriter::create(path) {
                Ok(writer) => Some(writer),
                Err(error) => {
                    eprintln!("journal failed: {error}");
                    std::process::exit(1);
                }
            },
            None => None,
        };
        let engine = EngineBuilder::new(config)
            .with_catalog(catalog.clone())
            .build();
        let result = match (&mut journal, check_invariants) {
            (Some(writer), true) => {
                let mut extra = MultiObserver::new().with(writer).with(&mut invariants);
                stream_study(engine, Some(&mut extra), timings)
            }
            (Some(writer), false) => stream_study(engine, Some(writer), timings),
            (None, true) => stream_study(engine, Some(&mut invariants), timings),
            (None, false) => stream_study(engine, None, timings),
        };
        let (analysis, report) = match result {
            Ok(result) => result,
            Err(error) => {
                eprintln!("simulation failed: {error}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "simulation finished in {:.1}s ({} events); analytics computed in-stream",
            started.elapsed().as_secs_f64(),
            report.chain.events().len()
        );
        if let Some(behavior) = &report.behavior {
            eprintln!(
                "behavior: {} opportunities queued, {} executed after latency, {} dropped stale, \
                 {} inventory exhaustions, {} panic exits (${:.0} sold)",
                behavior.stats.opportunities_queued,
                behavior.stats.executed_delayed,
                behavior.stats.stale_dropped,
                behavior.stats.inventory_exhaustions,
                behavior.stats.panic_exits,
                behavior.stats.panic_sell_usd,
            );
        }
        if !report.feedback_skipped.is_empty() {
            // No silent caps: collateral without a DEX route never reached the
            // feedback loop, so say how much sell pressure went unmodelled.
            let total: f64 = report
                .feedback_skipped
                .values()
                .map(|skipped| skipped.usd.to_f64())
                .sum();
            eprintln!(
                "feedback: ${total:.0} of sell pressure across {} token(s) had no DEX route and \
                 was skipped{}",
                report.feedback_skipped.len(),
                if timings {
                    ":"
                } else {
                    " (--timings for the per-token breakdown)"
                }
            );
            if timings {
                for (token, skipped) in &report.feedback_skipped {
                    eprintln!(
                        "  {token:<6} {} lot(s), {:.4} units, ${:.0}",
                        skipped.lots,
                        skipped.amount.to_f64(),
                        skipped.usd.to_f64()
                    );
                }
            }
        }
        if let Some(writer) = journal {
            let frames = writer.frames_written();
            match writer.finish() {
                Ok(()) => {
                    if let Some(path) = &journal_path {
                        eprintln!("journaled {frames} frames to {}", path.display());
                    }
                }
                Err(error) => {
                    eprintln!("journal failed: {error}");
                    std::process::exit(1);
                }
            }
        }
        if check_invariants {
            if invariants.is_clean() {
                eprintln!("invariants: clean");
            } else {
                eprintln!("invariants: {} violation(s)", invariants.violations().len());
                for violation in invariants.violations().iter().take(20) {
                    eprintln!("  {violation}");
                }
                std::process::exit(1);
            }
        }
        analysis
    };

    // Render (and JSON-encode) lazily: only the selected artefacts are built.
    for artefact in selected {
        println!("{}", (artefact.render)(&analysis));
        if let Some(dir) = &json_dir {
            write_json(dir, artefact.name, &(artefact.json)(&analysis));
        }
    }
}
