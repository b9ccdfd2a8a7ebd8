//! Sweep determinism: the per-run summaries of a seed or scenario grid must
//! be identical regardless of how many workers execute it — results are
//! indexed by input position and every run is seeded independently, so
//! parallelism must never leak into the output.

use defi_analytics::sweep::{sweep_summaries, RunSummary};
use defi_sim::{ScenarioCatalog, SimConfig, SimError, SweepRunner};

fn shortened_smoke(seed: u64, ticks: u64) -> SimConfig {
    let mut config = SimConfig::smoke_test(seed);
    config.end_block = config.start_block + ticks * config.tick_blocks;
    config
}

/// Sweep `grid` through the study pipeline on `workers` workers against the
/// standard catalog.
fn summaries(workers: usize, grid: &[SimConfig]) -> Result<Vec<RunSummary>, SimError> {
    sweep_summaries(
        &SweepRunner::new(workers),
        grid,
        &ScenarioCatalog::standard(),
    )
}

#[test]
fn one_worker_equals_many_workers_on_identical_seed_grids() {
    let grid = SweepRunner::seed_grid(&shortened_smoke(31, 40), 4);

    let serial = summaries(1, &grid).expect("serial sweep");
    let four_workers = summaries(4, &grid).expect("parallel sweep");

    assert_eq!(serial, four_workers);
    assert_eq!(serial.len(), 4);
    for (index, summary) in serial.iter().enumerate() {
        assert_eq!(summary.seed, 31 + index as u64, "summaries keep grid order");
        assert!(summary.events > 0, "each run actually simulated");
    }
}

#[test]
fn scenario_grid_is_worker_count_independent() {
    // The catalog sweep mirrors the seed-grid guarantee: results are indexed
    // by input position, so a serial and a parallel sweep of the same
    // scenario grid must be identical, in catalog order.
    let catalog = ScenarioCatalog::standard();
    let names = catalog.names();
    let grid = SweepRunner::scenario_grid(&shortened_smoke(17, 30), &names);
    assert_eq!(grid.len(), names.len());

    let serial = summaries(1, &grid).expect("serial sweep");
    let four_workers = summaries(4, &grid).expect("parallel sweep");

    assert_eq!(serial, four_workers);
    for (summary, name) in serial.iter().zip(&names) {
        assert_eq!(summary.scenario, *name, "summaries keep catalog order");
        assert_eq!(summary.seed, 17, "scenario grids share the base seed");
        assert!(summary.events > 0, "each scenario actually simulated");
    }
}

#[test]
fn full_smoke_summary_reflects_the_crash_window() {
    let grid = SweepRunner::seed_grid(&SimConfig::smoke_test(42), 1);
    let summaries = summaries(1, &grid).expect("sweep");
    let summary = &summaries[0];
    assert!(
        summary.liquidations > 10,
        "crash window produces liquidations"
    );
    assert!(summary.auctions_settled > 0, "Maker auctions settle");
    assert!(summary.open_positions > 0);
}

#[test]
fn empty_grid_is_fine() {
    assert!(summaries(4, &[]).unwrap().is_empty());
}

#[test]
fn summaries_are_deterministic_per_seed() {
    let grid = SweepRunner::seed_grid(&shortened_smoke(11, 25), 2);
    let first = summaries(1, &grid).unwrap();
    let second = summaries(2, &grid).unwrap();
    assert_eq!(first, second);
    assert!(first[0].events > 0);
}
