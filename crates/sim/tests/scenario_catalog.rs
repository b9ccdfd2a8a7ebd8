//! Scenario-catalog integration: every named entry drives a full engine run
//! with the `InvariantObserver` attached and zero violations, and the
//! `liquidation-spiral` entry demonstrably feeds liquidation sell-pressure
//! back into the price path (the toxic-spiral dynamic the scripted model
//! cannot express).

use defi_core::position::Position;
use defi_oracle::MarketScenario;
use defi_sim::scenarios::liquidation_spiral;
use defi_sim::{
    EngineBuilder, InvariantObserver, NullObserver, ScenarioCatalog, SessionStatus, SimConfig,
    SimObserver, SimulationReport, TickEnd,
};
use defi_types::{Platform, Token};

/// The smoke window truncated shortly after the March 2020 crash: long
/// enough to produce liquidations on every platform, short enough for debug
/// test runs.
fn crash_window_config(seed: u64) -> SimConfig {
    let mut config = SimConfig::smoke_test(seed);
    config.end_block = 9_780_000;
    config
}

fn run_with_scenario(config: SimConfig, scenario: MarketScenario) -> SimulationReport {
    EngineBuilder::new(config)
        .with_scenario(scenario)
        .build()
        .session()
        .run_to_end(&mut NullObserver)
        .expect("run")
}

#[test]
fn every_catalog_entry_runs_clean_under_the_invariant_observer() {
    let catalog = ScenarioCatalog::standard();
    assert!(catalog.names().len() >= 6);
    for entry in catalog.entries() {
        let mut observer = InvariantObserver::new();
        let report = EngineBuilder::new(crash_window_config(2021))
            .with_named_scenario(&entry.name)
            .build()
            .session()
            .run_to_end(&mut observer)
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", entry.name));
        assert!(
            report.chain.events().len() > 100,
            "{} produced a suspiciously quiet run",
            entry.name
        );
        assert!(
            observer.is_clean(),
            "{}: {} invariant violation(s), first: {}",
            entry.name,
            observer.violations().len(),
            observer.violations()[0]
        );
    }
}

#[test]
fn liquidation_spiral_feeds_sell_pressure_back_into_prices() {
    // The spiral run and its feedback-free twin share every random stream:
    // the same engine seed, and a scenario RNG that draws identically per
    // tick. The only difference is the sell-pressure pass, so the spiral's
    // ETH path must sit at or below the twin's — and strictly below once the
    // crash triggers liquidations.
    let seed = 77;
    let mut spiral_config = crash_window_config(seed);
    let spiral_market = liquidation_spiral(&mut spiral_config, true);
    let spiral = run_with_scenario(spiral_config, spiral_market);

    let mut base_config = crash_window_config(seed);
    let base_market = liquidation_spiral(&mut base_config, false);
    let base = run_with_scenario(base_config, base_market);

    let spiral_path = spiral.market_oracle.history(Token::ETH);
    let base_path = base.market_oracle.history(Token::ETH);
    assert_eq!(spiral_path.len(), base_path.len(), "same tick structure");

    let mut strictly_below = 0usize;
    for (s, b) in spiral_path.iter().zip(base_path.iter()) {
        assert_eq!(s.block, b.block);
        assert!(
            s.price.to_f64() <= b.price.to_f64() * (1.0 + 1e-12),
            "spiral price {} above no-feedback price {} at block {}",
            s.price,
            b.price,
            s.block
        );
        if s.price.to_f64() < b.price.to_f64() * 0.999 {
            strictly_below += 1;
        }
    }
    assert!(
        strictly_below > 10,
        "expected sustained divergence below the no-feedback path, got {strictly_below} ticks"
    );
    let spiral_final = spiral_path.last().unwrap().price.to_f64();
    let base_final = base_path.last().unwrap().price.to_f64();
    assert!(
        spiral_final < base_final,
        "spiral must end below the no-feedback run: {spiral_final} vs {base_final}"
    );

    // The feedback also changes realised liquidation activity: the spiral
    // run liquidates at least as much as the twin (deeper prices, more
    // under-water positions).
    let count = |report: &SimulationReport| {
        report
            .chain
            .query_events(&defi_chain::EventFilter::any().kind(defi_chain::EventKind::Liquidation))
            .len()
    };
    assert!(
        count(&spiral) >= count(&base),
        "spiral run should not liquidate less than the no-feedback run"
    );
}

/// Keeps what [`TickEnd::for_each_position`] visited at the last tick end.
#[derive(Default)]
struct TickEndBooks {
    visited: Vec<(Platform, Position)>,
}

impl SimObserver for TickEndBooks {
    fn wants_tick_end(&self) -> bool {
        true
    }

    fn on_tick_end(&mut self, tick: &TickEnd<'_>) {
        self.visited.clear();
        tick.for_each_position(&mut |platform, position| {
            self.visited.push((platform, position.clone()));
        });
    }
}

#[test]
fn tick_end_walk_visits_the_session_snapshot_in_order() {
    let mut session = EngineBuilder::new(crash_window_config(2021))
        .with_named_scenario("liquidation-spiral")
        .build()
        .session();
    let mut observer = TickEndBooks::default();
    let mut walked_maker = false;
    let mut walked_fixed_spread = false;
    loop {
        let status = session.step(&mut observer).expect("step");
        let snapshot: Vec<(Platform, Position)> = session
            .snapshot_positions()
            .into_iter()
            .flat_map(|(platform, book)| book.into_iter().map(move |p| (platform, p)))
            .collect();
        assert_eq!(
            observer.visited,
            snapshot,
            "tick {}: the tick-end walk differs from the snapshot",
            session.ticks_run()
        );
        for (platform, _) in &observer.visited {
            walked_maker |= *platform == Platform::MakerDao;
            walked_fixed_spread |= *platform != Platform::MakerDao;
        }
        if status == SessionStatus::TicksComplete {
            break;
        }
    }
    assert!(walked_maker, "the walk never reached the Maker book");
    assert!(
        walked_fixed_spread,
        "the walk never reached a fixed-spread book"
    );
}

#[test]
fn named_scenarios_are_deterministic() {
    let run = |seed: u64| {
        EngineBuilder::new(crash_window_config(seed))
            .with_named_scenario("stablecoin-depeg")
            .build()
            .session()
            .run_to_end(&mut NullObserver)
            .unwrap()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.chain.events().len(), b.chain.events().len());
    assert_eq!(a.volume_samples.len(), b.volume_samples.len());
}

#[test]
#[should_panic(expected = "unknown scenario")]
fn unknown_scenario_name_is_rejected() {
    let _ = EngineBuilder::new(SimConfig::smoke_test(1)).with_named_scenario("not-a-scenario");
}
