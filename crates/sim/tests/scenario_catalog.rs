//! Scenario-catalog integration: every named entry drives a full engine run
//! with the `InvariantObserver` attached and zero violations, and the
//! `liquidation-spiral` entry demonstrably feeds liquidation sell-pressure
//! back into the price path (the toxic-spiral dynamic the scripted model
//! cannot express).

use std::collections::{BTreeMap, BTreeSet};

use defi_core::position::Position;
use defi_lending::{BookStats, Validity};
use defi_oracle::MarketScenario;
use defi_sim::scenarios::liquidation_spiral;
use defi_sim::{
    EngineBuilder, InvariantObserver, NullObserver, ScenarioCatalog, SessionStatus, SimConfig,
    SimObserver, SimulationReport, TickEnd,
};
use defi_types::{Address, Platform, Token};

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

/// How the read-only audit walk classified one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Seen {
    Current,
    Envelope,
    Critical,
    Uncertified,
    Pending,
}

/// Keeps what the audit walk ([`defi_lending::LendingProtocol::audit_book`])
/// visited at the last tick end, and how often it met each kind of entry
/// over the run.
#[derive(Default)]
struct TickEndBooks {
    visited: Vec<(Platform, Position, Seen)>,
    seen: BTreeMap<Seen, usize>,
}

impl SimObserver for TickEndBooks {
    fn wants_tick_end(&self) -> bool {
        true
    }

    fn on_tick_end(&mut self, tick: &TickEnd<'_>) {
        self.visited.clear();
        for (platform, protocol) in tick.protocols.iter() {
            let Some(oracle) = tick.oracles.get(platform) else {
                continue;
            };
            protocol.audit_book(oracle, &mut |entry| {
                let seen = match entry.validity {
                    Validity::Current => Seen::Current,
                    Validity::Envelope { .. } => Seen::Envelope,
                    Validity::Critical { .. } => Seen::Critical,
                    Validity::Uncertified => Seen::Uncertified,
                    Validity::Pending => Seen::Pending,
                };
                *self.seen.entry(seen).or_default() += 1;
                self.visited.push((*platform, entry.position.clone(), seen));
            });
        }
    }
}

/// The tick-end audit walk visits the session snapshot's accounts in the
/// snapshot's order, and a current entry is byte-equal to the snapshot's
/// position. Entries the book still owes a flush (pending) are left out on
/// both sides: the snapshot's flush re-values them, and may drop them.
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
        let pending: BTreeSet<(Platform, Address)> = observer
            .visited
            .iter()
            .filter(|(_, _, seen)| *seen == Seen::Pending)
            .map(|(platform, position, _)| (*platform, position.owner))
            .collect();
        let snapshot: Vec<(Platform, Position)> = session
            .snapshot_positions()
            .into_iter()
            .flat_map(|(platform, book)| book.into_iter().map(move |p| (platform, p)))
            .filter(|(platform, p)| !pending.contains(&(*platform, p.owner)))
            .collect();
        let audited: Vec<&(Platform, Position, Seen)> = observer
            .visited
            .iter()
            .filter(|(_, _, seen)| *seen != Seen::Pending)
            .collect();
        let tick = session.ticks_run();
        assert_eq!(
            audited
                .iter()
                .map(|(platform, position, _)| (*platform, position.owner))
                .collect::<Vec<_>>(),
            snapshot
                .iter()
                .map(|(platform, position)| (*platform, position.owner))
                .collect::<Vec<_>>(),
            "tick {tick}: the audit walk visits other accounts than the snapshot"
        );
        for ((platform, position, seen), (_, expected)) in audited.iter().zip(&snapshot) {
            if *seen == Seen::Current {
                assert_eq!(
                    position, expected,
                    "tick {tick}: {platform}: a current entry differs from the snapshot"
                );
            }
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
    assert_eq!(
        observer.seen.get(&Seen::Uncertified),
        None,
        "{:?}",
        observer.seen
    );
    // The walk met lagging entries under both kinds of certificate.
    assert!(
        observer.seen.contains_key(&Seen::Envelope) && observer.seen.contains_key(&Seen::Critical),
        "{:?}",
        observer.seen
    );
}

/// Every `BookStats` field that counts work or state, with the wall-clock
/// fields zeroed.
fn work(stats: BookStats) -> BookStats {
    BookStats {
        envelope_derive_nanos: 0,
        flush_nanos: 0,
        freshen_nanos: 0,
        visit_nanos: 0,
        ..stats
    }
}

/// Step a smoke run of `scenario` to its last tick and read every book's
/// counters, before `finish` takes its snapshot.
fn book_work(scenario: &str, observer: &mut dyn SimObserver) -> Vec<(Platform, BookStats)> {
    let mut session = EngineBuilder::new(SimConfig::smoke_test(2021))
        .with_named_scenario(scenario)
        .build()
        .session();
    while session.step(observer).expect("step") == SessionStatus::Running {}
    session
        .platforms()
        .into_iter()
        .filter_map(|platform| {
            session.inspect_protocol(platform, |protocol, _| {
                (platform, work(protocol.book_stats()))
            })
        })
        .collect()
}

/// Attaching the invariant observer changes no book work: on every catalog
/// scenario, an audited smoke run ends with every book counter equal to
/// the unaudited run's. The audit reads the books as they stand; an audit
/// that drained them would multiply the revaluations.
#[test]
fn the_audit_leaves_every_book_counter_as_the_unaudited_run_has_it() {
    let catalog = ScenarioCatalog::standard();
    let mut audited_entries = 0;
    for entry in catalog.entries() {
        let unaudited = book_work(&entry.name, &mut NullObserver);
        let mut observer = InvariantObserver::new();
        let audited = book_work(&entry.name, &mut observer);
        observer.assert_clean();
        assert_eq!(
            audited, unaudited,
            "{}: the audit changed the book work",
            entry.name
        );
        assert!(unaudited.iter().any(|(_, stats)| stats.revaluations > 0));
        audited_entries += 1;
    }
    assert!(audited_entries >= 6);
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
