//! Behavioural-layer integration: capital-constrained liquidators leave
//! strictly more bad debt on the books than perfectly-capitalized ones under
//! identical RNG streams, and the per-agent capital accounting surfaces who
//! ran out.

use defi_sim::{
    BehaviorConfig, EngineBuilder, InvariantObserver, NullObserver, ScenarioCatalog, SimConfig,
    SimulationReport,
};
use defi_types::Wad;

fn crash_run(seed: u64, behavior: BehaviorConfig) -> SimulationReport {
    let mut config = SimConfig::smoke_test(seed);
    config.end_block = 9_780_000;
    config.behavior = behavior;
    EngineBuilder::new(config)
        .with_named_scenario("liquidation-spiral")
        .build()
        .session()
        .run_to_end(&mut NullObserver)
        .expect("run")
}

/// Bad debt left on the books at the snapshot: debt in excess of the
/// collateral backing it, summed over every open position.
fn bad_debt(report: &SimulationReport) -> f64 {
    report
        .final_positions
        .values()
        .flatten()
        .map(|position| {
            (position.total_debt_value().to_f64() - position.total_collateral_value().to_f64())
                .max(0.0)
        })
        .sum()
}

#[test]
fn capital_constraints_strictly_increase_bad_debt() {
    // Both arms run the behavioural layer with identical latency, TTL and
    // panic parameters — the RNG streams are identical tick for tick until
    // the inventory constraint binds — so any divergence in bad debt is
    // attributable to liquidator capital alone.
    let seed = 42;
    let constrained = crash_run(seed, BehaviorConfig::capital_constrained());
    let capitalized = crash_run(seed, BehaviorConfig::perfectly_capitalized());

    let constrained_report = constrained.behavior.as_ref().expect("behavior report");
    let capitalized_report = capitalized.behavior.as_ref().expect("behavior report");

    assert!(
        constrained_report.stats.inventory_exhaustions > 0,
        "the constrained arm must actually run out of inventory mid-cascade"
    );
    assert_eq!(
        capitalized_report.stats.inventory_exhaustions, 0,
        "the perfectly-capitalized control must never exhaust"
    );
    assert!(
        !constrained_report.agents.is_empty(),
        "per-agent exhaustion accounting lists who ran out"
    );

    let constrained_bad = bad_debt(&constrained);
    let capitalized_bad = bad_debt(&capitalized);
    assert!(
        constrained_bad > capitalized_bad,
        "capital-constrained liquidators must leave strictly more bad debt: \
         constrained {constrained_bad:.0} vs capitalized {capitalized_bad:.0}"
    );
}

#[test]
fn behavioral_runs_are_deterministic_and_report_latency_activity() {
    let a = crash_run(7, BehaviorConfig::capital_constrained());
    let b = crash_run(7, BehaviorConfig::capital_constrained());
    assert_eq!(a.chain.events().len(), b.chain.events().len());
    assert_eq!(a.behavior, b.behavior);

    let stats = a.behavior.as_ref().expect("behavior report").stats;
    assert!(
        stats.opportunities_queued > 0,
        "opportunities entered the queue"
    );
    assert!(
        stats.executed_delayed > 0,
        "latency-staggered executions actually happened"
    );
}

#[test]
fn capital_crunch_catalog_entry_runs_the_behavioral_layer() {
    let mut config = SimConfig::smoke_test(9);
    config.end_block = 9_780_000;
    let report = EngineBuilder::new(config)
        .with_named_scenario("capital-crunch-spiral")
        .build()
        .session()
        .run_to_end(&mut NullObserver)
        .expect("run");
    let behavior = report.behavior.as_ref().expect("behavior report");
    assert!(behavior.stats.opportunities_queued > 0);
    assert!(Wad::from_f64(behavior.stats.panic_sell_usd) >= Wad::ZERO);
}

/// Panic exits on every at-risk position, with no market-drop trigger: a
/// dust debt rounds its repay to zero, and the exit must then submit
/// nothing rather than a zero-amount repay the invariant observer flags.
#[test]
fn dust_panic_exits_submit_no_zero_amount_repay() {
    let mut catalog = ScenarioCatalog::standard();
    catalog
        .add_user_entries(
            "[scenario dust-panic]\ncompose = liquidation-spiral\n\
             behavior.enabled = true\nbehavior.panic_market_drop = 0\n\
             behavior.panic_probability = 1\nbehavior.panic_share = 1\n",
        )
        .expect("every value is in range");
    let mut config = SimConfig::smoke_test(20_211_102);
    config.end_block = 9_700_000;
    let mut observer = InvariantObserver::new();
    let report = EngineBuilder::new(config)
        .with_catalog(catalog)
        .with_named_scenario("dust-panic")
        .build()
        .session()
        .run_to_end(&mut observer)
        .expect("run");
    let behavior = report.behavior.as_ref().expect("behavior report");
    assert!(behavior.stats.panic_exits > 0, "panic exits ran");
    assert!(
        observer.is_clean(),
        "{} invariant violation(s), first: {}",
        observer.violations().len(),
        observer.violations()[0]
    );
}
