//! Criterion benchmarks of the computational kernels behind each experiment.
//!
//! One benchmark group per table/figure of the paper. Each group benchmarks
//! the computation that regenerates the artefact (the simulation data is
//! generated once, outside the timing loops); the `repro` binary prints the
//! actual rows/series.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::collections::BTreeMap;

use defi_analytics::records::collect_records;
use defi_analytics::{
    auctions, bad_debt, flashloan, gas, overall, price_movement, profit_volume, sensitivity,
    stablecoin, unprofitable,
};
use defi_bench::case_study::{run_case_study, CaseStudyInput};
use defi_core::params::RiskParams;
use defi_core::position::{CollateralHolding, DebtHolding, Position};
use defi_core::sensitivity::SensitivityCurve;
use defi_core::strategy::StrategyComparison;
use defi_lending::{compound, InterestRateModel};
use defi_oracle::{OracleConfig, PriceOracle};
use defi_sim::{SimConfig, SimulationEngine, SimulationReport};
use defi_types::{Address, Platform, Token, Wad};

/// One shared smoke-scale simulation for every analytics benchmark.
fn shared_report() -> &'static SimulationReport {
    use std::sync::OnceLock;
    static REPORT: OnceLock<SimulationReport> = OnceLock::new();
    REPORT.get_or_init(|| SimulationEngine::new(SimConfig::smoke_test(77)).run())
}

/// A synthetic position book for the Algorithm 1 benchmarks.
fn synthetic_book(count: u64) -> Vec<Position> {
    (0..count)
        .map(|i| {
            Position::new(Address::from_seed(i))
                .with_collateral(CollateralHolding {
                    token: Token::ETH,
                    amount: Wad::from_int(10),
                    value_usd: Wad::from_int(20_000 + (i % 7) * 1_000),
                    liquidation_threshold: Wad::from_f64(0.8),
                    liquidation_spread: Wad::from_f64(0.08),
                })
                .with_collateral(CollateralHolding {
                    token: Token::USDC,
                    amount: Wad::from_int(5_000),
                    value_usd: Wad::from_int(5_000),
                    liquidation_threshold: Wad::from_f64(0.85),
                    liquidation_spread: Wad::from_f64(0.04),
                })
                .with_debt(DebtHolding {
                    token: Token::DAI,
                    amount: Wad::from_int(12_000 + (i % 11) * 500),
                    value_usd: Wad::from_int(12_000 + (i % 11) * 500),
                })
        })
        .collect()
}

/// Figure 4 / Figure 5 / Table 1: ledger extraction and profit aggregation.
fn bench_overall(c: &mut Criterion) {
    let report = shared_report();
    let records = collect_records(&report.chain, &report.market_oracle);
    let mut group = c.benchmark_group("table1_fig4_fig5_overall");
    group.bench_function("collect_records", |b| {
        b.iter(|| collect_records(&report.chain, &report.market_oracle))
    });
    group.bench_function("table1", |b| b.iter(|| overall::table1(&records)));
    group.bench_function("fig4_accumulative", |b| {
        b.iter(|| overall::accumulative_collateral_sold(&records))
    });
    group.bench_function("fig5_monthly_profit", |b| {
        b.iter(|| overall::monthly_profit(&records))
    });
    group.finish();
}

/// Figure 6: gas-price competition.
fn bench_fig6_gas(c: &mut Criterion) {
    let report = shared_report();
    let records = collect_records(&report.chain, &report.market_oracle);
    c.bench_function("fig6_gas_competition", |b| {
        b.iter(|| gas::gas_competition(&report.chain, &records, 6_000))
    });
}

/// Figure 7 / §4.3.3: auction statistics.
fn bench_fig7_auctions(c: &mut Criterion) {
    let report = shared_report();
    let records = collect_records(&report.chain, &report.market_oracle);
    let time_map = *report.chain.time_map();
    c.bench_function("fig7_auction_stats", |b| {
        b.iter(|| auctions::auction_stats(&report.chain, &records, &time_map))
    });
}

/// Table 2 / Table 3: bad debts and unprofitable opportunities.
fn bench_table2_table3(c: &mut Criterion) {
    let report = shared_report();
    let mut group = c.benchmark_group("table2_table3_bad_debt");
    group.bench_function("table2_bad_debts", |b| {
        b.iter(|| bad_debt::table2(&report.final_positions))
    });
    group.bench_function("table3_unprofitable", |b| {
        b.iter(|| unprofitable::table3(&report.final_positions))
    });
    group.finish();
}

/// Table 4: flash-loan usage join.
fn bench_table4_flash_loans(c: &mut Criterion) {
    let report = shared_report();
    c.bench_function("table4_flash_loans", |b| {
        b.iter(|| flashloan::table4(&report.chain))
    });
}

/// Figure 8: Algorithm 1 sensitivity sweeps at several book sizes.
fn bench_fig8_sensitivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_sensitivity");
    for size in [100u64, 1_000, 5_000] {
        let book = synthetic_book(size);
        group.bench_function(format!("algorithm1_sweep_{size}_positions"), |b| {
            b.iter(|| SensitivityCurve::compute(&book, Token::ETH, 100))
        });
    }
    let report = shared_report();
    group.bench_function("fig8_all_platforms", |b| {
        b.iter(|| sensitivity::figure8(&report.final_positions, 50))
    });
    group.finish();
}

/// §4.5.2: stablecoin stability scan.
fn bench_stablecoin_stability(c: &mut Criterion) {
    let report = shared_report();
    c.bench_function("stablecoin_stability", |b| {
        b.iter(|| {
            stablecoin::stablecoin_stability(
                &report.market_oracle,
                &[Token::DAI, Token::USDC, Token::USDT],
                report.config.start_block,
                report.snapshot_block,
                report.config.tick_blocks,
                0.05,
            )
        })
    });
}

/// Figure 9 / Table 8: profit–volume comparison.
fn bench_fig9_table8(c: &mut Criterion) {
    let report = shared_report();
    let records = collect_records(&report.chain, &report.market_oracle);
    let time_map = *report.chain.time_map();
    let mut group = c.benchmark_group("fig9_table8_profit_volume");
    group.bench_function("fig9_comparison", |b| {
        b.iter(|| profit_volume::figure9(&records, &report.volume_samples, &time_map))
    });
    group.bench_function("table8_monthly_counts", |b| {
        b.iter(|| profit_volume::table8(&records))
    });
    group.finish();
}

/// Table 7: post-liquidation price-movement classification.
fn bench_table7_price_movement(c: &mut Criterion) {
    let report = shared_report();
    let records = collect_records(&report.chain, &report.market_oracle);
    c.bench_function("table7_price_movements", |b| {
        b.iter(|| {
            price_movement::table7(
                &records,
                &report.market_oracle,
                1_440,
                report.config.tick_blocks,
            )
        })
    });
}

/// Tables 5–6 / §5.2: the optimal-strategy case study and the strategy math.
fn bench_table5_table6_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("table5_table6_strategy");
    group.bench_function("case_study_closed_form", |b| {
        b.iter(|| run_case_study(&CaseStudyInput::default()))
    });
    let params = RiskParams::paper_example();
    group.bench_function("algorithm2_strategy_comparison", |b| {
        b.iter(|| StrategyComparison::evaluate(Wad::from_int(9_900), Wad::from_int(8_400), params))
    });
    group.finish();
}

/// Protocol substrate micro-benchmarks: a liquidation call on a populated pool.
fn bench_liquidation_call(c: &mut Criterion) {
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
    oracle.set_price(0, Token::USDC, Wad::ONE);

    c.bench_function("protocol_liquidation_call", |b| {
        b.iter_batched(
            || {
                // A fresh Compound pool with one liquidatable borrower.
                let mut protocol = compound();
                protocol.list_market(
                    Token::ETH,
                    RiskParams::new(0.8, 0.08, 0.5),
                    InterestRateModel::default(),
                    0,
                );
                let mut ledger = defi_chain::Ledger::new();
                let mut events = Vec::new();
                let lender = Address::from_seed(1);
                ledger.mint(lender, Token::USDC, Wad::from_int(1_000_000));
                protocol
                    .deposit(
                        &mut ledger,
                        &mut events,
                        lender,
                        Token::USDC,
                        Wad::from_int(1_000_000),
                    )
                    .unwrap();
                let borrower = Address::from_seed(2);
                ledger.mint(borrower, Token::ETH, Wad::from_int(3));
                protocol
                    .deposit(
                        &mut ledger,
                        &mut events,
                        borrower,
                        Token::ETH,
                        Wad::from_int(3),
                    )
                    .unwrap();
                protocol
                    .borrow(
                        &mut ledger,
                        &mut events,
                        &oracle,
                        1,
                        borrower,
                        Token::USDC,
                        Wad::from_int(8_000),
                    )
                    .unwrap();
                let mut crash_oracle = oracle.clone();
                crash_oracle.set_price(2, Token::ETH, Wad::from_int(3_000));
                let liquidator = Address::from_seed(3);
                ledger.mint(liquidator, Token::USDC, Wad::from_int(10_000));
                (protocol, ledger, crash_oracle, borrower, liquidator)
            },
            |(mut protocol, mut ledger, crash_oracle, borrower, liquidator)| {
                let mut events = Vec::new();
                protocol
                    .liquidation_call(
                        &mut ledger,
                        &mut events,
                        &crash_oracle,
                        2,
                        liquidator,
                        borrower,
                        Token::USDC,
                        Token::ETH,
                        Wad::from_int(4_000),
                        false,
                    )
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

/// End-to-end: ticks per second of the simulation engine (drives every other
/// experiment's data generation).
fn bench_simulation_ticks(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_engine");
    group.sample_size(10);
    group.bench_function("smoke_scenario_full_run", |b| {
        b.iter(|| SimulationEngine::new(SimConfig::smoke_test(5)).run())
    });
    group.finish();
}

/// Session-loop throughput: the tick rate of the streaming run surface, with
/// and without the full analytics collector attached. The smoke scenario is
/// 333 ticks, so ticks/sec = 333 / (reported seconds per iteration). This is
/// the perf baseline future PRs compare against.
fn bench_session_loop(c: &mut Criterion) {
    use defi_analytics::StudyCollector;
    use defi_sim::NullObserver;

    let ticks = SimConfig::smoke_test(5).tick_count();
    let mut group = c.benchmark_group("session_loop");
    group.sample_size(10);
    group.bench_function(format!("null_observer_{ticks}_ticks"), |b| {
        b.iter(|| {
            SimulationEngine::new(SimConfig::smoke_test(5))
                .session()
                .run_to_end(&mut NullObserver)
                .unwrap()
        })
    });
    group.bench_function(format!("study_collector_{ticks}_ticks"), |b| {
        b.iter(|| {
            let mut collector = StudyCollector::new();
            let report = SimulationEngine::new(SimConfig::smoke_test(5))
                .session()
                .run_to_end(&mut collector)
                .unwrap();
            (collector.into_analysis(), report)
        })
    });
    group.finish();
}

/// Single-pass streaming analytics vs. the run-then-rescan pipeline. In CI's
/// `--test` quick mode the streaming body doubles as a check: it must render
/// the same headline as the batch pipeline.
fn bench_streaming_vs_batch_analytics(c: &mut Criterion) {
    use defi_analytics::StudyAnalysis;
    use defi_bench::render::render_headline;

    let mut group = c.benchmark_group("study_pipeline");
    group.sample_size(10);
    let expected = render_headline(&StudyAnalysis::from_report(
        &SimulationEngine::new(SimConfig::smoke_test(6)).run(),
    ));
    group.bench_function("batch_run_then_from_report", |b| {
        b.iter(|| {
            let report = SimulationEngine::new(SimConfig::smoke_test(6)).run();
            StudyAnalysis::from_report(&report)
        })
    });
    group.bench_function("streaming_single_pass", |b| {
        b.iter(|| {
            let (streamed, report) =
                StudyAnalysis::stream(SimulationEngine::new(SimConfig::smoke_test(6))).unwrap();
            assert_eq!(
                render_headline(&streamed),
                expected,
                "streamed analysis diverged from the batch pipeline"
            );
            (streamed, report)
        })
    });
    group.finish();
}

/// A populated fixed-spread pool with `n` borrowers at staggered health
/// factors, plus the oracle it was built against — the synthetic book behind
/// the `positions-scale` group.
fn scale_fixed_spread_pool(
    n: u64,
) -> (
    defi_lending::FixedSpreadProtocol,
    defi_chain::Ledger,
    PriceOracle,
) {
    let mut protocol = compound();
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
    oracle.set_price(0, Token::USDC, Wad::ONE);
    oracle.set_price(0, Token::DAI, Wad::ONE);
    let mut ledger = defi_chain::Ledger::new();
    let mut events = Vec::new();
    let lender = Address::from_seed(1);
    let liquidity = Wad::from_int(n * 20_000 + 1_000_000);
    ledger.mint(lender, Token::USDC, liquidity);
    protocol
        .deposit(&mut ledger, &mut events, lender, Token::USDC, liquidity)
        .unwrap();
    for i in 0..n {
        let account = Address::from_seed(1_000 + i);
        let eth = Wad::from_f64(1.0 + (i % 50) as f64 * 0.1);
        ledger.mint(account, Token::ETH, eth);
        protocol
            .deposit(&mut ledger, &mut events, account, Token::ETH, eth)
            .unwrap();
        let capacity = protocol
            .position(&oracle, account)
            .map(|p| p.borrowing_capacity())
            .unwrap_or(Wad::ZERO);
        // Staggered usage: most borrowers comfortable, a thin tail close to
        // the threshold so small price moves flip a few per tick.
        let usage = 0.55 + (i % 89) as f64 * 0.005;
        let borrow = Wad::from_f64(capacity.to_f64() * usage.min(0.985));
        protocol
            .borrow(
                &mut ledger,
                &mut events,
                &oracle,
                1,
                account,
                Token::USDC,
                borrow,
            )
            .unwrap();
    }
    (protocol, ledger, oracle)
}

/// A Maker book with `n` CDPs at staggered collateralization.
fn scale_maker_pool(n: u64) -> (defi_lending::MakerProtocol, defi_chain::Ledger, PriceOracle) {
    use defi_lending::maker_protocol;
    let mut maker = maker_protocol();
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
    oracle.set_price(0, Token::DAI, Wad::ONE);
    let mut ledger = defi_chain::Ledger::new();
    let mut events = Vec::new();
    for i in 0..n {
        let owner = Address::from_seed(500_000 + i);
        let eth = Wad::from_f64(1.0 + (i % 40) as f64 * 0.25);
        ledger.mint(owner, Token::ETH, eth);
        maker
            .lock_collateral(&mut ledger, &mut events, owner, Token::ETH, eth)
            .unwrap();
        // Collateralization between ~152 % and ~240 %.
        let ratio = 1.52 + (i % 89) as f64 * 0.01;
        let dai = Wad::from_f64(eth.to_f64() * 3_500.0 / ratio);
        maker
            .draw_dai(&mut ledger, &mut events, &oracle, owner, dai)
            .unwrap();
    }
    (maker, ledger, oracle)
}

/// The position work of one engine tick on a fixed-spread platform: accrue,
/// run the borrower-management pass over the *banded* at-risk iterator,
/// discover liquidatable positions, and — every `volume_sample_interval`
/// (10) ticks, as the engine does — take a volume sample from the running
/// totals (the sample pays the full lazy-stale drain). Exactly the calls
/// `SimulationEngine::tick` makes per platform.
fn fixed_spread_tick_work(
    protocol: &mut defi_lending::FixedSpreadProtocol,
    oracle: &PriceOracle,
    block: u64,
) -> usize {
    use defi_lending::LendingProtocol;
    LendingProtocol::accrue(protocol, block);
    // Borrower-management pass: only at-risk positions (HF below the rescue
    // band or above the releverage band) are read; quiet accounts whose
    // certified envelope holds are skipped without re-valuation.
    let mut actionable = 0usize;
    let rescue = Wad::from_f64(defi_lending::RESCUE_BAND_HF);
    let releverage = Wad::from_f64(defi_lending::RELEVERAGE_BAND_HF);
    LendingProtocol::for_each_at_risk(protocol, oracle, rescue, releverage, &mut |_position| {
        actionable += 1;
    });
    // Liquidation discovery.
    let opportunities = LendingProtocol::liquidatable(protocol, oracle).len();
    let mut out = actionable + opportunities;
    // Periodic volume sampling (Figures 4/9 denominators).
    if block.is_multiple_of(10) {
        let totals = LendingProtocol::book_totals(protocol, oracle);
        out += totals.collateral_usd.is_zero() as usize;
    }
    out
}

/// Incremental-book scale benchmarks: 1k/10k/100k-account books, driving the
/// exact per-tick position surface the engine uses. `BENCH_baseline.json`
/// tracks these numbers across PRs.
fn bench_positions_scale(c: &mut Criterion) {
    use defi_lending::LendingProtocol;

    let mut group = c.benchmark_group("positions_scale");
    group.sample_size(5);
    // Machine-record the host's parallelism next to the numbers: every
    // `BENCH_baseline.json` entry copies this into its "host" field as data
    // instead of a prose caveat.
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("bench host: {cpus} cpu(s)");
    for n in [1_000u64, 10_000, 100_000, 1_000_000] {
        let (mut protocol, _ledger, mut oracle) = scale_fixed_spread_pool(n);
        // The million-account row exercises the sharded parallel valuation
        // path: fan flush work across as many workers as the host offers
        // (clamped to the shard count; results are byte-identical either
        // way, which the band-differential harness proves).
        if n >= 1_000_000 {
            let workers = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            protocol.set_book_workers(workers);
        }
        let mut block = 10u64;
        // Warm: the first flush after pool construction values every account
        // exactly once; the row measures the steady-state incremental tick
        // (in `--test` quick mode criterion runs one iteration, unwarmed).
        fixed_spread_tick_work(&mut protocol, &oracle, block);
        group.bench_function(format!("fixed_spread_tick_{n}_accounts"), |b| {
            b.iter(|| {
                block += 1;
                // A small ETH move every tick, as a deviation-threshold write.
                let wiggle = 3_450.0 + (block % 7) as f64 * 2.0;
                oracle.set_price(block, Token::ETH, Wad::from_f64(wiggle));
                fixed_spread_tick_work(&mut protocol, &oracle, block)
            })
        });
        group.bench_function(
            format!("fixed_spread_noop_liquidatable_{n}_accounts"),
            |b| {
                // No price moved and no interest accrued since the last call:
                // discovery should not rebuild (or allocate) the book.
                b.iter(|| LendingProtocol::liquidatable(&mut protocol, &oracle).len())
            },
        );
        // Regression guard (runs in CI quick mode too): a no-op tick must
        // answer from the index, not rescan the book. Warm the cache first —
        // under a bench filter the timed bodies above may not have run.
        let _ = LendingProtocol::liquidatable(&mut protocol, &oracle);
        let before = protocol.book_stats().revaluations;
        let _ = LendingProtocol::liquidatable(&mut protocol, &oracle);
        let after = protocol.book_stats().revaluations;
        assert_eq!(
            before,
            after,
            "no-op liquidatable re-valued {} accounts instead of using the index",
            after - before
        );

        // Allocation audit (runs in CI quick mode too): after one full
        // wiggle cycle the reusable scratch buffers have reached their
        // high-water capacities — further warm ticks must not grow any of
        // them.
        let mut warm_tick = |protocol: &mut defi_lending::FixedSpreadProtocol, block: &mut u64| {
            *block += 1;
            let wiggle = 3_450.0 + (*block % 7) as f64 * 2.0;
            oracle.set_price(*block, Token::ETH, Wad::from_f64(wiggle));
            fixed_spread_tick_work(protocol, &oracle, *block);
        };
        for _ in 0..7 {
            warm_tick(&mut protocol, &mut block);
        }
        let grows_before = protocol.book_stats().scratch_grows;
        for _ in 0..7 {
            warm_tick(&mut protocol, &mut block);
        }
        let grows_after = protocol.book_stats().scratch_grows;
        assert_eq!(
            grows_before,
            grows_after,
            "warm ticks grew a scratch buffer {} time(s) — the tick hot loop is allocating",
            grows_after - grows_before
        );

        // The Maker CDP book stops at 100k: its range-scan discovery is the
        // same shape at every scale and the 1M row is about the fixed-spread
        // sharded flush path.
        if n >= 1_000_000 {
            continue;
        }

        let (mut maker, _ledger, mut maker_oracle) = scale_maker_pool(n);
        let mut maker_block = 10u64;
        group.bench_function(format!("maker_discovery_{n}_accounts"), |b| {
            b.iter(|| {
                maker_block += 1;
                let wiggle = 3_430.0 + (maker_block % 9) as f64 * 3.0;
                maker_oracle.set_price(maker_block, Token::ETH, Wad::from_f64(wiggle));
                LendingProtocol::liquidatable(&mut maker, &maker_oracle).len()
            })
        });
        // Regression guard: CDP discovery must be a range scan — a price
        // move that crosses nobody re-values nobody. The first call warms
        // the cache (the timed bodies above may be filtered out).
        maker_block += 1;
        maker_oracle.set_price(maker_block, Token::ETH, Wad::from_int(3_500));
        let _ = LendingProtocol::liquidatable(&mut maker, &maker_oracle);
        let before = maker.book_stats().revaluations;
        maker_oracle.set_price(maker_block + 1, Token::ETH, Wad::from_int(3_499));
        let _ = LendingProtocol::liquidatable(&mut maker, &maker_oracle);
        let after = maker.book_stats().revaluations;
        assert_eq!(
            before,
            after,
            "a non-crossing price move re-valued {} CDPs instead of range-scanning",
            after - before
        );

        // Regression guard (quick mode too): a *crossing* move refreshes
        // exactly the crossed CDPs, and every refresh is served by the
        // term/light cache paths — full `fill_position` rebuilds inside
        // Maker discovery are the regression this guards against.
        let stats_before = maker.book_stats();
        maker_oracle.set_price(maker_block + 2, Token::ETH, Wad::from_int(3_430));
        let _ = LendingProtocol::liquidatable(&mut maker, &maker_oracle);
        let stats_after = maker.book_stats();
        let revalued = stats_after.revaluations - stats_before.revaluations;
        let termed = stats_after.term_reprices - stats_before.term_reprices;
        let lighted = stats_after.light_refreshes - stats_before.light_refreshes;
        assert!(
            revalued > 0,
            "the crossing move should refresh crossed CDPs"
        );
        assert_eq!(
            revalued,
            termed + lighted,
            "{} crossed CDPs took the full rebuild path instead of a cached refresh",
            revalued - termed - lighted
        );
    }
    group.finish();
}

/// Conservative HF band index: per-tick cost when only interest accrues (no
/// price move) and when prices wiggle inside most certified envelopes. The
/// in-bench assertions are the CI regression guard (quick mode runs them
/// too): an accrual-only tick must re-value strictly fewer accounts than the
/// book holds, and envelope skips must actually be happening — a band-index
/// regression fails the job instead of showing up as a slower number.
fn bench_band_index(c: &mut Criterion) {
    use defi_lending::LendingProtocol;

    let mut group = c.benchmark_group("band_index");
    group.sample_size(5);
    let rescue = Wad::from_f64(defi_lending::RESCUE_BAND_HF);
    let releverage = Wad::from_f64(defi_lending::RELEVERAGE_BAND_HF);
    for n in [1_000u64, 10_000] {
        let (mut protocol, _ledger, mut oracle) = scale_fixed_spread_pool(n);
        // Warm the cache: classify and certify every account once.
        let _ = LendingProtocol::liquidatable(&mut protocol, &oracle);
        LendingProtocol::for_each_at_risk(&mut protocol, &oracle, rescue, releverage, &mut |_| {});
        // Markets are listed at the platform's inception block, so accrual
        // only runs for blocks beyond it.
        let mut block = 7_800_000u64;
        group.bench_function(format!("accrual_only_tick_{n}_accounts"), |b| {
            b.iter(|| {
                block += 1;
                LendingProtocol::accrue(&mut protocol, block);
                let mut at_risk = 0usize;
                LendingProtocol::for_each_at_risk(
                    &mut protocol,
                    &oracle,
                    rescue,
                    releverage,
                    &mut |_| at_risk += 1,
                );
                at_risk + LendingProtocol::liquidatable(&mut protocol, &oracle).len()
            })
        });

        // Regression guard: an accrual-only tick is absorbed by the index
        // caps for the bulk of the book.
        block += 1;
        LendingProtocol::accrue(&mut protocol, block);
        let before = protocol.book_stats();
        let mut at_risk = 0usize;
        LendingProtocol::for_each_at_risk(&mut protocol, &oracle, rescue, releverage, &mut |_| {
            at_risk += 1
        });
        let _ = LendingProtocol::liquidatable(&mut protocol, &oracle);
        let after = protocol.book_stats();
        let revalued = after.revaluations - before.revaluations;
        assert!(
            (revalued as usize) < after.cached_accounts,
            "accrual-only tick re-valued {revalued} of {} accounts — the band index absorbed nothing",
            after.cached_accounts
        );
        // A one-block accrual stays inside every certified cap, so the cap
        // index must answer it without examining the debtors one by one.
        let examined = after.envelope_checks - before.envelope_checks;
        assert!(
            (examined as usize) * 100 < after.cached_accounts,
            "accrual-only tick examined {examined} of {} accounts one by one — the cap index is not absorbing accrual",
            after.cached_accounts
        );
        assert!(
            after.envelope_skips > before.envelope_skips,
            "no envelope held the measured accrual move"
        );
        assert!(after.banded_accounts > 0, "no account was ever certified");

        group.bench_function(format!("price_wiggle_discovery_{n}_accounts"), |b| {
            b.iter(|| {
                block += 1;
                let wiggle = 3_450.0 + (block % 7) as f64 * 2.0;
                oracle.set_price(block, Token::ETH, Wad::from_f64(wiggle));
                let mut at_risk = 0usize;
                LendingProtocol::for_each_at_risk(
                    &mut protocol,
                    &oracle,
                    rescue,
                    releverage,
                    &mut |_| at_risk += 1,
                );
                at_risk + LendingProtocol::liquidatable(&mut protocol, &oracle).len()
            })
        });
    }
    group.finish();
}

/// Baseline comparison for the mechanism-comparison experiment: close-factor
/// ablation (50 % vs 100 % vs the optimal strategy) on a fixed position.
fn bench_close_factor_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_close_factor");
    let collateral = Wad::from_int(9_900);
    let debt = Wad::from_int(8_400);
    for close_factor in [0.25, 0.5, 1.0] {
        let params = RiskParams::new(0.8, 0.1, close_factor);
        group.bench_function(format!("strategy_cf_{close_factor}"), |b| {
            b.iter(|| StrategyComparison::evaluate(collateral, debt, params))
        });
    }
    group.finish();
}

/// Journal subsystem: the write-side tax on the session loop (the recording
/// overhead budget is <5% over a plain run — the measured pair is recorded
/// in `BENCH_baseline.json`) and replay throughput from a pre-recorded
/// journal through the full analytics collector.
fn bench_journal(c: &mut Criterion) {
    use defi_analytics::StudyAnalysis;
    use defi_journal::{JournalReader, JournalWriter};
    use defi_sim::NullObserver;

    let ticks = SimConfig::smoke_test(5).tick_count();
    let mut group = c.benchmark_group("journal");
    group.sample_size(10);

    let dir = std::env::temp_dir().join("djrn-bench");
    std::fs::create_dir_all(&dir).expect("temp dir");

    group.bench_function(format!("plain_session_loop_{ticks}_ticks"), |b| {
        b.iter(|| {
            SimulationEngine::new(SimConfig::smoke_test(5))
                .session()
                .run_to_end(&mut NullObserver)
                .unwrap()
        })
    });

    let write_path = dir.join("bench-write.jrn");
    group.bench_function(format!("journaled_session_loop_{ticks}_ticks"), |b| {
        b.iter(|| {
            let mut writer = JournalWriter::create(&write_path).unwrap();
            let report = SimulationEngine::new(SimConfig::smoke_test(5))
                .session()
                .run_to_end(&mut writer)
                .unwrap();
            writer.finish().unwrap();
            report
        })
    });

    // Replay throughput: decode a pre-recorded smoke journal and drive the
    // full StudyCollector pipeline from it. In CI's `--test` quick mode the
    // single iteration doubles as a structural check: the recording must
    // reach its run end and produce a non-empty analysis.
    let recorded = dir.join("bench-replay.jrn");
    let mut writer = JournalWriter::create(&recorded).unwrap();
    let (live, _) =
        StudyAnalysis::stream_with(SimulationEngine::new(SimConfig::smoke_test(5)), &mut writer)
            .unwrap();
    writer.finish().unwrap();
    group.bench_function(format!("replay_to_analysis_{ticks}_ticks"), |b| {
        b.iter(|| {
            let reader = JournalReader::open(&recorded).unwrap();
            let replayed = StudyAnalysis::from_replay(|observer| reader.replay(observer))
                .unwrap()
                .expect("recording reaches its run end");
            assert_eq!(
                defi_bench::render::render_headline(&replayed),
                defi_bench::render::render_headline(&live),
                "replayed analysis diverged from the live run"
            );
            replayed
        })
    });
    group.finish();
}

fn bench_platform_books(c: &mut Criterion) {
    // Building position snapshots is the hot path of the measurement loop.
    let report = shared_report();
    c.bench_function("platform_position_books", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for positions in report.final_positions.values() {
                total += positions.len();
            }
            let _ = BTreeMap::from([(Platform::Compound, total)]);
            total
        })
    });
}

criterion_group!(
    benches,
    bench_overall,
    bench_fig6_gas,
    bench_fig7_auctions,
    bench_table2_table3,
    bench_table4_flash_loans,
    bench_fig8_sensitivity,
    bench_stablecoin_stability,
    bench_fig9_table8,
    bench_table7_price_movement,
    bench_table5_table6_strategy,
    bench_liquidation_call,
    bench_simulation_ticks,
    bench_session_loop,
    bench_streaming_vs_batch_analytics,
    bench_close_factor_ablation,
    bench_platform_books,
    bench_positions_scale,
    bench_band_index,
    bench_journal,
);
criterion_main!(benches);
