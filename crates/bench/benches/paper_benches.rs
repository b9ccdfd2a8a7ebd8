//! Book-scale regression guards on synthetic position books.
//!
//! Two criterion groups drive the per-tick position surface the engine uses
//! (accrual, the banded at-risk pass, liquidation discovery and volume
//! sampling) on books of 1k to 1M accounts: `positions_scale` (fixed-spread
//! tick work, Maker discovery, no-op discovery) and `band_index`
//! (accrual-only ticks, in-envelope price wiggles). The untimed asserts
//! between the timed bodies are the guards. They run on every invocation,
//! whatever the name filter selects, so CI runs them once in quick mode:
//! `cargo bench -p defi-bench --bench paper_benches -- --test`.
//!
//! End-to-end timing of the study run, the scenario matrix and the
//! 100k-account books lives in `perfbench/`.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};

use defi_lending::compound;
use defi_oracle::{OracleConfig, PriceOracle};
use defi_types::{Address, Token, Wad};

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
/// per-token amount sums. Exactly the calls `SimulationEngine::tick` makes
/// per platform.
fn fixed_spread_tick_work(
    protocol: &mut defi_lending::FixedSpreadProtocol,
    oracle: &PriceOracle,
    block: u64,
) -> usize {
    use defi_lending::LendingProtocol;
    LendingProtocol::accrue(protocol, block);
    // Borrower-management pass: only at-risk positions (HF in [1, rescue)
    // or above the releverage band) are read; quiet accounts whose
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
        let mut block = 10u64;
        // Warm: the first flush after pool construction values every account
        // exactly once; the row measures the steady-state incremental tick
        // (in `--test` quick mode the stub makes one untimed warm-up call,
        // then times one iteration).
        fixed_spread_tick_work(&mut protocol, &oracle, block);
        // Layout guard (quick mode too): the 1k book stays on its one
        // shard, the larger books split into the address-range shards.
        let expected_shards = if n == 1_000 {
            1
        } else {
            defi_lending::BOOK_SHARD_COUNT
        };
        assert_eq!(
            protocol.book_stats().shards,
            expected_shards,
            "a {n}-account book runs the wrong shard layout"
        );
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
        // exactly the crossed CDPs, and every refresh is served by the term
        // path — critical-price CDPs never take the light or the full
        // `fill_position` rebuild inside Maker discovery.
        let stats_before = maker.book_stats();
        maker_oracle.set_price(maker_block + 2, Token::ETH, Wad::from_int(3_430));
        let _ = LendingProtocol::liquidatable(&mut maker, &maker_oracle);
        let stats_after = maker.book_stats();
        let revalued = stats_after.revaluations - stats_before.revaluations;
        let termed = stats_after.term_reprices - stats_before.term_reprices;
        assert!(
            revalued > 0,
            "the crossing move should refresh crossed CDPs"
        );
        assert_eq!(
            revalued,
            termed,
            "{} crossed CDPs took a rebuild path instead of the term reprice",
            revalued - termed
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
        // Markets are listed at the platform's inception block, so accrual
        // only runs for blocks beyond it.
        let mut block = 7_800_000u64;
        // Warm the cache: accrue from listing to `block`, then classify and
        // certify every account once, so every later accrual is one block —
        // also in the regression guard below when a bench filter skips the
        // timed body.
        LendingProtocol::accrue(&mut protocol, block);
        let _ = LendingProtocol::liquidatable(&mut protocol, &oracle);
        LendingProtocol::for_each_at_risk(&mut protocol, &oracle, rescue, releverage, &mut |_| {});
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

        let mut wiggle_tick = |protocol: &mut defi_lending::FixedSpreadProtocol,
                               block: &mut u64| {
            *block += 1;
            let wiggle = 3_450.0 + (*block % 7) as f64 * 2.0;
            oracle.set_price(*block, Token::ETH, Wad::from_f64(wiggle));
            let mut at_risk = 0usize;
            LendingProtocol::for_each_at_risk(protocol, &oracle, rescue, releverage, &mut |_| {
                at_risk += 1
            });
            at_risk + LendingProtocol::liquidatable(protocol, &oracle).len()
        };
        group.bench_function(format!("price_wiggle_discovery_{n}_accounts"), |b| {
            b.iter(|| wiggle_tick(&mut protocol, &mut block))
        });

        // Regression guard: fixed-spread accounts are envelope-held, so
        // in-envelope wiggles freshen them through the light path and never
        // through the critical-price term reprice. One full wiggle cycle, so
        // the price really moves whichever tick the timed body stopped at.
        let before = protocol.book_stats();
        for _ in 0..7 {
            wiggle_tick(&mut protocol, &mut block);
        }
        let after = protocol.book_stats();
        assert_eq!(
            after.term_reprices, before.term_reprices,
            "a fixed-spread tick took the term path"
        );
        assert!(
            after.light_refreshes > before.light_refreshes,
            "the wiggles freshened no envelope-held account"
        );

        // Regression guard: a volume sample after in-envelope wiggles prices
        // the running amount sums — it re-values nothing (no drain of the
        // lazily stale valuations) and equals the per-token reference.
        let totals = LendingProtocol::book_totals(&mut protocol, &oracle);
        let sampled = protocol.book_stats();
        assert_eq!(
            (sampled.revaluations, sampled.light_refreshes),
            (after.revaluations, after.light_refreshes),
            "book_totals re-valued accounts"
        );
        let reference = LendingProtocol::reference_positions(&protocol, &oracle);
        assert_eq!(
            totals,
            defi_lending::book::reference_totals(&reference, &oracle),
            "book_totals diverged from the per-token reference"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_positions_scale, bench_band_index);
criterion_main!(benches);
