//! Book-scale regression guards on synthetic position books.
//!
//! Each guard drives the per-tick position surface the engine uses
//! (accrual, the banded at-risk pass, liquidation discovery and volume
//! sampling) and asserts on the book's work counters, so an index-vs-rescan
//! regression fails a test instead of showing up as a slower number. The
//! guards run at 1k accounts (one shard) and 10k accounts (the
//! `BOOK_SHARD_COUNT` address-range shards) under `cargo test`; the ignored
//! 1M-account stress row runs with
//! `cargo test --release -p defi-lending --test book_scale -- --ignored --nocapture`.
//!
//! End-to-end timing of the study run, the scenario matrix and the
//! 100k-account books lives in `perfbench/`.

use std::time::Instant;

use defi_chain::Ledger;
use defi_lending::{
    compound, maker_protocol, FixedSpreadProtocol, LendingProtocol, MakerProtocol,
    BOOK_SHARD_COUNT, RELEVERAGE_BAND_HF, RESCUE_BAND_HF,
};
use defi_oracle::{OracleConfig, PriceOracle};
use defi_types::{Address, Token, Wad};

/// A populated fixed-spread pool with `n` borrowers at staggered health
/// factors, plus the oracle it was built against.
fn scale_fixed_spread_pool(n: u64) -> (FixedSpreadProtocol, PriceOracle) {
    let mut protocol = compound();
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
    oracle.set_price(0, Token::USDC, Wad::ONE);
    oracle.set_price(0, Token::DAI, Wad::ONE);
    let mut ledger = Ledger::new();
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
    (protocol, oracle)
}

/// A Maker book with `n` CDPs at staggered collateralization.
fn scale_maker_pool(n: u64) -> (MakerProtocol, PriceOracle) {
    let mut maker = maker_protocol();
    let mut oracle = PriceOracle::new(OracleConfig::every_update());
    oracle.set_price(0, Token::ETH, Wad::from_int(3_500));
    oracle.set_price(0, Token::DAI, Wad::ONE);
    let mut ledger = Ledger::new();
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
    (maker, oracle)
}

/// The position work of one engine tick on a fixed-spread platform: accrue,
/// run the borrower-management pass over the *banded* at-risk iterator,
/// discover liquidatable positions, and — every `volume_sample_interval`
/// (10) ticks, as the engine does — take a volume sample from the running
/// per-token amount sums. Exactly the calls `SimulationEngine::tick` makes
/// per platform.
fn fixed_spread_tick_work(protocol: &mut FixedSpreadProtocol, oracle: &PriceOracle, block: u64) {
    protocol.accrue(block);
    // Borrower-management pass: only at-risk positions (HF in [1, rescue)
    // or above the releverage band) are read; quiet accounts whose
    // certified envelope holds are skipped without re-valuation.
    let rescue = Wad::from_f64(RESCUE_BAND_HF);
    let releverage = Wad::from_f64(RELEVERAGE_BAND_HF);
    protocol.for_each_at_risk(oracle, rescue, releverage, &mut |_position| {});
    protocol.liquidatable(oracle);
    // Periodic volume sampling (Figures 4/9 denominators).
    if block.is_multiple_of(10) {
        protocol.book_totals(oracle);
    }
}

/// One warm tick: a small ETH move, as a deviation-threshold write, then the
/// tick's position work.
fn wiggle_tick(protocol: &mut FixedSpreadProtocol, oracle: &mut PriceOracle, block: &mut u64) {
    *block += 1;
    let wiggle = 3_450.0 + (*block % 7) as f64 * 2.0;
    oracle.set_price(*block, Token::ETH, Wad::from_f64(wiggle));
    fixed_spread_tick_work(protocol, oracle, *block);
}

/// Builds an `n`-account fixed-spread book, warms it with one tick and
/// asserts the tick guards: the shard layout, no-op discovery that re-values
/// nothing, and warm ticks that grow no scratch buffer. Returns the warm book
/// for further ticks.
fn fixed_spread_tick_guards(n: u64) -> (FixedSpreadProtocol, PriceOracle, u64) {
    let (mut protocol, mut oracle) = scale_fixed_spread_pool(n);
    let mut block = 10u64;
    // The first flush after pool construction values every account exactly
    // once; the guards below watch the steady-state incremental tick.
    fixed_spread_tick_work(&mut protocol, &oracle, block);
    // Layout: the 1k book stays on its one shard, the larger books split
    // into the address-range shards.
    let expected_shards = if n == 1_000 { 1 } else { BOOK_SHARD_COUNT };
    assert_eq!(
        protocol.book_stats().shards,
        expected_shards,
        "a {n}-account book runs the wrong shard layout"
    );

    // A no-op discovery must answer from the index, not rescan the book.
    protocol.liquidatable(&oracle);
    let before = protocol.book_stats().revaluations;
    protocol.liquidatable(&oracle);
    let after = protocol.book_stats().revaluations;
    assert_eq!(
        before,
        after,
        "no-op liquidatable re-valued {} accounts instead of using the index",
        after - before
    );

    // Allocation audit: after one full wiggle cycle the reusable scratch
    // buffers have reached their high-water capacities — further warm ticks
    // must not grow any of them.
    for _ in 0..7 {
        wiggle_tick(&mut protocol, &mut oracle, &mut block);
    }
    let grows_before = protocol.book_stats().scratch_grows;
    for _ in 0..7 {
        wiggle_tick(&mut protocol, &mut oracle, &mut block);
    }
    let grows_after = protocol.book_stats().scratch_grows;
    assert_eq!(
        grows_before,
        grows_after,
        "warm ticks grew a scratch buffer {} time(s) — the tick hot loop is allocating",
        grows_after - grows_before
    );
    (protocol, oracle, block)
}

/// Maker CDP discovery must be a range scan: a price move that crosses
/// nobody re-values nobody, and a crossing move re-values exactly the CDPs
/// discovery returns.
fn maker_discovery_guards(n: u64) {
    let (mut maker, mut oracle) = scale_maker_pool(n);
    let block = 11u64;
    oracle.set_price(block, Token::ETH, Wad::from_int(3_500));
    maker.liquidatable(&oracle);
    let before = maker.book_stats().revaluations;
    oracle.set_price(block + 1, Token::ETH, Wad::from_int(3_499));
    maker.liquidatable(&oracle);
    let after = maker.book_stats().revaluations;
    assert_eq!(
        before,
        after,
        "a non-crossing price move re-valued {} CDPs instead of range-scanning",
        after - before
    );

    // No flush work reaches a critical-price CDP: the crossing move
    // re-values the crossed CDPs discovery hands out, and nothing else.
    oracle.set_price(block + 2, Token::ETH, Wad::from_int(3_430));
    let discovered = maker.liquidatable(&oracle).len() as u64;
    let revalued = maker.book_stats().revaluations - after;
    assert!(discovered > 0, "the crossing move should cross some CDPs");
    assert_eq!(
        revalued, discovered,
        "a crossing move re-valued {revalued} CDPs for {discovered} discovered"
    );
}

/// Conservative HF band index on a fixed-spread book whose markets have not
/// accrued yet: an accrual-only tick is absorbed by the index caps,
/// in-envelope price wiggles take only light refreshes, and a volume sample
/// after them re-values nothing and equals the per-token reference.
fn band_index_guards(mut protocol: FixedSpreadProtocol, mut oracle: PriceOracle) {
    let rescue = Wad::from_f64(RESCUE_BAND_HF);
    let releverage = Wad::from_f64(RELEVERAGE_BAND_HF);
    // Markets are listed at the platform's inception block, so accrual only
    // runs for blocks beyond it. Warm the cache: accrue from listing to
    // `block`, then classify and certify every account once, so the next
    // accrual is one block.
    let mut block = 7_800_000u64;
    protocol.accrue(block);
    protocol.liquidatable(&oracle);
    protocol.for_each_at_risk(&oracle, rescue, releverage, &mut |_| {});

    block += 1;
    protocol.accrue(block);
    let before = protocol.book_stats();
    protocol.for_each_at_risk(&oracle, rescue, releverage, &mut |_| {});
    protocol.liquidatable(&oracle);
    let after = protocol.book_stats();
    let revalued = after.revaluations - before.revaluations;
    assert!(
        (revalued as usize) < after.cached_accounts,
        "accrual-only tick re-valued {revalued} of {} accounts — the band index absorbed nothing",
        after.cached_accounts
    );
    // A one-block accrual stays inside every certified cap, so the cap index
    // must answer it without examining the debtors one by one.
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

    // Fixed-spread accounts are envelope-held, so in-envelope wiggles
    // freshen them through the light path. One full wiggle cycle, so the
    // price really moves.
    let before = protocol.book_stats();
    for _ in 0..7 {
        block += 1;
        let wiggle = 3_450.0 + (block % 7) as f64 * 2.0;
        oracle.set_price(block, Token::ETH, Wad::from_f64(wiggle));
        protocol.for_each_at_risk(&oracle, rescue, releverage, &mut |_| {});
        protocol.liquidatable(&oracle);
    }
    let after = protocol.book_stats();
    assert!(
        after.light_refreshes > before.light_refreshes,
        "the wiggles freshened no envelope-held account"
    );

    // A volume sample prices the running amount sums: it re-values nothing
    // (no drain of the lazily stale valuations).
    let totals = protocol.book_totals(&oracle);
    let sampled = protocol.book_stats();
    assert_eq!(
        (sampled.revaluations, sampled.light_refreshes),
        (after.revaluations, after.light_refreshes),
        "book_totals re-valued accounts"
    );
    let reference = protocol.reference_positions(&oracle);
    assert_eq!(
        totals,
        defi_lending::book::reference_totals(&reference, &oracle),
        "book_totals diverged from the per-token reference"
    );
}

#[test]
fn fixed_spread_tick_guards_1k_accounts() {
    fixed_spread_tick_guards(1_000);
}

#[test]
fn fixed_spread_tick_guards_10k_accounts() {
    fixed_spread_tick_guards(10_000);
}

#[test]
fn maker_discovery_guards_1k_accounts() {
    maker_discovery_guards(1_000);
}

#[test]
fn maker_discovery_guards_10k_accounts() {
    maker_discovery_guards(10_000);
}

#[test]
fn band_index_guards_1k_accounts() {
    let (protocol, oracle) = scale_fixed_spread_pool(1_000);
    band_index_guards(protocol, oracle);
}

#[test]
fn band_index_guards_10k_accounts() {
    let (protocol, oracle) = scale_fixed_spread_pool(10_000);
    band_index_guards(protocol, oracle);
}

/// The 1M-account stress row: every guard at 1M accounts, plus the host's
/// parallelism and one warm tick's wall time, printed as data. The band-index
/// guards reuse the warm fixed-spread book (its ticks ran before the markets'
/// listing block, so nothing has accrued) instead of building a second one.
#[test]
#[ignore = "1M-account stress row; run in release with --ignored"]
fn stress_row_1m_accounts() {
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("bench host: {cpus} cpu(s)");
    let n = 1_000_000;
    let (mut protocol, mut oracle, mut block) = fixed_spread_tick_guards(n);
    let start = Instant::now();
    wiggle_tick(&mut protocol, &mut oracle, &mut block);
    println!(
        "fixed_spread_tick_{n}_accounts: one warm tick {:.3} ms",
        start.elapsed().as_secs_f64() * 1e3
    );
    band_index_guards(protocol, oracle);
    maker_discovery_guards(n);
}
