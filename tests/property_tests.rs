//! Property-based tests of the core invariants, using proptest.
//!
//! These cover the numeric substrate (Wad arithmetic), the position model
//! (Eqs. 1–4), the strategy layer (Algorithm 2 and Appendix C), the
//! sensitivity algorithm (Algorithm 1), the ledger's conservation/atomicity
//! guarantees and the AMM's constant-product invariant.

use proptest::prelude::*;

use defi_liquidations_suite::amm::{ConstantProductPool, PoolConfig};
use defi_liquidations_suite::chain::Ledger;
use defi_liquidations_suite::core::bad_debt::{classify_bad_debt, BadDebtType};
use defi_liquidations_suite::core::config::{
    health_factor_after_liquidation, is_sound_fixed_spread_config,
};
use defi_liquidations_suite::core::params::RiskParams;
use defi_liquidations_suite::core::position::{CollateralHolding, DebtHolding, Position};
use defi_liquidations_suite::core::sensitivity::liquidatable_collateral;
use defi_liquidations_suite::core::strategy::{
    optimal_liquidation, optimal_profit_closed_form, up_to_close_factor_liquidation,
};
use defi_liquidations_suite::prelude::*;

fn wad(value: f64) -> Wad {
    Wad::from_f64(value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wad multiplication/division round-trips within one unit of precision.
    #[test]
    fn wad_mul_div_roundtrip(a in 1u64..1_000_000_000, b in 1u64..1_000_000) {
        let a = Wad::from_int(a);
        let b = Wad::from_int(b);
        let product = a.checked_mul(b).unwrap();
        let back = product.checked_div(b).unwrap();
        prop_assert!(back.abs_diff(a).to_f64() < 1e-9);
    }

    /// Wad addition/subtraction are exact inverses when no underflow occurs.
    #[test]
    fn wad_add_sub_inverse(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let a = Wad::from_int(a);
        let b = Wad::from_int(b);
        prop_assert_eq!((a + b) - b, a);
    }

    /// Fractional mul/div round-trip: `(a × b) / b` recovers `a` up to the
    /// truncation of the 18-decimal representation, amplified by at most
    /// `1/b` when dividing back.
    #[test]
    fn wad_fractional_mul_div_roundtrip(a in 0.001f64..1e12, b in 0.001f64..1e6) {
        let wa = wad(a);
        let wb = wad(b);
        prop_assume!(!wa.is_zero() && !wb.is_zero());
        let product = wa.checked_mul(wb).unwrap();
        let back = product.checked_div(wb).unwrap();
        prop_assert!(
            back.abs_diff(wa).to_f64() <= 1e-12,
            "round-trip drift: {} -> {}", wa, back
        );
        // Division truncates, so the round-trip never overshoots.
        prop_assert!(back <= wa);
    }

    /// Saturation at the bounds: the saturating operators clamp, the checked
    /// operators return typed errors, and neither wraps.
    #[test]
    fn wad_saturates_at_bounds(raw in 1u128..u128::MAX / 2) {
        let x = Wad::from_raw(raw);
        prop_assert_eq!(Wad::MAX.saturating_add(x), Wad::MAX);
        prop_assert_eq!(Wad::ZERO.saturating_sub(x), Wad::ZERO);
        prop_assert!(Wad::MAX.checked_add(x).is_err());
        prop_assert!(Wad::ZERO.checked_sub(x).is_err());
        prop_assert!(x.checked_div(Wad::ZERO).is_err());
        // Multiplying by one is always exact, even at the boundary.
        prop_assert_eq!(Wad::MAX.checked_mul(Wad::ONE).unwrap(), Wad::MAX);
        prop_assert_eq!(x.checked_mul(Wad::ONE).unwrap(), x);
        // MAX × anything > 1 overflows as an error, not a wrap.
        prop_assert!(Wad::MAX.checked_mul(Wad::from_f64(1.000001)).is_err());
    }

    /// Non-finite and non-positive `f64` inputs saturate to zero instead of
    /// producing garbage fixed-point values.
    #[test]
    fn wad_from_f64_rejects_degenerate_inputs(x in 0.001f64..1e9) {
        prop_assert_eq!(Wad::from_f64(-x), Wad::ZERO);
        prop_assert_eq!(Wad::from_f64(f64::NAN), Wad::ZERO);
        prop_assert_eq!(Wad::from_f64(f64::INFINITY), Wad::ZERO);
        prop_assert!((Wad::from_f64(x).to_f64() - x).abs() <= 1e-6 * x.max(1.0));
    }

    /// Eq. 4 monotonicity: lowering the collateral price never makes a
    /// liquidatable position healthy — the health factor is non-increasing
    /// in the collateral price while the debt is price-independent.
    #[test]
    fn lowering_collateral_price_never_heals_a_liquidatable_position(
        amount in 0.5f64..10_000.0,
        price in 1.0f64..10_000.0,
        lt in 0.4f64..0.9,
        over_usage in 1.001f64..3.0,
        decline in 0.001f64..0.999,
    ) {
        // Debt sized so HF = 1/over_usage < 1 at the starting price.
        let debt_usd = amount * price * lt * over_usage;
        let at_price = |p: f64| {
            Position::new(Address::ZERO)
                .with_collateral(CollateralHolding {
                    token: Token::ETH,
                    amount: wad(amount),
                    value_usd: wad(amount * p),
                    liquidation_threshold: wad(lt),
                    liquidation_spread: wad(0.05),
                })
                .with_debt(DebtHolding {
                    token: Token::DAI,
                    amount: wad(debt_usd),
                    value_usd: wad(debt_usd),
                })
        };
        let before = at_price(price);
        prop_assume!(before.is_liquidatable());
        let after = at_price(price * (1.0 - decline));
        prop_assert!(
            after.is_liquidatable(),
            "price decline healed the position: HF {} -> {:?}",
            before.health_factor().unwrap(),
            after.health_factor()
        );
        prop_assert!(
            after.health_factor().unwrap() <= before.health_factor().unwrap(),
            "HF increased under a price decline"
        );
    }

    /// Eq. 4: scaling collateral and debt by the same factor leaves the
    /// health factor unchanged (it is a ratio).
    #[test]
    fn health_factor_is_scale_invariant(
        collateral in 1_000.0f64..10_000_000.0,
        ratio in 0.3f64..3.0,
        scale in 0.5f64..50.0,
        lt in 0.4f64..0.9,
    ) {
        let make = |c: f64, d: f64| {
            Position::new(Address::ZERO)
                .with_collateral(CollateralHolding {
                    token: Token::ETH,
                    amount: wad(c),
                    value_usd: wad(c),
                    liquidation_threshold: wad(lt),
                    liquidation_spread: wad(0.05),
                })
                .with_debt(DebtHolding { token: Token::DAI, amount: wad(d), value_usd: wad(d) })
        };
        let debt = collateral * ratio;
        let base = make(collateral, debt).health_factor().unwrap().to_f64();
        let scaled = make(collateral * scale, debt * scale).health_factor().unwrap().to_f64();
        prop_assert!((base - scaled).abs() < 1e-6 * base.max(1.0));
    }

    /// Algorithm 2: whenever both strategies apply, the optimal strategy's
    /// profit is at least the up-to-close-factor profit, matches its closed
    /// form, and the first repayment leaves the position unhealthy.
    #[test]
    fn optimal_strategy_invariants(
        collateral in 2_000.0f64..50_000_000.0,
        hf in 0.55f64..0.999,
        lt in 0.5f64..0.86,
        ls in 0.02f64..0.15,
        cf in 0.2f64..0.8,
    ) {
        let params = RiskParams::new(lt, ls, cf);
        prop_assume!(is_sound_fixed_spread_config(params));
        // Construct a debt so that HF = collateral*LT/debt equals `hf` < 1.
        let debt = collateral * lt / hf;
        let c = wad(collateral);
        let d = wad(debt);
        let base = up_to_close_factor_liquidation(c, d, params).unwrap();
        let optimal = optimal_liquidation(c, d, params).unwrap();
        prop_assert!(optimal.profit >= base.profit);
        // Closed form agreement (Eq. 8) within 0.1% relative error, whenever
        // neither the close-factor cap nor the collateral cap binds (Eq. 8
        // assumes the unconstrained repayments of Eqs. 6–7).
        let closed = optimal_profit_closed_form(c, d, params).to_f64();
        let cf_cap = d.to_f64() * cf;
        let uncapped = optimal.repay_1.to_f64() < cf_cap * 0.999
            && optimal.collateral_claimed.to_f64() < collateral * 0.999;
        if closed > 1.0 && uncapped {
            prop_assert!((optimal.profit.to_f64() - closed).abs() / closed < 1e-3);
        }
        // The first liquidation must keep HF ≤ 1 (up to rounding dust).
        if optimal.repay_1 < d {
            let hf_mid = health_factor_after_liquidation(c, d, optimal.repay_1, params).unwrap();
            prop_assert!(hf_mid.to_f64() <= 1.0 + 1e-9);
        }
    }

    /// Appendix C: for sound configurations, a close-factor liquidation of an
    /// over-collateralized liquidatable position increases the health factor.
    #[test]
    fn sound_configs_improve_health(
        collateral in 10_000.0f64..1_000_000.0,
        hf in 0.80f64..0.999,
        lt in 0.5f64..0.85,
        ls in 0.02f64..0.12,
    ) {
        let params = RiskParams::new(lt, ls, 0.5);
        prop_assume!(is_sound_fixed_spread_config(params));
        let debt = collateral * lt / hf;
        // Only over-collateralized positions (CR > 1 + LS) are guaranteed to improve.
        prop_assume!(collateral / debt > 1.0 + ls + 0.01);
        let repay = wad(debt * 0.5);
        let before = hf;
        let after = health_factor_after_liquidation(wad(collateral), wad(debt), repay, params)
            .unwrap()
            .to_f64();
        prop_assert!(after > before - 1e-9, "HF {before} -> {after} should not decrease");
    }

    /// Algorithm 1: the liquidatable collateral is monotone in the number of
    /// positions (adding a position never reduces it), zero for tokens not
    /// present in any position; declines outside `[0, 1]` clamp to it.
    #[test]
    fn sensitivity_is_monotone_in_positions(
        sizes in prop::collection::vec((5_000.0f64..500_000.0, 0.5f64..0.95), 1..20),
        decline in 0.05f64..0.95,
    ) {
        let positions: Vec<Position> = sizes
            .iter()
            .enumerate()
            .map(|(i, (collateral, usage))| {
                Position::new(Address::from_seed(i as u64))
                    .with_collateral(CollateralHolding {
                        token: Token::ETH,
                        amount: wad(*collateral / 3_000.0),
                        value_usd: wad(*collateral),
                        liquidation_threshold: wad(0.8),
                        liquidation_spread: wad(0.05),
                    })
                    .with_debt(DebtHolding {
                        token: Token::DAI,
                        amount: wad(collateral * 0.8 * usage),
                        value_usd: wad(collateral * 0.8 * usage),
                    })
            })
            .collect();
        let mut previous = Wad::ZERO;
        for n in 1..=positions.len() {
            let current = liquidatable_collateral(&positions[..n], Token::ETH, decline);
            prop_assert!(current >= previous);
            previous = current;
        }
        prop_assert_eq!(liquidatable_collateral(&positions, Token::WBTC, decline), Wad::ZERO);
        // Declines outside [0, 1] clamp to the nearest edge (a price cannot
        // fall below zero or rise through a negative decline), and NaN is no
        // decline at all.
        let at = |d: f64| liquidatable_collateral(&positions, Token::ETH, d);
        for beyond in [-0.5, 1.5, 7.0, f64::INFINITY, f64::NEG_INFINITY] {
            prop_assert_eq!(at(beyond), at(beyond.clamp(0.0, 1.0)));
        }
        prop_assert_eq!(at(f64::NAN), at(0.0));
    }

    /// Bad-debt classification is consistent: Type I implies CR < 1, and the
    /// same position never classifies as both types.
    #[test]
    fn bad_debt_classification_is_consistent(
        collateral in 100.0f64..100_000.0,
        debt in 100.0f64..100_000.0,
        fee in 1.0f64..500.0,
    ) {
        let position = Position::simple(
            Address::ZERO,
            Token::ETH,
            wad(collateral),
            Token::DAI,
            wad(debt),
            wad(0.75),
            wad(0.08),
        );
        match classify_bad_debt(&position, wad(fee)) {
            BadDebtType::TypeI => prop_assert!(collateral < debt),
            BadDebtType::TypeII => {
                prop_assert!(collateral >= debt);
                prop_assert!(collateral - debt <= fee + 1e-6);
            }
            BadDebtType::None => prop_assert!(collateral - debt > fee - 1e-6 || debt == 0.0),
        }
    }

    /// Ledger conservation: a sequence of transfers never changes the total
    /// supply, and a reverted checkpoint restores every balance.
    #[test]
    fn ledger_conserves_supply_and_reverts(
        transfers in prop::collection::vec((0u64..5, 0u64..5, 1u64..1_000), 1..40),
    ) {
        let mut ledger = Ledger::new();
        for account in 0..5u64 {
            ledger.mint(Address::from_seed(account), Token::DAI, Wad::from_int(10_000));
        }
        let supply_before = ledger.total_supply(Token::DAI);
        let balances_before: Vec<Wad> = (0..5u64)
            .map(|a| ledger.balance(Address::from_seed(a), Token::DAI))
            .collect();

        ledger.begin_checkpoint();
        for (from, to, amount) in &transfers {
            let _ = ledger.transfer(
                Address::from_seed(*from),
                Address::from_seed(*to),
                Token::DAI,
                Wad::from_int(*amount),
            );
        }
        prop_assert_eq!(ledger.total_supply(Token::DAI), supply_before);
        ledger.revert_checkpoint();
        for (i, expected) in balances_before.iter().enumerate() {
            prop_assert_eq!(ledger.balance(Address::from_seed(i as u64), Token::DAI), *expected);
        }
    }

    /// AMM invariant: swaps never decrease x·y (fees make it grow), and the
    /// output is always less than the spot value of the input.
    #[test]
    fn amm_constant_product_invariant(
        eth_reserve in 100u64..100_000,
        price in 100u64..10_000,
        trade in 1u64..5_000,
    ) {
        prop_assume!(trade < eth_reserve * 10);
        let mut ledger = Ledger::new();
        let mut pool = ConstantProductPool::new(
            Address::from_label("prop-pool"),
            PoolConfig::standard(Token::ETH, Token::DAI),
        );
        pool.seed_liquidity(
            &mut ledger,
            Wad::from_int(eth_reserve),
            Wad::from_int(eth_reserve * price),
        );
        let trader = Address::from_seed(1);
        ledger.mint(trader, Token::ETH, Wad::from_int(trade));
        let (a0, b0) = pool.reserves(&ledger);
        let k0 = a0.to_f64() * b0.to_f64();
        let out = pool
            .swap(&mut ledger, trader, Token::ETH, Wad::from_int(trade))
            .unwrap();
        let (a1, b1) = pool.reserves(&ledger);
        let k1 = a1.to_f64() * b1.to_f64();
        prop_assert!(k1 >= k0 * 0.999_999);
        prop_assert!(out.to_f64() <= trade as f64 * price as f64);
    }
}

// ---------------------------------------------------------------------------
// Incremental position books (PR 4): after an arbitrary interleaving of
// deposits / borrows / repayments / price moves / accrual / liquidations, the
// dirty-tracked `PositionBook` cache must equal a from-scratch `positions()`
// rebuild, and the critical-price liquidation index must flag exactly the
// accounts below the liquidation threshold.
// ---------------------------------------------------------------------------

mod incremental_book {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use defi_liquidations_suite::chain::Ledger;
    use defi_liquidations_suite::lending::{
        compound, maker_protocol, FixedSpreadProtocol, LendingProtocol, RELEVERAGE_BAND_HF,
        RESCUE_BAND_HF,
    };
    use defi_liquidations_suite::oracle::{OracleConfig, PriceOracle};
    use defi_liquidations_suite::prelude::*;
    use proptest::prelude::*;

    fn account(i: u8) -> Address {
        Address::from_seed(7_000 + (i % 6) as u64)
    }

    /// Cases of `fixed_spread_cache_equals_scratch_rebuild` that reached a
    /// collateral-free debtor (Type I bad debt).
    static COLLATERAL_FREE_CASES: AtomicUsize = AtomicUsize::new(0);

    /// The lazy surfaces — discovery and the banded at-risk visit — against
    /// the from-scratch rebuild, with no full query in between: they must
    /// hand out exactly the reference accounts, freshened byte for byte.
    fn lazy_surfaces_match_scratch(
        protocol: &mut FixedSpreadProtocol,
        oracle: &PriceOracle,
    ) -> Result<(), prop::TestCaseError> {
        let rescue = Wad::from_f64(RESCUE_BAND_HF);
        let releverage = Wad::from_f64(RELEVERAGE_BAND_HF);
        let scratch_at_risk: Vec<Position> = protocol
            .positions(oracle)
            .into_iter()
            .filter(|p| {
                p.health_factor()
                    .is_some_and(|hf| hf < rescue || hf > releverage)
            })
            .collect();
        let scratch_liquidatable = protocol.liquidatable_accounts(oracle);
        prop_assert_eq!(
            protocol.cached_liquidatable_accounts(oracle),
            scratch_liquidatable
        );
        let mut visited = Vec::new();
        protocol.for_each_at_risk(oracle, rescue, releverage, &mut |p| visited.push(p.clone()));
        prop_assert_eq!(visited, scratch_at_risk);
        Ok(())
    }

    /// Fixed-spread pools: cache ≡ rebuild after arbitrary op sequences,
    /// and the sequences reach collateral-free debtors.
    #[test]
    fn fixed_spread_cache_equals_scratch_rebuild() {
        fixed_spread_cache_equals_scratch_rebuild_cases();
        assert!(
            COLLATERAL_FREE_CASES.load(Ordering::Relaxed) > 0,
            "no generated case left a collateral-free debtor"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cases of `fixed_spread_cache_equals_scratch_rebuild`.
        fn fixed_spread_cache_equals_scratch_rebuild_cases(
            ops in prop::collection::vec((0u8..8, 0u8..6, 1u32..30_000, 0u16..1_000), 1..40),
        ) {
            let mut protocol = compound();
            let mut ledger = Ledger::new();
            let mut events = Vec::new();
            let mut oracle = PriceOracle::new(OracleConfig::every_update());
            oracle.set_price(0, Token::ETH, Wad::from_int(3_000));
            oracle.set_price(0, Token::USDC, Wad::ONE);
            let lender = Address::from_seed(1);
            ledger.mint(lender, Token::USDC, Wad::from_int(50_000_000));
            protocol
                .deposit(&mut ledger, &mut events, lender, Token::USDC, Wad::from_int(50_000_000))
                .unwrap();
            let mut block: u64 = 1;
            let mut collateral_free = false;

            for (selector, who, magnitude, tweak) in ops {
                let address = account(who);
                match selector {
                    0 => {
                        // Deposit ETH collateral.
                        let amount = Wad::from_f64(magnitude as f64 / 1_000.0);
                        ledger.mint(address, Token::ETH, amount);
                        let _ = protocol.deposit(&mut ledger, &mut events, address, Token::ETH, amount);
                    }
                    1 => {
                        // Deposit USDC collateral.
                        let amount = Wad::from_int(magnitude as u64);
                        ledger.mint(address, Token::USDC, amount);
                        let _ = protocol.deposit(&mut ledger, &mut events, address, Token::USDC, amount);
                    }
                    2 => {
                        // Borrow USDC (may exceed capacity and fail: fine).
                        let _ = protocol.borrow(
                            &mut ledger, &mut events, &oracle, block, address,
                            Token::USDC, Wad::from_int(magnitude as u64),
                        );
                    }
                    3 => {
                        // Partial repayment of the outstanding debt.
                        let outstanding = protocol.debt_of(address, Token::USDC);
                        let share = Wad::from_f64((tweak % 999 + 1) as f64 / 1_000.0);
                        let amount = outstanding.checked_mul(share).unwrap_or(Wad::ZERO);
                        if !amount.is_zero() {
                            ledger.mint(address, Token::USDC, amount);
                            let _ = protocol.repay(&mut ledger, &mut events, block, address, Token::USDC, amount);
                        }
                    }
                    4 => {
                        // Price move: ETH swings widely, USDC wobbles.
                        if tweak % 3 == 0 {
                            let wobble = 0.97 + (tweak % 60) as f64 / 1_000.0;
                            oracle.set_price(block, Token::USDC, Wad::from_f64(wobble));
                        } else {
                            let factor = 0.5 + (tweak % 1_000) as f64 / 1_000.0;
                            oracle.set_price(block, Token::ETH, Wad::from_f64(3_000.0 * factor));
                        }
                    }
                    5 => {
                        // A run of consecutive accruals, each checked on the
                        // lazy surfaces only, so index staleness piles up
                        // across them before the full query below.
                        for _ in 0..=(tweak % 4) {
                            block += (tweak % 500) as u64 + 1;
                            protocol.accrue_all(block);
                            lazy_surfaces_match_scratch(&mut protocol, &oracle)?;
                        }
                    }
                    _ => {
                        // Liquidation attempts (close-factor sized). Selector
                        // 7 first crashes ETH so far that every claim exceeds
                        // the ETH held — all of it is seized and the debt
                        // stays behind — and then sweeps every account.
                        let targets = if selector == 7 {
                            oracle.set_price(block, Token::ETH, Wad::from_f64(3_000.0 * 0.02));
                            0..6
                        } else {
                            who..who + 1
                        };
                        for target in targets {
                            let address = account(target);
                            let outstanding = protocol.debt_of(address, Token::USDC);
                            let repay = outstanding
                                .checked_mul(protocol.config().close_factor)
                                .unwrap_or(Wad::ZERO);
                            if !repay.is_zero() {
                                let liquidator = Address::from_seed(9_999);
                                ledger.mint(liquidator, Token::USDC, repay);
                                let _ = protocol.liquidation_call(
                                    &mut ledger, &mut events, &oracle, block,
                                    liquidator, address, Token::USDC, Token::ETH, repay, false,
                                );
                            }
                        }
                    }
                }

                // Cache ≡ from-scratch rebuild, after every single op: the
                // lazy surfaces first, then the full queries that drain.
                lazy_surfaces_match_scratch(&mut protocol, &oracle)?;
                let scratch_book: Vec<_> = protocol
                    .positions(&oracle)
                    .into_iter()
                    .filter(|p| !p.total_debt_value().is_zero())
                    .collect();
                collateral_free |= scratch_book.iter().any(|p| p.collateral.is_empty());
                let scratch_liquidatable = protocol.liquidatable_accounts(&oracle);
                let scratch_total = protocol
                    .positions(&oracle)
                    .iter()
                    .map(|p| p.total_collateral_value())
                    .fold(Wad::ZERO, |acc, v| acc.saturating_add(v));
                prop_assert_eq!(protocol.cached_book(&oracle), scratch_book);
                prop_assert_eq!(protocol.cached_liquidatable_accounts(&oracle), scratch_liquidatable);
                prop_assert_eq!(protocol.total_collateral_value(&oracle), scratch_total);
            }
            if collateral_free {
                COLLATERAL_FREE_CASES.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Maker CDPs: the critical-price index flags exactly the accounts
        /// with HF < 1, and the cached book equals the rebuild.
        #[test]
        fn maker_critical_index_flags_exactly_hf_below_one(
            ops in prop::collection::vec((0u8..6, 0u8..6, 1u32..40_000, 0u16..1_000), 1..40),
        ) {
            let mut maker = maker_protocol();
            let mut ledger = Ledger::new();
            let mut events = Vec::new();
            let mut oracle = PriceOracle::new(OracleConfig::every_update());
            oracle.set_price(0, Token::ETH, Wad::from_int(3_000));
            oracle.set_price(0, Token::DAI, Wad::ONE);
            let mut block: u64 = 1;

            for (selector, who, magnitude, tweak) in ops {
                let owner = account(who);
                block += 1;
                match selector {
                    0 => {
                        let amount = Wad::from_f64(magnitude as f64 / 2_000.0);
                        ledger.mint(owner, Token::ETH, amount);
                        let _ = maker.lock_collateral(&mut ledger, &mut events, owner, Token::ETH, amount);
                    }
                    1 => {
                        let _ = maker.draw_dai(
                            &mut ledger, &mut events, &oracle, owner, Wad::from_int(magnitude as u64),
                        );
                    }
                    2 => {
                        let debt = maker.cdp(owner).map(|c| c.debt).unwrap_or(Wad::ZERO);
                        let share = Wad::from_f64((tweak % 999 + 1) as f64 / 1_000.0);
                        let amount = debt.checked_mul(share).unwrap_or(Wad::ZERO);
                        if !amount.is_zero() {
                            ledger.mint(owner, Token::DAI, amount);
                            let _ = maker.repay_dai(&mut ledger, &mut events, owner, amount);
                        }
                    }
                    3 => {
                        let factor = 0.4 + (tweak % 1_200) as f64 / 1_000.0;
                        oracle.set_price(block, Token::ETH, Wad::from_f64(3_000.0 * factor));
                    }
                    4 => {
                        let _ = maker.free_collateral(
                            &mut ledger, &oracle, owner, Wad::from_f64(magnitude as f64 / 20_000.0),
                        );
                    }
                    _ => {
                        let _ = maker.bite(&mut events, &oracle, block, owner);
                    }
                }

                // The index flags exactly the CDPs whose generic-position
                // health factor is below 1 (PR 3 made HF < 1 coincide with
                // the bite condition), and the cached book is byte-identical
                // to the from-scratch rebuild.
                let hf_below_one: Vec<Address> = maker
                    .positions(&oracle)
                    .into_iter()
                    .filter(|p| p.is_liquidatable())
                    .map(|p| p.owner)
                    .collect();
                let scratch_bite = maker.liquidatable_cdps(&oracle);
                prop_assert_eq!(&scratch_bite, &hf_below_one);
                prop_assert_eq!(maker.cached_liquidatable_cdps(&oracle), scratch_bite);
                prop_assert_eq!(maker.cached_book(&oracle), maker.positions(&oracle));
            }
        }

        /// Maker: critical-price entries never consult the oracle for their
        /// liquidation verdict, so every price-stale walk of a valued CDP
        /// must be served by the term path — on every move of a random
        /// sequence, byte-identically to the rebuild.
        #[test]
        fn maker_term_cache_is_exact_under_oracle_moves(
            moves in prop::collection::vec(0u16..1_000, 1..25),
        ) {
            let mut maker = maker_protocol();
            let mut ledger = Ledger::new();
            let mut events = Vec::new();
            let mut oracle = PriceOracle::new(OracleConfig::every_update());
            oracle.set_price(0, Token::ETH, Wad::from_int(3_000));
            oracle.set_price(0, Token::DAI, Wad::ONE);
            for i in 0..6u64 {
                let owner = Address::from_seed(7_200 + i);
                ledger.mint(owner, Token::ETH, Wad::from_int(10));
                maker
                    .lock_collateral(&mut ledger, &mut events, owner, Token::ETH, Wad::from_int(10))
                    .unwrap();
                maker
                    .draw_dai(&mut ledger, &mut events, &oracle, owner, Wad::from_int(5_000 + i * 2_000))
                    .unwrap();
            }
            // Prime the book so every CDP is valued and non-dirty.
            let _ = maker.cached_book(&oracle);

            let mut block = 1u64;
            for tweak in moves {
                block += 1;
                let factor = 0.4 + (tweak % 1_200) as f64 / 1_000.0;
                oracle.set_price(block, Token::ETH, Wad::from_f64(3_000.0 * factor));
                let before = maker.book_stats().term_reprices;
                prop_assert_eq!(maker.cached_book(&oracle), maker.positions(&oracle));
                prop_assert_eq!(maker.cached_liquidatable_cdps(&oracle), maker.liquidatable_cdps(&oracle));
                prop_assert!(maker.book_stats().term_reprices > before);
            }
        }
    }

    /// Driving the engine through the object-safe trait keeps the cached
    /// discovery surface consistent with the reference paths too.
    #[test]
    fn trait_surface_serves_cached_results() {
        let mut protocol: Box<dyn LendingProtocol> = Box::new(compound());
        let mut ledger = Ledger::new();
        let mut events = Vec::new();
        let mut oracle = PriceOracle::new(OracleConfig::every_update());
        oracle.set_price(0, Token::ETH, Wad::from_int(3_000));
        oracle.set_price(0, Token::USDC, Wad::ONE);
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
        ledger.mint(borrower, Token::ETH, Wad::from_int(5));
        protocol
            .deposit(
                &mut ledger,
                &mut events,
                borrower,
                Token::ETH,
                Wad::from_int(5),
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
                Wad::from_int(11_000),
            )
            .unwrap();

        // Volume totals from the default (rebuild) path and the cached path
        // must agree.
        let positions = protocol.book_positions(&oracle);
        let totals = protocol.book_totals(&oracle);
        let fold = positions
            .iter()
            .map(|p| p.total_collateral_value())
            .fold(Wad::ZERO, |acc, v| acc.saturating_add(v));
        assert_eq!(totals.collateral_usd, fold);
        assert_eq!(totals.open_positions as usize, positions.len());

        // for_each_position visits the same book in the same order.
        let mut walked = Vec::new();
        protocol.for_each_position(&oracle, &mut |p| walked.push(p.clone()));
        assert_eq!(walked, positions);

        oracle.set_price(2, Token::ETH, Wad::from_int(2_000));
        let opportunities = protocol.liquidatable(&oracle);
        assert_eq!(opportunities.len(), 1);
        assert_eq!(opportunities[0].borrower, borrower);
        // The opportunity snapshot is the fresh valuation.
        assert_eq!(
            opportunities[0].position,
            protocol.position(&oracle, borrower).unwrap()
        );
    }
}

// ---------------------------------------------------------------------------
// Behavioural agent layer (PR 10): population sampling is a pure function of
// (seed, identity) — platform iteration order and prior draws cannot change
// who gets sampled — and `+`-composed
// catalog scenarios are tick-for-tick equal to their hand-built equivalents.
// ---------------------------------------------------------------------------

mod behavioral_agents {
    use defi_liquidations_suite::sim::agents::{
        sample_borrower, sample_keepers, sample_liquidators,
    };
    use defi_liquidations_suite::sim::scenarios::liquidation_spiral;
    use defi_liquidations_suite::sim::{ScenarioCatalog, SimConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sampling the same identity twice — or with the platform list
        /// walked in the opposite order — yields byte-identical agents for
        /// any seed.
        #[test]
        fn agent_sampling_is_order_independent(seed in 0u64..u64::MAX) {
            let config = SimConfig::smoke_test(seed ^ 1);
            let sample_platform = |p: &_| {
                let borrowers: Vec<_> =
                    (0..4u64).map(|i| sample_borrower(seed, p, i, 0.2)).collect();
                (sample_liquidators(seed, p, 0.3, 0.1, 3), borrowers)
            };
            let forward: Vec<_> = config.populations.iter().map(sample_platform).collect();
            let mut reverse: Vec<_> =
                config.populations.iter().rev().map(sample_platform).collect();
            reverse.reverse();
            prop_assert_eq!(forward, reverse);
            prop_assert_eq!(
                sample_keepers(seed, 6, 0.3, 3),
                sample_keepers(seed, 6, 0.3, 3)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The compose path is exact: `"liquidation-spiral"` reached through
        /// a `+` composition with the identity entry advances tick-for-tick
        /// like the hand-built spiral constructor, with the same config
        /// adjustments.
        #[test]
        fn composed_scenarios_match_hand_built(seed in 0u64..1_000_000) {
            let catalog = ScenarioCatalog::standard();
            let mut composed_config = SimConfig::smoke_test(seed);
            let mut composed = catalog
                .build("paper-two-year+liquidation-spiral", &mut composed_config)
                .unwrap();
            let mut hand_config = SimConfig::smoke_test(seed);
            let mut hand = liquidation_spiral(&mut hand_config, true);
            for block in (9_500_000u64..9_700_000).step_by(25_000) {
                prop_assert_eq!(composed.advance(block), hand.advance(block));
            }
            prop_assert_eq!(
                composed_config.flash_loan_probability,
                hand_config.flash_loan_probability
            );
        }
    }
}
