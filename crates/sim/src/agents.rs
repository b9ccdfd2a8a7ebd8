//! Agent types: borrowers, fixed-spread liquidators and Maker keepers.
//!
//! Agents are parameter bundles; the behavioural logic lives in
//! [`crate::engine`] and [`crate::behavior`]. Populations are sampled
//! deterministically from the scenario seed so a simulation run is fully
//! reproducible — and *order-independently*: every sampling function derives
//! its own RNG from `(seed, role, platform[, index])`, so the agents a
//! platform gets do not depend on which other platforms are registered or in
//! what order the populations are listed. The property tests pin this down.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};

use defi_types::{Address, Platform, Token};

use crate::config::PlatformPopulation;

/// Role tags mixed into the derived sampling seeds so the borrower,
/// liquidator and keeper streams never alias each other.
const TAG_BORROWER: u64 = 0xB0B0_0001;
const TAG_LIQUIDATOR: u64 = 0x11C0_0002;
const TAG_KEEPER: u64 = 0x4EE9_0003;

/// Derive an independent RNG seed from the run seed, a role tag and a salt
/// (platform, index, …) with a splitmix64-style finaliser. Pure function of
/// its inputs, so sampling is insensitive to call order.
pub(crate) fn derive_seed(seed: u64, tag: u64, salt: u64) -> u64 {
    let mut z =
        seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn derived_rng(seed: u64, tag: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, tag, salt))
}

/// A borrower with a (possibly multi-asset) collateral basket and one debt token.
#[derive(Debug, Clone, PartialEq)]
pub struct BorrowerAgent {
    /// On-chain identity.
    pub address: Address,
    /// Platform the borrower uses.
    pub platform: Platform,
    /// Collateral tokens (one or two entries).
    pub collateral_tokens: Vec<Token>,
    /// Token borrowed.
    pub debt_token: Token,
    /// Initial collateral value in USD.
    pub collateral_value_usd: f64,
    /// Target collateralization ratio at opening (collateral / debt).
    pub target_collateralization: f64,
    /// Whether the borrower actively tops up / repays when the position nears
    /// liquidation.
    pub active_manager: bool,
    /// Whether the borrower panic-exits (deleverages hard, selling assets
    /// into the market) when their health factor or the market drops past the
    /// behavioural thresholds. Only acted on when the
    /// [`BehaviorConfig`](crate::BehaviorConfig) layer is enabled.
    pub panic_exiter: bool,
}

/// A liquidation bot watching one or more fixed-spread platforms.
#[derive(Debug, Clone, PartialEq)]
pub struct LiquidatorAgent {
    /// On-chain identity (the paper counts liquidators by unique address).
    pub address: Address,
    /// Platforms this bot watches ("some liquidators operate on multiple
    /// lending markets", Table 1).
    pub platforms: Vec<Platform>,
    /// Gas-price aggressiveness: fraction above the block median the bot bids.
    pub gas_aggressiveness: f64,
    /// Whether the bot keeps a stale gas price under congestion (the March
    /// 2020 failure mode) instead of re-bidding.
    pub stale_under_congestion: bool,
    /// Whether the bot funds liquidations with flash loans (§4.4.4).
    pub uses_flash_loans: bool,
    /// Which flash-loan pool the bot prefers (dYdX is cheaper, Table 4).
    pub flash_loan_pool: Platform,
    /// Reaction latency, in ticks: under the behavioural layer a discovered
    /// opportunity becomes executable for this bot only after this many ticks
    /// have elapsed since discovery.
    pub latency_ticks: u64,
}

/// A MakerDAO keeper participating in tend–dent auctions.
#[derive(Debug, Clone, PartialEq)]
pub struct KeeperAgent {
    /// On-chain identity.
    pub address: Address,
    /// Profit margin the keeper insists on (fraction of collateral value).
    pub target_margin: f64,
    /// Whether the keeper's bot fails to rebid under congestion.
    pub stale_under_congestion: bool,
    /// Whether the keeper opportunistically places near-zero bids on
    /// abandoned auctions during congestion (the March 2020 "zero-bid" wins).
    pub opportunistic_sniper: bool,
    /// Reaction latency, in ticks, before this keeper bites a discovered
    /// underwater vault (behavioural layer only).
    pub latency_ticks: u64,
}

/// Sample a borrower for a platform population. Pure function of
/// `(seed, platform, index)`: the derived RNG makes the bundle independent of
/// how many borrowers other platforms spawned before this one.
pub fn sample_borrower(
    seed: u64,
    population: &PlatformPopulation,
    index: u64,
    panic_share: f64,
) -> BorrowerAgent {
    let platform = population.platform;
    let rng = &mut derived_rng(seed, TAG_BORROWER, ((platform as u64) << 32) | index);
    let address = Address::from_seed(0x1000_0000_0000 + ((platform as u64) << 32) + index);
    let eth_heavy = rng.gen_bool(0.5);
    let lognormal = LogNormal::new(
        population.median_collateral_usd.max(1.0).ln(),
        population.collateral_sigma,
    )
    .expect("valid lognormal");
    let collateral_value_usd = lognormal.sample(rng).clamp(1_000.0, 500_000_000.0);

    let stable_borrower = rng.gen_bool(population.stablecoin_borrower_share.clamp(0.0, 1.0));
    let multi = rng.gen_bool(population.multi_collateral_share.clamp(0.0, 1.0));

    let (collateral_tokens, debt_token) = match population.platform {
        Platform::MakerDao => {
            // CDPs: mostly ETH, some WBTC/alts; always DAI debt.
            let token = if rng.gen_bool(0.75) || eth_heavy {
                Token::ETH
            } else if rng.gen_bool(0.5) {
                Token::WBTC
            } else {
                *[Token::LINK, Token::BAT, Token::UNI]
                    .get(rng.gen_range(0..3usize))
                    .unwrap_or(&Token::ETH)
            };
            (vec![token], Token::DAI)
        }
        Platform::DyDx => {
            // dYdX only lists ETH, USDC, DAI.
            if stable_borrower {
                (vec![Token::USDC], Token::DAI)
            } else {
                let debt = if rng.gen_bool(0.6) {
                    Token::DAI
                } else {
                    Token::USDC
                };
                (vec![Token::ETH], debt)
            }
        }
        _ => {
            if stable_borrower {
                (vec![Token::USDC], Token::DAI)
            } else {
                let primary = if rng.gen_bool(0.70) || eth_heavy {
                    Token::ETH
                } else if rng.gen_bool(0.5) {
                    Token::WBTC
                } else {
                    *[Token::LINK, Token::UNI, Token::BAT, Token::ZRX, Token::MKR]
                        .get(rng.gen_range(0..5usize))
                        .unwrap_or(&Token::ETH)
                };
                let mut collateral = vec![primary];
                if multi {
                    let secondary = if primary == Token::ETH {
                        Token::USDC
                    } else {
                        Token::ETH
                    };
                    collateral.push(secondary);
                }
                let debt = match rng.gen_range(0..10) {
                    0..=5 => Token::DAI,
                    6..=8 => Token::USDC,
                    _ => Token::USDT,
                };
                (collateral, debt)
            }
        }
    };

    // Riskier borrowers sit closer to the liquidation boundary; the low end
    // of the multiplier produces positions that open just under their
    // borrowing capacity, the cohort that liquidations feed on.
    let target_collateralization = population.target_collateralization * rng.gen_range(0.80..1.40);
    BorrowerAgent {
        address,
        platform: population.platform,
        collateral_tokens,
        debt_token,
        collateral_value_usd,
        target_collateralization,
        active_manager: rng.gen_bool(population.active_manager_share.clamp(0.0, 1.0)),
        panic_exiter: rng.gen_bool(panic_share.clamp(0.0, 1.0)),
    }
}

/// Sample the liquidator population for a platform. Pure function of
/// `(seed, platform)` — the same platform always gets the same bots no matter
/// what else is registered.
pub fn sample_liquidators(
    seed: u64,
    population: &PlatformPopulation,
    stale_share: f64,
    flash_loan_probability: f64,
    max_latency_ticks: u64,
) -> Vec<LiquidatorAgent> {
    let rng = &mut derived_rng(seed, TAG_LIQUIDATOR, population.platform as u64);
    (0..population.liquidator_count)
        .map(|i| {
            let address = Address::from_seed(
                0x2000_0000_0000 + ((population.platform as u64) << 24) + i as u64,
            );
            // A minority of bots watch several platforms (Table 1 note).
            let platforms = if i % 4 == 0 && population.platform != Platform::MakerDao {
                vec![population.platform, Platform::Compound, Platform::AaveV1]
            } else {
                vec![population.platform]
            };
            LiquidatorAgent {
                address,
                platforms,
                gas_aggressiveness: rng.gen_range(0.05..1.2),
                stale_under_congestion: rng.gen_bool(stale_share.clamp(0.0, 1.0)),
                uses_flash_loans: rng.gen_bool((flash_loan_probability * 8.0).clamp(0.0, 1.0)),
                flash_loan_pool: if rng.gen_bool(0.7) {
                    Platform::DyDx
                } else {
                    Platform::AaveV2
                },
                latency_ticks: rng.gen_range(0..max_latency_ticks.saturating_add(1)),
            }
        })
        .collect()
}

/// Sample the keeper population for MakerDAO. Pure function of `(seed,
/// count)` — keepers are a single global population.
pub fn sample_keepers(
    seed: u64,
    count: usize,
    stale_share: f64,
    max_latency_ticks: u64,
) -> Vec<KeeperAgent> {
    let rng = &mut derived_rng(seed, TAG_KEEPER, count as u64);
    (0..count.max(2))
        .map(|i| KeeperAgent {
            address: Address::from_seed(0x3000_0000_0000 + i as u64),
            target_margin: rng.gen_range(0.01..0.06),
            stale_under_congestion: i != 0 && rng.gen_bool(stale_share.clamp(0.0, 1.0) * 1.5),
            // Exactly one opportunistic sniper exists in the population,
            // mirroring the handful of actors who captured the March 2020
            // zero-bid auctions.
            opportunistic_sniper: i == 0,
            latency_ticks: rng.gen_range(0..max_latency_ticks.saturating_add(1)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    #[test]
    fn borrower_sampling_respects_platform_listings() {
        let config = SimConfig::paper_default(1);
        for population in &config.populations {
            for i in 0..200 {
                let borrower = sample_borrower(7, population, i, 0.2);
                assert!(!borrower.collateral_tokens.is_empty());
                assert!(borrower.collateral_value_usd >= 1_000.0);
                match population.platform {
                    Platform::MakerDao => {
                        assert_eq!(borrower.debt_token, Token::DAI);
                        assert_eq!(borrower.collateral_tokens.len(), 1);
                    }
                    Platform::DyDx => {
                        for t in &borrower.collateral_tokens {
                            assert!(matches!(t, Token::ETH | Token::USDC | Token::DAI));
                        }
                        assert!(matches!(borrower.debt_token, Token::DAI | Token::USDC));
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn liquidator_sampling_produces_requested_count() {
        let config = SimConfig::paper_default(1);
        let population = config.population(Platform::Compound).unwrap();
        let liquidators = sample_liquidators(7, population, 0.3, 0.05, 3);
        assert_eq!(liquidators.len(), population.liquidator_count);
        assert!(liquidators.iter().any(|l| l.platforms.len() > 1));
        assert!(liquidators.iter().all(|l| l.latency_ticks <= 3));
    }

    #[test]
    fn keepers_include_exactly_one_sniper() {
        let keepers = sample_keepers(7, 6, 0.3, 2);
        assert_eq!(keepers.iter().filter(|k| k.opportunistic_sniper).count(), 1);
        assert!(keepers.len() >= 2);
    }

    #[test]
    fn borrower_addresses_are_unique_within_platform() {
        let config = SimConfig::paper_default(1);
        let population = config.population(Platform::Compound).unwrap();
        let mut addresses = std::collections::HashSet::new();
        for i in 0..500 {
            let b = sample_borrower(7, population, i, 0.2);
            assert!(addresses.insert(b.address), "duplicate address at {i}");
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_identity() {
        let config = SimConfig::paper_default(3);
        let population = config.population(Platform::AaveV2).unwrap();
        // Recomputing any borrower in any order yields the same bundle.
        let direct = sample_borrower(3, population, 17, 0.2);
        for i in (0..30).rev() {
            let _ = sample_borrower(3, population, i, 0.2);
        }
        assert_eq!(direct, sample_borrower(3, population, 17, 0.2));
        // Platform populations are independent of sampling order.
        let forward: Vec<_> = config
            .populations
            .iter()
            .map(|p| sample_liquidators(3, p, 0.3, 0.05, 3))
            .collect();
        let reverse: Vec<_> = config
            .populations
            .iter()
            .rev()
            .map(|p| sample_liquidators(3, p, 0.3, 0.05, 3))
            .collect();
        for (f, r) in forward.iter().zip(reverse.iter().rev()) {
            assert_eq!(f, r);
        }
    }
}
