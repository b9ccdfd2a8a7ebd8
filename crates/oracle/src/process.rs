//! Stochastic price processes.
//!
//! Each token's USD price evolves under one of two regimes:
//!
//! * **GBM** (geometric Brownian motion) — the default for volatile crypto
//!   assets; drift and volatility are quoted per year and scaled to the tick
//!   length in blocks.
//! * **Peg** — an Ornstein–Uhlenbeck-style mean reversion around 1 USD for
//!   stablecoins, with occasional deviation episodes (the paper measures DAI
//!   trading up to 11.1 % away from USDC, §4.5.2).
//!
//! On top of the stochastic component, [`ScheduledShock`]s apply scripted
//! relative price moves at specific blocks — this is how the 13 March 2020
//! −43 % ETH crash and the November 2020 Compound DAI oracle irregularity are
//! reproduced deterministically.

use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, Normal};

use defi_types::BlockNumber;

/// Blocks per year under the ~13.5 s block time of the study window; used to
/// scale annualised drift/volatility to per-tick quantities.
pub const BLOCKS_PER_YEAR: f64 = 2_336_000.0;

/// Geometric Brownian motion parameters (annualised).
#[derive(Debug, Clone, Copy)]
pub struct GbmParams {
    /// Annualised drift (e.g. 1.5 = +150 %/year — crypto bull market).
    pub drift: f64,
    /// Annualised volatility (e.g. 0.9 = 90 %).
    pub volatility: f64,
}

impl GbmParams {
    /// Typical large-cap crypto asset during the study window.
    pub fn crypto_default() -> Self {
        GbmParams {
            drift: 1.10,
            volatility: 0.95,
        }
    }

    /// A calmer large-cap (BTC-like) profile.
    pub fn bluechip() -> Self {
        GbmParams {
            drift: 0.95,
            volatility: 0.75,
        }
    }
}

/// Stablecoin peg parameters.
#[derive(Debug, Clone, Copy)]
pub struct PegParams {
    /// Target price (1.0 for USD-pegged coins).
    pub target: f64,
    /// Mean-reversion speed per tick fraction of a year (higher = tighter peg).
    pub reversion: f64,
    /// Per-tick noise standard deviation (absolute USD).
    pub noise: f64,
    /// Maximum absolute deviation the process will allow (safety clamp).
    pub max_deviation: f64,
}

impl PegParams {
    /// A well-collateralised stablecoin (USDC/USDT-like, ±0.5 %).
    pub fn tight() -> Self {
        PegParams {
            target: 1.0,
            reversion: 0.15,
            noise: 0.001,
            max_deviation: 0.02,
        }
    }

    /// A looser, loan-backed stablecoin (DAI-like, occasionally several %).
    pub fn loose() -> Self {
        PegParams {
            target: 1.0,
            reversion: 0.05,
            noise: 0.003,
            max_deviation: 0.12,
        }
    }
}

/// A scripted relative price move applied at a specific block.
///
/// `magnitude` is the relative change: `-0.43` reproduces the 13 March 2020
/// ETH crash, `+0.30` the irregular DAI price spike on Compound's oracle.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledShock {
    /// Block at which the shock applies (the first tick at or after it).
    pub block: BlockNumber,
    /// Relative price change, e.g. `-0.43` for a 43 % decline.
    pub magnitude: f64,
    /// If true the shock decays back towards the pre-shock trend over
    /// `recovery_blocks`; if false it is permanent (a level shift).
    pub transient: bool,
    /// Number of blocks over which a transient shock decays.
    pub recovery_blocks: u64,
}

impl ScheduledShock {
    /// A permanent level shift.
    pub fn permanent(block: BlockNumber, magnitude: f64) -> Self {
        ScheduledShock {
            block,
            magnitude,
            transient: false,
            recovery_blocks: 0,
        }
    }

    /// A transient shock that decays over `recovery_blocks`.
    pub fn transient(block: BlockNumber, magnitude: f64, recovery_blocks: u64) -> Self {
        ScheduledShock {
            block,
            magnitude,
            transient: true,
            recovery_blocks,
        }
    }
}

/// The price dynamics of one token.
#[derive(Debug, Clone)]
pub enum PriceProcess {
    /// Geometric Brownian motion.
    Gbm(GbmParams),
    /// Mean-reverting stablecoin peg.
    Peg(PegParams),
    /// Price never moves (useful in unit tests and controlled experiments).
    Constant,
}

impl PriceProcess {
    /// Evolve a price over `dt_blocks` blocks starting from `price`,
    /// *excluding* scripted shocks (the [`super::scenario::MarketScenario`]
    /// applies those on top).
    pub fn step(&self, price: f64, dt_blocks: u64, rng: &mut StdRng) -> f64 {
        let dt = dt_blocks as f64 / BLOCKS_PER_YEAR;
        match self {
            PriceProcess::Constant => price,
            PriceProcess::Gbm(p) => gbm_step(price, p, dt, rng),
            PriceProcess::Peg(p) => {
                let noise: f64 = Normal::new(0.0, p.noise)
                    .map(|d| d.sample(rng))
                    .unwrap_or(0.0);
                // Scale reversion with the tick length so longer ticks revert more.
                let pull = (p.reversion * dt_blocks as f64 / 1_000.0).min(1.0);
                let next = price + pull * (p.target - price) + noise;
                next.clamp(p.target - p.max_deviation, p.target + p.max_deviation)
            }
        }
    }
}

fn gbm_step(price: f64, params: &GbmParams, dt: f64, rng: &mut StdRng) -> f64 {
    if dt <= 0.0 {
        return price;
    }
    let z: f64 = Normal::new(0.0, 1.0).map(|d| d.sample(rng)).unwrap_or(0.0);
    let drift_term = (params.drift - 0.5 * params.volatility * params.volatility) * dt;
    let diffusion = params.volatility * dt.sqrt() * z;
    (price * (drift_term + diffusion).exp()).max(1e-12)
}

/// Deterministic multiplicative factor contributed by a set of shocks at a
/// given block (1.0 = no effect). Transient shocks decay exponentially back
/// to 1 over their recovery window.
pub fn shock_factor(
    shocks: &[ScheduledShock],
    previous_block: BlockNumber,
    block: BlockNumber,
) -> f64 {
    let mut factor = 1.0;
    for shock in shocks {
        if shock.block > previous_block && shock.block <= block {
            // Shock fires on this tick.
            factor *= 1.0 + shock.magnitude;
        } else if shock.transient && block > shock.block {
            // Recovery phase: undo a slice of the shock proportional to the
            // fraction of the recovery window this tick covers.
            let since = block - shock.block;
            if since <= shock.recovery_blocks && shock.recovery_blocks > 0 {
                let span = (block - previous_block.max(shock.block)) as f64;
                let per_block_recovery =
                    (1.0 / (1.0 + shock.magnitude)).powf(1.0 / shock.recovery_blocks as f64);
                factor *= per_block_recovery.powf(span);
            }
        }
    }
    factor
}

/// Convenience helper used in tests and agents: sample a uniform value in
/// `[low, high)` from the scenario RNG.
pub fn uniform(rng: &mut StdRng, low: f64, high: f64) -> f64 {
    if high <= low {
        return low;
    }
    rng.gen_range(low..high)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_process_never_moves() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(PriceProcess::Constant.step(123.0, 1000, &mut rng), 123.0);
    }

    #[test]
    fn gbm_stays_positive_and_is_deterministic() {
        let p = PriceProcess::Gbm(GbmParams::crypto_default());
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut price_a = 170.0;
        let mut price_b = 170.0;
        for _ in 0..1_000 {
            price_a = p.step(price_a, 100, &mut a);
            price_b = p.step(price_b, 100, &mut b);
            assert!(price_a > 0.0);
        }
        assert_eq!(price_a, price_b);
    }

    #[test]
    fn gbm_drift_moves_mean_upwards() {
        let p = PriceProcess::Gbm(GbmParams {
            drift: 2.0,
            volatility: 0.3,
        });
        let mut total = 0.0;
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut price = 100.0;
            // One year of 10k-block ticks.
            for _ in 0..((BLOCKS_PER_YEAR / 10_000.0) as usize) {
                price = p.step(price, 10_000, &mut rng);
            }
            total += price;
        }
        let mean = total / 50.0;
        assert!(
            mean > 300.0,
            "drift of +200%/y should lift the mean price, got {mean}"
        );
    }

    #[test]
    fn peg_process_stays_near_target() {
        let p = PriceProcess::Peg(PegParams::tight());
        let mut rng = StdRng::seed_from_u64(3);
        let mut price = 1.0;
        for _ in 0..10_000 {
            price = p.step(price, 40, &mut rng);
            assert!((price - 1.0).abs() <= 0.02 + 1e-9);
        }
    }

    #[test]
    fn loose_peg_allows_larger_deviation_than_tight() {
        let tight = PriceProcess::Peg(PegParams::tight());
        let loose = PriceProcess::Peg(PegParams::loose());
        let mut rng_t = StdRng::seed_from_u64(11);
        let mut rng_l = StdRng::seed_from_u64(11);
        let (mut p_t, mut p_l) = (1.0, 1.0);
        let (mut max_t, mut max_l) = (0.0f64, 0.0f64);
        for _ in 0..20_000 {
            p_t = tight.step(p_t, 40, &mut rng_t);
            p_l = loose.step(p_l, 40, &mut rng_l);
            max_t = max_t.max((p_t - 1.0).abs());
            max_l = max_l.max((p_l - 1.0).abs());
        }
        assert!(max_l > max_t);
    }

    #[test]
    fn shock_fires_once_between_ticks() {
        let shocks = vec![ScheduledShock::permanent(100, -0.43)];
        assert!((shock_factor(&shocks, 90, 99) - 1.0).abs() < 1e-12);
        assert!((shock_factor(&shocks, 99, 101) - 0.57).abs() < 1e-12);
        // Already applied; does not fire again.
        assert!((shock_factor(&shocks, 101, 110) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transient_shock_recovers() {
        let shocks = vec![ScheduledShock::transient(100, -0.40, 1_000)];
        // Apply the shock.
        let hit = shock_factor(&shocks, 99, 100);
        assert!((hit - 0.60).abs() < 1e-12);
        // Accumulate recovery over the window.
        let mut level = 0.60;
        let mut prev = 100;
        for block in (200..=1_100).step_by(100) {
            level *= shock_factor(&shocks, prev, block);
            prev = block;
        }
        assert!(
            (level - 1.0).abs() < 0.05,
            "should recover close to 1.0, got {level}"
        );
    }
}
