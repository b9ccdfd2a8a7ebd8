//! Offline stand-in for the `rand_distr` crate (0.4 API subset).
//!
//! Implements the two distributions the workspace samples — [`Normal`]
//! (Box–Muller) and [`LogNormal`] (exp of a normal) — over the vendored
//! [`rand`] stub.

use rand::Rng;

/// Sampling interface, mirroring `rand_distr::Distribution`.
pub trait Distribution<T> {
    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Parameter error, mirroring `rand_distr::NormalError` et al.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter")
    }
}

impl std::error::Error for Error {}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller; u is nudged away from 0 so ln(u) is finite.
    let u = (rng.gen_f64()).max(f64::MIN_POSITIVE);
    let v = rng.gen_f64();
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

/// Normal distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// A normal distribution; `std_dev` must be finite and non-negative.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, Error> {
        if !mean.is_finite() || !std_dev.is_finite() || std_dev < 0.0 {
            return Err(Error);
        }
        Ok(Normal { mean, std_dev })
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// A log-normal with the given location/scale of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, Error> {
        Ok(LogNormal {
            norm: Normal::new(mu, sigma)?,
        })
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.norm.sample(rng).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(1);
        let normal = Normal::new(5.0, 2.0).unwrap();
        let samples: Vec<f64> = (0..20_000).map(|_| normal.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_ok()); // degenerate but accepted
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        let dist = LogNormal::new(10.0, 1.5).unwrap();
        for _ in 0..1_000 {
            assert!(dist.sample(&mut rng) > 0.0);
        }
    }
}
