//! Latency distributions used by the calibrated cost models.
//!
//! Components of the simulated substrate (hotplug scripts, SD-card reads,
//! the Figure 8 datapath, …) express a per-operation cost that varies as a
//! [`Distribution`] over durations. Experiments draw from these using a
//! seeded [`SimRng`], keeping results deterministic.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A distribution over non-negative durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Normal distribution, truncated at zero.
    Normal {
        /// Mean duration.
        mean: SimDuration,
        /// Standard deviation.
        std_dev: SimDuration,
    },
    /// Log-normal distribution parameterised directly by the *target*
    /// median and a multiplicative spread factor (sigma of the underlying
    /// normal, in natural-log units).
    LogNormal {
        /// Median duration.
        median: SimDuration,
        /// Spread (sigma of underlying normal).
        sigma: f64,
    },
    /// Exponential distribution with the given mean.
    Exponential {
        /// Mean duration.
        mean: SimDuration,
    },
}

impl Distribution {
    /// Draw one sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            Distribution::Normal { mean, std_dev } => {
                let x = rng.normal(mean.as_secs_f64(), std_dev.as_secs_f64());
                SimDuration::from_secs_f64(x.max(0.0))
            }
            Distribution::LogNormal { median, sigma } => {
                let mu = median.as_secs_f64().max(1e-12).ln();
                let x = rng.log_normal(mu, sigma.max(0.0));
                SimDuration::from_secs_f64(x)
            }
            Distribution::Exponential { mean } => {
                SimDuration::from_secs_f64(rng.exponential(mean.as_secs_f64()))
            }
        }
    }

    /// The analytic mean of the distribution.
    pub fn mean(&self) -> SimDuration {
        match self {
            Distribution::Normal { mean, .. } => *mean,
            Distribution::LogNormal { median, sigma } => {
                SimDuration::from_secs_f64(median.as_secs_f64() * (sigma * sigma / 2.0).exp())
            }
            Distribution::Exponential { mean } => *mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0xdead_beef)
    }

    fn ms(ms: f64) -> SimDuration {
        SimDuration::from_millis_f64(ms)
    }

    fn normal(mean: f64, std_dev: f64) -> Distribution {
        Distribution::Normal {
            mean: ms(mean),
            std_dev: ms(std_dev),
        }
    }

    fn sample_n(d: &Distribution, rng: &mut SimRng, n: usize) -> Vec<SimDuration> {
        (0..n).map(|_| d.sample(rng)).collect()
    }

    #[test]
    fn normal_truncated_at_zero() {
        let d = normal(1.0, 10.0);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r).as_secs_f64() >= 0.0);
        }
    }

    #[test]
    fn normal_sample_mean_close() {
        let d = normal(100.0, 5.0);
        let mut r = rng();
        let n = 5_000;
        let mean = sample_n(&d, &mut r, n)
            .iter()
            .map(|x| x.as_millis_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn lognormal_median_close() {
        let d = Distribution::LogNormal {
            median: SimDuration::from_millis(50),
            sigma: 0.3,
        };
        let mut r = rng();
        let mut samples: Vec<f64> = sample_n(&d, &mut r, 4_001)
            .iter()
            .map(|x| x.as_millis_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 50.0).abs() < 3.0, "median={median}");
        assert!(d.mean() > SimDuration::from_millis(50));
    }

    #[test]
    fn exponential_mean_close() {
        let d = Distribution::Exponential {
            mean: SimDuration::from_millis(10),
        };
        let mut r = rng();
        let n = 10_000;
        let mean = sample_n(&d, &mut r, n)
            .iter()
            .map(|x| x.as_millis_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = normal(10.0, 2.0);
        let mut r1 = SimRng::seed_from_u64(99);
        let mut r2 = SimRng::seed_from_u64(99);
        assert_eq!(sample_n(&d, &mut r1, 50), sample_n(&d, &mut r2, 50));
    }
}
