//! Latency distributions used by the calibrated cost models.
//!
//! Components of the simulated substrate (domain builder, hotplug scripts,
//! SD-card reads, network links, …) express their per-operation cost as a
//! [`Distribution`] over durations. Experiments draw from these using a
//! seeded [`SimRng`], keeping results deterministic.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A distribution over non-negative durations.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Always the same value.
    Constant(SimDuration),
    /// Uniform between two bounds (inclusive of the lower bound).
    Uniform {
        /// Lower bound.
        lo: SimDuration,
        /// Upper bound.
        hi: SimDuration,
    },
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
    /// Empirical distribution: sample uniformly from recorded values.
    Empirical(Vec<SimDuration>),
    /// A base distribution plus a constant offset — convenient for
    /// "fixed cost + jitter" models.
    Shifted {
        /// Constant offset added to every sample.
        offset: SimDuration,
        /// The underlying distribution.
        base: Box<Distribution>,
    },
    /// A base distribution scaled by a constant factor — used for the
    /// ARM-vs-x86 CPU speed ratio.
    Scaled {
        /// Multiplicative factor applied to every sample.
        factor: f64,
        /// The underlying distribution.
        base: Box<Distribution>,
    },
}

impl Distribution {
    /// Draw one sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            Distribution::Constant(d) => *d,
            Distribution::Uniform { lo, hi } => {
                let x = rng.uniform(lo.as_secs_f64(), hi.as_secs_f64());
                SimDuration::from_secs_f64(x)
            }
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
            Distribution::Empirical(values) => {
                rng.choose(values).copied().unwrap_or(SimDuration::ZERO)
            }
            Distribution::Shifted { offset, base } => *offset + base.sample(rng),
            Distribution::Scaled { factor, base } => base.sample(rng).mul_f64(*factor),
        }
    }

    /// The analytic mean of the distribution where it has a closed form;
    /// empirical distributions return their sample mean.
    pub fn mean(&self) -> SimDuration {
        match self {
            Distribution::Constant(d) => *d,
            Distribution::Uniform { lo, hi } => {
                SimDuration::from_secs_f64((lo.as_secs_f64() + hi.as_secs_f64()) / 2.0)
            }
            Distribution::Normal { mean, .. } => *mean,
            Distribution::LogNormal { median, sigma } => {
                SimDuration::from_secs_f64(median.as_secs_f64() * (sigma * sigma / 2.0).exp())
            }
            Distribution::Exponential { mean } => *mean,
            Distribution::Empirical(values) => {
                if values.is_empty() {
                    SimDuration::ZERO
                } else {
                    let total: f64 = values.iter().map(|d| d.as_secs_f64()).sum();
                    SimDuration::from_secs_f64(total / values.len() as f64)
                }
            }
            Distribution::Shifted { offset, base } => *offset + base.mean(),
            Distribution::Scaled { factor, base } => base.mean().mul_f64(*factor),
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
    fn constant_always_same() {
        let d = Distribution::Constant(ms(120.0));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r).as_millis(), 120);
        }
        assert_eq!(d.mean().as_millis(), 120);
    }

    #[test]
    fn uniform_within_bounds() {
        let d = Distribution::Uniform {
            lo: ms(10.0),
            hi: ms(20.0),
        };
        let mut r = rng();
        for _ in 0..1000 {
            let x = d.sample(&mut r).as_millis_f64();
            assert!((10.0..20.0).contains(&x), "x={x}");
        }
        assert!((d.mean().as_millis_f64() - 15.0).abs() < 1e-9);
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
    fn empirical_samples_from_values() {
        let values = vec![
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
            SimDuration::from_millis(3),
        ];
        let d = Distribution::Empirical(values.clone());
        let mut r = rng();
        for _ in 0..100 {
            assert!(values.contains(&d.sample(&mut r)));
        }
        assert_eq!(d.mean().as_millis(), 2);
        let empty = Distribution::Empirical(vec![]);
        assert_eq!(empty.sample(&mut r), SimDuration::ZERO);
        assert_eq!(empty.mean(), SimDuration::ZERO);
    }

    #[test]
    fn shifted_adds_offset() {
        let d = Distribution::Shifted {
            offset: ms(5.0),
            base: Box::new(Distribution::Constant(ms(10.0))),
        };
        let mut r = rng();
        assert_eq!(d.sample(&mut r).as_millis(), 15);
        assert_eq!(d.mean().as_millis(), 15);
    }

    #[test]
    fn scaled_multiplies() {
        // The ARM board is ~6x slower than the x86 server (paper §3.1).
        let arm = Distribution::Scaled {
            factor: 6.0,
            base: Box::new(Distribution::Constant(ms(20.0))),
        };
        let mut r = rng();
        assert_eq!(arm.sample(&mut r).as_millis(), 120);
        assert_eq!(arm.mean().as_millis(), 120);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = normal(10.0, 2.0);
        let mut r1 = SimRng::seed_from_u64(99);
        let mut r2 = SimRng::seed_from_u64(99);
        assert_eq!(sample_n(&d, &mut r1, 50), sample_n(&d, &mut r2, 50));
    }
}
