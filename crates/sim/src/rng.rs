//! Deterministic random number generation.
//!
//! Every stochastic element of the reproduction (hotplug script jitter, SD
//! card latency variation, Docker's occasional ext4/VFS failures, …) draws
//! from a [`SimRng`] seeded explicitly by the experiment harness, so each
//! figure is reproducible bit-for-bit from its seed.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic, explicitly-seeded random number generator.
///
/// This is a thin wrapper over [`rand::rngs::StdRng`] with convenience
/// helpers used across the simulation crates.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fork a new, independent generator derived from this one. The child's
    /// stream is a deterministic function of the parent seed and the draw
    /// position, so forking in a fixed order yields reproducible children.
    pub fn fork(&mut self) -> SimRng {
        let child_seed = self.inner.gen::<u64>() ^ 0x9e37_79b9_7f4a_7c15;
        SimRng::seed_from_u64(child_seed)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform `f64` in `[lo, hi)` (returns `lo` if the range is empty).
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.uniform01() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..=hi)
    }

    /// Uniform `usize` in `[0, n)`; returns 0 when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.inner.gen_range(0..n)
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform01() < p
        }
    }

    /// Standard normal draw using the Box-Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by drawing u1 from (0, 1].
        let u1 = 1.0 - self.uniform01();
        let u2 = self.uniform01();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev.max(0.0) * self.standard_normal()
    }

    /// Exponential draw with the given mean (`mean <= 0` returns 0).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.uniform01();
        -mean * u.ln()
    }

    /// Log-normal draw parameterised by the mean and standard deviation of
    /// the *underlying* normal distribution.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pick a reference to a random element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.index(items.len());
            Some(&items[i])
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        let mut ca = a.fork();
        let mut cb = b.fork();
        assert_eq!(ca.next_u64(), cb.next_u64());
        // Parent and child streams differ.
        assert_ne!(a.next_u64(), ca.next_u64());
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
            let y = r.uniform_u64(10, 20);
            assert!((10..=20).contains(&y));
        }
        assert_eq!(r.uniform(5.0, 2.0), 5.0);
        assert_eq!(r.uniform_u64(9, 3), 9);
        assert_eq!(r.index(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(7.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = SimRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std={}", var.sqrt());
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = SimRng::seed_from_u64(6);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean={mean}");
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-1.0), 0.0);
    }

    #[test]
    fn log_normal_is_positive() {
        let mut r = SimRng::seed_from_u64(8);
        for _ in 0..1000 {
            assert!(r.log_normal(0.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut r = SimRng::seed_from_u64(10);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[42]).copied(), Some(42));
    }
}
