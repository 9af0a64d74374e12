//! Seed derivation and the benchmark's own input generator.
//!
//! Every input (arrival schedules, page bodies, request mixes, engine seeds)
//! derives from `--seed` through splitmix64 and nothing else. The generator
//! is the benchmark's own rather than `jitsu_sim::SimRng` so that a change to
//! the simulator's RNG cannot silently change the inputs a parent and a
//! change are compared on.

/// One splitmix64 step: advance `state` and return the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of unit `unit` on input stream `stream` of a run seeded `run`.
/// Streams keep unrelated inputs (engine seeds, arrivals, pages) from
/// sharing draws; the value depends on nothing but its three arguments.
pub fn unit_seed(run: u64, stream: u64, unit: u64) -> u64 {
    let mut s = run ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BBC9);
    let _ = splitmix64(&mut s);
    s ^= unit.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut s)
}

/// A splitmix64 stream with the few draws the input generators need.
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64) -> InputRng {
        InputRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n` must be non-zero).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The derivation is part of the benchmark's definition: if these
    /// values move, every recorded result was measured on other inputs.
    #[test]
    fn unit_seed_derivation_is_pinned() {
        assert_eq!(unit_seed(0, 0, 0), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(unit_seed(0x4A17_5001, 1, 0), 0x08D1_E3D6_4816_0767);
        assert_eq!(unit_seed(0x4A17_5001, 1, 149), 0xB61C_1A8A_2F3C_E849);
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn streams_and_units_do_not_collide() {
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..8 {
            for unit in 0..256 {
                assert!(seen.insert(unit_seed(7, stream, unit)));
            }
        }
    }

    #[test]
    fn uniform_draws_cover_the_unit_interval_evenly() {
        let mut rng = InputRng::new(11);
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.uniform01()).collect();
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((0..1000).all(|_| rng.index(24) < 24));
    }
}
