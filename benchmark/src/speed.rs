//! The reference kernel: how fast is this machine right now?
//!
//! The reference box is a shared 2-core VM whose memory system is contended
//! by its neighbours in phases that last from a second to minutes. Identical
//! work was measured taking 16 s and 23 s a few minutes apart, with `cpu_s /
//! wall_s` at 0.99 throughout, so neither more work per run nor medians over
//! units can steady a host-time metric. What does is to measure the machine
//! alongside the work: a fixed, allocation- and pointer-heavy kernel that
//! belongs to the benchmark (standard library only, independent of the code
//! under test) runs between units, and each unit's host time is divided by
//! the slowdown the kernel saw around it. Interleaved with `summon_sweep`
//! cells the kernel's time correlates 0.76 with the cell's, sample by
//! sample; over 150 units it cut the range of repeated identical runs from
//! 17% to 2%. Work that is more memory-bound than the kernel slows down more
//! than it does, so each workload states how sensitive it is and the kernel's
//! ratio is raised to that power.
//!
//! Host times are therefore reported **at reference speed**: the time the
//! work would have taken had the kernel run at [`NOMINAL_S`] throughout. On
//! another machine this rescales every host metric by one constant, which no
//! comparison of two commits on that machine can see.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the reference box when it is quiet.
pub const NOMINAL_S: f64 = 1.8e-3;

/// The slowdown a kernel time of `kernel_s` stands for, for work that is
/// `sensitivity` times as sensitive to memory contention as the kernel is
/// (see [`crate::workload::Workload::CONTENTION_SENSITIVITY`]). It is 1 at
/// the nominal kernel time whatever the sensitivity, so a wrong sensitivity
/// adds noise on a busy machine, never bias on a quiet one.
fn slowdown(kernel_s: f64, sensitivity: f64) -> f64 {
    (kernel_s / NOMINAL_S).powf(sensitivity)
}

const ENTRIES: usize = 4_000;

/// Run the kernel once and return the host seconds it took: fill a
/// `BTreeMap` of formatted path keys, look every key up again, clone the map.
/// The same kind of work the simulator's control plane does.
pub fn reference_kernel_s() -> f64 {
    let key = |i: usize| format!("/local/domain/{}/k{}", i % 97, i);
    let t = Instant::now();
    let mut map: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for i in 0..ENTRIES {
        map.insert(key(i), vec![i as u8; 24]);
    }
    let mut found = 0;
    for i in 0..ENTRIES {
        found += map.get(&key(i)).map_or(0, Vec::len);
    }
    let copy = black_box(map.clone());
    assert_eq!((found, copy.len()), (ENTRIES * 24, ENTRIES));
    t.elapsed().as_secs_f64()
}

/// A slowdown reading around a piece of timed work: the kernel runs when the
/// probe starts and again when it finishes.
pub struct Slowdown {
    before_s: f64,
}

impl Slowdown {
    pub fn start() -> Slowdown {
        Slowdown {
            before_s: reference_kernel_s(),
        }
    }

    /// The slowdown the kernel's mean time around the work stands for: above
    /// 1 when the machine was slower than the quiet reference box.
    pub fn finish(self) -> f64 {
        self.finish_for(1.0)
    }

    /// The same for work of the given contention sensitivity.
    pub fn finish_for(self, sensitivity: f64) -> f64 {
        slowdown((self.before_s + reference_kernel_s()) / 2.0, sensitivity)
    }
}

/// Run `work` with a slowdown reading around it.
pub fn watched<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let probe = Slowdown::start();
    let out = work();
    (out, probe.finish())
}

/// Run `work` and return its result with the host seconds it took, at
/// reference speed.
pub fn timed_at_reference<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let probe = Slowdown::start();
    let t = Instant::now();
    let out = work();
    let secs = t.elapsed().as_secs_f64();
    (out, secs / probe.finish())
}

/// Times consecutive units with one kernel run at every unit boundary; a
/// unit's slowdown is the mean of the two runs on either side of it.
pub struct UnitClock {
    sensitivity: f64,
    last_kernel_s: f64,
    /// Host milliseconds of each unit at reference speed.
    pub unit_ms: Vec<f64>,
    /// Host milliseconds of each unit as the wall clock saw them.
    pub raw_unit_ms: Vec<f64>,
}

impl UnitClock {
    /// Start timing units of the given contention sensitivity.
    pub fn start(sensitivity: f64) -> UnitClock {
        UnitClock {
            sensitivity,
            last_kernel_s: reference_kernel_s(),
            unit_ms: Vec::new(),
            raw_unit_ms: Vec::new(),
        }
    }

    /// Run and time one unit.
    pub fn unit<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = work();
        let raw_ms = t.elapsed().as_secs_f64() * 1e3;
        let kernel_s = reference_kernel_s();
        let slowdown = slowdown((self.last_kernel_s + kernel_s) / 2.0, self.sensitivity);
        self.last_kernel_s = kernel_s;
        self.raw_unit_ms.push(raw_ms);
        self.unit_ms.push(raw_ms / slowdown);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_kernel_time_is_no_slowdown() {
        for sensitivity in [1.0, 1.1, 1.35] {
            assert_eq!(slowdown(NOMINAL_S, sensitivity), 1.0);
            assert!(slowdown(0.9 * NOMINAL_S, sensitivity) < 1.0);
        }
        assert_eq!(slowdown(2.0 * NOMINAL_S, 1.0), 2.0);
        assert!(slowdown(2.0 * NOMINAL_S, 1.35) > 2.0);
    }

    #[test]
    fn unit_clock_records_raw_and_corrected_times() {
        let mut clock = UnitClock::start(1.1);
        assert_eq!(clock.unit(|| 7), 7);
        clock.unit(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert_eq!((clock.unit_ms.len(), clock.raw_unit_ms.len()), (2, 2));
        assert!(clock.raw_unit_ms[1] >= 2.0);
        for (raw, corrected) in clock.raw_unit_ms.iter().zip(&clock.unit_ms) {
            assert!(*corrected >= 0.0 && (*raw == 0.0 || *corrected > 0.0));
        }
    }
}
