//! Host-side readings: the wall clock, CPU time and peak memory of this
//! process. With `speed.rs` these are the only files that look at the
//! machine; everything the workloads compute is a function of their inputs.

use crate::speed::timed_at_reference;
use std::time::Instant;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, 100 per second on every
/// architecture this benchmark runs on.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis, after which utime and stime are the
    // 12th and 13th.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (tick() + tick()) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}

/// Wall and CPU seconds spent between `start` and `stop`.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall_s, cpu_s)` since `start`.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu)
    }
}

/// Run `f` and return its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Mean nanoseconds per call of `f` over `iters` back-to-back calls, at
/// reference speed.
pub fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let ((), secs) = timed_at_reference(|| {
        for _ in 0..iters {
            f();
        }
    });
    secs * 1e9 / iters as f64
}
