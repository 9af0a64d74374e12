//! What every workload has in common: the trait the driver runs, the
//! outcome it returns, and the count-type per-layer metrics it collects from
//! public accessors.

use crate::span::SpanLog;
use crate::speed::UnitClock;

/// Counts read from the layers' public accessors after each unit and summed
/// over the run. All are exact functions of the inputs, so two runs on one
/// seed must agree on every field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    // jitsu_sim
    pub sim_events: u64,
    pub shard_barriers: u64,
    // xenstore::StoreStats
    pub xs_commits: u64,
    pub xs_merged: u64,
    pub xs_conflicts: u64,
    pub xs_ops: u64,
    pub xs_watch_events: u64,
    // jitsu::StormMetrics
    pub queries: u64,
    pub launches: u64,
    pub cold_served: u64,
    pub coalesced: u64,
    pub warm_hits: u64,
    pub servfails: u64,
    pub reaps: u64,
    pub migrated: u64,
    pub replayed: u64,
    pub failovers: u64,
    pub failover_dropped: u64,
    pub handoff_completed: u64,
    pub dropped_bytes: u64,
    pub duplicated_bytes: u64,
    /// Launch slots still held, and services not `Idle`/`Running`, once a
    /// world has drained. Both must be zero.
    pub slots_in_use_at_end: u64,
    pub open_launches_at_end: u64,
    // Data plane (warm_traffic only).
    pub frames: u64,
    pub frame_copies: u64,
    pub open_connections_end: u64,
}

/// What one run of a workload produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Host milliseconds of each unit at reference speed (see `speed.rs`),
    /// in execution order.
    pub unit_ms: Vec<f64>,
    /// The same units as the wall clock saw them.
    pub raw_unit_ms: Vec<f64>,
    /// Client requests the benchmark issued.
    pub attempted: u64,
    /// Of those, requests that completed (cold-served + warm on the storm
    /// workloads, byte-exact exchanges on `warm_traffic`).
    pub served: u64,
    /// Virtual latency of every served request, in milliseconds, pooled
    /// over units.
    pub latency_ms: Vec<f64>,
    pub counters: Counters,
}

impl Outcome {
    /// Close a run: take the unit timings from `clock`.
    pub fn timed_by(mut self, clock: UnitClock) -> Outcome {
        self.unit_ms = clock.unit_ms;
        self.raw_unit_ms = clock.raw_unit_ms;
        self
    }

    /// Close a storm run, whose served requests are the cold-served and the
    /// warm ones.
    pub fn storm_timed_by(mut self, clock: UnitClock) -> Outcome {
        self.served = self.counters.cold_served + self.counters.warm_hits;
        self.timed_by(clock)
    }

    /// Everything the run computed in virtual time, host timings excluded.
    /// Bit-identical for a fixed seed on any machine.
    pub fn virtual_outputs(&self) -> (u64, u64, Vec<u64>, &Counters) {
        (
            self.attempted,
            self.served,
            self.latency_ms.iter().map(|l| l.to_bits()).collect(),
            &self.counters,
        )
    }
}

/// One benchmark workload: a list of units run back to back in host time by
/// this single-threaded process (closed loop), each unit driving its own
/// open-loop arrivals in virtual time.
pub trait Workload {
    /// Inputs generated from the seed before the timed region.
    type Inputs;

    const NAME: &'static str;
    /// Units in a run of `BENCHMARK.json`'s `run_seconds`, sized so that
    /// the timed region takes about that long on the 2-core reference box.
    const UNITS_PER_RUN: usize;
    /// How much harder memory contention on the host hits this workload
    /// than it hits the reference kernel (`speed.rs`): the power of the
    /// kernel's slowdown that this workload's unit times grew by, measured
    /// over ten runs on the shared reference box. 1.0 is "like the kernel".
    const CONTENTION_SENSITIVITY: f64;

    /// Generate every input of a `units`-unit run from `seed`. Nothing here
    /// touches the program under test.
    fn prepare(seed: u64, units: usize) -> Self::Inputs;

    /// Run the first `units` units of `inputs` on fresh worlds, timing each
    /// and recording spans around the benchmark's own calls. When `units`
    /// covers all of `inputs` the worlds are drained to quiescence.
    fn run(inputs: &Self::Inputs, units: usize, log: &mut SpanLog) -> Outcome;

    /// Checks on a complete run beyond the counters every workload shares
    /// (those are checked by the driver). `Err` names the violated check.
    fn check(_inputs: &Self::Inputs, _outcome: &Outcome) -> Result<(), String> {
        Ok(())
    }
}

/// The correctness gate every complete run passes before any metric is
/// printed.
pub fn check_invariants(o: &Outcome) -> Result<(), String> {
    let c = &o.counters;
    let zero = [
        ("handoff dropped_bytes", c.dropped_bytes),
        ("handoff duplicated_bytes", c.duplicated_bytes),
        ("xenstore conflicts", c.xs_conflicts),
        ("launch slots in use at quiescence", c.slots_in_use_at_end),
        ("open launches at quiescence", c.open_launches_at_end),
    ];
    for (what, n) in zero {
        if n != 0 {
            return Err(format!("{what} = {n}, expected 0"));
        }
    }
    if o.served > o.attempted {
        return Err(format!("served {} of {} attempted", o.served, o.attempted));
    }
    if o.latency_ms.len() as u64 != o.served {
        return Err(format!(
            "{} latency samples for {} served requests",
            o.latency_ms.len(),
            o.served
        ));
    }
    Ok(())
}
