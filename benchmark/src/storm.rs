//! The three storm workloads: `summon_sweep`, `long_horizon` and
//! `fleet_failover`. All drive `ConcurrentJitsud` worlds with open-loop
//! Poisson DNS queries in virtual time; they differ in how long one world
//! lives and which engine runs it.

use crate::seed::{unit_seed, InputRng};
use crate::span::SpanLog;
use crate::speed::{timed_at_reference, UnitClock};
use crate::workload::{Counters, Outcome, Workload};
use jitsu::concurrent::{ConcurrentJitsud, LifecyclePhase};
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu_sim::{DomainId, ShardedSim, Sim, SimDuration, SimTime};
use netstack::ipv4::Ipv4Addr;
use platform::{Board, BoardKind};

/// Input streams of [`unit_seed`], one per kind of input.
const STREAM_ENGINE: u64 = 1;
const STREAM_ARRIVALS: u64 = 2;

/// One board's configuration.
#[derive(Debug, Clone, Copy)]
struct BoardSpec {
    services: usize,
    service_mib: u32,
    launch_slots: u32,
    idle_ttl_s: u64,
    failover: bool,
}

/// One DNS query: when it arrives and for which configured service.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    service: u16,
}

/// A board's static inputs: the daemon configuration and the query names.
struct BoardInputs {
    board: Board,
    config: JitsuConfig,
    names: Vec<String>,
}

impl BoardInputs {
    fn new(spec: BoardSpec) -> BoardInputs {
        let mut config = JitsuConfig::new("storm.example")
            .with_launch_slots(spec.launch_slots)
            .with_idle_timeout(SimDuration::from_secs(spec.idle_ttl_s));
        config.failover = spec.failover;
        let mut names = Vec::with_capacity(spec.services);
        for i in 0..spec.services {
            let name = format!("svc{i:03}.storm.example");
            let ip = Ipv4Addr::new(192, 168, 2 + (i / 200) as u8, 20 + (i % 200) as u8);
            let mut svc = ServiceConfig::http_site(&name, ip);
            svc.image.memory_mib = spec.service_mib;
            config = config.with_service(svc);
            names.push(name);
        }
        BoardInputs {
            board: BoardKind::Cubieboard2.board(),
            config,
            names,
        }
    }
}

/// Open-loop arrivals over `[0, window_s)` virtual seconds: a Poisson process
/// of rate `count / window_s` conditioned on its count, that is `count`
/// independent uniform instants, each for a uniformly chosen service. Fixing
/// the count keeps the offered load of every cell, and so the work of a run,
/// the same on every seed; only when and for whom the queries arrive varies.
fn arrivals(seed: u64, count: usize, window_s: f64, services: usize) -> Vec<Arrival> {
    let mut rng = InputRng::new(seed);
    let mut out: Vec<Arrival> = (0..count)
        .map(|_| Arrival {
            at: SimTime::ZERO + SimDuration::from_secs_f64(rng.uniform01() * window_s),
            service: rng.index(services) as u16,
        })
        .collect();
    out.sort_by_key(|a| a.at);
    out
}

/// Every TTFB sample a world recorded, in recording-independent (ascending)
/// order. `LatencyRecorder` exposes percentiles, not samples; asking for the
/// percentile at each of the `n` ranks returns the `n` order statistics.
fn ttfb_samples_ms(world: &ConcurrentJitsud) -> Vec<f64> {
    let ttfb = &world.metrics().ttfb;
    let n = ttfb.count();
    if n < 2 {
        return ttfb.percentiles_ms(&vec![50.0; n]);
    }
    let ranks: Vec<f64> = (0..n).map(|i| 100.0 * i as f64 / (n - 1) as f64).collect();
    ttfb.percentiles_ms(&ranks)
}

/// Fold one world's public counters into `c`. `drained` says the world ran
/// to quiescence, which is when the slot and lifecycle invariants apply.
fn collect_world(
    world: &ConcurrentJitsud,
    names: &[String],
    drained: bool,
    c: &mut Counters,
    latency_ms: &mut Vec<f64>,
) {
    let m = world.metrics();
    c.queries += m.queries;
    c.launches += m.launches;
    c.cold_served += m.cold_served;
    c.coalesced += m.coalesced;
    c.warm_hits += m.warm_hits;
    c.servfails += m.servfails;
    c.reaps += m.reaps;
    c.failovers += m.failovers;
    c.failover_dropped += m.failover_dropped;
    c.migrated += m.handoff.migrated;
    c.replayed += m.handoff.replayed_after_commit;
    c.handoff_completed += m.handoff.completed;
    c.dropped_bytes += m.handoff.dropped_bytes;
    c.duplicated_bytes += m.handoff.duplicated_bytes;
    let xs = world.xenstore_stats();
    c.xs_commits += xs.commits;
    c.xs_merged += xs.merged;
    c.xs_conflicts += xs.conflicts;
    c.xs_ops += xs.ops;
    c.xs_watch_events += xs.watch_events;
    if drained {
        c.slots_in_use_at_end += u64::from(world.slots().in_use());
        c.open_launches_at_end += names
            .iter()
            .filter(|n| {
                !matches!(
                    world.phase(n),
                    LifecyclePhase::Idle | LifecyclePhase::Running
                )
            })
            .count() as u64;
    }
    latency_ms.extend(ttfb_samples_ms(world));
}

// ---------------------------------------------------------------------------
// summon_sweep
// ---------------------------------------------------------------------------

/// The slot-bound cell both flat-engine workloads share: 24 services of
/// 16 MiB (well inside the board's memory, so nothing is refused), 2 launch
/// slots and a 1 s idle TTL so nearly every query is a cold start.
const SLOT_BOUND: BoardSpec = BoardSpec {
    services: 24,
    service_mib: 16,
    launch_slots: 2,
    idle_ttl_s: 1,
    failover: false,
};
/// 16 queries/s.
const SLOT_BOUND_QUERIES_PER_20_S: usize = 320;

/// 150 independent 20-virtual-second cells, each a fresh world.
pub struct SummonSweep;

pub struct SweepInputs {
    board: BoardInputs,
    /// Per cell: the engine seed and the arrival schedule.
    cells: Vec<(u64, Vec<Arrival>)>,
}

impl Workload for SummonSweep {
    type Inputs = SweepInputs;
    const NAME: &'static str = "summon_sweep";
    const UNITS_PER_RUN: usize = 150;
    const CONTENTION_SENSITIVITY: f64 = 1.1;

    fn prepare(seed: u64, units: usize) -> SweepInputs {
        let cells = (0..units as u64)
            .map(|u| {
                (
                    unit_seed(seed, STREAM_ENGINE, u),
                    arrivals(
                        unit_seed(seed, STREAM_ARRIVALS, u),
                        SLOT_BOUND_QUERIES_PER_20_S,
                        20.0,
                        SLOT_BOUND.services,
                    ),
                )
            })
            .collect();
        SweepInputs {
            board: BoardInputs::new(SLOT_BOUND),
            cells,
        }
    }

    fn run(inputs: &SweepInputs, units: usize, log: &mut SpanLog) -> Outcome {
        let mut out = Outcome::default();
        let mut clock = UnitClock::start(Self::CONTENTION_SENSITIVITY);
        let b = &inputs.board;
        for (unit, (engine_seed, arrivals)) in inputs.cells[..units].iter().enumerate() {
            let id = unit as u64;
            clock.unit(|| {
                log.enter("unit", id);
                log.enter("build_world", id);
                let mut sim =
                    ConcurrentJitsud::sim(b.config.clone(), b.board.clone(), *engine_seed);
                log.next("inject", id);
                for a in arrivals {
                    ConcurrentJitsud::inject_query(&mut sim, a.at, &b.names[a.service as usize]);
                }
                log.next("run", id);
                sim.run();
                log.next("collect", id);
                out.counters.sim_events += sim.events_executed();
                collect_world(
                    sim.world(),
                    &b.names,
                    true,
                    &mut out.counters,
                    &mut out.latency_ms,
                );
                log.exit();
                log.exit();
            });
            out.attempted += arrivals.len() as u64;
        }
        out.storm_timed_by(clock)
    }
}

// ---------------------------------------------------------------------------
// long_horizon
// ---------------------------------------------------------------------------

/// One slot-bound cell kept alive for 600 virtual seconds, advanced in
/// 5-second slices; the unit is the slice.
pub struct LongHorizon;

const SLICE_S: u64 = 5;

pub struct HorizonInputs {
    board: BoardInputs,
    engine_seed: u64,
    /// Arrivals of each slice, in time order.
    slices: Vec<Vec<Arrival>>,
}

impl Workload for LongHorizon {
    type Inputs = HorizonInputs;
    const NAME: &'static str = "long_horizon";
    const UNITS_PER_RUN: usize = 120;
    /// Writes under a directory of thousands of leaked nodes copy large
    /// child maps: the most memory-bound work in the benchmark.
    const CONTENTION_SENSITIVITY: f64 = 1.35;

    fn prepare(seed: u64, units: usize) -> HorizonInputs {
        let window_s = units as u64 * SLICE_S;
        let mut slices = vec![Vec::new(); units];
        for a in arrivals(
            unit_seed(seed, STREAM_ARRIVALS, 0),
            SLOT_BOUND_QUERIES_PER_20_S * window_s as usize / 20,
            window_s as f64,
            SLOT_BOUND.services,
        ) {
            let slice = (a.at.as_nanos() / (SLICE_S * 1_000_000_000)) as usize;
            slices[slice].push(a);
        }
        HorizonInputs {
            board: BoardInputs::new(SLOT_BOUND),
            engine_seed: unit_seed(seed, STREAM_ENGINE, 0),
            slices,
        }
    }

    fn run(inputs: &HorizonInputs, units: usize, log: &mut SpanLog) -> Outcome {
        let mut out = Outcome::default();
        let b = &inputs.board;
        let complete = units == inputs.slices.len();
        log.enter("build_world", 0);
        let mut sim = ConcurrentJitsud::sim(b.config.clone(), b.board.clone(), inputs.engine_seed);
        log.exit();
        let mut clock = UnitClock::start(Self::CONTENTION_SENSITIVITY);
        for (unit, arrivals) in inputs.slices[..units].iter().enumerate() {
            let id = unit as u64;
            let last = complete && unit + 1 == units;
            clock.unit(|| {
                log.enter("unit", id);
                log.enter("inject", id);
                for a in arrivals {
                    ConcurrentJitsud::inject_query(&mut sim, a.at, &b.names[a.service as usize]);
                }
                log.next("run", id);
                sim.run_until(SimTime::from_secs((unit as u64 + 1) * SLICE_S));
                if last {
                    // Drain: in-flight boots finish and every idle
                    // unikernel is reaped.
                    sim.run();
                }
                log.exit();
                log.exit();
            });
            out.attempted += arrivals.len() as u64;
        }
        log.enter("collect", 0);
        out.counters.sim_events = sim.events_executed();
        collect_world(
            sim.world(),
            &b.names,
            complete,
            &mut out.counters,
            &mut out.latency_ms,
        );
        log.exit();
        out.storm_timed_by(clock)
    }
}

// ---------------------------------------------------------------------------
// fleet_failover
// ---------------------------------------------------------------------------

/// Cells of 8 boards on the sharded engine with `SERVFAIL` fail-over around
/// the board ring.
///
/// Every board is configured with 80 services of 16 MiB, 1,280 MiB against
/// the 832 MiB a board can host, and no reaping inside the window. Even
/// boards take 8 queries/s and run out of memory; the names they refuse fail
/// over to the next (odd) board, which takes 0.5 queries/s of its own, 10 in
/// all. A full board holds 52 services, so it can refuse at most 28 distinct
/// names; 28 + 10 fits the neighbour's 52, so the neighbour never refuses and
/// no query is ever dropped — the workload exercises
/// admission, barriers and cross-board delivery without an operation that
/// fails.
pub struct FleetFailover;

const FLEET_BOARD: BoardSpec = BoardSpec {
    services: 80,
    service_mib: 16,
    launch_slots: 2,
    idle_ttl_s: 600,
    failover: true,
};
const BOARDS: u32 = 8;
const SHARDS: u32 = 4;
const FLEET_EPOCH: SimDuration = SimDuration::from_millis(50);
const HEAVY_BOARD_QUERIES: usize = 160;
const LIGHT_BOARD_QUERIES: usize = 10;

pub struct FleetInputs {
    board: BoardInputs,
    /// Per cell, per board: the engine seed and the arrival schedule.
    cells: Vec<Vec<(u64, Vec<Arrival>)>>,
}

/// Run one fleet cell at `shards` shards and fold it into `out`.
fn run_fleet_cell(
    b: &BoardInputs,
    cell: &[(u64, Vec<Arrival>)],
    shards: u32,
    id: u64,
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    log.enter("build_world", id);
    let mut sim = ShardedSim::new(shards, FLEET_EPOCH);
    for (engine_seed, _) in cell {
        let mut world = ConcurrentJitsud::world(b.config.clone(), b.board.clone(), *engine_seed);
        world.set_failover_hops(BOARDS - 1);
        sim.add_domain(world, *engine_seed);
    }
    log.next("inject", id);
    for (board, (_, arrivals)) in cell.iter().enumerate() {
        for a in arrivals {
            jitsu::fleet::inject_query(
                &mut sim,
                DomainId(board as u32),
                a.at,
                &b.names[a.service as usize],
            );
        }
        out.attempted += arrivals.len() as u64;
    }
    log.next("run", id);
    sim.run();
    log.next("collect", id);
    out.counters.sim_events += sim.events_executed();
    out.counters.shard_barriers += sim.barriers();
    for world in sim.into_worlds() {
        collect_world(
            &world,
            &b.names,
            true,
            &mut out.counters,
            &mut out.latency_ms,
        );
    }
    log.exit();
}

impl Workload for FleetFailover {
    type Inputs = FleetInputs;
    const NAME: &'static str = "fleet_failover";
    const UNITS_PER_RUN: usize = 100;
    const CONTENTION_SENSITIVITY: f64 = 1.1;

    fn prepare(seed: u64, units: usize) -> FleetInputs {
        let cells = (0..units as u64)
            .map(|u| {
                (0..u64::from(BOARDS))
                    .map(|board| {
                        let queries = if board % 2 == 0 {
                            HEAVY_BOARD_QUERIES
                        } else {
                            LIGHT_BOARD_QUERIES
                        };
                        let n = u * u64::from(BOARDS) + board;
                        (
                            unit_seed(seed, STREAM_ENGINE, n),
                            arrivals(
                                unit_seed(seed, STREAM_ARRIVALS, n),
                                queries,
                                20.0,
                                FLEET_BOARD.services,
                            ),
                        )
                    })
                    .collect()
            })
            .collect();
        FleetInputs {
            board: BoardInputs::new(FLEET_BOARD),
            cells,
        }
    }

    fn run(inputs: &FleetInputs, units: usize, log: &mut SpanLog) -> Outcome {
        let mut out = Outcome::default();
        let mut clock = UnitClock::start(Self::CONTENTION_SENSITIVITY);
        for (unit, cell) in inputs.cells[..units].iter().enumerate() {
            let id = unit as u64;
            clock.unit(|| {
                log.enter("unit", id);
                run_fleet_cell(&inputs.board, cell, SHARDS, id, log, &mut out);
                log.exit();
            });
        }
        out.storm_timed_by(clock)
    }

    /// The shard count must be unobservable: the first cell re-run on one
    /// shard equals the four-shard run counter for counter.
    fn check(inputs: &FleetInputs, _outcome: &Outcome) -> Result<(), String> {
        let by_shards = [1, SHARDS].map(|shards| {
            let mut out = Outcome::default();
            let mut log = SpanLog::new(false);
            run_fleet_cell(
                &inputs.board,
                &inputs.cells[0],
                shards,
                0,
                &mut log,
                &mut out,
            );
            out
        });
        if by_shards[0] != by_shards[1] {
            return Err(format!(
                "shards=1 and shards={SHARDS} diverge:\n{:?}\n{:?}",
                by_shards[0].counters, by_shards[1].counters
            ));
        }
        if by_shards[0].counters.failovers == 0 {
            return Err("fleet cell exercised no fail-over".to_string());
        }
        Ok(())
    }
}

/// The flat engine alone: `events` no-op events scheduled a microsecond
/// apart, then run. Returns host nanoseconds per event (schedule + dispatch),
/// the floor under `sim.host_us_per_event`.
pub fn bare_sim_ns_per_event(events: u64) -> f64 {
    let ((), secs) = timed_at_reference(|| {
        let mut sim = Sim::new(0u64);
        for i in 0..events {
            sim.schedule_at(SimTime::from_micros(i), |s| *s.world_mut() += 1);
        }
        sim.run();
        assert_eq!(*sim.world(), events);
    });
    secs * 1e9 / events as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_a_fixed_count_in_time_order_inside_the_window() {
        let a = arrivals(9, 320, 20.0, 24);
        assert_eq!(a.len(), 320);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a
            .iter()
            .all(|x| x.at < SimTime::from_secs(20) && x.service < 24));
        let again = arrivals(9, 320, 20.0, 24);
        assert!(a
            .iter()
            .zip(&again)
            .all(|(x, y)| x.at == y.at && x.service == y.service));
        assert!(arrivals(10, 320, 20.0, 24)
            .iter()
            .zip(&a)
            .any(|(x, y)| x.at != y.at));
    }

    #[test]
    fn a_light_board_cannot_fill_up() {
        // The structural argument behind "no query is ever dropped".
        let board = xen_sim::DomainBuilder::new(BoardKind::Cubieboard2.board());
        let capacity = (board.free_mib() / FLEET_BOARD.service_mib) as usize;
        assert_eq!(capacity, 52);
        let refusable = FLEET_BOARD.services - capacity;
        assert!(refusable + LIGHT_BOARD_QUERIES <= capacity);
    }
}
