//! The boot-storm experiment: concurrent summoning under open-loop load.
//!
//! §3.3's scaling story — launch *while* answering, coalesce duplicate
//! queries, reap idle unikernels, and fail over with `SERVFAIL` under
//! resource exhaustion — only shows up when many DNS queries for many names
//! overlap. This experiment drives the event-driven
//! [`ConcurrentJitsud`] engine with open-loop Poisson arrivals spread
//! uniformly across N configured services, sweeping the arrival rate and
//! the launch-slot count, and reports p50/p95/p99 time-to-first-byte plus
//! the `SERVFAIL` rate for each cell.
//!
//! Two regimes are swept:
//!
//! * **slot-bound** — the working set fits in board memory; as the arrival
//!   rate passes the toolstack's build throughput (≈ slots / 120 ms on the
//!   Cubieboard2), launches queue on the semaphore and tail latency grows
//!   *gracefully* (no failures, just longer boots);
//! * **memory-bound** — more names than the board can hold and no reaping
//!   within the run; once memory is exhausted, additional names are
//!   answered `SERVFAIL` so clients fail over to another board (§3.3.2).
//!
//! Everything is scheduled on the deterministic `jitsu_sim` engine, so a
//! fixed seed reproduces the storm byte for byte.

use crate::fleet::{run_fleet, FleetStormResult};
use jitsu::concurrent::ConcurrentJitsud;
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu_sim::{SimDuration, SimRng, SimTime, Table};
use netstack::ipv4::Ipv4Addr;

/// One sweep cell: a storm configuration.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Regime label shown in the report.
    pub label: &'static str,
    /// Number of configured services (distinct DNS names).
    pub services: usize,
    /// Memory per service unikernel, in MiB.
    pub service_mib: u32,
    /// Mean query arrival rate across all names, per second (Poisson).
    pub rate_per_sec: f64,
    /// Launch-slot semaphore capacity.
    pub launch_slots: u32,
    /// Idle TTL before a unikernel is reaped.
    pub idle_ttl: SimDuration,
    /// Length of the arrival window (the sim then drains to quiescence).
    pub duration: SimDuration,
    /// RNG seed for the arrival process (and the engine).
    pub seed: u64,
}

impl StormConfig {
    /// A slot-bound cell: 24 light services (384 MiB working set, well
    /// inside the Cubieboard2's 832 MiB of guest memory) with a 1 s idle
    /// TTL so nearly every arrival is a cold start.
    pub fn slot_bound(rate_per_sec: f64, launch_slots: u32, seed: u64) -> StormConfig {
        StormConfig {
            label: "slot-bound",
            services: 24,
            service_mib: 16,
            rate_per_sec,
            launch_slots,
            idle_ttl: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(20),
            seed,
        }
    }

    /// A memory-bound cell: `services` names with no reaping inside the
    /// run, so the board fills up and stays full.
    pub fn memory_bound(services: usize, seed: u64) -> StormConfig {
        StormConfig {
            label: "memory-bound",
            services,
            service_mib: 16,
            rate_per_sec: 8.0,
            launch_slots: 2,
            idle_ttl: SimDuration::from_secs(600),
            duration: SimDuration::from_secs(20),
            seed,
        }
    }
}

/// The measured outcome of one storm cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StormResult {
    /// The configuration label.
    pub label: &'static str,
    /// Services configured.
    pub services: usize,
    /// Launch slots.
    pub launch_slots: u32,
    /// Offered arrival rate, per second.
    pub rate_per_sec: f64,
    /// Queries that arrived inside the window.
    pub queries: u64,
    /// Domains constructed.
    pub launches: u64,
    /// Queries that coalesced onto an in-flight boot.
    pub coalesced: u64,
    /// Requests served by a cold start (parked on a boot, then served).
    pub cold_served: u64,
    /// Queries served by an already-running unikernel.
    pub warm_hits: u64,
    /// Queries answered `SERVFAIL` (memory exhaustion).
    pub servfails: u64,
    /// Idle unikernels reaped.
    pub reaps: u64,
    /// Connections handed from Synjitsu to booted unikernels.
    pub syn_handoffs: u64,
    /// Fraction of service queries answered `SERVFAIL`.
    pub servfail_rate: f64,
    /// Median time-to-first-byte, ms.
    pub p50_ms: f64,
    /// 95th-percentile time-to-first-byte, ms.
    pub p95_ms: f64,
    /// 99th-percentile time-to-first-byte, ms.
    pub p99_ms: f64,
    /// XenStore commits that landed on a concurrently advanced base and
    /// merged instead of aborting (each boot holds its registration
    /// transaction open for the whole construction window).
    pub xs_merged: u64,
    /// XenStore commits aborted with `EAGAIN` — zero on the Jitsu engine.
    pub xs_conflicts: u64,
}

/// Build the Jitsu host configuration for a storm cell.
fn host_config(cfg: &StormConfig) -> JitsuConfig {
    let mut host = JitsuConfig::new("storm.example")
        .with_launch_slots(cfg.launch_slots)
        .with_idle_timeout(cfg.idle_ttl);
    for i in 0..cfg.services {
        let ip = Ipv4Addr::new(192, 168, 2 + (i / 200) as u8, 20 + (i % 200) as u8);
        let mut svc = ServiceConfig::http_site(&format!("svc{i:03}.storm.example"), ip);
        svc.image.memory_mib = cfg.service_mib;
        host = host.with_service(svc);
    }
    host
}

/// The Poisson arrival times and service names of one board's storm, a
/// pure function of `(cfg, seed)`.
fn arrivals(cfg: &StormConfig, seed: u64) -> Vec<(SimTime, String)> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xB007_5708);
    let mean_gap = 1.0 / cfg.rate_per_sec;
    let window = cfg.duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exponential(mean_gap);
        if t >= window {
            break;
        }
        let service = rng.index(cfg.services);
        let name = format!("svc{service:03}.storm.example");
        out.push((SimTime::ZERO + SimDuration::from_secs_f64(t), name));
    }
    out
}

/// Run one cell as a fleet of `boards` boards at `shards` shards.
fn cell_fleet(cfg: &StormConfig, boards: u32, shards: u32) -> FleetStormResult<StormResult> {
    run_fleet(
        &host_config(cfg),
        |seed| arrivals(cfg, seed),
        |world| collect_result(cfg, world),
        cfg.seed,
        boards,
        shards,
    )
}

/// Run one storm cell on a single board — a one-board fleet — to
/// quiescence and collect its metrics. Arrivals are open-loop: they never
/// wait for the system, which is what makes the overload regimes visible.
pub fn run_storm(cfg: &StormConfig) -> StormResult {
    cell_fleet(cfg, 1, 1).boards.remove(0)
}

/// Build a cell's [`StormResult`] from one quiesced board.
fn collect_result(cfg: &StormConfig, world: &ConcurrentJitsud) -> StormResult {
    let xs = world.xenstore_stats();
    let m = world.metrics();
    let tail = m.ttfb.percentiles_ms(&[50.0, 95.0, 99.0]);
    StormResult {
        label: cfg.label,
        services: cfg.services,
        launch_slots: cfg.launch_slots,
        rate_per_sec: cfg.rate_per_sec,
        queries: m.queries,
        launches: m.launches,
        coalesced: m.coalesced,
        cold_served: m.cold_served,
        warm_hits: m.warm_hits,
        servfails: m.servfails,
        reaps: m.reaps,
        syn_handoffs: m.syn_handoffs,
        servfail_rate: m.servfail_rate(),
        p50_ms: tail[0],
        p95_ms: tail[1],
        p99_ms: tail[2],
        xs_merged: xs.merged,
        xs_conflicts: xs.conflicts,
    }
}

/// The default sweep: arrival rate × launch slots in the slot-bound
/// regime, then the memory-bound pair (below and past the board's limit).
pub fn default_sweep(seed: u64) -> Vec<StormConfig> {
    vec![
        StormConfig::slot_bound(2.0, 1, seed),
        StormConfig::slot_bound(8.0, 1, seed),
        StormConfig::slot_bound(24.0, 1, seed),
        StormConfig::slot_bound(8.0, 2, seed),
        StormConfig::slot_bound(24.0, 2, seed),
        StormConfig::slot_bound(24.0, 4, seed),
        // 40 × 16 MiB = 640 MiB fits; 80 × 16 MiB = 1280 MiB does not
        // (the Cubieboard2 offers 832 MiB of guest memory).
        StormConfig::memory_bound(40, seed),
        StormConfig::memory_bound(80, seed),
    ]
}

/// Render the sweep as the experiment's report table.
pub fn table(seed: u64) -> Table {
    let mut table = Table::new(
        "Boot storm: open-loop Poisson arrivals over N services (Cubieboard2, optimised toolstack, Synjitsu on)",
        &[
            "regime",
            "services",
            "slots",
            "rate/s",
            "queries",
            "launches",
            "coalesced",
            "warm",
            "reaps",
            "SERVFAIL %",
            "TTFB p50 ms",
            "TTFB p95 ms",
            "TTFB p99 ms",
        ],
    );
    for cfg in default_sweep(seed) {
        let r = run_storm(&cfg);
        table.add_row(&[
            r.label.to_string(),
            r.services.to_string(),
            r.launch_slots.to_string(),
            format!("{:.0}", r.rate_per_sec),
            r.queries.to_string(),
            r.launches.to_string(),
            r.coalesced.to_string(),
            r.warm_hits.to_string(),
            r.reaps.to_string(),
            format!("{:.1}", r.servfail_rate * 100.0),
            format!("{:.1}", r.p50_ms),
            format!("{:.1}", r.p95_ms),
            format!("{:.1}", r.p99_ms),
        ]);
    }
    table
}

/// The fleet sweep: one slot-bound and one memory-bound cell (the latter is
/// where `SERVFAIL` fail-over between boards actually fires), shortened to
/// a 10 s window per board.
pub fn fleet_sweep(seed: u64) -> Vec<StormConfig> {
    let mut slot = StormConfig::slot_bound(8.0, 2, seed);
    slot.duration = SimDuration::from_secs(10);
    let mut memory = StormConfig::memory_bound(60, seed);
    memory.duration = SimDuration::from_secs(10);
    // Heavier images than the classic cell: each board exhausts its
    // 832 MiB of guest memory inside the shortened window, so the
    // fail-over ring actually carries traffic in the fleet report.
    memory.service_mib = 48;
    vec![slot, memory]
}

/// Render the fleet sweep as a report table: one row per board plus a
/// `TOTAL` row per cell. Deliberately *not* a function of the shard count —
/// the CI shard-invariance gate diffs this output byte-for-byte across
/// shard counts.
pub fn fleet_table(seed: u64, boards: u32, shards: u32) -> Table {
    let mut table = Table::new(
        "Boot storm fleet: per-board Poisson arrivals, SERVFAIL fail-over around the board ring at 50 ms epoch barriers (Cubieboard2 x N)",
        &[
            "regime",
            "board",
            "queries",
            "launches",
            "cold",
            "warm",
            "SERVFAIL",
            "fo-sent",
            "fo-drop",
            "reaps",
            "events",
            "barriers",
        ],
    );
    for cfg in fleet_sweep(seed) {
        let r = cell_fleet(&cfg, boards, shards);
        for (b, br) in r.boards.iter().enumerate() {
            table.add_row(&[
                br.label.to_string(),
                b.to_string(),
                br.queries.to_string(),
                br.launches.to_string(),
                br.cold_served.to_string(),
                br.warm_hits.to_string(),
                br.servfails.to_string(),
                "-".to_string(),
                "-".to_string(),
                br.reaps.to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
        }
        table.add_row(&[
            cfg.label.to_string(),
            "TOTAL".to_string(),
            r.boards.iter().map(|b| b.queries).sum::<u64>().to_string(),
            r.boards.iter().map(|b| b.launches).sum::<u64>().to_string(),
            r.boards
                .iter()
                .map(|b| b.cold_served)
                .sum::<u64>()
                .to_string(),
            r.boards
                .iter()
                .map(|b| b.warm_hits)
                .sum::<u64>()
                .to_string(),
            r.boards
                .iter()
                .map(|b| b.servfails)
                .sum::<u64>()
                .to_string(),
            r.failovers.to_string(),
            r.failover_dropped.to_string(),
            r.boards.iter().map(|b| b.reaps).sum::<u64>().to_string(),
            r.events.to_string(),
            r.barriers.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small cell for unit tests (seconds of virtual time, not minutes).
    fn quick(rate: f64, slots: u32, services: usize, ttl_secs: u64) -> StormConfig {
        StormConfig {
            label: "quick",
            services,
            service_mib: 16,
            rate_per_sec: rate,
            launch_slots: slots,
            idle_ttl: SimDuration::from_secs(ttl_secs),
            duration: SimDuration::from_secs(6),
            seed: 0xB007,
        }
    }

    #[test]
    fn p99_degrades_gracefully_past_slot_capacity() {
        // One slot sustains ≈8 launches/s; rate 16 overloads it.
        let light = run_storm(&quick(2.0, 1, 12, 1));
        let heavy = run_storm(&quick(16.0, 1, 12, 1));
        assert_eq!(light.servfails, 0);
        assert_eq!(heavy.servfails, 0, "overload queues, it does not fail");
        assert!(
            heavy.p99_ms > light.p99_ms,
            "p99 {:.0} ms (overload) vs {:.0} ms (light)",
            heavy.p99_ms,
            light.p99_ms
        );
        assert!(heavy.launches > 0 && heavy.coalesced > 0);
        // Still served: every query is accounted for and none failed.
        assert_eq!(heavy.queries, heavy.warm_hits + heavy.cold_served);
    }

    #[test]
    fn servfail_only_past_the_memory_limit() {
        // Rate 24/s for 10 s ≈ 240 arrivals: enough to touch nearly all
        // configured names in both cells.
        let mut fits = quick(24.0, 2, 30, 600);
        fits.duration = SimDuration::from_secs(10);
        let mut overflows = quick(24.0, 2, 60, 600);
        overflows.duration = SimDuration::from_secs(10);
        let fits = run_storm(&fits);
        let overflows = run_storm(&overflows);
        assert_eq!(
            fits.servfails, 0,
            "30 × 16 MiB = 480 MiB fits in 832 MiB: no SERVFAIL"
        );
        assert!(
            overflows.servfails > 0,
            "60 × 16 MiB = 960 MiB exceeds 832 MiB: SERVFAIL past the limit"
        );
        assert!(overflows.servfail_rate > 0.0 && overflows.servfail_rate < 1.0);
        assert!(overflows.launches <= 52, "at most 832/16 domains fit");
    }

    #[test]
    fn same_seed_yields_byte_identical_reports() {
        let cfg = quick(12.0, 2, 16, 1);
        let a = run_storm(&cfg);
        let b = run_storm(&cfg);
        assert_eq!(a, b, "a storm is a pure function of its seed");
        // And the rendered form (what `reproduce` prints) matches bytewise.
        let row = |r: &StormResult| {
            format!(
                "{} {} {} {:.3} {} {} {} {} {} {:.6} {:.6} {:.6} {:.6}",
                r.label,
                r.services,
                r.launch_slots,
                r.rate_per_sec,
                r.queries,
                r.launches,
                r.coalesced,
                r.warm_hits,
                r.reaps,
                r.servfail_rate,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms
            )
        };
        assert_eq!(row(&a), row(&b));
    }

    #[test]
    fn storms_merge_transactions_instead_of_aborting() {
        // With more than one launch slot, boot-registration transactions
        // overlap; the Jitsu merge engine commits all of them with zero
        // EAGAIN aborts — the Figure 3 property, observed under storm load.
        let r = run_storm(&quick(16.0, 4, 16, 1));
        assert_eq!(r.xs_conflicts, 0, "no storm-time aborts: {r:?}");
        assert!(r.xs_merged > 0, "overlapping boots must merge: {r:?}");
    }

    #[test]
    fn storm_bookkeeping_balances() {
        let r = run_storm(&quick(10.0, 2, 12, 1));
        // At quiescence every query landed in exactly one bucket.
        assert_eq!(r.queries, r.servfails + r.warm_hits + r.cold_served);
        // Every parked SYN was handed over; clients arriving after the
        // handoff point connect to the unikernel directly, so handoffs can
        // only undercount the queue.
        assert!(r.syn_handoffs > 0);
        assert!(r.syn_handoffs <= r.cold_served);
        assert!(r.reaps > 0, "short TTL must reap between bursts");
    }

    #[test]
    fn fleet_counters_are_invariant_across_shard_counts() {
        let cfg = quick(10.0, 2, 12, 1);
        let one = cell_fleet(&cfg, 3, 1);
        for shards in [2, 4, 8] {
            assert_eq!(cell_fleet(&cfg, 3, shards), one, "shards={shards}");
        }
    }
}
