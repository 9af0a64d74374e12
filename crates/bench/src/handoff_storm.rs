//! The handoff-storm experiment: live-connection migration under load.
//!
//! §3.3.1's headline guarantee is that Synjitsu answers TCP on behalf of a
//! booting unikernel and then hands the *live* connections over through a
//! two-phase commit in XenStore, "ensuring only one of them ever handles
//! any given packet". The boot-storm experiment measures latency; this one
//! measures the data plane: every parked client runs a real `netstack`
//! TCP flow carrying an HTTP request, the booted unikernel drains the
//! proxied `Tcb`s over a conduit vchan, adopts them, replays the buffered
//! requests, and the harness checks each client's response stream
//! byte-for-byte against what the appliance serves. Any packet answered by
//! the wrong side of the handoff — or lost in the `Prepare` window — shows
//! up as a non-zero drop/dup count.
//!
//! The sweep crosses arrival rate with launch-slot capacity and reports,
//! per cell: connections migrated across the vchan drain, frames parked in
//! a `Prepare` window and replayed after `Committed`, byte-exact completed
//! exchanges, drop/dup byte counts (the zero columns *are* the result),
//! and the p50/p95/p99 client-observed request latency across the handoff.
//! Everything runs on the deterministic `jitsu_sim` engine: a fixed seed
//! reproduces the storm byte for byte.

use crate::fleet::{run_fleet, FleetStormResult};
use jitsu::concurrent::ConcurrentJitsud;
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu_sim::{SimDuration, SimRng, SimTime, Table};
use netstack::ipv4::Ipv4Addr;

/// One sweep cell: a handoff-storm configuration.
#[derive(Debug, Clone)]
pub struct HandoffStormConfig {
    /// Number of configured services (distinct DNS names).
    pub services: usize,
    /// Mean query arrival rate across all names, per second (Poisson).
    pub rate_per_sec: f64,
    /// Launch-slot semaphore capacity.
    pub launch_slots: u32,
    /// Idle TTL before a unikernel is reaped (short, so the run keeps
    /// relaunching and re-migrating).
    pub idle_ttl: SimDuration,
    /// Length of the arrival window (the sim then drains to quiescence).
    pub duration: SimDuration,
    /// RNG seed for the arrival process (and the engine).
    pub seed: u64,
}

impl HandoffStormConfig {
    /// A sweep cell: 16 light services with a 1 s idle TTL, so nearly
    /// every arrival parks on a boot and crosses the handoff.
    pub fn cell(rate_per_sec: f64, launch_slots: u32, seed: u64) -> HandoffStormConfig {
        HandoffStormConfig {
            services: 16,
            rate_per_sec,
            launch_slots,
            idle_ttl: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(10),
            seed,
        }
    }
}

/// The measured outcome of one handoff-storm cell.
#[derive(Debug, Clone, PartialEq)]
pub struct HandoffStormResult {
    /// Launch slots.
    pub launch_slots: u32,
    /// Offered arrival rate, per second.
    pub rate_per_sec: f64,
    /// Queries that arrived inside the window.
    pub queries: u64,
    /// Domains constructed.
    pub launches: u64,
    /// Connections migrated from Synjitsu to a unikernel via the vchan drain.
    pub migrated: u64,
    /// Frames parked during a `Prepare` window.
    pub queued_prepare: u64,
    /// Parked frames replayed after `Committed`.
    pub replayed: u64,
    /// HTTP exchanges whose response stream reached the client byte-exact.
    pub completed: u64,
    /// Response bytes that never reached a client (must be zero).
    pub dropped_bytes: u64,
    /// Bytes duplicated into a client's stream (must be zero).
    pub duplicated_bytes: u64,
    /// Median request latency across the handoff, ms.
    pub p50_ms: f64,
    /// 95th-percentile request latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile request latency, ms.
    pub p99_ms: f64,
    /// XenStore commits merged onto a concurrently advanced base (boot
    /// registrations and two-phase handoff flips overlapping under load).
    pub xs_merged: u64,
    /// XenStore `EAGAIN` aborts — zero on the Jitsu engine.
    pub xs_conflicts: u64,
}

/// Build the Jitsu host configuration for a cell.
fn host_config(cfg: &HandoffStormConfig) -> JitsuConfig {
    let mut host = JitsuConfig::new("handoff.example")
        .with_launch_slots(cfg.launch_slots)
        .with_idle_timeout(cfg.idle_ttl);
    for i in 0..cfg.services {
        let ip = Ipv4Addr::new(192, 168, 3, 20 + i as u8);
        let mut svc = ServiceConfig::http_site(&format!("svc{i:02}.handoff.example"), ip);
        svc.image.memory_mib = 16;
        host = host.with_service(svc);
    }
    host
}

/// The open-loop Poisson arrival schedule of one board: absolute arrival
/// times and service names, uniformly spread across the services. A pure
/// function of `(cfg, seed)`.
fn arrivals(cfg: &HandoffStormConfig, seed: u64) -> Vec<(SimTime, String)> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x4A0D_0FF5);
    let mean_gap = 1.0 / cfg.rate_per_sec;
    let window = cfg.duration.as_secs_f64();
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(mean_gap);
        if t >= window {
            break;
        }
        let service = rng.index(cfg.services);
        let name = format!("svc{service:02}.handoff.example");
        out.push((SimTime::ZERO + SimDuration::from_secs_f64(t), name));
    }
    out
}

/// Collect the handoff metrics of one quiesced world into a cell result.
fn collect_cell(cfg: &HandoffStormConfig, world: &ConcurrentJitsud) -> HandoffStormResult {
    let xs = world.xenstore_stats();
    let m = world.metrics();
    let tail = m
        .handoff
        .request_latency
        .percentiles_ms(&[50.0, 95.0, 99.0]);
    HandoffStormResult {
        launch_slots: cfg.launch_slots,
        rate_per_sec: cfg.rate_per_sec,
        queries: m.queries,
        launches: m.launches,
        migrated: m.handoff.migrated,
        queued_prepare: m.handoff.queued_during_prepare,
        replayed: m.handoff.replayed_after_commit,
        completed: m.handoff.completed,
        dropped_bytes: m.handoff.dropped_bytes,
        duplicated_bytes: m.handoff.duplicated_bytes,
        p50_ms: tail[0],
        p95_ms: tail[1],
        p99_ms: tail[2],
        xs_merged: xs.merged,
        xs_conflicts: xs.conflicts,
    }
}

/// Run one cell as a fleet of `boards` boards at `shards` shards.
fn cell_fleet(
    cfg: &HandoffStormConfig,
    boards: u32,
    shards: u32,
) -> FleetStormResult<HandoffStormResult> {
    run_fleet(
        &host_config(cfg),
        |seed| arrivals(cfg, seed),
        |world| collect_cell(cfg, world),
        cfg.seed,
        boards,
        shards,
    )
}

/// Run one cell on a single board — a one-board fleet — to quiescence and
/// collect its handoff metrics.
pub fn run_cell(cfg: &HandoffStormConfig) -> HandoffStormResult {
    cell_fleet(cfg, 1, 1).boards.remove(0)
}

/// Render a fleet run of the storm cell (`rate 24/s, 2 slots`) as a report
/// table: one row per board plus a `TOTAL` row. Deliberately *not* a
/// function of the shard count — the CI shard-invariance gate diffs this
/// output byte-for-byte across shard counts.
pub fn fleet_table(seed: u64, boards: u32, shards: u32) -> Table {
    let mut table = Table::new(
        "Handoff storm fleet: per-board live-flow migration with SERVFAIL fail-over around the board ring at 50 ms epoch barriers (Cubieboard2 x N)",
        &[
            "board",
            "queries",
            "launches",
            "migrated",
            "replayed",
            "completed",
            "dropped B",
            "dup B",
            "fo-sent",
            "fo-drop",
            "events",
            "barriers",
        ],
    );
    let cfg = HandoffStormConfig::cell(24.0, 2, seed);
    let r = cell_fleet(&cfg, boards, shards);
    for (b, br) in r.boards.iter().enumerate() {
        table.add_row(&[
            b.to_string(),
            br.queries.to_string(),
            br.launches.to_string(),
            br.migrated.to_string(),
            br.replayed.to_string(),
            br.completed.to_string(),
            br.dropped_bytes.to_string(),
            br.duplicated_bytes.to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    table.add_row(&[
        "TOTAL".to_string(),
        r.boards.iter().map(|b| b.queries).sum::<u64>().to_string(),
        r.boards.iter().map(|b| b.launches).sum::<u64>().to_string(),
        r.boards.iter().map(|b| b.migrated).sum::<u64>().to_string(),
        r.boards.iter().map(|b| b.replayed).sum::<u64>().to_string(),
        r.boards
            .iter()
            .map(|b| b.completed)
            .sum::<u64>()
            .to_string(),
        r.boards
            .iter()
            .map(|b| b.dropped_bytes)
            .sum::<u64>()
            .to_string(),
        r.boards
            .iter()
            .map(|b| b.duplicated_bytes)
            .sum::<u64>()
            .to_string(),
        r.failovers.to_string(),
        r.failover_dropped.to_string(),
        r.events.to_string(),
        r.barriers.to_string(),
    ]);
    table
}

/// The default sweep: arrival rate × launch slots.
pub fn default_sweep(seed: u64) -> Vec<HandoffStormConfig> {
    vec![
        HandoffStormConfig::cell(4.0, 1, seed),
        HandoffStormConfig::cell(12.0, 1, seed),
        HandoffStormConfig::cell(24.0, 1, seed),
        HandoffStormConfig::cell(12.0, 2, seed),
        HandoffStormConfig::cell(24.0, 2, seed),
        HandoffStormConfig::cell(24.0, 4, seed),
    ]
}

/// Render the sweep as the experiment's report table.
pub fn table(seed: u64) -> Table {
    let mut table = Table::new(
        "Handoff storm: live TCP flows migrated Synjitsu → unikernel mid-request (Cubieboard2, two-phase commit, conduit vchan drain)",
        &[
            "slots",
            "rate/s",
            "queries",
            "launches",
            "migrated",
            "prep-queued",
            "replayed",
            "completed",
            "dropped B",
            "dup B",
            "lat p50 ms",
            "lat p95 ms",
            "lat p99 ms",
        ],
    );
    for cfg in default_sweep(seed) {
        let r = run_cell(&cfg);
        table.add_row(&[
            r.launch_slots.to_string(),
            format!("{:.0}", r.rate_per_sec),
            r.queries.to_string(),
            r.launches.to_string(),
            r.migrated.to_string(),
            r.queued_prepare.to_string(),
            r.replayed.to_string(),
            r.completed.to_string(),
            r.dropped_bytes.to_string(),
            r.duplicated_bytes.to_string(),
            format!("{:.1}", r.p50_ms),
            format!("{:.1}", r.p95_ms),
            format!("{:.1}", r.p99_ms),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(rate: f64, slots: u32) -> HandoffStormConfig {
        HandoffStormConfig {
            services: 8,
            rate_per_sec: rate,
            launch_slots: slots,
            idle_ttl: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(5),
            seed: 0x4A0D,
        }
    }

    #[test]
    fn no_bytes_are_dropped_or_duplicated_across_the_handoff() {
        let r = run_cell(&quick(12.0, 2));
        assert!(r.migrated > 0, "flows must actually cross the handoff");
        assert_eq!(r.dropped_bytes, 0, "zero-drop is the §3.3.1 guarantee");
        assert_eq!(r.duplicated_bytes, 0, "exactly-once per packet");
        assert_eq!(r.replayed, r.queued_prepare, "no parked frame is lost");
        assert!(r.completed >= r.migrated);
    }

    #[test]
    fn handoff_transactions_never_abort_under_storm() {
        // The two-phase handoff flips and boot registrations of different
        // services interleave freely in the store; the Jitsu merge commits
        // every one of them without an EAGAIN in sight.
        let r = run_cell(&quick(20.0, 4));
        assert_eq!(r.xs_conflicts, 0, "{r:?}");
        assert!(r.xs_merged > 0, "overlap must exercise the merge: {r:?}");
    }

    #[test]
    fn higher_rates_migrate_more_connections() {
        let light = run_cell(&quick(3.0, 1));
        let heavy = run_cell(&quick(20.0, 1));
        assert!(heavy.migrated > light.migrated);
        assert_eq!(light.dropped_bytes + heavy.dropped_bytes, 0);
        assert_eq!(light.duplicated_bytes + heavy.duplicated_bytes, 0);
    }

    #[test]
    fn same_seed_renders_byte_identical_tables() {
        let a = table(0x4A0D).render();
        let b = table(0x4A0D).render();
        assert_eq!(a, b, "the experiment is a pure function of its seed");
    }

    #[test]
    fn fleet_tables_render_identically_at_any_shard_count() {
        let one = fleet_table(0x4A0D, 2, 1).render();
        for shards in [2, 4] {
            assert_eq!(
                fleet_table(0x4A0D, 2, shards).render(),
                one,
                "shards={shards}"
            );
        }
    }
}
