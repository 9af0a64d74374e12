//! The storm experiments: Jitsu under open-loop load, one board or a fleet.
//!
//! §3.3's scaling story — launch *while* answering, coalesce duplicate
//! queries, reap idle unikernels, fail over with `SERVFAIL` once memory is
//! exhausted — and §3.3.1's live-connection handoff only show up when many
//! DNS queries for many names overlap. Both experiments drive
//! [`ConcurrentJitsud`] with open-loop Poisson arrivals spread uniformly
//! over the services of one [`Cell`], and differ only in what they report:
//!
//! * the **boot storm** sweeps arrival rate × launch slots in a slot-bound
//!   regime (the working set fits; past the toolstack's ≈ slots / 120 ms
//!   build throughput launches queue and the tail grows gracefully) and in
//!   a memory-bound one (more names than the board holds; the excess is
//!   answered `SERVFAIL`), and prints p50/p95/p99 time-to-first-byte;
//! * the **handoff storm** parks each client on a booting unikernel as a
//!   real `netstack` TCP flow, migrates the proxied `Tcb`s across the
//!   two-phase commit and checks every response stream byte for byte: the
//!   zero drop/dup columns are the result.
//!
//! A cell runs as a *fleet* ([`run_fleet`]): N boards, each its own
//! `ConcurrentJitsud` world, as domains of a [`ShardedSim`] with
//! `SERVFAIL` fail-over around the board ring at epoch barriers
//! (`jitsu::fleet`). The single-board sweep is the one-board fleet. Board
//! seeds derive from the cell's seed and the board id, never the shard, so
//! every report is a pure function of the seed and the board count.

use jitsu::concurrent::{ConcurrentJitsud, StormMetrics};
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu_sim::{DomainId, ShardedSim, SimDuration, SimRng, SimTime, Table};
use netstack::ipv4::Ipv4Addr;
use platform::BoardKind;

/// The virtual-time epoch of every fleet: cross-board fail-over retries
/// are delivered at the next 50 ms barrier, a plausible DNS client retry
/// latency and long enough that barrier overhead is noise.
const FLEET_EPOCH: SimDuration = SimDuration::from_millis(50);

/// The RNG seed of one board: board 0 keeps the cell's seed unchanged;
/// later boards spread via the golden-ratio multiplier so their engine and
/// arrival streams are unrelated.
fn board_seed(seed: u64, board: u32) -> u64 {
    seed ^ u64::from(board).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What sets one experiment's cells apart from the other's. The reports'
/// goldens depend on every field, so cells take them from [`BOOT`] or
/// [`HANDOFF`] and never set them.
#[derive(Debug, Clone, Copy)]
struct Experiment {
    /// The DNS zone of the services.
    zone: &'static str,
    /// Digits of the service index in a name (`svc007` or `svc07`).
    digits: usize,
    /// Third octet of the first service address.
    subnet: u8,
    /// XORed into a board's seed to seed its arrival stream.
    salt: u64,
}

/// The boot storm: `svc000.storm.example` at `192.168.2.20` onwards.
const BOOT: Experiment = Experiment {
    zone: "storm.example",
    digits: 3,
    subnet: 2,
    salt: 0xB007_5708,
};

/// The handoff storm: `svc00.handoff.example` at `192.168.3.20` onwards.
const HANDOFF: Experiment = Experiment {
    zone: "handoff.example",
    digits: 2,
    subnet: 3,
    salt: 0x4A0D_0FF5,
};

/// One storm: `services` names on a Cubieboard2, queried by open-loop
/// Poisson arrivals for `duration`, then drained to quiescence. Arrivals
/// never wait for the system, which is what makes the overload regimes
/// visible.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Regime label shown in the boot-storm reports.
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
    /// RNG seed of board 0's arrivals and engine.
    pub seed: u64,
    experiment: Experiment,
}

impl Cell {
    /// A slot-bound boot-storm cell: 24 light services (384 MiB working
    /// set, well inside the Cubieboard2's 832 MiB of guest memory) with a
    /// 1 s idle TTL so nearly every arrival is a cold start.
    pub fn slot_bound(rate_per_sec: f64, launch_slots: u32, seed: u64) -> Cell {
        Cell {
            label: "slot-bound",
            services: 24,
            service_mib: 16,
            rate_per_sec,
            launch_slots,
            idle_ttl: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(20),
            seed,
            experiment: BOOT,
        }
    }

    /// A memory-bound boot-storm cell: `services` names with no reaping
    /// inside the run, so the board fills up and stays full.
    pub fn memory_bound(services: usize, seed: u64) -> Cell {
        Cell {
            label: "memory-bound",
            services,
            idle_ttl: SimDuration::from_secs(600),
            ..Cell::slot_bound(8.0, 2, seed)
        }
    }

    /// A handoff-storm cell: 16 light services with a 1 s idle TTL, so
    /// nearly every arrival parks on a boot and crosses the handoff.
    pub fn handoff(rate_per_sec: f64, launch_slots: u32, seed: u64) -> Cell {
        Cell {
            label: "handoff",
            services: 16,
            duration: SimDuration::from_secs(10),
            experiment: HANDOFF,
            ..Cell::slot_bound(rate_per_sec, launch_slots, seed)
        }
    }

    /// The DNS name of service `i`.
    pub fn name(&self, i: usize) -> String {
        let Experiment { zone, digits, .. } = self.experiment;
        format!("svc{i:0digits$}.{zone}")
    }

    /// The Jitsu host configuration of one board. Service addresses run
    /// from `.20` of the experiment's /24 and spill into the next /24
    /// every 200 services.
    pub fn host_config(&self) -> JitsuConfig {
        let mut host = JitsuConfig::new(self.experiment.zone)
            .with_launch_slots(self.launch_slots)
            .with_idle_timeout(self.idle_ttl);
        for i in 0..self.services {
            let subnet = self.experiment.subnet + (i / 200) as u8;
            let ip = Ipv4Addr::new(192, 168, subnet, 20 + (i % 200) as u8);
            let mut svc = ServiceConfig::http_site(&self.name(i), ip);
            svc.image.memory_mib = self.service_mib;
            host = host.with_service(svc);
        }
        host
    }

    /// The arrival times and queried names of the board seeded `seed`: a
    /// pure function of the cell and `seed`.
    pub fn arrivals(&self, seed: u64) -> Vec<(SimTime, String)> {
        let mut rng = SimRng::seed_from_u64(seed ^ self.experiment.salt);
        let mean_gap = 1.0 / self.rate_per_sec;
        let window = self.duration.as_secs_f64();
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += rng.exponential(mean_gap);
            if t >= window {
                break;
            }
            let name = self.name(rng.index(self.services));
            out.push((SimTime::ZERO + SimDuration::from_secs_f64(t), name));
        }
        out
    }
}

/// A cell's fleet after the drain.
pub struct Fleet {
    /// Every board's quiesced world, in board-id order.
    pub boards: Vec<ConcurrentJitsud>,
    /// Events the sharded engine executed (invariant in the shard count).
    pub events: u64,
    /// Epoch barriers the sharded engine processed (likewise).
    pub barriers: u64,
}

impl Fleet {
    /// A per-board counter summed over the boards.
    fn sum(&self, count: impl Fn(&StormMetrics) -> u64) -> u64 {
        self.boards.iter().map(|w| count(w.metrics())).sum()
    }
}

/// Run `cell` as a fleet of `boards` boards at `shards` shards, to
/// quiescence.
///
/// Board `b` is seeded `board_seed(cell.seed, b)` and receives the
/// arrivals of that seed. `SERVFAIL`ed queries fail over around the board
/// ring at epoch barriers; a lone board keeps fail-over off, so a
/// one-board fleet is the single-board cell. The result is invariant in
/// `shards`.
pub fn run_fleet(cell: &Cell, boards: u32, shards: u32) -> Fleet {
    let boards = boards.max(1);
    let mut host = cell.host_config();
    host.failover = boards > 1;
    let mut sim = ShardedSim::new(shards, FLEET_EPOCH);
    for b in 0..boards {
        let seed = board_seed(cell.seed, b);
        let mut world = ConcurrentJitsud::world(host.clone(), BoardKind::Cubieboard2.board(), seed);
        world.set_failover_hops(boards - 1);
        sim.add_domain(world, seed);
    }
    for b in 0..boards {
        for (at, name) in cell.arrivals(board_seed(cell.seed, b)) {
            jitsu::fleet::inject_query(&mut sim, DomainId(b), at, &name);
        }
    }
    sim.run();
    Fleet {
        events: sim.events_executed(),
        barriers: sim.barriers(),
        boards: sim.into_worlds(),
    }
}

/// One column of a storm report.
#[derive(Clone, Copy)]
enum Column {
    /// A knob of the cell, repeated on each of its rows.
    Knob(fn(&Cell) -> String),
    /// The board's index, and `TOTAL` on the cell's total row.
    Board,
    /// A per-board counter; the total row sums it over the boards.
    Count(fn(&StormMetrics) -> u64),
    /// A per-board figure to one decimal place, absent from the total row.
    Tenths(fn(&StormMetrics) -> f64),
    /// A fleet-wide counter, on the total row only.
    Total(fn(&Fleet) -> u64),
}

/// Run each cell as a fleet and render one row per board. A report with a
/// [`Column::Board`] also gets a `TOTAL` row per cell. `shards` never
/// shows: CI diffs the fleet reports byte for byte across shard counts.
fn report(
    title: &str,
    columns: &[(&str, Column)],
    cells: &[Cell],
    boards: u32,
    shards: u32,
) -> Table {
    let headers: Vec<&str> = columns.iter().map(|&(header, _)| header).collect();
    let mut table = Table::new(title, &headers);
    let totals = columns.iter().any(|(_, c)| matches!(c, Column::Board));
    for cell in cells {
        let fleet = run_fleet(cell, boards, shards);
        for (b, world) in fleet.boards.iter().enumerate() {
            let m = world.metrics();
            let row: Vec<String> = columns
                .iter()
                .map(|&(_, column)| match column {
                    Column::Knob(knob) => knob(cell),
                    Column::Board => b.to_string(),
                    Column::Count(count) => count(m).to_string(),
                    Column::Tenths(figure) => format!("{:.1}", figure(m)),
                    Column::Total(_) => "-".to_string(),
                })
                .collect();
            table.add_row(&row);
        }
        if totals {
            let row: Vec<String> = columns
                .iter()
                .map(|&(_, column)| match column {
                    Column::Knob(knob) => knob(cell),
                    Column::Board => "TOTAL".to_string(),
                    Column::Count(count) => fleet.sum(count).to_string(),
                    Column::Tenths(_) => "-".to_string(),
                    Column::Total(total) => total(&fleet).to_string(),
                })
                .collect();
            table.add_row(&row);
        }
    }
    table
}

/// The boot-storm sweep: arrival rate × launch slots in the slot-bound
/// regime, then the memory-bound pair (below and past the board's limit).
pub fn boot_sweep(seed: u64) -> Table {
    report(
        "Boot storm: open-loop Poisson arrivals over N services (Cubieboard2, optimised toolstack, Synjitsu on)",
        &[
            ("regime", Column::Knob(|c| c.label.to_string())),
            ("services", Column::Knob(|c| c.services.to_string())),
            ("slots", Column::Knob(|c| c.launch_slots.to_string())),
            ("rate/s", Column::Knob(|c| format!("{:.0}", c.rate_per_sec))),
            ("queries", Column::Count(|m| m.queries)),
            ("launches", Column::Count(|m| m.launches)),
            ("coalesced", Column::Count(|m| m.coalesced)),
            ("warm", Column::Count(|m| m.warm_hits)),
            ("reaps", Column::Count(|m| m.reaps)),
            ("SERVFAIL %", Column::Tenths(|m| m.servfail_rate() * 100.0)),
            ("TTFB p50 ms", Column::Tenths(|m| m.ttfb.p50_ms())),
            ("TTFB p95 ms", Column::Tenths(|m| m.ttfb.p95_ms())),
            ("TTFB p99 ms", Column::Tenths(|m| m.ttfb.p99_ms())),
        ],
        &[
            Cell::slot_bound(2.0, 1, seed),
            Cell::slot_bound(8.0, 1, seed),
            Cell::slot_bound(24.0, 1, seed),
            Cell::slot_bound(8.0, 2, seed),
            Cell::slot_bound(24.0, 2, seed),
            Cell::slot_bound(24.0, 4, seed),
            // 40 × 16 MiB = 640 MiB fits; 80 × 16 MiB = 1280 MiB does not
            // (the Cubieboard2 offers 832 MiB of guest memory).
            Cell::memory_bound(40, seed),
            Cell::memory_bound(80, seed),
        ],
        1,
        1,
    )
}

/// The boot-storm fleet: one slot-bound and one memory-bound cell (the
/// latter is where fail-over between boards fires), each with a 10 s
/// window per board.
pub fn boot_fleet(seed: u64, boards: u32, shards: u32) -> Table {
    let window = SimDuration::from_secs(10);
    let slot = Cell {
        duration: window,
        ..Cell::slot_bound(8.0, 2, seed)
    };
    // Heavier images than the sweep's: each board exhausts its 832 MiB of
    // guest memory inside the shortened window, so the fail-over ring
    // carries traffic.
    let memory = Cell {
        duration: window,
        service_mib: 48,
        ..Cell::memory_bound(60, seed)
    };
    report(
        "Boot storm fleet: per-board Poisson arrivals, SERVFAIL fail-over around the board ring at 50 ms epoch barriers (Cubieboard2 x N)",
        &[
            ("regime", Column::Knob(|c| c.label.to_string())),
            ("board", Column::Board),
            ("queries", Column::Count(|m| m.queries)),
            ("launches", Column::Count(|m| m.launches)),
            ("cold", Column::Count(|m| m.cold_served)),
            ("warm", Column::Count(|m| m.warm_hits)),
            ("SERVFAIL", Column::Count(|m| m.servfails)),
            ("fo-sent", Column::Total(|f| f.sum(|m| m.failovers))),
            ("fo-drop", Column::Total(|f| f.sum(|m| m.failover_dropped))),
            ("reaps", Column::Count(|m| m.reaps)),
            ("events", Column::Total(|f| f.events)),
            ("barriers", Column::Total(|f| f.barriers)),
        ],
        &[slot, memory],
        boards,
        shards,
    )
}

/// The handoff-storm sweep: arrival rate × launch slots.
pub fn handoff_sweep(seed: u64) -> Table {
    report(
        "Handoff storm: live TCP flows migrated Synjitsu → unikernel mid-request (Cubieboard2, two-phase commit, conduit vchan drain)",
        &[
            ("slots", Column::Knob(|c| c.launch_slots.to_string())),
            ("rate/s", Column::Knob(|c| format!("{:.0}", c.rate_per_sec))),
            ("queries", Column::Count(|m| m.queries)),
            ("launches", Column::Count(|m| m.launches)),
            ("migrated", Column::Count(|m| m.handoff.migrated)),
            ("prep-queued", Column::Count(|m| m.handoff.queued_during_prepare)),
            ("replayed", Column::Count(|m| m.handoff.replayed_after_commit)),
            ("completed", Column::Count(|m| m.handoff.completed)),
            ("dropped B", Column::Count(|m| m.handoff.dropped_bytes)),
            ("dup B", Column::Count(|m| m.handoff.duplicated_bytes)),
            ("lat p50 ms", Column::Tenths(|m| m.handoff.request_latency.p50_ms())),
            ("lat p95 ms", Column::Tenths(|m| m.handoff.request_latency.p95_ms())),
            ("lat p99 ms", Column::Tenths(|m| m.handoff.request_latency.p99_ms())),
        ],
        &[
            Cell::handoff(4.0, 1, seed),
            Cell::handoff(12.0, 1, seed),
            Cell::handoff(24.0, 1, seed),
            Cell::handoff(12.0, 2, seed),
            Cell::handoff(24.0, 2, seed),
            Cell::handoff(24.0, 4, seed),
        ],
        1,
        1,
    )
}

/// The handoff-storm fleet: the `24/s, 2 slots` cell on every board.
pub fn handoff_fleet(seed: u64, boards: u32, shards: u32) -> Table {
    report(
        "Handoff storm fleet: per-board live-flow migration with SERVFAIL fail-over around the board ring at 50 ms epoch barriers (Cubieboard2 x N)",
        &[
            ("board", Column::Board),
            ("queries", Column::Count(|m| m.queries)),
            ("launches", Column::Count(|m| m.launches)),
            ("migrated", Column::Count(|m| m.handoff.migrated)),
            ("replayed", Column::Count(|m| m.handoff.replayed_after_commit)),
            ("completed", Column::Count(|m| m.handoff.completed)),
            ("dropped B", Column::Count(|m| m.handoff.dropped_bytes)),
            ("dup B", Column::Count(|m| m.handoff.duplicated_bytes)),
            ("fo-sent", Column::Total(|f| f.sum(|m| m.failovers))),
            ("fo-drop", Column::Total(|f| f.sum(|m| m.failover_dropped))),
            ("events", Column::Total(|f| f.events)),
            ("barriers", Column::Total(|f| f.barriers)),
        ],
        &[Cell::handoff(24.0, 2, seed)],
        boards,
        shards,
    )
}

/// Parse the storm binaries' command line: an optional positional
/// hexadecimal seed plus `--boards N` and `--shards N` flags, in any
/// order, defaulting to `default_seed`, 1 board and 1 shard. Anything else
/// prints a usage line and exits with status 2.
pub fn parse_storm_args(default_seed: u64) -> (u64, u32, u32) {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse_args(args, default_seed).unwrap_or_else(|bad| {
        eprintln!("{bin}: cannot parse {bad:?}\nusage: {bin} [SEED_HEX] [--boards N] [--shards N]");
        std::process::exit(2)
    })
}

/// The arguments' `(seed, boards, shards)`, or the first argument that is
/// not a hexadecimal seed, a known flag or a flag's decimal value.
fn parse_args(
    mut args: impl Iterator<Item = String>,
    default_seed: u64,
) -> Result<(u64, u32, u32), String> {
    let mut seed = default_seed;
    let mut boards = 1u32;
    let mut shards = 1u32;
    while let Some(arg) = args.next() {
        let count = match arg.as_str() {
            "--boards" => &mut boards,
            "--shards" => &mut shards,
            s => {
                let hex = s.strip_prefix("0x").unwrap_or(s);
                seed = u64::from_str_radix(hex, 16).map_err(|_| arg.clone())?;
                continue;
            }
        };
        let value = args.next().ok_or_else(|| arg.clone())?;
        *count = value.parse().map_err(|_| format!("{arg} {value}"))?;
    }
    Ok((seed, boards.max(1), shards.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Run `cell` on one board and return the quiesced world.
    fn board(cell: &Cell) -> ConcurrentJitsud {
        run_fleet(cell, 1, 1).boards.remove(0)
    }

    /// A small boot-storm cell (seconds of virtual time, not minutes).
    fn quick(rate: f64, slots: u32, services: usize, ttl_secs: u64) -> Cell {
        Cell {
            services,
            idle_ttl: SimDuration::from_secs(ttl_secs),
            duration: SimDuration::from_secs(6),
            ..Cell::slot_bound(rate, slots, 0xB007)
        }
    }

    /// A small handoff-storm cell.
    fn quick_handoff(rate: f64, slots: u32) -> Cell {
        Cell {
            services: 8,
            duration: SimDuration::from_secs(5),
            ..Cell::handoff(rate, slots, 0x4A0D)
        }
    }

    #[test]
    fn p99_degrades_gracefully_past_slot_capacity() {
        // One slot sustains ≈8 launches/s; rate 16 overloads it.
        let light = board(&quick(2.0, 1, 12, 1));
        let heavy = board(&quick(16.0, 1, 12, 1));
        let (light, heavy) = (light.metrics(), heavy.metrics());
        assert_eq!(light.servfails, 0);
        assert_eq!(heavy.servfails, 0, "overload queues, it does not fail");
        assert!(
            heavy.ttfb.p99_ms() > light.ttfb.p99_ms(),
            "p99 {:.0} ms (overload) vs {:.0} ms (light)",
            heavy.ttfb.p99_ms(),
            light.ttfb.p99_ms()
        );
        assert!(heavy.launches > 0 && heavy.coalesced > 0);
        // Still served: every query is accounted for and none failed.
        assert_eq!(heavy.queries, heavy.warm_hits + heavy.cold_served);
    }

    #[test]
    fn servfail_only_past_the_memory_limit() {
        // Rate 24/s for 10 s ≈ 240 arrivals: enough to touch nearly all
        // configured names in both cells.
        let window = SimDuration::from_secs(10);
        let fits = board(&Cell {
            duration: window,
            ..quick(24.0, 2, 30, 600)
        });
        let overflows = board(&Cell {
            duration: window,
            ..quick(24.0, 2, 60, 600)
        });
        let (fits, overflows) = (fits.metrics(), overflows.metrics());
        assert_eq!(
            fits.servfails, 0,
            "30 × 16 MiB = 480 MiB fits in 832 MiB: no SERVFAIL"
        );
        assert!(
            overflows.servfails > 0,
            "60 × 16 MiB = 960 MiB exceeds 832 MiB: SERVFAIL past the limit"
        );
        assert!(overflows.servfail_rate() > 0.0 && overflows.servfail_rate() < 1.0);
        assert!(overflows.launches <= 52, "at most 832/16 domains fit");
    }

    #[test]
    fn storms_merge_transactions_instead_of_aborting() {
        // With more than one launch slot, boot-registration transactions
        // overlap; the Jitsu merge engine commits all of them with zero
        // EAGAIN aborts — the Figure 3 property, observed under storm load.
        let xs = board(&quick(16.0, 4, 16, 1)).xenstore_stats();
        assert_eq!(xs.conflicts, 0, "no storm-time aborts: {xs:?}");
        assert!(xs.merged > 0, "overlapping boots must merge: {xs:?}");
    }

    #[test]
    fn storm_bookkeeping_balances() {
        let world = board(&quick(10.0, 2, 12, 1));
        let m = world.metrics();
        // At quiescence every query landed in exactly one bucket.
        assert_eq!(m.queries, m.servfails + m.warm_hits + m.cold_served);
        // Every parked SYN was handed over; clients arriving after the
        // handoff point connect to the unikernel directly, so handoffs can
        // only undercount the queue.
        assert!(m.syn_handoffs > 0);
        assert!(m.syn_handoffs <= m.cold_served);
        assert!(m.reaps > 0, "short TTL must reap between bursts");
    }

    #[test]
    fn no_bytes_are_dropped_or_duplicated_across_the_handoff() {
        let world = board(&quick_handoff(12.0, 2));
        let h = &world.metrics().handoff;
        assert!(h.migrated > 0, "flows must actually cross the handoff");
        assert_eq!(h.dropped_bytes, 0, "zero-drop is the §3.3.1 guarantee");
        assert_eq!(h.duplicated_bytes, 0, "exactly-once per packet");
        assert_eq!(
            h.replayed_after_commit, h.queued_during_prepare,
            "no parked frame is lost"
        );
        assert!(h.completed >= h.migrated);
    }

    #[test]
    fn handoff_transactions_never_abort_under_storm() {
        // The two-phase handoff flips and boot registrations of different
        // services interleave freely in the store; the Jitsu merge commits
        // every one of them without an EAGAIN in sight.
        let xs = board(&quick_handoff(20.0, 4)).xenstore_stats();
        assert_eq!(xs.conflicts, 0, "{xs:?}");
        assert!(xs.merged > 0, "overlap must exercise the merge: {xs:?}");
    }

    #[test]
    fn higher_rates_migrate_more_connections() {
        let light = board(&quick_handoff(3.0, 1));
        let heavy = board(&quick_handoff(20.0, 1));
        let (light, heavy) = (&light.metrics().handoff, &heavy.metrics().handoff);
        assert!(heavy.migrated > light.migrated);
        assert_eq!(light.dropped_bytes + heavy.dropped_bytes, 0);
        assert_eq!(light.duplicated_bytes + heavy.duplicated_bytes, 0);
    }

    #[test]
    fn a_400_service_cell_has_distinct_names_and_addresses() {
        for cell in [
            Cell::memory_bound(400, 1),
            Cell {
                services: 400,
                ..Cell::handoff(8.0, 2, 1)
            },
        ] {
            let host = cell.host_config();
            let names: BTreeSet<&str> = host.services.iter().map(|s| s.name.as_str()).collect();
            let ips: BTreeSet<[u8; 4]> = host.services.iter().map(|s| s.ip.0).collect();
            assert_eq!((names.len(), ips.len()), (400, 400), "{}", cell.name(0));
        }
    }

    #[test]
    fn board_zero_keeps_the_experiment_seed() {
        assert_eq!(board_seed(0x4A0D, 0), 0x4A0D);
        assert_eq!(board_seed(0xB007, 0), 0xB007);
    }

    #[test]
    fn args_parse_in_any_order_with_defaults() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()), 0xB007);
        assert_eq!(parse(&[]), Ok((0xB007, 1, 1)));
        assert_eq!(parse(&["4A0D"]), Ok((0x4A0D, 1, 1)));
        assert_eq!(
            parse(&["0x4A0D", "--boards", "4", "--shards", "2"]),
            Ok((0x4A0D, 4, 2))
        );
        assert_eq!(
            parse(&["--shards", "4", "--boards", "3", "1"]),
            Ok((0x1, 3, 4))
        );
        assert_eq!(parse(&["--boards", "0"]), Ok((0xB007, 1, 1)));
        // What it cannot parse it rejects, naming the argument.
        assert_eq!(parse(&["--shard", "4"]), Err("--shard".to_string()));
        assert_eq!(parse(&["4A0D", "zz"]), Err("zz".to_string()));
        assert_eq!(
            parse(&["--boards", "four"]),
            Err("--boards four".to_string())
        );
        assert_eq!(parse(&["--shards", "-1"]), Err("--shards -1".to_string()));
        assert_eq!(parse(&["--shards"]), Err("--shards".to_string()));
    }

    #[test]
    fn board_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..16).map(|b| board_seed(0x4A0D, b)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
