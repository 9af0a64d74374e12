//! Handoff-under-storm integration test: the paper's §3.3.1 zero-drop
//! guarantee, checked at the payload-byte level across a storm of real TCP
//! flows migrated mid-request from Synjitsu to freshly booted unikernels.
//!
//! Deterministic: the storm is a pure function of its seed, so a failure
//! here always reproduces locally with `cargo test --test handoff_storm`.

use bench::storm::{run_fleet, Cell};
use jitsu_repro::jitsu::concurrent::{ConcurrentJitsud, StormMetrics};
use jitsu_repro::platform::BoardKind;
use jitsu_repro::prelude::*;

const SEED: u64 = 0x4A0D;

/// The handoff storm's `24/s, 2 slots` cell over a 20 s window. Its 1 s
/// idle TTL keeps relaunching the services, so connections keep crossing
/// the Synjitsu → unikernel handoff throughout the run.
fn cell() -> Cell {
    let mut cell = Cell::handoff(24.0, 2, SEED);
    cell.duration = SimDuration::from_secs(20);
    cell
}

struct Outcome {
    queries: u64,
    cold_served: u64,
    warm_hits: u64,
    servfails: u64,
    migrated: u64,
    queued_prepare: u64,
    replayed: u64,
    completed: u64,
    dropped_bytes: u64,
    duplicated_bytes: u64,
    latency_count: usize,
    p50_bits: u64,
    p99_bits: u64,
    events: u64,
}

impl Outcome {
    fn new(m: &StormMetrics, events: u64) -> Outcome {
        Outcome {
            queries: m.queries,
            cold_served: m.cold_served,
            warm_hits: m.warm_hits,
            servfails: m.servfails,
            migrated: m.handoff.migrated,
            queued_prepare: m.handoff.queued_during_prepare,
            replayed: m.handoff.replayed_after_commit,
            completed: m.handoff.completed,
            dropped_bytes: m.handoff.dropped_bytes,
            duplicated_bytes: m.handoff.duplicated_bytes,
            latency_count: m.handoff.request_latency.count(),
            p50_bits: m.handoff.request_latency.p50_ms().to_bits(),
            p99_bits: m.handoff.request_latency.p99_ms().to_bits(),
            events,
        }
    }
}

/// The storm on the standalone `Sim`: the reference every other path is
/// held against.
fn run_storm() -> Outcome {
    let cell = cell();
    let mut sim = ConcurrentJitsud::sim(cell.host_config(), BoardKind::Cubieboard2.board(), SEED);
    for (at, name) in cell.arrivals(SEED) {
        ConcurrentJitsud::inject_query(&mut sim, at, &name);
    }
    sim.run();
    Outcome::new(sim.world().metrics(), sim.events_executed())
}

#[test]
fn storm_migrates_over_100_connections_with_zero_drop_zero_dup() {
    let a = run_storm();

    // The storm genuinely exercises the handoff at scale.
    assert!(
        a.migrated >= 100,
        "need >= 100 migrated connections, got {}",
        a.migrated
    );
    assert_eq!(a.servfails, 0, "this storm fits in memory");
    assert_eq!(a.queries, a.cold_served + a.warm_hits);

    // §3.3.1: "only one of them ever handles any given packet" — so every
    // parked client's HTTP exchange completes against the unikernel with
    // not a single payload byte lost or duplicated.
    assert_eq!(a.dropped_bytes, 0, "zero dropped payload bytes");
    assert_eq!(a.duplicated_bytes, 0, "zero duplicated payload bytes");
    assert_eq!(
        a.completed, a.cold_served,
        "every cold-served client finished its exchange byte-exact"
    );
    assert_eq!(
        a.replayed, a.queued_prepare,
        "every frame parked in a Prepare window was replayed"
    );
    assert_eq!(a.latency_count as u64, a.cold_served);
}

/// Golden counters for seed `0x4A0D`, pinned when the zero-copy frame path
/// landed: the `FrameBuf` refactor threads shared views from the bridge to
/// the unikernel, and this test proves the migrated-byte accounting did not
/// move by a single connection, byte or event in the process. If a future
/// change shifts these numbers it must be a deliberate behavioural change,
/// re-pinned in review — never an accidental side effect of buffer plumbing.
#[test]
fn storm_counters_match_the_pre_zero_copy_golden_values() {
    let a = run_storm();
    let golden = (
        a.queries,
        a.cold_served,
        a.warm_hits,
        a.migrated,
        a.queued_prepare,
        a.replayed,
        a.completed,
        a.dropped_bytes,
        a.duplicated_bytes,
        a.events,
    );
    assert_eq!(
        golden,
        (462, 147, 315, 146, 0, 0, 147, 0, 0, 1407),
        "handoff storm counters moved for seed {SEED:#x}"
    );
}

/// Run the identical storm as a one-board fleet on the sharded engine.
///
/// `board_seed(seed, 0) == seed` and a lone board keeps fail-over off, so
/// at *any* shard count this must reproduce [`run_storm`]'s world
/// bit-for-bit: a domain is the same `Sim` executor as the standalone
/// one, and a lone board without fail-over does nothing at a barrier.
fn run_storm_sharded(shards: u32) -> Outcome {
    let fleet = run_fleet(&cell(), 1, shards);
    Outcome::new(fleet.boards[0].metrics(), fleet.events)
}

/// The bench fleet runner at 1 and 4 shards reproduces the standalone
/// `Sim`'s golden counters for seed `0x4A0D` bit-exactly — 462 queries,
/// 146 migrated, 0 dropped, 0 duplicated.
#[test]
fn four_shard_storm_reproduces_the_flat_engine_golden_counters() {
    for shards in [1u32, 4] {
        let a = run_storm_sharded(shards);
        let golden = (
            a.queries,
            a.cold_served,
            a.warm_hits,
            a.migrated,
            a.queued_prepare,
            a.replayed,
            a.completed,
            a.dropped_bytes,
            a.duplicated_bytes,
            a.events,
        );
        assert_eq!(
            golden,
            (462, 147, 315, 146, 0, 0, 147, 0, 0, 1407),
            "sharded storm counters moved for seed {SEED:#x} at {shards} shards"
        );
    }
    // And the latency tail, down to the bit, against the standalone
    // `ConcurrentJitsud::sim` run.
    let flat = run_storm();
    let sharded = run_storm_sharded(4);
    assert_eq!(sharded.p50_bits, flat.p50_bits);
    assert_eq!(sharded.p99_bits, flat.p99_bits);
    assert_eq!(sharded.latency_count, flat.latency_count);
    assert_eq!(sharded.servfails, flat.servfails);
}

#[test]
fn handoff_storm_is_deterministic_under_a_fixed_seed() {
    let a = run_storm();
    let b = run_storm();
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.migrated, b.migrated);
    assert_eq!(a.queued_prepare, b.queued_prepare);
    assert_eq!(a.replayed, b.replayed);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.dropped_bytes, b.dropped_bytes);
    assert_eq!(a.duplicated_bytes, b.duplicated_bytes);
    assert_eq!(a.p50_bits, b.p50_bits);
    assert_eq!(a.p99_bits, b.p99_bits);
    assert_eq!(a.events, b.events);
}

/// The storm reports, rendered in-process, against the goldens recorded on
/// an earlier commit: both sweeps as `reproduce` prints them, and both
/// fleet tables at 4 boards, at 1 and at 4 shards. A moved row, column or
/// count fails here, not only in CI's shell diffs.
#[test]
fn storm_reports_match_their_goldens() {
    let golden = |name: &str| {
        let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let reproduce = golden("reproduce.txt");
    for (name, table) in [
        ("boot", bench::storm::boot_sweep(0xB007)),
        ("handoff", bench::storm::handoff_sweep(0x4A0D)),
    ] {
        assert!(
            reproduce.contains(&table.render()),
            "{name} storm sweep differs from tests/golden/reproduce.txt"
        );
    }
    let (boot, handoff) = (
        golden("boot_storm_fleet.txt"),
        golden("handoff_storm_fleet.txt"),
    );
    for shards in [1, 4] {
        let table = bench::storm::boot_fleet(0x4A0D, 4, shards);
        assert!(
            boot.contains(&table.render()),
            "boot fleet, {shards} shards"
        );
        let table = bench::storm::handoff_fleet(0x4A0D, 4, shards);
        assert!(
            handoff.contains(&table.render()),
            "handoff fleet, {shards} shards"
        );
    }
}
