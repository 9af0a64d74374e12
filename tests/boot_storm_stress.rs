//! Boot-storm stress test: a large, deterministic storm through the
//! concurrent engine, exercising slot contention, coalescing, memory
//! admission, reaping and drain-relaunch re-entry all at once.
//!
//! The heavyweight case is `#[ignore]`d so the default `cargo test` stays
//! snappy; CI runs it via `cargo test -- --include-ignored`. It is fully
//! deterministic — a failure here always reproduces locally with the same
//! command.

use bench::storm::Cell;
use jitsu_repro::jitsu::concurrent::ConcurrentJitsud;
use jitsu_repro::platform::BoardKind;
use jitsu_repro::prelude::*;

const SEED: u64 = 0x5708;

/// 60 × 16 MiB = 960 MiB against 832 MiB of guest memory, queried at
/// 32/s for 30 s with a 2 s idle TTL: the storm crosses the admission
/// limit, so SERVFAIL, reaping and re-entry all occur within one run.
fn cell() -> Cell {
    let mut cell = Cell::memory_bound(60, SEED);
    cell.rate_per_sec = 32.0;
    cell.idle_ttl = SimDuration::from_secs(2);
    cell.duration = SimDuration::from_secs(30);
    cell
}

struct StormOutcome {
    queries: u64,
    unknown: u64,
    launches: u64,
    cold_served: u64,
    coalesced: u64,
    warm_hits: u64,
    servfails: u64,
    reaps: u64,
    syn_handoffs: u64,
    ttfb_count: usize,
    p50_bits: u64,
    p99_bits: u64,
    events: u64,
}

fn run_storm() -> StormOutcome {
    let cell = cell();
    let mut sim = ConcurrentJitsud::sim(cell.host_config(), BoardKind::Cubieboard2.board(), SEED);
    for (at, name) in cell.arrivals(SEED) {
        ConcurrentJitsud::inject_query(&mut sim, at, &name);
    }
    sim.run();
    let m = sim.world().metrics();
    StormOutcome {
        queries: m.queries,
        unknown: m.unknown,
        launches: m.launches,
        cold_served: m.cold_served,
        coalesced: m.coalesced,
        warm_hits: m.warm_hits,
        servfails: m.servfails,
        reaps: m.reaps,
        syn_handoffs: m.syn_handoffs,
        ttfb_count: m.ttfb.count(),
        p50_bits: m.ttfb.p50_ms().to_bits(),
        p99_bits: m.ttfb.p99_ms().to_bits(),
        events: sim.events_executed(),
    }
}

/// ~960 arrivals over 30 s of virtual time, past the memory limit. Fast in
/// wall-clock terms (a few seconds) but big enough to hit every lifecycle
/// transition; run explicitly or with `--include-ignored`.
#[test]
#[ignore = "storm stress: run with --include-ignored (CI does)"]
fn large_storm_is_deterministic_and_accounts_for_every_query() {
    let a = run_storm();

    // Every query landed in exactly one bucket, and every parked client
    // was eventually served once its boot completed.
    assert_eq!(a.unknown, 0);
    assert_eq!(
        a.queries,
        a.servfails + a.warm_hits + a.cold_served,
        "quiescence bookkeeping must balance"
    );
    assert_eq!(a.ttfb_count as u64, a.warm_hits + a.cold_served);

    // The storm actually stresses the interesting regimes.
    assert!(a.queries > 700, "queries = {}", a.queries);
    assert!(a.launches > 100, "launches = {}", a.launches);
    assert!(a.servfails > 0, "past the memory limit");
    assert!(a.reaps > 50, "the 2 s TTL must reap continuously");
    assert!(a.coalesced > 0, "duplicates must coalesce");
    assert!(a.syn_handoffs > 0 && a.syn_handoffs <= a.cold_served);
    // Cold starts dominate the tail; a lost-SYN regime (>1 s without
    // Synjitsu) must NOT appear — Synjitsu hides boot latency.
    assert!(f64::from_bits(a.p99_bits) < 1_000.0);

    // Determinism: the identical seed replays the identical storm.
    let b = run_storm();
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.launches, b.launches);
    assert_eq!(a.servfails, b.servfails);
    assert_eq!(a.reaps, b.reaps);
    assert_eq!(a.coalesced, b.coalesced);
    assert_eq!(a.syn_handoffs, b.syn_handoffs);
    assert_eq!(a.p50_bits, b.p50_bits);
    assert_eq!(a.p99_bits, b.p99_bits);
    assert_eq!(a.events, b.events);
}

/// A miniature always-on storm so the suite exercises the engine even
/// without `--include-ignored`.
#[test]
fn small_storm_smoke() {
    let cell = cell();
    let mut sim = ConcurrentJitsud::sim(cell.host_config(), BoardKind::Cubieboard2.board(), SEED);
    for i in 0..10 {
        let at = SimTime::from_millis(i as u64 * 50);
        ConcurrentJitsud::inject_query(&mut sim, at, &cell.name(i % 4));
    }
    sim.run();
    let m = sim.world().metrics();
    assert_eq!(m.queries, 10);
    assert_eq!(m.launches, 4);
    assert_eq!(m.servfails, 0);
    assert_eq!(m.queries, m.warm_hits + m.cold_served);
}
