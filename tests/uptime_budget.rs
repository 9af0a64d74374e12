//! A board's ten-thousandth launch→reap cycle must cost what its first did.
//!
//! Jitsu's premise is a daemon that summons and reaps unikernels for as long
//! as the board is up, so nothing a cycle touches may grow with the number of
//! cycles before it. This is the oracle for that: one cell of the shape the
//! benchmark of record's `long_horizon` runs (24 services of 16 MiB, 2 launch
//! slots, a 1 s idle TTL, 16 queries/s) kept alive for 2,400 virtual seconds
//! — four times as long — in 5 s slices, under a counting `GlobalAlloc`.
//! Three things are held:
//!
//! * **Every host-wide table is back at its baseline after the drain.** The
//!   event-channel and grant tables, the bridge's ports and the page pool's
//!   assignments read what they read before the first query; the store reads
//!   what it read after the round that summoned every service once
//!   (registration is lazy, see `tests/xenstore_leak.rs`). A table that keeps
//!   an entry per domain ever built fails here, whatever its scan costs.
//! * **A cycle allocates what it did before the storm.** A solitary
//!   launch→reap cycle on the drained board is counted before the first
//!   slice and after the last, 17,788 launches later.
//! * **What the heap still holds afterwards is accounted for**, per launch
//!   and per structure: the two `LatencyRecorder`s are append-only by design
//!   (ROADMAP item 1 replaces them), and everything else nets to zero. The
//!   daemon's trace is a ring allocated in full when the daemon is built, so
//!   it holds the same heap at both ends of the interval.
//!
//! The arrivals come from a generator of this file's own, like
//! `tests/launch_budget.rs`, and like that file this one counts with
//! `tests/support/counting_alloc.rs` and must stay a single `#[test]`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use jitsu_repro::prelude::*;
use jitsu_repro::sim::TRACE_CAPACITY;

const SERVICES: usize = 24;
const SLICE_S: u64 = 5;
const SLICES: usize = 480;
const TENTH: usize = SLICES / 10;
const QUERIES: usize = 16 * SLICE_S as usize * SLICES;
const NS: u64 = 1_000_000_000;

/// Knuth's 64-bit LCG; the high bits are the usable ones.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 16
    }
}

/// The sizes of everything the toolstack tears down per domain.
#[derive(Debug, PartialEq, Eq)]
struct HostTables {
    event_channels: usize,
    grants: usize,
    bridge_ports: usize,
    memory_assignments: usize,
}

fn host_tables(world: &ConcurrentJitsud) -> HostTables {
    let ts = world.toolstack();
    HostTables {
        event_channels: ts.event_channels.len(),
        grants: ts.grants.len(),
        bridge_ports: ts.bridge.port_count(),
        memory_assignments: ts.memory_assignments(),
    }
}

/// Heap bytes: all that is live, and the share of each structure that is
/// append-only by design.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Heap {
    live: i64,
    /// `StormMetrics::ttfb`: one `f64` per served request.
    recorder_ttfb: i64,
    /// `HandoffStats::request_latency`: one `f64` per cold-served request.
    recorder_request_latency: i64,
}

impl Heap {
    /// What was added since `earlier`, field by field.
    fn since(self, earlier: Heap) -> Heap {
        Heap {
            live: self.live - earlier.live,
            recorder_ttfb: self.recorder_ttfb - earlier.recorder_ttfb,
            recorder_request_latency: self.recorder_request_latency
                - earlier.recorder_request_latency,
        }
    }

    /// `live` less the two named structures.
    fn elsewhere(self) -> i64 {
        self.live - self.recorder_ttfb - self.recorder_request_latency
    }
}

/// Bytes behind a `Vec` of `len` elements grown by `push` alone: capacity
/// doubles from four.
fn pushed_vec_bytes(len: usize, element: usize) -> i64 {
    match len {
        0 => 0,
        n => (n.next_power_of_two().max(4) * element) as i64,
    }
}

fn heap(world: &ConcurrentJitsud) -> Heap {
    let m = world.metrics();
    Heap {
        live: counting_alloc::live_bytes(),
        recorder_ttfb: pushed_vec_bytes(m.ttfb.count(), 8),
        recorder_request_latency: pushed_vec_bytes(m.handoff.request_latency.count(), 8),
    }
}

/// Cumulative counters at one instant of the run.
#[derive(Debug, Clone, Copy)]
struct Mark {
    allocations: u64,
    launches: u64,
}

fn mark(sim: &StormSim) -> Mark {
    Mark {
        allocations: counting_alloc::allocations(),
        launches: sim.world().metrics().launches,
    }
}

/// One query for `name` on a drained board, run to quiescence: a solitary
/// launch→reap cycle. Returns the allocations it made.
fn solitary_cycle(sim: &mut StormSim, name: &str) -> u64 {
    let before = mark(sim);
    let at = sim.now() + SimDuration::from_secs(1);
    ConcurrentJitsud::inject_query(sim, at, name);
    sim.run();
    let after = mark(sim);
    assert_eq!(after.launches - before.launches, 1);
    after.allocations - before.allocations
}

#[test]
#[ignore = "2,400 virtual seconds: 4 s in release, 30 s unoptimised; CI runs it with --include-ignored"]
fn the_last_cycle_costs_what_the_first_did_and_leaves_the_host_as_it_found_it() {
    let names: Vec<String> = (0..SERVICES)
        .map(|i| format!("svc{i:03}.storm.example"))
        .collect();
    let mut config = JitsuConfig::new("storm.example")
        .with_launch_slots(2)
        .with_idle_timeout(SimDuration::from_secs(1));
    for (i, name) in names.iter().enumerate() {
        let mut svc = ServiceConfig::http_site(name, Ipv4Addr::new(192, 168, 2, 20 + i as u8));
        svc.image.memory_mib = 16;
        config = config.with_service(svc);
    }
    let mut rng = Lcg(0x4A17_5001);
    let mut arrivals: Vec<(u64, usize)> = (0..QUERIES)
        .map(|_| {
            (
                rng.next() % (SLICES as u64 * SLICE_S * NS),
                (rng.next() % SERVICES as u64) as usize,
            )
        })
        .collect();
    arrivals.sort_unstable();

    let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), 0x5107_B0A2D);
    let untouched = host_tables(sim.world());

    // Summon every service once and drain: the store's steady state.
    for (i, name) in names.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_millis(300 * i as u64);
        ConcurrentJitsud::inject_query(&mut sim, at, name);
    }
    sim.run();
    let steady_nodes = sim.world().xenstore().node_count();
    // The first solitary cycle fills what the overlapping round left cold.
    solitary_cycle(&mut sim, &names[0]);
    let cycle_before = solitary_cycle(&mut sim, &names[0]);

    let mut marks = Vec::with_capacity(SLICES + 1);
    let storm_began = mark(&sim);
    marks.push(storm_began);
    let heap_before = heap(sim.world());
    let start = sim.now() + SimDuration::from_secs(1);
    let mut slices = arrivals.chunk_by(|a, b| a.0 / (SLICE_S * NS) == b.0 / (SLICE_S * NS));
    for slice in 0..SLICES as u64 {
        for &(at, service) in slices.next().expect("16 queries/s leave no slice empty") {
            assert_eq!(at / (SLICE_S * NS), slice);
            let at = start + SimDuration::from_nanos(at);
            ConcurrentJitsud::inject_query(&mut sim, at, &names[service]);
        }
        sim.run_until(start + SimDuration::from_secs((slice + 1) * SLICE_S));
        if slice + 1 == SLICES as u64 {
            // Drain: in-flight boots finish and every idle unikernel is reaped.
            sim.run();
        }
        marks.push(mark(&sim));
    }
    let retained = heap(sim.world()).since(heap_before);
    let cycle_after = solitary_cycle(&mut sim, &names[0]);

    let world = sim.world();
    let m = world.metrics();
    assert_eq!(m.queries, (SERVICES + 3 + QUERIES) as u64);
    assert_eq!(m.servfails, 0, "the cell fits the board");
    assert_eq!(m.reaps, m.launches, "drained: every summons was reaped");
    assert_eq!(m.handoff.dropped_bytes + m.handoff.duplicated_bytes, 0);

    // (a) Every table a reap tears down is back where it started.
    assert_eq!(host_tables(world), untouched);
    assert_eq!(
        untouched,
        HostTables {
            event_channels: 0,
            grants: 0,
            bridge_ports: 0,
            memory_assignments: 0,
        }
    );
    assert_eq!(world.xenstore().node_count(), steady_nodes);

    // (b) The same cycle, 17,788 launches apart, to the allocation. Until
    // PR 27 it gained two: the bridge port's name (`vif17815.0`) and the
    // `/vm/17815` value were `format!`s sized for their literal text alone,
    // which a five-digit domain id outgrew. Both are now sized for any id.
    let launches = marks[SLICES].launches - storm_began.launches;
    assert_eq!(launches, 17_788);
    assert_eq!(cycle_before, cycle_after);
    // 713 until HTTP messages became their head bytes plus offsets: the
    // cycle's client builds a GET and the unikernel parses it and builds the
    // response with 21 fewer `String`s and `BTreeMap` nodes between them.
    // 692 until static pages were served as pre-built responses: a GET of
    // one builds no head and its `emit()` copies nothing, which saves more
    // than building each page's response once, with the appliance, costs.
    // 688 until `XenStore::read_string` kept the value it read as the
    // string: a lossy conversion copied every non-empty value the device
    // handshakes, Synjitsu's handoff and Conduit's accept read, eight a
    // cycle.
    // 680 until the daemon kept one record per service, found by its index:
    // a cycle cloned the service's name into eight map keys and event
    // closures and its `ServiceConfig`, two `String`s, twice.
    // 668 until the daemon decided each query from its own service record:
    // the cycle's query built a DNS message and its answer, trimmed its name
    // into a `String` and cloned the `ServiceConfig` and its name into the
    // directory's map, and app-ready inserted into that map again.
    // 655 until store operations took built `Path`s: the cycle's devices,
    // daemon record, handoff and conduit rendezvous formatted a path string
    // and parsed it into a second allocation for nearly every operation,
    // and now name keys built once, each in one allocation.
    // 541 until the domain builder wrote the guest's device tree straight
    // into its DTB bytes: the cycle's build filled a tree of `BTreeMap`s,
    // `String`s and `Vec`s, encoded it into a growing buffer and dropped
    // both, and `format!`ed the command line; and until the launcher
    // stopped cloning the service's name into a field nothing read.
    // 493 until a store directory held its own entries, a removal recorded
    // each removed subtree by its root instead of naming every node, and a
    // direct write lent its value to the tree: the cycle's directories no
    // longer put their entries behind an `Rc` a mutation copies, its domain
    // teardown names no removed node, and its overwrites copy into the
    // node's own buffer.
    // 400 until a transaction stopped logging each of its operations with a
    // copy of the value it wrote and reporting each into a record of its
    // own: the cycle's three transactions lend their values to their
    // snapshots and report into the store's one record.
    // 385 until a commit found the net effect along the paths the
    // transaction wrote and named the runs of an added subtree by those
    // paths, where `Tree::diff` built a path for every entry it reported,
    // and a merged commit reported into the store's one record.
    assert_eq!(cycle_before, 376);
    // Inside the storm, allocations per launch follow the mix of queries —
    // a warm hit or a coalesced query allocates and launches nothing, and
    // the first tenth saw 2.148 queries per launch, the last 2.203 — so the
    // two tenths are pinned side by side rather than held equal; the third
    // tenth, with 2.198, reads 444. (Before HTTP messages became views the
    // three read 821, 826 and 831, 798, 802 and 807 until static pages were
    // served as pre-built responses, 793, 798 and 802 until `read_string`
    // stopped copying the values it reads, 784, 788 and 793 until the
    // daemon kept one record per service and stopped cloning its name and
    // `ServiceConfig` for every query, launch and reap, and 770, 774 and 778
    // until it decided each query from that record instead of a directory's
    // copy answered with a DNS message, 744, 747 and 752 until store
    // operations took built `Path`s instead of formatted and parsed text,
    // and 621, 624 and 627 until a domain build wrote its device tree
    // straight into its DTB bytes and a launch stopped cloning the
    // service's name into a field nothing read, and 573, 576 and 579 until
    // a store directory held its own entries, a removal named its root
    // alone and a direct write lent its value to the tree, and 467, 469 and 472
    // until a transaction stopped logging its operations with a copy of
    // each value and reporting each into a record of its own, and 452, 454
    // and 457 until a commit found the net effect along the paths its
    // transaction wrote and named an added subtree's runs by those paths.)
    let tenth = |from: usize| {
        let (a, b) = (marks[from], marks[from + TENTH]);
        (b.allocations - a.allocations, b.launches - a.launches)
    };
    let (first, last) = (tenth(0), tenth(SLICES - TENTH));
    assert_eq!(
        (first, last),
        ((791_404, 1_801), (759_799, 1_722)),
        "{} and {} allocations per launch",
        first.0 / first.1,
        last.0 / last.1
    );

    // (c) What the heap keeps per launch, and who keeps it. Both ends of the
    // interval are drained boards, so nothing live muddies the difference:
    // 44 bytes a launch, all of them latency samples. Until PR 27 it was
    // 1,315: 944 the daemon's free-text trace lines and 326 the toolstack's
    // two, both kept forever. The daemon's trace is now a ring of typed
    // records allocated in full when the daemon was built; it has held its
    // last `TRACE_CAPACITY` records since early in the storm and is the same
    // size at both ends of the interval. `elsewhere` is not a leak but
    // high-water marks, reached once: the engine's event queue grown from 32
    // to 256 entries to take a slice's arrivals at once (7,168), six small
    // buffers (536), and the entry buffers of two store directories that
    // grew to 22 and 8 children at the storm's peak and are empty at the
    // drain (480). A directory whose last child goes keeps its buffer for
    // the next one, which saves four allocations a launch; until it did,
    // this read 7,704, at 9,600 virtual seconds too. The small buffers
    // took 624 until the daemon's launch queue held service indices: its
    // growth from four entries to eight kept 96 bytes of `String`s and
    // keeps 8 of `u16`s.
    assert_eq!(
        (retained, retained.elsewhere()),
        (
            Heap {
                live: 794_104,
                recorder_ttfb: 524_032,
                recorder_request_latency: 261_888,
            },
            8_184
        ),
        "{} bytes retained per launch over {launches} launches",
        retained.live / launches as i64
    );
    let trace = world.trace();
    assert_eq!(trace.len(), TRACE_CAPACITY);
    assert!(trace.evicted() > 0);
}
