//! The cold path's allocation budget, counted and pinned.
//!
//! A summon is a few dozen XenStore operations, one toolstack transaction,
//! a TCB record written and read back, and the daemon's bookkeeping around
//! them. How many heap allocations that costs is a property of the code, not
//! of the machine, so it is pinned exactly — the cold-path twin of
//! `tests/data_plane_budget.rs`. A counting `GlobalAlloc` wraps the system
//! allocator and the single test below runs one cell of the shape the
//! benchmark of record's `summon_sweep` runs 150 of (24 services of 16 MiB,
//! 2 launch slots, a 1 s idle TTL, 320 queries over 20 virtual seconds, so
//! nearly every query is a cold start) to quiescence, then prices the
//! operations a launch is made of one by one.
//!
//! The arrivals come from a generator of this file's own, so the test needs
//! nothing from `benchmark/` and a change to the simulator's RNG cannot move
//! its inputs.
//!
//! Like `data_plane_budget.rs` this file holds an `unsafe impl` so that
//! everything under `crates/` can stay `#![forbid(unsafe_code)]`, and it must
//! stay a single `#[test]`: a second test thread would allocate into the
//! same counters.

use jitsu_repro::netstack::tcp::{Tcb, TcpState};
use jitsu_repro::prelude::*;
use jitsu_repro::xen::domain::DomainConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every block it hands out (a `realloc` is
/// one more block of the new size).
struct Counting;

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `alloc`; `ptr` and `layout` describe a live block of
        // this allocator because `System` handed it out above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` made while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let value = f();
    (
        value,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// Allocations made while `f` ran.
fn allocations(f: impl FnOnce()) -> u64 {
    counted(f).1
}

// ---------------------------------------------------------------------------
// The cell
// ---------------------------------------------------------------------------

const SERVICES: usize = 24;
const SERVICE_MIB: u32 = 16;
const LAUNCH_SLOTS: u32 = 2;
const IDLE_TTL_S: u64 = 1;
const QUERIES: usize = 320;
const WINDOW_NS: u64 = 20_000_000_000;

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

/// What one drained cell cost and did.
#[derive(Debug, PartialEq, Eq)]
struct Cell {
    allocations: u64,
    bytes: u64,
    launches: u64,
    xenstore_ops: u64,
}

fn run_cell() -> Cell {
    let names: Vec<String> = (0..SERVICES)
        .map(|i| format!("svc{i:03}.storm.example"))
        .collect();
    let mut config = JitsuConfig::new("storm.example")
        .with_launch_slots(LAUNCH_SLOTS)
        .with_idle_timeout(SimDuration::from_secs(IDLE_TTL_S));
    for (i, name) in names.iter().enumerate() {
        let mut svc = ServiceConfig::http_site(name, Ipv4Addr::new(192, 168, 2, 20 + i as u8));
        svc.image.memory_mib = SERVICE_MIB;
        config = config.with_service(svc);
    }
    let mut rng = Lcg(0x4A17_5001);
    let mut arrivals: Vec<(u64, usize)> = (0..QUERIES)
        .map(|_| {
            (
                rng.next() % WINDOW_NS,
                (rng.next() % SERVICES as u64) as usize,
            )
        })
        .collect();
    arrivals.sort_unstable();

    let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), 0x5107_B0A2D);
    for (at, service) in arrivals {
        let at = SimTime::ZERO + SimDuration::from_nanos(at);
        ConcurrentJitsud::inject_query(&mut sim, at, &names[service]);
    }
    let ((), allocations, bytes) = counted(|| sim.run());
    let world = sim.world();
    let m = world.metrics();
    assert_eq!(m.servfails, 0, "the cell fits the board");
    assert_eq!(m.reaps, m.launches, "drained: every summons was reaped");
    assert_eq!(m.handoff.dropped_bytes + m.handoff.duplicated_bytes, 0);
    Cell {
        allocations,
        bytes,
        launches: m.launches,
        xenstore_ops: world.xenstore_stats().ops,
    }
}

// ---------------------------------------------------------------------------
// The operations a launch is made of
// ---------------------------------------------------------------------------

/// Allocations of single operations, each on a store or toolstack warmed so
/// that the operation does what its name says and nothing else.
#[derive(Debug, PartialEq, Eq)]
struct Operations {
    /// A direct write to an existing depth-7 key.
    write_existing: u64,
    /// A direct write that creates a leaf under an existing directory.
    write_new_leaf: u64,
    /// A direct write that creates a leaf and its four missing ancestors.
    write_new_leaf_and_four_ancestors: u64,
    /// A direct read of a depth-7 key.
    read: u64,
    /// The toolstack's transaction: three writes that create five nodes.
    txn_three_writes_five_nodes: u64,
    /// A direct `rm` of a six-node subtree.
    rm_six_nodes: u64,
    /// `Tcb::to_sexp` of a TCB buffering a 65-byte request.
    tcb_to_sexp: u64,
    /// `Tcb::from_sexp` of that record.
    tcb_from_sexp: u64,
    /// `Toolstack::create_domain` of a unikernel with console and vif.
    create_domain: u64,
    /// `Toolstack::destroy` of it.
    destroy_domain: u64,
}

fn price_operations() -> Operations {
    const STATE: &str = "/local/domain/3/device/vif/0/state";
    fn write(xs: &mut XenStore, path: &str, value: &[u8]) -> u64 {
        allocations(|| {
            xs.write(DomId::DOM0, None, path, value)
                .expect("dom0 may write anywhere")
        })
    }
    let mut xs = XenStore::new(EngineKind::JitsuMerge);
    // The first overwrite is a warm-up: the store reports effects into
    // buffers it keeps, and this is what fills them.
    write(&mut xs, STATE, b"1");
    write(&mut xs, STATE, b"2");
    let write_existing = write(&mut xs, STATE, b"4");
    let write_new_leaf = write(
        &mut xs,
        "/local/domain/3/device/vif/0/mac",
        b"06:16:3e:00:00:03",
    );
    let write_new_leaf_and_four_ancestors = write(&mut xs, "/local/domain/3/data/a/b/c/leaf", b"v");
    let read = allocations(|| {
        xs.read(DomId::DOM0, None, STATE).expect("written above");
    });
    let txn_three_writes_five_nodes = allocations(|| {
        xs.with_transaction(DomId::DOM0, 8, |xs, t| {
            xs.write(DomId::DOM0, Some(t), "/local/domain/9/name", b"svc")?;
            xs.write(
                DomId::DOM0,
                Some(t),
                "/local/domain/9/memory/target",
                b"16384",
            )?;
            xs.write(DomId::DOM0, Some(t), "/local/domain/9/vm", b"/vm/9")
        })
        .expect("nothing runs beside it");
    });
    for leaf in ["a", "b", "c/d", "c/e"] {
        write(&mut xs, &format!("/scratch/r/{leaf}"), b"x");
    }
    let nodes = xs.node_count();
    let rm_six_nodes = allocations(|| {
        xs.rm(DomId::DOM0, None, "/scratch/r").expect("built above");
    });
    assert_eq!(nodes - xs.node_count(), 6);

    let mut tcb = Tcb::for_listener(
        Ipv4Addr::new(192, 168, 2, 20),
        80,
        Ipv4Addr::new(10, 0, 0, 9),
        51_324,
        1_000_000,
    );
    tcb.state = TcpState::Established;
    tcb.rcv_nxt = 42_424_243;
    tcb.buffered =
        b"GET /index.html HTTP/1.1\r\nHost: svc003.storm.example\r\n\r\n012345678".to_vec();
    assert_eq!(tcb.buffered.len(), 65);
    let (record, tcb_to_sexp, _) = counted(|| tcb.to_sexp());
    let (parsed, tcb_from_sexp, _) = counted(|| Tcb::from_sexp(&record));
    assert_eq!(parsed, Some(tcb));

    let mut ts = Toolstack::new(BoardKind::Cubieboard2.board(), EngineKind::JitsuMerge, 7);
    let mut cycle = || {
        let (report, create_domain, _) = counted(|| {
            ts.create_domain(DomainConfig::unikernel("cycle"), BootOptimisations::jitsu())
                .expect("the board is empty")
        });
        let destroy_domain = allocations(|| ts.destroy(report.dom).expect("just created"));
        (create_domain, destroy_domain)
    };
    // The first cycle also creates the directories every domain shares.
    cycle();
    let (create_domain, destroy_domain) = cycle();

    Operations {
        write_existing,
        write_new_leaf,
        write_new_leaf_and_four_ancestors,
        read,
        txn_three_writes_five_nodes,
        rm_six_nodes,
        tcb_to_sexp,
        tcb_from_sexp,
        create_domain,
        destroy_domain,
    }
}

#[test]
fn a_cold_start_stays_inside_its_allocation_budget() {
    let cell = run_cell();
    let ops = price_operations();

    // At PR 20's parent this test read 265,031 allocations and 21,470,331
    // bytes for the cell — 1,677 allocations and 136 KB per launch, 22 per
    // XenStore op — and, operation by operation: 4 / 11 / 37 for the three
    // writes, 2 for the read, 124 for the transaction, 15 for the `rm`,
    // 72 and 41 for the TCB record (one `String` per buffered byte out, ten
    // needles and ten field copies back in), 437 + 79 for a domain. The
    // issue's ceilings are 900 per launch, 60 for the transaction, 4 per
    // created node, 2 for a write to an existing key and 3 for each
    // direction of the TCB record.
    //
    // PR 21 moved the cell down from 133,245 allocations and 15,095,891
    // bytes (843 and 95.5 KB per launch) by seven allocations and 21 KB a
    // launch: a grant no longer zeroes a 4 KiB page nobody writes (three
    // rings per domain, two per handoff vchan — `create_domain` 216 -> 213),
    // `EventChannelTable::domain_destroyed` no longer collects the dying
    // domain's ports into a `Vec` (`destroy_domain` 32 -> 31), and the
    // launcher no longer clones every `LaunchOutcome` into a history nothing
    // read.
    //
    // PR 27 moved it down from 132,143 allocations and 11,759,427 bytes (836
    // and 74.4 KB per launch) by 18 allocations and 1.8 KB a launch: the
    // daemon's trace lines, a `format!`ed message and a component `String`
    // each, became `Copy` records pushed into a ring the daemon allocated
    // when it was built, outside this count; and the toolstack's own trace,
    // a "created" and a "destroyed" line per domain, is gone
    // (`create_domain` 213 -> 211 and `destroy_domain` 31 -> 29: a line was
    // its message and its component, two `String`s). The bridge
    // port's name and the `/vm/<domid>` value are now sized for any domid,
    // 22 bytes more a launch and no second allocation at five digits.
    assert_eq!(
        cell,
        Cell {
            allocations: 129_230,
            bytes: 11_476_805,
            launches: 158,
            xenstore_ops: 11_861,
        },
        "{} allocations and {} bytes per launch",
        cell.allocations / cell.launches,
        cell.bytes / cell.launches
    );
    assert!(cell.allocations <= 900 * cell.launches);
    // What is left of a write to an existing key is the parsed path and the
    // value; a created node is its `Arc`, its name, and for a directory the
    // chunk and buffer of its first child; a record is its one buffer.
    assert_eq!(
        ops,
        Operations {
            write_existing: 2,
            write_new_leaf: 5,
            write_new_leaf_and_four_ancestors: 21,
            read: 2,
            txn_three_writes_five_nodes: 46,
            rm_six_nodes: 8,
            tcb_to_sexp: 1,
            tcb_from_sexp: 1,
            create_domain: 211,
            destroy_domain: 29,
        }
    );
    let per_created_ancestor =
        (ops.write_new_leaf_and_four_ancestors - ops.write_new_leaf).div_ceil(4);
    assert!(per_created_ancestor <= 4, "{per_created_ancestor} per node");
}
