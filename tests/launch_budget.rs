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
//! It counts with `tests/support/counting_alloc.rs`, so it must stay a
//! single `#[test]`: a second test thread would allocate into the same
//! counters.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;
use jitsu_repro::netstack::tcp::{Tcb, TcpState};
use jitsu_repro::prelude::*;
use jitsu_repro::xen::domain::{Domain, DomainConfig};
use jitsu_repro::xen::domain_builder::DomainBuilder;
use jitsu_repro::xenstore::Path;

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
    /// A direct write to an existing depth-7 key, its path given as text.
    write_existing: u64,
    /// The same write, its path given as a built `Path`.
    write_existing_path: u64,
    /// A direct write that creates a leaf under an existing directory.
    write_new_leaf: u64,
    /// A direct write that creates a leaf and its four missing ancestors.
    write_new_leaf_and_four_ancestors: u64,
    /// A direct read of a depth-7 key, its path given as text.
    read: u64,
    /// The same read, its path given as a built `Path`.
    read_path: u64,
    /// `read_with` of that key by that `Path`, the value only looked at.
    read_with: u64,
    /// The toolstack's transaction: three writes that create five nodes.
    txn_three_writes_five_nodes: u64,
    /// A direct `rm` of a six-node subtree.
    rm_six_nodes: u64,
    /// `Tcb::to_sexp` of a TCB buffering a 65-byte request.
    tcb_to_sexp: u64,
    /// `Tcb::from_sexp` of that record.
    tcb_from_sexp: u64,
    /// `DomainBuilder::build` of a unikernel on a fresh builder.
    domain_build: u64,
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
    let state = Path::parse(STATE).expect("a valid path");
    let write_existing_path = allocations(|| {
        xs.write(DomId::DOM0, None, &state, b"5")
            .expect("dom0 may write anywhere")
    });
    let write_new_leaf = write(
        &mut xs,
        "/local/domain/3/device/vif/0/mac",
        b"06:16:3e:00:00:03",
    );
    let write_new_leaf_and_four_ancestors = write(&mut xs, "/local/domain/3/data/a/b/c/leaf", b"v");
    let read = allocations(|| {
        xs.read(DomId::DOM0, None, STATE).expect("written above");
    });
    let read_path = allocations(|| {
        xs.read(DomId::DOM0, None, &state).expect("written above");
    });
    let read_with = allocations(|| {
        let state = xs.read_with(DomId::DOM0, None, &state, |value| value == b"5");
        assert_eq!(state, Ok(true));
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

    let mut builder = DomainBuilder::new(BoardKind::Cubieboard2.board());
    let config = DomainConfig::unikernel("svc003.storm.example");
    let mut domain = Domain::new(DomId(3), config.clone());
    let domain_build = allocations(|| {
        builder
            .build(&mut domain, &config)
            .expect("the board is empty");
    });

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
        write_existing_path,
        write_new_leaf,
        write_new_leaf_and_four_ancestors,
        read,
        read_path,
        read_with,
        txn_three_writes_five_nodes,
        rm_six_nodes,
        tcb_to_sexp,
        tcb_from_sexp,
        domain_build,
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
    //
    // An HTTP message becoming its head bytes plus offsets moved it down from
    // 129,230 allocations and 11,476,805 bytes (817 and 72.6 KB per launch)
    // by 23 allocations and 2.9 KB a launch: storm clients build their GETs,
    // the unikernel parses them and builds its responses, and the daemon
    // builds each service's expected response, none of it with a `String`
    // or a `BTreeMap` node any more. No storm client closes a connection, so
    // reaping closed flows frees nothing here.
    //
    // Deleting grant page contents moved the bytes down from 11,018,441 by
    // 43,352 (274 a launch) at the same allocation count: a grant entry no
    // longer carries a page `Vec` or a read-only flag, so every node of the
    // grant table's map is smaller.
    //
    // Serving static pages as pre-built responses moved it down from 125,520
    // allocations and 10,975,089 bytes by 744 allocations and 88,224 bytes
    // (558 a launch): a GET of a built page allocates nothing, and `emit()`
    // of a built response is a view, not a copy. Each appliance builds its
    // index page's response, head included, once when it is made, and keeps
    // its pages in a list: four 96-byte slots (384 bytes) where a `BTreeMap`
    // leaf took 544 bytes of `FrameBuf`s and would take 1,072 of responses.
    //
    // `XenStore::read_string` keeping the value it read as the string moved
    // it down from 124,776 allocations and 10,886,865 bytes by 1,367
    // allocations and 27,995 bytes (8.7 and 177 bytes a launch): a lossy
    // conversion copied every value, valid UTF-8 or not, and the device
    // handshakes, Synjitsu's handoff phase reads and Conduit's accept each
    // read a few. Walking a store path once moved nothing here.
    //
    // The daemon keeping one record per service moved it down from 123,409
    // allocations and 10,858,870 bytes by 2,259 allocations and 159,636
    // bytes (14.3 and 1,010 bytes a launch): its records are one `Vec`
    // allocated when it is built, outside this count, where three maps
    // keyed by service name grew nodes inside it; and no query, launch or
    // reap clones the service's name into a key or an event, or its
    // `ServiceConfig` to read a field.
    //
    // Deleting the console's guest output buffer, which nothing wrote or
    // drained, moved it down from 10,699,234 bytes by 8,816 (56 a launch):
    // the toolstack's `BTreeMap` of consoles holds smaller entries.
    //
    // The daemon deciding each query from its own service record moved it
    // down from 121,150 allocations and 10,690,418 bytes by 3,863
    // allocations and 96,040 bytes (24.4 and 608 bytes a launch): no query
    // builds a DNS message and its answer, trims its name into a `String`,
    // clones the service's `ServiceConfig` or its name into a directory
    // map, and no app-ready inserts into that map again.
    //
    // Store operations taking a built `Path` moved it down from 117,287
    // allocations and 10,594,378 bytes by 19,289 allocations and 753,277
    // bytes (122 and 4,768 bytes a launch), at the same 11,861 operations:
    // the devices keep each end's `state` key from setup, the daemon its
    // service's record `state` and handoff phase keys, Synjitsu each proxied
    // connection's record keys, so most operations name a path nobody
    // formats or parses again; a path built from its parts is one
    // allocation, where a `format!`ed string parsed into a path was two or
    // three; the root path is one kept per thread, not a fresh empty
    // buffer per join; and the handoff phase, a XenBus state and a flow's
    // state are read in place with `read_with`, not copied out
    // (`create_domain` 211 -> 204, `destroy_domain` 29 -> 22).
    //
    // The domain builder writing the guest's device tree straight into its
    // DTB bytes moved it down from 97,998 allocations and 9,841,101 bytes by
    // 7,584 allocations and 669,762 bytes (48 and 4,239 bytes a launch): a
    // build no longer fills `BTreeMap`s of `String` names and `Vec` values,
    // encodes them into a buffer grown six times and drops both, nor
    // `format!`s the kernel command line first; it writes one buffer sized
    // exactly (`create_domain` 204 -> 157; one build is that buffer and
    // the page pool's assignment). The launcher no longer clones the
    // service's name into a `LaunchOutcome` field nothing read.
    //
    // Deleting `DomainConfig`'s `arch` and `vcpus`, which had one value
    // outside tests, moved the bytes down from 9,171,339 by 2,552: a
    // `Domain` is 8 bytes smaller, and the toolstack's map of domains
    // allocates its B-tree nodes during the run.
    //
    // A store directory holding its entries itself, and a removal recording
    // each removed subtree once, moved it down from 90,414 allocations and
    // 9,168,787 bytes to 76,291 and 8,478,619 (572 to 482 a launch): a
    // directory of up to 64 children is its node's own entry buffer, not a
    // buffer behind an `Rc` the path copy shares and the next mutation
    // copies, and a new directory's buffer starts with room for four; a
    // removal names its root and keeps the node it unlinked, where it named
    // every node of the subtree (`create_domain` 157 -> 138,
    // `destroy_domain` 22 -> 3, the `rm` 8 -> 2).
    // A direct write lending its value to the tree instead of copying it
    // into a logged op, and a flow's state change no longer copying its
    // metadata, moved it on to 73,561 and 8,362,485 (465 a launch): an
    // overwrite copies into the node's own buffer, and not at all when the
    // node holds the value already (`create_domain` 138 -> 135,
    // `destroy_domain` 3 -> 1).
    //
    // A sealed frame buffer keeping the sum of its bytes beside their
    // reference count moved the bytes up from 8,362,485 by 21,304: 8 bytes
    // in each of the 2,663 buffers the cell seals, at the same allocations.
    //
    // A transaction keeping the paths its operations wrote, not a log of
    // the operations with a copy of each value, and its operations
    // reporting into the store's one effects record, not a new one each,
    // moved it down from 73,561 allocations and 8,383,789 bytes by 2,370
    // allocations and 236,152 bytes (15 and 1,495 bytes a launch; a launch
    // makes 3 transactions): a transactional write lends its value to the
    // snapshot as a direct write lends it to the live tree
    // (`create_domain` 135 -> 129).
    //
    // A commit finding the transaction's net effect along the paths it
    // wrote, and a merge reporting what it changed, moved it down from
    // 71,191 allocations and 8,147,637 bytes by 2,036 and 156,632 (450 to
    // 437 a launch): a changed node, and a run of an added subtree that
    // ends at a written path, is reported by a clone of the written path,
    // not a path built anew, the scratch text is allocated only for an
    // added subtree, and a merged commit diffs nothing a second time and
    // reports into the store's one record.
    // (The counts are the test thread's own since then: the harness's main
    // thread, blocking on the test's result, sometimes allocated 4 blocks
    // of 900 bytes inside the window.)
    assert_eq!(
        cell,
        Cell {
            allocations: 69_155,
            bytes: 7_991_005,
            launches: 158,
            xenstore_ops: 11_861,
        },
        "{} allocations and {} bytes per launch",
        cell.allocations / cell.launches,
        cell.bytes / cell.launches
    );
    assert!(cell.allocations <= 900 * cell.launches);
    // What is left of a write to an existing key is the path when it is
    // given as text and parsed: the value is copied into the node's buffer.
    // A read is the copied value, and the parsed path likewise, and
    // `read_with` lends the value out and allocates nothing. A created node
    // is its `Rc`, its name, its value, and for a directory the entry
    // buffer of its first child, inside a transaction too, which adds the
    // buffer of the paths it wrote and nothing per write; a removal is the parsed path and the
    // record's buffer, whatever the subtree; a TCB record is its one buffer,
    // and so is a built domain's device tree. (2, 1, 5, 21, 46 and 8 for the
    // writes, the transaction and the `rm` until a directory held its own
    // entries, a direct write lent its value and a removal named its root
    // alone; the transaction 40 until it stopped logging each op with a
    // copy of its value and reporting each into a record of its own, 34
    // until its commit named the added subtree's runs by the paths it
    // wrote instead of building a path for each — `create_domain` 129 ->
    // 126 likewise.)
    assert_eq!(
        ops,
        Operations {
            write_existing: 1,
            write_existing_path: 0,
            write_new_leaf: 4,
            write_new_leaf_and_four_ancestors: 16,
            read: 2,
            read_path: 1,
            read_with: 0,
            txn_three_writes_five_nodes: 31,
            rm_six_nodes: 2,
            tcb_to_sexp: 1,
            tcb_from_sexp: 1,
            domain_build: 2,
            create_domain: 126,
            destroy_domain: 1,
        }
    );
    let per_created_ancestor =
        (ops.write_new_leaf_and_four_ancestors - ops.write_new_leaf).div_ceil(4);
    assert!(per_created_ancestor <= 4, "{per_created_ancestor} per node");
}
