//! XenStore size regression: a board that creates and destroys domains for
//! ever must not grow its store. Every create/destroy cycle has to give back
//! every node it took — including the vif backend, which lives under dom0's
//! home (`/local/domain/0/backend/vif/<domid>`) where removing the guest's
//! home cannot reach it and which once leaked six nodes per domain.

use bench::storm::Cell;
use jitsu_repro::prelude::*;
use jitsu_repro::xen::domain::DomainConfig;
use jitsu_repro::xenstore::Path;

const VIF_BACKENDS: &str = "/local/domain/0/backend/vif";

#[test]
fn two_hundred_create_destroy_cycles_return_the_store_to_its_starting_size() {
    let mut ts = Toolstack::new(BoardKind::Cubieboard2.board(), EngineKind::JitsuMerge, 7);
    let cycle = |ts: &mut Toolstack| {
        let dom = ts
            .create_domain(DomainConfig::unikernel("cycle"), BootOptimisations::jitsu())
            .expect("the board is empty")
            .dom;
        ts.destroy(dom).expect("the domain exists");
    };
    // The first cycle also creates the directories every domain shares
    // (`/local/domain`, dom0's `backend/vif`); those stay.
    cycle(&mut ts);
    let start = ts.xenstore.node_count();
    for _ in 0..200 {
        cycle(&mut ts);
    }
    assert_eq!(ts.xenstore.node_count(), start);
    assert_eq!(
        ts.xenstore
            .directory(DomId::DOM0, None, VIF_BACKENDS)
            .expect("the shared directory stays"),
        Vec::<String>::new()
    );
    assert_eq!(
        ts.xenstore
            .directory(DomId::DOM0, None, "/local/domain")
            .expect("the shared directory stays"),
        vec!["0"]
    );
}

#[test]
fn a_drained_storm_leaves_the_store_as_it_found_it() {
    // Twelve handoff-storm services with a 1 s idle TTL, queried at 8/s
    // for 10 virtual seconds: services are summoned, reaped and summoned
    // again many times over.
    let mut cell = Cell::handoff(8.0, 2, 0x1EAC);
    cell.services = 12;
    let mut sim = ConcurrentJitsud::sim(
        cell.host_config(),
        BoardKind::Cubieboard2.board(),
        cell.seed,
    );

    // Registration is lazy: the first launch of a service creates its
    // handoff area under `/conduit`, the first launch of all the shared
    // directories. One drained round that summons every service once puts
    // the store in its steady state; no later launch may add to it.
    for i in 0..cell.services {
        let at = SimTime::ZERO + SimDuration::from_millis(300 * i as u64);
        ConcurrentJitsud::inject_query(&mut sim, at, &cell.name(i));
    }
    sim.run();
    assert_eq!(sim.world().metrics().reaps, cell.services as u64);
    let steady = sim.world().xenstore().tree().all_paths();

    let start = sim.now() + SimDuration::from_secs(1);
    for (at, name) in cell.arrivals(cell.seed) {
        ConcurrentJitsud::inject_query(&mut sim, start + (at - SimTime::ZERO), &name);
    }
    sim.run();
    let world = sim.world();
    let m = world.metrics();
    assert!(
        m.launches > 3 * cell.services as u64,
        "launches = {}",
        m.launches
    );
    assert_eq!(m.reaps, m.launches, "drained: every summons was reaped");
    assert_eq!(world.xenstore().node_count(), steady.len());
    assert_eq!(world.xenstore().tree().all_paths(), steady);
    let backends = Path::parse(VIF_BACKENDS).expect("a valid path");
    assert_eq!(
        world.xenstore().tree().directory(DomId::DOM0, &backends),
        Ok(Vec::new())
    );
}

#[test]
fn a_drained_summon_sweep_cell_leaves_no_node_or_chunk_shared() {
    // The benchmark's `summon_sweep` cell shape: 24 services, 2 launch
    // slots, a 1 s idle TTL, 16 queries/s for 20 virtual seconds. With
    // every transaction closed, the live tree must hold each node, chunk
    // and key alone, or every later write would copy its whole path.
    let cell = Cell::slot_bound(16.0, 2, 0x4A17_5001);
    let mut sim = ConcurrentJitsud::sim(
        cell.host_config(),
        BoardKind::Cubieboard2.board(),
        cell.seed,
    );
    for (at, name) in cell.arrivals(cell.seed) {
        ConcurrentJitsud::inject_query(&mut sim, at, &name);
    }
    sim.run();
    let world = sim.world();
    let m = world.metrics();
    assert!(m.launches > 100, "launches = {}", m.launches);
    assert_eq!(m.reaps, m.launches, "drained: every summons was reaped");
    assert_eq!(world.xenstore().open_transactions(), 0);
    assert_eq!(world.xenstore().tree().shared_paths(), Vec::<Path>::new());
}
