//! XenStore size regression: a board that creates and destroys domains for
//! ever must not grow its store. Every create/destroy cycle has to give back
//! every node it took — including the vif backend, which lives under dom0's
//! home (`/local/domain/0/backend/vif/<domid>`) where removing the guest's
//! home cannot reach it and which once leaked six nodes per domain.

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
    const SERVICES: usize = 12;
    let name = |i: usize| format!("svc{i:02}.leak.example");
    let mut cfg = JitsuConfig::new("leak.example")
        .with_launch_slots(2)
        .with_idle_timeout(SimDuration::from_secs(1));
    for i in 0..SERVICES {
        let mut svc = ServiceConfig::http_site(&name(i), Ipv4Addr::new(192, 168, 3, 20 + i as u8));
        svc.image.memory_mib = 16;
        cfg = cfg.with_service(svc);
    }
    let mut sim = ConcurrentJitsud::sim(cfg, BoardKind::Cubieboard2.board(), 0x1EAC);

    // Registration is lazy: the first launch of a service creates its
    // handoff area under `/conduit`, the first launch of all the shared
    // directories. One drained round that summons every service once puts
    // the store in its steady state; no later launch may add to it.
    for i in 0..SERVICES {
        let at = SimTime::ZERO + SimDuration::from_millis(300 * i as u64);
        ConcurrentJitsud::inject_query(&mut sim, at, &name(i));
    }
    sim.run();
    assert_eq!(sim.world().metrics().reaps, SERVICES as u64);
    let steady = sim.world().xenstore().tree().all_paths();

    // 8 queries/s for 10 virtual seconds against the 1 s idle TTL: services
    // are summoned, reaped and summoned again many times over.
    let mut rng = SimRng::seed_from_u64(0x1EAC ^ 0xB007);
    let start = sim.now() + SimDuration::from_secs(1);
    let mut t = 0.0;
    loop {
        t += rng.exponential(1.0 / 8.0);
        if t >= 10.0 {
            break;
        }
        let at = start + SimDuration::from_secs_f64(t);
        ConcurrentJitsud::inject_query(&mut sim, at, &name(rng.index(SERVICES)));
    }
    sim.run();
    let world = sim.world();
    let m = world.metrics();
    assert!(
        m.launches > 3 * SERVICES as u64,
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
