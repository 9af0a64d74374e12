//! Edge hosting: a family's personal web sites served from one ARM board
//! (§3.3.2 and §5 of the paper).
//!
//! Run with `cargo run --example edge_hosting`. The board is the
//! authoritative nameserver for `family.name`; each family member's
//! low-traffic site is a separate 16 MiB unikernel that is summoned on
//! demand and retired after two minutes of idleness, so the 1 GB board can
//! host far more sites than it could keep resident.

use jitsu_repro::prelude::*;

fn main() {
    let members = ["alice", "bob", "carol", "dave", "erin"];
    let names: Vec<String> = members.iter().map(|m| format!("{m}.family.name")).collect();
    let mut config = JitsuConfig::new("family.name").with_idle_timeout(SimDuration::from_secs(120));
    for (i, name) in names.iter().enumerate() {
        config = config.with_service(ServiceConfig::http_site(
            name,
            Ipv4Addr::new(192, 168, 1, 20 + i as u8),
        ));
    }
    let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), 7);

    // One visitor per site, a second apart, each coming back once the page
    // has loaded.
    for (i, name) in names.iter().enumerate() {
        let at = SimTime::from_secs(i as u64);
        ConcurrentJitsud::inject_query(&mut sim, at, name);
        ConcurrentJitsud::inject_query(&mut sim, at + SimDuration::from_millis(500), name);
    }
    sim.run_until(SimTime::from_secs(10));
    println!(
        "Hosting {} personal sites on one Cubieboard2\n",
        names.len()
    );
    for name in &names {
        println!("{name:<22} {:?}", sim.world().phase(name));
    }
    let m = sim.world().metrics();
    let [fastest, slowest] = m.ttfb.percentiles_ms(&[0.0, 100.0])[..] else {
        unreachable!("ten requests served")
    };
    println!(
        "\n{} cold starts and {} warm requests; first byte after {fastest:.1} ms (warm) \
         to {slowest:.1} ms (cold)",
        m.cold_served, m.warm_hits
    );
    println!("Running unikernels: {}", sim.world().running_count());
    assert_eq!((m.cold_served, m.warm_hits), (5, 5));
    assert_eq!(
        m.handoff.completed, 5,
        "every cold visitor served byte-exact"
    );

    // Three minutes later, nobody has visited: the sites are retired and the
    // memory is reclaimed for whoever comes next.
    sim.run_until(SimTime::from_secs(190));
    let retired: Vec<&str> = names
        .iter()
        .filter(|name| sim.world().phase(name) == LifecyclePhase::Idle)
        .map(String::as_str)
        .collect();
    println!("\nRetired after 3 idle minutes: {}", retired.join(", "));
    println!("Running unikernels now: {}", sim.world().running_count());
    assert_eq!(sim.world().running_count(), 0);

    // The next visitor simply pays the ~300 ms cold start again.
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(200), &names[0]);
    sim.run_until(SimTime::from_secs(201));
    println!(
        "\n{} resummoned on demand: {:?}, {} launches in all",
        names[0],
        sim.world().phase(&names[0]),
        sim.world().metrics().launches
    );
    assert_eq!(sim.world().phase(&names[0]), LifecyclePhase::Running);
}
