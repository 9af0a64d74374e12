//! Quickstart: summon a unikernel in response to its first HTTP request.
//!
//! Run with `cargo run --example quickstart`. This walks the paper's core
//! flow end to end on the simulated Cubieboard2: a DNS query for
//! `alice.family.name` triggers the launch, Synjitsu proxies the client's
//! TCP connection while the unikernel boots, the connection state is drained
//! to the unikernel over a conduit vchan and handed over with a two-phase
//! commit in XenStore, and the freshly booted unikernel answers the buffered
//! request. A second, warm request then completes in a few milliseconds.

use jitsu_repro::prelude::*;

fn main() {
    let config = JitsuConfig::new("family.name").with_service(ServiceConfig::http_site(
        "alice.family.name",
        Ipv4Addr::new(192, 168, 1, 20),
    ));
    let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), 42);

    println!("== Cold start: first request summons the unikernel ==");
    ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "alice.family.name");
    sim.run_until(SimTime::from_secs(1));
    let m = sim.world().metrics();
    let cold = m.ttfb.p50_ms();
    println!("  first byte after       {cold:.3} ms");
    println!(
        "  proxied by Synjitsu:   {} connection(s), {} served byte-exact",
        m.handoff.migrated, m.handoff.completed
    );
    assert_eq!((m.cold_served, m.handoff.completed), (1, 1));

    println!("\n== Warm request: the unikernel is already running ==");
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(2), "alice.family.name");
    sim.run_until(SimTime::from_secs(3));
    let m = sim.world().metrics();
    let warm = m.ttfb.percentile_ms(0.0);
    println!("  first byte after       {warm:.3} ms (DNS round included)");
    assert_eq!(m.warm_hits, 1);

    println!("\n== Control-plane trace (Figure 6's flow) ==");
    print!("{}", sim.world());
    // Summoning, prepare, handover and ready; the warm hit is not traced.
    assert_eq!(sim.world().trace().len(), 4);

    assert!(warm < cold);
}
