//! Workspace wiring smoke test: every facade re-export resolves to the
//! right member crate, and the headline cold→warm request round-trip runs
//! deterministically from a fixed seed.

use jitsu_repro::prelude::*;

/// One symbol from each of the ten re-exported crates, referenced through
/// the facade paths. Compiling this function is the assertion: if a
/// workspace edge or `[lib] name` mapping regresses, this fails to build.
#[test]
fn facade_reexports_all_resolve() {
    let _sim: jitsu_repro::sim::SimDuration = jitsu_repro::sim::SimDuration::from_millis(1);
    let _xenstore =
        jitsu_repro::xenstore::XenStore::new(jitsu_repro::xenstore::EngineKind::JitsuMerge);
    let _xen = jitsu_repro::xen::grant_table::GrantTable::new();
    let _conduit: Option<jitsu_repro::conduit::vchan::Side> = None;
    let _netstack = jitsu_repro::netstack::ipv4::Ipv4Addr::new(10, 0, 0, 1);
    let _unikernel = jitsu_repro::unikernel::image::UnikernelImage::mirage("smoke");
    let _platform = jitsu_repro::platform::BoardKind::Cubieboard2.board();
    let _baselines: Option<jitsu_repro::baselines::docker::ContainerRuntime> = None;
    let _security = jitsu_repro::security::cve::CVE_DATASET;
    let _jitsu = jitsu_repro::jitsu::config::JitsuConfig::new("family.name");
}

#[test]
fn cold_then_warm_round_trip_is_deterministic() {
    let run = |seed: u64| {
        let config = JitsuConfig::new("family.name").with_service(ServiceConfig::http_site(
            "alice.family.name",
            Ipv4Addr::new(192, 168, 1, 20),
        ));
        let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), seed);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "alice.family.name");
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(1), "alice.family.name");
        sim.run();
        let m = sim.world().metrics();
        let [warm, cold] = m.ttfb.percentiles_ms(&[0.0, 100.0])[..] else {
            unreachable!("two samples")
        };
        (
            (m.cold_served, m.warm_hits, m.handoff.completed),
            cold.to_bits(),
            warm.to_bits(),
            sim.events_executed(),
        )
    };

    let first = run(42);
    // One cold request served byte-exact through the handoff, one warm.
    assert_eq!(first.0, (1, 1, 1));
    // Warm requests skip the boot pipeline entirely.
    assert!(f64::from_bits(first.2) < f64::from_bits(first.1));

    // Same seed, same virtual-time results, bit for bit.
    assert_eq!(run(42), first);
}
