//! Cross-crate integration tests of the paper's headline flow: DNS-triggered
//! summoning with Synjitsu masking boot latency (Figures 6 and 9a).

use bench::fig9a::{cold_start_samples, ColdStartMode};
use jitsu_repro::prelude::*;
use jitsu_repro::sim::metrics::percentile;

const ALICE: &str = "alice.family.name";

fn config_with(names: &[&str]) -> JitsuConfig {
    let mut config = JitsuConfig::new("family.name");
    for (i, name) in names.iter().enumerate() {
        config = config.with_service(ServiceConfig::http_site(
            name,
            Ipv4Addr::new(192, 168, 1, 20 + i as u8),
        ));
    }
    config
}

/// A board with `config`, one query per `(name, arrival ms)`, not yet run.
fn board(config: JitsuConfig, kind: BoardKind, seed: u64, queries: &[(&str, u64)]) -> StormSim {
    let mut sim = ConcurrentJitsud::sim(config, kind.board(), seed);
    for &(name, at_ms) in queries {
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(at_ms), name);
    }
    sim
}

/// Every parked client received exactly the response its service serves.
fn assert_byte_exact(m: &StormMetrics, clients: u64) {
    assert_eq!(m.handoff.completed, clients);
    assert_eq!(
        (m.handoff.dropped_bytes, m.handoff.duplicated_bytes),
        (0, 0)
    );
}

#[test]
fn cold_start_serves_the_buffered_request_through_the_handoff() {
    let mut sim = board(
        config_with(&[ALICE]),
        BoardKind::Cubieboard2,
        1,
        &[(ALICE, 0)],
    );
    // Mid-boot, Synjitsu has completed the client's handshake and holds its
    // request.
    sim.run_until(SimTime::from_millis(50));
    assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Launching);
    assert_eq!(sim.world().synjitsu().proxied_connection_count(ALICE), 1);
    sim.run();
    let m = sim.world().metrics();
    assert_eq!(m.cold_served, 1);
    assert_eq!(m.handoff.migrated, 1, "the connection crossed the handoff");
    assert_byte_exact(m, 1);
    // Paper envelope: the response at roughly the cold-boot latency
    // (≈300–350 ms), far below the 1 s retransmission that would otherwise
    // dominate.
    let ttfb = m.ttfb.p50_ms();
    assert!((150.0..450.0).contains(&ttfb), "ttfb = {ttfb} ms");
    // Figure 6's order: summon, hand over, serve the replayed request.
    let events: Vec<JitsuEvent> = sim.world().trace().records().map(|(_, e)| e).collect();
    let find = |wanted: fn(&JitsuEvent) -> bool| events.iter().position(wanted).unwrap();
    let summoned = find(|e| matches!(e, JitsuEvent::Summoning { .. }));
    let handed = find(|e| matches!(e, JitsuEvent::HandedOver { connections: 1, .. }));
    let ready = find(|e| matches!(e, JitsuEvent::Ready { requests: 1, .. }));
    assert!(summoned < handed && handed < ready, "{events:?}");
}

#[test]
fn one_cold_start_traces_summon_prepare_handoff_ready_in_time_order() {
    let mut sim = board(
        config_with(&[ALICE]),
        BoardKind::Cubieboard2,
        1,
        &[(ALICE, 0)],
    );
    // Up and serving, and long before the 120 s idle reaper.
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
    let trace = sim.world().trace();
    let Some((_, first)) = trace.records().next() else {
        panic!("nothing traced");
    };
    let of_dom: Vec<(SimTime, JitsuEvent)> = trace
        .records()
        .filter(|(_, e)| e.dom().is_some() && e.dom() == first.dom())
        .collect();
    assert!(
        matches!(
            of_dom[..],
            [
                (_, JitsuEvent::Summoning { queued: 1, .. }),
                (_, JitsuEvent::Prepared { flushed: 1, .. }),
                (_, JitsuEvent::HandedOver { connections: 1, .. }),
                (_, JitsuEvent::Ready { requests: 1, .. }),
            ]
        ),
        "{of_dom:?}"
    );
    assert!(of_dom.windows(2).all(|w| w[0].0 <= w[1].0), "{of_dom:?}");
}

#[test]
fn synjitsu_disabled_falls_back_to_tcp_retransmission() {
    let config = config_with(&[ALICE]).without_synjitsu();
    let mut sim = board(config, BoardKind::Cubieboard2, 2, &[(ALICE, 0)]);
    sim.run();
    let m = sim.world().metrics();
    assert_eq!(m.cold_served, 1);
    assert_eq!(m.handoff.migrated, 0, "nothing proxied");
    assert!(m.ttfb.p50_ms() > 1_000.0, "ttfb = {} ms", m.ttfb.p50_ms());
}

#[test]
fn warm_requests_hit_the_running_unikernel_in_milliseconds() {
    let queries = [0, 1, 2, 3, 4, 5].map(|s| (ALICE, s * 1_000));
    let mut sim = board(config_with(&[ALICE]), BoardKind::Cubieboard2, 3, &queries);
    sim.run();
    let m = sim.world().metrics();
    assert_eq!((m.launches, m.cold_served, m.warm_hits), (1, 1, 5));
    // The five warm samples are the five smallest: a DNS round plus the
    // ≈5 ms local request path.
    let [warm, cold] = m.ttfb.percentiles_ms(&[80.0, 100.0])[..] else {
        unreachable!()
    };
    assert!(warm < 30.0, "warm = {warm} ms");
    assert!(cold > 250.0, "cold = {cold} ms");
}

#[test]
fn multiple_tenants_are_isolated_domains_on_one_board() {
    let names = [ALICE, "bob.family.name", "carol.family.name"];
    let queries = [(names[0], 0), (names[1], 1_000), (names[2], 2_000)];
    let mut sim = board(config_with(&names), BoardKind::Cubieboard2, 4, &queries);
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.world().running_count(), 3);
    let m = sim.world().metrics();
    assert_eq!(m.launches, 3);
    // Each client's stream equals its own service's page, served by its own
    // appliance.
    assert_byte_exact(m, 3);
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(11), names[0]);
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(11), names[1]);
    sim.run_until(SimTime::from_secs(12));
    assert_eq!(sim.world().metrics().warm_hits, 2);
    assert_eq!(sim.world().metrics().launches, 3);
}

#[test]
fn x86_cold_starts_are_an_order_of_magnitude_faster_than_arm() {
    let ttfb = |kind| {
        let mut sim = board(config_with(&[ALICE]), kind, 5, &[(ALICE, 0)]);
        sim.run();
        sim.world().metrics().ttfb.p50_ms()
    };
    let (arm, x86) = (ttfb(BoardKind::Cubieboard2), ttfb(BoardKind::X86Server));
    assert!(
        arm / x86 > 4.0,
        "ARM/x86 cold-start ratio = {:.1}",
        arm / x86
    );
    assert!((20.0..80.0).contains(&x86), "x86 = {x86} ms");
}

#[test]
fn idle_retirement_frees_memory_for_other_tenants() {
    let config =
        config_with(&[ALICE, "bob.family.name"]).with_idle_timeout(SimDuration::from_secs(60));
    let mut sim = board(config, BoardKind::Cubieboard2, 6, &[]);
    let free = sim.world().effective_free_mib();
    ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
    assert!(sim.world().effective_free_mib() < free);
    sim.run_until(SimTime::from_secs(300));
    assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Idle);
    assert_eq!(sim.world().metrics().reaps, 1);
    assert_eq!(sim.world().effective_free_mib(), free, "memory returned");
    // And it can be resummoned.
    ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(301), ALICE);
    sim.run_until(SimTime::from_secs(302));
    assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
    assert_eq!(sim.world().metrics().cold_served, 2);
}

/// Figure 9a once ran on a second, linear daemon. `golden/` holds its
/// samples; on `ConcurrentJitsud` each one moves by a constant per mode, to
/// the nanosecond, from two modelling differences. The concurrent daemon
/// charges a fixed service cost, 4.0 ms above what the appliance reports
/// on this board. It also starts the launch when the query arrives rather
/// than after DNS processing (0.9 ms), which moves a Synjitsu sample only:
/// without Synjitsu both daemons time the client's SYN retransmissions
/// from the DNS answer.
#[test]
fn fig9a_samples_move_by_exactly_the_two_model_terms() {
    const GOLDEN: &str = include_str!("golden/fig9a_cold_starts.txt");
    let lines = GOLDEN.lines().filter(|l| !l.starts_with('#'));
    let mut medians = Vec::new();
    for (mode, line) in ColdStartMode::ALL.into_iter().zip(lines) {
        let shift_ns = match mode {
            ColdStartMode::NoSynjitsu => 4_000_000,
            _ => 3_100_000,
        };
        let mut fields = line.split_whitespace();
        assert_eq!(fields.next(), Some(format!("{mode:?}").as_str()));
        let golden: Vec<u64> = fields.map(|ns| ns.parse().unwrap()).collect();
        assert_eq!(golden.len(), 25);
        let samples = cold_start_samples(mode, golden.len(), 0x9A);
        for (i, (ms, ns)) in samples.iter().zip(&golden).enumerate() {
            // A sample is a nanosecond count over 10⁶; equal bits, equal count.
            let want = SimDuration::from_nanos(ns + shift_ns).as_millis_f64();
            assert_eq!(ms.to_bits(), want.to_bits(), "{mode:?} #{i}: {ms} ms");
        }
        if mode == ColdStartMode::NoSynjitsu {
            assert!(samples.iter().all(|&ms| ms > 1_000.0));
        }
        medians.push(percentile(&samples, 50.0));
    }
    let [none, vanilla, optimised] = medians[..] else {
        panic!("three modes, got {medians:?}")
    };
    assert!(
        (250.0..400.0).contains(&optimised),
        "optimised = {optimised}"
    );
    assert!(optimised < vanilla && vanilla < none, "{medians:?}");
}
