//! Personal-data photo vault: keep the data at home, summon the service
//! that touches it (§5 "Yet other application scenarios ... such as a
//! family's photos").
//!
//! Run with `cargo run --example photo_vault`. The photos live on the
//! board's storage; a queue-style unikernel appliance is summoned when the
//! family wants to browse, serves the (storage-bound) requests, and is
//! retired afterwards — the decryption keys and the data never leave the
//! house. The example also reports what the always-on board costs in power
//! against keeping the same service on an x86 NUC.

use jitsu_repro::prelude::*;
use jitsu_repro::sim::SimRng;
use jitsu_repro::unikernel::appliance::Appliance;

fn main() {
    // --- Summon the vault service on demand -------------------------------
    let config = JitsuConfig::new("family.name").with_service(ServiceConfig::http_site(
        "photos.family.name",
        Ipv4Addr::new(192, 168, 1, 30),
    ));
    let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), 11);
    ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "photos.family.name");
    sim.run_until(SimTime::from_secs(1));
    let m = sim.world().metrics();
    assert_eq!(
        m.handoff.completed, 1,
        "the viewer's first page arrived intact"
    );
    println!(
        "photo vault summoned: first byte after {:.1} ms",
        m.ttfb.p50_ms()
    );

    // --- Serve an album from local storage --------------------------------
    // The album is larger than RAM, so the appliance streams it from the
    // board's storage; the SD card bounds throughput exactly as in the §4
    // throughput experiment.
    let mut rng = SimRng::seed_from_u64(5);
    let mut vault = QueueAppliance::new("photos.family.name", StorageKind::SdCard.device());
    let photo_bytes = 3 * 1024 * 1024; // a 3 MB JPEG
    vault.preload(40, photo_bytes);
    let mut total = SimDuration::ZERO;
    let mut served = 0u64;
    while !vault.is_empty() {
        let (resp, cost) =
            vault.handle(&HttpRequest::get("/photo", "photos.family.name"), &mut rng);
        assert_eq!(resp.status, 200);
        served += resp.body.len() as u64;
        total += cost;
    }
    let mbps = served as f64 * 8.0 / total.as_secs_f64() / 1e6;
    println!(
        "served {} photos ({} MB) from the SD card in {} — {:.1} Mb/s",
        40,
        served / (1024 * 1024),
        total,
        mbps
    );

    // --- What does keeping this at home cost? ------------------------------
    let arm = PowerModel::for_board(BoardKind::Cubieboard2);
    let nuc = PowerModel::for_board(BoardKind::IntelNuc);
    let day = 24.0 * 3600.0;
    let arm_kwh = arm.energy_joules(
        PowerState::Idle,
        &[PowerComponent::Ethernet, PowerComponent::Ssd],
        day,
    ) / 3.6e6;
    let nuc_kwh = nuc.energy_joules(PowerState::Idle, &[], day) / 3.6e6;
    println!(
        "always-on cost: Cubieboard2+SSD {:.2} kWh/day vs Intel NUC {:.2} kWh/day ({:.1}x)",
        arm_kwh,
        nuc_kwh,
        nuc_kwh / arm_kwh
    );
    assert!(nuc_kwh > arm_kwh);
    // Disk-bound: the SD card reads at 80 Mb/s and a tenth of the reads hit
    // the appliance's cache, which lifts the mean to about 89 Mb/s.
    assert!((30.0..100.0).contains(&mbps));
}
