//! The `bench_snapshot` suites: the repository's exact cost counters as
//! one golden text.
//!
//! [`collect`] runs the hot-path suites — XenStore commit/merge, O(1)
//! snapshot scaling at 10²..10⁵ nodes, a vchan stream through
//! [`conduit::vchan::VchanPair::stream`], the full TCB handoff under storm,
//! an end-to-end cold start, [`jitsu_sim::Sim`] / [`ShardedSim`]
//! dispatch, and the hypervisor tables after a thousand launch→reap
//! cycles — once each, and [`render`] prints one `suite/name value unit`
//! line per metric. `cargo test --test bench_snapshot` holds that text
//! against `tests/golden/bench_snapshot.txt` byte for byte.
//!
//! Every metric is a count or a virtual-time latency read from the
//! deterministic sim (events executed, commits merged, bytes through the
//! ring, p50 handoff latency in sim-milliseconds). They are exact —
//! the root `clippy.toml` keeps any wall clock, ambient entropy or hashed
//! iteration out of these paths — so the text is a pure function of the
//! tree, and a metric that is added, removed, renamed, changes unit or
//! moves by one unit in the last place fails the golden test. A metric
//! only moves when an intentional algorithmic change moves it. Host time
//! is measured by the standalone `benchmark/` package and nowhere else.

use crate::{storm, xenstore_storm};
use conduit::vchan::{Side, VchanPair};
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu_sim::shard::{Domain, DomainCtx};
use jitsu_sim::{DomainId, Scheduler, ShardedSim, Sim, SimDuration, SimTime};
use netstack::http::{HttpRequest, HttpResponse};
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::Ipv4Addr;
use netstack::{FrameBuf, MacAddr};
use platform::BoardKind;
use unikernel::appliance::StaticSiteAppliance;
use unikernel::image::UnikernelImage;
use unikernel::instance::UnikernelInstance;
use xen_sim::domain::DomainConfig;
use xen_sim::event_channel::EventChannelTable;
use xen_sim::grant_table::GrantTable;
use xen_sim::toolstack::{BootOptimisations, Toolstack};
use xenstore::{DomId, EngineKind};

/// Seed threaded through every seeded suite.
const SEED: u64 = 0xBE7C_5EED;

/// One exact quantity: a count or a virtual-time latency, identical on
/// every run of the same tree.
#[derive(Debug)]
pub struct Metric {
    /// Suite the metric belongs to (`sim_engine`, `xenstore_commit`, …).
    pub suite: &'static str,
    /// Metric name, unique within its suite.
    pub name: String,
    /// Unit label (`events`, `commits`, `ms`, …).
    pub unit: &'static str,
    /// The value, pinned by its bit pattern.
    pub value: f64,
}

impl Metric {
    fn new(suite: &'static str, name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            suite,
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// The golden text: one `suite/name value unit` line per metric, in
/// collection order. `{:?}` prints an `f64`'s shortest round-trip text,
/// so two values render alike only when their bits are equal.
pub fn render(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{}/{} {:?} {}\n", m.suite, m.name, m.value, m.unit))
        .collect()
}

/// Run every suite and return the metrics in deterministic order.
pub fn collect() -> Vec<Metric> {
    let mut out = Vec::new();
    suite_sim_engine(&mut out);
    suite_sharded_engine(&mut out);
    suite_xenstore_commit(&mut out);
    suite_xenstore_snapshot(&mut out);
    suite_vchan(&mut out);
    suite_frame_path(&mut out);
    suite_handoff(&mut out);
    suite_cold_start(&mut out);
    suite_hypervisor_tables(&mut out);
    out
}

/// Raw dispatch through the discrete-event engine.
fn suite_sim_engine(out: &mut Vec<Metric>) {
    const SUITE: &str = "sim_engine";
    const EVENTS: u64 = 100_000;
    let mut sim = Sim::new(0u64);
    for i in 0..EVENTS {
        sim.schedule_at(SimTime::from_micros(i), |s| *s.world_mut() += 1);
    }
    let executed = sim.run_steps(EVENTS);
    out.push(Metric::new(
        SUITE,
        "events_executed",
        "events",
        executed as f64,
    ));
}

/// One domain of the sharded-engine benchmark workload: a ring of domains
/// exchanging TTL'd messages. Every hop draws from the domain RNG and
/// folds the draw into an FNV-style checksum, so the `checksum` metric
/// pins the exact event schedule *and* the exact RNG streams — any
/// engine change that reorders events or draws shows up as virtual drift.
struct RingDomain {
    hops: u64,
    checksum: u64,
}

impl Domain for RingDomain {
    type Msg = u64;

    fn on_message(ctx: &mut DomainCtx<RingDomain>, ttl: u64) {
        let draw = ctx.rng().uniform_u64(0, 1 << 20);
        let w = ctx.world_mut();
        w.hops += 1;
        w.checksum = w.checksum.wrapping_mul(0x0000_0100_0000_01B3) ^ draw;
        if ttl > 0 {
            let next = DomainId((ctx.id().0 + 1) % ctx.domain_count());
            ctx.send(next, ttl - 1);
        }
    }
}

/// Run the ring workload at `shards` shards, returning
/// `(events, barriers, checksum)` — all three invariant in `shards`.
fn run_ring(shards: u32) -> (u64, u64, u64) {
    /// Domains in the ring.
    const DOMAINS: u32 = 32;
    /// Ring messages each domain originates.
    const MESSAGES: u64 = 64;
    /// Hops each message makes before it dies (its barrier count).
    const TTL: u64 = 16;
    let mut sim = ShardedSim::new(shards, SimDuration::from_millis(1));
    let domains: Vec<DomainId> = (0..DOMAINS)
        .map(|d| {
            sim.add_domain(
                RingDomain {
                    hops: 0,
                    checksum: 0xCBF2_9CE4_8422_2325,
                },
                SEED ^ u64::from(d),
            )
        })
        .collect();
    for (d, id) in domains.iter().enumerate() {
        for m in 0..MESSAGES {
            let at = SimTime::from_micros(1 + m * 37 + d as u64);
            sim.schedule_at(*id, at, |ctx| RingDomain::on_message(ctx, TTL));
        }
    }
    sim.run();
    let events = sim.events_executed();
    let barriers = sim.barriers();
    let checksum = sim
        .into_worlds()
        .iter()
        .fold(0u64, |acc, w| acc.rotate_left(7) ^ w.checksum);
    (events, barriers, checksum)
}

/// The sharded engine under a cross-domain ring workload, at 1, 4 and 16
/// shards. The metrics (events, barriers, checksum) must be *identical
/// across the three shard counts* — the golden records the invariance
/// itself, so any scheduling divergence between shard counts is drift.
fn suite_sharded_engine(out: &mut Vec<Metric>) {
    const SUITE: &str = "sharded_engine";
    for shards in [1u32, 4, 16] {
        let (events, barriers, checksum) = run_ring(shards);
        out.push(Metric::new(
            SUITE,
            &format!("events@{shards}"),
            "events",
            events as f64,
        ));
        out.push(Metric::new(
            SUITE,
            &format!("barriers@{shards}"),
            "barriers",
            barriers as f64,
        ));
        // Masked to 48 bits so the checksum survives the f64 metric
        // representation without rounding.
        out.push(Metric::new(
            SUITE,
            &format!("checksum@{shards}"),
            "fold",
            (checksum & 0xFFFF_FFFF_FFFF) as f64,
        ));
    }
}

/// XenStore commit/merge outcomes on the Jitsu merge engine: the
/// overlapping-transaction storm cell from the xenstore_storm experiment.
fn suite_xenstore_commit(out: &mut Vec<Metric>) {
    const SUITE: &str = "xenstore_commit";
    let cell = xenstore_storm::XsStormConfig {
        engine: EngineKind::JitsuMerge,
        writers: 8,
        txns_per_writer: 8,
        ops_per_txn: 6,
        prepopulated: 2_000,
        seed: SEED,
    };
    let r = xenstore_storm::run_cell(&cell);
    out.push(Metric::new(SUITE, "commits", "commits", r.commits as f64));
    out.push(Metric::new(SUITE, "merged", "commits", r.merged as f64));
    out.push(Metric::new(
        SUITE,
        "eagain_conflicts",
        "aborts",
        r.conflicts as f64,
    ));
    out.push(Metric::new(SUITE, "merge_rate", "fraction", r.merge_rate()));
}

/// O(1) snapshot scaling: nodes copied per snapshot and per first write at
/// each store size, entries copied per write under one flat directory,
/// and nodes copied by a direct store write with and without a transaction
/// open.
fn suite_xenstore_snapshot(out: &mut Vec<Metric>) {
    const SUITE: &str = "xenstore_snapshot";
    // The paper claim under test: snapshot cost is O(1) from 10² to 10⁵
    // nodes.
    for keys in [100, 1_000, 10_000, 100_000] {
        let p = xenstore_storm::snapshot_point(keys);
        out.push(Metric::new(
            SUITE,
            &format!("store_nodes@{keys}"),
            "nodes",
            p.store_nodes as f64,
        ));
        out.push(Metric::new(
            SUITE,
            &format!("copied_by_snapshot@{keys}"),
            "nodes",
            p.copied_by_snapshot as f64,
        ));
        out.push(Metric::new(
            SUITE,
            &format!("copied_by_one_write@{keys}"),
            "nodes",
            p.copied_by_one_write as f64,
        ));
    }
    // One flat directory at the two fan-outs the benchmark of record times
    // a write under: the entries a write copies must not follow the width.
    for children in [64, 4_096] {
        out.push(Metric::new(
            SUITE,
            &format!("entries_copied_by_one_write@{children}"),
            "entries",
            xenstore_storm::flat_directory_entries_copied(children) as f64,
        ));
    }
    // A direct store write copies nodes only while a transaction's
    // snapshot shares them.
    for (name, transaction_open) in [
        ("copied_by_direct_write@unshared", false),
        ("copied_by_direct_write@txn_open", true),
    ] {
        out.push(Metric::new(
            SUITE,
            name,
            "nodes",
            xenstore_storm::nodes_copied_by_direct_write(transaction_open) as f64,
        ));
    }
}

/// A bulk transfer through `VchanPair::stream`.
fn suite_vchan(out: &mut Vec<Metric>) {
    const SUITE: &str = "vchan";
    const BYTES: usize = 256 * 1024;
    let payload: Vec<u8> = (0..BYTES).map(|i| (i % 251) as u8).collect();
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(1), DomId(2))
        .expect("vchan establishes");
    let received = pair
        .stream(Side::Client, &payload, &mut evtchn)
        .expect("stream completes");
    out.push(Metric::new(
        SUITE,
        "streamed_bytes",
        "bytes",
        pair.bytes_to_server() as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "delivered_bytes",
        "bytes",
        received.len() as f64,
    ));
}

/// Tallies accumulated while frames traverse the iface → vchan → unikernel
/// path in [`suite_frame_path`].
#[derive(Default)]
struct FramePathTally {
    /// Ethernet frames pushed through the ring (both directions).
    frames: u64,
    /// Frame bytes that crossed the ring.
    ring_bytes: u64,
    /// HTTP payload bytes delivered to the client as TCP data.
    payload_bytes: u64,
    /// Buffer materialisations observed: one per non-empty ring drain plus
    /// one per delivered payload that is *not* a view of its frame.
    copies: u64,
    /// Completed HTTP exchanges (status parsed from reassembled payload).
    responses: u64,
}

/// Write `frame` into the ring from `from` and drain it on the other side:
/// the single sanctioned copy on the frame path.
fn cross_ring(
    ring: &mut VchanPair,
    evtchn: &mut EventChannelTable,
    from: Side,
    frame: &FrameBuf,
) -> FrameBuf {
    let mut offset = 0;
    while offset < frame.len() {
        offset += ring
            .write(from, &frame[offset..], evtchn)
            .expect("ring write progresses");
    }
    let to = match from {
        Side::Client => Side::Server,
        Side::Server => Side::Client,
    };
    ring.read(to, usize::MAX).expect("ring drain succeeds")
}

/// End-to-end zero-copy frame path: HTTP exchanges from a client interface
/// through a real vchan ring into a unikernel instance and back again, with
/// every frame in both directions crossing the ring.
///
/// `copies_per_packet` is the zero-copy claim as a number: each frame's
/// bytes are materialised exactly once (the ring drain at ingress) and
/// handed down to TCP delivery as `FrameBuf` views of that allocation, so
/// the exact value is 1.0 — any hidden copy between the ring and the
/// application pushes it above 1 and fails the golden test.
fn suite_frame_path(out: &mut Vec<Metric>) {
    const SUITE: &str = "frame_path";
    /// HTTP exchanges driven through the path.
    const REQUESTS: u64 = 32;
    const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x20]);
    const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x64]);
    let server_ip = Ipv4Addr::new(192, 168, 4, 20);
    let client_ip = Ipv4Addr::new(192, 168, 4, 100);
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    let mut ring = VchanPair::establish(&mut grants, &mut evtchn, DomId(1), DomId(2))
        .expect("vchan establishes");
    let mut server = UnikernelInstance::new(
        UnikernelImage::mirage("bench"),
        SERVER_MAC,
        server_ip,
        80,
        Box::new(StaticSiteAppliance::new("bench")),
        SEED,
    );
    let mut client = Interface::new(CLIENT_MAC, client_ip);
    client.add_arp_entry(server_ip, SERVER_MAC);
    server.iface.add_arp_entry(client_ip, CLIENT_MAC);
    let mut tally = FramePathTally::default();
    for _ in 0..REQUESTS {
        let mut to_server = vec![client.tcp_connect(server_ip, 80)];
        let mut sent_request = false;
        let mut body = Vec::new();
        for _ in 0..32 {
            if to_server.is_empty() {
                break;
            }
            let mut to_client = Vec::new();
            for f in to_server.drain(..) {
                tally.frames += 1;
                tally.ring_bytes += f.len() as u64;
                let wire = cross_ring(&mut ring, &mut evtchn, Side::Client, &f);
                tally.copies += u64::from(wire.has_allocation());
                let (frames, _) = server.handle_frame(&wire);
                to_client.extend(frames);
            }
            for f in to_client {
                tally.frames += 1;
                tally.ring_bytes += f.len() as u64;
                let wire = cross_ring(&mut ring, &mut evtchn, Side::Server, &f);
                tally.copies += u64::from(wire.has_allocation());
                let (frames, events) = client.handle_frame(&wire);
                to_server.extend(frames);
                for ev in events {
                    match ev {
                        IfaceEvent::TcpConnected { remote, local_port } if !sent_request => {
                            sent_request = true;
                            let req = HttpRequest::get("/", "bench").emit();
                            if let Some(f) = client.tcp_send(remote, local_port, &req) {
                                to_server.push(f);
                            }
                        }
                        IfaceEvent::TcpData { data, .. } => {
                            tally.copies += u64::from(!data.shares_allocation(&wire));
                            tally.payload_bytes += data.len() as u64;
                            body.extend_from_slice(&data);
                        }
                        _ => {}
                    }
                }
            }
        }
        let body = FrameBuf::from_vec(body);
        if let Ok(Some(resp)) = HttpResponse::parse(&body) {
            tally.responses += u64::from(resp.status == 200);
        }
    }
    out.push(Metric::new(SUITE, "frames", "frames", tally.frames as f64));
    out.push(Metric::new(
        SUITE,
        "ring_bytes",
        "bytes",
        tally.ring_bytes as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "payload_bytes",
        "bytes",
        tally.payload_bytes as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "responses",
        "responses",
        tally.responses as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "copies_per_packet",
        "copies",
        tally.copies as f64 / tally.frames as f64,
    ));
}

/// Full TCB handoff under storm: a handoff-storm cell, with its
/// virtual-time latency tail as exact metrics.
fn suite_handoff(out: &mut Vec<Metric>) {
    const SUITE: &str = "handoff";
    // One launch slot: boots queue behind each other, so the cold-path
    // latency has a tail (with two slots no boot waits and p99 == p50).
    let mut cell = storm::Cell::handoff(12.0, 1, SEED);
    cell.services = 8;
    cell.duration = SimDuration::from_secs(5);
    let fleet = storm::run_fleet(&cell, 1, 1);
    let world = &fleet.boards[0];
    let (h, xs) = (&world.metrics().handoff, world.xenstore_stats());
    let latency = &h.request_latency;
    for (name, unit, value) in [
        ("migrated_connections", "connections", h.migrated as f64),
        ("completed_exchanges", "exchanges", h.completed as f64),
        ("dropped_bytes", "bytes", h.dropped_bytes as f64),
        ("duplicated_bytes", "bytes", h.duplicated_bytes as f64),
        ("latency_p50", "ms", latency.p50_ms()),
        ("latency_p99", "ms", latency.p99_ms()),
        ("xs_merged", "commits", xs.merged as f64),
        ("xs_conflicts", "aborts", xs.conflicts as f64),
    ] {
        out.push(Metric::new(SUITE, name, unit, value));
    }
}

/// End-to-end cold start: DNS query through Synjitsu to the adopted
/// unikernel's first response byte.
fn suite_cold_start(out: &mut Vec<Metric>) {
    let config = JitsuConfig::new("bench.example").with_service(ServiceConfig::http_site(
        "svc.bench.example",
        Ipv4Addr::new(192, 168, 1, 20),
    ));
    let ttfb = crate::fig9a::cold_start_ttfb_ms(config, SEED);
    out.push(Metric::new("cold_start", "ttfb_ms", "ms", ttfb));
}

/// The host-wide hypervisor tables after a thousand launch→reap cycles:
/// each cycle builds a unikernel with console and vif, runs the handoff's
/// dom0-served vchan to it and tears that down, then destroys the domain.
/// Both tables must read what an empty host reads — every entry a cycle
/// makes is freed by the end that holds it.
fn suite_hypervisor_tables(out: &mut Vec<Metric>) {
    const SUITE: &str = "hypervisor_tables";
    let mut ts = Toolstack::new(BoardKind::Cubieboard2.board(), EngineKind::JitsuMerge, 7);
    for _ in 0..1_000 {
        let dom = ts
            .create_domain(DomainConfig::unikernel("cycle"), BootOptimisations::jitsu())
            .expect("the board is empty")
            .dom;
        let (_, grants, evtchn) = ts.conduit_parts();
        VchanPair::establish(grants, evtchn, DomId::DOM0, dom)
            .expect("vchan establishes")
            .teardown(grants, evtchn);
        ts.destroy(dom).expect("just created");
    }
    out.push(Metric::new(
        SUITE,
        "evtchn_entries_after_1000_cycles",
        "entries",
        ts.event_channels.len() as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "grant_entries_after_1000_cycles",
        "entries",
        ts.grants.len() as f64,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_values_parse_back_to_the_same_bits() {
        let line = |value: f64| render(&[Metric::new("handoff", "latency_p99", "ms", value)]);
        for value in [
            0.875,
            451.36316111999986,
            13439372652134.0,
            1e-9,
            9.007199254740991e15,
        ] {
            let text = line(value);
            let field = text.split(' ').nth(1).expect("a value field");
            assert_eq!(
                field.parse::<f64>().map(f64::to_bits),
                Ok(value.to_bits()),
                "{text}"
            );
        }
    }

    #[test]
    fn any_virtual_drift_fails_regardless_of_size() {
        let line = |value: f64| render(&[Metric::new("handoff", "latency_p99", "ms", value)]);
        let p99 = 451.36316111999986_f64;
        assert_eq!(line(p99), line(p99));
        assert_ne!(line(p99), line(p99 + 1.0));
        // One unit in the last place is drift too: there is no tolerance.
        assert_ne!(line(p99), line(p99.next_up()));
        assert_ne!(line(p99), line(p99.next_down()));
    }
}
