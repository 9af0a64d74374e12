//! Per-layer metrics: the counts a workload run leaves in the layers' public
//! accessors, and outside timings of each layer's public functions on small
//! worlds of their own.
//!
//! Each timing is the mean over a fixed iteration count, sized to a few tens
//! of milliseconds, at reference speed (`speed.rs`); the inputs are fixed or
//! seed-derived and every loop checks what the call returned, so the compiler
//! cannot drop the work.

use crate::host::{ns_per_call, timed};
use crate::metrics::Values;
use crate::seed::unit_seed;
use crate::speed::{timed_at_reference, watched};
use crate::stats;
use crate::storm::bare_sim_ns_per_event;
use crate::warm;
use crate::workload::Outcome;
use conduit::flows::FlowTable;
use conduit::rendezvous::ConduitRegistry;
use conduit::vchan::{Side, VchanPair};
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu::directory::{DirectoryAction, DirectoryService};
use jitsu::launcher::Launcher;
use jitsu::synjitsu::Synjitsu;
use jitsu_sim::shard::{Domain, DomainCtx};
use jitsu_sim::{DomainId, Scheduler, ShardedSim, SimDuration, SimTime};
use netstack::dns::DnsMessage;
use netstack::ethernet::EthernetFrame;
use netstack::http::{HttpRequest, HttpResponse};
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::{Ipv4Addr, Ipv4Packet};
use netstack::tcp::{Tcb, TcpSegment};
use netstack::{FrameBuf, MacAddr};
use platform::BoardKind;
use std::hint::black_box;
use std::time::Instant;
use xen_sim::domain::{Domain as XenDomain, DomainConfig};
use xen_sim::event_channel::EventChannelTable;
use xen_sim::grant_table::GrantTable;
use xen_sim::toolstack::{BootOptimisations, Toolstack};
use xen_sim::{Bridge, DomainBuilder};
use xenstore::{DomId, EngineKind, XenStore};

const STREAM_LAYERS: u64 = 6;
const DOM0: DomId = DomId::DOM0;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The count metrics of one (reduced) workload run, and the host-time ratios
/// derived from them.
pub fn workload_counts(o: &Outcome, wall_s: f64, v: &mut Values) {
    let c = &o.counters;
    let latency = |q: f64| {
        if o.latency_ms.is_empty() {
            0.0
        } else {
            stats::quantile(&o.latency_ms, q)
        }
    };
    v.set("virtual.latency_p50_ms", latency(0.5));
    v.set("virtual.latency_p99_ms", latency(0.99));
    v.set(
        "virtual.failed_share",
        stats::failed_share(o.attempted, o.served),
    );
    let wall_us = wall_s * 1e6;
    v.set("sim.events", c.sim_events as f64);
    v.set("sim.host_us_per_event", ratio(wall_us, c.sim_events as f64));
    v.set("shard.barriers", c.shard_barriers as f64);
    v.set(
        "shard.events_per_barrier",
        ratio(c.sim_events as f64, c.shard_barriers as f64),
    );
    v.set("xenstore.commits", c.xs_commits as f64);
    v.set("xenstore.merged", c.xs_merged as f64);
    v.set("xenstore.conflicts", c.xs_conflicts as f64);
    v.set("xenstore.ops", c.xs_ops as f64);
    v.set("xenstore.watch_events", c.xs_watch_events as f64);
    v.set(
        "xenstore.ops_per_launch",
        ratio(c.xs_ops as f64, c.launches as f64),
    );
    v.set(
        "netstack.frames_per_exchange",
        ratio(c.frames as f64, o.attempted as f64),
    );
    v.set(
        "netstack.copies_per_frame",
        ratio(c.frame_copies as f64, c.frames as f64),
    );
    v.set(
        "netstack.open_connections_end",
        c.open_connections_end as f64,
    );
    v.set("jitsu.launches", c.launches as f64);
    v.set("jitsu.cold_served", c.cold_served as f64);
    v.set("jitsu.coalesced", c.coalesced as f64);
    v.set("jitsu.warm_hits", c.warm_hits as f64);
    v.set("jitsu.servfails", c.servfails as f64);
    v.set("jitsu.reaps", c.reaps as f64);
    v.set("jitsu.migrated", c.migrated as f64);
    v.set("jitsu.replayed", c.replayed as f64);
    v.set("jitsu.failovers", c.failovers as f64);
    v.set("jitsu.failover_dropped", c.failover_dropped as f64);
    // Useful outcomes per attempt: requests served per domain built.
    v.set(
        "jitsu.served_per_launch",
        ratio((c.cold_served + c.warm_hits) as f64, c.launches as f64),
    );
    v.set(
        "jitsu.host_us_per_launch",
        ratio(wall_us, c.launches as f64),
    );
}

/// Time every layer from outside and record the results.
pub fn measure(seed: u64, v: &mut Values) {
    sim(v);
    xenstore(v);
    xen_sim(v);
    conduit(v);
    netstack(v);
    unikernel(seed, v);
    jitsu(v);
}

// ---------------------------------------------------------------------------
// jitsu_sim
// ---------------------------------------------------------------------------

/// A ring of domains handing one token round: every barrier delivers exactly
/// one cross-domain message, so time per barrier is the cost of an epoch.
struct Ring {
    hops: u64,
}

impl Domain for Ring {
    type Msg = u64;

    fn on_message(ctx: &mut DomainCtx<Ring>, ttl: u64) {
        ctx.world_mut().hops += 1;
        if ttl > 0 {
            let next = DomainId((ctx.id().0 + 1) % ctx.domain_count());
            ctx.send(next, ttl - 1);
        }
    }
}

fn sim(v: &mut Values) {
    v.set(
        "sim.dispatch_ns_per_event",
        bare_sim_ns_per_event(1_000_000),
    );

    const HOPS: u64 = 200_000;
    let mut ring = ShardedSim::new(4, SimDuration::from_millis(1));
    let first = ring.add_domain(Ring { hops: 0 }, 1);
    for d in 1..8 {
        ring.add_domain(Ring { hops: 0 }, 1 + d);
    }
    ring.schedule_at(first, SimTime::ZERO, |ctx| Ring::on_message(ctx, HOPS));
    let ((), secs) = timed_at_reference(|| ring.run());
    let barriers = ring.barriers();
    let hops: u64 = ring.into_worlds().iter().map(|w| w.hops).sum();
    assert_eq!(hops, HOPS + 1);
    v.set("shard.barrier_ns", secs * 1e9 / barriers as f64);
}

// ---------------------------------------------------------------------------
// xenstore
// ---------------------------------------------------------------------------

/// A store whose `/d` directory has `fanout` children `k<i>`, each with the
/// three leaves a transaction below rewrites.
fn fanned_store(fanout: usize) -> XenStore {
    let mut xs = XenStore::new(EngineKind::JitsuMerge);
    for i in 0..fanout {
        for leaf in ["a", "b", "c"] {
            xs.write(DOM0, None, &format!("/d/k{i}/{leaf}"), b"0")
                .expect("dom0 writes on a fresh store");
        }
    }
    xs
}

fn xenstore(v: &mut Values) {
    let regimes: [(usize, u64, [&'static str; 3]); 2] = [
        (
            64,
            4_000,
            [
                "xenstore.write_us.fanout64",
                "xenstore.txn3_us.fanout64",
                "xenstore.directory_us.fanout64",
            ],
        ),
        (
            4096,
            200,
            [
                "xenstore.write_us.fanout4k",
                "xenstore.txn3_us.fanout4k",
                "xenstore.directory_us.fanout4k",
            ],
        ),
    ];
    for (fanout, iters, [write_metric, txn_metric, dir_metric]) in regimes {
        let mut xs = fanned_store(fanout);
        let paths: Vec<String> = (0..fanout).map(|i| format!("/d/k{i}/a")).collect();
        // Every write carries a new value: rewriting the stored one is a
        // no-op the store may shortcut.
        let mut i = 0usize;
        let write_ns = ns_per_call(iters, || {
            i += 1;
            xs.write(DOM0, None, &paths[i % fanout], i.to_string().as_bytes())
                .expect("overwrite succeeds");
        });
        v.set(write_metric, write_ns / 1e3);

        let txn_ns = ns_per_call(iters / 2, || {
            i += 1;
            let k = i % fanout;
            let value = i.to_string();
            let attempts = xs
                .with_transaction(DOM0, 8, |xs, t| {
                    for leaf in ["a", "b", "c"] {
                        xs.write(DOM0, Some(t), &format!("/d/k{k}/{leaf}"), value.as_bytes())?;
                    }
                    Ok(())
                })
                .expect("a lone transaction commits");
            assert_eq!(attempts, 1);
        });
        v.set(txn_metric, txn_ns / 1e3);

        let dir_ns = ns_per_call(iters, || {
            let entries = xs.directory(DOM0, None, "/d").expect("/d exists");
            assert_eq!(black_box(entries).len(), fanout);
        });
        v.set(dir_metric, dir_ns / 1e3);

        if fanout == 64 {
            let mut i = 0;
            v.set(
                "xenstore.read_ns",
                ns_per_call(50_000, || {
                    let value = xs.read(DOM0, None, &paths[i % fanout]).expect("key exists");
                    assert!(!black_box(value).is_empty());
                    i += 1;
                }),
            );
        } else {
            // A snapshot is a transaction's O(1) copy of the tree; its cost
            // must not depend on the 12 K nodes under it.
            v.set(
                "xenstore.snapshot_ns",
                ns_per_call(50_000, || {
                    let t = xs.transaction_start(DOM0).expect("dom0 has no quota");
                    xs.transaction_end(DOM0, t, false).expect("abort succeeds");
                }),
            );
        }
    }

    // Two transactions open together on disjoint subtrees: the second
    // commit lands on a moved base and merges. Only that commit is timed.
    let mut xs = fanned_store(64);
    const MERGES: u64 = 2_000;
    let mut merge_ns = 0u128;
    let ((), slow) = watched(|| {
        for i in 0..MERGES {
            // A fresh value each round: rewriting the stored value is no net
            // effect, and a commit without one has nothing to merge.
            let value = (i + 1).to_string();
            let t1 = xs.transaction_start(DOM0).expect("dom0 has no quota");
            let t2 = xs.transaction_start(DOM0).expect("dom0 has no quota");
            xs.write(
                DOM0,
                Some(t1),
                &format!("/d/k{}/a", i % 32),
                value.as_bytes(),
            )
            .expect("transactional write");
            xs.write(
                DOM0,
                Some(t2),
                &format!("/d/k{}/b", 32 + i % 32),
                value.as_bytes(),
            )
            .expect("transactional write");
            xs.transaction_end(DOM0, t1, true).expect("first commit");
            let t = Instant::now();
            xs.transaction_end(DOM0, t2, true)
                .expect("second commit merges");
            merge_ns += t.elapsed().as_nanos();
        }
    });
    assert_eq!(xs.stats().merged, MERGES, "every second commit merged");
    v.set(
        "xenstore.merge_commit_us",
        merge_ns as f64 / 1e3 / MERGES as f64 / slow,
    );
}

// ---------------------------------------------------------------------------
// xen_sim
// ---------------------------------------------------------------------------

/// Cycles before a toolstack counts as aged, and cycles averaged at each end.
/// Ageing is quadratic in host time (each cycle is dearer than the last), so
/// this is the largest single cost of a traced run; 2,000 cycles already put
/// every leaked-into directory well past the store's cheap regime.
const AGING_CYCLES: usize = 2_000;
const CYCLE_WINDOW: usize = 64;

fn xen_sim(v: &mut Values) {
    let board = BoardKind::Cubieboard2.board();
    let config = DomainConfig::unikernel("bench").with_memory_mib(16);
    let opts = BootOptimisations::jitsu();

    // One toolstack, create + destroy back to back: the first window is
    // the fresh cost, the window after AGING_CYCLES the aged cost. Nodes the
    // cycle leaves behind in XenStore are what ages it.
    let mut ts = Toolstack::new(board.clone(), EngineKind::JitsuMerge, 1);
    // The first cycle also creates the directories all domains share;
    // what later cycles leave behind is the per-cycle leak.
    let first = ts
        .create_domain(config.clone(), opts)
        .expect("16 MiB fits an empty board");
    ts.destroy(first.dom).expect("the domain exists");
    let nodes_before = ts.xenstore.node_count();
    // `cycles` create + destroy pairs; mean microseconds of each half, at
    // reference speed.
    let mut cycles = |cycles: usize| -> (f64, f64) {
        let ((create_s, destroy_s), slow) = watched(|| {
            let (mut create_s, mut destroy_s) = (0.0, 0.0);
            for _ in 0..cycles {
                let (report, secs) = timed(|| ts.create_domain(config.clone(), opts));
                let dom = report.expect("16 MiB fits an empty board").dom;
                create_s += secs;
                let (gone, secs) = timed(|| ts.destroy(dom));
                gone.expect("the domain exists");
                destroy_s += secs;
            }
            (create_s, destroy_s)
        });
        let per_cycle_us = 1e6 / cycles as f64 / slow;
        (create_s * per_cycle_us, destroy_s * per_cycle_us)
    };
    let (create_fresh, destroy_fresh) = cycles(CYCLE_WINDOW);
    cycles(AGING_CYCLES - CYCLE_WINDOW);
    let (create_aged, destroy_aged) = cycles(CYCLE_WINDOW);
    v.set("toolstack.create_us.fresh", create_fresh);
    v.set("toolstack.destroy_us.fresh", destroy_fresh);
    v.set("toolstack.create_us.aged", create_aged);
    v.set("toolstack.destroy_us.aged", destroy_aged);
    let leaked = ts.xenstore.node_count() - nodes_before;
    let total = AGING_CYCLES + CYCLE_WINDOW;
    assert_eq!(
        leaked % total,
        0,
        "the leak is a whole number of nodes per cycle"
    );
    v.set("xenstore.nodes_leaked_per_cycle", (leaked / total) as f64);

    let mut builder = DomainBuilder::new(board);
    let mut id = 1;
    v.set(
        "domain_builder.build_us",
        ns_per_call(2_000, || {
            let mut domain = XenDomain::new(DomId(id), config.clone());
            let report = builder.build(&mut domain, &config).expect("memory is free");
            black_box(report);
            builder.release(DomId(id));
            id += 1;
        }) / 1e3,
    );

    let mut bridge = Bridge::new();
    let (a, b) = (bridge.attach("a"), bridge.attach("b"));
    let mut frame = vec![0u8; 66];
    frame[..6].copy_from_slice(&[2, 0, 0, 0, 0, 2]);
    frame[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
    v.set(
        "bridge.transmit_ns",
        ns_per_call(200_000, || {
            bridge.transmit(a, &frame).expect("port a is attached");
            let got = bridge.receive(b).expect("port b is attached");
            assert!(black_box(got).is_some());
        }),
    );
}

// ---------------------------------------------------------------------------
// conduit
// ---------------------------------------------------------------------------

fn conduit(v: &mut Values) {
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    const PAIRS: u64 = 20_000;
    let (mut establish_ns, mut teardown_ns) = (0u128, 0u128);
    let ((), slow) = watched(|| {
        for _ in 0..PAIRS {
            let t = Instant::now();
            let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(1), DomId(2))
                .expect("grants and ports are free");
            establish_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            pair.teardown(&mut grants, &mut evtchn);
            teardown_ns += t.elapsed().as_nanos();
        }
    });
    let per_pair_us = 1e-3 / PAIRS as f64 / slow;
    v.set("vchan.establish_us", establish_ns as f64 * per_pair_us);
    v.set("vchan.teardown_us", teardown_ns as f64 * per_pair_us);

    let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(1), DomId(2))
        .expect("grants and ports are free");
    let frame = [0x5Au8; 66];
    v.set(
        "vchan.frame_cross_ns",
        ns_per_call(500_000, || {
            let n = pair
                .write(Side::Client, &frame, &mut evtchn)
                .expect("ring has room");
            let got = pair.read(Side::Server, usize::MAX).expect("peer is open");
            assert_eq!(n, black_box(got).len());
        }),
    );
    let bulk = vec![0xA5u8; 16 << 20];
    let (got, secs) = timed_at_reference(|| {
        pair.stream(Side::Client, &bulk, &mut evtchn)
            .expect("stream drains as it fills")
    });
    assert_eq!(got.len(), bulk.len());
    v.set("vchan.stream_mb_per_s", bulk.len() as f64 / 1e6 / secs);

    // The handoff rendezvous, as the daemon performs it once per launch.
    let mut xs = XenStore::new(EngineKind::JitsuMerge);
    let mut registry = ConduitRegistry::new();
    registry
        .register(&mut xs, "synjitsu", DOM0)
        .expect("registration on a fresh store");
    v.set(
        "rendezvous.connect_accept_us",
        ns_per_call(2_000, || {
            ConduitRegistry::connect(&mut xs, DomId(7), "synjitsu", "svc")
                .expect("the endpoint is registered");
            let mut accepted = registry
                .accept_one(&mut xs, &mut grants, &mut evtchn, "synjitsu", DOM0, "svc")
                .expect("the request was just posted");
            accepted.channel.teardown(&mut grants, &mut evtchn);
            ConduitRegistry::close(&mut xs, "synjitsu", DOM0, "svc", accepted.flow_id)
                .expect("metadata tears down");
            FlowTable::prune_closed(&mut xs, DOM0);
        }) / 1e3,
    );
}

// ---------------------------------------------------------------------------
// netstack
// ---------------------------------------------------------------------------

const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x20]);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 4, 20);
const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x64]);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 4, 100);

/// An established client/server interface pair and the client's request
/// frame, already delivered once to the server.
struct Established {
    server: Interface,
    request_frame: FrameBuf,
}

fn establish() -> Established {
    let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
    client.add_arp_entry(SERVER_IP, SERVER_MAC);
    let mut server = Interface::new(SERVER_MAC, SERVER_IP);
    server.listen_tcp(80);
    let syn = client.tcp_connect(SERVER_IP, 80);
    let (syn_ack, _) = server.handle_frame(&syn);
    let (ack, events) = client.handle_frame(&syn_ack[0]);
    let Some(IfaceEvent::TcpConnected { remote, local_port }) = events.first() else {
        panic!("handshake did not complete: {events:?}");
    };
    server.handle_frame(&ack[0]);
    let request_frame = client
        .tcp_send(*remote, *local_port, HttpRequest::get("/", "bench").emit())
        .expect("the connection is established");
    let (acks, events) = server.handle_frame(&request_frame);
    assert_eq!((acks.len(), events.len()), (1, 1));
    Established {
        server,
        request_frame,
    }
}

fn netstack(v: &mut Values) {
    let Established {
        mut server,
        request_frame,
    } = establish();

    v.set(
        "netstack.eth_ipv4_parse_ns",
        ns_per_call(500_000, || {
            let eth = EthernetFrame::parse(&request_frame).expect("well-formed frame");
            let ip = Ipv4Packet::parse(&eth.payload).expect("well-formed packet");
            black_box(ip);
        }),
    );
    let eth = EthernetFrame::parse(&request_frame).expect("well-formed frame");
    let ip = Ipv4Packet::parse(&eth.payload).expect("well-formed packet");
    v.set(
        "netstack.tcp_parse_ns",
        ns_per_call(500_000, || {
            let seg = TcpSegment::parse(&ip.payload, ip.src, ip.dst).expect("checksum holds");
            black_box(seg);
        }),
    );
    let seg = TcpSegment::parse(&ip.payload, ip.src, ip.dst).expect("checksum holds");
    v.set(
        "netstack.tcp_emit_ns",
        ns_per_call(500_000, || {
            black_box(seg.emit(ip.src, ip.dst));
        }),
    );
    v.set(
        "netstack.http_parse_ns",
        ns_per_call(500_000, || {
            let request = HttpRequest::parse(&seg.payload).expect("well-formed request");
            assert!(black_box(request).is_some());
        }),
    );
    let body = FrameBuf::from_vec(vec![b'x'; 70]);
    v.set(
        "netstack.http_emit_ns",
        ns_per_call(500_000, || {
            black_box(HttpResponse::ok(body.slice(..)).emit());
        }),
    );
    v.set(
        "netstack.dns_roundtrip_ns",
        ns_per_call(200_000, || {
            let query = DnsMessage::query(7, "svc007.storm.example");
            let parsed = DnsMessage::parse(&query.emit()).expect("query parses");
            let answer = DnsMessage::answer(&parsed, SERVER_IP, 30).emit();
            black_box(DnsMessage::parse(&answer).expect("answer parses"));
        }),
    );
    // A retransmitted data segment: full parse, connection lookup and one
    // ACK emitted, with no state change, so every call does the same work.
    v.set(
        "netstack.iface_handle_frame_ns",
        ns_per_call(500_000, || {
            let (out, events) = server.handle_frame(&request_frame);
            assert_eq!((black_box(out).len(), events.len()), (1, 0));
        }),
    );
    let mut tcb = Tcb::for_listener(SERVER_IP, 80, CLIENT_IP, 49152, 1_000);
    tcb.buffered = seg.payload.to_vec();
    v.set(
        "netstack.tcb_sexp_roundtrip_us",
        ns_per_call(100_000, || {
            let back = Tcb::from_sexp(&tcb.to_sexp()).expect("records round-trip");
            assert_eq!(black_box(back).buffered.len(), tcb.buffered.len());
        }) / 1e3,
    );
}

// ---------------------------------------------------------------------------
// unikernel
// ---------------------------------------------------------------------------

fn unikernel(seed: u64, v: &mut Values) {
    let big = warm::page_body(unit_seed(seed, STREAM_LAYERS, 0), 16 * 1024);
    v.set(
        "unikernel.instance_new_us",
        ns_per_call(20_000, || {
            black_box(warm::server(&big, 1));
        }) / 1e3,
    );

    // The frame that carries the request, timed alone: handshake frames are
    // pure netstack, this one runs the appliance and emits the response.
    for (metric, path, page_len) in [
        ("unikernel.handle_frame_ns.small", "/", None),
        ("unikernel.handle_frame_ns.16k", "/big", Some(big.len())),
    ] {
        const REQUESTS: usize = 4_000;
        let mut server = warm::server(&big, 1);
        let mut client = warm::client(0);
        let mut ns = 0u128;
        let ((), slow) = watched(|| {
            for _ in 0..REQUESTS {
                let syn = client.tcp_connect(SERVER_IP, 80);
                let (syn_ack, _) = server.handle_frame(&syn);
                let (ack, events) = client.handle_frame(&syn_ack[0]);
                let Some(IfaceEvent::TcpConnected { remote, local_port }) = events.first() else {
                    panic!("handshake did not complete: {events:?}");
                };
                server.handle_frame(&ack[0]);
                let request = client
                    .tcp_send(
                        *remote,
                        *local_port,
                        HttpRequest::get(path, "warm.example").emit(),
                    )
                    .expect("the connection is established");
                let t = Instant::now();
                let (out, _) = server.handle_frame(&request);
                ns += t.elapsed().as_nanos();
                // The ACK and the response.
                assert_eq!(out.len(), 2);
                if let Some(len) = page_len {
                    assert!(out[1].len() > len);
                }
            }
        });
        v.set(metric, ns as f64 / REQUESTS as f64 / slow);
    }

    // A connection as Synjitsu hands it over: established, request buffered.
    let Established { server, .. } = establish();
    let mut tcb = server
        .connection((CLIENT_IP, 49152), 80)
        .expect("the connection is live")
        .tcb_snapshot();
    tcb.buffered = HttpRequest::get("/", "warm.example").emit().to_vec();
    let mut instance = warm::server(&big, 1);
    v.set(
        "unikernel.adopt_handoff_us",
        ns_per_call(20_000, || {
            let (frames, _) = instance.adopt_handoff(tcb.clone(), CLIENT_MAC);
            assert_eq!(
                black_box(frames).len(),
                1,
                "the buffered request is replayed"
            );
        }) / 1e3,
    );
}

// ---------------------------------------------------------------------------
// jitsu
// ---------------------------------------------------------------------------

fn service() -> ServiceConfig {
    let mut svc = ServiceConfig::http_site("svc000.storm.example", SERVER_IP);
    svc.image.memory_mib = 16;
    svc
}

fn jitsu(v: &mut Values) {
    let svc = service();
    let config = JitsuConfig::new("storm.example").with_service(svc.clone());

    // The cold path of the directory: a query that triggers a launch.
    let mut directory = DirectoryService::new(config.clone());
    let query = DnsMessage::query(1, &svc.name);
    v.set(
        "directory.handle_query_ns",
        ns_per_call(200_000, || {
            let (_, action) = directory.handle_query(&query, SimTime::ZERO, true);
            assert!(matches!(black_box(action), DirectoryAction::Launch { .. }));
            directory.mark_stopped(&svc.name);
        }),
    );

    // One proxy cycle as a boot sees it: start, a client's SYN, ACK and
    // request through the proxy, then the two handoff phases.
    const CYCLES: u64 = 1_000;
    let mut xs = XenStore::new(EngineKind::JitsuMerge);
    let mut synjitsu = Synjitsu::new();
    let (mut frame_ns, mut frames, mut prepare_ns, mut commit_ns) = (0u128, 0u64, 0u128, 0u128);
    let ((), slow) = watched(|| {
        for _ in 0..CYCLES {
            synjitsu
                .start_proxying(&mut xs, &svc)
                .expect("proxying starts on dom0's own paths");
            let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
            client.add_arp_entry(svc.ip, svc.mac());
            let mut to_proxy = vec![client.tcp_connect(svc.ip, svc.port)];
            while let Some(frame) = to_proxy.pop() {
                let t = Instant::now();
                let replies = synjitsu
                    .handle_frame(&mut xs, &svc.name, &frame)
                    .expect("the proxy owns the traffic");
                frame_ns += t.elapsed().as_nanos();
                frames += 1;
                for reply in replies {
                    let (out, events) = client.handle_frame(&reply);
                    to_proxy.extend(out);
                    if let Some(IfaceEvent::TcpConnected { remote, local_port }) = events.first() {
                        let request = HttpRequest::get("/", &svc.name).emit();
                        to_proxy.extend(client.tcp_send(*remote, *local_port, request));
                    }
                }
            }
            let t = Instant::now();
            let flushed = synjitsu
                .prepare_handoff(&mut xs, &svc.name)
                .expect("prepare flushes");
            prepare_ns += t.elapsed().as_nanos();
            assert_eq!(flushed, 1);
            let t = Instant::now();
            let parked = synjitsu
                .commit_handoff(&mut xs, &svc.name)
                .expect("the takeover commits");
            commit_ns += t.elapsed().as_nanos();
            assert!(parked.is_empty());
        }
    });
    assert_eq!(frames, 3 * CYCLES, "SYN, ACK and request per cycle");
    let us = 1e-3 / slow;
    v.set(
        "synjitsu.handle_frame_us",
        frame_ns as f64 * us / frames as f64,
    );
    v.set(
        "synjitsu.prepare_us",
        prepare_ns as f64 * us / CYCLES as f64,
    );
    v.set("synjitsu.commit_us", commit_ns as f64 * us / CYCLES as f64);

    // Summon + retire on a fresh toolstack (its ageing is
    // toolstack.*.aged's business).
    let toolstack = Toolstack::new(BoardKind::Cubieboard2.board(), EngineKind::JitsuMerge, 1);
    let mut launcher = Launcher::new(toolstack, config.boot);
    let (mut summon_ns, mut retire_ns) = (0u128, 0u128);
    let ((), slow) = watched(|| {
        for i in 0..CYCLE_WINDOW as u64 {
            let t = Instant::now();
            let (outcome, instance) = launcher
                .summon(&svc, SimTime::ZERO, i)
                .expect("16 MiB fits an empty board");
            summon_ns += t.elapsed().as_nanos();
            black_box(instance);
            let t = Instant::now();
            launcher.retire(outcome.dom).expect("the domain exists");
            retire_ns += t.elapsed().as_nanos();
        }
    });
    let per_cycle_us = 1e-3 / CYCLE_WINDOW as f64 / slow;
    v.set("launcher.summon_us", summon_ns as f64 * per_cycle_us);
    v.set("launcher.retire_us", retire_ns as f64 * per_cycle_us);
}
