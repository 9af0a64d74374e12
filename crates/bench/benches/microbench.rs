//! Criterion micro-benchmarks for the hot paths behind the paper's
//! experiments: XenStore transaction commits per engine (Figure 3's inner
//! loop), domain construction (Figure 4), the vchan byte path (Conduit,
//! §3.2), the TCP handshake + TCB serialisation used by Synjitsu (§3.3.1),
//! and a full simulated cold start (Figure 9a's unit of work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu::jitsud::Jitsud;
use netstack::ipv4::Ipv4Addr;
use netstack::tcp::{Connection, Listener, Tcb};
use platform::BoardKind;
use xen_sim::domain::DomainConfig;
use xen_sim::event_channel::EventChannelTable;
use xen_sim::grant_table::GrantTable;
use xen_sim::toolstack::{BootOptimisations, Toolstack};
use xenstore::{DomId, EngineKind, XenStore};

fn bench_xenstore_transactions(c: &mut Criterion) {
    let mut group = c.benchmark_group("xenstore_txn_commit");
    group.sample_size(20);
    for engine in EngineKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(engine.label()),
            &engine,
            |b, &engine| {
                let mut xs = XenStore::new(engine);
                let mut i = 0u64;
                b.iter(|| {
                    i += 1;
                    let t = xs.transaction_start(DomId::DOM0).unwrap();
                    for op in 0..8 {
                        xs.write(
                            DomId::DOM0,
                            Some(t),
                            &format!("/local/domain/{}/op{}", i % 256, op),
                            b"v",
                        )
                        .unwrap();
                    }
                    xs.transaction_end(DomId::DOM0, t, true).unwrap();
                });
            },
        );
    }
    group.finish();
}

fn bench_domain_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("domain_construction");
    group.sample_size(20);
    for (label, opts) in [
        ("vanilla", BootOptimisations::vanilla()),
        ("jitsu", BootOptimisations::jitsu()),
    ] {
        group.bench_function(label, |b| {
            let mut ts = Toolstack::new(BoardKind::Cubieboard2.board(), EngineKind::JitsuMerge, 1);
            b.iter(|| {
                ts.measure_create(DomainConfig::unikernel("bench"), opts)
                    .unwrap();
            });
        });
    }
    group.finish();
}

fn bench_vchan_throughput(c: &mut Criterion) {
    use conduit::vchan::{Side, VchanPair};
    c.bench_function("vchan_write_read_1kib", |b| {
        let mut grants = GrantTable::new();
        let mut evtchn = EventChannelTable::new();
        let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(3), DomId(7)).unwrap();
        let data = vec![0xA5u8; 1024];
        b.iter(|| {
            pair.write(Side::Client, &data, &mut evtchn).unwrap();
            let got = pair.read(Side::Server, 1024).unwrap();
            assert_eq!(got.len(), 1024);
        });
    });
}

fn bench_tcp_handshake_and_handoff(c: &mut Criterion) {
    c.bench_function("tcp_handshake_plus_tcb_serialisation", |b| {
        let server_ip = Ipv4Addr::new(192, 168, 1, 20);
        let client_ip = Ipv4Addr::new(192, 168, 1, 100);
        b.iter(|| {
            let mut listener = Listener::new(server_ip, 80, 7);
            let (mut client, syn) = Connection::connect(client_ip, 51000, server_ip, 80, 1000);
            let (mut server, syn_ack) = listener.on_syn(client_ip, &syn).unwrap();
            let acks = client.on_segment(&syn_ack);
            server.on_segment(acks[0].as_ref().unwrap());
            let req = client.send(b"GET / HTTP/1.1\r\n\r\n");
            server.on_segment(&req);
            let sexp = server.tcb.to_sexp();
            let adopted = Tcb::from_sexp(&sexp).unwrap();
            assert_eq!(adopted.local_port, 80);
        });
    });
}

fn bench_cold_start(c: &mut Criterion) {
    let mut group = c.benchmark_group("jitsu_cold_start_simulation");
    group.sample_size(10);
    group.bench_function("optimised_synjitsu", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let config = JitsuConfig::new("family.name").with_service(ServiceConfig::http_site(
                "alice.family.name",
                Ipv4Addr::new(192, 168, 1, 20),
            ));
            let mut jitsud = Jitsud::new(config, BoardKind::Cubieboard2.board(), i);
            let report = jitsud
                .cold_start_request("alice.family.name", Ipv4Addr::new(192, 168, 1, 100), "/")
                .unwrap();
            assert_eq!(report.http_status, 200);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_xenstore_transactions,
    bench_domain_construction,
    bench_vchan_throughput,
    bench_tcp_handshake_and_handoff,
    bench_cold_start
);
criterion_main!(benches);
