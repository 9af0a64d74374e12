//! Integration tests for the zero-copy frame path: a packet travelling
//! bridge → vchan ring → unikernel is copied exactly once, at ring ingress.
//! Everything downstream of the drain — ethernet/IP/TCP parsing, in-order
//! delivery, HTTP reassembly — hands out `FrameBuf` views of that single
//! allocation, and the tests here prove it with `shares_allocation`
//! assertions on real end-to-end exchanges.
//!
//! The last two tests pin the exchange itself: its ten frames, flag by flag,
//! and the order in which a unikernel answers a request that arrives with
//! the client's FIN.

use jitsu_repro::conduit::vchan::{Side, VchanPair};
use jitsu_repro::netstack::ethernet::{EtherType, EthernetFrame};
use jitsu_repro::netstack::http::{HttpRequest, HttpResponse};
use jitsu_repro::netstack::iface::{IfaceEvent, Interface};
use jitsu_repro::netstack::ipv4::{Ipv4Packet, Protocol};
use jitsu_repro::netstack::tcp::{TcpFlags, TcpSegment};
use jitsu_repro::netstack::{FrameBuf, MacAddr};
use jitsu_repro::prelude::*;
use jitsu_repro::unikernel::appliance::{Appliance, StaticSiteAppliance};
use jitsu_repro::unikernel::image::UnikernelImage;
use jitsu_repro::unikernel::instance::UnikernelInstance;
use jitsu_repro::xen::event_channel::EventChannelTable;
use jitsu_repro::xen::grant_table::GrantTable;

const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x20]);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 20);
const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x64]);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);

fn unikernel() -> UnikernelInstance {
    UnikernelInstance::new(
        UnikernelImage::mirage("alice"),
        SERVER_MAC,
        SERVER_IP,
        80,
        Box::new(StaticSiteAppliance::new("alice")),
        99,
    )
}

/// Every TCP payload the unikernel's responses deliver to the client must be
/// an O(1) view of the Ethernet frame it arrived in — no hidden copy between
/// the wire and the application.
#[test]
fn response_bytes_reach_the_client_as_views_of_the_arriving_frames() {
    let mut server = unikernel();
    let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
    client.add_arp_entry(SERVER_IP, SERVER_MAC);
    server.iface.add_arp_entry(CLIENT_IP, CLIENT_MAC);

    let mut to_server = vec![client.tcp_connect(SERVER_IP, 80)];
    let local_port = 49152;
    let mut sent_request = false;
    let mut response = Vec::new();
    let mut data_events = 0usize;
    for _ in 0..32 {
        if to_server.is_empty() {
            break;
        }
        let mut to_client = Vec::new();
        for f in to_server.drain(..) {
            let (out, _) = server.handle_frame(&f);
            to_client.extend(out);
        }
        for frame in to_client {
            let (out, events) = client.handle_frame(&frame);
            to_server.extend(out);
            for ev in events {
                match ev {
                    IfaceEvent::TcpConnected { remote, .. } if !sent_request => {
                        sent_request = true;
                        let req = HttpRequest::get("/", "alice").emit();
                        let f = client.tcp_send(remote, local_port, &req).unwrap();
                        to_server.push(f);
                    }
                    IfaceEvent::TcpData { data, .. } => {
                        data_events += 1;
                        assert!(
                            data.shares_allocation(&frame),
                            "delivered payload must be a view of the frame it \
                             arrived in"
                        );
                        response.extend_from_slice(&data);
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(data_events > 0, "the exchange must deliver payload bytes");
    let response = FrameBuf::from_vec(response);
    let parsed = HttpResponse::parse(&response).unwrap().unwrap();
    assert_eq!(parsed.status, 200);
    assert!(String::from_utf8_lossy(&parsed.body).contains("alice"));
}

/// Push every client→server frame through a real vchan ring and hand the
/// drained buffer straight to the server interface: the request payload the
/// server sees shares the allocation created at ring egress, so the only
/// copy on the path is the ring transfer itself.
#[test]
fn a_request_crossing_the_vchan_ring_is_copied_only_at_the_ring() {
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(3), DomId(7)).unwrap();

    let mut server = Interface::new(SERVER_MAC, SERVER_IP);
    server.listen_tcp(80);
    let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
    client.add_arp_entry(SERVER_IP, SERVER_MAC);
    server.add_arp_entry(CLIENT_IP, CLIENT_MAC);

    let request = HttpRequest::get("/", "alice").emit();
    let mut to_server = vec![client.tcp_connect(SERVER_IP, 80)];
    let local_port = 49152;
    let mut sent_request = false;
    let mut ring_bytes = 0u64;
    let mut server_payload = Vec::new();
    for _ in 0..32 {
        if to_server.is_empty() {
            break;
        }
        let mut to_client = Vec::new();
        for f in to_server.drain(..) {
            // The ring transfer: the frame's bytes are copied into the ring
            // by `write` and materialised exactly once by `read`.
            let mut offset = 0;
            while offset < f.len() {
                offset += pair.write(Side::Client, &f[offset..], &mut evtchn).unwrap();
            }
            ring_bytes += f.len() as u64;
            let wire = pair.read(Side::Server, usize::MAX).unwrap();
            assert_eq!(&wire, &f, "the ring is loss-free and order-preserving");
            let (out, events) = server.handle_frame(&wire);
            to_client.extend(out);
            for ev in events {
                if let IfaceEvent::TcpData { data, .. } = ev {
                    assert!(
                        data.shares_allocation(&wire),
                        "server-side payload must be a view of the buffer \
                         drained from the ring"
                    );
                    server_payload.extend_from_slice(&data);
                }
            }
        }
        for f in to_client {
            let (out, events) = client.handle_frame(&f);
            to_server.extend(out);
            for ev in events {
                if let IfaceEvent::TcpConnected { remote, .. } = ev {
                    if !sent_request {
                        sent_request = true;
                        let f = client.tcp_send(remote, local_port, &request).unwrap();
                        to_server.push(f);
                    }
                }
            }
        }
    }
    assert_eq!(
        FrameBuf::from_vec(server_payload),
        request,
        "the request survives the ring byte-identically"
    );
    assert_eq!(
        pair.bytes_to_server(),
        ring_bytes,
        "every byte crossed the ring exactly once"
    );
}

/// The ring drain itself hands back a single shared buffer when the transfer
/// fit in one drain, and a zero-byte drain does not allocate at all.
#[test]
fn ring_drains_are_single_allocations_and_empty_drains_are_free() {
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(3), DomId(7)).unwrap();

    let frame = [0xABu8; 600];
    let mut offset = 0;
    while offset < frame.len() {
        offset += pair
            .write(Side::Client, &frame[offset..], &mut evtchn)
            .unwrap();
    }
    let drained = pair.read(Side::Server, usize::MAX).unwrap();
    assert!(drained.has_allocation(), "a non-empty drain owns its bytes");
    assert_eq!(&drained, &frame[..]);
    // A view of the drain shares the drain's allocation: downstream parsing
    // never re-copies.
    assert!(drained.slice(14..).shares_allocation(&drained));

    let empty = pair.read(Side::Server, usize::MAX).unwrap();
    assert!(empty.is_empty());
    assert!(
        !empty.has_allocation(),
        "an idle ring poll must not allocate"
    );
}

/// The TCP segment a frame carries.
fn segment(frame: &FrameBuf) -> TcpSegment {
    let eth = EthernetFrame::parse(frame).unwrap();
    let ip = Ipv4Packet::parse(&eth.payload).unwrap();
    TcpSegment::parse(&ip.payload, ip.src, ip.dst).unwrap()
}

/// One warm exchange as the benchmark of record drives it — connect, GET,
/// read the response, close once the line is quiet — with every frame in
/// the order it went on the wire.
#[test]
fn a_warm_exchange_is_ten_frames_and_leaves_no_connection_behind() {
    let mut server = unikernel();
    let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
    client.add_arp_entry(SERVER_IP, SERVER_MAC);
    let mut wire = Vec::new();
    let mut to_server = vec![client.tcp_connect(SERVER_IP, 80)];
    let mut connection = None;
    let mut response = Vec::new();
    for _ in 0..16 {
        if to_server.is_empty() {
            match connection.take() {
                Some((remote, port)) => {
                    to_server.extend(client.tcp_close(remote, port));
                    continue;
                }
                None => break,
            }
        }
        let mut to_client = Vec::new();
        for frame in to_server.drain(..) {
            to_client.extend(server.handle_frame(&frame).0);
            wire.push(frame);
        }
        for frame in to_client {
            let (out, events) = client.handle_frame(&frame);
            wire.push(frame);
            to_server.extend(out);
            for event in events {
                match event {
                    IfaceEvent::TcpConnected { remote, local_port } => {
                        connection = Some((remote, local_port));
                        let request = HttpRequest::get("/", "alice").emit();
                        to_server.extend(client.tcp_send(remote, local_port, request));
                    }
                    IfaceEvent::TcpData { data, .. } => response.extend_from_slice(&data),
                    _ => {}
                }
            }
        }
    }
    let flags: Vec<TcpFlags> = wire.iter().map(|f| segment(f).flags).collect();
    use TcpFlags as F;
    assert_eq!(
        flags,
        [
            F::SYN,
            F::SYN_ACK,
            F::ACK,
            F::PSH_ACK,
            F::ACK,
            F::PSH_ACK,
            F::ACK,
            F::FIN_ACK,
            F::FIN_ACK,
            F::ACK
        ]
    );
    let parsed = HttpResponse::parse(&FrameBuf::from_vec(response))
        .unwrap()
        .unwrap();
    assert_eq!(parsed.status, 200);
    assert_eq!(server.iface.connection_count(), 0);
    assert_eq!(client.connection_count(), 0);
}

/// A client that sends its request and its FIN in one segment is answered
/// in sequence order: the ACK, the whole response, then the FIN+ACK.
#[test]
fn a_request_and_a_fin_in_one_segment_are_answered_ack_response_fin() {
    let mut server = unikernel();
    let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
    client.add_arp_entry(SERVER_IP, SERVER_MAC);
    let syn = client.tcp_connect(SERVER_IP, 80);
    let (syn_ack, _) = server.handle_frame(&syn);
    let (ack, _) = client.handle_frame(&syn_ack[0]);
    server.handle_frame(&ack[0]);

    let request = HttpRequest::get("/", "alice").emit();
    let mut last = segment(
        &client
            .tcp_send((SERVER_IP, 80), 49152, &request)
            .expect("the connection is established"),
    );
    last.flags.fin = true;
    let ip = Ipv4Packet::new(
        CLIENT_IP,
        SERVER_IP,
        Protocol::Tcp,
        last.emit(CLIENT_IP, SERVER_IP),
    );
    let frame = EthernetFrame::new(SERVER_MAC, CLIENT_MAC, EtherType::Ipv4, ip.emit()).emit();

    let (out, _) = server.handle_frame(&frame);
    let segments: Vec<TcpSegment> = out.iter().map(segment).collect();
    let [data_ack, reply, fin] = &segments[..] else {
        panic!("three frames answer, got {segments:?}");
    };
    let request_end = last.seq.wrapping_add(request.len() as u32);
    assert_eq!((data_ack.flags, data_ack.ack), (TcpFlags::ACK, request_end));
    let (expected, _) = StaticSiteAppliance::new("alice").handle(
        &HttpRequest::get("/", "alice"),
        &mut SimRng::seed_from_u64(0),
    );
    assert_eq!(reply.flags, TcpFlags::PSH_ACK);
    assert_eq!(reply.payload, expected.emit(), "the response is byte-exact");
    assert_eq!((fin.flags, fin.ack), (TcpFlags::FIN_ACK, request_end + 1));
    assert_eq!(fin.seq, reply.seq.wrapping_add(reply.payload.len() as u32));

    // The client's ACK of that FIN ends the flow on the server too.
    let last_ack = TcpSegment::control(49152, 80, request_end + 1, fin.seq + 1, TcpFlags::ACK);
    let ip = Ipv4Packet::new(
        CLIENT_IP,
        SERVER_IP,
        Protocol::Tcp,
        last_ack.emit(CLIENT_IP, SERVER_IP),
    );
    server.handle_frame(
        &EthernetFrame::new(SERVER_MAC, CLIENT_MAC, EtherType::Ipv4, ip.emit()).emit(),
    );
    assert_eq!(server.iface.connection_count(), 0);
}
