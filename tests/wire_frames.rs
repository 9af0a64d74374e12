//! The wire format, pinned byte for byte.
//!
//! `golden/wire_frames.txt` holds every kind of frame an [`Interface`]
//! emits — the TCP handshake, data segments of 1, 69 (odd: checksum
//! padding) and 16,384 bytes, FIN and RST, a DNS query and answer over UDP,
//! an ICMP echo and an ARP exchange — recorded while each protocol layer
//! still built and sealed its own buffer. The frame path now composes
//! `eth | ip | l4 | payload` once; the bytes it produces must be those.
//! `golden/http_messages.txt` does the same for every HTTP message
//! constructor's `emit()`, recorded while a message was still `String`s in a
//! `BTreeMap`.
//!
//! The property test below covers what a fixed script cannot: for random
//! addresses, ports and payload sizes up to 20 KiB, every frame of a
//! conversation parses back through the three codecs to a payload that is
//! a view of the frame, and equals the three pinned `emit()`s nested.

use jitsu_repro::netstack::ethernet::{EtherType, EthernetFrame};
use jitsu_repro::netstack::http::{HttpRequest, HttpResponse};
use jitsu_repro::netstack::iface::{IfaceEvent, Interface};
use jitsu_repro::netstack::ipv4::{Ipv4Packet, Protocol};
use jitsu_repro::netstack::tcp::TcpSegment;
use jitsu_repro::netstack::{FrameBuf, MacAddr};
use jitsu_repro::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const GOLDEN: &str = include_str!("golden/wire_frames.txt");

const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x64]);
const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x20]);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 20);

/// Frames up to this long are recorded in full; longer ones by length and
/// FNV-1a hash.
const FULL_HEX_LIMIT: usize = 160;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn record(log: &mut String, name: &str, frame: &FrameBuf) {
    let body = if frame.len() <= FULL_HEX_LIMIT {
        frame.iter().map(|b| format!("{b:02x}")).collect::<String>()
    } else {
        "-".to_string()
    };
    log.push_str(&format!(
        "{name} len={} fnv={:016x} {body}\n",
        frame.len(),
        fnv1a(frame)
    ));
}

/// The single frame `iface` answers `frame` with.
fn reply(iface: &mut Interface, frame: &FrameBuf) -> FrameBuf {
    let (mut out, _) = iface.handle_frame(frame);
    assert_eq!(out.len(), 1, "exactly one frame answers");
    out.remove(0)
}

#[test]
fn every_frame_kind_matches_the_bytes_recorded_before_the_codecs_changed() {
    let mut log = String::new();
    let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
    let mut server = Interface::new(SERVER_MAC, SERVER_IP);

    // ARP: the client resolves the server; both caches are primed after.
    let who_has = client.arp_request(SERVER_IP);
    record(&mut log, "arp_request", &who_has);
    let is_at = reply(&mut server, &who_has);
    record(&mut log, "arp_reply", &is_at);
    client.handle_frame(&is_at);

    // TCP: handshake, three data segments with their ACKs, FIN, and a RST
    // from a port nobody listens on.
    server.listen_tcp(80);
    let syn = client.tcp_connect(SERVER_IP, 80);
    record(&mut log, "tcp_syn", &syn);
    let syn_ack = reply(&mut server, &syn);
    record(&mut log, "tcp_syn_ack", &syn_ack);
    let ack = reply(&mut client, &syn_ack);
    record(&mut log, "tcp_ack", &ack);
    server.handle_frame(&ack);
    let (remote, port) = ((SERVER_IP, 80), 49152);
    let page: Vec<u8> = (0..16 * 1024).map(|i| (i % 251) as u8).collect();
    for (name, payload) in [
        ("tcp_psh_ack_1", &page[..1]),
        ("tcp_psh_ack_69", &page[..69]),
        ("tcp_psh_ack_16k", &page[..]),
    ] {
        let data = client
            .tcp_send(remote, port, payload)
            .expect("the connection is established");
        record(&mut log, name, &data);
        let data_ack = reply(&mut server, &data);
        record(&mut log, &format!("{name}_acked"), &data_ack);
        client.handle_frame(&data_ack);
    }
    let fin = client
        .tcp_close(remote, port)
        .expect("the connection exists");
    record(&mut log, "tcp_fin_ack", &fin);
    record(&mut log, "tcp_fin_acked", &reply(&mut server, &fin));
    let stray = client.tcp_connect(SERVER_IP, 81);
    record(&mut log, "tcp_rst", &reply(&mut server, &stray));

    // UDP: a DNS query and its answer.
    let query = DnsMessage::query(0x4a17, "alice.family.name");
    let query_frame = client
        .udp_send(SERVER_IP, 5353, 53, query.emit())
        .expect("a DNS query fits one datagram");
    record(&mut log, "udp_dns_query", &query_frame);
    let (_, events) = server.handle_frame(&query_frame);
    let [IfaceEvent::Udp { src, payload, .. }] = &events[..] else {
        panic!("the query is delivered as one datagram, got {events:?}");
    };
    let parsed = DnsMessage::parse(payload).expect("the query parses");
    let answer = DnsMessage::answer(&parsed, Ipv4Addr::new(192, 168, 1, 21), 30);
    let answer_frame = server
        .udp_send(src.0, 53, src.1, answer.emit())
        .expect("a DNS answer fits one datagram");
    record(&mut log, "udp_dns_answer", &answer_frame);

    // ICMP: an echo request (odd payload length) and its reply.
    let ping = client
        .icmp_echo_request(SERVER_IP, 0x77, 3, 57)
        .expect("57 bytes fit one datagram");
    record(&mut log, "icmp_echo_request", &ping);
    record(&mut log, "icmp_echo_reply", &reply(&mut server, &ping));

    assert!(
        log == GOLDEN,
        "emitted frames differ from tests/golden/wire_frames.txt; emitted:\n{log}"
    );
}

const HTTP_GOLDEN: &str = include_str!("golden/http_messages.txt");

/// The `emit()` bytes of every message constructor, recorded while a message
/// was still a `String`/`BTreeMap` struct serialised field by field. A built
/// message now writes its head once; its bytes must be those.
#[test]
fn every_http_constructor_emits_the_bytes_recorded_before_the_codec_changed() {
    let page: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
    let messages = [
        (
            "get_root",
            HttpRequest::get("/", "alice.family.name").emit(),
        ),
        ("get_path", HttpRequest::get("/photos/cat.jpg", "h").emit()),
        (
            "post_empty",
            HttpRequest::post("/q", "q.local", Vec::new()).emit(),
        ),
        (
            "post_body",
            HttpRequest::post("/queue", "q.local", b"item-1".to_vec()).emit(),
        ),
        (
            "post_binary",
            HttpRequest::post("/upload", "u", page.clone()).emit(),
        ),
        ("ok_empty", HttpResponse::ok(FrameBuf::empty()).emit()),
        (
            "ok_page",
            HttpResponse::ok(b"<html>hello</html>".to_vec()).emit(),
        ),
        ("ok_binary", HttpResponse::ok(page).emit()),
        (
            "status_100",
            HttpResponse::with_status(100, "Continue", FrameBuf::empty()).emit(),
        ),
        (
            "status_201",
            HttpResponse::with_status(201, "Created", b"queued\n".to_vec()).emit(),
        ),
        (
            "status_204",
            HttpResponse::with_status(204, "No Content", FrameBuf::empty()).emit(),
        ),
        (
            "status_400",
            HttpResponse::with_status(400, "Bad Request", FrameBuf::empty()).emit(),
        ),
        (
            "status_599",
            HttpResponse::with_status(599, "", b"x".to_vec()).emit(),
        ),
        ("not_found", HttpResponse::not_found().emit()),
        ("unavailable", HttpResponse::unavailable().emit()),
    ];
    let mut log = String::new();
    for (name, bytes) in &messages {
        log.push_str(&format!(
            "{name} len={} fnv={:016x} {}\n",
            bytes.len(),
            fnv1a(bytes),
            bytes.escape_ascii()
        ));
    }
    assert!(
        log == HTTP_GOLDEN,
        "emitted messages differ from tests/golden/http_messages.txt; emitted:\n{log}"
    );
}

/// Check one emitted frame: it parses through all three codecs, the TCP
/// payload is a view of the frame itself, and nesting the three `emit()`s
/// over the parsed fields reproduces the frame. Returns the segment.
fn check_tcp_frame(frame: &FrameBuf) -> Result<TcpSegment, TestCaseError> {
    let eth = EthernetFrame::parse(frame).expect("ethernet parses");
    prop_assert_eq!(eth.ethertype, EtherType::Ipv4);
    let ip = Ipv4Packet::parse(&eth.payload).expect("ipv4 parses");
    prop_assert_eq!(ip.protocol, Protocol::Tcp);
    prop_assert_eq!(eth.payload.len(), 20 + ip.payload.len());
    let seg = TcpSegment::parse(&ip.payload, ip.src, ip.dst).expect("tcp parses");
    prop_assert_eq!(ip.payload.len(), 20 + seg.payload.len());
    if !seg.payload.is_empty() {
        prop_assert!(seg.payload.shares_allocation(frame));
    }
    let nested = EthernetFrame::new(
        eth.dst,
        eth.src,
        EtherType::Ipv4,
        Ipv4Packet::new(ip.src, ip.dst, Protocol::Tcp, seg.emit(ip.src, ip.dst)).emit(),
    )
    .emit();
    prop_assert_eq!(&nested, frame);
    Ok(seg)
}

/// `mac` with the group bit cleared.
fn unicast(mut mac: [u8; 6]) -> MacAddr {
    mac[0] &= 0xfe;
    MacAddr(mac)
}

/// Seed-derived payload bytes.
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn composed_tcp_frames_parse_back_and_equal_the_nested_emits(
        client_ip in any::<[u8; 4]>(), server_ip in any::<[u8; 4]>(),
        client_mac in any::<[u8; 6]>(), server_mac in any::<[u8; 6]>(),
        port in 1u16..=65535, ephemeral in 1024u16..=65535,
        len in 0usize..=20 * 1024, seed in any::<u64>())
    {
        prop_assume!(client_ip != server_ip);
        // Unicast MACs, so neither side mistakes a frame for a broadcast.
        let (client_mac, server_mac) = (unicast(client_mac), unicast(server_mac));
        prop_assume!(client_mac != server_mac);
        let (client_ip, server_ip) = (Ipv4Addr(client_ip), Ipv4Addr(server_ip));
        prop_assume!(client_ip != Ipv4Addr::BROADCAST && server_ip != Ipv4Addr::BROADCAST);
        let mut client = Interface::new(client_mac, client_ip);
        let mut server = Interface::new(server_mac, server_ip);
        client.add_arp_entry(server_ip, server_mac);
        server.add_arp_entry(client_ip, client_mac);
        client.set_ephemeral_base(ephemeral);
        server.listen_tcp(port);

        let syn = client.tcp_connect(server_ip, port);
        let local_port = check_tcp_frame(&syn)?.src_port;
        let syn_ack = reply(&mut server, &syn);
        prop_assert!(check_tcp_frame(&syn_ack)?.flags.syn);
        let ack = reply(&mut client, &syn_ack);
        check_tcp_frame(&ack)?;
        server.handle_frame(&ack);

        // The same length with either parity, client to server and back.
        for (i, len) in [len, len ^ 1].into_iter().enumerate() {
            let bytes = payload(seed.wrapping_add(i as u64), len);
            let request = client
                .tcp_send((server_ip, port), local_port, &bytes[..])
                .expect("the connection is established");
            let seg = check_tcp_frame(&request)?;
            prop_assert_eq!(&seg.payload, &bytes);
            prop_assert_eq!((seg.src_port, seg.dst_port), (local_port, port));
            let (acks, events) = server.handle_frame(&request);
            for frame in &acks {
                check_tcp_frame(frame)?;
                client.handle_frame(frame);
            }
            if len > 0 {
                let [IfaceEvent::TcpData { data, .. }] = &events[..] else {
                    return Err(TestCaseError::Fail(format!("expected data, got {events:?}")));
                };
                prop_assert_eq!(data, &bytes);
                prop_assert!(data.shares_allocation(&request));
            }
            let response = server
                .tcp_send((client_ip, local_port), port, FrameBuf::from_vec(bytes.clone()))
                .expect("the connection is established");
            prop_assert_eq!(&check_tcp_frame(&response)?.payload, &bytes);
            for frame in client.handle_frame(&response).0 {
                check_tcp_frame(&frame)?;
                server.handle_frame(&frame);
            }
        }
        let fin = client
            .tcp_close((server_ip, port), local_port)
            .expect("the connection exists");
        prop_assert!(check_tcp_frame(&fin)?.flags.fin);
        check_tcp_frame(&reply(&mut server, &fin))?;
    }
}
