//! A sans-io network interface: one MAC + IPv4 address, ARP, ICMP echo,
//! UDP delivery and TCP listeners/connections.
//!
//! This is the object a unikernel (or Synjitsu, or the simulated external
//! client) instantiates on top of its link. Frames go in via
//! [`Interface::handle_frame`]; the return value carries both the frames to
//! transmit in response (ARP replies, ICMP echo replies, TCP ACKs, …) and
//! higher-level events (datagrams and TCP data) for the application to act
//! on. Nothing here performs I/O, so the same interface code runs over the
//! simulated dom0 bridge, over a conduit, or in unit tests.

use crate::arp::{ArpCache, ArpOp, ArpPacket};
use crate::buf::{FrameBuf, FrameBufMut};
use crate::ethernet::{self, EtherType, EthernetFrame, MacAddr};
use crate::icmp::IcmpEcho;
use crate::ipv4::{self, Ipv4Addr, Ipv4Packet, PayloadLen, Protocol};
use crate::tcp::{self, Connection, Listener, TcpFlags, TcpSegment, TcpState};
use crate::udp::UdpDatagram;
use std::collections::btree_map::{BTreeMap, Entry};

/// The first port of the ephemeral range [`Interface::tcp_connect`] cycles
/// through (49152–65535, RFC 6335's dynamic ports).
const EPHEMERAL_BASE: u16 = 49152;

/// Events surfaced to the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IfaceEvent {
    /// A TCP connection completed its handshake.
    TcpConnected {
        /// Remote endpoint.
        remote: (Ipv4Addr, u16),
        /// Local port.
        local_port: u16,
    },
    /// In-order TCP data arrived on a connection.
    TcpData {
        /// Remote endpoint.
        remote: (Ipv4Addr, u16),
        /// Local port.
        local_port: u16,
        /// The received bytes: a view of the frame's shared buffer when a
        /// single segment is pending (the common case).
        data: FrameBuf,
    },
    /// The remote side ended a connection: its FIN was accepted, or it
    /// reset the flow before sending one. Reported once per connection: an
    /// RST after the FIN raises nothing. For a FIN that leaves the
    /// connection half-open (`CloseWait`), the last frame `handle_frame`
    /// returned is the bare ACK of that FIN.
    TcpClosed {
        /// Remote endpoint.
        remote: (Ipv4Addr, u16),
        /// Local port.
        local_port: u16,
    },
    /// A UDP datagram arrived.
    Udp {
        /// Source endpoint.
        src: (Ipv4Addr, u16),
        /// Destination port.
        dst_port: u16,
        /// Payload: a view into the received frame's shared buffer.
        payload: FrameBuf,
    },
    /// An ICMP echo reply arrived (the client side of Figure 8's ping).
    IcmpEchoReply {
        /// Source address of the reply.
        src: Ipv4Addr,
        /// Echo identifier.
        ident: u16,
        /// Echo sequence number.
        seq: u16,
        /// Payload length.
        payload_len: usize,
    },
}

/// Key identifying a connection — (remote ip, remote port, local port) —
/// packed into one word in that order: the address big-endian in the top
/// half, then the two ports. Keys therefore sort exactly as the tuple does,
/// and a probe of the connection map compares one integer a node instead of
/// a `memcmp` and two shorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ConnKey(u64);

impl ConnKey {
    fn new(remote_ip: Ipv4Addr, remote_port: u16, local_port: u16) -> ConnKey {
        ConnKey(
            u64::from(u32::from_be_bytes(remote_ip.0)) << 32
                | u64::from(remote_port) << 16
                | u64::from(local_port),
        )
    }

    /// `(remote ip, remote port, local port)`.
    fn parts(self) -> (Ipv4Addr, u16, u16) {
        let [a, b, c, d, rp_hi, rp_lo, lp_hi, lp_lo] = self.0.to_be_bytes();
        (
            Ipv4Addr([a, b, c, d]),
            u16::from_be_bytes([rp_hi, rp_lo]),
            u16::from_be_bytes([lp_hi, lp_lo]),
        )
    }
}

/// A sans-io interface.
#[derive(Debug)]
pub struct Interface {
    /// Our MAC address.
    pub mac: MacAddr,
    /// Our IPv4 address.
    pub ip: Ipv4Addr,
    arp_cache: ArpCache,
    listeners: Vec<Listener>,
    /// Live flows only: a connection leaves the table the moment it is
    /// `Closed`, by the last ACK of a close or by an RST.
    connections: BTreeMap<ConnKey, Connection>,
    next_ephemeral: u16,
    isn_seed: u32,
}

impl Interface {
    /// Create an interface with the given addresses.
    pub fn new(mac: MacAddr, ip: Ipv4Addr) -> Interface {
        Interface {
            mac,
            ip,
            arp_cache: ArpCache::new(),
            listeners: Vec::new(),
            connections: BTreeMap::new(),
            next_ephemeral: EPHEMERAL_BASE,
            isn_seed: u32::from_be_bytes(ip.0).wrapping_mul(2654435761),
        }
    }

    /// Override the base of the ephemeral port range used by
    /// [`Interface::tcp_connect`] (useful when a fresh interface must not
    /// collide with connections an earlier interface at the same address
    /// established — e.g. repeated simulated clients).
    pub fn set_ephemeral_base(&mut self, port: u16) {
        self.next_ephemeral = port.max(1024);
    }

    /// Start listening for TCP connections on a port.
    pub fn listen_tcp(&mut self, port: u16) {
        if !self.listeners.iter().any(|l| l.local_port == port) {
            self.listeners.push(Listener::new(
                self.ip,
                port,
                self.isn_seed.wrapping_add(port as u32),
            ));
        }
    }

    /// Number of live TCP connections (closed ones are forgotten).
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Access a connection's state (for tests and Synjitsu's handoff).
    pub fn connection(&self, remote: (Ipv4Addr, u16), local_port: u16) -> Option<&Connection> {
        self.connections
            .get(&ConnKey::new(remote.0, remote.1, local_port))
    }

    /// The keys of all live connections as `(remote ip, remote port,
    /// local port)` — used by Synjitsu to mirror every proxied connection
    /// into XenStore.
    pub fn connection_keys(&self) -> Vec<(Ipv4Addr, u16, u16)> {
        self.connections.keys().map(|key| key.parts()).collect()
    }

    /// Adopt a connection built elsewhere (the unikernel side of the
    /// Synjitsu handoff). Also primes the ARP cache so replies can be sent
    /// without another resolution round trip.
    pub fn adopt_connection(&mut self, conn: Connection, remote_mac: MacAddr) {
        let key = ConnKey::new(
            conn.tcb.remote_ip,
            conn.tcb.remote_port,
            conn.tcb.local_port,
        );
        self.arp_cache.insert(conn.tcb.remote_ip, remote_mac);
        self.connections.insert(key, conn);
    }

    /// Record an IP → MAC mapping (e.g. learned out of band).
    pub fn add_arp_entry(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp_cache.insert(ip, mac);
    }

    fn lookup_mac(&self, ip: Ipv4Addr) -> MacAddr {
        self.arp_cache.lookup(ip).unwrap_or(MacAddr::BROADCAST)
    }

    /// The composition point: build `eth | ipv4 | l4` for `dst_ip` once, in
    /// one buffer sized up front. `write_l4` appends the transport header
    /// and payload — exactly `len` bytes, which its caller has checked fit
    /// one datagram — so a frame costs one buffer, one copy of its payload
    /// and one pass over it for the transport checksum.
    fn compose(
        &self,
        dst_ip: Ipv4Addr,
        protocol: Protocol,
        len: PayloadLen,
        write_l4: impl FnOnce(&mut FrameBufMut),
    ) -> FrameBuf {
        let frame_len = ethernet::HEADER_LEN + ipv4::HEADER_LEN + usize::from(len.get());
        let mut out = FrameBufMut::with_capacity(frame_len);
        let dst_mac = self.lookup_mac(dst_ip);
        EthernetFrame::new(dst_mac, self.mac, EtherType::Ipv4, FrameBuf::empty())
            .write_header(&mut out);
        Ipv4Packet::new(self.ip, dst_ip, protocol, FrameBuf::empty()).write_header(&mut out, len);
        write_l4(&mut out);
        debug_assert_eq!(out.len(), frame_len);
        out.freeze()
    }

    /// The frame carrying `seg`, whose wire length is `len`, to `dst_ip`.
    fn tcp_frame(&self, dst_ip: Ipv4Addr, seg: &TcpSegment, len: PayloadLen) -> FrameBuf {
        self.compose(dst_ip, Protocol::Tcp, len, |out| {
            seg.write(out, self.ip, dst_ip, len)
        })
    }

    /// The frame carrying the control segment `seg` (SYN, ACK, FIN, RST: a
    /// bare header, which always fits) to `dst_ip`.
    fn tcp_control_frame(&self, dst_ip: Ipv4Addr, seg: &TcpSegment) -> Option<FrameBuf> {
        PayloadLen::new(seg.wire_len()).map(|len| self.tcp_frame(dst_ip, seg, len))
    }

    /// The frame carrying `echo` to `dst_ip`; `None` when it cannot fit one
    /// IPv4 datagram.
    fn icmp_frame(&self, dst_ip: Ipv4Addr, echo: &IcmpEcho) -> Option<FrameBuf> {
        let len = PayloadLen::new(echo.wire_len())?;
        Some(self.compose(dst_ip, Protocol::Icmp, len, |out| echo.write(out)))
    }

    /// The frame carrying `arp` to `dst_mac`.
    fn arp_frame(&self, dst_mac: MacAddr, arp: &ArpPacket) -> FrameBuf {
        let payload = arp.emit();
        let mut out = FrameBufMut::with_capacity(ethernet::HEADER_LEN + payload.len());
        EthernetFrame::new(dst_mac, self.mac, EtherType::Arp, FrameBuf::empty())
            .write_header(&mut out);
        out.extend_from_slice(&payload);
        out.freeze()
    }

    /// Build an ARP who-has request frame for `ip`.
    pub fn arp_request(&self, ip: Ipv4Addr) -> FrameBuf {
        self.arp_frame(
            MacAddr::BROADCAST,
            &ArpPacket::request(self.mac, self.ip, ip),
        )
    }

    /// Build an ICMP echo request frame (the Figure 8 client); `None` when
    /// `payload_len` cannot fit one IPv4 datagram.
    pub fn icmp_echo_request(
        &self,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        payload_len: usize,
    ) -> Option<FrameBuf> {
        self.icmp_frame(dst, &IcmpEcho::request(ident, seq, vec![0x42; payload_len]))
    }

    /// Build a UDP datagram frame; `None` when the payload cannot fit one
    /// IPv4 datagram.
    pub fn udp_send(
        &self,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: impl Into<FrameBuf>,
    ) -> Option<FrameBuf> {
        let datagram = UdpDatagram::new(src_port, dst_port, payload);
        let len = PayloadLen::new(datagram.wire_len())?;
        Some(self.compose(dst, Protocol::Udp, len, |out| {
            datagram.write(out, self.ip, dst, len)
        }))
    }

    /// Open a TCP connection; returns the SYN frame to transmit. The local
    /// port is the next ephemeral port that no live connection to
    /// `(dst, dst_port)` holds.
    ///
    /// # Panics
    ///
    /// When all 16,384 ephemeral ports already carry a live connection to
    /// `(dst, dst_port)`.
    #[expect(
        clippy::panic,
        reason = "the pinned signature returns a bare frame; only 16,384 live flows to one peer endpoint exhaust the range"
    )]
    pub fn tcp_connect(&mut self, dst: Ipv4Addr, dst_port: u16) -> FrameBuf {
        // One lap of the cycle visits every port `next_ephemeral` can reach.
        for _ in 0..=u16::MAX {
            let local_port = self.next_ephemeral;
            self.next_ephemeral = local_port.wrapping_add(1).max(EPHEMERAL_BASE);
            let Entry::Vacant(slot) = self
                .connections
                .entry(ConnKey::new(dst, dst_port, local_port))
            else {
                continue;
            };
            let isn = self
                .isn_seed
                .wrapping_add(local_port as u32)
                .wrapping_mul(69069);
            let (conn, syn) = Connection::connect(self.ip, local_port, dst, dst_port, isn);
            slot.insert(conn);
            #[expect(
                clippy::expect_used,
                reason = "a SYN is a bare 20-byte header, which always fits one datagram"
            )]
            return self
                .tcp_control_frame(dst, &syn)
                .expect("a bare TCP header fits");
        }
        panic!("every ephemeral port to {dst:?}:{dst_port} carries a live connection")
    }

    /// Send data on an established connection; returns the frame. A
    /// [`FrameBuf`] argument rides through as an O(1) view until it is
    /// copied, once, into the frame.
    ///
    /// `None` when there is no such connection, and when `data` cannot fit
    /// one IPv4 datagram (more than 65,495 bytes: nothing here segments at
    /// an MSS). A refused send emits nothing and leaves the connection's
    /// sequence space untouched.
    pub fn tcp_send(
        &mut self,
        remote: (Ipv4Addr, u16),
        local_port: u16,
        data: impl Into<FrameBuf>,
    ) -> Option<FrameBuf> {
        let data = data.into();
        let len = PayloadLen::new(tcp::segment::HEADER_LEN + data.len())?;
        let conn = self
            .connections
            .get_mut(&ConnKey::new(remote.0, remote.1, local_port))?;
        let seg = conn.send(data);
        Some(self.tcp_frame(remote.0, &seg, len))
    }

    /// Close a connection; returns the FIN frame.
    pub fn tcp_close(&mut self, remote: (Ipv4Addr, u16), local_port: u16) -> Option<FrameBuf> {
        let conn = self
            .connections
            .get_mut(&ConnKey::new(remote.0, remote.1, local_port))?;
        let fin = conn.close();
        self.tcp_control_frame(remote.0, &fin)
    }

    /// Process one received Ethernet frame. Returns `(frames_to_send, events)`.
    ///
    /// The frame is a shared buffer; every payload handed out in the events
    /// (TCP data, UDP datagrams) is a view into it, so the one copy made at
    /// ring ingress is the last copy a packet sees.
    pub fn handle_frame(&mut self, frame_bytes: &FrameBuf) -> (Vec<FrameBuf>, Vec<IfaceEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();
        let Ok(frame) = EthernetFrame::parse(frame_bytes) else {
            return (out, events);
        };
        if frame.dst != self.mac && !frame.dst.is_broadcast() && !frame.dst.is_multicast() {
            return (out, events);
        }
        match frame.ethertype {
            EtherType::Arp => {
                if let Ok(arp) = ArpPacket::parse(&frame.payload) {
                    self.arp_cache.insert(arp.sender_ip, arp.sender_mac);
                    if arp.op == ArpOp::Request && arp.target_ip == self.ip {
                        let reply = ArpPacket::reply_to(&arp, self.mac);
                        out.push(self.arp_frame(arp.sender_mac, &reply));
                    }
                }
            }
            EtherType::Ipv4 => {
                if let Ok(packet) = Ipv4Packet::parse(&frame.payload) {
                    if packet.dst != self.ip && packet.dst != Ipv4Addr::BROADCAST {
                        return (out, events);
                    }
                    self.arp_cache.insert(packet.src, frame.src);
                    match packet.protocol {
                        Protocol::Icmp => self.handle_icmp(&packet, &mut out, &mut events),
                        Protocol::Udp => self.handle_udp(&packet, &mut events),
                        Protocol::Tcp => self.handle_tcp(&packet, &mut out, &mut events),
                        Protocol::Other(_) => {}
                    }
                }
            }
            EtherType::Other(_) => {}
        }
        (out, events)
    }

    fn handle_icmp(
        &mut self,
        packet: &Ipv4Packet,
        out: &mut Vec<FrameBuf>,
        events: &mut Vec<IfaceEvent>,
    ) {
        if let Ok(echo) = IcmpEcho::parse(&packet.payload) {
            if echo.is_request {
                out.extend(self.icmp_frame(packet.src, &echo.reply()));
            } else {
                events.push(IfaceEvent::IcmpEchoReply {
                    src: packet.src,
                    ident: echo.ident,
                    seq: echo.seq,
                    payload_len: echo.payload.len(),
                });
            }
        }
    }

    fn handle_udp(&mut self, packet: &Ipv4Packet, events: &mut Vec<IfaceEvent>) {
        if let Ok(datagram) = UdpDatagram::parse(&packet.payload, packet.src, packet.dst) {
            events.push(IfaceEvent::Udp {
                src: (packet.src, datagram.src_port),
                dst_port: datagram.dst_port,
                payload: datagram.payload,
            });
        }
    }

    fn handle_tcp(
        &mut self,
        packet: &Ipv4Packet,
        out: &mut Vec<FrameBuf>,
        events: &mut Vec<IfaceEvent>,
    ) {
        let Ok(seg) = TcpSegment::parse(&packet.payload, packet.src, packet.dst) else {
            return;
        };
        let key = ConnKey::new(packet.src, seg.src_port, seg.dst_port);
        let (remote, local_port) = ((packet.src, seg.src_port), seg.dst_port);
        if let Some(conn) = self.connections.get_mut(&key) {
            let before = conn.state();
            let responses = conn.on_segment(&seg);
            let after = conn.state();
            let data = conn.take_received();
            if after == TcpState::Closed {
                // Nothing more can arrive for this flow (the stack keeps no
                // TIME_WAIT: it has no clock). A late segment draws the RST
                // any unknown 4-tuple does.
                self.connections.remove(&key);
            }
            // Reported once: in CloseWait or LastAck the peer's FIN already
            // was, so an RST there ends a flow the application saw end.
            let fin_reported = matches!(before, TcpState::CloseWait | TcpState::LastAck);
            let peer_closed = after != before
                && !fin_reported
                && (seg.flags.rst
                    || seg.flags.fin && matches!(after, TcpState::Closed | TcpState::CloseWait));
            for r in responses.iter().flatten() {
                out.extend(self.tcp_control_frame(packet.src, r));
            }
            if after == TcpState::Established && before != after {
                events.push(IfaceEvent::TcpConnected { remote, local_port });
            }
            if !data.is_empty() {
                events.push(IfaceEvent::TcpData {
                    remote,
                    local_port,
                    data,
                });
            }
            if peer_closed {
                events.push(IfaceEvent::TcpClosed { remote, local_port });
            }
            return;
        }
        // No existing connection: maybe a listener wants the SYN.
        if seg.flags.syn && !seg.flags.ack {
            if let Some(listener) = self
                .listeners
                .iter_mut()
                .find(|l| l.local_port == seg.dst_port)
            {
                if let Some((conn, syn_ack)) = listener.on_syn(packet.src, &seg) {
                    out.extend(self.tcp_control_frame(packet.src, &syn_ack));
                    self.connections.insert(key, conn);
                    return;
                }
            }
        }
        // Otherwise: refuse with RST (unless the segment was itself an RST).
        if !seg.flags.rst {
            let rst = TcpSegment::control(
                seg.dst_port,
                seg.src_port,
                seg.ack,
                seg.seq.wrapping_add(seg.seq_len()),
                TcpFlags::RST,
            );
            out.extend(self.tcp_control_frame(packet.src, &rst));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 20);

    fn pair() -> (Interface, Interface) {
        let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
        let mut server = Interface::new(SERVER_MAC, SERVER_IP);
        client.add_arp_entry(SERVER_IP, SERVER_MAC);
        server.add_arp_entry(CLIENT_IP, CLIENT_MAC);
        (client, server)
    }

    /// Deliver frames back and forth until both sides go quiet, collecting
    /// events per side.
    fn pump(
        a: &mut Interface,
        b: &mut Interface,
        mut frames_to_b: Vec<FrameBuf>,
    ) -> (Vec<IfaceEvent>, Vec<IfaceEvent>) {
        let mut events_a = Vec::new();
        let mut events_b = Vec::new();
        let mut frames_to_a: Vec<FrameBuf> = Vec::new();
        for _ in 0..32 {
            if frames_to_b.is_empty() && frames_to_a.is_empty() {
                break;
            }
            let mut next_to_a = Vec::new();
            for f in frames_to_b.drain(..) {
                let (out, ev) = b.handle_frame(&f);
                next_to_a.extend(out);
                events_b.extend(ev);
            }
            let mut next_to_b = Vec::new();
            for f in frames_to_a.drain(..) {
                let (out, ev) = a.handle_frame(&f);
                next_to_b.extend(out);
                events_a.extend(ev);
            }
            frames_to_a = next_to_a;
            frames_to_b = next_to_b;
        }
        (events_a, events_b)
    }

    #[test]
    fn arp_request_gets_replied_and_cached() {
        let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
        let mut server = Interface::new(SERVER_MAC, SERVER_IP);
        let req = client.arp_request(SERVER_IP);
        let (replies, _) = server.handle_frame(&req);
        assert_eq!(replies.len(), 1);
        let (none, _) = client.handle_frame(&replies[0]);
        assert!(none.is_empty());
        // The client now resolves the server without broadcasting.
        assert_eq!(client.lookup_mac(SERVER_IP), SERVER_MAC);
        // Requests for other addresses are ignored.
        let other = client.arp_request(Ipv4Addr::new(192, 168, 1, 77));
        let (replies, _) = server.handle_frame(&other);
        assert!(replies.is_empty());
    }

    #[test]
    fn icmp_echo_request_reply() {
        let (mut client, mut server) = pair();
        let ping = client.icmp_echo_request(SERVER_IP, 0x77, 3, 56).unwrap();
        let (events_client, events_server) = pump(&mut client, &mut server, vec![ping]);
        assert!(events_server.is_empty());
        assert_eq!(events_client.len(), 1);
        match &events_client[0] {
            IfaceEvent::IcmpEchoReply {
                src,
                ident,
                seq,
                payload_len,
            } => {
                assert_eq!(*src, SERVER_IP);
                assert_eq!(*ident, 0x77);
                assert_eq!(*seq, 3);
                assert_eq!(*payload_len, 56);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn udp_delivery() {
        let (client, mut server) = pair();
        let frame = client
            .udp_send(SERVER_IP, 5353, 53, b"query".to_vec())
            .unwrap();
        let (_, events) = server.handle_frame(&frame);
        match &events[..] {
            [IfaceEvent::Udp {
                src,
                dst_port,
                payload,
            }] => {
                assert_eq!(*src, (CLIENT_IP, 5353));
                assert_eq!(*dst_port, 53);
                assert_eq!(payload, b"query");
                assert!(
                    payload.shares_allocation(&frame),
                    "the delivered datagram payload is a view of the frame"
                );
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn tcp_connect_send_receive() {
        let (mut client, mut server) = pair();
        server.listen_tcp(80);
        let syn = client.tcp_connect(SERVER_IP, 80);
        let (events_client, _events_server) = pump(&mut client, &mut server, vec![syn]);
        assert!(events_client
            .iter()
            .any(|e| matches!(e, IfaceEvent::TcpConnected { .. })));
        assert_eq!(client.connection_count(), 1);
        assert_eq!(server.connection_count(), 1);

        // Send a request from the client and observe it on the server.
        let remote = (SERVER_IP, 80);
        let local_port = client.connection_keys()[0].2;
        let frame = client
            .tcp_send(remote, local_port, b"GET / HTTP/1.1\r\n\r\n")
            .unwrap();
        let (_, events_server) = pump(&mut client, &mut server, vec![frame.slice(..)]);
        let data_event = events_server
            .iter()
            .find_map(|e| match e {
                IfaceEvent::TcpData { data, remote, .. } => Some((data.clone(), *remote)),
                _ => None,
            })
            .expect("server receives the request");
        assert_eq!(data_event.0, b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(data_event.1 .0, CLIENT_IP);
        assert!(
            data_event.0.shares_allocation(&frame),
            "delivered TCP data is a view of the frame that carried it"
        );
    }

    #[test]
    fn tcp_send_refuses_what_one_datagram_cannot_carry() {
        let (mut client, mut server) = pair();
        server.listen_tcp(80);
        let syn = client.tcp_connect(SERVER_IP, 80);
        pump(&mut client, &mut server, vec![syn]);
        let (remote, port) = ((SERVER_IP, 80), 49152);
        let received = |events: &[IfaceEvent]| -> usize {
            events
                .iter()
                .map(|e| match e {
                    IfaceEvent::TcpData { data, .. } => data.len(),
                    _ => 0,
                })
                .sum()
        };

        // 65,495 bytes is the most one datagram holds beside the IPv4 and
        // TCP headers: it crosses intact.
        let largest = vec![0xA5u8; PayloadLen::MAX - tcp::segment::HEADER_LEN];
        assert_eq!(largest.len(), 65_495);
        let frame = client.tcp_send(remote, port, largest).unwrap();
        assert_eq!(frame.len(), 14 + 65_535);
        let (_, events) = pump(&mut client, &mut server, vec![frame]);
        assert_eq!(received(&events), 65_495);

        // One byte more has no wire form. It used to leave as a frame whose
        // length fields had wrapped, which the peer dropped on checksum;
        // now nothing is emitted and the connection does not move.
        for too_large in [65_496, 70_000] {
            let before = client.connection(remote, port).unwrap().tcb.clone();
            assert_eq!(client.tcp_send(remote, port, vec![0u8; too_large]), None);
            assert_eq!(client.connection(remote, port).unwrap().tcb, before);
        }
        let frame = client.tcp_send(remote, port, b"still in sequence").unwrap();
        let (_, events) = pump(&mut client, &mut server, vec![frame]);
        assert_eq!(received(&events), 17);

        // The other transports refuse at the same boundary.
        assert!(client
            .udp_send(SERVER_IP, 1, 2, vec![0u8; 65_507])
            .is_some());
        assert!(client
            .udp_send(SERVER_IP, 1, 2, vec![0u8; 65_508])
            .is_none());
        assert!(client.icmp_echo_request(SERVER_IP, 1, 1, 65_507).is_some());
        assert!(client.icmp_echo_request(SERVER_IP, 1, 1, 65_508).is_none());
    }

    /// The TCP segment a frame carries.
    fn segment(frame: &FrameBuf) -> TcpSegment {
        let eth = EthernetFrame::parse(frame).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        TcpSegment::parse(&ip.payload, ip.src, ip.dst).unwrap()
    }

    /// Connect `client` to port 80 on `server`; returns the local port.
    fn connect(client: &mut Interface, server: &mut Interface) -> u16 {
        let syn = client.tcp_connect(SERVER_IP, 80);
        pump(client, server, vec![syn.slice(..)]);
        segment(&syn).src_port
    }

    /// Close the connection on `local_port` from both ends, client first.
    /// Returns the client's FIN frame.
    fn close_both(client: &mut Interface, server: &mut Interface, local_port: u16) -> FrameBuf {
        let fin = client.tcp_close((SERVER_IP, 80), local_port).unwrap();
        let (_, events) = pump(client, server, vec![fin.slice(..)]);
        let closed = IfaceEvent::TcpClosed {
            remote: (CLIENT_IP, local_port),
            local_port: 80,
        };
        assert_eq!(events, [closed]);
        let server_fin = server.tcp_close((CLIENT_IP, local_port), 80).unwrap();
        pump(server, client, vec![server_fin]);
        fin
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let (mut client, mut server) = pair();
        let syn = client.tcp_connect(SERVER_IP, 81); // nothing listening
        let (frames, _) = server.handle_frame(&syn);
        assert_eq!(frames.len(), 1);
        assert!(segment(&frames[0]).flags.rst);
    }

    #[test]
    fn a_full_close_leaves_neither_end_holding_the_flow() {
        let (mut client, mut server) = pair();
        server.listen_tcp(80);
        let port = connect(&mut client, &mut server);
        assert_eq!(
            (client.connection_count(), server.connection_count()),
            (1, 1)
        );
        close_both(&mut client, &mut server, port);
        assert_eq!(
            (client.connection_count(), server.connection_count()),
            (0, 0)
        );
    }

    #[test]
    fn an_rst_removes_the_connection() {
        let (mut client, mut server) = pair();
        server.listen_tcp(80);
        let port = connect(&mut client, &mut server);
        let rst = TcpSegment::control(80, port, 0, 0, TcpFlags::RST);
        let (out, events) =
            client.handle_frame(&server.tcp_control_frame(CLIENT_IP, &rst).unwrap());
        assert!(out.is_empty(), "an RST is never answered");
        let closed = IfaceEvent::TcpClosed {
            remote: (SERVER_IP, 80),
            local_port: port,
        };
        assert_eq!(events, [closed]);
        assert_eq!(client.connection_count(), 0);
        // After the peer's FIN, which raised `TcpClosed` already, an RST
        // removes the flow and raises nothing: in CloseWait, and in LastAck
        // once this end has sent its own FIN.
        for last_ack in [false, true] {
            let port = connect(&mut client, &mut server);
            let fin = client.tcp_close((SERVER_IP, 80), port).unwrap();
            let (_, events) = pump(&mut client, &mut server, vec![fin]);
            assert_eq!(events.len(), 1, "the FIN is reported");
            if last_ack {
                server.tcp_close((CLIENT_IP, port), 80).unwrap();
            }
            let rst = TcpSegment::control(port, 80, 0, 0, TcpFlags::RST);
            let (out, events) =
                server.handle_frame(&client.tcp_control_frame(SERVER_IP, &rst).unwrap());
            assert!(out.is_empty(), "last_ack: {last_ack}");
            assert!(events.is_empty(), "last_ack: {last_ack}: {events:?}");
            let flow = server.connection((CLIENT_IP, port), 80);
            assert!(flow.is_none(), "last_ack: {last_ack}");
        }
    }

    #[test]
    fn a_segment_for_a_reaped_flow_draws_an_rst() {
        let (mut client, mut server) = pair();
        server.listen_tcp(80);
        let port = connect(&mut client, &mut server);
        let fin = close_both(&mut client, &mut server, port);
        // The client's FIN again, as a retransmission would carry it.
        let (out, events) = server.handle_frame(&fin);
        assert!(events.is_empty());
        let [rst] = &out[..] else {
            panic!("one RST answers, got {out:?}");
        };
        let (rst, fin) = (segment(rst), segment(&fin));
        assert!(rst.flags.rst);
        assert_eq!((rst.dst_port, rst.seq), (port, fin.ack));
        assert_eq!(server.connection_count(), 0);
    }

    #[test]
    fn a_wrapped_ephemeral_port_never_lands_on_a_live_connection() {
        // The counter wraps from 65,535 to 49,152 after 16,384 connects. It
        // used to hand out the held port again, and the new connection
        // silently replaced the live one in the table.
        let (mut client, mut server) = pair();
        server.listen_tcp(80);
        let held = connect(&mut client, &mut server);
        let before = client.connection((SERVER_IP, 80), held).unwrap().clone();
        for _ in 0..16_384 {
            let port = connect(&mut client, &mut server);
            assert_ne!(port, held, "the held connection's port is reissued");
            close_both(&mut client, &mut server, port);
        }
        assert_eq!(client.connection((SERVER_IP, 80), held), Some(&before));
        assert_eq!(
            (client.connection_count(), server.connection_count()),
            (1, 1)
        );
    }

    #[test]
    #[should_panic(expected = "every ephemeral port")]
    fn a_16385th_live_connection_to_one_peer_endpoint_panics() {
        let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
        for _ in 0..16_384 {
            client.tcp_connect(SERVER_IP, 80);
        }
        // Another peer endpoint has a full range of its own.
        client.tcp_connect(SERVER_IP, 81);
        assert_eq!(client.connection_count(), 16_385);
        client.tcp_connect(SERVER_IP, 80);
    }

    #[test]
    fn frames_for_other_hosts_are_ignored() {
        let (client, mut server) = pair();
        // Address the frame at some third MAC.
        let mut frame = client
            .udp_send(SERVER_IP, 1, 2, b"x".to_vec())
            .unwrap()
            .to_vec();
        frame[0..6].copy_from_slice(&[2, 0, 0, 0, 0, 9]);
        let (out, events) = server.handle_frame(&frame.into());
        assert!(out.is_empty());
        assert!(events.is_empty());
        // Garbage frames are ignored too.
        let (out, events) = server.handle_frame(&FrameBuf::copy_from_slice(&[1, 2, 3]));
        assert!(out.is_empty());
        assert!(events.is_empty());
    }

    #[test]
    fn adopted_connection_serves_data() {
        // Build an established connection on a "proxy" interface, snapshot
        // its TCB as Synjitsu does, and adopt it on a fresh "unikernel"
        // interface.
        let (mut client, mut proxy) = pair();
        proxy.listen_tcp(80);
        let syn = client.tcp_connect(SERVER_IP, 80);
        pump(&mut client, &mut proxy, vec![syn]);
        let local_port = client.connection_keys()[0].2;
        let req = client
            .tcp_send((SERVER_IP, 80), local_port, b"GET /")
            .unwrap();
        pump(&mut client, &mut proxy, vec![req]);

        let tcb = proxy
            .connection((CLIENT_IP, local_port), 80)
            .expect("proxy holds the connection")
            .tcb_snapshot();
        let conn = Connection::from_tcb(tcb);
        // A fresh unikernel interface with the same IP adopts it.
        let mut unikernel = Interface::new(SERVER_MAC, SERVER_IP);
        unikernel.adopt_connection(conn, CLIENT_MAC);
        assert_eq!(unikernel.connection_count(), 1);
        let resp_frame = unikernel
            .tcp_send((CLIENT_IP, local_port), 80, b"HTTP/1.1 200 OK\r\n\r\n")
            .unwrap();
        let (_, events) = client.handle_frame(&resp_frame);
        assert!(events.iter().any(|e| matches!(
            e,
            IfaceEvent::TcpData { data, .. } if data.starts_with(b"HTTP/1.1 200")
        )));
    }

    #[test]
    fn tcp_close_emits_fin_and_event() {
        let (mut client, mut server) = pair();
        server.listen_tcp(80);
        let syn = client.tcp_connect(SERVER_IP, 80);
        pump(&mut client, &mut server, vec![syn]);
        let local_port = client.connection_keys()[0].2;
        let fin = client.tcp_close((SERVER_IP, 80), local_port).unwrap();
        let (_, events_server) = pump(&mut client, &mut server, vec![fin]);
        assert!(events_server
            .iter()
            .any(|e| matches!(e, IfaceEvent::TcpClosed { .. })));
    }
}
