//! A running unikernel instance: network interface + appliance.
//!
//! `UnikernelInstance` is the object Jitsu summons: it owns a sans-io
//! [`Interface`] configured with the service's external IP and MAC, holds
//! the appliance logic, and turns incoming Ethernet frames into appliance
//! requests and response frames. It also implements the guest side of the
//! Synjitsu handoff: adopting a serialised TCB (plus buffered request bytes)
//! and replaying it as if the connection had always terminated here
//! (§3.3.1).

use crate::appliance::Appliance;
use crate::boot::BootPipeline;
use crate::image::UnikernelImage;
use jitsu_sim::{SimDuration, SimRng};
use netstack::http::{HttpRequest, HttpResponse};
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::Ipv4Addr;
use netstack::tcp::{Connection, Tcb};
use netstack::FrameBuf;
use netstack::MacAddr;
use platform::Board;

/// A booted (or booting) unikernel.
#[derive(Debug)]
pub struct UnikernelInstance {
    /// The image this instance was summoned from.
    pub image: UnikernelImage,
    /// The network interface (external IP on the bridge).
    pub iface: Interface,
    appliance: Box<dyn Appliance>,
    /// The HTTP port the appliance listens on.
    pub port: u16,
    rng: SimRng,
    requests_handled: u64,
    /// Partial request views per connection, keyed by (remote, local port).
    /// Each chunk is a view of the frame it arrived in; reassembly
    /// concatenates them only when a parse is attempted. An entry leaves
    /// when its request completes or its connection closes or is reset.
    partial: Vec<((Ipv4Addr, u16, u16), Vec<FrameBuf>)>,
}

impl UnikernelInstance {
    /// Create an instance with the given addressing and appliance, listening
    /// on `port`.
    pub fn new(
        image: UnikernelImage,
        mac: MacAddr,
        ip: Ipv4Addr,
        port: u16,
        appliance: Box<dyn Appliance>,
        seed: u64,
    ) -> UnikernelInstance {
        let mut iface = Interface::new(mac, ip);
        iface.listen_tcp(port);
        UnikernelInstance {
            image,
            iface,
            appliance,
            port,
            rng: SimRng::seed_from_u64(seed),
            requests_handled: 0,
            partial: Vec::new(),
        }
    }

    /// The guest boot pipeline for this instance on a board.
    pub fn boot_pipeline(&self, board: &Board) -> BootPipeline {
        BootPipeline::new(board)
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.image.name
    }

    /// Requests handled so far.
    pub fn requests_handled(&self) -> u64 {
        self.requests_handled
    }

    /// Adopt a proxied connection from Synjitsu: rebuild the connection from
    /// the serialised TCB and treat any buffered bytes as already-received
    /// request data. Returns any response frames generated by replaying the
    /// buffered request, plus the per-request processing time.
    pub fn adopt_handoff(&mut self, tcb: Tcb, client_mac: MacAddr) -> (Vec<FrameBuf>, SimDuration) {
        let remote = (tcb.remote_ip, tcb.remote_port);
        let local_port = tcb.local_port;
        // `from_tcb` moves the proxied bytes into the connection's staged
        // delivery queue; taking them back out is an O(1) view, so the
        // handoff replays without copying the request.
        let mut conn = Connection::from_tcb(tcb);
        let buffered = conn.take_received();
        self.iface.adopt_connection(conn, client_mac);
        let mut frames = Vec::new();
        let cost = if buffered.is_empty() {
            SimDuration::ZERO
        } else {
            self.process_request_bytes(remote, local_port, &buffered, &mut frames)
        };
        (frames, cost)
    }

    /// Feed `data`, newly arrived on a connection, to the appliance once a
    /// whole request is there. Response frames go onto `out`; returns the
    /// appliance's processing time.
    fn process_request_bytes(
        &mut self,
        remote: (Ipv4Addr, u16),
        local_port: u16,
        data: &FrameBuf,
        out: &mut Vec<FrameBuf>,
    ) -> SimDuration {
        let key = (remote.0, remote.1, local_port);
        let idx = self.partial.iter().position(|(k, _)| *k == key);
        // Fast path: nothing pending for this connection, so parse directly
        // on the arriving view — a complete single-delivery request (the
        // common case) is served without the bytes ever being copied.
        let assembled = match idx {
            None => data.slice(..),
            Some(i) => {
                self.partial[i].1.push(data.slice(..));
                FrameBuf::concat(&self.partial[i].1)
            }
        };
        let (response, cost) = match HttpRequest::parse(&assembled) {
            Ok(Some(request)) => {
                self.requests_handled += 1;
                self.appliance.handle(&request, &mut self.rng)
            }
            Ok(None) => {
                if idx.is_none() {
                    self.partial.push((key, vec![data.slice(..)]));
                }
                return SimDuration::ZERO;
            }
            Err(_) => (
                HttpResponse::with_status(400, "Bad Request", FrameBuf::empty()),
                SimDuration::ZERO,
            ),
        };
        if let Some(i) = idx {
            self.partial.remove(i);
        }
        // A response too large for one IPv4 datagram cannot be sent (nothing
        // segments at an MSS): say so to the client instead of going quiet.
        let frame = self
            .iface
            .tcp_send(remote, local_port, response.emit())
            .or_else(|| {
                let too_large =
                    HttpResponse::with_status(500, "Internal Server Error", FrameBuf::empty());
                self.iface.tcp_send(remote, local_port, too_large.emit())
            });
        out.extend(frame);
        cost
    }

    /// Feed one Ethernet frame into the instance. Returns the frames to
    /// transmit and the appliance processing time incurred (zero for pure
    /// protocol traffic).
    ///
    /// When the client closes, the instance closes its half too (a passive
    /// close), so neither end keeps the flow. Its FIN+ACK acknowledges all
    /// that the interface's bare ACK of the client's FIN did, so it takes
    /// that ACK's place rather than following it: a warm exchange is ten
    /// frames, not eleven.
    pub fn handle_frame(&mut self, frame: &FrameBuf) -> (Vec<FrameBuf>, SimDuration) {
        let (mut out, events) = self.iface.handle_frame(frame);
        // The interface's own answers come first; responses follow them.
        let answers = out.len();
        let mut cost = SimDuration::ZERO;
        for event in events {
            match event {
                IfaceEvent::TcpData {
                    remote,
                    local_port,
                    data,
                } if local_port == self.port => {
                    cost += self.process_request_bytes(remote, local_port, &data, &mut out);
                }
                IfaceEvent::TcpClosed { remote, local_port } if local_port == self.port => {
                    let key = (remote.0, remote.1, local_port);
                    self.partial.retain(|(k, _)| *k != key);
                    // `None` when the flow is already gone: an RST, or a FIN
                    // that completed a close this end began.
                    if let Some(fin) = self.iface.tcp_close(remote, local_port) {
                        out.remove(answers - 1);
                        out.push(fin);
                    }
                }
                _ => {}
            }
        }
        (out, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appliance::StaticSiteAppliance;
    use netstack::ethernet::{EtherType, EthernetFrame};
    use netstack::http::HttpResponse;
    use netstack::ipv4::{Ipv4Packet, Protocol};
    use netstack::tcp::{TcpFlags, TcpSegment};
    use platform::BoardKind;

    const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x20]);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 20);
    const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x64]);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);

    fn instance() -> UnikernelInstance {
        UnikernelInstance::new(
            UnikernelImage::mirage("alice"),
            SERVER_MAC,
            SERVER_IP,
            80,
            Box::new(StaticSiteAppliance::new("alice")),
            99,
        )
    }

    /// Exchange frames between a raw client Interface and the instance until
    /// quiescent; returns client events.
    fn pump(
        client: &mut Interface,
        server: &mut UnikernelInstance,
        first: FrameBuf,
    ) -> Vec<IfaceEvent> {
        let mut to_server = vec![first];
        let mut events = Vec::new();
        for _ in 0..32 {
            if to_server.is_empty() {
                break;
            }
            let mut to_client = Vec::new();
            for f in to_server.drain(..) {
                let (out, _) = server.handle_frame(&f);
                to_client.extend(out);
            }
            for f in to_client {
                let (out, ev) = client.handle_frame(&f);
                to_server.extend(out);
                events.extend(ev);
            }
        }
        events
    }

    #[test]
    fn serves_http_over_the_wire() {
        let mut server = instance();
        let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
        client.add_arp_entry(SERVER_IP, SERVER_MAC);
        server.iface.add_arp_entry(CLIENT_IP, CLIENT_MAC);

        let syn = client.tcp_connect(SERVER_IP, 80);
        pump(&mut client, &mut server, syn);
        let local_port = 49152;
        let req = client
            .tcp_send(
                (SERVER_IP, 80),
                local_port,
                HttpRequest::get("/", "alice").emit(),
            )
            .unwrap();
        let events = pump(&mut client, &mut server, req);
        let mut data = Vec::new();
        for e in &events {
            if let IfaceEvent::TcpData { data: chunk, .. } = e {
                data.extend_from_slice(chunk);
            }
        }
        let data = FrameBuf::from_vec(data);
        let response = HttpResponse::parse(&data).unwrap().unwrap();
        assert_eq!(response.status, 200);
        assert!(String::from_utf8_lossy(&response.body).contains("alice"));
        assert_eq!(server.requests_handled(), 1);
    }

    #[test]
    fn a_page_too_large_for_one_datagram_is_answered_with_a_500() {
        // Nothing segments at an MSS, so a 70,000-byte page has no wire
        // form. The instance used to emit a frame with wrapped length
        // fields (dropped by the client on checksum); it must say so.
        let mut site = StaticSiteAppliance::new("alice");
        site.add_page("/huge", vec![b'x'; 70_000]);
        let mut server = UnikernelInstance::new(
            UnikernelImage::mirage("alice"),
            SERVER_MAC,
            SERVER_IP,
            80,
            Box::new(site),
            99,
        );
        let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
        client.add_arp_entry(SERVER_IP, SERVER_MAC);
        server.iface.add_arp_entry(CLIENT_IP, CLIENT_MAC);
        let syn = client.tcp_connect(SERVER_IP, 80);
        pump(&mut client, &mut server, syn);
        let get = |client: &mut Interface, server: &mut UnikernelInstance, path: &str| {
            let req = client
                .tcp_send(
                    (SERVER_IP, 80),
                    49152,
                    HttpRequest::get(path, "alice").emit(),
                )
                .unwrap();
            let data: Vec<FrameBuf> = pump(client, server, req)
                .into_iter()
                .filter_map(|e| match e {
                    IfaceEvent::TcpData { data, .. } => Some(data),
                    _ => None,
                })
                .collect();
            HttpResponse::parse(&FrameBuf::concat(&data))
                .unwrap()
                .expect("a whole response arrives")
        };
        let response = get(&mut client, &mut server, "/huge");
        assert_eq!(response.status, 500);
        assert!(response.body.is_empty());
        // The connection is still in sequence: the next request is served.
        assert_eq!(get(&mut client, &mut server, "/").status, 200);
        assert_eq!(server.requests_handled(), 2);
    }

    #[test]
    fn partial_requests_are_reassembled() {
        let mut server = instance();
        let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
        client.add_arp_entry(SERVER_IP, SERVER_MAC);
        server.iface.add_arp_entry(CLIENT_IP, CLIENT_MAC);
        let syn = client.tcp_connect(SERVER_IP, 80);
        pump(&mut client, &mut server, syn);
        let local_port = 49152;
        let request = HttpRequest::get("/", "alice").emit();
        let (first, second) = request.split_at(10);
        let f1 = client.tcp_send((SERVER_IP, 80), local_port, first).unwrap();
        let ev1 = pump(&mut client, &mut server, f1);
        assert!(ev1.iter().all(|e| !matches!(e, IfaceEvent::TcpData { .. })));
        let f2 = client
            .tcp_send((SERVER_IP, 80), local_port, second)
            .unwrap();
        let ev2 = pump(&mut client, &mut server, f2);
        assert!(ev2.iter().any(|e| matches!(e, IfaceEvent::TcpData { .. })));
        assert_eq!(server.requests_handled(), 1);
    }

    /// A frame from the client carrying `seg`.
    fn client_frame(seg: &TcpSegment) -> FrameBuf {
        let ip = Ipv4Packet::new(
            CLIENT_IP,
            SERVER_IP,
            Protocol::Tcp,
            seg.emit(CLIENT_IP, SERVER_IP),
        );
        EthernetFrame::new(SERVER_MAC, CLIENT_MAC, EtherType::Ipv4, ip.emit()).emit()
    }

    #[test]
    fn a_half_received_request_is_forgotten_when_its_connection_ends() {
        for reset in [false, true] {
            let mut server = instance();
            let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
            client.add_arp_entry(SERVER_IP, SERVER_MAC);
            server.iface.add_arp_entry(CLIENT_IP, CLIENT_MAC);
            let syn = client.tcp_connect(SERVER_IP, 80);
            pump(&mut client, &mut server, syn);
            let half = &HttpRequest::get("/", "alice").emit()[..10];
            let f = client.tcp_send((SERVER_IP, 80), 49152, half).unwrap();
            pump(&mut client, &mut server, f);
            assert_eq!(server.partial.len(), 1, "the half request waits");
            let end = if reset {
                let rst = TcpSegment::control(49152, 80, 0, 0, TcpFlags::RST);
                client_frame(&rst)
            } else {
                client.tcp_close((SERVER_IP, 80), 49152).unwrap()
            };
            pump(&mut client, &mut server, end);
            assert!(server.partial.is_empty(), "reset: {reset}");
            assert_eq!(server.iface.connection_count(), 0, "reset: {reset}");
            assert_eq!(server.requests_handled(), 0);
        }
    }

    #[test]
    fn adopt_handoff_replays_buffered_request() {
        // Build a TCB as Synjitsu would have: established, with the client's
        // HTTP request buffered but unanswered.
        let request_bytes = HttpRequest::get("/", "alice.family.name").emit();
        let tcb = Tcb {
            state: netstack::tcp::TcpState::Established,
            local_ip: SERVER_IP,
            local_port: 80,
            remote_ip: CLIENT_IP,
            remote_port: 51000,
            isn: 7_000,
            snd_nxt: 7_001,
            snd_una: 7_001,
            rcv_nxt: 90_000 + request_bytes.len() as u32,
            buffered: request_bytes.to_vec(),
        };
        let mut server = instance();
        let (frames, cost) = server.adopt_handoff(tcb, CLIENT_MAC);
        assert_eq!(
            frames.len(),
            1,
            "the adopted request is answered immediately"
        );
        assert!(cost > SimDuration::ZERO);
        // The response frame is a valid TCP segment from the server IP
        // carrying an HTTP 200.
        let eth = EthernetFrame::parse(&frames[0]).unwrap();
        assert_eq!(eth.dst, CLIENT_MAC);
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        assert_eq!(ip.src, SERVER_IP);
        assert_eq!(ip.dst, CLIENT_IP);
        let seg = TcpSegment::parse(&ip.payload, ip.src, ip.dst).unwrap();
        assert_eq!(seg.src_port, 80);
        assert_eq!(seg.dst_port, 51000);
        let resp = HttpResponse::parse(&seg.payload).unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(server.requests_handled(), 1);
    }

    #[test]
    fn a_page_served_again_from_its_kept_sum_is_the_same_frame_and_parses() {
        // The page's response is summed when it is first sent and its sum
        // kept; a second send of the same segment must be the same bytes,
        // and a send to another peer (another pseudo-header and header)
        // must still carry a checksum the client accepts.
        let mut site = StaticSiteAppliance::new("alice");
        let body: Vec<u8> = (0..16_385u32).map(|i| (i * 7 + i / 251) as u8).collect();
        site.add_page("/big", body.clone());
        let mut server = UnikernelInstance::new(
            UnikernelImage::mirage("alice"),
            SERVER_MAC,
            SERVER_IP,
            80,
            Box::new(site),
            99,
        );
        let request = HttpRequest::get("/big", "alice").emit();
        let tcb = |remote_port| Tcb {
            state: netstack::tcp::TcpState::Established,
            local_ip: SERVER_IP,
            local_port: 80,
            remote_ip: CLIENT_IP,
            remote_port,
            isn: 7_000,
            snd_nxt: 7_001,
            snd_una: 7_001,
            rcv_nxt: 90_000 + request.len() as u32,
            buffered: request.to_vec(),
        };
        let mut serve = |remote_port| {
            let (frames, _) = server.adopt_handoff(tcb(remote_port), CLIENT_MAC);
            assert_eq!(frames.len(), 1);
            let frame = frames[0].clone();
            let eth = EthernetFrame::parse(&frame).unwrap();
            let ip = Ipv4Packet::parse(&eth.payload).unwrap();
            let seg = TcpSegment::parse(&ip.payload, ip.src, ip.dst)
                .expect("the client accepts the segment's checksum");
            assert_eq!(seg.dst_port, remote_port);
            let response = HttpResponse::parse(&seg.payload).unwrap().unwrap();
            assert_eq!(response.body, body);
            (frame, seg.payload)
        };
        let (first, first_payload) = serve(51_000);
        let (again, _) = serve(51_000);
        assert_eq!(
            first, again,
            "the same segment, sent again, is the same frame"
        );
        let (other, other_payload) = serve(51_001);
        assert_ne!(first, other);
        assert_eq!(first_payload, other_payload);
    }

    #[test]
    fn adopt_handoff_without_buffered_data_is_quiet() {
        let tcb = Tcb {
            state: netstack::tcp::TcpState::Established,
            local_ip: SERVER_IP,
            local_port: 80,
            remote_ip: CLIENT_IP,
            remote_port: 51000,
            isn: 1,
            snd_nxt: 2,
            snd_una: 2,
            rcv_nxt: 100,
            buffered: Vec::new(),
        };
        let mut server = instance();
        let (frames, cost) = server.adopt_handoff(tcb, CLIENT_MAC);
        assert!(frames.is_empty());
        assert_eq!(cost, SimDuration::ZERO);
        assert_eq!(server.iface.connection_count(), 1);
    }

    #[test]
    fn boot_pipeline_reflects_image_kind() {
        let server = instance();
        let board = BoardKind::Cubieboard2.board();
        let pipeline = server.boot_pipeline(&board);
        assert!(pipeline.total() < SimDuration::from_millis(300));
        assert_eq!(pipeline, BootPipeline::new(&board));
        assert_eq!(server.name(), "alice");
    }
}
