//! Sans-io TCP state machines: a passive listener and a connection.
//!
//! The state machines consume parsed [`TcpSegment`]s and return the segments
//! to transmit in response, never touching any I/O themselves. A connection
//! can be constructed either by a [`Listener`] completing a handshake
//! locally, or — the Synjitsu case — *adopted* from a serialised [`Tcb`]
//! that a proxy built while the real server was still booting.

use super::segment::{TcpFlags, TcpSegment};
use super::tcb::{Tcb, TcpState};
use super::{seq_gt, seq_le};
use crate::buf::FrameBuf;
use crate::ipv4::Ipv4Addr;

/// A passive listener bound to `(ip, port)`.
#[derive(Debug, Clone)]
pub struct Listener {
    /// The address the listener answers for.
    pub local_ip: Ipv4Addr,
    /// The listening port.
    pub local_port: u16,
    isn_counter: u32,
}

impl Listener {
    /// Create a listener. `isn_seed` seeds initial sequence number
    /// generation (deterministic for reproducibility).
    pub fn new(local_ip: Ipv4Addr, local_port: u16, isn_seed: u32) -> Listener {
        Listener {
            local_ip,
            local_port,
            isn_counter: isn_seed,
        }
    }

    /// Generate the next initial sequence number.
    fn next_isn(&mut self) -> u32 {
        // A simple deterministic ISN schedule (the classic 64k increment).
        self.isn_counter = self.isn_counter.wrapping_add(64_000).wrapping_add(1);
        self.isn_counter
    }

    /// Handle an incoming SYN addressed to this listener. Returns the new
    /// half-open connection and the SYN-ACK to transmit. Non-SYN segments
    /// return `None` (the caller may send an RST).
    pub fn on_syn(
        &mut self,
        remote_ip: Ipv4Addr,
        syn: &TcpSegment,
    ) -> Option<(Connection, TcpSegment)> {
        if !syn.flags.syn || syn.flags.ack || syn.dst_port != self.local_port {
            return None;
        }
        let isn = self.next_isn();
        let mut tcb =
            Tcb::for_listener(self.local_ip, self.local_port, remote_ip, syn.src_port, isn);
        tcb.state = TcpState::SynReceived;
        tcb.rcv_nxt = syn.seq.wrapping_add(1);
        tcb.snd_nxt = isn.wrapping_add(1);
        let syn_ack = TcpSegment::control(
            self.local_port,
            syn.src_port,
            isn,
            tcb.rcv_nxt,
            TcpFlags::SYN_ACK,
        );
        Some((
            Connection {
                tcb,
                staged: FrameBuf::empty(),
            },
            syn_ack,
        ))
    }
}

/// An established (or establishing) TCP connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// The connection control block.
    pub tcb: Tcb,
    /// In-order received payload, staged until the application takes it. A
    /// segment arriving with nothing staged (the common case: `Interface`
    /// takes after every segment) is held as a view of the frame it came
    /// in, so delivery copies nothing and allocates nothing; one arriving
    /// behind bytes nobody has taken yet is appended by copy.
    staged: FrameBuf,
}

impl Connection {
    /// Adopt a connection from a serialised TCB — the unikernel side of the
    /// Synjitsu handoff. Any bytes the proxy buffered become the staged
    /// delivery without copying.
    pub fn from_tcb(mut tcb: Tcb) -> Connection {
        let staged = FrameBuf::from_vec(std::mem::take(&mut tcb.buffered));
        Connection { tcb, staged }
    }

    /// A serialisable snapshot of the control block with the staged (not
    /// yet consumed) bytes flattened back into `buffered`, ready for
    /// [`Tcb::to_sexp`] and the XenStore handoff.
    pub fn tcb_snapshot(&self) -> Tcb {
        let mut tcb = self.tcb.clone();
        if !self.staged.is_empty() {
            let mut buffered = Vec::with_capacity(tcb.buffered.len() + self.staged.len());
            buffered.extend_from_slice(&tcb.buffered);
            buffered.extend_from_slice(&self.staged);
            tcb.buffered = buffered;
        }
        tcb
    }

    /// Start an active open towards `(remote_ip, remote_port)`. Returns the
    /// connection (in `SynSent`) and the SYN to transmit.
    pub fn connect(
        local_ip: Ipv4Addr,
        local_port: u16,
        remote_ip: Ipv4Addr,
        remote_port: u16,
        isn: u32,
    ) -> (Connection, TcpSegment) {
        let mut tcb = Tcb::for_listener(local_ip, local_port, remote_ip, remote_port, isn);
        tcb.state = TcpState::SynSent;
        tcb.snd_nxt = isn.wrapping_add(1);
        let syn = TcpSegment::control(local_port, remote_port, isn, 0, TcpFlags::SYN);
        (
            Connection {
                tcb,
                staged: FrameBuf::empty(),
            },
            syn,
        )
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.tcb.state
    }

    /// True once the three-way handshake has completed.
    pub fn is_established(&self) -> bool {
        self.tcb.state == TcpState::Established
    }

    /// Application data received in order and not yet consumed, as a shared
    /// buffer. When a single segment is pending this is an O(1) view of the
    /// frame it arrived in — no bytes are copied on the way up.
    pub fn take_received(&mut self) -> FrameBuf {
        let staged = std::mem::take(&mut self.staged);
        if self.tcb.buffered.is_empty() {
            return staged;
        }
        // Bytes placed directly in the control block (e.g. by a caller
        // mutating an adopted TCB) drain ahead of the staged ones.
        let buffered = FrameBuf::from_vec(std::mem::take(&mut self.tcb.buffered));
        FrameBuf::concat(&[buffered, staged])
    }

    /// Process an incoming segment, returning what to transmit in response:
    /// at most an ACK for the segment's handshake step or data and one for
    /// its FIN, in transmit order and filled from the front — two fixed
    /// slots, not a heap `Vec` per segment.
    /// Out-of-order segments are dropped (the peer will retransmit); this
    /// matches the minimal in-order stack the unikernels use for
    /// request/response workloads.
    pub fn on_segment(&mut self, seg: &TcpSegment) -> [Option<TcpSegment>; 2] {
        let mut out = [None, None];
        if seg.flags.rst {
            self.tcb.state = TcpState::Closed;
            return out;
        }
        match self.tcb.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.tcb.snd_nxt {
                    self.tcb.rcv_nxt = seg.seq.wrapping_add(1);
                    self.tcb.snd_una = seg.ack;
                    self.tcb.state = TcpState::Established;
                    out[0] = Some(self.make_ack());
                }
            }
            TcpState::SynReceived => {
                if seg.flags.ack && seg.ack == self.tcb.snd_nxt {
                    self.tcb.snd_una = seg.ack;
                    self.tcb.state = TcpState::Established;
                    // The ACK may carry data (common for HTTP clients).
                    if !seg.payload.is_empty() {
                        out[0] = Some(self.accept_data(seg));
                    }
                }
            }
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2 => {
                if seg.flags.ack {
                    // Only a *new* cumulative ACK (inside the window of
                    // outstanding data, in wrapping sequence space) advances
                    // snd_una; a stale duplicate ACK must not regress it.
                    if seq_gt(seg.ack, self.tcb.snd_una) && seq_le(seg.ack, self.tcb.snd_nxt) {
                        self.tcb.snd_una = seg.ack;
                    }
                    if self.tcb.state == TcpState::FinWait1 && seg.ack == self.tcb.snd_nxt {
                        self.tcb.state = TcpState::FinWait2;
                    }
                }
                if !seg.payload.is_empty() {
                    out[0] = Some(self.accept_data(seg));
                }
                // A FIN occupies the sequence slot *after* any payload in
                // the same segment.
                // jitsu-lint: allow(N001, "segment payloads are bounded by the u16 wire length field, well within u32")
                let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
                if seg.flags.fin && fin_seq == self.tcb.rcv_nxt {
                    self.tcb.rcv_nxt = self.tcb.rcv_nxt.wrapping_add(1);
                    match self.tcb.state {
                        TcpState::FinWait1 | TcpState::FinWait2 => {
                            self.tcb.state = TcpState::Closed
                        }
                        _ => self.tcb.state = TcpState::CloseWait,
                    }
                    out[usize::from(out[0].is_some())] = Some(self.make_ack());
                }
            }
            TcpState::CloseWait | TcpState::LastAck => {
                if seg.flags.ack
                    && seg.ack == self.tcb.snd_nxt
                    && self.tcb.state == TcpState::LastAck
                {
                    self.tcb.state = TcpState::Closed;
                }
            }
            TcpState::Listen | TcpState::Closed => {}
        }
        out
    }

    /// Take `seg`'s unseen bytes, if any, and return the ACK that answers it.
    fn accept_data(&mut self, seg: &TcpSegment) -> TcpSegment {
        // jitsu-lint: allow(N001, "segment payloads are bounded by the u16 wire length field, well within u32")
        let end = seg.seq.wrapping_add(seg.payload.len() as u32);
        // Entirely old data (a retransmission) is re-ACKed, never
        // re-buffered; so is a segment after a gap (the peer retransmits;
        // this stack keeps no reassembly queue).
        if !seq_le(end, self.tcb.rcv_nxt) && !seq_gt(seg.seq, self.tcb.rcv_nxt) {
            // seq <= rcv_nxt < end (wrapping): accept only the unseen
            // suffix, so a retransmission that partially overlaps delivered
            // data cannot duplicate bytes into the stream.
            let skip = self.tcb.rcv_nxt.wrapping_sub(seg.seq) as usize;
            let staged = std::mem::take(&mut self.staged);
            self.staged = FrameBuf::concat(&[staged, seg.payload.slice(skip..)]);
            self.tcb.rcv_nxt = end;
        }
        self.make_ack()
    }

    fn make_ack(&self) -> TcpSegment {
        TcpSegment::control(
            self.tcb.local_port,
            self.tcb.remote_port,
            self.tcb.snd_nxt,
            self.tcb.rcv_nxt,
            TcpFlags::ACK,
        )
    }

    /// Send application data, returning the data segment to transmit. A
    /// [`FrameBuf`] argument is forwarded as an O(1) view; `Vec<u8>` and
    /// `&[u8]` arguments are converted on entry.
    pub fn send(&mut self, data: impl Into<FrameBuf>) -> TcpSegment {
        let payload = data.into();
        // jitsu-lint: allow(N001, "send chunks are MSS-sized, bounded by the u16 wire length field")
        let len = payload.len() as u32;
        let seg = TcpSegment {
            src_port: self.tcb.local_port,
            dst_port: self.tcb.remote_port,
            seq: self.tcb.snd_nxt,
            ack: self.tcb.rcv_nxt,
            flags: TcpFlags::PSH_ACK,
            window: 65535,
            payload,
        };
        self.tcb.snd_nxt = self.tcb.snd_nxt.wrapping_add(len);
        seg
    }

    /// Close our side, returning the FIN segment to transmit.
    pub fn close(&mut self) -> TcpSegment {
        let fin = TcpSegment::control(
            self.tcb.local_port,
            self.tcb.remote_port,
            self.tcb.snd_nxt,
            self.tcb.rcv_nxt,
            TcpFlags::FIN_ACK,
        );
        self.tcb.snd_nxt = self.tcb.snd_nxt.wrapping_add(1);
        self.tcb.state = match self.tcb.state {
            TcpState::CloseWait => TcpState::LastAck,
            _ => TcpState::FinWait1,
        };
        fin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 20);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);

    /// The first segment `on_segment` asked to transmit.
    fn first_of(replies: &[Option<TcpSegment>; 2]) -> &TcpSegment {
        replies[0].as_ref().expect("a segment answers")
    }

    /// Drive a full handshake between a client connection and a listener,
    /// returning both connections.
    fn handshake() -> (Connection, Connection) {
        let mut listener = Listener::new(SERVER_IP, 80, 7);
        let (mut client, syn) = Connection::connect(CLIENT_IP, 51000, SERVER_IP, 80, 1000);
        assert_eq!(client.state(), TcpState::SynSent);
        let (mut server, syn_ack) = listener.on_syn(CLIENT_IP, &syn).unwrap();
        assert_eq!(server.state(), TcpState::SynReceived);
        let acks = client.on_segment(&syn_ack);
        assert!(client.is_established());
        assert_eq!(acks.iter().flatten().count(), 1);
        let more = server.on_segment(first_of(&acks));
        assert!(server.is_established());
        assert!(more.iter().all(Option::is_none));
        (client, server)
    }

    #[test]
    fn three_way_handshake_establishes_both_ends() {
        let (client, server) = handshake();
        assert_eq!(client.tcb.rcv_nxt, server.tcb.snd_nxt);
        assert_eq!(server.tcb.rcv_nxt, client.tcb.snd_nxt);
    }

    #[test]
    fn data_transfer_and_ack() {
        let (mut client, mut server) = handshake();
        let request = client.send(b"GET / HTTP/1.1\r\n\r\n");
        let responses = server.on_segment(&request);
        assert_eq!(responses.iter().flatten().count(), 1, "data is ACKed");
        assert!(first_of(&responses).flags.ack);
        assert_eq!(server.take_received(), b"GET / HTTP/1.1\r\n\r\n");
        // Server replies.
        client.on_segment(first_of(&responses));
        let reply = server.send(b"HTTP/1.1 200 OK\r\n\r\nhello");
        let acks = client.on_segment(&reply);
        assert_eq!(client.take_received(), b"HTTP/1.1 200 OK\r\n\r\nhello");
        server.on_segment(first_of(&acks));
        assert_eq!(
            server.tcb.snd_una, server.tcb.snd_nxt,
            "all data acknowledged"
        );
    }

    #[test]
    fn duplicate_data_is_reacked_not_rebuffered() {
        let (mut client, mut server) = handshake();
        let request = client.send(b"hello");
        server.on_segment(&request);
        // The same segment arrives again (client retransmission).
        let responses = server.on_segment(&request);
        assert_eq!(responses.iter().flatten().count(), 1);
        assert_eq!(server.take_received(), b"hello", "no duplication");
    }

    #[test]
    fn single_segment_delivery_shares_the_segment_allocation() {
        let (mut client, mut server) = handshake();
        let request = client.send(b"GET / HTTP/1.1\r\n\r\n");
        server.on_segment(&request);
        let received = server.take_received();
        assert!(
            received.shares_allocation(&request.payload),
            "in-order single-segment delivery is a view, not a copy"
        );
    }

    #[test]
    fn listener_ignores_non_syn() {
        let mut listener = Listener::new(SERVER_IP, 80, 7);
        let ack = TcpSegment::control(51000, 80, 5, 5, TcpFlags::ACK);
        assert!(listener.on_syn(CLIENT_IP, &ack).is_none());
        let wrong_port = TcpSegment::control(51000, 8080, 5, 0, TcpFlags::SYN);
        assert!(listener.on_syn(CLIENT_IP, &wrong_port).is_none());
    }

    #[test]
    fn syn_received_accepts_ack_with_data() {
        // HTTP clients often send the request in the same packet as the
        // handshake-completing ACK; Synjitsu's replay depends on this.
        let mut listener = Listener::new(SERVER_IP, 80, 7);
        let (mut client, syn) = Connection::connect(CLIENT_IP, 51000, SERVER_IP, 80, 500);
        let (mut server, syn_ack) = listener.on_syn(CLIENT_IP, &syn).unwrap();
        client.on_segment(&syn_ack);
        let req = client.send(b"GET /photos HTTP/1.1\r\n\r\n");
        let out = server.on_segment(&req);
        assert!(server.is_established());
        assert_eq!(server.take_received(), b"GET /photos HTTP/1.1\r\n\r\n");
        assert!(out[0].is_some());
    }

    #[test]
    fn close_sequence() {
        let (mut client, mut server) = handshake();
        let fin = client.close();
        assert_eq!(client.state(), TcpState::FinWait1);
        let acks = server.on_segment(&fin);
        assert_eq!(server.state(), TcpState::CloseWait);
        client.on_segment(first_of(&acks));
        assert_eq!(client.state(), TcpState::FinWait2);
        let server_fin = server.close();
        assert_eq!(server.state(), TcpState::LastAck);
        let acks = client.on_segment(&server_fin);
        assert_eq!(client.state(), TcpState::Closed);
        server.on_segment(first_of(&acks));
        assert_eq!(server.state(), TcpState::Closed);
    }

    #[test]
    fn rst_closes_immediately() {
        let (mut client, _server) = handshake();
        let rst = TcpSegment::control(80, 51000, 0, 0, TcpFlags::RST);
        let out = client.on_segment(&rst);
        assert!(out.iter().all(Option::is_none));
        assert_eq!(client.state(), TcpState::Closed);
    }

    #[test]
    fn adopted_tcb_continues_the_connection() {
        // Simulate the Synjitsu handoff: the proxy establishes a connection
        // and buffers the request; the unikernel adopts the TCB and replies.
        let (mut client, mut proxy_side) = handshake();
        let request = client.send(b"GET / HTTP/1.1\r\n\r\n");
        proxy_side.on_segment(&request);

        // Serialise through the XenStore format and adopt. The snapshot
        // flattens the staged delivery views back into `buffered`.
        let sexp = proxy_side.tcb_snapshot().to_sexp();
        let adopted_tcb = Tcb::from_sexp(&sexp).unwrap();
        let mut unikernel_side = Connection::from_tcb(adopted_tcb);
        assert!(unikernel_side.is_established());
        assert_eq!(unikernel_side.take_received(), b"GET / HTTP/1.1\r\n\r\n");

        // The unikernel answers and the client accepts the bytes seamlessly.
        let reply = unikernel_side.send(b"HTTP/1.1 200 OK\r\n\r\nindex");
        client.on_segment(&reply);
        assert_eq!(client.take_received(), b"HTTP/1.1 200 OK\r\n\r\nindex");
    }

    /// Handshake with both ISNs pinned near `u32::MAX`, so a short data
    /// exchange crosses the 2^32 boundary on both directions.
    fn wrapping_handshake(client_isn: u32, server_seed: u32) -> (Connection, Connection) {
        let mut listener = Listener::new(SERVER_IP, 80, server_seed);
        let (mut client, syn) = Connection::connect(CLIENT_IP, 51000, SERVER_IP, 80, client_isn);
        let (mut server, syn_ack) = listener.on_syn(CLIENT_IP, &syn).unwrap();
        let acks = client.on_segment(&syn_ack);
        server.on_segment(first_of(&acks));
        assert!(client.is_established() && server.is_established());
        (client, server)
    }

    #[test]
    fn data_transfer_survives_sequence_wraparound() {
        // The client ISN is 4 bytes below the wrap: the second chunk's
        // sequence numbers land on the far side of 2^32.
        let (mut client, mut server) = wrapping_handshake(u32::MAX - 4, u32::MAX - 70_000);
        let first = client.send(b"GET / HT");
        server.on_segment(&first);
        assert!(client.tcb.snd_nxt < client.tcb.isn, "snd_nxt wrapped");
        let second = client.send(b"TP/1.1\r\n\r\n");
        let acks = server.on_segment(&second);
        assert_eq!(server.take_received(), b"GET / HTTP/1.1\r\n\r\n");
        // The cumulative ACK is post-wrap and the client accepts it.
        client.on_segment(first_of(&acks));
        assert_eq!(client.tcb.snd_una, client.tcb.snd_nxt);
    }

    #[test]
    fn duplicate_across_the_wrap_is_reacked_not_rebuffered() {
        let (mut client, mut server) = wrapping_handshake(u32::MAX - 2, 7);
        let seg = client.send(b"hello world");
        server.on_segment(&seg);
        // Retransmission of the same (pre-wrap seq) segment: with plain
        // `u32` comparisons `seq < rcv_nxt` fails here and the old bytes
        // would be buffered twice.
        let responses = server.on_segment(&seg);
        assert_eq!(
            responses.iter().flatten().count(),
            1,
            "duplicate still gets a fresh ACK"
        );
        assert_eq!(server.take_received(), b"hello world", "no duplication");
    }

    #[test]
    fn partially_overlapping_retransmission_delivers_only_new_bytes() {
        let (mut client, mut server) = handshake();
        let first = client.send(b"abcde");
        server.on_segment(&first);
        // A retransmission that re-covers "cde" and extends with "fgh":
        // only the unseen suffix may enter the stream.
        let overlap = TcpSegment {
            payload: FrameBuf::copy_from_slice(b"cdefgh"),
            ..TcpSegment::control(
                first.src_port,
                first.dst_port,
                first.seq.wrapping_add(2),
                first.ack,
                TcpFlags::PSH_ACK,
            )
        };
        server.on_segment(&overlap);
        assert_eq!(server.take_received(), b"abcdefgh");
        assert_eq!(server.tcb.rcv_nxt, first.seq.wrapping_add(8));
    }

    #[test]
    fn stale_duplicate_ack_does_not_regress_snd_una() {
        let (mut client, mut server) = handshake();
        let old_ack = TcpSegment::control(
            server.tcb.local_port,
            server.tcb.remote_port,
            server.tcb.snd_nxt,
            server.tcb.rcv_nxt,
            TcpFlags::ACK,
        );
        let seg = client.send(b"data");
        let acks = server.on_segment(&seg);
        client.on_segment(first_of(&acks));
        let una_after = client.tcb.snd_una;
        // A stale ACK (acknowledging less) arrives late: snd_una must hold.
        client.on_segment(&old_ack);
        assert_eq!(client.tcb.snd_una, una_after);
    }

    #[test]
    fn fin_piggybacked_on_data_is_processed_after_the_payload() {
        let (mut client, mut server) = handshake();
        let mut fin_with_data = client.send(b"last bytes");
        fin_with_data.flags.fin = true;
        client.tcb.snd_nxt = client.tcb.snd_nxt.wrapping_add(1);
        client.tcb.state = TcpState::FinWait1;
        let acks = server.on_segment(&fin_with_data);
        assert_eq!(server.take_received(), b"last bytes");
        assert_eq!(server.state(), TcpState::CloseWait, "FIN seen after data");
        // One ACK for the data, then one for the FIN.
        let [Some(data_ack), Some(fin_ack)] = acks else {
            panic!("both the data and the FIN are ACKed, got {acks:?}");
        };
        assert_eq!(fin_ack.ack, data_ack.ack.wrapping_add(1));
    }

    #[test]
    fn listener_isns_differ_between_connections() {
        let mut listener = Listener::new(SERVER_IP, 80, 7);
        let syn1 = TcpSegment::control(51000, 80, 10, 0, TcpFlags::SYN);
        let syn2 = TcpSegment::control(51001, 80, 20, 0, TcpFlags::SYN);
        let (c1, sa1) = listener.on_syn(CLIENT_IP, &syn1).unwrap();
        let (c2, sa2) = listener.on_syn(CLIENT_IP, &syn2).unwrap();
        assert_ne!(sa1.seq, sa2.seq);
        assert_ne!(c1.tcb.isn, c2.tcb.isn);
    }
}
