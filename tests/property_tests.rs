//! Property-based tests (proptest) over the core data structures and
//! invariants: packet codecs round-trip, the XenStore tree respects
//! permissions and transaction atomicity, the TCB handoff format is
//! loss-free, and the vchan ring never loses or reorders bytes.

use jitsu_repro::netstack::checksum;
use jitsu_repro::netstack::dns::DnsMessage;
use jitsu_repro::netstack::http::{HttpRequest, HttpResponse};
use jitsu_repro::netstack::icmp::IcmpEcho;
use jitsu_repro::netstack::iface::Interface;
use jitsu_repro::netstack::ipv4::{Ipv4Packet, Protocol};
use jitsu_repro::netstack::tcp::{
    seq_ge, seq_gt, seq_le, seq_lt, Connection, Listener, Tcb, TcpFlags, TcpSegment, TcpState,
};
use jitsu_repro::netstack::udp::UdpDatagram;
use jitsu_repro::prelude::*;
use jitsu_repro::xenstore::Path as XsPath;
use proptest::prelude::*;

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr)
}

fn arb_xs_label() -> impl Strategy<Value = String> {
    // The XenStore charset includes '.', but the components "." and ".."
    // are rejected by Path::parse as relative — exclude exactly those two.
    "[a-zA-Z0-9_.@:-]{1,16}".prop_filter("relative components rejected by design", |l| {
        l != "." && l != ".."
    })
}

fn arb_tcp_state() -> impl Strategy<Value = TcpState> {
    prop_oneof![
        Just(TcpState::Listen),
        Just(TcpState::SynReceived),
        Just(TcpState::SynSent),
        Just(TcpState::Established),
        Just(TcpState::FinWait1),
        Just(TcpState::FinWait2),
        Just(TcpState::CloseWait),
        Just(TcpState::LastAck),
        Just(TcpState::Closed),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- packet codecs round-trip -------------------------

    #[test]
    fn ipv4_round_trips(src in arb_ipv4(), dst in arb_ipv4(), ttl in 1u8..=255,
                        proto in 0u8..=255, payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut packet = Ipv4Packet::new(src, dst, Protocol::from_u8(proto), payload);
        packet.ttl = ttl;
        let parsed = Ipv4Packet::parse(&packet.emit()).unwrap();
        prop_assert_eq!(parsed, packet);
    }

    #[test]
    fn ipv4_detects_any_single_byte_corruption_in_the_header(
        src in arb_ipv4(), dst in arb_ipv4(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        corrupt_at in 0usize..20, flip in 1u8..=255)
    {
        let packet = Ipv4Packet::new(src, dst, Protocol::Tcp, payload);
        let mut bytes = packet.emit().to_vec();
        bytes[corrupt_at] ^= flip;
        // Either the parse fails (checksum/shape) or — if the corrupted field
        // was one the parser does not interpret strictly (e.g. flags) — the
        // parse succeeds; it must never panic.
        let _ = Ipv4Packet::parse(&bytes.into());
    }

    #[test]
    fn udp_round_trips(src in arb_ipv4(), dst in arb_ipv4(), sport in 1u16..=65535, dport in 1u16..=65535,
                       payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let datagram = UdpDatagram::new(sport, dport, payload);
        let parsed = UdpDatagram::parse(&datagram.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(parsed, datagram);
    }

    #[test]
    fn tcp_segment_round_trips(src in arb_ipv4(), dst in arb_ipv4(), sport in 1u16..=65535,
                               dport in 1u16..=65535, seq in any::<u32>(), ack in any::<u32>(),
                               payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let seg = TcpSegment { src_port: sport, dst_port: dport, seq, ack,
                               flags: TcpFlags::PSH_ACK, window: 8192, payload: payload.into() };
        let parsed = TcpSegment::parse(&seg.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(parsed, seg);
    }

    #[test]
    fn tcp_segment_round_trips_for_every_flag_combination(
        src in arb_ipv4(), dst in arb_ipv4(), sport in 1u16..=65535, dport in 1u16..=65535,
        seq in any::<u32>(), ack in any::<u32>(), flag_bits in 0u8..32, window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512))
    {
        // All 32 FIN/SYN/RST/PSH/ACK combinations, not just the named ones.
        let flags = TcpFlags::from_bits(flag_bits);
        // The 5 flag bits encode losslessly.
        prop_assert_eq!(flags.to_bits(), flag_bits);
        let seg = TcpSegment { src_port: sport, dst_port: dport, seq, ack, flags, window,
                               payload: payload.into() };
        let parsed = TcpSegment::parse(&seg.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(&parsed, &seg);
        prop_assert_eq!(parsed.seq_len(),
                        seg.payload.len() as u32
                            + u32::from(flags.syn) + u32::from(flags.fin));
    }

    #[test]
    fn tcp_checksum_is_invariant_under_payload_splitting(
        src in arb_ipv4(), dst in arb_ipv4(), seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 2..512),
        split_hint in any::<usize>())
    {
        // The Internet checksum is a one's-complement sum of 16-bit words,
        // so accumulating two word-aligned chunks must equal accumulating
        // the whole buffer at once — the property Synjitsu relies on when
        // a buffered request is replayed as differently-sized segments.
        let k = (split_hint % (payload.len() / 2)) * 2;
        let whole = checksum::finish(checksum::partial(0, &payload));
        let split = checksum::finish(
            checksum::partial(checksum::partial(0, &payload[..k]), &payload[k..]));
        prop_assert_eq!(whole, split);

        // Splitting one segment into two (second seq advanced by the first
        // chunk's length) yields two independently checksum-valid segments
        // whose payloads reassemble into the original bytes.
        let first = TcpSegment { payload: payload[..k].into(),
                                 ..TcpSegment::control(49152, 80, seq, 1, TcpFlags::ACK) };
        let second = TcpSegment { payload: payload[k..].into(),
                                  ..TcpSegment::control(49152, 80,
                                                        seq.wrapping_add(k as u32), 1,
                                                        TcpFlags::PSH_ACK) };
        let a = TcpSegment::parse(&first.emit(src, dst), src, dst).unwrap();
        let b = TcpSegment::parse(&second.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(b.seq.wrapping_sub(a.seq) as usize, a.payload.len());
        let mut reassembled = a.payload.to_vec();
        reassembled.extend_from_slice(&b.payload);
        prop_assert_eq!(reassembled, payload);
    }

    #[test]
    fn icmp_round_trips(ident in any::<u16>(), seq in any::<u16>(),
                        payload in proptest::collection::vec(any::<u8>(), 0..1400)) {
        let echo = IcmpEcho::request(ident, seq, payload);
        prop_assert_eq!(IcmpEcho::parse(&echo.emit()).unwrap(), echo.clone());
        let reply = echo.reply();
        prop_assert_eq!(IcmpEcho::parse(&reply.emit()).unwrap(), reply);
    }

    #[test]
    fn dns_queries_round_trip(labels in proptest::collection::vec("[a-z0-9]{1,12}", 1..5), id in any::<u16>()) {
        let name = labels.join(".");
        let query = DnsMessage::query(id, &name);
        let parsed = DnsMessage::parse(&query.emit()).unwrap();
        prop_assert_eq!(parsed.queried_name(), Some(name.as_str()));
        let answer = DnsMessage::answer(&query, Ipv4Addr::new(192, 168, 1, 20), 30);
        let parsed = DnsMessage::parse(&answer.emit()).unwrap();
        prop_assert_eq!(parsed.answers.len(), 1);
    }

    #[test]
    fn http_request_round_trips(path_seg in "[a-zA-Z0-9_./-]{1,40}", host in "[a-z0-9.]{1,30}",
                                body in proptest::collection::vec(any::<u8>(), 0..256)) {
        let path = format!("/{}", path_seg.trim_start_matches('/'));
        let request = if body.is_empty() {
            HttpRequest::get(&path, &host)
        } else {
            HttpRequest::post(&path, &host, body)
        };
        let parsed = HttpRequest::parse(&request.emit()).unwrap().unwrap();
        prop_assert_eq!(parsed, request);
    }

    #[test]
    fn http_response_round_trips(status in 100u16..=599, body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let response = HttpResponse::with_status(status, "Reason", body);
        let parsed = HttpResponse::parse(&response.emit()).unwrap().unwrap();
        prop_assert_eq!(parsed, response);
    }

    #[test]
    fn parsers_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256),
                                      src in arb_ipv4(), dst in arb_ipv4()) {
        let buf = jitsu_repro::netstack::FrameBuf::from_vec(bytes);
        let _ = Ipv4Packet::parse(&buf);
        let _ = TcpSegment::parse(&buf, src, dst);
        let _ = UdpDatagram::parse(&buf, src, dst);
        let _ = IcmpEcho::parse(&buf);
        let _ = DnsMessage::parse(&buf);
        let _ = HttpRequest::parse(&buf);
        let _ = HttpResponse::parse(&buf);
    }

    // ---------------- TCP sequence arithmetic ----------------------------

    #[test]
    fn seq_comparisons_are_a_strict_order_within_half_the_space(
        a in any::<u32>(), d in 1u32..0x7fff_ffff)
    {
        // For any base point `a` — including right at the 2^32 wrap — and
        // any forward distance below half the sequence space, the wrapping
        // comparisons order a before a+d and agree with each other.
        let b = a.wrapping_add(d);
        prop_assert!(seq_lt(a, b));
        prop_assert!(seq_le(a, b));
        prop_assert!(seq_gt(b, a));
        prop_assert!(seq_ge(b, a));
        prop_assert!(!seq_lt(b, a));
        prop_assert!(!seq_gt(a, b));
        // Reflexivity of the non-strict forms.
        prop_assert!(seq_le(a, a) && seq_ge(a, a) && !seq_lt(a, a) && !seq_gt(a, a));
    }

    #[test]
    fn data_crosses_the_isn_wraparound_without_loss_or_duplication(
        isn_offset in 0u32..32, chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..64), 1..8),
        dup_index in any::<usize>())
    {
        // An ISN a few bytes below u32::MAX guarantees the payload stream
        // crosses the 2^32 boundary mid-transfer.
        let isn = u32::MAX - isn_offset;
        let mut listener = Listener::new(Ipv4Addr::new(192, 168, 1, 20), 80, u32::MAX - 70_000);
        let (mut client, syn) =
            Connection::connect(Ipv4Addr::new(192, 168, 1, 100), 51000, Ipv4Addr::new(192, 168, 1, 20), 80, isn);
        let (mut server, syn_ack) = listener.on_syn(Ipv4Addr::new(192, 168, 1, 100), &syn).unwrap();
        let acks = client.on_segment(&syn_ack);
        server.on_segment(acks[0].as_ref().unwrap());
        prop_assert!(client.is_established() && server.is_established());

        // Send every chunk, re-delivering one of the segments a second time
        // (a retransmission racing the cumulative ACK).
        let mut sent = Vec::new();
        let mut segments = Vec::new();
        for chunk in &chunks {
            let seg = client.send(&chunk[..]);
            server.on_segment(&seg);
            segments.push(seg);
            sent.extend_from_slice(chunk);
        }
        let dup = &segments[dup_index % segments.len()];
        let responses = server.on_segment(dup);
        // Duplicates are re-ACKed, never re-buffered.
        prop_assert_eq!(responses.iter().flatten().count(), 1);

        // Exactly the sent bytes arrive, once, in order — even though the
        // sequence numbers wrapped.
        prop_assert_eq!(server.take_received(), sent);
        prop_assert_eq!(server.tcb.rcv_nxt, client.tcb.snd_nxt);
    }

    #[test]
    fn cumulative_acks_across_the_wrap_are_accepted_and_stale_acks_ignored(
        isn_offset in 0u32..8, payload in proptest::collection::vec(any::<u8>(), 16..128))
    {
        let isn = u32::MAX - isn_offset;
        let mut listener = Listener::new(Ipv4Addr::new(192, 168, 1, 20), 80, 7);
        let (mut client, syn) =
            Connection::connect(Ipv4Addr::new(192, 168, 1, 100), 51000, Ipv4Addr::new(192, 168, 1, 20), 80, isn);
        let (mut server, syn_ack) = listener.on_syn(Ipv4Addr::new(192, 168, 1, 100), &syn).unwrap();
        let acks = client.on_segment(&syn_ack);
        server.on_segment(acks[0].as_ref().unwrap());

        // A stale ACK captured before the data is sent…
        let stale = TcpSegment::control(80, 51000, server.tcb.snd_nxt, server.tcb.rcv_nxt, TcpFlags::ACK);
        let seg = client.send(&payload[..]);
        let responses = server.on_segment(&seg);
        client.on_segment(responses[0].as_ref().unwrap());
        // …the post-wrap cumulative ACK landed:
        prop_assert_eq!(client.tcb.snd_una, client.tcb.snd_nxt);
        // …and replaying the stale ACK must not regress snd_una (with plain
        // `u32` ordering it would, because the stale ACK is numerically
        // larger than the wrapped snd_una).
        client.on_segment(&stale);
        prop_assert_eq!(client.tcb.snd_una, client.tcb.snd_nxt);
    }

    // ---------------- TCB handoff format --------------------------------

    #[test]
    fn tcb_sexp_serialisation_is_lossless(state in arb_tcp_state(), local in arb_ipv4(), remote in arb_ipv4(),
                                          lport in 1u16..=65535, rport in 1u16..=65535,
                                          isn in any::<u32>(), snd in any::<u32>(), una in any::<u32>(), rcv in any::<u32>(),
                                          buffered in proptest::collection::vec(any::<u8>(), 0..128)) {
        let tcb = Tcb { state, local_ip: local, local_port: lport, remote_ip: remote, remote_port: rport,
                        isn, snd_nxt: snd, snd_una: una, rcv_nxt: rcv, buffered };
        let parsed = Tcb::from_sexp(&tcb.to_sexp()).unwrap();
        prop_assert_eq!(parsed, tcb);
    }

    // ---------------- the interface's connection table -------------------

    #[test]
    fn connections_are_kept_in_tuple_order(raw in proptest::collection::vec(any::<u64>(), 0..48)) {
        // `Interface` packs (remote ip, remote port, local port) into one
        // integer key. Drawing every field from four values — both ends of
        // its range and both sides of its top bit — makes keys tie on every
        // prefix, so each field gets to decide an ordering.
        const OCTETS: [u8; 4] = [0, 127, 128, 255];
        const PORTS: [u16; 4] = [0, 0x7fff, 0x8000, 0xffff];
        let tuples: Vec<(Ipv4Addr, u16, u16)> = raw
            .iter()
            .map(|r| {
                let pick = |shift: u32| (r >> shift) as usize & 3;
                let ip = Ipv4Addr([OCTETS[pick(0)], OCTETS[pick(2)], OCTETS[pick(4)], OCTETS[pick(6)]]);
                (ip, PORTS[pick(8)], PORTS[pick(10)])
            })
            .collect();
        let local_ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut iface = Interface::new(MacAddr([2, 0, 0, 0, 0, 1]), local_ip);
        for &(ip, rport, lport) in &tuples {
            let tcb = Tcb::for_listener(local_ip, lport, ip, rport, 1);
            iface.adopt_connection(Connection::from_tcb(tcb), MacAddr([2, 0, 0, 0, 0, 2]));
        }
        let mut expected = tuples.clone();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(iface.connection_keys(), expected);
        for (ip, rport, lport) in tuples {
            let conn = iface.connection((ip, rport), lport).expect("adopted above");
            prop_assert_eq!((conn.tcb.remote_ip, conn.tcb.remote_port, conn.tcb.local_port), (ip, rport, lport));
        }
    }

    // ---------------- XenStore invariants --------------------------------

    #[test]
    fn xenstore_paths_round_trip(labels in proptest::collection::vec(arb_xs_label(), 1..6)) {
        let text = format!("/{}", labels.join("/"));
        let path = XsPath::parse(&text).unwrap();
        prop_assert_eq!(path.to_string(), text);
        prop_assert_eq!(path.depth(), labels.len());
    }

    #[test]
    fn xenstore_write_then_read_returns_the_value(labels in proptest::collection::vec("[a-z0-9]{1,8}", 1..5),
                                                  value in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let path = format!("/{}", labels.join("/"));
        xs.write(DomId::DOM0, None, &path, &value).unwrap();
        prop_assert_eq!(xs.read(DomId::DOM0, None, &path).unwrap(), value);
        // Every ancestor now exists and lists its child.
        let parsed = XsPath::parse(&path).unwrap();
        if let Some(parent) = parsed.parent() {
            let children = xs.directory(DomId::DOM0, None, &parent.to_string()).unwrap();
            prop_assert!(children.contains(&parsed.basename().unwrap().to_string()));
        }
    }

    #[test]
    fn aborted_transactions_never_leak_state(keys in proptest::collection::vec("[a-z]{1,6}", 1..6)) {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let tx = xs.transaction_start(DomId::DOM0).unwrap();
        for key in &keys {
            xs.write(DomId::DOM0, Some(tx), &format!("/staging/{}", key), b"tmp").unwrap();
        }
        xs.transaction_end(DomId::DOM0, tx, false).unwrap();
        for key in &keys {
            let leaked = xs.exists(DomId::DOM0, None, &format!("/staging/{}", key)).unwrap();
            prop_assert!(!leaked);
        }
    }

    #[test]
    fn committed_transactions_apply_all_or_nothing_under_conflict(n_keys in 1usize..6) {
        // Two transactions race on the same keys under the serial engine:
        // whichever commits second fails, and none of its writes appear.
        let mut xs = XenStore::new(EngineKind::Serial);
        let t1 = xs.transaction_start(DomId::DOM0).unwrap();
        let t2 = xs.transaction_start(DomId::DOM0).unwrap();
        for i in 0..n_keys {
            xs.write(DomId::DOM0, Some(t1), &format!("/race/k{}", i), b"from-t1").unwrap();
            xs.write(DomId::DOM0, Some(t2), &format!("/race/k{}", i), b"from-t2").unwrap();
        }
        xs.transaction_end(DomId::DOM0, t1, true).unwrap();
        let second = xs.transaction_end(DomId::DOM0, t2, true);
        prop_assert!(second.is_err());
        for i in 0..n_keys {
            let value = xs.read(DomId::DOM0, None, &format!("/race/k{}", i)).unwrap();
            prop_assert_eq!(value, b"from-t1".to_vec());
        }
    }

    // ---------------- persistent tree / commit-time merging --------------

    #[test]
    fn persistent_snapshots_never_see_later_mutations(
        keys in proptest::collection::vec("[a-z0-9]{1,8}", 1..8),
        extra in proptest::collection::vec("[a-z0-9]{1,8}", 1..8))
    {
        use jitsu_repro::xenstore::{Tree, TreeDiff};
        let mut tree = Tree::new();
        for (i, key) in keys.iter().enumerate() {
            let path = XsPath::parse(&format!("/base/d{}/{}", i % 3, key)).unwrap();
            tree.write(DomId::DOM0, &path, key.as_bytes(), &mut TreeDiff::default()).unwrap();
        }
        let snapshot = tree.clone();
        prop_assert!(snapshot.shares_root_with(&tree), "snapshot is O(1)");
        let frozen = snapshot.all_paths();

        // Arbitrary later mutations: overwrites, new subtrees, a removal.
        for (i, key) in extra.iter().enumerate() {
            let path = XsPath::parse(&format!("/later/e{}/{}", i % 3, key)).unwrap();
            tree.write(DomId::DOM0, &path, b"new", &mut TreeDiff::default()).unwrap();
        }
        let first = XsPath::parse(&format!("/base/d0/{}", keys[0])).unwrap();
        tree.write(DomId::DOM0, &first, b"overwritten", &mut TreeDiff::default()).unwrap();
        let _ = tree.rm(DomId::DOM0, &XsPath::parse("/base/d1").unwrap(), &mut TreeDiff::default());

        // The snapshot is bit-for-bit what it was.
        prop_assert_eq!(snapshot.all_paths(), frozen);
        prop_assert_eq!(snapshot.read(DomId::DOM0, &first).unwrap(),
                        keys[0].as_bytes().to_vec());
        prop_assert!(!snapshot.exists(&XsPath::parse("/later").unwrap()));
    }

    #[test]
    fn disjoint_path_transactions_always_merge_and_match_a_serial_order(
        a_keys in proptest::collection::vec("[a-z0-9]{1,8}", 1..6),
        b_keys in proptest::collection::vec("[a-z0-9]{1,8}", 1..6))
    {
        use jitsu_repro::xenstore::Tree;
        // Two transactions write disjoint subtrees, fully overlapped.
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let ta = xs.transaction_start(DomId::DOM0).unwrap();
        let tb = xs.transaction_start(DomId::DOM0).unwrap();
        for key in &a_keys {
            xs.write(DomId::DOM0, Some(ta), &format!("/merge_a/{}", key), b"A").unwrap();
        }
        for key in &b_keys {
            xs.write(DomId::DOM0, Some(tb), &format!("/merge_b/{}", key), b"B").unwrap();
        }
        xs.transaction_end(DomId::DOM0, ta, true).unwrap();
        // The second commit lands on a moved base and must merge, not abort.
        xs.transaction_end(DomId::DOM0, tb, true).unwrap();
        prop_assert_eq!(xs.stats().conflicts, 0);
        prop_assert!(xs.stats().merged >= 1);

        // The merged result equals the serial execution A then B.
        let mut serial = XenStore::new(EngineKind::JitsuMerge);
        for key in &a_keys {
            serial.write(DomId::DOM0, None, &format!("/merge_a/{}", key), b"A").unwrap();
        }
        for key in &b_keys {
            serial.write(DomId::DOM0, None, &format!("/merge_b/{}", key), b"B").unwrap();
        }
        prop_assert!(Tree::diff(serial.tree(), xs.tree()).is_empty(),
                     "merged state must equal a serial order");
    }

    #[test]
    fn overlapping_write_sets_always_conflict(
        key in "[a-z0-9]{1,8}", a_val in any::<u8>(), b_val in any::<u8>())
    {
        for engine in [EngineKind::Merge, EngineKind::JitsuMerge] {
            let mut xs = XenStore::new(engine);
            let ta = xs.transaction_start(DomId::DOM0).unwrap();
            let tb = xs.transaction_start(DomId::DOM0).unwrap();
            xs.write(DomId::DOM0, Some(ta), &format!("/shared/{}", key), &[a_val]).unwrap();
            xs.write(DomId::DOM0, Some(tb), &format!("/shared/{}", key), &[b_val]).unwrap();
            xs.transaction_end(DomId::DOM0, ta, true).unwrap();
            let second = xs.transaction_end(DomId::DOM0, tb, true);
            prop_assert!(second.is_err(), "{:?}: write-write overlap must abort", engine);
            // First writer's value survives.
            let value = xs.read(DomId::DOM0, None, &format!("/shared/{}", key)).unwrap();
            prop_assert_eq!(value, vec![a_val]);
        }
    }

    #[test]
    fn reads_of_missing_paths_conflict_with_a_concurrent_create(key in "[a-z0-9]{1,8}") {
        for engine in [EngineKind::Merge, EngineKind::JitsuMerge] {
            let mut xs = XenStore::new(engine);
            let t = xs.transaction_start(DomId::DOM0).unwrap();
            // The transaction observes the path to be absent...
            prop_assert!(!xs.exists(DomId::DOM0, Some(t), &format!("/race/{}", key)).unwrap());
            xs.write(DomId::DOM0, Some(t), "/race_winner", b"me").unwrap();
            // ...and a concurrent commit creates exactly that path.
            xs.write(DomId::DOM0, None, &format!("/race/{}", key), b"them").unwrap();
            prop_assert!(xs.transaction_end(DomId::DOM0, t, true).is_err(),
                         "{:?}: absence is a dependency", engine);
            prop_assert!(!xs.exists(DomId::DOM0, None, "/race_winner").unwrap());
        }
    }

    #[test]
    fn guests_can_never_read_other_guests_private_keys(owner in 1u32..200, reader in 1u32..200,
                                                       key in "[a-z0-9]{1,10}") {
        prop_assume!(owner != reader);
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let home = format!("/local/domain/{}", owner);
        xs.mkdir(DomId::DOM0, None, &home).unwrap();
        xs.set_perms(DomId::DOM0, None, &home, jitsu_repro::xenstore::Permissions::owned_by(DomId(owner))).unwrap();
        let secret_path = format!("{}/{}", home, key);
        xs.write(DomId(owner), None, &secret_path, b"secret").unwrap();
        let foreign_read = xs.read(DomId(reader), None, &secret_path);
        let owner_read = xs.read(DomId(owner), None, &secret_path);
        prop_assert!(foreign_read.is_err());
        prop_assert!(owner_read.is_ok());
    }

    // ---------------- metrics: percentile edges ---------------------------

    #[test]
    fn percentile_matches_an_independent_sorted_reference(
        values in proptest::collection::vec(-1.0e9f64..1.0e9, 1..200),
        pct in -50.0f64..150.0)
    {
        use jitsu_repro::sim::metrics::percentile;
        // Reference: clamp the request, then interpolate over an explicitly
        // sorted copy — written independently of the production code path.
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let p = pct.clamp(0.0, 100.0);
        let expected = if p <= 0.0 {
            sorted[0]
        } else if p >= 100.0 {
            sorted[sorted.len() - 1]
        } else {
            let rank = p / 100.0 * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let frac = rank - lo as f64;
            if frac == 0.0 {
                sorted[lo]
            } else {
                sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac
            }
        };
        let got = percentile(&values, pct);
        prop_assert_eq!(got.to_bits(), expected.to_bits());
        // And the result always lies inside the observed range.
        prop_assert!(sorted[0] <= got && got <= sorted[sorted.len() - 1]);
    }

    #[test]
    fn percentile_is_monotone_and_exact_at_both_ends(
        values in proptest::collection::vec(-1.0e6f64..1.0e6, 1..100),
        a in 0.0f64..=100.0, b in 0.0f64..=100.0)
    {
        use jitsu_repro::sim::metrics::percentile;
        let (lo_p, hi_p) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(percentile(&values, lo_p) <= percentile(&values, hi_p));
        let mut sorted = values.clone();
        sorted.sort_by(|x, y| x.total_cmp(y));
        let min = sorted[0];
        let max = sorted[sorted.len() - 1];
        // 0 and 100 return the extreme elements bit-exactly (no
        // interpolation residue), and out-of-range requests clamp to them.
        prop_assert_eq!(percentile(&values, 0.0).to_bits(), min.to_bits());
        prop_assert_eq!(percentile(&values, 100.0).to_bits(), max.to_bits());
        prop_assert_eq!(percentile(&values, -3.0).to_bits(), min.to_bits());
        prop_assert_eq!(percentile(&values, 140.0).to_bits(), max.to_bits());
    }

    // ---------------- vchan ring ------------------------------------------

    #[test]
    fn vchan_preserves_byte_streams(chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..600), 1..20)) {
        use jitsu_repro::conduit::vchan::{Side, VchanPair};
        use jitsu_repro::xen::event_channel::EventChannelTable;
        use jitsu_repro::xen::grant_table::GrantTable;

        let mut grants = GrantTable::new();
        let mut evtchn = EventChannelTable::new();
        let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(3), DomId(7)).unwrap();
        let mut sent = Vec::new();
        let mut received = Vec::new();
        for chunk in &chunks {
            let mut offset = 0;
            while offset < chunk.len() {
                match pair.write(Side::Client, &chunk[offset..], &mut evtchn) {
                    Ok(n) => offset += n,
                    Err(_) => {
                        received.extend_from_slice(&pair.read(Side::Server, usize::MAX).unwrap());
                    }
                }
            }
            sent.extend_from_slice(chunk);
        }
        received.extend_from_slice(&pair.read(Side::Server, usize::MAX).unwrap());
        prop_assert_eq!(received, sent);
    }
}
