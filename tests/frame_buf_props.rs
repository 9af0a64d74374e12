//! Property tests for the zero-copy frame path: `FrameBuf`'s shared-buffer
//! semantics must be observationally identical to the owned `Vec<u8>`
//! behaviour it replaced, and the packet codecs must stay byte-identical
//! whether a payload arrives as an owned buffer or as a view deep inside a
//! larger frame.

use jitsu_repro::netstack::checksum;
use jitsu_repro::netstack::ethernet::{EtherType, EthernetFrame, MacAddr};
use jitsu_repro::netstack::http::HttpRequest;
use jitsu_repro::netstack::icmp::IcmpEcho;
use jitsu_repro::netstack::ipv4::{Ipv4Packet, Protocol};
use jitsu_repro::netstack::tcp::{TcpFlags, TcpSegment};
use jitsu_repro::netstack::udp::UdpDatagram;
use jitsu_repro::netstack::FrameBuf;
use jitsu_repro::prelude::*;
use proptest::prelude::*;

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr)
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------- FrameBuf ≡ Vec<u8> observational equality -------------

    #[test]
    fn a_framebuf_observes_exactly_like_the_vec_it_wraps(
        bytes in proptest::collection::vec(any::<u8>(), 0..512))
    {
        let buf = FrameBuf::from_vec(bytes.clone());
        prop_assert_eq!(buf.len(), bytes.len());
        prop_assert_eq!(buf.is_empty(), bytes.is_empty());
        prop_assert_eq!(&buf[..], &bytes[..]);
        prop_assert_eq!(buf.to_vec(), bytes.clone());
        // Equality is symmetric across the owned/shared divide.
        prop_assert_eq!(&buf, &bytes);
        prop_assert_eq!(&bytes, &buf);
        // Cloning shares the allocation instead of copying it.
        let aliased = buf.clone();
        prop_assert!(aliased.shares_allocation(&buf));
    }

    #[test]
    fn slicing_a_framebuf_equals_slicing_the_vec(
        bytes in proptest::collection::vec(any::<u8>(), 1..512),
        a in any::<usize>(), b in any::<usize>())
    {
        let (mut start, mut end) = (a % (bytes.len() + 1), b % (bytes.len() + 1));
        if start > end {
            std::mem::swap(&mut start, &mut end);
        }
        let buf = FrameBuf::from_vec(bytes.clone());
        let view = buf.slice(start..end);
        prop_assert_eq!(&view[..], &bytes[start..end]);
        // A view is O(1): it shares the parent allocation (unless empty,
        // where no allocation needs to be referenced at all).
        if start < end {
            prop_assert!(view.shares_allocation(&buf));
        }
        // Sub-slicing composes like slice-of-slice on the Vec.
        let mid = (end - start) / 2;
        prop_assert_eq!(&view.slice(..mid)[..], &bytes[start..start + mid]);
        prop_assert_eq!(&view.slice(mid..)[..], &bytes[start + mid..end]);
    }

    #[test]
    fn concat_of_any_partition_reassembles_the_original_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(any::<usize>(), 0..6))
    {
        // Split the buffer at arbitrary (sorted, deduped) cut points and
        // re-concatenate the views: the result must be byte-identical.
        let buf = FrameBuf::from_vec(bytes.clone());
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        points.push(0);
        points.push(bytes.len());
        points.sort_unstable();
        points.dedup();
        let parts: Vec<FrameBuf> = points
            .windows(2)
            .map(|w| buf.slice(w[0]..w[1]))
            .collect();
        let rejoined = FrameBuf::concat(&parts);
        prop_assert_eq!(&rejoined, &bytes);
        // The parts are consecutive views of one allocation, in order, so
        // any partition concatenates in O(1) to the view that spans them.
        prop_assert_eq!(rejoined.shares_allocation(&buf), !bytes.is_empty());
    }

    #[test]
    fn zero_length_buffers_never_hold_an_allocation(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>())
    {
        let k = at % (bytes.len() + 1);
        let buf = FrameBuf::from_vec(bytes);
        prop_assert!(!FrameBuf::empty().has_allocation());
        prop_assert!(!buf.slice(k..k).has_allocation());
        prop_assert!(!FrameBuf::concat(&[]).has_allocation());
    }

    #[test]
    fn every_view_sums_its_own_bytes_whichever_asks_first_and_however_often(
        bytes in proptest::collection::vec(any::<u8>(), 1..512),
        a in any::<usize>(), b in any::<usize>(), cut in any::<usize>(),
        asks in proptest::collection::vec(0usize..6, 1..16))
    {
        // `sum()` keeps the sum of a whole allocation; every other view
        // must sum its own bytes. A random order of asks, repeats included,
        // catches a memo that a window fills or that a window is given.
        let (mut start, mut end) = (a % (bytes.len() + 1), b % (bytes.len() + 1));
        if start > end {
            std::mem::swap(&mut start, &mut end);
        }
        let cut = cut % (bytes.len() + 1);
        let mid = start + (end - start) / 2;
        let buf = FrameBuf::from_vec(bytes.clone());
        let views = [
            ("the buffer", buf.clone()),
            ("a clone", buf.clone()),
            ("a window", buf.slice(start..end)),
            ("a spanning concat", FrameBuf::concat(&[buf.slice(..cut), buf.slice(cut..)])),
            ("a window's concat", FrameBuf::concat(&[buf.slice(start..mid), buf.slice(mid..end)])),
            ("the window's tail", buf.slice(start..end).slice(1.min(end - start)..)),
        ];
        for ask in asks {
            let (name, view) = &views[ask];
            let (got, want) = (view.sum(), checksum::partial(0, view));
            prop_assert!(
                got == want,
                "{name} of {} bytes, window {start}..{end}: sum {got:#x}, bytes sum to {want:#x}",
                bytes.len()
            );
        }
    }

    // ------------- codecs: emit∘parse is the identity on wire bytes ------
    //
    // For each layer: emit a packet, parse it back, emit again — the two
    // wire images must be byte-identical even though the re-emitted payload
    // is a *view* into the first image rather than an owned copy. This is
    // the property that made threading `FrameBuf` through every codec safe.

    #[test]
    fn ethernet_reemits_byte_identically_from_a_parsed_view(
        dst in arb_mac(), src in arb_mac(),
        payload in proptest::collection::vec(any::<u8>(), 0..256))
    {
        let wire = EthernetFrame::new(dst, src, EtherType::Ipv4, payload).emit();
        let parsed = EthernetFrame::parse(&wire).unwrap();
        prop_assert!(parsed.payload.shares_allocation(&wire), "payload is a view");
        prop_assert_eq!(parsed.emit(), wire);
    }

    #[test]
    fn ipv4_reemits_byte_identically_from_a_parsed_view(
        src in arb_ipv4(), dst in arb_ipv4(),
        payload in proptest::collection::vec(any::<u8>(), 0..256))
    {
        let wire = Ipv4Packet::new(src, dst, Protocol::Tcp, payload).emit();
        let parsed = Ipv4Packet::parse(&wire).unwrap();
        prop_assert!(parsed.payload.is_empty() || parsed.payload.shares_allocation(&wire));
        prop_assert_eq!(parsed.emit(), wire);
    }

    #[test]
    fn tcp_reemits_byte_identically_from_a_parsed_view(
        src in arb_ipv4(), dst in arb_ipv4(), seq in any::<u32>(), ack in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256))
    {
        let seg = TcpSegment {
            src_port: 49152,
            dst_port: 80,
            seq,
            ack,
            flags: TcpFlags::PSH_ACK,
            window: 8192,
            payload: payload.into(),
        };
        let wire = seg.emit(src, dst);
        let parsed = TcpSegment::parse(&wire, src, dst).unwrap();
        prop_assert!(parsed.payload.is_empty() || parsed.payload.shares_allocation(&wire));
        prop_assert_eq!(parsed.emit(src, dst), wire);
    }

    #[test]
    fn udp_reemits_byte_identically_from_a_parsed_view(
        src in arb_ipv4(), dst in arb_ipv4(), sport in 1u16..=65535, dport in 1u16..=65535,
        payload in proptest::collection::vec(any::<u8>(), 0..256))
    {
        let wire = UdpDatagram::new(sport, dport, payload).emit(src, dst);
        let parsed = UdpDatagram::parse(&wire, src, dst).unwrap();
        prop_assert!(parsed.payload.is_empty() || parsed.payload.shares_allocation(&wire));
        prop_assert_eq!(parsed.emit(src, dst), wire);
    }

    #[test]
    fn icmp_reemits_byte_identically_from_a_parsed_view(
        ident in any::<u16>(), seq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256))
    {
        let wire = IcmpEcho::request(ident, seq, payload).emit();
        let parsed = IcmpEcho::parse(&wire).unwrap();
        prop_assert!(parsed.payload.is_empty() || parsed.payload.shares_allocation(&wire));
        prop_assert_eq!(parsed.emit(), wire);
    }

    #[test]
    fn a_request_parsed_from_a_view_deep_inside_a_frame_round_trips(
        host in "[a-z0-9.]{1,30}",
        body in proptest::collection::vec(any::<u8>(), 1..128),
        prefix in proptest::collection::vec(any::<u8>(), 0..64))
    {
        // Embed an HTTP request at an arbitrary offset inside a larger
        // buffer (as TCP reassembly does) and parse it from the *view*:
        // identical to parsing the owned bytes.
        let request = HttpRequest::post("/submit", &host, body).emit();
        let mut composite = prefix.clone();
        composite.extend_from_slice(&request);
        let composite = FrameBuf::from_vec(composite);
        let view = composite.slice(prefix.len()..);
        prop_assert!(view.shares_allocation(&composite));
        let from_view = HttpRequest::parse(&view).unwrap().unwrap();
        let from_owned = HttpRequest::parse(&request).unwrap().unwrap();
        prop_assert_eq!(from_view, from_owned);
    }
}
