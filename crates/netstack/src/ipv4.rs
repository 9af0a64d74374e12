//! IPv4 packet parsing and construction.

use crate::buf::{FrameBuf, FrameBufMut};
use crate::checksum;
use crate::{NetError, Result};
use std::fmt;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// The limited broadcast address 255.255.255.255.
    pub const BROADCAST: Ipv4Addr = Ipv4Addr([255, 255, 255, 255]);
    /// The unspecified address 0.0.0.0.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr([0, 0, 0, 0]);

    /// Construct from octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr([a, b, c, d])
    }

    /// Parse dotted-quad notation.
    pub fn parse(s: &str) -> Option<Ipv4Addr> {
        let mut out = [0u8; 4];
        let mut n = 0;
        for part in s.split('.') {
            if n >= 4 {
                return None;
            }
            out[n] = part.parse().ok()?;
            n += 1;
        }
        if n == 4 {
            Some(Ipv4Addr(out))
        } else {
            None
        }
    }

    /// True if this address is within `network/prefix_len`.
    pub fn in_subnet(&self, network: Ipv4Addr, prefix_len: u8) -> bool {
        if prefix_len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - prefix_len.min(32));
        (u32::from_be_bytes(self.0) & mask) == (u32::from_be_bytes(network.0) & mask)
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// IP protocol numbers carried in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Other(u8),
}

impl Protocol {
    /// Numeric protocol value.
    pub fn as_u8(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(v) => v,
        }
    }

    /// Decode a numeric value.
    pub fn from_u8(v: u8) -> Protocol {
        match v {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

/// Minimum IPv4 header length (no options).
pub const HEADER_LEN: usize = HEADER_LEN_U16 as usize;
const HEADER_LEN_U16: u16 = 20;

/// The length of an IPv4 payload (transport header plus data), checked to
/// fit one datagram beside the 20-byte header. Nothing on the emit path
/// segments at an MSS, so an application can ask for more than the 16-bit
/// total-length field can say; this is the one place that is decided, and
/// the header writers take the checked value instead of narrowing their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadLen(u16);

impl PayloadLen {
    /// The largest payload one datagram carries: 65,515 bytes.
    pub const MAX: usize = (u16::MAX - HEADER_LEN_U16) as usize;

    /// `len` as a payload length; `None` when it cannot fit one datagram.
    pub fn new(len: usize) -> Option<PayloadLen> {
        if len > PayloadLen::MAX {
            return None;
        }
        u16::try_from(len).ok().map(PayloadLen)
    }

    /// The length as the wire's 16-bit fields carry it (the UDP length, the
    /// TCP/UDP pseudo-header).
    pub fn get(self) -> u16 {
        self.0
    }
}

/// A parsed IPv4 packet (options are not supported, matching the paper's
/// stack which silently ignores them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: Protocol,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (used by fragmentation, which we do not perform).
    pub ident: u16,
    /// Payload bytes: a view into the received frame's shared buffer.
    pub payload: FrameBuf,
}

impl Ipv4Packet {
    /// Construct a packet with the default TTL of 64 (the stack default the
    /// smoltcp/Mirage stacks use).
    pub fn new(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: Protocol,
        payload: impl Into<FrameBuf>,
    ) -> Ipv4Packet {
        Ipv4Packet {
            src,
            dst,
            protocol,
            ttl: 64,
            ident: 0,
            payload: payload.into(),
        }
    }

    /// Parse and verify a packet from wire bytes. The payload is an O(1)
    /// view sharing `buf`'s allocation — trailing padding (Ethernet
    /// minimum-size fill) is excluded by the view bounds, not by copying.
    pub fn parse(buf: &FrameBuf) -> Result<Ipv4Packet> {
        if buf.len() < HEADER_LEN {
            return Err(NetError::Truncated {
                layer: "ipv4",
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(NetError::Malformed {
                layer: "ipv4",
                what: format!("version {version} is not 4"),
            });
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl < HEADER_LEN || buf.len() < ihl {
            return Err(NetError::Malformed {
                layer: "ipv4",
                what: format!("bad header length {ihl}"),
            });
        }
        if !checksum::verify(&buf[..ihl]) {
            return Err(NetError::BadChecksum("ipv4"));
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total_len < ihl || buf.len() < total_len {
            return Err(NetError::Truncated {
                layer: "ipv4",
                needed: total_len,
                got: buf.len(),
            });
        }
        let ident = u16::from_be_bytes([buf[4], buf[5]]);
        let ttl = buf[8];
        let protocol = Protocol::from_u8(buf[9]);
        let mut src = [0u8; 4];
        let mut dst = [0u8; 4];
        src.copy_from_slice(&buf[12..16]);
        dst.copy_from_slice(&buf[16..20]);
        Ok(Ipv4Packet {
            src: Ipv4Addr(src),
            dst: Ipv4Addr(dst),
            protocol,
            ttl,
            ident,
            payload: buf.slice(ihl..total_len),
        })
    }

    /// Append the 20-byte header of a datagram carrying `payload_len` bytes
    /// to `out`. The one definition of the header layout:
    /// [`Ipv4Packet::emit`] and `Interface`'s composed frames both write it
    /// here (the payload field plays no part).
    pub fn write_header(&self, out: &mut FrameBufMut, payload_len: PayloadLen) {
        // Cannot overflow: `PayloadLen` is at most 65,515.
        let total_len = HEADER_LEN_U16 + payload_len.get();
        let mut header = [0u8; HEADER_LEN];
        header[0] = 0x45; // version 4, IHL 5
        header[1] = 0; // DSCP/ECN
        header[2..4].copy_from_slice(&total_len.to_be_bytes());
        header[4..6].copy_from_slice(&self.ident.to_be_bytes());
        header[6] = 0x40; // don't fragment
        header[8] = self.ttl;
        header[9] = self.protocol.as_u8();
        header[12..16].copy_from_slice(&self.src.0);
        header[16..20].copy_from_slice(&self.dst.0);
        let c = checksum::checksum(&header);
        header[10..12].copy_from_slice(&c.to_be_bytes());
        out.extend_from_slice(&header);
    }

    /// Serialise to wire bytes (header checksum filled in).
    ///
    /// # Panics
    /// When the payload exceeds [`PayloadLen::MAX`]: such a datagram has no
    /// wire form. `Interface` refuses the payload before it gets here.
    pub fn emit(&self) -> FrameBuf {
        let payload_len = PayloadLen::new(self.payload.len())
            // jitsu-lint: allow(P001, "a payload no datagram can carry is a caller bug; Interface checks PayloadLen before composing")
            .expect("payload fits one IPv4 datagram");
        let mut out = FrameBufMut::with_capacity(HEADER_LEN + self.payload.len());
        self.write_header(&mut out, payload_len);
        out.extend_from_slice(&self.payload);
        out.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn round_trip() {
        let p = Ipv4Packet::new(SRC, DST, Protocol::Udp, b"hello".to_vec());
        let bytes = p.emit();
        let parsed = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(parsed.ttl, 64);
    }

    #[test]
    fn corrupted_checksum_detected() {
        let p = Ipv4Packet::new(SRC, DST, Protocol::Tcp, vec![0; 8]);
        let mut bytes = p.emit().to_vec();
        bytes[15] ^= 0x01;
        assert_eq!(
            Ipv4Packet::parse(&bytes.into()),
            Err(NetError::BadChecksum("ipv4"))
        );
    }

    #[test]
    fn rejects_truncation_and_bad_version() {
        assert!(matches!(
            Ipv4Packet::parse(&FrameBuf::copy_from_slice(&[0x45; 10])),
            Err(NetError::Truncated { layer: "ipv4", .. })
        ));
        let p = Ipv4Packet::new(SRC, DST, Protocol::Udp, vec![1, 2, 3]);
        let mut bytes = p.emit().to_vec();
        bytes[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Packet::parse(&bytes.into()),
            Err(NetError::Malformed { layer: "ipv4", .. })
        ));
        // Payload shorter than total length.
        let bytes = p.emit();
        assert!(Ipv4Packet::parse(&bytes.slice(..bytes.len() - 1)).is_err());
    }

    #[test]
    fn extra_trailing_bytes_are_ignored() {
        // Ethernet minimum-size padding must not end up in the payload:
        // the payload view's bounds stop at the header's total length.
        let p = Ipv4Packet::new(SRC, DST, Protocol::Udp, b"ab".to_vec());
        let mut bytes = p.emit().to_vec();
        bytes.extend_from_slice(&[0u8; 20]);
        let padded = FrameBuf::from_vec(bytes);
        let parsed = Ipv4Packet::parse(&padded).unwrap();
        assert_eq!(parsed.payload, b"ab");
        assert!(parsed.payload.shares_allocation(&padded));
    }

    #[test]
    fn protocol_codes() {
        assert_eq!(Protocol::Icmp.as_u8(), 1);
        assert_eq!(Protocol::Tcp.as_u8(), 6);
        assert_eq!(Protocol::Udp.as_u8(), 17);
        assert_eq!(Protocol::from_u8(6), Protocol::Tcp);
        assert_eq!(Protocol::from_u8(89), Protocol::Other(89));
    }

    #[test]
    fn address_parsing_and_display() {
        assert_eq!(
            Ipv4Addr::parse("192.168.1.20"),
            Some(Ipv4Addr::new(192, 168, 1, 20))
        );
        assert_eq!(Ipv4Addr::parse("1.2.3"), None);
        assert_eq!(Ipv4Addr::parse("1.2.3.4.5"), None);
        assert_eq!(Ipv4Addr::parse("1.2.3.x"), None);
        assert_eq!(Ipv4Addr::new(10, 0, 0, 7).to_string(), "10.0.0.7");
    }

    #[test]
    fn subnet_membership() {
        let net = Ipv4Addr::new(192, 168, 1, 0);
        assert!(Ipv4Addr::new(192, 168, 1, 200).in_subnet(net, 24));
        assert!(!Ipv4Addr::new(192, 168, 2, 1).in_subnet(net, 24));
        assert!(Ipv4Addr::new(8, 8, 8, 8).in_subnet(net, 0));
        assert!(Ipv4Addr::new(192, 168, 1, 1).in_subnet(Ipv4Addr::new(192, 168, 1, 1), 32));
        assert!(!Ipv4Addr::new(192, 168, 1, 2).in_subnet(Ipv4Addr::new(192, 168, 1, 1), 32));
    }
}
