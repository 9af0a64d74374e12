//! Ethernet II framing.

use crate::buf::{FrameBuf, FrameBufMut};
use crate::{NetError, Result};
use std::fmt;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// True for broadcast or multicast addresses (group bit set).
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for the all-ones broadcast address.
    pub fn is_broadcast(&self) -> bool {
        self.0 == [0xff; 6]
    }

    /// Parse the usual colon-separated hex notation.
    pub fn parse(s: &str) -> Option<MacAddr> {
        let mut out = [0u8; 6];
        let mut n = 0;
        for part in s.split(':') {
            if n >= 6 {
                return None;
            }
            out[n] = u8::from_str_radix(part, 16).ok()?;
            n += 1;
        }
        if n == 6 {
            Some(MacAddr(out))
        } else {
            None
        }
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// The EtherType of a frame's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Anything else.
    Other(u16),
}

impl EtherType {
    /// Numeric value.
    pub fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Decode a numeric value.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// Ethernet header length.
pub const HEADER_LEN: usize = 14;

/// A parsed Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload EtherType.
    pub ethertype: EtherType,
    /// Payload bytes: a view into the received frame's shared buffer.
    pub payload: FrameBuf,
}

impl EthernetFrame {
    /// Construct a frame.
    pub fn new(
        dst: MacAddr,
        src: MacAddr,
        ethertype: EtherType,
        payload: impl Into<FrameBuf>,
    ) -> EthernetFrame {
        EthernetFrame {
            dst,
            src,
            ethertype,
            payload: payload.into(),
        }
    }

    /// Parse a frame from wire bytes. The payload is an O(1) view sharing
    /// `buf`'s allocation — no bytes are copied.
    pub fn parse(buf: &FrameBuf) -> Result<EthernetFrame> {
        if buf.len() < HEADER_LEN {
            return Err(NetError::Truncated {
                layer: "ethernet",
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([buf[12], buf[13]]));
        Ok(EthernetFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: buf.slice(HEADER_LEN..),
        })
    }

    /// Append the 14-byte header to `out`. The one definition of the header
    /// layout: [`EthernetFrame::emit`] and `Interface`'s composed frames
    /// both write it here (the payload field plays no part).
    pub fn write_header(&self, out: &mut FrameBufMut) {
        let mut header = [0u8; HEADER_LEN];
        header[0..6].copy_from_slice(&self.dst.0);
        header[6..12].copy_from_slice(&self.src.0);
        header[12..14].copy_from_slice(&self.ethertype.as_u16().to_be_bytes());
        out.extend_from_slice(&header);
    }

    /// Serialise to wire bytes: compose once, seal into a shared buffer.
    pub fn emit(&self) -> FrameBuf {
        let mut out = FrameBufMut::with_capacity(self.len());
        self.write_header(&mut out);
        out.extend_from_slice(&self.payload);
        out.freeze()
    }

    /// Total frame length on the wire.
    pub fn len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const B: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

    #[test]
    fn round_trip() {
        let f = EthernetFrame::new(A, B, EtherType::Ipv4, vec![1, 2, 3, 4]);
        let bytes = f.emit();
        assert_eq!(bytes.len(), f.len());
        let parsed = EthernetFrame::parse(&bytes).unwrap();
        assert_eq!(parsed, f);
        assert!(!f.is_empty());
    }

    #[test]
    fn truncated_frame_rejected() {
        assert!(matches!(
            EthernetFrame::parse(&FrameBuf::copy_from_slice(&[0; 13])),
            Err(NetError::Truncated {
                layer: "ethernet",
                ..
            })
        ));
        // Exactly a header with no payload is fine.
        let f = EthernetFrame::parse(&FrameBuf::copy_from_slice(&[0; 14])).unwrap();
        assert!(f.is_empty());
    }

    #[test]
    fn parsed_payload_is_a_view_not_a_copy() {
        let bytes = EthernetFrame::new(A, B, EtherType::Ipv4, vec![9; 64]).emit();
        let parsed = EthernetFrame::parse(&bytes).unwrap();
        assert!(parsed.payload.shares_allocation(&bytes));
        assert_eq!(parsed.payload, vec![9; 64]);
    }

    #[test]
    fn ethertype_codes() {
        assert_eq!(EtherType::Ipv4.as_u16(), 0x0800);
        assert_eq!(EtherType::Arp.as_u16(), 0x0806);
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x86dd), EtherType::Other(0x86dd));
        assert_eq!(EtherType::Other(0x1234).as_u16(), 0x1234);
    }

    #[test]
    fn mac_properties_and_display() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!A.is_multicast());
        assert!(MacAddr([0x01, 0, 0x5e, 0, 0, 1]).is_multicast());
        assert_eq!(A.to_string(), "02:00:00:00:00:01");
    }

    #[test]
    fn mac_parse() {
        assert_eq!(MacAddr::parse("02:00:00:00:00:01"), Some(A));
        assert_eq!(
            MacAddr::parse("ff:ff:ff:ff:ff:ff"),
            Some(MacAddr::BROADCAST)
        );
        assert_eq!(MacAddr::parse("02:00:00:00:00"), None);
        assert_eq!(MacAddr::parse("02:00:00:00:00:01:09"), None);
        assert_eq!(MacAddr::parse("zz:00:00:00:00:01"), None);
    }
}
