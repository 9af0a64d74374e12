//! UDP datagrams (DNS transport for the Jitsu directory service).

use crate::buf::{FrameBuf, FrameBufMut};
use crate::checksum;
use crate::ipv4::{Ipv4Addr, PayloadLen};
use crate::{NetError, Result};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes: a view into the received frame's shared buffer.
    pub payload: FrameBuf,
}

impl UdpDatagram {
    /// Construct a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: impl Into<FrameBuf>) -> UdpDatagram {
        UdpDatagram {
            src_port,
            dst_port,
            payload: payload.into(),
        }
    }

    /// Parse from wire bytes, verifying the checksum against the IPv4
    /// pseudo-header (a zero checksum means "not computed" and is accepted,
    /// per the RFC). The payload is an O(1) view sharing `buf`'s
    /// allocation.
    pub fn parse(buf: &FrameBuf, src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpDatagram> {
        if buf.len() < HEADER_LEN {
            return Err(NetError::Truncated {
                layer: "udp",
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let length = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        if length < HEADER_LEN || buf.len() < length {
            return Err(NetError::Truncated {
                layer: "udp",
                needed: length,
                got: buf.len(),
            });
        }
        let wire_checksum = u16::from_be_bytes([buf[6], buf[7]]);
        if wire_checksum != 0 {
            // jitsu-lint: allow(N001, "length was decoded from the datagram's u16 length field just above")
            let ph = checksum::pseudo_header(src.0, dst.0, 17, length as u16);
            if checksum::finish(checksum::partial(ph, &buf[..length])) != 0 {
                return Err(NetError::BadChecksum("udp"));
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            payload: buf.slice(HEADER_LEN..length),
        })
    }

    /// Header plus payload: this datagram's length on the wire.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Append this datagram — header, then payload — to `out`, its checksum
    /// computed under the pseudo-header for `src`/`dst`. `len` is
    /// [`UdpDatagram::wire_len`] as the caller checked it. The one
    /// definition of the header layout: [`UdpDatagram::emit`] and
    /// `Interface`'s composed frames both write it here.
    pub fn write(&self, out: &mut FrameBufMut, src: Ipv4Addr, dst: Ipv4Addr, len: PayloadLen) {
        debug_assert_eq!(usize::from(len.get()), self.wire_len());
        let mut header = [0u8; HEADER_LEN];
        header[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        header[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        header[4..6].copy_from_slice(&len.get().to_be_bytes());
        // The header is an even number of bytes, so summing it and the
        // payload in turn equals summing the datagram.
        let sum = checksum::pseudo_header(src.0, dst.0, 17, len.get());
        let sum = checksum::partial(checksum::partial(sum, &header), &self.payload);
        let mut c = checksum::finish(sum);
        if c == 0 {
            c = 0xffff; // 0 is reserved for "no checksum"
        }
        header[6..8].copy_from_slice(&c.to_be_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&self.payload);
    }

    /// Serialise with a checksum computed over the IPv4 pseudo-header.
    ///
    /// # Panics
    /// When the datagram exceeds [`PayloadLen::MAX`]: no IPv4 datagram can
    /// carry it. `Interface::udp_send` refuses such a payload first.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> FrameBuf {
        // jitsu-lint: allow(P001, "a datagram no IPv4 packet can carry is a caller bug; Interface checks PayloadLen before composing")
        let len = PayloadLen::new(self.wire_len()).expect("datagram fits one IPv4 datagram");
        let mut out = FrameBufMut::with_capacity(self.wire_len());
        self.write(&mut out, src, dst, len);
        out.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);

    #[test]
    fn round_trip_with_checksum() {
        let d = UdpDatagram::new(53000, 53, b"dns query bytes".to_vec());
        let bytes = d.emit(SRC, DST);
        let parsed = UdpDatagram::parse(&bytes, SRC, DST).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn wrong_pseudo_header_fails_checksum() {
        let d = UdpDatagram::new(1000, 2000, b"payload".to_vec());
        let bytes = d.emit(SRC, DST);
        assert_eq!(
            UdpDatagram::parse(&bytes, SRC, Ipv4Addr::new(10, 0, 0, 9)),
            Err(NetError::BadChecksum("udp"))
        );
    }

    #[test]
    fn zero_checksum_is_accepted() {
        let d = UdpDatagram::new(5, 6, b"x".to_vec());
        let mut bytes = d.emit(SRC, DST).to_vec();
        bytes[6] = 0;
        bytes[7] = 0;
        let parsed = UdpDatagram::parse(&bytes.into(), SRC, DST).unwrap();
        assert_eq!(parsed.payload, b"x");
    }

    #[test]
    fn truncation_detected() {
        let d = UdpDatagram::new(5, 6, vec![0; 32]);
        let bytes = d.emit(SRC, DST);
        assert!(matches!(
            UdpDatagram::parse(&bytes.slice(..10), SRC, DST),
            Err(NetError::Truncated { .. })
        ));
        assert!(matches!(
            UdpDatagram::parse(&FrameBuf::copy_from_slice(&[0; 4]), SRC, DST),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_payload_allowed() {
        let d = UdpDatagram::new(9, 10, Vec::new());
        let parsed = UdpDatagram::parse(&d.emit(SRC, DST), SRC, DST).unwrap();
        assert!(parsed.payload.is_empty());
    }
}
