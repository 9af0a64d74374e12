//! ICMP echo (ping), the protocol behind Figure 8's datapath-latency
//! measurement.

use crate::buf::{FrameBuf, FrameBufMut};
use crate::checksum;
use crate::{NetError, Result};

/// Minimum ICMP echo header length.
pub const HEADER_LEN: usize = 8;

/// An ICMP echo request or reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpEcho {
    /// True for an echo request, false for a reply.
    pub is_request: bool,
    /// Identifier (usually the pinging process id).
    pub ident: u16,
    /// Sequence number.
    pub seq: u16,
    /// Payload carried back verbatim in the reply — Figure 8 sweeps this
    /// from 56 to 1400 bytes. A view into the received frame's shared
    /// buffer.
    pub payload: FrameBuf,
}

impl IcmpEcho {
    /// Build an echo request.
    pub fn request(ident: u16, seq: u16, payload: impl Into<FrameBuf>) -> IcmpEcho {
        IcmpEcho {
            is_request: true,
            ident,
            seq,
            payload: payload.into(),
        }
    }

    /// Build the reply answering this request. The echoed payload is an
    /// O(1) view of the request's — no bytes are copied.
    pub fn reply(&self) -> IcmpEcho {
        IcmpEcho {
            is_request: false,
            ident: self.ident,
            seq: self.seq,
            payload: self.payload.slice(..),
        }
    }

    /// Parse and verify from wire bytes. The payload is an O(1) view
    /// sharing `buf`'s allocation.
    pub fn parse(buf: &FrameBuf) -> Result<IcmpEcho> {
        if buf.len() < HEADER_LEN {
            return Err(NetError::Truncated {
                layer: "icmp",
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        if !checksum::verify(buf) {
            return Err(NetError::BadChecksum("icmp"));
        }
        let is_request = match buf[0] {
            8 => true,
            0 => false,
            other => {
                return Err(NetError::Malformed {
                    layer: "icmp",
                    what: format!("unsupported ICMP type {other}"),
                })
            }
        };
        Ok(IcmpEcho {
            is_request,
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            seq: u16::from_be_bytes([buf[6], buf[7]]),
            payload: buf.slice(HEADER_LEN..),
        })
    }

    /// Header plus payload: this message's length on the wire.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Append this message — header, then payload — to `out` with its
    /// checksum filled in. The one definition of the header layout:
    /// [`IcmpEcho::emit`] and `Interface`'s composed frames both write it
    /// here. The payload is read once, by the copy; its sum is
    /// [`FrameBuf::sum`], kept by a payload that spans its whole buffer.
    pub fn write(&self, out: &mut FrameBufMut) {
        let mut header = [0u8; HEADER_LEN];
        header[0] = if self.is_request { 8 } else { 0 };
        header[4..6].copy_from_slice(&self.ident.to_be_bytes());
        header[6..8].copy_from_slice(&self.seq.to_be_bytes());
        // The header is an even number of bytes, so adding the payload's
        // own sum to the header's equals summing the message.
        let sum = checksum::partial(0, &header) + self.payload.sum();
        header[2..4].copy_from_slice(&checksum::finish(sum).to_be_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&self.payload);
    }

    /// Serialise to wire bytes with a valid checksum.
    pub fn emit(&self) -> FrameBuf {
        let mut out = FrameBufMut::with_capacity(self.wire_len());
        self.write(&mut out);
        out.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_request_and_reply() {
        let req = IcmpEcho::request(0x1234, 7, vec![0xAA; 56]);
        let parsed = IcmpEcho::parse(&req.emit()).unwrap();
        assert_eq!(parsed, req);
        let reply = parsed.reply();
        assert!(!reply.is_request);
        assert_eq!(reply.ident, 0x1234);
        assert_eq!(reply.seq, 7);
        assert_eq!(reply.payload, req.payload);
        assert!(
            reply.payload.shares_allocation(&parsed.payload),
            "the echoed payload is a view, not a copy"
        );
        assert_eq!(IcmpEcho::parse(&reply.emit()).unwrap(), reply);
    }

    #[test]
    fn figure8_payload_sizes_round_trip() {
        for size in [56usize, 128, 512, 1024, 1400] {
            let req = IcmpEcho::request(1, 1, vec![0x5A; size]);
            let parsed = IcmpEcho::parse(&req.emit()).unwrap();
            assert_eq!(parsed.payload.len(), size);
        }
    }

    #[test]
    fn corruption_and_truncation_detected() {
        let req = IcmpEcho::request(1, 1, vec![1, 2, 3, 4]);
        let mut bytes = req.emit().to_vec();
        bytes[9] ^= 0xff;
        assert_eq!(
            IcmpEcho::parse(&bytes.into()),
            Err(NetError::BadChecksum("icmp"))
        );
        assert!(matches!(
            IcmpEcho::parse(&req.emit().slice(..4)),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn unsupported_types_rejected() {
        // Destination unreachable (type 3) — valid ICMP but not echo.
        let mut bytes = vec![3u8, 0, 0, 0, 0, 0, 0, 0];
        let c = checksum::checksum(&bytes);
        bytes[2..4].copy_from_slice(&c.to_be_bytes());
        assert!(matches!(
            IcmpEcho::parse(&bytes.into()),
            Err(NetError::Malformed { layer: "icmp", .. })
        ));
    }
}
