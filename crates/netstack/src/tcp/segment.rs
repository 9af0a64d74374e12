//! TCP segment parsing and construction.

use crate::buf::{FrameBuf, FrameBufMut};
use crate::checksum;
use crate::ipv4::{Ipv4Addr, PayloadLen};
use crate::{NetError, Result};

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// FIN: sender has finished sending.
    pub fin: bool,
    /// SYN: synchronise sequence numbers.
    pub syn: bool,
    /// RST: reset the connection.
    pub rst: bool,
    /// PSH: push buffered data to the application.
    pub psh: bool,
    /// ACK: the acknowledgement field is valid.
    pub ack: bool,
}

impl TcpFlags {
    /// A pure SYN.
    pub const SYN: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        psh: false,
        ack: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// A pure ACK.
    pub const ACK: TcpFlags = TcpFlags {
        ack: true,
        syn: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        fin: true,
        ack: true,
        syn: false,
        rst: false,
        psh: false,
    };
    /// RST.
    pub const RST: TcpFlags = TcpFlags {
        rst: true,
        syn: false,
        ack: false,
        fin: false,
        psh: false,
    };
    /// PSH+ACK (a data segment).
    pub const PSH_ACK: TcpFlags = TcpFlags {
        psh: true,
        ack: true,
        syn: false,
        fin: false,
        rst: false,
    };

    /// Encode to the header bits.
    pub fn to_bits(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    /// Decode from the header bits.
    pub fn from_bits(bits: u8) -> TcpFlags {
        TcpFlags {
            fin: bits & 0x01 != 0,
            syn: bits & 0x02 != 0,
            rst: bits & 0x04 != 0,
            psh: bits & 0x08 != 0,
            ack: bits & 0x10 != 0,
        }
    }
}

/// TCP header length without options, in 32-bit words: the data offset
/// field of every segment this stack emits.
const HEADER_WORDS: u8 = 5;

/// TCP header length without options.
pub const HEADER_LEN: usize = HEADER_WORDS as usize * 4;

/// A TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Acknowledgement number (valid when `flags.ack`).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Payload bytes: a view into the received frame's shared buffer.
    pub payload: FrameBuf,
}

impl TcpSegment {
    /// Construct a segment with an empty payload.
    pub fn control(
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
    ) -> TcpSegment {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 65535,
            payload: FrameBuf::empty(),
        }
    }

    /// The amount of sequence space this segment occupies (payload plus one
    /// for SYN and one for FIN).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "segment payloads are bounded by the u16 wire length field, well within u32"
    )]
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }

    /// Parse and verify from wire bytes. The payload is an O(1) view
    /// sharing `buf`'s allocation — no bytes are copied.
    pub fn parse(buf: &FrameBuf, src: Ipv4Addr, dst: Ipv4Addr) -> Result<TcpSegment> {
        if buf.len() < HEADER_LEN {
            return Err(NetError::Truncated {
                layer: "tcp",
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let data_offset = ((buf[12] >> 4) as usize) * 4;
        if data_offset < HEADER_LEN || buf.len() < data_offset {
            return Err(NetError::Malformed {
                layer: "tcp",
                what: format!("bad data offset {data_offset}"),
            });
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "buf is an IPv4 payload, itself bounded by the datagram's u16 total-length field"
        )]
        let ph = checksum::pseudo_header(src.0, dst.0, 6, buf.len() as u16);
        if checksum::finish(checksum::partial(ph, buf)) != 0 {
            return Err(NetError::BadChecksum("tcp"));
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags::from_bits(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            payload: buf.slice(data_offset..),
        })
    }

    /// Header plus payload: this segment's length on the wire.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Append this segment — header, then payload — to `out`, its checksum
    /// computed under the pseudo-header for `src`/`dst`. `len` is
    /// [`TcpSegment::wire_len`] as the caller checked it. The one definition
    /// of the header layout: [`TcpSegment::emit`] and `Interface`'s composed
    /// frames both write it here. The payload is read once, by the copy: its
    /// sum is [`FrameBuf::sum`], which a payload spanning its whole buffer
    /// (a stored response) computes only the first time it is sent.
    pub fn write(&self, out: &mut FrameBufMut, src: Ipv4Addr, dst: Ipv4Addr, len: PayloadLen) {
        debug_assert_eq!(usize::from(len.get()), self.wire_len());
        let mut header = [0u8; HEADER_LEN];
        header[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        header[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        header[4..8].copy_from_slice(&self.seq.to_be_bytes());
        header[8..12].copy_from_slice(&self.ack.to_be_bytes());
        header[12] = HEADER_WORDS << 4;
        header[13] = self.flags.to_bits();
        header[14..16].copy_from_slice(&self.window.to_be_bytes());
        // The header is an even number of bytes, so adding the payload's
        // own sum to the header's equals summing the segment.
        let sum = checksum::pseudo_header(src.0, dst.0, 6, len.get());
        let sum = checksum::partial(sum, &header) + self.payload.sum();
        header[16..18].copy_from_slice(&checksum::finish(sum).to_be_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&self.payload);
    }

    /// Serialise to wire bytes, computing the checksum with the given
    /// pseudo-header addresses.
    ///
    /// # Panics
    /// When the segment exceeds [`PayloadLen::MAX`]: no IPv4 datagram can
    /// carry it. `Interface::tcp_send` refuses such a payload first.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> FrameBuf {
        #[expect(
            clippy::expect_used,
            reason = "a segment no datagram can carry is a caller bug; Interface checks PayloadLen before composing"
        )]
        let len = PayloadLen::new(self.wire_len()).expect("segment fits one IPv4 datagram");
        let mut out = FrameBufMut::with_capacity(self.wire_len());
        self.write(&mut out, src, dst, len);
        out.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 20);

    #[test]
    fn flags_round_trip() {
        for flags in [
            TcpFlags::SYN,
            TcpFlags::SYN_ACK,
            TcpFlags::ACK,
            TcpFlags::FIN_ACK,
            TcpFlags::RST,
            TcpFlags::PSH_ACK,
        ] {
            assert_eq!(TcpFlags::from_bits(flags.to_bits()), flags);
        }
        assert_eq!(TcpFlags::SYN.to_bits(), 0x02);
        assert_eq!(TcpFlags::SYN_ACK.to_bits(), 0x12);
    }

    #[test]
    fn segment_round_trip() {
        let seg = TcpSegment {
            src_port: 51000,
            dst_port: 80,
            seq: 0x1234_5678,
            ack: 0x8765_4321,
            flags: TcpFlags::PSH_ACK,
            window: 29200,
            payload: FrameBuf::copy_from_slice(b"GET / HTTP/1.1\r\n\r\n"),
        };
        let bytes = seg.emit(SRC, DST);
        let parsed = TcpSegment::parse(&bytes, SRC, DST).unwrap();
        assert_eq!(parsed, seg);
        assert!(parsed.payload.shares_allocation(&bytes));
    }

    #[test]
    fn checksum_binds_addresses() {
        let seg = TcpSegment::control(1, 2, 3, 4, TcpFlags::SYN);
        let bytes = seg.emit(SRC, DST);
        assert!(TcpSegment::parse(&bytes, SRC, DST).is_ok());
        assert_eq!(
            TcpSegment::parse(&bytes, SRC, Ipv4Addr::new(10, 0, 0, 1)),
            Err(NetError::BadChecksum("tcp"))
        );
    }

    #[test]
    fn corrupted_payload_detected() {
        let seg = TcpSegment {
            payload: FrameBuf::copy_from_slice(b"data"),
            ..TcpSegment::control(1, 2, 3, 4, TcpFlags::PSH_ACK)
        };
        let mut bytes = seg.emit(SRC, DST).to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert_eq!(
            TcpSegment::parse(&bytes.into(), SRC, DST),
            Err(NetError::BadChecksum("tcp"))
        );
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let syn = TcpSegment::control(1, 2, 100, 0, TcpFlags::SYN);
        assert_eq!(syn.seq_len(), 1);
        let fin = TcpSegment::control(1, 2, 100, 0, TcpFlags::FIN_ACK);
        assert_eq!(fin.seq_len(), 1);
        let data = TcpSegment {
            payload: vec![0; 10].into(),
            ..TcpSegment::control(1, 2, 100, 0, TcpFlags::ACK)
        };
        assert_eq!(data.seq_len(), 10);
        let ack = TcpSegment::control(1, 2, 100, 0, TcpFlags::ACK);
        assert_eq!(ack.seq_len(), 0);
    }

    #[test]
    fn truncation_and_bad_offset_rejected() {
        assert!(matches!(
            TcpSegment::parse(&FrameBuf::copy_from_slice(&[0; 10]), SRC, DST),
            Err(NetError::Truncated { .. })
        ));
        let seg = TcpSegment::control(1, 2, 3, 4, TcpFlags::ACK);
        let mut bytes = seg.emit(SRC, DST).to_vec();
        bytes[12] = 0x30; // data offset 12 bytes < 20
        assert!(matches!(
            TcpSegment::parse(&bytes.into(), SRC, DST),
            Err(NetError::Malformed { .. })
        ));
    }
}
