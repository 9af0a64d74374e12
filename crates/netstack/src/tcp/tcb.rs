//! The TCP connection control block (TCB) and its textual serialisation.
//!
//! Figure 7 of the paper shows Synjitsu registering embryonic connections in
//! XenStore as s-expression-like values: a `state` key (`SYN` or `SYN_ACK`),
//! a `tcb` value carrying the endpoint and sequence state, and a `packets`
//! list of buffered data. [`Tcb::to_sexp`] / [`Tcb::from_sexp`] reproduce
//! that format so the proxy and the unikernel exchange connection state as
//! plain store values, exactly as the paper describes.

use crate::ipv4::Ipv4Addr;

/// TCP connection states (the subset the reproduction exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Passive open, waiting for a SYN.
    Listen,
    /// SYN received, SYN-ACK sent, waiting for the final ACK.
    SynReceived,
    /// SYN sent (active open), waiting for SYN-ACK.
    SynSent,
    /// Three-way handshake complete.
    Established,
    /// We sent a FIN and await its ACK.
    FinWait1,
    /// Our FIN was ACKed; waiting for the peer's FIN.
    FinWait2,
    /// Peer sent FIN; we ACKed and may still send.
    CloseWait,
    /// We sent our FIN after CloseWait.
    LastAck,
    /// Connection fully closed.
    Closed,
}

impl TcpState {
    /// Encode as the token used in the XenStore handoff record.
    pub fn as_token(self) -> &'static str {
        match self {
            TcpState::Listen => "LISTEN",
            TcpState::SynReceived => "SYN_RCVD",
            TcpState::SynSent => "SYN_SENT",
            TcpState::Established => "ESTABLISHED",
            TcpState::FinWait1 => "FIN_WAIT_1",
            TcpState::FinWait2 => "FIN_WAIT_2",
            TcpState::CloseWait => "CLOSE_WAIT",
            TcpState::LastAck => "LAST_ACK",
            TcpState::Closed => "CLOSED",
        }
    }

    /// Decode a token.
    pub fn from_token(s: &str) -> Option<TcpState> {
        Some(match s {
            "LISTEN" => TcpState::Listen,
            "SYN_RCVD" => TcpState::SynReceived,
            "SYN_SENT" => TcpState::SynSent,
            "ESTABLISHED" => TcpState::Established,
            "FIN_WAIT_1" => TcpState::FinWait1,
            "FIN_WAIT_2" => TcpState::FinWait2,
            "CLOSE_WAIT" => TcpState::CloseWait,
            "LAST_ACK" => TcpState::LastAck,
            "CLOSED" => TcpState::Closed,
            _ => return None,
        })
    }
}

/// The serialisable connection control block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tcb {
    /// Connection state.
    pub state: TcpState,
    /// Local (server) address.
    pub local_ip: Ipv4Addr,
    /// Local (server) port.
    pub local_port: u16,
    /// Remote (client) address.
    pub remote_ip: Ipv4Addr,
    /// Remote (client) port.
    pub remote_port: u16,
    /// Initial send sequence number chosen by this end.
    pub isn: u32,
    /// Next sequence number this end will send.
    pub snd_nxt: u32,
    /// Highest cumulative acknowledgement received from the peer.
    pub snd_una: u32,
    /// Next sequence number expected from the peer.
    pub rcv_nxt: u32,
    /// Application data received in order but not yet consumed. For a
    /// Synjitsu-proxied connection this is the buffered request bytes the
    /// unikernel replays after the handoff.
    pub buffered: Vec<u8>,
}

impl Tcb {
    /// A fresh listener-side TCB for a connection identified by the 4-tuple.
    pub fn for_listener(
        local_ip: Ipv4Addr,
        local_port: u16,
        remote_ip: Ipv4Addr,
        remote_port: u16,
        isn: u32,
    ) -> Tcb {
        Tcb {
            state: TcpState::Listen,
            local_ip,
            local_port,
            remote_ip,
            remote_port,
            isn,
            snd_nxt: isn,
            snd_una: isn,
            rcv_nxt: 0,
            buffered: Vec::new(),
        }
    }

    /// The connection 4-tuple `(local ip, local port, remote ip, remote port)`.
    pub fn four_tuple(&self) -> (Ipv4Addr, u16, Ipv4Addr, u16) {
        (
            self.local_ip,
            self.local_port,
            self.remote_ip,
            self.remote_port,
        )
    }

    /// Serialise to the XenStore handoff format: an s-expression-like record
    /// matching Figure 7, with buffered bytes hex-encoded. The record is
    /// written field by field into one buffer sized for it up front.
    pub fn to_sexp(&self) -> String {
        /// The record with every token, address, port and sequence number
        /// at its widest and no packets.
        const WIDEST: &str = "((state ESTABLISHED)(src 255.255.255.255)(src-port 65535)\
            (dst 255.255.255.255)(dst-port 65535)(isn 4294967295)(snd-nxt 4294967295)\
            (snd-una 4294967295)(rcv-nxt 4294967295)(packets ))";
        let mut out = String::with_capacity(WIDEST.len() + hex_len(&self.buffered));
        out.push_str("((state ");
        out.push_str(self.state.as_token());
        for (end, address, port) in [
            ("src", self.local_ip, self.local_port),
            ("dst", self.remote_ip, self.remote_port),
        ] {
            out.push_str(")(");
            out.push_str(end);
            out.push(' ');
            push_ipv4(&mut out, address);
            out.push_str(")(");
            out.push_str(end);
            out.push_str("-port ");
            push_decimal(&mut out, u32::from(port));
        }
        for (name, number) in [
            (")(isn ", self.isn),
            (")(snd-nxt ", self.snd_nxt),
            (")(snd-una ", self.snd_una),
            (")(rcv-nxt ", self.rcv_nxt),
        ] {
            out.push_str(name);
            push_decimal(&mut out, number);
        }
        out.push_str(")(packets ");
        push_hex(&mut out, &self.buffered);
        out.push_str("))");
        out
    }

    /// Parse the handoff format produced by [`Tcb::to_sexp`]: one scan of
    /// the record for its `(name value)` fields, in any order, each parsed
    /// where it lies.
    pub fn from_sexp(s: &str) -> Option<Tcb> {
        let mut fields = Fields::default();
        let mut rest = s;
        while let Some((_, after_paren)) = rest.split_once('(') {
            rest = after_paren;
            let Some((name, after_name)) = after_paren.split_once(' ') else {
                break;
            };
            let Some(field) = fields.named(name) else {
                continue;
            };
            let (value, after_value) = after_name.split_once(')')?;
            // As in a search for each name from the start of the record,
            // the first occurrence is the field.
            field.get_or_insert(value);
            rest = after_value;
        }
        Some(Tcb {
            state: TcpState::from_token(fields.state?)?,
            local_ip: Ipv4Addr::parse(fields.src?)?,
            local_port: fields.src_port?.parse().ok()?,
            remote_ip: Ipv4Addr::parse(fields.dst?)?,
            remote_port: fields.dst_port?.parse().ok()?,
            isn: fields.isn?.parse().ok()?,
            snd_nxt: fields.snd_nxt?.parse().ok()?,
            snd_una: fields.snd_una?.parse().ok()?,
            rcv_nxt: fields.rcv_nxt?.parse().ok()?,
            buffered: hex_decode(fields.packets?)?,
        })
    }
}

/// The fields of a record as [`Tcb::from_sexp`] finds them: views of the
/// record's text.
#[derive(Default)]
struct Fields<'a> {
    state: Option<&'a str>,
    src: Option<&'a str>,
    src_port: Option<&'a str>,
    dst: Option<&'a str>,
    dst_port: Option<&'a str>,
    isn: Option<&'a str>,
    snd_nxt: Option<&'a str>,
    snd_una: Option<&'a str>,
    rcv_nxt: Option<&'a str>,
    packets: Option<&'a str>,
}

impl<'a> Fields<'a> {
    /// The slot of the field the record calls `name`.
    fn named(&mut self, name: &str) -> Option<&mut Option<&'a str>> {
        Some(match name {
            "state" => &mut self.state,
            "src" => &mut self.src,
            "src-port" => &mut self.src_port,
            "dst" => &mut self.dst,
            "dst-port" => &mut self.dst_port,
            "isn" => &mut self.isn,
            "snd-nxt" => &mut self.snd_nxt,
            "snd-una" => &mut self.snd_una,
            "rcv-nxt" => &mut self.rcv_nxt,
            "packets" => &mut self.packets,
            _ => return None,
        })
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Append `n` in decimal.
fn push_decimal(out: &mut String, n: u32) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from_digit(n % 10, 10).unwrap_or('0'));
}

/// Append `addr` in dotted-quad notation.
fn push_ipv4(out: &mut String, addr: Ipv4Addr) {
    for (i, octet) in addr.0.into_iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        push_decimal(out, u32::from(octet));
    }
}

/// Length of [`hex_encode`]'s output for `data`.
fn hex_len(data: &[u8]) -> usize {
    (2 * data.len()).max(1)
}

/// Append [`hex_encode`]'s output for `data`.
fn push_hex(out: &mut String, data: &[u8]) {
    if data.is_empty() {
        out.push('-');
    }
    for byte in data {
        out.push(char::from(HEX_DIGITS[usize::from(byte >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(byte & 0x0f)]));
    }
}

/// Hex-encode a byte buffer for a XenStore value (`-` for empty, so the
/// store never holds a zero-length value). Public because the handoff
/// coordinator stores raw queued frames in the same format.
pub fn hex_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(hex_len(data));
    push_hex(&mut out, data);
    out
}

/// The value of one hex digit, either case.
fn nibble(digit: u8) -> Option<u8> {
    match digit {
        b'0'..=b'9' => Some(digit - b'0'),
        b'a'..=b'f' => Some(digit - b'a' + 10),
        b'A'..=b'F' => Some(digit - b'A' + 10),
        _ => None,
    }
}

/// Decode [`hex_encode`]'s output. Anything that is not pairs of hex digits
/// (or the lone `-`) is refused: the text comes out of a store other
/// domains write to.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    let digits = s.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let &[high, low] = pair else {
            return None;
        };
        out.push(nibble(high)? << 4 | nibble(low)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tcb {
        Tcb {
            state: TcpState::Established,
            local_ip: Ipv4Addr::new(192, 168, 1, 20),
            local_port: 80,
            remote_ip: Ipv4Addr::new(192, 168, 1, 100),
            remote_port: 51324,
            isn: 1_000_000,
            snd_nxt: 1_000_001,
            snd_una: 1_000_001,
            rcv_nxt: 42_424_243,
            buffered: b"GET / HTTP/1.1\r\nHost: alice\r\n\r\n".to_vec(),
        }
    }

    #[test]
    fn state_tokens_round_trip() {
        for s in [
            TcpState::Listen,
            TcpState::SynReceived,
            TcpState::SynSent,
            TcpState::Established,
            TcpState::FinWait1,
            TcpState::FinWait2,
            TcpState::CloseWait,
            TcpState::LastAck,
            TcpState::Closed,
        ] {
            assert_eq!(TcpState::from_token(s.as_token()), Some(s));
        }
        assert_eq!(TcpState::from_token("BOGUS"), None);
    }

    #[test]
    fn sexp_round_trip() {
        let tcb = sample();
        let s = tcb.to_sexp();
        assert!(s.contains("(state ESTABLISHED)"));
        assert!(s.contains("(src 192.168.1.20)"));
        assert!(s.contains("(dst-port 51324)"));
        let parsed = Tcb::from_sexp(&s).unwrap();
        assert_eq!(parsed, tcb);
    }

    #[test]
    fn sexp_round_trip_with_empty_buffer() {
        let mut tcb = sample();
        tcb.buffered.clear();
        tcb.state = TcpState::SynReceived;
        let parsed = Tcb::from_sexp(&tcb.to_sexp()).unwrap();
        assert_eq!(parsed, tcb);
        assert!(parsed.buffered.is_empty());
    }

    #[test]
    fn malformed_sexp_rejected() {
        assert!(Tcb::from_sexp("garbage").is_none());
        assert!(Tcb::from_sexp("((state NOPE)(src 1.2.3.4))").is_none());
        let valid = sample().to_sexp();
        let broken = valid.replace("(isn ", "(xxx ");
        assert!(Tcb::from_sexp(&broken).is_none());
    }

    #[test]
    fn hex_codec() {
        assert_eq!(hex_encode(&[]), "-");
        assert_eq!(hex_encode(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(hex_decode("00ff10"), Some(vec![0x00, 0xff, 0x10]));
        assert_eq!(hex_decode("-"), Some(vec![]));
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode("zz"), None);
        assert_eq!(hex_decode("00FF1a"), Some(vec![0x00, 0xff, 0x1a]));
    }

    #[test]
    fn hex_decode_refuses_signs_and_non_ascii_without_panicking() {
        // `from_str_radix` accepted "+f" as 15, and slicing by byte offset
        // panicked inside a multi-byte character.
        for hostile in ["+f", "-f", "a\u{fffd}", "é1", "\u{fffd}"] {
            assert_eq!(hex_decode(hostile), None, "{hostile:?}");
        }
    }

    #[test]
    fn fields_are_found_in_any_order_and_the_first_occurrence_wins() {
        let record = "(noise)(packets 4a)(state CLOSED)(rcv-nxt 4)(snd-una 3)(snd-nxt 2)(isn 1)\
            (dst-port 9)(dst 10.0.0.9)(src-port 80)(src 10.0.0.2)(state LISTEN)";
        let tcb = Tcb::from_sexp(record).unwrap();
        assert_eq!(tcb.state, TcpState::Closed);
        assert_eq!(tcb.buffered, b"J");
        assert_eq!(
            (tcb.isn, tcb.snd_nxt, tcb.snd_una, tcb.rcv_nxt),
            (1, 2, 3, 4)
        );
        assert!(Tcb::from_sexp("((state LISTEN").is_none(), "unterminated");
    }

    #[test]
    fn listener_tcb_and_four_tuple() {
        let t = Tcb::for_listener(
            Ipv4Addr::new(10, 0, 0, 2),
            80,
            Ipv4Addr::new(10, 0, 0, 9),
            4000,
            999,
        );
        assert_eq!(t.state, TcpState::Listen);
        assert_eq!(t.snd_nxt, 999);
        assert_eq!(
            t.four_tuple(),
            (
                Ipv4Addr::new(10, 0, 0, 2),
                80,
                Ipv4Addr::new(10, 0, 0, 9),
                4000
            )
        );
    }
}
