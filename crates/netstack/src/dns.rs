//! DNS messages.
//!
//! The Jitsu directory service *is* a DNS server: the board is registered as
//! `ns.family.name`, and a query for `alice.family.name` either returns the
//! IP of Alice's already-running unikernel or triggers a launch while the
//! response is sent immediately (§3.3). Resource exhaustion is signalled by
//! `SERVFAIL` so the client can fail over to another board. This module
//! implements enough of RFC 1035 to serve that role: message encode/decode
//! with name compression omitted, A-record answers with a TTL, and the
//! `NXDOMAIN`/`SERVFAIL` response codes.

use crate::ipv4::Ipv4Addr;
use crate::{NetError, Result};

/// DNS response codes used by Jitsu.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// The name does not exist in this zone.
    NxDomain,
    /// The server cannot currently satisfy the query (Jitsu uses this to
    /// signal resource exhaustion so the client goes elsewhere).
    ServFail,
}

impl Rcode {
    fn to_bits(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
        }
    }

    fn from_bits(v: u8) -> Rcode {
        match v {
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            _ => Rcode::NoError,
        }
    }
}

/// A DNS question (only IN/A questions are generated; others are preserved
/// by type code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// The queried name, e.g. `alice.family.name`.
    pub name: String,
    /// Query type (1 = A).
    pub qtype: u16,
}

/// An A-record answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The answered name.
    pub name: String,
    /// The address.
    pub addr: Ipv4Addr,
    /// Time to live in seconds. Jitsu hands out short TTLs so that idle
    /// services can be retired and re-summoned.
    pub ttl: u32,
}

/// A DNS message (query or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction id.
    pub id: u16,
    /// True for responses.
    pub is_response: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Questions.
    pub questions: Vec<Question>,
    /// A-record answers.
    pub answers: Vec<Answer>,
}

impl DnsMessage {
    /// Build an A query.
    pub fn query(id: u16, name: &str) -> DnsMessage {
        DnsMessage {
            id,
            is_response: false,
            rcode: Rcode::NoError,
            questions: vec![Question {
                name: name.to_string(),
                qtype: 1,
            }],
            answers: Vec::new(),
        }
    }

    /// Build a response answering `query` with a single A record.
    pub fn answer(query: &DnsMessage, addr: Ipv4Addr, ttl: u32) -> DnsMessage {
        DnsMessage {
            id: query.id,
            is_response: true,
            rcode: Rcode::NoError,
            questions: query.questions.clone(),
            answers: query
                .questions
                .first()
                .map(|q| Answer {
                    name: q.name.clone(),
                    addr,
                    ttl,
                })
                .into_iter()
                .collect(),
        }
    }

    /// Build an error response (`NXDOMAIN` or `SERVFAIL`).
    pub fn error(query: &DnsMessage, rcode: Rcode) -> DnsMessage {
        DnsMessage {
            id: query.id,
            is_response: true,
            rcode,
            questions: query.questions.clone(),
            answers: Vec::new(),
        }
    }

    /// The first question's name, if any.
    pub fn queried_name(&self) -> Option<&str> {
        self.questions.first().map(|q| q.name.as_str())
    }

    /// Encode to wire bytes (no name compression).
    pub fn emit(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut flags: u16 = 0;
        if self.is_response {
            flags |= 0x8000;
            flags |= 0x0400; // authoritative answer
        }
        flags |= 0x0100; // recursion desired (copied by convention)
        flags |= self.rcode.to_bits() as u16;
        out.extend_from_slice(&flags.to_be_bytes());
        #[expect(
            clippy::expect_used,
            reason = "RFC 1035 caps the QDCOUNT field at u16; a message this stack builds carries one question"
        )]
        let qdcount = u16::try_from(self.questions.len())
            .expect("question count exceeds the u16 QDCOUNT field");
        #[expect(
            clippy::expect_used,
            reason = "RFC 1035 caps the ANCOUNT field at u16; answers mirror the single question"
        )]
        let ancount =
            u16::try_from(self.answers.len()).expect("answer count exceeds the u16 ANCOUNT field");
        out.extend_from_slice(&qdcount.to_be_bytes());
        out.extend_from_slice(&ancount.to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes()); // NS count
        out.extend_from_slice(&0u16.to_be_bytes()); // AR count
        for q in &self.questions {
            emit_name(&mut out, &q.name);
            out.extend_from_slice(&q.qtype.to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        for a in &self.answers {
            emit_name(&mut out, &a.name);
            out.extend_from_slice(&1u16.to_be_bytes()); // type A
            out.extend_from_slice(&1u16.to_be_bytes()); // class IN
            out.extend_from_slice(&a.ttl.to_be_bytes());
            out.extend_from_slice(&4u16.to_be_bytes()); // rdlength
            out.extend_from_slice(&a.addr.0);
        }
        out
    }

    /// Decode from wire bytes.
    pub fn parse(buf: &[u8]) -> Result<DnsMessage> {
        if buf.len() < 12 {
            return Err(NetError::Truncated {
                layer: "dns",
                needed: 12,
                got: buf.len(),
            });
        }
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        let flags = u16::from_be_bytes([buf[2], buf[3]]);
        let qdcount = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        let ancount = u16::from_be_bytes([buf[6], buf[7]]) as usize;
        let mut pos = 12;
        // The counts are the sender's word; the bytes are not. Reserve no
        // more records than the rest of the message could hold: a question
        // is at least 5 bytes (root name, type, class) and an answer 11.
        let mut questions = Vec::with_capacity(qdcount.min((buf.len() - pos) / 5));
        for _ in 0..qdcount {
            let name = parse_name(buf, &mut pos)?;
            if pos + 4 > buf.len() {
                return Err(NetError::Truncated {
                    layer: "dns",
                    needed: pos + 4,
                    got: buf.len(),
                });
            }
            let qtype = u16::from_be_bytes([buf[pos], buf[pos + 1]]);
            pos += 4; // type + class
            questions.push(Question { name, qtype });
        }
        let mut answers = Vec::with_capacity(ancount.min((buf.len() - pos) / 11));
        for _ in 0..ancount {
            let name = parse_name(buf, &mut pos)?;
            if pos + 10 > buf.len() {
                return Err(NetError::Truncated {
                    layer: "dns",
                    needed: pos + 10,
                    got: buf.len(),
                });
            }
            let rtype = u16::from_be_bytes([buf[pos], buf[pos + 1]]);
            let ttl = u32::from_be_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
            let rdlength = u16::from_be_bytes([buf[pos + 8], buf[pos + 9]]) as usize;
            pos += 10;
            if pos + rdlength > buf.len() {
                return Err(NetError::Truncated {
                    layer: "dns",
                    needed: pos + rdlength,
                    got: buf.len(),
                });
            }
            if rtype == 1 && rdlength == 4 {
                answers.push(Answer {
                    name,
                    addr: Ipv4Addr([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]),
                    ttl,
                });
            }
            pos += rdlength;
        }
        Ok(DnsMessage {
            id,
            is_response: flags & 0x8000 != 0,
            rcode: Rcode::from_bits((flags & 0x000f) as u8),
            questions,
            answers,
        })
    }
}

fn emit_name(out: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let bytes = label.as_bytes();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "`.min(63)` bounds the label length to the DNS maximum, which fits in u8"
        )]
        out.push(bytes.len().min(63) as u8);
        out.extend_from_slice(&bytes[..bytes.len().min(63)]);
    }
    out.push(0);
}

fn parse_name(buf: &[u8], pos: &mut usize) -> Result<String> {
    let mut labels = Vec::new();
    loop {
        let len = *buf.get(*pos).ok_or(NetError::Truncated {
            layer: "dns",
            needed: *pos + 1,
            got: buf.len(),
        })? as usize;
        *pos += 1;
        if len == 0 {
            break;
        }
        if len & 0xc0 != 0 {
            return Err(NetError::Malformed {
                layer: "dns",
                what: "name compression not supported".into(),
            });
        }
        if *pos + len > buf.len() {
            return Err(NetError::Truncated {
                layer: "dns",
                needed: *pos + len,
                got: buf.len(),
            });
        }
        labels.push(String::from_utf8_lossy(&buf[*pos..*pos + len]).into_owned());
        *pos += len;
    }
    Ok(labels.join("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trip() {
        let q = DnsMessage::query(0x1234, "alice.family.name");
        let parsed = DnsMessage::parse(&q.emit()).unwrap();
        assert_eq!(parsed, q);
        assert!(!parsed.is_response);
        assert_eq!(parsed.queried_name(), Some("alice.family.name"));
    }

    #[test]
    fn answer_round_trip() {
        let q = DnsMessage::query(7, "alice.family.name");
        let a = DnsMessage::answer(&q, Ipv4Addr::new(192, 168, 1, 20), 30);
        let parsed = DnsMessage::parse(&a.emit()).unwrap();
        assert!(parsed.is_response);
        assert_eq!(parsed.id, 7);
        assert_eq!(parsed.rcode, Rcode::NoError);
        assert_eq!(parsed.answers.len(), 1);
        assert_eq!(parsed.answers[0].addr, Ipv4Addr::new(192, 168, 1, 20));
        assert_eq!(parsed.answers[0].ttl, 30);
        assert_eq!(parsed.answers[0].name, "alice.family.name");
    }

    #[test]
    fn error_responses_round_trip() {
        let q = DnsMessage::query(9, "bogus.family.name");
        for rcode in [Rcode::NxDomain, Rcode::ServFail] {
            let e = DnsMessage::error(&q, rcode);
            let parsed = DnsMessage::parse(&e.emit()).unwrap();
            assert_eq!(parsed.rcode, rcode);
            assert!(parsed.answers.is_empty());
        }
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(DnsMessage::parse(&[0; 5]).is_err());
        let q = DnsMessage::query(1, "a.b");
        let bytes = q.emit();
        assert!(DnsMessage::parse(&bytes[..bytes.len() - 3]).is_err());
        // A compression pointer (0xc0) is unsupported.
        let mut with_ptr = q.emit();
        with_ptr[12] = 0xc0;
        assert!(DnsMessage::parse(&with_ptr).is_err());
    }

    #[test]
    fn a_header_that_promises_more_records_than_it_carries_is_truncated() {
        for counts in [[0xff, 0xff, 0, 0], [0, 0, 0xff, 0xff]] {
            let mut header = [0u8; 12];
            header[4..8].copy_from_slice(&counts);
            assert!(matches!(
                DnsMessage::parse(&header),
                Err(NetError::Truncated {
                    needed: 13,
                    got: 12,
                    ..
                })
            ));
        }
    }
}
