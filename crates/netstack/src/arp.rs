//! ARP: resolving IPv4 addresses to MAC addresses on the local segment.
//!
//! Jitsu assigns each unikernel an external IP on the local bridge; before a
//! client (or the upstream router) can deliver TCP SYNs to it, ARP must
//! resolve that IP. Synjitsu answers ARP for unikernels that are still
//! booting, which is part of how it captures their early traffic.

use crate::ethernet::MacAddr;
use crate::ipv4::Ipv4Addr;
use crate::{NetError, Result};
use std::collections::BTreeMap;

/// ARP operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has request.
    Request,
    /// Is-at reply.
    Reply,
}

/// A parsed ARP packet (Ethernet/IPv4 only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

/// ARP packet length for Ethernet/IPv4.
pub const PACKET_LEN: usize = 28;

impl ArpPacket {
    /// Build a who-has request.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr([0; 6]),
            target_ip,
        }
    }

    /// Build the reply answering `request` on behalf of `our_mac`.
    pub fn reply_to(request: &ArpPacket, our_mac: MacAddr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: our_mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Parse from wire bytes.
    pub fn parse(buf: &[u8]) -> Result<ArpPacket> {
        if buf.len() < PACKET_LEN {
            return Err(NetError::Truncated {
                layer: "arp",
                needed: PACKET_LEN,
                got: buf.len(),
            });
        }
        let htype = u16::from_be_bytes([buf[0], buf[1]]);
        let ptype = u16::from_be_bytes([buf[2], buf[3]]);
        if htype != 1 || ptype != 0x0800 || buf[4] != 6 || buf[5] != 4 {
            return Err(NetError::Malformed {
                layer: "arp",
                what: "only Ethernet/IPv4 ARP is supported".into(),
            });
        }
        let op = match u16::from_be_bytes([buf[6], buf[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            other => {
                return Err(NetError::Malformed {
                    layer: "arp",
                    what: format!("unknown opcode {other}"),
                })
            }
        };
        let mut sender_mac = [0u8; 6];
        let mut target_mac = [0u8; 6];
        let mut sender_ip = [0u8; 4];
        let mut target_ip = [0u8; 4];
        sender_mac.copy_from_slice(&buf[8..14]);
        sender_ip.copy_from_slice(&buf[14..18]);
        target_mac.copy_from_slice(&buf[18..24]);
        target_ip.copy_from_slice(&buf[24..28]);
        Ok(ArpPacket {
            op,
            sender_mac: MacAddr(sender_mac),
            sender_ip: Ipv4Addr(sender_ip),
            target_mac: MacAddr(target_mac),
            target_ip: Ipv4Addr(target_ip),
        })
    }

    /// Serialise to wire bytes.
    pub fn emit(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PACKET_LEN);
        out.extend_from_slice(&1u16.to_be_bytes()); // Ethernet
        out.extend_from_slice(&0x0800u16.to_be_bytes()); // IPv4
        out.push(6);
        out.push(4);
        out.extend_from_slice(
            &match self.op {
                ArpOp::Request => 1u16,
                ArpOp::Reply => 2u16,
            }
            .to_be_bytes(),
        );
        out.extend_from_slice(&self.sender_mac.0);
        out.extend_from_slice(&self.sender_ip.0);
        out.extend_from_slice(&self.target_mac.0);
        out.extend_from_slice(&self.target_ip.0);
        out
    }
}

/// A simple ARP cache: one entry per peer IP, learned or refreshed from
/// every ARP packet and every IPv4 frame for this interface, and never
/// expired or capped. A long-lived interface keeps an entry for every peer
/// it has heard from for its whole life (`warm_traffic`'s server learns one
/// per batch of exchanges). There is deliberately no cap: evicting an entry
/// would send that peer's frames to the broadcast MAC.
///
/// The cache also remembers the last binding it stored. An interface hears
/// from and answers one peer for a run of frames, so an `insert` of that
/// same binding and a `lookup` of its address are answered from it without
/// searching the map, which still holds every binding, the remembered one
/// included.
#[derive(Debug, Default, Clone)]
pub struct ArpCache {
    entries: BTreeMap<Ipv4Addr, MacAddr>,
    /// The binding the last `insert` stored, equal to its entry in
    /// `entries`: every `insert` updates both.
    last: Option<(Ipv4Addr, MacAddr)>,
}

impl ArpCache {
    /// Create an empty cache.
    pub fn new() -> ArpCache {
        ArpCache::default()
    }

    /// Insert or refresh an entry.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        if self.last == Some((ip, mac)) {
            return;
        }
        self.entries.insert(ip, mac);
        self.last = Some((ip, mac));
    }

    /// Look up an entry.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        match self.last {
            Some((last, mac)) if last == ip => Some(mac),
            _ => self.entries.get(&ip).copied(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAC_A: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const MAC_B: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);
    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn request_reply_round_trip() {
        let req = ArpPacket::request(MAC_A, IP_A, IP_B);
        let parsed = ArpPacket::parse(&req.emit()).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.op, ArpOp::Request);

        let reply = ArpPacket::reply_to(&parsed, MAC_B);
        assert_eq!(reply.op, ArpOp::Reply);
        assert_eq!(reply.sender_mac, MAC_B);
        assert_eq!(reply.sender_ip, IP_B);
        assert_eq!(reply.target_mac, MAC_A);
        assert_eq!(reply.target_ip, IP_A);
        assert_eq!(ArpPacket::parse(&reply.emit()).unwrap(), reply);
    }

    #[test]
    fn rejects_non_ethernet_ipv4() {
        let req = ArpPacket::request(MAC_A, IP_A, IP_B);
        let mut bytes = req.emit();
        bytes[1] = 6; // hardware type: IEEE 802
        assert!(matches!(
            ArpPacket::parse(&bytes),
            Err(NetError::Malformed { layer: "arp", .. })
        ));
        let mut bad_op = req.emit();
        bad_op[7] = 9;
        assert!(ArpPacket::parse(&bad_op).is_err());
        assert!(matches!(
            ArpPacket::parse(&[0; 10]),
            Err(NetError::Truncated { layer: "arp", .. })
        ));
    }

    #[test]
    fn cache_insert_and_lookup() {
        let mut cache = ArpCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(IP_A), None);
        cache.insert(IP_A, MAC_A);
        cache.insert(IP_B, MAC_B);
        cache.insert(IP_A, MAC_B); // refresh
        assert_eq!(cache.lookup(IP_A), Some(MAC_B));
        assert_eq!(cache.len(), 2);
    }

    /// Seeded random `insert`s and `lookup`s over four addresses and three
    /// MACs, held to a plain map after every step: the remembered binding
    /// is rebound, replaced by another address and looked up in every
    /// order.
    #[test]
    fn the_remembered_binding_never_answers_differently_from_the_map() {
        let ips = [
            IP_A,
            IP_B,
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(10, 0, 0, 4),
        ];
        let macs = [MAC_A, MAC_B, MacAddr([2, 0, 0, 0, 0, 3])];
        let mut rebinds = 0;
        for seed in 0..200u64 {
            // SplitMix64: deterministic draws without a dependency.
            let mut state = 0xA4B0 ^ seed;
            let mut below = |n: usize| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % n as u64) as usize
            };
            let mut cache = ArpCache::new();
            let mut model = BTreeMap::new();
            for step in 0..64 {
                let ip = ips[below(ips.len())];
                if below(2) == 0 {
                    let mac = macs[below(macs.len())];
                    if cache
                        .last
                        .is_some_and(|(last, old)| last == ip && old != mac)
                    {
                        rebinds += 1;
                    }
                    cache.insert(ip, mac);
                    model.insert(ip, mac);
                }
                for ip in ips {
                    assert_eq!(
                        cache.lookup(ip),
                        model.get(&ip).copied(),
                        "seed {seed}, step {step}: {ip:?}"
                    );
                }
                assert_eq!(cache.len(), model.len(), "seed {seed}, step {step}");
            }
        }
        // Rebinding the remembered address to a new MAC is the case a memo
        // keyed on the address alone gets wrong: it must come up.
        assert!(rebinds > 100, "{rebinds} rebinds");
    }
}
