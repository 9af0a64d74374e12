//! The dom0 software bridge.
//!
//! Guest vifs and the physical NIC are ports on a learning bridge in dom0;
//! external traffic destined for a unikernel's IP traverses this bridge. The
//! Jitsu datapath discussion (§3.2, §4) is about minimising how much work is
//! added on this path — Figure 8's ICMP RTTs include one bridge traversal
//! for guest targets.
//!
//! Frames are opaque byte vectors whose first twelve bytes are the standard
//! Ethernet destination and source MAC addresses; the bridge learns source
//! addresses and forwards/floods accordingly, delivering into per-port
//! queues.

use jitsu_sim::SimDuration;
use platform::{BoardKind, CostModel};
use std::collections::{BTreeMap, VecDeque};

/// The bridge's costs: the Cubieboard2's, where its latency was calibrated.
const COSTS: &CostModel = BoardKind::Cubieboard2.board().costs;

/// A port handle on the bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

/// Errors from bridge operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeError {
    /// The port does not exist (e.g. already detached).
    NoSuchPort(PortId),
    /// The frame is too short to carry Ethernet addressing.
    RuntFrame(usize),
}

/// A learning Ethernet bridge with per-port receive queues.
#[derive(Debug, Default)]
pub struct Bridge {
    next_port: u32,
    ports: BTreeMap<PortId, PortState>,
    /// MAC address → port map learned from source addresses.
    fdb: BTreeMap<[u8; 6], PortId>,
    frames_forwarded: u64,
    frames_flooded: u64,
}

#[derive(Debug, Default)]
struct PortState {
    name: String,
    rx_queue: VecDeque<Vec<u8>>,
}

impl Bridge {
    /// Create a bridge with no ports.
    pub fn new() -> Bridge {
        Bridge::default()
    }

    /// The per-frame forwarding latency: dom0's softirq and bridge
    /// processing, calibrated on the Cubieboard2.
    pub fn forward_latency(&self) -> SimDuration {
        COSTS.bridge_forward
    }

    /// Attach a new port (a vif backend or the physical NIC).
    pub fn attach(&mut self, name: impl Into<String>) -> PortId {
        let id = PortId(self.next_port);
        self.next_port += 1;
        self.ports.insert(
            id,
            PortState {
                name: name.into(),
                rx_queue: VecDeque::new(),
            },
        );
        id
    }

    /// Detach a port, dropping its queue and learned addresses.
    pub fn detach(&mut self, port: PortId) -> Result<(), BridgeError> {
        self.ports
            .remove(&port)
            .ok_or(BridgeError::NoSuchPort(port))?;
        self.fdb.retain(|_, p| *p != port);
        Ok(())
    }

    /// The number of attached ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The name a port was attached with.
    pub fn port_name(&self, port: PortId) -> Option<&str> {
        self.ports.get(&port).map(|p| p.name.as_str())
    }

    /// Counters: `(forwarded, flooded)` frames.
    pub fn counters(&self) -> (u64, u64) {
        (self.frames_forwarded, self.frames_flooded)
    }

    fn dst_src(frame: &[u8]) -> Result<([u8; 6], [u8; 6]), BridgeError> {
        if frame.len() < 12 {
            return Err(BridgeError::RuntFrame(frame.len()));
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&frame[0..6]);
        src.copy_from_slice(&frame[6..12]);
        Ok((dst, src))
    }

    /// Transmit a frame into the bridge from `ingress`. Returns the latency
    /// of the bridge hop. Unknown/broadcast destinations are flooded to all
    /// other ports; known destinations are forwarded to their learned port.
    pub fn transmit(&mut self, ingress: PortId, frame: &[u8]) -> Result<SimDuration, BridgeError> {
        if !self.ports.contains_key(&ingress) {
            return Err(BridgeError::NoSuchPort(ingress));
        }
        let (dst, src) = Self::dst_src(frame)?;
        // Learn the source address.
        self.fdb.insert(src, ingress);
        let is_broadcast = dst == [0xff; 6] || (dst[0] & 0x01) != 0;
        let known = if is_broadcast {
            None
        } else {
            self.fdb.get(&dst).copied()
        };
        match known {
            Some(port) => match self.ports.get_mut(&port).filter(|_| port != ingress) {
                Some(state) => {
                    state.rx_queue.push_back(frame.to_vec());
                    self.frames_forwarded += 1;
                }
                // A destination learned on the ingress port goes nowhere.
                None => self.frames_flooded += 1,
            },
            None => {
                let others = self.ports.iter_mut().filter(|(p, _)| **p != ingress);
                for (_, state) in others {
                    state.rx_queue.push_back(frame.to_vec());
                }
                self.frames_flooded += 1;
            }
        }
        Ok(COSTS.bridge_forward)
    }

    /// Receive the next queued frame on a port, if any.
    pub fn receive(&mut self, port: PortId) -> Result<Option<Vec<u8>>, BridgeError> {
        Ok(self
            .ports
            .get_mut(&port)
            .ok_or(BridgeError::NoSuchPort(port))?
            .rx_queue
            .pop_front())
    }

    /// Number of frames queued on a port.
    pub fn pending(&self, port: PortId) -> usize {
        self.ports.get(&port).map(|p| p.rx_queue.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(dst: [u8; 6], src: [u8; 6], payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&dst);
        f.extend_from_slice(&src);
        f.extend_from_slice(&[0x08, 0x00]);
        f.extend_from_slice(payload);
        f
    }

    const MAC_A: [u8; 6] = [2, 0, 0, 0, 0, 0xa];
    const MAC_B: [u8; 6] = [2, 0, 0, 0, 0, 0xb];
    const BCAST: [u8; 6] = [0xff; 6];

    #[test]
    fn unknown_destination_floods_then_learns() {
        let mut br = Bridge::new();
        let pa = br.attach("eth0");
        let pb = br.attach("vif5.0");
        let pc = br.attach("vif6.0");

        // A -> B while B is unknown: flooded to both other ports.
        br.transmit(pa, &frame(MAC_B, MAC_A, b"hello")).unwrap();
        assert_eq!(br.pending(pb), 1);
        assert_eq!(br.pending(pc), 1);

        // B replies; the bridge learns B's port and A's port.
        br.receive(pb).unwrap();
        br.transmit(pb, &frame(MAC_A, MAC_B, b"re")).unwrap();
        assert_eq!(br.pending(pa), 1);
        assert_eq!(br.pending(pc), 1, "A was already learned, no extra flood");

        // Second A -> B is now forwarded only to B.
        br.transmit(pa, &frame(MAC_B, MAC_A, b"again")).unwrap();
        assert_eq!(br.pending(pb), 1);
        assert_eq!(br.pending(pc), 1);
        let (fwd, flood) = br.counters();
        assert_eq!(fwd, 2);
        assert_eq!(flood, 1);
    }

    #[test]
    fn broadcast_goes_everywhere_except_ingress() {
        let mut br = Bridge::new();
        let pa = br.attach("eth0");
        let pb = br.attach("vif1.0");
        let pc = br.attach("vif2.0");
        br.transmit(pa, &frame(BCAST, MAC_A, b"arp who-has"))
            .unwrap();
        assert_eq!(br.pending(pa), 0);
        assert_eq!(br.pending(pb), 1);
        assert_eq!(br.pending(pc), 1);
    }

    #[test]
    fn detach_removes_port_and_learned_macs() {
        let mut br = Bridge::new();
        let pa = br.attach("eth0");
        let pb = br.attach("vif1.0");
        br.transmit(pb, &frame(MAC_A, MAC_B, b"")).unwrap();
        br.detach(pb).unwrap();
        assert_eq!(br.port_count(), 1);
        // Traffic to the departed MAC floods again (to remaining ports).
        br.transmit(pa, &frame(MAC_B, MAC_A, b"x")).unwrap();
        let (_, flood) = br.counters();
        assert!(flood >= 1);
        assert_eq!(br.receive(pb).unwrap_err(), BridgeError::NoSuchPort(pb));
        assert_eq!(br.detach(pb).unwrap_err(), BridgeError::NoSuchPort(pb));
    }

    #[test]
    fn runt_frames_and_bad_ports_are_errors() {
        let mut br = Bridge::new();
        let pa = br.attach("eth0");
        assert_eq!(br.transmit(pa, &[1, 2, 3]), Err(BridgeError::RuntFrame(3)));
        assert_eq!(
            br.transmit(PortId(99), &frame(MAC_A, MAC_B, b"")),
            Err(BridgeError::NoSuchPort(PortId(99)))
        );
    }

    #[test]
    fn forwarding_latency_is_reported() {
        let mut br = Bridge::new();
        let pa = br.attach("a");
        let _pb = br.attach("b");
        let d = br.transmit(pa, &frame(BCAST, MAC_A, b"")).unwrap();
        assert_eq!(d, SimDuration::from_micros(50));
        assert_eq!(br.forward_latency(), d);
    }

    #[test]
    fn port_names_and_receive_order() {
        let mut br = Bridge::new();
        let pa = br.attach("eth0");
        let pb = br.attach("vif3.0");
        assert_eq!(br.port_name(pb), Some("vif3.0"));
        assert_eq!(br.port_name(PortId(9)), None);
        br.transmit(pa, &frame(BCAST, MAC_A, b"1")).unwrap();
        br.transmit(pa, &frame(BCAST, MAC_A, b"2")).unwrap();
        let f1 = br.receive(pb).unwrap().unwrap();
        let f2 = br.receive(pb).unwrap().unwrap();
        assert!(f1.ends_with(b"1"));
        assert!(f2.ends_with(b"2"));
        assert!(br.receive(pb).unwrap().is_none());
    }
}
