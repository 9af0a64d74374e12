//! Event channels: the virtual interrupt mechanism.
//!
//! An event channel is a one-bit notification line between two domains (or a
//! domain and Xen). The split-driver rings and vchan use a grant-shared page
//! for data plus an event channel to signal "I produced/consumed something".
//! The model follows the real API: a domain allocates an *unbound* port for a
//! named remote domain, the remote *binds* to it obtaining its own port, and
//! either side may then `notify`, which sets the peer's pending bit unless
//! masked.

use std::collections::{btree_map, BTreeMap};
use xenstore::DomId;

/// A per-domain event channel port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub u32);

/// Errors from event channel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventChannelError {
    /// The port does not exist for that domain.
    BadPort(Port),
    /// The port exists but is not in a bindable state for the caller.
    NotBindable,
    /// The port is already bound.
    AlreadyBound,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChannelState {
    /// Allocated by `owner` for `remote`, awaiting the remote's bind.
    Unbound { remote: DomId },
    /// Connected to the peer's port.
    Interdomain { peer: DomId, peer_port: Port },
    /// Torn down.
    Closed,
}

#[derive(Debug, Clone)]
struct Channel {
    state: ChannelState,
    pending: bool,
    masked: bool,
}

/// The host-wide event channel table.
#[derive(Debug, Default)]
pub struct EventChannelTable {
    channels: BTreeMap<(DomId, Port), Channel>,
    next_port: BTreeMap<DomId, u32>,
}

impl EventChannelTable {
    /// Create an empty table.
    pub fn new() -> EventChannelTable {
        EventChannelTable::default()
    }

    fn alloc_port(&mut self, dom: DomId) -> Port {
        let counter = self.next_port.entry(dom).or_insert(1);
        let port = Port(*counter);
        *counter += 1;
        port
    }

    /// Allocate an unbound port on `owner` that only `remote` may bind.
    pub fn alloc_unbound(&mut self, owner: DomId, remote: DomId) -> Port {
        let port = self.alloc_port(owner);
        self.channels.insert(
            (owner, port),
            Channel {
                state: ChannelState::Unbound { remote },
                pending: false,
                masked: false,
            },
        );
        port
    }

    /// Bind to a remote domain's unbound port, returning the local port.
    pub fn bind_interdomain(
        &mut self,
        local: DomId,
        remote: DomId,
        remote_port: Port,
    ) -> Result<Port, EventChannelError> {
        let remote_chan = self
            .channels
            .get(&(remote, remote_port))
            .ok_or(EventChannelError::BadPort(remote_port))?;
        match remote_chan.state {
            ChannelState::Unbound { remote: expected } if expected == local => {}
            ChannelState::Unbound { .. } => return Err(EventChannelError::NotBindable),
            ChannelState::Interdomain { .. } => return Err(EventChannelError::AlreadyBound),
            ChannelState::Closed => return Err(EventChannelError::BadPort(remote_port)),
        }
        let local_port = self.alloc_port(local);
        self.channels.insert(
            (local, local_port),
            Channel {
                state: ChannelState::Interdomain {
                    peer: remote,
                    peer_port: remote_port,
                },
                pending: false,
                masked: false,
            },
        );
        let remote_chan = self
            .channels
            .get_mut(&(remote, remote_port))
            // jitsu-lint: allow(P001, "presence checked by the lookup above")
            .expect("looked up above");
        remote_chan.state = ChannelState::Interdomain {
            peer: local,
            peer_port: local_port,
        };
        Ok(local_port)
    }

    /// Send a notification from `(dom, port)` to its peer. Returns `true` if
    /// the peer's pending bit was newly set (i.e. a wakeup should be
    /// delivered), `false` if it was already pending or is masked.
    pub fn notify(&mut self, dom: DomId, port: Port) -> Result<bool, EventChannelError> {
        let chan = self
            .channels
            .get(&(dom, port))
            .ok_or(EventChannelError::BadPort(port))?;
        let (peer, peer_port) = match chan.state {
            ChannelState::Interdomain { peer, peer_port } => (peer, peer_port),
            _ => return Err(EventChannelError::NotBindable),
        };
        let peer_chan = self
            .channels
            .get_mut(&(peer, peer_port))
            .ok_or(EventChannelError::BadPort(peer_port))?;
        if peer_chan.masked {
            return Ok(false);
        }
        let newly = !peer_chan.pending;
        peer_chan.pending = true;
        Ok(newly)
    }

    /// Read and clear the pending bit (what a guest's interrupt handler does).
    pub fn take_pending(&mut self, dom: DomId, port: Port) -> Result<bool, EventChannelError> {
        let chan = self
            .channels
            .get_mut(&(dom, port))
            .ok_or(EventChannelError::BadPort(port))?;
        let was = chan.pending;
        chan.pending = false;
        Ok(was)
    }

    /// Mask or unmask a port (masked ports do not receive notifications).
    pub fn set_masked(
        &mut self,
        dom: DomId,
        port: Port,
        masked: bool,
    ) -> Result<(), EventChannelError> {
        let chan = self
            .channels
            .get_mut(&(dom, port))
            .ok_or(EventChannelError::BadPort(port))?;
        chan.masked = masked;
        Ok(())
    }

    /// Close a port. The closer's entry is freed at once; an interdomain
    /// peer's entry turns `Closed` and stays until its own owner closes it or
    /// dies, so each end of a channel is freed by whoever holds it. A closed
    /// port is a [`EventChannelError::BadPort`] to its former owner, and the
    /// surviving peer's `notify` is [`EventChannelError::NotBindable`].
    pub fn close(&mut self, dom: DomId, port: Port) -> Result<(), EventChannelError> {
        self.release((dom, port))
            .ok_or(EventChannelError::BadPort(port))
    }

    /// Free one entry and hang up its peer's; `None` if there is no such port.
    fn release(&mut self, key: (DomId, Port)) -> Option<()> {
        let gone = self.channels.remove(&key)?;
        if let ChannelState::Interdomain { peer, peer_port } = gone.state {
            if let Some(pc) = self.channels.get_mut(&(peer, peer_port)) {
                pc.state = ChannelState::Closed;
                pc.pending = false;
            }
        }
        Some(())
    }

    /// The ports of `dom`: its contiguous key range of the host-wide map.
    fn range_of(&self, dom: DomId) -> btree_map::Range<'_, (DomId, Port), Channel> {
        self.channels.range((dom, Port(0))..=(dom, Port(u32::MAX)))
    }

    /// Tear down every port belonging to a destroyed domain, and its port
    /// counter with them (domain ids are never reused). Costs the dying
    /// domain's own ports, however many the rest of the host holds.
    pub fn domain_destroyed(&mut self, dom: DomId) {
        while let Some(key) = self.range_of(dom).next().map(|(key, _)| *key) {
            self.release(key);
        }
        self.next_port.remove(&dom);
    }

    /// Number of live (non-closed) ports a domain holds.
    pub fn ports_of(&self, dom: DomId) -> usize {
        self.range_of(dom)
            .filter(|(_, c)| c.state != ChannelState::Closed)
            .count()
    }

    /// Number of ports in the table, host-wide, `Closed` halves included —
    /// what a launch→reap cycle must return to where it found it.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True when no domain holds a port.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected_pair(table: &mut EventChannelTable) -> (Port, Port) {
        let server_port = table.alloc_unbound(DomId(3), DomId(7));
        let client_port = table
            .bind_interdomain(DomId(7), DomId(3), server_port)
            .unwrap();
        (server_port, client_port)
    }

    #[test]
    fn alloc_bind_notify_roundtrip() {
        let mut t = EventChannelTable::new();
        let (sp, cp) = connected_pair(&mut t);
        // Client notifies server.
        assert!(t.notify(DomId(7), cp).unwrap());
        assert!(t.take_pending(DomId(3), sp).unwrap());
        assert!(!t.take_pending(DomId(3), sp).unwrap(), "pending bit clears");
        // Server notifies client.
        assert!(t.notify(DomId(3), sp).unwrap());
        assert!(t.take_pending(DomId(7), cp).unwrap());
    }

    #[test]
    fn duplicate_notify_coalesces() {
        let mut t = EventChannelTable::new();
        let (sp, cp) = connected_pair(&mut t);
        assert!(t.notify(DomId(7), cp).unwrap());
        assert!(!t.notify(DomId(7), cp).unwrap(), "second notify coalesces");
        assert!(t.take_pending(DomId(3), sp).unwrap());
    }

    #[test]
    fn only_named_remote_may_bind() {
        let mut t = EventChannelTable::new();
        let sp = t.alloc_unbound(DomId(3), DomId(7));
        assert_eq!(
            t.bind_interdomain(DomId(9), DomId(3), sp),
            Err(EventChannelError::NotBindable)
        );
        let _ = t.bind_interdomain(DomId(7), DomId(3), sp).unwrap();
        // Re-binding an already-bound port fails.
        assert_eq!(
            t.bind_interdomain(DomId(7), DomId(3), sp),
            Err(EventChannelError::AlreadyBound)
        );
    }

    #[test]
    fn masked_ports_suppress_notifications() {
        let mut t = EventChannelTable::new();
        let (sp, cp) = connected_pair(&mut t);
        t.set_masked(DomId(3), sp, true).unwrap();
        assert!(!t.notify(DomId(7), cp).unwrap());
        assert!(!t.take_pending(DomId(3), sp).unwrap());
        t.set_masked(DomId(3), sp, false).unwrap();
        assert!(t.notify(DomId(7), cp).unwrap());
    }

    #[test]
    fn bad_ports_are_errors() {
        let mut t = EventChannelTable::new();
        assert!(matches!(
            t.notify(DomId(1), Port(9)),
            Err(EventChannelError::BadPort(_))
        ));
        assert!(matches!(
            t.bind_interdomain(DomId(1), DomId(2), Port(9)),
            Err(EventChannelError::BadPort(_))
        ));
        let unbound = t.alloc_unbound(DomId(1), DomId(2));
        // Notifying an unbound port is an error.
        assert!(matches!(
            t.notify(DomId(1), unbound),
            Err(EventChannelError::NotBindable)
        ));
    }

    #[test]
    fn close_tears_down_both_ends() {
        let mut t = EventChannelTable::new();
        let (sp, cp) = connected_pair(&mut t);
        t.close(DomId(3), sp).unwrap();
        assert!(matches!(
            t.notify(DomId(7), cp),
            Err(EventChannelError::NotBindable)
        ));
        assert_eq!(t.ports_of(DomId(3)), 0);
        assert_eq!(t.ports_of(DomId(7)), 0);
    }

    #[test]
    fn domain_destruction_closes_peer_ports() {
        let mut t = EventChannelTable::new();
        let (_sp, cp) = connected_pair(&mut t);
        t.domain_destroyed(DomId(3));
        assert!(matches!(
            t.notify(DomId(7), cp),
            Err(EventChannelError::NotBindable)
        ));
        assert_eq!(t.ports_of(DomId(3)), 0);
    }

    #[test]
    fn ports_are_per_domain() {
        let mut t = EventChannelTable::new();
        let a = t.alloc_unbound(DomId(3), DomId(7));
        let b = t.alloc_unbound(DomId(5), DomId(7));
        assert_eq!(a, Port(1));
        assert_eq!(b, Port(1), "each domain has its own port space");
        assert_eq!(t.ports_of(DomId(3)), 1);
    }

    #[test]
    fn a_closed_port_is_bad_to_its_owner_and_hung_up_to_its_peer() {
        let mut t = EventChannelTable::new();
        let (sp, cp) = connected_pair(&mut t);
        t.notify(DomId(3), sp).unwrap();
        t.close(DomId(3), sp).unwrap();
        // The closer's entry is gone: every later use of the port is `BadPort`.
        assert_eq!(t.notify(DomId(3), sp), Err(EventChannelError::BadPort(sp)));
        assert_eq!(
            t.take_pending(DomId(3), sp),
            Err(EventChannelError::BadPort(sp))
        );
        assert_eq!(
            t.set_masked(DomId(3), sp, true),
            Err(EventChannelError::BadPort(sp))
        );
        assert_eq!(t.close(DomId(3), sp), Err(EventChannelError::BadPort(sp)));
        assert_eq!(
            t.bind_interdomain(DomId(7), DomId(3), sp),
            Err(EventChannelError::BadPort(sp))
        );
        // The peer's entry stays, hung up, until the peer lets go of it.
        assert_eq!(t.len(), 1);
        assert_eq!(t.notify(DomId(7), cp), Err(EventChannelError::NotBindable));
        assert_eq!(t.take_pending(DomId(7), cp), Ok(false), "pending cleared");
        assert_eq!(t.close(DomId(7), cp), Ok(()));
        assert!(t.is_empty());
    }

    /// One unikernel's ports as the toolstack and conduit allocate them: an
    /// unbound console port, a vif port the dom0 backend binds, and a vchan
    /// whose server is dom0. Returns `(guest's, dom0's)` port numbers.
    fn unikernel_ports(t: &mut EventChannelTable, guest: DomId) -> ([Port; 3], [Port; 2]) {
        let dom0 = DomId::DOM0;
        let console = t.alloc_unbound(guest, dom0);
        let vif = t.alloc_unbound(guest, dom0);
        let backend = t.bind_interdomain(dom0, guest, vif).unwrap();
        let server = t.alloc_unbound(dom0, guest);
        let client = t.bind_interdomain(guest, dom0, server).unwrap();
        ([console, vif, client], [backend, server])
    }

    #[test]
    fn whichever_end_dies_first_the_table_ends_empty() {
        let guest = DomId(5);
        // The guest dies; dom0's device teardown closes the halves it holds.
        let mut t = EventChannelTable::new();
        let (_, dom0_ports) = unikernel_ports(&mut t, guest);
        t.domain_destroyed(guest);
        assert_eq!(t.len(), 2, "dom0's two halves outlive the guest, hung up");
        assert_eq!(t.ports_of(DomId::DOM0), 0);
        for port in dom0_ports {
            assert_eq!(
                t.notify(DomId::DOM0, port),
                Err(EventChannelError::NotBindable)
            );
            t.close(DomId::DOM0, port).unwrap();
        }
        assert!(t.is_empty());
        // The backends go first (device teardown), then the guest.
        let (guest_ports, dom0_ports) = unikernel_ports(&mut t, guest);
        for port in dom0_ports {
            t.close(DomId::DOM0, port).unwrap();
        }
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.ports_of(guest),
            1,
            "only the unbound console port is live"
        );
        assert_eq!(
            t.notify(guest, guest_ports[1]),
            Err(EventChannelError::NotBindable)
        );
        t.domain_destroyed(guest);
        assert!(t.is_empty());
    }

    #[test]
    fn a_thousand_cycles_hand_out_the_port_numbers_they_always_did() {
        // Recorded on the parent of the per-domain tables: a guest numbers
        // its ports from 1 whatever came before it, and dom0's counter never
        // goes back, so every number written into XenStore is unchanged.
        let mut t = EventChannelTable::new();
        for i in 0..1_000u32 {
            let guest = DomId(i + 1);
            let (guest_ports, dom0_ports) = unikernel_ports(&mut t, guest);
            assert_eq!(guest_ports, [Port(1), Port(2), Port(3)]);
            assert_eq!(dom0_ports, [Port(2 * i + 1), Port(2 * i + 2)]);
            t.close(DomId::DOM0, dom0_ports[1]).unwrap();
            t.close(guest, guest_ports[2]).unwrap();
            t.close(DomId::DOM0, dom0_ports[0]).unwrap();
            t.domain_destroyed(guest);
            assert!(t.is_empty());
        }
        assert_eq!(t.next_port.len(), 1, "only dom0's counter is kept");
    }
}
