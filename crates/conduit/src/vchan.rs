//! vchan: a point-to-point byte stream over grant-shared rings.
//!
//! A vchan is "a point-to-point link that uses Xen grant tables to map
//! shared memory pages between two VMs, using Xen event channels to
//! synchronise access to these pages" (§3.2.1). Each direction is a
//! single-producer single-consumer byte ring living in one granted page;
//! writing data sets the peer's event channel pending so it knows to poll
//! the ring. Establishing a vchan needs only the two domain ids — no
//! XenStore — which is why it works early in boot and inside disaggregated
//! systems; the higher-level rendezvous is layered on top by
//! [`crate::rendezvous`].

use netstack::{FrameBuf, FrameBufMut};
use xen_sim::event_channel::{EventChannelTable, Port};
use xen_sim::grant_table::{GrantRef, GrantTable};
use xen_sim::memory::PAGE_SIZE;
use xenstore::DomId;

/// Errors from vchan operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VchanError {
    /// The ring is full; the caller should wait for the peer to drain it.
    WouldBlock,
    /// The peer has closed its end.
    Closed,
    /// A grant or event-channel operation failed during setup.
    Setup(String),
}

/// Ring sizes: one page per direction, minus a small header area.
const RING_CAPACITY: usize = PAGE_SIZE - 16;

/// One direction of the channel: a byte ring with read/write cursors.
#[derive(Debug, Clone)]
struct Ring {
    buf: Vec<u8>,
    read: usize,
    write: usize,
    len: usize,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            buf: vec![0u8; RING_CAPACITY],
            read: 0,
            write: 0,
            len: 0,
        }
    }

    fn free(&self) -> usize {
        RING_CAPACITY - self.len
    }

    fn push(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.free());
        if n == 0 {
            return 0;
        }
        // At most two bulk moves: up to the end of the ring page, then the
        // wrapped remainder from its start.
        let first = n.min(RING_CAPACITY - self.write);
        self.buf[self.write..self.write + first].copy_from_slice(&data[..first]);
        if first < n {
            self.buf[..n - first].copy_from_slice(&data[first..n]);
        }
        self.write = (self.write + n) % RING_CAPACITY;
        self.len += n;
        n
    }

    /// Drain up to `max` bytes onto the end of `out`; returns how many. This
    /// is the copy out of the granted ring page, in at most two bulk moves
    /// (wraparound). The caller owns the destination, so a transfer that
    /// takes several drains still lands in one buffer — and every later
    /// layer (parser payloads, delivery queues, replay) only takes views of
    /// it.
    fn pop_into(&mut self, max: usize, out: &mut FrameBufMut) -> usize {
        let n = max.min(self.len);
        let first = n.min(RING_CAPACITY - self.read);
        out.extend_from_slice(&self.buf[self.read..self.read + first]);
        if first < n {
            out.extend_from_slice(&self.buf[..n - first]);
        }
        self.read = (self.read + n) % RING_CAPACITY;
        self.len -= n;
        n
    }
}

/// The shared state of an established vchan (both directions).
///
/// In the real system each ring lives in a granted page mapped by both
/// domains; here the [`VchanPair`] owns the rings and each [`Vchan`]
/// endpoint addresses them by direction, with the grant references and event
/// channel ports recorded so the setup path exercises the same hypervisor
/// interfaces.
#[derive(Debug)]
pub struct VchanPair {
    server: DomId,
    client: DomId,
    /// Ring carrying bytes from client to server.
    to_server: Ring,
    /// Ring carrying bytes from server to client.
    to_client: Ring,
    /// Grant of the server→client page (granted by the server).
    pub server_ring_gref: GrantRef,
    /// Grant of the client→server page (granted by the server).
    pub client_ring_gref: GrantRef,
    /// Server-side event channel port.
    pub server_port: Port,
    /// Client-side event channel port.
    pub client_port: Port,
    server_open: bool,
    client_open: bool,
    /// Cumulative payload bytes accepted into the client→server ring.
    bytes_to_server: u64,
    /// Cumulative payload bytes accepted into the server→client ring.
    bytes_to_client: u64,
}

/// Which end of the channel a [`Vchan`] handle represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The listening/granting side.
    Server,
    /// The connecting side.
    Client,
}

impl VchanPair {
    /// Establish a vchan between `server` and `client`: the server grants
    /// the two ring pages to the client and allocates an unbound event
    /// channel which the client binds.
    pub fn establish(
        grants: &mut GrantTable,
        evtchn: &mut EventChannelTable,
        server: DomId,
        client: DomId,
    ) -> Result<VchanPair, VchanError> {
        let server_ring_gref = grants
            .grant(server, client, false)
            .map_err(|e| VchanError::Setup(format!("grant failed: {e:?}")))?;
        let client_ring_gref = grants
            .grant(server, client, false)
            .map_err(|e| VchanError::Setup(format!("grant failed: {e:?}")))?;
        grants
            .map(server, server_ring_gref, client)
            .map_err(|e| VchanError::Setup(format!("map failed: {e:?}")))?;
        grants
            .map(server, client_ring_gref, client)
            .map_err(|e| VchanError::Setup(format!("map failed: {e:?}")))?;
        let server_port = evtchn.alloc_unbound(server, client);
        let client_port = evtchn
            .bind_interdomain(client, server, server_port)
            .map_err(|e| VchanError::Setup(format!("event channel bind failed: {e:?}")))?;
        Ok(VchanPair {
            server,
            client,
            to_server: Ring::new(),
            to_client: Ring::new(),
            server_ring_gref,
            client_ring_gref,
            server_port,
            client_port,
            server_open: true,
            client_open: true,
            bytes_to_server: 0,
            bytes_to_client: 0,
        })
    }

    /// The server-side endpoint handle.
    pub fn server_end(&self) -> Vchan {
        Vchan {
            side: Side::Server,
            dom: self.server,
        }
    }

    /// The client-side endpoint handle.
    pub fn client_end(&self) -> Vchan {
        Vchan {
            side: Side::Client,
            dom: self.client,
        }
    }

    fn rings(&mut self, side: Side) -> (&mut Ring, &mut Ring, bool) {
        // Returns (tx ring, rx ring, peer_open) for the given side.
        match side {
            Side::Server => (&mut self.to_client, &mut self.to_server, self.client_open),
            Side::Client => (&mut self.to_server, &mut self.to_client, self.server_open),
        }
    }

    /// Write bytes from `side`; returns how many were accepted. Notifies the
    /// peer's event channel when data was written.
    pub fn write(
        &mut self,
        side: Side,
        data: &[u8],
        evtchn: &mut EventChannelTable,
    ) -> Result<usize, VchanError> {
        let notify_from = match side {
            Side::Server => (self.server, self.server_port),
            Side::Client => (self.client, self.client_port),
        };
        let own_open = match side {
            Side::Server => self.server_open,
            Side::Client => self.client_open,
        };
        let (tx, _rx, peer_open) = self.rings(side);
        if !own_open || !peer_open {
            return Err(VchanError::Closed);
        }
        if data.is_empty() {
            // Nothing to transfer: not a blocking condition, even when the
            // ring happens to be exactly full.
            return Ok(0);
        }
        if tx.free() == 0 {
            return Err(VchanError::WouldBlock);
        }
        let n = tx.push(data);
        if n > 0 {
            match side {
                Side::Server => self.bytes_to_client += n as u64,
                Side::Client => self.bytes_to_server += n as u64,
            }
            // jitsu-lint: allow(R001, "notify can only fail if the peer closed its port; the bytes are already in the ring")
            let _ = evtchn.notify(notify_from.0, notify_from.1);
        }
        Ok(n)
    }

    /// Drive a whole buffer through the channel from `from`, reading at the
    /// peer whenever the ring fills, and return everything the peer read:
    /// any bytes that were already waiting in its ring, then `data`.
    /// A single-threaded convenience for co-operative bulk transfers — the
    /// Synjitsu → unikernel TCB drain pushes records much larger than one
    /// ring through exactly this loop.
    ///
    /// Every drain appends to one destination sized up front, so a transfer
    /// that fits the free ring is one push, one drain and one buffer, and a
    /// larger one is still one buffer.
    pub fn stream(
        &mut self,
        from: Side,
        data: &[u8],
        evtchn: &mut EventChannelTable,
    ) -> Result<FrameBuf, VchanError> {
        let to = match from {
            Side::Server => Side::Client,
            Side::Client => Side::Server,
        };
        let mut received = FrameBufMut::with_capacity(self.readable(to) + data.len());
        let mut offset = 0;
        while offset < data.len() {
            match self.write(from, &data[offset..], evtchn) {
                Ok(n) if n > 0 => offset += n,
                Ok(_) | Err(VchanError::WouldBlock) => {
                    if self.drain(to, usize::MAX, &mut received)? == 0 {
                        // Full ring and nothing drained: cannot progress.
                        return Err(VchanError::WouldBlock);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.drain(to, usize::MAX, &mut received)?;
        Ok(received.freeze())
    }

    /// Read up to `max` bytes available to `side` as a shared buffer of
    /// exactly the bytes drained. Zero-byte reads (an empty ring with the
    /// peer still open, or `max == 0`) never allocate.
    pub fn read(&mut self, side: Side, max: usize) -> Result<FrameBuf, VchanError> {
        let mut out = FrameBufMut::with_capacity(max.min(self.readable(side)));
        self.drain(side, max, &mut out)?;
        Ok(out.freeze())
    }

    /// Move up to `max` bytes readable by `side` onto the end of `out`;
    /// returns how many. An empty ring is `Ok(0)` while the peer is open and
    /// `Closed` once it is not.
    fn drain(
        &mut self,
        side: Side,
        max: usize,
        out: &mut FrameBufMut,
    ) -> Result<usize, VchanError> {
        let (_tx, rx, peer_open) = self.rings(side);
        if rx.len == 0 && !peer_open {
            return Err(VchanError::Closed);
        }
        Ok(rx.pop_into(max, out))
    }

    /// Bytes currently readable by `side`.
    pub fn readable(&self, side: Side) -> usize {
        match side {
            Side::Server => self.to_server.len,
            Side::Client => self.to_client.len,
        }
    }

    /// Cumulative payload bytes ever accepted into the client→server ring.
    ///
    /// A virtual (wall-clock-free) throughput counter: the `bench_snapshot`
    /// harness asserts it exactly against the driven workload, so any change
    /// to ring accounting shows up as metric drift rather than noise.
    pub fn bytes_to_server(&self) -> u64 {
        self.bytes_to_server
    }

    /// Cumulative payload bytes ever accepted into the server→client ring.
    pub fn bytes_to_client(&self) -> u64 {
        self.bytes_to_client
    }

    /// Cumulative payload bytes accepted in both directions.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_to_server + self.bytes_to_client
    }

    /// Close one side of the channel.
    pub fn close(&mut self, side: Side) {
        match side {
            Side::Server => self.server_open = false,
            Side::Client => self.client_open = false,
        }
    }

    /// True while both ends are open.
    pub fn is_open(&self) -> bool {
        self.server_open && self.client_open
    }

    /// Release the hypervisor resources behind the channel: unmap and
    /// revoke both ring grants, and close both event-channel ports. Without
    /// this, every short-lived vchan (one per Synjitsu handoff) permanently
    /// leaks two grant entries from the server's table until it fills.
    pub fn teardown(&mut self, grants: &mut GrantTable, evtchn: &mut EventChannelTable) {
        self.server_open = false;
        self.client_open = false;
        for gref in [self.server_ring_gref, self.client_ring_gref] {
            let _ = grants.unmap(self.server, gref);
            let _ = grants.revoke(self.server, gref);
        }
        let _ = evtchn.close(self.server, self.server_port);
        let _ = evtchn.close(self.client, self.client_port);
    }

    /// The ring capacity per direction.
    pub fn capacity() -> usize {
        RING_CAPACITY
    }
}

/// A lightweight endpoint handle (which side of which channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vchan {
    /// Which side this handle is.
    pub side: Side,
    /// The domain holding this end.
    pub dom: DomId,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GrantTable, EventChannelTable, VchanPair) {
        let mut grants = GrantTable::new();
        let mut evtchn = EventChannelTable::new();
        let pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(3), DomId(7)).unwrap();
        (grants, evtchn, pair)
    }

    #[test]
    fn establish_allocates_grants_and_ports() {
        let (grants, _evtchn, pair) = setup();
        assert_ne!(pair.server_ring_gref, pair.client_ring_gref);
        assert_eq!(grants.grants_of(DomId(3)), 2, "server granted both rings");
        assert!(pair.is_open());
        assert_eq!(pair.server_end().dom, DomId(3));
        assert_eq!(pair.client_end().dom, DomId(7));
    }

    #[test]
    fn bytes_flow_both_ways_with_notification() {
        let (_grants, mut evtchn, mut pair) = setup();
        let n = pair
            .write(Side::Client, b"hello server", &mut evtchn)
            .unwrap();
        assert_eq!(n, 12);
        // The server's event channel is pending.
        assert!(evtchn.take_pending(DomId(3), pair.server_port).is_ok());
        assert_eq!(pair.readable(Side::Server), 12);
        assert_eq!(pair.read(Side::Server, 64).unwrap(), b"hello server");
        assert_eq!(pair.readable(Side::Server), 0);

        pair.write(Side::Server, b"hello client", &mut evtchn)
            .unwrap();
        assert_eq!(pair.read(Side::Client, 5).unwrap(), b"hello");
        assert_eq!(pair.read(Side::Client, 64).unwrap(), b" client");
        assert_eq!(pair.read(Side::Client, 64).unwrap(), b"");
    }

    #[test]
    fn ring_wraps_correctly_over_many_messages() {
        let (_grants, mut evtchn, mut pair) = setup();
        // Push far more data than one ring holds, in chunks, draining as we go.
        let chunk = vec![0xAB; 1000];
        let mut total_read = 0usize;
        for _ in 0..20 {
            let n = pair.write(Side::Client, &chunk, &mut evtchn).unwrap();
            assert!(n > 0);
            let got = pair.read(Side::Server, 4096).unwrap();
            assert!(got.iter().all(|&b| b == 0xAB));
            total_read += got.len();
        }
        total_read += pair.read(Side::Server, usize::MAX).unwrap().len();
        assert_eq!(total_read, 20 * 1000);
    }

    #[test]
    fn byte_counters_account_for_every_accepted_byte() {
        let (_grants, mut evtchn, mut pair) = setup();
        assert_eq!(pair.bytes_transferred(), 0);
        pair.write(Side::Client, b"hello", &mut evtchn).unwrap();
        pair.write(Side::Server, b"hi", &mut evtchn).unwrap();
        assert_eq!(pair.bytes_to_server(), 5);
        assert_eq!(pair.bytes_to_client(), 2);
        assert_eq!(pair.bytes_transferred(), 7);
        pair.read(Side::Server, usize::MAX).unwrap();
        pair.read(Side::Client, usize::MAX).unwrap();
        // Counters are cumulative: draining the rings does not reset them,
        // and a multi-ring stream counts every byte exactly once.
        let payload = vec![0x5A; 3 * VchanPair::capacity() + 17];
        let echoed = pair.stream(Side::Client, &payload, &mut evtchn).unwrap();
        assert_eq!(echoed.len(), payload.len());
        assert_eq!(pair.bytes_to_server(), 5 + payload.len() as u64);
        assert_eq!(pair.bytes_to_client(), 2);
    }

    #[test]
    fn full_ring_blocks_then_drains() {
        let (_grants, mut evtchn, mut pair) = setup();
        let big = vec![1u8; VchanPair::capacity() + 500];
        let accepted = pair.write(Side::Client, &big, &mut evtchn).unwrap();
        assert_eq!(accepted, VchanPair::capacity());
        assert_eq!(
            pair.write(Side::Client, b"more", &mut evtchn),
            Err(VchanError::WouldBlock)
        );
        // Drain some and retry.
        let drained = pair.read(Side::Server, 100).unwrap();
        assert_eq!(drained.len(), 100);
        assert_eq!(pair.write(Side::Client, b"more", &mut evtchn).unwrap(), 4);
    }

    #[test]
    fn close_propagates_to_peer() {
        let (_grants, mut evtchn, mut pair) = setup();
        pair.write(Side::Server, b"bye", &mut evtchn).unwrap();
        pair.close(Side::Server);
        assert!(!pair.is_open());
        // The client can still read buffered data...
        assert_eq!(pair.read(Side::Client, 16).unwrap(), b"bye");
        // ...then sees Closed.
        assert_eq!(pair.read(Side::Client, 16), Err(VchanError::Closed));
        // And cannot write to a closed peer.
        assert_eq!(
            pair.write(Side::Client, b"x", &mut evtchn),
            Err(VchanError::Closed)
        );
    }

    #[test]
    fn zero_byte_reads_do_not_allocate() {
        let (_grants, mut evtchn, mut pair) = setup();
        // An idle ring with the peer open: empty result, no allocation.
        let empty = pair.read(Side::Server, usize::MAX).unwrap();
        assert!(empty.is_empty());
        assert!(
            !empty.has_allocation(),
            "an empty-ring read must return the allocation-free empty buffer"
        );
        // `max == 0` with data buffered is also allocation-free.
        pair.write(Side::Client, b"data", &mut evtchn).unwrap();
        let zero = pair.read(Side::Server, 0).unwrap();
        assert!(zero.is_empty());
        assert!(!zero.has_allocation());
        // The buffered bytes are still there afterwards.
        assert_eq!(pair.read(Side::Server, usize::MAX).unwrap(), b"data");
    }

    #[test]
    fn zero_length_write_does_not_notify() {
        let (_grants, mut evtchn, mut pair) = setup();
        pair.write(Side::Client, b"", &mut evtchn).unwrap();
        assert!(!evtchn.take_pending(DomId(3), pair.server_port).unwrap());
    }

    #[test]
    fn write_of_exactly_ring_capacity_fills_the_ring_in_one_call() {
        let (_grants, mut evtchn, mut pair) = setup();
        let exact = vec![0x5A; VchanPair::capacity()];
        let accepted = pair.write(Side::Client, &exact, &mut evtchn).unwrap();
        assert_eq!(accepted, VchanPair::capacity());
        assert_eq!(pair.readable(Side::Server), VchanPair::capacity());
        // Exactly full: one more byte would block…
        assert_eq!(
            pair.write(Side::Client, b"x", &mut evtchn),
            Err(VchanError::WouldBlock)
        );
        // …but an empty write is not a blocking condition.
        assert_eq!(pair.write(Side::Client, b"", &mut evtchn), Ok(0));
        // The full ring drains intact (the read cursor wraps once).
        let drained = pair.read(Side::Server, usize::MAX).unwrap();
        assert_eq!(drained, exact);
        assert_eq!(pair.write(Side::Client, b"x", &mut evtchn), Ok(1));
    }

    #[test]
    fn write_after_closing_own_side_is_an_error() {
        let (_grants, mut evtchn, mut pair) = setup();
        pair.close(Side::Client);
        assert_eq!(
            pair.write(Side::Client, b"late", &mut evtchn),
            Err(VchanError::Closed)
        );
        // The server sees Closed once nothing is left to drain.
        assert_eq!(pair.read(Side::Server, 16), Err(VchanError::Closed));
    }

    #[test]
    fn reader_drains_a_full_ring_buffered_before_the_peer_closed() {
        let (_grants, mut evtchn, mut pair) = setup();
        let exact = vec![0x77; VchanPair::capacity()];
        assert_eq!(
            pair.write(Side::Server, &exact, &mut evtchn).unwrap(),
            VchanPair::capacity()
        );
        pair.close(Side::Server);
        // Every byte written before the close is still readable…
        let mut drained = Vec::new();
        drained.extend_from_slice(&pair.read(Side::Client, 1000).unwrap());
        drained.extend_from_slice(&pair.read(Side::Client, usize::MAX).unwrap());
        assert_eq!(drained, exact);
        // …and only then does the reader observe the close.
        assert_eq!(pair.read(Side::Client, 16), Err(VchanError::Closed));
    }

    #[test]
    fn stream_pushes_buffers_larger_than_the_ring() {
        let (_grants, mut evtchn, mut pair) = setup();
        let big: Vec<u8> = (0..VchanPair::capacity() * 3 + 123)
            .map(|i| (i % 251) as u8)
            .collect();
        let received = pair.stream(Side::Server, &big, &mut evtchn).unwrap();
        assert_eq!(received, big, "no loss or reordering across wraps");
        assert_eq!(pair.readable(Side::Client), 0);
    }

    #[test]
    fn stream_that_fits_one_drain_returns_exactly_the_bytes_sent() {
        let (_grants, mut evtchn, mut pair) = setup();
        // Leave the cursors mid-ring first, so the drain wraps.
        let filler = vec![0u8; VchanPair::capacity() - 100];
        pair.stream(Side::Client, &filler, &mut evtchn).unwrap();
        let data: Vec<u8> = (0..1500).map(|i| (i % 251) as u8).collect();
        let got = pair.stream(Side::Client, &data, &mut evtchn).unwrap();
        assert_eq!(got, data);
        assert_eq!(got.len(), data.len());
        assert_eq!(pair.readable(Side::Server), 0);
        // `tests/data_plane_budget.rs` counts what this costs: one buffer
        // of `data.len()` bytes, however many drains it took.
    }

    #[test]
    fn stream_returns_bytes_already_readable_ahead_of_its_own() {
        let (_grants, mut evtchn, mut pair) = setup();
        pair.write(Side::Client, b"earlier ", &mut evtchn).unwrap();
        let got = pair.stream(Side::Client, b"later", &mut evtchn).unwrap();
        assert_eq!(got, b"earlier later");
        // The same when the transfer needs several drains.
        pair.write(Side::Client, b"earlier ", &mut evtchn).unwrap();
        let big = vec![0x42u8; 2 * VchanPair::capacity()];
        let got = pair.stream(Side::Client, &big, &mut evtchn).unwrap();
        assert_eq!(got.len(), 8 + big.len());
        assert!(got.starts_with(b"earlier "));
        assert!(got[8..].iter().all(|&b| b == 0x42));
    }

    #[test]
    fn teardown_releases_grants_and_ports() {
        let (mut grants, mut evtchn, mut pair) = setup();
        assert_eq!(grants.grants_of(DomId(3)), 2);
        pair.teardown(&mut grants, &mut evtchn);
        assert_eq!(grants.grants_of(DomId(3)), 0, "both ring grants revoked");
        assert!(!pair.is_open());
        assert_eq!(
            pair.write(Side::Client, b"x", &mut evtchn),
            Err(VchanError::Closed)
        );
        // Repeated short-lived channels must not exhaust the grant table.
        for _ in 0..1_000 {
            let mut p = VchanPair::establish(&mut grants, &mut evtchn, DomId(3), DomId(7)).unwrap();
            p.teardown(&mut grants, &mut evtchn);
        }
        assert_eq!(grants.grants_of(DomId(3)), 0);
        // Nor leave either end's port behind in the host-wide table.
        assert!(grants.is_empty());
        assert!(evtchn.is_empty());
    }

    #[test]
    fn teardown_after_either_end_died_leaves_both_tables_empty() {
        for dead in [DomId(3), DomId(7)] {
            let (mut grants, mut evtchn, mut pair) = setup();
            grants.domain_destroyed(dead);
            evtchn.domain_destroyed(dead);
            assert_eq!(evtchn.len(), 1, "the survivor's port, hung up");
            pair.teardown(&mut grants, &mut evtchn);
            assert!(grants.is_empty(), "dom{} died first", dead.0);
            assert!(evtchn.is_empty(), "dom{} died first", dead.0);
        }
    }

    #[test]
    fn stream_to_a_closed_peer_fails() {
        let (_grants, mut evtchn, mut pair) = setup();
        pair.close(Side::Client);
        assert_eq!(
            pair.stream(Side::Server, b"data", &mut evtchn),
            Err(VchanError::Closed)
        );
    }

    #[test]
    fn a_failed_stream_leaves_the_rings_as_they_were() {
        let (_grants, mut evtchn, mut pair) = setup();
        // Bytes in flight both ways, cursors mid-ring, then the client goes.
        pair.write(Side::Server, b"to the client", &mut evtchn)
            .unwrap();
        pair.write(Side::Client, b"to the server", &mut evtchn)
            .unwrap();
        pair.close(Side::Client);
        assert_eq!(
            pair.stream(Side::Server, b"more", &mut evtchn),
            Err(VchanError::Closed)
        );
        assert_eq!(pair.bytes_to_client(), 13, "nothing more was accepted");
        // Nothing was drained on the way to failing: both directions still
        // hold exactly what was written, in order.
        assert_eq!(pair.readable(Side::Client), 13);
        assert_eq!(pair.read(Side::Client, 6).unwrap(), b"to the");
        assert_eq!(pair.read(Side::Client, usize::MAX).unwrap(), b" client");
        assert_eq!(
            pair.read(Side::Server, usize::MAX).unwrap(),
            b"to the server"
        );
    }
}
