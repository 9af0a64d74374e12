//! Synjitsu: the connection proxy that masks boot latency.
//!
//! "synjitsu, built using the same OCaml TCP stack as the booting unikernel,
//! removes this race entirely by listening on the external network bridge
//! and an internal conduit for TCP packets destined for a unikernel that is
//! still booting. When it receives a SYN, it writes entries into a special
//! area in the conduit XenStore tree for the booting unikernel" (§3.3.1).
//!
//! The Rust Synjitsu does the same: it reuses [`netstack::Interface`] (the
//! same stack the unikernels use) configured with the *booting service's*
//! IP and MAC, accepts handshakes, buffers request bytes, and mirrors every
//! connection's [`Tcb`] into the XenStore handoff area via
//! [`HandoffCoordinator`]. When the unikernel's network stack comes up, the
//! handoff runs in two phases: [`Synjitsu::prepare_handoff`] stops the
//! proxy answering, the unikernel drains [`Synjitsu::connection_records`]
//! over the conduit vchan, and [`Synjitsu::commit_handoff`] flips
//! ownership, after which Synjitsu never touches that service's traffic.

use crate::config::ServiceConfig;
use crate::handoff::{HandoffCoordinator, HandoffPhase};
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::Ipv4Addr;
use netstack::tcp::Tcb;
use netstack::FrameBuf;
use std::collections::BTreeMap;
use xenstore::{Result as XsResult, XenStore};

/// Per-service proxy state.
#[derive(Debug)]
struct ProxiedService {
    iface: Interface,
    /// Buffered request bytes per connection, keyed by (client ip, port).
    buffers: BTreeMap<(Ipv4Addr, u16), Vec<u8>>,
    /// Stable record index per connection for the XenStore entries.
    record_ids: BTreeMap<(Ipv4Addr, u16), u32>,
    next_record: u32,
    port: u16,
}

/// The Synjitsu proxy.
#[derive(Debug, Default)]
pub struct Synjitsu {
    services: BTreeMap<String, ProxiedService>,
    handoff: HandoffCoordinator,
    syns_intercepted: u64,
}

impl Synjitsu {
    /// Create the proxy.
    pub fn new() -> Synjitsu {
        Synjitsu::default()
    }

    /// Number of SYNs intercepted on behalf of booting unikernels.
    pub fn syns_intercepted(&self) -> u64 {
        self.syns_intercepted
    }

    /// Number of services currently being proxied.
    pub fn proxied_services(&self) -> usize {
        self.services.len()
    }

    /// Number of live connections currently proxied for one service (the
    /// length of its SYN queue while its unikernel boots).
    pub fn proxied_connection_count(&self, name: &str) -> usize {
        self.services
            .get(name)
            .map(|svc| svc.iface.connection_count())
            .unwrap_or(0)
    }

    /// Begin proxying for a service that has just been summoned: Synjitsu
    /// impersonates the service's IP/MAC on the bridge until handoff.
    pub fn start_proxying(&mut self, xs: &mut XenStore, service: &ServiceConfig) -> XsResult<()> {
        self.handoff.begin_proxying(xs, &service.name)?;
        let mut iface = Interface::new(service.mac(), service.ip);
        iface.listen_tcp(service.port);
        self.services.insert(
            service.name.clone(),
            ProxiedService {
                iface,
                buffers: BTreeMap::new(),
                record_ids: BTreeMap::new(),
                next_record: 1,
                port: service.port,
            },
        );
        Ok(())
    }

    /// True if Synjitsu is currently proxying the named service.
    pub fn is_proxying(&self, name: &str) -> bool {
        self.services.contains_key(name)
    }

    fn record_id(svc: &mut ProxiedService, key: (Ipv4Addr, u16)) -> u32 {
        if let Some(id) = svc.record_ids.get(&key) {
            *id
        } else {
            let id = svc.next_record;
            svc.next_record += 1;
            svc.record_ids.insert(key, id);
            id
        }
    }

    /// Feed a frame captured from the bridge for the named (still-booting)
    /// service. Returns the frames Synjitsu wants to transmit (ARP replies,
    /// SYN-ACKs, ACKs). All connection state changes are mirrored into the
    /// XenStore handoff area.
    pub fn handle_frame(
        &mut self,
        xs: &mut XenStore,
        name: &str,
        frame: &FrameBuf,
    ) -> XsResult<Vec<FrameBuf>> {
        // Only answer while the handoff protocol says the proxy owns
        // traffic. During the `Prepare` window neither side may answer, so
        // the frame is parked in the handoff area for the unikernel to
        // replay after `Committed` — dropping it here would break the
        // "only one of them ever handles any given packet" guarantee by
        // turning the phase flip into silent loss.
        match self.handoff.phase(xs, name) {
            HandoffPhase::Prepare if self.services.contains_key(name) => {
                self.handoff.queue_pending_frame(xs, name, frame)?;
                return Ok(Vec::new());
            }
            HandoffPhase::Proxying => {}
            _ => return Ok(Vec::new()),
        }
        let Some(svc) = self.services.get_mut(name) else {
            return Ok(Vec::new());
        };
        let before = svc.iface.connection_count();
        let (out, events) = svc.iface.handle_frame(frame);
        if svc.iface.connection_count() > before {
            self.syns_intercepted += (svc.iface.connection_count() - before) as u64;
        }
        // Accumulate any request bytes (the interface surfaces them as
        // events; Synjitsu never answers them — it only buffers).
        for ev in events {
            if let IfaceEvent::TcpData { remote, data, .. } = ev {
                svc.buffers
                    .entry(remote)
                    .or_default()
                    .extend_from_slice(&data);
            }
        }
        // Mirror every live connection's TCB (with buffered bytes) into the
        // store, Figure 7 style.
        // jitsu-lint: allow(P001, "presence checked by the caller's lookup above")
        let to_record = Self::collect_records(self.services.get_mut(name).expect("present above"));
        for (id, tcb) in &to_record {
            self.handoff.record_connection(xs, name, *id, tcb)?;
        }
        Ok(out)
    }

    /// Build the current set of `(record id, TCB)` pairs for a service,
    /// covering every live proxied connection (including data-less embryonic
    /// ones) with any buffered request bytes attached.
    fn collect_records(svc: &mut ProxiedService) -> Vec<(u32, Tcb)> {
        let mut out = Vec::new();
        for (rip, rport, lport) in svc.iface.connection_keys() {
            if lport != svc.port {
                continue;
            }
            let remote = (rip, rport);
            // `tcb_snapshot` (not a raw `tcb` clone) so any segment bytes
            // still staged as shared views inside the connection are
            // flattened into `buffered` before serialisation.
            let tcb = match svc.iface.connection(remote, lport) {
                Some(conn) => conn.tcb_snapshot(),
                None => continue,
            };
            let id = Self::record_id(svc, remote);
            let mut tcb = tcb;
            tcb.buffered = svc.buffers.get(&remote).cloned().unwrap_or_default();
            out.push((id, tcb));
        }
        out
    }

    /// Re-snapshot every proxied connection for a service into XenStore.
    /// [`Synjitsu::handle_frame`] already does this after each frame; this
    /// is exposed for callers that mutate timing-related state out of band.
    pub fn snapshot_connections(&mut self, xs: &mut XenStore, name: &str) -> XsResult<usize> {
        let Some(svc) = self.services.get_mut(name) else {
            return Ok(0);
        };
        let to_record = Self::collect_records(svc);
        for (id, tcb) in &to_record {
            self.handoff.record_connection(xs, name, *id, tcb)?;
        }
        Ok(to_record.len())
    }

    /// The current `(record id, TCB)` snapshot for a service, with buffered
    /// request bytes attached — what the proxy serialises over the conduit
    /// vchan during the handoff drain.
    pub fn connection_records(&mut self, name: &str) -> Vec<(u32, Tcb)> {
        match self.services.get_mut(name) {
            Some(svc) => Self::collect_records(svc),
            None => Vec::new(),
        }
    }

    /// Phase 1 of the two-phase commit, entered when the booting unikernel's
    /// network stack attaches: the unikernel writes `Prepare` (so Synjitsu
    /// stops answering and every in-flight frame parks in the pending
    /// queue), and Synjitsu flushes the final state of every proxied
    /// connection into the store. Returns the number of flushed records.
    pub fn prepare_handoff(&mut self, xs: &mut XenStore, name: &str) -> XsResult<usize> {
        self.handoff.request_takeover(xs, name)?;
        self.snapshot_connections(xs, name)
    }

    /// Phase 2: the unikernel — which already drained every record over
    /// the conduit vchan — commits the takeover atomically (phase flip +
    /// record clear in one transaction, no redundant re-parse of the store
    /// copies) and collects any frames that arrived during the `Prepare`
    /// window for replay. Synjitsu forgets the service — from this point
    /// only the unikernel touches its traffic.
    pub fn commit_handoff(&mut self, xs: &mut XenStore, name: &str) -> XsResult<Vec<FrameBuf>> {
        self.handoff.commit_phase_only(xs, name)?;
        let pending = self.handoff.drain_pending_frames(xs, name)?;
        self.services.remove(name);
        Ok(pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::ethernet::MacAddr;
    use netstack::http::HttpRequest;
    use netstack::tcp::TcpState;
    use xenstore::EngineKind;

    const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x64]);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);

    fn service() -> ServiceConfig {
        ServiceConfig::http_site("alice.family.name", Ipv4Addr::new(192, 168, 1, 20))
    }

    fn client() -> Interface {
        let mut c = Interface::new(CLIENT_MAC, CLIENT_IP);
        c.add_arp_entry(service().ip, service().mac());
        c
    }

    /// Pump frames between the client and Synjitsu until quiescent.
    fn pump(
        xs: &mut XenStore,
        syn: &mut Synjitsu,
        client: &mut Interface,
        name: &str,
        first: FrameBuf,
    ) {
        let mut to_proxy = vec![first];
        for _ in 0..16 {
            if to_proxy.is_empty() {
                break;
            }
            let mut to_client = Vec::new();
            for f in to_proxy.drain(..) {
                to_client.extend(syn.handle_frame(xs, name, &f).unwrap());
            }
            syn.snapshot_connections(xs, name).unwrap();
            for f in to_client {
                let (out, _) = client.handle_frame(&f);
                to_proxy.extend(out);
            }
        }
    }

    /// The handoff as the daemon runs it: prepare, take the records the
    /// conduit vchan drain carries, commit. Returns the drained TCBs.
    fn hand_off(xs: &mut XenStore, syn: &mut Synjitsu, name: &str) -> Vec<Tcb> {
        syn.prepare_handoff(xs, name).unwrap();
        let records = syn.connection_records(name);
        syn.commit_handoff(xs, name).unwrap();
        records.into_iter().map(|(_, tcb)| tcb).collect()
    }

    #[test]
    fn syn_is_answered_and_recorded_while_booting() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut synjitsu = Synjitsu::new();
        let svc = service();
        synjitsu.start_proxying(&mut xs, &svc).unwrap();
        assert!(synjitsu.is_proxying(&svc.name));

        let mut c = client();
        let syn_frame = c.tcp_connect(svc.ip, svc.port);
        pump(&mut xs, &mut synjitsu, &mut c, &svc.name, syn_frame);

        // The client's handshake completed against the proxy.
        assert_eq!(c.connection_count(), 1);
        assert!(c
            .connection((svc.ip, svc.port), 49152)
            .map(|conn| conn.is_established())
            .unwrap_or(false));
        assert_eq!(synjitsu.syns_intercepted(), 1);
        // And the embryonic connection is visible in the store.
        let h = HandoffCoordinator::new();
        assert_eq!(h.recorded_connections(&mut xs, &svc.name), 1);
    }

    #[test]
    fn buffered_request_is_handed_over_in_the_tcb() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut synjitsu = Synjitsu::new();
        let svc = service();
        synjitsu.start_proxying(&mut xs, &svc).unwrap();

        let mut c = client();
        let syn_frame = c.tcp_connect(svc.ip, svc.port);
        pump(&mut xs, &mut synjitsu, &mut c, &svc.name, syn_frame);
        let request = HttpRequest::get("/", "alice.family.name").emit();
        let data_frame = c.tcp_send((svc.ip, svc.port), 49152, &request).unwrap();
        pump(&mut xs, &mut synjitsu, &mut c, &svc.name, data_frame);

        let tcbs = hand_off(&mut xs, &mut synjitsu, &svc.name);
        assert_eq!(tcbs.len(), 1);
        assert_eq!(tcbs[0].state, TcpState::Established);
        assert_eq!(tcbs[0].buffered, request);
        assert_eq!(tcbs[0].local_port, 80);
        assert_eq!(tcbs[0].remote_ip, CLIENT_IP);
        // The proxy has withdrawn.
        assert!(!synjitsu.is_proxying(&svc.name));
        assert!(HandoffCoordinator::new().unikernel_should_handle(&mut xs, &svc.name));
    }

    #[test]
    fn proxy_ignores_traffic_after_handoff() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut synjitsu = Synjitsu::new();
        let svc = service();
        synjitsu.start_proxying(&mut xs, &svc).unwrap();
        hand_off(&mut xs, &mut synjitsu, &svc.name);

        let mut c = client();
        let syn_frame = c.tcp_connect(svc.ip, svc.port);
        let out = synjitsu
            .handle_frame(&mut xs, &svc.name, &syn_frame)
            .unwrap();
        assert!(
            out.is_empty(),
            "only one of proxy/unikernel may answer a packet"
        );
    }

    #[test]
    fn frames_during_prepare_are_queued_not_answered_or_dropped() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut synjitsu = Synjitsu::new();
        let svc = service();
        synjitsu.start_proxying(&mut xs, &svc).unwrap();
        // Phase 1: the unikernel asks to take over.
        synjitsu.prepare_handoff(&mut xs, &svc.name).unwrap();

        // A SYN races the phase flip: Synjitsu must stay silent…
        let mut c = client();
        let racing_syn = c.tcp_connect(svc.ip, svc.port);
        let out = synjitsu
            .handle_frame(&mut xs, &svc.name, &racing_syn)
            .unwrap();
        assert!(out.is_empty(), "neither side answers during prepare");

        // …and the frame must come back out of the commit, byte-identical,
        // for the unikernel to replay.
        let pending = synjitsu.commit_handoff(&mut xs, &svc.name).unwrap();
        assert_eq!(pending, vec![racing_syn]);
        assert!(!synjitsu.is_proxying(&svc.name));
        assert!(HandoffCoordinator::new().unikernel_should_handle(&mut xs, &svc.name));
    }

    /// A one-shot handoff would adopt what the store's Figure 7 mirror
    /// holds; the records the vchan drain carries must be exactly those.
    #[test]
    fn split_phase_handoff_matches_the_one_shot_path() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut synjitsu = Synjitsu::new();
        let svc = service();
        synjitsu.start_proxying(&mut xs, &svc).unwrap();
        let mut c = client();
        let syn_frame = c.tcp_connect(svc.ip, svc.port);
        pump(&mut xs, &mut synjitsu, &mut c, &svc.name, syn_frame);
        let req = c
            .tcp_send((svc.ip, svc.port), 49152, b"GET / HTTP/1.1\r\n\r\n")
            .unwrap();
        pump(&mut xs, &mut synjitsu, &mut c, &svc.name, req);

        let flushed = synjitsu.prepare_handoff(&mut xs, &svc.name).unwrap();
        assert_eq!(flushed, 1);
        let records = synjitsu.connection_records(&svc.name);
        assert_eq!(records.len(), 1);
        let (id, tcb) = &records[0];
        assert_eq!(tcb.state, TcpState::Established);
        assert_eq!(tcb.buffered, b"GET / HTTP/1.1\r\n\r\n");
        let mirrored = xs
            .read_string(
                xenstore::DomId::DOM0,
                None,
                &format!("/conduit/alice_family_name/tcpv4/{id}/tcb"),
            )
            .unwrap();
        assert_eq!(Tcb::from_sexp(&mirrored).as_ref(), Some(tcb));
        let pending = synjitsu.commit_handoff(&mut xs, &svc.name).unwrap();
        assert!(pending.is_empty());
        assert!(!synjitsu.is_proxying(&svc.name));
        let h = HandoffCoordinator::new();
        assert!(h.unikernel_should_handle(&mut xs, &svc.name));
        assert_eq!(h.recorded_connections(&mut xs, &svc.name), 0);
    }

    #[test]
    fn frames_for_unknown_services_are_ignored() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut synjitsu = Synjitsu::new();
        let mut c = client();
        let syn_frame = c.tcp_connect(service().ip, 80);
        let out = synjitsu
            .handle_frame(&mut xs, "nobody.family.name", &syn_frame)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(synjitsu.proxied_services(), 0);
    }

    #[test]
    fn multiple_clients_are_all_recorded() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut synjitsu = Synjitsu::new();
        let svc = service();
        synjitsu.start_proxying(&mut xs, &svc).unwrap();

        let mut c1 = client();
        let mut c2 = Interface::new(
            MacAddr([2, 0, 0, 0, 0, 0x65]),
            Ipv4Addr::new(192, 168, 1, 101),
        );
        c2.add_arp_entry(svc.ip, svc.mac());
        let f1 = c1.tcp_connect(svc.ip, svc.port);
        let f2 = c2.tcp_connect(svc.ip, svc.port);
        pump(&mut xs, &mut synjitsu, &mut c1, &svc.name, f1);
        pump(&mut xs, &mut synjitsu, &mut c2, &svc.name, f2);
        let r1 = c1
            .tcp_send((svc.ip, svc.port), 49152, b"GET /a HTTP/1.1\r\n\r\n")
            .unwrap();
        let r2 = c2
            .tcp_send((svc.ip, svc.port), 49152, b"GET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        pump(&mut xs, &mut synjitsu, &mut c1, &svc.name, r1);
        pump(&mut xs, &mut synjitsu, &mut c2, &svc.name, r2);

        let tcbs = hand_off(&mut xs, &mut synjitsu, &svc.name);
        assert_eq!(tcbs.len(), 2);
        let mut paths: Vec<Vec<u8>> = tcbs.iter().map(|t| t.buffered.clone()).collect();
        paths.sort();
        assert!(paths[0].starts_with(b"GET /a"));
        assert!(paths[1].starts_with(b"GET /b"));
    }
}
