//! The PV network interface (netfront / netback).
//!
//! This is the device whose attachment dominates vanilla domain-creation
//! time: the backend must be created in dom0, a hotplug script must add the
//! new `vifN.0` to the bridge, and "a slew of RPCs go back-and-forth" over
//! XenStore while the guest blocks (§3.1). The [`VifDevice`] here performs
//! the real XenStore negotiation against the simulated store; the time cost
//! of the dom0 side is modelled by [`crate::hotplug`] and composed by the
//! toolstack.

use super::{
    backend_path, format_sized, frontend_path, read_state, write_state, DeviceKind, KeyDir,
    XenbusState,
};
use crate::bridge::{Bridge, PortId};
use crate::event_channel::{EventChannelTable, Port};
use crate::grant_table::{GrantRef, GrantTable};
use jitsu_sim::SimDuration;
use platform::Board;
use xenstore::{DomId, Result as XsResult, XenStore};

/// A guest network interface and its backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VifDevice {
    /// The guest owning the frontend.
    pub dom: DomId,
    /// Device index (always 0 for single-NIC unikernels).
    pub index: u32,
    /// The interface MAC address.
    pub mac: [u8; 6],
    /// Grant references for the transmit and receive rings.
    pub tx_ring: GrantRef,
    /// Receive ring grant.
    pub rx_ring: GrantRef,
    /// Guest-side event channel.
    pub port: Port,
    /// The backend's (dom0's) end of that channel, once it has bound.
    pub backend_port: Option<Port>,
    /// The bridge port of the backend, once the hotplug step has run.
    pub bridge_port: Option<PortId>,
}

impl VifDevice {
    /// Deterministically derive a locally-administered MAC address for a
    /// domain's interface (matching the `00:16:3e` Xen OUI convention,
    /// flagged locally administered).
    pub fn mac_for(dom: DomId, index: u32) -> [u8; 6] {
        [
            0x06,
            0x16,
            0x3e,
            ((dom.0 >> 8) & 0xff) as u8,
            (dom.0 & 0xff) as u8,
            (index & 0xff) as u8,
        ]
    }

    /// Create the frontend and backend XenStore entries, allocate rings and
    /// an event channel. The device is left in the `Initialised`/`InitWait`
    /// state pair, ready for the hotplug step and connection.
    pub fn setup(
        xs: &mut XenStore,
        grants: &mut GrantTable,
        evtchn: &mut EventChannelTable,
        dom: DomId,
        index: u32,
    ) -> XsResult<VifDevice> {
        let mac = Self::mac_for(dom, index);
        let tx_ring = grants
            .grant(dom, DomId::DOM0, false)
            // jitsu-lint: allow(P001, "a freshly built domain starts under its grant quota")
            .expect("grant capacity");
        let rx_ring = grants
            .grant(dom, DomId::DOM0, false)
            // jitsu-lint: allow(P001, "a freshly built domain starts under its grant quota")
            .expect("grant capacity");
        let port = evtchn.alloc_unbound(dom, DomId::DOM0);

        let (mut fe, mut be) = Self::ends(dom, index);
        let mac_str = format!(
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            mac[0], mac[1], mac[2], mac[3], mac[4], mac[5]
        );

        fe.publish(xs, "mac", mac_str.as_bytes())?;
        fe.publish(xs, "backend", be.dir().as_bytes())?;
        fe.publish(xs, "tx-ring-ref", tx_ring.0.to_string().as_bytes())?;
        fe.publish(xs, "rx-ring-ref", rx_ring.0.to_string().as_bytes())?;
        fe.publish(xs, "event-channel", port.0.to_string().as_bytes())?;
        write_state(xs, DomId::DOM0, &mut fe, XenbusState::Initialised)?;

        be.publish(xs, "frontend", fe.dir().as_bytes())?;
        be.publish(xs, "mac", mac_str.as_bytes())?;
        be.publish(xs, "bridge", b"xenbr0")?;
        write_state(xs, DomId::DOM0, &mut be, XenbusState::InitWait)?;

        Ok(VifDevice {
            dom,
            index,
            mac,
            tx_ring,
            rx_ring,
            port,
            backend_port: None,
            bridge_port: None,
        })
    }

    /// The keys of the frontend's directory and of the backend's.
    fn ends(dom: DomId, index: u32) -> (KeyDir, KeyDir) {
        (
            KeyDir::under(frontend_path(dom, DeviceKind::Vif, index)),
            KeyDir::under(backend_path(DomId::DOM0, dom, DeviceKind::Vif, index)),
        )
    }

    /// Run the backend side: map the rings, bind the event channel, attach
    /// the `vifN.M` backend to the bridge, and mark both ends connected.
    /// (The *time* this takes is charged separately via
    /// [`crate::hotplug::HotplugStyle`]; here we perform the state changes.)
    pub fn backend_connect(
        &mut self,
        xs: &mut XenStore,
        grants: &mut GrantTable,
        evtchn: &mut EventChannelTable,
        bridge: &mut Bridge,
    ) -> XsResult<()> {
        grants
            .map(self.dom, self.tx_ring, DomId::DOM0)
            // jitsu-lint: allow(P001, "the frontend granted these pages to the backend at setup")
            .expect("backend may map frontend ring");
        grants
            .map(self.dom, self.rx_ring, DomId::DOM0)
            // jitsu-lint: allow(P001, "the frontend granted these pages to the backend at setup")
            .expect("backend may map frontend ring");
        let backend_port = evtchn
            .bind_interdomain(DomId::DOM0, self.dom, self.port)
            // jitsu-lint: allow(P001, "the port was allocated unbound on the previous lines")
            .expect("unbound port is bindable");
        self.backend_port = Some(backend_port);
        let name = format_sized(
            "vif4294967295.4294967295".len(),
            format_args!("vif{}.{}", self.dom.0, self.index),
        );
        let port = bridge.attach(name);
        self.bridge_port = Some(port);

        let (mut fe, mut be) = Self::ends(self.dom, self.index);
        write_state(xs, DomId::DOM0, &mut be, XenbusState::Connected)?;
        write_state(xs, DomId::DOM0, &mut fe, XenbusState::Connected)?;
        Ok(())
    }

    /// True once both ends report `Connected`.
    pub fn is_connected(&self, xs: &mut XenStore) -> bool {
        let (mut fe, mut be) = Self::ends(self.dom, self.index);
        read_state(xs, DomId::DOM0, &mut fe) == XenbusState::Connected
            && read_state(xs, DomId::DOM0, &mut be) == XenbusState::Connected
    }

    /// The blocking XenStore RPC overhead the frontend experiences while the
    /// backend/hotplug machinery completes, when it is *not* overlapped with
    /// the domain build (§3.1 optimisation (ii) removes this from the
    /// critical path).
    pub fn blocking_rpc_time(board: &Board) -> SimDuration {
        // ≈3.3 ms on x86 → ≈20 ms on the Cubieboard2.
        board.scale_cpu(SimDuration::from_micros(3_300))
    }

    /// The in-dom0 work of creating the vif backend device itself (netback
    /// allocation), excluding the hotplug script.
    pub fn backend_create_time(board: &Board) -> SimDuration {
        // ≈0.8 ms on x86 → ≈5 ms on ARM.
        board.scale_cpu(SimDuration::from_micros(830))
    }

    /// The dom0 directory holding every vif backend of `dom`:
    /// `/local/domain/0/backend/vif/<domid>`. It sits under dom0's home, so
    /// removing the guest's home when the guest is destroyed leaves it
    /// behind; the toolstack removes it by name.
    pub fn backend_home(dom: DomId) -> String {
        format!(
            "/local/domain/{}/backend/{}/{}",
            DomId::DOM0.0,
            DeviceKind::Vif.dir_name(),
            dom.0
        )
    }

    /// Tear the device down (guest shutdown): detach from the bridge, close
    /// the backend's end of the event channel — it is dom0's entry, which the
    /// guest's death hangs up but cannot free — and mark both ends closed.
    pub fn close(
        &mut self,
        xs: &mut XenStore,
        evtchn: &mut EventChannelTable,
        bridge: &mut Bridge,
    ) -> XsResult<()> {
        if let Some(port) = self.bridge_port.take() {
            // jitsu-lint: allow(R001, "shutdown is best-effort: the bridge may have dropped the port already")
            let _ = bridge.detach(port);
        }
        if let Some(port) = self.backend_port.take() {
            // Best-effort like the rest: the backend bound this port and
            // nobody else closes it, so the only failure is a second close.
            let _ = evtchn.close(DomId::DOM0, port);
        }
        let (mut fe, mut be) = Self::ends(self.dom, self.index);
        write_state(xs, DomId::DOM0, &mut fe, XenbusState::Closed)?;
        write_state(xs, DomId::DOM0, &mut be, XenbusState::Closed)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::BoardKind;
    use xenstore::EngineKind;

    fn env() -> (XenStore, GrantTable, EventChannelTable, Bridge) {
        (
            XenStore::new(EngineKind::JitsuMerge),
            GrantTable::new(),
            EventChannelTable::new(),
            Bridge::new(),
        )
    }

    #[test]
    fn mac_addresses_are_deterministic_and_unicast() {
        let a = VifDevice::mac_for(DomId(5), 0);
        let b = VifDevice::mac_for(DomId(5), 0);
        let c = VifDevice::mac_for(DomId(6), 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a[0] & 0x01, 0, "must be unicast");
        assert_eq!(a[0] & 0x02, 0x02, "locally administered");
    }

    #[test]
    fn setup_writes_frontend_and_backend_keys() {
        let (mut xs, mut gt, mut ec, _br) = env();
        let vif = VifDevice::setup(&mut xs, &mut gt, &mut ec, DomId(5), 0).unwrap();
        let fe = frontend_path(DomId(5), DeviceKind::Vif, 0);
        let be = backend_path(DomId::DOM0, DomId(5), DeviceKind::Vif, 0);
        assert!(xs
            .read_string(DomId::DOM0, None, &format!("{fe}/mac"))
            .unwrap()
            .contains(':'));
        assert_eq!(
            xs.read_string(DomId::DOM0, None, &format!("{fe}/backend"))
                .unwrap(),
            be
        );
        assert_eq!(
            xs.read_string(DomId::DOM0, None, &format!("{be}/bridge"))
                .unwrap(),
            "xenbr0"
        );
        let (mut fe, mut be) = VifDevice::ends(DomId(5), 0);
        assert_eq!(
            read_state(&mut xs, DomId::DOM0, &mut fe),
            XenbusState::Initialised
        );
        assert_eq!(
            read_state(&mut xs, DomId::DOM0, &mut be),
            XenbusState::InitWait
        );
        assert!(!vif.is_connected(&mut xs));
        assert_ne!(vif.tx_ring, vif.rx_ring);
    }

    #[test]
    fn backend_connect_attaches_to_bridge_and_connects_both_ends() {
        let (mut xs, mut gt, mut ec, mut br) = env();
        let mut vif = VifDevice::setup(&mut xs, &mut gt, &mut ec, DomId(5), 0).unwrap();
        vif.backend_connect(&mut xs, &mut gt, &mut ec, &mut br)
            .unwrap();
        assert!(vif.is_connected(&mut xs));
        assert_eq!(br.port_count(), 1);
        assert_eq!(br.port_name(vif.bridge_port.unwrap()), Some("vif5.0"));
        // The guest can now signal the backend over the event channel.
        assert!(ec.notify(DomId(5), vif.port).unwrap());
    }

    #[test]
    fn close_detaches_from_bridge() {
        let (mut xs, mut gt, mut ec, mut br) = env();
        let mut vif = VifDevice::setup(&mut xs, &mut gt, &mut ec, DomId(5), 0).unwrap();
        vif.backend_connect(&mut xs, &mut gt, &mut ec, &mut br)
            .unwrap();
        vif.close(&mut xs, &mut ec, &mut br).unwrap();
        assert_eq!(br.port_count(), 0);
        assert!(vif.bridge_port.is_none());
        assert_eq!(ec.ports_of(DomId::DOM0), 0, "the backend's end is freed");
        assert_eq!(
            ec.notify(DomId(5), vif.port),
            Err(crate::event_channel::EventChannelError::NotBindable),
            "the guest's end stays, hung up, until the guest goes"
        );
        let (mut fe, _) = VifDevice::ends(DomId(5), 0);
        assert_eq!(
            read_state(&mut xs, DomId::DOM0, &mut fe),
            XenbusState::Closed
        );
    }

    #[test]
    fn backend_home_is_the_parent_of_every_backend_path() {
        let home = VifDevice::backend_home(DomId(5));
        assert_eq!(home, "/local/domain/0/backend/vif/5");
        for index in [0, 1] {
            let be = backend_path(DomId::DOM0, DomId(5), DeviceKind::Vif, index);
            assert_eq!(be, format!("{home}/{index}"));
        }
    }

    #[test]
    fn timing_constants_scale_with_board() {
        let arm = BoardKind::Cubieboard2.board();
        let x86 = BoardKind::X86Server.board();
        assert!((15..30).contains(&VifDevice::blocking_rpc_time(&arm).as_millis()));
        assert!((3..9).contains(&VifDevice::backend_create_time(&arm).as_millis()));
        assert!(VifDevice::blocking_rpc_time(&x86) < VifDevice::blocking_rpc_time(&arm));
    }

    #[test]
    fn multiple_vifs_per_guest_get_distinct_indices() {
        let (mut xs, mut gt, mut ec, _br) = env();
        let v0 = VifDevice::setup(&mut xs, &mut gt, &mut ec, DomId(5), 0).unwrap();
        let v1 = VifDevice::setup(&mut xs, &mut gt, &mut ec, DomId(5), 1).unwrap();
        assert_ne!(v0.mac, v1.mac);
        assert!(xs
            .directory(DomId::DOM0, None, "/local/domain/5/device/vif")
            .unwrap()
            .contains(&"1".to_string()));
    }
}
